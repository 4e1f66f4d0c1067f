//! End-to-end and per-layer benchmark of the vani-rs characterization
//! pipeline: simulate → capture → seal → spill → fsck → decode → fold →
//! render, over four workloads (`characterize`, `fleet`, `trace-replay`,
//! `trace-ingest`). `BENCHMARK.json` at the repository root declares the
//! workloads and metrics; `METRICS.md` beside this crate explains them.

pub mod bench;
pub mod host;
pub mod refloop;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (each metric as `{"value": v, "unit": u}`).
/// Metrics are emitted in `units` order; a metric missing from `values`
/// or not finite is an error, so the line always names every metric.
pub fn result_line(
    attempted: u64,
    failed: u64,
    values: &BTreeMap<String, f64>,
    units: &[(&str, &str)],
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(units.len());
    for (name, unit) in units {
        let v = values
            .get(*name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not finite ({v})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = values.keys().find(|k| !units.iter().any(|(n, _)| n == k)) {
        return Err(format!("metric `{extra}` is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    ))
}
