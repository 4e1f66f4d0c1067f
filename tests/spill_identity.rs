//! Integration: the spill path is **bit-identical** to the in-memory
//! streaming analyzer. Every exemplar of the paper's corpus — the seven
//! workloads, clean and under an active storage fault plan — is captured
//! into an on-disk segment log, recovered, and profiled straight off
//! disk; the profile must equal `TraceProfile::fused` on the same capture,
//! cell for cell, at 1, 2, and 8 workers and across chunk sizes.
//!
//! Also pinned here: off-disk profiling keeps the resident trace
//! footprint under the same ring bound as in-memory streaming. That test
//! reads the process-wide trace gauge, so no test in this binary may
//! materialize whole traces alongside it; whole-trace disk round trips
//! live in `spill_torture`.
//!
//! One worker-sweep `#[test]` on purpose: `rt::par::set_threads` is
//! process-global, so the sweep must not interleave with itself.

mod support;

use support::Scratch;
use vani_suite::recorder::chunk::{resident_bound, trace_gauge, DEFAULT_CHUNK_ROWS, RING_SLOTS};
use vani_suite::recorder::spill::{spill_columnar, SpillFaultPlan, SpillSource};
use vani_suite::recorder::ColumnarTrace;
use vani_suite::rt::par;
use vani_suite::sim::{Dur, SimTime};
use vani_suite::storage::FaultPlan;
use vani_suite::vani::analyzer::TraceProfile;
use vani_suite::workloads as wl;
use vani_suite::workloads::WorkloadRun;

/// The paper's seven exemplars: the six applications plus the IOR
/// calibration benchmark, at fast scales.
fn paper_seven() -> Vec<(&'static str, WorkloadRun)> {
    vec![
        ("cm1", wl::cm1::run(0.01, 5)),
        ("hacc", wl::hacc::run(0.01, 5)),
        ("cosmoflow", wl::cosmoflow::run(0.001, 5)),
        ("jag", wl::jag::run(0.01, 5)),
        ("montage", wl::montage::run(0.01, 5)),
        ("pegasus", wl::montage_pegasus::run(0.01, 5)),
        ("ior", wl::ior::run(wl::ior::IorParams::scaled(0.01), 5)),
    ]
}

/// Mild-but-active storage fault plan (the `streaming_vs_fused` one): the
/// resilience counters become part of the identity being checked.
fn stress_plan() -> FaultPlan {
    let end = SimTime::from_secs(1_000_000);
    FaultPlan::none()
        .with_nsd_outage(0, SimTime::from_secs(1), end)
        .with_mds_brownout(SimTime::ZERO, end, 3.0)
        .with_nsd_brownout(SimTime::from_secs(2), end, 1.5)
        .with_straggler(0, 1.2)
        .with_error_rates(0.03, 0.01)
}

/// The seven again, each under [`stress_plan`].
fn faulted_seven() -> Vec<(&'static str, WorkloadRun)> {
    let plan = stress_plan();
    let mut cm1 = wl::cm1::Cm1Params::scaled(0.01);
    cm1.faults = plan.clone();
    let mut hacc = wl::hacc::HaccParams::scaled(0.01);
    hacc.faults = plan.clone();
    let mut cosmo = wl::cosmoflow::CosmoflowParams::scaled(0.001);
    cosmo.faults = plan.clone();
    let mut jag = wl::jag::JagParams::scaled(0.01);
    jag.faults = plan.clone();
    let mut montage = wl::montage::MontageParams::scaled(0.01);
    montage.faults = plan.clone();
    let mut pegasus = wl::montage_pegasus::PegasusParams::scaled(0.01);
    pegasus.faults = plan.clone();
    let mut ior = wl::ior::IorParams::scaled(0.01);
    ior.faults = plan;
    vec![
        ("cm1+faults", wl::cm1::run_with(cm1, 0.01, 5)),
        ("hacc+faults", wl::hacc::run_with(hacc, 0.01, 5)),
        ("cosmoflow+faults", wl::cosmoflow::run_with(cosmo, 0.001, 5)),
        ("jag+faults", wl::jag::run_with(jag, 0.01, 5)),
        ("montage+faults", wl::montage::run_with(montage, 0.01, 5)),
        (
            "pegasus+faults",
            wl::montage_pegasus::run_with(pegasus, 0.01, 5),
        ),
        ("ior+faults", wl::ior::run(ior, 5)),
    ]
}

/// The acceptance gate of the spill store: for all fourteen runs (seven
/// workloads × {clean, faulted}), across a small and the default chunk
/// size, spill-capture → recover → off-disk streaming analysis equals
/// `TraceProfile::fused` on the same capture at 1, 2, and 8 workers.
#[test]
fn spilled_profile_matches_fused_on_all_workloads_and_worker_counts() {
    let dir = Scratch::new("spilled_profile_matches_fused_on_all_workloads");
    let mut runs = paper_seven();
    runs.extend(faulted_seven());
    let captures: Vec<(&str, ColumnarTrace, Dur)> = runs
        .iter()
        .map(|(n, r)| (*n, r.columnar(), r.runtime()))
        .collect();
    let oracles: Vec<TraceProfile> = captures
        .iter()
        .map(|(_, c, rt)| TraceProfile::fused(c, *rt))
        .collect();

    // Spill every capture once per chunk size; the sources are re-scanned
    // from disk on every profiling pass below.
    let mut sources: Vec<(usize, usize, SpillSource)> = Vec::new();
    for (i, (name, c, _)) in captures.iter().enumerate() {
        for (j, chunk_rows) in [512usize, DEFAULT_CHUNK_ROWS].into_iter().enumerate() {
            let path = dir.path(&format!("{name}-{chunk_rows}.vsp3"));
            spill_columnar(c, chunk_rows, &path, SpillFaultPlan::none())
                .unwrap_or_else(|e| panic!("{name}: clean spill failed: {e}"));
            let src = SpillSource::open_strict(&path)
                .unwrap_or_else(|e| panic!("{name}: clean log must open strict: {e}"));
            sources.push((i, j, src));
        }
    }

    for workers in [1usize, 2, 8] {
        par::set_threads(workers);
        for (i, _, src) in &sources {
            let (name, _, rt) = &captures[*i];
            let spilled = TraceProfile::streaming_source(src, *rt)
                .unwrap_or_else(|e| panic!("{name}: off-disk streaming failed: {e}"));
            assert_eq!(
                &spilled, &oracles[*i],
                "{name}: spilled profile diverged from fused at {workers} workers"
            );
        }
    }
    par::set_threads(0); // back to auto

    for (_, _, src) in &sources {
        std::fs::remove_file(src.path()).expect("remove spill log");
    }
}

/// Off-disk profiling holds at most the same ring as in-memory streaming:
/// writer staging during capture and the read/decode buffers during
/// analysis both stay under `resident_bound`.
#[test]
fn spill_capture_and_analysis_stay_under_the_ring_bound() {
    let dir = Scratch::new("spill_capture_and_analysis_stay_under_the_ring_bound");
    let run = wl::hacc::run(0.02, 5);
    let c = run.columnar();
    let chunk_rows = (c.len() / 10).max(16);
    let path = dir.path("ring-bound.vsp3");

    trace_gauge().reset();
    spill_columnar(&c, chunk_rows, &path, SpillFaultPlan::none()).expect("clean spill");
    let src = SpillSource::open_strict(&path).expect("clean log opens strict");
    assert!(src.len() >= 8, "trace too small to exercise the ring");
    let _ = TraceProfile::streaming_source(&src, run.runtime()).expect("off-disk streaming");
    let peak = trace_gauge().peak();
    assert!(peak > 0, "spill path never charged the trace gauge");
    assert!(
        peak <= resident_bound(chunk_rows, RING_SLOTS),
        "peak {peak} exceeds resident_bound({chunk_rows}, {RING_SLOTS}) = {}",
        resident_bound(chunk_rows, RING_SLOTS)
    );
    std::fs::remove_file(&path).expect("remove spill log");
}
