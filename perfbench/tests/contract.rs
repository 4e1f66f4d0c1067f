//! The benchmark's own tests: its metric names match `BENCHMARK.json`,
//! and a deliberately corrupted output is caught by the output checks
//! and counted as failed.

use perfbench::bench::{END_TO_END, PER_LAYER};
use perfbench::workloads::{self as w, Sizes};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use vani_core::sweep::Driver;
use vani_rt::json::Json;

/// Small inputs so the checks run in seconds.
const TINY: Sizes = Sizes {
    char_scale: 0.01,
    fleet_scale: 0.01,
    fleet_jobs: 4,
    fleets: 1,
    trace_scale: 0.01,
};

/// A scratch directory private to one test, inside the build directory.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.field(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.field("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.field("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn well_formed_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    for (section, printed) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared = declared(section);
        let printed: Vec<(String, String)> = printed
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(printed, declared, "{section} differs from BENCHMARK.json");
        for (name, unit) in &printed {
            assert!(well_formed_name(name), "bad metric name `{name}`");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{unit}`"
            );
        }
    }
}

#[test]
fn result_line_names_every_metric_and_nothing_else() {
    let mut values: BTreeMap<String, f64> = END_TO_END
        .iter()
        .map(|(n, _)| (n.to_string(), 1.5))
        .collect();
    let line = perfbench::result_line(12, 0, &values, &END_TO_END).expect("complete metric set");
    let doc = Json::parse(&line).expect("result line is JSON");
    let metrics = doc.field("metrics").expect("metrics");
    for (name, unit) in END_TO_END {
        let m = metrics.field(name).expect("metric present");
        assert_eq!(m.field("unit").and_then(Json::as_str).expect("unit"), unit);
    }
    assert_eq!(
        doc.field("attempted")
            .and_then(Json::as_int)
            .expect("attempted"),
        12
    );

    values.insert("undeclared".into(), 1.0);
    assert!(perfbench::result_line(12, 0, &values, &END_TO_END).is_err());
    values.remove("undeclared");
    values.remove("setup_s");
    assert!(perfbench::result_line(12, 0, &values, &END_TO_END).is_err());
}

#[test]
fn flipped_byte_in_a_spill_log_is_counted_failed() {
    let dir = scratch("flip");
    let caps = w::capture_six(TINY.trace_scale, 3);
    let logs = w::spill_all(&caps, &dir).expect("spill the clean captures");
    let reference = w::fused_profiles(&caps);
    assert_eq!(
        w::replay_check(&reference, &w::replay_pass(&logs)),
        w::Tally {
            attempted: 6,
            failed: 0
        }
    );

    let victim = &logs[2].path;
    let mut bytes = std::fs::read(victim).expect("read log");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(victim, bytes).expect("write corrupted log");
    let tally = w::replay_check(&reference, &w::replay_pass(&logs));
    assert_eq!(
        tally,
        w::Tally {
            attempted: 6,
            failed: 1
        }
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn truncated_ingest_log_is_counted_failed() {
    let dir = scratch("truncate");
    let caps = w::capture_six(TINY.trace_scale, 4);
    let written = w::ingest_write(&caps, &dir);
    assert_eq!(
        w::ingest_check(&caps, &written),
        w::Tally {
            attempted: 6,
            failed: 0
        }
    );
    let victim = &written[0].as_ref().expect("written").path;
    let len = std::fs::metadata(victim).expect("log exists").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(victim)
        .expect("open log");
    f.set_len(len - 7).expect("truncate");
    assert_eq!(
        w::ingest_check(&caps, &written),
        w::Tally {
            attempted: 6,
            failed: 1
        }
    );
    w::ingest_remove(&written);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn perturbed_fleet_digest_is_counted_failed() {
    vani_rt::par::set_threads(2);
    let fleet = w::fleet_inputs(5, &TINY).expect("valid fleet");
    w::fleet_setup(&fleet).expect("manifests draw");
    let cfg = &fleet.cfgs[0];
    let reference = w::fleet_pass(cfg, Driver::Sequential)
        .expect("sequential fleet")
        .digest;
    let out = w::fleet_pass(cfg, Driver::Parallel);
    let jobs = cfg.n_jobs as u64;
    assert_eq!(w::fleet_check(reference, &out, jobs).failed, 0);
    assert_eq!(w::fleet_check(reference ^ 1, &out, jobs).failed, jobs);
}

#[test]
fn one_wrong_exemplar_fails_only_that_job() {
    let good = w::CharOutput {
        tables: 7,
        yaml: vec![1, 2, 3, 4, 5, 6],
        records: 10,
        resident_bytes: 80,
    };
    let mut bad = good.clone();
    bad.yaml[4] ^= 1;
    assert_eq!(w::char_check(&good, &good).failed, 0);
    assert_eq!(
        w::char_check(&good, &bad),
        w::Tally {
            attempted: 6,
            failed: 1
        }
    );
    bad.tables ^= 1;
    assert_eq!(w::char_check(&good, &bad).failed, 6);
}

#[test]
fn characterize_matches_its_streaming_reference() {
    vani_rt::par::set_threads(1);
    let inp = w::char_setup(6, &TINY);
    let reference = w::char_reference(&inp);
    assert_eq!(w::char_check(&reference, &w::char_pass(&inp)).failed, 0);
}
