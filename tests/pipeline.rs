//! Integration: the full pipeline (simulate → trace → analyze) holds the
//! paper's Table I invariants for every exemplar workload.

mod support;

use support::Scratch;
use vani_suite::recorder::spill::{load_spill, spill_columnar, SpillFaultPlan};
use vani_suite::recorder::{Tracer, DEFAULT_CHUNK_ROWS};
use vani_suite::vani::analyzer::Analysis;
use vani_suite::workloads as wl;

#[test]
fn table1_shape_invariants_hold_across_all_six() {
    let analyses = vec![
        Analysis::from_run(&wl::cm1::run(0.02, 7)),
        Analysis::from_run(&wl::hacc::run(0.02, 7)),
        Analysis::from_run(&wl::cosmoflow::run(0.002, 7)),
        Analysis::from_run(&wl::jag::run(0.02, 7)),
        Analysis::from_run(&wl::montage::run(0.02, 7)),
        Analysis::from_run(&wl::montage_pegasus::run(0.01, 7)),
    ];
    let by_name = |n: &str| analyses.iter().find(|a| a.kind.name() == n).unwrap();

    // Interfaces (Table I's bottom row).
    assert_eq!(by_name("CM1").interface, "POSIX");
    assert_eq!(by_name("HACC (FPP)").interface, "POSIX");
    assert_eq!(by_name("Cosmoflow").interface, "HDF5-MPI-IO");
    assert_eq!(by_name("JAG").interface, "STDIO");
    assert_eq!(by_name("Montage MPI").interface, "STDIO");
    assert_eq!(by_name("Montage Pegasus").interface, "STDIO");

    // Sharing classification.
    assert_eq!(by_name("HACC (FPP)").shared_files(), 0);
    // The dataset itself is fully shared; only rank-0's few checkpoint
    // files register as FPP via the POSIX fallback.
    let cf0 = by_name("Cosmoflow");
    assert!(cf0.shared_files() > 10 * cf0.fpp_files().max(1));
    assert!(by_name("Montage Pegasus").shared_files() > 0);
    assert!(by_name("Montage Pegasus").fpp_files() > 0);

    // Byte-direction shapes.
    let cm1 = by_name("CM1");
    assert!(cm1.read_bytes > cm1.write_bytes);
    let hacc = by_name("HACC (FPP)");
    assert_eq!(hacc.read_bytes, hacc.write_bytes);
    let cf = by_name("Cosmoflow");
    assert!(cf.read_bytes > 100 * cf.write_bytes.max(1));

    // Metadata-heavy vs data-heavy op mixes.
    assert!(
        by_name("Cosmoflow").data_frac() < 0.5,
        "CosmoFlow is metadata-bound"
    );
    assert!(
        by_name("Montage MPI").data_frac() > 0.5,
        "Montage is data-bound"
    );

    // Every workload detected at least one I/O phase and one app.
    for a in &analyses {
        assert!(!a.phases.is_empty(), "{} has no phases", a.kind.name());
        assert!(!a.apps.is_empty(), "{} has no apps", a.kind.name());
        assert_eq!(
            a.access_pattern == "Seq",
            a.kind.name() != "Montage Pegasus"
        );
    }
}

/// A trace saved to a spill log and loaded back is the same capture:
/// records and intern tables equal, intern maps rebuilt, and saving the
/// reloaded trace again writes a byte-identical log.
#[test]
fn trace_round_trips_through_disk_and_reanalyzes() {
    let dir = Scratch::new("trace_round_trips_through_disk_and_reanalyzes");
    let run = wl::hacc::run(0.02, 3);
    let path = dir.path("hacc.vsp3");
    spill_columnar(
        run.world.tracer.columnar(),
        DEFAULT_CHUNK_ROWS,
        &path,
        SpillFaultPlan::none(),
    )
    .unwrap();
    let loaded = Tracer::from_columnar(load_spill(&path).unwrap().to_columnar().unwrap());
    assert_eq!(loaded.records(), run.world.tracer.records());
    let c = loaded.columnar();
    assert_eq!(c.len(), run.world.tracer.len());
    assert_eq!(c.io_ops(), run.columnar().io_ops());
}

#[test]
fn optimizer_rules_fire_selectively() {
    use vani_suite::vani::optimizer::recommend;
    let cf = Analysis::from_run(&wl::cosmoflow::run(0.002, 7));
    let hc = Analysis::from_run(&wl::hacc::run(0.02, 7));
    let cf_names: Vec<&str> = recommend(&cf)
        .iter()
        .map(|a| a.recommendation.name())
        .collect::<Vec<_>>();
    let hc_names: Vec<&str> = recommend(&hc)
        .iter()
        .map(|a| a.recommendation.name())
        .collect::<Vec<_>>();
    assert!(cf_names.contains(&"preload-dataset-to-shm"));
    assert!(hc_names.contains(&"disable-locking"));
    assert!(!hc_names.contains(&"preload-dataset-to-shm"));
}
