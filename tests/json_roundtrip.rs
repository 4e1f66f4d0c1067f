//! Integration: traces persisted to disk (a spill log written by
//! `spill_columnar`, read back with `load_spill`) survive the round trip
//! losslessly — a reloaded trace yields the same columnar analysis as the
//! original run, and persistence is canonical.

mod support;

use std::fs;
use support::Scratch;
use vani_suite::recorder::spill::{load_spill, spill_columnar, SpillFaultPlan};
use vani_suite::recorder::{ColumnarTrace, Tracer, DEFAULT_CHUNK_ROWS};
use vani_suite::workloads as wl;

fn save(c: &ColumnarTrace, path: &std::path::Path) {
    spill_columnar(c, DEFAULT_CHUNK_ROWS, path, SpillFaultPlan::none()).unwrap();
}

fn load(path: &std::path::Path) -> ColumnarTrace {
    load_spill(path).unwrap().to_columnar().unwrap()
}

#[test]
fn cm1_trace_round_trips_through_disk() {
    let dir = Scratch::new("cm1_trace_round_trips_through_disk");
    let run = wl::cm1::run(0.01, 11);
    let path = dir.path("cm1.vsp3");

    save(run.world.tracer.columnar(), &path);
    let mut reloaded = Tracer::from_columnar(load(&path));

    // Records and intern tables are preserved exactly.
    assert_eq!(reloaded.records(), run.world.tracer.records());
    assert_eq!(reloaded.file_paths(), run.world.tracer.file_paths());
    assert_eq!(reloaded.app_names(), run.world.tracer.app_names());
    // The rebuilt intern maps still resolve every path.
    for (i, p) in run.world.tracer.file_paths().iter().enumerate() {
        assert_eq!(reloaded.file_id(p).0 as usize, i, "{p} resolves to its id");
    }

    // Columnar analysis over the reloaded trace is identical.
    let c0 = run.columnar();
    let c1 = reloaded.columnar();
    assert_eq!(c0.to_records(), c1.to_records());
    assert_eq!(c0.io_ops(), c1.io_ops());
    let sel0 = c0.data_ops(None);
    let sel1 = c1.data_ops(None);
    assert_eq!(sel0, sel1);
    assert_eq!(c0.sum_bytes(&sel0), c1.sum_bytes(&sel1));
    assert_eq!(c0.sum_time(&sel0), c1.sum_time(&sel1));
    assert_eq!(c0.t_min(), c1.t_min());
    assert_eq!(c0.t_max(), c1.t_max());
}

#[test]
fn columnar_persistence_is_canonical() {
    // Saving the same columnar trace twice produces byte-identical logs,
    // and a save → load → save cycle is a fixed point.
    let dir = Scratch::new("columnar_persistence_is_canonical");
    let run = wl::cm1::run(0.005, 3);
    let c = ColumnarTrace::from_tracer(&run.world.tracer);
    let (p1, p2, p3) = (dir.path("c1.vsp3"), dir.path("c2.vsp3"), dir.path("c3.vsp3"));
    save(&c, &p1);
    save(&c, &p2);
    assert_eq!(fs::read(&p1).unwrap(), fs::read(&p2).unwrap());
    let back = load(&p1);
    save(&back, &p3);
    assert_eq!(fs::read(&p1).unwrap(), fs::read(&p3).unwrap());
}
