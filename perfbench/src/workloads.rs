//! The four benchmark workloads: inputs, the untraced pass, the traced
//! replica of the pass, and the output checks.
//!
//! Every untraced pass calls the program exactly as a user would (one
//! public entry point per stage). Every traced pass makes the same calls
//! one layer at a time so spans can sit between them; its outputs are
//! checked against the untraced pass, so the replica cannot silently do
//! different work.

use crate::spans::Recorder;
use exemplar_workloads::{cm1, cosmoflow, hacc, ior, jag, montage, montage_pegasus, WorkloadRun};
use recorder_sim::chunk::GaugeCharge;
use recorder_sim::spill::{
    fsck, spill_columnar, ChunkSource, SpillError, SpillFaultPlan, SpillSource, SpillSummary,
    SpillWriter,
};
use recorder_sim::{ColumnarTrace, CompressedChunk, DEFAULT_CHUNK_ROWS};
use sim_core::Dur;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use vani_core::analyzer::{Analysis, TraceProfile};
use vani_core::sweep::{self, Driver};
use vani_core::tenancy::contention::interference_for;
use vani_core::tenancy::fleet::build_manifest;
use vani_core::tenancy::scheduler::{resilient_schedule, JobDemand, ScheduleArrivals};
use vani_core::tenancy::{
    fleet_sweep, FleetConfig, FleetError, FleetReport, JobVariant, TenantDemand,
};
use vani_core::{tables, yaml};

/// Input sizes. [`STANDARD`] is what the benchmark measures; tests use
/// smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Scale of the six exemplars in `characterize`.
    pub char_scale: f64,
    /// Scale every fleet job runs at.
    pub fleet_scale: f64,
    /// Jobs per fleet.
    pub fleet_jobs: usize,
    /// Distinct fleets (seeds derived from the run seed) per run.
    pub fleets: usize,
    /// Scale of the six captured traces in `trace-replay`/`trace-ingest`.
    pub trace_scale: f64,
}

/// The measured input sizes.
pub const STANDARD: Sizes = Sizes {
    char_scale: 0.05,
    fleet_scale: 0.05,
    fleet_jobs: 48,
    fleets: 3,
    trace_scale: 0.2,
};

/// Output checks made and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs or traces whose output was checked.
    pub attempted: u64,
    /// Of those, the ones whose check failed (wrong output, typed error).
    pub failed: u64,
}

impl Tally {
    /// Record one checked item.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// FNV-1a 64-bit digest of a text output.
pub fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64 step: derives independent seeds from the run seed.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ (i.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An exemplar's `run(scale, seed)` entry point.
pub type Runner = fn(f64, u64) -> WorkloadRun;

/// The paper's six exemplars, in the tables' column order.
pub const SIX: [(&str, Runner); 6] = [
    ("cm1", cm1::run),
    ("hacc", hacc::run),
    ("cosmoflow", cosmoflow::run),
    ("jag", jag::run),
    ("montage_mpi", montage::run),
    ("montage_pegasus", montage_pegasus::run),
];

// ---------------------------------------------------------------- characterize

/// `characterize` inputs: the seed and the measured IOR peak Table IX
/// normalizes by.
#[derive(Debug, Clone)]
pub struct Characterize {
    /// Seed every exemplar runs with.
    pub seed: u64,
    /// Exemplar scale.
    pub scale: f64,
    /// IOR peak bandwidth, bytes/second.
    pub ior_peak: f64,
}

/// What one `characterize` pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CharOutput {
    /// Digest of Tables I–XI.
    pub tables: u64,
    /// Digest of each exemplar's YAML entities.
    pub yaml: Vec<u64>,
    /// Trace records analyzed.
    pub records: u64,
    /// Column bytes of the traces the analyses retain (the fused path
    /// keeps every trace resident without charging the trace gauge).
    pub resident_bytes: u64,
}

/// Build the `characterize` inputs: measure the IOR peak (as `repro`
/// does for Table IX).
pub fn char_setup(seed: u64, sizes: &Sizes) -> Characterize {
    let p = ior::IorParams {
        nodes: 32,
        ranks_per_node: 4,
        bytes_per_rank: 64 << 20,
        xfer: 16 << 20,
        read_back: false,
        ..ior::IorParams::paper()
    };
    Characterize {
        seed,
        scale: sizes.char_scale,
        ior_peak: ior::aggregate_bw(&ior::run(p, seed)),
    }
}

fn render_tables(analyses: &[Analysis], ior_peak: f64) -> String {
    let cols: Vec<&Analysis> = analyses.iter().collect();
    [
        tables::table1(&cols),
        tables::table2(&cols),
        tables::table3(&cols),
        tables::table4(&cols),
        tables::table5(&cols),
        tables::table6(&cols),
        tables::table7(&cols),
        tables::table8(&cols),
        tables::table9(&cols, ior_peak),
        tables::table10(&cols),
        tables::table11(&cols),
    ]
    .iter()
    .map(|t| t.render())
    .collect()
}

fn char_output(analyses: &[Analysis], tables_text: &str, yamls: &[String]) -> CharOutput {
    CharOutput {
        tables: fnv(tables_text),
        yaml: yamls.iter().map(|y| fnv(y)).collect(),
        records: analyses.iter().map(|a| a.trace.len() as u64).sum(),
        resident_bytes: analyses
            .iter()
            .map(|a| recorder_sim::chunk::columnar_capacity_bytes(&a.trace))
            .sum(),
    }
}

/// One `characterize` pass: the `repro` path — `sweep::paper_six`, then
/// Tables I–XI and the YAML entities.
pub fn char_pass(inp: &Characterize) -> CharOutput {
    let analyses = sweep::paper_six(inp.scale, inp.seed, Driver::Parallel);
    let tables_text = render_tables(&analyses, inp.ior_peak);
    let yamls: Vec<String> = analyses
        .iter()
        .map(|a| yaml::emit(&tables::entities_for(a)))
        .collect();
    char_output(&analyses, &tables_text, &yamls)
}

/// The reference `characterize` output, computed once through a different
/// analysis path (`Analysis::from_run_streaming`).
pub fn char_reference(inp: &Characterize) -> CharOutput {
    let analyses: Vec<Analysis> = SIX
        .iter()
        .map(|(_, run)| Analysis::from_run_streaming(&run(inp.scale, inp.seed)))
        .collect();
    let tables_text = render_tables(&analyses, inp.ior_peak);
    let yamls: Vec<String> = analyses
        .iter()
        .map(|a| yaml::emit(&tables::entities_for(a)))
        .collect();
    char_output(&analyses, &tables_text, &yamls)
}

/// Check one `characterize` output: each exemplar is one job, correct
/// when its YAML and the shared tables match the reference.
pub fn char_check(reference: &CharOutput, out: &CharOutput) -> Tally {
    let mut t = Tally::default();
    for (i, want) in reference.yaml.iter().enumerate() {
        t.check(out.tables == reference.tables && out.yaml.get(i) == Some(want));
    }
    t
}

/// Simulation-layer counters of one traced `characterize` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounters {
    /// Engine script steps.
    pub steps: u64,
    /// Trace records captured.
    pub records: u64,
    /// PFS data operations served.
    pub pfs_data_ops: u64,
    /// PFS metadata operations served.
    pub pfs_meta_ops: u64,
    /// PFS lock-token transfers.
    pub token_transfers: u64,
    /// Reads served from the PFS client cache.
    pub cache_hits: u64,
}

/// The traced replica of [`char_pass`]: each exemplar's `run` and
/// `Analysis::from_run` in their own spans, then the tables and the YAML.
pub fn char_traced(inp: &Characterize, rec: &mut Recorder, c: &mut SimCounters) -> CharOutput {
    let mut analyses = Vec::with_capacity(SIX.len());
    for (name, run) in SIX {
        let r = rec.time(&format!("simulate.{name}"), |_| run(inp.scale, inp.seed));
        let s = r.world.storage.pfs().stats();
        c.steps += r.report.steps;
        c.records += r.columnar_view().len() as u64;
        c.pfs_data_ops += s.data_ops;
        c.pfs_meta_ops += s.meta_ops;
        c.token_transfers += s.token_transfers;
        c.cache_hits += s.cache_hits;
        analyses.push(rec.time("fold.fused", |_| Analysis::from_run(&r)));
    }
    let tables_text = rec.time("render.tables", |_| render_tables(&analyses, inp.ior_peak));
    let yamls: Vec<String> = rec.time("render.yaml", |_| {
        analyses
            .iter()
            .map(|a| yaml::emit(&tables::entities_for(a)))
            .collect()
    });
    char_output(&analyses, &tables_text, &yamls)
}

// ----------------------------------------------------------------------- fleet

/// `fleet` inputs: standard fleets whose seeds derive from the run seed.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// One configuration per fleet.
    pub cfgs: Vec<FleetConfig>,
}

/// What one fleet pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOutput {
    /// Digest of the rendered report and its JSON.
    pub digest: u64,
    /// Jobs in the fleet.
    pub jobs: u64,
}

/// Whether `cfg`'s jobs are spread as the mix weights say: every
/// workload's share, and every variant's share, within one job of its
/// weighted expectation.
fn balanced(cfg: &FleetConfig) -> Result<bool, FleetError> {
    let manifest = build_manifest(cfg)?;
    let total = f64::from(cfg.mix.iter().map(|t| t.weight).sum::<u32>());
    let near = |in_class: &dyn Fn(&str, JobVariant) -> bool| {
        let weight: u32 = cfg
            .mix
            .iter()
            .filter(|t| in_class(&t.workload, t.variant))
            .map(|t| t.weight)
            .sum();
        let expected = cfg.n_jobs as f64 * f64::from(weight) / total;
        let got = manifest
            .jobs
            .iter()
            .filter(|j| in_class(&j.workload, j.variant))
            .count();
        (got as f64 - expected).abs() <= 1.0
    };
    let variants = [
        JobVariant::Baseline,
        JobVariant::Faulted,
        JobVariant::Crashy,
    ];
    Ok(cfg.mix.iter().all(|t| near(&|w, _| w == t.workload))
        && variants.iter().all(|&v| near(&|_, jv| jv == v)))
}

/// Choose the `fleet` inputs: standard heterogeneous fleets with no node
/// faults and no spill. Each fleet's seed is the first seed, in a sequence
/// derived from the run seed, whose job mix is balanced (every workload and
/// every variant within one job of its weighted share). A fleet's cost is dominated by
/// which workloads it draws — a CosmoFlow job costs several times a HACC
/// one — so unstratified 48-job fleets varied by ±15% in work from seed to
/// seed; stratifying keeps the per-seed inputs comparable while the job
/// seeds, arrivals and order still come from the run seed.
pub fn fleet_inputs(seed: u64, sizes: &Sizes) -> Result<Fleet, FleetError> {
    let mut cfgs = Vec::with_capacity(sizes.fleets);
    for i in 0..sizes.fleets {
        let stream = derive_seed(seed, i as u64);
        let mut k = 0u64;
        let cfg = loop {
            let cfg =
                FleetConfig::standard(sizes.fleet_jobs, sizes.fleet_scale, derive_seed(stream, k));
            if balanced(&cfg)? {
                break cfg;
            }
            k += 1;
        };
        cfgs.push(cfg);
    }
    Ok(Fleet { cfgs })
}

/// The timed `fleet` set-up: validate every fleet by drawing its manifest.
pub fn fleet_setup(fleet: &Fleet) -> Result<(), FleetError> {
    for cfg in &fleet.cfgs {
        build_manifest(cfg)?;
    }
    Ok(())
}

/// Digest of a fleet report: its rendered text and its JSON.
pub fn report_digest(r: &FleetReport) -> u64 {
    fnv(&(r.render() + &r.to_json().render()))
}

/// One fleet pass: `fleet_sweep`, then the report's render and JSON.
pub fn fleet_pass(cfg: &FleetConfig, driver: Driver) -> Result<FleetOutput, FleetError> {
    let r = fleet_sweep(cfg, driver)?;
    Ok(FleetOutput {
        digest: report_digest(&r),
        jobs: cfg.n_jobs as u64,
    })
}

/// Check one fleet pass against its reference: the fleet counts as
/// `jobs` items, all failed when the digest differs or the pass failed.
pub fn fleet_check(reference: u64, out: &Result<FleetOutput, FleetError>, jobs: u64) -> Tally {
    let ok = matches!(out, Ok(o) if o.digest == reference);
    Tally {
        attempted: jobs,
        failed: if ok { 0 } else { jobs },
    }
}

/// Counters of one traced fleet pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetCounters {
    /// Wave-2 jobs plus wave-1 profile runs.
    pub jobs_simulated: u64,
    /// Wave-1 dedicated profile runs.
    pub wave1_profiles: u64,
    /// Jobs.
    pub jobs: u64,
    /// Jobs whose full signature repeats an earlier job's.
    pub repeat_signatures: u64,
}

/// The traced fleet pass. `fleet_sweep` runs whole in one span (its
/// scheduler and contention calls happen inside it); the manifest, the
/// schedule and the interference schedules are then re-derived from the
/// report in probe spans outside the pass, which is how their cost is
/// measured, and the probe schedule is checked against the report.
pub fn fleet_traced(
    cfg: &FleetConfig,
    rec: &mut Recorder,
    c: &mut FleetCounters,
) -> Result<(FleetOutput, bool), FleetError> {
    let (out, report) = rec.time("pass.fleet", |rec| {
        let report = rec.time("fleet.sweep", |_| fleet_sweep(cfg, Driver::Parallel))?;
        let digest = rec.time("fleet.report", |_| report_digest(&report));
        Ok::<_, FleetError>((
            FleetOutput {
                digest,
                jobs: cfg.n_jobs as u64,
            },
            report,
        ))
    })?;
    let consistent = rec.time("probe.fleet", |rec| {
        let manifest = rec.time("tenancy.manifest", |_| build_manifest(cfg))?;
        let profile = |w: &str, v: &str| {
            report
                .profiles
                .iter()
                .find(|p| p.workload == w && p.variant == v)
                .expect("every manifest combo was profiled")
        };
        let submits: Vec<f64> = manifest.jobs.iter().map(|j| j.submit).collect();
        let demands: Vec<JobDemand> = manifest
            .jobs
            .iter()
            .map(|j| JobDemand {
                nodes: j.nodes,
                est_runtime: profile(&j.workload, j.variant.name()).runtime_s,
            })
            .collect();
        let schedules = rec.time("tenancy.schedule", |_| {
            resilient_schedule(
                cfg.cluster_nodes,
                &demands,
                &ScheduleArrivals::from_process(&cfg.arrival, &submits),
                &manifest.node_faults,
                &cfg.sched,
            )
        });
        let tenant: Vec<TenantDemand> = manifest
            .jobs
            .iter()
            .map(|j| {
                let p = profile(&j.workload, j.variant.name());
                TenantDemand {
                    data_frac: p.data_frac,
                    meta_frac: p.meta_frac,
                }
            })
            .collect();
        let schedules_ok = schedules
            .iter()
            .map(|s| s.as_placement())
            .eq(report.placements.iter().copied());
        let interference = rec.time("tenancy.interference", |_| {
            (0..manifest.jobs.len())
                .map(|i| interference_for(i, &report.placements, &tenant))
                .collect::<Vec<_>>()
        });
        // Signature: (workload, variant, scale, seed stream, interference
        // schedule, fault class); the variant is the fault class.
        let mut seen = HashSet::new();
        for (j, sched) in manifest.jobs.iter().zip(&interference) {
            let sig = format!(
                "{}|{}|{}|{:016x}|{:?}",
                j.workload,
                j.variant.name(),
                cfg.scale,
                j.seed,
                sched
            );
            if !seen.insert(sig) {
                c.repeat_signatures += 1;
            }
        }
        c.jobs += manifest.jobs.len() as u64;
        c.wave1_profiles += report.profiles.len() as u64;
        c.jobs_simulated += (report.records.len() + report.profiles.len()) as u64;
        Ok::<_, FleetError>(schedules_ok && manifest == report.manifest)
    })?;
    Ok((out, consistent))
}

// ---------------------------------------------------------------- trace plane

/// One captured exemplar trace.
#[derive(Debug, Clone)]
pub struct Captured {
    /// Exemplar name.
    pub name: &'static str,
    /// Its columns.
    pub trace: ColumnarTrace,
    /// Its job runtime (the analyzer's time base).
    pub job_time: Dur,
}

/// Simulate the six exemplars and keep their traces.
pub fn capture_six(scale: f64, seed: u64) -> Vec<Captured> {
    SIX.iter()
        .map(|(name, run)| {
            let r = run(scale, seed);
            Captured {
                name,
                trace: r.columnar(),
                job_time: r.runtime(),
            }
        })
        .collect()
}

/// One sealed spill log of the replay set.
#[derive(Debug, Clone)]
pub struct ReplayLog {
    /// The log's path.
    pub path: PathBuf,
    /// Job runtime of the captured run.
    pub job_time: Dur,
    /// Records in the log.
    pub records: u64,
    /// Bytes on disk.
    pub bytes: u64,
}

/// Spill every captured trace to a v3 log in `dir`.
pub fn spill_all(caps: &[Captured], dir: &Path) -> Result<Vec<ReplayLog>, SpillError> {
    caps.iter()
        .map(|c| {
            let path = dir.join(format!("{}.vsp3", c.name));
            let s = spill_columnar(&c.trace, DEFAULT_CHUNK_ROWS, &path, SpillFaultPlan::none())?;
            Ok(ReplayLog {
                path: s.path,
                job_time: c.job_time,
                records: s.records,
                bytes: s.bytes,
            })
        })
        .collect()
}

/// The fused in-memory profile of every captured trace: what the replay
/// pass must read back off disk.
pub fn fused_profiles(caps: &[Captured]) -> Vec<TraceProfile> {
    caps.iter()
        .map(|c| TraceProfile::fused(&c.trace, c.job_time))
        .collect()
}

/// One replay pass: every log opened strictly and profiled straight off
/// disk.
pub fn replay_pass(logs: &[ReplayLog]) -> Vec<Result<TraceProfile, SpillError>> {
    logs.iter()
        .map(|l| {
            let src = SpillSource::open_strict(&l.path)?;
            TraceProfile::streaming_source(&src, l.job_time)
        })
        .collect()
}

/// Check a replay pass: each trace is correct when its off-disk profile
/// equals the fused in-memory one.
pub fn replay_check(reference: &[TraceProfile], out: &[Result<TraceProfile, SpillError>]) -> Tally {
    let mut t = Tally::default();
    for (i, want) in reference.iter().enumerate() {
        t.check(matches!(out.get(i), Some(Ok(p)) if p == want));
    }
    t
}

/// Counters of one traced replay pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounters {
    /// Chunks fsck verified.
    pub chunks_verified: u64,
    /// Records decoded by the decode probe.
    pub records: u64,
}

/// The traced replay pass (open and fold per log), then a decode probe
/// outside the pass that times `decode_into` through `scan_chunks` alone.
pub fn replay_traced(
    logs: &[ReplayLog],
    rec: &mut Recorder,
    c: &mut ReplayCounters,
) -> Vec<Result<TraceProfile, SpillError>> {
    let out = rec.time("pass.replay", |rec| {
        logs.iter()
            .map(|l| {
                let src = rec.time("fsck.open_strict", |_| SpillSource::open_strict(&l.path))?;
                c.chunks_verified += src.report().committed_chunks;
                rec.time("fold.streaming", |_| {
                    TraceProfile::streaming_source(&src, l.job_time)
                })
            })
            .collect()
    });
    rec.time("probe.replay", |rec| {
        let mut buf = ColumnarTrace::default();
        for l in logs {
            let Ok(src) = SpillSource::open_strict(&l.path) else {
                continue;
            };
            let mut bad = false;
            let scanned = rec.time("decode", |_| {
                src.scan_chunks(&mut |ch: &CompressedChunk| {
                    buf.clear_rows();
                    bad |= ch.decode_into(&mut buf, false).is_err();
                })
            });
            if scanned.is_ok() && !bad {
                c.records += src.len();
            }
        }
    });
    out
}

/// Write every captured trace to `dir` with `spill_columnar`.
pub fn ingest_write(caps: &[Captured], dir: &Path) -> Vec<Result<SpillSummary, SpillError>> {
    caps.iter()
        .map(|c| {
            spill_columnar(
                &c.trace,
                DEFAULT_CHUNK_ROWS,
                &dir.join(format!("{}.vsp3", c.name)),
                SpillFaultPlan::none(),
            )
        })
        .collect()
}

/// Check an ingest pass: each log must pass `fsck` cleanly with every
/// captured record committed.
pub fn ingest_check(caps: &[Captured], written: &[Result<SpillSummary, SpillError>]) -> Tally {
    let mut t = Tally::default();
    for (c, w) in caps.iter().zip(written) {
        let ok = match w {
            Ok(s) => matches!(fsck(&s.path), Ok(r) if r.is_clean()
                && r.committed_records == c.trace.len() as u64
                && s.records == c.trace.len() as u64),
            Err(_) => false,
        };
        t.check(ok);
    }
    t
}

/// Remove the logs an ingest pass wrote.
pub fn ingest_remove(written: &[Result<SpillSummary, SpillError>]) {
    for s in written.iter().flatten() {
        let _ = std::fs::remove_file(&s.path);
    }
}

/// Counters of one traced ingest pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestCounters {
    /// Records sealed.
    pub records: u64,
    /// Encoded column bytes sealed.
    pub encoded_bytes: u64,
    /// Chunks appended.
    pub chunks: u64,
    /// Log bytes written.
    pub log_bytes: u64,
}

/// One trace spilled through the writer by hand, as `spill_columnar`
/// does, with the seal, append and finish calls in their own spans.
fn spill_traced(
    c: &ColumnarTrace,
    path: &Path,
    rec: &mut Recorder,
    n: &mut IngestCounters,
) -> Result<SpillSummary, SpillError> {
    let mut w = rec.time("spill.append", |_| {
        let mut w = SpillWriter::create(path, DEFAULT_CHUNK_ROWS, SpillFaultPlan::none())?;
        w.intern(&c.file_paths, &c.app_names)?;
        Ok::<_, SpillError>(w)
    })?;
    let mut scratch: Vec<u64> = Vec::with_capacity(DEFAULT_CHUNK_ROWS.min(c.len()));
    let _charge = GaugeCharge::new((scratch.capacity() * 8) as u64);
    let mut at = 0usize;
    while at < c.len() {
        let end = (at + DEFAULT_CHUNK_ROWS).min(c.len());
        let chunk = rec.time("seal", |_| CompressedChunk::seal(c, at..end, &mut scratch));
        n.encoded_bytes += chunk.encoded_bytes() as u64;
        rec.time("spill.append", |_| {
            w.append(&chunk, &c.file_paths, &c.app_names)
        })?;
        at = end;
    }
    let s = rec.time("spill.finish", |_| w.finish())?;
    n.records += s.records;
    n.chunks += s.chunks;
    n.log_bytes += s.bytes;
    Ok(s)
}

/// The traced ingest pass. Returns what was written (checked, then
/// removed, by the caller) and the pass time without the check.
pub fn ingest_traced(
    caps: &[Captured],
    dir: &Path,
    rec: &mut Recorder,
    n: &mut IngestCounters,
) -> Vec<Result<SpillSummary, SpillError>> {
    rec.time("pass.ingest", |rec| {
        caps.iter()
            .map(|c| spill_traced(&c.trace, &dir.join(format!("{}.vsp3", c.name)), rec, n))
            .collect()
    })
}
