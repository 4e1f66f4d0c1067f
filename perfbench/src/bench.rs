//! Measurement: the untraced run that gives the end-to-end metrics and
//! the traced run that gives the per-layer metrics.

use crate::host;
use crate::refloop::{time_reference, NOMINAL_SECS};
use crate::spans::Recorder;
use crate::workloads::{self as w, Sizes, Tally};
use recorder_sim::chunk::trace_gauge;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vani_core::sweep::Driver;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 4] = ["characterize", "fleet", "trace-replay", "trace-ingest"];

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_ref_ratio", "ratio"),
    ("peak_trace_bytes", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("simulate.cm1_s", "s"),
    ("simulate.hacc_s", "s"),
    ("simulate.cosmoflow_s", "s"),
    ("simulate.jag_s", "s"),
    ("simulate.montage_mpi_s", "s"),
    ("simulate.montage_pegasus_s", "s"),
    ("simulate.steps", "count"),
    ("simulate.records", "count"),
    ("simulate.ns_per_record", "ns"),
    ("simulate.ns_per_step", "ns"),
    ("simulate.pfs_data_ops", "count"),
    ("simulate.pfs_meta_ops", "count"),
    ("simulate.token_transfers", "count"),
    ("simulate.cache_hits", "count"),
    ("seal.host_s", "s"),
    ("seal.ns_per_record", "ns"),
    ("seal.encoded_bytes_per_record", "B"),
    ("spill.append_s", "s"),
    ("spill.finish_s", "s"),
    ("spill.chunks", "count"),
    ("spill.log_bytes_per_record", "B"),
    ("fsck.host_s", "s"),
    ("fsck.chunks_verified", "count"),
    ("decode.host_s", "s"),
    ("decode.ns_per_record", "ns"),
    ("fold.fused_s", "s"),
    ("fold.streaming_s", "s"),
    ("fold.streaming_self_s", "s"),
    ("fold.ns_per_record", "ns"),
    ("fold.streaming_ns_per_record", "ns"),
    ("render.tables_s", "s"),
    ("render.yaml_s", "s"),
    ("tenancy.manifest_s", "s"),
    ("tenancy.schedule_s", "s"),
    ("tenancy.interference_s", "s"),
    ("fleet.sweep_s", "s"),
    ("fleet.report_s", "s"),
    ("fleet.jobs_simulated", "count"),
    ("fleet.wave1_profiles", "count"),
    ("fleet.repeat_signature_frac", "ratio"),
    ("par.cpu_util_fleet", "ratio"),
    ("par.cpu_util_replay", "ratio"),
    ("ingest.records_per_s", "1/s"),
    ("replay.records_per_s", "1/s"),
    ("characterize.records_per_s", "1/s"),
    ("trace.overhead_characterize", "ratio"),
    ("trace.overhead_fleet", "ratio"),
    ("trace.overhead_replay", "ratio"),
    ("trace.overhead_ingest", "ratio"),
];

/// Set-up samples per run and set-ups per sample. The cheap set-ups
/// (`characterize`, `fleet`: well under a millisecond) are batched so a
/// sample is long enough to time; the capture-heavy ones run three times.
const SETUPS_CHEAP: (usize, usize) = (31, 40);
const SETUPS_CAPTURE: (usize, usize) = (3, 1);

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks made and failed.
    pub tally: Tally,
    /// Metric name → value, in the units of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: BTreeMap<String, f64>,
    /// Host facts and secondary figures, printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced run (empty for the untraced run).
    pub spans: Option<Recorder>,
}

/// Linearly interpolated `q`-quantile of a sample (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (h - lo as f64)
}

/// Median of a sample (the mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Set-up times of one run: wall seconds and host-normalized seconds.
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    /// Median wall seconds per set-up.
    wall_s: f64,
    /// Lower quartile of each sample's wall time over the reference loops
    /// either side of it, in units of the loop's nominal time
    /// ([`NOMINAL_SECS`]): set-up seconds at a fixed host speed.
    normalized_s: f64,
}

/// Time `samples` batches of `batch` set-ups, with the reference loop
/// between batches; keep the last result.
fn repeat_setup<T>(
    (samples, batch): (usize, usize),
    mut setup: impl FnMut() -> T,
) -> (T, SetupTime) {
    let mut wall = Vec::with_capacity(samples);
    let mut normalized = Vec::with_capacity(samples);
    let mut last = None;
    let mut before = time_reference();
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            last = Some(setup());
        }
        let secs = t.elapsed().as_secs_f64() / batch as f64;
        let after = time_reference();
        wall.push(secs);
        normalized.push(secs / ((before + after) / 2.0) * NOMINAL_SECS);
        before = after;
    }
    let time = SetupTime {
        wall_s: median(&wall),
        normalized_s: quantile(&normalized, 0.25),
    };
    (last.expect("at least one set-up"), time)
}

/// One timed pass: which input, its wall time, the reference loop's time
/// around it, the jobs it completed, and the process's peak RSS after it.
struct Sample {
    input: usize,
    secs: f64,
    ref_secs: f64,
    jobs: u64,
    max_rss_kib: u64,
}

/// Run passes over `inputs` inputs in turn until `seconds` have passed
/// and every input ran equally often. `pass` returns its own timed
/// seconds (so untimed checks can sit inside it) and the jobs it did. The
/// reference loop runs between passes; each pass is divided by the mean
/// of the loops either side of it.
fn measure(seconds: f64, inputs: usize, mut pass: impl FnMut(usize) -> (f64, u64)) -> Vec<Sample> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut before = time_reference();
    let mut out = Vec::new();
    loop {
        let input = out.len() % inputs;
        let (secs, jobs) = pass(input);
        let after = time_reference();
        out.push(Sample {
            input,
            secs,
            ref_secs: (before + after) / 2.0,
            jobs,
            max_rss_kib: host::usage().max_rss_kib,
        });
        before = after;
        if out.len() % inputs == 0 && Instant::now() >= deadline {
            return out;
        }
    }
}

/// Throughput and host-normalized time over a run's samples, per input
/// and then summed over inputs, so a run reads as one pass over every
/// input. Throughput uses the median pass. The ratio divides the lower
/// quartile of the pass times by the lower quartile of the reference
/// times: co-tenant interference on a shared host only ever adds time,
/// in bursts of tens of milliseconds, so the faster quartile of each is
/// the least disturbed estimate and their ratio cancels the host's speed.
fn summarize(samples: &[Sample], inputs: usize) -> (f64, f64, f64) {
    let (mut jobs, mut secs, mut ratio) = (0u64, 0.0, 0.0);
    for i in 0..inputs {
        let mine: Vec<&Sample> = samples.iter().filter(|s| s.input == i).collect();
        let pass: Vec<f64> = mine.iter().map(|s| s.secs).collect();
        let refs: Vec<f64> = mine.iter().map(|s| s.ref_secs).collect();
        jobs += mine[0].jobs;
        secs += median(&pass);
        ratio += quantile(&pass, 0.25) / quantile(&refs, 0.25);
    }
    (jobs as f64 / secs, ratio, secs)
}

/// Where the benchmark writes spill logs and span files: inside the
/// checkout, under the build directory.
pub fn work_dir() -> PathBuf {
    Path::new(".bench_build").join("perfbench-work")
}

/// Host facts recorded with every result.
fn host_notes(dir: &Path) -> Vec<String> {
    vec![format!(
        "host nproc={} spill_fs={} spill_dir={}",
        host::nproc(),
        host::fs_type(dir),
        dir.display()
    )]
}

fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// The untraced run of one workload: the end-to-end metrics.
pub fn run_untraced(
    workload: &str,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
) -> std::io::Result<Outcome> {
    let dir = work_dir().join(format!("{workload}-{}", std::process::id()));
    fresh_dir(&dir)?;
    let nproc = host::nproc();
    let mut o = Outcome {
        notes: host_notes(&dir),
        ..Outcome::default()
    };
    let mut peak_trace = 0u64;
    let (workers, scale, input, setup_s, samples, inputs, records);
    match workload {
        "characterize" => {
            workers = 1;
            vani_rt::par::set_threads(workers);
            let (inp, s) = repeat_setup(SETUPS_CHEAP, || w::char_setup(seed, sizes));
            let reference = w::char_reference(&inp);
            trace_gauge().reset();
            let mut recs = 0;
            let tally = &mut o.tally;
            samples = measure(seconds, 1, |_| {
                let t = Instant::now();
                let out = w::char_pass(&inp);
                let secs = t.elapsed().as_secs_f64();
                tally.add(w::char_check(&reference, &out));
                peak_trace = peak_trace.max(out.resident_bytes);
                recs = out.records;
                (secs, w::SIX.len() as u64)
            });
            (scale, setup_s, inputs, records) = (sizes.char_scale, s, 1, recs);
            input = format!("six exemplars, {recs} trace records per pass");
        }
        "fleet" => {
            workers = nproc;
            vani_rt::par::set_threads(workers);
            let inp =
                w::fleet_inputs(seed, sizes).map_err(|e| std::io::Error::other(e.to_string()))?;
            let (valid, s) = repeat_setup(SETUPS_CHEAP, || w::fleet_setup(&inp));
            valid.map_err(|e| std::io::Error::other(e.to_string()))?;
            let refs: Vec<u64> = inp
                .cfgs
                .iter()
                .map(|c| w::fleet_pass(c, Driver::Sequential).map_or(0, |o| o.digest))
                .collect();
            trace_gauge().reset();
            let tally = &mut o.tally;
            samples = measure(seconds, inp.cfgs.len(), |i| {
                let t = Instant::now();
                let out = w::fleet_pass(&inp.cfgs[i], Driver::Parallel);
                let secs = t.elapsed().as_secs_f64();
                let jobs = inp.cfgs[i].n_jobs as u64;
                tally.add(w::fleet_check(refs[i], &out, jobs));
                (secs, jobs)
            });
            (scale, setup_s, inputs, records) = (sizes.fleet_scale, s, inp.cfgs.len(), 0);
            input = format!(
                "{} standard fleets of {} jobs, fleet seeds {:?}",
                inp.cfgs.len(),
                sizes.fleet_jobs,
                inp.cfgs.iter().map(|c| c.seed).collect::<Vec<_>>()
            );
        }
        "trace-replay" => {
            workers = nproc;
            vani_rt::par::set_threads(workers);
            let ((caps, logs), s) = repeat_setup(SETUPS_CAPTURE, || {
                let caps = w::capture_six(sizes.trace_scale, seed);
                let logs = w::spill_all(&caps, &dir);
                (caps, logs)
            });
            let logs = logs.map_err(|e| std::io::Error::other(e.to_string()))?;
            let reference = w::fused_profiles(&caps);
            drop(caps);
            trace_gauge().reset();
            let tally = &mut o.tally;
            samples = measure(seconds, 1, |_| {
                let t = Instant::now();
                let out = w::replay_pass(&logs);
                let secs = t.elapsed().as_secs_f64();
                tally.add(w::replay_check(&reference, &out));
                (secs, logs.len() as u64)
            });
            let recs: u64 = logs.iter().map(|l| l.records).sum();
            let bytes: u64 = logs.iter().map(|l| l.bytes).sum();
            o.notes.push(format!(
                "metric log_bytes_per_record {} B",
                bytes as f64 / recs.max(1) as f64
            ));
            (scale, setup_s, inputs, records) = (sizes.trace_scale, s, 1, recs);
            input = format!("six v3 spill logs, {recs} records, {bytes} bytes");
        }
        "trace-ingest" => {
            workers = 1;
            vani_rt::par::set_threads(workers);
            let (caps, s) =
                repeat_setup(SETUPS_CAPTURE, || w::capture_six(sizes.trace_scale, seed));
            trace_gauge().reset();
            let tally = &mut o.tally;
            let mut bytes = 0u64;
            samples = measure(seconds, 1, |_| {
                let t = Instant::now();
                let written = w::ingest_write(&caps, &dir);
                let secs = t.elapsed().as_secs_f64();
                tally.add(w::ingest_check(&caps, &written));
                bytes = written.iter().flatten().map(|s| s.bytes).sum();
                let t = Instant::now();
                w::ingest_remove(&written);
                (secs + t.elapsed().as_secs_f64(), caps.len() as u64)
            });
            let recs: u64 = caps.iter().map(|c| c.trace.len() as u64).sum();
            o.notes.push(format!(
                "metric log_bytes_per_record {} B",
                bytes as f64 / recs.max(1) as f64
            ));
            (scale, setup_s, inputs, records) = (sizes.trace_scale, s, 1, recs);
            input = format!("six in-memory traces, {recs} records");
        }
        other => return Err(std::io::Error::other(format!("unknown workload `{other}`"))),
    }
    let (jobs_per_s, ratio, pass_s) = summarize(&samples, inputs);
    peak_trace = peak_trace.max(trace_gauge().peak());
    // Peak RSS through set-up and the first pass over every input: later
    // passes repeat the same work, and how many fit in the run depends on
    // the host's speed, so counting them would make the peak drift with it
    // (two fleet workers can stack allocations differently on any pass).
    let rss_mb = samples[inputs - 1].max_rss_kib as f64 / 1024.0;
    for (k, v) in [
        ("setup_s", setup_s.normalized_s),
        ("pass_ref_ratio", ratio),
        ("peak_trace_bytes", peak_trace as f64),
        ("peak_rss_mb", rss_mb),
    ] {
        o.metrics.insert(k.to_string(), v);
    }
    o.notes.push(format!(
        "workload {workload} workers={workers} seed={seed} scale={scale} passes={} input: {input}",
        samples.len()
    ));
    // Wall-clock figures, printed but not tracked: on a shared host they
    // drift with the host's speed by more than any usable bound.
    o.notes.push(format!("metric jobs_per_s {jobs_per_s} 1/s"));
    if records > 0 {
        o.notes.push(format!(
            "metric records_per_s {} 1/s",
            records as f64 / pass_s
        ));
    }
    o.notes
        .push(format!("metric setup_wall_s {} s", setup_s.wall_s));
    o.notes.push(format!(
        "metric failed_frac {} ratio",
        o.tally.failed as f64 / o.tally.attempted.max(1) as f64
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(o)
}

/// Wall time and process CPU time of `f`.
fn timed_cpu<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu = host::usage().cpu_s;
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64(), host::usage().cpu_s - cpu)
}

/// The traced run: every workload's pass untraced and then traced, round
/// after round, so every layer is measured whichever workload was named.
/// Per-layer times are per round; the overhead ratios compare each
/// workload's traced pass with its untraced pass.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
) -> std::io::Result<Outcome> {
    let dir = work_dir().join(format!("{workload}-trace-{}", std::process::id()));
    let replay_dir = dir.join("replay");
    let ingest_dir = dir.join("ingest");
    fresh_dir(&replay_dir)?;
    fresh_dir(&ingest_dir)?;
    let nproc = host::nproc();
    let err = |e: String| std::io::Error::other(e);
    let mut o = Outcome {
        notes: host_notes(&dir),
        ..Outcome::default()
    };

    let char_inp = w::char_setup(seed, sizes);
    let char_ref = w::char_reference(&char_inp);
    let fleet = w::fleet_inputs(seed, sizes).map_err(|e| err(e.to_string()))?;
    let cfg = &fleet.cfgs[0];
    let caps = w::capture_six(sizes.trace_scale, seed);
    let logs = w::spill_all(&caps, &replay_dir).map_err(|e| err(e.to_string()))?;
    let replay_ref = w::fused_profiles(&caps);

    let mut rec = Recorder::default();
    let mut sim = w::SimCounters::default();
    let mut fc = w::FleetCounters::default();
    let mut rc = w::ReplayCounters::default();
    let mut ic = w::IngestCounters::default();
    let mut untraced: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut util: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut char_records = 0u64;
    // One untimed pass of each workload first, so neither side of the
    // overhead comparison pays for cold caches and a fresh heap.
    vani_rt::par::set_threads(1);
    w::char_pass(&char_inp);
    vani_rt::par::set_threads(nproc);
    let _ = w::fleet_pass(cfg, Driver::Parallel);
    w::replay_pass(&logs);
    vani_rt::par::set_threads(1);
    w::ingest_remove(&w::ingest_write(&caps, &ingest_dir));

    let mut rounds = 0u32;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        rec.next_run();

        vani_rt::par::set_threads(1);
        let (u, secs, _) = timed_cpu(|| w::char_pass(&char_inp));
        untraced.entry("characterize").or_default().push(secs);
        let t = rec.time("pass.characterize", |r| {
            w::char_traced(&char_inp, r, &mut sim)
        });
        char_records += t.records;
        for out in [&u, &t] {
            o.tally.add(w::char_check(&char_ref, out));
        }
        o.tally.check(u == t);

        vani_rt::par::set_threads(nproc);
        let (u, secs, cpu) = timed_cpu(|| w::fleet_pass(cfg, Driver::Parallel));
        untraced.entry("fleet").or_default().push(secs);
        util.entry("fleet")
            .or_default()
            .push(cpu / (secs * nproc as f64));
        let jobs = cfg.n_jobs as u64;
        let want = u.as_ref().map_or(0, |u| u.digest);
        match w::fleet_traced(cfg, &mut rec, &mut fc) {
            Ok((t, consistent)) => {
                o.tally.add(w::fleet_check(want, &Ok(t), jobs));
                o.tally.check(consistent && u.is_ok());
            }
            Err(e) => o.tally.add(w::fleet_check(want, &Err(e), jobs)),
        }

        let (u, secs, cpu) = timed_cpu(|| w::replay_pass(&logs));
        untraced.entry("replay").or_default().push(secs);
        util.entry("replay")
            .or_default()
            .push(cpu / (secs * nproc as f64));
        let t = w::replay_traced(&logs, &mut rec, &mut rc);
        o.tally.add(w::replay_check(&replay_ref, &u));
        o.tally.add(w::replay_check(&replay_ref, &t));

        vani_rt::par::set_threads(1);
        // Writes only, on both sides: the traced pass span ends before the
        // logs are checked and removed.
        let t0 = Instant::now();
        let written = w::ingest_write(&caps, &ingest_dir);
        untraced
            .entry("ingest")
            .or_default()
            .push(t0.elapsed().as_secs_f64());
        o.tally.add(w::ingest_check(&caps, &written));
        let bytes_u: Vec<u64> = written.iter().flatten().map(|s| s.bytes).collect();
        w::ingest_remove(&written);
        let written = w::ingest_traced(&caps, &ingest_dir, &mut rec, &mut ic);
        o.tally.add(w::ingest_check(&caps, &written));
        let bytes_t: Vec<u64> = written.iter().flatten().map(|s| s.bytes).collect();
        o.tally.check(bytes_u == bytes_t);
        w::ingest_remove(&written);
    }

    // Per-round layer figures from the spans' self times.
    let own = rec.self_by_name();
    let n = f64::from(rounds);
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0) / n;
    let per_round = |x: u64| x as f64 / n;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    // Overhead compares the fastest traced pass with the fastest untraced
    // one: with a few rounds on a shared host, medians carry more host
    // noise than the tracing costs.
    let fastest = |xs: &[f64]| quantile(xs, 0.0);
    let traced = |name: &str| {
        fastest(
            &rec.spans()
                .iter()
                .filter(|sp| sp.name == name)
                .map(|sp| sp.secs())
                .collect::<Vec<_>>(),
        )
    };
    let sim_s: f64 = w::SIX
        .iter()
        .map(|(k, _)| s(&format!("simulate.{k}")))
        .sum();
    let m = &mut o.metrics;
    for (k, _) in w::SIX {
        m.insert(format!("simulate.{k}_s"), s(&format!("simulate.{k}")));
    }
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("simulate.steps", per_round(sim.steps));
    put("simulate.records", per_round(sim.records));
    put("simulate.ns_per_record", per(sim_s * n * 1e9, sim.records));
    put("simulate.ns_per_step", per(sim_s * n * 1e9, sim.steps));
    put("simulate.pfs_data_ops", per_round(sim.pfs_data_ops));
    put("simulate.pfs_meta_ops", per_round(sim.pfs_meta_ops));
    put("simulate.token_transfers", per_round(sim.token_transfers));
    put("simulate.cache_hits", per_round(sim.cache_hits));
    put("seal.host_s", s("seal"));
    put("seal.ns_per_record", per(s("seal") * n * 1e9, ic.records));
    put(
        "seal.encoded_bytes_per_record",
        per(ic.encoded_bytes as f64, ic.records),
    );
    put("spill.append_s", s("spill.append"));
    put("spill.finish_s", s("spill.finish"));
    put("spill.chunks", per_round(ic.chunks));
    put(
        "spill.log_bytes_per_record",
        per(ic.log_bytes as f64, ic.records),
    );
    put("fsck.host_s", s("fsck.open_strict"));
    put("fsck.chunks_verified", per_round(rc.chunks_verified));
    put("decode.host_s", s("decode"));
    put(
        "decode.ns_per_record",
        per(s("decode") * n * 1e9, rc.records),
    );
    put("fold.fused_s", s("fold.fused"));
    put("fold.streaming_s", s("fold.streaming"));
    put("fold.streaming_self_s", s("fold.streaming") - s("decode"));
    put(
        "fold.ns_per_record",
        per(s("fold.fused") * n * 1e9, char_records),
    );
    put(
        "fold.streaming_ns_per_record",
        per(s("fold.streaming") * n * 1e9, rc.records),
    );
    put("render.tables_s", s("render.tables"));
    put("render.yaml_s", s("render.yaml"));
    put("tenancy.manifest_s", s("tenancy.manifest"));
    put("tenancy.schedule_s", s("tenancy.schedule"));
    put("tenancy.interference_s", s("tenancy.interference"));
    put("fleet.sweep_s", s("fleet.sweep"));
    put("fleet.report_s", s("fleet.report"));
    put("fleet.jobs_simulated", per_round(fc.jobs_simulated));
    put("fleet.wave1_profiles", per_round(fc.wave1_profiles));
    put(
        "fleet.repeat_signature_frac",
        per(fc.repeat_signatures as f64, fc.jobs),
    );
    put("par.cpu_util_fleet", median(&util["fleet"]));
    put("par.cpu_util_replay", median(&util["replay"]));
    put(
        "ingest.records_per_s",
        ic.records as f64 / n / median(&untraced["ingest"]),
    );
    put(
        "replay.records_per_s",
        rc.records as f64 / n / median(&untraced["replay"]),
    );
    put(
        "characterize.records_per_s",
        char_records as f64 / n / median(&untraced["characterize"]),
    );
    for (pass, key) in [
        ("characterize", "characterize"),
        ("fleet", "fleet"),
        ("replay", "replay"),
        ("ingest", "ingest"),
    ] {
        put(
            &format!("trace.overhead_{key}"),
            traced(&format!("pass.{pass}")) / fastest(&untraced[key]),
        );
    }
    o.notes.push(format!(
        "traced run: {rounds} round(s) of all four workloads, seed={seed}: characterize (1 worker, scale {}, six exemplars), fleet ({nproc} workers, scale {}, one {}-job fleet, seed {}), trace-replay ({nproc} workers) and trace-ingest (1 worker) over six scale-{} traces of {} records",
        sizes.char_scale,
        sizes.fleet_scale,
        cfg.n_jobs,
        cfg.seed,
        sizes.trace_scale,
        caps.iter().map(|c| c.trace.len()).sum::<usize>()
    ));
    o.spans = Some(rec);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(o)
}
