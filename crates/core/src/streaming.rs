//! Streaming bounded-memory analyzer: fold a chunked trace into the fused
//! accumulators one row group at a time.
//!
//! [`TraceProfile::fused`] needs the whole columnar trace resident (plus an
//! index sort over the interface selection). This module computes the *same
//! profile* — bit-identical, see the determinism contract below — from a
//! [`ChunkedTrace`]: compressed row groups are decoded into one recycled
//! buffer, folded through [`fold_fused_record`] (the fused scan's inner
//! loop, verbatim) with [`vani_rt::par::par_fold_shards_sized`], and
//! dropped. Peak resident trace bytes are bounded by the chunk size, not
//! the trace length.
//!
//! # Why the offline detectors don't stream
//!
//! Three profile components consume a *sorted* view of the trace, which a
//! chunk-at-a-time pass cannot materialize:
//!
//! * **Phases** — [`detect_phases_sorted`] scans the interface selection in
//!   start order. Replaced by [`PhaseBuilder`]: an ordered cluster list
//!   with gap-threshold merging. Records insert in any order; the final
//!   clusters are exactly the sorted scan's phases (a phase cut falls
//!   between sorted records `i-1, i` iff `start_i` exceeds the max end of
//!   all earlier-starting records by more than the threshold — a property
//!   of the *set* of intervals, not the visit order).
//! * **Access pattern** — [`scan_access_pattern`] walks data ops in start
//!   order, comparing each offset with the previous end for the same
//!   `(rank, file)`. [`PatternTracker`] does the same walk in capture
//!   order, carrying a certificate: if every cell's starts arrive
//!   nondecreasing, capture order and stable-sorted order agree cell-wise
//!   and the counts are identical. The simulator's tracer appends each
//!   rank's stream in time order, so the certificate holds on every real
//!   trace; if it ever fails, the tracker falls back to re-decoding the
//!   chunks and replaying a sorted scan (correct, but unbounded memory —
//!   the price of a trace that was shuffled after capture).
//! * **Timelines** — f64 bin accumulation is non-associative, but the
//!   fused path adds contributions in capture (index) order, which is
//!   exactly chunk order × in-chunk order. Streaming adds per chunk and
//!   matches bit-for-bit.
//!
//! # Determinism contract
//!
//! For every trace, worker count, and chunk size,
//! `TraceProfile::streaming(&ChunkedTrace::from_columnar(&c, k), t)` equals
//! `TraceProfile::fused(&c, t)` on all fields (`==`, which for the f64
//! fields means bit-identity). The pinning suite is
//! `tests/streaming_vs_fused.rs`.

use recorder_sim::chunk::{columnar_capacity_bytes, GaugeCharge};
use recorder_sim::record::Layer;
use recorder_sim::spill::{spill_columnar, ChunkSource, SpillError, SpillFaultPlan, SpillSource};
use recorder_sim::{ChunkedTrace, ColumnarTrace, FsckReport, DEFAULT_CHUNK_ROWS};
use sim_core::{Dur, Histogram, SimTime, TimeSeries};
use std::collections::HashMap;
use std::path::Path;
use vani_rt::par;

use crate::analyzer::{
    dominant_bucket, emit_profile, fold_fused_record, interface_from_presence, interface_layers,
    layer_idx, phase_threshold, timeline_bin, Analysis, Dims, FusedShard, PhaseInfo, SelCtx,
    TraceProfile,
};
use exemplar_workloads::harness::WorkloadRun;

/// Morsel size for the intra-chunk parallel fold. Any in-order contiguous
/// partition of a chunk produces identical merged shards (the accumulators
/// are sums, maxima, bitsets, and in-order index concatenation), so this is
/// a pure tuning knob — small enough to spread one chunk across workers.
const STREAM_MORSEL: usize = 8192;

/// One phase cluster under construction (a [`PhaseInfo`] plus the open
/// transfer-size histogram).
#[derive(Debug, Clone)]
struct Cluster {
    /// Min record start in the cluster (clusters stay sorted by this).
    start: SimTime,
    /// Max record end in the cluster.
    end: SimTime,
    bytes: u64,
    data_ops: u64,
    meta_ops: u64,
    hist: Histogram,
}

/// Online phase detection: maintains the invariant that consecutive
/// clusters are separated by a start-to-end gap strictly above the
/// threshold, so the cluster list is exactly the phase partition the
/// sorted scan would produce, no matter the insertion order.
#[derive(Debug)]
pub(crate) struct PhaseBuilder {
    threshold: Dur,
    clusters: Vec<Cluster>,
}

impl PhaseBuilder {
    pub(crate) fn new(threshold: Dur) -> PhaseBuilder {
        PhaseBuilder {
            threshold,
            clusters: Vec::new(),
        }
    }

    /// Insert interface-selection record `i` of `c`.
    pub(crate) fn insert(&mut self, c: &ColumnarTrace, i: usize) {
        let s = SimTime(c.start[i]);
        let e = SimTime(c.end[i]);
        let is_data = c.op[i].is_data();
        let bytes = c.bytes[i];
        // First cluster whose min start exceeds s; the only join-left
        // candidate is its predecessor (cluster ends strictly increase, so
        // if even the nearest left end is more than a threshold away, every
        // earlier one is too).
        let pos = self.clusters.partition_point(|cl| cl.start <= s);
        let idx = if pos > 0 && s.since(self.clusters[pos - 1].end) <= self.threshold {
            let cl = &mut self.clusters[pos - 1];
            cl.end = cl.end.max(e);
            pos - 1
        } else {
            self.clusters.insert(
                pos,
                Cluster {
                    start: s,
                    end: e,
                    bytes: 0,
                    data_ops: 0,
                    meta_ops: 0,
                    hist: Histogram::new(),
                },
            );
            pos
        };
        let cl = &mut self.clusters[idx];
        if is_data {
            cl.bytes += bytes;
            cl.data_ops += 1;
            if bytes > 0 {
                cl.hist.record(bytes);
            }
        } else {
            cl.meta_ops += 1;
        }
        // The grown end may now bridge the gap to the right neighbor(s).
        while idx + 1 < self.clusters.len()
            && self.clusters[idx + 1].start.since(self.clusters[idx].end) <= self.threshold
        {
            let next = self.clusters.remove(idx + 1);
            let cl = &mut self.clusters[idx];
            cl.end = cl.end.max(next.end);
            cl.bytes += next.bytes;
            cl.data_ops += next.data_ops;
            cl.meta_ops += next.meta_ops;
            cl.hist.merge(&next.hist);
        }
    }

    /// The finished phase list, in start order.
    pub(crate) fn finish(self) -> Vec<PhaseInfo> {
        self.clusters
            .into_iter()
            .map(|cl| PhaseInfo {
                start: cl.start,
                end: cl.end,
                bytes: cl.bytes,
                data_ops: cl.data_ops,
                meta_ops: cl.meta_ops,
                dominant_xfer: dominant_bucket(&cl.hist),
            })
            .collect()
    }
}

/// Per-(rank, file) frontier cells: dense when the id-space product is
/// small (mirrors [`scan_access_pattern`]'s 32 MiB dense limit), `HashMap`
/// otherwise. Each cell holds `(last end offset, last start time)`.
#[derive(Debug)]
enum Cells {
    Dense {
        stride: usize,
        last_end: Vec<u64>,
        last_start: Vec<u64>,
    },
    Sparse(HashMap<(u32, u32), (u64, u64)>),
}

/// Online access-pattern detection over data ops in capture order, with a
/// sorted-order certificate (see the module docs).
#[derive(Debug)]
pub(crate) struct PatternTracker {
    cells: Cells,
    seq: u64,
    total: u64,
    any: bool,
    violated: bool,
}

const DENSE_LIMIT: usize = 4 << 20;

impl PatternTracker {
    pub(crate) fn new(dims: Dims) -> PatternTracker {
        let cells = dims.n_ranks.saturating_mul(dims.n_files);
        let cells = if cells <= DENSE_LIMIT {
            Cells::Dense {
                stride: dims.n_files.max(1),
                // u64::MAX end = cell untouched (same sentinel as the
                // offline scan).
                last_end: vec![u64::MAX; cells],
                last_start: vec![0; cells],
            }
        } else {
            Cells::Sparse(HashMap::new())
        };
        PatternTracker {
            cells,
            seq: 0,
            total: 0,
            any: false,
            violated: false,
        }
    }

    /// Observe selected data record `i` of `c` (capture order).
    pub(crate) fn observe(&mut self, c: &ColumnarTrace, i: usize) {
        let Some(f) = c.file_id(i) else { return };
        self.any = true;
        let new_end = c.offset[i] + c.bytes[i];
        match &mut self.cells {
            Cells::Dense {
                stride,
                last_end,
                last_start,
            } => {
                let cell = c.rank[i] as usize * *stride + f.0 as usize;
                if last_end[cell] != u64::MAX {
                    if c.start[i] < last_start[cell] {
                        self.violated = true;
                    }
                    self.total += 1;
                    if c.offset[i] >= last_end[cell] {
                        self.seq += 1;
                    }
                }
                last_end[cell] = new_end;
                last_start[cell] = c.start[i];
            }
            Cells::Sparse(map) => {
                if let Some(&(prev_end, prev_start)) = map.get(&(c.rank[i], f.0)) {
                    if c.start[i] < prev_start {
                        self.violated = true;
                    }
                    self.total += 1;
                    if c.offset[i] >= prev_end {
                        self.seq += 1;
                    }
                }
                map.insert((c.rank[i], f.0), (new_end, c.start[i]));
            }
        }
    }

    /// Classify. If the certificate failed, re-scan every chunk and
    /// replay the frontier scan in stable start order (exactly the offline
    /// scan's visit order).
    pub(crate) fn finish(self, src: &dyn ChunkSource, ctx: &SelCtx) -> Result<String, SpillError> {
        if !self.any {
            return Ok("Seq".to_string());
        }
        let (seq, total) = if self.violated {
            replay_sorted(src, ctx)?
        } else {
            (self.seq, self.total)
        };
        Ok(if total == 0 || seq as f64 / total as f64 >= 0.85 {
            "Seq".to_string()
        } else {
            "Mixed".to_string()
        })
    }
}

/// Fallback path: collect every selected data record that names a file (in
/// capture order), stable-sort by start, and replay the frontier scan.
fn replay_sorted(src: &dyn ChunkSource, ctx: &SelCtx) -> Result<(u64, u64), SpillError> {
    let mut recs: Vec<(u64, u32, u32, u64, u64)> = Vec::new();
    let mut buf = ColumnarTrace::default();
    src.scan_chunks(&mut |chunk| {
        buf.clear_rows();
        chunk.decode_into(&mut buf, false).expect("chunk re-decode");
        for i in 0..buf.len() {
            if !buf.op[i].is_io() || !buf.op[i].is_data() || !ctx.in_sel(&buf, i) {
                continue;
            }
            if let Some(f) = buf.file_id(i) {
                recs.push((buf.start[i], buf.rank[i], f.0, buf.offset[i], buf.bytes[i]));
            }
        }
    })?;
    // Vec::sort_by_key is stable: equal starts keep capture order, same as
    // the offline path's stable index sort.
    recs.sort_by_key(|r| r.0);
    let mut last: HashMap<(u32, u32), u64> = HashMap::new();
    let mut seq = 0u64;
    let mut total = 0u64;
    for &(start, rank, file, offset, bytes) in &recs {
        let _ = start;
        if let Some(&prev_end) = last.get(&(rank, file)) {
            total += 1;
            if offset >= prev_end {
                seq += 1;
            }
        }
        last.insert((rank, file), offset + bytes);
    }
    Ok((seq, total))
}

impl TraceProfile {
    /// Profile a chunked trace chunk-at-a-time in bounded memory. See the
    /// module docs for the determinism contract ties to
    /// [`TraceProfile::fused`].
    pub fn streaming(t: &ChunkedTrace, job_time: Dur) -> TraceProfile {
        TraceProfile::streaming_source(t, job_time).expect("in-memory chunk scan cannot fail")
    }

    /// Profile any [`ChunkSource`] — an in-memory [`ChunkedTrace`] or an
    /// on-disk [`SpillSource`] — chunk-at-a-time in bounded memory. The
    /// fold visits chunks in capture order regardless of source, so the
    /// profile is bit-identical across sources holding the same chunks.
    /// Errors surface only from a disk-backed source whose re-scan fails.
    pub fn streaming_source(
        src: &dyn ChunkSource,
        job_time: Dur,
    ) -> Result<TraceProfile, SpillError> {
        let meta = src.merged_meta();
        let dims = Dims {
            n_files: meta.n_files.max(src.file_paths().len()),
            n_apps: meta.n_apps.max(src.app_names().len()),
            n_ranks: meta.n_ranks,
        };
        let interface = interface_from_presence(&meta.present);
        let mut iface_mask = [false; 6];
        for l in interface_layers(&interface) {
            iface_mask[layer_idx(l)] = true;
        }
        let mut iface_file = vec![false; dims.n_files];
        for l in 0..6 {
            if iface_mask[l] {
                for f in meta.layer_files[l].iter() {
                    iface_file[f] = true;
                }
            }
        }
        let ctx = SelCtx {
            iface_mask,
            iface_file: &iface_file,
            posix_fallback: !iface_mask[layer_idx(Layer::Posix)],
        };

        let mut global = FusedShard::new(dims);
        let mut phases = PhaseBuilder::new(phase_threshold(job_time));
        let mut pattern = PatternTracker::new(dims);
        let bin = timeline_bin(job_time);
        let mut read_timeline = TimeSeries::new(bin);
        let mut write_timeline = TimeSeries::new(bin);
        let mut data_ops = 0u64;

        // One decode buffer, recycled across chunks and charged against
        // the process-wide trace gauge — this buffer (one chunk of
        // columns) IS the streaming path's resident trace memory.
        let mut buf = ColumnarTrace::default();
        let mut charge = GaugeCharge::new(0);

        src.scan_chunks(&mut |chunk| {
            buf.clear_rows();
            chunk
                .decode_into(&mut buf, false)
                .expect("sealed chunk must decode (a spilled chunk was deep-verified at open and is checksum-pinned on rescan)");
            charge.resync(columnar_capacity_bytes(&buf));

            let mut shard = par::par_fold_shards_sized(
                chunk.rows,
                STREAM_MORSEL,
                || FusedShard::new(dims),
                |acc: &mut FusedShard, range| {
                    acc.io_idx.reserve(range.len());
                    acc.data_idx.reserve(range.len());
                    for i in range {
                        fold_fused_record(acc, &buf, i, &ctx);
                    }
                },
                FusedShard::merge,
            );

            // Feed the online detectors from the chunk-local index lists
            // (ascending = capture order), then drop the lists before the
            // shard folds into the run-global accumulator.
            for &i in &shard.io_idx {
                phases.insert(&buf, i as usize);
            }
            for &i in &shard.data_idx {
                pattern.observe(&buf, i as usize);
            }
            for &i in &shard.data_idx {
                let i = i as usize;
                let ts = match buf.op[i] {
                    recorder_sim::record::OpKind::Read => &mut read_timeline,
                    recorder_sim::record::OpKind::Write => &mut write_timeline,
                    _ => continue,
                };
                ts.add(
                    SimTime(buf.start[i]),
                    SimTime(buf.end[i]),
                    buf.bytes[i] as f64,
                );
            }
            data_ops += shard.data_idx.len() as u64;
            shard.io_idx.clear();
            shard.data_idx.clear();
            global.merge(shard);
        })?;

        let phases = phases.finish();
        let access_pattern = pattern.finish(src, &ctx)?;

        Ok(emit_profile(
            global,
            src.file_paths(),
            src.app_names(),
            job_time,
            interface,
            access_pattern,
            phases,
            read_timeline,
            write_timeline,
            data_ops,
        ))
    }
}

impl Analysis {
    /// Analyze a completed run through the streaming path: the columnar
    /// trace is sealed into compressed chunks, profiled chunk-at-a-time,
    /// and **not retained** (`Analysis::trace` comes back empty — the point
    /// is to hold at most one decoded chunk, not the whole trace). All
    /// profile-level fields are bit-identical to [`Analysis::from_run`];
    /// only the retained `trace` differs. Use [`Analysis::from_run`] when
    /// figure rendering needs the raw records.
    pub fn from_run_streaming(run: &WorkloadRun) -> Analysis {
        let chunked = {
            let c = run.columnar();
            ChunkedTrace::from_columnar(&c, DEFAULT_CHUNK_ROWS)
        };
        let profile = TraceProfile::streaming(&chunked, run.runtime());
        let mut empty = ColumnarTrace::default();
        // Keep the intern tables so path/name lookups on the retained
        // trace stay meaningful even without rows.
        empty.file_paths = chunked.file_paths;
        empty.app_names = chunked.app_names;
        Analysis::assemble(run, empty, profile)
    }

    /// Analyze a completed run through the on-disk spill path: the columnar
    /// trace streams into a crash-consistent segment log at `path`, then the
    /// log is recovered (salvaging the longest committed prefix if `fault`
    /// injected damage) and profiled chunk-at-a-time straight off disk.
    ///
    /// Returns the analysis alongside the recovery verdict. On a clean log
    /// the profile is bit-identical to [`Analysis::from_run_streaming`]; on
    /// a damaged log it matches the in-memory profile truncated to the
    /// surviving records. A crash-class injected fault is absorbed here —
    /// recovery proceeds from whatever the simulated crash left on disk —
    /// while environmental failures (ENOSPC, unwritable dir) surface as
    /// errors.
    pub fn from_run_spilled(
        run: &WorkloadRun,
        path: &Path,
        fault: SpillFaultPlan,
    ) -> Result<(Analysis, FsckReport), SpillError> {
        let c = run.columnar();
        let spill_path = match spill_columnar(&c, DEFAULT_CHUNK_ROWS, path, fault) {
            Ok(sum) => sum.path,
            // A simulated crash leaves a partial segment behind; recover
            // from exactly what the crash left.
            Err(SpillError::Injected { path, .. }) => path,
            Err(e) => return Err(e),
        };
        let src = SpillSource::open_salvaged(&spill_path)?;
        let profile = TraceProfile::streaming_source(&src, run.runtime())?;
        let report = src.report().clone();
        let mut empty = ColumnarTrace::default();
        empty.file_paths = src.file_paths().to_vec();
        empty.app_names = src.app_names().to_vec();
        Ok((Analysis::assemble(run, empty, profile), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{detect_phases_sorted, scan_access_pattern};
    use recorder_sim::record::{AppId, FileId, OpKind};

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// A messy synthetic trace: several ranks and files, POSIX + STDIO
    /// layers, bursts separated by long gaps (multiple phases), occasional
    /// resilience records.
    fn synthetic(n: usize, seed: u64) -> ColumnarTrace {
        let mut c = ColumnarTrace::default();
        c.file_paths = (0..8).map(|f| format!("/data/f{f}")).collect();
        c.app_names = vec!["writer".into(), "reader".into()];
        let mut s = seed | 1;
        let mut t = 0u64;
        for i in 0..n {
            let r = xorshift(&mut s);
            // Long gap every ~200 records → phase boundaries.
            t += if r % 199 == 0 {
                3_000_000_000
            } else {
                r % 5_000
            };
            let rank = (r >> 8) % 6;
            let file = (r >> 16) % 8;
            let op = match (r >> 24) % 10 {
                0..=3 => OpKind::Write,
                4..=6 => OpKind::Read,
                7 => OpKind::Open,
                8 => OpKind::Close,
                _ => {
                    if i % 97 == 0 {
                        OpKind::Fault
                    } else {
                        OpKind::Stat
                    }
                }
            };
            let layer = if (r >> 32) % 3 == 0 {
                Layer::Stdio
            } else {
                Layer::Posix
            };
            let bytes = (r >> 40) % 65536;
            c.push_row(
                rank as u32,
                rank as u32 / 2,
                AppId(((r >> 5) % 2) as u16),
                layer,
                op,
                SimTime(t),
                SimTime(t + 1_000 + r % 9_000),
                Some(FileId(file as u32)),
                (i as u64) * 4096 % (1 << 30),
                bytes,
            );
        }
        c
    }

    #[test]
    fn streaming_matches_fused_across_chunk_sizes() {
        let job = Dur::from_secs(120);
        for n in [0usize, 1, 63, 1000, 5000] {
            let c = synthetic(n, 0x5eed + n as u64);
            let fused = TraceProfile::fused(&c, job);
            for chunk_rows in [64usize, 1024, DEFAULT_CHUNK_ROWS] {
                let t = ChunkedTrace::from_columnar(&c, chunk_rows);
                let stream = TraceProfile::streaming(&t, job);
                assert_eq!(stream, fused, "n={n} chunk_rows={chunk_rows}");
            }
        }
    }

    #[test]
    fn phase_builder_matches_sorted_scan_on_shuffled_input() {
        let job = Dur::from_secs(120);
        let c = synthetic(3000, 0xabcdef);
        // Offline oracle: sorted scan over every record.
        let mut sorted: Vec<u32> = (0..c.len() as u32).collect();
        sorted.sort_by_key(|&i| c.start[i as usize]);
        let sorted: Vec<u32> = sorted
            .into_iter()
            .filter(|&i| c.op[i as usize].is_io())
            .collect();
        let oracle = detect_phases_sorted(&c, &sorted, job);
        // Online builder fed in three interleaved passes (worst-case
        // out-of-order arrival).
        let mut pb = PhaseBuilder::new(phase_threshold(job));
        for lane in 0..3 {
            for i in (lane..c.len()).step_by(3) {
                if c.op[i].is_io() {
                    pb.insert(&c, i);
                }
            }
        }
        assert_eq!(pb.finish(), oracle);
    }

    #[test]
    fn pattern_tracker_fallback_matches_sorted_scan() {
        // Capture order deliberately violates the per-cell certificate:
        // rank 0 writes file 0 with *decreasing* start times.
        let mut c = ColumnarTrace::default();
        c.file_paths = vec!["/data/f0".into()];
        c.app_names = vec!["w".into()];
        let n = 500usize;
        for i in 0..n {
            let start = (n - i) as u64 * 1_000_000;
            c.push_row(
                0,
                0,
                AppId(0),
                Layer::Posix,
                OpKind::Write,
                SimTime(start),
                SimTime(start + 1000),
                Some(FileId(0)),
                // Offsets ascend in *time* order → "Seq" under the sorted
                // scan, would look reversed in capture order.
                ((n - i) as u64) * 4096,
                4096,
            );
        }
        let job = Dur::from_secs(10);
        let fused = TraceProfile::fused(&c, job);
        let mut sorted: Vec<u32> = (0..n as u32).collect();
        sorted.sort_by_key(|&i| c.start[i as usize]);
        assert_eq!(scan_access_pattern(&c, &sorted), "Seq");
        for chunk_rows in [64usize, 4096] {
            let t = ChunkedTrace::from_columnar(&c, chunk_rows);
            let stream = TraceProfile::streaming(&t, job);
            assert_eq!(stream, fused, "chunk_rows={chunk_rows}");
            assert_eq!(stream.access_pattern, "Seq");
        }
    }

    #[test]
    fn streaming_holds_at_most_one_decoded_chunk() {
        use recorder_sim::chunk::{resident_bound, trace_gauge};
        let c = synthetic(20_000, 77);
        let chunk_rows = 1024usize;
        let t = ChunkedTrace::from_columnar(&c, chunk_rows);
        trace_gauge().reset();
        let _ = TraceProfile::streaming(&t, Dur::from_secs(120));
        let peak = trace_gauge().peak();
        assert!(
            peak <= resident_bound(chunk_rows, 2),
            "peak resident {peak} exceeds bound {}",
            resident_bound(chunk_rows, 2)
        );
    }
}
