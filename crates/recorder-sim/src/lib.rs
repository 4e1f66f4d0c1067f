//! # recorder-sim
//!
//! A Recorder-2.0-like multi-level tracer for the simulated stack.
//!
//! The paper chose Recorder over Darshan because it captures *multi-level*
//! traces — every I/O call at every interface layer, plus CPU, GPU, and MPI
//! events — rather than aggregate counters. This crate reproduces that
//! capture model:
//!
//! * [`record`] — the trace schema: one [`record::TraceRecord`] per call,
//!   tagged with rank, node, application, interface layer, operation kind,
//!   file, offset, byte count, and the simulated start/end instants,
//! * [`tracer`] — the row-major capture sink the layers write into during a
//!   run (with an optional per-record overhead model reproducing the 8 %
//!   runtime overhead the paper reports),
//! * [`columnar`] — the row-major → column-major conversion that mirrors the
//!   paper's Recorder-log → parquet step, with the filter/group-by kernels
//!   the Vani analyzer runs over the columns (parallel via `vani_rt::par`),
//! * [`codec`] — delta/RLE/raw column codecs for sealed row groups,
//! * [`chunk`] — chunked capture: fixed-size row groups sealed and
//!   compressed as the run emits records, so peak uncompressed trace bytes
//!   stay bounded regardless of trace length (tracked by a process-wide
//!   peak gauge),
//! * [`spill`] — the on-disk trace format (version 3), and the only trace
//!   writer and loader: a crash-consistent segment log that sealed chunks
//!   stream into (append-only, checksummed, fsync-pointed), so traces
//!   larger than RAM survive capture, with a seeded fault-injection plan
//!   and an fsck recovery pass. Whole traces save with
//!   [`spill::spill_columnar`] and load with [`spill::load_spill`] (or
//!   [`spill::load_spill_salvaged`] for the longest committed prefix),
//!   separating capture from analysis like the paper's two-phase
//!   Recorder-log → analyzer pipeline,
//! * [`darshan`] — a Darshan-style aggregate-counter profiler, implemented
//!   as a fold over the full trace to demonstrate (as the paper argues in
//!   §III-C) which analyses aggregation destroys.

pub mod chunk;
pub mod codec;
pub mod columnar;
pub mod darshan;
pub mod record;
pub mod spill;
pub mod tracer;

pub use chunk::{ChunkMeta, ChunkedTrace, CompressedChunk, DEFAULT_CHUNK_ROWS, RING_SLOTS};
pub use columnar::ColumnarTrace;
pub use record::{AppId, FileId, Layer, OpKind, TraceRecord};
pub use spill::{
    ChunkSource, FsckReport, SpillError, SpillFaultKind, SpillFaultPlan, SpillSource, SpillSummary,
    SpillWriter, TraceCompleteness,
};
pub use tracer::{AdaptiveSampler, Tracer};
