//! Seeded corruption property suite over the on-disk trace format, the
//! version-3 binary spill log (`spill_columnar`).
//!
//! Property: for ANY random truncation or bit flip of a persisted trace,
//! every loader either returns a typed [`SpillError`] or salvages — it
//! never panics. When the salvaging loader succeeds, its
//! [`TraceCompleteness`] counts exactly what was loaded, the salvaged
//! trace never contains more records than the original, and every record
//! it does contain is the original record at the same position (salvage
//! recovers a verified prefix, it never invents or reorders data).
//!
//! A hand-crafted checksum-fixed corruption (flip a chunk's persisted
//! meta, then re-seal the frame checksum over the flipped payload) pins
//! the deep-verification path: the frame checksum passes, but the decode
//! disagrees with its seal-time meta and the chunk quarantines as
//! `Codec` — the class of damage an outer checksum alone cannot catch.
//! The same checksum-fixing trick, applied to a log *after* it was opened,
//! pins the rescan guard: the streaming analyzer gets a typed error, never
//! a panic on a chunk that no longer decodes.
//!
//! [`TraceCompleteness`]: vani_suite::recorder::TraceCompleteness

mod support;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use support::Scratch;
use vani_suite::recorder::spill::{
    fsck, load_spill, load_spill_salvaged, spill_columnar, QuarantineReason, SpillFaultPlan,
    SpillSource,
};
use vani_suite::recorder::{ColumnarTrace, Layer, OpKind, SpillError, Tracer};
use vani_suite::rt::Rng;
use vani_suite::sim::{Dur, SimTime};
use vani_suite::vani::analyzer::TraceProfile;

/// Chunk size: small enough that a ~900-row trace has many
/// independently-checksummed segments to damage.
const GROUP_ROWS: usize = 64;

/// A deterministic multi-file multi-app trace with variation in every
/// column, so damage anywhere in the encoding is observable.
fn sample_trace() -> ColumnarTrace {
    let mut t = Tracer::new();
    let files = [
        t.file_id("/p/gpfs1/ckpt/restart.0"),
        t.file_id("/p/gpfs1/out/data.h5"),
        t.file_id("/dev/shm/stage/tile.fits"),
    ];
    let apps = [t.app_id("cm1"), t.app_id("hacc")];
    let layers = [Layer::Posix, Layer::Stdio, Layer::MpiIo, Layer::HighLevel];
    let ops = [OpKind::Write, OpKind::Read, OpKind::Open, OpKind::Close];
    for i in 0..900u64 {
        t.record(
            (i % 8) as u32,
            (i % 3) as u32,
            apps[(i % 2) as usize],
            layers[(i % 4) as usize],
            ops[(i % 4) as usize],
            SimTime(i * 17),
            SimTime(i * 17 + 11),
            Some(files[(i % 3) as usize]),
            64 + (i % 512),
            4096 * i,
        );
    }
    ColumnarTrace::from_tracer(&t)
}

/// Assert `got` is a verified prefix of `want`: same records, in order,
/// from the start.
fn assert_prefix(label: &str, got: &ColumnarTrace, want: &ColumnarTrace) {
    let n = got.len();
    assert!(
        n <= want.len(),
        "{label}: salvage invented records ({n} > {})",
        want.len()
    );
    assert_eq!(got.rank, want.rank[..n], "{label}: rank prefix");
    assert_eq!(got.node, want.node[..n], "{label}: node prefix");
    assert_eq!(got.app, want.app[..n], "{label}: app prefix");
    assert_eq!(got.layer, want.layer[..n], "{label}: layer prefix");
    assert_eq!(got.op, want.op[..n], "{label}: op prefix");
    assert_eq!(got.start, want.start[..n], "{label}: start prefix");
    assert_eq!(got.end, want.end[..n], "{label}: end prefix");
    assert_eq!(got.file, want.file[..n], "{label}: file prefix");
    assert_eq!(got.offset, want.offset[..n], "{label}: offset prefix");
    assert_eq!(got.bytes, want.bytes[..n], "{label}: bytes prefix");
}

/// Run every loader against a (possibly damaged) file. Each call must
/// return — a typed error or a salvage — and salvages must be honest
/// prefixes with consistent completeness accounting.
fn exercise(label: &str, path: &Path, original: &ColumnarTrace) {
    // Strict load: Ok or typed error, never a panic.
    let _ = load_spill(path).map(|t| t.to_columnar());
    if let Ok((t, comp)) = load_spill_salvaged(path) {
        assert_eq!(
            comp.loaded_records,
            t.len() as u64,
            "{label}: completeness counts the salvaged records"
        );
        assert!(
            comp.fraction().is_finite() && comp.fraction() >= 0.0,
            "{label}: fraction must be a finite non-negative ratio"
        );
        let c = t
            .to_columnar()
            .unwrap_or_else(|e| panic!("{label}: salvaged chunks must decode: {e}"));
        assert_prefix(label, &c, original);
    }
}

/// The property itself: 24 seeded truncations and 24 seeded bit flips,
/// every loader exercised on each mutant, no panics allowed.
#[test]
fn random_truncations_and_bit_flips_never_panic_any_loader() {
    let dir = Scratch::new("random_truncations_and_bit_flips_never_panic_any_loader");
    let c = sample_trace();
    let clean_path = dir.path("clean.vsp3");
    spill_columnar(&c, GROUP_ROWS, &clean_path, SpillFaultPlan::none()).expect("clean spill");
    let bytes = std::fs::read(&clean_path).expect("read spill log");
    // The pristine file itself round-trips completely.
    exercise("clean", &clean_path, &c);

    let mut rng = Rng::new(0xc0_44 ^ u64::from(b'3'));
    let mutant_path = dir.path("mutant.vsp3");
    for trial in 0..24 {
        let cut = 1 + (rng.next_u64() as usize) % (bytes.len() - 1);
        std::fs::write(&mutant_path, &bytes[..cut]).expect("write truncation");
        let label = format!("trial {trial}: truncated to {cut}B");
        catch_unwind(AssertUnwindSafe(|| exercise(&label, &mutant_path, &c)))
            .unwrap_or_else(|_| panic!("{label}: a loader panicked"));
    }
    for trial in 0..24 {
        let pos = (rng.next_u64() as usize) % bytes.len();
        let bit = 1u8 << (rng.next_u64() % 8);
        let mut flipped = bytes.clone();
        flipped[pos] ^= bit;
        std::fs::write(&mutant_path, &flipped).expect("write bit flip");
        let label = format!("trial {trial}: bit {bit:#04x} flipped at {pos}");
        catch_unwind(AssertUnwindSafe(|| exercise(&label, &mutant_path, &c)))
            .unwrap_or_else(|_| panic!("{label}: a loader panicked"));
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Apply `mutate` to the payload of the log's first CHUNK frame (kind 1),
/// then re-seal the frame checksum over the mutated payload so the outer
/// integrity check still passes.
fn mutate_first_chunk(path: &Path, mutate: impl FnOnce(&mut [u8])) {
    let mut bytes = std::fs::read(path).expect("read spill log");
    // The preamble is 11 magic bytes + chunk_rows u64.
    let mut off = 19usize;
    let (start, len) = loop {
        let kind = bytes[off];
        let len =
            u64::from_le_bytes(bytes[off + 1..off + 9].try_into().expect("frame len")) as usize;
        if kind == 1 {
            break (off + 9, len);
        }
        off += 9 + len + 8;
    };
    mutate(&mut bytes[start..start + len]);
    let sum = fnv1a(&bytes[start..start + len]);
    bytes[start + len..start + len + 8].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, &bytes).expect("write mutant");
}

/// Checksum-fixed corruption: flip a byte inside the first chunk's
/// persisted seal-time meta (its `n_ranks` tally), then recompute the
/// frame checksum so the outer integrity check passes. Only the deep
/// verification pass — decode and recompute the meta from the rows —
/// can catch it, and it must quarantine the chunk as `Codec`.
#[test]
fn checksum_fixed_meta_corruption_is_caught_by_deep_verification() {
    let dir = Scratch::new("checksum_fixed_meta_corruption_is_caught_by_deep_verification");
    let c = sample_trace();
    let path = dir.path("codec-mutant.vsp3");
    spill_columnar(&c, GROUP_ROWS, &path, SpillFaultPlan::none()).expect("clean spill");

    // Payload layout: rows u64, meta_len u64, then the meta — whose own
    // layout is rows u64, 6 presence flags, n_ranks u64. Flip the low
    // byte of n_ranks: parses fine, disagrees with the rows.
    mutate_first_chunk(&path, |payload| payload[30] ^= 0x01);

    let report = fsck(&path).expect("fsck walks the mutant without failing");
    assert_eq!(report.committed_records, 0, "first chunk is quarantined");
    let q = report.quarantined.first().expect("damage is quarantined");
    assert_eq!(
        q.reason,
        QuarantineReason::Codec,
        "a checksum-passing meta mismatch is codec-class damage"
    );
    match load_spill(&path) {
        Err(SpillError::Codec { .. }) => {}
        other => panic!("strict load must fail typed Codec, got {other:?}"),
    }
    let (salvaged, comp) = load_spill_salvaged(&path).expect("salvage still succeeds");
    assert_eq!(salvaged.len(), 0, "nothing before the damaged chunk");
    assert!(!comp.is_complete());
}

/// A log rewritten after a strict open must not reach the decoder: first
/// with the first chunk's leading column tag set to a scheme that does not
/// exist (frame checksum re-fixed, so the frame itself still verifies),
/// then with a different, valid log — more files, larger ids — renamed
/// over it. Both rescans fail with a typed error.
#[test]
fn log_rewritten_after_open_is_a_typed_error() {
    let dir = Scratch::new("log_rewritten_after_open_is_a_typed_error");
    let c = sample_trace();
    let path = dir.path("rewritten.vsp3");
    spill_columnar(&c, GROUP_ROWS, &path, SpillFaultPlan::none()).expect("clean spill");
    let src = SpillSource::open_strict(&path).expect("clean log opens strict");
    let job_time = Dur::from_secs(1);
    assert!(TraceProfile::streaming_source(&src, job_time).is_ok());

    // Payload layout: rows u64, meta_len u64, the meta, ten column
    // lengths, then the columns; the first column's first byte is its
    // codec tag.
    mutate_first_chunk(&path, |payload| {
        let meta_len = u64::from_le_bytes(payload[8..16].try_into().unwrap()) as usize;
        payload[16 + meta_len + 80] = 0xee;
    });
    match TraceProfile::streaming_source(&src, job_time) {
        Err(SpillError::ChangedSinceOpen { .. }) => {}
        other => panic!("a rewritten chunk must be a typed error, got {other:?}"),
    }

    let mut wider = Tracer::new();
    for i in 0..(GROUP_ROWS as u64 * 3) {
        let file = wider.file_id(&format!("/p/gpfs1/wide/{i}"));
        let app = wider.app_id("wide");
        wider.record(
            i as u32,
            0,
            app,
            Layer::Posix,
            OpKind::Write,
            SimTime(i),
            SimTime(i + 1),
            Some(file),
            0,
            4096,
        );
    }
    spill_columnar(wider.columnar(), GROUP_ROWS, &path, SpillFaultPlan::none())
        .expect("replacement spill");
    match TraceProfile::streaming_source(&src, job_time) {
        Err(SpillError::ChangedSinceOpen { .. }) => {}
        other => panic!("a swapped-in log must be a typed error, got {other:?}"),
    }
}
