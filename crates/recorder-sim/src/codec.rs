//! Column codecs for sealed trace chunks: delta, run-length, and raw.
//!
//! Every column of a sealed row group is encoded independently as a small
//! self-describing byte string: one tag byte, then the payload. The encoder
//! tries all three schemes and keeps the smallest (ties prefer delta, then
//! RLE, then raw), so callers never choose a scheme per column — monotone
//! timestamp columns collapse under delta, low-cardinality columns (rank,
//! op, layer, file id) collapse under RLE, and adversarial columns fall back
//! to raw at exactly `width` bytes per value plus the tag.
//!
//! Values travel as `u64` regardless of the column's native width; `width`
//! (1/2/4/8 bytes) bounds the raw representation and is validated on decode
//! so a corrupt byte can't smuggle an oversized value past the checksum
//! into a narrowing cast.
//!
//! The byte layout is part of the on-disk trace format (the version-3
//! spill log, see `spill.rs`) — changes must bump that version.
//!
//! Layout per tag:
//! - `0` RAW:   `n` little-endian values of `width` bytes each.
//! - `1` RLE:   LEB128 varint pairs `(value, run_length)`, runs ≥ 1,
//!   summing to `n`.
//! - `2` DELTA: first value as 8-byte LE, a delta width byte
//!   `w ∈ {0,1,2,4,8}`, then `n-1` zigzag-encoded wrapping deltas of `w`
//!   bytes each (`w = 0` means every delta is zero — a constant column).

/// Encoding scheme tags (the first byte of every encoded column).
const TAG_RAW: u8 = 0;
const TAG_RLE: u8 = 1;
const TAG_DELTA: u8 = 2;

/// A malformed encoded column. Decoding is fallible by design: the salvage
/// loader feeds possibly-corrupt bytes through it and needs typed reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Payload ended before `n` values were produced.
    Truncated,
    /// Unknown scheme tag.
    BadTag(u8),
    /// Delta width byte outside `{0, 1, 2, 4, 8}`.
    BadWidth(u8),
    /// Payload continued past the `n`-th value.
    TrailingBytes,
    /// A decoded value does not fit the column's declared native width.
    ValueTooWide { value: u64, width: u8 },
    /// A LEB128 varint ran past 10 bytes (can't fit in u64).
    VarintOverflow,
    /// An RLE run of length zero, or runs not summing to `n`.
    BadRun,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "encoded column truncated"),
            CodecError::BadTag(t) => write!(f, "unknown codec tag {t}"),
            CodecError::BadWidth(w) => write!(f, "bad delta width {w}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after last value"),
            CodecError::ValueTooWide { value, width } => {
                write!(f, "value {value} exceeds {width}-byte column width")
            }
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::BadRun => write!(f, "rle runs malformed"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Zigzag-map a signed delta onto an unsigned value so small magnitudes of
/// either sign encode in few bytes.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded length of `v` as a LEB128 varint, without materializing it.
fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Read one LEB128 varint starting at `*pos`, advancing it.
fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(CodecError::VarintOverflow);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Minimal delta byte width in `{0, 1, 2, 4, 8}` that represents every
/// zigzagged delta of `values`.
fn delta_width(values: &[u64]) -> u8 {
    let mut max = 0u64;
    for w in values.windows(2) {
        max = max.max(zigzag((w[1].wrapping_sub(w[0])) as i64));
    }
    match max {
        0 => 0,
        v if v <= 0xff => 1,
        v if v <= 0xffff => 2,
        v if v <= 0xffff_ffff => 4,
        _ => 8,
    }
}

/// Byte length the RLE scheme would need (tag included).
fn rle_len(values: &[u64]) -> usize {
    let mut len = 1usize;
    let mut i = 0usize;
    while i < values.len() {
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == values[i] {
            run += 1;
        }
        len += varint_len(values[i]) + varint_len(run as u64);
        i += run;
    }
    len
}

/// Encode one column of `values` whose native width is `width` bytes
/// (1, 2, 4, or 8). Returns the smallest of the three schemes; ties prefer
/// delta, then RLE, then raw, so the choice is deterministic.
pub fn encode_column(values: &[u64], width: u8) -> Vec<u8> {
    assert!(
        matches!(width, 1 | 2 | 4 | 8),
        "unsupported column width {width}"
    );
    debug_assert!(
        width == 8 || values.iter().all(|&v| v >> (width * 8) == 0),
        "value exceeds declared column width"
    );
    if values.is_empty() {
        return vec![TAG_RAW];
    }
    let raw = 1 + width as usize * values.len();
    let rle = rle_len(values);
    let dw = delta_width(values);
    let delta = 1 + 8 + 1 + dw as usize * (values.len() - 1);

    if delta <= rle && delta <= raw {
        let mut out = Vec::with_capacity(delta);
        out.push(TAG_DELTA);
        out.extend_from_slice(&values[0].to_le_bytes());
        out.push(dw);
        for w in values.windows(2) {
            let z = zigzag((w[1].wrapping_sub(w[0])) as i64);
            out.extend_from_slice(&z.to_le_bytes()[..dw as usize]);
        }
        out
    } else if rle <= raw {
        let mut out = Vec::with_capacity(rle);
        out.push(TAG_RLE);
        let mut i = 0usize;
        while i < values.len() {
            let mut run = 1usize;
            while i + run < values.len() && values[i + run] == values[i] {
                run += 1;
            }
            put_varint(&mut out, values[i]);
            put_varint(&mut out, run as u64);
            i += run;
        }
        out
    } else {
        let mut out = Vec::with_capacity(raw);
        out.push(TAG_RAW);
        for &v in values {
            out.extend_from_slice(&v.to_le_bytes()[..width as usize]);
        }
        out
    }
}

/// Decode an encoded column of `n` values, handing each decoded value to
/// `emit` in order. `width` is the column's declared native width; every
/// decoded value is checked to fit it. The closure form lets consumers
/// decode straight into their native-width column vectors without staging
/// through a `u64` buffer — the chunk decoder's hot path. On error, `emit`
/// may have been called for a prefix of the column.
#[inline]
pub fn decode_column_each(
    bytes: &[u8],
    n: usize,
    width: u8,
    mut emit: impl FnMut(u64),
) -> Result<(), CodecError> {
    assert!(
        matches!(width, 1 | 2 | 4 | 8),
        "unsupported column width {width}"
    );
    let (&tag, payload) = bytes.split_first().ok_or(CodecError::Truncated)?;
    let fits = |v: u64| width == 8 || v >> (width * 8) == 0;
    match tag {
        TAG_RAW => {
            let w = width as usize;
            if payload.len() < n * w {
                return Err(CodecError::Truncated);
            }
            if payload.len() > n * w {
                return Err(CodecError::TrailingBytes);
            }
            // Constant-width inner loops: the loads compile to single
            // moves instead of a variable-length copy per value.
            macro_rules! raw_loop {
                ($w:literal) => {
                    for chunk in payload.chunks_exact($w) {
                        let mut buf = [0u8; 8];
                        buf[..$w].copy_from_slice(chunk);
                        emit(u64::from_le_bytes(buf));
                    }
                };
            }
            match w {
                1 => raw_loop!(1),
                2 => raw_loop!(2),
                4 => raw_loop!(4),
                _ => raw_loop!(8),
            }
            Ok(())
        }
        TAG_RLE => {
            let mut pos = 0usize;
            let mut produced = 0usize;
            while produced < n {
                let value = get_varint(payload, &mut pos)?;
                let run = get_varint(payload, &mut pos)?;
                if run == 0 || produced + run as usize > n {
                    return Err(CodecError::BadRun);
                }
                if !fits(value) {
                    return Err(CodecError::ValueTooWide { value, width });
                }
                for _ in 0..run {
                    emit(value);
                }
                produced += run as usize;
            }
            if pos != payload.len() {
                return Err(CodecError::TrailingBytes);
            }
            Ok(())
        }
        TAG_DELTA => {
            if n == 0 {
                // Empty columns always encode as RAW; a delta header here
                // means the byte stream lies about its row count.
                return Err(CodecError::TrailingBytes);
            }
            if payload.len() < 9 {
                return Err(CodecError::Truncated);
            }
            let first = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            let dw = payload[8];
            if !matches!(dw, 0 | 1 | 2 | 4 | 8) {
                return Err(CodecError::BadWidth(dw));
            }
            let deltas = &payload[9..];
            let w = dw as usize;
            if deltas.len() < (n - 1) * w {
                return Err(CodecError::Truncated);
            }
            if deltas.len() > (n - 1) * w {
                return Err(CodecError::TrailingBytes);
            }
            if !fits(first) {
                return Err(CodecError::ValueTooWide {
                    value: first,
                    width,
                });
            }
            emit(first);
            let mut prev = first;
            // Constant-width inner loops (see `raw_loop`); `chunks_exact`
            // also drops the per-iteration slice bounds checks.
            macro_rules! delta_loop {
                ($w:literal) => {
                    for chunk in deltas.chunks_exact($w) {
                        let mut buf = [0u8; 8];
                        buf[..$w].copy_from_slice(chunk);
                        let v = prev.wrapping_add(unzigzag(u64::from_le_bytes(buf)) as u64);
                        if !fits(v) {
                            return Err(CodecError::ValueTooWide { value: v, width });
                        }
                        emit(v);
                        prev = v;
                    }
                };
            }
            match w {
                // Zero delta width: every value equals the first.
                0 => {
                    for _ in 1..n {
                        emit(prev);
                    }
                }
                1 => delta_loop!(1),
                2 => delta_loop!(2),
                4 => delta_loop!(4),
                _ => delta_loop!(8),
            }
            Ok(())
        }
        other => Err(CodecError::BadTag(other)),
    }
}

/// Decode an encoded column back into `n` values, appending to `out`.
/// On error `out` may hold a partial prefix.
pub fn decode_column_into(
    bytes: &[u8],
    n: usize,
    width: u8,
    out: &mut Vec<u64>,
) -> Result<(), CodecError> {
    out.reserve(n);
    decode_column_each(bytes, n, width, |v| out.push(v))
}

/// [`decode_column_into`] into a fresh vector.
pub fn decode_column(bytes: &[u8], n: usize, width: u8) -> Result<Vec<u64>, CodecError> {
    let mut out = Vec::with_capacity(n);
    decode_column_into(bytes, n, width, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u64], width: u8) -> Vec<u8> {
        let enc = encode_column(values, width);
        let dec = decode_column(&enc, values.len(), width).expect("decodes");
        assert_eq!(dec, values, "width {width}");
        enc
    }

    #[test]
    fn empty_column_is_one_tag_byte() {
        let enc = round_trip(&[], 4);
        assert_eq!(enc, vec![TAG_RAW]);
    }

    #[test]
    fn constant_column_collapses() {
        let values = vec![42u64; 10_000];
        let enc = round_trip(&values, 4);
        // A single RLE run beats delta-with-zero-width: tag + one
        // (value, run) varint pair.
        assert_eq!(enc.len(), 4);
        assert_eq!(enc[0], TAG_RLE);
    }

    #[test]
    fn monotone_column_compresses_under_delta() {
        let values: Vec<u64> = (0..5_000u64).map(|i| 1_000_000 + i * 37).collect();
        let enc = round_trip(&values, 8);
        assert_eq!(enc[0], TAG_DELTA);
        assert!(
            enc.len() < values.len() * 2,
            "delta beats 8B/value: {}",
            enc.len()
        );
    }

    #[test]
    fn low_cardinality_column_compresses_under_rle() {
        let mut values = Vec::new();
        for rank in 0..8u64 {
            values.extend(std::iter::repeat(rank).take(500));
        }
        let enc = round_trip(&values, 4);
        // 8 runs of 500: delta also sees long zero runs but pays per-value.
        assert_eq!(enc[0], TAG_RLE);
        assert!(enc.len() < 40, "rle pair per run: {}", enc.len());
    }

    #[test]
    fn random_column_falls_back_to_raw_width() {
        // Splitmix-style scramble: incompressible under all three schemes.
        let values: Vec<u64> = (0..1000u64)
            .map(|i| {
                let mut z = i
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(0xbf58_476d_1ce4_e5b9);
                z ^= z >> 30;
                z.wrapping_mul(0x94d0_49bb_1331_11eb)
            })
            .collect();
        let enc = round_trip(&values, 8);
        assert!(
            enc.len() <= 1 + 8 * values.len(),
            "never worse than raw: {}",
            enc.len()
        );
    }

    #[test]
    fn single_record_chunk_round_trips() {
        for width in [1u8, 2, 4, 8] {
            let enc = round_trip(&[7], width);
            assert!(enc.len() <= 11, "one value stays tiny: {}", enc.len());
        }
        round_trip(&[u64::MAX], 8);
        round_trip(&[0], 1);
    }

    #[test]
    fn negative_and_wrapping_deltas_round_trip() {
        round_trip(&[100, 3, 250, 0, u64::MAX, 1, u64::MAX / 2], 8);
        // Sawtooth: small alternating deltas of both signs.
        let saw: Vec<u64> = (0..2048u64).map(|i| 1000 + (i % 2) * 7).collect();
        let enc = round_trip(&saw, 4);
        assert!(enc.len() < saw.len() * 4);
    }

    #[test]
    fn width_is_enforced_on_decode() {
        // A forged RLE stream carrying a value too wide for a u8 column.
        let mut forged = vec![TAG_RLE];
        put_varint(&mut forged, 300);
        put_varint(&mut forged, 4);
        assert_eq!(
            decode_column(&forged, 4, 1),
            Err(CodecError::ValueTooWide {
                value: 300,
                width: 1
            })
        );
    }

    #[test]
    fn corrupt_streams_return_typed_errors() {
        assert_eq!(decode_column(&[], 1, 4), Err(CodecError::Truncated));
        assert_eq!(decode_column(&[9, 1, 2], 1, 4), Err(CodecError::BadTag(9)));
        let good = encode_column(&[1, 2, 3, 4, 5], 4);
        // Truncate mid-payload.
        assert!(decode_column(&good[..good.len() - 1], 5, 4).is_err());
        // Extend with junk.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_column(&long, 5, 4).is_err());
        // Lie about the row count.
        assert!(decode_column(&good, 4, 4).is_err());
        assert!(decode_column(&good, 6, 4).is_err());
    }

    #[test]
    fn varints_round_trip_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // An 11-byte varint can't fit in 64 bits.
        let over = [0xffu8; 10];
        let mut pos = 0;
        assert_eq!(get_varint(&over, &mut pos), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn zigzag_is_an_involution() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            1 << 40,
            -(1 << 40),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn seeded_randomized_columns_round_trip() {
        // A deterministic xorshift sweep over mixed-shape columns: mostly-
        // constant, step functions, random, monotone with jitter — at every
        // supported width (values masked to fit).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for width in [1u8, 2, 4, 8] {
            let mask = if width == 8 {
                u64::MAX
            } else {
                (1u64 << (width * 8)) - 1
            };
            for len in [0usize, 1, 2, 3, 100, 4097] {
                for shape in 0..4 {
                    let mut acc = 0u64;
                    let values: Vec<u64> = (0..len)
                        .map(|i| match shape {
                            0 => next() % 3,             // low cardinality
                            1 => (i as u64 / 97) & mask, // step function
                            2 => next() & mask,          // random
                            _ => {
                                acc = acc.wrapping_add(next() % 16) & mask;
                                acc // monotone-ish
                            }
                        })
                        .collect();
                    round_trip(&values, width);
                }
            }
        }
    }
}
