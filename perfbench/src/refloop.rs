//! The fixed reference loop `pass_ref_ratio` divides by.
//!
//! It stands in for "how fast is this host right now": single-threaded,
//! allocating its own memory, and calling no program code, so a change to
//! the program can never change its cost. It has two halves of about equal
//! time: integer and branch work over a 4 KiB table that stays in L1, and
//! hash-map and binary-heap churn over about a megabyte, the kind of work
//! the simulator's event queue and lookup tables do.
//!
//! Measured on a shared 2-vCPU host over 22 windows of ten `characterize`
//! passes, whose lower-quartile time drifted with a 12.6% coefficient of
//! variation: pass/loop ratios varied 7.2% with the L1 half alone, 5.7%
//! with the hash half alone and 5.2% with both. A loop over a 16 MiB table
//! (10.2%) and one over 4 MiB (per-call swings of ±20%) tracked worse.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// L1-resident table entries (4 KiB of `u64`).
const TABLE: usize = 512;
/// Iterations of the integer half.
const ALU_ITERS: u64 = 6_000_000;
/// Operations of the hash-map and heap half.
const HASH_OPS: u64 = 200_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The loop's time on an undisturbed core of the 2-vCPU host the
/// benchmark was calibrated on. Host-normalized times are expressed as
/// "seconds at this loop speed": wall seconds × `NOMINAL_SECS` / loop
/// seconds measured alongside.
pub const NOMINAL_SECS: f64 = 0.04;

/// Run the loop once and return a value that depends on all of its work.
pub fn reference_work() -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    let mut acc = 0u64;

    let mut table: Vec<u64> = (0..TABLE as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    for i in 0..ALU_ITERS {
        let r = xorshift(&mut x);
        let j = (r as usize) & (TABLE - 1);
        acc = acc.wrapping_add(table[j].rotate_left((i & 31) as u32));
        table[j] ^= r;
        if r & 1 == 0 {
            acc ^= i;
        }
    }

    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    for i in 0..HASH_OPS {
        let r = xorshift(&mut x);
        *counts.entry(r & 0xFFFF).or_insert(0) += i;
        heap.push(Reverse(r >> 20));
        if heap.len() > 10_000 {
            acc ^= heap.pop().map_or(0, |e| e.0);
        }
    }
    acc ^ counts.len() as u64
}

/// Wall seconds of one run of the loop.
pub fn time_reference() -> f64 {
    let t = Instant::now();
    black_box(reference_work());
    t.elapsed().as_secs_f64()
}
