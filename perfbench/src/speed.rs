//! Host-speed reference.
//!
//! On a shared host the speed of the same code drifts by tens of percent
//! within a minute, as other tenants contend for the cores, and the
//! thread's CPU time drifts with it. The benchmark therefore times a
//! fixed reference loop next to every round of work and scales host
//! times to the loop's nominal speed: a stretch that took `t` seconds
//! while the host ran at speed `s` counts as `t × s` seconds.
//!
//! The loop is L1-resident, throughput-bound integer work: among the
//! loops tried (a dependent multiply chain, a branchy table walk, page
//! allocation), its speed followed the workloads' own drift most
//! closely.

use std::hint::black_box;
use std::time::Instant;

/// How long the loop takes at nominal speed. Changing it rescales every
/// scaled host time, so it stays fixed.
const NOMINAL_SECS: f64 = 0.025;
/// 16 KiB of words, passed over [`PASSES`] times.
const WORDS: u64 = 2048;
const PASSES: u64 = 15_000;

/// The host's speed now, relative to nominal: above 1 when the loop ran
/// faster than [`NOMINAL_SECS`].
pub fn measure() -> f64 {
    let mut words: Vec<u64> = (0..WORDS).collect();
    let start = Instant::now();
    let mut acc = 0u64;
    for pass in 0..PASSES {
        for word in &mut words {
            *word = word.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(pass);
            acc ^= *word >> 7;
        }
    }
    black_box(acc);
    NOMINAL_SECS / start.elapsed().as_secs_f64()
}
