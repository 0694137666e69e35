//! Timing helpers for the stand-alone layer probes.

use crate::stats;
use std::time::Instant;

/// Batches a probe times; it reports the median batch.
const BATCHES: usize = 5;

/// Run `f` and return its result with the host seconds it took.
pub fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Host nanoseconds one call of `f` takes: the median over a few batches
/// of `iters` calls each. The caller passes inputs and results through
/// `std::hint::black_box`.
pub fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    assert!(iters > 0);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&batches)
}

/// MB/s (10^6 bytes per second) of a call that processes `bytes` bytes in
/// `ns` nanoseconds.
pub fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns * 1e-9)
}
