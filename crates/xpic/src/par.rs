//! Shared-memory parallelism primitives for the compute kernels.
//!
//! Real PIC codes thread their hot loops (the paper's Table II builds xPic
//! with OpenMP on both sides of the machine); this module gives the Rust
//! kernels the same capability using scoped `std::thread` workers — no
//! external dependency, no thread pool to manage.
//!
//! ## Determinism contract
//!
//! Virtual time must not depend on how many *real* threads execute a
//! kernel. Virtual time is driven by the physics results (CG iteration
//! counts drive real halo messages), so the floating-point output of every
//! kernel must be **bit-identical across thread counts**. The rules that
//! guarantee it:
//!
//! * Work is partitioned into a **fixed chunk grid** that is a function of
//!   the problem size only — never of the thread count. Threads pick up
//!   chunks round-robin; how chunks map to threads cannot change any
//!   arithmetic.
//! * Element-wise kernels (Boris push, stencil apply, axpy) write disjoint
//!   outputs per element, so any chunking is trivially bit-exact.
//! * Reductions (moment deposit, dot products) accumulate into **per-chunk
//!   partial buffers** that are merged serially **in chunk order**. The
//!   grouping of the floating-point sums is then fixed by the chunk grid,
//!   not by scheduling.
//!
//! The only floating-point difference this introduces is against the
//! *legacy single-accumulator* serial code (a different, but equally
//! arbitrary, association of the same sums) — bounded by accumulated
//! rounding, in practice ≤ 1e-12 relative (guarded by a property test).

use std::ops::Range;

/// Upper bound on the chunk-grid size for reduction kernels. Enough slack
/// for any realistic core count while keeping partial-buffer memory small.
pub const MAX_CHUNKS: usize = 16;

/// A reduction chunk should amortize its partial buffer over at least this
/// many particles (keeps the chunk grid coarse at test scale).
pub const MIN_PARTICLES_PER_CHUNK: usize = 8192;

/// Below this many particles the element-wise particle kernels stay on the
/// calling thread (spawn overhead would dominate; results are unaffected —
/// element-wise kernels are bit-exact under any chunking).
pub const MIN_PAR_PARTICLES: usize = 16_384;

/// Below this many grid rows the field-solver loops stay on the calling
/// thread (same reasoning as [`MIN_PAR_PARTICLES`]).
pub const MIN_PAR_ROWS: usize = 64;

/// Resolve a thread-count knob: `0` means "use the machine", anything else
/// is taken literally.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned sizing site: resolve_threads(0) maps to the host core count by design (paper runs size the pool to the node); results stay bit-identical across thread counts by contract"
)]
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Chunk-grid size for a reduction over `n` particles: a function of `n`
/// **only** (the determinism contract), coarse enough that partial buffers
/// stay cheap at test scale.
pub fn reduction_chunks(n: usize) -> usize {
    (n / MIN_PARTICLES_PER_CHUNK).clamp(1, MAX_CHUNKS)
}

/// Split `0..len` into `chunks` contiguous, balanced ranges (the first
/// `len % chunks` ranges get one extra element). Deterministic in
/// `(len, chunks)`.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.clamp(1, len.max(1));
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let size = base + usize::from(c < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Split a mutable slice into disjoint sub-slices covering `ranges`
/// (which must be contiguous, ascending, and start at 0 — exactly what
/// [`chunk_ranges`] produces).
pub fn split_mut<'a, T>(mut slice: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0;
    for r in ranges {
        assert_eq!(r.start, consumed, "ranges must tile the slice contiguously");
        let (head, tail) = slice.split_at_mut(r.len());
        out.push(head);
        slice = tail;
        consumed = r.end;
    }
    out
}

/// Execute `tasks` on up to `threads` scoped worker threads. Tasks are
/// dealt round-robin (task `i` runs on worker `i % threads`), so each
/// worker processes its tasks in index order; with `threads <= 1` (or one
/// task) everything runs inline on the caller. Which worker runs a task
/// must not matter to the result — see the module docs.
#[expect(
    clippy::disallowed_methods,
    reason = "par.rs IS the fixed-order merge helper: run_tasks owns the thread::scope that every other crate must go through"
)]
pub fn run_tasks<T, F>(threads: usize, tasks: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let threads = threads.clamp(1, tasks.len().max(1));
    if threads <= 1 {
        for t in tasks {
            f(t);
        }
        return;
    }
    let mut buckets: Vec<Vec<T>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, t) in tasks.into_iter().enumerate() {
        buckets[i % threads].push(t);
    }
    let f = &f;
    std::thread::scope(|s| {
        let mut buckets = buckets.into_iter();
        let own = buckets.next().expect("at least one bucket");
        for bucket in buckets {
            s.spawn(move || {
                for t in bucket {
                    f(t);
                }
            });
        }
        // The caller works too instead of idling on the join.
        for t in own {
            f(t);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_ranges_tile_exactly() {
        for len in [0usize, 1, 7, 16, 1000] {
            for chunks in [1usize, 2, 3, 16, 40] {
                let rs = chunk_ranges(len, chunks);
                assert!(rs.len() <= chunks.max(1));
                let mut pos = 0;
                for r in &rs {
                    assert_eq!(r.start, pos);
                    pos = r.end;
                }
                assert_eq!(pos, len, "len={len} chunks={chunks}");
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = rs.iter().map(|r| r.len()).collect();
                let min = sizes.iter().min().copied().unwrap_or(0);
                let max = sizes.iter().max().copied().unwrap_or(0);
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn chunk_grid_is_thread_count_independent() {
        // The determinism contract: the grid depends on n only.
        let n = 100_000;
        let grid = chunk_ranges(n, reduction_chunks(n));
        for _threads in [1, 2, 4, 8] {
            assert_eq!(chunk_ranges(n, reduction_chunks(n)), grid);
        }
    }

    #[test]
    fn split_mut_is_disjoint_and_total() {
        let mut v: Vec<u32> = (0..10).collect();
        let ranges = chunk_ranges(v.len(), 3);
        let parts = split_mut(&mut v, &ranges);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 10);
        assert_eq!(parts[0][0], 0);
        assert_eq!(*parts[2].last().unwrap(), 9);
    }

    #[test]
    fn run_tasks_executes_everything_once() {
        for threads in [1usize, 2, 4, 8] {
            let counter = AtomicUsize::new(0);
            let tasks: Vec<usize> = (0..37).collect();
            run_tasks(threads, tasks, |i| {
                counter.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), (1..=37).sum::<usize>());
        }
    }

    #[test]
    fn one_thread_runs_every_task_on_the_caller() {
        // No spawn at one thread: the deposit's chunk grid costs its
        // partial buffers and nothing else.
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        run_tasks(1, (0..5).collect(), |_: usize| {
            assert_eq!(std::thread::current().id(), caller);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn run_tasks_with_mutable_slices() {
        let mut data = vec![0u64; 100];
        let ranges = chunk_ranges(data.len(), 8);
        let tasks: Vec<(Range<usize>, &mut [u64])> = ranges
            .iter()
            .cloned()
            .zip(split_mut(&mut data, &ranges))
            .collect();
        run_tasks(4, tasks, |(r, chunk)| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = (r.start + off) as u64;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn resolve_threads_semantics() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
