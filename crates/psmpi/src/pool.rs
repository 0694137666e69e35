//! Thread-safe pool of reusable encode buffers.
//!
//! Every typed send encodes into a [`BytesMut`] that is frozen into the
//! envelope payload; without reuse, a hot exchange loop (halo rows every CG
//! iteration, E/B field hand-offs every step) allocates and frees a
//! megabyte-class buffer per message. The pool keeps bounded stacks of
//! retired buffers, one per power-of-two capacity class: senders draw
//! staging buffers from it, and receivers return payload allocations after
//! decoding via [`Bytes::try_into_mut`], which only succeeds when the
//! receiver holds the last reference — so a buffer still shared with a
//! zero-copy consumer (a `Raw` decode, a bcast sibling, a self-send alias)
//! is never recycled while aliased.

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Retired buffers above this capacity are dropped rather than pooled, so
/// one pathological message cannot pin a huge allocation forever.
pub(crate) const MAX_POOLED_CAPACITY: usize = 16 << 20;

/// Requests and buffers under this size share the smallest class.
const MIN_CLASS_BYTES: usize = 64;

/// Class of a capacity or a request: `floor(log2(bytes))` above the smallest.
const fn class_of(bytes: usize) -> usize {
    ((bytes | MIN_CLASS_BYTES).ilog2() - MIN_CLASS_BYTES.ilog2()) as usize
}

/// Default bound on pooled buffers per capacity class; beyond it, retired
/// buffers are simply freed. Tunable per pool via [`BufferPool::with_capacity`]
/// — PR 8 measured this default as the binding constraint under synchronized
/// BSP bursts at 1000 ranks (~0.66 hit rate when every rank races for a
/// staging buffer at the same host instant).
pub const DEFAULT_MAX_POOLED_BUFFERS: usize = 64;

/// Bounded stacks of retired [`BytesMut`]s, one per capacity class (see module docs).
///
/// The pool keeps host-side efficacy counters ([`BufferPool::stats`]).
/// They count *wall-clock-domain* events whose totals depend on host
/// scheduling (which thread wins a pooled buffer, whether a receiver
/// drops its reference before the recycle attempt), so they are reported
/// only through host-metrics channels (the repo benchmark's
/// `psmpi.pool_*` metrics) and must never feed virtual-time results or
/// byte-diffed obs artifacts.
pub struct BufferPool {
    bufs: Mutex<[Vec<BytesMut>; class_of(MAX_POOLED_CAPACITY) + 1]>, // lock-order: 50
    max_buffers: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    reclaim_failures: AtomicU64,
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::with_capacity(DEFAULT_MAX_POOLED_BUFFERS)
    }
}

/// Point-in-time snapshot of a pool's efficacy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `get` calls served from a retired allocation.
    pub hits: u64,
    /// `get` calls that had to allocate fresh.
    pub misses: u64,
    /// `recycle` calls that could not reclaim the buffer (still aliased,
    /// static, or otherwise not sole-owned).
    pub reclaim_failures: u64,
}

impl PoolStats {
    /// Fraction of `get` calls served from the pool (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl BufferPool {
    /// New, empty pool with the default buffer bound
    /// ([`DEFAULT_MAX_POOLED_BUFFERS`]).
    pub fn new() -> BufferPool {
        BufferPool::default()
    }

    /// New, empty pool retaining at most `max_buffers` retired buffers per
    /// capacity class. Sized to the peak number of concurrently in-flight
    /// sends the host drives: under synchronized bursts every rank races for
    /// a staging buffer at once, so a bound below the rank count forces
    /// fresh allocations (visible as `misses` in [`BufferPool::stats`]).
    pub fn with_capacity(max_buffers: usize) -> BufferPool {
        BufferPool {
            bufs: Mutex::new(Default::default()),
            max_buffers,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reclaim_failures: AtomicU64::new(0),
        }
    }

    /// The configured bound on retained buffers (per capacity class).
    pub fn capacity(&self) -> usize {
        self.max_buffers
    }

    /// An empty buffer with at least `cap` bytes of capacity: a retired
    /// one that already covers `cap` (of the request's own class with room
    /// enough, else any of the next class up) or a fresh one. With one stack
    /// for all sizes a 16-byte header pops a recycled megabyte buffer and the
    /// next megabyte request "hits" a 16-byte one and reallocates it.
    pub fn get(&self, cap: usize) -> BytesMut {
        let recycled = {
            let mut bufs = self.bufs.lock();
            crate::lock_witness!("psmpi.bufs");
            let fitting = |class: &mut Vec<BytesMut>| {
                let i = class.iter().rposition(|b| b.capacity() >= cap)?;
                Some(class.swap_remove(i))
            };
            let mut near = bufs.iter_mut().skip(class_of(cap)).take(2);
            near.find_map(fitting)
        };
        match recycled {
            Some(mut b) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                b.clear();
                b
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                // Rounded up so the buffer serves every later small request.
                BytesMut::with_capacity(cap.max(MIN_CLASS_BYTES))
            }
        }
    }

    /// Retire a buffer into its capacity class (dropped if the class is
    /// full or the buffer is outsized).
    pub fn put(&self, buf: BytesMut) {
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        let mut bufs = self.bufs.lock();
        crate::lock_witness!("psmpi.bufs");
        let class = &mut bufs[class_of(buf.capacity())];
        if class.len() < self.max_buffers {
            class.push(buf);
        }
    }

    /// Try to reclaim a frozen payload's storage. Succeeds only when
    /// `bytes` is the sole owner; aliased or static buffers are dropped
    /// untouched, which keeps every zero-copy sharing guarantee intact.
    pub fn recycle(&self, bytes: Bytes) {
        match bytes.try_into_mut() {
            Ok(buf) => self.put(buf),
            Err(_still_shared) => {
                self.reclaim_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of buffers currently pooled (for tests and diagnostics).
    pub fn pooled(&self) -> usize {
        let bufs = self.bufs.lock();
        crate::lock_witness!("psmpi.bufs");
        bufs.iter().map(Vec::len).sum()
    }

    /// Snapshot the efficacy counters (see the struct docs for the
    /// wall-clock-domain caveat).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            reclaim_failures: self.reclaim_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycle_and_reuse_same_allocation() {
        let pool = BufferPool::new();
        let cap = 1 << 20;
        let mut b = pool.get(cap);
        b.extend_from_slice(&[1, 2, 3]);
        let ptr = b.as_ref().as_ptr();
        pool.recycle(b.freeze());
        assert_eq!(pool.pooled(), 1);
        // Eight bytes more is the same class, but the buffer does not
        // cover it: a miss, not a hit that reallocates.
        let bigger = pool.get(cap + 8);
        assert_ne!(bigger.as_ref().as_ptr(), ptr);
        assert!(bigger.capacity() >= cap + 8);
        let again = pool.get(cap);
        assert_eq!(again.as_ref().as_ptr(), ptr);
        assert!(again.is_empty());
        assert!(again.capacity() >= cap);
        assert_eq!((pool.stats().hits, pool.stats().misses), (1, 2));
    }

    #[test]
    fn small_request_never_takes_a_large_buffer() {
        let pool = BufferPool::new();
        pool.put(BytesMut::with_capacity(1 << 20));
        pool.put(BytesMut::with_capacity(4096));
        pool.put(BytesMut::with_capacity(100));
        pool.put(BytesMut::with_capacity(8)); // too small for 16 bytes
        let header = pool.get(16);
        assert!((16..4096).contains(&header.capacity()));
        assert_eq!(pool.stats().hits, 1);
        // With no small buffer left, a header allocates rather than ride
        // the megabyte, and a request past the largest class just misses.
        assert!(pool.get(16).capacity() < 4096);
        assert!(pool.get(4 * MAX_POOLED_CAPACITY).capacity() >= 4 * MAX_POOLED_CAPACITY);
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(pool.pooled(), 3);
    }

    #[test]
    fn interleaved_sizes_settle_without_misses() {
        let pool = BufferPool::new();
        let big = vec![1.5f64; 1 << 17];
        for _ in 0..32 {
            let wire = crate::datatype::pod_to_bytes_pooled(&pool, &big);
            let header = crate::MpiDatatype::to_wire(&(1u64, 2u64), &pool);
            pool.recycle(wire);
            pool.recycle(header);
        }
        assert_eq!(pool.stats().misses, 2, "one per size, on the first round");
        assert_eq!(pool.stats().hits, 62);
    }

    #[test]
    fn aliased_payload_is_never_recycled() {
        let pool = BufferPool::new();
        let mut b = pool.get(64);
        b.extend_from_slice(&[9; 8]);
        let frozen = b.freeze();
        let alias = frozen.clone();
        pool.recycle(frozen);
        assert_eq!(pool.pooled(), 0, "aliased buffer must not be pooled");
        assert_eq!(&alias[..], &[9; 8]);
    }

    #[test]
    fn stats_track_hits_misses_and_failed_reclaims() {
        let pool = BufferPool::new();
        let mut b = pool.get(32); // miss: pool starts empty
        b.extend_from_slice(&[1, 2, 3, 4]);
        pool.recycle(b.freeze()); // sole owner: reclaimed into the pool
        let _hit = pool.get(8); // hit
        let mut c = pool.get(8); // miss: pool drained again
        c.extend_from_slice(&[5]);
        let frozen = c.freeze();
        let _alias = frozen.clone();
        pool.recycle(frozen); // aliased: reclaim failure
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.reclaim_failures, 1);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BufferPool::new();
        assert_eq!(pool.capacity(), DEFAULT_MAX_POOLED_BUFFERS);
        for _ in 0..200 {
            pool.put(BytesMut::with_capacity(8));
        }
        assert!(pool.pooled() <= DEFAULT_MAX_POOLED_BUFFERS);
    }

    #[test]
    fn capacity_is_configurable() {
        let pool = BufferPool::with_capacity(128);
        assert_eq!(pool.capacity(), 128);
        for _ in 0..200 {
            pool.put(BytesMut::with_capacity(8));
        }
        assert_eq!(pool.pooled(), 128, "configured bound governs retention");

        let tiny = BufferPool::with_capacity(2);
        for _ in 0..10 {
            tiny.put(BytesMut::with_capacity(8));
        }
        assert_eq!(tiny.pooled(), 2);
    }
}
