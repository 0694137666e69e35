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
//!
//! Each `Rank` holds one retired buffer in front of the pool (`Rank::stage`
//! / `Rank::retire`, through `BufferPool::get_via` and
//! `BufferPool::recycle_via`), so a steady exchange hands its wire buffer
//! from receive to next send without taking the pool's lock. A slot hit is
//! a pool hit, and the slot goes back to the pool when the rank exits.
//!
//! A POD send knows its wire length up front and writes every byte of it,
//! so it draws with `BufferPool::get_sized`: the buffer comes back at
//! exactly that length with its old bytes in place, and a steady exchange
//! of one size neither zeroes nor allocates.

use bytes::{Bytes, BytesMut};
use lockrank::Mutex;
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
    bufs: Mutex<[Vec<BytesMut>; class_of(MAX_POOLED_CAPACITY) + 1], 450>,
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
        self.get_via(&mut None, cap)
    }

    /// A buffer of exactly `len` bytes for an encoder that writes every one
    /// of them, drawn as [`BufferPool::get`] draws. A retired buffer keeps
    /// the bytes it already holds, stale content of an earlier message
    /// included, so only a tail it grows by is zeroed: a buffer that
    /// carried `len` bytes before is handed out without a write.
    pub(crate) fn get_sized(&self, len: usize) -> BytesMut {
        self.get_sized_via(&mut None, len)
    }

    /// [`BufferPool::get`] through a caller-held one-buffer slot (a rank's,
    /// see `Rank::stage`): a slot buffer that `get` would hand out for
    /// `cap` is taken without the mutex and counts as a hit; otherwise the
    /// stacks serve the request and the slot keeps its buffer.
    pub(crate) fn get_via(&self, slot: &mut Option<BytesMut>, cap: usize) -> BytesMut {
        match self.draw(slot, cap) {
            Some(mut b) => {
                b.clear();
                b
            }
            // Rounded up so the buffer serves every later small request.
            None => BytesMut::with_capacity(cap.max(MIN_CLASS_BYTES)),
        }
    }

    /// [`BufferPool::get_sized`] through a caller-held slot, as
    /// [`BufferPool::get_via`].
    pub(crate) fn get_sized_via(&self, slot: &mut Option<BytesMut>, len: usize) -> BytesMut {
        let mut b = match self.draw(slot, len) {
            Some(b) => b,
            // Zeroed by the allocator: a fresh megabyte arrives as untouched
            // zero pages, not as a memset ahead of the encoder's write.
            None => BytesMut::zeroed(len.max(MIN_CLASS_BYTES)),
        };
        b.resize(len, 0);
        b
    }

    /// The retired buffer a draw for `cap` takes, its bytes as they were
    /// retired: the slot's if it fits, else one from the stacks. Counts a
    /// hit, or a miss when there is none and the caller allocates.
    fn draw(&self, slot: &mut Option<BytesMut>, cap: usize) -> Option<BytesMut> {
        let fits =
            |b: &BytesMut| b.capacity() >= cap && class_of(b.capacity()) <= class_of(cap) + 1;
        let recycled = slot.take_if(|b| fits(b)).or_else(|| {
            let mut bufs = self.bufs.lock();
            let fitting = |class: &mut Vec<BytesMut>| {
                let i = class.iter().rposition(fits)?;
                Some(class.swap_remove(i))
            };
            let mut near = bufs.iter_mut().skip(class_of(cap)).take(2);
            near.find_map(fitting)
        });
        let counter = if recycled.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        recycled
    }

    /// Whether [`BufferPool::put`] can retain `buf` (given room in its class).
    fn retainable(&self, buf: &BytesMut) -> bool {
        self.max_buffers > 0 && (1..=MAX_POOLED_CAPACITY).contains(&buf.capacity())
    }

    /// Retire a buffer into its capacity class (dropped if the class is
    /// full or the buffer is outsized).
    pub fn put(&self, buf: BytesMut) {
        if !self.retainable(&buf) {
            return;
        }
        let mut bufs = self.bufs.lock();
        let class = &mut bufs[class_of(buf.capacity())];
        if class.len() < self.max_buffers {
            class.push(buf);
        }
    }

    /// A frozen payload's storage if `bytes` is its sole owner; a failed
    /// reclaim is counted.
    fn reclaim(&self, bytes: Bytes) -> Option<BytesMut> {
        let failed = |_still_shared: Bytes| self.reclaim_failures.fetch_add(1, Ordering::Relaxed);
        bytes.try_into_mut().map_err(failed).ok()
    }

    /// Try to reclaim a frozen payload's storage. Succeeds only when
    /// `bytes` is the sole owner; aliased or static buffers are dropped
    /// untouched, which keeps every zero-copy sharing guarantee intact.
    pub fn recycle(&self, bytes: Bytes) {
        if let Some(buf) = self.reclaim(bytes) {
            self.put(buf);
        }
    }

    /// [`BufferPool::recycle`] through a caller-held slot: a reclaimed
    /// buffer the stacks could retain fills an empty slot without the
    /// mutex; with the slot full it goes to [`BufferPool::put`]. An
    /// aliased payload is never reclaimed, so it never enters a slot.
    pub(crate) fn recycle_via(&self, slot: &mut Option<BytesMut>, bytes: Bytes) {
        match self.reclaim(bytes) {
            Some(buf) if slot.is_none() && self.retainable(&buf) => *slot = Some(buf),
            Some(buf) => self.put(buf),
            None => {}
        }
    }

    /// Number of buffers currently pooled (for tests and diagnostics).
    pub fn pooled(&self) -> usize {
        let bufs = self.bufs.lock();
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
    fn a_sized_draw_zeroes_only_the_tail_it_grows() {
        let pool = BufferPool::new();
        let mut b = pool.get(128);
        b.extend_from_slice(&[7; 100]);
        let ptr = b.as_ptr();
        pool.recycle(b.freeze());
        let short = pool.get_sized(50);
        assert_eq!((short.as_ptr(), &short[..]), (ptr, &[7; 50][..]));
        pool.recycle(short.freeze());
        let long = pool.get_sized(120);
        assert_eq!(long.as_ptr(), ptr);
        assert_eq!(&long[..50], &[7; 50], "kept bytes are not rewritten");
        assert_eq!(&long[50..], &[0; 70], "the grown tail is zeroed");
        let fresh = pool.get_sized(120);
        assert_eq!(&fresh[..], &[0; 120], "a miss is sized and zeroed");
        assert!(pool.get_sized(8).capacity() >= MIN_CLASS_BYTES);
        assert_eq!((pool.stats().hits, pool.stats().misses), (2, 3));
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
    fn a_slot_serves_what_the_stacks_would_as_a_hit() {
        let pool = BufferPool::new();
        let mut slot = Some(BytesMut::with_capacity(8192));
        let ptr = slot.as_ref().unwrap().as_ptr();
        // A header would not get an 8 KiB buffer from the stacks: the slot
        // keeps it and the request misses.
        assert!(pool.get_via(&mut slot, 16).capacity() < 8192);
        assert!(slot.is_some());
        let staged = pool.get_via(&mut slot, 8192);
        assert_eq!(staged.as_ptr(), ptr);
        assert!(slot.is_none());
        assert_eq!((pool.stats().hits, pool.stats().misses), (1, 1));
        assert_eq!(pool.pooled(), 0, "the slot never went through the stacks");
    }

    #[test]
    fn a_slot_takes_only_sole_owned_buffers_the_pool_would_keep() {
        let pool = BufferPool::new();
        let mut slot = None;
        let frozen = pool.get(64).freeze();
        let alias = frozen.clone();
        pool.recycle_via(&mut slot, frozen);
        assert!(slot.is_none(), "an aliased payload never enters a slot");
        assert_eq!(pool.stats().reclaim_failures, 1);
        pool.recycle_via(&mut slot, alias);
        assert!(slot.is_some(), "its last owner's retire fills the slot");
        pool.recycle_via(&mut slot, pool.get(64).freeze());
        assert_eq!(
            pool.pooled(),
            1,
            "a full slot leaves the next to the stacks"
        );

        let starved = BufferPool::with_capacity(0);
        let mut slot = None;
        starved.recycle_via(&mut slot, starved.get(64).freeze());
        assert!(slot.is_none(), "a pool that retains nothing fills no slot");
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
