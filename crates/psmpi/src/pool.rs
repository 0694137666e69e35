//! Thread-safe pool of reusable encode buffers.
//!
//! Every typed send encodes into a [`BytesMut`] that is frozen into the
//! envelope payload; without reuse, a hot exchange loop (halo rows every CG
//! iteration, E/B field hand-offs every step) allocates and frees a
//! megabyte-class buffer per message. The pool keeps bounded stacks of
//! retired buffers, one per power-of-two capacity class: senders draw
//! staging buffers from it, and receivers return payload allocations after
//! decoding. A payload's storage comes back only from its last holder, so
//! a buffer still shared with a zero-copy consumer (a `Raw` decode, a bcast
//! sibling, a self-send alias) is never recycled while aliased.
//!
//! *The last holder reclaims.* A retire first tries
//! [`Bytes::try_into_mut`], which hands the storage back without touching
//! its header when the caller is its sole owner (a ring's steady state).
//! Otherwise the retire releases its view through
//! [`Bytes::into_mut_if_last`]: of all the holders that retire one shared
//! buffer — the ranks of a broadcast, each with a view of the root's one
//! encoding — exactly one gets the storage back, whichever releases last,
//! even when several retire at the same instant on different threads. A
//! retire that is not the last is a share, not a failure; only static
//! storage, which can never come back, counts as a failed reclaim. A
//! holder that drops its view instead of retiring it can still leave the
//! storage to the allocator.
//!
//! Each `Rank` holds a `Slot` in front of the pool (`Rank::stage` /
//! `Rank::retire`): one retired buffer, so a steady exchange hands its wire
//! buffer from receive to next send without taking the pool's lock, and
//! the rank's own hit count, so a hit writes no counter another rank
//! writes. A slot hit is a pool hit, and the slot's buffer and count go
//! back to the pool when the rank exits.
//!
//! One pool serves every universe alive at the same time (see
//! `Router::new`): a job on one universe draws what jobs on the others
//! retired, and the pool is freed with the last universe that holds it.
//! A pool handed to `Universe::with_buffer_pool` serves that universe
//! alone. The counters ([`BufferPool::stats`]) count the draws of every
//! universe on the pool.
//!
//! A POD send knows its wire length up front and writes every byte of it,
//! so it draws with `BufferPool::get_sized`: the buffer comes back at
//! exactly that length with its old bytes in place, and a steady exchange
//! of one size neither zeroes nor allocates.

use bytes::{Bytes, BytesMut};
use lockrank::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    state: Mutex<PoolState, 450>,
    max_buffers: usize,
    /// Hits drawn without a slot, plus the count of every slot dropped.
    hits: AtomicU64,
    misses: AtomicU64,
    reclaim_failures: AtomicU64,
}

/// What the pool's lock guards.
#[derive(Default)]
struct PoolState {
    /// The retired buffers, one stack per capacity class.
    classes: [Vec<BytesMut>; class_of(MAX_POOLED_CAPACITY) + 1],
    /// Hit counts of the live slots, which [`BufferPool::stats`] adds in.
    slots: Vec<Arc<SlotHits>>,
}

/// One slot's hit count, alone on its cache line: only the slot's rank
/// writes it, so a hit moves no line between cores.
#[derive(Default)]
#[repr(align(128))]
struct SlotHits(AtomicU64);

/// A rank's private front on a [`BufferPool`] (see the module docs): one
/// retired buffer, drawn and refilled without the pool's lock, and the
/// rank's hit count. Dropping it hands both to the pool.
pub(crate) struct Slot {
    pool: Arc<BufferPool>,
    buf: Option<BytesMut>,
    hits: Arc<SlotHits>,
}

/// Where an encoder draws its wire buffer: a pool's stacks, or a rank's
/// slot in front of them (every encode psmpi does for a rank).
pub trait Stage {
    /// An empty buffer with at least `cap` bytes of capacity, drawn as
    /// [`BufferPool::get`] draws.
    fn get(&mut self, cap: usize) -> BytesMut;

    /// A buffer of exactly `len` bytes, old content in place, for an
    /// encoder that writes every one of them, drawn as
    /// [`BufferPool::get_sized`] draws.
    fn get_sized(&mut self, len: usize) -> BytesMut;
}

impl Stage for &BufferPool {
    fn get(&mut self, cap: usize) -> BytesMut {
        BufferPool::get(self, cap)
    }

    fn get_sized(&mut self, len: usize) -> BytesMut {
        BufferPool::get_sized(self, len)
    }
}

/// A stage lent out by reference: a rank lends its slot to each encode.
impl<S: Stage> Stage for &mut S {
    fn get(&mut self, cap: usize) -> BytesMut {
        S::get(self, cap)
    }

    fn get_sized(&mut self, len: usize) -> BytesMut {
        S::get_sized(self, len)
    }
}

/// The slot's buffer if the pool would hand that out for the request,
/// else the stacks'.
impl Stage for Slot {
    fn get(&mut self, cap: usize) -> BytesMut {
        self.pool.get_via(&mut self.buf, &self.hits.0, cap)
    }

    fn get_sized(&mut self, len: usize) -> BytesMut {
        self.pool.get_sized_via(&mut self.buf, &self.hits.0, len)
    }
}

impl Slot {
    /// [`BufferPool::recycle`] through the slot: a reclaimed buffer the
    /// stacks could retain fills an empty slot without the mutex; with the
    /// slot full it goes to [`BufferPool::put`]. Only the last holder of
    /// a payload reclaims it, so an aliased buffer never enters a slot.
    pub(crate) fn recycle(&mut self, bytes: Bytes) {
        match self.pool.reclaim(bytes) {
            Some(buf) if self.buf.is_none() && self.pool.retainable(&buf) => self.buf = Some(buf),
            Some(buf) => self.pool.put(buf),
            None => {}
        }
    }
}

impl Drop for Slot {
    /// The buffer goes back to the stacks (subject to their bound), and the
    /// count into the pool's own, in the same lock hold that takes it off
    /// the live list, so [`BufferPool::stats`] never sees it twice or not
    /// at all.
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.put(buf);
        }
        let mut state = self.pool.state.lock();
        let hits = self.hits.0.load(Ordering::Relaxed);
        self.pool.hits.fetch_add(hits, Ordering::Relaxed);
        state.slots.retain(|h| !Arc::ptr_eq(h, &self.hits));
    }
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
    /// `recycle` calls whose storage can never come back (static
    /// storage). A retire by a holder that is not the last is not counted:
    /// the last holder's retire reclaims the buffer.
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
            state: Mutex::new(PoolState::default()),
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
        self.get_via(&mut None, &self.hits, cap)
    }

    /// A buffer of exactly `len` bytes for an encoder that writes every one
    /// of them, drawn as [`BufferPool::get`] draws. A retired buffer keeps
    /// the bytes it already holds, stale content of an earlier message
    /// included, so only a tail it grows by is zeroed: a buffer that
    /// carried `len` bytes before is handed out without a write.
    pub fn get_sized(&self, len: usize) -> BytesMut {
        self.get_sized_via(&mut None, &self.hits, len)
    }

    /// A new [`Slot`] on this pool, its count on the live list.
    pub(crate) fn slot(pool: &Arc<BufferPool>) -> Slot {
        let hits = Arc::new(SlotHits::default());
        pool.state.lock().slots.push(hits.clone());
        Slot {
            pool: pool.clone(),
            buf: None,
            hits,
        }
    }

    /// [`BufferPool::get`] through a caller-held one-buffer slot `buf`
    /// (a [`Slot`]'s, or `None`), counting a hit on `hits`: a slot buffer
    /// that `get` would hand out for `cap` is taken without the mutex;
    /// otherwise the stacks serve the request and the slot keeps its
    /// buffer.
    fn get_via(&self, buf: &mut Option<BytesMut>, hits: &AtomicU64, cap: usize) -> BytesMut {
        match self.draw(buf, hits, cap) {
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
    fn get_sized_via(&self, buf: &mut Option<BytesMut>, hits: &AtomicU64, len: usize) -> BytesMut {
        let mut b = match self.draw(buf, hits, len) {
            Some(b) => b,
            // Zeroed by the allocator: a fresh megabyte arrives as untouched
            // zero pages, not as a memset ahead of the encoder's write.
            // Rounded up to a power of two, so the buffer still covers a
            // later draw a little longer than this one (a checkpoint blob
            // after migration); the shrink below writes nothing, and the
            // pages past `len` stay untouched.
            None => BytesMut::zeroed(len.max(MIN_CLASS_BYTES).next_power_of_two()),
        };
        b.resize(len, 0);
        b
    }

    /// The retired buffer a draw for `cap` takes, its bytes as they were
    /// retired: the slot's if it fits, else one from the stacks. Counts a
    /// hit on `hits`, or a miss when there is none and the caller
    /// allocates.
    fn draw(&self, slot: &mut Option<BytesMut>, hits: &AtomicU64, cap: usize) -> Option<BytesMut> {
        let fits =
            |b: &BytesMut| b.capacity() >= cap && class_of(b.capacity()) <= class_of(cap) + 1;
        let recycled = slot.take_if(|b| fits(b)).or_else(|| {
            let mut state = self.state.lock();
            let fitting = |class: &mut Vec<BytesMut>| {
                let i = class.iter().rposition(fits)?;
                Some(class.swap_remove(i))
            };
            let mut near = state.classes.iter_mut().skip(class_of(cap)).take(2);
            near.find_map(fitting)
        });
        let counter = if recycled.is_some() {
            hits
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
        let mut state = self.state.lock();
        let class = &mut state.classes[class_of(buf.capacity())];
        if class.len() < self.max_buffers {
            class.push(buf);
        }
    }

    /// A frozen payload's storage if `bytes` is its last holder (see the
    /// module docs); static storage is counted as a failed reclaim.
    fn reclaim(&self, bytes: Bytes) -> Option<BytesMut> {
        let shared = match bytes.try_into_mut() {
            Ok(sole) => return Some(sole),
            Err(shared) => shared,
        };
        match shared.into_mut_if_last() {
            Ok(last) => last,
            Err(_static) => {
                self.reclaim_failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Retire a frozen payload: its storage is pooled if `bytes` is its
    /// last holder, and left to the other holders otherwise; static
    /// storage is dropped. Every zero-copy sharing guarantee stays intact,
    /// since no buffer comes back while another handle reads it.
    pub fn recycle(&self, bytes: Bytes) {
        if let Some(buf) = self.reclaim(bytes) {
            self.put(buf);
        }
    }

    /// Number of buffers currently pooled (for tests and diagnostics).
    pub fn pooled(&self) -> usize {
        let state = self.state.lock();
        state.classes.iter().map(Vec::len).sum()
    }

    /// Snapshot the efficacy counters (see the struct docs for the
    /// wall-clock-domain caveat). Exact at any instant: the live slots'
    /// hits are summed under the lock a dropped slot folds its count in
    /// under, so a count a rank has published is never missed or doubled.
    pub fn stats(&self) -> PoolStats {
        let state = self.state.lock();
        let slot_hits: u64 = state
            .slots
            .iter()
            .map(|h| h.0.load(Ordering::Relaxed))
            .sum();
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed) + slot_hits,
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
        let alias = frozen.clone();
        pool.recycle(frozen); // aliased: a share, not a failure
        assert_eq!((pool.pooled(), pool.stats().reclaim_failures), (0, 0));
        pool.recycle(alias); // the last holder: reclaimed
        assert_eq!(pool.pooled(), 1);
        pool.recycle(Bytes::from_static(b"never pooled")); // reclaim failure
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.reclaim_failures, 1);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "holders that retire at the same instant are on different threads"
    )]
    fn one_of_many_holders_retiring_at_once_reclaims() {
        // Four threads retire their views of one buffer as close together
        // as a barrier can start them. Each sees the others' handles when
        // it looks, so a retire that reclaimed only as sole owner would
        // often leave the buffer to the allocator; the last holder's
        // release brings it back in every round.
        const HOLDERS: usize = 4;
        let pool = BufferPool::new();
        for round in 0..500 {
            let mut b = pool.get(1024);
            b.resize(1024, round as u8);
            let whole = b.freeze();
            let mut views: Vec<Bytes> = (1..HOLDERS).map(|_| whole.slice(..512)).collect();
            views.push(whole);
            let start = std::sync::Barrier::new(HOLDERS);
            std::thread::scope(|s| {
                for view in views {
                    let (start, pool) = (&start, &pool);
                    s.spawn(move || {
                        start.wait();
                        pool.recycle(view);
                    });
                }
            });
            assert_eq!(pool.pooled(), 1, "round {round}");
        }
        assert_eq!(pool.stats().misses, 1, "one buffer served every round");
        assert_eq!(pool.stats().reclaim_failures, 0);
    }

    #[test]
    fn a_slot_serves_what_the_stacks_would_as_a_hit() {
        let pool = Arc::new(BufferPool::new());
        let mut slot = BufferPool::slot(&pool);
        slot.buf = Some(BytesMut::with_capacity(8192));
        let ptr = slot.buf.as_ref().unwrap().as_ptr();
        // A header would not get an 8 KiB buffer from the stacks: the slot
        // keeps it and the request misses.
        assert!(slot.get(16).capacity() < 8192);
        assert!(slot.buf.is_some());
        let staged = slot.get(8192);
        assert_eq!(staged.as_ptr(), ptr);
        assert!(slot.buf.is_none());
        assert_eq!((pool.stats().hits, pool.stats().misses), (1, 1));
        assert_eq!(pool.pooled(), 0, "the slot never went through the stacks");
    }

    #[test]
    fn a_slot_takes_only_sole_owned_buffers_the_pool_would_keep() {
        let pool = Arc::new(BufferPool::new());
        let mut slot = BufferPool::slot(&pool);
        let frozen = pool.get(64).freeze();
        let alias = frozen.clone();
        slot.recycle(frozen);
        assert!(slot.buf.is_none(), "an aliased payload never enters a slot");
        assert_eq!(pool.stats().reclaim_failures, 0, "a share, not a failure");
        slot.recycle(alias);
        assert!(slot.buf.is_some(), "its last owner's retire fills the slot");
        slot.recycle(pool.get(64).freeze());
        assert_eq!(
            pool.pooled(),
            1,
            "a full slot leaves the next to the stacks"
        );
        drop(slot);
        assert_eq!(pool.pooled(), 2, "a dropped slot's buffer goes back");

        let starved = Arc::new(BufferPool::with_capacity(0));
        let mut slot = BufferPool::slot(&starved);
        slot.recycle(starved.get(64).freeze());
        assert!(
            slot.buf.is_none(),
            "a pool that retains nothing fills no slot"
        );
    }

    #[test]
    fn slot_hits_count_while_the_slot_lives_and_after_it_drops() {
        let pool = Arc::new(BufferPool::new());
        let (mut a, mut b) = (BufferPool::slot(&pool), BufferPool::slot(&pool));
        for _ in 0..3 {
            let wire = a.get(64).freeze();
            a.recycle(wire);
        }
        let wire = b.get(64).freeze();
        b.recycle(wire);
        let _stacked = pool.get(8); // a miss: slot buffers are private
        let live = pool.stats();
        assert_eq!((live.hits, live.misses), (2, 3), "a live slot's hits count");
        drop(a);
        assert_eq!(
            pool.stats(),
            live,
            "a dropped slot's hits are folded in once"
        );
        drop(b);
        assert_eq!(pool.stats(), live);
        assert_eq!(
            pool.state.lock().slots.len(),
            0,
            "dropped slots leave the list"
        );
        assert_eq!(pool.get(64).capacity(), 64, "their buffers went back");
        assert_eq!(pool.stats().hits, 3);
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
