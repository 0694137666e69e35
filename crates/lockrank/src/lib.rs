//! Ranked locks: a lock's place in the workspace's one lock order is part
//! of its type, and every acquisition in a debug build checks it.
//!
//! [`Mutex<T, RANK>`](Mutex) and [`RwLock<T, RANK>`](RwLock) wrap the
//! `std::sync` locks. In a debug build (every `cargo test`),
//! each `lock`, `read` and `write` panics unless `RANK` is above every
//! rank the calling thread already holds, and the message names both
//! acquisition sites. [`assert_unlocked`] panics if the thread holds any
//! ranked lock; it guards the one place a rank waits for a message. A
//! release build keeps no thread-local list and passes no caller
//! location: each method is the `std::sync` call it wraps.
//!
//! Poisoning is swallowed: a thread that panics while holding a lock (a
//! lock-order panic included) does not poison it for every later caller,
//! and `lock`, `read` and `write` return their guards directly.
//!
//! # The rank rule
//!
//! Ranks are global. A crate's locks rank above the locks of every crate
//! that calls into it while holding a lock, and inside a crate a lock
//! taken under another ranks above it. Two locks that are never held
//! together may share a rank; one lock taken twice (re-entrance), or two
//! locks of one rank held together (two shards of one array, two pools of
//! one type), panic. The bands:
//!
//! | band | crate | locks (rank) |
//! |---|---|---|
//! | 100 | `xpic`, `ompss` | run accumulators `Acc`, `ResilientReport`, restored-blob slots; ompss's per-device `Side` slots (100) < xpic's plasma memo `PLASMA` (110) |
//! | 200 | `core` | `ResourceManager`'s `Pools` (200) |
//! | 300 | `scr` | manager `state` (300) |
//! | 400 | `psmpi` | mailbox `state` (410) < `endpoints` shards (420) < `dead_nodes` (430) < `repairs` (432) < `obs` (442) < `child_handles` (444) < `outcomes` (446) < shared-pool registry `SHARED_POOL` (448) < pool `state` (450) < ping-pong results (470) |
//! | 500 | `sionio`, `simnet` | `FsState` (510) < `NamState` (540) < fabric `faults` (550) |
//! | 600 | `obs` | `endpoints` (610) < `tracks` (620) < `TrackBuf` (630) |
//! | 900 | tests | result collectors (900) |
//!
//! `scr` holds its `state` while it writes the NAM and the file system,
//! and `psmpi` holds a mailbox `state` while a receive checks the dead
//! set; every such edge the workspace tests take is listed in DESIGN.md
//! §3.8.
//!
//! A lock whose type names no rank does not compile, because `RANK`
//! cannot be inferred:
//!
//! ```compile_fail
//! let m = lockrank::Mutex::new(0u32);
//! *m.lock() += 1;
//! ```
//!
//! The root `clippy.toml` bans the unranked `std::sync` locks everywhere
//! but here.
#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "the ranked locks are built on the unranked std::sync ones"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

#[cfg(debug_assertions)]
mod held {
    //! The ranks the current thread holds, with where it took each.

    use std::cell::RefCell;
    use std::panic::Location;

    struct Entry {
        rank: u16,
        what: &'static str,
        site: &'static Location<'static>,
    }

    thread_local! {
        /// Strictly ascending by rank: [`enter`] admits only a rank above
        /// the last, so each rank appears at most once.
        static HELD: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
    }

    /// Admit the caller's acquisition of a `T` lock of `rank`, or panic
    /// naming both sites; the returned token leaves the list when dropped.
    #[track_caller]
    pub(crate) fn enter<T: ?Sized>(rank: u16) -> Token {
        let (what, site) = (std::any::type_name::<T>(), Location::caller());
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(top) = held.last().filter(|top| top.rank >= rank) {
                let (what_top, rank_top, site_top) = (top.what, top.rank, top.site);
                drop(held);
                panic!(
                    "lock order: {what} (rank {rank}) acquired at {site} while this thread \
                     holds {what_top} (rank {rank_top}) acquired at {site_top}; ranks must \
                     strictly increase"
                );
            }
            held.push(Entry { rank, what, site });
        });
        Token { rank }
    }

    /// Panic, naming the caller and the innermost held lock, if any is
    /// held.
    #[track_caller]
    pub(crate) fn none() {
        let site = Location::caller();
        HELD.with(|held| {
            let held = held.borrow();
            if let Some(top) = held.last() {
                let (what, rank, at) = (top.what, top.rank, top.site);
                drop(held);
                panic!(
                    "lock order: blocking wait at {site} while this thread holds {what} \
                     (rank {rank}) acquired at {at}"
                );
            }
        });
    }

    /// One held rank; guards drop in any order.
    pub(crate) struct Token {
        rank: u16,
    }

    impl Drop for Token {
        fn drop(&mut self) {
            // `try_with`: a guard may outlive the list during thread exit.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(i) = held.iter().rposition(|e| e.rank == self.rank) {
                    held.remove(i);
                }
            });
        }
    }
}

/// Panic if this thread holds any ranked lock. Goes where a thread may
/// wait on another (a receive), so that no lock is held across the wait.
/// A no-op in release builds.
#[cfg_attr(debug_assertions, track_caller)]
#[inline]
pub fn assert_unlocked() {
    #[cfg(debug_assertions)]
    held::none();
}

/// A mutex of rank `RANK` in the workspace lock order.
#[derive(Default)]
pub struct Mutex<T: ?Sized, const RANK: u16> {
    inner: sync::Mutex<T>,
}

/// Guard of a [`Mutex`]; dropping it leaves the held-rank list. The std
/// guard sits in an `Option` so that [`Condvar::wait`] can hand it to the
/// std condvar and put it back.
pub struct MutexGuard<'a, T: ?Sized, const RANK: u16> {
    inner: Option<sync::MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    _held: held::Token,
}

impl<T, const RANK: u16> Mutex<T, RANK> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized, const RANK: u16> Mutex<T, RANK> {
    /// Acquire the lock, blocking until it is free; in a debug build,
    /// panic first unless `RANK` is above every rank this thread holds.
    #[cfg_attr(debug_assertions, track_caller)]
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T, RANK> {
        #[cfg(debug_assertions)]
        let token = held::enter::<T>(RANK);
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            #[cfg(debug_assertions)]
            _held: token,
        }
    }
}

impl<T: ?Sized + fmt::Debug, const RANK: u16> fmt::Debug for Mutex<T, RANK> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized, const RANK: u16> Deref for MutexGuard<'_, T, RANK> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard active")
    }
}

impl<T: ?Sized, const RANK: u16> DerefMut for MutexGuard<'_, T, RANK> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard active")
    }
}

/// A condition variable that waits on a ranked [`MutexGuard`]. The guard
/// keeps its rank while the thread sleeps: it holds the lock again
/// whenever it runs.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Release the guarded lock, block until notified, and re-acquire it.
    #[inline]
    pub fn wait<T, const RANK: u16>(&self, guard: &mut MutexGuard<'_, T, RANK>) {
        let held = guard.inner.take().expect("guard active");
        let held = self
            .inner
            .wait(held)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(held);
    }

    /// Wake every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A reader-writer lock of rank `RANK` in the workspace lock order. A
/// read guard counts as holding the rank, like a write guard.
#[derive(Default)]
pub struct RwLock<T: ?Sized, const RANK: u16> {
    inner: sync::RwLock<T>,
}

/// Shared guard of an [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized, const RANK: u16> {
    inner: sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: held::Token,
}

/// Exclusive guard of an [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized, const RANK: u16> {
    inner: sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: held::Token,
}

impl<T, const RANK: u16> RwLock<T, RANK> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized, const RANK: u16> RwLock<T, RANK> {
    /// Acquire a shared guard, checked like [`Mutex::lock`].
    #[cfg_attr(debug_assertions, track_caller)]
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T, RANK> {
        #[cfg(debug_assertions)]
        let token = held::enter::<T>(RANK);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: token,
        }
    }

    /// Acquire the exclusive guard, checked like [`Mutex::lock`].
    #[cfg_attr(debug_assertions, track_caller)]
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T, RANK> {
        #[cfg(debug_assertions)]
        let token = held::enter::<T>(RANK);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: token,
        }
    }
}

impl<T: ?Sized + fmt::Debug, const RANK: u16> fmt::Debug for RwLock<T, RANK> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized, const RANK: u16> Deref for RwLockReadGuard<'_, T, RANK> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized, const RANK: u16> Deref for RwLockWriteGuard<'_, T, RANK> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized, const RANK: u16> DerefMut for RwLockWriteGuard<'_, T, RANK> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The panic message of `f`, which must panic.
    fn panic_of(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a lock-order panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("a formatted panic message")
    }

    fn site(line: u32) -> String {
        format!("{}:{line}:", file!())
    }

    #[test]
    fn an_ascending_chain_passes() {
        let (a, b, c) = (
            Mutex::<u8, 1>::new(0),
            RwLock::<u8, 2>::new(0),
            Mutex::<u8, 3>::new(0),
        );
        let _a = a.lock();
        let _b = b.read();
        let _c = c.lock();
    }

    #[test]
    fn a_descending_chain_panics_naming_both_sites() {
        let (outer, inner) = (Mutex::<u8, 20>::new(0), RwLock::<u8, 10>::new(0));
        let (_g, held_at) = (outer.lock(), line!());
        let msg = panic_of(|| drop(inner.write()));
        assert!(msg.contains(&site(held_at)), "the held site: {msg}");
        assert!(
            msg.contains(&site(held_at + 1)),
            "the acquiring site: {msg}"
        );
        assert!(
            msg.contains("(rank 10)") && msg.contains("(rank 20)"),
            "{msg}"
        );
    }

    #[test]
    fn an_equal_rank_panics_for_reentrance_and_for_two_locks() {
        let m = Mutex::<u8, 5>::new(0);
        let (_g, held_at) = (m.lock(), line!());
        let msg = panic_of(|| drop(m.lock()));
        assert!(msg.contains(&site(held_at)), "{msg}");
        assert!(msg.contains(&site(held_at + 1)), "{msg}");
        let shards = [RwLock::<u8, 7>::new(0), RwLock::<u8, 7>::new(0)];
        let _s = shards[0].read();
        let msg = panic_of(|| drop(shards[1].read()));
        assert!(msg.contains("(rank 7)"), "{msg}");
    }

    #[test]
    fn assert_unlocked_panics_under_a_guard() {
        assert_unlocked();
        let m = Mutex::<u8, 5>::new(0);
        let (g, held_at) = (m.lock(), line!());
        let msg = panic_of(assert_unlocked);
        assert!(msg.contains(&site(held_at)), "{msg}");
        assert!(msg.contains("blocking wait"), "{msg}");
        drop(g);
        assert_unlocked();
    }

    #[test]
    fn a_panicked_holder_does_not_poison_the_lock() {
        let (m, l) = (Mutex::<u8, 1>::new(0), RwLock::<u8, 2>::new(0));
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let (_m, _l) = (m.lock(), l.write());
            panic!("holder dies");
        }));
        *m.lock() += 1;
        *l.write() += 1;
        assert_eq!(*l.read(), 1);
        assert_eq!(m.into_inner(), 1);
        assert_unlocked();
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a wait/notify test needs a second real thread"
    )]
    fn condvar_wait_keeps_the_guard_and_its_rank() {
        let pair = std::sync::Arc::new((Mutex::<bool, 3>::new(false), Condvar::default()));
        let other = std::sync::Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*other;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        // The woken guard still holds rank 3.
        let lower = Mutex::<u8, 2>::new(0);
        let msg = panic_of(|| drop(lower.lock()));
        assert!(msg.contains("(rank 3)"), "{msg}");
        drop(done);
        h.join().expect("the notifier finishes");
    }

    #[test]
    fn an_out_of_order_drop_keeps_the_list_right() {
        let (a, b, c) = (
            Mutex::<u8, 1>::new(0),
            Mutex::<u8, 2>::new(0),
            Mutex::<u8, 3>::new(0),
        );
        let ga = a.lock();
        let (gb, b_at) = (b.lock(), line!());
        drop(ga);
        // Rank 2 is still held, so rank 1 is refused naming b's site...
        let msg = panic_of(|| drop(a.lock()));
        assert!(msg.contains(&site(b_at)), "{msg}");
        // ...and rank 3 is admitted above it.
        drop(c.lock());
        drop(gb);
        drop(a.lock());
        assert_unlocked();
    }
}
