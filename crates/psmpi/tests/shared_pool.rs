//! Universes alive at the same time draw from one buffer pool, the pool
//! dies with the last of them, and a pool handed to
//! `Universe::with_buffer_pool` is shared with no other universe. The
//! checks count draws, so they run as one test: this file is its own
//! process, and no other universe may come and go in the middle.

use hwmodel::presets::deep_er_cluster_node;
use hwmodel::NodeId;
use psmpi::{BufferPool, PoolStats, Universe};
use simnet::{Fabric, Topology};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bytes of the buffer each job draws.
const CAP: usize = 4096;

fn fabric() -> Fabric {
    let mut t = Topology::new();
    t.add_nodes(1, &deep_er_cluster_node());
    Fabric::new(t)
}

/// Run a one-rank job on `u` that draws a `CAP`-byte buffer from its
/// universe's pool and retires it; returns the buffer's address.
fn draw_and_retire(u: &Universe) -> usize {
    let at = Arc::new(AtomicUsize::new(0));
    let at_in = at.clone();
    u.launch(&[NodeId(0)], move |rank| {
        let buf = rank.buffer_pool().get(CAP);
        at_in.store(buf.as_ptr() as usize, Ordering::Relaxed);
        rank.buffer_pool().recycle(buf.freeze());
    });
    at.load(Ordering::Relaxed)
}

/// `(hits, misses)` of `u`'s pool.
fn counts(u: &Universe) -> (u64, u64) {
    let PoolStats { hits, misses, .. } = u.router().buffer_pool().stats();
    (hits, misses)
}

#[test]
fn universes_alive_together_share_one_pool_that_dies_with_the_last() {
    // A buffer a job on A retires is the one a job on B draws while A lives.
    let a = Universe::new(fabric());
    let b = Universe::new(fabric());
    assert!(std::ptr::eq(
        a.router().buffer_pool(),
        b.router().buffer_pool()
    ));
    let retired = draw_and_retire(&a);
    assert_eq!(counts(&a), (0, 1));
    assert_eq!(draw_and_retire(&b), retired, "B draws A's buffer");
    assert_eq!(counts(&b), (1, 1));

    // Once both are gone, so is the pool: a new universe starts cold.
    drop((a, b));
    let c = Universe::new(fabric());
    assert_eq!(c.router().buffer_pool().pooled(), 0);
    draw_and_retire(&c);
    assert_eq!(counts(&c), (0, 1));

    // A pool handed in is this universe's alone: the shared one's buffer
    // does not reach it, and what it retires does not reach the shared one.
    let own = Universe::with_buffer_pool(fabric(), Arc::new(BufferPool::new()));
    let d = Universe::new(fabric());
    assert!(std::ptr::eq(
        c.router().buffer_pool(),
        d.router().buffer_pool()
    ));
    assert!(!std::ptr::eq(
        own.router().buffer_pool(),
        d.router().buffer_pool()
    ));
    draw_and_retire(&own);
    assert_eq!(counts(&own), (0, 1));
    draw_and_retire(&own);
    draw_and_retire(&d);
    assert_eq!(counts(&own), (1, 1));
    assert_eq!(counts(&d), (1, 1));
    assert_eq!(own.router().buffer_pool().pooled(), 1);
    assert_eq!(d.router().buffer_pool().pooled(), 1);
}
