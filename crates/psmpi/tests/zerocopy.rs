//! Zero-copy message-path tests: raw `Bytes` payloads share one allocation
//! from sender to receiver (and across collective fan-out), and a
//! self-addressed message bypasses the fabric model entirely; typed
//! payloads stage through a reused buffer pool.

use bytes::Bytes;
use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::{NodeSpec, SimTime};
use psmpi::{
    BufferPool, Communicator, JobReport, Rank, Universe, UniverseBuilder,
    DEFAULT_MAX_POOLED_BUFFERS,
};
use simnet::{Fabric, Topology};
use std::sync::Arc;

fn cluster(n: u32) -> UniverseBuilder {
    UniverseBuilder::new().add_nodes(n, &deep_er_cluster_node())
}

/// One rank on each of `count` nodes of each `(count, spec)`, staging from
/// `pool` alone: the pool that universes alive at once share may hold
/// buffers, and count draws, of other tests' universes.
fn run_on_pool<F>(nodes: &[(u32, NodeSpec)], pool: &Arc<BufferPool>, entry: F) -> JobReport
where
    F: Fn(&mut Rank) + Send + Sync + 'static,
{
    let mut topology = Topology::new();
    let placements: Vec<_> = nodes
        .iter()
        .flat_map(|(count, spec)| topology.add_nodes(*count, spec))
        .collect();
    Universe::with_buffer_pool(Fabric::new(topology), pool.clone()).launch(&placements, entry)
}

/// [`run_on_pool`] over `n` Cluster nodes.
fn cluster_on_pool<F>(n: u32, pool: &Arc<BufferPool>, entry: F) -> JobReport
where
    F: Fn(&mut Rank) + Send + Sync + 'static,
{
    run_on_pool(&[(n, deep_er_cluster_node())], pool, entry)
}

/// Every rank's `addr`, gathered to `root` in rank order.
fn gather_addr(
    rank: &mut Rank,
    w: &Communicator,
    root: usize,
    addr: *const u8,
) -> Option<Vec<u64>> {
    let mine = Bytes::copy_from_slice(&(addr as u64).to_le_bytes());
    let all = rank.gather_bytes(w, root, mine).unwrap()?;
    Some(
        all.iter()
            .map(|b| u64::from_le_bytes(b[..].try_into().unwrap()))
            .collect(),
    )
}

#[test]
fn send_bytes_delivers_senders_allocation() {
    cluster(2).run(|rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            let payload = Bytes::from(vec![7u8; 1 << 16]);
            rank.send_comm(&w, 1, 1, &(payload.as_ptr() as u64))
                .unwrap();
            rank.send_bytes_comm(&w, 1, 2, payload).unwrap();
        } else {
            let (ptr, _) = rank.recv_comm::<u64>(&w, Some(0), Some(1)).unwrap();
            let (got, st) = rank.recv_bytes_comm(&w, Some(0), Some(2)).unwrap();
            assert_eq!(st.bytes, 1 << 16);
            assert_eq!(got.len(), 1 << 16);
            // The received handle points into the sender's buffer: no copy
            // happened anywhere on the path.
            assert_eq!(
                got.as_ptr() as u64,
                ptr,
                "receive must not copy the payload"
            );
        }
    });
}

#[test]
fn bcast_bytes_shares_one_allocation() {
    // Binomial-tree fan-out on 5 ranks has intermediate forwarders; every
    // rank must end up holding the root's allocation, not a copy of it.
    cluster(5).run(|rank| {
        let w = rank.world();
        let me = rank.rank();
        let payload = if me == 2 {
            Some(Bytes::from(vec![9u8; 4096]))
        } else {
            None
        };
        let b = rank.bcast_bytes(&w, 2, payload).unwrap();
        assert_eq!(b.len(), 4096);
        assert!(b.iter().all(|&x| x == 9));
        if let Some(ptrs) = gather_addr(rank, &w, 2, b.as_ptr()) {
            assert!(
                ptrs.iter().all(|&p| p == ptrs[2]),
                "bcast fan-out must forward one shared allocation: {ptrs:?}"
            );
        }
    });
}

#[test]
fn typed_bcast_still_delivers_values() {
    // The typed bcast now rides on bcast_bytes (encode once at root,
    // decode once per rank); semantics must be unchanged.
    cluster(4).run(|rank| {
        let w = rank.world();
        let v = if rank.rank() == 0 {
            rank.bcast(&w, 0, Some(vec![1.5f64, -2.5, 3.0])).unwrap()
        } else {
            rank.bcast::<Vec<f64>>(&w, 0, None).unwrap()
        };
        assert_eq!(v, vec![1.5, -2.5, 3.0]);
    });
}

#[test]
fn typed_bcast_root_keeps_its_value_and_children_return_their_buffers() {
    // 1 MiB + 8 bytes on the wire: above the segmenting threshold, so each
    // of the three non-roots rejoins the segments into one view of the
    // root's encoding, decodes it and retires its view; the root never
    // decodes its own encoding and retires its handle on it. Which holder
    // retires last depends on the interleaving, so what holds under any is
    // the bookkeeping: only the last retire reclaims, no retire is a failed
    // one, and every allocation the job made is back in the pool, the
    // root's encoding included.
    let pool = Arc::new(BufferPool::new());
    cluster_on_pool(4, &pool, |rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            let value = vec![0.25f64; 1 << 17];
            let ptr = value.as_ptr();
            let back = rank.bcast(&w, 0, Some(value)).unwrap();
            assert_eq!(back.as_ptr(), ptr, "the root gets its own allocation back");
        } else {
            let got = rank.bcast::<Vec<f64>>(&w, 0, None).unwrap();
            assert_eq!(got, vec![0.25f64; 1 << 17]);
        }
    });
    let stats = pool.stats();
    assert_eq!(
        stats.reclaim_failures, 0,
        "a retire that is not the last is a share, not a failure: {stats:?}"
    );
    assert_eq!(
        pool.pooled() as u64,
        stats.misses,
        "every allocation is back, the root's encoding too: {stats:?}"
    );
    let wire = (1 << 20) + 8;
    assert!(
        pool.get(wire).capacity() >= wire,
        "the root's encoding is among them"
    );
    assert_eq!(pool.stats().hits, stats.hits + 1);
}

#[test]
fn segmented_bcast_bytes_hands_every_rank_the_roots_allocation() {
    // Above the threshold the payload travels as a stream of slices of the
    // root's one allocation; each receiver rejoins them into one view of
    // it. Segments of 1000 bytes leave a short last one, and rank 2 of the
    // 4-rank tree forwards every segment on to rank 3.
    const LEN: usize = 4096;
    cluster(4).run(|rank| {
        let w = rank.world();
        let payload =
            (rank.rank() == 0).then(|| Bytes::from((0..LEN).map(|i| i as u8).collect::<Vec<u8>>()));
        let got = rank.bcast_bytes_with(&w, 0, payload, 1024, 1000).unwrap();
        assert!(got.iter().copied().eq((0..LEN).map(|i| i as u8)));
        if let Some(ptrs) = gather_addr(rank, &w, 0, got.as_ptr()) {
            assert!(
                ptrs.iter().all(|&p| p == ptrs[0]),
                "every non-root returns a view of the root's payload: {ptrs:?}"
            );
        }
    });
}

#[test]
fn back_to_back_typed_bcasts_miss_only_while_warming_up() {
    // Every buffer of a broadcast is the root's: its encoding and the
    // segmenting header, each encoded once and forwarded by reference. The
    // last holder of each brings it home, where the root's next encode
    // draws it, so the first broadcast allocates both and no later draw
    // allocates, however many follow.
    // A host barrier closes each broadcast: the root's sends complete
    // locally, so without it the root could encode the next one before the
    // last holder retired the previous, and how many buffers that takes is
    // host scheduling, not the pool.
    const RANKS: usize = 4;
    const WARM_UP: usize = 1;
    const BCASTS: usize = WARM_UP + 20;
    let pool = Arc::new(BufferPool::new());
    let host = Arc::new(std::sync::Barrier::new(RANKS));
    cluster_on_pool(RANKS as u32, &pool, move |rank| {
        let w = rank.world();
        let mut warm = None;
        for k in 1..=BCASTS {
            let value = (rank.rank() == 0).then(|| vec![k as f64; 1 << 17]);
            let got = rank.bcast(&w, 0, value).unwrap();
            assert_eq!(got, vec![k as f64; 1 << 17]);
            host.wait();
            if rank.rank() == 0 {
                let misses = rank.buffer_pool().stats().misses;
                if k == WARM_UP {
                    warm = Some(misses);
                }
                if let Some(warm) = warm {
                    assert_eq!(misses, warm, "broadcast {k} allocated");
                }
            }
            host.wait();
        }
    });
    let stats = pool.stats();
    assert_eq!(stats.misses, 2, "the encoding and the header: {stats:?}");
    assert_eq!(stats.reclaim_failures, 0, "{stats:?}");
    assert_eq!(pool.pooled(), 2, "both came home: {stats:?}");
}

#[test]
fn self_send_charges_only_send_overhead() {
    // A rank messaging itself never touches the fabric: the round trip
    // must cost exactly the sender-side injection overhead — no loopback
    // latency, no size-dependent copy time — and hand back the same
    // allocation.
    cluster(1).run(|rank| {
        let w = rank.world();
        let overhead = deep_er_cluster_node().nic_send_overhead;
        // Large enough that modelled loopback time would dwarf the NIC
        // overhead if it were (wrongly) charged.
        let payload = Bytes::from(vec![0u8; 8 << 20]);
        let rounds = 10u32;
        for _ in 0..rounds {
            rank.send_bytes_comm(&w, 0, 7, payload.clone()).unwrap();
            let (v, _) = rank.recv_bytes_comm(&w, Some(0), Some(7)).unwrap();
            assert_eq!(
                v.as_ptr(),
                payload.as_ptr(),
                "self round trip must not copy"
            );
        }
        assert_eq!(
            rank.now(),
            overhead * rounds as f64,
            "self ping-pong must charge send overheads only"
        );
    });
}

#[test]
fn self_send_works_through_typed_api_too() {
    cluster(1).run(|rank| {
        let w = rank.world();
        let overhead = deep_er_cluster_node().nic_send_overhead;
        rank.send_comm(&w, 0, 3, &vec![1.0f64, 2.0]).unwrap();
        let (v, st) = rank.recv_comm::<Vec<f64>>(&w, Some(0), Some(3)).unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
        assert_eq!(st.source, 0);
        assert_eq!(rank.now(), overhead, "no wire time on a self message");
    });
}

#[test]
fn typed_ring_reuses_pooled_buffers_through_the_router() {
    // The in-place typed path stages every send through the rank's slot in
    // front of the universe's buffer pool, and the receiver retires the
    // buffer there after decoding. Pool and slots are host-side only, so
    // the retention bound moves the hit/miss split and never the virtual
    // makespan.
    const RANKS: usize = 80;
    const ROUNDS: usize = 4;
    let delivered = (RANKS * ROUNDS) as u64;
    let ring = |capacity: usize| {
        let pool = Arc::new(BufferPool::with_capacity(capacity));
        let capacity = capacity as u64;
        let half = RANKS as u32 / 2;
        let nodes = [
            (half, deep_er_cluster_node()),
            (half, deep_er_booster_node()),
        ];
        let report = run_on_pool(&nodes, &pool, |rank| {
            let me = rank.rank();
            let (next, prev) = ((me + 1) % RANKS, (me + RANKS - 1) % RANKS);
            let payload = vec![me as f64; 64];
            let mut inbox = vec![0.0f64; 64];
            for _ in 0..ROUNDS {
                // A buffered send completes locally, so send-then-recv
                // cannot deadlock around the ring.
                rank.send_slice(next, 7, &payload).unwrap();
                rank.recv_into(Some(prev), Some(7), &mut inbox).unwrap();
                assert_eq!(inbox[0], prev as f64, "ring payload integrity");
            }
        });
        let stats = pool.stats();
        // Every send stages exactly one buffer (a slot hit is a pool hit).
        assert_eq!(stats.hits + stats.misses, delivered, "{stats:?}");
        // One size class: once every rank has exited, each allocation is
        // back in the pool unless the bound dropped it — none is still
        // held in a slot.
        let pooled = pool.pooled() as u64;
        assert!(pooled <= capacity, "{pooled} pooled over {capacity}");
        assert_eq!(pooled, stats.misses.min(capacity), "{stats:?}");
        (stats, report.makespan())
    };

    let (default, makespan) = ring(DEFAULT_MAX_POOLED_BUFFERS);
    assert!(makespan > SimTime::ZERO);
    assert!(
        default.hits > delivered / 2,
        "steady-state sends must reuse retired buffers: {default:?}"
    );

    // The two deterministic extremes of the retention bound (the in-between
    // is host-scheduling dependent): a pool that retains nothing allocates
    // on every get, its slots included; one sized to the rank count
    // allocates at most once per rank, each rank having at most one send
    // outstanding.
    let (starved, starved_makespan) = ring(0);
    assert_eq!(starved.hits, 0, "nothing retained, nothing reused");
    assert_eq!(starved.misses, delivered);
    let (sized, sized_makespan) = ring(RANKS);
    assert!(
        sized.misses <= RANKS as u64,
        "a rank-count pool allocates at most peak concurrency: {sized:?}"
    );
    assert_eq!(starved_makespan, makespan);
    assert_eq!(sized_makespan, makespan);
}

#[test]
fn aliased_payloads_never_enter_a_rank_slot() {
    // A typed receive retires its wire buffer, but only the last holder's
    // retire reclaims it; an alias held elsewhere — the sender's own
    // handle on a self-send, a bcast sibling's — leaves it alone, so no
    // later staged send can encode over bytes someone still reads.
    // Only raw sends until the last step, so nothing but those retires
    // touches the pool.
    let pool = Arc::new(BufferPool::new());
    cluster_on_pool(3, &pool, |rank| {
        let (w, me) = (rank.world(), rank.rank());
        let mut got = [0.0f64; 64];
        // Self-send alias: this rank keeps a handle on what it sends.
        let held = psmpi::datatype::pod_to_bytes(&[1.0f64; 64]);
        rank.send_bytes_comm(&w, me, 1, held.clone()).unwrap();
        rank.recv_into(Some(me), Some(1), &mut got).unwrap();
        // Bcast sibling alias: each child retires its handle on the root's
        // allocation while the root still holds the payload it sent.
        let shared = rank.bcast_bytes(&w, 0, Some(held.clone())).unwrap();
        if me != 0 {
            rank.send_bytes_comm(&w, me, 2, shared).unwrap();
            rank.recv_into(Some(me), Some(2), &mut got).unwrap();
        }
        // The next staged send finds no buffer to reuse (no rank has exited
        // to give its slot back yet) and encodes into a fresh one; the
        // aliased bytes still read what they were sent with.
        rank.send_slice(me, 3, &[2.0f64; 64]).unwrap();
        rank.recv_into(Some(me), Some(3), &mut got).unwrap();
        assert_eq!(got, [2.0; 64]);
        assert!(held.chunks(8).all(|x| x == 1.0f64.to_le_bytes()));
        // The root holds its payload until both children are through, and
        // nobody exits (giving its slot back) before all three have staged.
        if me == 0 {
            for child in 1..3 {
                rank.recv_bytes_comm(&w, Some(child), Some(4)).unwrap();
            }
            for child in 1..3 {
                rank.send_bytes_comm(&w, child, 5, Bytes::new()).unwrap();
            }
        } else {
            rank.send_bytes_comm(&w, 0, 4, Bytes::new()).unwrap();
            rank.recv_bytes_comm(&w, Some(0), Some(5)).unwrap();
        }
    });
    let stats = pool.stats();
    // Each of the 3 + 2 retires left the buffer to a holder still alive:
    // a share, not a failure.
    assert_eq!(stats.reclaim_failures, 0, "{stats:?}");
    assert_eq!((stats.hits, stats.misses), (0, 3), "{stats:?}");
    assert_eq!(
        pool.pooled(),
        3,
        "the fresh buffers came back through the slots"
    );
}

#[test]
fn stale_bytes_never_reach_the_wire() {
    // A sized draw hands a recycled buffer out with the bytes it last
    // carried, so every byte a typed send puts on the wire must be written
    // by the encoder. Rank 0 sends 1024, 512 and 1024 f64s twice, each
    // round's values its own: first through its slot (rank 1 echoes each
    // payload back and rank 0's typed receive retires it there), then
    // through the pool's stacks (rank 1 recycles each payload and answers
    // with an empty message). Every send after the first reuses a buffer
    // that held another message, longer or shorter.
    const SIZES: [usize; 3] = [1024, 512, 1024];
    let message = |round: usize, n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| (round * 4096 + i) as f64 * 0.5 + 1.0)
            .collect()
    };
    let pool = Arc::new(BufferPool::new());
    cluster_on_pool(2, &pool, move |rank| {
        let w = rank.world();
        for (round, &n) in SIZES.iter().chain(&SIZES).enumerate() {
            let via_slot = round < SIZES.len();
            let sent = message(round, n);
            if rank.rank() == 0 {
                rank.send_slice(1, 1, &sent).unwrap();
                if via_slot {
                    let mut back = vec![0.0; n];
                    rank.recv_into(Some(1), Some(2), &mut back).unwrap();
                    assert_eq!(back, sent, "round {round}: echo");
                } else {
                    rank.recv_bytes_comm(&w, Some(1), Some(2)).unwrap();
                }
            } else {
                let (wire, _) = rank.recv_bytes_comm(&w, Some(0), Some(1)).unwrap();
                let want = psmpi::datatype::pod_to_bytes(&sent);
                assert_eq!(wire.len(), want.len(), "round {round}: length");
                assert_eq!(wire, want, "round {round}: content");
                if via_slot {
                    rank.send_bytes_comm(&w, 0, 2, wire).unwrap();
                } else {
                    rank.buffer_pool().recycle(wire);
                    rank.send_bytes_comm(&w, 0, 2, Bytes::new()).unwrap();
                }
            }
        }
    });
    let stats = pool.stats();
    let staged = 2 * SIZES.len() as u64;
    assert_eq!(
        stats.hits + stats.misses,
        staged,
        "one draw per send: {stats:?}"
    );
    assert_eq!((stats.hits, stats.misses), (staged - 1, 1), "{stats:?}");
}

#[test]
fn a_framed_vec_is_written_over_recycled_buffers_without_stale_bytes() {
    // A typed send of a `Vec<f64>` draws a buffer of exactly its framed
    // length (8-byte count, then the elements) with the bytes it last
    // carried in place, and writes prefix and elements over them. Rank 0
    // sends 1024, 512 and 1024 elements twice, each round's values its own,
    // and rank 1 compares each wire image with the append encoder's
    // (`MpiDatatype::to_bytes`): first through rank 0's slot (rank 1 echoes
    // the payload and rank 0's typed receive retires it there), then
    // through the stacks (rank 1 recycles it and answers empty).
    const SIZES: [usize; 3] = [1024, 512, 1024];
    let message = |round: usize, n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| (round * 4096 + i) as f64 * 0.25 - 3.0)
            .collect()
    };
    let pool = Arc::new(BufferPool::new());
    cluster_on_pool(2, &pool, move |rank| {
        let w = rank.world();
        for (round, &n) in SIZES.iter().chain(&SIZES).enumerate() {
            let via_slot = round < SIZES.len();
            let sent = message(round, n);
            if rank.rank() == 0 {
                rank.send_comm(&w, 1, 1, &sent).unwrap();
                if via_slot {
                    let (back, _) = rank.recv_comm::<Vec<f64>>(&w, Some(1), Some(2)).unwrap();
                    assert_eq!(back, sent, "round {round}: echo");
                } else {
                    rank.recv_bytes_comm(&w, Some(1), Some(2)).unwrap();
                }
            } else {
                let (wire, _) = rank.recv_bytes_comm(&w, Some(0), Some(1)).unwrap();
                let want = psmpi::MpiDatatype::to_bytes(&sent);
                assert_eq!(wire.len(), 8 + 8 * n, "round {round}: length");
                assert_eq!(wire, want, "round {round}: content");
                if via_slot {
                    rank.send_bytes_comm(&w, 0, 2, wire).unwrap();
                } else {
                    rank.buffer_pool().recycle(wire);
                    rank.send_bytes_comm(&w, 0, 2, Bytes::new()).unwrap();
                }
            }
        }
    });
    let stats = pool.stats();
    let staged = 2 * SIZES.len() as u64;
    assert_eq!(
        stats.hits + stats.misses,
        staged,
        "one draw per send: {stats:?}"
    );
    assert!(
        stats.hits >= staged - 2,
        "sends reuse earlier messages' buffers: {stats:?}"
    );
}
