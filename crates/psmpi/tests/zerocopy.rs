//! Zero-copy message-path tests: raw `Bytes` payloads share one allocation
//! from sender to receiver (and across collective fan-out), and a
//! self-addressed message bypasses the fabric model entirely; typed
//! payloads stage through a reused buffer pool.

use bytes::Bytes;
use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::SimTime;
use psmpi::{BufferPool, UniverseBuilder};
use std::sync::Arc;

fn cluster(n: u32) -> UniverseBuilder {
    UniverseBuilder::new().add_nodes(n, &deep_er_cluster_node())
}

#[test]
fn send_bytes_delivers_senders_allocation() {
    cluster(2).run(|rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            let payload = Bytes::from(vec![7u8; 1 << 16]);
            rank.send(1, 1, &(payload.as_ptr() as u64)).unwrap();
            rank.send_bytes_comm(&w, 1, 2, payload).unwrap();
        } else {
            let (ptr, _) = rank.recv::<u64>(Some(0), Some(1)).unwrap();
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
        let ptrs = rank.gather(&w, 2, &(b.as_ptr() as u64)).unwrap();
        if let Some(ptrs) = ptrs {
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
    // of the three non-roots reassembles into a pooled buffer, decodes it
    // and hands it back; the root never decodes its own encoding.
    let pool = Arc::new(BufferPool::new());
    cluster(4).buffer_pool(pool.clone()).run(|rank| {
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
    let wire = (1 << 20) + 8;
    let before = pool.stats().hits;
    let reassembly: Vec<_> = (0..3).map(|_| pool.get(wire)).collect();
    assert!(reassembly.iter().all(|b| b.capacity() >= wire));
    assert_eq!(
        pool.stats().hits - before,
        3,
        "the job left three reassembly buffers in the pool"
    );
}

#[test]
fn self_send_charges_only_send_overhead() {
    // A rank messaging itself never touches the fabric: the round trip
    // must cost exactly the sender-side injection overhead — no loopback
    // latency, no size-dependent copy time — and hand back the same
    // allocation.
    cluster(1).run(|rank| {
        let w = rank.world();
        let overhead = rank.node().nic_send_overhead;
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
        let overhead = rank.node().nic_send_overhead;
        rank.send(0, 3, &vec![1.0f64, 2.0]).unwrap();
        let (v, st) = rank.recv::<Vec<f64>>(Some(0), Some(3)).unwrap();
        assert_eq!(v, vec![1.0, 2.0]);
        assert_eq!(st.source, 0);
        assert_eq!(rank.now(), overhead, "no wire time on a self message");
    });
}

#[test]
fn self_probe_reports_zero_transfer() {
    cluster(1).run(|rank| {
        let w = rank.world();
        rank.send(0, 4, &vec![1u8, 2, 3]).unwrap();
        let sent_at = rank.now();
        let st = rank.probe(&w, Some(0), Some(4)).unwrap();
        assert!(
            st.arrival <= sent_at,
            "self message is available at its send stamp"
        );
        let _ = rank.recv::<Vec<u8>>(Some(0), Some(4)).unwrap();
    });
}

#[test]
fn typed_ring_reuses_pooled_buffers_through_the_router() {
    // The in-place typed path stages every send through the universe's
    // buffer pool and the receiver recycles it after decoding. The pool is
    // host-side only, so its retention bound moves the hit/miss split and
    // never the virtual makespan.
    const RANKS: usize = 80;
    const ROUNDS: usize = 4;
    let ring = |pool: BufferPool| {
        let pool = Arc::new(pool);
        let report = UniverseBuilder::new()
            .add_nodes(RANKS as u32 / 2, &deep_er_cluster_node())
            .add_nodes(RANKS as u32 / 2, &deep_er_booster_node())
            .buffer_pool(pool.clone())
            .run(|rank| {
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
        (pool.stats(), report.makespan())
    };
    let delivered = (RANKS * ROUNDS) as u64;

    let (default, makespan) = ring(BufferPool::new());
    assert!(makespan > SimTime::ZERO);
    assert_eq!(
        default.hits + default.misses,
        delivered,
        "every send stages exactly one buffer through the pool: {default:?}"
    );
    assert!(
        default.hits > delivered / 2,
        "steady-state sends must reuse retired buffers: {default:?}"
    );

    // The two deterministic extremes of the retention bound (the in-between
    // is host-scheduling dependent): a pool that retains nothing allocates
    // on every get; one sized to the rank count allocates at most once per
    // rank, each rank having at most one send outstanding.
    let (starved, starved_makespan) = ring(BufferPool::with_capacity(0));
    assert_eq!(starved.hits, 0, "nothing retained, nothing reused");
    assert_eq!(starved.misses, delivered);
    let (sized, sized_makespan) = ring(BufferPool::with_capacity(RANKS));
    assert_eq!(sized.hits + sized.misses, delivered);
    assert!(
        sized.misses <= RANKS as u64,
        "a rank-count pool allocates at most peak concurrency: {sized:?}"
    );
    assert_eq!(starved_makespan, makespan);
    assert_eq!(sized_makespan, makespan);
}
