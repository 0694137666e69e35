//! Tests for the upgraded collective algorithms: pipelined segmented
//! broadcast and recursive-doubling allreduce. Each is checked for value
//! correctness against its simpler counterpart, and the allreduce
//! additionally for bit-identity with the reduce+bcast tree (the property
//! that keeps golden xpic results stable across the algorithm switch) and
//! across ranks, gathered to rank 0.

use bytes::Bytes;
use hwmodel::presets::deep_er_cluster_node;
use psmpi::datatype::{bytes_to_pod, pod_to_bytes};
use psmpi::{BufferPool, Communicator, PoolStats, Rank, ReduceOp, Universe, UniverseBuilder};
use simnet::{Fabric, Topology};
use std::sync::Arc;

fn cluster(n: u32) -> UniverseBuilder {
    UniverseBuilder::new().add_nodes(n, &deep_er_cluster_node())
}

#[test]
fn segmented_bcast_reassembles_exactly() {
    // Forcing a tiny threshold exercises the header + segment-stream
    // protocol on a 5-rank tree (root 2 → intermediate forwarders), with a
    // short final segment (100_000 % 4096 != 0).
    cluster(5).run(|rank| {
        let w = rank.world();
        let me = rank.rank();
        let payload: Option<Bytes> = (me == 2).then(|| {
            let v: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
            Bytes::from(v)
        });
        let got = rank.bcast_bytes_with(&w, 2, payload, 1024, 4096).unwrap();
        assert_eq!(got.len(), 100_000);
        assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
    });
}

#[test]
fn auto_segmented_bcast_kicks_in_above_threshold() {
    // 2 MiB is above BCAST_SEGMENT_THRESHOLD, so the default bcast_bytes
    // path must segment — and still deliver the exact payload.
    cluster(4).run(|rank| {
        let w = rank.world();
        let payload: Option<Bytes> = (rank.rank() == 0).then(|| Bytes::from(vec![0xA5u8; 2 << 20]));
        let got = rank.bcast_bytes(&w, 0, payload).unwrap();
        assert_eq!(got.len(), 2 << 20);
        assert!(got.iter().all(|&b| b == 0xA5));
    });
}

#[test]
fn segmented_bcast_degenerates_on_two_ranks_and_tiny_segments() {
    cluster(2).run(|rank| {
        let w = rank.world();
        let payload: Option<Bytes> = (rank.rank() == 0).then(|| Bytes::from(vec![1u8; 10]));
        let got = rank.bcast_bytes_with(&w, 0, payload, 0, 1).unwrap();
        assert_eq!(&got[..], &[1u8; 10]);
    });
}

/// Values whose sum depends on how it is associated.
fn awkward(me: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((me * 37 + i * 11) as f64 / 97.0).sin() * 1e3 + 0.1)
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every rank's `v`, as bits, gathered to `root` in rank order.
fn gather_bits(rank: &mut Rank, w: &Communicator, root: usize, v: &[f64]) -> Option<Vec<Vec<u64>>> {
    let all = rank.gather_bytes(w, root, pod_to_bytes(v)).unwrap()?;
    Some(
        all.iter()
            .map(|b| bits(&bytes_to_pod(b).unwrap()))
            .collect(),
    )
}

#[test]
fn recursive_doubling_allreduce_is_bit_identical_to_reduce_bcast() {
    // Power-of-two sizes use recursive doubling, folding each partner's
    // block in off the wire. Comparing against the explicit reduce-to-0 +
    // bcast result must match to the bit because both evaluate the same
    // balanced combine tree, and every rank must hold what rank 0 holds.
    for n in [2, 4, 8] {
        cluster(n).run(|rank| {
            let w = rank.world();
            let contribution = awkward(rank.rank(), 33);
            for op in [ReduceOp::Sum, ReduceOp::Max] {
                let fast = rank.allreduce(&w, &contribution, op).unwrap();
                let reference = {
                    let reduced = rank.reduce(&w, 0, &contribution, op).unwrap();
                    rank.bcast(&w, 0, reduced).unwrap()
                };
                assert_eq!(
                    bits(&fast),
                    bits(&reference),
                    "op {op:?} diverged from the tree"
                );
                if let Some(everyone) = gather_bits(rank, &w, 0, &fast) {
                    assert!(everyone.iter().all(|theirs| *theirs == bits(&fast)));
                }
                let scalar = rank.allreduce_scalar(&w, contribution[7], op).unwrap();
                let vector = rank.allreduce(&w, &contribution[7..8], op).unwrap();
                assert_eq!(scalar.to_bits(), vector[0].to_bits());
            }
        });
    }
}

#[test]
fn allreduce_agrees_across_ranks_on_non_power_of_two() {
    // 6 ranks takes the reduce+bcast fallback; every rank must hold the
    // same bits.
    cluster(6).run(|rank| {
        let w = rank.world();
        let me = rank.rank();
        let contribution = vec![(me as f64 + 0.25).exp(), -(me as f64)];
        let mine = rank.allreduce(&w, &contribution, ReduceOp::Sum).unwrap();
        if let Some(all) = gather_bits(rank, &w, 0, &mine) {
            assert_eq!(all.len(), 6);
            assert!(all.iter().all(|other| *other == bits(&mine)));
        }
    });
}

#[test]
fn one_rank_allreduce_hands_back_its_input_and_stages_nothing() {
    // A one-rank world has nothing to combine: both entry points return
    // the contribution's bits, advance no virtual time and draw no
    // staging buffer from the pool.
    let pool = Arc::new(BufferPool::new());
    let mut topology = Topology::new();
    let nodes = topology.add_nodes(1, &deep_er_cluster_node());
    Universe::with_buffer_pool(Fabric::new(topology), pool.clone()).launch(&nodes, |rank| {
        let w = rank.world();
        let contribution = awkward(0, 33);
        let t0 = rank.now();
        for op in [ReduceOp::Sum, ReduceOp::Max] {
            let all = rank.allreduce(&w, &contribution, op).unwrap();
            assert_eq!(bits(&all), bits(&contribution), "op {op:?}");
            let one = rank.allreduce_scalar(&w, contribution[7], op).unwrap();
            assert_eq!(one.to_bits(), contribution[7].to_bits(), "op {op:?}");
        }
        assert_eq!(rank.now(), t0);
    });
    assert_eq!(pool.stats(), PoolStats::default());
}
