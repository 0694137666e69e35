//! Tests for the upgraded collective algorithms: pipelined segmented
//! broadcast, recursive-doubling allreduce, and the ring allgather. Each is
//! checked for value correctness against its simpler counterpart, and the
//! allreduce additionally for bit-identity with the reduce+bcast tree (the
//! property that keeps golden xpic results stable across the algorithm
//! switch).

use bytes::Bytes;
use hwmodel::presets::deep_er_cluster_node;
use psmpi::{ReduceOp, UniverseBuilder};

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
            for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
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
                let everyone = rank.allgather(&w, &fast).unwrap();
                assert!(everyone.iter().all(|theirs| bits(theirs) == bits(&fast)));
                let scalar = rank.allreduce_scalar(&w, contribution[7], op).unwrap();
                let vector = rank.allreduce(&w, &contribution[7..8], op).unwrap();
                assert_eq!(scalar.to_bits(), vector[0].to_bits());
            }
        });
    }
}

#[test]
fn scan_and_reduce_scatter_bits_are_pinned_across_commits() {
    // Recorded at the commit before the fused receive-and-reduce: the
    // operand order of every hop (running prefix on the left in `scan`,
    // lower-rank partial on the left in recursive halving) is in these bits.
    const SCAN: [[u64; 3]; 4] = [
        [
            4591870180066957722,
            4637670321733122725,
            4642119256419910331,
        ],
        [
            4645260009252916018,
            4648385559119391977,
            4650217257571335522,
        ],
        [
            4652392451515660102,
            4653681749024055022,
            4654894410750480588,
        ],
        [
            4656397018501358366,
            4657294239929510646,
            4657963769233049758,
        ],
    ];
    const REDUCE_SCATTER: [[u64; 2]; 4] = [
        [4656397018501358366, 4657294239929510646],
        [4657963769233049758, 4658559503569790765],
        [4659073789986410006, 4659500021830078116],
        [4659832723619186141, 4660067621382761261],
    ];
    cluster(4).run(|rank| {
        let w = rank.world();
        let me = rank.rank();
        let prefix = rank.scan(&w, &awkward(me, 3), ReduceOp::Sum).unwrap();
        let block = rank
            .reduce_scatter_block(&w, &awkward(me, 8), ReduceOp::Sum)
            .unwrap();
        assert_eq!(bits(&prefix), SCAN[me], "scan on rank {me}");
        assert_eq!(
            bits(&block),
            REDUCE_SCATTER[me],
            "reduce_scatter_block on rank {me}"
        );
    });
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
        let all = rank.allgather(&w, &mine).unwrap();
        for other in &all {
            assert_eq!(
                other.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                mine.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    });
}

#[test]
fn ring_allgather_returns_rank_order() {
    cluster(5).run(|rank| {
        let w = rank.world();
        let me = rank.rank();
        let mine: Vec<u64> = vec![me as u64; me + 1]; // ragged blocks are fine
        let all = rank.allgather(&w, &mine).unwrap();
        assert_eq!(all.len(), 5);
        for (r, block) in all.iter().enumerate() {
            assert_eq!(block, &vec![r as u64; r + 1], "block {r} out of place");
        }
    });
}
