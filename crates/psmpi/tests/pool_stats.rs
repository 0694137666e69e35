//! `BufferPool::stats` is exact in the middle of a job, not only after it:
//! each rank counts its slot's hits on its own cache line and the pool
//! sums the live counts, so a read taken while every rank stands still
//! sees every draw the ranks have made.

use hwmodel::presets::deep_er_cluster_node;
use psmpi::{BufferPool, Universe};
use simnet::{Fabric, Topology};
use std::sync::{Arc, Barrier};

const RANKS: usize = 64;
const ROUNDS: usize = 5;
const TAG_RING: i32 = 5;

#[test]
fn hits_and_misses_add_up_to_the_draws_mid_job_and_after() {
    let pool = Arc::new(BufferPool::new());
    // A host barrier, not `Rank::barrier`: the collective stages messages
    // of its own, whose draws could still be in flight when rank 0 reads.
    let host = Arc::new(Barrier::new(RANKS));
    let mut topology = Topology::new();
    let nodes = topology.add_nodes(RANKS as u32, &deep_er_cluster_node());
    Universe::with_buffer_pool(Fabric::new(topology), pool.clone()).launch(&nodes, move |rank| {
        let (me, n) = (rank.rank(), rank.size());
        let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
        let data = vec![me as f64; 32];
        let mut inbox = vec![0.0f64; 32];
        for round in 1..=ROUNDS {
            // One draw per send; a receive retires, never draws.
            rank.send_slice(next, TAG_RING, &data).unwrap();
            rank.recv_into(Some(prev), Some(TAG_RING), &mut inbox)
                .unwrap();
            assert_eq!(inbox[0], prev as f64);
            host.wait();
            if me == 0 {
                let s = rank.buffer_pool().stats();
                assert_eq!(s.hits + s.misses, (RANKS * round) as u64, "round {round}");
                assert!(s.hits > 0 || round == 1, "slot hits count while ranks live");
            }
            host.wait();
        }
    });
    let s = pool.stats();
    assert_eq!(s.hits + s.misses, (RANKS * ROUNDS) as u64, "after the job");
}
