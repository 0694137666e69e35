//! The world shortcuts (`send_slice`, `recv_into`, `isend_slice`,
//! `irecv_into`: the slice calls the ring and bulk exchanges drive) resolve
//! their address while borrowing the world instead of cloning it; they
//! must answer exactly as the `_comm` forms do on `rank.world()`, usage
//! errors and buffer reuse included.

use bytes::Bytes;
use hwmodel::presets::deep_er_cluster_node;
use psmpi::{BufferPool, MpiError, Universe, UniverseBuilder};
use simnet::{Fabric, Topology};
use std::sync::Arc;

/// `(rank, size)` of the `InvalidRank` error `r` must be.
fn invalid_rank<T>(r: Result<T, MpiError>) -> (usize, usize) {
    match r {
        Err(MpiError::InvalidRank { rank, size }) => (rank, size),
        Err(other) => panic!("expected InvalidRank, got {other}"),
        Ok(_) => panic!("expected InvalidRank, the call succeeded"),
    }
}

#[test]
fn an_out_of_range_rank_is_the_error_the_world_comm_gives() {
    UniverseBuilder::new()
        .add_nodes(3, &deep_er_cluster_node())
        .run(|rank| {
            let w = rank.world();
            let bad = 3 + rank.rank();
            let data = [1.5f64; 4];
            let mut out = [0.0f64; 4];
            let comm = [
                invalid_rank(rank.send_comm(&w, bad, 1, &7u64)),
                invalid_rank(rank.send_slice_comm(&w, bad, 1, &data)),
                invalid_rank(rank.isend_bytes_comm(&w, bad, 1, Bytes::from(vec![0u8; 32]))),
                invalid_rank(rank.recv_comm::<u64>(&w, Some(bad), Some(1))),
                invalid_rank(rank.irecv_bytes_comm(&w, Some(bad), Some(1))),
            ];
            let world = [
                invalid_rank(rank.send_slice(bad, 1, &data)),
                invalid_rank(rank.isend_slice(bad, 1, &data)),
                invalid_rank(rank.recv_into(Some(bad), Some(1), &mut out)),
                invalid_rank(rank.irecv_into(Some(bad), Some(1), &mut out)),
            ];
            assert_eq!(comm, [(bad, 3); 5]);
            assert_eq!(world, [(bad, 3); 4]);
        });
}

#[test]
fn a_failed_send_slice_retires_its_buffer_for_the_next() {
    // A private pool: the shared one may hold a buffer another test's
    // universe retired, and the first send here must miss.
    let mut topology = Topology::new();
    let nodes = topology.add_nodes(2, &deep_er_cluster_node());
    Universe::with_buffer_pool(Fabric::new(topology), Arc::new(BufferPool::new())).launch(
        &nodes,
        |rank| {
            let data = [2.5f64; 16];
            if rank.rank() == 1 {
                let mut inbox = [0.0f64; 16];
                rank.recv_into(Some(0), Some(2), &mut inbox).unwrap();
                assert_eq!(inbox, data);
                return;
            }
            let before = rank.buffer_pool().stats();
            invalid_rank(rank.send_slice(2, 2, &data));
            let failed = rank.buffer_pool().stats();
            assert_eq!(
                (failed.hits - before.hits, failed.misses - before.misses),
                (0, 1),
                "the failed send staged its buffer first"
            );
            rank.send_slice(1, 2, &data).unwrap();
            let sent = rank.buffer_pool().stats();
            assert_eq!(
                (sent.hits - failed.hits, sent.misses - failed.misses),
                (1, 0),
                "the next send reuses the buffer the failed one retired"
            );
        },
    );
}
