//! Hand-built corrupt frames delivered with `send_bytes_comm`: each typed
//! receive (`recv_comm`, `recv_into`, a `ReduceOp::fold_wire`) rejects its
//! frame with `CodecError`, and the rank's next well-formed receive still
//! succeeds. A typed receive that rejects its frame still gives the
//! frame's buffer back to the pool.
//!
//! The segmented-bcast header is left out: a corrupt one leaves its
//! receivers waiting for segments that never come, which only a watchdog
//! could end.

use bytes::Bytes;
use hwmodel::presets::deep_er_cluster_node;
use psmpi::{BufferPool, MpiError, MpiRequest, ReduceOp, Universe, UniverseBuilder};
use simnet::{Fabric, Topology};
use std::sync::Arc;

fn frame(parts: &[&[u8]]) -> Bytes {
    Bytes::from(parts.concat())
}

fn is_codec<T>(r: &Result<T, MpiError>) -> bool {
    matches!(r, Err(MpiError::Codec(_)))
}

#[test]
fn a_corrupt_frame_is_a_codec_error_and_the_next_receive_succeeds() {
    UniverseBuilder::new()
        .add_nodes(2, &deep_er_cluster_node())
        .run(|rank| {
            let w = rank.world();
            if rank.rank() == 0 {
                // A `Vec<f64>` whose length prefix runs past the payload.
                let past = frame(&[&4u64.to_le_bytes(), &[0; 16]]);
                rank.send_bytes_comm(&w, 1, 1, past).unwrap();
                rank.send_comm(&w, 1, 1, &vec![1.0f64, 2.0]).unwrap();
                // A length prefix whose byte count `n * 8` overflows.
                let overflow = frame(&[&(u64::MAX / 4).to_le_bytes(), &[0; 8]]);
                rank.send_bytes_comm(&w, 1, 2, overflow).unwrap();
                rank.send_comm(&w, 1, 2, &vec![3.0f64]).unwrap();
                // Four bytes for a 16-byte `(u64, u64)`.
                rank.send_bytes_comm(&w, 1, 3, Bytes::from(vec![0u8; 4]))
                    .unwrap();
                rank.send_comm(&w, 1, 3, &(5u64, 6u64)).unwrap();
                // Three `f64`s for a four-element in-place receive.
                rank.send_bytes_comm(&w, 1, 4, Bytes::from(vec![0u8; 24]))
                    .unwrap();
                rank.send_slice(1, 4, &[7.0f64; 4]).unwrap();
                // A 12-byte block for a two-element reduction.
                rank.send_bytes_comm(&w, 1, 5, Bytes::from(vec![0u8; 12]))
                    .unwrap();
                rank.send_slice(1, 5, &[1.0f64, 2.0]).unwrap();
                return;
            }
            let src = Some(0);
            assert!(is_codec(&rank.recv_comm::<Vec<f64>>(&w, src, Some(1))));
            let (v, _) = rank.recv_comm::<Vec<f64>>(&w, src, Some(1)).unwrap();
            assert_eq!(v, [1.0, 2.0]);

            assert!(is_codec(&rank.recv_comm::<Vec<f64>>(&w, src, Some(2))));
            let (v, _) = rank.recv_comm::<Vec<f64>>(&w, src, Some(2)).unwrap();
            assert_eq!(v, [3.0]);

            assert!(is_codec(&rank.recv_comm::<(u64, u64)>(&w, src, Some(3))));
            let (pair, _) = rank.recv_comm::<(u64, u64)>(&w, src, Some(3)).unwrap();
            assert_eq!(pair, (5, 6));

            let mut out = [0.0f64; 4];
            assert!(is_codec(&rank.recv_into(src, Some(4), &mut out)));
            rank.recv_into(src, Some(4), &mut out).unwrap();
            assert_eq!(out, [7.0; 4]);

            let mut acc = [10.0f64, 20.0];
            let (block, _) = rank.recv_bytes_comm(&w, src, Some(5)).unwrap();
            let folded = ReduceOp::Sum.fold_wire(&mut acc, &block, true);
            assert!(is_codec(&folded.map_err(MpiError::from)));
            assert_eq!(acc, [10.0, 20.0], "a rejected block leaves acc untouched");
            let (block, _) = rank.recv_bytes_comm(&w, src, Some(5)).unwrap();
            ReduceOp::Sum.fold_wire(&mut acc, &block, true).unwrap();
            assert_eq!(acc, [11.0, 22.0]);
        });
}

#[test]
fn a_rejected_frame_still_returns_its_buffer() {
    // Rank 0 only sends raw frames, so it never draws from the pool, and
    // rank 1 fills its slot first: every buffer a rejecting receive retires
    // then lands in the pool's stacks, where `pooled()` counts it.
    let pool = Arc::new(BufferPool::new());
    let mut topology = Topology::new();
    let nodes = topology.add_nodes(2, &deep_er_cluster_node());
    Universe::with_buffer_pool(Fabric::new(topology), pool.clone()).launch(&nodes, |rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            let frames = [
                frame(&[&4u64.to_le_bytes(), &[0; 16]]),
                frame(&[&(u64::MAX / 4).to_le_bytes(), &[0; 8]]),
                Bytes::from(vec![0u8; 4]),
                Bytes::from(vec![0u8; 24]),
                Bytes::from(vec![0u8; 40]),
                // A prefix that cannot even be read, and one claiming
                // 2^40 `f64`s (8 TiB) in front of two.
                Bytes::from(vec![7u8; 5]),
                frame(&[&(1u64 << 40).to_le_bytes(), &[0; 16]]),
            ];
            for (tag, f) in (1..).zip(frames) {
                rank.send_bytes_comm(&w, 1, tag, f).unwrap();
            }
            return;
        }
        rank.send_comm(&w, 1, 0, &0u64).unwrap();
        rank.recv_comm::<u64>(&w, Some(1), Some(0)).unwrap();
        let mut pooled = rank.buffer_pool().pooled();
        let mut returned = |rank: &mut psmpi::Rank, rejected: bool, what: &str| {
            assert!(rejected, "{what}: rejected");
            pooled += 1;
            assert_eq!(rank.buffer_pool().pooled(), pooled, "{what}: buffer back");
        };
        let src = Some(0);
        let r = rank.recv_comm::<Vec<f64>>(&w, src, Some(1));
        returned(rank, is_codec(&r), "recv_comm, prefix past the end");
        let r = rank.recv_comm::<Vec<f64>>(&w, src, Some(2));
        returned(rank, is_codec(&r), "recv_comm, overflowing prefix");
        let r = rank.recv_comm::<(u64, u64)>(&w, src, Some(3));
        returned(rank, is_codec(&r), "recv_comm, short pair");
        let mut out = [0.0f64; 4];
        let r = rank.recv_into(src, Some(4), &mut out);
        returned(rank, is_codec(&r), "recv_into, three elements for four");
        let r = rank
            .irecv_into(src, Some(5), &mut out)
            .and_then(|req| req.wait(rank));
        returned(rank, is_codec(&r), "irecv_into, five elements for four");
        let r = rank.recv_comm::<Vec<f64>>(&w, src, Some(6));
        returned(rank, is_codec(&r), "recv_comm, unreadable prefix");
        let r = rank.recv_comm::<Vec<f64>>(&w, src, Some(7));
        returned(rank, is_codec(&r), "recv_comm, prefix claiming 8 TiB");
    });
    assert_eq!(pool.stats().reclaim_failures, 0);
}
