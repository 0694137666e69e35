//! Property test for the one checkpoint path.
//!
//! A staged checkpoint whose drain was realized and promoted
//! (`checkpoint_async` + `finish_drain`) is indistinguishable from the
//! blocking `checkpoint` at the same id: same protection level, same
//! restartable state, same restore cost — before and after a node failure,
//! on homogeneous, mixed Cluster/Booster and NAM-backed managers.

use bytes::Bytes;
use hwmodel::NodeId;
use proptest::prelude::*;
use scr::{CheckpointLevel, NamBuddy, Payload, ScrConfig, ScrManager};
use sionio::ParallelFs;
use std::sync::Arc;

/// `backing` 0: Booster nodes only. 1: alternating Cluster/Booster specs,
/// so the slowest-pair buddy cost is in play. 2: Booster nodes with the
/// buddy level on a NAM device.
fn manager(ranks: usize, backing: u8) -> ScrManager {
    let cn = Arc::new(hwmodel::presets::deep_er_cluster_node());
    let bn = Arc::new(hwmodel::presets::deep_er_booster_node());
    let specs: Vec<_> = (0..ranks)
        .map(|r| {
            if backing == 1 && r % 2 == 0 {
                cn.clone()
            } else {
                bn.clone()
            }
        })
        .collect();
    let nam = (backing == 2).then(|| NamBuddy {
        index: 0,
        device: simnet::nam::NamDevice::deep_er(),
    });
    ScrManager::new(
        ScrConfig { nam },
        (0..ranks as u32).map(NodeId).collect(),
        specs,
        ParallelFs::deep_er(),
    )
}

fn blobs(ranks: usize, seed: u64, len: usize) -> Vec<Vec<u8>> {
    (0..ranks)
        .map(|r| {
            (0..len)
                .map(|i| (seed as usize + r * 31 + i * 7) as u8)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn staged_then_promoted_equals_blocking(
        ranks in 2usize..7,
        backing in 0u8..3,
        level_pick in 0u8..2,
        seed in 0u64..1000,
        len in 64usize..2048,
        kill in prop::option::of(0usize..7),
    ) {
        let level = if level_pick == 0 {
            CheckpointLevel::Buddy
        } else {
            CheckpointLevel::Global
        };
        let data = blobs(ranks, seed, len);
        let sync = manager(ranks, backing);
        let asn = manager(ranks, backing);

        let sync_cost = sync.checkpoint(9, level, &data).unwrap();
        let shared: Vec<Bytes> = data.iter().cloned().map(Bytes::from).collect();
        let pending = asn.checkpoint_async(9, level, Payload::Blobs(&shared)).unwrap();
        // The stage prices the blocking checkpoint in one piece, and the
        // local stage plus the drain rebuild it up to rounding.
        prop_assert_eq!(pending.full_cost, sync_cost);
        prop_assert!(pending.local_cost <= sync_cost);
        let rebuilt = (pending.local_cost + pending.drain()).as_secs();
        prop_assert!(
            (rebuilt - sync_cost.as_secs()).abs() <= sync_cost.as_secs() * 1e-12,
            "local {} + drain {} vs sync {}", pending.local_cost, pending.drain(), sync_cost
        );
        prop_assert_eq!(asn.level_of(9), Some(CheckpointLevel::Local));
        asn.finish_drain(pending).unwrap();

        // Same protection level and database shape.
        prop_assert_eq!(sync.level_of(9), asn.level_of(9));
        prop_assert_eq!(sync.record_count(), asn.record_count());
        prop_assert_eq!(sync.recoverable(9), asn.recoverable(9));

        // Same restartable state and restore cost — also after a failure.
        let a = sync.restart().unwrap();
        let b = asn.restart().unwrap();
        prop_assert_eq!(&a, &b);
        if let Some(k) = kill {
            let victim = NodeId((k % ranks) as u32);
            sync.fail_nodes(&[victim]);
            asn.fail_nodes(&[victim]);
            prop_assert_eq!(sync.recoverable(9), asn.recoverable(9));
            prop_assert_eq!(sync.restart().ok(), asn.restart().ok());
        }
    }
}
