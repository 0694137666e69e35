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
        ScrConfig {
            nam,
            ..ScrConfig::default()
        },
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

/// The overhead-vs-MTBF table of EXPERIMENTS.md ("Asynchronous
/// checkpointing"): a 3600 s job on 8 ranks × 1 MiB, checkpointed at the
/// Young–Daly interval for the blocking Buddy cost, walked through
/// `simulate_run` over one seeded failure trace per MTBF. Every mode gets
/// the same cadence and the same failures and differs only in what a
/// checkpoint blocks: the full cost (sync), the local stage with the rest
/// drained behind compute (async), or the same split on delta-sized frames.
#[test]
fn overhead_vs_mtbf_curve_matches_experiments_md() {
    use hwmodel::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scr::{simulate_run, young_daly_interval, FailureModel};

    const RANKS: usize = 8;
    const BYTES_PER_RANK: usize = 1 << 20;
    const KEYFRAME_EVERY: f64 = 4.0; // xpic::resilience::KEYFRAME_EVERY_DEFAULT

    let cn = Arc::new(hwmodel::presets::deep_er_cluster_node());
    let nodes: Vec<NodeId> = (0..RANKS as u32).map(NodeId).collect();
    let scr = ScrManager::new(
        ScrConfig::default(),
        nodes.clone(),
        vec![cn; RANKS],
        ParallelFs::deep_er(),
    );
    // (blocking cost, local stage, drain) of one Buddy checkpoint.
    let split = |bytes: u64| {
        let full = scr.checkpoint_cost(CheckpointLevel::Buddy, bytes);
        let local = scr.checkpoint_cost(CheckpointLevel::Local, bytes);
        (full, local, full.saturating_sub(local))
    };
    let (sync_cost, local_cost, drain_cost) = split(BYTES_PER_RANK as u64);

    // Deltas are priced where they compress: ~2 % of the bytes flipped in
    // 32 dirty runs, one keyframe every fourth checkpoint.
    let base: Vec<u8> = (0..BYTES_PER_RANK).map(|i| (i * 131) as u8).collect();
    let mut cur = base.clone();
    for run in 0..32 {
        let off = run * (BYTES_PER_RANK / 32);
        for b in &mut cur[off..off + BYTES_PER_RANK / 1600] {
            *b = b.wrapping_add(1);
        }
    }
    let sparse_ratio = scr::delta::encode_delta(&base, &cur, 1).len() as f64
        / scr::delta::encode_full(&cur).len() as f64;
    let wire_ratio = (1.0 + (KEYFRAME_EVERY - 1.0) * sparse_ratio) / KEYFRAME_EVERY;
    assert_eq!(
        format!("{sparse_ratio:.2} {wire_ratio:.2}"),
        "0.02 0.27",
        "sparse-change delta ratio, alone and averaged with keyframes"
    );
    let (_, delta_local, delta_drain) = split((BYTES_PER_RANK as f64 * wire_ratio) as u64);

    let work = SimTime::from_secs(3600.0);
    let restart = SimTime::from_secs(1.0);
    // node MTBF (s), failures hit, overhead = wall / work per mode.
    let table = [
        (300.0, 94, "1.0349 1.0320 1.0307"),
        (1000.0, 40, "1.0166 1.0155 1.0148"),
        (3000.0, 12, "1.0068 1.0062 1.0059"),
        (10000.0, 2, "1.0018 1.0012 1.0012"),
    ];
    for (i, (mtbf_s, failures_hit, overheads)) in table.into_iter().enumerate() {
        // Young–Daly prices the interval against the whole machine's
        // failure rate, which grows with the node count.
        let model = FailureModel::new(SimTime::from_secs(mtbf_s));
        let interval = young_daly_interval(sync_cost, model.system_mtbf(RANKS)).min(work);
        let mut rng = StdRng::seed_from_u64(0xA51C + i as u64);
        let trace = model.sample_trace(&mut rng, &nodes, work * 4.0);
        let run = |block, drain| simulate_run(work, interval, block, drain, restart, &trace);
        let sync = run(sync_cost, SimTime::ZERO);
        let asn = run(local_cost, drain_cost);
        let delta = run(delta_local, delta_drain);
        assert_eq!(sync.failures_hit, failures_hit, "MTBF {mtbf_s} s");
        assert_eq!(
            format!(
                "{:.4} {:.4} {:.4}",
                sync.overhead(work),
                asn.overhead(work),
                delta.overhead(work)
            ),
            overheads,
            "sync / async / async+delta overhead at MTBF {mtbf_s} s"
        );
        assert!(asn.overhead(work) <= sync.overhead(work), "MTBF {mtbf_s} s");
    }
}
