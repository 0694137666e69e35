//! Property tests of the engine's two load-bearing guarantees, over
//! randomized seeded workloads:
//!
//! 1. **EASY invariant** — backfill never delays the reserved head
//!    start: every head reservation's promised shadow bounds the head's
//!    actual start in the event log, under independent reservation and
//!    under node-locking (where a job is charged more nodes than it
//!    asked for, so requested and effective sizes differ).
//! 2. **Determinism contract** — the schedule (events, waits, makespan,
//!    reservations) is bit-identical across host thread counts.
//!
//! And one pin across commits: the whole [`sched::EngineReport`] of a
//! faulted, checkpointed 600-job trace, hashed, under both policies.

use cluster_booster::resources::AllocationPolicy;
use cluster_booster::SystemBuilder;
use hwmodel::{NodeId, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sched::{generate, CheckpointPolicy, Engine, EngineConfig, WorkloadConfig};
use scr::FailureModel;
use simnet::FaultPlan;

fn system(cn: u32, bn: u32) -> cluster_booster::System {
    SystemBuilder::new("prop")
        .cluster_nodes(cn)
        .booster_nodes(bn)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backfill_never_delays_the_reserved_head(seed in 0u64..1u64 << 48) {
        let cfg = WorkloadConfig::bursty(seed, 60, 6, 12);
        let trace = generate(&cfg);
        for policy in [
            AllocationPolicy::Independent,
            AllocationPolicy::NodeLocked { ratio: 2 },
        ] {
            let ec = EngineConfig { policy, ..EngineConfig::default() };
            let r = Engine::new(system(6, 12), ec).run(&trace, &FaultPlan::new());
            prop_assert_eq!(r.completed, trace.len());
            let violations = r.reservation_violations();
            prop_assert!(
                violations.is_empty(),
                "seed {} under {:?} violated {} head reservations: {:?}",
                seed,
                policy,
                violations.len(),
                violations
            );
        }
    }

    #[test]
    fn schedule_is_bit_identical_across_thread_counts(
        seed in 0u64..1u64 << 48,
        threads in 2usize..=6,
    ) {
        let cfg = WorkloadConfig::bursty(seed, 50, 6, 12);
        let trace = generate(&cfg);
        // A mid-trace fault exercises the requeue path under the
        // comparison too.
        let faults = FaultPlan::from_node_faults([
            (SimTime::from_secs(1800.0), NodeId(3)),
        ]);
        let run = |threads: usize| {
            let ec = EngineConfig { threads, ..EngineConfig::default() };
            Engine::new(system(6, 12), ec).run(&trace, &faults)
        };
        let base = run(1);
        let multi = run(threads);
        prop_assert_eq!(&base, &multi);
        prop_assert_eq!(base.completed, trace.len());
        prop_assert!(base.reservation_violations().is_empty());
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The full report — every event, reservation, wait and utilization, not
/// the aggregates `sched_smoke.metrics` holds — of a 600-job bursty trace
/// on 64 CN + 128 BN with a fault every few hours (dense enough to
/// requeue) and checkpointing on. The hashes are FNV-1a over the report's
/// `Debug` text (derived, so every `f64` prints in its shortest
/// round-trip form: equal text is equal bits). Those of seed 20180521 were
/// recorded at commit 7648c9a, before allocations grew in place and the
/// backfill scan resumed; those of seed 7 at commit 5f650ce, before the
/// deal became arithmetic. A change that moves one has changed a
/// schedule, a victim or a node id.
#[test]
fn the_whole_report_is_pinned_across_commits() {
    let independent = AllocationPolicy::Independent;
    let locked = AllocationPolicy::NodeLocked { ratio: 2 };
    for (seed, policy, pinned) in [
        (20180521, independent, 16_459_725_729_510_707_731u64),
        (20180521, locked, 5_359_291_356_012_729_292u64),
        (7, independent, 16_485_808_009_194_980_253u64),
        (7, locked, 8_146_121_006_653_829_769u64),
    ] {
        let trace = generate(&WorkloadConfig::bursty(seed, 600, 32, 64));
        let failures = FailureModel::new(SimTime::from_secs(900_000.0 / 50.0));
        let nodes: Vec<NodeId> = (0..192).map(NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_FA17);
        let faults = failures.fault_plan(&mut rng, &nodes, SimTime::from_secs(40.0 * 3600.0));
        let cfg = EngineConfig {
            policy,
            ckpt: Some(CheckpointPolicy::derive(
                SimTime::from_secs(30.0),
                SimTime::from_secs(120.0),
                SimTime::from_secs(600.0),
                failures.system_mtbf(nodes.len()),
            )),
            repair_after: Some(SimTime::from_secs(4.0 * 3600.0)),
            ..EngineConfig::default()
        };
        let r = Engine::new(system(64, 128), cfg).run(&trace, &faults);
        assert_eq!(r.completed, trace.len());
        assert!(r.requeues > 0 && r.backfill_starts > 0 && !r.reservations.is_empty());
        assert!(matches!(policy, AllocationPolicy::NodeLocked { .. }) || r.expands > 0);
        assert_eq!(
            fnv1a(format!("{r:?}").as_bytes()),
            pinned,
            "seed {seed} {policy:?}: {} events, {} requeues, {} backfills, {} reservations, {} expands",
            r.events.len(),
            r.requeues,
            r.backfill_starts,
            r.reservations.len(),
            r.expands
        );
    }
}
