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

use cluster_booster::resources::AllocationPolicy;
use cluster_booster::SystemBuilder;
use hwmodel::{NodeId, SimTime};
use proptest::prelude::*;
use sched::{generate, Engine, EngineConfig, WorkloadConfig};
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
