//! The tentpole guarantee: a run that loses a Booster node mid-flight to
//! the fault plan restarts from the newest SCR checkpoint and finishes
//! **bit-identical** to an uninterrupted run — at any host thread count.

use cluster_booster::{Launcher, SystemBuilder};
use hwmodel::{NodeId, SimTime};
use scr::{CheckpointLevel, CkptMode, NamBuddy, ScrConfig, ScrManager};
use simnet::FaultPlan;
use sionio::ParallelFs;
use xpic::resilience::{run_resilient, RecoveryConfig, ResilientReport};
use xpic::XpicConfig;

const BOOSTERS: usize = 2;

fn launcher() -> Launcher {
    Launcher::new(
        SystemBuilder::new("fault-recovery")
            .cluster_nodes(1)
            .booster_nodes(BOOSTERS as u32)
            .build(),
    )
}

fn scr_for(launcher: &Launcher) -> ScrManager {
    scr_with(launcher, ScrConfig::default())
}

fn scr_with(launcher: &Launcher, config: ScrConfig) -> ScrManager {
    let ids: Vec<NodeId> = launcher.system().booster_nodes()[..BOOSTERS].to_vec();
    let specs = ids
        .iter()
        .map(|&n| launcher.system().fabric().node(n).unwrap().clone())
        .collect();
    ScrManager::new(config, ids, specs, ParallelFs::deep_er())
}

fn config(threads: usize) -> XpicConfig {
    XpicConfig {
        nx: 8,
        ny: 8,
        steps: 6,
        threads,
        ..XpicConfig::test_small()
    }
}

fn recovery() -> RecoveryConfig {
    RecoveryConfig {
        level: CheckpointLevel::Buddy,
        checkpoint_every: 2,
        ..RecoveryConfig::default()
    }
}

fn run(threads: usize, plan: Option<FaultPlan>) -> ResilientReport {
    let l = launcher();
    let scr = scr_for(&l);
    run_resilient(&l, BOOSTERS, &config(threads), &scr, &recovery(), plan)
}

/// A fault time well inside the stepping phase. Virtual spawn latency
/// front-loads the makespan, so the PIC steps (and their checkpoints) all
/// land in the final stretch: 0.97 of the clean makespan sits past the
/// later checkpoints (a real restore happens) but before the last victim
/// check, so the fault is always discovered.
fn mid_run_fault(clean_makespan: SimTime) -> SimTime {
    SimTime::from_secs(0.97 * clean_makespan.as_secs())
}

#[test]
fn recovered_run_is_bit_identical_to_clean_run() {
    let clean = run(1, None);
    assert_eq!(clean.steps, 6);
    assert_eq!(clean.recoveries, 0);
    assert!(clean.failures.is_empty());
    assert!(clean.field_energy > 0.0 && clean.kinetic_energy > 0.0);

    // Kill the second solver rank's node mid-run.
    let victim = launcher().system().booster_nodes()[1];
    let at = mid_run_fault(clean.makespan);
    let faulted = run(1, Some(FaultPlan::from_node_faults([(at, victim)])));

    assert_eq!(faulted.steps, 6);
    assert!(
        faulted.recoveries >= 1,
        "the fault at {at} must interrupt the run"
    );
    assert_eq!(faulted.failures[0].0, victim);
    assert_eq!(faulted.failures[0].1, at);
    assert!(
        faulted.resume_steps.iter().any(|&s| s > 0),
        "a fault this late must restore from a real checkpoint, \
         not replay from scratch (resumed from {:?})",
        faulted.resume_steps
    );
    assert!(
        faulted.makespan > clean.makespan,
        "recovery costs virtual time"
    );
    // Resuming skips the work the checkpoint holds. The same death under
    // node-local checkpoints loses the victim's copy, so that run replays
    // from step 0 and finishes later.
    let l = launcher();
    let scr = scr_for(&l);
    let local = RecoveryConfig {
        level: CheckpointLevel::Local,
        ..recovery()
    };
    let plan = FaultPlan::from_node_faults([(at, victim)]);
    let replayed = run_resilient(&l, BOOSTERS, &config(1), &scr, &local, Some(plan));
    assert_eq!(replayed.resume_steps, vec![0]);
    assert!(
        faulted.makespan < replayed.makespan,
        "resume is cheaper than a rerun: {} vs {}",
        faulted.makespan,
        replayed.makespan
    );

    // The tentpole check: recovery replays to the exact same bits.
    assert_eq!(
        faulted.field_energy.to_bits(),
        clean.field_energy.to_bits(),
        "field energy must be bit-identical after recovery ({} vs {})",
        faulted.field_energy,
        clean.field_energy
    );
    assert_eq!(
        faulted.kinetic_energy.to_bits(),
        clean.kinetic_energy.to_bits(),
        "kinetic energy must be bit-identical after recovery ({} vs {})",
        faulted.kinetic_energy,
        clean.kinetic_energy
    );
}

#[test]
fn recovery_is_thread_count_invariant() {
    // The determinism contract extends through failure and recovery: the
    // same job at 1 and 2 kernel threads — clean or faulted — lands on
    // the same bits.
    let clean1 = run(1, None);
    let clean2 = run(2, None);
    assert_eq!(clean1.field_energy.to_bits(), clean2.field_energy.to_bits());
    assert_eq!(
        clean1.kinetic_energy.to_bits(),
        clean2.kinetic_energy.to_bits()
    );

    let victim = launcher().system().booster_nodes()[1];
    let at = mid_run_fault(clean1.makespan);
    let plan = FaultPlan::from_node_faults([(at, victim)]);
    let faulted1 = run(1, Some(plan.clone()));
    let faulted2 = run(2, Some(plan));
    assert!(faulted1.recoveries >= 1);
    assert_eq!(faulted1.recoveries, faulted2.recoveries);
    assert_eq!(faulted1.failures, faulted2.failures);
    assert_eq!(faulted1.resume_steps, faulted2.resume_steps);
    assert_eq!(
        faulted1.field_energy.to_bits(),
        clean1.field_energy.to_bits()
    );
    assert_eq!(
        faulted2.field_energy.to_bits(),
        clean1.field_energy.to_bits()
    );
    assert_eq!(
        faulted1.kinetic_energy.to_bits(),
        clean1.kinetic_energy.to_bits()
    );
    assert_eq!(
        faulted2.kinetic_energy.to_bits(),
        clean1.kinetic_energy.to_bits()
    );
    assert_eq!(faulted1.makespan, faulted2.makespan);
}

#[test]
fn losing_solver_rank_zero_still_recovers() {
    // Rank 0 owns the gather root and the supervisor status channel; its
    // death exercises the dead-endpoint path at the supervisor rather
    // than the revoke-marker path.
    let clean = run(1, None);
    let victim = launcher().system().booster_nodes()[0];
    let at = mid_run_fault(clean.makespan);
    let faulted = run(1, Some(FaultPlan::from_node_faults([(at, victim)])));
    assert_eq!(faulted.steps, 6);
    assert!(faulted.recoveries >= 1);
    assert!(faulted.resume_steps.iter().any(|&s| s > 0));
    assert_eq!(faulted.field_energy.to_bits(), clean.field_energy.to_bits());
    assert_eq!(
        faulted.kinetic_energy.to_bits(),
        clean.kinetic_energy.to_bits()
    );
}

#[test]
fn no_rank_thread_stays_counted_awake_after_a_recovered_run() {
    // The victim returns without a word, the survivor aborts and revokes,
    // the supervisor respawns: every one of those threads must have left
    // the host-side awake count it was spawned into.
    let l = launcher();
    let scr = scr_for(&l);
    let clean = run(1, None);
    let victim = l.system().booster_nodes()[1];
    let plan = FaultPlan::from_node_faults([(mid_run_fault(clean.makespan), victim)]);
    let faulted = run_resilient(&l, BOOSTERS, &config(1), &scr, &recovery(), Some(plan));
    assert!(faulted.recoveries >= 1);
    assert_eq!(l.universe().router().awake_ranks(), 0);
}

#[test]
fn fault_before_first_checkpoint_replays_from_scratch() {
    // Death in the first checkpoint interval leaves SCR empty: recovery
    // degrades to a from-scratch replay and still lands on the clean bits.
    let clean = run(1, None);
    let victim = launcher().system().booster_nodes()[1];
    let at = SimTime::from_secs(0.05 * clean.makespan.as_secs());
    let faulted = run(1, Some(FaultPlan::from_node_faults([(at, victim)])));
    assert_eq!(faulted.steps, 6);
    assert!(faulted.recoveries >= 1);
    assert_eq!(
        faulted.resume_steps,
        vec![0],
        "nothing recoverable exists yet — this must be a scratch replay"
    );
    assert_eq!(faulted.field_energy.to_bits(), clean.field_energy.to_bits());
    assert_eq!(
        faulted.kinetic_energy.to_bits(),
        clean.kinetic_energy.to_bits()
    );
}

fn run_mode(threads: usize, mode: CkptMode, plan: Option<FaultPlan>) -> ResilientReport {
    let l = launcher();
    let scr = scr_for(&l);
    let recovery = RecoveryConfig {
        ckpt_mode: mode,
        ..recovery()
    };
    run_resilient(&l, BOOSTERS, &config(threads), &scr, &recovery, plan)
}

#[test]
fn async_recovery_is_bit_identical_and_blocks_less() {
    let sync = run_mode(1, CkptMode::Sync, None);
    let asn = run_mode(1, CkptMode::Async, None);

    // Same physics bits, same protection cadence, less blocking: the
    // buddy drain hides behind the next steps' compute.
    assert_eq!(asn.field_energy.to_bits(), sync.field_energy.to_bits());
    assert_eq!(asn.kinetic_energy.to_bits(), sync.kinetic_energy.to_bits());
    assert_eq!(asn.ckpts_taken, sync.ckpts_taken);
    assert!(sync.ckpt_block > SimTime::ZERO);
    assert!(
        asn.ckpt_block < sync.ckpt_block,
        "async block {} must be below sync {}",
        asn.ckpt_block,
        sync.ckpt_block
    );

    // A mid-run node death under async checkpointing: the in-flight drain
    // is evicted, recovery falls back to the newest *promoted* checkpoint,
    // and the replay still lands on the clean bits.
    let victim = launcher().system().booster_nodes()[1];
    let at = mid_run_fault(asn.makespan);
    let plan = FaultPlan::from_node_faults([(at, victim)]);
    let faulted1 = run_mode(1, CkptMode::Async, Some(plan.clone()));
    let faulted2 = run_mode(2, CkptMode::Async, Some(plan));
    assert!(faulted1.recoveries >= 1, "fault at {at} must interrupt");
    assert_eq!(faulted1.field_energy.to_bits(), sync.field_energy.to_bits());
    assert_eq!(
        faulted1.kinetic_energy.to_bits(),
        sync.kinetic_energy.to_bits()
    );
    // ...at any host thread count, event for event.
    assert_eq!(faulted1.recoveries, faulted2.recoveries);
    assert_eq!(faulted1.resume_steps, faulted2.resume_steps);
    assert_eq!(
        faulted1.field_energy.to_bits(),
        faulted2.field_energy.to_bits()
    );
    assert_eq!(faulted1.makespan, faulted2.makespan);
    assert_eq!(faulted1.ckpt_block, faulted2.ckpt_block);
}

#[test]
fn async_delta_recovery_matches_sync_bits() {
    let sync = run_mode(1, CkptMode::Sync, None);
    let asn = run_mode(1, CkptMode::Async, None);
    let clean = run_mode(1, CkptMode::AsyncDelta, None);
    assert_eq!(clean.field_energy.to_bits(), sync.field_energy.to_bits());
    assert_eq!(clean.ckpts_taken, asn.ckpts_taken);
    // Dirty-range deltas cannot compress a PIC state where every particle
    // moves each step: the encoder falls back to full keyframes (one tag
    // byte of framing overhead), so delta mode must block essentially as
    // long as plain async here. The delta win shows on sparse-change
    // states (the scr delta tests).
    assert!(
        clean.ckpt_block.as_secs() <= asn.ckpt_block.as_secs() * 1.001,
        "delta block {} must stay within framing overhead of async {}",
        clean.ckpt_block,
        asn.ckpt_block
    );

    let victim = launcher().system().booster_nodes()[0];
    let at = mid_run_fault(clean.makespan);
    let faulted = run_mode(
        1,
        CkptMode::AsyncDelta,
        Some(FaultPlan::from_node_faults([(at, victim)])),
    );
    assert!(faulted.recoveries >= 1);
    assert_eq!(faulted.field_energy.to_bits(), sync.field_energy.to_bits());
    assert_eq!(
        faulted.kinetic_energy.to_bits(),
        sync.kinetic_energy.to_bits()
    );
}

/// A launcher whose fabric carries one NAM device, for the NAM-backed
/// buddy level.
fn nam_launcher() -> Launcher {
    Launcher::new(
        SystemBuilder::new("fault-recovery-nam")
            .cluster_nodes(1)
            .booster_nodes(BOOSTERS as u32)
            .nam_devices(1)
            .build(),
    )
}

#[test]
fn nam_backed_async_drain_survives_losing_both_solver_nodes() {
    // With the buddy level on the NAM, an async drain is a one-sided RDMA
    // put (`Rank::inam_put_sized`) and the copy has no host node. Both
    // solver nodes die at the same instant, and the supervisor learns of
    // one death per recovery. The first recovery restores from the copies
    // the other node still holds. By the second, every node-resident copy
    // of that checkpoint is gone: only the NAM copy can serve it (without
    // the NAM this run resumes from [2, 0]).
    let reference = run_mode(1, CkptMode::Sync, None);
    let run = |plan: Option<FaultPlan>| {
        let l = nam_launcher();
        let device = l.system().fabric().nams()[0].clone();
        let nam = Some(NamBuddy { index: 0, device });
        let scr = scr_with(&l, ScrConfig { nam });
        let recovery = RecoveryConfig {
            ckpt_mode: CkptMode::Async,
            ..recovery()
        };
        let nodes = l.system().booster_nodes()[..BOOSTERS].to_vec();
        let report = run_resilient(&l, BOOSTERS, &config(1), &scr, &recovery, plan);
        let used = l.system().fabric().nams()[0].used();
        (report, nodes, used)
    };

    let (clean, nodes, used) = run(None);
    assert_eq!(
        clean.field_energy.to_bits(),
        reference.field_energy.to_bits()
    );
    assert!(used > 0, "the drain must land real bytes on the NAM device");

    // Later than `mid_run_fault`: an async checkpoint protects only once
    // the next one's gather has promoted it, and at 0.99 of the makespan
    // checkpoint 2 is promoted while checkpoint 4 is still in flight.
    let at = SimTime::from_secs(0.99 * clean.makespan.as_secs());
    let (faulted, _, _) = run(Some(FaultPlan::from_node_faults(
        nodes.iter().map(|&n| (at, n)),
    )));
    assert_eq!(faulted.steps, 6);
    assert!(faulted.recoveries >= 2, "{:?}", faulted.failures);
    assert!(
        faulted.resume_steps.iter().all(|&s| s > 0),
        "every recovery must restore a checkpoint, the last one from the \
         NAM (resumed from {:?})",
        faulted.resume_steps
    );
    assert_eq!(
        faulted.field_energy.to_bits(),
        reference.field_energy.to_bits()
    );
    assert_eq!(
        faulted.kinetic_energy.to_bits(),
        reference.kinetic_energy.to_bits()
    );
}
