//! The tentpole guarantee: a run that loses a Booster node mid-flight to
//! the fault plan restarts from the newest SCR checkpoint and finishes
//! **bit-identical** to an uninterrupted run — at any host thread count.
//! And the checkpointed run is `run_mode`'s Booster-only run: the same
//! bits, the same kernel seconds.

use cluster_booster::{Launcher, SystemBuilder};
use hwmodel::{NodeId, SimTime};
use obs::Recorder;
use scr::{CheckpointLevel, CkptMode, NamBuddy, ScrConfig, ScrManager};
use simnet::FaultPlan;
use sionio::ParallelFs;
use xpic::resilience::{run_resilient, RecoveryConfig, ResilientReport};
use xpic::{Mode, XpicConfig};

const BOOSTERS: usize = 2;

fn launcher() -> Launcher {
    launcher_with(BOOSTERS)
}

/// One Cluster node for the supervisor and `boosters` solver nodes.
fn launcher_with(boosters: usize) -> Launcher {
    Launcher::new(
        SystemBuilder::new("fault-recovery")
            .cluster_nodes(1)
            .booster_nodes(boosters as u32)
            .build(),
    )
}

fn scr_for(launcher: &Launcher) -> ScrManager {
    scr_with(launcher, ScrConfig::default())
}

/// One SCR slot per Booster node of `launcher`.
fn scr_with(launcher: &Launcher, config: ScrConfig) -> ScrManager {
    let ids: Vec<NodeId> = launcher.system().booster_nodes();
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

/// The run's last checkpoint: the checkpoints follow steps 2 and 4.
const LAST: usize = 2;

/// A clean one-thread run in `mode`, and the middle of its window after
/// checkpoint `k` ([`obs::Trace::after_checkpoint`]; `k = 0` is the
/// window before the first). A node that dies there dies after
/// checkpoint `k` was staged and before the next one, or the last victim
/// check, so the fault is always discovered.
fn clean_run(mode: CkptMode, k: usize) -> (ResilientReport, SimTime) {
    let l = launcher();
    let rec = Recorder::new();
    l.universe().attach_obs(rec.clone());
    let scr = scr_for(&l);
    let recovery = RecoveryConfig {
        ckpt_mode: mode,
        ..recovery()
    };
    let clean = run_resilient(&l, BOOSTERS, &config(1), &scr, &recovery, None);
    let at = rec.snapshot().after_checkpoint(k);
    (clean, at.expect("the clean run takes two checkpoints"))
}

#[test]
fn recovered_run_is_bit_identical_to_clean_run() {
    let (clean, at) = clean_run(CkptMode::Sync, LAST);
    assert_eq!(clean.steps, 6);
    assert_eq!(clean.recoveries, 0);
    assert!(clean.failures.is_empty());
    assert!(clean.field_energy > 0.0 && clean.kinetic_energy > 0.0);

    // Kill the second solver rank's node after the last checkpoint.
    let victim = launcher().system().booster_nodes()[1];
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
    let (clean1, at) = clean_run(CkptMode::Sync, LAST);
    let clean2 = run(2, None);
    assert_eq!(clean1.field_energy.to_bits(), clean2.field_energy.to_bits());
    assert_eq!(
        clean1.kinetic_energy.to_bits(),
        clean2.kinetic_energy.to_bits()
    );

    let victim = launcher().system().booster_nodes()[1];
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
    let (clean, at) = clean_run(CkptMode::Sync, LAST);
    let victim = launcher().system().booster_nodes()[0];
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
    let (_, at) = clean_run(CkptMode::Sync, LAST);
    let victim = l.system().booster_nodes()[1];
    let plan = FaultPlan::from_node_faults([(at, victim)]);
    let faulted = run_resilient(&l, BOOSTERS, &config(1), &scr, &recovery(), Some(plan));
    assert!(faulted.recoveries >= 1);
    assert_eq!(l.universe().router().awake_ranks(), 0);
}

#[test]
fn fault_before_first_checkpoint_replays_from_scratch() {
    // Death in the first checkpoint interval leaves SCR empty: recovery
    // degrades to a from-scratch replay and still lands on the clean bits.
    let (clean, at) = clean_run(CkptMode::Sync, 0);
    let victim = launcher().system().booster_nodes()[1];
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
    let (asn, at) = clean_run(CkptMode::Async, LAST);

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

    // A node death after the last async checkpoint was staged: the
    // in-flight drain is evicted, recovery falls back to the newest
    // *promoted* checkpoint, and the replay still lands on the clean bits.
    let victim = launcher().system().booster_nodes()[1];
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
fn jobs_on_launchers_alive_at_once_end_on_the_bits_of_jobs_one_after_the_other() {
    let (_, at) = clean_run(CkptMode::Async, LAST);
    let victim = launcher().system().booster_nodes()[1];
    let plan = FaultPlan::from_node_faults([(at, victim)]);
    let job = |l: &Launcher, mode| {
        let recovery = RecoveryConfig {
            ckpt_mode: mode,
            ..recovery()
        };
        run_resilient(
            l,
            BOOSTERS,
            &config(1),
            &scr_for(l),
            &recovery,
            Some(plan.clone()),
        )
    };
    let modes = [CkptMode::Async, CkptMode::AsyncDelta];
    // One after the other: each launcher goes before the next comes.
    let apart: Vec<_> = modes.iter().map(|&m| job(&launcher(), m)).collect();
    // Alive at once: the second job draws the buffers the first retired.
    let launchers = [launcher(), launcher()];
    let pool = |l: &Launcher| l.universe().router().buffer_pool() as *const _;
    assert_eq!(pool(&launchers[0]), pool(&launchers[1]), "one shared pool");
    let together: Vec<_> = modes
        .iter()
        .zip(&launchers)
        .map(|(&m, l)| job(l, m))
        .collect();
    for (a, t) in apart.iter().zip(&together) {
        assert!(a.recoveries >= 1, "fault at {at} must interrupt");
        let bits = |r: &ResilientReport| (r.field_energy.to_bits(), r.kinetic_energy.to_bits());
        assert_eq!(bits(a), bits(t));
        assert_eq!(a.resume_steps, t.resume_steps);
        assert_eq!(a.makespan, t.makespan);
        assert_eq!(a.ckpt_block, t.ckpt_block);
    }
}

#[test]
fn async_delta_recovery_matches_sync_bits() {
    let sync = run_mode(1, CkptMode::Sync, None);
    let asn = run_mode(1, CkptMode::Async, None);
    let (clean, at) = clean_run(CkptMode::AsyncDelta, LAST);
    assert_eq!(clean.field_energy.to_bits(), sync.field_energy.to_bits());
    assert_eq!(clean.ckpts_taken, asn.ckpts_taken);
    // Here each rank's blob keeps its length between checkpoints, but
    // every particle moves and every field changes, so no dirty-range
    // delta is smaller than the blob: the encoder falls back to full
    // keyframes (one tag byte of framing overhead), and delta mode must
    // block essentially as long as plain async. (In xpic_ckpt's larger run
    // the blobs change length as particles migrate, and the codec diffs
    // only blobs of equal length.) The delta win shows on sparse-change
    // states (the scr delta tests).
    assert!(
        clean.ckpt_block.as_secs() <= asn.ckpt_block.as_secs() * 1.001,
        "delta block {} must stay within framing overhead of async {}",
        clean.ckpt_block,
        asn.ckpt_block
    );

    let victim = launcher().system().booster_nodes()[0];
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
        let rec = Recorder::new();
        l.universe().attach_obs(rec.clone());
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
        (report, nodes, used, rec.snapshot().after_checkpoint(LAST))
    };

    let (clean, nodes, used, staged) = run(None);
    assert_eq!(
        clean.field_energy.to_bits(),
        reference.field_energy.to_bits()
    );
    assert!(used > 0, "the drain must land real bytes on the NAM device");

    // After the last checkpoint was staged: an async checkpoint protects
    // only once the next one's gather has promoted it, and there the
    // checkpoint of step 2 is promoted while step 4's is still in flight.
    let at = staged.expect("the clean run takes two checkpoints");
    let (faulted, _, _, _) = run(Some(FaultPlan::from_node_faults(
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

/// What a run is compared on: its final energies' bits and each solver
/// rank's kernel seconds.
#[derive(Debug)]
struct Ran {
    bits: [u64; 2],
    compute: Vec<f64>,
}

impl Ran {
    fn new(field_energy: f64, kinetic_energy: f64, rec: &Recorder) -> Ran {
        let profile = rec.snapshot().profile();
        let solvers = profile.ranks.iter().filter(|r| r.kind == "BN");
        Ran {
            bits: [field_energy.to_bits(), kinetic_energy.to_bits()],
            compute: solvers.map(|r| r.busy.compute.as_secs()).collect(),
        }
    }
}

/// `config` on `nodes` Booster nodes through `run_mode(BoosterOnly)`, and
/// through a clean `run_resilient` that checkpoints every 2 steps.
fn plain_and_checkpointed(config: &XpicConfig, nodes: usize) -> (Ran, Ran) {
    let traced = || {
        let l = launcher_with(nodes);
        let rec = Recorder::new();
        l.universe().attach_obs(rec.clone());
        (l, rec)
    };
    let (l, rec) = traced();
    let plain = xpic::run_mode(&l, Mode::BoosterOnly, nodes, config);
    let plain = Ran::new(plain.field_energy, plain.kinetic_energy, &rec);
    let (l, rec) = traced();
    let ckpt = run_resilient(&l, nodes, config, &scr_for(&l), &recovery(), None);
    assert_eq!((ckpt.steps, ckpt.recoveries), (config.steps, 0));
    (
        plain,
        Ran::new(ckpt.field_energy, ckpt.kinetic_energy, &rec),
    )
}

#[test]
fn a_checkpointed_run_is_run_mode() {
    // The checkpointed solver world steps Listing 1's loop of `run_mode`,
    // so a clean checkpointed run ends on the Booster-only bits and
    // charges each solver rank the same kernel seconds (span durations
    // are differences of absolute clocks, hence the relative bound).
    let small = |steps| XpicConfig {
        steps,
        ..XpicConfig::test_small()
    };
    let shapes = [
        ("test_small, 6 steps", small(6), 1),
        ("test_small, 6 steps", small(6), 2),
        ("8x8 fault-test shape", config(1), BOOSTERS),
        ("paper_bench(3)", XpicConfig::paper_bench(3), 2),
        ("paper_bench(12)", XpicConfig::paper_bench(12), 4),
        (
            "xpic_ckpt shape",
            XpicConfig {
                nx: 16,
                ny: 16,
                sim_particles_per_cell: 256,
                threads: 1,
                seed: 20180521 ^ 0x0C4B_7000,
                ..XpicConfig::paper_bench(16)
            },
            2,
        ),
        (
            "vth 0.5, 10 steps",
            XpicConfig {
                vth: 0.5,
                ..small(10)
            },
            4,
        ),
        (
            "test_small, threads 2",
            XpicConfig {
                threads: 2,
                ..XpicConfig::test_small()
            },
            2,
        ),
    ];
    for (name, config, nodes) in shapes {
        let (plain, ckpt) = plain_and_checkpointed(&config, nodes);
        assert_eq!(ckpt.bits, plain.bits, "{name} on {nodes} nodes");
        assert_eq!(ckpt.compute.len(), nodes, "{name} on {nodes} nodes");
        assert_eq!(ckpt.compute.len(), plain.compute.len());
        for (rank, (c, p)) in ckpt.compute.iter().zip(&plain.compute).enumerate() {
            assert!(
                *p > 0.0 && (c - p).abs() <= 1e-12 * p,
                "{name} on {nodes} nodes, rank {rank}: kernel seconds {c} against run_mode's {p}"
            );
        }
    }

    // A recovered run lands on the same bits, at a shape where a loop of
    // its own used to end elsewhere.
    let config = small(6);
    let (plain, _) = plain_and_checkpointed(&config, BOOSTERS);
    let l = launcher();
    let rec = Recorder::new();
    l.universe().attach_obs(rec.clone());
    run_resilient(&l, BOOSTERS, &config, &scr_for(&l), &recovery(), None);
    let at = rec
        .snapshot()
        .after_checkpoint(LAST)
        .expect("two checkpoints");
    let l = launcher();
    let victim = l.system().booster_nodes()[1];
    let plan = FaultPlan::from_node_faults([(at, victim)]);
    let faulted = run_resilient(&l, BOOSTERS, &config, &scr_for(&l), &recovery(), Some(plan));
    assert_eq!(faulted.resume_steps, [4]);
    let bits = [faulted.field_energy, faulted.kinetic_energy].map(f64::to_bits);
    assert_eq!(bits, plain.bits);
}

#[test]
fn the_completing_world_ends_on_the_one_reduction_its_report_reads() {
    // After its last step's aux phase a solver rank of the completing
    // world drains its checkpoint and reduces the two energies the
    // supervisor's report carries, in one collective, clean or recovered:
    // no per-step history, section-time maxes or other sums.
    let collectives_after_aux = |plan: Option<FaultPlan>| {
        let l = launcher();
        let rec = Recorder::new();
        l.universe().attach_obs(rec.clone());
        let report = run_resilient(&l, BOOSTERS, &config(1), &scr_for(&l), &recovery(), plan);
        let trace = rec.snapshot();
        let solvers = trace.tracks.iter().filter(|t| t.kind == "BN");
        let last = solvers
            .clone()
            .map(|t| t.key.world)
            .max()
            .expect("a solver world");
        let counts: Vec<usize> = solvers
            .filter(|t| t.key.world == last)
            .map(|t| {
                let aux = t.spans.iter().filter(|s| s.name == "aux");
                let end = aux.map(|s| s.end).max().expect("an aux phase");
                let collective = |s: &&obs::Span| s.cat == obs::Category::Collective;
                t.spans
                    .iter()
                    .filter(collective)
                    .filter(|s| s.start >= end)
                    .count()
            })
            .collect();
        (report, counts, trace.after_checkpoint(LAST))
    };
    let (clean, counts, at) = collectives_after_aux(None);
    assert_eq!(clean.recoveries, 0);
    assert_eq!(counts, [1; BOOSTERS], "clean run");

    let at = at.expect("the clean run takes two checkpoints");
    let victim = launcher().system().booster_nodes()[1];
    let (faulted, counts, _) =
        collectives_after_aux(Some(FaultPlan::from_node_faults([(at, victim)])));
    assert!(
        faulted.recoveries >= 1,
        "the fault at {at} must interrupt the run"
    );
    assert_eq!(counts, [1; BOOSTERS], "recovered run");
}
