//! `xpic_ckpt`: the xPic loop again, used for resiliency.
//!
//! `xpic::resilience::run_resilient` runs 2 Booster solver ranks under a
//! supervisor rank, takes a Buddy checkpoint after every step and loses
//! one node to a planned fault mid-run; the supervisor restores the newest
//! checkpoint and respawns the solver world. Each repetition does this in
//! `CkptMode::Sync`, `Async` and `AsyncDelta`. State packing, the `scr`
//! stage/drain/delta path, `comm_spawn` and the restore dominate; the
//! particle kernels do not. An operation is one checkpointed solver step.
//!
//! The grid is small and the cells full (16 x 16 cells x 256 particles per
//! cell, about 1.3 MiB of state per rank): on a larger grid the CG solve's
//! allreduces between the two rank threads take most of the host time and
//! the checkpoint path little. The state is kept small on purpose, too:
//! with 25 MB per rank the same job took between 1.8 s and 14 s of host
//! time, most of it allocation churn.

use crate::harness::{Ctx, Rep, TracedPass};
use crate::metrics::Metrics;
use crate::{probe, trace};
use cluster_booster::{JobSpec, Launcher, ModuleKind, SystemBuilder};
use hwmodel::{NodeId, SimTime};
use obs::Recorder;
use scr::{delta, CheckpointLevel, ScrConfig, ScrManager};
use simnet::FaultPlan;
use sionio::ParallelFs;
use std::hint::black_box;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use xpic::mover::boris_push;
use xpic::resilience::{pack_state, run_resilient, unpack_state, RecoveryConfig, ResilientReport};
use xpic::{CkptMode, Fields, Grid, Species, XpicConfig};

const SOLVER_RANKS: usize = 2;
const MODES: [CkptMode; 3] = [CkptMode::Sync, CkptMode::Async, CkptMode::AsyncDelta];
/// Per mode: host seconds of `run_resilient`, then the model's blocking
/// checkpoint seconds and makespan.
const MODE_METRICS: [[&str; 3]; 3] = [
    [
        "xpic.run_resilient_s.sync",
        "virtual.ckpt_block_s.sync",
        "virtual.ckpt_makespan_s.sync",
    ],
    [
        "xpic.run_resilient_s.async",
        "virtual.ckpt_block_s.async",
        "virtual.ckpt_makespan_s.async",
    ],
    [
        "xpic.run_resilient_s.delta",
        "virtual.ckpt_block_s.delta",
        "virtual.ckpt_makespan_s.delta",
    ],
];

fn config(ctx: &Ctx) -> XpicConfig {
    let (n, ppc, steps) = if ctx.quick { (8, 8, 6) } else { (16, 256, 16) };
    XpicConfig {
        nx: n,
        ny: n,
        sim_particles_per_cell: ppc,
        threads: 1,
        seed: ctx.seed ^ 0x0C4B_7000,
        ..XpicConfig::paper_bench(steps)
    }
}

fn new_launcher() -> Launcher {
    let _span = trace::span("core.launcher_new");
    Launcher::new(
        SystemBuilder::new("xpic-ckpt")
            .cluster_nodes(1)
            .booster_nodes(SOLVER_RANKS as u32)
            .build(),
    )
}

fn new_scr(launcher: &Launcher) -> ScrManager {
    let _span = trace::span("scr.manager_new");
    let nodes: Vec<NodeId> = launcher.system().booster_nodes();
    let specs = nodes
        .iter()
        .map(|&n| {
            launcher
                .system()
                .fabric()
                .node(n)
                .expect("a Booster node of this system")
                .clone()
        })
        .collect();
    ScrManager::new(ScrConfig::default(), nodes, specs, ParallelFs::deep_er())
}

fn recovery(mode: CkptMode, checkpoint_every: u32) -> RecoveryConfig {
    RecoveryConfig {
        level: CheckpointLevel::Buddy,
        checkpoint_every,
        ckpt_mode: mode,
        ..RecoveryConfig::default()
    }
}

/// What the faulted runs are checked against and planned from: runs of
/// the same configuration with no fault.
struct Clean {
    /// Final energies of a run that takes no checkpoint either.
    energy_bits: [u64; 2],
    /// Virtual time at which the solver world takes its first step: the
    /// supervisor's launch and the collective spawn come before it.
    first_step_at: SimTime,
    /// Virtual time one step takes under each checkpoint mode.
    step: [SimTime; 3],
}

/// The clean runs of this process's configuration, made once: by the
/// warm-up repetition, whose times are discarded.
fn clean_runs(cfg: &XpicConfig) -> &'static Clean {
    static CLEAN: OnceLock<Clean> = OnceLock::new();
    CLEAN.get_or_init(|| make_clean_runs(cfg))
}

fn make_clean_runs(cfg: &XpicConfig) -> Clean {
    let run = |steps: u32, recovery: RecoveryConfig| {
        let launcher = new_launcher();
        let scr = new_scr(&launcher);
        let cfg = XpicConfig {
            steps,
            ..cfg.clone()
        };
        let report = run_resilient(&launcher, SOLVER_RANKS, &cfg, &scr, &recovery, None);
        assert_eq!((report.recoveries, report.steps), (0, steps));
        report
    };
    // The model charges every step the same, so two lengths of a run that
    // never checkpoints give where the steps begin.
    let half_steps = cfg.steps / 2;
    let full = run(cfg.steps, recovery(CkptMode::Sync, cfg.steps + 1));
    let half = run(half_steps, recovery(CkptMode::Sync, half_steps + 1));
    let bare_step = (full.makespan - half.makespan) / f64::from(cfg.steps - half_steps);
    let first_step_at = full.makespan - bare_step * f64::from(cfg.steps);
    Clean {
        energy_bits: [full.field_energy.to_bits(), full.kinetic_energy.to_bits()],
        first_step_at,
        step: MODES.map(|mode| {
            let checkpointed = run(cfg.steps, recovery(mode, 1));
            (checkpointed.makespan - first_step_at) / f64::from(cfg.steps)
        }),
    }
}

/// One node death from the seed: which solver node, and how far through
/// the steps of a run under checkpoint mode `mode` (40 % to 60 %). Each
/// mode stretches a step differently, so each gets the fault at its own
/// virtual time and all lose the node mid-run.
fn fault_plan(seed: u64, cfg: &XpicConfig, launcher: &Launcher, mode: usize) -> FaultPlan {
    let clean = clean_runs(cfg);
    let boosters = launcher.system().booster_nodes();
    let victim = boosters[(seed % SOLVER_RANKS as u64) as usize];
    let share = 0.4 + 0.2 * ((seed / SOLVER_RANKS as u64) % 1000) as f64 / 1000.0;
    let at = clean.first_step_at + clean.step[mode] * (share * f64::from(cfg.steps));
    FaultPlan::from_node_faults([(at, victim)])
}

pub fn rep(ctx: &Ctx) -> Rep {
    let cfg = config(ctx);
    let clean = clean_runs(&cfg);

    let t0 = Instant::now();
    let systems: Vec<(Launcher, ScrManager, FaultPlan)> = (0..MODES.len())
        .map(|mode| {
            let launcher = new_launcher();
            let scr = new_scr(&launcher);
            let plan = fault_plan(ctx.seed, &cfg, &launcher, mode);
            (launcher, scr, plan)
        })
        .collect();
    let mut rep = Rep {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Rep::default()
    };

    let steps = u64::from(cfg.steps);
    let (mut ckpts, mut recoveries, mut resume_step) = (0u32, 0u32, 0u32);
    for (i, (mode, (launcher, scr, plan))) in MODES.iter().zip(systems).enumerate() {
        let (report, run_s): (ResilientReport, f64) = {
            let _span = trace::span("xpic.run_resilient");
            probe::seconds(|| {
                run_resilient(
                    &launcher,
                    SOLVER_RANKS,
                    &cfg,
                    &scr,
                    &recovery(*mode, 1),
                    Some(plan),
                )
            })
        };
        let flip = u64::from(ctx.inject_corruption && i == 0);
        let bits = [
            report.field_energy.to_bits() ^ flip,
            report.kinetic_energy.to_bits(),
        ];
        let resumed = report.resume_steps.first().copied().unwrap_or(0);
        let sound = bits == clean.energy_bits
            && report.steps == cfg.steps
            && report.recoveries >= 1
            && resumed >= 1;
        rep.timed_s += run_s;
        rep.ops += steps;
        rep.failed += if sound { 0 } else { steps };
        ckpts += report.ckpts_taken;
        recoveries += report.recoveries;
        resume_step += resumed;
        let [host_s, block, makespan] = MODE_METRICS[i];
        rep.values.extend([
            (host_s, run_s),
            (block, report.ckpt_block.as_secs()),
            (makespan, report.makespan.as_secs()),
        ]);
        rep.fingerprint.extend(bits);
    }
    rep.values.extend([
        ("scr.ckpts_taken", f64::from(ckpts)),
        ("scr.recoveries", f64::from(recoveries)),
        ("scr.resume_step", f64::from(resume_step)),
    ]);
    rep
}

pub fn layers(ctx: &Ctx, _pass: &TracedPass, m: &mut Metrics) {
    let cfg = config(ctx);

    // One rank's state, as the solver world would checkpoint it.
    let grid = Grid::slab(cfg.nx, cfg.ny, 0, SOLVER_RANKS);
    let fields = Fields::zeros(&grid);
    let mut species = vec![Species::maxwellian_charged(
        &grid,
        cfg.sim_particles_per_cell,
        cfg.vth,
        -1.0,
        -1.0,
        cfg.seed,
    )];
    let blob = pack_state(&species, &fields);
    let pack_ns = probe::ns_per_call(8, || {
        black_box(pack_state(black_box(&species), &fields));
    });
    m.set(
        "xpic.pack_state_mb_per_s",
        probe::mb_per_s(blob.len(), pack_ns),
    );
    let unpack_ns = probe::ns_per_call(8, || {
        black_box(unpack_state(black_box(&blob), &grid));
    });
    m.set(
        "xpic.unpack_state_mb_per_s",
        probe::mb_per_s(blob.len(), unpack_ns),
    );

    // scr: a Buddy checkpoint and a restart of two such blobs.
    let launcher = new_launcher();
    let blobs = vec![blob.clone(); SOLVER_RANKS];
    let mut id = 0u64;
    let scr = new_scr(&launcher);
    m.set(
        "scr.checkpoint_ms",
        probe::ns_per_call(4, || {
            id += 1;
            scr.checkpoint(id, CheckpointLevel::Buddy, black_box(&blobs))
                .expect("one blob per rank");
        }) / 1e6,
    );
    m.set(
        "scr.restart_ms",
        probe::ns_per_call(4, || {
            black_box(scr.restart().expect("a checkpoint is recoverable"));
        }) / 1e6,
    );

    // scr::delta: the state one push later, against the state before.
    boris_push(&grid, &fields, &mut species[0], cfg.dt);
    let next = pack_state(&species, &fields);
    let frame = delta::encode_delta(&blob, &next, 1);
    let encode_ns = probe::ns_per_call(8, || {
        black_box(delta::encode_delta(black_box(&blob), black_box(&next), 1));
    });
    m.set(
        "scr.delta_encode_mb_per_s",
        probe::mb_per_s(next.len(), encode_ns),
    );
    let decode_ns = probe::ns_per_call(8, || {
        black_box(delta::decode(black_box(&frame), Some(&blob)).expect("a frame we encoded"));
    });
    m.set(
        "scr.delta_decode_mb_per_s",
        probe::mb_per_s(next.len(), decode_ns),
    );
    m.set(
        "scr.delta_wire_ratio",
        frame.len() as f64 / delta::encode_full(&next).len() as f64,
    );

    // psmpi: the collective spawn of the solver world from the lone
    // supervisor rank, as `run_resilient` does it.
    let spawn_us = Arc::new(Mutex::new(0.0f64));
    let spawn_us_in = spawn_us.clone();
    let supervised = JobSpec::partitioned("spawn", 1, SOLVER_RANKS).boot_on(ModuleKind::Cluster);
    new_launcher()
        .launch(&supervised, move |rank, alloc| {
            let ns = probe::ns_per_call(8, || {
                black_box(rank.spawn_world(&alloc.booster, |_child| {}))
                    .expect("spawn onto the allocated Booster nodes");
            });
            *spawn_us_in.lock().expect("only this rank writes") = ns / 1e3;
        })
        .expect("the system has one Cluster and two Booster nodes");
    m.set(
        "psmpi.comm_spawn_us",
        *spawn_us.lock().expect("the job has been joined"),
    );

    // The job's message counts, from one Sync run with the virtual-time
    // recorder attached.
    let launcher = new_launcher();
    let recorder = Recorder::new();
    launcher.universe().attach_obs(recorder.clone());
    let scr = new_scr(&launcher);
    let plan = fault_plan(ctx.seed, &cfg, &launcher, 0);
    run_resilient(
        &launcher,
        SOLVER_RANKS,
        &cfg,
        &scr,
        &recovery(CkptMode::Sync, 1),
        Some(plan),
    );
    let snapshot = recorder.snapshot();
    m.set(
        "psmpi.msgs_sent",
        super::obs_counter(&snapshot, "msgs_sent"),
    );
    m.set(
        "psmpi.bytes_sent",
        super::obs_counter(&snapshot, "bytes_sent"),
    );
}
