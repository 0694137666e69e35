//! `xpic_fig7`: the paper's application at the Fig. 7 shape.
//!
//! One node per solver, run Cluster-only, Booster-only and C+B through
//! `xpic::run_mode`, on a simulation grid enlarged to 128 x 128 cells x 32
//! particles per cell so that the mover, the moment deposit and the CG
//! field solve do the work; `psmpi` carries only the interface exchange
//! between at most 2 rank threads. An operation is one particle push.

use crate::harness::{Ctx, Rep, TracedPass};
use crate::metrics::Metrics;
use crate::{probe, trace};
use cluster_booster::presets::deep_er_prototype;
use cluster_booster::{JobSpec, Launcher};
use hwmodel::presets::deep_er_cluster_node;
use hwmodel::{CostModel, WorkSpec};
use obs::Recorder;
use std::hint::black_box;
use std::time::Instant;
use xpic::config::kernel;
use xpic::moments::deposit;
use xpic::mover::{boris_push, boris_push_threads};
use xpic::{run_mode, Fields, Grid, Mode, Moments, Species, XpicConfig};

const MODES: [(Mode, &str); 3] = [
    (Mode::ClusterOnly, "cluster"),
    (Mode::BoosterOnly, "booster"),
    (Mode::ClusterBooster, "cb"),
];
/// Per mode: host seconds of `run_mode`, then the model's total, field
/// and particle seconds.
const MODE_METRICS: [[&str; 4]; 3] = [
    [
        "xpic.run_mode_s.cluster",
        "virtual.xpic_total_s.cluster",
        "virtual.field_s.cluster",
        "virtual.particle_s.cluster",
    ],
    [
        "xpic.run_mode_s.booster",
        "virtual.xpic_total_s.booster",
        "virtual.field_s.booster",
        "virtual.particle_s.booster",
    ],
    [
        "xpic.run_mode_s.cb",
        "virtual.xpic_total_s.cb",
        "virtual.field_s.cb",
        "virtual.particle_s.cb",
    ],
];

fn config(ctx: &Ctx) -> XpicConfig {
    let (n, ppc, steps) = if ctx.quick { (16, 4, 2) } else { (128, 32, 4) };
    XpicConfig {
        nx: n,
        ny: n,
        sim_particles_per_cell: ppc,
        threads: 1,
        seed: ctx.seed ^ 0x0F16_0007,
        ..XpicConfig::paper_bench(steps)
    }
}

fn new_launcher() -> Launcher {
    let _span = trace::span("core.launcher_new");
    Launcher::new(deep_er_prototype())
}

pub fn rep(ctx: &Ctx) -> Rep {
    let cfg = config(ctx);
    let t0 = Instant::now();
    let launchers: Vec<Launcher> = MODES.iter().map(|_| new_launcher()).collect();
    let setup_s = t0.elapsed().as_secs_f64();

    let pushes_per_mode = cfg.sim_particles() as u64 * u64::from(cfg.steps);
    // Electrons carry -1 per cell in total.
    let want_charge = -(cfg.cells() as f64);
    let mut rep = Rep {
        setup_s,
        ..Rep::default()
    };
    let mut cg_iters = 0u64;
    for (i, ((mode, _), launcher)) in MODES.iter().zip(&launchers).enumerate() {
        let (report, run_s) = {
            let _span = trace::span("xpic.run_mode");
            probe::seconds(|| run_mode(launcher, *mode, 1, &cfg))
        };
        let charge = report.total_charge + if ctx.inject_corruption { 1.0 } else { 0.0 };
        let sound = (charge - want_charge).abs() <= 1e-9 * want_charge.abs()
            && report.kinetic_energy > 0.0
            && report.field_energy.is_finite()
            && report.steps == cfg.steps;
        rep.timed_s += run_s;
        rep.ops += pushes_per_mode;
        rep.failed += if sound { 0 } else { pushes_per_mode };
        cg_iters += report.cg_iters;
        let [host_s, total, field, particle] = MODE_METRICS[i];
        rep.values.extend([
            (host_s, run_s),
            (total, report.total.as_secs()),
            (field, report.field_time.as_secs()),
            (particle, report.particle_time.as_secs()),
        ]);
        if *mode == Mode::ClusterBooster {
            rep.values
                .push(("virtual.coupling_frac", report.coupling_fraction()));
        }
        rep.fingerprint.extend([
            report.field_energy.to_bits(),
            report.kinetic_energy.to_bits(),
        ]);
    }
    rep.values.push(("xpic.cg_iters", cg_iters as f64));
    rep
}

pub fn layers(ctx: &Ctx, _pass: &TracedPass, m: &mut Metrics) {
    let cfg = config(ctx);

    // hwmodel and core: the calls every xPic step and launch goes through.
    let node = deep_er_cluster_node();
    let push = WorkSpec::named("push")
        .flops(kernel::FLOPS_PER_PUSH * cfg.sim_particles() as f64)
        .bytes(kernel::BYTES_PER_PUSH * cfg.sim_particles() as f64)
        .vector_fraction(kernel::PUSH_VF)
        .parallel_fraction(kernel::PUSH_PF)
        .build();
    m.set(
        "hwmodel.cost_eval_ns",
        probe::ns_per_call(100_000, || {
            black_box(CostModel.time(black_box(&node), black_box(&push)));
        }),
    );
    m.set(
        "core.launcher_new_us",
        probe::ns_per_call(20, || {
            black_box(Launcher::new(deep_er_prototype()));
        }) / 1e3,
    );
    let launcher = Launcher::new(deep_er_prototype());
    let one_node = JobSpec::cluster_only("empty", 1);
    m.set(
        "core.launch_empty_us",
        probe::ns_per_call(20, || {
            black_box(launcher.launch(&one_node, |_rank, _alloc| {}))
                .expect("one Cluster node is free");
        }) / 1e3,
    );

    // xpic: the two particle kernels on one slab of the workload's size.
    let grid = Grid::slab(cfg.nx, cfg.ny, 0, 1);
    let fields = Fields::zeros(&grid);
    let mut species = Species::maxwellian_charged(
        &grid,
        cfg.sim_particles_per_cell,
        cfg.vth,
        -1.0,
        -1.0,
        cfg.seed,
    );
    let mut moments = Moments::zeros(&grid);
    let particles = species.len() as f64;
    let push_ns = probe::ns_per_call(3, || boris_push(&grid, &fields, &mut species, cfg.dt));
    let push_par_ns = probe::ns_per_call(3, || {
        boris_push_threads(&grid, &fields, &mut species, cfg.dt, 1)
    });
    let deposit_ns = probe::ns_per_call(3, || {
        moments.clear();
        deposit(&grid, &species, &mut moments);
    });
    black_box(&moments);
    m.set("xpic.mover_mpart_per_s", particles / push_ns * 1e3);
    m.set("xpic.deposit_mpart_per_s", particles / deposit_ns * 1e3);
    m.set(
        "xpic.mover_par_overhead_frac",
        (push_par_ns - push_ns) / push_ns,
    );
    let cluster_s = m
        .get("xpic.run_mode_s.cluster")
        .expect("the repetitions time every mode");
    m.set(
        "xpic.kernel_share_frac",
        (push_ns + deposit_ns) * 1e-9 * f64::from(cfg.steps) / cluster_s,
    );

    // obs: one C+B run with the virtual-time recorder attached. Its trace
    // carries the job's message counts and the model's time split.
    let launcher = Launcher::new(deep_er_prototype());
    let recorder = Recorder::new();
    launcher.universe().attach_obs(recorder.clone());
    let (_, attached_s) = probe::seconds(|| run_mode(&launcher, Mode::ClusterBooster, 1, &cfg));
    let cb_s = m
        .get("xpic.run_mode_s.cb")
        .expect("the repetitions time every mode");
    m.set("obs.attach_overhead_frac", (attached_s - cb_s) / cb_s);
    let snapshot = recorder.snapshot();
    m.set(
        "psmpi.msgs_sent",
        super::obs_counter(&snapshot, "msgs_sent"),
    );
    m.set(
        "psmpi.bytes_sent",
        super::obs_counter(&snapshot, "bytes_sent"),
    );
    let kspans = snapshot.tracks.iter().map(|t| t.spans.len()).sum::<usize>() as f64 / 1e3;
    let (profile, profile_s) = probe::seconds(|| snapshot.profile());
    m.set("obs.profile_us_per_kspan", profile_s * 1e6 / kspans);
    let (_, path_s) = probe::seconds(|| black_box(snapshot.critical_path()));
    m.set("obs.critical_path_us_per_kspan", path_s * 1e6 / kspans);
    let (chrome, chrome_s) = probe::seconds(|| snapshot.chrome_json());
    m.set(
        "obs.chrome_json_mb_per_s",
        chrome.len() as f64 / 1e6 / chrome_s,
    );
    let busy = profile.total();
    m.set("virtual.compute_s", busy.compute.as_secs());
    m.set("virtual.wire_s", busy.comm.as_secs());
    m.set("virtual.wait_s", busy.wait.as_secs());
    let unphased = profile
        .modules
        .get("(unphased)")
        .map_or(0.0, |b| b.total().as_secs());
    m.set("virtual.unphased_frac", unphased / busy.total().as_secs());
}
