//! Scheduler-load benchmark: a 1000+-job production trace through the
//! `sched` workload engine, reproducing the paper's independent-vs-
//! node-locked reservation comparison (§II-A) at trace scale.
//!
//! The same seeded bursty workload and the same seeded fault plan run
//! twice on a 64 CN + 128 BN machine: once with independent per-module
//! reservation (the Cluster-Booster model), once with Booster access
//! node-locked to host nodes at a fixed accelerator:host ratio (the
//! accelerated-cluster model). Makespan, queue-wait percentiles, module
//! utilizations, backfill efficiency, and the faults/requeues processed
//! land in the `--out` file (none is written without the flag) under
//! `independent.*` / `node_locked.*` prefixes plus `comparison.*` ratios.
//! `--trace-out` writes the independent run as a Chrome trace, one track
//! per job (`sched::chrome_trace`).
//!
//! Both files are pure virtual-time output and must come out
//! byte-identical across host thread counts, the `--out` file across
//! commits too — ci.sh runs `--threads 1` and `--threads 2`, compares both
//! `--out` files with `sched_smoke.metrics` and the two traces with each
//! other. `--threads` is handed to the engine, which is one sequential
//! loop and ignores it. Wall-clock cost of the simulation itself goes to
//! stdout only.
//!
//! `--smoke` is the CI regression gate: the independent run must schedule
//! the full trace with at least one backfill start, at least one
//! fault-driven requeue, malleable expansion and shrink both exercised,
//! and a makespan strictly better than node-locked.

use cluster_booster::resources::AllocationPolicy;
use hwmodel::SimTime;
use obs::HostMetrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sched::{
    chrome_trace, generate, report_metrics, CheckpointPolicy, Engine, EngineConfig, EngineReport,
    WorkloadConfig,
};
use std::time::Instant;

/// Machine shape: Cluster nodes.
const CLUSTER_NODES: u32 = 64;
/// Machine shape: Booster nodes.
const BOOSTER_NODES: u32 = 128;
/// Node-locked comparison: Booster nodes dragged per host node.
const LOCK_RATIO: u32 = 2;
/// Per-node MTBF (s): ~250 h, giving a handful of faults over a
/// multi-day trace on 192 nodes.
const NODE_MTBF_S: f64 = 900_000.0;
/// Smoke gate: the trace must really be production-sized.
const SMOKE_MIN_JOBS: usize = 1000;

fn engine_config(policy: AllocationPolicy, threads: usize, system_mtbf: SimTime) -> EngineConfig {
    EngineConfig {
        policy,
        threads,
        // Local/buddy/global checkpoint costs in the PR-5 regime.
        ckpt: Some(CheckpointPolicy::derive(
            SimTime::from_secs(30.0),
            SimTime::from_secs(120.0),
            SimTime::from_secs(600.0),
            system_mtbf,
        )),
        repair_after: Some(SimTime::from_secs(4.0 * 3600.0)),
        ..EngineConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut jobs = 1200usize;
    let mut seed = 20180521u64; // IPDPS 2018
    let mut threads = 1usize;
    let mut out_path = None;
    let mut trace_path = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                i += 1;
                jobs = args[i].parse().expect("--jobs <n>");
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed <n>");
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads <n>");
            }
            "--out" => {
                i += 1;
                out_path = Some(args[i].clone());
            }
            "--trace-out" => {
                i += 1;
                trace_path = Some(args[i].clone());
            }
            _ => {}
        }
        i += 1;
    }

    // Jobs sized up to half the machine per module: big enough to block
    // the head (exercising reservations and backfill), small enough that
    // every job can run even with nodes down. Arrival rates put the
    // machine near saturation in steady state and past it during bursts
    // (the heavy-traffic phases), so queues form and drain rather than
    // growing without bound.
    let mut wl = WorkloadConfig::bursty(
        seed,
        jobs,
        CLUSTER_NODES as usize / 2,
        BOOSTER_NODES as usize / 2,
    );
    wl.arrivals = sched::ArrivalModel::Bursty {
        base_rate_per_hour: 12.0,
        burst_rate_per_hour: 120.0,
        burst_every: SimTime::from_secs(4.0 * 3600.0),
        burst_len: SimTime::from_secs(1800.0),
    };
    let trace = generate(&wl);
    let span = trace
        .iter()
        .map(|j| j.submit)
        .max()
        .unwrap_or(SimTime::ZERO);

    let build_system = || {
        cluster_booster::SystemBuilder::new("sched-load")
            .cluster_nodes(CLUSTER_NODES)
            .booster_nodes(BOOSTER_NODES)
            .build()
    };
    let system = build_system();
    let fm = scr::FailureModel::new(SimTime::from_secs(NODE_MTBF_S));
    let system_mtbf = fm.system_mtbf(system.total_nodes());
    // Faults over the submission span plus drain slack, from the bench's
    // own seeded stream (independent of the workload stream).
    let mut frng = StdRng::seed_from_u64(seed ^ 0x5EED_FA17);
    let mut all_nodes = system.cluster_nodes();
    all_nodes.extend(system.booster_nodes());
    let faults = fm.fault_plan(
        &mut frng,
        &all_nodes,
        span + SimTime::from_secs(6.0 * 3600.0),
    );

    let run = |policy: AllocationPolicy| -> (EngineReport, f64) {
        let eng = Engine::new(build_system(), engine_config(policy, threads, system_mtbf));
        let t0 = Instant::now();
        let r = eng.run(&trace, &faults);
        (r, t0.elapsed().as_secs_f64())
    };
    let (ind, wall_ind) = run(AllocationPolicy::Independent);
    let (locked, wall_locked) = run(AllocationPolicy::NodeLocked { ratio: LOCK_RATIO });

    let mut m = HostMetrics::new();
    m.set("config.jobs", trace.len() as f64);
    m.set("config.seed", seed as f64);
    m.set("config.cluster_nodes", CLUSTER_NODES as f64);
    m.set("config.booster_nodes", BOOSTER_NODES as f64);
    m.set("config.lock_ratio", LOCK_RATIO as f64);
    m.set("config.node_mtbf_s", NODE_MTBF_S);
    m.set("config.planned_faults", faults.node_faults().len() as f64);
    m.set("config.submit_span_s", span.as_secs());
    report_metrics(&ind, "independent.", &mut m);
    report_metrics(&locked, "node_locked.", &mut m);
    m.set(
        "comparison.makespan_ratio",
        locked.makespan.as_secs() / ind.makespan.as_secs(),
    );
    let p99_ind = m.get("independent.wait_p99_s").expect("reported");
    let p99_locked = m.get("node_locked.wait_p99_s").expect("reported");
    m.set("comparison.p99_wait_ratio", p99_locked / p99_ind.max(1e-9));

    if let Some(path) = &out_path {
        let json = format!("{{\n \"metrics\": {}}}\n", m.to_json());
        std::fs::write(path, json).expect("write the --out file");
    }

    if let Some(path) = &trace_path {
        std::fs::write(path, chrome_trace(&ind, &trace)).expect("write the --trace-out file");
    }

    // Wall-clock is host-dependent: stdout only, never the artifact.
    println!(
        "sched: {} jobs over {:.1} h submit span, {} planned faults — independent makespan \
         {:.1} h (p99 wait {:.0} s, {} backfills, {} requeues) vs node-locked {:.1} h; \
         simulated in {:.2}+{:.2} s wall",
        trace.len(),
        span.as_secs() / 3600.0,
        faults.node_faults().len(),
        ind.makespan.as_secs() / 3600.0,
        p99_ind,
        ind.backfill_starts,
        ind.requeues,
        locked.makespan.as_secs() / 3600.0,
        wall_ind,
        wall_locked,
    );

    if smoke {
        assert!(
            trace.len() >= SMOKE_MIN_JOBS && ind.completed == trace.len(),
            "sched smoke: scheduled {}/{} jobs, need the full >= {SMOKE_MIN_JOBS}-job trace",
            ind.completed,
            trace.len()
        );
        assert!(
            ind.backfill_starts >= 1,
            "sched smoke: EASY backfill never fired"
        );
        assert!(
            ind.requeues >= 1,
            "sched smoke: no fault-driven requeue happened ({} faults planned)",
            faults.node_faults().len()
        );
        assert!(
            ind.expands >= 1 && ind.shrinks >= 1,
            "sched smoke: malleability not exercised (expands {}, shrinks {})",
            ind.expands,
            ind.shrinks
        );
        assert!(
            ind.makespan < locked.makespan,
            "sched smoke: independent reservation ({:.0} s) must beat node-locked ({:.0} s)",
            ind.makespan.as_secs(),
            locked.makespan.as_secs()
        );
        let violations = ind.reservation_violations();
        assert!(
            violations.is_empty(),
            "sched smoke: {} head reservations violated",
            violations.len()
        );
        println!(
            "sched smoke OK: {} jobs, p99 wait {:.0} s, makespan ratio {:.3}",
            trace.len(),
            p99_ind,
            locked.makespan.as_secs() / ind.makespan.as_secs()
        );
    }
}
