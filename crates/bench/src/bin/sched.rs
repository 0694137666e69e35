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
//! Both files are pure virtual-time output: the engine is one sequential
//! loop, so a run is a function of its arguments alone. ci.sh runs the
//! smoke twice with the same arguments, compares both `--out` files with
//! `sched_smoke.metrics` (the `--out` file is pinned across commits) and
//! the two traces with each other. Wall-clock cost of the simulation
//! itself goes to stdout only.
//!
//! `--smoke` is the CI regression gate: the independent run must schedule
//! the full trace with at least one backfill start, at least one
//! fault-driven requeue, malleable expansion and shrink both exercised,
//! and a makespan strictly better than node-locked.

use cb_bench::obs_run::flag_value;
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

fn engine_config(policy: AllocationPolicy, system_mtbf: SimTime) -> EngineConfig {
    EngineConfig {
        policy,
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

/// The command line.
#[derive(Debug, PartialEq)]
struct Cli {
    smoke: bool,
    jobs: usize,
    seed: u64,
    out_path: Option<String>,
    trace_path: Option<String>,
}

/// Parse argv (everything after the program name). An unknown argument, a
/// flag without its value or a value that does not parse is an error
/// naming the argument.
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        smoke: false,
        jobs: 1200,
        seed: 20180521, // IPDPS 2018
        out_path: None,
        trace_path: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--jobs" => cli.jobs = flag_value(&mut args, arg)?,
            "--seed" => cli.seed = flag_value(&mut args, arg)?,
            "--out" => cli.out_path = Some(flag_value(&mut args, arg)?),
            "--trace-out" => cli.trace_path = Some(flag_value(&mut args, arg)?),
            s => return Err(format!("unknown argument `{s}`")),
        }
    }
    Ok(cli)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the scheduler-load bench: argv selects trace shape/seed and Instant times the host-side cost of simulating the trace for stdout; the engine underneath is one sequential virtual-time loop and the `--out` file is byte-identical run to run and pinned across commits"
)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        smoke,
        jobs,
        seed,
        out_path,
        trace_path,
    } = parse_cli(&args).unwrap_or_else(|e| {
        eprintln!("sched: {e}");
        std::process::exit(2)
    });

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
        let eng = Engine::new(build_system(), engine_config(policy, system_mtbf));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cli_parses_flags_and_rejects_the_rest() {
        let cli = parse(&["--smoke", "--jobs", "40", "--out", "m.json"]).unwrap();
        assert!(cli.smoke);
        assert_eq!((cli.jobs, cli.seed), (40, 20180521));
        assert_eq!(cli.out_path.as_deref(), Some("m.json"));
        assert_eq!(cli.trace_path, None);
        assert!(parse(&["--trace_out", "t.json"])
            .unwrap_err()
            .contains("`--trace_out`"));
        assert!(parse(&["--jobs", "many"]).unwrap_err().contains("`many`"));
        assert!(parse(&["--threads", "2"])
            .unwrap_err()
            .contains("`--threads`"));
        assert!(parse(&["--seed"])
            .unwrap_err()
            .contains("`--seed` needs a value"));
    }
}
