//! The scheduler-load run behind the `sched` binary: a 1000+-job production
//! trace through the `sched` workload engine, reproducing the paper's
//! independent-vs-node-locked reservation comparison (§II-A) at trace scale.
//!
//! The same seeded bursty workload and the same seeded fault plan run
//! twice on a 64 CN + 128 BN machine: once with independent per-module
//! reservation (the Cluster-Booster model), once with Booster access
//! node-locked to host nodes at a fixed accelerator:host ratio (the
//! accelerated-cluster model). [`SchedLoad::metrics`] holds the makespan,
//! queue-wait percentiles, module utilizations, backfill efficiency, and
//! the faults/requeues processed under `independent.*` / `node_locked.*`
//! prefixes plus `comparison.*` ratios. It is pure virtual-time output: the
//! engine is one sequential loop, so a run is a function of its arguments
//! alone, and `tests/full_stack.rs` pins [`SchedLoad::metric_lines`] at
//! [`JOBS`] and [`SEED`] across commits.

use cluster_booster::resources::AllocationPolicy;
use hwmodel::SimTime;
use obs::host::fmt_f64;
use obs::HostMetrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sched::{
    generate, report_metrics, CheckpointPolicy, Engine, EngineConfig, EngineReport, TraceJob,
    WorkloadConfig,
};
use simnet::FaultPlan;

/// The trace length of the smoke and the default run.
pub const JOBS: usize = 1200;
/// The default seed (IPDPS 2018).
pub const SEED: u64 = 20180521;
/// Machine shape: Cluster nodes.
const CLUSTER_NODES: u32 = 64;
/// Machine shape: Booster nodes.
const BOOSTER_NODES: u32 = 128;
/// Node-locked comparison: Booster nodes dragged per host node.
const LOCK_RATIO: u32 = 2;
/// Per-node MTBF (s): ~250 h, giving a handful of faults over a
/// multi-day trace on 192 nodes.
const NODE_MTBF_S: f64 = 900_000.0;

/// One run of the comparison.
pub struct SchedLoad {
    /// The generated trace.
    pub trace: Vec<TraceJob>,
    /// The last submission instant.
    pub span: SimTime,
    /// The node faults both policies see.
    pub faults: FaultPlan,
    /// Independent per-module reservation.
    pub independent: EngineReport,
    /// Booster access node-locked to host nodes.
    pub node_locked: EngineReport,
    /// The `--out` metrics (module docs).
    pub metrics: HostMetrics,
}

impl SchedLoad {
    /// [`SchedLoad::metrics`] one per line, `key=value`, each value the
    /// text the `--out` JSON prints.
    pub fn metric_lines(&self) -> String {
        let lines = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{k}={}\n", fmt_f64(v)));
        lines.collect()
    }
}

/// The engine under `policy`: checkpoints at local, buddy and global costs
/// of 30, 120 and 600 s, their interval and levels derived from
/// `system_mtbf` (`CheckpointPolicy::derive`), and a failed node repaired
/// after 4 h.
pub fn engine_config(policy: AllocationPolicy, system_mtbf: SimTime) -> EngineConfig {
    EngineConfig {
        policy,
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

/// Generate a `jobs`-job trace and its fault plan from `seed` and run it
/// under both policies.
pub fn run(jobs: usize, seed: u64) -> SchedLoad {
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

    let run = |policy: AllocationPolicy| {
        let eng = Engine::new(build_system(), engine_config(policy, system_mtbf));
        eng.run(&trace, &faults)
    };
    let independent = run(AllocationPolicy::Independent);
    let node_locked = run(AllocationPolicy::NodeLocked { ratio: LOCK_RATIO });

    let mut m = HostMetrics::new();
    m.set("config.jobs", trace.len() as f64);
    m.set("config.seed", seed as f64);
    m.set("config.cluster_nodes", CLUSTER_NODES as f64);
    m.set("config.booster_nodes", BOOSTER_NODES as f64);
    m.set("config.lock_ratio", LOCK_RATIO as f64);
    m.set("config.node_mtbf_s", NODE_MTBF_S);
    m.set("config.planned_faults", faults.node_faults().len() as f64);
    m.set("config.submit_span_s", span.as_secs());
    report_metrics(&independent, "independent.", &mut m);
    report_metrics(&node_locked, "node_locked.", &mut m);
    m.set(
        "comparison.makespan_ratio",
        node_locked.makespan.as_secs() / independent.makespan.as_secs(),
    );
    let p99_ind = m.get("independent.wait_p99_s").expect("reported");
    let p99_locked = m.get("node_locked.wait_p99_s").expect("reported");
    m.set("comparison.p99_wait_ratio", p99_locked / p99_ind.max(1e-9));
    SchedLoad {
        trace,
        span,
        faults,
        independent,
        node_locked,
        metrics: m,
    }
}
