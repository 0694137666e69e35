//! `sched_trace`: the control workload, with no message passing at all.
//!
//! Four seeded, bursty traces of 3 000 jobs each, with seeded node faults,
//! run through `sched::Engine::run` on 64 Cluster + 128 Booster nodes, once
//! with independent per-module reservation and once with Booster nodes
//! locked to host nodes. It is one thread running a pure event loop: a
//! change to messaging or to the particle kernels must leave it where it
//! was. An operation is one job completed, under either policy.

use crate::harness::{Ctx, Rep, TracedPass};
use crate::metrics::Metrics;
use crate::{probe, trace};
use cluster_booster::resources::AllocationPolicy;
use cluster_booster::{ResourceManager, System, SystemBuilder};
use hwmodel::{NodeId, SimTime};
use obs::HostMetrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sched::{
    generate, report_metrics, ArrivalModel, CheckpointPolicy, Engine, EngineConfig, EngineEvent,
    EngineReport, TraceJob, WorkloadConfig,
};
use scr::FailureModel;
use simnet::FaultPlan;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

const CLUSTER_NODES: u32 = 64;
const BOOSTER_NODES: u32 = 128;
/// Booster nodes dragged along per host node in the node-locked run.
const LOCK_RATIO: u32 = 2;
/// Per-node mean time between failures: about 250 h, a handful of faults
/// over a multi-day trace on 192 nodes.
const NODE_MTBF_S: f64 = 900_000.0;
const POLICIES: [(AllocationPolicy, &str, &str); 2] = [
    (
        AllocationPolicy::Independent,
        "sched.engine_run_s.independent",
        "virtual.sched_makespan_h.independent",
    ),
    (
        AllocationPolicy::NodeLocked { ratio: LOCK_RATIO },
        "sched.engine_run_s.node_locked",
        "virtual.sched_makespan_h.node_locked",
    ),
];

/// Traces per repetition. How long the node-locked run takes depends on
/// how badly a trace's bursts pile up, which differs from seed to seed by
/// a third; the sum over four traces differs by half as much.
const TRACES: usize = 4;

fn jobs_per_trace(ctx: &Ctx) -> usize {
    if ctx.quick {
        150
    } else {
        3_000
    }
}

fn build_system() -> System {
    let _span = trace::span("core.system_build");
    SystemBuilder::new("sched-trace")
        .cluster_nodes(CLUSTER_NODES)
        .booster_nodes(BOOSTER_NODES)
        .build()
}

/// Jobs sized up to half of each module, arriving near saturation between
/// bursts and past it during them, so that queues form and drain: the
/// shape of the repository's `sched` binary.
fn workload(seed: u64, jobs: usize) -> WorkloadConfig {
    let mut wl = WorkloadConfig::bursty(
        seed,
        jobs,
        CLUSTER_NODES as usize / 2,
        BOOSTER_NODES as usize / 2,
    );
    wl.arrivals = ArrivalModel::Bursty {
        base_rate_per_hour: 12.0,
        burst_rate_per_hour: 120.0,
        burst_every: SimTime::from_secs(4.0 * 3600.0),
        burst_len: SimTime::from_secs(1800.0),
    };
    wl
}

fn engine_config(policy: AllocationPolicy, system_mtbf: SimTime) -> EngineConfig {
    EngineConfig {
        policy,
        threads: 1,
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

/// How many head reservations the run broke: `EngineReport::
/// reservation_violations` with the start events indexed by job first. The
/// library's own check scans the whole event log once per reservation,
/// which at this trace size takes longer than the two engine runs; the
/// smoke test holds the two checks equal on a small trace.
pub fn reservation_violations(report: &EngineReport) -> usize {
    let mut starts: BTreeMap<u64, Vec<SimTime>> = BTreeMap::new();
    let mut faults: Vec<SimTime> = Vec::new();
    for event in &report.events {
        match event {
            EngineEvent::Start { t, id, .. } => starts.entry(*id).or_default().push(*t),
            EngineEvent::Fault { t, .. } => faults.push(*t),
            _ => {}
        }
    }
    report
        .reservations
        .iter()
        .filter(|r| {
            // The promised start, with a few ulps of slack: the engine
            // accumulates the completion time the shadow predicts in one
            // step.
            let slack = 1e-9_f64.max(r.shadow.as_secs() * 1e-9);
            let bound = SimTime::from_secs(r.shadow.as_secs() + slack);
            starts
                .get(&r.id)
                .and_then(|s| s.iter().find(|&&s| s >= r.t))
                // A fault between promise and start voids the promise.
                .is_some_and(|&s| s > bound && !faults.iter().any(|&f| f >= r.t && f <= s))
        })
        .count()
}

/// One of the repetition's traces, with the faults that strike during it.
struct Input {
    jobs: Vec<TraceJob>,
    faults: FaultPlan,
}

pub fn rep(ctx: &Ctx) -> Rep {
    let jobs = jobs_per_trace(ctx);
    let t0 = Instant::now();
    let failures = FailureModel::new(SimTime::from_secs(NODE_MTBF_S));
    let system_mtbf = failures.system_mtbf((CLUSTER_NODES + BOOSTER_NODES) as usize);
    let (mut generate_s, mut plan_s) = (0.0, 0.0);
    let inputs: Vec<Input> = (0..TRACES as u64)
        .map(|k| {
            let seed = ctx.seed ^ ((k + 1) << 40);
            let (jobs, s) = {
                let _span = trace::span("sched.generate");
                probe::seconds(|| generate(&workload(seed, jobs)))
            };
            generate_s += s;
            let span = jobs.iter().map(|j| j.submit).max().unwrap_or(SimTime::ZERO);
            // Faults over the submission span plus drain slack, from a
            // stream of their own.
            let (faults, s) = {
                let _span = trace::span("scr.fault_plan");
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_FA17);
                let nodes: Vec<NodeId> = (0..CLUSTER_NODES + BOOSTER_NODES).map(NodeId).collect();
                let horizon = span + SimTime::from_secs(6.0 * 3600.0);
                probe::seconds(|| failures.fault_plan(&mut rng, &nodes, horizon))
            };
            plan_s += s;
            Input { jobs, faults }
        })
        .collect();
    // One fresh machine per trace and policy.
    let engines: Vec<Vec<Engine>> = POLICIES
        .iter()
        .map(|&(policy, _, _)| {
            (0..TRACES)
                .map(|_| Engine::new(build_system(), engine_config(policy, system_mtbf)))
                .collect()
        })
        .collect();
    let mut rep = Rep {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Rep::default()
    };
    rep.values.extend([
        (
            "sched.generate_jobs_per_s",
            (TRACES * jobs) as f64 / generate_s,
        ),
        ("scr.fault_plan_us", plan_s * 1e6 / TRACES as f64),
    ]);

    // reports[policy][trace]
    let mut reports: Vec<Vec<EngineReport>> = Vec::new();
    let mut makespans = [SimTime::ZERO; 2];
    for (p, (engines, &(_, host_s, makespan_h))) in engines.iter().zip(&POLICIES).enumerate() {
        let mut policy_s = 0.0;
        let mut of_policy = Vec::new();
        for (engine, input) in engines.iter().zip(&inputs) {
            let (report, run_s) = {
                let _span = trace::span("sched.engine_run");
                probe::seconds(|| engine.run(&input.jobs, &input.faults))
            };
            policy_s += run_s;
            makespans[p] += report.makespan;
            of_policy.push(report);
        }
        rep.timed_s += policy_s;
        rep.values.extend([
            (host_s, policy_s),
            (makespan_h, makespans[p].as_secs() / 3600.0),
        ]);
        reports.push(of_policy);
    }

    // The scheduler-level report of every run. It is virtual-time output,
    // so every repetition must produce it byte for byte.
    let (summaries, report_s) = {
        let _span = trace::span("sched.report");
        probe::seconds(|| {
            let mut m = HostMetrics::new();
            for (of_policy, prefix) in reports.iter().zip(["independent", "node_locked"]) {
                for (k, report) in of_policy.iter().enumerate() {
                    report_metrics(report, &format!("{prefix}.{k}."), &mut m);
                }
            }
            m.to_json()
        })
    };
    let mut hasher = DefaultHasher::new();
    summaries.hash(&mut hasher);
    rep.fingerprint.push(hasher.finish());

    let lost = usize::from(ctx.inject_corruption);
    let (mut violations, mut events, mut backfills, mut requeues) = (0, 0, 0, 0);
    for (independent, locked) in reports[0].iter().zip(&reports[1]) {
        let broken = reservation_violations(independent) + reservation_violations(locked);
        // Independent reservation must finish this trace sooner.
        let sound = broken == 0 && independent.makespan < locked.makespan;
        for report in [independent, locked] {
            let completed = (report.completed - lost).min(jobs);
            rep.ops += jobs as u64;
            rep.failed += if sound { jobs - completed } else { jobs } as u64;
            events += report.events.len();
            backfills += report.backfill_starts;
            requeues += report.requeues;
        }
        violations += broken;
    }
    let mut waits: Vec<f64> = reports[0]
        .iter()
        .flat_map(|r| r.waits.iter().map(|w| w.as_secs()))
        .collect();
    waits.sort_by(|a, b| a.partial_cmp(b).expect("queue waits are not NaN"));
    rep.values.extend([
        ("sched.report_ms", report_s * 1e3),
        ("sched.events_per_s", events as f64 / rep.timed_s),
        ("sched.events", events as f64),
        ("sched.backfills", backfills as f64),
        ("sched.requeues", requeues as f64),
        ("sched.reservation_violations", violations as f64),
        ("virtual.sched_p99_wait_s", obs::percentile(&waits, 0.99)),
        (
            "virtual.sched_makespan_ratio",
            makespans[1].as_secs() / makespans[0].as_secs(),
        ),
    ]);
    rep
}

pub fn layers(_ctx: &Ctx, _pass: &TracedPass, m: &mut Metrics) {
    // simnet: the fair-share split the engine recomputes as jobs come and
    // go, at 64 competing demands.
    let demands: Vec<f64> = (0..64).map(|i| 0.5 + (i % 7) as f64).collect();
    m.set(
        "simnet.max_min_shares_us",
        probe::ns_per_call(10_000, || {
            black_box(simnet::max_min_shares(black_box(&demands), 100.0));
        }) / 1e3,
    );
    // core: one allocate/release pair, the engine's unit of node
    // bookkeeping.
    let system = build_system();
    let resources = ResourceManager::new(&system);
    m.set(
        "core.alloc_release_ns",
        probe::ns_per_call(10_000, || {
            let alloc = resources.allocate(8, 16).expect("the machine is empty");
            resources
                .release(black_box(&alloc))
                .expect("just allocated");
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::HeadReservation;

    fn run_small(policy: AllocationPolicy) -> EngineReport {
        let trace_jobs = generate(&workload(7, 300));
        let system = build_system();
        let failures = FailureModel::new(SimTime::from_secs(NODE_MTBF_S / 50.0));
        let mut nodes = system.cluster_nodes();
        nodes.extend(system.booster_nodes());
        let mut rng = StdRng::seed_from_u64(7);
        let faults = failures.fault_plan(&mut rng, &nodes, SimTime::from_secs(40.0 * 3600.0));
        let mtbf = failures.system_mtbf(system.total_nodes());
        Engine::new(system, engine_config(policy, mtbf)).run(&trace_jobs, &faults)
    }

    #[test]
    fn the_indexed_check_agrees_with_the_librarys_on_real_and_broken_reports() {
        for (policy, _, _) in POLICIES {
            let mut report = run_small(policy);
            assert!(report.faults > 0 && !report.reservations.is_empty());
            assert_eq!(
                reservation_violations(&report),
                report.reservation_violations().len()
            );
            // Break promises: claim every head was due at time zero.
            for r in &mut report.reservations {
                *r = HeadReservation {
                    shadow: SimTime::ZERO,
                    ..*r
                };
            }
            let broken = report.reservation_violations().len();
            assert!(broken > 0, "a start after a zero shadow is a violation");
            assert_eq!(reservation_violations(&report), broken);
        }
    }
}
