//! The OmpSs-style offload abstraction (paper §III-B): annotate tasks with
//! data dependencies and a target device; the runtime lowers the graph
//! onto `MPI_Comm_spawn` (the Cluster rank spawns the Booster world and
//! each cross-module dependency is one message), and survives injected
//! task failures with the DEEP-ER resiliency features (§III-D).
//!
//! Run with: `cargo run --example ompss_offload`

use cluster_booster::presets::deep_er_prototype;
use cluster_booster::Launcher;
use hwmodel::WorkSpec;
use ompss::{DataStore, Device, TaskGraph};

fn work(name: &str, flops: f64, vf: f64) -> WorkSpec {
    WorkSpec::named(name)
        .flops(flops)
        .vector_fraction(vf)
        .parallel_fraction(0.99)
        .build()
}

// The tasks' actions, named so that the check below can run the same
// actions in program order on one store.

fn assemble(s: &mut DataStore) {
    let m: Vec<f64> = s.get("mesh").iter().map(|x| 2.0 * x + 1.0).collect();
    s.put("matrix", m);
}

fn solve(s: &mut DataStore) {
    let f: Vec<f64> = s.get("matrix").iter().map(|x| x / 3.0).collect();
    s.put("field", f);
}

fn init_particles(s: &mut DataStore) {
    s.put("particles", vec![0.5; 512]);
}

fn push(s: &mut DataStore) {
    let field: Vec<f64> = s.get("field").to_vec();
    let p = s.get_mut("particles");
    for (v, f) in p.iter_mut().zip(&field) {
        *v += 0.01 * f;
    }
    let m: f64 = s.get("particles").iter().sum();
    s.put("moments", vec![m]);
}

fn diagnose(s: &mut DataStore) {
    let m = s.get("moments")[0];
    s.put("result", vec![m / 512.0]);
}

fn initial_store() -> DataStore {
    let mut store = DataStore::new();
    store.put("mesh", (0..512).map(|i| i as f64).collect());
    store
}

fn main() {
    let launcher = Launcher::new(deep_er_prototype());

    // A miniature xPic-like pipeline as a task graph:
    //   assemble (Cluster) → solve (Cluster) ─┐
    //                                          ├→ push (Booster, offloaded)
    //   init-particles (Booster) ─────────────┘
    //   → reduce diagnostics (Cluster)
    let mut graph = TaskGraph::new();
    let mut store = initial_store();
    graph.add_task(
        "assemble",
        &["mesh"],
        &["matrix"],
        Device::Cluster,
        work("asm", 1e8, 0.1),
        assemble,
    );
    graph.add_task(
        "solve",
        &["matrix"],
        &["field"],
        Device::Cluster,
        work("slv", 5e8, 0.05),
        solve,
    );
    graph.add_task(
        "init-particles",
        &[],
        &["particles"],
        Device::Booster,
        work("init", 1e8, 0.9),
        init_particles,
    );
    // The offloaded compute task (the `#pragma omp target device(booster)`
    // of the DEEP programming model).
    let push_id = graph.add_task(
        "push",
        &["field", "particles"],
        &["particles", "moments"],
        Device::Booster,
        work("push", 2e9, 0.95),
        push,
    );
    graph.add_task(
        "diagnose",
        &["moments"],
        &["result"],
        Device::Cluster,
        work("diag", 1e7, 0.2),
        diagnose,
    );

    // Make the offloaded task fail twice: the runtime restores its saved
    // inputs and retries without losing the other tasks' work.
    graph.inject_failures(push_id, 2);

    let report = ompss::run(&launcher, &mut graph, &mut store).expect("graph runs");
    println!("task schedule (virtual time; the Booster world is spawned first):");
    for t in &report.tasks {
        println!(
            "  {:<16} {:>8?} {:>12} → {:>12}   retries={} moved={} B",
            t.name,
            t.device,
            t.start.to_string(),
            t.end.to_string(),
            t.retries,
            t.transfer_bytes
        );
    }
    println!(
        "\nmakespan {}  cross-module traffic {} B  retries {}",
        report.makespan, report.total_transfer_bytes, report.total_retries
    );
    println!("result = {:?}", store.get("result"));
    assert_eq!(
        report.total_retries, 2,
        "the injected failures were absorbed"
    );

    let mut sequential = initial_store();
    for action in [assemble, solve, init_particles, push, diagnose] {
        action(&mut sequential);
    }
    assert_eq!(
        store, sequential,
        "the offloaded run ends on the sequential run's data"
    );
}
