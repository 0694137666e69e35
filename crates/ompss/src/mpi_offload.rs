//! Executing OmpSs offload tasks through `MPI_Comm_spawn` — the actual
//! mechanism of the DEEP programming environment.
//!
//! §III-B: the offload pragma "enables the OmpSs source-to-source compiler
//! to insert all necessary MPI calls", i.e. under the hood an offloaded
//! task becomes: spawn (once) a worker world on the other module, ship the
//! task's `in` blocks over the inter-communicator, run the task there, and
//! ship the `out` blocks back. This module is that lowering: it executes a
//! [`crate::TaskGraph`] on a real [`cluster_booster::Launcher`] job, with
//! Cluster tasks running on the booted rank and Booster tasks on a spawned
//! worker, all data really crossing the simulated fabric.
//!
//! The virtual-time outcome reflects the same costs the standalone
//! [`crate::OmpssRuntime`] models (compute per device + transfers), but
//! here they *emerge* from the psmpi runtime rather than from the list
//! scheduler — and the two are cross-checked in the tests.

use crate::data::DataStore;
use crate::graph::{Device, TaskGraph};
use cluster_booster::{JobSpec, Launcher, ModuleKind};
use hwmodel::SimTime;
use parking_lot::Mutex;
use psmpi::{Rank, ReduceOp};
use std::sync::Arc;

const TAG_BLOCKS: i32 = 50;
const TAG_RUN: i32 = 51;
const TAG_DONE: i32 = 52;

/// Result of a distributed graph execution.
#[derive(Debug, Clone)]
pub struct OffloadReport {
    /// Virtual makespan of the job (excluding the one-off spawn latency is
    /// not attempted here; graphs run long enough to amortize it in the
    /// comparisons we make).
    pub makespan: SimTime,
    /// Tasks that ran on the spawned (Booster) world.
    pub offloaded_tasks: usize,
    /// Total f64 elements shipped across the modules.
    pub elements_moved: u64,
}

/// Encode a set of named blocks for the wire.
fn pack_blocks(store: &DataStore, names: &[String]) -> Vec<(String, Vec<f64>)> {
    names
        .iter()
        .filter(|n| store.contains(n))
        .map(|n| (n.clone(), store.get(n).to_vec()))
        .collect()
}

/// Execute `graph` on `launcher`: the main world boots one Cluster rank;
/// Booster tasks run on one spawned Booster rank. Tasks execute in
/// program order (the dependency graph of a sequential program is always
/// respected by program order).
pub fn run_offloaded(
    launcher: &Launcher,
    graph: TaskGraph,
    store: DataStore,
) -> Result<(OffloadReport, DataStore), cluster_booster::launch::LaunchError> {
    let graph = Arc::new(Mutex::new(graph)); // lock-order: 20
    let store = Arc::new(Mutex::new(store)); // lock-order: 10
    let stats = Arc::new(Mutex::new((0usize, 0u64))); // (offloaded, elements) lock-order: 30

    let graph_in = graph.clone();
    let store_in = store.clone();
    let stats_in = stats.clone();
    let spec = JobSpec::partitioned("ompss-offload", 1, 1).boot_on(ModuleKind::Cluster);
    let report = launcher.launch(&spec, move |rank, alloc| {
        let booster = alloc.booster.clone();
        let graph = graph_in.clone();
        let store_child = store_in.clone();
        // Spawn the worker world once; it serves every offloaded task
        // (exactly the DEEP runtime's design — one spawn per job, not one
        // per task).
        let ic = rank
            .spawn_world(&booster, move |worker: &mut Rank| {
                let parent = worker.parent().expect("offload worker has a parent");
                loop {
                    let (task_idx, _) = worker
                        .recv_comm::<i64>(&parent, Some(0), Some(TAG_RUN))
                        .expect("task index");
                    if task_idx < 0 {
                        break; // shutdown
                    }
                    let (blocks, _) = worker
                        .recv_comm::<Vec<(String, Vec<f64>)>>(&parent, Some(0), Some(TAG_BLOCKS))
                        .expect("input blocks");
                    // Materialize the inputs, run the real task action.
                    let mut local = DataStore::new();
                    for (name, data) in blocks {
                        local.put(name, data);
                    }
                    let (work, outs) = {
                        let mut g = graph.lock();
                        let t = &mut g.tasks[task_idx as usize];
                        (t.work.clone(), t.outs.clone())
                    };
                    {
                        // Carry over any outs that exist globally (inout).
                        let global = store_child.lock();
                        for o in &outs {
                            if !local.contains(o) && global.contains(o) {
                                local.put(o.clone(), global.get(o).to_vec());
                            }
                        }
                    }
                    {
                        let mut g = graph.lock();
                        (g.tasks[task_idx as usize].action)(&mut local);
                    }
                    worker.compute(&work);
                    let result = pack_blocks(&local, &outs);
                    worker
                        .send_comm(&parent, 0, TAG_DONE, &result)
                        .expect("send results");
                }
            })
            .expect("spawn offload worker");

        // Drive the graph in program order on the Cluster rank.
        let n = graph_in.lock().len();
        for i in 0..n {
            let (device, ins, outs, work) = {
                let g = graph_in.lock();
                let t = &g.tasks[i];
                (t.device, t.ins.clone(), t.outs.clone(), t.work.clone())
            };
            match device {
                Device::Cluster => {
                    let mut st = store_in.lock();
                    {
                        let mut g = graph_in.lock();
                        (g.tasks[i].action)(&mut st);
                    }
                    drop(st);
                    rank.compute(&work);
                }
                Device::Booster => {
                    // The whole round trip — ship inputs, remote execution,
                    // ship outputs — is the offload pragma's footprint.
                    let span = rank.obs_open(obs::Category::Offload, "offload_task");
                    let blocks = pack_blocks(&store_in.lock(), &ins);
                    let moved: u64 = blocks.iter().map(|(_, d)| d.len() as u64).sum();
                    rank.send_comm(&ic, 0, TAG_RUN, &(i as i64))
                        .expect("task index");
                    rank.send_comm(&ic, 0, TAG_BLOCKS, &blocks).expect("inputs");
                    let (results, _) = rank
                        .recv_comm::<Vec<(String, Vec<f64>)>>(&ic, Some(0), Some(TAG_DONE))
                        .expect("results");
                    let back: u64 = results.iter().map(|(_, d)| d.len() as u64).sum();
                    let mut st = store_in.lock();
                    for (name, data) in results {
                        st.put(name, data);
                    }
                    let _ = outs;
                    let mut s = stats_in.lock();
                    s.0 += 1;
                    s.1 += moved + back;
                    rank.obs_close(span);
                }
            }
        }
        // Shut the worker down.
        rank.send_comm(&ic, 0, TAG_RUN, &(-1i64)).expect("shutdown");
        // Make the job's end deterministic.
        let w = rank.world();
        let _ = rank.allreduce_scalar(&w, 0.0, ReduceOp::Sum);
    })?;

    let (offloaded_tasks, elements_moved) = *stats.lock();
    let out_store = Arc::try_unwrap(store)
        .map(Mutex::into_inner)
        .unwrap_or_else(|arc| arc.lock().clone());
    Ok((
        OffloadReport {
            makespan: report.makespan(),
            offloaded_tasks,
            elements_moved,
        },
        out_store,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::OmpssRuntime;
    use cluster_booster::presets::mini_prototype;
    use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
    use hwmodel::WorkSpec;

    fn work(flops: f64, vf: f64) -> WorkSpec {
        WorkSpec::named("k")
            .flops(flops)
            .vector_fraction(vf)
            .parallel_fraction(0.99)
            .build()
    }

    fn pipeline() -> (TaskGraph, DataStore) {
        let mut g = TaskGraph::new();
        let mut s = DataStore::new();
        s.put("input", (0..256).map(|i| i as f64).collect());
        g.add_task(
            "prepare",
            &["input"],
            &["staged"],
            Device::Cluster,
            work(1e8, 0.1),
            |s| {
                let v: Vec<f64> = s.get("input").iter().map(|x| x + 1.0).collect();
                s.put("staged", v);
            },
        );
        g.add_task(
            "crunch",
            &["staged"],
            &["crunched"],
            Device::Booster,
            work(2e9, 0.95),
            |s| {
                let v: Vec<f64> = s.get("staged").iter().map(|x| x * 3.0).collect();
                s.put("crunched", v);
            },
        );
        g.add_task(
            "finish",
            &["crunched"],
            &["answer"],
            Device::Cluster,
            work(1e7, 0.1),
            |s| {
                let total: f64 = s.get("crunched").iter().sum();
                s.put("answer", vec![total]);
            },
        );
        (g, s)
    }

    #[test]
    fn offloaded_graph_computes_correctly() {
        let launcher = Launcher::new(mini_prototype());
        let (graph, store) = pipeline();
        let (report, out) = run_offloaded(&launcher, graph, store).unwrap();
        // Σ 3(i+1) for i in 0..256 = 3·(256·257/2) = 98688.
        assert_eq!(out.get("answer"), &[98688.0]);
        assert_eq!(report.offloaded_tasks, 1);
        assert!(
            report.elements_moved >= 512,
            "inputs + outputs crossed the fabric"
        );
        assert!(report.makespan > SimTime::ZERO);
    }

    #[test]
    fn matches_standalone_runtime_results() {
        // The list-scheduled standalone runtime and the spawned execution
        // must produce identical data.
        let (graph_a, store_a) = pipeline();
        let (mut graph_b, mut store_b) = pipeline();
        let launcher = Launcher::new(mini_prototype());
        let (_, out_a) = run_offloaded(&launcher, graph_a, store_a).unwrap();
        let rt = OmpssRuntime::new(deep_er_cluster_node(), deep_er_booster_node());
        rt.run(&mut graph_b, &mut store_b).unwrap();
        assert_eq!(out_a.get("answer"), store_b.get("answer"));
    }

    #[test]
    fn worker_serves_many_tasks_one_spawn() {
        let launcher = Launcher::new(mini_prototype());
        let mut g = TaskGraph::new();
        let mut s = DataStore::new();
        s.put("acc", vec![0.0]);
        for i in 0..5 {
            g.add_task(
                format!("bump-{i}"),
                &["acc"],
                &["acc"],
                Device::Booster,
                work(1e7, 0.9),
                |st| {
                    let v = st.get("acc")[0];
                    st.get_mut("acc")[0] = v + 1.0;
                },
            );
        }
        let (report, out) = run_offloaded(&launcher, g, s).unwrap();
        assert_eq!(out.get("acc"), &[5.0]);
        assert_eq!(report.offloaded_tasks, 5);
    }
}
