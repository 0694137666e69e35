//! The OmpSs-style runtime: virtual-time list scheduling of a task graph
//! over the two modules.
//!
//! Tasks really execute (their closures mutate the [`crate::DataStore`]),
//! in an order consistent with the dependency graph. Virtual time is
//! modelled per device: each device has a configurable number of workers;
//! a task starts at the latest of (its dependences' finish times + any
//! cross-device transfer for the data that moves) and a worker's
//! availability, and runs for the cost-model time of its work descriptor on
//! that device's node type.

use crate::data::DataStore;
use crate::graph::{Device, TaskGraph, TaskId};
use hwmodel::{CostModel, NodeSpec, SimTime};
use simnet::LogGpModel;

/// Fixed recovery overhead charged per retry, seconds.
const RECOVERY_OVERHEAD_S: f64 = 1e-3;

/// Execution record of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task name.
    pub name: String,
    /// Device it ran on.
    pub device: Device,
    /// Virtual start time (of the successful attempt).
    pub start: SimTime,
    /// Virtual end time.
    pub end: SimTime,
    /// Failed attempts before success (resilient runtime only).
    pub retries: u32,
    /// Bytes moved across modules to feed this task.
    pub transfer_bytes: u64,
}

/// Result of running a graph.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-task records, in task order.
    pub tasks: Vec<TaskRecord>,
    /// Completion time of the whole graph.
    pub makespan: SimTime,
    /// Total cross-module transfer volume.
    pub total_transfer_bytes: u64,
    /// Total retried attempts.
    pub total_retries: u32,
}

impl RunReport {
    /// Record of one task.
    pub fn task(&self, id: TaskId) -> &TaskRecord {
        &self.tasks[id.0]
    }
}

/// Errors from running a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A task failed and the runtime has no resiliency enabled.
    TaskFailed {
        /// Which task failed.
        task: usize,
        /// Its name.
        name: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::TaskFailed { task, name } => {
                write!(f, "task {task} (`{name}`) failed without resiliency")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The runtime configuration.
pub struct OmpssRuntime {
    cluster: NodeSpec,
    booster: NodeSpec,
    link: LogGpModel,
    /// Concurrent tasks per device.
    workers_per_device: usize,
    /// Input saving + per-task restart on failure (paper §III-D).
    resilient: bool,
    cost: CostModel,
}

impl OmpssRuntime {
    /// Runtime over the two DEEP-ER node types with one worker per device.
    pub fn new(cluster: NodeSpec, booster: NodeSpec) -> Self {
        OmpssRuntime {
            cluster,
            booster,
            link: LogGpModel::default(),
            workers_per_device: 1,
            resilient: false,
            cost: CostModel,
        }
    }

    /// Allow several tasks in flight per device.
    pub fn with_workers(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.workers_per_device = n;
        self
    }

    /// Enable the DEEP-ER resiliency features (§III-D): each task's
    /// inputs are saved before it runs and restored after a failed
    /// attempt, and only the failed task is retried — work that ran in
    /// parallel, offloaded or not, stays valid.
    pub fn resilient(mut self) -> Self {
        self.resilient = true;
        self
    }

    fn node(&self, d: Device) -> &NodeSpec {
        match d {
            Device::Cluster => &self.cluster,
            Device::Booster => &self.booster,
        }
    }

    /// Cross-module transfer time for `bytes` between representative nodes.
    fn transfer_time(&self, from: Device, to: Device, bytes: u64) -> SimTime {
        if from == to || bytes == 0 {
            return SimTime::ZERO;
        }
        self.link
            .transfer_time(self.node(from), self.node(to), bytes as usize, 1)
    }

    /// Execute the graph on `store`. Tasks run in dependency order; the
    /// report carries the virtual-time schedule.
    pub fn run(&self, graph: &mut TaskGraph, store: &mut DataStore) -> Result<RunReport, RunError> {
        let deps = graph.dependencies();
        let producers = graph.producers();
        let n = graph.tasks.len();
        let mut finish: Vec<Option<SimTime>> = vec![None; n];
        let mut records: Vec<Option<TaskRecord>> = (0..n).map(|_| None).collect();
        // When each worker of a device is next free.
        let mut cluster_workers = vec![SimTime::ZERO; self.workers_per_device];
        let mut booster_workers = vec![SimTime::ZERO; self.workers_per_device];
        let mut done = 0usize;
        let mut total_transfer = 0u64;
        let mut total_retries = 0u32;

        while done < n {
            // Pick the ready task (all deps finished) with the smallest id
            // whose dependencies allow the earliest start; executing in
            // ready order preserves sequential semantics for the store.
            let mut progressed = false;
            for i in 0..n {
                if finish[i].is_some() {
                    continue;
                }
                if !deps[i].iter().all(|d| finish[d.0].is_some()) {
                    continue;
                }
                let device = graph.tasks[i].device;

                // Data-ready time: dependencies + cross-device movement of
                // this task's inputs from their producers.
                let mut ready = SimTime::ZERO;
                for d in &deps[i] {
                    ready = ready.max(finish[d.0].expect("dep finished"));
                }
                let mut moved = 0u64;
                for (name, producer) in &producers[i] {
                    let from = match producer {
                        Some(p) => graph_device(records.as_slice(), *p),
                        None => Device::Cluster, // initial data lives with the host module
                    };
                    if from != device {
                        let bytes = store.bytes_of(name);
                        moved += bytes;
                        let base = producer.and_then(|p| finish[p.0]).unwrap_or(SimTime::ZERO);
                        ready = ready.max(base + self.transfer_time(from, device, bytes));
                    }
                }

                let workers = match device {
                    Device::Cluster => &mut cluster_workers,
                    Device::Booster => &mut booster_workers,
                };
                let (widx, wfree) = workers
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(_, free)| free)
                    .expect("at least one worker");
                let start = ready.max(wfree);

                let t = &mut graph.tasks[i];
                if t.failures > 0 && !self.resilient {
                    return Err(RunError::TaskFailed {
                        task: i,
                        name: t.name.clone(),
                    });
                }
                let attempt = self.cost.time(self.node(device), &t.work);
                let mut duration = attempt;
                let retries = std::mem::take(&mut t.failures);
                if retries > 0 {
                    // Input saving (§III-D): each failed attempt runs, and
                    // may clobber its inputs, for its full duration plus
                    // the recovery overhead; the inputs saved before it
                    // are restored for the next attempt.
                    let saved = store.snapshot(&t.ins);
                    for _ in 0..retries {
                        (t.action)(store);
                        store.restore(&saved);
                        duration += attempt + SimTime::from_secs(RECOVERY_OVERHEAD_S);
                    }
                }
                (t.action)(store);

                let end = start + duration;
                workers[widx] = end;
                finish[i] = Some(end);
                total_transfer += moved;
                total_retries += retries;
                records[i] = Some(TaskRecord {
                    name: t.name.clone(),
                    device,
                    start,
                    end,
                    retries,
                    transfer_bytes: moved,
                });
                done += 1;
                progressed = true;
                break;
            }
            assert!(progressed, "task graph has a dependency cycle");
        }

        let tasks: Vec<TaskRecord> = records.into_iter().map(|r| r.expect("all ran")).collect();
        let makespan = tasks.iter().map(|r| r.end).max().unwrap_or(SimTime::ZERO);
        Ok(RunReport {
            tasks,
            makespan,
            total_transfer_bytes: total_transfer,
            total_retries,
        })
    }
}

fn graph_device(records: &[Option<TaskRecord>], p: TaskId) -> Device {
    records[p.0]
        .as_ref()
        .map(|r| r.device)
        .expect("producer executed before consumer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
    use hwmodel::WorkSpec;

    fn rt() -> OmpssRuntime {
        OmpssRuntime::new(deep_er_cluster_node(), deep_er_booster_node())
    }

    fn work(flops: f64, vf: f64) -> WorkSpec {
        // Highly parallel kernels (0.99): with lower parallel fractions
        // Amdahl's law erases the Booster's core-count advantage, which is
        // exactly why only well-parallelized code belongs there (§II-A).
        WorkSpec::named("k")
            .flops(flops)
            .vector_fraction(vf)
            .parallel_fraction(0.99)
            .build()
    }

    #[test]
    fn sequential_semantics_preserved() {
        // a = [1,2]; b = a*2; c = sum(b) — real data flows through.
        let mut g = TaskGraph::new();
        let mut store = DataStore::new();
        store.put("a", vec![1.0, 2.0]);
        g.add_task(
            "init-b",
            &["a"],
            &["b"],
            Device::Cluster,
            work(1e6, 0.0),
            |s| {
                let a: Vec<f64> = s.get("a").iter().map(|x| x * 2.0).collect();
                s.put("b", a);
            },
        );
        g.add_task(
            "sum",
            &["b"],
            &["c"],
            Device::Booster,
            work(1e6, 0.9),
            |s| {
                let c = s.get("b").iter().sum::<f64>();
                s.put("c", vec![c]);
            },
        );
        let report = rt().run(&mut g, &mut store).unwrap();
        assert_eq!(store.get("c"), &[6.0]);
        assert_eq!(report.tasks.len(), 2);
        assert!(report.makespan > SimTime::ZERO);
    }

    #[test]
    fn dependent_tasks_do_not_overlap() {
        let mut g = TaskGraph::new();
        let mut store = DataStore::new();
        store.put("x", vec![0.0; 1000]);
        g.add_task("w", &[], &["x"], Device::Cluster, work(1e9, 0.0), |_| {});
        g.add_task("r", &["x"], &[], Device::Cluster, work(1e9, 0.0), |_| {});
        let rep = rt().run(&mut g, &mut store).unwrap();
        assert!(rep.task(TaskId(1)).start >= rep.task(TaskId(0)).end);
    }

    #[test]
    fn independent_tasks_overlap_across_devices() {
        let mut g = TaskGraph::new();
        let mut store = DataStore::new();
        g.add_task("c", &[], &["x"], Device::Cluster, work(1e10, 0.0), |s| {
            s.put("x", vec![1.0])
        });
        g.add_task("b", &[], &["y"], Device::Booster, work(1e10, 1.0), |s| {
            s.put("y", vec![2.0])
        });
        let rep = rt().run(&mut g, &mut store).unwrap();
        let t0 = rep.task(TaskId(0));
        let t1 = rep.task(TaskId(1));
        assert_eq!(t1.start, SimTime::ZERO, "devices run concurrently");
        assert!(rep.makespan < t0.end + (t1.end - t1.start));
    }

    #[test]
    fn same_device_single_worker_serializes() {
        let mut g = TaskGraph::new();
        let mut store = DataStore::new();
        g.add_task("a", &[], &["x"], Device::Cluster, work(1e9, 0.0), |s| {
            s.put("x", vec![])
        });
        g.add_task("b", &[], &["y"], Device::Cluster, work(1e9, 0.0), |s| {
            s.put("y", vec![])
        });
        let rep = rt().run(&mut g, &mut store).unwrap();
        let (a, b) = (rep.task(TaskId(0)), rep.task(TaskId(1)));
        assert!(
            b.start >= a.end || a.start >= b.end,
            "one worker → serialized"
        );
        // With two workers they overlap.
        let mut g2 = TaskGraph::new();
        g2.add_task("a", &[], &["x"], Device::Cluster, work(1e9, 0.0), |s| {
            s.put("x", vec![])
        });
        g2.add_task("b", &[], &["y"], Device::Cluster, work(1e9, 0.0), |s| {
            s.put("y", vec![])
        });
        let rep2 = rt()
            .with_workers(2)
            .run(&mut g2, &mut DataStore::new())
            .unwrap();
        assert_eq!(rep2.task(TaskId(1)).start, SimTime::ZERO);
    }

    #[test]
    fn offload_charges_transfer() {
        let mut g = TaskGraph::new();
        let mut store = DataStore::new();
        store.put("big", vec![0.0; 1 << 20]); // 8 MiB
        g.add_task(
            "produce",
            &[],
            &["big"],
            Device::Cluster,
            work(1e6, 0.0),
            |_| {},
        );
        g.add_task(
            "consume",
            &["big"],
            &[],
            Device::Booster,
            work(1e6, 1.0),
            |_| {},
        );
        let rep = rt().run(&mut g, &mut store).unwrap();
        assert_eq!(rep.task(TaskId(1)).transfer_bytes, 8 << 20);
        assert!(rep.total_transfer_bytes > 0);
        // Same-device version moves nothing.
        let mut g2 = TaskGraph::new();
        g2.add_task(
            "produce",
            &[],
            &["big"],
            Device::Cluster,
            work(1e6, 0.0),
            |_| {},
        );
        g2.add_task(
            "consume",
            &["big"],
            &[],
            Device::Cluster,
            work(1e6, 0.0),
            |_| {},
        );
        let rep2 = rt().run(&mut g2, &mut store).unwrap();
        assert_eq!(rep2.total_transfer_bytes, 0);
    }

    #[test]
    fn device_choice_affects_time() {
        // A scalar task is faster on the Cluster; a vector task on Booster.
        let run_on = |device: Device, vf: f64| {
            let mut g = TaskGraph::new();
            g.add_task("k", &[], &[], device, work(1e11, vf), |_| {});
            rt().run(&mut g, &mut DataStore::new()).unwrap().makespan
        };
        assert!(run_on(Device::Booster, 0.0) > run_on(Device::Cluster, 0.0) * 3.0);
        assert!(run_on(Device::Cluster, 1.0) > run_on(Device::Booster, 1.0));
    }

    #[test]
    fn input_saving_restores_on_retry() {
        // The flaky task mutates its input on every attempt; each retry
        // must see the original value (input saving).
        let mut g = TaskGraph::new();
        let mut s = DataStore::new();
        s.put("x", vec![1.0]);
        let id = g.add_task(
            "flaky",
            &["x"],
            &["x", "y"],
            Device::Cluster,
            work(1e8, 0.0),
            |s| {
                let v = s.get("x")[0];
                s.get_mut("x")[0] = v + 1.0;
                s.put("y", vec![v]);
            },
        );
        g.inject_failures(id, 2);
        let rep = rt().resilient().run(&mut g, &mut s).unwrap();
        assert_eq!(rep.total_retries, 2);
        assert_eq!(s.get("y"), &[1.0], "retry saw the restored input");
        assert_eq!(s.get("x"), &[2.0], "final run applied its mutation once");
    }

    #[test]
    fn retries_cost_time() {
        let make = |failures: u32| {
            let mut g = TaskGraph::new();
            let id = g.add_task("t", &[], &[], Device::Booster, work(1e8, 0.0), |_| {});
            g.inject_failures(id, failures);
            rt().resilient()
                .run(&mut g, &mut DataStore::new())
                .unwrap()
                .makespan
        };
        let clean = make(0);
        let retried = make(3);
        assert!(retried > clean * 3.0, "retries pay full re-execution");
    }

    #[test]
    fn offloaded_restart_keeps_parallel_work() {
        // A failing Booster task does not invalidate the Cluster task that
        // ran in parallel.
        let mut g = TaskGraph::new();
        let mut s = DataStore::new();
        g.add_task(
            "cluster-side",
            &[],
            &["a"],
            Device::Cluster,
            work(1e8, 0.0),
            |s| s.put("a", vec![42.0]),
        );
        let flaky = g.add_task(
            "booster-side",
            &[],
            &["b"],
            Device::Booster,
            work(1e8, 0.0),
            |s| s.put("b", vec![7.0]),
        );
        g.inject_failures(flaky, 1);
        let rep = rt()
            .resilient()
            .with_workers(2)
            .run(&mut g, &mut s)
            .unwrap();
        assert_eq!(s.get("a"), &[42.0]);
        assert_eq!(s.get("b"), &[7.0]);
        assert_eq!(rep.task(TaskId(0)).retries, 0);
        assert_eq!(rep.task(flaky).retries, 1);
    }

    #[test]
    fn failure_without_resilience_errors() {
        let mut g = TaskGraph::new();
        let id = g.add_task("flaky", &[], &[], Device::Cluster, work(1e6, 0.0), |_| {});
        g.inject_failures(id, 1);
        let err = rt().run(&mut g, &mut DataStore::new()).unwrap_err();
        assert!(matches!(err, RunError::TaskFailed { task: 0, .. }));
    }
}
