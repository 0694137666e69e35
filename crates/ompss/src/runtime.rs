//! Lowering a task graph onto psmpi: the Cluster world spawns the Booster
//! world, each runs its own device's tasks, and a cross-device dependency
//! is one intercommunicator message.
//!
//! Both ranks walk the graph in program order. Before a task runs, its rank
//! receives every input whose last writer ran on the other device (initial
//! data lives on the Cluster); after it runs, the rank sends each output
//! that a later task on the other device reads before the output is next
//! written. One message carries one (producer, block) pair, however many
//! tasks read it. At the end the Booster returns the blocks it wrote last
//! (OmpSs's final taskwait), so the caller's store ends as a sequential run
//! leaves it. Compute is charged by [`Rank::compute`] and transfers by
//! psmpi, so the same bytes cost what they cost in any other program.

use crate::data::DataStore;
use crate::graph::{Device, Task, TaskGraph, TaskId};
use cluster_booster::launch::LaunchError;
use cluster_booster::{JobSpec, Launcher, ModuleKind};
use hwmodel::SimTime;
use lockrank::Mutex;
use psmpi::datatype::bytes_to_pod;
use psmpi::{Intercomm, Rank, Tag};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Fixed recovery overhead charged per retry, seconds.
const RECOVERY_OVERHEAD_S: f64 = 1e-3;

/// Execution record of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task name.
    pub name: String,
    /// Device it ran on.
    pub device: Device,
    /// Virtual start time of its first attempt, read off its rank's clock.
    pub start: SimTime,
    /// Virtual end time of its successful attempt.
    pub end: SimTime,
    /// Failed attempts before success.
    pub retries: u32,
    /// Bytes received from the other module to feed this task.
    pub transfer_bytes: u64,
}

/// Result of running a graph.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-task records, in task order.
    pub tasks: Vec<TaskRecord>,
    /// End of the last task (the final taskwait's copy-back follows it).
    pub makespan: SimTime,
    /// Bytes moved across modules to feed tasks.
    pub total_transfer_bytes: u64,
    /// Total retried attempts.
    pub total_retries: u32,
}

/// One block crossing the modules, under the tag of its (producer, block)
/// pair.
#[derive(Clone)]
struct Transfer {
    block: String,
    tag: Tag,
}

/// The messages around each task, shared by both ranks.
#[derive(Default)]
struct Plan {
    /// Per task, what its rank receives before it runs.
    recv_before: Vec<Vec<Transfer>>,
    /// Per task, what its rank sends after it runs.
    send_after: Vec<Vec<Transfer>>,
    /// Initial data the Cluster sends before its first task.
    initial: Vec<Transfer>,
    /// What the Booster returns at the final taskwait.
    taskwait: Vec<Transfer>,
}

impl Plan {
    fn of(graph: &TaskGraph) -> Plan {
        let tasks = &graph.tasks;
        let mut plan = Plan {
            recv_before: vec![Vec::new(); tasks.len()],
            send_after: vec![Vec::new(); tasks.len()],
            ..Plan::default()
        };
        // A (producer, block) pair moves at most once, under the next tag.
        let mut moved = BTreeSet::new();
        let mut first_move = |producer: Option<TaskId>, block: &String| {
            let tag = moved.len() as Tag;
            moved.insert((producer, block.clone())).then(|| Transfer {
                block: block.clone(),
                tag,
            })
        };
        for (consumer, inputs) in graph.producers().into_iter().enumerate() {
            for (block, producer) in inputs {
                let from = producer.map_or(Device::Cluster, |p| tasks[p.0].device);
                if from == tasks[consumer].device {
                    continue;
                }
                if let Some(transfer) = first_move(producer, &block) {
                    plan.recv_before[consumer].push(transfer.clone());
                    match producer {
                        Some(p) => plan.send_after[p.0].push(transfer),
                        None => plan.initial.push(transfer),
                    }
                }
            }
        }
        let mut last_writer = BTreeMap::new();
        for (i, t) in tasks.iter().enumerate() {
            for block in &t.outs {
                last_writer.insert(block, TaskId(i));
            }
        }
        for (block, p) in last_writer {
            if tasks[p.0].device == Device::Booster {
                plan.taskwait.extend(first_move(Some(p), block));
            }
        }
        plan
    }
}

/// What one rank owns while the graph runs.
#[derive(Default)]
struct Side {
    /// Its device's tasks with their indices, in program order.
    tasks: Vec<(usize, Task)>,
    store: DataStore,
    records: Vec<(usize, TaskRecord)>,
}

/// Each device's side, taken by its rank before its first receive and put
/// back after its last message.
type Sides = [Mutex<Option<Side>, 100>; 2];

/// Run `graph` on `store` as OmpSs would: launch one Cluster rank, spawn
/// one Booster rank, run each task on its device, and leave `store` as
/// sequential execution of the graph would. A task with injected failures
/// is retried from the inputs saved before its first attempt (paper
/// §III-D); each failed attempt costs its compute plus a fixed recovery
/// overhead, and other tasks' work stays valid.
pub fn run(
    launcher: &Launcher,
    graph: &mut TaskGraph,
    store: &mut DataStore,
) -> Result<RunReport, LaunchError> {
    let plan = Arc::new(Plan::of(graph));
    let (cluster, booster) = std::mem::take(&mut graph.tasks)
        .into_iter()
        .enumerate()
        .partition(|(_, t)| t.device == Device::Cluster);
    let sides: Arc<Sides> = Arc::new([
        Mutex::new(Some(Side {
            tasks: cluster,
            store: std::mem::take(store),
            records: Vec::new(),
        })),
        Mutex::new(Some(Side {
            tasks: booster,
            ..Side::default()
        })),
    ]);

    let spec = JobSpec::partitioned("ompss", 1, 1).boot_on(ModuleKind::Cluster);
    let sides_c = sides.clone();
    let launched = launcher.launch(&spec, move |rank, alloc| {
        let (plan_b, sides_b) = (plan.clone(), sides_c.clone());
        let ic = rank
            .spawn_world(&alloc.booster, move |child| {
                let ic = child.parent().expect("spawned by the Cluster rank");
                run_side(child, &ic, Device::Booster, &plan_b, &sides_b);
            })
            .expect("spawn the Booster world");
        run_side(rank, &ic, Device::Cluster, &plan, &sides_c);
    });

    let [cluster, booster] = [Device::Cluster, Device::Booster]
        .map(|d| sides[d as usize].lock().take().expect("side returned"));
    let mut tasks: Vec<_> = cluster.tasks.into_iter().chain(booster.tasks).collect();
    tasks.sort_by_key(|&(i, _)| i);
    graph.tasks = tasks.into_iter().map(|(_, t)| t).collect();
    *store = cluster.store;
    launched?;

    let mut records: Vec<_> = cluster.records.into_iter().chain(booster.records).collect();
    records.sort_by_key(|&(i, _)| i);
    let tasks: Vec<TaskRecord> = records.into_iter().map(|(_, r)| r).collect();
    Ok(RunReport {
        makespan: tasks.iter().map(|r| r.end).max().unwrap_or(SimTime::ZERO),
        total_transfer_bytes: tasks.iter().map(|r| r.transfer_bytes).sum(),
        total_retries: tasks.iter().map(|r| r.retries).sum(),
        tasks,
    })
}

/// One device's walk of the graph.
fn run_side(rank: &mut Rank, ic: &Intercomm, device: Device, plan: &Plan, sides: &Sides) {
    let slot = &sides[device as usize];
    let mut side = slot.lock().take().expect("each side runs once");
    let store = &mut side.store;
    if device == Device::Cluster {
        for t in &plan.initial {
            send(rank, ic, store, t);
        }
    }
    for (i, task) in &mut side.tasks {
        let transfer_bytes = plan.recv_before[*i]
            .iter()
            .map(|t| recv(rank, ic, store, t))
            .sum();
        let start = rank.now();
        let retries = std::mem::take(&mut task.failures);
        if retries > 0 {
            let saved = store.snapshot(&task.ins);
            for _ in 0..retries {
                (task.action)(store);
                rank.compute(&task.work);
                rank.advance(SimTime::from_secs(RECOVERY_OVERHEAD_S));
                store.restore(&saved);
            }
        }
        (task.action)(store);
        rank.compute(&task.work);
        let record = TaskRecord {
            name: task.name.clone(),
            device,
            start,
            end: rank.now(),
            retries,
            transfer_bytes,
        };
        side.records.push((*i, record));
        for t in &plan.send_after[*i] {
            send(rank, ic, store, t);
        }
    }
    for t in &plan.taskwait {
        match device {
            Device::Booster => send(rank, ic, store, t),
            Device::Cluster => _ = recv(rank, ic, store, t),
        }
    }
    *slot.lock() = Some(side);
}

fn send(rank: &mut Rank, ic: &Intercomm, store: &DataStore, t: &Transfer) {
    rank.send_slice_comm(ic, 0, t.tag, store.get(&t.block))
        .expect("send a block to the other module");
}

/// Receive a block into `store`; returns its size in bytes.
fn recv(rank: &mut Rank, ic: &Intercomm, store: &mut DataStore, t: &Transfer) -> u64 {
    let (buf, _) = rank
        .recv_bytes_comm(ic, Some(0), Some(t.tag))
        .expect("receive a block from the other module");
    let bytes = buf.len() as u64;
    store.put(t.block.clone(), bytes_to_pod(&buf).expect("a block of f64"));
    rank.buffer_pool().recycle(buf);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_booster::presets::deep_er_prototype;
    use hwmodel::WorkSpec;

    fn run_on_prototype(g: &mut TaskGraph, store: &mut DataStore) -> RunReport {
        run(&Launcher::new(deep_er_prototype()), g, store).expect("launch")
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
        let report = run_on_prototype(&mut g, &mut store);
        assert_eq!(store.get("c"), &[6.0], "the final taskwait returned c");
        assert_eq!(report.tasks.len(), 2);
        assert!(report.makespan > SimTime::ZERO);
    }

    #[test]
    fn independent_tasks_overlap_across_devices() {
        let mut g = TaskGraph::new();
        g.add_task("c", &[], &["x"], Device::Cluster, work(1e10, 0.0), |s| {
            s.put("x", vec![1.0])
        });
        g.add_task("b", &[], &["y"], Device::Booster, work(1e10, 1.0), |s| {
            s.put("y", vec![2.0])
        });
        let rep = run_on_prototype(&mut g, &mut DataStore::new());
        let (t0, t1) = (&rep.tasks[0], &rep.tasks[1]);
        assert_eq!(t1.start, t0.start, "both worlds start after the spawn");
        assert!(rep.makespan < t0.end + (t1.end - t1.start));
    }

    #[test]
    fn same_device_tasks_serialize() {
        let mut g = TaskGraph::new();
        g.add_task("a", &[], &["x"], Device::Cluster, work(1e9, 0.0), |s| {
            s.put("x", vec![])
        });
        g.add_task("b", &[], &["y"], Device::Cluster, work(1e9, 0.0), |s| {
            s.put("y", vec![])
        });
        let rep = run_on_prototype(&mut g, &mut DataStore::new());
        assert_eq!(rep.tasks[1].start, rep.tasks[0].end, "one rank per device");
    }

    #[test]
    fn offload_charges_transfer() {
        let graph = |consumer: Device| {
            let mut g = TaskGraph::new();
            g.add_task(
                "produce",
                &[],
                &["big"],
                Device::Cluster,
                work(1e6, 0.0),
                |_| {},
            );
            g.add_task("consume", &["big"], &[], consumer, work(1e6, 1.0), |_| {});
            g
        };
        let mut store = DataStore::new();
        store.put("big", vec![0.0; 1 << 20]); // 8 MiB
        let rep = run_on_prototype(&mut graph(Device::Booster), &mut store);
        assert_eq!(rep.tasks[1].transfer_bytes, 8 << 20);
        assert_eq!(rep.total_transfer_bytes, 8 << 20);
        let rep = run_on_prototype(&mut graph(Device::Cluster), &mut store);
        assert_eq!(rep.total_transfer_bytes, 0, "same device moves nothing");
    }

    #[test]
    fn device_choice_affects_time() {
        // A scalar task is faster on the Cluster; a vector task on Booster.
        let run_on = |device: Device, vf: f64| {
            let mut g = TaskGraph::new();
            g.add_task("k", &[], &[], device, work(1e11, vf), |_| {});
            let t = &run_on_prototype(&mut g, &mut DataStore::new()).tasks[0];
            t.end - t.start
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
        let flaky = |s: &mut DataStore| {
            let v = s.get("x")[0];
            s.get_mut("x")[0] = v + 1.0;
            s.put("y", vec![v]);
        };
        let id = g.add_task(
            "flaky",
            &["x"],
            &["x", "y"],
            Device::Booster,
            work(1e8, 0.0),
            flaky,
        );
        g.inject_failures(id, 2);
        let rep = run_on_prototype(&mut g, &mut s);
        assert_eq!(rep.total_retries, 2);
        assert_eq!(s.get("y"), &[1.0], "retry saw the restored input");
        assert_eq!(s.get("x"), &[2.0], "final run applied its mutation once");
    }

    #[test]
    fn retries_cost_time() {
        let duration = |failures: u32| {
            let mut g = TaskGraph::new();
            let id = g.add_task("t", &[], &[], Device::Booster, work(1e8, 0.0), |_| {});
            g.inject_failures(id, failures);
            let t = &run_on_prototype(&mut g, &mut DataStore::new()).tasks[0];
            (t.end - t.start).as_secs()
        };
        let compute = duration(0);
        for k in [1u32, 3] {
            let expected = f64::from(k + 1) * compute + f64::from(k) * RECOVERY_OVERHEAD_S;
            assert!(
                (duration(k) - expected).abs() < 1e-9,
                "{k} retries: {} s, expected (k+1)·compute + k·1 ms = {expected} s",
                duration(k)
            );
        }
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
        let rep = run_on_prototype(&mut g, &mut s);
        assert_eq!(s.get("a"), &[42.0]);
        assert_eq!(s.get("b"), &[7.0]);
        assert_eq!(rep.tasks[0].retries, 0);
        assert_eq!(rep.tasks[flaky.0].retries, 1);
    }
}
