//! Task graphs with OmpSs data-flow dependencies.
//!
//! Tasks are declared in sequential program order. The one dependency the
//! runtime acts on is read-after-write: a task reads each input as its
//! latest earlier writer left it (`TaskGraph::producers`). Each device
//! runs its own tasks in program order on its own copy of the data, so a
//! write-after-read or write-after-write across devices needs no edge.

use crate::data::DataStore;
use hwmodel::WorkSpec;
use std::collections::BTreeMap;

/// Task index within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Where a task executes — the OmpSs offload pragma's target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Device {
    /// On the module the application booted on.
    #[default]
    Cluster,
    /// Offloaded to the Booster.
    Booster,
}

/// A task's action: a real closure over the data store.
pub(crate) type TaskAction = Box<dyn FnMut(&mut DataStore) + Send>;

pub(crate) struct Task {
    pub name: String,
    pub ins: Vec<String>,
    pub outs: Vec<String>,
    pub device: Device,
    pub work: WorkSpec,
    pub action: TaskAction,
    /// Injected failures remaining (resiliency tests).
    pub failures: u32,
}

/// A task graph under construction.
#[derive(Default)]
pub struct TaskGraph {
    pub(crate) tasks: Vec<Task>,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Append a task in program order.
    ///
    /// * `ins`/`outs` — data blocks read/written (the pragma's
    ///   `in(...)`/`out(...)` clauses; an `inout` block appears in both).
    ///   The action must write every `out` block: the other device is sent
    ///   what this device's store holds;
    /// * `device` — where it runs;
    /// * `work` — its cost descriptor for the device's node model;
    /// * `action` — the real computation.
    pub fn add_task<F>(
        &mut self,
        name: impl Into<String>,
        ins: &[&str],
        outs: &[&str],
        device: Device,
        work: WorkSpec,
        action: F,
    ) -> TaskId
    where
        F: FnMut(&mut DataStore) + Send + 'static,
    {
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            name: name.into(),
            ins: ins.iter().map(|s| s.to_string()).collect(),
            outs: outs.iter().map(|s| s.to_string()).collect(),
            device,
            work,
            action: Box::new(action),
            failures: 0,
        });
        id
    }

    /// Inject `n` failures into a task: its first `n` executions fail and
    /// are retried from its saved inputs.
    pub fn inject_failures(&mut self, task: TaskId, n: u32) {
        self.tasks[task.0].failures = n;
    }

    /// For each task input, the task that produces it (`None` = initial
    /// data): where the input has to come from.
    pub(crate) fn producers(&self) -> Vec<Vec<(String, Option<TaskId>)>> {
        let mut last_writer: BTreeMap<&str, usize> = BTreeMap::new();
        let mut out = Vec::with_capacity(self.tasks.len());
        for t in &self.tasks {
            let row = t
                .ins
                .iter()
                .map(|d| (d.clone(), last_writer.get(d.as_str()).copied().map(TaskId)))
                .collect();
            out.push(row);
            for d in &t.outs {
                last_writer.insert(d.as_str(), out.len() - 1);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> WorkSpec {
        WorkSpec::named("w").build()
    }

    #[test]
    fn producers_track_latest_writer() {
        let mut g = TaskGraph::new();
        g.add_task("w1", &[], &["x"], Device::Cluster, w(), |_| {});
        g.add_task("w2", &["x"], &["x"], Device::Booster, w(), |_| {});
        g.add_task("r", &["x", "init"], &[], Device::Cluster, w(), |_| {});
        let p = g.producers();
        assert_eq!(p[2][0], ("x".to_string(), Some(TaskId(1))));
        assert_eq!(p[2][1], ("init".to_string(), None));
    }
}
