//! Job launching and reporting.
//!
//! A [`Universe`] wraps a fabric and can launch jobs: each job is a world of
//! ranks (one OS thread each) placed on chosen nodes. [`Universe::launch`]
//! blocks until the whole job — including any worlds it spawned dynamically
//! via [`crate::Rank::spawn`] — has finished, and returns a [`JobReport`]
//! with the virtual-time outcome of every rank.

use crate::comm::{CommId, Communicator, Group, Intercomm};
use crate::rank::Rank;
use crate::router::{RankOutcome, Router};
use hwmodel::{NodeId, NodeSpec, SimTime};
use simnet::{Fabric, LogGpModel, Topology};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The signature of a rank entry point.
pub type RankFn = dyn Fn(&mut Rank) + Send + Sync;

/// A running simulation environment: fabric + router.
#[derive(Clone)]
pub struct Universe {
    router: Arc<Router>,
}

impl Universe {
    /// Create a universe over a fabric.
    pub fn new(fabric: Fabric) -> Self {
        Universe {
            router: Router::new(fabric),
        }
    }

    /// Create a universe over a fabric, drawing typed-send staging buffers
    /// from `pool`. Sharing one pool across successive universes keeps the
    /// staging allocations warm between jobs (see [`Router::with_pool`]).
    pub fn with_buffer_pool(fabric: Fabric, pool: Arc<crate::BufferPool>) -> Self {
        Universe {
            router: Router::with_pool(fabric, pool),
        }
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        self.router.fabric()
    }

    /// The shared router (for crates layering on top of the runtime).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Attach a message-trace collector: every delivery in every
    /// subsequent job is recorded (the performance-analysis hook of the
    /// DEEP software stack).
    pub fn attach_trace(&self, collector: simnet::TraceCollector) {
        self.router.attach_trace(collector);
    }

    /// Attach an observability recorder: every rank of every subsequent
    /// job gets a virtual-time track with automatic runtime spans
    /// (compute/send/recv/collective), message dependency edges, and
    /// counters. Snapshot the recorder after [`Universe::launch`] returns
    /// to get profiles, critical paths and trace exports.
    pub fn attach_obs(&self, recorder: obs::Recorder) {
        self.router.attach_obs(recorder);
    }

    /// Launch a world with one rank per entry of `placements` (a node may
    /// appear several times to place several ranks on it; each rank then
    /// gets an equal share of the node's cores). Blocks until every rank —
    /// and every dynamically spawned child world — has finished.
    pub fn launch<F>(&self, placements: &[NodeId], entry: F) -> JobReport
    where
        F: Fn(&mut Rank) + Send + Sync + 'static,
    {
        self.launch_arc(placements, Arc::new(entry))
    }

    /// [`Universe::launch`] with a pre-wrapped entry point.
    pub fn launch_arc(&self, placements: &[NodeId], entry: Arc<RankFn>) -> JobReport {
        assert!(!placements.is_empty(), "job needs at least one rank");
        let world_id = self.router.alloc_comm();
        let group = build_group(&self.router, placements);
        let world = Communicator {
            id: world_id,
            group: Arc::new(group),
        };
        let cores = cores_per_rank(&self.router, placements);

        let mut handles = Vec::with_capacity(placements.len());
        for (i, &node) in placements.iter().enumerate() {
            handles.push(spawn_rank_thread(
                self.router.clone(),
                world.clone(),
                i,
                node,
                None,
                SimTime::ZERO,
                cores[i],
                None,
                entry.clone(),
            ));
        }
        for h in handles {
            h.join().expect("rank thread panicked");
        }
        // Join dynamically spawned worlds (children may spawn grandchildren,
        // so loop until the registry drains).
        loop {
            let drained: Vec<JoinHandle<()>> = {
                let mut child_handles = self.router.child_handles.lock();
                crate::lock_witness!("psmpi.child_handles");
                std::mem::take(&mut *child_handles)
            };
            if drained.is_empty() {
                break;
            }
            for h in drained {
                h.join().expect("spawned rank thread panicked");
            }
        }
        let outcomes = {
            let mut outcomes_guard = self.router.outcomes.lock();
            crate::lock_witness!("psmpi.outcomes");
            std::mem::take(&mut *outcomes_guard)
        };
        JobReport { outcomes }
    }
}

/// Build the group for a placement list: endpoints registered in order.
pub(crate) fn build_group(router: &Arc<Router>, placements: &[NodeId]) -> Group {
    let endpoints = placements
        .iter()
        .map(|&n| router.register_endpoint(n))
        .collect();
    Group {
        endpoints,
        nodes: placements.to_vec(),
    }
}

/// Cores available to each rank: node cores divided by ranks on that node.
pub(crate) fn cores_per_rank(router: &Arc<Router>, placements: &[NodeId]) -> Vec<u32> {
    let mut counts: BTreeMap<NodeId, u32> = BTreeMap::new();
    for &n in placements {
        *counts.entry(n).or_insert(0) += 1;
    }
    placements
        .iter()
        .map(|&n| {
            let node = router.fabric().node(n).expect("placement on known node");
            (node.cores() / counts[&n]).max(1)
        })
        .collect()
}

/// Start one rank thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_rank_thread(
    router: Arc<Router>,
    world: Communicator,
    rank_idx: usize,
    node_id: NodeId,
    parent: Option<Intercomm>,
    start_clock: SimTime,
    cores: u32,
    obs_origin: Option<obs::TrackKey>,
    entry: Arc<RankFn>,
) -> JoinHandle<()> {
    let node = router
        .fabric()
        .node(node_id)
        .expect("rank on known node")
        .clone();
    let endpoint = world.group.endpoints[rank_idx];
    router.awake.fetch_add(1, Ordering::AcqRel);
    std::thread::Builder::new()
        .name(format!("psmpi-w{}r{}", world.id.0, rank_idx))
        .spawn(move || {
            let mut rank = Rank::new(
                router.clone(),
                endpoint,
                node_id,
                node,
                world,
                rank_idx,
                parent,
                start_clock,
                cores,
                obs_origin,
            );
            entry(&mut rank);
            router.record_outcome(rank.into_outcome());
            router.awake.fetch_sub(1, Ordering::AcqRel);
        })
        .expect("spawn rank thread")
}

/// Convenience builder: assemble a topology and run one job on all of it.
#[derive(Default)]
pub struct UniverseBuilder {
    topology: Topology,
    model: Option<LogGpModel>,
    placements: Vec<NodeId>,
    ranks_per_node: u32,
    pool: Option<Arc<crate::BufferPool>>,
}

impl UniverseBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        UniverseBuilder {
            topology: Topology::new(),
            model: None,
            placements: Vec::new(),
            ranks_per_node: 1,
            pool: None,
        }
    }

    /// Add `count` identical nodes; one rank is placed on each by default.
    pub fn add_nodes(mut self, count: u32, spec: &NodeSpec) -> Self {
        let ids = self.topology.add_nodes(count, spec);
        self.placements.extend(ids);
        self
    }

    /// Place several ranks per node instead of one.
    pub fn ranks_per_node(mut self, n: u32) -> Self {
        assert!(n >= 1);
        self.ranks_per_node = n;
        self
    }

    /// Override the fabric link model.
    pub fn link_model(mut self, model: LogGpModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Draw typed-send staging buffers from an external, long-lived pool
    /// instead of a fresh per-universe one (see [`Universe::with_buffer_pool`]).
    pub fn buffer_pool(mut self, pool: Arc<crate::BufferPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Build the universe and run `entry` on every placed rank.
    pub fn run<F>(self, entry: F) -> JobReport
    where
        F: Fn(&mut Rank) + Send + Sync + 'static,
    {
        let fabric = Fabric::with_model(self.topology, self.model.unwrap_or_default());
        let universe = match self.pool {
            Some(pool) => Universe::with_buffer_pool(fabric, pool),
            None => Universe::new(fabric),
        };
        let mut placements = Vec::new();
        for &n in &self.placements {
            for _ in 0..self.ranks_per_node {
                placements.push(n);
            }
        }
        universe.launch(&placements, entry)
    }
}

/// The virtual-time outcome of a completed job (all worlds).
#[derive(Debug, Clone)]
pub struct JobReport {
    outcomes: Vec<RankOutcome>,
}

impl JobReport {
    /// All rank outcomes, in completion order.
    pub fn outcomes(&self) -> &[RankOutcome] {
        &self.outcomes
    }

    /// The job's virtual runtime: the maximum final clock over all ranks of
    /// all worlds.
    pub fn makespan(&self) -> SimTime {
        self.outcomes
            .iter()
            .map(|o| o.clock)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Worlds that took part in the job.
    pub fn worlds(&self) -> Vec<CommId> {
        let mut w: Vec<CommId> = self.outcomes.iter().map(|o| o.world).collect();
        w.sort_unstable();
        w.dedup();
        w
    }

    /// Makespan of one world.
    pub fn world_makespan(&self, world: CommId) -> SimTime {
        self.outcomes
            .iter()
            .filter(|o| o.world == world)
            .map(|o| o.clock)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total bytes sent by all ranks.
    pub fn total_bytes_sent(&self) -> u64 {
        self.outcomes.iter().map(|o| o.bytes_sent).sum()
    }

    /// Total messages sent by all ranks.
    pub fn total_msgs_sent(&self) -> u64 {
        self.outcomes.iter().map(|o| o.msgs_sent).sum()
    }

    /// Maximum communication-time fraction over ranks (comm_time / clock).
    pub fn max_comm_fraction(&self) -> f64 {
        self.outcomes
            .iter()
            .filter(|o| !o.clock.is_zero())
            .map(|o| o.comm_time / o.clock)
            .fold(0.0, f64::max)
    }

    /// Sum of compute time over all ranks.
    pub fn total_compute_time(&self) -> SimTime {
        self.outcomes.iter().map(|o| o.compute_time).sum()
    }

    /// Energy-to-solution: Joules summed over all ranks (compute at active
    /// node power, waits/idle at idle power — see `hwmodel::power`).
    pub fn total_energy_joules(&self) -> f64 {
        self.outcomes.iter().map(|o| o.energy_joules).sum()
    }
}
