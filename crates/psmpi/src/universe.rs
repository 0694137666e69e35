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
use simnet::{Fabric, Topology};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
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
    /// Create a universe over a fabric. Its typed-send staging buffers come
    /// from the pool that every universe alive right now shares, or from a
    /// new one that later universes share while this one lives (see
    /// [`Router::new`]).
    pub fn new(fabric: Fabric) -> Self {
        Universe {
            router: Router::new(fabric),
        }
    }

    /// Create a universe over a fabric, drawing typed-send staging buffers
    /// from `pool` only. A pool made for the call is private to this
    /// universe, so its counters count this universe's draws alone, whatever
    /// else runs in the process; a pool kept by the caller stays warm
    /// across successive universes (see [`Router::with_pool`]).
    pub fn with_buffer_pool(fabric: Fabric, pool: Arc<crate::BufferPool>) -> Self {
        Universe {
            router: Router::with_pool(fabric, pool),
        }
    }

    /// The shared router (for crates layering on top of the runtime).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
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
        assert!(!placements.is_empty(), "job needs at least one rank");
        let entry: Arc<RankFn> = Arc::new(entry);
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

/// Start one rank thread. A rank whose entry panics dies like a failed
/// node: its node is declared down at its clock, so peers blocked on it
/// abort with [`crate::MpiError::NodeFailed`] instead of waiting forever,
/// and its outcome is recorded before the panic goes on to the joining
/// thread. A receive from any source awaits no particular sender and so
/// still cannot abort on it.
#[expect(
    clippy::too_many_arguments,
    reason = "every argument is a distinct piece of the rank's identity, handed over once at spawn"
)]
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
            let ran = panic::catch_unwind(AssertUnwindSafe(|| entry(&mut rank)));
            if ran.is_err() {
                rank.die(rank.now());
            }
            router.record_outcome(rank.into_outcome());
            router.awake.fetch_sub(1, Ordering::AcqRel);
            if let Err(payload) = ran {
                panic::resume_unwind(payload);
            }
        })
        .expect("spawn rank thread")
}

/// Convenience builder: assemble a topology and run one job on all of it,
/// one rank per node, over the default link model.
#[derive(Default)]
pub struct UniverseBuilder {
    topology: Topology,
    placements: Vec<NodeId>,
}

impl UniverseBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        UniverseBuilder::default()
    }

    /// Add `count` identical nodes; one rank is placed on each.
    pub fn add_nodes(mut self, count: u32, spec: &NodeSpec) -> Self {
        let ids = self.topology.add_nodes(count, spec);
        self.placements.extend(ids);
        self
    }

    /// Build the universe and run `entry` on every placed rank.
    pub fn run<F>(self, entry: F) -> JobReport
    where
        F: Fn(&mut Rank) + Send + Sync + 'static,
    {
        Universe::new(Fabric::new(self.topology)).launch(&self.placements, entry)
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

    /// Total bytes sent by all ranks.
    pub fn total_bytes_sent(&self) -> u64 {
        self.outcomes.iter().map(|o| o.bytes_sent).sum()
    }

    /// Total messages sent by all ranks.
    pub fn total_msgs_sent(&self) -> u64 {
        self.outcomes.iter().map(|o| o.msgs_sent).sum()
    }
}
