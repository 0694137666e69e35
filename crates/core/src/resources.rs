//! The resource manager.
//!
//! §II-A: "the Cluster-Booster concept poses no constraints on the
//! combination of CPU and accelerator nodes that an application may select,
//! since resources are reserved and allocated independently." This module
//! implements exactly that: one pool per module kind, allocations naming an
//! arbitrary (cn, bn) pair, and — for comparison benches — a *node-locked*
//! mode that emulates the accelerated-cluster architecture in which each
//! allocated CPU node drags its attached accelerators along (the static
//! arrangement the paper criticizes).

use crate::system::{ModuleKind, System};
use hwmodel::NodeId;
use lockrank::{Mutex, MutexGuard};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Why an allocation request could not be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationError {
    /// Not enough free nodes in a module.
    Insufficient {
        /// Module that ran short.
        module: ModuleKind,
        /// Nodes requested from it.
        requested: usize,
        /// Nodes currently free in it.
        free: usize,
    },
    /// The allocation handle was already released.
    StaleAllocation,
}

impl std::fmt::Display for AllocationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocationError::Insufficient {
                module,
                requested,
                free,
            } => write!(
                f,
                "insufficient {module:?} nodes: requested {requested}, free {free}"
            ),
            AllocationError::StaleAllocation => write!(f, "allocation already released"),
        }
    }
}

impl std::error::Error for AllocationError {}

/// A granted reservation of nodes. Release it back with
/// [`ResourceManager::release`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Unique allocation id.
    pub id: u64,
    /// Cluster nodes granted.
    pub cluster: Vec<NodeId>,
    /// Booster nodes granted.
    pub booster: Vec<NodeId>,
    /// Data Analytics Module nodes granted (DEEP-EST systems).
    pub dam: Vec<NodeId>,
}

impl Allocation {
    /// All granted nodes, cluster first.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut v = self.cluster.clone();
        v.extend(&self.booster);
        v.extend(&self.dam);
        v
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.cluster.len() + self.booster.len() + self.dam.len()
    }

    /// Whether no nodes were granted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A set of node ids as a bitmap (as long as its largest id) with a
/// count: every pool operation is one word access, and the lowest free id
/// is a `trailing_zeros` away.
#[derive(Debug, Default)]
struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, n: &NodeId) -> bool {
        (self.words.get(n.0 as usize / 64)).is_some_and(|w| w >> (n.0 % 64) & 1 == 1)
    }

    fn insert(&mut self, n: NodeId) {
        let w = n.0 as usize / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.len += usize::from(!self.contains(&n));
        self.words[w] |= 1 << (n.0 % 64);
    }

    fn remove(&mut self, n: &NodeId) -> bool {
        let had = self.contains(n);
        if had {
            self.words[n.0 as usize / 64] &= !(1 << (n.0 % 64));
            self.len -= 1;
        }
        had
    }

    fn pop_first(&mut self) -> Option<NodeId> {
        let w = self.words.iter().position(|&w| w != 0)?;
        let n = NodeId(w as u32 * 64 + self.words[w].trailing_zeros());
        self.remove(&n);
        Some(n)
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut set = NodeSet::default();
        nodes.into_iter().for_each(|n| set.insert(n));
        set
    }
}

/// The compute modules nodes are pooled by, in the index order of
/// [`Pools::free`] and [`Pools::down`].
const MODULES: [ModuleKind; 3] = [ModuleKind::Cluster, ModuleKind::Booster, ModuleKind::Dam];
const CN: usize = 0;
const BN: usize = 1;
const DAM: usize = 2;

#[derive(Debug)]
struct Pools {
    /// Free nodes per module.
    free: [NodeSet; 3],
    /// Nodes marked down by a fault ([`ResourceManager::mark_down`]),
    /// per module: removed from the free pools, never handed out until
    /// repaired with [`ResourceManager::mark_up`].
    down: [NodeSet; 3],
    /// Downed nodes that were allocated at fault time: they route to the
    /// down sets (not back to the free pools) when they leave their
    /// allocation.
    pending_down: NodeSet,
    live: BTreeSet<u64>,
    next_id: u64,
}

impl Pools {
    /// Nodes of module `m` leave an allocation: one marked down meanwhile
    /// is quarantined, every other is free again.
    fn give_back(&mut self, m: usize, nodes: &[NodeId]) {
        for &n in nodes {
            if self.pending_down.remove(&n) {
                self.down[m].insert(n);
            } else {
                self.free[m].insert(n);
            }
        }
    }

    /// Take the `n` lowest free ids of module `m`; the caller counted them.
    fn take(&mut self, m: usize, n: usize) -> impl Iterator<Item = NodeId> + '_ {
        (0..n).map(move |_| self.free[m].pop_first().expect("counted free"))
    }
}

/// Allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// Cluster-Booster: CN and BN pools are independent (the paper's model).
    #[default]
    Independent,
    /// Accelerated-cluster emulation: booster nodes are statically bound to
    /// cluster nodes (`ratio` BN per CN); requesting a BN consumes its host
    /// CN too and vice versa. Used by the scheduler-throughput ablation.
    NodeLocked {
        /// Accelerators attached per host node.
        ratio: u32,
    },
}

/// The resource manager of one system.
#[derive(Clone)]
pub struct ResourceManager {
    pools: Arc<Mutex<Pools, 200>>,
    policy: AllocationPolicy,
    total_cluster: usize,
    total_booster: usize,
}

impl ResourceManager {
    /// Manage the nodes of `system` under the default (independent) policy.
    pub fn new(system: &System) -> Self {
        Self::with_policy(system, AllocationPolicy::Independent)
    }

    /// Manage with an explicit policy.
    pub fn with_policy(system: &System, policy: AllocationPolicy) -> Self {
        let free = [
            system.cluster_nodes(),
            system.booster_nodes(),
            system.dam_nodes(),
        ]
        .map(NodeSet::from_iter);
        ResourceManager {
            total_cluster: free[CN].len(),
            total_booster: free[BN].len(),
            pools: Arc::new(Mutex::new(Pools {
                free,
                down: Default::default(),
                pending_down: NodeSet::default(),
                live: BTreeSet::new(),
                next_id: 0,
            })),
            policy,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// Free cluster-node count.
    pub fn free_cluster(&self) -> usize {
        self.pools.lock().free[CN].len()
    }

    /// Free booster-node count.
    pub fn free_booster(&self) -> usize {
        self.pools.lock().free[BN].len()
    }

    /// Free DAM-node count.
    pub fn free_dam(&self) -> usize {
        self.pools.lock().free[DAM].len()
    }

    /// Total managed nodes per module (Cluster, Booster).
    pub fn totals(&self) -> (usize, usize) {
        (self.total_cluster, self.total_booster)
    }

    /// Whether `(cn, bn)` could be allocated right now.
    pub fn can_allocate(&self, cn: usize, bn: usize) -> bool {
        let (need_cn, need_bn) = self.effective(cn, bn);
        let p = self.pools.lock();
        p.free[CN].len() >= need_cn && p.free[BN].len() >= need_bn
    }

    /// The `(cn, bn)` a request really consumes under the active policy:
    /// identity for [`AllocationPolicy::Independent`]; host/accelerator
    /// coupling for [`AllocationPolicy::NodeLocked`]. Exposed so
    /// reservation math (backfill shadow times, utilization denominators)
    /// can account in the same units the pools charge.
    pub fn effective(&self, cn: usize, bn: usize) -> (usize, usize) {
        match self.policy {
            AllocationPolicy::Independent => (cn, bn),
            AllocationPolicy::NodeLocked { ratio } => {
                // Each host carries `ratio` accelerators: asking for bn
                // boosters consumes ceil(bn/ratio) hosts; asking for cn
                // hosts consumes cn*ratio boosters.
                let hosts_for_bn = bn.div_ceil(ratio.max(1) as usize);
                let hosts = cn.max(hosts_for_bn);
                (hosts, hosts * ratio as usize)
            }
        }
    }

    /// Reserve `cn` cluster and `bn` booster nodes (lowest ids first).
    /// Atomic: on failure nothing is taken.
    pub fn allocate(&self, cn: usize, bn: usize) -> Result<Allocation, AllocationError> {
        self.allocate_modular(cn, bn, 0)
    }

    /// Reserve nodes from all three compute modules (DEEP-EST systems).
    pub fn allocate_modular(
        &self,
        cn: usize,
        bn: usize,
        dn: usize,
    ) -> Result<Allocation, AllocationError> {
        let (need_cn, need_bn) = self.effective(cn, bn);
        let mut p = self.pools.lock();
        for (m, requested) in [need_cn, need_bn, dn].into_iter().enumerate() {
            let free = p.free[m].len();
            if free < requested {
                return Err(AllocationError::Insufficient {
                    module: MODULES[m],
                    requested,
                    free,
                });
            }
        }
        let id = p.next_id;
        p.next_id += 1;
        p.live.insert(id);
        Ok(Allocation {
            id,
            cluster: p.take(CN, need_cn).collect(),
            booster: p.take(BN, need_bn).collect(),
            dam: p.take(DAM, dn).collect(),
        })
    }

    /// Return an allocation's nodes to the pools. Nodes that were marked
    /// down while allocated go to the down sets instead of the free pools
    /// (the batch system's "drain on fault" behaviour).
    pub fn release(&self, alloc: &Allocation) -> Result<(), AllocationError> {
        let mut p = self.pools.lock();
        if !p.live.remove(&alloc.id) {
            return Err(AllocationError::StaleAllocation);
        }
        for (m, nodes) in [&alloc.cluster, &alloc.booster, &alloc.dam]
            .into_iter()
            .enumerate()
        {
            p.give_back(m, nodes);
        }
        Ok(())
    }

    /// Lock the pools for one pass of [`LockedPools::grow`] and
    /// [`LockedPools::shrink`] calls over live allocations.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> LockedPools<'_> {
        LockedPools {
            p: self.pools.lock(),
            growable: self.policy == AllocationPolicy::Independent,
        }
    }

    /// Take `node` out of service (a fault). If it is free it is
    /// quarantined immediately; if it is currently allocated the
    /// quarantine is deferred to the allocation's release; if it is
    /// already quarantined nothing changes. Returns `true` when the node
    /// was not in use (idle fault), `false` when it was — the caller then
    /// decides what to do with the victim job.
    pub fn mark_down(&self, node: NodeId) -> bool {
        let p = &mut *self.pools.lock();
        if p.down.iter().any(|d| d.contains(&node)) {
            return true;
        }
        for (free, down) in p.free.iter_mut().zip(&mut p.down) {
            if free.remove(&node) {
                down.insert(node);
                return true;
            }
        }
        p.pending_down.insert(node);
        false
    }

    /// Return a repaired node to service. Idempotent; returns `true` when
    /// the node was actually down (or pending down).
    pub fn mark_up(&self, node: NodeId) -> bool {
        let p = &mut *self.pools.lock();
        for (free, down) in p.free.iter_mut().zip(&mut p.down) {
            if down.remove(&node) {
                free.insert(node);
                return true;
            }
        }
        // Not quarantined: repaired while still allocated (the node
        // returns to its free pool at release), or never down at all.
        p.pending_down.remove(&node)
    }

    /// Nodes currently quarantined per module (Cluster, Booster, DAM).
    /// Faulted nodes still inside live allocations are not yet assigned a
    /// module here — count those via
    /// [`ResourceManager::pending_down_count`].
    pub fn down_counts(&self) -> (usize, usize, usize) {
        let p = self.pools.lock();
        (p.down[CN].len(), p.down[BN].len(), p.down[DAM].len())
    }

    /// Faulted nodes still held by live allocations (quarantine deferred).
    pub fn pending_down_count(&self) -> usize {
        self.pools.lock().pending_down.len()
    }
}

/// The pools of a [`ResourceManager`], held locked ([`ResourceManager::lock`])
/// so that a pass over many allocations acquires them once.
pub struct LockedPools<'a> {
    p: MutexGuard<'a, Pools, 200>,
    /// Only independently reserved Booster nodes can join an allocation:
    /// a node-locked one cannot leave its host.
    growable: bool,
}

impl LockedPools<'_> {
    /// How many nodes [`LockedPools::grow`] could hand out now.
    pub fn free_to_grow(&self) -> usize {
        usize::from(self.growable) * self.p.free[BN].len()
    }

    /// Add `n` free Booster nodes to a live allocation, lowest ids first:
    /// the nodes `n` calls of `allocate(0, 1)` would hand out, appended to
    /// `alloc.booster`. Atomic: on failure nothing is taken.
    pub fn grow(&mut self, alloc: &mut Allocation, n: usize) -> Result<(), AllocationError> {
        if !self.p.live.contains(&alloc.id) {
            return Err(AllocationError::StaleAllocation);
        }
        let free = self.free_to_grow();
        if free < n {
            return Err(AllocationError::Insufficient {
                module: ModuleKind::Booster,
                requested: n,
                free,
            });
        }
        alloc.booster.extend(self.p.take(BN, n));
        Ok(())
    }

    /// Cut a live allocation back to its first `keep` Booster nodes; the
    /// rest leave it as in [`ResourceManager::release`].
    pub fn shrink(&mut self, alloc: &mut Allocation, keep: usize) -> Result<(), AllocationError> {
        if !self.p.live.contains(&alloc.id) {
            return Err(AllocationError::StaleAllocation);
        }
        let cut = alloc.booster.get(keep..).unwrap_or_default();
        self.p.give_back(BN, cut);
        alloc.booster.truncate(keep);
        Ok(())
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the concurrency test needs real threads racing the shared manager"
)]
mod tests {
    use super::*;
    use crate::presets::deep_er_prototype;

    fn rm() -> ResourceManager {
        ResourceManager::new(&deep_er_prototype())
    }

    #[test]
    fn totals_match_prototype() {
        let rm = rm();
        assert_eq!(rm.totals(), (16, 8));
        assert_eq!(rm.free_cluster(), 16);
        assert_eq!(rm.free_booster(), 8);
    }

    #[test]
    fn independent_allocation_any_combination() {
        let rm = rm();
        // Booster-only, Cluster-only and mixed allocations coexist.
        let a = rm.allocate(0, 4).unwrap();
        let b = rm.allocate(10, 0).unwrap();
        let c = rm.allocate(6, 4).unwrap();
        assert_eq!(a.booster.len(), 4);
        assert!(a.cluster.is_empty());
        assert_eq!(b.cluster.len(), 10);
        assert_eq!(c.len(), 10);
        assert_eq!(rm.free_cluster(), 0);
        assert_eq!(rm.free_booster(), 0);
        assert!(!c.is_empty());
    }

    #[test]
    fn allocation_is_atomic_on_failure() {
        let rm = rm();
        let err = rm.allocate(20, 2).unwrap_err();
        assert!(matches!(
            err,
            AllocationError::Insufficient {
                module: ModuleKind::Cluster,
                ..
            }
        ));
        // Nothing was taken.
        assert_eq!(rm.free_cluster(), 16);
        assert_eq!(rm.free_booster(), 8);
    }

    #[test]
    fn release_returns_nodes() {
        let rm = rm();
        let a = rm.allocate(3, 3).unwrap();
        rm.release(&a).unwrap();
        assert_eq!(rm.free_cluster(), 16);
        assert_eq!(rm.free_booster(), 8);
        assert!(matches!(
            rm.release(&a),
            Err(AllocationError::StaleAllocation)
        ));
    }

    #[test]
    fn nodes_are_distinct_across_allocations() {
        let rm = rm();
        let a = rm.allocate(4, 2).unwrap();
        let b = rm.allocate(4, 2).unwrap();
        for n in a.all_nodes() {
            assert!(!b.all_nodes().contains(&n));
        }
    }

    #[test]
    fn node_locked_policy_couples_modules() {
        // Accelerated-cluster emulation with 1 accelerator per host on a
        // system with 8 CN + 8 BN: a booster-only request still consumes
        // host nodes, which is the inefficiency §II-A calls out.
        let sys = crate::system::SystemBuilder::new("acc")
            .cluster_nodes(8)
            .booster_nodes(8)
            .build();
        let rm = ResourceManager::with_policy(&sys, AllocationPolicy::NodeLocked { ratio: 1 });
        let a = rm.allocate(0, 4).unwrap();
        assert_eq!(a.cluster.len(), 4, "hosts dragged along");
        assert_eq!(a.booster.len(), 4);
        assert_eq!(rm.free_cluster(), 4);
        // A cluster-only request likewise consumes accelerators.
        let b = rm.allocate(4, 0).unwrap();
        assert_eq!(b.booster.len(), 4);
        assert_eq!(rm.free_booster(), 0);
        // Under the independent policy both requests would leave the other
        // pool untouched.
        let rm2 = ResourceManager::new(&sys);
        rm2.allocate(0, 4).unwrap();
        assert_eq!(rm2.free_cluster(), 8);
    }

    #[test]
    fn can_allocate_is_consistent() {
        let rm = rm();
        assert!(rm.can_allocate(16, 8));
        assert!(!rm.can_allocate(17, 0));
        rm.allocate(16, 0).unwrap();
        assert!(!rm.can_allocate(1, 0));
        assert!(rm.can_allocate(0, 8));
    }

    #[test]
    fn mark_down_quarantines_free_nodes_immediately() {
        let rm = rm();
        // Learn a node id, then return it so it is free when the fault hits.
        let probe = rm.allocate(1, 0).unwrap();
        let node = probe.cluster[0];
        rm.release(&probe).unwrap();
        assert!(rm.mark_down(node), "free node quarantined at once");
        assert_eq!(rm.free_cluster(), 15);
        assert_eq!(rm.down_counts(), (1, 0, 0));
        assert!(rm.mark_up(node));
        assert_eq!(rm.free_cluster(), 16);
        assert_eq!(rm.down_counts(), (0, 0, 0));
    }

    #[test]
    fn mark_down_of_allocated_node_defers_to_release() {
        let rm = rm();
        let a = rm.allocate(2, 1).unwrap();
        let victim = a.booster[0];
        assert!(!rm.mark_down(victim), "allocated node: deferred");
        assert_eq!(rm.pending_down_count(), 1);
        assert_eq!(rm.down_counts(), (0, 0, 0));
        rm.release(&a).unwrap();
        // The faulted node went to the down set, the others came back.
        assert_eq!(rm.pending_down_count(), 0);
        assert_eq!(rm.down_counts(), (0, 1, 0));
        assert_eq!(rm.free_booster(), 7);
        assert_eq!(rm.free_cluster(), 16);
        // Repair returns it.
        assert!(rm.mark_up(victim));
        assert_eq!(rm.free_booster(), 8);
    }

    #[test]
    fn repair_before_release_cancels_quarantine() {
        let rm = rm();
        let a = rm.allocate(1, 0).unwrap();
        let n = a.cluster[0];
        assert!(!rm.mark_down(n));
        assert!(rm.mark_up(n), "pending quarantine cancelled");
        rm.release(&a).unwrap();
        assert_eq!(rm.free_cluster(), 16);
        assert_eq!(rm.down_counts(), (0, 0, 0));
        assert!(!rm.mark_up(n), "idempotent: already up");
    }

    #[test]
    fn down_nodes_are_never_allocated() {
        let sys = crate::system::SystemBuilder::new("tiny")
            .cluster_nodes(2)
            .booster_nodes(1)
            .build();
        let rm = ResourceManager::new(&sys);
        let probe = rm.allocate(2, 0).unwrap();
        let downed = probe.cluster[0];
        rm.release(&probe).unwrap();
        rm.mark_down(downed);
        assert!(rm.can_allocate(1, 0));
        assert!(!rm.can_allocate(2, 0), "only one CN serviceable");
        let a = rm.allocate(1, 0).unwrap();
        assert_ne!(a.cluster[0], downed);
    }

    #[test]
    fn effective_exposes_policy_coupling() {
        let rm = rm();
        assert_eq!(rm.effective(3, 5), (3, 5), "independent: identity");
        let sys = crate::system::SystemBuilder::new("acc")
            .cluster_nodes(8)
            .booster_nodes(16)
            .build();
        let locked = ResourceManager::with_policy(&sys, AllocationPolicy::NodeLocked { ratio: 2 });
        assert_eq!(locked.effective(0, 5), (3, 6), "ceil(5/2)=3 hosts");
        assert_eq!(locked.effective(4, 0), (4, 8), "hosts drag accelerators");
    }

    #[test]
    fn a_second_fault_on_a_quarantined_node_changes_nothing() {
        let rm = rm();
        let probe = rm.allocate(0, 1).unwrap();
        let node = probe.booster[0];
        rm.release(&probe).unwrap();
        assert!(rm.mark_down(node));
        assert!(rm.mark_down(node), "already down: not in use");
        assert_eq!(rm.pending_down_count(), 0, "no stale deferred quarantine");
        assert_eq!(rm.down_counts(), (0, 1, 0));
        // One repair brings it all the way back.
        assert!(rm.mark_up(node));
        assert_eq!(rm.free_booster(), 8);
        assert_eq!(rm.pending_down_count(), 0);
        assert!(!rm.mark_up(node), "nothing left to repair");
    }

    /// A second pass on one thread would wait for itself forever; the
    /// rank check turns that hang into a panic naming both sites.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(
        expected = "cluster_booster::resources::Pools (rank 200) acquired at crates/core/src/resources.rs"
    )]
    fn a_second_pass_on_one_thread_panics() {
        let rm = rm();
        let _pass = rm.lock();
        let _again = rm.lock();
    }

    #[test]
    fn grown_nodes_are_the_ones_one_node_allocations_handed_out() {
        // Two jobs dealt four nodes in turn, as `allocate(0, 1)` calls ...
        let singles = rm();
        let (a, b) = (
            singles.allocate(1, 1).unwrap(),
            singles.allocate(1, 1).unwrap(),
        );
        let mut dealt = [a.booster.clone(), b.booster.clone()];
        for turn in 0..4 {
            dealt[turn % 2].extend(singles.allocate(0, 1).unwrap().booster);
        }
        // ... and as growth in place, under one lock.
        let rm = rm();
        let (mut a, mut b) = (rm.allocate(1, 1).unwrap(), rm.allocate(1, 1).unwrap());
        let mut pools = rm.lock();
        for _ in 0..2 {
            pools.grow(&mut a, 1).unwrap();
            pools.grow(&mut b, 1).unwrap();
        }
        drop(pools);
        assert_eq!([a.booster.clone(), b.booster.clone()], dealt);
        assert_eq!(a.booster.len(), 3);
        assert_eq!(rm.free_booster(), 2);
        // Atomic: three are not to be had, and nothing is taken.
        assert!(matches!(
            rm.lock().grow(&mut a, 3),
            Err(AllocationError::Insufficient {
                module: ModuleKind::Booster,
                requested: 3,
                free: 2
            })
        ));
        assert_eq!((a.booster.len(), rm.free_booster()), (3, 2));
        // Release returns base and growth alike.
        rm.release(&a).unwrap();
        rm.release(&b).unwrap();
        assert_eq!((rm.free_cluster(), rm.free_booster()), (16, 8));
    }

    #[test]
    fn shrinking_quarantines_a_node_that_faulted_meanwhile() {
        let rm = rm();
        let mut a = rm.allocate(0, 2).unwrap();
        rm.lock().grow(&mut a, 3).unwrap();
        let (kept, grown) = (a.booster[1], a.booster[3]);
        assert!(!rm.mark_down(grown) && !rm.mark_down(kept));
        rm.lock().shrink(&mut a, 2).unwrap();
        assert_eq!(a.booster.len(), 2);
        // The grown node went down, not free; the kept one is still held.
        assert_eq!(rm.down_counts(), (0, 1, 0));
        assert_eq!(rm.free_booster(), 5);
        assert_eq!(rm.pending_down_count(), 1);
        // Shrinking to what it already has is a no-op.
        rm.lock().shrink(&mut a, 5).unwrap();
        assert_eq!((a.booster.len(), rm.free_booster()), (2, 5));
        rm.release(&a).unwrap();
        assert_eq!(rm.down_counts(), (0, 2, 0));
        assert_eq!(rm.pending_down_count(), 0);
    }

    #[test]
    fn a_released_allocation_neither_grows_nor_shrinks() {
        let rm = rm();
        let mut a = rm.allocate(1, 2).unwrap();
        rm.release(&a).unwrap();
        assert_eq!(
            rm.lock().grow(&mut a, 1),
            Err(AllocationError::StaleAllocation)
        );
        assert_eq!(
            rm.lock().shrink(&mut a, 0),
            Err(AllocationError::StaleAllocation)
        );
        assert_eq!((a.booster.len(), rm.free_booster()), (2, 8));
    }

    #[test]
    fn a_node_locked_allocation_never_grows() {
        let rm = ResourceManager::with_policy(
            &deep_er_prototype(),
            AllocationPolicy::NodeLocked { ratio: 1 },
        );
        let mut a = rm.allocate(2, 0).unwrap();
        assert_eq!(rm.free_booster(), 6);
        // Six Booster nodes are idle, each bound to its host.
        assert!(matches!(
            rm.lock().grow(&mut a, 1),
            Err(AllocationError::Insufficient { free: 0, .. })
        ));
        assert_eq!((a.booster.len(), rm.free_booster()), (2, 6));
    }

    #[test]
    fn concurrent_allocation_is_safe() {
        let rm = rm();
        let grabbed: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let rm = rm.clone();
                    s.spawn(move || rm.allocate(2, 1))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let ok: Vec<_> = grabbed.into_iter().flatten().collect();
        assert_eq!(ok.len(), 8, "16 CN / 2 and 8 BN / 1 fit exactly 8 jobs");
        let mut seen = std::collections::BTreeSet::new();
        for a in &ok {
            for n in a.all_nodes() {
                assert!(seen.insert(n), "node double-allocated");
            }
        }
    }
}
