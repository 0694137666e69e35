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
use parking_lot::Mutex;
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

#[derive(Debug)]
struct Pools {
    free_cluster: BTreeSet<NodeId>,
    free_booster: BTreeSet<NodeId>,
    free_dam: BTreeSet<NodeId>,
    /// Nodes marked down by a fault ([`ResourceManager::mark_down`]),
    /// per module: removed from the free pools, never handed out until
    /// repaired with [`ResourceManager::mark_up`].
    down_cluster: BTreeSet<NodeId>,
    down_booster: BTreeSet<NodeId>,
    down_dam: BTreeSet<NodeId>,
    /// Downed nodes that were allocated at fault time: they route to the
    /// down sets (not back to the free pools) when their allocation is
    /// released.
    pending_down: BTreeSet<NodeId>,
    live: BTreeSet<u64>,
    next_id: u64,
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
    pools: Arc<Mutex<Pools>>, // lock-order: 10
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
        let cluster: BTreeSet<NodeId> = system.cluster_nodes().into_iter().collect();
        let booster: BTreeSet<NodeId> = system.booster_nodes().into_iter().collect();
        let dam: BTreeSet<NodeId> = system.dam_nodes().into_iter().collect();
        ResourceManager {
            total_cluster: cluster.len(),
            total_booster: booster.len(),
            pools: Arc::new(Mutex::new(Pools {
                free_cluster: cluster,
                free_booster: booster,
                free_dam: dam,
                down_cluster: BTreeSet::new(),
                down_booster: BTreeSet::new(),
                down_dam: BTreeSet::new(),
                pending_down: BTreeSet::new(),
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
        self.pools.lock().free_cluster.len()
    }

    /// Free booster-node count.
    pub fn free_booster(&self) -> usize {
        self.pools.lock().free_booster.len()
    }

    /// Free DAM-node count.
    pub fn free_dam(&self) -> usize {
        self.pools.lock().free_dam.len()
    }

    /// Total managed nodes per module (Cluster, Booster).
    pub fn totals(&self) -> (usize, usize) {
        (self.total_cluster, self.total_booster)
    }

    /// Whether `(cn, bn)` could be allocated right now.
    pub fn can_allocate(&self, cn: usize, bn: usize) -> bool {
        let (need_cn, need_bn) = self.effective_request(cn, bn);
        let p = self.pools.lock();
        p.free_cluster.len() >= need_cn && p.free_booster.len() >= need_bn
    }

    /// The `(cn, bn)` a request really consumes under the active policy:
    /// identity for [`AllocationPolicy::Independent`]; host/accelerator
    /// coupling for [`AllocationPolicy::NodeLocked`]. Exposed so
    /// reservation math (backfill shadow times, utilization denominators)
    /// can account in the same units the pools charge.
    pub fn effective(&self, cn: usize, bn: usize) -> (usize, usize) {
        self.effective_request(cn, bn)
    }

    fn effective_request(&self, cn: usize, bn: usize) -> (usize, usize) {
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
        let (need_cn, need_bn) = self.effective_request(cn, bn);
        let mut p = self.pools.lock();
        if p.free_cluster.len() < need_cn {
            return Err(AllocationError::Insufficient {
                module: ModuleKind::Cluster,
                requested: need_cn,
                free: p.free_cluster.len(),
            });
        }
        if p.free_booster.len() < need_bn {
            return Err(AllocationError::Insufficient {
                module: ModuleKind::Booster,
                requested: need_bn,
                free: p.free_booster.len(),
            });
        }
        if p.free_dam.len() < dn {
            return Err(AllocationError::Insufficient {
                module: ModuleKind::Dam,
                requested: dn,
                free: p.free_dam.len(),
            });
        }
        let cluster: Vec<NodeId> = p.free_cluster.iter().take(need_cn).copied().collect();
        let booster: Vec<NodeId> = p.free_booster.iter().take(need_bn).copied().collect();
        let dam: Vec<NodeId> = p.free_dam.iter().take(dn).copied().collect();
        for n in &cluster {
            p.free_cluster.remove(n);
        }
        for n in &booster {
            p.free_booster.remove(n);
        }
        for n in &dam {
            p.free_dam.remove(n);
        }
        let id = p.next_id;
        p.next_id += 1;
        p.live.insert(id);
        Ok(Allocation {
            id,
            cluster,
            booster,
            dam,
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
        for &n in &alloc.cluster {
            if p.pending_down.remove(&n) {
                p.down_cluster.insert(n);
            } else {
                p.free_cluster.insert(n);
            }
        }
        for &n in &alloc.booster {
            if p.pending_down.remove(&n) {
                p.down_booster.insert(n);
            } else {
                p.free_booster.insert(n);
            }
        }
        for &n in &alloc.dam {
            if p.pending_down.remove(&n) {
                p.down_dam.insert(n);
            } else {
                p.free_dam.insert(n);
            }
        }
        Ok(())
    }

    /// Take `node` out of service (a fault). If it is free it is
    /// quarantined immediately; if it is currently allocated the
    /// quarantine is deferred to the allocation's release. Returns `true`
    /// when the node was free (idle fault), `false` when it was in use —
    /// the caller then decides what to do with the victim job.
    pub fn mark_down(&self, node: NodeId) -> bool {
        let mut p = self.pools.lock();
        if p.free_cluster.remove(&node) {
            p.down_cluster.insert(node);
            true
        } else if p.free_booster.remove(&node) {
            p.down_booster.insert(node);
            true
        } else if p.free_dam.remove(&node) {
            p.down_dam.insert(node);
            true
        } else {
            p.pending_down.insert(node);
            false
        }
    }

    /// Return a repaired node to service. Idempotent; returns `true` when
    /// the node was actually down (or pending down).
    pub fn mark_up(&self, node: NodeId) -> bool {
        let mut p = self.pools.lock();
        // Cancel any deferred quarantine unconditionally: a node that
        // faulted again while already down must not carry a stale
        // pending flag past its repair.
        let was_pending = p.pending_down.remove(&node);
        if p.down_cluster.remove(&node) {
            p.free_cluster.insert(node);
            true
        } else if p.down_booster.remove(&node) {
            p.free_booster.insert(node);
            true
        } else if p.down_dam.remove(&node) {
            p.free_dam.insert(node);
            true
        } else {
            // Repaired while still allocated: the node returns to its
            // free pool at release.
            was_pending
        }
    }

    /// Nodes currently quarantined per module (Cluster, Booster, DAM).
    /// Faulted nodes still inside live allocations are not yet assigned a
    /// module here — count those via
    /// [`ResourceManager::pending_down_count`].
    pub fn down_counts(&self) -> (usize, usize, usize) {
        let p = self.pools.lock();
        (p.down_cluster.len(), p.down_booster.len(), p.down_dam.len())
    }

    /// Faulted nodes still held by live allocations (quarantine deferred).
    pub fn pending_down_count(&self) -> usize {
        self.pools.lock().pending_down.len()
    }
}

#[cfg(test)]
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
        let mut seen = std::collections::HashSet::new();
        for a in &ok {
            for n in a.all_nodes() {
                assert!(seen.insert(n), "node double-allocated");
            }
        }
    }
}
