//! Fabric topology: the set of nodes and the hop distance between them.
//!
//! The DEEP-ER prototype is a single 19" rack: 16 Cluster nodes, 8 Booster
//! nodes and 3 storage-system nodes behind one level of EXTOLL switching.
//! [`Topology`] therefore defaults to a star (every pair one switch hop
//! apart) but supports per-module extra hops for modelling larger modular
//! systems (DEEP-EST style, paper §VI).

use hwmodel::{NodeId, NodeKind, NodeSpec};
use std::sync::Arc;

/// Errors from topology construction and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The queried node id has not been registered.
    UnknownNode(NodeId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownNode(id) => write!(f, "unknown node {id}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The set of fabric endpoints and their pairwise hop counts.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Node `i`'s spec at index `i`: [`Topology::add_nodes`] hands out ids
    /// densely from 0, and the nodes of one call share one spec.
    nodes: Vec<Arc<NodeSpec>>,
    /// Extra switch hops to cross between two *different* modules
    /// (Cluster↔Booster, compute↔storage). Zero in the prototype.
    inter_module_extra_hops: u32,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Set the number of extra hops between different modules (for modelling
    /// multi-switch modular systems; the DEEP-ER rack uses 0).
    pub fn with_inter_module_hops(mut self, hops: u32) -> Self {
        self.inter_module_extra_hops = hops;
        self
    }

    /// Register `count` identical nodes starting at the next free id,
    /// returning their ids. The spec is copied once per call: its nodes
    /// share one `Arc`.
    pub fn add_nodes(&mut self, count: u32, spec: &NodeSpec) -> Vec<NodeId> {
        let start = self.nodes.len() as u32;
        let shared = Arc::new(spec.clone());
        self.nodes
            .extend(std::iter::repeat_n(shared, count as usize));
        (start..start + count).map(NodeId).collect()
    }

    /// Look up a node's spec.
    pub fn node(&self, id: NodeId) -> Result<&Arc<NodeSpec>, TopologyError> {
        self.nodes
            .get(id.0 as usize)
            .ok_or(TopologyError::UnknownNode(id))
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all nodes of a given kind, ascending.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        (0..)
            .zip(&self.nodes)
            .filter(|(_, s)| s.kind == kind)
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Switch hops between two endpoints. Same node: 0 (loopback). Same
    /// module: 1. Different modules: 1 + configured extra hops.
    pub fn hops(&self, a: NodeId, b: NodeId) -> Result<u32, TopologyError> {
        Ok(self.hops_between(a, self.node(a)?, b, self.node(b)?))
    }

    /// [`Topology::hops`] for two nodes whose specs the caller already
    /// holds (the ones registered under `a` and `b`): no table lookup.
    pub fn hops_between(&self, a: NodeId, sa: &NodeSpec, b: NodeId, sb: &NodeSpec) -> u32 {
        if a == b {
            0
        } else if sa.kind == sb.kind {
            1
        } else {
            1 + self.inter_module_extra_hops
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};

    fn prototype() -> Topology {
        let mut t = Topology::new();
        t.add_nodes(16, &deep_er_cluster_node());
        t.add_nodes(8, &deep_er_booster_node());
        t
    }

    #[test]
    fn add_and_lookup() {
        let t = prototype();
        assert_eq!(t.len(), 24);
        assert!(!t.is_empty());
        assert_eq!(t.node(NodeId(0)).unwrap().kind, NodeKind::Cluster);
        assert_eq!(t.node(NodeId(16)).unwrap().kind, NodeKind::Booster);
        assert!(matches!(
            t.node(NodeId(99)),
            Err(TopologyError::UnknownNode(NodeId(99)))
        ));
    }

    #[test]
    fn ids_allocated_contiguously() {
        let t = prototype();
        let ids = |kind| t.nodes_of_kind(kind);
        assert_eq!(
            ids(NodeKind::Cluster),
            (0..16).map(NodeId).collect::<Vec<_>>()
        );
        assert_eq!(
            ids(NodeKind::Booster),
            (16..24).map(NodeId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_nodes_of_one_call_share_one_spec() {
        let mut t = prototype();
        let more = t.add_nodes(4, &deep_er_cluster_node());
        let spec = |i| t.node(NodeId(i)).unwrap();
        assert!((1..16).all(|i| Arc::ptr_eq(spec(0), spec(i))));
        assert!((17..24).all(|i| Arc::ptr_eq(spec(16), spec(i))));
        assert!(!Arc::ptr_eq(spec(0), spec(16)));
        // The same spec given to a second call is a second copy.
        assert_eq!(more, (24..28).map(NodeId).collect::<Vec<_>>());
        assert_eq!(**spec(24), **spec(0));
        assert!(!Arc::ptr_eq(spec(0), spec(24)));
        assert!((25..28).all(|i| Arc::ptr_eq(spec(24), spec(i))));
    }

    #[test]
    fn ids_stay_dense_across_calls_and_end_at_the_table() {
        let mut t = Topology::new();
        assert_eq!(t.add_nodes(0, &deep_er_cluster_node()), []);
        assert_eq!(
            t.add_nodes(2, &deep_er_booster_node()),
            [NodeId(0), NodeId(1)]
        );
        assert_eq!(t.add_nodes(0, &deep_er_cluster_node()), []);
        assert_eq!(t.add_nodes(1, &deep_er_cluster_node()), [NodeId(2)]);
        assert_eq!(t.len(), 3);
        assert!(t.node(NodeId(2)).is_ok());
        for past in [3, u32::MAX] {
            assert_eq!(
                t.node(NodeId(past)),
                Err(TopologyError::UnknownNode(NodeId(past)))
            );
            assert_eq!(
                t.hops(NodeId(0), NodeId(past)),
                Err(TopologyError::UnknownNode(NodeId(past)))
            );
        }
    }

    #[test]
    fn kind_filter() {
        let t = prototype();
        assert_eq!(t.nodes_of_kind(NodeKind::Cluster).len(), 16);
        assert_eq!(t.nodes_of_kind(NodeKind::Booster).len(), 8);
        assert_eq!(t.nodes_of_kind(NodeKind::Storage).len(), 0);
    }

    #[test]
    fn hops_star_topology() {
        let t = prototype();
        assert_eq!(t.hops(NodeId(0), NodeId(0)).unwrap(), 0);
        assert_eq!(t.hops(NodeId(0), NodeId(1)).unwrap(), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(16)).unwrap(), 1);
    }

    #[test]
    fn inter_module_extra_hops() {
        let mut t = Topology::new().with_inter_module_hops(2);
        t.add_nodes(2, &deep_er_cluster_node());
        t.add_nodes(2, &deep_er_booster_node());
        assert_eq!(t.hops(NodeId(0), NodeId(1)).unwrap(), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(2)).unwrap(), 3);
    }

    #[test]
    fn every_prototype_pair_is_as_many_hops_as_its_modules_say() {
        let mut t = Topology::new().with_inter_module_hops(2);
        t.add_nodes(16, &deep_er_cluster_node());
        t.add_nodes(8, &deep_er_booster_node());
        let booster = |i: u32| i >= 16;
        for a in 0..24 {
            for b in 0..24 {
                let want = match (a == b, booster(a) == booster(b)) {
                    (true, _) => 0,
                    (false, true) => 1,
                    (false, false) => 3,
                };
                assert_eq!(t.hops(NodeId(a), NodeId(b)), Ok(want), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(
            TopologyError::UnknownNode(NodeId(5)).to_string(),
            "unknown node node5"
        );
    }
}
