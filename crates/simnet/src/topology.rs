//! Fabric topology: the set of nodes and the hop distance between them.
//!
//! The DEEP-ER prototype is a single 19" rack: 16 Cluster nodes, 8 Booster
//! nodes and 3 storage-system nodes behind one level of EXTOLL switching.
//! [`Topology`] therefore defaults to a star (every pair one switch hop
//! apart) but supports per-module extra hops for modelling larger modular
//! systems (DEEP-EST style, paper §VI).

use hwmodel::{NodeId, NodeKind, NodeSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Errors from topology construction and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The queried node id has not been registered.
    UnknownNode(NodeId),
    /// A node id was registered twice.
    DuplicateNode(NodeId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownNode(id) => write!(f, "unknown node {id}"),
            TopologyError::DuplicateNode(id) => write!(f, "duplicate node {id}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The set of fabric endpoints and their pairwise hop counts.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: BTreeMap<NodeId, Arc<NodeSpec>>,
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

    /// Register a node. Ids must be unique.
    pub fn add_node(&mut self, id: NodeId, spec: NodeSpec) -> Result<(), TopologyError> {
        if self.nodes.contains_key(&id) {
            return Err(TopologyError::DuplicateNode(id));
        }
        self.nodes.insert(id, Arc::new(spec));
        Ok(())
    }

    /// Register `count` identical nodes starting at the next free id,
    /// returning their ids.
    pub fn add_nodes(&mut self, count: u32, spec: &NodeSpec) -> Vec<NodeId> {
        let start = self.nodes.keys().next_back().map_or(0, |id| id.0 + 1);
        (start..start + count)
            .map(|i| {
                let id = NodeId(i);
                self.nodes.insert(id, Arc::new(spec.clone()));
                id
            })
            .collect()
    }

    /// Look up a node's spec.
    pub fn node(&self, id: NodeId) -> Result<&Arc<NodeSpec>, TopologyError> {
        self.nodes.get(&id).ok_or(TopologyError::UnknownNode(id))
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Ids of all nodes of a given kind, ascending.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, s)| s.kind == kind)
            .map(|(id, _)| *id)
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
    fn duplicate_rejected() {
        let mut t = Topology::new();
        t.add_node(NodeId(0), deep_er_cluster_node()).unwrap();
        assert!(matches!(
            t.add_node(NodeId(0), deep_er_cluster_node()),
            Err(TopologyError::DuplicateNode(NodeId(0)))
        ));
    }

    #[test]
    fn ids_allocated_contiguously() {
        let t = prototype();
        let ids: Vec<u32> = t.node_ids().map(|n| n.0).collect();
        assert_eq!(ids, (0..24).collect::<Vec<_>>());
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
    fn error_display() {
        assert_eq!(
            TopologyError::UnknownNode(NodeId(5)).to_string(),
            "unknown node node5"
        );
    }
}
