//! Node models.
//!
//! A [`NodeSpec`] assembles sockets and memory levels into one node of the
//! prototype, plus the NIC software-overhead parameters that the fabric
//! model (`simnet`) uses for per-message costs. Nodes are classified by
//! [`NodeKind`]: the paper's Cluster nodes (CN), Booster nodes (BN), and the
//! storage/service nodes that host the parallel file system.

use crate::memory::{MemoryKind, MemoryLevel};
use crate::processor::Processor;
use crate::time::SimTime;

/// Globally unique node identifier within a simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The role a node plays in the modular system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// General-purpose Cluster node (Xeon). "CN" in the paper's figures.
    Cluster,
    /// Many-core Booster node (Xeon Phi). "BN" in the paper's figures.
    Booster,
    /// Storage server of the parallel file system.
    Storage,
    /// Metadata server of the parallel file system.
    Metadata,
}

impl NodeKind {
    /// Short label used in figures ("CN", "BN", ...).
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::Cluster => "CN",
            NodeKind::Booster => "BN",
            NodeKind::Storage => "SN",
            NodeKind::Metadata => "MN",
        }
    }
}

/// A complete node model.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Role of the node.
    pub kind: NodeKind,
    /// Processor model of each socket.
    pub processor: Processor,
    /// Number of sockets.
    pub sockets: u32,
    /// Memory levels, fastest first. The first DRAM-class level is the
    /// default binding for kernels.
    pub memory: Vec<MemoryLevel>,
    /// Per-message MPI software overhead on the send side. Depends on the
    /// single-thread performance of the processor: 0.35 µs on Haswell vs
    /// 0.75 µs on KNL reproduces the 1.0 µs CN-CN / 1.8 µs BN-BN end-to-end
    /// latencies of Table I and Fig. 3.
    pub nic_send_overhead: SimTime,
    /// Per-message MPI software overhead on the receive side.
    pub nic_recv_overhead: SimTime,
}

impl NodeSpec {
    /// Total physical cores of the node.
    pub fn cores(&self) -> u32 {
        self.sockets * self.processor.cores
    }

    /// Total hardware threads of the node.
    pub fn threads(&self) -> u32 {
        self.sockets * self.processor.threads()
    }

    /// Peak double-precision GFlop/s of the node.
    pub fn peak_gflops(&self) -> f64 {
        self.sockets as f64 * self.processor.peak_gflops()
    }

    /// The fastest DRAM-class level (MCDRAM if present, else DDR4).
    /// Kernels bind here by default.
    pub fn fast_memory(&self) -> &MemoryLevel {
        self.memory
            .iter()
            .filter(|m| matches!(m.kind, MemoryKind::Mcdram | MemoryKind::Ddr4))
            .max_by(|a, b| a.read_bw_gbs.total_cmp(&b.read_bw_gbs))
            .expect("node has no DRAM-class memory level")
    }

    /// The memory level of a given kind, if present.
    pub fn memory_level(&self, kind: MemoryKind) -> Option<&MemoryLevel> {
        self.memory.iter().find(|m| m.kind == kind)
    }

    /// The node-local NVMe device, if present.
    pub fn nvme(&self) -> Option<&MemoryLevel> {
        self.memory_level(MemoryKind::Nvme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{deep_er_booster_node, deep_er_cluster_node};

    /// Total RAM capacity (all DRAM-class levels) of `spec` in bytes.
    fn ram_bytes(spec: &NodeSpec) -> u64 {
        spec.memory
            .iter()
            .filter(|m| matches!(m.kind, MemoryKind::Mcdram | MemoryKind::Ddr4))
            .map(|m| m.capacity_bytes)
            .sum()
    }

    #[test]
    fn table1_cluster_node_shape() {
        let cn = deep_er_cluster_node();
        assert_eq!(cn.kind, NodeKind::Cluster);
        assert_eq!(cn.sockets, 2);
        assert_eq!(cn.cores(), 24);
        assert_eq!(cn.threads(), 48);
        // 128 GB RAM per Table I.
        assert_eq!(ram_bytes(&cn), 128 * (1 << 30));
        assert!(cn.nvme().is_some(), "each node has a 400 GB NVMe");
    }

    #[test]
    fn table1_booster_node_shape() {
        let bn = deep_er_booster_node();
        assert_eq!(bn.kind, NodeKind::Booster);
        assert_eq!(bn.sockets, 1);
        assert_eq!(bn.cores(), 64);
        assert_eq!(bn.threads(), 256);
        // 16 GB MCDRAM + 96 GB DDR4 per Table I.
        assert_eq!(ram_bytes(&bn), (16 + 96) * (1 << 30));
        assert_eq!(
            bn.fast_memory().kind,
            MemoryKind::Mcdram,
            "KNL kernels bind to MCDRAM"
        );
    }

    #[test]
    fn peak_performance_matches_table1() {
        // Table I: Cluster 16 TFlop/s over 16 nodes, Booster 20 TFlop/s over
        // 8 nodes → 1.0 and 2.5 TFlop/s per node within 10%.
        let cn = deep_er_cluster_node().peak_gflops();
        let bn = deep_er_booster_node().peak_gflops();
        assert!((cn - 1000.0).abs() / 1000.0 < 0.10, "CN peak {cn} GF");
        assert!((bn - 2500.0).abs() / 2500.0 < 0.10, "BN peak {bn} GF");
    }

    #[test]
    fn labels() {
        assert_eq!(NodeKind::Cluster.label(), "CN");
        assert_eq!(NodeKind::Booster.label(), "BN");
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "node3");
    }

    #[test]
    fn memory_level_lookup() {
        let bn = deep_er_booster_node();
        assert!(bn.memory_level(MemoryKind::Mcdram).is_some());
        assert!(bn.memory_level(MemoryKind::Ddr4).is_some());
        assert!(bn.memory_level(MemoryKind::Disk).is_none());
        let cn = deep_er_cluster_node();
        assert!(cn.memory_level(MemoryKind::Mcdram).is_none());
    }
}
