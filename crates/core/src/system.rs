//! System assembly: modules of nodes behind one fabric.
//!
//! The Cluster-Booster architecture "integrates heterogeneous computing
//! resources at the system level" (§II-A): instead of plugging accelerators
//! into nodes, the accelerators form a stand-alone module whose members
//! "act autonomously and communicate directly with each other through a
//! high-speed network, not needing any host node". A [`System`] is a set of
//! [`Module`]s plus the shared [`simnet::Fabric`].

use hwmodel::presets::{
    deep_er_booster_node, deep_er_cluster_node, deep_er_metadata_server, deep_er_storage_server,
};
use hwmodel::{NodeId, NodeSpec};
use simnet::{Fabric, LogGpModel, NamDevice, Topology};

/// The role of a module within the modular system.
///
/// The DEEP-EST generalization (paper §VI) "combines any number of compute
/// modules ... each tailored to the specific needs of a class of
/// applications"; besides Cluster and Booster the DEEP-EST prototype adds
/// a Data Analytics Module ([`ModuleKind::Dam`]) with large-memory nodes
/// for HPDA workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// General-purpose cluster (high single-thread performance, large RAM).
    Cluster,
    /// Many-core Booster (high aggregate Flop/s, energy efficient).
    Booster,
    /// Data Analytics Module: very large memory per node (DEEP-EST, §VI).
    Dam,
    /// Storage module (parallel file system servers).
    Storage,
}

/// The default DAM node: a Haswell-class node with 512 GB of memory (the
/// DEEP-EST DAM's defining feature is capacity, not compute).
pub fn dam_node() -> NodeSpec {
    let mut spec = hwmodel::presets::deep_er_cluster_node();
    for level in spec.memory.iter_mut() {
        if level.kind == hwmodel::MemoryKind::Ddr4 {
            level.capacity_bytes = 512 * (1 << 30);
        }
    }
    spec
}

/// One module: a named set of identical nodes.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module role.
    pub kind: ModuleKind,
    /// Node ids belonging to the module, ascending.
    pub nodes: Vec<NodeId>,
    /// Hardware spec shared by the module's nodes.
    pub spec: NodeSpec,
}

impl Module {
    /// Number of nodes in the module.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the module has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Aggregate peak GFlop/s of the module.
    pub fn peak_gflops(&self) -> f64 {
        self.spec.peak_gflops() * self.nodes.len() as f64
    }
}

/// A complete modular system.
#[derive(Debug, Clone)]
pub struct System {
    name: String,
    modules: Vec<Module>,
    fabric: Fabric,
}

impl System {
    /// Human-readable system name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The module of a given kind, if present.
    pub fn module(&self, kind: ModuleKind) -> Option<&Module> {
        self.modules.iter().find(|m| m.kind == kind)
    }

    /// Node ids of the Cluster module (empty if absent).
    pub fn cluster_nodes(&self) -> Vec<NodeId> {
        self.module(ModuleKind::Cluster)
            .map(|m| m.nodes.clone())
            .unwrap_or_default()
    }

    /// Node ids of the Booster module (empty if absent).
    pub fn booster_nodes(&self) -> Vec<NodeId> {
        self.module(ModuleKind::Booster)
            .map(|m| m.nodes.clone())
            .unwrap_or_default()
    }

    /// Node ids of the Data Analytics Module (empty if absent).
    pub fn dam_nodes(&self) -> Vec<NodeId> {
        self.module(ModuleKind::Dam)
            .map(|m| m.nodes.clone())
            .unwrap_or_default()
    }

    /// The shared fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Total node count across modules.
    pub fn total_nodes(&self) -> usize {
        self.modules.iter().map(Module::len).sum()
    }
}

/// Builder for [`System`]s. Node ids are allocated contiguously in the
/// order: cluster, booster, DAM, storage, metadata. Every node is its
/// module's DEEP preset ([`deep_er_cluster_node`], [`deep_er_booster_node`],
/// [`dam_node`], the DEEP-ER storage and metadata servers) and the fabric
/// runs the default [`LogGpModel`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    name: String,
    cluster: u32,
    booster: u32,
    dam: u32,
    storage: u32,
    metadata: u32,
    nams: u32,
}

impl SystemBuilder {
    /// Start a system description.
    pub fn new(name: impl Into<String>) -> Self {
        SystemBuilder {
            name: name.into(),
            cluster: 0,
            booster: 0,
            dam: 0,
            storage: 0,
            metadata: 0,
            nams: 0,
        }
    }

    /// Number of Cluster nodes.
    pub fn cluster_nodes(mut self, n: u32) -> Self {
        self.cluster = n;
        self
    }

    /// Number of Booster nodes.
    pub fn booster_nodes(mut self, n: u32) -> Self {
        self.booster = n;
        self
    }

    /// Number of Data Analytics Module nodes (DEEP-EST generalization).
    pub fn dam_nodes(mut self, n: u32) -> Self {
        self.dam = n;
        self
    }

    /// Number of storage servers.
    pub fn storage_servers(mut self, n: u32) -> Self {
        self.storage = n;
        self
    }

    /// Number of metadata servers.
    pub fn metadata_servers(mut self, n: u32) -> Self {
        self.metadata = n;
        self
    }

    /// Number of NAM devices on the fabric.
    pub fn nam_devices(mut self, n: u32) -> Self {
        self.nams = n;
        self
    }

    /// Assemble the system.
    pub fn build(self) -> System {
        let mut topology = Topology::new();
        let mut modules = Vec::new();
        // A preset is built only for a module that has nodes.
        let compute: [(_, _, fn() -> NodeSpec); 3] = [
            (ModuleKind::Cluster, self.cluster, deep_er_cluster_node),
            (ModuleKind::Booster, self.booster, deep_er_booster_node),
            (ModuleKind::Dam, self.dam, dam_node),
        ];
        for (kind, count, preset) in compute {
            if count > 0 {
                let spec = preset();
                let nodes = topology.add_nodes(count, &spec);
                modules.push(Module { kind, nodes, spec });
            }
        }
        if self.storage > 0 || self.metadata > 0 {
            let spec = deep_er_storage_server();
            let mut nodes = topology.add_nodes(self.storage, &spec);
            if self.metadata > 0 {
                nodes.extend(topology.add_nodes(self.metadata, &deep_er_metadata_server()));
            }
            modules.push(Module {
                kind: ModuleKind::Storage,
                nodes,
                spec,
            });
        }
        let nams = (0..self.nams).map(|_| NamDevice::deep_er()).collect();
        let fabric = Fabric::with_nams(topology, LogGpModel::default(), nams);
        System {
            name: self.name,
            modules,
            fabric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::deep_er_prototype;

    #[test]
    fn prototype_matches_table1() {
        let sys = deep_er_prototype();
        assert_eq!(sys.name(), "DEEP-ER prototype");
        assert_eq!(sys.cluster_nodes().len(), 16);
        assert_eq!(sys.booster_nodes().len(), 8);
        assert_eq!(sys.module(ModuleKind::Storage).unwrap().len(), 3);
        assert_eq!(sys.total_nodes(), 27);
        assert_eq!(sys.fabric().nams().len(), 2);
    }

    #[test]
    fn prototype_peaks_match_table1() {
        let sys = deep_er_prototype();
        let cl = sys.module(ModuleKind::Cluster).unwrap().peak_gflops();
        let bo = sys.module(ModuleKind::Booster).unwrap().peak_gflops();
        // Table I: 16 TFlop/s Cluster, 20 TFlop/s Booster (±10%).
        assert!((cl - 16_000.0).abs() / 16_000.0 < 0.10, "{cl}");
        assert!((bo - 20_000.0).abs() / 20_000.0 < 0.10, "{bo}");
    }

    #[test]
    fn builder_partial_systems() {
        let sys = SystemBuilder::new("booster-only").booster_nodes(4).build();
        assert!(sys.cluster_nodes().is_empty());
        assert_eq!(sys.booster_nodes().len(), 4);
        assert!(sys.module(ModuleKind::Storage).is_none());
        assert!(!sys.module(ModuleKind::Booster).unwrap().is_empty());
    }

    #[test]
    fn deep_est_style_three_module_system() {
        // §VI: the Modular Supercomputing generalization — any number of
        // compute modules behind one fabric.
        let sys = SystemBuilder::new("deep-est")
            .cluster_nodes(2)
            .booster_nodes(4)
            .dam_nodes(2)
            .build();
        assert_eq!(sys.dam_nodes().len(), 2);
        assert_eq!(sys.total_nodes(), 8);
        let dam = sys.module(ModuleKind::Dam).unwrap();
        assert_eq!(dam.spec.ram_bytes(), 512 * (1 << 30), "large-memory nodes");
        // DAM nodes are allocatable independently like any module.
        let rm = crate::resources::ResourceManager::new(&sys);
        let a = rm.allocate_modular(1, 2, 2).unwrap();
        assert_eq!(a.dam.len(), 2);
        assert_eq!(rm.free_dam(), 0);
        rm.release(&a).unwrap();
        assert_eq!(rm.free_dam(), 2);
    }
}
