//! The fabric façade: topology + cost model + attached NAM devices.

use crate::faults::FaultPlan;
use crate::loggp::LogGpModel;
use crate::nam::NamDevice;
use crate::topology::{Topology, TopologyError};
use hwmodel::{NodeId, NodeSpec, SimTime};
use lockrank::RwLock;
use std::sync::Arc;

/// A complete simulated interconnect. Cheap to clone (`Arc` inside) so every
/// rank thread in `psmpi` can hold one.
#[derive(Debug, Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

#[derive(Debug)]
struct FabricInner {
    topology: Topology,
    model: LogGpModel,
    nams: Vec<NamDevice>,
    /// Optional fault schedule, shared by every clone. Installed once at
    /// launch (before rank threads start) and then only read, so the lock
    /// is uncontended on the message path.
    faults: RwLock<Option<Arc<FaultPlan>>, 550>,
}

impl Fabric {
    /// Build a fabric over a topology with the default EXTOLL parameters.
    pub fn new(topology: Topology) -> Self {
        Self::with_model(topology, LogGpModel::default())
    }

    /// Build a fabric with explicit link parameters (used by the protocol
    /// ablation benches).
    pub fn with_model(topology: Topology, model: LogGpModel) -> Self {
        Fabric {
            inner: Arc::new(FabricInner {
                topology,
                model,
                nams: Vec::new(),
                faults: RwLock::new(None),
            }),
        }
    }

    /// Build a fabric with NAM devices attached (DEEP-ER has two, 2 GB each).
    pub fn with_nams(topology: Topology, model: LogGpModel, nams: Vec<NamDevice>) -> Self {
        Fabric {
            inner: Arc::new(FabricInner {
                topology,
                model,
                nams,
                faults: RwLock::new(None),
            }),
        }
    }

    /// Install the fault schedule for this run. Shared by every clone of
    /// the fabric; call before launching rank threads so all of them see
    /// the same plan from their first query.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.inner.faults.write() = Some(Arc::new(plan));
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.inner.faults.read().clone()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// The link cost model.
    pub fn model(&self) -> &LogGpModel {
        &self.inner.model
    }

    /// Attached NAM devices.
    pub fn nams(&self) -> &[NamDevice] {
        &self.inner.nams
    }

    /// Spec of a node.
    pub fn node(&self, id: NodeId) -> Result<&Arc<NodeSpec>, TopologyError> {
        self.inner.topology.node(id)
    }

    /// Time for one two-sided message of `size` bytes from `src` to `dst`.
    pub fn p2p_time(
        &self,
        src: NodeId,
        dst: NodeId,
        size: usize,
    ) -> Result<SimTime, TopologyError> {
        let s = self.inner.topology.node(src)?;
        let d = self.inner.topology.node(dst)?;
        Ok(self.p2p_time_between(src, s, dst, d, size))
    }

    /// [`Fabric::p2p_time`] for two nodes whose specs the caller already
    /// holds (the ones the topology registered under `src` and `dst`): the
    /// same arithmetic on the same operands, with no table lookup. psmpi
    /// prices every received message this way.
    pub fn p2p_time_between(
        &self,
        src: NodeId,
        s: &NodeSpec,
        dst: NodeId,
        d: &NodeSpec,
        size: usize,
    ) -> SimTime {
        let hops = self.inner.topology.hops_between(src, s, dst, d);
        self.inner.model.transfer_time(s, d, size, hops)
    }

    /// Zero-byte message latency between two nodes (the Fig. 3 latency plot
    /// at its left edge).
    pub fn latency(&self, src: NodeId, dst: NodeId) -> Result<SimTime, TopologyError> {
        self.p2p_time(src, dst, 1)
    }

    /// Effective point-to-point bandwidth at a message size, bytes/s.
    pub fn bandwidth_at(
        &self,
        src: NodeId,
        dst: NodeId,
        size: usize,
    ) -> Result<f64, TopologyError> {
        let t = self.p2p_time(src, dst, size)?;
        Ok(size as f64 / t.as_secs())
    }

    /// Time for a one-sided RDMA operation of `size` bytes issued by
    /// `initiator` against `target` (node or NAM — the target CPU is not
    /// involved either way).
    pub fn rdma_time(
        &self,
        initiator: NodeId,
        target: NodeId,
        size: usize,
    ) -> Result<SimTime, TopologyError> {
        let i = self.inner.topology.node(initiator)?;
        let hops = self.inner.topology.hops(initiator, target)?;
        Ok(self.inner.model.rdma_time(i, size, hops))
    }

    /// Time for an RDMA operation against an attached NAM device (always
    /// one switch hop in the prototype rack). The FPGA streams into the HMC
    /// while the payload is still arriving, so the device bandwidth
    /// *overlaps* the wire serialization — the slower of the two pipes
    /// bounds the transfer, plus the FPGA pipeline latency.
    pub fn nam_rdma_time(
        &self,
        initiator: NodeId,
        nam_index: usize,
        size: usize,
    ) -> Result<SimTime, TopologyError> {
        let i = self.inner.topology.node(initiator)?;
        let Some(nam) = self.inner.nams.get(nam_index) else {
            return Ok(self.inner.model.rdma_time(i, size, 1));
        };
        let wire_stream = SimTime::from_secs(size as f64 / self.inner.model.payload_bw);
        let device_stream = SimTime::from_secs(size as f64 / nam.bandwidth());
        Ok(i.nic_send_overhead
            + self.inner.model.wire_latency
            + wire_stream.max(device_stream)
            + nam.access_latency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nam::NamDevice;
    use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
    use hwmodel::NodeKind;

    fn fabric() -> Fabric {
        let mut t = Topology::new();
        t.add_nodes(16, &deep_er_cluster_node());
        t.add_nodes(8, &deep_er_booster_node());
        Fabric::with_nams(
            t,
            LogGpModel::default(),
            vec![NamDevice::deep_er(), NamDevice::deep_er()],
        )
    }

    #[test]
    fn p2p_time_matches_model() {
        let f = fabric();
        let t = f.p2p_time(NodeId(0), NodeId(16), 1024).unwrap();
        assert!(t > SimTime::ZERO);
        assert!(f.p2p_time(NodeId(0), NodeId(99), 1).is_err());
    }

    #[test]
    fn pricing_from_held_specs_is_p2p_time_to_the_bit() {
        let mut t = Topology::new().with_inter_module_hops(2);
        t.add_nodes(2, &deep_er_cluster_node());
        t.add_nodes(2, &deep_er_booster_node());
        let f = Fabric::new(t);
        for (a, b) in (0..4).flat_map(|a| (0..4).map(move |b| (NodeId(a), NodeId(b)))) {
            for size in [1, 8192, 1 << 20] {
                let (s, d) = (f.node(a).unwrap(), f.node(b).unwrap());
                let held = f.p2p_time_between(a, s, b, d, size);
                let looked_up = f.p2p_time(a, b, size).unwrap();
                assert_eq!(held.as_secs().to_bits(), looked_up.as_secs().to_bits());
            }
        }
    }

    #[test]
    fn latency_ordering() {
        let f = fabric();
        let cc = f.latency(NodeId(0), NodeId(1)).unwrap();
        let cb = f.latency(NodeId(0), NodeId(16)).unwrap();
        let bb = f.latency(NodeId(16), NodeId(17)).unwrap();
        assert!(cc < cb && cb < bb);
    }

    #[test]
    fn bandwidth_grows_with_size() {
        let f = fabric();
        let small = f.bandwidth_at(NodeId(0), NodeId(1), 64).unwrap();
        let large = f.bandwidth_at(NodeId(0), NodeId(1), 16 << 20).unwrap();
        assert!(large > 50.0 * small);
    }

    #[test]
    fn nam_access_includes_service_time() {
        let f = fabric();
        let with_nam = f.nam_rdma_time(NodeId(0), 0, 4096).unwrap();
        let wire_only = f.rdma_time(NodeId(0), NodeId(1), 4096).unwrap();
        assert!(with_nam > wire_only);
        // Unknown NAM index: wire time only (graceful).
        let no_nam = f.nam_rdma_time(NodeId(0), 7, 4096).unwrap();
        assert_eq!(no_nam, wire_only);
    }

    #[test]
    fn fault_plan_is_shared_across_clones() {
        let f = fabric();
        let g = f.clone();
        assert!(f.fault_plan().is_none());
        f.set_fault_plan(FaultPlan::from_node_faults([(
            SimTime::from_secs(2.0),
            NodeId(3),
        )]));
        let plan = g.fault_plan().expect("clone sees the installed plan");
        assert_eq!(
            plan.node_fault_at(NodeId(3), SimTime::from_secs(5.0)),
            Some(SimTime::from_secs(2.0))
        );
    }

    #[test]
    fn clone_shares_topology() {
        let f = fabric();
        let g = f.clone();
        assert_eq!(g.topology().len(), 24);
        assert_eq!(g.topology().nodes_of_kind(NodeKind::Booster).len(), 8);
        assert_eq!(f.nams().len(), 2);
    }
}
