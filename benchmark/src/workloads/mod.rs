//! The five workloads. Each stresses different layers of the simulator;
//! `sched_trace` stresses none of the messaging layers and is the control.

use crate::harness::Workload;
use crate::metrics::{BULK, CKPT, FIG7, RING, SCHED};
use crate::trace;
use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::NodeId;
use simnet::{Fabric, Topology};

mod bulk_collectives;
mod ring_latency;
mod sched_trace;
mod xpic_ckpt;
mod xpic_fig7;

/// Every workload, in run order (the order of `metrics::ALL`).
pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: RING,
        why: "1000 rank threads pass 8 KiB messages round a ring: router, NIC lock, mailbox and wake-up do the work, copying almost none",
        rep: ring_latency::rep,
        layers: ring_latency::layers,
    },
    Workload {
        name: BULK,
        why: "4 ranks move 1 MiB payloads by typed, nonblocking and raw p2p, bcast and allreduce: codec, pool and copies do the work, the mailbox none",
        rep: bulk_collectives::rep,
        layers: bulk_collectives::layers,
    },
    Workload {
        name: FIG7,
        why: "xPic at the Fig. 7 shape in its three modes on an enlarged grid: mover, deposit and CG do the work, psmpi only the interface exchange",
        rep: xpic_fig7::rep,
        layers: xpic_fig7::layers,
    },
    Workload {
        name: CKPT,
        why: "the same xPic loop checkpointing every step and losing a node: state packing, scr drain and delta, respawn and restore do the work",
        rep: xpic_ckpt::rep,
        layers: xpic_ckpt::layers,
    },
    Workload {
        name: SCHED,
        why: "four 3000-job traces through the scheduler engine on one thread, with no messaging: the control that messaging and kernel changes must not move",
        rep: sched_trace::rep,
        layers: sched_trace::layers,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A fabric of `cluster` Cluster and `booster` Booster nodes under the
/// default link model, and its node ids in that order.
fn build_fabric(cluster: u32, booster: u32) -> (Fabric, Vec<NodeId>) {
    let _span = trace::span("simnet.build");
    let mut topo = Topology::new();
    let mut nodes = topo.add_nodes(cluster, &deep_er_cluster_node());
    nodes.extend(topo.add_nodes(booster, &deep_er_booster_node()));
    (Fabric::with_model(topo, Default::default()), nodes)
}

/// A counter of an `obs` recording, summed over its tracks: how the xPic
/// workloads, whose drivers return no `JobReport`, count their messages.
fn obs_counter(recording: &obs::Trace, name: &str) -> f64 {
    recording
        .tracks
        .iter()
        .map(|t| t.counters.get(name).copied().unwrap_or(0))
        .sum::<u64>() as f64
}
