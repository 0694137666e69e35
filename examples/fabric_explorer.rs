//! Explore the modelled EXTOLL fabric: latency/bandwidth between node
//! classes (the Fig. 3 measurement) and one-sided RDMA into the
//! network-attached memory.
//!
//! Run with: `cargo run --example fabric_explorer`

use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::NodeId;
use psmpi::pingpong;
use simnet::{Fabric, LogGpModel, NamDevice, Topology};

fn main() {
    let cn = deep_er_cluster_node();
    let bn = deep_er_booster_node();

    println!("ping-pong on the psmpi runtime (one-way, Fig. 3 style):");
    println!(
        "{:>10} | {:>9} {:>9} {:>9} | {:>10} {:>10} {:>10}",
        "size", "CN-CN µs", "BN-BN µs", "CN-BN µs", "CC MB/s", "BB MB/s", "CB MB/s"
    );
    for p in [0usize, 6, 10, 14, 20, 24] {
        let size = 1usize << p;
        let cc = &pingpong::measure(&cn, &cn, &[size], 1)[0];
        let bb = &pingpong::measure(&bn, &bn, &[size], 1)[0];
        let cb = &pingpong::measure(&cn, &bn, &[size], 1)[0];
        println!(
            "{:>10} | {:>9.2} {:>9.2} {:>9.2} | {:>10.1} {:>10.1} {:>10.1}",
            size,
            cc.latency.as_micros(),
            bb.latency.as_micros(),
            cb.latency.as_micros(),
            cc.bandwidth_mbs,
            bb.bandwidth_mbs,
            cb.bandwidth_mbs
        );
    }

    // The NAM: fabric-attached memory every node reaches by one-sided RDMA,
    // without involving a remote CPU (psmpi's `Rank::inam_put` prices its
    // puts the same way).
    let mut topo = Topology::new();
    topo.add_nodes(2, &cn);
    topo.add_nodes(2, &bn);
    let nam = NamDevice::deep_er();
    let fabric = Fabric::with_nams(topo, LogGpModel::default(), vec![nam.clone()]);
    let region = nam.alloc(8 << 20).unwrap();
    nam.put(region, 0, b"globally visible checkpoint fragment")
        .unwrap();
    let t_nam = fabric.nam_rdma_time(NodeId(0), 0, 8 << 20).unwrap();
    println!(
        "NAM: 8 MiB staged in {t_nam}; device holds {}/{} bytes used",
        nam.used(),
        nam.capacity()
    );
}
