//! Quickstart: assemble a Cluster-Booster system, run an MPI-style job on
//! the Cluster, and offload a worker world onto the Booster with
//! `spawn` — the paper's Fig. 4 in ~60 lines.
//!
//! Run with: `cargo run --example quickstart`

use cluster_booster::{JobSpec, Launcher, SystemBuilder};
use psmpi::ReduceOp;
use std::sync::Arc;

fn main() {
    // A small modular system: 4 Cluster nodes + 4 Booster nodes behind one
    // EXTOLL-like fabric (the DEEP-ER prototype preset would be
    // `cluster_booster::presets::deep_er_prototype()`).
    let system = SystemBuilder::new("quickstart")
        .cluster_nodes(4)
        .booster_nodes(4)
        .build();
    println!(
        "system `{}`: {} CN + {} BN",
        system.name(),
        system.cluster_nodes().len(),
        system.booster_nodes().len()
    );

    let launcher = Launcher::new(system);

    // A partitioned job: boot 2 ranks on the Cluster, offload 4 workers to
    // the Booster, exchange data over the inter-communicator.
    let spec =
        JobSpec::partitioned("quickstart", 2, 4).boot_on(cluster_booster::ModuleKind::Cluster);
    let report = launcher
        .launch(&spec, |rank, alloc| {
            let world = rank.world();

            // Parent side (Cluster): compute a sum, then spawn the Booster
            // world and send it the result.
            let sum = rank
                .allreduce_scalar(&world, (rank.rank() + 1) as f64, ReduceOp::Sum)
                .unwrap();

            let booster_nodes = alloc.booster.clone();
            let ic = rank
                .spawn(
                    &world,
                    &booster_nodes,
                    Arc::new(|child: &mut psmpi::Rank| {
                        let parent = child.parent().expect("spawned world has a parent");
                        if child.rank() == 0 {
                            let (value, _) =
                                child.recv_comm::<f64>(&parent, Some(0), Some(0)).unwrap();
                            println!(
                                "[booster rank {}/{}] received {} from the cluster side",
                                child.rank(),
                                child.size(),
                                value
                            );
                        }
                    }),
                )
                .unwrap();

            if rank.rank() == 0 {
                println!(
                    "[cluster rank 0] allreduce sum = {sum}, offloading to {} booster ranks",
                    ic.remote_size()
                );
                rank.send_comm(&ic, 0, 0, &sum).unwrap();
            }
        })
        .expect("launch quickstart job");

    println!(
        "job finished: virtual makespan {}, {} messages, {} worlds",
        report.makespan(),
        report.total_msgs_sent(),
        report.worlds().len()
    );
}
