//! The Modular Supercomputing architecture (paper §VI): the DEEP-EST
//! generalization "combines any number of compute modules into a unified
//! computing platform". This example builds a three-module system —
//! Cluster + Booster + Data Analytics Module (DAM) — and runs a
//! heterogeneous *workflow* across all three at once: a simulation on the
//! Booster streams results to in-situ analytics on the DAM, under the
//! control of a coordinator on the Cluster.
//!
//! Run with: `cargo run --example modular_supercomputing`

use cluster_booster::{JobSpec, Launcher, ModuleKind, SystemBuilder};
use hwmodel::WorkSpec;
use psmpi::{Rank, ReduceOp};
use std::sync::Arc;

fn main() {
    let system = SystemBuilder::new("DEEP-EST-style")
        .cluster_nodes(2)
        .booster_nodes(4)
        .dam_nodes(2)
        .storage_servers(2)
        .build();
    println!(
        "modular system `{}`: {} CN + {} BN + {} DAM nodes ({} total)",
        system.name(),
        system.cluster_nodes().len(),
        system.booster_nodes().len(),
        system.dam_nodes().len(),
        system.total_nodes()
    );
    let dam_ram = system.module(ModuleKind::Dam).unwrap().spec.ram_bytes() >> 30;
    println!("DAM node memory: {dam_ram} GB (large-memory HPDA nodes)\n");

    let launcher = Launcher::new(system);

    // The workflow boots its coordinator on the Cluster and reserves all
    // three modules in one heterogeneous allocation.
    let spec = JobSpec::cluster_only("workflow", 2).with_dam_nodes(2);
    let spec = JobSpec {
        booster_nodes: 4,
        ..spec
    };

    let report = launcher
        .launch(&spec, |rank, alloc| {
            let world = rank.world();
            let booster = alloc.booster.clone();
            let dam = alloc.dam.clone();

            // Stage 1+2 run concurrently: simulation world on the Booster,
            // analytics world on the DAM; the simulation sends each of 3
            // "snapshots" to its paired analytics rank.
            let dam_for_sim = dam.clone();
            let sim = rank
                .spawn(&world, &booster, Arc::new(move |sim_rank: &mut Rank| {
                    let _ = &dam_for_sim;
                    let parent = sim_rank.parent().unwrap();
                    let w = sim_rank.world();
                    for step in 0..3u64 {
                        // A highly parallel, vectorized kernel — Booster HW.
                        sim_rank.compute(
                            &WorkSpec::named("sim-step")
                                .flops(5e9)
                                .vector_fraction(0.95)
                                .parallel_fraction(0.995)
                                .build(),
                        );
                        let local = (sim_rank.rank() as u64 + 1) * (step + 1);
                        let total =
                            sim_rank.allreduce_scalar(&w, local as f64, ReduceOp::Sum).unwrap();
                        if sim_rank.rank() == 0 {
                            // Snapshot to the coordinator, which relays to
                            // the analytics world.
                            sim_rank.send_comm(&parent, 0, 10, &total).unwrap();
                        }
                    }
                }))
                .unwrap();

            let analytics = rank
                .spawn(&world, &dam, Arc::new(|an_rank: &mut Rank| {
                    let parent = an_rank.parent().unwrap();
                    for _ in 0..3 {
                        if an_rank.rank() == 0 {
                            let (snapshot, _) =
                                an_rank.recv_comm::<f64>(&parent, Some(0), Some(11)).unwrap();
                            // Memory-heavy analytics — DAM hardware.
                            an_rank.compute(
                                &WorkSpec::named("analytics")
                                    .bytes(2e9)
                                    .parallel_fraction(0.9)
                                    .build(),
                            );
                            an_rank.send_comm(&parent, 0, 12, &(snapshot * 2.0)).unwrap();
                        }
                    }
                }))
                .unwrap();

            // Coordinator (Cluster): relay snapshots sim → analytics and
            // collect derived results.
            if rank.rank() == 0 {
                for step in 0..3u64 {
                    let (snap, _) = rank.recv_comm::<f64>(&sim, Some(0), Some(10)).unwrap();
                    rank.send_comm(&analytics, 0, 11, &snap).unwrap();
                    let (derived, _) = rank.recv_comm::<f64>(&analytics, Some(0), Some(12)).unwrap();
                    println!(
                        "step {step}: simulation total {snap:>6.1} → analytics derived {derived:>6.1}"
                    );
                    assert_eq!(derived, snap * 2.0);
                }
            }
        })
        .expect("workflow runs");

    println!(
        "\nworkflow finished: {} worlds over 3 modules, virtual makespan {}",
        report.worlds().len(),
        report.makespan()
    );
    assert_eq!(report.worlds().len(), 3, "three module-worlds cooperated");
}
