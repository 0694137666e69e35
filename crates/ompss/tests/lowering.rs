//! The lowering's two contracts: an offloaded run ends on the data a
//! sequential run leaves, and a cross-module dependency costs what psmpi
//! charges any program for the same bytes.

use cluster_booster::presets::deep_er_prototype;
use cluster_booster::Launcher;
use hwmodel::calib::EXTOLL_EAGER_THRESHOLD;
use hwmodel::WorkSpec;
use ompss::{DataStore, Device, TaskGraph};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn work() -> WorkSpec {
    WorkSpec::named("k").flops(1e6).build()
}

/// Task `k`'s action: every output becomes `k` plus the sum of every input,
/// at a length that varies with `k`, so a lost, stale or unrestored block
/// changes the result.
fn action(k: usize, ins: Vec<String>, outs: Vec<String>) -> impl FnMut(&mut DataStore) + Send {
    move |s| {
        let acc = k as f64 + ins.iter().flat_map(|b| s.get(b)).sum::<f64>();
        for (j, o) in outs.iter().enumerate() {
            s.put(o.clone(), vec![acc + j as f64; 1 + (k + j) % 5]);
        }
    }
}

fn blocks(mask: u8, n: usize) -> Vec<String> {
    (0..n)
        .filter(|b| mask >> b & 1 == 1)
        .map(|b| format!("b{b}"))
        .collect()
}

fn names(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

proptest! {
    // Each case launches a Cluster rank and spawns a Booster rank.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn offloaded_run_equals_sequential_run(
        n in 1usize..5,
        specs in prop::collection::vec((any::<bool>(), 0u8..16, 0u8..16, 0u32..3), 1..8),
    ) {
        let mut initial = DataStore::new();
        for b in blocks(0xf, n) {
            initial.put(b, vec![1.0; 3]);
        }
        let mut graph = TaskGraph::new();
        let mut sequential = initial.clone();
        // Cross-module bytes by hand: one message per (producer, block)
        // pair that a task on the other device reads.
        let mut writer: BTreeMap<String, (Option<usize>, Device)> = BTreeMap::new();
        let mut moved = BTreeSet::new();
        let mut edge_bytes = 0u64;
        for (k, &(booster, ins, outs, failures)) in specs.iter().enumerate() {
            let device = if booster { Device::Booster } else { Device::Cluster };
            let (ins, outs) = (blocks(ins, n), blocks(outs, n));
            for b in &ins {
                let (p, from) = writer.get(b).copied().unwrap_or((None, Device::Cluster));
                if from != device && moved.insert((p, b.clone())) {
                    edge_bytes += 8 * sequential.get(b).len() as u64;
                }
            }
            action(k, ins.clone(), outs.clone())(&mut sequential);
            for b in &outs {
                writer.insert(b.clone(), (Some(k), device));
            }
            let act = action(k, ins.clone(), outs.clone());
            let id = graph.add_task(format!("t{k}"), &names(&ins), &names(&outs), device, work(), act);
            graph.inject_failures(id, failures);
        }
        let mut store = initial;
        let report = ompss::run(&Launcher::new(deep_er_prototype()), &mut graph, &mut store)
            .expect("launch");
        prop_assert_eq!(&store, &sequential);
        prop_assert_eq!(report.total_transfer_bytes, edge_bytes);
    }
}

#[test]
fn the_same_bytes_cost_the_same() {
    let launcher = Launcher::new(deep_er_prototype());
    let sys = launcher.system();
    let (cn, bn) = (sys.cluster_nodes()[0], sys.booster_nodes()[0]);
    // A block of f64 cannot be 32 KiB + 1 B long: 32 KiB + 8 B is the
    // first block past the eager threshold, on the rendezvous side.
    for bytes in [8, EXTOLL_EAGER_THRESHOLD + 8, 1 << 20] {
        let mut g = TaskGraph::new();
        g.add_task("produce", &[], &["x"], Device::Cluster, work(), move |s| {
            s.put("x", vec![1.0; bytes / 8])
        });
        g.add_task("consume", &["x"], &[], Device::Booster, work(), |_| {});
        let rep = ompss::run(&launcher, &mut g, &mut DataStore::new()).expect("launch");
        let wire = sys.fabric().p2p_time(cn, bn, bytes).expect("CN-BN path");
        assert_eq!(
            rep.tasks[1].start,
            rep.tasks[0].end + wire,
            "{bytes} B: the idle consumer starts when psmpi delivers"
        );
    }
}
