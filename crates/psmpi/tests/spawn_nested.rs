//! Nested and repeated spawning: grandchild worlds, universe reuse across
//! jobs, and a child addressing a non-root parent.

use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::{NodeId, SimTime};
use lockrank::Mutex;
use psmpi::{Rank, Universe};
use simnet::{Fabric, Topology};
use std::sync::Arc;

fn universe(cn: u32, bn: u32) -> Universe {
    let mut t = Topology::new();
    t.add_nodes(cn, &deep_er_cluster_node());
    t.add_nodes(bn, &deep_er_booster_node());
    Universe::new(Fabric::new(t))
}

#[test]
fn grandchild_worlds_all_join() {
    // World A (1 rank) spawns world B (1 rank), which spawns world C
    // (2 ranks); messages relay C → B → A.
    let u = universe(2, 2);
    let result = Arc::new(Mutex::<_, 900>::new(0u64));
    let r2 = result.clone();
    let report = u.launch(&[NodeId(0)], move |rank| {
        let ic_b = rank
            .spawn_world(&[NodeId(2)], |b: &mut Rank| {
                let parent = b.parent().unwrap();
                let ic_c = b
                    .spawn_world(&[NodeId(1), NodeId(3)], |c: &mut Rank| {
                        let p = c.parent().unwrap();
                        if c.rank() == 0 {
                            c.send_comm(&p, 0, 1, &111u64).unwrap();
                        }
                    })
                    .unwrap();
                let (v, _) = b.recv_comm::<u64>(&ic_c, Some(0), Some(1)).unwrap();
                b.send_comm(&parent, 0, 2, &(v + 1)).unwrap();
            })
            .unwrap();
        let (v, _) = rank.recv_comm::<u64>(&ic_b, Some(0), Some(2)).unwrap();
        *r2.lock() = v;
    });
    assert_eq!(*result.lock(), 112);
    assert_eq!(report.worlds().len(), 3, "A, B and C all completed");
    // Two spawn latencies stack on the critical path.
    assert!(report.makespan() >= SimTime::from_millis(100.0));
}

#[test]
fn universe_reusable_across_jobs() {
    // The same universe runs several jobs in sequence; reports don't leak
    // between them.
    let u = universe(2, 0);
    for i in 0..3u64 {
        let seen = Arc::new(Mutex::<_, 900>::new(0u64));
        let s2 = seen.clone();
        let report = u.launch(&[NodeId(0), NodeId(1)], move |rank| {
            let w = rank.world();
            if rank.rank() == 0 {
                rank.send_comm(&w, 1, 0, &i).unwrap();
            } else {
                let (v, _) = rank.recv_comm::<u64>(&w, Some(0), Some(0)).unwrap();
                *s2.lock() = v;
            }
        });
        assert_eq!(*seen.lock(), i);
        assert_eq!(report.outcomes().len(), 2, "only this job's outcomes");
        assert_eq!(report.total_msgs_sent(), 1);
    }
}

#[test]
fn spawned_child_reaches_a_non_root_parent() {
    // A 2-rank world spawns one child; the child addresses parent rank 1,
    // not the spawn root, over the inter-communicator.
    let u = universe(2, 1);
    let report = u.launch(&[NodeId(0), NodeId(1)], |rank| {
        let ic = rank
            .spawn_world(&[NodeId(2)], |child: &mut Rank| {
                let p = child.parent().unwrap();
                assert_eq!(p.remote_size(), 2, "parent group is the 2-rank world");
                child.send_comm(&p, 1, 3, &5u8).unwrap();
            })
            .unwrap();
        assert_eq!(ic.local.len(), 2);
        if rank.rank() == 1 {
            let (v, _) = rank.recv_comm::<u8>(&ic, Some(0), Some(3)).unwrap();
            assert_eq!(v, 5);
        }
    });
    assert_eq!(report.worlds().len(), 2);
}
