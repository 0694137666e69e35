//! Integration tests for the psmpi runtime: point-to-point semantics,
//! virtual time, collectives, and the spawn/inter-communicator offload path.

use bytes::Bytes;
use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};
use hwmodel::{NodeId, SimTime, WorkSpec};
use lockrank::Mutex;
use psmpi::{MpiDatatype, MpiRequest, ReduceOp, Universe, UniverseBuilder};
use simnet::{Fabric, Topology};
use std::sync::Arc;

fn cluster(n: u32) -> UniverseBuilder {
    UniverseBuilder::new().add_nodes(n, &deep_er_cluster_node())
}

#[test]
fn send_recv_delivers_payload() {
    cluster(2).run(|rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            rank.send_comm(&w, 1, 42, &"hello booster".to_string())
                .unwrap();
        } else {
            let (msg, st) = rank.recv_comm::<String>(&w, Some(0), Some(42)).unwrap();
            assert_eq!(msg, "hello booster");
            assert_eq!(st.source, 0);
            assert_eq!(st.tag, 42);
            assert!(st.bytes > 0);
        }
    });
}

#[test]
fn messages_do_not_overtake_same_pair() {
    cluster(2).run(|rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            for i in 0..50u64 {
                rank.send_comm(&w, 1, 1, &i).unwrap();
            }
        } else {
            for i in 0..50u64 {
                let (v, _) = rank.recv_comm::<u64>(&w, Some(0), Some(1)).unwrap();
                assert_eq!(v, i, "non-overtaking violated");
            }
        }
    });
}

#[test]
fn tag_matching_selects_correct_message() {
    cluster(2).run(|rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            rank.send_comm(&w, 1, 10, &1u32).unwrap();
            rank.send_comm(&w, 1, 20, &2u32).unwrap();
        } else {
            // Receive tag 20 first even though tag 10 arrived earlier.
            let (b, _) = rank.recv_comm::<u32>(&w, Some(0), Some(20)).unwrap();
            let (a, _) = rank.recv_comm::<u32>(&w, Some(0), Some(10)).unwrap();
            assert_eq!((a, b), (1, 2));
        }
    });
}

#[test]
fn wildcard_source_and_tag() {
    cluster(3).run(|rank| {
        let w = rank.world();
        match rank.rank() {
            0 => {
                rank.send_comm(&w, 2, 5, &10u32).unwrap();
            }
            1 => {
                rank.send_comm(&w, 2, 6, &20u32).unwrap();
            }
            2 => {
                let mut sum = 0;
                for _ in 0..2 {
                    // Any source, any tag.
                    let (v, st) = rank.recv_comm::<u32>(&w, None, None).unwrap();
                    assert!(st.source == 0 || st.source == 1);
                    sum += v;
                }
                assert_eq!(sum, 30);
            }
            _ => unreachable!(),
        }
    });
}

#[test]
fn recv_from_invalid_rank_errors() {
    cluster(2).run(|rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            assert!(rank.send_comm(&w, 5, 0, &0u8).is_err());
            assert!(rank.recv_comm::<u8>(&w, Some(9), None).is_err());
        }
    });
}

#[test]
fn virtual_clock_advances_on_communication() {
    let report = cluster(2).run(|rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            rank.send_comm(&w, 1, 0, &vec![0u8; 1024]).unwrap();
        } else {
            let (_, st) = rank.recv_comm::<Vec<u8>>(&w, Some(0), Some(0)).unwrap();
            // Arrival must be at least the 1.0 µs CN-CN latency.
            assert!(st.arrival >= SimTime::from_micros(1.0));
        }
    });
    assert!(report.makespan() >= SimTime::from_micros(1.0));
}

#[test]
fn compute_charges_model_time() {
    // The rank's compute time is recorded as its obs span: one `Compute`
    // span per call, named after the work, from the pre-call clock to the
    // clock the call leaves.
    let mut topo = Topology::new();
    topo.add_nodes(1, &deep_er_cluster_node());
    let u = Universe::new(Fabric::new(topo));
    let rec = obs::Recorder::new();
    u.attach_obs(rec.clone());
    let charged = Arc::new(Mutex::<_, 900>::new(Vec::new()));
    let c2 = charged.clone();
    let report = u.launch(&[NodeId(0)], move |rank| {
        let w = WorkSpec::named("kernel")
            .flops(1e9)
            .vector_fraction(1.0)
            .parallel_fraction(1.0)
            .build();
        rank.advance(SimTime::from_micros(3.0));
        let pre = rank.now();
        let t = rank.compute(&w);
        assert!(t > SimTime::ZERO);
        assert_eq!(rank.now(), pre + t);
        c2.lock().push((pre, t));
    });
    assert!(report.makespan() > SimTime::ZERO);
    let (pre, t) = charged.lock()[0];
    let trace = rec.snapshot();
    assert_eq!(trace.tracks.len(), 1);
    let compute: Vec<_> = trace.tracks[0]
        .spans
        .iter()
        .filter(|s| s.cat == obs::Category::Compute)
        .collect();
    assert_eq!(compute.len(), 1, "one Compute span per compute call");
    assert_eq!(compute[0].name, "kernel");
    let bits = |t: SimTime| t.as_secs().to_bits();
    assert_eq!(bits(compute[0].start), bits(pre));
    assert_eq!(bits(compute[0].end), bits(pre + t));
}

#[test]
fn nonblocking_overlap_hides_transfer() {
    // Rank 0 sends a large message; rank 1 posts irecv, computes, then
    // waits. The compute time overlaps the transfer, so rank 1's final
    // clock is close to max(compute, transfer), not their sum.
    let clocks = Arc::new(Mutex::<_, 900>::new(Vec::new()));
    let c2 = clocks.clone();
    cluster(2).run(move |rank| {
        let w = rank.world();
        let payload = vec![0u8; 8 << 20]; // ~0.86 ms transfer
        if rank.rank() == 0 {
            rank.send_comm(&w, 1, 0, &payload).unwrap();
        } else {
            let req = rank.irecv_bytes_comm(&w, Some(0), Some(0)).unwrap();
            let aux = WorkSpec::named("aux")
                .flops(5e8)
                .vector_fraction(0.5)
                .parallel_fraction(0.9)
                .build();
            rank.compute(&aux);
            let compute_clock = rank.now();
            let (bytes, st) = req.wait(rank).unwrap();
            assert_eq!(Vec::<u8>::from_bytes(bytes).unwrap().len(), 8 << 20);
            c2.lock().push((compute_clock, st.arrival, rank.now()));
        }
    });
    let (compute_clock, arrival, final_clock) = clocks.lock()[0];
    assert_eq!(final_clock, compute_clock.max(arrival), "overlap semantics");
}

#[test]
fn barrier_synchronizes_clocks() {
    let clocks = Arc::new(Mutex::<_, 900>::new(Vec::new()));
    let c2 = clocks.clone();
    cluster(4).run(move |rank| {
        // Rank 2 is slow before the barrier.
        if rank.rank() == 2 {
            rank.advance(SimTime::from_millis(5.0));
        }
        let w = rank.world();
        rank.barrier(&w).unwrap();
        c2.lock().push(rank.now());
    });
    let clocks = clocks.lock();
    let min = clocks
        .iter()
        .cloned()
        .fold(SimTime::from_secs(1e9), SimTime::min);
    // Everyone must leave the barrier no earlier than the slow rank entered.
    assert!(
        min >= SimTime::from_millis(5.0),
        "barrier must wait for the slowest rank"
    );
}

#[test]
fn bcast_delivers_to_all() {
    cluster(5).run(|rank| {
        let w = rank.world();
        let v = if rank.rank() == 2 {
            rank.bcast(&w, 2, Some(vec![1.5f64, 2.5])).unwrap()
        } else {
            rank.bcast::<Vec<f64>>(&w, 2, None).unwrap()
        };
        assert_eq!(v, vec![1.5, 2.5]);
    });
}

#[test]
fn reduce_and_allreduce() {
    cluster(6).run(|rank| {
        let w = rank.world();
        let mine = vec![rank.rank() as f64, 1.0];
        let r = rank.reduce(&w, 0, &mine, ReduceOp::Sum).unwrap();
        if rank.rank() == 0 {
            let r = r.unwrap();
            assert_eq!(r, vec![15.0, 6.0]); // 0+1+..+5, 6×1
        } else {
            assert!(r.is_none());
        }
        let all = rank.allreduce(&w, &mine, ReduceOp::Max).unwrap();
        assert_eq!(all, vec![5.0, 1.0]);
        // The minimum, as the negated maximum of the negated values.
        let s = rank
            .allreduce_scalar(&w, -(rank.rank() as f64), ReduceOp::Max)
            .unwrap();
        assert_eq!(-s, 0.0);
    });
}

#[test]
fn gather_collects_in_rank_order() {
    cluster(4).run(|rank| {
        let w = rank.world();
        let me = rank.rank();
        let g = rank
            .gather_bytes(&w, 1, Bytes::from(vec![me as u8]))
            .unwrap();
        if me == 1 {
            let got: Vec<Vec<u8>> = g.unwrap().iter().map(|b| b.to_vec()).collect();
            assert_eq!(got, [[0], [1], [2], [3]]);
        } else {
            assert!(g.is_none());
        }
    });
}

#[test]
fn spawn_creates_child_world_with_intercomm() {
    // The Fig. 4 scenario: a 2-rank world on the Cluster spawns a 3-rank
    // child world on the Booster; data flows both ways over the
    // inter-communicator.
    let mut t = Topology::new();
    t.add_nodes(2, &deep_er_cluster_node());
    let booster_nodes = t.add_nodes(3, &deep_er_booster_node());
    let u = Universe::new(Fabric::new(t));
    let report = u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        let w = rank.world();
        let ic = rank
            .spawn(
                &w,
                &booster_nodes,
                Arc::new(|child: &mut psmpi::Rank| {
                    let pic = child.parent().expect("child sees parent");
                    assert_eq!(child.size(), 3);
                    assert_eq!(pic.remote_size(), 2);
                    // Child rank 0 sends its world size to parent rank 0.
                    if child.rank() == 0 {
                        child.send_comm(&pic, 0, 9, &(child.size() as u64)).unwrap();
                        let (echo, _) = child.recv_comm::<u64>(&pic, Some(0), Some(10)).unwrap();
                        assert_eq!(echo, 42);
                    }
                }),
            )
            .unwrap();
        assert_eq!(ic.remote_size(), 3);
        assert_eq!(ic.local.len(), 2);
        if rank.rank() == 0 {
            let (n, st) = rank.recv_comm::<u64>(&ic, Some(0), Some(9)).unwrap();
            assert_eq!(n, 3);
            assert_eq!(st.source, 0);
            rank.send_comm(&ic, 0, 10, &42u64).unwrap();
        }
    });
    // Parent world + child world both finished; spawn latency (50 ms)
    // bounds the makespan from below.
    assert!(report.makespan() >= SimTime::from_millis(50.0));
    assert_eq!(report.worlds().len(), 2, "two worlds existed");
}

#[test]
fn request_test_polls_without_blocking() {
    cluster(2).run(|rank| {
        let w = rank.world();
        if rank.rank() == 1 {
            let mut req = rank.irecv_bytes_comm(&w, Some(0), Some(9)).unwrap();
            // The sender is still held at the barrier, so the first poll
            // finds nothing and hands the request back.
            req = match req.test(rank).unwrap() {
                Ok(_) => panic!("sender has not passed the barrier yet"),
                Err(r) => r,
            };
            rank.barrier(&w).unwrap();
            // Poll until the (now unblocked) sender's message lands.
            loop {
                match req.test(rank).unwrap() {
                    Ok((bytes, st)) => {
                        assert_eq!(u64::from_bytes(bytes).unwrap(), 77);
                        assert!(st.bytes > 0);
                        break;
                    }
                    Err(r) => {
                        req = r;
                        std::thread::yield_now();
                    }
                }
            }
        } else {
            rank.barrier(&w).unwrap();
            rank.send_comm(&w, 1, 9, &77u64).unwrap();
        }
    });
}

#[test]
fn report_accounts_traffic() {
    let report = cluster(2).run(|rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            rank.send_comm(&w, 1, 0, &vec![0u8; 100]).unwrap();
        } else {
            let _ = rank.recv_comm::<Vec<u8>>(&w, Some(0), Some(0)).unwrap();
        }
    });
    assert_eq!(report.total_msgs_sent(), 1);
    assert_eq!(report.total_bytes_sent(), 108);
    let receiver = report.outcomes().iter().find(|o| o.rank == 1);
    assert!(receiver.expect("rank 1 reported").clock > SimTime::ZERO);
}

#[test]
fn heterogeneous_latency_visible_in_runtime() {
    // The same ping-pong program on booster nodes takes longer in virtual
    // time than on cluster nodes (Fig. 3 / Table I).
    let run = |booster: bool| {
        let b = if booster {
            UniverseBuilder::new().add_nodes(2, &deep_er_booster_node())
        } else {
            UniverseBuilder::new().add_nodes(2, &deep_er_cluster_node())
        };
        b.run(|rank| {
            let w = rank.world();
            for _ in 0..10 {
                if rank.rank() == 0 {
                    rank.send_comm(&w, 1, 0, &1u8).unwrap();
                    let _ = rank.recv_comm::<u8>(&w, Some(1), Some(0)).unwrap();
                } else {
                    let _ = rank.recv_comm::<u8>(&w, Some(0), Some(0)).unwrap();
                    rank.send_comm(&w, 0, 0, &1u8).unwrap();
                }
            }
        })
        .makespan()
    };
    let t_cluster = run(false);
    let t_booster = run(true);
    assert!(
        t_booster.as_secs() / t_cluster.as_secs() > 1.5,
        "booster ping-pong should be ~1.8× slower: {t_cluster} vs {t_booster}"
    );
}
