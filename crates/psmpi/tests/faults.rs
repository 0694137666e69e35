//! Fault-injection tests: planned node deaths and link outages surface as
//! typed `MpiError`s, buffers are neither leaked nor recycled-while-aliased
//! on the error path, and the mailbox stays exact (non-overtaking included)
//! across an aborted receive.

use bytes::Bytes;
use hwmodel::presets::deep_er_cluster_node;
use hwmodel::{NodeId, SimTime};
use psmpi::{MpiError, RetryPolicy, Universe};
use simnet::{Fabric, FaultPlan, Topology};

/// Universe over `n` cluster nodes with the given fault plan installed.
fn faulted_universe(n: u32, plan: FaultPlan) -> Universe {
    let mut t = Topology::new();
    t.add_nodes(n, &deep_er_cluster_node());
    let fabric = Fabric::new(t);
    fabric.set_fault_plan(plan);
    Universe::new(fabric)
}

fn s(x: f64) -> SimTime {
    SimTime::from_secs(x)
}

#[test]
fn send_to_planned_dead_node_fails_and_recycles_sole_buffer() {
    let plan = FaultPlan::from_node_faults([(SimTime::ZERO, NodeId(1))]);
    let u = faulted_universe(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], |rank| {
        if rank.rank() != 0 {
            return; // the victim's thread exists but does nothing
        }
        let before = rank.buffer_pool().pooled();
        let err = rank.send(1, 7, &vec![1.0f64; 64]).unwrap_err();
        match err {
            MpiError::NodeFailed { node, at } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(at, SimTime::ZERO);
            }
            other => panic!("expected NodeFailed, got {other}"),
        }
        // The encode buffer never reached an envelope and the sender was
        // its sole owner: it must come back to the pool, not leak.
        assert_eq!(
            rank.buffer_pool().pooled(),
            before + 1,
            "failed send must return its sole-owned encode buffer"
        );
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn failed_send_never_recycles_an_aliased_buffer() {
    let plan = FaultPlan::from_node_faults([(SimTime::ZERO, NodeId(1))]);
    let u = faulted_universe(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], |rank| {
        if rank.rank() != 0 {
            return;
        }
        let w = rank.world();
        let payload = Bytes::from(vec![42u8; 4096]);
        let alias = payload.clone();
        let before = rank.buffer_pool().pooled();
        let err = rank.send_bytes_comm(&w, 1, 7, payload).unwrap_err();
        assert!(matches!(err, MpiError::NodeFailed { .. }));
        assert_eq!(
            rank.buffer_pool().pooled(),
            before,
            "an aliased payload must not enter the pool"
        );
        // Our alias is untouched — nobody scribbled over the allocation.
        assert!(alias.iter().all(|&b| b == 42));
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn victim_messages_before_death_arrive_in_order_then_recv_aborts() {
    // The victim deposits two sends, then dies. The survivor must receive
    // both in send order (non-overtaking holds across the fault), then get
    // a typed error — and its mailbox must end up exactly empty, with no
    // dangling arrival-index entry matching the victim's class.
    let fault_at = s(0.5);
    let plan = FaultPlan::from_node_faults([(fault_at, NodeId(1))]);
    let u = faulted_universe(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        let w = rank.world();
        if rank.rank() == 1 {
            rank.send(0, 7, &1u64).unwrap();
            rank.send(0, 7, &2u64).unwrap();
            let at = rank
                .planned_fault_in(SimTime::ZERO, s(1.0))
                .expect("plan kills this node");
            rank.fail_here(at);
            return;
        }
        let (a, _) = rank.recv::<u64>(Some(1), Some(7)).unwrap();
        let (b, _) = rank.recv::<u64>(Some(1), Some(7)).unwrap();
        assert_eq!((a, b), (1, 2), "non-overtaking across the fault");
        let err = rank.recv::<u64>(Some(1), Some(7)).unwrap_err();
        match err {
            MpiError::NodeFailed { node, at } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(at, fault_at);
            }
            other => panic!("expected NodeFailed, got {other}"),
        }
        // Learning of the death cannot predate the death.
        assert!(rank.now() >= fault_at);
        // No dangling index entry: probing the drained class finds nothing.
        assert!(rank.iprobe(&w, Some(1), Some(7)).is_none());
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn revoke_marker_aborts_transitively_blocked_rank() {
    // Chain: rank 2 dies; rank 1 aborts on the dead flag and revokes; rank
    // 0 — blocked on rank 1, which is alive but aborting — unblocks off the
    // marker with the *victim's* identity and death time.
    let fault_at = s(0.25);
    let plan = FaultPlan::from_node_faults([(fault_at, NodeId(2))]);
    let u = faulted_universe(3, plan);
    u.launch(&[NodeId(0), NodeId(1), NodeId(2)], move |rank| {
        let w = rank.world();
        match rank.rank() {
            2 => {
                let at = rank.planned_fault_in(SimTime::ZERO, s(1.0)).unwrap();
                rank.fail_here(at);
            }
            1 => {
                let err = rank.recv::<u64>(Some(2), Some(3)).unwrap_err();
                let MpiError::NodeFailed { node, at } = err else {
                    panic!("expected NodeFailed");
                };
                rank.revoke_comm(&w, node, at);
            }
            _ => {
                let err = rank.recv::<u64>(Some(1), Some(4)).unwrap_err();
                match err {
                    MpiError::NodeFailed { node, at } => {
                        assert_eq!(node, NodeId(2), "marker names the victim");
                        assert_eq!(at, fault_at);
                    }
                    other => panic!("expected NodeFailed, got {other}"),
                }
            }
        }
    });
    psmpi::lockcheck::assert_acyclic();
}

/// Run `job` on a thread of its own and fail — rather than hang the suite —
/// if it is not through in ten seconds (the launches below take
/// milliseconds).
fn within_ten_seconds(job: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        job();
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("a rank is still blocked on a sender that will never deliver");
}

#[test]
fn bcast_and_probe_on_a_dead_root_fail_instead_of_hanging() {
    // The root dies before it broadcasts. Both non-roots sit in the bcast's
    // blocking probe on it (binomial tree over 3 ranks: 0 is the parent of
    // 1 and 2); the death must surface there as it does in a receive.
    let fault_at = s(0.5);
    let plan = FaultPlan::from_node_faults([(fault_at, NodeId(0))]);
    let u = faulted_universe(3, plan);
    within_ten_seconds(move || {
        u.launch(&[NodeId(0), NodeId(1), NodeId(2)], move |rank| {
            let w = rank.world();
            if rank.rank() == 0 {
                let at = rank.planned_fault_in(SimTime::ZERO, s(1.0)).unwrap();
                return rank.fail_here(at);
            }
            for attempt in 0..2 {
                let err = match attempt {
                    0 => rank.bcast(&w, 0, None::<Vec<f64>>).unwrap_err(),
                    _ => rank.probe(&w, Some(0), Some(9)).unwrap_err(),
                };
                match err {
                    MpiError::NodeFailed { node, at } => {
                        assert_eq!((node, at), (NodeId(0), fault_at));
                    }
                    other => panic!("expected NodeFailed, got {other}"),
                }
                assert!(rank.now() >= fault_at, "learnt no earlier than it happened");
            }
        });
        assert_eq!(u.router().awake_ranks(), 0);
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn bcast_on_a_revoking_root_fails_with_the_victims_identity() {
    // Rank 2 dies; the bcast root, rank 1, learns of it in a receive,
    // revokes the world and leaves without broadcasting. Rank 0 waits in
    // the bcast's probe on rank 1 — alive, but never sending — and must
    // unblock off rank 1's marker, blaming rank 2.
    let fault_at = s(0.25);
    let plan = FaultPlan::from_node_faults([(fault_at, NodeId(2))]);
    let u = faulted_universe(3, plan);
    within_ten_seconds(move || {
        u.launch(&[NodeId(0), NodeId(1), NodeId(2)], move |rank| {
            let w = rank.world();
            match rank.rank() {
                2 => {
                    let at = rank.planned_fault_in(SimTime::ZERO, s(1.0)).unwrap();
                    rank.fail_here(at);
                }
                1 => {
                    let err = rank.recv::<u64>(Some(2), Some(3)).unwrap_err();
                    let MpiError::NodeFailed { node, at } = err else {
                        panic!("expected NodeFailed");
                    };
                    rank.revoke_comm(&w, node, at);
                }
                _ => match rank.bcast(&w, 1, None::<Vec<f64>>).unwrap_err() {
                    MpiError::NodeFailed { node, at } => {
                        assert_eq!(
                            (node, at),
                            (NodeId(2), fault_at),
                            "the marker names the victim"
                        );
                    }
                    other => panic!("expected NodeFailed, got {other}"),
                },
            }
        });
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn transient_link_fault_is_retried_through_backoff() {
    // Outage over [0, 250µs); default policy backs off 100µs then 200µs,
    // placing the sender's clock at 300µs — past the outage, so the send
    // succeeds and the payload arrives.
    let mut plan = FaultPlan::new();
    plan.add_link_fault(
        NodeId(0),
        NodeId(1),
        SimTime::ZERO,
        SimTime::from_micros(250.0),
    );
    let u = faulted_universe(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], |rank| {
        if rank.rank() == 0 {
            rank.send(1, 7, &7u64).unwrap();
            assert!(
                rank.now() >= SimTime::from_micros(300.0),
                "backoff must advance the virtual clock"
            );
        } else {
            let (v, _) = rank.recv::<u64>(Some(0), Some(7)).unwrap();
            assert_eq!(v, 7);
        }
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn persistent_link_fault_exhausts_retries_to_link_down() {
    let mut plan = FaultPlan::new();
    plan.add_link_fault(NodeId(0), NodeId(1), SimTime::ZERO, s(100.0));
    let u = faulted_universe(2, plan);
    u.router().set_retry_policy(RetryPolicy {
        max_retries: 3,
        base_backoff: SimTime::from_micros(100.0),
        give_up_after: s(10.0),
    });
    u.launch(&[NodeId(0), NodeId(1)], |rank| {
        if rank.rank() != 0 {
            return;
        }
        let err = rank.send(1, 7, &7u64).unwrap_err();
        match err {
            MpiError::LinkDown { src, dst, .. } => {
                assert_eq!((src, dst), (NodeId(0), NodeId(1)));
            }
            other => panic!("expected LinkDown, got {other}"),
        }
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn link_fault_backoff_times_out_past_give_up_bound() {
    let mut plan = FaultPlan::new();
    plan.add_link_fault(NodeId(0), NodeId(1), SimTime::ZERO, s(100.0));
    let u = faulted_universe(2, plan);
    u.router().set_retry_policy(RetryPolicy {
        max_retries: 1000,
        base_backoff: SimTime::from_micros(100.0),
        give_up_after: SimTime::from_millis(1.0),
    });
    u.launch(&[NodeId(0), NodeId(1)], |rank| {
        if rank.rank() != 0 {
            return;
        }
        let err = rank.send(1, 7, &7u64).unwrap_err();
        match err {
            MpiError::Timeout { waited } => {
                assert!(waited >= SimTime::from_millis(1.0));
            }
            other => panic!("expected Timeout, got {other}"),
        }
    });
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn faulted_run_is_identical_across_thread_interleavings() {
    // The whole point of the static-plan design: the survivor's final clock
    // and received data are a function of the plan, not of host scheduling.
    // Run the same faulted job many times and demand identical outcomes.
    let run = || {
        let fault_at = s(0.5);
        let plan = FaultPlan::from_node_faults([(fault_at, NodeId(1))]);
        let u = faulted_universe(2, plan);
        let report = u.launch(&[NodeId(0), NodeId(1)], move |rank| {
            if rank.rank() == 1 {
                rank.send(0, 7, &11u64).unwrap();
                let at = rank.planned_fault_in(SimTime::ZERO, s(1.0)).unwrap();
                rank.fail_here(at);
                return;
            }
            let (v, _) = rank.recv::<u64>(Some(1), Some(7)).unwrap();
            assert_eq!(v, 11);
            let err = rank.recv::<u64>(Some(1), Some(7)).unwrap_err();
            assert!(matches!(err, MpiError::NodeFailed { .. }));
        });
        report
            .outcomes()
            .iter()
            .map(|o| (o.rank, o.clock, o.bytes_sent, o.msgs_sent))
            .collect::<Vec<_>>()
    };
    let mut first = run();
    first.sort_by_key(|a| a.0);
    for _ in 0..10 {
        let mut again = run();
        again.sort_by_key(|a| a.0);
        assert_eq!(first, again);
    }
    psmpi::lockcheck::assert_acyclic();
}

#[test]
fn forged_segmented_bcast_header_is_a_codec_error_not_an_allocation() {
    // The segmented bcast's header is the one frame in psmpi that sizes an
    // allocation from the wire. Rank 0 plays a corrupt parent: it deposits
    // a hand-made header (and segments) under the collective's reserved
    // tags instead of calling `bcast`; rank 1's `bcast` must reject each
    // with a typed error.
    const TAG_BCAST_HDR: psmpi::Tag = -18;
    const TAG_BCAST_SEG: psmpi::Tag = -19;
    // (total, seg) as sent, then the segment lengths that follow it.
    let forgeries: [(u64, u64, &[usize]); 4] = [
        (1 << 20, 0, &[]),         // bytes promised in empty segments
        (u64::MAX, 4, &[5]),       // multi-exabyte total, over-long segment
        (6, 4, &[4, 4]),           // segments overshoot the total
        (u64::MAX, u64::MAX, &[]), // accepted so far: nothing reserved past the pool's ceiling
    ];
    let u = faulted_universe(2, FaultPlan::new());
    u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        let w = rank.world();
        for (round, &(total, seg, segments)) in forgeries.iter().enumerate() {
            let last = round + 1 == forgeries.len();
            if rank.rank() == 0 {
                rank.send_comm(&w, 1, TAG_BCAST_HDR, &(total, seg)).unwrap();
                for &len in segments {
                    let segment = Bytes::from(vec![7u8; len]);
                    rank.send_bytes_comm(&w, 1, TAG_BCAST_SEG, segment).unwrap();
                }
                if last {
                    // An honest segment stream would have to go on for
                    // exabytes; the parent dying mid-stream ends it.
                    rank.fail_here(rank.now());
                }
            } else {
                let err = rank.bcast_bytes(&w, 0, None).unwrap_err();
                match (last, err) {
                    (false, MpiError::Codec(_)) | (true, MpiError::NodeFailed { .. }) => {}
                    (_, other) => panic!("forgery {round}: unexpected {other}"),
                }
            }
        }
    });
}
