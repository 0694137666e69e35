//! Fault-injection tests: planned node deaths surface as
//! typed `MpiError`s, buffers are neither leaked nor recycled-while-aliased
//! on the error path, and the mailbox stays exact (non-overtaking included)
//! across an aborted receive.

use bytes::Bytes;
use hwmodel::presets::deep_er_cluster_node;
use hwmodel::{NodeId, SimTime};
use psmpi::{BufferPool, MpiError, Rank, ReduceOp, Universe};
use simnet::{Fabric, FaultPlan, Topology};
use std::sync::Arc;

/// Fabric over `n` cluster nodes with the given fault plan installed.
fn faulted_fabric(n: u32, plan: FaultPlan) -> Fabric {
    let mut t = Topology::new();
    t.add_nodes(n, &deep_er_cluster_node());
    let fabric = Fabric::new(t);
    fabric.set_fault_plan(plan);
    fabric
}

/// Universe over `n` cluster nodes with the given fault plan installed.
fn faulted_universe(n: u32, plan: FaultPlan) -> Universe {
    Universe::new(faulted_fabric(n, plan))
}

/// [`faulted_universe`] with a pool of its own, for a test that counts
/// its universe's draws: the shared pool may hold buffers, and count
/// draws, of other tests' universes.
fn faulted_universe_own_pool(n: u32, plan: FaultPlan) -> Universe {
    Universe::with_buffer_pool(faulted_fabric(n, plan), Arc::new(BufferPool::new()))
}

fn s(x: f64) -> SimTime {
    SimTime::from_secs(x)
}

/// The victim's side of a planned death at `fault_at`: run past it, then
/// post a send, which psmpi refuses with the rank's own death (declaring
/// the node down for its peers) without depositing anything.
fn die_by_the_plan(rank: &mut Rank, fault_at: SimTime) {
    rank.advance(fault_at.saturating_sub(rank.now()) + s(0.125));
    let w = rank.world();
    match rank.send_comm(&w, 0, 99, &0u64) {
        Err(MpiError::NodeFailed { node, at }) => {
            assert_eq!((node, at), (rank.node_id(), fault_at));
        }
        other => panic!("expected the rank's own death, got {other:?}"),
    }
}

#[test]
fn send_to_planned_dead_node_fails_and_recycles_sole_buffer() {
    let plan = FaultPlan::from_node_faults([(SimTime::ZERO, NodeId(1))]);
    let u = faulted_universe_own_pool(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], |rank| {
        let w = rank.world();
        if rank.rank() != 0 {
            return; // the victim's thread exists but does nothing
        }
        let before = rank.buffer_pool().stats();
        let err = rank.send_comm(&w, 1, 7, &vec![1.0f64; 64]).unwrap_err();
        match err {
            MpiError::NodeFailed { node, at } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(at, SimTime::ZERO);
            }
            other => panic!("expected NodeFailed, got {other}"),
        }
        // The encode buffer never reached an envelope and the sender was
        // its sole owner: it must come back, not leak — the next send
        // stages it again (from the rank's slot) instead of allocating.
        rank.send_comm(&w, 1, 7, &vec![2.0f64; 64]).unwrap_err();
        let after = rank.buffer_pool().stats();
        assert_eq!(
            (after.misses - before.misses, after.hits - before.hits),
            (1, 1),
            "failed send must return its sole-owned encode buffer"
        );
    });
}

#[test]
fn failed_send_never_recycles_an_aliased_buffer() {
    let plan = FaultPlan::from_node_faults([(SimTime::ZERO, NodeId(1))]);
    let u = faulted_universe_own_pool(2, plan);
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
    let router = u.router().clone();
    u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        let w = rank.world();
        if rank.rank() == 1 {
            rank.send_comm(&w, 0, 7, &1u64).unwrap();
            rank.send_comm(&w, 0, 7, &2u64).unwrap();
            return die_by_the_plan(rank, fault_at);
        }
        let (a, _) = rank.recv_comm::<u64>(&w, Some(1), Some(7)).unwrap();
        let (b, _) = rank.recv_comm::<u64>(&w, Some(1), Some(7)).unwrap();
        assert_eq!((a, b), (1, 2), "non-overtaking across the fault");
        let err = rank.recv_comm::<u64>(&w, Some(1), Some(7)).unwrap_err();
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
        let entry = router.entry(w.group.endpoints[0]).unwrap();
        let mailbox = entry.mailbox();
        assert!(mailbox.probe_match(w.id, Some(1), Some(7)).is_none());
    });
}

#[test]
fn a_victim_past_its_death_deposits_nothing_and_is_told_it_died() {
    // The victim sends once before its planned death and once after it.
    // The second send, and the receive after it, fail with the victim's
    // own death; the survivor gets the first message only, then aborts,
    // with nothing of the victim's left in its mailbox.
    let fault_at = s(0.5);
    let plan = FaultPlan::from_node_faults([(fault_at, NodeId(1))]);
    let u = faulted_universe(2, plan);
    let router = u.router().clone();
    let report = u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        let w = rank.world();
        let victims_death = |r: Result<(), MpiError>| match r {
            Err(MpiError::NodeFailed { node, at }) => assert_eq!((node, at), (NodeId(1), fault_at)),
            other => panic!("expected the victim's own death, got {other:?}"),
        };
        if rank.rank() == 1 {
            rank.advance(s(0.25));
            rank.send_comm(&w, 0, 7, &1u64).unwrap();
            rank.advance(s(0.5));
            victims_death(rank.send_comm(&w, 0, 7, &2u64));
            victims_death(rank.recv_comm::<u64>(&w, Some(0), Some(7)).map(drop));
            return;
        }
        let (a, _) = rank.recv_comm::<u64>(&w, Some(1), Some(7)).unwrap();
        assert_eq!(a, 1);
        victims_death(rank.recv_comm::<u64>(&w, Some(1), Some(7)).map(drop));
        assert!(rank.now() >= fault_at);
        let entry = router.entry(w.group.endpoints[0]).unwrap();
        assert!(
            entry.mailbox().is_empty(),
            "nothing of the victim's is queued"
        );
    });
    let victim = report.outcomes().iter().find(|o| o.rank == 1).unwrap();
    assert_eq!(victim.msgs_sent, 1, "the refused send is not counted");
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
            2 => die_by_the_plan(rank, fault_at),
            1 => {
                let err = rank.recv_comm::<u64>(&w, Some(2), Some(3)).unwrap_err();
                let MpiError::NodeFailed { node, at } = err else {
                    panic!("expected NodeFailed");
                };
                rank.revoke_comm(&w, node, at);
            }
            _ => {
                let err = rank.recv_comm::<u64>(&w, Some(1), Some(4)).unwrap_err();
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
}

/// Run `job` on a thread of its own and fail — rather than hang the suite —
/// if it is not through in ten seconds (the launches below take
/// milliseconds).
#[expect(
    clippy::disallowed_methods,
    reason = "a watchdog thread outside the simulated world; it reads no virtual time"
)]
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
    // 1 and 2); the death must surface there as it does in a receive, in
    // the typed bcast and again in the bytes one.
    let fault_at = s(0.5);
    let plan = FaultPlan::from_node_faults([(fault_at, NodeId(0))]);
    let u = faulted_universe(3, plan);
    within_ten_seconds(move || {
        u.launch(&[NodeId(0), NodeId(1), NodeId(2)], move |rank| {
            let w = rank.world();
            if rank.rank() == 0 {
                return die_by_the_plan(rank, fault_at);
            }
            for attempt in 0..2 {
                let err = match attempt {
                    0 => rank.bcast(&w, 0, None::<Vec<f64>>).unwrap_err(),
                    _ => rank.bcast_bytes(&w, 0, None).unwrap_err(),
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
}

#[test]
fn an_out_of_range_root_is_invalid_rank_on_every_rank() {
    // A root past the end of the communicator roots the tree nowhere:
    // unchecked, the bcast takes rank 0 for a root without a value while
    // ranks 1-3 wait on it forever, and the reduce's relative rank
    // underflows. Every rank must refuse the root before it sends anything.
    let u = faulted_universe(4, FaultPlan::new());
    within_ten_seconds(move || {
        let report = u.launch(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], |rank| {
            let w = rank.world();
            let invalid = |e: MpiError, root: usize| {
                assert!(
                    matches!(e, MpiError::InvalidRank { rank, size: 4 } if rank == root),
                    "{e}"
                );
            };
            invalid(rank.bcast(&w, 4, Some(7u64)).unwrap_err(), 4);
            invalid(
                rank.reduce(&w, 9, &[1.0], psmpi::ReduceOp::Sum)
                    .unwrap_err(),
                9,
            );
        });
        assert_eq!(report.total_msgs_sent(), 0, "nothing was sent");
    });
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
                2 => die_by_the_plan(rank, fault_at),
                1 => {
                    let err = rank.recv_comm::<u64>(&w, Some(2), Some(3)).unwrap_err();
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
            let w = rank.world();
            if rank.rank() == 1 {
                rank.send_comm(&w, 0, 7, &11u64).unwrap();
                return die_by_the_plan(rank, fault_at);
            }
            let (v, _) = rank.recv_comm::<u64>(&w, Some(1), Some(7)).unwrap();
            assert_eq!(v, 11);
            let err = rank.recv_comm::<u64>(&w, Some(1), Some(7)).unwrap_err();
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
    // The parent's node dies after its last forgery.
    let fault_at = s(1.0);
    let u = faulted_universe(2, FaultPlan::from_node_faults([(fault_at, NodeId(0))]));
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
                    die_by_the_plan(rank, fault_at);
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

#[test]
fn forged_reduction_blocks_are_codec_errors_and_go_back_to_the_pool() {
    // Rank 0 plays a corrupt partner: it deposits a short and an over-long
    // block under the reduce and allreduce reserved tags instead of taking
    // part; rank 1's `reduce` and `allreduce` must reject each with a typed
    // error and give the block back to the pool, and an honest `allreduce`
    // on the same world still sums right. Rank 1 records what it saw and
    // the asserts run after the job, so a failure cannot strand rank 0.
    const TAG_REDUCE: psmpi::Tag = -12;
    const TAG_ALLREDUCE: psmpi::Tag = -17;
    // Bytes of the forged blocks against a four-`f64` (32-byte) block: too
    // short, and too long by far. Neither fits a 32-byte draw, so rank 1's
    // own allreduce sends never take one back out of the stacks.
    const FORGED: [usize; 2] = [16, 512];
    let contribution = [1.0f64, 2.0, 3.0, 4.0];
    let pool = Arc::new(BufferPool::new());
    // Per forged block: (collective, rejected as a codec error, buffers the
    // pool gained); then each rank's honest sum.
    let seen = Arc::new(lockrank::Mutex::<_, 900>::new((Vec::new(), Vec::new())));
    let seen_in = seen.clone();
    let mut topology = Topology::new();
    let nodes = topology.add_nodes(2, &deep_er_cluster_node());
    Universe::with_buffer_pool(Fabric::new(topology), pool.clone()).launch(&nodes, move |rank| {
        let w = rank.world();
        if rank.rank() == 0 {
            // Only raw sends and dropped receives: rank 0 never touches
            // the pool while rank 1 counts it.
            for len in FORGED {
                let block = Bytes::from(vec![0u8; len]);
                rank.send_bytes_comm(&w, 1, TAG_REDUCE, block).unwrap();
                let block = Bytes::from(vec![0u8; len]);
                rank.send_bytes_comm(&w, 1, TAG_ALLREDUCE, block).unwrap();
                // Rank 1's own block of its allreduce.
                let _ = rank.recv_bytes_comm(&w, Some(1), Some(TAG_ALLREDUCE));
            }
        } else {
            // A 4 KiB buffer in the slot, which a 32-byte draw passes
            // over: every block rank 1 retires lands in the stacks,
            // where `pooled()` counts it.
            rank.send_slice(1, 0, &[0.0f64; 512]).unwrap();
            rank.recv_into(Some(1), Some(0), &mut [0.0f64; 512])
                .unwrap();
            let codec = |r: Result<_, MpiError>| matches!(r, Err(MpiError::Codec(_)));
            for len in FORGED {
                let pooled = rank.buffer_pool().pooled() as i64;
                let reduce = codec(rank.reduce(&w, 1, &contribution, ReduceOp::Sum).map(drop));
                let back = rank.buffer_pool().pooled() as i64;
                let allreduce = codec(rank.allreduce(&w, &contribution, ReduceOp::Sum).map(drop));
                let again = rank.buffer_pool().pooled() as i64;
                let mut seen = seen_in.lock();
                seen.0.push((len, "reduce", reduce, back - pooled));
                seen.0.push((len, "allreduce", allreduce, again - back));
            }
        }
        let mine = [rank.rank() as f64 + 1.0; 4];
        let sum = rank.allreduce(&w, &mine, ReduceOp::Sum);
        seen_in.lock().1.push(sum.ok());
    });
    let (rejected, sums) = seen.lock().clone();
    let want: Vec<_> = FORGED
        .iter()
        .flat_map(|&len| [(len, "reduce", true, 1), (len, "allreduce", true, 1)])
        .collect();
    assert_eq!(
        rejected, want,
        "(bytes, collective, codec error, buffers back)"
    );
    assert_eq!(sums, [Some(vec![3.0; 4]), Some(vec![3.0; 4])]);
    assert_eq!(pool.stats().reclaim_failures, 0);
}

#[test]
fn a_panicking_rank_ends_its_job_instead_of_hanging_its_peers() {
    // Rank 1 panics before its send while rank 0 waits in a receive from
    // it. The panic must take rank 1's node down at its clock, so rank 0's
    // receive fails as from a dead node, and the launch must end, carrying
    // the panic to the joining thread.
    let seen = Arc::new(lockrank::Mutex::<_, 900>::new(None));
    let seen_in = seen.clone();
    let u = faulted_universe(2, FaultPlan::new());
    within_ten_seconds(move || {
        let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            u.launch(&[NodeId(0), NodeId(1)], move |rank| {
                let w = rank.world();
                if rank.rank() == 1 {
                    rank.advance(s(0.25));
                    panic!("rank 1 gives up before it sends");
                }
                let got = rank.recv_comm::<u64>(&w, Some(1), Some(3));
                *seen_in.lock() = Some((got.map(|(v, _)| v), rank.now()));
            })
        }));
        assert!(launched.is_err(), "the rank's panic reaches the launcher");
        assert_eq!(u.router().awake_ranks(), 0);
    });
    let (got, now) = seen
        .lock()
        .take()
        .expect("rank 0 came back from its receive");
    match got {
        Err(MpiError::NodeFailed { node, at }) => assert_eq!((node, at), (NodeId(1), s(0.25))),
        other => panic!("expected NodeFailed, got {other:?}"),
    }
    assert_eq!(now, s(0.25), "learnt no earlier than rank 1 died");
}

#[test]
fn a_segment_stream_that_does_not_rejoin_is_copied() {
    // Segments of an honest stream are slices of the root's one allocation
    // and rejoin into one view of it. A forged stream whose segments come
    // from separate allocations cannot rejoin, so the receiver copies it,
    // from the first segment that does not join on; the bytes it returns
    // are the stream's all the same.
    const TAG_BCAST_HDR: psmpi::Tag = -18;
    const TAG_BCAST_SEG: psmpi::Tag = -19;
    let apart = [Bytes::from(vec![1u8; 4]), Bytes::from(vec![2u8; 4])];
    let joined = Bytes::from(vec![3u8, 3, 3, 3, 4, 4, 4, 4]);
    let streams: [Vec<Bytes>; 2] = [
        apart.to_vec(),
        vec![joined.slice(..4), joined.slice(4..), apart[0].clone()],
    ];
    let want: [&[u8]; 2] = [
        &[1, 1, 1, 1, 2, 2, 2, 2],
        &[3, 3, 3, 3, 4, 4, 4, 4, 1, 1, 1, 1],
    ];
    let u = faulted_universe(2, FaultPlan::new());
    u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        let w = rank.world();
        for (stream, want) in streams.iter().zip(want) {
            if rank.rank() == 0 {
                let total = stream.iter().map(Bytes::len).sum::<usize>() as u64;
                rank.send_comm(&w, 1, TAG_BCAST_HDR, &(total, 4u64))
                    .unwrap();
                for segment in stream {
                    rank.send_bytes_comm(&w, 1, TAG_BCAST_SEG, segment.clone())
                        .unwrap();
                }
            } else {
                let got = rank.bcast_bytes(&w, 0, None).unwrap();
                assert_eq!(&got[..], want);
                assert!(stream.iter().all(|s| s.as_ptr() != got.as_ptr()), "a copy");
            }
        }
    });
}
