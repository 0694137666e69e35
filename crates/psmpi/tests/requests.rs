//! Request-engine tests: the nonblocking p2p surface defers exactly the
//! sender-side NIC charge to `wait`, parks fault outcomes at post and
//! surfaces them at completion, keeps `test` non-advancing on a miss, and
//! completes `waitall` batches in posted order — deterministically across
//! host schedules.

use hwmodel::presets::deep_er_cluster_node;
use hwmodel::{NodeId, SimTime};
use lockrank::Mutex;
use obs::{Category, Recorder};
use psmpi::datatype::{pod_to_bytes, pod_to_bytes_pooled, read_pod_into_exact};
use psmpi::{Comm, MpiDatatype, MpiError, MpiRequest, Rank, Universe, UniverseBuilder, Wire};
use simnet::{Fabric, FaultPlan, Topology};
use std::sync::Arc;

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

/// The victim's side of a planned death at `fault_at`: run past it, then
/// post a send, which psmpi refuses at the post with the rank's own death
/// (declaring the node down for its peers).
fn die_by_the_plan(rank: &mut Rank, fault_at: SimTime) {
    rank.advance(fault_at.saturating_sub(rank.now()) + s(0.125));
    match rank.isend_slice(0, 99, &[0.0f64]) {
        Err(MpiError::NodeFailed { node, at }) => {
            assert_eq!((node, at), (rank.node_id(), fault_at));
        }
        Err(other) => panic!("expected the rank's own death, got {other}"),
        Ok(_) => panic!("a dead rank's send was posted"),
    }
}

#[test]
fn isend_post_is_free_and_wait_charges_nic_serialization() {
    let overhead = deep_er_cluster_node().nic_send_overhead;
    UniverseBuilder::new()
        .add_nodes(2, &deep_er_cluster_node())
        .run(move |rank| {
            if rank.rank() == 0 {
                let payload = vec![1.0f64; 1024];
                let t0 = rank.now();
                let req = rank.isend_slice(1, 7, &payload).unwrap();
                assert_eq!(rank.now(), t0, "posting a send must not move the clock");
                req.wait(rank).unwrap();
                assert_eq!(
                    rank.now(),
                    t0 + overhead,
                    "wait applies exactly the deferred NIC serialization"
                );
            } else {
                let mut inbox = vec![0.0f64; 1024];
                rank.recv_into(Some(0), Some(7), &mut inbox).unwrap();
                assert!(inbox.iter().all(|&x| x == 1.0));
            }
        });
}

#[test]
fn compute_between_post_and_wait_hides_the_nic_charge() {
    // The overlap contract: a send posted before compute that outlasts its
    // NIC serialization costs the poster nothing at wait.
    let overhead = deep_er_cluster_node().nic_send_overhead;
    UniverseBuilder::new()
        .add_nodes(2, &deep_er_cluster_node())
        .run(move |rank| {
            if rank.rank() == 0 {
                let payload = vec![2.0f64; 1024];
                let req = rank.isend_slice(1, 7, &payload).unwrap();
                rank.advance(overhead + overhead); // "compute" past completion
                let t1 = rank.now();
                req.wait(rank).unwrap();
                assert_eq!(rank.now(), t1, "fully-hidden send adds zero wait");
            } else {
                let mut inbox = vec![0.0f64; 1024];
                rank.recv_into(Some(0), Some(7), &mut inbox).unwrap();
            }
        });
}

#[test]
fn irecv_wait_is_max_of_clock_and_arrival() {
    UniverseBuilder::new()
        .add_nodes(2, &deep_er_cluster_node())
        .run(|rank| {
            if rank.rank() == 0 {
                rank.send_slice(1, 7, &[3.0f64; 512]).unwrap();
                rank.send_slice(1, 8, &[4.0f64; 512]).unwrap();
            } else {
                // Early wait: the clock advances to the arrival.
                let mut a = vec![0.0f64; 512];
                let req = rank.irecv_into(Some(0), Some(7), &mut a).unwrap();
                let t0 = rank.now();
                req.wait(rank).unwrap();
                assert!(rank.now() > t0, "waiting early pays the transfer");

                // Late wait: compute already covered the arrival, so the
                // transfer is fully hidden and wait adds nothing.
                let mut b = vec![0.0f64; 512];
                let req = rank.irecv_into(Some(0), Some(8), &mut b).unwrap();
                rank.advance(s(1.0));
                let t1 = rank.now();
                req.wait(rank).unwrap();
                assert_eq!(rank.now(), t1, "hidden transfer adds zero wait");
                assert!(a.iter().all(|&x| x == 3.0));
                assert!(b.iter().all(|&x| x == 4.0));
            }
        });
}

// ---- blocking == post + wait, over the whole surviving surface ----

#[derive(Clone, Copy, Debug, PartialEq)]
enum Form {
    Typed,
    Bytes { sized: bool },
    Slice,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    Clean,
    DeadDestination,
}

const EQ_TAG: psmpi::Tag = 7;
/// Modelled wire size of the `sized` cells (the payload is 2 KiB).
const EQ_WIRE: usize = 1 << 20;
/// Every cell sends at this clock: an intra-communicator sender idles up
/// to it, an inter-communicator sender gets there by paying the spawn.
const EQ_T0: f64 = 0.05;

fn eq_data() -> Vec<f64> {
    (0..256).map(|i| i as f64 * 0.5).collect()
}

/// One send of `form` to rank `dst` of `comm`, blocking or as post + wait.
/// Where the request surface has no method of the blocking one's name
/// (typed payloads; slices off the world), post + wait goes through
/// `isend_bytes_comm` with the bytes the blocking method would produce.
fn eq_send(
    rank: &mut Rank,
    comm: &impl Comm,
    dst: usize,
    form: Form,
    inter: bool,
    post_wait: bool,
) -> Result<(), MpiError> {
    let data = eq_data();
    match (form, post_wait) {
        (Form::Typed, false) => rank.send_comm(comm, dst, EQ_TAG, &data),
        (Form::Typed, true) => {
            let wire = data.to_wire(rank.buffer_pool());
            rank.isend_bytes_comm(comm, dst, EQ_TAG, wire)?.wait(rank)
        }
        (Form::Bytes { sized: false }, false) => {
            rank.send_bytes_comm(comm, dst, EQ_TAG, pod_to_bytes(&data))
        }
        (Form::Bytes { sized: false }, true) => rank
            .isend_bytes_comm(comm, dst, EQ_TAG, pod_to_bytes(&data))?
            .wait(rank),
        (Form::Bytes { sized: true }, false) => {
            let wire = Wire::modelled(pod_to_bytes(&data), EQ_WIRE);
            rank.send_bytes_comm(comm, dst, EQ_TAG, wire)
        }
        (Form::Bytes { sized: true }, true) => {
            let wire = Wire::modelled(pod_to_bytes(&data), EQ_WIRE);
            rank.isend_bytes_comm(comm, dst, EQ_TAG, wire)?.wait(rank)
        }
        (Form::Slice, false) => rank.send_slice_comm(comm, dst, EQ_TAG, &data),
        (Form::Slice, true) if !inter => rank.isend_slice(dst, EQ_TAG, &data)?.wait(rank),
        (Form::Slice, true) => {
            let wire = pod_to_bytes_pooled(rank.buffer_pool(), &data);
            rank.isend_bytes_comm(comm, dst, EQ_TAG, wire)?.wait(rank)
        }
    }
}

/// The matching (always blocking) receive; returns the payload bits. The
/// in-place slice receive exists on the world only, so off it a slice
/// arrives as bytes.
fn eq_recv(rank: &mut Rank, comm: &impl Comm, form: Form, inter: bool) -> Vec<u64> {
    let mut out = vec![0.0f64; 256];
    match form {
        Form::Typed => out = rank.recv_comm(comm, Some(0), Some(EQ_TAG)).unwrap().0,
        Form::Slice if !inter => {
            rank.recv_into(Some(0), Some(EQ_TAG), &mut out).unwrap();
        }
        Form::Bytes { .. } | Form::Slice => {
            let (bytes, _) = rank.recv_bytes_comm(comm, Some(0), Some(EQ_TAG)).unwrap();
            read_pod_into_exact(&bytes, &mut out).unwrap();
        }
    }
    out.iter().map(|x| x.to_bits()).collect()
}

/// Everything one run of a cell leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    /// (world, rank, clock, bytes_sent, msgs_sent), all worlds.
    outcomes: Vec<(u64, usize, SimTime, u64, u64)>,
    received: Vec<u64>,
    error: Option<String>,
    /// The sender's p2p spans as exported: (category, name, start, end).
    sender_spans: Vec<(String, String, SimTime, SimTime)>,
}

fn eq_run(form: Form, inter: bool, fault: Fault, post_wait: bool) -> Observed {
    let mut plan = FaultPlan::new();
    match fault {
        Fault::Clean => {}
        Fault::DeadDestination => plan.add_node_fault(NodeId(1), SimTime::ZERO),
    }
    let u = faulted_universe(2, plan);
    let rec = Recorder::new();
    u.attach_obs(rec.clone());
    let received = Arc::new(Mutex::<_, 900>::new(Vec::new()));
    let error = Arc::new(Mutex::<_, 900>::new(None));
    let (received_in, error_in) = (received.clone(), error.clone());
    let dead = fault == Fault::DeadDestination;
    let receive = move |rank: &mut Rank, recv: &dyn Fn(&mut Rank) -> Vec<u64>| {
        if !dead {
            *received_in.lock() = recv(rank);
        }
    };
    let sent = move |res: Result<(), MpiError>| {
        *error_in.lock() = res.err().map(|e| format!("{e:?}"));
    };
    let report = if inter {
        u.launch(&[NodeId(0)], move |rank| {
            let receive = receive.clone();
            let ic = rank
                .spawn_world(&[NodeId(1)], move |child: &mut Rank| {
                    let parent = child.parent().expect("spawned world has a parent");
                    receive(child, &|r| eq_recv(r, &parent, form, inter));
                })
                .unwrap();
            assert_eq!(rank.now(), s(EQ_T0), "spawn latency is the send clock");
            let res = eq_send(rank, &ic, 0, form, inter, post_wait);
            sent(res);
        })
    } else {
        u.launch(&[NodeId(0), NodeId(1)], move |rank| {
            let w = rank.world();
            if rank.rank() == 0 {
                rank.advance(s(EQ_T0));
                let res = eq_send(rank, &w, 1, form, inter, post_wait);
                sent(res);
            } else {
                receive(rank, &|r| eq_recv(r, &w, form, inter));
            }
        })
    };
    let mut outcomes: Vec<_> = report
        .outcomes()
        .iter()
        .map(|o| (o.world.0, o.rank, o.clock, o.bytes_sent, o.msgs_sent))
        .collect();
    outcomes.sort_by_key(|o| (o.0, o.1));
    let trace = rec.snapshot();
    let sender = trace
        .tracks
        .iter()
        .min_by_key(|t| (t.key.world, t.key.rank))
        .expect("the sender registered a track");
    let sender_spans = sender
        .spans
        .iter()
        .filter(|sp| matches!(sp.cat, Category::Send | Category::Recv | Category::Wait))
        .map(|sp| (format!("{:?}", sp.cat), sp.name.clone(), sp.start, sp.end))
        .collect();
    let received = received.lock().clone();
    let error = error.lock().clone();
    Observed {
        outcomes,
        received,
        error,
        sender_spans,
    }
}

#[test]
fn blocking_equals_post_plus_wait_across_the_surface() {
    // {typed, bytes, slice} × {intra, inter} × {plain, a `Wire::modelled`
    // size where the surface takes one} × {clean, dead destination}: the
    // blocking call and post + immediate wait must be indistinguishable —
    // final clocks, counters, received bits, error — and the
    // blocking run must export exactly the spans it always has: one
    // `Send`/"send" span covering the injection, none when the send
    // failed. Post + wait differs in the label alone. A refused send
    // leaves the sender's clock at the post clock, bit for bit.
    let overhead = deep_er_cluster_node().nic_send_overhead;
    let forms = [
        Form::Typed,
        Form::Bytes { sized: false },
        Form::Bytes { sized: true },
        Form::Slice,
    ];
    let faults = [Fault::Clean, Fault::DeadDestination];
    for form in forms {
        for inter in [false, true] {
            for fault in faults {
                let cell = format!("{form:?} inter={inter} {fault:?}");
                let blocking = eq_run(form, inter, fault, false);
                let posted = eq_run(form, inter, fault, true);

                let (span_end, received, error) = match fault {
                    Fault::Clean => (Some(s(EQ_T0) + overhead), true, None),
                    Fault::DeadDestination => (None, false, Some("NodeFailed")),
                };
                let spans = |cat: &str, name: &str| -> Vec<_> {
                    let span = |end| (cat.to_string(), name.to_string(), s(EQ_T0), end);
                    span_end.map(span).into_iter().collect()
                };
                assert_eq!(blocking.sender_spans, spans("Send", "send"), "{cell}");
                assert_eq!(posted.sender_spans, spans("Wait", "wait-send"), "{cell}");

                let bits: Vec<u64> = eq_data().iter().map(|x| x.to_bits()).collect();
                let expect = if received { bits } else { Vec::new() };
                assert_eq!(blocking.received, expect, "{cell}");
                let variant = |e: &Option<String>| {
                    e.as_deref()
                        .map(|d| d.split([' ', '{', '(']).next().unwrap().to_string())
                };
                assert_eq!(variant(&blocking.error).as_deref(), error, "{cell}");

                assert_eq!(blocking.outcomes, posted.outcomes, "{cell}");
                assert_eq!(blocking.received, posted.received, "{cell}");
                assert_eq!(blocking.error, posted.error, "{cell}");
                let wire = match form {
                    Form::Bytes { sized: true } => EQ_WIRE as u64,
                    Form::Typed => 8 + 2048,
                    _ => 2048,
                };
                let sender = blocking.outcomes[0];
                let sent = if received { (wire, 1) } else { (0, 0) };
                assert_eq!((sender.3, sender.4), sent, "{cell}");
                if fault == Fault::DeadDestination {
                    for run in [&blocking, &posted] {
                        let clock = run.outcomes[0].2.as_secs().to_bits();
                        assert_eq!(clock, s(EQ_T0).as_secs().to_bits(), "{cell}");
                    }
                }
            }
        }
    }
}

#[test]
fn send_fault_is_parked_at_post_and_surfaced_at_wait() {
    let plan = FaultPlan::from_node_faults([(SimTime::ZERO, NodeId(1))]);
    let u = faulted_universe(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], |rank| {
        if rank.rank() != 0 {
            return; // the victim's thread exists but does nothing
        }
        let t0 = rank.now();
        // The post succeeds: the fault outcome is parked on the handle.
        let req = rank.isend_slice(1, 7, &[9.0f64; 64]).unwrap();
        assert_eq!(rank.now(), t0, "the fault must not be charged at post");
        let err = req.wait(rank).unwrap_err();
        match err {
            MpiError::NodeFailed { node, at } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(at, SimTime::ZERO);
            }
            other => panic!("expected NodeFailed, got {other}"),
        }
    });
}

#[test]
fn irecv_wait_aborts_when_the_awaited_sender_dies() {
    let fault_at = s(0.5);
    let plan = FaultPlan::from_node_faults([(fault_at, NodeId(1))]);
    let u = faulted_universe(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        if rank.rank() == 1 {
            return die_by_the_plan(rank, fault_at);
        }
        let w = rank.world();
        let req = rank.irecv_bytes_comm(&w, Some(1), Some(7)).unwrap();
        let err = req.wait(rank).unwrap_err();
        match err {
            MpiError::NodeFailed { node, at } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(at, fault_at);
            }
            other => panic!("expected NodeFailed, got {other}"),
        }
        assert!(
            rank.now() >= fault_at,
            "learning of the death cannot predate it"
        );
    });
}

/// Poll `test` until it stops handing the request back; every miss must
/// leave the clock where it was.
fn poll_to_completion<R: MpiRequest>(rank: &mut Rank, mut req: R) -> Result<R::Output, MpiError> {
    let t0 = rank.now();
    loop {
        match req.test(rank)? {
            Ok(done) => return Ok(done),
            Err(back) => req = back,
        }
        assert_eq!(rank.now(), t0, "a test miss never moves the clock");
        std::thread::yield_now();
    }
}

#[test]
fn test_polling_surfaces_the_death_of_the_awaited_sender() {
    // `wait` on this request returns NodeFailed; a `test` loop must get
    // there too instead of being handed the request back forever.
    let fault_at = s(0.5);
    let plan = FaultPlan::from_node_faults([(fault_at, NodeId(1))]);
    let u = faulted_universe(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        if rank.rank() == 1 {
            return die_by_the_plan(rank, fault_at);
        }
        let w = rank.world();
        let req = rank.irecv_bytes_comm(&w, Some(1), Some(7)).unwrap();
        match poll_to_completion(rank, req) {
            Err(MpiError::NodeFailed { node, at }) => {
                assert_eq!((node, at), (NodeId(1), fault_at));
            }
            other => panic!("expected NodeFailed, got {:?}", other.map(|d| d.1)),
        }
        assert_eq!(rank.now(), fault_at, "completion aligns the clock");
    });
}

#[test]
fn a_dead_ranks_posted_receive_completes_with_its_own_death() {
    // The victim posts a receive nobody will match, then runs past its
    // planned death: `test` must report the request ready and complete it
    // with the victim's own death, without moving the clock.
    let fault_at = s(0.5);
    let plan = FaultPlan::from_node_faults([(fault_at, NodeId(1))]);
    let u = faulted_universe(2, plan);
    u.launch(&[NodeId(0), NodeId(1)], move |rank| {
        if rank.rank() == 0 {
            return;
        }
        let w = rank.world();
        let req = rank.irecv_bytes_comm(&w, Some(0), Some(7)).unwrap();
        rank.advance(s(1.0));
        assert!(req.ready(rank), "a dead rank's wait would not block");
        match req.test(rank) {
            Err(MpiError::NodeFailed { node, at }) => assert_eq!((node, at), (NodeId(1), fault_at)),
            Err(other) => panic!("expected the rank's own death, got {other}"),
            Ok(_) => panic!("a dead rank's receive was not refused"),
        }
        assert_eq!(rank.now(), s(1.0));
    });
}

#[test]
fn test_polling_surfaces_a_revoked_communicator() {
    // The awaited sender is alive but aborted: its revoke marker names the
    // node that actually failed, and `test` completes with that error.
    UniverseBuilder::new()
        .add_nodes(2, &deep_er_cluster_node())
        .run(|rank| {
            let w = rank.world();
            if rank.rank() == 1 {
                rank.revoke_comm(&w, NodeId(9), s(0.25));
                return;
            }
            let mut inbox = [0.0f64; 4];
            let req = rank.irecv_into(Some(1), Some(7), &mut inbox).unwrap();
            let err = poll_to_completion(rank, req).expect_err("nothing was sent");
            assert!(
                matches!(err, MpiError::NodeFailed { node, at } if node == NodeId(9) && at == s(0.25))
            );
        });
}

#[test]
fn out_of_range_source_on_an_intercomm_is_invalid_rank_not_a_hang() {
    // `src` indexes the remote group; one past its end used to match
    // nothing, watch no node and block forever.
    let u = faulted_universe(3, FaultPlan::new());
    u.launch(&[NodeId(0)], |rank| {
        let ic = rank
            .spawn_world(&[NodeId(1), NodeId(2)], |_: &mut Rank| {})
            .unwrap();
        let n = ic.remote_size();
        assert_eq!(n, 2);
        let invalid = |e: MpiError| {
            assert!(
                matches!(e, MpiError::InvalidRank { rank, size } if rank == n && size == n),
                "{e}"
            );
        };
        invalid(rank.recv_comm::<u64>(&ic, Some(n), Some(7)).unwrap_err());
        invalid(rank.recv_bytes_comm(&ic, Some(n), Some(7)).unwrap_err());
        invalid(rank.irecv_bytes_comm(&ic, Some(n), Some(7)).err().unwrap());
        invalid(rank.send_comm(&ic, n, 7, &1u64).unwrap_err());
    });
}

#[test]
fn test_misses_without_moving_the_clock_then_completes_on_a_hit() {
    UniverseBuilder::new()
        .add_nodes(1, &deep_er_cluster_node())
        .run(|rank| {
            let w = rank.world();
            let req = rank.irecv_bytes_comm(&w, Some(0), Some(7)).unwrap();
            let t0 = rank.now();
            // Nothing queued: the request comes back untouched, clock still.
            let req = match req.test(rank).unwrap() {
                Ok(_) => panic!("nothing was sent yet"),
                Err(req) => req,
            };
            assert_eq!(rank.now(), t0, "a test miss never moves the clock");
            // Self-send makes the message matchable; now test completes.
            rank.send_slice(0, 7, &[5.0f64; 8]).unwrap();
            match req.test(rank).unwrap() {
                Ok((bytes, st)) => {
                    assert_eq!(st.source, 0);
                    assert_eq!(bytes.len(), 64);
                }
                Err(_) => panic!("queued message must complete a test"),
            }
        });
}

#[test]
fn waitall_completes_in_posted_order() {
    UniverseBuilder::new()
        .add_nodes(3, &deep_er_cluster_node())
        .run(|rank| {
            match rank.rank() {
                1 => rank.send_slice(0, 7, &[1.0f64]).unwrap(),
                2 => rank.send_slice(0, 7, &[2.0f64]).unwrap(),
                _ => {
                    // Post in the order 2 then 1: waitall must yield the
                    // payloads in that posted order, not arrival order.
                    let w = rank.world();
                    let reqs = vec![
                        rank.irecv_bytes_comm(&w, Some(2), Some(7)).unwrap(),
                        rank.irecv_bytes_comm(&w, Some(1), Some(7)).unwrap(),
                    ];
                    let got = rank.waitall(reqs).unwrap();
                    assert_eq!(got[0].1.source, 2);
                    assert_eq!(got[1].1.source, 1);
                }
            }
        });
}

#[test]
fn waitall_surfaces_the_first_deferred_fault() {
    let plan = FaultPlan::from_node_faults([(SimTime::ZERO, NodeId(2))]);
    let u = faulted_universe(3, plan);
    u.launch(&[NodeId(0), NodeId(1), NodeId(2)], |rank| {
        match rank.rank() {
            1 => {
                let mut inbox = vec![0.0f64; 8];
                rank.recv_into(Some(0), Some(9), &mut inbox).unwrap();
            }
            2 => {} // dead on arrival
            _ => {
                // A healthy send and a doomed one, posted healthy-first:
                // waitall drains in posted order and errors on the second.
                let reqs = vec![
                    rank.isend_slice(1, 9, &[0.0f64; 8]).unwrap(),
                    rank.isend_slice(2, 9, &[0.0f64; 8]).unwrap(),
                ];
                let err = rank.waitall(reqs).unwrap_err();
                assert!(matches!(err, MpiError::NodeFailed { node, .. } if node == NodeId(2)));
            }
        }
    });
}

#[test]
fn inam_put_post_is_free_and_wait_charges_rdma_time() {
    // One NAM device on the fabric: the put's storage effect is immediate
    // (nothing active on the far side), the initiator pays the full RDMA
    // time only at wait — and compute posted in between hides it.
    let mut t = Topology::new();
    t.add_nodes(2, &deep_er_cluster_node());
    let nam = simnet::nam::NamDevice::deep_er();
    let fabric = Fabric::with_nams(t, simnet::LogGpModel::default(), vec![nam.clone()]);
    let expect = fabric.nam_rdma_time(NodeId(0), 0, 4096).unwrap();
    let region = nam.alloc(4096).unwrap();
    let nam_probe = nam.clone();
    let u = Universe::new(fabric);
    u.launch(&[NodeId(0)], move |rank| {
        let data = vec![0xABu8; 4096];
        let t0 = rank.now();
        let req = rank.inam_put_sized(0, region, 0, &data, None).unwrap();
        assert_eq!(rank.now(), t0, "posting a NAM put must not move the clock");
        assert_eq!(
            nam_probe.get(region, 0, 4096).unwrap(),
            data,
            "storage effect is immediate at post time"
        );
        req.wait(rank).unwrap();
        assert_eq!(
            rank.now(),
            t0 + expect,
            "wait charges exactly the modelled NAM RDMA time"
        );
        // A second put fully hidden behind compute costs nothing at wait.
        let req = rank.inam_put_sized(0, region, 0, &data, None).unwrap();
        rank.advance(expect * 2.0);
        let t1 = rank.now();
        req.wait(rank).unwrap();
        assert_eq!(rank.now(), t1, "fully-hidden NAM put adds zero wait");
    });
}

#[test]
fn inam_put_sized_charges_the_wire_size_not_the_blob() {
    // A modelled wire size: a delta frame stands in for the blob it
    // reconstructs — the region holds the full bytes, the clock pays for
    // the frame.
    let mut t = Topology::new();
    t.add_nodes(1, &deep_er_cluster_node());
    let nam = simnet::nam::NamDevice::deep_er();
    let fabric = Fabric::with_nams(t, simnet::LogGpModel::default(), vec![nam.clone()]);
    let full = fabric.nam_rdma_time(NodeId(0), 0, 1 << 20).unwrap();
    let frame = fabric.nam_rdma_time(NodeId(0), 0, 2048).unwrap();
    let region = nam.alloc(1 << 20).unwrap();
    let u = Universe::new(fabric);
    u.launch(&[NodeId(0)], move |rank| {
        let data = vec![7u8; 1 << 20];
        let t0 = rank.now();
        let req = rank
            .inam_put_sized(0, region, 0, &data, Some(2048))
            .unwrap();
        req.wait(rank).unwrap();
        assert_eq!(rank.now(), t0 + frame);
        assert!(frame < full);
    });
}

#[test]
fn inam_put_rejects_unknown_device_and_bad_region() {
    let mut t = Topology::new();
    t.add_nodes(1, &deep_er_cluster_node());
    let nam = simnet::nam::NamDevice::deep_er();
    let fabric = Fabric::with_nams(t, simnet::LogGpModel::default(), vec![nam.clone()]);
    let region = nam.alloc(16).unwrap();
    let u = Universe::new(fabric);
    u.launch(&[NodeId(0)], move |rank| {
        assert!(matches!(
            rank.inam_put_sized(7, region, 0, &[0u8; 4], None),
            Err(MpiError::Nam(_))
        ));
        assert!(matches!(
            rank.inam_put_sized(0, region, 12, &[0u8; 8], None),
            Err(MpiError::Nam(simnet::nam::NamError::OutOfBounds { .. }))
        ));
    });
}
