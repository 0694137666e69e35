//! Stress tests for the mailbox arrival index under high fan-in.
//!
//! The per-`(comm, src, tag)` index deques are what make fully-specified
//! receives O(1) under incast; these tests drive them with the 1000-sender
//! fan-in the scale benchmark simulates and check the two guarantees the
//! router build on top of them relies on:
//!
//! 1. **Non-overtaking** — one sender's envelopes are matched in send
//!    order, both through the exact-match index and through wildcard
//!    receives that bypass it.
//! 2. **Probe earliest-arrival** — `probe_blocking_either` reports the tag
//!    of the *earliest* queued envelope from the awaited sender and never
//!    dequeues anything, even when it blocks across a concurrent push.
//! 3. **No lost wake-up** — a deposit or an interrupt that races a receiver
//!    on its way to sleep always wakes it, whether the receiver spins first
//!    (awake rank threads ≤ host cores) or not (idle ranks held over it).

#![expect(
    clippy::disallowed_methods,
    reason = "the races under test need real threads, and the spin gate needs the host's core count to be held shut"
)]

use bytes::Bytes;
use hwmodel::SimTime;
use psmpi::envelope::EndpointId;
use psmpi::router::Mailbox;
use psmpi::{CommId, Envelope, Tag};
use std::sync::Arc;
use std::thread;

const COMM: CommId = CommId(1);
const TAG: Tag = 5;

/// A blocking receive on `mbox` that no sender's death can abort.
fn recv(mbox: &Mailbox, src: Option<usize>, tag: Option<Tag>) -> Envelope {
    mbox.recv_match_abortable(COMM, src, tag, || None)
        .expect("no revoke marker is ever queued and no node dies")
}

/// Build an envelope from `sender` whose payload encodes `(sender, i)` so
/// the receiver can check ordering independently of the `seq` field.
fn env(sender: usize, tag: Tag, i: u64) -> Envelope {
    let mut payload = Vec::with_capacity(16);
    payload.extend_from_slice(&(sender as u64).to_le_bytes());
    payload.extend_from_slice(&i.to_le_bytes());
    Envelope {
        comm: COMM,
        src_rank: sender,
        tag,
        payload: Bytes::from(payload),
        send_stamp: SimTime::from_secs(i as f64 * 1e-9),
        src_endpoint: EndpointId(sender as u64),
        seq: i,
        virtual_size: None,
    }
}

fn decode(payload: &Bytes) -> (usize, u64) {
    let s = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let i = u64::from_le_bytes(payload[8..16].try_into().unwrap());
    (s as usize, i)
}

/// 1000 sender threads fan into one mailbox while a receiver concurrently
/// drains it with a fully-wildcard receive; every sender's envelopes must
/// come out in that sender's send order.
#[test]
fn thousand_senders_preserve_per_sender_order_under_wildcard_drain() {
    const SENDERS: usize = 1000;
    const PER_SENDER: u64 = 8;

    let mbox = Arc::new(Mailbox::default());

    // Receiver races the senders: it starts before any envelope exists and
    // blocks on the condvar whenever it outruns the producers.
    let receiver = {
        let mbox = mbox.clone();
        thread::spawn(move || {
            let mut next = vec![0u64; SENDERS];
            for _ in 0..SENDERS as u64 * PER_SENDER {
                let e = recv(&mbox, None, None);
                let (s, i) = decode(&e.payload);
                assert_eq!(e.src_rank, s, "payload sender matches envelope");
                assert_eq!(
                    i, next[s],
                    "sender {s} overtaken: got message {i}, expected {}",
                    next[s]
                );
                next[s] += 1;
            }
            next
        })
    };

    let senders: Vec<_> = (0..SENDERS)
        .map(|s| {
            let mbox = mbox.clone();
            thread::spawn(move || {
                for i in 0..PER_SENDER {
                    mbox.push(env(s, TAG, i));
                }
            })
        })
        .collect();
    for h in senders {
        h.join().unwrap();
    }

    let next = receiver.join().unwrap();
    assert!(next.iter().all(|&n| n == PER_SENDER));
    assert!(mbox.is_empty(), "wildcard drain consumed everything");
}

/// Same fan-in, drained through the exact-match index: a fully-specified
/// `(comm, src, tag)` receive per sender must also see send order, and
/// interleaving the drain across senders must not disturb any class.
#[test]
fn thousand_senders_preserve_order_through_exact_match_index() {
    const SENDERS: usize = 1000;
    const PER_SENDER: u64 = 4;

    let mbox = Arc::new(Mailbox::default());
    let senders: Vec<_> = (0..SENDERS)
        .map(|s| {
            let mbox = mbox.clone();
            thread::spawn(move || {
                for i in 0..PER_SENDER {
                    mbox.push(env(s, TAG, i));
                }
            })
        })
        .collect();
    for h in senders {
        h.join().unwrap();
    }
    assert_eq!(mbox.len(), SENDERS * PER_SENDER as usize);

    // Round-robin across senders so each class's deque is popped with
    // arbitrary other-class traffic interleaved between its pops.
    for i in 0..PER_SENDER {
        for s in 0..SENDERS {
            let e = recv(&mbox, Some(s), Some(TAG));
            let (ps, pi) = decode(&e.payload);
            assert_eq!((ps, pi), (s, i), "class ({s}, {TAG}) popped out of order");
        }
    }
    assert!(mbox.is_empty());
}

/// The request engine on top of the same fan-in: the receiver posts one
/// `irecv` per sender up front, drains the whole batch with `waitall`,
/// and 1000 concurrent senders race the posts. Completion order must be
/// posted order (not host arrival order), every payload must land with
/// its own request, and the receiver's final virtual state must be
/// identical run over run — `waitall` is a pure function of the virtual
/// state, so host scheduling cannot leak into it.
#[test]
fn waitall_over_thousand_concurrent_senders_is_deterministic() {
    use hwmodel::presets::deep_er_cluster_node;
    use psmpi::UniverseBuilder;

    const SENDERS: usize = 1000;

    let run = || {
        let outcome = Arc::new(lockrank::Mutex::<_, 900>::new((SimTime::ZERO, 0u64)));
        let o2 = outcome.clone();
        UniverseBuilder::new()
            .add_nodes(SENDERS as u32 + 1, &deep_er_cluster_node())
            .run(move |rank| {
                if rank.rank() > 0 {
                    let me = rank.rank() as u64;
                    rank.send_slice(0, TAG, &[me as f64, me as f64 * 0.5])
                        .unwrap();
                    return;
                }
                // Post fully-specified receives in reverse sender order so
                // posted order visibly differs from rank order, then drain.
                let w = rank.world();
                let reqs: Vec<_> = (1..=SENDERS)
                    .rev()
                    .map(|s| rank.irecv_bytes_comm(&w, Some(s), Some(TAG)).unwrap())
                    .collect();
                let got = rank.waitall(reqs).unwrap();
                let mut sum = 0u64;
                for (i, (payload, st)) in got.iter().enumerate() {
                    let expect = SENDERS - i; // posted order, not arrival
                    assert_eq!(st.source, expect, "completion follows posted order");
                    let v = f64::from_le_bytes(payload[0..8].try_into().unwrap());
                    assert_eq!(v, expect as f64, "payload stayed with its request");
                    sum = sum.wrapping_mul(31).wrapping_add(v.to_bits());
                }
                *o2.lock() = (rank.now(), sum);
            });
        let o = *outcome.lock();
        o
    };

    let first = run();
    assert!(first.0 > SimTime::ZERO);
    for _ in 0..3 {
        assert_eq!(run(), first, "virtual outcome independent of host schedule");
    }
}

const TAG_A: Tag = 10;
const TAG_B: Tag = 20;

/// `probe_blocking_either` with both tags already queued returns whichever
/// arrived first, in either queueing order, and dequeues nothing.
#[test]
fn probe_blocking_either_reports_earliest_arrival_without_dequeue() {
    let mbox = Mailbox::default();
    mbox.push(env(0, TAG_B, 0));
    mbox.push(env(0, TAG_A, 1));
    let either = |m: &Mailbox| m.probe_blocking_either(COMM, 0, TAG_A, TAG_B, || None);
    assert_eq!(either(&mbox).unwrap(), TAG_B);
    assert_eq!(mbox.len(), 2, "probe must not consume");

    // Reversed arrival order, same argument order.
    let mbox = Mailbox::default();
    mbox.push(env(0, TAG_A, 0));
    mbox.push(env(0, TAG_B, 1));
    assert_eq!(either(&mbox).unwrap(), TAG_A);
    assert_eq!(mbox.len(), 2);
}

/// Race `probe_blocking_either` against a concurrent sender: the prober
/// blocks on an empty mailbox, the sender then queues TAG_B before TAG_A.
/// Whenever the prober wakes it must answer TAG_B (the earlier arrival) —
/// seeing TAG_A alone is impossible because B is pushed first — and the
/// mailbox must still hold both envelopes afterwards.
#[test]
fn probe_blocking_either_race_with_concurrent_sender() {
    for _ in 0..50 {
        let mbox = Arc::new(Mailbox::default());
        let prober = {
            let mbox = mbox.clone();
            thread::spawn(move || {
                mbox.probe_blocking_either(COMM, 7, TAG_A, TAG_B, || None)
                    .unwrap()
            })
        };
        let sender = {
            let mbox = mbox.clone();
            thread::spawn(move || {
                mbox.push(env(7, TAG_B, 0));
                mbox.push(env(7, TAG_A, 1));
            })
        };
        sender.join().unwrap();
        assert_eq!(prober.join().unwrap(), TAG_B, "earliest arrival wins");
        assert_eq!(mbox.len(), 2, "probe left both envelopes queued");
        // The probe's answer must still be receivable in arrival order.
        let e = recv(&mbox, Some(7), Some(TAG_B));
        assert_eq!(decode(&e.payload), (7, 0));
    }
}

/// A universe over `ranks` cluster nodes, one rank each.
fn universe(ranks: usize) -> (psmpi::Universe, Vec<hwmodel::NodeId>) {
    let mut t = simnet::Topology::new();
    let nodes = t.add_nodes(ranks as u32, &hwmodel::presets::deep_er_cluster_node());
    (psmpi::Universe::new(simnet::Fabric::new(t)), nodes)
}

/// Idle ranks that hold the awake count over the host's cores (the gate
/// closed: nobody spins), and none (the gate open on a host with two cores
/// or more).
fn gate_states() -> [usize; 2] {
    [0, thread::available_parallelism().map_or(1, |n| n.get())]
}

/// Ranks 2.. of a stress world: alive and outside any mailbox — awake, as
/// the gate counts — until the racing pair is through.
fn idle_until(done: &std::sync::atomic::AtomicBool) {
    while !done.load(std::sync::atomic::Ordering::Acquire) {
        thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// 10⁵ receives that each race the peer's deposit against the receiver's
/// way to sleep: two ranks bounce one message, so every receive starts
/// about when its message is pushed. A lost wake-up hangs the test.
#[test]
fn push_racing_park_never_loses_a_wakeup() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const ROUNDS: u64 = 50_000;
    for idle in gate_states() {
        let (u, nodes) = universe(2 + idle);
        let done = Arc::new(AtomicBool::new(false));
        let done_in = done.clone();
        u.launch(&nodes, move |rank| {
            let w = rank.world();
            let me = rank.rank();
            if me > 1 {
                return idle_until(&done_in);
            }
            for i in 0..ROUNDS {
                if me == 0 {
                    rank.send_comm(&w, 1, TAG, &i).unwrap();
                }
                let (got, _) = rank.recv_comm::<u64>(&w, Some(1 - me), Some(TAG)).unwrap();
                assert_eq!(got, i);
                if me == 1 {
                    rank.send_comm(&w, 0, TAG, &i).unwrap();
                }
            }
            done_in.store(true, Ordering::Release);
        });
        assert_eq!(u.router().awake_ranks(), 0, "{idle} idle ranks");
    }
}

/// 10⁵ receives from a sender that sends nothing and dies instead, each
/// racing the death's interrupt against the receiver's way to sleep. The
/// three counters order one round: receiver about to wait → node declared
/// down → receive aborted → node repaired.
#[test]
fn interrupt_racing_park_never_loses_a_wakeup() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const ROUNDS: u64 = 100_000;
    let wait_for = |c: &AtomicU64, v: u64| {
        while c.load(Ordering::Acquire) < v {
            std::hint::spin_loop();
            thread::yield_now();
        }
    };
    for idle in gate_states() {
        let (u, nodes) = universe(2 + idle);
        let done = Arc::new(AtomicBool::new(false));
        let marks = Arc::new([AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)]);
        let (done_in, marks_in) = (done.clone(), marks.clone());
        let router = u.router().clone();
        u.launch(&nodes, move |rank| {
            let w = rank.world();
            let [waiting, aborted, repaired] = &*marks_in;
            match rank.rank() {
                0 => {
                    for i in 1..=ROUNDS {
                        wait_for(waiting, i);
                        router.declare_down(rank.node_id(), rank.now());
                        wait_for(aborted, i);
                        router.repair(rank.node_id(), rank.now());
                        repaired.store(i, Ordering::Release);
                    }
                    done_in.store(true, Ordering::Release);
                }
                1 => {
                    for i in 1..=ROUNDS {
                        waiting.store(i, Ordering::Release);
                        let err = rank.recv_comm::<u64>(&w, Some(0), Some(TAG)).unwrap_err();
                        assert!(matches!(err, psmpi::MpiError::NodeFailed { .. }), "{err}");
                        aborted.store(i, Ordering::Release);
                        wait_for(repaired, i);
                    }
                }
                _ => idle_until(&done_in),
            }
        });
        assert_eq!(u.router().awake_ranks(), 0, "{idle} idle ranks");
    }
}
