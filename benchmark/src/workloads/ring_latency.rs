//! `ring_latency`: the small-message path at 1000 simulated nodes.
//!
//! 1000 ranks (500 Cluster + 500 Booster nodes, one rank thread each)
//! pass 8 KiB messages round a ring through `send_slice`/`recv_into`.
//! Router shard, NIC lock, mailbox and wake-up do nearly all the work and
//! payload copying almost none. Each repetition is a fresh launch; the
//! rounds are timed between two host barriers, so spawning the rank
//! threads counts as set-up and not as message cost. An operation is one
//! delivered message.

use crate::harness::{Ctx, Rep, TracedPass};
use crate::metrics::Metrics;
use crate::{probe, stats, trace};
use hwmodel::NodeId;
use psmpi::{BufferPool, Tag, Universe};
use simnet::Fabric;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Instant;

const TAG_RING: Tag = 7001;
/// One rank in this many records spans in the traced pass: 16 of 1000
/// ranks keep the trace a few MB and the span cost off most threads.
const SAMPLE_EVERY: usize = 64;

struct Shape {
    ranks: usize,
    rounds: usize,
    /// `f64` elements per message.
    elems: usize,
}

fn shape(ctx: &Ctx) -> Shape {
    if ctx.quick {
        Shape {
            ranks: 64,
            rounds: 8,
            elems: 1024,
        }
    } else {
        Shape {
            ranks: 1000,
            rounds: 500,
            elems: 1024,
        }
    }
}

/// Element `i` of the payload rank `me` sends: distinct per rank, element
/// and seed, and exact in an `f64`.
fn element(seed: u64, me: usize, elems: usize, i: usize) -> f64 {
    (seed % 1000) as f64 + (me * elems + i) as f64
}

/// Half the ranks on Cluster nodes, half on Booster nodes, so deliveries
/// cross same-kind and cross-kind fabric paths.
fn build_fabric(ranks: usize) -> (Fabric, Vec<NodeId>) {
    super::build_fabric(ranks.div_ceil(2) as u32, (ranks / 2) as u32)
}

pub fn rep(ctx: &Ctx) -> Rep {
    let Shape {
        ranks,
        rounds,
        elems,
    } = shape(ctx);
    let seed = ctx.seed;
    let inject = ctx.inject_corruption;

    let t0 = Instant::now();
    let ((fabric, placements), build_s) = probe::seconds(|| build_fabric(ranks));
    let universe = {
        let _span = trace::span("psmpi.universe_new");
        Universe::new(fabric)
    };

    let barrier = Arc::new(Barrier::new(ranks));
    // Host nanoseconds since `t0`: when the first rank left the start
    // barrier, and when the last rank finished its rounds.
    let started = Arc::new(OnceLock::<u64>::new());
    let finished = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));

    let launch = trace::span("psmpi.launch");
    let launch_id = launch.id();
    let (started_in, finished_in) = (started.clone(), finished.clone());
    let failed_in = failed.clone();
    let report = universe.launch(&placements, move |rank| {
        let n = rank.size();
        let me = rank.rank();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let payload: Vec<f64> = (0..elems).map(|i| element(seed, me, elems, i)).collect();
        let mut inbox = vec![0.0f64; elems];
        let sampled = me % SAMPLE_EVERY == 0;
        let _rank_span = sampled.then(|| trace::span_under("bench.rank", launch_id));

        barrier.wait();
        started_in.get_or_init(|| t0.elapsed().as_nanos() as u64);
        let mut bad = 0u64;
        for round in 0..rounds {
            let _round = sampled.then(|| trace::span("bench.round"));
            // Every round delivers the same payload, so spoil the inbox
            // first: a receive that wrote nothing must not pass.
            inbox[0] = -1.0;
            {
                let _send = sampled.then(|| trace::span("psmpi.send_slice"));
                // A buffered send completes locally, so send-then-receive
                // cannot deadlock round the ring.
                if inject && me == 0 && round == 0 {
                    let mut corrupt = payload.clone();
                    corrupt[elems / 2] = -1.0;
                    rank.send_slice(next, TAG_RING, &corrupt)
                } else {
                    rank.send_slice(next, TAG_RING, &payload)
                }
                .expect("ring send on a fault-free fabric");
            }
            {
                let _recv = sampled.then(|| trace::span("psmpi.recv_into"));
                rank.recv_into(Some(prev), Some(TAG_RING), &mut inbox)
                    .expect("ring receive on a fault-free fabric");
            }
            let intact = [0, elems / 2, elems - 1]
                .iter()
                .all(|&i| inbox[i] == element(seed, prev, elems, i));
            bad += u64::from(!intact);
        }
        finished_in.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        failed_in.fetch_add(bad, Ordering::Relaxed);
    });
    drop(launch);

    let ops = (ranks * rounds) as u64;
    let start_ns = *started.get().expect("every rank passed the start barrier");
    // `launch` joined every rank thread, so these loads see every update.
    let end_ns = finished.load(Ordering::Relaxed);
    let mut failed = failed.load(Ordering::Relaxed);
    // Every rank ran all its rounds or panicked; the job's own count of
    // messages must agree.
    if report.total_msgs_sent() != ops {
        failed = ops;
    }
    let pool = universe.router().buffer_pool().stats();
    Rep {
        setup_s: start_ns as f64 * 1e-9,
        timed_s: (end_ns - start_ns) as f64 * 1e-9,
        ops,
        failed,
        values: vec![
            ("virtual.ring_makespan_s", report.makespan().as_secs()),
            ("psmpi.msgs_sent", report.total_msgs_sent() as f64),
            ("psmpi.bytes_sent", report.total_bytes_sent() as f64),
            ("psmpi.pool_hit_rate", pool.hit_rate()),
            ("psmpi.pool_misses", pool.misses as f64),
            ("psmpi.pool_reclaim_failures", pool.reclaim_failures as f64),
            ("simnet.build_us_per_node", build_s * 1e6 / ranks as f64),
        ],
        fingerprint: Vec::new(),
    }
}

pub fn layers(ctx: &Ctx, pass: &TracedPass, m: &mut Metrics) {
    let Shape { ranks, elems, .. } = shape(ctx);

    // What the sampled ranks' spans say about one round. With 1000 rank
    // threads on a few cores a rank is off the CPU for most of the window:
    // the median round is one it ran straight through, the 99th percentile
    // one it sat out waiting for its neighbour to be scheduled.
    for (span_name, metric) in [
        ("psmpi.send_slice", "psmpi.send_slice_ns"),
        ("psmpi.recv_into", "psmpi.recv_into_ns"),
        ("bench.round", "psmpi.round_ns"),
    ] {
        let durations = stats::sorted(&trace::durations_ns(pass.spans, span_name));
        m.set(
            &format!("{metric}_p50"),
            stats::quantile_sorted(&durations, 0.5),
        );
        m.set(
            &format!("{metric}_p99"),
            stats::quantile_sorted(&durations, 0.99),
        );
    }
    // Each sampled rank runs its rounds back to back inside the timed
    // window, so its round spans should add up to the window. What is left
    // over is barrier skew: the rank left the start barrier late or
    // finished before the slowest rank did.
    let sampled_ranks = ranks.div_ceil(SAMPLE_EVERY) * pass.traced.len();
    let round_ns: f64 = trace::durations_ns(pass.spans, "bench.round").iter().sum();
    let window_ns: f64 =
        pass.traced.iter().map(|r| r.timed_s * 1e9).sum::<f64>() / pass.traced.len() as f64;
    m.set(
        "psmpi.round_residual_frac",
        1.0 - round_ns / sampled_ranks as f64 / window_ns,
    );

    let (fabric, placements) = build_fabric(ranks);
    let mut i = 0usize;
    m.set(
        "simnet.transfer_time_ns",
        probe::ns_per_call(100_000, || {
            i = (i + 1) % ranks;
            let t = fabric.p2p_time(placements[i], placements[(i + 1) % ranks], elems * 8);
            black_box(t).expect("both nodes are in the topology");
        }),
    );
    let launches: Vec<f64> = (0..5)
        .map(|_| {
            let (fabric, placements) = build_fabric(ranks);
            let universe = Universe::new(fabric);
            probe::seconds(|| universe.launch(&placements, |_rank| {})).1
        })
        .collect();
    m.set(
        "psmpi.launch_us_per_rank",
        stats::median(&launches) * 1e6 / ranks as f64,
    );
    let pool = BufferPool::new();
    pool.put(pool.get(elems * 8));
    m.set(
        "psmpi.pool_get_put_ns",
        probe::ns_per_call(100_000, || pool.put(black_box(pool.get(elems * 8)))),
    );
}
