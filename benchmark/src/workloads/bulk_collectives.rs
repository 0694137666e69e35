//! `bulk_collectives`: the same `psmpi` layer as `ring_latency`, used for
//! bandwidth.
//!
//! 4 ranks (2 Cluster + 2 Booster nodes) move 1 MiB payloads through five
//! patterns, the same count of each per repetition: a typed blocking ring
//! shift, the same shift nonblocking, the shift over raw bytes, a
//! broadcast and an allreduce. Codec, buffer pool and copies dominate and
//! the mailbox barely matters, so a change to the posting path that helps
//! small messages and costs large ones (or the reverse) shows here. An
//! operation is one MiB of payload delivered to a receiver.

use crate::harness::{Ctx, Rep, TracedPass};
use crate::metrics::Metrics;
use crate::{probe, trace};
use bytes::Bytes;
use psmpi::datatype::{pod_to_bytes, pod_to_bytes_pooled, read_pod_into_exact};
use psmpi::{BufferPool, ReduceOp, Tag, Universe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

const TAG_BULK: Tag = 7002;
const RANKS: usize = 4;
/// `f64` elements per payload: 1 MiB.
const ELEMS: usize = 1 << 17;
const MIB_PER_PAYLOAD: u64 = 1;
/// MiB delivered by one iteration of each pattern: every rank of a shift
/// or an allreduce ends up with one payload, a broadcast's root has it
/// already.
const MIB_PER_PATTERN: [u64; 5] = [4, 4, 4, 3, 4];
/// The five patterns' metric names, in run order.
const PATTERN_MS: [&str; 5] = [
    "psmpi.p2p_typed_ms",
    "psmpi.p2p_typed_nb_ms",
    "psmpi.p2p_bytes_ms",
    "psmpi.bcast_ms",
    "psmpi.allreduce_ms",
];

/// Iterations of each pattern per repetition.
fn iters(ctx: &Ctx) -> usize {
    if ctx.quick {
        1
    } else {
        96
    }
}

/// Order-independent checksum of a payload's bit patterns.
fn checksum(data: &[f64]) -> u64 {
    data.iter().fold(0u64, |s, v| s.wrapping_add(v.to_bits()))
}

/// [`checksum`] of a payload in its wire form, 8 bytes at a time.
fn checksum_bytes(data: &[u8]) -> u64 {
    data.chunks_exact(8).fold(0u64, |s, c| {
        s.wrapping_add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
    })
}

/// What every rank needs to send and to check what it receives.
struct Inputs {
    /// One payload per rank, drawn from the seed.
    payloads: Vec<Vec<f64>>,
    sums: Vec<u64>,
    /// Checksums of the payloads' wire forms.
    wire_sums: Vec<u64>,
    /// Element-wise sum of all payloads.
    reduced: Vec<f64>,
}

fn make_inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB01C_C011);
    let payloads: Vec<Vec<f64>> = (0..RANKS)
        .map(|_| (0..ELEMS).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let reduced = (0..ELEMS)
        .map(|i| payloads.iter().map(|p| p[i]).sum())
        .collect();
    Inputs {
        sums: payloads.iter().map(|p| checksum(p)).collect(),
        wire_sums: payloads
            .iter()
            .map(|p| checksum_bytes(&pod_to_bytes(p)))
            .collect(),
        reduced,
        payloads,
    }
}

/// Whether an allreduce result is the element-wise sum, to within the
/// rounding a different summation order may cause.
fn reduced_ok(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-12 * w.abs())
}

pub fn rep(ctx: &Ctx) -> Rep {
    let iters = iters(ctx);
    let inject = ctx.inject_corruption;

    let t0 = Instant::now();
    let inputs = Arc::new(make_inputs(ctx.seed));
    let (fabric, placements) = super::build_fabric(2, 2);
    let universe = {
        let _span = trace::span("psmpi.universe_new");
        Universe::new(fabric)
    };

    let barrier = Arc::new(Barrier::new(RANKS));
    // One host instant per pattern boundary, pushed by whichever rank the
    // barrier names leader once all four have arrived.
    let marks = Arc::new(Mutex::new(Vec::<Instant>::new()));
    let failed = Arc::new(AtomicU64::new(0));

    let launch = trace::span("psmpi.launch");
    let launch_id = launch.id();
    let (marks_in, failed_in) = (marks.clone(), failed.clone());
    let report = universe.launch(&placements, move |rank| {
        let _rank_span = trace::span_under("bench.rank", launch_id);
        let w = rank.world();
        let me = rank.rank();
        let next = (me + 1) % RANKS;
        let prev = (me + RANKS - 1) % RANKS;
        let payload = &inputs.payloads[me];
        let wire = pod_to_bytes(payload);
        let mut inbox = vec![0.0f64; ELEMS];
        let mut inbox_bytes = vec![0u8; ELEMS * 8];
        let mut bad = 0u64;
        let mark = || {
            if barrier.wait().is_leader() {
                marks_in
                    .lock()
                    .expect("no rank panics holding the marks")
                    .push(Instant::now());
            }
        };

        mark();
        for i in 0..iters {
            // Every iteration delivers the same payload, so spoil the
            // inbox first: a receive that wrote nothing must not pass.
            inbox[0] = -1.0;
            {
                let _span = trace::span("psmpi.send_slice");
                if inject && me == 0 && i == 0 {
                    let mut corrupt = payload.clone();
                    corrupt[ELEMS / 2] += 1.0;
                    rank.send_slice(next, TAG_BULK, &corrupt)
                } else {
                    rank.send_slice(next, TAG_BULK, payload)
                }
                .expect("typed send on a fault-free fabric");
            }
            {
                let _span = trace::span("psmpi.recv_into");
                rank.recv_into(Some(prev), Some(TAG_BULK), &mut inbox)
                    .expect("typed receive on a fault-free fabric");
            }
            bad += u64::from(checksum(&inbox) != inputs.sums[prev]);
        }
        mark();
        for _ in 0..iters {
            inbox[0] = -1.0;
            {
                let _span = trace::span("psmpi.isend_irecv_waitall");
                let recv = rank
                    .irecv_into(Some(prev), Some(TAG_BULK), &mut inbox)
                    .expect("post a typed receive");
                let send = rank
                    .isend_slice(next, TAG_BULK, payload)
                    .expect("post a typed send");
                rank.waitall(vec![send]).expect("complete the send");
                rank.waitall(vec![recv]).expect("complete the receive");
            }
            bad += u64::from(checksum(&inbox) != inputs.sums[prev]);
        }
        mark();
        for _ in 0..iters {
            inbox_bytes[0] ^= 0xFF;
            {
                let _span = trace::span("psmpi.send_bytes_comm");
                rank.send_bytes_comm(&w, next, TAG_BULK, wire.clone())
                    .expect("bytes send on a fault-free fabric");
            }
            {
                let _span = trace::span("psmpi.recv_bytes_comm");
                let (got, _) = rank
                    .recv_bytes_comm(&w, Some(prev), Some(TAG_BULK))
                    .expect("bytes receive on a fault-free fabric");
                // MPI_Recv semantics: the payload lands in the caller's
                // own buffer.
                inbox_bytes.copy_from_slice(&got);
            }
            bad += u64::from(checksum_bytes(&inbox_bytes) != inputs.wire_sums[prev]);
        }
        mark();
        for _ in 0..iters {
            let got = {
                let _span = trace::span("psmpi.bcast");
                rank.bcast(&w, 0, (me == 0).then(|| payload.clone()))
                    .expect("broadcast on a fault-free fabric")
            };
            bad += u64::from(me != 0 && checksum(&got) != inputs.sums[0]);
        }
        mark();
        for _ in 0..iters {
            let got = {
                let _span = trace::span("psmpi.allreduce");
                rank.allreduce(&w, payload, ReduceOp::Sum)
                    .expect("allreduce on a fault-free fabric")
            };
            bad += u64::from(!reduced_ok(&got, &inputs.reduced));
        }
        mark();
        failed_in.fetch_add(bad * MIB_PER_PAYLOAD, Ordering::Relaxed);
    });
    drop(launch);

    let marks = marks.lock().expect("the job has been joined");
    assert_eq!(marks.len(), PATTERN_MS.len() + 1);
    let pool = universe.router().buffer_pool().stats();
    let mut values = vec![
        ("virtual.bulk_makespan_s", report.makespan().as_secs()),
        ("psmpi.msgs_sent", report.total_msgs_sent() as f64),
        ("psmpi.bytes_sent", report.total_bytes_sent() as f64),
        ("psmpi.pool_hit_rate", pool.hit_rate()),
        ("psmpi.pool_misses", pool.misses as f64),
        ("psmpi.pool_reclaim_failures", pool.reclaim_failures as f64),
    ];
    let pattern_ms: Vec<f64> = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3 / iters as f64)
        .collect();
    values.extend(PATTERN_MS.iter().copied().zip(pattern_ms.iter().copied()));
    values.push(("psmpi.typed_bytes_ratio", pattern_ms[0] / pattern_ms[2]));
    values.push((
        "psmpi.blocking_nonblocking_ratio",
        pattern_ms[0] / pattern_ms[1],
    ));
    Rep {
        setup_s: (marks[0] - t0).as_secs_f64(),
        timed_s: (marks[PATTERN_MS.len()] - marks[0]).as_secs_f64(),
        ops: iters as u64 * MIB_PER_PATTERN.iter().sum::<u64>(),
        failed: failed.load(Ordering::Relaxed),
        values,
        fingerprint: Vec::new(),
    }
}

pub fn layers(_ctx: &Ctx, _pass: &TracedPass, m: &mut Metrics) {
    let pool = BufferPool::new();
    let payload: Vec<f64> = (0..ELEMS).map(|i| i as f64).collect();
    let encode_ns = probe::ns_per_call(64, || {
        pool.recycle(black_box(pod_to_bytes_pooled(&pool, black_box(&payload))));
    });
    m.set(
        "psmpi.codec_encode_mb_per_s",
        probe::mb_per_s(ELEMS * 8, encode_ns),
    );
    let wire: Bytes = pod_to_bytes(&payload);
    let mut out = vec![0.0f64; ELEMS];
    let decode_ns = probe::ns_per_call(64, || {
        read_pod_into_exact(black_box(&wire), black_box(&mut out)).expect("sizes agree");
    });
    m.set(
        "psmpi.codec_decode_mb_per_s",
        probe::mb_per_s(ELEMS * 8, decode_ns),
    );
}
