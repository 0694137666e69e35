//! MPI ping-pong microbenchmark — the measurement behind Fig. 3 of the
//! paper (end-to-end bandwidth and latency between CN-CN, BN-BN and CN-BN
//! node pairs as a function of message size).
//!
//! The benchmark really runs on the `psmpi` runtime: two ranks exchange
//! payloads and the reported one-way latency is half the virtual-time round
//! trip, exactly how the original was measured with ParaStation MPI.

use crate::universe::UniverseBuilder;
use hwmodel::{NodeSpec, SimTime};
use lockrank::Mutex;
use std::sync::Arc;

/// One measured point of the ping-pong sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PingPongPoint {
    /// Payload size in bytes.
    pub size: usize,
    /// One-way latency.
    pub latency: SimTime,
    /// Effective one-way bandwidth in MB/s (10^6 bytes per second).
    pub bandwidth_mbs: f64,
}

/// The standard message-size sweep of Fig. 3: 1 B … 16 MiB in powers of two.
pub fn fig3_sizes() -> Vec<usize> {
    (0..=24).map(|p| 1usize << p).collect()
}

/// Run a ping-pong between one node of spec `a` and one of spec `b` for the
/// given payload sizes, `reps` round trips per size.
pub fn measure(a: &NodeSpec, b: &NodeSpec, sizes: &[usize], reps: usize) -> Vec<PingPongPoint> {
    assert!(reps >= 1);
    let sizes = sizes.to_vec();
    let results: Arc<Mutex<Vec<PingPongPoint>, 470>> = Arc::new(Mutex::new(Vec::new()));
    let results_in = results.clone();

    UniverseBuilder::new()
        .add_nodes(1, a)
        .add_nodes(1, b)
        .run(move |rank| {
            const TAG: i32 = 0;
            let w = rank.world();
            let peer = 1 - rank.rank();
            for &size in &sizes {
                let payload = vec![0u8; size];
                if rank.rank() == 0 {
                    let t0 = rank.now();
                    for _ in 0..reps {
                        rank.send_comm(&w, peer, TAG, &payload).unwrap();
                        let _ = rank
                            .recv_comm::<Vec<u8>>(&w, Some(peer), Some(TAG))
                            .unwrap();
                    }
                    let rtt = (rank.now() - t0) / reps as f64;
                    let latency = rtt / 2.0;
                    let mut results = results_in.lock();
                    results.push(PingPongPoint {
                        size,
                        latency,
                        bandwidth_mbs: size as f64 / latency.as_secs() / 1e6,
                    });
                } else {
                    for _ in 0..reps {
                        let (echo, _) = rank
                            .recv_comm::<Vec<u8>>(&w, Some(peer), Some(TAG))
                            .unwrap();
                        rank.send_comm(&w, peer, TAG, &echo).unwrap();
                    }
                }
            }
        });

    Arc::try_unwrap(results)
        .expect("benchmark threads finished")
        .into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};

    #[test]
    fn small_message_latency_matches_table1() {
        let cn = deep_er_cluster_node();
        let bn = deep_er_booster_node();
        let cc = measure(&cn, &cn, &[1], 3);
        let bb = measure(&bn, &bn, &[1], 3);
        let cb = measure(&cn, &bn, &[1], 3);
        assert!(
            (cc[0].latency.as_micros() - 1.0).abs() < 0.05,
            "CN-CN {:?}",
            cc[0]
        );
        assert!(
            (bb[0].latency.as_micros() - 1.8).abs() < 0.05,
            "BN-BN {:?}",
            bb[0]
        );
        let mid = cb[0].latency.as_micros();
        assert!(mid > 1.0 && mid < 1.8, "CN-BN {mid} µs");
    }

    #[test]
    fn bandwidth_saturates_for_large_messages() {
        let cn = deep_er_cluster_node();
        let pts = measure(&cn, &cn, &[16 << 20], 1);
        // ~9.8 GB/s fabric limit → ≥ 9000 MB/s one-way.
        assert!(pts[0].bandwidth_mbs > 9000.0, "{:?}", pts[0]);
    }

    #[test]
    fn reps_do_not_change_virtual_result() {
        let cn = deep_er_cluster_node();
        let one = measure(&cn, &cn, &[1024], 1);
        let many = measure(&cn, &cn, &[1024], 10);
        assert!((one[0].latency.as_secs() - many[0].latency.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn sweep_covers_fig3_range() {
        let sizes = fig3_sizes();
        assert_eq!(*sizes.first().unwrap(), 1);
        assert_eq!(*sizes.last().unwrap(), 16 << 20);
    }
}
