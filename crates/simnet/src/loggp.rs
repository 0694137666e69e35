//! LogGP-style message cost model for the EXTOLL fabric.
//!
//! A point-to-point MPI message between nodes `s` and `d` costs:
//!
//! **Eager protocol** (size ≤ threshold) — the payload is copied through
//! bounce buffers on both hosts, with the copies pipelined against wire
//! serialization (NIC DMA overlaps the host copies), so the slowest stage
//! dominates:
//!
//! ```text
//! t = o_send(s) + hops·L + max(size/G, size/copy_bw(s), size/copy_bw(d)) + o_recv(d)
//! ```
//!
//! **Rendezvous protocol** (size > threshold) — a request-to-send /
//! clear-to-send handshake, then zero-copy RDMA of the payload:
//!
//! ```text
//! t = [o_send(s) + hops·L + o_recv(d)]        (RTS)
//!   + [o_send(d) + hops·L + o_recv(s)]        (CTS)
//!   + hops·L + size/G                         (RDMA payload)
//! ```
//!
//! `o_*` are per-side software overheads from the [`hwmodel::NodeSpec`]
//! (0.35 µs Haswell / 0.75 µs KNL), `L` the wire+switch latency per hop
//! (0.30 µs), `G` the sustained payload bandwidth (9.8 GB/s). These
//! constants reproduce Fig. 3 of the paper: 1.0 µs CN-CN and 1.8 µs BN-BN
//! small-message latency, eager-copy-limited mid-range bandwidth that is
//! lower between Booster nodes, and a common wire-bandwidth asymptote for
//! large messages ("for large messages communication performance between
//! all kinds of nodes is limited by fabric bandwidth").

use hwmodel::{calib, NodeSpec, SimTime};
use serde::{Deserialize, Serialize};

/// Which wire protocol a message of a given size uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Protocol {
    /// Copy through bounce buffers, single trip. Small messages.
    Eager,
    /// RTS/CTS handshake then zero-copy RDMA. Large messages.
    Rendezvous,
}

/// The fabric link/protocol parameters. Defaults model EXTOLL Tourmalet A3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogGpModel {
    /// Wire + switch latency per hop.
    pub wire_latency: SimTime,
    /// Sustained payload bandwidth per link, bytes/s.
    pub payload_bw: f64,
    /// Eager→rendezvous switch threshold, bytes.
    pub eager_threshold: usize,
    /// Loopback (same-node) copy latency.
    pub loopback_latency: SimTime,
}

impl Default for LogGpModel {
    fn default() -> Self {
        LogGpModel {
            wire_latency: calib::extoll_wire_latency(),
            payload_bw: calib::EXTOLL_PAYLOAD_BW,
            eager_threshold: calib::EXTOLL_EAGER_THRESHOLD,
            loopback_latency: SimTime::from_nanos(200.0),
        }
    }
}

impl LogGpModel {
    /// Which protocol a message of `size` bytes uses.
    pub fn protocol(&self, size: usize) -> Protocol {
        if size <= self.eager_threshold {
            Protocol::Eager
        } else {
            Protocol::Rendezvous
        }
    }

    /// End-to-end time for one message of `size` bytes from `src` to `dst`
    /// across `hops` switch hops. `hops == 0` means loopback (shared-memory
    /// transport inside one node).
    pub fn transfer_time(&self, src: &NodeSpec, dst: &NodeSpec, size: usize, hops: u32) -> SimTime {
        if hops == 0 {
            return self.loopback_time(src, size);
        }
        let wire = self.wire_latency * hops as f64;
        let serialization = SimTime::from_secs(size as f64 / self.payload_bw);
        match self.protocol(size) {
            Protocol::Eager => {
                let copy_src = SimTime::from_secs(size as f64 / (src.processor.copy_bw_gbs * 1e9));
                let copy_dst = SimTime::from_secs(size as f64 / (dst.processor.copy_bw_gbs * 1e9));
                let pipeline = serialization.max(copy_src).max(copy_dst);
                src.nic_send_overhead + wire + pipeline + dst.nic_recv_overhead
            }
            Protocol::Rendezvous => {
                let rts = src.nic_send_overhead + wire + dst.nic_recv_overhead;
                let cts = dst.nic_send_overhead + wire + src.nic_recv_overhead;
                rts + cts + wire + serialization
            }
        }
    }

    /// Same-node transfer through shared memory: one copy at the host's
    /// per-core copy bandwidth plus a fixed software latency.
    pub fn loopback_time(&self, node: &NodeSpec, size: usize) -> SimTime {
        self.loopback_latency + SimTime::from_secs(size as f64 / (node.processor.copy_bw_gbs * 1e9))
    }

    /// Effective bandwidth in bytes/s observed by a ping-pong of `size`.
    pub fn effective_bandwidth(
        &self,
        src: &NodeSpec,
        dst: &NodeSpec,
        size: usize,
        hops: u32,
    ) -> f64 {
        let t = self.transfer_time(src, dst, size, hops).as_secs();
        if t == 0.0 {
            0.0
        } else {
            size as f64 / t
        }
    }

    /// Time for a one-sided RDMA put/get of `size` bytes: initiator-side
    /// overhead and wire cost only — no software on the target, which is how
    /// EXTOLL RDMA (and hence the NAM) avoids "the intervention of an active
    /// component on the remote side" (paper §II-B).
    pub fn rdma_time(&self, initiator: &NodeSpec, size: usize, hops: u32) -> SimTime {
        initiator.nic_send_overhead
            + self.wire_latency * hops.max(1) as f64
            + SimTime::from_secs(size as f64 / self.payload_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::{deep_er_booster_node, deep_er_cluster_node};

    fn model() -> LogGpModel {
        LogGpModel::default()
    }

    #[test]
    fn protocol_switch() {
        let m = model();
        assert_eq!(m.protocol(1), Protocol::Eager);
        assert_eq!(m.protocol(m.eager_threshold), Protocol::Eager);
        assert_eq!(m.protocol(m.eager_threshold + 1), Protocol::Rendezvous);
    }

    #[test]
    fn small_message_latencies_match_fig3() {
        // Table I / Fig 3: ~1.0 µs CN-CN, ~1.8 µs BN-BN, in between CN-BN.
        let m = model();
        let cn = deep_er_cluster_node();
        let bn = deep_er_booster_node();
        let t_cc = m.transfer_time(&cn, &cn, 1, 1).as_micros();
        let t_bb = m.transfer_time(&bn, &bn, 1, 1).as_micros();
        let t_cb = m.transfer_time(&cn, &bn, 1, 1).as_micros();
        assert!((t_cc - 1.0).abs() < 0.05, "CN-CN {t_cc} µs");
        assert!((t_bb - 1.8).abs() < 0.05, "BN-BN {t_bb} µs");
        assert!(t_cc < t_cb && t_cb < t_bb, "CN-BN must lie between");
    }

    #[test]
    fn large_messages_limited_by_fabric_bandwidth() {
        // Paper: "For large messages communication performance between all
        // kinds of nodes is limited by fabric bandwidth."
        let m = model();
        let cn = deep_er_cluster_node();
        let bn = deep_er_booster_node();
        let size = 64 << 20;
        for (a, b) in [(&cn, &cn), (&bn, &bn), (&cn, &bn)] {
            let bw = m.effective_bandwidth(a, b, size, 1);
            assert!(
                bw > 0.95 * m.payload_bw,
                "{}-{} large-message bw {bw:.3e} below fabric limit",
                a.kind.label(),
                b.kind.label()
            );
        }
    }

    #[test]
    fn midrange_bandwidth_ordering_matches_fig3() {
        // In the eager range the copy bandwidth of the host matters, so
        // CN-CN > CN-BN > BN-BN, as in Fig 3's bandwidth plot.
        let m = model();
        let cn = deep_er_cluster_node();
        let bn = deep_er_booster_node();
        let size = 16 * 1024;
        let cc = m.effective_bandwidth(&cn, &cn, size, 1);
        let cb = m.effective_bandwidth(&cn, &bn, size, 1);
        let bb = m.effective_bandwidth(&bn, &bn, size, 1);
        assert!(cc > cb && cb > bb, "cc={cc:.3e} cb={cb:.3e} bb={bb:.3e}");
    }

    #[test]
    fn transfer_time_monotone_within_each_protocol() {
        // Time grows with size inside the eager regime and inside the
        // rendezvous regime. (At the threshold itself real MPIs — and this
        // model — may jump discontinuously in either direction; that knee is
        // visible in Fig. 3's measured curves too.)
        let m = model();
        let cn = deep_er_cluster_node();
        let bn = deep_er_booster_node();
        let mut last = SimTime::ZERO;
        for p in 0..=15 {
            // 1 B .. 32 KiB: eager
            let t = m.transfer_time(&cn, &bn, 1usize << p, 1);
            assert!(t >= last, "eager non-monotone at size 2^{p}");
            last = t;
        }
        let mut last = SimTime::ZERO;
        for p in 16..28 {
            // 64 KiB .. : rendezvous
            let t = m.transfer_time(&cn, &bn, 1usize << p, 1);
            assert!(t >= last, "rendezvous non-monotone at size 2^{p}");
            last = t;
        }
    }

    #[test]
    fn rendezvous_handshake_visible_at_threshold() {
        // Between Haswell nodes the eager pipeline is serialization-limited,
        // so crossing into rendezvous pays the extra RTS/CTS round trips and
        // time jumps up.
        let m = model();
        let cn = deep_er_cluster_node();
        let below = m.transfer_time(&cn, &cn, m.eager_threshold, 1);
        let above = m.transfer_time(&cn, &cn, m.eager_threshold + 1, 1);
        assert!(above > below);
    }

    #[test]
    fn rendezvous_helps_slow_copy_hosts() {
        // Between KNL nodes the eager pipeline is copy-limited (3.5 GB/s per
        // core), so the zero-copy rendezvous path is *faster* despite the
        // handshake — the reason real MPIs switch protocols at all.
        let m = model();
        let bn = deep_er_booster_node();
        let below = m.transfer_time(&bn, &bn, m.eager_threshold, 1);
        let above = m.transfer_time(&bn, &bn, m.eager_threshold + 1, 1);
        assert!(above < below);
    }

    #[test]
    fn loopback_cheaper_than_fabric() {
        let m = model();
        let cn = deep_er_cluster_node();
        let t_loop = m.transfer_time(&cn, &cn, 4096, 0);
        let t_wire = m.transfer_time(&cn, &cn, 4096, 1);
        assert!(t_loop < t_wire);
    }

    #[test]
    fn rdma_has_no_target_overhead() {
        let m = model();
        let cn = deep_er_cluster_node();
        let bn = deep_er_booster_node();
        // RDMA from CN: only CN-side software overhead; target µarch is
        // irrelevant, so time is independent of it.
        let t = m.rdma_time(&cn, 4096, 1);
        let two_sided = m.transfer_time(&cn, &bn, 4096, 1);
        assert!(t < two_sided);
    }

    #[test]
    fn rdma_min_one_hop() {
        let m = model();
        let cn = deep_er_cluster_node();
        assert_eq!(m.rdma_time(&cn, 0, 0), m.rdma_time(&cn, 0, 1));
    }
}
