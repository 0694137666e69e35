//! Calibration constants for the DEEP-ER prototype models.
//!
//! Every constant is derived from the paper's Table I, its Fig. 3, or the
//! public spec sheets of the named components. Nothing here is fitted to the
//! *application* results (Figs. 7–8); those emerge from the model plus the
//! xPic kernel descriptors (`xpic::config::kernel`), where the prices fitted
//! to Figs. 7–8 live (DESIGN.md §3.13).
//!
//! ## Processors
//!
//! * **Xeon E5-2680 v3 (Haswell)** — 12 cores/socket, 2.5 GHz, AVX2 with two
//!   FMA ports: 16 DP flops/cycle/core peak vector, ~4 DP flops/cycle
//!   sustained scalar (4-wide OoO issue feeding both FMA pipes with scalar
//!   µops). Per-node: 2 sockets → 24 cores, 960 GFlop/s peak, matching the
//!   16 TFlop/s over 16 nodes in Table I.
//! * **Xeon Phi 7210 (KNL)** — 64 cores, 1.3 GHz, AVX-512 with two VPUs:
//!   32 DP flops/cycle/core peak vector. The core is a 2-wide, mostly
//!   in-order design at half the clock; sustained scalar throughput is
//!   ~0.8 DP flops/cycle. Per-node 2.66 TFlop/s peak, matching the
//!   20 TFlop/s over 8 nodes in Table I.
//!
//! The scalar ratio (10.0 vs 1.04 GFlop/s per core) reproduces the paper's
//! footnote that the Booster's higher MPI latency "results from its
//! different micro-architecture in combination with the reduced clock
//! frequency".
//!
//! ## Fabric software overheads
//!
//! Table I gives end-to-end MPI latencies of 1.0 µs (Cluster) and 1.8 µs
//! (Booster) on the same Tourmalet A3 fabric, so the difference is host
//! software time. With a wire latency of 0.30 µs (EXTOLL Tourmalet spec),
//! symmetric per-side overheads of 0.35 µs (Haswell) and 0.75 µs (KNL) give
//! exactly 1.0 µs CN-CN, 1.8 µs BN-BN and 1.4 µs CN-BN — the three curves of
//! Fig. 3.
//!
//! ## Memory
//!
//! * Haswell node: 4 DDR4-2133 channels/socket ⇒ ~120 GB/s/node sustained.
//! * KNL: MCDRAM ~420 GB/s sustained (STREAM), DDR4 ~80 GB/s.
//! * NVMe (Intel DC P3700 400 GB): 2.8 GB/s read, 1.9 GB/s write, ~20 µs.
//! * EXTOLL Tourmalet A3: 100 Gbit/s/link ⇒ 12.5 GB/s raw; ~9.8 GB/s
//!   sustained MPI payload bandwidth (protocol efficiency ~0.78, consistent
//!   with Fig. 3 saturating just below 10⁴ MB/s).

use crate::time::SimTime;

/// Haswell: sustained scalar DP flops/cycle/core.
pub const HSW_SCALAR_FLOPS_PER_CYCLE: f64 = 4.0;
/// Haswell: peak vector DP flops/cycle/core (AVX2, 2 FMA ports).
pub const HSW_SIMD_FLOPS_PER_CYCLE: f64 = 16.0;
/// Haswell: sustained fraction of peak SIMD in real kernels.
pub const HSW_SIMD_EFFICIENCY: f64 = 0.75;
/// Haswell: base frequency, GHz.
pub const HSW_FREQ_GHZ: f64 = 2.5;
/// Haswell: cores per socket (E5-2680 v3).
pub const HSW_CORES_PER_SOCKET: u32 = 12;
/// Haswell: per-core memcpy bandwidth, GB/s.
pub const HSW_COPY_BW_GBS: f64 = 10.0;

/// KNL: sustained scalar DP flops/cycle/core.
pub const KNL_SCALAR_FLOPS_PER_CYCLE: f64 = 0.8;
/// KNL: peak vector DP flops/cycle/core (AVX-512, 2 VPUs).
pub const KNL_SIMD_FLOPS_PER_CYCLE: f64 = 32.0;
/// KNL: sustained fraction of peak SIMD in real kernels.
pub const KNL_SIMD_EFFICIENCY: f64 = 0.42;
/// KNL: base frequency, GHz.
pub const KNL_FREQ_GHZ: f64 = 1.3;
/// KNL: cores (Xeon Phi 7210).
pub const KNL_CORES: u32 = 64;
/// KNL: per-core memcpy bandwidth, GB/s.
pub const KNL_COPY_BW_GBS: f64 = 3.5;

/// Haswell node sustained DRAM bandwidth, GB/s (2 × 4ch DDR4-2133).
pub const HSW_DDR4_BW_GBS: f64 = 120.0;
/// KNL MCDRAM sustained bandwidth, GB/s.
pub const KNL_MCDRAM_BW_GBS: f64 = 420.0;
/// KNL DDR4 sustained bandwidth, GB/s.
pub const KNL_DDR4_BW_GBS: f64 = 80.0;
/// DRAM first-access latency (both µarchs, coarse).
pub const DRAM_LATENCY_NS: f64 = 90.0;

/// NVMe (DC P3700) sequential read bandwidth, GB/s.
pub const NVME_READ_BW_GBS: f64 = 2.8;
/// NVMe sequential write bandwidth, GB/s.
pub const NVME_WRITE_BW_GBS: f64 = 1.9;
/// NVMe access latency.
pub const NVME_LATENCY_US: f64 = 20.0;
/// NVMe capacity per node, bytes (400 GB).
pub const NVME_CAPACITY: u64 = 400 * 1_000_000_000;

/// Storage server streaming bandwidth (spinning disks behind one server).
pub const DISK_BW_GBS: f64 = 1.5;
/// Spinning disk access latency.
pub const DISK_LATENCY_MS: f64 = 5.0;

/// MPI software overhead per message side on a Haswell node.
pub fn hsw_mpi_overhead() -> SimTime {
    SimTime::from_micros(0.35)
}

/// MPI software overhead per message side on a KNL node.
pub fn knl_mpi_overhead() -> SimTime {
    SimTime::from_micros(0.75)
}

/// EXTOLL Tourmalet wire + switch latency per hop.
pub fn extoll_wire_latency() -> SimTime {
    SimTime::from_micros(0.30)
}

/// EXTOLL Tourmalet raw link bandwidth, bytes/s (100 Gbit/s).
pub const EXTOLL_LINK_BW: f64 = 12.5e9;
/// Sustained MPI payload bandwidth over one EXTOLL link, bytes/s.
pub const EXTOLL_PAYLOAD_BW: f64 = 9.8e9;
/// Eager→rendezvous protocol switch threshold, bytes.
pub const EXTOLL_EAGER_THRESHOLD: usize = 32 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_budget_reproduces_table1() {
        // CN-CN: 0.35 + 0.30 + 0.35 = 1.0 µs; BN-BN: 0.75+0.30+0.75 = 1.8 µs.
        let cn_cn = hsw_mpi_overhead() + extoll_wire_latency() + hsw_mpi_overhead();
        let bn_bn = knl_mpi_overhead() + extoll_wire_latency() + knl_mpi_overhead();
        assert!((cn_cn.as_micros() - 1.0).abs() < 1e-9);
        assert!((bn_bn.as_micros() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn payload_bw_below_raw_link() {
        let (payload, raw) = (EXTOLL_PAYLOAD_BW, EXTOLL_LINK_BW);
        assert!(payload < raw);
        assert!(payload / raw > 0.7);
    }

    #[test]
    fn peak_flops_match_table1() {
        let hsw_node = 2.0 * HSW_CORES_PER_SOCKET as f64 * HSW_FREQ_GHZ * HSW_SIMD_FLOPS_PER_CYCLE;
        let knl_node = KNL_CORES as f64 * KNL_FREQ_GHZ * KNL_SIMD_FLOPS_PER_CYCLE;
        // Table I: 16 TF / 16 CN = 1 TF; 20 TF / 8 BN = 2.5 TF.
        assert!((hsw_node - 1000.0).abs() < 100.0, "{hsw_node}");
        assert!((knl_node - 2500.0).abs() < 250.0, "{knl_node}");
    }

    #[test]
    fn scalar_per_core_ratio_is_large() {
        let hsw = HSW_FREQ_GHZ * HSW_SCALAR_FLOPS_PER_CYCLE;
        let knl = KNL_FREQ_GHZ * KNL_SCALAR_FLOPS_PER_CYCLE;
        assert!(
            hsw / knl > 5.0,
            "single-thread gap must be large: {}",
            hsw / knl
        );
    }
}
