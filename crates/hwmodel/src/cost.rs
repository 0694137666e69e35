//! The analytic cost model.
//!
//! [`CostModel::time`] converts a [`WorkSpec`] executed on a [`NodeSpec`]
//! into virtual seconds using a roofline × Amdahl construction:
//!
//! ```text
//! t_comp  = flops / (core_gflops(vf) · 1e9)  / amdahl(cores, pf)
//! t_mem   = bytes / (level_bw · 1e9)
//! t       = max(t_comp, t_mem) + overhead
//! ```
//!
//! `core_gflops(vf)` blends the scalar and SIMD pipes of the processor by
//! the kernel's vectorizable fraction (see [`crate::processor::Processor`]),
//! which is what differentiates Haswell (strong scalar pipe) from KNL
//! (strong SIMD pipes, weak scalar pipe). Memory traffic uses the node-level
//! aggregate bandwidth of its fastest DRAM-class level and is assumed to
//! overlap with compute (`max`), the usual roofline assumption.

use crate::node::NodeSpec;
use crate::time::SimTime;
use crate::work::WorkSpec;

/// Amdahl's-law speedup of `p` cores for a kernel whose runtime fraction
/// `f ∈ [0,1]` parallelizes.
///
/// `speedup = 1 / ((1 - f) + f / p)`
pub fn amdahl_speedup(cores: u32, parallel_fraction: f64) -> f64 {
    assert!(cores >= 1, "need at least one core");
    let f = parallel_fraction.clamp(0.0, 1.0);
    1.0 / ((1.0 - f) + f / cores as f64)
}

/// The cost model. Stateless; methods take the node explicitly so one model
/// serves a whole heterogeneous system.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel;

impl CostModel {
    /// Compute-pipe time of the kernel on the node (no memory term).
    pub fn compute_time(&self, node: &NodeSpec, work: &WorkSpec) -> SimTime {
        if work.flops <= 0.0 {
            return SimTime::ZERO;
        }
        let cores = work
            .max_cores
            .map_or(node.cores(), |m| m.min(node.cores()))
            .max(1);
        let gflops_1core = node.processor.core_gflops(work.vector_fraction);
        let t_serial = work.flops / (gflops_1core * 1e9);
        SimTime::from_secs(t_serial / amdahl_speedup(cores, work.parallel_fraction))
    }

    /// Memory-traffic time of the kernel on the node (no compute term).
    pub fn memory_time(&self, node: &NodeSpec, work: &WorkSpec) -> SimTime {
        if work.bytes <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime::from_secs(work.bytes / (node.fast_memory().read_bw_gbs * 1e9))
    }

    /// Total modelled time: `max(compute, memory) + overhead`.
    pub fn time(&self, node: &NodeSpec, work: &WorkSpec) -> SimTime {
        self.compute_time(node, work)
            .max(self.memory_time(node, work))
            + work.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{deep_er_booster_node, deep_er_cluster_node};

    #[test]
    fn amdahl_limits() {
        assert_eq!(amdahl_speedup(64, 0.0), 1.0);
        assert!((amdahl_speedup(64, 1.0) - 64.0).abs() < 1e-9);
        // Half-parallel work on many cores approaches 2×.
        assert!(amdahl_speedup(10_000, 0.5) < 2.0);
        assert!(amdahl_speedup(10_000, 0.5) > 1.99);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn amdahl_rejects_zero_cores() {
        amdahl_speedup(0, 0.5);
    }

    #[test]
    fn zero_work_is_free() {
        let m = CostModel;
        let cn = deep_er_cluster_node();
        let w = WorkSpec::named("empty").build();
        assert_eq!(m.time(&cn, &w), SimTime::ZERO);
    }

    #[test]
    fn overhead_is_additive() {
        let m = CostModel;
        let cn = deep_er_cluster_node();
        let w = WorkSpec {
            overhead: SimTime::from_micros(7.0),
            ..WorkSpec::named("oh").build()
        };
        assert_eq!(m.time(&cn, &w), SimTime::from_micros(7.0));
    }

    #[test]
    fn scalar_serial_work_prefers_cluster() {
        // A purely scalar, serial kernel: Haswell's strong single-thread
        // pipe should win by a wide margin (paper: field solver class).
        let m = CostModel;
        let cn = deep_er_cluster_node();
        let bn = deep_er_booster_node();
        let w = WorkSpec::named("scalar").flops(1e9).build();
        let t_cn = m.time(&cn, &w);
        let t_bn = m.time(&bn, &w);
        assert!(t_bn / t_cn > 3.0, "BN/CN = {}", t_bn / t_cn);
    }

    #[test]
    fn vector_parallel_work_prefers_booster() {
        // A fully vectorized, fully parallel kernel: KNL node should win
        // (paper: particle solver class).
        let m = CostModel;
        let cn = deep_er_cluster_node();
        let bn = deep_er_booster_node();
        let w = WorkSpec::named("vec")
            .flops(1e12)
            .vector_fraction(1.0)
            .parallel_fraction(1.0)
            .build();
        let t_cn = m.time(&cn, &w);
        let t_bn = m.time(&bn, &w);
        assert!(t_cn / t_bn > 1.0, "CN/BN = {}", t_cn / t_bn);
    }

    #[test]
    fn memory_bound_work_uses_bandwidth() {
        let m = CostModel;
        let bn = deep_er_booster_node();
        // Pure streaming: 1 GB at the fast level's (MCDRAM's) bandwidth.
        let w = WorkSpec::named("stream").bytes(1e9).build();
        let t = m.time(&bn, &w).as_secs();
        let bw = bn.fast_memory().read_bw_gbs;
        assert!((t - 1.0 / bw).abs() < 1e-12);
    }

    #[test]
    fn roofline_takes_max() {
        let m = CostModel;
        let cn = deep_er_cluster_node();
        let w = WorkSpec::named("balanced")
            .flops(1e10)
            .bytes(1e10)
            .vector_fraction(1.0)
            .parallel_fraction(1.0)
            .build();
        let t = m.time(&cn, &w);
        assert_eq!(t, m.compute_time(&cn, &w).max(m.memory_time(&cn, &w)));
    }

    #[test]
    fn max_cores_caps_parallelism() {
        let m = CostModel;
        let cn = deep_er_cluster_node();
        let base = WorkSpec::named("p")
            .flops(1e10)
            .parallel_fraction(1.0)
            .build();
        let capped = WorkSpec {
            max_cores: Some(1),
            ..base.clone()
        };
        let t_full = m.time(&cn, &base).as_secs();
        let t_one = m.time(&cn, &capped).as_secs();
        assert!((t_one / t_full - cn.cores() as f64).abs() < 1e-6);
    }

    #[test]
    fn effective_gflops_bounded_by_peak() {
        let m = CostModel;
        for node in [deep_er_cluster_node(), deep_er_booster_node()] {
            let w = WorkSpec::named("best")
                .flops(1e12)
                .vector_fraction(1.0)
                .parallel_fraction(1.0)
                .build();
            let eff = w.flops / m.time(&node, &w).as_secs() / 1e9;
            assert!(eff <= node.peak_gflops(), "{eff} > {}", node.peak_gflops());
            assert!(eff > 0.3 * node.peak_gflops());
        }
    }
}
