//! Processor models.
//!
//! A [`Processor`] captures the handful of microarchitectural parameters
//! that determine kernel throughput in the cost model: core count, clock
//! frequency, sustained scalar flops/cycle, SIMD width and efficiency, and
//! hardware thread count. The two microarchitectures of the DEEP-ER
//! prototype — Haswell on the Cluster, Knights Landing on the Booster — are
//! provided as presets in [`crate::presets`].

/// The microarchitectures of the DEEP-ER prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Microarch {
    /// Intel Haswell (Xeon E5 v3) — Cluster side of the DEEP-ER prototype.
    Haswell,
    /// Intel Knights Landing (Xeon Phi x200) — Booster side of DEEP-ER.
    KnightsLanding,
}

/// A processor (socket) model.
///
/// All throughput figures are *sustained* rather than peak: the SIMD
/// efficiency factor folds in the usual gap between peak FMA throughput and
/// what real vectorized kernels achieve.
#[derive(Debug, Clone, PartialEq)]
pub struct Processor {
    /// Marketing name, e.g. `"Intel Xeon E5-2680 v3"`.
    pub name: String,
    /// Microarchitecture family.
    pub arch: Microarch,
    /// Physical cores per socket.
    pub cores: u32,
    /// Hardware threads per core (SMT).
    pub threads_per_core: u32,
    /// Base clock frequency in GHz.
    pub freq_ghz: f64,
    /// Sustained *scalar* double-precision flops per cycle per core.
    /// Captures the out-of-order width / in-order penalty difference between
    /// big cores (Haswell ≈ superscalar, high IPC) and small cores
    /// (KNL ≈ 2-wide, low scalar IPC at low clock).
    pub scalar_flops_per_cycle: f64,
    /// Peak *vector* double-precision flops per cycle per core
    /// (SIMD lanes × FMA ports × 2).
    pub simd_flops_per_cycle: f64,
    /// Fraction of peak SIMD throughput real vectorized kernels sustain.
    pub simd_efficiency: f64,
    /// Per-core memory copy bandwidth in GB/s (drives eager-protocol message
    /// copies and packing costs in the network model).
    pub copy_bw_gbs: f64,
}

impl Processor {
    /// Peak double-precision GFlop/s of the socket (vector pipes, no
    /// efficiency derating) — the number a spec sheet quotes.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.freq_ghz * self.simd_flops_per_cycle
    }

    /// Sustained per-core GFlop/s for a kernel with the given vectorizable
    /// fraction `vf ∈ [0, 1]`. Blends the scalar and (derated) SIMD pipes.
    pub fn core_gflops(&self, vf: f64) -> f64 {
        let vf = vf.clamp(0.0, 1.0);
        let flops_per_cycle = self.scalar_flops_per_cycle * (1.0 - vf)
            + self.simd_flops_per_cycle * self.simd_efficiency * vf;
        self.freq_ghz * flops_per_cycle
    }

    /// Total hardware threads of the socket.
    pub fn threads(&self) -> u32 {
        self.cores * self.threads_per_core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn haswell() -> Processor {
        crate::presets::haswell_e5_2680_v3()
    }

    fn knl() -> Processor {
        crate::presets::knl_7210()
    }

    #[test]
    fn scalar_advantage_is_on_haswell() {
        // The paper attributes the higher Booster MPI latency to the lower
        // single-thread performance of KNL; scalar throughput per core must
        // therefore strongly favour Haswell.
        let h = haswell().core_gflops(0.0);
        let k = knl().core_gflops(0.0);
        assert!(
            h / k > 3.0,
            "Haswell scalar per-core should dominate KNL: {h} vs {k}"
        );
    }

    #[test]
    fn vector_advantage_is_on_knl_per_socket() {
        // Fully vectorized work per socket favours KNL (more cores × wider
        // SIMD outweigh the lower clock).
        let h = haswell();
        let k = knl();
        let hs = h.cores as f64 * h.core_gflops(1.0);
        let ks = k.cores as f64 * k.core_gflops(1.0);
        assert!(ks > hs, "KNL socket should win vector work: {ks} vs {hs}");
    }

    #[test]
    fn core_gflops_blends_monotonically() {
        let k = knl();
        let mut last = k.core_gflops(0.0);
        for i in 1..=10 {
            let v = k.core_gflops(i as f64 / 10.0);
            assert!(v >= last, "KNL throughput should rise with vectorization");
            last = v;
        }
    }

    #[test]
    fn core_gflops_clamps_fraction() {
        let h = haswell();
        assert_eq!(h.core_gflops(-1.0), h.core_gflops(0.0));
        assert_eq!(h.core_gflops(2.0), h.core_gflops(1.0));
    }

    #[test]
    fn threads_multiply() {
        assert_eq!(knl().threads(), 256);
        assert_eq!(haswell().threads(), 24);
    }
}
