//! Work descriptors.
//!
//! Application kernels describe what they do with a [`WorkSpec`]; the cost
//! model converts the description into virtual time for a concrete node.
//! This is the contract that lets one kernel implementation run on every
//! node type while being charged microarchitecture-appropriate time — the
//! mechanism behind the paper's observation that the xPic field solver is
//! ~6× faster on the Cluster while the particle solver is ~1.35× faster on
//! the Booster.

use crate::time::SimTime;

/// A description of one kernel invocation's resource demands.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkSpec {
    /// Human-readable kernel name (appears in traces).
    pub name: String,
    /// Double-precision floating point operations performed.
    pub flops: f64,
    /// Bytes of memory traffic streamed from/to the node's fastest
    /// DRAM-class level (MCDRAM on KNL, DDR4 on Haswell).
    pub bytes: f64,
    /// Fraction of the flops issued from SIMD-vectorizable loops, in `[0, 1]`.
    pub vector_fraction: f64,
    /// Fraction of the runtime that parallelizes over cores (Amdahl), in `[0, 1]`.
    pub parallel_fraction: f64,
    /// Cap on the number of cores the kernel can use (`None` = whole node).
    pub max_cores: Option<u32>,
    /// Fixed serial overhead added on top (loop management, MPI stack time
    /// outside the fabric model, etc.).
    pub overhead: SimTime,
}

impl WorkSpec {
    /// Start building a named work descriptor.
    pub fn named(name: impl Into<String>) -> WorkBuilder {
        WorkBuilder::new(name)
    }

    /// Scale both flops and bytes by a factor (e.g. problem-size scaling).
    pub fn scaled(&self, factor: f64) -> WorkSpec {
        assert!(factor.is_finite() && factor >= 0.0, "invalid scale factor");
        WorkSpec {
            flops: self.flops * factor,
            bytes: self.bytes * factor,
            ..self.clone()
        }
    }

    /// Validate invariants. The builder enforces these; direct construction
    /// can call this in tests.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.vector_fraction) {
            return Err(format!(
                "vector_fraction {} out of [0,1]",
                self.vector_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.parallel_fraction) {
            return Err(format!(
                "parallel_fraction {} out of [0,1]",
                self.parallel_fraction
            ));
        }
        if self.flops < 0.0 || !self.flops.is_finite() {
            return Err(format!("flops {} invalid", self.flops));
        }
        if self.bytes < 0.0 || !self.bytes.is_finite() {
            return Err(format!("bytes {} invalid", self.bytes));
        }
        if self.max_cores == Some(0) {
            return Err("max_cores must be >= 1".into());
        }
        Ok(())
    }
}

/// Builder for [`WorkSpec`] with validated setters.
#[derive(Debug, Clone)]
pub struct WorkBuilder {
    spec: WorkSpec,
}

impl WorkBuilder {
    /// New builder with zero work and conservative defaults
    /// (scalar, serial, no traffic).
    pub fn new(name: impl Into<String>) -> Self {
        WorkBuilder {
            spec: WorkSpec {
                name: name.into(),
                flops: 0.0,
                bytes: 0.0,
                vector_fraction: 0.0,
                parallel_fraction: 0.0,
                max_cores: None,
                overhead: SimTime::ZERO,
            },
        }
    }

    /// Set the flop count.
    pub fn flops(mut self, flops: f64) -> Self {
        self.spec.flops = flops;
        self
    }

    /// Set the streamed memory traffic in bytes.
    pub fn bytes(mut self, bytes: f64) -> Self {
        self.spec.bytes = bytes;
        self
    }

    /// Set the SIMD-vectorizable fraction.
    pub fn vector_fraction(mut self, vf: f64) -> Self {
        self.spec.vector_fraction = vf;
        self
    }

    /// Set the Amdahl parallel fraction.
    pub fn parallel_fraction(mut self, pf: f64) -> Self {
        self.spec.parallel_fraction = pf;
        self
    }

    /// Finish, validating all invariants.
    pub fn build(self) -> WorkSpec {
        if let Err(e) = self.spec.validate() {
            panic!("invalid WorkSpec `{}`: {}", self.spec.name, e);
        }
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let w = WorkSpec::named("push")
            .flops(1e9)
            .bytes(2e8)
            .vector_fraction(0.9)
            .parallel_fraction(0.99)
            .build();
        assert_eq!(w.name, "push");
        assert_eq!(w.flops, 1e9);
        assert_eq!(w.bytes, 2e8);
        assert_eq!((w.vector_fraction, w.parallel_fraction), (0.9, 0.99));
        assert_eq!(w.max_cores, None);
        assert_eq!(w.overhead, SimTime::ZERO);
    }

    #[test]
    fn scaled_multiplies_flops_and_bytes_only() {
        let w = WorkSpec::named("k")
            .flops(10.0)
            .bytes(4.0)
            .vector_fraction(0.5)
            .build();
        let s = w.scaled(3.0);
        assert_eq!(s.flops, 30.0);
        assert_eq!(s.bytes, 12.0);
        assert_eq!(s.vector_fraction, 0.5);
    }

    #[test]
    #[should_panic(expected = "vector_fraction")]
    fn rejects_bad_vector_fraction() {
        WorkSpec::named("bad").vector_fraction(1.5).build();
    }

    #[test]
    #[should_panic(expected = "parallel_fraction")]
    fn rejects_bad_parallel_fraction() {
        WorkSpec::named("bad").parallel_fraction(-0.1).build();
    }

    #[test]
    fn validate_rejects_zero_cores() {
        let w = WorkSpec {
            max_cores: Some(0),
            ..WorkSpec::named("bad").build()
        };
        assert!(w.validate().unwrap_err().contains("max_cores"));
    }

    #[test]
    fn validate_detects_nonfinite() {
        let mut w = WorkSpec::named("w").build();
        w.flops = f64::NAN;
        assert!(w.validate().is_err());
        w.flops = 0.0;
        w.bytes = f64::INFINITY;
        assert!(w.validate().is_err());
    }
}
