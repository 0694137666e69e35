//! Seeded, deterministic workload generation.
//!
//! A trace is a list of [`TraceJob`]s: heterogeneous node requests with
//! known work, a communication profile, and a submission time drawn from
//! an arrival process. Everything is a pure function of the
//! [`WorkloadConfig`] — the only randomness is a `StdRng` seeded from
//! `cfg.seed` (the repo's sanctioned pattern; the vendored `rand` has no
//! OS-entropy source), so the same config always produces byte-identical
//! traces on every host.

use hwmodel::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// What kind of application a job models (paper §IV: applications divide
/// into Cluster-only, Booster-only and combined C+B codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Low/medium-scalable code: Cluster nodes only.
    ClusterHeavy,
    /// Highly-scalable code: Booster nodes only.
    BoosterHeavy,
    /// Divided application spanning both modules (xPic-style): its
    /// cross-module traffic contends for fabric bandwidth.
    Combined,
}

/// One job of a workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Unique id; also the scheduler tie-break for equal submit times.
    pub id: u64,
    /// A hand-written name ([`TraceJob::rigid`]); `None` for a generated
    /// job, whose [`TraceJob::name`] is derived from its class and id, so
    /// generating a trace formats no string.
    pub label: Option<String>,
    /// Application class.
    pub class: JobClass,
    /// Cluster nodes requested (exact; CN requests are rigid).
    pub cn: usize,
    /// Minimum Booster nodes the job can run on. Equal to
    /// [`TraceJob::bn_max`] for rigid jobs; strictly smaller for
    /// malleable ones.
    pub bn_min: usize,
    /// Booster nodes at which the job reaches full speed.
    pub bn_max: usize,
    /// Work: runtime at full speed (`bn_max`, uncontended fabric).
    pub duration: SimTime,
    /// Fraction of the job that is cross-module communication (only
    /// meaningful for [`JobClass::Combined`]; zero otherwise).
    pub comm_fraction: f64,
    /// Fabric bandwidth the communication phase wants, GB/s (zero for
    /// single-module jobs).
    pub fabric_demand_gbs: f64,
    /// Submission time.
    pub submit: SimTime,
}

impl TraceJob {
    /// A rigid job with no fabric demand: exactly `cn` + `bn` nodes for
    /// `duration`, the class read off which modules it asks for. This is
    /// the whole of a classic batch job, so a hand-written job mix is a
    /// `Vec` of these.
    pub fn rigid(
        id: u64,
        name: impl Into<String>,
        cn: usize,
        bn: usize,
        duration: SimTime,
        submit: SimTime,
    ) -> Self {
        TraceJob {
            id,
            label: Some(name.into()),
            class: match (cn, bn) {
                (_, 0) => JobClass::ClusterHeavy,
                (0, _) => JobClass::BoosterHeavy,
                _ => JobClass::Combined,
            },
            cn,
            bn_min: bn,
            bn_max: bn,
            duration,
            comm_fraction: 0.0,
            fabric_demand_gbs: 0.0,
            submit,
        }
    }

    /// Whether the Booster side can shrink below its full-speed size.
    pub fn malleable(&self) -> bool {
        self.bn_min < self.bn_max
    }

    /// The job's name: its label if it has one, else `class-id`
    /// (`cluster-17`, `booster-17`, `combined-17`).
    pub fn name(&self) -> Cow<'_, str> {
        match &self.label {
            Some(label) => Cow::Borrowed(label),
            None => Cow::Owned(match self.class {
                JobClass::ClusterHeavy => format!("cluster-{}", self.id),
                JobClass::BoosterHeavy => format!("booster-{}", self.id),
                JobClass::Combined => format!("combined-{}", self.id),
            }),
        }
    }
}

/// The arrival process of a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalModel {
    /// Heavy-traffic phases: the rate alternates between a base and a
    /// burst level — every `burst_every` of virtual time, arrivals come
    /// at `burst_rate_per_hour` for `burst_len`, then fall back.
    Bursty {
        /// Mean arrivals per hour outside bursts.
        base_rate_per_hour: f64,
        /// Mean arrivals per hour inside bursts.
        burst_rate_per_hour: f64,
        /// Period of the burst cycle.
        burst_every: SimTime,
        /// Length of the burst at the start of each cycle.
        burst_len: SimTime,
    },
}

// The balanced production mix of job classes; `generate` normalizes the
// weights by their sum.
/// Weight of [`JobClass::ClusterHeavy`].
const MIX_CLUSTER_HEAVY: f64 = 0.4;
/// Weight of [`JobClass::BoosterHeavy`].
const MIX_BOOSTER_HEAVY: f64 = 0.35;
/// Weight of [`JobClass::Combined`].
const MIX_COMBINED: f64 = 0.25;

/// Everything that determines a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// RNG seed; the trace is a pure function of this config.
    pub seed: u64,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Arrival process.
    pub arrivals: ArrivalModel,
    /// Largest CN request to draw (power of two, clamped to ≥ 1).
    pub max_cn: usize,
    /// Largest BN request to draw (power of two, clamped to ≥ 1).
    pub max_bn: usize,
}

impl WorkloadConfig {
    /// A bursty production-like default over `jobs` jobs.
    pub fn bursty(seed: u64, jobs: usize, max_cn: usize, max_bn: usize) -> Self {
        WorkloadConfig {
            seed,
            jobs,
            arrivals: ArrivalModel::Bursty {
                base_rate_per_hour: 40.0,
                burst_rate_per_hour: 400.0,
                burst_every: SimTime::from_secs(4.0 * 3600.0),
                burst_len: SimTime::from_secs(1800.0),
            },
            max_cn,
            max_bn,
        }
    }
}

/// Draw a power-of-two size in `[1, max]` with a bias toward small jobs
/// (production logs are dominated by narrow jobs; the tail is wide).
fn pow2_size(rng: &mut StdRng, max: usize) -> usize {
    let max = max.max(1);
    let max_exp = usize::BITS - 1 - max.leading_zeros(); // floor(log2 max)
                                                         // Squaring the uniform biases toward small exponents.
    let u: f64 = rng.gen::<f64>();
    let exp = ((u * u) * (max_exp + 1) as f64) as u32;
    (1usize << exp.min(max_exp)).min(max)
}

/// Log-uniform duration in `[lo, hi]` seconds.
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    let u: f64 = rng.gen::<f64>();
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

/// Exponential inter-arrival with the given rate (events per hour);
/// inverse-CDF over the sanctioned RNG, the `scr::FailureModel` idiom.
fn exp_interarrival(rng: &mut StdRng, rate_per_hour: f64) -> SimTime {
    let mean_s = 3600.0 / rate_per_hour.max(1e-9);
    let u: f64 = rng.gen::<f64>();
    SimTime::from_secs((mean_s * -(1.0 - u).ln()).max(1e-3))
}

/// Next submission time under `model`, strictly after `t`.
fn next_arrival(rng: &mut StdRng, model: &ArrivalModel, t: SimTime) -> SimTime {
    let ArrivalModel::Bursty {
        base_rate_per_hour,
        burst_rate_per_hour,
        burst_every,
        burst_len,
    } = model;
    let phase = SimTime::from_secs(t.as_secs() % burst_every.as_secs().max(1e-9));
    let rate = if phase < *burst_len {
        *burst_rate_per_hour
    } else {
        *base_rate_per_hour
    };
    t + exp_interarrival(rng, rate)
}

/// Generate the trace: `cfg.jobs` jobs, ids `0..jobs`, submission times
/// ascending. Pure function of `cfg` (see module docs).
pub fn generate(cfg: &WorkloadConfig) -> Vec<TraceJob> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let wsum = MIX_CLUSTER_HEAVY + MIX_BOOSTER_HEAVY + MIX_COMBINED;
    let mut jobs = Vec::with_capacity(cfg.jobs);
    let mut t = SimTime::ZERO;
    for id in 0..cfg.jobs as u64 {
        t = next_arrival(&mut rng, &cfg.arrivals, t);
        let pick: f64 = rng.gen::<f64>() * wsum;
        let class = if pick < MIX_CLUSTER_HEAVY {
            JobClass::ClusterHeavy
        } else if pick < MIX_CLUSTER_HEAVY + MIX_BOOSTER_HEAVY {
            JobClass::BoosterHeavy
        } else {
            JobClass::Combined
        };
        let duration = SimTime::from_secs(log_uniform(&mut rng, 120.0, 7200.0));
        let (cn, bn_max) = match class {
            JobClass::ClusterHeavy => (pow2_size(&mut rng, cfg.max_cn), 0),
            JobClass::BoosterHeavy => (0, pow2_size(&mut rng, cfg.max_bn)),
            JobClass::Combined => (
                pow2_size(&mut rng, cfg.max_cn.div_ceil(2)),
                pow2_size(&mut rng, cfg.max_bn),
            ),
        };
        // Half the Booster-side jobs are malleable: they can start on a
        // quarter of their full-speed size and grow into idle nodes.
        let malleable = bn_max > 1 && rng.gen::<f64>() < 0.5;
        let bn_min = if malleable {
            (bn_max / 4).max(1)
        } else {
            bn_max
        };
        let (comm_fraction, fabric_demand_gbs) = match class {
            JobClass::Combined => {
                // 10–50% of the job is cross-module traffic wanting
                // 1–8 GB/s of the shared fabric.
                let f = 0.1 + 0.4 * rng.gen::<f64>();
                let d = 1.0 + 7.0 * rng.gen::<f64>();
                (f, d)
            }
            _ => (0.0, 0.0),
        };
        jobs.push(TraceJob {
            id,
            label: None,
            class,
            cn,
            bn_min,
            bn_max,
            duration,
            comm_fraction,
            fabric_demand_gbs,
            submit: t,
        });
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> WorkloadConfig {
        WorkloadConfig::bursty(seed, 200, 16, 32)
    }

    #[test]
    fn same_seed_same_trace() {
        assert_eq!(generate(&cfg(7)), generate(&cfg(7)));
        assert_ne!(generate(&cfg(7)), generate(&cfg(8)));
    }

    #[test]
    fn trace_shape_is_sane() {
        let jobs = generate(&cfg(1));
        assert_eq!(jobs.len(), 200);
        let mut last = SimTime::ZERO;
        for j in &jobs {
            assert!(j.submit >= last, "arrivals ascend");
            last = j.submit;
            assert!(j.cn <= 16 && j.bn_max <= 32);
            assert!(j.cn + j.bn_max > 0, "no empty requests");
            assert!(j.bn_min <= j.bn_max);
            assert!(j.duration >= SimTime::from_secs(120.0));
            assert!(j.duration <= SimTime::from_secs(7200.0));
            match j.class {
                JobClass::ClusterHeavy => assert_eq!(j.bn_max, 0),
                JobClass::BoosterHeavy => assert_eq!(j.cn, 0),
                JobClass::Combined => {
                    assert!(j.cn > 0 && j.bn_max > 0);
                    assert!(j.comm_fraction > 0.0 && j.fabric_demand_gbs > 0.0);
                }
            }
        }
        // The default mix produces all three classes and some malleability.
        assert!(jobs.iter().any(|j| j.class == JobClass::ClusterHeavy));
        assert!(jobs.iter().any(|j| j.class == JobClass::BoosterHeavy));
        assert!(jobs.iter().any(|j| j.class == JobClass::Combined));
        assert!(jobs.iter().any(|j| j.malleable()));
    }

    /// The per-job name the generator used to format and store.
    fn formatted_name(j: &TraceJob) -> String {
        match j.class {
            JobClass::ClusterHeavy => format!("cluster-{}", j.id),
            JobClass::BoosterHeavy => format!("booster-{}", j.id),
            JobClass::Combined => format!("combined-{}", j.id),
        }
    }

    #[test]
    fn a_generated_job_is_named_after_its_class_and_id() {
        let jobs = generate(&WorkloadConfig::bursty(11, 500, 16, 32));
        assert_eq!(jobs.len(), 500);
        for j in &jobs {
            assert_eq!(j.label, None, "job {}", j.id);
            assert_eq!(j.name(), formatted_name(j));
        }
        for class in [
            JobClass::ClusterHeavy,
            JobClass::BoosterHeavy,
            JobClass::Combined,
        ] {
            assert!(jobs.iter().any(|j| j.class == class), "{class:?} drawn");
        }
    }

    #[test]
    fn a_rigid_job_keeps_its_label() {
        let h = SimTime::from_secs(3600.0);
        let j = TraceJob::rigid(1, "seismic", 8, 0, h, SimTime::ZERO);
        assert_eq!(j.name(), "seismic");
        assert!(matches!(j.name(), Cow::Borrowed("seismic")));
        assert_eq!(j.class, JobClass::ClusterHeavy);
    }

    #[test]
    fn bursty_arrivals_cluster_in_burst_windows() {
        let jobs = generate(&cfg(3));
        let burst_every = 4.0 * 3600.0;
        let burst_len = 1800.0;
        let in_burst = jobs
            .iter()
            .filter(|j| (j.submit.as_secs() % burst_every) < burst_len)
            .count();
        // Burst windows are 1/8 of the timeline but the burst rate is 10x
        // the base rate: well over 1/8 of arrivals must land inside.
        assert!(
            in_burst * 3 > jobs.len(),
            "{in_burst}/{} arrivals in burst windows",
            jobs.len()
        );
    }
}
