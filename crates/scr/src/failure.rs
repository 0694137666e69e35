//! The failure model of the prototype.
//!
//! DEEP-ER extended SCR "to decide where and how often checkpoints are
//! performed, based on a failure model of the DEEP-ER prototype" (§III-D).
//! We model node failures as independent Poisson processes: each node fails
//! with exponential inter-arrival times of a configurable MTBF. The system
//! MTBF shrinks linearly with node count — the Exascale motivation of §I
//! ("higher hardware failure rates expected in such huge systems").

use hwmodel::{NodeId, SimTime};
use rand::Rng;
use simnet::FaultPlan;

/// Smallest inter-arrival time [`FailureModel::sample_exp`] will return.
/// The inverse-CDF sample is zero when the RNG draws `u == 0.0`
/// (`-(1.0 - 0.0).ln() == 0`), which would produce duplicate/t=0 failure
/// events downstream — and a non-advancing `sample_trace` loop. One
/// nanosecond is far below any physical MTBF, so the clamp never distorts
/// real samples.
fn min_interarrival() -> SimTime {
    SimTime::from_nanos(1.0)
}

/// A sampled failure event.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FailureEvent {
    /// When the failure strikes.
    at: SimTime,
    /// Which node fails.
    node: NodeId,
}

/// Exponential per-node failure model.
#[derive(Debug, Clone, Copy)]
pub struct FailureModel {
    /// Mean time between failures of a single node.
    pub node_mtbf: SimTime,
}

impl FailureModel {
    /// Model with a given per-node MTBF.
    pub fn new(node_mtbf: SimTime) -> Self {
        assert!(node_mtbf > SimTime::ZERO, "MTBF must be positive");
        FailureModel { node_mtbf }
    }

    /// MTBF of a system of `nodes` nodes (first failure anywhere).
    pub fn system_mtbf(&self, nodes: usize) -> SimTime {
        assert!(nodes >= 1);
        self.node_mtbf / nodes as f64
    }

    /// Sample one exponential inter-arrival time, always strictly positive
    /// (see [`min_interarrival`]).
    fn sample_exp<R: Rng>(&self, rng: &mut R, mean: SimTime) -> SimTime {
        // Inverse-CDF sampling; 1-u avoids ln(0), the clamp avoids the
        // u == 0.0 zero sample.
        let u: f64 = rng.gen::<f64>();
        (mean * (-(1.0 - u).ln())).max(min_interarrival())
    }

    /// Sample all failures of `nodes` nodes within `[0, horizon)`, sorted
    /// by time. A node can fail repeatedly: repair is instantaneous at this
    /// level, and the run that consults the [`FaultPlan`] charges the
    /// restart.
    fn sample_trace<R: Rng>(
        &self,
        rng: &mut R,
        nodes: &[NodeId],
        horizon: SimTime,
    ) -> Vec<FailureEvent> {
        let mut events = Vec::new();
        for &node in nodes {
            let mut t = SimTime::ZERO;
            loop {
                t += self.sample_exp(rng, self.node_mtbf);
                if t >= horizon {
                    break;
                }
                events.push(FailureEvent { at: t, node });
            }
        }
        events.sort_by_key(|a| a.at);
        events
    }

    /// Sample a deterministic [`FaultPlan`] for `simnet` to consult at run
    /// time: the same seed (and node set and horizon) always produces the
    /// same plan, which is the first half of the determinism argument —
    /// same seed ⇒ same failure times ⇒ same recovered state.
    pub fn fault_plan<R: Rng>(&self, rng: &mut R, nodes: &[NodeId], horizon: SimTime) -> FaultPlan {
        FaultPlan::from_node_faults(
            self.sample_trace(rng, nodes, horizon)
                .into_iter()
                .map(|e| (e.at, e.node)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn system_mtbf_scales_inversely() {
        let m = FailureModel::new(SimTime::from_secs(1000.0));
        assert_eq!(m.system_mtbf(1), SimTime::from_secs(1000.0));
        assert_eq!(m.system_mtbf(10), SimTime::from_secs(100.0));
    }

    #[test]
    fn trace_is_sorted_and_bounded() {
        let m = FailureModel::new(SimTime::from_secs(50.0));
        let mut rng = StdRng::seed_from_u64(7);
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let horizon = SimTime::from_secs(1000.0);
        let trace = m.sample_trace(&mut rng, &nodes, horizon);
        assert!(!trace.is_empty());
        for w in trace.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(trace.iter().all(|e| e.at < horizon));
    }

    #[test]
    fn empirical_rate_matches_mtbf() {
        let mtbf = SimTime::from_secs(100.0);
        let m = FailureModel::new(mtbf);
        let mut rng = StdRng::seed_from_u64(42);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let horizon = SimTime::from_secs(100_000.0);
        let trace = m.sample_trace(&mut rng, &nodes, horizon);
        // Expected failures: nodes × horizon / mtbf = 4000; allow ±10%.
        let expect = 4000.0;
        let got = trace.len() as f64;
        assert!((got - expect).abs() / expect < 0.10, "got {got}");
    }

    #[test]
    fn deterministic_under_seed() {
        let m = FailureModel::new(SimTime::from_secs(10.0));
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let t1 = m.sample_trace(
            &mut StdRng::seed_from_u64(1),
            &nodes,
            SimTime::from_secs(100.0),
        );
        let t2 = m.sample_trace(
            &mut StdRng::seed_from_u64(1),
            &nodes,
            SimTime::from_secs(100.0),
        );
        assert_eq!(t1, t2);
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn zero_mtbf_rejected() {
        FailureModel::new(SimTime::ZERO);
    }

    /// An RNG that always emits zero bits, so `rng.gen::<f64>()` is exactly
    /// 0.0 — the pathological draw of the satellite bugfix.
    struct ZeroRng;
    impl rand::RngCore for ZeroRng {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn zero_draw_never_yields_zero_interarrival() {
        let m = FailureModel::new(SimTime::from_secs(100.0));
        let dt = m.sample_exp(&mut ZeroRng, m.node_mtbf);
        assert!(dt > SimTime::ZERO, "u == 0.0 must not yield a zero sample");
        assert_eq!(dt, min_interarrival());
    }

    #[test]
    fn zero_draw_trace_terminates_with_distinct_positive_times() {
        // Before the clamp this looped forever (t never advanced) and, had
        // it terminated, would have produced duplicate t=0 events. Keep the
        // horizon tiny: the clamped step is one nanosecond.
        let m = FailureModel::new(SimTime::from_secs(100.0));
        let horizon = SimTime::from_nanos(4.5);
        let trace = m.sample_trace(&mut ZeroRng, &[NodeId(0)], horizon);
        assert_eq!(trace.len(), 4);
        assert!(trace.iter().all(|e| e.at > SimTime::ZERO));
        for w in trace.windows(2) {
            assert!(w[0].at < w[1].at, "events must be strictly increasing");
        }
    }

    #[test]
    fn fault_plan_matches_sampled_trace() {
        let m = FailureModel::new(SimTime::from_secs(20.0));
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let horizon = SimTime::from_secs(100.0);
        let trace = m.sample_trace(&mut StdRng::seed_from_u64(11), &nodes, horizon);
        let plan = m.fault_plan(&mut StdRng::seed_from_u64(11), &nodes, horizon);
        assert!(!trace.is_empty());
        assert_eq!(plan.node_faults().len(), trace.len());
        for e in &trace {
            assert_eq!(plan.node_fault_at(e.node, e.at), Some(e.at));
        }
    }
}
