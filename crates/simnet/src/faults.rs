//! Deterministic fault plan: which nodes die, and when.
//!
//! The plan is *static*: it is fully determined before the run starts
//! (seeded from `scr::FailureModel` or written down explicitly), and every
//! consumer queries it against a **virtual** clock. That is what makes
//! fault injection deterministic — the same seed produces the same failure
//! times regardless of host scheduling or thread count, so a faulted run
//! can be replayed bit-identically.
//!
//! `Fabric` carries an optional shared plan (see [`Fabric::set_fault_plan`](crate::Fabric::set_fault_plan))
//! so every rank thread in `psmpi` consults the same instant-indexed truth.

use hwmodel::{NodeId, SimTime};

/// A node death at a virtual instant. The node is considered dead for all
/// traffic stamped at or after `at` (until an explicit repair, which is the
/// recovery layer's business, not the plan's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFault {
    /// When the node dies.
    pub at: SimTime,
    /// Which node dies.
    pub node: NodeId,
}

/// The full fault schedule of a run. Cheap to build, queried with linear
/// scans — real plans carry a handful of events, not millions.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    node_faults: Vec<NodeFault>,
}

impl FaultPlan {
    /// An empty plan (no faults — queries all return `None`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Plan from explicit `(virtual_time, node)` pairs.
    pub fn from_node_faults(faults: impl IntoIterator<Item = (SimTime, NodeId)>) -> Self {
        let mut plan = FaultPlan::new();
        for (at, node) in faults {
            plan.add_node_fault(node, at);
        }
        plan
    }

    /// Schedule a node death.
    pub fn add_node_fault(&mut self, node: NodeId, at: SimTime) {
        self.node_faults.push(NodeFault { at, node });
        self.node_faults
            .sort_by(|x, y| x.at.cmp(&y.at).then(x.node.0.cmp(&y.node.0)));
    }

    /// All scheduled node faults, sorted by `(at, node)`.
    pub fn node_faults(&self) -> &[NodeFault] {
        &self.node_faults
    }

    /// True if the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.node_faults.is_empty()
    }

    /// The *latest* death of `node` at or before `t`, if any. A node that
    /// has died is dead for everything stamped later, so this is the query
    /// a sender uses: "is my destination gone as of my clock?"
    pub fn node_fault_at(&self, node: NodeId, t: SimTime) -> Option<SimTime> {
        self.node_faults
            .iter()
            .filter(|f| f.node == node && f.at <= t)
            .map(|f| f.at)
            .next_back()
    }

    /// The *first* death of `node` in the window `(after, upto]`, if any.
    /// This is the victim's own query at step granularity: "did I die
    /// between the end of the last step and now?"
    pub fn node_fault_in(&self, node: NodeId, after: SimTime, upto: SimTime) -> Option<SimTime> {
        self.node_faults
            .iter()
            .find(|f| f.node == node && f.at > after && f.at <= upto)
            .map(|f| f.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn empty_plan_answers_none() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.node_fault_at(NodeId(0), s(1e9)), None);
        assert_eq!(p.node_fault_in(NodeId(0), SimTime::ZERO, s(1e9)), None);
    }

    #[test]
    fn node_fault_at_picks_latest_not_after() {
        let p = FaultPlan::from_node_faults([(s(2.0), NodeId(3)), (s(5.0), NodeId(3))]);
        assert_eq!(p.node_fault_at(NodeId(3), s(1.0)), None);
        assert_eq!(p.node_fault_at(NodeId(3), s(2.0)), Some(s(2.0)));
        assert_eq!(p.node_fault_at(NodeId(3), s(4.9)), Some(s(2.0)));
        assert_eq!(p.node_fault_at(NodeId(3), s(5.0)), Some(s(5.0)));
        assert_eq!(p.node_fault_at(NodeId(4), s(9.0)), None);
    }

    #[test]
    fn node_fault_in_is_half_open_after_exclusive() {
        let p = FaultPlan::from_node_faults([(s(2.0), NodeId(1))]);
        assert_eq!(p.node_fault_in(NodeId(1), SimTime::ZERO, s(1.9)), None);
        assert_eq!(
            p.node_fault_in(NodeId(1), SimTime::ZERO, s(2.0)),
            Some(s(2.0))
        );
        // Window opens strictly after the fault: already reported, not again.
        assert_eq!(p.node_fault_in(NodeId(1), s(2.0), s(9.0)), None);
        assert_eq!(p.node_fault_in(NodeId(1), s(1.0), s(9.0)), Some(s(2.0)));
    }

    #[test]
    fn faults_sorted_by_time_then_node() {
        let p = FaultPlan::from_node_faults([
            (s(5.0), NodeId(1)),
            (s(2.0), NodeId(9)),
            (s(2.0), NodeId(4)),
        ]);
        let order: Vec<_> = p.node_faults().iter().map(|f| (f.at, f.node)).collect();
        assert_eq!(
            order,
            vec![
                (s(2.0), NodeId(4)),
                (s(2.0), NodeId(9)),
                (s(5.0), NodeId(1)),
            ]
        );
    }
}
