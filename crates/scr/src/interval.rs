//! Checkpoint-interval optimization.
//!
//! SCR in DEEP-ER decides "where and how often checkpoints are performed"
//! from the failure model. The classical first-order optimum is Young's
//! formula `T* = sqrt(2 · δ · M)` for checkpoint cost δ and system MTBF M;
//! the multi-level schedule takes cheap local checkpoints frequently and
//! escalates to buddy/global at multiples of the base interval, in
//! proportion to the failure classes each level protects against.

use crate::manager::CheckpointLevel;
use hwmodel::SimTime;

/// Young's optimal checkpoint interval: `sqrt(2 · cost · mtbf)`.
fn young_daly_interval(checkpoint_cost: SimTime, system_mtbf: SimTime) -> SimTime {
    SimTime::from_secs((2.0 * checkpoint_cost.as_secs() * system_mtbf.as_secs()).sqrt())
}

/// A multi-level checkpoint schedule: local every base interval, buddy
/// every `buddy_every`-th checkpoint, global every `global_every`-th.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLevelSchedule {
    /// Base (local) checkpoint interval.
    pub base_interval: SimTime,
    /// Every n-th checkpoint is at least Buddy level.
    pub buddy_every: u32,
    /// Every n-th checkpoint is Global level.
    pub global_every: u32,
}

impl MultiLevelSchedule {
    /// Derive a schedule from the level costs and the system MTBF:
    /// the base interval optimizes the *local* cost against the MTBF; the
    /// escalation periods grow with the relative cost of the higher levels.
    pub fn derive(
        local_cost: SimTime,
        buddy_cost: SimTime,
        global_cost: SimTime,
        system_mtbf: SimTime,
    ) -> Self {
        assert!(local_cost > SimTime::ZERO);
        let base_interval = young_daly_interval(local_cost, system_mtbf);
        // Escalate with the square root of the cost ratio (the same
        // first-order optimality argument applied per level).
        let buddy_every = (buddy_cost.as_secs() / local_cost.as_secs())
            .sqrt()
            .ceil()
            .max(1.0);
        let global_every = (global_cost.as_secs() / local_cost.as_secs())
            .sqrt()
            .ceil()
            .max(1.0);
        MultiLevelSchedule {
            base_interval,
            buddy_every: buddy_every as u32,
            global_every: (global_every as u32).max(buddy_every as u32),
        }
    }

    /// The level of the `k`-th checkpoint (k starts at 1).
    pub fn level_of(&self, k: u32) -> CheckpointLevel {
        assert!(k >= 1, "checkpoints count from 1");
        if k.is_multiple_of(self.global_every) {
            CheckpointLevel::Global
        } else if k.is_multiple_of(self.buddy_every) {
            CheckpointLevel::Buddy
        } else {
            CheckpointLevel::Local
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_daly_known_value() {
        // δ = 50 s, M = 10000 s → T* = sqrt(2·50·10000) = 1000 s.
        let t = young_daly_interval(SimTime::from_secs(50.0), SimTime::from_secs(10_000.0));
        assert!((t.as_secs() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn interval_grows_with_cost_and_mtbf() {
        let base = young_daly_interval(SimTime::from_secs(10.0), SimTime::from_secs(1000.0));
        let pricier = young_daly_interval(SimTime::from_secs(40.0), SimTime::from_secs(1000.0));
        let safer = young_daly_interval(SimTime::from_secs(10.0), SimTime::from_secs(4000.0));
        assert!((pricier / base - 2.0).abs() < 1e-9);
        assert!((safer / base - 2.0).abs() < 1e-9);
    }

    #[test]
    fn derived_schedule_escalates() {
        let s = MultiLevelSchedule::derive(
            SimTime::from_secs(1.0),
            SimTime::from_secs(4.0),
            SimTime::from_secs(100.0),
            SimTime::from_secs(3600.0),
        );
        assert_eq!(s.buddy_every, 2); // sqrt(4)
        assert_eq!(s.global_every, 10); // sqrt(100)
        assert_eq!(s.level_of(1), CheckpointLevel::Local);
        assert_eq!(s.level_of(2), CheckpointLevel::Buddy);
        assert_eq!(s.level_of(4), CheckpointLevel::Buddy);
        assert_eq!(s.level_of(10), CheckpointLevel::Global);
        assert_eq!(s.level_of(20), CheckpointLevel::Global);
    }

    #[test]
    fn global_period_never_below_buddy() {
        let s = MultiLevelSchedule::derive(
            SimTime::from_secs(1.0),
            SimTime::from_secs(100.0),
            SimTime::from_secs(4.0), // pathological: global cheaper than buddy
            SimTime::from_secs(3600.0),
        );
        assert!(s.global_every >= s.buddy_every);
    }

    #[test]
    #[should_panic(expected = "count from 1")]
    fn level_of_zero_panics() {
        let s = MultiLevelSchedule {
            base_interval: SimTime::from_secs(1.0),
            buddy_every: 2,
            global_every: 4,
        };
        s.level_of(0);
    }
}
