//! Virtual-time simulation of a run under failures with checkpointing.
//!
//! Given a total compute length, a checkpoint interval, what a checkpoint
//! blocks and what it drains in the background, a restart cost and a
//! failure trace, [`simulate_run`] computes the wall time the job needs:
//! useful work + checkpoint overhead + rework after each failure + restart
//! costs. It is the one run simulator: a blocking checkpoint drains
//! nothing. This drives the checkpoint-interval sweep
//! extension bench (and numerically validates Young's formula against the
//! failure model).

use crate::failure::FailureEvent;
use hwmodel::SimTime;

/// Outcome of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Total wall (virtual) time to finish the work.
    pub wall_time: SimTime,
    /// Time spent writing checkpoints.
    pub checkpoint_time: SimTime,
    /// Work redone after failures.
    pub rework_time: SimTime,
    /// Time spent restarting.
    pub restart_time: SimTime,
    /// Failures that actually interrupted the run.
    pub failures_hit: usize,
}

impl RunOutcome {
    /// Overhead factor: wall time relative to the failure-free,
    /// checkpoint-free ideal.
    pub fn overhead(&self, ideal: SimTime) -> f64 {
        self.wall_time / ideal
    }
}

/// Simulate a run of `work` compute time that checkpoints every `interval`
/// of *useful work*. Each checkpoint blocks the application for
/// `block_cost`; its drain to the protecting level takes a further
/// `drain_cost` that overlaps the following segment and blocks only for
/// what the segment cannot hide. A blocking checkpoint is the degenerate
/// case: its whole cost in `block_cost` and `SimTime::ZERO` to drain.
///
/// A failure costs `restart_cost` and resumes from the last checkpoint
/// whose drain had completed; one striking during a segment's checkpoint
/// loses that checkpoint too. `failures` is a time-sorted trace
/// (wall-clock times); failures striking after the job finishes are
/// ignored.
pub fn simulate_run(
    work: SimTime,
    interval: SimTime,
    block_cost: SimTime,
    drain_cost: SimTime,
    restart_cost: SimTime,
    failures: &[FailureEvent],
) -> RunOutcome {
    assert!(interval > SimTime::ZERO, "interval must be positive");
    let mut wall = SimTime::ZERO;
    let mut done = SimTime::ZERO;
    let mut ckpt_time = SimTime::ZERO;
    let mut rework = SimTime::ZERO;
    let mut restart_time = SimTime::ZERO;
    let mut hits = 0usize;
    // Useful work protected by a fully drained checkpoint.
    let mut protected = SimTime::ZERO;
    // The in-flight drain: (wall time it finishes, work it then protects).
    let mut draining: Option<(SimTime, SimTime)> = None;
    let mut fail_iter = failures.iter().peekable();

    while done < work {
        // Next segment: up to `interval` of work, then a checkpoint (unless
        // the job finishes first, in which case no final checkpoint), plus
        // whatever of the previous drain the segment cannot hide.
        let seg = (work - done).min(interval);
        let finishing = done + seg >= work;
        let spill = match draining {
            Some((ready_at, _)) if ready_at > wall + seg => ready_at - (wall + seg),
            _ => SimTime::ZERO,
        };
        let seg_cost = if finishing {
            seg + spill
        } else {
            seg + spill + block_cost
        };
        let seg_end = wall + seg_cost;

        // Does a failure strike during this segment?
        let strike = loop {
            match fail_iter.peek() {
                Some(f) if f.at <= wall => {
                    fail_iter.next(); // stale event (during a past restart)
                }
                Some(f) if f.at < seg_end => break Some(f.at),
                _ => break None,
            }
        };

        // A drain that completed before the strike (or within the clean
        // segment) protects its work; one still in flight at a strike is
        // lost with it.
        let horizon = strike.unwrap_or(seg_end);
        if let Some((_, protects)) = draining.filter(|&(ready_at, _)| ready_at <= horizon) {
            protected = protects;
            draining = None;
        }
        match strike {
            Some(at) => {
                fail_iter.next();
                hits += 1;
                draining = None;
                rework += done - protected + (at - wall).min(seg);
                done = protected;
                wall = at + restart_cost;
                restart_time += restart_cost;
            }
            None => {
                wall = seg_end;
                done += seg;
                if !finishing {
                    ckpt_time += block_cost + spill;
                    draining = Some((wall + drain_cost, done));
                }
            }
        }
    }

    RunOutcome {
        wall_time: wall,
        checkpoint_time: ckpt_time,
        rework_time: rework,
        restart_time,
        failures_hit: hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureModel;
    use hwmodel::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs(x)
    }

    fn fail_at(times: &[f64]) -> Vec<FailureEvent> {
        times
            .iter()
            .map(|&t| FailureEvent {
                at: s(t),
                node: NodeId(0),
            })
            .collect()
    }

    #[test]
    fn failure_free_run_pays_only_checkpoints() {
        // 100 s of work, checkpoint every 10 s at 1 s: 9 checkpoints (no
        // final one) → 109 s.
        let out = simulate_run(s(100.0), s(10.0), s(1.0), SimTime::ZERO, s(5.0), &[]);
        assert_eq!(out.wall_time, s(109.0));
        assert_eq!(out.checkpoint_time, s(9.0));
        assert_eq!(out.failures_hit, 0);
        assert_eq!(out.rework_time, SimTime::ZERO);
        assert!((out.overhead(s(100.0)) - 1.09).abs() < 1e-12);
    }

    #[test]
    fn single_failure_loses_segment_progress() {
        // Failure at t=15: segment [11, 22) was in progress with 4 s of work
        // done since the last checkpoint → 4 s rework + 5 s restart.
        let out = simulate_run(
            s(100.0),
            s(10.0),
            s(1.0),
            SimTime::ZERO,
            s(5.0),
            &fail_at(&[15.0]),
        );
        assert_eq!(out.failures_hit, 1);
        assert_eq!(out.rework_time, s(4.0));
        assert_eq!(out.restart_time, s(5.0));
        assert_eq!(out.wall_time, s(109.0) + s(4.0) + s(5.0));
    }

    #[test]
    fn failure_during_checkpoint_redoes_whole_segment() {
        // Segment [0, 11): 10 s work + 1 s checkpoint. Failure at t=10.5
        // (inside the checkpoint) → all 10 s redone.
        let out = simulate_run(
            s(20.0),
            s(10.0),
            s(1.0),
            SimTime::ZERO,
            s(2.0),
            &fail_at(&[10.5]),
        );
        assert_eq!(out.failures_hit, 1);
        assert_eq!(out.rework_time, s(10.0));
        // Timeline: fail at 10.5 + 2 restart = 12.5; redo seg → 12.5+11 =
        // 23.5; final seg 10 s (no final ckpt) → 33.5.
        assert_eq!(out.wall_time, s(33.5));
    }

    #[test]
    fn repeated_failures_still_terminate() {
        let out = simulate_run(
            s(50.0),
            s(5.0),
            s(0.5),
            SimTime::ZERO,
            s(1.0),
            &fail_at(&[3.0, 9.0, 14.0, 30.0, 31.0, 90.0]),
        );
        assert!(out.wall_time > s(50.0));
        assert!(out.failures_hit >= 4);
    }

    #[test]
    fn failures_after_completion_ignored() {
        let out = simulate_run(
            s(10.0),
            s(20.0),
            s(1.0),
            SimTime::ZERO,
            s(5.0),
            &fail_at(&[100.0]),
        );
        assert_eq!(out.wall_time, s(10.0));
        assert_eq!(out.failures_hit, 0);
    }

    #[test]
    fn short_intervals_trade_checkpoints_for_rework() {
        // With frequent failures, a short interval beats a long one; with no
        // failures the long interval wins.
        let many_failures = fail_at(&(1..40).map(|i| i as f64 * 13.0).collect::<Vec<_>>());
        let short = simulate_run(
            s(200.0),
            s(5.0),
            s(0.5),
            SimTime::ZERO,
            s(2.0),
            &many_failures,
        );
        let long = simulate_run(
            s(200.0),
            s(100.0),
            s(0.5),
            SimTime::ZERO,
            s(2.0),
            &many_failures,
        );
        assert!(
            short.wall_time < long.wall_time,
            "short {} vs long {}",
            short.wall_time,
            long.wall_time
        );
        let short_ff = simulate_run(s(200.0), s(5.0), s(0.5), SimTime::ZERO, s(2.0), &[]);
        let long_ff = simulate_run(s(200.0), s(100.0), s(0.5), SimTime::ZERO, s(2.0), &[]);
        assert!(long_ff.wall_time < short_ff.wall_time);
    }

    #[test]
    fn young_interval_is_near_optimal_under_model() {
        // Sweep intervals under a sampled failure trace; Young's optimum
        // should be within 25% of the best sweep point's wall time.
        let mtbf = s(500.0);
        let ckpt = s(2.0);
        let model = FailureModel::new(mtbf);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let trace = model.sample_trace(&mut rng, &nodes, s(1e6));
        let work = s(5000.0);
        let restart = s(5.0);

        let wall =
            |iv: f64| simulate_run(work, s(iv), ckpt, SimTime::ZERO, restart, &trace).wall_time;
        let best = [5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0]
            .iter()
            .map(|&iv| wall(iv))
            .min()
            .unwrap();
        let young = crate::interval::young_daly_interval(ckpt, model.system_mtbf(4));
        let at_young = wall(young.as_secs());
        assert!(
            at_young.as_secs() <= best.as_secs() * 1.25,
            "young {at_young} vs best {best}"
        );
    }

    #[test]
    fn async_run_beats_sync_when_drain_hides() {
        // Checkpoint cost 10 s (2 s local + 8 s drain), interval 50 s:
        // async hides the 8 s behind the next segment.
        let sync = simulate_run(s(500.0), s(50.0), s(10.0), SimTime::ZERO, s(5.0), &[]);
        let asynch = simulate_run(s(500.0), s(50.0), s(2.0), s(8.0), s(5.0), &[]);
        assert!(
            asynch.wall_time < sync.wall_time,
            "async {} < sync {}",
            asynch.wall_time,
            sync.wall_time
        );
        // Ideal: only the local stages block → 500 + 9×2 = 518 s.
        assert!(
            (asynch.wall_time.as_secs() - 518.0).abs() < 1e-9,
            "{}",
            asynch.wall_time
        );
    }

    #[test]
    fn async_drain_spills_when_segment_too_short() {
        // Drain 30 s, segment 10 s: 20 s of each drain spills into blocking
        // time — async cannot hide what the interval doesn't allow.
        let out = simulate_run(s(100.0), s(10.0), s(1.0), s(30.0), s(5.0), &[]);
        assert!(out.wall_time > s(100.0 + 9.0));
        assert!(out.checkpoint_time > s(9.0));
    }

    #[test]
    fn async_failure_restarts_from_drained_state() {
        // Timeline: ckpt 1 drains by t=16 (protects 10 s), ckpt 2 by t=27
        // (protects 20 s). A failure at t=30 therefore loses only the 8 s
        // computed since t=22 — the drained checkpoint 2 is usable.
        let failures = fail_at(&[30.0]);
        let out = simulate_run(s(100.0), s(10.0), s(1.0), s(5.0), s(2.0), &failures);
        assert_eq!(out.failures_hit, 1);
        assert!(
            (out.rework_time.as_secs() - 8.0).abs() < 1e-9,
            "rework {}",
            out.rework_time
        );
        assert!(out.wall_time > s(100.0));
    }

    #[test]
    fn async_failure_with_inflight_drain_loses_more() {
        // Failure at t=25, before ckpt 2's drain finishes at 27: restart
        // falls back to ckpt 1 (10 s protected) → 10 + 3 s of rework.
        let failures = fail_at(&[25.0]);
        let out = simulate_run(s(100.0), s(10.0), s(1.0), s(5.0), s(2.0), &failures);
        assert_eq!(out.failures_hit, 1);
        assert!(
            (out.rework_time.as_secs() - 13.0).abs() < 1e-9,
            "rework {}",
            out.rework_time
        );
    }
}
