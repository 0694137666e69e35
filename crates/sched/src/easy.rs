//! EASY-backfill reservation arithmetic over node counts: when the
//! blocked queue head can start at the latest, and whether a later job may
//! start now without pushing that back. The engine feeds *worst-case* end
//! bounds through both, so the guarantee survives runtimes that stretch
//! under fabric contention.

use hwmodel::SimTime;

/// A job's footprint as the backfill policy sees it: how many nodes it
/// holds per module (as the pools charge them) and when they come back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RunningView {
    /// Cluster nodes held.
    pub cn: usize,
    /// Booster nodes held.
    pub bn: usize,
    /// When the nodes return (an upper bound is acceptable).
    pub end: SimTime,
}

/// Earliest time a `(need_cn, need_bn)` request could be satisfied given
/// `free_*` nodes now and the running set's end times: walk completions
/// in end order, accumulating released nodes, until the request fits.
/// `running` is left in that order (a stable sort: equal ends keep their
/// input order). Returns effectively-unbounded time when even draining
/// everything is not enough (the caller decides whether that is a hard
/// error).
pub(crate) fn shadow_start(
    free_cn: usize,
    free_bn: usize,
    need_cn: usize,
    need_bn: usize,
    running: &mut [RunningView],
    now: SimTime,
) -> SimTime {
    let mut free_cn = free_cn;
    let mut free_bn = free_bn;
    if free_cn >= need_cn && free_bn >= need_bn {
        return now;
    }
    running.sort_by_key(|r| r.end);
    for r in running.iter() {
        free_cn += r.cn;
        free_bn += r.bn;
        if free_cn >= need_cn && free_bn >= need_bn {
            return r.end.max(now);
        }
    }
    // Cannot start with current information; effectively unbounded.
    SimTime::from_secs(f64::MAX / 4.0)
}

/// Nodes free at `shadow`: what is free now plus what the running set
/// returns by then. A job started now that outlasts the shadow leaves
/// the `(head_cn, head_bn)` head its reservation when this still covers
/// the head's need plus its own (conservative node-count check).
pub(crate) fn surplus_at(
    free_cn: usize,
    free_bn: usize,
    running: &[RunningView],
    shadow: SimTime,
) -> (usize, usize) {
    running
        .iter()
        .filter(|r| r.end <= shadow)
        .fold((free_cn, free_bn), |(cn, bn), r| (cn + r.cn, bn + r.bn))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(cn: usize, bn: usize, end: f64) -> RunningView {
        RunningView {
            cn,
            bn,
            end: SimTime::from_secs(end),
        }
    }

    fn s(x: f64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn shadow_start_walks_completions_in_end_order() {
        let mut running = [view(8, 0, 30.0), view(8, 4, 10.0)];
        // Fits now: 4 CN free, need 4.
        assert_eq!(shadow_start(4, 0, 4, 0, &mut running, s(1.0)), s(1.0));
        // Needs the t=10 release only.
        assert_eq!(shadow_start(0, 0, 8, 2, &mut running, s(1.0)), s(10.0));
        // Needs both releases.
        assert_eq!(shadow_start(0, 0, 16, 0, &mut running, s(1.0)), s(30.0));
        // Never fits: effectively unbounded.
        assert!(shadow_start(0, 0, 99, 0, &mut running, s(1.0)) > s(1e9));
    }

    #[test]
    fn shadow_start_sorts_in_place_and_keeps_equal_ends_in_input_order() {
        let mut running = [
            view(2, 0, 40.0),
            view(4, 1, 20.0),
            view(1, 0, 10.0),
            view(4, 2, 20.0),
        ];
        // 1 + 4 CN are back at t = 20 with the first of the two jobs that
        // end then: the first covering end, not the later 40.
        assert_eq!(shadow_start(0, 0, 5, 0, &mut running, s(1.0)), s(20.0));
        assert_eq!(
            running,
            [
                view(1, 0, 10.0),
                view(4, 1, 20.0),
                view(4, 2, 20.0),
                view(2, 0, 40.0)
            ]
        );
        // Sorted already, it walks the same way.
        assert_eq!(shadow_start(0, 0, 9, 3, &mut running, s(1.0)), s(20.0));
        assert_eq!(shadow_start(0, 0, 10, 0, &mut running, s(1.0)), s(40.0));
    }

    #[test]
    fn surplus_counts_only_what_returns_by_the_shadow() {
        let running = [view(12, 0, 50.0), view(2, 4, 80.0)];
        // 4 CN free + 12 back by t=50: a 16-CN head is covered, with no
        // room beside it for a 4-CN job that outlasts the shadow.
        assert_eq!(surplus_at(4, 8, &running, s(50.0)), (16, 8));
        assert_eq!(surplus_at(4, 8, &running, s(80.0)), (18, 12));
        assert_eq!(surplus_at(4, 8, &running, s(10.0)), (4, 8));
    }
}
