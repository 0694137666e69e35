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
/// Returns effectively-unbounded time when even draining everything is
/// not enough (the caller decides whether that is a hard error).
pub(crate) fn shadow_start(
    free_cn: usize,
    free_bn: usize,
    need_cn: usize,
    need_bn: usize,
    running: &[RunningView],
    now: SimTime,
) -> SimTime {
    let mut free_cn = free_cn;
    let mut free_bn = free_bn;
    if free_cn >= need_cn && free_bn >= need_bn {
        return now;
    }
    let mut ends: Vec<&RunningView> = running.iter().collect();
    ends.sort_by_key(|r| r.end);
    for r in ends {
        free_cn += r.cn;
        free_bn += r.bn;
        if free_cn >= need_cn && free_bn >= need_bn {
            return r.end.max(now);
        }
    }
    // Cannot start with current information; effectively unbounded.
    SimTime::from_secs(f64::MAX / 4.0)
}

/// Whether starting `cand` now still leaves the `(head_cn, head_bn)` head
/// job its reservation at `shadow` (conservative node-count check): nodes
/// released at or before the shadow time, minus whatever the candidate
/// still holds then, must cover the head.
pub(crate) fn fits_beside_head(
    free_cn: usize,
    free_bn: usize,
    cand: RunningView,
    head_cn: usize,
    head_bn: usize,
    running: &[RunningView],
    shadow: SimTime,
) -> bool {
    let mut free_cn = free_cn;
    let mut free_bn = free_bn;
    for r in running {
        if r.end <= shadow {
            free_cn += r.cn;
            free_bn += r.bn;
        }
    }
    let releases = cand.end <= shadow;
    let held_cn = if releases { 0 } else { cand.cn };
    let held_bn = if releases { 0 } else { cand.bn };
    free_cn >= head_cn + held_cn && free_bn >= head_bn + held_bn
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
        let running = [view(8, 0, 30.0), view(8, 4, 10.0)];
        // Fits now: 4 CN free, need 4.
        assert_eq!(shadow_start(4, 0, 4, 0, &running, s(1.0)), s(1.0));
        // Needs the t=10 release only.
        assert_eq!(shadow_start(0, 0, 8, 2, &running, s(1.0)), s(10.0));
        // Needs both releases.
        assert_eq!(shadow_start(0, 0, 16, 0, &running, s(1.0)), s(30.0));
        // Never fits: effectively unbounded.
        assert!(shadow_start(0, 0, 99, 0, &running, s(1.0)) > s(1e9));
    }

    #[test]
    fn fits_beside_head_accounts_for_held_nodes_at_shadow() {
        let running = [view(12, 0, 50.0)];
        let shadow = s(50.0);
        // Candidate ends before the shadow: holds nothing then → fits.
        assert!(fits_beside_head(
            4,
            8,
            view(4, 0, 20.0),
            16,
            0,
            &running,
            shadow
        ));
        // Candidate outlives the shadow and would hold 4 of the CN the
        // head needs → rejected.
        assert!(!fits_beside_head(
            4,
            8,
            view(4, 0, 80.0),
            16,
            0,
            &running,
            shadow
        ));
    }
}
