//! Critical-path analysis over the send→recv dependency graph.
//!
//! Every receive records the sender's injection stamp and the receiver's
//! clocks before/after delivery, so the trace carries the full dependency
//! DAG of the job in virtual time. The analyzer walks it *backward* from
//! the rank that finishes last: while the current rank was not blocked, the
//! path runs through its own spans; at the latest blocking receive it jumps
//! to the sender at the injection stamp, charging the flight time to
//! `transfer`; spawned worlds jump to the parent rank that launched them.
//! The walk terminates at virtual time zero, so the per-category seconds
//! sum *exactly* to the job's virtual runtime — the decomposition the
//! paper's Fig. 8 discussion does by hand ("C+B wins because the particle
//! solver no longer waits on the Cluster").

use crate::profile::leaf_segments;
use crate::recorder::{Trace, TrackKey};
use hwmodel::SimTime;
use std::collections::BTreeMap;

/// Attribution label for time on the critical path that is not inside any
/// span: gaps between instrumented regions.
pub const UNTRACKED: &str = "untracked";
/// Attribution label for message flight time (injection → delivery).
pub const TRANSFER: &str = "transfer";

/// The longest dependency chain of a job.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Path length — by construction the job's virtual runtime.
    pub length: SimTime,
    /// Track the job finished on.
    pub end: TrackKey,
    /// Seconds of the path by span-category label, plus [`TRANSFER`] and
    /// [`UNTRACKED`].
    pub categories: BTreeMap<&'static str, SimTime>,
    /// Tracks the walk visited, one per segment: rank-to-rank message
    /// jumps and spawn hops each start a new one.
    pub hops: usize,
    /// Distinct worlds the path visits (>1 when it crosses an
    /// intercommunicator).
    pub worlds: Vec<u64>,
}

impl CriticalPath {
    /// Sum of all category attributions; equals [`CriticalPath::length`]
    /// up to floating-point addition (the acceptance bound is 1e-9 s).
    pub fn total(&self) -> SimTime {
        self.categories.values().copied().sum()
    }

    /// Share of the path in a category, in [0, 1].
    pub fn share(&self, label: &str) -> f64 {
        if self.length.is_zero() {
            return 0.0;
        }
        self.categories.get(label).map_or(0.0, |t| *t / self.length)
    }
}

impl Trace {
    /// Walk the critical path from the last final clock back to virtual
    /// time zero.
    pub fn critical_path(&self) -> CriticalPath {
        let Some(end_track) = self
            .tracks
            .iter()
            .max_by(|a, z| a.final_clock.cmp(&z.final_clock).then(z.key.cmp(&a.key)))
        else {
            return CriticalPath::default();
        };
        let mut categories: BTreeMap<&'static str, SimTime> = BTreeMap::new();
        let mut hops = 0;
        let mut worlds = Vec::new();
        // Leaf segments are computed lazily per visited track.
        let mut segs_cache: BTreeMap<TrackKey, Vec<crate::profile::LeafSegment>> = BTreeMap::new();

        let mut cur = end_track;
        let mut t = end_track.final_clock;
        let length = t;
        // Message hops strictly decrease `t` whenever the fabric has
        // positive latency; the bound below keeps a degenerate zero-latency
        // model from cycling (the residue stays accounted as untracked).
        let hop_limit =
            16 + self.tracks.len() + self.tracks.iter().map(|tr| tr.edges.len()).sum::<usize>();
        loop {
            if hops > hop_limit {
                *categories.entry(UNTRACKED).or_insert(SimTime::ZERO) += t;
                break;
            }
            if !worlds.contains(&cur.key.world) {
                worlds.push(cur.key.world);
            }
            // Latest receive this rank actually blocked on, at or before t.
            // Edges are in program order, so clocks are nondecreasing and
            // a reverse scan finds the latest first.
            let edge =
                cur.edges.iter().rev().find(|e| {
                    e.post <= t && e.blocked() && e.src.is_some() && e.src != Some(cur.key)
                });
            let lower = match edge {
                Some(e) => e.post,
                None => cur.start.min(t),
            };
            // Attribute (lower, t] on this track: innermost span covering
            // each instant wins, uncovered time is untracked.
            let segs = segs_cache
                .entry(cur.key)
                .or_insert_with(|| leaf_segments(&cur.spans));
            let mut covered = SimTime::ZERO;
            for seg in segs.iter() {
                let s = seg.start.max(lower);
                let e = seg.end.min(t);
                if e > s {
                    let d = e - s;
                    covered += d;
                    *categories.entry(seg.cat.label()).or_insert(SimTime::ZERO) += d;
                }
            }
            let window = t.saturating_sub(lower);
            *categories.entry(UNTRACKED).or_insert(SimTime::ZERO) += window.saturating_sub(covered);

            match edge {
                Some(e) => {
                    let flight = e.post.saturating_sub(e.send_stamp);
                    *categories.entry(TRANSFER).or_insert(SimTime::ZERO) += flight;
                    hops += 1;
                    t = e.send_stamp;
                    let src = e.src.expect("blocking edge has a resolved sender");
                    cur = self.track(src).expect("sender track in trace");
                }
                None => {
                    hops += 1;
                    match cur.origin.and_then(|o| self.track(o)) {
                        // Spawn hop: the child's start clock *is* the
                        // parent's clock at the spawn call (zero-width).
                        Some(parent) if !lower.is_zero() => {
                            t = lower;
                            cur = parent;
                        }
                        _ => {
                            // Root of the walk. Any remaining time below
                            // the track start is outside instrumentation.
                            *categories.entry(UNTRACKED).or_insert(SimTime::ZERO) += lower;
                            break;
                        }
                    }
                }
            }
        }
        worlds.sort_unstable();
        CriticalPath {
            length,
            end: end_track.key,
            categories,
            hops,
            worlds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Category, Recorder, TrackKey};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_track_path_is_its_own_timeline() {
        let rec = Recorder::new();
        let tr = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 0, SimTime::ZERO, None);
        tr.span(Category::Compute, "k", t(0.0), t(0.6));
        tr.span(Category::Send, "send", t(0.6), t(0.7));
        tr.set_final(t(1.0));
        let cp = rec.snapshot().critical_path();
        assert_eq!(cp.length, t(1.0));
        assert_eq!(cp.categories["compute"], t(0.6));
        assert!((cp.categories["send"].as_secs() - 0.1).abs() < 1e-12);
        assert!((cp.categories[UNTRACKED].as_secs() - 0.3).abs() < 1e-12);
        assert!((cp.total().as_secs() - cp.length.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn blocking_edge_jumps_to_sender() {
        let rec = Recorder::new();
        let a = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 1, SimTime::ZERO, None);
        let b = rec.register(TrackKey { world: 0, rank: 1 }, "BN", 2, SimTime::ZERO, None);
        // Rank 0 computes 0..0.5 then sends; rank 1 posts a recv at 0.1,
        // message lands at 0.55, rank 1 then computes to 0.8.
        a.span(Category::Compute, "ka", t(0.0), t(0.5));
        a.span(Category::Send, "send", t(0.5), t(0.5));
        a.set_final(t(0.5));
        b.span(Category::Recv, "recv", t(0.1), t(0.55));
        b.edge(1, t(0.5), t(0.1), t(0.55), 100);
        b.span(Category::Compute, "kb", t(0.55), t(0.8));
        b.set_final(t(0.8));
        let cp = rec.snapshot().critical_path();
        assert_eq!(cp.end, TrackKey { world: 0, rank: 1 });
        assert_eq!(cp.length, t(0.8));
        // Path: kb (0.25) ← transfer (0.05) ← ka (0.5) on the sender.
        assert!((cp.categories["compute"].as_secs() - 0.75).abs() < 1e-12);
        assert!((cp.categories[TRANSFER].as_secs() - 0.05).abs() < 1e-12);
        assert!(cp.categories.get("recv").copied().unwrap_or(SimTime::ZERO) < t(1e-12));
        assert!((cp.total().as_secs() - 0.8).abs() < 1e-9);
        assert_eq!(cp.hops, 2);
    }

    #[test]
    fn spawn_origin_crosses_worlds() {
        let rec = Recorder::new();
        let parent = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 1, SimTime::ZERO, None);
        let child = rec.register(
            TrackKey { world: 1, rank: 0 },
            "BN",
            2,
            t(0.2),
            Some(TrackKey { world: 0, rank: 0 }),
        );
        parent.span(Category::Offload, "comm_spawn", t(0.0), t(0.2));
        parent.set_final(t(0.2));
        child.span(Category::Compute, "kernel", t(0.2), t(1.0));
        child.set_final(t(1.0));
        let cp = rec.snapshot().critical_path();
        assert_eq!(cp.length, t(1.0));
        assert_eq!(cp.worlds, vec![0, 1]);
        assert!((cp.categories["compute"].as_secs() - 0.8).abs() < 1e-12);
        assert!((cp.categories["offload"].as_secs() - 0.2).abs() < 1e-12);
        assert!((cp.total().as_secs() - 1.0).abs() < 1e-9);
    }
}
