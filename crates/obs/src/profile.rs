//! Profile model: fold spans into per-rank and per-module breakdowns.
//!
//! Spans nest strictly per track, so each instant belongs to the innermost
//! span covering it. The profile sweeps each track once, attributing every
//! span's *exclusive* time (duration minus nested children) to a category
//! bucket and to the innermost enclosing [`Category::Phase`] span's module.
//! Bytes are aggregated from message edges into a [`TrafficSummary`] by
//! node-kind pair.

use crate::recorder::{Category, Span, Trace, TrackKey, TrackView};
use hwmodel::{NodeKind, SimTime};
use std::collections::BTreeMap;

/// Seconds by coarse activity class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Bucket {
    /// Kernel compute time.
    pub compute: SimTime,
    /// Messaging CPU time: sends, collective framing, offload machinery.
    pub comm: SimTime,
    /// Blocking time: receives and explicit waits.
    pub wait: SimTime,
    /// Storage/checkpoint time.
    pub io: SimTime,
    /// Time inside spans that fits no other class (e.g. a phase span's own
    /// unnested remainder).
    pub other: SimTime,
}

impl Bucket {
    /// Add `t` seconds of `cat` to the right class.
    pub fn add(&mut self, cat: Category, t: SimTime) {
        match cat {
            Category::Compute => self.compute += t,
            Category::Send | Category::Collective | Category::Offload => self.comm += t,
            Category::Recv | Category::Wait => self.wait += t,
            Category::Io | Category::Checkpoint | Category::CkptLocal | Category::CkptDrain => {
                self.io += t
            }
            Category::Phase | Category::Failure | Category::Recovery => self.other += t,
        }
    }

    /// Sum over all classes.
    pub fn total(&self) -> SimTime {
        self.compute + self.comm + self.wait + self.io + self.other
    }
}

/// One rank's time breakdown.
#[derive(Debug, Clone)]
pub struct RankProfile {
    /// Which rank.
    pub key: TrackKey,
    /// Node-kind label ("CN", "BN", …).
    pub kind: &'static str,
    /// Virtual time from the rank's start to its final clock.
    pub total: SimTime,
    /// Exclusive span time by class.
    pub busy: Bucket,
    /// Time covered by no span at all.
    pub untracked: SimTime,
    /// Transfer time hidden behind local work (sum over received
    /// messages of the part of their flight the receiver did not wait
    /// for) — the overlap the paper's Listing 4 pattern is after.
    pub overlap: SimTime,
    /// Bytes received over the fabric.
    pub bytes_in: u64,
}

/// The folded profile of a whole trace.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Per-rank rows, in `(world, rank)` order.
    pub ranks: Vec<RankProfile>,
    /// Per-module (innermost enclosing phase span) breakdown; spans outside
    /// any phase land under `"(unphased)"`.
    pub modules: BTreeMap<String, Bucket>,
    /// Traffic by node-kind pair.
    pub traffic: TrafficSummary,
    /// Job virtual runtime.
    pub makespan: SimTime,
}

/// Messages and bytes between node-kind pairs, folded from the message
/// edges (one per cross-rank delivery; a self-send has none).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficSummary {
    /// (src kind label, dst kind label) → (messages, bytes).
    pub pairs: BTreeMap<(String, String), (u64, u64)>,
    /// Total messages.
    pub messages: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Largest single message.
    pub max_message: u64,
}

impl TrafficSummary {
    fn add(&mut self, src: &str, dst: &str, bytes: u64) {
        let entry = self
            .pairs
            .entry((src.to_string(), dst.to_string()))
            .or_insert((0, 0));
        entry.0 += 1;
        entry.1 += bytes;
        self.messages += 1;
        self.bytes += bytes;
        self.max_message = self.max_message.max(bytes);
    }

    /// Bytes exchanged between two kinds (both directions).
    pub fn between(&self, a: NodeKind, b: NodeKind) -> u64 {
        let one_way = |s: NodeKind, d: NodeKind| {
            self.pairs
                .get(&(s.label().to_string(), d.label().to_string()))
                .map_or(0, |v| v.1)
        };
        if a == b {
            one_way(a, a)
        } else {
            one_way(a, b) + one_way(b, a)
        }
    }

    /// Render as a text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "traffic: {} messages, {} bytes (largest {})\n",
            self.messages, self.bytes, self.max_message
        );
        out.push_str(&format!(
            "{:>6} → {:<6} {:>10} {:>14}\n",
            "src", "dst", "msgs", "bytes"
        ));
        for ((s, d), (m, b)) in &self.pairs {
            out.push_str(&format!("{s:>6} → {d:<6} {m:>10} {b:>14}\n"));
        }
        out
    }
}

impl Profile {
    /// Whole-job bucket: sum of the per-rank busy buckets.
    pub fn total(&self) -> Bucket {
        let mut b = Bucket::default();
        for r in &self.ranks {
            b.compute += r.busy.compute;
            b.comm += r.busy.comm;
            b.wait += r.busy.wait;
            b.io += r.busy.io;
            b.other += r.busy.other;
        }
        b
    }

    /// Wait seconds summed over ranks whose node-kind label is `kind` —
    /// the quantity behind "particle-solver wait on the Cluster drops".
    pub fn wait_on_kind(&self, kind: &str) -> SimTime {
        self.ranks
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.busy.wait)
            .sum()
    }
}

/// A maximal interval during which one span is the innermost cover.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafSegment {
    pub start: SimTime,
    pub end: SimTime,
    pub cat: Category,
    /// Index (into the track's sorted span list) of the innermost
    /// enclosing phase span, if any.
    pub phase: Option<usize>,
}

/// Decompose a track's (sorted, strictly nested) spans into leaf segments.
pub(crate) fn leaf_segments(spans: &[Span]) -> Vec<LeafSegment> {
    // Stack entries: (span index, cursor, innermost phase index).
    let mut stack: Vec<(usize, SimTime, Option<usize>)> = Vec::new();
    let mut segs = Vec::new();
    let mut emit = |start: SimTime, end: SimTime, cat: Category, phase: Option<usize>| {
        if end > start {
            segs.push(LeafSegment {
                start,
                end,
                cat,
                phase,
            });
        }
    };
    for (i, s) in spans.iter().enumerate() {
        // Pop finished ancestors: anything that does not contain `s`.
        while let Some(&(top, cursor, phase)) = stack.last() {
            let tp = &spans[top];
            if s.end <= tp.end && s.start >= tp.start && s.start < tp.end {
                break;
            }
            emit(cursor, tp.end, tp.cat, phase);
            stack.pop();
        }
        // The parent's own time up to where the child starts.
        if let Some(top) = stack.last_mut() {
            let (t, cursor, phase) = *top;
            emit(cursor, s.start, spans[t].cat, phase);
            top.1 = s.end;
        }
        let phase_here = if s.cat == Category::Phase {
            Some(i)
        } else {
            stack.last().and_then(|&(_, _, p)| p)
        };
        stack.push((i, s.start, phase_here));
    }
    while let Some((top, cursor, phase)) = stack.pop() {
        emit(cursor, spans[top].end, spans[top].cat, phase);
    }
    segs.sort_by_key(|a| a.start);
    segs
}

fn rank_profile(track: &TrackView) -> (RankProfile, BTreeMap<String, Bucket>) {
    let segs = leaf_segments(&track.spans);
    let mut busy = Bucket::default();
    let mut modules: BTreeMap<String, Bucket> = BTreeMap::new();
    for seg in &segs {
        let dur = seg.end - seg.start;
        busy.add(seg.cat, dur);
        let module = match seg.phase {
            Some(i) => track.spans[i].name.clone(),
            None => "(unphased)".to_string(),
        };
        modules.entry(module).or_default().add(seg.cat, dur);
    }
    let total = track.duration();
    let untracked = total.saturating_sub(busy.total());
    let mut overlap = SimTime::ZERO;
    let mut bytes_in = 0u64;
    for e in &track.edges {
        overlap += e.overlap();
        bytes_in += e.bytes;
    }
    (
        RankProfile {
            key: track.key,
            kind: track.kind,
            total,
            busy,
            untracked,
            overlap,
            bytes_in,
        },
        modules,
    )
}

impl Trace {
    /// Fold the trace into per-rank and per-module breakdowns plus a
    /// kind-pair traffic summary.
    pub fn profile(&self) -> Profile {
        let kinds: BTreeMap<TrackKey, &'static str> =
            self.tracks.iter().map(|t| (t.key, t.kind)).collect();
        let mut ranks = Vec::with_capacity(self.tracks.len());
        let mut modules: BTreeMap<String, Bucket> = BTreeMap::new();
        let mut traffic = TrafficSummary::default();
        for track in &self.tracks {
            let (row, track_modules) = rank_profile(track);
            ranks.push(row);
            for (name, b) in track_modules {
                let m = modules.entry(name).or_default();
                m.compute += b.compute;
                m.comm += b.comm;
                m.wait += b.wait;
                m.io += b.io;
                m.other += b.other;
            }
            for e in &track.edges {
                let src_kind = e.src.and_then(|k| kinds.get(&k).copied()).unwrap_or("??");
                traffic.add(src_kind, track.kind, e.bytes);
            }
        }
        Profile {
            ranks,
            modules,
            traffic,
            makespan: self.makespan(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn exclusive_attribution_under_nesting() {
        let rec = Recorder::new();
        let tr = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 0, SimTime::ZERO, None);
        let phase = tr.open_span(Category::Phase, "solver", t(0.0));
        tr.span(Category::Compute, "k1", t(0.1), t(0.4));
        tr.span(Category::Recv, "recv", t(0.4), t(0.7));
        phase.close(t(1.0));
        tr.set_final(t(1.0));
        let p = rec.snapshot().profile();
        let r = &p.ranks[0];
        assert!((r.busy.compute.as_secs() - 0.3).abs() < 1e-12);
        assert!((r.busy.wait.as_secs() - 0.3).abs() < 1e-12);
        // Phase exclusive remainder: 1.0 - 0.6 nested = 0.4.
        assert!((r.busy.other.as_secs() - 0.4).abs() < 1e-12);
        assert_eq!(r.untracked, SimTime::ZERO);
        let m = &p.modules["solver"];
        assert!((m.compute.as_secs() - 0.3).abs() < 1e-12);
        assert!((m.wait.as_secs() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn untracked_gap_measured() {
        let rec = Recorder::new();
        let tr = rec.register(TrackKey { world: 0, rank: 0 }, "BN", 0, SimTime::ZERO, None);
        tr.span(Category::Compute, "k", t(0.0), t(0.25));
        tr.set_final(t(1.0));
        let p = rec.snapshot().profile();
        assert_eq!(p.ranks[0].busy.compute, t(0.25));
        assert_eq!(p.ranks[0].untracked, t(0.75));
        assert_eq!(p.modules["(unphased)"].compute, t(0.25));
    }

    #[test]
    fn traffic_by_kind_pair() {
        let rec = Recorder::new();
        let _a = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 1, SimTime::ZERO, None);
        let b = rec.register(TrackKey { world: 0, rank: 1 }, "BN", 2, SimTime::ZERO, None);
        b.edge(1, t(0.0), t(0.0), t(0.1), 500);
        b.edge(1, t(0.2), t(0.3), t(0.3), 300);
        let p = rec.snapshot().profile();
        assert_eq!(p.traffic.messages, 2);
        assert_eq!(p.traffic.bytes, 800);
        assert_eq!(p.traffic.pairs[&("CN".into(), "BN".into())], (2, 800));
        assert_eq!(p.traffic.max_message, 500);
        // Second edge fully overlapped (receiver arrived later).
        assert!((p.ranks[1].overlap.as_secs() - 0.1).abs() < 1e-12);
    }
}
