//! The span/counter recorder: one virtual-time track per rank.

use hwmodel::SimTime;
use lockrank::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a span measures. The category drives the profile buckets and the
/// critical-path attribution; the span *name* is free-form detail (kernel
/// name, collective name, phase name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Charged kernel work ([`psmpi` `Rank::compute`]).
    Compute,
    /// Sender-side messaging CPU time (injection overhead).
    Send,
    /// Receive calls, including any blocking on the sender/fabric.
    Recv,
    /// Explicit waits (request completion, modelled barrier idling).
    Wait,
    /// Collective operations (the whole call, p2p spans nest inside).
    Collective,
    /// File/storage I/O.
    Io,
    /// Checkpoint/restart activity (SCR levels).
    Checkpoint,
    /// The blocking local-NVMe stage of an asynchronous checkpoint — the
    /// only part of the checkpoint on the application's critical path.
    CkptLocal,
    /// Waits on an asynchronous checkpoint's buddy/global drain; time
    /// here is drain that the intervening compute failed to hide.
    CkptDrain,
    /// Offload machinery: `MPI_Comm_spawn`, OmpSs task shipping.
    Offload,
    /// Application phase marker (field-solve, mover, …); phases group the
    /// leaf spans nested inside them into per-module breakdowns.
    Phase,
    /// A node failure observed by the failing rank itself (fault injection).
    Failure,
    /// Checkpoint-restart recovery: restart, repair and respawn machinery,
    /// so `Trace::profile()` can attribute lost+replayed time.
    Recovery,
}

impl Category {
    /// Stable label used in exports and category maps.
    pub fn label(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Send => "send",
            Category::Recv => "recv",
            Category::Wait => "wait",
            Category::Collective => "collective",
            Category::Io => "io",
            Category::Checkpoint => "checkpoint",
            Category::CkptLocal => "ckpt_local",
            Category::CkptDrain => "ckpt_drain",
            Category::Offload => "offload",
            Category::Phase => "phase",
            Category::Failure => "failure",
            Category::Recovery => "recovery",
        }
    }
}

/// Identity of one track: `(world id, rank index)`. Total order gives the
/// deterministic track ordering of every export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackKey {
    /// Communicator id of the rank's world.
    pub world: u64,
    /// Rank index within that world.
    pub rank: u64,
}

/// One closed span on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span category.
    pub cat: Category,
    /// Free-form name (kernel, collective, phase).
    pub name: String,
    /// Opening virtual time.
    pub start: SimTime,
    /// Closing virtual time.
    pub end: SimTime,
    /// Nesting depth at open (0 = top level).
    pub depth: u32,
}

/// One recorded message dependency, stored on the *receiving* track.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RawEdge {
    src_endpoint: u64,
    send_stamp: SimTime,
    pre: SimTime,
    post: SimTime,
    bytes: u64,
}

/// A message edge as seen in a [`Trace`] snapshot, with the sender
/// resolved to its track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeView {
    /// Sending track (`None` if the sender had no registered track).
    pub src: Option<TrackKey>,
    /// Sender's virtual clock at injection.
    pub send_stamp: SimTime,
    /// Receiver's clock when the receive was posted.
    pub pre: SimTime,
    /// Receiver's clock after delivery (`max(pre, network arrival)`).
    pub post: SimTime,
    /// Wire bytes charged.
    pub bytes: u64,
}

impl EdgeView {
    /// Whether the receiver actually waited on this message.
    pub fn blocked(&self) -> bool {
        self.post > self.pre
    }

    /// Transfer time hidden behind local work: the part of
    /// `send_stamp → post` during which the receiver was still busy.
    pub fn overlap(&self) -> SimTime {
        self.pre.min(self.post).saturating_sub(self.send_stamp)
    }
}

/// Mutable per-track state, owned by one rank thread at a time.
struct TrackBuf {
    kind: &'static str,
    start: SimTime,
    origin: Option<TrackKey>,
    spans: Vec<Span>,
    open: Vec<(Category, String, SimTime)>,
    counters: BTreeMap<String, u64>,
    edges: Vec<RawEdge>,
    final_clock: SimTime,
    unclosed: u64,
}

impl TrackBuf {
    /// Close open spans down to stack level `level` at `end`. Deeper spans
    /// still open at that point were leaked (guard dropped without
    /// `close`): they are force-closed at the same time and counted.
    fn close_to(&mut self, level: usize, end: SimTime, leaked: bool) {
        while self.open.len() > level {
            let (cat, name, start) = self.open.pop().expect("open stack non-empty");
            if leaked || self.open.len() > level {
                self.unclosed += 1;
            }
            let depth = self.open.len() as u32;
            self.spans.push(Span {
                cat,
                name,
                start,
                end: end.max(start),
                depth,
            });
        }
        self.final_clock = self.final_clock.max(end);
    }
}

/// Guard returned by [`TrackHandle::open_span`]; finish the span with
/// [`SpanGuard::close`] and the closing virtual time. Dropping the guard
/// without closing records the span as zero-length at its opening time and
/// bumps the track's `unclosed` count (the workspace denies
/// `unused_must_use`, so a call site that discards the guard outright does
/// not compile).
#[must_use = "span guards must be closed with the closing virtual time"]
pub struct SpanGuard {
    buf: Arc<Mutex<TrackBuf, 630>>,
    level: usize,
    armed: bool,
}

impl SpanGuard {
    /// Close the span at virtual time `now`.
    pub fn close(mut self, now: SimTime) {
        self.armed = false;
        self.buf.lock().close_to(self.level, now, false);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            let mut b = self.buf.lock();
            let end = b
                .open
                .get(self.level)
                .map(|(_, _, start)| *start)
                .unwrap_or(SimTime::ZERO);
            b.close_to(self.level, end, true);
        }
    }
}

/// Handle to one rank's track. Clonable; all methods take the caller's
/// current virtual time explicitly — the recorder never reads a clock.
#[derive(Clone)]
pub struct TrackHandle {
    key: TrackKey,
    buf: Arc<Mutex<TrackBuf, 630>>,
}

impl TrackHandle {
    /// This track's identity.
    pub fn key(&self) -> TrackKey {
        self.key
    }

    /// Open a nested span at virtual time `now`.
    pub fn open_span(&self, cat: Category, name: impl Into<String>, now: SimTime) -> SpanGuard {
        let mut b = self.buf.lock();
        let level = b.open.len();
        b.open.push((cat, name.into(), now));
        SpanGuard {
            buf: self.buf.clone(),
            level,
            armed: true,
        }
    }

    /// Record an already-delimited span `[start, end]` at the current
    /// nesting depth (used by the runtime's automatic instrumentation).
    pub fn span(&self, cat: Category, name: impl Into<String>, start: SimTime, end: SimTime) {
        let mut b = self.buf.lock();
        let depth = b.open.len() as u32;
        b.spans.push(Span {
            cat,
            name: name.into(),
            start,
            end: end.max(start),
            depth,
        });
        b.final_clock = b.final_clock.max(end);
    }

    /// Bump a monotonic counter.
    pub fn add(&self, counter: &str, delta: u64) {
        let mut b = self.buf.lock();
        match b.counters.get_mut(counter) {
            Some(v) => *v += delta,
            None => {
                b.counters.insert(counter.to_string(), delta);
            }
        }
    }

    /// Record a message dependency delivered to this track.
    pub fn edge(
        &self,
        src_endpoint: u64,
        send_stamp: SimTime,
        pre: SimTime,
        post: SimTime,
        bytes: u64,
    ) {
        self.buf.lock().edges.push(RawEdge {
            src_endpoint,
            send_stamp,
            pre,
            post,
            bytes,
        });
    }

    /// Record the rank's final clock (called once when the rank finishes).
    pub fn set_final(&self, clock: SimTime) {
        let mut b = self.buf.lock();
        b.final_clock = b.final_clock.max(clock);
    }
}

#[derive(Default)]
struct Inner {
    tracks: Mutex<BTreeMap<TrackKey, Arc<Mutex<TrackBuf, 630>>>, 620>,
    /// Endpoint id → track, for resolving message edges at snapshot time.
    endpoints: Mutex<BTreeMap<u64, TrackKey>, 610>,
}

/// The shared recorder: attach one to a `psmpi` universe and every rank of
/// every subsequent job gets a track with automatic runtime spans.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Recorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Register a track for `(key, endpoint)`. `origin` is the parent
    /// track for dynamically spawned worlds — it gives the critical-path
    /// walk a dependency back across the intercommunicator to the rank
    /// that called spawn.
    pub fn register(
        &self,
        key: TrackKey,
        kind: &'static str,
        endpoint: u64,
        start: SimTime,
        origin: Option<TrackKey>,
    ) -> TrackHandle {
        let buf = Arc::new(Mutex::new(TrackBuf {
            kind,
            start,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            edges: Vec::new(),
            final_clock: start,
            unclosed: 0,
        }));
        self.inner.tracks.lock().insert(key, buf.clone());
        self.inner.endpoints.lock().insert(endpoint, key);
        TrackHandle { key, buf }
    }

    /// Deterministic snapshot of everything recorded so far: tracks in
    /// `(world, rank)` order, spans sorted for containment sweeps, edges
    /// resolved to sender tracks.
    pub fn snapshot(&self) -> Trace {
        let endpoints = self.inner.endpoints.lock().clone();
        let tracks = self.inner.tracks.lock();
        let mut out = Vec::with_capacity(tracks.len());
        for (&key, buf) in tracks.iter() {
            let b = buf.lock();
            let mut spans = b.spans.clone();
            // Parents before children: earlier start first, then wider
            // first, then shallower first.
            spans.sort_by(|a, z| {
                a.start
                    .cmp(&z.start)
                    .then(z.end.cmp(&a.end))
                    .then(a.depth.cmp(&z.depth))
            });
            let edges = b
                .edges
                .iter()
                .map(|e| EdgeView {
                    src: endpoints.get(&e.src_endpoint).copied(),
                    send_stamp: e.send_stamp,
                    pre: e.pre,
                    post: e.post,
                    bytes: e.bytes,
                })
                .collect();
            out.push(TrackView {
                key,
                kind: b.kind,
                start: b.start,
                origin: b.origin,
                spans,
                counters: b.counters.clone(),
                edges,
                final_clock: b.final_clock,
                unclosed: b.unclosed + b.open.len() as u64,
            });
        }
        Trace { tracks: out }
    }
}

/// Immutable snapshot of one track.
#[derive(Debug, Clone)]
pub struct TrackView {
    /// Track identity.
    pub key: TrackKey,
    /// Node-kind label of the rank's node ("CN", "BN", …).
    pub kind: &'static str,
    /// Virtual time the rank started (non-zero for spawned worlds).
    pub start: SimTime,
    /// Parent track, for spawned worlds.
    pub origin: Option<TrackKey>,
    /// Closed spans, sorted parents-before-children.
    pub spans: Vec<Span>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Message deliveries to this track, in receive (program) order.
    pub edges: Vec<EdgeView>,
    /// The rank's final virtual clock.
    pub final_clock: SimTime,
    /// Spans that were never properly closed (API misuse indicator).
    pub unclosed: u64,
}

impl TrackView {
    /// Wall span of the track in virtual time.
    pub fn duration(&self) -> SimTime {
        self.final_clock.saturating_sub(self.start)
    }
}

/// Deterministic snapshot of a whole recording; entry point for the
/// profile model, the critical-path analyzer and the exporters.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Tracks in `(world, rank)` order.
    pub tracks: Vec<TrackView>,
}

impl Trace {
    /// The job's virtual runtime: the maximum final clock over all tracks.
    pub fn makespan(&self) -> SimTime {
        self.tracks
            .iter()
            .map(|t| t.final_clock)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Look up a track.
    pub fn track(&self, key: TrackKey) -> Option<&TrackView> {
        self.tracks.iter().find(|t| t.key == key)
    }

    /// Total spans never closed, across tracks (0 on a healthy recording).
    pub fn unclosed(&self) -> u64 {
        self.tracks.iter().map(|t| t.unclosed).sum()
    }

    /// The middle of the window that follows the `k`-th checkpoint of a
    /// clean checkpointed run, where a fault can name the event it follows
    /// instead of a virtual second. The checkpointing ranks are the tracks
    /// holding `gather` spans, one per checkpoint. The window opens when
    /// the `k`-th `Checkpoint` or `CkptLocal` span closes (the stage of
    /// that checkpoint: `scr_checkpoint`, or `local-stage` in the async
    /// modes) or, for `k = 0`, when the checkpointing ranks start. It
    /// closes at the first `gather` of the next checkpoint on any rank or,
    /// after the last checkpoint, at the earliest final clock among those
    /// ranks. A node that dies in it leaves checkpoint `k` staged and, in
    /// the async modes, not yet promoted. `None` when the run took fewer
    /// than `k` checkpoints.
    pub fn after_checkpoint(&self, k: usize) -> Option<SimTime> {
        fn gathers(t: &TrackView) -> impl Iterator<Item = SimTime> + '_ {
            t.spans
                .iter()
                .filter(|s| s.name == "gather")
                .map(|s| s.start)
        }
        let ranks: Vec<&TrackView> = self
            .tracks
            .iter()
            .filter(|&t| gathers(t).next().is_some())
            .collect();
        let opens = match k {
            0 => ranks.iter().map(|t| t.start).max()?,
            _ => {
                let spans = ranks.iter().flat_map(|t| &t.spans);
                let stage = |s: &&Span| matches!(s.cat, Category::Checkpoint | Category::CkptLocal);
                spans.filter(stage).nth(k - 1)?.end
            }
        };
        let closes = match ranks.iter().filter_map(|t| gathers(t).nth(k)).min() {
            Some(next_gather) => next_gather,
            None => ranks.iter().map(|t| t.final_clock).min()?,
        };
        Some(opens + closes.saturating_sub(opens) * 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn spans_nest_and_sort() {
        let rec = Recorder::new();
        let tr = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 0, SimTime::ZERO, None);
        let outer = tr.open_span(Category::Phase, "phase", t(0.0));
        tr.span(Category::Compute, "k", t(0.1), t(0.4));
        outer.close(t(1.0));
        let snap = rec.snapshot();
        let spans = &snap.tracks[0].spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "k");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(snap.unclosed(), 0);
        assert_eq!(snap.makespan(), t(1.0));
    }

    #[test]
    fn leaked_guard_is_counted() {
        let rec = Recorder::new();
        let tr = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 0, SimTime::ZERO, None);
        {
            let _g = tr.open_span(Category::Wait, "leak", t(0.5));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.unclosed(), 1);
        assert_eq!(snap.tracks[0].spans[0].start, snap.tracks[0].spans[0].end);
    }

    #[test]
    fn close_collapses_deeper_leaks() {
        let rec = Recorder::new();
        let tr = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 0, SimTime::ZERO, None);
        let outer = tr.open_span(Category::Phase, "outer", t(0.0));
        let inner = tr.open_span(Category::Compute, "inner", t(0.2));
        std::mem::forget(inner); // simulate a lost guard (never closed)
        outer.close(t(1.0));
        let snap = rec.snapshot();
        assert_eq!(snap.tracks[0].spans.len(), 2);
        assert_eq!(snap.unclosed(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let rec = Recorder::new();
        let tr = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 0, SimTime::ZERO, None);
        tr.add("bytes_sent", 10);
        tr.add("bytes_sent", 5);
        let snap = rec.snapshot();
        assert_eq!(snap.tracks[0].counters["bytes_sent"], 15);
    }

    #[test]
    fn after_checkpoint_spans_stage_to_next_gather_or_run_end() {
        // Two checkpointing ranks, checkpoints gathered at 1.0 and 3.0 and
        // staged on rank 0 until 1.5 and 3.5; rank 1 gathers later and
        // finishes first. The supervisor track holds no gather.
        let rec = Recorder::new();
        let key = |world, rank| TrackKey { world, rank };
        rec.register(key(0, 0), "CN", 0, t(0.0), None)
            .set_final(t(6.0));
        let r0 = rec.register(key(1, 0), "BN", 1, t(0.5), Some(key(0, 0)));
        let r1 = rec.register(key(1, 1), "BN", 2, t(0.5), Some(key(0, 0)));
        for (at, stage) in [(1.0, Category::Checkpoint), (3.0, Category::CkptLocal)] {
            r0.span(Category::Collective, "gather", t(at), t(at + 0.25));
            r0.span(stage, "stage", t(at + 0.25), t(at + 0.5));
            r1.span(Category::Collective, "gather", t(at + 0.25), t(at + 0.5));
        }
        r0.set_final(t(5.5));
        r1.set_final(t(4.5));
        let trace = rec.snapshot();
        assert_eq!(trace.after_checkpoint(0), Some(t(0.75)));
        assert_eq!(trace.after_checkpoint(1), Some(t(2.25)));
        assert_eq!(trace.after_checkpoint(2), Some(t(4.0)));
        assert_eq!(trace.after_checkpoint(3), None);
    }

    #[test]
    fn edges_resolve_to_tracks() {
        let rec = Recorder::new();
        let a = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 7, SimTime::ZERO, None);
        let b = rec.register(TrackKey { world: 0, rank: 1 }, "BN", 8, SimTime::ZERO, None);
        b.edge(7, t(0.1), t(0.15), t(0.3), 1024);
        a.set_final(t(0.1));
        b.set_final(t(0.3));
        let snap = rec.snapshot();
        let e = snap.tracks[1].edges[0];
        assert_eq!(e.src, Some(TrackKey { world: 0, rank: 0 }));
        assert!(e.blocked());
        assert!(e.overlap() > SimTime::ZERO);
        assert_eq!(snap.makespan(), t(0.3));
    }
}
