//! Host-clock span recorder for the traced pass.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span: name, start, end, the span that caused it, and the repetition.
//! A span's layer is the part of its name before the first `.`
//! (`psmpi.send_slice` belongs to `psmpi`). Spans sit in a per-thread
//! buffer, move to a shared sink when their thread ends, and are written
//! out as Chrome `trace_event` JSON when the run ends.
//!
//! This is host time, so it stays apart from `obs::Recorder`, which is
//! virtual-time only (deepcheck D005).

use crate::json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the process, from 1.
    pub id: u32,
    /// The span that caused this one; 0 for none.
    pub parent: u32,
    pub name: &'static str,
    /// Host nanoseconds since the process's first span-clock read.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recording thread, numbered in order of first use.
    pub tid: u32,
    /// Repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

// `ENABLED` publishes no other data: a thread that reads a stale `false`
// only skips one span.
static ENABLED: AtomicBool = AtomicBool::new(false);
static REP: AtomicU32 = AtomicU32::new(0);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Local {
    tid: u32,
    open: Vec<u32>,
    closed: Vec<Span>,
}

impl Local {
    /// Hand this thread's closed spans to the sink. The sink is only ever
    /// appended to or taken whole, so a poisoned lock still guards a valid
    /// list.
    fn flush(&mut self) {
        SINK.lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .append(&mut self.closed);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // A rank thread ends when its job does.
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        open: Vec::new(),
        closed: Vec::new(),
    });
}

/// Turn recording on or off. Off, [`span`] costs one atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Label the spans recorded from now on with repetition `rep`.
pub fn set_rep(rep: u32) {
    REP.store(rep, Ordering::Relaxed);
}

/// An open span; closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Guard {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

/// Open a span caused by the innermost span open on this thread.
pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

/// Open a span caused by `parent`, a span of another thread (a rank's
/// work is caused by the launch that started the rank).
pub fn span_under(name: &'static str, parent: u32) -> Guard {
    open(name, Some(parent))
}

fn open(name: &'static str, parent: Option<u32>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = parent.unwrap_or_else(|| l.open.last().copied().unwrap_or(0));
        l.open.push(id);
        parent
    });
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

impl Guard {
    /// This span's id, for [`span_under`] on another thread. 0 when
    /// recording is off.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if let Some(at) = l.open.iter().rposition(|&id| id == self.id) {
                l.open.remove(at);
            }
            let tid = l.tid;
            l.closed.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                tid,
                rep: REP.load(Ordering::Relaxed),
            });
        });
    }
}

/// Take every span recorded so far: this thread's buffer plus what ended
/// threads handed over. Call it after the jobs have been joined.
pub fn drain() -> Vec<Span> {
    LOCAL.with(|l| l.borrow_mut().flush());
    let mut spans =
        std::mem::take(&mut *SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time of each span, in nanoseconds, in the order given: the span's
/// duration minus the part of its interval that its child spans cover.
/// Children on other threads may overlap one another and may outlive the
/// parent; their union, clipped to the parent, is what counts.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut per_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *per_layer.entry(s.layer()).or_default() += self_ns;
    }
    per_layer
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e9))
        .collect()
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Chrome `trace_event` JSON (complete events, microsecond timestamps),
/// loadable in `chrome://tracing` or Perfetto.
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let _ = write!(
        out,
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {{\"name\": {}}}}}",
        json::string(workload)
    );
    for s in spans {
        let _ = write!(
            out,
            ",\n{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}, \"rep\": {}, \
             \"workload\": {}}}}}",
            json::string(s.name),
            json::string(s.layer()),
            json::number(s.start_ns as f64 / 1e3),
            json::number(s.dur_ns() as f64 / 1e3),
            s.tid,
            s.id,
            s.parent,
            s.rep,
            json::string(workload),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            tid: 1,
            rep: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span_at(1, 0, "bench.rep", 0, 100),
            span_at(2, 1, "psmpi.launch", 10, 60),
            span_at(3, 2, "simnet.p2p", 20, 30),
        ];
        // The grandchild comes off its parent only, not off the root.
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
        let layers = layer_self_seconds(&spans);
        assert_eq!(layers["bench"], 50e-9);
        assert_eq!(layers["psmpi"], 40e-9);
        assert_eq!(layers["simnet"], 10e-9);
    }

    #[test]
    fn overlapping_children_count_their_union_clipped_to_the_parent() {
        let spans = [
            span_at(1, 0, "psmpi.launch", 100, 200),
            // Two rank threads overlapping on [120, 150].
            span_at(2, 1, "bench.rank", 110, 150),
            span_at(3, 1, "bench.rank", 120, 170),
            // Contained in the union already.
            span_at(4, 1, "bench.rank", 130, 140),
            // Outlives the parent: only [190, 200] counts.
            span_at(5, 1, "bench.rank", 190, 260),
            // Before the parent began: counts nothing.
            span_at(6, 1, "bench.rank", 50, 90),
        ];
        // Union inside the parent: [110, 170] and [190, 200] = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn a_childless_span_is_all_self_time() {
        let spans = [span_at(9, 0, "sched.engine_run", 5, 55)];
        assert_eq!(self_times_ns(&spans), vec![50]);
        assert_eq!(durations_ns(&spans, "sched.engine_run"), vec![50.0]);
        assert!(durations_ns(&spans, "sched.report").is_empty());
    }

    // The one test that touches the process-wide recorder; every other
    // test works on span lists it builds itself.
    #[test]
    fn spans_record_their_cause_across_threads_and_export_as_json() {
        set_enabled(true);
        set_rep(4);
        let launch_id;
        {
            let launch = span("psmpi.launch");
            launch_id = launch.id();
            let inner = span("simnet.build");
            drop(inner);
            std::thread::spawn(move || {
                let _rank = span_under("bench.rank", launch_id);
                let _send = span("psmpi.send_slice");
            })
            .join()
            .unwrap();
        }
        set_enabled(false);
        assert_eq!(span("bench.off").id(), 0, "off means nothing is recorded");
        let spans = drain();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("psmpi.launch").parent, 0);
        assert_eq!(by_name("simnet.build").parent, launch_id);
        assert_eq!(by_name("bench.rank").parent, launch_id);
        assert_eq!(by_name("psmpi.send_slice").parent, by_name("bench.rank").id);
        assert_ne!(by_name("bench.rank").tid, by_name("psmpi.launch").tid);
        assert!(spans.iter().all(|s| s.rep == 4 && s.end_ns >= s.start_ns));

        let doc = json::parse(&chrome_json(&spans, "ring_latency")).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 5, "one metadata event plus one per span");
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
    }
}
