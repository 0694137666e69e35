//! # obs — virtual-time observability: spans, counters, critical path
//!
//! The paper's analysis does not stop at end-to-end numbers: Figs. 7–8 and
//! Table III attribute time to the field solver vs the particle solver, to
//! compute vs communication, and to the overlap between them — the
//! 1.28–1.38× Cluster+Booster speedup is credible because the authors can
//! show *where* the waiting went. This crate is the reproduction's
//! equivalent of the DEEP performance-analysis tools: a span/counter
//! recorder keyed to each rank's **virtual clock**, a profile model that
//! folds spans into per-rank and per-module breakdowns, a critical-path
//! analyzer over the send→recv dependency graph, and exporters (Chrome
//! `trace_event` JSON and a deterministic plain-text report).
//!
//! ## Determinism contract
//!
//! Nothing in this crate reads wall-clock time — every timestamp is a
//! [`hwmodel::SimTime`] handed in by the caller (the `clippy.toml` clock
//! ban enforces this). Because the runtime's virtual clocks are thread-count
//! invariant, two identical runs produce **byte-identical** trace files:
//! tracks are keyed and ordered by `(world, rank)`, spans are recorded in
//! each rank thread's program order, and all aggregation uses `BTreeMap`.
//!
//! ## Model
//!
//! * A [`Recorder`] holds one track per rank (a [`TrackHandle`]); the
//!   psmpi runtime registers tracks automatically when a recorder is
//!   attached to a universe.
//! * Spans are `(category, name, start, end)` intervals in virtual time;
//!   they nest strictly per track ([`TrackHandle::open_span`] returns a
//!   [`SpanGuard`] that must be closed with the closing clock value).
//! * Message edges `(sender track, send stamp) → (receiver track,
//!   delivery)` are recorded at every cross-rank receive; they carry the
//!   dependency structure the critical-path walk follows.
//! * [`Trace::profile`] produces the per-rank / per-module breakdown;
//!   [`Trace::critical_path`] walks the longest dependency chain backward
//!   from the job's last clock to virtual time zero and attributes every
//!   second of it to a span category (or to message transfer).

#![forbid(unsafe_code)]

pub mod critical;
pub mod export;
pub mod host;
pub mod profile;
pub mod recorder;

pub use critical::CriticalPath;
pub use host::{percentile, HostMetrics};
pub use profile::{Bucket, Profile, RankProfile, TrafficSummary};
pub use recorder::{
    Category, EdgeView, Recorder, Span, SpanGuard, Trace, TrackHandle, TrackKey, TrackView,
};
