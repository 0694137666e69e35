//! Golden-file test for the obs text report.
//!
//! The trace is synthetic (hand-built spans/edges, not a model run) so the
//! golden (`tests/golden/obs_report.golden` at the workspace root, all of
//! it program) stays stable under hardware-model recalibration: this pins
//! the *report format*, while determinism of real runs is covered by the
//! equivalence matrix (`cb_bench::matrix`) and `psmpi/tests/obs_spans.rs`.

use hwmodel::SimTime;
use obs::{Category, Recorder, Trace, TrackKey};

fn s(v: f64) -> SimTime {
    SimTime::from_secs(v)
}

/// Two ranks in one world: rank 0 computes and sends, rank 1 computes,
/// blocks on the message, then finishes last.
fn synthetic_trace() -> Trace {
    let rec = Recorder::new();
    let t0 = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 0, SimTime::ZERO, None);
    let t1 = rec.register(TrackKey { world: 0, rank: 1 }, "BN", 1, SimTime::ZERO, None);

    let phase = t0.open_span(Category::Phase, "step", SimTime::ZERO);
    t0.span(Category::Compute, "kernel", s(0.0), s(0.4));
    t0.span(Category::Send, "send", s(0.4), s(0.41));
    t0.add("bytes_sent", 1000);
    t0.add("msgs_sent", 1);
    phase.close(s(0.5));
    t0.set_final(s(0.5));

    let phase = t1.open_span(Category::Phase, "step", SimTime::ZERO);
    t1.span(Category::Compute, "kernel", s(0.0), s(0.2));
    t1.span(Category::Recv, "recv", s(0.2), s(0.45));
    t1.edge(0, s(0.41), s(0.2), s(0.45), 1000);
    phase.close(s(0.6));
    t1.set_final(s(0.6));

    rec.snapshot()
}

#[test]
fn report_matches_golden() {
    let report = synthetic_trace().report();
    let tmp = env!("CARGO_TARGET_TMPDIR");
    cb_bench::golden::assert_pinned("obs_report.golden", &report, &[], tmp);
}

#[test]
fn synthetic_critical_path_telescopes() {
    let trace = synthetic_trace();
    let cp = trace.critical_path();
    assert_eq!(cp.end, TrackKey { world: 0, rank: 1 });
    let diff = (cp.total().as_secs() - trace.makespan().as_secs()).abs();
    assert!(diff < 1e-9, "{diff}");
    // The path crosses the message edge: rank 0's compute is on it.
    assert!(cp.hops > 0);
    assert!(cp.share("compute") > 0.0);
}

#[test]
fn chrome_export_has_one_track_per_rank_and_flow_events() {
    let json = synthetic_trace().chrome_json();
    assert!(json.contains("\"name\":\"rank 0 (CN)\""));
    assert!(json.contains("\"name\":\"rank 1 (BN)\""));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
}
