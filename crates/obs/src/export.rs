//! Exporters: Chrome `trace_event` JSON and a deterministic text report.
//!
//! Both outputs are pure functions of the [`Trace`] snapshot: tracks are
//! emitted in `(world, rank)` order, spans in their sorted per-track order,
//! and every number is formatted with a fixed precision — identical runs
//! therefore produce byte-identical files (the CI determinism gate diffs
//! them byte-for-byte).

use crate::recorder::{Trace, TrackView};
use hwmodel::SimTime;
use std::fmt::Write as _;

/// Fixed-precision microseconds for Chrome's `ts`/`dur` fields
/// (nanosecond resolution — below the fabric model's granularity).
fn us(t: SimTime) -> String {
    format!("{:.3}", t.as_secs() * 1e6)
}

/// Fixed-precision seconds for the text report.
fn secs(t: SimTime) -> String {
    format!("{:.9}", t.as_secs())
}

/// `s` as the inside of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn track_label(t: &TrackView) -> String {
    format!("rank {} ({})", t.key.rank, t.kind)
}

impl Trace {
    /// Render as Chrome `trace_event` JSON (load in `about:tracing` or
    /// Perfetto): one process per world, one virtual-time thread track per
    /// rank, complete events for spans, flow arrows for message edges.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, ev: String| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&ev);
        };
        for t in &self.tracks {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                    t.key.world,
                    t.key.rank,
                    json_escape(&track_label(t))
                ),
            );
        }
        for t in &self.tracks {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"process_name\",\"args\":{{\"name\":\"world {}\"}}}}",
                    t.key.world, t.key.rank, t.key.world
                ),
            );
            for s in &t.spans {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\"ts\":{},\"dur\":{}}}",
                        t.key.world,
                        t.key.rank,
                        s.cat.label(),
                        json_escape(&s.name),
                        us(s.start),
                        us(s.end.saturating_sub(s.start))
                    ),
                );
            }
        }
        // Flow arrows: sender stamp → delivery, one id per edge.
        let mut flow_id = 0u64;
        for t in &self.tracks {
            for e in &t.edges {
                let Some(src) = e.src else { continue };
                flow_id += 1;
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"s\",\"pid\":{},\"tid\":{},\"cat\":\"msg\",\"name\":\"msg\",\"id\":{},\"ts\":{}}}",
                        src.world,
                        src.rank,
                        flow_id,
                        us(e.send_stamp)
                    ),
                );
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{},\"tid\":{},\"cat\":\"msg\",\"name\":\"msg\",\"id\":{},\"ts\":{}}}",
                        t.key.world,
                        t.key.rank,
                        flow_id,
                        us(e.post)
                    ),
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Render the deterministic plain-text report: per-rank and per-module
    /// profile, traffic summary, counters, and the critical-path
    /// decomposition.
    pub fn report(&self) -> String {
        let profile = self.profile();
        let cp = self.critical_path();
        let mut out = String::new();
        let _ = writeln!(out, "# obs report");
        let _ = writeln!(out, "makespan_s: {}", secs(profile.makespan));
        let _ = writeln!(out, "tracks: {}", self.tracks.len());
        let _ = writeln!(out, "unclosed_spans: {}", self.unclosed());
        let _ = writeln!(out);
        let _ = writeln!(out, "## per-rank profile [s]");
        let _ = writeln!(
            out,
            "{:>5} {:>5} {:>4} {:>15} {:>15} {:>15} {:>15} {:>15} {:>15} {:>15} {:>15}",
            "world",
            "rank",
            "kind",
            "total",
            "compute",
            "comm",
            "wait",
            "io",
            "other",
            "untracked",
            "overlap"
        );
        for r in &profile.ranks {
            let _ = writeln!(
                out,
                "{:>5} {:>5} {:>4} {:>15} {:>15} {:>15} {:>15} {:>15} {:>15} {:>15} {:>15}",
                r.key.world,
                r.key.rank,
                r.kind,
                secs(r.total),
                secs(r.busy.compute),
                secs(r.busy.comm),
                secs(r.busy.wait),
                secs(r.busy.io),
                secs(r.busy.other),
                secs(r.untracked),
                secs(r.overlap)
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "## per-module profile [s]");
        let _ = writeln!(
            out,
            "{:<24} {:>15} {:>15} {:>15} {:>15} {:>15}",
            "module", "compute", "comm", "wait", "io", "other"
        );
        for (name, b) in &profile.modules {
            let _ = writeln!(
                out,
                "{:<24} {:>15} {:>15} {:>15} {:>15} {:>15}",
                name,
                secs(b.compute),
                secs(b.comm),
                secs(b.wait),
                secs(b.io),
                secs(b.other)
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "## traffic by node-kind pair");
        out.push_str(&profile.traffic.render());
        let _ = writeln!(out);
        let _ = writeln!(out, "## counters");
        for t in &self.tracks {
            for (name, value) in &t.counters {
                let _ = writeln!(
                    out,
                    "w{} r{} {:<20} {}",
                    t.key.world, t.key.rank, name, value
                );
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "## critical path");
        let _ = writeln!(out, "length_s: {}", secs(cp.length));
        let _ = writeln!(out, "end: world {} rank {}", cp.end.world, cp.end.rank);
        let _ = writeln!(out, "hops: {}", cp.hops);
        let _ = writeln!(
            out,
            "worlds crossed: {}",
            cp.worlds
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(out, "{:<12} {:>15} {:>7}", "category", "seconds", "share");
        for (label, t) in &cp.categories {
            let _ = writeln!(
                out,
                "{:<12} {:>15} {:>6.1}%",
                label,
                secs(*t),
                cp.share(label) * 100.0
            );
        }
        let _ = writeln!(out, "sum_s: {}", secs(cp.total()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Category, Recorder, TrackKey};

    fn sample() -> Trace {
        let rec = Recorder::new();
        let a = rec.register(TrackKey { world: 0, rank: 0 }, "CN", 1, SimTime::ZERO, None);
        let b = rec.register(TrackKey { world: 0, rank: 1 }, "BN", 2, SimTime::ZERO, None);
        a.span(
            Category::Compute,
            "k\"quoted\"",
            SimTime::ZERO,
            SimTime::from_secs(0.4),
        );
        a.set_final(SimTime::from_secs(0.4));
        b.edge(
            1,
            SimTime::from_secs(0.4),
            SimTime::ZERO,
            SimTime::from_secs(0.5),
            64,
        );
        b.span(
            Category::Recv,
            "recv",
            SimTime::ZERO,
            SimTime::from_secs(0.5),
        );
        b.add("bytes_in", 64);
        b.set_final(SimTime::from_secs(0.5));
        rec.snapshot()
    }

    #[test]
    fn chrome_json_shape() {
        let json = sample().chrome_json();
        assert!(json.starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("rank 1 (BN)"));
        assert!(json.contains("k\\\"quoted\\\""));
        // One thread-name metadata record per track.
        assert_eq!(json.matches("thread_name").count(), 2);
    }

    #[test]
    fn report_sections_present() {
        let rep = sample().report();
        for needle in [
            "# obs report",
            "## per-rank profile",
            "## per-module profile",
            "## traffic by node-kind pair",
            "## critical path",
            "sum_s:",
        ] {
            assert!(rep.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(a.chrome_json(), b.chrome_json());
        assert_eq!(a.report(), b.report());
    }
}
