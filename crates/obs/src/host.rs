//! Host-side (wall-clock-domain) metrics, kept apart from virtual time.
//!
//! Everything else in this crate lives in the virtual-time domain and is
//! held to the byte-identical determinism contract (see the crate docs).
//! Some quantities we want to report are *host* facts that legitimately
//! vary run to run: wall-clock throughput of the simulator itself,
//! buffer-pool hit rates, messages delivered per host second. Those must
//! never leak into [`crate::Trace`] artifacts — the ci.sh byte-diffs would
//! (correctly) fail — so they get their own sink.
//!
//! A [`HostMetrics`] is a plain ordered bag of named scalar samples. It
//! does not read clocks or entropy itself (the `clippy.toml` clock ban
//! applies here too): callers measure with whatever wall-clock source their
//! context permits (the bench binaries carry a reasoned `#[expect]`) and
//! deposit plain numbers.
//! The JSON rendering is deterministic *given the samples* — keys sorted,
//! fixed float formatting — so diffs between runs show metric drift, not
//! serialization noise.
//!
//! None of the `Trace`/report/Chrome exporters read this type; it is
//! surfaced only through host-metrics channels such as the `sched` bin's
//! `--out` file.

use std::collections::BTreeMap;

/// An ordered bag of host-domain scalar metrics (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostMetrics {
    values: BTreeMap<String, f64>,
}

impl HostMetrics {
    /// New, empty bag.
    pub fn new() -> HostMetrics {
        HostMetrics::default()
    }

    /// Set `name` to `value` (overwrites).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Read a metric back.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Iterate `(name, value)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Render as a flat JSON object, keys sorted, floats printed with
    /// enough digits to round-trip and integers without a fraction.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(&escape(k));
            out.push_str("\": ");
            out.push_str(&fmt_f64(v));
        }
        out.push('}');
        out
    }
}

/// Format a float as JSON: integral values print as integers, everything
/// else with shortest round-trip formatting; non-finite values (invalid
/// JSON) are clamped to null.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element such that at least `q` of the distribution is at or below it
/// (`q` in `[0, 1]`; `q = 0.5` is the median, `q = 0.99` the p99).
/// Nearest-rank never interpolates, so the result is always an observed
/// sample and the computation is exactly reproducible — no float-sum
/// ordering to worry about. Panics on an empty slice or a `q` outside
/// `[0, 1]`; debug-asserts the slice is sorted.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile input must be ascending-sorted"
    );
    // Nearest rank: ceil(q * n), 1-based; q = 0 maps to the minimum.
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_sorted_and_stable() {
        let mut m = HostMetrics::new();
        m.set("zeta", 2.5);
        m.set("alpha", 3.0);
        m.set("alpha", 4.0);
        m.set("count", 1_000_000.0);
        assert_eq!(
            m.to_json(),
            r#"{"alpha": 4, "count": 1000000, "zeta": 2.5}"#
        );
    }

    #[test]
    fn non_finite_values_render_as_null() {
        let mut m = HostMetrics::new();
        m.set("bad", f64::NAN);
        assert_eq!(m.to_json(), r#"{"bad": null}"#);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.95), 10.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        // A returned value is always an observed sample.
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[1.0, 100.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 100.0], 0.51), 100.0);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn percentile_rejects_empty() {
        percentile(&[], 0.5);
    }

    #[test]
    fn keys_are_escaped() {
        let mut m = HostMetrics::new();
        m.set("a\"b", 1.0);
        assert_eq!(m.to_json(), "{\"a\\\"b\": 1}");
    }
}
