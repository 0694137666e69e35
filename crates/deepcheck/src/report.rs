//! Rendering: rustc-style text diagnostics and the machine-readable
//! `DEEPCHECK_REPORT.json` (hand-written JSON, same approach as the bench
//! artifact emitter — no serializer dependency).

use crate::locks::Finding;
use std::fmt::Write as _;

/// The complete result of one analyzer run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every finding, in (path, line) order. Each one fails CI.
    pub findings: Vec<Finding>,
    /// Stale `lockorder.toml` entries (`crate.name` that matched no lock).
    pub stale_lockorder: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Fired findings per lint code, in lint order.
    pub fn per_lint(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut m = std::collections::BTreeMap::new();
        for f in &self.findings {
            *m.entry(f.lint).or_insert(0) += 1;
        }
        m
    }

    /// rustc-style text output.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "error[{}]: {}", f.lint, f.message);
            let _ = writeln!(out, "  --> {}:{}", f.path, f.line);
        }
        for e in &self.stale_lockorder {
            let _ = writeln!(
                out,
                "warning: stale lockorder.toml entry {e} matched no lock — prune it"
            );
        }
        let _ = writeln!(
            out,
            "deepcheck: {} files scanned, {} finding(s)",
            self.files_scanned,
            self.findings.len(),
        );
        out
    }

    /// The machine-readable report body.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"tool\": \"deepcheck\",");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"snippet\": \"{}\", \"message\": \"{}\"}}{comma}",
                f.lint,
                escape(&f.path),
                f.line,
                escape(&f.snippet),
                escape(&f.message),
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"stale_lockorder_entries\": [\n");
        for (i, e) in self.stale_lockorder.iter().enumerate() {
            let comma = if i + 1 < self.stale_lockorder.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    \"{}\"{comma}", escape(e));
        }
        out.push_str("  ],\n");
        let lints = self
            .per_lint()
            .into_iter()
            .map(|(l, n)| format!("\"{l}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "  \"stats\": {{\"findings\": {}, \"lints\": {{{lints}}}}}",
            self.findings.len(),
        );
        out.push_str("}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: &'static str, path: &str, line: u32) -> Finding {
        Finding {
            lint,
            path: path.to_string(),
            line,
            message: "msg".to_string(),
            snippet: String::new(),
        }
    }

    #[test]
    fn stats_are_stamped_into_text_and_json() {
        let r = Report {
            findings: vec![finding("D006", "a.rs", 1), finding("D006", "a.rs", 2)],
            stale_lockorder: vec!["psmpi.ghost".to_string()],
            files_scanned: 3,
        };
        let json = r.render_json();
        assert!(json.contains("\"files_scanned\": 3"), "{json}");
        assert!(json.contains("\"D006\": 2"), "{json}");
        assert!(json.contains("psmpi.ghost"), "{json}");
        let text = r.render_text();
        assert!(text.contains("error[D006]"), "{text}");
        assert!(
            text.contains("stale lockorder.toml entry psmpi.ghost"),
            "{text}"
        );
    }
}
