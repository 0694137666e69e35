//! Rendering: rustc-style text diagnostics and the machine-readable
//! `DEEPCHECK_REPORT.json` (hand-written JSON, same approach as the bench
//! artifact emitter — no serializer dependency).

use crate::allowlist::{AllowEntry, Allowlist};
use crate::lints::Finding;
use std::fmt::Write as _;

/// A finding joined with its allowlist verdict.
#[derive(Debug, Clone)]
pub struct Judged {
    /// The raw finding.
    pub finding: Finding,
    /// The documented reason, when the site is allowlisted.
    pub reason: Option<String>,
}

/// The complete result of one analyzer run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every finding, allowlisted or not, in (path, line) order.
    pub judged: Vec<Judged>,
    /// Stale allowlist entries (matched nothing).
    pub unused_allow: Vec<AllowEntry>,
    /// Stale `lockorder.toml` entries (`crate.name` that matched no lock).
    pub stale_lockorder: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Join findings with the allowlist.
    pub fn new(mut findings: Vec<Finding>, allowlist: &Allowlist, files_scanned: usize) -> Report {
        findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
        let unused_allow = allowlist.unused(&findings).into_iter().cloned().collect();
        let judged = findings
            .into_iter()
            .map(|finding| {
                let reason = allowlist.lookup(&finding).map(|e| e.reason.clone());
                Judged { finding, reason }
            })
            .collect();
        Report {
            judged,
            unused_allow,
            stale_lockorder: Vec::new(),
            files_scanned,
        }
    }

    /// Findings not covered by the allowlist — these fail CI.
    pub fn violations(&self) -> impl Iterator<Item = &Judged> {
        self.judged.iter().filter(|j| j.reason.is_none())
    }

    /// Fired findings per lint code, in lint order.
    pub fn per_lint(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut m = std::collections::BTreeMap::new();
        for j in &self.judged {
            *m.entry(j.finding.lint).or_insert(0) += 1;
        }
        m
    }

    /// Number of findings covered by a waiver.
    pub fn waivers_used(&self) -> usize {
        self.judged.iter().filter(|j| j.reason.is_some()).count()
    }

    /// rustc-style text output.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for j in &self.judged {
            let f = &j.finding;
            match &j.reason {
                None => {
                    let _ = writeln!(out, "error[{}]: {}", f.lint, f.message);
                    let _ = writeln!(out, "  --> {}:{}", f.path, f.line);
                }
                Some(reason) => {
                    let _ = writeln!(out, "allowed[{}]: {} ({reason})", f.lint, f.message);
                    let _ = writeln!(out, "  --> {}:{}", f.path, f.line);
                }
            }
        }
        for e in &self.unused_allow {
            let _ = writeln!(
                out,
                "warning: stale allowlist entry {} {} matched nothing — prune it",
                e.lint, e.path
            );
        }
        for e in &self.stale_lockorder {
            let _ = writeln!(
                out,
                "warning: stale lockorder.toml entry {e} matched no lock — prune it"
            );
        }
        let violations = self.violations().count();
        let allowed = self.judged.len() - violations;
        let _ = writeln!(
            out,
            "deepcheck: {} files scanned, {} finding(s): {} violation(s), {} allowlisted",
            self.files_scanned,
            self.judged.len(),
            violations,
            allowed
        );
        out
    }

    /// The machine-readable report body.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"tool\": \"deepcheck\",");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        out.push_str("  \"findings\": [\n");
        for (i, j) in self.judged.iter().enumerate() {
            let f = &j.finding;
            let comma = if i + 1 < self.judged.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"allowed\": {}, \"reason\": {}, \"snippet\": \"{}\", \"message\": \"{}\"}}{comma}",
                f.lint,
                escape(&f.path),
                f.line,
                j.reason.is_some(),
                match &j.reason {
                    Some(r) => format!("\"{}\"", escape(r)),
                    None => "null".to_string(),
                },
                escape(&f.snippet),
                escape(&f.message),
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"unused_allowlist_entries\": [\n");
        for (i, e) in self.unused_allow.iter().enumerate() {
            let comma = if i + 1 < self.unused_allow.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"lint\": \"{}\", \"path\": \"{}\"}}{comma}",
                e.lint,
                escape(&e.path)
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
        let violations = self.violations().count();
        let _ = writeln!(
            out,
            "  \"counts\": {{\"total\": {}, \"violations\": {}, \"allowed\": {}}},",
            self.judged.len(),
            violations,
            self.judged.len() - violations
        );
        let lints = self
            .per_lint()
            .into_iter()
            .map(|(l, n)| format!("\"{l}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "  \"stats\": {{\"files_scanned\": {}, \"waivers_used\": {}, \"lints\": {{{lints}}}}}",
            self.files_scanned,
            self.waivers_used(),
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
    fn violations_and_allowed_are_separated() {
        let allow =
            Allowlist::parse("[[allow]]\nlint = \"D003\"\npath = \"a.rs\"\nreason = \"ok here\"\n")
                .unwrap();
        let r = Report::new(
            vec![finding("D003", "a.rs", 3), finding("D001", "b.rs", 9)],
            &allow,
            2,
        );
        assert_eq!(r.violations().count(), 1);
        let text = r.render_text();
        assert!(text.contains("error[D001]"), "{text}");
        assert!(text.contains("allowed[D003]"), "{text}");
        let json = r.render_json();
        assert!(json.contains("\"violations\": 1"), "{json}");
    }

    #[test]
    fn stats_are_stamped_into_text_and_json() {
        let mut r = Report::new(
            vec![finding("D006", "a.rs", 1), finding("D006", "a.rs", 2)],
            &Allowlist::default(),
            3,
        );
        r.stale_lockorder = vec!["psmpi.ghost".to_string()];
        let json = r.render_json();
        assert!(json.contains("\"files_scanned\": 3"), "{json}");
        assert!(json.contains("\"D006\": 2"), "{json}");
        assert!(json.contains("psmpi.ghost"), "{json}");
        assert!(
            r.render_text()
                .contains("stale lockorder.toml entry psmpi.ghost"),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn stale_entries_are_reported() {
        let allow = Allowlist::parse(
            "[[allow]]\nlint = \"D002\"\npath = \"gone.rs\"\nreason = \"was fixed\"\n",
        )
        .unwrap();
        let r = Report::new(vec![], &allow, 0);
        assert_eq!(r.unused_allow.len(), 1);
        assert!(r.render_text().contains("stale allowlist entry"));
    }
}
