//! The `allowlist.toml` loader: a minimal hand-rolled parser for the one
//! shape deepcheck needs (no `toml` crate — vendored-stubs policy).
//!
//! ```toml
//! [[allow]]
//! lint = "D003"
//! path = "crates/xpic/src/par.rs"
//! reason = "resolve_threads is the sanctioned thread-pool sizing site"
//! ```
//!
//! Every entry must carry a non-empty `reason`: the allowlist documents
//! intentional exceptions, it does not silence them.

use crate::lints::Finding;

/// One documented exception.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Lint code the entry suppresses.
    pub lint: String,
    /// Workspace-relative path it applies to (exact match, `/`-separated).
    pub path: String,
    /// Why the site is intentional.
    pub reason: String,
}

/// The parsed allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

/// A malformed allowlist is a hard error: CI must not run against a
/// half-understood exception list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowlistError(pub String);

impl std::fmt::Display for AllowlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "allowlist.toml: {}", self.0)
    }
}

impl std::error::Error for AllowlistError {}

/// An `[[allow]]` table still being parsed.
#[derive(Default)]
struct PartialEntry {
    lint: Option<String>,
    path: Option<String>,
    reason: Option<String>,
    line: usize,
}

impl Allowlist {
    /// Parse the TOML subset: `[[allow]]` tables of `key = "value"` pairs.
    pub fn parse(src: &str) -> Result<Allowlist, AllowlistError> {
        let mut entries = Vec::new();
        let mut current: Option<PartialEntry> = None;

        fn finish(
            entry: Option<PartialEntry>,
            entries: &mut Vec<AllowEntry>,
        ) -> Result<(), AllowlistError> {
            let Some(e) = entry else {
                return Ok(());
            };
            let line = e.line;
            let lint = e
                .lint
                .ok_or_else(|| AllowlistError(format!("entry at line {line} missing `lint`")))?;
            let path = e
                .path
                .ok_or_else(|| AllowlistError(format!("entry at line {line} missing `path`")))?;
            let reason = e
                .reason
                .filter(|r| !r.trim().is_empty())
                .ok_or_else(|| {
                    AllowlistError(format!(
                        "entry at line {line} ({lint} {path}) has no reason — every exception must be justified"
                    ))
                })?;
            entries.push(AllowEntry { lint, path, reason });
            Ok(())
        }

        for (idx, raw) in src.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                finish(current.take(), &mut entries)?;
                current = Some(PartialEntry {
                    line: line_no,
                    ..PartialEntry::default()
                });
                continue;
            }
            if line.starts_with("[[") {
                return Err(AllowlistError(format!(
                    "line {line_no}: unknown table `{line}` (only [[allow]] is understood)"
                )));
            }
            let Some(eq) = line.find('=') else {
                return Err(AllowlistError(format!(
                    "line {line_no}: expected `key = \"value\"`"
                )));
            };
            let key = line[..eq].trim();
            let value = line[eq + 1..].trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| {
                    AllowlistError(format!(
                        "line {line_no}: value of `{key}` must be a quoted string"
                    ))
                })?;
            let Some(cur) = current.as_mut() else {
                return Err(AllowlistError(format!(
                    "line {line_no}: `{key}` outside any [[allow]] table"
                )));
            };
            let slot = match key {
                "lint" => &mut cur.lint,
                "path" => &mut cur.path,
                "reason" => &mut cur.reason,
                other => {
                    return Err(AllowlistError(format!(
                        "line {line_no}: unknown key `{other}`"
                    )))
                }
            };
            if slot.is_some() {
                return Err(AllowlistError(format!(
                    "line {line_no}: duplicate key `{key}`"
                )));
            }
            *slot = Some(value.to_string());
        }
        finish(current, &mut entries)?;
        Ok(Allowlist { entries })
    }

    /// The entry covering a finding, if any: lint + exact path match. Line
    /// numbers never participate, so refactors that shift a file do not
    /// orphan its waivers.
    pub fn lookup(&self, f: &Finding) -> Option<&AllowEntry> {
        self.entries.iter().find(|e| entry_covers(e, f))
    }

    /// Entries that matched no finding in `findings` — stale exceptions
    /// worth pruning (reported as warnings, not failures).
    pub fn unused<'a>(&'a self, findings: &[Finding]) -> Vec<&'a AllowEntry> {
        self.entries
            .iter()
            .filter(|e| !findings.iter().any(|f| entry_covers(e, f)))
            .collect()
    }
}

fn entry_covers(e: &AllowEntry, f: &Finding) -> bool {
    e.lint == f.lint && e.path == f.path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries() {
        let src = r#"
# comment
[[allow]]
lint = "D003"
path = "crates/xpic/src/par.rs"
reason = "sanctioned sizing site"

[[allow]]
lint = "D001"
path = "crates/bench/src/bin/fig7.rs"
reason = "argv selects the sweep"
"#;
        let a = Allowlist::parse(src).unwrap();
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].lint, "D003");
        assert_eq!(a.entries[1].path, "crates/bench/src/bin/fig7.rs");
    }

    #[test]
    fn missing_reason_is_rejected() {
        let src = "[[allow]]\nlint = \"D001\"\npath = \"x.rs\"\n";
        let err = Allowlist::parse(src).unwrap_err();
        assert!(err.0.contains("no reason"), "{err}");
    }

    #[test]
    fn empty_reason_is_rejected() {
        let src = "[[allow]]\nlint = \"D001\"\npath = \"x.rs\"\nreason = \"  \"\n";
        assert!(Allowlist::parse(src).is_err());
    }

    #[test]
    fn unknown_keys_are_rejected() {
        // A waiver covers one lint in one whole file: there is no `snippet` pin.
        for key in ["foo", "snippet"] {
            let src = format!(
                "[[allow]]\nlint = \"D001\"\npath = \"x.rs\"\nreason = \"r\"\n{key} = \"bar\"\n"
            );
            assert!(Allowlist::parse(&src).is_err(), "{key}");
        }
    }
}
