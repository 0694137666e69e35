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
    /// Optional site pin: when set, the entry only covers findings whose
    /// trimmed source line equals this text — or whose FNV-1a hash equals
    /// it, for `fnv1a64:…` values. Matching on the line's *content* rather
    /// than its number keeps waivers valid when refactors shift the file.
    pub snippet: Option<String>,
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
    snippet: Option<String>,
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
            entries.push(AllowEntry {
                lint,
                path,
                reason,
                snippet: e.snippet,
            });
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
                "snippet" => &mut cur.snippet,
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

    /// The entry covering a finding, if any: lint + exact path match,
    /// plus — when the entry pins a `snippet` — a content match against
    /// the finding's source line (verbatim or by `fnv1a64:` hash). Line
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
    if e.lint != f.lint || e.path != f.path {
        return false;
    }
    match &e.snippet {
        None => true,
        Some(s) if s.starts_with("fnv1a64:") => fnv1a64_hex(f.snippet.trim().as_bytes()) == *s,
        Some(s) => f.snippet.trim() == s.trim(),
    }
}

/// FNV-1a 64-bit hash, hex-encoded with a scheme prefix. Used to fingerprint
/// the allowlist in `DEEPCHECK_REPORT.json` and the snippets waivers pin.
pub fn fnv1a64_hex(data: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}")
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
path = "crates/bench/benches/kernels.rs"
reason = "artifact path discovery"
"#;
        let a = Allowlist::parse(src).unwrap();
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].lint, "D003");
        assert_eq!(a.entries[1].path, "crates/bench/benches/kernels.rs");
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
        let src = "[[allow]]\nlint = \"D001\"\npath = \"x.rs\"\nreason = \"r\"\nfoo = \"bar\"\n";
        assert!(Allowlist::parse(src).is_err());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64_hex(b""), "fnv1a64:cbf29ce484222325");
        assert_ne!(fnv1a64_hex(b"a"), fnv1a64_hex(b"b"));
    }

    fn finding(line: u32, snippet: &str) -> Finding {
        Finding {
            lint: "D001",
            path: "a.rs".to_string(),
            line,
            message: "msg".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn snippet_pins_narrow_the_waiver_to_one_site() {
        let a = Allowlist::parse(
            "[[allow]]\nlint = \"D001\"\npath = \"a.rs\"\nreason = \"r\"\nsnippet = \"let t = now();\"\n",
        )
        .unwrap();
        assert!(a.lookup(&finding(10, "let t = now();")).is_some());
        // Same line content after a refactor moved it: still covered.
        assert!(a.lookup(&finding(99, "  let t = now();  ")).is_some());
        // A different site in the same file is NOT covered.
        assert!(a.lookup(&finding(11, "let u = now();")).is_none());
        assert_eq!(a.unused(&[finding(11, "let u = now();")]).len(), 1);
    }

    #[test]
    fn snippet_pins_accept_fnv_hashes() {
        let hash = fnv1a64_hex(b"let t = now();");
        let src = format!(
            "[[allow]]\nlint = \"D001\"\npath = \"a.rs\"\nreason = \"r\"\nsnippet = \"{hash}\"\n"
        );
        let a = Allowlist::parse(&src).unwrap();
        assert!(a.lookup(&finding(3, "let t = now();")).is_some());
        assert!(a.lookup(&finding(3, "let u = now();")).is_none());
    }
}
