//! deepcheck — the workspace lock-discipline analyzer.
//!
//! The determinism contract's name bans (host clock and environment, hash
//! containers, host core count, unmanaged threads) are clippy
//! configuration: the root `clippy.toml`, enforced by ci.sh's
//! `cargo clippy -- -D warnings` stage. What clippy cannot express is the
//! lock hierarchy, and that is this crate: with its own lightweight Rust
//! tokenizer (no `syn` — consistent with the vendored-stubs policy) it
//! walks every `src/` file of the virtual-time crates, reports
//! rustc-style `file:line` diagnostics plus a machine-readable
//! `DEEPCHECK_REPORT.json`, and exits non-zero on any finding.
//!
//! Lint families (details in DESIGN.md §"Enforcing the determinism
//! contract"):
//!
//! * **D006** — lock-order discipline: every `Mutex`/`RwLock` carries a
//!   rank (inline annotation or `lockorder.toml`), and no acquisition may
//!   invert the declared partial order;
//! * **D008** — blocking mailbox/probe/receive calls made while a tracked
//!   lock guard is live.
//!
//! A discarded nonblocking request or span guard is rustc's job, not this
//! crate's: the handles are `#[must_use]` and the workspace denies
//! `unused_must_use`.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod locks;
pub mod report;

pub use locks::{Finding, LockOrder, LockOrderError};
pub use report::Report;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Crates whose state feeds virtual time or CG iteration counts: the lock
/// pass runs only inside these. The bench and the analyzer itself run on
/// the host, outside the simulated clock.
pub const VIRTUAL_TIME_CRATES: &[&str] = &[
    "hwmodel", "simnet", "psmpi", "core", "ompss", "sionio", "scr", "xpic", "obs", "sched",
];

/// Analyze one source string as `path` belonging to `crate_name` (the
/// workspace directory name, e.g. `psmpi`). Test modules are stripped
/// before the lock pass, which sees just this one file and an empty lock
/// hierarchy: a lock ranks only by its inline annotation.
pub fn analyze_source(crate_name: &str, path: &str, src: &str) -> Vec<Finding> {
    let files = [(path.to_string(), src.to_string())];
    analyze_crate(crate_name, &files, &LockOrder::default()).0
}

/// Run the lock pass over every file of one crate — `(workspace-relative
/// path, source)` pairs — and stamp each finding with the trimmed text of
/// its line. Returns the findings in (path, line, lint) order and every
/// lock name the pass saw (nothing outside the virtual-time crates).
fn analyze_crate(
    krate: &str,
    files: &[(String, String)],
    order: &LockOrder,
) -> (Vec<Finding>, BTreeSet<String>) {
    let mut out = Vec::new();
    if !VIRTUAL_TIME_CRATES.contains(&krate) {
        return (out, BTreeSet::new());
    }
    let toks: Vec<Vec<lexer::Tok>> = files
        .iter()
        .map(|(_, src)| lexer::strip_test_modules(lexer::tokenize(src)))
        .collect();
    let inputs: Vec<locks::FileInput> = files
        .iter()
        .zip(&toks)
        .map(|((rel, src), t)| locks::FileInput {
            path: rel,
            raw: src,
            toks: t,
        })
        .collect();
    let used = locks::run_crate(krate, &inputs, order, &mut out);
    for f in &mut out {
        let src = files.iter().find(|(rel, _)| *rel == f.path).map(|(_, s)| s);
        if let Some(l) = src.and_then(|s| s.lines().nth(f.line.saturating_sub(1) as usize)) {
            f.snippet = l.trim().to_string();
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    (out, used)
}

/// Locate the workspace root: the closest ancestor of `start` whose
/// `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists()
            && std::fs::read_to_string(&manifest)
                .map(|s| s.contains("[workspace]"))
                .unwrap_or(false)
        {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The `.rs` files deepcheck audits, workspace-relative and sorted (the
/// report must not depend on directory enumeration order): the
/// `crates/<name>/src/**` of every [`VIRTUAL_TIME_CRATES`] member.
/// `vendor/` (external stand-ins), `target/` and `tests/` directories are
/// out of scope.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for member in read_dir_sorted(&crates_dir)? {
            let in_scope = member
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| VIRTUAL_TIME_CRATES.contains(&n));
            let src = member.join("src");
            if in_scope && src.is_dir() {
                collect_rs(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for p in read_dir_sorted(dir)? {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn read_dir_sorted(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    v.sort();
    Ok(v)
}

/// The crate a workspace-relative path belongs to: `crates/<name>/…` maps
/// to `<name>`, anything else to `root`.
pub fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("root"),
        _ => "root",
    }
}

/// Load the workspace's `lockorder.toml` (absent file → empty order; a
/// malformed file is a hard error).
pub fn load_lockorder(root: &Path) -> std::io::Result<LockOrder> {
    match std::fs::read_to_string(root.join("lockorder.toml")) {
        Ok(src) => LockOrder::parse(&src)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(LockOrder::default()),
        Err(e) => Err(e),
    }
}

/// Run the full analysis over a workspace. Returns the report; the caller
/// decides how to render it and what exit code to use.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let order = load_lockorder(root)?;
    let files = workspace_files(root)?;

    // Read every file once, grouped per crate. BTreeMap keeps crates in
    // name order and `workspace_files` returns sorted paths, so the report
    // order is stable regardless of enumeration order.
    let mut by_crate: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(file)?;
        by_crate
            .entry(crate_of(&rel).to_string())
            .or_default()
            .push((rel, src));
    }

    let mut findings = Vec::new();
    let mut used_locks: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (krate, sources) in &by_crate {
        let (found, used) = analyze_crate(krate, sources, &order);
        findings.extend(found);
        used_locks.insert(krate.clone(), used);
    }

    // lockorder.toml entries naming locks that no longer exist are stale.
    let mut stale_lockorder = Vec::new();
    for (krate, names) in &order.ranks {
        for name in names.keys() {
            let known = used_locks.get(krate);
            if known.is_none_or(|u| !u.contains(name)) {
                stale_lockorder.push(format!("{krate}.{name}"));
            }
        }
    }

    Ok(Report {
        findings,
        stale_lockorder,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/psmpi/src/router.rs"), "psmpi");
        assert_eq!(crate_of("src/lib.rs"), "root");
    }

    #[test]
    fn analyze_source_strips_tests() {
        let src = "#[cfg(test)]\nmod tests {\n struct S { m: Mutex<u8> }\n}\n";
        assert!(analyze_source("psmpi", "x.rs", src).is_empty());
        let shipped = "struct S { m: Mutex<u8> }\n";
        assert_eq!(analyze_source("psmpi", "x.rs", shipped).len(), 1);
    }
}
