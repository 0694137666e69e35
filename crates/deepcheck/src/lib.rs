//! deepcheck — the workspace static analyzer enforcing the determinism
//! contract.
//!
//! PR 1 established the repo's core guarantee: virtual times and CG
//! iteration counts are bit-identical across thread counts. This crate
//! *enforces* it offline, with its own lightweight Rust tokenizer (no
//! `syn` — consistent with the vendored-stubs policy). It walks every
//! workspace `src/` and `src/bin/` file, reports rustc-style `file:line`
//! diagnostics plus a machine-readable `DEEPCHECK_REPORT.json`, and exits
//! non-zero on any finding not covered by `allowlist.toml`.
//!
//! Lint families (details in DESIGN.md §"Enforcing the determinism
//! contract"):
//!
//! * **D001** — wall-clock / OS-entropy / host-environment sources;
//! * **D002** — `HashMap`/`HashSet` iteration in virtual-time crates;
//! * **D003** — `available_parallelism` outside the sanctioned sites;
//! * **D004** — parallelism bypassing `xpic::par::run_tasks`'s fixed-order
//!   merge;
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

pub mod allowlist;
pub mod lexer;
pub mod lints;
pub mod locks;
pub mod report;

pub use allowlist::{Allowlist, AllowlistError};
pub use lints::{Finding, VIRTUAL_TIME_CRATES};
pub use locks::{LockOrder, LockOrderError};
pub use report::{Judged, Report};

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Analyze one source string as `path` belonging to `crate_name` (the
/// workspace directory name, e.g. `psmpi`). Test modules are stripped
/// before linting. The lock-discipline pass (D006/D008) sees just this one
/// file and an empty lock hierarchy; use [`analyze_source_with_order`] to
/// rank locks.
pub fn analyze_source(crate_name: &str, path: &str, src: &str) -> Vec<Finding> {
    analyze_source_with_order(crate_name, path, src, &LockOrder::default())
}

/// [`analyze_source`] with an explicit `lockorder.toml` hierarchy.
pub fn analyze_source_with_order(
    crate_name: &str,
    path: &str,
    src: &str,
    order: &LockOrder,
) -> Vec<Finding> {
    analyze_crate(crate_name, &[(path.to_string(), src.to_string())], order).0
}

/// Lint every file of one crate — `(workspace-relative path, source)`
/// pairs — and stamp each finding with the trimmed text of its line.
/// Returns the findings in (path, line, lint) order and every lock name
/// the lock-discipline pass saw (empty outside the virtual-time crates).
fn analyze_crate(
    krate: &str,
    files: &[(String, String)],
    order: &LockOrder,
) -> (Vec<Finding>, BTreeSet<String>) {
    let toks: Vec<Vec<lexer::Tok>> = files
        .iter()
        .map(|(_, src)| lexer::strip_test_modules(lexer::tokenize(src)))
        .collect();
    let mut out = Vec::new();
    for ((rel, _), t) in files.iter().zip(&toks) {
        out.extend(lints::run_all(krate, rel, t));
    }
    let mut used = BTreeSet::new();
    if VIRTUAL_TIME_CRATES.contains(&krate) {
        let inputs: Vec<locks::FileInput> = files
            .iter()
            .zip(&toks)
            .map(|((rel, src), t)| locks::FileInput {
                path: rel,
                raw: src,
                toks: t,
            })
            .collect();
        used = locks::run_crate(krate, &inputs, order, &mut out);
    }
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
/// report must not depend on directory enumeration order — the analyzer
/// obeys its own contract). Covers `crates/*/src/**` and the root `src/`;
/// `vendor/` (external stand-ins), `target/` and `tests/` directories are
/// out of scope.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for member in read_dir_sorted(&crates_dir)? {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out)?;
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
/// to `<name>`, the root `src/` maps to `root`.
pub fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("root"),
        _ => "root",
    }
}

/// Load the workspace's `lockorder.toml` (absent file → empty order; a
/// malformed file is a hard error, same policy as the allowlist).
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
pub fn analyze_workspace(root: &Path, allowlist: &Allowlist) -> std::io::Result<Report> {
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

    // lockorder.toml entries naming locks that no longer exist are stale —
    // same hygiene rule as unused allowlist entries.
    let mut stale_lockorder = Vec::new();
    for (krate, names) in &order.ranks {
        for name in names.keys() {
            let known = used_locks.get(krate);
            if known.is_none_or(|u| !u.contains(name)) {
                stale_lockorder.push(format!("{krate}.{name}"));
            }
        }
    }

    let mut report = Report::new(findings, allowlist, files.len());
    report.stale_lockorder = stale_lockorder;
    Ok(report)
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
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let t = Instant::now(); }\n}\n";
        assert!(analyze_source("psmpi", "x.rs", src).is_empty());
    }
}
