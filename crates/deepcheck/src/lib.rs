//! deepcheck — the workspace static analyzer enforcing the determinism
//! contract and psmpi usage correctness.
//!
//! PR 1 established the repo's core guarantee: virtual times and CG
//! iteration counts are bit-identical across thread counts. This crate
//! *enforces* it offline, with its own lightweight Rust tokenizer (no
//! `syn` — consistent with the vendored-stubs policy). It walks every
//! workspace `src/`, `src/bin/` and `benches/` file, reports rustc-style
//! `file:line` diagnostics plus a machine-readable `DEEPCHECK_REPORT.json`,
//! and exits non-zero on any finding not covered by `allowlist.toml`.
//!
//! Lint families (details in DESIGN.md §"Enforcing the determinism
//! contract"):
//!
//! * **D001** — wall-clock / OS-entropy / host-environment sources;
//! * **D002** — `HashMap`/`HashSet` iteration in virtual-time crates;
//! * **D003** — `available_parallelism` outside the sanctioned sites;
//! * **D004** — parallelism bypassing `xpic::par::run_tasks`'s fixed-order
//!   merge;
//! * **D005** — observability purity: host clock types anywhere in the obs
//!   crate, and span guards discarded at statement level (leaked spans);
//! * **D006** — lock-order discipline: every `Mutex`/`RwLock` carries a
//!   rank (inline annotation or `lockorder.toml`), and no acquisition may
//!   invert the declared partial order;
//! * **D007** — `Ordering::Relaxed` on atomics that gate cross-thread
//!   data (load *and* store sites — the release/acquire fast-gate shape);
//! * **D008** — blocking mailbox/probe/receive calls made while a tracked
//!   lock guard is live;
//! * **M001** — psmpi misuse shapes: collectives under rank-dependent
//!   conditionals, send/recv tag-literal mismatches, inter-communicator
//!   use after `disconnect`;
//! * **M002** — per-communicator protocol matching: literal tags sent and
//!   received on different communicators, typed/bytes framing splits, and
//!   element-width disagreements between the two ends of a flow.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod lexer;
pub mod lints;
pub mod locks;
pub mod protocol;
pub mod report;

pub use allowlist::{fnv1a64_hex, Allowlist, AllowlistError};
pub use lints::{Finding, VIRTUAL_TIME_CRATES};
pub use locks::{LockOrder, LockOrderError};
pub use report::{Judged, Report};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Analyze one source string as `path` belonging to `crate_name` (the
/// workspace directory name, e.g. `psmpi`). Test modules are stripped
/// before linting. The crate-level passes (D006/D008 lock discipline,
/// M002 protocol matching) see just this one file and an empty lock
/// hierarchy; use [`analyze_source_with_order`] to rank locks.
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
    let toks = lexer::strip_test_modules(lexer::tokenize(src));
    let mut out = lints::run_all(crate_name, path, &toks);
    let files = [locks::FileInput {
        path,
        raw: src,
        toks: &toks,
    }];
    if VIRTUAL_TIME_CRATES.contains(&crate_name) {
        locks::run_crate(crate_name, &files, order, &mut out);
    }
    protocol::run_crate(&files, &mut out);
    fill_snippets(&mut out, src);
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

/// Stamp each finding with the trimmed text of its source line, the key
/// the snippet-pinned allowlist entries match against.
fn fill_snippets(findings: &mut [Finding], src: &str) {
    let lines: Vec<&str> = src.lines().collect();
    for f in findings {
        if f.snippet.is_empty() {
            if let Some(l) = lines.get(f.line.saturating_sub(1) as usize) {
                f.snippet = l.trim().to_string();
            }
        }
    }
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
/// obeys its own contract). Covers `crates/*/src/**`, `crates/*/benches/**`
/// and the root `src/`; `vendor/` (external stand-ins), `target/` and
/// `tests/` directories are out of scope.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for member in read_dir_sorted(&crates_dir)? {
            if !member.is_dir() {
                continue;
            }
            for sub in ["src", "benches"] {
                let d = member.join(sub);
                if d.is_dir() {
                    collect_rs(&d, &mut out)?;
                }
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

    // Read and tokenize every file once, grouped per crate. BTreeMap keeps
    // crates in name order and `workspace_files` returns sorted paths, so
    // the report order is stable regardless of enumeration order.
    struct Loaded {
        rel: String,
        src: String,
        toks: Vec<lexer::Tok>,
    }
    let mut by_crate: BTreeMap<String, Vec<Loaded>> = BTreeMap::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(file)?;
        let toks = lexer::strip_test_modules(lexer::tokenize(&src));
        by_crate
            .entry(crate_of(&rel).to_string())
            .or_default()
            .push(Loaded { rel, src, toks });
    }

    let mut findings = Vec::new();
    let mut used_locks: BTreeMap<&str, std::collections::BTreeSet<String>> = BTreeMap::new();
    for (krate, loaded) in &by_crate {
        let mut crate_findings = Vec::new();
        for f in loaded {
            crate_findings.extend(lints::run_all(krate, &f.rel, &f.toks));
        }
        let inputs: Vec<locks::FileInput> = loaded
            .iter()
            .map(|f| locks::FileInput {
                path: &f.rel,
                raw: &f.src,
                toks: &f.toks,
            })
            .collect();
        if VIRTUAL_TIME_CRATES.contains(&krate.as_str()) {
            let used = locks::run_crate(krate, &inputs, &order, &mut crate_findings);
            if let Some(k) = VIRTUAL_TIME_CRATES.iter().find(|k| *k == krate) {
                used_locks.insert(k, used);
            }
        }
        protocol::run_crate(&inputs, &mut crate_findings);
        for f in loaded {
            let per_file: Vec<&mut Finding> = crate_findings
                .iter_mut()
                .filter(|x| x.path == f.rel)
                .collect();
            let lines: Vec<&str> = f.src.lines().collect();
            for x in per_file {
                if x.snippet.is_empty() {
                    if let Some(l) = lines.get(x.line.saturating_sub(1) as usize) {
                        x.snippet = l.trim().to_string();
                    }
                }
            }
        }
        findings.extend(crate_findings);
    }

    // lockorder.toml entries naming locks that no longer exist are stale —
    // same hygiene rule as unused allowlist entries.
    let mut stale_lockorder = Vec::new();
    for (krate, names) in &order.ranks {
        for name in names.keys() {
            let known = used_locks.get(krate.as_str());
            if known.is_none_or(|u| !u.contains(name)) {
                stale_lockorder.push(format!("{krate}.{name}"));
            }
        }
    }

    let hash = allowlist_hash(root);
    let mut report = Report::new(findings, allowlist, files.len(), hash);
    report.stale_lockorder = stale_lockorder;
    Ok(report)
}

/// Fingerprint of the workspace's `allowlist.toml` (or `"absent"`), stamped
/// into the report so it names the waiver set it was produced under.
fn allowlist_hash(root: &Path) -> String {
    match std::fs::read(root.join("allowlist.toml")) {
        Ok(bytes) => fnv1a64_hex(&bytes),
        Err(_) => "absent".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/psmpi/src/router.rs"), "psmpi");
        assert_eq!(crate_of("crates/bench/benches/kernels.rs"), "bench");
        assert_eq!(crate_of("src/lib.rs"), "root");
    }

    #[test]
    fn analyze_source_strips_tests() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let t = Instant::now(); }\n}\n";
        assert!(analyze_source("psmpi", "x.rs", src).is_empty());
    }
}
