//! The per-file lint families enforcing the determinism contract
//! (D001–D004). The crate-level lock-discipline pass (D006/D008) lives
//! next door in [`crate::locks`].
//!
//! All lints are token-pattern heuristics over the stream produced by
//! [`crate::lexer`] — deliberately simple, deliberately conservative, and
//! documented in DESIGN.md §"Enforcing the determinism contract". False
//! positives at *intentional* sites are not silenced in code; they get an
//! `allowlist.toml` entry with a written reason, so every exception stays
//! auditable.

use crate::lexer::{find_seq, Tok, TokKind};
use std::collections::BTreeSet;

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint code (`D001` … `D004`, `D006`, `D008`).
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Trimmed source text of the offending line, shown in the report.
    pub snippet: String,
}

/// Crates whose state feeds virtual time or CG iteration counts. D002 and
/// D004 only fire inside these: the bench and the analyzer itself run on
/// the host, outside the simulated clock.
pub const VIRTUAL_TIME_CRATES: &[&str] = &[
    "hwmodel", "simnet", "psmpi", "core", "ompss", "sionio", "scr", "xpic", "obs", "sched",
];

/// Analyze one file's token stream (test modules already stripped).
/// `crate_name` is the workspace directory name (`psmpi`, `bench`, …).
pub fn run_all(crate_name: &str, path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    d001_wall_clock_and_entropy(path, toks, &mut out);
    if VIRTUAL_TIME_CRATES.contains(&crate_name) {
        d002_unordered_iteration(path, toks, &mut out);
        d004_unmanaged_parallelism(path, toks, &mut out);
    }
    d003_available_parallelism(path, toks, &mut out);
    out
}

pub(crate) fn push(out: &mut Vec<Finding>, lint: &'static str, path: &str, line: u32, msg: String) {
    out.push(Finding {
        lint,
        path: path.to_string(),
        line,
        message: msg,
        snippet: String::new(),
    });
}

// ---------------------------------------------------------------- D001 --

/// D001: wall-clock and OS-entropy sources. Virtual time must be a pure
/// function of the simulated workload; any of these lets the host leak in.
fn d001_wall_clock_and_entropy(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    const PATTERNS: &[(&[&str], &str)] = &[
        (
            &["Instant", "::", "now"],
            "`Instant::now` reads the host wall clock",
        ),
        (&["SystemTime"], "`SystemTime` reads the host wall clock"),
        (&["thread_rng"], "`thread_rng` draws OS entropy"),
        (&["from_entropy"], "`from_entropy` draws OS entropy"),
        (&["OsRng"], "`OsRng` draws OS entropy"),
        (&["getrandom"], "`getrandom` draws OS entropy"),
        (
            &["rand", "::", "random"],
            "`rand::random` draws OS entropy through the thread-local RNG; \
             seed a `StdRng` explicitly instead",
        ),
    ];
    for (pat, why) in PATTERNS {
        let mut from = 0;
        while let Some(i) = find_seq(toks, from, pat) {
            push(
                out,
                "D001",
                path,
                toks[i].line,
                format!("{why}; virtual time must not depend on the host"),
            );
            from = i + pat.len();
        }
    }
    // `std::env::<fn>` / `env::<fn>`: host environment reaching the run.
    const ENV_FNS: &[&str] = &[
        "var",
        "vars",
        "var_os",
        "args",
        "args_os",
        "current_dir",
        "temp_dir",
    ];
    let mut seen_lines = BTreeSet::new();
    for f in ENV_FNS {
        let mut from = 0;
        while let Some(i) = find_seq(toks, from, &["env", "::", f]) {
            if seen_lines.insert(toks[i].line) {
                push(
                    out,
                    "D001",
                    path,
                    toks[i].line,
                    format!("`env::{f}` reads the host environment; virtual time must not depend on the host"),
                );
            }
            from = i + 3;
        }
    }
}

// ---------------------------------------------------------------- D002 --

/// D002: iteration over `HashMap`/`HashSet` in a virtual-time-affecting
/// crate. Hash iteration order is randomized per process; if it reaches
/// scheduling state, message order, or a float accumulation, runs stop
/// being reproducible. Fix: `BTreeMap`/`BTreeSet`, or collect + sort at
/// the iteration site.
fn d002_unordered_iteration(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let names = hash_typed_names(toks);
    if names.is_empty() {
        return;
    }
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
        "into_iter",
        "into_keys",
        "into_values",
    ];
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !names.contains(t.text.as_str()) {
            continue;
        }
        // `<name> . <iter-method> (`
        if let (Some(dot), Some(m), Some(paren)) =
            (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
        {
            if dot.is_punct(".")
                && m.kind == TokKind::Ident
                && ITER_METHODS.contains(&m.text.as_str())
                && paren.is_punct("(")
            {
                push(
                    out,
                    "D002",
                    path,
                    t.line,
                    format!(
                        "iteration over hash-ordered `{}` via `.{}()`; use BTreeMap/BTreeSet or sort before iterating",
                        t.text, m.text
                    ),
                );
                continue;
            }
        }
        // `for <pat> in [&][mut] [recv .]* <name> {` — the receiver chain
        // covers field access like `&self.outputs`.
        if i >= 1 {
            let mut j = i - 1;
            while j >= 2 && toks[j].is_punct(".") && toks[j - 1].kind == TokKind::Ident {
                j -= 2;
            }
            if toks[j].is_ident("mut") && j >= 1 {
                j -= 1;
            }
            if toks[j].is_punct("&") && j >= 1 {
                j -= 1;
            }
            if toks[j].is_ident("in") && toks.get(i + 1).is_some_and(|n| n.is_punct("{")) {
                push(
                    out,
                    "D002",
                    path,
                    t.line,
                    format!(
                        "`for` loop over hash-ordered `{}`; use BTreeMap/BTreeSet or sort before iterating",
                        t.text
                    ),
                );
            }
        }
    }
}

/// Names declared in this file with a `HashMap`/`HashSet` type: struct
/// fields and bindings with an explicit `: HashMap<…>` annotation, plus
/// `let [mut] x = HashMap::new()` / `HashSet::new()` initializers.
fn hash_typed_names(toks: &[Tok]) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `<name> : … HashMap/HashSet …` up to a type-ending delimiter.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            let mut depth = 0i32;
            for t in toks.iter().skip(i + 2).take(24) {
                if t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct(">") {
                    depth -= 1;
                } else if depth == 0
                    && (t.is_punct(",")
                        || t.is_punct(";")
                        || t.is_punct("=")
                        || t.is_punct(")")
                        || t.is_punct("{")
                        || t.is_punct("}"))
                {
                    break;
                }
                if t.is_ident("HashMap") || t.is_ident("HashSet") {
                    names.insert(toks[i].text.as_str());
                    break;
                }
            }
        }
        // `let [mut] <name> = HashMap::new()`.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind) == Some(TokKind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct("="))
                && toks
                    .get(j + 2)
                    .is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
            {
                names.insert(toks[j].text.as_str());
            }
        }
    }
    names
}

// ---------------------------------------------------------------- D003 --

/// D003: `available_parallelism` leaks host topology. The only sanctioned
/// consumers are the thread-pool sizing site (`xpic::par::resolve_threads`)
/// and the bench metadata record — both allowlisted, everything else fails.
fn d003_available_parallelism(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let mut from = 0;
    while let Some(i) = find_seq(toks, from, &["available_parallelism"]) {
        push(
            out,
            "D003",
            path,
            toks[i].line,
            "`available_parallelism` leaks host core count; only the sanctioned \
             thread-pool sizing site and bench metadata may read it"
                .to_string(),
        );
        from = i + 1;
    }
}

// ---------------------------------------------------------------- D004 --

/// D004: parallelism that bypasses `xpic::par`. Data-parallel work in
/// simulation crates must go through `par::run_tasks` over a fixed chunk
/// grid with a serial in-chunk-order merge; spawning threads directly (or
/// accumulating float partials through shared atomics) reopens the
/// scheduling-order hole the contract closes.
fn d004_unmanaged_parallelism(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for pat in [
        &["thread", "::", "scope"][..],
        &["thread", "::", "spawn"][..],
        &["rayon"][..],
    ] {
        let mut from = 0;
        while let Some(i) = find_seq(toks, from, pat) {
            push(
                out,
                "D004",
                path,
                toks[i].line,
                format!(
                    "direct `{}` bypasses the fixed-order merge in `xpic::par::run_tasks`",
                    pat.join("")
                ),
            );
            from = i + pat.len();
        }
    }
    // Atomic float reduction: f64 bit-cast accumulation via fetch_update /
    // compare-exchange on an AtomicU64 — bit-identical only by luck.
    if find_seq(toks, 0, &["AtomicU64"]).is_some() {
        if let Some(i) = find_seq(toks, 0, &["from_bits"]) {
            push(
                out,
                "D004",
                path,
                toks[i].line,
                "atomic f64 accumulation (AtomicU64 + from_bits) has scheduling-dependent \
                 merge order; use per-chunk partials merged in chunk order"
                    .to_string(),
            );
        }
    }
}
