//! The per-file lint families enforcing the determinism contract
//! (D001–D005, D007) and psmpi usage correctness (M001, M003). The
//! crate-level passes live next door: lock discipline (D006/D008) in
//! [`crate::locks`], the protocol matcher (M002) in [`crate::protocol`].
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
    /// Lint code (`D001` … `D008`, `M001` … `M003`).
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Trimmed source text of the offending line. Allowlist entries may
    /// pin themselves to it (verbatim or as an `fnv1a64:` hash), which
    /// keeps waivers valid across line-shifting refactors.
    pub snippet: String,
}

/// Crates whose state feeds virtual time or CG iteration counts. D002 and
/// D004 only fire inside these: the bench and the analyzer itself run on
/// the host, outside the simulated clock.
pub const VIRTUAL_TIME_CRATES: &[&str] = &[
    "hwmodel", "simnet", "psmpi", "core", "ompss", "sionio", "scr", "xpic", "obs", "sched",
];

/// Crates making up the observability subsystem. D005's wall-clock rule is
/// scoped to these: every obs timestamp must be a caller-provided
/// `SimTime`, so even *naming* a host clock type there is a violation.
pub const OBS_CRATES: &[&str] = &["obs"];

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
    if OBS_CRATES.contains(&crate_name) {
        d005_obs_wall_clock(path, toks, &mut out);
    }
    d005_span_guard_discarded(path, toks, &mut out);
    m003_request_discarded(path, toks, &mut out);
    if VIRTUAL_TIME_CRATES.contains(&crate_name) {
        d007_relaxed_atomics(path, toks, &mut out);
    }
    m001_collective_under_rank_conditional(path, toks, &mut out);
    m001_tag_literal_mismatch(path, toks, &mut out);
    m001_use_after_disconnect(path, toks, &mut out);
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
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

// ---------------------------------------------------------------- D005 --

/// D005 (virtual-time purity): any mention of `std::time`, `Instant` or
/// `SystemTime` inside the obs crate. Stricter than D001, which only flags
/// *reading* the wall clock: the observability subsystem's byte-identical
/// trace guarantee requires that host clock types cannot even be imported
/// there.
fn d005_obs_wall_clock(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    const PATTERNS: &[(&[&str], &str)] = &[
        (&["std", "::", "time"], "`std::time`"),
        (&["Instant"], "`Instant`"),
        (&["SystemTime"], "`SystemTime`"),
    ];
    for (pat, what) in PATTERNS {
        let mut from = 0;
        while let Some(i) = find_seq(toks, from, pat) {
            push(
                out,
                "D005",
                path,
                toks[i].line,
                format!(
                    "{what} in the obs crate — obs timestamps come exclusively from \
                     caller-provided `SimTime`, host clock types are banned here"
                ),
            );
            from = i + pat.len();
        }
    }
}

/// D005 (leaked span guard): an `open_span`/`obs_open` call whose whole
/// statement is the call itself. The returned `SpanGuard` is dropped on the
/// spot, force-closing the span at its own open time and counting it as
/// unclosed — always a bug. Bind the guard and `close()` it. Guards that
/// are bound (`let`), assigned, returned, or passed on (the close paren is
/// not followed by `;`) do not fire.
fn d005_span_guard_discarded(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for method in ["open_span", "obs_open"] {
        let mut from = 0;
        while let Some(i) = find_seq(toks, from, &[".", method, "("]) {
            from = i + 3;
            // The call's matching close paren.
            let mut depth = 0i32;
            let mut k = i + 2;
            let mut close = None;
            while k < toks.len() {
                if toks[k].is_punct("(") {
                    depth += 1;
                } else if toks[k].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(k);
                        break;
                    }
                }
                k += 1;
            }
            let Some(close) = close else { continue };
            if !toks.get(close + 1).is_some_and(|t| t.is_punct(";")) {
                continue;
            }
            // Statement prefix: anything binding or forwarding the guard?
            let mut bound = false;
            let mut j = i;
            while j > 0 {
                j -= 1;
                let t = &toks[j];
                if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                    break;
                }
                if t.is_ident("let") || t.is_punct("=") || t.is_ident("return") {
                    bound = true;
                    break;
                }
            }
            if !bound {
                push(
                    out,
                    "D005",
                    path,
                    toks[i + 1].line,
                    format!(
                        "span opened via `{method}` without keeping the guard — the \
                         `SpanGuard` drops immediately, the span closes at its own open \
                         time and is counted as unclosed; bind it and `close()` it"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- M003 --

/// Every request-returning nonblocking method of `Rank`: the `isend_*` /
/// `irecv_*` rows of the protocol tables. A dropped return value from any
/// of these is a lost request.
fn request_methods() -> impl Iterator<Item = &'static str> {
    let p2p = crate::protocol::SENDS.iter().chain(crate::protocol::RECVS);
    p2p.map(|e| e.0).filter(|m| m.starts_with('i'))
}

/// M003: a nonblocking request dropped without `wait`/`test` — an
/// `isend_*`/`irecv_*` call whose whole statement is the call itself
/// (statement-level discard, the D005 span-guard shape). Dropping a
/// `SendRequest` silently forfeits the deferred NIC charge and any parked
/// fault; dropping a receive request leaves the matched message criteria
/// dead. Unwrapping suffixes count as discards too: `….unwrap();`,
/// `….expect("…");` and `…?;` all peel the `Result` and drop the request
/// inside. Binding (`let`), assigning, returning, or chaining the request
/// onward (`.wait(…)` in the same statement) does not fire.
fn m003_request_discarded(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for method in request_methods() {
        let mut from = 0;
        while let Some(i) = find_seq(toks, from, &[".", method, "("]) {
            from = i + 3;
            // The call's matching close paren.
            let mut depth = 0i32;
            let mut k = i + 2;
            let mut close = None;
            while k < toks.len() {
                if toks[k].is_punct("(") {
                    depth += 1;
                } else if toks[k].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(k);
                        break;
                    }
                }
                k += 1;
            }
            let Some(close) = close else { continue };
            // Skip Result-peeling suffixes: `?`, `.unwrap()`, `.expect(…)`.
            // Whatever remains must be the statement terminator for this to
            // be a discard; a further `.wait(…)`/`.test(…)` chain, or any
            // other continuation, consumes the request.
            let mut end = close + 1;
            loop {
                if toks.get(end).is_some_and(|t| t.is_punct("?")) {
                    end += 1;
                    continue;
                }
                if toks.get(end).is_some_and(|t| t.is_punct("."))
                    && toks
                        .get(end + 1)
                        .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
                    && toks.get(end + 2).is_some_and(|t| t.is_punct("("))
                {
                    let mut d = 0i32;
                    let mut c = end + 2;
                    let mut closed = None;
                    while c < toks.len() {
                        if toks[c].is_punct("(") {
                            d += 1;
                        } else if toks[c].is_punct(")") {
                            d -= 1;
                            if d == 0 {
                                closed = Some(c);
                                break;
                            }
                        }
                        c += 1;
                    }
                    match closed {
                        Some(c) => {
                            end = c + 1;
                            continue;
                        }
                        None => break,
                    }
                }
                break;
            }
            if !toks.get(end).is_some_and(|t| t.is_punct(";")) {
                continue;
            }
            // Statement prefix: anything binding or forwarding the request?
            let mut bound = false;
            let mut j = i;
            while j > 0 {
                j -= 1;
                let t = &toks[j];
                if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                    break;
                }
                if t.is_ident("let") || t.is_punct("=") || t.is_ident("return") {
                    bound = true;
                    break;
                }
            }
            if !bound {
                push(
                    out,
                    "M003",
                    path,
                    toks[i + 1].line,
                    format!(
                        "nonblocking request from `{method}` dropped without `wait`/`test` \
                         — the deferred completion charge (and any parked fault) is \
                         silently forfeited; bind the request and complete it"
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- D007 --

/// D007: `Ordering::Relaxed` on an atomic that *gates* cross-thread data
/// — a name with both `load` and `store` sites in the file (the shape of
/// a flag like `any_dead` or `trace_attached` published by one thread and
/// polled by another). A relaxed load can observe the flag without the
/// writes it advertises; the pair must form a release/acquire edge.
/// Pure counters (`fetch_add` + load-only stats) never have a `store`
/// site and are exempt by construction.
fn d007_relaxed_atomics(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let names = atomic_names(toks);
    if names.is_empty() {
        return;
    }
    // (name, is_store, ordering ident, line) over `.load(…)`/`.store(…)`.
    let mut ops: Vec<(&str, bool, Option<&str>, u32)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct(".") || i == 0 {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        let is_store = m.is_ident("store");
        if !is_store && !m.is_ident("load") {
            continue;
        }
        if !toks.get(i + 2).is_some_and(|p| p.is_punct("(")) {
            continue;
        }
        let recv = &toks[i - 1];
        if recv.kind != TokKind::Ident || !names.contains(recv.text.as_str()) {
            continue;
        }
        // The ordering is the last Ordering-variant ident inside the call.
        let mut depth = 0i32;
        let mut k = i + 2;
        let mut ordering = None;
        while k < toks.len() {
            let a = &toks[k];
            if a.is_punct("(") {
                depth += 1;
            } else if a.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if a.kind == TokKind::Ident
                && matches!(
                    a.text.as_str(),
                    "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
                )
            {
                ordering = Some(a.text.as_str());
            }
            k += 1;
        }
        ops.push((recv.text.as_str(), is_store, ordering, m.line));
    }
    let gated: BTreeSet<&str> = names
        .iter()
        .copied()
        .filter(|n| {
            ops.iter().any(|&(o, s, _, _)| o == *n && s)
                && ops.iter().any(|&(o, s, _, _)| o == *n && !s)
        })
        .collect();
    for &(name, is_store, ordering, line) in &ops {
        if gated.contains(name) && ordering == Some("Relaxed") {
            let (op, need) = if is_store {
                ("store", "Release")
            } else {
                ("load", "Acquire")
            };
            push(
                out,
                "D007",
                path,
                line,
                format!(
                    "relaxed `{op}` on `{name}`, an atomic with both load and store sites — \
                     the flag gates cross-thread data and needs `Ordering::{need}` to form a \
                     release/acquire edge"
                ),
            );
        }
    }
}

/// Names declared with an atomic integer/bool type: explicit
/// `: Atomic…` annotations (fields, params, statics) and
/// `let [mut] x = Atomic…::new(…)` initializers.
fn atomic_names(toks: &[Tok]) -> BTreeSet<&str> {
    const ATOMICS: &[&str] = &[
        "AtomicBool",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
        "AtomicI8",
        "AtomicI16",
        "AtomicI32",
        "AtomicI64",
        "AtomicIsize",
    ];
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            for t in toks.iter().skip(i + 2).take(10) {
                if t.is_punct(",") || t.is_punct(";") || t.is_punct("=") || t.is_punct(")") {
                    break;
                }
                if t.kind == TokKind::Ident && ATOMICS.contains(&t.text.as_str()) {
                    names.insert(toks[i].text.as_str());
                    break;
                }
            }
        }
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind) == Some(TokKind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct("="))
                && toks
                    .get(j + 2)
                    .is_some_and(|t| t.kind == TokKind::Ident && ATOMICS.contains(&t.text.as_str()))
            {
                names.insert(toks[j].text.as_str());
            }
        }
    }
    names
}

// ---------------------------------------------------------------- M001 --

const COLLECTIVES: &[&str] = &[
    "barrier",
    "bcast",
    "bcast_bytes",
    "allreduce",
    "allreduce_scalar",
    "reduce",
    "allgather",
    "allgatherv",
    "gather",
    "scatter",
    "alltoall",
];

/// M001 (deadlock shape): a collective call inside an `if` whose condition
/// depends on the rank. In MPI every member of the communicator must make
/// the same collective calls in the same order; guarding one behind a
/// rank test hangs the others (the classic `MPI_Comm_spawn` bring-up bug
/// when only the root calls the collective on the inter-communicator).
fn m001_collective_under_rank_conditional(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("if") {
            i += 1;
            continue;
        }
        // Condition = tokens from after `if` to the opening `{` (paren-
        // balanced; `if let` destructures are included, harmless).
        let mut j = i + 1;
        let mut paren = 0i32;
        let mut rank_dependent = false;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                paren += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                paren -= 1;
            } else if paren == 0 && t.is_punct("{") {
                break;
            }
            if t.is_ident("rank") || t.is_ident("rank_idx") || t.is_ident("my_rank") {
                rank_dependent = true;
            }
            j += 1;
        }
        if !rank_dependent || j >= toks.len() {
            i = j.max(i + 1);
            continue;
        }
        // Walk the rank-guarded block and flag collectives called in it.
        let mut depth = 0i32;
        let mut k = j;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_punct(".")
                && toks.get(k + 1).is_some_and(|m| {
                    m.kind == TokKind::Ident && COLLECTIVES.contains(&m.text.as_str())
                })
                && toks.get(k + 2).is_some_and(|p| p.is_punct("("))
            {
                push(
                    out,
                    "M001",
                    path,
                    toks[k + 1].line,
                    format!(
                        "collective `{}` under a rank-dependent conditional — other ranks never \
                         enter the call and the job deadlocks",
                        toks[k + 1].text
                    ),
                );
                k += 2;
            }
            k += 1;
        }
        i = j + 1;
    }
}

/// M001 (matching shape): literal message tags that are sent but never
/// received (or received but never sent) within one crate. Only integer
/// literals participate; computed tags and wildcard (`None`) receives
/// disable the corresponding direction of the check.
fn m001_tag_literal_mismatch(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    use crate::protocol::{RECVS, SENDS};

    let mut sent: Vec<(u64, u32)> = Vec::new();
    let mut recvd: Vec<(u64, u32)> = Vec::new();
    let mut dynamic_send = false;
    let mut dynamic_recv = false;
    let mut wildcard_recv = false;

    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct(".") {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if m.kind != TokKind::Ident {
            continue;
        }
        // Zero-based index of the tag argument.
        let send_slot = SENDS.iter().find(|e| e.0 == m.text).map(|e| e.2);
        let recv_slot = RECVS.iter().find(|e| e.0 == m.text).map(|e| e.2);
        if send_slot.is_none() && recv_slot.is_none() {
            continue;
        }
        // Opening paren of the call: next token, possibly after turbofish
        // `::<T>`.
        let mut p = i + 2;
        if toks.get(p).is_some_and(|t| t.is_punct("::")) {
            let mut depth = 0i32;
            p += 1;
            while p < toks.len() {
                if toks[p].is_punct("<") {
                    depth += 1;
                } else if toks[p].is_punct(">") {
                    depth -= 1;
                    if depth == 0 {
                        p += 1;
                        break;
                    }
                }
                p += 1;
            }
        }
        if !toks.get(p).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        let slot = send_slot.or(recv_slot).unwrap();
        let Some(arg) = call_arg(toks, p, slot) else {
            continue;
        };
        let tag = classify_tag_arg(toks, arg);
        match (send_slot.is_some(), tag) {
            (true, TagArg::Literal(v)) => sent.push((v, toks[i].line)),
            (true, _) => dynamic_send = true,
            (false, TagArg::Literal(v)) => recvd.push((v, toks[i].line)),
            (false, TagArg::Wildcard) => wildcard_recv = true,
            (false, TagArg::Dynamic) => dynamic_recv = true,
        }
    }

    let sent_tags: BTreeSet<u64> = sent.iter().map(|&(v, _)| v).collect();
    let recvd_tags: BTreeSet<u64> = recvd.iter().map(|&(v, _)| v).collect();
    if !wildcard_recv && !dynamic_recv {
        for &(v, line) in &sent {
            if !recvd_tags.contains(&v) {
                push(
                    out,
                    "M001",
                    path,
                    line,
                    format!("tag {v} is sent here but never received in this crate — the message is lost and a matching receive would hang"),
                );
            }
        }
    }
    if !dynamic_send {
        for &(v, line) in &recvd {
            if !sent_tags.contains(&v) {
                push(
                    out,
                    "M001",
                    path,
                    line,
                    format!("tag {v} is received here but never sent in this crate — this receive blocks forever"),
                );
            }
        }
    }
}

/// How a tag argument classifies for the matching checks (shared with
/// the M002 protocol matcher in [`crate::protocol`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TagArg {
    /// `7` or `Some(7)`.
    Literal(u64),
    /// `None` — matches anything.
    Wildcard,
    /// Computed — the check cannot reason about it.
    Dynamic,
}

/// Index of the first token of argument `slot` (0-based) of the call whose
/// opening paren is at `open`. Arguments split on depth-1 commas.
pub(crate) fn call_arg(toks: &[Tok], open: usize, slot: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut arg = 0usize;
    let mut k = open;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
            if depth == 1 && arg == slot {
                return Some(k + 1);
            }
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return None;
            }
        } else if t.is_punct(",") && depth == 1 {
            arg += 1;
            if arg == slot {
                return Some(k + 1);
            }
        }
        k += 1;
    }
    None
}

pub(crate) fn classify_tag_arg(toks: &[Tok], at: usize) -> TagArg {
    let t = match toks.get(at) {
        Some(t) => t,
        None => return TagArg::Dynamic,
    };
    if t.is_ident("None") {
        return TagArg::Wildcard;
    }
    // `Some(<lit>)` or a bare literal.
    let lit = if t.is_ident("Some") {
        toks.get(at + 2)
    } else {
        Some(t)
    };
    match lit {
        Some(l) if l.kind == TokKind::Lit => match l.text.parse::<u64>() {
            Ok(v) => TagArg::Literal(v),
            Err(_) => TagArg::Dynamic,
        },
        Some(l) if l.is_ident("None") => TagArg::Wildcard,
        _ => TagArg::Dynamic,
    }
}

/// M001 (lifecycle shape): using an inter-communicator after calling
/// `.disconnect()` on it in the same scope. `psmpi::Rank::disconnect`
/// consumes the handle, so Rust code can only hit this through clones —
/// but the C-shaped fixture corpus (and ported code) can.
fn m001_use_after_disconnect(path: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let mut from = 0;
    while let Some(i) = find_seq(toks, from, &[".", "disconnect", "("]) {
        from = i + 3;
        if i == 0 || toks[i - 1].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i - 1].text.clone();
        // Scan forward in the enclosing scope: stop when the brace depth
        // drops below the depth at the disconnect site.
        let mut depth = 0i32;
        let mut k = from;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if t.is_ident(&name) && toks.get(k + 1).is_some_and(|d| d.is_punct(".")) {
                push(
                    out,
                    "M001",
                    path,
                    t.line,
                    format!("`{name}` used after `disconnect` — the inter-communicator is gone"),
                );
            }
            k += 1;
        }
    }
}
