//! D006 / D008 — lock-discipline analysis.
//!
//! The concurrency story in `psmpi` (64 endpoint shards, per-endpoint NIC
//! mutexes, mailbox condvars) only stays deadlock-free if every acquisition
//! chain climbs one global partial order. This module enforces that order
//! statically:
//!
//! * every `Mutex`/`RwLock` declaration must carry a rank — either an
//!   inline annotation comment (`lock-order: <rank>` after a `//` on the
//!   declaration line or up to three lines above it) or an entry in the
//!   workspace `lockorder.toml` (`[crate]` sections of `name = rank`
//!   pairs, which also covers clone aliases that have no declaration);
//! * a per-file guard-scope simulation walks the token stream tracking
//!   live `lock()`/`read()`/`write()` guards (let-bound guards live to the
//!   end of their block or an explicit `drop`, temporaries to the end of
//!   their statement) and reports any acquisition whose rank does not
//!   strictly increase over every guard already held (**D006**);
//! * while any tracked guard is live, calls into the blocking mailbox /
//!   probe / receive surface are reported (**D008**): a parked receive
//!   with a shard or NIC guard held stalls every contender of that lock.
//!
//! The analysis is lexical and per-crate. Acquisitions made behind a
//! function call (a closure invoked under a lock, a method that locks
//! internally) are invisible here by design — that blind spot is exactly
//! what the runtime witness in `psmpi::lockcheck` covers.

use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint code (`D006` or `D008`).
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

fn push(out: &mut Vec<Finding>, lint: &'static str, path: &str, line: u32, msg: String) {
    out.push(Finding {
        lint,
        path: path.to_string(),
        line,
        message: msg,
        snippet: String::new(),
    });
}

/// The parsed `lockorder.toml`: crate name → lock name → rank.
#[derive(Debug, Clone, Default)]
pub struct LockOrder {
    /// Declared ranks, `[crate]` section → `name = rank` entries.
    pub ranks: BTreeMap<String, BTreeMap<String, i64>>,
}

/// A malformed `lockorder.toml` is a hard error: CI must not run against
/// a half-understood hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockOrderError(pub String);

impl std::fmt::Display for LockOrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lockorder.toml: {}", self.0)
    }
}

impl std::error::Error for LockOrderError {}

impl LockOrder {
    /// Parse the TOML subset: `[crate]` sections of `name = <integer>`
    /// pairs, `#` comments.
    pub fn parse(src: &str) -> Result<LockOrder, LockOrderError> {
        let mut ranks: BTreeMap<String, BTreeMap<String, i64>> = BTreeMap::new();
        let mut current: Option<String> = None;
        for (idx, raw) in src.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(inner) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = inner.trim();
                if name.is_empty()
                    || name.starts_with('[')
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    return Err(LockOrderError(format!(
                        "line {line_no}: invalid section `{line}` (expected a crate name)"
                    )));
                }
                ranks.entry(name.to_string()).or_default();
                current = Some(name.to_string());
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(LockOrderError(format!(
                    "line {line_no}: expected `name = <rank>`"
                )));
            };
            let key = line[..eq].trim();
            let value = line[eq + 1..].trim();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(LockOrderError(format!(
                    "line {line_no}: invalid lock name `{key}`"
                )));
            }
            let Some(section) = current.as_ref() else {
                return Err(LockOrderError(format!(
                    "line {line_no}: `{key}` outside any [crate] section"
                )));
            };
            let rank: i64 = value.parse().map_err(|_| {
                LockOrderError(format!(
                    "line {line_no}: rank of `{key}` must be an integer, got `{value}`"
                ))
            })?;
            let section_map = ranks.get_mut(section).expect("section inserted above");
            if section_map.insert(key.to_string(), rank).is_some() {
                return Err(LockOrderError(format!(
                    "line {line_no}: duplicate lock `{key}` in [{section}]"
                )));
            }
        }
        Ok(LockOrder { ranks })
    }

    /// The declared rank of `name` in `krate`, if any.
    pub fn rank(&self, krate: &str, name: &str) -> Option<i64> {
        self.ranks.get(krate).and_then(|m| m.get(name)).copied()
    }
}

/// One file of a crate, as the crate-level passes consume it: the raw
/// source (annotation comments live there — the lexer drops comments) and
/// the already-stripped token stream.
pub struct FileInput<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Raw source text.
    pub raw: &'a str,
    /// Token stream with test modules stripped.
    pub toks: &'a [Tok],
}

/// Every blocking call of psmpi's receive surface: the mailbox's one wait
/// loop (`park_until`) and its three callers, the probe `Rank`'s
/// collectives build on them, and `Rank`'s five blocking receives (a unit
/// test keeps these equal to the `pub fn recv*` of `rank.rs`). A call to
/// any of these while a tracked guard is live is D008. `Condvar::wait` is
/// *not* here: it releases the mutex it parks on.
const BLOCKING: &[&str] = &[
    "park_until",
    "recv_match",
    "recv_match_abortable",
    "probe_blocking_either",
    "probe_either",
    "recv",
    "recv_comm",
    "recv_into",
    "recv_into_comm",
    "recv_bytes_comm",
];

/// Run the lock-discipline pass over one crate. Returns every lock name
/// that was seen (declared, or acquired through a `lockorder.toml` name)
/// so the caller can report stale `lockorder.toml` entries.
pub fn run_crate(
    crate_name: &str,
    files: &[FileInput<'_>],
    order: &LockOrder,
    out: &mut Vec<Finding>,
) -> BTreeSet<String> {
    let mut used: BTreeSet<String> = BTreeSet::new();
    // name → (rank, declaring path, declaring line) — resolved crate-wide
    // so a lock declared in one file ranks its acquisitions in another.
    let mut ranks: BTreeMap<String, (i64, String, u32)> = BTreeMap::new();

    for f in files {
        let ann = annotations(f.raw);
        let decls = lock_decls(f.toks);
        let decl_lines: BTreeSet<u32> = decls.iter().map(|d| d.line).collect();
        for d in decls {
            used.insert(d.name.clone());
            // The annotation may sit on the declaration line or up to 3
            // lines above it (doc comments, attribute lines) — but the
            // upward scan stops at another declaration's line, whose
            // annotation belongs to that declaration alone.
            let mut found = ann.get(&d.line).copied();
            if found.is_none() {
                for off in 1..=3u32 {
                    let Some(l) = d.line.checked_sub(off) else {
                        break;
                    };
                    if decl_lines.contains(&l) {
                        break;
                    }
                    if let Some(a) = ann.get(&l) {
                        found = Some(*a);
                        break;
                    }
                }
            }
            let toml_rank = order.rank(crate_name, &d.name);
            let resolved = match (found, toml_rank) {
                (Some(Err(())), _) => {
                    push(
                        out,
                        "D006",
                        f.path,
                        d.line,
                        format!(
                            "malformed `lock-order` annotation on lock `{}` — the rank must \
                             be an integer",
                            d.name
                        ),
                    );
                    continue;
                }
                (Some(Ok(r)), Some(tr)) if r != tr => {
                    push(
                        out,
                        "D006",
                        f.path,
                        d.line,
                        format!(
                            "lock `{}` has conflicting ranks: the annotation says {r} but \
                             lockorder.toml says {tr}",
                            d.name
                        ),
                    );
                    continue;
                }
                (Some(Ok(r)), _) => r,
                (None, Some(tr)) => tr,
                (None, None) => {
                    push(
                        out,
                        "D006",
                        f.path,
                        d.line,
                        format!(
                            "lock `{}` declared without a `lock-order` annotation or a \
                             lockorder.toml entry; every Mutex/RwLock must carry a rank in \
                             the crate hierarchy",
                            d.name
                        ),
                    );
                    continue;
                }
            };
            match ranks.get(&d.name) {
                Some(&(prev, ref ppath, pline)) if prev != resolved => {
                    push(
                        out,
                        "D006",
                        f.path,
                        d.line,
                        format!(
                            "lock `{}` ranked {resolved} here but {prev} at {ppath}:{pline} — \
                             one name, one rank",
                            d.name
                        ),
                    );
                }
                Some(_) => {}
                None => {
                    ranks.insert(d.name.clone(), (resolved, f.path.to_string(), d.line));
                }
            }
        }
    }

    // lockorder.toml names with no declaration in the crate are clone
    // aliases (`let store_in = Arc::clone(&store)`), rankable only by the
    // hierarchy file.
    if let Some(m) = order.ranks.get(crate_name) {
        for (name, &r) in m {
            ranks
                .entry(name.clone())
                .or_insert_with(|| (r, "lockorder.toml".to_string(), 0));
        }
    }

    for f in files {
        simulate(f, &ranks, &mut used, out);
    }
    used
}

/// `lock-order:` markers by 1-indexed line: `Ok(rank)` or `Err(())` when
/// the rank does not parse. Only markers sitting after a `//` count, and
/// they only take effect when a lock declaration sits within range — a
/// stray marker in prose is ignored.
fn annotations(raw: &str) -> BTreeMap<u32, Result<i64, ()>> {
    let mut out = BTreeMap::new();
    for (idx, line) in raw.lines().enumerate() {
        let Some(c) = line.find("//") else { continue };
        let rest = &line[c + 2..];
        let Some(m) = rest.find("lock-order:") else {
            continue;
        };
        let val = rest[m + "lock-order:".len()..]
            .split_whitespace()
            .next()
            .unwrap_or("");
        out.insert(idx as u32 + 1, val.parse::<i64>().map_err(|_| ()));
    }
    out
}

/// A `Mutex`/`RwLock` declaration site.
struct Decl {
    name: String,
    line: u32,
}

/// Lock declarations in a token stream: names with an explicit
/// `: … Mutex<…>/RwLock<…>` type annotation (struct fields, params,
/// statics, annotated lets) and `let [mut] name = … Mutex/RwLock::new`
/// initializers. Struct-literal field *initializers*
/// (`field: Mutex::new(…)`) do not count: there the lock type is followed
/// by `::`, not `<`, and the field's declaration is ranked where the type
/// is spelled.
fn lock_decls(toks: &[Tok]) -> Vec<Decl> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `<name> : … Mutex<` / `RwLock<` within the type expression.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            let mut depth = 0i32;
            let mut j = i + 2;
            let end = (i + 2 + 28).min(toks.len());
            while j < end {
                let t = &toks[j];
                if (t.is_ident("Mutex") || t.is_ident("RwLock"))
                    && toks.get(j + 1).is_some_and(|n| n.is_punct("<"))
                {
                    if seen.insert((toks[i].text.clone(), toks[i].line)) {
                        out.push(Decl {
                            name: toks[i].text.clone(),
                            line: toks[i].line,
                        });
                    }
                    break;
                }
                if t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct(">") {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
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
                j += 1;
            }
        }
        // `let [mut] <name> = … Mutex::new` / `RwLock::new`.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind) == Some(TokKind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct("="))
            {
                let name_idx = j;
                let end = (j + 2 + 14).min(toks.len());
                let mut k = j + 2;
                while k < end {
                    let t = &toks[k];
                    if t.is_punct(";") {
                        break;
                    }
                    if (t.is_ident("Mutex") || t.is_ident("RwLock"))
                        && toks.get(k + 1).is_some_and(|n| n.is_punct("::"))
                        && toks.get(k + 2).is_some_and(|n| n.is_ident("new"))
                    {
                        if seen.insert((toks[name_idx].text.clone(), toks[name_idx].line)) {
                            out.push(Decl {
                                name: toks[name_idx].text.clone(),
                                line: toks[name_idx].line,
                            });
                        }
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    out
}

/// A live guard in the scope simulation.
struct Guard {
    /// Resolved lock name (aliases mapped back to the lock).
    name: String,
    /// The lock's declared rank.
    rank: i64,
    /// `let` binding name, when bound (for explicit `drop(g)`).
    bind: Option<String>,
    /// Brace depth at the acquisition.
    birth: i32,
    /// Acquisition line (reported in D006/D008 messages).
    line: u32,
    /// Temporary (un-bound) guard: dies at the end of its statement.
    temp: bool,
}

fn resolve(aliases: &[(String, String, i32)], name: &str) -> String {
    for (alias, lock, _) in aliases.iter().rev() {
        if alias == name {
            return lock.clone();
        }
    }
    name.to_string()
}

/// Walk one file tracking guard scopes; emit D006 on rank inversions and
/// D008 on blocking calls under a live guard.
fn simulate(
    f: &FileInput<'_>,
    ranks: &BTreeMap<String, (i64, String, u32)>,
    used: &mut BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let toks = f.toks;
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    // (alias, lock, registration depth) — `for shard in &self.endpoints`.
    let mut aliases: Vec<(String, String, i32)> = Vec::new();
    let mut d008_seen: BTreeSet<(u32, String)> = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth -= 1;
            guards.retain(|g| {
                if g.temp {
                    g.birth < depth
                } else {
                    g.birth <= depth
                }
            });
            aliases.retain(|a| a.2 < depth);
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            guards.retain(|g| !(g.temp && g.birth == depth));
            i += 1;
            continue;
        }
        // `drop(<ident>)` releases the most recent matching bound guard.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|p| p.is_punct("("))
            && toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Ident)
            && toks.get(i + 3).is_some_and(|p| p.is_punct(")"))
        {
            let name = toks[i + 2].text.clone();
            if let Some(pos) = guards
                .iter()
                .rposition(|g| g.bind.as_deref() == Some(name.as_str()))
            {
                guards.remove(pos);
            }
            i += 4;
            continue;
        }
        // `for <ident> in <iter> {` — alias the loop variable to the lock
        // the iterator mentions, so `for shard in &self.endpoints { …
        // shard.read() … }` ranks as an `endpoints` acquisition. Tuple
        // patterns are not aliased (their idents are element bindings).
        if t.is_ident("for")
            && toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident)
            && toks.get(i + 2).is_some_and(|t| t.is_ident("in"))
        {
            let alias = toks[i + 1].text.clone();
            let mut j = i + 3;
            let mut par = 0i32;
            let mut lockname: Option<String> = None;
            while j < toks.len() {
                let tt = &toks[j];
                if tt.is_punct("(") || tt.is_punct("[") {
                    par += 1;
                } else if tt.is_punct(")") || tt.is_punct("]") {
                    par -= 1;
                } else if par == 0 && (tt.is_punct("{") || tt.is_punct(";")) {
                    break;
                }
                if lockname.is_none() && tt.kind == TokKind::Ident {
                    let r = resolve(&aliases, &tt.text);
                    if ranks.contains_key(&r) {
                        lockname = Some(r);
                    }
                }
                j += 1;
            }
            if let Some(lock) = lockname {
                aliases.push((alias, lock, depth));
            }
            i += 3;
            continue;
        }
        if t.is_punct(".") {
            // Acquisition: `.lock()` / `.read()` / `.write()` with *empty*
            // argument lists (io traits take a buffer; Condvar::wait is a
            // different name).
            if let Some(m) = toks.get(i + 1) {
                if m.kind == TokKind::Ident
                    && (m.is_ident("lock") || m.is_ident("read") || m.is_ident("write"))
                    && toks.get(i + 2).is_some_and(|p| p.is_punct("("))
                    && toks.get(i + 3).is_some_and(|p| p.is_punct(")"))
                {
                    if let Some(recv) = receiver_of(toks, i) {
                        let name = resolve(&aliases, &recv);
                        if let Some(&(rank, _, _)) = ranks.get(&name) {
                            used.insert(name.clone());
                            let line = m.line;
                            if let Some(g) = guards.iter().find(|g| rank <= g.rank) {
                                let msg = if g.name == name {
                                    format!(
                                        "re-acquiring `{name}` (rank {rank}) while already \
                                         holding it (line {}) — with parking_lot's fair locks \
                                         a queued writer between two read acquisitions \
                                         deadlocks both readers",
                                        g.line
                                    )
                                } else if g.rank == rank {
                                    format!(
                                        "acquiring `{name}` (rank {rank}) while holding \
                                         `{}` of the same rank (line {}) — ranks must \
                                         strictly increase along every acquisition chain",
                                        g.name, g.line
                                    )
                                } else {
                                    format!(
                                        "acquiring `{name}` (rank {rank}) while holding \
                                         `{}` (rank {}, line {}) inverts the declared \
                                         lock order",
                                        g.name, g.rank, g.line
                                    )
                                };
                                push(out, "D006", f.path, line, msg);
                            }
                            let (temp, bind) = binding_of(toks, i, i + 3);
                            guards.push(Guard {
                                name,
                                rank,
                                bind,
                                birth: depth,
                                line,
                                temp,
                            });
                            i += 4;
                            continue;
                        }
                    }
                    i += 4;
                    continue;
                }
                // D008: blocking receive surface under a live guard.
                if m.kind == TokKind::Ident
                    && BLOCKING.contains(&m.text.as_str())
                    && !guards.is_empty()
                {
                    // Opening paren, possibly behind a turbofish.
                    let mut p = i + 2;
                    if toks.get(p).is_some_and(|t| t.is_punct("::")) {
                        let mut d = 0i32;
                        p += 1;
                        while p < toks.len() {
                            if toks[p].is_punct("<") {
                                d += 1;
                            } else if toks[p].is_punct(">") {
                                d -= 1;
                                if d == 0 {
                                    p += 1;
                                    break;
                                }
                            }
                            p += 1;
                        }
                    }
                    if toks.get(p).is_some_and(|t| t.is_punct("(")) {
                        let g = guards.last().expect("checked non-empty");
                        if d008_seen.insert((m.line, m.text.clone())) {
                            push(
                                out,
                                "D008",
                                f.path,
                                m.line,
                                format!(
                                    "blocking call `{}` while holding lock `{}` (rank {}, \
                                     acquired line {}) — a parked receive keeps the lock \
                                     held and stalls every contender",
                                    m.text, g.name, g.rank, g.line
                                ),
                            );
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// The receiver identifier of a method call whose `.` sits at `dot`:
/// `self.state.lock()` → `state`, `self.endpoints[s].read()` →
/// `endpoints`. A call result receiver (`mailbox(ep).lock()`) returns
/// `None` — not a name the hierarchy can rank.
fn receiver_of(toks: &[Tok], dot: usize) -> Option<String> {
    let mut j = dot;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct("]") {
            let mut depth = 1i32;
            while j > 0 && depth > 0 {
                j -= 1;
                if toks[j].is_punct("]") {
                    depth += 1;
                } else if toks[j].is_punct("[") {
                    depth -= 1;
                }
            }
            continue;
        }
        if t.is_punct("?") {
            continue;
        }
        if t.kind == TokKind::Ident {
            return Some(t.text.clone());
        }
        return None;
    }
    None
}

/// Classify the statement shape around an acquisition: `(temp, binding)`.
/// `let g = x.lock();` (optionally through `.unwrap()` / `.expect(…)`) is
/// a bound guard living to end-of-scope; anything else — a chained call,
/// an argument position, an assignment target — is a temporary living to
/// end-of-statement.
fn binding_of(toks: &[Tok], dot: usize, close: usize) -> (bool, Option<String>) {
    let mut k = close + 1;
    loop {
        if toks.get(k).is_some_and(|t| t.is_punct("."))
            && toks
                .get(k + 1)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            && toks.get(k + 2).is_some_and(|t| t.is_punct("("))
        {
            let mut d = 0i32;
            let mut j = k + 2;
            while j < toks.len() {
                if toks[j].is_punct("(") {
                    d += 1;
                } else if toks[j].is_punct(")") {
                    d -= 1;
                    if d == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            k = j;
            continue;
        }
        break;
    }
    if !toks.get(k).is_some_and(|t| t.is_punct(";")) {
        return (true, None);
    }
    let start = chain_start(toks, dot);
    if start >= 2 && toks[start - 1].is_punct("=") && toks[start - 2].kind == TokKind::Ident {
        let name_idx = start - 2;
        let before = name_idx.checked_sub(1).map(|p| &toks[p]);
        let is_let = match before {
            Some(b) if b.is_ident("let") => true,
            Some(b) if b.is_ident("mut") => name_idx
                .checked_sub(2)
                .is_some_and(|p| toks[p].is_ident("let")),
            _ => false,
        };
        if is_let {
            return (false, Some(toks[name_idx].text.clone()));
        }
    }
    (true, None)
}

/// First token of the receiver chain ending at `dot`: walks back over
/// idents, `.`, `::`, `?`, `&` and balanced `[…]`/`(…)` groups.
fn chain_start(toks: &[Tok], dot: usize) -> usize {
    let mut j = dot;
    while j > 0 {
        let t = &toks[j - 1];
        if t.kind == TokKind::Ident
            || t.is_punct(".")
            || t.is_punct("::")
            || t.is_punct("?")
            || t.is_punct("&")
        {
            j -= 1;
            continue;
        }
        if t.is_punct("]") || t.is_punct(")") {
            let (open, closed) = if t.is_punct("]") {
                ("[", "]")
            } else {
                ("(", ")")
            };
            let mut depth = 1i32;
            j -= 1;
            while j > 0 && depth > 0 {
                j -= 1;
                if toks[j].is_punct(closed) {
                    depth += 1;
                } else if toks[j].is_punct(open) {
                    depth -= 1;
                }
            }
            continue;
        }
        break;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn check(crate_name: &str, src: &str, toml: &str) -> Vec<(String, u32)> {
        let toks = tokenize(src);
        let order = LockOrder::parse(toml).unwrap();
        let files = [FileInput {
            path: "x.rs",
            raw: src,
            toks: &toks,
        }];
        let mut out = Vec::new();
        run_crate(crate_name, &files, &order, &mut out);
        out.into_iter().map(|f| (f.message, f.line)).collect()
    }

    #[test]
    fn lockorder_parses_sections() {
        let src = "# comment\n[psmpi]\nstate = 10 # mailbox\nnic_free = 60\n\n[obs]\nbuf = 30\n";
        let o = LockOrder::parse(src).unwrap();
        assert_eq!(o.rank("psmpi", "state"), Some(10));
        assert_eq!(o.rank("obs", "buf"), Some(30));
        assert_eq!(o.rank("psmpi", "buf"), None);
    }

    #[test]
    fn lockorder_rejects_bad_input() {
        assert!(LockOrder::parse("state = 10\n").is_err(), "no section");
        assert!(LockOrder::parse("[psmpi]\nstate = ten\n").is_err(), "rank");
        assert!(
            LockOrder::parse("[psmpi]\na = 1\na = 2\n").is_err(),
            "duplicate"
        );
        assert!(LockOrder::parse("[[allow]]\n").is_err(), "wrong table");
    }

    #[test]
    fn unannotated_lock_is_flagged_and_toml_silences_it() {
        let src = "struct S { state: Mutex<u32> }\n";
        let msgs = check("psmpi", src, "");
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].0.contains("without a `lock-order` annotation"));
        assert!(check("psmpi", src, "[psmpi]\nstate = 10\n").is_empty());
    }

    #[test]
    fn annotation_on_or_above_the_decl_line_counts() {
        let above = "struct S {\n    // lock-order: 10\n    state: Mutex<u32>,\n}\n";
        assert!(check("psmpi", above, "").is_empty());
        let inline = "struct S { state: Mutex<u32> } // lock-order: 10\n";
        assert!(check("psmpi", inline, "").is_empty());
    }

    #[test]
    fn inversion_is_reported() {
        let src = "\
struct S { a: Mutex<u32>, b: Mutex<u32> } // lock-order-decls below
fn f(s: &S) {
    let g2 = s.b.lock();
    let g1 = s.a.lock();
}
";
        let toml = "[psmpi]\na = 10\nb = 20\n";
        let msgs = check("psmpi", src, toml);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].0.contains("inverts the declared lock order"));
        assert_eq!(msgs[0].1, 4);
    }

    #[test]
    fn ascending_chain_and_dropped_guards_are_clean() {
        let src = "\
fn f(s: &S) {
    let g1 = s.a.lock();
    let g2 = s.b.lock();
    drop(g2);
    drop(g1);
    let g3 = s.b.lock();
    drop(g3);
    let g4 = s.a.lock();
}
";
        let toml = "[psmpi]\na = 10\nb = 20\n";
        assert!(check("psmpi", src, toml).is_empty());
    }

    #[test]
    fn temporaries_die_at_statement_end() {
        let src = "\
fn f(s: &S) {
    let n = s.b.lock().len();
    let g = s.a.lock();
}
";
        let toml = "[psmpi]\na = 10\nb = 20\n";
        assert!(check("psmpi", src, toml).is_empty());
    }

    #[test]
    fn for_loop_alias_tracks_shard_reads() {
        let src = "\
fn f(s: &S) {
    let g = s.nic.lock();
    for shard in &s.endpoints {
        let e = shard.read();
    }
}
";
        let toml = "[psmpi]\nendpoints = 20\nnic = 60\n";
        let msgs = check("psmpi", src, toml);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].0.contains("inverts"), "{msgs:?}");
    }

    #[test]
    fn blocking_call_under_guard_is_d008() {
        let src = "\
fn f(s: &S, r: &Rank) {
    let g = s.a.lock();
    let x = r.recv_bytes_comm(c, None, None);
}
";
        let toml = "[psmpi]\na = 10\n";
        let toks = tokenize(src);
        let order = LockOrder::parse(toml).unwrap();
        let files = [FileInput {
            path: "x.rs",
            raw: src,
            toks: &toks,
        }];
        let mut out = Vec::new();
        run_crate("psmpi", &files, &order, &mut out);
        let d008: Vec<_> = out.iter().filter(|f| f.lint == "D008").collect();
        assert_eq!(d008.len(), 1, "{out:?}");
        assert_eq!(d008[0].line, 3);
    }

    #[test]
    fn blocking_table_tracks_the_psmpi_sources() {
        // Table rot guard: every `pub fn recv*` of psmpi's rank.rs is in
        // BLOCKING, and every BLOCKING name is a `fn` of rank.rs or router.rs.
        let fns = |file: &str, public: bool| -> BTreeSet<String> {
            let path = format!("{}/../psmpi/src/{file}", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(&path).expect("psmpi source is readable");
            tokenize(&src)
                .windows(3)
                .filter(|w| w[1].is_ident("fn") && (!public || w[0].is_ident("pub")))
                .map(|w| w[2].text.clone())
                .collect()
        };
        let table: BTreeSet<String> = BLOCKING.iter().map(|s| s.to_string()).collect();
        let rank_recvs: BTreeSet<String> = fns("rank.rs", true)
            .into_iter()
            .filter(|n| n.starts_with("recv"))
            .collect();
        let missing: Vec<_> = rank_recvs.difference(&table).collect();
        assert!(
            missing.is_empty(),
            "blocking receives not in BLOCKING: {missing:?}"
        );
        let mut defined = fns("rank.rs", false);
        defined.extend(fns("router.rs", false));
        let stale: Vec<_> = table.difference(&defined).collect();
        assert!(stale.is_empty(), "BLOCKING names no psmpi fn: {stale:?}");
    }

    #[test]
    fn same_lock_reacquisition_is_flagged() {
        let src = "fn f(s: &S) { let g = s.a.read(); let h = s.a.read(); }\n";
        let toml = "[psmpi]\na = 10\n";
        let msgs = check("psmpi", src, toml);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].0.contains("re-acquiring"), "{msgs:?}");
    }

    #[test]
    fn struct_literal_initializers_are_not_decls() {
        let src = "\
fn mk() -> S {
    S { state: Mutex::new(0), endpoints: RwLock::new(Vec::new()) }
}
";
        assert!(check("psmpi", src, "").is_empty());
    }

    #[test]
    fn used_names_feed_staleness() {
        let src = "fn f(s: &S) { let g = s.a.lock(); }\n";
        let toks = tokenize(src);
        let order = LockOrder::parse("[psmpi]\na = 10\nghost = 99\n").unwrap();
        let files = [FileInput {
            path: "x.rs",
            raw: src,
            toks: &toks,
        }];
        let mut out = Vec::new();
        let used = run_crate("psmpi", &files, &order, &mut out);
        assert!(used.contains("a"));
        assert!(!used.contains("ghost"));
    }
}
