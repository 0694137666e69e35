//! M002 — the per-communicator send/recv protocol matcher.
//!
//! M001's tag check treats a crate as one flat tag space; that misses the
//! two protocol bugs the cluster-booster offload path actually produces:
//! a literal tag sent on one communicator but awaited on another (the
//! rendezvous never happens even though the tag "matches" crate-wide),
//! and a typed/bytes or element-width disagreement between the two ends
//! (the receive decodes garbage or errors at runtime).
//!
//! The matcher indexes every `send_*`/`recv_*` call site by
//! `(communicator, literal tag)`. The communicator key is the identifier
//! chain of the comm argument (`world` for the world-implicit methods,
//! `self.parent`, `ic`, …); call sites whose comm argument is an
//! expression are opaque and disable the cross-communicator checks, as do
//! wildcard/dynamic tags on the affected communicator — same conservative
//! posture as M001. Element widths come from explicit turbofish types
//! (`send::<u64>` vs `recv_into::<f32>`); inferred types stay unknown and
//! are never flagged.

use crate::lexer::{Tok, TokKind};
use crate::lints::{call_arg, classify_tag_arg, push, Finding, TagArg};
use crate::locks::FileInput;
use std::collections::{BTreeMap, BTreeSet};

/// Wire framing family of a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Datatype-framed (`send`/`recv`/`send_slice`/`recv_into` families).
    Typed,
    /// Raw-Bytes framed (`send_bytes_*`/`recv_bytes_*` families).
    Bytes,
}

/// (method, comm-arg slot, tag-arg slot, framing) for every point-to-point
/// method of `psmpi::Rank` — a unit test below keeps both tables equal to
/// the `pub fn`s of `rank.rs`. `None` comm slot means the world-implicit
/// convenience surface; a `*_comm` method's comm argument may be an
/// inter-communicator. The `i`-prefixed entries are the request-returning
/// surface M003 watches, the other receives the blocking calls D008 does.
pub(crate) const SENDS: &[(&str, Option<usize>, usize, Kind)] = &[
    ("send", None, 1, Kind::Typed),
    ("send_comm", Some(0), 2, Kind::Typed),
    ("send_slice", None, 1, Kind::Typed),
    ("send_slice_comm", Some(0), 2, Kind::Typed),
    ("isend_slice", None, 1, Kind::Typed),
    ("send_bytes_comm", Some(0), 2, Kind::Bytes),
    ("send_bytes_comm_sized", Some(0), 2, Kind::Bytes),
    ("isend_bytes", None, 1, Kind::Bytes),
    ("isend_bytes_comm", Some(0), 2, Kind::Bytes),
    ("isend_bytes_comm_sized", Some(0), 2, Kind::Bytes),
];

pub(crate) const RECVS: &[(&str, Option<usize>, usize, Kind)] = &[
    ("recv", None, 1, Kind::Typed),
    ("recv_comm", Some(0), 2, Kind::Typed),
    ("recv_into", None, 1, Kind::Typed),
    ("recv_into_comm", Some(0), 2, Kind::Typed),
    ("irecv_into", None, 1, Kind::Typed),
    ("recv_bytes_comm", Some(0), 2, Kind::Bytes),
    ("irecv_bytes", None, 1, Kind::Bytes),
    ("irecv_bytes_comm", Some(0), 2, Kind::Bytes),
];

/// One indexed call site.
struct Site {
    path: String,
    line: u32,
    width: Option<u8>,
    kind: Kind,
}

#[derive(Default)]
struct CrateIndex {
    sends: BTreeMap<(String, u64), Vec<Site>>,
    recvs: BTreeMap<(String, u64), Vec<Site>>,
    /// Communicators with a dynamic-tag send (their receives can match
    /// anything the dynamic site produces).
    dynamic_send: BTreeSet<String>,
    /// Communicators with a wildcard or dynamic-tag receive.
    open_recv: BTreeSet<String>,
    /// A send/recv with an opaque comm expression was seen — the
    /// cross-communicator checks are unreliable, drop them.
    opaque_send: bool,
    opaque_recv: bool,
}

/// Run the protocol matcher over one crate.
pub fn run_crate(files: &[FileInput<'_>], out: &mut Vec<Finding>) {
    let mut idx = CrateIndex::default();
    for f in files {
        index_file(f, &mut idx);
    }

    // Cross-communicator rendezvous: a literal tag awaited on one comm but
    // produced only on another (and vice versa).
    for (&(ref comm, tag), sites) in &idx.recvs {
        if idx.sends.contains_key(&(comm.clone(), tag))
            || idx.dynamic_send.contains(comm)
            || idx.opaque_send
        {
            continue;
        }
        let elsewhere: Vec<&String> = idx
            .sends
            .keys()
            .filter(|(c, t)| *t == tag && c != comm)
            .map(|(c, _)| c)
            .collect();
        if elsewhere.is_empty() {
            continue; // M001 already covers tags never sent at all
        }
        for s in sites {
            push(
                out,
                "M002",
                &s.path,
                s.line,
                format!(
                    "tag {tag} is received on communicator `{comm}` but sent only on `{}` — \
                     mismatched communicators never rendezvous",
                    elsewhere[0]
                ),
            );
        }
    }
    for (&(ref comm, tag), sites) in &idx.sends {
        if idx.recvs.contains_key(&(comm.clone(), tag))
            || idx.open_recv.contains(comm)
            || idx.opaque_recv
        {
            continue;
        }
        let elsewhere: Vec<&String> = idx
            .recvs
            .keys()
            .filter(|(c, t)| *t == tag && c != comm)
            .map(|(c, _)| c)
            .collect();
        if elsewhere.is_empty() {
            continue;
        }
        for s in sites {
            push(
                out,
                "M002",
                &s.path,
                s.line,
                format!(
                    "tag {tag} is sent on communicator `{comm}` but received only on `{}` — \
                     mismatched communicators never rendezvous",
                    elsewhere[0]
                ),
            );
        }
    }

    // Framing and element width: both ends of a (comm, tag) flow must use
    // the same wire family, and explicit element widths must agree.
    for (key, recv_sites) in &idx.recvs {
        let Some(send_sites) = idx.sends.get(key) else {
            continue;
        };
        let (comm, tag) = (&key.0, key.1);
        for r in recv_sites {
            if send_sites.iter().all(|s| s.kind != r.kind) {
                let (rk, sk) = match r.kind {
                    Kind::Typed => ("typed", "bytes"),
                    Kind::Bytes => ("bytes", "typed"),
                };
                push(
                    out,
                    "M002",
                    &r.path,
                    r.line,
                    format!(
                        "tag {tag} on communicator `{comm}` is received via the {rk} API but \
                         sent via the {sk} API — the wire framing will not match"
                    ),
                );
                continue;
            }
            let Some(w) = r.width else { continue };
            let widths: BTreeSet<u8> = send_sites.iter().filter_map(|s| s.width).collect();
            let any_unknown = send_sites.iter().any(|s| s.width.is_none());
            if !widths.is_empty() && !widths.contains(&w) && !any_unknown {
                push(
                    out,
                    "M002",
                    &r.path,
                    r.line,
                    format!(
                        "tag {tag} on communicator `{comm}` is received as {w}-byte elements \
                         but sent as {}-byte elements — the datatype widths disagree",
                        widths.iter().next().expect("non-empty")
                    ),
                );
            }
        }
    }
}

fn index_file(f: &FileInput<'_>, idx: &mut CrateIndex) {
    let toks = f.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct(".") {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if m.kind != TokKind::Ident {
            continue;
        }
        let send = SENDS.iter().find(|(n, _, _, _)| *n == m.text);
        let recv = RECVS.iter().find(|(n, _, _, _)| *n == m.text);
        let Some(&(_, comm_slot, tag_slot, kind)) = send.or(recv) else {
            continue;
        };
        let Some((open, width)) = call_open(toks, i + 2) else {
            continue;
        };
        let comm = match comm_slot {
            None => Some("world".to_string()),
            Some(s) => call_arg(toks, open, s).and_then(|a| comm_key(toks, a)),
        };
        let is_send = send.is_some();
        let Some(comm) = comm else {
            if is_send {
                idx.opaque_send = true;
            } else {
                idx.opaque_recv = true;
            }
            continue;
        };
        let tag = match call_arg(toks, open, tag_slot) {
            Some(a) => classify_tag_arg(toks, a),
            None => TagArg::Dynamic,
        };
        let site = Site {
            path: f.path.to_string(),
            line: m.line,
            width,
            kind,
        };
        match (is_send, tag) {
            (true, TagArg::Literal(v)) => idx.sends.entry((comm, v)).or_default().push(site),
            (true, _) => {
                idx.dynamic_send.insert(comm);
            }
            (false, TagArg::Literal(v)) => idx.recvs.entry((comm, v)).or_default().push(site),
            (false, _) => {
                idx.open_recv.insert(comm);
            }
        }
    }
}

/// Resolve the call's opening paren starting at the token after the
/// method name, tolerating a turbofish — whose type arguments also yield
/// the element width when they name a fixed-width primitive.
fn call_open(toks: &[Tok], mut p: usize) -> Option<(usize, Option<u8>)> {
    let mut width = None;
    if toks.get(p).is_some_and(|t| t.is_punct("::")) {
        let mut depth = 0i32;
        p += 1;
        while p < toks.len() {
            let t = &toks[p];
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    p += 1;
                    break;
                }
            } else if width.is_none() && t.kind == TokKind::Ident {
                width = prim_width(&t.text);
            }
            p += 1;
        }
    }
    if toks.get(p).is_some_and(|t| t.is_punct("(")) {
        Some((p, width))
    } else {
        None
    }
}

fn prim_width(name: &str) -> Option<u8> {
    match name {
        "u8" | "i8" => Some(1),
        "u16" | "i16" => Some(2),
        "u32" | "i32" | "f32" => Some(4),
        "u64" | "i64" | "f64" | "usize" | "isize" => Some(8),
        _ => None,
    }
}

/// The identifier chain of a comm argument (`&self.parent` →
/// `self.parent`). Any call, index, or path expression makes the comm
/// opaque (`None`).
fn comm_key(toks: &[Tok], start: usize) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    let mut k = start;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct(",") || t.is_punct(")") {
            break;
        }
        if t.is_punct("&") || t.is_punct(".") {
            // borrow / field separator — fine
        } else if t.kind == TokKind::Ident {
            parts.push(t.text.as_str());
        } else {
            return None;
        }
        k += 1;
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join("."))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn m002(src: &str) -> Vec<(String, u32)> {
        let toks = tokenize(src);
        let files = [FileInput {
            path: "x.rs",
            raw: src,
            toks: &toks,
        }];
        let mut out = Vec::new();
        run_crate(&files, &mut out);
        out.into_iter().map(|f| (f.message, f.line)).collect()
    }

    #[test]
    fn tables_list_exactly_the_p2p_methods_of_rank() {
        // Table rot guard: every `pub fn (i)?(send|recv)*` of psmpi's
        // rank.rs is in a table, and every table name is such a `pub fn`.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../psmpi/src/rank.rs");
        let src = std::fs::read_to_string(path).expect("psmpi rank.rs is readable");
        let is_p2p = |n: &str| {
            let n = n.strip_prefix('i').unwrap_or(n);
            n.starts_with("send") || n.starts_with("recv")
        };
        let in_rank: BTreeSet<&str> = src
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("pub fn "))
            .map(|l| l.split(['<', '(']).next().expect("split yields a head"))
            .filter(|n| is_p2p(n))
            .collect();
        let in_tables: BTreeSet<&str> = SENDS.iter().chain(RECVS).map(|e| e.0).collect();
        assert_eq!(in_tables, in_rank);
        assert_eq!(in_tables.len(), SENDS.len() + RECVS.len(), "duplicate row");
    }

    #[test]
    fn cross_comm_tag_mismatch_fires() {
        let src = "\
fn f(r: &mut Rank, a: &Communicator, b: &Communicator) {
    r.send_comm(a, 1, 7, &x).unwrap();
    let y = r.recv_comm::<u64>(b, None, Some(7)).unwrap();
}
";
        let msgs = m002(src);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].0.contains("never rendezvous"), "{msgs:?}");
    }

    #[test]
    fn same_comm_flow_is_clean() {
        let src = "\
fn f(r: &mut Rank, a: &Communicator) {
    r.send_comm(a, 1, 7, &x).unwrap();
    let y = r.recv_comm::<u64>(a, None, Some(7)).unwrap();
}
";
        assert!(m002(src).is_empty());
    }

    #[test]
    fn width_mismatch_fires_on_explicit_turbofish() {
        let src = "\
fn f(r: &mut Rank) {
    r.send::<u64>(1, 7, &x).unwrap();
    let y = r.recv::<u32>(None, Some(7)).unwrap();
}
";
        let msgs = m002(src);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].0.contains("widths disagree"), "{msgs:?}");
        assert_eq!(msgs[0].1, 3);
    }

    #[test]
    fn typed_bytes_framing_mismatch_fires() {
        let src = "\
fn f(r: &mut Rank, ic: &Intercomm) {
    r.send_bytes_comm(ic, 0, 9, payload).unwrap();
    let y = r.recv_comm::<Vec<u8>>(ic, None, Some(9)).unwrap();
}
";
        let msgs = m002(src);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].0.contains("wire framing"), "{msgs:?}");
    }

    #[test]
    fn dynamic_and_wildcard_sites_disable_the_checks() {
        let src = "\
fn f(r: &mut Rank, a: &Communicator, b: &Communicator, tag: u64) {
    r.send_comm(a, 1, tag, &x).unwrap();
    let y = r.recv_comm::<u64>(b, None, Some(7)).unwrap();
    r.send_comm(b, 1, 8, &x).unwrap();
    let z = r.recv_comm::<u64>(b, None, None).unwrap();
}
";
        assert!(m002(src).is_empty(), "{:?}", m002(src));
    }

    #[test]
    fn inferred_widths_are_never_flagged() {
        let src = "\
fn f(r: &mut Rank) {
    r.send(1, 7, &vals).unwrap();
    let y = r.recv::<u32>(None, Some(7)).unwrap();
}
";
        assert!(m002(src).is_empty());
    }
}
