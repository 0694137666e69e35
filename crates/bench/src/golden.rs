//! One check for every cross-commit golden, and the helpers that name the
//! first difference between two texts.
//!
//! A pin that must hold across commits — the equivalence matrix, xPic's
//! physics and checkpoint bits, the scheduler's reports and smoke metrics,
//! the obs report — is a text file in `tests/golden/` at the workspace root,
//! compared by [`assert_pinned`]. A line is a label (the words
//! before its first word holding a `=`) and then `key=value` tokens, a value
//! running up to the next word that holds a `=`. The caller names the keys
//! whose values are *prices*: virtual times, which a calibration of the
//! cost model may move. Every other byte of the golden is *program*
//! (physics bits, counts, resume steps, schedules), which only a change to
//! what the program computes moves. Three outcomes:
//!
//! - the output equals the golden: pass;
//! - only price values moved, or the output added lines (a line whose
//!   label and keys no golden line has): the whole output is written as a
//!   candidate to `golden/<name>` under the caller's
//!   `env!("CARGO_TARGET_TMPDIR")`, and the check fails with a
//!   `row key old → new` table and the `cp` command that blesses it;
//! - a program byte moved or a golden line is gone: nothing is written, and
//!   the check fails naming the first such line and token with both values.
//!
//! No switch blesses in place: a re-pin is a reviewed `cp`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// `tests/golden/` at the workspace root.
fn dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.expect("cb-bench sits in crates/bench")
        .join("tests/golden")
}

/// Panic unless `actual` is the golden `name` in `tests/golden/` (module docs);
/// `prices` are its price keys and `target_tmpdir` is the caller's
/// `env!("CARGO_TARGET_TMPDIR")`.
pub fn assert_pinned(name: &str, actual: &str, prices: &[&str], target_tmpdir: &str) {
    let candidate = Path::new(target_tmpdir).join("golden").join(name);
    if let Err(failure) = check(&dir().join(name), &candidate, actual, prices) {
        panic!("{failure}");
    }
}

/// [`assert_pinned`] against the golden file `golden`, writing a candidate
/// to `candidate`: `Err` holds the failure. A missing golden reads as
/// empty, so a new pin's first run writes its candidate. A price key that
/// names no token of the golden or the output fails.
pub fn check(golden: &Path, candidate: &Path, actual: &str, prices: &[&str]) -> Result<(), String> {
    let pinned = std::fs::read_to_string(golden).unwrap_or_default();
    let at = golden.display();
    let names = |text: &str, key: &str| text.lines().flat_map(pieces).any(|p| token_key(p) == key);
    if let Some(key) = prices
        .iter()
        .find(|&&k| !names(&pinned, k) && !names(actual, k))
    {
        return Err(format!(
            "{at}: price key `{key}` names no token of the golden or the output"
        ));
    }
    if pinned == actual {
        return Ok(());
    }
    let table = price_moves(&pinned, actual, prices).map_err(|refusal| {
        format!(
            "{at}: {refusal}. That is program, not price, so no candidate was written: \
             edit the golden by hand if the program change is meant"
        )
    })?;
    let written = std::fs::create_dir_all(candidate.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(candidate, actual));
    if let Err(e) = written {
        return Err(format!(
            "{at}: cannot write the candidate {}: {e}",
            candidate.display()
        ));
    }
    Err(format!(
        "{at}: only prices moved or lines were added:\n{}\nbless the regenerated golden with\n  cp {} {at}",
        table.join("\n"),
        candidate.display()
    ))
}

/// `line` cut before each word holding a `=`: the label, if the line has
/// one, then one `key=value` token per key; joined with single spaces
/// they give the line back.
fn pieces(line: &str) -> Vec<&str> {
    let mut cuts = vec![0];
    let mut at = 0;
    for word in line.split(' ') {
        if at > 0 && word.contains('=') {
            cuts.push(at);
        }
        at += word.len() + 1;
    }
    cuts.push(at);
    cuts.windows(2).map(|w| &line[w[0]..w[1] - 1]).collect()
}

/// A token's key; a label is its own key.
fn token_key(piece: &str) -> &str {
    piece.split_once('=').map_or(piece, |(key, _)| key)
}

/// The rows `row key old → new` of the price values that moved and `+ line`
/// of the lines `actual` added to `pinned`, in output order; or the
/// refusal naming the first program change.
fn price_moves(pinned: &str, actual: &str, prices: &[&str]) -> Result<Vec<String>, String> {
    let shape = |line| pieces(line).into_iter().map(token_key).collect::<Vec<_>>();
    let known: BTreeSet<_> = pinned.lines().map(shape).collect();
    let mut golden = pinned.lines().enumerate().peekable();
    let mut table = Vec::new();
    // The first output line after the last one matched to the golden.
    let mut unmatched = None;
    for new in actual.lines() {
        if !known.contains(&shape(new)) {
            table.push(format!("+ {new}"));
            unmatched = unmatched.or(Some(new));
            continue;
        }
        let Some((n, old)) = golden.next_if(|(_, old)| shape(old) == shape(new)) else {
            let gone = golden
                .peek()
                .map_or("the end of the golden".into(), |(n, old)| {
                    format!("golden line {} `{old}`", n + 1)
                });
            let there = unmatched.unwrap_or(new);
            return Err(format!("{gone} is gone: the output reads `{there}` there"));
        };
        unmatched = None;
        let label = pieces(old).into_iter().find(|p| !p.contains('='));
        let row = label.map_or(String::new(), |l| format!("{} ", l.trim_end()));
        for (a, b) in pieces(old)
            .into_iter()
            .zip(pieces(new))
            .filter(|(a, b)| a != b)
        {
            let (key, was) = a.split_once('=').expect("equal shapes: only tokens differ");
            let now = b.split_once('=').map_or(b, |(_, v)| v);
            if !prices.contains(&key) {
                return Err(format!("line {}: {row}`{key}` moved {was} → {now}", n + 1));
            }
            table.push(format!("{row}{key} {was} → {now}"));
        }
    }
    if let Some((n, old)) = golden.next() {
        return Err(format!(
            "golden line {} `{old}` is gone from the output",
            n + 1
        ));
    }
    if table.is_empty() {
        return Err(first_line_diff(pinned, actual).expect("the texts differ"));
    }
    Ok(table)
}

/// The first line, numbered from 1, at which `a` and `b` differ, quoting
/// both; `None` when the texts are equal.
pub(crate) fn first_line_diff(a: &str, b: &str) -> Option<String> {
    if a == b {
        return None;
    }
    let (la, lb): (Vec<_>, Vec<_>) = (a.lines().collect(), b.lines().collect());
    let Some(i) = (0..la.len().max(lb.len())).find(|&i| la.get(i) != lb.get(i)) else {
        return Some("line endings".into());
    };
    let quote = |l: Option<&&str>| l.map_or("<end of text>".into(), |l| format!("`{l}`"));
    let (x, y) = (quote(la.get(i)), quote(lb.get(i)));
    Some(format!("line {}: {x} vs {y}", i + 1))
}

/// The first byte offset at which `a` and `b` differ, quoting up to 60
/// bytes either side of it from both; `None` when the texts are equal.
pub(crate) fn first_byte_diff(a: &str, b: &str) -> Option<String> {
    let common = a.bytes().zip(b.bytes()).position(|(x, y)| x != y);
    let at = common.or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))?;
    let around = |s: &str| {
        let window = &s.as_bytes()[at.saturating_sub(60)..(at + 60).min(s.len())];
        String::from_utf8_lossy(window).into_owned()
    };
    Some(format!("byte {at}: `{}` vs `{}`", around(a), around(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_helpers_name_the_first_difference() {
        let a = "# obs report\nmakespan_s: 0.051\ntracks: 4\n";
        let b = "# obs report\nmakespan_s: 0.052\ntracks: 4\n";
        assert_eq!(first_line_diff(a, a), None);
        assert_eq!(
            first_line_diff(a, b).unwrap(),
            "line 2: `makespan_s: 0.051` vs `makespan_s: 0.052`"
        );
        assert_eq!(
            first_line_diff("x\n", "x\ny\n").unwrap(),
            "line 2: <end of text> vs `y`"
        );
        assert_eq!(first_line_diff("x", "x\r\n").unwrap(), "line endings");

        let pad = "p".repeat(100);
        let (a, b) = (
            format!("{pad}{{\"ts\":1}}{pad}"),
            format!("{pad}{{\"ts\":2}}{pad}"),
        );
        assert_eq!(first_byte_diff(&a, &a), None);
        let at = first_byte_diff(&a, &b).unwrap();
        // 60 bytes either side of the differing byte, from each text.
        let window = |s: &str| format!("`{}`", &s[46..166]);
        assert_eq!(at, format!("byte 106: {} vs {}", window(&a), window(&b)));
        assert_eq!(
            first_byte_diff("ab", "abc").unwrap(),
            "byte 2: `ab` vs `abc`"
        );
    }

    #[test]
    fn a_line_is_a_label_then_key_value_tokens() {
        let line = "Sync buddy+owner       block_s=0.1 ckpts=2 resumed=[2, 0]";
        let cut = [
            "Sync buddy+owner      ",
            "block_s=0.1",
            "ckpts=2",
            "resumed=[2, 0]",
        ];
        assert_eq!(pieces(line), cut);
        assert_eq!(pieces("config.jobs=1200"), ["config.jobs=1200"]);
        assert_eq!(pieces("## counters"), ["## counters"]);
        assert_eq!(token_key("resumed=[2, 0]"), "resumed");
    }
}
