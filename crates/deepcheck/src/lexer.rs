//! A lightweight Rust tokenizer — just enough structure for the lock pass,
//! with no external parser dependency (consistent with the vendored-stubs
//! policy: no `syn`, no `proc-macro2`).
//!
//! The lexer produces identifiers, punctuation (with `::` fused into a
//! single token), and opaque literal markers. Comment and string *contents*
//! never become tokens, so a `Mutex<…>` or a `recv_match(` named in
//! documentation is no declaration or call. A second pass strips
//! `#[cfg(test)] mod … { … }` blocks: the lock hierarchy governs shipped
//! code, not test harnesses.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Punctuation (single char, or the fused `::`).
    Punct,
    /// Any literal: string, char, byte string, or number. Its text is
    /// replaced by an opaque marker.
    Lit,
}

/// One token with its 1-indexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Token text. For literals this is the opaque `"§"`.
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Tok {
    fn new(kind: TokKind, text: impl Into<String>, line: u32) -> Self {
        Tok {
            kind,
            text: text.into(),
            line,
        }
    }

    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Tokenize Rust source. Never fails: unrecognized bytes are skipped, and
/// an unterminated string or comment simply ends the token stream (the
/// input is expected to be code that `rustc` already accepts).
pub fn tokenize(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;

    macro_rules! bump_lines {
        ($range:expr) => {
            for &c in &b[$range] {
                if c == b'\n' {
                    line += 1;
                }
            }
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            // Line comment (incl. doc comments).
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            // Block comment, nestable.
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                bump_lines!(start..i);
            }
            // Raw string r"…" / r#"…"# (and br…): scan to the matching
            // close quote with the same number of hashes.
            b'r' | b'b' if starts_raw_string(b, i) => {
                let start = i;
                if b[i] == b'b' {
                    i += 1;
                }
                i += 1; // past 'r'
                let mut hashes = 0;
                while b.get(i) == Some(&b'#') {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // past opening quote
                'raw: while i < b.len() {
                    if b[i] == b'"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if b.get(i + 1 + k) != Some(&b'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    i += 1;
                }
                bump_lines!(start..i.min(b.len()));
                toks.push(Tok::new(TokKind::Lit, "§", line));
            }
            // Ordinary (or byte) string.
            b'"' | b'b' if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"')) => {
                let start = i;
                if c == b'b' {
                    i += 1;
                }
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                let end = i.min(b.len());
                let tok_line = line;
                bump_lines!(start..end);
                toks.push(Tok::new(TokKind::Lit, "§", tok_line));
            }
            // Char literal vs. lifetime: 'a' is a literal, 'a (no closing
            // quote right after) is a lifetime (skipped entirely).
            b'\'' => {
                let mut j = i + 1;
                if b.get(j) == Some(&b'\\') {
                    j += 2;
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    i = (j + 1).min(b.len());
                    toks.push(Tok::new(TokKind::Lit, "§", line));
                } else if b.get(j).is_some() && b.get(j + 1) == Some(&b'\'') {
                    i = j + 2;
                    toks.push(Tok::new(TokKind::Lit, "§", line));
                } else {
                    // Lifetime: skip the quote and the identifier.
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    // Stop a numeric literal at `..` (range) or a method
                    // call on a literal like `1.max(x)`.
                    if b[i] == b'.'
                        && (b.get(i + 1) == Some(&b'.')
                            || b.get(i + 1).is_some_and(|n| n.is_ascii_alphabetic()))
                    {
                        break;
                    }
                    i += 1;
                }
                toks.push(Tok::new(TokKind::Lit, "§", line));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok::new(
                    TokKind::Ident,
                    std::str::from_utf8(&b[start..i]).unwrap_or("_"),
                    line,
                ));
            }
            b':' if b.get(i + 1) == Some(&b':') => {
                toks.push(Tok::new(TokKind::Punct, "::", line));
                i += 2;
            }
            _ => {
                toks.push(Tok::new(
                    TokKind::Punct,
                    std::str::from_utf8(&b[i..i + 1]).unwrap_or("?"),
                    line,
                ));
                i += 1;
            }
        }
    }
    toks
}

fn starts_raw_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    b.get(j) == Some(&b'"')
}

/// Remove every `#[cfg(test)] mod … { … }` region from a token stream.
/// The lock pass governs shipped code; in-file test modules build ad-hoc
/// locks that belong to no hierarchy.
pub fn strip_test_modules(toks: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_at(&toks, i) {
            // Skip the attribute: `# [ cfg ( test ) ]` = 7 tokens, then any
            // further attributes, then `mod name {` and its balanced block.
            let mut j = i + 7;
            while j < toks.len() && toks[j].is_punct("#") {
                // Another attribute — skip to its closing `]`.
                let mut depth = 0;
                while j < toks.len() {
                    if toks[j].is_punct("[") {
                        depth += 1;
                    } else if toks[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if j < toks.len() && toks[j].is_ident("mod") {
                // Find the opening brace, then skip the balanced block.
                while j < toks.len() && !toks[j].is_punct("{") {
                    j += 1;
                }
                let mut depth = 0;
                while j < toks.len() {
                    if toks[j].is_punct("{") {
                        depth += 1;
                    } else if toks[j].is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
            // `#[cfg(test)]` on something that isn't a `mod` (an item or a
            // `use`): drop the item conservatively by skipping to the next
            // `;` or balanced `{ … }`.
            let mut depth = 0;
            while j < toks.len() {
                if toks[j].is_punct("{") {
                    depth += 1;
                } else if toks[j].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                } else if toks[j].is_punct(";") && depth == 0 {
                    j += 1;
                    break;
                }
                j += 1;
            }
            i = j;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

fn is_cfg_test_at(toks: &[Tok], i: usize) -> bool {
    toks.len() > i + 6
        && toks[i].is_punct("#")
        && toks[i + 1].is_punct("[")
        && toks[i + 2].is_ident("cfg")
        && toks[i + 3].is_punct("(")
        && toks[i + 4].is_ident("test")
        && toks[i + 5].is_punct(")")
        && toks[i + 6].is_punct("]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r#"
            // Instant::now in a comment
            /* SystemTime in a block */
            let x = "Instant::now inside a string";
            let y = f(); // trailing
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn double_colon_is_fused() {
        let texts: Vec<String> = tokenize("Mutex::new(0)")
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, ["Mutex", "::", "new", "(", "§", ")"]);
    }

    #[test]
    fn lines_are_tracked_across_multiline_strings() {
        let src = "let a = \"x\ny\";\nlet b = 1;";
        let toks = tokenize(src);
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) -> char { 'q' }");
        let lits: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Lit).collect();
        assert_eq!(lits.len(), 1, "only 'q' is a literal: {toks:?}");
    }

    #[test]
    fn cfg_test_modules_are_stripped() {
        let src = r#"
            fn shipped() { real(); }
            #[cfg(test)]
            mod tests {
                fn helper() { std::thread::spawn(|| {}); }
            }
            fn also_shipped() {}
        "#;
        let ids: Vec<String> = strip_test_modules(tokenize(src))
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert!(!ids.contains(&"spawn".to_string()));
        assert!(ids.contains(&"also_shipped".to_string()));
    }

    #[test]
    fn raw_strings_are_opaque() {
        let ids = idents(r##"let p = r#"available_parallelism"#;"##);
        assert_eq!(ids, ["let", "p"]);
    }
}
