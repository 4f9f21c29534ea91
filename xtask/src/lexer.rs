//! A small hand-rolled Rust lexer for the static-analysis tasks.
//!
//! The previous lint wall scanned lines with substring heuristics, which
//! cannot tell a token from the inside of a string literal or a block
//! comment, and tracked `#[cfg(test)]` scope by indentation luck. This
//! module tokenizes real Rust source — line and *nested* block comments,
//! plain/raw/byte string literals, char literals vs lifetimes — and then
//! computes two structural overlays on the token stream:
//!
//! * a **test mask**: which tokens belong to `#[cfg(test)]` / `#[test]`
//!   items (attribute-aware, `cfg(not(test))` is correctly *not* test), and
//! * **function spans**: the token range of every `fn` body, used by rules
//!   that reason about what happens "within one function" (lock nesting,
//!   visible bound checks before an allocation).
//!
//! The lexer is deliberately not a full Rust parser: it does not build an
//! AST and it does not resolve types. Every rule built on it is therefore
//! heuristic — but the heuristics operate on *tokens*, so strings, comments
//! and test scope can no longer produce the false positives and negatives
//! the line scanner suffered.

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `as`, `unwrap`, …).
    Ident,
    /// Punctuation; multi-char `::` is a single token, all else one char.
    Punct,
    /// String literal of any flavor (plain, raw, byte, raw-byte).
    Str,
    /// Char literal (`'a'`, `'\n'`).
    Char,
    /// Lifetime (`'a`) — distinct from char literals.
    Lifetime,
    /// Numeric literal.
    Num,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Lexeme class.
    pub kind: TokKind,
    /// The token text; for strings this is the *raw source slice* (quotes
    /// and all) so rules never mistake literal content for code.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// The token range of one `fn` body, including nested items.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Index of the token *after* the opening `{` of the body.
    pub body_start: usize,
    /// Index of the matching closing `}`.
    pub body_end: usize,
}

/// A lexed source file plus the structural overlays rules consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// The raw source lines (for finding messages and allowlist matching).
    pub lines: Vec<String>,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// `test_mask[i]` is true when token `i` is inside a test-scoped item.
    pub test_mask: Vec<bool>,
    /// Every function body span found outside test scope.
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lexes `source` into tokens and computes the overlays.
    pub fn parse(rel: &str, source: &str) -> SourceFile {
        let toks = lex(source);
        let test_mask = test_mask(&toks);
        let fns = fn_spans(&toks, &test_mask);
        SourceFile {
            rel: rel.to_string(),
            lines: source.lines().map(str::to_string).collect(),
            toks,
            test_mask,
            fns,
        }
    }

    /// The trimmed text of 1-based line `line`, or `""` when out of range.
    pub fn line_text(&self, line: u32) -> &str {
        (line as usize)
            .checked_sub(1)
            .and_then(|i| self.lines.get(i))
            .map_or("", |s| s.trim())
    }
}

/// Tokenizes Rust source. Comments vanish; everything else becomes a [`Tok`].
pub fn lex(source: &str) -> Vec<Tok> {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    // Advances `line` for every newline in chars[from..to].
    let count_newlines = |chars: &[char], from: usize, to: usize| -> u32 {
        chars[from..to].iter().filter(|&&c| c == '\n').count() as u32
    };

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            // Line comment (incl. doc comments) — skip to end of line.
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            // Block comment — nested, newline-aware.
            '/' if chars.get(i + 1) == Some(&'*') => {
                let start = i;
                i += 2;
                let mut depth = 1u32;
                while i < n && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                line += count_newlines(&chars, start, i);
            }
            '"' => {
                let (end, nl) = scan_string(&chars, i);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: chars[i..end].iter().collect(),
                    line,
                });
                line += nl;
                i = end;
            }
            '\'' => {
                // Char literal or lifetime: `'a'` is a char, `'a` (an ident
                // run not terminated by a quote) is a lifetime.
                let is_lifetime = match chars.get(i + 1) {
                    Some(&c1) if is_ident_start(c1) => {
                        let mut j = i + 1;
                        while j < n && is_ident_continue(chars[j]) {
                            j += 1;
                        }
                        chars.get(j) != Some(&'\'')
                    }
                    _ => false,
                };
                if is_lifetime {
                    let mut j = i + 1;
                    while j < n && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: chars[i..j].iter().collect(),
                        line,
                    });
                    i = j;
                } else {
                    let end = scan_char(&chars, i);
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: chars[i..end].iter().collect(),
                        line,
                    });
                    i = end;
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < n && (is_ident_continue(chars[j]) || chars[j] == '.') {
                    // Stop a range expression `0..x` from being eaten.
                    if chars[j] == '.' && chars.get(j + 1) == Some(&'.') {
                        break;
                    }
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: chars[i..j].iter().collect(),
                    line,
                });
                i = j;
            }
            c if is_ident_start(c) => {
                let mut j = i + 1;
                while j < n && is_ident_continue(chars[j]) {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                // Raw / byte string prefixes: r"", r#""#, b"", br#""#, and
                // raw identifiers r#name.
                let next = chars.get(j);
                let prefix_is_stringish = matches!(word.as_str(), "r" | "b" | "br" | "rb");
                if prefix_is_stringish && (next == Some(&'"') || next == Some(&'#')) {
                    if next == Some(&'#') && word == "r" {
                        // `r#…`: raw string only if hashes lead to a quote;
                        // otherwise it is a raw identifier (`r#type`).
                        let mut k = j;
                        while k < n && chars[k] == '#' {
                            k += 1;
                        }
                        if chars.get(k) != Some(&'"') {
                            let mut m = k;
                            while m < n && is_ident_continue(chars[m]) {
                                m += 1;
                            }
                            toks.push(Tok {
                                kind: TokKind::Ident,
                                text: chars[k..m].iter().collect(),
                                line,
                            });
                            i = m;
                            continue;
                        }
                    }
                    let (end, nl) = scan_raw_or_plain_string(&chars, i, j);
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: chars[i..end].iter().collect(),
                        line,
                    });
                    line += nl;
                    i = end;
                } else {
                    toks.push(Tok {
                        kind: TokKind::Ident,
                        text: word,
                        line,
                    });
                    i = j;
                }
            }
            ':' if chars.get(i + 1) == Some(&':') => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: "::".to_string(),
                    line,
                });
                i += 2;
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans a char literal starting at the `'` at `start`; returns the index
/// just past the closing `'`.
fn scan_char(chars: &[char], start: usize) -> usize {
    let mut i = start + 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    chars.len()
}

/// Scans a plain `"…"` string starting at `start`; returns (end, newlines).
fn scan_string(chars: &[char], start: usize) -> (usize, u32) {
    let mut i = start + 1;
    let mut nl = 0u32;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // An escaped newline (line-continuation) is still a newline
                // for line accounting.
                if chars.get(i + 1) == Some(&'\n') {
                    nl += 1;
                }
                i += 2;
            }
            '"' => return (i + 1, nl),
            '\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (chars.len(), nl)
}

/// Scans a string whose prefix (`r`, `b`, `br`, …) ends at `after_prefix`.
/// Raw flavors count `#`s and run to `"` + that many `#`s, no escapes.
fn scan_raw_or_plain_string(chars: &[char], _start: usize, after_prefix: usize) -> (usize, u32) {
    let n = chars.len();
    let mut i = after_prefix;
    let mut hashes = 0usize;
    while i < n && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return (i, 0); // malformed; bail without looping forever
    }
    if hashes == 0 && !raw_prefix(chars, after_prefix) {
        // b"…" — escapes apply.
        let (end, nl) = scan_string(chars, i);
        return (end, nl);
    }
    // Raw string: find `"` followed by `hashes` hashes.
    i += 1;
    let mut nl = 0u32;
    while i < n {
        if chars[i] == '\n' {
            nl += 1;
        }
        if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < n && seen < hashes && chars[j] == '#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return (j, nl);
            }
        }
        i += 1;
    }
    (n, nl)
}

/// Whether the string prefix ending at `after_prefix` contains `r`.
fn raw_prefix(chars: &[char], after_prefix: usize) -> bool {
    // Look back at most 2 chars for an `r`.
    (1..=2).any(|k| after_prefix >= k && chars[after_prefix - k] == 'r')
}

/// True when the attribute token slice (the tokens between `[` and `]`)
/// marks a test item: `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`.
/// `test` under `not(…)` does not count, so `#[cfg(not(test))]` is code.
fn attr_is_test(attr: &[Tok]) -> bool {
    match attr.first() {
        Some(t) if t.is_ident("test") => true,
        Some(t) if t.is_ident("cfg") => {
            let mut not_depth = 0usize;
            let mut paren_stack: Vec<bool> = Vec::new(); // true = a not(..) paren
            let mut k = 1;
            while k < attr.len() {
                let tok = &attr[k];
                if tok.is_ident("not") && attr.get(k + 1).is_some_and(|t| t.is_punct("(")) {
                    paren_stack.push(true);
                    not_depth += 1;
                    k += 2;
                    continue;
                }
                if tok.is_punct("(") {
                    paren_stack.push(false);
                } else if tok.is_punct(")") {
                    if paren_stack.pop() == Some(true) {
                        not_depth -= 1;
                    }
                } else if tok.is_ident("test") && not_depth == 0 {
                    return true;
                }
                k += 1;
            }
            false
        }
        _ => false,
    }
}

/// Computes the per-token test mask: tokens belonging to `#[cfg(test)]` /
/// `#[test]` items (the attribute itself, any stacked attributes, and the
/// item through its closing `}` or `;`).
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        // A `mod tests { … }` block is test scope by convention even when
        // the `#[cfg(test)]` attribute was forgotten.
        if toks[i].is_ident("mod") && toks.get(i + 1).is_some_and(|t| t.is_ident("tests")) {
            if let Some(open) = toks.get(i + 2).filter(|t| t.is_punct("{")).map(|_| i + 2) {
                let end = match_brace(toks, open);
                for m in mask.iter_mut().take(end).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
        }
        if !toks[i].is_punct("#") || !toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            i += 1;
            continue;
        }
        // Parse the attribute's bracket group.
        let attr_start = i;
        let Some((attr_toks, after_attr)) = bracket_group(toks, i + 1) else {
            i += 1;
            continue;
        };
        if !attr_is_test(attr_toks_slice(toks, &attr_toks)) {
            i = after_attr;
            continue;
        }
        // Skip any further stacked attributes.
        let mut j = after_attr;
        while j < toks.len()
            && toks[j].is_punct("#")
            && toks.get(j + 1).is_some_and(|t| t.is_punct("["))
        {
            match bracket_group(toks, j + 1) {
                Some((_, after)) => j = after,
                None => break,
            }
        }
        // Consume the item: to the matching `}` of its first `{`, or to a
        // terminating `;` when no body appears first (`mod tests;`).
        let mut k = j;
        let mut end = toks.len();
        while k < toks.len() {
            if toks[k].is_punct("{") {
                end = match_brace(toks, k);
                break;
            }
            if toks[k].is_punct(";") {
                end = k + 1;
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(end.min(toks.len())).skip(attr_start) {
            *m = true;
        }
        i = end.min(toks.len());
    }
    mask
}

/// Returns the (start, end) token range inside a `[...]` group whose `[` is
/// at `open`, plus the index just past the closing `]`.
fn bracket_group(toks: &[Tok], open: usize) -> Option<((usize, usize), usize)> {
    if !toks.get(open)?.is_punct("[") {
        return None;
    }
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(((open + 1, k), k + 1));
            }
        }
    }
    None
}

fn attr_toks_slice<'t>(toks: &'t [Tok], range: &(usize, usize)) -> &'t [Tok] {
    &toks[range.0..range.1]
}

/// Index just past the `)` matching the `(` at `open` (or `toks.len()`).
/// Returns `open` itself when the token there is not a `(`.
pub fn match_paren(toks: &[Tok], open: usize) -> usize {
    if !toks.get(open).is_some_and(|t| t.is_punct("(")) {
        return open;
    }
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    toks.len()
}

/// Index just past the `}` matching the `{` at `open` (or `toks.len()`).
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    toks.len()
}

/// Collects the body span of every `fn` outside test scope. Nested functions
/// produce nested spans; rules treat each span independently.
fn fn_spans(toks: &[Tok], mask: &[bool]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if mask[i] || !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Scan to the body `{` or a `;` (trait method declaration).
        let mut k = i + 2;
        let mut found = None;
        while k < toks.len() {
            if toks[k].is_punct("{") {
                found = Some(k);
                break;
            }
            if toks[k].is_punct(";") {
                break;
            }
            k += 1;
        }
        if let Some(open) = found {
            let end = match_brace(toks, open);
            spans.push(FnSpan {
                name: name_tok.text.clone(),
                body_start: open + 1,
                body_end: end.saturating_sub(1),
            });
        }
        i += 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_hide_their_content() {
        let toks = lex("let s = \"x.unwrap() { } std::fs\"; done();");
        assert!(toks
            .iter()
            .all(|t| t.kind != TokKind::Ident || t.text != "unwrap"));
        assert!(toks.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let s = r#"quote " inside .unwrap()"#; after();"####;
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.is_ident("after")));
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        let s = toks.iter().find(|t| t.kind == TokKind::Str).expect("str");
        assert!(s.text.starts_with("r#\"") && s.text.ends_with("\"#"));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let toks = lex("fn r#type() {}");
        assert!(toks.iter().any(|t| t.is_ident("type")));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = lex(r##"let a = b"ab\"cd"; let b = br#"e"f"#; tail();"##);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert!(toks.iter().any(|t| t.is_ident("tail")));
    }

    #[test]
    fn nested_block_comments_skip_cleanly() {
        let toks = lex("a(); /* outer /* inner .unwrap() */ still comment */ b();");
        let names = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let toks = lex("one\n/* c\nc */\n\"s\ns\"\nlast");
        let last = toks.iter().find(|t| t.is_ident("last")).expect("last");
        assert_eq!(last.line, 6);
    }

    #[test]
    fn escaped_newline_in_string_still_counts_a_line() {
        let toks = lex("let s = \"a\\\n b\";\nlast");
        let last = toks.iter().find(|t| t.is_ident("last")).expect("last");
        assert_eq!(last.line, 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let esc = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn char_brace_literal_is_not_a_brace() {
        let sf = SourceFile::parse(
            "x.rs",
            "#[cfg(test)]\nmod t { let c = '{'; }\nfn after() { live(); }",
        );
        let live = sf
            .toks
            .iter()
            .position(|t| t.is_ident("live"))
            .expect("live");
        assert!(!sf.test_mask[live]);
    }

    #[test]
    fn cfg_test_mod_masks_its_body_and_nothing_else() {
        let src = "fn a() { before(); }\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() { after(); }\n";
        let sf = SourceFile::parse("x.rs", src);
        let pos = |name: &str| sf.toks.iter().position(|t| t.is_ident(name)).expect(name);
        assert!(!sf.test_mask[pos("before")]);
        assert!(sf.test_mask[pos("unwrap")]);
        assert!(!sf.test_mask[pos("after")]);
    }

    #[test]
    fn cfg_not_test_is_not_test_scope() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let sf = SourceFile::parse("x.rs", src);
        let pos = sf
            .toks
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap");
        assert!(!sf.test_mask[pos], "cfg(not(test)) must stay live code");
    }

    #[test]
    fn cfg_any_with_test_is_test_scope() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nfn t() { x.unwrap(); }\n";
        let sf = SourceFile::parse("x.rs", src);
        let pos = sf
            .toks
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap");
        assert!(sf.test_mask[pos]);
    }

    #[test]
    fn stacked_attributes_after_test_are_masked() {
        let src = "#[test]\n#[should_panic]\nfn t() { boom(); }\nfn keep() { live(); }\n";
        let sf = SourceFile::parse("x.rs", src);
        let boom = sf
            .toks
            .iter()
            .position(|t| t.is_ident("boom"))
            .expect("boom");
        let live = sf
            .toks
            .iter()
            .position(|t| t.is_ident("live"))
            .expect("live");
        assert!(sf.test_mask[boom]);
        assert!(!sf.test_mask[live]);
    }

    #[test]
    fn bare_mod_tests_block_is_test_scope() {
        let src = "mod tests { fn t() { x.unwrap(); } }\nfn live() { go(); }\n";
        let sf = SourceFile::parse("x.rs", src);
        let unwrap = sf
            .toks
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap");
        let go = sf.toks.iter().position(|t| t.is_ident("go")).expect("go");
        assert!(sf.test_mask[unwrap]);
        assert!(!sf.test_mask[go]);
    }

    #[test]
    fn mod_tests_semicolon_form() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() { go(); }\n";
        let sf = SourceFile::parse("x.rs", src);
        let go = sf.toks.iter().position(|t| t.is_ident("go")).expect("go");
        assert!(!sf.test_mask[go]);
    }

    #[test]
    fn fn_spans_cover_bodies() {
        let src = "fn a() { one(); }\nfn b() { two(); inner(); }\n";
        let sf = SourceFile::parse("x.rs", src);
        assert_eq!(sf.fns.len(), 2);
        assert_eq!(sf.fns[0].name, "a");
        let body: Vec<_> = sf.toks[sf.fns[1].body_start..sf.fns[1].body_end]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(body, ["two", "inner"]);
    }

    #[test]
    fn test_fns_have_no_spans() {
        let src = "#[test]\nfn t() { x(); }\nfn live() { y(); }\n";
        let sf = SourceFile::parse("x.rs", src);
        assert_eq!(sf.fns.len(), 1);
        assert_eq!(sf.fns[0].name, "live");
    }

    #[test]
    fn double_colon_is_one_token() {
        let toks = lex("std::fs::read(x)");
        assert!(toks.iter().any(|t| t.is_punct("::")));
        assert_eq!(idents("std::fs::read"), ["std", "fs", "read"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        assert_eq!(
            idents("for i in 0..n { f(i) }"),
            ["for", "i", "in", "n", "f", "i"]
        );
    }
}
