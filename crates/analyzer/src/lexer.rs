//! A comment- and string-literal-aware lexical pass over Rust source.
//!
//! The analyzer never parses Rust properly (the workspace is offline, so
//! no `syn`); instead this module splits a source file into three aligned
//! per-line views:
//!
//! * **code** — the source with every comment and every string/char
//!   literal body blanked out, so token searches cannot be fooled by
//!   `"panic!"` inside a string or `// HashMap` inside a comment;
//! * **comments** — the text of every comment on that line (where
//!   `// simlint: allow(...)` annotations live);
//! * **test membership** — whether the line sits inside a
//!   `#[cfg(test)]`-gated item, which exempts it from the panic rules.
//!
//! The lexer understands line comments (`//`, `///`, `//!`), *nested*
//! block comments (`/* /* */ */`), plain and byte strings with escapes,
//! raw strings with arbitrary `#` fences (`r#"..."#`, `br##"..."##`),
//! char literals (including escapes like `'\u{1F600}'`) and tells them
//! apart from lifetimes (`'static`).

/// One file, split into rule-ready views. All three vectors have one
/// entry per source line.
#[derive(Debug, Clone)]
pub struct LexedFile {
    /// Source code with comments and literal bodies blanked.
    pub code: Vec<String>,
    /// Concatenated comment text per line.
    pub comments: Vec<String>,
    /// `true` when the line is inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Nesting depth of `/* */` pairs.
    BlockComment(u32),
    /// Plain or byte string; `true` while the next char is escaped.
    Str {
        escaped: bool,
    },
    /// Raw (byte) string closed by `"` followed by this many `#`.
    RawStr(u32),
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes one source file. Never fails: malformed source degrades to
/// treating the remainder as code, which at worst produces a spurious
/// diagnostic rather than a missed file.
#[must_use]
pub fn lex(source: &str) -> LexedFile {
    let b = source.as_bytes();
    let mut code_lines: Vec<String> = Vec::new();
    let mut comment_lines: Vec<String> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut prev_code: u8 = b' '; // last code byte, for ident-boundary checks
    let mut i = 0usize;

    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
            if state == State::LineComment {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == b'"' {
                    code.push('"');
                    prev_code = b'"';
                    state = State::Str { escaped: false };
                    i += 1;
                } else if (c == b'r' || c == b'b') && !is_ident(prev_code) {
                    // Possible raw/byte string head: r" r#" b" br" br#"
                    if let Some((fence, consumed)) = raw_string_head(b, i) {
                        code.push('"');
                        prev_code = b'"';
                        state = match fence {
                            Some(h) => State::RawStr(h),
                            None => State::Str { escaped: false },
                        };
                        i += consumed;
                    } else {
                        code.push(c as char);
                        prev_code = c;
                        i += 1;
                    }
                } else if c == b'\'' {
                    if let Some(end) = char_literal_end(b, i) {
                        code.push('\'');
                        code.push('\'');
                        prev_code = b'\'';
                        i = end;
                    } else {
                        // A lifetime: keep the tick, it is harmless code.
                        code.push('\'');
                        prev_code = b'\'';
                        i += 1;
                    }
                } else {
                    code.push(c as char);
                    prev_code = c;
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c as char);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    state = if depth <= 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    comment.push(c as char);
                    i += 1;
                }
            }
            State::Str { escaped } => {
                if escaped {
                    state = State::Str { escaped: false };
                } else if c == b'\\' {
                    state = State::Str { escaped: true };
                } else if c == b'"' {
                    code.push('"');
                    prev_code = b'"';
                    state = State::Code;
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == b'"' && has_hashes(b, i + 1, hashes) {
                    code.push('"');
                    prev_code = b'"';
                    state = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
        }
    }
    code_lines.push(code);
    comment_lines.push(comment);

    let in_test = mark_test_regions(&code_lines);
    LexedFile {
        code: code_lines,
        comments: comment_lines,
        in_test,
    }
}

/// If `b[i..]` starts a raw or byte string opener, returns
/// `(fence_hashes, bytes_consumed)`; `fence_hashes` is `None` for a plain
/// byte string (`b"`), `Some(n)` for raw strings with `n` hashes.
fn raw_string_head(b: &[u8], i: usize) -> Option<(Option<u32>, usize)> {
    let mut j = i;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    if b.get(j) == Some(&b'r') {
        j += 1;
        let mut hashes = 0u32;
        while b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if b.get(j) == Some(&b'"') {
            return Some((Some(hashes), j + 1 - i));
        }
        return None;
    }
    // b"..." (byte string without raw fence)
    if j > i && b.get(j) == Some(&b'"') {
        return Some((None, j + 1 - i));
    }
    None
}

/// Whether `count` `#` bytes follow at `b[i..]`.
fn has_hashes(b: &[u8], i: usize, count: u32) -> bool {
    let n = count as usize;
    i + n <= b.len() && b[i..i + n].iter().all(|&c| c == b'#')
}

/// If a char literal starts at `b[i]` (which must be `'`), returns the
/// index just past its closing quote. Returns `None` for lifetimes.
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    match b.get(i + 1)? {
        b'\\' => {
            // Escape: '\n' '\\' '\'' '\u{...}' '\x7f'
            let mut j = i + 2;
            if b.get(j) == Some(&b'u') && b.get(j + 1) == Some(&b'{') {
                j += 2;
                while j < b.len() && b[j] != b'}' {
                    j += 1;
                }
                j += 1;
            } else {
                j += 1;
                if b.get(i + 2) == Some(&b'x') {
                    j += 2;
                }
            }
            (b.get(j) == Some(&b'\'')).then_some(j + 1)
        }
        _ => {
            // Unescaped: scan to the next quote within the longest legal
            // literal (one UTF-8 scalar, at most 4 bytes). A tick followed
            // by ident chars and no closing quote is a lifetime.
            let mut j = i + 1;
            let limit = (i + 5).min(b.len());
            while j < limit {
                if b[j] == b'\'' {
                    // `''` is not a char literal; `'a'` and `'é'` are.
                    return (j > i + 1).then_some(j + 1);
                }
                j += 1;
            }
            None
        }
    }
}

/// Marks the lines belonging to `#[cfg(test)]`-gated items.
///
/// Strategy: find each `#[cfg(test)]` attribute in the blanked code, skip
/// any further attributes, then consume one item — either up to the first
/// `;` (e.g. `#[cfg(test)] use ...;`) or a brace-matched `{ ... }` block
/// (the common `#[cfg(test)] mod tests { ... }`). Works on blanked code,
/// so braces inside strings or comments cannot desynchronize the match.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let chars: Vec<(usize, char)> = code
        .iter()
        .enumerate()
        .flat_map(|(ln, l)| l.chars().map(move |c| (ln, c)).chain([(ln, '\n')]))
        .collect();
    let flat: String = chars.iter().map(|&(_, c)| c).collect();

    let mut search_from = 0usize;
    while let Some(off) = find_cfg_test(&flat[search_from..]) {
        let attr_start = search_from + off;
        let Some(&(start_line, _)) = chars.get(attr_start) else {
            break;
        };
        // Move past this attribute, then past any stacked attributes.
        let mut k = skip_attr(&chars, attr_start);
        loop {
            while k < chars.len() && chars[k].1.is_whitespace() {
                k += 1;
            }
            if k < chars.len() && chars[k].1 == '#' {
                k = skip_attr(&chars, k);
            } else {
                break;
            }
        }
        // Consume one item: to `;` or through a balanced `{ ... }`.
        let mut depth = 0usize;
        let mut end_line = start_line;
        while k < chars.len() {
            let (ln, c) = chars[k];
            end_line = ln;
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                ';' if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        for flag in in_test.iter_mut().take(end_line + 1).skip(start_line) {
            *flag = true;
        }
        search_from = k.max(attr_start + 1);
    }
    in_test
}

/// Finds the next `#[cfg(test)]` attribute head, tolerating interior
/// whitespace (`#[cfg( test )]`). Returns the offset of its `#`.
fn find_cfg_test(hay: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = hay.get(from..).and_then(|h| h.find("#[")) {
        let start = from + pos;
        // Collect the attribute's non-whitespace prefix and compare.
        let mut compact = String::new();
        for &c in bytes.iter().skip(start).take(40) {
            if !c.is_ascii_whitespace() {
                compact.push(c as char);
            }
            if compact.len() >= 12 {
                break;
            }
        }
        if compact.starts_with("#[cfg(test)]") {
            return Some(start);
        }
        from = start + 2;
    }
    None
}

/// Given `chars[k] == '#'` starting an attribute, returns the index just
/// past its closing `]`.
fn skip_attr(chars: &[(usize, char)], k: usize) -> usize {
    let mut j = k;
    let mut depth = 0usize;
    while j < chars.len() {
        match chars[j].1 {
            '[' => depth += 1,
            ']' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> String {
        lex(src).code.join("\n")
    }

    #[test]
    fn line_comments_are_stripped_from_code() {
        let f = lex("let x = 1; // trailing panic!()\n// full-line HashMap\nlet y = 2;");
        assert!(!f.code.join("\n").contains("panic"));
        assert!(!f.code.join("\n").contains("HashMap"));
        assert!(f.comments[0].contains("panic!()"));
        assert!(f.comments[1].contains("HashMap"));
        assert!(f.code[2].contains("let y = 2;"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let f = lex("/// uses unwrap() freely\n//! and panic!\nfn f() {}");
        assert!(!f.code.join("\n").contains("unwrap"));
        assert!(f.comments[0].contains("unwrap()"));
        assert!(f.comments[1].contains("panic!"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = lex("a /* one\n two HashMap\n three */ b");
        let code = f.code.join("\n");
        assert!(code.contains('a') && code.contains('b'));
        assert!(!code.contains("HashMap"));
        assert!(f.comments[1].contains("HashMap"));
    }

    #[test]
    fn nested_block_comments() {
        let f = lex("x /* outer /* inner panic! */ still comment */ y");
        let code = f.code.join("\n");
        assert!(code.contains('x') && code.contains('y'));
        assert!(!code.contains("panic"));
        assert!(!code.contains("still comment"));
    }

    #[test]
    fn string_bodies_are_blanked() {
        let code = code_of(r#"let s = "panic! unwrap() HashMap"; let t = 1;"#);
        assert!(!code.contains("panic"));
        assert!(!code.contains("HashMap"));
        assert!(code.contains("let t = 1;"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let code = code_of(r#"let s = "a\"panic!\"b"; unwrap_me();"#);
        assert!(!code.contains("panic"));
        assert!(code.contains("unwrap_me();"));
    }

    #[test]
    fn raw_strings_with_fences() {
        let code = code_of(r###"let s = r#"panic! "quoted" HashMap"#; after();"###);
        assert!(!code.contains("panic"));
        assert!(!code.contains("HashMap"));
        assert!(code.contains("after();"));
    }

    #[test]
    fn multiline_raw_string() {
        let f = lex("let s = r\"line1 panic!\nline2 HashMap\"; tail();");
        let code = f.code.join("\n");
        assert!(!code.contains("panic"));
        assert!(!code.contains("HashMap"));
        assert!(code.contains("tail();"));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let code = code_of(r##"let a = b"panic!"; let b = br#"HashMap"#; end();"##);
        assert!(!code.contains("panic"));
        assert!(!code.contains("HashMap"));
        assert!(code.contains("end();"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let code = code_of(r#"let var"#);
        assert!(code.contains("let var"));
    }

    #[test]
    fn char_literals_are_blanked_but_lifetimes_survive() {
        let code = code_of("let c = '\"'; fn f<'a>(x: &'a str) {} let q = '\\'';");
        // The quote char literal must not open a string.
        assert!(code.contains("fn f<'a>(x: &'a str) {}"));
        assert!(!code.contains('"') || code.matches('"').count() == 0);
    }

    #[test]
    fn escaped_char_literals() {
        let code = code_of(r"let a = '\n'; let b = '\u{1F600}'; let c = '\x7f'; done();");
        assert!(code.contains("done();"));
    }

    #[test]
    fn static_lifetime_is_not_a_char() {
        let code = code_of("fn f(x: &'static str) -> &'static str { x }");
        assert!(code.contains("'static str"));
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "\
fn lib_code() { a.unwrap(); }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { b.unwrap(); }
}

fn more_lib() {}
";
        let f = lex(src);
        assert!(!f.in_test[0], "lib code must not be marked");
        assert!(f.in_test[2], "attribute line is part of the test region");
        assert!(f.in_test[5], "test body is marked");
        assert!(f.in_test[6], "closing brace is marked");
        assert!(!f.in_test[8], "code after the module is lib again");
    }

    #[test]
    fn cfg_test_with_stacked_attributes() {
        let src = "\
#[cfg(test)]
#[allow(dead_code)]
mod tests {
    fn t() {}
}
fn lib() {}
";
        let f = lex(src);
        assert!(f.in_test[0] && f.in_test[2] && f.in_test[4]);
        assert!(!f.in_test[5]);
    }

    #[test]
    fn cfg_test_on_a_single_item_without_braces() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn lib() {}\n";
        let f = lex(src);
        assert!(f.in_test[0] && f.in_test[1]);
        assert!(!f.in_test[2]);
    }

    #[test]
    fn braces_inside_strings_do_not_confuse_test_regions() {
        let src = "\
#[cfg(test)]
mod tests {
    const S: &str = \"}\";
    fn t() {}
}
fn lib_after() { x.unwrap(); }
";
        let f = lex(src);
        assert!(f.in_test[1] && f.in_test[4]);
        assert!(
            !f.in_test[5],
            "string brace must not close the module early"
        );
    }

    #[test]
    fn cfg_not_test_is_ignored() {
        let f = lex("#[cfg(not(test))]\nmod real {\n fn f() {}\n}\n");
        assert!(f.in_test.iter().all(|&t| !t));
    }

    #[test]
    fn views_are_line_aligned() {
        let src = "a\nb /* c\nd */ e\nf";
        let f = lex(src);
        assert_eq!(f.code.len(), 4);
        assert_eq!(f.comments.len(), 4);
        assert_eq!(f.in_test.len(), 4);
    }
}
