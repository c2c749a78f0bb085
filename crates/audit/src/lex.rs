//! A small Rust token scanner: enough lexical structure to drive the
//! audit rules, nothing more. Comments and literals are recognized and
//! set aside (so rule patterns never match inside strings), identifiers
//! and punctuation survive as a flat token stream with line numbers.
//!
//! Not a parser: no AST, no macro expansion, no name resolution. The
//! rules match token patterns plus the light structure [`crate::parse`]
//! recovers (enclosing `fn`, `#[cfg(test)]` regions, call sites), which
//! is exactly the PETSc-style "grep with a lexer" tradition this tool
//! reproduces.

use std::collections::{BTreeMap, BTreeSet};

/// Token kind. Literals carry no text: rules never match on their
/// contents, only on their presence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    Ident,
    Punct,
    Num,
    Str,
    Char,
    Lifetime,
}

#[derive(Debug, Clone)]
pub struct Tok {
    pub line: u32,
    pub kind: Kind,
    /// Identifier name or punctuation spelling (multi-char operators
    /// such as `::`, `+=`, `=>` arrive as a single token). Empty for
    /// literals.
    pub s: String,
}

/// Lexed view of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    /// Concatenated comment text per line (line comments and the first
    /// line of block comments).
    pub comment_on: BTreeMap<u32, String>,
    /// Every line covered by a comment (including the interior lines of
    /// block comments).
    pub comment_lines: BTreeSet<u32>,
    /// Lines holding at least one non-comment token.
    pub code_lines: BTreeSet<u32>,
    /// Lines whose first token is `#` (attribute lines).
    pub attr_lines: BTreeSet<u32>,
}

/// Two-character operators folded into one token. Three-character
/// operators the rules never inspect (`..=`, `<<=`, `>>=`) lex as a
/// two-char token plus a one-char token, which is harmless here.
const TWO_CHAR_OPS: &[&str] = &[
    "::", "+=", "-=", "*=", "/=", "%=", "=>", "->", "..", "&&", "||", "==", "!=", "<=", ">=", "<<",
    ">>", "&=", "|=", "^=",
];

pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_has_code = false;

    macro_rules! push {
        ($kind:expr, $s:expr) => {{
            let s: String = $s;
            if !line_has_code && s == "#" {
                out.attr_lines.insert(line);
            }
            out.toks.push(Tok {
                line,
                kind: $kind,
                s,
            });
            out.code_lines.insert(line);
            line_has_code = true;
        }};
    }

    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            line_has_code = false;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (includes /// and //! doc comments).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            let text = &src[start..i];
            out.comment_lines.insert(line);
            let slot = out.comment_on.entry(line).or_default();
            if !slot.is_empty() {
                slot.push(' ');
            }
            slot.push_str(text);
            continue;
        }
        // Block comment; Rust block comments nest.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            let start_line = line;
            i += 2;
            let mut depth = 1usize;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == b'\n' {
                        line += 1;
                        line_has_code = false;
                    }
                    i += 1;
                }
            }
            for l in start_line..=line {
                out.comment_lines.insert(l);
            }
            let slot = out.comment_on.entry(start_line).or_default();
            if !slot.is_empty() {
                slot.push(' ');
            }
            slot.push_str(&src[start..i]);
            continue;
        }
        // Raw / byte string prefixes: r"", r#""#, b"", br#""#.
        if (c == b'r' || c == b'b') && is_raw_or_byte_string(b, i) {
            i = skip_string_like(b, i, &mut line);
            push!(Kind::Str, String::new());
            continue;
        }
        // Byte char b'x'.
        if c == b'b' && i + 1 < b.len() && b[i + 1] == b'\'' {
            i = skip_char_literal(b, i + 1);
            push!(Kind::Char, String::new());
            continue;
        }
        if c == b'"' {
            i = skip_plain_string(b, i, &mut line);
            push!(Kind::Str, String::new());
            continue;
        }
        if c == b'\'' {
            // Lifetime or char literal. `'ident` not followed by a
            // closing quote is a lifetime (including `'static`).
            if i + 1 < b.len() && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_') {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                if j < b.len() && b[j] == b'\'' && j == i + 2 {
                    // 'x' — a one-character char literal.
                    i = j + 1;
                    push!(Kind::Char, String::new());
                } else {
                    i = j;
                    push!(Kind::Lifetime, String::new());
                }
                continue;
            }
            i = skip_char_literal(b, i);
            push!(Kind::Char, String::new());
            continue;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            push!(Kind::Ident, src[start..i].to_string());
            continue;
        }
        if c.is_ascii_digit() {
            i = skip_number(b, i);
            push!(Kind::Num, String::new());
            continue;
        }
        // Punctuation: greedily fold the two-char operators.
        if i + 1 < b.len() {
            let pair = &src[i..i + 2];
            if TWO_CHAR_OPS.contains(&pair) {
                push!(Kind::Punct, pair.to_string());
                i += 2;
                continue;
            }
        }
        push!(Kind::Punct, (c as char).to_string());
        i += 1;
    }
    out
}

/// Is `b[i..]` the start of a raw string (`r"`, `r#"`) or byte string
/// (`b"`, `br"`, `br#"`)?
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
    }
    j > i && j < b.len() && b[j] == b'"'
}

/// Skip a (possibly raw, possibly byte) string literal starting at `i`;
/// returns the index just past the closing quote.
fn skip_string_like(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    if b[i] == b'b' {
        i += 1;
    }
    let mut hashes = 0usize;
    let raw = b[i] == b'r';
    if raw {
        i += 1;
        while i < b.len() && b[i] == b'#' {
            hashes += 1;
            i += 1;
        }
    }
    debug_assert!(i < b.len() && b[i] == b'"');
    i += 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if !raw && b[i] == b'\\' {
            i += 2;
            continue;
        }
        if b[i] == b'"' {
            if raw {
                let mut k = 0usize;
                while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                    k += 1;
                }
                if k == hashes {
                    return i + 1 + hashes;
                }
                i += 1;
                continue;
            }
            return i + 1;
        }
        i += 1;
    }
    i
}

fn skip_plain_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(b[i], b'"');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip `'x'`, `'\n'`, `'\u{1F600}'`; `i` points at the opening quote.
fn skip_char_literal(b: &[u8], mut i: usize) -> usize {
    debug_assert_eq!(b[i], b'\'');
    i += 1;
    if i < b.len() && b[i] == b'\\' {
        i += 2;
        while i < b.len() && b[i] != b'\'' {
            i += 1;
        }
        return (i + 1).min(b.len());
    }
    // Possibly multi-byte UTF-8: scan to the closing quote.
    while i < b.len() && b[i] != b'\'' {
        i += 1;
    }
    (i + 1).min(b.len())
}

/// Skip a numeric literal: integers, floats, exponents, suffixes,
/// underscores. A `.` is consumed only when not starting a `..` range.
fn skip_number(b: &[u8], mut i: usize) -> usize {
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_alphanumeric() || c == b'_' {
            // Exponent sign: 1e-12 / 1E+3.
            if (c == b'e' || c == b'E')
                && i + 1 < b.len()
                && (b[i + 1] == b'+' || b[i + 1] == b'-')
                && i + 2 < b.len()
                && b[i + 2].is_ascii_digit()
            {
                i += 2;
                continue;
            }
            i += 1;
            continue;
        }
        if c == b'.' && i + 1 < b.len() && b[i + 1] != b'.' {
            // Method call on a literal (`1.0f64.sqrt()`, `2.min(x)`)
            // must not swallow the method name: only consume the dot
            // when a digit follows.
            if b[i + 1].is_ascii_digit() {
                i += 1;
                continue;
            }
            return i;
        }
        return i;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.s)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // unwrap() in a comment
            let s = "call .unwrap() here"; /* and panic!() there */
            let r = r#"raw .unwrap()"#;
            x.unwrap();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "unwrap").count(), 1);
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let l = lex(src);
        let nlife = l.toks.iter().filter(|t| t.kind == Kind::Lifetime).count();
        let nchar = l.toks.iter().filter(|t| t.kind == Kind::Char).count();
        assert_eq!(nlife, 2);
        assert_eq!(nchar, 1);
    }

    #[test]
    fn two_char_ops_fold() {
        let src = "a += 1; b::c(); let d = a >= b;";
        let l = lex(src);
        let ops: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == Kind::Punct)
            .map(|t| t.s.as_str())
            .collect();
        assert!(ops.contains(&"+="));
        assert!(ops.contains(&"::"));
        assert!(ops.contains(&">="));
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let src = "for i in 0..n { s += 1.0e-3; }";
        let l = lex(src);
        assert!(l.toks.iter().any(|t| t.s == ".."));
        assert!(l.toks.iter().any(|t| t.s == "+="));
    }

    #[test]
    fn line_numbers_and_comment_map() {
        let src = "let a = 1;\n// SAFETY: fine\nunsafe { f() }\n";
        let l = lex(src);
        assert!(l.comment_on.get(&2).is_some_and(|c| c.contains("SAFETY:")));
        let u = l.toks.iter().find(|t| t.s == "unsafe").expect("unsafe tok");
        assert_eq!(u.line, 3);
        assert!(l.code_lines.contains(&3));
        assert!(!l.code_lines.contains(&2));
    }

    #[test]
    fn attr_lines_tracked() {
        let src = "#[inline]\nfn f() {}\n";
        let l = lex(src);
        assert!(l.attr_lines.contains(&1));
        assert!(!l.attr_lines.contains(&2));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn g() {}";
        let ids = idents(src);
        assert_eq!(ids, vec!["fn".to_string(), "g".to_string()]);
    }

    #[test]
    fn byte_strings_and_chars() {
        let src = "let x = b\"bytes\"; let y = b'a'; let z = 'b';";
        let l = lex(src);
        assert_eq!(l.toks.iter().filter(|t| t.kind == Kind::Str).count(), 1);
        assert_eq!(l.toks.iter().filter(|t| t.kind == Kind::Char).count(), 2);
    }
}
