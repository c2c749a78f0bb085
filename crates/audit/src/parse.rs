//! A lightweight item-and-call parser over [`crate::lex::Lexed`]: just
//! enough syntactic structure for the audit rules — function
//! definitions with their attributes and body spans, `impl` context,
//! struct fields, call expressions with argument spans, and per token
//! the `#[cfg(test)]` regions and owning fn.
//!
//! Still not a compiler front end: no macro expansion, no type
//! inference, no trait resolution. Names are resolved later by
//! [`crate::graph`] with an explicit preference heuristic whose
//! soundness limits are documented in DESIGN.md §14.

use crate::lex::{Kind, Lexed, Tok};
use std::collections::BTreeMap;

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token-index span of the body: `(open_brace, close_brace)`.
    /// Bodyless declarations (trait methods, extern fns) are not
    /// recorded as definitions.
    pub body: (usize, usize),
    /// Carries `#[target_feature(...)]`.
    pub target_feature: bool,
    /// Carries `#[inline(always)]`.
    pub inline_always: bool,
    /// Generic over the SIMD `Lane` trait: a `Lane` bound (`V: Lane`,
    /// `+ Lane`, `impl Lane`) between the name and the body.
    pub lane_generic: bool,
    /// Inside a `#[cfg(test)]` region (the file-path test class is
    /// tracked separately by [`crate::rules::classify`]).
    pub in_test: bool,
    /// `Some(TypeName)` when defined inside `impl TypeName` /
    /// `impl Trait for TypeName`.
    pub impl_type: Option<String>,
    /// Innermost named inline module (`mod avx { … }`) containing the
    /// definition. `None` for file-level items (their module is the
    /// file stem, which the graph derives from the path).
    pub module: Option<String>,
}

/// One field of a struct definition.
#[derive(Debug, Clone)]
pub struct StructField {
    pub name: String,
    pub line: u32,
    /// Identifier tokens of the field's type (e.g. `Vec<f64>` →
    /// `["Vec", "f64"]`, `StructuredMesh` → `["StructuredMesh"]`).
    pub type_idents: Vec<String>,
}

/// A brace-style struct definition with named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub line: u32,
    pub fields: Vec<StructField>,
}

/// One call expression `callee(...)`, `recv.callee(...)`, or
/// `qual::callee(...)`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee identifier.
    pub tok: usize,
    pub line: u32,
    pub callee: String,
    /// Path segment immediately before `::callee` (module, type, or
    /// crate alias). `None` for bare and method calls.
    pub qual: Option<String>,
    /// Written as `.callee(...)`.
    pub method: bool,
    /// Index into [`Parsed::fns`] of the innermost enclosing function.
    pub in_fn: Option<usize>,
    /// Token-index span of the argument list: `(open_paren, close_paren)`.
    pub args: (usize, usize),
}

/// Parsed view of one source file.
#[derive(Debug, Default)]
pub struct Parsed {
    pub fns: Vec<FnDef>,
    pub structs: Vec<StructDef>,
    pub calls: Vec<CallSite>,
    /// Per token: inside a `#[cfg(test)] mod` region.
    pub in_test: Vec<bool>,
    /// Per token: index into [`Parsed::fns`] of the innermost fn whose
    /// body holds it. Closures belong to their enclosing named fn; a
    /// nested `fn` owns its own body.
    pub owner: Vec<Option<usize>>,
    /// `use … as` renames of this file: alias → the path segment it
    /// names (`use crate::vec_ops as v;` gives `v` → `vec_ops`).
    pub use_aliases: BTreeMap<String, String>,
}

impl Parsed {
    /// Name of the fn owning token `tok`, or `""` outside any fn.
    pub(crate) fn owner_name(&self, tok: usize) -> &str {
        self.owner[tok].map_or("", |k| self.fns[k].name.as_str())
    }
}

/// Keywords that look like `ident (` but are not calls.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "where"
            | "unsafe"
            | "dyn"
            | "impl"
            | "enum"
            | "struct"
            | "union"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "await"
            | "break"
            | "continue"
    )
}

pub fn parse(lexed: &Lexed) -> Parsed {
    let toks = &lexed.toks;
    let mut out = Parsed {
        in_test: test_region_mask(toks),
        ..Parsed::default()
    };
    let impl_ctx = impl_context(toks);
    let mod_ctx = mod_context(toks);

    // Pass 1: fn definitions. Attributes accumulate onto the next item;
    // only tokens that can legally sit between an attribute and `fn`
    // (visibility, `unsafe`, `const`, `extern "C"`) keep them alive.
    let (mut attr_target_feature, mut attr_inline_always) = (false, false);
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.s == "#" {
            let (end, text) = scan_attr(toks, i);
            if text.iter().any(|s| s == "target_feature") {
                attr_target_feature = true;
            }
            if text == ["inline", "always"] {
                attr_inline_always = true;
            }
            i = end + 1;
            continue;
        }
        if t.s == "fn" {
            if let Some(n) = toks.get(i + 1) {
                if n.kind == Kind::Ident {
                    if let Some((open, close)) = fn_body_span(toks, i + 2) {
                        let lane_generic = (i + 3..open).any(|k| {
                            toks[k].s == "Lane"
                                && matches!(toks[k - 1].s.as_str(), ":" | "+" | "impl")
                        });
                        out.fns.push(FnDef {
                            name: n.s.clone(),
                            line: t.line,
                            body: (open, close),
                            target_feature: attr_target_feature,
                            inline_always: attr_inline_always,
                            lane_generic,
                            in_test: out.in_test[i],
                            impl_type: impl_ctx[i].clone(),
                            module: mod_ctx[i].clone(),
                        });
                    }
                }
            }
            (attr_target_feature, attr_inline_always) = (false, false);
            i += 1;
            continue;
        }
        // Tokens allowed between an attribute and the `fn` it decorates.
        let keeps_attr = matches!(t.s.as_str(), "pub" | "crate" | "super" | "in" | "(" | ")")
            || t.s == "unsafe"
            || t.s == "const"
            || t.s == "extern"
            || t.kind == Kind::Str;
        if !keeps_attr {
            (attr_target_feature, attr_inline_always) = (false, false);
        }
        i += 1;
    }

    // Pass 2: struct definitions with named fields.
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].s == "struct" && toks.get(i + 1).is_some_and(|n| n.kind == Kind::Ident) {
            let name = toks[i + 1].s.clone();
            let line = toks[i + 1].line;
            // Skip generics / where clause to the item's `{`, `;`, or `(`.
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < toks.len() {
                match toks[j].s.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "{" if angle <= 0 => break,
                    ";" | "(" if angle <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j < toks.len() && toks[j].s == "{" {
                let fields = parse_struct_fields(toks, j);
                out.structs.push(StructDef { name, line, fields });
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }

    // Pass 3: `use` renames, `Target as alias` inside `use … ;` (also in
    // `{…}` groups); `as _` imports name nothing.
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        match t.s.as_str() {
            "use" => in_use = true,
            ";" => in_use = false,
            "as" if in_use && i > 0 => {
                let (target, alias) = (&toks[i - 1], toks.get(i + 1));
                if let Some(alias) = alias.filter(|a| a.kind == Kind::Ident && a.s != "_") {
                    if target.kind == Kind::Ident {
                        out.use_aliases.insert(alias.s.clone(), target.s.clone());
                    }
                }
            }
            _ => {}
        }
    }

    // Pass 4: call expressions.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Ident || is_keyword(&t.s) {
            continue;
        }
        // Optional turbofish between callee and `(`: `f::<T>(…)`.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|n| n.s == "::") && toks.get(j + 1).is_some_and(|n| n.s == "<") {
            let mut angle = 0i32;
            j += 1;
            while j < toks.len() {
                match toks[j].s.as_str() {
                    "<" => angle += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    ">>" => angle -= 2,
                    ";" | "{" => break,
                    _ => {}
                }
                j += 1;
            }
        }
        if toks.get(j).map(|n| n.s.as_str()) != Some("(") {
            continue;
        }
        // Not a definition (`fn name(`) and not a macro (`name!(`).
        let prev = i.checked_sub(1).map(|p| toks[p].s.as_str());
        if prev == Some("fn") {
            continue;
        }
        let method = prev == Some(".");
        let qual = if prev == Some("::") && i >= 2 && toks[i - 2].kind == Kind::Ident {
            Some(toks[i - 2].s.clone())
        } else {
            None
        };
        // `Struct { .. }` init lists and `name!` macros never reach here
        // (`(` requirement / `!` check), but a path segment that is not
        // the final one (`a::b::c(` at `b`) must not register: the next
        // token after `b` is `::`, handled by the `(`-requirement above.
        let close = match balanced_close(toks, j) {
            Some(c) => c,
            None => continue,
        };
        out.calls.push(CallSite {
            tok: i,
            line: t.line,
            callee: t.s.clone(),
            qual,
            method,
            in_fn: None,
            args: (j, close),
        });
    }

    // Token ownership: longest bodies first, so inner fns overwrite.
    out.owner = vec![None; toks.len()];
    let mut order: Vec<usize> = (0..out.fns.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(out.fns[k].body.1 - out.fns[k].body.0));
    for k in order {
        let (open, close) = out.fns[k].body;
        out.owner[open..=close].fill(Some(k));
    }
    for c in &mut out.calls {
        c.in_fn = out.owner[c.tok];
    }

    out
}

/// Scan `#[...]` starting at the `#` token; returns (index of closing
/// `]`, identifier texts inside).
fn scan_attr(toks: &[Tok], hash: usize) -> (usize, Vec<String>) {
    let mut text = Vec::new();
    let mut depth = 0i32;
    let mut j = hash + 1;
    while j < toks.len() {
        match toks[j].s.as_str() {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    return (j, text);
                }
            }
            _ => {
                if toks[j].kind == Kind::Ident {
                    text.push(toks[j].s.clone());
                }
            }
        }
        j += 1;
    }
    (toks.len().saturating_sub(1), text)
}

/// From just past the fn name, find the body span `(open, close)`;
/// `None` for bodyless declarations. Tracks paren/bracket depth so a
/// `;` inside `fn f(x: [u8; 3])` does not end the signature, and angle
/// depth so `{` of `Foo<T> where T: Trait` closures in default generic
/// positions cannot confuse it (no such case in this workspace, but the
/// guard is cheap).
fn fn_body_span(toks: &[Tok], mut j: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].s.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 => return None,
            "{" if depth == 0 => {
                let close = balanced_close_brace(toks, j)?;
                return Some((j, close));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

pub(crate) fn balanced_close_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].s == "{" {
            depth += 1;
        } else if toks[j].s == "}" {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

/// Matching `)` for the `(` at `open`.
fn balanced_close(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        match toks[j].s.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Fields of a brace struct whose `{` sits at `open`: identifiers at
/// brace depth 1 directly followed by `:` (skipping visibility).
fn parse_struct_fields(toks: &[Tok], open: usize) -> Vec<StructField> {
    let close = match balanced_close_brace(toks, open) {
        Some(c) => c,
        None => return Vec::new(),
    };
    let mut fields = Vec::new();
    let mut j = open + 1;
    while j < close {
        // Skip attributes on fields.
        if toks[j].s == "#" {
            let (end, _) = scan_attr(toks, j);
            j = end + 1;
            continue;
        }
        // Visibility.
        if toks[j].s == "pub" {
            j += 1;
            if toks.get(j).is_some_and(|t| t.s == "(") {
                j = balanced_close(toks, j).map_or(close, |c| c + 1);
            }
            continue;
        }
        if toks[j].kind == Kind::Ident && toks.get(j + 1).is_some_and(|n| n.s == ":") {
            let name = toks[j].s.clone();
            let line = toks[j].line;
            // Type tokens run to the `,` (or the struct's `}`) at
            // depth 0 of nested (), [], {} and <>.
            let mut type_idents = Vec::new();
            let mut k = j + 2;
            let mut depth = 0i32;
            let mut angle = 0i32;
            while k < close {
                match toks[k].s.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "," if depth == 0 && angle <= 0 => break,
                    _ => {
                        if toks[k].kind == Kind::Ident {
                            type_idents.push(toks[k].s.clone());
                        }
                    }
                }
                k += 1;
            }
            fields.push(StructField {
                name,
                line,
                type_idents,
            });
            j = k + 1;
            continue;
        }
        j += 1;
    }
    fields
}

/// Token-index mask of `#[cfg(test)] mod …` regions (and any module
/// under a `cfg` attribute mentioning `test`, e.g.
/// `#[cfg(all(test, feature = "x"))]`).
fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].s != "#" || toks.get(i + 1).map(|t| t.s.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        let (attr_end, text) = scan_attr(toks, i);
        let is_cfg_test = text.iter().any(|s| s == "cfg") && text.iter().any(|s| s == "test");
        if !is_cfg_test {
            i = attr_end + 1;
            continue;
        }
        // Skip further attributes, then require `mod name {`.
        let mut k = attr_end + 1;
        while k < toks.len() && toks[k].s == "#" {
            let (e, _) = scan_attr(toks, k);
            k = e + 1;
        }
        let is_mod = k < toks.len()
            && (toks[k].s == "mod"
                || (toks[k].s == "pub" && toks.get(k + 1).is_some_and(|t| t.s == "mod")));
        if !is_mod {
            i = attr_end + 1;
            continue;
        }
        while k < toks.len() && toks[k].s != "{" && toks[k].s != ";" {
            k += 1;
        }
        if k >= toks.len() || toks[k].s == ";" {
            i = attr_end + 1;
            continue;
        }
        let end = balanced_close_brace(toks, k).unwrap_or(toks.len() - 1);
        for m in mask.iter_mut().take(end + 1).skip(k) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// For every token, the `impl` type it sits under (`impl Foo {…}` /
/// `impl Trait for Foo {…}`), if any.
fn impl_context(toks: &[Tok]) -> Vec<Option<String>> {
    let mut out: Vec<Option<String>> = vec![None; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].s != "impl" {
            i += 1;
            continue;
        }
        // Scan the header to its `{`, remembering the last plain
        // identifier at angle depth 0 before the brace — for
        // `impl<T> Trait for Foo<T>` that is `Foo`; for `impl Foo` it
        // is `Foo`.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut ty: Option<String> = None;
        while j < toks.len() {
            match toks[j].s.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => break,
                ";" if angle <= 0 => break,
                "where" if angle <= 0 => {
                    // Type already seen; skip the clause to the brace.
                }
                _ => {
                    if toks[j].kind == Kind::Ident && angle <= 0 && toks[j].s != "for" {
                        ty = Some(toks[j].s.clone());
                    }
                }
            }
            j += 1;
        }
        if j < toks.len() && toks[j].s == "{" {
            if let Some(close) = balanced_close_brace(toks, j) {
                if let Some(ty) = ty {
                    for slot in out.iter_mut().take(close).skip(j + 1) {
                        // Innermost impl wins (impls do not nest in
                        // practice; last writer is the inner one).
                        *slot = Some(ty.clone());
                    }
                }
                i = j + 1;
                continue;
            }
        }
        i = j + 1;
    }
    out
}

/// For every token, the innermost named inline module (`mod name { … }`)
/// it sits under, if any. File-level tokens get `None`.
fn mod_context(toks: &[Tok]) -> Vec<Option<String>> {
    let mut out: Vec<Option<String>> = vec![None; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        let is_mod_kw = toks[i].s == "mod"
            && toks.get(i + 1).is_some_and(|n| n.kind == Kind::Ident)
            && toks.get(i + 2).is_some_and(|n| n.s == "{");
        if !is_mod_kw {
            i += 1;
            continue;
        }
        let name = toks[i + 1].s.clone();
        let open = i + 2;
        if let Some(close) = balanced_close_brace(toks, open) {
            for slot in out.iter_mut().take(close).skip(open + 1) {
                // Forward scan continues inside the block, so nested
                // modules overwrite — innermost wins.
                *slot = Some(name.clone());
            }
        }
        i = open + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parsed(src: &str) -> Parsed {
        parse(&lex(src))
    }

    #[test]
    fn fn_defs_with_bodies_and_attrs() {
        let src = "#[inline]\n#[target_feature(enable = \"avx2,fma\")]\nunsafe fn k(x: &mut [f64]) { x[0] = 0.0; }\nfn plain() {}\ntrait T { fn decl(&self); }\n";
        let p = parsed(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["k", "plain"]);
        assert!(p.fns[0].target_feature);
        assert!(!p.fns[1].target_feature);
    }

    #[test]
    fn attr_does_not_leak_past_unrelated_item() {
        let src = "#[target_feature(enable = \"avx2\")]\nunsafe fn a() {}\nstruct S;\nfn b() {}";
        let p = parsed(src);
        assert!(p.fns[0].target_feature);
        assert!(!p.fns[1].target_feature);
    }

    #[test]
    fn inline_always_and_lane_bounds_are_recorded() {
        let src = "#[inline(always)]\nfn a<V: Lane>(x: V) -> V { x }\n#[inline]\nfn b<V: Copy + Lane, const N: usize>() {}\nfn c(k: LaneKernel) {}\nfn d(x: impl Lane) {}\n#[inline(always)]\nstruct S;\nfn e() {}";
        let p = parsed(src);
        let flags: Vec<(bool, bool)> = p
            .fns
            .iter()
            .map(|f| (f.inline_always, f.lane_generic))
            .collect();
        assert_eq!(
            flags,
            vec![
                (true, true),
                (false, true),
                (false, false),
                (false, true),
                (false, false)
            ]
        );
    }

    #[test]
    fn impl_context_attaches_to_methods() {
        let src = "struct Foo { a: u8 }\nimpl Foo { fn m(&self) {} }\nimpl Clone for Foo { fn clone(&self) -> Foo { Foo { a: self.a } } }\nfn free() {}";
        let p = parsed(src);
        let m = p.fns.iter().find(|f| f.name == "m").unwrap();
        assert_eq!(m.impl_type.as_deref(), Some("Foo"));
        let c = p.fns.iter().find(|f| f.name == "clone").unwrap();
        assert_eq!(c.impl_type.as_deref(), Some("Foo"));
        let free = p.fns.iter().find(|f| f.name == "free").unwrap();
        assert_eq!(free.impl_type, None);
    }

    #[test]
    fn struct_fields_with_types() {
        let src = "pub struct Ck {\n    pub step: u64,\n    pub mesh: StructuredMesh,\n    pub v: Vec<f64>,\n    pub xi: [f64; 3],\n}\nstruct Unit;\nstruct Tup(u8, u8);";
        let p = parsed(src);
        assert_eq!(p.structs.len(), 1);
        let s = &p.structs[0];
        assert_eq!(s.name, "Ck");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["step", "mesh", "v", "xi"]);
        assert_eq!(s.fields[1].type_idents, vec!["StructuredMesh"]);
        assert_eq!(s.fields[2].type_idents, vec!["Vec", "f64"]);
        assert_eq!(s.fields[0].line, 2);
    }

    #[test]
    fn calls_with_qualifier_method_and_args_span() {
        let src = "fn f() { g(); m::h(1, k(2)); x.meth(3); vec![0]; }";
        let p = parsed(src);
        let names: Vec<(&str, Option<&str>, bool)> = p
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.qual.as_deref(), c.method))
            .collect();
        assert_eq!(
            names,
            vec![
                ("g", None, false),
                ("h", Some("m"), false),
                ("k", None, false),
                ("meth", None, true),
            ]
        );
        // All calls attribute to `f`.
        assert!(p.calls.iter().all(|c| c.in_fn == Some(0)));
        // `k(2)` sits inside `h`'s argument span.
        let h = &p.calls[1];
        let k = &p.calls[2];
        assert!(k.tok > h.args.0 && k.tok < h.args.1);
    }

    #[test]
    fn turbofish_calls_detected() {
        let src = "fn f() -> f64 { sum_fixed::<f64>(x) }";
        let p = parsed(src);
        assert_eq!(p.calls.len(), 1);
        assert_eq!(p.calls[0].callee, "sum_fixed");
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let src = "fn f() { vec![1]; panic!(\"x\"); assert_eq!(1, 1); }";
        let p = parsed(src);
        assert!(p.calls.is_empty(), "{:?}", p.calls);
    }

    #[test]
    fn nested_fn_attribution_is_innermost() {
        let src = "fn outer() { inner_call(); fn inner() { deep(); } }";
        let p = parsed(src);
        let outer_idx = p.fns.iter().position(|f| f.name == "outer").unwrap();
        let inner_idx = p.fns.iter().position(|f| f.name == "inner").unwrap();
        let ic = p.calls.iter().find(|c| c.callee == "inner_call").unwrap();
        let dc = p.calls.iter().find(|c| c.callee == "deep").unwrap();
        assert_eq!(ic.in_fn, Some(outer_idx));
        assert_eq!(dc.in_fn, Some(inner_idx));
    }

    #[test]
    fn cfg_test_fns_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}";
        let p = parsed(src);
        assert!(!p.fns.iter().find(|f| f.name == "lib").unwrap().in_test);
        assert!(p.fns.iter().find(|f| f.name == "t").unwrap().in_test);
    }

    #[test]
    fn inline_module_context_tracked() {
        let src = "fn top() {}\nmod avx {\n    fn inner() {}\n    mod deep { fn deepest() {} }\n}";
        let p = parsed(src);
        let f = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert_eq!(f("top").module, None);
        assert_eq!(f("inner").module.as_deref(), Some("avx"));
        assert_eq!(f("deepest").module.as_deref(), Some("deep"));
    }

    #[test]
    fn closure_calls_attribute_to_named_fn() {
        let src = "fn f() { par_ranges(n, |s, e| { helper(s, e); }); }";
        let p = parsed(src);
        let pr = p.calls.iter().find(|c| c.callee == "par_ranges").unwrap();
        let h = p.calls.iter().find(|c| c.callee == "helper").unwrap();
        assert_eq!(h.in_fn, p.fns.iter().position(|f| f.name == "f"));
        assert!(h.tok > pr.args.0 && h.tok < pr.args.1);
    }
}
