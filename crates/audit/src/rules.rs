//! The audit's vocabulary: rule ids, file classes, the token patterns
//! the rules match, and the allowlist-annotation grammar (DESIGN.md §10).
//! [`crate::passes`] runs every rule over the lexed and parsed files;
//! [`analyze`] runs the same audit over one in-memory file.
//!
//! | rule               | scope                                   | contract                                        | annotation |
//! |--------------------|-----------------------------------------|-------------------------------------------------|------------|
//! | `unsafe-audit`     | whole workspace, tests included         | every `unsafe` carries a justification          | `// SAFETY: <why>` |
//! | `unsafe-confined`  | everywhere outside `la`/`ops`           | no `unsafe` at all                              | none (hard error) |
//! | `determinism`      | numeric library code                    | no hash maps, clocks, bare `.sum()`, or `+=` in a loop of a dispatch closure | `// DETERMINISM-OK: <why>` |
//! | `hot-alloc`        | hot entries of numeric library code and every library fn they reach | no allocation              | `// ALLOC-OK: <why>` |
//! | `panic-surface`    | library code                            | no `.unwrap()`, `.expect()` or panic macros     | `// PANIC-OK: <why>` |
//! | `nested-dispatch`  | library code outside the pool           | no dispatch reachable from a dispatch closure   | `// DISPATCH-OK: <why>` |
//! | `simd-parity`      | SIMD kernels of library code            | `#[target_feature]` only in `la/src/simd.rs`; every fn generic over `Lane` `#[inline(always)]` | `// SIMD-OK: <why>` |
//! | `ckpt-coverage`    | `Checkpoint` of the `ckpt` crate        | every field named by `to_bytes` and `from_bytes` | `// CKPT-OK: <why>` |
//! | `prof-scope`       | hot entries of numeric library code     | a `prof::scope` in or above their call graph    | `// PROF-OK: <why>` |
//! | `stale-annotation` | wherever annotations appear             | every annotation suppresses a finding           | (delete the annotation) |
//!
//! Library code excludes `#[cfg(test)]` modules. An annotation attaches
//! to the finding site when it sits on the same line (trailing comment)
//! or in the comment/attribute block immediately above. Every annotation
//! must carry a justification after the colon, and an annotation that
//! suppresses nothing is itself a finding — allowlists cannot silently
//! rot.

use crate::lex::{Kind, Lexed, Tok};
use crate::parse::CallSite;
use std::fmt;

/// Crates whose kernels carry the paper's determinism contract
/// (bitwise thread-invariance, fixed float-fusion order).
pub const NUMERIC_CRATES: &[&str] = &["la", "ops", "mg", "fem", "mpm"];

/// The only crates allowed to contain `unsafe` code.
pub const UNSAFE_CRATES: &[&str] = &["la", "ops"];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    UnsafeAudit,
    UnsafeConfined,
    Determinism,
    HotAlloc,
    PanicSurface,
    StaleAnnotation,
    NestedDispatch,
    SimdParity,
    CkptCoverage,
    ProfScope,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::UnsafeConfined => "unsafe-confined",
            Rule::Determinism => "determinism",
            Rule::HotAlloc => "hot-alloc",
            Rule::PanicSurface => "panic-surface",
            Rule::StaleAnnotation => "stale-annotation",
            Rule::NestedDispatch => "nested-dispatch",
            Rule::SimdParity => "simd-parity",
            Rule::CkptCoverage => "ckpt-coverage",
            Rule::ProfScope => "prof-scope",
        }
    }

    /// Every rule id, in report order.
    pub const ALL: &'static [Rule] = &[
        Rule::UnsafeAudit,
        Rule::UnsafeConfined,
        Rule::Determinism,
        Rule::HotAlloc,
        Rule::PanicSurface,
        Rule::StaleAnnotation,
        Rule::NestedDispatch,
        Rule::SimdParity,
        Rule::CkptCoverage,
        Rule::ProfScope,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: u32,
    pub msg: String,
    /// Line-number-free anchor used by the baseline file: the enclosing
    /// function, flagged field, or annotation tag. Stable across edits
    /// that merely move code within a file.
    pub context: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// One `unsafe` site for the machine-readable inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub file: String,
    pub line: u32,
    /// `"block"`, `"fn"`, `"impl"`, or `"trait"`.
    pub kind: &'static str,
    /// Text of the attached `// SAFETY:` comment (empty when missing,
    /// which is itself an `unsafe-audit` finding).
    pub justification: String,
}

/// How a path participates in each rule, derived purely from the
/// repo-relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// `crates/<name>/…` member name; `None` for the root `src/` tree.
    pub crate_name: Option<String>,
    /// Library code: not a binary target, bench, example, or test file.
    pub library: bool,
    /// Inside one of [`NUMERIC_CRATES`].
    pub numeric: bool,
}

pub fn classify(relpath: &str) -> FileClass {
    let p = relpath.replace('\\', "/");
    let parts: Vec<&str> = p.split('/').collect();
    let crate_name = if parts.len() >= 2 && parts[0] == "crates" {
        Some(parts[1].to_string())
    } else {
        None
    };
    let in_src = parts.contains(&"src");
    let non_library_dir = parts
        .iter()
        .any(|d| matches!(*d, "bin" | "benches" | "examples" | "tests" | "fixtures"));
    let is_bench_crate = crate_name.as_deref() == Some("bench");
    let numeric = crate_name
        .as_deref()
        .is_some_and(|c| NUMERIC_CRATES.contains(&c));
    FileClass {
        library: in_src && !non_library_dir && !is_bench_crate,
        numeric,
        crate_name,
    }
}

/// Annotation tags, checked in comments attached to finding sites.
pub(crate) const TAG_SAFETY: &str = "SAFETY:";
pub const TAG_DETERMINISM: &str = "DETERMINISM-OK:";
pub const TAG_ALLOC: &str = "ALLOC-OK:";
pub const TAG_PANIC: &str = "PANIC-OK:";
pub const TAG_DISPATCH: &str = "DISPATCH-OK:";
pub const TAG_SIMD: &str = "SIMD-OK:";
pub const TAG_CKPT: &str = "CKPT-OK:";
pub const TAG_PROF: &str = "PROF-OK:";

/// Every allowlist tag the stale-annotation pass knows about.
pub const ALL_TAGS: &[&str] = &[
    TAG_DETERMINISM,
    TAG_ALLOC,
    TAG_PANIC,
    TAG_DISPATCH,
    TAG_SIMD,
    TAG_CKPT,
    TAG_PROF,
];

/// Hot entry points of the `hot-alloc` rule: the operator `apply`
/// family, explicit kernels, and the per-linearization assembly paths
/// (`assemble*`, `reassemble*` and the `*_into` element kernels run once
/// per Picard/Newton step — their scratch must be caller-owned and
/// reused). Matches the repo's naming convention for per-iteration code
/// (DESIGN.md §10, §13).
pub fn is_hot_fn(name: &str) -> bool {
    name == "apply"
        || name.starts_with("apply_")
        || name.ends_with("_apply")
        || name.contains("kernel")
        || name.starts_with("spmv")
        || name.starts_with("assemble")
        || name.starts_with("reassemble")
        || (name.starts_with("element_") && name.ends_with("_into"))
        || name.ends_with("numeric_scalar_into")
        || name.ends_with("numeric_batched_into")
}

/// Dispatch entry points of `ptatin-la::par`, each with whether it is a
/// fixed-order reduction (whose left-to-right combine is the blessed
/// place for cross-piece accumulation).
const DISPATCHERS: &[(&str, bool)] = &[
    ("par_ranges", false),
    ("par_ranges_aligned", false),
    ("par_chunks_mut", false),
    ("par_blocks_mut", false),
    ("run_on_pool", false),
    ("par_reduce", true),
    ("par_reduce_mut", true),
];

/// `Some(is_reduction)` when `c` hands work to the worker pool: a bare
/// or path call to one of [`DISPATCHERS`] (unambiguous names in this
/// workspace), or `par::dispatch`.
pub(crate) fn dispatch_call(c: &CallSite) -> Option<bool> {
    if c.callee == "dispatch" && c.qual.as_deref() == Some("par") {
        return Some(false);
    }
    if c.method {
        return None;
    }
    DISPATCHERS
        .iter()
        .find(|(name, _)| *name == c.callee)
        .map(|&(_, reduce)| reduce)
}

/// The allocation starting at token `i`, if any: `Vec::new`,
/// `Box::new`, `vec!`, `.to_vec()` or `.clone()`.
pub(crate) fn alloc_at(toks: &[Tok], i: usize) -> Option<String> {
    let t = &toks[i];
    let next = |k: usize| toks.get(i + k).map_or("", |n| n.s.as_str());
    if t.kind == Kind::Ident
        && matches!(t.s.as_str(), "Vec" | "Box")
        && next(1) == "::"
        && next(2) == "new"
    {
        Some(format!("{}::new", t.s))
    } else if t.kind == Kind::Ident && t.s == "vec" && next(1) == "!" {
        Some("vec!".to_string())
    } else if t.s == "."
        && toks.get(i + 1).is_some_and(|n| n.kind == Kind::Ident)
        && matches!(next(1), "to_vec" | "clone")
        && next(2) == "("
    {
        Some(format!(".{}()", next(1)))
    } else {
        None
    }
}

/// The panic at token `i`, if any: `.unwrap()`, `.expect(…)`, or a
/// `panic!`/`unreachable!`/`todo!`/`unimplemented!` invocation
/// (`std::panic::…` paths are not invocations).
pub(crate) fn panic_at(toks: &[Tok], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind != Kind::Ident {
        return None;
    }
    let prev = i.checked_sub(1).map_or("", |p| toks[p].s.as_str());
    let next = toks.get(i + 1).map_or("", |n| n.s.as_str());
    if matches!(t.s.as_str(), "unwrap" | "expect") && prev == "." && next == "(" {
        Some(format!(".{}()", t.s))
    } else if matches!(
        t.s.as_str(),
        "panic" | "unreachable" | "todo" | "unimplemented"
    ) && next == "!"
        && prev != "::"
    {
        Some(format!("{}!", t.s))
    } else {
        None
    }
}

/// Run the whole audit over one in-memory file: the same pipeline as
/// [`crate::scan_workspace`], with a call graph of this file alone.
pub fn analyze(relpath: &str, src: &str) -> crate::Report {
    crate::audit(
        &[crate::SourceFile::new(relpath, src)],
        &crate::graph::CrateDeps::new(),
    )
}

/// The annotation with `tag` attached to code line `line` — trailing on
/// the same line, or in the comment/attribute block immediately above —
/// as `(annotation line, justification)`. A justification shorter than
/// three characters does not count.
pub fn attached_annotation(lexed: &Lexed, line: u32, tag: &str) -> Option<(u32, String)> {
    let reason = |l: u32| -> Option<String> {
        let c = lexed
            .comment_on
            .get(&l)
            .filter(|c| is_annotation_comment(c))?;
        let why = c[c.find(tag)? + tag.len()..]
            .trim()
            .trim_end_matches("*/")
            .trim();
        (why.len() >= 3).then(|| why.to_string())
    };
    for l in (1..=line).rev() {
        if let Some(why) = reason(l) {
            return Some((l, why));
        }
        let pure_comment = lexed.comment_lines.contains(&l) && !lexed.code_lines.contains(&l);
        if l < line && !(pure_comment || lexed.attr_lines.contains(&l)) {
            return None;
        }
    }
    None
}

/// Is this comment an *annotation* carrier? Doc comments (`///`,
/// `//!`) are documentation — a lint table in a doc comment must not
/// read as an allowlist entry (nor as a stale one).
pub(crate) fn is_annotation_comment(comment: &str) -> bool {
    let c = comment.trim_start();
    !(c.starts_with("///") || c.starts_with("//!"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        analyze(path, src).findings
    }

    /// `(rule, line)` of every finding, in report order.
    fn anchors(path: &str, src: &str) -> Vec<(Rule, u32)> {
        findings(path, src)
            .iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn classify_paths() {
        assert!(classify("crates/la/src/par.rs").numeric);
        assert!(classify("crates/la/src/par.rs").library);
        assert!(!classify("crates/bench/src/lib.rs").library);
        assert!(!classify("crates/core/src/lib.rs").numeric);
        assert!(classify("crates/core/src/lib.rs").library);
        assert!(!classify("crates/bench/src/bin/table1.rs").library);
        assert!(!classify("crates/la/src/bin/tool.rs").library);
        assert!(classify("src/lib.rs").library);
        assert_eq!(classify("src/lib.rs").crate_name, None);
    }

    #[test]
    fn unsafe_without_safety_is_flagged() {
        let src = "pub fn f(p: *mut u8) { unsafe { *p = 0; } }";
        let f = findings("crates/la/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnsafeAudit);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unsafe_with_safety_above_passes_and_is_inventoried() {
        let src = "pub fn f(p: *mut u8) {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p = 0; }\n}";
        let rep = analyze("crates/la/src/x.rs", src);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.unsafe_sites.len(), 1);
        assert_eq!(rep.unsafe_sites[0].kind, "block");
        assert_eq!(rep.unsafe_sites[0].line, 3);
        assert!(rep.unsafe_sites[0]
            .justification
            .contains("caller guarantees"));
    }

    #[test]
    fn unsafe_outside_la_ops_is_confinement_violation() {
        let src = "// SAFETY: fine\nunsafe impl Send for X {}";
        let f = findings("crates/mg/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnsafeConfined);
    }

    #[test]
    fn unsafe_kinds_detected() {
        let src = "// SAFETY: a b c\nunsafe fn f() {}\n// SAFETY: a b c\nunsafe impl Send for X {}\n// SAFETY: a b c\nunsafe trait T {}\n";
        let rep = analyze("crates/ops/src/x.rs", src);
        let kinds: Vec<&str> = rep.unsafe_sites.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec!["fn", "impl", "trait"]);
    }

    #[test]
    fn determinism_hashmap_flagged_in_numeric_crate_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(findings("crates/ops/src/x.rs", src).len(), 1);
        assert_eq!(findings("crates/core/src/x.rs", src).len(), 0);
    }

    #[test]
    fn determinism_annotation_suppresses() {
        let src =
            "// DETERMINISM-OK: keys sorted before iteration\nuse std::collections::HashMap;\n";
        assert!(findings("crates/ops/src/x.rs", src).is_empty());
    }

    #[test]
    fn bare_sum_flagged_including_turbofish() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().sum() }\nfn g(v: &[f64]) -> f64 { v.iter().sum::<f64>() }";
        let f = findings("crates/la/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::Determinism));
    }

    #[test]
    fn plus_eq_in_par_dispatch_loop_flagged_but_serial_loop_ok() {
        let serial = "fn f(v: &[f64]) -> f64 { let mut s = 0.0; for x in v { s += x; } s }";
        assert!(findings("crates/la/src/x.rs", serial).is_empty());
        let par = "fn f() { par_ranges(n, |_i, s, e| { for i in s..e { acc += w[i]; } }); }";
        let f = findings("crates/la/src/x.rs", par);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Determinism);
    }

    #[test]
    fn par_reduce_fold_plus_eq_is_blessed() {
        let src = "fn f() -> f64 { par_reduce(n, 0.0, |s, e| { let mut a = 0.0; for i in s..e { a += w[i]; } a }, |x, y| x + y) }";
        assert!(findings("crates/la/src/x.rs", src).is_empty());
    }

    #[test]
    fn sum_inside_par_reduce_is_blessed_but_bare_sum_is_not() {
        let blessed =
            "fn f() -> f64 { par_reduce(n, 0.0, |s, e| x[s..e].iter().sum::<f64>(), |a, b| a + b) }";
        assert!(findings("crates/la/src/x.rs", blessed).is_empty());
        let blessed_mut =
            "fn f() -> f64 { par_reduce_mut(y, 0.0, |s, b| b.iter().sum::<f64>(), |a, b| a + b) }";
        assert!(findings("crates/la/src/x.rs", blessed_mut).is_empty());
        let bare = "fn f(v: &[f64]) -> f64 { v.iter().sum() }";
        let f = findings("crates/la/src/x.rs", bare);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Determinism);
    }

    #[test]
    fn hot_alloc_flagged_in_apply_only() {
        // `apply` is also a prof-scope entry, and this one is untimed.
        let hot = "impl Op { fn apply(&self, x: &[f64], y: &mut [f64]) { let t = x.to_vec(); } }";
        assert_eq!(
            anchors("crates/ops/src/x.rs", hot),
            vec![(Rule::HotAlloc, 1), (Rule::ProfScope, 1)]
        );
        let cold = "fn setup(x: &[f64]) { let t = x.to_vec(); }";
        assert!(findings("crates/ops/src/x.rs", cold).is_empty());
        // A helper the hot entry calls is on the hot path too.
        let reached =
            "fn apply(x: &[f64]) { helper(x); }\nfn helper(x: &[f64]) { let t = x.to_vec(); }";
        let f = findings("crates/ops/src/x.rs", reached);
        let got: Vec<(Rule, u32)> = f.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(got, vec![(Rule::ProfScope, 1), (Rule::HotAlloc, 2)]);
        assert!(f[1].msg.contains("`apply -> helper`"), "{}", f[1].msg);
    }

    #[test]
    fn hot_alloc_covers_assembly_family() {
        // The per-linearization assembly paths are hot: `assemble*`,
        // `reassemble*` and the `*_into` element/numeric kernels.
        for name in [
            "assemble_viscous_batched",
            "reassemble_into",
            "element_viscous_matrix_into",
            "numeric_scalar_into",
            "viscous_numeric_batched_into",
        ] {
            let src = format!("fn {name}() {{ let t = vec![0.0; 8]; }}");
            let mut want = vec![(Rule::HotAlloc, 1)];
            if name.starts_with("assemble") || name.starts_with("reassemble") {
                want.push((Rule::ProfScope, 1)); // an untimed prof-scope entry
            }
            assert_eq!(
                anchors("crates/fem/src/x.rs", &src),
                want,
                "{name} not treated as hot"
            );
        }
        // Symbolic-phase constructors stay cold: they run once per mesh.
        for name in ["build", "element_corner_coords", "assembly_order"] {
            let src = format!("fn {name}() {{ let t = vec![0.0; 8]; }}");
            assert!(
                findings("crates/fem/src/x.rs", &src).is_empty(),
                "{name} wrongly treated as hot"
            );
        }
    }

    #[test]
    fn hot_alloc_variants_and_annotation() {
        let src =
            "fn lane_kernel() { let a = Vec::new(); let b = vec![0.0; 8]; let c = Box::new(0); }";
        assert_eq!(findings("crates/ops/src/x.rs", src).len(), 3);
        let ok = "fn lane_kernel() {\n    // ALLOC-OK: one-time lazily cached scratch\n    let a = Vec::new();\n}";
        assert!(findings("crates/ops/src/x.rs", ok).is_empty());
    }

    #[test]
    fn panic_surface_in_library_code() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        let f = findings("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::PanicSurface);
        // Not in the bench crate, bins, or tests dirs.
        assert!(findings("crates/bench/src/lib.rs", src).is_empty());
        assert!(findings("crates/core/src/bin/tool.rs", src).is_empty());
        assert!(findings("tests/integration.rs", src).is_empty());
    }

    #[test]
    fn panic_macros_flagged_but_qualified_paths_ignored() {
        let src = "fn f() { panic!(\"boom\"); }\nfn g() { std::panic::catch_unwind(|| 1).ok(); }";
        let f = findings("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        let src = "fn f(m: &Mutex<u8>) -> u8 { *m.lock().unwrap_or_else(|e| e.into_inner()) }";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); panic!(); }\n}";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn stale_annotation_flagged() {
        let src = "// PANIC-OK: this used to guard an unwrap\nfn f() -> u8 { 0 }";
        let f = findings("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::StaleAnnotation);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn annotation_without_reason_does_not_suppress() {
        let src = "// PANIC-OK:\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        let f = findings("crates/core/src/x.rs", src);
        // The unwrap stays flagged, and the reason-less annotation is
        // itself stale (it suppressed nothing).
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.rule == Rule::PanicSurface));
        assert!(f.iter().any(|x| x.rule == Rule::StaleAnnotation));
    }

    #[test]
    fn trailing_annotation_on_same_line() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // PANIC-OK: checked by caller";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn enclosing_fn_tracking_handles_nested_items() {
        let src = "fn outer() { fn apply(x: &[f64]) { let v = x.to_vec(); } }";
        assert_eq!(
            anchors("crates/ops/src/x.rs", src),
            vec![(Rule::HotAlloc, 1), (Rule::ProfScope, 1)]
        );
        // The allocation belongs to `apply`, not to `outer`.
        assert_eq!(findings("crates/ops/src/x.rs", src)[0].context, "apply");
    }
}
