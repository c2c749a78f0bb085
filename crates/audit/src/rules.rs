//! The audit rules: token-pattern lints over [`crate::lex::Lexed`] with
//! an explicit, per-rule allowlist-annotation grammar (DESIGN.md §10).
//!
//! | rule              | scope                         | annotation        |
//! |-------------------|-------------------------------|-------------------|
//! | `unsafe-audit`    | whole workspace               | `// SAFETY: <why>`|
//! | `unsafe-confined` | everywhere outside `la`/`ops` | none (hard error) |
//! | `determinism`     | numeric crates, non-test      | `// DETERMINISM-OK: <why>` |
//! | `hot-alloc`       | hot fns in numeric crates     | `// ALLOC-OK: <why>` |
//! | `panic-surface`   | library code, non-test        | `// PANIC-OK: <why>` |
//! | `stale-annotation`| wherever annotations appear   | (delete the annotation) |
//!
//! An annotation attaches to the finding site when it sits on the same
//! line (trailing comment) or on the immediately preceding comment
//! line. Every annotation must carry a non-empty justification after
//! the colon, and an annotation that suppresses nothing is itself a
//! finding — allowlists cannot silently rot.

use crate::lex::{Kind, Lexed, Tok};
use std::collections::BTreeSet;
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
    // v2 call-graph passes (crate::passes).
    HotPathAlloc,
    HotPathPanic,
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
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::HotPathPanic => "hot-path-panic",
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
        Rule::HotPathAlloc,
        Rule::HotPathPanic,
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

/// Analysis result for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Lines whose allowlist annotations suppressed at least one
    /// finding. The stale-annotation pass runs at workspace level
    /// (see [`stale_annotation_findings`]) after the v2 call-graph
    /// passes have recorded their own consumed annotations here.
    pub used_annotations: BTreeSet<u32>,
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
pub const TAG_DETERMINISM: &str = "DETERMINISM-OK:";
pub const TAG_ALLOC: &str = "ALLOC-OK:";
pub const TAG_PANIC: &str = "PANIC-OK:";
const TAG_SAFETY: &str = "SAFETY:";
/// v2 pass tags (crate::passes).
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

/// Function names treated as hot paths by the `hot-alloc` rule: the
/// operator `apply` family, explicit kernels, and the per-linearization
/// assembly paths (`assemble*`, `reassemble*` and the `*_into` element
/// kernels run once per Picard/Newton step — their scratch must be
/// caller-owned and reused). Matches the repo's naming convention for
/// per-iteration code (DESIGN.md §10, §13).
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

/// Parallel combinators whose piece closures must not accumulate with
/// `+=` in a loop (cross-piece accumulation belongs in `par_reduce`,
/// whose left-to-right combine is the blessed fixed-order path).
const PAR_DISPATCHERS: &[&str] = &[
    "par_ranges",
    "par_ranges_aligned",
    "par_chunks_mut",
    "par_blocks_mut",
    "run_on_pool",
];

/// Lex `src` and run the v1 token rules plus the workspace-free part of
/// the stale-annotation pass. Unit-test convenience; the workspace scan
/// lexes once and uses [`analyze_lexed`] + [`stale_annotation_findings`]
/// so the v2 call-graph passes can consume annotations first.
pub fn analyze(relpath: &str, src: &str) -> FileReport {
    let lexed = crate::lex::lex(src);
    let mut rep = analyze_lexed(relpath, &lexed);
    rep.findings.extend(stale_annotation_findings(
        relpath,
        &lexed,
        &rep.used_annotations,
    ));
    rep.findings.sort_by_key(|f| (f.line, f.rule));
    rep
}

/// The v1 token rules over an already-lexed file. The stale-annotation
/// pass is *not* run here — callers merge `used_annotations` across all
/// passes first.
pub fn analyze_lexed(relpath: &str, lexed: &Lexed) -> FileReport {
    let class = classify(relpath);
    let mut rep = FileReport::default();
    let toks = &lexed.toks;

    let test_mask = test_region_mask(toks);
    let fn_names = enclosing_fn_names(toks);
    let mut used_annotations: BTreeSet<u32> = BTreeSet::new();

    // Pass 1: unsafe audit + confinement (test code included: an
    // undocumented unsafe block in a test is still an unsafe block).
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == Kind::Ident && t.s == "unsafe") {
            continue;
        }
        let kind = match toks.get(i + 1) {
            Some(n) if n.s == "fn" => "fn",
            Some(n) if n.s == "impl" => "impl",
            Some(n) if n.s == "trait" => "trait",
            _ => "block",
        };
        let justification = safety_comment(lexed, t.line).unwrap_or_default();
        let ctx = fn_names[i].clone().unwrap_or_default();
        if justification.is_empty() {
            rep.findings.push(Finding {
                rule: Rule::UnsafeAudit,
                file: relpath.to_string(),
                line: t.line,
                msg: format!("`unsafe {kind}` without an attached `// SAFETY:` comment"),
                context: ctx.clone(),
            });
        }
        if !class
            .crate_name
            .as_deref()
            .is_some_and(|c| UNSAFE_CRATES.contains(&c))
        {
            rep.findings.push(Finding {
                rule: Rule::UnsafeConfined,
                file: relpath.to_string(),
                line: t.line,
                msg: format!(
                    "`unsafe` is confined to crates {UNSAFE_CRATES:?}; use a safe abstraction \
                     from `ptatin-la`/`ptatin-ops` instead"
                ),
                context: ctx,
            });
        }
        rep.unsafe_sites.push(UnsafeSite {
            file: relpath.to_string(),
            line: t.line,
            kind,
            justification,
        });
    }

    // Pass 2: determinism lint (numeric crates, non-test code).
    if class.numeric && class.library {
        let par_regions = par_dispatch_loop_regions(toks);
        let mut reduce_regions = call_arg_regions(toks, "par_reduce");
        reduce_regions.extend(call_arg_regions(toks, "par_reduce_mut"));
        for (i, t) in toks.iter().enumerate() {
            if test_mask[i] {
                continue;
            }
            let hit: Option<String> = if t.kind == Kind::Ident
                && matches!(t.s.as_str(), "HashMap" | "HashSet")
            {
                Some(format!(
                    "`{}` iteration order is unspecified; use `BTreeMap`/`BTreeSet` or sorted \
                     vectors in numeric crates",
                    t.s
                ))
            } else if t.kind == Kind::Ident && matches!(t.s.as_str(), "Instant" | "SystemTime") {
                Some(format!(
                    "`{}` makes kernel behaviour time-dependent; timing belongs in `ptatin-prof`",
                    t.s
                ))
            } else if t.s == "."
                && toks.get(i + 1).is_some_and(|n| {
                    n.kind == Kind::Ident && matches!(n.s.as_str(), "sum" | "product")
                })
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.s == "(" || n.s == "::")
                // Blessed: a piece-local fold handed to `par_reduce` runs
                // left-to-right within its range and combines in fixed order.
                && !reduce_regions.contains(&i)
            {
                Some(format!(
                    "bare `.{}()` hides the accumulation order; use a fixed-order loop or \
                     `par_reduce`",
                    toks[i + 1].s
                ))
            } else if t.s == "+=" && par_regions.contains(&i) {
                Some(
                    "`+=` accumulation inside a loop in a parallel dispatch closure; cross-piece \
                     reductions belong in `par_reduce`"
                        .to_string(),
                )
            } else {
                None
            };
            if let Some(msg) = hit {
                flag_unless_annotated(
                    &mut rep.findings,
                    &mut used_annotations,
                    lexed,
                    relpath,
                    t.line,
                    Rule::Determinism,
                    TAG_DETERMINISM,
                    &msg,
                    fn_names[i].as_deref().unwrap_or(""),
                );
            }
        }
    }

    // Pass 3: hot-path allocation lint (numeric crates, non-test code,
    // inside apply/kernel functions).
    if class.numeric && class.library {
        for (i, t) in toks.iter().enumerate() {
            if test_mask[i] {
                continue;
            }
            let Some(fn_name) = fn_names[i].as_deref() else {
                continue;
            };
            if !is_hot_fn(fn_name) {
                continue;
            }
            let hit: Option<&str> = if t.kind == Kind::Ident
                && matches!(t.s.as_str(), "Vec" | "Box")
                && toks.get(i + 1).is_some_and(|n| n.s == "::")
                && toks.get(i + 2).is_some_and(|n| n.s == "new")
            {
                Some(if t.s == "Vec" { "Vec::new" } else { "Box::new" })
            } else if t.kind == Kind::Ident
                && t.s == "vec"
                && toks.get(i + 1).is_some_and(|n| n.s == "!")
            {
                Some("vec!")
            } else if t.s == "."
                && toks.get(i + 1).is_some_and(|n| {
                    n.kind == Kind::Ident && matches!(n.s.as_str(), "to_vec" | "clone")
                })
                && toks.get(i + 2).is_some_and(|n| n.s == "(")
            {
                if toks[i + 1].s == "to_vec" {
                    Some(".to_vec()")
                } else {
                    Some(".clone()")
                }
            } else {
                None
            };
            if let Some(what) = hit {
                let msg = format!(
                    "`{what}` allocates inside hot function `{fn_name}`; hoist to setup or a \
                     cached scratch (the PR-4 MaskScratch pattern)"
                );
                flag_unless_annotated(
                    &mut rep.findings,
                    &mut used_annotations,
                    lexed,
                    relpath,
                    t.line,
                    Rule::HotAlloc,
                    TAG_ALLOC,
                    &msg,
                    fn_name,
                );
            }
        }
    }

    // Pass 4: panic-surface lint (library code, non-test).
    if class.library {
        for (i, t) in toks.iter().enumerate() {
            if test_mask[i] || t.kind != Kind::Ident {
                continue;
            }
            let hit: Option<String> = if matches!(t.s.as_str(), "unwrap" | "expect")
                && i > 0
                && toks[i - 1].s == "."
                && toks.get(i + 1).is_some_and(|n| n.s == "(")
            {
                Some(format!("`.{}()` in library code", t.s))
            } else if matches!(
                t.s.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && toks.get(i + 1).is_some_and(|n| n.s == "!")
                // `core::panic::…` paths and `std::panic` qualifiers are
                // not macro invocations.
                && (i == 0 || toks[i - 1].s != "::")
            {
                Some(format!("`{}!` in library code", t.s))
            } else {
                None
            };
            if let Some(what) = hit {
                let msg = format!("{what}; return a typed error or justify with `// PANIC-OK:`");
                flag_unless_annotated(
                    &mut rep.findings,
                    &mut used_annotations,
                    lexed,
                    relpath,
                    t.line,
                    Rule::PanicSurface,
                    TAG_PANIC,
                    &msg,
                    fn_names[i].as_deref().unwrap_or(""),
                );
            }
        }
    }

    rep.findings.sort_by_key(|f| (f.line, f.rule));
    rep.used_annotations = used_annotations;
    rep
}

/// The stale-annotation pass: an annotation line that suppressed no
/// finding candidate means the code below it got cleaned up (or the
/// annotation is on the wrong line) — delete it. Runs last, after the
/// v1 rules *and* the v2 call-graph passes have recorded every line
/// whose annotation earned its keep.
pub fn stale_annotation_findings(
    relpath: &str,
    lexed: &Lexed,
    used_annotations: &BTreeSet<u32>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (&line, text) in &lexed.comment_on {
        if !is_annotation_comment(text) {
            continue;
        }
        for tag in ALL_TAGS {
            if text.contains(tag) && !used_annotations.contains(&line) {
                out.push(Finding {
                    rule: Rule::StaleAnnotation,
                    file: relpath.to_string(),
                    line,
                    msg: format!("`// {tag}` annotation suppresses nothing; remove it"),
                    context: tag.trim_end_matches(':').to_string(),
                });
            }
        }
    }
    out
}

/// Push a finding unless an annotation with `tag` attaches to `line`
/// (same line, or the contiguous comment block immediately above).
/// Consumed annotations are recorded so the stale-annotation pass can
/// flag the leftovers.
#[allow(clippy::too_many_arguments)]
fn flag_unless_annotated(
    findings: &mut Vec<Finding>,
    used: &mut BTreeSet<u32>,
    lexed: &Lexed,
    relpath: &str,
    line: u32,
    rule: Rule,
    tag: &str,
    msg: &str,
    context: &str,
) {
    if let Some(ann_line) = attached_annotation(lexed, line, tag) {
        used.insert(ann_line);
        return;
    }
    findings.push(Finding {
        rule,
        file: relpath.to_string(),
        line,
        msg: msg.to_string(),
        context: context.to_string(),
    });
}

/// Find an annotation containing `tag` followed by a non-empty
/// justification, attached to code line `line`: trailing on the same
/// line, or in the comment/attribute block immediately above.
pub fn attached_annotation(lexed: &Lexed, line: u32, tag: &str) -> Option<u32> {
    let has = |l: u32| {
        lexed
            .comment_on
            .get(&l)
            .is_some_and(|c| tag_with_reason(c, tag))
    };
    if has(line) {
        return Some(line);
    }
    let mut l = line.saturating_sub(1);
    while l > 0 {
        if has(l) {
            return Some(l);
        }
        let pure_comment = lexed.comment_lines.contains(&l) && !lexed.code_lines.contains(&l);
        let attr = lexed.attr_lines.contains(&l);
        if !(pure_comment || attr) {
            return None;
        }
        l -= 1;
    }
    None
}

/// Is this comment an *annotation* carrier? Doc comments (`///`,
/// `//!`) are documentation — a lint table in a doc comment must not
/// read as an allowlist entry (nor as a stale one).
fn is_annotation_comment(comment: &str) -> bool {
    let c = comment.trim_start();
    !(c.starts_with("///") || c.starts_with("//!"))
}

/// `tag` present and followed by a justification of at least three
/// non-whitespace characters (an empty "why" does not count).
fn tag_with_reason(comment: &str, tag: &str) -> bool {
    is_annotation_comment(comment)
        && comment
            .find(tag)
            .map(|p| comment[p + tag.len()..].trim())
            .is_some_and(|why| why.len() >= 3)
}

/// Find the `// SAFETY:` comment attached to an unsafe site at `line`:
/// trailing on the line itself or in the contiguous comment/attribute
/// block above. Returns the justification text (first line only).
fn safety_comment(lexed: &Lexed, line: u32) -> Option<String> {
    let extract = |l: u32| -> Option<String> {
        let c = lexed.comment_on.get(&l)?;
        if !is_annotation_comment(c) {
            return None;
        }
        let p = c.find(TAG_SAFETY)?;
        let why = c[p + TAG_SAFETY.len()..]
            .trim()
            .trim_end_matches("*/")
            .trim();
        if why.len() >= 3 {
            Some(why.to_string())
        } else {
            None
        }
    };
    if let Some(j) = extract(line) {
        return Some(j);
    }
    let mut l = line.saturating_sub(1);
    while l > 0 {
        if let Some(j) = extract(l) {
            return Some(j);
        }
        let pure_comment = lexed.comment_lines.contains(&l) && !lexed.code_lines.contains(&l);
        let attr = lexed.attr_lines.contains(&l);
        if !(pure_comment || attr) {
            return None;
        }
        l -= 1;
    }
    None
}

/// Token-index mask of `#[cfg(test)] mod …` regions (and any other
/// module under a `cfg` attribute mentioning `test`, e.g.
/// `#[cfg(all(test, feature = "x"))]`).
fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].s != "#" || toks.get(i + 1).map(|t| t.s.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Scan the attribute's balanced brackets.
        let attr_start = i + 1;
        let mut depth = 0i32;
        let mut j = attr_start;
        let mut saw_cfg = false;
        let mut saw_test = false;
        while j < toks.len() {
            match toks[j].s.as_str() {
                "[" | "(" => depth += 1,
                "]" | ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "cfg" => saw_cfg = true,
                "test" => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        let attr_end = j;
        if !(saw_cfg && saw_test) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then require `mod name {`.
        let mut k = attr_end + 1;
        while k < toks.len() && toks[k].s == "#" {
            let mut d = 0i32;
            k += 1;
            while k < toks.len() {
                match toks[k].s.as_str() {
                    "[" | "(" => d += 1,
                    "]" | ")" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let is_mod = k < toks.len()
            && (toks[k].s == "mod"
                || (toks[k].s == "pub" && toks.get(k + 1).is_some_and(|t| t.s == "mod")));
        if !is_mod {
            i = attr_end + 1;
            continue;
        }
        // Find the region's opening brace and mask to its close.
        while k < toks.len() && toks[k].s != "{" && toks[k].s != ";" {
            k += 1;
        }
        if k >= toks.len() || toks[k].s == ";" {
            i = attr_end + 1;
            continue;
        }
        let mut brace = 0i32;
        let open = k;
        while k < toks.len() {
            if toks[k].s == "{" {
                brace += 1;
            } else if toks[k].s == "}" {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            }
            k += 1;
        }
        for m in mask.iter_mut().take(k.min(toks.len() - 1) + 1).skip(open) {
            *m = true;
        }
        i = k + 1;
    }
    mask
}

/// For every token, the name of the innermost enclosing `fn` (if any).
/// Closures do not shadow the enclosing function's name.
fn enclosing_fn_names(toks: &[Tok]) -> Vec<Option<String>> {
    let mut out: Vec<Option<String>> = vec![None; toks.len()];
    // Stack of (fn_name, brace_depth_at_body_open).
    let mut stack: Vec<(String, i32)> = Vec::new();
    // A declared fn waiting for its body brace (or `;` for trait fns).
    let mut pending: Option<String> = None;
    // Paren/bracket depth inside a pending signature, so the `;` in
    // `fn f(x: [u8; 3]);` does not clear `pending` prematurely.
    let mut sig_depth = 0i32;
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        match t.s.as_str() {
            "fn" => {
                if let Some(n) = toks.get(i + 1) {
                    if n.kind == Kind::Ident {
                        pending = Some(n.s.clone());
                        sig_depth = 0;
                    }
                }
            }
            "(" | "[" if pending.is_some() => sig_depth += 1,
            ")" | "]" if pending.is_some() => sig_depth -= 1,
            // Bodyless declaration (trait method / extern fn).
            ";" if pending.is_some() && sig_depth == 0 => pending = None,
            "{" => {
                depth += 1;
                if let Some(name) = pending.take() {
                    stack.push((name, depth));
                }
            }
            "}" => {
                if let Some(&(_, d)) = stack.last() {
                    if d == depth {
                        stack.pop();
                    }
                }
                depth -= 1;
            }
            _ => {}
        }
        out[i] = stack.last().map(|(n, _)| n.clone());
    }
    out
}

/// Token indices inside the argument parentheses of any call to `callee`.
/// Used to bless `.sum()` folds handed to the fixed-order `par_reduce` and
/// `par_reduce_mut`.
fn call_arg_regions(toks: &[Tok], callee: &str) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == Kind::Ident && t.s == callee) {
            continue;
        }
        if toks.get(i + 1).map(|t| t.s.as_str()) != Some("(") {
            continue;
        }
        if i > 0 && toks[i - 1].s == "fn" {
            continue;
        }
        let mut paren = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].s.as_str() {
                "(" => paren += 1,
                ")" => {
                    paren -= 1;
                    if paren == 0 {
                        break;
                    }
                }
                _ => {}
            }
            out.insert(j);
            j += 1;
        }
    }
    out
}

/// Token indices of `+=`-relevant regions: inside a `for`/`while`/`loop`
/// body that is itself inside the argument parentheses of a
/// non-reducing parallel dispatcher call ([`PAR_DISPATCHERS`]).
fn par_dispatch_loop_regions(toks: &[Tok]) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == Kind::Ident && PAR_DISPATCHERS.contains(&t.s.as_str())) {
            continue;
        }
        // Skip `::`-qualified path segments and `fn par_ranges` defs:
        // we want the *call*, which is followed by `(`.
        let mut j = i + 1;
        // Allow turbofish-free generic path end: `par::par_ranges(`.
        if toks.get(j).map(|t| t.s.as_str()) != Some("(") {
            continue;
        }
        if i > 0 && toks[i - 1].s == "fn" {
            continue;
        }
        // Balanced scan of the call's argument list.
        let mut paren = 0i32;
        let call_open = j;
        while j < toks.len() {
            match toks[j].s.as_str() {
                "(" => paren += 1,
                ")" => {
                    paren -= 1;
                    if paren == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let call_close = j;
        // Within the argument list, mark loop bodies.
        let mut k = call_open;
        while k < call_close {
            if toks[k].kind == Kind::Ident && matches!(toks[k].s.as_str(), "for" | "while" | "loop")
            {
                // Find the loop body's `{` and mark to its matching `}`.
                let mut m = k + 1;
                while m < call_close && toks[m].s != "{" {
                    m += 1;
                }
                let mut brace = 0i32;
                let body_open = m;
                while m < call_close {
                    if toks[m].s == "{" {
                        brace += 1;
                    } else if toks[m].s == "}" {
                        brace -= 1;
                        if brace == 0 {
                            break;
                        }
                    }
                    m += 1;
                }
                for idx in body_open..=m.min(call_close) {
                    out.insert(idx);
                }
                k = m + 1;
            } else {
                k += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        analyze(path, src).findings
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
        let hot = "impl Op { fn apply(&self, x: &[f64], y: &mut [f64]) { let t = x.to_vec(); } }";
        let f = findings("crates/ops/src/x.rs", hot);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HotAlloc);
        let cold = "fn setup(x: &[f64]) { let t = x.to_vec(); }";
        assert!(findings("crates/ops/src/x.rs", cold).is_empty());
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
            let f = findings("crates/fem/src/x.rs", &src);
            assert_eq!(f.len(), 1, "{name} not treated as hot");
            assert_eq!(f[0].rule, Rule::HotAlloc);
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
        let f = findings("crates/ops/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
    }
}
