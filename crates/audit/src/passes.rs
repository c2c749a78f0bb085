//! The audit pipeline: every rule of the table in [`crate::rules`], run
//! over the lexed and parsed files and one workspace call graph.
//!
//! Per-token rules (`unsafe-audit`/`unsafe-confined`, `determinism`,
//! `panic-surface`) walk each file's tokens with the parser's test
//! regions and fn ownership; the call-graph rules (`hot-alloc`,
//! `nested-dispatch`, `simd-parity`, `ckpt-coverage`, `prof-scope`)
//! follow [`CallGraph`] edges. Every suppression goes through
//! [`rules::attached_annotation`] and is recorded, so `stale-annotation`
//! runs last over what the others consumed.

use crate::graph::CallGraph;
use crate::lex::Kind;
use crate::rules::{self, Finding, Rule, UnsafeSite};
use crate::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Result of running every rule.
#[derive(Debug, Default)]
pub struct PassOutput {
    pub findings: Vec<Finding>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub stats: PassStats,
}

/// Pass-level statistics for the `audit-v2` inventory document.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassStats {
    /// Hot entry points seeding the `hot-alloc` reachability.
    pub hot_entries: usize,
    /// Pool-dispatch call sites outside the pool implementation.
    pub dispatch_sites: usize,
    /// `#[target_feature]` fns of library code.
    pub simd_kernels: usize,
    /// Bitwise equivalence tests (test fns named `*bitwise*`/`*bits*`).
    pub bitwise_tests: usize,
}

/// The pool implementation itself: dispatch calls inside it are the
/// mechanism, not a nesting violation, and reachability must not
/// propagate through its internals.
const POOL_IMPL: &str = "crates/la/src/par.rs";

/// Hot *entry points* for the prof-scope pass: the operator-apply and
/// assembly surfaces whose timings the bench tables and the autotuner
/// attribute. Narrower than [`rules::is_hot_fn`] — element-level `_into`
/// kernels and `*kernel*` lane bodies are internals of these entries and
/// are timed through them. The material-point pipeline's per-call entry
/// points are listed by name (`mpm.*` scopes: one per call, never per
/// point).
fn is_prof_entry(name: &str) -> bool {
    name == "apply"
        || name.starts_with("apply_")
        || name.starts_with("spmv")
        || name.starts_with("assemble")
        || name.starts_with("reassemble")
        || matches!(
            name,
            "advect_rk2"
                | "relocate_all"
                | "exchange"
                | "control_population"
                | "project_to_corners"
                | "corners_to_quadrature"
        )
}

struct Ctx<'a> {
    files: &'a [SourceFile],
    g: &'a CallGraph,
    file_idx: BTreeMap<&'a str, usize>,
    /// Per file: lines whose annotations suppressed a finding.
    used: Vec<BTreeSet<u32>>,
    out: PassOutput,
}

impl Ctx<'_> {
    /// File index of a graph node.
    fn file_of(&self, node: usize) -> usize {
        self.file_idx[self.g.nodes[node].file.as_str()]
    }

    /// Suppress via annotation `tag` attached at `line` of `file`,
    /// recording consumption; returns true when suppressed.
    fn annotated(&mut self, file: usize, line: u32, tag: &str) -> bool {
        let Some((ann, _)) = rules::attached_annotation(&self.files[file].lexed, line, tag) else {
            return false;
        };
        self.used[file].insert(ann);
        true
    }

    fn finding(&mut self, rule: Rule, file: usize, line: u32, context: &str, msg: String) {
        self.out.findings.push(Finding {
            rule,
            file: self.files[file].rel.clone(),
            line,
            msg,
            context: context.to_string(),
        });
    }

    /// A finding unless annotation `tag` suppresses it.
    fn flag(&mut self, rule: Rule, file: usize, line: u32, tag: &str, context: &str, msg: String) {
        if !self.annotated(file, line, tag) {
            self.finding(rule, file, line, context, msg);
        }
    }
}

/// Run every rule; findings come back sorted by `(file, line, rule)`.
pub fn run(files: &[SourceFile], g: &CallGraph) -> PassOutput {
    let mut ctx = Ctx {
        files,
        g,
        file_idx: files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.rel.as_str(), i))
            .collect(),
        used: vec![BTreeSet::new(); files.len()],
        out: PassOutput::default(),
    };
    for fi in 0..files.len() {
        unsafe_audit(&mut ctx, fi);
        determinism(&mut ctx, fi);
        panic_surface(&mut ctx, fi);
    }
    hot_alloc(&mut ctx);
    nested_dispatch(&mut ctx);
    simd_parity(&mut ctx);
    ckpt_coverage(&mut ctx);
    prof_scope(&mut ctx);
    stale_annotation(&mut ctx);
    let mut out = ctx.out;
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.unsafe_sites
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// `unsafe-audit` and `unsafe-confined`, test code included: an
/// undocumented unsafe block in a test is still an unsafe block. Every
/// site enters the inventory.
fn unsafe_audit(ctx: &mut Ctx<'_>, fi: usize) {
    let f = &ctx.files[fi];
    let confined = f
        .class
        .crate_name
        .as_deref()
        .is_some_and(|c| rules::UNSAFE_CRATES.contains(&c));
    let toks = &f.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == Kind::Ident && t.s == "unsafe") {
            continue;
        }
        let kind = match toks.get(i + 1).map(|n| n.s.as_str()) {
            Some("fn") => "fn",
            Some("impl") => "impl",
            Some("trait") => "trait",
            _ => "block",
        };
        let justification = rules::attached_annotation(&f.lexed, t.line, rules::TAG_SAFETY)
            .map(|(_, why)| why)
            .unwrap_or_default();
        let owner = f.parsed.owner_name(i);
        if justification.is_empty() {
            ctx.finding(
                Rule::UnsafeAudit,
                fi,
                t.line,
                owner,
                format!("`unsafe {kind}` without an attached `// SAFETY:` comment"),
            );
        }
        if !confined {
            ctx.finding(
                Rule::UnsafeConfined,
                fi,
                t.line,
                owner,
                format!(
                    "`unsafe` is confined to crates {:?}; use a safe abstraction from \
                     `ptatin-la`/`ptatin-ops` instead",
                    rules::UNSAFE_CRATES
                ),
            );
        }
        ctx.out.unsafe_sites.push(UnsafeSite {
            file: f.rel.clone(),
            line: t.line,
            kind,
            justification,
        });
    }
}

/// `determinism` in numeric library code: unordered containers, clocks,
/// bare `.sum()`/`.product()` (blessed inside a reduction's arguments),
/// and `+=` inside a loop in a non-reducing dispatch closure.
fn determinism(ctx: &mut Ctx<'_>, fi: usize) {
    let f = &ctx.files[fi];
    if !(f.class.numeric && f.class.library) {
        return;
    }
    let toks = &f.lexed.toks;
    let mut in_reduce = vec![false; toks.len()];
    let mut in_par_loop = vec![false; toks.len()];
    for c in &f.parsed.calls {
        let (open, close) = c.args;
        match rules::dispatch_call(c) {
            Some(true) => in_reduce[open..close].fill(true),
            Some(false) => {
                // Loop bodies inside the closure: `+=` there accumulates
                // across the loop, and the loop runs once per piece.
                let mut k = open;
                while k < close {
                    if !(toks[k].kind == Kind::Ident
                        && matches!(toks[k].s.as_str(), "for" | "while" | "loop"))
                    {
                        k += 1;
                        continue;
                    }
                    let body = (k + 1..close).find(|&m| toks[m].s == "{").unwrap_or(close);
                    let end = crate::parse::balanced_close_brace(toks, body)
                        .map_or(close, |e| e.min(close));
                    in_par_loop[body..=end].fill(true);
                    k = end + 1;
                }
            }
            None => {}
        }
    }
    for (i, t) in toks.iter().enumerate() {
        if f.parsed.in_test[i] {
            continue;
        }
        let next = |k: usize| toks.get(i + k).map_or("", |n| n.s.as_str());
        let msg = if t.kind == Kind::Ident && matches!(t.s.as_str(), "HashMap" | "HashSet") {
            format!(
                "`{}` iteration order is unspecified; use `BTreeMap`/`BTreeSet` or sorted \
                 vectors in numeric crates",
                t.s
            )
        } else if t.kind == Kind::Ident && matches!(t.s.as_str(), "Instant" | "SystemTime") {
            format!(
                "`{}` makes kernel behaviour time-dependent; timing belongs in `ptatin-prof`",
                t.s
            )
        } else if t.s == "."
            && toks.get(i + 1).is_some_and(|n| n.kind == Kind::Ident)
            && matches!(next(1), "sum" | "product")
            && matches!(next(2), "(" | "::")
            && !in_reduce[i]
        {
            format!(
                "bare `.{}()` hides the accumulation order; use a fixed-order loop or \
                 `par_reduce`",
                next(1)
            )
        } else if t.s == "+=" && in_par_loop[i] {
            "`+=` accumulation inside a loop in a parallel dispatch closure; cross-piece \
             reductions belong in `par_reduce`"
                .to_string()
        } else {
            continue;
        };
        let owner = f.parsed.owner_name(i);
        ctx.flag(
            Rule::Determinism,
            fi,
            t.line,
            rules::TAG_DETERMINISM,
            owner,
            msg,
        );
    }
}

/// `panic-surface`: every panic site in library code.
fn panic_surface(ctx: &mut Ctx<'_>, fi: usize) {
    let f = &ctx.files[fi];
    if !f.class.library {
        return;
    }
    for (i, t) in f.lexed.toks.iter().enumerate() {
        if f.parsed.in_test[i] {
            continue;
        }
        if let Some(what) = rules::panic_at(&f.lexed.toks, i) {
            ctx.flag(
                Rule::PanicSurface,
                fi,
                t.line,
                rules::TAG_PANIC,
                f.parsed.owner_name(i),
                format!(
                    "`{what}` in library code; return a typed error or justify with `// PANIC-OK:`"
                ),
            );
        }
    }
}

/// `hot-alloc`: no allocation in a hot entry ([`rules::is_hot_fn`] in
/// numeric library code) or in any library fn it reaches. A reached
/// hot-named fn outside the numeric crates is not an entry and its own
/// body is not checked (the fns it calls are). Messages carry the call
/// path from the entry.
fn hot_alloc(ctx: &mut Ctx<'_>) {
    let (files, g) = (ctx.files, ctx.g);
    let entries: Vec<usize> = (0..g.nodes.len())
        .filter(|&n| {
            let node = &g.nodes[n];
            let class = &files[ctx.file_of(n)].class;
            rules::is_hot_fn(&node.name) && !node.in_test && class.library && class.numeric
        })
        .collect();
    ctx.out.stats.hot_entries = entries.len();
    let (reached, parent) = g.reachable(&entries);
    let entry_set: BTreeSet<usize> = entries.into_iter().collect();
    for &n in &reached {
        let node = &g.nodes[n];
        let fi = ctx.file_of(n);
        let f = &files[fi];
        let transitive = !entry_set.contains(&n);
        if transitive && (rules::is_hot_fn(&node.name) || node.in_test || !f.class.library) {
            continue;
        }
        let path = g.path_names(&parent, n);
        let (open, close) = f.parsed.fns[node.fn_idx].body;
        for i in open..=close {
            if f.parsed.owner[i] != Some(node.fn_idx) {
                continue;
            }
            if let Some(what) = rules::alloc_at(&f.lexed.toks, i) {
                ctx.flag(
                    Rule::HotAlloc,
                    fi,
                    f.lexed.toks[i].line,
                    rules::TAG_ALLOC,
                    &node.name,
                    format!(
                        "`{what}` allocates on hot path `{path}`; hoist it to setup or a \
                         cached scratch"
                    ),
                );
            }
        }
    }
}

/// `nested-dispatch`: static nested-dispatch detection.
///
/// For every dispatch call outside the pool implementation, any call
/// inside its argument list (the piece closure) that is itself a
/// dispatch, or whose call graph reaches one, is a finding. The runtime
/// `pool-sanitizer` serializes nested dispatch; this pass catches it
/// before it ships.
fn nested_dispatch(ctx: &mut Ctx<'_>) {
    let (files, g) = (ctx.files, ctx.g);
    // Which nodes reach a dispatch call? Seed: nodes containing one
    // (outside par.rs and outside cfg(test)); propagate over reversed
    // edges, never through the pool implementation.
    let n = g.nodes.len();
    let mut reaches = vec![false; n];
    let preds = g.preds();
    let mut queue: Vec<usize> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        if f.rel == POOL_IMPL {
            continue;
        }
        for c in &f.parsed.calls {
            if rules::dispatch_call(c).is_none() {
                continue;
            }
            ctx.out.stats.dispatch_sites += 1;
            if let Some(node) = c.in_fn.and_then(|local| g.node(fi, local)) {
                if !reaches[node] {
                    reaches[node] = true;
                    queue.push(node);
                }
            }
        }
    }
    while let Some(m) = queue.pop() {
        for &p in &preds[m] {
            if !reaches[p] && g.nodes[p].file != POOL_IMPL {
                reaches[p] = true;
                queue.push(p);
            }
        }
    }

    // Edges grouped by (from-node, call-index) for closure-body lookup.
    let mut edge_map: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for e in &g.edges {
        edge_map.entry((e.from, e.call_idx)).or_default().push(e.to);
    }

    // A call nested in several dispatch closures is reported once.
    let mut reported: BTreeSet<(usize, u32)> = BTreeSet::new();
    for (fi, f) in files.iter().enumerate() {
        if f.rel == POOL_IMPL || !f.class.library {
            continue;
        }
        for (outer_idx, outer) in f.parsed.calls.iter().enumerate() {
            if rules::dispatch_call(outer).is_none() {
                continue;
            }
            let Some(local_fn) = outer.in_fn.filter(|&k| !f.parsed.fns[k].in_test) else {
                continue;
            };
            let Some(from) = g.node(fi, local_fn) else {
                continue;
            };
            for (inner_idx, inner) in f.parsed.calls.iter().enumerate() {
                if inner_idx == outer_idx || inner.tok <= outer.args.0 || inner.tok >= outer.args.1
                {
                    continue;
                }
                let why = if rules::dispatch_call(inner).is_some() {
                    format!("`{}` dispatches directly", inner.callee)
                } else if let Some(&to) = edge_map
                    .get(&(from, inner_idx))
                    .and_then(|v| v.iter().find(|&&to| reaches[to]))
                {
                    format!(
                        "`{}` reaches a dispatch via `{}`",
                        inner.callee,
                        dispatch_path(g, &reaches, to)
                    )
                } else {
                    continue;
                };
                if !reported.insert((fi, inner.line)) {
                    continue;
                }
                ctx.flag(
                    Rule::NestedDispatch,
                    fi,
                    inner.line,
                    rules::TAG_DISPATCH,
                    &g.nodes[from].name,
                    format!(
                        "closure passed to `{}` nests a pool dispatch: {why} \
                         (the sanitizer would serialize this at runtime)",
                        outer.callee
                    ),
                );
            }
        }
    }
}

/// A display path from `start` to the nearest node that directly
/// dispatches, following `reaches`-marked successors.
fn dispatch_path(g: &CallGraph, reaches: &[bool], start: usize) -> String {
    let mut names = vec![g.nodes[start].name.clone()];
    let mut cur = start;
    let mut seen = BTreeSet::from([start]);
    for _ in 0..16 {
        let Some(&next) = g.succ[cur].iter().find(|&&m| reaches[m] && seen.insert(m)) else {
            break;
        };
        names.push(g.nodes[next].name.clone());
        cur = next;
    }
    names.join(" -> ")
}

/// `simd-parity`: one lane body per SIMD kernel.
///
/// Kernels are written once over `la::simd::Lane` and run on both paths
/// through `la::simd`'s `run_lanes`, so `crates/la/src/simd.rs` is the
/// only file that may hold a `#[target_feature]` kernel: a root one (with
/// a caller outside the `target_feature` family, or none — the helpers of
/// an annotated root inherit its verdict) anywhere else is
/// a finding. And a library fn generic over `Lane` — a `LaneKernel::run`
/// included — must be `#[inline(always)]`: outlined, it loses the
/// wrapper's target features and every lane operation becomes a call.
fn simd_parity(ctx: &mut Ctx<'_>) {
    let g = ctx.g;
    let preds = g.preds();
    ctx.out.stats.bitwise_tests = (0..g.nodes.len())
        .filter(|&n| {
            let node = &g.nodes[n];
            node.in_test && (node.name.contains("bitwise") || node.name.contains("bits"))
        })
        .count();
    ctx.out.stats.simd_kernels = (0..g.nodes.len())
        .filter(|&n| g.nodes[n].target_feature && !g.nodes[n].in_test)
        .count();

    for n in 0..g.nodes.len() {
        let node = &g.nodes[n];
        let fi = ctx.file_of(n);
        if node.in_test || !ctx.files[fi].class.library {
            continue;
        }
        let name = node.name.clone();
        if node.target_feature && !ctx.files[fi].rel.ends_with("crates/la/src/simd.rs") {
            let is_root = preds[n].is_empty()
                || preds[n]
                    .iter()
                    .any(|&p| !g.nodes[p].target_feature && !g.nodes[p].in_test);
            if is_root {
                ctx.flag(
                    Rule::SimdParity,
                    fi,
                    node.line,
                    rules::TAG_SIMD,
                    &name,
                    format!(
                        "`#[target_feature]` kernel `{name}` outside `la::simd`: write it \
                         once over `Lane` and run it through `run_lanes`"
                    ),
                );
            }
        }
        if node.lane_generic && !node.inline_always {
            ctx.flag(
                Rule::SimdParity,
                fi,
                node.line,
                rules::TAG_SIMD,
                &name,
                format!(
                    "`{name}` is generic over `Lane` but not `#[inline(always)]`: \
                     outlined, its lane operations lose the AVX wrapper's features"
                ),
            );
        }
    }
}

/// `ckpt-coverage`: checkpoint drift.
///
/// Every field of `Checkpoint` (recursing into workspace-defined struct
/// fields) must be named in both the serializer (`to_bytes`) and the
/// deserializer (`from_bytes`), including anything they reach within
/// the `ckpt` crate. A new field that skips serialization breaks
/// bitwise restart and ensemble preemption. A `Checkpoint` that lacks
/// either method is itself a finding, so renaming the serializer cannot
/// switch the check off.
fn ckpt_coverage(ctx: &mut Ctx<'_>) {
    let (files, g) = (ctx.files, ctx.g);
    // Workspace struct index: name → (file, struct index). First
    // definition wins (struct names are unique in this workspace).
    let mut struct_at: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (si, s) in f.parsed.structs.iter().enumerate() {
            struct_at.entry(s.name.as_str()).or_insert((fi, si));
        }
    }
    let Some(&(root_fi, root_si)) = struct_at.get("Checkpoint") else {
        return;
    };
    if files[root_fi].class.crate_name.as_deref() != Some("ckpt") {
        return;
    }

    // Identifier vocabulary of a serializer: every ident in the body of
    // the named method plus everything it reaches inside the ckpt crate
    // (helpers like per-struct writers stay covered).
    let vocab = |method: &str| -> Option<BTreeSet<String>> {
        let start = (0..g.nodes.len()).find(|&n| {
            g.nodes[n].name == method
                && g.nodes[n].impl_type.as_deref() == Some("Checkpoint")
                && !g.nodes[n].in_test
        })?;
        let (reached, _) = g.reachable(&[start]);
        let mut idents = BTreeSet::new();
        for &n in &reached {
            let node = &g.nodes[n];
            if node.crate_name.as_deref() != Some("ckpt") {
                continue;
            }
            let f = &files[ctx.file_of(n)];
            let (open, close) = f.parsed.fns[node.fn_idx].body;
            for t in &f.lexed.toks[open..=close] {
                if t.kind == Kind::Ident {
                    idents.insert(t.s.clone());
                }
            }
        }
        Some(idents)
    };
    let (Some(write_vocab), Some(read_vocab)) = (vocab("to_bytes"), vocab("from_bytes")) else {
        ctx.flag(
            Rule::CkptCoverage,
            root_fi,
            files[root_fi].parsed.structs[root_si].line,
            rules::TAG_CKPT,
            "Checkpoint",
            "`Checkpoint` lacks `to_bytes` or `from_bytes`, so its field coverage cannot be \
             checked (bitwise-restart contract)"
                .to_string(),
        );
        return;
    };

    // Walk Checkpoint and every embedded workspace struct.
    let mut stack = vec![(root_fi, root_si, "Checkpoint".to_string())];
    let mut visited = BTreeSet::from(["Checkpoint".to_string()]);
    while let Some((fi, si, prefix)) = stack.pop() {
        for field in &files[fi].parsed.structs[si].fields {
            let anchor = format!("{prefix}.{}", field.name);
            // Fields of embedded structs live in *their* defining file;
            // drift findings anchor there.
            let missing_w = !write_vocab.contains(&field.name);
            let missing_r = !read_vocab.contains(&field.name);
            if missing_w || missing_r {
                let which = match (missing_w, missing_r) {
                    (true, true) => "to_bytes or from_bytes",
                    (true, false) => "to_bytes",
                    _ => "from_bytes",
                };
                ctx.flag(
                    Rule::CkptCoverage,
                    fi,
                    field.line,
                    rules::TAG_CKPT,
                    &anchor,
                    format!(
                        "checkpoint field `{anchor}` is never named in `{which}` — \
                         it would not survive a restart (bitwise-restart contract)"
                    ),
                );
                continue;
            }
            for ty in &field.type_idents {
                if let Some(&(tfi, tsi)) = struct_at.get(ty.as_str()) {
                    if visited.insert(ty.clone()) {
                        stack.push((tfi, tsi, ty.clone()));
                    }
                }
            }
        }
    }
}

/// `prof-scope` coverage.
///
/// Hot entry points (`apply*`, `spmv*`, `assemble*`) in numeric library
/// code must be covered by a `prof::scope`/`prof::scope_dyn` — either
/// somewhere in their own call graph (they time themselves) or upstream
/// (every production path into them runs under a caller's scope, so the
/// profiler attributes their cost to that event). Only an entry with
/// scopes in neither direction is invisible to bench and ensemble
/// attribution.
fn prof_scope(ctx: &mut Ctx<'_>) {
    let g = ctx.g;
    // Nodes that call prof::scope / prof::scope_dyn directly (test code
    // excluded: a scoped test does not cover the production path).
    let mut has_prof = vec![false; g.nodes.len()];
    for (fi, f) in ctx.files.iter().enumerate() {
        for c in &f.parsed.calls {
            if matches!(c.callee.as_str(), "scope" | "scope_dyn")
                && c.qual.as_deref() == Some("prof")
            {
                if let Some(local) = c.in_fn {
                    if let Some(n) = g.node(fi, local) {
                        if !g.nodes[n].in_test {
                            has_prof[n] = true;
                        }
                    }
                }
            }
        }
    }
    // Everything reachable *from* a scoped fn runs inside its event.
    let prof_nodes: Vec<usize> = (0..g.nodes.len()).filter(|&i| has_prof[i]).collect();
    let (under_prof, _) = g.reachable(&prof_nodes);
    for n in 0..g.nodes.len() {
        let node = &g.nodes[n];
        if !is_prof_entry(&node.name) || node.in_test || node.target_feature {
            continue;
        }
        let fi = ctx.file_of(n);
        let f = &ctx.files[fi];
        if !f.class.library || !f.class.numeric {
            continue;
        }
        if under_prof.contains(&n) {
            continue;
        }
        let (reached, _) = g.reachable(&[n]);
        if reached.iter().any(|&m| has_prof[m]) {
            continue;
        }
        let line = node.line;
        let name = node.name.clone();
        ctx.flag(
            Rule::ProfScope,
            fi,
            line,
            rules::TAG_PROF,
            &name,
            format!(
                "hot entry `{name}` has no `prof::scope` in its call graph or above it — \
                 its cost is invisible to bench/ensemble attribution"
            ),
        );
    }
}

/// `stale-annotation`, last: an annotation line that suppressed no
/// finding means the code below it got cleaned up (or the annotation is
/// on the wrong line) — delete it.
fn stale_annotation(ctx: &mut Ctx<'_>) {
    let files = ctx.files;
    for (fi, f) in files.iter().enumerate() {
        for (&line, text) in &f.lexed.comment_on {
            if !rules::is_annotation_comment(text) {
                continue;
            }
            for tag in rules::ALL_TAGS {
                if text.contains(tag) && !ctx.used[fi].contains(&line) {
                    ctx.finding(
                        Rule::StaleAnnotation,
                        fi,
                        line,
                        tag.trim_end_matches(':'),
                        format!("`// {tag}` annotation suppresses nothing; remove it"),
                    );
                }
            }
        }
    }
}
