//! The v2 semantic passes over the workspace call graph (DESIGN.md §14).
//!
//! Five passes, each enforcing one of the repo's cross-function
//! contracts that the v1 token rules cannot see:
//!
//! | pass              | contract                                        | annotation |
//! |-------------------|-------------------------------------------------|------------|
//! | `hot-path-alloc`  | no allocation reachable from a hot entry        | `// ALLOC-OK:` |
//! | `hot-path-panic`  | no panic reachable from a hot entry             | `// PANIC-OK:` |
//! | `nested-dispatch` | no dispatch reachable from a dispatch closure   | `// DISPATCH-OK:` |
//! | `simd-parity`     | every AVX kernel has a bitwise-tested twin      | `// SIMD-OK:` |
//! | `ckpt-coverage`   | every `Checkpoint` field is (de)serialized      | `// CKPT-OK:` |
//! | `prof-scope`      | hot entry points are covered by `prof::scope`   | `// PROF-OK:` |
//!
//! Annotations share the v1 attachment grammar ([`rules::attached_annotation`]):
//! same line or the contiguous comment block above, non-empty reason
//! required, consumed annotations feed the workspace-level
//! stale-annotation pass.

use crate::graph::CallGraph;
use crate::lex::{Kind, Lexed};
use crate::parse::Parsed;
use crate::rules::{self, FileClass, Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// One scanned source file with everything the passes need.
pub struct SourceFile {
    pub rel: String,
    pub class: FileClass,
    pub lexed: Lexed,
    pub parsed: Parsed,
}

/// Result of running all five passes.
#[derive(Debug, Default)]
pub struct PassOutput {
    pub findings: Vec<Finding>,
    /// Per-file lines whose annotations suppressed a pass finding —
    /// merged with the v1 sets before the stale-annotation check.
    pub used_annotations: Vec<BTreeSet<u32>>,
    pub stats: PassStats,
}

/// Pass-level statistics for the `audit-v2` inventory document.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassStats {
    /// Hot entry points seeding the transitive hot-path analysis.
    pub hot_entries: usize,
    /// Pool-dispatch call sites outside the pool implementation.
    pub dispatch_sites: usize,
    /// `#[target_feature]` kernels (root kernels needing a twin).
    pub simd_kernels: usize,
    /// Bitwise equivalence tests found for the parity check.
    pub bitwise_tests: usize,
}

/// Dispatch entry points of `ptatin-la::par`. A call to any of these
/// (by name — they are unambiguous in this workspace, and `dispatch`
/// additionally requires the `par::` qualifier) hands work to the
/// worker pool.
const DISPATCH_NAMES: &[&str] = &[
    "par_ranges",
    "par_ranges_aligned",
    "par_chunks_mut",
    "par_blocks_mut",
    "par_reduce",
    "par_reduce_mut",
    "run_on_pool",
];

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
    /// Per-file: token index → innermost owning fn (index into
    /// `parsed.fns`), so nested fns do not inherit their parent's sites.
    owner: Vec<Vec<Option<usize>>>,
    file_idx: BTreeMap<&'a str, usize>,
    out: PassOutput,
}

impl<'a> Ctx<'a> {
    /// File index of a graph node.
    fn file_of(&self, node: usize) -> usize {
        self.file_idx[self.g.nodes[node].file.as_str()]
    }

    /// Suppress via annotation `tag` attached at `line` of `file`,
    /// recording consumption; returns true when suppressed.
    fn annotated(&mut self, file: usize, line: u32, tag: &str) -> bool {
        if let Some(ann) = rules::attached_annotation(&self.files[file].lexed, line, tag) {
            self.out.used_annotations[file].insert(ann);
            return true;
        }
        false
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
}

/// Run all five passes.
pub fn run(files: &[SourceFile], g: &CallGraph) -> PassOutput {
    let mut ctx = Ctx {
        files,
        g,
        owner: files.iter().map(token_owners).collect(),
        file_idx: files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.rel.as_str(), i))
            .collect(),
        out: PassOutput {
            findings: Vec::new(),
            used_annotations: vec![BTreeSet::new(); files.len()],
            stats: PassStats::default(),
        },
    };
    hot_path(&mut ctx);
    nested_dispatch(&mut ctx);
    simd_parity(&mut ctx);
    ckpt_coverage(&mut ctx);
    prof_scope(&mut ctx);
    let mut out = ctx.out;
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.rule, &a.msg).cmp(&(&b.file, b.line, b.rule, &b.msg)));
    out.findings.dedup_by(|a, b| {
        (a.rule, &a.file, a.line, &a.context) == (b.rule, &b.file, b.line, &b.context)
    });
    out
}

/// Innermost owning fn for every token of a file (closures belong to
/// their enclosing named fn; a nested `fn` owns its own body).
fn token_owners(f: &SourceFile) -> Vec<Option<usize>> {
    let mut owner = vec![None; f.lexed.toks.len()];
    // Longest spans first, so inner (shorter) fns overwrite.
    let mut order: Vec<usize> = (0..f.parsed.fns.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(f.parsed.fns[i].body.1 - f.parsed.fns[i].body.0));
    for fi in order {
        let (open, close) = f.parsed.fns[fi].body;
        for slot in owner.iter_mut().take(close + 1).skip(open) {
            *slot = Some(fi);
        }
    }
    owner
}

/// Allocation sites owned by `fn_idx` in `file`: the same token patterns
/// as the v1 `hot-alloc` rule.
fn alloc_sites(f: &SourceFile, owner: &[Option<usize>], fn_idx: usize) -> Vec<(u32, String)> {
    let toks = &f.lexed.toks;
    let mut out = Vec::new();
    let (open, close) = f.parsed.fns[fn_idx].body;
    for i in open..=close.min(toks.len().saturating_sub(1)) {
        if owner[i] != Some(fn_idx) {
            continue;
        }
        let t = &toks[i];
        let what: Option<String> = if t.kind == Kind::Ident
            && matches!(t.s.as_str(), "Vec" | "Box")
            && toks.get(i + 1).is_some_and(|n| n.s == "::")
            && toks.get(i + 2).is_some_and(|n| n.s == "new")
        {
            Some(format!("{}::new", t.s))
        } else if t.kind == Kind::Ident
            && t.s == "vec"
            && toks.get(i + 1).is_some_and(|n| n.s == "!")
        {
            Some("vec!".to_string())
        } else if t.s == "."
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == Kind::Ident && matches!(n.s.as_str(), "to_vec" | "clone")
            })
            && toks.get(i + 2).is_some_and(|n| n.s == "(")
        {
            Some(format!(".{}()", toks[i + 1].s))
        } else {
            None
        };
        if let Some(w) = what {
            out.push((t.line, w));
        }
    }
    out
}

/// Panic sites owned by `fn_idx`: the same token patterns as the v1
/// `panic-surface` rule.
fn panic_sites(f: &SourceFile, owner: &[Option<usize>], fn_idx: usize) -> Vec<(u32, String)> {
    let toks = &f.lexed.toks;
    let mut out = Vec::new();
    let (open, close) = f.parsed.fns[fn_idx].body;
    for i in open..=close.min(toks.len().saturating_sub(1)) {
        if owner[i] != Some(fn_idx) || toks[i].kind != Kind::Ident {
            continue;
        }
        let t = &toks[i];
        let what: Option<String> = if matches!(t.s.as_str(), "unwrap" | "expect")
            && i > 0
            && toks[i - 1].s == "."
            && toks.get(i + 1).is_some_and(|n| n.s == "(")
        {
            Some(format!(".{}()", t.s))
        } else if matches!(
            t.s.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && toks.get(i + 1).is_some_and(|n| n.s == "!")
            && (i == 0 || toks[i - 1].s != "::")
        {
            Some(format!("{}!", t.s))
        } else {
            None
        };
        if let Some(w) = what {
            out.push((t.line, w));
        }
    }
    out
}

/// Pass 1+2: transitive hot-path allocation and panic surface.
///
/// Entries are the v1 hot functions ([`rules::is_hot_fn`]) in numeric
/// library code; every *non-hot-named* function reachable from one (the
/// hot-named ones are the v1 rules' territory) must neither allocate
/// nor panic without a per-site `ALLOC-OK`/`PANIC-OK` justification.
fn hot_path(ctx: &mut Ctx<'_>) {
    let entries: Vec<usize> = (0..ctx.g.nodes.len())
        .filter(|&n| {
            let node = &ctx.g.nodes[n];
            let f = &ctx.files[ctx.file_idx[node.file.as_str()]];
            rules::is_hot_fn(&node.name) && !node.in_test && f.class.library && f.class.numeric
        })
        .collect();
    ctx.out.stats.hot_entries = entries.len();
    let (reached, parent) = ctx.g.reachable(&entries);
    let entry_set: BTreeSet<usize> = entries.iter().copied().collect();
    for &n in &reached {
        let node = &ctx.g.nodes[n];
        if entry_set.contains(&n) || rules::is_hot_fn(&node.name) || node.in_test {
            continue;
        }
        let fi = ctx.file_of(n);
        if !ctx.files[fi].class.library {
            continue;
        }
        let path = ctx.g.path_names(&parent, n);
        let fn_idx = node.fn_idx;
        let name = node.name.clone();
        for (line, what) in alloc_sites(&ctx.files[fi], &ctx.owner[fi], fn_idx) {
            if ctx.annotated(fi, line, rules::TAG_ALLOC) {
                continue;
            }
            ctx.finding(
                Rule::HotPathAlloc,
                fi,
                line,
                &name,
                format!("`{what}` allocates in `{name}`, reachable from hot entry via `{path}`"),
            );
        }
        for (line, what) in panic_sites(&ctx.files[fi], &ctx.owner[fi], fn_idx) {
            if ctx.annotated(fi, line, rules::TAG_PANIC) {
                continue;
            }
            ctx.finding(
                Rule::HotPathPanic,
                fi,
                line,
                &name,
                format!("`{what}` can panic in `{name}`, reachable from hot entry via `{path}`"),
            );
        }
    }
}

/// Is this call site a dispatch to the worker pool?
fn is_dispatch_call(c: &crate::parse::CallSite) -> bool {
    (DISPATCH_NAMES.contains(&c.callee.as_str()) && !c.method)
        || (c.callee == "dispatch" && c.qual.as_deref() == Some("par"))
}

/// Pass 3: static nested-dispatch detection.
///
/// For every dispatch call outside the pool implementation, any call
/// inside its argument list (the piece closure) that is itself a
/// dispatch, or whose call graph reaches one, is a finding. The runtime
/// `pool-sanitizer` serializes nested dispatch; this pass catches it
/// before it ships.
fn nested_dispatch(ctx: &mut Ctx<'_>) {
    // Which nodes reach a dispatch call? Seed: nodes containing one
    // (outside par.rs and outside cfg(test)); propagate over reversed
    // edges, never through the pool implementation.
    let n = ctx.g.nodes.len();
    let mut reaches = vec![false; n];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (from, succ) in ctx.g.succ.iter().enumerate() {
        for &to in succ {
            preds[to].push(from);
        }
    }
    let mut queue: Vec<usize> = Vec::new();
    for (fi, f) in ctx.files.iter().enumerate() {
        if f.rel == POOL_IMPL {
            continue;
        }
        for c in &f.parsed.calls {
            if !is_dispatch_call(c) {
                continue;
            }
            ctx.out.stats.dispatch_sites += 1;
            if let Some(local) = c.in_fn {
                if let Some(node) = ctx.g.node(fi, local) {
                    if !reaches[node] {
                        reaches[node] = true;
                        queue.push(node);
                    }
                }
            }
        }
    }
    while let Some(m) = queue.pop() {
        for &p in &preds[m] {
            if !reaches[p] && ctx.g.nodes[p].file != POOL_IMPL {
                reaches[p] = true;
                queue.push(p);
            }
        }
    }

    // Edges grouped by (from-node, call-index) for closure-body lookup.
    let mut edge_map: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for e in &ctx.g.edges {
        edge_map.entry((e.from, e.call_idx)).or_default().push(e.to);
    }

    for fi in 0..ctx.files.len() {
        let f = &ctx.files[fi];
        if f.rel == POOL_IMPL || !f.class.library {
            continue;
        }
        for (outer_idx, outer) in f.parsed.calls.iter().enumerate() {
            if !is_dispatch_call(outer) {
                continue;
            }
            let Some(local_fn) = outer.in_fn else {
                continue;
            };
            if f.parsed.fns[local_fn].in_test {
                continue;
            }
            let Some(from) = ctx.g.node(fi, local_fn) else {
                continue;
            };
            let mut hits: Vec<(u32, String, String)> = Vec::new(); // (line, callee, why)
            for (inner_idx, inner) in f.parsed.calls.iter().enumerate() {
                if inner_idx == outer_idx || inner.tok <= outer.args.0 || inner.tok >= outer.args.1
                {
                    continue;
                }
                if is_dispatch_call(inner) {
                    hits.push((
                        inner.line,
                        inner.callee.clone(),
                        format!("`{}` dispatches directly", inner.callee),
                    ));
                    continue;
                }
                for &to in edge_map.get(&(from, inner_idx)).map_or(&[][..], |v| v) {
                    if reaches[to] {
                        let why = dispatch_path(ctx.g, &reaches, to);
                        hits.push((
                            inner.line,
                            inner.callee.clone(),
                            format!("`{}` reaches a dispatch via `{why}`", inner.callee),
                        ));
                        break;
                    }
                }
            }
            let outer_name = outer.callee.clone();
            for (line, _callee, why) in hits {
                if ctx.annotated(fi, line, rules::TAG_DISPATCH) {
                    continue;
                }
                let name = ctx.g.nodes[from].name.clone();
                ctx.finding(
                    Rule::NestedDispatch,
                    fi,
                    line,
                    &name,
                    format!(
                        "closure passed to `{outer_name}` nests a pool dispatch: {why} \
                         (the sanitizer would serialize this at runtime)"
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

/// Pass 4: SIMD path parity.
///
/// Every root `#[target_feature]` kernel (one with a caller outside the
/// `target_feature` family, or none at all — internal lane helpers are
/// exempt) must have a portable twin under the repo naming convention
/// (`X` → `X_portable` / `X_body`, `X_avx` → `X_portable`), and some
/// bitwise equivalence test (name containing `bitwise` or `bits`) must
/// reach both through the call graph.
fn simd_parity(ctx: &mut Ctx<'_>) {
    let g = ctx.g;
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); g.nodes.len()];
    for (from, succ) in g.succ.iter().enumerate() {
        for &to in succ {
            preds[to].push(from);
        }
    }
    // Reachable set of every bitwise test.
    let bitwise_tests: Vec<usize> = (0..g.nodes.len())
        .filter(|&n| {
            let node = &g.nodes[n];
            node.in_test && (node.name.contains("bitwise") || node.name.contains("bits"))
        })
        .collect();
    let test_reach: Vec<BTreeSet<usize>> =
        bitwise_tests.iter().map(|&t| g.reachable(&[t]).0).collect();
    ctx.out.stats.bitwise_tests = bitwise_tests.len();
    ctx.out.stats.simd_kernels = (0..g.nodes.len())
        .filter(|&n| g.nodes[n].target_feature && !g.nodes[n].in_test)
        .count();

    for n in 0..g.nodes.len() {
        let node = &g.nodes[n];
        if !node.target_feature || node.in_test {
            continue;
        }
        let fi = ctx.file_of(n);
        if !ctx.files[fi].class.library {
            continue;
        }
        // Root kernel: called from outside the target_feature family
        // (or not called at all). Lane helpers only ever invoked from
        // other `#[target_feature]` fns inherit their caller's parity
        // obligation instead.
        let is_root = preds[n].is_empty()
            || preds[n]
                .iter()
                .any(|&p| !g.nodes[p].target_feature && !g.nodes[p].in_test);
        if !is_root {
            continue;
        }
        let line = node.line;
        let name = node.name.clone();
        let base = name.strip_suffix("_avx").unwrap_or(&name).to_string();
        let twin_names = [
            format!("{base}_portable"),
            format!("{base}_body"),
            format!("{base}_b"),
        ];
        let twin = (0..g.nodes.len()).find(|&m| {
            !g.nodes[m].target_feature && twin_names.iter().any(|t| *t == g.nodes[m].name)
        });
        if ctx.annotated(fi, line, rules::TAG_SIMD) {
            continue;
        }
        let Some(twin) = twin else {
            ctx.finding(
                Rule::SimdParity,
                fi,
                line,
                &name,
                format!(
                    "`#[target_feature]` kernel `{name}` has no portable twin \
                     (`{base}_portable`, `{base}_body`, or `{base}_b`)"
                ),
            );
            continue;
        };
        let covered = test_reach
            .iter()
            .any(|r| r.contains(&n) && r.contains(&twin));
        if !covered {
            let twin_name = g.nodes[twin].name.clone();
            ctx.finding(
                Rule::SimdParity,
                fi,
                line,
                &name,
                format!(
                    "kernel `{name}` and twin `{twin_name}` are not both reached by any \
                     bitwise equivalence test (`*bitwise*`/`*bits*`)"
                ),
            );
        }
    }
}

/// Pass 5: checkpoint-coverage drift.
///
/// Every field of `Checkpoint` (recursing into workspace-defined struct
/// fields) must be named in both the serializer (`to_bytes`) and the
/// deserializer (`from_bytes`), including anything they reach within
/// the `ckpt` crate. A new field that skips serialization breaks
/// bitwise restart and ensemble preemption.
fn ckpt_coverage(ctx: &mut Ctx<'_>) {
    let g = ctx.g;
    // Workspace struct index: name → (file, struct index). First
    // definition wins (struct names are unique in this workspace).
    let mut struct_at: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (fi, f) in ctx.files.iter().enumerate() {
        for (si, s) in f.parsed.structs.iter().enumerate() {
            struct_at.entry(s.name.as_str()).or_insert((fi, si));
        }
    }
    let Some(&(root_fi, root_si)) = struct_at.get("Checkpoint") else {
        return;
    };
    if ctx.files[root_fi].class.crate_name.as_deref() != Some("ckpt") {
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
            let fi = ctx.file_idx[node.file.as_str()];
            let f = &ctx.files[fi];
            let (open, close) = f.parsed.fns[node.fn_idx].body;
            for t in &f.lexed.toks[open..=close.min(f.lexed.toks.len() - 1)] {
                if t.kind == Kind::Ident {
                    idents.insert(t.s.clone());
                }
            }
        }
        Some(idents)
    };
    let Some(write_vocab) = vocab("to_bytes") else {
        return;
    };
    let Some(read_vocab) = vocab("from_bytes") else {
        return;
    };

    // Walk Checkpoint and every embedded workspace struct.
    let mut stack = vec![(root_fi, root_si, "Checkpoint".to_string())];
    let mut visited = BTreeSet::from(["Checkpoint".to_string()]);
    while let Some((fi, si, prefix)) = stack.pop() {
        // Clone the fields up front: `ctx` is borrowed mutably below.
        let fields = ctx.files[fi].parsed.structs[si].fields.clone();
        for field in fields {
            let anchor = format!("{prefix}.{}", field.name);
            // Fields of embedded structs live in *their* defining file;
            // drift findings anchor there.
            let missing_w = !write_vocab.contains(&field.name);
            let missing_r = !read_vocab.contains(&field.name);
            if missing_w || missing_r {
                if ctx.annotated(fi, field.line, rules::TAG_CKPT) {
                    continue;
                }
                let which = match (missing_w, missing_r) {
                    (true, true) => "to_bytes or from_bytes",
                    (true, false) => "to_bytes",
                    _ => "from_bytes",
                };
                ctx.finding(
                    Rule::CkptCoverage,
                    fi,
                    field.line,
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

/// Pass 6: prof-scope coverage.
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
        if ctx.annotated(fi, line, rules::TAG_PROF) {
            continue;
        }
        ctx.finding(
            Rule::ProfScope,
            fi,
            line,
            &name,
            format!(
                "hot entry `{name}` has no `prof::scope` in its call graph or above it — \
                 its cost is invisible to bench/ensemble attribution"
            ),
        );
    }
}
