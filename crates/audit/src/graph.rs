//! Workspace-wide call graph over the parsed files.
//!
//! Nodes are function definitions; edges come from call expressions,
//! resolved by name with an explicit preference ladder (same file →
//! same crate → whole workspace, `Type::fn` pinned through `impl`
//! blocks). The approximation is deliberately *complete-biased* for
//! same-named candidates and *incomplete* for dynamic dispatch: a call
//! through a trait object links to every same-named definition the
//! ladder leaves in scope, and a callee reached only through a function
//! pointer or a macro body is invisible. DESIGN.md §14 records these
//! limits; the runtime sanitizers remain the backstop for what the
//! static pass cannot see.

use crate::parse::CallSite;
use crate::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// A node: one function definition somewhere in the workspace.
#[derive(Debug, Clone)]
pub struct Node {
    pub file: String,
    /// Index into that file's `Parsed::fns`.
    pub fn_idx: usize,
    pub name: String,
    pub line: u32,
    pub crate_name: Option<String>,
    pub in_test: bool,
    /// File-path class of the defining file.
    pub library: bool,
    pub target_feature: bool,
    pub inline_always: bool,
    pub lane_generic: bool,
    pub impl_type: Option<String>,
    /// Innermost named inline module, else `None` (file-level).
    pub module: Option<String>,
    /// File stem (`simd` for `crates/la/src/simd.rs`) — the implicit
    /// module name of file-level items.
    pub file_stem: String,
}

/// One resolved call edge (kept per call site, so passes can reason
/// about argument spans and lines).
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    /// Index of the call site in the *from* node's file `Parsed::calls`.
    pub call_idx: usize,
}

#[derive(Debug, Default, Clone)]
pub struct GraphStats {
    pub functions: usize,
    pub edges: usize,
    pub calls_resolved: usize,
    pub calls_unresolved: usize,
}

/// The assembled graph plus the indexes the passes need.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<Node>,
    /// Adjacency: `succ[n]` = node indices callable from node `n`.
    pub succ: Vec<Vec<usize>>,
    pub edges: Vec<Edge>,
    pub stats: GraphStats,
    /// `(file_index, fn_idx)` → node index.
    node_of: BTreeMap<(usize, usize), usize>,
}

/// Ubiquitous method names that resolve workspace-wide only as a last
/// resort and with no candidates elsewhere: linking every `.len()` or
/// `.get()` to same-named workspace definitions would drown the graph
/// in false edges. Same-file and same-crate candidates still link.
const COMMON_METHODS: &[&str] = &[
    "new", "default", "len", "is_empty", "get", "push", "insert", "remove", "clone", "iter",
    "next", "fmt", "eq", "cmp", "hash", "drop", "from", "into", "as_ref", "as_mut", "write",
    "read", "finish", "state", "clear",
];

/// Method names that never link at ANY tier: these are std vocabulary
/// (`AtomicBool::load`, `Iterator::sum`, `str::parse`, `Mutex::lock`,
/// …) and a same-named workspace free function is coincidence, not a
/// callee. Linking `.load(Ordering::Relaxed)` to `ckpt::load` manufactures
/// absurd hot paths through the profiler's enabled-flag check. Free
/// (non-method) calls with these names still resolve normally.
const STD_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "lock",
    "borrow",
    "borrow_mut",
    "sum",
    "product",
    "fold",
    "count",
    "parse",
    "collect",
    "map",
    "filter",
    "take",
    "replace",
    "drain",
    "extend",
    "contains",
    "split",
    "join",
    "sort",
    "sort_by",
    "min",
    "max",
    "abs",
    "sqrt",
    "to_vec",
    "to_string",
    "position",
    "find",
    "any",
    "all",
    "last",
    "first",
    "value",
    "rev",
    "zip",
    "enumerate",
];

/// Crate dependency sets (crate short name → short names of its
/// `ptatin-*` dependencies, dev-dependencies included). A crate with an
/// entry only links calls to itself and its dependencies — a candidate
/// in a crate the caller cannot even name in `use` is a coincidence of
/// naming, not a callee. Crates without an entry (unit-test corpora,
/// fixtures without manifests) are unrestricted.
pub type CrateDeps = BTreeMap<String, BTreeSet<String>>;

pub fn build(files: &[SourceFile], deps: &CrateDeps) -> CallGraph {
    let mut g = CallGraph::default();

    // Nodes.
    for (fi, f) in files.iter().enumerate() {
        for (k, d) in f.parsed.fns.iter().enumerate() {
            let idx = g.nodes.len();
            g.node_of.insert((fi, k), idx);
            g.nodes.push(Node {
                file: f.rel.clone(),
                fn_idx: k,
                name: d.name.clone(),
                line: d.line,
                crate_name: f.class.crate_name.clone(),
                in_test: d.in_test || !f.class.library && f.rel.contains("tests/"),
                library: f.class.library,
                target_feature: d.target_feature,
                inline_always: d.inline_always,
                lane_generic: d.lane_generic,
                impl_type: d.impl_type.clone(),
                module: d.module.clone(),
                file_stem: f
                    .rel
                    .rsplit('/')
                    .next()
                    .unwrap_or(&f.rel)
                    .trim_end_matches(".rs")
                    .to_string(),
            });
        }
    }
    g.succ = vec![Vec::new(); g.nodes.len()];

    // Name index: fn name → node indices.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in g.nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(i);
    }
    // Struct name → defining file index (for `Type::fn` pinning).
    let mut struct_file: BTreeMap<&str, usize> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for s in &f.parsed.structs {
            struct_file.entry(s.name.as_str()).or_insert(fi);
        }
    }
    // File index by rel path.
    let file_idx: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel.as_str(), i))
        .collect();

    // Edges.
    for (fi, f) in files.iter().enumerate() {
        for (ci, c) in f.parsed.calls.iter().enumerate() {
            let Some(local_fn) = c.in_fn else { continue };
            let from = g.node_of[&(fi, local_fn)];
            let Some(cands) = by_name.get(c.callee.as_str()) else {
                g.stats.calls_unresolved += 1;
                continue;
            };
            // Dependency filter: a call in crate A only resolves into A
            // itself or a crate A depends on.
            let dep_ok = |n: &usize| -> bool {
                let Some(caller) = f.class.crate_name.as_deref() else {
                    return true;
                };
                let Some(allowed) = deps.get(caller) else {
                    return true;
                };
                match g.nodes[*n].crate_name.as_deref() {
                    Some(callee) => callee == caller || allowed.contains(callee),
                    None => true,
                }
            };
            let cands: Vec<usize> = cands.iter().copied().filter(|n| dep_ok(n)).collect();
            let targets = resolve(&g.nodes, &cands, c, f, &struct_file, &file_idx);
            if targets.is_empty() {
                g.stats.calls_unresolved += 1;
                continue;
            }
            g.stats.calls_resolved += 1;
            for to in targets {
                g.succ[from].push(to);
                g.edges.push(Edge {
                    from,
                    to,
                    call_idx: ci,
                });
            }
        }
    }
    for s in &mut g.succ {
        s.sort_unstable();
        s.dedup();
    }
    g.stats.functions = g.nodes.len();
    g.stats.edges = g.succ.iter().map(|s| s.len()).sum();
    g
}

/// The resolution ladder for one call site.
fn resolve(
    nodes: &[Node],
    cands: &[usize],
    c: &CallSite,
    fview: &SourceFile,
    struct_file: &BTreeMap<&str, usize>,
    file_idx: &BTreeMap<&str, usize>,
) -> Vec<usize> {
    // Std-vocabulary method names never resolve to workspace functions
    // at any tier (see STD_METHODS).
    if c.method && STD_METHODS.contains(&c.callee.as_str()) {
        return Vec::new();
    }
    // `Type::fn(...)`: pin through impl blocks when the qualifier names
    // a type with a matching `impl` anywhere, else through the type's
    // defining file. `Self::fn(...)` substitutes the caller's own impl
    // type, and a `use … as` alias the segment it renames. A qualifier
    // that matches nothing in the workspace (OnceLock, Mutex, f64, …) is
    // an external type: the call resolves to nothing rather than falling
    // through to every same-named workspace fn.
    if let Some(q) = &c.qual {
        let q = fview.parsed.use_aliases.get(q).unwrap_or(q);
        let caller_impl = c
            .in_fn
            .and_then(|k| fview.parsed.fns.get(k))
            .and_then(|d| d.impl_type.clone());
        let q = if q == "Self" {
            match &caller_impl {
                Some(t) => t.clone(),
                None => return Vec::new(),
            }
        } else {
            q.clone()
        };
        let q = &q;
        let impl_hits: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&n| nodes[n].impl_type.as_deref() == Some(q.as_str()))
            .collect();
        if !impl_hits.is_empty() {
            return impl_hits;
        }
        // `module::fn(...)`: an inline `mod module { … }` match, or the
        // file whose stem is the module name (`simd::axpy` → the
        // file-level `axpy` in `simd.rs`, not `avx::axpy` next to it).
        let mod_hits: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&n| match &nodes[n].module {
                Some(m) => m == q,
                None => nodes[n].file_stem == *q,
            })
            .collect();
        if !mod_hits.is_empty() {
            return mod_hits;
        }
        if let Some(&sfi) = struct_file.get(q.as_str()) {
            let same: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&n| file_idx.get(nodes[n].file.as_str()) == Some(&sfi))
                .collect();
            if !same.is_empty() {
                return same;
            }
        }
        // `crate_alias::fn(...)`: match the crate whose name ends with
        // the qualifier (`prof` / `ptatin_prof` → crate `prof`).
        let qn = q.strip_prefix("ptatin_").unwrap_or(q);
        let crate_hits: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&n| nodes[n].crate_name.as_deref() == Some(qn))
            .collect();
        if !crate_hits.is_empty() {
            return crate_hits;
        }
        // No tier recognized the qualifier: an external (std) type.
        return Vec::new();
    }

    // Receiver-typed method calls (`x.apply(..)`) are where dynamic
    // dispatch lives: the receiver's type is invisible to this parser,
    // so the complete-biased answer is every `impl` method of that name
    // anywhere in the workspace (plus same-file free functions — local
    // helper style), not the nearest same-named definition. Without
    // this, `.apply()` inside gmg.rs pins to gmg's own `apply` and the
    // trait impls in operator.rs become unreachable. Ubiquitous names
    // are still gated by COMMON_METHODS above.
    if c.method && !COMMON_METHODS.contains(&c.callee.as_str()) {
        let impl_hits: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&n| nodes[n].impl_type.is_some() || nodes[n].file == fview.rel)
            .collect();
        if !impl_hits.is_empty() {
            return impl_hits;
        }
    }

    // Same file first — and within the file, the caller's own inline
    // module before siblings: a file-level `dot3(...)` call must not
    // link to the same-named kernel inside `mod avx` next to it (and
    // vice versa), or every portable/AVX pair cross-links.
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&n| nodes[n].file == fview.rel)
        .collect();
    if !same_file.is_empty() {
        let caller_module = c
            .in_fn
            .and_then(|k| fview.parsed.fns.get(k))
            .and_then(|d| d.module.clone());
        let same_module: Vec<usize> = same_file
            .iter()
            .copied()
            .filter(|&n| nodes[n].module == caller_module)
            .collect();
        return if same_module.is_empty() {
            same_file
        } else {
            same_module
        };
    }
    // Then same crate.
    if fview.class.crate_name.is_some() {
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&n| nodes[n].crate_name == fview.class.crate_name)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
    }
    // Workspace-wide, except for ubiquitous method names, which are
    // overwhelmingly std calls.
    if c.method && COMMON_METHODS.contains(&c.callee.as_str()) {
        return Vec::new();
    }
    cands.to_vec()
}

impl CallGraph {
    /// Node index for `(file_index, fn_idx)`.
    pub fn node(&self, file: usize, fn_idx: usize) -> Option<usize> {
        self.node_of.get(&(file, fn_idx)).copied()
    }

    /// Reverse adjacency: `preds()[n]` = nodes that call node `n`.
    pub(crate) fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (from, succ) in self.succ.iter().enumerate() {
            for &to in succ {
                preds[to].push(from);
            }
        }
        preds
    }

    /// Forward reachability from `starts` (inclusive). Returns the set
    /// and, for path reconstruction, the BFS parent of each reached
    /// node.
    pub fn reachable(&self, starts: &[usize]) -> (BTreeSet<usize>, BTreeMap<usize, usize>) {
        let mut seen: BTreeSet<usize> = starts.iter().copied().collect();
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<usize> = starts.to_vec();
        while let Some(n) = queue.pop() {
            for &m in &self.succ[n] {
                if seen.insert(m) {
                    parent.insert(m, n);
                    queue.push(m);
                }
            }
        }
        (seen, parent)
    }

    /// Human-readable call path `start → … → target` using BFS parents.
    pub fn path_names(&self, parent: &BTreeMap<usize, usize>, target: usize) -> String {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(&p) = parent.get(&cur) {
            chain.push(p);
            cur = p;
            if chain.len() > 32 {
                break;
            }
        }
        chain.reverse();
        chain
            .iter()
            .map(|&n| self.nodes[n].name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(files: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::new(rel, src))
            .collect();
        let g = build(&sources, &CrateDeps::new());
        (sources, g)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.name == name).unwrap()
    }

    #[test]
    fn same_file_preferred_over_other_crates() {
        let (_o, g) = mk(&[
            ("crates/a/src/lib.rs", "fn f() { h(); }\nfn h() {}"),
            ("crates/b/src/lib.rs", "fn h() {}"),
        ]);
        let f = idx(&g, "f");
        assert_eq!(g.succ[f].len(), 1);
        assert_eq!(g.nodes[g.succ[f][0]].file, "crates/a/src/lib.rs");
    }

    #[test]
    fn cross_crate_fallback_links_all_candidates() {
        let (_o, g) = mk(&[
            ("crates/a/src/lib.rs", "fn f() { x.apply(); }"),
            ("crates/b/src/lib.rs", "fn apply() {}"),
            ("crates/c/src/lib.rs", "fn apply() {}"),
        ]);
        let f = idx(&g, "f");
        assert_eq!(g.succ[f].len(), 2);
    }

    #[test]
    fn common_method_names_do_not_link_cross_crate() {
        let (_o, g) = mk(&[
            ("crates/a/src/lib.rs", "fn f() { v.push(1); }"),
            ("crates/b/src/lib.rs", "fn push() {}"),
        ]);
        let f = idx(&g, "f");
        assert!(g.succ[f].is_empty());
        // …but a same-crate candidate still links.
        let (_o, g) = mk(&[(
            "crates/a/src/lib.rs",
            "fn f(p: &mut P) { p.push(1); }\nfn push() {}",
        )]);
        let f = idx(&g, "f");
        assert_eq!(g.succ[f].len(), 1);
    }

    #[test]
    fn type_qualified_calls_pin_through_impl() {
        let (_o, g) = mk(&[
            (
                "crates/a/src/lib.rs",
                "struct W;\nimpl W { fn open() {} }\nfn f() { W::open(); }",
            ),
            ("crates/b/src/lib.rs", "fn open() {}"),
        ]);
        let f = idx(&g, "f");
        assert_eq!(g.succ[f].len(), 1);
        assert_eq!(g.nodes[g.succ[f][0]].file, "crates/a/src/lib.rs");
    }

    #[test]
    fn crate_qualified_calls_pin_to_crate() {
        let (_o, g) = mk(&[
            ("crates/a/src/lib.rs", "fn f() { prof::scope(\"x\"); }"),
            ("crates/prof/src/lib.rs", "fn scope() {}"),
            ("crates/b/src/lib.rs", "fn scope() {}"),
        ]);
        let f = idx(&g, "f");
        assert_eq!(g.succ[f].len(), 1);
        assert_eq!(g.nodes[g.succ[f][0]].file, "crates/prof/src/lib.rs");
    }

    #[test]
    fn module_qualified_calls_pin_to_inline_module_or_file_stem() {
        // `avx::axpy` picks the fn inside `mod avx`; `simd::axpy` picks
        // the file-level fn in simd.rs, NOT the avx one beside it and
        // NOT the same-named dispatching fn in another file.
        let (_o, g) = mk(&[
            (
                "crates/la/src/simd.rs",
                "pub fn axpy() { unsafe { avx::axpy() } }\nmod avx { pub unsafe fn axpy() {} }",
            ),
            (
                "crates/la/src/vec_ops.rs",
                "pub fn axpy() { simd::axpy(); }",
            ),
        ]);
        let wrapper = g
            .nodes
            .iter()
            .position(|n| n.name == "axpy" && n.file.ends_with("simd.rs") && n.module.is_none())
            .unwrap();
        let avx = g
            .nodes
            .iter()
            .position(|n| n.module.as_deref() == Some("avx"))
            .unwrap();
        let vec_ops = g
            .nodes
            .iter()
            .position(|n| n.file.ends_with("vec_ops.rs"))
            .unwrap();
        assert_eq!(g.succ[wrapper], vec![avx]);
        assert_eq!(g.succ[vec_ops], vec![wrapper]);
    }

    #[test]
    fn use_aliases_resolve_to_the_renamed_module() {
        let (_o, g) = mk(&[
            (
                "crates/la/src/krylov.rs",
                "use crate::vec_ops as v;\nuse crate::{simd as s, par};\nuse std::io::Write as _;\n\
                 fn gcr() { v::axpy(); s::dot(); }",
            ),
            ("crates/la/src/vec_ops.rs", "pub fn axpy() {}"),
            ("crates/la/src/simd.rs", "pub fn dot() {}"),
        ]);
        let gcr = idx(&g, "gcr");
        let callees: Vec<&str> = g.succ[gcr]
            .iter()
            .map(|&n| g.nodes[n].file.as_str())
            .collect();
        assert_eq!(
            callees,
            vec!["crates/la/src/vec_ops.rs", "crates/la/src/simd.rs"]
        );
    }

    #[test]
    fn reachability_and_paths() {
        let (_o, g) = mk(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn d() {}",
        )]);
        let a = idx(&g, "a");
        let c = idx(&g, "c");
        let d = idx(&g, "d");
        let (seen, parent) = g.reachable(&[a]);
        assert!(seen.contains(&c));
        assert!(!seen.contains(&d));
        assert_eq!(g.path_names(&parent, c), "a -> b -> c");
    }
}
