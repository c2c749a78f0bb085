//! `ptatin-audit`: the workspace invariant checker (DESIGN.md §10).
//!
//! This repo's risk sits in two hand-rolled unsafe layers — the
//! condvar-parked worker pool (`ptatin-la::par`) and the SoA/AVX2
//! batched kernel (`ptatin-ops::batch`) — whose correctness arguments
//! (disjoint ranges, lane alignment, fixed float-fusion order, no
//! allocation per apply) previously lived only in comments. PETSc
//! encodes the same class of contract as `--with-debugging` asserts and
//! nightly lint harnesses; this crate is the Rust equivalent: an in-repo
//! static-analysis pass (no `syn`, no dependencies) that turns each
//! invariant into a machine-checkable rule with an explicit allowlist
//! grammar, plus an `unsafe` inventory emitted to `output/audit.json`.
//!
//! One pipeline, the same for a workspace scan and a single file
//! ([`rules::analyze`]):
//!
//! | module     | stage |
//! |------------|-------|
//! | [`lex`]    | tokens, comments and attribute lines of each file |
//! | [`parse`]  | fns, structs, calls, test regions and fn ownership per token |
//! | [`graph`]  | the workspace call graph over the parsed fns |
//! | [`passes`] | the ten rules of [`rules`] over all of the above |
//! | [`baseline`], [`json`] | the suppression ledger and the inventory document |
//!
//! The runtime half of the story is the `pool-sanitizer` cargo feature
//! in `ptatin-la`, which executes the pool's safety argument as
//! assertions on every dispatch.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod graph;
pub mod json;
pub mod lex;
pub mod parse;
pub mod passes;
pub mod rules;

pub use passes::PassStats;
pub use rules::{analyze, classify, FileClass, Finding, Rule, UnsafeSite};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Schema identifier for the inventory document (v2: call-graph stats
/// and per-rule finding counts joined the unsafe inventory).
pub const SCHEMA: &str = "audit-v2";

/// Relative path of the inventory file under the workspace root.
pub const INVENTORY_PATH: &str = "output/audit.json";

#[derive(Debug)]
pub enum Error {
    Io(PathBuf, std::io::Error),
    /// Inventory file malformed or out of date (message, details).
    Inventory(String),
    /// Baseline file missing, hand-edited (checksum mismatch), or
    /// carrying stale suppressions. `--check` maps this to exit code 2:
    /// a tampered gate is a harder failure than a new finding.
    Baseline(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(p, e) => write!(f, "{}: {e}", p.display()),
            Error::Inventory(m) => write!(f, "inventory: {m}"),
            Error::Baseline(m) => write!(f, "baseline: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Aggregated result of scanning a workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub files_scanned: usize,
    pub callgraph: graph::GraphStats,
    pub passes: PassStats,
}

impl Report {
    /// Findings grouped by rule id, for the summary table.
    pub fn counts_by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for f in &self.findings {
            *m.entry(f.rule.id()).or_insert(0) += 1;
        }
        m
    }
}

/// Scan every Rust source tree the rules apply to: `src/` and `tests/`
/// of each workspace crate plus the root package's — the integration
/// test trees join the scan in v2 so the SIMD-parity pass can see the
/// bitwise equivalence suites. Path-scoped rules still skip non-library
/// code via [`rules::classify`]; `target/`, `output/`, and fixture
/// corpora are skipped entirely.
pub fn scan_workspace(root: &Path) -> Result<Report, Error> {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in ["src", "tests"] {
        let d = root.join(dir);
        if d.is_dir() {
            collect_rs(&d, &mut files)?;
        }
    }
    let mut deps = graph::CrateDeps::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries = std::fs::read_dir(&crates).map_err(|e| Error::Io(crates.clone(), e))?;
        let mut members: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for m in members {
            for dir in ["src", "tests"] {
                let d = m.join(dir);
                if d.is_dir() {
                    collect_rs(&d, &mut files)?;
                }
            }
            if let (Some(name), Ok(manifest)) = (
                m.file_name().map(|n| n.to_string_lossy().to_string()),
                std::fs::read_to_string(m.join("Cargo.toml")),
            ) {
                deps.insert(name, manifest_deps(&manifest));
            }
        }
    }
    files.sort();
    let mut sources: Vec<SourceFile> = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        let src = std::fs::read_to_string(&path).map_err(|e| Error::Io(path.clone(), e))?;
        sources.push(SourceFile::new(&rel, &src));
    }
    Ok(audit(&sources, &deps))
}

/// One scanned source file: lexed and parsed once, read by every rule.
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    pub class: FileClass,
    pub lexed: lex::Lexed,
    pub parsed: parse::Parsed,
}

impl SourceFile {
    pub(crate) fn new(rel: &str, src: &str) -> Self {
        let lexed = lex::lex(src);
        let parsed = parse::parse(&lexed);
        let rel = rel.replace('\\', "/");
        SourceFile {
            class: classify(&rel),
            rel,
            lexed,
            parsed,
        }
    }
}

/// The audit: build the call graph over `sources` and run every rule.
pub(crate) fn audit(sources: &[SourceFile], deps: &graph::CrateDeps) -> Report {
    let g = graph::build(sources, deps);
    let out = passes::run(sources, &g);
    Report {
        findings: out.findings,
        unsafe_sites: out.unsafe_sites,
        files_scanned: sources.len(),
        callgraph: g.stats,
        passes: out.stats,
    }
}

/// Workspace-internal dependencies of one crate manifest: every
/// `ptatin-X` key under `[dependencies]`/`[dev-dependencies]`, by short
/// name (the key up to its first `=` or `.`). A line scan, not a TOML
/// parser — the workspace manifests are uniform `ptatin-x.workspace =
/// true` or `ptatin-x = { path = "../x" }` entries.
fn manifest_deps(manifest: &str) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
            continue;
        }
        if !in_deps {
            continue;
        }
        if let Some(key) = line.split(['=', '.']).next() {
            let key = key.trim();
            if let Some(short) = key.strip_prefix("ptatin-") {
                out.insert(short.to_string());
            }
        }
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), Error> {
    let entries = std::fs::read_dir(dir).map_err(|e| Error::Io(dir.to_path_buf(), e))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().map(|n| n.to_string_lossy().to_string());
        if p.is_dir() {
            if matches!(name.as_deref(), Some("target" | "output" | "fixtures")) {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Render the inventory as the canonical `audit-v2` JSON document:
/// unsafe sites (as in v1) plus call-graph statistics and per-rule
/// finding counts. Content is a pure function of the scan (no
/// timestamps, no host data, sorted keys and sites), so regeneration is
/// idempotent.
pub fn render_inventory(rep: &Report) -> String {
    use json::Value;
    let sites: Vec<Value> = rep
        .unsafe_sites
        .iter()
        .map(|s| {
            Value::obj(vec![
                ("file", Value::Str(s.file.clone())),
                ("line", Value::Num(s.line as f64)),
                ("kind", Value::Str(s.kind.to_string())),
                ("justification", Value::Str(s.justification.clone())),
            ])
        })
        .collect();
    let by_kind: BTreeMap<&str, usize> =
        rep.unsafe_sites.iter().fold(BTreeMap::new(), |mut m, s| {
            *m.entry(s.kind).or_insert(0) += 1;
            m
        });
    let counts = Value::Obj(
        by_kind
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Num(v as f64)))
            .collect(),
    );
    let callgraph = Value::obj(vec![
        ("functions", Value::Num(rep.callgraph.functions as f64)),
        ("edges", Value::Num(rep.callgraph.edges as f64)),
        (
            "calls_resolved",
            Value::Num(rep.callgraph.calls_resolved as f64),
        ),
        (
            "calls_unresolved",
            Value::Num(rep.callgraph.calls_unresolved as f64),
        ),
        ("hot_entries", Value::Num(rep.passes.hot_entries as f64)),
        (
            "dispatch_sites",
            Value::Num(rep.passes.dispatch_sites as f64),
        ),
        ("simd_kernels", Value::Num(rep.passes.simd_kernels as f64)),
        ("bitwise_tests", Value::Num(rep.passes.bitwise_tests as f64)),
    ]);
    let by_rule = rep.counts_by_rule();
    let findings_by_rule = Value::Obj(
        Rule::ALL
            .iter()
            .map(|r| {
                (
                    r.id().to_string(),
                    Value::Num(by_rule.get(r.id()).copied().unwrap_or(0) as f64),
                )
            })
            .collect(),
    );
    Value::obj(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        ("generated_by", Value::Str("ptatin-audit".to_string())),
        (
            "confined_to",
            Value::Arr(
                rules::UNSAFE_CRATES
                    .iter()
                    .map(|c| Value::Str(c.to_string()))
                    .collect(),
            ),
        ),
        ("callgraph", callgraph),
        ("findings_by_rule", findings_by_rule),
        ("unsafe_total", Value::Num(rep.unsafe_sites.len() as f64)),
        ("unsafe_by_kind", counts),
        ("unsafe_sites", Value::Arr(sites)),
    ])
    .render()
}

/// Validate a parsed inventory document against the `audit-v2` schema.
/// Returns the list of violations (empty means valid).
pub fn validate_inventory(doc: &json::Value) -> Vec<String> {
    let mut errs = Vec::new();
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some(s) if s == SCHEMA => {}
        Some(s) => errs.push(format!("schema is {s:?}, expected {SCHEMA:?}")),
        None => errs.push("missing string field `schema`".to_string()),
    }
    match doc.get("callgraph") {
        None => errs.push("missing object field `callgraph`".to_string()),
        Some(cg) => {
            for key in [
                "functions",
                "edges",
                "calls_resolved",
                "calls_unresolved",
                "hot_entries",
                "dispatch_sites",
                "simd_kernels",
                "bitwise_tests",
            ] {
                if cg.get(key).and_then(|v| v.as_f64()).is_none() {
                    errs.push(format!("callgraph: missing numeric field `{key}`"));
                }
            }
        }
    }
    match doc.get("findings_by_rule") {
        None => errs.push("missing object field `findings_by_rule`".to_string()),
        Some(fr) => {
            for r in Rule::ALL {
                if fr.get(r.id()).and_then(|v| v.as_f64()).is_none() {
                    errs.push(format!(
                        "findings_by_rule: missing numeric field `{}`",
                        r.id()
                    ));
                }
            }
        }
    }
    let total = doc.get("unsafe_total").and_then(|v| v.as_f64());
    if total.is_none() {
        errs.push("missing numeric field `unsafe_total`".to_string());
    }
    let Some(sites) = doc.get("unsafe_sites").and_then(|v| v.as_arr()) else {
        errs.push("missing array field `unsafe_sites`".to_string());
        return errs;
    };
    if let Some(t) = total {
        if t as usize != sites.len() {
            errs.push(format!(
                "unsafe_total {t} does not match {} listed sites",
                sites.len()
            ));
        }
    }
    for (i, s) in sites.iter().enumerate() {
        let file = s.get("file").and_then(|v| v.as_str());
        match file {
            None => errs.push(format!("site {i}: missing string field `file`")),
            Some(f) => {
                let cls = rules::classify(f);
                if !cls
                    .crate_name
                    .as_deref()
                    .is_some_and(|c| rules::UNSAFE_CRATES.contains(&c))
                {
                    errs.push(format!(
                        "site {i}: {f} lies outside the unsafe-confined crates {:?}",
                        rules::UNSAFE_CRATES
                    ));
                }
            }
        }
        if s.get("line")
            .and_then(|v| v.as_f64())
            .is_none_or(|l| l < 1.0)
        {
            errs.push(format!("site {i}: missing or non-positive `line`"));
        }
        match s.get("kind").and_then(|v| v.as_str()) {
            Some("block" | "fn" | "impl" | "trait") => {}
            other => errs.push(format!("site {i}: bad `kind` {other:?}")),
        }
        match s.get("justification").and_then(|v| v.as_str()) {
            Some(j) if j.trim().len() >= 3 => {}
            _ => errs.push(format!(
                "site {i}: empty `justification` (every unsafe site needs a SAFETY comment)"
            )),
        }
    }
    errs
}

/// Compare the on-disk inventory with a freshly rendered one. `Ok(())`
/// means the file exists, parses, validates against the schema, and is
/// byte-identical to regeneration.
pub fn check_inventory(root: &Path, rep: &Report) -> Result<(), Error> {
    let path = root.join(INVENTORY_PATH);
    let text = std::fs::read_to_string(&path).map_err(|e| Error::Io(path.clone(), e))?;
    let doc = json::parse(&text)
        .map_err(|e| Error::Inventory(format!("{} does not parse: {e}", path.display())))?;
    let schema_errs = validate_inventory(&doc);
    if !schema_errs.is_empty() {
        return Err(Error::Inventory(format!(
            "{} fails {SCHEMA} validation:\n  {}",
            path.display(),
            schema_errs.join("\n  ")
        )));
    }
    let fresh = render_inventory(rep);
    if text != fresh {
        return Err(Error::Inventory(format!(
            "{} is stale; run `cargo run -p ptatin-audit -- --fix-inventory`",
            path.display()
        )));
    }
    Ok(())
}

/// Write the inventory to `output/audit.json` under `root`.
pub fn write_inventory(root: &Path, rep: &Report) -> Result<(), Error> {
    let dir = root.join("output");
    std::fs::create_dir_all(&dir).map_err(|e| Error::Io(dir.clone(), e))?;
    let path = root.join(INVENTORY_PATH);
    std::fs::write(&path, render_inventory(rep)).map_err(|e| Error::Io(path, e))
}

/// Apply the checked-in baseline to `rep.findings` and return the
/// findings it does not suppress. A missing/hand-edited baseline or a
/// stale suppression entry is `Error::Baseline` (exit code 2 in the
/// CLI): the gate itself is broken and must be re-blessed, which is a
/// different failure from a genuinely new finding (exit code 1).
pub fn apply_baseline(root: &Path, rep: &Report) -> Result<Vec<Finding>, Error> {
    let path = root.join(baseline::BASELINE_PATH);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(Error::Baseline(format!(
                "{} is missing; run `cargo run -p ptatin-audit -- --bless`",
                path.display()
            )))
        }
        Err(e) => return Err(Error::Io(path, e)),
    };
    let entries =
        baseline::parse(&text).map_err(|e| Error::Baseline(format!("{}: {e}", path.display())))?;
    let (unsuppressed, stale) = baseline::apply(&rep.findings, &entries);
    if !stale.is_empty() {
        let list: Vec<String> = stale
            .iter()
            .map(|e| format!("{}\t{}\t{}", e.rule, e.file, e.context))
            .collect();
        return Err(Error::Baseline(format!(
            "{} carries {} stale suppression(s) whose finding no longer exists;\n  \
             {}\nrun `cargo run -p ptatin-audit -- --bless` to drop them",
            path.display(),
            stale.len(),
            list.join("\n  ")
        )));
    }
    Ok(unsuppressed)
}

/// Regenerate the baseline from the current findings (what `--bless`
/// does). Creates `output/` if needed.
pub fn write_baseline(root: &Path, rep: &Report) -> Result<(), Error> {
    let dir = root.join("output");
    std::fs::create_dir_all(&dir).map_err(|e| Error::Io(dir.clone(), e))?;
    let path = root.join(baseline::BASELINE_PATH);
    let text = baseline::render(&baseline::from_findings(&rep.findings));
    std::fs::write(&path, text).map_err(|e| Error::Io(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_renders_and_validates() {
        let rep = Report {
            unsafe_sites: vec![UnsafeSite {
                file: "crates/la/src/par.rs".to_string(),
                line: 10,
                kind: "block",
                justification: "ranges are disjoint".to_string(),
            }],
            files_scanned: 1,
            ..Report::default()
        };
        let text = render_inventory(&rep);
        let doc = json::parse(&text).expect("inventory parses");
        assert!(validate_inventory(&doc).is_empty());
        // Idempotent: rendering is a pure function of the report.
        assert_eq!(text, render_inventory(&rep));
    }

    #[test]
    fn validation_rejects_bad_documents() {
        let bad = json::parse(r#"{"schema": "audit-v0"}"#).expect("parses");
        let errs = validate_inventory(&bad);
        assert!(errs.iter().any(|e| e.contains("audit-v0")));
        assert!(errs.iter().any(|e| e.contains("unsafe_sites")));

        let escaped = json::parse(
            r#"{"schema": "audit-v1", "unsafe_total": 1, "unsafe_sites": [
                {"file": "crates/mg/src/gmg.rs", "line": 5, "kind": "block",
                 "justification": "should not be here"}]}"#,
        )
        .expect("parses");
        let errs = validate_inventory(&escaped);
        assert!(
            errs.iter()
                .any(|e| e.contains("outside the unsafe-confined")),
            "{errs:?}"
        );

        let empty_just = json::parse(
            r#"{"schema": "audit-v1", "unsafe_total": 1, "unsafe_sites": [
                {"file": "crates/la/src/par.rs", "line": 5, "kind": "block",
                 "justification": ""}]}"#,
        )
        .expect("parses");
        assert!(validate_inventory(&empty_just)
            .iter()
            .any(|e| e.contains("justification")));
    }
}
