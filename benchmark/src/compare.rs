//! `run.sh compare A.json B.json`: judge result file B against base A.
//!
//! One row per (workload, end-to-end metric) with both medians, the ratio
//! B/A, the bound and a verdict: `ok`, `regressed` (B's median worse than
//! A's by more than the bound) or `unresolved` (the inter-quartile spread
//! of either side is wider than the bound, so the medians cannot be told
//! apart at that resolution, or the host's speed probe moved by more than
//! the bound between the two files, so a difference in seconds cannot be
//! laid at the code's door). Exact-count layer metrics must be equal when
//! both files measured the same code.

use crate::spec::{self, Spec};
use crate::stats;
use crate::suite::RESULT_SCHEMA;
use ptatin3d::prof::json::{self, Value};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric whose lower values are better. A side with a single
/// value has no spread and cannot be `unresolved`.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let too_wide = |v: &[f64]| stats::spread(v).is_some_and(|s| s > bound);
    if too_wide(a) || too_wide(b) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    if (mb - ma) / ma.abs() > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Value::as_str) != Some(RESULT_SCHEMA) {
        return Err(format!("{} is not a {RESULT_SCHEMA} file", path.display()));
    }
    Ok(doc)
}

fn text<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// The runs' values of `workloads.<workload>.<path…>.values`.
fn values(doc: &Value, workload: &str, path: &[&str]) -> Vec<f64> {
    let column = doc.get("workloads").and_then(|w| w.get(workload));
    path.iter()
        .fold(column, |v, key| v.and_then(|v| v.get(key)))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn layer(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compare two parsed result files; prints the table, returns the number
/// of failures (regressions and unequal exact counts).
pub fn compare(a: &Value, b: &Value, spec: &Spec) -> usize {
    let same_code = ["source_hash", "bench_hash", "seed"]
        .iter()
        .all(|k| a.get(k).is_some() && a.get(k) == b.get(k));
    for (side, doc) in [("A", a), ("B", b)] {
        println!(
            "{side}: source {} benchmark {} seed {} runs {}",
            text(doc, "source_hash"),
            text(doc, "bench_hash"),
            doc.get("seed").and_then(Value::as_f64).unwrap_or(f64::NAN),
            doc.get("runs").and_then(Value::as_f64).unwrap_or(f64::NAN),
        );
    }
    println!(
        "{}",
        if same_code {
            "same code, same benchmark, same seed: exact counts must be equal"
        } else {
            "different code, benchmark or seed: exact counts are reported only"
        }
    );
    println!(
        "{:<13} {:<12} {:>12} {:>12} {:>14} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A (base A)", "bound"
    );
    let mut failures = 0;
    for w in &spec.workloads {
        let probe = |doc| stats::median(&values(doc, w, &["host_probe_ms"]));
        let host = probe(b) / probe(a);
        println!("{w:<13} host probe B/A {host:.4}");
        for m in &spec.end_to_end {
            let (metric, bound) = (&m.name, m.bound);
            let (va, vb) = (
                values(a, w, &["end_to_end", metric]),
                values(b, w, &["end_to_end", metric]),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{w:<13} {metric:<12} missing on one side");
                failures += 1;
                continue;
            }
            // Seconds measured on a host that itself moved by more than
            // the bound say nothing about the code.
            let host_moved = m.unit == "s" && (host - 1.0).abs() > bound;
            let verdict = if host_moved {
                Verdict::Unresolved
            } else {
                judge(&va, &vb, bound)
            };
            failures += usize::from(verdict == Verdict::Regressed);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{w:<13} {metric:<12} {ma:>12.5} {mb:>12.5} {:>14.4} {bound:>6}  {}",
                mb / ma,
                verdict.label()
            );
        }
        for metric in spec::EXACT_COUNTS {
            let (ca, cb) = (layer(a, w, metric), layer(b, w, metric));
            if ca != cb {
                println!("{w:<13} {metric}: {ca:?} in A, {cb:?} in B");
                failures += usize::from(same_code);
            }
        }
    }
    failures
}

pub fn main(a: &Path, b: &Path, spec: &Spec) -> i32 {
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let failures = compare(&a, &b, spec);
            if failures > 0 {
                eprintln!("{failures} regressed or unequal");
            }
            i32::from(failures > 0)
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            2
        }
    }
}
