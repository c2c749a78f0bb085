//! The whole benchmark: every workload, each run in a process of its own
//! (so `peak_rss_mb` and allocator state are per run), `--runs` timed
//! runs on consecutive seeds plus one traced run per workload, gathered
//! into one stamped result file that `compare` can judge.

use crate::cli::{metric_json, Options, OUT_DIR};
use crate::host;
use crate::spec::Spec;
use crate::stats;
use ptatin3d::prof::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

pub const RESULT_SCHEMA: &str = "ptatin-benchmark-v1";

/// All runs of the driver, with their set-up and two builds, must end
/// within this many seconds; the suite holds itself to the same cap.
const CAP_SECONDS: f64 = 3420.0;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// FNV-1a over the sorted paths and contents of `files`.
fn content_hash(mut files: Vec<PathBuf>) -> String {
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", ptatin3d::ckpt::fnv1a64(&bytes))
}

/// Hash of the code under test: `src/**/*.rs`, `crates/*/src/**/*.rs` and
/// the root `Cargo.toml` (a record cannot carry its own commit hash).
pub fn source_hash() -> String {
    let mut files = vec![PathBuf::from("Cargo.toml")];
    rust_files(Path::new("src"), &mut files);
    if let Ok(crates) = std::fs::read_dir("crates") {
        for c in crates.flatten() {
            rust_files(&c.path().join("src"), &mut files);
        }
    }
    content_hash(files)
}

/// Hash of the benchmark itself.
pub fn bench_hash() -> String {
    let mut files = vec![
        PathBuf::from("BENCHMARK.json"),
        PathBuf::from("benchmark/Cargo.toml"),
    ];
    rust_files(Path::new("benchmark/src"), &mut files);
    content_hash(files)
}

/// Every `workload metric value unit` line of a run's output, and the
/// final JSON line.
struct RunOutput {
    lines: BTreeMap<String, (f64, String)>,
    last: Value,
}

fn spawn_run(name: &str, seed: u64, trace: bool, o: &Options) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    // Standard error passes through; `output` waits for the child.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last_line = text.lines().last().unwrap_or("");
    let last = json::parse(last_line)
        .map_err(|e| format!("{name}: last line is not a result ({e}): `{last_line}`"))?;
    if !out.status.success() {
        return Err(format!(
            "{name} seed {seed}: output checks failed: {last_line}"
        ));
    }
    let mut lines = BTreeMap::new();
    for l in text.lines() {
        let f: Vec<&str> = l.split_whitespace().collect();
        if let [w, metric, value, unit] = f[..] {
            if w == name {
                if let Ok(v) = value.parse::<f64>() {
                    lines.insert(metric.to_string(), (v, unit.to_string()));
                }
            }
        }
    }
    Ok(RunOutput { lines, last })
}

fn count(last: &Value, key: &str) -> f64 {
    last.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Median, quartiles and the values themselves of one column of the
/// timed runs.
fn column(timed: &[RunOutput], metric: &str, unit: &str) -> Value {
    let values: Vec<f64> = timed
        .iter()
        .filter_map(|r| r.lines.get(metric).map(|m| m.0))
        .collect();
    let mut entry = vec![
        ("unit", Value::Str(unit.to_string())),
        ("median", Value::Num(stats::median(&values))),
        ("n", Value::Num(values.len() as f64)),
    ];
    if let Some((q1, q3)) = stats::quartiles(&values) {
        entry.push(("q1", Value::Num(q1)));
        entry.push(("q3", Value::Num(q3)));
    }
    entry.push((
        "values",
        Value::Arr(values.into_iter().map(Value::Num).collect()),
    ));
    Value::obj(entry)
}

fn run_workload(name: &str, o: &Options, spec: &Spec) -> Result<Value, String> {
    let mut timed = Vec::new();
    for i in 0..o.runs {
        timed.push(spawn_run(name, o.seed + i as u64, false, o)?);
    }
    let traced = spawn_run(name, o.seed, true, o)?;
    let mut attempted = count(&traced.last, "attempted");
    let mut failed = count(&traced.last, "failed");
    let mut e2e = BTreeMap::new();
    for m in &spec.end_to_end {
        let entry = column(&timed, &m.name, &m.unit);
        let median = entry.get("median").and_then(Value::as_f64);
        println!(
            "{name} {} {} {}",
            m.name,
            median.unwrap_or(f64::NAN),
            m.unit
        );
        e2e.insert(m.name.clone(), entry);
    }
    for r in &timed {
        attempted += count(&r.last, "attempted");
        failed += count(&r.last, "failed");
    }
    let mut layers = BTreeMap::new();
    let mut shares = BTreeMap::new();
    for (metric_name, (value, unit)) in &traced.lines {
        let is_layer = spec.per_layer.iter().any(|(n, _)| n == metric_name);
        // The top-shares table: self time of the traced repetition's
        // spans and the probed `.share` layer metrics.
        let is_share = metric_name.starts_with("share.") || metric_name.ends_with(".share");
        if is_layer || is_share {
            println!("{name} {metric_name} {value} {unit}");
        }
        if is_layer {
            layers.insert(metric_name.clone(), metric_json(*value, unit));
        }
        if is_share && *value > 0.0 {
            shares.insert(metric_name.clone(), Value::Num(*value));
        }
    }
    println!("{name} failed_frac {} ratio", failed / attempted.max(1.0));
    Ok(Value::obj(vec![
        ("attempted", Value::Num(attempted)),
        ("failed", Value::Num(failed)),
        ("failed_frac", Value::Num(failed / attempted.max(1.0))),
        // The host's state during the timed runs (`host::speed_probe`).
        ("host_probe_ms", column(&timed, "host_probe_ms", "ms")),
        ("end_to_end", Value::Obj(e2e)),
        ("per_layer", Value::Obj(layers)),
        ("top_shares", Value::Obj(shares)),
    ]))
}

pub fn main(o: &Options, spec: &Spec) -> i32 {
    let t0 = Instant::now();
    let mut workloads = BTreeMap::new();
    for name in &spec.workloads {
        match run_workload(name, o, spec) {
            Ok(v) => {
                workloads.insert(name.clone(), v);
            }
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let doc = Value::obj(vec![
        ("schema", Value::Str(RESULT_SCHEMA.to_string())),
        // This file measures; a change that claims a gain says so itself.
        ("claim", Value::Null),
        ("source_hash", Value::Str(source_hash())),
        ("bench_hash", Value::Str(bench_hash())),
        ("seed", Value::Num(o.seed as f64)),
        ("runs", Value::Num(o.runs as f64)),
        ("seconds", Value::Num(o.seconds)),
        ("smoke", Value::Bool(o.smoke)),
        ("elapsed_s", Value::Num(elapsed)),
        ("host", host::facts()),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = o.out.clone().unwrap_or_else(|| {
        let tag = if o.smoke { "smoke_" } else { "" };
        PathBuf::from(OUT_DIR).join(format!("{tag}result.json"))
    });
    if let Err(e) = std::fs::write(&path, doc.to_json() + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
        return 1;
    }
    println!("wrote {} after {elapsed:.1} s", path.display());
    if elapsed > CAP_SECONDS {
        eprintln!("the suite took {elapsed:.0} s, more than the cap of {CAP_SECONDS} s");
        return 1;
    }
    0
}
