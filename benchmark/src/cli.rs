//! Command line of the benchmark binary (`run.sh` builds and execs it).
//!
//! ```text
//! ptatin-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ptatin-benchmark [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
//! ptatin-benchmark compare A.json B.json
//! ```
//!
//! The first form is one run of one workload in this process (what the
//! driver invokes): it prints every metric as `workload metric value
//! unit` and, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The second form runs
//! every workload, each run in a process of its own, and writes a result
//! file; the third judges two result files.

use crate::compare;
use crate::spec::{self, Spec};
use crate::suite;
use crate::trace;
use crate::workloads::{self, ensemble, rift, sinker, swarm, Params, RunResult, Workload};
use ptatin3d::prof::json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Scratch, traces and results live here, inside the checkout.
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
    pub out: Option<PathBuf>,
}

fn usage(spec: &Spec) -> i32 {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--runs R] [--smoke] [--out FILE]\n       run.sh compare A.json B.json\n\
         workloads: {}",
        spec.workloads.join(", ")
    );
    2
}

pub fn parse(args: &[String], spec: &Spec) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: f64::NAN,
        trace: false,
        smoke: false,
        runs: 3,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad value `{v}` for `{flag}`");
        match flag.as_str() {
            "--smoke" => o.smoke = true,
            "--workload" => {
                let v = value()?;
                if !spec.workloads.iter().any(|w| w == v) {
                    return Err(format!("unknown workload `{v}`"));
                }
                o.workload = Some(v.to_string());
            }
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v.parse().map_err(|_| bad(v))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--runs" => {
                let v = value()?;
                o.runs = v.parse().ok().filter(|&r| r >= 1).ok_or_else(|| bad(v))?;
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.seconds.is_nan() {
        // A smoke run does one repetition per phase.
        o.seconds = if o.smoke { 0.01 } else { spec.run_seconds };
    }
    Ok(o)
}

fn run<W: Workload>(w: &W, p: &Params, o: &Options) -> RunResult {
    if o.trace {
        workloads::run_traced(w, p, o.seconds)
    } else {
        workloads::run_timed(w, p, o.seconds)
    }
}

/// `None` for a workload `BENCHMARK.json` lists but this binary lacks.
fn run_workload(name: &str, p: &Params, o: &Options) -> Option<RunResult> {
    Some(match name {
        "sinker12" => run(&sinker::Sinker::new(p), p, o),
        "rift_steps" => run(&rift::Rift::new(p), p, o),
        "swarm_advect" => run(&swarm::Swarm::new(p), p, o),
        "ensemble32" => run(&ensemble::Ensemble::new(p), p, o),
        _ => return None,
    })
}

/// `{"value": …, "unit": …}`.
pub fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj(vec![
        ("value", Value::Num(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

/// Print a run's metrics as `workload metric value unit` lines and, last,
/// the result object, which holds exactly the `declared` (name, unit)
/// metrics. A layer the workload does not run reads 0 (`absent_is_zero`);
/// an end-to-end metric must have been measured. Returns the exit code: 0
/// when every output check passed, 1 otherwise (the result is printed
/// either way), 2 when the run and `BENCHMARK.json` name different
/// metrics.
pub fn emit<'a>(
    name: &str,
    result: &RunResult,
    declared: impl Iterator<Item = (&'a str, &'a str)>,
    absent_is_zero: bool,
) -> i32 {
    for msg in &result.messages {
        eprintln!("FAILED CHECK [{name}]: {msg}");
    }
    let mut measured = result.metrics.clone();
    let mut metrics = BTreeMap::new();
    for (metric, unit) in declared {
        let Some(value) = measured.remove(metric).or(absent_is_zero.then_some(0.0)) else {
            eprintln!("BENCHMARK.json declares `{metric}` but the run does not measure it");
            return 2;
        };
        println!("{name} {metric} {value} {unit}");
        metrics.insert(metric.to_string(), metric_json(value, unit));
    }
    if let Some(stray) = measured.keys().next() {
        eprintln!("`{stray}` is measured but BENCHMARK.json does not declare it");
        return 2;
    }
    for (metric, value, unit) in &result.extra {
        println!("{name} {metric} {value} {unit}");
    }
    let line = Value::obj(vec![
        ("correct", Value::Bool(result.failed == 0)),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
    i32::from(result.failed > 0)
}

/// One run of one workload in this process.
fn run_one(name: &str, o: &Options, spec: &Spec) -> i32 {
    // Single-thread baseline: the host has 2 logical CPUs shared with
    // neighbours; thread counts above one gate invariance elsewhere.
    ptatin3d::la::par::set_num_threads(1);
    // Nothing a run leaves behind is read by a later one, and a smoke run
    // (the self-tests start some) never overwrites a real run's files.
    let tag = if o.smoke { "smoke_" } else { "" };
    let pid = std::process::id();
    let params = Params {
        seed: o.seed,
        smoke: o.smoke,
        scratch: PathBuf::from(OUT_DIR).join(format!("{tag}scratch_{name}_{pid}")),
    };
    let Some(result) = run_workload(name, &params, o) else {
        eprintln!("BENCHMARK.json lists `{name}` but this binary has no such workload");
        return 2;
    };
    let _ = std::fs::remove_dir_all(&params.scratch);
    if o.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("{tag}trace_{name}.json"));
        if let Err(e) = std::fs::write(&path, trace::to_json(&result.spans).to_json() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
        let layers = spec.per_layer.iter().map(|(n, u)| (n.as_str(), u.as_str()));
        emit(name, &result, layers, true)
    } else {
        let end_to_end = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()));
        emit(name, &result, end_to_end, false)
    }
}

pub fn main(args: Vec<String>) -> i32 {
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare::main(a.as_ref(), b.as_ref(), &spec),
            _ => usage(&spec),
        };
    }
    let o = match parse(&args, &spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return usage(&spec);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e} (run from the repository root)");
        return 2;
    }
    match &o.workload {
        Some(name) => run_one(name, &o, &spec),
        None => suite::main(&o, &spec),
    }
}
