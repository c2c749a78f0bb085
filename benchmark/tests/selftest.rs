//! Self-tests of the benchmark's own machinery. The end-to-end ones run
//! the real binary with `--smoke` from the repository root.

use ptatin3d::prof::json::{self, Value};
use ptatin_benchmark::compare::{judge, Verdict};
use ptatin_benchmark::spec::{self, Spec};
use ptatin_benchmark::trace::{self, Span};
use ptatin_benchmark::workloads::{self, rift, Params};
use ptatin_benchmark::{cli, stats};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
        rep: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // root 0..100; children 10..40 and 30..60 overlap (union 10..60),
    // a third 70..80 is disjoint; a grandchild does not count for root.
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)),
        span("c", 70, 80, Some(0)),
        span("a1", 15, 25, Some(1)),
    ];
    assert_eq!(trace::self_ns(&spans, 0), 100 - 50 - 10);
    assert_eq!(trace::self_ns(&spans, 1), 30 - 10);
    assert_eq!(trace::self_ns(&spans, 2), 30);
    assert_eq!(trace::self_ns(&spans, 4), 10);
    // A child reaching past its parent is clipped to the parent.
    let spans = vec![span("root", 0, 100, None), span("late", 90, 150, Some(0))];
    assert_eq!(trace::self_ns(&spans, 0), 90);
    let shares = trace::self_shares(&spans, 0);
    assert_eq!(shares[0].0, "root");
    assert!((shares[0].1 - 0.9).abs() < 1e-12);
}

#[test]
fn coverage_validator_fails_on_a_ten_percent_gap() {
    let covered = vec![
        span("rep", 0, 1000, None),
        span("setup", 0, 300, Some(0)),
        span("solve", 300, 960, Some(0)),
    ];
    let c = trace::validate_coverage(&covered, 0, 0.95).expect("96 % is enough");
    assert!((c - 0.96).abs() < 1e-12);
    let gap = vec![
        span("rep", 0, 1000, None),
        span("setup", 0, 300, Some(0)),
        span("solve", 400, 1000, Some(0)),
    ];
    let err = trace::validate_coverage(&gap, 0, 0.95).unwrap_err();
    assert!(err.contains("0.900"), "{err}");
}

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    assert_eq!(stats::tail_percentile(3), None);
    assert_eq!(stats::tail_percentile(20), None);
    assert_eq!(stats::tail_percentile(32), Some(68));
    assert_eq!(stats::tail_percentile(192), Some(94));
    assert_eq!(stats::tail_percentile(1000), Some(99));
    let v: Vec<f64> = (1..=192).map(f64::from).collect();
    // Nearest rank: ⌈0.94 × 192⌉ = 181, and 11 samples lie beyond it.
    assert_eq!(stats::percentile(&v, 94), 181.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
    // == [3.5, 24.0, 160.0]
    let v: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
    assert_eq!(stats::quartiles(&v), Some((3.5, 160.0)));
    assert_eq!(stats::median(&v), 24.0);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(stats::quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    assert_eq!(stats::quartiles(&[1.0]), None);
}

#[test]
fn compare_verdicts() {
    let base = [10.0, 10.1, 10.2, 10.1, 10.0];
    assert_eq!(judge(&base, &[10.3, 10.2, 10.4], 0.10), Verdict::Ok);
    assert_eq!(judge(&base, &[11.4, 11.3, 11.5], 0.10), Verdict::Regressed);
    // Faster is never a regression.
    assert_eq!(judge(&base, &[5.0, 5.1, 5.05], 0.10), Verdict::Ok);
    // One side scattered wider than the bound: the medians cannot be told apart.
    assert_eq!(
        judge(&base, &[9.0, 12.0, 10.0, 13.0, 8.0], 0.10),
        Verdict::Unresolved
    );
}

fn benchmark_json_text() -> String {
    std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json")
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// At most 16 of letters, digits and `_/%.-`.
fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(m) => m.keys().map(String::as_str).collect(),
        _ => panic!("{v:?} is not an object"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{v:?} has no string `{key}`"))
}

#[test]
fn benchmark_json_keeps_the_name_grammar_and_the_limits() {
    assert!(valid_name("mg.smooth.L1.us") && valid_name("9lives"));
    for bad in ["", "_x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    assert!(valid_unit("GB/s") && valid_unit("%"));
    assert!(!valid_unit("seconds per iteration") && !valid_unit("µs"));

    let raw = benchmark_json_text();
    assert!(raw.len() <= 64 << 10);
    let doc = json::parse(&raw).expect("BENCHMARK.json parses");
    // `Value::Obj` is a sorted map.
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let array = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key);
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let (workloads, e2e, layers) = (array("workloads"), array("end_to_end"), array("per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));

    let mut seen = std::collections::BTreeSet::new();
    let mut fresh_name = |v: &Value| {
        let name = text(v, "name");
        assert!(valid_name(name), "bad name {name:?}");
        assert!(seen.insert(name.to_string()), "{name} is used twice");
    };
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        fresh_name(w);
        let why = text(w, "why");
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
    }
    for m in e2e {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    for m in layers {
        assert_eq!(keys(m), ["better", "name", "unit"]);
    }
    for m in e2e.iter().chain(layers) {
        fresh_name(m);
        assert!(valid_unit(text(m, "unit")), "{m:?}");
        assert!(["lower", "higher"].contains(&text(m, "better")), "{m:?}");
    }
    let setup = e2e.iter().find(|m| text(m, "name") == "setup_s");
    let setup = setup.expect("a `setup_s` metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));

    // The command and the paths stay inside the benchmark's directories.
    let paths: Vec<&str> = array("paths").iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = array("command").iter().filter_map(Value::as_str).collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);

    // What the binary reads from the file is the same vocabulary.
    let spec = Spec::parse(&raw).expect("the binary's reader accepts it");
    assert_eq!(spec.run_seconds, seconds);
    assert_eq!(spec.workloads.len(), workloads.len());
    assert_eq!(spec.end_to_end.len(), e2e.len());
    assert_eq!(spec.per_layer.len(), layers.len());
    for exact in spec::EXACT_COUNTS {
        assert!(spec.per_layer.iter().any(|(n, _)| n == exact), "{exact}");
    }
}

/// Run the real binary on one workload with `--smoke` and return the
/// metrics of its last output line.
fn smoke_metrics(workload: &str, trace: &str) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_ptatin-benchmark"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seed",
            "7",
            "--trace",
            trace,
        ])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = json::parse(stdout.lines().last().expect("a result line")).expect("result json");
    let Value::Obj(top) = &last else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert!(last.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
    let Some(Value::Obj(metrics)) = last.get("metrics") else {
        panic!("no metrics")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload} {name}: {m:?}"
            );
            assert!(m.get("unit").and_then(Value::as_str).is_some());
            (name.clone(), value.unwrap())
        })
        .collect()
}

#[test]
fn every_named_metric_and_workload_appears_in_a_smoke_result_and_vice_versa() {
    let spec = Spec::parse(&benchmark_json_text()).expect("BENCHMARK.json");
    let sorted = |names: Vec<&String>| {
        let mut names: Vec<String> = names.into_iter().cloned().collect();
        names.sort();
        names
    };
    let end_to_end = sorted(spec.end_to_end.iter().map(|m| &m.name).collect());
    let per_layer = sorted(spec.per_layer.iter().map(|m| &m.0).collect());
    // A layer metric no workload ever moves off zero is a name the code
    // does not know. These are zero by design in a smoke run: nothing
    // fails or is lost, and the bandwidth probe stays inside the caches.
    let mut idle: BTreeSet<&str> = per_layer.iter().map(String::as_str).collect();
    for zero in ["ensemble.retries", "mpm.lost", "ops.apply.roofline_frac"] {
        assert!(idle.remove(zero), "{zero} is not declared");
    }
    // An unknown workload is refused by the binary, a metric the code
    // measures but the file does not declare makes it exit with 2.
    for workload in &spec.workloads {
        let timed = smoke_metrics(workload, "0");
        assert_eq!(sorted(timed.keys().collect()), end_to_end);
        assert!(timed.values().all(|&v| v > 0.0), "{workload}: {timed:?}");
        let traced = smoke_metrics(workload, "1");
        assert_eq!(sorted(traced.keys().collect()), per_layer);
        idle.retain(|name| traced[*name] == 0.0);
    }
    assert!(idle.is_empty(), "never measured: {idle:?}");
}

#[test]
fn a_solve_that_cannot_converge_is_counted_as_failed_not_panicked() {
    ptatin3d::la::par::set_num_threads(1);
    let scratch = repo_root().join("benchmark/out/selftest_broken_rift");
    let mut cfg = rift::config(7, true);
    // No Krylov iteration at all: the residual cannot move, every attempt
    // of the recovery ladder stalls and the run aborts. (One iteration
    // still reduces it enough for an acceptable `MaxIterations`.)
    cfg.nonlinear.linear_max_it = 0;
    let params = Params {
        seed: 7,
        smoke: true,
        scratch: scratch.clone(),
    };
    let broken = rift::Rift::with_config(cfg, 2, &params);
    let result = workloads::run_timed(&broken, &params, 0.01);
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(result.failed > 0 && result.failed <= result.attempted);
    assert!(!result.messages.is_empty());
    let spec = Spec::parse(&benchmark_json_text()).expect("BENCHMARK.json");
    let declared = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()));
    assert_eq!(cli::emit("rift_steps", &result, declared, false), 1);
}
