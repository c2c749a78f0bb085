//! Golden-run regression tests.
//!
//! Records the solver behaviour of reference configurations — Krylov
//! iteration counts, nonlinear iteration counts and final residuals —
//! against checked-in golden files under `tests/golden/`. Iteration
//! counts must match exactly; residuals are compared in relative terms so
//! legitimate FP-level refactors don't churn the files.
//!
//! Runs are pinned to one worker thread: iteration counts and residuals
//! are then independent of the CI thread-count matrix
//! (`PTATIN_TEST_THREADS=1/4` both exercise the same golden data).
//!
//! To regenerate after an intentional solver change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_runs
//! ```

use ptatin3d::core::models::rift::{RiftConfig, RiftModel};
use ptatin3d::core::models::solcx::{SolCxConfig, SolCxModel};
use ptatin3d::core::solver::SetupCache;
use ptatin3d::core::{CoarseKind, GmgConfig, KrylovOperatorChoice, NonlinearConfig};
use ptatin_bench::{paper_gmg_config, reference_solver, sinker_setup, Reference};
use ptatin_la::krylov::KrylovConfig;
use ptatin_la::par;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

static NT_LOCK: Mutex<()> = Mutex::new(());

/// Residuals may drift by this relative amount before the test fails.
const RESIDUAL_RTOL: f64 = 1e-6;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Ordered key=value record (text format: `#` comments, one pair per
/// line; no external parser needed).
#[derive(Debug, Default, PartialEq)]
struct Record(BTreeMap<String, String>);

impl Record {
    fn set(&mut self, key: &str, value: impl ToString) {
        self.0.insert(key.to_string(), value.to_string());
    }
    fn set_f64(&mut self, key: &str, value: f64) {
        self.set(key, format!("{value:.12e}"));
    }
    fn load(name: &str) -> Option<Record> {
        let text = std::fs::read_to_string(golden_path(name)).ok()?;
        let mut rec = Record::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .unwrap_or_else(|| panic!("{name}: malformed golden line {line:?}"));
            rec.0.insert(k.trim().to_string(), v.trim().to_string());
        }
        Some(rec)
    }
    fn store(&self, name: &str, header: &str) {
        let dir = golden_path("");
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        let mut out =
            format!("# {header}\n# regenerate: UPDATE_GOLDEN=1 cargo test --test golden_runs\n");
        for (k, v) in &self.0 {
            out.push_str(&format!("{k}={v}\n"));
        }
        std::fs::write(golden_path(name), out).expect("write golden file");
    }
}

/// Compare `got` against the golden `name`: exact match for counts,
/// relative band for `*.residual*` keys. With `UPDATE_GOLDEN=1` the file
/// is rewritten instead.
fn check_golden(name: &str, header: &str, got: &Record) {
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        got.store(name, header);
        eprintln!("golden {name} regenerated");
        return;
    }
    let want = Record::load(name)
        .unwrap_or_else(|| panic!("missing golden file {name}; run UPDATE_GOLDEN=1 to create"));
    let keys: Vec<&String> = want.0.keys().chain(got.0.keys()).collect();
    for key in keys {
        let (w, g) = match (want.0.get(key), got.0.get(key)) {
            (Some(w), Some(g)) => (w, g),
            (w, g) => panic!("{name}: key {key} present in only one side (golden={w:?} run={g:?})"),
        };
        if key.contains("residual") || key.starts_with("error.") {
            let (wf, gf): (f64, f64) = (w.parse().unwrap(), g.parse().unwrap());
            let rel = (gf - wf).abs() / wf.abs().max(1e-300);
            assert!(
                rel <= RESIDUAL_RTOL,
                "{name}: {key} drifted by {rel:.2e} (golden {w}, run {g})"
            );
        } else {
            assert_eq!(w, g, "{name}: {key} changed (golden {w}, run {g})");
        }
    }
}

#[test]
fn golden_sinker_solve() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(1);
    // Direct coarse solve, not the paper's AMG-PCG: with the inexact
    // coarse solve this configuration sits on a GCR near-stagnation
    // plateau at ~1.3e-7 relative residual, where the iteration count is
    // knife-edge sensitive to assembly round-off (23 vs 45 under one-ulp
    // perturbations; DESIGN.md §13). The exact coarse solve removes the
    // plateau and the count (43) is stable to ±1 ulp input changes, so
    // the golden is a real regression signal instead of a coin flip.
    //
    // The fine level is the assembled matrix of the reference hierarchy,
    // which is what this golden has always run (the production matrix-free
    // fine level takes 44 iterations here).
    let gmg = GmgConfig {
        levels: 2,
        coarse: CoarseKind::Direct,
        ..paper_gmg_config(2)
    };
    let (model, fields) = sinker_setup(4, gmg.levels, 1e3);
    let reference = Reference::Fine(ptatin_ops::OperatorKind::Assembled);
    let solver = reference_solver(
        &model.hier,
        &fields.eta_corner,
        &model.bcs,
        &gmg,
        reference,
        &mut SetupCache::new(),
    );
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let stats = solver.solve(
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-8).with_max_it(900),
        KrylovOperatorChoice::Picard,
        None,
    );
    par::set_num_threads(0);
    assert!(stats.converged);
    let mut rec = Record::default();
    rec.set("krylov.iterations", stats.iterations);
    rec.set_f64("residual.initial", stats.initial_residual);
    rec.set_f64("residual.final", stats.final_residual);
    check_golden(
        "sinker_m4_l2_de1e3.txt",
        "sinker m=4 levels=2 delta_eta=1e3, GMG(assembled fine level), direct coarse, Picard, rtol=1e-8, nt=1",
        &rec,
    );
}

/// Solve one SolCx configuration at nt=1 and record iteration count,
/// final residual and analytic L² errors.
fn solcx_record(eta_left: f64, eta_right: f64) -> Record {
    par::set_num_threads(1);
    let report = SolCxModel::new(SolCxConfig {
        mx: 6,
        my: 6,
        mz: 2,
        levels: 2,
        eta_left,
        eta_right,
        rtol: 1e-10,
        max_it: 2000,
    })
    .solve();
    par::set_num_threads(0);
    assert!(report.stats.converged);
    let mut rec = Record::default();
    rec.set("krylov.iterations", report.stats.iterations);
    rec.set_f64("residual.initial", report.stats.initial_residual);
    rec.set_f64("residual.final", report.stats.final_residual);
    rec.set_f64("error.velocity_l2", report.errors.velocity_l2);
    rec.set_f64("error.pressure_l2", report.errors.pressure_l2);
    rec
}

#[test]
fn golden_solcx_iso() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_golden(
        "solcx_iso_6x6x2.txt",
        "solcx 6x6x2 levels=2 eta_left=eta_right=1 (isoviscous), GMG(batched tensor), rtol=1e-10, nt=1",
        &solcx_record(1.0, 1.0),
    );
}

#[test]
fn golden_solcx_vv1e4() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    check_golden(
        "solcx_vv1e4_6x6x2.txt",
        "solcx 6x6x2 levels=2 eta_left=1 eta_right=1e4 (sharp jump), GMG(batched tensor), rtol=1e-10, nt=1",
        &solcx_record(1.0, 1e4),
    );
}

#[test]
fn golden_rift_run() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(1);
    let cfg = RiftConfig {
        mx: 6,
        my: 2,
        mz: 4,
        levels: 2,
        points_per_dim: 2,
        nonlinear: NonlinearConfig {
            max_it: 3,
            linear_max_it: 200,
            ..NonlinearConfig::default()
        },
        gmg: GmgConfig {
            levels: 2,
            coarse: CoarseKind::Direct,
            ..GmgConfig::default()
        },
        ..RiftConfig::default()
    };
    let mut model = RiftModel::new(cfg);
    let mut rec = Record::default();
    const N: usize = 3;
    for step in 1..=N {
        let s = model.step();
        rec.set(&format!("step{step}.newton"), s.newton_iterations);
        rec.set(&format!("step{step}.krylov"), s.total_krylov);
        rec.set_f64(
            &format!("step{step}.residual.final"),
            *s.residual_history.last().unwrap(),
        );
    }
    par::set_num_threads(0);
    rec.set("steps", N);
    rec.set_f64("final.time", model.time);
    check_golden(
        "rift_6x2x4_l2.txt",
        "rift 6x2x4 levels=2 weak crust, 3 steps, nt=1; default GmgConfig: regenerated when a \
         re-linearization began to reuse the coarse factor and Chebyshev bounds of an earlier \
         build of its nonlinear solve while the corner viscosity stays within a factor e \
         (LAG_DRIFT = 1); the final residuals of steps 2 and 3 moved by 2.1e-3 and 1.6e-3, \
         Newton 3/3/3 and Krylov 19/17/15 unchanged",
        &rec,
    );
}
