#![forbid(unsafe_code)]

//! `ptatin-bench` — the harness that regenerates every table and figure of
//! the paper's evaluation (see DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results).
//!
//! Each `src/bin/*` binary reproduces one exhibit:
//!
//! | binary | exhibit |
//! |---|---|
//! | `table1` | Table I — operator flops/bytes/time (Asmb/MF/Tensor/TensorC) |
//! | `fig1_sinker_field` | Fig. 1 — sinker viscosity/velocity field + streamlines |
//! | `fig2_robustness` | Fig. 2 — residual convergence vs Δη |
//! | `table2_scaling` | Table II — iterations & times vs grid and "cores" |
//! | `table3_efficiency` | Table III — E/C/s, GF/C/s, GF/s |
//! | `table4_comparison` | Table IV — GMG-i/ii vs SA-i, SAML-i/ii |
//! | `fig3_rift_snapshot` | Fig. 3 — rift lithology/strain snapshot |
//! | `fig4_rift_iterations` | Fig. 4 — Newton/Krylov iterations per step |
//! | `rift_crust_study` | §V — margin style vs lower-crust strength |
//! | `ablations` | DESIGN.md trade-offs (smoothing depth, averaging, …) |
//! | `vanka_comparison` | §I — coupled Vanka multigrid vs field split |
//!
//! Binaries accept a `--quick` flag shrinking problem sizes so the full
//! suite runs in minutes on a laptop; absolute numbers are host-specific,
//! the *shape* (who wins, by what factor, where crossovers fall) is the
//! reproduction target. `benches/` holds plain `fn main()` micro-benchmarks
//! (`cargo bench -p ptatin-bench`); end-to-end timings and their
//! regression bounds belong to the repository benchmark (`benchmark/`,
//! `BENCHMARK.json`).

pub mod coupled;
pub mod reference;

pub use reference::{reference_solver, Reference};

use ptatin_core::models::sinker::{SinkerConfig, SinkerModel};
use ptatin_core::{CoarseKind, CoefficientFields, GmgConfig};
use ptatin_la::operator::LinearOperator;
use std::time::Instant;

/// Simple deterministic argument helper: `--quick` plus `key=value` pairs.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    pub fn quick(&self) -> bool {
        self.raw.iter().any(|a| a == "--quick")
    }

    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.raw
            .iter()
            .find_map(|a| a.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.raw
            .iter()
            .find_map(|a| a.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Time `f` over `reps` repetitions after one warmup, returning seconds
/// per repetition.
pub fn time_per_call<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps.max(1) {
        f();
    }
    t0.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// Median-of-3 timing of an operator application.
pub fn time_apply(op: &dyn LinearOperator, reps: usize) -> f64 {
    let n = op.ncols();
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0)
        .collect();
    let mut y = vec![0.0; op.nrows()];
    let mut samples: Vec<f64> = (0..3)
        .map(|_| time_per_call(|| op.apply(&x, &mut y), reps))
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// Build a sinker model + coefficient fields at grid `m` with the given
/// contrast — the common workload of Tables I–IV and Figs. 1–2.
pub fn sinker_setup(m: usize, levels: usize, delta_eta: f64) -> (SinkerModel, CoefficientFields) {
    let model = SinkerModel::new(SinkerConfig {
        m,
        levels,
        delta_eta,
        ..SinkerConfig::default()
    });
    let fields = model.coefficients();
    (model, fields)
}

/// The paper's production GMG configuration (§IV-A): three levels,
/// Galerkin coarsest operator, V(2,2) Chebyshev/Jacobi, SA-AMG coarse
/// solve. The product factors its coarse grid instead; the tables keep the
/// paper's. Their other operator kinds are [`Reference`] hierarchies.
pub fn paper_gmg_config(levels: usize) -> GmgConfig {
    GmgConfig {
        levels,
        coarse: CoarseKind::Amg { coarse_blocks: 4 },
        ..GmgConfig::default()
    }
}

/// Number of geometric levels usable for an `m³` element grid, capped.
pub fn levels_for(m: usize, cap: usize) -> usize {
    let mut levels = 1;
    let mut mm = m;
    while mm % 2 == 0 && mm > 2 && levels < cap {
        mm /= 2;
        levels += 1;
    }
    levels
}

/// Write rows of CSV to `output/<name>` (creating the directory).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::path::PathBuf {
    let dir = std::path::Path::new("output");
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(name);
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    std::fs::write(&path, body).expect("write csv");
    path
}

/// Pretty separator line for table output.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Finish a profiled bench run: print the `-log_view`-style event table to
/// stderr and write the same snapshot as JSON to `output/<name>`.
/// No-op (returns `None`) when the profiler was never enabled.
pub fn finish_prof(json_name: &str) -> Option<std::path::PathBuf> {
    let snap = ptatin_prof::snapshot();
    if snap.events.is_empty() {
        return None;
    }
    ptatin_prof::print_log_view();
    let dir = std::path::Path::new("output");
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(json_name);
    ptatin_prof::write_json(&path).expect("write profiler json");
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_for_grids() {
        assert_eq!(levels_for(8, 3), 3); // 8 → 4 → 2
        assert_eq!(levels_for(12, 3), 3); // 12 → 6 → 3
        assert_eq!(levels_for(16, 3), 3); // capped
        assert_eq!(levels_for(4, 3), 2); // 4 → 2
        assert_eq!(levels_for(6, 3), 2); // 6 → 3
    }

    #[test]
    fn sinker_setup_produces_contrast() {
        // 8³ resolves the R = 0.1 spheres; at 4³ the projection smears
        // them to a ~6x contrast (element width 0.25 vs diameter 0.2).
        let (_m, fields) = sinker_setup(8, 2, 1e4);
        let min = fields.eta_qp.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fields.eta_qp.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1e2, "contrast only {:.1}", max / min);
    }

    #[test]
    fn timing_is_positive() {
        let a = ptatin_la::Csr::identity(100);
        let t = time_apply(&a, 10);
        assert!(t > 0.0);
    }
}
