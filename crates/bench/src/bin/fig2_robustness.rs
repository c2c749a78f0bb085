//! Fig. 2 of the paper: convergence history of the vertical momentum
//! residual and the pressure (incompressibility) residual for increasing
//! viscosity contrast Δη on the sinker problem.
//!
//! The paper's observation to reproduce: the iteration starts with a large
//! vertical momentum residual, the pressure residual must rise to the same
//! order before momentum begins to converge, and larger Δη delays that
//! equilibration (slower convergence), because the preconditioned operator
//! is non-normal.
//!
//! Run: `cargo run --release -p ptatin-bench --bin fig2_robustness [--quick]`

use ptatin_bench::{levels_for, paper_gmg_config, sinker_setup, write_csv, Args};
use ptatin_core::KrylovOperatorChoice;
use ptatin_la::krylov::KrylovConfig;

fn main() {
    let args = Args::parse();
    let m = args.get_usize("m", if args.quick() { 8 } else { 16 });
    let contrasts = if args.quick() {
        vec![1e2, 1e4]
    } else {
        vec![1e2, 1e4, 1e6]
    };
    println!("# Fig. 2 reproduction — sinker at {m}^3, V(2,2) GMG, lower-triangular PC");
    let levels = levels_for(m, 3);
    let mut rows = Vec::new();
    let mut its_per_contrast = Vec::new();
    for &de in &contrasts {
        let (model, fields) = sinker_setup(m, levels, de);
        let gmg = paper_gmg_config(levels);
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let nu = solver.nu;
        let mut x = vec![0.0; solver.nu + solver.np];
        let mut history: Vec<(usize, f64, f64, f64)> = Vec::new();
        {
            let mut monitor = |it: usize, rnorm: f64, r: &[f64]| {
                // Vertical (z) momentum residual and pressure residual.
                let mut rw = 0.0;
                for n in 0..nu / 3 {
                    rw += r[3 * n + 2] * r[3 * n + 2];
                }
                let rp: f64 = r[nu..].iter().map(|v| v * v).sum();
                history.push((it, rw.sqrt(), rp.sqrt(), rnorm));
            };
            // High contrasts converge slowly (the point of the figure):
            // give GCR a long recurrence so stagnation-by-restart does not
            // mask the physics (the paper's Fig. 2 runs to >10³ iterations).
            let (restart, max_it) = if args.quick() { (50, 400) } else { (200, 1200) };
            let stats = solver.solve(
                &rhs,
                &mut x,
                &KrylovConfig::default()
                    .with_rtol(1e-5)
                    .with_max_it(max_it)
                    .with_restart(restart),
                KrylovOperatorChoice::Picard,
                Some(&mut monitor),
            );
            its_per_contrast.push((de, stats.iterations, stats.converged));
        }
        println!();
        println!("## Δη = {de:.0e}");
        println!("{:>5} {:>14} {:>14} {:>14}", "it", "|F_w|", "|F_p|", "|F|");
        for (it, rw, rp, rn) in history.iter().step_by(history.len().div_ceil(15).max(1)) {
            println!("{it:>5} {rw:>14.6e} {rp:>14.6e} {rn:>14.6e}");
        }
        if let Some((it, rw, rp, rn)) = history.last() {
            println!("{it:>5} {rw:>14.6e} {rp:>14.6e} {rn:>14.6e}  (final)");
        }
        for (it, rw, rp, rn) in &history {
            rows.push(format!("{de:e},{it},{rw:e},{rp:e},{rn:e}"));
        }
        // The paper's qualitative signature: the pressure residual rises
        // from (near) zero to the order of the momentum residual early on.
        let rp0 = history.first().map(|h| h.2).unwrap_or(0.0);
        let rp_max = history.iter().map(|h| h.2).fold(0.0f64, f64::max);
        println!("pressure residual growth: {rp0:.3e} -> peak {rp_max:.3e}");
    }
    println!();
    println!("# iterations to 1e-5 (paper: counts grow with Δη):");
    for (de, its, conv) in &its_per_contrast {
        println!("  Δη = {de:>8.0e}: {its} iterations (converged: {conv})");
    }
    let path = write_csv(
        "fig2_robustness.csv",
        "delta_eta,iteration,residual_w,residual_p,residual_total",
        &rows,
    );
    println!("\nwrote {}", path.display());
}
