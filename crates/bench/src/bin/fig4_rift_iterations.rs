//! Fig. 4 of the paper: nonlinear and linear solver effort per time step
//! of the continental rifting run — total Newton iterations, total Krylov
//! iterations and the running average of Krylov iterations per step.
//!
//! The paper's signature to reproduce: the first few steps need the most
//! nonlinear iterations (the free surface equilibrates an initially
//! inconsistent buoyancy/topography state), after which 1–3 Newton
//! iterations per step suffice even though yielding stays active.
//!
//! Run: `cargo run --release -p ptatin-bench --bin fig4_rift_iterations [--quick] [steps=20]`

use ptatin_bench::{write_csv, Args};
use ptatin_core::models::rift::{RiftConfig, RiftModel};

fn main() {
    let args = Args::parse();
    let steps = args.get_usize("steps", if args.quick() { 5 } else { 20 });
    let (mx, my, mz) = if args.quick() { (6, 2, 4) } else { (12, 4, 8) };
    println!("# Fig. 4 reproduction — rift model {mx}x{my}x{mz} elements, {steps} steps");
    println!("# (paper: 256x32x128 over 1500-2000 steps on 512 cores)");
    // The model defaults carry the paper's solver configuration (V(3,3),
    // Newton max 5, tolerances scaled to this non-dimensionalization)
    // except for the coarse solve, which they factor exactly where the
    // paper runs CG+ASM(ILU0) capped at 25 its.
    let cfg = RiftConfig {
        mx,
        my,
        mz,
        levels: 2,
        ..RiftConfig::default()
    };
    let mut model = RiftModel::new(cfg);
    println!(
        "{:>5} {:>9} {:>8} {:>7} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "step", "time", "dt", "newton", "krylov", "kry/new", "yield", "migrate", "wall s"
    );
    println!("{}", ptatin_bench::rule(80));
    let mut rows = Vec::new();
    let mut total_krylov = 0usize;
    let mut total_newton = 0usize;
    for _ in 0..steps {
        let s = model.step();
        total_krylov += s.total_krylov;
        total_newton += s.newton_iterations;
        let per = if s.newton_iterations > 0 {
            s.total_krylov as f64 / s.newton_iterations as f64
        } else {
            0.0
        };
        if args.quick() {
            let h: Vec<String> = s
                .residual_history
                .iter()
                .map(|r| format!("{r:.2e}"))
                .collect();
            println!("      |F|: {}", h.join(" -> "));
        }
        println!(
            "{:>5} {:>9.4} {:>8.4} {:>7} {:>8} {:>8.1} {:>8} {:>9} {:>8.2}{}",
            s.step,
            s.time,
            s.dt,
            s.newton_iterations,
            s.total_krylov,
            per,
            s.yielded_points,
            s.points_migrated,
            s.wall_seconds,
            if s.converged { "" } else { "  (max its)" }
        );
        rows.push(format!(
            "{},{:.5},{:.5},{},{},{},{},{},{:.3},{}",
            s.step,
            s.time,
            s.dt,
            s.newton_iterations,
            s.total_krylov,
            s.yielded_points,
            s.points_migrated,
            s.points_lost,
            s.wall_seconds,
            s.converged
        ));
    }
    println!();
    println!(
        "totals: {total_newton} Newton its, {total_krylov} Krylov its, avg {:.1} Krylov/step",
        total_krylov as f64 / steps as f64
    );
    println!("max topography: {:.4} (scaled units)", {
        let tops = ptatin_core::timestep::surface_heights(&model.mesh, 1);
        tops.iter().fold(f64::NEG_INFINITY, |m, &h| m.max(h)) - 1.0
    });
    let path = write_csv(
        "fig4_rift_iterations.csv",
        "step,time,dt,newton_its,krylov_its,yielded_points,migrated,lost,wall_s,converged",
        &rows,
    );
    println!("wrote {}", path.display());
}
