//! Table III of the paper: computational efficiency in elements per core
//! per second (E/C/s), GF/s per core and aggregate GF/s for
//! (a) "MG res" — residual evaluation on the finest multigrid level (one
//! operator application), and (b) the full Stokes solve, for the three
//! SpMV representations.
//!
//! Run: `cargo run --release -p ptatin-bench --bin table3_efficiency [--quick]`

use ptatin_bench::{
    levels_for, paper_gmg_config, reference_solver, sinker_setup, time_apply, write_csv, Args,
    Reference,
};
use ptatin_core::solver::SetupCache;
use ptatin_core::KrylovOperatorChoice;
use ptatin_la::krylov::KrylovConfig;
use ptatin_ops::{assembled_model, mf_model, tensor_batched_model, tensor_model, OperatorKind};

fn main() {
    let args = Args::parse();
    ptatin_prof::enable();
    let grids: Vec<usize> = if args.quick() { vec![8] } else { vec![8, 16] };
    let cores = 1usize; // physical cores on the reproduction host
    let kinds = [
        OperatorKind::Assembled,
        OperatorKind::MatrixFree,
        OperatorKind::Tensor,
        OperatorKind::TensorBatched,
    ];
    println!("# Table III reproduction — efficiency of MG residual & Stokes solve");
    println!(
        "{:>6} {:>6} {:>6} | {:>11} {:>8} | {:>11} {:>8} {:>9}",
        "kind", "grid", "cores", "res E/C/s", "res GF/s", "slv E/C/s", "slv GF/s", "slv its"
    );
    println!("{}", ptatin_bench::rule(84));
    let mut rows = Vec::new();
    for &m in &grids {
        let levels = levels_for(m, 3);
        let nel = m * m * m;
        for kind in kinds {
            let (model, fields) = sinker_setup(m, levels, 1e4);
            let gmg = paper_gmg_config(levels);
            let solver = match kind {
                OperatorKind::TensorBatched => model.build_solver(&fields, &gmg),
                _ => reference_solver(
                    &model.hier,
                    &fields.eta_corner,
                    &model.bcs,
                    &gmg,
                    Reference::Fine(kind),
                    &mut SetupCache::new(),
                ),
            };
            // (a) "MG res": one fine-level operator application.
            let fine = solver.timers.level_ops.last().expect("fine level");
            let res_s = time_apply(fine.as_ref(), if args.quick() { 3 } else { 10 });
            let flops_per_el = match kind {
                OperatorKind::Assembled => {
                    // Use the true nnz-based model for the assembled op.
                    assembled_model(estimate_nnz(m), nel).flops
                }
                OperatorKind::MatrixFree => mf_model().flops,
                OperatorKind::Tensor => tensor_model().flops,
                OperatorKind::TensorBatched => tensor_batched_model().flops,
                OperatorKind::TensorC => unreachable!(),
            } as f64;
            let res_ecs = nel as f64 / res_s / cores as f64;
            let res_gfs = flops_per_el * nel as f64 / res_s / 1e9;
            // (b) Full Stokes solve.
            solver.timers.reset();
            let rhs = model.rhs(&solver, &fields);
            let mut x = vec![0.0; solver.nu + solver.np];
            let t0 = std::time::Instant::now();
            let stats = solver.solve(
                &rhs,
                &mut x,
                &KrylovConfig::default().with_rtol(1e-5).with_max_it(500),
                KrylovOperatorChoice::Picard,
                None,
            );
            let slv_s = t0.elapsed().as_secs_f64();
            // Solve-level flops estimate: operator applications dominated
            // by the fine level; count fine applications × flops/el × nel.
            let fine_applies = fine.calls() as f64;
            let slv_gfs = flops_per_el * nel as f64 * fine_applies / slv_s / 1e9;
            let slv_ecs = nel as f64 / slv_s / cores as f64;
            println!(
                "{:>6} {:>5}³ {:>6} | {:>11.0} {:>8.2} | {:>11.0} {:>8.2} {:>9}",
                kind.label(),
                m,
                cores,
                res_ecs,
                res_gfs,
                slv_ecs,
                slv_gfs,
                stats.iterations
            );
            rows.push(format!(
                "{},{m},{cores},{res_ecs:.1},{res_gfs:.3},{slv_ecs:.1},{slv_gfs:.3},{}",
                kind.label(),
                stats.iterations
            ));
        }
    }
    let path = write_csv(
        "table3_efficiency.csv",
        "kind,grid,cores,res_elements_per_core_s,res_gflops,solve_elements_per_core_s,solve_gflops,solve_iterations",
        &rows,
    );
    println!("\nwrote {}", path.display());
    println!("\npaper shape: MF faster than Asmb, Tens faster than MF in E/C/s for");
    println!("both events; the tensor kernel's GF/s is lower than MF's for the");
    println!("end-to-end solve because it does ~3.5x fewer flops (paper §IV-B).");
    if let Some(p) = ptatin_bench::finish_prof("table3_prof.json") {
        println!("wrote {}", p.display());
    }
}

/// Estimated nonzeros of the assembled Q2 operator at grid m (exact value
/// depends on boundary layout; this uses the interior stencil average).
fn estimate_nnz(m: usize) -> usize {
    let nodes_per_dim = 2 * m + 1;
    let n = nodes_per_dim * nodes_per_dim * nodes_per_dim;
    3 * n * 150 // conservative average row length × 3 components
}
