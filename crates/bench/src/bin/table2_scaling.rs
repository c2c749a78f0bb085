//! Table II of the paper: Krylov iterations, coarse-solve setup/apply time
//! and full Stokes solve time as the mesh is refined and the subdomain
//! ("core") count grows, for the three SpMV representations
//! (Asmb / MF / Tens).
//!
//! Substitution note (DESIGN.md §1): the paper's 64³–192³ grids on
//! 192–12288 MPI ranks become laptop-scale grids with the subdomain count
//! standing in for ranks (it controls block-solver granularity and the
//! work/communication split); the reproduction target is the *relative*
//! behaviour — Tens < MF < Asmb in time, mildly growing iteration counts,
//! small coarse-solver setup cost.
//!
//! Run: `cargo run --release -p ptatin-bench --bin table2_scaling [--quick]`

use ptatin_bench::{
    levels_for, paper_gmg_config, reference_solver, sinker_setup, write_csv, Args, Reference,
};
use ptatin_core::solver::SetupCache;
use ptatin_core::KrylovOperatorChoice;
use ptatin_la::krylov::KrylovConfig;
use ptatin_la::par;
use ptatin_ops::OperatorKind;

fn main() {
    let args = Args::parse();
    ptatin_prof::enable();
    let grids: Vec<usize> = if args.quick() {
        vec![4, 8]
    } else {
        vec![8, 12, 16]
    };
    let cores: Vec<usize> = if args.quick() { vec![1] } else { vec![1, 8] };
    let kinds = [
        OperatorKind::Assembled,
        OperatorKind::MatrixFree,
        OperatorKind::Tensor,
    ];
    println!(
        "# Table II reproduction — sinker, 3-level GMG, Galerkin coarsest, SA-AMG coarse solve"
    );
    println!(
        "{:>6} {:>6} {:>6} {:>5} {:>11} {:>11} {:>11}",
        "grid", "cores", "kind", "its", "crs setup s", "crs apply s", "solve s"
    );
    println!("{}", ptatin_bench::rule(66));
    let mut rows = Vec::new();
    for &m in &grids {
        let levels = levels_for(m, 3);
        for &c in &cores {
            par::set_num_threads(c);
            for kind in kinds {
                let (model, fields) = sinker_setup(m, levels, 1e4);
                let gmg = paper_gmg_config(levels);
                let t_build = std::time::Instant::now();
                let solver = reference_solver(
                    &model.hier,
                    &fields.eta_corner,
                    &model.bcs,
                    &gmg,
                    Reference::Fine(kind),
                    &mut SetupCache::new(),
                );
                let _setup = t_build.elapsed().as_secs_f64();
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
                let solve_s = t0.elapsed().as_secs_f64();
                let crs_setup = solver.timers.coarse_setup_seconds;
                let crs_apply = solver.mg.coarse_apply_seconds();
                println!(
                    "{:>5}³ {:>6} {:>6} {:>5} {:>11.3} {:>11.3} {:>11.3}{}",
                    m,
                    c,
                    kind.label(),
                    stats.iterations,
                    crs_setup,
                    crs_apply,
                    solve_s,
                    if stats.converged { "" } else { "  (!)" }
                );
                rows.push(format!(
                    "{m},{c},{},{},{crs_setup:.4},{crs_apply:.4},{solve_s:.4},{}",
                    kind.label(),
                    stats.iterations,
                    stats.converged
                ));
            }
        }
    }
    par::set_num_threads(0);
    let path = write_csv(
        "table2_scaling.csv",
        "grid,cores,kind,iterations,coarse_setup_s,coarse_apply_s,solve_s,converged",
        &rows,
    );
    println!("\nwrote {}", path.display());
    println!("\npaper shape: Tens < MF < Asmb solve time at every size; iteration");
    println!("counts increase mildly with refinement (fixed 3-level hierarchy);");
    println!("coarse setup stays a small fraction of the solve.");
    if let Some(p) = ptatin_bench::finish_prof("table2_prof.json") {
        println!("wrote {}", p.display());
    }
}
