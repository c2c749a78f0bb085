//! Baseline comparison the paper's introduction frames (§I): multigrid
//! applied *directly to the coupled Stokes problem with Vanka smoothers*
//! versus the paper's field-split (approximate Schur complement) design —
//! "there is no clear consensus as to which is universally superior",
//! though §III-C argues multiplicative smoothers are ill-suited to
//! high-order FEM because every quadrature point is revisited once per
//! overlapping basis function.
//!
//! Both preconditioners drive the same FGMRES iteration on the same sinker
//! problem; reported: iterations, setup time, solve time.
//!
//! Run: `cargo run --release -p ptatin-bench --bin vanka_comparison [--quick]`

use ptatin_bench::coupled::{eta_qp_per_level, CoupledVankaMg};
use ptatin_bench::{levels_for, paper_gmg_config, sinker_setup, write_csv, Args};
use ptatin_core::solver::KrylovOperatorChoice;
use ptatin_la::krylov::{fgmres, KrylovConfig};

fn main() {
    let args = Args::parse();
    let m = args.get_usize("m", if args.quick() { 4 } else { 8 });
    let levels = levels_for(m, 2); // Vanka patch factorization is O(nel·85³)
    println!("# Coupled Vanka-MG vs field-split GMG — sinker at {m}^3, Δη = 1e4\n");
    let kcfg = KrylovConfig::default().with_rtol(1e-5).with_max_it(500);
    let mut rows = Vec::new();

    // Field-split (the paper's design).
    let (model, fields) = sinker_setup(m, levels, 1e4);
    let t0 = std::time::Instant::now();
    let solver = model.build_solver(&fields, &paper_gmg_config(levels));
    let fs_setup = t0.elapsed().as_secs_f64();
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let t1 = std::time::Instant::now();
    let fs = solver.solve(&rhs, &mut x, &kcfg, KrylovOperatorChoice::Picard, None);
    let fs_solve = t1.elapsed().as_secs_f64();

    // Coupled MG with multiplicative Vanka smoothing.
    let eta_qp = eta_qp_per_level(&model.hier, &fields.eta_corner);
    let t2 = std::time::Instant::now();
    let vanka_mg = CoupledVankaMg::new(&model.hier, &eta_qp, &model.bcs, 1.0, 1);
    let vk_setup = t2.elapsed().as_secs_f64();
    let j = vanka_mg.fine_operator();
    let mut xv = vec![0.0; j.nrows()];
    let t3 = std::time::Instant::now();
    let vk = fgmres(j, &vanka_mg, &rhs, &mut xv, &kcfg);
    let vk_solve = t3.elapsed().as_secs_f64();

    println!(
        "{:<24} {:>5} {:>10} {:>10}",
        "preconditioner", "its", "setup s", "solve s"
    );
    println!("{}", ptatin_bench::rule(54));
    println!(
        "{:<24} {:>5} {:>10.3} {:>10.3}{}",
        "field-split GMG (paper)",
        fs.iterations,
        fs_setup,
        fs_solve,
        if fs.converged { "" } else { " (!)" }
    );
    println!(
        "{:<24} {:>5} {:>10.3} {:>10.3}{}",
        "coupled Vanka-MG",
        vk.iterations,
        vk_setup,
        vk_solve,
        if vk.converged { "" } else { " (!)" }
    );
    rows.push(format!(
        "field_split,{},{fs_setup:.4},{fs_solve:.4},{}",
        fs.iterations, fs.converged
    ));
    rows.push(format!(
        "vanka,{},{vk_setup:.4},{vk_solve:.4},{}",
        vk.iterations, vk.converged
    ));
    // Agreement of the two solutions (same discrete system).
    let mut max_diff = 0.0f64;
    for i in 0..x.len() {
        max_diff = max_diff.max((x[i] - xv[i]).abs());
    }
    let scale = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    println!("\nsolution agreement: max |Δ| = {max_diff:.2e} (scale {scale:.2e})");
    println!("\nshape: Vanka-MG converges in far fewer iterations (a much stronger");
    println!("smoother) but pays an O(nel·85³) patch factorization at setup and");
    println!("revisits every overlapping element patch each sweep — the cost structure");
    println!("§III-C warns about, and the part that does not parallelize. At");
    println!("single-node scales the two are competitive — precisely the community");
    println!("split §I describes ('no clear consensus as to which is universally");
    println!("superior'); the field-split design wins on setup, memory and");
    println!("distributed-parallel structure.");
    let path = write_csv(
        "vanka_comparison.csv",
        "preconditioner,iterations,setup_s,solve_s,converged",
        &rows,
    );
    println!("\nwrote {}", path.display());
}
