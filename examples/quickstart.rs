//! Quickstart: solve one variable-viscosity Stokes problem with the
//! matrix-free geometric multigrid solver.
//!
//! This is the paper's sinker configuration (§IV-A) at laptop scale: eight
//! dense, viscous spheres sinking through a weak ambient fluid in a unit
//! cube with free-slip walls and a free surface on top.
//!
//! Run with: `cargo run --release --example quickstart`

use ptatin3d::core::models::sinker::{SinkerConfig, SinkerModel};
use ptatin3d::core::{GmgConfig, KrylovOperatorChoice};

fn main() {
    // 1. Describe the model: 8³ Q2 elements, viscosity contrast 10⁴,
    //    three multigrid levels (the model's solver, deepened by one).
    let defaults = SinkerConfig::default();
    let model = SinkerModel::new(SinkerConfig {
        m: 8,
        levels: 3,
        delta_eta: 1e4,
        gmg: GmgConfig {
            levels: 3,
            ..defaults.gmg
        },
        ..defaults
    });
    println!(
        "mesh: {}³ Q2 elements = {} velocity + {} pressure dofs, {} material points",
        model.cfg.m,
        3 * model.hier.finest().num_nodes(),
        4 * model.hier.finest().num_elements(),
        model.points.len(),
    );

    // 2. Project material-point properties (viscosity, density) onto the
    //    FEM coefficient fields (Eqs. 12–13 of the paper).
    let fields = model.coefficients();

    // 3. Build the solver: the default SIMD-batched tensor-product kernel
    //    on both smoothed levels (no matrix above the coarse one), Galerkin
    //    coarsest operator, Chebyshev(2)/Jacobi smoothing, sparse Cholesky
    //    as the coarse-grid solver.
    let solver = model.build_solver(&fields, &model.cfg.gmg);
    println!(
        "solver: {}-level GMG, setup {:.2}s",
        solver.mg.num_levels(),
        solver.timers.setup_seconds
    );

    // 4. Solve the coupled system with GCR and the block-lower-triangular
    //    field-split preconditioner (Eq. 17), with the sinker's Krylov
    //    settings (`SinkerModel::solve` runs steps 2–4 in one call).
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let t0 = std::time::Instant::now();
    let stats = solver.solve(
        &rhs,
        &mut x,
        &SinkerModel::krylov_config(),
        KrylovOperatorChoice::Picard,
        None,
    );
    println!(
        "solve: {} GCR iterations in {:.2}s (converged: {}, |r|/|r0| = {:.2e})",
        stats.iterations,
        t0.elapsed().as_secs_f64(),
        stats.converged,
        stats.final_residual / stats.initial_residual
    );

    // 5. Inspect the flow: the spheres sink, the ambient fluid returns.
    let (u, p) = x.split_at(solver.nu);
    let mut w_min = f64::INFINITY;
    let mut w_max = f64::NEG_INFINITY;
    for n in 0..solver.nu / 3 {
        w_min = w_min.min(u[3 * n + 2]);
        w_max = w_max.max(u[3 * n + 2]);
    }
    let p_range = p
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |acc, &v| {
            (acc.0.min(v), acc.1.max(v))
        });
    println!("vertical velocity range: [{w_min:.3e}, {w_max:.3e}] (sinking + return flow)");
    println!(
        "pressure coefficient range: [{:.3e}, {:.3e}]",
        p_range.0, p_range.1
    );
    assert!(stats.converged && w_min < 0.0 && w_max > 0.0);
    println!("ok");
}
