//! Integration tests of the preconditioner configurations compared in
//! Table IV: every configuration must produce the *same solution* on the
//! same discrete problem (only cost may differ), the Newton operator must
//! degenerate to Picard for linear materials, and the SA-AMG velocity
//! preconditioner must be a drop-in replacement in the field-split frame.

use ptatin_bench::{paper_gmg_config, sinker_setup};
use ptatin_core::models::sinker::sinker_bc;
use ptatin_core::solver::{solve_stokes_with_pc, GmgConfig, KrylovOperatorChoice};
use ptatin_fem::assemble::{PressureMassBlocks, Q2QuadTables};
use ptatin_la::krylov::KrylovConfig;
use ptatin_mg::amg::{build_sa_amg, AmgConfig, CoarseSolverKind};
use ptatin_mg::nullspace::rigid_body_modes;
use ptatin_ops::{assembled_viscous_op, OperatorKind};

fn solve_with(gmg: GmgConfig, m: usize) -> (Vec<f64>, usize) {
    let (model, fields) = sinker_setup(m, gmg.levels, 1e3);
    let solver = model.build_solver(&fields, &gmg);
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let stats = solver.solve(
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-9).with_max_it(900),
        KrylovOperatorChoice::Picard,
        None,
    );
    assert!(stats.converged, "{stats:?}");
    (x, stats.iterations)
}

#[test]
fn gmg_i_and_gmg_ii_agree_on_the_solution() {
    let m = 4;
    let gmg_i = paper_gmg_config(2, OperatorKind::Tensor);
    let gmg_ii = GmgConfig {
        galerkin_intermediate: true,
        ..paper_gmg_config(2, OperatorKind::Assembled)
    };
    let (x1, _) = solve_with(GmgConfig { levels: 2, ..gmg_i }, m);
    let (x2, _) = solve_with(
        GmgConfig {
            levels: 2,
            ..gmg_ii
        },
        m,
    );
    let scale = x1.iter().fold(0.0f64, |a, v| a.max(v.abs()));
    for i in 0..x1.len() {
        assert!(
            (x1[i] - x2[i]).abs() < 1e-6 * scale,
            "solutions diverge at dof {i}"
        );
    }
}

#[test]
fn newton_with_zero_eta_prime_matches_picard() {
    // Constant-viscosity materials: η′ = 0, so the Newton Krylov operator
    // equals the Picard one and both paths converge to the same solution
    // in the same number of iterations.
    let m = 4;
    let (model, fields) = sinker_setup(m, 2, 1e3);
    let gmg = paper_gmg_config(2, OperatorKind::Tensor);
    // Build with explicit zero Newton data.
    let tables = Q2QuadTables::standard();
    let nqp = tables.nqp();
    let mesh = model.hier.finest();
    let newton = ptatin_ops::NewtonData {
        eta_prime: vec![0.0; mesh.num_elements() * nqp],
        d_sym: vec![[0.0; 6]; mesh.num_elements() * nqp],
    };
    let solver = ptatin_core::solver::build_stokes_solver_cached(
        &model.hier,
        &fields.eta_corner,
        &model.bcs,
        &gmg,
        Some(newton),
        &mut ptatin_core::solver::SetupCache::new(),
    );
    let rhs = model.rhs(&solver, &fields);
    let cfg = KrylovConfig::default().with_rtol(1e-8).with_max_it(600);
    let mut xp = vec![0.0; solver.nu + solver.np];
    let sp = solver.solve(&rhs, &mut xp, &cfg, KrylovOperatorChoice::Picard, None);
    let mut xn = vec![0.0; solver.nu + solver.np];
    let sn = solver.solve(
        &rhs,
        &mut xn,
        &cfg,
        KrylovOperatorChoice::NewtonKrylovPicardPc,
        None,
    );
    assert!(sp.converged && sn.converged);
    assert_eq!(
        sp.iterations, sn.iterations,
        "identical operators, identical trajectory"
    );
    let scale = xp.iter().fold(0.0f64, |a, v| a.max(v.abs()));
    for i in 0..xp.len() {
        assert!((xp[i] - xn[i]).abs() < 1e-8 * scale);
    }
}

#[test]
fn sa_amg_velocity_pc_solves_the_same_system() {
    // SA-i of Table IV: AMG as the velocity-block preconditioner inside
    // the same field-split frame; the solution must agree with GMG's.
    let m = 4;
    let (model, fields) = sinker_setup(m, 2, 1e3);
    let (x_ref, _) = solve_with(
        GmgConfig {
            levels: 2,
            ..paper_gmg_config(2, OperatorKind::Tensor)
        },
        m,
    );
    let mesh = model.hier.finest();
    let tables = Q2QuadTables::standard();
    let bc = sinker_bc(mesh);
    let a = assembled_viscous_op(mesh, &tables, &fields.eta_qp, &bc);
    let mask = bc.mask(a.nrows());
    let ns = rigid_body_modes(&mesh.coords, &mask);
    let amg = build_sa_amg(
        a.clone(),
        &ns,
        &AmgConfig {
            block_size: 3,
            max_coarse_size: 400,
            coarse_solver: CoarseSolverKind::DirectLu,
            ..AmgConfig::default()
        },
    );
    let mut b_masked = ptatin_fem::assemble_gradient(mesh, &tables);
    b_masked.zero_cols(&bc.dofs);
    let inv_eta: Vec<f64> = fields.eta_qp.iter().map(|&e| 1.0 / e).collect();
    let schur = PressureMassBlocks::new(mesh, &tables, &inv_eta);
    let mut f_u = ptatin_fem::assemble_body_force(mesh, &tables, &fields.rho_qp, model.gravity);
    bc.zero_constrained(&mut f_u);
    let mut rhs = vec![0.0; a.nrows() + b_masked.nrows()];
    rhs[..a.nrows()].copy_from_slice(&f_u);
    let mut x = vec![0.0; rhs.len()];
    let stats = solve_stokes_with_pc(
        &a,
        &b_masked,
        &schur,
        &amg,
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-9).with_max_it(900),
        None,
    );
    assert!(stats.converged, "{stats:?}");
    let scale = x_ref.iter().fold(0.0f64, |a, v| a.max(v.abs()));
    for i in 0..x.len() {
        assert!(
            (x[i] - x_ref[i]).abs() < 1e-6 * scale,
            "SA-i solution differs at dof {i}: {} vs {}",
            x[i],
            x_ref[i]
        );
    }
}
