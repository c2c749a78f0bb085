//! Integration tests of the solver variants of §III-B/§IV: SCR vs
//! full-space field-split agreement, local (element-wise) conservation of
//! the P1disc discretization, and multigrid iteration scalability.

use ptatin_bench::{levels_for, paper_gmg_config, sinker_setup};
use ptatin_core::solver::{CoarseKind, GmgConfig, KrylovOperatorChoice};
use ptatin_la::krylov::KrylovConfig;
use ptatin_la::vec_ops;

#[test]
fn scr_matches_full_space_solution() {
    let (model, fields) = sinker_setup(4, 2, 1e3);
    let gmg = GmgConfig {
        levels: 2,
        coarse: CoarseKind::Direct,
        ..GmgConfig::default()
    };
    let solver = model.build_solver(&fields, &gmg);
    let rhs = model.rhs(&solver, &fields);
    // Full-space GCR solve.
    let mut x_full = vec![0.0; solver.nu + solver.np];
    let s1 = solver.solve(
        &rhs,
        &mut x_full,
        &KrylovConfig::default().with_rtol(1e-9).with_max_it(800),
        KrylovOperatorChoice::Picard,
        None,
    );
    assert!(s1.converged);
    // Schur-complement reduction.
    let mut x_scr = vec![0.0; solver.nu + solver.np];
    let (s2, inner_its) = solver.solve_scr(
        &rhs,
        &mut x_scr,
        &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        1e-10,
    );
    assert!(s2.converged, "{s2:?}");
    assert!(inner_its > 0);
    // Velocities agree; pressures agree (no nullspace thanks to the free
    // surface).
    let scale = 1.0 + vec_ops::norm_inf(&x_full);
    let mut max_diff = 0.0f64;
    for i in 0..x_full.len() {
        max_diff = max_diff.max((x_full[i] - x_scr[i]).abs());
    }
    assert!(
        max_diff < 1e-5 * scale,
        "SCR and full-space disagree: {max_diff:.3e} (scale {scale:.3e})"
    );
    // SCR is the more expensive path (the paper's trade-off): it spends
    // many inner J_uu iterations per outer step.
    assert!(inner_its as usize > s1.iterations);
}

#[test]
fn solution_is_locally_conservative() {
    // The P1disc constant mode enforces ∫_e ∇·u = 0 per element — the
    // local conservation property §II-B highlights.
    let (model, fields) = sinker_setup(4, 2, 1e4);
    let gmg = GmgConfig {
        levels: 2,
        coarse: CoarseKind::Direct,
        ..GmgConfig::default()
    };
    let solver = model.build_solver(&fields, &gmg);
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let stats = solver.solve(
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-8).with_max_it(800),
        KrylovOperatorChoice::Picard,
        None,
    );
    assert!(stats.converged);
    let mut div = vec![0.0; solver.np];
    solver.b_full.spmv(&x[..solver.nu], &mut div);
    // Velocity scale for the tolerance.
    let uscale = vec_ops::norm_inf(&x[..solver.nu]);
    for e in 0..solver.np / 4 {
        // Constant-mode row = -∫_e ∇·u.
        assert!(
            div[4 * e].abs() < 1e-6 * uscale.max(1.0),
            "element {e} not conservative: {}",
            div[4 * e]
        );
    }
}

#[test]
fn gmg_iterations_stable_under_refinement() {
    // §IV-B: iteration counts increase only mildly as the mesh refines
    // with a fixed number of levels.
    let mut its = Vec::new();
    for m in [4usize, 8] {
        let levels = levels_for(m, 3);
        let (model, fields) = sinker_setup(m, levels, 1e4);
        let solver = model.build_solver(&fields, &paper_gmg_config(levels));
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let stats = solver.solve(
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-5).with_max_it(600),
            KrylovOperatorChoice::Picard,
            None,
        );
        assert!(stats.converged, "m={m}: {stats:?}");
        its.push(stats.iterations);
    }
    assert!(
        (its[1] as f64) < 2.0 * its[0] as f64 + 10.0,
        "iterations blow up under refinement: {its:?}"
    );
}

#[test]
fn higher_contrast_costs_more_iterations() {
    // Fig. 2's quantitative counterpart: iteration counts grow with Δη.
    let mut its = Vec::new();
    for de in [1e2, 1e6] {
        let (model, fields) = sinker_setup(4, 2, de);
        let gmg = GmgConfig {
            levels: 2,
            coarse: CoarseKind::Direct,
            ..GmgConfig::default()
        };
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let stats = solver.solve(
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-5).with_max_it(2000),
            KrylovOperatorChoice::Picard,
            None,
        );
        assert!(stats.converged, "Δη={de}: {stats:?}");
        its.push(stats.iterations);
    }
    assert!(
        its[1] >= its[0],
        "higher contrast should not be easier: {its:?}"
    );
}

#[test]
fn all_coarse_solvers_converge() {
    for coarse in [CoarseKind::Direct, CoarseKind::Amg { coarse_blocks: 2 }] {
        let (model, fields) = sinker_setup(4, 2, 1e3);
        let gmg = GmgConfig {
            levels: 2,
            coarse: coarse.clone(),
            ..GmgConfig::default()
        };
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let stats = solver.solve(
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-5).with_max_it(1500),
            KrylovOperatorChoice::Picard,
            None,
        );
        assert!(stats.converged, "coarse {coarse:?} failed: {stats:?}");
    }
}
