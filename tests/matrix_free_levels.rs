//! The multigrid's level rule (DESIGN.md §4): every smoothed level is the
//! batched matrix-free kernel, matrices exist only as Galerkin products,
//! inputs to them, or for the coarse solve — and the assembled reference
//! hierarchy of the bench harness V-cycles like the matrix-free one.

use ptatin_bench::{reference_solver, sinker_setup, Reference};
use ptatin_core::models::sinker::{sinker_bc, SinkerModel};
use ptatin_core::solver::{
    build_stokes_solver_cached, CoarseKind, GmgConfig, KrylovOperatorChoice, SetupCache,
    StokesSolver,
};
use ptatin_fem::bc::DirichletBc;
use ptatin_la::krylov::KrylovConfig;
use ptatin_la::operator::{LinearOperator, Preconditioner};
use ptatin_la::par;
use std::sync::Mutex;

/// Serializes the tests that pin the process-global thread count.
static NT_LOCK: Mutex<()> = Mutex::new(());

fn direct(levels: usize) -> GmgConfig {
    GmgConfig {
        levels,
        coarse: CoarseKind::Direct,
        ..GmgConfig::default()
    }
}

/// Which levels a build through a fresh cache assembled a Q2 matrix for.
fn assembled_levels(model: &SinkerModel, eta: &[f64], gmg: &GmgConfig) -> Vec<bool> {
    let mut cache = SetupCache::new();
    build_stokes_solver_cached(&model.hier, eta, &model.bcs, gmg, None, &mut cache);
    cache.viscous_pattern_levels()
}

#[test]
fn default_levels_hold_no_matrix() {
    for (m, levels) in [(8, 3), (4, 2)] {
        let (model, fields) = sinker_setup(m, levels, 1e3);
        let gmg = GmgConfig {
            levels,
            ..GmgConfig::default()
        };
        // No level ever gets a Q2 sparsity pattern: the smoothed levels are
        // the batched kernel, and the Galerkin coarsest operator comes from
        // the elements of level 1.
        assert_eq!(
            assembled_levels(&model, &fields.eta_corner, &gmg),
            vec![false; levels],
            "default, {levels} levels"
        );
        // A rediscretized coarsest operator is the one matrix assembled.
        let mut only_coarsest = vec![false; levels];
        only_coarsest[0] = true;
        let rediscretized = GmgConfig {
            galerkin_coarsest: false,
            ..gmg
        };
        assert_eq!(
            assembled_levels(&model, &fields.eta_corner, &rediscretized),
            only_coarsest,
            "rediscretized coarsest, {levels} levels"
        );
    }
}

/// The bits of the iterate after a few Krylov iterations: every level
/// operator, smoother bound, transfer and the coarse solve leave their
/// mark on it.
fn solution_bits(solver: &StokesSolver, rhs: &[f64]) -> Vec<u64> {
    let mut x = vec![0.0; solver.nu + solver.np];
    solver.solve(
        rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-12).with_max_it(6),
        KrylovOperatorChoice::Picard,
        None,
    );
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn warm_rebuild_is_bitwise_fresh_across_viscosity_and_config_switches() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(1);
    let (model, fields) = sinker_setup(8, 3, 1e3);
    let bcs: Vec<DirichletBc> = model.hier.meshes.iter().map(sinker_bc).collect();
    let matrix_free = direct(3);
    let deeper = GmgConfig {
        pre_smooth: 3,
        post_smooth: 3,
        ..direct(3)
    };
    let rediscretized = GmgConfig {
        galerkin_coarsest: false,
        ..direct(3)
    };
    let eta0 = fields.eta_corner.clone();
    let eta1: Vec<f64> = eta0.iter().map(|&v| 2.0 * v).collect();
    let rhs = model.rhs(&model.build_solver(&fields, &matrix_free), &fields);

    // One cache through: a first build, a viscosity update (λ memo
    // misses), a frozen viscosity (hits), then the same viscosity under
    // other product configurations — the recovery ladder's deeper
    // smoothing, whose Chebyshev bounds must not come from the V(2,2)
    // build, and a rediscretized coarsest operator, whose pattern the
    // coarse symbolic phase must not take for the Galerkin one — and back.
    let mut cache = SetupCache::new();
    let sequence = [
        ("first build", &eta0, &matrix_free),
        ("viscosity update", &eta1, &matrix_free),
        ("frozen viscosity", &eta1, &matrix_free),
        ("switch to deeper smoothing", &eta1, &deeper),
        ("switch to rediscretized coarsest", &eta1, &rediscretized),
        ("switch back", &eta1, &matrix_free),
    ];
    for (what, eta, gmg) in sequence {
        let build = |cache: &mut SetupCache| {
            build_stokes_solver_cached(&model.hier, eta, &bcs, gmg, None, cache)
        };
        let fresh = solution_bits(&build(&mut SetupCache::new()), &rhs);
        let warm = solution_bits(&build(&mut cache), &rhs);
        assert!(fresh == warm, "{what}: warm rebuild differs from fresh");
    }
    par::set_num_threads(0);
}

#[test]
fn matrix_free_vcycle_matches_assembled_vcycle() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(1);
    let (model, fields) = sinker_setup(8, 3, 1e3);
    let matrix_free = model.build_solver(&fields, &direct(3));
    let reference = Reference::Fine(ptatin_ops::OperatorKind::Assembled);
    let assembled = reference_solver(
        &model.hier,
        &fields.eta_corner,
        &model.bcs,
        &direct(3),
        reference,
        &mut SetupCache::new(),
    );
    let rhs = model.rhs(&matrix_free, &fields);
    let nu = matrix_free.nu;

    let mut z_mf = vec![0.0; nu];
    let mut z_as = vec![0.0; nu];
    matrix_free.mg.apply(&rhs[..nu], &mut z_mf);
    assembled.mg.apply(&rhs[..nu], &mut z_as);
    let scale = z_as.iter().fold(0.0f64, |a, v| a.max(v.abs()));
    let diff = z_mf
        .iter()
        .zip(&z_as)
        .fold(0.0f64, |a, (p, q)| a.max((p - q).abs()));
    assert!(
        diff <= 1e-10 * scale,
        "V-cycles differ by {diff:.2e} (scale {scale:.2e})"
    );

    let its = |solver: &StokesSolver| {
        let mut x = vec![0.0; solver.nu + solver.np];
        let stats = solver.solve(
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-5).with_max_it(500),
            KrylovOperatorChoice::Picard,
            None,
        );
        assert!(stats.converged, "{stats:?}");
        stats.iterations as i64
    };
    let (i_mf, i_as) = (its(&matrix_free), its(&assembled));
    assert!(
        (i_mf - i_as).abs() <= 1,
        "Krylov iterations moved: matrix-free {i_mf}, assembled {i_as}"
    );
    par::set_num_threads(0);
}

/// Pre-smoothing starts from a zero iterate on every level, so it skips
/// the operator application that would compute `A·0` (DESIGN.md §4): the
/// iterate is the general sweep's on a zeroed `x`, the sign of zeros
/// aside, and a cycle applies each level operator once less.
#[test]
fn presmoothing_from_zero_matches_the_general_sweep_and_saves_an_apply() {
    let (model, fields) = sinker_setup(8, 3, 1e3);
    for (pre, post) in [(2, 2), (3, 3), (1, 0)] {
        let gmg = GmgConfig {
            pre_smooth: pre,
            post_smooth: post,
            ..direct(3)
        };
        let solver = model.build_solver(&fields, &gmg);
        for level in &solver.mg.levels {
            let n = level.op.nrows();
            let mut b: Vec<f64> = (0..n)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 50.0)
                .collect();
            b[3] = -0.0;
            let mut x_ref = vec![0.0; n];
            level
                .smoother
                .smooth_with(level.op.as_ref(), &b, &mut x_ref, pre);
            let mut x = vec![0.0; n];
            let (mut r, mut d, mut ad) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            level.smoother.smooth_from_zero(
                level.op.as_ref(),
                &b,
                &mut x,
                pre,
                [&mut r, &mut d, &mut ad],
            );
            for i in 0..n {
                let same = x[i].to_bits() == x_ref[i].to_bits() || (x[i] == 0.0 && x_ref[i] == 0.0);
                assert!(same, "V({pre},{post}) dof {i}: {} vs {}", x[i], x_ref[i]);
            }
        }
        // One V-cycle: pre − 1 applies in the pre-smoother, one residual,
        // `post` in the post-smoother — on every smoothed level.
        solver.timers.reset();
        let mut r: Vec<f64> = (0..solver.nu)
            .map(|i| ((i % 13) as f64 - 6.0) / 6.0)
            .collect();
        solver.bc.zero_constrained(&mut r);
        let mut z = vec![0.0; solver.nu];
        solver.mg.apply(&r, &mut z);
        for (l, op) in solver.timers.level_ops.iter().enumerate() {
            assert_eq!(
                op.calls() as usize,
                pre + post,
                "V({pre},{post}) level {}",
                l + 1
            );
        }
    }
}
