//! What a warm rebuild inside one nonlinear solve takes over instead of
//! recomputing (DESIGN.md §13):
//!
//! * the batched kernel's geometry pack, built once per geometry and shared
//!   by the level, Newton and residual operators — exact: an operator on a
//!   shared pack is bitwise one that packed its own, on both SIMD paths;
//! * the solve-scoped lag tier of `SetupCache`: between
//!   `begin_nonlinear_solve` and `end_nonlinear_solve` a `CoarseKind::Direct`
//!   build reuses the earlier factor and Chebyshev bounds while the fine
//!   corner viscosity stays within `LAG_DRIFT` of the field they were built
//!   from, and a new solve starts from an empty tier.

use ptatin_core::models::rift::rift_bc;
use ptatin_core::solver::{
    build_stokes_solver_cached, within_drift, CoarseKind, GmgConfig, LagCounts, SetupCache,
    StokesSolver, LAG_DRIFT,
};
use ptatin_fem::assemble::{assemble_gradient, Q2QuadTables};
use ptatin_fem::DirichletBc;
use ptatin_la::csr::Csr;
use ptatin_la::operator::{LinearOperator, Preconditioner};
use ptatin_la::schwarz::DirectSolver;
use ptatin_mesh::hierarchy::MeshHierarchy;
use ptatin_mesh::StructuredMesh;
use ptatin_mg::gmg::GmgCoarseSolver;
use ptatin_ops::{
    avx2_fma_available, BatchedGeometry, BatchedViscousOp, NewtonData, SimdPath, ViscousOpData, NQP,
};
use ptatin_prng::{Rng, StdRng};
use std::sync::Arc;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The next float above `x`.
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

#[test]
fn drift_predicate_reuses_equal_fields_and_fields_at_the_bound() {
    let eta_ref = vec![1.0, 3.5, 1e-3, 2e4];
    assert!(within_drift(&eta_ref, &eta_ref, 0.0));
    assert!(within_drift(&eta_ref, &eta_ref, LAG_DRIFT));
    // `η = η_ref·e^LAG_DRIFT` exactly, above and below the reference.
    let ones = vec![1.0; 4];
    let at_bound = vec![LAG_DRIFT.exp(); 4];
    assert!(within_drift(&at_bound, &ones, LAG_DRIFT));
    assert!(within_drift(&ones, &at_bound, LAG_DRIFT));
}

#[test]
fn drift_predicate_refactors_just_above_the_bound() {
    let ones = vec![1.0; 3];
    let mut eta = ones.clone();
    eta[1] = next_up(LAG_DRIFT.exp());
    assert!(
        !within_drift(&eta, &ones, LAG_DRIFT),
        "growth past the bound"
    );
    assert!(
        !within_drift(&ones, &eta, LAG_DRIFT),
        "decay past the bound"
    );
    // Outside a nonlinear solve the tolerance is 0: one ulp is a change.
    let mut ulp = ones.clone();
    ulp[2] = next_up(1.0);
    assert!(!within_drift(&ulp, &ones, 0.0));
    assert!(!within_drift(&ones, &ulp, 0.0));
}

#[test]
fn drift_predicate_refactors_on_a_length_mismatch_or_invalid_viscosity() {
    let eta_ref = vec![1.0; 4];
    assert!(!within_drift(&eta_ref[..3], &eta_ref, LAG_DRIFT));
    assert!(!within_drift(&eta_ref, &eta_ref[..3], LAG_DRIFT));
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
        let mut eta = eta_ref.clone();
        eta[2] = bad;
        assert!(!within_drift(&eta, &eta_ref, LAG_DRIFT), "{bad} in η");
        assert!(!within_drift(&eta_ref, &eta, LAG_DRIFT), "{bad} in η_ref");
        assert!(!within_drift(&eta, &eta, LAG_DRIFT), "{bad} on both sides");
    }
}

/// A rift box after an ALE step: every column's top moved by up to ±8 %.
fn remeshed_rift(mx: usize, my: usize, mz: usize, seed: u64) -> StructuredMesh {
    let mut mesh = StructuredMesh::new_box(mx, my, mz, [0.0, 6.0], [0.0, 1.0], [0.0, 3.0]);
    let (nx, _, nz) = mesh.node_dims();
    let mut rng = StdRng::seed_from_u64(seed);
    let new_top: Vec<f64> = (0..nx * nz)
        .map(|_| 1.0 + rng.gen_range(-0.08..0.08))
        .collect();
    mesh.remesh_vertical(1, &new_top);
    mesh
}

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Operator data with a log-uniform viscosity over 10⁶ and, optionally, a
/// Newton coefficient.
fn op_data(mesh: &StructuredMesh, bc: &DirichletBc, newton: bool, seed: u64) -> ViscousOpData {
    let nel = mesh.num_elements();
    let mut rng = StdRng::seed_from_u64(seed);
    let eta = (0..nel * NQP)
        .map(|_| 1e6f64.powf(rng.gen_range(0.0..1.0)))
        .collect();
    let data = ViscousOpData::new(mesh, eta, bc);
    if !newton {
        return data;
    }
    data.with_newton(NewtonData {
        eta_prime: (0..nel * NQP).map(|_| rng.gen_range(-0.4..0.0)).collect(),
        d_sym: (0..nel * NQP)
            .map(|_| std::array::from_fn(|_| rng.gen_range(-1.0..1.0)))
            .collect(),
    })
}

/// `apply`, `apply_stokes` and the diagonal of one operator.
fn actions(op: &BatchedViscousOp, b: &Csr) -> Vec<Vec<u64>> {
    let (nu, np) = (op.nrows(), b.nrows());
    let (xu, xp) = (random_vec(nu, 3), random_vec(np, 4));
    let mut y = vec![f64::NAN; nu];
    op.apply(&xu, &mut y);
    let mut yu = vec![f64::NAN; nu];
    let mut yp = vec![f64::NAN; np];
    op.apply_stokes(b, &xu, &xp, &mut yu, &mut yp);
    let diag = op.diagonal().expect("batched diagonal");
    vec![bits(&y), bits(&yu), bits(&yp), bits(&diag)]
}

#[test]
fn an_operator_on_a_shared_geometry_pack_is_bitwise_a_fresh_one() {
    let mesh = remeshed_rift(5, 2, 3, 9);
    let bc = rift_bc(&mesh, 0.5, 0.0);
    let mut b = assemble_gradient(&mesh, &Q2QuadTables::standard());
    b.zero_cols(&bc.dofs);
    // The pack is built from another coefficient and without the Dirichlet
    // set: it depends on the mesh alone.
    let mut unconstrained = op_data(&mesh, &bc, false, 1);
    unconstrained.constrained = Vec::new();
    let geom = Arc::new(BatchedGeometry::new(&unconstrained));
    let mut paths = vec![SimdPath::Portable];
    if avx2_fma_available() {
        paths.push(SimdPath::Avx2Fma);
    }
    for path in paths {
        for (newton, seed) in [(false, 11), (true, 21)] {
            let data = Arc::new(op_data(&mesh, &bc, newton, seed));
            let fresh = BatchedViscousOp::with_path(data.clone(), path);
            let shared = BatchedViscousOp::with_geometry(data, geom.clone(), path);
            assert!(Arc::ptr_eq(shared.geometry(), &geom));
            assert_eq!(
                actions(&fresh, &b),
                actions(&shared, &b),
                "{path:?}, newton = {newton}"
            );
        }
    }
}

fn rift_hierarchy() -> (MeshHierarchy, Vec<DirichletBc>) {
    let hier = MeshHierarchy::new(remeshed_rift(6, 2, 4, 5), 2);
    let bcs = hier.meshes.iter().map(|m| rift_bc(m, 0.5, 0.0)).collect();
    (hier, bcs)
}

fn direct_gmg() -> GmgConfig {
    GmgConfig {
        levels: 2,
        coarse: CoarseKind::Direct,
        ..GmgConfig::default()
    }
}

/// A layered corner viscosity with a smooth lateral variation.
fn corner_eta(hier: &MeshHierarchy) -> Vec<f64> {
    let mesh = hier.finest();
    (0..mesh.num_corners())
        .map(|c| {
            let x = mesh.coords[mesh.corner_to_node(c)];
            10f64.powf(2.0 * x[1] + 0.3 * (x[0] + 0.5 * x[2]).sin())
        })
        .collect()
}

/// `eta` with entry `i` scaled by `factor`.
fn scaled(eta: &[f64], i: usize, factor: f64) -> Vec<f64> {
    let mut out = eta.to_vec();
    out[i] *= factor;
    out
}

fn factor(solver: &StokesSolver) -> Arc<DirectSolver> {
    match &solver.mg.coarse {
        GmgCoarseSolver::Direct(d) => d.clone(),
        _ => panic!("built with CoarseKind::Direct"),
    }
}

fn bounds(solver: &StokesSolver) -> Vec<(f64, f64)> {
    solver
        .mg
        .levels
        .iter()
        .map(|l| l.smoother.lambda_bounds())
        .collect()
}

/// The bits of one V-cycle.
fn vcycle_bits(solver: &StokesSolver) -> Vec<u64> {
    let mut r = random_vec(solver.nu, 7);
    solver.bc.zero_constrained(&mut r);
    let mut z = vec![0.0; solver.nu];
    solver.mg.apply(&r, &mut z);
    bits(&z)
}

#[test]
fn a_nonlinear_solve_lags_within_the_bound_and_the_next_starts_empty() {
    let (hier, bcs) = rift_hierarchy();
    let cfg = direct_gmg();
    let eta0 = corner_eta(&hier);
    let mut cache = SetupCache::new();
    let build = |cache: &mut SetupCache, eta: &[f64]| {
        build_stokes_solver_cached(&hier, eta, &bcs, &cfg, None, cache)
    };

    cache.begin_nonlinear_solve();
    let first = build(&mut cache, &eta0);
    // Within the bound of η_ref: the factor and the bounds carry over.
    let near = scaled(&eta0, 3, 2.0);
    let lagged = build(&mut cache, &near);
    assert!(Arc::ptr_eq(&factor(&first), &factor(&lagged)));
    assert_eq!(bounds(&first), bounds(&lagged));
    assert_eq!(
        cache.lag_counts(),
        LagCounts {
            coarse: 1,
            lambda: 1
        }
    );
    // The drift is measured from the field the reused state was built
    // from, not from the last build: `far` is within the bound of `near`
    // but not of `eta0`.
    let far = scaled(&eta0, 3, 1.5 * LAG_DRIFT.exp());
    assert!(within_drift(&far, &near, LAG_DRIFT));
    assert!(!within_drift(&far, &eta0, LAG_DRIFT));
    let refactored = build(&mut cache, &far);
    assert!(!Arc::ptr_eq(&factor(&first), &factor(&refactored)));
    assert_eq!(
        cache.lag_counts(),
        LagCounts {
            coarse: 1,
            lambda: 1
        }
    );
    cache.end_nonlinear_solve();

    // The next solve starts from an empty tier: its first build refactors
    // even for the viscosity the last build was factored from, and is
    // bitwise a fresh build.
    cache.begin_nonlinear_solve();
    let next = build(&mut cache, &far);
    assert!(!Arc::ptr_eq(&factor(&refactored), &factor(&next)));
    assert_eq!(
        cache.lag_counts(),
        LagCounts {
            coarse: 1,
            lambda: 1
        }
    );
    let fresh = build_stokes_solver_cached(&hier, &far, &bcs, &cfg, None, &mut SetupCache::new());
    assert_eq!(vcycle_bits(&next), vcycle_bits(&fresh));
    assert_eq!(bounds(&next), bounds(&fresh));
    cache.end_nonlinear_solve();
}

#[test]
fn outside_a_nonlinear_solve_the_coarse_factor_is_never_lagged() {
    let (hier, bcs) = rift_hierarchy();
    let cfg = direct_gmg();
    let eta = corner_eta(&hier);
    let mut cache = SetupCache::new();
    let a = build_stokes_solver_cached(&hier, &eta, &bcs, &cfg, None, &mut cache);
    let b = build_stokes_solver_cached(&hier, &eta, &bcs, &cfg, None, &mut cache);
    assert!(!Arc::ptr_eq(&factor(&a), &factor(&b)));
    // Bit-identical η reuses the bounds (tolerance 0): exactly what the
    // power iteration would return.
    assert_eq!(
        cache.lag_counts(),
        LagCounts {
            coarse: 0,
            lambda: 1
        }
    );
    assert_eq!(vcycle_bits(&a), vcycle_bits(&b));
    let near = scaled(&eta, 3, next_up(1.0));
    let c = build_stokes_solver_cached(&hier, &near, &bcs, &cfg, None, &mut cache);
    assert_eq!(
        cache.lag_counts(),
        LagCounts {
            coarse: 0,
            lambda: 1
        }
    );
    let fresh = build_stokes_solver_cached(&hier, &near, &bcs, &cfg, None, &mut SetupCache::new());
    assert_eq!(vcycle_bits(&c), vcycle_bits(&fresh));
}
