//! The direct coarse solve (DESIGN.md §4, §13): `DirectSolver` factors the
//! coarsest matrix with the sparse envelope Cholesky of `ptatin_la::cholesky`
//! — symbolic phase once per topology in `SetupCache`, numeric phase per
//! build — and densifies only what that factorization rejects.
//!
//! Dense LU with partial pivoting stays as the oracle. The factorization is
//! bitwise reproducible across SIMD paths, thread counts and cache states.

use ptatin_core::models::rift::rift_bc;
use ptatin_core::models::sinker::sinker_bc;
use ptatin_core::solver::{
    build_stokes_solver_cached, CoarseKind, GmgConfig, SetupCache, StokesSolver,
};
use ptatin_fem::assemble::{num_velocity_dofs, Q2QuadTables};
use ptatin_fem::bc::DirichletBc;
use ptatin_fem::pattern::GalerkinQ1Pattern;
use ptatin_la::cholesky::{CholeskySymbolic, FactorError, SparseCholesky};
use ptatin_la::csr::Csr;
use ptatin_la::dense::DenseLu;
use ptatin_la::operator::Preconditioner;
use ptatin_la::par;
use ptatin_la::schwarz::DirectSolver;
use ptatin_la::simd::{avx2_fma_available, runtime_simd_path, SimdPath};
use ptatin_mesh::hierarchy::MeshHierarchy;
use ptatin_mesh::StructuredMesh;
use ptatin_mg::gmg::{galerkin_coarse_q1, GmgCoarseSolver};
use ptatin_prng::{Rng, StdRng};
use std::sync::{Arc, Mutex};

/// Serializes the tests that pin the process-global thread count.
static NT_LOCK: Mutex<()> = Mutex::new(());

fn rift_box() -> StructuredMesh {
    StructuredMesh::new_box(12, 4, 8, [0.0, 6.0], [0.0, 1.0], [0.0, 3.0])
}

fn rift_bcs(hier: &MeshHierarchy) -> Vec<DirichletBc> {
    hier.meshes.iter().map(|m| rift_bc(m, 0.5, 0.0)).collect()
}

fn sinker_bcs(hier: &MeshHierarchy) -> Vec<DirichletBc> {
    hier.meshes.iter().map(sinker_bc).collect()
}

/// The free surface of a rift step: every column's top moved by up to
/// ±8 % of the layer depth.
fn remeshed(mut mesh: StructuredMesh, seed: u64) -> StructuredMesh {
    let (nx, _, nz) = mesh.node_dims();
    let mut rng = StdRng::seed_from_u64(seed);
    let top = mesh.bounding_box().1[1];
    let new_top: Vec<f64> = (0..nx * nz)
        .map(|_| top * (1.0 + rng.gen_range(-0.08..0.08)))
        .collect();
    mesh.remesh_vertical(1, &new_top);
    mesh
}

/// Log-uniform viscosity spanning a contrast of `delta_eta`.
fn contrast_eta(n: usize, delta_eta: f64, seed: u64) -> Vec<f64> {
    let half = 0.5 * delta_eta.log10();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| 10f64.powf(rng.gen_range(-1.0..1.0) * half))
        .collect()
}

/// The coarsest matrix of the default solver build: the Galerkin product
/// of level 1, assembled directly on its corner grid.
fn coarse_matrix(hier: &MeshHierarchy, bcs: &[DirichletBc], delta_eta: f64, seed: u64) -> Csr {
    let tables = Q2QuadTables::standard();
    let mask = bcs[0].mask(num_velocity_dofs(&hier.meshes[0]));
    let pat = GalerkinQ1Pattern::build(&hier.meshes[1], &mask);
    let eta = contrast_eta(
        hier.meshes[1].num_elements() * tables.nqp(),
        delta_eta,
        seed,
    );
    galerkin_coarse_q1(
        &pat,
        &hier.meshes[1],
        &tables,
        &eta,
        runtime_simd_path(),
        &mut Vec::new(),
    )
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// A right-hand side in the range of `a` with a solution of unit scale.
fn rhs_for(a: &Csr, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<f64> = (0..a.nrows()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&x, &mut b);
    b
}

fn relative_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    a.spmv(x, &mut r);
    for (r, b) in r.iter_mut().zip(b) {
        *r -= b;
    }
    norm(&r) / norm(b)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn coarse_matrices_solve_to_rounding_at_every_contrast() {
    let cases: [(&str, MeshHierarchy, fn(&MeshHierarchy) -> Vec<DirichletBc>); 4] = [
        ("rift box", MeshHierarchy::new(rift_box(), 2), rift_bcs),
        (
            "rift remeshed (a)",
            MeshHierarchy::new(remeshed(rift_box(), 5), 2),
            rift_bcs,
        ),
        (
            "rift remeshed (b)",
            MeshHierarchy::new(remeshed(rift_box(), 23), 2),
            rift_bcs,
        ),
        (
            "sinker 12^3, 3 levels",
            MeshHierarchy::new(
                StructuredMesh::new_box(12, 12, 12, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]),
                3,
            ),
            sinker_bcs,
        ),
    ];
    for (what, hier, bc_of) in &cases {
        let bcs = bc_of(hier);
        let mut symbolic: Option<Arc<CholeskySymbolic>> = None;
        for delta_eta in [1.0, 1e6, 1e8] {
            let a = coarse_matrix(hier, &bcs, delta_eta, 41);
            // One symbolic phase serves every viscosity on a mesh.
            let sym = symbolic
                .get_or_insert_with(|| Arc::new(CholeskySymbolic::analyze(&a).unwrap()))
                .clone();
            let chol = SparseCholesky::factor(sym, &a)
                .unwrap_or_else(|e| panic!("{what}, Δη = {delta_eta:e}: {e}"));
            let b = rhs_for(&a, 43);
            let mut x = vec![f64::NAN; a.nrows()];
            chol.solve(&b, &mut x);
            let res = relative_residual(&a, &x, &b);
            assert!(
                res <= 1e-12,
                "{what}, Δη = {delta_eta:e}: ‖Ax − b‖ = {res:.2e} ‖b‖"
            );
            // The production entry point takes the same route.
            let direct = DirectSolver::new(&a);
            assert!(direct.cholesky_factor().is_some(), "{what}: densified");
            let mut z = vec![0.0; a.nrows()];
            direct.apply(&b, &mut z);
            assert!(bits(&z) == bits(&x), "{what}: DirectSolver differs");
        }
    }
}

#[test]
fn solutions_agree_with_the_dense_lu_oracle() {
    // Dense LU is O(n³): the oracle runs on the rift at half resolution
    // (315 unknowns) at every contrast and once at full size.
    let half = MeshHierarchy::new(
        remeshed(
            StructuredMesh::new_box(6, 2, 4, [0.0, 6.0], [0.0, 1.0], [0.0, 3.0]),
            3,
        ),
        2,
    );
    let sinker = MeshHierarchy::new(
        StructuredMesh::new_box(8, 8, 8, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]),
        3,
    );
    let full = MeshHierarchy::new(rift_box(), 2);
    let cases = [
        ("rift 6x2x4", &half, rift_bcs(&half), vec![1.0, 1e6, 1e8]),
        (
            "sinker 8^3",
            &sinker,
            sinker_bcs(&sinker),
            vec![1.0, 1e6, 1e8],
        ),
        ("rift 12x4x8", &full, rift_bcs(&full), vec![1e6]),
    ];
    for (what, hier, bcs, contrasts) in &cases {
        for &delta_eta in contrasts {
            let a = coarse_matrix(hier, bcs, delta_eta, 47);
            let n = a.nrows();
            let b = rhs_for(&a, 53);
            let chol = SparseCholesky::new(&a).unwrap();
            let mut x = vec![0.0; n];
            chol.solve(&b, &mut x);
            let lu = DenseLu::factor(&a.to_dense()).expect("SPD matrix factors");
            let mut y = vec![0.0; n];
            lu.solve(&b, &mut y);
            // Both are backward stable; they differ by the conditioning.
            let diff: Vec<f64> = x.iter().zip(&y).map(|(x, y)| x - y).collect();
            let rel = norm(&diff) / norm(&y);
            assert!(
                rel <= 1e-14 * delta_eta.max(1e2),
                "{what}, Δη = {delta_eta:e}: ‖x − x_LU‖ = {rel:.2e} ‖x_LU‖"
            );
            let (rc, rl) = (relative_residual(&a, &x, &b), relative_residual(&a, &y, &b));
            assert!(
                rc <= 1e-12 && rc <= 10.0 * rl.max(1e-16),
                "{what}: {rc:.2e} vs LU {rl:.2e}"
            );
        }
    }
}

#[test]
fn factor_fill_stays_inside_the_symbolic_envelope() {
    let hier = MeshHierarchy::new(
        StructuredMesh::new_box(6, 2, 4, [0.0, 6.0], [0.0, 1.0], [0.0, 3.0]),
        2,
    );
    let a = coarse_matrix(&hier, &rift_bcs(&hier), 1e6, 59);
    let n = a.nrows();
    let chol = SparseCholesky::new(&a).unwrap();
    let sym = chol.symbolic();
    let (perm, first) = (sym.perm(), sym.row_first());
    // The ordering pays: the envelope is well inside the natural band.
    assert!(sym.envelope_len() < n * n / 4, "{}", sym.envelope_len());
    // Dense Cholesky of P A Pᵀ, textbook ordering.
    let mut l = vec![vec![0.0; n]; n];
    for p in 0..n {
        for q in 0..=p {
            let mut s = a.get(perm[p] as usize, perm[q] as usize);
            for k in 0..q {
                s -= l[p][k] * l[q][k];
            }
            l[p][q] = if p == q { s.sqrt() } else { s / l[q][q] };
        }
    }
    for p in 0..n {
        for q in 0..=p {
            if q < first[p] as usize {
                assert_eq!(l[p][q], 0.0, "fill outside the envelope at ({p},{q})");
                assert_eq!(chol.l(p, q), 0.0);
            } else {
                let tol = 1e-10 * l[p][p].abs().max(l[q][q].abs());
                assert!((chol.l(p, q) - l[p][q]).abs() <= tol, "L({p},{q})");
            }
        }
    }
}

#[test]
fn factor_and_solve_are_bitwise_across_simd_paths_and_thread_counts() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let hier = MeshHierarchy::new(remeshed(rift_box(), 7), 2);
    let bcs = rift_bcs(&hier);
    par::set_num_threads(1);
    let a = coarse_matrix(&hier, &bcs, 1e6, 61);
    let sym = Arc::new(CholeskySymbolic::analyze(&a).unwrap());
    let b = rhs_for(&a, 67);
    let solve_bits = |a: &Csr, path: SimdPath| {
        let chol = SparseCholesky::factor_with_path(sym.clone(), a, path).unwrap();
        let mut x = vec![0.0; a.nrows()];
        chol.solve(&b, &mut x);
        let diag: Vec<f64> = (0..a.nrows()).map(|p| chol.l(p, p)).collect();
        (bits(&x), bits(&diag))
    };
    let reference = solve_bits(&a, SimdPath::Portable);
    for nt in [1, 4] {
        par::set_num_threads(nt);
        // The matrix itself is assembled in parallel; the factorization
        // is serial at every thread count.
        let a = coarse_matrix(&hier, &bcs, 1e6, 61);
        assert!(
            solve_bits(&a, SimdPath::Portable) == reference,
            "portable, nt = {nt}"
        );
        if avx2_fma_available() {
            assert!(
                solve_bits(&a, SimdPath::Avx2Fma) == reference,
                "avx2, nt = {nt}"
            );
        }
    }
    par::set_num_threads(0);
}

fn direct_gmg() -> GmgConfig {
    GmgConfig {
        levels: 2,
        coarse: CoarseKind::Direct,
        ..GmgConfig::default()
    }
}

fn direct_solver(solver: &StokesSolver) -> &DirectSolver {
    match &solver.mg.coarse {
        GmgCoarseSolver::Direct(d) => d,
        _ => panic!("built with CoarseKind::Direct"),
    }
}

/// The bits of a V-cycle and of two coarse solves: everything the cached
/// symbolic phase and the numeric factorization leave their mark on.
fn build_bits(solver: &StokesSolver) -> Vec<u64> {
    let mut r: Vec<f64> = (0..solver.nu)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 50.0)
        .collect();
    solver.bc.zero_constrained(&mut r);
    let mut z = vec![0.0; solver.nu];
    solver.mg.apply(&r, &mut z);
    let coarse = direct_solver(solver);
    let chol = coarse.cholesky_factor().expect("sparse factor");
    let nc = chol.symbolic().n();
    let mut out = bits(&z);
    for seed in [71, 73] {
        let mut rng = StdRng::seed_from_u64(seed);
        let b: Vec<f64> = (0..nc).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x = vec![0.0; nc];
        coarse.apply(&b, &mut x);
        out.extend(bits(&x));
    }
    out
}

#[test]
fn one_cache_through_eta_remesh_and_bc_swap_is_bitwise_fresh() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(1);
    let gmg = direct_gmg();
    let flat = MeshHierarchy::new(rift_box(), 2);
    let bent = MeshHierarchy::new(remeshed(rift_box(), 29), 2);
    let bcs = rift_bcs(&flat);
    // As many constrained dofs as `bcs`, on other faces: free slip on
    // y-max in place of y-min.
    let swapped: Vec<DirichletBc> = flat
        .meshes
        .iter()
        .map(|m| {
            let (_, ny, _) = m.node_dims();
            let mut bc = DirichletBc::new();
            for &d in &rift_bc(m, 0.5, 0.0).dofs {
                let (node, comp) = (d / 3, d % 3);
                let (i, j, k) = m.node_ijk(node);
                let node = if comp == 1 && j == 0 {
                    m.node_index(i, ny - 1, k)
                } else {
                    node
                };
                bc.set(3 * node + comp, 0.0);
            }
            bc
        })
        .collect();
    assert_eq!(swapped[0].len(), bcs[0].len());
    assert_ne!(swapped[0].dofs, bcs[0].dofs);

    let mut rng = StdRng::seed_from_u64(31);
    let eta0: Vec<f64> = (0..flat.finest().num_corners())
        .map(|_| 10f64.powf(rng.gen_range(-3.0..3.0)))
        .collect();
    let eta1: Vec<f64> = eta0.iter().map(|v| 1.5 * v).collect();
    let mut cache = SetupCache::new();
    // `analyzed`: whether the step must run the symbolic phase again.
    let sequence = [
        ("first build", &flat, &bcs, &eta0, true),
        ("viscosity update", &flat, &bcs, &eta1, false),
        ("remesh_vertical", &bent, &bcs, &eta1, false),
        ("other bc set of equal size", &bent, &swapped, &eta1, true),
        ("back", &flat, &bcs, &eta0, true),
    ];
    let mut last: Option<Arc<CholeskySymbolic>> = None;
    for (what, hier, bcs, eta, analyzed) in sequence {
        let fresh = build_stokes_solver_cached(hier, eta, bcs, &gmg, None, &mut SetupCache::new());
        let cached = build_stokes_solver_cached(hier, eta, bcs, &gmg, None, &mut cache);
        assert!(
            build_bits(&fresh) == build_bits(&cached),
            "{what}: cached build differs"
        );
        let sym = direct_solver(&cached)
            .cholesky_factor()
            .expect("the default coarse matrix is SPD: no dense fallback")
            .symbolic()
            .clone();
        if let Some(prev) = &last {
            assert_eq!(!Arc::ptr_eq(prev, &sym), analyzed, "{what}: symbolic reuse");
        }
        last = Some(sym);
    }
    par::set_num_threads(0);
}

#[test]
fn hostile_matrices_take_the_ladder_or_a_typed_error() {
    let n = 12;
    let laplace = |shift: f64| {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0 + shift));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        Csr::from_triplets(n, n, &t)
    };
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
    let finite = |z: &[f64]| z.iter().all(|v| v.is_finite());

    // Indefinite but nonsingular: pivoted LU solves it exactly.
    let indefinite = laplace(-2.5);
    assert!(matches!(
        DirectSolver::try_new(&indefinite),
        Err(FactorError::NonPositivePivot { .. })
    ));
    let solver = DirectSolver::new(&indefinite);
    assert!(solver.cholesky_factor().is_none());
    let mut z = vec![f64::NAN; n];
    solver.apply(&b, &mut z);
    assert!(relative_residual(&indefinite, &z, &b) < 1e-12);

    // Singular: a block whose rows were eliminated without a unit
    // diagonal, and the all-zero matrix. The shift ladder regularizes.
    let mut eliminated = laplace(0.0);
    eliminated.zero_rows_cols_set_identity(&[0, 5]);
    for k in eliminated.indptr[5]..eliminated.indptr[6] {
        eliminated.values[k] = 0.0;
    }
    for a in [eliminated, Csr::zeros(n, n)] {
        assert!(matches!(
            DirectSolver::try_new(&a),
            Err(FactorError::NonPositivePivot { .. })
        ));
        let solver = DirectSolver::new(&a);
        assert!(solver.cholesky_factor().is_none());
        let mut z = vec![f64::NAN; n];
        solver.apply(&b, &mut z);
        assert!(finite(&z), "{z:?}");
    }

    // An all-Dirichlet block is the identity: nothing to fall back from.
    let identity = DirectSolver::new(&Csr::identity(n));
    assert!(identity.cholesky_factor().is_some());
    let mut z = vec![f64::NAN; n];
    identity.apply(&b, &mut z);
    assert!(bits(&z) == bits(&b));

    // A NaN coefficient is refused with its row, not factored.
    let mut poisoned = laplace(0.0);
    let k = poisoned.indptr[7];
    poisoned.values[k] = f64::NAN;
    assert_eq!(
        DirectSolver::try_new(&poisoned).err(),
        Some(FactorError::NonFinite { row: 7 })
    );
    // A stale symbolic phase is recognized, not trusted.
    let sym = Arc::new(CholeskySymbolic::analyze(&laplace(0.0)).unwrap());
    let other = Csr::identity(n);
    assert_eq!(
        SparseCholesky::factor(sym.clone(), &other).err(),
        Some(FactorError::PatternMismatch)
    );
    let solver = DirectSolver::with_symbolic(&other, Some(sym));
    assert!(solver.cholesky_factor().is_some());
}
