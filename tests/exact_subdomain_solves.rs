//! Exact subdomain solves (DESIGN.md §4, §13): every block of an exact
//! block-Jacobi — the SA-AMG's coarsest solve, the `InexactGmres` blocks —
//! is a `DirectSolver`, i.e. a
//! sparse envelope Cholesky, and only a block that factorization rejects is
//! densified onto the `factor_regularized` ladder from a shift of 1.
//!
//! Dense LU with partial pivoting stays as the oracle, here and nowhere
//! else. The solves are bitwise reproducible across SIMD paths and thread
//! counts.

use ptatin_core::models::rift::rift_bc;
use ptatin_core::models::sinker::{SinkerConfig, SinkerModel};
use ptatin_core::solver::{CoarseKind, GmgConfig};
use ptatin_fem::assemble::{num_velocity_dofs, Q2QuadTables};
use ptatin_fem::bc::DirichletBc;
use ptatin_fem::pattern::GalerkinQ1Pattern;
use ptatin_la::cholesky::{CholeskySymbolic, SparseCholesky};
use ptatin_la::csr::Csr;
use ptatin_la::dense::DenseLu;
use ptatin_la::krylov::{cg, KrylovConfig};
use ptatin_la::operator::{OperatorPc, Preconditioner};
use ptatin_la::par;
use ptatin_la::schwarz::{factor_regularized, AdditiveSchwarz, DirectSolver, SubdomainSolve};
use ptatin_la::simd::{avx2_fma_available, runtime_simd_path, SimdPath};
use ptatin_mesh::hierarchy::MeshHierarchy;
use ptatin_mesh::StructuredMesh;
use ptatin_mg::amg::AmgHierarchy;
use ptatin_mg::gmg::{galerkin_coarse_q1, GmgCoarseSolver};
use ptatin_prng::{Rng, StdRng};
use std::sync::{Arc, Mutex, OnceLock};

/// Serializes the tests that pin the process-global thread count.
static NT_LOCK: Mutex<()> = Mutex::new(());

/// The coarse solve of the benchmark's `sinker12` (Δη = 1e4, three
/// levels, `CoarseKind::Amg { coarse_blocks: 4 }`, here without its
/// jittered material points): the Galerkin coarse matrix and the SA-AMG
/// built on it, with the CG tolerance and iteration cap.
struct SinkerCoarse {
    a: Csr,
    hierarchy: AmgHierarchy,
    rtol: f64,
    max_it: usize,
}

fn sinker_coarse() -> &'static SinkerCoarse {
    static COARSE: OnceLock<SinkerCoarse> = OnceLock::new();
    COARSE.get_or_init(|| {
        let model = SinkerModel::new(SinkerConfig {
            m: 12,
            levels: 3,
            ..SinkerConfig::default()
        });
        let fields = model.coefficients();
        let gmg = GmgConfig {
            coarse: CoarseKind::Amg { coarse_blocks: 4 },
            ..GmgConfig::default()
        };
        let solver = model.build_solver(&fields, &gmg);
        match solver.mg.coarse {
            GmgCoarseSolver::AmgPcg {
                a,
                hierarchy,
                rtol,
                max_it,
            } => SinkerCoarse {
                a,
                hierarchy,
                rtol,
                max_it,
            },
            _ => panic!("built with CoarseKind::Amg"),
        }
    })
}

/// The free surface of a rift step: every column's top moved by up to
/// ±8 % of the layer depth.
fn bent_rift() -> MeshHierarchy {
    let mut mesh = StructuredMesh::new_box(12, 4, 8, [0.0, 6.0], [0.0, 1.0], [0.0, 3.0]);
    let (nx, _, nz) = mesh.node_dims();
    let mut rng = StdRng::seed_from_u64(13);
    let top = mesh.bounding_box().1[1];
    let new_top: Vec<f64> = (0..nx * nz)
        .map(|_| top * (1.0 + rng.gen_range(-0.08..0.08)))
        .collect();
    mesh.remesh_vertical(1, &new_top);
    MeshHierarchy::new(mesh, 2)
}

/// The rift's Galerkin coarse matrix under a log-uniform viscosity of
/// contrast `delta_eta`, assembled on level 1's corner grid.
fn rift_coarse(hier: &MeshHierarchy, delta_eta: f64) -> Csr {
    let bcs: Vec<DirichletBc> = hier.meshes.iter().map(|m| rift_bc(m, 0.5, 0.0)).collect();
    let tables = Q2QuadTables::standard();
    let mask = bcs[0].mask(num_velocity_dofs(&hier.meshes[0]));
    let pat = GalerkinQ1Pattern::build(&hier.meshes[1], &mask);
    let half = 0.5 * delta_eta.log10();
    let mut rng = StdRng::seed_from_u64(41);
    let eta: Vec<f64> = (0..hier.meshes[1].num_elements() * tables.nqp())
        .map(|_| 10f64.powf(rng.gen_range(-1.0..1.0) * half))
        .collect();
    galerkin_coarse_q1(
        &pat,
        &hier.meshes[1],
        &tables,
        &eta,
        runtime_simd_path(),
        &mut Vec::new(),
    )
}

fn random_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn relative_gap(x: &[f64], oracle: &[f64]) -> f64 {
    let diff: Vec<f64> = x.iter().zip(oracle).map(|(x, y)| x - y).collect();
    norm(&diff) / norm(oracle)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The block-Jacobi sets of [`AdditiveSchwarz::block_jacobi`].
fn contiguous_sets(n: usize, blocks: usize) -> Vec<Vec<usize>> {
    par::split_ranges(n, blocks)
        .into_iter()
        .map(|(s, e)| (s..e).collect())
        .collect()
}

/// Block-Jacobi with every block solved by `solve(block, r_block)`.
fn block_jacobi_by(
    a: &Csr,
    sets: &[Vec<usize>],
    r: &[f64],
    mut solve: impl FnMut(&Csr, &[f64]) -> Vec<f64>,
) -> Vec<f64> {
    let mut z = vec![0.0; a.nrows()];
    for dofs in sets {
        let sub = a.extract_principal_submatrix(dofs);
        let rl: Vec<f64> = dofs.iter().map(|&g| r[g]).collect();
        for (&g, zl) in dofs.iter().zip(solve(&sub, &rl)) {
            z[g] += zl;
        }
    }
    z
}

/// The oracle: dense LU with partial pivoting of every block.
fn dense_lu_solve(sub: &Csr, rl: &[f64]) -> Vec<f64> {
    let lu = DenseLu::factor(&sub.to_dense()).expect("SPD block factors");
    let mut zl = vec![0.0; rl.len()];
    lu.solve(rl, &mut zl);
    zl
}

fn cholesky_solve(sub: &Csr, rl: &[f64], path: SimdPath) -> Vec<f64> {
    let sym = Arc::new(CholeskySymbolic::analyze(sub).expect("square block"));
    let chol = SparseCholesky::factor_with_path(sym, sub, path).expect("SPD block");
    let mut zl = vec![0.0; rl.len()];
    chol.solve(rl, &mut zl);
    zl
}

fn block_jacobi(a: &Csr, sets: Vec<Vec<usize>>, r: &[f64]) -> Vec<f64> {
    let pc = AdditiveSchwarz::new(a, sets, SubdomainSolve::Lu);
    let mut z = vec![f64::NAN; a.nrows()];
    pc.apply(r, &mut z);
    z
}

#[test]
fn block_jacobi_matches_the_dense_lu_oracle() {
    let sinker = sinker_coarse();
    let rift = bent_rift();
    let cases = [
        ("sinker 12^3, Δη = 1e4", &sinker.a),
        ("bent rift, Δη = 1e4", &rift_coarse(&rift, 1e4)),
        ("bent rift, Δη = 1e8", &rift_coarse(&rift, 1e8)),
    ];
    for (what, a) in cases {
        let n = a.nrows();
        // Contiguous ranges (the AMG's coarsest solve) and an interleaved
        // split by node (non-contiguous extraction).
        let interleaved: Vec<Vec<usize>> = (0..4)
            .map(|b| (0..n).filter(|d| (d / 3) % 4 == b).collect())
            .collect();
        for (sets, how) in [
            (contiguous_sets(n, 4), "ranges"),
            (interleaved, "interleaved"),
        ] {
            for seed in [3, 5] {
                let r = random_vec(n, seed);
                let z = block_jacobi(a, sets.clone(), &r);
                let oracle = block_jacobi_by(a, &sets, &r, dense_lu_solve);
                let gap = relative_gap(&z, &oracle);
                assert!(gap <= 1e-12, "{what}, {how}: ‖z − z_LU‖ = {gap:.2e} ‖z_LU‖");
            }
        }
        // `block_jacobi` is `new` over the contiguous ranges.
        let r = random_vec(n, 7);
        let mut z = vec![f64::NAN; n];
        AdditiveSchwarz::block_jacobi(a, 4, SubdomainSolve::Lu).apply(&r, &mut z);
        assert!(bits(&z) == bits(&block_jacobi(a, contiguous_sets(n, 4), &r)));
    }
}

/// `m × m` blocks on the diagonal of a `4m` matrix, coupled by entries the
/// block solves never see: block 0 SPD, block 1 indefinite, block 2
/// singular (an empty row and column), block 3 asymmetric.
fn hostile_matrix(m: usize) -> Csr {
    let mut t = Vec::new();
    for b in 0..4 {
        let o = b * m;
        for i in 0..m {
            let diag = match b {
                1 if i % 3 == 0 => -3.0,
                2 if i == m / 2 => continue,
                _ => 4.0,
            };
            t.push((o + i, o + i, diag));
            if i + 1 < m && !(b == 2 && (i + 1 == m / 2 || i == m / 2)) {
                let lower = if b == 3 { -1.5 } else { -1.0 };
                t.push((o + i + 1, o + i, lower));
                t.push((o + i, o + i + 1, -1.0));
            }
        }
        if b > 0 {
            t.push((o, o - 1, 0.25));
            t.push((o - 1, o, 0.25));
        }
    }
    Csr::from_triplets(4 * m, 4 * m, &t)
}

#[test]
fn rejected_blocks_take_the_dense_ladder_from_a_unit_shift() {
    let m = 11;
    let a = hostile_matrix(m);
    let sets = contiguous_sets(a.nrows(), 4);
    for (b, dofs) in sets.iter().enumerate() {
        let sub = a.extract_principal_submatrix(dofs);
        let sparse = DirectSolver::try_new(&sub);
        assert_eq!(sparse.is_ok(), b == 0, "block {b}: Cholesky verdict");
    }
    let r = random_vec(a.nrows(), 11);
    let z = block_jacobi(&a, sets.clone(), &r);
    // The parent's route for every rejected block, bit for bit; the sparse
    // factor for the SPD one.
    let expected = block_jacobi_by(&a, &sets, &r, |sub, rl| {
        let mut zl = vec![0.0; rl.len()];
        match DirectSolver::try_new(sub) {
            Ok(direct) => direct.apply(rl, &mut zl),
            Err(_) => factor_regularized(sub.to_dense(), 1.0).solve(rl, &mut zl),
        }
        zl
    });
    assert!(bits(&z) == bits(&expected));
    // The singular block really was shifted: its empty row solves to
    // r / 1, not to a NaN.
    let g = 2 * m + m / 2;
    assert_eq!(z[g], r[g]);
    // `DirectSolver` keeps its own, milder first shift.
    let singular = a.extract_principal_submatrix(&sets[2]);
    let mut zd = vec![0.0; m];
    DirectSolver::new(&singular).apply(&r[2 * m..3 * m], &mut zd);
    assert_eq!(zd[m / 2], r[g] / 1e-12);
}

/// The coarse solve of every sinker V-cycle: CG on the coarse matrix,
/// preconditioned by the SA-AMG, capped at `max_it`.
#[test]
fn capped_amg_pcg_coarse_solve_keeps_its_iteration_count() {
    let c = sinker_coarse();
    let n = c.a.nrows();
    // At 12³ the SA-AMG stops at one level (`nagg · 6 ≥ n`): its V-cycle
    // *is* block-Jacobi(4) over the coarse matrix.
    assert_eq!(c.hierarchy.level_sizes(), vec![n]);
    assert_eq!((c.rtol, c.max_it), (1e-2, 10));
    // The oracle preconditioner: the explicit inverse of every block by
    // dense LU, applied as a sparse matrix.
    let mut t = Vec::new();
    for dofs in contiguous_sets(n, 4) {
        let lu = DenseLu::factor(&c.a.extract_principal_submatrix(&dofs).to_dense())
            .expect("SPD block factors");
        let mut e = vec![0.0; dofs.len()];
        let mut col = vec![0.0; dofs.len()];
        for (j, &gj) in dofs.iter().enumerate() {
            e.fill(0.0);
            e[j] = 1.0;
            lu.solve(&e, &mut col);
            for (i, &gi) in dofs.iter().enumerate() {
                t.push((gi, gj, col[i]));
            }
        }
    }
    let oracle = OperatorPc(Csr::from_triplets(n, n, &t));
    let cfg = KrylovConfig::default()
        .with_rtol(c.rtol)
        .with_max_it(c.max_it);
    for seed in [17, 19, 23] {
        let b = random_vec(n, seed);
        let mut x = vec![0.0; n];
        let stats = cg(&c.a, &c.hierarchy, &b, &mut x, &cfg);
        let mut y = vec![0.0; n];
        let oracle_stats = cg(&c.a, &oracle, &b, &mut y, &cfg);
        assert_eq!(stats.iterations, oracle_stats.iterations, "seed {seed}");
        assert_eq!(stats.converged, oracle_stats.converged, "seed {seed}");
        let gap = relative_gap(&x, &y);
        assert!(gap <= 1e-10, "seed {seed}: ‖x − x_LU‖ = {gap:.2e} ‖x_LU‖");
    }
}

#[test]
fn block_jacobi_is_bitwise_across_simd_paths_and_thread_counts() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let hier = bent_rift();
    par::set_num_threads(1);
    let a = rift_coarse(&hier, 1e6);
    let n = a.nrows();
    let sets = contiguous_sets(n, 4);
    let r = random_vec(n, 29);
    let reference = bits(&block_jacobi(&a, sets.clone(), &r));
    // The production blocks are the sparse factor on the process's path,
    // and the portable and AVX2 factors agree in every bit.
    let by_path = |path: SimdPath| {
        bits(&block_jacobi_by(&a, &sets, &r, |s, rl| {
            cholesky_solve(s, rl, path)
        }))
    };
    assert!(by_path(runtime_simd_path()) == reference, "runtime path");
    assert!(by_path(SimdPath::Portable) == reference, "portable");
    if avx2_fma_available() {
        assert!(by_path(SimdPath::Avx2Fma) == reference, "avx2");
    }
    for nt in [2, 4] {
        par::set_num_threads(nt);
        // The coarse matrix is assembled in parallel; the block
        // factorizations are serial.
        let a = rift_coarse(&hier, 1e6);
        assert!(
            bits(&block_jacobi(&a, sets.clone(), &r)) == reference,
            "nt = {nt}"
        );
    }
    par::set_num_threads(0);
}
