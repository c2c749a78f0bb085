//! The Galerkin coarsest operator assembled directly (DESIGN.md §4): with
//! the embedded-trilinear transfer, `Pᵀ A P` is the Q1 stiffness matrix on
//! the fine corner grid. The sparse triple product stays as the oracle —
//! same sparsity pattern, values to rounding — and as the route for
//! Dirichlet sets that are not nested; the direct assembly is bitwise
//! reproducible across thread counts, SIMD paths and cache states.

use ptatin_core::models::rift::rift_bc;
use ptatin_core::models::sinker::sinker_bc;
use ptatin_core::solver::{
    build_stokes_solver_cached, CoarseKind, GmgConfig, KrylovOperatorChoice, SetupCache,
    StokesSolver,
};
use ptatin_fem::assemble::{num_velocity_dofs, Q2QuadTables};
use ptatin_fem::bc::DirichletBc;
use ptatin_fem::pattern::GalerkinQ1Pattern;
use ptatin_la::csr::Csr;
use ptatin_la::krylov::KrylovConfig;
use ptatin_la::par;
use ptatin_la::simd::{avx2_fma_available, runtime_simd_path, SimdPath};
use ptatin_mesh::hierarchy::{expand_blocked, MeshHierarchy};
use ptatin_mesh::StructuredMesh;
use ptatin_mg::gmg::{
    dirichlet_sets_nested, filter_transfer, galerkin_coarse, galerkin_coarse_q1, GmgCoarseSolver,
};
use ptatin_mpm::projection::corners_to_quadrature_log;
use ptatin_ops::assembled_viscous_op;
use ptatin_prng::{Rng, StdRng};
use std::sync::Mutex;

/// Serializes the tests that pin the process-global thread count.
static NT_LOCK: Mutex<()> = Mutex::new(());

/// Log-uniform viscosity over six decades, one value per entry.
fn rough_eta(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| 10f64.powf(rng.gen_range(-3.0..3.0)))
        .collect()
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

fn rift_box() -> StructuredMesh {
    StructuredMesh::new_box(12, 4, 8, [0.0, 6.0], [0.0, 1.0], [0.0, 3.0])
}

fn rift_bcs(hier: &MeshHierarchy) -> Vec<DirichletBc> {
    hier.meshes.iter().map(|m| rift_bc(m, 0.5, 0.0)).collect()
}

/// The two coarsest levels of a hierarchy with their masks and the
/// filtered blocked transfer between them.
struct Pair<'h> {
    fine: &'h StructuredMesh,
    bc_fine: &'h DirichletBc,
    coarse_mask: Vec<bool>,
    p: Csr,
}

impl<'h> Pair<'h> {
    fn new(hier: &'h MeshHierarchy, bcs: &'h [DirichletBc]) -> Self {
        let fine_mask = bcs[1].mask(num_velocity_dofs(&hier.meshes[1]));
        let coarse_mask = bcs[0].mask(num_velocity_dofs(&hier.meshes[0]));
        let mut p = expand_blocked(&hier.prolongations[0], 3);
        filter_transfer(&mut p, &fine_mask, &coarse_mask);
        assert!(dirichlet_sets_nested(&p, &fine_mask, &coarse_mask));
        Self {
            fine: &hier.meshes[1],
            bc_fine: &bcs[1],
            coarse_mask,
            p,
        }
    }

    /// `Pᵀ A P` by assembly of the fine Q2 matrix and two sparse products.
    fn oracle(&self, eta: &[f64]) -> Csr {
        let a = assembled_viscous_op(self.fine, &Q2QuadTables::standard(), eta, self.bc_fine);
        galerkin_coarse(&a, &self.p, &self.coarse_mask)
    }

    fn direct(&self, eta: &[f64], path: SimdPath) -> Csr {
        let pat = GalerkinQ1Pattern::build(self.fine, &self.coarse_mask);
        galerkin_coarse_q1(
            &pat,
            self.fine,
            &Q2QuadTables::standard(),
            eta,
            path,
            &mut Vec::new(),
        )
    }
}

fn assert_same_pattern(a: &Csr, b: &Csr, what: &str) {
    assert_eq!(a.nrows(), b.nrows(), "{what}");
    assert!(a.indptr == b.indptr, "{what}: indptr differs");
    assert!(a.indices == b.indices, "{what}: indices differ");
}

fn assert_bitwise(a: &Csr, b: &Csr, what: &str) {
    assert_same_pattern(a, b, what);
    let same = a
        .values
        .iter()
        .zip(&b.values)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same, "{what}: values differ in the bits");
}

fn assert_matches_oracle(direct: &Csr, oracle: &Csr, what: &str) {
    assert_same_pattern(direct, oracle, what);
    let scale = oracle.values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = direct
        .values
        .iter()
        .zip(&oracle.values)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    assert!(
        diff <= 1e-13 * scale,
        "{what}: max |direct - RAP| = {diff:.2e} against max |A| = {scale:.2e}"
    );
}

#[test]
fn direct_matches_rap_on_box_and_deformed_meshes() {
    let tables = Q2QuadTables::standard();
    let cases: [(
        &str,
        StructuredMesh,
        usize,
        fn(&MeshHierarchy) -> Vec<DirichletBc>,
    ); 4] = [
        ("rift box, 2 levels", rift_box(), 2, rift_bcs),
        (
            "rift remeshed, 2 levels",
            remeshed(rift_box(), 5),
            2,
            rift_bcs,
        ),
        (
            "sinker 12^3, level 1 -> 0 of 3",
            StructuredMesh::new_box(12, 12, 12, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]),
            3,
            |h| h.meshes.iter().map(sinker_bc).collect(),
        ),
        (
            "sinker remeshed 8^3, 3 levels",
            remeshed(
                StructuredMesh::new_box(8, 8, 8, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]),
                6,
            ),
            3,
            |h| h.meshes.iter().map(sinker_bc).collect(),
        ),
    ];
    for (what, mesh, levels, bc_of) in cases {
        let hier = MeshHierarchy::new(mesh, levels);
        let bcs = bc_of(&hier);
        let pair = Pair::new(&hier, &bcs);
        let eta = rough_eta(pair.fine.num_elements() * tables.nqp(), 11);
        let direct = pair.direct(&eta, runtime_simd_path());
        assert_matches_oracle(&direct, &pair.oracle(&eta), what);
    }
}

#[test]
fn direct_is_bitwise_across_thread_counts_and_simd_paths() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let hier = MeshHierarchy::new(remeshed(rift_box(), 7), 2);
    let bcs = rift_bcs(&hier);
    let pair = Pair::new(&hier, &bcs);
    // 384 elements: six full batches of 64; the 120 below end on a partial one.
    let eta = rough_eta(pair.fine.num_elements() * 27, 13);
    par::set_num_threads(1);
    let reference = pair.direct(&eta, SimdPath::Portable);
    for nt in [1, 4] {
        par::set_num_threads(nt);
        assert_bitwise(
            &pair.direct(&eta, SimdPath::Portable),
            &reference,
            &format!("portable, nt = {nt}"),
        );
        if avx2_fma_available() {
            assert_bitwise(
                &pair.direct(&eta, SimdPath::Avx2Fma),
                &reference,
                &format!("avx2, nt = {nt}"),
            );
        }
    }
    par::set_num_threads(0);

    let small = MeshHierarchy::new(
        StructuredMesh::new_box(10, 2, 6, [0.0, 5.0], [0.0, 1.0], [0.0, 3.0]),
        2,
    );
    let small_bcs = rift_bcs(&small);
    let partial = Pair::new(&small, &small_bcs);
    let eta = rough_eta(partial.fine.num_elements() * 27, 17);
    let portable = partial.direct(&eta, SimdPath::Portable);
    assert_matches_oracle(&portable, &partial.oracle(&eta), "partial batch");
    if avx2_fma_available() {
        assert_bitwise(
            &partial.direct(&eta, SimdPath::Avx2Fma),
            &portable,
            "partial batch",
        );
    }
}

/// The default solver with the capped AMG-CG coarse solve, which keeps
/// the coarsest matrix where a test can read it (the direct solve keeps
/// only its factor).
fn amg(levels: usize) -> GmgConfig {
    GmgConfig {
        levels,
        coarse: CoarseKind::Amg { coarse_blocks: 4 },
        ..GmgConfig::default()
    }
}

fn coarse_matrix(solver: &StokesSolver) -> &Csr {
    match &solver.mg.coarse {
        GmgCoarseSolver::AmgPcg { a, .. } => a,
        _ => panic!("built with CoarseKind::Amg"),
    }
}

#[test]
fn builder_takes_the_direct_route_when_the_sets_are_nested() {
    let tables = Q2QuadTables::standard();
    for levels in [2, 3] {
        let hier = MeshHierarchy::new(remeshed(rift_box(), 3), levels);
        let bcs = rift_bcs(&hier);
        let eta_corner = rough_eta(hier.finest().num_corners(), 19);
        let mut cache = SetupCache::new();
        let solver =
            build_stokes_solver_cached(&hier, &eta_corner, &bcs, &amg(levels), None, &mut cache);
        assert!(
            cache.viscous_pattern_levels().iter().all(|&held| !held),
            "{levels} levels: a Q2 matrix was assembled"
        );
        if levels == 2 {
            let pair = Pair::new(&hier, &bcs);
            let eta = corners_to_quadrature_log(&hier.meshes[1], &tables, &eta_corner);
            let built = coarse_matrix(&solver);
            assert_bitwise(built, &pair.direct(&eta, runtime_simd_path()), "builder");
            assert_matches_oracle(built, &pair.oracle(&eta), "builder");
        }
    }
}

#[test]
fn non_nested_sets_take_the_rap_route_bitwise() {
    let tables = Q2QuadTables::standard();
    let hier = MeshHierarchy::new(rift_box(), 2);
    let mut bcs = rift_bcs(&hier);
    // Pin one interior mid-edge node of the fine mesh: it interpolates
    // from two free coarse nodes, so the product is no Q1 stiffness matrix.
    let pinned = 3 * hier.meshes[1].node_index(7, 4, 6) + 1;
    bcs[1].set(pinned, 0.0);
    let fine_mask = bcs[1].mask(num_velocity_dofs(&hier.meshes[1]));
    let coarse_mask = bcs[0].mask(num_velocity_dofs(&hier.meshes[0]));
    let mut p = expand_blocked(&hier.prolongations[0], 3);
    filter_transfer(&mut p, &fine_mask, &coarse_mask);
    assert!(!dirichlet_sets_nested(&p, &fine_mask, &coarse_mask));

    let eta_corner = rough_eta(hier.finest().num_corners(), 23);
    let mut cache = SetupCache::new();
    let solver = build_stokes_solver_cached(&hier, &eta_corner, &bcs, &amg(2), None, &mut cache);
    assert_eq!(cache.viscous_pattern_levels(), [false, true]);
    let eta = corners_to_quadrature_log(&hier.meshes[1], &tables, &eta_corner);
    let a = assembled_viscous_op(&hier.meshes[1], &tables, &eta, &bcs[1]);
    let rap = galerkin_coarse(&a, &p, &coarse_mask);
    assert_bitwise(coarse_matrix(&solver), &rap, "non-nested sets");
}

/// The bits of everything a build hands out that depends on the cached
/// state: the coupling blocks and the iterate after a few Krylov
/// iterations (every level operator, smoother bound, transfer and the
/// coarse matrix leave their mark on it).
fn build_bits(solver: &StokesSolver) -> Vec<u64> {
    let mut rhs: Vec<f64> = (0..solver.nu + solver.np)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 50.0)
        .collect();
    solver.bc.zero_constrained(&mut rhs[..solver.nu]);
    let mut x = vec![0.0; rhs.len()];
    solver.solve(
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-12).with_max_it(5),
        KrylovOperatorChoice::Picard,
        None,
    );
    x.iter()
        .chain(&solver.b_full.values)
        .chain(&solver.b_masked.values)
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn one_cache_across_remesh_and_bc_change_is_bitwise_fresh() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(1);
    let gmg = amg(2);
    let flat = MeshHierarchy::new(rift_box(), 2);
    let bent = MeshHierarchy::new(remeshed(rift_box(), 29), 2);
    let bcs = rift_bcs(&flat);
    // As many constrained dofs as `bcs`, on other faces: free slip on
    // y-max in place of y-min.
    let swapped: Vec<DirichletBc> = flat
        .meshes
        .iter()
        .map(|m| {
            let n = m.num_nodes();
            let (_, ny, _) = m.node_dims();
            let mut bc = DirichletBc::new();
            for &d in &rift_bc(m, 0.5, 0.0).dofs {
                let (node, comp) = (d / 3, d % 3);
                let (i, j, k) = m.node_ijk(node);
                // Mirror the base's normal constraint to the top.
                let on_base_only = comp == 1 && j == 0;
                let node = if on_base_only {
                    m.node_index(i, ny - 1, k)
                } else {
                    node
                };
                assert!(node < n);
                bc.set(3 * node + comp, 0.0);
            }
            bc
        })
        .collect();
    assert_eq!(swapped[1].len(), bcs[1].len());
    assert_ne!(swapped[1].dofs, bcs[1].dofs);

    let eta0 = rough_eta(flat.finest().num_corners(), 31);
    let eta1: Vec<f64> = eta0.iter().map(|v| 1.5 * v).collect();
    let mut cache = SetupCache::new();
    let sequence = [
        ("first build", &flat, &bcs, &eta0),
        ("viscosity update", &flat, &bcs, &eta1),
        ("remesh_vertical", &bent, &bcs, &eta1),
        ("same geometry again", &bent, &bcs, &eta1),
        ("other bc set of equal size", &bent, &swapped, &eta1),
        ("back", &flat, &bcs, &eta0),
    ];
    for (what, hier, bcs, eta) in sequence {
        let build = |cache: &mut SetupCache| {
            build_bits(&build_stokes_solver_cached(
                hier, eta, bcs, &gmg, None, cache,
            ))
        };
        let fresh = build(&mut SetupCache::new());
        assert!(fresh == build(&mut cache), "{what}: cached build differs");
    }
    par::set_num_threads(0);
}
