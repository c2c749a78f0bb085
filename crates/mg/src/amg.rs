//! Smoothed-aggregation algebraic multigrid — the GAMG/ML substitute used
//! as the distributed coarse-grid solver of the paper's geometric
//! hierarchy (§III-C: "we use GAMG, a smoothed aggregation method … We
//! provide the six rigid-body modes and set a strength threshold of 0.01")
//! and as the standalone SA-i / SAML-i / SAML-ii preconditioners of
//! Table IV.

use ptatin_la::chebyshev::{estimate_lambda_max, Chebyshev};
use ptatin_la::csr::Csr;
use ptatin_la::dense::{thin_qr, DenseMatrix};
use ptatin_la::krylov::{fgmres, KrylovConfig};
use ptatin_la::operator::Preconditioner;
use ptatin_la::schwarz::{AdditiveSchwarz, DirectSolver, SubdomainSolve};
use ptatin_prof as prof;

/// Level smoother selection (Table IV configurations).
#[derive(Clone, Debug)]
pub enum SmootherKind {
    /// Jacobi-preconditioned Chebyshev (the paper's production smoother).
    ChebyshevJacobi { iters: usize },
    /// FGMRES(m) preconditioned with block-Jacobi ILU(0) — the stronger
    /// smoother of SAML-ii.
    FgmresBlockJacobiIlu0 { iters: usize, blocks: usize },
}

/// Coarsest-level solver selection.
#[derive(Clone, Debug)]
pub enum CoarseSolverKind {
    /// Exact solve (`DirectSolver`: sparse Cholesky, dense LU fallback).
    DirectLu,
    /// Block-Jacobi with an exact solve per block (the paper's GAMG coarse
    /// solve; `SubdomainSolve::Lu`, a sparse Cholesky factor per block).
    BlockJacobiLu { blocks: usize },
    /// Inexact FGMRES terminated at a relative tolerance (SAML-ii).
    InexactGmres {
        rtol: f64,
        max_it: usize,
        blocks: usize,
    },
}

/// Strength-of-connection threshold θ (paper: 0.01).
pub const STRENGTH_THRESHOLD: f64 = 0.01;
/// Maximum number of levels of a hierarchy.
pub const MAX_LEVELS: usize = 10;

/// Smoothed-aggregation configuration.
#[derive(Clone, Debug)]
pub struct AmgConfig {
    /// Stop coarsening when a level has at most this many rows
    /// (ML config in the paper: 100).
    pub max_coarse_size: usize,
    /// Dof block size (3 for the velocity block, 1 for scalar problems).
    pub block_size: usize,
    /// Smooth the tentative prolongator (`true` = smoothed aggregation,
    /// `false` = plain aggregation).
    pub smooth_prolongator: bool,
    pub smoother: SmootherKind,
    pub coarse_solver: CoarseSolverKind,
}

impl Default for AmgConfig {
    fn default() -> Self {
        Self {
            max_coarse_size: 100,
            block_size: 3,
            smooth_prolongator: true,
            smoother: SmootherKind::ChebyshevJacobi { iters: 2 },
            coarse_solver: CoarseSolverKind::BlockJacobiLu { blocks: 4 },
        }
    }
}

enum LevelSmoother {
    Cheb(Chebyshev),
    Fgmres { pc: AdditiveSchwarz, iters: usize },
}

impl LevelSmoother {
    fn build(a: &Csr, kind: &SmootherKind) -> Self {
        match kind {
            SmootherKind::ChebyshevJacobi { iters } => {
                LevelSmoother::Cheb(Chebyshev::new(a, *iters, 10))
            }
            SmootherKind::FgmresBlockJacobiIlu0 { iters, blocks } => LevelSmoother::Fgmres {
                pc: AdditiveSchwarz::block_jacobi(a, *blocks, SubdomainSolve::Ilu0),
                iters: *iters,
            },
        }
    }

    fn smooth(&self, a: &Csr, b: &[f64], x: &mut [f64]) {
        match self {
            LevelSmoother::Cheb(c) => c.smooth(a, b, x),
            LevelSmoother::Fgmres { pc, iters } => {
                let cfg = KrylovConfig::default()
                    .with_rtol(1e-14)
                    .with_max_it(*iters)
                    .with_restart((*iters).max(2));
                let _ = fgmres(a, pc, b, x, &cfg);
            }
        }
    }
}

enum CoarseSolve {
    Direct(DirectSolver),
    BlockJacobi(AdditiveSchwarz),
    Inexact {
        pc: AdditiveSchwarz,
        rtol: f64,
        max_it: usize,
    },
}

impl CoarseSolve {
    fn build(a: &Csr, kind: &CoarseSolverKind) -> Self {
        match kind {
            CoarseSolverKind::DirectLu => CoarseSolve::Direct(DirectSolver::new(a)),
            CoarseSolverKind::BlockJacobiLu { blocks } => CoarseSolve::BlockJacobi(
                AdditiveSchwarz::block_jacobi(a, *blocks, SubdomainSolve::Lu),
            ),
            CoarseSolverKind::InexactGmres {
                rtol,
                max_it,
                blocks,
            } => CoarseSolve::Inexact {
                pc: AdditiveSchwarz::block_jacobi(a, *blocks, SubdomainSolve::Lu),
                rtol: *rtol,
                max_it: *max_it,
            },
        }
    }

    fn solve(&self, a: &Csr, b: &[f64], x: &mut [f64]) {
        match self {
            CoarseSolve::Direct(lu) => lu.apply(b, x),
            CoarseSolve::BlockJacobi(pc) => pc.apply(b, x),
            CoarseSolve::Inexact { pc, rtol, max_it } => {
                x.fill(0.0);
                let cfg = KrylovConfig::default()
                    .with_rtol(*rtol)
                    .with_max_it(*max_it)
                    .with_restart(30);
                let _ = fgmres(a, pc, b, x, &cfg);
            }
        }
    }
}

struct AmgLevel {
    a: Csr,
    /// Prolongation to *this* level from the next-coarser one.
    /// `None` on the coarsest level.
    p: Option<Csr>,
    smoother: Option<LevelSmoother>,
}

/// A built smoothed-aggregation hierarchy, applied as one V-cycle per
/// [`Preconditioner::apply`] call.
pub struct AmgHierarchy {
    /// Fine → coarse.
    levels: Vec<AmgLevel>,
    coarse: CoarseSolve,
    /// Setup wall-time in seconds (reported in Tables II/IV).
    pub setup_seconds: f64,
}

/// Greedy aggregation on the strength graph; returns per-node aggregate id
/// and the number of aggregates.
fn aggregate(strong: &[Vec<u32>], nnodes: usize, min_agg: usize) -> (Vec<u32>, usize) {
    const UNASSIGNED: u32 = u32::MAX;
    let mut agg = vec![UNASSIGNED; nnodes];
    let mut nagg = 0u32;
    // Pass 1: root points whose strong neighbourhood is fully unassigned.
    for i in 0..nnodes {
        if agg[i] != UNASSIGNED {
            continue;
        }
        if strong[i].iter().all(|&j| agg[j as usize] == UNASSIGNED) {
            agg[i] = nagg;
            for &j in &strong[i] {
                agg[j as usize] = nagg;
            }
            nagg += 1;
        }
    }
    // Pass 2: attach leftovers to a neighbouring aggregate.
    for i in 0..nnodes {
        if agg[i] != UNASSIGNED {
            continue;
        }
        if let Some(&j) = strong[i].iter().find(|&&j| agg[j as usize] != UNASSIGNED) {
            agg[i] = agg[j as usize];
        }
    }
    // Pass 3: isolated nodes become singleton aggregates.
    for a in agg.iter_mut() {
        if *a == UNASSIGNED {
            *a = nagg;
            nagg += 1;
        }
    }
    // Merge undersized aggregates into a graph neighbour (rank safety for
    // the local QR: each aggregate must carry ≥ min_agg nodes).
    if min_agg > 1 {
        loop {
            let mut counts = vec![0usize; nagg as usize];
            for &a in &agg {
                counts[a as usize] += 1;
            }
            let mut changed = false;
            for i in 0..nnodes {
                let ai = agg[i] as usize;
                if counts[ai] >= min_agg {
                    continue;
                }
                if let Some(&j) = strong[i].iter().find(|&&j| {
                    agg[j as usize] != agg[i] && counts[agg[j as usize] as usize] >= min_agg
                }) {
                    counts[ai] -= 1;
                    agg[i] = agg[j as usize];
                    counts[agg[i] as usize] += 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Compact aggregate ids (some may now be empty).
        let mut remap = vec![u32::MAX; nagg as usize];
        let mut next = 0u32;
        for a in agg.iter_mut() {
            let r = &mut remap[*a as usize];
            if *r == u32::MAX {
                *r = next;
                next += 1;
            }
            *a = *r;
        }
        nagg = next;
    }
    (agg, nagg as usize)
}

/// Strength graph over dof-blocks: edge (i,j) is strong when
/// `‖A_ij‖_F > θ √(‖A_ii‖_F ‖A_jj‖_F)`.
fn strength_graph(a: &Csr, bs: usize, theta: f64) -> Vec<Vec<u32>> {
    let nnodes = a.nrows() / bs;
    // Condensed block norms.
    let mut diag = vec![0.0f64; nnodes];
    // BTreeMap keeps neighbour iteration in ascending column order, so the
    // strength graph (and everything aggregation builds on it) is
    // reproducible without a post-sort.
    let mut adj: Vec<std::collections::BTreeMap<u32, f64>> =
        vec![std::collections::BTreeMap::new(); nnodes];
    for i in 0..a.nrows() {
        let bi = (i / bs) as u32;
        for (col, val) in a.row_indices(i).iter().zip(a.row_values(i)) {
            let bj = *col / bs as u32;
            let v2 = val * val;
            if bj == bi {
                diag[bi as usize] += v2;
            } else {
                *adj[bi as usize].entry(bj).or_insert(0.0) += v2;
            }
        }
    }
    let mut strong = vec![Vec::new(); nnodes];
    for i in 0..nnodes {
        let di = diag[i].sqrt();
        for (&j, &s2) in &adj[i] {
            let dj = diag[j as usize].sqrt();
            if s2.sqrt() > theta * (di * dj).sqrt() {
                strong[i].push(j);
            }
        }
        debug_assert!(strong[i].windows(2).all(|w| w[0] < w[1]));
    }
    strong
}

/// Tentative prolongator from aggregates and the near-nullspace `b`
/// (`n × k`): per-aggregate thin QR. Returns `(P_tent, B_coarse)`.
fn tentative_prolongator(
    agg: &[u32],
    nagg: usize,
    bs: usize,
    b: &DenseMatrix,
) -> (Csr, DenseMatrix) {
    let k = b.ncols;
    let n = b.nrows;
    assert_eq!(agg.len() * bs, n);
    // Group nodes per aggregate.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); nagg];
    for (node, &a) in agg.iter().enumerate() {
        members[a as usize].push(node as u32);
    }
    let mut b_coarse = DenseMatrix::zeros(nagg * k, k);
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    for (aid, nodes) in members.iter().enumerate() {
        let m = nodes.len() * bs;
        let mut local = DenseMatrix::zeros(m, k);
        for (ln, &node) in nodes.iter().enumerate() {
            for c in 0..bs {
                for col in 0..k {
                    local.set(ln * bs + c, col, b.get(node as usize * bs + c, col));
                }
            }
        }
        if m >= k {
            let (q, r) = thin_qr(&local);
            // Guard rank deficiency (e.g. fully constrained aggregates):
            // zero tiny pivots' columns.
            let rmax = (0..k).map(|i| r.get(i, i).abs()).fold(0.0f64, f64::max);
            for (ln, &node) in nodes.iter().enumerate() {
                for c in 0..bs {
                    for col in 0..k {
                        let keep = r.get(col, col).abs() > 1e-12 * rmax.max(1e-300);
                        let v = if keep { q.get(ln * bs + c, col) } else { 0.0 };
                        if v != 0.0 {
                            triplets.push((node as usize * bs + c, aid * k + col, v));
                        }
                    }
                }
            }
            for i in 0..k {
                for j in 0..k {
                    let keep = r.get(i, i).abs() > 1e-12 * rmax.max(1e-300);
                    b_coarse.set(aid * k + i, j, if keep { r.get(i, j) } else { 0.0 });
                }
            }
        } else {
            // Degenerate aggregate: inject raw nullspace columns.
            for (ln, &node) in nodes.iter().enumerate() {
                for c in 0..bs {
                    for col in 0..k.min(m) {
                        let v = local.get(ln * bs + c, col);
                        if v != 0.0 {
                            triplets.push((node as usize * bs + c, aid * k + col, v));
                        }
                    }
                }
            }
            for i in 0..k.min(m) {
                b_coarse.set(aid * k + i, i, 1.0);
            }
        }
    }
    (Csr::from_triplets(n, nagg * k, &triplets), b_coarse)
}

/// Build a smoothed-aggregation hierarchy for `a` with near-nullspace `b`.
pub fn build_sa_amg(a: Csr, b: &DenseMatrix, cfg: &AmgConfig) -> AmgHierarchy {
    let _ev = prof::scope("PCSetUp_AMG");
    // DETERMINISM-OK: setup wall-clock feeds the reported statistics only
    // and never influences the hierarchy that is built.
    let start = std::time::Instant::now();
    let k = b.ncols;
    let mut levels: Vec<AmgLevel> = Vec::new();
    let mut a_cur = a;
    let mut b_cur = b.clone();
    let mut p_from_coarser: Option<Csr> = None;
    for _level in 0..MAX_LEVELS {
        let too_small = a_cur.nrows() <= cfg.max_coarse_size;
        if too_small {
            break;
        }
        // Fine level keeps the physical block size; coarser levels carry
        // k nullspace coefficients per aggregate.
        let bs_cur = if levels.is_empty() { cfg.block_size } else { k };
        let min_agg_nodes = k.div_ceil(bs_cur);
        let strong = strength_graph(&a_cur, bs_cur, STRENGTH_THRESHOLD);
        let (agg, nagg) = aggregate(&strong, strong.len(), min_agg_nodes);
        // No meaningful coarsening → stop.
        if nagg * k >= a_cur.nrows() {
            break;
        }
        let (p_tent, b_coarse) = tentative_prolongator(&agg, nagg, bs_cur, &b_cur);
        let p = if cfg.smooth_prolongator {
            // P = (I − ω D⁻¹ A) P_tent, ω = 4/(3 λmax(D⁻¹A)).
            let diag = a_cur.diag();
            let inv_diag: Vec<f64> = diag
                .iter()
                .map(|&d| if d != 0.0 { 1.0 / d } else { 0.0 })
                .collect();
            let lmax = estimate_lambda_max(&a_cur, &inv_diag, 10).max(1e-12);
            let omega = 4.0 / (3.0 * lmax);
            let mut ap = a_cur.matmul(&p_tent);
            let scaled: Vec<f64> = inv_diag.iter().map(|&d| d * omega).collect();
            ap.scale_rows(&scaled);
            p_tent.add_scaled(&ap, -1.0)
        } else {
            p_tent
        };
        let a_next = Csr::rap(&a_cur, &p);
        let smoother = LevelSmoother::build(&a_cur, &cfg.smoother);
        levels.push(AmgLevel {
            a: a_cur,
            p: p_from_coarser.take(),
            smoother: Some(smoother),
        });
        p_from_coarser = Some(p);
        a_cur = a_next;
        b_cur = b_coarse;
    }
    let coarse = CoarseSolve::build(&a_cur, &cfg.coarse_solver);
    levels.push(AmgLevel {
        a: a_cur,
        p: p_from_coarser.take(),
        smoother: None,
    });
    AmgHierarchy {
        levels,
        coarse,
        setup_seconds: start.elapsed().as_secs_f64(),
    }
}

impl AmgHierarchy {
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.a.nrows()).collect()
    }

    /// Total stored nonzeros across the hierarchy (operator complexity).
    pub fn total_nnz(&self) -> usize {
        // DETERMINISM-OK: integer sum, order-independent.
        self.levels.iter().map(|l| l.a.nnz()).sum()
    }

    fn vcycle(&self, level: usize, b: &[f64], x: &mut [f64]) {
        let lvl = &self.levels[level];
        if level + 1 == self.levels.len() {
            self.coarse.solve(&lvl.a, b, x);
            return;
        }
        let sm = lvl
            .smoother
            .as_ref()
            // PANIC-OK: build_sa_amg attaches a smoother to every level but
            // the coarsest, and the coarsest returned above.
            .expect("non-coarse level has smoother");
        // Pre-smooth.
        sm.smooth(&lvl.a, b, x);
        // Residual and restriction through the next level's P.
        let n = lvl.a.nrows();
        // ALLOC-OK: per-level cycle scratch (r, rc, xc, corr), once
        // per V-cycle visit; AMG runs as the coarse solver, so n here is
        // orders of magnitude below the fine grid.
        let mut r = vec![0.0; n];
        lvl.a.spmv(x, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        let p = self.levels[level + 1]
            .p
            .as_ref()
            // PANIC-OK: build_sa_amg stores a prolongator on every level
            // except the finest, and `level + 1` is never the finest here.
            .expect("inner level has prolongation");
        let nc = p.ncols();
        let mut rc = vec![0.0; nc]; // ALLOC-OK: see `r` above.
        p.spmv_transpose(&r, &mut rc);
        let mut xc = vec![0.0; nc]; // ALLOC-OK: see `r` above.
        self.vcycle(level + 1, &rc, &mut xc);
        // Prolongate and correct.
        let mut corr = vec![0.0; n]; // ALLOC-OK: see `r` above.
        p.spmv(&xc, &mut corr);
        for i in 0..n {
            x[i] += corr[i];
        }
        // Post-smooth.
        sm.smooth(&lvl.a, b, x);
    }
}

impl Preconditioner for AmgHierarchy {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let _ev = prof::scope("PCApply_AMG");
        z.fill(0.0);
        self.vcycle(0, r, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nullspace::{constant_mode, rigid_body_modes};
    use ptatin_fem::assemble::{assemble_viscous, Q2QuadTables};
    use ptatin_la::krylov::{cg, gcr};
    use ptatin_la::operator::IdentityPc;
    use ptatin_mesh::StructuredMesh;

    fn laplace3d(n: usize) -> Csr {
        let idx = |i: usize, j: usize, k: usize| i + n * (j + n * k);
        let mut t = Vec::new();
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let r = idx(i, j, k);
                    t.push((r, r, 6.0));
                    let mut nb = |ri: i64, rj: i64, rk: i64| {
                        if ri >= 0
                            && rj >= 0
                            && rk >= 0
                            && (ri as usize) < n
                            && (rj as usize) < n
                            && (rk as usize) < n
                        {
                            t.push((r, idx(ri as usize, rj as usize, rk as usize), -1.0));
                        }
                    };
                    nb(i as i64 - 1, j as i64, k as i64);
                    nb(i as i64 + 1, j as i64, k as i64);
                    nb(i as i64, j as i64 - 1, k as i64);
                    nb(i as i64, j as i64 + 1, k as i64);
                    nb(i as i64, j as i64, k as i64 - 1);
                    nb(i as i64, j as i64, k as i64 + 1);
                }
            }
        }
        Csr::from_triplets(n * n * n, n * n * n, &t)
    }

    #[test]
    fn aggregation_covers_all_nodes() {
        let a = laplace3d(6);
        let strong = strength_graph(&a, 1, 0.01);
        let (agg, nagg) = aggregate(&strong, strong.len(), 1);
        assert!(nagg > 0 && nagg < strong.len());
        for &x in &agg {
            assert!((x as usize) < nagg);
        }
    }

    #[test]
    fn amg_solves_scalar_laplacian() {
        let n = 8;
        let a = laplace3d(n);
        let b = constant_mode(a.nrows());
        let cfg = AmgConfig {
            block_size: 1,
            coarse_solver: CoarseSolverKind::DirectLu,
            ..AmgConfig::default()
        };
        let amg = build_sa_amg(a.clone(), &b, &cfg);
        assert!(amg.num_levels() >= 2, "sizes {:?}", amg.level_sizes());
        let rhs = vec![1.0; a.nrows()];
        let mut x = vec![0.0; a.nrows()];
        let stats = cg(
            &a,
            &amg,
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8),
        );
        assert!(stats.converged);
        assert!(
            stats.iterations < 25,
            "AMG-CG should converge fast, took {}",
            stats.iterations
        );
    }

    #[test]
    fn amg_iterations_roughly_mesh_independent() {
        let mut its = Vec::new();
        for n in [6usize, 12] {
            let a = laplace3d(n);
            let b = constant_mode(a.nrows());
            let cfg = AmgConfig {
                block_size: 1,
                coarse_solver: CoarseSolverKind::DirectLu,
                ..AmgConfig::default()
            };
            let amg = build_sa_amg(a.clone(), &b, &cfg);
            let rhs = vec![1.0; a.nrows()];
            let mut x = vec![0.0; a.nrows()];
            let stats = cg(
                &a,
                &amg,
                &rhs,
                &mut x,
                &KrylovConfig::default().with_rtol(1e-8),
            );
            assert!(stats.converged);
            its.push(stats.iterations);
        }
        // 8x more unknowns should cost at most ~2x the iterations.
        assert!(
            its[1] <= its[0] * 2 + 4,
            "not scalable: {:?} iterations",
            its
        );
    }

    #[test]
    fn amg_preconditions_elasticity_like_viscous_block() {
        let mesh = StructuredMesh::new_box(3, 3, 3, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let tables = Q2QuadTables::standard();
        let eta = vec![1.0; mesh.num_elements() * tables.nqp()];
        let mut a = assemble_viscous(&mesh, &tables, &eta);
        // Pin the whole bottom face (nonsingular system).
        let mut bc_dofs = Vec::new();
        for nn in mesh.boundary_nodes(2, true) {
            for c in 0..3 {
                bc_dofs.push(3 * nn + c);
            }
        }
        a.zero_rows_cols_set_identity(&bc_dofs);
        let mut mask = vec![false; a.nrows()];
        for &d in &bc_dofs {
            mask[d] = true;
        }
        let b = rigid_body_modes(&mesh.coords, &mask);
        let cfg = AmgConfig {
            block_size: 3,
            max_coarse_size: 200,
            coarse_solver: CoarseSolverKind::DirectLu,
            ..AmgConfig::default()
        };
        let amg = build_sa_amg(a.clone(), &b, &cfg);
        let rhs: Vec<f64> = (0..a.nrows())
            .map(|i| if mask[i] { 0.0 } else { 1.0 })
            .collect();
        let mut x = vec![0.0; a.nrows()];
        let with_amg = cg(
            &a,
            &amg,
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(300),
        );
        assert!(with_amg.converged, "{with_amg:?}");
        let mut x0 = vec![0.0; a.nrows()];
        let plain = cg(
            &a,
            &IdentityPc,
            &rhs,
            &mut x0,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(2000),
        );
        assert!(
            with_amg.iterations * 3 < plain.iterations.max(60),
            "AMG {} vs plain {}",
            with_amg.iterations,
            plain.iterations
        );
    }

    #[test]
    fn stronger_smoother_reduces_iterations() {
        let n = 10;
        let a = laplace3d(n);
        let b = constant_mode(a.nrows());
        let base = AmgConfig {
            block_size: 1,
            coarse_solver: CoarseSolverKind::DirectLu,
            ..AmgConfig::default()
        };
        let weak = build_sa_amg(
            a.clone(),
            &b,
            &AmgConfig {
                smoother: SmootherKind::ChebyshevJacobi { iters: 1 },
                ..base.clone()
            },
        );
        let strong = build_sa_amg(
            a.clone(),
            &b,
            &AmgConfig {
                smoother: SmootherKind::FgmresBlockJacobiIlu0 {
                    iters: 2,
                    blocks: 4,
                },
                ..base
            },
        );
        let rhs = vec![1.0; a.nrows()];
        let cfg = KrylovConfig::default().with_rtol(1e-8);
        let mut x1 = vec![0.0; a.nrows()];
        let s1 = gcr(&a, &weak, &rhs, &mut x1, &cfg);
        let mut x2 = vec![0.0; a.nrows()];
        let s2 = gcr(&a, &strong, &rhs, &mut x2, &cfg);
        assert!(s1.converged && s2.converged);
        assert!(
            s2.iterations <= s1.iterations,
            "{} vs {}",
            s2.iterations,
            s1.iterations
        );
    }

    #[test]
    fn plain_aggregation_builds_and_converges() {
        let a = laplace3d(8);
        let b = constant_mode(a.nrows());
        let cfg = AmgConfig {
            block_size: 1,
            smooth_prolongator: false,
            coarse_solver: CoarseSolverKind::DirectLu,
            ..AmgConfig::default()
        };
        let amg = build_sa_amg(a.clone(), &b, &cfg);
        let rhs = vec![1.0; a.nrows()];
        let mut x = vec![0.0; a.nrows()];
        let stats = cg(
            &a,
            &amg,
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        assert!(stats.converged);
    }
}
