//! Geometric multigrid over the nodally-nested mesh hierarchy (§III-C of
//! the paper): Chebyshev(Jacobi) smoothing on every level, trilinear
//! prolongation / transposed restriction, coarse operators either
//! rediscretized or Galerkin, and a coarsest-level solver (a direct
//! factorization, or AMG-preconditioned CG).

use crate::amg::AmgHierarchy;
use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::pattern::GalerkinQ1Pattern;
use ptatin_la::chebyshev::Chebyshev;
use ptatin_la::csr::Csr;
use ptatin_la::krylov::{cg, KrylovConfig};
use ptatin_la::operator::{LinearOperator, Preconditioner};
use ptatin_la::schwarz::DirectSolver;
use ptatin_la::shared::SharedCsr;
use ptatin_la::simd::{F64x4, SimdPath};
use ptatin_la::transfer::NestedTransfer;
use ptatin_la::vec_ops;
use ptatin_mesh::hierarchy::expand_blocked;
use ptatin_mesh::StructuredMesh;
use ptatin_ops::galerkin_q1_numeric_batched_into;
use ptatin_prof as prof;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-level smoother event names (profiling scopes need `&'static str`);
/// levels deeper than the table share the last entry.
const MG_SMOOTH_NAMES: [&str; 9] = [
    "MGSmooth_L0",
    "MGSmooth_L1",
    "MGSmooth_L2",
    "MGSmooth_L3",
    "MGSmooth_L4",
    "MGSmooth_L5",
    "MGSmooth_L6",
    "MGSmooth_L7",
    "MGSmooth_L8+",
];

fn smooth_event(k: usize) -> &'static str {
    MG_SMOOTH_NAMES[k.min(MG_SMOOTH_NAMES.len() - 1)]
}

/// Coarsest-level solver of the geometric hierarchy. A hierarchy holds
/// one, so the inline AMG variant's size costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum GmgCoarseSolver {
    /// AMG-preconditioned CG capped at a loose tolerance / few iterations.
    /// At the paper's scale the coarsest geometric level is still large and
    /// a single GAMG V-cycle is adequate; at this reproduction's shrunken
    /// coarse grids a lone V-cycle is too inexact and would distort the
    /// comparisons, so a capped inner solve stands in (DESIGN.md §1).
    AmgPcg {
        a: Csr,
        hierarchy: AmgHierarchy,
        rtol: f64,
        max_it: usize,
    },
    /// Exact solve: sparse Cholesky, dense LU for what it rejects. Shared,
    /// so a build inside one nonlinear solve can take over an earlier
    /// build's factor.
    Direct(Arc<DirectSolver>),
}

impl GmgCoarseSolver {
    fn solve(&self, b: &[f64], x: &mut [f64]) {
        match self {
            GmgCoarseSolver::AmgPcg {
                a,
                hierarchy,
                rtol,
                max_it,
            } => {
                x.fill(0.0);
                let cfg = KrylovConfig::default()
                    .with_rtol(*rtol)
                    .with_max_it(*max_it);
                let _ = cg(a, hierarchy, b, x, &cfg);
            }
            GmgCoarseSolver::Direct(lu) => lu.apply(b, x),
        }
    }
}

/// Multigrid cycle shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CycleType {
    /// One coarse-grid correction per level (the paper's production cycle).
    #[default]
    V,
    /// Two coarse-grid corrections per level — more robust per cycle at
    /// roughly twice the coarse-level work (ablation option).
    W,
}

/// Shared operator handle used across MG levels and the outer Krylov
/// operator.
pub type ArcOp = std::sync::Arc<dyn LinearOperator + Send + Sync>;

/// One smoothed level of the geometric hierarchy.
pub struct GmgLevel {
    pub op: ArcOp,
    pub smoother: Chebyshev,
    /// The level's assembled matrix, when it has one (the reference
    /// hierarchies of Table IV); `op` applies the same operator.
    matrix: Option<Arc<Csr>>,
}

impl GmgLevel {
    /// Level whose residuals and smoothing sweeps apply `op`; `matrix`
    /// is the assembled form of `op`, if the level has one.
    pub fn new(op: ArcOp, smoother: Chebyshev, matrix: Option<Arc<Csr>>) -> Self {
        Self {
            op,
            smoother,
            matrix,
        }
    }

    /// The assembled matrix of this level, if it keeps one.
    pub fn matrix(&self) -> Option<&Csr> {
        self.matrix.as_deref()
    }
}

/// Cycle vectors of one smoothed level, sized at construction: the
/// residual and two more vectors on the level — the three of them the
/// smoother's work vectors before and after the coarse correction — and
/// the restricted residual and the coarse correction on the level below.
struct LevelWork {
    r: Vec<f64>,
    d: Vec<f64>,
    ad: Vec<f64>,
    rc: Vec<f64>,
    xc: Vec<f64>,
}

/// A geometric multigrid V(m,n)-cycle usable as a [`Preconditioner`].
///
/// The coarsest level has no smoother: `coarse` solves on it. The smoothed
/// levels above it are stored coarse → fine in `levels`, so `levels[0]` is
/// the coarsest smoothed level and `levels.last()` the finest. The
/// transfers are blocked over the 3 velocity components and filtered for
/// Dirichlet dofs; the cycle runs them as line stencils.
pub struct GeometricMg {
    /// Operators of the smoothed levels, coarse → fine (the coarsest
    /// solver level is *not* in this list).
    pub levels: Vec<GmgLevel>,
    /// The assembled forms of the transfers, built only when read (by a
    /// Galerkin product, a probe or a test; the cycle never reads them):
    /// `prolongations[0]` maps the coarsest (solver) level to `levels[0]`,
    /// `prolongations[k]` maps `levels[k-1]` to `levels[k]`.
    pub prolongations: Vec<SharedCsr>,
    /// The transfers the cycle applies, indexed like `prolongations`.
    /// `Arc`-shared, so a setup cache hands the same ones to every rebuild.
    transfers: Arc<[NestedTransfer]>,
    pub coarse: GmgCoarseSolver,
    /// Pre-/post-smoothing iteration counts (V(m,n)).
    pub pre_smooth: usize,
    pub post_smooth: usize,
    /// V- or W-cycle recursion.
    pub cycle: CycleType,
    /// Per-level cycle vectors. A cycle locks a level's set while it works
    /// on that level and below, so concurrent applications of one
    /// hierarchy take turns instead of allocating.
    work: Vec<Mutex<LevelWork>>,
    /// Accumulated coarse-solve time (ns) and application count.
    coarse_nanos: AtomicU64,
    coarse_calls: AtomicU64,
}

impl GeometricMg {
    /// The cycle over `levels` with the grid `transfers` and their
    /// assembled forms `prolongations` (see [`prolongation_handles`]).
    pub fn new(
        levels: Vec<GmgLevel>,
        transfers: Arc<[NestedTransfer]>,
        prolongations: Vec<SharedCsr>,
        coarse: GmgCoarseSolver,
        pre_smooth: usize,
        post_smooth: usize,
    ) -> Self {
        assert_eq!(transfers.len(), levels.len());
        assert_eq!(prolongations.len(), levels.len());
        let work = levels
            .iter()
            .zip(transfers.iter())
            .map(|(lvl, t)| {
                let (n, nc) = (lvl.op.nrows(), t.ncols());
                assert_eq!(t.nrows(), n, "transfer rows against the level's dofs");
                Mutex::new(LevelWork {
                    r: vec![0.0; n],
                    d: vec![0.0; n],
                    ad: vec![0.0; n],
                    rc: vec![0.0; nc],
                    xc: vec![0.0; nc],
                })
            })
            .collect();
        Self {
            levels,
            prolongations,
            transfers,
            work,
            coarse,
            pre_smooth,
            post_smooth,
            cycle: CycleType::V,
            coarse_nanos: AtomicU64::new(0),
            coarse_calls: AtomicU64::new(0),
        }
    }

    /// Switch to W-cycles (builder style).
    pub fn with_cycle(mut self, cycle: CycleType) -> Self {
        self.cycle = cycle;
        self
    }

    /// Total wall time spent in the coarse solver so far (seconds).
    pub fn coarse_apply_seconds(&self) -> f64 {
        self.coarse_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn coarse_apply_count(&self) -> u64 {
        self.coarse_calls.load(Ordering::Relaxed)
    }

    /// Number of levels including the coarse-solver level.
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// `k` counts smoothed levels top-down: `k == levels.len()` is the
    /// finest. `x_is_zero`: the iterate comes in zeroed (every visit but a
    /// W-cycle's warm second one).
    fn vcycle(&self, k: usize, b: &[f64], x: &mut [f64], x_is_zero: bool) {
        if k == 0 {
            let _ev = prof::scope("MGCoarseSolve");
            // DETERMINISM-OK: coarse-solve wall-clock feeds counters only
            // and never influences numeric results.
            let t0 = std::time::Instant::now();
            self.coarse.solve(b, x);
            self.coarse_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.coarse_calls.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let lvl = &self.levels[k - 1];
        let a = lvl.op.as_ref();
        // The vectors are scratch, overwritten below before they are read,
        // so a lock poisoned by a panicking cycle is still good to use.
        let mut work = self.work[k - 1]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let LevelWork { r, d, ad, rc, xc } = &mut *work;
        {
            let _ev = prof::scope(smooth_event(k));
            let work = [&mut r[..], &mut d[..], &mut ad[..]];
            // A zero iterate saves the sweeps their first operator apply.
            if x_is_zero {
                lvl.smoother
                    .smooth_from_zero(a, b, x, self.pre_smooth, work);
            } else {
                lvl.smoother
                    .smooth_with_work(a, b, x, self.pre_smooth, work);
            }
        }
        // Residual: r = b - A x (axpby(1, b, -1, r) is bitwise-identical
        // to the elementwise subtraction and runs on the worker pool).
        a.apply(x, r);
        vec_ops::axpby(1.0, b, -1.0, r);
        // Restrict through Pᵀ.
        {
            let _ev = prof::scope("MGRestrict");
            self.transfers[k - 1].restrict(r, rc);
        }
        // μ-cycle: recurse μ times on the *same* coarse problem with a
        // warm start (the textbook W-cycle; refreshing the fine residual
        // between visits instead is not contractive when intermediate
        // operators are rediscretized rather than Galerkin).
        // Level 0's direct/AMG coarse solvers overwrite their output and
        // ignore warm starts, so extra visits there are wasted work.
        let visits = match self.cycle {
            CycleType::V => 1,
            CycleType::W if k == 1 => 1,
            CycleType::W => 2,
        };
        xc.fill(0.0);
        for visit in 0..visits {
            self.vcycle(k - 1, rc, xc, visit == 0);
        }
        // Prolong and correct in one sweep.
        {
            let _ev = prof::scope("MGProlong");
            self.transfers[k - 1].prolong_add(xc, x);
        }
        let _ev = prof::scope(smooth_event(k));
        let work = [&mut r[..], &mut d[..], &mut ad[..]];
        lvl.smoother
            .smooth_with_work(a, b, x, self.post_smooth, work);
    }
}

impl Preconditioner for GeometricMg {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.fill(0.0);
        self.vcycle(self.levels.len(), r, z, true);
    }
}

/// The assembled forms of `transfers` as on-demand handles: on first
/// read, `scalar[l]` (the hierarchy's node-grid prolongation onto the
/// fine grid of `transfers[l]`) expanded over the 3 velocity components
/// and filtered by the transfer's Dirichlet masks, under the
/// `mg.assemble_prolongation` scope.
pub fn prolongation_handles(
    scalar: &[SharedCsr],
    transfers: &Arc<[NestedTransfer]>,
) -> Vec<SharedCsr> {
    assert_eq!(scalar.len(), transfers.len());
    scalar
        .iter()
        .enumerate()
        .map(|(l, s)| {
            let (s, ts) = (s.clone(), transfers.clone());
            SharedCsr::new(ts[l].nrows(), ts[l].ncols(), move || {
                let _s = prof::scope("mg.assemble_prolongation");
                let t = &ts[l];
                let mut p = expand_blocked(&s, 3);
                filter_transfer(&mut p, t.fine_mask(), t.coarse_mask());
                p
            })
        })
        .collect()
}

/// Zero the rows of a grid-transfer operator at constrained fine dofs and
/// the columns at constrained coarse dofs, so restricted residuals and
/// prolongated corrections respect the homogeneous Dirichlet space.
pub fn filter_transfer(p: &mut Csr, fine_mask: &[bool], coarse_mask: &[bool]) {
    assert_eq!(fine_mask.len(), p.nrows());
    assert_eq!(coarse_mask.len(), p.ncols());
    for i in 0..p.nrows() {
        let kill_row = fine_mask[i];
        let (s, e) = (p.indptr[i], p.indptr[i + 1]);
        for k in s..e {
            if kill_row || coarse_mask[p.indices[k] as usize] {
                p.values[k] = 0.0;
            }
        }
    }
}

/// Whether every constrained fine dof interpolates only from constrained
/// coarse dofs under the transfer `p` (filtered or not: filtering keeps
/// the structural entries). This is what makes `Pᵀ A P` of the filtered
/// transfer and the eliminated fine matrix equal to the eliminated
/// product of the unfiltered ones, and so lets [`galerkin_coarse_q1`]
/// stand in for [`galerkin_coarse`]. It holds for Dirichlet sets built
/// face by face on both levels. The builder asks
/// [`NestedTransfer::dirichlet_sets_nested`], which answers the same from
/// the stencil.
pub fn dirichlet_sets_nested(p: &Csr, fine_mask: &[bool], coarse_mask: &[bool]) -> bool {
    assert_eq!(fine_mask.len(), p.nrows());
    assert_eq!(coarse_mask.len(), p.ncols());
    (0..p.nrows())
        .filter(|&i| fine_mask[i])
        .all(|i| p.row_indices(i).iter().all(|&j| coarse_mask[j as usize]))
}

/// The Galerkin coarse operator of [`galerkin_coarse`] for the
/// embedded-trilinear transfer of `ptatin_mesh::hierarchy`, assembled
/// from the elements of the `fine` mesh and its quadrature-point
/// viscosity `eta` without the fine matrix: the product is the Q1
/// stiffness matrix on the fine corner grid. Requires
/// [`dirichlet_sets_nested`]; `pat` carries the coarse Dirichlet mask.
/// Same sparsity pattern as the product, values equal up to rounding.
pub fn galerkin_coarse_q1(
    pat: &GalerkinQ1Pattern,
    fine: &StructuredMesh,
    tables: &Q2QuadTables,
    eta: &[f64],
    path: SimdPath,
    lane_scratch: &mut Vec<F64x4>,
) -> Csr {
    // The matrix leaves with the coarse solver, so it owns its values.
    let mut values = vec![0.0; pat.nnz()];
    galerkin_q1_numeric_batched_into(pat, fine, tables, eta, path, lane_scratch, &mut values);
    pat.to_csr(values)
}

/// Galerkin coarse operator `Pᵀ A P` with unit diagonal restored on
/// constrained coarse dofs (their rows/cols were filtered to zero).
pub fn galerkin_coarse(a_fine: &Csr, p: &Csr, coarse_mask: &[bool]) -> Csr {
    galerkin_coarse_with_pt(a_fine, p, &p.transpose(), coarse_mask)
}

/// [`galerkin_coarse`] with a precomputed (cacheable) transpose of `p`.
/// Bitwise identical to the fresh path because `transpose()` is
/// deterministic in the transfer alone.
pub fn galerkin_coarse_with_pt(a_fine: &Csr, p: &Csr, pt: &Csr, coarse_mask: &[bool]) -> Csr {
    let mut ac = Csr::rap_with_pt(a_fine, p, pt);
    let bc_rows: Vec<usize> = coarse_mask
        .iter()
        .enumerate()
        .filter_map(|(i, &m)| m.then_some(i))
        .collect();
    // Rows are zero after filtering; make them identity.
    let eye = {
        let triplets: Vec<(usize, usize, f64)> = bc_rows.iter().map(|&i| (i, i, 1.0)).collect();
        Csr::from_triplets(ac.nrows(), ac.ncols(), &triplets)
    };
    ac = ac.add_scaled(&eye, 1.0);
    // In case RAP left residues in constrained rows/cols, hard-enforce.
    ac.zero_rows_cols_set_identity(&bc_rows);
    ac
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptatin_fem::assemble::{assemble_viscous, Q2QuadTables};
    use ptatin_fem::bc::DirichletBc;
    use ptatin_la::krylov::gcr;
    use ptatin_mesh::hierarchy::{prolongation_scalar, MeshHierarchy};
    use ptatin_mesh::StructuredMesh;

    /// Build a 2- or 3-level GMG for the constrained viscous operator on a
    /// box mesh with all-face no-slip, Galerkin coarse operators.
    fn build_gmg(m: usize, levels: usize, pre: usize, post: usize) -> (Csr, GeometricMg, Vec<f64>) {
        let tables = Q2QuadTables::standard();
        let fine = StructuredMesh::new_box(m, m, m, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let hier = MeshHierarchy::new(fine, levels);
        // Assemble per level with BCs.
        let mut ops: Vec<Csr> = Vec::new();
        let mut masks: Vec<Vec<bool>> = Vec::new();
        for mesh in &hier.meshes {
            let eta = vec![1.0; mesh.num_elements() * tables.nqp()];
            let mut bc = DirichletBc::new();
            for ax in 0..3 {
                for mn in [true, false] {
                    for nn in mesh.boundary_nodes(ax, mn) {
                        for c in 0..3 {
                            bc.set(3 * nn + c, 0.0);
                        }
                    }
                }
            }
            let mut a = assemble_viscous(mesh, &tables, &eta);
            a.zero_rows_cols_set_identity(&bc.dofs);
            masks.push(bc.mask(a.nrows()));
            ops.push(a);
        }
        // Transfers.
        let transfers: Arc<[NestedTransfer]> = (0..levels - 1)
            .map(|l| {
                let fine = hier.meshes[l + 1].node_dims();
                NestedTransfer::new(fine, masks[l + 1].clone(), masks[l].clone())
            })
            .collect();
        let ps = prolongation_handles(&hier.prolongations, &transfers);
        // Replace coarsest op by Galerkin from the level above (the paper's
        // robust choice) and solve it directly.
        let ac = galerkin_coarse(&ops[1], &ps[0], &masks[0]);
        let coarse = GmgCoarseSolver::Direct(Arc::new(DirectSolver::new(&ac)));
        let fine_a = ops.last().unwrap().clone();
        let mut lvls = Vec::new();
        for a in ops.into_iter().skip(1) {
            let smoother = Chebyshev::new(&a, 2, 10);
            lvls.push(GmgLevel::new(Arc::new(a), smoother, None));
        }
        let rhs: Vec<f64> = {
            let n = fine_a.nrows();
            let mask = masks.last().unwrap();
            (0..n).map(|i| if mask[i] { 0.0 } else { 1.0 }).collect()
        };
        let mg = GeometricMg::new(lvls, transfers, ps, coarse, pre, post);
        (fine_a, mg, rhs)
    }

    #[test]
    fn vcycle_preconditioned_krylov_converges_fast() {
        let (a, mg, rhs) = build_gmg(4, 2, 2, 2);
        let mut x = vec![0.0; a.nrows()];
        let stats = gcr(
            &a,
            &mg,
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(100),
        );
        assert!(stats.converged, "{stats:?}");
        assert!(
            stats.iterations <= 25,
            "V(2,2) GMG should converge in few iterations, took {}",
            stats.iterations
        );
        assert!(mg.coarse_apply_count() as usize >= stats.iterations);
    }

    #[test]
    fn iteration_count_mesh_independent() {
        let (a4, mg4, rhs4) = build_gmg(4, 2, 2, 2);
        let mut x4 = vec![0.0; a4.nrows()];
        let s4 = gcr(
            &a4,
            &mg4,
            &rhs4,
            &mut x4,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        let (a8, mg8, rhs8) = build_gmg(8, 3, 2, 2);
        let mut x8 = vec![0.0; a8.nrows()];
        let s8 = gcr(
            &a8,
            &mg8,
            &rhs8,
            &mut x8,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        assert!(s4.converged && s8.converged);
        assert!(
            s8.iterations <= s4.iterations + 8,
            "GMG not h-independent: {} → {}",
            s4.iterations,
            s8.iterations
        );
    }

    #[test]
    fn deeper_smoothing_reduces_iterations() {
        let (a, mg22, rhs) = build_gmg(4, 2, 1, 1);
        let mut x = vec![0.0; a.nrows()];
        let s11 = gcr(
            &a,
            &mg22,
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        let (a2, mg33, rhs2) = build_gmg(4, 2, 3, 3);
        let mut x2 = vec![0.0; a2.nrows()];
        let s33 = gcr(
            &a2,
            &mg33,
            &rhs2,
            &mut x2,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        assert!(s11.converged && s33.converged);
        assert!(s33.iterations <= s11.iterations);
    }

    #[test]
    fn w_cycle_converges_at_least_as_fast_as_v() {
        // 3 levels so the W recursion actually branches (at 2 levels the
        // coarse direct solve ignores warm starts and W degenerates to V).
        let (a, mgv, rhs) = build_gmg(8, 3, 2, 2);
        let mut xv = vec![0.0; a.nrows()];
        let sv = gcr(
            &a,
            &mgv,
            &rhs,
            &mut xv,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        let (a2, mgw, rhs2) = build_gmg(8, 3, 2, 2);
        let mgw = mgw.with_cycle(crate::gmg::CycleType::W);
        let mut xw = vec![0.0; a2.nrows()];
        let sw = gcr(
            &a2,
            &mgw,
            &rhs2,
            &mut xw,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        assert!(sv.converged && sw.converged);
        assert!(
            sw.iterations <= sv.iterations + 2,
            "W-cycle ({}) should be at least as strong as V ({})",
            sw.iterations,
            sv.iterations
        );
        // W-cycle visits the coarse solver more often per application.
        assert!(
            mgw.coarse_apply_count() as f64
                > 1.4 * mgv.coarse_apply_count() as f64
                    / (sv.iterations as f64 / sw.iterations as f64).max(1.0)
        );
    }

    #[test]
    fn filter_transfer_zeroes_constrained() {
        let fine = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let coarse = fine.coarsen();
        let mut p = expand_blocked(&prolongation_scalar(&coarse, &fine), 3);
        let mut fine_mask = vec![false; p.nrows()];
        fine_mask[5] = true;
        let mut coarse_mask = vec![false; p.ncols()];
        coarse_mask[2] = true;
        filter_transfer(&mut p, &fine_mask, &coarse_mask);
        for v in p.row_values(5) {
            assert_eq!(*v, 0.0);
        }
        for i in 0..p.nrows() {
            for (c, v) in p.row_indices(i).iter().zip(p.row_values(i)) {
                if *c == 2 {
                    assert_eq!(*v, 0.0);
                }
            }
        }
    }
}
