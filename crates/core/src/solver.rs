//! The coupled Stokes solver: hybrid geometric/algebraic multigrid setup
//! for the viscous block, the full-space block operator, the
//! block-lower-triangular field-split preconditioner of Eq. (17) and the
//! Schur-complement-reduction (SCR) alternative of §III-B.

use ptatin_fem::assemble::{
    num_pressure_dofs, num_velocity_dofs, PressureMassBlocks, Q2QuadTables,
};
use ptatin_fem::bc::DirichletBc;
use ptatin_fem::pattern::{GalerkinQ1Pattern, ViscousPattern};
use ptatin_la::chebyshev::{inverse_diagonal, Chebyshev};
use ptatin_la::cholesky::CholeskySymbolic;
use ptatin_la::coupling::CouplingBlock;
use ptatin_la::csr::Csr;
use ptatin_la::krylov::{cg, fgmres, gcr, KrylovConfig, Monitor, SolveStats};
use ptatin_la::operator::{with_block_scratch, LinearOperator, Preconditioner, TimedOperator};
use ptatin_la::schwarz::DirectSolver;
use ptatin_la::shared::SharedCsr;
use ptatin_la::simd::{runtime_simd_path, F64x4};
use ptatin_la::transfer::NestedTransfer;
use ptatin_la::vec_ops;
use ptatin_mesh::hierarchy::MeshHierarchy;
use ptatin_mg::amg::{build_sa_amg, AmgConfig};
use ptatin_mg::gmg::{
    galerkin_coarse_q1, galerkin_coarse_with_pt, prolongation_handles, ArcOp, CycleType,
    GeometricMg, GmgCoarseSolver, GmgLevel,
};
use ptatin_mg::nullspace::rigid_body_modes;
use ptatin_mpm::projection::{coarsen_corner_field, corners_to_quadrature_log};
use ptatin_ops::{
    assemble_gradient_batched, detected_simd_path, pressure_mass_blocks_batched,
    viscous_numeric_batched_into, BatchedGeometry, BatchedViscousOp, ViscousOpData,
};
use ptatin_prof as prof;
use std::sync::Arc;

/// Coarsest-level solver selection for the velocity multigrid.
#[derive(Clone, Debug, PartialEq)]
pub enum CoarseKind {
    /// Capped CG preconditioned by one V(2,2) cycle of smoothed-aggregation
    /// AMG with rigid-body modes: the GAMG coarse solve of §IV-A, kept for
    /// Table IV and the benchmark's `sinker12`.
    Amg {
        /// Subdomain count of the AMG-coarsest block-Jacobi/LU solve.
        coarse_blocks: usize,
    },
    /// Exact solve by sparse envelope Cholesky, factored once per build
    /// (`ptatin_la::cholesky`; a matrix it rejects falls back to dense LU).
    /// The product's coarse solve: every coarse grid here is a few thousand
    /// unknowns, and factor work grows as n·bw², DESIGN.md §1 has the
    /// crossover.
    Direct,
}

/// Velocity-block multigrid configuration (the knobs varied in §IV).
///
/// Every smoothed level applies the batched tensor kernel
/// (`TensorBatched`, §III-E) and smooths with the `ptatin_ops::diag`
/// diagonal. Matrices exist only for the coarse solve and as the input of
/// its Galerkin product. The reference hierarchies Tables II–IV compare
/// against (other fine-level kinds, every level assembled, GMG-ii) are
/// built outside the library, by `ptatin_bench::reference_solver`.
#[derive(Clone, Debug)]
pub struct GmgConfig {
    /// Number of geometric levels (paper: 3).
    pub levels: usize,
    /// Coarsest operator via Galerkin projection (paper default) instead
    /// of rediscretization.
    pub galerkin_coarsest: bool,
    /// V(m,n) smoothing depths.
    pub pre_smooth: usize,
    pub post_smooth: usize,
    /// V- or W-cycle recursion (paper: V).
    pub cycle: CycleType,
    pub coarse: CoarseKind,
}

impl Default for GmgConfig {
    fn default() -> Self {
        Self {
            levels: 3,
            galerkin_coarsest: true,
            pre_smooth: 2,
            post_smooth: 2,
            cycle: CycleType::V,
            coarse: CoarseKind::Direct,
        }
    }
}

/// Power iterations for the Chebyshev λmax estimate of every smoothed level.
pub const CHEB_EST_ITERS: usize = 10;

/// Handles for instrumentation of the velocity MG.
pub struct GmgTimers {
    /// Per smoothed level (coarse → fine): timed operator handles.
    pub level_ops: Vec<Arc<TimedOperator<ArcOp>>>,
    /// Setup wall time (s), including assembly, RAP, AMG setup, λ estimates.
    pub setup_seconds: f64,
    /// AMG coarse-hierarchy setup time if applicable.
    pub coarse_setup_seconds: f64,
}

impl GmgTimers {
    /// Total operator-application ("MatMult") time across levels.
    pub fn matmult_seconds(&self) -> f64 {
        self.level_ops.iter().map(|t| t.seconds()).sum()
    }
    pub fn reset(&self) {
        for t in &self.level_ops {
            t.reset();
        }
    }
}

/// Everything needed to run linear Stokes solves against one linearization
/// state: the velocity multigrid, coupling blocks and Schur preconditioner.
pub struct StokesSolver {
    pub nu: usize,
    pub np: usize,
    /// The velocity-block V-cycle preconditioner.
    pub mg: GeometricMg,
    /// Finest-level (masked) viscous operator — the Krylov J_uu action.
    pub a_fine: ArcOp,
    /// Optional Newton-linearized J_uu action (Picard stays in `mg`).
    pub a_newton: Option<ArcOp>,
    /// J_pu with Dirichlet velocity columns zeroed. A handle: the batched
    /// kernel applies the block inside its element pass, so only a reader
    /// of the matrix ([`StokesSolver::solve_scr`], the solve of a velocity
    /// block that is not the batched kernel, a diagnostic) assembles it,
    /// once, for every holder of the handle.
    pub b_masked: SharedCsr,
    /// J_pu untouched (residual evaluation), deferred like `b_masked`.
    pub b_full: SharedCsr,
    /// Element-block inverse of the (1/η)-weighted pressure mass matrix.
    pub schur: PressureMassBlocks,
    /// Instrumentation handles.
    pub timers: GmgTimers,
    /// Fine-level Dirichlet constraints.
    pub bc: DirichletBc,
}

/// How the effective viscosity reaches the quadrature points of every
/// multigrid level.
pub enum ViscositySpec<'a> {
    /// Corner field on the finest mesh (output of the material-point
    /// projection); coarser levels inherit it by the configured
    /// restriction, and quadrature values interpolate the corner field.
    Corner(&'a [f64]),
    /// Analytic η(x) evaluated *directly* at the physical coordinates of
    /// each quadrature point on every level. Keeps mesh-aligned viscosity
    /// discontinuities sharp (corner interpolation would smear a jump over
    /// the interface-adjacent elements and destroy the discretization
    /// order) — the SolCx verification path.
    Analytic(&'a dyn Fn([f64; 3]) -> f64),
}

/// Evaluate an analytic viscosity at every quadrature point of a mesh.
pub(crate) fn analytic_eta_qp(
    mesh: &ptatin_mesh::StructuredMesh,
    tables: &Q2QuadTables,
    eta: &dyn Fn([f64; 3]) -> f64,
) -> Vec<f64> {
    let nqp = tables.nqp();
    let mut out = vec![0.0; mesh.num_elements() * nqp];
    for e in 0..mesh.num_elements() {
        let corners = mesh.element_corner_coords(e);
        for q in 0..nqp {
            let x = ptatin_fem::geometry::map_to_physical(&corners, tables.quad.points[q]);
            out[e * nqp + q] = eta(x);
        }
    }
    out
}

/// Value-independent setup state reused across solver rebuilds — the
/// symbolic half of the symbolic/numeric assembly split (DESIGN.md §13).
///
/// A Picard/Newton iteration changes only the coefficient field, and an
/// ALE time step only the node coordinates, so the cache is keyed in two
/// tiers and each entry lives in the tier of what it is a function of:
///
/// * **topology** — mesh dimensions and the Dirichlet dof list of every
///   level: the grid transfers (line stencils that carry the Dirichlet
///   masks), the handles of their assembled blocked forms (each assembled
///   only when first read, by a Galerkin product, and then with its
///   transpose, the structural half of RAP), the sparsity patterns, the
///   assembly buffers and the symbolic phase of the direct coarse solve;
/// * **geometry** — additionally the bits of every node coordinate: the
///   handles of the gradient block `J_pu` and its bc-masked twin (each
///   assembled only when first read, and shared with every solver the
///   tier hands it to, never copied), the gathered
///   matrix-free element tables, the batched kernel's geometry packs
///   (shared by the level, Newton and residual operators of a level), and
///   the λmax memos (keyed on the bits of η on top of that).
///
/// A changed topology key empties both tiers, a changed geometry key the
/// geometry tier only. Everything value-dependent — numeric assembly,
/// Galerkin products, λmax estimates, the AMG hierarchy (its smoothed
/// prolongator depends on the operator values, so it is *not* reusable;
/// see DESIGN.md §13) and the numeric phase of the coarse factorization —
/// is recomputed from bitwise-identical inputs, so a cached rebuild is
/// bitwise identical to a fresh one.
///
/// A third, solve-scoped **lag** tier holds what a build may take over from
/// an earlier build instead of recomputing it: the Chebyshev bounds of
/// every smoothed level and, between [`begin_nonlinear_solve`] and
/// [`end_nonlinear_solve`], the `CoarseKind::Direct` factor. Each entry
/// keeps the fine corner viscosity it was computed from, `η_ref`, and is
/// reused while [`within_drift`]`(η, η_ref, tol)` holds, with
/// `tol = LAG_DRIFT` inside a nonlinear solve and `0` (bitwise-equal η)
/// outside one. So outside a nonlinear solve a cached build is still
/// bitwise a fresh one, and inside one a build is a pure function of that
/// solve's η history. `ViscositySpec::Analytic` builds never reuse.
///
/// [`begin_nonlinear_solve`]: Self::begin_nonlinear_solve
/// [`end_nonlinear_solve`]: Self::end_nonlinear_solve
#[derive(Default)]
pub struct SetupCache {
    /// Per level: mesh dimensions, then length and hash of the Dirichlet
    /// dof list.
    topo_key: Vec<(usize, usize, usize, usize, u64)>,
    /// Per level: hash of the node-coordinate bits.
    geom_key: Vec<u64>,
    topo: TopologyTier,
    geom: GeometryTier,
    lag: LagTier,
    counts: LagCounts,
}

#[derive(Default)]
struct TopologyTier {
    tables: Option<Q2QuadTables>,
    /// Grid transfers (coarse → fine edges), with the Dirichlet masks of
    /// every level over its velocity dofs, and the on-demand handles of
    /// their filtered blocked prolongations.
    transfers: Option<(Arc<[NestedTransfer]>, Vec<SharedCsr>)>,
    /// Cached transpose of the coarsest prolongation (the reusable half of
    /// RAP; only the coarsest operator is ever a product).
    transfer_t: Option<Csr>,
    /// Per-level viscous sparsity patterns (levels that get assembled).
    patterns: Vec<Option<ViscousPattern>>,
    /// Per-level assembled-value buffers (reused allocations).
    values: Vec<Vec<f64>>,
    /// Lane scratch of the batched numeric phases, shared across levels.
    lane_scratch: Vec<F64x4>,
    /// Pattern of the directly assembled Galerkin coarsest operator.
    /// Outer `None`: not asked for yet; `Some(None)`: the Dirichlet sets
    /// of levels 1 and 0 are not nested, so the product is not the Q1
    /// stiffness matrix and the builder forms it by RAP.
    galerkin_q1: Option<Option<GalerkinQ1Pattern>>,
    /// Symbolic phase of the direct coarse solve: ordering, envelope and
    /// scatter map of the coarsest matrix. Checked against the pattern it
    /// is handed, so a configuration that forms the matrix another way
    /// re-analyzes.
    coarse_symbolic: Option<Arc<CholeskySymbolic>>,
}

#[derive(Default)]
struct GeometryTier {
    /// Gradient block `J_pu` of the finest mesh and its bc-masked twin,
    /// as handles that assemble when first read.
    b_full: Option<SharedCsr>,
    b_masked: Option<SharedCsr>,
    /// Gathered element tables and geometry packs of every matrix-free
    /// level.
    op_base: Vec<OpBase>,
}

impl GeometryTier {
    /// The handle of `J_pu` on `mesh` (the finest), created on first use.
    fn gradient_block(&mut self, mesh: &ptatin_mesh::StructuredMesh) -> SharedCsr {
        self.b_full
            .get_or_insert_with(|| {
                let mesh = mesh.clone();
                let path = runtime_simd_path();
                SharedCsr::new(
                    num_pressure_dofs(&mesh),
                    num_velocity_dofs(&mesh),
                    move || {
                        assemble_gradient_batched(&mesh, ptatin_ops::data::shared_tables(), path)
                    },
                )
            })
            .clone()
    }
}

/// Drift bound of the solve-scoped lag: inside one nonlinear solve a build
/// reuses the coarse factor and Chebyshev bounds of an earlier build while
/// `max_i |ln(η_i / η_ref,i)| ≤ LAG_DRIFT` over the fine corner viscosity,
/// i.e. while no corner viscosity has moved by more than a factor `e`. The
/// preconditioner of a Newton step is Picard-built, so already an
/// approximation. Chosen by measurement (EXPERIMENTS.md, "Lagged
/// re-linearization"): of the factors 2, e and 5 the largest that keeps
/// every swept seed's Newton count within ±1 of the unlagged run.
pub const LAG_DRIFT: f64 = 1.0;

/// The lag's drift predicate: `max_i |ln(eta_i / eta_ref_i)| ≤ tol`,
/// evaluated as `eta_i ≤ eta_ref_i·e^tol` and `eta_ref_i ≤ eta_i·e^tol`.
/// A length mismatch or a non-finite or non-positive entry on either side
/// fails it. At `tol = 0` it holds exactly when the fields are bitwise
/// equal.
pub fn within_drift(eta: &[f64], eta_ref: &[f64], tol: f64) -> bool {
    let bound = tol.exp();
    let valid = |v: f64| v.is_finite() && v > 0.0;
    eta.len() == eta_ref.len()
        && eta
            .iter()
            .zip(eta_ref)
            .all(|(&x, &r)| valid(x) && valid(r) && x <= r * bound && r <= x * bound)
}

/// What the lag tier holds. Emptied by a changed geometry or topology key
/// and at both ends of a nonlinear solve.
#[derive(Default)]
struct LagTier {
    /// Inside a nonlinear solve: drift bound `LAG_DRIFT`, and the direct
    /// coarse factor is kept.
    active: bool,
    coarse: Option<Lagged<Arc<DirectSolver>>>,
    /// Chebyshev `(λ_lo, λ_hi)` per smoothed level (coarse → fine).
    lambda: Option<Lagged<Vec<(f64, f64)>>>,
}

impl LagTier {
    fn clear(&mut self) {
        self.coarse = None;
        self.lambda = None;
    }
}

/// A value one build computed, with the fine corner viscosity and the
/// configuration it was computed from.
struct Lagged<T> {
    eta_ref: Vec<f64>,
    cfg_key: u64,
    value: T,
}

impl<T> Lagged<T> {
    fn reusable(&self, eta: &[f64], cfg_key: u64, tol: f64) -> bool {
        self.cfg_key == cfg_key && within_drift(eta, &self.eta_ref, tol)
    }
}

/// How many builds through one cache reused lagged state instead of
/// recomputing it (cumulative; emptying the tiers does not reset it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LagCounts {
    /// Builds that took over the direct coarse factor of an earlier build.
    pub coarse: usize,
    /// Smoothed levels whose Chebyshev bounds came from an earlier build.
    pub lambda: usize,
}

/// Order-sensitive 64-bit hash of a word sequence (rotate–xor–multiply).
fn hash_words(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

impl SetupCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the tiers whose key changed and size the per-level slots.
    fn validate(&mut self, hier: &MeshHierarchy, bcs: &[DirichletBc]) {
        assert_eq!(bcs.len(), hier.num_levels());
        let topo: Vec<_> = hier
            .meshes
            .iter()
            .zip(bcs)
            .map(|(m, bc)| {
                let dofs = hash_words(bc.dofs.iter().map(|&d| d as u64));
                (m.mx, m.my, m.mz, bc.dofs.len(), dofs)
            })
            .collect();
        let geom: Vec<u64> = hier
            .meshes
            .iter()
            .map(|m| hash_words(m.coords.iter().flatten().map(|x| x.to_bits())))
            .collect();
        if self.topo_key != topo {
            self.topo = TopologyTier::default();
            self.geom = GeometryTier::default();
            self.lag.clear();
            self.topo_key = topo;
        } else if self.geom_key != geom {
            self.geom = GeometryTier::default();
            self.lag.clear();
        }
        self.geom_key = geom;
        let levels = hier.num_levels();
        self.topo.patterns.resize_with(levels, || None);
        self.topo.values.resize_with(levels, Vec::new);
        self.geom.op_base.resize_with(levels, OpBase::default);
    }

    /// Open the lag scope of one nonlinear solve: empty the lag tier, and
    /// until [`end_nonlinear_solve`](Self::end_nonlinear_solve) let builds
    /// reuse lagged state within `LAG_DRIFT`. A scope never spans a time
    /// step, so a restarted run sees the same lag decisions.
    pub fn begin_nonlinear_solve(&mut self) {
        self.lag.clear();
        self.lag.active = true;
    }

    /// Close the lag scope: empty the tier (dropping its coarse factor) and
    /// return to bitwise-equal reuse only.
    pub fn end_nonlinear_solve(&mut self) {
        self.lag.clear();
        self.lag.active = false;
    }

    /// Lagged reuses so far (see [`LagCounts`]).
    pub fn lag_counts(&self) -> LagCounts {
        self.counts
    }

    /// Which levels hold a Q2 viscous sparsity pattern, i.e. were
    /// assembled by a build through this cache (coarse → fine).
    pub fn viscous_pattern_levels(&self) -> Vec<bool> {
        self.topo.patterns.iter().map(Option::is_some).collect()
    }

    /// The unmasked gradient block `J_pu` of the finest mesh — what the
    /// nonlinear residual is handed and every build hands out as
    /// `StokesSolver::b_full`. One handle per geometry, assembled when
    /// first read.
    pub fn gradient_block(&mut self, hier: &MeshHierarchy, bcs: &[DirichletBc]) -> SharedCsr {
        self.validate(hier, bcs);
        self.geom.gradient_block(hier.finest())
    }

    /// The gradient block handle the geometry tier holds, if a build or
    /// [`gradient_block`](Self::gradient_block) created one.
    pub fn cached_gradient_block(&self) -> Option<&SharedCsr> {
        self.geom.b_full.as_ref()
    }

    /// The handles of the filtered blocked prolongations the topology tier
    /// holds (coarse → fine edges), if a build created them.
    pub fn cached_prolongations(&self) -> Option<&[SharedCsr]> {
        self.topo.transfers.as_ref().map(|(_, p)| &p[..])
    }

    /// The *unconstrained* Picard action on the finest mesh for the
    /// viscosity `eta_qp` (nonlinear residual evaluation): the batched
    /// kernel over the cached element tables, without the Dirichlet mask.
    pub fn residual_operator(
        &mut self,
        hier: &MeshHierarchy,
        bcs: &[DirichletBc],
        eta_qp: Vec<f64>,
    ) -> ArcOp {
        self.validate(hier, bcs);
        let top = hier.num_levels() - 1;
        let base = &mut self.geom.op_base[top];
        let mut data = make_op_data(&mut base.data, hier.finest(), eta_qp, &bcs[top], None);
        data.constrained = Vec::new();
        Arc::new(base.batched_op(data))
    }
}

/// The cached matrix-free inputs of one level: the gathered element tables
/// and the batched kernel's geometry pack. Both are functions of the
/// level's mesh (and bc list) only.
#[derive(Default)]
struct OpBase {
    data: Option<ViscousOpData>,
    batched: Option<Arc<BatchedGeometry>>,
}

impl OpBase {
    /// The batched operator for `data` on this level's geometry pack,
    /// packed on first use.
    fn batched_op(&mut self, data: ViscousOpData) -> BatchedViscousOp {
        let geom = self
            .batched
            .get_or_insert_with(|| Arc::new(BatchedGeometry::new(&data)))
            .clone();
        BatchedViscousOp::with_geometry(Arc::new(data), geom, detected_simd_path())
    }

    /// The level's batched operator for the viscosity `eta_qp` (and the
    /// Newton coefficient, if any) as a shared handle.
    fn level_op(
        &mut self,
        mesh: &ptatin_mesh::StructuredMesh,
        eta_qp: Vec<f64>,
        bc: &DirichletBc,
        newton: Option<ptatin_ops::NewtonData>,
    ) -> ArcOp {
        let data = make_op_data(&mut self.data, mesh, eta_qp, bc, newton);
        Arc::new(self.batched_op(data))
    }
}

/// Assemble (or numerically re-assemble) the bc-eliminated viscous matrix
/// of one level through its cached sparsity pattern. Bitwise identical to
/// `ptatin_ops::assembled_viscous_op` — same pattern, same batched numeric
/// phase, same elimination — with the symbolic phase and the value/scratch
/// allocations amortized across rebuilds.
fn assembled_level_cached(
    pattern: &mut Option<ViscousPattern>,
    values: &mut Vec<f64>,
    lane_scratch: &mut Vec<F64x4>,
    mesh: &ptatin_mesh::StructuredMesh,
    tables: &Q2QuadTables,
    eta_qp: &[f64],
    bc: &DirichletBc,
) -> Csr {
    let _s = prof::scope("setup/assembly");
    let pat = pattern.get_or_insert_with(|| ViscousPattern::build(mesh));
    // Grow-once value buffer, reused across re-assemblies.
    values.resize(pat.nnz(), 0.0);
    viscous_numeric_batched_into(
        pat,
        mesh,
        tables,
        eta_qp,
        runtime_simd_path(),
        lane_scratch,
        values,
    );
    let mut a = pat.to_csr(values.clone());
    if !bc.is_empty() {
        a.zero_rows_cols_set_identity(&bc.dofs);
    }
    a
}

/// Gathered matrix-free element data, reusing the cached structural tables
/// when available (and snapshotting them on first build).
fn make_op_data(
    base: &mut Option<ViscousOpData>,
    mesh: &ptatin_mesh::StructuredMesh,
    eta_qp: Vec<f64>,
    bc: &DirichletBc,
    newton: Option<ptatin_ops::NewtonData>,
) -> ViscousOpData {
    let mut data = match base {
        Some(b) => b.with_new_eta(eta_qp),
        None => {
            let d = ViscousOpData::new(mesh, eta_qp, bc);
            *base = Some(d.clone());
            d
        }
    };
    if let Some(nd) = newton {
        data = data.with_newton(nd);
    }
    data
}

/// Build the full Stokes solver for one linearization state.
///
/// * `hier` — mesh hierarchy (coarse → fine),
/// * `eta_corner_fine` — effective viscosity on the finest corner mesh
///   (output of the material-point projection); coarser levels inherit it
///   by injection,
/// * `bcs` — velocity Dirichlet sets per level (coarse → fine),
/// * `newton` — optional Newton coefficient for the Krylov action,
/// * `cache` — setup state carried across re-linearizations of the same
///   hierarchy. An empty one gives the fresh build: a cached build is
///   bitwise a fresh one (see [`SetupCache`]).
pub fn build_stokes_solver_cached(
    hier: &MeshHierarchy,
    eta_corner_fine: &[f64],
    bcs: &[DirichletBc],
    cfg: &GmgConfig,
    newton: Option<ptatin_ops::NewtonData>,
    cache: &mut SetupCache,
) -> StokesSolver {
    build_stokes_solver_spec_cached(
        hier,
        ViscositySpec::Corner(eta_corner_fine),
        bcs,
        cfg,
        newton,
        cache,
    )
}

/// [`build_stokes_solver_cached`] generalized over the viscosity
/// representation (corner field vs analytic per-quadrature-point
/// evaluation). The symbolic phase runs once per (hierarchy, bc) pair, and
/// subsequent builds only re-run the value-dependent numeric work.
pub fn build_stokes_solver_spec_cached(
    hier: &MeshHierarchy,
    viscosity: ViscositySpec,
    bcs: &[DirichletBc],
    cfg: &GmgConfig,
    newton: Option<ptatin_ops::NewtonData>,
    cache: &mut SetupCache,
) -> StokesSolver {
    let _ev = prof::scope("StokesSetup");
    let t_setup = std::time::Instant::now();
    let levels = cfg.levels;
    assert!(levels >= 2, "the velocity multigrid needs a smoothed level");
    assert_eq!(hier.num_levels(), levels);
    assert_eq!(bcs.len(), levels);
    cache.validate(hier, bcs);
    let tables = cache
        .topo
        .tables
        .get_or_insert_with(Q2QuadTables::standard)
        .clone();
    let fine_mesh = hier.finest();

    // Coefficient fields per level.
    let _coeff_scope = prof::scope("setup/coeff");
    let eta_qp: Vec<Vec<f64>> = match viscosity {
        ViscositySpec::Corner(eta_corner_fine) => {
            // Fine → coarse injection of the corner field, then
            // interpolation to quadrature points in log space.
            let mut eta_corner: Vec<Vec<f64>> = vec![Vec::new(); levels];
            eta_corner[levels - 1] = eta_corner_fine.to_vec();
            for l in (0..levels - 1).rev() {
                eta_corner[l] =
                    coarsen_corner_field(&hier.meshes[l + 1], &hier.meshes[l], &eta_corner[l + 1]);
            }
            (0..levels)
                .map(|l| corners_to_quadrature_log(&hier.meshes[l], &tables, &eta_corner[l]))
                .collect()
        }
        ViscositySpec::Analytic(eta) => (0..levels)
            .map(|l| analytic_eta_qp(&hier.meshes[l], &tables, eta))
            .collect(),
    };
    drop(_coeff_scope);

    // Grid transfers and the handles of their assembled forms:
    // value-independent, built once per topology and shared with every
    // rebuild. `transfers[l]` carries the Dirichlet mask of level `l` as its
    // coarse mask.
    let _tr_scope = prof::scope("setup/transfer");
    let (transfers, prolongations) = cache
        .topo
        .transfers
        .get_or_insert_with(|| {
            let masks: Vec<Vec<bool>> = (0..levels)
                .map(|l| bcs[l].mask(num_velocity_dofs(&hier.meshes[l])))
                .collect();
            let transfers: Arc<[NestedTransfer]> = (0..levels - 1)
                .map(|l| {
                    let fine = hier.meshes[l + 1].node_dims();
                    NestedTransfer::new(fine, masks[l + 1].clone(), masks[l].clone())
                })
                .collect();
            let prolongations = prolongation_handles(&hier.prolongations, &transfers);
            (transfers, prolongations)
        })
        .clone();
    let mask = |l: usize| transfers[l].coarse_mask();
    drop(_tr_scope);

    // Lagged state this build may take over (see [`SetupCache`]). A
    // rejected coarse factor is dropped here, before its successor is
    // factored, so two factors are never live at once.
    let drift_eta = match viscosity {
        ViscositySpec::Corner(eta) => Some(eta),
        ViscositySpec::Analytic(_) => None,
    };
    let cfg_key = hash_words(format!("{cfg:?}").bytes().map(u64::from));
    let tol = if cache.lag.active { LAG_DRIFT } else { 0.0 };
    let lagged_coarse = match (drift_eta, &cfg.coarse) {
        (Some(eta), CoarseKind::Direct) if cache.lag.active => cache
            .lag
            .coarse
            .take()
            .filter(|c| c.reusable(eta, cfg_key, tol)),
        _ => None,
    };
    let lagged_lambda = drift_eta.and_then(|eta| {
        cache
            .lag
            .lambda
            .take()
            .filter(|m| m.reusable(eta, cfg_key, tol))
    });
    let coarse_needed = lagged_coarse.is_none();

    // The coarsest matrix, for the coarse solve: with nested Dirichlet
    // sets the Galerkin product is assembled from the elements of level 1
    // directly — the product with the embedded-trilinear transfer is the
    // Q1 stiffness matrix on their corner grid (DESIGN.md §4) — otherwise
    // level 1 is assembled as its input, and dropped once the product is
    // formed. Assembly goes through the per-level cached patterns; the
    // product reads the prolongation handle and reuses its cached
    // transpose. A lagged coarse factor needs no coarsest matrix.
    let top = levels - 1;
    let direct = cfg.galerkin_coarsest
        && cache
            .topo
            .galerkin_q1
            .get_or_insert_with(|| {
                transfers[0]
                    .dirichlet_sets_nested()
                    .then(|| GalerkinQ1Pattern::build(&hier.meshes[1], mask(0)))
            })
            .is_some();
    let assemble = |cache: &mut SetupCache, l: usize| {
        assembled_level_cached(
            &mut cache.topo.patterns[l],
            &mut cache.topo.values[l],
            &mut cache.topo.lane_scratch,
            &hier.meshes[l],
            &tables,
            &eta_qp[l],
            &bcs[l],
        )
    };
    let coarsest = coarse_needed.then(|| match &cache.topo.galerkin_q1 {
        Some(Some(pat)) if direct => {
            let _s = prof::scope("setup/galerkin");
            galerkin_coarse_q1(
                pat,
                &hier.meshes[1],
                &tables,
                &eta_qp[1],
                runtime_simd_path(),
                &mut cache.topo.lane_scratch,
            )
        }
        _ if cfg.galerkin_coarsest => {
            let above = assemble(cache, 1);
            let _s = prof::scope("setup/rap");
            let p = &prolongations[0];
            let pt = cache.topo.transfer_t.get_or_insert_with(|| p.transpose());
            galerkin_coarse_with_pt(&above, p, pt, mask(0))
        }
        _ => assemble(cache, 0),
    });

    // Coarse solver: the lagged factor, or one built from the coarsest
    // assembled matrix.
    let mut coarse_setup_seconds = 0.0;
    let _coarse_scope = prof::scope("setup/coarse");
    let coarse = if let Some(lagged) = lagged_coarse {
        let _s = prof::scope("setup/coarse/lagged");
        cache.counts.coarse += 1;
        let solver = GmgCoarseSolver::Direct(lagged.value.clone());
        cache.lag.coarse = Some(lagged);
        solver
    } else {
        // PANIC-OK: with no lagged factor the coarsest matrix is built above.
        let a0 = coarsest.expect("coarsest matrix built");
        match &cfg.coarse {
            CoarseKind::Direct => {
                let symbolic = {
                    let _s = prof::scope("setup/coarse/symbolic");
                    let kept = cache.topo.coarse_symbolic.take();
                    kept.filter(|s| s.matches(&a0))
                        .or_else(|| CholeskySymbolic::analyze(&a0).ok().map(Arc::new))
                };
                cache.topo.coarse_symbolic = symbolic.clone();
                let _s = prof::scope("setup/coarse/factor");
                let solver = Arc::new(DirectSolver::with_symbolic(&a0, symbolic));
                if let (Some(eta), true) = (drift_eta, cache.lag.active) {
                    cache.lag.coarse = Some(Lagged {
                        eta_ref: eta.to_vec(),
                        cfg_key,
                        value: solver.clone(),
                    });
                }
                GmgCoarseSolver::Direct(solver)
            }
            CoarseKind::Amg { coarse_blocks } => {
                // The SA-AMG hierarchy is rebuilt every time: its strength
                // graph and smoothed prolongator depend on the operator
                // *values*, so no part of it survives a coefficient update
                // (the measured negative result of DESIGN.md §13).
                let _s = prof::scope("setup/amg");
                let nullspace = rigid_body_modes(&hier.meshes[0].coords, mask(0));
                let amg_cfg = AmgConfig {
                    block_size: 3,
                    max_coarse_size: 600,
                    coarse_solver: ptatin_mg::amg::CoarseSolverKind::BlockJacobiLu {
                        blocks: *coarse_blocks,
                    },
                    ..AmgConfig::default()
                };
                let amg = build_sa_amg(a0.clone(), &nullspace, &amg_cfg);
                coarse_setup_seconds = amg.setup_seconds;
                GmgCoarseSolver::AmgPcg {
                    a: a0,
                    hierarchy: amg,
                    rtol: 1e-2,
                    max_it: 10,
                }
            }
        }
    };
    drop(_coarse_scope);

    // Smoothed levels, each the batched kernel on its mesh.
    let mut bounds: Vec<(f64, f64)> = Vec::with_capacity(levels - 1);
    let mut level_ops: Vec<Arc<TimedOperator<ArcOp>>> = Vec::new();
    let mut gmg_levels: Vec<GmgLevel> = Vec::new();
    for l in 1..levels {
        let op = cache.geom.op_base[l].level_op(&hier.meshes[l], eta_qp[l].clone(), &bcs[l], None);
        let timed = Arc::new(TimedOperator::new(op));
        // λmax power iteration, or the bounds of the lag tier (the
        // diagonal is always fresh). At tolerance 0 the lagged bounds are
        // exactly what a re-run would produce.
        let _s = prof::scope("setup/lambda");
        let _lag = lagged_lambda
            .as_ref()
            .map(|_| prof::scope("setup/lambda/lagged"));
        let inv_diag = {
            let _d = prof::scope("setup/diagonal");
            inverse_diagonal(timed.as_ref())
        };
        let smoother = match &lagged_lambda {
            Some(m) => {
                cache.counts.lambda += 1;
                let (lo, hi) = m.value[l - 1];
                Chebyshev::with_bounds(inv_diag, lo, hi, cfg.pre_smooth)
            }
            None => {
                Chebyshev::with_diagonal(timed.as_ref(), inv_diag, cfg.pre_smooth, CHEB_EST_ITERS)
            }
        };
        bounds.push(smoother.lambda_bounds());
        drop(_lag);
        drop(_s);
        level_ops.push(timed.clone());
        gmg_levels.push(GmgLevel::new(timed as ArcOp, smoother));
    }
    cache.lag.lambda = match (lagged_lambda, drift_eta) {
        (Some(m), _) => Some(m),
        (None, Some(eta)) => Some(Lagged {
            eta_ref: eta.to_vec(),
            cfg_key,
            value: bounds,
        }),
        (None, None) => None,
    };
    let mg = GeometricMg::new(
        gmg_levels,
        transfers,
        prolongations,
        coarse,
        cfg.pre_smooth,
        cfg.post_smooth,
    )
    .with_cycle(cfg.cycle);
    // PANIC-OK: MeshHierarchy::build asserts levels >= 2.
    let a_fine = mg.levels.last().expect("at least two levels").op.clone();

    // Newton action. When η′ ≡ 0 the Newton action equals the Picard
    // operator exactly; reuse it (solve() falls back to `a_fine`) instead
    // of building a second operator whose apply may differ in round-off.
    let a_newton = newton.filter(|nd| nd.eta_prime.iter().any(|&e| e != 0.0));
    let a_newton = a_newton.map(|nd| {
        cache.geom.op_base[top].level_op(fine_mesh, eta_qp[top].clone(), &bcs[top], Some(nd))
    });

    // Coupling blocks and Schur preconditioner on the fine level. The
    // gradient block is geometry-only, so the handles of it and its
    // bc-masked twin are cached across rebuilds and assembled only if
    // read; the (1/η)-weighted pressure mass blocks are value-dependent
    // and recomputed (batched).
    let b_full = cache.geom.gradient_block(fine_mesh);
    let b_masked = cache
        .geom
        .b_masked
        .get_or_insert_with(|| b_full.with_zeroed_cols(bcs[top].dofs.clone()))
        .clone();
    let _s = prof::scope("setup/assembly");
    let path = runtime_simd_path();
    let inv_eta: Vec<f64> = eta_qp[levels - 1].iter().map(|&e| 1.0 / e).collect();
    let schur = pressure_mass_blocks_batched(fine_mesh, &tables, &inv_eta, path);
    drop(_s);

    StokesSolver {
        nu: num_velocity_dofs(fine_mesh),
        np: num_pressure_dofs(fine_mesh),
        mg,
        a_fine,
        a_newton,
        b_masked,
        b_full,
        schur,
        timers: GmgTimers {
            level_ops,
            setup_seconds: t_setup.elapsed().as_secs_f64(),
            coarse_setup_seconds,
        },
        bc: bcs[levels - 1].clone(),
    }
}

// ---------------------------------------------------------------------------
// Full-space operator and field-split preconditioner.
// ---------------------------------------------------------------------------

/// The coupled operator of Eq. (14): `[[J_uu, J_up], [J_pu, 0]]` acting on
/// interleaved `[u; p]` vectors (velocity first).
pub struct StokesOperator<'s> {
    pub a: &'s dyn LinearOperator,
    pub b: &'s dyn CouplingBlock,
    pub nu: usize,
    pub np: usize,
}

impl LinearOperator for StokesOperator<'_> {
    fn nrows(&self) -> usize {
        self.nu + self.np
    }
    fn ncols(&self) -> usize {
        self.nu + self.np
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let (xu, xp) = x.split_at(self.nu);
        let (yu, yp) = y.split_at_mut(self.nu);
        // yu = A xu + Bᵀ xp, yp = B xu: one element pass when `a` is the
        // batched kernel, the block composition otherwise.
        self.a.apply_stokes(self.b, xu, xp, yu, yp);
    }
}

/// Block lower-triangular preconditioner (Eq. (17)):
/// `z_u = Â⁻¹ r_u` (one V-cycle of the velocity preconditioner `M`),
/// `z_p = Ŝ⁻¹ (r_p − J_pu z_u)` with `Ŝ = −M_p(1/η)` applied exactly per
/// element block. Generic over the velocity preconditioner so GMG and the
/// purely algebraic variants of Table IV are interchangeable. `J_pu z_u`
/// is the divergence `a` computes ([`LinearOperator::apply_divergence`]):
/// a pass of the batched kernel, a product with the assembled `b` for any
/// other operator.
pub struct BlockLowerTriangularPc<'s, M: Preconditioner + ?Sized = GeometricMg> {
    pub mg: &'s M,
    /// The Krylov operator's velocity block, on the mesh of `b`.
    pub a: &'s dyn LinearOperator,
    pub b: &'s dyn CouplingBlock,
    pub schur: &'s PressureMassBlocks,
    pub nu: usize,
    pub np: usize,
}

impl<M: Preconditioner + ?Sized> Preconditioner for BlockLowerTriangularPc<'_, M> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let (ru, rp) = r.split_at(self.nu);
        let (zu, zp) = z.split_at_mut(self.nu);
        self.mg.apply(ru, zu);
        with_block_scratch(self.np, |t| {
            // t = r_p − B z_u
            self.a.apply_divergence(self.b, zu, t);
            vec_ops::axpby(1.0, rp, -1.0, t);
            // z_p = Ŝ⁻¹ t = −M⁻¹ t.
            self.schur.apply_inverse(t, zp);
        });
        for v in zp.iter_mut() {
            *v = -*v;
        }
    }
}

/// Which linearized operator drives the Krylov iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KrylovOperatorChoice {
    /// Picard everywhere.
    Picard,
    /// Newton action in the Krylov operator, Picard in the preconditioner
    /// (§III-A).
    NewtonKrylovPicardPc,
}

impl StokesSolver {
    /// Solve `J [du; dp] = [rhs_u; rhs_p]` with full-space GCR and the
    /// block-triangular preconditioner. `x` holds `[du; dp]` on exit.
    pub fn solve(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        cfg: &KrylovConfig,
        choice: KrylovOperatorChoice,
        monitor: Monitor,
    ) -> SolveStats {
        let a = match (choice, &self.a_newton) {
            (KrylovOperatorChoice::NewtonKrylovPicardPc, Some(a_newton)) => a_newton,
            _ => &self.a_fine,
        };
        solve_stokes_with_pc(
            a,
            &self.b_masked,
            &self.schur,
            &self.mg,
            rhs,
            x,
            cfg,
            monitor,
        )
    }

    /// `‖rhs − J x‖ / ‖rhs‖` for the Picard operator [`solve`](Self::solve)
    /// iterates on: the true relative residual of `x`, recomputed from it
    /// rather than read off the Krylov recurrence.
    pub fn relative_residual(&self, rhs: &[f64], x: &[f64]) -> f64 {
        let op = StokesOperator {
            a: &*self.a_fine,
            b: &self.b_masked,
            nu: self.nu,
            np: self.np,
        };
        let mut r = vec![0.0; rhs.len()];
        op.apply(x, &mut r);
        vec_ops::residual_ip(rhs, &mut r);
        vec_ops::norm2(&r) / vec_ops::norm2(rhs)
    }

    /// Schur-complement reduction (§III-B, §IV-A): accurate inner solves
    /// with `J_uu` expose a normal, definite pressure problem at the cost
    /// of one inner solve per outer iteration. More robust to extreme
    /// contrasts, usually more expensive.
    pub fn solve_scr(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        outer: &KrylovConfig,
        inner_rtol: f64,
    ) -> (SolveStats, u64) {
        let _ev = prof::scope("StokesSolveSCR");
        let (rhs_u, rhs_p) = rhs.split_at(self.nu);
        let inner_cfg = KrylovConfig::default()
            .with_rtol(inner_rtol)
            .with_max_it(500);
        let inner_counter = std::sync::atomic::AtomicU64::new(0);
        // g = rhs_p − B A⁻¹ rhs_u
        let mut au = vec![0.0; self.nu];
        let s1 = cg(&self.a_fine, &self.mg, rhs_u, &mut au, &inner_cfg);
        inner_counter.fetch_add(s1.iterations as u64, std::sync::atomic::Ordering::Relaxed);
        let mut g = vec![0.0; self.np];
        self.b_masked.spmv(&au, &mut g);
        vec_ops::axpby(1.0, rhs_p, -1.0, &mut g);
        // Schur operator: S p = −B A⁻¹ Bᵀ p (A⁻¹ = inner MG-CG solve).
        struct SchurOp<'s> {
            solver: &'s StokesSolver,
            inner_cfg: KrylovConfig,
            counter: &'s std::sync::atomic::AtomicU64,
        }
        impl LinearOperator for SchurOp<'_> {
            fn nrows(&self) -> usize {
                self.solver.np
            }
            fn ncols(&self) -> usize {
                self.solver.np
            }
            fn apply(&self, p: &[f64], y: &mut [f64]) {
                let nu = self.solver.nu;
                let mut btp = vec![0.0; nu];
                self.solver.b_masked.spmv_transpose(p, &mut btp);
                let mut ainv = vec![0.0; nu];
                let st = cg(
                    &self.solver.a_fine,
                    &self.solver.mg,
                    &btp,
                    &mut ainv,
                    &self.inner_cfg,
                );
                self.counter
                    .fetch_add(st.iterations as u64, std::sync::atomic::Ordering::Relaxed);
                self.solver.b_masked.spmv(&ainv, y);
                for v in y.iter_mut() {
                    *v = -*v;
                }
            }
        }
        struct SchurPcNeg<'s>(&'s PressureMassBlocks);
        impl Preconditioner for SchurPcNeg<'_> {
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                self.0.apply_inverse(r, z);
                for v in z.iter_mut() {
                    *v = -*v;
                }
            }
        }
        let sop = SchurOp {
            solver: self,
            inner_cfg: inner_cfg.clone(),
            counter: &inner_counter,
        };
        let spc = SchurPcNeg(&self.schur);
        let (xu_slice, xp_slice) = x.split_at_mut(self.nu);
        let outer = match outer.label {
            Some(_) => outer.clone(),
            None => outer.clone().with_label("StokesSCR"),
        };
        let stats = fgmres(&sop, &spc, &g, xp_slice, &outer);
        // Back-substitute: u = A⁻¹ (rhs_u − Bᵀ p).
        let mut btp = vec![0.0; self.nu];
        self.b_masked.spmv_transpose(xp_slice, &mut btp);
        let mut rhs_u2 = rhs_u.to_vec();
        vec_ops::axpy(-1.0, &btp, &mut rhs_u2);
        xu_slice.fill(0.0);
        let s2 = cg(&self.a_fine, &self.mg, &rhs_u2, xu_slice, &inner_cfg);
        inner_counter.fetch_add(s2.iterations as u64, std::sync::atomic::Ordering::Relaxed);
        (
            stats,
            inner_counter.load(std::sync::atomic::Ordering::Relaxed),
        )
    }
}

/// Solve a coupled Stokes system with an arbitrary velocity-block
/// preconditioner (the swap point for the Table IV comparisons: GMG-i/ii,
/// SA-i, SAML-i/ii all drive this same full-space GCR iteration).
#[allow(clippy::too_many_arguments)]
pub fn solve_stokes_with_pc<M: Preconditioner + ?Sized>(
    a: &dyn LinearOperator,
    b_masked: &dyn CouplingBlock,
    schur: &PressureMassBlocks,
    velocity_pc: &M,
    rhs: &[f64],
    x: &mut [f64],
    cfg: &KrylovConfig,
    monitor: Monitor,
) -> SolveStats {
    let nu = a.nrows();
    let np = b_masked.nrows();
    let op = StokesOperator {
        a,
        b: b_masked,
        nu,
        np,
    };
    let pc = BlockLowerTriangularPc {
        mg: velocity_pc,
        a,
        b: b_masked,
        schur,
        nu,
        np,
    };
    let _ev = prof::scope("StokesSolve");
    // Label the outer solve so the profiler records its KSP history
    // (inner coarse-level solves stay unlabelled and unrecorded).
    let cfg = match cfg.label {
        Some(_) => cfg.clone(),
        None => cfg.clone().with_label("Stokes"),
    };
    gcr(&op, &pc, rhs, x, &cfg, monitor)
}
