//! Nonlinear Stokes drivers (§III-A of the paper): Picard iteration, and
//! Newton with a backtracking line search and Eisenstat–Walker adaptive
//! linear tolerances. The Newton linearization is used only in the Krylov
//! operator; the preconditioner is always built from the Picard
//! linearization.

use crate::coefficients::{update_coefficients, CoefficientFields, StateFields};
use crate::solver::{
    build_stokes_solver_cached, GmgConfig, KrylovOperatorChoice, SetupCache, StokesSolver,
};
use ptatin_fem::assemble::{assemble_body_force, Q2QuadTables};
use ptatin_fem::bc::DirichletBc;
use ptatin_la::coupling::CouplingBlock;
use ptatin_la::krylov::{BreakdownKind, KrylovConfig, SolveOutcome};
use ptatin_la::operator::LinearOperator;
use ptatin_la::shared::SharedCsr;
use ptatin_la::vec_ops;
use ptatin_mesh::hierarchy::MeshHierarchy;
use ptatin_mesh::StructuredMesh;
use ptatin_mg::gmg::ArcOp;
use ptatin_mpm::points::MaterialPoints;
use ptatin_rheology::MaterialTable;

/// Nonlinear solver configuration.
#[derive(Clone, Debug)]
pub struct NonlinearConfig {
    /// Maximum nonlinear iterations (the rifting runs cap this at 5).
    pub max_it: usize,
    /// Absolute residual tolerance ‖F‖ < abs_tol.
    pub abs_tol: f64,
    /// Relative tolerance against the first residual of this solve.
    pub rel_tol: f64,
    /// Newton action in the Krylov operator (Picard PC regardless).
    pub use_newton: bool,
    /// Adapt linear tolerances with Eisenstat–Walker forcing terms.
    pub eisenstat_walker: bool,
    pub linear_max_it: usize,
}

/// Linear relative tolerance: the floor under the Eisenstat–Walker forcing
/// term (no linearization is solved tighter), and the fixed tolerance of
/// every linear solve when EW is off.
pub const LINEAR_RTOL: f64 = 1e-5;
/// GCR restart length of every linear solve.
pub const LINEAR_RESTART: usize = 50;
/// Backtracking line-search halvings after the full step.
pub const MAX_BACKTRACKS: usize = 4;

impl Default for NonlinearConfig {
    fn default() -> Self {
        Self {
            max_it: 5,
            abs_tol: 1e-2,
            rel_tol: 1e-4,
            use_newton: true,
            eisenstat_walker: true,
            linear_max_it: 500,
        }
    }
}

/// Classified outcome of a nonlinear solve. Only `Stall`, `Diverged` and
/// `LinearBreakdown` represent *failures*: the rifting runs deliberately
/// cap the iteration at five, so hitting the cap while still reducing the
/// residual is the paper's normal operating regime, not an error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NonlinearOutcome {
    /// Residual met the absolute or relative tolerance.
    Converged,
    /// Iteration cap reached while still making progress (normal for the
    /// capped rifting solves).
    #[default]
    MaxIterations,
    /// No meaningful residual reduction over the whole solve.
    Stall,
    /// Residual grew past [`DIVERGENCE_FACTOR`] × initial, or went
    /// non-finite.
    Diverged,
    /// The inner Krylov solve broke down; the step was not updated.
    LinearBreakdown(BreakdownKind),
}

impl NonlinearOutcome {
    /// Outcomes the timestep driver commits without triggering recovery.
    pub fn is_acceptable(&self) -> bool {
        matches!(
            self,
            NonlinearOutcome::Converged | NonlinearOutcome::MaxIterations
        )
    }
}

/// Residual growth beyond this factor of the initial residual classifies
/// the solve as diverged.
pub const DIVERGENCE_FACTOR: f64 = 10.0;

/// Without convergence, a final residual above this fraction of the
/// initial one classifies the solve as stalled (no real progress).
pub const STALL_FRACTION: f64 = 0.99;

/// Classify a finished (non-breakdown) solve from its residual history.
pub fn classify_outcome(converged: bool, residual_history: &[f64]) -> NonlinearOutcome {
    if converged {
        return NonlinearOutcome::Converged;
    }
    let rnorm0 = residual_history.first().copied().unwrap_or(0.0);
    let rnorm = residual_history.last().copied().unwrap_or(0.0);
    if !rnorm.is_finite() || rnorm > DIVERGENCE_FACTOR * rnorm0 {
        return NonlinearOutcome::Diverged;
    }
    if residual_history.len() >= 2 && rnorm > STALL_FRACTION * rnorm0 {
        return NonlinearOutcome::Stall;
    }
    NonlinearOutcome::MaxIterations
}

/// Outcome of a nonlinear solve.
#[derive(Clone, Debug, Default)]
pub struct NonlinearStats {
    pub iterations: usize,
    pub total_krylov: usize,
    pub converged: bool,
    /// Typed classification of how the solve ended.
    pub outcome: NonlinearOutcome,
    /// ‖F‖ per nonlinear iteration (including the initial residual).
    pub residual_history: Vec<f64>,
    /// Linear tolerance used per iteration (EW diagnostics).
    pub forcing_terms: Vec<f64>,
}

/// A problem the nonlinear driver can iterate on. Implementations own the
/// material points, materials, mesh hierarchy and BC construction; the
/// driver owns the update/solve/line-search logic.
pub trait StokesNonlinearProblem {
    /// `(velocity dofs, pressure dofs)`.
    fn dims(&self) -> (usize, usize);
    /// Fine-level Dirichlet constraints.
    fn bc(&self) -> &DirichletBc;
    /// Unmasked `J_pu` for residual evaluation.
    fn b_full(&self) -> &dyn CouplingBlock;
    /// Re-evaluate the coefficient state at `(u, p)` and return the
    /// *unconstrained* Picard viscous action plus the body force.
    fn update_state(&mut self, u: &[f64], p: &[f64]) -> (ArcOp, Vec<f64>);
    /// Build the preconditioned solver from the state set by the last
    /// `update_state` call. `newton = true` additionally attaches the
    /// Newton-linearized Krylov operator.
    fn build_solver(&mut self, newton: bool) -> StokesSolver;
}

/// Nonlinear residual: `F_u = A(u)u + Bᵀp − f` (masked), `F_p = B u`.
pub fn stokes_residual(
    a_unmasked: &dyn LinearOperator,
    b_full: &dyn CouplingBlock,
    bc: &DirichletBc,
    u: &[f64],
    p: &[f64],
    f_u: &[f64],
    out: &mut [f64],
) {
    let (fu, fp) = out.split_at_mut(u.len());
    a_unmasked.apply_stokes(b_full, u, p, fu, fp);
    vec_ops::axpy(-1.0, f_u, fu);
    bc.zero_constrained(fu);
}

/// Eisenstat–Walker's η_max: the loosest relative tolerance a Newton
/// linearization is solved to. Chosen by measurement on the rift
/// (EXPERIMENTS.md, "Adaptive forcing terms"): 0.03 / 0.05 / 0.1 were swept
/// and 0.05 had the lowest wall time among those whose default-seed
/// Newton count stays in 14–16.
pub const ETA_MAX: f64 = 0.05;

/// Eisenstat–Walker choice-2 forcing term with safeguards, clamped to
/// `[floor, ETA_MAX]`.
fn forcing_term(prev_eta: f64, rnorm: f64, rnorm_prev: f64, floor: f64, first: bool) -> f64 {
    if first {
        return ETA_MAX.min(0.1);
    }
    const GAMMA: f64 = 0.9;
    const ALPHA: f64 = 1.618; // (1+√5)/2
    let mut eta = GAMMA * (rnorm / rnorm_prev).powf(ALPHA);
    // Safeguard: don't shrink faster than the safeguarded previous value.
    let guard = GAMMA * prev_eta.powf(ALPHA);
    if guard > 0.1 {
        eta = eta.max(guard);
    }
    eta.clamp(floor, ETA_MAX)
}

/// Run the nonlinear iteration in place on `(u, p)`. `u` must already
/// satisfy the Dirichlet data. The models call it through
/// [`MaterialPointProblem::solve`], which imposes that data and opens the
/// setup cache's lag scope around it.
pub fn solve_nonlinear<P: StokesNonlinearProblem>(
    prob: &mut P,
    u: &mut Vec<f64>,
    p: &mut Vec<f64>,
    cfg: &NonlinearConfig,
) -> NonlinearStats {
    let mut stats = NonlinearStats::default();
    // Injected nonlinear stall (ptatin_ckpt::faults, one-shot): report a
    // Stall without touching the iterate so the recovery ladder, not the
    // physics, handles it.
    if ptatin_ckpt::faults::take_nonlinear_stall() {
        stats.outcome = NonlinearOutcome::Stall;
        return stats;
    }
    let (nu, np) = prob.dims();
    assert_eq!(u.len(), nu);
    assert_eq!(p.len(), np);
    let (a_res0, f_u0) = prob.update_state(u, p);
    let mut r = vec![0.0; nu + np];
    stokes_residual(&a_res0, prob.b_full(), prob.bc(), u, p, &f_u0, &mut r);
    let mut rnorm = vec_ops::norm2(&r);
    let rnorm0 = rnorm;
    stats.residual_history.push(rnorm);
    let mut rnorm_prev = rnorm;
    let mut eta_prev = 0.1;

    for it in 0..cfg.max_it {
        if rnorm < cfg.abs_tol || rnorm < cfg.rel_tol * rnorm0 {
            stats.converged = true;
            break;
        }
        let solver = prob.build_solver(cfg.use_newton);
        let rtol = if cfg.eisenstat_walker {
            forcing_term(eta_prev, rnorm, rnorm_prev, LINEAR_RTOL, it == 0)
        } else {
            LINEAR_RTOL
        };
        stats.forcing_terms.push(rtol);
        eta_prev = rtol;
        // Solve J δ = −F.
        let mut rhs = r.clone();
        vec_ops::scale(-1.0, &mut rhs);
        let mut delta = vec![0.0; nu + np];
        let kcfg = KrylovConfig::default()
            .with_rtol(rtol)
            .with_max_it(cfg.linear_max_it)
            .with_restart(LINEAR_RESTART);
        let choice = if cfg.use_newton {
            KrylovOperatorChoice::NewtonKrylovPicardPc
        } else {
            KrylovOperatorChoice::Picard
        };
        let lin = solver.solve(&rhs, &mut delta, &kcfg, choice, None);
        stats.total_krylov += lin.iterations;
        if let SolveOutcome::Breakdown(kind) = lin.outcome {
            // The Krylov direction is unusable; leave `(u, p)` at the last
            // accepted iterate and report the breakdown instead of line
            // searching along garbage.
            stats.outcome = NonlinearOutcome::LinearBreakdown(kind);
            return stats;
        }

        // Backtracking line search on ‖F‖; keep the best trial even when
        // sufficient decrease is never met (iteration caps handle failure,
        // matching the rifting runs' "maximum of five iterations").
        let mut alpha = 1.0;
        let mut best: Option<(Vec<f64>, Vec<f64>, Vec<f64>, f64)> = None;
        let mut best_was_last_eval = false;
        for bt in 0..=MAX_BACKTRACKS {
            let mut ut = u.clone();
            let mut pt = p.clone();
            vec_ops::axpy(alpha, &delta[..nu], &mut ut);
            vec_ops::axpy(alpha, &delta[nu..], &mut pt);
            let (a_t, f_t) = prob.update_state(&ut, &pt);
            let mut rt = vec![0.0; nu + np];
            stokes_residual(&a_t, prob.b_full(), prob.bc(), &ut, &pt, &f_t, &mut rt);
            let rt_norm = vec_ops::norm2(&rt);
            let sufficient = rt_norm <= (1.0 - 1e-4 * alpha) * rnorm;
            if best.as_ref().is_none_or(|b| rt_norm < b.3) {
                best = Some((ut, pt, rt, rt_norm));
                best_was_last_eval = true;
            } else {
                best_was_last_eval = false;
            }
            if sufficient || bt == MAX_BACKTRACKS {
                break;
            }
            alpha *= 0.5;
        }
        // PANIC-OK: the backtracking loop runs at least once and the first
        // trial always seeds `best`.
        let (ut, pt, rt, rt_norm) = best.expect("at least one trial");
        *u = ut;
        *p = pt;
        // The problem's cached coefficient state must match the accepted
        // iterate before build_solver; skip the re-evaluation when the
        // accepted trial was the one evaluated last (the common path).
        if !best_was_last_eval {
            let (_a, _f) = prob.update_state(u, p);
        }
        r = rt;
        rnorm_prev = rnorm;
        rnorm = rt_norm;
        stats.residual_history.push(rnorm);
        stats.iterations = it + 1;
    }
    if rnorm < cfg.abs_tol || rnorm < cfg.rel_tol * rnorm0 {
        stats.converged = true;
    }
    stats.outcome = classify_outcome(stats.converged, &stats.residual_history);
    stats
}

/// The nonlinear Stokes problem of a material-point model (§II): the
/// coefficients of every linearization are projected from the points'
/// rheology at the current iterate, on a hierarchy built over the model's
/// mesh. The models differ only in the data they lend it.
pub struct MaterialPointProblem<'m> {
    points: &'m MaterialPoints,
    materials: &'m MaterialTable,
    /// Corner temperature of the rheology (`None`: each material's
    /// reference temperature).
    temperature: Option<&'m [f64]>,
    gravity: [f64; 3],
    gmg: &'m GmgConfig,
    /// Symbolic/structural setup state reused across re-linearizations.
    cache: &'m mut SetupCache,
    hier: MeshHierarchy,
    /// Velocity Dirichlet sets per level (coarse → fine).
    bcs: Vec<DirichletBc>,
    b_full: SharedCsr,
    /// `use_newton` of the configuration the running solve was given: the
    /// recovery ladder turns it off on escalation.
    use_newton: bool,
    fields: Option<CoefficientFields>,
    /// Body force, assembled at the first `update_state`: `ρ` depends on
    /// temperature and lithology only, and the problem borrows both
    /// unchanged.
    f_u: Option<Vec<f64>>,
}

impl<'m> MaterialPointProblem<'m> {
    /// Build a `levels`-level hierarchy over `mesh`, the Dirichlet set `bc`
    /// gives each of its meshes, and the gradient block.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mesh: &StructuredMesh,
        levels: usize,
        bc: impl Fn(&StructuredMesh) -> DirichletBc,
        points: &'m MaterialPoints,
        materials: &'m MaterialTable,
        temperature: Option<&'m [f64]>,
        gravity: [f64; 3],
        gmg: &'m GmgConfig,
        cache: &'m mut SetupCache,
    ) -> Self {
        let hier = MeshHierarchy::new(mesh.clone(), levels);
        let bcs: Vec<DirichletBc> = hier.meshes.iter().map(bc).collect();
        let b_full = cache.gradient_block(&hier, &bcs);
        Self {
            points,
            materials,
            temperature,
            gravity,
            gmg,
            cache,
            hier,
            bcs,
            b_full,
            use_newton: false,
            fields: None,
            f_u: None,
        }
    }

    /// Run one nonlinear solve in place from `(u, p)`: impose the fine
    /// Dirichlet data on `u`, then iterate inside one lag scope of the
    /// setup cache ([`SetupCache::begin_nonlinear_solve`]), so the builds
    /// of this solve may take over each other's coarse factor and
    /// Chebyshev bounds and no build of another solve sees them.
    pub fn solve(
        &mut self,
        u: &mut Vec<f64>,
        p: &mut Vec<f64>,
        cfg: &NonlinearConfig,
    ) -> NonlinearStats {
        self.bc().apply_to_vector(u);
        self.use_newton = cfg.use_newton;
        self.cache.begin_nonlinear_solve();
        let stats = solve_nonlinear(self, u, p, cfg);
        self.cache.end_nonlinear_solve();
        stats
    }
}

impl StokesNonlinearProblem for MaterialPointProblem<'_> {
    fn dims(&self) -> (usize, usize) {
        // `J_pu` is np × nu.
        (self.b_full.ncols(), self.b_full.nrows())
    }

    fn bc(&self) -> &DirichletBc {
        // PANIC-OK: one bc set per hierarchy level and levels >= 1.
        self.bcs.last().unwrap()
    }

    fn b_full(&self) -> &dyn CouplingBlock {
        &self.b_full
    }

    fn update_state(&mut self, u: &[f64], p: &[f64]) -> (ArcOp, Vec<f64>) {
        let tables = Q2QuadTables::standard();
        let mesh = self.hier.finest();
        let fields = update_coefficients(
            mesh,
            &tables,
            self.points,
            self.materials,
            &StateFields {
                velocity: Some(u),
                pressure: Some(p),
                temperature: self.temperature,
            },
            self.use_newton,
        );
        // Unmasked Picard action for residual evaluation.
        let a = self
            .cache
            .residual_operator(&self.hier, &self.bcs, fields.eta_qp.clone());
        let f_u = self
            .f_u
            .get_or_insert_with(|| assemble_body_force(mesh, &tables, &fields.rho_qp, self.gravity))
            .clone();
        self.fields = Some(fields);
        (a, f_u)
    }

    fn build_solver(&mut self, newton: bool) -> StokesSolver {
        // PANIC-OK: the nonlinear driver calls update_state before every
        // build_solver; `fields` is cached there.
        let fields = self.fields.as_ref().expect("update_state called first");
        let newton_data = if newton { fields.newton.clone() } else { None };
        build_stokes_solver_cached(
            &self.hier,
            &fields.eta_corner,
            &self.bcs,
            self.gmg,
            newton_data,
            self.cache,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification() {
        // Converged wins regardless of the history shape.
        assert_eq!(
            classify_outcome(true, &[1.0, 1e-6]),
            NonlinearOutcome::Converged
        );
        // Healthy reduction that merely hit the cap: the paper's normal
        // regime.
        assert_eq!(
            classify_outcome(false, &[1.0, 0.5, 0.2]),
            NonlinearOutcome::MaxIterations
        );
        // No progress at all → stall.
        assert_eq!(
            classify_outcome(false, &[1.0, 0.999, 0.998]),
            NonlinearOutcome::Stall
        );
        // Borderline: exactly at the stall fraction is still progress.
        assert_eq!(
            classify_outcome(false, &[1.0, STALL_FRACTION - 1e-9]),
            NonlinearOutcome::MaxIterations
        );
        // Growth past the divergence factor → diverged, not stall.
        assert_eq!(
            classify_outcome(false, &[1.0, 4.0, 20.0]),
            NonlinearOutcome::Diverged
        );
        // Non-finite residuals are divergence even with a short history.
        assert_eq!(
            classify_outcome(false, &[1.0, f64::NAN]),
            NonlinearOutcome::Diverged
        );
        assert_eq!(
            classify_outcome(false, &[1.0, f64::INFINITY]),
            NonlinearOutcome::Diverged
        );
        // A solve that never iterated (single history entry) is not a
        // stall — there is nothing to judge progress against.
        assert_eq!(
            classify_outcome(false, &[1.0]),
            NonlinearOutcome::MaxIterations
        );
    }

    #[test]
    fn acceptable_outcomes_gate_recovery() {
        assert!(NonlinearOutcome::Converged.is_acceptable());
        assert!(NonlinearOutcome::MaxIterations.is_acceptable());
        assert!(!NonlinearOutcome::Stall.is_acceptable());
        assert!(!NonlinearOutcome::Diverged.is_acceptable());
        assert!(!NonlinearOutcome::LinearBreakdown(BreakdownKind::Injected).is_acceptable());
    }

    /// A problem whose methods all panic: proves the injected-stall path
    /// returns before touching the physics.
    struct UntouchableProblem;
    impl StokesNonlinearProblem for UntouchableProblem {
        fn dims(&self) -> (usize, usize) {
            panic!("stall must return before dims()")
        }
        fn bc(&self) -> &DirichletBc {
            unreachable!()
        }
        fn b_full(&self) -> &dyn CouplingBlock {
            unreachable!()
        }
        fn update_state(&mut self, _: &[f64], _: &[f64]) -> (ArcOp, Vec<f64>) {
            unreachable!()
        }
        fn build_solver(&mut self, _: bool) -> StokesSolver {
            unreachable!()
        }
    }

    #[test]
    fn injected_stall_short_circuits_the_solve() {
        use ptatin_ckpt::faults::{self, FaultKind, FaultPlan};
        faults::reset();
        faults::set_plans(vec![FaultPlan {
            kind: FaultKind::NonlinearStall,
            step: 0,
            job: None,
        }]);
        assert_eq!(faults::begin_step(0), Some(FaultKind::NonlinearStall));
        let mut u = vec![0.0; 3];
        let mut p = vec![0.0; 1];
        let stats = solve_nonlinear(
            &mut UntouchableProblem,
            &mut u,
            &mut p,
            &NonlinearConfig::default(),
        );
        assert_eq!(stats.outcome, NonlinearOutcome::Stall);
        assert_eq!(stats.iterations, 0);
        assert!(!stats.converged);
        // One-shot: the next solve would proceed normally (the armed flag
        // is consumed).
        assert!(!faults::stall_armed());
        faults::reset();
    }

    /// The body force a solve assembles once is bitwise a fresh assembly at
    /// the accepted iterate: for the rift (temperature, gravity along −y)
    /// and for the falling block (no temperature, gravity along −z).
    #[test]
    fn cached_body_force_is_a_fresh_assembly_at_the_accepted_iterate() {
        use crate::models::falling_block::{FallingBlockConfig, FallingBlockModel};
        use crate::models::rift::{tests::tiny_cfg, RiftModel};

        let mut rift = RiftModel::new(tiny_cfg());
        let rift_temperature = rift.temperature.clone();
        let mut block_cfg = FallingBlockConfig {
            m: 4,
            ..FallingBlockConfig::default()
        };
        block_cfg.nonlinear.max_it = 3;
        let block = FallingBlockModel::new(block_cfg);
        let mut block_cache = SetupCache::new();
        let cases = [
            (
                rift.stokes_problem(),
                tiny_cfg().nonlinear,
                Some(rift_temperature),
                [0.0, -1.0, 0.0],
            ),
            (
                block.stokes_problem(&mut block_cache),
                block.cfg.nonlinear.clone(),
                None,
                [0.0, 0.0, -10.0],
            ),
        ];
        for (mut problem, cfg, temperature, gravity) in cases {
            let (nu, np) = problem.dims();
            let (mut u, mut p) = (vec![0.0; nu], vec![0.0; np]);
            let stats = problem.solve(&mut u, &mut p, &cfg);
            assert!(stats.iterations >= 2, "the solve moved the iterate");
            let (_, cached) = problem.update_state(&u, &p);
            let tables = Q2QuadTables::standard();
            let fields = update_coefficients(
                problem.hier.finest(),
                &tables,
                problem.points,
                problem.materials,
                &StateFields {
                    velocity: Some(&u),
                    pressure: Some(&p),
                    temperature: temperature.as_deref(),
                },
                cfg.use_newton,
            );
            let fresh =
                assemble_body_force(problem.hier.finest(), &tables, &fields.rho_qp, gravity);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cached), bits(&fresh));
        }
    }

    #[test]
    fn forcing_term_behaviour() {
        // The first linearization has no residual ratio to go on.
        for floor in [1e-8, 1e-5, 1e-3] {
            assert_eq!(forcing_term(0.1, 1.0, 1.0, floor, true), ETA_MAX.min(0.1));
        }
        // Faster nonlinear contraction asks for a tighter solve.
        let fast = forcing_term(0.01, 0.05, 1.0, 1e-5, false);
        let slow = forcing_term(0.01, 0.1, 1.0, 1e-5, false);
        assert!(fast < slow && slow < ETA_MAX, "{fast} {slow}");
        // Always inside [floor, ETA_MAX], whatever the history.
        for floor in [1e-8, 1e-5, 1e-3] {
            for prev_eta in [1e-6, 1e-3, 0.05, 0.5, 0.9] {
                for ratio in [0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0, 3.0] {
                    for first in [true, false] {
                        let eta = forcing_term(prev_eta, ratio, 1.0, floor, first);
                        assert!(
                            (floor..=ETA_MAX).contains(&eta),
                            "eta {eta} outside [{floor}, {ETA_MAX}]"
                        );
                    }
                }
            }
        }
        assert_eq!(forcing_term(0.01, 1e-6, 1.0, 1e-5, false), 1e-5);
        assert_eq!(forcing_term(0.01, 3.0, 1.0, 1e-5, false), ETA_MAX);
        // The guard fires when γ·η_{k−1}^α > 0.1: a large previous forcing
        // term keeps the next one from collapsing after one good step.
        let guarded = forcing_term(0.8, 0.01, 1.0, 1e-5, false);
        let unguarded = forcing_term(0.01, 0.01, 1.0, 1e-5, false);
        assert_eq!(guarded, ETA_MAX);
        assert!(unguarded < 1e-3, "{unguarded}");
    }
}
