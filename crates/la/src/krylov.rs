//! Krylov methods: CG, GMRES(m), FGMRES(m) and GCR(m).
//!
//! §III-A of the paper motivates the selection implemented here: GCR is the
//! production choice for the full-space Stokes iteration because it is
//! flexible (tolerates nonlinear preconditioners such as inner V-cycles or
//! inner Krylov solves) *and* carries the true residual explicitly, which
//! makes the per-component residual monitors of Fig. 2 cheap. FGMRES is the
//! numerically more stable flexible alternative; GMRES and CG serve as
//! smoother drivers, eigenvalue estimators and inner coarse-grid solvers.

use crate::operator::{LinearOperator, Preconditioner};
use crate::vec_ops as v;
use ptatin_prof as prof;

/// Stopping criteria and restart length for a Krylov solve.
#[derive(Clone, Debug)]
pub struct KrylovConfig {
    /// Relative tolerance on the unpreconditioned residual, ‖r‖ ≤ rtol‖r₀‖.
    pub rtol: f64,
    /// Absolute tolerance, ‖r‖ ≤ atol.
    pub atol: f64,
    /// Iteration cap.
    pub max_it: usize,
    /// Restart length for GMRES/FGMRES/GCR.
    pub restart: usize,
    /// Record the residual history in [`SolveStats::history`].
    pub record_history: bool,
    /// Profiler label. When set (and profiling is enabled) the solve
    /// appends a [`prof::KspRecord`] on completion. Inner solves (coarse
    /// grids, smoother setup) leave this `None` so the KSP log stays at
    /// solver granularity.
    pub label: Option<&'static str>,
}

impl Default for KrylovConfig {
    fn default() -> Self {
        Self {
            rtol: 1e-5,
            atol: 1e-50,
            max_it: 10_000,
            restart: 50,
            record_history: false,
            label: None,
        }
    }
}

impl KrylovConfig {
    pub fn with_rtol(mut self, rtol: f64) -> Self {
        self.rtol = rtol;
        self
    }
    pub fn with_max_it(mut self, max_it: usize) -> Self {
        self.max_it = max_it;
        self
    }
    pub fn with_restart(mut self, restart: usize) -> Self {
        self.restart = restart;
        self
    }
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }
    /// Name this solve in the profiler's KSP log (e.g. `"GCR(stokes)"`).
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = Some(label);
        self
    }
}

/// How a Krylov iteration broke down (no further progress possible).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakdownKind {
    /// CG: the search direction had non-positive curvature `p·Ap ≤ 0`
    /// (the operator is not SPD on the current subspace).
    IndefiniteCurvature,
    /// GMRES/FGMRES/GCR: the (preconditioned) direction is numerically in
    /// the operator's nullspace before the tolerance was met.
    NullDirection,
    /// GCR: a direction or the residual stopped being finite (a NaN or an
    /// infinity from the operator, the preconditioner or the data).
    NonFinite,
    /// Deterministically injected by the fault harness
    /// (`ptatin_ckpt::faults`) — exercises recovery paths in CI.
    Injected,
}

/// Typed termination state of a Krylov solve. Replaces inspecting
/// `converged: bool` alone, which cannot distinguish "ran out of
/// iterations" from "broke down and silently returned a partial answer".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// Tolerance met.
    Converged,
    /// Iteration cap hit while still making progress.
    MaxIterations,
    /// The iteration cannot continue; the returned `x` is the best
    /// iterate so far, *not* a solution.
    Breakdown(BreakdownKind),
}

impl SolveOutcome {
    pub fn is_breakdown(&self) -> bool {
        matches!(self, SolveOutcome::Breakdown(_))
    }
}

/// Deterministic fault-injection hook for the Krylov layer. Armed by
/// `ptatin_ckpt::faults`; the next *labelled* solve (outer Stokes solves
/// carry a label, inner coarse/smoother solves do not) reports
/// `SolveOutcome::Breakdown(BreakdownKind::Injected)` without iterating.
pub mod fault {
    use std::sync::atomic::{AtomicBool, Ordering};

    static BREAKDOWN_ARMED: AtomicBool = AtomicBool::new(false);

    /// Arm a one-shot injected breakdown for the next labelled solve.
    pub fn arm_breakdown() {
        BREAKDOWN_ARMED.store(true, Ordering::SeqCst);
    }

    /// Disarm without firing (end-of-test cleanup).
    pub fn disarm() {
        BREAKDOWN_ARMED.store(false, Ordering::SeqCst);
    }

    /// Is a breakdown currently armed?
    pub fn armed() -> bool {
        BREAKDOWN_ARMED.load(Ordering::SeqCst)
    }

    /// Consume the armed flag (one-shot).
    pub(crate) fn take_breakdown() -> bool {
        BREAKDOWN_ARMED.swap(false, Ordering::SeqCst)
    }
}

/// Outcome of a Krylov solve.
#[derive(Clone, Debug)]
pub struct SolveStats {
    pub iterations: usize,
    pub converged: bool,
    /// Why the iteration stopped. `converged` is kept in sync
    /// (`converged == (outcome == SolveOutcome::Converged)`).
    pub outcome: SolveOutcome,
    pub initial_residual: f64,
    pub final_residual: f64,
    /// Unpreconditioned residual norm per iteration (if recorded).
    pub history: Vec<f64>,
}

impl SolveStats {
    fn new(r0: f64, record: bool) -> Self {
        // ALLOC-OK: capacity 0 — no heap traffic unless history
        // recording is explicitly enabled in the config.
        let mut history = Vec::new();
        if record {
            history.push(r0);
        }
        Self {
            iterations: 0,
            converged: false,
            outcome: SolveOutcome::MaxIterations,
            initial_residual: r0,
            final_residual: r0,
            history,
        }
    }

    fn push(&mut self, rnorm: f64, record: bool) {
        self.final_residual = rnorm;
        if record {
            self.history.push(rnorm);
        }
    }

    fn set_converged(&mut self) {
        self.converged = true;
        self.outcome = SolveOutcome::Converged;
    }

    fn set_breakdown(&mut self, kind: BreakdownKind) {
        self.converged = false;
        self.outcome = SolveOutcome::Breakdown(kind);
    }
}

/// Consume an armed injected breakdown if this solve is a labelled
/// (outer) one. Returns `true` when the fault fired.
fn injected_breakdown(cfg: &KrylovConfig, stats: &mut SolveStats) -> bool {
    if cfg.label.is_some() && fault::take_breakdown() {
        stats.set_breakdown(BreakdownKind::Injected);
        true
    } else {
        false
    }
}

#[inline]
fn tolerance(cfg: &KrylovConfig, r0: f64) -> f64 {
    (cfg.rtol * r0).max(cfg.atol)
}

/// Append a KSP record for a labelled solve (no-op otherwise).
fn finish_ksp(method: &str, cfg: &KrylovConfig, stats: &SolveStats) {
    if !prof::enabled() {
        return;
    }
    if let Some(label) = cfg.label {
        prof::record_ksp(prof::KspRecord {
            label: format!("{method}({label})"),
            iterations: stats.iterations,
            rtol: cfg.rtol,
            converged: stats.converged,
            initial_residual: stats.initial_residual,
            final_residual: stats.final_residual,
            // ALLOC-OK: diagnostics-only, once per labelled solve.
            history: stats.history.clone(),
        });
    }
}

/// Apply the preconditioner under the `PCApply` profiling event.
#[inline]
fn pc_apply(pc: &dyn Preconditioner, r: &[f64], z: &mut [f64]) {
    let _ev = prof::scope("PCApply");
    pc.apply(r, z);
}

fn residual(a: &dyn LinearOperator, b: &[f64], x: &[f64], r: &mut [f64]) {
    a.apply(x, r);
    for i in 0..r.len() {
        r[i] = b[i] - r[i];
    }
}

/// Preconditioned conjugate gradients for SPD operators.
///
/// ```
/// use ptatin_la::{cg, Csr, JacobiPc, KrylovConfig};
/// let a = Csr::from_triplets(2, 2, &[(0, 0, 4.0), (1, 1, 2.0)]);
/// let mut x = vec![0.0; 2];
/// let stats = cg(&a, &JacobiPc::from_operator(&a), &[4.0, 4.0], &mut x,
///                &KrylovConfig::default().with_rtol(1e-12));
/// assert!(stats.converged);
/// assert!((x[0] - 1.0).abs() < 1e-10 && (x[1] - 2.0).abs() < 1e-10);
/// ```
pub fn cg(
    a: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    cfg: &KrylovConfig,
) -> SolveStats {
    let _ev = prof::scope("KSPSolve_CG");
    let stats = cg_impl(a, pc, b, x, cfg);
    finish_ksp("CG", cfg, &stats);
    stats
}

fn cg_impl(
    a: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    cfg: &KrylovConfig,
) -> SolveStats {
    let n = b.len();
    // ALLOC-OK: CG workspace (r, z, p, ap), once per solve and
    // amortized over `max_it` operator/preconditioner applications.
    let mut r = vec![0.0; n];
    residual(a, b, x, &mut r);
    let r0 = v::norm2(&r);
    let mut stats = SolveStats::new(r0, cfg.record_history);
    if injected_breakdown(cfg, &mut stats) {
        return stats;
    }
    if r0 <= cfg.atol {
        stats.set_converged();
        return stats;
    }
    let tol = tolerance(cfg, r0);
    let mut z = vec![0.0; n]; // ALLOC-OK: see `r` above.
    pc_apply(pc, &r, &mut z);
    let mut p = z.clone(); // ALLOC-OK: see `r` above.
    let mut ap = vec![0.0; n]; // ALLOC-OK: see `r` above.
    let mut rz = v::dot(&r, &z);
    for it in 0..cfg.max_it {
        a.apply(&p, &mut ap);
        let pap = v::dot(&p, &ap);
        if pap <= 0.0 {
            // Indefinite or breakdown: stop with what we have.
            stats.iterations = it;
            stats.set_breakdown(BreakdownKind::IndefiniteCurvature);
            return stats;
        }
        let alpha = rz / pap;
        v::axpy(alpha, &p, x);
        v::axpy(-alpha, &ap, &mut r);
        let rnorm = v::norm2(&r);
        stats.push(rnorm, cfg.record_history);
        stats.iterations = it + 1;
        if rnorm <= tol {
            stats.set_converged();
            return stats;
        }
        pc_apply(pc, &r, &mut z);
        let rz_new = v::dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        // p = z + beta p
        v::axpby(1.0, &z, beta, &mut p);
    }
    stats
}

/// Right-preconditioned restarted GMRES. Requires a *linear* preconditioner
/// (constant across iterations); use [`fgmres`] or [`gcr`] otherwise.
pub fn gmres(
    a: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    cfg: &KrylovConfig,
) -> SolveStats {
    let _ev = prof::scope("KSPSolve_GMRES");
    let stats = gmres_impl(a, pc, b, x, cfg, false, &mut None);
    finish_ksp("GMRES", cfg, &stats);
    stats
}

/// Flexible GMRES: stores the preconditioned directions so the
/// preconditioner may change between iterations.
pub fn fgmres(
    a: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    cfg: &KrylovConfig,
) -> SolveStats {
    let _ev = prof::scope("KSPSolve_FGMRES");
    let stats = gmres_impl(a, pc, b, x, cfg, true, &mut None);
    finish_ksp("FGMRES", cfg, &stats);
    stats
}

/// Per-iteration observer: `(iteration, residual_norm, residual_vector)`.
pub type Monitor<'m> = Option<&'m mut dyn FnMut(usize, f64, &[f64])>;

fn gmres_impl(
    a: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    cfg: &KrylovConfig,
    flexible: bool,
    monitor: &mut Monitor,
) -> SolveStats {
    let n = b.len();
    let m = cfg.restart.max(1);
    // ALLOC-OK: GMRES workspace (r, the Givens rotations, g, w, zj and the
    // Krylov bases), once per solve and amortized over `max_it`
    // operator/preconditioner applications, as in `cg_impl`.
    let mut r = vec![0.0; n];
    residual(a, b, x, &mut r);
    let r0 = v::norm2(&r);
    let mut stats = SolveStats::new(r0, cfg.record_history);
    if injected_breakdown(cfg, &mut stats) {
        return stats;
    }
    if r0 <= cfg.atol {
        stats.set_converged();
        return stats;
    }
    let tol = tolerance(cfg, r0);
    let mut total_it = 0usize;

    let mut vbasis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    // FGMRES only.
    let mut zbasis: Vec<Vec<f64>> = Vec::with_capacity(m);
    // Hessenberg (column-major: h[j] has j+2 entries), Givens rotations.
    let mut h: Vec<Vec<f64>> = Vec::with_capacity(m);
    let (mut cs, mut sn) = (vec![0.0; m], vec![0.0; m]); // ALLOC-OK: see `r` above.
    let mut g = vec![0.0; m + 1]; // ALLOC-OK: see `r` above.
    let mut w = vec![0.0; n]; // ALLOC-OK: see `r` above.
    let mut zj = vec![0.0; n]; // ALLOC-OK: see `r` above.

    'outer: loop {
        residual(a, b, x, &mut r);
        let beta = v::norm2(&r);
        if beta <= tol {
            stats.set_converged();
            break;
        }
        vbasis.clear();
        zbasis.clear();
        h.clear();
        g.fill(0.0);
        g[0] = beta;
        let mut v0 = r.clone(); // ALLOC-OK: basis vector, see `r` above.
        v::scale(1.0 / beta, &mut v0);
        vbasis.push(v0);

        for j in 0..m {
            // w = A M⁻¹ v_j
            pc_apply(pc, &vbasis[j], &mut zj);
            if flexible {
                zbasis.push(zj.clone()); // ALLOC-OK: basis vector, see `r` above.
            }
            a.apply(&zj, &mut w);
            // Modified Gram-Schmidt.
            let mut hj = vec![0.0; j + 2]; // ALLOC-OK: Hessenberg column, see `r` above.
            for (i, vi) in vbasis.iter().enumerate() {
                let hij = v::dot(&w, vi);
                hj[i] = hij;
                v::axpy(-hij, vi, &mut w);
            }
            let hlast = v::norm2(&w);
            hj[j + 1] = hlast;
            if hlast > 1e-300 {
                let mut vnext = w.clone(); // ALLOC-OK: basis vector, see `r` above.
                v::scale(1.0 / hlast, &mut vnext);
                vbasis.push(vnext);
            }
            // Apply existing Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
                hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
                hj[i] = t;
            }
            // New rotation to annihilate hj[j+1].
            let denom = (hj[j] * hj[j] + hj[j + 1] * hj[j + 1]).sqrt();
            if denom == 0.0 {
                cs[j] = 1.0;
                sn[j] = 0.0;
            } else {
                cs[j] = hj[j] / denom;
                sn[j] = hj[j + 1] / denom;
            }
            hj[j] = cs[j] * hj[j] + sn[j] * hj[j + 1];
            hj[j + 1] = 0.0;
            let t = cs[j] * g[j];
            g[j + 1] = -sn[j] * g[j];
            g[j] = t;
            h.push(hj);
            total_it += 1;
            let rnorm = g[j + 1].abs();
            stats.push(rnorm, cfg.record_history);
            stats.iterations = total_it;
            if let Some(mon) = monitor.as_mut() {
                // GMRES has no explicit residual; pass the recurrence norm
                // and an empty slice (documented limitation vs GCR).
                mon(total_it, rnorm, &[]);
            }
            let inner_done = rnorm <= tol || hlast <= 1e-300;
            if inner_done || j + 1 == m || total_it >= cfg.max_it {
                // Solve the small triangular system for y.
                let k = j + 1;
                let mut y = vec![0.0; k]; // ALLOC-OK: once per restart cycle.
                for i in (0..k).rev() {
                    let mut s = g[i];
                    for l in i + 1..k {
                        s -= h[l][i] * y[l];
                    }
                    y[i] = s / h[i][i];
                }
                // Update x.
                if flexible {
                    for (l, yl) in y.iter().enumerate() {
                        v::axpy(*yl, &zbasis[l], x);
                    }
                } else {
                    let mut u = vec![0.0; n]; // ALLOC-OK: once per restart cycle.
                    for (l, yl) in y.iter().enumerate() {
                        v::axpy(*yl, &vbasis[l], &mut u);
                    }
                    pc_apply(pc, &u, &mut zj);
                    v::axpy(1.0, &zj, x);
                }
                if rnorm <= tol {
                    stats.set_converged();
                    break 'outer;
                }
                if hlast <= 1e-300 {
                    // Unhappy breakdown: invariant subspace reached before
                    // the tolerance.
                    stats.set_breakdown(BreakdownKind::NullDirection);
                    break 'outer;
                }
                if total_it >= cfg.max_it {
                    break 'outer;
                }
                continue 'outer; // restart
            }
        }
    }
    // Recompute the true final residual (recurrence can drift).
    residual(a, b, x, &mut r);
    stats.final_residual = v::norm2(&r);
    stats
}

/// GCR(m): flexible, with the true residual available every iteration.
/// `monitor` (if provided) observes `(it, ‖r‖, r)`.
///
/// The iterate is formed the way FGMRES forms it, `x = x₀ + Z c`: the
/// search directions `p_i` are never built, so `x` only moves at a
/// restart and on exit (convergence, `max_it` or a breakdown). The
/// residual recurrence is exactly the textbook one.
pub fn gcr_monitored(
    a: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    cfg: &KrylovConfig,
    monitor: Monitor,
) -> SolveStats {
    let _ev = prof::scope("KSPSolve_GCR");
    let stats = gcr_monitored_impl(a, pc, b, x, cfg, monitor);
    finish_ksp("GCR", cfg, &stats);
    stats
}

/// GCR keeps, per restart cycle, the preconditioned vectors `z_i` exactly
/// as `pc` returned them and the normalized, mutually orthogonal `A p_i`.
/// Its directions are `p_i = (z_i − Σ_{j<i} β_ji p_j) / ‖·‖_i`, i.e.
/// `Z = P U` with `U` upper triangular (the Gram–Schmidt `β` above the
/// diagonal, the norms on it), so the update `Σ γ_i p_i` is `Z c` with
/// `U c = γ`. Orthogonalizing only `A p` reads the basis once less per
/// Gram–Schmidt step than carrying `p` along.
fn gcr_monitored_impl(
    a: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    cfg: &KrylovConfig,
    mut monitor: Monitor,
) -> SolveStats {
    let n = b.len();
    let m = cfg.restart.max(1);
    let mut r = vec![0.0; n];
    residual(a, b, x, &mut r);
    let r0 = v::norm2(&r);
    let mut stats = SolveStats::new(r0, cfg.record_history);
    if injected_breakdown(cfg, &mut stats) {
        return stats;
    }
    if let Some(mon) = monitor.as_mut() {
        mon(0, r0, &r);
    }
    if r0 <= cfg.atol {
        stats.set_converged();
        return stats;
    }
    let tol = tolerance(cfg, r0);
    let mut zs: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut aps: Vec<Vec<f64>> = Vec::with_capacity(m);
    // The m×m triangle `U` (row-major) and the `γ_i`, once per solve.
    let mut u = vec![0.0; m * m];
    let mut gamma = vec![0.0; m];
    // Basis vectors move into the bases instead of being copied; a restart
    // hands the whole basis back as the next cycle's work vectors.
    let mut pool: Vec<Vec<f64>> = Vec::new();
    let mut it = 0usize;
    while it < cfg.max_it {
        if zs.len() == m {
            gcr_update(x, &zs, &u, &mut gamma);
            pool.append(&mut zs);
            pool.append(&mut aps);
        }
        let k = zs.len();
        let mut z = pool.pop().unwrap_or_else(|| vec![0.0; n]);
        let mut ap = pool.pop().unwrap_or_else(|| vec![0.0; n]);
        pc_apply(pc, &r, &mut z);
        a.apply(&z, &mut ap);
        // Orthogonalize A p against previous normalized A p_i (modified
        // Gram–Schmidt), each update fused with the next product or the
        // norm: the bits of separate `dot`/`axpy`/`norm2` sweeps.
        let anorm = if k == 0 {
            v::norm2(&ap)
        } else {
            let mut beta = v::dot(&ap, &aps[0]);
            for j in 1..k {
                u[(j - 1) * m + k] = beta;
                beta = v::axpy_dot(-beta, &aps[j - 1], &mut ap, &aps[j]);
            }
            u[(k - 1) * m + k] = beta;
            v::axpy_norm2(-beta, &aps[k - 1], &mut ap)
        };
        if !anorm.is_finite() {
            stats.set_breakdown(BreakdownKind::NonFinite);
            break;
        }
        if anorm <= 1e-300 {
            // Breakdown: preconditioned direction in the nullspace.
            stats.set_breakdown(BreakdownKind::NullDirection);
            break;
        }
        u[k * m + k] = anorm;
        let g = v::scale_dot(1.0 / anorm, &mut ap, &r);
        let rnorm = v::axpy_norm2(-g, &ap, &mut r);
        gamma[k] = g;
        zs.push(z);
        aps.push(ap);
        it += 1;
        stats.push(rnorm, cfg.record_history);
        stats.iterations = it;
        if let Some(mon) = monitor.as_mut() {
            mon(it, rnorm, &r);
        }
        if !rnorm.is_finite() {
            // The last finite iterate is the one before this direction.
            zs.pop();
            stats.set_breakdown(BreakdownKind::NonFinite);
            break;
        }
        if rnorm <= tol {
            stats.set_converged();
            break;
        }
    }
    gcr_update(x, &zs, &u, &mut gamma);
    stats
}

/// `x += Z c` with `U c = γ` (back substitution in place of `γ`): what
/// the cycle's directions would have added to `x` one by one.
fn gcr_update(x: &mut [f64], zs: &[Vec<f64>], u: &[f64], gamma: &mut [f64]) {
    let (k, m) = (zs.len(), gamma.len());
    for i in (0..k).rev() {
        let mut s = gamma[i];
        for l in i + 1..k {
            s -= u[i * m + l] * gamma[l];
        }
        gamma[i] = s / u[i * m + i];
    }
    for (zi, &ci) in zs.iter().zip(gamma.iter()) {
        v::axpy(ci, zi, x);
    }
}

/// GCR(m) without a monitor.
pub fn gcr(
    a: &dyn LinearOperator,
    pc: &dyn Preconditioner,
    b: &[f64],
    x: &mut [f64],
    cfg: &KrylovConfig,
) -> SolveStats {
    gcr_monitored(a, pc, b, x, cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::operator::{IdentityPc, JacobiPc};

    /// 1-D Laplacian, SPD.
    fn laplace1d(n: usize) -> Csr {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triplets(n, n, &t)
    }

    /// Nonsymmetric convection–diffusion style matrix.
    fn nonsym(n: usize) -> Csr {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 3.0));
            if i > 0 {
                t.push((i, i - 1, -2.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.5));
            }
        }
        Csr::from_triplets(n, n, &t)
    }

    fn check_solution(a: &Csr, b: &[f64], x: &[f64], tol: f64) {
        let mut r = vec![0.0; b.len()];
        a.spmv(x, &mut r);
        for i in 0..b.len() {
            r[i] -= b[i];
        }
        let rel = v::norm2(&r) / v::norm2(b);
        assert!(rel < tol, "relative residual {rel} > {tol}");
    }

    #[test]
    fn cg_solves_laplacian() {
        let n = 100;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = cg(
            &a,
            &JacobiPc::from_operator(&a),
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-10),
        );
        assert!(stats.converged);
        check_solution(&a, &b, &x, 1e-9);
    }

    #[test]
    fn cg_exact_in_n_iterations() {
        let n = 10;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = cg(
            &a,
            &IdentityPc,
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-12),
        );
        assert!(stats.converged);
        assert!(stats.iterations <= n, "CG must finish in ≤ n steps");
    }

    #[test]
    fn gmres_solves_nonsymmetric() {
        let n = 80;
        let a = nonsym(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut x = vec![0.0; n];
        let stats = gmres(
            &a,
            &JacobiPc::from_operator(&a),
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-10).with_restart(30),
        );
        assert!(stats.converged, "{stats:?}");
        check_solution(&a, &b, &x, 1e-8);
    }

    #[test]
    fn gmres_restart_still_converges() {
        let n = 80;
        let a = nonsym(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = gmres(
            &a,
            &IdentityPc,
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8).with_restart(5),
        );
        assert!(stats.converged, "{stats:?}");
        check_solution(&a, &b, &x, 1e-7);
    }

    #[test]
    fn fgmres_tolerates_nonlinear_pc() {
        // Preconditioner = few CG iterations on the same matrix (nonlinear).
        struct InnerPc<'a>(&'a Csr);
        impl Preconditioner for InnerPc<'_> {
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                z.fill(0.0);
                let _ = cg(
                    self.0,
                    &IdentityPc,
                    r,
                    z,
                    &KrylovConfig::default().with_rtol(1e-1).with_max_it(3),
                );
            }
        }
        let n = 60;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = fgmres(
            &a,
            &InnerPc(&a),
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-9),
        );
        assert!(stats.converged, "{stats:?}");
        check_solution(&a, &b, &x, 1e-8);
    }

    #[test]
    fn gcr_matches_gmres_quality_and_monitors_true_residual() {
        let n = 60;
        let a = nonsym(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut seen = Vec::new();
        let mut mon = |it: usize, rn: f64, r: &[f64]| {
            if it > 0 {
                assert!(!r.is_empty());
                assert!((v::norm2(r) - rn).abs() < 1e-12 * (1.0 + rn));
            }
            seen.push(rn);
        };
        let stats = gcr_monitored(
            &a,
            &JacobiPc::from_operator(&a),
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-10),
            Some(&mut mon),
        );
        assert!(stats.converged);
        assert_eq!(seen.len(), stats.iterations + 1);
        check_solution(&a, &b, &x, 1e-8);
    }

    #[test]
    fn gcr_restart_converges() {
        let n = 80;
        let a = nonsym(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = gcr(
            &a,
            &IdentityPc,
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8).with_restart(4),
        );
        assert!(stats.converged, "{stats:?}");
        check_solution(&a, &b, &x, 1e-7);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplace1d(10);
        let b = vec![0.0; 10];
        let mut x = vec![0.0; 10];
        for f in [cg, gmres, fgmres, gcr] {
            let stats = f(&a, &IdentityPc, &b, &mut x, &KrylovConfig::default());
            assert!(stats.converged);
            assert_eq!(stats.outcome, SolveOutcome::Converged);
            assert_eq!(stats.iterations, 0);
        }
    }

    #[test]
    fn outcome_reports_convergence_and_iteration_cap() {
        let n = 60;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let ok = cg(
            &a,
            &IdentityPc,
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-10),
        );
        assert_eq!(ok.outcome, SolveOutcome::Converged);
        let mut x2 = vec![0.0; n];
        let capped = cg(
            &a,
            &IdentityPc,
            &b,
            &mut x2,
            &KrylovConfig::default().with_rtol(1e-12).with_max_it(2),
        );
        assert!(!capped.converged);
        assert_eq!(capped.outcome, SolveOutcome::MaxIterations);
    }

    #[test]
    fn cg_indefinite_operator_reports_breakdown() {
        // Indefinite diagonal: CG hits p·Ap < 0 immediately.
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, -1.0)]);
        let b = vec![0.0, 1.0];
        let mut x = vec![0.0; 2];
        let stats = cg(&a, &IdentityPc, &b, &mut x, &KrylovConfig::default());
        assert_eq!(
            stats.outcome,
            SolveOutcome::Breakdown(BreakdownKind::IndefiniteCurvature)
        );
        assert!(!stats.converged);
    }

    #[test]
    fn singular_operator_breaks_down_as_null_direction() {
        // Rank-deficient: one zero row/column, RHS with a component in the
        // nullspace cannot be reduced to tolerance.
        let a = Csr::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let b = vec![1.0, 1.0, 1.0];
        let mut x = vec![0.0; 3];
        let stats = gcr(
            &a,
            &IdentityPc,
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-12),
        );
        assert_eq!(
            stats.outcome,
            SolveOutcome::Breakdown(BreakdownKind::NullDirection)
        );
    }

    #[test]
    fn injected_fault_hits_next_labelled_solve_only() {
        let n = 20;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        fault::arm_breakdown();
        // Unlabelled solves must not consume the fault.
        let mut x = vec![0.0; n];
        let inner = cg(
            &a,
            &IdentityPc,
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-10),
        );
        assert_eq!(inner.outcome, SolveOutcome::Converged);
        assert!(fault::armed());
        // The next labelled solve fails without iterating…
        let mut x2 = vec![0.0; n];
        let outer = gcr(
            &a,
            &IdentityPc,
            &b,
            &mut x2,
            &KrylovConfig::default().with_rtol(1e-10).with_label("test"),
        );
        assert_eq!(
            outer.outcome,
            SolveOutcome::Breakdown(BreakdownKind::Injected)
        );
        assert_eq!(outer.iterations, 0);
        // …and the fault is consumed (one-shot).
        let mut x3 = vec![0.0; n];
        let retry = gcr(
            &a,
            &IdentityPc,
            &b,
            &mut x3,
            &KrylovConfig::default().with_rtol(1e-10).with_label("test"),
        );
        assert_eq!(retry.outcome, SolveOutcome::Converged);
        fault::disarm();
    }

    /// GCR as it was before the iterate was formed per cycle: `p` is
    /// orthogonalized beside `A p` and `x += γ p` every iteration. The
    /// reference for the residual-history and iterate tests below.
    fn gcr_forming_p(
        a: &dyn LinearOperator,
        pc: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        cfg: &KrylovConfig,
    ) -> SolveStats {
        let n = b.len();
        let m = cfg.restart.max(1);
        let mut r = vec![0.0; n];
        residual(a, b, x, &mut r);
        let r0 = v::norm2(&r);
        let mut stats = SolveStats::new(r0, cfg.record_history);
        if r0 <= cfg.atol {
            stats.set_converged();
            return stats;
        }
        let tol = tolerance(cfg, r0);
        let (mut ps, mut aps): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
        let mut it = 0usize;
        while it < cfg.max_it {
            if ps.len() == m {
                ps.clear();
                aps.clear();
            }
            let (mut p, mut ap) = (vec![0.0; n], vec![0.0; n]);
            pc.apply(&r, &mut p);
            a.apply(&p, &mut ap);
            for (pi, api) in ps.iter().zip(&aps) {
                let beta = v::dot(&ap, api);
                v::axpy(-beta, api, &mut ap);
                v::axpy(-beta, pi, &mut p);
            }
            let anorm = v::norm2(&ap);
            if anorm <= 1e-300 {
                stats.set_breakdown(BreakdownKind::NullDirection);
                break;
            }
            v::scale(1.0 / anorm, &mut p);
            v::scale(1.0 / anorm, &mut ap);
            let gamma = v::dot(&r, &ap);
            v::axpy(gamma, &p, x);
            v::axpy(-gamma, &ap, &mut r);
            ps.push(p);
            aps.push(ap);
            it += 1;
            let rnorm = v::norm2(&r);
            stats.push(rnorm, cfg.record_history);
            stats.iterations = it;
            if rnorm <= tol {
                stats.set_converged();
                break;
            }
        }
        stats
    }

    /// Run both GCRs from the same `x0`; the recurrence must agree bitwise
    /// and the iterates to `xtol` relative. Returns the new solve's stats.
    fn gcr_against_reference(
        a: &Csr,
        pc: &dyn Preconditioner,
        b: &[f64],
        x0: &[f64],
        cfg: &KrylovConfig,
        xtol: f64,
    ) -> SolveStats {
        let cfg = cfg.clone().with_history();
        let (mut x_new, mut x_ref) = (x0.to_vec(), x0.to_vec());
        let s_new = gcr(a, pc, b, &mut x_new, &cfg);
        let s_ref = gcr_forming_p(a, pc, b, &mut x_ref, &cfg);
        let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&s_new.history),
            bits(&s_ref.history),
            "m = {}",
            cfg.restart
        );
        assert_eq!(s_new.iterations, s_ref.iterations);
        assert_eq!(s_new.outcome, s_ref.outcome);
        assert_eq!(
            s_new.final_residual.to_bits(),
            s_ref.final_residual.to_bits()
        );
        let dx: Vec<f64> = x_new.iter().zip(&x_ref).map(|(p, q)| p - q).collect();
        let rel = v::norm2(&dx) / v::norm2(&x_ref).max(f64::MIN_POSITIVE);
        assert!(
            rel <= xtol,
            "m = {}: iterates differ by {rel:e}",
            cfg.restart
        );
        s_new
    }

    #[test]
    fn gcr_recurrence_is_the_reference_bitwise_for_every_restart() {
        let n = 90;
        let a = nonsym(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos() + 0.5).collect();
        let x0: Vec<f64> = (0..n).map(|i| 0.01 * (i % 5) as f64).collect();
        let jacobi = JacobiPc::from_operator(&a);
        for m in [1, 2, 7, 50] {
            let cfg = KrylovConfig::default()
                .with_rtol(1e-10)
                .with_restart(m)
                .with_max_it(2000);
            let s = gcr_against_reference(&a, &IdentityPc, &b, &x0, &cfg, 1e-10);
            assert!(s.converged, "m = {m}: {s:?}");
            let s = gcr_against_reference(&a, &jacobi, &b, &x0, &cfg, 1e-10);
            assert!(s.converged, "m = {m}: {s:?}");
        }
    }

    #[test]
    fn gcr_exits_mid_cycle_and_at_the_cycle_end_with_the_reference_iterate() {
        let n = 90;
        let a = nonsym(n);
        let b = vec![1.0; n];
        let x0 = vec![0.0; n];
        let tight = KrylovConfig::default().with_rtol(1e-14).with_restart(7);
        // `max_it` inside the second cycle, then exactly at its end: the
        // cycle's directions are added to `x` once, not twice.
        for max_it in [10, 14] {
            let s = gcr_against_reference(
                &a,
                &IdentityPc,
                &b,
                &x0,
                &tight.clone().with_max_it(max_it),
                1e-10,
            );
            assert_eq!(s.outcome, SolveOutcome::MaxIterations);
            assert_eq!(s.iterations, max_it);
        }
        // Long enough for the fused sweeps to reduce over several blocks.
        let n = 3 * 8192 + 17;
        let a = nonsym(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let s = gcr_against_reference(
            &a,
            &IdentityPc,
            &b,
            &vec![0.0; n],
            &tight.with_max_it(17),
            1e-10,
        );
        assert_eq!(s.iterations, 17);
    }

    #[test]
    fn gcr_null_direction_keeps_the_reference_iterate() {
        let a = Csr::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let b = vec![1.0, 1.0, 1.0];
        for m in [1, 2, 7] {
            let cfg = KrylovConfig::default().with_rtol(1e-12).with_restart(m);
            let s = gcr_against_reference(&a, &IdentityPc, &b, &[0.0; 3], &cfg, 1e-14);
            assert_eq!(
                s.outcome,
                SolveOutcome::Breakdown(BreakdownKind::NullDirection)
            );
            assert!(s.iterations > 0);
        }
    }

    #[test]
    fn gcr_injected_breakdown_leaves_x_untouched() {
        let n = 20;
        let a = nonsym(n);
        let b = vec![1.0; n];
        let x0: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let mut x = x0.clone();
        fault::arm_breakdown();
        let s = gcr(
            &a,
            &IdentityPc,
            &b,
            &mut x,
            &KrylovConfig::default().with_label("test"),
        );
        fault::disarm();
        assert_eq!(s.outcome, SolveOutcome::Breakdown(BreakdownKind::Injected));
        assert_eq!(s.iterations, 0);
        assert!(x.iter().zip(&x0).all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn gcr_stops_at_the_first_non_finite_direction() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct NanPc(AtomicUsize);
        impl Preconditioner for NanPc {
            fn apply(&self, _r: &[f64], z: &mut [f64]) {
                self.0.fetch_add(1, Ordering::Relaxed);
                z.fill(f64::NAN);
            }
        }
        let n = 30;
        let a = nonsym(n);
        let b = vec![1.0; n];
        let mut x = vec![0.5; n];
        let pc = NanPc(AtomicUsize::new(0));
        let s = gcr(&a, &pc, &b, &mut x, &KrylovConfig::default());
        assert_eq!(
            pc.0.load(Ordering::Relaxed),
            1,
            "one preconditioner application, not max_it"
        );
        assert_eq!(s.outcome, SolveOutcome::Breakdown(BreakdownKind::NonFinite));
        assert_eq!(s.iterations, 0);
        assert!(!s.converged);
        assert!(
            x.iter().all(|&xi| xi == 0.5),
            "x stays at the last finite iterate"
        );
    }

    #[test]
    fn nonzero_initial_guess() {
        let n = 50;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let stats = gcr(
            &a,
            &JacobiPc::from_operator(&a),
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-10),
        );
        assert!(stats.converged);
        check_solution(&a, &b, &x, 1e-9);
    }
}
