//! SolCx-style analytic verification problem: Stokes flow driven by a
//! smooth forcing across a *sharp, mesh-aligned viscosity jump* at x = ½,
//! with an exact solution evaluated in-repo.
//!
//! The classic SolCx benchmark (Zhong-style) exercises exactly the regime
//! that breaks naive discretizations: a viscosity discontinuity aligned
//! with element faces and a pressure that jumps across it — representable
//! by P1disc but not by any continuous pressure space. Instead of porting
//! the Maple-generated series solution of the original benchmark, this
//! module constructs a closed-form exact solution with the same structure:
//!
//! * stream function `ψ(x,z) = g(x)·sin(πz)` (y passive), with a per-side
//!   cubic `g` — `g_L = α_L x² + β_L x³` on `[0,½]`,
//!   `g_R = α_R s² + β_R s³`, `s = 1−x`, on `[½,1]` — so the velocity
//!   `u = (π g cos πz, 0, −g′ sin πz)` is divergence-free by construction
//!   and vanishes on the x-walls,
//! * the four coefficients are fixed by `g(½) = V` on both sides (flow
//!   *crosses* the interface), continuity of `g′` and of the shear
//!   traction `σ_xz = −η (g″ + π² g) sin πz`,
//! * the exact pressure `p = 2π η g′(x) cos πz` is *discontinuous* at the
//!   interface and makes the normal traction `σ_xx` vanish identically —
//!   so all interface jump conditions hold exactly.
//!
//! The resulting per-side forcing is polynomial × trigonometric and the
//! exact velocity is piecewise-smooth with an interface kink, so Q2
//! velocity must converge at O(h³) and P1disc pressure at O(h²) in L² —
//! *if* the solver keeps the coefficient jump sharp. That is what the
//! [`ViscositySpec::Analytic`] path delivers; the material-point corner
//! projection would smear the jump and visibly degrade the rates.

use crate::solver::{
    analytic_eta_qp, build_stokes_solver_spec_cached, GmgConfig, KrylovOperatorChoice, SetupCache,
    StokesSolver, ViscositySpec,
};
use ptatin_fem::assemble::{assemble_forcing, num_pressure_dofs, num_velocity_dofs, Q2QuadTables};
use ptatin_fem::basis::{element_frame, p1disc_basis, NP1};
use ptatin_fem::bc::{DirichletBc, VelocityBcBuilder};
use ptatin_fem::geometry::{map_to_physical, qp_geometry};
use ptatin_la::krylov::{KrylovConfig, SolveStats};
use ptatin_mesh::hierarchy::MeshHierarchy;
use ptatin_mesh::StructuredMesh;
use ptatin_ops::OperatorKind;
use std::f64::consts::PI;

/// Stream-function amplitude at the interface: `g(½) = V`.
const V_AMP: f64 = 1.0;

/// The closed-form exact solution for one (η_L, η_R) pair.
#[derive(Clone, Copy, Debug)]
pub struct SolCxExact {
    pub eta_left: f64,
    pub eta_right: f64,
    alpha_l: f64,
    beta_l: f64,
    alpha_r: f64,
    beta_r: f64,
}

impl SolCxExact {
    pub fn new(eta_left: f64, eta_right: f64) -> Self {
        assert!(eta_left > 0.0 && eta_right > 0.0);
        // Interface matching (see module docs):
        //   β_L = [K (η_R − η_L) − 64 V η_R] / (2 (η_L + η_R)),  K = (π²+8)V
        //   β_R = −32 V − β_L,   α_side = 4V − β_side / 2.
        let k = (PI * PI + 8.0) * V_AMP;
        let beta_l = (k * (eta_right - eta_left) - 64.0 * V_AMP * eta_right)
            / (2.0 * (eta_left + eta_right));
        let beta_r = -32.0 * V_AMP - beta_l;
        let alpha_l = 4.0 * V_AMP - 0.5 * beta_l;
        let alpha_r = 4.0 * V_AMP - 0.5 * beta_r;
        Self {
            eta_left,
            eta_right,
            alpha_l,
            beta_l,
            alpha_r,
            beta_r,
        }
    }

    /// Is `x` on the left side of the interface?
    #[inline]
    fn left(x: f64) -> bool {
        x < 0.5
    }

    /// `(g, g′, g″, g‴)` of the stream-function profile at `x` —
    /// derivatives with respect to x on both sides.
    fn g(&self, x: f64) -> (f64, f64, f64, f64) {
        if Self::left(x) {
            let (a, b) = (self.alpha_l, self.beta_l);
            (
                a * x * x + b * x * x * x,
                2.0 * a * x + 3.0 * b * x * x,
                2.0 * a + 6.0 * b * x,
                6.0 * b,
            )
        } else {
            let s = 1.0 - x;
            let (a, b) = (self.alpha_r, self.beta_r);
            // d/dx = −d/ds.
            (
                a * s * s + b * s * s * s,
                -(2.0 * a * s + 3.0 * b * s * s),
                2.0 * a + 6.0 * b * s,
                -6.0 * b,
            )
        }
    }

    /// Piecewise-constant viscosity with the sharp jump at x = ½.
    pub fn eta(&self, x: [f64; 3]) -> f64 {
        if Self::left(x[0]) {
            self.eta_left
        } else {
            self.eta_right
        }
    }

    /// Exact velocity `u = (π g cos πz, 0, −g′ sin πz)`.
    pub fn velocity(&self, x: [f64; 3]) -> [f64; 3] {
        let (g, g1, _, _) = self.g(x[0]);
        [PI * g * (PI * x[2]).cos(), 0.0, -g1 * (PI * x[2]).sin()]
    }

    /// Exact pressure `p = 2π η g′ cos πz` (discontinuous at x = ½,
    /// mean-zero over the unit cube).
    pub fn pressure(&self, x: [f64; 3]) -> f64 {
        let (_, g1, _, _) = self.g(x[0]);
        2.0 * PI * self.eta(x) * g1 * (PI * x[2]).cos()
    }

    /// Body force `f = −∇·(2ηD(u)) + ∇p` per side (η constant per side):
    /// `f_x = η π (g″ + π² g) cos πz`, `f_z = η (g‴ − 3π² g′) sin πz`.
    pub fn forcing(&self, x: [f64; 3]) -> [f64; 3] {
        let (g, g1, g2, g3) = self.g(x[0]);
        let eta = self.eta(x);
        [
            eta * PI * (g2 + PI * PI * g) * (PI * x[2]).cos(),
            0.0,
            eta * (g3 - 3.0 * PI * PI * g1) * (PI * x[2]).sin(),
        ]
    }
}

/// Configuration of a SolCx verification solve.
#[derive(Clone, Debug)]
pub struct SolCxConfig {
    /// Elements across the jump direction; must be even so the interface
    /// x = ½ is mesh-aligned, and divisible by `2^(levels-1)`.
    pub mx: usize,
    /// Elements along the passive y direction.
    pub my: usize,
    /// Elements along z.
    pub mz: usize,
    /// Geometric multigrid levels.
    pub levels: usize,
    /// Viscosity left of the interface.
    pub eta_left: f64,
    /// Viscosity right of the interface.
    pub eta_right: f64,
    /// Fine-level operator kind.
    pub fine_kind: OperatorKind,
    /// Krylov relative tolerance — tight, so the algebraic error stays far
    /// below the discretization error being measured.
    pub rtol: f64,
    /// Krylov iteration cap.
    pub max_it: usize,
}

impl Default for SolCxConfig {
    fn default() -> Self {
        Self {
            mx: 8,
            my: 2,
            mz: 8,
            levels: 2,
            eta_left: 1.0,
            eta_right: 1e4,
            fine_kind: GmgConfig::default().fine_kind,
            rtol: 1e-10,
            max_it: 1500,
        }
    }
}

/// L² discretization errors of one solve.
#[derive(Clone, Copy, Debug)]
pub struct SolCxErrors {
    /// ‖u_h − u‖_L² over the unit cube.
    pub velocity_l2: f64,
    /// ‖(p_h − p̄_h) − (p − p̄)‖_L² (both fields mean-shifted).
    pub pressure_l2: f64,
}

/// Outcome of a SolCx verification solve.
pub struct SolCxReport {
    pub stats: SolveStats,
    pub errors: SolCxErrors,
    /// Fine-mesh element size along x (h = 1/mx).
    pub h: f64,
    /// Discrete velocity (full field, BC-lifted).
    pub u: Vec<f64>,
    /// Discrete pressure coefficients.
    pub p: Vec<f64>,
}

/// The assembled SolCx model state.
pub struct SolCxModel {
    pub cfg: SolCxConfig,
    pub hier: MeshHierarchy,
    pub bcs: Vec<DirichletBc>,
    pub exact: SolCxExact,
}

impl SolCxModel {
    pub fn new(cfg: SolCxConfig) -> Self {
        assert!(
            cfg.mx % 2 == 0,
            "SolCx needs an even mx so the x = 1/2 interface is mesh-aligned"
        );
        let exact = SolCxExact::new(cfg.eta_left, cfg.eta_right);
        let mesh =
            StructuredMesh::new_box(cfg.mx, cfg.my, cfg.mz, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let hier = MeshHierarchy::new(mesh, cfg.levels);
        // Exact velocity data on all six faces of every level.
        let bcs: Vec<DirichletBc> = hier
            .meshes
            .iter()
            .map(|mm| {
                VelocityBcBuilder::new(mm)
                    .all_faces_fn(|x| exact.velocity(x))
                    .build()
            })
            .collect();
        Self {
            cfg,
            hier,
            bcs,
            exact,
        }
    }

    /// Build the Stokes solver with the analytic (unsmeared) viscosity.
    pub fn build_solver(&self) -> StokesSolver {
        let gmg = GmgConfig {
            levels: self.cfg.levels,
            fine_kind: self.cfg.fine_kind,
            ..GmgConfig::default()
        };
        let eta = |x: [f64; 3]| self.exact.eta(x);
        build_stokes_solver_spec_cached(
            &self.hier,
            ViscositySpec::Analytic(&eta),
            &self.bcs,
            &gmg,
            None,
            &mut SetupCache::new(),
        )
    }

    /// Solve the problem and measure discretization errors.
    pub fn solve(&self) -> SolCxReport {
        let tables = Q2QuadTables::standard();
        let fine = self.hier.finest();
        let solver = self.build_solver();
        let nu = num_velocity_dofs(fine);
        let np = num_pressure_dofs(fine);

        // Consistent load vector, then the residual formulation of the
        // lifted Dirichlet problem: x0 carries the BC values, solve
        // J δ = −F(x0), x = x0 + δ.
        let f_u = assemble_forcing(fine, &tables, |x| self.exact.forcing(x));
        let bc = &self.bcs[self.cfg.levels - 1];
        let mut u0 = vec![0.0; nu];
        bc.apply_to_vector(&mut u0);
        let p0 = vec![0.0; np];
        let eta_qp = analytic_eta_qp(fine, &tables, &|x| self.exact.eta(x));
        let a_unmasked = ptatin_ops::build_viscous_operator(
            self.cfg.fine_kind,
            fine,
            eta_qp,
            &DirichletBc::new(),
        );
        let mut r = vec![0.0; nu + np];
        crate::nonlinear::stokes_residual(
            a_unmasked.as_ref(),
            &solver.b_full,
            bc,
            &u0,
            &p0,
            &f_u,
            &mut r,
        );
        for v in &mut r {
            *v = -*v;
        }
        let mut delta = vec![0.0; nu + np];
        let stats = solver.solve(
            &r,
            &mut delta,
            &KrylovConfig::default()
                .with_rtol(self.cfg.rtol)
                .with_max_it(self.cfg.max_it)
                .with_label("SolCx"),
            KrylovOperatorChoice::Picard,
            None,
        );
        let mut u = u0;
        for i in 0..nu {
            u[i] += delta[i];
        }
        let p: Vec<f64> = delta[nu..].to_vec();
        let errors = self.errors(&tables, &u, &p);
        SolCxReport {
            stats,
            errors,
            h: 1.0 / self.cfg.mx as f64,
            u,
            p,
        }
    }

    /// L² errors by quadrature; pressures compared after removing each
    /// field's own mean (the constant nullspace of the all-Dirichlet
    /// problem).
    pub fn errors(&self, tables: &Q2QuadTables, u: &[f64], p: &[f64]) -> SolCxErrors {
        let fine = self.hier.finest();
        let nqp = tables.nqp();
        // Pass 1: means.
        let mut vol = 0.0;
        let mut ph_mean = 0.0;
        let mut pe_mean = 0.0;
        for e in 0..fine.num_elements() {
            let corners = fine.element_corner_coords(e);
            let (centroid, half) = element_frame(&corners);
            for q in 0..nqp {
                let geo = qp_geometry(&corners, tables.quad.points[q], tables.quad.weights[q]);
                let x = map_to_physical(&corners, tables.quad.points[q]);
                let psi = p1disc_basis(x, centroid, half);
                let mut ph = 0.0;
                for (m, &pm) in psi.iter().enumerate() {
                    ph += pm * p[NP1 * e + m];
                }
                vol += geo.wdetj;
                ph_mean += geo.wdetj * ph;
                pe_mean += geo.wdetj * self.exact.pressure(x);
            }
        }
        ph_mean /= vol;
        pe_mean /= vol;
        // Pass 2: L² errors.
        let mut verr2 = 0.0;
        let mut perr2 = 0.0;
        for e in 0..fine.num_elements() {
            let corners = fine.element_corner_coords(e);
            let (centroid, half) = element_frame(&corners);
            let nodes = fine.element_nodes(e);
            for q in 0..nqp {
                let geo = qp_geometry(&corners, tables.quad.points[q], tables.quad.weights[q]);
                let x = map_to_physical(&corners, tables.quad.points[q]);
                let ue = self.exact.velocity(x);
                let mut uh = [0.0f64; 3];
                for (i, &nid) in nodes.iter().enumerate() {
                    let phi = tables.basis[q][i];
                    for d in 0..3 {
                        uh[d] += phi * u[3 * nid + d];
                    }
                }
                for d in 0..3 {
                    verr2 += geo.wdetj * (uh[d] - ue[d]).powi(2);
                }
                let psi = p1disc_basis(x, centroid, half);
                let mut ph = 0.0;
                for (m, &pm) in psi.iter().enumerate() {
                    ph += pm * p[NP1 * e + m];
                }
                let diff = (ph - ph_mean) - (self.exact.pressure(x) - pe_mean);
                perr2 += geo.wdetj * diff * diff;
            }
        }
        SolCxErrors {
            velocity_l2: verr2.sqrt(),
            pressure_l2: perr2.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact solution must satisfy all interface conditions.
    #[test]
    fn exact_solution_interface_conditions() {
        for (el, er) in [(1.0, 1.0), (1.0, 1e4), (1e2, 1.0)] {
            let ex = SolCxExact::new(el, er);
            let xm = 0.5 - 1e-12;
            let xp = 0.5 + 1e-12;
            // Velocity continuous across the interface.
            for z in [0.1, 0.37, 0.8] {
                let ul = ex.velocity([xm, 0.0, z]);
                let ur = ex.velocity([xp, 0.0, z]);
                for d in 0..3 {
                    assert!((ul[d] - ur[d]).abs() < 1e-8, "u[{d}] jump: {ul:?} {ur:?}");
                }
                // Shear traction σ_xz = −η (g″ + π² g) sin πz continuous.
                let (gl, _, g2l, _) = ex.g(xm);
                let (gr, _, g2r, _) = ex.g(xp);
                let tl = el * (g2l + PI * PI * gl);
                let tr = er * (g2r + PI * PI * gr);
                assert!(
                    (tl - tr).abs() < 1e-6 * tl.abs().max(1.0),
                    "σ_xz jump: {tl} vs {tr}"
                );
            }
            // Walls: no flow through (or along) the x faces.
            for z in [0.0, 0.3, 1.0] {
                for x in [0.0, 1.0] {
                    let u = ex.velocity([x, 0.5, z]);
                    assert!(u[0].abs() < 1e-14 && u[2].abs() < 1e-14, "{u:?}");
                }
            }
        }
    }

    /// Divergence-free by construction: check ∂u_x/∂x + ∂u_z/∂z = 0
    /// numerically at interior points.
    #[test]
    fn exact_solution_divergence_free() {
        let ex = SolCxExact::new(1.0, 1e4);
        let h = 1e-6;
        for &x in &[0.1, 0.3, 0.45, 0.55, 0.7, 0.9] {
            for &z in &[0.2, 0.5, 0.9] {
                let dudx =
                    (ex.velocity([x + h, 0.0, z])[0] - ex.velocity([x - h, 0.0, z])[0]) / (2.0 * h);
                let dwdz =
                    (ex.velocity([x, 0.0, z + h])[2] - ex.velocity([x, 0.0, z - h])[2]) / (2.0 * h);
                assert!((dudx + dwdz).abs() < 1e-5, "div = {}", dudx + dwdz);
            }
        }
    }

    /// The momentum balance −∇·(2ηD) + ∇p = f holds per side (finite
    /// differences of the exact fields against the analytic forcing).
    #[test]
    fn exact_solution_momentum_balance() {
        let ex = SolCxExact::new(1.0, 1e4);
        let h = 1e-5;
        for &x in &[0.2, 0.4, 0.6, 0.8] {
            for &z in &[0.25, 0.6] {
                let eta = ex.eta([x, 0.0, z]);
                // Laplacian of each velocity component (y terms vanish).
                let mut lap = [0.0f64; 3];
                for d in [0, 2] {
                    let c = ex.velocity([x, 0.0, z])[d];
                    let xp = ex.velocity([x + h, 0.0, z])[d];
                    let xm = ex.velocity([x - h, 0.0, z])[d];
                    let zp = ex.velocity([x, 0.0, z + h])[d];
                    let zm = ex.velocity([x, 0.0, z - h])[d];
                    lap[d] = (xp + xm + zp + zm - 4.0 * c) / (h * h);
                }
                let dpdx =
                    (ex.pressure([x + h, 0.0, z]) - ex.pressure([x - h, 0.0, z])) / (2.0 * h);
                let dpdz =
                    (ex.pressure([x, 0.0, z + h]) - ex.pressure([x, 0.0, z - h])) / (2.0 * h);
                let f = ex.forcing([x, 0.0, z]);
                let rx = -eta * lap[0] + dpdx;
                let rz = -eta * lap[2] + dpdz;
                assert!(
                    (rx - f[0]).abs() < 1e-3 * f[0].abs().max(1.0),
                    "{rx} vs {}",
                    f[0]
                );
                assert!(
                    (rz - f[2]).abs() < 1e-3 * f[2].abs().max(1.0),
                    "{rz} vs {}",
                    f[2]
                );
            }
        }
    }

    /// A coarse solve converges and lands in the right error ballpark.
    #[test]
    fn solcx_solves_at_coarse_resolution() {
        let model = SolCxModel::new(SolCxConfig {
            mx: 4,
            my: 2,
            mz: 4,
            rtol: 1e-8,
            ..SolCxConfig::default()
        });
        let rep = model.solve();
        assert!(rep.stats.converged, "{:?}", rep.stats);
        assert!(rep.errors.velocity_l2.is_finite() && rep.errors.velocity_l2 > 0.0);
        assert!(rep.errors.pressure_l2.is_finite() && rep.errors.pressure_l2 > 0.0);
    }
}
