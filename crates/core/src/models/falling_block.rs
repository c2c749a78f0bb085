//! Falling-block / slab-detachment problem: a dense, strong block sinking
//! through a nonlinear (power-law or Arrhenius) ambient fluid. The ambient
//! shear-thins around the descending block, so the problem exercises the
//! full Picard/Newton machinery with a strain-rate-dependent viscosity and
//! genuine buoyancy forcing — the nonlinear counterpart of the linear
//! sinker benchmark.

use crate::coefficients::{update_coefficients, StateFields};
use crate::nonlinear::{MaterialPointProblem, NonlinearConfig, NonlinearStats};
use crate::solver::{GmgConfig, SetupCache};
use ptatin_fem::assemble::{num_pressure_dofs, num_velocity_dofs, Q2QuadTables};
use ptatin_fem::bc::{DirichletBc, VelocityBcBuilder};
use ptatin_mesh::StructuredMesh;
use ptatin_mpm::points::{seed_regular, MaterialPoints};
use ptatin_mpm::projection::interpolate_velocity;
use ptatin_prng::StdRng;
use ptatin_rheology::{Material, MaterialTable, ViscousLaw};

/// Lithology indices.
pub const AMBIENT: u16 = 0;
pub const BLOCK: u16 = 1;

/// Configuration of the falling-block problem.
#[derive(Clone, Debug)]
pub struct FallingBlockConfig {
    pub m: usize,
    pub levels: usize,
    /// Block half-width (cube centered at `block_center`).
    pub block_half_width: f64,
    /// Block center.
    pub block_center: [f64; 3],
    /// Nonlinear ambient material (power-law by default).
    pub ambient: Material,
    /// Dense, strong block material.
    pub block: Material,
    /// Material points per element dimension.
    pub points_per_dim: usize,
    /// RNG seed for point jitter.
    pub seed: u64,
    /// Close the top with a free-slip wall instead of the default free
    /// surface.
    pub top_free_slip: bool,
    pub nonlinear: NonlinearConfig,
    pub gmg: GmgConfig,
}

/// Default shear-thinning ambient: power-law with n = 3.
pub fn default_ambient() -> Material {
    Material {
        name: "ambient".into(),
        rho0: 1.0,
        thermal_expansivity: 0.0,
        reference_temperature: 0.0,
        viscous: ViscousLaw::PowerLaw {
            prefactor: 1.0,
            stress_exponent: 3.0,
        },
        plasticity: None,
        eta_min: 1e-3,
        eta_max: 1e4,
    }
}

/// Default block: 100× more viscous and twice as dense as the ambient
/// reference.
pub fn default_block() -> Material {
    Material::constant("block", 2.0, 100.0)
}

impl Default for FallingBlockConfig {
    fn default() -> Self {
        Self {
            m: 8,
            levels: 2,
            block_half_width: 0.15,
            block_center: [0.5, 0.5, 0.7],
            ambient: default_ambient(),
            block: default_block(),
            points_per_dim: 3,
            seed: 11,
            top_free_slip: false,
            // The default abs_tol (1e-2) is tuned for the O(1)-residual
            // rift steps; the buoyancy-driven block starts at ~0.2, so a
            // loose absolute floor would declare victory before the
            // shear-thinning self-consists.
            nonlinear: NonlinearConfig {
                max_it: 20,
                abs_tol: 1e-10,
                rel_tol: 1e-5,
                use_newton: true,
                ..NonlinearConfig::default()
            },
            gmg: GmgConfig {
                levels: 2,
                ..GmgConfig::default()
            },
        }
    }
}

/// Falling-block boundary conditions: free-slip on all walls, free surface
/// on top (z max) — the sinker conditions — or a fully closed free-slip
/// box when `top_free_slip` is set.
pub fn falling_block_bc(mesh: &StructuredMesh, top_free_slip: bool) -> DirichletBc {
    let mut b = VelocityBcBuilder::new(mesh)
        .free_slip(0, true)
        .free_slip(0, false)
        .free_slip(1, true)
        .free_slip(1, false)
        .free_slip(2, true);
    if top_free_slip {
        b = b.free_slip(2, false);
    }
    b.build()
}

/// Diagnostics of a converged falling-block solve.
#[derive(Clone, Debug)]
pub struct FallingBlockReport {
    pub stats: NonlinearStats,
    /// Mean vertical velocity of the block's material points (< 0: sinking).
    pub block_sink_velocity: f64,
    /// Ratio of max to min effective viscosity over the quadrature points —
    /// the contrast the nonlinearity actually produced.
    pub eta_contrast: f64,
    pub velocity: Vec<f64>,
    pub pressure: Vec<f64>,
}

/// The assembled falling-block model state.
pub struct FallingBlockModel {
    pub cfg: FallingBlockConfig,
    pub mesh: StructuredMesh,
    pub points: MaterialPoints,
    pub materials: MaterialTable,
    pub gravity: [f64; 3],
}

impl FallingBlockModel {
    pub fn new(cfg: FallingBlockConfig) -> Self {
        let mesh = StructuredMesh::new_box(cfg.m, cfg.m, cfg.m, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let c = cfg.block_center;
        let hw = cfg.block_half_width;
        let classify = move |x: [f64; 3]| -> u16 {
            let inside = (0..3).all(|d| (x[d] - c[d]).abs() < hw);
            if inside {
                BLOCK
            } else {
                AMBIENT
            }
        };
        let points = seed_regular(&mesh, cfg.points_per_dim, 0.25, &mut rng, classify);
        let materials = MaterialTable::new(vec![cfg.ambient.clone(), cfg.block.clone()]);
        Self {
            cfg,
            mesh,
            points,
            materials,
            gravity: [0.0, 0.0, -10.0],
        }
    }

    /// Run the nonlinear Stokes solve and compute sink diagnostics.
    pub fn solve(&self) -> FallingBlockReport {
        let mut cache = SetupCache::new();
        let mut u = vec![0.0; num_velocity_dofs(&self.mesh)];
        let mut p = vec![0.0; num_pressure_dofs(&self.mesh)];
        let stats = self
            .stokes_problem(&mut cache)
            .solve(&mut u, &mut p, &self.cfg.nonlinear);
        // Final-state viscosity contrast.
        let tables = Q2QuadTables::standard();
        let fields = update_coefficients(
            &self.mesh,
            &tables,
            &self.points,
            &self.materials,
            &StateFields {
                velocity: Some(&u),
                pressure: Some(&p),
                temperature: None,
            },
            false,
        );
        let mut eta_min = f64::INFINITY;
        let mut eta_max = 0.0f64;
        for &e in &fields.eta_qp {
            eta_min = eta_min.min(e);
            eta_max = eta_max.max(e);
        }
        let eta_contrast = if eta_min > 0.0 {
            eta_max / eta_min
        } else {
            0.0
        };
        // Mean vertical velocity over the block's points.
        let mut sum_w = 0.0;
        let mut count = 0usize;
        for i in 0..self.points.len() {
            if self.points.lithology[i] != BLOCK || self.points.element[i] == u32::MAX {
                continue;
            }
            let e = self.points.element[i] as usize;
            sum_w += interpolate_velocity(&self.mesh, &u, e, self.points.xi[i])[2];
            count += 1;
        }
        let block_sink_velocity = if count > 0 { sum_w / count as f64 } else { 0.0 };
        FallingBlockReport {
            stats,
            block_sink_velocity,
            eta_contrast,
            velocity: u,
            pressure: p,
        }
    }

    /// The nonlinear Stokes problem of this model, building through `cache`.
    pub(crate) fn stokes_problem<'a>(
        &'a self,
        cache: &'a mut SetupCache,
    ) -> MaterialPointProblem<'a> {
        MaterialPointProblem::new(
            &self.mesh,
            self.cfg.levels,
            |m| falling_block_bc(m, self.cfg.top_free_slip),
            &self.points,
            &self.materials,
            None,
            self.gravity,
            &self.cfg.gmg,
            cache,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sinks_through_nonlinear_ambient() {
        let model = FallingBlockModel::new(FallingBlockConfig::default());
        let rep = model.solve();
        assert!(
            rep.stats.outcome.is_acceptable(),
            "solve failed: {:?}",
            rep.stats
        );
        assert!(
            rep.block_sink_velocity < -1e-6,
            "block does not sink: {}",
            rep.block_sink_velocity
        );
        // The shear-thinning ambient must produce a real viscosity spread.
        assert!(rep.eta_contrast > 10.0, "{}", rep.eta_contrast);
    }
}
