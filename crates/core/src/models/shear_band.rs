//! Plastic shear-band localization: a visco-plastic slab compressed along
//! x with a weak circular inclusion seeded at the bottom center. Yielding
//! concentrates strain into conjugate bands rooted at the inclusion — the
//! standard brittle-localization benchmark for pressure-(in)sensitive
//! plasticity (von Mises or Drucker–Prager, selectable via the material).

use crate::coefficients::{eps_ii, strain_rate_at};
use crate::nonlinear::{MaterialPointProblem, NonlinearConfig, NonlinearStats};
use crate::solver::{GmgConfig, SetupCache};
use ptatin_fem::assemble::{num_pressure_dofs, num_velocity_dofs};
use ptatin_fem::bc::{DirichletBc, VelocityBcBuilder};
use ptatin_mesh::StructuredMesh;
use ptatin_mpm::points::{seed_regular, MaterialPoints};
use ptatin_prng::StdRng;
use ptatin_rheology::{Material, MaterialTable, Plasticity, Rheology, ViscousLaw};

/// Lithology indices.
pub const BACKGROUND: u16 = 0;
pub const INCLUSION: u16 = 1;

/// Configuration of the shear-band localization problem.
#[derive(Clone, Debug)]
pub struct ShearBandConfig {
    pub mx: usize,
    pub my: usize,
    pub mz: usize,
    pub levels: usize,
    /// Inward x-velocity on both x faces (pure-shear compression).
    pub compression_velocity: f64,
    /// Radius of the weak inclusion (cylinder along y, centered at the
    /// bottom of the x-midplane).
    pub inclusion_radius: f64,
    /// Visco-plastic background material.
    pub background: Material,
    /// Weak (purely viscous) inclusion material.
    pub inclusion: Material,
    /// Material points per element dimension.
    pub points_per_dim: usize,
    /// RNG seed for point jitter.
    pub seed: u64,
    /// Close the top with a free-slip wall instead of the default free
    /// surface (the compressed material then has no outlet and pressure
    /// carries the confinement).
    pub top_free_slip: bool,
    pub nonlinear: NonlinearConfig,
    pub gmg: GmgConfig,
}

/// Default visco-plastic background: constant creep viscosity limited by a
/// von Mises yield stress low enough that the driven compression yields.
pub fn default_background() -> Material {
    Material {
        name: "background".into(),
        rho0: 1.0,
        thermal_expansivity: 0.0,
        reference_temperature: 0.0,
        viscous: ViscousLaw::Constant { eta: 100.0 },
        plasticity: Some(Plasticity::VonMises { yield_stress: 40.0 }),
        eta_min: 1e-4,
        eta_max: 1e6,
    }
}

/// Default weak inclusion: purely viscous, 100× weaker than the background.
pub fn default_inclusion() -> Material {
    Material {
        name: "inclusion".into(),
        rho0: 1.0,
        thermal_expansivity: 0.0,
        reference_temperature: 0.0,
        viscous: ViscousLaw::Constant { eta: 1.0 },
        plasticity: None,
        eta_min: 1e-4,
        eta_max: 1e6,
    }
}

impl Default for ShearBandConfig {
    fn default() -> Self {
        Self {
            mx: 16,
            my: 2,
            mz: 8,
            levels: 2,
            compression_velocity: 1.0,
            inclusion_radius: 0.12,
            background: default_background(),
            inclusion: default_inclusion(),
            points_per_dim: 3,
            seed: 7,
            top_free_slip: false,
            nonlinear: NonlinearConfig {
                max_it: 8,
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

/// Shear-band boundary conditions: prescribed inward x-velocity on the x
/// faces, free-slip lateral walls and base, and on top (z max) either a
/// free surface (default: the compressed material has an outlet) or a
/// free-slip lid.
pub fn shear_band_bc(mesh: &StructuredMesh, v: f64, top_free_slip: bool) -> DirichletBc {
    let mut b = VelocityBcBuilder::new(mesh)
        .component(0, true, 0, v)
        .component(0, false, 0, -v)
        .free_slip(1, true)
        .free_slip(1, false)
        .free_slip(2, true);
    if top_free_slip {
        b = b.free_slip(2, false);
    }
    b.build()
}

/// Diagnostics of a converged shear-band solve.
#[derive(Clone, Debug)]
pub struct ShearBandReport {
    pub stats: NonlinearStats,
    /// Fraction of material points on the plastic branch.
    pub yielded_fraction: f64,
    /// max(ε̇_II) / mean(ε̇_II) over element centers — localization factor;
    /// ≫ 1 when bands form.
    pub localization: f64,
    pub velocity: Vec<f64>,
    pub pressure: Vec<f64>,
}

/// The assembled shear-band model state.
pub struct ShearBandModel {
    pub cfg: ShearBandConfig,
    pub mesh: StructuredMesh,
    pub points: MaterialPoints,
    pub materials: MaterialTable,
}

impl ShearBandModel {
    pub fn new(cfg: ShearBandConfig) -> Self {
        let mesh =
            StructuredMesh::new_box(cfg.mx, cfg.my, cfg.mz, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let r = cfg.inclusion_radius;
        // Weak cylindrical seed along y at the bottom of the midplane.
        let classify = move |x: [f64; 3]| -> u16 {
            let d2 = (x[0] - 0.5).powi(2) + x[2].powi(2);
            if d2 < r * r {
                INCLUSION
            } else {
                BACKGROUND
            }
        };
        let points = seed_regular(&mesh, cfg.points_per_dim, 0.25, &mut rng, classify);
        let materials = MaterialTable::new(vec![cfg.background.clone(), cfg.inclusion.clone()]);
        Self {
            cfg,
            mesh,
            points,
            materials,
        }
    }

    /// Run the nonlinear Stokes solve and compute localization diagnostics.
    pub fn solve(&self) -> ShearBandReport {
        let cfg = &self.cfg;
        let mut cache = SetupCache::new();
        let mut problem = MaterialPointProblem::new(
            &self.mesh,
            cfg.levels,
            |m| shear_band_bc(m, cfg.compression_velocity, cfg.top_free_slip),
            &self.points,
            &self.materials,
            None,
            // Kinematically driven: no gravity forcing.
            [0.0, 0.0, 0.0],
            &cfg.gmg,
            &mut cache,
        );
        let mut u = vec![0.0; num_velocity_dofs(&self.mesh)];
        let mut p = vec![0.0; num_pressure_dofs(&self.mesh)];
        let stats = problem.solve(&mut u, &mut p, &cfg.nonlinear);
        let (yielded_fraction, localization) = self.diagnostics(&u, &p);
        ShearBandReport {
            stats,
            yielded_fraction,
            localization,
            velocity: u,
            pressure: p,
        }
    }

    /// Yielded point fraction and strain-rate localization factor of a
    /// velocity/pressure state.
    pub fn diagnostics(&self, u: &[f64], p: &[f64]) -> (f64, f64) {
        let mut yielded = 0usize;
        let mut located = 0usize;
        for i in 0..self.points.len() {
            let e = self.points.element[i];
            if e == u32::MAX {
                continue;
            }
            located += 1;
            let d = strain_rate_at(&self.mesh, u, e as usize, self.points.xi[i]);
            let pres =
                crate::coefficients::pressure_at(&self.mesh, p, e as usize, self.points.xi[i]);
            let mat: &dyn Rheology = self.materials.get(self.points.lithology[i]);
            let ev = mat.effective_viscosity(eps_ii(&d), 0.0, pres, self.points.plastic_strain[i]);
            if ev.yielded {
                yielded += 1;
            }
        }
        let yielded_fraction = if located > 0 {
            yielded as f64 / located as f64
        } else {
            0.0
        };
        // Strain-rate invariant at element centers.
        let mut max_e = 0.0f64;
        let mut sum_e = 0.0f64;
        let nel = self.mesh.num_elements();
        for e in 0..nel {
            let d = strain_rate_at(&self.mesh, u, e, [0.0, 0.0, 0.0]);
            let val = eps_ii(&d);
            max_e = max_e.max(val);
            sum_e += val;
        }
        let localization = if nel > 0 && sum_e > 0.0 {
            max_e / (sum_e / nel as f64)
        } else {
            0.0
        };
        (yielded_fraction, localization)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_yields_and_localizes() {
        let model = ShearBandModel::new(ShearBandConfig::default());
        let rep = model.solve();
        assert!(
            rep.stats.outcome.is_acceptable(),
            "solve failed: {:?}",
            rep.stats
        );
        // The driven compression must push the background past yield…
        assert!(
            rep.yielded_fraction > 0.2,
            "no yielding: {}",
            rep.yielded_fraction
        );
        // …and the weak seed must concentrate strain.
        assert!(
            rep.localization > 1.5,
            "no localization: {}",
            rep.localization
        );
    }

    #[test]
    fn stronger_yield_stress_reduces_yielding() {
        let weak = ShearBandModel::new(ShearBandConfig::default()).solve();
        let mut strong_cfg = ShearBandConfig::default();
        strong_cfg.background.plasticity = Some(Plasticity::VonMises { yield_stress: 1e6 });
        let strong = ShearBandModel::new(strong_cfg).solve();
        assert!(strong.yielded_fraction < weak.yielded_fraction);
        assert!(
            strong.yielded_fraction < 0.05,
            "{}",
            strong.yielded_fraction
        );
    }
}
