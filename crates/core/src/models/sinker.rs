//! The sedimentation / "sinker" robustness problem of §IV-A and Fig. 1:
//! `N_c` randomly placed non-intersecting spheres of radius `R_c` in the
//! unit cube, denser and more viscous than the ambient fluid, free-slip
//! walls, free surface on top, flow driven purely by the density contrast.

use crate::coefficients::{update_coefficients, CoefficientFields, StateFields};
use crate::solver::{
    build_stokes_solver_cached, GmgConfig, KrylovOperatorChoice, SetupCache, StokesSolver,
};
use ptatin_fem::assemble::{assemble_body_force, Q2QuadTables};
use ptatin_fem::bc::{DirichletBc, VelocityBcBuilder};
use ptatin_la::krylov::{KrylovConfig, SolveStats};
use ptatin_mesh::hierarchy::MeshHierarchy;
use ptatin_mesh::StructuredMesh;
use ptatin_mpm::points::{seed_regular, MaterialPoints};
use ptatin_prng::{Rng, StdRng};
use ptatin_rheology::{Material, MaterialTable};

/// Configuration of the sinker problem.
#[derive(Clone, Debug)]
pub struct SinkerConfig {
    /// Elements per dimension (paper: 64–192; laptop scale: 8–32).
    pub m: usize,
    /// Geometric levels (paper: 3).
    pub levels: usize,
    /// Number of spheres (paper: 8).
    pub n_spheres: usize,
    /// Sphere radius (paper: 0.1).
    pub radius: f64,
    /// Viscosity contrast Δη: ambient viscosity is `1/Δη`, spheres are 1.
    pub delta_eta: f64,
    /// RNG seed for sphere placement and point jitter.
    pub seed: u64,
    /// Material points per element dimension (`n³` per element).
    pub points_per_dim: usize,
    /// The solver a scenario file or sweep runs the model with (its
    /// `levels` follow the `levels` key).
    pub gmg: GmgConfig,
}

impl Default for SinkerConfig {
    fn default() -> Self {
        Self {
            m: 8,
            levels: 2,
            n_spheres: 8,
            radius: 0.1,
            delta_eta: 1e4,
            seed: 20140101,
            points_per_dim: 3,
            gmg: GmgConfig {
                levels: 2,
                ..GmgConfig::default()
            },
        }
    }
}

/// The assembled sinker model state.
pub struct SinkerModel {
    pub cfg: SinkerConfig,
    pub hier: MeshHierarchy,
    pub points: MaterialPoints,
    pub materials: MaterialTable,
    pub bcs: Vec<DirichletBc>,
    pub spheres: Vec<[f64; 3]>,
    pub gravity: [f64; 3],
}

/// A solved sinker: the coefficient state, the solver built on it, the
/// right-hand side and the Picard solution with its Krylov statistics.
pub struct SinkerSolution {
    pub fields: CoefficientFields,
    pub solver: StokesSolver,
    pub rhs: Vec<f64>,
    pub x: Vec<f64>,
    pub stats: SolveStats,
    /// Wall time of the Krylov solve alone (s).
    pub solve_seconds: f64,
}

impl SinkerSolution {
    /// Extreme vertical velocities `(min, max)`: the sinking spheres and
    /// the return flow.
    pub fn w_range(&self) -> (f64, f64) {
        self.x[..self.solver.nu]
            .chunks_exact(3)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), u| {
                (lo.min(u[2]), hi.max(u[2]))
            })
    }
}

impl SinkerConfig {
    /// The spheres [`SinkerModel::new`] places for this configuration, or
    /// why it cannot place them.
    pub fn spheres(&self) -> Result<Vec<[f64; 3]>, String> {
        place_spheres(self, &mut StdRng::seed_from_u64(self.seed))
    }
}

/// Place `cfg.n_spheres` non-intersecting spheres of radius `cfg.radius`
/// inside the unit cube by rejection, drawing from `rng`. `Err` when the
/// radius leaves no room for a centre or 100 000 draws do not place them
/// all.
fn place_spheres(cfg: &SinkerConfig, rng: &mut StdRng) -> Result<Vec<[f64; 3]>, String> {
    let r = cfg.radius;
    if 2.0 * r >= 1.0 {
        return Err(format!(
            "radius = {r} leaves no room for a sphere in the unit cube (must be below 0.5)"
        ));
    }
    let mut spheres: Vec<[f64; 3]> = Vec::new();
    let mut guard = 0;
    while spheres.len() < cfg.n_spheres {
        guard += 1;
        if guard >= 100_000 {
            return Err(format!(
                "cannot place {} spheres of radius {r} without overlap in the unit cube",
                cfg.n_spheres
            ));
        }
        let c = [
            rng.gen_range(r..1.0 - r),
            rng.gen_range(r..1.0 - r),
            rng.gen_range(r..1.0 - r),
        ];
        if spheres.iter().all(|s| {
            let d2 = (s[0] - c[0]).powi(2) + (s[1] - c[1]).powi(2) + (s[2] - c[2]).powi(2);
            d2 > (2.0 * r) * (2.0 * r)
        }) {
            spheres.push(c);
        }
    }
    Ok(spheres)
}

/// Free-slip walls + free surface at the top (z max): the sinker boundary
/// conditions of §IV-A.
pub fn sinker_bc(mesh: &StructuredMesh) -> DirichletBc {
    VelocityBcBuilder::new(mesh)
        .free_slip(0, true)
        .free_slip(0, false)
        .free_slip(1, true)
        .free_slip(1, false)
        .free_slip(2, true) // bottom
        // top (z max) is the free surface: natural (zero traction)
        .build()
}

impl SinkerModel {
    /// Panics when the spheres cannot be placed ([`SinkerConfig::spheres`]
    /// tells beforehand; the scenario grammar refuses such specs).
    pub fn new(cfg: SinkerConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // PANIC-OK: documented constructor contract; `SinkerConfig::spheres`
        // reports the same error beforehand.
        let spheres = place_spheres(&cfg, &mut rng).unwrap_or_else(|e| panic!("{e}"));
        let r = cfg.radius;
        let mesh = StructuredMesh::new_box(cfg.m, cfg.m, cfg.m, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let hier = MeshHierarchy::new(mesh, cfg.levels);
        let bcs: Vec<DirichletBc> = hier.meshes.iter().map(sinker_bc).collect();
        let classify = |x: [f64; 3]| -> u16 {
            let inside = spheres.iter().any(|s| {
                (s[0] - x[0]).powi(2) + (s[1] - x[1]).powi(2) + (s[2] - x[2]).powi(2) < r * r
            });
            u16::from(inside)
        };
        let points = seed_regular(hier.finest(), cfg.points_per_dim, 0.25, &mut rng, classify);
        // Ambient: η = 1/Δη, ρ = 1. Spheres: η = 1, ρ = 1.2 (§IV-A).
        let materials = MaterialTable::new(vec![
            Material::constant("ambient", 1.0, 1.0 / cfg.delta_eta),
            Material::constant("sphere", 1.2, 1.0),
        ]);
        Self {
            cfg,
            hier,
            points,
            materials,
            bcs,
            spheres,
            gravity: [0.0, 0.0, -9.8],
        }
    }

    /// Evaluate the material-point coefficients (linear materials: no
    /// velocity/pressure dependence).
    pub fn coefficients(&self) -> CoefficientFields {
        let tables = Q2QuadTables::standard();
        update_coefficients(
            self.hier.finest(),
            &tables,
            &self.points,
            &self.materials,
            &StateFields {
                velocity: None,
                pressure: None,
                temperature: None,
            },
            false,
        )
    }

    /// Build the Stokes solver for the current coefficient state.
    pub fn build_solver(&self, fields: &CoefficientFields, gmg: &GmgConfig) -> StokesSolver {
        build_stokes_solver_cached(
            &self.hier,
            &fields.eta_corner,
            &self.bcs,
            gmg,
            None,
            &mut SetupCache::new(),
        )
    }

    /// The sinker's Krylov settings: GCR to a relative residual of 1e-5,
    /// at most 600 iterations. Every sinker path solves with these.
    pub fn krylov_config() -> KrylovConfig {
        KrylovConfig::default().with_rtol(1e-5).with_max_it(600)
    }

    /// Evaluate the coefficients, build the model's solver (`cfg.gmg`) and
    /// solve the Picard system from zero with [`Self::krylov_config`].
    pub fn solve(&self) -> SinkerSolution {
        let fields = self.coefficients();
        let solver = self.build_solver(&fields, &self.cfg.gmg);
        let rhs = self.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let t0 = std::time::Instant::now();
        let stats = solver.solve(
            &rhs,
            &mut x,
            &Self::krylov_config(),
            KrylovOperatorChoice::Picard,
            None,
        );
        let solve_seconds = t0.elapsed().as_secs_f64();
        SinkerSolution {
            fields,
            solver,
            rhs,
            x,
            stats,
            solve_seconds,
        }
    }

    /// Full-space right-hand side `[f_u; 0]` (homogeneous Dirichlet data:
    /// constrained entries zeroed).
    pub fn rhs(&self, solver: &StokesSolver, fields: &CoefficientFields) -> Vec<f64> {
        let tables = Q2QuadTables::standard();
        let mut f_u =
            assemble_body_force(self.hier.finest(), &tables, &fields.rho_qp, self.gravity);
        solver.bc.zero_constrained(&mut f_u);
        let mut rhs = vec![0.0; solver.nu + solver.np];
        rhs[..solver.nu].copy_from_slice(&f_u);
        rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spheres_do_not_intersect() {
        let model = SinkerModel::new(SinkerConfig {
            m: 4,
            levels: 2,
            ..SinkerConfig::default()
        });
        assert_eq!(model.spheres.len(), 8);
        for (i, a) in model.spheres.iter().enumerate() {
            for b in model.spheres.iter().skip(i + 1) {
                let d =
                    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
                assert!(d >= 2.0 * model.cfg.radius - 1e-12);
            }
        }
        // Both lithologies present.
        assert!(model.points.lithology.contains(&0));
        assert!(model.points.lithology.contains(&1));
    }

    #[test]
    fn sinker_solves_and_sinks() {
        let model = SinkerModel::new(SinkerConfig {
            m: 4,
            levels: 2,
            delta_eta: 1e2,
            ..SinkerConfig::default()
        });
        let sol = model.solve();
        assert!(sol.stats.converged, "{:?}", sol.stats);
        // The dense spheres sink: somewhere the vertical velocity is
        // negative; by incompressibility there is return flow (positive
        // somewhere).
        let (min_w, max_w) = sol.w_range();
        assert!(min_w < -1e-6, "no sinking flow: {min_w}");
        assert!(max_w > 1e-7, "no return flow: {max_w}");
    }
}
