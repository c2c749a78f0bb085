//! The continental rifting and breakup application of §V: a three-layer
//! lithosphere (mantle, weak crust, strong crust) with a central damage
//! zone, visco-plastic rheology (Arrhenius creep + Drucker–Prager stress
//! limiter with strain softening), thermal evolution (SUPG energy
//! equation), extension boundary conditions with optional axial
//! shortening, a deformable free surface (ALE) and material-point history
//! tracking.
//!
//! The model is non-dimensionalized: the paper's 1200×200×600 km domain
//! maps to `[0,6]×[0,1]×[0,3]` (x, y vertical, z), 2 cm/yr extension maps
//! to the scaled extension velocity, and the rheological parameters are
//! scaled so that stresses, buoyancy and yield strengths remain O(1) —
//! the solver exercises the same code paths and nonlinear structure as the
//! dimensional runs.

use crate::nonlinear::{MaterialPointProblem, NonlinearConfig, NonlinearOutcome, NonlinearStats};
use crate::solver::{GmgConfig, SetupCache};
use crate::timestep::{accumulate_plastic_strain, advected_surface, cfl_dt, velocity_at_corners};
use ptatin_ckpt::{fnv1a64, Checkpoint, CkptError};
use ptatin_fem::assemble::{num_pressure_dofs, num_velocity_dofs};
use ptatin_fem::bc::{DirichletBc, VelocityBcBuilder};
use ptatin_fem::energy::{assemble_energy_step, solve_energy_step};
use ptatin_mesh::{ElementPartition, StructuredMesh};
use ptatin_mpm::advect::{advect_rk2, cull_lost, relocate_all};
use ptatin_mpm::locate::ElementLocator;
use ptatin_mpm::points::{seed_regular, MaterialPoints};
use ptatin_mpm::population::{control_population, PopulationConfig};
use ptatin_prng::{Rng, StdRng};
use ptatin_rheology::{DruckerPrager, Material, MaterialTable, Plasticity, ViscousLaw};

/// Configuration of the rifting model (scaled units).
#[derive(Clone, Debug)]
pub struct RiftConfig {
    /// Elements: paper runs 256×32×128; scale to the host.
    pub mx: usize,
    pub my: usize,
    pub mz: usize,
    /// Geometric multigrid depth (paper: 3).
    pub levels: usize,
    /// Symmetric extension velocity applied in ±x (paper: 2 cm/yr).
    pub extension_velocity: f64,
    /// Axial shortening applied at the far z face (paper case ii: 2 mm/yr,
    /// i.e. extension/10).
    pub shortening_velocity: f64,
    /// Weak (true) vs strong (false) lower crust — the §V comparison.
    pub weak_lower_crust: bool,
    /// Thermal diffusivity (scaled).
    pub kappa: f64,
    pub cfl: f64,
    pub dt_max: f64,
    pub points_per_dim: usize,
    pub seed: u64,
    pub nonlinear: NonlinearConfig,
    pub gmg: GmgConfig,
}

impl Default for RiftConfig {
    fn default() -> Self {
        Self {
            mx: 12,
            my: 4,
            mz: 8,
            levels: 2,
            extension_velocity: 0.5,
            shortening_velocity: 0.0,
            weak_lower_crust: true,
            kappa: 1e-2,
            cfl: 0.25,
            dt_max: 0.05,
            points_per_dim: 2,
            seed: 777,
            // Tolerances scaled to this model's forcing norm (‖f_u‖ ≈ 60
            // in scaled units): abs 0.25 ≈ 4e-3·‖f‖ plays the role of the
            // paper's dimensional ‖F‖ < 1e-2; rel 5e-3 the role of the
            // per-step 1e-4 reduction. With the clamped plastic tangent the
            // outer iteration converges linearly, so this tolerance is what
            // separates the paper's "1-2 Newton its once the surface
            // equilibrates" regime from permanent max-iteration capping.
            nonlinear: NonlinearConfig {
                abs_tol: 0.25,
                rel_tol: 5e-3,
                ..NonlinearConfig::default()
            },
            gmg: GmgConfig {
                // 13×5×9 coarse nodes, factored exactly: the paper's §V
                // CG + ASM/ILU(0) is what that solve becomes on a coarse
                // grid spread over thousands of ranks.
                levels: 2,
                pre_smooth: 3,
                post_smooth: 3,
                ..GmgConfig::default()
            },
        }
    }
}

/// Per-time-step diagnostics (the data behind Fig. 4).
#[derive(Clone, Debug)]
pub struct RiftStepStats {
    pub step: usize,
    pub time: f64,
    pub dt: f64,
    pub newton_iterations: usize,
    pub total_krylov: usize,
    pub converged: bool,
    /// Typed classification of the nonlinear solve.
    pub outcome: NonlinearOutcome,
    /// Solve attempts consumed by the recovery ladder (1 = first try).
    pub attempts: usize,
    pub yielded_points: usize,
    pub points_lost: usize,
    pub points_migrated: usize,
    pub wall_seconds: f64,
    pub max_topography: f64,
    /// ‖F‖ per nonlinear iteration (diagnostics).
    pub residual_history: Vec<f64>,
}

/// Lithology indices.
pub const MANTLE: u16 = 0;
pub const LOWER_CRUST: u16 = 1;
pub const UPPER_CRUST: u16 = 2;

fn rift_materials(weak_lower_crust: bool) -> MaterialTable {
    let mantle = Material {
        name: "mantle".into(),
        rho0: 1.0,
        thermal_expansivity: 0.1,
        reference_temperature: 1.0,
        viscous: ViscousLaw::Arrhenius {
            prefactor: 0.3,
            stress_exponent: 3.5,
            activation: 4.0,
            activation_volume: 0.0,
        },
        plasticity: None,
        eta_min: 1e-3,
        eta_max: 1e4,
    };
    let lower_crust_eta = if weak_lower_crust { 3.0 } else { 300.0 };
    let crust_dp = DruckerPrager {
        cohesion: 1.0,
        friction_angle: std::f64::consts::FRAC_PI_6, // 30°
        cohesion_softened: 0.2,
        friction_softened: 0.0873, // 5°
        softening_strain: (0.05, 1.0),
        tension_cutoff: 0.0,
    };
    let lower_crust = Material {
        name: "lower crust".into(),
        rho0: 0.85,
        thermal_expansivity: 0.1,
        reference_temperature: 0.5,
        viscous: ViscousLaw::Constant {
            eta: lower_crust_eta,
        },
        plasticity: Some(Plasticity::DruckerPrager(crust_dp.clone())),
        eta_min: 1e-3,
        eta_max: 1e4,
    };
    let upper_crust = Material {
        name: "upper crust".into(),
        rho0: 0.82,
        thermal_expansivity: 0.1,
        reference_temperature: 0.1,
        viscous: ViscousLaw::Constant { eta: 500.0 },
        plasticity: Some(Plasticity::DruckerPrager(crust_dp)),
        eta_min: 1e-3,
        eta_max: 1e4,
    };
    MaterialTable::new(vec![mantle, lower_crust, upper_crust])
}

/// Velocity boundary conditions of the rifting model on a given mesh:
/// symmetric ±x extension, free-slip lateral/basal walls, optional axial
/// shortening at z-max, free surface on top (y-max).
pub fn rift_bc(mesh: &StructuredMesh, v_ext: f64, v_short: f64) -> DirichletBc {
    let mut bc = VelocityBcBuilder::new(mesh)
        .component(0, true, 0, -v_ext)
        .component(0, false, 0, v_ext)
        .free_slip(1, true) // base
        .free_slip(2, true) // back face (damage side)
        .build();
    // Far z face: free slip or prescribed shortening.
    let mesh_bc = if v_short != 0.0 {
        VelocityBcBuilder::new(mesh)
            .component(2, false, 2, -v_short)
            .build()
    } else {
        VelocityBcBuilder::new(mesh).free_slip(2, false).build()
    };
    bc.extend_from(&mesh_bc);
    bc
}

/// The rifting model state, advanced one Stokes/energy/ALE step at a time.
pub struct RiftModel {
    pub cfg: RiftConfig,
    /// Fine mesh (deformed by the ALE free surface over time).
    pub mesh: StructuredMesh,
    pub points: MaterialPoints,
    pub materials: MaterialTable,
    /// Temperature on the corner mesh.
    pub temperature: Vec<f64>,
    pub velocity: Vec<f64>,
    pub pressure: Vec<f64>,
    pub time: f64,
    pub step_index: usize,
    /// dt of the last committed step (0.0 before the first step).
    pub last_dt: f64,
    /// Persistent model generator (damage seeding, population control).
    /// One stream across the whole run so its single-word state can be
    /// checkpointed and restored bitwise.
    rng: StdRng,
    partition: ElementPartition,
    /// Solver setup state carried across Newton iterations *and* time
    /// steps: the ALE remesh moves nodes but never changes the topology,
    /// so only the cache's geometry tier turns over per step. Each
    /// nonlinear solve is one lag scope (`MaterialPointProblem::solve`):
    /// its builds are a pure function of that solve's viscosity history,
    /// and a scope never spans a step, so the cache is not part of a
    /// checkpoint and a restarted run is bitwise the uninterrupted one.
    setup_cache: SetupCache,
}

/// A completed nonlinear Stokes solve that has NOT been committed to the
/// model: the recovery ladder inspects `stats.outcome` and either commits
/// it ([`RiftModel::commit_step`]) or discards it and retries with an
/// escalated configuration — the model state is untouched either way.
pub struct StokesCandidate {
    pub stats: NonlinearStats,
    pub velocity: Vec<f64>,
    pub pressure: Vec<f64>,
    solve_seconds: f64,
}

impl RiftModel {
    pub fn new(cfg: RiftConfig) -> Self {
        let mesh =
            StructuredMesh::new_box(cfg.mx, cfg.my, cfg.mz, [0.0, 6.0], [0.0, 1.0], [0.0, 3.0]);
        assert!(mesh.supports_levels(cfg.levels));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let classify = |x: [f64; 3]| -> u16 {
            if x[1] < 0.8 {
                MANTLE
            } else if x[1] < 0.9 {
                LOWER_CRUST
            } else {
                UPPER_CRUST
            }
        };
        let mut points = seed_regular(&mesh, cfg.points_per_dim, 0.2, &mut rng, classify);
        // Damage zone: random initial plastic strain in a central band on
        // the back face (§V: "a small random material heterogeneity ...
        // central zone along back face").
        for i in 0..points.len() {
            let x = points.x[i];
            if (x[0] - 3.0).abs() < 0.3 && x[2] < 0.8 && x[1] > 0.7 {
                points.plastic_strain[i] = rng.gen_range(0.0..0.6);
            }
        }
        // Initial geotherm: hot base (T=1), cold surface (T=0).
        let temperature: Vec<f64> = (0..mesh.num_corners())
            .map(|c| {
                let y = mesh.coords[mesh.corner_to_node(c)][1];
                1.0 - y
            })
            .collect();
        let nu = num_velocity_dofs(&mesh);
        let np = num_pressure_dofs(&mesh);
        let mut velocity = vec![0.0; nu];
        rift_bc(&mesh, cfg.extension_velocity, cfg.shortening_velocity)
            .apply_to_vector(&mut velocity);
        let partition = ElementPartition::auto(&mesh, 4);
        Self {
            materials: rift_materials(cfg.weak_lower_crust),
            cfg,
            mesh,
            points,
            temperature,
            velocity,
            pressure: vec![0.0; np],
            time: 0.0,
            step_index: 0,
            last_dt: 0.0,
            rng,
            partition,
            setup_cache: SetupCache::new(),
        }
    }

    /// Stable hash of the model configuration; stored in every checkpoint
    /// so a restart under a different configuration is refused instead of
    /// silently producing a different trajectory.
    pub fn config_hash(&self) -> u64 {
        rift_config_hash(&self.cfg)
    }

    /// Snapshot the full model state for checkpoint/restart.
    pub fn to_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            step_index: self.step_index as u64,
            time: self.time,
            dt_last: self.last_dt,
            rng_state: self.rng.state(),
            config_hash: self.config_hash(),
            levels: self.cfg.levels as u32,
            mesh: self.mesh.clone(),
            points: self.points.clone(),
            velocity: self.velocity.clone(),
            pressure: self.pressure.clone(),
            temperature: self.temperature.clone(),
        }
    }

    /// Rebuild a model from a checkpoint taken under the same
    /// configuration. The restored model continues the run bitwise
    /// identically to the uninterrupted one (at a fixed thread count).
    pub fn from_checkpoint(cfg: RiftConfig, ck: Checkpoint) -> Result<Self, CkptError> {
        ck.verify_config(rift_config_hash(&cfg))?;
        let mesh = ck.mesh;
        if mesh.mx != cfg.mx || mesh.my != cfg.my || mesh.mz != cfg.mz {
            return Err(CkptError::Corrupt("checkpoint mesh dims != configuration"));
        }
        if ck.velocity.len() != num_velocity_dofs(&mesh)
            || ck.pressure.len() != num_pressure_dofs(&mesh)
            || ck.temperature.len() != mesh.num_corners()
        {
            return Err(CkptError::Corrupt("field vector sizes do not match mesh"));
        }
        let partition = ElementPartition::auto(&mesh, 4);
        Ok(Self {
            materials: rift_materials(cfg.weak_lower_crust),
            cfg,
            mesh,
            points: ck.points,
            temperature: ck.temperature,
            velocity: ck.velocity,
            pressure: ck.pressure,
            time: ck.time,
            step_index: ck.step_index as usize,
            last_dt: ck.dt_last,
            rng: StdRng::from_state(ck.rng_state),
            partition,
            setup_cache: SetupCache::new(),
        })
    }

    /// Run the nonlinear Stokes solve on the current configuration
    /// WITHOUT committing the result. The model state is unchanged, so a
    /// failed candidate can be discarded and the solve retried with an
    /// escalated configuration (see `crate::recovery`).
    pub fn solve_stokes(&mut self) -> StokesCandidate {
        let t0 = std::time::Instant::now();
        let nonlinear = self.cfg.nonlinear.clone();
        let mut u = self.velocity.clone();
        let mut p = self.pressure.clone();
        let stats = self.stokes_problem().solve(&mut u, &mut p, &nonlinear);
        StokesCandidate {
            stats,
            velocity: u,
            pressure: p,
            solve_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// The nonlinear Stokes problem on the current mesh, points and
    /// temperature, building through the run's setup cache.
    pub(crate) fn stokes_problem(&mut self) -> MaterialPointProblem<'_> {
        MaterialPointProblem::new(
            &self.mesh,
            self.cfg.levels,
            |m| rift_bc(m, self.cfg.extension_velocity, self.cfg.shortening_velocity),
            &self.points,
            &self.materials,
            Some(&self.temperature),
            GRAVITY,
            &self.cfg.gmg,
            &mut self.setup_cache,
        )
    }

    /// Commit an accepted Stokes candidate and advance the rest of the
    /// time step (CFL dt, plastic strain, advection, energy, ALE free
    /// surface, population control).
    pub fn commit_step(&mut self, cand: StokesCandidate) -> RiftStepStats {
        let t0 = std::time::Instant::now();
        let cfg = self.cfg.clone();
        let StokesCandidate {
            stats: nstats,
            velocity,
            pressure,
            solve_seconds,
        } = cand;
        self.velocity = velocity;
        self.pressure = pressure;

        // 2. Time step from the CFL condition.
        let dt = cfl_dt(&self.mesh, &self.velocity, cfg.cfl, cfg.dt_max);

        // 3. Plastic-strain accumulation on yielded points.
        let yielded_points = accumulate_plastic_strain(
            &self.mesh,
            &mut self.points,
            &self.materials,
            &self.velocity,
            &self.pressure,
            Some(&self.temperature),
            dt,
        );

        // 4. Material point advection + subdomain bookkeeping.
        let locator = ElementLocator::new(&self.mesh);
        let owners_before: Vec<u32> = self.points.element.clone();
        let adv = advect_rk2(&self.mesh, &locator, &mut self.points, &self.velocity, dt);
        let mut points_migrated = 0;
        for (i, &e0) in owners_before.iter().enumerate() {
            if i >= self.points.len() {
                break;
            }
            let e1 = self.points.element[i];
            if e0 != u32::MAX
                && e1 != u32::MAX
                && self.partition.subdomain_of_element(e0 as usize)
                    != self.partition.subdomain_of_element(e1 as usize)
            {
                points_migrated += 1;
            }
        }
        let points_lost = cull_lost(&mut self.points);
        let _ = adv;

        // 5. Energy equation (advected by the new velocity).
        let vel_corners = velocity_at_corners(&self.mesh, &self.velocity);
        let mut tbc = DirichletBc::new();
        let (cx, cy, cz) = self.mesh.corner_dims();
        for ck in 0..cz {
            for ci in 0..cx {
                tbc.set(self.mesh.corner_index(ci, 0, ck), 1.0); // hot base
                tbc.set(self.mesh.corner_index(ci, cy - 1, ck), 0.0); // cold top
            }
        }
        let sys = assemble_energy_step(
            &self.mesh,
            &vel_corners,
            &self.temperature,
            dt,
            cfg.kappa,
            None,
            &tbc,
        );
        self.temperature = solve_energy_step(&sys, &self.temperature);

        // 6. ALE free surface: kinematic update + vertical remesh, then
        // relocate every material point against the new geometry.
        let new_top = advected_surface(&self.mesh, &self.velocity, 1, dt);
        self.mesh.remesh_vertical(1, &new_top);
        let locator2 = ElementLocator::new(&self.mesh);
        let _ = relocate_all(&self.mesh, &locator2, &mut self.points);
        let lost2 = cull_lost(&mut self.points);
        // Population control draws from the model's persistent stream so
        // checkpoint/restart resumes the exact sequence (the previous
        // per-step reseed made the stream restorable only by step index;
        // a single stream is one checkpointable word).
        let _ = control_population(
            &self.mesh,
            &mut self.points,
            &PopulationConfig {
                min_per_element: 4,
                max_per_element: 8 * cfg.points_per_dim.pow(3),
                inject_to: cfg.points_per_dim.pow(3).max(4),
            },
            &mut self.rng,
        );

        let max_topography = new_top
            .iter()
            .fold(f64::NEG_INFINITY, |m, &h| m.max(h - 1.0));
        self.time += dt;
        self.step_index += 1;
        self.last_dt = dt;
        RiftStepStats {
            step: self.step_index,
            time: self.time,
            dt,
            newton_iterations: nstats.iterations,
            total_krylov: nstats.total_krylov,
            converged: nstats.converged,
            outcome: nstats.outcome,
            attempts: 1,
            yielded_points,
            points_lost: points_lost + lost2,
            points_migrated,
            wall_seconds: solve_seconds + t0.elapsed().as_secs_f64(),
            max_topography,
            residual_history: nstats.residual_history,
        }
    }

    /// The solver setup cache carried across the run (its lag counts show
    /// how many builds reused a lagged coarse factor or λ bounds).
    pub fn setup_cache(&self) -> &SetupCache {
        &self.setup_cache
    }

    /// Advance one full time step (solve + commit, no recovery); returns
    /// the step diagnostics.
    pub fn step(&mut self) -> RiftStepStats {
        let cand = self.solve_stokes();
        self.commit_step(cand)
    }
}

/// See [`RiftModel::config_hash`]. The `Debug` rendering of the full
/// configuration (including the nonlinear and multigrid sub-configs) is
/// the hashed canonical form: any field change alters it.
fn rift_config_hash(cfg: &RiftConfig) -> u64 {
    fnv1a64(format!("{cfg:?}").as_bytes())
}

/// Scaled gravity of the rift's body force.
const GRAVITY: [f64; 3] = [0.0, -1.0, 0.0];

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::nonlinear::{ETA_MAX, LINEAR_RTOL};
    use ptatin_la::vec_ops;

    pub(crate) fn tiny_cfg() -> RiftConfig {
        RiftConfig {
            mx: 6,
            my: 2,
            mz: 4,
            levels: 2,
            points_per_dim: 2,
            nonlinear: NonlinearConfig {
                max_it: 3,
                linear_max_it: 200,
                ..NonlinearConfig::default()
            },
            gmg: GmgConfig {
                levels: 2,
                ..GmgConfig::default()
            },
            ..RiftConfig::default()
        }
    }

    #[test]
    fn model_initialization_layers_and_damage() {
        let model = RiftModel::new(tiny_cfg());
        let mut seen = [false; 3];
        let mut damaged = 0;
        for i in 0..model.points.len() {
            seen[model.points.lithology[i] as usize] = true;
            if model.points.plastic_strain[i] > 0.0 {
                damaged += 1;
            }
        }
        assert!(seen.iter().all(|&s| s), "all three lithologies present");
        assert!(damaged > 0, "damage zone seeded");
        // Geotherm: base hot, top cold.
        let (cx, _, _) = model.mesh.corner_dims();
        assert!((model.temperature[0] - 1.0).abs() < 1e-12);
        let top_corner = model.mesh.num_corners() - cx;
        let _ = top_corner;
    }

    #[test]
    fn one_step_runs_and_is_sane() {
        let mut model = RiftModel::new(tiny_cfg());
        let n_points_before = model.points.len();
        let stats = model.step();
        assert!(stats.newton_iterations >= 1);
        assert!(stats.total_krylov > 0);
        assert!(stats.dt > 0.0);
        // Extension at ±x must drive outflow: max |u_x| near the walls is
        // close to the imposed extension velocity.
        let mut max_ux = 0.0f64;
        for n in 0..model.mesh.num_nodes() {
            max_ux = max_ux.max(model.velocity[3 * n].abs());
        }
        assert!(
            (max_ux - model.cfg.extension_velocity).abs() < 0.2,
            "wall extension velocity not honoured: {max_ux}"
        );
        // The point swarm survives (population control refills losses).
        assert!(model.points.len() as f64 > 0.5 * n_points_before as f64);
        // Temperature stays bounded.
        for &t in &model.temperature {
            assert!((-0.2..=1.2).contains(&t), "temperature out of range: {t}");
        }
    }

    /// The forcing term adapts: each linearization of a default step is
    /// solved to Eisenstat–Walker choice 2 (γ = 0.9, α = 1.618) of the
    /// recorded residual history, clamped to `[LINEAR_RTOL, ETA_MAX]`. The
    /// choice-2 safeguard cannot fire here: γ·ETA_MAX^α < 0.1.
    #[test]
    fn default_step_forcing_terms_follow_choice_2() {
        let mut model = RiftModel::new(RiftConfig::default());
        let stats = model.solve_stokes().stats;
        let floor = LINEAR_RTOL;
        let h = &stats.residual_history;
        assert!(stats.iterations >= 2, "{h:?}");
        assert_eq!(stats.forcing_terms.len(), stats.iterations);
        for (k, &eta) in stats.forcing_terms.iter().enumerate() {
            let want = if k == 0 {
                ETA_MAX.min(0.1)
            } else {
                (0.9 * (h[k] / h[k - 1]).powf(1.618)).clamp(floor, ETA_MAX)
            };
            assert_eq!(eta, want, "forcing term {k}: {:?}", stats.forcing_terms);
        }
        assert!(
            stats.forcing_terms.iter().any(|&eta| eta > 1e-3),
            "every linearization solved to 1e-3 or tighter: {:?}",
            stats.forcing_terms
        );
    }

    /// Loose forcing terms cost no accuracy the Newton cap has not already
    /// given up. Two steps of the 6×2×4 rift (cap of three Newton
    /// iterations) with default EW, against the same steps with every
    /// linearization solved to 1e-5 (the recovery ladder's EW-off
    /// setting) and against a reference solved to 1e-5 with twelve Newton
    /// iterations. Measured at `ETA_MAX` = 0.05: final ‖F‖ EW / tight
    /// 3.79 / 3.69 and 1.02 / 1.24; relative L2 velocity distance EW to
    /// tight 2.2e-2, EW to reference 3.1e-2, tight to reference 4.5e-2.
    /// At the old 1e-3 cap EW to tight was 8.8e-4, but tight to reference
    /// stays 4.5e-2: the capped Newton solve, not the forcing term, sets
    /// the error.
    #[test]
    fn adaptive_forcing_matches_tight_linear_solves() {
        let run = |eisenstat_walker: bool, max_it: usize| {
            let mut cfg = tiny_cfg();
            cfg.nonlinear.eisenstat_walker = eisenstat_walker;
            cfg.nonlinear.max_it = max_it;
            let mut model = RiftModel::new(cfg);
            let steps: Vec<RiftStepStats> = (0..2).map(|_| model.step()).collect();
            (steps, model.velocity)
        };
        let (ew, u_ew) = run(true, 3);
        let (tight, u_tight) = run(false, 3);
        let (_, u_ref) = run(false, 12);
        for (a, b) in ew.iter().zip(&tight) {
            assert!(a.outcome.is_acceptable(), "{:?}", a.outcome);
            assert!(b.outcome.is_acceptable(), "{:?}", b.outcome);
            let ra = *a.residual_history.last().unwrap();
            let rb = *b.residual_history.last().unwrap();
            assert!(
                ra <= 2.0 * rb && rb <= 2.0 * ra,
                "step {}: ‖F‖ {ra:e} with EW, {rb:e} tight",
                a.step
            );
        }
        let distance = |x: &[f64], y: &[f64]| {
            let mut d = x.to_vec();
            vec_ops::axpy(-1.0, y, &mut d);
            vec_ops::norm2(&d) / vec_ops::norm2(y)
        };
        let ew_tight = distance(&u_ew, &u_tight);
        let ew_ref = distance(&u_ew, &u_ref);
        let tight_ref = distance(&u_tight, &u_ref);
        assert!(
            ew_tight <= tight_ref && ew_ref <= tight_ref,
            "velocity distances: EW–tight {ew_tight:e}, EW–ref {ew_ref:e}, tight–ref {tight_ref:e}"
        );
    }

    #[test]
    fn two_steps_accumulate_time_and_deform_surface() {
        let mut model = RiftModel::new(tiny_cfg());
        let s1 = model.step();
        let s2 = model.step();
        assert!(model.time > 0.0);
        assert_eq!(model.step_index, 2);
        assert!(s2.time > s1.time);
        // Extension thins the domain: surface is free to move; just check
        // the mesh remains valid (positive volumes) by locating a point.
        let locator = ElementLocator::new(&model.mesh);
        assert!(
            ptatin_mpm::locate::locate_point(&model.mesh, &locator, [3.0, 0.5, 1.5], None)
                .is_some()
        );
    }
}
