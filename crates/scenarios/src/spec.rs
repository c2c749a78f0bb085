//! Scenario spec files: a line-oriented `key = value` format that builds
//! one fully-specified [`Scenario`] — model kind, domain, boundary
//! conditions, rheology menu and solver defaults — from text:
//!
//! ```text
//! # plastic shear-band localization with a Drucker–Prager background
//! scenario = shear_band
//! mx = 16
//! mz = 8
//! compression_velocity = 1.0
//! bc.top = free_surface
//! material.background.law = constant
//! material.background.eta = 100
//! material.background.plasticity = drucker_prager
//! material.background.cohesion = 20
//! ```
//!
//! The same key set is shared with the ensemble sweep grammar
//! (`ptatin-ensemble` delegates its per-key application to
//! [`ScenarioProto`]), so every scenario knob — including the rheology
//! menu — is sweepable via `ptatin ensemble`. The solver is the model's
//! own: no key chooses the fine operator or the coarse solve.
//!
//! Errors are line-anchored ([`ScenarioError`]); cross-key conflicts
//! (e.g. `bc.top = exact` on a scenario with no analytic boundary data)
//! are detected at [`ScenarioProto::build`] time and anchored to the line
//! of the offending key.

use crate::registry::Scenario;
use ptatin_core::models::falling_block::FallingBlockConfig;
use ptatin_core::models::hierarchy_error;
use ptatin_core::models::rift::RiftConfig;
use ptatin_core::models::shear_band::ShearBandConfig;
use ptatin_core::models::sinker::SinkerConfig;
use ptatin_core::models::solcx::SolCxConfig;
use ptatin_core::GmgConfig;
use ptatin_rheology::{DruckerPrager, Material, Plasticity, ViscousLaw};
use std::fmt;
use std::path::Path;

/// Scenario-file parse error with 1-based line context (0 = file-level).
#[derive(Debug, PartialEq, Eq)]
pub struct ScenarioError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {}", self.msg)
        } else {
            write!(f, "scenario line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Scenario kind selected by the `scenario =` key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Rift,
    Sinker,
    SolCx,
    ShearBand,
    FallingBlock,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Rift => "rift",
            Kind::Sinker => "sinker",
            Kind::SolCx => "solcx",
            Kind::ShearBand => "shear_band",
            Kind::FallingBlock => "falling_block",
        }
    }
}

/// Top-boundary condition requested via `bc.top`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BcTop {
    FreeSlip,
    FreeSurface,
    Exact,
}

impl BcTop {
    fn label(self) -> &'static str {
        match self {
            BcTop::FreeSlip => "free_slip",
            BcTop::FreeSurface => "free_surface",
            BcTop::Exact => "exact",
        }
    }
}

/// Mutable prototype a scenario is built on. All per-kind configs are
/// carried so keys can be applied regardless of where `scenario =`
/// appears; shared keys (mesh size, levels, seed, solver knobs) fan out
/// to every config that has them.
pub struct ScenarioProto {
    kind: Kind,
    rift: RiftConfig,
    sinker: SinkerConfig,
    solcx: SolCxConfig,
    shear_band: ShearBandConfig,
    falling_block: FallingBlockConfig,
    /// Committed-step budget (rift runs); carried here so the ensemble
    /// grammar and scenario files share one key.
    pub steps: usize,
    bc_top: Option<(usize, BcTop)>,
    /// `(line, key)` of every applied key, for anchoring build-time
    /// conflict errors to their source line.
    seen: Vec<(usize, String)>,
}

impl Default for ScenarioProto {
    fn default() -> Self {
        Self {
            kind: Kind::Rift,
            rift: RiftConfig::default(),
            sinker: SinkerConfig::default(),
            solcx: SolCxConfig::default(),
            shear_band: ShearBandConfig::default(),
            falling_block: FallingBlockConfig::default(),
            steps: 1,
            bc_top: None,
            seen: Vec::new(),
        }
    }
}

fn parse_as<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("bad value `{v}` for `{key}`"))
}

fn parse_positive(key: &str, v: &str) -> Result<f64, String> {
    let x: f64 = parse_as(key, v)?;
    if x > 0.0 {
        Ok(x)
    } else {
        Err(format!("bad value `{v}` for `{key}`: must be positive"))
    }
}

impl ScenarioProto {
    /// Line of the most recent occurrence of `key` (0 if never applied).
    fn line_of(&self, key: &str) -> usize {
        self.seen
            .iter()
            .rev()
            .find(|(_, k)| k == key)
            .map_or(0, |(l, _)| *l)
    }

    /// Every GMG config carried by the prototype (rift, sinker, shear
    /// band, falling block share solver knobs).
    fn gmgs(&mut self) -> [&mut GmgConfig; 4] {
        [
            &mut self.rift.gmg,
            &mut self.sinker.gmg,
            &mut self.shear_band.gmg,
            &mut self.falling_block.gmg,
        ]
    }

    /// Apply one `key = value` assignment. `line` is recorded for
    /// build-time error anchoring; the error string carries no line (the
    /// caller owns the anchor — [`parse_scenario`] wraps it into a
    /// [`ScenarioError`], the ensemble sweep parser into its `SpecError`).
    pub fn apply(&mut self, line: usize, key: &str, v: &str) -> Result<(), String> {
        self.seen.push((line, key.to_string()));
        match key {
            "scenario" => {
                self.kind = match v {
                    "rift" => Kind::Rift,
                    "sinker" => Kind::Sinker,
                    "solcx" => Kind::SolCx,
                    "shear_band" => Kind::ShearBand,
                    "falling_block" => Kind::FallingBlock,
                    _ => {
                        return Err(format!(
                            "unknown scenario `{v}` (rift|sinker|solcx|shear_band|falling_block)"
                        ))
                    }
                }
            }
            "steps" => self.steps = parse_as(key, v)?,
            // Mesh extents. `mx/my/mz` drive the anisotropic meshes,
            // `m` the cubic ones.
            "mx" => {
                let m: usize = parse_as(key, v)?;
                self.rift.mx = m;
                self.solcx.mx = m;
                self.shear_band.mx = m;
            }
            "my" => {
                let m: usize = parse_as(key, v)?;
                self.rift.my = m;
                self.solcx.my = m;
                self.shear_band.my = m;
            }
            "mz" => {
                let m: usize = parse_as(key, v)?;
                self.rift.mz = m;
                self.solcx.mz = m;
                self.shear_band.mz = m;
            }
            "m" => {
                let m: usize = parse_as(key, v)?;
                self.sinker.m = m;
                self.falling_block.m = m;
            }
            "levels" => {
                // One knob drives the hierarchy depth everywhere.
                let l: usize = parse_as(key, v)?;
                self.rift.levels = l;
                self.sinker.levels = l;
                self.solcx.levels = l;
                self.shear_band.levels = l;
                self.falling_block.levels = l;
                for g in self.gmgs() {
                    g.levels = l;
                }
            }
            // Rift geometry/physics.
            "extension_velocity" => self.rift.extension_velocity = parse_as(key, v)?,
            "shortening_velocity" => self.rift.shortening_velocity = parse_as(key, v)?,
            "weak_lower_crust" => self.rift.weak_lower_crust = parse_as(key, v)?,
            "kappa" => self.rift.kappa = parse_as(key, v)?,
            "cfl" => self.rift.cfl = parse_as(key, v)?,
            "dt_max" => self.rift.dt_max = parse_as(key, v)?,
            "points_per_dim" => {
                let p: usize = parse_as(key, v)?;
                self.rift.points_per_dim = p;
                self.sinker.points_per_dim = p;
                self.shear_band.points_per_dim = p;
                self.falling_block.points_per_dim = p;
            }
            "seed" => {
                let s: u64 = parse_as(key, v)?;
                self.rift.seed = s;
                self.sinker.seed = s;
                self.shear_band.seed = s;
                self.falling_block.seed = s;
            }
            // Nonlinear-solver knobs (SolCx is a linear solve: `max_it`
            // caps its Krylov iteration instead).
            "max_it" => {
                let n: usize = parse_as(key, v)?;
                self.rift.nonlinear.max_it = n;
                self.shear_band.nonlinear.max_it = n;
                self.falling_block.nonlinear.max_it = n;
                self.solcx.max_it = n;
            }
            "linear_max_it" => {
                let n: usize = parse_as(key, v)?;
                self.rift.nonlinear.linear_max_it = n;
                self.shear_band.nonlinear.linear_max_it = n;
                self.falling_block.nonlinear.linear_max_it = n;
            }
            "abs_tol" => {
                let t: f64 = parse_as(key, v)?;
                self.rift.nonlinear.abs_tol = t;
                self.shear_band.nonlinear.abs_tol = t;
                self.falling_block.nonlinear.abs_tol = t;
            }
            "rel_tol" => {
                let t: f64 = parse_as(key, v)?;
                self.rift.nonlinear.rel_tol = t;
                self.shear_band.nonlinear.rel_tol = t;
                self.falling_block.nonlinear.rel_tol = t;
            }
            // Every model factors its coarse grid exactly; the bare key
            // is still read by sweep files that name that solve.
            "coarse" if v == "direct" => {}
            "coarse" => return Err(format!("unknown coarse solve `{v}` (direct)")),
            "rtol" | "solver.rtol" => self.solcx.rtol = parse_positive(key, v)?,
            // Sinker-specific.
            "n_spheres" => self.sinker.n_spheres = parse_as(key, v)?,
            "radius" => self.sinker.radius = parse_positive(key, v)?,
            "delta_eta" => self.sinker.delta_eta = parse_positive(key, v)?,
            // SolCx-specific.
            "eta_left" => self.solcx.eta_left = parse_positive(key, v)?,
            "eta_right" => self.solcx.eta_right = parse_positive(key, v)?,
            // Shear-band-specific.
            "compression_velocity" => self.shear_band.compression_velocity = parse_as(key, v)?,
            "inclusion_radius" => self.shear_band.inclusion_radius = parse_positive(key, v)?,
            // Falling-block-specific.
            "block_half_width" => {
                let w = parse_positive(key, v)?;
                if w >= 0.5 {
                    return Err(format!(
                        "bad value `{v}` for `{key}`: the block must fit inside the unit cube"
                    ));
                }
                self.falling_block.block_half_width = w;
            }
            "bc.top" => {
                let bc = match v {
                    "free_slip" => BcTop::FreeSlip,
                    "free_surface" => BcTop::FreeSurface,
                    "exact" => BcTop::Exact,
                    _ => {
                        return Err(format!(
                            "unknown boundary condition `{v}` for `bc.top` \
                             (free_slip|free_surface|exact)"
                        ))
                    }
                };
                self.bc_top = Some((line, bc));
            }
            _ => {
                if let Some(rest) = key.strip_prefix("material.") {
                    return self.apply_material(rest, key, v);
                }
                return Err(format!("unknown key `{key}`"));
            }
        }
        Ok(())
    }

    /// Apply a `material.<role>.<param>` key. `rest` is the part after
    /// the `material.` prefix; `key` is the full key for error messages.
    fn apply_material(&mut self, rest: &str, key: &str, v: &str) -> Result<(), String> {
        let Some((role, param)) = rest.split_once('.') else {
            return Err(format!(
                "bad material key `{key}`: expected `material.<role>.<param>`"
            ));
        };
        let mat: &mut Material = match role {
            "background" => &mut self.shear_band.background,
            "inclusion" => &mut self.shear_band.inclusion,
            "ambient" => &mut self.falling_block.ambient,
            "block" => &mut self.falling_block.block,
            _ => {
                return Err(format!(
                    "unknown material role `{role}` (background|inclusion|ambient|block)"
                ))
            }
        };
        apply_material_param(mat, param, key, v)
    }

    /// Finish: pick the selected config, run cross-key validation, and
    /// return the scenario. `Err` carries `(line, msg)` anchored to the
    /// key that caused the conflict.
    pub fn build(self) -> Result<Scenario, (usize, String)> {
        // bc.top validity is per-scenario: SolCx prescribes analytic
        // Dirichlet data on every face; rift and sinker fix their own
        // boundary conditions; the driven workloads expose the top wall.
        let mut top_free_slip = false;
        if let Some((line, bc)) = self.bc_top {
            match (self.kind, bc) {
                (Kind::SolCx, BcTop::Exact) => {}
                (Kind::SolCx, other) => {
                    return Err((
                        line,
                        format!(
                            "bc.top = {} conflicts with scenario solcx: the analytic solution \
                             prescribes exact Dirichlet data on every face",
                            other.label()
                        ),
                    ))
                }
                (Kind::ShearBand | Kind::FallingBlock, BcTop::FreeSlip) => top_free_slip = true,
                (Kind::ShearBand | Kind::FallingBlock, BcTop::FreeSurface) => {}
                (Kind::ShearBand | Kind::FallingBlock, BcTop::Exact) => {
                    return Err((
                        line,
                        format!(
                            "bc.top = exact conflicts with scenario {}: no analytic boundary \
                             data exists for this workload",
                            self.kind.label()
                        ),
                    ))
                }
                (Kind::Rift | Kind::Sinker, bc) => {
                    return Err((
                        line,
                        format!(
                            "bc.top = {} conflicts with scenario {}: its boundary conditions \
                             are fixed by the model",
                            bc.label(),
                            self.kind.label()
                        ),
                    ))
                }
            }
        }
        let (axes, levels) = match self.kind {
            Kind::Rift => {
                let c = &self.rift;
                ([("mx", c.mx), ("my", c.my), ("mz", c.mz)], c.levels)
            }
            Kind::Sinker => {
                let c = &self.sinker;
                // The model places its spheres by seeded rejection: run the
                // same draws here so a spec they cannot satisfy fails to
                // parse instead of panicking in the run.
                if let Err(msg) = c.spheres() {
                    let line = ["n_spheres", "radius", "seed"]
                        .iter()
                        .map(|k| self.line_of(k))
                        .max()
                        .unwrap_or(0);
                    return Err((line, msg));
                }
                ([("m", c.m); 3], c.levels)
            }
            Kind::SolCx => {
                let c = &self.solcx;
                if c.mx % 2 != 0 {
                    return Err((
                        self.line_of("mx"),
                        format!(
                            "mx = {} must be even so the SolCx interface x = ½ is mesh-aligned",
                            c.mx
                        ),
                    ));
                }
                ([("mx", c.mx), ("my", c.my), ("mz", c.mz)], c.levels)
            }
            Kind::ShearBand => {
                let c = &self.shear_band;
                ([("mx", c.mx), ("my", c.my), ("mz", c.mz)], c.levels)
            }
            Kind::FallingBlock => ([("m", self.falling_block.m); 3], self.falling_block.levels),
        };
        if let Some((key, msg)) = hierarchy_error(axes, levels) {
            // A default extent that cannot coarsen is at odds with the
            // `levels` line.
            let line = match self.line_of(key) {
                0 => self.line_of("levels"),
                l => l,
            };
            return Err((line, msg));
        }
        match self.kind {
            Kind::Rift => Ok(Scenario::Rift(self.rift)),
            Kind::Sinker => Ok(Scenario::Sinker(self.sinker)),
            Kind::SolCx => Ok(Scenario::SolCx(self.solcx)),
            Kind::ShearBand => {
                let mut c = self.shear_band;
                c.top_free_slip = top_free_slip;
                Ok(Scenario::ShearBand(c))
            }
            Kind::FallingBlock => {
                let mut c = self.falling_block;
                c.top_free_slip = top_free_slip;
                Ok(Scenario::FallingBlock(c))
            }
        }
    }
}

/// Apply one rheology-menu parameter to a material. Law-specific keys
/// (`eta`, `prefactor`, `theta`, …) require the matching `law =` to have
/// been selected first — a cross-key conflict reported in place.
fn apply_material_param(mat: &mut Material, param: &str, key: &str, v: &str) -> Result<(), String> {
    fn law_name(l: &ViscousLaw) -> &'static str {
        l.name()
    }
    match param {
        "law" => {
            mat.viscous = match v {
                "constant" => ViscousLaw::Constant { eta: 1.0 },
                "power_law" => ViscousLaw::PowerLaw {
                    prefactor: 1.0,
                    stress_exponent: 3.0,
                },
                "arrhenius" => ViscousLaw::Arrhenius {
                    prefactor: 1.0,
                    stress_exponent: 3.0,
                    activation: 10.0,
                    activation_volume: 0.0,
                },
                "frank_kamenetskii" => ViscousLaw::FrankKamenetskii {
                    eta0: 1.0,
                    theta: 10.0,
                },
                _ => {
                    return Err(format!(
                        "unknown law `{v}` (constant|power_law|arrhenius|frank_kamenetskii)"
                    ))
                }
            }
        }
        "eta" => match &mut mat.viscous {
            ViscousLaw::Constant { eta } => *eta = parse_positive(key, v)?,
            other => {
                return Err(format!(
                    "key `{key}` applies to law = constant (current law is {})",
                    law_name(other)
                ))
            }
        },
        "prefactor" => match &mut mat.viscous {
            ViscousLaw::PowerLaw { prefactor, .. } | ViscousLaw::Arrhenius { prefactor, .. } => {
                *prefactor = parse_positive(key, v)?
            }
            other => {
                return Err(format!(
                    "key `{key}` applies to law = power_law|arrhenius (current law is {})",
                    law_name(other)
                ))
            }
        },
        "stress_exponent" => match &mut mat.viscous {
            ViscousLaw::PowerLaw {
                stress_exponent, ..
            }
            | ViscousLaw::Arrhenius {
                stress_exponent, ..
            } => {
                let n = parse_positive(key, v)?;
                if n < 1.0 {
                    return Err(format!(
                        "bad value `{v}` for `{key}`: the stress exponent must be >= 1"
                    ));
                }
                *stress_exponent = n;
            }
            other => {
                return Err(format!(
                    "key `{key}` applies to law = power_law|arrhenius (current law is {})",
                    law_name(other)
                ))
            }
        },
        "activation" | "activation_volume" => match &mut mat.viscous {
            ViscousLaw::Arrhenius {
                activation,
                activation_volume,
                ..
            } => {
                let x: f64 = parse_as(key, v)?;
                if param == "activation" {
                    *activation = x;
                } else {
                    *activation_volume = x;
                }
            }
            other => {
                return Err(format!(
                    "key `{key}` applies to law = arrhenius (current law is {})",
                    law_name(other)
                ))
            }
        },
        "eta0" | "theta" => match &mut mat.viscous {
            ViscousLaw::FrankKamenetskii { eta0, theta } => {
                if param == "eta0" {
                    *eta0 = parse_positive(key, v)?;
                } else {
                    *theta = parse_as(key, v)?;
                }
            }
            other => {
                return Err(format!(
                    "key `{key}` applies to law = frank_kamenetskii (current law is {})",
                    law_name(other)
                ))
            }
        },
        "plasticity" => {
            mat.plasticity = match v {
                "none" => None,
                "von_mises" => Some(Plasticity::VonMises { yield_stress: 1.0 }),
                // Rift-crust reference parameters as the starting point.
                "drucker_prager" => Some(Plasticity::DruckerPrager(DruckerPrager {
                    cohesion: 1.0,
                    friction_angle: std::f64::consts::FRAC_PI_6,
                    cohesion_softened: 0.2,
                    friction_softened: 0.0873,
                    softening_strain: (0.05, 1.0),
                    tension_cutoff: 0.0,
                })),
                _ => {
                    return Err(format!(
                        "unknown plasticity `{v}` (none|von_mises|drucker_prager)"
                    ))
                }
            }
        }
        "yield_stress" => match &mut mat.plasticity {
            Some(Plasticity::VonMises { yield_stress }) => *yield_stress = parse_positive(key, v)?,
            _ => {
                return Err(format!(
                    "key `{key}` applies to plasticity = von_mises (set it first)"
                ))
            }
        },
        "cohesion" | "friction_angle" | "cohesion_softened" | "friction_softened"
        | "tension_cutoff" => match &mut mat.plasticity {
            Some(Plasticity::DruckerPrager(dp)) => {
                let x: f64 = parse_as(key, v)?;
                match param {
                    "cohesion" => dp.cohesion = x,
                    "friction_angle" => dp.friction_angle = x,
                    "cohesion_softened" => dp.cohesion_softened = x,
                    "friction_softened" => dp.friction_softened = x,
                    _ => dp.tension_cutoff = x,
                }
            }
            _ => {
                return Err(format!(
                    "key `{key}` applies to plasticity = drucker_prager (set it first)"
                ))
            }
        },
        "rho0" => mat.rho0 = parse_positive(key, v)?,
        "thermal_expansivity" => mat.thermal_expansivity = parse_as(key, v)?,
        "reference_temperature" => mat.reference_temperature = parse_as(key, v)?,
        "eta_min" => mat.eta_min = parse_positive(key, v)?,
        "eta_max" => mat.eta_max = parse_positive(key, v)?,
        _ => return Err(format!("unknown key `{key}`")),
    }
    Ok(())
}

/// A fully parsed scenario spec: the scenario plus the run directives
/// that live beside it in the file (currently the step budget).
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    pub scenario: Scenario,
    /// Committed-step budget for time-dependent scenarios (`steps = N`,
    /// default 1); ignored by the steady solves.
    pub steps: usize,
}

/// Parse a scenario file's text into a [`Scenario`]. The grammar is the
/// sweep grammar minus `sweep` axes: `#` comments, blank lines, and
/// `key = value` assignments applied in file order.
pub fn parse_scenario(text: &str) -> Result<Scenario, ScenarioError> {
    parse_scenario_spec(text).map(|s| s.scenario)
}

/// Parse a scenario file's text into a [`ScenarioSpec`] (scenario plus
/// step budget).
pub fn parse_scenario_spec(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    let mut proto = ScenarioProto::default();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("sweep ") {
            return Err(ScenarioError {
                line: lineno,
                msg: "sweep axes are not allowed in a scenario file (use `ptatin ensemble`)"
                    .to_string(),
            });
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ScenarioError {
                line: lineno,
                msg: format!("expected `key = value`, got `{line}`"),
            });
        };
        let (key, value) = (key.trim(), value.trim());
        if key.is_empty() || value.is_empty() {
            return Err(ScenarioError {
                line: lineno,
                msg: "empty key or value".to_string(),
            });
        }
        proto
            .apply(lineno, key, value)
            .map_err(|msg| ScenarioError { line: lineno, msg })?;
    }
    let steps = proto.steps;
    let scenario = proto
        .build()
        .map_err(|(line, msg)| ScenarioError { line, msg })?;
    Ok(ScenarioSpec { scenario, steps })
}

/// Parse a scenario file from disk.
pub fn parse_scenario_file(path: impl AsRef<Path>) -> Result<ScenarioSpec, ScenarioError> {
    let text = std::fs::read_to_string(path.as_ref()).map_err(|e| ScenarioError {
        line: 0,
        msg: format!("cannot read {}: {e}", path.as_ref().display()),
    })?;
    parse_scenario_spec(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_err(text: &str) -> ScenarioError {
        parse_scenario(text).unwrap_err()
    }

    #[test]
    fn parses_a_full_shear_band_spec() {
        let text = "\
# plastic localization case
scenario = shear_band
mx = 8
my = 2
mz = 4
levels = 2
compression_velocity = 0.5
inclusion_radius = 0.1
bc.top = free_slip
material.background.law = constant
material.background.eta = 50
material.background.plasticity = von_mises
material.background.yield_stress = 30
material.inclusion.eta = 0.5
";
        match parse_scenario(text).unwrap() {
            Scenario::ShearBand(c) => {
                assert_eq!((c.mx, c.my, c.mz, c.levels), (8, 2, 4, 2));
                assert!((c.compression_velocity - 0.5).abs() < 1e-15);
                assert!(c.top_free_slip);
                match c.background.viscous {
                    ViscousLaw::Constant { eta } => assert_eq!(eta, 50.0),
                    ref other => panic!("{other:?}"),
                }
                match c.background.plasticity {
                    Some(Plasticity::VonMises { yield_stress }) => {
                        assert_eq!(yield_stress, 30.0)
                    }
                    ref other => panic!("{other:?}"),
                }
                match c.inclusion.viscous {
                    ViscousLaw::Constant { eta } => assert_eq!(eta, 0.5),
                    ref other => panic!("{other:?}"),
                }
            }
            other => panic!("wrong kind {}", other.kind()),
        }
    }

    #[test]
    fn parses_solcx_and_falling_block_with_rheology_menu() {
        match parse_scenario("scenario = solcx\nmx = 8\nmz = 8\neta_right = 1e4\n").unwrap() {
            Scenario::SolCx(c) => {
                assert_eq!(c.mx, 8);
                assert_eq!(c.eta_right, 1e4);
            }
            other => panic!("wrong kind {}", other.kind()),
        }
        let text = "\
scenario = falling_block
m = 8
material.ambient.law = arrhenius
material.ambient.activation = 12.5
material.ambient.activation_volume = 0.1
material.block.law = frank_kamenetskii
material.block.theta = 4.0
";
        match parse_scenario(text).unwrap() {
            Scenario::FallingBlock(c) => {
                match c.ambient.viscous {
                    ViscousLaw::Arrhenius {
                        activation,
                        activation_volume,
                        ..
                    } => {
                        assert_eq!(activation, 12.5);
                        assert_eq!(activation_volume, 0.1);
                    }
                    ref other => panic!("{other:?}"),
                }
                match c.block.viscous {
                    ViscousLaw::FrankKamenetskii { theta, .. } => assert_eq!(theta, 4.0),
                    ref other => panic!("{other:?}"),
                }
            }
            other => panic!("wrong kind {}", other.kind()),
        }
    }

    #[test]
    fn unknown_keys_are_line_anchored() {
        let e = parse_err("scenario = sinker\nbogus_key = 3\n");
        assert_eq!(e.line, 2);
        assert_eq!(e.msg, "unknown key `bogus_key`");
        assert_eq!(e.to_string(), "scenario line 2: unknown key `bogus_key`");

        // The solver-choice keys are retired: the spec runs the model's own
        // solver, and a file that still names one is refused at its line.
        for (text, key) in [
            ("solver.coarse = direct", "solver.coarse"),
            ("fine_kind = tensor", "fine_kind"),
            ("solver.fine_kind = tensor_batched", "solver.fine_kind"),
        ] {
            let e = parse_err(&format!("scenario = sinker\nm = 4\n{text}\n"));
            assert_eq!(e.line, 3, "{text}");
            assert_eq!(e.msg, format!("unknown key `{key}`"));
        }
        // The bare `coarse` key names only the one coarse solve.
        let e = parse_err("scenario = rift\ncoarse = amg\n");
        assert_eq!(e.line, 2);
        assert_eq!(e.msg, "unknown coarse solve `amg` (direct)");
        assert!(parse_scenario("coarse = direct\n").is_ok());

        let e = parse_err("material.background.frobnicate = 1\n");
        assert_eq!(e.line, 1);
        assert_eq!(e.msg, "unknown key `material.background.frobnicate`");

        let e = parse_err("material.crust.eta = 1\n");
        assert_eq!(e.line, 1);
        assert_eq!(
            e.msg,
            "unknown material role `crust` (background|inclusion|ambient|block)"
        );
    }

    #[test]
    fn out_of_range_values_are_line_anchored() {
        let e = parse_err("scenario = solcx\neta_right = -2\n");
        assert_eq!(e.line, 2);
        assert_eq!(e.msg, "bad value `-2` for `eta_right`: must be positive");

        let e = parse_err("scenario = shear_band\nmx = nope\n");
        assert_eq!(e.line, 2);
        assert_eq!(e.msg, "bad value `nope` for `mx`");

        let e =
            parse_err("material.ambient.law = power_law\nmaterial.ambient.stress_exponent = 0.5\n");
        assert_eq!(e.line, 2);
        assert_eq!(
            e.msg,
            "bad value `0.5` for `material.ambient.stress_exponent`: \
             the stress exponent must be >= 1"
        );

        // Cross-key: the SolCx interface must be mesh-aligned. The error
        // anchors to the mx line even though the conflict is detected at
        // build time.
        let e = parse_err("scenario = solcx\nmy = 2\nmx = 5\n");
        assert_eq!(e.line, 3);
        assert_eq!(
            e.msg,
            "mx = 5 must be even so the SolCx interface x = ½ is mesh-aligned"
        );

        let e = parse_err("scenario = solcx\nlevels = 3\nmx = 8\nmy = 4\nmz = 6\n");
        assert_eq!(e.line, 5);
        assert!(e.msg.contains("mz = 6 is not divisible"), "{e}");

        // Every kind: a mesh that cannot coarsen, or no smoothed level, is
        // refused at the key that sets it instead of panicking in the run.
        let e = parse_err("scenario = sinker\nm = 6\nlevels = 3\n");
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("m = 6 is not divisible"), "{e}");

        let e = parse_err("scenario = rift\nmy = 3\n");
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("my = 3 is not divisible"), "{e}");

        let e = parse_err("scenario = shear_band\nlevels = 1\n");
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("levels = 1 must be at least 2"), "{e}");

        let e = parse_err("scenario = falling_block\nm = 0\n");
        assert_eq!(e.line, 2);
        assert_eq!(e.msg, "m = 0 must be positive");
    }

    #[test]
    fn conflicting_bc_specs_are_line_anchored() {
        // SolCx: analytic Dirichlet data everywhere; a free surface
        // contradicts the exact solution.
        let e = parse_err("scenario = solcx\nmx = 4\nbc.top = free_surface\n");
        assert_eq!(e.line, 3);
        assert_eq!(
            e.msg,
            "bc.top = free_surface conflicts with scenario solcx: the analytic solution \
             prescribes exact Dirichlet data on every face"
        );
        // `bc.top = exact` on solcx is redundant but consistent.
        assert!(parse_scenario("scenario = solcx\nbc.top = exact\n").is_ok());

        // Conflict is detected regardless of key order.
        let e = parse_err("bc.top = exact\nscenario = shear_band\n");
        assert_eq!(e.line, 1);
        assert_eq!(
            e.msg,
            "bc.top = exact conflicts with scenario shear_band: no analytic boundary \
             data exists for this workload"
        );

        let e = parse_err("scenario = rift\nbc.top = free_slip\n");
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("fixed by the model"), "{e}");

        let e = parse_err("scenario = shear_band\nbc.top = sticky\n");
        assert_eq!(e.line, 2);
        assert_eq!(
            e.msg,
            "unknown boundary condition `sticky` for `bc.top` \
             (free_slip|free_surface|exact)"
        );
    }

    #[test]
    fn law_specific_keys_require_their_law() {
        let e = parse_err("material.background.theta = 2\n");
        assert_eq!(e.line, 1);
        assert_eq!(
            e.msg,
            "key `material.background.theta` applies to law = frank_kamenetskii \
             (current law is constant)"
        );

        let e = parse_err("material.inclusion.yield_stress = 2\n");
        assert_eq!(e.line, 1);
        assert_eq!(
            e.msg,
            "key `material.inclusion.yield_stress` applies to plasticity = von_mises \
             (set it first)"
        );

        let e = parse_err("material.background.law = jelly\n");
        assert_eq!(
            e.msg,
            "unknown law `jelly` (constant|power_law|arrhenius|frank_kamenetskii)"
        );
    }

    #[test]
    fn sweep_lines_and_malformed_lines_are_rejected() {
        let e = parse_err("sweep seed = 1, 2\n");
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("not allowed in a scenario file"), "{e}");

        let e = parse_err("mx 6\n");
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("expected `key = value`"), "{e}");

        let e = parse_err("mx =\n");
        assert_eq!(e.line, 1);
        assert_eq!(e.msg, "empty key or value");
    }
}
