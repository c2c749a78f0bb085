//! The scenario registry: every workload the code knows how to run, as
//! one enum over the per-model configuration structs, plus a set of named
//! builtin instances (reference configurations used by tests, the CLI and
//! the docs).

use ptatin_core::models::falling_block::FallingBlockConfig;
use ptatin_core::models::rift::RiftConfig;
use ptatin_core::models::shear_band::ShearBandConfig;
use ptatin_core::models::sinker::SinkerConfig;
use ptatin_core::models::solcx::SolCxConfig;
use ptatin_core::GmgConfig;

/// One fully-specified workload.
#[derive(Clone, Debug)]
pub enum Scenario {
    /// Time-dependent continental rifting run (preemptible: the step loop
    /// yields at committed-step boundaries).
    Rift(RiftConfig),
    /// Single steady Stokes solve of the sinker robustness problem (not
    /// preemptible: one solve, one slice).
    Sinker(SinkerConfig),
    /// SolCx-style analytic verification solve: sharp viscosity jump at
    /// x = ½ with an exact solution evaluated in-repo.
    SolCx(SolCxConfig),
    /// Plastic shear-band localization under driven compression.
    ShearBand(ShearBandConfig),
    /// Dense block sinking through a nonlinear (power-law) ambient fluid.
    FallingBlock(FallingBlockConfig),
}

impl Scenario {
    /// Stable kind label — the value of the `scenario =` spec key.
    pub fn kind(&self) -> &'static str {
        match self {
            Scenario::Rift(_) => "rift",
            Scenario::Sinker(_) => "sinker",
            Scenario::SolCx(_) => "solcx",
            Scenario::ShearBand(_) => "shear_band",
            Scenario::FallingBlock(_) => "falling_block",
        }
    }

    /// The velocity-multigrid configuration of the scenarios that carry
    /// one (the sinker and SolCx models fix theirs).
    pub fn gmg(&self) -> Option<&GmgConfig> {
        match self {
            Scenario::Rift(c) => Some(&c.gmg),
            Scenario::Sinker(c) => Some(&c.gmg),
            Scenario::ShearBand(c) => Some(&c.gmg),
            Scenario::FallingBlock(c) => Some(&c.gmg),
            Scenario::SolCx(_) => None,
        }
    }

    /// Look up a named builtin reference configuration.
    pub fn builtin(name: &str) -> Option<Scenario> {
        builtins()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }
}

/// All named builtin scenarios with their reference configurations.
pub fn builtins() -> Vec<(&'static str, Scenario)> {
    let solcx_iso = SolCxConfig {
        eta_left: 1.0,
        eta_right: 1.0,
        ..SolCxConfig::default()
    };
    vec![
        ("rift_reference", Scenario::Rift(RiftConfig::default())),
        (
            "sinker_reference",
            Scenario::Sinker(SinkerConfig::default()),
        ),
        // Isoviscous control and the 10⁴ viscosity-jump verification case.
        ("solcx_iso", Scenario::SolCx(solcx_iso)),
        ("solcx_vv1e4", Scenario::SolCx(SolCxConfig::default())),
        (
            "shear_band_reference",
            Scenario::ShearBand(ShearBandConfig::default()),
        ),
        (
            "falling_block_reference",
            Scenario::FallingBlock(FallingBlockConfig::default()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_have_unique_names_and_matching_kinds() {
        let all = builtins();
        for (i, (name, sc)) in all.iter().enumerate() {
            assert!(
                all.iter().skip(i + 1).all(|(n, _)| n != name),
                "duplicate builtin `{name}`"
            );
            // Builtin names start with their scenario kind.
            assert!(name.starts_with(sc.kind()), "{name} vs {}", sc.kind());
        }
    }

    #[test]
    fn builtin_lookup() {
        assert!(Scenario::builtin("solcx_vv1e4").is_some());
        assert!(Scenario::builtin("nope").is_none());
        match Scenario::builtin("solcx_iso") {
            Some(Scenario::SolCx(c)) => assert_eq!(c.eta_right, 1.0),
            other => panic!("{other:?}"),
        }
    }
}
