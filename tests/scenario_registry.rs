//! End-to-end scenario-registry runs at workspace level: the checked-in
//! example spec files under `examples/scenarios/` must parse through the
//! registry grammar and run to convergence with physically sensible
//! diagnostics. This pins the whole chain the CLI `ptatin scenario`
//! subcommand uses: file → `ScenarioProto` → `Scenario` → `run_scenario`.

use ptatin3d::core::CoarseKind;
use ptatin3d::scenarios::{builtins, parse_scenario, parse_scenario_file, run_scenario, Scenario};
use std::path::PathBuf;

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios")
        .join(name)
}

#[test]
fn shear_band_example_localizes_end_to_end() {
    let spec = parse_scenario_file(example("shear_band.scn")).expect("spec parses");
    assert_eq!(spec.scenario.kind(), "shear_band");
    let summary = run_scenario(&spec.scenario, spec.steps);
    assert!(summary.converged, "{summary:?}");
    let yielded = summary.metric("yielded_fraction").expect("metric present");
    let localization = summary.metric("localization").expect("metric present");
    assert!(
        yielded > 0.2,
        "compression must drive widespread yielding (got {yielded})"
    );
    assert!(
        localization > 1.5,
        "the weak seed must localize strain (got {localization})"
    );
}

#[test]
fn falling_block_example_sinks_end_to_end() {
    let spec = parse_scenario_file(example("falling_block.scn")).expect("spec parses");
    assert_eq!(spec.scenario.kind(), "falling_block");
    match &spec.scenario {
        Scenario::FallingBlock(cfg) => {
            assert_eq!(cfg.ambient.viscous.name(), "power_law");
            assert!(cfg.top_free_slip);
        }
        other => panic!("wrong scenario kind: {}", other.kind()),
    }
    let summary = run_scenario(&spec.scenario, spec.steps);
    assert!(summary.converged, "{summary:?}");
    let w = summary
        .metric("block_sink_velocity")
        .expect("metric present");
    assert!(w < 0.0, "the dense block must sink (got {w})");
    let contrast = summary.metric("eta_contrast").expect("metric present");
    assert!(
        contrast > 2.0,
        "shear thinning must produce a viscosity contrast (got {contrast})"
    );
}

#[test]
fn solcx_example_matches_its_golden_resolution() {
    let spec = parse_scenario_file(example("solcx.scn")).expect("spec parses");
    assert_eq!(spec.scenario.kind(), "solcx");
    let summary = run_scenario(&spec.scenario, spec.steps);
    assert!(summary.converged, "{summary:?}");
    let verr = summary.metric("velocity_l2").expect("metric present");
    assert!(
        verr > 0.0 && verr < 1e-1,
        "velocity error out of band: {verr}"
    );
}

#[test]
fn every_builtin_scenario_is_registered_and_labeled() {
    let names: Vec<&str> = builtins().iter().map(|(n, _)| *n).collect();
    for want in [
        "rift_reference",
        "sinker_reference",
        "solcx_iso",
        "solcx_vv1e4",
        "shear_band_reference",
        "falling_block_reference",
    ] {
        assert!(names.contains(&want), "missing builtin {want}: {names:?}");
    }
}

/// A sinker spec that names no solver runs on the sinker's default
/// solver (the spec's levels, a direct coarse solve): the summary holds
/// the bits the fixed `GmgConfig` of earlier builds gave.
#[test]
fn sinker_spec_without_solver_keys_keeps_its_summary_bits() {
    let spec = parse_scenario("scenario = sinker\nm = 4\nlevels = 2\n").expect("spec parses");
    let gmg = spec.gmg().expect("the sinker carries a solver");
    assert_eq!((gmg.levels, &gmg.coarse), (2, &CoarseKind::Direct));
    let s = run_scenario(&spec, 1);
    assert!(s.converged);
    assert_eq!(s.iterations, 37);
    let bits: Vec<(&str, u64)> = s
        .metrics
        .iter()
        .map(|(n, v)| (n.as_str(), v.to_bits()))
        .collect();
    assert_eq!(
        bits,
        [
            ("final_residual", 0x3ebbcc84fbe098f3),
            ("w_min", 0xc0382cd20030f5b7),
            ("w_max", 0x4040abc122719f4b),
        ]
    );
}
