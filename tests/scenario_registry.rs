//! End-to-end scenario-registry runs at workspace level: the checked-in
//! example spec files under `examples/scenarios/` must parse through the
//! registry grammar and run to convergence with physically sensible
//! diagnostics. This pins the whole chain the CLI `ptatin scenario`
//! subcommand uses: file → `ScenarioProto` → `Scenario` → `run_scenario`.

use ptatin3d::core::{CoarseKind, GmgConfig};
use ptatin3d::ops::OperatorKind;
use ptatin3d::prof;
use ptatin3d::scenarios::{
    builtins, coarse_kind_name, parse_coarse_kind, parse_scenario, parse_scenario_file,
    run_scenario, Scenario,
};
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

/// The coarse solver a spec text selects for the rift scenario.
fn rift_coarse(text: &str) -> CoarseKind {
    match parse_scenario(text).expect("spec parses") {
        Scenario::Rift(cfg) => cfg.gmg.coarse,
        other => panic!("wrong scenario kind: {}", other.kind()),
    }
}

#[test]
fn coarse_solver_names_select_what_they_say_and_round_trip() {
    assert_eq!(rift_coarse("solver.coarse = direct\n"), CoarseKind::Direct);
    assert_eq!(
        rift_coarse("solver.coarse = amg\n"),
        GmgConfig::default().coarse
    );
    assert!(matches!(
        rift_coarse("coarse = amg\n"),
        CoarseKind::Amg { .. }
    ));
    // The rift's §V solver is nameable, and is not the AMG it used to be
    // mistaken for.
    assert_eq!(rift_coarse("coarse = cg_asm\n"), CoarseKind::RIFT_CG_ASM);
    assert!(matches!(
        CoarseKind::RIFT_CG_ASM,
        CoarseKind::InexactCgAsm { .. }
    ));
    // A spec that names none keeps the scenario default; every name
    // printed for a parsed spec parses back to the same solver.
    for text in [
        "",
        "coarse = direct\n",
        "coarse = amg\n",
        "coarse = cg_asm\n",
    ] {
        let coarse = rift_coarse(text);
        let again = parse_coarse_kind(coarse_kind_name(&coarse)).expect("printed name parses");
        assert_eq!(again, coarse, "{text:?}");
        assert_eq!(
            rift_coarse(&format!("coarse = {}\n", coarse_kind_name(&coarse))),
            coarse
        );
    }
    assert_eq!(coarse_kind_name(&rift_coarse("")), "direct");
}

#[test]
fn ambiguous_and_unknown_coarse_solver_names_are_rejected() {
    let e = parse_scenario("scenario = rift\nsolver.coarse = asm\n").unwrap_err();
    assert_eq!(e.line, 2);
    assert!(e.msg.contains("ambiguous coarse solver `asm`"), "{e}");
    assert!(e.msg.contains("`amg`") && e.msg.contains("`cg_asm`"), "{e}");

    let e = parse_scenario("coarse = lu\n").unwrap_err();
    assert_eq!(e.line, 1);
    assert_eq!(e.msg, "unknown coarse solver `lu` (direct|amg|cg_asm)");
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

/// `solver.coarse` and `solver.fine_kind` reach the sinker's solver build
/// instead of parsing and being ignored.
#[test]
fn sinker_spec_honours_its_solver_keys() {
    let text = "scenario = sinker\nm = 4\nlevels = 2\nsolver.coarse = amg\n";
    let spec = parse_scenario(text).expect("spec parses");
    assert!(matches!(
        spec.gmg().map(|g| &g.coarse),
        Some(CoarseKind::Amg { .. })
    ));
    let amg_builds = || prof::snapshot().event("setup/amg").map_or(0, |e| e.calls);
    prof::enable();
    let before = amg_builds();
    let s = run_scenario(&spec, 1);
    assert!(s.converged);
    assert!(
        amg_builds() > before,
        "no AMG build under `solver.coarse = amg`"
    );

    let spec = parse_scenario("scenario = sinker\nm = 4\nlevels = 2\nsolver.fine_kind = tensor\n")
        .expect("spec parses");
    assert_eq!(spec.gmg().map(|g| g.fine_kind), Some(OperatorKind::Tensor));
}
