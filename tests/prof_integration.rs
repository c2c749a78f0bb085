//! End-to-end tests of the `ptatin-prof` subsystem against a real (small)
//! Stokes solve: enabling the profiler must not change the numerics, the
//! recorded events must reflect the solver structure, and the JSON report
//! must round-trip through the hand-rolled parser.

use ptatin3d::core::{CoarseKind, GmgConfig, KrylovOperatorChoice};
use ptatin3d::prof;
use ptatin_bench::sinker_setup;
use ptatin_la::krylov::KrylovConfig;
use std::sync::Mutex;

/// The profiler registry is process-global; tests in this binary run in
/// parallel, so each takes this lock (recovering from poisoning) first.
static GATE: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn solve_sinker() -> (usize, bool) {
    let (model, fields) = sinker_setup(4, 2, 1e4);
    let gmg = GmgConfig {
        levels: 2,
        coarse: CoarseKind::Amg { coarse_blocks: 4 },
        ..GmgConfig::default()
    };
    let solver = model.build_solver(&fields, &gmg);
    let rhs = model.rhs(&solver, &fields);
    let mut x = vec![0.0; solver.nu + solver.np];
    let stats = solver.solve(
        &rhs,
        &mut x,
        &KrylovConfig::default().with_rtol(1e-5).with_max_it(600),
        KrylovOperatorChoice::Picard,
        None,
    );
    (stats.iterations, stats.converged)
}

#[test]
fn enabling_the_profiler_changes_no_iteration_counts() {
    let _g = serialize();
    prof::disable();
    prof::reset();
    let (its_off, conv_off) = solve_sinker();
    prof::enable();
    let (its_on, conv_on) = solve_sinker();
    prof::disable();
    assert!(conv_off && conv_on);
    assert_eq!(
        its_off, its_on,
        "profiling must be observation-only: {its_off} vs {its_on} iterations"
    );
}

#[test]
fn a_profiled_solve_records_the_solver_structure() {
    let _g = serialize();
    prof::reset();
    prof::enable();
    let (its, conv) = solve_sinker();
    prof::disable();
    assert!(conv);
    let snap = prof::snapshot();

    // Setup and solve phases both present, each entered exactly once.
    for name in ["StokesSetup", "StokesSolve", "KSPSolve_GCR"] {
        let ev = snap.event(name).unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(ev.calls, 1, "{name}");
        assert!(ev.incl_seconds > 0.0, "{name}");
    }
    // The assembled fine operator ran, with the 2·nnz flop model attached.
    let mm = snap.event("MatMult").expect("MatMult");
    assert!(
        mm.calls as usize > its,
        "one SpMV per GCR iteration at least"
    );
    assert!(mm.flops > 0 && mm.bytes > 0);
    // MG structure hangs off the preconditioner application.
    for name in [
        "PCApply",
        "MGSmooth_L1",
        "MGRestrict",
        "MGProlong",
        "MGCoarseSolve",
    ] {
        assert!(snap.event(name).is_some(), "missing {name}");
    }
    // The V-cycle events nest under PCApply in the call tree.
    let children = snap.children("PCApply");
    assert!(
        children.iter().any(|e| e.child == "MGSmooth_L1"),
        "smoother must be a call-tree child of PCApply, got {children:?}"
    );
    // Exactly one labelled (outer) KSP record: inner coarse CG solves are
    // unlabelled and must not spam the log.
    assert_eq!(snap.ksp.len(), 1, "{:?}", snap.ksp);
    assert_eq!(snap.ksp[0].label, "GCR(Stokes)");
    assert_eq!(snap.ksp[0].iterations, its);
    assert!(snap.ksp[0].converged);
    assert!(snap.ksp[0].final_residual < snap.ksp[0].initial_residual);
}

#[test]
fn json_report_round_trips_through_the_parser() {
    let _g = serialize();
    prof::reset();
    prof::enable();
    let (_its, conv) = solve_sinker();
    prof::disable();
    assert!(conv);

    let dir = std::env::temp_dir().join("ptatin_prof_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("prof_roundtrip.json");
    prof::write_json(&path).expect("write json");
    let text = std::fs::read_to_string(&path).expect("read back");
    let value = prof::json::parse(&text).expect("parse own output");

    // Re-serializing the parsed value must reproduce the file body
    // byte-for-byte (deterministic reports).
    assert_eq!(value.to_json(), text.trim_end());

    // And the parsed document must agree with the live snapshot.
    let snap = prof::snapshot();
    let events = value
        .get("events")
        .and_then(|v| v.as_arr())
        .expect("events");
    assert_eq!(events.len(), snap.events.len());
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("name").and_then(|n| n.as_str()).expect("name"))
        .collect();
    assert!(names.contains(&"StokesSolve"));
    let ksp = value.get("ksp").and_then(|v| v.as_arr()).expect("ksp");
    assert_eq!(ksp.len(), snap.ksp.len());
    assert_eq!(
        ksp[0].get("label").and_then(|l| l.as_str()),
        Some("GCR(Stokes)")
    );
}
