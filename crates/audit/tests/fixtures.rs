//! End-to-end tests over the fixture corpus: one mini-workspace per
//! violation class, exercised through both the library API (exact finding
//! counts and `file:line` anchors) and the compiled binary (exit codes,
//! `--fix-inventory` idempotency, `--check` schema gating).

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scan(name: &str) -> ptatin_audit::Report {
    ptatin_audit::scan_workspace(&fixture(name)).expect("fixture scans")
}

/// `(rule_id, file, line)` triples, the shape every assertion pins.
fn anchors(rep: &ptatin_audit::Report) -> Vec<(String, String, u32)> {
    rep.findings
        .iter()
        .map(|f| (f.rule.id().to_string(), f.file.clone(), f.line))
        .collect()
}

fn audit_bin(root: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ptatin-audit"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("audit binary runs")
}

#[test]
fn clean_fixture_passes_and_inventories_unsafe() {
    let rep = scan("clean");
    assert_eq!(anchors(&rep), Vec::<(String, String, u32)>::new());
    // Both unsafe sites (fn + inner block) are inventoried with their
    // SAFETY text attached.
    assert_eq!(rep.unsafe_sites.len(), 2);
    assert_eq!(rep.unsafe_sites[0].file, "crates/la/src/lib.rs");
    assert_eq!(rep.unsafe_sites[0].line, 5);
    assert_eq!(rep.unsafe_sites[0].kind, "fn");
    assert!(rep.unsafe_sites[0].justification.contains("valid for"));
    assert_eq!(rep.unsafe_sites[1].line, 8);
    assert_eq!(rep.unsafe_sites[1].kind, "block");
    assert!(audit_bin(&fixture("clean"), &["--quiet"]).status.success());
}

#[test]
fn missing_safety_is_one_unsafe_audit_finding() {
    let rep = scan("missing-safety");
    assert_eq!(
        anchors(&rep),
        vec![(
            "unsafe-audit".to_string(),
            "crates/la/src/lib.rs".to_string(),
            4
        )]
    );
    // The site still enters the inventory, with an empty justification.
    assert_eq!(rep.unsafe_sites.len(), 1);
    assert!(rep.unsafe_sites[0].justification.is_empty());
    let out = audit_bin(&fixture("missing-safety"), &["--quiet"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn documented_unsafe_outside_la_ops_is_confinement_finding() {
    let rep = scan("unsafe-outside");
    assert_eq!(
        anchors(&rep),
        vec![(
            "unsafe-confined".to_string(),
            "crates/mesh/src/lib.rs".to_string(),
            5
        )]
    );
    assert_eq!(
        audit_bin(&fixture("unsafe-outside"), &["--quiet"])
            .status
            .code(),
        Some(1)
    );
}

#[test]
fn determinism_fixture_flags_all_four_patterns() {
    let rep = scan("determinism");
    let file = "crates/mg/src/lib.rs".to_string();
    assert_eq!(
        anchors(&rep),
        vec![
            ("determinism".to_string(), file.clone(), 4), // Instant
            ("determinism".to_string(), file.clone(), 5), // HashMap
            ("determinism".to_string(), file.clone(), 7), // bare .sum()
            ("determinism".to_string(), file, 16),        // += in par loop
        ]
    );
    assert_eq!(
        audit_bin(&fixture("determinism"), &["--quiet"])
            .status
            .code(),
        Some(1)
    );
}

#[test]
fn hot_alloc_fixture_flags_both_allocations() {
    let rep = scan("hot-alloc");
    let file = "crates/ops/src/lib.rs".to_string();
    assert_eq!(
        anchors(&rep),
        vec![
            ("prof-scope".to_string(), file.clone(), 6), // v2: apply() untimed
            ("hot-alloc".to_string(), file.clone(), 7),  // vec!
            ("hot-alloc".to_string(), file, 8),          // .to_vec()
        ]
    );
    assert_eq!(
        audit_bin(&fixture("hot-alloc"), &["--quiet"]).status.code(),
        Some(1)
    );
}

/// GCR and Chebyshev call `vec_ops` through `use crate::vec_ops as v`:
/// the alias must resolve, or an allocation behind `v::` is invisible.
#[test]
fn use_alias_fixture_sees_the_allocation_behind_the_alias() {
    let rep = scan("use-alias");
    assert_eq!(
        anchors(&rep),
        vec![(
            "hot-alloc".to_string(),
            "crates/la/src/vec_ops.rs".to_string(),
            4
        )]
    );
    assert!(rep.findings[0].msg.contains("apply_cycle -> axpy"));
    assert_eq!(
        audit_bin(&fixture("use-alias"), &["--quiet"]).status.code(),
        Some(1)
    );
}

#[test]
fn panic_surface_fixture_flags_all_three_sources() {
    let rep = scan("panic-surface");
    let file = "crates/core/src/lib.rs".to_string();
    assert_eq!(
        anchors(&rep),
        vec![
            ("panic-surface".to_string(), file.clone(), 4), // unwrap
            ("panic-surface".to_string(), file.clone(), 8), // expect
            ("panic-surface".to_string(), file, 13),        // panic!
        ]
    );
    assert_eq!(
        audit_bin(&fixture("panic-surface"), &["--quiet"])
            .status
            .code(),
        Some(1)
    );
}

#[test]
fn unused_annotations_are_stale_findings() {
    let rep = scan("stale-annotation");
    let file = "crates/la/src/lib.rs".to_string();
    assert_eq!(
        anchors(&rep),
        vec![
            ("stale-annotation".to_string(), file.clone(), 4),
            ("stale-annotation".to_string(), file, 12),
        ]
    );
    assert_eq!(
        audit_bin(&fixture("stale-annotation"), &["--quiet"])
            .status
            .code(),
        Some(1)
    );
}

/// `--fix-inventory` must be idempotent (byte-identical on rerun), after
/// which `--check` passes; corrupting the file makes `--check` fail.
#[test]
fn fix_inventory_is_idempotent_and_check_gates_on_it() {
    // Work on a throwaway copy so the fixture tree stays pristine.
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-clean-fixture");
    let _ = std::fs::remove_dir_all(&tmp);
    let src_dir = tmp.join("crates/la/src");
    std::fs::create_dir_all(&src_dir).expect("tmp tree");
    std::fs::copy(
        fixture("clean").join("crates/la/src/lib.rs"),
        src_dir.join("lib.rs"),
    )
    .expect("copy fixture source");

    let inv = tmp.join("output/audit.json");
    // --check requires a blessed baseline alongside the inventory.
    assert!(audit_bin(&tmp, &["--bless", "--quiet"]).status.success());
    assert!(audit_bin(&tmp, &["--fix-inventory", "--quiet"])
        .status
        .success());
    let first = std::fs::read_to_string(&inv).expect("inventory written");
    assert!(audit_bin(&tmp, &["--fix-inventory", "--quiet"])
        .status
        .success());
    let second = std::fs::read_to_string(&inv).expect("inventory rewritten");
    assert_eq!(first, second, "--fix-inventory must be byte-idempotent");

    assert!(audit_bin(&tmp, &["--check", "--quiet"]).status.success());

    // A schema violation (justification stripped) must fail --check.
    std::fs::write(&inv, first.replace("valid for", "")).expect("corrupt inventory");
    let out = audit_bin(&tmp, &["--check", "--quiet"]);
    assert_eq!(out.status.code(), Some(1));

    // A stale-but-valid inventory (extra whitespace) must also fail.
    assert!(audit_bin(&tmp, &["--fix-inventory", "--quiet"])
        .status
        .success());
    let fresh = std::fs::read_to_string(&inv).expect("inventory restored");
    std::fs::write(&inv, format!("{fresh}\n")).expect("staleify inventory");
    assert_eq!(
        audit_bin(&tmp, &["--check", "--quiet"]).status.code(),
        Some(1)
    );
}

/// Transitive hot path: the allocation lives in a helper that is not
/// hot-*named*, visible only through the call graph (`apply -> helper`);
/// the `panic!` beside it is a panic-surface finding. The
/// `ALLOC-OK`-annotated site stays silent.
#[test]
fn hot_path_fixture_flags_transitive_helper() {
    let rep = scan("hot-path");
    let file = "crates/la/src/lib.rs".to_string();
    assert_eq!(
        anchors(&rep),
        vec![
            ("hot-alloc".to_string(), file.clone(), 11),
            ("panic-surface".to_string(), file, 13),
        ]
    );
    let path_msgs: Vec<&str> = rep
        .findings
        .iter()
        .filter(|f| f.rule.id() == "hot-alloc")
        .map(|f| f.msg.as_str())
        .collect();
    for m in path_msgs {
        assert!(m.contains("`apply -> helper`"), "path missing in: {m}");
    }
    assert_eq!(
        audit_bin(&fixture("hot-path"), &["--quiet"]).status.code(),
        Some(1)
    );
}

/// Dotted manifest keys: `ptatin-la.workspace = true` declares the `la`
/// dependency, so `ops`'s call reaches `la`'s allocating helper (one
/// edge, one finding) and never the same-named helper of `mesh`, which
/// `ops` does not depend on.
#[test]
fn dotted_dependency_keys_keep_cross_crate_edges() {
    let rep = scan("dotted-deps");
    assert_eq!(rep.callgraph.edges, 1);
    assert_eq!(
        anchors(&rep),
        vec![(
            "hot-alloc".to_string(),
            "crates/la/src/lib.rs".to_string(),
            5
        )]
    );
    assert!(rep.findings[0].msg.contains("`apply -> helper`"));
    assert_eq!(
        audit_bin(&fixture("dotted-deps"), &["--quiet"])
            .status
            .code(),
        Some(1)
    );
}

/// Nested dispatch: one closure dispatches directly, one reaches a
/// dispatch only through an intermediate function (two hops); the clean
/// dispatch over `leaf` stays silent.
#[test]
fn nested_dispatch_fixture_flags_direct_and_two_hop() {
    let rep = scan("nested-dispatch");
    let file = "crates/la/src/lib.rs".to_string();
    assert_eq!(
        anchors(&rep),
        vec![
            ("nested-dispatch".to_string(), file.clone(), 10),
            ("nested-dispatch".to_string(), file, 16),
        ]
    );
    assert!(rep.findings[0]
        .msg
        .contains("`par_reduce` dispatches directly"));
    assert!(rep.findings[1]
        .msg
        .contains("reaches a dispatch via `middle -> inner`"));
    assert_eq!(
        audit_bin(&fixture("nested-dispatch"), &["--quiet"])
            .status
            .code(),
        Some(1)
    );
}

/// One lane body per SIMD kernel: `norm_avx` is a `#[target_feature]`
/// kernel outside `la::simd`, and the `Lane`-generic `dot3` and
/// `Scale::run` are not `#[inline(always)]`. The annotated root (and the
/// helper only it calls), the forced-inline lane code, test code and
/// `la::simd`'s own wrapper stay silent.
#[test]
fn simd_parity_fixture_flags_stray_target_feature_and_outlined_lane_code() {
    let rep = scan("simd-parity");
    let file = "crates/ops/src/lib.rs".to_string();
    assert_eq!(
        anchors(&rep),
        vec![
            ("simd-parity".to_string(), file.clone(), 8),
            ("simd-parity".to_string(), file.clone(), 13),
            ("simd-parity".to_string(), file, 20),
        ]
    );
    assert!(rep.findings[0].msg.contains("outside `la::simd`"));
    assert!(rep.findings[1]
        .msg
        .contains("`dot3` is generic over `Lane`"));
    assert!(rep.findings[2].msg.contains("`run` is generic over `Lane`"));
    assert_eq!(rep.passes.simd_kernels, 4);
    assert_eq!(
        audit_bin(&fixture("simd-parity"), &["--quiet"])
            .status
            .code(),
        Some(1)
    );
}

/// Checkpoint-coverage drift: `Inner.ghost` (an embedded-struct field)
/// is serialized in neither direction, `Checkpoint.skipped` is written
/// but never read back; `step` and `Inner.a` round-trip through a
/// helper and stay silent. With the serializer renamed away the check
/// cannot run, which is itself one finding at the struct.
#[test]
fn ckpt_drift_fixture_flags_unserialized_fields() {
    let rep = scan("ckpt-drift");
    let file = "crates/ckpt/src/lib.rs".to_string();
    assert_eq!(
        anchors(&rep),
        vec![
            ("ckpt-coverage".to_string(), file.clone(), 8),
            ("ckpt-coverage".to_string(), file.clone(), 14),
        ]
    );
    assert!(rep.findings[0]
        .msg
        .contains("`Inner.ghost` is never named in `to_bytes or from_bytes`"));
    assert!(rep.findings[1]
        .msg
        .contains("`Checkpoint.skipped` is never named in `from_bytes`"));
    assert_eq!(
        audit_bin(&fixture("ckpt-drift"), &["--quiet"])
            .status
            .code(),
        Some(1)
    );

    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-ckpt-renamed");
    let _ = std::fs::remove_dir_all(&tmp);
    let src_dir = tmp.join("crates/ckpt/src");
    std::fs::create_dir_all(&src_dir).expect("tmp tree");
    let renamed = std::fs::read_to_string(fixture("ckpt-drift").join("crates/ckpt/src/lib.rs"))
        .expect("fixture source")
        .replace("pub fn to_bytes(", "pub fn encode(");
    std::fs::write(src_dir.join("lib.rs"), renamed).expect("write renamed copy");
    let rep = ptatin_audit::scan_workspace(&tmp).expect("copy scans");
    assert_eq!(anchors(&rep), vec![("ckpt-coverage".to_string(), file, 11)]);
    assert!(rep.findings[0]
        .msg
        .contains("lacks `to_bytes` or `from_bytes`"));
}

/// Prof-scope coverage: `apply_scoped` times itself, `apply_inner` runs
/// only under its scope (covered upstream), `apply_cold` is invisible
/// to the profiler and flagged.
#[test]
fn prof_scope_fixture_flags_only_the_uncovered_entry() {
    let rep = scan("prof-scope");
    assert_eq!(
        anchors(&rep),
        vec![(
            "prof-scope".to_string(),
            "crates/mg/src/lib.rs".to_string(),
            14
        )]
    );
    assert!(rep.findings[0].msg.contains("`apply_cold`"));
    assert_eq!(
        audit_bin(&fixture("prof-scope"), &["--quiet"])
            .status
            .code(),
        Some(1)
    );
}

/// Baseline lifecycle against a fixture with real findings: `--bless`
/// suppresses them and `--check` passes; a hand-edited baseline fails
/// the checksum (exit 2); a stale baseline (entries matching nothing
/// after the code is fixed) also exits 2.
#[test]
fn baseline_suppresses_then_tamper_and_staleness_exit_two() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-baseline-fixture");
    let _ = std::fs::remove_dir_all(&tmp);
    let src_dir = tmp.join("crates/mg/src");
    std::fs::create_dir_all(&src_dir).expect("tmp tree");
    let fixture_src = fixture("prof-scope").join("crates/mg/src/lib.rs");
    std::fs::copy(&fixture_src, src_dir.join("lib.rs")).expect("copy fixture source");

    // Unsuppressed finding → exit 1.
    assert_eq!(audit_bin(&tmp, &["--quiet"]).status.code(), Some(1));

    // Bless + fresh inventory → --check passes.
    assert!(audit_bin(&tmp, &["--bless", "--quiet"]).status.success());
    assert!(audit_bin(&tmp, &["--fix-inventory", "--quiet"])
        .status
        .success());
    assert!(audit_bin(&tmp, &["--check", "--quiet"]).status.success());

    // Hand edit (checksum no longer matches) → exit 2.
    let bpath = tmp.join("output/audit_baseline.txt");
    let blessed = std::fs::read_to_string(&bpath).expect("baseline written");
    std::fs::write(&bpath, blessed.replace("apply_cold", "apply_warm")).expect("tamper");
    let out = audit_bin(&tmp, &["--check", "--quiet"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("baseline"));

    // Fix the code (scope the cold entry); the blessed entry is now
    // stale → exit 2 until re-blessed.
    std::fs::write(&bpath, blessed).expect("restore baseline");
    let patched = std::fs::read_to_string(&fixture_src)
        .expect("fixture source")
        .replace(
            "pub fn apply_cold(x: &mut [f64]) {",
            "pub fn apply_cold(x: &mut [f64]) {\n    let _s = prof::scope(\"fixture.apply_cold\");",
        );
    std::fs::write(src_dir.join("lib.rs"), patched).expect("patch source");
    let out = audit_bin(&tmp, &["--check", "--quiet"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("stale"));

    // Re-blessing (now empty) and refreshing the inventory restores a
    // passing gate.
    assert!(audit_bin(&tmp, &["--bless", "--quiet"]).status.success());
    assert!(audit_bin(&tmp, &["--fix-inventory", "--quiet"])
        .status
        .success());
    assert!(audit_bin(&tmp, &["--check", "--quiet"]).status.success());
}

/// The flag combination rules: `--check --fix-inventory` and unknown
/// flags are usage errors (exit 2), as is a missing `--root` operand.
#[test]
fn usage_errors_exit_two() {
    let both = Command::new(env!("CARGO_BIN_EXE_ptatin-audit"))
        .args(["--check", "--fix-inventory"])
        .output()
        .expect("runs");
    assert_eq!(both.status.code(), Some(2));
    let unknown = Command::new(env!("CARGO_BIN_EXE_ptatin-audit"))
        .arg("--frobnicate")
        .output()
        .expect("runs");
    assert_eq!(unknown.status.code(), Some(2));
    let dangling = Command::new(env!("CARGO_BIN_EXE_ptatin-audit"))
        .arg("--root")
        .output()
        .expect("runs");
    assert_eq!(dangling.status.code(), Some(2));
}
