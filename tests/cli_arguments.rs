//! The `ptatin` driver refuses input it does not understand: an unknown
//! `key=`/`--flag`, a value that does not parse or a mesh the multigrid
//! cannot coarsen prints the usage text and exits 2 instead of silently
//! running the defaults, and `threads=N` sets the worker count.

use std::process::{Command, Output};

fn ptatin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ptatin"))
        .args(args)
        .env("PTATIN_TEST_THREADS", "2")
        .output()
        .expect("run ptatin")
}

fn assert_rejected(args: &[&str], complaint: &str) {
    let out = ptatin(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: ptatin"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not start a run");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn unknown_keys_and_flags_exit_2_with_usage() {
    assert_rejected(
        &["sinker", "m=2", "--threads=1"],
        "unknown argument `--threads=1`",
    );
    assert_rejected(&["sinker", "bogus=1"], "unknown argument `bogus=1`");
    assert_rejected(
        &["sinker", "strong-crust"],
        "unknown argument `strong-crust`",
    );
    assert_rejected(
        &["rift", "steps=1", "--checkpoint-evry=2"],
        "--checkpoint-evry=2",
    );
    assert_rejected(&["verify", "mode=smoke", "m=4"], "unknown argument `m=4`");
    // `verify` takes `mode=` only: its solves run the production solver.
    assert_rejected(
        &["verify", "fine_kind=tensor"],
        "unknown argument `fine_kind=tensor`",
    );
    assert_rejected(&["frobnicate"], "unknown subcommand `frobnicate`");
}

#[test]
fn unparseable_values_exit_2_with_usage() {
    assert_rejected(&["sinker", "m=abc"], "cannot parse `abc` for `m`");
    assert_rejected(
        &["sinker", "m=2", "delta_eta=big"],
        "cannot parse `big` for `delta_eta`",
    );
    assert_rejected(
        &["sinker", "m=2", "threads=-1"],
        "cannot parse `-1` for `threads`",
    );
    assert_rejected(&["rift", "steps=1.5"], "cannot parse `1.5` for `steps`");
    // Mesh sizes the multigrid cannot coarsen: refused, never clamped.
    assert_rejected(&["sinker", "m=6", "levels=3"], "m = 6 is not divisible");
    assert_rejected(&["sinker", "m=4", "levels=4"], "m = 4 is not divisible");
    assert_rejected(
        &["sinker", "m=2", "levels=1"],
        "levels = 1 must be at least 2",
    );
    assert_rejected(&["sinker", "m=0"], "m = 0 must be positive");
    assert_rejected(&["rift", "mx=5"], "mx = 5 is not divisible");
    assert_rejected(&["rift", "--fault=breakdown@1;bogus@2"], "bad --fault spec");
}

#[test]
fn rift_fault_flag_takes_a_list() {
    let out_dir = std::env::temp_dir().join(format!("ptatin_cli_fault_{}", std::process::id()));
    let out_arg = format!("out={}", out_dir.display());
    let args = [
        "rift",
        "mx=4",
        "my=2",
        "mz=2",
        "steps=2",
        "--fault=breakdown@0;stall@1",
        &out_arg,
    ];
    let out = ptatin(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
    assert!(
        stdout.contains("fault injection armed: breakdown@0; stall@1"),
        "{stdout}"
    );
    assert_eq!(
        stdout.matches("[recovered, attempt 2]").count(),
        2,
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn threads_key_sets_the_worker_count() {
    let out_dir = std::env::temp_dir().join(format!("ptatin_cli_{}", std::process::id()));
    let out_arg = format!("out={}", out_dir.display());
    // PTATIN_TEST_THREADS=2 in the environment: the key wins, its absence
    // leaves the environment's count.
    for (args, threads) in [
        (vec!["sinker", "m=2", "levels=2", "threads=1", &out_arg], 1),
        (vec!["sinker", "m=2", "levels=2", &out_arg], 2),
    ] {
        let out = ptatin(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(
            stdout.contains(&format!(", {threads} threads")),
            "{args:?}: {stdout}"
        );
        assert!(stdout.contains("converged: true"), "{args:?}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn help_and_no_arguments_print_usage_and_exit_0() {
    for args in [&["help"][..], &[]] {
        let out = ptatin(args);
        assert_eq!(out.status.code(), Some(0));
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: ptatin"));
    }
}

/// An output the driver cannot write is reported with exit status 2, not
/// a panic: `out/` and the `--log-json` parent are created before the
/// solve, and a VTK file that cannot be created at the end of the run is
/// reported the same way. A regular file in the parent position makes the
/// directory impossible to create even for root.
#[test]
fn unwritable_outputs_exit_2_without_a_panic() {
    let root = std::env::temp_dir().join(format!("ptatin_cli_out_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("temp dir");
    let blocker = root.join("blocker");
    std::fs::write(&blocker, b"a regular file").expect("blocker file");
    let under_blocker = blocker.join("vtk");
    let out_blocked = format!("out={}", under_blocker.display());
    let out_ok = format!("out={}", root.join("ok").display());
    let json_blocked = format!("--log-json={}", blocker.join("prof.json").display());
    let refused = |args: &[&str], path: &std::path::Path, solved: bool| {
        let out = ptatin(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("cannot write {}: ", path.display())),
            "{args:?}: {stderr}"
        );
        assert_eq!(stdout.contains("solve:"), solved, "{args:?}: {stdout}");
    };
    refused(
        &["sinker", "m=2", "levels=2", &out_blocked],
        &under_blocker,
        false,
    );
    refused(
        &["rift", "mx=6", "my=2", "mz=4", "steps=1", &out_blocked],
        &under_blocker,
        false,
    );
    refused(
        &["sinker", "m=2", "levels=2", &out_ok, &json_blocked],
        &blocker.join("prof.json"),
        false,
    );
    // The directory exists but the mesh file cannot be created in it: the
    // solve runs and the end-of-run write is reported.
    let taken = root.join("ok").join("sinker_mesh.vtk");
    std::fs::create_dir_all(&taken).expect("directory in the file's place");
    refused(&["sinker", "m=2", "levels=2", &out_ok], &taken, true);
    let _ = std::fs::remove_dir_all(&root);
}

/// A scenario file that still names a retired solver-choice key is refused
/// at its line with exit status 2, before any run starts.
#[test]
fn scenario_file_naming_a_solver_key_exits_2() {
    let spec = std::env::temp_dir().join(format!("ptatin_cli_spec_{}.scn", std::process::id()));
    std::fs::write(&spec, "scenario = sinker\nm = 4\nsolver.coarse = amg\n").expect("spec file");
    let file = format!("file={}", spec.display());
    let out = ptatin(&["scenario", &file]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("scenario line 3: unknown key `solver.coarse`"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "the spec must not start a run");
    let _ = std::fs::remove_file(&spec);
}

/// A sinker spec whose spheres cannot be placed (too many, or too large
/// for the unit cube) is refused at the line that makes it impossible,
/// with exit status 2 — never the model's placement panic (exit 101).
#[test]
fn scenario_file_with_unplaceable_spheres_exits_2() {
    let cases = [
        (
            "m = 4\nlevels = 2\nradius = 0.45\n",
            "scenario line 4: cannot place 8 spheres of radius 0.45 without overlap",
        ),
        (
            "n_spheres = 500\nm = 4\n",
            "scenario line 2: cannot place 500 spheres of radius 0.1 without overlap",
        ),
        (
            "m = 4\nradius = 0.5\n",
            "scenario line 3: radius = 0.5 leaves no room for a sphere",
        ),
    ];
    for (i, (keys, complaint)) in cases.iter().enumerate() {
        let spec =
            std::env::temp_dir().join(format!("ptatin_cli_spheres_{}_{i}.scn", std::process::id()));
        std::fs::write(&spec, format!("scenario = sinker\n{keys}")).expect("spec file");
        let file = format!("file={}", spec.display());
        let out = ptatin(&["scenario", &file]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{keys}: {stderr}");
        assert!(stderr.contains(complaint), "{keys}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{keys}: the spec must not start a run"
        );
        let _ = std::fs::remove_file(&spec);
    }
}
