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
