//! Kill-and-resume property tests for checkpoint/restart.
//!
//! The contract under test: at a FIXED thread count, a run restarted from
//! a checkpoint taken after any step k reproduces the uninterrupted run's
//! trajectory **bitwise** — every float in the mesh, swarm, field vectors
//! and the PRNG state, compared through the serialized byte image of the
//! full state. The restart also goes through the byte format itself
//! (serialize → parse → rebuild), not through in-memory clones, so the
//! format is part of the property.

use ptatin3d::ckpt::faults::{self, FaultKind, FaultPlan};
use ptatin3d::ckpt::{Checkpoint, CkptError};
use ptatin3d::core::models::rift::{RiftConfig, RiftModel};
use ptatin3d::core::recovery::{checkpoint_path, run_rift, RunConfig, RunOutcome};
use ptatin3d::core::NonlinearConfig;
use ptatin3d::core::{CoarseKind, GmgConfig};
use ptatin_la::par;
use std::sync::Mutex;

/// Serializes the tests in this binary: thread count and the fault plan
/// are process-global knobs.
static NT_LOCK: Mutex<()> = Mutex::new(());

fn tiny_cfg() -> RiftConfig {
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
            coarse: CoarseKind::Direct,
            ..GmgConfig::default()
        },
        ..RiftConfig::default()
    }
}

/// The byte image of the full state — bitwise equality of two states is
/// equality of their images (the serializer is deterministic and lossless;
/// see `ptatin-ckpt` unit tests).
fn state_bytes(model: &RiftModel) -> Vec<u8> {
    model.to_checkpoint().to_bytes()
}

#[test]
fn restart_from_any_step_is_bitwise_identical() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(2);
    const N: usize = 5;

    // Uninterrupted reference run, snapshotting the byte image after
    // every step.
    let mut reference = RiftModel::new(tiny_cfg());
    let mut snapshots: Vec<Vec<u8>> = Vec::new(); // snapshots[k] = after step k+1
    for _ in 0..N {
        reference.step();
        snapshots.push(state_bytes(&reference));
    }
    // The contract covers the lagged path: some build of the reference run
    // took over a coarse factor from an earlier build of its solve.
    assert!(
        reference.setup_cache().lag_counts().coarse > 0,
        "no lagged build in the reference run"
    );

    // Kill-and-resume at every step k: restore through the byte format,
    // continue to N steps, and demand the identical trajectory.
    for k in 1..N {
        let ck = Checkpoint::from_bytes(&snapshots[k - 1]).expect("snapshot parses");
        let mut resumed = RiftModel::from_checkpoint(tiny_cfg(), ck).expect("restart accepted");
        assert_eq!(resumed.step_index, k);
        for step in k..N {
            resumed.step();
            assert_eq!(
                state_bytes(&resumed),
                snapshots[step],
                "restart at k={k}: trajectory diverged at step {}",
                step + 1
            );
        }
    }
    par::set_num_threads(0);
}

#[test]
fn restart_under_different_config_is_refused() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(2);
    let mut model = RiftModel::new(tiny_cfg());
    model.step();
    let ck = model.to_checkpoint();
    // Same mesh, different physics: must be refused, not silently resumed
    // onto a different trajectory.
    let other = RiftConfig {
        extension_velocity: 0.6,
        ..tiny_cfg()
    };
    match RiftModel::from_checkpoint(other, ck) {
        Err(CkptError::ConfigMismatch { .. }) => {}
        Err(e) => panic!("expected ConfigMismatch, got {e:?}"),
        Ok(_) => panic!("restart under a different config was accepted"),
    }
    par::set_num_threads(0);
}

#[test]
fn crash_and_resume_through_the_driver_matches_uninterrupted_run() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(2);
    const N: usize = 3;
    const CRASH_AT: usize = 2;

    // Uninterrupted reference.
    let mut reference = RiftModel::new(tiny_cfg());
    for _ in 0..N {
        reference.step();
    }
    let want = state_bytes(&reference);

    // Crashed run: periodic checkpoints every step, simulated power loss
    // at step CRASH_AT (no final checkpoint — only the periodic ones).
    let dir = std::env::temp_dir().join("ptatin_crash_resume_test");
    std::fs::remove_dir_all(&dir).ok();
    faults::reset();
    faults::set_plans(vec![FaultPlan {
        kind: FaultKind::Crash,
        step: CRASH_AT as u64,
        job: None,
    }]);
    let run = RunConfig {
        steps: N,
        checkpoint_every: Some(1),
        checkpoint_dir: Some(dir.clone()),
    };
    let mut crashed = RiftModel::new(tiny_cfg());
    let report = run_rift(&mut crashed, &run).expect("checkpoint io");
    assert_eq!(
        report.outcome,
        RunOutcome::SimulatedCrash { step: CRASH_AT },
        "crash fires at the scheduled step"
    );
    assert_eq!(
        report.steps.len(),
        CRASH_AT,
        "steps before the crash committed"
    );

    // Resume from the last surviving periodic checkpoint and finish.
    let last = checkpoint_path(&dir, CRASH_AT);
    let ck = Checkpoint::read_from(&last).expect("periodic checkpoint survives the crash");
    let mut resumed = RiftModel::from_checkpoint(tiny_cfg(), ck).expect("restart accepted");
    let report = run_rift(&mut resumed, &run).expect("checkpoint io");
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(
        state_bytes(&resumed),
        want,
        "crash + resume must reproduce the uninterrupted run bitwise"
    );
    faults::reset();
    std::fs::remove_dir_all(&dir).ok();
    par::set_num_threads(0);
}
