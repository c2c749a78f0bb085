//! Timestep driver with failure recovery and periodic checkpointing.
//!
//! Long-term lithospheric dynamics runs (paper §V: thousands of steps) die
//! in practice for reasons a single `step()` call can't handle: the
//! nonlinear iteration stalls or diverges on a hard configuration, the
//! Krylov solve breaks down, or the process is killed. [`run_rift`] wraps
//! the rift model's step loop with the standard production response:
//!
//! 1. **Retry ladder** — a failed solve (typed [`NonlinearOutcome`], never
//!    a silent wrong answer) is retried with an escalated configuration:
//!    drop the Newton operator back to Picard with a larger linear budget,
//!    then add smoothing and back off the dt cap. The candidate iterate of
//!    a failed attempt is *discarded*; retries start from the same
//!    committed state.
//! 2. **Clean abort** — after [`MAX_ATTEMPTS`] failures the driver writes a
//!    final checkpoint and reports [`RunOutcome::Aborted`] with the last
//!    failure class. No panic, no corrupted state.
//! 3. **Periodic checkpoints** — every `checkpoint_every` committed steps
//!    the full model state is snapshotted atomically
//!    ([`Checkpoint::write_to`]), so a crash loses at most one interval.
//!
//! The deterministic fault harness (`ptatin_ckpt::faults`) plugs in at the
//! top of every step via `begin_step`, which lets CI schedule each failure
//! class at an exact step and assert the recovery behaviour above.

use crate::models::rift::{RiftConfig, RiftModel, RiftStepStats};
use crate::nonlinear::NonlinearOutcome;
use ptatin_ckpt::faults::{self, FaultKind};
use ptatin_ckpt::CkptError;
use ptatin_prof as prof;
use std::path::{Path, PathBuf};

/// Solve attempts per step: the configured solver and two escalations.
pub const MAX_ATTEMPTS: usize = 3;
/// Factor applied to `dt_max` per escalation level, so a recovered step
/// also takes a gentler advection step.
pub const DT_BACKOFF: f64 = 0.5;

/// The escalation ladder: attempt 0 runs the configured solver; attempt 1
/// drops the Newton operator back to Picard (the Newton direction is the
/// usual culprit when the plastic tangent is bad) and doubles the linear
/// iteration budget; attempt 2+ additionally strengthens the smoother and
/// abandons Eisenstat–Walker for a fixed tight tolerance. Every escalated
/// attempt also backs off the dt cap.
pub fn escalate(base: &RiftConfig, attempt: usize) -> RiftConfig {
    let mut cfg = base.clone();
    if attempt == 0 {
        return cfg;
    }
    cfg.dt_max = base.dt_max * DT_BACKOFF.powi(attempt as i32);
    cfg.nonlinear.use_newton = false;
    cfg.nonlinear.linear_max_it = base.nonlinear.linear_max_it * 2;
    if attempt >= 2 {
        cfg.gmg.pre_smooth = base.gmg.pre_smooth + 2;
        cfg.gmg.post_smooth = base.gmg.post_smooth + 2;
        cfg.nonlinear.eisenstat_walker = false;
    }
    cfg
}

/// Driver configuration for a (re)startable run.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// Run until `model.step_index == steps` (so a restarted model
    /// continues to the same target).
    pub steps: usize,
    /// Write a checkpoint every N committed steps (None = never).
    pub checkpoint_every: Option<usize>,
    /// Directory for periodic/final checkpoints (required when
    /// `checkpoint_every` is set or a final checkpoint should be written).
    pub checkpoint_dir: Option<PathBuf>,
}

/// Where in the step loop a cooperative yield check fires (see
/// [`RunControl`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YieldPoint {
    /// Top of the step, before any solve work: preempting here wastes
    /// nothing. This is where deterministic slice budgets fire.
    BeforeSolve,
    /// Between an accepted solve and its commit: the candidate is
    /// *discarded* and re-solved on resume, so a wall-clock deadline can
    /// preempt a solve that overran its slice without ever committing a
    /// half-step. The committed trajectory is untouched either way, which
    /// is what keeps preempt+resume bitwise identical.
    BeforeCommit,
}

/// Cooperative preemption control for [`run_rift_with`]: the driver asks
/// `yield_now(step, point)` at both [`YieldPoint`]s of every step and
/// returns [`RunOutcome::Preempted`] the first time it answers `true`.
/// The ensemble scheduler supplies the hook; plain [`run_rift`] runs
/// without one.
#[derive(Default)]
pub struct RunControl<'a> {
    #[allow(clippy::type_complexity)]
    pub yield_now: Option<&'a mut dyn FnMut(usize, YieldPoint) -> bool>,
}

/// How the run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutcome {
    /// Reached the target step count.
    Completed,
    /// The [`RunControl`] hook asked to yield: the model sits at `step`
    /// committed steps (any in-flight candidate was discarded) and can be
    /// suspended via checkpoint and resumed bitwise later.
    Preempted { step: usize },
    /// The fault harness fired `crash@K`: the driver stopped dead at step
    /// `step` with NO final checkpoint, simulating power loss. Restart
    /// from the last periodic checkpoint.
    SimulatedCrash { step: usize },
    /// Recovery exhausted at `step`; the model state (last committed
    /// step) was checkpointed to `final_checkpoint` when a directory was
    /// configured.
    Aborted {
        step: usize,
        last_outcome: NonlinearOutcome,
        final_checkpoint: Option<PathBuf>,
    },
}

/// A finished run: how it ended plus per-step diagnostics of every
/// committed step.
#[derive(Debug)]
pub struct RunReport {
    pub outcome: RunOutcome,
    pub steps: Vec<RiftStepStats>,
}

/// Path of the periodic checkpoint written after `step` committed steps.
pub fn checkpoint_path(dir: &Path, step: usize) -> PathBuf {
    dir.join(format!("ckpt_step_{step:05}.ptck"))
}

/// Path of the final checkpoint written on clean abort.
pub fn final_checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("ckpt_final.ptck")
}

fn write_checkpoint(model: &RiftModel, path: &Path) -> Result<(), CkptError> {
    let _ev = prof::scope("CheckpointWrite");
    model.to_checkpoint().write_to(path)
}

/// Advance `model` to `run.steps` committed steps with the recovery and
/// checkpoint policy above. `Err` is reserved for checkpoint I/O failures;
/// every solver failure mode is reported through [`RunOutcome`].
pub fn run_rift(model: &mut RiftModel, run: &RunConfig) -> Result<RunReport, CkptError> {
    run_rift_with(model, run, RunControl::default())
}

/// [`run_rift`] with a cooperative preemption hook. The hook is consulted
/// at the top of every step (before the fault harness and any solve work)
/// and again between an accepted solve and its commit; answering `true`
/// at either point stops the driver with [`RunOutcome::Preempted`] and
/// the model at a clean committed-step boundary, ready to be checkpointed
/// and resumed bitwise.
pub fn run_rift_with(
    model: &mut RiftModel,
    run: &RunConfig,
    mut ctrl: RunControl<'_>,
) -> Result<RunReport, CkptError> {
    let mut steps = Vec::new();
    let mut yields = |step: usize, point: YieldPoint| -> bool {
        ctrl.yield_now.as_mut().is_some_and(|f| f(step, point))
    };
    while model.step_index < run.steps {
        let step = model.step_index;
        // Yield check BEFORE the fault harness, so a preempted step does
        // not consume a fault plan scheduled for it — the fault fires
        // when the step actually runs (possibly after a resume).
        if yields(step, YieldPoint::BeforeSolve) {
            return Ok(RunReport {
                outcome: RunOutcome::Preempted { step },
                steps,
            });
        }
        if faults::begin_step(step as u64) == Some(FaultKind::Crash) {
            // Simulated power loss: stop dead, write nothing.
            return Ok(RunReport {
                outcome: RunOutcome::SimulatedCrash { step },
                steps,
            });
        }
        let base = model.cfg.clone();
        let mut committed: Option<RiftStepStats> = None;
        let mut last_outcome = NonlinearOutcome::MaxIterations;
        let mut preempted = false;
        for attempt in 0..MAX_ATTEMPTS {
            model.cfg = escalate(&base, attempt);
            let cand = model.solve_stokes();
            last_outcome = cand.stats.outcome;
            if last_outcome.is_acceptable() {
                if yields(step, YieldPoint::BeforeCommit) {
                    // Deadline expired during the solve: drop the
                    // candidate (model untouched) and yield; resume
                    // re-solves this step from the same committed state.
                    preempted = true;
                    break;
                }
                // Commit under the (possibly escalated) config so the dt
                // backoff applies to the recovered step.
                let mut s = model.commit_step(cand);
                s.attempts = attempt + 1;
                committed = Some(s);
                break;
            }
            // Failed candidate dropped; the model state is untouched, so
            // the next attempt re-solves the same configuration.
        }
        model.cfg = base;
        if preempted {
            return Ok(RunReport {
                outcome: RunOutcome::Preempted { step },
                steps,
            });
        }
        match committed {
            Some(s) => steps.push(s),
            None => {
                let final_checkpoint = match &run.checkpoint_dir {
                    Some(dir) => {
                        let path = final_checkpoint_path(dir);
                        write_checkpoint(model, &path)?;
                        Some(path)
                    }
                    None => None,
                };
                return Ok(RunReport {
                    outcome: RunOutcome::Aborted {
                        step,
                        last_outcome,
                        final_checkpoint,
                    },
                    steps,
                });
            }
        }
        if let (Some(every), Some(dir)) = (run.checkpoint_every, &run.checkpoint_dir) {
            if every > 0 && model.step_index % every == 0 {
                write_checkpoint(model, &checkpoint_path(dir, model.step_index))?;
            }
        }
    }
    Ok(RunReport {
        outcome: RunOutcome::Completed,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonlinear::NonlinearConfig;

    fn base_cfg() -> RiftConfig {
        RiftConfig {
            nonlinear: NonlinearConfig {
                linear_max_it: 100,
                ..NonlinearConfig::default()
            },
            ..RiftConfig::default()
        }
    }

    #[test]
    fn escalation_ladder_shape() {
        let base = base_cfg();
        let a0 = escalate(&base, 0);
        assert_eq!(format!("{a0:?}"), format!("{base:?}"), "attempt 0 = base");
        let a1 = escalate(&base, 1);
        assert!(!a1.nonlinear.use_newton, "attempt 1 drops Newton");
        assert_eq!(a1.nonlinear.linear_max_it, 200);
        assert!((a1.dt_max - base.dt_max * 0.5).abs() < 1e-15);
        assert_eq!(a1.gmg.pre_smooth, base.gmg.pre_smooth);
        let a2 = escalate(&base, 2);
        assert_eq!(a2.gmg.pre_smooth, base.gmg.pre_smooth + 2);
        assert_eq!(a2.gmg.post_smooth, base.gmg.post_smooth + 2);
        assert!(!a2.nonlinear.eisenstat_walker);
        assert!((a2.dt_max - base.dt_max * 0.25).abs() < 1e-15);
    }

    #[test]
    fn preemption_hook_yields_at_both_points_without_touching_state() {
        let cfg = RiftConfig {
            mx: 6,
            my: 2,
            mz: 4,
            levels: 2,
            nonlinear: NonlinearConfig {
                max_it: 2,
                linear_max_it: 150,
                ..NonlinearConfig::default()
            },
            ..RiftConfig::default()
        };
        let run = RunConfig {
            steps: 3,
            ..RunConfig::default()
        };
        // BeforeSolve yield after one committed step: preempt at step 1,
        // exactly one step in the report.
        let mut model = RiftModel::new(cfg.clone());
        let mut budget = 1usize;
        let report = run_rift_with(
            &mut model,
            &run,
            RunControl {
                yield_now: Some(&mut |_, p| {
                    if p == YieldPoint::BeforeSolve {
                        if budget == 0 {
                            return true;
                        }
                        budget -= 1;
                    }
                    false
                }),
            },
        )
        .unwrap();
        assert_eq!(report.outcome, RunOutcome::Preempted { step: 1 });
        assert_eq!(report.steps.len(), 1);
        assert_eq!(model.step_index, 1);
        let bytes_after_preempt = model.to_checkpoint().to_bytes();

        // BeforeCommit yield on the next step: the solved candidate is
        // discarded and the state is bitwise what it was at the boundary.
        let report = run_rift_with(
            &mut model,
            &run,
            RunControl {
                yield_now: Some(&mut |_, p| p == YieldPoint::BeforeCommit),
            },
        )
        .unwrap();
        assert_eq!(report.outcome, RunOutcome::Preempted { step: 1 });
        assert!(report.steps.is_empty());
        assert_eq!(
            model.to_checkpoint().to_bytes(),
            bytes_after_preempt,
            "BeforeCommit preemption must not touch the committed state"
        );

        // Resuming with no hook completes the run.
        let report = run_rift(&mut model, &run).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_eq!(model.step_index, 3);
    }

    #[test]
    fn checkpoint_paths_are_stable() {
        let dir = Path::new("/tmp/ck");
        assert_eq!(
            checkpoint_path(dir, 7),
            PathBuf::from("/tmp/ck/ckpt_step_00007.ptck")
        );
        assert_eq!(
            final_checkpoint_path(dir),
            PathBuf::from("/tmp/ck/ckpt_final.ptck")
        );
    }
}
