//! Deterministic fault injection for long-running simulations.
//!
//! Production-scale runs fail in three characteristic ways (paper §IV-A /
//! Fig. 4): the Krylov iteration breaks down, the nonlinear iteration
//! stalls, or the process dies outright. This module lets CI *schedule*
//! each of those at an exact timestep so the recovery paths (dt backoff,
//! preconditioner escalation, checkpoint restart) are exercised
//! deterministically instead of hoped-for.
//!
//! A [`FaultPlan`] is a one-shot `(kind, step[, job])` triple, set
//! programmatically ([`set_plans`]), from the
//! `PTATIN_FAULT` environment variable ([`install_from_env`]) or from the
//! `--fault=` CLI flag. The timestep driver calls [`begin_step`] at the
//! top of every step; when a plan matches, the corresponding layer hook is
//! armed (and that plan consumed):
//!
//! * `breakdown@K` — arms [`ptatin_la::krylov::fault::arm_breakdown`]; the
//!   next outer (labelled) Stokes solve reports
//!   `SolveOutcome::Breakdown(BreakdownKind::Injected)`.
//! * `stall@K` — arms a nonlinear stall consumed by
//!   `ptatin_core::nonlinear::solve_nonlinear`, which then reports a
//!   `Stall` outcome without advancing the iterate.
//! * `crash@K` — [`begin_step`] returns [`FaultKind::Crash`]; the driver
//!   simulates a hard crash (the CLI exits, tests stop the loop), leaving
//!   only the periodic checkpoints behind.
//!
//! ## Job targeting (ensemble runs)
//!
//! A plan may name a specific ensemble job, e.g. `crash@2:job=17`: it
//! fires only while the scheduler has announced that job as current via
//! [`set_current_job`]. Untargeted plans keep the original process-global
//! semantics (they fire for whichever run reaches the step first). Several
//! plans can be armed at once — `PTATIN_FAULT="crash@1:job=3;stall@0:job=7"`
//! — which is how CI injects faults into more than one job of a single
//! sweep and asserts crash-of-one-job isolation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The three injectable failure classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Krylov breakdown in the next outer Stokes solve.
    KrylovBreakdown,
    /// Nonlinear stall (no residual progress) in the next Newton solve.
    NonlinearStall,
    /// Simulated process crash before the step runs.
    Crash,
}

/// A scheduled one-shot fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    pub kind: FaultKind,
    /// Zero-based step index at which the fault fires.
    pub step: u64,
    /// Fire only while this ensemble job is current ([`set_current_job`]);
    /// `None` targets whatever run is executing (the classic behaviour).
    pub job: Option<u64>,
}

impl FaultPlan {
    /// Parse `"breakdown@3"`, `"stall@2"`, `"crash@5"` or the job-scoped
    /// form `"crash@5:job=17"`.
    pub fn parse(s: &str) -> Option<FaultPlan> {
        let (kind, rest) = s.split_once('@')?;
        let kind = match kind.trim() {
            "breakdown" => FaultKind::KrylovBreakdown,
            "stall" => FaultKind::NonlinearStall,
            "crash" => FaultKind::Crash,
            _ => return None,
        };
        let (step, job) = match rest.split_once(':') {
            None => (rest, None),
            Some((step, job_spec)) => {
                let job = job_spec.trim().strip_prefix("job=")?;
                (step, Some(job.trim().parse().ok()?))
            }
        };
        let step = step.trim().parse().ok()?;
        Some(FaultPlan { kind, step, job })
    }

    /// Parse a `;`-separated list of plans (`"crash@1:job=3;stall@0:job=7"`).
    /// Returns `None` if any element is malformed.
    pub fn parse_list(s: &str) -> Option<Vec<FaultPlan>> {
        s.split(';')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(FaultPlan::parse)
            .collect()
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            FaultKind::KrylovBreakdown => "breakdown",
            FaultKind::NonlinearStall => "stall",
            FaultKind::Crash => "crash",
        };
        write!(f, "{kind}@{}", self.step)?;
        if let Some(job) = self.job {
            write!(f, ":job={job}")?;
        }
        Ok(())
    }
}

static PLANS: Mutex<Vec<FaultPlan>> = Mutex::new(Vec::new());
static STALL_ARMED: AtomicBool = AtomicBool::new(false);
/// Current ensemble job id; `u64::MAX` = no job announced.
static CURRENT_JOB: AtomicU64 = AtomicU64::new(u64::MAX);

/// Install the full set of scheduled plans, replacing any previous set.
pub fn set_plans(plans: Vec<FaultPlan>) {
    *PLANS.lock().unwrap_or_else(|e| e.into_inner()) = plans;
}

/// All currently scheduled (unfired) plans.
pub fn plans() -> Vec<FaultPlan> {
    PLANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Announce the ensemble job about to execute on this process (the
/// scheduler brackets every slice with `set_current_job(Some(id))` /
/// `set_current_job(None)`), gating job-targeted plans.
pub fn set_current_job(job: Option<u64>) {
    CURRENT_JOB.store(job.unwrap_or(u64::MAX), Ordering::SeqCst);
}

/// The job id last announced via [`set_current_job`], if any.
pub fn current_job() -> Option<u64> {
    match CURRENT_JOB.load(Ordering::SeqCst) {
        u64::MAX => None,
        j => Some(j),
    }
}

/// Parse the `PTATIN_FAULT` environment variable (a single plan or a
/// `;`-separated list, e.g. `PTATIN_FAULT=breakdown@3` or
/// `PTATIN_FAULT="crash@1:job=3;stall@0:job=7"`) without installing it.
pub fn plans_from_env() -> Option<Vec<FaultPlan>> {
    std::env::var("PTATIN_FAULT")
        .ok()
        .as_deref()
        .and_then(FaultPlan::parse_list)
        .filter(|v| !v.is_empty())
}

/// Install the plan list from `PTATIN_FAULT`, if set and well-formed.
pub fn install_from_env() {
    if let Some(p) = plans_from_env() {
        set_plans(p);
    }
}

/// Clear all plans, the current-job announcement, and every layer hook
/// (test hygiene).
pub fn reset() {
    set_plans(Vec::new());
    set_current_job(None);
    STALL_ARMED.store(false, Ordering::SeqCst);
    ptatin_la::krylov::fault::disarm();
}

/// Called by the timestep driver at the top of step `step` (zero-based).
/// The first plan whose step matches and whose job target (if any) equals
/// the current job is consumed, the matching layer hook armed, and the
/// kind returned so the driver can handle [`FaultKind::Crash`] itself.
pub fn begin_step(step: u64) -> Option<FaultKind> {
    let mut guard = PLANS.lock().unwrap_or_else(|e| e.into_inner());
    let hit = guard
        .iter()
        .position(|p| p.step == step && (p.job.is_none() || p.job == current_job()))?;
    let p = guard.remove(hit);
    drop(guard);
    match p.kind {
        FaultKind::KrylovBreakdown => ptatin_la::krylov::fault::arm_breakdown(),
        FaultKind::NonlinearStall => STALL_ARMED.store(true, Ordering::SeqCst),
        FaultKind::Crash => {}
    }
    Some(p.kind)
}

/// Consume an armed nonlinear stall (one-shot). Called by the nonlinear
/// driver at solve entry.
pub fn take_nonlinear_stall() -> bool {
    STALL_ARMED.swap(false, Ordering::SeqCst)
}

/// Is a nonlinear stall currently armed?
pub fn stall_armed() -> bool {
    STALL_ARMED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan and hooks are process-global; serialize the tests that
    /// touch them.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_accepts_the_three_kinds() {
        assert_eq!(
            FaultPlan::parse("breakdown@3"),
            Some(FaultPlan {
                kind: FaultKind::KrylovBreakdown,
                step: 3,
                job: None
            })
        );
        assert_eq!(
            FaultPlan::parse("stall@0"),
            Some(FaultPlan {
                kind: FaultKind::NonlinearStall,
                step: 0,
                job: None
            })
        );
        assert_eq!(
            FaultPlan::parse("crash@12"),
            Some(FaultPlan {
                kind: FaultKind::Crash,
                step: 12,
                job: None
            })
        );
        assert_eq!(FaultPlan::parse("explode@1"), None);
        assert_eq!(FaultPlan::parse("stall"), None);
        assert_eq!(FaultPlan::parse("stall@x"), None);
    }

    #[test]
    fn parse_accepts_job_targets_and_lists() {
        assert_eq!(
            FaultPlan::parse("crash@2:job=17"),
            Some(FaultPlan {
                kind: FaultKind::Crash,
                step: 2,
                job: Some(17)
            })
        );
        assert_eq!(FaultPlan::parse("crash@2:job="), None);
        assert_eq!(FaultPlan::parse("crash@2:17"), None);
        let list = FaultPlan::parse_list("crash@1:job=3; stall@0:job=7").unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].job, Some(3));
        assert_eq!(list[1].kind, FaultKind::NonlinearStall);
        assert!(FaultPlan::parse_list("crash@1;bogus@2").is_none());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in ["breakdown@3", "stall@0", "crash@12", "crash@2:job=17"] {
            let p = FaultPlan::parse(s).unwrap();
            assert_eq!(FaultPlan::parse(&p.to_string()), Some(p));
        }
    }

    #[test]
    fn begin_step_fires_once_at_the_scheduled_step() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        reset();
        set_plans(vec![FaultPlan {
            kind: FaultKind::NonlinearStall,
            step: 2,
            job: None,
        }]);
        assert_eq!(begin_step(0), None);
        assert_eq!(begin_step(1), None);
        assert!(!stall_armed());
        assert_eq!(begin_step(2), Some(FaultKind::NonlinearStall));
        assert!(stall_armed());
        assert!(take_nonlinear_stall());
        assert!(!take_nonlinear_stall(), "stall hook is one-shot");
        // Plan consumed: the same step number does not re-fire.
        assert_eq!(begin_step(2), None);
        reset();
    }

    #[test]
    fn job_targeted_plan_fires_only_for_its_job() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        reset();
        set_plans(vec![FaultPlan {
            kind: FaultKind::Crash,
            step: 1,
            job: Some(17),
        }]);
        // No job announced: targeted plan stays armed.
        assert_eq!(begin_step(1), None);
        // Wrong job: still armed.
        set_current_job(Some(4));
        assert_eq!(begin_step(1), None);
        assert_eq!(plans().len(), 1);
        // Right job: fires and is consumed.
        set_current_job(Some(17));
        assert_eq!(begin_step(1), Some(FaultKind::Crash));
        assert!(plans().is_empty());
        assert_eq!(begin_step(1), None, "one-shot even for the right job");
        reset();
    }

    #[test]
    fn multiple_plans_fire_independently() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        reset();
        set_plans(vec![
            FaultPlan {
                kind: FaultKind::Crash,
                step: 1,
                job: Some(3),
            },
            FaultPlan {
                kind: FaultKind::NonlinearStall,
                step: 0,
                job: Some(7),
            },
        ]);
        set_current_job(Some(7));
        assert_eq!(begin_step(0), Some(FaultKind::NonlinearStall));
        assert_eq!(begin_step(1), None, "job 7 does not consume job 3's plan");
        set_current_job(Some(3));
        assert_eq!(begin_step(1), Some(FaultKind::Crash));
        assert!(plans().is_empty());
        reset();
    }

    #[test]
    fn breakdown_plan_arms_the_krylov_hook() {
        let _g = GLOBAL_LOCK.lock().unwrap();
        reset();
        set_plans(vec![FaultPlan {
            kind: FaultKind::KrylovBreakdown,
            step: 1,
            job: None,
        }]);
        assert_eq!(begin_step(1), Some(FaultKind::KrylovBreakdown));
        assert!(ptatin_la::krylov::fault::armed());
        reset();
        assert!(!ptatin_la::krylov::fault::armed());
    }
}
