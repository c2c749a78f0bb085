//! Fair preemptive scheduler: many solves time-sliced over one pool.
//!
//! The ensemble service runs thousands of independent jobs inside a
//! single process that owns a single thread pool. Instead of running
//! jobs to completion one after another (worst-case latency = whole-sweep
//! wall time for the last job), the scheduler round-robins the queue in
//! **slices** of a few committed steps each and uses the checkpoint
//! subsystem as its preemption mechanism:
//!
//! * **suspend** = serialize the model into the job's private
//!   [`JobDir`](ptatin_ckpt::JobDir) (atomic write + latest pointer);
//! * **resume** = rebuild the model via `RiftModel::from_checkpoint`,
//!   which is bitwise-identical to never having been suspended at a
//!   fixed thread count (the checkpoint/restart contract of PR 5).
//!
//! Preemption is cooperative: the driver's [`RunControl`] hook yields at
//! committed-step boundaries (deterministic slice budgets, flop budgets)
//! and between solve and commit (wall-clock deadlines), so a preempted
//! job never carries half-committed state. Fault recovery composes with
//! scheduling: a simulated crash costs one retry and the job resumes
//! from its last suspend checkpoint; retries are bounded by
//! [`EnsembleConfig::max_retries`].

use crate::events::EventSink;
use crate::spec::{JobSpec, Scenario};
use ptatin_ckpt::faults;
use ptatin_ckpt::{fnv1a64, CkptError, JobDir};
use ptatin_core::models::rift::{RiftConfig, RiftModel};
use ptatin_core::recovery::{run_rift_with, RunConfig, RunControl, RunOutcome, YieldPoint};
use ptatin_core::NonlinearOutcome;
use ptatin_prof as prof;
use ptatin_prof::json::Value;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

/// Scheduler policy for one sweep.
#[derive(Clone, Debug)]
pub struct EnsembleConfig {
    /// Root directory for per-job checkpoint subdirectories.
    pub ckpt_root: PathBuf,
    /// Committed steps a rift job may run per slice before it is
    /// preempted (0 = no step slicing: jobs run to completion).
    pub slice_steps: usize,
    /// Optional wall-clock slice deadline checked between solve and
    /// commit — preempts a job whose solves overrun the step quota.
    pub slice_wall_seconds: Option<f64>,
    /// Crash retries per job before it is failed.
    pub max_retries: usize,
    /// Optional per-job flop budget (from `ptatin-prof` counters); a job
    /// that exceeds it is failed with [`JobOutcome::BudgetExhausted`].
    pub flop_budget: Option<u64>,
    /// Keep each job's checkpoint directory after it finishes (default:
    /// completed/failed jobs are cleaned up).
    pub keep_checkpoints: bool,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self {
            ckpt_root: PathBuf::from("output/ensemble_ckpt"),
            slice_steps: 2,
            slice_wall_seconds: None,
            max_retries: 2,
            flop_budget: None,
            keep_checkpoints: false,
        }
    }
}

/// Terminal state of one job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// Reached its step budget (rift) or converged (sinker).
    Completed,
    /// The solver's recovery ladder was exhausted.
    Aborted { last: NonlinearOutcome },
    /// The per-job flop budget was exceeded.
    BudgetExhausted,
    /// More simulated crashes than `max_retries`.
    RetriesExhausted,
}

impl JobOutcome {
    pub fn is_success(&self) -> bool {
        matches!(self, JobOutcome::Completed)
    }

    /// Stable label for events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Aborted { .. } => "aborted",
            JobOutcome::BudgetExhausted => "budget_exhausted",
            JobOutcome::RetriesExhausted => "retries_exhausted",
        }
    }
}

/// Everything known about one finished job.
#[derive(Clone, Debug)]
pub struct JobResult {
    pub id: u64,
    pub name: String,
    pub outcome: JobOutcome,
    /// Committed steps in the final state (lost crash work excluded).
    pub steps_done: usize,
    /// Scheduler slices the job received.
    pub slices: usize,
    /// Times the job was suspended to its checkpoint directory.
    pub preemptions: usize,
    /// Crash retries consumed.
    pub retries: usize,
    /// Wall time spent actually servicing the job (all slices).
    pub service_seconds: f64,
    /// Submission-to-completion wall time (sweep start → job finish).
    pub latency_seconds: f64,
    /// Flops attributed to this job by the profiler.
    pub flops: u64,
    /// FNV-1a of the final serialized state (bitwise comparable against
    /// an uninterrupted run at the same thread count); `None` when the
    /// job failed.
    pub final_state_hash: Option<u64>,
}

/// Aggregate result of a sweep.
#[derive(Debug, Default)]
pub struct SweepSummary {
    /// Per-job results, sorted by job id.
    pub results: Vec<JobResult>,
    pub wall_seconds: f64,
    /// Time spent writing suspend checkpoints and restoring from them —
    /// the preemption overhead numerator.
    pub preempt_seconds: f64,
    pub total_preemptions: usize,
    pub total_slices: usize,
}

/// In-flight bookkeeping for a queued job.
struct Active {
    spec: JobSpec,
    steps_done: usize,
    slices: usize,
    preemptions: usize,
    retries: usize,
    service_seconds: f64,
    flops: u64,
    /// A suspend checkpoint exists in this job's `JobDir`.
    suspended: bool,
}

impl Active {
    fn new(spec: JobSpec) -> Self {
        Self {
            spec,
            steps_done: 0,
            slices: 0,
            preemptions: 0,
            retries: 0,
            service_seconds: 0.0,
            flops: 0,
            suspended: false,
        }
    }

    fn finish(self, outcome: JobOutcome, hash: Option<u64>, latency: f64) -> JobResult {
        JobResult {
            id: self.spec.id,
            name: self.spec.name,
            outcome,
            steps_done: self.steps_done,
            slices: self.slices,
            preemptions: self.preemptions,
            retries: self.retries,
            service_seconds: self.service_seconds,
            latency_seconds: latency,
            flops: self.flops,
            final_state_hash: hash,
        }
    }
}

/// What a slice decided.
enum SliceEnd {
    /// Job still has work: back of the queue.
    Requeue,
    /// Job reached a terminal state.
    Finished(JobOutcome, Option<u64>),
}

fn num(v: usize) -> Value {
    Value::Num(v as f64)
}

/// Run every job in `jobs` to a terminal state under `cfg`, streaming
/// progress to `sink`. `Err` is reserved for checkpoint I/O failures —
/// solver failures, crashes and budget kills are per-job outcomes.
pub fn run_sweep(
    jobs: Vec<JobSpec>,
    cfg: &EnsembleConfig,
    sink: &mut EventSink,
) -> Result<SweepSummary, CkptError> {
    let t0 = Instant::now();
    sink.emit(
        "sweep_start",
        vec![
            ("jobs", num(jobs.len())),
            ("slice_steps", num(cfg.slice_steps)),
            ("max_retries", num(cfg.max_retries)),
        ],
    );
    let mut queue: VecDeque<Active> = jobs.into_iter().map(Active::new).collect();
    let mut summary = SweepSummary::default();
    while let Some(mut st) = queue.pop_front() {
        let end = match &st.spec.scenario {
            Scenario::Rift(rc) => {
                let rc = rc.clone();
                run_slice_rift(&mut st, &rc, cfg, sink, &mut summary)?
            }
            // The steady scenarios (sinker and the rest of the registry):
            // one non-preemptible solve per slice.
            other => {
                let sc = other.clone();
                run_slice_steady(&mut st, &sc, cfg, sink)
            }
        };
        summary.total_slices += 1;
        match end {
            SliceEnd::Requeue => queue.push_back(st),
            SliceEnd::Finished(outcome, hash) => {
                let latency = t0.elapsed().as_secs_f64();
                let jd = JobDir::new(&cfg.ckpt_root, st.spec.id);
                if !cfg.keep_checkpoints {
                    jd.clear()?;
                }
                let kind = if outcome.is_success() {
                    "job_completed"
                } else {
                    "job_failed"
                };
                sink.emit(
                    kind,
                    vec![
                        ("job", Value::Num(st.spec.id as f64)),
                        ("outcome", Value::Str(outcome.label().to_string())),
                        ("steps_done", num(st.steps_done)),
                        ("slices", num(st.slices)),
                        ("retries", num(st.retries)),
                        (
                            "state_hash",
                            match hash {
                                Some(h) => Value::Str(format!("{h:016x}")),
                                None => Value::Null,
                            },
                        ),
                    ],
                );
                summary.total_preemptions += st.preemptions;
                summary.results.push(st.finish(outcome, hash, latency));
            }
        }
    }
    summary.results.sort_by_key(|r| r.id);
    summary.wall_seconds = t0.elapsed().as_secs_f64();
    let completed = summary
        .results
        .iter()
        .filter(|r| r.outcome.is_success())
        .count();
    sink.emit(
        "sweep_done",
        vec![
            ("completed", num(completed)),
            ("failed", num(summary.results.len() - completed)),
            ("preemptions", num(summary.total_preemptions)),
            ("wall_seconds", Value::Num(summary.wall_seconds)),
        ],
    );
    sink.flush();
    Ok(summary)
}

/// One slice of a rift job: restore (if suspended), run under the
/// preemption hook, then suspend / finish / requeue.
fn run_slice_rift(
    st: &mut Active,
    rift_cfg: &RiftConfig,
    cfg: &EnsembleConfig,
    sink: &mut EventSink,
    summary: &mut SweepSummary,
) -> Result<SliceEnd, CkptError> {
    let id = st.spec.id;
    let jd = JobDir::new(&cfg.ckpt_root, id);
    let t_slice = Instant::now();

    // All fault plans and profiler events inside this slice belong to
    // this job — including model construction and checkpoint restore, so
    // per-job flop attribution partitions the profiler total.
    faults::set_current_job(Some(id));
    let job_scope = prof::scope_dyn(&format!("EnsembleJob[{id:05}]"));
    let flops0 = prof::flops_total();
    let prior_flops = st.flops;

    let restore = || -> Result<RiftModel, CkptError> {
        if st.suspended {
            let ck = jd
                .read_latest()?
                .ok_or(CkptError::Corrupt("suspended job lost its checkpoint"))?;
            RiftModel::from_checkpoint(rift_cfg.clone(), ck)
        } else {
            Ok(RiftModel::new(rift_cfg.clone()))
        }
    };
    let mut model = match restore() {
        Ok(m) => m,
        Err(e) => {
            drop(job_scope);
            faults::set_current_job(None);
            return Err(e);
        }
    };
    if st.suspended {
        summary.preempt_seconds += t_slice.elapsed().as_secs_f64();
        sink.emit(
            "job_resumed",
            vec![
                ("job", Value::Num(id as f64)),
                ("step", num(model.step_index)),
            ],
        );
    }
    let start_step = model.step_index;
    let slice_quota = cfg.slice_steps;
    let flop_budget = cfg.flop_budget;
    let deadline = cfg.slice_wall_seconds;
    let run = RunConfig {
        steps: st.spec.steps,
        checkpoint_every: None,
        checkpoint_dir: None,
    };
    let mut budget_hit = false;
    let mut hook = |step: usize, point: YieldPoint| -> bool {
        match point {
            YieldPoint::BeforeSolve => {
                if let Some(b) = flop_budget {
                    let used = prior_flops + prof::flops_total().saturating_sub(flops0);
                    if used >= b {
                        budget_hit = true;
                        return true;
                    }
                }
                slice_quota > 0 && step >= start_step + slice_quota
            }
            // A solve that overran the wall deadline yields between solve
            // and commit: the candidate is discarded, the committed state
            // stays bitwise clean.
            YieldPoint::BeforeCommit => {
                deadline.is_some_and(|d| t_slice.elapsed().as_secs_f64() > d)
            }
        }
    };
    let report = run_rift_with(
        &mut model,
        &run,
        RunControl {
            yield_now: Some(&mut hook),
        },
    )?;
    let slice_flops = prof::flops_total().saturating_sub(flops0);
    drop(job_scope);
    faults::set_current_job(None);
    st.flops += slice_flops;
    st.slices += 1;
    st.service_seconds += t_slice.elapsed().as_secs_f64();

    sink.emit(
        "job_slice",
        vec![
            ("job", Value::Num(id as f64)),
            ("committed", num(report.steps.len())),
            ("step", num(model.step_index)),
            ("flops", Value::Num(slice_flops as f64)),
        ],
    );

    match report.outcome {
        RunOutcome::Completed => {
            let ck = model.to_checkpoint();
            let hash = fnv1a64(&ck.to_bytes());
            st.steps_done = model.step_index;
            if cfg.keep_checkpoints {
                jd.write(&ck)?;
            }
            Ok(SliceEnd::Finished(JobOutcome::Completed, Some(hash)))
        }
        RunOutcome::Preempted { step } => {
            st.steps_done = step;
            if budget_hit {
                return Ok(SliceEnd::Finished(JobOutcome::BudgetExhausted, None));
            }
            let t = Instant::now();
            jd.write(&model.to_checkpoint())?;
            summary.preempt_seconds += t.elapsed().as_secs_f64();
            st.suspended = true;
            st.preemptions += 1;
            sink.emit(
                "job_preempted",
                vec![("job", Value::Num(id as f64)), ("step", num(step))],
            );
            Ok(SliceEnd::Requeue)
        }
        RunOutcome::SimulatedCrash { step } => {
            // Power-loss semantics: everything since the last suspend
            // checkpoint is lost; `st.steps_done` intentionally keeps its
            // pre-slice value (the persisted state).
            st.retries += 1;
            sink.emit(
                "job_crashed",
                vec![
                    ("job", Value::Num(id as f64)),
                    ("step", num(step)),
                    ("retries", num(st.retries)),
                ],
            );
            if st.retries > cfg.max_retries {
                Ok(SliceEnd::Finished(JobOutcome::RetriesExhausted, None))
            } else {
                Ok(SliceEnd::Requeue)
            }
        }
        RunOutcome::Aborted {
            step, last_outcome, ..
        } => {
            st.steps_done = step;
            Ok(SliceEnd::Finished(
                JobOutcome::Aborted { last: last_outcome },
                None,
            ))
        }
    }
}

/// One slice of a steady scenario job (sinker, SolCx, shear band,
/// falling block): a single non-preemptible run through
/// [`ptatin_scenarios::run_scenario`]. The state hash covers the named
/// metrics of the run — bitwise comparable across schedules at a fixed
/// thread count.
fn run_slice_steady(
    st: &mut Active,
    scenario: &Scenario,
    cfg: &EnsembleConfig,
    sink: &mut EventSink,
) -> SliceEnd {
    let id = st.spec.id;
    let t_slice = Instant::now();
    if let Some(b) = cfg.flop_budget {
        if st.flops >= b {
            return SliceEnd::Finished(JobOutcome::BudgetExhausted, None);
        }
    }
    faults::set_current_job(Some(id));
    let job_scope = prof::scope_dyn(&format!("EnsembleJob[{id:05}]"));
    let flops0 = prof::flops_total();

    let summary = ptatin_scenarios::run_scenario(scenario, st.spec.steps);

    let slice_flops = prof::flops_total().saturating_sub(flops0);
    drop(job_scope);
    faults::set_current_job(None);
    st.flops += slice_flops;
    st.slices += 1;
    st.steps_done = 1;
    st.service_seconds += t_slice.elapsed().as_secs_f64();
    sink.emit(
        "job_slice",
        vec![
            ("job", Value::Num(id as f64)),
            ("committed", num(1)),
            ("flops", Value::Num(slice_flops as f64)),
        ],
    );
    if summary.converged {
        let mut bytes = Vec::new();
        for (name, v) in &summary.metrics {
            bytes.extend_from_slice(name.as_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        SliceEnd::Finished(JobOutcome::Completed, Some(fnv1a64(&bytes)))
    } else {
        SliceEnd::Finished(
            JobOutcome::Aborted {
                last: NonlinearOutcome::Stall,
            },
            None,
        )
    }
}
