//! `ensemble32` — what `ptatin ensemble slice=1` does on the PR-6 sweep
//! shape: 32 tiny rift jobs (4×2×4 elements, 2 steps, two Newton
//! iterations per step, direct coarse solve, no faults), time-sliced one
//! committed step at a time, so every job is suspended to its checkpoint
//! directory once and resumed from it once.
//!
//! The same solver layers as the other workloads, used differently:
//! in-cache problems where cold model construction, per-solve set-up and
//! dispatch overhead dominate, with checkpoint writes beside reads. A
//! kernel or blocking change tuned for `sinker12` that taxes small
//! problems shows here.
//!
//! The seed is the first of the sweep's 32 consecutive `RiftConfig`
//! seeds. Tolerances are the defaults; the first two steps of a rift run
//! into the iteration cap whatever the seed, so every job does the same
//! four Newton iterations.

use super::{Checks, Iterated, Layers, Params, Workload};
use crate::stats;
use crate::trace::{Recorder, Span};
use ptatin3d::core::models::rift::RiftModel;
use ptatin3d::ensemble::{
    run_sweep, EnsembleConfig, EventSink, JobSpec, Scenario, SweepSpec, SweepSummary,
};
use std::path::PathBuf;

pub struct Ensemble {
    jobs: usize,
    seed: u64,
    ckpt_root: PathBuf,
}

impl Ensemble {
    pub fn new(p: &Params) -> Self {
        Self {
            jobs: if p.smoke { 8 } else { 32 },
            seed: p.seed,
            ckpt_root: p.scratch.clone(),
        }
    }

    fn sweep_text(&self) -> String {
        format!(
            "scenario = rift\n\
             mx = 4\n\
             my = 2\n\
             mz = 4\n\
             levels = 2\n\
             steps = 2\n\
             max_it = 2\n\
             linear_max_it = 150\n\
             coarse = direct\n\
             sweep seed = {}..{}\n",
            self.seed,
            self.seed + self.jobs as u64
        )
    }

    fn config(&self, slice_steps: usize, dir: &str) -> EnsembleConfig {
        EnsembleConfig {
            ckpt_root: self.ckpt_root.join(dir),
            slice_steps,
            ..EnsembleConfig::default()
        }
    }
}

pub struct State {
    summary: SweepSummary,
    first_job: JobSpec,
}

impl Workload for Ensemble {
    type Ready = Vec<JobSpec>;
    type State = State;

    fn name(&self) -> &'static str {
        "ensemble32"
    }

    /// Parse and expand the sweep: everything before `run_sweep`. Each
    /// job's model is built inside its first slice.
    fn setup(&self, rec: &mut Recorder) -> Vec<JobSpec> {
        rec.span("ensemble.expand", |_| {
            SweepSpec::parse(&self.sweep_text())
                .expect("sweep text parses")
                .expand()
                .expect("sweep expands")
        })
        .0
    }

    fn iterate(&self, jobs: Vec<JobSpec>, rec: &mut Recorder) -> Iterated<State> {
        let first_job = jobs[0].clone();
        let (summary, _) = rec.span("ensemble.run_sweep", |_| {
            run_sweep(jobs, &self.config(1, "sweep"), &mut EventSink::null())
                .expect("checkpoint i/o")
        });
        let per_step: Vec<f64> = summary
            .results
            .iter()
            .map(|r| r.service_seconds / r.steps_done.max(1) as f64)
            .collect();
        Iterated {
            step_s: stats::median(&per_step),
            state: State { summary, first_job },
        }
    }

    fn check(&self, s: &State, checks: &mut Checks) {
        let results = &s.summary.results;
        let failed = results.iter().filter(|r| !r.outcome.is_success()).count()
            + (self.jobs - results.len());
        checks.count(
            self.jobs as u64,
            failed as u64,
            "ensemble jobs did not complete",
        );
        // Job 0 run alone and never preempted must end in the same state.
        let solo = run_sweep(
            vec![s.first_job.clone()],
            &self.config(0, "solo"),
            &mut EventSink::null(),
        )
        .expect("checkpoint i/o");
        let solo_hash = solo.results[0].final_state_hash;
        let same = solo_hash.is_some() && results[0].final_state_hash == solo_hash;
        checks.check(same, "job 0 differs from its solo un-preempted run");
    }

    fn layers(&self, s: &State, _spans: &[Span], out: &mut Layers) {
        let sum = &s.summary;
        let latency: Vec<f64> = sum.results.iter().map(|r| r.latency_seconds).collect();
        let service: f64 = sum.results.iter().map(|r| r.service_seconds).sum();
        let retries: usize = sum.results.iter().map(|r| r.retries).sum();
        out.insert(
            "ensemble.jobs_per_h",
            sum.results.len() as f64 * 3600.0 / sum.wall_seconds,
        );
        out.insert("ensemble.job_latency_p50_s", stats::median(&latency));
        // With 32 jobs the highest percentile that has ten samples beyond
        // it is p68.
        let hi = stats::tail_percentile(latency.len()).unwrap_or(50);
        out.insert("ensemble.job_latency_hi_s", stats::percentile(&latency, hi));
        eprintln!(
            "ensemble.job_latency_hi_s is p{hi} of {} jobs",
            latency.len()
        );
        out.insert("ensemble.preemptions", sum.total_preemptions as f64);
        out.insert("ensemble.retries", retries as f64);
        out.insert(
            "ensemble.preempt_frac",
            sum.preempt_seconds / sum.wall_seconds,
        );
        // Everything outside the jobs' slices: suspend writes (resumes are
        // inside a slice), queueing and clean-up.
        out.insert(
            "ensemble.sched_self_s",
            (sum.wall_seconds - service).max(0.0),
        );
        if let Scenario::Rift(cfg) = &s.first_job.scenario {
            super::ckpt_probe(&RiftModel::new(cfg.clone()), &self.ckpt_root, out);
        }
    }
}
