//! End-to-end tests of the ensemble service: a 64-job preemptive sweep
//! with deterministic faults, bitwise preempt+resume equivalence against
//! uninterrupted solo runs, crash isolation, per-job profiler
//! attribution and flop-budget enforcement.
//!
//! The contract under test: at a FIXED thread count, a job that was
//! time-sliced, suspended to its checkpoint directory, resumed, crashed
//! and retried finishes in the SAME final state (bitwise, via the
//! serialized byte image) as the same configuration run uninterrupted —
//! and nothing one job does (crashing included) perturbs any other job.

use ptatin3d::ckpt::faults::{self, FaultKind, FaultPlan};
use ptatin3d::ckpt::fnv1a64;
use ptatin3d::core::models::rift::{RiftConfig, RiftModel};
use ptatin3d::core::recovery::{run_rift, RunConfig};
use ptatin3d::core::{GmgConfig, NonlinearConfig};
use ptatin3d::ensemble::{
    run_sweep, EnsembleConfig, EventSink, JobOutcome, SweepSpec, SweepSummary,
};
use ptatin3d::prof;
use ptatin3d::scenarios::run_scenario;
use ptatin_la::par;
use std::path::PathBuf;
use std::sync::Mutex;

/// Serializes the tests in this binary: thread count, fault plans and the
/// profiler registry are process-global knobs.
static NT_LOCK: Mutex<()> = Mutex::new(());

/// Sweep text for `n` minimal rift jobs (seeds 0..n), `steps` each.
fn sweep_text(n: usize, steps: usize) -> String {
    format!(
        "scenario = rift\nmx = 4\nmy = 2\nmz = 2\nlevels = 2\nsteps = {steps}\n\
         max_it = 1\nlinear_max_it = 60\nsweep seed = 0..{n}\n"
    )
}

/// The RiftConfig the sweep text above expands to for a given seed. The
/// sweep prototype starts from `RiftConfig::default()` and overrides
/// exactly the listed keys, so the reference must do the same (in
/// particular the default rift GMG block, with only `levels` set).
fn job_cfg(seed: u64) -> RiftConfig {
    let base = RiftConfig::default();
    let nonlinear = NonlinearConfig {
        max_it: 1,
        linear_max_it: 60,
        ..base.nonlinear.clone()
    };
    let gmg = GmgConfig {
        levels: 2,
        ..base.gmg.clone()
    };
    RiftConfig {
        mx: 4,
        my: 2,
        mz: 2,
        levels: 2,
        seed,
        nonlinear,
        gmg,
        ..base
    }
}

/// Final-state hash of an uninterrupted solo run of `cfg` to `steps`.
fn solo_hash(cfg: RiftConfig, steps: usize) -> u64 {
    let mut model = RiftModel::new(cfg);
    let run = RunConfig {
        steps,
        ..RunConfig::default()
    };
    let report = run_rift(&mut model, &run).expect("no checkpoint io in solo run");
    assert!(
        matches!(
            report.outcome,
            ptatin3d::core::recovery::RunOutcome::Completed
        ),
        "solo reference run must complete: {:?}",
        report.outcome
    );
    fnv1a64(&model.to_checkpoint().to_bytes())
}

fn tmp_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("ptatin_ensemble_{name}"));
    std::fs::remove_dir_all(&root).ok();
    root
}

fn result(summary: &SweepSummary, id: u64) -> &ptatin3d::ensemble::JobResult {
    summary
        .results
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("job {id} missing from results"))
}

/// The acceptance sweep: 64 jobs, preemption on (slice = 1 committed
/// step), a targeted crash in one job and a targeted nonlinear stall in
/// another. Every job must finish, the crashed job must be retried, and
/// sliced/preempted/crashed jobs must land bitwise on their solo-run
/// states.
#[test]
fn sixty_four_job_sweep_with_faults_is_bitwise_clean() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(2);
    let root = tmp_root("e2e");

    let mut jobs = SweepSpec::parse(&sweep_text(64, 1))
        .expect("sweep parses")
        .expand()
        .expect("sweep expands");
    assert_eq!(jobs.len(), 64);
    // A handful of 2-step jobs so the slice quantum actually preempts.
    for id in [3u64, 11, 40, 63] {
        jobs[id as usize].steps = 2;
    }

    // Deterministic faults in two distinct jobs: job 3 loses power at
    // step 1 (after its preemption checkpoint), job 11's first solve
    // stalls (absorbed by the recovery ladder, no retry consumed).
    faults::reset();
    faults::set_plans(vec![
        FaultPlan {
            kind: FaultKind::Crash,
            step: 1,
            job: Some(3),
        },
        FaultPlan {
            kind: FaultKind::NonlinearStall,
            step: 0,
            job: Some(11),
        },
    ]);

    let cfg = EnsembleConfig {
        ckpt_root: root.clone(),
        slice_steps: 1,
        max_retries: 2,
        ..EnsembleConfig::default()
    };
    let mut sink = EventSink::recording();
    let summary = run_sweep(jobs, &cfg, &mut sink).expect("sweep checkpoint io");

    // Every job reached a successful terminal state.
    assert_eq!(summary.results.len(), 64);
    for r in &summary.results {
        assert_eq!(
            r.outcome,
            JobOutcome::Completed,
            "job {} [{}] did not complete",
            r.id,
            r.name
        );
        assert!(r.final_state_hash.is_some());
    }
    // Both fault plans were consumed, and the job-id scratch is cleared.
    assert!(faults::plans().is_empty(), "fault plans leaked");
    assert_eq!(faults::current_job(), None);

    // The crashed job took exactly one retry; 2-step jobs were preempted.
    assert_eq!(result(&summary, 3).retries, 1, "crash costs one retry");
    for id in [3u64, 11, 40, 63] {
        assert!(
            result(&summary, id).preemptions >= 1,
            "2-step job {id} was never preempted at slice=1"
        );
    }
    assert!(summary.total_preemptions >= 4);
    for r in &summary.results {
        assert_eq!(
            r.retries > 0,
            r.id == 3,
            "only job 3 retries (job {})",
            r.id
        );
    }

    // Crash events name job 3 and nobody else.
    let crashes: Vec<f64> = sink
        .captured()
        .iter()
        .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some("job_crashed"))
        .map(|e| e.get("job").and_then(|v| v.as_f64()).unwrap_or(-1.0))
        .collect();
    assert_eq!(crashes, vec![3.0], "exactly one crash, in job 3");

    // Bitwise checks against uninterrupted solo runs at the same thread
    // count: a never-preempted job, two preempted jobs (one of which
    // crashed and resumed), and the stalled job (reference runs the same
    // stall untargeted).
    for (id, steps) in [(0u64, 1usize), (40, 2), (3, 2), (63, 2)] {
        assert_eq!(
            result(&summary, id).final_state_hash,
            Some(solo_hash(job_cfg(id), steps)),
            "job {id}: sliced/preempted/retried result differs from solo run"
        );
    }
    faults::set_plans(vec![FaultPlan {
        kind: FaultKind::NonlinearStall,
        step: 0,
        job: None,
    }]);
    let stalled_ref = solo_hash(job_cfg(11), 2);
    faults::reset();
    assert_eq!(
        result(&summary, 11).final_state_hash,
        Some(stalled_ref),
        "job 11: stall under scheduling differs from solo stall"
    );

    // Checkpoint hygiene: completed jobs' directories were cleaned up.
    let leftovers = std::fs::read_dir(&root).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "completed jobs left checkpoint dirs behind");

    std::fs::remove_dir_all(&root).ok();
    par::set_num_threads(0);
}

/// A crash whose retries are exhausted fails ITS job and only its job:
/// the other jobs (including one sinker) complete on their solo states.
#[test]
fn crash_of_one_job_does_not_disturb_the_others() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(2);
    let root = tmp_root("isolation");

    let mut jobs = SweepSpec::parse(&sweep_text(3, 1))
        .expect("sweep parses")
        .expand()
        .expect("sweep expands");
    // Job 3: a sinker solve riding in the same queue.
    let mut sinker =
        SweepSpec::parse("scenario = sinker\nm = 4\nlevels = 2\ndelta_eta = 1e2\nseed = 7\n")
            .expect("sinker sweep parses")
            .expand()
            .expect("sinker sweep expands");
    sinker[0].id = 3;
    let sinker_scenario = sinker[0].scenario.clone();
    jobs.extend(sinker);

    faults::reset();
    faults::set_plans(vec![FaultPlan {
        kind: FaultKind::Crash,
        step: 0,
        job: Some(1),
    }]);
    let cfg = EnsembleConfig {
        ckpt_root: root.clone(),
        slice_steps: 1,
        max_retries: 0, // first crash is fatal
        ..EnsembleConfig::default()
    };
    let mut sink = EventSink::recording();
    let summary = run_sweep(jobs, &cfg, &mut sink).expect("sweep checkpoint io");
    faults::reset();

    assert_eq!(
        result(&summary, 1).outcome,
        JobOutcome::RetriesExhausted,
        "job 1 must fail when retries are exhausted"
    );
    assert_eq!(result(&summary, 1).final_state_hash, None);
    for id in [0u64, 2] {
        let r = result(&summary, id);
        assert_eq!(r.outcome, JobOutcome::Completed, "job {id} disturbed");
        assert_eq!(
            r.final_state_hash,
            Some(solo_hash(job_cfg(id), 1)),
            "job {id}: crash in job 1 perturbed its state"
        );
    }
    let sink_r = result(&summary, 3);
    assert_eq!(
        sink_r.outcome,
        JobOutcome::Completed,
        "sinker job disturbed"
    );
    // The sinker job is the registry's steady solve: its state hash is
    // the hash of a solo `run_scenario`'s named metrics, bit for bit.
    let solo = run_scenario(&sinker_scenario, 1);
    assert!(solo.converged, "solo sinker run must converge");
    let mut bytes = Vec::new();
    for (name, v) in &solo.metrics {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    assert_eq!(
        sink_r.final_state_hash,
        Some(fnv1a64(&bytes)),
        "sinker job: ensemble state differs from its solo run"
    );

    std::fs::remove_dir_all(&root).ok();
    par::set_num_threads(0);
}

/// Two interleaved jobs get disjoint profiler attribution: each job's
/// slices run under its own `EnsembleJob[id]` scope, the scopes nest the
/// solver call tree, and the per-job flop counts are disjoint and sum to
/// the profiler's total delta.
#[test]
fn interleaved_jobs_attribute_profiler_flops_disjointly() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(1);
    let root = tmp_root("prof");
    prof::enable();
    prof::reset();

    let jobs = SweepSpec::parse(&sweep_text(2, 2))
        .expect("sweep parses")
        .expand()
        .expect("sweep expands");
    faults::reset();
    let cfg = EnsembleConfig {
        ckpt_root: root.clone(),
        slice_steps: 1,
        ..EnsembleConfig::default()
    };
    let flops_before = prof::flops_total();
    let mut sink = EventSink::recording();
    let summary = run_sweep(jobs, &cfg, &mut sink).expect("sweep checkpoint io");
    let total_delta = prof::flops_total() - flops_before;

    let r0 = result(&summary, 0);
    let r1 = result(&summary, 1);
    assert!(r0.flops > 0 && r1.flops > 0, "jobs must attribute flops");
    assert_eq!(
        r0.flops + r1.flops,
        total_delta,
        "per-job attribution must partition the total (no double counting, no leaks)"
    );
    // Slices really interleaved: both jobs ran 2 slices (2 steps at
    // slice=1), not one job to completion then the other.
    assert_eq!(r0.slices, 2);
    assert_eq!(r1.slices, 2);
    let order: Vec<f64> = sink
        .captured()
        .iter()
        .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some("job_slice"))
        .map(|e| e.get("job").and_then(|v| v.as_f64()).unwrap_or(-1.0))
        .collect();
    assert_eq!(order, vec![0.0, 1.0, 0.0, 1.0], "round-robin interleaving");

    // The profiler call tree has one scope per job, each parenting its
    // own solver subtree (disjoint trees under distinct roots).
    let snap = prof::snapshot();
    for name in ["EnsembleJob[00000]", "EnsembleJob[00001]"] {
        let ev = snap
            .event(name)
            .unwrap_or_else(|| panic!("missing job scope event {name}"));
        assert_eq!(ev.calls, 2, "{name}: one scope entry per slice");
        let children = snap.children(name);
        assert!(
            !children.is_empty(),
            "{name}: job scope must parent the solver call tree"
        );
    }

    std::fs::remove_dir_all(&root).ok();
    par::set_num_threads(0);
}

/// A job that exceeds its flop budget is killed with `BudgetExhausted`
/// at a committed-step boundary; jobs that finish within budget are
/// untouched.
#[test]
fn flop_budget_kills_overbudget_jobs_cleanly() {
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(1);
    let root = tmp_root("budget");
    prof::enable();
    faults::reset();

    let mut jobs = SweepSpec::parse(&sweep_text(2, 1))
        .expect("sweep parses")
        .expand()
        .expect("sweep expands");
    jobs[1].steps = 3; // will blow the budget after its first step
    let cfg = EnsembleConfig {
        ckpt_root: root.clone(),
        slice_steps: 0,       // no step slicing: only the budget can stop a job
        flop_budget: Some(1), // any committed step exceeds this
        ..EnsembleConfig::default()
    };
    let mut sink = EventSink::recording();
    let summary = run_sweep(jobs, &cfg, &mut sink).expect("sweep checkpoint io");

    // Job 0 (1 step) completes: the budget is only checked before a
    // step, and its single step ends the run before the next check.
    assert_eq!(result(&summary, 0).outcome, JobOutcome::Completed);
    // Job 1 needs 3 steps but is over budget at its second step check.
    assert_eq!(result(&summary, 1).outcome, JobOutcome::BudgetExhausted);
    assert_eq!(result(&summary, 1).steps_done, 1);
    assert!(result(&summary, 1).flops > 0);

    std::fs::remove_dir_all(&root).ok();
    par::set_num_threads(0);
}
