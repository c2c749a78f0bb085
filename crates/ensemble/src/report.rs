//! End-of-run aggregation and the `ptatin-ensemble-bench-v1` document.
//!
//! A sweep's raw event stream is for watching; the numbers that matter
//! afterwards are throughput (jobs/hour), tail latency (p50/p99 of
//! submission-to-completion time) and how much of the wall clock went
//! into the preemption machinery itself (suspend writes + restores).
//! [`ThroughputStats`] computes those from a [`SweepSummary`];
//! [`bench_doc`] packages one run per thread count into the document
//! `ptatin ensemble bench=FILE` writes.

use crate::scheduler::{JobResult, SweepSummary};
use ptatin_prof::json::Value;

/// Schema tag of the ensemble bench document (checked by CI).
pub const ENSEMBLE_BENCH_SCHEMA: &str = "ptatin-ensemble-bench-v1";

/// Aggregated throughput/latency numbers for one sweep run.
#[derive(Clone, Debug)]
pub struct ThroughputStats {
    pub completed: usize,
    pub failed: usize,
    /// Jobs that consumed at least one crash retry.
    pub retried: usize,
    pub preemptions: usize,
    pub jobs_per_hour: f64,
    pub p50_job_seconds: f64,
    pub p99_job_seconds: f64,
    /// (suspend-write + restore time) / sweep wall time.
    pub preemption_overhead_frac: f64,
    pub wall_seconds: f64,
}

/// Nearest-rank percentile of `sorted` (ascending); 0 for an empty slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ThroughputStats {
    /// Aggregate a finished sweep.
    pub fn from_summary(s: &SweepSummary) -> Self {
        let completed: Vec<&JobResult> = s
            .results
            .iter()
            .filter(|r| r.outcome.is_success())
            .collect();
        let mut latencies: Vec<f64> = completed.iter().map(|r| r.latency_seconds).collect();
        latencies.sort_by(|a, b| a.total_cmp(b));
        let wall = s.wall_seconds.max(1e-9);
        Self {
            completed: completed.len(),
            failed: s.results.len() - completed.len(),
            retried: s.results.iter().filter(|r| r.retries > 0).count(),
            preemptions: s.total_preemptions,
            jobs_per_hour: completed.len() as f64 / (wall / 3600.0),
            p50_job_seconds: percentile(&latencies, 0.50),
            p99_job_seconds: percentile(&latencies, 0.99),
            preemption_overhead_frac: (s.preempt_seconds / wall).clamp(0.0, 1.0),
            wall_seconds: s.wall_seconds,
        }
    }

    /// The per-run JSON object embedded in the bench document.
    pub fn to_value(&self, nt: usize) -> Value {
        Value::obj(vec![
            ("nt", Value::Num(nt as f64)),
            ("completed", Value::Num(self.completed as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("retried", Value::Num(self.retried as f64)),
            ("preemptions", Value::Num(self.preemptions as f64)),
            ("jobs_per_hour", Value::Num(self.jobs_per_hour)),
            ("p50_job_seconds", Value::Num(self.p50_job_seconds)),
            ("p99_job_seconds", Value::Num(self.p99_job_seconds)),
            (
                "preemption_overhead_frac",
                Value::Num(self.preemption_overhead_frac),
            ),
            ("wall_seconds", Value::Num(self.wall_seconds)),
        ])
    }
}

/// Assemble the full `ptatin-ensemble-bench-v1` document: one entry in
/// `runs` per thread count.
pub fn bench_doc(git_rev: &str, jobs: usize, slice_steps: usize, runs: Vec<Value>) -> Value {
    Value::obj(vec![
        ("schema", Value::Str(ENSEMBLE_BENCH_SCHEMA.to_string())),
        ("git_rev", Value::Str(git_rev.to_string())),
        ("jobs", Value::Num(jobs as f64)),
        ("slice_steps", Value::Num(slice_steps as f64)),
        ("runs", Value::Arr(runs)),
    ])
}

/// Fixed-width human summary table of a sweep (the CLI epilogue).
pub fn summary_table(s: &SweepSummary) -> String {
    let agg = ThroughputStats::from_summary(s);
    let mut out = String::new();
    out.push_str(&format!(
        "jobs {:>5}  completed {:>5}  failed {:>3}  retried {:>3}  preemptions {:>4}\n",
        s.results.len(),
        agg.completed,
        agg.failed,
        agg.retried,
        agg.preemptions
    ));
    out.push_str(&format!(
        "wall {:.2}s  jobs/hour {:.1}  latency p50 {:.2}s p99 {:.2}s  preempt overhead {:.2}%\n",
        agg.wall_seconds,
        agg.jobs_per_hour,
        agg.p50_job_seconds,
        agg.p99_job_seconds,
        100.0 * agg.preemption_overhead_frac
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::JobOutcome;

    fn result(id: u64, outcome: JobOutcome, latency: f64, retries: usize) -> JobResult {
        JobResult {
            id,
            name: format!("j{id}"),
            outcome,
            steps_done: 1,
            slices: 1,
            preemptions: 0,
            retries,
            service_seconds: latency,
            latency_seconds: latency,
            flops: 100,
            final_state_hash: Some(1),
        }
    }

    #[test]
    fn aggregation_counts_and_percentiles() {
        let s = SweepSummary {
            results: vec![
                result(0, JobOutcome::Completed, 1.0, 0),
                result(1, JobOutcome::Completed, 2.0, 1),
                result(2, JobOutcome::Completed, 3.0, 0),
                result(3, JobOutcome::RetriesExhausted, 4.0, 3),
            ],
            wall_seconds: 3600.0,
            preempt_seconds: 36.0,
            total_preemptions: 5,
            total_slices: 9,
        };
        let agg = ThroughputStats::from_summary(&s);
        assert_eq!(agg.completed, 3);
        assert_eq!(agg.failed, 1);
        assert_eq!(agg.retried, 2);
        assert!((agg.jobs_per_hour - 3.0).abs() < 1e-12);
        assert!((agg.p50_job_seconds - 2.0).abs() < 1e-12);
        assert!((agg.p99_job_seconds - 3.0).abs() < 1e-12, "p99 = max of 3");
        assert!((agg.preemption_overhead_frac - 0.01).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
    }

    #[test]
    fn bench_doc_shape() {
        let s = SweepSummary {
            results: vec![result(0, JobOutcome::Completed, 1.0, 0)],
            wall_seconds: 10.0,
            preempt_seconds: 0.5,
            total_preemptions: 2,
            total_slices: 3,
        };
        let doc = bench_doc(
            "abc123",
            1,
            2,
            vec![ThroughputStats::from_summary(&s).to_value(4)],
        );
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some(ENSEMBLE_BENCH_SCHEMA)
        );
        let runs = doc.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("nt").unwrap().as_f64(), Some(4.0));
        // Round-trips through the JSON writer/parser.
        let text = doc.to_json();
        let back = ptatin_prof::json::parse(&text).unwrap();
        assert_eq!(back.get("jobs").unwrap().as_f64(), Some(1.0));
    }
}
