//! The four workloads and the runner that measures one of them in this
//! process.
//!
//! A repetition is what a user of the CLI pays: set-up (config → ready to
//! iterate), the steady-state work, and the result files. The runner
//! repeats it for the requested number of seconds (closed loop, one
//! client) and reports per timing metric the fastest repetition, in
//! seconds as measured. On this shared host interference comes in bursts
//! of 5–30 s and only ever adds time, so the fastest repetition is the one
//! least disturbed: over a nine-minute log of a fixed 2 s solve the
//! minimum of a run spread half as wide from run to run as its lower
//! quartile and a third as wide as its median. The spread is then taken
//! across runs.

pub mod ensemble;
pub mod rift;
pub mod sinker;
pub mod swarm;

use crate::host;
use crate::stats;
use crate::trace::{self, Recorder, Span};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type Layers = BTreeMap<&'static str, f64>;

/// (name, value, unit).
pub type Metric = (String, f64, &'static str);

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    /// Shrunk sizes: plumbing test only, never recorded.
    pub smoke: bool,
    /// Directory for VTK files and checkpoints; emptied between reps.
    pub scratch: PathBuf,
}

/// Output checks of a run: every repetition, step and job that was
/// checked counts as attempted, every one that did not pass as failed.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.messages.push(format!("{failed}/{n} {what}"));
        }
    }

    /// One attempted operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.count(1, u64::from(!ok), what);
    }
}

/// Steady-state part of a repetition as the workload reports it.
pub struct Iterated<S> {
    /// The workload's unit of work in seconds (solve, Newton iteration,
    /// mean step, median job service per step).
    pub step_s: f64,
    /// Live state the probes run on.
    pub state: S,
}

pub trait Workload {
    /// Everything built before iterating.
    type Ready;
    /// What is alive after a repetition, for checks and probes.
    type State;

    fn name(&self) -> &'static str;

    /// Config → ready to iterate.
    fn setup(&self, rec: &mut Recorder) -> Self::Ready;

    /// The steady-state work and the result files.
    fn iterate(&self, ready: Self::Ready, rec: &mut Recorder) -> Iterated<Self::State>;

    /// Output checks; outside the repetition's wall time.
    fn check(&self, state: &Self::State, checks: &mut Checks);

    /// Per-layer metrics of the traced repetition: from its spans and
    /// from probes on its live state.
    fn layers(&self, state: &Self::State, spans: &[Span], out: &mut Layers);
}

/// Timings of one repetition as measured, and the host's speed just
/// before it.
#[derive(Clone, Copy, Debug)]
pub struct RepTimes {
    pub wall_s: f64,
    pub setup_s: f64,
    pub step_s: f64,
    pub cpu_s: f64,
    pub host_probe_s: f64,
}

/// The result of one run (one process, one workload).
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced),
    /// by the names `BENCHMARK.json` declares.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines beyond the contract's metrics: shares, counts, host state.
    pub extra: Vec<Metric>,
    /// Spans of the traced repetition the layers were taken from.
    pub spans: Vec<Span>,
}

fn clear_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create scratch directory");
}

fn one_rep<W: Workload>(
    w: &W,
    scratch: &Path,
    rec: &mut Recorder,
    rep: u32,
    checks: &mut Checks,
) -> (RepTimes, W::State) {
    clear_dir(scratch);
    rec.begin_rep(rep);
    let host_probe_s = host::speed_probe();
    let cpu0 = host::cpu_seconds().unwrap_or(0.0);
    // The workload's layer spans are direct children of `rep`.
    let ((setup_s, it), wall_s) = rec.span("rep", |rec| {
        let t = Instant::now();
        let ready = w.setup(rec);
        let setup_s = t.elapsed().as_secs_f64();
        (setup_s, w.iterate(ready, rec))
    });
    let cpu_s = host::cpu_seconds().unwrap_or(0.0) - cpu0;
    w.check(&it.state, checks);
    let times = RepTimes {
        wall_s,
        setup_s,
        step_s: it.step_s,
        cpu_s,
        host_probe_s,
    };
    eprintln!(
        "{} rep {rep}: wall {wall_s:.4} s, host probe {:.3} ms",
        w.name(),
        host_probe_s * 1e3
    );
    (times, it.state)
}

/// Repeat until `seconds` have passed and at least `min_reps` times.
fn repeat<W: Workload>(
    w: &W,
    p: &Params,
    rec: &mut Recorder,
    seconds: f64,
    min_reps: usize,
    checks: &mut Checks,
    mut keep: impl FnMut(&RepTimes, W::State, &mut Recorder),
) -> Vec<RepTimes> {
    let t0 = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || t0.elapsed().as_secs_f64() < seconds {
        let (t, state) = one_rep(w, &p.scratch, rec, times.len() as u32, checks);
        keep(&t, state, rec);
        times.push(t);
    }
    times
}

fn fastest(times: &[RepTimes], column: impl Fn(&RepTimes) -> f64) -> f64 {
    times.iter().map(column).fold(f64::INFINITY, f64::min)
}

/// `failed ÷ attempted` and the host's state during the repetitions
/// (see [`host::speed_probe`]): context for a reader, not metrics.
fn context(checks: &Checks, times: &[RepTimes]) -> Vec<Metric> {
    let probes: Vec<f64> = times.iter().map(|t| t.host_probe_s * 1e3).collect();
    vec![
        ("reps".to_string(), times.len() as f64, "count"),
        (
            "failed_frac".to_string(),
            checks.failed as f64 / checks.attempted.max(1) as f64,
            "ratio",
        ),
        ("host_probe_ms".to_string(), stats::median(&probes), "ms"),
    ]
}

/// An untraced run: the end-to-end metrics.
pub fn run_timed<W: Workload>(w: &W, p: &Params, seconds: f64) -> RunResult {
    let mut checks = Checks::default();
    let mut rec = Recorder::new(false);
    // A few chances at an undisturbed repetition even when the host is so
    // slow that the window holds only one or two.
    let min_reps = if p.smoke { 1 } else { 3 };
    let times = repeat(w, p, &mut rec, seconds, min_reps, &mut checks, |_, _, _| {});
    clear_dir(&p.scratch);
    let metrics = BTreeMap::from([
        ("wall_s", fastest(&times, |t| t.wall_s)),
        ("setup_s", fastest(&times, |t| t.setup_s)),
        ("step_s", fastest(&times, |t| t.step_s)),
        ("cpu_s", fastest(&times, |t| t.cpu_s)),
        ("peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0)),
    ]);
    RunResult {
        extra: context(&checks, &times),
        attempted: checks.attempted,
        failed: checks.failed,
        messages: checks.messages,
        metrics,
        spans: Vec::new(),
    }
}

/// Least share of a traced repetition its spans must account for.
pub const MIN_COVERAGE: f64 = 0.95;

/// A traced run: untraced repetitions for half of the time, traced ones
/// for the other half (their difference is the tracing overhead), then
/// probes on the live state of the fastest traced repetition.
pub fn run_traced<W: Workload>(w: &W, p: &Params, seconds: f64) -> RunResult {
    let mut checks = Checks::default();
    let mut off = Recorder::new(false);
    let plain = repeat(w, p, &mut off, 0.5 * seconds, 1, &mut checks, |_, _, _| {});
    let mut on = Recorder::new(true);
    let mut best: Option<(RepTimes, W::State, Vec<Span>)> = None;
    let traced = repeat(
        w,
        p,
        &mut on,
        0.5 * seconds,
        1,
        &mut checks,
        |t, state, rec| {
            if best.as_ref().is_none_or(|b| t.wall_s < b.0.wall_s) {
                best = Some((*t, state, rec.take_spans()));
            }
        },
    );
    let (_, state, spans) = best.expect("at least one traced repetition");
    let mut layers = Layers::new();
    w.layers(&state, &spans, &mut layers);
    drop(state);
    clear_dir(&p.scratch);

    let root = spans
        .iter()
        .position(|s| s.parent.is_none())
        .expect("the repetition's root span");
    let validated = trace::validate_coverage(&spans, root, MIN_COVERAGE);
    checks.check(
        validated.is_ok(),
        validated.as_ref().err().map_or("", String::as_str),
    );
    layers.insert("trace.coverage_frac", trace::coverage_frac(&spans, root));
    let plain_wall = fastest(&plain, |t| t.wall_s);
    layers.insert(
        "trace.overhead_frac",
        (fastest(&traced, |t| t.wall_s) - plain_wall) / plain_wall,
    );

    let mut extra: Vec<Metric> = trace::self_shares(&spans, root)
        .into_iter()
        .take(8)
        .map(|(name, share)| (format!("share.{name}"), share, "ratio"))
        .collect();
    let all: Vec<RepTimes> = plain.iter().chain(&traced).copied().collect();
    extra.extend(context(&checks, &all));
    RunResult {
        attempted: checks.attempted,
        failed: checks.failed,
        messages: checks.messages,
        metrics: layers,
        extra,
        spans,
    }
}

/// Copy the total time of each named span into its layer metric.
pub fn spans_to_layers(spans: &[Span], pairs: &[(&'static str, &str)], out: &mut Layers) {
    for &(metric, span) in pairs {
        out.insert(metric, trace::total_seconds(spans, span));
    }
}

/// Median seconds of `f` over `n` calls.
pub fn probe_seconds(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Total size of the files just written.
pub fn file_bytes(files: &[PathBuf]) -> u64 {
    files
        .iter()
        .map(|f| std::fs::metadata(f).map_or(0, |m| m.len()))
        .sum()
}

/// Encode, write and read back one checkpoint of `model` under `dir`.
pub fn ckpt_probe(model: &ptatin3d::core::models::rift::RiftModel, dir: &Path, out: &mut Layers) {
    use ptatin3d::ckpt::Checkpoint;
    let ck = model.to_checkpoint();
    let mut bytes = Vec::new();
    out.insert("ckpt.encode_s", probe_seconds(5, || bytes = ck.to_bytes()));
    let path = dir.join("probe.ptck");
    let write_s = probe_seconds(5, || ck.write_to(&path).expect("write checkpoint"));
    out.insert("ckpt.write_s", write_s);
    out.insert(
        "ckpt.read_s",
        probe_seconds(5, || {
            drop(Checkpoint::read_from(&path).expect("read checkpoint"))
        }),
    );
    out.insert("ckpt.bytes", bytes.len() as f64);
    out.insert("ckpt.write_mb_s", bytes.len() as f64 / write_s / 1e6);
    let _ = std::fs::remove_file(&path);
}
