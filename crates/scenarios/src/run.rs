//! Run any registry scenario to completion and reduce it to a small,
//! uniform summary — the execution layer shared by the CLI `scenario`
//! subcommand and the ensemble scheduler's non-preemptible job kinds.

use crate::registry::Scenario;
use ptatin_core::models::falling_block::FallingBlockModel;
use ptatin_core::models::rift::RiftModel;
use ptatin_core::models::shear_band::ShearBandModel;
use ptatin_core::models::sinker::SinkerModel;
use ptatin_core::models::solcx::SolCxModel;
use ptatin_core::recovery::{run_rift_with, RunConfig, RunControl, RunOutcome};

/// Uniform result of one scenario run: convergence, iteration effort and
/// a list of named scalar metrics (what they are depends on the kind).
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Scenario kind label (`"solcx"`, …).
    pub kind: &'static str,
    pub converged: bool,
    /// Total solver iterations (Krylov for the linear solves, nonlinear
    /// iterations for the nonlinear ones; committed steps for rift).
    pub iterations: usize,
    pub metrics: Vec<(String, f64)>,
    /// Failure description when the run could not complete (I/O or
    /// solver abort); `converged` is false in that case.
    pub error: Option<String>,
}

impl RunSummary {
    /// Metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

fn m(name: &str, v: f64) -> (String, f64) {
    (name.to_string(), v)
}

/// Run a scenario to completion. `steps` is the committed-step budget for
/// the time-dependent rift runs and is ignored by the steady solves.
pub fn run_scenario(scenario: &Scenario, steps: usize) -> RunSummary {
    match scenario {
        Scenario::Rift(cfg) => {
            let mut model = RiftModel::new(cfg.clone());
            let run = RunConfig {
                steps,
                checkpoint_every: None,
                checkpoint_dir: None,
            };
            match run_rift_with(&mut model, &run, RunControl { yield_now: None }) {
                Ok(report) => {
                    let committed = report.steps.len();
                    let completed = matches!(report.outcome, RunOutcome::Completed);
                    let krylov: usize = report.steps.iter().map(|s| s.total_krylov).sum();
                    RunSummary {
                        kind: "rift",
                        converged: completed,
                        iterations: committed,
                        metrics: vec![
                            m("steps_committed", committed as f64),
                            m("total_krylov", krylov as f64),
                            m("time", model.time),
                        ],
                        error: None,
                    }
                }
                Err(e) => RunSummary {
                    kind: "rift",
                    converged: false,
                    iterations: 0,
                    metrics: Vec::new(),
                    error: Some(e.to_string()),
                },
            }
        }
        Scenario::Sinker(cfg) => {
            let sol = SinkerModel::new(cfg.clone()).solve();
            let (w_min, w_max) = sol.w_range();
            RunSummary {
                kind: "sinker",
                converged: sol.stats.converged,
                iterations: sol.stats.iterations,
                metrics: vec![
                    m("final_residual", sol.stats.final_residual),
                    m("w_min", w_min),
                    m("w_max", w_max),
                ],
                error: None,
            }
        }
        Scenario::SolCx(cfg) => {
            let model = SolCxModel::new(cfg.clone());
            let report = model.solve();
            RunSummary {
                kind: "solcx",
                converged: report.stats.converged,
                iterations: report.stats.iterations,
                metrics: vec![
                    m("velocity_l2", report.errors.velocity_l2),
                    m("pressure_l2", report.errors.pressure_l2),
                    m("h", report.h),
                    m("final_residual", report.stats.final_residual),
                ],
                error: None,
            }
        }
        Scenario::ShearBand(cfg) => {
            let model = ShearBandModel::new(cfg.clone());
            let report = model.solve();
            RunSummary {
                kind: "shear_band",
                converged: report.stats.outcome.is_acceptable(),
                iterations: report.stats.iterations,
                metrics: vec![
                    m("yielded_fraction", report.yielded_fraction),
                    m("localization", report.localization),
                    m("total_krylov", report.stats.total_krylov as f64),
                ],
                error: None,
            }
        }
        Scenario::FallingBlock(cfg) => {
            let model = FallingBlockModel::new(cfg.clone());
            let report = model.solve();
            RunSummary {
                kind: "falling_block",
                converged: report.stats.outcome.is_acceptable(),
                iterations: report.stats.iterations,
                metrics: vec![
                    m("block_sink_velocity", report.block_sink_velocity),
                    m("eta_contrast", report.eta_contrast),
                    m("total_krylov", report.stats.total_krylov as f64),
                ],
                error: None,
            }
        }
    }
}
