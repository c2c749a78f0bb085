//! # ptatin-scenarios — the scenario registry and verification gates
//!
//! A config-file-driven registry of every workload the code knows how to
//! run. A scenario spec is a small text file (`key = value` lines) that
//! fully determines a [`Scenario`]: the model kind, domain, boundary
//! conditions, the rheology menu assignment of each material role, and
//! solver defaults. The same key set backs the ensemble sweep grammar,
//! so any scenario knob — including the viscous law of each material
//! role — can be a sweep axis.
//!
//! The crate also hosts the SolCx analytic verification gate
//! ([`verify`]): solve the sharp-viscosity-jump problem at a ladder of
//! resolutions, fit L² error rates, and fail if the discretization no
//! longer delivers its design order.
#![forbid(unsafe_code)]

pub mod registry;
pub mod run;
pub mod spec;
pub mod verify;

pub use registry::{builtins, Scenario};
pub use run::{run_scenario, RunSummary};
pub use spec::{
    parse_scenario, parse_scenario_file, parse_scenario_spec, ScenarioError, ScenarioProto,
    ScenarioSpec,
};
pub use verify::{run_gate, GateConfig, GateReport, GateSample};
