#![forbid(unsafe_code)]

//! `ptatin-core` — the pTatin3D application layer: coupled Stokes solves
//! with hybrid multigrid preconditioning, material-point coefficient
//! pipelines, nonlinear (Picard/Newton) drivers, time stepping with ALE
//! free surfaces, and the paper's model problems.

pub mod coefficients;
pub mod models;
pub mod nonlinear;
pub mod output;
pub mod recovery;
pub mod solver;
pub mod timestep;

pub use coefficients::{update_coefficients, CoefficientFields, StateFields};
pub use nonlinear::{classify_outcome, NonlinearConfig, NonlinearOutcome, NonlinearStats};
pub use ptatin_mg::CycleType;
pub use recovery::{run_rift, RunConfig, RunOutcome, RunReport};
pub use solver::{
    BlockLowerTriangularPc, CoarseKind, GmgConfig, KrylovOperatorChoice, StokesOperator,
    StokesSolver,
};
