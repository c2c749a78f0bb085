#![forbid(unsafe_code)]

//! `ptatin-mg` — multigrid preconditioners (§III-C of the paper).
//!
//! * [`gmg`] — the geometric hierarchy: Chebyshev(Jacobi) smoothing,
//!   trilinear transfers, rediscretized or Galerkin coarse operators, and a
//!   pluggable coarsest-level solver,
//! * [`amg`] — smoothed-aggregation AMG (the GAMG/ML substitute) with
//!   rigid-body-mode near-nullspaces, used both as the distributed coarse
//!   solver of the geometric hierarchy and standalone (Table IV),
//! * [`nullspace`] — rigid-body-mode construction.

pub mod amg;
pub mod gmg;
pub mod nullspace;

pub use amg::{build_sa_amg, AmgConfig, AmgHierarchy, CoarseSolverKind, SmootherKind};
pub use gmg::{
    filter_transfer, galerkin_coarse, prolongation_handles, ArcOp, CycleType, GeometricMg,
    GmgCoarseSolver, GmgLevel,
};
pub use nullspace::{constant_mode, rigid_body_modes};
