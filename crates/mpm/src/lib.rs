#![forbid(unsafe_code)]

//! `ptatin-mpm` — the material-point method of §II-C/§II-D of the paper:
//! Lagrangian tracking of rock lithology and history variables, projection
//! of point properties to FEM coefficient fields, advection through the
//! Stokes velocity, subdomain migration, and population control.
//!
//! * [`points`] — SoA point swarm and lattice seeding,
//! * [`locate`] — point location (hint walk + background grid + Newton
//!   inverse trilinear map),
//! * [`projection`] — the local L² projection of Eq. (12) and quadrature
//!   interpolation of Eq. (13) (plus a log-space variant for viscosity),
//! * [`advect`] — RK2 advection and ALE relocation,
//! * [`migrate`] — the L_s/L_r subdomain exchange of §II-D,
//! * [`population`] — injection/thinning of degenerate point clouds.

pub mod advect;
pub mod locate;
pub mod migrate;
pub mod points;
pub mod population;
pub mod projection;

pub use advect::{advect_rk2, cull_lost, reclaim_lost, relocate_all, AdvectionStats};
pub use locate::{locate_point, ElementLocator};
pub use migrate::{MigrationStats, SubdomainSwarms};
pub use points::{seed_regular, MaterialPoints, PointState};
pub use population::{control_population, element_counts, PopulationConfig, PopulationStats};
pub use projection::{
    coarsen_corner_field, corners_to_quadrature, corners_to_quadrature_log, interpolate_velocity,
    project_to_corners,
};
