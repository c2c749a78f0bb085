#![forbid(unsafe_code)]

//! `ptatin-fem` — the mixed Q2–P1disc finite element discretization of the
//! variable-viscosity Stokes problem (§II-B of the paper), plus the Q1 SUPG
//! energy equation (§V).
//!
//! * [`basis`] — Q2 / Q1 / physical-coordinate P1disc bases,
//! * [`quadrature`] — 3×3×3 and 2×2×2 Gauss rules,
//! * [`geometry`] — trilinear isoparametric mapping, Jacobians, Newton
//!   inverse map,
//! * [`assemble`] — element kernels and global assembly of `J_uu`, `J_pu`,
//!   the (1/η-weighted) pressure mass matrix and body forces,
//! * [`pattern`] — the symbolic/numeric assembly split: frozen sparsity
//!   patterns with closed-form scatter addressing, enabling in-place
//!   numeric re-assembly after coefficient updates (DESIGN.md §13),
//! * [`bc`] — Dirichlet boundary conditions with symmetric elimination,
//! * [`energy`] — the SUPG-stabilized advection–diffusion step.

pub mod assemble;
pub mod basis;
pub mod bc;
pub mod energy;
pub mod geometry;
pub mod pattern;
pub mod quadrature;

pub use assemble::{
    assemble_body_force, assemble_gradient, assemble_pressure_mass, assemble_viscous,
    element_gradient_matrix, element_pressure_mass, element_viscous_matrix, num_pressure_dofs,
    num_velocity_dofs, PressureMassBlocks, Q2QuadTables,
};
pub use bc::{DirichletBc, VelocityBcBuilder};
pub use quadrature::Quadrature;
