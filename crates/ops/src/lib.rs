//! `ptatin-ops` — the four applications of the viscous operator `J_uu`
//! analysed in §III-D and Table I of the paper:
//!
//! * [`asmb`] — **Asmb**: SpMV over the assembled CSR matrix (memory-bound,
//!   ~192 nonzeros per row for the Q2 discretization),
//! * [`mf`] — **MF**: the non-tensor matrix-free reference kernel
//!   (~54k flops/element, ~1 kB/element streamed),
//! * [`tensor`] — **Tensor**: the sum-factorized kernel exploiting the
//!   `D̃⊗B̃⊗B̃` structure of the Q2 reference gradient (~15k flops/element),
//! * [`tensor_c`] — **Tensor C**: stores the geometry–coefficient product
//!   at quadrature points, trading memory for metric-term flops,
//! * [`batch`] — **TensB**: the cross-element SIMD variant (§III-E) that
//!   applies the sum-factorized kernel to lanes of 4 elements at once
//!   (AVX2+FMA with a bitwise-identical portable fallback).
//!
//! All five implement [`ptatin_la::LinearOperator`], are interchangeable in
//! every solver, and agree to machine precision (enforced by tests). The
//! matrix-free variants handle Dirichlet constraints by masking, matching
//! symmetric assembled elimination; [`diag`] provides the operator diagonal
//! matrix-free for Chebyshev/Jacobi smoothing; [`counts`] carries the
//! analytic flop/byte models behind Table I; [`data`] holds the shared
//! element inputs, including the Newton linearization coefficient of
//! §III-A.

pub mod asm_batch;
pub mod asmb;
pub mod batch;
pub mod counts;
pub mod data;
pub mod diag;
pub mod kernels;
pub mod mf;
pub mod tensor;
pub mod tensor_c;

pub use asm_batch::{
    assemble_gradient_batched, assemble_viscous_batched, galerkin_q1_numeric_batched_into,
    pressure_mass_blocks_batched, viscous_numeric_batched_into,
};
pub use asmb::assembled_viscous_op;
pub use batch::{
    avx2_fma_available, detected_simd_path, BatchedGeometry, BatchedViscousOp, SimdPath,
};
pub use counts::{
    assembled_model, diagonal_model, divergence_batched_model, mf_model, paper_models,
    stokes_batched_model, tensor_batched_model, tensor_c_model, tensor_model, OperatorModel,
};
pub use data::{MaskScratch, NewtonData, ViscousOpData, NQP};
pub use diag::{matrix_free_diagonal, viscous_diagonal};
pub use mf::MfViscousOp;
pub use tensor::TensorViscousOp;
pub use tensor_c::TensorCViscousOp;

/// Which operator application backs a solver component — the axis swept in
/// Tables I–III of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OperatorKind {
    Assembled,
    MatrixFree,
    Tensor,
    TensorC,
    /// Cross-element SIMD batching of the tensor kernel (§III-E).
    TensorBatched,
}

impl OperatorKind {
    pub fn label(&self) -> &'static str {
        match self {
            OperatorKind::Assembled => "Asmb",
            OperatorKind::MatrixFree => "MF",
            OperatorKind::Tensor => "Tens",
            OperatorKind::TensorC => "TensC",
            OperatorKind::TensorBatched => "TensB",
        }
    }
}

use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::bc::DirichletBc;
use ptatin_la::operator::LinearOperator;
use ptatin_mesh::StructuredMesh;
use std::sync::Arc;

/// Build a viscous operator of the requested kind, boxed behind the common
/// trait (the swap point for the Asmb/MF/Tens comparisons).
pub fn build_viscous_operator(
    kind: OperatorKind,
    mesh: &StructuredMesh,
    eta: Vec<f64>,
    bc: &DirichletBc,
) -> Box<dyn LinearOperator + Send + Sync> {
    match kind {
        OperatorKind::Assembled => {
            let tables = Q2QuadTables::standard();
            Box::new(assembled_viscous_op(mesh, &tables, &eta, bc))
        }
        OperatorKind::MatrixFree => {
            let data = Arc::new(ViscousOpData::new(mesh, eta, bc));
            Box::new(MfViscousOp::new(data))
        }
        OperatorKind::Tensor => {
            let data = Arc::new(ViscousOpData::new(mesh, eta, bc));
            Box::new(TensorViscousOp::new(data))
        }
        OperatorKind::TensorC => {
            let data = Arc::new(ViscousOpData::new(mesh, eta, bc));
            Box::new(TensorCViscousOp::new(data))
        }
        OperatorKind::TensorBatched => {
            let data = Arc::new(ViscousOpData::new(mesh, eta, bc));
            Box::new(BatchedViscousOp::new(data))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_agree() {
        let mesh = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let eta: Vec<f64> = (0..mesh.num_elements() * NQP)
            .map(|i| 1.0 + ((i * 29) % 13) as f64)
            .collect();
        let bc = DirichletBc::new();
        let kinds = [
            OperatorKind::Assembled,
            OperatorKind::MatrixFree,
            OperatorKind::Tensor,
            OperatorKind::TensorC,
            OperatorKind::TensorBatched,
        ];
        let ops: Vec<_> = kinds
            .iter()
            .map(|&k| build_viscous_operator(k, &mesh, eta.clone(), &bc))
            .collect();
        let n = ops[0].nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut yref = vec![0.0; n];
        ops[0].apply(&x, &mut yref);
        for (op, kind) in ops.iter().zip(&kinds).skip(1) {
            let mut y = vec![0.0; n];
            op.apply(&x, &mut y);
            for i in 0..n {
                assert!(
                    (y[i] - yref[i]).abs() < 1e-9 * (1.0 + yref[i].abs()),
                    "{} dof {i}",
                    kind.label()
                );
            }
        }
    }
}
