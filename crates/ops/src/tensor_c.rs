//! "Tensor C" — the variant of the tensor-product kernel that precomputes
//! the geometry–coefficient product at every quadrature point (§III-D,
//! final paragraph, and the last row of Table I).
//!
//! The paper stores the symmetrized rank-4 tensor
//! `(∇ξ)ᵀ (ωη) (∇ξ)` (21 distinct entries). We store an equivalent
//! factored form — the symmetric 3×3 `K[d][e] = ωη|J| Σ_l Jinv[d][l]
//! Jinv[e][l]` (6 entries), the scaled inverse Jacobian `G = ωη|J| Jinv`
//! (9 entries) and its normalization (1 entry), 16 scalars per point — so
//! the apply does the same work with slightly less streamed data. Per the
//! paper this variant is "little benefit for the present [isotropic]
//! problem"; it is included to reproduce Table I.

use crate::data::{MaskScratch, ViscousOpData, NQP};
use crate::kernels::{for_each_element_colored, q1_grad_tables, qp_jacobian, ColorScatter};
use crate::tensor::{ref_derivative, ref_derivative_adjoint_add, Tensor1d};
use ptatin_fem::assemble::Q2QuadTables;
use ptatin_la::operator::LinearOperator;
use ptatin_prof as prof;
use std::sync::Arc;

/// Precomputed per-quadrature-point coefficient of the TensorC kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct QpCoeff {
    /// Symmetric metric `K[d][e] = ωη|J| (Jinv Jinvᵀ)[d][e]`, packed
    /// `[00, 11, 22, 12, 02, 01]`.
    pub k: [f64; 6],
    /// `G = ωη|J| · Jinv` (maps reference gradients, coefficient included).
    pub g: [[f64; 3]; 3],
    /// `1 / (ωη|J|)` — recovers the raw `Jinv` in the cross term.
    pub s: f64,
}

/// Tensor-product kernel with stored geometry⊗coefficient tensors.
pub struct TensorCViscousOp {
    pub data: Arc<ViscousOpData>,
    tables: Q2QuadTables,
    t1d: Tensor1d,
    coeffs: Vec<QpCoeff>,
    scratch: MaskScratch,
}

impl TensorCViscousOp {
    /// Precomputes `nel × 27` coefficient tensors (the storage cost the
    /// paper highlights: data per element grows from ~1 kB to ~5 kB).
    pub fn new(data: Arc<ViscousOpData>) -> Self {
        assert!(
            data.newton.is_none(),
            "TensorC stores the Picard coefficient only (paper §III-D)"
        );
        let tables = Q2QuadTables::standard();
        let q1g = q1_grad_tables(&tables.quad.points);
        let mut coeffs = vec![QpCoeff::default(); data.nel * NQP];
        for e in 0..data.nel {
            let corners = &data.corners[e];
            let eta = data.element_eta(e);
            for q in 0..NQP {
                let (jinv, wdet) = qp_jacobian(corners, &q1g[q], tables.quad.weights[q]);
                let w = eta[q] * wdet;
                let mut g = [[0.0; 3]; 3];
                for d in 0..3 {
                    for l in 0..3 {
                        g[d][l] = w * jinv[d][l];
                    }
                }
                let kk = |d: usize, ee: usize| {
                    w * (jinv[d][0] * jinv[ee][0]
                        + jinv[d][1] * jinv[ee][1]
                        + jinv[d][2] * jinv[ee][2])
                };
                coeffs[e * NQP + q] = QpCoeff {
                    k: [kk(0, 0), kk(1, 1), kk(2, 2), kk(1, 2), kk(0, 2), kk(0, 1)],
                    g,
                    s: 1.0 / w,
                };
            }
        }
        Self {
            data,
            tables,
            t1d: Tensor1d::gauss3(),
            coeffs,
            scratch: MaskScratch::new(),
        }
    }

    fn apply_add(&self, x: &[f64], y: &mut [f64]) {
        let data = &self.data;
        let scatter = ColorScatter::new(y);
        for_each_element_colored(data, |e| {
            let nodes = data.element_nodes(e);
            let mut ue = [[0.0f64; 27]; 3];
            for (i, &n) in nodes.iter().enumerate() {
                let b = 3 * n as usize;
                ue[0][i] = x[b];
                ue[1][i] = x[b + 1];
                ue[2][i] = x[b + 2];
            }
            let mut ederiv = [[[0.0f64; 27]; 3]; 3];
            for d in 0..3 {
                for c in 0..3 {
                    ref_derivative(&self.t1d, d, &ue[c], &mut ederiv[d][c]);
                }
            }
            let mut what = [[[0.0f64; 27]; 3]; 3];
            for q in 0..NQP {
                let cf = &self.coeffs[e * NQP + q];
                // Unpack symmetric K.
                let k = [
                    [cf.k[0], cf.k[5], cf.k[4]],
                    [cf.k[5], cf.k[1], cf.k[3]],
                    [cf.k[4], cf.k[3], cf.k[2]],
                ];
                // E[d][c] = ∂u_c/∂ξ_d at this point.
                let mut eref = [[0.0f64; 3]; 3];
                for d in 0..3 {
                    for c in 0..3 {
                        eref[d][c] = ederiv[d][c][q];
                    }
                }
                // Ŵ[d][c] = Σ_e K[d][e] E[e][c]
                //         + Σ_e G[e][c] · s · (Σ_l G[d][l] E[e][l])
                // (the two halves of σ = η(∇u + ∇uᵀ) mapped to reference space).
                for d in 0..3 {
                    // P[e] = s · Σ_l G[d][l] E[e][l] = Σ_l Jinv[d][l] E[e][l]
                    let mut p = [0.0f64; 3];
                    for ee in 0..3 {
                        p[ee] = cf.s
                            * (cf.g[d][0] * eref[ee][0]
                                + cf.g[d][1] * eref[ee][1]
                                + cf.g[d][2] * eref[ee][2]);
                    }
                    for c in 0..3 {
                        let mut w = 0.0;
                        for ee in 0..3 {
                            w += k[d][ee] * eref[ee][c] + cf.g[ee][c] * p[ee];
                        }
                        what[d][c][q] = w;
                    }
                }
            }
            let mut re = [[0.0f64; 27]; 3];
            for d in 0..3 {
                for c in 0..3 {
                    ref_derivative_adjoint_add(&self.t1d, d, &what[d][c], &mut re[c]);
                }
            }
            for (i, &n) in nodes.iter().enumerate() {
                let b = 3 * n as usize;
                // SAFETY: node indices are in-bounds by construction and
                // elements of one colour share no nodes, so concurrent
                // pieces write disjoint dofs (ColorScatter's contract).
                unsafe {
                    scatter.add(b, re[0][i]);
                    scatter.add(b + 1, re[1][i]);
                    scatter.add(b + 2, re[2][i]);
                }
            }
        });
    }
}

impl LinearOperator for TensorCViscousOp {
    fn nrows(&self) -> usize {
        self.data.ndof
    }
    fn ncols(&self) -> usize {
        self.data.ndof
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let _ev = prof::scope("MatMult_TensorC");
        let model = crate::counts::tensor_c_model();
        prof::log_flops(model.flops * self.data.nel as u64);
        prof::log_bytes(model.bytes_perfect * self.data.nel as u64);
        y.fill(0.0);
        if self.data.constrained.is_empty() {
            self.apply_add(x, y);
        } else {
            self.scratch
                .with_masked(&self.data, x, |xm| self.apply_add(xm, y));
            self.data.finish_masked(x, y);
        }
    }
    fn diagonal(&self) -> Option<Vec<f64>> {
        let q1g = q1_grad_tables(&self.tables.quad.points);
        Some(crate::diag::matrix_free_diagonal(
            &self.data,
            &self.tables,
            &q1g,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mf::MfViscousOp;
    use ptatin_fem::bc::DirichletBc;
    use ptatin_mesh::StructuredMesh;

    #[test]
    fn tensor_c_matches_mf() {
        let mut mesh = StructuredMesh::new_box(2, 2, 3, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        mesh.deform(|c| [c[0] + 0.05 * c[2], c[1] - 0.03 * c[0] * c[0], c[2]]);
        let eta: Vec<f64> = (0..mesh.num_elements() * NQP)
            .map(|i| 1.0 + ((i * 17) % 11) as f64)
            .collect();
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &DirichletBc::new()));
        let mf = MfViscousOp::new(data.clone());
        let tc = TensorCViscousOp::new(data);
        let n = mf.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.211).cos()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        mf.apply(&x, &mut y1);
        tc.apply(&x, &mut y2);
        let scale = 1.0 + y1.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            assert!(
                (y1[i] - y2[i]).abs() < 1e-10 * scale,
                "dof {i}: {} vs {}",
                y1[i],
                y2[i]
            );
        }
    }

    #[test]
    fn tensor_c_masked() {
        let mesh = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let eta = vec![2.0; mesh.num_elements() * NQP];
        let mut bc = DirichletBc::new();
        for nn in mesh.boundary_nodes(2, false) {
            bc.set(3 * nn + 2, 0.0);
        }
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &bc));
        let mf = MfViscousOp::new(data.clone());
        let tc = TensorCViscousOp::new(data);
        let n = mf.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i % 9) as f64 - 4.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        mf.apply(&x, &mut y1);
        tc.apply(&x, &mut y2);
        for i in 0..n {
            assert!(
                (y1[i] - y2[i]).abs() < 1e-10 * (1.0 + y1[i].abs()),
                "dof {i}"
            );
        }
    }
}
