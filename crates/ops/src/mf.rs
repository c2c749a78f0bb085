//! The reference (non-tensor) matrix-free operator application — "MF" in
//! Tables I–III of the paper.
//!
//! Per element: gather state, evaluate geometry and all 27 physical basis
//! gradients at each of the 27 quadrature points, form `∇u`, apply the
//! weighted stress and scatter `∫ σ : ∇φ_i`. No factorization of the
//! reference gradient matrix is exploited, so the flop count is ~3.5× the
//! tensor-product version (≈54k vs ≈15k flops/element) while streaming the
//! same ~1 kB of element data.

use crate::data::{MaskScratch, ViscousOpData, NQP};
use crate::kernels::{
    for_each_element_colored, q1_grad_tables, qp_jacobian, weighted_stress, ColorScatter,
};
use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::basis::NQ2;
use ptatin_la::operator::LinearOperator;
use ptatin_prof as prof;
use std::sync::Arc;

/// Matrix-free viscous operator (reference implementation).
pub struct MfViscousOp {
    pub data: Arc<ViscousOpData>,
    tables: Q2QuadTables,
    q1g: Vec<[[f64; 3]; 8]>,
    scratch: MaskScratch,
}

impl MfViscousOp {
    pub fn new(data: Arc<ViscousOpData>) -> Self {
        let tables = Q2QuadTables::standard();
        let q1g = q1_grad_tables(&tables.quad.points);
        Self {
            data,
            tables,
            q1g,
            scratch: MaskScratch::new(),
        }
    }

    /// Unmasked application `y += A x` over all elements (no BC handling).
    fn apply_add(&self, x: &[f64], y: &mut [f64]) {
        let data = &self.data;
        let scatter = ColorScatter::new(y);
        for_each_element_colored(data, |e| {
            let nodes = data.element_nodes(e);
            let corners = &data.corners[e];
            let eta = data.element_eta(e);
            // Gather element state.
            let mut ue = [[0.0f64; 3]; NQ2];
            for (i, &n) in nodes.iter().enumerate() {
                let b = 3 * n as usize;
                ue[i] = [x[b], x[b + 1], x[b + 2]];
            }
            let mut re = [[0.0f64; 3]; NQ2];
            let mut gphi = [[0.0f64; 3]; NQ2];
            for q in 0..NQP {
                let (jinv, wdet) = qp_jacobian(corners, &self.q1g[q], self.tables.quad.weights[q]);
                // Physical gradients and velocity gradient.
                let mut gradu = [[0.0f64; 3]; 3];
                for i in 0..NQ2 {
                    let gr = self.tables.grad[q][i];
                    let g = [
                        jinv[0][0] * gr[0] + jinv[1][0] * gr[1] + jinv[2][0] * gr[2],
                        jinv[0][1] * gr[0] + jinv[1][1] * gr[1] + jinv[2][1] * gr[2],
                        jinv[0][2] * gr[0] + jinv[1][2] * gr[1] + jinv[2][2] * gr[2],
                    ];
                    gphi[i] = g;
                    let u = ue[i];
                    for c in 0..3 {
                        gradu[c][0] += u[c] * g[0];
                        gradu[c][1] += u[c] * g[1];
                        gradu[c][2] += u[c] * g[2];
                    }
                }
                let newton = data.newton.as_ref().map(|nd| (nd, e * NQP + q));
                let sigma = weighted_stress(&gradu, eta[q], newton, wdet);
                for i in 0..NQ2 {
                    let g = gphi[i];
                    for c in 0..3 {
                        re[i][c] += sigma[c][0] * g[0] + sigma[c][1] * g[1] + sigma[c][2] * g[2];
                    }
                }
            }
            // Scatter (colour-disjoint).
            for (i, &n) in nodes.iter().enumerate() {
                let b = 3 * n as usize;
                // SAFETY: node indices are in-bounds by construction and
                // elements of one colour share no nodes, so concurrent
                // pieces write disjoint dofs (ColorScatter's contract).
                unsafe {
                    scatter.add(b, re[i][0]);
                    scatter.add(b + 1, re[i][1]);
                    scatter.add(b + 2, re[i][2]);
                }
            }
        });
    }
}

impl LinearOperator for MfViscousOp {
    fn nrows(&self) -> usize {
        self.data.ndof
    }
    fn ncols(&self) -> usize {
        self.data.ndof
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let _ev = prof::scope("MatMult_MF");
        let model = crate::counts::mf_model();
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
        Some(crate::diag::matrix_free_diagonal(
            &self.data,
            &self.tables,
            &self.q1g,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ViscousOpData;
    use ptatin_fem::assemble::assemble_viscous;
    use ptatin_fem::bc::DirichletBc;
    use ptatin_mesh::StructuredMesh;

    fn random_like(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 2654435761usize) % 1000) as f64 / 500.0 - 1.0)
            .collect()
    }

    fn varying_eta(nel: usize) -> Vec<f64> {
        (0..nel * NQP)
            .map(|i| 1.0 + 0.5 * ((i as f64) * 0.113).sin().abs() + (i % 7) as f64)
            .collect()
    }

    #[test]
    fn mf_matches_assembled_uniform_mesh() {
        let mesh = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let tables = Q2QuadTables::standard();
        let eta = varying_eta(mesh.num_elements());
        let a = assemble_viscous(&mesh, &tables, &eta);
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &DirichletBc::new()));
        let op = MfViscousOp::new(data);
        let x = random_like(op.nrows());
        let mut y_mf = vec![0.0; op.nrows()];
        let mut y_as = vec![0.0; op.nrows()];
        op.apply(&x, &mut y_mf);
        a.spmv(&x, &mut y_as);
        for i in 0..op.nrows() {
            assert!(
                (y_mf[i] - y_as[i]).abs() < 1e-10 * (1.0 + y_as[i].abs()),
                "dof {i}: {} vs {}",
                y_mf[i],
                y_as[i]
            );
        }
    }

    #[test]
    fn mf_matches_assembled_deformed_mesh() {
        let mut mesh = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        mesh.deform(|c| {
            [
                c[0] + 0.06 * (c[1] * 3.0).sin(),
                c[1] + 0.04 * c[0] * c[2],
                c[2] + 0.05 * (c[0] * 2.0).cos() * c[1],
            ]
        });
        let tables = Q2QuadTables::standard();
        let eta = varying_eta(mesh.num_elements());
        let a = assemble_viscous(&mesh, &tables, &eta);
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &DirichletBc::new()));
        let op = MfViscousOp::new(data);
        let x = random_like(op.nrows());
        let mut y_mf = vec![0.0; op.nrows()];
        let mut y_as = vec![0.0; op.nrows()];
        op.apply(&x, &mut y_mf);
        a.spmv(&x, &mut y_as);
        let scale = 1.0 + y_as.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for i in 0..op.nrows() {
            assert!(
                (y_mf[i] - y_as[i]).abs() < 1e-10 * scale,
                "dof {i}: {} vs {}",
                y_mf[i],
                y_as[i]
            );
        }
    }

    #[test]
    fn mf_masked_matches_assembled_with_bc() {
        let mesh = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let tables = Q2QuadTables::standard();
        let eta = varying_eta(mesh.num_elements());
        let mut bc = DirichletBc::new();
        for n in mesh.boundary_nodes(0, true) {
            bc.set(3 * n, 0.0);
            bc.set(3 * n + 1, 0.0);
        }
        let mut a = assemble_viscous(&mesh, &tables, &eta);
        a.zero_rows_cols_set_identity(&bc.dofs);
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &bc));
        let op = MfViscousOp::new(data);
        let x = random_like(op.nrows());
        let mut y_mf = vec![0.0; op.nrows()];
        let mut y_as = vec![0.0; op.nrows()];
        op.apply(&x, &mut y_mf);
        a.spmv(&x, &mut y_as);
        for i in 0..op.nrows() {
            assert!(
                (y_mf[i] - y_as[i]).abs() < 1e-10 * (1.0 + y_as[i].abs()),
                "dof {i}"
            );
        }
    }
}
