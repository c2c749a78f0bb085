//! Matrix-free evaluation of the operator diagonal — needed by the
//! Jacobi-preconditioned Chebyshev smoother on levels that never assemble
//! a matrix (the finest level of the paper's production configuration).

use crate::batch::BatchedGeometry;
use crate::data::{shared_tables, ViscousOpData, NQP};
use crate::kernels::qp_jacobian;
use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::basis::NQ2;

/// Diagonal of the (Picard) viscous operator: for dof `(node i, comp c)`
/// the assembled entry is `Σ_qp w|J| η (∇φ_i·∇φ_i + (∂φ_i/∂x_c)²)`.
/// Constrained dofs get `1` to match the masked operator.
pub fn matrix_free_diagonal(
    data: &ViscousOpData,
    tables: &Q2QuadTables,
    q1g: &[[[f64; 3]; 8]],
) -> Vec<f64> {
    diagonal_with(data, tables, |e, q| {
        qp_jacobian(&data.corners[e], &q1g[q], tables.quad.weights[q])
    })
}

/// [`matrix_free_diagonal`] of a batched operator: the same element-ordered
/// accumulation, bitwise, with the metric terms read from its geometry pack
/// instead of recomputed.
pub fn viscous_diagonal(data: &ViscousOpData, geom: &BatchedGeometry) -> Vec<f64> {
    diagonal_with(data, shared_tables(), |e, q| geom.qp_metric(e, q))
}

/// The diagonal given `metric(e, q) = (∂ξ/∂x, w·|J|)`.
fn diagonal_with(
    data: &ViscousOpData,
    tables: &Q2QuadTables,
    metric: impl Fn(usize, usize) -> ([[f64; 3]; 3], f64),
) -> Vec<f64> {
    let mut diag = vec![0.0f64; data.ndof];
    for e in 0..data.nel {
        let nodes = data.element_nodes(e);
        let eta = data.element_eta(e);
        let mut de = [[0.0f64; 3]; NQ2];
        for q in 0..NQP {
            let (jinv, wdet) = metric(e, q);
            let ew = eta[q] * wdet;
            for i in 0..NQ2 {
                let gr = tables.grad[q][i];
                let g = [
                    jinv[0][0] * gr[0] + jinv[1][0] * gr[1] + jinv[2][0] * gr[2],
                    jinv[0][1] * gr[0] + jinv[1][1] * gr[1] + jinv[2][1] * gr[2],
                    jinv[0][2] * gr[0] + jinv[1][2] * gr[1] + jinv[2][2] * gr[2],
                ];
                let gg = g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
                for c in 0..3 {
                    de[i][c] += ew * (gg + g[c] * g[c]);
                }
            }
        }
        for (i, &n) in nodes.iter().enumerate() {
            let b = 3 * n as usize;
            for c in 0..3 {
                diag[b + c] += de[i][c];
            }
        }
    }
    for &d in &data.constrained {
        diag[d] = 1.0;
    }
    diag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::q1_grad_tables;
    use ptatin_fem::assemble::assemble_viscous;
    use ptatin_fem::bc::DirichletBc;
    use ptatin_mesh::StructuredMesh;
    use std::sync::Arc;

    #[test]
    fn mf_diagonal_matches_assembled() {
        let mut mesh = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        mesh.deform(|c| [c[0] + 0.05 * c[1], c[1], c[2] + 0.02 * c[0]]);
        let tables = Q2QuadTables::standard();
        let eta: Vec<f64> = (0..mesh.num_elements() * NQP)
            .map(|i| 1.0 + (i % 5) as f64)
            .collect();
        let a = assemble_viscous(&mesh, &tables, &eta);
        let ad = a.diag();
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &DirichletBc::new()));
        let q1g = q1_grad_tables(&tables.quad.points);
        let md = matrix_free_diagonal(&data, &tables, &q1g);
        for i in 0..ad.len() {
            assert!(
                (ad[i] - md[i]).abs() < 1e-10 * (1.0 + ad[i].abs()),
                "dof {i}: {} vs {}",
                md[i],
                ad[i]
            );
        }
    }

    #[test]
    fn constrained_dofs_get_unit_diagonal() {
        let mesh = StructuredMesh::new_box(1, 1, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let tables = Q2QuadTables::standard();
        let eta = vec![1.0; NQP];
        let mut bc = DirichletBc::new();
        bc.set(0, 0.0);
        bc.set(7, 0.0);
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &bc));
        let q1g = q1_grad_tables(&tables.quad.points);
        let d = matrix_free_diagonal(&data, &tables, &q1g);
        assert_eq!(d[0], 1.0);
        assert_eq!(d[7], 1.0);
        assert!(d[1] > 0.0 && d[1] != 1.0);
    }
}
