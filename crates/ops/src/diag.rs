//! Matrix-free evaluation of the operator diagonal — needed by the
//! Jacobi-preconditioned Chebyshev smoother on levels that never assemble
//! a matrix (the finest level of the paper's production configuration).

use crate::batch::{BatchedGeometry, QpGeoLane};
use crate::data::{ViscousOpData, NQP};
use crate::kernels::qp_jacobian;
use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::basis::NQ2;
use ptatin_la::simd::{run_lanes, F64x4, Lane, LaneKernel, LANES};
use ptatin_prof as prof;

/// Diagonal of the (Picard) viscous operator: for dof `(node i, comp c)`
/// the assembled entry is `Σ_qp w|J| η (∇φ_i·∇φ_i + (∂φ_i/∂x_c)²)`.
/// Constrained dofs get `1` to match the masked operator. The scalar
/// reference of [`viscous_diagonal`]: the non-batched kinds smooth with it.
pub fn matrix_free_diagonal(
    data: &ViscousOpData,
    tables: &Q2QuadTables,
    q1g: &[[[f64; 3]; 8]],
) -> Vec<f64> {
    let mut diag = vec![0.0f64; data.ndof];
    for e in 0..data.nel {
        let nodes = data.element_nodes(e);
        let eta = data.element_eta(e);
        let mut de = [[0.0f64; 3]; NQ2];
        for q in 0..NQP {
            let (jinv, wdet) = qp_jacobian(&data.corners[e], &q1g[q], tables.quad.weights[q]);
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

/// [`matrix_free_diagonal`] of a batched operator, bitwise, with the
/// metric terms read from its geometry pack instead of recomputed. Four
/// consecutive elements form a lane: each slot runs the scalar loop's
/// operations (plain mul/add, nothing fused) on the pack's path, and the
/// slots are added into the diagonal one element after the other, so every
/// dof receives the reference's additions in the reference's order.
pub fn viscous_diagonal(data: &ViscousOpData, geom: &BatchedGeometry) -> Vec<f64> {
    let model = crate::counts::diagonal_model();
    prof::log_flops(model.flops * data.nel as u64);
    prof::log_bytes(model.bytes_perfect * data.nel as u64);
    let mut diag = vec![0.0f64; data.ndof];
    run_lanes(
        geom.path(),
        LaneDiagonal {
            data,
            geom,
            grad: &crate::data::shared_tables().grad,
        },
        &mut diag,
    );
    for &d in &data.constrained {
        diag[d] = 1.0;
    }
    diag
}

/// The element loop of [`viscous_diagonal`] on lanes of four consecutive
/// elements (a short last lane pads with zero metric terms and is never
/// scattered).
struct LaneDiagonal<'a> {
    data: &'a ViscousOpData,
    geom: &'a BatchedGeometry,
    grad: &'a [[[f64; 3]; NQ2]],
}

impl LaneKernel for LaneDiagonal<'_> {
    type Out = [f64];

    #[inline(always)]
    fn run<V: Lane>(self, diag: &mut [f64]) {
        let Self { data, geom, grad } = self;
        let zero_geo = QpGeoLane {
            jinv: [[F64x4::ZERO; 3]; 3],
            wdet: F64x4::ZERO,
        };
        for e0 in (0..data.nel).step_by(LANES) {
            let n = LANES.min(data.nel - e0);
            // Gather the lane's metric terms and η into slot order.
            let mut geo = [zero_geo; NQP];
            let mut eta = [F64x4::ZERO; NQP];
            for l in 0..n {
                let (src, s) = geom.element_metrics(e0 + l);
                let el = data.element_eta(e0 + l);
                for q in 0..NQP {
                    for d in 0..3 {
                        for x in 0..3 {
                            geo[q].jinv[d][x].0[l] = src[q].jinv[d][x].0[s];
                        }
                    }
                    geo[q].wdet.0[l] = src[q].wdet.0[s];
                    eta[q].0[l] = el[q];
                }
            }
            let mut de = [[V::splat(0.0); 3]; NQ2];
            for q in 0..NQP {
                let g = &geo[q];
                let mut jinv = [[V::splat(0.0); 3]; 3];
                for d in 0..3 {
                    for x in 0..3 {
                        jinv[d][x] = V::load(&g.jinv[d][x].0);
                    }
                }
                let ew = V::load(&eta[q].0) * V::load(&g.wdet.0);
                for i in 0..NQ2 {
                    let gr = grad[q][i];
                    let gr = [V::splat(gr[0]), V::splat(gr[1]), V::splat(gr[2])];
                    let mut gv = [V::splat(0.0); 3];
                    for c in 0..3 {
                        gv[c] = jinv[0][c] * gr[0] + jinv[1][c] * gr[1] + jinv[2][c] * gr[2];
                    }
                    let gg = gv[0] * gv[0] + gv[1] * gv[1] + gv[2] * gv[2];
                    for c in 0..3 {
                        de[i][c] = de[i][c] + ew * (gg + gv[c] * gv[c]);
                    }
                }
            }
            let mut out = [[[0.0f64; LANES]; 3]; NQ2];
            for i in 0..NQ2 {
                for c in 0..3 {
                    de[i][c].store(&mut out[i][c]);
                }
            }
            for l in 0..n {
                for (i, &nd) in data.element_nodes(e0 + l).iter().enumerate() {
                    let b = 3 * nd as usize;
                    for c in 0..3 {
                        diag[b + c] += out[i][c][l];
                    }
                }
            }
        }
    }
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
