//! The tensor-product (sum-factorized) matrix-free operator — "Tensor" in
//! Tables I–III, Eq. (19) of the paper.
//!
//! The 81×27 reference gradient matrix `D_ξ` is never formed: it factors
//! into `D̃⊗B̃⊗B̃`, `B̃⊗D̃⊗B̃`, `B̃⊗B̃⊗D̃` with 3×3 one-dimensional basis/derivative
//! matrices, so each directional derivative costs three staged 3×27
//! contractions (`2·3⁷ = 4374` flops for all three directions) instead of a
//! dense 81×27 product. Metric terms are folded into the quadrature loop.

use crate::data::{MaskScratch, ViscousOpData, NQP};
use crate::kernels::{
    for_each_element_colored, q1_grad_tables, qp_jacobian, weighted_stress, ColorScatter,
};
use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::basis::{q2_basis_1d, q2_deriv_1d};
use ptatin_la::operator::LinearOperator;
use ptatin_prof as prof;
use std::sync::Arc;

/// 1-D basis (`B̃`) and derivative (`D̃`) matrices evaluated at the three
/// Gauss points: `b[q][a]` = basis `a` at point `q`.
#[derive(Clone, Copy, Debug)]
pub struct Tensor1d {
    pub b: [[f64; 3]; 3],
    pub d: [[f64; 3]; 3],
    /// Transposes (for the adjoint contraction back to nodes).
    pub bt: [[f64; 3]; 3],
    pub dt: [[f64; 3]; 3],
    /// 1-D *linear* basis at the same points, `n[q][a]`, and its transpose:
    /// the sum-factorization tables of a trilinear (Q1) field such as the
    /// P1disc pressure on a trilinear element.
    pub n: [[f64; 2]; 3],
    pub nt: [[f64; 3]; 2],
    /// Collocation derivative `D_c = D̃ B̃⁻¹`, `dc[q][p]`: the derivative at
    /// Gauss point `q` of the 1-D Lagrange polynomial through the Gauss
    /// points that is one at point `p`. With values already interpolated to
    /// the Gauss points (`B̃⊗B̃⊗B̃`), each reference derivative is one
    /// contraction with `D_c` along its own dimension.
    pub dc: [[f64; 3]; 3],
    /// Transpose of `dc` (the adjoint contraction).
    pub dct: [[f64; 3]; 3],
}

impl Tensor1d {
    pub fn gauss3() -> Self {
        let s = (3.0f64 / 5.0).sqrt();
        let pts = [-s, 0.0, s];
        let mut b = [[0.0; 3]; 3];
        let mut d = [[0.0; 3]; 3];
        let mut n = [[0.0; 2]; 3];
        for (q, &p) in pts.iter().enumerate() {
            b[q] = q2_basis_1d(p);
            d[q] = q2_deriv_1d(p);
            n[q] = [0.5 * (1.0 - p), 0.5 * (1.0 + p)];
        }
        let mut bt = [[0.0; 3]; 3];
        let mut dt = [[0.0; 3]; 3];
        for q in 0..3 {
            for a in 0..3 {
                bt[a][q] = b[q][a];
                dt[a][q] = d[q][a];
            }
        }
        let mut nt = [[0.0; 3]; 2];
        for q in 0..3 {
            for a in 0..2 {
                nt[a][q] = n[q][a];
            }
        }
        // l_p'(x) = Σ_{m≠p} Π_{k≠p,m} (x − x_k) / Π_{k≠p} (x_p − x_k); at
        // the middle point the two terms of l_1' cancel exactly.
        let mut dc = [[0.0; 3]; 3];
        let mut dct = [[0.0; 3]; 3];
        for (q, &x) in pts.iter().enumerate() {
            for p in 0..3 {
                let (m0, m1) = ((p + 1) % 3, (p + 2) % 3);
                let denom = (pts[p] - pts[m0]) * (pts[p] - pts[m1]);
                dc[q][p] = ((x - pts[m1]) + (x - pts[m0])) / denom;
                dct[p][q] = dc[q][p];
            }
        }
        Self {
            b,
            d,
            bt,
            dt,
            n,
            nt,
            dc,
            dct,
        }
    }
}

/// Contract a 3×3×3 array along dimension 0 (x-fastest layout):
/// `out[q + 3j + 9k] = Σ_a m[q][a] · in[a + 3j + 9k]`.
#[inline]
pub fn contract_dim0(m: &[[f64; 3]; 3], input: &[f64; 27], out: &mut [f64; 27]) {
    for o in (0..27).step_by(3) {
        let (i0, i1, i2) = (input[o], input[o + 1], input[o + 2]);
        out[o] = m[0][0] * i0 + m[0][1] * i1 + m[0][2] * i2;
        out[o + 1] = m[1][0] * i0 + m[1][1] * i1 + m[1][2] * i2;
        out[o + 2] = m[2][0] * i0 + m[2][1] * i1 + m[2][2] * i2;
    }
}

/// Contract along dimension 1: `out[i + 3q + 9k] = Σ_b m[q][b] · in[i + 3b + 9k]`.
#[inline]
pub fn contract_dim1(m: &[[f64; 3]; 3], input: &[f64; 27], out: &mut [f64; 27]) {
    for k in 0..3 {
        let base = 9 * k;
        for i in 0..3 {
            let (i0, i1, i2) = (input[base + i], input[base + i + 3], input[base + i + 6]);
            out[base + i] = m[0][0] * i0 + m[0][1] * i1 + m[0][2] * i2;
            out[base + i + 3] = m[1][0] * i0 + m[1][1] * i1 + m[1][2] * i2;
            out[base + i + 6] = m[2][0] * i0 + m[2][1] * i1 + m[2][2] * i2;
        }
    }
}

/// Contract along dimension 2: `out[i + 3j + 9q] = Σ_c m[q][c] · in[i + 3j + 9c]`.
#[inline]
pub fn contract_dim2(m: &[[f64; 3]; 3], input: &[f64; 27], out: &mut [f64; 27]) {
    for ij in 0..9 {
        let (i0, i1, i2) = (input[ij], input[ij + 9], input[ij + 18]);
        out[ij] = m[0][0] * i0 + m[0][1] * i1 + m[0][2] * i2;
        out[ij + 9] = m[1][0] * i0 + m[1][1] * i1 + m[1][2] * i2;
        out[ij + 18] = m[2][0] * i0 + m[2][1] * i1 + m[2][2] * i2;
    }
}

/// Forward derivative in reference direction `dim`: apply `D̃` along `dim`
/// and `B̃` along the other two.
#[inline]
pub fn ref_derivative(t: &Tensor1d, dim: usize, input: &[f64; 27], out: &mut [f64; 27]) {
    let mut tmp1 = [0.0; 27];
    let mut tmp2 = [0.0; 27];
    let m0 = if dim == 0 { &t.d } else { &t.b };
    let m1 = if dim == 1 { &t.d } else { &t.b };
    let m2 = if dim == 2 { &t.d } else { &t.b };
    contract_dim0(m0, input, &mut tmp1);
    contract_dim1(m1, &tmp1, &mut tmp2);
    contract_dim2(m2, &tmp2, out);
}

/// Adjoint of [`ref_derivative`]: quadrature values back to nodal
/// contributions, `out += (D̃⊗B̃⊗B̃)ᵀ in`-style.
#[inline]
pub fn ref_derivative_adjoint_add(
    t: &Tensor1d,
    dim: usize,
    input: &[f64; 27],
    out: &mut [f64; 27],
) {
    let mut tmp1 = [0.0; 27];
    let mut tmp2 = [0.0; 27];
    let mut tmp3 = [0.0; 27];
    let m0 = if dim == 0 { &t.dt } else { &t.bt };
    let m1 = if dim == 1 { &t.dt } else { &t.bt };
    let m2 = if dim == 2 { &t.dt } else { &t.bt };
    contract_dim0(m0, input, &mut tmp1);
    contract_dim1(m1, &tmp1, &mut tmp2);
    contract_dim2(m2, &tmp2, &mut tmp3);
    for i in 0..27 {
        out[i] += tmp3[i];
    }
}

/// Sum-factorized matrix-free viscous operator.
pub struct TensorViscousOp {
    pub data: Arc<ViscousOpData>,
    tables: Q2QuadTables,
    t1d: Tensor1d,
    q1g: Vec<[[f64; 3]; 8]>,
    scratch: MaskScratch,
}

impl TensorViscousOp {
    pub fn new(data: Arc<ViscousOpData>) -> Self {
        let tables = Q2QuadTables::standard();
        let q1g = q1_grad_tables(&tables.quad.points);
        Self {
            data,
            tables,
            t1d: Tensor1d::gauss3(),
            q1g,
            scratch: MaskScratch::new(),
        }
    }

    fn apply_add(&self, x: &[f64], y: &mut [f64]) {
        let data = &self.data;
        let scatter = ColorScatter::new(y);
        for_each_element_colored(data, |e| {
            let nodes = data.element_nodes(e);
            let corners = &data.corners[e];
            let eta = data.element_eta(e);
            // Gather per component.
            let mut ue = [[0.0f64; 27]; 3];
            for (i, &n) in nodes.iter().enumerate() {
                let b = 3 * n as usize;
                ue[0][i] = x[b];
                ue[1][i] = x[b + 1];
                ue[2][i] = x[b + 2];
            }
            // Reference derivatives: ederiv[d][c][qp] = ∂u_c/∂ξ_d.
            let mut ederiv = [[[0.0f64; 27]; 3]; 3];
            for d in 0..3 {
                for c in 0..3 {
                    ref_derivative(&self.t1d, d, &ue[c], &mut ederiv[d][c]);
                }
            }
            // Quadrature loop with metric terms applied in place.
            let mut what = [[[0.0f64; 27]; 3]; 3];
            for q in 0..NQP {
                let (jinv, wdet) = qp_jacobian(corners, &self.q1g[q], self.tables.quad.weights[q]);
                let mut gradu = [[0.0f64; 3]; 3];
                for c in 0..3 {
                    for l in 0..3 {
                        gradu[c][l] = jinv[0][l] * ederiv[0][c][q]
                            + jinv[1][l] * ederiv[1][c][q]
                            + jinv[2][l] * ederiv[2][c][q];
                    }
                }
                let newton = data.newton.as_ref().map(|nd| (nd, e * NQP + q));
                let sigma = weighted_stress(&gradu, eta[q], newton, wdet);
                for d in 0..3 {
                    for c in 0..3 {
                        what[d][c][q] = sigma[c][0] * jinv[d][0]
                            + sigma[c][1] * jinv[d][1]
                            + sigma[c][2] * jinv[d][2];
                    }
                }
            }
            // Adjoint contractions back to nodes.
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

impl LinearOperator for TensorViscousOp {
    fn nrows(&self) -> usize {
        self.data.ndof
    }
    fn ncols(&self) -> usize {
        self.data.ndof
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let _ev = prof::scope("MatMult_Tensor");
        let model = crate::counts::tensor_model();
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
    use crate::mf::MfViscousOp;
    use ptatin_fem::basis::{q2_grad, NQ2};
    use ptatin_fem::bc::DirichletBc;
    use ptatin_mesh::StructuredMesh;

    #[test]
    fn ref_derivative_matches_dense_gradient() {
        // Compare sum-factorized derivative against direct q2_grad tables.
        let t = Tensor1d::gauss3();
        let tables = Q2QuadTables::standard();
        let nodal: [f64; 27] = std::array::from_fn(|i| ((i * 31 % 17) as f64) / 7.0 - 1.0);
        for d in 0..3 {
            let mut out = [0.0; 27];
            ref_derivative(&t, d, &nodal, &mut out);
            for (q, &xi) in tables.quad.points.iter().enumerate() {
                let g = q2_grad(xi);
                let expect: f64 = (0..NQ2).map(|i| nodal[i] * g[i][d]).sum();
                assert!(
                    (out[q] - expect).abs() < 1e-12,
                    "dim {d} qp {q}: {} vs {}",
                    out[q],
                    expect
                );
            }
        }
    }

    #[test]
    fn collocation_derivative_times_basis_is_the_derivative() {
        let t = Tensor1d::gauss3();
        for q in 0..3 {
            for a in 0..3 {
                let dcb: f64 = (0..3).map(|p| t.dc[q][p] * t.b[p][a]).sum();
                assert!((dcb - t.d[q][a]).abs() < 1e-15, "({q}, {a})");
                assert_eq!(t.dct[a][q], t.dc[q][a]);
            }
        }
        assert_eq!(t.dc[1][1], 0.0);
    }

    #[test]
    fn adjoint_is_transpose() {
        let t = Tensor1d::gauss3();
        // <D u, v> == <u, Dᵀ v> for random u, v.
        let u: [f64; 27] = std::array::from_fn(|i| ((i * 7 % 13) as f64) - 6.0);
        let v: [f64; 27] = std::array::from_fn(|i| ((i * 11 % 19) as f64) - 9.0);
        for d in 0..3 {
            let mut du = [0.0; 27];
            ref_derivative(&t, d, &u, &mut du);
            let mut dtv = [0.0; 27];
            ref_derivative_adjoint_add(&t, d, &v, &mut dtv);
            let lhs: f64 = du.iter().zip(&v).map(|(a, b)| a * b).sum();
            let rhs: f64 = u.iter().zip(&dtv).map(|(a, b)| a * b).sum();
            assert!((lhs - rhs).abs() < 1e-11, "dim {d}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn tensor_matches_mf_on_deformed_mesh() {
        let mut mesh = StructuredMesh::new_box(2, 3, 2, [0.0, 1.0], [0.0, 1.5], [0.0, 1.0]);
        mesh.deform(|c| {
            [
                c[0] + 0.07 * (c[1] * 2.0).sin(),
                c[1] + 0.05 * c[0] * c[2],
                c[2] - 0.04 * (c[0] * 3.0).cos() * c[1],
            ]
        });
        let eta: Vec<f64> = (0..mesh.num_elements() * NQP)
            .map(|i| 0.5 + ((i * 13) % 23) as f64)
            .collect();
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &DirichletBc::new()));
        let mf = MfViscousOp::new(data.clone());
        let tp = TensorViscousOp::new(data);
        let n = mf.nrows();
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761usize) % 997) as f64 / 500.0)
            .collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        mf.apply(&x, &mut y1);
        tp.apply(&x, &mut y2);
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
    fn tensor_with_newton_matches_mf_with_newton() {
        use crate::data::NewtonData;
        let mesh = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let nel = mesh.num_elements();
        let eta: Vec<f64> = (0..nel * NQP).map(|i| 1.0 + (i % 3) as f64).collect();
        let newton = NewtonData {
            eta_prime: (0..nel * NQP)
                .map(|i| -0.1 * ((i % 7) as f64) / 7.0)
                .collect(),
            d_sym: (0..nel * NQP)
                .map(|i| {
                    let s = (i as f64 * 0.01).sin();
                    [s, -s, 0.0, 0.3 * s, 0.0, 0.1]
                })
                .collect(),
        };
        let data =
            Arc::new(ViscousOpData::new(&mesh, eta, &DirichletBc::new()).with_newton(newton));
        let mf = MfViscousOp::new(data.clone());
        let tp = TensorViscousOp::new(data);
        let n = mf.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        mf.apply(&x, &mut y1);
        tp.apply(&x, &mut y2);
        for i in 0..n {
            assert!(
                (y1[i] - y2[i]).abs() < 1e-10 * (1.0 + y1[i].abs()),
                "dof {i}"
            );
        }
    }
}
