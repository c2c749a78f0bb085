//! Element kernels and global assembly for the Q2–P1disc Stokes
//! discretization (Eqs. (7)–(10) of the paper).
//!
//! Dof layout:
//! * velocity: interleaved, `dof = 3*node + component` — `3·(2mx+1)(2my+1)(2mz+1)` unknowns,
//! * pressure: discontinuous, `dof = 4*element + mode` — `4·mx·my·mz` unknowns.
//!
//! Coefficients (effective viscosity `η`, density `ρ`) are sampled at the
//! 27 quadrature points of every element — the arrays passed in are
//! `num_elements × 27`, element-major, exactly the representation the
//! material-point projection of §II-C produces.

use crate::basis::{element_frame, p1disc_basis, q1_grad, q2_basis, q2_grad, NP1, NQ2};
use crate::geometry::{
    jacobian_from_grad, map_to_physical, physical_grad, qp_geometry, QpGeometry,
};
use crate::quadrature::Quadrature;
use ptatin_la::csr::{Csr, CsrBuilder};
use ptatin_la::dense::det3;
use ptatin_la::par;
use ptatin_mesh::StructuredMesh;
use ptatin_prof as prof;

/// Precomputed Q2 basis values and reference gradients at the quadrature
/// points (shared by assembly and the matrix-free kernels in `ptatin-ops`).
#[derive(Clone, Debug)]
pub struct Q2QuadTables {
    /// `basis[q][i]` — basis `i` at quadrature point `q`.
    pub basis: Vec<[f64; NQ2]>,
    /// `grad[q][i]` — reference gradient of basis `i` at point `q`.
    pub grad: Vec<[[f64; 3]; NQ2]>,
    /// Reference points and weights.
    pub quad: Quadrature,
}

impl Q2QuadTables {
    pub fn new(quad: Quadrature) -> Self {
        let basis = quad.points.iter().map(|&p| q2_basis(p)).collect();
        let grad = quad.points.iter().map(|&p| q2_grad(p)).collect();
        Self { basis, grad, quad }
    }

    pub fn standard() -> Self {
        Self::new(Quadrature::gauss_3x3x3())
    }

    pub fn nqp(&self) -> usize {
        self.quad.len()
    }
}

/// Number of velocity dofs of a mesh.
pub fn num_velocity_dofs(mesh: &StructuredMesh) -> usize {
    3 * mesh.num_nodes()
}

/// Number of pressure dofs of a mesh.
pub fn num_pressure_dofs(mesh: &StructuredMesh) -> usize {
    NP1 * mesh.num_elements()
}

/// Per-quadrature-point geometry of one element.
pub fn element_geometry(tables: &Q2QuadTables, corners: &[[f64; 3]; 8]) -> Vec<QpGeometry> {
    tables
        .quad
        .points
        .iter()
        .zip(&tables.quad.weights)
        .map(|(&xi, &w)| qp_geometry(corners, xi, w))
        .collect()
}

/// Dense 81×81 element matrix of the viscous (J_uu) block:
/// `∫ 2η D(φ_j e_c) : D(φ_i e_r)` — row-major over `(i, r)` × `(j, c)`.
pub fn element_viscous_matrix(
    tables: &Q2QuadTables,
    corners: &[[f64; 3]; 8],
    eta: &[f64],
) -> Vec<f64> {
    let mut ae = vec![0.0f64; (3 * NQ2) * (3 * NQ2)];
    element_viscous_matrix_into(tables, corners, eta, &mut ae);
    ae
}

/// [`element_viscous_matrix`] writing into caller-provided storage, so
/// batched assembly can compute element matrices in parallel scratch
/// without per-element allocation.
pub fn element_viscous_matrix_into(
    tables: &Q2QuadTables,
    corners: &[[f64; 3]; 8],
    eta: &[f64],
    ae: &mut [f64],
) {
    let nqp = tables.nqp();
    assert_eq!(eta.len(), nqp);
    assert_eq!(ae.len(), (3 * NQ2) * (3 * NQ2));
    ae.fill(0.0);
    let mut gphi = [[0.0f64; 3]; NQ2];
    for q in 0..nqp {
        let geo = qp_geometry(corners, tables.quad.points[q], tables.quad.weights[q]);
        for i in 0..NQ2 {
            gphi[i] = physical_grad(&geo, tables.grad[q][i]);
        }
        let ew = eta[q] * geo.wdetj;
        for i in 0..NQ2 {
            for j in 0..NQ2 {
                let gdot =
                    gphi[i][0] * gphi[j][0] + gphi[i][1] * gphi[j][1] + gphi[i][2] * gphi[j][2];
                for r in 0..3 {
                    let row = 3 * i + r;
                    for c in 0..3 {
                        let col = 3 * j + c;
                        // η (δ_rc ∇φ_i·∇φ_j + ∂φ_i/∂x_c ∂φ_j/∂x_r)
                        let mut v = gphi[i][c] * gphi[j][r];
                        if r == c {
                            v += gdot;
                        }
                        ae[row * (3 * NQ2) + col] += ew * v;
                    }
                }
            }
        }
    }
}

/// Dense 4×81 element matrix of the divergence (J_pu) block:
/// `B[q][(j,c)] = -∫ ψ_q ∂φ_j/∂x_c`.
pub fn element_gradient_matrix(tables: &Q2QuadTables, corners: &[[f64; 3]; 8]) -> Vec<f64> {
    let mut be = vec![0.0f64; NP1 * 3 * NQ2];
    element_gradient_matrix_into(tables, corners, &mut be);
    be
}

/// [`element_gradient_matrix`] writing into caller-provided storage (see
/// [`element_viscous_matrix_into`]).
pub fn element_gradient_matrix_into(
    tables: &Q2QuadTables,
    corners: &[[f64; 3]; 8],
    be: &mut [f64],
) {
    let nqp = tables.nqp();
    let (centroid, half) = element_frame(corners);
    assert_eq!(be.len(), NP1 * 3 * NQ2);
    be.fill(0.0);
    for q in 0..nqp {
        let xi = tables.quad.points[q];
        let geo = qp_geometry(corners, xi, tables.quad.weights[q]);
        let x = map_to_physical(corners, xi);
        let psi = p1disc_basis(x, centroid, half);
        for j in 0..NQ2 {
            let g = physical_grad(&geo, tables.grad[q][j]);
            for c in 0..3 {
                for (m, &pm) in psi.iter().enumerate() {
                    be[m * (3 * NQ2) + 3 * j + c] -= pm * g[c] * geo.wdetj;
                }
            }
        }
    }
}

/// 4×4 pressure "mass" block of one element, weighted pointwise by
/// `weight(q)` (pass `1/η` for the Schur-complement preconditioner Ŝ of
/// §III-B, or `1` for the plain mass matrix).
pub fn element_pressure_mass(
    tables: &Q2QuadTables,
    corners: &[[f64; 3]; 8],
    weight: &[f64],
) -> [[f64; NP1]; NP1] {
    let nqp = tables.nqp();
    assert_eq!(weight.len(), nqp);
    let (centroid, half) = element_frame(corners);
    let mut m = [[0.0; NP1]; NP1];
    for q in 0..nqp {
        let xi = tables.quad.points[q];
        let geo = qp_geometry(corners, xi, tables.quad.weights[q]);
        let x = map_to_physical(corners, xi);
        let psi = p1disc_basis(x, centroid, half);
        let w = weight[q] * geo.wdetj;
        for a in 0..NP1 {
            for b in 0..NP1 {
                m[a][b] += w * psi[a] * psi[b];
            }
        }
    }
    m
}

/// Elements per batch of the parallel assembly loops below: large enough
/// to keep every pool worker busy, small enough that the element-matrix
/// scratch stays cache-friendly (64 × 81² × 8 B ≈ 3.4 MB for the viscous
/// block).
pub(crate) const ASSEMBLY_BATCH: usize = 64;

/// Assemble the global viscous block `J_uu` (SPD apart from boundary
/// conditions) from per-(element, qp) viscosity.
///
/// Runs the symbolic phase ([`crate::pattern::ViscousPattern::build`])
/// followed by the scalar numeric phase: element matrices within a batch
/// are computed in parallel (independent rows of scratch); the scatter
/// into the frozen pattern stays serial in element order, so the
/// assembled matrix is bitwise-independent of the thread count. Callers
/// that re-assemble after coefficient updates should hold the pattern and
/// use `reassemble_into` instead.
pub fn assemble_viscous(mesh: &StructuredMesh, tables: &Q2QuadTables, eta: &[f64]) -> Csr {
    let _s = prof::scope("fem.assemble_viscous");
    let pat = crate::pattern::ViscousPattern::build(mesh);
    // ALLOC-OK: first assembly allocates its value storage once; the
    // re-assembly path reuses it in place.
    let mut values = vec![0.0f64; pat.nnz()];
    // ALLOC-OK: one-shot element scratch; re-assembly passes a cached one.
    let mut scratch = Vec::new();
    pat.numeric_scalar_into(mesh, tables, eta, &mut scratch, &mut values);
    pat.into_csr(values)
}

/// Assemble the global divergence block `J_pu` (`num_pressure_dofs ×
/// num_velocity_dofs`); `J_up = J_puᵀ`. Parallel over element batches
/// like [`assemble_viscous`]. The pattern is closed-form (each pressure
/// row couples exactly its element's 81 velocity dofs in ascending
/// order), so the element matrices land in the value array by copy.
pub fn assemble_gradient(mesh: &StructuredMesh, tables: &Q2QuadTables) -> Csr {
    let _s = prof::scope("fem.assemble_gradient");
    let np = num_pressure_dofs(mesh);
    let nu = num_velocity_dofs(mesh);
    let (indptr, indices) = crate::pattern::gradient_pattern_csr(mesh);
    let ne = mesh.num_elements();
    let bs = NP1 * 3 * NQ2;
    // ALLOC-OK: geometry-only matrix, assembled once per mesh and cached
    // by the setup cache across solver rebuilds.
    let mut values = vec![0.0f64; np * 3 * NQ2];
    par::par_blocks_mut(&mut values, bs, |e, be| {
        debug_assert!(e < ne);
        let corners = mesh.element_corner_coords(e);
        element_gradient_matrix_into(tables, &corners, be);
    });
    Csr::from_raw(np, nu, indptr, indices, values)
}

/// Assemble the (block-diagonal) pressure mass matrix with pointwise weight
/// `weight` (per element × qp). Returned as CSR for generic use; the
/// element blocks are also directly invertible — see
/// [`PressureMassBlocks`].
pub fn assemble_pressure_mass(mesh: &StructuredMesh, tables: &Q2QuadTables, weight: &[f64]) -> Csr {
    let _s = prof::scope("fem.assemble_pressure_mass");
    let nqp = tables.nqp();
    let np = num_pressure_dofs(mesh);
    let mut b = CsrBuilder::new(np, np);
    for e in 0..mesh.num_elements() {
        let corners = mesh.element_corner_coords(e);
        let m = element_pressure_mass(tables, &corners, &weight[e * nqp..(e + 1) * nqp]);
        for a in 0..NP1 {
            for bb in 0..NP1 {
                b.add(NP1 * e + a, NP1 * e + bb, m[a][bb]);
            }
        }
    }
    b.finish()
}

/// Exactly invertible element-block representation of the pressure mass
/// matrix: because P1disc is discontinuous, `M_p` is block diagonal with
/// 4×4 blocks, so `Ŝ⁻¹` is applied exactly (one small solve per element).
pub struct PressureMassBlocks {
    /// Inverted 4×4 blocks, row-major, one per element.
    inv_blocks: Vec<[[f64; NP1]; NP1]>,
}

impl PressureMassBlocks {
    /// Build from per-(element, qp) weights (use `1/η` for Ŝ).
    pub fn new(mesh: &StructuredMesh, tables: &Q2QuadTables, weight: &[f64]) -> Self {
        let nqp = tables.nqp();
        let mut inv_blocks = Vec::with_capacity(mesh.num_elements());
        for e in 0..mesh.num_elements() {
            let corners = mesh.element_corner_coords(e);
            let m = element_pressure_mass(tables, &corners, &weight[e * nqp..(e + 1) * nqp]);
            inv_blocks.push(invert4(&m));
        }
        Self { inv_blocks }
    }

    /// Build from already-computed (uninverted) element mass blocks — the
    /// entry point for the SIMD-batched setup path, which evaluates the
    /// 4×4 blocks four elements at a time and hands them over here.
    pub fn from_blocks(blocks: &[[[f64; NP1]; NP1]]) -> Self {
        Self {
            inv_blocks: blocks.iter().map(invert4).collect(),
        }
    }

    /// z = M⁻¹ r.
    pub fn apply_inverse(&self, r: &[f64], z: &mut [f64]) {
        let _s = prof::scope("fem.pmass_inverse");
        assert_eq!(r.len(), NP1 * self.inv_blocks.len());
        assert_eq!(z.len(), r.len());
        for (e, inv) in self.inv_blocks.iter().enumerate() {
            let o = NP1 * e;
            for a in 0..NP1 {
                let mut s = 0.0;
                for b in 0..NP1 {
                    s += inv[a][b] * r[o + b];
                }
                z[o + a] = s;
            }
        }
    }

    pub fn num_elements(&self) -> usize {
        self.inv_blocks.len()
    }
}

/// Invert a 4×4 SPD matrix by Gaussian elimination with partial pivoting.
pub fn invert4(m: &[[f64; NP1]; NP1]) -> [[f64; NP1]; NP1] {
    let mut a = *m;
    let mut inv = [[0.0; NP1]; NP1];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for k in 0..NP1 {
        // Pivot.
        let mut p = k;
        for i in k + 1..NP1 {
            if a[i][k].abs() > a[p][k].abs() {
                p = i;
            }
        }
        a.swap(k, p);
        inv.swap(k, p);
        let piv = a[k][k];
        assert!(piv != 0.0, "singular pressure mass block");
        for j in 0..NP1 {
            a[k][j] /= piv;
            inv[k][j] /= piv;
        }
        for i in 0..NP1 {
            if i == k {
                continue;
            }
            let f = a[i][k];
            if f == 0.0 {
                continue;
            }
            for j in 0..NP1 {
                a[i][j] -= f * a[k][j];
                inv[i][j] -= f * inv[k][j];
            }
        }
    }
    inv
}

/// Assemble the velocity right-hand side `F(w) = ∫ f·w` with `f = ρ g`
/// (Eq. (10); surface tractions are zero on the free surface). `gravity`
/// is the physical acceleration vector — pass it pointing down (e.g.
/// `[0, 0, -9.8]`) and dense material sinks. (The sign was flipped when
/// the falling-block scenario exposed that dense inclusions rose under
/// the previous `-∫ f·w` convention; the legacy sinker/rift tests only
/// assert that both flow signs exist, which incompressibility guarantees
/// for either convention.)
pub fn assemble_body_force(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    rho: &[f64],
    gravity: [f64; 3],
) -> Vec<f64> {
    let _s = prof::scope("fem.assemble_body_force");
    let nqp = tables.nqp();
    assert_eq!(rho.len(), mesh.num_elements() * nqp);
    // ALLOC-OK: load-vector output and a per-call gradient table, once
    // per forcing evaluation.
    let mut f = vec![0.0; num_velocity_dofs(mesh)];
    let q1g: Vec<_> = tables.quad.points.iter().map(|&p| q1_grad(p)).collect();
    for e in 0..mesh.num_elements() {
        let corners = mesh.element_corner_coords(e);
        let nodes = mesh.element_nodes(e);
        // The element's 81 entries of `f`, accumulated locally by
        // component: the 27 nodes are distinct, so every entry receives
        // the additions of a direct `f[3·n + d] += (w·g_d)·φ_i` in the same
        // order.
        let mut fe = [[0.0; NQ2]; 3];
        for (i, &nid) in nodes.iter().enumerate() {
            for d in 0..3 {
                fe[d][i] = f[3 * nid + d];
            }
        }
        for q in 0..nqp {
            let det = det3(&jacobian_from_grad(&corners, &q1g[q]));
            assert!(
                det > 0.0,
                "element is inverted or degenerate (det J = {det})"
            );
            let w = rho[e * nqp + q] * (tables.quad.weights[q] * det);
            for d in 0..3 {
                let wg = w * gravity[d];
                for (fi, &phi) in fe[d].iter_mut().zip(&tables.basis[q]) {
                    *fi += wg * phi;
                }
            }
        }
        for (i, &nid) in nodes.iter().enumerate() {
            for d in 0..3 {
                f[3 * nid + d] = fe[d][i];
            }
        }
    }
    f
}

/// Weak-form load vector for an analytic body force `f(x)`:
/// `F_i = ∫ f(x) · φ_i dx` by quadrature. Used by manufactured-solution
/// and analytic verification problems (MMS, SolCx) where the forcing is a
/// closure of the physical coordinate rather than a projected ρ g field.
pub fn assemble_forcing(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    force: impl Fn([f64; 3]) -> [f64; 3],
) -> Vec<f64> {
    let _s = prof::scope("fem.assemble_forcing");
    let nqp = tables.nqp();
    // ALLOC-OK: load-vector output, once per forcing evaluation.
    let mut out = vec![0.0; num_velocity_dofs(mesh)];
    for e in 0..mesh.num_elements() {
        let corners = mesh.element_corner_coords(e);
        let nodes = mesh.element_nodes(e);
        for q in 0..nqp {
            let geo = qp_geometry(&corners, tables.quad.points[q], tables.quad.weights[q]);
            let x = map_to_physical(&corners, tables.quad.points[q]);
            let fq = force(x);
            for (i, &nid) in nodes.iter().enumerate() {
                let w = tables.basis[q][i] * geo.wdetj;
                for d in 0..3 {
                    out[3 * nid + d] += w * fq[d];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptatin_la::vec_ops;

    fn box_mesh(m: usize) -> StructuredMesh {
        StructuredMesh::new_box(m, m, m, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
    }

    fn const_coeff(mesh: &StructuredMesh, tables: &Q2QuadTables, v: f64) -> Vec<f64> {
        vec![v; mesh.num_elements() * tables.nqp()]
    }

    #[test]
    fn quadrature_weights_sum_to_the_volume() {
        let tables = Q2QuadTables::standard();
        let volume = |mesh: &StructuredMesh| -> f64 {
            let mut v = 0.0;
            for e in 0..mesh.num_elements() {
                let corners = mesh.element_corner_coords(e);
                for (&xi, &w) in tables.quad.points.iter().zip(&tables.quad.weights) {
                    v += qp_geometry(&corners, xi, w).wdetj;
                }
            }
            v
        };
        assert!((volume(&box_mesh(2)) - 1.0).abs() < 1e-12);
        // Deformed mesh keeps positive volume.
        let mut m2 = box_mesh(2);
        m2.deform(|c| [c[0] + 0.1 * c[1] * c[2], c[1], c[2]]);
        let v = volume(&m2);
        assert!(v > 0.9 && v < 1.2);
    }

    #[test]
    fn viscous_matrix_symmetric_and_kernel_contains_rigid_modes() {
        let tables = Q2QuadTables::standard();
        let mesh = box_mesh(1);
        let eta = const_coeff(&mesh, &tables, 1.0);
        let a = assemble_viscous(&mesh, &tables, &eta);
        // Symmetry.
        let at = a.transpose();
        assert!(a.diff_norm(&at) < 1e-10);
        // Translation in each direction is in the kernel.
        let n = a.nrows();
        for d in 0..3 {
            let mut x = vec![0.0; n];
            for nn in 0..n / 3 {
                x[3 * nn + d] = 1.0;
            }
            let mut y = vec![0.0; n];
            a.spmv(&x, &mut y);
            assert!(
                vec_ops::norm_inf(&y) < 1e-11,
                "translation {d} not in kernel"
            );
        }
        // Linearized rotation (0, z, -y)-style is in the kernel of D(u).
        let mesh1 = box_mesh(1);
        let mut x = vec![0.0; n];
        for (nn, c) in mesh1.coords.iter().enumerate() {
            x[3 * nn + 1] = c[2];
            x[3 * nn + 2] = -c[1];
        }
        let mut y = vec![0.0; n];
        a.spmv(&x, &mut y);
        assert!(vec_ops::norm_inf(&y) < 1e-11, "rotation not in kernel");
    }

    #[test]
    fn viscous_scales_linearly_with_eta() {
        let tables = Q2QuadTables::standard();
        let mesh = box_mesh(1);
        let a1 = assemble_viscous(&mesh, &tables, &const_coeff(&mesh, &tables, 1.0));
        let mut a5 = assemble_viscous(&mesh, &tables, &const_coeff(&mesh, &tables, 5.0));
        a5.scale(1.0 / 5.0);
        assert!(a1.diff_norm(&a5) < 1e-10);
    }

    #[test]
    fn gradient_annihilates_rigid_translations() {
        // div of a constant velocity field is zero → B x_translation = 0.
        let tables = Q2QuadTables::standard();
        let mesh = box_mesh(2);
        let b = assemble_gradient(&mesh, &tables);
        let nu = num_velocity_dofs(&mesh);
        for d in 0..3 {
            let mut x = vec![0.0; nu];
            for nn in 0..nu / 3 {
                x[3 * nn + d] = 1.0;
            }
            let mut y = vec![0.0; b.nrows()];
            b.spmv(&x, &mut y);
            assert!(vec_ops::norm_inf(&y) < 1e-12);
        }
    }

    #[test]
    fn gradient_computes_divergence_of_linear_field() {
        // u = (x, 0, 0): ∇·u = 1. The constant pressure mode row gives
        // -∫ψ0 ∇·u = -vol(element).
        let tables = Q2QuadTables::standard();
        let mesh = box_mesh(2);
        let b = assemble_gradient(&mesh, &tables);
        let nu = num_velocity_dofs(&mesh);
        let mut x = vec![0.0; nu];
        for (nn, c) in mesh.coords.iter().enumerate() {
            x[3 * nn] = c[0];
        }
        let mut y = vec![0.0; b.nrows()];
        b.spmv(&x, &mut y);
        let elvol = 1.0 / mesh.num_elements() as f64;
        for e in 0..mesh.num_elements() {
            assert!(
                (y[NP1 * e] + elvol).abs() < 1e-12,
                "element {e}: {} vs {}",
                y[NP1 * e],
                -elvol
            );
        }
    }

    #[test]
    fn pressure_mass_blocks_invert() {
        let tables = Q2QuadTables::standard();
        let mut mesh = box_mesh(2);
        mesh.deform(|c| [c[0] + 0.05 * c[1], c[1], c[2] + 0.03 * c[0]]);
        let w = const_coeff(&mesh, &tables, 1.0);
        let mcsr = assemble_pressure_mass(&mesh, &tables, &w);
        let blocks = PressureMassBlocks::new(&mesh, &tables, &w);
        let np = mcsr.nrows();
        let r: Vec<f64> = (0..np).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut z = vec![0.0; np];
        blocks.apply_inverse(&r, &mut z);
        let mut back = vec![0.0; np];
        mcsr.spmv(&z, &mut back);
        for i in 0..np {
            assert!((back[i] - r[i]).abs() < 1e-9, "dof {i}");
        }
    }

    #[test]
    fn body_force_total_weight() {
        // Σ_i f_i(z-components over all nodes) = ∫ρ g_z = ρ g_z · vol:
        // the net load on a unit cube of density 2 under g_z = -9.8 points
        // down (dense material sinks).
        let tables = Q2QuadTables::standard();
        let mesh = box_mesh(2);
        let rho = const_coeff(&mesh, &tables, 2.0);
        let g = [0.0, 0.0, -9.8];
        let f = assemble_body_force(&mesh, &tables, &rho, g);
        let mut total_z = 0.0;
        for nn in 0..mesh.num_nodes() {
            total_z += f[3 * nn + 2];
        }
        assert!((total_z - (2.0 * -9.8)).abs() < 1e-10, "{total_z}");
    }

    #[test]
    fn manufactured_solution_residual_is_small() {
        // u = (sin πy, 0, 0) with p = 0 and η = 1: the discrete residual of
        // the momentum equation with consistent body force must converge.
        // Here we verify A u ≈ rhs where rhs assembled from f = -∇·(2ηD(u))
        // = (π² sin(πy), 0, 0) via quadrature on interior dofs.
        let tables = Q2QuadTables::standard();
        let mesh = box_mesh(4);
        let eta = const_coeff(&mesh, &tables, 1.0);
        let a = assemble_viscous(&mesh, &tables, &eta);
        let nu = num_velocity_dofs(&mesh);
        let mut u = vec![0.0; nu];
        for (nn, c) in mesh.coords.iter().enumerate() {
            u[3 * nn] = (std::f64::consts::PI * c[1]).sin();
        }
        let mut au = vec![0.0; nu];
        a.spmv(&u, &mut au);
        // Consistent load vector: ∫ f·w with f = π² sin(πy) e_x.
        let nqp = tables.nqp();
        let mut rhs = vec![0.0; nu];
        for e in 0..mesh.num_elements() {
            let corners = mesh.element_corner_coords(e);
            let nodes = mesh.element_nodes(e);
            for q in 0..nqp {
                let geo = qp_geometry(&corners, tables.quad.points[q], tables.quad.weights[q]);
                let x = map_to_physical(&corners, tables.quad.points[q]);
                let fx = std::f64::consts::PI.powi(2) * (std::f64::consts::PI * x[1]).sin();
                for (i, &nid) in nodes.iter().enumerate() {
                    rhs[3 * nid] += geo.wdetj * fx * tables.basis[q][i];
                }
            }
        }
        // Compare on interior nodes only (boundary rows see the missing
        // Neumann terms).
        let mut max_err = 0.0f64;
        for (nn, _) in mesh.coords.iter().enumerate() {
            let interior = (0..3)
                .all(|ax| !mesh.node_on_face(nn, ax, true) && !mesh.node_on_face(nn, ax, false));
            if interior {
                for d in 0..3 {
                    max_err = max_err.max((au[3 * nn + d] - rhs[3 * nn + d]).abs());
                }
            }
        }
        // Q2 consistency error at h=1/4 — loose bound, tightens with h.
        assert!(max_err < 5e-3, "interior residual too large: {max_err}");
    }
}
