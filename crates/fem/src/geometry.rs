//! Isoparametric trilinear geometry: Jacobians, physical gradients and the
//! Newton inverse map used by material-point location.
//!
//! The paper's kernels use the 8 corner coordinates per element ("visiting
//! an element requires 8·3 scalars for coordinates", §III-D): geometry is
//! trilinear even though velocity is triquadratic.

use crate::basis::{q1_basis, q1_grad};
use ptatin_la::dense::inv3;

/// Map a reference point to physical space through the trilinear geometry.
pub fn map_to_physical(corners: &[[f64; 3]; 8], xi: [f64; 3]) -> [f64; 3] {
    let n = q1_basis(xi);
    let mut x = [0.0; 3];
    for (c, corner) in corners.iter().enumerate() {
        for d in 0..3 {
            x[d] += n[c] * corner[d];
        }
    }
    x
}

/// The coordinate Jacobian `J[i][j] = ∂x_i/∂ξ_j` at a reference point.
pub fn jacobian(corners: &[[f64; 3]; 8], xi: [f64; 3]) -> [[f64; 3]; 3] {
    jacobian_from_grad(corners, &q1_grad(xi))
}

/// [`jacobian`] from the Q1 gradients `g = q1_grad(ξ)`, for loops that
/// tabulate them once per quadrature point.
#[inline]
pub fn jacobian_from_grad(corners: &[[f64; 3]; 8], g: &[[f64; 3]; 8]) -> [[f64; 3]; 3] {
    let mut j = [[0.0; 3]; 3];
    for (c, corner) in corners.iter().enumerate() {
        for i in 0..3 {
            for d in 0..3 {
                j[i][d] += corner[i] * g[c][d];
            }
        }
    }
    j
}

/// Per-quadrature-point geometry: the inverse-transpose Jacobian (for
/// mapping reference gradients to physical gradients, `∇φ = J⁻ᵀ ∇_ξ φ`)
/// and the quadrature weight times `|J|`.
#[derive(Clone, Copy, Debug)]
pub struct QpGeometry {
    /// `J⁻ᵀ` (row `d` gives physical-gradient coefficients of `∂/∂ξ_d`…
    /// precisely: `∇φ_d = Σ_e inv_jt[d][e] ∂φ/∂ξ_e`).
    pub inv_jt: [[f64; 3]; 3],
    /// `w_q · det J` — the physical quadrature weight.
    pub wdetj: f64,
}

/// Evaluate [`QpGeometry`] at one reference point with weight `w`.
pub fn qp_geometry(corners: &[[f64; 3]; 8], xi: [f64; 3], w: f64) -> QpGeometry {
    let j = jacobian(corners, xi);
    let (inv, det) = inv3(&j);
    assert!(
        det > 0.0,
        "element is inverted or degenerate (det J = {det})"
    );
    // inv = J⁻¹ with inv[i][j] = ∂ξ_i/∂x_j; the transpose maps gradients.
    let mut inv_jt = [[0.0; 3]; 3];
    for a in 0..3 {
        for b in 0..3 {
            inv_jt[a][b] = inv[b][a];
        }
    }
    QpGeometry {
        inv_jt,
        wdetj: w * det,
    }
}

/// Map a reference gradient to a physical gradient: `∇f = J⁻ᵀ ∇_ξ f`.
#[inline]
pub fn physical_grad(g: &QpGeometry, ref_grad: [f64; 3]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for d in 0..3 {
        out[d] = g.inv_jt[d][0] * ref_grad[0]
            + g.inv_jt[d][1] * ref_grad[1]
            + g.inv_jt[d][2] * ref_grad[2];
    }
    out
}

/// Newton inversion of the trilinear map: find `ξ` with `x(ξ) = x`.
///
/// Returns `None` if Newton fails to converge in `max_it` steps (point far
/// outside the element or degenerate geometry). A returned `ξ` may lie
/// outside `[-1,1]³` — callers use that to decide containment.
pub fn inverse_map(
    corners: &[[f64; 3]; 8],
    x: [f64; 3],
    tol: f64,
    max_it: usize,
) -> Option<[f64; 3]> {
    let mut xi = [0.0f64; 3];
    for _ in 0..max_it {
        let xc = map_to_physical(corners, xi);
        let r = [x[0] - xc[0], x[1] - xc[1], x[2] - xc[2]];
        let rn = (r[0] * r[0] + r[1] * r[1] + r[2] * r[2]).sqrt();
        if rn < tol {
            return Some(xi);
        }
        let j = jacobian(corners, xi);
        let (inv, det) = inv3(&j);
        if det.abs() < 1e-300 {
            return None;
        }
        for d in 0..3 {
            xi[d] += inv[d][0] * r[0] + inv[d][1] * r[1] + inv[d][2] * r[2];
        }
        // Keep Newton from wandering off for far-away points.
        for v in &mut xi {
            *v = v.clamp(-10.0, 10.0);
        }
    }
    None
}

/// Is a reference coordinate inside the element (with tolerance)?
#[inline]
pub fn xi_inside(xi: [f64; 3], tol: f64) -> bool {
    xi.iter().all(|&v| (-1.0 - tol..=1.0 + tol).contains(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cube() -> [[f64; 3]; 8] {
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
        ]
    }

    fn sheared() -> [[f64; 3]; 8] {
        let mut c = unit_cube();
        for p in &mut c {
            p[0] += 0.3 * p[1] + 0.1 * p[2];
            p[1] += 0.2 * p[2] * p[0];
        }
        c
    }

    #[test]
    fn map_corners() {
        let c = unit_cube();
        assert_eq!(map_to_physical(&c, [-1.0, -1.0, -1.0]), [0.0, 0.0, 0.0]);
        assert_eq!(map_to_physical(&c, [1.0, 1.0, 1.0]), [1.0, 1.0, 1.0]);
        assert_eq!(map_to_physical(&c, [0.0, 0.0, 0.0]), [0.5, 0.5, 0.5]);
    }

    #[test]
    fn jacobian_of_unit_cube() {
        let c = unit_cube();
        let j = jacobian(&c, [0.2, -0.3, 0.5]);
        for i in 0..3 {
            for d in 0..3 {
                let expect = if i == d { 0.5 } else { 0.0 };
                assert!((j[i][d] - expect).abs() < 1e-14);
            }
        }
        let g = qp_geometry(&c, [0.0, 0.0, 0.0], 2.0);
        assert!((g.wdetj - 2.0 * 0.125).abs() < 1e-14);
    }

    #[test]
    fn physical_grad_linear_field() {
        // f(x) = 3x - y + 2z has constant gradient everywhere, even on a
        // sheared element.
        let c = sheared();
        let xi = [0.37, -0.21, 0.55];
        let g = qp_geometry(&c, xi, 1.0);
        // Build the reference gradient of f∘map at xi via chain rule using
        // Q1 nodal values of f.
        let f = |p: [f64; 3]| 3.0 * p[0] - p[1] + 2.0 * p[2];
        let grads = crate::basis::q1_grad(xi);
        let mut ref_grad = [0.0; 3];
        for (n, corner) in c.iter().enumerate() {
            for d in 0..3 {
                ref_grad[d] += f(*corner) * grads[n][d];
            }
        }
        let pg = physical_grad(&g, ref_grad);
        assert!((pg[0] - 3.0).abs() < 1e-12, "{pg:?}");
        assert!((pg[1] + 1.0).abs() < 1e-12);
        assert!((pg[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_map_roundtrip() {
        let c = sheared();
        for &xi in &[
            [0.0, 0.0, 0.0],
            [0.7, -0.8, 0.3],
            [-0.99, 0.99, -0.5],
            [1.0, 1.0, 1.0],
        ] {
            let x = map_to_physical(&c, xi);
            let found = inverse_map(&c, x, 1e-12, 50).expect("Newton converges");
            for d in 0..3 {
                assert!((found[d] - xi[d]).abs() < 1e-9, "{found:?} vs {xi:?}");
            }
            assert!(xi_inside(found, 1e-8));
        }
    }

    #[test]
    fn inverse_map_detects_outside() {
        let c = unit_cube();
        let xi = inverse_map(&c, [1.6, 0.5, 0.5], 1e-12, 50).unwrap();
        assert!(!xi_inside(xi, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_element_panics() {
        let mut c = unit_cube();
        for p in &mut c {
            p[0] = -p[0]; // mirror: det J < 0 everywhere
        }
        let _ = qp_geometry(&c, [0.0, 0.0, 0.0], 1.0);
    }
}
