//! BLAS-1 style vector kernels (the PETSc `Vec` analogue).
//!
//! All kernels operate on plain `&[f64]` slices so that higher layers can
//! view sub-fields (velocity / pressure splits) without copying. Reductions
//! use a fixed deterministic combination order regardless of thread count.

use crate::par;
use crate::simd;

/// Threshold below which kernels run serially. Originally 1 << 15, tuned
/// for spawn-per-call dispatch (~20 µs/call); the persistent pool cut the
/// per-dispatch overhead by roughly an order of magnitude (see the
/// `dispatch_*` microbenches in `la_kernels` and EXPERIMENTS.md), which
/// moves the serial/parallel crossover down accordingly.
pub const PAR_MIN: usize = 1 << 12;

/// y ← x
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// x ← 0
pub fn zero(x: &mut [f64]) {
    x.fill(0.0);
}

/// x ← alpha * x
pub fn scale(alpha: f64, x: &mut [f64]) {
    if x.len() < PAR_MIN {
        for v in x.iter_mut() {
            *v *= alpha;
        }
    } else {
        par::par_chunks_mut(x, |_, c| {
            for v in c.iter_mut() {
                *v *= alpha;
            }
        });
    }
}

/// y ← y + alpha * x
///
/// Dispatches to the AVX2 slice kernel when available; both paths perform
/// the same plain `y += alpha·x` per entry, so the result is bitwise
/// identical across paths, partitions and thread counts.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    let path = simd::runtime_simd_path();
    if y.len() < PAR_MIN {
        simd::axpy(path, alpha, x, y);
    } else {
        par::par_chunks_mut(y, |off, c| {
            // Elementwise update of this piece's own chunk entries,
            // not a cross-piece reduction — order-insensitive.
            simd::axpy(path, alpha, &x[off..off + c.len()], c);
        });
    }
}

/// r ← b − r (the residual flip after `r = A x`; Chebyshev smoothing).
pub fn residual_ip(b: &[f64], r: &mut [f64]) {
    assert_eq!(b.len(), r.len());
    let path = simd::runtime_simd_path();
    if r.len() < PAR_MIN {
        simd::residual_ip(path, b, r);
    } else {
        par::par_chunks_mut(r, |off, c| {
            simd::residual_ip(path, &b[off..off + c.len()], c);
        });
    }
}

/// d ← (inv_diag .* r) / theta (Chebyshev direction seed).
pub fn cheb_d_init(inv_diag: &[f64], r: &[f64], theta: f64, d: &mut [f64]) {
    assert_eq!(inv_diag.len(), d.len());
    assert_eq!(r.len(), d.len());
    let path = simd::runtime_simd_path();
    if d.len() < PAR_MIN {
        simd::cheb_d_init(path, inv_diag, r, theta, d);
    } else {
        par::par_chunks_mut(d, |off, c| {
            let e = off + c.len();
            simd::cheb_d_init(path, &inv_diag[off..e], &r[off..e], theta, c);
        });
    }
}

/// d ← c1·d + c2·(inv_diag .* r) (Chebyshev direction recurrence).
pub fn cheb_update(c1: f64, c2: f64, inv_diag: &[f64], r: &[f64], d: &mut [f64]) {
    assert_eq!(inv_diag.len(), d.len());
    assert_eq!(r.len(), d.len());
    let path = simd::runtime_simd_path();
    if d.len() < PAR_MIN {
        simd::cheb_update(path, c1, c2, inv_diag, r, d);
    } else {
        par::par_chunks_mut(d, |off, c| {
            let e = off + c.len();
            simd::cheb_update(path, c1, c2, &inv_diag[off..e], &r[off..e], c);
        });
    }
}

/// y ← alpha * x + beta * y
pub fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    if y.len() < PAR_MIN {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = alpha * xi + beta * *yi;
        }
    } else {
        par::par_chunks_mut(y, |off, c| {
            for (i, yi) in c.iter_mut().enumerate() {
                *yi = alpha * x[off + i] + beta * *yi;
            }
        });
    }
}

/// Pointwise multiply: y ← d .* x (used for Jacobi preconditioning).
pub fn pointwise_mult(d: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(d.len(), x.len());
    assert_eq!(d.len(), y.len());
    if y.len() < PAR_MIN {
        for i in 0..y.len() {
            y[i] = d[i] * x[i];
        }
    } else {
        par::par_chunks_mut(y, |off, c| {
            for (i, yi) in c.iter_mut().enumerate() {
                *yi = d[off + i] * x[off + i];
            }
        });
    }
}

/// In-place pointwise multiply: y ← d .* y.
pub fn pointwise_scale(d: &[f64], y: &mut [f64]) {
    assert_eq!(d.len(), y.len());
    if y.len() < PAR_MIN {
        for (yi, &di) in y.iter_mut().zip(d) {
            *yi *= di;
        }
    } else {
        par::par_chunks_mut(y, |off, c| {
            for (i, yi) in c.iter_mut().enumerate() {
                *yi *= d[off + i];
            }
        });
    }
}

/// Euclidean inner product xᵀy.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    if x.len() < PAR_MIN {
        // DETERMINISM-OK: serial iterator fold, fixed left-to-right order.
        return x.iter().zip(y).map(|(a, b)| a * b).sum();
    }
    par::par_reduce(
        x.len(),
        0.0,
        |s, e| {
            x[s..e]
                .iter()
                .zip(&y[s..e])
                .map(|(a, b)| a * b)
                .sum::<f64>()
        },
        |a, b| a + b,
    )
}

/// `y ← y + αx`, then `yᵀz`, in one sweep: bitwise [`axpy`] followed by
/// [`dot`]. Each entry is updated as `axpy` updates it (a multiply, then an
/// add) and enters `dot`'s left-to-right sum over its reduction block, so
/// the update runs in the shadow of the sum's dependency chain.
pub fn axpy_dot(alpha: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
    assert!(x.len() == y.len() && z.len() == y.len());
    par::par_reduce_mut(
        y,
        0.0,
        |s, yb| {
            let e = s + yb.len();
            yb.iter_mut()
                .zip(&x[s..e])
                .zip(&z[s..e])
                .map(|((yi, xi), zi)| {
                    *yi += alpha * xi;
                    *yi * zi
                })
                .sum::<f64>()
        },
        |a, b| a + b,
    )
}

/// `y ← y + αx`, then `‖y‖₂`: bitwise [`axpy`] followed by [`norm2`].
pub fn axpy_norm2(alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    par::par_reduce_mut(
        y,
        0.0,
        |s, yb| {
            let e = s + yb.len();
            yb.iter_mut()
                .zip(&x[s..e])
                .map(|(yi, xi)| {
                    *yi += alpha * xi;
                    *yi * *yi
                })
                .sum::<f64>()
        },
        |a, b| a + b,
    )
    .sqrt()
}

/// `x ← αx`, then `xᵀz`: bitwise [`scale`] followed by [`dot`].
pub fn scale_dot(alpha: f64, x: &mut [f64], z: &[f64]) -> f64 {
    assert_eq!(x.len(), z.len());
    par::par_reduce_mut(
        x,
        0.0,
        |s, xb| {
            let e = s + xb.len();
            xb.iter_mut()
                .zip(&z[s..e])
                .map(|(xi, zi)| {
                    *xi *= alpha;
                    *xi * zi
                })
                .sum::<f64>()
        },
        |a, b| a + b,
    )
}

/// Euclidean norm ‖x‖₂.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Max norm ‖x‖∞.
pub fn norm_inf(x: &[f64]) -> f64 {
    if x.len() < PAR_MIN {
        return x.iter().fold(0.0, |m, v| m.max(v.abs()));
    }
    par::par_reduce(
        x.len(),
        0.0,
        |s, e| x[s..e].iter().fold(0.0f64, |m, v| m.max(v.abs())),
        f64::max,
    )
}

/// Sum of entries.
pub fn sum(x: &[f64]) -> f64 {
    if x.len() < PAR_MIN {
        // DETERMINISM-OK: serial iterator fold, fixed left-to-right order.
        return x.iter().sum();
    }
    par::par_reduce(
        x.len(),
        0.0,
        |s, e| x[s..e].iter().sum::<f64>(),
        |a, b| a + b,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 13) as f64 - 6.0).collect()
    }

    #[test]
    fn axpy_matches_reference() {
        let x = seq(1000);
        let mut y = seq(1000);
        let y0 = y.clone();
        axpy(2.5, &x, &mut y);
        for i in 0..1000 {
            assert_eq!(y[i], y0[i] + 2.5 * x[i]);
        }
    }

    #[test]
    fn dot_and_norms() {
        let x = vec![3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(sum(&x), 7.0);
    }

    #[test]
    fn large_parallel_dot_deterministic() {
        let _g = crate::par::test_guard();
        let n = 200_000;
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 % 101) as f64) / 100.0).collect();
        crate::par::set_num_threads(4);
        let d4 = dot(&x, &x);
        crate::par::set_num_threads(4);
        let d4b = dot(&x, &x);
        crate::par::set_num_threads(0);
        assert_eq!(d4, d4b, "same thread count must give identical bits");
    }

    #[test]
    fn fused_sweeps_match_the_separate_kernels_bitwise() {
        let _g = par::test_guard();
        // Serial, one reduction block, and several blocks with a tail.
        for n in [37, PAR_MIN + 5, 5 * 8192 + 123] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let y0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos() + 0.3).collect();
            let z: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
            for nt in [1, 3] {
                par::set_num_threads(nt);
                let (mut y1, mut y2) = (y0.clone(), y0.clone());
                axpy(-0.7, &x, &mut y1);
                let d = axpy_dot(-0.7, &x, &mut y2, &z);
                assert_eq!(d.to_bits(), dot(&y1, &z).to_bits(), "n = {n}, nt = {nt}");
                assert_eq!(bits(&y1), bits(&y2));
                let (mut y1, mut y2) = (y0.clone(), y0.clone());
                axpy(1.3, &x, &mut y1);
                let nrm = axpy_norm2(1.3, &x, &mut y2);
                assert_eq!(nrm.to_bits(), norm2(&y1).to_bits());
                assert_eq!(bits(&y1), bits(&y2));
                let (mut y1, mut y2) = (y0.clone(), y0.clone());
                scale(1.0 / 3.0, &mut y1);
                let d = scale_dot(1.0 / 3.0, &mut y2, &z);
                assert_eq!(d.to_bits(), dot(&z, &y1).to_bits());
                assert_eq!(bits(&y1), bits(&y2));
            }
        }
        par::set_num_threads(0);
    }

    #[test]
    fn axpby_pointwise() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![4.0, 5.0, 6.0];
        let mut z = y.clone();
        axpby(2.0, &x, 3.0, &mut z);
        assert_eq!(z, vec![14.0, 19.0, 24.0]);
        let mut p = vec![0.0; 3];
        pointwise_mult(&x, &y, &mut p);
        assert_eq!(p, vec![4.0, 10.0, 18.0]);
        let mut q = y.clone();
        pointwise_scale(&x, &mut q);
        assert_eq!(q, p);
    }
}
