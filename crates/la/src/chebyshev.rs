//! Jacobi-preconditioned Chebyshev smoothing — the production smoother of
//! the paper (§III-C): "we fix the smoother as Jacobi-preconditioned
//! Chebyshev iterations targeting the interval [0.2 λmax, 1.1 λmax], where
//! λmax is an estimate of the largest eigenvalue of the Jacobi-preconditioned
//! operator, computed by a few iterations of a Krylov method."
//!
//! [`Chebyshev::smooth`] / [`smooth_with`](Chebyshev::smooth_with) run k
//! full-mesh sweeps, one operator application each, so the smoother works
//! for any [`LinearOperator`], including the matrix-free ones.

use crate::operator::LinearOperator;
use crate::vec_ops as v;

/// Fraction of the estimated λmax used as the lower end of the target
/// interval (paper value).
pub const TARGET_LO: f64 = 0.2;
/// Safety factor applied to the estimated λmax for the upper end
/// (paper value).
pub const TARGET_HI: f64 = 1.1;

/// Estimate the largest eigenvalue of `D⁻¹A` with a few power iterations —
/// the "few iterations of a Krylov method" of the paper.
///
/// A deterministic pseudo-random start vector avoids pathological alignment
/// with low modes while keeping runs reproducible.
pub fn estimate_lambda_max(a: &dyn LinearOperator, inv_diag: &[f64], iters: usize) -> f64 {
    let n = a.nrows();
    assert_eq!(inv_diag.len(), n);
    // Deterministic xorshift start vector in (-1, 1).
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let mut x: Vec<f64> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect();
    let mut y = vec![0.0; n];
    let mut lambda = 1.0;
    let nx = v::norm2(&x);
    if nx == 0.0 {
        return 1.0;
    }
    v::scale(1.0 / nx, &mut x);
    for _ in 0..iters.max(1) {
        a.apply(&x, &mut y);
        v::pointwise_scale(inv_diag, &mut y);
        let ny = v::norm2(&y);
        if ny == 0.0 {
            return 1.0;
        }
        // ‖D⁻¹A x‖ for a unit x bounds the dominant eigenvalue from below
        // and converges to it; more robust than the signed Rayleigh
        // quotient when the operator is non-normal.
        lambda = ny;
        x.copy_from_slice(&y);
        v::scale(1.0 / ny, &mut x);
    }
    lambda
}

/// The Jacobi map `D⁻¹` of `a`, with a zero diagonal entry mapped to 1.
pub fn inverse_diagonal(a: &dyn LinearOperator) -> Vec<f64> {
    a.diagonal()
        // PANIC-OK: construction-time contract — every smoothable
        // operator in this workspace provides a diagonal; a missing one
        // is a programming error, not a data-dependent failure.
        .expect("Chebyshev smoother requires an operator diagonal")
        .iter()
        .map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 })
        .collect()
}

/// Chebyshev(k) smoother with a fixed Jacobi preconditioner.
#[derive(Clone, Debug)]
pub struct Chebyshev {
    inv_diag: Vec<f64>,
    lambda_lo: f64,
    lambda_hi: f64,
    /// Number of Chebyshev iterations per `smooth` application.
    pub iters: usize,
}

impl Chebyshev {
    /// Build a smoother for `a`, estimating λmax of `D⁻¹A` with
    /// `est_iters` power iterations and targeting
    /// `[TARGET_LO·λmax, TARGET_HI·λmax]`.
    pub fn new(a: &dyn LinearOperator, iters: usize, est_iters: usize) -> Self {
        Self::with_diagonal(a, inverse_diagonal(a), iters, est_iters)
    }

    /// [`new`](Self::new) given `a`'s [`inverse_diagonal`] (a caller that
    /// times the diagonal apart from the power iteration).
    pub fn with_diagonal(
        a: &dyn LinearOperator,
        inv_diag: Vec<f64>,
        iters: usize,
        est_iters: usize,
    ) -> Self {
        let lmax = estimate_lambda_max(a, &inv_diag, est_iters);
        Self::with_bounds(inv_diag, TARGET_LO * lmax, TARGET_HI * lmax, iters)
    }

    /// Build with explicit spectral bounds (tests, reuse of estimates).
    pub fn with_bounds(inv_diag: Vec<f64>, lambda_lo: f64, lambda_hi: f64, iters: usize) -> Self {
        Self {
            inv_diag,
            lambda_lo,
            lambda_hi,
            iters,
        }
    }

    pub fn lambda_bounds(&self) -> (f64, f64) {
        (self.lambda_lo, self.lambda_hi)
    }

    /// In-place smoothing: improve `x` for `A x = b` with `self.iters`
    /// Chebyshev iterations (one operator application each).
    pub fn smooth(&self, a: &dyn LinearOperator, b: &[f64], x: &mut [f64]) {
        self.smooth_with(a, b, x, self.iters);
    }

    /// [`smooth`](Self::smooth) with an explicit iteration count — lets a
    /// V(m,n) cycle use different pre-/post-smoothing depths on one
    /// smoother instance.
    pub fn smooth_with(&self, a: &dyn LinearOperator, b: &[f64], x: &mut [f64], iters: usize) {
        let n = b.len();
        // ALLOC-OK: the three work vectors of a stand-alone application,
        // in one piece; a multigrid cycle lends its own through
        // `smooth_with_work` / `smooth_from_zero`.
        let mut work = vec![0.0; 3 * n];
        let (r, rest) = work.split_at_mut(n);
        let (d, ad) = rest.split_at_mut(n);
        self.sweep(a, b, x, iters, false, [r, d, ad]);
    }

    /// [`smooth_with`](Self::smooth_with) on caller-owned work vectors
    /// (residual, direction, operator image — each as long as `b`,
    /// contents irrelevant).
    pub fn smooth_with_work(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x: &mut [f64],
        iters: usize,
        work: [&mut [f64]; 3],
    ) {
        self.sweep(a, b, x, iters, false, work);
    }

    /// [`smooth_with_work`](Self::smooth_with_work) for an iterate that is
    /// zero on entry — the pre-smoothing of a multigrid cycle. The first
    /// residual is `b` itself, so the operator is applied `iters − 1`
    /// times instead of `iters`. Equal to `smooth_with` on the zeroed `x`
    /// in every bit, the sign of zeros aside (`b − A·0` turns a `−0.0` of
    /// `b` into `+0.0`).
    pub fn smooth_from_zero(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x: &mut [f64],
        iters: usize,
        work: [&mut [f64]; 3],
    ) {
        debug_assert!(x.iter().all(|&v| v == 0.0), "iterate must start at zero");
        self.sweep(a, b, x, iters, true, work);
    }

    /// The recurrence behind every smoothing entry point.
    fn sweep(
        &self,
        a: &dyn LinearOperator,
        b: &[f64],
        x: &mut [f64],
        iters: usize,
        x_is_zero: bool,
        [r, d, ad]: [&mut [f64]; 3],
    ) {
        if iters == 0 {
            return;
        }
        let theta = 0.5 * (self.lambda_hi + self.lambda_lo);
        let delta = 0.5 * (self.lambda_hi - self.lambda_lo);
        let sigma = theta / delta;
        let mut rho = 1.0 / sigma;
        if x_is_zero {
            r.copy_from_slice(b);
        } else {
            a.apply(x, r);
            v::residual_ip(b, r);
        }
        // d = D⁻¹ r / θ
        v::cheb_d_init(&self.inv_diag, r, theta, d);
        for k in 0..iters {
            v::axpy(1.0, d, x);
            if k + 1 == iters {
                break;
            }
            a.apply(d, ad);
            v::axpy(-1.0, ad, r);
            let rho_new = 1.0 / (2.0 * sigma - rho);
            let c1 = rho_new * rho;
            let c2 = 2.0 * rho_new / delta;
            v::cheb_update(c1, c2, &self.inv_diag, r, d);
            rho = rho_new;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    fn laplace1d(n: usize) -> Csr {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triplets(n, n, &t)
    }

    #[test]
    fn lambda_max_estimate_close() {
        // Eigenvalues of D^{-1}A for the 1D Laplacian: 1 - cos(kπ/(n+1)),
        // λmax → 2 as n grows.
        let n = 200;
        let a = laplace1d(n);
        let inv_diag: Vec<f64> = vec![0.5; n];
        let lmax = estimate_lambda_max(&a, &inv_diag, 30);
        assert!(lmax > 1.8 && lmax < 2.05, "estimate {lmax} not close to 2");
    }

    #[test]
    fn chebyshev_reduces_error_strongly() {
        let n = 64;
        let a = laplace1d(n);
        let cheb = Chebyshev::new(&a, 5, 20);
        let xstar: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.3).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xstar, &mut b);
        let mut x = vec![0.0; n];
        cheb.smooth(&a, &b, &mut x);
        // High-frequency error must drop: total error reduced noticeably.
        let e0: f64 = xstar.iter().map(|v| v * v).sum::<f64>().sqrt();
        let e1: f64 = x
            .iter()
            .zip(&xstar)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(e1 < e0, "no error reduction: {e1} vs {e0}");
    }

    #[test]
    fn chebyshev_damps_high_frequency_fast() {
        // Pure high-frequency error must be damped strongly in few its.
        let n = 128;
        let a = laplace1d(n);
        let cheb = Chebyshev::new(&a, 3, 20);
        // error = highest mode sin((n) k π/(n+1))
        let err0: Vec<f64> = (0..n)
            .map(|i| ((i + 1) as f64 * n as f64 * std::f64::consts::PI / (n as f64 + 1.0)).sin())
            .collect();
        // Solve A x = 0 with x0 = err0; after smoothing x should shrink.
        let b = vec![0.0; n];
        let mut x = err0.clone();
        cheb.smooth(&a, &b, &mut x);
        let r0 = crate::vec_ops::norm2(&err0);
        let r1 = crate::vec_ops::norm2(&x);
        assert!(
            r1 < 0.15 * r0,
            "high-frequency damping too weak: {r1} vs {r0}"
        );
    }

    /// Deterministic random SPD matrix: symmetric off-diagonal pattern with
    /// a strictly dominant diagonal.
    fn random_spd(n: usize, seed: u64) -> Csr {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut t = Vec::new();
        let mut diag = vec![1.0f64; n];
        for i in 0..n {
            for _ in 0..3 {
                let j = (next() % n as u64) as usize;
                if j <= i {
                    continue;
                }
                let v = (next() % 1000) as f64 / 1000.0 - 0.5;
                t.push((i, j, v));
                t.push((j, i, v));
                diag[i] += v.abs();
                diag[j] += v.abs();
            }
        }
        for (i, &d) in diag.iter().enumerate() {
            t.push((i, i, d));
        }
        Csr::from_triplets(n, n, &t)
    }

    /// The 1D Laplacian stencil applied without a matrix.
    struct StencilOp(usize);
    impl LinearOperator for StencilOp {
        fn nrows(&self) -> usize {
            self.0
        }
        fn ncols(&self) -> usize {
            self.0
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            for i in 0..self.0 {
                let left = if i > 0 { x[i - 1] } else { 0.0 };
                let right = if i + 1 < self.0 { x[i + 1] } else { 0.0 };
                y[i] = 2.0 * x[i] - left - right;
            }
        }
        fn diagonal(&self) -> Option<Vec<f64>> {
            Some(vec![2.0; self.0])
        }
    }

    #[test]
    fn smooth_from_zero_equals_smooth_with_on_a_zeroed_iterate() {
        let n = 257;
        let csr = random_spd(n, 7);
        let ops: [&dyn LinearOperator; 2] = [&csr, &StencilOp(n)];
        // Zeros of both signs in the right-hand side.
        let b: Vec<f64> = (0..n)
            .map(|i| match i % 11 {
                0 => 0.0,
                5 => -0.0,
                _ => ((i as f64) * 0.37).sin(),
            })
            .collect();
        for a in ops {
            let cheb = Chebyshev::new(a, 3, 10);
            for iters in 0..=4 {
                let mut x_ref = vec![0.0; n];
                cheb.smooth_with(a, &b, &mut x_ref, iters);
                let mut x = vec![0.0; n];
                let (mut r, mut d, mut ad) =
                    (vec![f64::NAN; n], vec![f64::NAN; n], vec![f64::NAN; n]);
                cheb.smooth_from_zero(a, &b, &mut x, iters, [&mut r, &mut d, &mut ad]);
                for i in 0..n {
                    let same =
                        x[i].to_bits() == x_ref[i].to_bits() || (x[i] == 0.0 && x_ref[i] == 0.0);
                    assert!(same, "iters={iters} dof {i}: {} vs {}", x[i], x_ref[i]);
                }
                // A warm iterate through the lent work vectors is the
                // allocating entry point bit for bit.
                let mut y_ref = x_ref.clone();
                cheb.smooth_with(a, &b, &mut y_ref, iters);
                let mut y = x_ref.clone();
                cheb.smooth_with_work(a, &b, &mut y, iters, [&mut r, &mut d, &mut ad]);
                assert!(y
                    .iter()
                    .zip(&y_ref)
                    .all(|(p, q)| p.to_bits() == q.to_bits()));
            }
        }
    }

    #[test]
    fn smooth_converges_as_iteration() {
        // Repeated V(0)-style smoothing alone must converge for SPD systems
        // when the interval covers the spectrum.
        let n = 32;
        let a = laplace1d(n);
        let inv_diag = vec![0.5; n];
        // Cover the whole spectrum: Chebyshev becomes a (slow) solver.
        let cheb = Chebyshev::with_bounds(inv_diag, 0.005, 2.05, 50);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        for _ in 0..10 {
            cheb.smooth(&a, &b, &mut x);
        }
        let mut r = vec![0.0; n];
        a.spmv(&x, &mut r);
        for i in 0..n {
            r[i] -= b[i];
        }
        assert!(crate::vec_ops::norm2(&r) < 1e-6 * crate::vec_ops::norm2(&b));
    }
}
