//! Operator and preconditioner abstractions (the PETSc `Mat`/`PC` analogue).
//!
//! Everything the Krylov methods touch goes through [`LinearOperator`];
//! assembled CSR matrices, matrix-free FEM kernels and multigrid cycles all
//! implement it, which is what lets the benchmark harness swap the paper's
//! Asmb / MF / Tensor operator applications inside an otherwise identical
//! solver.

use crate::coupling::CouplingBlock;

thread_local! {
    /// Work vector of the block operator and preconditioner applies: both
    /// run once per Krylov iteration and are built per solve from borrowed
    /// parts, so the buffer lives with the thread.
    static BLOCK_SCRATCH: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` on `n` entries of this thread's block scratch. The contents
/// are unspecified on entry; `f` must not use the block scratch itself.
pub fn with_block_scratch<R>(n: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    BLOCK_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < n {
            buf.resize(n, 0.0);
        }
        f(&mut buf[..n])
    })
}

/// Action of a linear operator `y = A x`.
pub trait LinearOperator: Sync {
    /// Number of rows of `A`.
    fn nrows(&self) -> usize;
    /// Number of columns of `A`.
    fn ncols(&self) -> usize;
    /// Compute `y = A x`. `x.len() == ncols()`, `y.len() == nrows()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// The diagonal of `A`, if the implementation can provide it
    /// (needed by Jacobi-preconditioned Chebyshev smoothing).
    fn diagonal(&self) -> Option<Vec<f64>> {
        None
    }
    /// Saddle-point action with this operator as the velocity block:
    /// `y_u = A x_u + Bᵀ x_p`, `y_p = B x_u`. The default composes the
    /// blocks; an element kernel that can apply its own gradient and
    /// divergence in the same pass overrides it, and then `b` must be the
    /// coupling block of the kernel's mesh with exactly the kernel's
    /// Dirichlet columns zeroed (none for an unmasked kernel). Such an
    /// override reads only `b`'s shape, so a deferred block stays
    /// unassembled.
    fn apply_stokes(
        &self,
        b: &dyn CouplingBlock,
        xu: &[f64],
        xp: &[f64],
        yu: &mut [f64],
        yp: &mut [f64],
    ) {
        let b = b.csr();
        self.apply(xu, yu);
        with_block_scratch(yu.len(), |bt| {
            b.spmv_transpose(xp, bt);
            crate::vec_ops::axpy(1.0, bt, yu);
        });
        b.spmv(xu, yp);
    }
    /// Divergence `y_p = B x_u` through this operator's mesh, under the
    /// same contract on `b` as [`apply_stokes`](Self::apply_stokes): the
    /// default multiplies by the assembled block, and an element kernel
    /// that overrides it writes the `y_p` its `apply_stokes` writes.
    fn apply_divergence(&self, b: &dyn CouplingBlock, xu: &[f64], yp: &mut [f64]) {
        b.csr().spmv(xu, yp);
    }
}

/// Approximate inverse action `z ≈ A⁻¹ r`.
///
/// Implementations may be nonlinear in `r` (e.g. an inner Krylov solve), in
/// which case only flexible methods (FGMRES, GCR) may wrap them — exactly
/// the constraint discussed in §III-A of the paper.
pub trait Preconditioner: Sync {
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

impl<T: LinearOperator + ?Sized> LinearOperator for &T {
    fn nrows(&self) -> usize {
        (**self).nrows()
    }
    fn ncols(&self) -> usize {
        (**self).ncols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }
    fn diagonal(&self) -> Option<Vec<f64>> {
        (**self).diagonal()
    }
    fn apply_stokes(
        &self,
        b: &dyn CouplingBlock,
        xu: &[f64],
        xp: &[f64],
        yu: &mut [f64],
        yp: &mut [f64],
    ) {
        (**self).apply_stokes(b, xu, xp, yu, yp)
    }
    fn apply_divergence(&self, b: &dyn CouplingBlock, xu: &[f64], yp: &mut [f64]) {
        (**self).apply_divergence(b, xu, yp)
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for Box<T>
where
    Box<T>: Sync,
{
    fn nrows(&self) -> usize {
        (**self).nrows()
    }
    fn ncols(&self) -> usize {
        (**self).ncols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }
    fn diagonal(&self) -> Option<Vec<f64>> {
        (**self).diagonal()
    }
    fn apply_stokes(
        &self,
        b: &dyn CouplingBlock,
        xu: &[f64],
        xp: &[f64],
        yu: &mut [f64],
        yp: &mut [f64],
    ) {
        (**self).apply_stokes(b, xu, xp, yu, yp)
    }
    fn apply_divergence(&self, b: &dyn CouplingBlock, xu: &[f64], yp: &mut [f64]) {
        (**self).apply_divergence(b, xu, yp)
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for std::sync::Arc<T>
where
    std::sync::Arc<T>: Sync,
{
    fn nrows(&self) -> usize {
        (**self).nrows()
    }
    fn ncols(&self) -> usize {
        (**self).ncols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }
    fn diagonal(&self) -> Option<Vec<f64>> {
        (**self).diagonal()
    }
    fn apply_stokes(
        &self,
        b: &dyn CouplingBlock,
        xu: &[f64],
        xp: &[f64],
        yu: &mut [f64],
        yp: &mut [f64],
    ) {
        (**self).apply_stokes(b, xu, xp, yu, yp)
    }
    fn apply_divergence(&self, b: &dyn CouplingBlock, xu: &[f64], yp: &mut [f64]) {
        (**self).apply_divergence(b, xu, yp)
    }
}

/// The identity preconditioner (unpreconditioned Krylov).
pub struct IdentityPc;

impl Preconditioner for IdentityPc {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner: z = D⁻¹ r.
pub struct JacobiPc {
    inv_diag: Vec<f64>,
}

impl JacobiPc {
    /// Build from the operator diagonal. Zero diagonal entries are treated
    /// as 1 (constrained Dirichlet rows keep their residual unchanged).
    pub fn new(diag: &[f64]) -> Self {
        let inv_diag = diag
            .iter()
            .map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        Self { inv_diag }
    }

    pub fn from_operator(a: &dyn LinearOperator) -> Self {
        let d = a
            .diagonal()
            // PANIC-OK: construction-time contract — callers build JacobiPc
            // only for operators that expose a diagonal; a missing one is a
            // programming error, not a data-dependent failure.
            .expect("operator must provide a diagonal for JacobiPc");
        Self::new(&d)
    }

    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }
}

impl Preconditioner for JacobiPc {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        crate::vec_ops::pointwise_mult(&self.inv_diag, r, z);
    }
}

/// Adapter: any `LinearOperator` used as a preconditioner (applies the
/// operator itself, e.g. an explicitly formed approximate inverse).
pub struct OperatorPc<A: LinearOperator>(pub A);

impl<A: LinearOperator> Preconditioner for OperatorPc<A> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.0.apply(r, z);
    }
}

/// Wrapper accumulating wall-time and call counts of operator
/// applications — instruments the "MatMult" rows of the paper's Table IV.
pub struct TimedOperator<A: LinearOperator> {
    pub inner: A,
    nanos: std::sync::atomic::AtomicU64,
    calls: std::sync::atomic::AtomicU64,
}

impl<A: LinearOperator> TimedOperator<A> {
    pub fn new(inner: A) -> Self {
        Self {
            inner,
            nanos: std::sync::atomic::AtomicU64::new(0),
            calls: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Accumulated apply time in seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(std::sync::atomic::Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.nanos.store(0, std::sync::atomic::Ordering::Relaxed);
        self.calls.store(0, std::sync::atomic::Ordering::Relaxed);
    }

    /// Run one application of the inner operator, counted and timed.
    fn timed(&self, f: impl FnOnce(&A)) {
        // DETERMINISM-OK: TimedOperator is an instrumentation decorator; the
        // clock feeds counters only and never influences numeric results.
        let t0 = std::time::Instant::now();
        f(&self.inner);
        self.nanos.fetch_add(
            t0.elapsed().as_nanos() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl<A: LinearOperator> LinearOperator for TimedOperator<A> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.timed(|a| a.apply(x, y));
    }
    fn diagonal(&self) -> Option<Vec<f64>> {
        self.inner.diagonal()
    }
    fn apply_stokes(
        &self,
        b: &dyn CouplingBlock,
        xu: &[f64],
        xp: &[f64],
        yu: &mut [f64],
        yp: &mut [f64],
    ) {
        self.timed(|a| a.apply_stokes(b, xu, xp, yu, yp));
    }
    /// Forwarded untimed, like [`diagonal`](LinearOperator::diagonal): the
    /// counters time and count applications of `A` only, and the
    /// divergence is no product with `A`.
    fn apply_divergence(&self, b: &dyn CouplingBlock, xu: &[f64], yp: &mut [f64]) {
        self.inner.apply_divergence(b, xu, yp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    struct Diag(Vec<f64>);
    impl LinearOperator for Diag {
        fn nrows(&self) -> usize {
            self.0.len()
        }
        fn ncols(&self) -> usize {
            self.0.len()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            for i in 0..x.len() {
                y[i] = self.0[i] * x[i];
            }
        }
        fn diagonal(&self) -> Option<Vec<f64>> {
            Some(self.0.clone())
        }
    }

    #[test]
    fn jacobi_inverts_diagonal_operator() {
        let a = Diag(vec![2.0, 4.0, 0.5]);
        let pc = JacobiPc::from_operator(&a);
        let r = vec![2.0, 4.0, 0.5];
        let mut z = vec![0.0; 3];
        pc.apply(&r, &mut z);
        assert_eq!(z, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn default_stokes_action_composes_the_blocks() {
        // A = diag(2, 3), B = [1 -1]: y_u = A x_u + Bᵀ x_p, y_p = B x_u.
        let a = Diag(vec![2.0, 3.0]);
        let b = Csr::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, -1.0)]);
        let timed = TimedOperator::new(&a);
        let (mut yu, mut yp) = (vec![0.0; 2], vec![0.0; 1]);
        timed.apply_stokes(&b, &[1.0, 2.0], &[10.0], &mut yu, &mut yp);
        assert_eq!(yu, vec![12.0, -4.0]);
        assert_eq!(yp, vec![-1.0]);
        assert_eq!(timed.calls(), 1);
        // The divergence alone is `B x_u`, and not counted as an apply.
        timed.apply_divergence(&b, &[1.0, 2.0], &mut yp);
        assert_eq!(yp, vec![-1.0]);
        assert_eq!(timed.calls(), 1);
    }

    #[test]
    fn timed_operator_counts_and_delegates() {
        let a = Diag(vec![2.0, 3.0]);
        let t = TimedOperator::new(a);
        let mut y = vec![0.0; 2];
        t.apply(&[1.0, 1.0], &mut y);
        t.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0]);
        assert_eq!(t.calls(), 2);
        assert!(t.seconds() >= 0.0);
        assert_eq!(t.diagonal().unwrap(), vec![2.0, 3.0]);
        t.reset();
        assert_eq!(t.calls(), 0);
    }
}
