//! Domain-decomposition preconditioners: the direct coarse solve (sparse
//! Cholesky, dense LU as its fallback), block-Jacobi and (overlapping)
//! additive Schwarz.
//!
//! These provide the coarse-grid solvers of the paper: "the coarse level
//! solver was defined via a block Jacobi preconditioner, with an exact LU
//! factorization applied on each of the subdomains" (§IV-A), the AMG
//! hierarchy's coarsest solve here. Every exact solve — the whole matrix
//! or one subdomain block — is a [`DirectSolver`].

use crate::cholesky::{CholeskySymbolic, FactorError, SparseCholesky};
use crate::csr::Csr;
use crate::dense::{DenseLu, DenseMatrix};
use crate::ilu::Ilu0;
use crate::operator::Preconditioner;
use std::sync::Arc;

/// How each subdomain block is solved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubdomainSolve {
    /// Exact factorization of the subdomain matrix: a [`DirectSolver`]
    /// whose dense-LU fallback starts from a diagonal shift of 1.
    Lu,
    /// One application of ILU(0).
    Ilu0,
}

enum BlockFactor {
    Exact(DirectSolver),
    Ilu(Ilu0),
}

/// First shift of the dense fallback ladder for a subdomain block: a block
/// cut from a singular or indefinite matrix is regularized firmly, since
/// block-Jacobi only needs a good approximate inverse.
const BLOCK_FALLBACK_SHIFT: f64 = 1.0;

/// First shift of the dense fallback ladder for the whole coarse matrix,
/// whose solve should stay as close to exact as the matrix allows.
const DIRECT_FALLBACK_SHIFT: f64 = 1e-12;

/// Factor `d`, escalating a diagonal shift until the factorization
/// succeeds. If the caller's `base_shift` is not enough, the last resort
/// shifts every row to strict diagonal dominance, which guarantees a
/// nonsingular matrix — so this function cannot fail.
pub fn factor_regularized(mut d: DenseMatrix, base_shift: f64) -> DenseLu {
    if let Some(lu) = DenseLu::factor(&d) {
        return lu;
    }
    // Singular input (e.g. all-Dirichlet rows already eliminated):
    // regularize with the caller's mild diagonal shift first.
    for i in 0..d.nrows {
        d.add(i, i, base_shift);
    }
    if let Some(lu) = DenseLu::factor(&d) {
        return lu;
    }
    // Last resort: force strict diagonal dominance row by row.
    for i in 0..d.nrows {
        let mut off = 0.0;
        for j in 0..d.ncols {
            if j != i {
                off += d.get(i, j).abs();
            }
        }
        let diag = d.get(i, i);
        let need = off + 1.0;
        if diag.abs() < need {
            d.add(
                i,
                i,
                if diag >= 0.0 {
                    need - diag
                } else {
                    -(need + diag)
                },
            );
        }
    }
    DenseLu::factor(&d)
        // PANIC-OK: a strictly diagonally dominant matrix is nonsingular,
        // so partial-pivoted LU cannot hit a zero pivot here.
        .expect("diagonally dominant matrix factors")
}

impl BlockFactor {
    fn build(sub: &Csr, kind: SubdomainSolve) -> Self {
        match kind {
            SubdomainSolve::Lu => {
                BlockFactor::Exact(DirectSolver::build(sub, None, BLOCK_FALLBACK_SHIFT))
            }
            SubdomainSolve::Ilu0 => BlockFactor::Ilu(Ilu0::factor(sub)),
        }
    }

    fn solve(&self, r: &[f64], z: &mut [f64]) {
        match self {
            BlockFactor::Exact(direct) => direct.apply(r, z),
            BlockFactor::Ilu(ilu) => ilu.solve(r, z),
        }
    }
}

enum DirectFactor {
    Cholesky(SparseCholesky),
    Dense(DenseLu),
}

/// Exact solve of a matrix: the coarsest-level solver of the geometric and
/// algebraic hierarchies, and every block of an exact block-Jacobi.
///
/// A symmetric positive definite matrix — every viscous coarse operator
/// and each of its principal blocks — gets a sparse envelope Cholesky
/// factorization ([`crate::cholesky`]). Anything it rejects (a
/// non-positive pivot: indefinite or singular input; an asymmetric matrix)
/// is densified and goes down the [`factor_regularized`] ladder of pivoted
/// LU and diagonal shifts, which cannot fail. The ladder's first shift is
/// 1e-12 for a whole matrix and 1 for a subdomain block.
pub struct DirectSolver {
    factor: DirectFactor,
}

impl DirectSolver {
    pub fn new(a: &Csr) -> Self {
        Self::with_symbolic(a, None)
    }

    /// [`new`](Self::new) over a symbolic phase kept from an earlier
    /// matrix; `a` is analyzed when there is none or its pattern differs.
    pub fn with_symbolic(a: &Csr, symbolic: Option<Arc<CholeskySymbolic>>) -> Self {
        Self::build(a, symbolic, DIRECT_FALLBACK_SHIFT)
    }

    /// The sparse factor, or the dense ladder from `fallback_shift`.
    fn build(a: &Csr, symbolic: Option<Arc<CholeskySymbolic>>, fallback_shift: f64) -> Self {
        let factor = match Self::cholesky(a, symbolic) {
            Ok(chol) => DirectFactor::Cholesky(chol),
            Err(_) => DirectFactor::Dense(factor_regularized(a.to_dense(), fallback_shift)),
        };
        Self { factor }
    }

    /// The sparse factorization alone: the typed reason where
    /// [`new`](Self::new) would fall back to dense LU. A matrix with a
    /// NaN or infinite coefficient is refused here; the fallback would
    /// hand its NaNs on to every solve.
    pub fn try_new(a: &Csr) -> Result<Self, FactorError> {
        let factor = DirectFactor::Cholesky(Self::cholesky(a, None)?);
        Ok(Self { factor })
    }

    fn cholesky(
        a: &Csr,
        symbolic: Option<Arc<CholeskySymbolic>>,
    ) -> Result<SparseCholesky, FactorError> {
        let symbolic = match symbolic.filter(|s| s.matches(a)) {
            Some(s) => s,
            None => Arc::new(CholeskySymbolic::analyze(a)?),
        };
        SparseCholesky::factor(symbolic, a)
    }

    /// The sparse factor, unless the matrix took the dense fallback.
    pub fn cholesky_factor(&self) -> Option<&SparseCholesky> {
        match &self.factor {
            DirectFactor::Cholesky(chol) => Some(chol),
            DirectFactor::Dense(_) => None,
        }
    }
}

impl Preconditioner for DirectSolver {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match &self.factor {
            DirectFactor::Cholesky(chol) => chol.solve(r, z),
            DirectFactor::Dense(lu) => lu.solve(r, z),
        }
    }
}

/// A subdomain: the (sorted, unique) global dofs it owns, plus which of
/// those it contributes back to in the additive combine.
struct Subdomain {
    dofs: Vec<usize>,
    factor: BlockFactor,
}

/// Block-Jacobi / additive-Schwarz preconditioner over explicit dof sets.
///
/// With non-overlapping sets this is block-Jacobi; with overlapping sets it
/// is (unweighted) additive Schwarz, matching PETSc's `PCASM` default.
pub struct AdditiveSchwarz {
    n: usize,
    subs: Vec<Subdomain>,
    /// Reused local residual/solution buffers for `apply` (the PR-4
    /// MaskScratch pattern: take when uncontended, allocate otherwise).
    scratch: std::sync::Mutex<(Vec<f64>, Vec<f64>)>,
}

impl AdditiveSchwarz {
    /// Build from explicit subdomain dof sets. Each set must be sorted and
    /// unique; sets may overlap.
    pub fn new(a: &Csr, subdomains: Vec<Vec<usize>>, kind: SubdomainSolve) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        let subs = subdomains
            .into_iter()
            .filter(|d| !d.is_empty())
            .map(|dofs| {
                debug_assert!(dofs.windows(2).all(|w| w[0] < w[1]), "dofs sorted+unique");
                let sub = a.extract_principal_submatrix(&dofs);
                let factor = BlockFactor::build(&sub, kind);
                Subdomain { dofs, factor }
            })
            .collect();
        Self {
            n: a.nrows(),
            subs,
            scratch: std::sync::Mutex::new((Vec::new(), Vec::new())),
        }
    }

    /// Convenience: non-overlapping block-Jacobi over `nblocks` contiguous
    /// row ranges (rows are assumed grouped by subdomain, as produced by
    /// our structured mesh decomposition).
    pub fn block_jacobi(a: &Csr, nblocks: usize, kind: SubdomainSolve) -> Self {
        let n = a.nrows();
        let ranges = crate::par::split_ranges(n, nblocks.max(1));
        let sets = ranges.into_iter().map(|(s, e)| (s..e).collect()).collect();
        Self::new(a, sets, kind)
    }

    pub fn num_subdomains(&self) -> usize {
        self.subs.len()
    }
}

impl AdditiveSchwarz {
    fn apply_with(&self, r: &[f64], z: &mut [f64], rl: &mut Vec<f64>, zl: &mut Vec<f64>) {
        z.fill(0.0);
        for sub in &self.subs {
            let m = sub.dofs.len();
            rl.resize(m, 0.0);
            zl.resize(m, 0.0);
            for (rv, &g) in rl.iter_mut().zip(&sub.dofs) {
                *rv = r[g];
            }
            sub.factor.solve(rl, zl);
            for (&zv, &g) in zl.iter().zip(&sub.dofs) {
                z[g] += zv;
            }
        }
    }
}

impl Preconditioner for AdditiveSchwarz {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n);
        assert_eq!(z.len(), self.n);
        match self.scratch.try_lock() {
            Ok(mut guard) => {
                let (rl, zl) = &mut *guard;
                self.apply_with(r, z, rl, zl);
            }
            Err(_) => {
                // ALLOC-OK: fallback only when a concurrent apply holds the
                // cached scratch; the common path reuses the buffers above.
                let (mut rl, mut zl) = (Vec::new(), Vec::new());
                self.apply_with(r, z, &mut rl, &mut zl);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::{cg, gmres, KrylovConfig};
    use crate::operator::IdentityPc;

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
    fn apply_bitwise_equals_the_indexed_gather_and_scatter() {
        let n = 90;
        let a = crate::csr::random_test_matrix(n, 5);
        // Three overlapping sets; dofs 80.. belong to none.
        let sets = vec![
            (0..40).collect(),
            (30..70).collect(),
            (25..80).step_by(2).collect(),
        ];
        let pc = AdditiveSchwarz::new(&a, sets, SubdomainSolve::Ilu0);
        let r: Vec<f64> = (0..n).map(|i| ((i * 7 % 23) as f64 - 11.0) / 5.0).collect();
        let mut z = vec![f64::NAN; n];
        pc.apply(&r, &mut z);
        let mut w = vec![0.0; n];
        for sub in &pc.subs {
            let m = sub.dofs.len();
            let (mut rl, mut zl) = (vec![0.0; m], vec![0.0; m]);
            for l in 0..m {
                rl[l] = r[sub.dofs[l]];
            }
            sub.factor.solve(&rl, &mut zl);
            for l in 0..m {
                w[sub.dofs[l]] += zl[l];
            }
        }
        for i in 0..n {
            assert_eq!(z[i].to_bits(), w[i].to_bits(), "dof {i}");
        }
    }

    #[test]
    fn single_block_lu_is_exact() {
        let n = 30;
        let a = laplace1d(n);
        let pc = AdditiveSchwarz::block_jacobi(&a, 1, SubdomainSolve::Lu);
        let b = vec![1.0; n];
        let mut z = vec![0.0; n];
        pc.apply(&b, &mut z);
        let mut check = vec![0.0; n];
        a.spmv(&z, &mut check);
        for i in 0..n {
            assert!((check[i] - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn direct_solver_is_exact() {
        let n = 20;
        let a = laplace1d(n);
        let ds = DirectSolver::new(&a);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut z = vec![0.0; n];
        ds.apply(&b, &mut z);
        let mut check = vec![0.0; n];
        a.spmv(&z, &mut check);
        for i in 0..n {
            assert!((check[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn block_jacobi_accelerates_cg() {
        let n = 128;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let cfg = KrylovConfig::default().with_rtol(1e-8);
        let mut x0 = vec![0.0; n];
        let plain = cg(&a, &IdentityPc, &b, &mut x0, &cfg);
        let pc = AdditiveSchwarz::block_jacobi(&a, 4, SubdomainSolve::Lu);
        let mut x1 = vec![0.0; n];
        let pcd = cg(&a, &pc, &b, &mut x1, &cfg);
        assert!(pcd.converged);
        assert!(pcd.iterations < plain.iterations);
    }

    #[test]
    fn overlap_improves_iteration_count() {
        let n = 200;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let cfg = KrylovConfig::default().with_rtol(1e-8).with_restart(200);
        let ranges = crate::par::split_ranges(n, 8);
        // Non-overlapping.
        let sets0: Vec<Vec<usize>> = ranges.iter().map(|&(s, e)| (s..e).collect()).collect();
        let pc0 = AdditiveSchwarz::new(&a, sets0, SubdomainSolve::Lu);
        let mut x0 = vec![0.0; n];
        let s0 = gmres(&a, &pc0, &b, &mut x0, &cfg);
        // Overlap 4: four layers of the path graph on either side.
        let sets4: Vec<Vec<usize>> = ranges
            .iter()
            .map(|&(s, e)| (s.saturating_sub(4)..(e + 4).min(n)).collect())
            .collect();
        let pc4 = AdditiveSchwarz::new(&a, sets4, SubdomainSolve::Lu);
        let mut x4 = vec![0.0; n];
        let s4 = gmres(&a, &pc4, &b, &mut x4, &cfg);
        assert!(s0.converged && s4.converged);
        // Unweighted additive Schwarz double-counts corrections in overlap
        // regions, so the iteration count is comparable rather than strictly
        // lower; guard against the overlap machinery *hurting* convergence.
        assert!(
            s4.iterations <= s0.iterations + 2,
            "overlap 4: {} its vs overlap 0: {} its",
            s4.iterations,
            s0.iterations
        );
    }

    #[test]
    fn ilu_subdomains_work() {
        let n = 64;
        let a = laplace1d(n);
        let pc = AdditiveSchwarz::block_jacobi(&a, 4, SubdomainSolve::Ilu0);
        let b = vec![1.0; n];
        let cfg = KrylovConfig::default().with_rtol(1e-8);
        let mut x = vec![0.0; n];
        let s = gmres(&a, &pc, &b, &mut x, &cfg);
        assert!(s.converged);
    }
}
