//! ILU(0) — incomplete LU with zero fill-in, used as the subdomain solver
//! inside the additive Schwarz and block-Jacobi preconditioners (§V: "ASM
//! preconditioner employed an overlap of 4, with subdomain solves defined
//! via a single application of ILU(0)"; Table IV's SAML-ii smoother).

use crate::csr::Csr;
use crate::operator::Preconditioner;

/// ILU(0) factorization sharing the sparsity pattern of `A`.
///
/// `L` has unit diagonal (strictly-lower entries stored in place), `U`
/// occupies the diagonal and upper triangle.
#[derive(Clone, Debug)]
pub struct Ilu0 {
    n: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    /// Position of the diagonal entry within each row.
    diag_pos: Vec<usize>,
}

impl Ilu0 {
    /// Factor `a`. Rows missing a diagonal entry or producing a zero pivot
    /// get a unit pivot substituted (shift-style rescue, keeps the
    /// preconditioner usable on awkward subdomains).
    pub fn factor(a: &Csr) -> Self {
        assert_eq!(a.nrows(), a.ncols());
        let n = a.nrows();
        let indptr = a.indptr.clone();
        let indices = a.indices.clone();
        let mut values = a.values.clone();
        let mut diag_pos = vec![usize::MAX; n];
        for i in 0..n {
            for k in indptr[i]..indptr[i + 1] {
                if indices[k] as usize == i {
                    diag_pos[i] = k;
                    break;
                }
            }
        }
        // Column-position lookup for the current row.
        let mut col_pos = vec![usize::MAX; n];
        for i in 0..n {
            let (rs, re) = (indptr[i], indptr[i + 1]);
            for k in rs..re {
                col_pos[indices[k] as usize] = k;
            }
            for kk in rs..re {
                let kcol = indices[kk] as usize;
                if kcol >= i {
                    break; // columns sorted: done with the lower part
                }
                // a_ik /= u_kk
                let dk = diag_pos[kcol];
                let ukk = if dk == usize::MAX { 1.0 } else { values[dk] };
                let lik = values[kk] / ukk;
                values[kk] = lik;
                if lik == 0.0 {
                    continue;
                }
                // Row-k update restricted to row-i's pattern.
                if dk == usize::MAX {
                    continue;
                }
                for kj in dk + 1..indptr[kcol + 1] {
                    let j = indices[kj] as usize;
                    let p = col_pos[j];
                    if p != usize::MAX && p >= rs && p < re {
                        values[p] -= lik * values[kj];
                    }
                }
            }
            // Zero-pivot rescue.
            if diag_pos[i] == usize::MAX {
                // Pattern has no diagonal: treat as unit pivot implicitly.
            } else if values[diag_pos[i]] == 0.0 {
                values[diag_pos[i]] = 1.0;
            }
            for k in rs..re {
                col_pos[indices[k] as usize] = usize::MAX;
            }
        }
        Self {
            n,
            indptr,
            indices,
            values,
            diag_pos,
        }
    }

    /// Solve `L U z = r`.
    pub fn solve(&self, r: &[f64], z: &mut [f64]) {
        let n = self.n;
        assert_eq!(r.len(), n);
        assert_eq!(z.len(), n);
        // Both sweeps take the row's column/value slices once, so the
        // inner loops keep only the bounds check of the gather `z[j]`;
        // every sum runs in stored (ascending-column) order.
        // Forward: L z = r (unit diagonal).
        for i in 0..n {
            let mut s = r[i];
            let end = if self.diag_pos[i] == usize::MAX {
                self.indptr[i + 1]
            } else {
                self.diag_pos[i]
            };
            let start = self.indptr[i];
            for (&j, &v) in self.indices[start..end]
                .iter()
                .zip(&self.values[start..end])
            {
                let j = j as usize;
                if j >= i {
                    break;
                }
                s -= v * z[j];
            }
            z[i] = s;
        }
        // Backward: U z = z.
        for i in (0..n).rev() {
            let d = self.diag_pos[i];
            if d == usize::MAX {
                continue; // unit pivot
            }
            let mut s = z[i];
            let end = self.indptr[i + 1];
            for (&j, &v) in self.indices[d + 1..end]
                .iter()
                .zip(&self.values[d + 1..end])
            {
                s -= v * z[j as usize];
            }
            z[i] = s / self.values[d];
        }
    }
}

impl Preconditioner for Ilu0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solve(r, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::{gmres, KrylovConfig};
    use crate::operator::IdentityPc;

    fn laplace2d(nx: usize) -> Csr {
        let n = nx * nx;
        let idx = |i: usize, j: usize| i * nx + j;
        let mut t = Vec::new();
        for i in 0..nx {
            for j in 0..nx {
                let r = idx(i, j);
                t.push((r, r, 4.0));
                if i > 0 {
                    t.push((r, idx(i - 1, j), -1.0));
                }
                if i + 1 < nx {
                    t.push((r, idx(i + 1, j), -1.0));
                }
                if j > 0 {
                    t.push((r, idx(i, j - 1), -1.0));
                }
                if j + 1 < nx {
                    t.push((r, idx(i, j + 1), -1.0));
                }
            }
        }
        Csr::from_triplets(n, n, &t)
    }

    #[test]
    fn solve_bitwise_equals_the_indexed_loops() {
        for seed in 0..4 {
            let a = crate::csr::random_test_matrix(83, seed);
            let f = Ilu0::factor(&a);
            assert!(f.diag_pos.contains(&usize::MAX), "a row without diagonal");
            let n = f.n;
            let r: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64 - 8.0) / 3.0).collect();
            let mut z = vec![0.0; n];
            f.solve(&r, &mut z);
            let mut w = vec![0.0; n];
            for i in 0..n {
                let mut s = r[i];
                let end = if f.diag_pos[i] == usize::MAX {
                    f.indptr[i + 1]
                } else {
                    f.diag_pos[i]
                };
                for k in f.indptr[i]..end {
                    let j = f.indices[k] as usize;
                    if j >= i {
                        break;
                    }
                    s -= f.values[k] * w[j];
                }
                w[i] = s;
            }
            for i in (0..n).rev() {
                let d = f.diag_pos[i];
                if d == usize::MAX {
                    continue;
                }
                let mut s = w[i];
                for k in d + 1..f.indptr[i + 1] {
                    s -= f.values[k] * w[f.indices[k] as usize];
                }
                w[i] = s / f.values[d];
            }
            for i in 0..n {
                assert_eq!(z[i].to_bits(), w[i].to_bits(), "seed {seed}, row {i}");
            }
        }
    }

    #[test]
    fn ilu0_exact_for_triangular_pattern() {
        // For a lower+diagonal matrix ILU(0) is an exact factorization.
        let a = Csr::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (1, 0, -1.0),
                (1, 1, 3.0),
                (2, 1, -1.0),
                (2, 2, 4.0),
            ],
        );
        let ilu = Ilu0::factor(&a);
        let b = vec![2.0, 2.0, 3.0];
        let mut z = vec![0.0; 3];
        ilu.solve(&b, &mut z);
        let mut check = vec![0.0; 3];
        a.spmv(&z, &mut check);
        for i in 0..3 {
            assert!((check[i] - b[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn ilu0_exact_for_tridiagonal() {
        // Tridiagonal LU has no fill, so ILU(0) must be exact.
        let n = 25;
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
        let a = Csr::from_triplets(n, n, &t);
        let ilu = Ilu0::factor(&a);
        let b = vec![1.0; n];
        let mut z = vec![0.0; n];
        ilu.solve(&b, &mut z);
        let mut r = vec![0.0; n];
        a.spmv(&z, &mut r);
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-10, "row {i}: {} vs 1", r[i]);
        }
    }

    #[test]
    fn ilu0_accelerates_gmres_on_2d_laplacian() {
        let a = laplace2d(16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let cfg = KrylovConfig::default().with_rtol(1e-8).with_restart(60);
        let mut x0 = vec![0.0; n];
        let plain = gmres(&a, &IdentityPc, &b, &mut x0, &cfg);
        let ilu = Ilu0::factor(&a);
        let mut x1 = vec![0.0; n];
        let pcd = gmres(&a, &ilu, &b, &mut x1, &cfg);
        assert!(pcd.converged);
        assert!(
            pcd.iterations < plain.iterations,
            "ILU(0) ({}) not faster than unpreconditioned ({})",
            pcd.iterations,
            plain.iterations
        );
    }
}
