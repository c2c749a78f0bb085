//! Compressed sparse row matrices: assembly, SpMV, transpose, sparse
//! matrix–matrix products (for Galerkin `RAP` coarsening) and boundary
//! condition manipulation.
//!
//! Column indices are `u32`: the largest assembled problems in this
//! reproduction stay well below 2³¹ unknowns and the narrower index halves
//! the index-streaming bandwidth, mirroring the memory-bound analysis in
//! §III-D of the paper (the byte counters in `ptatin-ops` use the actual
//! index width).

use crate::operator::LinearOperator;
use crate::par;
use ptatin_prof as prof;

thread_local! {
    /// Piece accumulators of [`Csr::spmv_transpose`], reused across calls.
    static TRANSPOSE_PARTS: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Sparse matrix in CSR format with sorted column indices per row.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    /// Row pointer array, length `nrows + 1`.
    pub indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    pub indices: Vec<u32>,
    /// Nonzero values.
    pub values: Vec<f64>,
}

impl Csr {
    /// Construct directly from CSR arrays, validating the invariants
    /// (monotone `indptr`, in-range sorted column indices per row).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1);
        assert_eq!(indptr[0], 0);
        // PANIC-OK: indptr.len() == nrows + 1 >= 1 is asserted just above.
        assert_eq!(*indptr.last().unwrap(), indices.len());
        assert_eq!(indices.len(), values.len());
        for i in 0..nrows {
            assert!(indptr[i] <= indptr[i + 1], "indptr not monotone at {i}");
            let row = &indices[indptr[i]..indptr[i + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {i} columns not sorted/unique");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < ncols, "row {i} column out of range");
            }
        }
        Self {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// An empty (all-zero) matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Build from COO triplets, summing duplicates.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; nrows + 1];
        for &(i, _, _) in triplets {
            assert!(i < nrows);
            counts[i + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0u32; triplets.len()];
        let mut vals = vec![0.0f64; triplets.len()];
        let mut next = counts.clone();
        for &(i, j, v) in triplets {
            assert!(j < ncols);
            let p = next[i];
            cols[p] = j as u32;
            vals[p] = v;
            next[i] += 1;
        }
        // Sort each row, merge duplicates.
        let mut indptr = vec![0usize; nrows + 1];
        let mut out_cols: Vec<u32> = Vec::with_capacity(triplets.len());
        let mut out_vals: Vec<f64> = Vec::with_capacity(triplets.len());
        for i in 0..nrows {
            let (s, e) = (counts[i], counts[i + 1]);
            let mut row: Vec<(u32, f64)> = cols[s..e]
                .iter()
                .copied()
                .zip(vals[s..e].iter().copied())
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < row.len() {
                let c = row[k].0;
                let mut v = row[k].1;
                let mut m = k + 1;
                while m < row.len() && row[m].0 == c {
                    v += row[m].1;
                    m += 1;
                }
                out_cols.push(c);
                out_vals.push(v);
                k = m;
            }
            indptr[i + 1] = out_cols.len();
        }
        Self {
            nrows,
            ncols,
            indptr,
            indices: out_cols,
            values: out_vals,
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Memory used by the matrix data arrays in bytes (values + indices +
    /// row pointers) — the quantity streamed per SpMV in the paper's model.
    pub fn bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.indptr.len() * std::mem::size_of::<usize>()
    }

    /// Column indices of row `i`.
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`.
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Entry lookup (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let cols = self.row_indices(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => self.row_values(i)[k],
            Err(_) => 0.0,
        }
    }

    /// The matrix diagonal (missing entries are 0).
    pub fn diag(&self) -> Vec<f64> {
        (0..self.nrows).map(|i| self.get(i, i)).collect()
    }

    /// y = A x, parallel over row blocks.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        let _ev = prof::scope("MatMult");
        prof::log_flops(2 * self.nnz() as u64);
        prof::log_bytes(self.bytes() as u64 + 8 * (x.len() + y.len()) as u64);
        let indptr = &self.indptr;
        let indices = &self.indices;
        let values = &self.values;
        par::par_chunks_mut(y, |off, yc| {
            // Row slices taken once per row: the inner loop keeps only the
            // bounds check of the gather `x[j]`.
            for (yi, row) in yc.iter_mut().zip(indptr[off..].windows(2)) {
                let (cols, vals) = (&indices[row[0]..row[1]], &values[row[0]..row[1]]);
                let mut s = 0.0;
                for (&j, &v) in cols.iter().zip(vals) {
                    // DETERMINISM-OK: row-local scalar accumulator; each row
                    // is summed in index order entirely within one piece.
                    s += v * x[j as usize];
                }
                *yi = s;
            }
        });
    }

    /// y = Aᵀ x without forming the transpose.
    ///
    /// The scatter races on output columns, so the parallel path gives
    /// each row-block its own column accumulator and combines the blocks
    /// in fixed order afterwards. The row-block partition is a pure
    /// function of the matrix (never the thread count), so the result is
    /// bitwise identical at every thread count. Small matrices keep the
    /// serial scatter.
    pub fn spmv_transpose(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows);
        assert_eq!(y.len(), self.ncols);
        let _ev = prof::scope("MatMultTranspose");
        prof::log_flops(2 * self.nnz() as u64);
        prof::log_bytes(self.bytes() as u64 + 8 * (x.len() + y.len()) as u64);
        const PAR_MIN_NNZ: usize = 1 << 14;
        if self.nnz() < PAR_MIN_NNZ {
            self.spmv_transpose_serial_into(x, y);
            return;
        }
        // Fixed piece count, NOT the thread count: the grouping of row
        // contributions into partial accumulators must be a pure function
        // of the matrix so the result is bitwise identical at every
        // thread count (at nt=1 the pieces just run in order on the
        // calling thread). 8 pieces bounds the accumulator memory at
        // 8 × ncols while covering the pool widths CI sweeps.
        const NPIECES: usize = 8;
        let ranges = par::split_ranges(self.nrows, NPIECES);
        let npieces = ranges.len();
        if npieces <= 1 {
            self.spmv_transpose_serial_into(x, y);
            return;
        }
        // Per-piece column accumulators (piece-major), kept with the calling
        // thread across calls; every piece zeroes its own block.
        let ncols = self.ncols;
        TRANSPOSE_PARTS.with(|cell| {
            let mut parts = cell.borrow_mut();
            if parts.len() < npieces * ncols {
                parts.resize(npieces * ncols, 0.0);
            }
            let parts = &mut parts[..npieces * ncols];
            self.spmv_transpose_pieces(x, y, &ranges, parts);
        });
    }

    /// The parallel body of [`Csr::spmv_transpose`]: scatter each row range
    /// into its block of `parts`, then combine the blocks per column.
    fn spmv_transpose_pieces(
        &self,
        x: &[f64],
        y: &mut [f64],
        ranges: &[(usize, usize)],
        parts: &mut [f64],
    ) {
        let npieces = ranges.len();
        {
            let indptr = &self.indptr;
            let indices = &self.indices;
            let values = &self.values;
            let ncols = self.ncols;
            par::par_blocks_mut(parts, ncols, |p, acc| {
                acc.fill(0.0);
                let (s, e) = ranges[p];
                for i in s..e {
                    let xi = x[i];
                    if xi == 0.0 {
                        continue;
                    }
                    for k in indptr[i]..indptr[i + 1] {
                        // DETERMINISM-OK: scatter into this piece's private
                        // accumulator block; rows are visited in fixed order.
                        acc[indices[k] as usize] += values[k] * xi;
                    }
                }
            });
        }
        // Combine per output column, pieces in fixed order (parallelism
        // over columns does not change the per-column summation order).
        let ncols = self.ncols;
        par::par_chunks_mut(y, |off, yc| {
            for (lj, yj) in yc.iter_mut().enumerate() {
                let j = off + lj;
                let mut s = 0.0;
                for p in 0..npieces {
                    // DETERMINISM-OK: column-local scalar; pieces are combined
                    // in fixed ascending order regardless of thread count.
                    s += parts[p * ncols + j];
                }
                *yj = s;
            }
        });
    }

    fn spmv_transpose_serial_into(&self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        for i in 0..self.nrows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for k in self.indptr[i]..self.indptr[i + 1] {
                y[self.indices[k] as usize] += self.values[k] * xi;
            }
        }
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.nrows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[k] as usize;
                let p = next[j];
                indices[p] = i as u32;
                values[p] = self.values[k];
                next[j] += 1;
            }
        }
        // Rows of the transpose come out sorted because we scan i in order.
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            values,
        }
    }

    /// Sparse matrix product `self * b` (Gustavson's algorithm).
    pub fn matmul(&self, b: &Csr) -> Csr {
        assert_eq!(self.ncols, b.nrows);
        let n = b.ncols;
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        // Dense accumulator workspace.
        let mut marker = vec![usize::MAX; n];
        let mut accum = vec![0.0f64; n];
        let mut row_cols: Vec<u32> = Vec::new();
        for i in 0..self.nrows {
            row_cols.clear();
            for ka in self.indptr[i]..self.indptr[i + 1] {
                let k = self.indices[ka] as usize;
                let av = self.values[ka];
                if av == 0.0 {
                    continue;
                }
                for kb in b.indptr[k]..b.indptr[k + 1] {
                    let j = b.indices[kb] as usize;
                    if marker[j] != i {
                        marker[j] = i;
                        accum[j] = 0.0;
                        row_cols.push(j as u32);
                    }
                    accum[j] += av * b.values[kb];
                }
            }
            row_cols.sort_unstable();
            for &j in &row_cols {
                indices.push(j);
                values.push(accum[j as usize]);
            }
            indptr[i + 1] = indices.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: n,
            indptr,
            indices,
            values,
        }
    }

    /// Linear combination `self + alpha * other` over the union pattern.
    pub fn add_scaled(&self, other: &Csr, alpha: f64) -> Csr {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        for i in 0..self.nrows {
            let (ai, av) = (self.row_indices(i), self.row_values(i));
            let (bi, bv) = (other.row_indices(i), other.row_values(i));
            let (mut p, mut q) = (0, 0);
            while p < ai.len() || q < bi.len() {
                let ca = ai.get(p).copied().unwrap_or(u32::MAX);
                let cb = bi.get(q).copied().unwrap_or(u32::MAX);
                if ca == cb {
                    indices.push(ca);
                    values.push(av[p] + alpha * bv[q]);
                    p += 1;
                    q += 1;
                } else if ca < cb {
                    indices.push(ca);
                    values.push(av[p]);
                    p += 1;
                } else {
                    indices.push(cb);
                    values.push(alpha * bv[q]);
                    q += 1;
                }
            }
            indptr[i + 1] = indices.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Scale each row `i` by `d[i]` in place.
    pub fn scale_rows(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.nrows);
        for i in 0..self.nrows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                self.values[k] *= d[i];
            }
        }
    }

    /// Galerkin triple product `Pᵀ A P` (the coarse-grid operator).
    pub fn rap(a: &Csr, p: &Csr) -> Csr {
        Csr::rap_with_pt(a, p, &p.transpose())
    }

    /// [`Csr::rap`] with a precomputed transpose of `p`. `transpose()` is
    /// value-deterministic, so passing a cached `pt` from an earlier build
    /// of the same transfer yields a bitwise-identical product — the
    /// transpose is the structural half of RAP worth caching across
    /// numeric re-assemblies (the matmuls depend on `a`'s values).
    pub fn rap_with_pt(a: &Csr, p: &Csr, pt: &Csr) -> Csr {
        debug_assert_eq!(pt.nrows, p.ncols);
        debug_assert_eq!(pt.ncols, p.nrows);
        let ap = a.matmul(p);
        pt.matmul(&ap)
    }

    /// Symmetric Dirichlet elimination: zero rows *and* columns of the
    /// constrained dofs, setting the diagonal to 1. Off-diagonal column
    /// contributions should already have been moved to the RHS by the caller.
    pub fn zero_rows_cols_set_identity(&mut self, rows: &[usize]) {
        // ALLOC-OK: one flag per dof, once per elimination of an assembled
        // matrix (assembly time, beside an O(nnz) sweep), never per apply.
        let mut is_bc = vec![false; self.nrows.max(self.ncols)];
        for &r in rows {
            is_bc[r] = true;
        }
        for i in 0..self.nrows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[k] as usize;
                if is_bc[i] || is_bc[j] {
                    self.values[k] = if i == j && is_bc[i] { 1.0 } else { 0.0 };
                }
            }
        }
    }

    /// Zero all entries in the given columns (Dirichlet elimination of the
    /// velocity columns of a rectangular coupling block).
    pub fn zero_cols(&mut self, cols: &[usize]) {
        let mut kill = vec![false; self.ncols];
        for &c in cols {
            kill[c] = true;
        }
        for k in 0..self.values.len() {
            if kill[self.indices[k] as usize] {
                self.values[k] = 0.0;
            }
        }
    }

    /// Scale all values by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Frobenius-norm of the difference to another matrix with identical
    /// dimensions (used in tests).
    pub fn diff_norm(&self, other: &Csr) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut s = 0.0;
        for i in 0..self.nrows {
            // Walk union of patterns.
            let (ai, av) = (self.row_indices(i), self.row_values(i));
            let (bi, bv) = (other.row_indices(i), other.row_values(i));
            let (mut p, mut q) = (0, 0);
            while p < ai.len() || q < bi.len() {
                let (ca, cb) = (
                    ai.get(p).copied().unwrap_or(u32::MAX),
                    bi.get(q).copied().unwrap_or(u32::MAX),
                );
                let d = if ca == cb {
                    let d = av[p] - bv[q];
                    p += 1;
                    q += 1;
                    d
                } else if ca < cb {
                    p += 1;
                    av[p - 1]
                } else {
                    q += 1;
                    -bv[q - 1]
                };
                s += d * d;
            }
        }
        s.sqrt()
    }

    /// Extract the square submatrix with the given (sorted, unique) global
    /// row/column indices; entries outside the set are dropped. Used by
    /// block-Jacobi / additive-Schwarz subdomain solvers.
    pub fn extract_principal_submatrix(&self, dofs: &[usize]) -> Csr {
        let n = dofs.len();
        let mut indptr = vec![0usize; n + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (l, &g) in dofs.iter().enumerate() {
            for k in self.indptr[g]..self.indptr[g + 1] {
                // `dofs` is sorted and unique, so a binary search maps the
                // global column back to its local index.
                if let Ok(lc) = dofs.binary_search(&(self.indices[k] as usize)) {
                    indices.push(lc as u32);
                    values.push(self.values[k]);
                }
            }
            indptr[l + 1] = indices.len();
        }
        Csr {
            nrows: n,
            ncols: n,
            indptr,
            indices,
            values,
        }
    }

    /// Convert to a dense matrix (small systems / tests only).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut d = crate::dense::DenseMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                d.add(i, self.indices[k] as usize, self.values[k]);
            }
        }
        d
    }
}

impl LinearOperator for Csr {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }
    fn diagonal(&self) -> Option<Vec<f64>> {
        Some(self.diag())
    }
}

/// Incremental row-wise CSR builder used by FEM assembly: accumulates
/// element contributions into per-row hash-free sorted buffers.
pub struct CsrBuilder {
    nrows: usize,
    ncols: usize,
    rows: Vec<Vec<(u32, f64)>>,
}

impl CsrBuilder {
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            // ALLOC-OK: the row buffers are what the builder builds; one
            // builder per assembled system, never per operator apply.
            rows: vec![Vec::new(); nrows],
        }
    }

    /// Add `v` at `(i, j)` (summed with any existing contribution).
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.rows[i].push((j as u32, v));
    }

    /// Add a dense element block: `rows[r], cols[c] += block[r][c]`.
    pub fn add_block(&mut self, rows: &[usize], cols: &[usize], block: &[f64]) {
        assert_eq!(block.len(), rows.len() * cols.len());
        for (r, &i) in rows.iter().enumerate() {
            for (c, &j) in cols.iter().enumerate() {
                let v = block[r * cols.len() + c];
                if v != 0.0 {
                    self.add(i, j, v);
                }
            }
        }
    }

    pub fn finish(self) -> Csr {
        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, mut row) in self.rows.into_iter().enumerate() {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < row.len() {
                let c = row[k].0;
                let mut v = row[k].1;
                let mut m = k + 1;
                while m < row.len() && row[m].0 == c {
                    v += row[m].1;
                    m += 1;
                }
                indices.push(c);
                values.push(v);
                k = m;
            }
            indptr[i + 1] = indices.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        }
    }
}

/// Random square test matrix for the bit-equality tests of the row-slice
/// loops here, in `ilu` and in `schwarz`: about one row in seven is
/// empty and one in four of the others has no diagonal entry.
#[cfg(test)]
pub(crate) fn random_test_matrix(n: usize, seed: u64) -> Csr {
    use ptatin_prng::{Rng, StdRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for i in 0..n {
        if rng.gen_range(0.0..1.0) < 0.15 {
            continue;
        }
        let with_diagonal = rng.gen_range(0.0..1.0) < 0.75;
        if with_diagonal {
            triplets.push((i, i, 4.0 + rng.gen_range(0.0..1.0)));
        }
        for _ in 0..rng.gen_index(7) {
            let j = rng.gen_index(n);
            if j != i {
                triplets.push((i, j, rng.gen_range(-1.0..1.0)));
            }
        }
    }
    Csr::from_triplets(n, n, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_bitwise_equals_the_indexed_loop() {
        for seed in 0..4 {
            let a = random_test_matrix(97, seed);
            assert!((0..97).any(|i| a.row_indices(i).is_empty()));
            let x: Vec<f64> = (0..97)
                .map(|i| ((i * 29 % 31) as f64 - 15.0) / 7.0)
                .collect();
            let mut y = vec![f64::NAN; 97];
            a.spmv(&x, &mut y);
            for i in 0..97 {
                let mut s = 0.0;
                for k in a.indptr[i]..a.indptr[i + 1] {
                    s += a.values[k] * x[a.indices[k] as usize];
                }
                assert_eq!(y[i].to_bits(), s.to_bits(), "seed {seed}, row {i}");
            }
        }
    }

    fn small() -> Csr {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        Csr::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
    }

    #[test]
    fn triplets_merge_duplicates() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0)]);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), 3.0);
    }

    #[test]
    fn spmv_tridiag() {
        let a = small();
        let mut y = vec![0.0; 3];
        a.spmv(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Csr::from_triplets(2, 3, &[(0, 1, 1.0), (0, 2, 2.0), (1, 0, 3.0)]);
        let att = a.transpose().transpose();
        assert_eq!(a.diff_norm(&att), 0.0);
        let mut y1 = vec![0.0; 3];
        a.spmv_transpose(&[1.0, 2.0], &mut y1);
        let mut y2 = vec![0.0; 3];
        a.transpose().spmv(&[1.0, 2.0], &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn spmv_transpose_parallel_matches_dense() {
        use ptatin_prng::{Rng, SplitMix64};
        let _g = crate::par::test_guard();
        let (nrows, ncols) = (300usize, 200usize);
        let mut rng = SplitMix64::seed_from_u64(42);
        let mut trips = Vec::new();
        for i in 0..nrows {
            for _ in 0..90 {
                let j = rng.gen_index(ncols);
                trips.push((i, j, rng.gen_range(-1.0..1.0)));
            }
        }
        let a = Csr::from_triplets(nrows, ncols, &trips);
        assert!(a.nnz() >= 1 << 14, "must exercise the parallel scatter");
        let x: Vec<f64> = (0..nrows).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Dense reference Aᵀx.
        let ad = a.to_dense();
        let mut yref = vec![0.0; ncols];
        for i in 0..nrows {
            for (j, yj) in yref.iter_mut().enumerate() {
                *yj += ad.get(i, j) * x[i];
            }
        }
        crate::par::set_num_threads(4);
        let mut y4 = vec![0.0; ncols];
        a.spmv_transpose(&x, &mut y4);
        let mut y4b = vec![0.0; ncols];
        a.spmv_transpose(&x, &mut y4b);
        // A wider matrix in between leaves other values in the reused
        // piece accumulators: every piece must zero its own block.
        let wide = Csr::from_triplets(nrows, 2 * ncols, &trips);
        let mut yw = vec![0.0; 2 * ncols];
        wide.spmv_transpose(&x, &mut yw);
        assert_eq!(&yw[..ncols], &y4[..], "same entries, more columns");
        crate::par::set_num_threads(2);
        let mut y2 = vec![0.0; ncols];
        a.spmv_transpose(&x, &mut y2);
        crate::par::set_num_threads(1);
        let mut y1 = vec![0.0; ncols];
        a.spmv_transpose(&x, &mut y1);
        crate::par::set_num_threads(0);
        assert_eq!(y1, y4, "piece grouping is independent of the thread count");
        assert_eq!(y2, y4, "piece grouping is independent of the thread count");
        for j in 0..ncols {
            let tol = 1e-12 * (1.0 + yref[j].abs());
            assert!(
                (y4[j] - yref[j]).abs() < tol,
                "col {j}: {} vs {}",
                y4[j],
                yref[j]
            );
            assert!((y1[j] - yref[j]).abs() < tol, "col {j} (serial)");
        }
        assert_eq!(y4, y4b, "fixed thread count must be bitwise deterministic");
    }

    #[test]
    fn matmul_vs_dense() {
        let a = Csr::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0)]);
        let b = Csr::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 3.0), (2, 0, -2.0), (2, 1, 1.0)]);
        let c = a.matmul(&b);
        let cd = a.to_dense().matmul(&b.to_dense());
        for i in 0..2 {
            for j in 0..2 {
                assert!((c.get(i, j) - cd.get(i, j)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn rap_identity_is_a() {
        let a = small();
        let p = Csr::identity(3);
        let c = Csr::rap(&a, &p);
        assert!(a.diff_norm(&c) < 1e-14);
    }

    #[test]
    fn dirichlet_rows() {
        let mut b = small();
        b.zero_rows_cols_set_identity(&[0]);
        assert_eq!(b.get(0, 1), 0.0, "row zeroed");
        assert_eq!(b.get(1, 0), 0.0, "columns zeroed");
        assert_eq!(b.get(0, 0), 1.0);
    }

    #[test]
    fn zero_cols_and_add_scaled() {
        let mut a = small();
        a.zero_cols(&[1]);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 1), 0.0);
        assert_eq!(a.get(1, 0), -1.0);
        let b = small();
        let c = b.add_scaled(&b, -1.0);
        assert!(c.diff_norm(&Csr::zeros(3, 3)) < 1e-15);
        let d = b.add_scaled(&Csr::identity(3), 2.0);
        assert_eq!(d.get(0, 0), 4.0);
    }

    #[test]
    fn scale_rows_scales() {
        let mut a = small();
        a.scale_rows(&[1.0, 2.0, 0.5]);
        assert_eq!(a.get(1, 0), -2.0);
        assert_eq!(a.get(2, 2), 1.0);
    }

    #[test]
    fn submatrix_extraction() {
        let a = small();
        let s = a.extract_principal_submatrix(&[1, 2]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(0, 1), -1.0);
        assert_eq!(s.get(1, 0), -1.0);
    }

    #[test]
    fn builder_matches_triplets() {
        let mut b = CsrBuilder::new(3, 3);
        b.add(0, 0, 2.0);
        b.add(0, 1, -0.5);
        b.add(0, 1, -0.5);
        b.add(2, 2, 2.0);
        let m = b.finish();
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn add_block() {
        let mut b = CsrBuilder::new(4, 4);
        b.add_block(&[1, 3], &[0, 2], &[1.0, 2.0, 3.0, 4.0]);
        let m = b.finish();
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(1, 2), 2.0);
        assert_eq!(m.get(3, 0), 3.0);
        assert_eq!(m.get(3, 2), 4.0);
    }
}
