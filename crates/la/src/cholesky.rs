//! Sparse envelope (skyline) Cholesky `P A Pᵀ = L Lᵀ` — the exact coarse
//! solve of the paper's §IV-A ("an exact LU factorization applied on each
//! of the subdomains") at the sizes where one subdomain holds the whole
//! coarse grid.
//!
//! Two phases, the split of DESIGN.md §13:
//!
//! * [`CholeskySymbolic::analyze`] reads the sparsity pattern only: a
//!   reverse Cuthill–McKee ordering of the symmetrized graph, the first
//!   column of every row of `L` (Cholesky fills a row from its first
//!   nonzero to the diagonal and nowhere else, so the envelope of `P A Pᵀ`
//!   *is* the storage of `L`), and the slot of every CSR entry in that
//!   storage. A pattern that never changes is analyzed once.
//! * [`SparseCholesky::factor`] scatters the values and runs the
//!   row-oriented factorization. Row `i` is a forward substitution against
//!   the rows above it, so every inner product runs over two contiguous
//!   envelope rows.
//!
//! Inner products accumulate in sixteen partial sums — four lane vectors —
//! combined in one fixed order ([`dot`]), with plain multiplies and adds.
//! The portable and the AVX2 instantiation of the one generic body
//! therefore agree in every bit, and because the factorization is serial
//! the result does not depend on the thread count either.
//!
//! Work is `Σ wᵢ²/2` multiply-adds for row widths `wᵢ` (≈ n·bw²/2) and the
//! factor holds `Σ wᵢ` values: right for coarse grids of a few thousand
//! unknowns, wrong for large ones (DESIGN.md §1 states the crossover).

use crate::csr::Csr;
use crate::simd::{run_lanes, runtime_simd_path, Lane, LaneKernel, SimdPath, LANES};
use std::sync::{Arc, Mutex, PoisonError};

/// Why a matrix could not be factored.
#[derive(Clone, Debug, PartialEq)]
pub enum FactorError {
    NotSquare {
        nrows: usize,
        ncols: usize,
    },
    /// The envelope has more slots than the slot map can address.
    EnvelopeTooLarge {
        slots: usize,
    },
    /// The matrix does not have the pattern the symbolic phase analyzed.
    PatternMismatch,
    /// A NaN or infinite coefficient in `row`.
    NonFinite {
        row: usize,
    },
    /// `a[row][col]` and `a[col][row]` differ by more than rounding.
    NotSymmetric {
        row: usize,
        col: usize,
    },
    /// The matrix is not positive definite: eliminating `row` (an index of
    /// the original matrix) left the pivot `pivot ≤ 0`.
    NonPositivePivot {
        row: usize,
        pivot: f64,
    },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotSquare { nrows, ncols } => {
                write!(f, "matrix is {nrows}×{ncols}, not square")
            }
            FactorError::EnvelopeTooLarge { slots } => {
                write!(f, "envelope of {slots} entries is too large to factor")
            }
            FactorError::PatternMismatch => {
                write!(f, "sparsity pattern differs from the analyzed one")
            }
            FactorError::NonFinite { row } => write!(f, "non-finite coefficient in row {row}"),
            FactorError::NotSymmetric { row, col } => {
                write!(f, "entries ({row},{col}) and ({col},{row}) differ")
            }
            FactorError::NonPositivePivot { row, pivot } => {
                write!(f, "non-positive pivot {pivot:e} at row {row}")
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// Relative asymmetry `|aᵢⱼ − aⱼᵢ| / (|aᵢᵢ| + |aⱼⱼ|)` accepted as rounding:
/// Galerkin products are symmetric only to the last bits. The factor reads
/// the lower triangle.
const SYMMETRY_TOL: f64 = 1e-10;

/// Slot-map flag: the CSR entry lies in the strict upper triangle of
/// `P A Pᵀ` (its slot is that of its transpose).
const UPPER: u32 = 1 << 31;

/// The value-independent half of the factorization (see the module docs).
#[derive(Debug)]
pub struct CholeskySymbolic {
    n: usize,
    /// The analyzed pattern, kept to recognize it again.
    indptr: Vec<usize>,
    indices: Vec<u32>,
    /// `perm[new] = old`.
    perm: Vec<u32>,
    /// Row `p` of `L` holds columns `first[p]..=p` in
    /// `row_ptr[p]..row_ptr[p + 1]`.
    first: Vec<u32>,
    row_ptr: Vec<usize>,
    /// Per CSR entry: its slot in the envelope, or with [`UPPER`] set the
    /// slot of its transpose.
    slot: Vec<u32>,
    /// CSR entries of the strict lower triangle of `P A Pᵀ` whose
    /// transpose is structurally absent (an implicit zero).
    lone_lower: Vec<u32>,
}

/// Adjacency lists of the symmetrized graph of `a`, without self loops:
/// `(ptr, adj)`, neighbours ascending.
fn symmetrized_graph(a: &Csr) -> (Vec<usize>, Vec<u32>) {
    let n = a.nrows();
    let mut ptr = vec![0usize; n + 1];
    for i in 0..n {
        for &j in a.row_indices(i) {
            if j as usize != i {
                ptr[i + 1] += 1;
                ptr[j as usize + 1] += 1;
            }
        }
    }
    for i in 0..n {
        ptr[i + 1] += ptr[i];
    }
    let mut fill = ptr.clone();
    let mut adj = vec![0u32; ptr[n]];
    for i in 0..n {
        for &j in a.row_indices(i) {
            let j = j as usize;
            if j != i {
                adj[fill[i]] = j as u32;
                fill[i] += 1;
                adj[fill[j]] = i as u32;
                fill[j] += 1;
            }
        }
    }
    // Sort and deduplicate every list in place, compacting as we go.
    let mut out = 0;
    let mut start = 0;
    for i in 0..n {
        let end = ptr[i + 1];
        adj[start..end].sort_unstable();
        let row_out = out;
        for k in start..end {
            if out == row_out || adj[out - 1] != adj[k] {
                adj[out] = adj[k];
                out += 1;
            }
        }
        start = end;
        ptr[i + 1] = out;
    }
    adj.truncate(out);
    (ptr, adj)
}

/// Breadth-first level structure from `root` over the unnumbered nodes:
/// fills `order` with the visited nodes and returns the eccentricity of
/// `root` and where its last level starts in `order`. `mark[v] == stamp`
/// means visited by this search.
fn bfs_levels(
    root: u32,
    ptr: &[usize],
    adj: &[u32],
    numbered: &[bool],
    mark: &mut [u32],
    stamp: u32,
    order: &mut Vec<u32>,
) -> (usize, usize) {
    order.clear();
    order.push(root);
    mark[root as usize] = stamp;
    let (mut level_start, mut depth, mut head) = (0, 0, 0);
    loop {
        let level_end = order.len();
        while head < level_end {
            let v = order[head] as usize;
            head += 1;
            for &w in &adj[ptr[v]..ptr[v + 1]] {
                if !numbered[w as usize] && mark[w as usize] != stamp {
                    mark[w as usize] = stamp;
                    order.push(w);
                }
            }
        }
        if order.len() == level_end {
            return (depth, level_start);
        }
        level_start = level_end;
        depth += 1;
    }
}

/// Reverse Cuthill–McKee ordering, `perm[new] = old`. Every component
/// starts from a pseudo-peripheral node (George–Liu: walk to a
/// minimum-degree node of the last level while the eccentricity grows);
/// ties break on the node index, so the ordering is a pure function of the
/// pattern.
fn reverse_cuthill_mckee(ptr: &[usize], adj: &[u32]) -> Vec<u32> {
    let n = ptr.len() - 1;
    let degree = |v: u32| ptr[v as usize + 1] - ptr[v as usize];
    let mut numbered = vec![false; n];
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut perm: Vec<u32> = Vec::with_capacity(n);
    let mut order: Vec<u32> = Vec::new();
    let mut neighbours: Vec<u32> = Vec::new();
    let mut by_degree: Vec<u32> = (0..n as u32).collect();
    by_degree.sort_by_key(|&v| (degree(v), v));
    for &seed in &by_degree {
        if numbered[seed as usize] {
            continue;
        }
        // Pseudo-peripheral root of the seed's component.
        let mut root = seed;
        stamp += 1;
        let (mut ecc, mut last) =
            bfs_levels(root, ptr, adj, &numbered, &mut mark, stamp, &mut order);
        loop {
            // A level structure holds at least its root, so the last
            // level is never empty.
            let cand = order[last..]
                .iter()
                .copied()
                .min_by_key(|&v| (degree(v), v))
                .unwrap_or(root);
            stamp += 1;
            let (e, l) = bfs_levels(cand, ptr, adj, &numbered, &mut mark, stamp, &mut order);
            if e <= ecc {
                break;
            }
            (root, ecc, last) = (cand, e, l);
        }
        // Cuthill–McKee numbering of the component from the root.
        let begin = perm.len();
        numbered[root as usize] = true;
        perm.push(root);
        let mut head = begin;
        while head < perm.len() {
            let v = perm[head] as usize;
            head += 1;
            neighbours.clear();
            neighbours.extend(
                adj[ptr[v]..ptr[v + 1]]
                    .iter()
                    .filter(|&&w| !numbered[w as usize]),
            );
            neighbours.sort_by_key(|&w| (degree(w), w));
            for &w in &neighbours {
                numbered[w as usize] = true;
            }
            perm.extend_from_slice(&neighbours);
        }
    }
    perm.reverse();
    perm
}

impl CholeskySymbolic {
    /// Analyze the pattern of the square matrix `a` (values are not read).
    pub fn analyze(a: &Csr) -> Result<Self, FactorError> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(FactorError::NotSquare {
                nrows: n,
                ncols: a.ncols(),
            });
        }
        let (ptr, adj) = symmetrized_graph(a);
        let perm = reverse_cuthill_mckee(&ptr, &adj);
        let mut pos = vec![0u32; n];
        for (new, &old) in perm.iter().enumerate() {
            pos[old as usize] = new as u32;
        }
        // Envelope of P A Pᵀ: the first column of every row.
        let mut first: Vec<u32> = (0..n as u32).collect();
        for i in 0..n {
            let pi = pos[i];
            for &j in a.row_indices(i) {
                let pj = pos[j as usize];
                let (r, c) = (pi.max(pj), pi.min(pj));
                first[r as usize] = first[r as usize].min(c);
            }
        }
        let mut row_ptr = vec![0usize; n + 1];
        for p in 0..n {
            row_ptr[p + 1] = row_ptr[p] + (p - first[p] as usize + 1);
        }
        if row_ptr[n] >= UPPER as usize {
            return Err(FactorError::EnvelopeTooLarge { slots: row_ptr[n] });
        }
        let mut slot = Vec::with_capacity(a.nnz());
        let mut lone_lower = Vec::new();
        for i in 0..n {
            let pi = pos[i];
            for k in a.indptr[i]..a.indptr[i + 1] {
                let j = a.indices[k] as usize;
                let pj = pos[j];
                let (r, c) = (pi.max(pj) as usize, pi.min(pj));
                let s = (row_ptr[r] + (c - first[r]) as usize) as u32;
                slot.push(if pj > pi { s | UPPER } else { s });
                if pj < pi && a.row_indices(j).binary_search(&(i as u32)).is_err() {
                    lone_lower.push(k as u32);
                }
            }
        }
        Ok(Self {
            n,
            indptr: a.indptr.clone(),
            indices: a.indices.clone(),
            perm,
            first,
            row_ptr,
            slot,
            lone_lower,
        })
    }

    /// Whether `a` has the pattern this analysis was made for.
    pub fn matches(&self, a: &Csr) -> bool {
        a.nrows() == self.n
            && a.ncols() == self.n
            && a.indptr == self.indptr
            && a.indices == self.indices
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries of `L` (diagonal included).
    pub fn envelope_len(&self) -> usize {
        self.row_ptr[self.n]
    }

    /// Widest row of the envelope, diagonal excluded.
    pub fn half_bandwidth(&self) -> usize {
        (0..self.n)
            .map(|p| p - self.first[p] as usize)
            .max()
            .unwrap_or(0)
    }

    /// The fill-reducing ordering, `perm[new] = old`.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// First stored column of every row of `L` (in the new ordering).
    pub fn row_first(&self) -> &[u32] {
        &self.first
    }
}

/// The first four values of `s` as a lane vector.
#[inline(always)]
fn load<V: Lane>(s: &[f64]) -> V {
    // PANIC-OK: every caller passes a chunk of at least `LANES` values.
    V::load(s[..LANES].try_into().expect("four values"))
}

/// `Σ a[t]·b[t]` in the fixed order every kernel of this module shares:
/// full groups of sixteen feed four lane accumulators in turn, the up to
/// three remaining groups of four feed accumulators 0, 1, 2, the lanes
/// combine as `(acc0 + acc1) + (acc2 + acc3)` and then
/// `(l0 + l1) + (l2 + l3)`, and the last `len % 4` products are added one
/// by one. Plain multiplies and adds, no fusion.
#[inline(always)]
fn dot<V: Lane>(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let b = &b[..n];
    let n16 = n - n % (4 * LANES);
    let n4 = n - n % LANES;
    let mut acc = [V::splat(0.0); 4];
    let (a16, b16) = (
        a[..n16].chunks_exact(4 * LANES),
        b[..n16].chunks_exact(4 * LANES),
    );
    for (ca, cb) in a16.zip(b16) {
        for v in 0..4 {
            acc[v] = acc[v] + load::<V>(&ca[LANES * v..]) * load::<V>(&cb[LANES * v..]);
        }
    }
    let (a4, b4) = (
        a[n16..n4].chunks_exact(LANES),
        b[n16..n4].chunks_exact(LANES),
    );
    for (v, (ca, cb)) in a4.zip(b4).enumerate() {
        acc[v] = acc[v] + load::<V>(ca) * load::<V>(cb);
    }
    let l = ((acc[0] + acc[1]) + (acc[2] + acc[3])).to_array();
    let mut s = (l[0] + l[1]) + (l[2] + l[3]);
    for (x, y) in a[n4..].iter().zip(&b[n4..]) {
        s += x * y;
    }
    s
}

/// `y[t] -= alpha · x[t]`, four lanes at a time.
#[inline(always)]
fn sub_scaled<V: Lane>(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = y.len();
    let x = &x[..n];
    let n4 = n - n % LANES;
    let av = V::splat(alpha);
    for (cx, cy) in x[..n4]
        .chunks_exact(LANES)
        .zip(y[..n4].chunks_exact_mut(LANES))
    {
        // PANIC-OK: `chunks_exact_mut(LANES)` yields exactly four values.
        let out: &mut [f64; LANES] = cy.try_into().expect("four values");
        (V::load(out) - av * load::<V>(cx)).store(out);
    }
    for at in n4..n {
        y[at] -= alpha * x[at];
    }
}

/// Factor the scattered envelope in place: on entry `vals` holds the lower
/// triangle of `P A Pᵀ`, on exit `L` (diagonal included); `inv_diag[p]`
/// receives `1 / L[p][p]`, and the result the row and value of the first
/// non-positive (or NaN) pivot. Its output is `(vals, inv_diag, result)`.
struct FactorRows<'a> {
    first: &'a [u32],
    row_ptr: &'a [usize],
}

impl LaneKernel for FactorRows<'_> {
    type Out = (Vec<f64>, Vec<f64>, Result<(), (usize, f64)>);

    #[inline(always)]
    fn run<V: Lane>(self, (vals, inv_diag, done): &mut Self::Out) {
        let Self { first, row_ptr } = self;
        let (vals, inv_diag) = (&mut vals[..], &mut inv_diag[..]);
        *done = 'factor: {
            for i in 0..first.len() {
                let fi = first[i] as usize;
                let (above, rest) = vals.split_at_mut(row_ptr[i]);
                let row = &mut rest[..i - fi + 1];
                for j in fi..i {
                    let fj = first[j] as usize;
                    let lo = fi.max(fj);
                    let row_j = &above[row_ptr[j] + (lo - fj)..row_ptr[j] + (j - fj)];
                    let s = dot::<V>(&row[lo - fi..j - fi], row_j);
                    row[j - fi] = (row[j - fi] - s) * inv_diag[j];
                }
                let (off, diag) = row.split_at_mut(i - fi);
                let d = diag[0] - dot::<V>(off, off);
                if d <= 0.0 || d.is_nan() {
                    break 'factor Err((i, d));
                }
                let l = d.sqrt();
                diag[0] = l;
                inv_diag[i] = 1.0 / l;
            }
            Ok(())
        };
    }
}

/// Solve `L Lᵀ x = b` in the permuted ordering. Its output is `(w, z)`:
/// `w` receives `L⁻¹ P b`, then is consumed by the backward sweep, which
/// writes every unknown to its original index in `z` the moment it is
/// final.
struct SolveRows<'a> {
    sym: &'a CholeskySymbolic,
    vals: &'a [f64],
    inv_diag: &'a [f64],
    b: &'a [f64],
}

impl<'a> LaneKernel for SolveRows<'a> {
    type Out = (&'a mut [f64], &'a mut [f64]);

    #[inline(always)]
    fn run<V: Lane>(self, (w, z): &mut Self::Out) {
        let (perm, first, row_ptr) = (
            &self.sym.perm[..],
            &self.sym.first[..],
            &self.sym.row_ptr[..],
        );
        let (vals, inv_diag, b) = (self.vals, self.inv_diag, self.b);
        let (w, z): (&mut [f64], &mut [f64]) = (w, z);
        let n = perm.len();
        for i in 0..n {
            let fi = first[i] as usize;
            let row = &vals[row_ptr[i]..row_ptr[i] + (i - fi)];
            w[i] = (b[perm[i] as usize] - dot::<V>(row, &w[fi..i])) * inv_diag[i];
        }
        for i in (0..n).rev() {
            let fi = first[i] as usize;
            let x = w[i] * inv_diag[i];
            z[perm[i] as usize] = x;
            let row = &vals[row_ptr[i]..row_ptr[i] + (i - fi)];
            sub_scaled::<V>(x, row, &mut w[fi..i]);
        }
    }
}

/// A numeric factorization `P A Pᵀ = L Lᵀ` over a shared symbolic phase.
#[derive(Debug)]
pub struct SparseCholesky {
    symbolic: Arc<CholeskySymbolic>,
    /// `L` by rows in the envelope, diagonal included.
    vals: Vec<f64>,
    /// `1 / L[p][p]`.
    inv_diag: Vec<f64>,
    path: SimdPath,
    /// The permuted right-hand side of a solve. Concurrent solves take
    /// turns instead of allocating.
    work: Mutex<Vec<f64>>,
}

impl SparseCholesky {
    /// Analyze and factor `a`.
    pub fn new(a: &Csr) -> Result<Self, FactorError> {
        Self::factor(Arc::new(CholeskySymbolic::analyze(a)?), a)
    }

    /// Factor `a`, whose pattern `symbolic` was made for, on the process's
    /// SIMD path.
    pub fn factor(symbolic: Arc<CholeskySymbolic>, a: &Csr) -> Result<Self, FactorError> {
        Self::factor_with_path(symbolic, a, runtime_simd_path())
    }

    /// [`factor`](Self::factor) on an explicit SIMD path (both paths give
    /// the same bits; tests compare them).
    pub fn factor_with_path(
        symbolic: Arc<CholeskySymbolic>,
        a: &Csr,
        path: SimdPath,
    ) -> Result<Self, FactorError> {
        let sym = &*symbolic;
        if !sym.matches(a) {
            return Err(FactorError::PatternMismatch);
        }
        let n = sym.n;
        let mut vals = vec![0.0; sym.envelope_len()];
        // Lower triangle (and diagonal) into the envelope.
        for i in 0..n {
            for k in a.indptr[i]..a.indptr[i + 1] {
                let v = a.values[k];
                if !v.is_finite() {
                    return Err(FactorError::NonFinite { row: i });
                }
                if sym.slot[k] & UPPER == 0 {
                    vals[sym.slot[k] as usize] = v;
                }
            }
        }
        // The upper triangle must mirror it; an entry without a
        // structural transpose must be a stored zero.
        let mut abs_diag = vec![0.0; n];
        for (p, &old) in sym.perm.iter().enumerate() {
            abs_diag[old as usize] = vals[sym.row_ptr[p + 1] - 1].abs();
        }
        let mismatch = |i: usize, k: usize, mirror: f64| {
            let j = a.indices[k] as usize;
            let tol = SYMMETRY_TOL * (abs_diag[i] + abs_diag[j]);
            ((a.values[k] - mirror).abs() > tol)
                .then_some(FactorError::NotSymmetric { row: i, col: j })
        };
        for i in 0..n {
            for k in a.indptr[i]..a.indptr[i + 1] {
                if sym.slot[k] & UPPER != 0 {
                    if let Some(e) = mismatch(i, k, vals[(sym.slot[k] & !UPPER) as usize]) {
                        return Err(e);
                    }
                }
            }
        }
        for &k in &sym.lone_lower {
            let k = k as usize;
            let i = a.indptr.partition_point(|&p| p <= k) - 1;
            if let Some(e) = mismatch(i, k, 0.0) {
                return Err(e);
            }
        }
        let mut factor = (vals, vec![0.0; n], Ok(()));
        let kernel = FactorRows {
            first: &sym.first,
            row_ptr: &sym.row_ptr,
        };
        run_lanes(path, kernel, &mut factor);
        let (vals, inv_diag, done) = factor;
        if let Err((p, pivot)) = done {
            return Err(FactorError::NonPositivePivot {
                row: sym.perm[p] as usize,
                pivot,
            });
        }
        Ok(Self {
            vals,
            inv_diag,
            path,
            work: Mutex::new(vec![0.0; n]),
            symbolic,
        })
    }

    pub fn symbolic(&self) -> &Arc<CholeskySymbolic> {
        &self.symbolic
    }

    /// `L[p][q]` in the new ordering (zero outside the envelope).
    pub fn l(&self, p: usize, q: usize) -> f64 {
        let sym = &*self.symbolic;
        if q > p || q < sym.first[p] as usize {
            return 0.0;
        }
        self.vals[sym.row_ptr[p] + (q - sym.first[p] as usize)]
    }

    /// `x = A⁻¹ b`. No allocation.
    pub fn solve(&self, b: &[f64], x: &mut [f64]) {
        let sym = &*self.symbolic;
        assert_eq!(b.len(), sym.n);
        assert_eq!(x.len(), sym.n);
        // Scratch only, overwritten before it is read: a lock poisoned by
        // a panicking solve is still good to use.
        let mut work = self.work.lock().unwrap_or_else(PoisonError::into_inner);
        let kernel = SolveRows {
            sym,
            vals: &self.vals,
            inv_diag: &self.inv_diag,
            b,
        };
        run_lanes(self.path, kernel, &mut (work.as_mut_slice(), x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseLu;
    use crate::simd::{avx2_fma_available, F64x4};
    use ptatin_prng::{Rng, StdRng};

    /// 5-point Laplacian on an `nx × ny` grid plus `shift` on the diagonal.
    fn laplace2d(nx: usize, ny: usize, shift: f64) -> Csr {
        let id = |i: usize, j: usize| j * nx + i;
        let mut t = Vec::new();
        for j in 0..ny {
            for i in 0..nx {
                t.push((id(i, j), id(i, j), 4.0 + shift));
                if i > 0 {
                    t.push((id(i, j), id(i - 1, j), -1.0));
                    t.push((id(i - 1, j), id(i, j), -1.0));
                }
                if j > 0 {
                    t.push((id(i, j), id(i, j - 1), -1.0));
                    t.push((id(i, j - 1), id(i, j), -1.0));
                }
            }
        }
        Csr::from_triplets(nx * ny, nx * ny, &t)
    }

    /// Random sparse SPD matrix (strictly dominant diagonal), rows of
    /// uneven width, some of them diagonal only.
    fn random_spd(n: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Vec::new();
        let mut diag = vec![0.5; n];
        for i in 0..n {
            if rng.gen_range(0.0..1.0) < 0.1 {
                continue;
            }
            for _ in 0..rng.gen_index(6) {
                let j = rng.gen_index(n);
                if j != i {
                    let v = rng.gen_range(-1.0..1.0);
                    t.push((i, j, v));
                    t.push((j, i, v));
                    diag[i] += v.abs();
                    diag[j] += v.abs();
                }
            }
        }
        for (i, d) in diag.into_iter().enumerate() {
            t.push((i, i, d));
        }
        Csr::from_triplets(n, n, &t)
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) / 17.0)
            .collect()
    }

    fn relative_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.spmv(x, &mut r);
        let num: f64 = r.iter().zip(b).map(|(r, b)| (r - b) * (r - b)).sum();
        let den: f64 = b.iter().map(|b| b * b).sum();
        (num / den).sqrt()
    }

    fn paths() -> Vec<SimdPath> {
        let mut p = vec![SimdPath::Portable];
        if avx2_fma_available() {
            p.push(SimdPath::Avx2Fma);
        }
        p
    }

    #[test]
    fn solves_match_the_dense_lu_oracle() {
        for a in [
            laplace2d(9, 7, 0.0),
            laplace2d(1, 1, 0.0),
            random_spd(150, 3),
            random_spd(41, 9),
        ] {
            let n = a.nrows();
            let b = rhs(n);
            let chol = SparseCholesky::new(&a).unwrap();
            let mut x = vec![f64::NAN; n];
            chol.solve(&b, &mut x);
            assert!(relative_residual(&a, &x, &b) < 1e-13);
            let lu = DenseLu::factor(&a.to_dense()).unwrap();
            let mut y = vec![0.0; n];
            lu.solve(&b, &mut y);
            for i in 0..n {
                assert!((x[i] - y[i]).abs() <= 1e-12 * (1.0 + y[i].abs()), "dof {i}");
            }
        }
    }

    #[test]
    fn ordering_is_a_permutation_and_narrows_the_band() {
        // Natural ordering of a 40×4 grid has half-bandwidth 40; numbering
        // along the short side brings it to about 4.
        let a = laplace2d(40, 4, 0.0);
        let sym = CholeskySymbolic::analyze(&a).unwrap();
        let mut seen = vec![false; a.nrows()];
        for &old in sym.perm() {
            assert!(!std::mem::replace(&mut seen[old as usize], true));
        }
        assert!(seen.iter().all(|&s| s));
        assert!(sym.half_bandwidth() <= 6, "{}", sym.half_bandwidth());
        assert!(sym.envelope_len() <= 7 * a.nrows());
    }

    #[test]
    fn factor_equals_dense_cholesky_and_stays_inside_the_envelope() {
        let a = random_spd(120, 5);
        let n = a.nrows();
        let chol = SparseCholesky::new(&a).unwrap();
        let sym = chol.symbolic().clone();
        // Dense Cholesky of P A Pᵀ, textbook ordering.
        let perm = sym.perm();
        let mut l = vec![vec![0.0; n]; n];
        for p in 0..n {
            for q in 0..=p {
                let mut s = a.get(perm[p] as usize, perm[q] as usize);
                for k in 0..q {
                    s -= l[p][k] * l[q][k];
                }
                l[p][q] = if p == q { s.sqrt() } else { s / l[q][q] };
            }
        }
        for p in 0..n {
            for q in 0..=p {
                if q < sym.row_first()[p] as usize {
                    assert_eq!(l[p][q], 0.0, "fill outside the envelope at ({p},{q})");
                }
                assert!((chol.l(p, q) - l[p][q]).abs() <= 1e-13 * (1.0 + l[p][q].abs()));
            }
        }
    }

    #[test]
    fn factor_and_solve_bitwise_across_simd_paths() {
        // Rows from 1 to ~60 wide: every tail length of `dot`.
        let a = laplace2d(60, 5, 0.25);
        let sym = Arc::new(CholeskySymbolic::analyze(&a).unwrap());
        let b = rhs(a.nrows());
        let mut results = Vec::new();
        for path in paths() {
            let chol = SparseCholesky::factor_with_path(sym.clone(), &a, path).unwrap();
            let mut x = vec![0.0; a.nrows()];
            chol.solve(&b, &mut x);
            results.push((chol.vals.clone(), x));
        }
        for r in &results[1..] {
            assert!(r
                .0
                .iter()
                .zip(&results[0].0)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(r
                .1
                .iter()
                .zip(&results[0].1)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn dot_uses_the_documented_accumulation_order() {
        let a: Vec<f64> = (0..43).map(|i| 1.0 + (i as f64) * 1e-3).collect();
        let b: Vec<f64> = (0..43).map(|i| 0.7 - (i as f64) * 3e-3).collect();
        for n in 0..=43 {
            let mut acc = [[0.0f64; 4]; 4];
            let (n16, n4) = (n - n % 16, n - n % 4);
            for t in 0..n16 {
                acc[t % 16 / 4][t % 4] += a[t] * b[t];
            }
            for t in n16..n4 {
                acc[(t - n16) / 4][t % 4] += a[t] * b[t];
            }
            let lane = |l: usize| (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
            let mut s = (lane(0) + lane(1)) + (lane(2) + lane(3));
            for t in n4..n {
                s += a[t] * b[t];
            }
            assert_eq!(
                dot::<F64x4>(&a[..n], &b[..n]).to_bits(),
                s.to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn one_symbolic_serves_new_values_and_refuses_another_pattern() {
        let a = laplace2d(8, 6, 0.0);
        let sym = Arc::new(CholeskySymbolic::analyze(&a).unwrap());
        let mut a2 = a.clone();
        for v in &mut a2.values {
            *v *= 3.0;
        }
        let fresh = SparseCholesky::new(&a2).unwrap();
        let reused = SparseCholesky::factor(sym.clone(), &a2).unwrap();
        assert!(fresh
            .vals
            .iter()
            .zip(&reused.vals)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let other = laplace2d(6, 8, 0.0);
        assert!(!sym.matches(&other));
        assert_eq!(
            SparseCholesky::factor(sym, &other).unwrap_err(),
            FactorError::PatternMismatch
        );
    }

    #[test]
    fn stored_zeros_without_a_transpose_are_accepted() {
        // The shape of a Dirichlet-eliminated stiffness matrix: free rows
        // keep explicit zeros in constrained columns, constrained rows
        // hold the unit diagonal only.
        let mut a = laplace2d(5, 5, 0.0);
        let constrained = [0usize, 7, 24];
        for i in 0..a.nrows() {
            for k in a.indptr[i]..a.indptr[i + 1] {
                let j = a.indices[k] as usize;
                if i != j && (constrained.contains(&i) || constrained.contains(&j)) {
                    a.values[k] = 0.0;
                }
            }
        }
        let keep: Vec<(usize, usize, f64)> = (0..a.nrows())
            .flat_map(|i| {
                let a = &a;
                (a.indptr[i]..a.indptr[i + 1]).filter_map(move |k| {
                    let j = a.indices[k] as usize;
                    (i == j || !constrained.contains(&i)).then_some((i, j, a.values[k]))
                })
            })
            .collect();
        let a = Csr::from_triplets(25, 25, &keep);
        let chol = SparseCholesky::new(&a).unwrap();
        assert!(!chol.symbolic().lone_lower.is_empty());
        let b = rhs(25);
        let mut x = vec![0.0; 25];
        chol.solve(&b, &mut x);
        assert!(relative_residual(&a, &x, &b) < 1e-14);
    }

    #[test]
    fn hostile_matrices_get_typed_errors() {
        // Indefinite: a saddle point.
        let saddle = Csr::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (1, 1, 2.0),
                (0, 2, 1.0),
                (2, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
            ],
        );
        assert!(matches!(
            SparseCholesky::new(&saddle),
            Err(FactorError::NonPositivePivot { pivot, .. }) if pivot <= 0.0
        ));
        // Singular: the pure Neumann Laplacian in 1D, exactly rank n − 1.
        let neumann = Csr::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 1.0),
            ],
        );
        assert!(matches!(
            SparseCholesky::new(&neumann),
            Err(FactorError::NonPositivePivot { .. })
        ));
        // A missing diagonal is a zero pivot.
        let hollow = Csr::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(matches!(
            SparseCholesky::new(&hollow),
            Err(FactorError::NonPositivePivot { .. })
        ));
        // NaN and infinity, on and off the diagonal, in either triangle.
        for (k, bad) in [(0usize, f64::NAN), (1, f64::INFINITY), (3, f64::NAN)] {
            let mut a = laplace2d(3, 1, 0.0);
            a.values[k] = bad;
            assert!(matches!(
                SparseCholesky::new(&a),
                Err(FactorError::NonFinite { .. })
            ));
        }
        // Asymmetric in value, and asymmetric in structure.
        let mut a = laplace2d(3, 1, 0.0);
        a.values[1] = -0.5;
        assert!(matches!(
            SparseCholesky::new(&a),
            Err(FactorError::NotSymmetric { .. })
        ));
        let lower_only = Csr::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, -1.0), (1, 1, 2.0)]);
        assert!(matches!(
            SparseCholesky::new(&lower_only),
            Err(FactorError::NotSymmetric { .. })
        ));
        let upper_only = Csr::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 1, 2.0)]);
        assert!(matches!(
            SparseCholesky::new(&upper_only),
            Err(FactorError::NotSymmetric { .. })
        ));
        assert!(matches!(
            CholeskySymbolic::analyze(&Csr::zeros(2, 3)),
            Err(FactorError::NotSquare { .. })
        ));
        // The empty matrix is fine.
        let empty = SparseCholesky::new(&Csr::zeros(0, 0)).unwrap();
        empty.solve(&[], &mut []);
    }
}
