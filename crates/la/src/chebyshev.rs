//! Jacobi-preconditioned Chebyshev smoothing — the production smoother of
//! the paper (§III-C): "we fix the smoother as Jacobi-preconditioned
//! Chebyshev iterations targeting the interval [0.2 λmax, 1.1 λmax], where
//! λmax is an estimate of the largest eigenvalue of the Jacobi-preconditioned
//! operator, computed by a few iterations of a Krylov method."
//!
//! Two application strategies share one recurrence:
//!
//! * [`Chebyshev::smooth`] / [`smooth_with`](Chebyshev::smooth_with) — k
//!   full-mesh sweeps, one operator application each (works for any
//!   [`LinearOperator`], including matrix-free ones);
//! * [`Chebyshev::apply_fused`] — the cache-blocked variant for assembled
//!   matrices ("3D Blocking for Matrix-free Smoothers", PAPERS.md): the
//!   mesh is cut into contiguous row tiles, each extended by a
//!   (k−1)-hop halo, and all k iterations run tile-local before moving
//!   on, so each tile's matrix rows are streamed from memory once and
//!   re-used from cache for the remaining iterations instead of being
//!   re-streamed k times. Redundant halo computation buys independence:
//!   tiles neither communicate nor order among themselves, which makes
//!   the fused apply bitwise identical to `smooth_with` at every thread
//!   count and tile size (asserted by property tests).

use crate::csr::Csr;
use crate::operator::{LinearOperator, Preconditioner};
use crate::par;
use crate::simd::{self, SimdPath};
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
        v::pointwise_mult(inv_diag, &y.clone(), &mut y);
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
        Self::with_target_fractions(a, iters, est_iters, TARGET_LO, TARGET_HI)
    }

    /// [`new`](Self::new) with explicit target-interval fractions of the
    /// estimated λmax (ablation studies; the paper's values are
    /// `[TARGET_LO, TARGET_HI]`).
    pub fn with_target_fractions(
        a: &dyn LinearOperator,
        iters: usize,
        est_iters: usize,
        lo_frac: f64,
        hi_frac: f64,
    ) -> Self {
        let diag = a
            .diagonal()
            // PANIC-OK: construction-time contract — every smoothable
            // operator in this workspace provides a diagonal; a missing one
            // is a programming error, not a data-dependent failure.
            .expect("Chebyshev smoother requires an operator diagonal");
        let inv_diag: Vec<f64> = diag
            .iter()
            .map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        let lmax = estimate_lambda_max(a, &inv_diag, est_iters);
        Self {
            inv_diag,
            lambda_lo: lo_frac * lmax,
            lambda_hi: hi_frac * lmax,
            iters,
        }
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

    /// The smoother transplanted to a permuted dof space
    /// (`perm[old] = new`): the diagonal scaling is gathered to the new
    /// order while the spectral bounds carry over unchanged — a
    /// permutation is a similarity transform, so `P A Pᵀ` has exactly the
    /// spectrum the bounds were estimated for.
    pub fn permuted(&self, perm: &[u32]) -> Chebyshev {
        assert_eq!(perm.len(), self.inv_diag.len());
        let mut inv_diag = vec![0.0; self.inv_diag.len()];
        for (old, &new) in perm.iter().enumerate() {
            inv_diag[new as usize] = self.inv_diag[old];
        }
        Chebyshev {
            inv_diag,
            lambda_lo: self.lambda_lo,
            lambda_hi: self.lambda_hi,
            iters: self.iters,
        }
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

    /// The recurrence behind every unfused smoothing entry point.
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

    /// Build the tile/halo plan that lets [`apply_fused`](Self::apply_fused)
    /// run up to `max_iters` fused iterations on `a`. `tile_rows == 0`
    /// picks an automatic tile size from the matrix shape (a pure function
    /// of the matrix, never of the thread count).
    pub fn fused_plan(&self, a: &Csr, max_iters: usize, tile_rows: usize) -> FusedPlan {
        FusedPlan::build(a, max_iters, tile_rows, &self.inv_diag)
    }

    /// Cache-blocked smoothing: bitwise identical to
    /// [`smooth_with`](Self::smooth_with)`(a, b, x, iters)` for any plan
    /// built on `a` with `max_iters ≥ iters` (falls back to `smooth_with`
    /// when the plan's halo depth is insufficient).
    ///
    /// Per tile, the recurrence runs on the halo closure with the operator
    /// localized to halo columns; rows near the halo boundary compute
    /// garbage whose validity horizon shrinks by one hop per iteration, but
    /// only the tile-proper rows — valid through iteration `iters` by the
    /// (iters−1)-hop halo — are ever committed to `x`. Tiles read the
    /// inbound iterate from a snapshot and write disjoint row ranges, so
    /// they are order-independent: parallel over tiles and bitwise
    /// reproducible at every thread count.
    pub fn apply_fused(&self, a: &Csr, plan: &FusedPlan, b: &[f64], x: &mut [f64], iters: usize) {
        if iters == 0 {
            return;
        }
        let n = a.nrows();
        assert_eq!(plan.n, n, "plan built for a different matrix size");
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        if iters > plan.max_iters {
            self.smooth_with(a, b, x, iters);
            return;
        }
        let theta = 0.5 * (self.lambda_hi + self.lambda_lo);
        let delta = 0.5 * (self.lambda_hi - self.lambda_lo);
        let sigma = theta / delta;
        let rho0 = 1.0 / sigma;
        let consts = ChebConsts {
            theta,
            delta,
            sigma,
            rho0,
        };
        let path = simd::runtime_simd_path();
        // ALLOC-OK: snapshot of the inbound iterate — tiles must all read
        // the pre-smoothing x while committing into x itself.
        let x0 = x.to_vec();
        let ntiles = plan.tiles.len();
        let xp = par::SendPtr::new(x.as_mut_ptr());
        let ranges = par::split_ranges(ntiles, par::num_threads());
        par::run_on_pool(&ranges, |_, t0, t1| {
            for tile in &plan.tiles[t0..t1] {
                // SAFETY: every tile commits only its own disjoint
                // contiguous row range `g0..g0+(c1-c0)` of `x`; reads go
                // through the shared `x0` snapshot.
                let xall = unsafe { std::slice::from_raw_parts_mut(xp.get(), n) };
                fused_tile(a, tile, b, &x0, xall, iters, consts, path);
            }
        });
    }
}

/// The recurrence constants of one smoothing application, computed exactly
/// as in `smooth_with` and shared by every tile.
#[derive(Clone, Copy)]
struct ChebConsts {
    theta: f64,
    delta: f64,
    sigma: f64,
    rho0: f64,
}

/// Run the full `iters`-deep recurrence on one tile's halo closure and
/// commit the tile-proper rows into `x`. Every statement mirrors
/// `smooth_with` operation for operation (same plain mul/add/div on the
/// same operands in the same order) — the bitwise contract.
#[allow(clippy::too_many_arguments)]
fn fused_tile(
    a: &Csr,
    tile: &FusedTile,
    b: &[f64],
    x0: &[f64],
    x: &mut [f64],
    iters: usize,
    consts: ChebConsts,
    path: SimdPath,
) {
    let ChebConsts {
        theta,
        delta,
        sigma,
        rho0,
    } = consts;
    let m = tile.rows.len();
    // Per-tile scratch, O(halo) — the fused apply is called once per
    // smoothing phase, not per row.
    // ALLOC-OK: O(halo) per-tile scratch, once per fused smoothing
    // phase (not per row); tiles are few and rows per tile are many.
    let mut r = vec![0.0; m];
    let mut d = vec![0.0; m]; // ALLOC-OK: see `r` above.
    let mut ad = vec![0.0; m]; // ALLOC-OK: see `r` above.
                               // Exact residual on every halo row from the global matrix and the
                               // x snapshot: same row dot (ascending columns) + `b - s` as
                               // `a.apply` followed by the residual flip.
    for (li, &g) in tile.rows.iter().enumerate() {
        let g = g as usize;
        let mut s = 0.0;
        for k in a.indptr[g]..a.indptr[g + 1] {
            s += a.values[k] * x0[a.indices[k] as usize];
        }
        r[li] = b[g] - s;
    }
    simd::cheb_d_init(path, &tile.inv_diag, &r, theta, &mut d);
    let mut rho = rho0;
    for k in 0..iters {
        for li in tile.c0..tile.c1 {
            // The commit is `axpy(1.0, d, x)` restricted to the
            // tile-proper rows (1.0·d is exact).
            x[tile.g0 + (li - tile.c0)] += 1.0 * d[li];
        }
        if k + 1 == iters {
            break;
        }
        // Halo-local SpMV. Columns outside the halo were dropped at
        // plan build: rows within the shrinking validity horizon have
        // their full stencil inside the halo (identical dot), boundary
        // rows compute finite garbage that is never committed.
        for li in 0..m {
            let mut s = 0.0;
            for kk in tile.indptr[li] as usize..tile.indptr[li + 1] as usize {
                s += tile.values[kk] * d[tile.indices[kk] as usize];
            }
            ad[li] = s;
        }
        simd::axpy(path, -1.0, &ad, &mut r);
        let rho_new = 1.0 / (2.0 * sigma - rho);
        let c1 = rho_new * rho;
        let c2 = 2.0 * rho_new / delta;
        simd::cheb_update(path, c1, c2, &tile.inv_diag, &r, &mut d);
        rho = rho_new;
    }
}

/// Largest halo redundancy at which [`FusedPlan::profitable`] still
/// recommends the fused apply. Fused work is `redundancy × nnz` per
/// iteration (vs `nnz` unfused), so past this point the cache re-use
/// cannot recover the extra arithmetic.
pub const MAX_REDUNDANCY: f64 = 1.5;

/// Tile/halo decomposition for [`Chebyshev::apply_fused`] (see there).
/// A plan is tied to the matrix it was built from and supports any
/// iteration depth up to `max_iters`.
///
/// Fusing is always *correct* (bitwise equal to the unfused sweeps) but
/// not always *profitable*: on matrices whose adjacency reaches far per
/// hop (e.g. 3D Q2 blocks, ~375 nnz/row), the (k−1)-hop halos can dwarf
/// the tile proper and the redundant halo arithmetic loses to k plain
/// sweeps. [`redundancy`](Self::redundancy) measures this and
/// [`profitable`](Self::profitable) gates on it; callers should fall back
/// to [`Chebyshev::smooth_with`] when a plan reports unprofitable.
pub struct FusedPlan {
    n: usize,
    max_iters: usize,
    base_nnz: usize,
    tiles: Vec<FusedTile>,
}

struct FusedTile {
    /// Sorted global row ids of the halo closure (⊇ the tile proper).
    rows: Vec<u32>,
    /// Local index range of the tile-proper (committed) rows.
    c0: usize,
    c1: usize,
    /// Global row id of local row `c0` (the committed range is the
    /// contiguous `g0 .. g0 + (c1 - c0)`).
    g0: usize,
    /// Column-localized CSR over the halo rows; columns outside the halo
    /// are dropped (their rows are past the validity horizon anyway).
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f64>,
    /// `Chebyshev::inv_diag` gathered to halo-local order.
    inv_diag: Vec<f64>,
}

impl FusedPlan {
    /// Automatic tile size: aim each tile's matrix slice at a few MB so the
    /// fused iterations re-use it from the last-level cache. Pure function
    /// of the matrix (rows + nnz), never of the thread count.
    pub fn auto_tile_rows(a: &Csr) -> usize {
        const TARGET_BYTES: usize = 4 << 20;
        let n = a.nrows().max(1);
        // 12 bytes per stored entry (u32 index + f64 value) + per-row cost.
        let bytes_per_row = 12 * a.nnz() / n + 40;
        (TARGET_BYTES / bytes_per_row.max(1)).clamp(1024.min(n), n)
    }

    /// Mean row extent (last column − first column) — a cheap bandwidth
    /// estimate: one matrix-adjacency hop grows a contiguous row range by
    /// about this many rows per side.
    fn mean_row_extent(a: &Csr) -> usize {
        let n = a.nrows();
        let mut sum = 0usize;
        for g in 0..n {
            let (k0, k1) = (a.indptr[g], a.indptr[g + 1]);
            if k1 > k0 {
                sum += (a.indices[k1 - 1] - a.indices[k0]) as usize;
            }
        }
        sum.div_ceil(n.max(1))
    }

    fn build(a: &Csr, max_iters: usize, tile_rows: usize, inv_diag: &[f64]) -> FusedPlan {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "fused smoothing requires a square matrix");
        assert_eq!(inv_diag.len(), n);
        let hops = max_iters.saturating_sub(1);
        let tile_rows = if tile_rows == 0 {
            // Bandwidth-aware widening of the cache-target size: a
            // (hops)-deep halo adds about hops·extent rows per side, so a
            // tile thinner than ~4·hops·extent is mostly halo. Widening
            // keeps the redundancy near MAX_REDUNDANCY where the matrix
            // allows it; `profitable()` re-checks the exact number after
            // the BFS. Still a pure function of (matrix, max_iters).
            let widen = 4 * hops * Self::mean_row_extent(a);
            Self::auto_tile_rows(a).max(widen).clamp(1, n.max(1))
        } else {
            tile_rows
        };
        // Stamp + local-index scratch shared across tiles (no clearing:
        // a fresh stamp value per tile invalidates old entries).
        let mut stamp = vec![0u32; n];
        let mut local = vec![0u32; n];
        let mut tiles = Vec::new();
        let mut g0 = 0usize;
        let mut tile_id = 0u32;
        while g0 < n {
            let g1 = (g0 + tile_rows).min(n);
            tile_id += 1;
            // (hops)-hop BFS closure over the matrix adjacency.
            let mut rows: Vec<u32> = (g0 as u32..g1 as u32).collect();
            for &r0 in &rows {
                stamp[r0 as usize] = tile_id;
            }
            let mut frontier: Vec<u32> = rows.clone();
            for _ in 0..hops {
                let mut next = Vec::new();
                for &fr in &frontier {
                    let fr = fr as usize;
                    for k in a.indptr[fr]..a.indptr[fr + 1] {
                        let c = a.indices[k];
                        if stamp[c as usize] != tile_id {
                            stamp[c as usize] = tile_id;
                            next.push(c);
                        }
                    }
                }
                rows.extend_from_slice(&next);
                frontier = next;
            }
            rows.sort_unstable();
            for (li, &g) in rows.iter().enumerate() {
                local[g as usize] = li as u32;
            }
            // The tile proper is contiguous in the sorted halo list.
            let c0 = rows.partition_point(|&g| (g as usize) < g0);
            let c1 = c0 + (g1 - g0);
            debug_assert_eq!(rows[c0] as usize, g0);
            // Column-localized CSR, dropping out-of-halo columns.
            let mut indptr = Vec::with_capacity(rows.len() + 1);
            let mut indices = Vec::new();
            let mut values = Vec::new();
            indptr.push(0u32);
            for &g in &rows {
                let g = g as usize;
                for k in a.indptr[g]..a.indptr[g + 1] {
                    let c = a.indices[k] as usize;
                    if stamp[c] == tile_id {
                        indices.push(local[c]);
                        values.push(a.values[k]);
                    }
                }
                indptr.push(indices.len() as u32);
            }
            let inv_loc: Vec<f64> = rows.iter().map(|&g| inv_diag[g as usize]).collect();
            tiles.push(FusedTile {
                c0,
                c1,
                g0,
                indptr,
                indices,
                values,
                inv_diag: inv_loc,
                rows,
            });
            g0 = g1;
        }
        FusedPlan {
            n,
            max_iters,
            base_nnz: a.nnz(),
            tiles,
        }
    }

    pub fn max_iters(&self) -> usize {
        self.max_iters
    }

    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Σ tile nnz (halo closures included, out-of-halo columns dropped)
    /// over the matrix nnz: the factor by which fused sweeps inflate the
    /// per-iteration arithmetic and matrix traffic.
    pub fn redundancy(&self) -> f64 {
        let mut tile_nnz = 0usize;
        for t in &self.tiles {
            tile_nnz += t.values.len();
        }
        tile_nnz as f64 / self.base_nnz.max(1) as f64
    }

    /// Whether the fused apply is expected to beat plain sweeps: at least
    /// two tiles (a single tile serializes the whole smoothing pass) and a
    /// halo redundancy within [`MAX_REDUNDANCY`]. Purely a performance
    /// verdict — correctness holds either way.
    pub fn profitable(&self) -> bool {
        self.tiles.len() >= 2 && self.redundancy() <= MAX_REDUNDANCY
    }
}

impl Preconditioner for Chebyshev {
    /// Zero-initial-guess application (stationary preconditioner — safe
    /// inside non-flexible Krylov methods).
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.fill(0.0);
        // We need the operator for a full smooth; as a PC the smoother is
        // constructed bound to an operator via `BoundSmoother` instead.
        // This impl exists only to satisfy trait objects in tests; a bare
        // Chebyshev without an operator degenerates to scaled Jacobi.
        let theta = 0.5 * (self.lambda_hi + self.lambda_lo);
        for i in 0..r.len() {
            z[i] = self.inv_diag[i] * r[i] / theta;
        }
    }
}

/// A smoother bound to its operator so it can serve as a [`Preconditioner`].
pub struct BoundSmoother<'a> {
    pub a: &'a dyn LinearOperator,
    pub smoother: Chebyshev,
}

impl Preconditioner for BoundSmoother<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.fill(0.0);
        self.smoother.smooth(self.a, r, z);
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
    fn fused_equals_sequential_bitwise_for_all_k_and_tiles() {
        for (n, seed) in [(173usize, 1u64), (512, 2)] {
            let a = random_spd(n, seed);
            let cheb = Chebyshev::new(&a, 4, 10);
            let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin()).collect();
            let x_init: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.05).cos()).collect();
            for k in 1..=4usize {
                let mut x_ref = x_init.clone();
                cheb.smooth_with(&a, &b, &mut x_ref, k);
                // Every tile size, including one larger than the mesh.
                for tile in [1usize, 3, 8, 64, n, 2 * n] {
                    let plan = cheb.fused_plan(&a, k, tile);
                    let mut x = x_init.clone();
                    cheb.apply_fused(&a, &plan, &b, &mut x, k);
                    for i in 0..n {
                        assert_eq!(
                            x[i].to_bits(),
                            x_ref[i].to_bits(),
                            "n={n} k={k} tile={tile} row {i}: {} vs {}",
                            x[i],
                            x_ref[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_plan_reused_for_shallower_sweeps_and_falls_back_when_too_deep() {
        let n = 200;
        let a = random_spd(n, 5);
        let cheb = Chebyshev::new(&a, 3, 10);
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.29).sin()).collect();
        // One plan at depth 3 serves iters = 1, 2, 3 …
        let plan = cheb.fused_plan(&a, 3, 16);
        for k in 1..=3usize {
            let mut x_ref = vec![0.25; n];
            cheb.smooth_with(&a, &b, &mut x_ref, k);
            let mut x = vec![0.25; n];
            cheb.apply_fused(&a, &plan, &b, &mut x, k);
            assert!(x
                .iter()
                .zip(&x_ref)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        // … and a too-deep request falls back to the unfused sweep (still
        // exact, by definition).
        let mut x_ref = vec![0.25; n];
        cheb.smooth_with(&a, &b, &mut x_ref, 5);
        let mut x = vec![0.25; n];
        cheb.apply_fused(&a, &plan, &b, &mut x, 5);
        assert!(x
            .iter()
            .zip(&x_ref)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn profitability_gate_separates_banded_from_scattered_matrices() {
        // Narrow-band matrix, many tiles: halos are 1–2 rows per side, so
        // the redundancy stays near 1 and fusing is worthwhile.
        let n = 20_000;
        let a = laplace1d(n);
        let cheb = Chebyshev::new(&a, 2, 5);
        let plan = cheb.fused_plan(&a, 2, 4096);
        assert!(plan.num_tiles() >= 2);
        assert!(plan.redundancy() < 1.01, "banded: {}", plan.redundancy());
        assert!(plan.profitable());

        // Scattered coupling: one hop reaches most of the matrix, so thin
        // tiles are nearly all halo and the gate must reject the plan.
        let a = random_spd(512, 9);
        let cheb = Chebyshev::new(&a, 3, 5);
        let plan = cheb.fused_plan(&a, 3, 64);
        assert!(plan.redundancy() > MAX_REDUNDANCY);
        assert!(!plan.profitable());

        // A single-tile plan serializes smoothing — never profitable, even
        // with zero redundancy.
        let a = laplace1d(256);
        let cheb = Chebyshev::new(&a, 2, 5);
        let plan = cheb.fused_plan(&a, 2, 1024);
        assert_eq!(plan.num_tiles(), 1);
        assert!(!plan.profitable());
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
