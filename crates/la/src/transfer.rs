//! GMG grid transfer between nested Q2 node grids.
//!
//! [`NestedTransfer`] is what the V-cycle runs: the index-space trilinear
//! prolongation `P` of `ptatin_mesh::hierarchy` (blocked over the three
//! velocity components, Dirichlet rows and columns filtered) and its
//! transpose, applied as elementwise sweeps over x-lines of nodes with no
//! index or weight tables. Along each axis an even fine index takes one
//! coarse tap (weight 1) and an odd one two (weight ½ each), so a fine
//! row has 1–8 taps and a coarse row 8–27. Every output sums its taps from
//! `0.0` with plain mul/add, in ascending coarse column for `P` and
//! ascending fine row for `Pᵀ`, with constrained entries as zero weights:
//! exactly the operation sequence of `Csr::spmv` on the filtered blocked
//! matrix and of [`BatchedTransfer::restrict`]. Outputs are independent,
//! so the sweep is bitwise the same at every thread count, and it has one
//! code path for both SIMD paths.
//!
//! [`BatchedTransfer`] repacks a transfer CSR (and its transpose) into
//! fixed-width lane-major SoA rows — lane `L` stores `width` slots of 4
//! column indices + 4 weights, padded with `(index 0, weight 0.0)` — and
//! applies them as a branch-free gather/multiply/accumulate over slots. It
//! is the CSR-driven form the benchmark's transfer probes time and the
//! oracle of [`NestedTransfer`]'s tests; the padding is why it moves more
//! bytes than the stencil (every row is as wide as the widest).
//!
//! `BatchedTransfer`'s bitwise contract (DESIGN.md §9): accumulation
//! starts from `0.0` and uses plain mul/add in ascending slot order. For
//! the forward map the slot order is the CSR row order, so each lane
//! performs exactly the operation sequence of `Csr::spmv` on that row.
//! For restriction the transposed rows are sorted by originating fine-row
//! index — the order in which `Csr::spmv_transpose` scatters into each
//! coarse dof — so the result matches the scalar transpose apply. (The
//! only divergence is the sign of a `-0.0` in the zero-padded tail and for
//! entries the scalar transpose skips via its `x[i] == 0.0` shortcut; tests
//! therefore compare restriction numerically at 0 ulp of magnitude, and the
//! AVX-vs-portable pair strictly bitwise.) Both paths — portable and AVX2 —
//! are bitwise identical by construction: plain
//! `_mm256_mul_pd`/`_mm256_add_pd` on the same operands in the same order.

use crate::csr::Csr;
use crate::par;
use crate::simd::{self, run_lanes, Lane, LaneKernel, SimdPath, LANES};
use ptatin_prof as prof;

/// Rows below which the apply runs serially (elementwise outputs, so the
/// serial and parallel paths are bitwise identical at every thread count).
const PAR_MIN_ROWS: usize = 1 << 12;

/// One direction (forward or transpose) repacked into padded lane rows.
struct LaneMap {
    nrows: usize,
    ncols: usize,
    /// Slots per row (max nnz over rows, at least 1).
    width: usize,
    /// `[lane][slot][sublane]` column indices, `nlanes * width * 4` long.
    idx: Vec<u32>,
    /// Matching weights; padding slots carry `0.0`.
    w: Vec<f64>,
}

impl LaneMap {
    /// Pack `rows[i] = (sorted-by-source list of (col, val))`.
    fn pack(nrows: usize, ncols: usize, rows: &[Vec<(u32, f64)>]) -> LaneMap {
        let width = rows.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let nlanes = nrows.div_ceil(LANES);
        let mut idx = vec![0u32; nlanes * width * LANES];
        let mut w = vec![0.0f64; nlanes * width * LANES];
        for (i, row) in rows.iter().enumerate() {
            let (lane, sub) = (i / LANES, i % LANES);
            for (s, &(c, v)) in row.iter().enumerate() {
                let at = (lane * width + s) * LANES + sub;
                idx[at] = c;
                w[at] = v;
            }
        }
        LaneMap {
            nrows,
            ncols,
            width,
            idx,
            w,
        }
    }

    /// `y[i] = Σ_s w[i][s] · x[idx[i][s]]` for rows `row0..row1`
    /// (lane-aligned bounds except possibly `row1 == nrows`).
    fn apply_range(&self, path: SimdPath, x: &[f64], y: &mut [f64], row0: usize, row1: usize) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert!(row0 % LANES == 0);
        run_lanes(
            path,
            LaneRows {
                map: self,
                x,
                row0,
                row1,
            },
            y,
        );
    }

    /// Full apply: parallel over 4-aligned row ranges (each output row is
    /// written by exactly one piece, and every row's value is independent
    /// of the partition — bitwise identical at every thread count).
    fn apply(&self, path: SimdPath, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.nrows);
        assert_eq!(x.len(), self.ncols);
        if self.nrows < PAR_MIN_ROWS || par::num_threads() <= 1 {
            self.apply_range(path, x, y, 0, self.nrows);
            return;
        }
        let yp = par::SendPtr::new(y.as_mut_ptr());
        par::par_ranges_aligned(self.nrows, LANES, |_, s, e| {
            // SAFETY: pieces cover disjoint 4-aligned row ranges; each
            // piece writes only rows `s..e` of `y`.
            let yall = unsafe { std::slice::from_raw_parts_mut(yp.get(), self.nrows) };
            self.apply_range(path, x, yall, s, e);
        });
    }
}

/// The rows `row0..row1` of a [`LaneMap`] apply, one lane of four rows at
/// a time.
struct LaneRows<'a> {
    map: &'a LaneMap,
    x: &'a [f64],
    row0: usize,
    row1: usize,
}

impl LaneKernel for LaneRows<'_> {
    type Out = [f64];

    #[inline(always)]
    fn run<V: Lane>(self, y: &mut [f64]) {
        let Self { map, x, row0, row1 } = self;
        let (idx, w) = (&map.idx[..], &map.w[..]);
        let slots = map.width * LANES;
        for lane in row0 / LANES..row1.div_ceil(LANES) {
            let base = lane * slots;
            let (w, _) = w[base..base + slots].as_chunks::<LANES>();
            let (idx, _) = idx[base..base + slots].as_chunks::<LANES>();
            let mut acc = V::splat(0.0);
            for (w, i) in w.iter().zip(idx) {
                let xv = [
                    x[i[0] as usize],
                    x[i[1] as usize],
                    x[i[2] as usize],
                    x[i[3] as usize],
                ];
                acc = acc + V::load(w) * V::from_array(xv);
            }
            let r0 = lane * LANES;
            for (j, v) in acc.to_array().into_iter().enumerate().take(row1 - r0) {
                y[r0 + j] = v;
            }
        }
    }
}

/// Batched prolongation + restriction built from a transfer CSR matrix
/// (see module docs for layout and the bitwise contract).
pub struct BatchedTransfer {
    forward: LaneMap,
    transpose: LaneMap,
    path: SimdPath,
}

impl BatchedTransfer {
    /// Repack `p` (fine-rows × coarse-cols) with the runtime-detected
    /// SIMD path.
    pub fn from_csr(p: &Csr) -> Self {
        Self::with_path(p, simd::detected_simd_path())
    }

    /// Repack with an explicit path (tests compare Portable vs Avx2Fma).
    pub fn with_path(p: &Csr, path: SimdPath) -> Self {
        let nf = p.nrows();
        let nc = p.ncols();
        let mut fwd_rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nf];
        let mut tr_rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nc];
        // Walking fine rows in ascending order makes each transpose row's
        // entry list ascending in fine index — the accumulation order of
        // `Csr::spmv_transpose`'s serial scatter.
        for i in 0..nf {
            for k in p.indptr[i]..p.indptr[i + 1] {
                let j = p.indices[k] as usize;
                let v = p.values[k];
                fwd_rows[i].push((p.indices[k], v));
                tr_rows[j].push((i as u32, v));
            }
        }
        BatchedTransfer {
            forward: LaneMap::pack(nf, nc, &fwd_rows),
            transpose: LaneMap::pack(nc, nf, &tr_rows),
            path,
        }
    }

    pub fn nrows(&self) -> usize {
        self.forward.nrows
    }

    pub fn ncols(&self) -> usize {
        self.forward.ncols
    }

    pub fn path(&self) -> SimdPath {
        self.path
    }

    /// `y = P · xc` (coarse-to-fine interpolation; replaces `Csr::spmv`).
    pub fn prolong(&self, xc: &[f64], y: &mut [f64]) {
        self.forward.apply(self.path, xc, y);
    }

    /// `yc = Pᵀ · r` (fine-to-coarse; replaces `Csr::spmv_transpose`).
    pub fn restrict(&self, r: &[f64], yc: &mut [f64]) {
        self.transpose.apply(self.path, r, yc);
    }
}

/// Interleaved components of the fields a [`NestedTransfer`] maps (the
/// velocity components).
const NDOF: usize = 3;

/// Coarse nodes per stack-held accumulator chunk of a prolongation line.
const CHUNK: usize = 32;

thread_local! {
    /// The masked input of a [`NestedTransfer`] sweep — the coarse field of
    /// `prolong_add`, the split fine lines of `restrict` — kept with the
    /// calling thread across calls.
    static SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `x`, or `+0.0` where `masked`: a constrained entry as a zero weight.
/// A bit mask rather than a branch, so the line loops vectorize.
#[inline(always)]
fn keep(x: f64, masked: bool) -> f64 {
    f64::from_bits(x.to_bits() & u64::from(masked).wrapping_sub(1))
}

/// Coarse taps of fine node index `i` along one axis, ascending: on the
/// coarse node `i/2` (weight 1) when `i` is even, midway between `i/2` and
/// `i/2 + 1` (weight ½ each) when it is odd.
#[inline]
fn coarse_taps(i: usize) -> ([(usize, f64); 2], usize) {
    if i % 2 == 0 {
        ([(i / 2, 1.0), (0, 0.0)], 1)
    } else {
        ([(i / 2, 0.5), (i / 2 + 1, 0.5)], 2)
    }
}

/// Fine taps of coarse node index `ic` along an axis of `n` fine nodes,
/// ascending: `2ic - 1` (½), `2ic` (1) and `2ic + 1` (½), inside the grid.
#[inline]
fn fine_taps(ic: usize, n: usize) -> ([(usize, f64); 3], usize) {
    let f = 2 * ic;
    let mut t = [(0, 0.0); 3];
    let mut len = 0;
    if f > 0 {
        t[len] = (f - 1, 0.5);
        len += 1;
    }
    t[len] = (f, 1.0);
    len += 1;
    if f + 1 < n {
        t[len] = (f + 1, 0.5);
        len += 1;
    }
    (t, len)
}

/// Run `f(line, out_line)` over the `line`-long pieces of `out`, on the
/// worker pool when `out` is large. Each output is written by one piece
/// and depends on no other, so the partition never shows in the result.
fn sweep_lines(out: &mut [f64], line: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
    if out.len() < PAR_MIN_ROWS || par::num_threads() <= 1 {
        out.chunks_mut(line).enumerate().for_each(|(l, o)| f(l, o));
    } else {
        par::par_blocks_mut(out, line, f);
    }
}

/// [`NestedTransfer::prolong_line`] from its `N` masked coarse lines
/// `(first dof, weight in y and z)`: fine node `2m` takes coarse node `m`
/// of each line, node `2m + 1` nodes `m` and `m + 1`. The sums run line by
/// line over a chunk of coarse nodes, so each output keeps its tap order
/// while the nodes of a chunk are independent work.
#[inline(always)]
fn prolong_lines<const N: usize>(
    lines: [(usize, f64); N],
    xc: &[f64],
    fine_mask: &[bool],
    xl: &mut [f64],
) {
    // Coarse dofs per line: fine line `xl` has 2 cn − 3 dofs.
    let cn = (xl.len() + NDOF) / 2;
    let mut even = [0.0f64; NDOF * CHUNK];
    let mut odd = [0.0f64; NDOF * CHUNK];
    let mut q0 = 0;
    while q0 < cn {
        let q1 = (q0 + NDOF * CHUNK).min(cn);
        let len = q1 - q0;
        // The odd nodes of a chunk read one coarse node past it; the last
        // coarse node has no odd fine node after it.
        let (len_odd, end) = if q1 == cn {
            (len - NDOF, q1)
        } else {
            (len, q1 + NDOF)
        };
        even[..len].fill(0.0);
        odd[..len_odd].fill(0.0);
        for &(b, w) in &lines {
            let x = &xc[b + q0..b + end];
            for (e, &v) in even[..len].iter_mut().zip(x) {
                *e += w * v;
            }
            let wh = 0.5 * w;
            for ((o, &v0), &v1) in odd[..len_odd].iter_mut().zip(x).zip(&x[NDOF..]) {
                *o = (*o + wh * v0) + wh * v1;
            }
        }
        // Coarse node `m` of the chunk feeds fine nodes 2m and 2m + 1.
        let f0 = 2 * q0;
        let fine = xl[f0..]
            .chunks_mut(2 * NDOF)
            .zip(fine_mask[f0..].chunks(2 * NDOF));
        for (t, (xf, mf)) in (0..len).step_by(NDOF).zip(fine) {
            for c in 0..NDOF {
                xf[c] += keep(even[t + c], mf[c]);
            }
            if t < len_odd {
                for c in 0..NDOF {
                    xf[NDOF + c] += keep(odd[t + c], mf[NDOF + c]);
                }
            }
        }
        q0 = q1;
    }
}

/// [`NestedTransfer::restrict_line`] from its `N` split fine lines
/// `(first entry, weight in y and z)`: coarse node `m` takes fine nodes
/// `2m − 1`, `2m` and `2m + 1` of each line, a missing end tap reading as
/// `+0.0`, which leaves a sum unchanged. `out` accumulates line by line,
/// so each output keeps its tap order while the nodes of the line are
/// independent work.
#[inline(always)]
fn restrict_lines<const N: usize>(
    lines: [(usize, f64); N],
    split: &[f64],
    coarse_mask: &[bool],
    out: &mut [f64],
) {
    let cn = out.len();
    out.fill(0.0);
    for &(b, w) in &lines {
        let (even, odd) = (&split[b..b + cn], &split[b + cn..b + 2 * cn + NDOF]);
        let wh = 0.5 * w;
        let taps = even.iter().zip(odd.iter().zip(&odd[NDOF..]));
        for (o, (&e, (&before, &after))) in out.iter_mut().zip(taps) {
            *o = ((*o + wh * before) + w * e) + wh * after;
        }
    }
    for (o, &m) in out.iter_mut().zip(coarse_mask) {
        *o = keep(*o, m);
    }
}

/// The trilinear grid transfer between two nested Q2 node grids for
/// interleaved 3-component fields, as line stencils (see the module docs
/// for the operation order). Fine node `(i, j, k)` of an `nx × ny × nz`
/// grid is `i + nx (j + ny k)`, its component `c` the dof `3 node + c`;
/// the coarse grid has `(n + 1) / 2` nodes along each axis. Dirichlet
/// dofs of either grid are the rows and columns the filtered `P` zeroes.
pub struct NestedTransfer {
    fine: [usize; 3],
    coarse: [usize; 3],
    fine_mask: Vec<bool>,
    coarse_mask: Vec<bool>,
    /// Scalar nonzeros of `P`: the coarse taps of every fine node.
    taps: u64,
}

impl NestedTransfer {
    /// The transfer onto the fine node grid of dimensions `fine_nodes`
    /// (`4m + 1` nodes along each axis: the Q2 grid of an even element
    /// count) from the grid it coarsens to, with the Dirichlet masks of
    /// both over their dofs.
    pub fn new(
        (nx, ny, nz): (usize, usize, usize),
        fine_mask: Vec<bool>,
        coarse_mask: Vec<bool>,
    ) -> Self {
        let fine_nodes = [nx, ny, nz];
        assert!(
            fine_nodes.iter().all(|&n| n >= 5 && (n - 1) % 4 == 0),
            "fine node grid {fine_nodes:?} is not the Q2 grid of an even element count"
        );
        let coarse = fine_nodes.map(|n| n.div_ceil(2));
        let nodes = |d: [usize; 3]| d[0] * d[1] * d[2];
        assert_eq!(
            fine_mask.len(),
            NDOF * nodes(fine_nodes),
            "fine mask length"
        );
        assert_eq!(
            coarse_mask.len(),
            NDOF * nodes(coarse),
            "coarse mask length"
        );
        // Along an axis of n nodes: (n + 1) / 2 even indices of one tap and
        // n / 2 odd ones of two.
        let axis = fine_nodes.map(|n| (n.div_ceil(2) + 2 * (n / 2)) as u64);
        let taps = axis[0] * axis[1] * axis[2];
        Self {
            fine: fine_nodes,
            coarse,
            fine_mask,
            coarse_mask,
            taps,
        }
    }

    /// Fine dofs (the rows of `P`).
    pub fn nrows(&self) -> usize {
        self.fine_mask.len()
    }

    /// Coarse dofs (the columns of `P`).
    pub fn ncols(&self) -> usize {
        self.coarse_mask.len()
    }

    /// Dirichlet mask of the fine dofs.
    pub fn fine_mask(&self) -> &[bool] {
        &self.fine_mask
    }

    /// Dirichlet mask of the coarse dofs.
    pub fn coarse_mask(&self) -> &[bool] {
        &self.coarse_mask
    }

    /// `x += P · xc`: the V-cycle's prolong-and-correct in one sweep.
    pub fn prolong_add(&self, xc: &[f64], x: &mut [f64]) {
        assert_eq!(xc.len(), self.ncols());
        assert_eq!(x.len(), self.nrows());
        // A mul and an add per tap and the correction's add per fine dof;
        // traffic at perfect reuse: x read and written, xc and both masks
        // read (the scratch stays in cache).
        let (n, c) = (self.nrows() as u64, self.ncols() as u64);
        prof::log_flops(NDOF as u64 * 2 * self.taps + n);
        prof::log_bytes(17 * n + 9 * c);
        let [nx, ny, _] = self.fine;
        SCRATCH.with(|cell| {
            let mut a = cell.borrow_mut();
            a.clear();
            a.extend(xc.iter().zip(&self.coarse_mask).map(|(&v, &m)| keep(v, m)));
            let a = &a[..];
            sweep_lines(x, NDOF * nx, |line, xl| {
                self.prolong_line(line % ny, line / ny, a, xl)
            });
        });
    }

    /// `x += P · xc` on the fine x-line `(j, k)`.
    fn prolong_line(&self, j: usize, k: usize, xc: &[f64], xl: &mut [f64]) {
        let [nx, ny, _] = self.fine;
        let [cnx, cny, _] = self.coarse;
        let ((tj, nj), (tk, nk)) = (coarse_taps(j), coarse_taps(k));
        // Coarse lines in ascending (kc, jc): with the ascending i-taps
        // inside each line, the column order of a row of `P`.
        let mut lines = [(0usize, 0.0f64); 4];
        let mut nl = 0;
        for &(kc, wk) in &tk[..nk] {
            for &(jc, wj) in &tj[..nj] {
                lines[nl] = (NDOF * cnx * (jc + cny * kc), wj * wk);
                nl += 1;
            }
        }
        let row0 = NDOF * nx * (j + ny * k);
        let fine_mask = &self.fine_mask[row0..row0 + NDOF * nx];
        match nl {
            1 => prolong_lines::<1>(std::array::from_fn(|l| lines[l]), xc, fine_mask, xl),
            2 => prolong_lines::<2>(std::array::from_fn(|l| lines[l]), xc, fine_mask, xl),
            _ => prolong_lines::<4>(lines, xc, fine_mask, xl),
        }
    }

    /// `rc = Pᵀ · r`.
    pub fn restrict(&self, r: &[f64], rc: &mut [f64]) {
        assert_eq!(r.len(), self.nrows());
        assert_eq!(rc.len(), self.ncols());
        // A mul and an add per tap; traffic at perfect reuse: r and both
        // masks read, rc written (the split lines stay in cache).
        prof::log_flops(NDOF as u64 * 2 * self.taps);
        prof::log_bytes(9 * (self.nrows() + self.ncols()) as u64);
        let [nx, ny, nz] = self.fine;
        let [cnx, cny, _] = self.coarse;
        let stride = NDOF * (nx + 2);
        SCRATCH.with(|cell| {
            let mut split = cell.borrow_mut();
            split.resize(stride * ny * nz, 0.0);
            sweep_lines(&mut split, stride, |line, buf| {
                self.split_line(line, r, buf)
            });
            let split = &split[..];
            sweep_lines(rc, NDOF * cnx, |line, out| {
                self.restrict_line(line % cny, line / cny, split, out)
            });
        });
    }

    /// Fine x-line `line` of `r`, masked, into `buf`: its even nodes
    /// `0, 2, …` (one per coarse node), then its odd nodes with a zero node
    /// before the first and after the last — so coarse node `m` finds its
    /// fine taps `2m − 1`, `2m`, `2m + 1` at the same offset `m` of the
    /// even run and at `m`, `m + 1` of the odd one.
    fn split_line(&self, line: usize, r: &[f64], buf: &mut [f64]) {
        let n = NDOF * self.fine[0];
        let (rl, ml) = (
            &r[line * n..(line + 1) * n],
            &self.fine_mask[line * n..(line + 1) * n],
        );
        let (even, odd) = buf.split_at_mut(NDOF * self.coarse[0]);
        let (first, odd) = odd.split_at_mut(NDOF);
        first.fill(0.0);
        let last = odd.len() - NDOF;
        odd[last..].fill(0.0);
        let src = rl.chunks(2 * NDOF).zip(ml.chunks(2 * NDOF));
        let dst = even.chunks_exact_mut(NDOF).zip(odd.chunks_exact_mut(NDOF));
        for ((rf, mf), (e, o)) in src.zip(dst) {
            for c in 0..NDOF {
                e[c] = keep(rf[c], mf[c]);
            }
            if rf.len() == 2 * NDOF {
                for c in 0..NDOF {
                    o[c] = keep(rf[NDOF + c], mf[NDOF + c]);
                }
            }
        }
    }

    /// `rc = Pᵀ · r` on the coarse x-line `(jc, kc)`, from the split
    /// fine lines.
    fn restrict_line(&self, jc: usize, kc: usize, split: &[f64], out: &mut [f64]) {
        let [nx, ny, nz] = self.fine;
        let [cnx, cny, _] = self.coarse;
        let ((tj, nj), (tk, nk)) = (fine_taps(jc, ny), fine_taps(kc, nz));
        // Fine lines in ascending (k, j): with the ascending i-taps inside
        // each line, the fine-row order in which a column of `P` sums.
        let mut lines = [(0usize, 0.0f64); 9];
        let mut nl = 0;
        for &(k, wk) in &tk[..nk] {
            for &(j, wj) in &tj[..nj] {
                lines[nl] = (NDOF * (nx + 2) * (j + ny * k), wj * wk);
                nl += 1;
            }
        }
        let col0 = NDOF * cnx * (jc + cny * kc);
        let coarse_mask = &self.coarse_mask[col0..col0 + NDOF * cnx];
        // Two or three taps per axis (a grid of at least 5 fine nodes).
        match nl {
            4 => restrict_lines::<4>(std::array::from_fn(|l| lines[l]), split, coarse_mask, out),
            6 => restrict_lines::<6>(std::array::from_fn(|l| lines[l]), split, coarse_mask, out),
            _ => restrict_lines::<9>(lines, split, coarse_mask, out),
        }
    }

    /// Whether every constrained fine dof interpolates only from
    /// constrained coarse dofs — `gmg::dirichlet_sets_nested` of the
    /// filtered blocked `P`, answered from the stencil.
    pub fn dirichlet_sets_nested(&self) -> bool {
        let [nx, ny, nz] = self.fine;
        let [cnx, cny, _] = self.coarse;
        for k in 0..nz {
            let (tk, nk) = coarse_taps(k);
            for j in 0..ny {
                let (tj, nj) = coarse_taps(j);
                for i in 0..nx {
                    let (ti, ni) = coarse_taps(i);
                    let row = NDOF * (i + nx * (j + ny * k));
                    for c in 0..NDOF {
                        if !self.fine_mask[row + c] {
                            continue;
                        }
                        for &(kc, _) in &tk[..nk] {
                            for &(jc, _) in &tj[..nj] {
                                for &(ic, _) in &ti[..ni] {
                                    let col = NDOF * (ic + cnx * (jc + cny * kc)) + c;
                                    if !self.coarse_mask[col] {
                                        return false;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    /// Deterministic pseudo-random transfer with ≤8 entries/row, mimicking
    /// the trilinear prolongation's shape.
    fn random_transfer(nf: usize, nc: usize, seed: u64) -> Csr {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut b = CsrBuilder::new(nf, nc);
        for i in 0..nf {
            let nnz = (next() % 9) as usize; // 0..=8, rows may be empty
            let mut cols: Vec<u32> = (0..nnz).map(|_| (next() % nc as u64) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                let v = (next() % 1000) as f64 / 1000.0 - 0.3;
                b.add(i, c as usize, v);
            }
        }
        b.finish()
    }

    #[test]
    fn prolong_matches_spmv_bitwise_and_restrict_matches_transpose() {
        for (nf, nc, seed) in [(97, 23, 1u64), (128, 40, 2), (5, 3, 3), (4099, 517, 4)] {
            let p = random_transfer(nf, nc, seed);
            let bt = BatchedTransfer::with_path(&p, SimdPath::Portable);
            let xc: Vec<f64> = (0..nc).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut y_ref = vec![0.0; nf];
            p.spmv(&xc, &mut y_ref);
            let mut y = vec![0.0; nf];
            bt.prolong(&xc, &mut y);
            for i in 0..nf {
                assert_eq!(y[i].to_bits(), y_ref[i].to_bits(), "prolong row {i}");
            }

            let r: Vec<f64> = (0..nf).map(|i| (i as f64 * 0.13).cos()).collect();
            let mut yc_ref = vec![0.0; nc];
            p.spmv_transpose(&r, &mut yc_ref);
            let mut yc = vec![0.0; nc];
            bt.restrict(&r, &mut yc);
            for j in 0..nc {
                // Restriction accumulates in the serial-scatter order;
                // the parallel scalar transpose combines fixed pieces, so
                // compare numerically (identical terms, same order within
                // pieces — agreement is exact here in practice).
                assert!(
                    (yc[j] - yc_ref[j]).abs() <= 1e-12 * (1.0 + yc_ref[j].abs()),
                    "restrict col {j}: {} vs {}",
                    yc[j],
                    yc_ref[j]
                );
            }
        }
    }

    #[test]
    fn avx_and_portable_paths_agree_bitwise() {
        if !simd::avx2_fma_available() {
            return;
        }
        let p = random_transfer(1023, 255, 7);
        let bp = BatchedTransfer::with_path(&p, SimdPath::Portable);
        let ba = BatchedTransfer::with_path(&p, SimdPath::Avx2Fma);
        let xc: Vec<f64> = (0..255).map(|i| (i as f64 * 0.7).sin()).collect();
        let r: Vec<f64> = (0..1023).map(|i| (i as f64 * 0.11).cos()).collect();
        let (mut y0, mut y1) = (vec![0.0; 1023], vec![0.0; 1023]);
        bp.prolong(&xc, &mut y0);
        ba.prolong(&xc, &mut y1);
        assert!(y0.iter().zip(&y1).all(|(a, b)| a.to_bits() == b.to_bits()));
        let (mut c0, mut c1) = (vec![0.0; 255], vec![0.0; 255]);
        bp.restrict(&r, &mut c0);
        ba.restrict(&r, &mut c1);
        assert!(c0.iter().zip(&c1).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn nested_transfer_reproduces_constants_and_is_its_own_adjoint() {
        let fine = (9, 5, 13);
        let (nf, nc) = (3 * 9 * 5 * 13, 3 * 5 * 3 * 7);
        let t = NestedTransfer::new(fine, vec![false; nf], vec![false; nc]);
        assert_eq!((t.nrows(), t.ncols()), (nf, nc));
        // Row sums are 1: a constant coarse field prolongs to itself.
        let mut x = vec![1.0; nf];
        t.prolong_add(&vec![2.0; nc], &mut x);
        assert!(x.iter().all(|&v| v == 3.0));
        // ⟨P xc, r⟩ = ⟨xc, Pᵀ r⟩.
        let xc: Vec<f64> = (0..nc).map(|i| (i as f64 * 0.37).sin()).collect();
        let r: Vec<f64> = (0..nf).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut px = vec![0.0; nf];
        t.prolong_add(&xc, &mut px);
        let mut rc = vec![0.0; nc];
        t.restrict(&r, &mut rc);
        let lhs: f64 = px.iter().zip(&r).map(|(a, b)| a * b).sum();
        let rhs: f64 = xc.iter().zip(&rc).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() <= 1e-12 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
        assert!(t.dirichlet_sets_nested());
    }
}
