//! Symbolic/numeric split of the Q2–P1disc assembly (DESIGN.md §13).
//!
//! The sparsity pattern of every assembled Stokes block depends only on
//! the mesh topology, never on the coefficients: Picard/Newton iterations
//! change η but not which entries exist. The symbolic phase here freezes
//! the CSR pattern once per mesh; the numeric phase scatters element
//! matrices straight into the frozen value array — no per-row `Vec`
//! staging, no sort, no duplicate merge. Re-assembly after a coefficient
//! update is therefore a pure numeric pass, and — because fresh assembly
//! uses the *same* numeric pass on a freshly built pattern — re-assembled
//! values are bitwise identical to fresh assembly by construction.
//!
//! Scatter addressing is closed-form rather than tabulated: on the
//! structured grid the node-neighbours of node `(i,j,k)` form a contiguous
//! index block (the union of the 27-node stencils of all elements
//! containing the node), so the CSR slot of any element contribution is a
//! few integer operations. The accumulation order is ascending element
//! index with the element-local `(i, r, j, c)` loop order fixed below —
//! one canonical order shared by the scalar and SIMD-batched numeric
//! kernels at every thread count.

use crate::assemble::{
    element_viscous_matrix_into, num_velocity_dofs, Q2QuadTables, ASSEMBLY_BATCH,
};
use crate::basis::{NP1, NQ1, NQ2};
use ptatin_la::csr::Csr;
use ptatin_la::par;
use ptatin_la::simd::F64x4;
use ptatin_mesh::StructuredMesh;
use ptatin_prof as prof;

/// The contiguous node-index block that makes up the neighbourhood of one
/// node: origin `(a0, b0, c0)` and extents `(dx, dy, dz)` in node ijk
/// space. Column rank of neighbour `(a,b,c)` is
/// `((c-c0)·dy + (b-b0))·dx + (a-a0)`.
#[derive(Clone, Copy, Debug)]
struct NbrBlock {
    a0: usize,
    b0: usize,
    c0: usize,
    dx: usize,
    dy: usize,
    dz: usize,
}

impl NbrBlock {
    #[inline]
    fn len(&self) -> usize {
        self.dx * self.dy * self.dz
    }

    /// Rank of node `(a, b, c)` inside the block (must be contained).
    #[inline]
    fn rank(&self, a: usize, b: usize, c: usize) -> usize {
        ((c - self.c0) * self.dy + (b - self.b0)) * self.dx + (a - self.a0)
    }
}

/// 1-D extent of the elements containing node index `i` on an axis with
/// `m` elements: node range `[2·e_lo, 2·e_hi + 2]`.
#[inline]
fn axis_span(i: usize, m: usize) -> (usize, usize) {
    let e_lo = if i < 2 { 0 } else { (i - 1) / 2 };
    let e_hi = (i / 2).min(m - 1);
    (2 * e_lo, 2 * e_hi + 2 - 2 * e_lo + 1)
}

#[inline]
fn nbr_block(mesh: &StructuredMesh, i: usize, j: usize, k: usize) -> NbrBlock {
    let (a0, dx) = axis_span(i, mesh.mx);
    let (b0, dy) = axis_span(j, mesh.my);
    let (c0, dz) = axis_span(k, mesh.mz);
    NbrBlock {
        a0,
        b0,
        c0,
        dx,
        dy,
        dz,
    }
}

/// Frozen sparsity pattern of the global viscous block `J_uu` plus the
/// closed-form scatter addressing for its numeric phase.
pub struct ViscousPattern {
    nu: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl ViscousPattern {
    /// Symbolic phase: derive the full node-adjacency pattern of the mesh.
    /// Runs once per mesh (coefficient updates reuse it), so a serial,
    /// allocation-heavy construction is fine here.
    pub fn build(mesh: &StructuredMesh) -> Self {
        let nu = num_velocity_dofs(mesh);
        let (nx, ny, nz) = mesh.node_dims();
        // ALLOC-OK: symbolic phase, runs once per mesh; coefficient
        // reassembly reuses the stored pattern (see `reassemble_into`).
        let mut indptr = vec![0usize; nu + 1];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let n = mesh.node_index(i, j, k);
                    let nnb = nbr_block(mesh, i, j, k).len();
                    for r in 0..3 {
                        indptr[3 * n + r + 1] = 3 * nnb;
                    }
                }
            }
        }
        for r in 0..nu {
            indptr[r + 1] += indptr[r];
        }
        // ALLOC-OK: same symbolic phase as `indptr` above.
        let mut indices = vec![0u32; indptr[nu]];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let n = mesh.node_index(i, j, k);
                    let blk = nbr_block(mesh, i, j, k);
                    let row0 = &mut indices[indptr[3 * n]..indptr[3 * n] + 3 * blk.len()];
                    let mut s = 0;
                    for c in blk.c0..blk.c0 + blk.dz {
                        for b in blk.b0..blk.b0 + blk.dy {
                            for a in blk.a0..blk.a0 + blk.dx {
                                let nb = mesh.node_index(a, b, c) as u32;
                                row0[s] = 3 * nb;
                                row0[s + 1] = 3 * nb + 1;
                                row0[s + 2] = 3 * nb + 2;
                                s += 3;
                            }
                        }
                    }
                    // Rows 3n+1 and 3n+2 share the column structure of 3n.
                    let (head, tail) = indices.split_at_mut(indptr[3 * n + 1]);
                    let src = &head[indptr[3 * n]..];
                    tail[..src.len()].copy_from_slice(src);
                    tail[src.len()..2 * src.len()].copy_from_slice(src);
                }
            }
        }
        Self {
            nu,
            indptr,
            indices,
        }
    }

    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    pub fn nrows(&self) -> usize {
        self.nu
    }

    /// Scatter one element's dense 81×81 matrix (row-major over
    /// `(i,r) × (j,c)`) into the frozen value array. Accumulation is
    /// `+=` in the fixed `(i, r, j, c)` loop order — the canonical order
    /// every numeric kernel (scalar or batched) must share. Within one
    /// row the 3 consecutive `aj` nodes land on contiguous slots (rank
    /// increments by one along the fastest axis), so the scatter runs as
    /// nine 9-wide contiguous strip adds per (node, row) — every slot
    /// still receives exactly one `+=` in the canonical order, so the
    /// result is bitwise identical to the entry-at-a-time form.
    pub fn scatter_element(&self, mesh: &StructuredMesh, e: usize, ae: &[f64], values: &mut [f64]) {
        debug_assert_eq!(ae.len(), (3 * NQ2) * (3 * NQ2));
        debug_assert_eq!(values.len(), self.nnz());
        let (ei, ej, ek) = mesh.element_ijk(e);
        let (i0, j0, k0) = (2 * ei, 2 * ej, 2 * ek);
        let mut li = 0;
        for ci in 0..3 {
            for bi in 0..3 {
                for ai in 0..3 {
                    let gi = mesh.node_index(i0 + ai, j0 + bi, k0 + ci);
                    let blk = nbr_block(mesh, i0 + ai, j0 + bi, k0 + ci);
                    // Strip origins: slot offset of (aj = 0, comp = 0) for
                    // each of the 9 (cj, bj) node rows of the element.
                    let mut strip = [0usize; 9];
                    for cj in 0..3 {
                        for bj in 0..3 {
                            strip[3 * cj + bj] = 3 * blk.rank(i0, j0 + bj, k0 + cj);
                        }
                    }
                    for r in 0..3 {
                        let base = self.indptr[3 * gi + r];
                        let arow = &ae[(3 * li + r) * (3 * NQ2)..(3 * li + r + 1) * (3 * NQ2)];
                        for (s, &off) in strip.iter().enumerate() {
                            let dst = &mut values[base + off..base + off + 9];
                            let src = &arow[9 * s..9 * s + 9];
                            for t in 0..9 {
                                dst[t] += src[t];
                            }
                        }
                    }
                    li += 1;
                }
            }
        }
    }

    /// Scatter a lane group of up to 4 consecutive elements
    /// (`e0 .. e0+nreal`) whose 81×81 matrices are stored lane-major
    /// (`ae_lane[k].0[l]` is entry `k` of element `e0+l`). Per element
    /// this performs the exact `+=` sequence of [`Self::scatter_element`],
    /// so the batched numeric phase lands bit-for-bit on the scalar one.
    pub fn scatter_lane(
        &self,
        mesh: &StructuredMesh,
        e0: usize,
        nreal: usize,
        ae_lane: &[F64x4],
        values: &mut [f64],
    ) {
        debug_assert_eq!(ae_lane.len(), (3 * NQ2) * (3 * NQ2));
        for l in 0..nreal {
            let e = e0 + l;
            let (ei, ej, ek) = mesh.element_ijk(e);
            let (i0, j0, k0) = (2 * ei, 2 * ej, 2 * ek);
            let mut li = 0;
            for ci in 0..3 {
                for bi in 0..3 {
                    for ai in 0..3 {
                        let gi = mesh.node_index(i0 + ai, j0 + bi, k0 + ci);
                        let blk = nbr_block(mesh, i0 + ai, j0 + bi, k0 + ci);
                        // Same 9-wide contiguous strips as
                        // [`Self::scatter_element`] — see the bitwise
                        // argument there.
                        let mut strip = [0usize; 9];
                        for cj in 0..3 {
                            for bj in 0..3 {
                                strip[3 * cj + bj] = 3 * blk.rank(i0, j0 + bj, k0 + cj);
                            }
                        }
                        for r in 0..3 {
                            let base = self.indptr[3 * gi + r];
                            let arow =
                                &ae_lane[(3 * li + r) * (3 * NQ2)..(3 * li + r + 1) * (3 * NQ2)];
                            for (s, &off) in strip.iter().enumerate() {
                                let dst = &mut values[base + off..base + off + 9];
                                let src = &arow[9 * s..9 * s + 9];
                                for t in 0..9 {
                                    dst[t] += src[t].0[l];
                                }
                            }
                        }
                        li += 1;
                    }
                }
            }
        }
    }

    /// Numeric phase, scalar element kernels: element matrices of a batch
    /// in parallel scratch, then serial in-order scatter. `scratch` is
    /// reused across calls (grown once, never shrunk).
    pub fn numeric_scalar_into(
        &self,
        mesh: &StructuredMesh,
        tables: &Q2QuadTables,
        eta: &[f64],
        scratch: &mut Vec<f64>,
        values: &mut [f64],
    ) {
        let nqp = tables.nqp();
        let ne = mesh.num_elements();
        assert_eq!(eta.len(), ne * nqp);
        assert_eq!(values.len(), self.nnz());
        values.fill(0.0);
        let bs = (3 * NQ2) * (3 * NQ2);
        scratch.resize(ASSEMBLY_BATCH.min(ne.max(1)) * bs, 0.0);
        let mut e0 = 0;
        while e0 < ne {
            let bl = ASSEMBLY_BATCH.min(ne - e0);
            let batch = &mut scratch[..bl * bs];
            par::par_blocks_mut(batch, bs, |bi, ae| {
                let e = e0 + bi;
                let corners = mesh.element_corner_coords(e);
                element_viscous_matrix_into(tables, &corners, &eta[e * nqp..(e + 1) * nqp], ae);
            });
            for bi in 0..bl {
                self.scatter_element(mesh, e0 + bi, &batch[bi * bs..(bi + 1) * bs], values);
            }
            e0 += bl;
        }
    }

    /// Freeze into a [`Csr`] (validating construction — used for the first
    /// assembly; re-assembly updates `a.values` in place).
    pub fn into_csr(self, values: Vec<f64>) -> Csr {
        Csr::from_raw(self.nu, self.nu, self.indptr, self.indices, values)
    }

    /// Borrowed variant of [`Self::into_csr`] for patterns that stay
    /// cached across solver rebuilds.
    pub fn to_csr(&self, values: Vec<f64>) -> Csr {
        Csr::from_raw(
            self.nu,
            self.nu,
            self.indptr.clone(),
            self.indices.clone(),
            values,
        )
    }

    /// In-place numeric re-assembly of a matrix previously produced from
    /// this pattern: bitwise identical to a fresh
    /// `ViscousPattern::build + numeric` pass, at a fraction of the cost.
    pub fn reassemble_into(
        &self,
        mesh: &StructuredMesh,
        tables: &Q2QuadTables,
        eta: &[f64],
        scratch: &mut Vec<f64>,
        a: &mut Csr,
    ) {
        let _s = prof::scope("fem.reassemble_viscous");
        assert_eq!(
            a.nnz(),
            self.nnz(),
            "matrix was not built from this pattern"
        );
        assert_eq!(a.nrows(), self.nu);
        // Split borrow: values out of the Csr, pattern arrays from self.
        let mut values = std::mem::take(&mut a.values);
        self.numeric_scalar_into(mesh, tables, eta, scratch, &mut values);
        a.values = values;
    }
}

/// The gradient block `J_pu` needs no stored pattern at all: row
/// `NP1·e + m` couples exactly the 81 velocity dofs of element `e`, and
/// `element_nodes` enumerates nodes in ascending global order, so the
/// CSR row is `[3·n₀, 3·n₀+1, …]` with uniform length `3·NQ2`.
pub fn gradient_pattern_csr(mesh: &StructuredMesh) -> (Vec<usize>, Vec<u32>) {
    let ne = mesh.num_elements();
    let np = NP1 * ne;
    let row_len = 3 * NQ2;
    let indptr: Vec<usize> = (0..=np).map(|r| r * row_len).collect();
    // ALLOC-OK: symbolic gradient pattern, built once per mesh and
    // cached by the callers that assemble repeatedly.
    let mut indices = vec![0u32; np * row_len];
    for e in 0..ne {
        let nodes = mesh.element_nodes(e);
        let row = &mut indices[NP1 * e * row_len..(NP1 * e + 1) * row_len];
        for (j, &n) in nodes.iter().enumerate() {
            for c in 0..3 {
                row[3 * j + c] = (3 * n + c) as u32;
            }
        }
        let (head, tail) = indices.split_at_mut((NP1 * e + 1) * row_len);
        let src = &head[NP1 * e * row_len..];
        for m in 0..NP1 - 1 {
            tail[m * row_len..(m + 1) * row_len].copy_from_slice(src);
        }
    }
    (indptr, indices)
}

/// 1-D extent of the corner-grid neighbourhood of corner `i` on an axis
/// with `n` corners: `(first, count)` of `[i-1, i+1]` clipped to the grid.
#[inline]
fn corner_span(i: usize, n: usize) -> (usize, usize) {
    let lo = i.saturating_sub(1);
    (lo, (i + 1).min(n - 1) - lo + 1)
}

/// Frozen sparsity pattern of the Galerkin coarse operator `Pᵀ A P` when
/// `P` is the embedded-trilinear transfer of `ptatin_mesh::hierarchy`:
/// the product then *is* the Q1 (8-node) viscous stiffness matrix on the
/// fine mesh's corner grid, which is the coarse mesh's Q2 node grid
/// (DESIGN.md §4). Topology only — fine mesh dimensions plus the coarse
/// Dirichlet mask.
///
/// The pattern is what the sparse triple product leaves behind, so the
/// coarse solvers (ILU(0) fill, SA-AMG strength graph) see the structure
/// they always did: a free row holds the full 27-corner × 3-component
/// block of its neighbourhood in ascending column order, with explicit
/// zeros in constrained columns; a constrained row holds its unit
/// diagonal and nothing else.
pub struct GalerkinQ1Pattern {
    n: usize,
    /// Corner-grid dimensions of the fine mesh.
    dims: (usize, usize, usize),
    indptr: Vec<usize>,
    indices: Vec<u32>,
    /// Coarse Dirichlet mask (true = row reduced to its diagonal).
    constrained: Vec<bool>,
    /// Value slots of free rows that sit in a constrained column.
    zero_slots: Vec<usize>,
}

impl GalerkinQ1Pattern {
    /// Symbolic phase for the corner grid of `fine` and the Dirichlet mask
    /// over the `3 × corners` coarse dofs.
    pub fn build(fine: &StructuredMesh, coarse_mask: &[bool]) -> Self {
        let dims = fine.corner_dims();
        let (cx, cy, cz) = dims;
        let n = 3 * fine.num_corners();
        assert_eq!(coarse_mask.len(), n, "mask is not over the corner grid");
        // Symbolic phase, once per (mesh topology, bc) pair.
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices: Vec<u32> = Vec::new();
        let mut zero_slots = Vec::new();
        indptr.push(0usize);
        for k in 0..cz {
            let (c0, dz) = corner_span(k, cz);
            for j in 0..cy {
                let (b0, dy) = corner_span(j, cy);
                for i in 0..cx {
                    let (a0, dx) = corner_span(i, cx);
                    let node = fine.corner_index(i, j, k);
                    for r in 0..3 {
                        let row = 3 * node + r;
                        if coarse_mask[row] {
                            indices.push(row as u32);
                        } else {
                            for c in c0..c0 + dz {
                                for b in b0..b0 + dy {
                                    for a in a0..a0 + dx {
                                        let col0 = 3 * fine.corner_index(a, b, c);
                                        for comp in 0..3 {
                                            if coarse_mask[col0 + comp] {
                                                zero_slots.push(indices.len());
                                            }
                                            indices.push((col0 + comp) as u32);
                                        }
                                    }
                                }
                            }
                        }
                        indptr.push(indices.len());
                    }
                }
            }
        }
        Self {
            n,
            dims,
            indptr,
            indices,
            constrained: coarse_mask.to_vec(),
            zero_slots,
        }
    }

    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Scatter a lane group of up to 4 consecutive fine elements
    /// (`e0 .. e0+nreal`) whose 24×24 Q1 matrices are stored lane-major,
    /// row-major over `(corner, component)²` with corners x-fastest.
    /// Accumulation is `+=` in ascending element order and the fixed
    /// `(corner, component)` loop order below; constrained rows are
    /// skipped (their diagonal is set by [`Self::finish_constraints`]).
    /// Along x the two corners of an element sit on adjacent slots, so
    /// each row receives four 6-wide contiguous strips.
    pub fn scatter_lane(
        &self,
        fine: &StructuredMesh,
        e0: usize,
        nreal: usize,
        ae_lane: &[F64x4],
        values: &mut [f64],
    ) {
        const W: usize = 3 * NQ1;
        debug_assert_eq!(ae_lane.len(), W * W);
        debug_assert_eq!(values.len(), self.nnz());
        let (cx, cy, cz) = self.dims;
        for l in 0..nreal {
            let (ei, ej, ek) = fine.element_ijk(e0 + l);
            for li in 0..NQ1 {
                let (i, j, k) = (ei + (li & 1), ej + ((li >> 1) & 1), ek + (li >> 2));
                let (a0, dx) = corner_span(i, cx);
                let (b0, dy) = corner_span(j, cy);
                let (c0, _) = corner_span(k, cz);
                let node = fine.corner_index(i, j, k);
                // Slot offset of the x-low corner of each (y, z) corner
                // pair of the element inside this row's neighbour block.
                let mut strip = [0usize; 4];
                for (s, off) in strip.iter_mut().enumerate() {
                    let (b, c) = (ej + (s & 1), ek + (s >> 1));
                    *off = 3 * (((c - c0) * dy + (b - b0)) * dx + (ei - a0));
                }
                for r in 0..3 {
                    let row = 3 * node + r;
                    if self.constrained[row] {
                        continue;
                    }
                    let base = self.indptr[row];
                    let arow = &ae_lane[(3 * li + r) * W..(3 * li + r + 1) * W];
                    for (s, &off) in strip.iter().enumerate() {
                        let dst = &mut values[base + off..base + off + 6];
                        let src = &arow[6 * s..6 * s + 6];
                        for t in 0..6 {
                            dst[t] += src[t].0[l];
                        }
                    }
                }
            }
        }
    }

    /// After the last scatter: unit diagonal on constrained rows, exact
    /// zeros in constrained columns of free rows.
    pub fn finish_constraints(&self, values: &mut [f64]) {
        for (row, &m) in self.constrained.iter().enumerate() {
            if m {
                values[self.indptr[row]] = 1.0;
            }
        }
        for &s in &self.zero_slots {
            values[s] = 0.0;
        }
    }

    /// Freeze a value array into a [`Csr`]; the pattern stays cached.
    pub fn to_csr(&self, values: Vec<f64>) -> Csr {
        Csr::from_raw(
            self.n,
            self.n,
            self.indptr.clone(),
            self.indices.clone(),
            values,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble_viscous;

    fn mesh(mx: usize, my: usize, mz: usize) -> StructuredMesh {
        let mut m = StructuredMesh::new_box(mx, my, mz, [0.0, 1.3], [0.0, 0.9], [0.0, 1.1]);
        m.deform(|c| {
            [
                c[0] + 0.04 * c[1] * c[2],
                c[1] - 0.03 * c[0],
                c[2] + 0.02 * c[0] * c[1],
            ]
        });
        m
    }

    #[test]
    fn pattern_matches_builder_adjacency() {
        // Full adjacency pattern: every builder entry exists in the frozen
        // pattern and carries the same value (the frozen pattern may hold
        // extra explicit zeros where all contributions cancelled exactly).
        let tables = Q2QuadTables::standard();
        let m = mesh(2, 3, 2);
        let eta: Vec<f64> = (0..m.num_elements() * tables.nqp())
            .map(|i| 1.0 + 0.1 * (i % 7) as f64)
            .collect();
        let a = assemble_viscous(&m, &tables, &eta);
        let pat = ViscousPattern::build(&m);
        let mut values = vec![0.0; pat.nnz()];
        let mut scratch = Vec::new();
        pat.numeric_scalar_into(&m, &tables, &eta, &mut scratch, &mut values);
        let b = pat.into_csr(values);
        assert_eq!(a.nrows(), b.nrows());
        assert!(a.nnz() <= b.nnz());
        assert!(a.diff_norm(&b) < 1e-11, "{}", a.diff_norm(&b));
    }

    #[test]
    fn reassembly_bitwise_equals_fresh() {
        let tables = Q2QuadTables::standard();
        let m = mesh(3, 2, 2);
        let nqp = tables.nqp();
        let ne = m.num_elements();
        let eta1: Vec<f64> = (0..ne * nqp).map(|i| 1.0 + (i % 5) as f64).collect();
        let eta2: Vec<f64> = (0..ne * nqp)
            .map(|i| 10f64.powi((i % 7) as i32 - 3))
            .collect();
        let pat = ViscousPattern::build(&m);
        let mut scratch = Vec::new();
        let mut v1 = vec![0.0; pat.nnz()];
        pat.numeric_scalar_into(&m, &tables, &eta1, &mut scratch, &mut v1);
        let mut a = pat.to_csr(v1);
        // Update coefficients in place…
        pat.reassemble_into(&m, &tables, &eta2, &mut scratch, &mut a);
        // …and compare against a from-scratch build at eta2.
        let pat2 = ViscousPattern::build(&m);
        let mut v2 = vec![0.0; pat2.nnz()];
        pat2.numeric_scalar_into(&m, &tables, &eta2, &mut scratch, &mut v2);
        assert_eq!(a.values.len(), v2.len());
        for (x, y) in a.values.iter().zip(&v2) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gradient_pattern_covers_element_nodes() {
        let m = mesh(2, 2, 3);
        let (indptr, indices) = gradient_pattern_csr(&m);
        assert_eq!(indptr.len(), NP1 * m.num_elements() + 1);
        for e in 0..m.num_elements() {
            let nodes = m.element_nodes(e);
            for mm in 0..NP1 {
                let r = NP1 * e + mm;
                let row = &indices[indptr[r]..indptr[r + 1]];
                assert_eq!(row.len(), 3 * NQ2);
                assert!(row.windows(2).all(|w| w[0] < w[1]), "row not sorted");
                for (j, &n) in nodes.iter().enumerate() {
                    assert_eq!(row[3 * j] as usize, 3 * n);
                }
            }
        }
    }
}
