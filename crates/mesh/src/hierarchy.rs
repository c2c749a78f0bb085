//! Nodally-nested mesh hierarchies and grid-transfer operators.
//!
//! §III-C of the paper: "We utilize nodally nested mesh hierarchies … The
//! prolongation of the velocity field from level k (coarse) to k+1 (fine)
//! uses trilinear interpolation (i.e., associated with an embedded Q1
//! finite element space on the nodes of the Q2 discretization). Restriction
//! is then defined by R = Pᵀ."

use crate::StructuredMesh;
use ptatin_la::csr::Csr;
use ptatin_la::shared::SharedCsr;

/// A multigrid hierarchy of meshes, coarsest first.
pub struct MeshHierarchy {
    /// Meshes ordered coarse → fine; `meshes.last()` is the original mesh.
    pub meshes: Vec<StructuredMesh>,
    /// `prolongations[l]` maps scalar nodal fields from level `l` to level
    /// `l+1`, assembled when first read (the V-cycle runs the transfer as
    /// a stencil, so only reference paths read it). Expand with
    /// [`expand_blocked`] for vector fields.
    pub prolongations: Vec<SharedCsr>,
}

impl MeshHierarchy {
    /// Build `levels` meshes by repeatedly coarsening `fine`.
    ///
    /// Panics if the element counts do not support the requested depth
    /// (check with [`StructuredMesh::supports_levels`]).
    pub fn new(fine: StructuredMesh, levels: usize) -> Self {
        assert!(levels >= 1);
        assert!(
            fine.supports_levels(levels),
            "mesh {}x{}x{} cannot support {} levels",
            fine.mx,
            fine.my,
            fine.mz,
            levels
        );
        let mut meshes = vec![fine];
        for _ in 1..levels {
            // PANIC-OK: `meshes` starts as vec![fine] and only grows.
            let c = meshes.last().unwrap().coarsen();
            meshes.push(c);
        }
        meshes.reverse(); // coarse → fine
        let prolongations = meshes
            .windows(2)
            .map(|pair| {
                let (nc, fine) = (pair[0].num_nodes(), pair[1].node_dims());
                SharedCsr::new(pair[1].num_nodes(), nc, move || {
                    node_grid_prolongation(fine)
                })
            })
            .collect();
        Self {
            meshes,
            prolongations,
        }
    }

    pub fn num_levels(&self) -> usize {
        self.meshes.len()
    }

    /// The finest mesh.
    pub fn finest(&self) -> &StructuredMesh {
        // PANIC-OK: the constructor seeds `meshes` with the fine mesh, so
        // the vector is never empty.
        self.meshes.last().unwrap()
    }

    /// The coarsest mesh.
    pub fn coarsest(&self) -> &StructuredMesh {
        &self.meshes[0]
    }
}

/// Trilinear (embedded-Q1) prolongation between the Q2 *node grids* of a
/// nodally nested coarse/fine mesh pair, for scalar fields.
///
/// Every fine node lies on the coarse node grid (even index) or midway
/// between coarse nodes (odd index); the interpolation weights are the
/// tensor product of 1-D weights `{1}` or `{1/2, 1/2}` — index-space
/// interpolation, independent of the (deformed) physical coordinates,
/// exactly as the nodally-nested scheme of the paper prescribes.
pub fn prolongation_scalar(coarse: &StructuredMesh, fine: &StructuredMesh) -> Csr {
    assert_eq!(fine.mx, 2 * coarse.mx);
    assert_eq!(fine.my, 2 * coarse.my);
    assert_eq!(fine.mz, 2 * coarse.mz);
    node_grid_prolongation(fine.node_dims())
}

/// [`prolongation_scalar`] onto the fine node grid of dimensions
/// `(fnx, fny, fnz)` from the grid it coarsens to.
fn node_grid_prolongation((fnx, fny, fnz): (usize, usize, usize)) -> Csr {
    let (cnx, cny, cnz) = (fnx.div_ceil(2), fny.div_ceil(2), fnz.div_ceil(2));
    let nf = fnx * fny * fnz;
    let nc = cnx * cny * cnz;

    // 1-D stencil for a fine index: list of (coarse index, weight).
    let stencil_1d = |i: usize| -> [(usize, f64); 2] {
        if i % 2 == 0 {
            [(i / 2, 1.0), (0, 0.0)]
        } else {
            [((i - 1) / 2, 0.5), ((i + 1) / 2, 0.5)]
        }
    };
    let npts = |i: usize| if i % 2 == 0 { 1 } else { 2 };

    let mut indptr = Vec::with_capacity(nf + 1);
    let mut indices: Vec<u32> = Vec::with_capacity(nf * 4);
    let mut values: Vec<f64> = Vec::with_capacity(nf * 4);
    indptr.push(0usize);
    for k in 0..fnz {
        let sk = stencil_1d(k);
        for j in 0..fny {
            let sj = stencil_1d(j);
            for i in 0..fnx {
                let si = stencil_1d(i);
                let mut entries: Vec<(u32, f64)> = Vec::with_capacity(8);
                for c in 0..npts(k) {
                    for b in 0..npts(j) {
                        for a in 0..npts(i) {
                            let col = si[a].0 + cnx * (sj[b].0 + cny * sk[c].0);
                            let w = si[a].1 * sj[b].1 * sk[c].1;
                            entries.push((col as u32, w));
                        }
                    }
                }
                entries.sort_unstable_by_key(|&(c, _)| c);
                for (c, w) in entries {
                    indices.push(c);
                    values.push(w);
                }
                indptr.push(indices.len());
            }
        }
    }
    Csr::from_raw(nf, nc, indptr, indices, values)
}

/// Expand a scalar (per-node) sparse operator to act on interleaved
/// `ndof`-component fields: each scalar entry `(i, j, w)` becomes `ndof`
/// entries `(i*ndof + c, j*ndof + c, w)`.
pub fn expand_blocked(p: &Csr, ndof: usize) -> Csr {
    let nrows = p.nrows() * ndof;
    let mut indptr = Vec::with_capacity(nrows + 1);
    let mut indices = Vec::with_capacity(p.nnz() * ndof);
    let mut values = Vec::with_capacity(p.nnz() * ndof);
    indptr.push(0usize);
    for i in 0..p.nrows() {
        let cols = p.row_indices(i);
        let vals = p.row_values(i);
        for c in 0..ndof {
            for (cc, vv) in cols.iter().zip(vals) {
                indices.push(*cc * ndof as u32 + c as u32);
                values.push(*vv);
            }
            indptr.push(indices.len());
        }
    }
    Csr::from_raw(nrows, p.ncols() * ndof, indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box_mesh(m: usize) -> StructuredMesh {
        StructuredMesh::new_box(m, m, m, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
    }

    #[test]
    fn hierarchy_depth_and_order() {
        let h = MeshHierarchy::new(box_mesh(8), 3);
        assert_eq!(h.num_levels(), 3);
        assert_eq!(h.coarsest().mx, 2);
        assert_eq!(h.finest().mx, 8);
        assert_eq!(h.prolongations.len(), 2);
    }

    #[test]
    fn prolongation_rows_sum_to_one() {
        let fine = box_mesh(4);
        let coarse = fine.coarsen();
        let p = prolongation_scalar(&coarse, &fine);
        assert_eq!(p.nrows(), fine.num_nodes());
        assert_eq!(p.ncols(), coarse.num_nodes());
        for i in 0..p.nrows() {
            let s: f64 = p.row_values(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-14, "row {i} sums to {s}");
        }
    }

    #[test]
    fn prolongation_exact_for_linear_fields() {
        // Trilinear interpolation in index space reproduces fields linear
        // in the index coordinates; for a uniform box that equals physical
        // linear fields.
        let fine = box_mesh(4);
        let coarse = fine.coarsen();
        let p = prolongation_scalar(&coarse, &fine);
        let f = |c: [f64; 3]| 1.0 + 2.0 * c[0] - 3.0 * c[1] + 0.5 * c[2];
        let xc: Vec<f64> = coarse.coords.iter().map(|&c| f(c)).collect();
        let mut xf = vec![0.0; fine.num_nodes()];
        p.spmv(&xc, &mut xf);
        for (n, &c) in fine.coords.iter().enumerate() {
            assert!(
                (xf[n] - f(c)).abs() < 1e-13,
                "node {n}: {} vs {}",
                xf[n],
                f(c)
            );
        }
    }

    #[test]
    fn prolongation_injects_at_coincident_nodes() {
        let fine = box_mesh(2);
        let coarse = fine.coarsen();
        let p = prolongation_scalar(&coarse, &fine);
        // Fine node (0,0,0) coincides with coarse node (0,0,0).
        assert_eq!(p.row_indices(0), &[0]);
        assert_eq!(p.row_values(0), &[1.0]);
    }

    #[test]
    fn expand_blocked_preserves_action() {
        let fine = box_mesh(2);
        let coarse = fine.coarsen();
        let p = prolongation_scalar(&coarse, &fine);
        let pb = expand_blocked(&p, 3);
        assert_eq!(pb.nrows(), 3 * p.nrows());
        // Apply blocked P to a 3-component field and compare per component.
        let nc = coarse.num_nodes();
        let xc: Vec<f64> = (0..nc * 3).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut yf = vec![0.0; p.nrows() * 3];
        pb.spmv(&xc, &mut yf);
        for comp in 0..3 {
            let xs: Vec<f64> = (0..nc).map(|n| xc[n * 3 + comp]).collect();
            let mut ys = vec![0.0; p.nrows()];
            p.spmv(&xs, &mut ys);
            for n in 0..p.nrows() {
                assert!((yf[n * 3 + comp] - ys[n]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn restriction_transpose_shape() {
        let fine = box_mesh(4);
        let coarse = fine.coarsen();
        let p = prolongation_scalar(&coarse, &fine);
        let r = p.transpose();
        assert_eq!(r.nrows(), coarse.num_nodes());
        assert_eq!(r.ncols(), fine.num_nodes());
    }
}
