#![forbid(unsafe_code)]

//! `ptatin-mesh` — structured, deformable hexahedral meshes.
//!
//! The paper partitions Ω "using a mesh of structured but deformed
//! hexahedral elements" managed through PETSc's `DMDA`; this crate is that
//! substrate: an IJK-structured grid of Q2 elements whose nodes may sit
//! anywhere in space (boundary-fitted free surfaces), nodally-nested
//! coarsening for geometric multigrid, trilinear prolongation on the Q2
//! node grid, subdomain decomposition, and the ALE vertical remeshing used
//! by the free-surface models.

pub mod decomp;
pub mod hierarchy;

pub use decomp::ElementPartition;
pub use hierarchy::MeshHierarchy;

/// A structured mesh of `mx × my × mz` hexahedral Q2 elements.
///
/// The *node grid* (for Q2 basis functions) has `(2mx+1) × (2my+1) ×
/// (2mz+1)` nodes, indexed x-fastest. Corner (vertex) nodes — the even-index
/// subset — double as the Q1 mesh used for material-point projection and the
/// energy equation.
#[derive(Clone, Debug)]
pub struct StructuredMesh {
    pub mx: usize,
    pub my: usize,
    pub mz: usize,
    /// Node coordinates, `nx*ny*nz` entries, x-fastest ordering.
    pub coords: Vec<[f64; 3]>,
}

/// Can an axis of `m` elements be halved `levels - 1` times and keep at
/// least one element? The rule behind [`StructuredMesh::supports_levels`],
/// for callers that hold a grid size but no mesh yet.
pub fn axis_supports_levels(m: usize, levels: usize) -> bool {
    u32::try_from(levels.saturating_sub(1))
        .ok()
        .and_then(|shift| 1usize.checked_shl(shift))
        .is_some_and(|f| m % f == 0 && m / f >= 1)
}

impl StructuredMesh {
    /// Axis-aligned box `[x0,x1]×[y0,y1]×[z0,z1]` with uniform spacing.
    ///
    /// ```
    /// use ptatin_mesh::StructuredMesh;
    /// let mesh = StructuredMesh::new_box(4, 4, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    /// assert_eq!(mesh.num_elements(), 64);
    /// assert_eq!(mesh.node_dims(), (9, 9, 9)); // Q2 node grid
    /// assert!(mesh.supports_levels(3));        // 4 → 2 → 1 hierarchy
    /// ```
    pub fn new_box(mx: usize, my: usize, mz: usize, x: [f64; 2], y: [f64; 2], z: [f64; 2]) -> Self {
        assert!(mx > 0 && my > 0 && mz > 0);
        let (nx, ny, nz) = (2 * mx + 1, 2 * my + 1, 2 * mz + 1);
        let mut coords = Vec::with_capacity(nx * ny * nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    coords.push([
                        x[0] + (x[1] - x[0]) * i as f64 / (nx - 1) as f64,
                        y[0] + (y[1] - y[0]) * j as f64 / (ny - 1) as f64,
                        z[0] + (z[1] - z[0]) * k as f64 / (nz - 1) as f64,
                    ]);
                }
            }
        }
        Self { mx, my, mz, coords }
    }

    /// Node grid dimensions `(nx, ny, nz)`.
    #[inline]
    pub fn node_dims(&self) -> (usize, usize, usize) {
        (2 * self.mx + 1, 2 * self.my + 1, 2 * self.mz + 1)
    }

    /// Total number of Q2 nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        let (nx, ny, nz) = self.node_dims();
        nx * ny * nz
    }

    /// Total number of elements.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.mx * self.my * self.mz
    }

    /// Flat node index of node-grid coordinates `(i, j, k)`.
    #[inline]
    pub fn node_index(&self, i: usize, j: usize, k: usize) -> usize {
        let (nx, ny, _) = self.node_dims();
        i + nx * (j + ny * k)
    }

    /// Inverse of [`node_index`](Self::node_index).
    #[inline]
    pub fn node_ijk(&self, n: usize) -> (usize, usize, usize) {
        let (nx, ny, _) = self.node_dims();
        (n % nx, (n / nx) % ny, n / (nx * ny))
    }

    /// Flat element index of element-grid coordinates `(ei, ej, ek)`.
    #[inline]
    pub fn element_index(&self, ei: usize, ej: usize, ek: usize) -> usize {
        ei + self.mx * (ej + self.my * ek)
    }

    /// Inverse of [`element_index`](Self::element_index).
    #[inline]
    pub fn element_ijk(&self, e: usize) -> (usize, usize, usize) {
        (
            e % self.mx,
            (e / self.mx) % self.my,
            e / (self.mx * self.my),
        )
    }

    /// The 27 Q2 node indices of element `e`, ordered x-fastest over the
    /// local `3×3×3` node block (the basis ordering used by `ptatin-fem`).
    pub fn element_nodes(&self, e: usize) -> [usize; 27] {
        let (ei, ej, ek) = self.element_ijk(e);
        let (i0, j0, k0) = (2 * ei, 2 * ej, 2 * ek);
        let mut out = [0usize; 27];
        let mut n = 0;
        for c in 0..3 {
            for b in 0..3 {
                for a in 0..3 {
                    out[n] = self.node_index(i0 + a, j0 + b, k0 + c);
                    n += 1;
                }
            }
        }
        out
    }

    /// The 8 corner-node indices of element `e`, x-fastest over the local
    /// `2×2×2` corner block (the trilinear geometry/Q1 ordering).
    pub fn element_corners(&self, e: usize) -> [usize; 8] {
        let (ei, ej, ek) = self.element_ijk(e);
        let (i0, j0, k0) = (2 * ei, 2 * ej, 2 * ek);
        let mut out = [0usize; 8];
        let mut n = 0;
        for c in 0..2 {
            for b in 0..2 {
                for a in 0..2 {
                    out[n] = self.node_index(i0 + 2 * a, j0 + 2 * b, k0 + 2 * c);
                    n += 1;
                }
            }
        }
        out
    }

    /// Corner coordinates of element `e` (trilinear geometry input).
    pub fn element_corner_coords(&self, e: usize) -> [[f64; 3]; 8] {
        let corners = self.element_corners(e);
        let mut out = [[0.0; 3]; 8];
        for (c, &n) in corners.iter().enumerate() {
            out[c] = self.coords[n];
        }
        out
    }

    // -- Q1 corner (vertex) mesh view -------------------------------------

    /// Corner-grid dimensions `(mx+1, my+1, mz+1)`.
    #[inline]
    pub fn corner_dims(&self) -> (usize, usize, usize) {
        (self.mx + 1, self.my + 1, self.mz + 1)
    }

    /// Number of corner (Q1) nodes.
    #[inline]
    pub fn num_corners(&self) -> usize {
        let (cx, cy, cz) = self.corner_dims();
        cx * cy * cz
    }

    /// Flat corner index for corner-grid coordinates.
    #[inline]
    pub fn corner_index(&self, ci: usize, cj: usize, ck: usize) -> usize {
        let (cx, cy, _) = self.corner_dims();
        ci + cx * (cj + cy * ck)
    }

    /// Q2-node index of a corner node.
    #[inline]
    pub fn corner_to_node(&self, c: usize) -> usize {
        let (cx, cy, _) = self.corner_dims();
        let (ci, cj, ck) = (c % cx, (c / cx) % cy, c / (cx * cy));
        self.node_index(2 * ci, 2 * cj, 2 * ck)
    }

    /// The 8 corner-mesh indices of element `e` (x-fastest).
    pub fn element_corner_ids(&self, e: usize) -> [usize; 8] {
        let (ei, ej, ek) = self.element_ijk(e);
        let mut out = [0usize; 8];
        let mut n = 0;
        for c in 0..2 {
            for b in 0..2 {
                for a in 0..2 {
                    out[n] = self.corner_index(ei + a, ej + b, ek + c);
                    n += 1;
                }
            }
        }
        out
    }

    // -- Boundary queries ---------------------------------------------------

    /// Node indices on the face where node-grid coordinate `axis` equals its
    /// minimum (`min = true`) or maximum.
    pub fn boundary_nodes(&self, axis: usize, min: bool) -> Vec<usize> {
        let (nx, ny, nz) = self.node_dims();
        let dims = [nx, ny, nz];
        let fix = if min { 0 } else { dims[axis] - 1 };
        let mut out = Vec::new();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let ijk = [i, j, k];
                    if ijk[axis] == fix {
                        out.push(self.node_index(i, j, k));
                    }
                }
            }
        }
        out
    }

    /// Is node `n` on the given boundary face?
    pub fn node_on_face(&self, n: usize, axis: usize, min: bool) -> bool {
        let (nx, ny, nz) = self.node_dims();
        let dims = [nx, ny, nz];
        let (i, j, k) = self.node_ijk(n);
        let ijk = [i, j, k];
        if min {
            ijk[axis] == 0
        } else {
            ijk[axis] == dims[axis] - 1
        }
    }

    /// Bounding box of the mesh.
    pub fn bounding_box(&self) -> ([f64; 3], [f64; 3]) {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for c in &self.coords {
            for d in 0..3 {
                lo[d] = lo[d].min(c[d]);
                hi[d] = hi[d].max(c[d]);
            }
        }
        (lo, hi)
    }

    // -- Coarsening -----------------------------------------------------------

    /// Nodally-nested coarse mesh: halves the element count per dimension,
    /// taking coarse node coordinates by injection from the fine node grid
    /// (§III-C: "the geometry of the coarse mesh is trivially defined via
    /// injection"). Requires even element counts.
    pub fn coarsen(&self) -> StructuredMesh {
        assert!(
            self.mx % 2 == 0 && self.my % 2 == 0 && self.mz % 2 == 0,
            "coarsening requires even element counts, got {}x{}x{}",
            self.mx,
            self.my,
            self.mz
        );
        let (cmx, cmy, cmz) = (self.mx / 2, self.my / 2, self.mz / 2);
        let (cnx, cny, cnz) = (2 * cmx + 1, 2 * cmy + 1, 2 * cmz + 1);
        let mut coords = Vec::with_capacity(cnx * cny * cnz);
        for k in 0..cnz {
            for j in 0..cny {
                for i in 0..cnx {
                    coords.push(self.coords[self.node_index(2 * i, 2 * j, 2 * k)]);
                }
            }
        }
        StructuredMesh {
            mx: cmx,
            my: cmy,
            mz: cmz,
            coords,
        }
    }

    /// Can this mesh be coarsened `levels - 1` more times?
    pub fn supports_levels(&self, levels: usize) -> bool {
        [self.mx, self.my, self.mz]
            .into_iter()
            .all(|m| axis_supports_levels(m, levels))
    }

    // -- ALE free-surface remeshing -------------------------------------------

    /// Vertically remesh along `axis`: for every grid column, nodes are
    /// redistributed between the (fixed) bottom node and a new top
    /// coordinate, preserving each node's relative fraction of the column.
    ///
    /// `new_top[column]` is indexed over the node-grid positions of the two
    /// remaining axes, x-fastest (e.g. for `axis = 1`, `column = i + nx*k`).
    pub fn remesh_vertical(&mut self, axis: usize, new_top: &[f64]) {
        let (nx, ny, nz) = self.node_dims();
        let dims = [nx, ny, nz];
        let nv = dims[axis];
        let (a1, a2) = match axis {
            0 => (1, 2),
            1 => (0, 2),
            2 => (0, 1),
            // PANIC-OK: documented caller contract (axis is 0, 1 or 2);
            // an out-of-range axis is a programming error.
            _ => panic!("axis out of range"),
        };
        assert_eq!(new_top.len(), dims[a1] * dims[a2]);
        for c2 in 0..dims[a2] {
            for c1 in 0..dims[a1] {
                let col = c1 + dims[a1] * c2;
                let mut ijk = [0usize; 3];
                ijk[a1] = c1;
                ijk[a2] = c2;
                ijk[axis] = 0;
                let bottom_id = self.node_index(ijk[0], ijk[1], ijk[2]);
                ijk[axis] = nv - 1;
                let top_id = self.node_index(ijk[0], ijk[1], ijk[2]);
                let old_bottom = self.coords[bottom_id][axis];
                let old_top = self.coords[top_id][axis];
                let old_h = old_top - old_bottom;
                let new_h = new_top[col] - old_bottom;
                for v in 0..nv {
                    ijk[axis] = v;
                    let id = self.node_index(ijk[0], ijk[1], ijk[2]);
                    let frac = if old_h != 0.0 {
                        (self.coords[id][axis] - old_bottom) / old_h
                    } else {
                        v as f64 / (nv - 1) as f64
                    };
                    self.coords[id][axis] = old_bottom + frac * new_h;
                }
            }
        }
    }

    /// Apply an arbitrary coordinate mapping (mesh deformation for tests
    /// and deformed-element verification).
    pub fn deform<F: Fn([f64; 3]) -> [f64; 3]>(&mut self, f: F) {
        for c in &mut self.coords {
            *c = f(*c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_mesh_dimensions() {
        let m = StructuredMesh::new_box(2, 3, 4, [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]);
        assert_eq!(m.node_dims(), (5, 7, 9));
        assert_eq!(m.num_nodes(), 5 * 7 * 9);
        assert_eq!(m.num_elements(), 24);
        assert_eq!(m.corner_dims(), (3, 4, 5));
        let (lo, hi) = m.bounding_box();
        assert_eq!(lo, [0.0, 0.0, 0.0]);
        assert_eq!(hi, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn node_index_roundtrip() {
        let m = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        for n in 0..m.num_nodes() {
            let (i, j, k) = m.node_ijk(n);
            assert_eq!(m.node_index(i, j, k), n);
        }
        for e in 0..m.num_elements() {
            let (ei, ej, ek) = m.element_ijk(e);
            assert_eq!(m.element_index(ei, ej, ek), e);
        }
    }

    #[test]
    fn element_nodes_are_local_3x3x3_block() {
        let m = StructuredMesh::new_box(2, 2, 2, [0.0, 2.0], [0.0, 2.0], [0.0, 2.0]);
        let nodes = m.element_nodes(0);
        assert_eq!(nodes[0], 0);
        assert_eq!(nodes[26], m.node_index(2, 2, 2));
        // Neighbouring elements share a face of 9 nodes.
        let right = m.element_nodes(1);
        let shared: Vec<usize> = nodes
            .iter()
            .filter(|n| right.contains(n))
            .copied()
            .collect();
        assert_eq!(shared.len(), 9);
    }

    #[test]
    fn corners_subset_of_nodes() {
        let m = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let nodes = m.element_nodes(0);
        let corners = m.element_corners(0);
        for c in corners {
            assert!(nodes.contains(&c));
        }
        for c in 0..m.num_corners() {
            let n = m.corner_to_node(c);
            let (i, j, k) = m.node_ijk(n);
            assert!(i % 2 == 0 && j % 2 == 0 && k % 2 == 0);
        }
    }

    #[test]
    fn boundary_nodes_counts() {
        let m = StructuredMesh::new_box(2, 3, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let (nx, ny, nz) = m.node_dims();
        assert_eq!(m.boundary_nodes(0, true).len(), ny * nz);
        assert_eq!(m.boundary_nodes(1, false).len(), nx * nz);
        assert_eq!(m.boundary_nodes(2, true).len(), nx * ny);
        for &n in &m.boundary_nodes(0, true) {
            assert!(m.node_on_face(n, 0, true));
            assert!(!m.node_on_face(n, 0, false));
        }
    }

    #[test]
    fn coarsen_injects_geometry() {
        let mut m = StructuredMesh::new_box(4, 4, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        m.deform(|c| [c[0] + 0.01 * (c[1] * 7.0).sin(), c[1], c[2]]);
        let c = m.coarsen();
        assert_eq!(c.mx, 2);
        for k in 0..c.node_dims().2 {
            for j in 0..c.node_dims().1 {
                for i in 0..c.node_dims().0 {
                    let cc = c.coords[c.node_index(i, j, k)];
                    let fc = m.coords[m.node_index(2 * i, 2 * j, 2 * k)];
                    assert_eq!(cc, fc);
                }
            }
        }
    }

    #[test]
    fn supports_levels_logic() {
        let m = StructuredMesh::new_box(8, 8, 8, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        assert!(m.supports_levels(1));
        assert!(m.supports_levels(3));
        assert!(m.supports_levels(4));
        assert!(!m.supports_levels(5));
        let m2 = StructuredMesh::new_box(6, 6, 6, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        assert!(m2.supports_levels(2));
        assert!(!m2.supports_levels(3));
    }

    #[test]
    fn remesh_vertical_scales_columns() {
        let mut m = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let (nx, _, nz) = m.node_dims();
        let new_top = vec![2.0; nx * nz];
        m.remesh_vertical(1, &new_top);
        let (lo, hi) = m.bounding_box();
        assert!((hi[1] - 2.0).abs() < 1e-14);
        assert!((lo[1] - 0.0).abs() < 1e-14);
        let mid = m.coords[m.node_index(0, 2, 0)];
        assert!((mid[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn remesh_preserves_relative_spacing() {
        let mut m = StructuredMesh::new_box(1, 2, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        m.deform(|c| [c[0], c[1] * c[1], c[2]]);
        let (nx, _, nz) = m.node_dims();
        let fracs_before: Vec<f64> = (0..m.node_dims().1)
            .map(|j| m.coords[m.node_index(0, j, 0)][1])
            .collect();
        m.remesh_vertical(1, &vec![3.0; nx * nz]);
        for (j, f) in fracs_before.iter().enumerate() {
            let after = m.coords[m.node_index(0, j, 0)][1];
            assert!((after - 3.0 * f).abs() < 1e-13);
        }
    }
}
