//! Point location on the (deformed) structured mesh: returns the owning
//! element and local coordinate ξ — the routine of §II-D ("a point location
//! routine that simultaneously returns the local element index containing
//! the material point and its local coordinate ξ").
//!
//! Strategy: start from a hint element (the previous owner), Newton-invert
//! the trilinear map; if ξ falls outside the reference cube, walk to the
//! neighbour suggested by the largest overshooting component. A uniform
//! background grid over element bounding boxes provides hints for points
//! with no history and a fallback when walking stalls.

use ptatin_fem::geometry::{inverse_map, xi_inside};
use ptatin_mesh::StructuredMesh;

/// Containment tolerance in reference coordinates.
pub const XI_TOL: f64 = 1e-10;

/// Uniform-grid accelerator over element bounding boxes.
pub struct ElementLocator {
    lo: [f64; 3],
    inv_h: [f64; 3],
    dims: [usize; 3],
    /// Candidate elements of background cell `c`, ascending:
    /// `ids[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl ElementLocator {
    /// Build with roughly one background cell per element.
    pub fn new(mesh: &StructuredMesh) -> Self {
        let (lo, hi) = mesh.bounding_box();
        let dims = [mesh.mx.max(1), mesh.my.max(1), mesh.mz.max(1)];
        let mut inv_h = [0.0; 3];
        for d in 0..3 {
            let ext = (hi[d] - lo[d]).max(1e-300);
            inv_h[d] = dims[d] as f64 / ext;
        }
        // Background-cell box covered by each element's bounding box.
        let cell_box = |e: usize| {
            let corners = mesh.element_corner_coords(e);
            let mut blo = [f64::INFINITY; 3];
            let mut bhi = [f64::NEG_INFINITY; 3];
            for c in &corners {
                for d in 0..3 {
                    blo[d] = blo[d].min(c[d]);
                    bhi[d] = bhi[d].max(c[d]);
                }
            }
            let mut cl = [0usize; 3];
            let mut ch = [0usize; 3];
            for d in 0..3 {
                cl[d] = (((blo[d] - lo[d]) * inv_h[d]).floor().max(0.0) as usize).min(dims[d] - 1);
                ch[d] = (((bhi[d] - lo[d]) * inv_h[d]).floor().max(0.0) as usize).min(dims[d] - 1);
            }
            (cl, ch)
        };
        let for_each_cell = |(cl, ch): ([usize; 3], [usize; 3]), f: &mut dyn FnMut(usize)| {
            for ck in cl[2]..=ch[2] {
                for cj in cl[1]..=ch[1] {
                    for ci in cl[0]..=ch[0] {
                        f(ci + dims[0] * (cj + dims[1] * ck));
                    }
                }
            }
        };
        // Counting sort by cell, elements ascending within a cell.
        let boxes: Vec<_> = (0..mesh.num_elements()).map(cell_box).collect();
        let mut offsets = vec![0u32; dims[0] * dims[1] * dims[2] + 1];
        for &b in &boxes {
            for_each_cell(b, &mut |c| offsets[c + 1] += 1);
        }
        for c in 1..offsets.len() {
            offsets[c] += offsets[c - 1];
        }
        let mut next = offsets.clone();
        let mut ids = vec![0u32; offsets[offsets.len() - 1] as usize];
        for (e, &b) in boxes.iter().enumerate() {
            for_each_cell(b, &mut |c| {
                ids[next[c] as usize] = e as u32;
                next[c] += 1;
            });
        }
        Self {
            lo,
            inv_h,
            dims,
            offsets,
            ids,
        }
    }

    /// Candidate elements whose bounding boxes cover `x`.
    pub fn candidates(&self, x: [f64; 3]) -> &[u32] {
        let mut c = [0usize; 3];
        for d in 0..3 {
            let f = (x[d] - self.lo[d]) * self.inv_h[d];
            if f < 0.0 || f >= self.dims[d] as f64 + 1.0 {
                return &[];
            }
            c[d] = (f.floor() as usize).min(self.dims[d] - 1);
        }
        let cell = c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2]);
        &self.ids[self.offsets[cell] as usize..self.offsets[cell + 1] as usize]
    }
}

/// Newton tolerance and iteration cap of every inversion in point
/// location (the lane-batched first attempt in `advect` included).
pub(crate) const NEWTON_TOL: f64 = 1e-12;
pub(crate) const NEWTON_MAX_IT: usize = 30;

/// Newton-invert the trilinear map of element `e` at `x`.
fn invert_in(mesh: &StructuredMesh, e: usize, x: [f64; 3]) -> Option<[f64; 3]> {
    inverse_map(&mesh.element_corner_coords(e), x, NEWTON_TOL, NEWTON_MAX_IT)
}

/// Walk from `hint` towards `x`, stepping to the neighbour indicated by the
/// largest out-of-range ξ component. Returns `(element, ξ)` on success.
pub fn locate_walk(
    mesh: &StructuredMesh,
    x: [f64; 3],
    hint: usize,
    max_steps: usize,
) -> Option<(usize, [f64; 3])> {
    if max_steps == 0 {
        return None;
    }
    let e = hint.min(mesh.num_elements() - 1);
    walk_from(mesh, x, e, invert_in(mesh, e, x), max_steps)
}

/// The walk, given the Newton inversion `newton` on its first element `e`
/// (`None` = did not converge, which ends the walk).
fn walk_from(
    mesh: &StructuredMesh,
    x: [f64; 3],
    mut e: usize,
    mut newton: Option<[f64; 3]>,
    max_steps: usize,
) -> Option<(usize, [f64; 3])> {
    for step in 1..=max_steps {
        let xi = newton?;
        if xi_inside(xi, XI_TOL) {
            return Some((e, xi));
        }
        // Step towards the worst direction.
        let (mut ei, mut ej, mut ek) = mesh.element_ijk(e);
        let mut worst = 0usize;
        let mut worst_amt = 0.0f64;
        for d in 0..3 {
            let amt = (xi[d].abs() - 1.0).max(0.0);
            if amt > worst_amt {
                worst_amt = amt;
                worst = d;
            }
        }
        if worst_amt == 0.0 {
            return Some((e, xi));
        }
        let dir = xi[worst].signum() as i64;
        let coords = [&mut ei, &mut ej, &mut ek];
        let lims = [mesh.mx, mesh.my, mesh.mz];
        let cur = *coords[worst] as i64 + dir;
        if cur < 0 || cur as usize >= lims[worst] {
            return None; // walked off the domain
        }
        *coords[worst] = cur as usize;
        e = mesh.element_index(ei, ej, ek);
        if step < max_steps {
            newton = invert_in(mesh, e, x);
        }
    }
    None
}

/// Hint-walk length of [`locate_point`].
const WALK_STEPS: usize = 8;

/// Full location: hint walk first, then the background-grid candidates.
pub fn locate_point(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    x: [f64; 3],
    hint: Option<usize>,
) -> Option<(usize, [f64; 3])> {
    hint.and_then(|h| locate_walk(mesh, x, h, WALK_STEPS))
        .or_else(|| locate_in_candidates(mesh, locator, x))
}

/// [`locate_point`] with hint `e` for a caller that already holds the
/// Newton inversion on `e` (`None` = did not converge): the same search,
/// minus that first inversion.
pub(crate) fn locate_point_from(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    x: [f64; 3],
    e: usize,
    newton: Option<[f64; 3]>,
) -> Option<(usize, [f64; 3])> {
    walk_from(mesh, x, e, newton, WALK_STEPS).or_else(|| locate_in_candidates(mesh, locator, x))
}

fn locate_in_candidates(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    x: [f64; 3],
) -> Option<(usize, [f64; 3])> {
    locator.candidates(x).iter().find_map(|&e| {
        let xi = invert_in(mesh, e as usize, x)?;
        xi_inside(xi, XI_TOL).then_some((e as usize, xi))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptatin_fem::geometry::map_to_physical;

    fn deformed_mesh() -> StructuredMesh {
        let mut m = StructuredMesh::new_box(4, 3, 2, [0.0, 2.0], [0.0, 1.5], [0.0, 1.0]);
        m.deform(|c| {
            [
                c[0] + 0.05 * (c[1] * 4.0).sin(),
                c[1] + 0.04 * c[0] * (1.0 - c[2]),
                c[2] + 0.03 * (c[0] * 2.0).cos(),
            ]
        });
        m
    }

    #[test]
    fn roundtrip_all_elements() {
        let mesh = deformed_mesh();
        let locator = ElementLocator::new(&mesh);
        for e in 0..mesh.num_elements() {
            let corners = mesh.element_corner_coords(e);
            for &xi in &[[0.0, 0.0, 0.0], [0.5, -0.5, 0.3], [-0.9, 0.9, -0.9]] {
                let x = map_to_physical(&corners, xi);
                let (found_e, found_xi) =
                    locate_point(&mesh, &locator, x, None).expect("point must be found");
                // May land in a neighbouring element for face points; check
                // the physical position is reproduced regardless.
                let fc = mesh.element_corner_coords(found_e);
                let back = map_to_physical(&fc, found_xi);
                for d in 0..3 {
                    assert!((back[d] - x[d]).abs() < 1e-9);
                }
                if xi.iter().all(|v| v.abs() < 0.95) {
                    assert_eq!(found_e, e, "interior point found in wrong element");
                }
            }
        }
    }

    #[test]
    fn hint_walk_finds_neighbours() {
        let mesh = deformed_mesh();
        // Point in element (3,2,1) walked from hint 0.
        let target = mesh.element_index(3, 2, 1);
        let corners = mesh.element_corner_coords(target);
        let x = map_to_physical(&corners, [0.1, 0.2, -0.1]);
        let (e, _) = locate_walk(&mesh, x, 0, 20).expect("walk succeeds");
        assert_eq!(e, target);
    }

    #[test]
    fn outside_point_is_none() {
        let mesh = deformed_mesh();
        let locator = ElementLocator::new(&mesh);
        assert!(locate_point(&mesh, &locator, [10.0, 10.0, 10.0], Some(0)).is_none());
        assert!(locate_point(&mesh, &locator, [-5.0, 0.5, 0.5], None).is_none());
    }

    #[test]
    fn locator_candidates_cover_elements() {
        let mesh = deformed_mesh();
        let locator = ElementLocator::new(&mesh);
        for e in 0..mesh.num_elements() {
            let corners = mesh.element_corner_coords(e);
            let center = map_to_physical(&corners, [0.0, 0.0, 0.0]);
            assert!(
                locator.candidates(center).contains(&(e as u32)),
                "element {e} missing from its own cell"
            );
        }
    }
}
