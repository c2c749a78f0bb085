//! Material point advection through the FEM velocity field (Eq. (6):
//! `DΦ/Dt = 0` — lithology rides with the flow).
//!
//! A second-order midpoint (RK2) scheme: interpolate the Q2 velocity at
//! the point, step to the midpoint, re-interpolate, take the full step.
//! Points are relocated after the step; points that exit the domain (e.g.
//! through an outflow boundary) are flagged and can be culled — the
//! behaviour §II-D prescribes ("permits material points to leave the
//! domain if any outflow type boundary conditions are prescribed").

use crate::locate::{locate_point, locate_point_from, ElementLocator, NEWTON_MAX_IT, NEWTON_TOL};
use crate::points::MaterialPoints;
use crate::projection::interpolate_velocity;
use ptatin_la::simd::{self, SimdPath, LANES};
use ptatin_mesh::StructuredMesh;
use ptatin_prof as prof;

/// Outcome of one advection step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdvectionStats {
    /// Points that changed owning element.
    pub relocated: usize,
    /// Points that left the domain (flagged unlocated).
    pub lost: usize,
}

/// Element data for the lane group in flight: corner coordinates for the
/// Newton inverse map and the 27×3 nodal velocities for the Q2
/// interpolation. The swarm is only roughly element-major (swap-removes
/// and relocations mix it), so every lane names its own element; the four
/// slots are a small cache — lanes in one element share a slot, and an
/// element still resident from an earlier group is not reloaded.
struct LaneElements {
    held: [u32; LANES],
    corners: [[[f64; 3]; 8]; LANES],
    nodal: [[f64; 81]; LANES],
}

impl LaneElements {
    fn new() -> Self {
        Self {
            held: [u32::MAX; LANES],
            corners: [[[0.0; 3]; 8]; LANES],
            nodal: [[0.0; 81]; LANES],
        }
    }

    /// Make every lane's element resident; returns the slot holding it.
    /// `velocity = None` skips the nodal gather (location only).
    fn gather(
        &mut self,
        mesh: &StructuredMesh,
        velocity: Option<&[f64]>,
        elements: [u32; LANES],
    ) -> [usize; LANES] {
        let mut slot = [0; LANES];
        for l in 0..LANES {
            let e = elements[l];
            if let Some(s) = self.held.iter().position(|&h| h == e) {
                slot[l] = s;
                continue;
            }
            // Evict a slot no earlier lane of this group points at.
            let s = (0..LANES)
                .find(|s| !slot[..l].contains(s))
                // PANIC-OK: four slots, at most three earlier lanes.
                .expect("a free slot");
            slot[l] = s;
            self.held[s] = e;
            // Nodes are x-fastest: each (b, c) row of the element's 3×3×3
            // block is three consecutive nodes, its ends the corners and
            // its 9 interleaved values already in basis order.
            let (ei, ej, ek) = mesh.element_ijk(e as usize);
            for c in 0..3 {
                for b in 0..3 {
                    let n = mesh.node_index(2 * ei, 2 * ej + b, 2 * ek + c);
                    if b != 1 && c != 1 {
                        let k = b + 2 * c;
                        self.corners[s][k] = mesh.coords[n];
                        self.corners[s][k + 1] = mesh.coords[n + 2];
                    }
                    if let Some(velocity) = velocity {
                        let row = 9 * (b + 3 * c);
                        self.nodal[s][row..row + 9].copy_from_slice(&velocity[3 * n..3 * n + 9]);
                    }
                }
            }
        }
        slot
    }
}

/// The lane group starting at point `p0`: which of its lanes hold a located
/// point, and the point each lane computes on — its own, or the group's
/// first located point for lanes that are unlocated or past the end (their
/// results are discarded). `None` when no lane is located.
fn lane_group(points: &MaterialPoints, p0: usize) -> ([bool; LANES], Option<[usize; LANES]>) {
    let located: [bool; LANES] =
        std::array::from_fn(|l| points.element.get(p0 + l).is_some_and(|&e| e != u32::MAX));
    let src = located
        .iter()
        .position(|&v| v)
        .map(|first| std::array::from_fn(|l| p0 + if located[l] { l } else { first }));
    (located, src)
}

/// Advect all points with velocity `v` (interleaved Q2 nodal field) over
/// `dt` using RK2. Updates positions, owning elements and local
/// coordinates in place.
///
/// Points are processed four per [`simd::F64x4`] lane group in point
/// order: both velocity interpolations and both point locations are first
/// attempted batched on the point's current element; a lane whose midpoint
/// or end point is not inside that element (≈5 % and ≈9 % of points per
/// `swarm_advect` step) continues through the scalar walk of
/// `locate_point`. The kernels repeat the scalar
/// arithmetic operation for operation, so positions, ξ, elements and stats
/// are bitwise identical to [`advect_rk2_scalar`] on both SIMD paths
/// (`tests/mpm_advect_equivalence.rs`).
pub fn advect_rk2(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    points: &mut MaterialPoints,
    velocity: &[f64],
    dt: f64,
) -> AdvectionStats {
    let path = simd::runtime_simd_path();
    advect_rk2_with_path(mesh, locator, points, velocity, dt, path)
}

/// [`advect_rk2`] with an explicit SIMD path (equivalence tests).
pub fn advect_rk2_with_path(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    points: &mut MaterialPoints,
    velocity: &[f64],
    dt: f64,
    path: SimdPath,
) -> AdvectionStats {
    let _s = prof::scope("mpm.advect");
    let mut stats = AdvectionStats::default();
    let mut elems = LaneElements::new();
    let n = points.len();
    for p0 in (0..n).step_by(LANES) {
        let m = (n - p0).min(LANES);
        let (live, src) = lane_group(points, p0);
        stats.lost += (0..m).filter(|&l| !live[l]).count();
        let Some(src) = src else {
            continue;
        };
        let e0 = src.map(|p| points.element[p]);
        let x0 = src.map(|p| points.x[p]);
        let slot = elems.gather(mesh, Some(velocity), e0);
        let corners = slot.map(|s| &elems.corners[s]);
        let nodal = slot.map(|s| &elems.nodal[s]);

        let v1 = simd::q2_interp3_x4(path, &src.map(|p| points.xi[p]), nodal);
        let xmid: [[f64; 3]; LANES] = std::array::from_fn(|l| {
            [
                x0[l][0] + 0.5 * dt * v1[l][0],
                x0[l][1] + 0.5 * dt * v1[l][1],
                x0[l][2] + 0.5 * dt * v1[l][2],
            ]
        });
        let mut xim = [[0.0; 3]; LANES];
        let conv =
            simd::trilinear_inverse_x4(path, corners, &xmid, NEWTON_TOL, NEWTON_MAX_IT, &mut xim);
        let mut v2 = simd::q2_interp3_x4(path, &xim, nodal);
        for l in (0..m).filter(|&l| live[l]) {
            // Midpoint velocity from wherever the midpoint is; the batched
            // value stands when that is still the point's element.
            let hint = e0[l] as usize;
            match locate_point_from(mesh, locator, xmid[l], hint, conv[l].then_some(xim[l])) {
                Some((em, _)) if em == hint => {}
                Some((em, xi)) => v2[l] = interpolate_velocity(mesh, velocity, em, xi),
                // Left the domain (e.g. near a free surface): reuse v1.
                None => v2[l] = v1[l],
            }
        }
        let x1: [[f64; 3]; LANES] = std::array::from_fn(|l| {
            [
                x0[l][0] + dt * v2[l][0],
                x0[l][1] + dt * v2[l][1],
                x0[l][2] + dt * v2[l][2],
            ]
        });
        let mut xi1 = [[0.0; 3]; LANES];
        let conv =
            simd::trilinear_inverse_x4(path, corners, &x1, NEWTON_TOL, NEWTON_MAX_IT, &mut xi1);
        for l in (0..m).filter(|&l| live[l]) {
            let hint = e0[l] as usize;
            let found = locate_point_from(mesh, locator, x1[l], hint, conv[l].then_some(xi1[l]));
            finish_advected(points, p0 + l, x1[l], hint, found, &mut stats);
        }
    }
    stats
}

/// Store the end position of point `p` and where it was found.
fn finish_advected(
    points: &mut MaterialPoints,
    p: usize,
    x1: [f64; 3],
    e0: usize,
    found: Option<(usize, [f64; 3])>,
    stats: &mut AdvectionStats,
) {
    points.x[p] = x1;
    match found {
        Some((e1, xi1)) => {
            points.xi[p] = xi1;
            if e1 != e0 {
                stats.relocated += 1;
            }
            points.element[p] = e1 as u32;
        }
        None => {
            points.element[p] = u32::MAX;
            stats.lost += 1;
        }
    }
}

/// Scalar reference implementation of [`advect_rk2`]: one point at a time
/// through `interpolate_velocity` and `locate_point`. The batched
/// advection is bitwise identical to this (equivalence suite).
pub fn advect_rk2_scalar(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    points: &mut MaterialPoints,
    velocity: &[f64],
    dt: f64,
) -> AdvectionStats {
    let mut stats = AdvectionStats::default();
    for p in 0..points.len() {
        let e0 = points.element[p];
        if e0 == u32::MAX {
            stats.lost += 1;
            continue;
        }
        let e0 = e0 as usize;
        let v1 = interpolate_velocity(mesh, velocity, e0, points.xi[p]);
        let x0 = points.x[p];
        let xmid = [
            x0[0] + 0.5 * dt * v1[0],
            x0[1] + 0.5 * dt * v1[1],
            x0[2] + 0.5 * dt * v1[2],
        ];
        // Midpoint velocity (fall back to v1 if the midpoint left the
        // domain, e.g. near a free surface).
        let v2 = match locate_point(mesh, locator, xmid, Some(e0)) {
            Some((em, xim)) => interpolate_velocity(mesh, velocity, em, xim),
            None => v1,
        };
        let x1 = [x0[0] + dt * v2[0], x0[1] + dt * v2[1], x0[2] + dt * v2[2]];
        let found = locate_point(mesh, locator, x1, Some(e0));
        finish_advected(points, p, x1, e0, found, &mut stats);
    }
    stats
}

/// Re-locate every point against (a possibly remeshed) `mesh` — required
/// after each ALE mesh update, since ξ caches are mesh-dependent.
///
/// Lane-batched like [`advect_rk2`]: points with a cached element try it
/// four at a time, the rest — and every lane the attempt does not place —
/// go through the scalar search. Bitwise identical to
/// [`relocate_all_scalar`].
pub fn relocate_all(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    points: &mut MaterialPoints,
) -> AdvectionStats {
    relocate_all_with_path(mesh, locator, points, simd::runtime_simd_path())
}

/// [`relocate_all`] with an explicit SIMD path (equivalence tests).
pub fn relocate_all_with_path(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    points: &mut MaterialPoints,
    path: SimdPath,
) -> AdvectionStats {
    let _s = prof::scope("mpm.relocate");
    let mut stats = AdvectionStats::default();
    // A cached element is a hint only; `locate_walk` clamps it into the
    // mesh, and so does the batched attempt.
    let last_element = mesh.num_elements().saturating_sub(1) as u32;
    let hint = |e: u32| e.min(last_element);
    let mut elems = LaneElements::new();
    let n = points.len();
    for p0 in (0..n).step_by(LANES) {
        let m = (n - p0).min(LANES);
        let (hinted, src) = lane_group(points, p0);
        let mut conv = [false; LANES];
        let mut xi = [[0.0; 3]; LANES];
        if let Some(src) = src {
            let slot = elems.gather(mesh, None, src.map(|p| hint(points.element[p])));
            let corners = slot.map(|s| &elems.corners[s]);
            let x = src.map(|p| points.x[p]);
            conv =
                simd::trilinear_inverse_x4(path, corners, &x, NEWTON_TOL, NEWTON_MAX_IT, &mut xi);
        }
        for l in 0..m {
            let p = p0 + l;
            let found = if hinted[l] {
                let e = hint(points.element[p]) as usize;
                locate_point_from(mesh, locator, points.x[p], e, conv[l].then_some(xi[l]))
            } else {
                locate_point(mesh, locator, points.x[p], None)
            };
            finish_relocated(points, p, found, &mut stats);
        }
    }
    stats
}

/// Store where point `p` was found.
fn finish_relocated(
    points: &mut MaterialPoints,
    p: usize,
    found: Option<(usize, [f64; 3])>,
    stats: &mut AdvectionStats,
) {
    match found {
        Some((e, xi)) => {
            if points.element[p] != e as u32 {
                stats.relocated += 1;
            }
            points.element[p] = e as u32;
            points.xi[p] = xi;
        }
        None => {
            points.element[p] = u32::MAX;
            stats.lost += 1;
        }
    }
}

/// Scalar reference implementation of [`relocate_all`] (equivalence
/// suite).
pub fn relocate_all_scalar(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    points: &mut MaterialPoints,
) -> AdvectionStats {
    let mut stats = AdvectionStats::default();
    for p in 0..points.len() {
        let hint = match points.element[p] {
            u32::MAX => None,
            e => Some(e as usize),
        };
        let found = locate_point(mesh, locator, points.x[p], hint);
        finish_relocated(points, p, found, &mut stats);
    }
    stats
}

/// Reclaim points flagged unlocated by clamping them back inside the mesh
/// bounding box (shrunk by `eps` times the box extent) and re-locating.
///
/// Appropriate for *closed* boundaries (free-slip walls): a point can only
/// exit through them by time-discretization overshoot, so projecting it
/// back is the physically consistent treatment. Points that still cannot
/// be located stay flagged and can be culled (true outflow). Returns the
/// number of points reclaimed.
pub fn reclaim_lost(
    mesh: &StructuredMesh,
    locator: &ElementLocator,
    points: &mut MaterialPoints,
    eps: f64,
) -> usize {
    let (lo, hi) = mesh.bounding_box();
    let mut margin = [0.0; 3];
    for d in 0..3 {
        margin[d] = eps * (hi[d] - lo[d]);
    }
    let mut reclaimed = 0;
    for p in 0..points.len() {
        if points.element[p] != u32::MAX {
            continue;
        }
        let mut x = points.x[p];
        for d in 0..3 {
            x[d] = x[d].clamp(lo[d] + margin[d], hi[d] - margin[d]);
        }
        if let Some((e, xi)) = locate_point(mesh, locator, x, None) {
            points.x[p] = x;
            points.element[p] = e as u32;
            points.xi[p] = xi;
            reclaimed += 1;
        }
    }
    reclaimed
}

/// Remove all points flagged unlocated; returns how many were culled.
pub fn cull_lost(points: &mut MaterialPoints) -> usize {
    let mut removed = 0;
    let mut i = 0;
    while i < points.len() {
        if points.element[i] == u32::MAX {
            points.swap_remove(i);
            removed += 1;
        } else {
            i += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::seed_regular;
    use ptatin_prng::StdRng;

    fn mesh() -> StructuredMesh {
        StructuredMesh::new_box(4, 4, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
    }

    fn uniform_velocity(mesh: &StructuredMesh, v: [f64; 3]) -> Vec<f64> {
        let mut out = vec![0.0; 3 * mesh.num_nodes()];
        for n in 0..mesh.num_nodes() {
            for d in 0..3 {
                out[3 * n + d] = v[d];
            }
        }
        out
    }

    #[test]
    fn uniform_translation_is_exact() {
        let mesh = mesh();
        let locator = ElementLocator::new(&mesh);
        let mut rng = StdRng::seed_from_u64(11);
        let mut pts = seed_regular(&mesh, 2, 0.0, &mut rng, |_| 0);
        let x_before = pts.x.clone();
        let vel = uniform_velocity(&mesh, [0.05, -0.025, 0.01]);
        let stats = advect_rk2(&mesh, &locator, &mut pts, &vel, 1.0);
        assert_eq!(stats.lost, 0);
        for (p, x0) in x_before.iter().enumerate() {
            assert!((pts.x[p][0] - (x0[0] + 0.05)).abs() < 1e-12);
            assert!((pts.x[p][1] - (x0[1] - 0.025)).abs() < 1e-12);
            assert!((pts.x[p][2] - (x0[2] + 0.01)).abs() < 1e-12);
        }
    }

    #[test]
    fn rk2_second_order_on_rotation() {
        // Rigid rotation about the domain centre in the x-y plane:
        // u = ω × r. The Q2 space represents the linear velocity exactly,
        // so the only error is the RK2 time discretization (O(dt³)/step).
        let mesh = mesh();
        let locator = ElementLocator::new(&mesh);
        let omega = 1.0;
        let mut vel = vec![0.0; 3 * mesh.num_nodes()];
        for (n, c) in mesh.coords.iter().enumerate() {
            vel[3 * n] = -omega * (c[1] - 0.5);
            vel[3 * n + 1] = omega * (c[0] - 0.5);
        }
        let mut pts = MaterialPoints::default();
        pts.push([0.7, 0.5, 0.5], 0, 0.0);
        let _ = relocate_all(&mesh, &locator, &mut pts);
        let dt = 0.05;
        let steps = 20; // total angle = 1 rad
        for _ in 0..steps {
            let s = advect_rk2(&mesh, &locator, &mut pts, &vel, dt);
            assert_eq!(s.lost, 0);
        }
        let theta: f64 = 1.0;
        let expect = [0.5 + 0.2 * theta.cos(), 0.5 + 0.2 * theta.sin(), 0.5];
        let err = ((pts.x[0][0] - expect[0]).powi(2) + (pts.x[0][1] - expect[1]).powi(2)).sqrt();
        assert!(err < 2e-4, "rotation error {err}");
        // Radius preserved to O(dt²) per unit time.
        let r = ((pts.x[0][0] - 0.5).powi(2) + (pts.x[0][1] - 0.5).powi(2)).sqrt();
        assert!((r - 0.2).abs() < 2e-4, "radius drift {}", (r - 0.2).abs());
    }

    #[test]
    fn outflow_loses_points() {
        let mesh = mesh();
        let locator = ElementLocator::new(&mesh);
        let mut pts = MaterialPoints::default();
        pts.push([0.95, 0.5, 0.5], 0, 0.0);
        pts.push([0.05, 0.5, 0.5], 0, 0.0);
        let _ = relocate_all(&mesh, &locator, &mut pts);
        let vel = uniform_velocity(&mesh, [0.2, 0.0, 0.0]);
        let stats = advect_rk2(&mesh, &locator, &mut pts, &vel, 1.0);
        assert_eq!(stats.lost, 1);
        assert_eq!(cull_lost(&mut pts), 1);
        assert_eq!(pts.len(), 1);
        assert!((pts.x[0][0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reclaim_pulls_overshoot_back_inside() {
        let mesh = mesh();
        let locator = ElementLocator::new(&mesh);
        let mut pts = MaterialPoints::default();
        pts.push([1.001, 0.5, 0.5], 0, 0.0); // just past the wall
        pts.push([0.5, -0.02, 0.5], 0, 0.0); // just below the base
        pts.push([5.0, 5.0, 5.0], 0, 0.0); // far outside: stays lost
        let _ = relocate_all(&mesh, &locator, &mut pts);
        assert_eq!(pts.element[0], u32::MAX);
        let n = reclaim_lost(&mesh, &locator, &mut pts, 1e-6);
        assert_eq!(n, 3, "clamping pulls every point to the boundary");
        // Everybody is inside the box afterwards.
        for p in 0..pts.len() {
            assert_ne!(pts.element[p], u32::MAX);
            for d in 0..3 {
                assert!((0.0..=1.0).contains(&pts.x[p][d]));
            }
        }
    }

    #[test]
    fn relocate_after_remesh() {
        let mut mesh = mesh();
        let locator = ElementLocator::new(&mesh);
        let mut rng = StdRng::seed_from_u64(5);
        let mut pts = seed_regular(&mesh, 2, 0.1, &mut rng, |_| 0);
        // Raise the top surface by 10% and remesh.
        let (nx, _, nz) = mesh.node_dims();
        mesh.remesh_vertical(1, &vec![1.1; nx * nz]);
        let locator2 = ElementLocator::new(&mesh);
        let _ = locator;
        let stats = relocate_all(&mesh, &locator2, &mut pts);
        assert_eq!(stats.lost, 0, "all points must survive an upward remesh");
        // ξ caches must be valid: reconstructing positions matches.
        for p in 0..pts.len() {
            let x = crate::projection::point_physical(&mesh, pts.element[p] as usize, pts.xi[p]);
            for d in 0..3 {
                assert!((x[d] - pts.x[p][d]).abs() < 1e-9);
            }
        }
    }
}
