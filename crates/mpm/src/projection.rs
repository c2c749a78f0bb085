//! Local L² projection of material-point properties onto the Q1 corner
//! mesh (Eq. (12) of the paper) and interpolation to quadrature points
//! (Eq. (13)): the bridge between Lagrangian points and the FEM
//! coefficient fields.

use crate::points::MaterialPoints;
use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::basis::q1_basis;
use ptatin_fem::geometry::map_to_physical;
use ptatin_la::par;
use ptatin_la::simd::{self, F64x4, SimdPath, LANES};
use ptatin_mesh::StructuredMesh;
use ptatin_prof as prof;

/// Point count below which the projection scatter runs serially (single
/// accumulation piece). Public so the thread-invariance suite can pin
/// swarms to either side of the seam.
pub const PAR_MIN_POINTS: usize = 1 << 12;

/// Accumulation pieces for swarms at or above [`PAR_MIN_POINTS`]. Fixed —
/// like `Csr::spmv_transpose`'s piece count — so the floating-point
/// combination order is a pure function of the swarm size, never of the
/// thread count: the corner field is bitwise identical at nt = 1, 2, 4, …
/// (Previously the piece count was the thread count itself, so a swarm
/// straddling the threshold changed bits with nt; the regression test
/// `projection_bitwise_across_par_seam` pins the fix.)
const PROJ_PIECES: usize = 8;

/// Project per-point values onto the Q1 corner mesh:
/// `f_i = Σ_p N_i(x_p) f_p / Σ_p N_i(x_p)` over the points in the support
/// of node `i`. Nodes with no nearby points receive `fallback(i)`.
///
/// The scatter races on shared corners, so swarms of [`PAR_MIN_POINTS`] or
/// more accumulate into [`PROJ_PIECES`] per-piece corner buffers combined
/// in fixed piece order (see there for the determinism argument). Within a
/// piece, points are processed 4 per [`F64x4`] lane — the trilinear
/// weights of 4 points at once, whole chunks of lanes per kernel call —
/// but every corner accumulation stays in the scalar one-point-at-a-time
/// order, so the result is bitwise identical to the scalar reference
/// ([`project_to_corners_scalar`]) as well as across SIMD paths and
/// thread counts (equivalence suite).
pub fn project_to_corners<F, G>(
    mesh: &StructuredMesh,
    points: &MaterialPoints,
    value: F,
    fallback: G,
) -> Vec<f64>
where
    F: Fn(usize) -> f64 + Sync,
    G: Fn(usize) -> f64,
{
    project_to_corners_with_path(mesh, points, value, fallback, simd::runtime_simd_path())
}

/// [`project_to_corners`] with an explicit SIMD path (equivalence tests).
pub fn project_to_corners_with_path<F, G>(
    mesh: &StructuredMesh,
    points: &MaterialPoints,
    value: F,
    fallback: G,
    path: SimdPath,
) -> Vec<f64>
where
    F: Fn(usize) -> f64 + Sync,
    G: Fn(usize) -> f64,
{
    // Points per weights-kernel call: one non-inlinable SIMD dispatch
    // amortized over 1024 points (the per-lane call costs more than the
    // Q1 math it vectorizes).
    const CHUNK_LANES: usize = 256;
    let scatter = |range: std::ops::Range<usize>, num: &mut [f64], den: &mut [f64]| {
        // Two chunk-sized lane buffers per piece, reused across the
        // piece's chunks.
        let mut xibuf = vec![F64x4::ZERO; 3 * CHUNK_LANES];
        let mut wbuf = vec![F64x4::ZERO; 8 * CHUNK_LANES];
        let mut c0 = range.start;
        while c0 < range.end {
            let cn = (range.end - c0).min(CHUNK_LANES * LANES);
            let nlanes = cn.div_ceil(LANES);
            // Ghost slots carry ξ = 0; their weights are computed and
            // discarded — no remainder branch in the kernel.
            xibuf[..3 * nlanes].fill(F64x4::ZERO);
            for j in 0..cn {
                let x = points.xi[c0 + j];
                let (l, s) = (j / LANES, j % LANES);
                xibuf[3 * l].0[s] = x[0];
                xibuf[3 * l + 1].0[s] = x[1];
                xibuf[3 * l + 2].0[s] = x[2];
            }
            simd::q1_hat_weights_many(path, &xibuf[..3 * nlanes], &mut wbuf[..8 * nlanes]);
            for l in 0..nlanes {
                let p0 = c0 + l * LANES;
                let m = (c0 + cn - p0).min(LANES);
                let w8 = &wbuf[8 * l..8 * l + 8];
                let e0 = points.element[p0];
                // A uniform lane — 4 located points in one element (the
                // common case for element-major swarms) — amortizes the
                // corner-id lookup over the lane. The four contributions
                // stay four *sequential* adds per corner, exactly the
                // scalar one-point-at-a-time order: collapsing them into
                // a pairwise tree would perturb the corner field by ulps,
                // and downstream consumers make discrete decisions on it
                // (SA-AMG strength-of-connection thresholds over the
                // assembled operator) that bifurcate on the last bit —
                // measured as a 23 → 45 Krylov-iteration flip on the
                // sinker golden. Bitwise-equal-to-scalar is the contract.
                let uniform = m == LANES
                    && e0 != u32::MAX
                    && points.element[p0 + 1] == e0
                    && points.element[p0 + 2] == e0
                    && points.element[p0 + 3] == e0;
                if uniform {
                    let cids = mesh.element_corner_ids(e0 as usize);
                    let v = [value(p0), value(p0 + 1), value(p0 + 2), value(p0 + 3)];
                    for (k, &cid) in cids.iter().enumerate() {
                        let w = &w8[k].0;
                        let mut nacc = num[cid];
                        let mut dacc = den[cid];
                        for j in 0..LANES {
                            nacc += w[j] * v[j];
                            dacc += w[j];
                        }
                        num[cid] = nacc;
                        den[cid] = dacc;
                    }
                } else {
                    for j in 0..m {
                        let e = points.element[p0 + j];
                        if e == u32::MAX {
                            continue; // unlocated point contributes nothing
                        }
                        let cids = mesh.element_corner_ids(e as usize);
                        let v = value(p0 + j);
                        for (k, &cid) in cids.iter().enumerate() {
                            let w = w8[k].0[j];
                            num[cid] += w * v;
                            den[cid] += w;
                        }
                    }
                }
            }
            c0 += cn;
        }
    };
    project_with_scatter(mesh, points.len(), fallback, &scatter)
}

/// Scalar reference implementation of [`project_to_corners`]: one point at
/// a time via `q1_basis`, same piece structure. The batched projection is
/// bitwise identical to this (equivalence tests); it is also the
/// pre-batching baseline timed by the kernel benchmarks.
pub fn project_to_corners_scalar<F, G>(
    mesh: &StructuredMesh,
    points: &MaterialPoints,
    value: F,
    fallback: G,
) -> Vec<f64>
where
    F: Fn(usize) -> f64 + Sync,
    G: Fn(usize) -> f64,
{
    let scatter = |range: std::ops::Range<usize>, num: &mut [f64], den: &mut [f64]| {
        for p in range {
            let e = points.element[p];
            if e == u32::MAX {
                continue; // unlocated point contributes nothing
            }
            let cids = mesh.element_corner_ids(e as usize);
            let w = q1_basis(points.xi[p]);
            let v = value(p);
            for (k, &cid) in cids.iter().enumerate() {
                num[cid] += w[k] * v;
                den[cid] += w[k];
            }
        }
    };
    project_with_scatter(mesh, points.len(), fallback, &scatter)
}

/// Shared piece structure of the projection scatter: serial below
/// [`PAR_MIN_POINTS`], otherwise [`PROJ_PIECES`] fixed pieces combined in
/// piece order (parallel when threads are available — `par_blocks_mut`
/// runs the pieces in order on the caller at nt = 1, so the piece
/// *structure*, and therefore every bit of the result, is independent of
/// the thread count).
fn project_with_scatter<G, S>(
    mesh: &StructuredMesh,
    npts: usize,
    fallback: G,
    scatter: &S,
) -> Vec<f64>
where
    G: Fn(usize) -> f64,
    S: Fn(std::ops::Range<usize>, &mut [f64], &mut [f64]) + Sync,
{
    let _s = prof::scope("mpm.project");
    let nc = mesh.num_corners();
    let mut num = vec![0.0f64; nc];
    let mut den = vec![0.0f64; nc];
    if npts < PAR_MIN_POINTS {
        scatter(0..npts, &mut num, &mut den);
    } else {
        let ranges = par::split_ranges(npts, PROJ_PIECES);
        let npieces = ranges.len();
        // Per-piece [num | den] accumulators, combined in piece order.
        let mut parts = vec![0.0f64; npieces * 2 * nc];
        par::par_blocks_mut(&mut parts, 2 * nc, |pi, acc| {
            let (s, e) = ranges[pi];
            let (pnum, pden) = acc.split_at_mut(nc);
            scatter(s..e, pnum, pden);
        });
        for pi in 0..npieces {
            let base = pi * 2 * nc;
            for i in 0..nc {
                num[i] += parts[base + i];
                den[i] += parts[base + nc + i];
            }
        }
    }
    (0..nc)
        .map(|i| {
            if den[i] > 1e-12 {
                num[i] / den[i]
            } else {
                fallback(i)
            }
        })
        .collect()
}

/// Interpolate a Q1 corner field to the quadrature points of every element
/// (Eq. (13)); output layout matches the coefficient arrays consumed by
/// `ptatin-fem`/`ptatin-ops`: `element × nqp`.
///
/// Elements are processed 4 per [`F64x4`] lane (gather the 8 corner values
/// of 4 elements, interpolate all quadrature points with plain mul/add in
/// ascending corner order) and lanes are distributed over threads. Each
/// output value depends only on its own element, so the result is bitwise
/// identical to the scalar reference at every thread count and on both
/// SIMD paths.
pub fn corners_to_quadrature(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    corner_field: &[f64],
) -> Vec<f64> {
    corners_to_quadrature_with_path(mesh, tables, corner_field, simd::runtime_simd_path())
}

/// [`corners_to_quadrature`] with an explicit SIMD path (equivalence
/// tests).
pub fn corners_to_quadrature_with_path(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    corner_field: &[f64],
    path: SimdPath,
) -> Vec<f64> {
    let _s = prof::scope("mpm.to_qp");
    assert_eq!(corner_field.len(), mesh.num_corners());
    let nqp = tables.nqp();
    assert!(nqp <= MAX_NQP, "quadrature rule exceeds the lane buffer");
    let nel = mesh.num_elements();
    let mut out = vec![0.0; nel * nqp];
    // Q1 basis at the quadrature points, precomputed.
    let basis_at_qp: Vec<[f64; 8]> = tables.quad.points.iter().map(|&p| q1_basis(p)).collect();
    // One block = one lane of 4 elements; blocks are independent.
    par::par_blocks_mut(&mut out, LANES * nqp, |bi, chunk| {
        let e0 = bi * LANES;
        let m = (nel - e0).min(LANES);
        let mut f8 = [F64x4::ZERO; 8];
        for j in 0..LANES {
            // Ghost slots replicate the block's first element so gathers
            // stay in bounds; their results are discarded.
            let e = e0 + if j < m { j } else { 0 };
            let cids = mesh.element_corner_ids(e);
            for (k, &cid) in cids.iter().enumerate() {
                f8[k].0[j] = corner_field[cid];
            }
        }
        let mut lane_out = [F64x4::ZERO; MAX_NQP];
        simd::dot8_table(path, &basis_at_qp, &f8, &mut lane_out[..nqp]);
        for j in 0..m {
            for (q, lo) in lane_out.iter().enumerate().take(nqp) {
                chunk[j * nqp + q] = lo.0[j];
            }
        }
    });
    out
}

/// Upper bound on quadrature points per element supported by the batched
/// interpolation's stack buffer (3³ Gauss is 27).
const MAX_NQP: usize = 32;

/// Scalar reference implementation of [`corners_to_quadrature`]: serial,
/// one element and quadrature point at a time (equivalence tests and the
/// pre-batching benchmark baseline).
pub fn corners_to_quadrature_scalar(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    corner_field: &[f64],
) -> Vec<f64> {
    assert_eq!(corner_field.len(), mesh.num_corners());
    let nqp = tables.nqp();
    let mut out = vec![0.0; mesh.num_elements() * nqp];
    let basis_at_qp: Vec<[f64; 8]> = tables.quad.points.iter().map(|&p| q1_basis(p)).collect();
    for e in 0..mesh.num_elements() {
        let cids = mesh.element_corner_ids(e);
        for q in 0..nqp {
            let w = &basis_at_qp[q];
            let mut v = 0.0;
            for k in 0..8 {
                v += w[k] * corner_field[cids[k]];
            }
            out[e * nqp + q] = v;
        }
    }
    out
}

/// Geometric-mean variant of [`corners_to_quadrature`] for strictly
/// positive fields spanning decades (viscosity): interpolates `log f`
/// instead of `f`, avoiding arithmetic-average bias across 10⁹-contrast
/// jumps.
pub fn corners_to_quadrature_log(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    corner_field: &[f64],
) -> Vec<f64> {
    let logf: Vec<f64> = corner_field.iter().map(|&v| v.max(1e-300).ln()).collect();
    let mut out = corners_to_quadrature(mesh, tables, &logf);
    for v in &mut out {
        *v = v.exp();
    }
    out
}

/// Restrict a corner field to a coarsened mesh by injection (coarse corner
/// `(i,j,k)` coincides with fine corner `(2i,2j,2k)`) — how coefficient
/// fields follow the mesh hierarchy for rediscretized coarse operators.
pub fn coarsen_corner_field(
    fine: &StructuredMesh,
    coarse: &StructuredMesh,
    fine_field: &[f64],
) -> Vec<f64> {
    assert_eq!(fine.mx, 2 * coarse.mx);
    assert_eq!(fine.my, 2 * coarse.my);
    assert_eq!(fine.mz, 2 * coarse.mz);
    assert_eq!(fine_field.len(), fine.num_corners());
    let (ccx, ccy, ccz) = coarse.corner_dims();
    let mut out = Vec::with_capacity(coarse.num_corners());
    for k in 0..ccz {
        for j in 0..ccy {
            for i in 0..ccx {
                out.push(fine_field[fine.corner_index(2 * i, 2 * j, 2 * k)]);
            }
        }
    }
    out
}

/// Interpolate the Q2 velocity field at a physical point inside element
/// `e` with local coordinate `xi`.
pub fn interpolate_velocity(
    mesh: &StructuredMesh,
    velocity: &[f64],
    e: usize,
    xi: [f64; 3],
) -> [f64; 3] {
    let basis = ptatin_fem::basis::q2_basis(xi);
    let nodes = mesh.element_nodes(e);
    let mut v = [0.0; 3];
    for (i, &n) in nodes.iter().enumerate() {
        let b = 3 * n;
        for d in 0..3 {
            v[d] += basis[i] * velocity[b + d];
        }
    }
    v
}

/// Evaluate the physical coordinates of a point from its element/ξ cache.
pub fn point_physical(mesh: &StructuredMesh, e: usize, xi: [f64; 3]) -> [f64; 3] {
    let corners = mesh.element_corner_coords(e);
    map_to_physical(&corners, xi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::seed_regular;
    use ptatin_prng::StdRng;

    fn mesh() -> StructuredMesh {
        StructuredMesh::new_box(3, 3, 3, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
    }

    #[test]
    fn projection_reproduces_constant_field() {
        let mesh = mesh();
        let mut rng = StdRng::seed_from_u64(3);
        let pts = seed_regular(&mesh, 2, 0.2, &mut rng, |_| 0);
        let f = project_to_corners(&mesh, &pts, |_| 7.5, |_| f64::NAN);
        for &v in &f {
            assert!((v - 7.5).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_approximates_linear_field() {
        let mesh = mesh();
        let mut rng = StdRng::seed_from_u64(3);
        let pts = seed_regular(&mesh, 4, 0.0, &mut rng, |_| 0);
        // Point value = linear function of position.
        let vals: Vec<f64> = pts.x.iter().map(|p| 1.0 + 2.0 * p[0] - p[1]).collect();
        let f = project_to_corners(&mesh, &pts, |p| vals[p], |_| f64::NAN);
        for c in 0..mesh.num_corners() {
            let xc = mesh.coords[mesh.corner_to_node(c)];
            let expect = 1.0 + 2.0 * xc[0] - xc[1];
            // Shepard-like weighting is not exact for linear fields; with a
            // symmetric regular cloud interior nodes are accurate while
            // boundary nodes see a one-sided cloud and are biased inward.
            let on_boundary = (0..3).any(|d| xc[d] == 0.0 || xc[d] == 1.0);
            let tol = if on_boundary { 0.6 } else { 0.05 };
            assert!(
                (f[c] - expect).abs() < tol,
                "corner {c}: {} vs {}",
                f[c],
                expect
            );
        }
    }

    #[test]
    fn batched_projection_matches_scalar() {
        let mesh = mesh();
        let mut rng = StdRng::seed_from_u64(17);
        // 27 elements × 27 points: npts % 4 == 1 exercises the remainder
        // lane; a few unlocated points exercise the scatter skip.
        let mut pts = seed_regular(&mesh, 3, 0.4, &mut rng, |_| 0);
        for p in (0..pts.len()).step_by(31) {
            pts.element[p] = u32::MAX;
        }
        let vals: Vec<f64> = (0..pts.len()).map(|p| ((p as f64) * 0.61).sin()).collect();
        let reference = project_to_corners_scalar(&mesh, &pts, |p| vals[p], |i| i as f64);
        // Batched-vs-scalar is bitwise: the lane scatter keeps the scalar
        // per-corner accumulation order (downstream AMG setup makes
        // discrete decisions on these values — see project_to_corners).
        let portable = project_to_corners_with_path(
            &mesh,
            &pts,
            |p| vals[p],
            |i| i as f64,
            SimdPath::Portable,
        );
        for (c, (a, b)) in portable.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "portable corner {c}: {a} vs {b}");
        }
        // AVX-vs-portable is strictly bitwise.
        if simd::avx2_fma_available() {
            let avx = project_to_corners_with_path(
                &mesh,
                &pts,
                |p| vals[p],
                |i| i as f64,
                SimdPath::Avx2Fma,
            );
            for (c, (a, b)) in avx.iter().zip(&portable).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "avx corner {c}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batched_quadrature_interpolation_matches_scalar_bitwise() {
        let mesh = mesh(); // 27 elements: nel % 4 == 3 remainder lane
        let tables = Q2QuadTables::standard();
        let corner_field: Vec<f64> = (0..mesh.num_corners())
            .map(|c| ((c as f64) * 0.37).cos())
            .collect();
        let reference = corners_to_quadrature_scalar(&mesh, &tables, &corner_field);
        let mut paths = vec![SimdPath::Portable];
        if simd::avx2_fma_available() {
            paths.push(SimdPath::Avx2Fma);
        }
        for path in paths {
            let qpf = corners_to_quadrature_with_path(&mesh, &tables, &corner_field, path);
            assert_eq!(qpf.len(), reference.len());
            for (i, (a, b)) in qpf.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{path:?} qp value {i}");
            }
        }
    }

    #[test]
    fn fallback_fills_empty_nodes() {
        let mesh = mesh();
        let pts = MaterialPoints::default(); // no points at all
        let f = project_to_corners(&mesh, &pts, |_| 1.0, |i| i as f64);
        for (i, &v) in f.iter().enumerate() {
            assert_eq!(v, i as f64);
        }
    }

    #[test]
    fn quadrature_interpolation_exact_for_trilinear() {
        let mesh = mesh();
        let tables = Q2QuadTables::standard();
        let lin = |x: [f64; 3]| 2.0 - x[0] + 3.0 * x[1] * 1.0 + 0.5 * x[2];
        let corner_field: Vec<f64> = (0..mesh.num_corners())
            .map(|c| lin(mesh.coords[mesh.corner_to_node(c)]))
            .collect();
        let qpf = corners_to_quadrature(&mesh, &tables, &corner_field);
        for e in 0..mesh.num_elements() {
            let corners = mesh.element_corner_coords(e);
            for q in 0..tables.nqp() {
                let x = map_to_physical(&corners, tables.quad.points[q]);
                assert!(
                    (qpf[e * tables.nqp() + q] - lin(x)).abs() < 1e-12,
                    "element {e} qp {q}"
                );
            }
        }
    }

    #[test]
    fn log_interpolation_preserves_positivity_and_contrast() {
        let mesh = mesh();
        let tables = Q2QuadTables::standard();
        // Half the corners at 1e-6, half at 1e3 viscosity.
        let corner_field: Vec<f64> = (0..mesh.num_corners())
            .map(|c| {
                if mesh.coords[mesh.corner_to_node(c)][0] < 0.5 {
                    1e-6
                } else {
                    1e3
                }
            })
            .collect();
        let qpf = corners_to_quadrature_log(&mesh, &tables, &corner_field);
        for &v in &qpf {
            assert!(v > 0.0);
            assert!((1e-7..=1e4).contains(&v));
        }
        // Geometric mean at the interface, not arithmetic (≈ 500).
        let has_intermediate = qpf.iter().any(|&v| (1e-3..=1.0).contains(&v));
        assert!(
            has_intermediate,
            "log-interp should produce geometric means"
        );
    }

    #[test]
    fn coarsen_field_injects() {
        let fine = StructuredMesh::new_box(4, 4, 4, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let coarse = fine.coarsen();
        let ff: Vec<f64> = (0..fine.num_corners()).map(|i| i as f64).collect();
        let cf = coarsen_corner_field(&fine, &coarse, &ff);
        assert_eq!(cf.len(), coarse.num_corners());
        assert_eq!(cf[0], ff[0]);
        // Last coarse corner = last fine corner.
        assert_eq!(*cf.last().unwrap(), *ff.last().unwrap());
    }

    #[test]
    fn velocity_interpolation_quadratic_exact() {
        let mesh = mesh();
        let nu = 3 * mesh.num_nodes();
        let mut vel = vec![0.0; nu];
        for (n, c) in mesh.coords.iter().enumerate() {
            vel[3 * n] = c[0] * c[0]; // Q2 exactly representable
            vel[3 * n + 1] = c[1];
            vel[3 * n + 2] = -2.0 * c[2] * c[0];
        }
        let e = 13; // central element
        let xi = [0.3, -0.4, 0.6];
        let x = point_physical(&mesh, e, xi);
        let v = interpolate_velocity(&mesh, &vel, e, xi);
        assert!((v[0] - x[0] * x[0]).abs() < 1e-12);
        assert!((v[1] - x[1]).abs() < 1e-12);
        assert!((v[2] + 2.0 * x[2] * x[0]).abs() < 1e-12);
    }
}
