//! SIMD-batched Q2 assembly: the §III-E cross-element batching recipe
//! (SoA `F64x4` lanes of 4 elements, runtime AVX2 dispatch, bitwise
//! portable fallback) applied to the *setup* kernels — the dense element
//! matrices of `J_uu`, `J_pu` and the pressure mass blocks.
//!
//! Bitwise contract (DESIGN.md §9/§13): every lane kernel mirrors its
//! scalar reference (`element_viscous_matrix_into` & friends) operation
//! for operation using only plain mul/add/sub/div — no FMA anywhere,
//! because the scalar kernels fuse nothing. Each IEEE operation is then
//! performed on the same operands in the same order per lane, so lane `l`
//! of a batched element matrix is bitwise identical to the scalar element
//! matrix, on both dispatch paths, and the serial in-order scatter through
//! `ptatin_fem::pattern` makes the assembled CSR bitwise identical to
//! scalar assembly at every thread count. Tail lane slots are ghost-padded
//! by replicating the last real element (computed, never scattered).
//!
//! Each lane kernel is written once over `ptatin_la::simd::Lane` and run
//! through `run_lanes`, which instantiates it with the portable lane type
//! or with the AVX register type under its `avx2,fma` wrapper: the
//! same plain operation sequence on both paths.

use ptatin_fem::assemble::{PressureMassBlocks, Q2QuadTables};
use ptatin_fem::basis::{element_frame, q1_basis, q1_grad, NP1, NQ1, NQ2};
use ptatin_fem::pattern::{gradient_pattern_csr, GalerkinQ1Pattern, ViscousPattern};
use ptatin_la::csr::Csr;
use ptatin_la::par;
use ptatin_la::simd::{run_lanes, F64x4, Lane, LaneKernel, SimdPath, LANES};
use ptatin_mesh::StructuredMesh;
use ptatin_prof as prof;

/// Elements per batch of the assembly drivers (matches the scalar path's
/// `ASSEMBLY_BATCH`, so the element-matrix scratch footprint is the same
/// ≈3.4 MB and scatter order is element-ascending either way).
const BATCH: usize = 64;

/// Dense viscous element-matrix size in lane units.
const AE: usize = (3 * NQ2) * (3 * NQ2);
/// Dense gradient element-matrix size in lane units.
const BE: usize = NP1 * 3 * NQ2;
/// Dense Q1 (8-corner) viscous element-matrix size in lane units.
const AQ1: usize = (3 * NQ1) * (3 * NQ1);

/// Per-quadrature-point Q1 geometry tables shared by all lane kernels:
/// trilinear basis values and reference gradients at each point.
struct Q1Tables {
    basis: Vec<[f64; 8]>,
    grad: Vec<[[f64; 3]; 8]>,
}

impl Q1Tables {
    fn new(tables: &Q2QuadTables) -> Self {
        Self {
            basis: tables.quad.points.iter().map(|&p| q1_basis(p)).collect(),
            grad: tables.quad.points.iter().map(|&p| q1_grad(p)).collect(),
        }
    }
}

/// Gather the 8 corner coordinates of lane elements `e0 .. e0+nreal` into
/// SoA lanes, replicating the last real element into ghost slots.
fn gather_corners(mesh: &StructuredMesh, e0: usize, nreal: usize) -> [[F64x4; 3]; 8] {
    let mut out = [[F64x4::ZERO; 3]; 8];
    for l in 0..LANES {
        let cc = mesh.element_corner_coords(e0 + l.min(nreal - 1));
        for c in 0..8 {
            for d in 0..3 {
                out[c][d].0[l] = cc[c][d];
            }
        }
    }
    out
}

/// Gather a per-(element, qp) coefficient into per-qp lanes (ghost slots
/// replicate the last real element).
fn gather_qp_coeff(coeff: &[f64], nqp: usize, e0: usize, nreal: usize, out: &mut [F64x4]) {
    for q in 0..nqp {
        for l in 0..LANES {
            out[q].0[l] = coeff[(e0 + l.min(nreal - 1)) * nqp + q];
        }
    }
}

/// The corner coordinates of a lane group as lane values.
#[inline(always)]
fn load_corners<V: Lane>(corners: &[[F64x4; 3]; 8]) -> [[V; 3]; 8] {
    let mut out = [[V::splat(0.0); 3]; 8];
    for c in 0..8 {
        for d in 0..3 {
            out[c][d] = V::load(&corners[c][d].0);
        }
    }
    out
}

/// Lane mirror of `qp_geometry` (jacobian → `inv3` → transpose): returns
/// `(J⁻ᵀ, w·det J)` with the exact operation sequence of the scalar path.
/// Panics like the scalar path when any lane's element is inverted.
#[inline(always)]
pub(crate) fn lane_geometry<V: Lane>(
    q1g: &[[f64; 3]; 8],
    w: f64,
    corners: &[[V; 3]; 8],
) -> ([[V; 3]; 3], V) {
    let mut j = [[V::splat(0.0); 3]; 3];
    for (c, corner) in corners.iter().enumerate() {
        for i in 0..3 {
            for d in 0..3 {
                j[i][d] = j[i][d] + corner[i] * V::splat(q1g[c][d]);
            }
        }
    }
    // det3, term for term.
    let det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
    for d in det.to_array() {
        assert!(d > 0.0, "element is inverted or degenerate (det J = {d})");
    }
    let id = V::splat(1.0) / det;
    let inv = [
        [
            (j[1][1] * j[2][2] - j[1][2] * j[2][1]) * id,
            (j[0][2] * j[2][1] - j[0][1] * j[2][2]) * id,
            (j[0][1] * j[1][2] - j[0][2] * j[1][1]) * id,
        ],
        [
            (j[1][2] * j[2][0] - j[1][0] * j[2][2]) * id,
            (j[0][0] * j[2][2] - j[0][2] * j[2][0]) * id,
            (j[0][2] * j[1][0] - j[0][0] * j[1][2]) * id,
        ],
        [
            (j[1][0] * j[2][1] - j[1][1] * j[2][0]) * id,
            (j[0][1] * j[2][0] - j[0][0] * j[2][1]) * id,
            (j[0][0] * j[1][1] - j[0][1] * j[1][0]) * id,
        ],
    ];
    let mut ijt = [[V::splat(0.0); 3]; 3];
    for a in 0..3 {
        for b in 0..3 {
            ijt[a][b] = inv[b][a];
        }
    }
    (ijt, V::splat(w) * det)
}

/// Lane mirror of `map_to_physical` through the trilinear geometry.
#[inline(always)]
fn lane_map_to_physical<V: Lane>(q1b: &[f64; 8], corners: &[[V; 3]; 8]) -> [V; 3] {
    let mut x = [V::splat(0.0); 3];
    for (c, corner) in corners.iter().enumerate() {
        for d in 0..3 {
            x[d] = x[d] + V::splat(q1b[c]) * corner[d];
        }
    }
    x
}

/// The P1disc pressure basis at a quadrature point `x` of a lane group:
/// `[1, (x − c)/h …]` in the element frames (centroid `c`, half-extents
/// `h`) that [`gather_frames`] evaluates in scalar per real element — the
/// exact scalar code path.
#[inline(always)]
fn lane_psi<V: Lane>(x: [V; 3], c: &[F64x4; 3], h: &[F64x4; 3]) -> [V; NP1] {
    [
        V::splat(1.0),
        (x[0] - V::load(&c[0].0)) / V::load(&h[0].0),
        (x[1] - V::load(&c[1].0)) / V::load(&h[1].0),
        (x[2] - V::load(&c[2].0)) / V::load(&h[2].0),
    ]
}

/// Viscous element matrix of one lane group for an `N`-node basis with
/// reference gradients `grad[q][i]`, on the trilinear geometry of
/// `corners`. With the Q2 tables (`N = 27`) it is the lane mirror of
/// `element_viscous_matrix_into`; with the trilinear corner basis
/// (`N = 8`, `Q1Tables::grad`) it is the 24×24 Q1 matrix on the same
/// 27-point rule, Jacobians and per-point viscosity — summed over the
/// fine elements, the Galerkin product `Pᵀ A P` of the embedded-trilinear
/// transfer (DESIGN.md §4).
struct ViscousLanes<'a, const N: usize> {
    tables: &'a Q2QuadTables,
    q1: &'a Q1Tables,
    grad: &'a [[[f64; 3]; N]],
    corners: &'a [[F64x4; 3]; 8],
    eta: &'a [F64x4],
}

impl<const N: usize> LaneKernel for ViscousLanes<'_, N> {
    type Out = [F64x4];

    #[inline(always)]
    fn run<V: Lane>(self, ae: &mut [F64x4]) {
        let Self {
            tables,
            q1,
            grad,
            corners,
            eta,
        } = self;
        debug_assert_eq!(ae.len(), (3 * N) * (3 * N));
        let corners = load_corners::<V>(corners);
        ae.fill(F64x4::ZERO);
        let mut gphi = [[V::splat(0.0); 3]; N];
        for q in 0..tables.nqp() {
            let (ijt, wdetj) = lane_geometry(&q1.grad[q], tables.quad.weights[q], &corners);
            for i in 0..N {
                let g = grad[q][i];
                for d in 0..3 {
                    gphi[i][d] = ijt[d][0] * V::splat(g[0])
                        + ijt[d][1] * V::splat(g[1])
                        + ijt[d][2] * V::splat(g[2]);
                }
            }
            let ew = V::load(&eta[q].0) * wdetj;
            // The per-qp update is bitwise symmetric under (i,r) ↔ (j,c):
            // `gdot` commutes term for term and the dyadic product commutes
            // entrywise, so accumulating only the block upper triangle and
            // mirroring once after the qp loop reproduces the full double
            // loop bit for bit at roughly half the accumulation work.
            for i in 0..N {
                for j in i..N {
                    let gdot =
                        gphi[i][0] * gphi[j][0] + gphi[i][1] * gphi[j][1] + gphi[i][2] * gphi[j][2];
                    for r in 0..3 {
                        let row = 3 * i + r;
                        for c in 0..3 {
                            let k = row * (3 * N) + 3 * j + c;
                            let mut v = gphi[i][c] * gphi[j][r];
                            if r == c {
                                v = v + gdot;
                            }
                            (V::load(&ae[k].0) + ew * v).store(&mut ae[k].0);
                        }
                    }
                }
            }
        }
        for row in 0..3 * N {
            for col in row + 1..3 * N {
                ae[col * (3 * N) + row] = ae[row * (3 * N) + col];
            }
        }
    }
}

/// Lane mirror of `element_gradient_matrix_into` for one lane group.
struct GradientLanes<'a> {
    tables: &'a Q2QuadTables,
    q1: &'a Q1Tables,
    corners: &'a [[F64x4; 3]; 8],
    centroid: &'a [F64x4; 3],
    half: &'a [F64x4; 3],
}

impl LaneKernel for GradientLanes<'_> {
    type Out = [F64x4; BE];

    #[inline(always)]
    fn run<V: Lane>(self, be: &mut [F64x4; BE]) {
        let Self {
            tables,
            q1,
            corners,
            centroid,
            half,
        } = self;
        let corners = load_corners::<V>(corners);
        be.fill(F64x4::ZERO);
        for q in 0..tables.nqp() {
            let (ijt, wdetj) = lane_geometry(&q1.grad[q], tables.quad.weights[q], &corners);
            let x = lane_map_to_physical(&q1.basis[q], &corners);
            let psi = lane_psi(x, centroid, half);
            for j in 0..NQ2 {
                let gr = tables.grad[q][j];
                let mut g = [V::splat(0.0); 3];
                for d in 0..3 {
                    g[d] = ijt[d][0] * V::splat(gr[0])
                        + ijt[d][1] * V::splat(gr[1])
                        + ijt[d][2] * V::splat(gr[2]);
                }
                for c in 0..3 {
                    for (m, &pm) in psi.iter().enumerate() {
                        let k = m * (3 * NQ2) + 3 * j + c;
                        (V::load(&be[k].0) - pm * g[c] * wdetj).store(&mut be[k].0);
                    }
                }
            }
        }
    }
}

/// Lane mirror of `element_pressure_mass` for one lane group.
struct PressureMassLanes<'a> {
    tables: &'a Q2QuadTables,
    q1: &'a Q1Tables,
    corners: &'a [[F64x4; 3]; 8],
    centroid: &'a [F64x4; 3],
    half: &'a [F64x4; 3],
    weight: &'a [F64x4],
}

impl LaneKernel for PressureMassLanes<'_> {
    type Out = [F64x4; NP1 * NP1];

    #[inline(always)]
    fn run<V: Lane>(self, m: &mut [F64x4; NP1 * NP1]) {
        let Self {
            tables,
            q1,
            corners,
            centroid,
            half,
            weight,
        } = self;
        let corners = load_corners::<V>(corners);
        let mut acc = [V::splat(0.0); NP1 * NP1];
        for q in 0..tables.nqp() {
            let (_ijt, wdetj) = lane_geometry(&q1.grad[q], tables.quad.weights[q], &corners);
            let x = lane_map_to_physical(&q1.basis[q], &corners);
            let psi = lane_psi(x, centroid, half);
            let w = V::load(&weight[q].0) * wdetj;
            for a in 0..NP1 {
                for b in 0..NP1 {
                    acc[a * NP1 + b] = acc[a * NP1 + b] + w * psi[a] * psi[b];
                }
            }
        }
        for (out, v) in m.iter_mut().zip(acc) {
            v.store(&mut out.0);
        }
    }
}

/// Scalar element-frame evaluation per real lane element (ghost slots
/// replicate the last real element), packed into lanes.
fn gather_frames(mesh: &StructuredMesh, e0: usize, nreal: usize) -> ([F64x4; 3], [F64x4; 3]) {
    let mut centroid = [F64x4::ZERO; 3];
    let mut half = [F64x4::ZERO; 3];
    for l in 0..LANES {
        let cc = mesh.element_corner_coords(e0 + l.min(nreal - 1));
        let (c, h) = element_frame(&cc);
        for d in 0..3 {
            centroid[d].0[l] = c[d];
            half[d].0[l] = h[d];
        }
    }
    (centroid, half)
}

/// The shared driver of the batched numeric phases: per-lane element
/// matrices of `width` lane entries are computed by `kernel` into parallel
/// scratch, batch by batch, and handed to `scatter` serially in ascending
/// element order — so the assembled values are the same at every thread
/// count. `scratch` is grow-once and reused across re-assemblies.
fn numeric_lane_batches(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    eta: &[f64],
    scratch: &mut Vec<F64x4>,
    width: usize,
    kernel: impl Fn(&Q1Tables, &[[F64x4; 3]; 8], &[F64x4], &mut [F64x4]) + Sync,
    mut scatter: impl FnMut(usize, usize, &[F64x4]),
) {
    let nqp = tables.nqp();
    let ne = mesh.num_elements();
    assert_eq!(eta.len(), ne * nqp);
    let q1 = Q1Tables::new(tables);
    let max_lanes = BATCH.min(ne.max(1)).div_ceil(LANES);
    scratch.resize(max_lanes * width, F64x4::ZERO);
    let mut e0 = 0;
    while e0 < ne {
        let bl = BATCH.min(ne - e0);
        let nlanes = bl.div_ceil(LANES);
        let batch = &mut scratch[..nlanes * width];
        par::par_blocks_mut(batch, width, |li, ae| {
            let le = e0 + LANES * li;
            let nreal = (bl - LANES * li).min(LANES);
            let corners = gather_corners(mesh, le, nreal);
            let mut eta_lane = [F64x4::ZERO; 32];
            gather_qp_coeff(eta, nqp, le, nreal, &mut eta_lane[..nqp]);
            kernel(&q1, &corners, &eta_lane[..nqp], ae);
        });
        for li in 0..nlanes {
            let nreal = (bl - LANES * li).min(LANES);
            scatter(e0 + LANES * li, nreal, &batch[li * width..(li + 1) * width]);
        }
        e0 += bl;
    }
}

/// Batched numeric phase for the viscous block: lane element matrices are
/// computed in parallel scratch, then scattered serially in ascending
/// element order through the frozen pattern — bitwise identical to
/// [`ViscousPattern::numeric_scalar_into`] at every thread count.
pub fn viscous_numeric_batched_into(
    pat: &ViscousPattern,
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    eta: &[f64],
    path: SimdPath,
    scratch: &mut Vec<F64x4>,
    values: &mut [f64],
) {
    assert_eq!(values.len(), pat.nnz());
    values.fill(0.0);
    numeric_lane_batches(
        mesh,
        tables,
        eta,
        scratch,
        AE,
        |q1, corners, eta, ae| {
            let grad = &tables.grad;
            run_lanes(
                path,
                ViscousLanes {
                    tables,
                    q1,
                    grad,
                    corners,
                    eta,
                },
                ae,
            )
        },
        |e0, nreal, ae| pat.scatter_lane(mesh, e0, nreal, ae, values),
    );
}

/// Numeric phase of the Galerkin coarse operator `Pᵀ A P` of the
/// embedded-trilinear transfer, assembled directly as the Q1 stiffness
/// matrix on the corner grid of the *fine* mesh from its elements' `eta`
/// — no fine matrix, no sparse product. Equal to the product up to
/// rounding (it sums the same integrals in another order); a pure
/// function of (mesh, η, mask) at every thread count and on both paths.
pub fn galerkin_q1_numeric_batched_into(
    pat: &GalerkinQ1Pattern,
    fine: &StructuredMesh,
    tables: &Q2QuadTables,
    eta: &[f64],
    path: SimdPath,
    scratch: &mut Vec<F64x4>,
    values: &mut [f64],
) {
    assert_eq!(values.len(), pat.nnz());
    values.fill(0.0);
    numeric_lane_batches(
        fine,
        tables,
        eta,
        scratch,
        AQ1,
        |q1, corners, eta, ae| {
            let grad = &q1.grad;
            run_lanes(
                path,
                ViscousLanes {
                    tables,
                    q1,
                    grad,
                    corners,
                    eta,
                },
                ae,
            )
        },
        |e0, nreal, ae| pat.scatter_lane(fine, e0, nreal, ae, values),
    );
    pat.finish_constraints(values);
}

/// Batched [`ptatin_fem::assemble::assemble_viscous`]: symbolic phase plus
/// the batched numeric phase. Bitwise identical to the scalar assembly.
pub fn assemble_viscous_batched(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    eta: &[f64],
    path: SimdPath,
) -> Csr {
    let _s = prof::scope("ops.assemble_viscous_batched");
    let pat = ViscousPattern::build(mesh);
    // ALLOC-OK: first assembly allocates its value storage once; the
    // re-assembly path (`viscous_numeric_batched_into`) reuses it.
    let mut values = vec![0.0f64; pat.nnz()];
    // ALLOC-OK: one-shot lane scratch; re-assembly passes a cached one.
    let mut scratch = Vec::new();
    viscous_numeric_batched_into(&pat, mesh, tables, eta, path, &mut scratch, &mut values);
    pat.into_csr(values)
}

/// Batched [`ptatin_fem::assemble::assemble_gradient`]: the gradient
/// pattern is closed-form (4 uniform rows per element), so lane groups of
/// 4 consecutive elements write straight into the disjoint value rows —
/// fully parallel, and bitwise identical to the scalar path because each
/// lane mirrors `element_gradient_matrix_into` with no cross-element
/// accumulation at all.
pub fn assemble_gradient_batched(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    path: SimdPath,
) -> Csr {
    let _s = prof::scope("ops.assemble_gradient_batched");
    let ne = mesh.num_elements();
    let (indptr, indices) = gradient_pattern_csr(mesh);
    let q1 = Q1Tables::new(tables);
    // ALLOC-OK: geometry-only matrix, assembled once per mesh and cached
    // by the setup cache across solver rebuilds.
    let mut values = vec![0.0f64; ne * BE];
    par::par_blocks_mut(&mut values, LANES * BE, |li, chunk| {
        let le = LANES * li;
        let nreal = (ne - le).min(LANES);
        let corners = gather_corners(mesh, le, nreal);
        let (centroid, half) = gather_frames(mesh, le, nreal);
        let mut be = [F64x4::ZERO; BE];
        run_lanes(
            path,
            GradientLanes {
                tables,
                q1: &q1,
                corners: &corners,
                centroid: &centroid,
                half: &half,
            },
            &mut be,
        );
        for l in 0..nreal {
            let row = &mut chunk[l * BE..(l + 1) * BE];
            for k in 0..BE {
                row[k] = be[k].0[l];
            }
        }
    });
    Csr::from_raw(NP1 * ne, 3 * mesh.num_nodes(), indptr, indices, values)
}

/// Batched [`PressureMassBlocks::new`]: lane groups evaluate the 4×4
/// element mass blocks (weighted by `weight`, e.g. `1/η`), inverted per
/// element by the exact scalar `invert4`. Bitwise identical to the scalar
/// constructor.
pub fn pressure_mass_blocks_batched(
    mesh: &StructuredMesh,
    tables: &Q2QuadTables,
    weight: &[f64],
    path: SimdPath,
) -> PressureMassBlocks {
    let nqp = tables.nqp();
    let ne = mesh.num_elements();
    assert_eq!(weight.len(), ne * nqp);
    let q1 = Q1Tables::new(tables);
    // Setup-phase output, one 4×4 block per element.
    let mut blocks = vec![[[0.0f64; NP1]; NP1]; ne];
    par::par_blocks_mut(&mut blocks, LANES, |li, chunk| {
        let le = LANES * li;
        let nreal = chunk.len();
        let corners = gather_corners(mesh, le, nreal);
        let (centroid, half) = gather_frames(mesh, le, nreal);
        let mut w_lane = [F64x4::ZERO; 32];
        gather_qp_coeff(weight, nqp, le, nreal, &mut w_lane[..nqp]);
        let mut m = [F64x4::ZERO; NP1 * NP1];
        run_lanes(
            path,
            PressureMassLanes {
                tables,
                q1: &q1,
                corners: &corners,
                centroid: &centroid,
                half: &half,
                weight: &w_lane[..nqp],
            },
            &mut m,
        );
        for (l, blk) in chunk.iter_mut().enumerate() {
            for a in 0..NP1 {
                for b in 0..NP1 {
                    blk[a][b] = m[a * NP1 + b].0[l];
                }
            }
        }
    });
    PressureMassBlocks::from_blocks(&blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptatin_fem::assemble::{
        assemble_gradient, assemble_viscous, element_pressure_mass, Q2QuadTables,
    };
    use ptatin_la::simd::avx2_fma_available;

    fn mesh(mx: usize, my: usize, mz: usize) -> StructuredMesh {
        let mut m = StructuredMesh::new_box(mx, my, mz, [0.0, 1.2], [0.0, 0.8], [0.0, 1.0]);
        m.deform(|c| {
            [
                c[0] + 0.05 * c[1] * c[2],
                c[1] - 0.04 * c[0] * c[2],
                c[2] + 0.03 * c[0] * c[1],
            ]
        });
        m
    }

    fn paths() -> Vec<SimdPath> {
        if avx2_fma_available() {
            vec![SimdPath::Portable, SimdPath::Avx2Fma]
        } else {
            vec![SimdPath::Portable]
        }
    }

    #[test]
    fn batched_viscous_bitwise_equals_scalar() {
        let tables = Q2QuadTables::standard();
        // 3·2·3 = 18 and 5·1·1 = 5 elements: aligned and remainder tails.
        for dims in [(3usize, 2usize, 3usize), (5, 1, 1)] {
            let m = mesh(dims.0, dims.1, dims.2);
            let eta: Vec<f64> = (0..m.num_elements() * tables.nqp())
                .map(|i| 10f64.powi((i % 9) as i32 - 4) * (1.0 + 0.01 * (i % 13) as f64))
                .collect();
            let a = assemble_viscous(&m, &tables, &eta);
            for path in paths() {
                let b = assemble_viscous_batched(&m, &tables, &eta, path);
                assert_eq!(a.indptr, b.indptr, "{path:?}");
                assert_eq!(a.indices, b.indices, "{path:?}");
                for (x, y) in a.values.iter().zip(&b.values) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{path:?}");
                }
            }
        }
    }

    #[test]
    fn batched_galerkin_q1_bitwise_across_paths_and_symmetric() {
        let tables = Q2QuadTables::standard();
        // 18 elements (one 2-element tail lane group), no constraints.
        let m = mesh(3, 2, 3);
        let n = 3 * m.num_corners();
        let pat = GalerkinQ1Pattern::build(&m, &vec![false; n]);
        let eta: Vec<f64> = (0..m.num_elements() * tables.nqp())
            .map(|i| 10f64.powi((i % 7) as i32 - 3) * (1.0 + 0.01 * (i % 11) as f64))
            .collect();
        let assemble = |path| {
            let mut values = vec![0.0; pat.nnz()];
            galerkin_q1_numeric_batched_into(
                &pat,
                &m,
                &tables,
                &eta,
                path,
                &mut Vec::new(),
                &mut values,
            );
            pat.to_csr(values)
        };
        let a = assemble(SimdPath::Portable);
        for path in paths() {
            let b = assemble(path);
            for (x, y) in a.values.iter().zip(&b.values) {
                assert_eq!(x.to_bits(), y.to_bits(), "{path:?}");
            }
        }
        // A stiffness matrix: symmetric (here in the bits, element by
        // element) and annihilating the three rigid translations.
        let scale = a.values.iter().fold(0.0f64, |s, v| s.max(v.abs()));
        for i in 0..n {
            for (&j, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
                assert_eq!(v.to_bits(), a.get(j as usize, i).to_bits());
            }
        }
        for c in 0..3 {
            let t: Vec<f64> = (0..n).map(|i| f64::from(i % 3 == c)).collect();
            let mut y = vec![0.0; n];
            a.spmv(&t, &mut y);
            assert!(y.iter().all(|v| v.abs() <= 1e-12 * scale));
        }
    }

    #[test]
    fn batched_gradient_bitwise_equals_scalar() {
        let tables = Q2QuadTables::standard();
        let m = mesh(3, 1, 2); // 6 elements: one ghost tail lane group
        let b_ref = assemble_gradient(&m, &tables);
        for path in paths() {
            let b = assemble_gradient_batched(&m, &tables, path);
            assert_eq!(b_ref.indptr, b.indptr);
            assert_eq!(b_ref.indices, b.indices);
            for (x, y) in b_ref.values.iter().zip(&b.values) {
                assert_eq!(x.to_bits(), y.to_bits(), "{path:?}");
            }
        }
    }

    #[test]
    fn batched_pressure_mass_bitwise_equals_scalar() {
        let tables = Q2QuadTables::standard();
        let m = mesh(2, 2, 2);
        let nqp = tables.nqp();
        let w: Vec<f64> = (0..m.num_elements() * nqp)
            .map(|i| 1.0 / (1.0 + (i % 11) as f64))
            .collect();
        for path in paths() {
            // Compare the uninverted lane blocks against the scalar kernel
            // (invert4 is shared verbatim afterwards).
            let q1 = Q1Tables::new(&tables);
            for e in 0..m.num_elements() {
                let le = e / LANES * LANES;
                let nreal = (m.num_elements() - le).min(LANES);
                let corners = gather_corners(&m, le, nreal);
                let (centroid, half) = gather_frames(&m, le, nreal);
                let mut w_lane = [F64x4::ZERO; 32];
                gather_qp_coeff(&w, nqp, le, nreal, &mut w_lane[..nqp]);
                let mut blk = [F64x4::ZERO; NP1 * NP1];
                let kernel = PressureMassLanes {
                    tables: &tables,
                    q1: &q1,
                    corners: &corners,
                    centroid: &centroid,
                    half: &half,
                    weight: &w_lane[..nqp],
                };
                run_lanes(path, kernel, &mut blk);
                let cc = m.element_corner_coords(e);
                let ms = element_pressure_mass(&tables, &cc, &w[e * nqp..(e + 1) * nqp]);
                let l = e - le;
                for a in 0..NP1 {
                    for b in 0..NP1 {
                        assert_eq!(ms[a][b].to_bits(), blk[a * NP1 + b].0[l].to_bits());
                    }
                }
            }
        }
    }
}
