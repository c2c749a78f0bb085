//! "Tensor batched" — the cross-element SIMD variant of the sum-factorized
//! kernel (§III-E of the paper, the AVX operator behind Tables I–II).
//!
//! The staged 3×3 contractions of the tensor kernel are identical for every
//! element, so four elements are processed at once in structure-of-arrays
//! form: each scalar of the scalar kernel becomes an [`F64x4`] lane holding
//! the same quantity for 4 elements, and every multiply-add becomes one
//! 4-wide fused multiply-add. Lanes are formed *within* an element colour
//! (elements of one colour share no nodes), so the colour-parallel scatter
//! contract of the scalar kernels carries over unchanged. Colour tails with
//! `nel_colour % 4 != 0` are padded with ghost slots that replicate a real
//! element's node indices but carry zero viscosity and zero metric terms —
//! the kernel needs no remainder branches and ghosts contribute exactly
//! nothing (their scatter is skipped).
//!
//! The contractions are staged in the collocation basis, the form deal.II's
//! matrix-free evaluation takes when the quadrature has degree + 1 points:
//! each velocity component is interpolated to the Gauss points once
//! (`B̃⊗B̃⊗B̃`), and each reference derivative is then a single contraction
//! with `D_c = D̃ B̃⁻¹` along its own dimension. The adjoint sums the three
//! `D_cᵀ` contractions and interpolates back once: 12 contractions per
//! component instead of the Tensor kernel's 18.
//!
//! Geometry is precomputed: the inverse Jacobian and `w·|J|` per quadrature
//! point are stored in `[lane][qp]` order at construction (10 scalars/qp,
//! like TensorC's trade of memory for metric flops), so the apply streams
//! them instead of re-running `inv3` per point.
//!
//! The same pass can apply the whole saddle-point operator
//! ([`LinearOperator::apply_stokes`]): `div u = tr(∇u)` is in registers at
//! every quadrature point and the pressure enters as `−p·w|J|` on the stress
//! diagonal, so `Bᵀ x_p` and `B x_u` cost ≈ 7 % more flops instead of two
//! sweeps over the assembled coupling block. The divergence alone
//! ([`LinearOperator::apply_divergence`], the block preconditioner's
//! `B z_u`) is the forward half of that pass: 18 of the 36 contractions,
//! the trace of the gradient at every quadrature point and the `ψ` tests,
//! writing bitwise the `y_p` of the fused pass.
//!
//! The stages, the divergence pass and the fused kernel are written once
//! over `ptatin_la::simd::Lane` with `mul_add` fusion
//! (`fma(i0,m0, fma(i1,m1, i2·m2))` for every 3-term dot) and run on both
//! paths through `run_lanes`, so both paths give the same bits — asserted
//! by tests. `PTATIN_NO_AVX=1` forces the portable path for newly
//! constructed operators.

use crate::asm_batch::lane_geometry;
use crate::data::{MaskScratch, ViscousOpData, NQP};
use crate::kernels::{for_each_lane_colored, q1_grad_tables, ColorScatter};
use crate::tensor::Tensor1d;
use ptatin_fem::basis::{element_frame, p1disc_basis, NP1, NQ1, NQ2};
use ptatin_la::coupling::CouplingBlock;
use ptatin_la::operator::LinearOperator;
use ptatin_prof as prof;
use std::sync::Arc;

// The lane type and runtime dispatch were hoisted into `ptatin-la::simd`
// when the rest of the per-step pipeline (projection, GMG transfer,
// Chebyshev) adopted the same batching recipe; re-exported here so the
// `ptatin_ops::{F64x4, SimdPath, ...}` paths of PR 4 keep working.
pub use ptatin_la::simd::{avx2_fma_available, detected_simd_path, F64x4, SimdPath, LANES};
use ptatin_la::simd::{run_lanes, Lane, LaneKernel};

// ---------------------------------------------------------------------------
// Batched contractions
// ---------------------------------------------------------------------------
//
// Every stage reads and writes its 27- (or 8-, 12-, 18-) entry arrays in
// memory as `F64x4` and computes on lane values: one load per input, one
// store per output, so the stage arrays of a kernel stay in the stack
// frame and only the values of one 3-term dot sit in registers.

/// One stored lane as a lane value.
#[inline(always)]
fn ld<V: Lane>(v: &F64x4) -> V {
    V::load(&v.0)
}

/// 3-term dot with the canonical fusion order `fma(i0,m0, fma(i1,m1, i2·m2))`,
/// the grouping of every contraction and metric product of the kernels.
#[inline(always)]
fn dot3<V: Lane>(m: &[f64; 3], i0: V, i1: V, i2: V) -> V {
    i0.mul_add(
        V::splat(m[0]),
        i1.mul_add(V::splat(m[1]), i2 * V::splat(m[2])),
    )
}

/// Batched [`crate::tensor::contract_dim0`]: 4 elements per call.
#[inline(always)]
pub fn contract_dim0_b<V: Lane>(m: &[[f64; 3]; 3], input: &[F64x4; 27], out: &mut [F64x4; 27]) {
    for o in (0..27).step_by(3) {
        let (i0, i1, i2) = (ld::<V>(&input[o]), ld(&input[o + 1]), ld(&input[o + 2]));
        dot3(&m[0], i0, i1, i2).store(&mut out[o].0);
        dot3(&m[1], i0, i1, i2).store(&mut out[o + 1].0);
        dot3(&m[2], i0, i1, i2).store(&mut out[o + 2].0);
    }
}

/// Batched [`crate::tensor::contract_dim1`].
#[inline(always)]
pub fn contract_dim1_b<V: Lane>(m: &[[f64; 3]; 3], input: &[F64x4; 27], out: &mut [F64x4; 27]) {
    for k in 0..3 {
        let base = 9 * k;
        for i in 0..3 {
            let (i0, i1, i2) = (
                ld::<V>(&input[base + i]),
                ld(&input[base + i + 3]),
                ld(&input[base + i + 6]),
            );
            dot3(&m[0], i0, i1, i2).store(&mut out[base + i].0);
            dot3(&m[1], i0, i1, i2).store(&mut out[base + i + 3].0);
            dot3(&m[2], i0, i1, i2).store(&mut out[base + i + 6].0);
        }
    }
}

/// Batched [`crate::tensor::contract_dim2`].
#[inline(always)]
pub fn contract_dim2_b<V: Lane>(m: &[[f64; 3]; 3], input: &[F64x4; 27], out: &mut [F64x4; 27]) {
    for ij in 0..9 {
        let (i0, i1, i2) = (ld::<V>(&input[ij]), ld(&input[ij + 9]), ld(&input[ij + 18]));
        dot3(&m[0], i0, i1, i2).store(&mut out[ij].0);
        dot3(&m[1], i0, i1, i2).store(&mut out[ij + 9].0);
        dot3(&m[2], i0, i1, i2).store(&mut out[ij + 18].0);
    }
}

/// `m ⊗ m ⊗ m` applied to one component: three staged contractions.
#[inline(always)]
fn contract3_b<V: Lane>(m: &[[f64; 3]; 3], input: &[F64x4; 27], out: &mut [F64x4; 27]) {
    let mut tmp1 = [F64x4::ZERO; 27];
    let mut tmp2 = [F64x4::ZERO; 27];
    contract_dim0_b::<V>(m, input, &mut tmp1);
    contract_dim1_b::<V>(m, &tmp1, &mut tmp2);
    contract_dim2_b::<V>(m, &tmp2, out);
}

/// 2-term dot `fma(i0,m0, i1·m1)`: the fusion order of every Q1
/// contraction below.
#[inline(always)]
fn dot2<V: Lane>(m: &[f64; 2], i0: V, i1: V) -> V {
    i0.mul_add(V::splat(m[0]), i1 * V::splat(m[1]))
}

/// Trilinear field from its 8 corner values (x-fastest) to the 27
/// quadrature points: three staged 2→3 contractions.
#[inline(always)]
fn q1_to_qp_b<V: Lane>(t: &Tensor1d, input: &[F64x4; NQ1], out: &mut [F64x4; 27]) {
    let mut t0 = [F64x4::ZERO; 12];
    let mut t1 = [F64x4::ZERO; 18];
    for bc in 0..4 {
        let (i0, i1) = (ld::<V>(&input[2 * bc]), ld(&input[2 * bc + 1]));
        for q in 0..3 {
            dot2(&t.n[q], i0, i1).store(&mut t0[3 * bc + q].0);
        }
    }
    for c in 0..2 {
        for i in 0..3 {
            let (i0, i1) = (ld::<V>(&t0[i + 6 * c]), ld(&t0[i + 3 + 6 * c]));
            for q in 0..3 {
                dot2(&t.n[q], i0, i1).store(&mut t1[i + 3 * q + 9 * c].0);
            }
        }
    }
    for ij in 0..9 {
        let (i0, i1) = (ld::<V>(&t1[ij]), ld(&t1[ij + 9]));
        for q in 0..3 {
            dot2(&t.n[q], i0, i1).store(&mut out[ij + 9 * q].0);
        }
    }
}

/// Adjoint of [`q1_to_qp_b`]: quadrature values tested against the 8
/// trilinear corner functions, three staged 3→2 contractions.
#[inline(always)]
fn qp_to_q1_b<V: Lane>(t: &Tensor1d, input: &[F64x4; 27], out: &mut [F64x4; NQ1]) {
    let mut s1 = [F64x4::ZERO; 18];
    let mut s0 = [F64x4::ZERO; 12];
    for ij in 0..9 {
        let (i0, i1, i2) = (ld::<V>(&input[ij]), ld(&input[ij + 9]), ld(&input[ij + 18]));
        for c in 0..2 {
            dot3(&t.nt[c], i0, i1, i2).store(&mut s1[ij + 9 * c].0);
        }
    }
    for c in 0..2 {
        for i in 0..3 {
            let (i0, i1, i2) = (
                ld::<V>(&s1[i + 9 * c]),
                ld(&s1[i + 3 + 9 * c]),
                ld(&s1[i + 6 + 9 * c]),
            );
            for b in 0..2 {
                dot3(&t.nt[b], i0, i1, i2).store(&mut s0[i + 3 * b + 6 * c].0);
            }
        }
    }
    for bc in 0..4 {
        let (i0, i1, i2) = (
            ld::<V>(&s0[3 * bc]),
            ld(&s0[3 * bc + 1]),
            ld(&s0[3 * bc + 2]),
        );
        for a in 0..2 {
            dot3(&t.nt[a], i0, i1, i2).store(&mut out[a + 2 * bc].0);
        }
    }
}

// ---------------------------------------------------------------------------
// SoA batch data
// ---------------------------------------------------------------------------

/// Precomputed metric terms of one quadrature point for a 4-element lane:
/// `jinv[d][l]` = ∂ξ_d/∂x_l and `w·|J|`, ghost slots zero.
#[derive(Clone, Copy, Debug)]
pub struct QpGeoLane {
    pub jinv: [[F64x4; 3]; 3],
    pub wdet: F64x4,
}

/// Node and element indices of the 4 elements of a lane. Ghost slots
/// replicate the last real element so gathers stay branch-free; `nreal`
/// bounds the scatter.
struct LaneNodes {
    nodes: [[u32; NQ2]; LANES],
    elems: [u32; LANES],
    nreal: u32,
}

/// Newton coefficient in lane form (`η′` and frozen `D₀` per qp, ghost
/// slots zero so the rank-one term vanishes for padding).
struct BatchNewton {
    eta_prime: Vec<F64x4>,
    d_sym: Vec<[F64x4; 6]>,
}

/// The geometry pack of the batched kernel: everything it reads that is a
/// function of the mesh alone — the lanes' node lists, the metric terms of
/// every quadrature point and the P1disc corner values. A re-linearization
/// changes only the coefficient, so one pack per geometry is shared (`Arc`)
/// by every operator on that mesh: the smoothed level, the Newton action
/// and each residual evaluation of the line search.
pub struct BatchedGeometry {
    /// Half-open lane ranges per colour into `lanes`/`geo`.
    color_lane_ranges: [(usize, usize); 8],
    lanes: Vec<LaneNodes>,
    /// `[lane][qp]` layout: `geo[lane·27 + q]`.
    geo: Vec<QpGeoLane>,
    /// The three non-constant P1disc pressure basis functions (`ψ₀ ≡ 1`)
    /// at the 8 corners of every lane's elements, `psi[lane][d][corner]`,
    /// ghost slots zero. `ψ_d` is affine in `x` and `x` trilinear in `ξ`,
    /// so these are the Q1 coefficients of `ψ_d` on the element.
    psi: Vec<[[F64x4; NQ1]; 3]>,
    /// `lane·LANES + slot` of every element, so element-ordered loops (the
    /// diagonal) read the pack without changing their accumulation order.
    slot: Vec<u32>,
    /// Velocity dofs of the mesh: every node index in `lanes` is below
    /// `ndof / 3`, which the divergence pass's hardware gather relies on.
    ndof: usize,
    path: SimdPath,
}

/// The metric terms of every lane, `[lane][qp]`: per lane the Jacobian
/// of the trilinear map, `det3` and the inverse of four elements at once
/// ([`crate::asm_batch::lane_geometry`], the operation order of
/// [`crate::kernels::qp_jacobian`] and `ptatin_la::dense::inv3`), so every
/// real slot holds the scalar bits. Ghost slots replicate a real element
/// and are then overwritten with `+0.0`.
struct LaneMetrics<'a> {
    corners: &'a [[[f64; 3]; NQ1]],
    lanes: &'a [LaneNodes],
    q1g: &'a [[[f64; 3]; NQ1]],
    weights: &'a [f64],
}

impl LaneKernel for LaneMetrics<'_> {
    type Out = Vec<QpGeoLane>;

    #[inline(always)]
    fn run<V: Lane>(self, geo: &mut Vec<QpGeoLane>) {
        for ln in self.lanes {
            let c = ln.elems.map(|e| &self.corners[e as usize]);
            let mut x = [[V::splat(0.0); 3]; NQ1];
            for k in 0..NQ1 {
                for i in 0..3 {
                    x[k][i] = V::from_array([c[0][k][i], c[1][k][i], c[2][k][i], c[3][k][i]]);
                }
            }
            for q in 0..NQP {
                let (ijt, wdet) = lane_geometry(&self.q1g[q], self.weights[q], &x);
                let mut gl = QpGeoLane {
                    jinv: [[F64x4::ZERO; 3]; 3],
                    wdet: F64x4::ZERO,
                };
                for d in 0..3 {
                    for l in 0..3 {
                        ijt[l][d].store(&mut gl.jinv[d][l].0);
                    }
                }
                wdet.store(&mut gl.wdet.0);
                for s in ln.nreal as usize..LANES {
                    for row in &mut gl.jinv {
                        for v in row {
                            v.0[s] = 0.0;
                        }
                    }
                    gl.wdet.0[s] = 0.0;
                }
                geo.push(gl);
            }
        }
    }
}

impl BatchedGeometry {
    /// Pack the geometry of `data`'s mesh (its coefficient is not read)
    /// with the runtime-detected SIMD path.
    pub fn new(data: &ViscousOpData) -> Self {
        Self::with_path(data, detected_simd_path())
    }

    /// Pack on an explicit path. Both paths give the same bits; the
    /// diagonal ([`crate::diag::viscous_diagonal`]) runs on the pack's.
    pub fn with_path(data: &ViscousOpData, path: SimdPath) -> Self {
        let _ev = prof::scope("ops.batched_geometry");
        let tables = crate::data::shared_tables();
        let q1g = q1_grad_tables(&tables.quad.points);
        // DETERMINISM-OK: integer lane count, order-independent.
        let nlanes: usize = data.colors.iter().map(|c| c.len().div_ceil(LANES)).sum();
        let mut lanes = Vec::with_capacity(nlanes);
        let mut psi = Vec::with_capacity(nlanes);
        let mut slot = vec![0u32; data.nel];
        let mut color_lane_ranges = [(0usize, 0usize); 8];
        for (color, elems) in data.colors.iter().enumerate() {
            let start = lanes.len();
            for chunk in elems.chunks(LANES) {
                let mut ln = LaneNodes {
                    nodes: [[0u32; NQ2]; LANES],
                    elems: [0u32; LANES],
                    nreal: chunk.len() as u32,
                };
                for l in 0..LANES {
                    let e = chunk[l.min(chunk.len() - 1)];
                    ln.nodes[l].copy_from_slice(data.element_nodes(e as usize));
                    ln.elems[l] = e;
                }
                for (l, &e) in chunk.iter().enumerate() {
                    slot[e as usize] = (lanes.len() * LANES + l) as u32;
                }
                lanes.push(ln);
                let mut pl = [[F64x4::ZERO; NQ1]; 3];
                for (l, &e) in chunk.iter().enumerate() {
                    let corners = &data.corners[e as usize];
                    let (centroid, half) = element_frame(corners);
                    for (c, &xc) in corners.iter().enumerate() {
                        let ps = p1disc_basis(xc, centroid, half);
                        for d in 0..3 {
                            pl[d][c].0[l] = ps[d + 1];
                        }
                    }
                }
                psi.push(pl);
            }
            color_lane_ranges[color] = (start, lanes.len());
        }
        let mut geo = Vec::with_capacity(lanes.len() * NQP);
        let metrics = LaneMetrics {
            corners: &data.corners,
            lanes: &lanes,
            q1g: &q1g,
            weights: &tables.quad.weights,
        };
        run_lanes(path, metrics, &mut geo);
        Self {
            color_lane_ranges,
            lanes,
            geo,
            psi,
            slot,
            ndof: data.ndof,
            path,
        }
    }

    /// The SIMD path the pack was built on.
    pub fn path(&self) -> SimdPath {
        self.path
    }

    /// The real elements of every lane with the metric terms of its 27
    /// quadrature points, in pack order: slot `l` of each [`QpGeoLane`]
    /// belongs to element `elements[l]`, and the slots past
    /// `elements.len()` are ghosts.
    pub fn metric_lanes(&self) -> impl Iterator<Item = (&[u32], &[QpGeoLane])> {
        self.lanes
            .iter()
            .zip(self.geo.chunks_exact(NQP))
            .map(|(ln, g)| (&ln.elems[..ln.nreal as usize], g))
    }

    /// The metric terms of element `e`'s lane, `[qp]`, and `e`'s slot in it.
    #[inline]
    pub(crate) fn element_metrics(&self, e: usize) -> (&[QpGeoLane], usize) {
        let s = self.slot[e] as usize;
        let lane = s / LANES;
        (&self.geo[lane * NQP..(lane + 1) * NQP], s % LANES)
    }

    /// Per-lane coefficient pack of `data`: `η` and, with Newton data, `η′`
    /// and `D₀`, in the `[lane][qp]` layout of `geo` (ghost slots zero).
    fn pack_coefficient(&self, data: &ViscousOpData) -> (Vec<F64x4>, Option<BatchNewton>) {
        let n = self.lanes.len() * NQP;
        let mut eta = Vec::with_capacity(n);
        let mut newton = data.newton.as_ref().map(|_| BatchNewton {
            eta_prime: Vec::with_capacity(n),
            d_sym: Vec::with_capacity(n),
        });
        for ln in &self.lanes {
            let real = &ln.elems[..ln.nreal as usize];
            for q in 0..NQP {
                let mut el = F64x4::ZERO;
                let mut ep = F64x4::ZERO;
                let mut d0 = [F64x4::ZERO; 6];
                for (l, &e) in real.iter().enumerate() {
                    let e = e as usize;
                    el.0[l] = data.element_eta(e)[q];
                    if let Some(nd) = data.newton.as_ref() {
                        let idx = e * NQP + q;
                        ep.0[l] = nd.eta_prime[idx];
                        for s in 0..6 {
                            d0[s].0[l] = nd.d_sym[idx][s];
                        }
                    }
                }
                eta.push(el);
                if let Some(bn) = newton.as_mut() {
                    bn.eta_prime.push(ep);
                    bn.d_sym.push(d0);
                }
            }
        }
        (eta, newton)
    }
}

/// Cross-element batched sum-factorized viscous operator ("TensB").
pub struct BatchedViscousOp {
    pub data: Arc<ViscousOpData>,
    path: SimdPath,
    t1d: Tensor1d,
    geom: Arc<BatchedGeometry>,
    /// Coefficient pack, `[lane][qp]` like `geom.geo`.
    eta: Vec<F64x4>,
    newton: Option<BatchNewton>,
    scratch: MaskScratch,
}

impl BatchedViscousOp {
    /// Build with the runtime-detected SIMD path.
    pub fn new(data: Arc<ViscousOpData>) -> Self {
        Self::with_path(data, detected_simd_path())
    }

    /// Build with an explicit path (tests compare the two bitwise).
    pub fn with_path(data: Arc<ViscousOpData>, path: SimdPath) -> Self {
        let geom = Arc::new(BatchedGeometry::with_path(&data, path));
        Self::with_geometry(data, geom, path)
    }

    /// Build on a geometry pack of the same mesh, packing only the
    /// coefficient. Bitwise the operator [`with_path`](Self::with_path)
    /// builds.
    pub fn with_geometry(
        data: Arc<ViscousOpData>,
        geom: Arc<BatchedGeometry>,
        path: SimdPath,
    ) -> Self {
        assert_eq!(
            (geom.slot.len(), geom.ndof),
            (data.nel, data.ndof),
            "geometry pack of another mesh"
        );
        let (eta, newton) = geom.pack_coefficient(&data);
        Self {
            data,
            path,
            t1d: Tensor1d::gauss3(),
            geom,
            eta,
            newton,
            scratch: MaskScratch::new(),
        }
    }

    /// The kernel path this operator dispatches to.
    pub fn path(&self) -> SimdPath {
        self.path
    }

    /// The shared geometry pack.
    pub fn geometry(&self) -> &Arc<BatchedGeometry> {
        &self.geom
    }

    /// Total lanes including ghost-padded tails.
    pub fn num_lanes(&self) -> usize {
        self.geom.lanes.len()
    }

    /// `y += A x`, and with `pressure = (x_p, y_p)` the whole saddle-point
    /// action in the same pass: `y += Bᵀ x_p` and `y_p = B x`.
    fn apply_add(&self, x: &[f64], y: &mut [f64], pressure: Option<(&[f64], &mut [f64])>) {
        let scatter = ColorScatter::new(y);
        let (xp, yp) = match pressure {
            Some((xp, yp)) => {
                yp.fill(0.0);
                (Some(xp), Some(ColorScatter::new(yp)))
            }
            None => (None, None),
        };
        let gp = &*self.geom;
        for_each_lane_colored(&gp.color_lane_ranges, LANES, |li| {
            let ln = &gp.lanes[li];
            // Scalar gather into SoA lanes (4 × 81 loads).
            let mut ue = [[F64x4::ZERO; 27]; 3];
            for (l, nodes) in ln.nodes.iter().enumerate() {
                for (i, &n) in nodes.iter().enumerate() {
                    let b = 3 * n as usize;
                    ue[0][i].0[l] = x[b];
                    ue[1][i].0[l] = x[b + 1];
                    ue[2][i].0[l] = x[b + 2];
                }
            }
            let mut pe = [F64x4::ZERO; NP1];
            if let Some(xp) = xp {
                for (l, &e) in ln.elems.iter().enumerate() {
                    for m in 0..NP1 {
                        pe[m].0[l] = xp[NP1 * e as usize + m];
                    }
                }
            }
            let geo = &gp.geo[li * NQP..(li + 1) * NQP];
            let eta = &self.eta[li * NQP..(li + 1) * NQP];
            let newton = self.newton.as_ref().map(|bn| {
                (
                    &bn.eta_prime[li * NQP..(li + 1) * NQP],
                    &bn.d_sym[li * NQP..(li + 1) * NQP],
                )
            });
            let pressure = xp.map(|_| LanePressure {
                psi: &gp.psi[li],
                pe: &pe,
            });
            let kernel = StokesLane {
                t1d: &self.t1d,
                geo,
                eta,
                newton,
                pressure,
                ue: &ue,
            };
            let mut out = ([[F64x4::ZERO; 27]; 3], [F64x4::ZERO; NP1]);
            run_lanes(self.path, kernel, &mut out);
            let (re, rp) = &out;
            // Scatter real slots only (ghost padding contributes nothing
            // and must not touch the duplicated element's dofs).
            for l in 0..ln.nreal as usize {
                for (i, &n) in ln.nodes[l].iter().enumerate() {
                    let b = 3 * n as usize;
                    // SAFETY: lanes are formed within one colour; elements
                    // of a colour share no nodes, so concurrent writers
                    // touch disjoint dofs.
                    unsafe {
                        scatter.add(b, re[0][i].0[l]);
                        scatter.add(b + 1, re[1][i].0[l]);
                        scatter.add(b + 2, re[2][i].0[l]);
                    }
                }
                if let Some(yp) = &yp {
                    for m in 0..NP1 {
                        // SAFETY: every element owns its four pressure dofs
                        // and sits in exactly one lane slot.
                        unsafe { yp.add(NP1 * ln.elems[l] as usize + m, -rp[m].0[l]) };
                    }
                }
            }
        });
    }

    /// `y_p = B x`: the divergence-only pass, bitwise the `y_p` of
    /// [`apply_add`](Self::apply_add) with a pressure.
    fn divergence(&self, x: &[f64], yp: &mut [f64]) {
        // The lane kernel gathers with i32 offsets `3·n + c`, all below
        // `geom.ndof` (= `data.ndof`, checked at construction), and every
        // element scatters to its own four entries of `yp`.
        assert!(x.len() == self.geom.ndof && x.len() <= i32::MAX as usize);
        assert_eq!(yp.len(), NP1 * self.data.nel);
        yp.fill(0.0);
        let yp = ColorScatter::new(yp);
        let gp = &*self.geom;
        for_each_lane_colored(&gp.color_lane_ranges, LANES, |li| {
            let ln = &gp.lanes[li];
            let geo = &gp.geo[li * NQP..(li + 1) * NQP];
            let psi = &gp.psi[li];
            let mut rp = [F64x4::ZERO; NP1];
            let kernel = DivergenceLane {
                t1d: &self.t1d,
                geo,
                psi,
                nodes: &ln.nodes,
                x,
            };
            run_lanes(self.path, kernel, &mut rp);
            for l in 0..ln.nreal as usize {
                for m in 0..NP1 {
                    // SAFETY: every element owns its four pressure dofs and
                    // sits in exactly one lane slot.
                    unsafe { yp.add(NP1 * ln.elems[l] as usize + m, -rp[m].0[l]) };
                }
            }
        });
    }
}

/// Pressure input of the fused Stokes pass for one lane: the corner values
/// of `ψ₁..ψ₃` and the four P1disc coefficients of each element.
#[derive(Clone, Copy)]
struct LanePressure<'a> {
    psi: &'a [[F64x4; NQ1]; 3],
    pe: &'a [F64x4; NP1],
}

/// The forward stage of both lane kernels: each velocity component to the
/// Gauss points once (`B̃⊗B̃⊗B̃`), then its three reference derivatives
/// there, one `D_c` contraction per direction: `ederiv[d][c]` = ∂u_c/∂ξ_d.
#[inline(always)]
fn reference_gradient<V: Lane>(
    t1d: &Tensor1d,
    ue: &[[F64x4; 27]; 3],
    ederiv: &mut [[[F64x4; 27]; 3]; 3],
) {
    for c in 0..3 {
        let mut uq = [F64x4::ZERO; 27];
        contract3_b::<V>(&t1d.b, &ue[c], &mut uq);
        contract_dim0_b::<V>(&t1d.dc, &uq, &mut ederiv[0][c]);
        contract_dim1_b::<V>(&t1d.dc, &uq, &mut ederiv[1][c]);
        contract_dim2_b::<V>(&t1d.dc, &uq, &mut ederiv[2][c]);
    }
}

/// The pressure test of both lane kernels: `w|J|·div u` at the quadrature
/// points (`dw`) tested against `ψ_m` through the 8 corner values,
/// `rp = −B x_u` of the lane (the caller negates).
#[inline(always)]
fn test_pressure<V: Lane>(
    t1d: &Tensor1d,
    dw: &[F64x4; 27],
    psi: &[[F64x4; NQ1]; 3],
    rp: &mut [F64x4; NP1],
) {
    let mut dc = [F64x4::ZERO; NQ1];
    qp_to_q1_b::<V>(t1d, dw, &mut dc);
    let mut acc = [V::splat(0.0); NP1];
    for c in 0..NQ1 {
        let d = ld::<V>(&dc[c]);
        acc[0] = acc[0] + d;
        for m in 0..3 {
            acc[m + 1] = ld::<V>(&psi[m][c]).mul_add(d, acc[m + 1]);
        }
    }
    for m in 0..NP1 {
        acc[m].store(&mut rp[m].0);
    }
}

/// The fused lane kernel: forward contractions → quadrature stress loop →
/// adjoint contractions. The contractions run in the collocation basis:
/// each velocity component is interpolated to the Gauss points once and
/// differentiated there by one `D_c` contraction per direction, and the
/// adjoint sums the three `D_cᵀ` contractions before one interpolation
/// back (12 instead of 18 contractions per component). Its output
/// `(re, rp)` is overwritten.
/// With `pressure` the quadrature loop also subtracts `p·w|J|` from the
/// stress diagonal (`Bᵀ x_p`) and keeps `w|J|·div u`, which tested against
/// `ψ_m` gives `rp` (`−B x_u`; the caller negates). The pressure is a
/// trilinear field on the element, so both directions go through its 8
/// corner values by Q1 sum factorization instead of 27 stored `ψ` per point.
struct StokesLane<'a> {
    t1d: &'a Tensor1d,
    geo: &'a [QpGeoLane],
    eta: &'a [F64x4],
    newton: Option<(&'a [F64x4], &'a [[F64x4; 6]])>,
    pressure: Option<LanePressure<'a>>,
    ue: &'a [[F64x4; 27]; 3],
}

impl LaneKernel for StokesLane<'_> {
    type Out = ([[F64x4; 27]; 3], [F64x4; NP1]);

    #[inline(always)]
    fn run<V: Lane>(self, (re, rp): &mut Self::Out) {
        let Self {
            t1d,
            geo,
            eta,
            newton,
            pressure,
            ue,
        } = self;
        let mut ederiv = [[[F64x4::ZERO; 27]; 3]; 3];
        reference_gradient::<V>(t1d, ue, &mut ederiv);
        let mut pq = [F64x4::ZERO; 27];
        let mut dw = [F64x4::ZERO; 27];
        if let Some(LanePressure { psi, pe }) = pressure {
            let mut pc = [F64x4::ZERO; NQ1];
            for c in 0..NQ1 {
                ld::<V>(&psi[0][c])
                    .mul_add(
                        ld(&pe[1]),
                        ld::<V>(&psi[1][c]).mul_add(
                            ld(&pe[2]),
                            ld::<V>(&psi[2][c]).mul_add(ld(&pe[3]), ld(&pe[0])),
                        ),
                    )
                    .store(&mut pc[c].0);
            }
            q1_to_qp_b::<V>(t1d, &pc, &mut pq);
        }
        let mut what = [[[F64x4::ZERO; 27]; 3]; 3];
        for q in 0..NQP {
            let g = &geo[q];
            let mut j = [[V::splat(0.0); 3]; 3];
            for d in 0..3 {
                for l in 0..3 {
                    j[d][l] = ld(&g.jinv[d][l]);
                }
            }
            let wdet = ld::<V>(&g.wdet);
            let mut gradu = [[V::splat(0.0); 3]; 3];
            for c in 0..3 {
                let (e0, e1, e2) = (
                    ld::<V>(&ederiv[0][c][q]),
                    ld::<V>(&ederiv[1][c][q]),
                    ld::<V>(&ederiv[2][c][q]),
                );
                for l in 0..3 {
                    gradu[c][l] = e0.mul_add(j[0][l], e1.mul_add(j[1][l], e2 * j[2][l]));
                }
            }
            let nd = newton.map(|(ep, d0)| (ld::<V>(&ep[q]), &d0[q]));
            let mut sigma = weighted_stress_b(&gradu, ld(&eta[q]), nd, wdet);
            if pressure.is_some() {
                let pw = ld::<V>(&pq[q]) * wdet;
                for c in 0..3 {
                    sigma[c][c] = sigma[c][c] - pw;
                }
                (((gradu[0][0] + gradu[1][1]) + gradu[2][2]) * wdet).store(&mut dw[q].0);
            }
            for d in 0..3 {
                for c in 0..3 {
                    sigma[c][0]
                        .mul_add(j[d][0], sigma[c][1].mul_add(j[d][1], sigma[c][2] * j[d][2]))
                        .store(&mut what[d][c][q].0);
                }
            }
        }
        for c in 0..3 {
            let mut a = [[F64x4::ZERO; 27]; 3];
            contract_dim0_b::<V>(&t1d.dct, &what[0][c], &mut a[0]);
            contract_dim1_b::<V>(&t1d.dct, &what[1][c], &mut a[1]);
            contract_dim2_b::<V>(&t1d.dct, &what[2][c], &mut a[2]);
            for i in 0..27 {
                ((ld::<V>(&a[0][i]) + ld(&a[1][i])) + ld(&a[2][i])).store(&mut a[0][i].0);
            }
            contract3_b::<V>(&t1d.bt, &a[0], &mut re[c]);
        }
        if let Some(LanePressure { psi, .. }) = pressure {
            test_pressure::<V>(t1d, &dw, psi, rp);
        }
    }
}

/// The divergence-only lane kernel: the lane's velocity dofs gathered from
/// `x` (one hardware gather per node and component under AVX), then the
/// forward stage, the quadrature loop and the pressure test of
/// [`StokesLane`] with only the trace of the gradient formed at each
/// point, every product in the fused kernel's order, so `rp` receives the
/// fused kernel's `rp` bit for bit.
struct DivergenceLane<'a> {
    t1d: &'a Tensor1d,
    geo: &'a [QpGeoLane],
    psi: &'a [[F64x4; NQ1]; 3],
    nodes: &'a [[u32; NQ2]; LANES],
    x: &'a [f64],
}

impl LaneKernel for DivergenceLane<'_> {
    type Out = [F64x4; NP1];

    #[inline(always)]
    fn run<V: Lane>(self, rp: &mut [F64x4; NP1]) {
        let Self {
            t1d,
            geo,
            psi,
            nodes,
            x,
        } = self;
        let mut ue = [[F64x4::ZERO; 27]; 3];
        for i in 0..NQ2 {
            let idx = [
                3 * nodes[0][i],
                3 * nodes[1][i],
                3 * nodes[2][i],
                3 * nodes[3][i],
            ];
            for c in 0..3 {
                // SAFETY: `BatchedViscousOp::divergence` asserts
                // `x.len() == geom.ndof ≤ i32::MAX`, and every node index
                // of a lane is below `geom.ndof / 3`, so `3·n + c <
                // x.len()`: each index is below `x[c..].len()`.
                unsafe { V::gather(&x[c..], idx) }.store(&mut ue[c][i].0);
            }
        }
        let mut ederiv = [[[F64x4::ZERO; 27]; 3]; 3];
        reference_gradient::<V>(t1d, &ue, &mut ederiv);
        let mut dw = [F64x4::ZERO; 27];
        for q in 0..NQP {
            let g = &geo[q];
            let mut tr = [V::splat(0.0); 3];
            for c in 0..3 {
                tr[c] = ld::<V>(&ederiv[0][c][q]).mul_add(
                    ld(&g.jinv[0][c]),
                    ld::<V>(&ederiv[1][c][q]).mul_add(
                        ld(&g.jinv[1][c]),
                        ld::<V>(&ederiv[2][c][q]) * ld(&g.jinv[2][c]),
                    ),
                );
            }
            (((tr[0] + tr[1]) + tr[2]) * ld(&g.wdet)).store(&mut dw[q].0);
        }
        test_pressure::<V>(t1d, &dw, psi, rp);
    }
}

/// Batched [`crate::kernels::weighted_stress`]. The Newton rank-one term is
/// computed unconditionally (per-lane `η′` may mix zero and non-zero); with
/// `η′ = 0` it adds exactly zero.
#[inline(always)]
fn weighted_stress_b<V: Lane>(
    gradu: &[[V; 3]; 3],
    eta: V,
    newton: Option<(V, &[F64x4; 6])>,
    wdet: V,
) -> [[V; 3]; 3] {
    let half = V::splat(0.5);
    let two = V::splat(2.0);
    let d01 = half * (gradu[0][1] + gradu[1][0]);
    let d02 = half * (gradu[0][2] + gradu[2][0]);
    let d12 = half * (gradu[1][2] + gradu[2][1]);
    let d = [
        [gradu[0][0], d01, d02],
        [d01, gradu[1][1], d12],
        [d02, d12, gradu[2][2]],
    ];
    let c = (two * eta) * wdet;
    let mut sigma = [[V::splat(0.0); 3]; 3];
    for r in 0..3 {
        for cc in 0..3 {
            sigma[r][cc] = c * d[r][cc];
        }
    }
    if let Some((ep, d0)) = newton {
        let d0 = [
            ld::<V>(&d0[0]),
            ld(&d0[1]),
            ld(&d0[2]),
            ld(&d0[3]),
            ld(&d0[4]),
            ld(&d0[5]),
        ];
        // D₀ : D with symmetric storage [xx,yy,zz,yz,xz,xy].
        let dd = d0[0].mul_add(d[0][0], d0[1].mul_add(d[1][1], d0[2] * d[2][2]))
            + two * d0[3].mul_add(d[1][2], d0[4].mul_add(d[0][2], d0[5] * d[0][1]));
        let f = ((two * ep) * dd) * wdet;
        sigma[0][0] = f.mul_add(d0[0], sigma[0][0]);
        sigma[1][1] = f.mul_add(d0[1], sigma[1][1]);
        sigma[2][2] = f.mul_add(d0[2], sigma[2][2]);
        sigma[1][2] = f.mul_add(d0[3], sigma[1][2]);
        sigma[2][1] = f.mul_add(d0[3], sigma[2][1]);
        sigma[0][2] = f.mul_add(d0[4], sigma[0][2]);
        sigma[2][0] = f.mul_add(d0[4], sigma[2][0]);
        sigma[0][1] = f.mul_add(d0[5], sigma[0][1]);
        sigma[1][0] = f.mul_add(d0[5], sigma[1][0]);
    }
    sigma
}

impl LinearOperator for BatchedViscousOp {
    fn nrows(&self) -> usize {
        self.data.ndof
    }
    fn ncols(&self) -> usize {
        self.data.ndof
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let _ev = prof::scope("MatMult_TensorBatched");
        let model = crate::counts::tensor_batched_model();
        prof::log_flops(model.flops * self.data.nel as u64);
        prof::log_bytes(model.bytes_perfect * self.data.nel as u64);
        y.fill(0.0);
        if self.data.constrained.is_empty() {
            self.apply_add(x, y, None);
        } else {
            self.scratch
                .with_masked(&self.data, x, |xm| self.apply_add(xm, y, None));
            self.data.finish_masked(x, y);
        }
    }
    fn diagonal(&self) -> Option<Vec<f64>> {
        Some(crate::diag::viscous_diagonal(&self.data, &self.geom))
    }
    /// One pass over the elements instead of the kernel plus two sweeps
    /// over `b`: the masked input makes the divergence `b`'s (Dirichlet
    /// columns zeroed) and `finish_masked` overwrites the constrained rows
    /// of the gradient, so the result is the block composition's.
    fn apply_stokes(
        &self,
        b: &dyn CouplingBlock,
        xu: &[f64],
        xp: &[f64],
        yu: &mut [f64],
        yp: &mut [f64],
    ) {
        debug_assert_eq!(
            (b.nrows(), b.ncols()),
            (NP1 * self.data.nel, self.data.ndof)
        );
        let _ev = prof::scope("MatMult_StokesBatched");
        let model = crate::counts::stokes_batched_model();
        prof::log_flops(model.flops * self.data.nel as u64);
        prof::log_bytes(model.bytes_perfect * self.data.nel as u64);
        yu.fill(0.0);
        if self.data.constrained.is_empty() {
            self.apply_add(xu, yu, Some((xp, yp)));
        } else {
            self.scratch
                .with_masked(&self.data, xu, |xm| self.apply_add(xm, yu, Some((xp, yp))));
            self.data.finish_masked(xu, yu);
        }
    }
    /// The forward half of the fused pass over the same masked input, so
    /// `y_p` is bitwise the one [`apply_stokes`](Self::apply_stokes)
    /// writes; `b` is read for its shape only.
    fn apply_divergence(&self, b: &dyn CouplingBlock, xu: &[f64], yp: &mut [f64]) {
        debug_assert_eq!(
            (b.nrows(), b.ncols()),
            (NP1 * self.data.nel, self.data.ndof)
        );
        let _ev = prof::scope("MatMult_DivergenceBatched");
        let model = crate::counts::divergence_batched_model();
        prof::log_flops(model.flops * self.data.nel as u64);
        prof::log_bytes(model.bytes_perfect * self.data.nel as u64);
        if self.data.constrained.is_empty() {
            self.divergence(xu, yp);
        } else {
            self.scratch
                .with_masked(&self.data, xu, |xm| self.divergence(xm, yp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{contract_dim0, contract_dim1, contract_dim2, TensorViscousOp};
    use ptatin_fem::bc::DirichletBc;
    use ptatin_mesh::StructuredMesh;

    fn lane_input() -> ([F64x4; 27], [[f64; 27]; 4]) {
        let mut scalar = [[0.0f64; 27]; 4];
        let mut lanes = [F64x4::ZERO; 27];
        for l in 0..4 {
            for i in 0..27 {
                let v = ((i * 7 + l * 13) % 23) as f64 / 5.0 - 2.0;
                scalar[l][i] = v;
                lanes[i].0[l] = v;
            }
        }
        (lanes, scalar)
    }

    #[test]
    fn batched_contractions_match_scalar() {
        let t = Tensor1d::gauss3();
        let (lanes, scalar) = lane_input();
        for (dim, f_b, f_s) in [
            (
                0usize,
                contract_dim0_b::<F64x4> as fn(_, _, &mut _),
                contract_dim0 as fn(_, _, &mut _),
            ),
            (1, contract_dim1_b::<F64x4>, contract_dim1),
            (2, contract_dim2_b::<F64x4>, contract_dim2),
        ] {
            let mut out_b = [F64x4::ZERO; 27];
            f_b(&t.d, &lanes, &mut out_b);
            for l in 0..4 {
                let mut out_s = [0.0f64; 27];
                f_s(&t.d, &scalar[l], &mut out_s);
                for i in 0..27 {
                    assert!(
                        (out_b[i].0[l] - out_s[i]).abs() < 1e-13,
                        "dim {dim} lane {l} entry {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn q1_contractions_interpolate_and_are_adjoint() {
        let t = Tensor1d::gauss3();
        let quad = &crate::data::shared_tables().quad;
        // Corner values of one trilinear function per lane.
        let f = |l: usize, xi: [f64; 3]| {
            let k = l as f64 + 1.0;
            0.3 * k - 0.7 * xi[0] + k * xi[1] * xi[2] + 0.2 * xi[0] * xi[1] * xi[2] - xi[2]
        };
        let mut corners = [F64x4::ZERO; NQ1];
        for c in 0..NQ1 {
            let xi = [0, 1, 2].map(|d| if (c >> d) & 1 == 1 { 1.0 } else { -1.0 });
            for l in 0..LANES {
                corners[c].0[l] = f(l, xi);
            }
        }
        let mut at_qp = [F64x4::ZERO; 27];
        q1_to_qp_b::<F64x4>(&t, &corners, &mut at_qp);
        for q in 0..NQP {
            for l in 0..LANES {
                assert!(
                    (at_qp[q].0[l] - f(l, quad.points[q])).abs() < 1e-14,
                    "qp {q}"
                );
            }
        }
        // <I a, b> = <a, Iᵀ b>.
        let (b, _) = lane_input();
        let mut back = [F64x4::ZERO; NQ1];
        qp_to_q1_b::<F64x4>(&t, &b, &mut back);
        for l in 0..LANES {
            let lhs: f64 = (0..NQP).map(|q| at_qp[q].0[l] * b[q].0[l]).sum();
            let rhs: f64 = (0..NQ1).map(|c| corners[c].0[l] * back[c].0[l]).sum();
            assert!(
                (lhs - rhs).abs() < 1e-12 * (1.0 + lhs.abs()),
                "{lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn lane_padding_has_zero_metrics() {
        // 5 elements: colour 0 holds a single element on a 2×2×2-ish mesh?
        // Use a 5×1×1 mesh: colours 0 and 1 hold 3 and 2 elements → both
        // tails are padded.
        let mesh = StructuredMesh::new_box(5, 1, 1, [0.0, 5.0], [0.0, 1.0], [0.0, 1.0]);
        let eta = vec![1.0; mesh.num_elements() * NQP];
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &DirichletBc::new()));
        let op = BatchedViscousOp::with_path(data.clone(), SimdPath::Portable);
        assert_eq!(op.num_lanes(), 2);
        let gp = op.geometry();
        for (li, ln) in gp.lanes.iter().enumerate() {
            for l in ln.nreal as usize..LANES {
                for corner_psi in &gp.psi[li] {
                    assert!(
                        corner_psi.iter().all(|v| v.0[l] == 0.0),
                        "ghost ψ must be zero"
                    );
                }
                for q in 0..NQP {
                    let g = &gp.geo[li * NQP + q];
                    assert_eq!(g.wdet.0[l], 0.0, "ghost wdet must be zero");
                    assert_eq!(op.eta[li * NQP + q].0[l], 0.0, "ghost eta must be zero");
                    for d in 0..3 {
                        for x in 0..3 {
                            assert_eq!(g.jinv[d][x].0[l], 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_matches_tensor_on_remainder_mesh() {
        // 3×1×2 = 6 elements: every colour has ≤ 2 elements, all lanes
        // are ghost-padded tails.
        let mut mesh = StructuredMesh::new_box(3, 1, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        mesh.deform(|c| [c[0] + 0.03 * c[1] * c[2], c[1] - 0.02 * c[0], c[2]]);
        let eta: Vec<f64> = (0..mesh.num_elements() * NQP)
            .map(|i| 0.5 + ((i * 19) % 13) as f64)
            .collect();
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &DirichletBc::new()));
        let tensor = TensorViscousOp::new(data.clone());
        let batched = BatchedViscousOp::new(data);
        let n = tensor.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        tensor.apply(&x, &mut y1);
        batched.apply(&x, &mut y2);
        let scale = 1.0 + y1.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            assert!(
                (y1[i] - y2[i]).abs() < 1e-12 * scale,
                "dof {i}: {} vs {}",
                y1[i],
                y2[i]
            );
        }
    }

    #[test]
    fn both_paths_agree_bitwise_when_available() {
        if !avx2_fma_available() {
            return; // nothing to compare on this host
        }
        let mesh = StructuredMesh::new_box(3, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let eta: Vec<f64> = (0..mesh.num_elements() * NQP)
            .map(|i| 1.0 + ((i * 31) % 7) as f64)
            .collect();
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &DirichletBc::new()));
        let port = BatchedViscousOp::with_path(data.clone(), SimdPath::Portable);
        let avx = BatchedViscousOp::with_path(data, SimdPath::Avx2Fma);
        let n = port.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).cos()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        port.apply(&x, &mut y1);
        avx.apply(&x, &mut y2);
        for i in 0..n {
            assert_eq!(
                y1[i].to_bits(),
                y2[i].to_bits(),
                "paths differ at dof {i}: {} vs {}",
                y1[i],
                y2[i]
            );
        }
    }

    #[test]
    fn env_override_forces_portable() {
        // detected_simd_path reads the env at call time; we can't set the
        // process env safely in a threaded test run, so only check the
        // pure-hardware predicate is consistent with the dispatch result.
        let p = detected_simd_path();
        if !avx2_fma_available() {
            assert_eq!(p, SimdPath::Portable);
        }
    }
}
