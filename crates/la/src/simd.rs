//! Shared SIMD substrate: the `F64x4` lane type, runtime path dispatch and
//! the batched slice/lane kernels used across the per-step pipeline.
//!
//! PR 4 introduced cross-element batching for the viscous operator inside
//! `ptatin-ops`; this module hoists the primitives into `ptatin-la` so the
//! remaining hot kernels — MPM projection (P2G/G2P), the GMG grid transfer
//! and the Chebyshev smoother's vector ops — can share one `F64x4`, one
//! dispatch decision and one bitwise contract (`ptatin-ops` re-exports
//! these names, so its public API is unchanged).
//!
//! The contract (DESIGN.md §9): every kernel exists twice, a portable
//! scalar-per-lane implementation and an explicit AVX2(+FMA) one, both
//! executing the *same* operation sequence per lane. Kernels built from
//! plain mul/add/sub/div are bitwise identical to their scalar references
//! by construction (each IEEE operation is performed on the same operands
//! in the same order); kernels that fuse use `f64::mul_add` portably and
//! `_mm256_fmadd_pd` under AVX — identical fusion order, identical bits.
//! (The advection kernels get their two implementations from one body
//! generic over the lane type instead of from two written-out copies.)
//! Workspace crates outside la/ops forbid `unsafe`, so the AVX bodies live
//! here and callers pick a path via [`SimdPath`].

/// Lanes per SIMD batch (one AVX 256-bit register of f64).
pub const LANES: usize = 4;

/// Four f64 values, one per slot of a batch. 32-byte aligned so the AVX
/// path can use aligned loads/stores directly on the same arrays the
/// portable path indexes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(32))]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    pub const ZERO: F64x4 = F64x4([0.0; 4]);

    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }

    /// Elementwise fused multiply-add `self·a + b` (single rounding per
    /// lane — the portable mirror of `_mm256_fmadd_pd`).
    #[inline(always)]
    pub fn mul_add(self, a: F64x4, b: F64x4) -> F64x4 {
        F64x4([
            self.0[0].mul_add(a.0[0], b.0[0]),
            self.0[1].mul_add(a.0[1], b.0[1]),
            self.0[2].mul_add(a.0[2], b.0[2]),
            self.0[3].mul_add(a.0[3], b.0[3]),
        ])
    }
}

impl std::ops::Add for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn add(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0] + o.0[0],
            self.0[1] + o.0[1],
            self.0[2] + o.0[2],
            self.0[3] + o.0[3],
        ])
    }
}

impl std::ops::Sub for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn sub(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0] - o.0[0],
            self.0[1] - o.0[1],
            self.0[2] - o.0[2],
            self.0[3] - o.0[3],
        ])
    }
}

impl std::ops::Mul for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn mul(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0] * o.0[0],
            self.0[1] * o.0[1],
            self.0[2] * o.0[2],
            self.0[3] * o.0[3],
        ])
    }
}

impl std::ops::Div for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn div(self, o: F64x4) -> F64x4 {
        F64x4([
            self.0[0] / o.0[0],
            self.0[1] / o.0[1],
            self.0[2] / o.0[2],
            self.0[3] / o.0[3],
        ])
    }
}

/// Which kernel implementation a batched component dispatches to. Chosen
/// once at construction; both paths produce bitwise-identical results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdPath {
    /// Scalar-per-lane kernels, correct on every target.
    Portable,
    /// Explicit `core::arch::x86_64` AVX2+FMA intrinsics.
    Avx2Fma,
}

/// Hardware capability check only (ignores the env override): can this
/// host run the AVX2+FMA kernels at all?
pub fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runtime dispatch decision: AVX2+FMA when the CPU supports it, unless
/// `PTATIN_NO_AVX` is set (non-empty, not `"0"`) to force the portable
/// fallback — the knob CI uses to keep that path green on any host.
/// Re-reads the environment on every call (operators capture the decision
/// at construction).
pub fn detected_simd_path() -> SimdPath {
    if std::env::var("PTATIN_NO_AVX").is_ok_and(|v| !v.is_empty() && v != "0") {
        return SimdPath::Portable;
    }
    if avx2_fma_available() {
        SimdPath::Avx2Fma
    } else {
        SimdPath::Portable
    }
}

/// [`detected_simd_path`] evaluated once per process and cached — for
/// kernels called directly on slices (no constructed operator to hold the
/// decision). `PTATIN_NO_AVX` is a process-level CI knob, so latching the
/// first answer is safe; tests that need both paths in one process pass an
/// explicit [`SimdPath`] instead.
pub fn runtime_simd_path() -> SimdPath {
    use std::sync::OnceLock;
    static PATH: OnceLock<SimdPath> = OnceLock::new();
    *PATH.get_or_init(detected_simd_path)
}

// ---------------------------------------------------------------------------
// Chebyshev / BLAS-1 slice kernels
// ---------------------------------------------------------------------------
//
// All four are elementwise with plain mul/add/sub/div only (no fusion), so
// portable, AVX and the scalar loops they replaced are bitwise identical —
// swapping them into `Chebyshev::smooth_with` changes no result anywhere.

/// `y[i] += alpha * x[i]` (the smoother's correction/residual axpy).
pub fn axpy(path: SimdPath, alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    match path {
        SimdPath::Portable => axpy_portable(alpha, x, y),
        SimdPath::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2Fma is only selected when `avx2_fma_available`
            // reported support (or by tests on such hosts).
            unsafe {
                avx::axpy(alpha, x, y)
            }
            #[cfg(not(target_arch = "x86_64"))]
            axpy_portable(alpha, x, y)
        }
    }
}

fn axpy_portable(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `r[i] = b[i] - r[i]` — the residual flip after `r = A x`.
pub fn residual_ip(path: SimdPath, b: &[f64], r: &mut [f64]) {
    debug_assert_eq!(b.len(), r.len());
    match path {
        SimdPath::Portable => residual_ip_portable(b, r),
        SimdPath::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `axpy` — path implies hardware support.
            unsafe {
                avx::residual_ip(b, r)
            }
            #[cfg(not(target_arch = "x86_64"))]
            residual_ip_portable(b, r)
        }
    }
}

fn residual_ip_portable(b: &[f64], r: &mut [f64]) {
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
}

/// `d[i] = inv_diag[i] * r[i] / theta` — the Chebyshev direction seed.
pub fn cheb_d_init(path: SimdPath, inv_diag: &[f64], r: &[f64], theta: f64, d: &mut [f64]) {
    debug_assert_eq!(inv_diag.len(), d.len());
    debug_assert_eq!(r.len(), d.len());
    match path {
        SimdPath::Portable => cheb_d_init_portable(inv_diag, r, theta, d),
        SimdPath::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `axpy` — path implies hardware support.
            unsafe {
                avx::cheb_d_init(inv_diag, r, theta, d)
            }
            #[cfg(not(target_arch = "x86_64"))]
            cheb_d_init_portable(inv_diag, r, theta, d)
        }
    }
}

fn cheb_d_init_portable(inv_diag: &[f64], r: &[f64], theta: f64, d: &mut [f64]) {
    for i in 0..d.len() {
        d[i] = inv_diag[i] * r[i] / theta;
    }
}

/// `d[i] = c1 * d[i] + c2 * inv_diag[i] * r[i]` — the Chebyshev direction
/// recurrence (left-associated exactly as written).
pub fn cheb_update(path: SimdPath, c1: f64, c2: f64, inv_diag: &[f64], r: &[f64], d: &mut [f64]) {
    debug_assert_eq!(inv_diag.len(), d.len());
    debug_assert_eq!(r.len(), d.len());
    match path {
        SimdPath::Portable => cheb_update_portable(c1, c2, inv_diag, r, d),
        SimdPath::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `axpy` — path implies hardware support.
            unsafe {
                avx::cheb_update(c1, c2, inv_diag, r, d)
            }
            #[cfg(not(target_arch = "x86_64"))]
            cheb_update_portable(c1, c2, inv_diag, r, d)
        }
    }
}

fn cheb_update_portable(c1: f64, c2: f64, inv_diag: &[f64], r: &[f64], d: &mut [f64]) {
    for i in 0..d.len() {
        d[i] = c1 * d[i] + c2 * inv_diag[i] * r[i];
    }
}

// ---------------------------------------------------------------------------
// P2G / G2P lane kernels
// ---------------------------------------------------------------------------

/// Trilinear (Q1 hat) weights of 4 points at once. Mirrors
/// `ptatin_fem::basis::q1_basis` operation for operation —
/// `l = 0.5*(1 ± ξ)` then `out[n] = (lx*ly)*lz` in the same n-order — so
/// each lane is bitwise identical to the scalar basis evaluation (tested
/// from `ptatin-mpm`, which owns both call sites).
pub fn q1_hat_weights_x4(path: SimdPath, xi0: F64x4, xi1: F64x4, xi2: F64x4, out: &mut [F64x4; 8]) {
    match path {
        SimdPath::Portable => q1_hat_weights_x4_portable(xi0, xi1, xi2, out),
        SimdPath::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `axpy` — path implies hardware support.
            unsafe {
                avx::q1_hat_weights_x4(xi0, xi1, xi2, out)
            }
            #[cfg(not(target_arch = "x86_64"))]
            q1_hat_weights_x4_portable(xi0, xi1, xi2, out)
        }
    }
}

/// [`q1_hat_weights_x4`] over a whole chunk of lanes in one call — `xi`
/// holds 3 coordinate vectors per lane (`[ξ₀, ξ₁, ξ₂]` lane-major), `out`
/// receives 8 weight vectors per lane. One dispatch amortizes the
/// non-inlinable `target_feature` call over the chunk; each lane's values
/// are identical to a [`q1_hat_weights_x4`] call, hence bitwise identical
/// to the scalar basis evaluation on both paths.
pub fn q1_hat_weights_many(path: SimdPath, xi: &[F64x4], out: &mut [F64x4]) {
    let nlanes = xi.len() / 3;
    debug_assert_eq!(xi.len(), 3 * nlanes);
    debug_assert_eq!(out.len(), 8 * nlanes);
    match path {
        SimdPath::Portable => q1_hat_weights_many_portable(xi, out),
        SimdPath::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `axpy` — path implies hardware support.
            unsafe {
                avx::q1_hat_weights_many(xi, out)
            }
            #[cfg(not(target_arch = "x86_64"))]
            q1_hat_weights_many_portable(xi, out)
        }
    }
}

fn q1_hat_weights_many_portable(xi: &[F64x4], out: &mut [F64x4]) {
    for (l, w) in out.chunks_exact_mut(8).enumerate() {
        // PANIC-OK: chunks_exact_mut(8) yields exactly 8 elements.
        let w8: &mut [F64x4; 8] = w.try_into().expect("chunk of 8");
        q1_hat_weights_x4_portable(xi[3 * l], xi[3 * l + 1], xi[3 * l + 2], w8);
    }
}

fn q1_hat_weights_x4_portable(xi0: F64x4, xi1: F64x4, xi2: F64x4, out: &mut [F64x4; 8]) {
    let half = F64x4::splat(0.5);
    let one = F64x4::splat(1.0);
    let lx = [half * (one - xi0), half * (one + xi0)];
    let ly = [half * (one - xi1), half * (one + xi1)];
    let lz = [half * (one - xi2), half * (one + xi2)];
    let mut n = 0;
    for c in 0..2 {
        for b in 0..2 {
            for a in 0..2 {
                out[n] = lx[a] * ly[b] * lz[c];
                n += 1;
            }
        }
    }
}

/// Interpolate a gathered 8-corner lane to `out.len()` quadrature points:
/// `out[q] = Σ_k wq[q][k] · f[k]`, accumulated with plain mul/add in
/// ascending `k` — the exact operation sequence of the scalar G2P loop, so
/// each lane is bitwise identical to the scalar interpolation.
pub fn dot8_table(path: SimdPath, wq: &[[f64; 8]], f: &[F64x4; 8], out: &mut [F64x4]) {
    debug_assert!(out.len() >= wq.len());
    match path {
        SimdPath::Portable => dot8_table_portable(wq, f, out),
        SimdPath::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `axpy` — path implies hardware support.
            unsafe {
                avx::dot8_table(wq, f, out)
            }
            #[cfg(not(target_arch = "x86_64"))]
            dot8_table_portable(wq, f, out)
        }
    }
}

fn dot8_table_portable(wq: &[[f64; 8]], f: &[F64x4; 8], out: &mut [F64x4]) {
    for (q, w) in wq.iter().enumerate() {
        let mut acc = F64x4::ZERO;
        for k in 0..8 {
            acc = acc + F64x4::splat(w[k]) * f[k];
        }
        out[q] = acc;
    }
}

// ---------------------------------------------------------------------------
// Material-point advection lane kernels
// ---------------------------------------------------------------------------
//
// Four independent points per call, array-of-structs in and out: the
// kernels transpose into lanes themselves, so a caller hands over plain
// per-point arrays (one `&` per lane — lanes in the same element share the
// reference). Each kernel is one body, generic over [`Lane`], instantiated
// with `F64x4` (portable) and with the AVX register wrapper `avx::V4`:
// the same plain mul/add/sub/div/sqrt sequence either way, no FMA.

/// The lane arithmetic the advection kernels, the envelope Cholesky of
/// `crate::cholesky` and the [`LaneKernel`]s of other crates are written
/// in. Every method is one correctly-rounded IEEE operation per lane, so
/// two implementations cannot differ in bits.
pub trait Lane:
    Copy
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
{
    fn splat(v: f64) -> Self;
    fn from_array(a: [f64; LANES]) -> Self;
    fn to_array(self) -> [f64; LANES];
    /// [`from_array`](Self::from_array) of four adjacent values in memory
    /// (one unaligned vector load under AVX).
    #[inline(always)]
    fn load(s: &[f64; LANES]) -> Self {
        Self::from_array(*s)
    }
    /// The inverse of [`load`](Self::load).
    #[inline(always)]
    fn store(self, out: &mut [f64; LANES]) {
        *out = self.to_array();
    }
    fn sqrt(self) -> Self;
    /// Per-lane `f64::clamp` (NaN stays NaN).
    fn clamp(self, lo: f64, hi: f64) -> Self;
}

impl Lane for F64x4 {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        F64x4::splat(v)
    }
    #[inline(always)]
    fn from_array(a: [f64; LANES]) -> Self {
        F64x4(a)
    }
    #[inline(always)]
    fn to_array(self) -> [f64; LANES] {
        self.0
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        F64x4(self.0.map(f64::sqrt))
    }
    #[inline(always)]
    fn clamp(self, lo: f64, hi: f64) -> Self {
        F64x4(self.0.map(|v| v.clamp(lo, hi)))
    }
}

/// Four per-point 3-vectors as three coordinate lane vectors. (Written
/// out, like every loop in the bodies below: a closure passed to
/// `array::map` is compiled outside the AVX wrapper's target features and
/// the intrinsics in it stay calls.)
#[inline(always)]
fn lanes_of3<V: Lane>(p: [&[f64; 3]; LANES]) -> [V; 3] {
    [
        V::from_array([p[0][0], p[1][0], p[2][0], p[3][0]]),
        V::from_array([p[0][1], p[1][1], p[2][1], p[3][1]]),
        V::from_array([p[0][2], p[1][2], p[2][2], p[3][2]]),
    ]
}

/// The inverse of [`lanes_of3`].
#[inline(always)]
fn points_of3<V: Lane>(v: [V; 3]) -> [[f64; 3]; LANES] {
    let a = [v[0].to_array(), v[1].to_array(), v[2].to_array()];
    let mut out = [[0.0; 3]; LANES];
    for l in 0..LANES {
        out[l] = [a[0][l], a[1][l], a[2][l]];
    }
    out
}

/// Newton inversion of the trilinear map for 4 points at once: lane `l`
/// solves `x(ξ) = x[l]` in the hexahedron `corners[l]`, cold start ξ = 0.
/// Returns the per-lane convergence flags; `xi[l]` is written only for
/// converged lanes.
///
/// Mirrors `ptatin_fem::geometry::inverse_map` operation for operation
/// (`q1_basis`/`map_to_physical`, `q1_grad`/`jacobian`, `det3`/`inv3`, the
/// ±10 clamp) in the same operand order, so a converged lane holds exactly
/// the bits the scalar routine returns and a lane the scalar routine
/// rejects (singular Jacobian, `max_it` exhausted) is never flagged
/// converged. Lanes keep iterating after they converge or fail — their ξ
/// was captured at the convergence test, nothing later feeds another lane
/// — and the loop ends when every lane is settled.
pub fn trilinear_inverse_x4(
    path: SimdPath,
    corners: [&[[f64; 3]; 8]; LANES],
    x: &[[f64; 3]; LANES],
    tol: f64,
    max_it: usize,
    xi: &mut [[f64; 3]; LANES],
) -> [bool; LANES] {
    match path {
        SimdPath::Portable => trilinear_inverse_x4_body::<F64x4>(corners, x, tol, max_it, xi),
        SimdPath::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `axpy` — path implies hardware support.
            unsafe {
                avx::trilinear_inverse_x4(corners, x, tol, max_it, xi)
            }
            #[cfg(not(target_arch = "x86_64"))]
            trilinear_inverse_x4_body::<F64x4>(corners, x, tol, max_it, xi)
        }
    }
}

#[inline(always)]
fn trilinear_inverse_x4_body<V: Lane>(
    corners: [&[[f64; 3]; 8]; LANES],
    x: &[[f64; 3]; LANES],
    tol: f64,
    max_it: usize,
    xi_out: &mut [[f64; 3]; LANES],
) -> [bool; LANES] {
    let zero = V::splat(0.0);
    let half = V::splat(0.5);
    let one = V::splat(1.0);
    let dh = [V::splat(-0.5), half];
    let mut cl = [[zero; 3]; 8];
    for (k, c) in cl.iter_mut().enumerate() {
        *c = lanes_of3([
            &corners[0][k],
            &corners[1][k],
            &corners[2][k],
            &corners[3][k],
        ]);
    }
    let xt: [V; 3] = lanes_of3([&x[0], &x[1], &x[2], &x[3]]);
    let mut xi = [zero; 3];
    let mut active = [true; LANES];
    let mut converged = [false; LANES];
    for _ in 0..max_it {
        let lx = [half * (one - xi[0]), half * (one + xi[0])];
        let ly = [half * (one - xi[1]), half * (one + xi[1])];
        let lz = [half * (one - xi[2]), half * (one + xi[2])];
        // map_to_physical: Σ N_n · corner_n from 0.0, ascending n.
        let mut xc = [zero; 3];
        let mut n = 0;
        for c in 0..2 {
            for b in 0..2 {
                for a in 0..2 {
                    let w = lx[a] * ly[b] * lz[c];
                    for i in 0..3 {
                        xc[i] = xc[i] + w * cl[n][i];
                    }
                    n += 1;
                }
            }
        }
        let r = [xt[0] - xc[0], xt[1] - xc[1], xt[2] - xc[2]];
        let rn = (r[0] * r[0] + r[1] * r[1] + r[2] * r[2]).sqrt().to_array();
        for l in 0..LANES {
            if active[l] && rn[l] < tol {
                xi_out[l] = points_of3(xi)[l];
                active[l] = false;
                converged[l] = true;
            }
        }
        if active == [false; LANES] {
            break;
        }
        // jacobian: Σ corner_n ⊗ ∇N_n from 0.0, ascending n.
        let mut j = [[zero; 3]; 3];
        let mut n = 0;
        for c in 0..2 {
            for b in 0..2 {
                for a in 0..2 {
                    let g = [
                        dh[a] * ly[b] * lz[c],
                        lx[a] * dh[b] * lz[c],
                        lx[a] * ly[b] * dh[c],
                    ];
                    for i in 0..3 {
                        for d in 0..3 {
                            j[i][d] = j[i][d] + cl[n][i] * g[d];
                        }
                    }
                    n += 1;
                }
            }
        }
        // det3 / inv3.
        let det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
            - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
            + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
        for (l, d) in det.to_array().into_iter().enumerate() {
            if d.abs() < 1e-300 {
                active[l] = false;
            }
        }
        let id = one / det;
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
        for d in 0..3 {
            let step = inv[d][0] * r[0] + inv[d][1] * r[1] + inv[d][2] * r[2];
            xi[d] = (xi[d] + step).clamp(-10.0, 10.0);
        }
    }
    converged
}

/// Interpolate a 3-component Q2 nodal field at 4 points at once: lane `l`
/// evaluates the 27 triquadratic basis functions at `xi[l]` against its
/// element's nodal values `nodal[l]` (basis order, components interleaved).
///
/// Mirrors `ptatin_fem::basis::q2_basis` and the `v[d] += N_i · u_i[d]`
/// loop of `interpolate_velocity` — `(bx·by)·bz`, accumulated from 0.0 in
/// ascending node order — so each lane is bitwise identical to the scalar
/// interpolation.
pub fn q2_interp3_x4(
    path: SimdPath,
    xi: &[[f64; 3]; LANES],
    nodal: [&[f64; 81]; LANES],
) -> [[f64; 3]; LANES] {
    match path {
        SimdPath::Portable => q2_interp3_x4_body::<F64x4>(xi, nodal),
        SimdPath::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `axpy` — path implies hardware support.
            unsafe {
                avx::q2_interp3_x4(xi, nodal)
            }
            #[cfg(not(target_arch = "x86_64"))]
            q2_interp3_x4_body::<F64x4>(xi, nodal)
        }
    }
}

#[inline(always)]
fn q2_interp3_x4_body<V: Lane>(
    xi: &[[f64; 3]; LANES],
    nodal: [&[f64; 81]; LANES],
) -> [[f64; 3]; LANES] {
    let half = V::splat(0.5);
    let one = V::splat(1.0);
    let basis_1d = |t: V| [half * t * (t - one), one - t * t, half * t * (t + one)];
    let t: [V; 3] = lanes_of3([&xi[0], &xi[1], &xi[2], &xi[3]]);
    let (bx, by, bz) = (basis_1d(t[0]), basis_1d(t[1]), basis_1d(t[2]));
    // Four points of one element read the same nodal array: broadcast it
    // instead of transposing four copies (same lane values either way).
    let uniform = nodal.iter().all(|n| std::ptr::eq(*n, nodal[0]));
    let mut v = [V::splat(0.0); 3];
    let mut k = 0;
    for c in 0..3 {
        for b in 0..3 {
            for a in 0..3 {
                let w = bx[a] * by[b] * bz[c];
                for vd in &mut v {
                    let u = if uniform {
                        V::splat(nodal[0][k])
                    } else {
                        V::from_array([nodal[0][k], nodal[1][k], nodal[2][k], nodal[3][k]])
                    };
                    *vd = *vd + w * u;
                    k += 1;
                }
            }
        }
    }
    points_of3(v)
}

// ---------------------------------------------------------------------------
// Lane kernels of other crates
// ---------------------------------------------------------------------------

/// A kernel written once over [`Lane`], for crates that keep no AVX code
/// of their own: [`run_lanes`] instantiates it with [`F64x4`] on the
/// portable path and with the AVX register type inside an `avx2,fma`
/// wrapper on the other, so both paths run the same operation sequence
/// and, with no fused operations in the body, give the same bits. `run`
/// should be `#[inline(always)]` (and so should the helpers it calls on
/// lane values): an outlined body loses the wrapper's target features and
/// every AVX lane operation becomes a call.
pub trait LaneKernel {
    type Output;
    fn run<V: Lane>(self) -> Self::Output;
}

/// Run `kernel` on `path`'s lane type.
pub fn run_lanes<K: LaneKernel>(path: SimdPath, kernel: K) -> K::Output {
    match path {
        SimdPath::Portable => run_lanes_portable(kernel),
        SimdPath::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `axpy` — path implies hardware support.
            unsafe {
                avx::run_lanes(kernel)
            }
            #[cfg(not(target_arch = "x86_64"))]
            run_lanes_portable(kernel)
        }
    }
}

fn run_lanes_portable<K: LaneKernel>(kernel: K) -> K::Output {
    kernel.run::<F64x4>()
}

// ---------------------------------------------------------------------------
// AVX2 bodies
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx {
    use super::{q2_interp3_x4_body, trilinear_inverse_x4_body, F64x4, Lane, LaneKernel};
    use core::arch::x86_64::*;

    // SAFETY: F64x4 is #[repr(align(32))], so the load is aligned;
    // caller must have AVX available (all callers are avx2+fma fns).
    #[inline(always)]
    unsafe fn ld(v: &F64x4) -> __m256d {
        _mm256_load_pd(v.0.as_ptr())
    }

    // SAFETY: F64x4 is #[repr(align(32))], so the store is aligned;
    // caller must have AVX available (all callers are avx2+fma fns).
    #[inline(always)]
    unsafe fn st(out: &mut F64x4, v: __m256d) {
        _mm256_store_pd(out.0.as_mut_ptr(), v)
    }

    // SAFETY: caller must have verified avx2+fma support (the
    // `SimdPath::Avx2Fma` dispatch contract); slices may be any length.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = y.len();
        let a = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_ptr().add(i));
            // Plain mul+add (not FMA): bitwise identical to the scalar
            // `y += alpha * x` the portable loop performs.
            let r = _mm256_add_pd(yv, _mm256_mul_pd(a, xv));
            _mm256_storeu_pd(y.as_mut_ptr().add(i), r);
            i += 4;
        }
        while i < n {
            y[i] += alpha * x[i];
            i += 1;
        }
    }

    // SAFETY: caller must have verified avx2+fma support.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn residual_ip(b: &[f64], r: &mut [f64]) {
        let n = r.len();
        let mut i = 0;
        while i + 4 <= n {
            let bv = _mm256_loadu_pd(b.as_ptr().add(i));
            let rv = _mm256_loadu_pd(r.as_ptr().add(i));
            _mm256_storeu_pd(r.as_mut_ptr().add(i), _mm256_sub_pd(bv, rv));
            i += 4;
        }
        while i < n {
            r[i] = b[i] - r[i];
            i += 1;
        }
    }

    // SAFETY: caller must have verified avx2+fma support.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn cheb_d_init(inv_diag: &[f64], r: &[f64], theta: f64, d: &mut [f64]) {
        let n = d.len();
        let th = _mm256_set1_pd(theta);
        let mut i = 0;
        while i + 4 <= n {
            let iv = _mm256_loadu_pd(inv_diag.as_ptr().add(i));
            let rv = _mm256_loadu_pd(r.as_ptr().add(i));
            // (inv·r)/θ in the scalar association; _mm256_div_pd is
            // correctly rounded, so lanes match the scalar divides.
            let dv = _mm256_div_pd(_mm256_mul_pd(iv, rv), th);
            _mm256_storeu_pd(d.as_mut_ptr().add(i), dv);
            i += 4;
        }
        while i < n {
            d[i] = inv_diag[i] * r[i] / theta;
            i += 1;
        }
    }

    // SAFETY: caller must have verified avx2+fma support.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn cheb_update(c1: f64, c2: f64, inv_diag: &[f64], r: &[f64], d: &mut [f64]) {
        let n = d.len();
        let c1v = _mm256_set1_pd(c1);
        let c2v = _mm256_set1_pd(c2);
        let mut i = 0;
        while i + 4 <= n {
            let iv = _mm256_loadu_pd(inv_diag.as_ptr().add(i));
            let rv = _mm256_loadu_pd(r.as_ptr().add(i));
            let dv = _mm256_loadu_pd(d.as_ptr().add(i));
            // c1·d + (c2·inv)·r, left-associated like the scalar loop.
            let t = _mm256_mul_pd(_mm256_mul_pd(c2v, iv), rv);
            let out = _mm256_add_pd(_mm256_mul_pd(c1v, dv), t);
            _mm256_storeu_pd(d.as_mut_ptr().add(i), out);
            i += 4;
        }
        while i < n {
            d[i] = c1 * d[i] + c2 * inv_diag[i] * r[i];
            i += 1;
        }
    }

    // SAFETY: caller must have verified avx2+fma support.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn q1_hat_weights_x4(xi0: F64x4, xi1: F64x4, xi2: F64x4, out: &mut [F64x4; 8]) {
        let half = _mm256_set1_pd(0.5);
        let one = _mm256_set1_pd(1.0);
        let x0 = ld(&xi0);
        let x1 = ld(&xi1);
        let x2 = ld(&xi2);
        let lx = [
            _mm256_mul_pd(half, _mm256_sub_pd(one, x0)),
            _mm256_mul_pd(half, _mm256_add_pd(one, x0)),
        ];
        let ly = [
            _mm256_mul_pd(half, _mm256_sub_pd(one, x1)),
            _mm256_mul_pd(half, _mm256_add_pd(one, x1)),
        ];
        let lz = [
            _mm256_mul_pd(half, _mm256_sub_pd(one, x2)),
            _mm256_mul_pd(half, _mm256_add_pd(one, x2)),
        ];
        let mut n = 0;
        for c in 0..2 {
            for b in 0..2 {
                for a in 0..2 {
                    st(
                        &mut out[n],
                        _mm256_mul_pd(_mm256_mul_pd(lx[a], ly[b]), lz[c]),
                    );
                    n += 1;
                }
            }
        }
    }

    // SAFETY: caller must have verified avx2+fma support and sized
    // `xi` as 3 lanes and `out` as 8 lanes per point-group.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn q1_hat_weights_many(xi: &[F64x4], out: &mut [F64x4]) {
        for (l, w) in out.chunks_exact_mut(8).enumerate() {
            // PANIC-OK: chunks_exact_mut(8) yields exactly 8 elements.
            let w8: &mut [F64x4; 8] = w.try_into().expect("chunk of 8");
            // SAFETY: caller already established avx2+fma support; the
            // per-lane kernel inlines into this loop (same feature set).
            unsafe { q1_hat_weights_x4(xi[3 * l], xi[3 * l + 1], xi[3 * l + 2], w8) };
        }
    }

    // SAFETY: caller must have verified avx2+fma support and sized
    // `out` to at least `wq.len()` lanes.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot8_table(wq: &[[f64; 8]], f: &[F64x4; 8], out: &mut [F64x4]) {
        let fv = [
            ld(&f[0]),
            ld(&f[1]),
            ld(&f[2]),
            ld(&f[3]),
            ld(&f[4]),
            ld(&f[5]),
            ld(&f[6]),
            ld(&f[7]),
        ];
        for (q, w) in wq.iter().enumerate() {
            let mut acc = _mm256_setzero_pd();
            for k in 0..8 {
                // Plain mul+add ascending k — the scalar G2P sequence.
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(w[k]), fv[k]));
            }
            st(&mut out[q], acc);
        }
    }
    /// One AVX register as a [`Lane`]: each method is the single
    /// instruction that performs the portable method's operation per lane.
    /// Values exist only inside `avx2,fma` kernels — the ones below and
    /// the wrappers of `crate::cholesky` — which is what makes the
    /// intrinsic calls sound.
    #[derive(Clone, Copy)]
    pub(crate) struct V4(__m256d);

    macro_rules! v4_binop {
        ($trait:ident, $method:ident, $intrinsic:ident) => {
            impl std::ops::$trait for V4 {
                type Output = V4;
                #[inline(always)]
                fn $method(self, o: V4) -> V4 {
                    // SAFETY: a `V4` exists only under avx2+fma (see type).
                    V4(unsafe { $intrinsic(self.0, o.0) })
                }
            }
        };
    }
    v4_binop!(Add, add, _mm256_add_pd);
    v4_binop!(Sub, sub, _mm256_sub_pd);
    v4_binop!(Mul, mul, _mm256_mul_pd);
    v4_binop!(Div, div, _mm256_div_pd);

    impl Lane for V4 {
        #[inline(always)]
        fn splat(v: f64) -> Self {
            // SAFETY: only instantiated under avx2+fma (see type).
            V4(unsafe { _mm256_set1_pd(v) })
        }
        #[inline(always)]
        fn from_array(a: [f64; 4]) -> Self {
            // SAFETY: only instantiated under avx2+fma (see type).
            V4(unsafe { _mm256_set_pd(a[3], a[2], a[1], a[0]) })
        }
        #[inline(always)]
        fn to_array(self) -> [f64; 4] {
            let mut out = F64x4::ZERO;
            // SAFETY: a `V4` exists only under avx2+fma (see type).
            unsafe { st(&mut out, self.0) };
            out.0
        }
        #[inline(always)]
        fn load(s: &[f64; 4]) -> Self {
            // SAFETY: only instantiated under avx2+fma (see type); the
            // reference covers the four values read.
            V4(unsafe { _mm256_loadu_pd(s.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, out: &mut [f64; 4]) {
            // SAFETY: a `V4` exists only under avx2+fma (see type); the
            // reference covers the four values written.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            // SAFETY: a `V4` exists only under avx2+fma (see type).
            V4(unsafe { _mm256_sqrt_pd(self.0) })
        }
        #[inline(always)]
        fn clamp(self, lo: f64, hi: f64) -> Self {
            // max/min return their second operand when either is NaN, so
            // with the value second a NaN lane stays NaN, as in
            // `f64::clamp`.
            // SAFETY: a `V4` exists only under avx2+fma (see type).
            V4(unsafe {
                _mm256_min_pd(
                    _mm256_set1_pd(hi),
                    _mm256_max_pd(_mm256_set1_pd(lo), self.0),
                )
            })
        }
    }

    // SAFETY: caller must have verified avx2+fma support.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn trilinear_inverse_x4(
        corners: [&[[f64; 3]; 8]; 4],
        x: &[[f64; 3]; 4],
        tol: f64,
        max_it: usize,
        xi: &mut [[f64; 3]; 4],
    ) -> [bool; 4] {
        trilinear_inverse_x4_body::<V4>(corners, x, tol, max_it, xi)
    }

    // SAFETY: caller must have verified avx2+fma support.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn q2_interp3_x4(xi: &[[f64; 3]; 4], nodal: [&[f64; 81]; 4]) -> [[f64; 3]; 4] {
        q2_interp3_x4_body::<V4>(xi, nodal)
    }

    // SAFETY: caller must have verified avx2+fma support; `V4` values
    // exist only inside this call.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn run_lanes<K: LaneKernel>(kernel: K) -> K::Output {
        kernel.run::<V4>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn slice_kernels_match_scalar_bitwise_on_both_paths() {
        let n = 37; // odd: exercise the remainder tails
        let x = vals(n, 1);
        let b = vals(n, 2);
        let inv = vals(n, 3).iter().map(|v| v.abs() + 0.5).collect::<Vec<_>>();
        let paths: &[SimdPath] = if avx2_fma_available() {
            &[SimdPath::Portable, SimdPath::Avx2Fma]
        } else {
            &[SimdPath::Portable]
        };
        for &p in paths {
            let mut y = vals(n, 4);
            let yref: Vec<f64> = y.iter().zip(&x).map(|(y, x)| y + 1.7 * x).collect();
            axpy(p, 1.7, &x, &mut y);
            assert_eq!(y, yref, "{p:?} axpy");

            let mut r = vals(n, 5);
            let rref: Vec<f64> = r.iter().zip(&b).map(|(r, b)| b - r).collect();
            residual_ip(p, &b, &mut r);
            assert_eq!(r, rref, "{p:?} residual");

            let mut d = vec![0.0; n];
            cheb_d_init(p, &inv, &b, 1.3, &mut d);
            for i in 0..n {
                assert_eq!(d[i].to_bits(), (inv[i] * b[i] / 1.3).to_bits());
            }
            let d0 = d.clone();
            cheb_update(p, 0.4, 2.5, &inv, &b, &mut d);
            for i in 0..n {
                let want = 0.4 * d0[i] + 2.5 * inv[i] * b[i];
                assert_eq!(d[i].to_bits(), want.to_bits(), "{p:?} cheb_update {i}");
            }
        }
    }

    /// A hexahedron near the unit cube, corners perturbed by `amp`.
    fn hexahedron(seed: u64, amp: f64) -> [[f64; 3]; 8] {
        let jitter = vals(24, seed);
        std::array::from_fn(|n| {
            std::array::from_fn(|d| ((n >> d) & 1) as f64 + amp * jitter[3 * n + d])
        })
    }

    #[test]
    fn advection_kernels_bitwise_across_paths() {
        if !avx2_fma_available() {
            return;
        }
        let paths = [SimdPath::Portable, SimdPath::Avx2Fma];
        let hexes: Vec<_> = (0..4).map(|l| hexahedron(20 + l, 0.15)).collect();
        let mut flat = hexahedron(30, 0.1);
        for c in &mut flat {
            c[2] = 0.0; // singular Jacobian: the lane must fail, not converge
        }
        let t = vals(12, 31);
        // Inside, outside (still converges), far away (clamps, never
        // converges) and on the singular element.
        let x = [
            [0.5 + 0.3 * t[0], 0.5 + 0.3 * t[1], 0.5 + 0.3 * t[2]],
            [1.4, 0.5 + 0.3 * t[4], 0.5 + 0.3 * t[5]],
            [40.0, -35.0, 50.0],
            [0.4, 0.6, 0.3],
        ];
        let mixed = [&hexes[0], &hexes[1], &hexes[2], &flat];
        let uniform = [&hexes[3]; 4];
        for (corners, want) in [
            (mixed, [true, true, false, false]),
            (uniform, [true, true, false, true]),
        ] {
            let run = |p| {
                let mut xi = [[f64::NAN; 3]; LANES];
                let conv = trilinear_inverse_x4(p, corners, &x, 1e-12, 30, &mut xi);
                (conv, xi.map(|v| v.map(f64::to_bits)))
            };
            let (conv, xi) = run(paths[0]);
            assert_eq!(conv, want);
            assert_eq!(run(paths[1]), (conv, xi));
            // Converged lanes map back onto their target; the others were
            // left untouched.
            for l in 0..LANES {
                let at = xi[l].map(f64::from_bits);
                if !conv[l] {
                    assert!(at.iter().all(|v| v.is_nan()));
                    continue;
                }
                let s = |d: usize, hi: usize| 0.5 * (1.0 + (2.0 * hi as f64 - 1.0) * at[d]);
                for d in 0..3 {
                    let back: f64 = (0..8)
                        .map(|n| s(0, n & 1) * s(1, (n >> 1) & 1) * s(2, n >> 2) * corners[l][n][d])
                        .sum();
                    assert!(
                        (back - x[l][d]).abs() < 1e-11,
                        "lane {l}: {back} vs {}",
                        x[l][d]
                    );
                }
            }
        }

        let fields: Vec<[f64; 81]> = (0..4)
            .map(|l| {
                let v = vals(81, 40 + l);
                std::array::from_fn(|k| v[k])
            })
            .collect();
        let xi = [
            [t[0], t[1], t[2]],
            [t[3], t[4], t[5]],
            [t[6], t[7], t[8]],
            [1.0, -1.0, 0.0],
        ];
        for nodal in [
            [&fields[0], &fields[1], &fields[2], &fields[3]],
            [&fields[1]; 4],
        ] {
            let run = |p| q2_interp3_x4(p, &xi, nodal).map(|v| v.map(f64::to_bits));
            assert_eq!(run(paths[0]), run(paths[1]));
            // Lane 3 sits on a node (a = 2, b = 0, c = 1): interpolation
            // returns that node's values exactly.
            let k = 3 * (2 + 9);
            let got = q2_interp3_x4(paths[0], &xi, nodal)[3];
            assert_eq!(got, [nodal[3][k], nodal[3][k + 1], nodal[3][k + 2]]);
        }
    }

    /// `(Σ_k a_k·b_k) / 3` per lane over a table: mul, add and div only.
    struct DotDiv<'a>(&'a [[f64; 4]], &'a [[f64; 4]]);

    impl LaneKernel for DotDiv<'_> {
        type Output = [f64; 4];
        #[inline(always)]
        fn run<V: Lane>(self) -> [f64; 4] {
            let mut acc = V::splat(0.0);
            for (a, b) in self.0.iter().zip(self.1) {
                acc = acc + V::load(a) * V::from_array(*b);
            }
            (acc / V::splat(3.0)).to_array()
        }
    }

    #[test]
    fn lane_kernels_run_bitwise_on_both_paths() {
        let v = vals(64, 17);
        let a: Vec<[f64; 4]> = v[..32]
            .chunks(4)
            .map(|c| [c[0], c[1], c[2], c[3]])
            .collect();
        let b: Vec<[f64; 4]> = v[32..]
            .chunks(4)
            .map(|c| [c[0], c[1], c[2], c[3]])
            .collect();
        let want: [f64; 4] = std::array::from_fn(|l| {
            let mut acc = 0.0;
            for k in 0..a.len() {
                acc += a[k][l] * b[k][l];
            }
            acc / 3.0
        });
        let paths: &[SimdPath] = if avx2_fma_available() {
            &[SimdPath::Portable, SimdPath::Avx2Fma]
        } else {
            &[SimdPath::Portable]
        };
        for &p in paths {
            let got = run_lanes(p, DotDiv(&a, &b));
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{p:?}");
        }
    }

    #[test]
    fn hat_weights_and_dot8_bitwise_across_paths() {
        if !avx2_fma_available() {
            return;
        }
        let xi = vals(12, 9);
        let (x0, x1, x2) = (
            F64x4([xi[0], xi[1], xi[2], xi[3]]),
            F64x4([xi[4], xi[5], xi[6], xi[7]]),
            F64x4([xi[8], xi[9], xi[10], xi[11]]),
        );
        let mut wp = [F64x4::ZERO; 8];
        let mut wa = [F64x4::ZERO; 8];
        q1_hat_weights_x4(SimdPath::Portable, x0, x1, x2, &mut wp);
        q1_hat_weights_x4(SimdPath::Avx2Fma, x0, x1, x2, &mut wa);
        assert_eq!(wp, wa);

        // The chunked variant reproduces the per-lane calls bit for bit on
        // both paths.
        let nlanes: usize = 7;
        let xiv: Vec<F64x4> = (0..3 * nlanes)
            .map(|i| {
                let v = vals(4, 200 + i as u64);
                F64x4([v[0], v[1], v[2], v[3]])
            })
            .collect();
        for p in [SimdPath::Portable, SimdPath::Avx2Fma] {
            let mut many = vec![F64x4::ZERO; 8 * nlanes];
            q1_hat_weights_many(p, &xiv, &mut many);
            for l in 0..nlanes {
                let mut one = [F64x4::ZERO; 8];
                q1_hat_weights_x4(p, xiv[3 * l], xiv[3 * l + 1], xiv[3 * l + 2], &mut one);
                assert_eq!(&many[8 * l..8 * l + 8], &one, "{p:?} lane {l}");
            }
        }

        let fv = vals(32, 11);
        let mut f = [F64x4::ZERO; 8];
        for k in 0..8 {
            f[k] = F64x4([fv[4 * k], fv[4 * k + 1], fv[4 * k + 2], fv[4 * k + 3]]);
        }
        let wq: Vec<[f64; 8]> = (0..5)
            .map(|q| {
                let v = vals(8, 100 + q);
                [v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]]
            })
            .collect();
        let mut op = vec![F64x4::ZERO; 5];
        let mut oa = vec![F64x4::ZERO; 5];
        dot8_table(SimdPath::Portable, &wq, &f, &mut op);
        dot8_table(SimdPath::Avx2Fma, &wq, &f, &mut oa);
        assert_eq!(op, oa);
    }
}
