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
//! The contract (DESIGN.md §9): every kernel is written once, over the
//! [`Lane`] trait, as a [`LaneKernel`], and [`run_lanes`] runs that one
//! body on the path a caller picked via [`SimdPath`] — with [`F64x4`]
//! (scalar per lane) on the portable path, and with the AVX register type
//! inside this module's `#[target_feature(enable = "avx2,fma")]` wrapper
//! on the other (the two advection kernels keep wrappers of their own
//! that take their arguments directly, EXPERIMENTS.md). Each `Lane`
//! method is one correctly-rounded IEEE operation per lane (`mul_add` is
//! `f64::mul_add` portably and `_mm256_fmadd_pd` under AVX), so both paths
//! give the same bits, and a body built from plain mul/add/sub/div is
//! bitwise its scalar reference when it performs the reference's
//! operations in the reference's order. "The same bits" covers every
//! lane that is not NaN, and whether a lane is NaN; not a NaN's payload
//! or sign, which the x86 instructions and the scalar code pick
//! differently (an invalid `−∞ + ∞` is `0xFFF8…` under AVX and may be
//! `0x7FF8…` in `f64::mul_add`).
//! `core::arch` appears in this module only; the crates outside la/ops
//! forbid `unsafe`.

/// Lanes per SIMD batch (one AVX 256-bit register of f64).
pub const LANES: usize = 4;

/// Four f64 values, one per slot of a batch: the memory form of a lane
/// ([`Lane::load`]/[`Lane::store`] on its `.0`). 32-byte aligned, so a
/// lane's four values never straddle a cache line.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C, align(32))]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    pub const ZERO: F64x4 = F64x4([0.0; 4]);

    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }
}

macro_rules! f64x4_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $method(self, o: F64x4) -> F64x4 {
                F64x4(std::array::from_fn(|l| self.0[l] $op o.0[l]))
            }
        }
    };
}
f64x4_binop!(Add, add, +);
f64x4_binop!(Sub, sub, -);
f64x4_binop!(Mul, mul, *);
f64x4_binop!(Div, div, /);

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
// The lane type
// ---------------------------------------------------------------------------

/// The lane arithmetic every SIMD kernel of the workspace is written in,
/// once, and run through [`run_lanes`]. Every method is one
/// correctly-rounded IEEE operation per lane — [`mul_add`](Self::mul_add)
/// a fused one, rounded once — so the two implementations cannot differ
/// in bits.
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
    /// `[s[idx[0]], …, s[idx[3]]]` (one hardware gather under AVX).
    ///
    /// # Safety
    /// Every `idx[l]` is below `s.len()`, and `s.len() ≤ i32::MAX`.
    // SAFETY: the contract above is what the AVX gather needs; this
    // default reads through checked indexing.
    #[inline(always)]
    unsafe fn gather(s: &[f64], idx: [u32; LANES]) -> Self {
        Self::from_array([
            s[idx[0] as usize],
            s[idx[1] as usize],
            s[idx[2] as usize],
            s[idx[3] as usize],
        ])
    }
    /// `self · a + b` per lane, rounded once (`f64::mul_add`).
    fn mul_add(self, a: Self, b: Self) -> Self;
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
    fn mul_add(self, a: Self, b: Self) -> Self {
        F64x4([
            self.0[0].mul_add(a.0[0], b.0[0]),
            self.0[1].mul_add(a.0[1], b.0[1]),
            self.0[2].mul_add(a.0[2], b.0[2]),
            self.0[3].mul_add(a.0[3], b.0[3]),
        ])
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

// ---------------------------------------------------------------------------
// Running a lane kernel
// ---------------------------------------------------------------------------

/// A kernel written once over [`Lane`]: [`run_lanes`] instantiates it
/// with [`F64x4`] on the portable path and with the AVX register type
/// inside its `avx2,fma` wrapper on the other, so both paths run the
/// same operation sequence and, every [`Lane`] method being one
/// correctly-rounded operation per lane (fused ones included), give the
/// same bits.
///
/// The kernel's inputs are its fields; what it writes is
/// [`Out`](Self::Out), which [`run_lanes`] hands to the wrapper as a
/// `&mut` parameter of its own (`()` for a kernel that writes nothing
/// else). A parameter tells the optimizer that stores through it leave
/// every input unchanged; an output reached through the kernel struct
/// does not, and the loads repeated after every store cost up to 25 % per
/// call on the fused Stokes kernel (EXPERIMENTS.md, "One lane body for
/// the fused Stokes kernel"). `run` must be `#[inline(always)]`, and so
/// must every helper it calls on lane values: an outlined body loses the
/// wrapper's target features and every AVX lane operation becomes a call.
pub trait LaneKernel {
    type Out: ?Sized;
    fn run<V: Lane>(self, out: &mut Self::Out);
}

/// Run `kernel` on `path`'s lane type, writing `out`.
pub fn run_lanes<K: LaneKernel>(path: SimdPath, kernel: K, out: &mut K::Out) {
    match path {
        SimdPath::Portable => kernel.run::<F64x4>(out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only chosen when `avx2_fma_available`
        // reported hardware support (or by tests that check it first).
        SimdPath::Avx2Fma => unsafe { avx::run_lanes(kernel, out) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdPath::Avx2Fma => kernel.run::<F64x4>(out),
    }
}

// ---------------------------------------------------------------------------
// Chebyshev / BLAS-1 slice kernels
// ---------------------------------------------------------------------------
//
// All four are elementwise with plain mul/add/sub/div only (no fusion), so
// both paths and the scalar loops they replaced are bitwise identical —
// swapping them into `Chebyshev::smooth_with` changes no result anywhere.

/// The per-element map of an elementwise slice kernel:
/// `out[i] = map(out[i], a[i], b[i])`.
trait ElementMap {
    fn map<V: Lane>(&self, out: V, a: V, b: V) -> V;
}

/// Runs an [`ElementMap`] over `out`, four values at a time; the last
/// `len % 4` go through the same lane operations zero-padded, so every
/// value gets the same IEEE operations as in a full chunk.
struct Elementwise<'a, M> {
    map: M,
    a: &'a [f64],
    b: &'a [f64],
}

impl<M: ElementMap> LaneKernel for Elementwise<'_, M> {
    type Out = [f64];

    #[inline(always)]
    fn run<V: Lane>(self, out: &mut [f64]) {
        let (map, a, b) = (&self.map, self.a, self.b);
        let n = out.len();
        let (out, out_tail) = out.as_chunks_mut::<LANES>();
        let (a, a_tail) = a[..n].as_chunks::<LANES>();
        let (b, b_tail) = b[..n].as_chunks::<LANES>();
        for ((o, a), b) in out.iter_mut().zip(a).zip(b) {
            map.map(V::load(o), V::load(a), V::load(b)).store(o);
        }
        if out_tail.is_empty() {
            return;
        }
        let r = map
            .map::<V>(padded(out_tail), padded(a_tail), padded(b_tail))
            .to_array();
        out_tail.copy_from_slice(&r[..out_tail.len()]);
    }
}

/// Up to four values as a lane, zero-padded.
#[inline(always)]
fn padded<V: Lane>(s: &[f64]) -> V {
    let mut p = [0.0; LANES];
    p[..s.len()].copy_from_slice(s);
    V::from_array(p)
}

/// `y[i] += alpha * x[i]` (the smoother's correction/residual axpy).
pub fn axpy(path: SimdPath, alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    struct Axpy(f64);
    impl ElementMap for Axpy {
        #[inline(always)]
        fn map<V: Lane>(&self, y: V, x: V, _: V) -> V {
            y + V::splat(self.0) * x
        }
    }
    run_lanes(
        path,
        Elementwise {
            map: Axpy(alpha),
            a: x,
            b: x,
        },
        y,
    );
}

/// `r[i] = b[i] - r[i]` — the residual flip after `r = A x`.
pub fn residual_ip(path: SimdPath, b: &[f64], r: &mut [f64]) {
    debug_assert_eq!(b.len(), r.len());
    struct Flip;
    impl ElementMap for Flip {
        #[inline(always)]
        fn map<V: Lane>(&self, r: V, b: V, _: V) -> V {
            b - r
        }
    }
    run_lanes(path, Elementwise { map: Flip, a: b, b }, r);
}

/// `d[i] = inv_diag[i] * r[i] / theta` — the Chebyshev direction seed.
pub fn cheb_d_init(path: SimdPath, inv_diag: &[f64], r: &[f64], theta: f64, d: &mut [f64]) {
    debug_assert_eq!(inv_diag.len(), d.len());
    debug_assert_eq!(r.len(), d.len());
    struct Seed(f64);
    impl ElementMap for Seed {
        #[inline(always)]
        fn map<V: Lane>(&self, _: V, inv: V, r: V) -> V {
            inv * r / V::splat(self.0)
        }
    }
    run_lanes(
        path,
        Elementwise {
            map: Seed(theta),
            a: inv_diag,
            b: r,
        },
        d,
    );
}

/// `d[i] = c1 * d[i] + c2 * inv_diag[i] * r[i]` — the Chebyshev direction
/// recurrence (left-associated exactly as written).
pub fn cheb_update(path: SimdPath, c1: f64, c2: f64, inv_diag: &[f64], r: &[f64], d: &mut [f64]) {
    debug_assert_eq!(inv_diag.len(), d.len());
    debug_assert_eq!(r.len(), d.len());
    struct Recur(f64, f64);
    impl ElementMap for Recur {
        #[inline(always)]
        fn map<V: Lane>(&self, d: V, inv: V, r: V) -> V {
            V::splat(self.0) * d + V::splat(self.1) * inv * r
        }
    }
    run_lanes(
        path,
        Elementwise {
            map: Recur(c1, c2),
            a: inv_diag,
            b: r,
        },
        d,
    );
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
    q1_hat_weights_many(path, &[xi0, xi1, xi2], out);
}

/// [`q1_hat_weights_x4`] over a whole chunk of lanes in one call — `xi`
/// holds 3 coordinate vectors per lane (`[ξ₀, ξ₁, ξ₂]` lane-major), `out`
/// receives 8 weight vectors per lane. One dispatch amortizes the
/// non-inlinable `target_feature` call over the chunk; each lane's values
/// are identical to a [`q1_hat_weights_x4`] call, hence bitwise identical
/// to the scalar basis evaluation on both paths.
pub fn q1_hat_weights_many(path: SimdPath, xi: &[F64x4], out: &mut [F64x4]) {
    debug_assert_eq!(xi.len() % 3, 0);
    debug_assert_eq!(out.len(), 8 * (xi.len() / 3));
    run_lanes(path, HatWeights { xi }, out);
}

struct HatWeights<'a> {
    xi: &'a [F64x4],
}

impl LaneKernel for HatWeights<'_> {
    type Out = [F64x4];

    #[inline(always)]
    fn run<V: Lane>(self, out: &mut [F64x4]) {
        let half = V::splat(0.5);
        let one = V::splat(1.0);
        for (xi, w) in self.xi.chunks_exact(3).zip(out.chunks_exact_mut(8)) {
            let x = [V::load(&xi[0].0), V::load(&xi[1].0), V::load(&xi[2].0)];
            let lx = [half * (one - x[0]), half * (one + x[0])];
            let ly = [half * (one - x[1]), half * (one + x[1])];
            let lz = [half * (one - x[2]), half * (one + x[2])];
            let mut n = 0;
            for c in 0..2 {
                for b in 0..2 {
                    for a in 0..2 {
                        (lx[a] * ly[b] * lz[c]).store(&mut w[n].0);
                        n += 1;
                    }
                }
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
    run_lanes(path, Dot8 { wq, f }, out);
}

struct Dot8<'a> {
    wq: &'a [[f64; 8]],
    f: &'a [F64x4; 8],
}

impl LaneKernel for Dot8<'_> {
    type Out = [F64x4];

    #[inline(always)]
    fn run<V: Lane>(self, out: &mut [F64x4]) {
        let Self { wq, f } = self;
        let mut fv = [V::splat(0.0); 8];
        for k in 0..8 {
            fv[k] = V::load(&f[k].0);
        }
        for (w, out) in wq.iter().zip(out.iter_mut()) {
            let mut acc = V::splat(0.0);
            for k in 0..8 {
                acc = acc + V::splat(w[k]) * fv[k];
            }
            acc.store(&mut out.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Material-point advection lane kernels
// ---------------------------------------------------------------------------
//
// Four independent points per call, array-of-structs in and out: the
// kernels transpose into lanes themselves, so a caller hands over plain
// per-point arrays (one `&` per lane — lanes in the same element share the
// reference). Plain mul/add/sub/div/sqrt only, nothing fused, like the
// scalar routines they mirror.

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
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only chosen when `avx2_fma_available`
        // reported hardware support (or by tests that check it first).
        SimdPath::Avx2Fma => unsafe { avx::trilinear_inverse_x4(corners, x, tol, max_it, xi) },
        _ => trilinear_inverse::<F64x4>(corners, x, tol, max_it, xi),
    }
}

#[inline(always)]
fn trilinear_inverse<V: Lane>(
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
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `trilinear_inverse_x4`.
        SimdPath::Avx2Fma => unsafe { avx::q2_interp3_x4(xi, nodal) },
        _ => q2_interp3::<F64x4>(xi, nodal),
    }
}

#[inline(always)]
fn q2_interp3<V: Lane>(xi: &[[f64; 3]; LANES], nodal: [&[f64; 81]; LANES]) -> [[f64; 3]; LANES] {
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
// The AVX2 lane type
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{Lane, LaneKernel, LANES};
    use core::arch::x86_64::*;

    /// One AVX register as a [`Lane`]: each arithmetic method is the single
    /// instruction that performs the portable method's operation per lane.
    /// Values exist only inside [`run_lanes`], which is what makes the
    /// intrinsic calls sound. Loads, stores and conversions are plain
    /// memory operations on `__m256d`, not intrinsics: an intrinsic stays a
    /// call in a helper until the helper is inlined into the wrapper, and
    /// while it does the optimizer cannot tell which memory it touches.
    #[derive(Clone, Copy)]
    #[repr(transparent)]
    pub(super) struct V4(__m256d);

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
            Self::from_array([v; LANES])
        }
        #[inline(always)]
        fn from_array(a: [f64; LANES]) -> Self {
            // SAFETY: `__m256d` is four `f64`s; every bit pattern is valid.
            V4(unsafe { core::mem::transmute::<[f64; LANES], __m256d>(a) })
        }
        #[inline(always)]
        fn to_array(self) -> [f64; LANES] {
            // SAFETY: as in `from_array`.
            unsafe { core::mem::transmute::<__m256d, [f64; LANES]>(self.0) }
        }
        #[inline(always)]
        fn load(s: &[f64; LANES]) -> Self {
            // SAFETY: the reference covers the 32 bytes read.
            V4(unsafe { s.as_ptr().cast::<__m256d>().read_unaligned() })
        }
        #[inline(always)]
        fn store(self, out: &mut [f64; LANES]) {
            // SAFETY: the reference covers the 32 bytes written.
            unsafe { out.as_mut_ptr().cast::<__m256d>().write_unaligned(self.0) }
        }
        // SAFETY: the caller keeps the trait's index contract.
        #[inline(always)]
        unsafe fn gather(s: &[f64], idx: [u32; LANES]) -> Self {
            // SAFETY: a `V4` exists only under avx2+fma (see type); the
            // caller keeps every index below `s.len() ≤ i32::MAX`, so the
            // indices are non-negative as i32 and every read in bounds.
            V4(unsafe {
                let i = _mm_loadu_si128(idx.as_ptr().cast());
                _mm256_i32gather_pd::<8>(s.as_ptr(), i)
            })
        }
        #[inline(always)]
        fn mul_add(self, a: Self, b: Self) -> Self {
            // SAFETY: a `V4` exists only under avx2+fma (see type).
            V4(unsafe { _mm256_fmadd_pd(self.0, a.0, b.0) })
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

    /// The `#[target_feature]` wrapper every lane kernel runs through on
    /// the AVX path.
    // SAFETY: caller must have verified avx2+fma support; `V4` values
    // exist only inside this call.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn run_lanes<K: LaneKernel>(kernel: K, out: &mut K::Out) {
        kernel.run::<V4>(out)
    }

    // The advection kernels keep wrappers of their own, taking their
    // arguments directly: through `run_lanes` they ran 7–19 % slower per
    // call (EXPERIMENTS.md, "One lane body per SIMD kernel").

    // SAFETY: caller must have verified avx2+fma support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn trilinear_inverse_x4(
        corners: [&[[f64; 3]; 8]; LANES],
        x: &[[f64; 3]; LANES],
        tol: f64,
        max_it: usize,
        xi: &mut [[f64; 3]; LANES],
    ) -> [bool; LANES] {
        super::trilinear_inverse::<V4>(corners, x, tol, max_it, xi)
    }

    // SAFETY: caller must have verified avx2+fma support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn q2_interp3_x4(
        xi: &[[f64; 3]; LANES],
        nodal: [&[f64; 81]; LANES],
    ) -> [[f64; 3]; LANES] {
        super::q2_interp3::<V4>(xi, nodal)
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
        type Out = [f64; 4];
        #[inline(always)]
        fn run<V: Lane>(self, out: &mut [f64; 4]) {
            let mut acc = V::splat(0.0);
            for (a, b) in self.0.iter().zip(self.1) {
                acc = acc + V::load(a) * V::from_array(*b);
            }
            (acc / V::splat(3.0)).store(out);
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
            let mut got = [0.0; 4];
            run_lanes(p, DotDiv(&a, &b), &mut got);
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{p:?}");
        }
    }

    /// `a · b + c` per lane through [`Lane::mul_add`].
    struct MulAdd<'a>(&'a [[f64; 4]; 3]);

    impl LaneKernel for MulAdd<'_> {
        type Out = [f64; 4];
        #[inline(always)]
        fn run<V: Lane>(self, out: &mut [f64; 4]) {
            let [a, b, c] = self.0;
            V::load(a).mul_add(V::load(b), V::load(c)).store(out);
        }
    }

    #[test]
    fn mul_add_rounds_once_bitwise_on_both_paths() {
        let sub = f64::from_bits(1); // smallest subnormal
        let inf = f64::INFINITY;
        // (a, b, c) per lane, four lanes per case.
        let cases: [[[f64; 4]; 3]; 4] = [
            // Signed zeros: the sum's sign follows IEEE rounding rules.
            [
                [0.0, -0.0, 0.0, -0.0],
                [1.0, 1.0, -1.0, -1.0],
                [-0.0, -0.0, 0.0, 0.0],
            ],
            // Infinities, an invalid −∞ + ∞ (lane 2) and a NaN operand.
            [
                [inf, -inf, 2.0, f64::NAN],
                [3.0, 0.5, -inf, 1.0],
                [1.0, -1.0, inf, 1.0],
            ],
            // Subnormal products, operands and sums.
            [
                [sub, 3.0 * sub, 1e-160, f64::MIN_POSITIVE],
                [0.5, 7.0, 1e-160, 0.25],
                [sub, -sub, 0.0, -f64::MIN_POSITIVE / 8.0],
            ],
            // a·b exactly 1 − 2⁻¹⁰⁶: rounding it before the add loses the
            // low half, the fused result keeps it.
            [
                [1.0 + f64::EPSILON, 1.0 / 3.0, 0.1, 1e16],
                [1.0 - f64::EPSILON, 3.0, 10.0, 1.0 + f64::EPSILON],
                [-1.0, -1.0, -1.0, -1e16],
            ],
        ];
        let paths: &[SimdPath] = if avx2_fma_available() {
            &[SimdPath::Portable, SimdPath::Avx2Fma]
        } else {
            &[SimdPath::Portable]
        };
        for case in &cases {
            let want: [f64; 4] =
                std::array::from_fn(|l| case[0][l].mul_add(case[1][l], case[2][l]));
            for &p in paths {
                let mut got = [0.0; 4];
                run_lanes(p, MulAdd(case), &mut got);
                // Every bit of a non-NaN lane; of a NaN lane only that it
                // is NaN (the payload and sign are not in the contract).
                for l in 0..LANES {
                    let (g, w) = (got[l], want[l]);
                    let same = if w.is_nan() {
                        g.is_nan()
                    } else {
                        g.to_bits() == w.to_bits()
                    };
                    assert!(same, "{p:?} {case:?} lane {l}: {g:e} vs {w:e}");
                }
            }
        }
        // The fused lanes differ from a rounded product plus the addend.
        let fused = &cases[3];
        for l in 0..LANES {
            let (a, b, c) = (fused[0][l], fused[1][l], fused[2][l]);
            assert_ne!(a.mul_add(b, c).to_bits(), (a * b + c).to_bits(), "lane {l}");
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
