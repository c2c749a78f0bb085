//! Roofline denominators measured in the same process as the operator
//! probe: sustainable memory bandwidth (STREAM triad) and peak FMA rate.

use crate::host;
use ptatin3d::la::simd::{detected_simd_path, SimdPath};
use std::hint::black_box;
use std::time::Instant;

pub struct Stream {
    pub gb_s: f64,
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
    /// The cache size the arrays were sized against.
    pub cache_bytes: u64,
    /// Arrays reached 4× the last-level cache; when false they are only
    /// 4× L2 and no roofline fraction may be derived from `gb_s`.
    pub beyond_llc: bool,
}

/// Fallbacks when the host does not report its caches.
const DEFAULT_LLC: u64 = 32 << 20;
const DEFAULT_L2: u64 = 2 << 20;
/// Memory that must stay available beyond the three arrays.
const HEADROOM: u64 = 2 << 30;

fn alloc(n: usize) -> Option<Vec<f64>> {
    let mut v: Vec<f64> = Vec::new();
    v.try_reserve_exact(n).ok()?;
    v.resize(n, 0.0);
    Some(v)
}

fn triad_arrays(bytes: u64) -> Option<[Vec<f64>; 3]> {
    let need = 3 * bytes + HEADROOM;
    if host::mem_available_bytes().is_some_and(|avail| avail < need) {
        return None;
    }
    let n = (bytes / 8) as usize;
    Some([alloc(n)?, alloc(n)?, alloc(n)?])
}

/// Triad `a = b + s·c` with each array at least four times the last-level
/// cache the host reports (the rule for a bandwidth measurement); falls
/// back to 4× L2 when that much memory cannot be had or `beyond_llc` is
/// not asked for (smoke runs). Best of `passes`.
pub fn stream_triad(passes: usize, beyond_llc: bool) -> Stream {
    let llc = host::llc_bytes().unwrap_or(DEFAULT_LLC);
    let l2 = host::cache_bytes(2).unwrap_or(DEFAULT_L2);
    let large = beyond_llc.then(|| triad_arrays(4 * llc)).flatten();
    let (mut arrays, cache_bytes, beyond_llc) = match large {
        Some(a) => (a, llc, true),
        None => (
            triad_arrays(4 * l2).expect("three arrays of 4×L2 always fit"),
            l2,
            false,
        ),
    };
    let [a, b, c] = &mut arrays;
    // First touch of the sources with non-trivial values.
    for (i, (bi, ci)) in b.iter_mut().zip(c.iter_mut()).enumerate() {
        *bi = i as f64;
        *ci = 0.5;
    }
    let mut best = f64::INFINITY;
    // The first pass also first-touches `a`; the minimum discards it.
    for _ in 0..=passes {
        let t = Instant::now();
        let s = black_box(3.0);
        for ((ai, bi), ci) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
            *ai = *bi + s * *ci;
        }
        black_box(&mut *a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    let array_bytes = (a.len() * 8) as u64;
    Stream {
        gb_s: 3.0 * array_bytes as f64 / best / 1e9,
        array_bytes,
        cache_bytes,
        beyond_llc,
    }
}

const FMA_ITERS: usize = 20_000_000;
const FMA_ACCS: usize = 10;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
/// # Safety
/// The CPU must support AVX2 and FMA (checked by the caller through
/// `detected_simd_path`).
unsafe fn fma_avx2(iters: usize) -> f64 {
    use std::arch::x86_64::*;
    let b = _mm256_set1_pd(black_box(0.999_999));
    let c = _mm256_set1_pd(black_box(1e-9));
    let mut acc = [_mm256_set1_pd(1.0); FMA_ACCS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_pd(*a, b, c);
        }
    }
    let mut sum = _mm256_setzero_pd();
    for a in acc {
        sum = _mm256_add_pd(sum, a);
    }
    let mut out = [0.0f64; 4];
    _mm256_storeu_pd(out.as_mut_ptr(), sum);
    out.iter().sum()
}

fn fma_portable(iters: usize) -> f64 {
    let b = black_box(0.999_999f64);
    let c = black_box(1e-9f64);
    let mut acc = [[1.0f64; 4]; FMA_ACCS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            for v in a.iter_mut() {
                *v = *v * b + c;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// Peak multiply-add rate in GF/s on the `SimdPath` the library's kernels
/// dispatch to (independent accumulators hide the FMA latency).
pub fn peak_gflops() -> f64 {
    let path = detected_simd_path();
    let t = Instant::now();
    let sink = match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is only detected when the CPU reports both
        // features.
        SimdPath::Avx2Fma => unsafe { fma_avx2(FMA_ITERS) },
        _ => fma_portable(FMA_ITERS),
    };
    black_box(sink);
    let flops = (FMA_ITERS * FMA_ACCS * 4 * 2) as f64;
    flops / t.elapsed().as_secs_f64() / 1e9
}
