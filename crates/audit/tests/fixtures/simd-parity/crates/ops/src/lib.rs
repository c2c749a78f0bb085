//! Fixture: one lane body per SIMD kernel — a hand-written intrinsic
//! kernel outside `la::simd`, a lane helper and a `LaneKernel::run` that
//! are not forced inline, and the silent cases: an annotated hand-written
//! kernel with its helper, forced-inline lane code, and test code.

// SAFETY: fixture kernel; callers check avx2 at runtime.
#[target_feature(enable = "avx2")]
pub unsafe fn norm_avx(x: &[f64]) -> f64 {
    x[0]
}

#[inline]
fn dot3<V: Lane>(a: V, b: V) -> V {
    a
}

pub struct Scale<'a>(&'a [f64]);
impl LaneKernel for Scale<'_> {
    type Out = [f64];
    fn run<V: Lane>(self, out: &mut [f64]) {
        let _ = dot3(V::splat(self.0[0]), V::splat(out[0]));
    }
}

#[inline(always)]
fn twice<V: Lane>(a: V) -> V {
    a
}

pub struct Twice;

impl LaneKernel for Twice {
    type Out = ();
    #[inline(always)]
    fn run<V: Lane>(self, _: &mut ()) {
        let _ = twice(V::splat(2.0));
    }
}

// SAFETY: fixture kernel; callers check avx2 at runtime.
// SIMD-OK: hand-written kernel, measured faster than its one-body port.
#[target_feature(enable = "avx2")]
pub unsafe fn kept_avx(x: &[f64]) -> f64 {
    // SAFETY: same feature set as this fn.
    unsafe { kept_helper(x) }
}

// SAFETY: called only from `kept_avx`, under its features.
#[target_feature(enable = "avx2")]
unsafe fn kept_helper(x: &[f64]) -> f64 {
    x[0]
}

#[cfg(test)]
mod tests {
    fn lane_sum<V: Lane>(a: V) -> V {
        a
    }
}
