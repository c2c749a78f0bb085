//! Fixture: the one `#[target_feature]` wrapper, where it may live.

pub trait Lane: Copy {
    fn splat(v: f64) -> Self;
}

pub trait LaneKernel {
    type Out: ?Sized;
    fn run<V: Lane>(self, out: &mut Self::Out);
}

#[derive(Clone, Copy)]
pub struct Wide(f64);

impl Lane for Wide {
    fn splat(v: f64) -> Self {
        Wide(v)
    }
}

// SAFETY: fixture wrapper; callers check avx2 at runtime.
#[target_feature(enable = "avx2")]
pub unsafe fn run_lanes<K: LaneKernel>(kernel: K, out: &mut K::Out) {
    kernel.run::<Wide>(out)
}
