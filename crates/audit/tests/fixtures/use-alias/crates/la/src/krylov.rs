//! Fixture: a hot loop whose vector kernels are called through a
//! `use … as` alias, as GCR and Chebyshev call `vec_ops`.

use crate::vec_ops as v;

pub fn apply_cycle(x: &mut [f64], y: &[f64]) {
    let _s = prof::scope("KSPSolve");
    v::axpy(1.0, y, x);
}
