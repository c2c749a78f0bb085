//! Fixture: a vector kernel that allocates, reached only through the alias.

pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    let t = x.to_vec();
    y[0] += a * t[0];
}
