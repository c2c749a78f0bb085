//! Fixture: the dependency's helper allocates — one finding, reached
//! only through the cross-crate edge.

pub fn helper(x: &[f64]) -> Vec<f64> {
    vec![0.0; x.len()]
}
