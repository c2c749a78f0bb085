//! Fixture: a same-named helper in a crate `ops` does not depend on; the
//! dependency filter must keep the call out of here.

pub fn helper(x: &[f64]) -> Vec<f64> {
    x.to_vec()
}
