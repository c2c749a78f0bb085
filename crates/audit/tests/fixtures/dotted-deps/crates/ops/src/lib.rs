//! Fixture: a hot entry whose helper lives in another crate, declared as
//! a dependency in the dotted `ptatin-la.workspace = true` form.

pub fn apply(x: &[f64], y: &mut [f64]) {
    let _s = prof::scope("fixture.apply");
    y[0] = helper(x)[0];
}
