//! Fixture: allocation reachable only *transitively* from a hot entry —
//! the helper is not hot-named, so only the call graph shows it (the panic
//! is a panic-surface finding). One annotated site must stay silent.

pub fn apply(x: &[f64], y: &mut [f64]) {
    let _s = prof::scope("fixture.apply");
    helper(x, y);
}

fn helper(x: &[f64], y: &mut [f64]) {
    let tmp = vec![0.0; x.len()];
    if x.is_empty() {
        panic!("empty input");
    }
    // ALLOC-OK: fixture — annotated transitive site stays silent.
    let quiet = vec![0.0; 1];
    y[0] = tmp[0] + quiet[0];
}
