//! Order statistics used by the runner, the suite and `compare`.

/// Median of a non-empty slice (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them, so `compare` judges spreads the way the driver does.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; `None` below two
/// values or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, or `None` when that is not above the median (n < 21).
/// n = 192 → 94: 192 × 0.06 = 11.5 samples lie beyond p94, 9.6 beyond p95.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    let p = (100.0 * (1.0 - 10.0 / n as f64)).floor();
    (p > 50.0).then_some(p as u32)
}

/// Nearest-rank percentile `p` (0–100) of a non-empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p as f64 / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
