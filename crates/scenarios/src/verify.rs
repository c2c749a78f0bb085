//! SolCx discretization-error convergence gate.
//!
//! Runs the SolCx analytic problem at a ladder of refinement levels,
//! fits the observed L² error rates by least squares in log-log space,
//! and passes only when the fitted rates clear their floors: the Q2
//! velocity space must deliver ~O(h³) and the P1disc pressure ~O(h²)
//! *across the 10⁴ viscosity jump*. A regression anywhere in the
//! discretization, quadrature, viscosity sampling or solver stack shows
//! up as a rate collapse long before it shows up as a wrong-looking
//! picture.

use ptatin_core::models::solcx::{SolCxConfig, SolCxModel};

/// Gate policy: which resolutions to run and which fitted rates to demand.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Element counts per refinement level (mx = mz = m; each must be
    /// even). Two entries make a smoke gate, three a full gate.
    pub resolutions: Vec<usize>,
    /// Elements along the passive y direction (the solution is
    /// y-invariant, so 2 keeps the gate fast).
    pub my: usize,
    pub eta_left: f64,
    pub eta_right: f64,
    pub levels: usize,
    /// Krylov relative tolerance — tight so algebraic error stays far
    /// below the discretization error being measured.
    pub rtol: f64,
    pub max_it: usize,
    /// Minimum fitted L² velocity convergence rate.
    pub vel_rate_floor: f64,
    /// Minimum fitted L² pressure convergence rate.
    pub p_rate_floor: f64,
}

impl GateConfig {
    /// Full CI gate: three refinement levels, near-asymptotic floors
    /// (measured rates are ~3.05/1.95 at these resolutions).
    pub fn full() -> Self {
        Self {
            resolutions: vec![4, 8, 16],
            my: 2,
            eta_left: 1.0,
            eta_right: 1e4,
            levels: 2,
            rtol: 1e-10,
            max_it: 2000,
            vel_rate_floor: 2.7,
            p_rate_floor: 1.8,
        }
    }

    /// Smoke gate: two levels with pre-asymptotic floors — fast enough
    /// to run on every CI invocation at several thread counts.
    pub fn smoke() -> Self {
        Self {
            resolutions: vec![4, 8],
            vel_rate_floor: 2.5,
            p_rate_floor: 1.7,
            ..Self::full()
        }
    }
}

/// One refinement level's measurement.
#[derive(Clone, Debug)]
pub struct GateSample {
    pub m: usize,
    pub h: f64,
    pub velocity_l2: f64,
    pub pressure_l2: f64,
    pub iterations: usize,
    pub converged: bool,
}

/// Result of a gate run.
#[derive(Clone, Debug)]
pub struct GateReport {
    pub samples: Vec<GateSample>,
    /// Least-squares slope of ln(velocity error) vs ln(h).
    pub velocity_rate: f64,
    /// Least-squares slope of ln(pressure error) vs ln(h).
    pub pressure_rate: f64,
    pub vel_rate_floor: f64,
    pub p_rate_floor: f64,
}

impl GateReport {
    /// True when every solve converged and both fitted rates clear
    /// their floors.
    pub fn pass(&self) -> bool {
        self.samples.iter().all(|s| s.converged)
            && self.velocity_rate >= self.vel_rate_floor
            && self.pressure_rate >= self.p_rate_floor
    }

    /// Render the report for humans and for bitwise comparison: each
    /// rate is printed in decimal and as the exact bits of the f64, so
    /// two runs at different thread counts can be diffed textually.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.samples {
            writeln!(
                out,
                "m={:<3} h={:.6} vel_l2={:.12e} p_l2={:.12e} its={} converged={}",
                s.m, s.h, s.velocity_l2, s.pressure_l2, s.iterations, s.converged
            )
            // PANIC-OK: writing to a String cannot fail.
            .unwrap();
        }
        writeln!(
            out,
            "velocity_rate={:.6} bits={:016x} (floor {})",
            self.velocity_rate,
            self.velocity_rate.to_bits(),
            self.vel_rate_floor
        )
        // PANIC-OK: writing to a String cannot fail.
        .unwrap();
        writeln!(
            out,
            "pressure_rate={:.6} bits={:016x} (floor {})",
            self.pressure_rate,
            self.pressure_rate.to_bits(),
            self.p_rate_floor
        )
        // PANIC-OK: writing to a String cannot fail.
        .unwrap();
        // PANIC-OK: writing to a String cannot fail.
        writeln!(out, "gate={}", if self.pass() { "PASS" } else { "FAIL" }).unwrap();
        out
    }
}

/// Least-squares slope of `y` against `x` (the fitted convergence rate
/// when `x = ln h`, `y = ln error`). With two points this reduces to the
/// classic `log2(e1/e2)` rate.
fn slope(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let xm = x.iter().sum::<f64>() / n;
    let ym = y.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        num += (xi - xm) * (yi - ym);
        den += (xi - xm) * (xi - xm);
    }
    num / den
}

/// Run the gate: solve every resolution, fit the rates.
pub fn run_gate(cfg: &GateConfig) -> GateReport {
    assert!(
        cfg.resolutions.len() >= 2,
        "a convergence rate needs at least two resolutions"
    );
    let mut samples = Vec::with_capacity(cfg.resolutions.len());
    for &res in &cfg.resolutions {
        let sc = SolCxConfig {
            mx: res,
            my: cfg.my,
            mz: res,
            levels: cfg.levels,
            eta_left: cfg.eta_left,
            eta_right: cfg.eta_right,
            rtol: cfg.rtol,
            max_it: cfg.max_it,
        };
        let report = SolCxModel::new(sc).solve();
        samples.push(GateSample {
            m: res,
            h: report.h,
            velocity_l2: report.errors.velocity_l2,
            pressure_l2: report.errors.pressure_l2,
            iterations: report.stats.iterations,
            converged: report.stats.converged,
        });
    }
    let lnh: Vec<f64> = samples.iter().map(|s| s.h.ln()).collect();
    let lnv: Vec<f64> = samples.iter().map(|s| s.velocity_l2.ln()).collect();
    let lnp: Vec<f64> = samples.iter().map(|s| s.pressure_l2.ln()).collect();
    GateReport {
        velocity_rate: slope(&lnh, &lnv),
        pressure_rate: slope(&lnh, &lnp),
        vel_rate_floor: cfg.vel_rate_floor,
        p_rate_floor: cfg.p_rate_floor,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_recovers_exact_power() {
        // err = C h^3 exactly: slope of ln err vs ln h is 3.
        let hs = [0.25f64, 0.125, 0.0625];
        let x: Vec<f64> = hs.iter().map(|h| h.ln()).collect();
        let y: Vec<f64> = hs.iter().map(|h| (2.0 * h.powi(3)).ln()).collect();
        assert!((slope(&x, &y) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_point_slope_is_log2_ratio() {
        let x = [0.25f64.ln(), 0.125f64.ln()];
        let y = [1e-2f64.ln(), 1.3e-3f64.ln()];
        let expect = (1e-2f64 / 1.3e-3).log2();
        assert!((slope(&x, &y) - expect).abs() < 1e-12);
    }
}
