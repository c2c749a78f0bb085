//! Scenario queue specification: job specs and the sweep-file format.
//!
//! A sweep file describes a (possibly huge) family of jobs compactly:
//! scalar base assignments plus `sweep` axes whose cartesian product is
//! expanded into concrete [`JobSpec`]s. The format is line-oriented so a
//! 10⁴-job parameter study is a ten-line text file:
//!
//! ```text
//! # continental rifting sensitivity sweep
//! scenario = rift
//! mx = 6
//! my = 2
//! mz = 4
//! steps = 2
//! sweep extension_velocity = 0.4, 0.5, 0.6
//! sweep seed = 1..9
//! sweep weak_lower_crust = true, false
//! ```
//!
//! expands to `3 × 8 × 2 = 48` jobs. Axes expand in file order with the
//! last axis fastest (odometer order), so job ids are stable under
//! re-parsing — the scheduler, fault targeting and event stream all key
//! on those ids.

use ptatin_scenarios::ScenarioProto;
use std::fmt;
use std::path::Path;

pub use ptatin_scenarios::Scenario;

/// Hard cap on the number of jobs a single sweep may expand to; a typo in
/// a range bound should be an error, not an OOM.
pub const MAX_JOBS: usize = 1_000_000;

/// One concrete job of an ensemble: a scenario, a step budget and a
/// stable id (its index in expansion order).
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub id: u64,
    /// Human-readable name built from the sweep-axis values
    /// (`"extension_velocity=0.5 seed=3"`), or `"job"` for an axis-free
    /// sweep.
    pub name: String,
    pub scenario: Scenario,
    /// Committed-step budget for rift jobs; ignored by sinker jobs.
    pub steps: usize,
}

/// Sweep-file parse/expansion error with 1-based line context.
#[derive(Debug, PartialEq, Eq)]
pub struct SpecError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "sweep: {}", self.msg)
        } else {
            write!(f, "sweep line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        line,
        msg: msg.into(),
    })
}

/// A parsed sweep file: base assignments plus axes, not yet expanded.
#[derive(Clone, Debug, Default)]
pub struct SweepSpec {
    /// `(line, key, value)` scalar assignments, applied in file order.
    base: Vec<(usize, String, String)>,
    /// `(line, key, values)` sweep axes, expanded in file order with the
    /// last axis fastest.
    axes: Vec<(usize, String, Vec<String>)>,
}

impl SweepSpec {
    /// Parse the sweep-file text (see module docs for the grammar).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut spec = SweepSpec::default();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw.find('#') {
                Some(h) => &raw[..h],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let (is_axis, rest) = match line.strip_prefix("sweep ") {
                Some(r) => (true, r.trim()),
                None => (false, line),
            };
            let Some((key, value)) = rest.split_once('=') else {
                return err(lineno, format!("expected `key = value`, got `{line}`"));
            };
            let key = key.trim().to_string();
            let value = value.trim().to_string();
            if key.is_empty() || value.is_empty() {
                return err(lineno, "empty key or value");
            }
            if is_axis {
                let values = expand_axis_values(lineno, &value)?;
                spec.axes.push((lineno, key, values));
            } else {
                spec.base.push((lineno, key, value));
            }
        }
        Ok(spec)
    }

    /// Number of jobs this sweep expands to (product of axis lengths).
    pub fn job_count(&self) -> usize {
        self.axes.iter().map(|(_, _, v)| v.len()).product()
    }

    /// Expand the cartesian product of all axes into concrete jobs.
    pub fn expand(&self) -> Result<Vec<JobSpec>, SpecError> {
        let total = self.job_count();
        if total > MAX_JOBS {
            return err(0, format!("sweep expands to {total} jobs (cap {MAX_JOBS})"));
        }
        let mut jobs = Vec::with_capacity(total);
        for id in 0..total {
            // Odometer decomposition, last axis fastest.
            let mut proto = Proto::default();
            for (line, key, value) in &self.base {
                proto.apply(*line, key, value)?;
            }
            let mut rem = id;
            let mut name = String::new();
            for (line, key, values) in self.axes.iter().rev() {
                let v = &values[rem % values.len()];
                rem /= values.len();
                proto.apply(*line, key, v)?;
                if name.is_empty() {
                    name = format!("{key}={v}");
                } else {
                    name = format!("{key}={v} {name}");
                }
            }
            if name.is_empty() {
                name = "job".to_string();
            }
            jobs.push(proto.into_job(id as u64, name)?);
        }
        Ok(jobs)
    }
}

/// Parse and expand a sweep file from disk.
pub fn load_sweep_file(path: &Path) -> Result<Vec<JobSpec>, SpecError> {
    let text = std::fs::read_to_string(path).map_err(|e| SpecError {
        line: 0,
        msg: format!("cannot read {}: {e}", path.display()),
    })?;
    SweepSpec::parse(&text)?.expand()
}

/// `a..b` integer ranges (half-open) or comma-separated literals.
fn expand_axis_values(line: usize, value: &str) -> Result<Vec<String>, SpecError> {
    if let Some((a, b)) = value.split_once("..") {
        let (a, b) = (a.trim(), b.trim());
        let lo: u64 = match a.parse() {
            Ok(v) => v,
            Err(_) => return err(line, format!("bad range start `{a}`")),
        };
        let hi: u64 = match b.parse() {
            Ok(v) => v,
            Err(_) => return err(line, format!("bad range end `{b}`")),
        };
        if hi <= lo {
            return err(line, format!("empty range `{value}`"));
        }
        return Ok((lo..hi).map(|v| v.to_string()).collect());
    }
    let values: Vec<String> = value
        .split(',')
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .collect();
    if values.is_empty() {
        return err(line, "axis has no values");
    }
    Ok(values)
}

/// Mutable prototype a job is built on: a [`ScenarioProto`] (which
/// carries every per-kind config so keys apply regardless of where
/// `scenario =` appears) — the sweep grammar therefore accepts the full
/// scenario-registry key set, including the `material.*` rheology menu,
/// `solver.*` knobs and `bc.*` boundary choices.
#[derive(Default)]
struct Proto {
    inner: ScenarioProto,
}

impl Proto {
    fn apply(&mut self, line: usize, key: &str, v: &str) -> Result<(), SpecError> {
        self.inner
            .apply(line, key, v)
            .map_or_else(|msg| err(line, msg), Ok)
    }

    fn into_job(self, id: u64, name: String) -> Result<JobSpec, SpecError> {
        let steps = self.inner.steps;
        let scenario = self
            .inner
            .build()
            .map_err(|(line, msg)| SpecError { line, msg })?;
        Ok(JobSpec {
            id,
            name,
            scenario,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_expand_cartesian_product() {
        let text = "\
# a comment
scenario = rift
mx = 6
my = 2          # trailing comment
mz = 4
steps = 2
sweep extension_velocity = 0.4, 0.5
sweep seed = 1..4
";
        let spec = SweepSpec::parse(text).unwrap();
        assert_eq!(spec.job_count(), 6);
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 6);
        // Last axis fastest: seeds cycle within each extension velocity.
        let seeds: Vec<u64> = jobs
            .iter()
            .map(|j| match &j.scenario {
                Scenario::Rift(c) => c.seed,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seeds, vec![1, 2, 3, 1, 2, 3]);
        match &jobs[0].scenario {
            Scenario::Rift(c) => {
                assert_eq!((c.mx, c.my, c.mz), (6, 2, 4));
                assert!((c.extension_velocity - 0.4).abs() < 1e-15);
            }
            _ => unreachable!(),
        }
        match &jobs[5].scenario {
            Scenario::Rift(c) => assert!((c.extension_velocity - 0.5).abs() < 1e-15),
            _ => unreachable!(),
        }
        assert_eq!(jobs[0].steps, 2);
        assert_eq!(jobs[0].id, 0);
        assert_eq!(jobs[5].id, 5);
        assert_eq!(jobs[1].name, "extension_velocity=0.4 seed=2");
    }

    #[test]
    fn sinker_jobs_and_shared_keys() {
        let text = "\
scenario = sinker
m = 4
levels = 2
delta_eta = 1e2
sweep seed = 7, 8
";
        let jobs = SweepSpec::parse(text).unwrap().expand().unwrap();
        assert_eq!(jobs.len(), 2);
        match &jobs[1].scenario {
            Scenario::Sinker(c) => {
                assert_eq!(c.m, 4);
                assert_eq!(c.levels, 2);
                assert_eq!(c.seed, 8);
                assert!((c.delta_eta - 1e2).abs() < 1e-12);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = SweepSpec::parse("mx = 6\nbogus_key = 3\n")
            .unwrap()
            .expand()
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("bogus_key"), "{e}");

        let e = SweepSpec::parse("sweep seed = 9..3\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("empty range"), "{e}");

        let e = SweepSpec::parse("mx 6\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn range_axes_and_job_cap() {
        let jobs = SweepSpec::parse("sweep seed = 0..10\n")
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(jobs.len(), 10);
        // 101^3 > MAX_JOBS: refused at expansion, not during allocation.
        let text = "sweep seed = 0..101\nsweep mx = 0..101\nsweep my = 0..101\n";
        let e = SweepSpec::parse(text).unwrap().expand().unwrap_err();
        assert!(e.msg.contains("cap"), "{e}");
    }

    #[test]
    fn registry_scenarios_and_rheology_keys_are_sweepable() {
        use ptatin_rheology::ViscousLaw;
        // A sweep axis may range over the rheology menu and the geometry
        // of a registry scenario.
        let text = "\
scenario = falling_block
m = 4
levels = 2
material.ambient.law = power_law
sweep material.ambient.stress_exponent = 2, 3
sweep block_half_width = 0.15, 0.25
";
        let jobs = SweepSpec::parse(text).unwrap().expand().unwrap();
        assert_eq!(jobs.len(), 4);
        match &jobs[3].scenario {
            Scenario::FallingBlock(c) => {
                assert_eq!(c.m, 4);
                assert_eq!(c.block_half_width, 0.25);
                match c.ambient.viscous {
                    ViscousLaw::PowerLaw {
                        stress_exponent, ..
                    } => assert_eq!(stress_exponent, 3.0),
                    ref other => panic!("{other:?}"),
                }
            }
            other => panic!("wrong kind {}", other.kind()),
        }
        assert_eq!(
            jobs[1].name,
            "material.ambient.stress_exponent=2 block_half_width=0.25"
        );

        // Scenario-registry validation fires through the sweep grammar
        // with the sweep file's line numbers.
        let e = SweepSpec::parse("scenario = solcx\nmx = 5\n")
            .unwrap()
            .expand()
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("mesh-aligned"), "{e}");

        let e = SweepSpec::parse("scenario = rift\nbc.top = free_slip\n")
            .unwrap()
            .expand()
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("fixed by the model"), "{e}");
    }

    #[test]
    fn axis_free_sweep_is_one_job() {
        let jobs = SweepSpec::parse("scenario = rift\nmx = 4\n")
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].name, "job");
    }
}
