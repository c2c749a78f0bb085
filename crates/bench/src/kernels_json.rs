//! Schema of `BENCH_kernels.json` — the machine-readable kernel-benchmark
//! record written by the `table1_operators` bench at the repository root so
//! per-operator throughput is tracked across PRs.
//!
//! Layout (`schema = "ptatin-kernel-bench-v2"`):
//!
//! ```json
//! {
//!   "schema": "ptatin-kernel-bench-v2",
//!   "git_rev": "abc1234",
//!   "m": 8, "nel": 512,
//!   "simd_path": "avx2+fma",
//!   "runs": [
//!     { "nt": 1,
//!       "entries": [ { "operator": "tensor", "us_per_apply": ...,
//!                      "el_per_s": ..., "flops_per_s": ...,
//!                      "bytes_per_apply": ... }, ... ],
//!       "speedup_tensor_batched_vs_tensor": 2.1,
//!       "per_kernel": [ { "kernel": "projection", "scalar_us": ...,
//!                         "batched_us": ..., "speedup": ... }, ... ] }, ...
//!   ],
//!   "setup": {
//!     "assembly_scalar_us": ..., "assembly_batched_us": ...,
//!     "assembly_speedup": ...,
//!     "first_setup_us": ..., "resetup_us": ..., "resetup_speedup": ...,
//!     "fused_sfc": {
//!       "natural":  { "num_tiles": ..., "redundancy": ..., "profitable": ... },
//!       "morton":   { "num_tiles": ..., "redundancy": ..., "profitable": ... },
//!       "natural_smooth_us": ..., "morton_smooth_us": ...,
//!       "verdict": "..." }
//!   }
//! }
//! ```
//!
//! `per_kernel` covers the rest of the per-step pipeline (the operator
//! entries above cover the viscous-block apply): the MPM projection pair
//! (P2G + G2P), the grid transfer (restrict + prolong), the Chebyshev
//! smoother (cache-blocked fused vs full-mesh sweeps), one GMG V-cycle
//! through the scalar vs the batched pipeline, and the `whole_step`
//! composite (one projection + [`WHOLE_STEP_VCYCLES`] V-cycles — roughly
//! one Stokes solve per time step). Every run must carry all
//! [`REQUIRED_KERNELS`], and `whole_step` must clear
//! [`WHOLE_STEP_MIN_SPEEDUP`].
//!
//! The v2 `setup` section records the setup-phase costs (all at nt=1): the
//! batched-vs-scalar viscous numeric assembly (floor
//! [`SETUP_ASSEMBLY_MIN_SPEEDUP`]), the first-build vs cached-rebuild
//! solver setup (floor [`RESETUP_MIN_SPEEDUP`]), and the fused-smoothing
//! profitability verdict on the naturally ordered vs the Morton-reordered
//! fine matrix — a measured negative verdict is acceptable, a missing one
//! is not.
//!
//! [`validate`] is the CI gate: `--bin validate_bench` applies it to both
//! the committed root file and the smoke-mode output.

use ptatin_prof::json::Value;

pub const KERNEL_BENCH_SCHEMA: &str = "ptatin-kernel-bench-v2";

/// CI floor on batched-over-scalar viscous numeric assembly at nt=1.
pub const SETUP_ASSEMBLY_MIN_SPEEDUP: f64 = 1.8;

/// CI floor on first-setup over cached re-setup cost.
pub const RESETUP_MIN_SPEEDUP: f64 = 2.0;

/// Kernels every run's `per_kernel` section must report.
pub const REQUIRED_KERNELS: [&str; 5] =
    ["projection", "transfer", "smoother", "vcycle", "whole_step"];

/// V-cycles per `whole_step` composite (≈ Krylov iterations per solve).
pub const WHOLE_STEP_VCYCLES: usize = 8;

/// CI floor on the `whole_step` batched-vs-scalar speedup, applied to runs
/// whose thread count the validating host has cores for: with more
/// threads than cores the pair measures oversubscription, not the kernels.
pub const WHOLE_STEP_MIN_SPEEDUP: f64 = 1.3;

/// One scalar-vs-batched kernel comparison at a fixed thread count.
pub struct PerKernelEntry {
    pub kernel: String,
    pub scalar_us: f64,
    pub batched_us: f64,
}

impl PerKernelEntry {
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("kernel", Value::Str(self.kernel.clone())),
            ("scalar_us", Value::Num(self.scalar_us)),
            ("batched_us", Value::Num(self.batched_us)),
            ("speedup", Value::Num(self.scalar_us / self.batched_us)),
        ])
    }
}

/// Fused-plan statistics of one dof ordering of the fine matrix.
pub struct FusedOrderingStats {
    pub num_tiles: usize,
    pub redundancy: f64,
    pub profitable: bool,
}

impl FusedOrderingStats {
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("num_tiles", Value::Num(self.num_tiles as f64)),
            ("redundancy", Value::Num(self.redundancy)),
            ("profitable", Value::Bool(self.profitable)),
        ])
    }
}

/// The setup-phase record (all timings at nt=1).
pub struct SetupSection {
    /// Viscous numeric assembly into a prebuilt pattern: scalar vs batched.
    pub assembly_scalar_us: f64,
    pub assembly_batched_us: f64,
    /// Full solver setup from nothing vs a warm `SetupCache` rebuild.
    pub first_setup_us: f64,
    pub resetup_us: f64,
    /// Fused-smoothing profitability, natural vs Morton dof ordering.
    pub natural: FusedOrderingStats,
    pub morton: FusedOrderingStats,
    /// Four smoothing iterations through each ordering's production path.
    pub natural_smooth_us: f64,
    pub morton_smooth_us: f64,
    /// Human-readable outcome of the SFC rerun, recorded either way.
    pub verdict: String,
}

impl SetupSection {
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("assembly_scalar_us", Value::Num(self.assembly_scalar_us)),
            ("assembly_batched_us", Value::Num(self.assembly_batched_us)),
            (
                "assembly_speedup",
                Value::Num(self.assembly_scalar_us / self.assembly_batched_us),
            ),
            ("first_setup_us", Value::Num(self.first_setup_us)),
            ("resetup_us", Value::Num(self.resetup_us)),
            (
                "resetup_speedup",
                Value::Num(self.first_setup_us / self.resetup_us),
            ),
            (
                "fused_sfc",
                Value::obj(vec![
                    ("natural", self.natural.to_value()),
                    ("morton", self.morton.to_value()),
                    ("natural_smooth_us", Value::Num(self.natural_smooth_us)),
                    ("morton_smooth_us", Value::Num(self.morton_smooth_us)),
                    ("verdict", Value::Str(self.verdict.clone())),
                ]),
            ),
        ])
    }
}

/// One timed operator variant at a fixed thread count.
pub struct KernelEntry {
    pub operator: String,
    pub us_per_apply: f64,
    pub el_per_s: f64,
    pub flops_per_s: f64,
    pub bytes_per_apply: f64,
}

impl KernelEntry {
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("operator", Value::Str(self.operator.clone())),
            ("us_per_apply", Value::Num(self.us_per_apply)),
            ("el_per_s", Value::Num(self.el_per_s)),
            ("flops_per_s", Value::Num(self.flops_per_s)),
            ("bytes_per_apply", Value::Num(self.bytes_per_apply)),
        ])
    }
}

fn get<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, String> {
    match obj {
        Value::Obj(map) => map.get(key).ok_or_else(|| format!("missing key '{key}'")),
        _ => Err(format!("expected object while looking up '{key}'")),
    }
}

fn num(obj: &Value, key: &str) -> Result<f64, String> {
    match get(obj, key)? {
        Value::Num(n) => Ok(*n),
        _ => Err(format!("key '{key}' must be a number")),
    }
}

fn string(obj: &Value, key: &str) -> Result<String, String> {
    match get(obj, key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("key '{key}' must be a string")),
    }
}

fn boolean(obj: &Value, key: &str) -> Result<bool, String> {
    match get(obj, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("key '{key}' must be a boolean")),
    }
}

fn validate_ordering(stats: &Value, name: &str) -> Result<(), String> {
    let tiles = num(stats, "num_tiles")?;
    if !tiles.is_finite() || tiles < 1.0 {
        return Err(format!("fused_sfc.{name}: bad num_tiles {tiles}"));
    }
    let red = num(stats, "redundancy")?;
    if !red.is_finite() || red < 1.0 {
        return Err(format!("fused_sfc.{name}: bad redundancy {red}"));
    }
    boolean(stats, "profitable")?;
    Ok(())
}

/// Check the `setup` section: finite positive timings, the assembly and
/// re-setup speedup floors, and a complete fused-on-SFC verdict.
fn validate_setup(setup: &Value) -> Result<(), String> {
    for key in [
        "assembly_scalar_us",
        "assembly_batched_us",
        "first_setup_us",
        "resetup_us",
    ] {
        let v = num(setup, key)?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("setup has bad {key}: {v}"));
        }
    }
    let asm = num(setup, "assembly_speedup")?;
    if !asm.is_finite() || asm < SETUP_ASSEMBLY_MIN_SPEEDUP {
        return Err(format!(
            "setup assembly_speedup {asm:.2} below the \
             {SETUP_ASSEMBLY_MIN_SPEEDUP} floor"
        ));
    }
    let re = num(setup, "resetup_speedup")?;
    if !re.is_finite() || re < RESETUP_MIN_SPEEDUP {
        return Err(format!(
            "setup resetup_speedup {re:.2} below the {RESETUP_MIN_SPEEDUP} floor"
        ));
    }
    let fused = get(setup, "fused_sfc")?;
    validate_ordering(get(fused, "natural")?, "natural")?;
    validate_ordering(get(fused, "morton")?, "morton")?;
    for key in ["natural_smooth_us", "morton_smooth_us"] {
        let v = num(fused, key)?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("fused_sfc has bad {key}: {v}"));
        }
    }
    if string(fused, "verdict")?.is_empty() {
        return Err("fused_sfc verdict must be recorded (either way)".into());
    }
    Ok(())
}

/// Validate a parsed `BENCH_kernels.json` document: schema tag, required
/// fields, per-run entry fields with finite positive throughputs, and the
/// presence of the tensor/tensor_batched pair the speedup field refers to.
pub fn validate(doc: &Value) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    validate_on(doc, cores)
}

/// [`validate`] as a host with `cores` logical CPUs would judge it.
fn validate_on(doc: &Value, cores: usize) -> Result<(), String> {
    let schema = string(doc, "schema")?;
    if schema != KERNEL_BENCH_SCHEMA {
        return Err(format!(
            "schema '{schema}' != expected '{KERNEL_BENCH_SCHEMA}'"
        ));
    }
    string(doc, "git_rev")?;
    string(doc, "simd_path")?;
    let m = num(doc, "m")?;
    let nel = num(doc, "nel")?;
    if m < 1.0 || (m * m * m - nel).abs() > 0.5 {
        return Err(format!("inconsistent grid: m={m}, nel={nel}"));
    }
    let runs = match get(doc, "runs")? {
        Value::Arr(a) if !a.is_empty() => a,
        Value::Arr(_) => return Err("runs must be non-empty".into()),
        _ => return Err("runs must be an array".into()),
    };
    for run in runs {
        let nt = num(run, "nt")?;
        if nt < 1.0 {
            return Err(format!("nt must be >= 1, got {nt}"));
        }
        let entries = match get(run, "entries")? {
            Value::Arr(a) if !a.is_empty() => a,
            _ => return Err("entries must be a non-empty array".into()),
        };
        let mut names = Vec::new();
        for e in entries {
            names.push(string(e, "operator")?);
            for key in ["us_per_apply", "el_per_s", "flops_per_s", "bytes_per_apply"] {
                let v = num(e, key)?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!(
                        "entry '{}' has bad {key}: {v}",
                        names.last().unwrap()
                    ));
                }
            }
        }
        for required in ["tensor", "tensor_batched"] {
            if !names.iter().any(|n| n == required) {
                return Err(format!("nt={nt} run is missing operator '{required}'"));
            }
        }
        let speedup = num(run, "speedup_tensor_batched_vs_tensor")?;
        if !speedup.is_finite() || speedup <= 0.0 {
            return Err(format!("bad speedup at nt={nt}: {speedup}"));
        }
        let per_kernel = match get(run, "per_kernel")? {
            Value::Arr(a) if !a.is_empty() => a,
            _ => return Err(format!("nt={nt}: per_kernel must be a non-empty array")),
        };
        let mut kernels = Vec::new();
        for e in per_kernel {
            let name = string(e, "kernel")?;
            for key in ["scalar_us", "batched_us", "speedup"] {
                let v = num(e, key)?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("kernel '{name}' has bad {key}: {v}"));
                }
            }
            if name == "whole_step" && nt <= cores as f64 {
                let s = num(e, "speedup")?;
                if s < WHOLE_STEP_MIN_SPEEDUP {
                    return Err(format!(
                        "nt={nt}: whole_step speedup {s:.2} below the \
                         {WHOLE_STEP_MIN_SPEEDUP} floor"
                    ));
                }
            }
            kernels.push(name);
        }
        for required in REQUIRED_KERNELS {
            if !kernels.iter().any(|k| k == required) {
                return Err(format!("nt={nt} run is missing kernel '{required}'"));
            }
        }
    }
    validate_setup(get(doc, "setup")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str) -> Value {
        KernelEntry {
            operator: name.into(),
            us_per_apply: 100.0,
            el_per_s: 5e6,
            flops_per_s: 5e9,
            bytes_per_apply: 1e6,
        }
        .to_value()
    }

    fn kernel(name: &str, scalar_us: f64, batched_us: f64) -> Value {
        PerKernelEntry {
            kernel: name.into(),
            scalar_us,
            batched_us,
        }
        .to_value()
    }

    fn per_kernel_section() -> Value {
        Value::Arr(
            REQUIRED_KERNELS
                .iter()
                .map(|k| kernel(k, 300.0, 100.0))
                .collect(),
        )
    }

    fn setup_section() -> Value {
        SetupSection {
            assembly_scalar_us: 900.0,
            assembly_batched_us: 400.0,
            first_setup_us: 50_000.0,
            resetup_us: 20_000.0,
            natural: FusedOrderingStats {
                num_tiles: 4,
                redundancy: 2.3,
                profitable: false,
            },
            morton: FusedOrderingStats {
                num_tiles: 4,
                redundancy: 1.4,
                profitable: true,
            },
            natural_smooth_us: 800.0,
            morton_smooth_us: 700.0,
            verdict: "fused smoothing profitable after Morton reorder".into(),
        }
        .to_value()
    }

    fn valid_doc() -> Value {
        Value::obj(vec![
            ("schema", Value::Str(KERNEL_BENCH_SCHEMA.into())),
            ("git_rev", Value::Str("deadbee".into())),
            ("simd_path", Value::Str("avx2+fma".into())),
            ("m", Value::Num(8.0)),
            ("nel", Value::Num(512.0)),
            (
                "runs",
                Value::Arr(vec![Value::obj(vec![
                    ("nt", Value::Num(1.0)),
                    (
                        "entries",
                        Value::Arr(vec![entry("tensor"), entry("tensor_batched")]),
                    ),
                    ("speedup_tensor_batched_vs_tensor", Value::Num(2.0)),
                    ("per_kernel", per_kernel_section()),
                ])]),
            ),
            ("setup", setup_section()),
        ])
    }

    #[test]
    fn valid_document_passes() {
        validate(&valid_doc()).unwrap();
    }

    #[test]
    fn roundtrips_through_serializer() {
        let doc = valid_doc();
        let parsed = ptatin_prof::json::parse(&doc.to_json()).unwrap();
        validate(&parsed).unwrap();
    }

    #[test]
    fn rejects_wrong_schema_missing_ops_and_bad_numbers() {
        let mut doc = valid_doc();
        if let Value::Obj(map) = &mut doc {
            map.insert("schema".into(), Value::Str("other".into()));
        }
        assert!(validate(&doc).unwrap_err().contains("schema"));

        let doc = Value::obj(vec![
            ("schema", Value::Str(KERNEL_BENCH_SCHEMA.into())),
            ("git_rev", Value::Str("x".into())),
            ("simd_path", Value::Str("portable".into())),
            ("m", Value::Num(4.0)),
            ("nel", Value::Num(64.0)),
            (
                "runs",
                Value::Arr(vec![Value::obj(vec![
                    ("nt", Value::Num(1.0)),
                    ("entries", Value::Arr(vec![entry("tensor")])),
                    ("speedup_tensor_batched_vs_tensor", Value::Num(2.0)),
                ])]),
            ),
        ]);
        assert!(validate(&doc).unwrap_err().contains("tensor_batched"));

        let mut bad = valid_doc();
        if let Value::Obj(map) = &mut bad {
            map.insert("nel".into(), Value::Num(100.0));
        }
        assert!(validate(&bad).unwrap_err().contains("inconsistent grid"));
    }

    fn with_per_kernel(section: Value) -> Value {
        let mut doc = valid_doc();
        if let Value::Obj(map) = &mut doc {
            if let Some(Value::Arr(runs)) = map.get_mut("runs") {
                if let Value::Obj(run) = &mut runs[0] {
                    run.insert("per_kernel".into(), section);
                }
            }
        }
        doc
    }

    #[test]
    fn rejects_missing_kernel_and_slow_whole_step() {
        // Dropping any required kernel fails.
        let short = Value::Arr(
            REQUIRED_KERNELS
                .iter()
                .filter(|k| **k != "smoother")
                .map(|k| kernel(k, 300.0, 100.0))
                .collect(),
        );
        assert!(validate(&with_per_kernel(short))
            .unwrap_err()
            .contains("missing kernel 'smoother'"));

        // A whole_step speedup below the floor fails.
        let slow = Value::Arr(
            REQUIRED_KERNELS
                .iter()
                .map(|k| {
                    if *k == "whole_step" {
                        kernel(k, 100.0, 100.0)
                    } else {
                        kernel(k, 300.0, 100.0)
                    }
                })
                .collect(),
        );
        assert!(validate(&with_per_kernel(slow.clone()))
            .unwrap_err()
            .contains("below the"));

        // ... unless the run had more threads than this host has cores.
        let mut oversubscribed = with_per_kernel(slow);
        if let Value::Obj(map) = &mut oversubscribed {
            if let Some(Value::Arr(runs)) = map.get_mut("runs") {
                if let Value::Obj(run) = &mut runs[0] {
                    run.insert("nt".into(), Value::Num(4.0));
                }
            }
        }
        validate_on(&oversubscribed, 2).unwrap();
        assert!(validate_on(&oversubscribed, 4)
            .unwrap_err()
            .contains("nt=4: whole_step speedup"));

        // Non-finite timings fail.
        let nan = Value::Arr(
            REQUIRED_KERNELS
                .iter()
                .map(|k| kernel(k, f64::NAN, 100.0))
                .collect(),
        );
        assert!(validate(&with_per_kernel(nan)).unwrap_err().contains("bad"));
    }

    fn with_setup(section: Value) -> Value {
        let mut doc = valid_doc();
        if let Value::Obj(map) = &mut doc {
            map.insert("setup".into(), section);
        }
        doc
    }

    fn patch_setup(doc: &mut Value, key: &str, v: Value) {
        if let Value::Obj(map) = doc {
            if let Some(Value::Obj(setup)) = map.get_mut("setup") {
                setup.insert(key.into(), v);
            }
        }
    }

    #[test]
    fn rejects_missing_or_slow_setup_section() {
        // No setup section at all.
        let mut doc = valid_doc();
        if let Value::Obj(map) = &mut doc {
            map.remove("setup");
        }
        assert!(validate(&doc).unwrap_err().contains("setup"));

        // Assembly speedup below the 1.8x floor.
        let mut doc = valid_doc();
        patch_setup(&mut doc, "assembly_speedup", Value::Num(1.5));
        assert!(validate(&doc)
            .unwrap_err()
            .contains("assembly_speedup 1.50 below"));

        // Re-setup speedup below the 2x floor.
        let mut doc = valid_doc();
        patch_setup(&mut doc, "resetup_speedup", Value::Num(1.2));
        assert!(validate(&doc)
            .unwrap_err()
            .contains("resetup_speedup 1.20 below"));

        // A fused_sfc section with no verdict string fails; the verdict is
        // required even when the measured outcome is negative.
        let mut doc = valid_doc();
        let mut fused = match setup_section() {
            Value::Obj(mut m) => m.remove("fused_sfc").unwrap(),
            _ => unreachable!(),
        };
        if let Value::Obj(f) = &mut fused {
            f.insert("verdict".into(), Value::Str(String::new()));
        }
        patch_setup(&mut doc, "fused_sfc", fused);
        assert!(validate(&doc).unwrap_err().contains("verdict"));

        // Redundancy below 1 is geometrically impossible.
        let bad = SetupSection {
            assembly_scalar_us: 900.0,
            assembly_batched_us: 400.0,
            first_setup_us: 50_000.0,
            resetup_us: 20_000.0,
            natural: FusedOrderingStats {
                num_tiles: 4,
                redundancy: 0.5,
                profitable: true,
            },
            morton: FusedOrderingStats {
                num_tiles: 4,
                redundancy: 1.4,
                profitable: true,
            },
            natural_smooth_us: 800.0,
            morton_smooth_us: 700.0,
            verdict: "x".into(),
        };
        assert!(validate(&with_setup(bad.to_value()))
            .unwrap_err()
            .contains("redundancy"));
    }
}
