//! The benchmark's vocabulary — workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics — read from `BENCHMARK.json` at
//! start-up, the one place that names them.

use ptatin3d::prof::json::{self, Value};

/// The seed the recorded iteration references belong to. The
/// iteration-band checks apply to this seed only; every other check
/// applies to every seed.
pub const DEFAULT_SEED: u64 = 20140101;

/// Per-layer metrics that repeat exactly at one thread for one seed:
/// `compare` requires them equal when both files measured the same code.
pub const EXACT_COUNTS: [&str; 10] = [
    "core.krylov_its",
    "core.newton_its",
    "mpm.points",
    "mpm.injected",
    "mpm.removed",
    "mpm.migrated",
    "mpm.lost",
    "ckpt.bytes",
    "ensemble.preemptions",
    "ensemble.retries",
];

pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

pub struct Spec {
    /// How long one run measures: the default `--seconds`.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    /// (name, unit). A workload reports 0 for a layer it does not run,
    /// which is itself the prediction "a change there moves nothing here".
    pub per_layer: Vec<(String, String)>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: an entry has no string `{key}`"))
}

fn entries<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not an array"))
}

impl Spec {
    /// Read `BENCHMARK.json` from the current directory, which must be
    /// the root of the checkout.
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
            format!("cannot read BENCHMARK.json (run from the repository root): {e}")
        })?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no `run_seconds`")?;
        let workloads = entries(&doc, "workloads")?
            .iter()
            .map(|w| field(w, "name").map(str::to_string))
            .collect::<Result<_, _>>()?;
        let end_to_end = entries(&doc, "end_to_end")?
            .iter()
            .map(|m| {
                Ok(EndToEnd {
                    name: field(m, "name")?.to_string(),
                    unit: field(m, "unit")?.to_string(),
                    bound: m
                        .get("bound")
                        .and_then(Value::as_f64)
                        .ok_or("BENCHMARK.json: an end-to-end metric has no `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = entries(&doc, "per_layer")?
            .iter()
            .map(|m| Ok((field(m, "name")?.to_string(), field(m, "unit")?.to_string())))
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }
}
