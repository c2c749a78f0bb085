//! The benchmark's own span recorder: spans are recorded from here,
//! around calls into the library's public functions, never from inside
//! the program. Spans stay in memory and are written out when the run
//! ends.
//!
//! A span is (name, start, end, parent, repetition id). A layer's self
//! time is its duration minus the part of that interval its children
//! cover (children may overlap; the cover is the union).

use ptatin3d::prof::json::Value;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory recorder. `span` always times its closure (two clock reads)
/// and returns the elapsed seconds, because the end-to-end metrics need a
/// few of those times with tracing off; it *records* only when enabled.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new repetition: drops the spans of the previous one.
    pub fn begin_rep(&mut self, rep: u32) {
        self.spans.clear();
        self.stack.clear();
        self.rep = rep;
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span that is a child of the innermost open span.
    /// Returns `f`'s result and the elapsed seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let idx = if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(self.spans.len() - 1);
            Some(self.spans.len() - 1)
        } else {
            None
        };
        let out = f(self);
        let end_ns = self.now_ns();
        if let Some(i) = idx {
            self.spans[i].end_ns = end_ns;
            self.stack.pop();
        }
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Record a span whose bounds were stamped elsewhere (a callback the
    /// library invoked), as a child of the innermost open span.
    pub fn add(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
        }
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn cover_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

fn child_intervals(spans: &[Span], idx: usize) -> Vec<(u64, u64)> {
    spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns, s.end_ns))
        .collect()
}

/// Self time of span `idx`: duration minus the union of its children.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let s = &spans[idx];
    let covered = cover_ns(&child_intervals(spans, idx), s.start_ns, s.end_ns);
    (s.end_ns - s.start_ns) - covered
}

/// Share of span `root` that its direct children cover.
pub fn coverage_frac(spans: &[Span], root: usize) -> f64 {
    let s = &spans[root];
    let dur = s.end_ns - s.start_ns;
    if dur == 0 {
        return 0.0;
    }
    cover_ns(&child_intervals(spans, root), s.start_ns, s.end_ns) as f64 / dur as f64
}

/// The validator of the traced run: attributed time must reach `min` of
/// the repetition's wall time.
pub fn validate_coverage(spans: &[Span], root: usize, min: f64) -> Result<f64, String> {
    let c = coverage_frac(spans, root);
    if c >= min {
        Ok(c)
    } else {
        Err(format!(
            "spans cover only {:.3} of `{}` (need {min})",
            c, spans[root].name
        ))
    }
}

/// Sum of the durations of every span called `name` (seconds).
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// Number of spans called `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Self time per span name as a share of span `root`, largest first.
pub fn self_shares(spans: &[Span], root: usize) -> Vec<(String, f64)> {
    let dur = (spans[root].end_ns - spans[root].start_ns).max(1) as f64;
    let mut by_name: std::collections::BTreeMap<&str, u64> = Default::default();
    for i in 0..spans.len() {
        *by_name.entry(spans[i].name.as_str()).or_default() += self_ns(spans, i);
    }
    let mut out: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(n, ns)| (n.to_string(), ns as f64 / dur))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// The trace file written at exit: one object per span with its self time.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        (0..spans.len())
            .map(|i| {
                let s = &spans[i];
                Value::obj(vec![
                    ("name", Value::Str(s.name.clone())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("rep", Value::Num(s.rep as f64)),
                    ("self_ns", Value::Num(self_ns(spans, i) as f64)),
                ])
            })
            .collect(),
    )
}
