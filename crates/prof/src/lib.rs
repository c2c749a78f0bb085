#![forbid(unsafe_code)]

//! `ptatin-prof` — a PETSc `-log_view`-style profiling subsystem.
//!
//! A process-global, thread-aware event registry with:
//!
//! * **Scoped nested timers** — `let _s = prof::scope("MatMult_MF");`
//!   builds a call tree with inclusive/exclusive times and call counts,
//!   exactly like PETSc's `PetscLogEventBegin/End` pairs.
//! * **Work counters** — `prof::log_flops(n)` / `prof::log_bytes(n)`
//!   attribute analytic flop/byte counts to the innermost active event,
//!   so assembled vs matrix-free vs tensor-product operators report
//!   flops and flops/s directly comparable to the paper's Table 1.
//! * **Solver records** — `prof::record_ksp(..)` captures per-solve
//!   iteration counts and residual histories.
//! * **Reporters** — a `-log_view`-style text table ([`log_view_string`])
//!   and hand-rolled JSON ([`json_string`], [`write_json`]); no external
//!   dependencies.
//!
//! Profiling is **off by default**. When disabled, every entry point is
//! a single relaxed atomic load and an immediate return, so the hooks
//! compiled into hot kernels cost nothing measurable. When enabled, the
//! report is deterministic for a fixed thread count: events appear in
//! first-registration order and all aggregation is order-independent
//! (sums and counts only).
//!
//! ## Worker-thread attribution
//!
//! Scopes are per-thread (a thread-local stack). A parallel region
//! dispatched inside an event runs on `ptatin-la::par`'s persistent pool
//! workers, whose stacks are empty; to attribute *work* (flops/bytes)
//! from those workers to the enclosing event without double-counting
//! *time*, the dispatching thread captures [`current_id`] at every
//! dispatch and each worker installs it with [`adopt`] for the duration
//! of that job (per dispatch, *not* per worker-thread lifetime — pool
//! workers outlive many enclosing events):
//!
//! ```ignore
//! let parent = prof::current_id();  // on the dispatching thread, per job
//! // on a pool worker, before claiming the job's pieces:
//! let _g = prof::adopt(parent);
//! // log_flops here lands on the enclosing event
//! ```

pub mod json;
mod report;

pub use json::Value;
pub use report::{json_string, log_view_string};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

/// The one-and-only fast-path gate. Everything else hides behind it.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

thread_local! {
    static STACK: std::cell::RefCell<Vec<Frame>> = const { std::cell::RefCell::new(Vec::new()) };
}

struct Frame {
    event: usize,
    start: Instant,
    /// Nanoseconds spent in direct children (to compute exclusive time).
    child_ns: u64,
    /// Adopted frames attribute flops but not time (the enclosing event
    /// on the spawning thread already covers the wall clock).
    adopted: bool,
}

#[derive(Default)]
struct Registry {
    /// Event name → index into `events`. Names are `&'static str` so a
    /// scope in a hot loop never allocates.
    names: HashMap<&'static str, usize>,
    /// Aggregates in first-registration order (report order).
    events: Vec<EventAgg>,
    /// (parent event, child event) → aggregate, for the call tree.
    edges: HashMap<(usize, usize), EdgeAgg>,
    /// Completed Krylov solves, in completion order.
    ksp: Vec<KspRecord>,
}

#[derive(Default, Clone)]
struct EventAgg {
    name: &'static str,
    calls: u64,
    incl_ns: u64,
    excl_ns: u64,
    flops: u64,
    bytes: u64,
}

#[derive(Default, Clone, Copy)]
struct EdgeAgg {
    calls: u64,
    incl_ns: u64,
}

/// One completed Krylov solve, as reported by the solver layer.
#[derive(Debug, Clone, PartialEq)]
pub struct KspRecord {
    /// Solver label, e.g. `"GCR(stokes)"` or `"CG(coarse)"`.
    pub label: String,
    pub iterations: usize,
    /// Requested relative tolerance (the Newton forcing term for the
    /// outer solve of a nonlinear iteration).
    pub rtol: f64,
    pub converged: bool,
    pub initial_residual: f64,
    pub final_residual: f64,
    /// Residual norms per iteration (may be empty if not recorded).
    pub history: Vec<f64>,
}

// ---------------------------------------------------------------------------
// Control
// ---------------------------------------------------------------------------

/// Turn profiling on. Cheap; safe to call repeatedly.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn profiling off. In-flight scopes on other threads finish
/// recording (their guards were created while enabled).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Is profiling currently enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded events, edges, and KSP records (the enabled flag
/// is left as-is). Intended for tests and for bench binaries that want
/// per-phase reports.
pub fn reset() {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.names.clear();
    reg.events.clear();
    reg.edges.clear();
    reg.ksp.clear();
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

/// RAII guard for a profiled region; created by [`scope`].
#[must_use = "the scope ends when this guard drops"]
pub struct ScopeGuard {
    /// `None` when profiling was disabled at creation (the no-op path).
    event: Option<usize>,
}

/// Begin a named event on this thread. The event ends (and its timing
/// is committed) when the returned guard drops. Nested scopes form the
/// call tree; exclusive time is inclusive time minus time spent in
/// direct children.
#[inline]
pub fn scope(name: &'static str) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { event: None };
    }
    let event = intern(name);
    push_frame(event);
    ScopeGuard { event: Some(event) }
}

/// Like [`scope`], but the event name is computed at runtime (e.g. a
/// per-job label such as `EnsembleJob[00017]`). A name not seen before is
/// interned by leaking one copy, so the cost is bounded by the number of
/// *distinct* names over the process lifetime — callers generating
/// unbounded unique names (a 10⁴-job sweep) should only do so while
/// profiling is enabled on purpose. When profiling is disabled nothing is
/// interned and no allocation happens.
#[inline]
pub fn scope_dyn(name: &str) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { event: None };
    }
    let event = intern_dyn(name);
    push_frame(event);
    ScopeGuard { event: Some(event) }
}

#[inline]
fn push_frame(event: usize) {
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            event,
            start: Instant::now(),
            child_ns: 0,
            adopted: false,
        })
    });
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let Some(event) = self.event else { return };
        let (elapsed_ns, child_ns, parent) = match STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.pop()?;
            debug_assert_eq!(frame.event, event, "unbalanced prof scopes");
            let elapsed = frame.start.elapsed().as_nanos() as u64;
            let parent = stack.last_mut().map(|p| {
                p.child_ns += elapsed;
                p.event
            });
            Some((elapsed, frame.child_ns, parent))
        }) {
            Some(t) => t,
            None => return,
        };
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let agg = &mut reg.events[event];
        agg.calls += 1;
        agg.incl_ns += elapsed_ns;
        agg.excl_ns += elapsed_ns.saturating_sub(child_ns);
        if let Some(parent) = parent {
            let edge = reg.edges.entry((parent, event)).or_default();
            edge.calls += 1;
            edge.incl_ns += elapsed_ns;
        }
    }
}

/// The innermost active event on this thread, as an opaque id suitable
/// for [`adopt`] on a worker thread. `None` when disabled or when no
/// scope is active.
#[inline]
pub fn current_id() -> Option<usize> {
    if !enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().map(|f| f.event))
}

/// Guard installing an adopted (work-only) frame; created by [`adopt`].
#[must_use = "the adoption ends when this guard drops"]
pub struct AdoptGuard {
    active: bool,
}

/// Install `parent` (from [`current_id`] on the spawning thread) as the
/// attribution target on this worker thread. Flops/bytes logged while
/// the guard lives land on that event; no time or call count is
/// recorded, since the spawning thread's scope already covers the wall
/// clock of the parallel region.
#[inline]
pub fn adopt(parent: Option<usize>) -> AdoptGuard {
    let Some(event) = parent else {
        return AdoptGuard { active: false };
    };
    if !enabled() {
        return AdoptGuard { active: false };
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            event,
            start: Instant::now(),
            child_ns: 0,
            adopted: true,
        })
    });
    AdoptGuard { active: true }
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            debug_assert!(stack.last().is_some_and(|f| f.adopted));
            stack.pop();
        });
    }
}

// ---------------------------------------------------------------------------
// Work counters & solver records
// ---------------------------------------------------------------------------

/// Attribute `n` floating-point operations to the innermost active
/// event on this thread. No-op when disabled or outside any scope.
#[inline]
pub fn log_flops(n: u64) {
    if !enabled() {
        return;
    }
    if let Some(event) = STACK.with(|s| s.borrow().last().map(|f| f.event)) {
        registry().lock().unwrap_or_else(|e| e.into_inner()).events[event].flops += n;
    }
}

/// Attribute `n` bytes of memory traffic to the innermost active event
/// on this thread. No-op when disabled or outside any scope.
#[inline]
pub fn log_bytes(n: u64) {
    if !enabled() {
        return;
    }
    if let Some(event) = STACK.with(|s| s.borrow().last().map(|f| f.event)) {
        registry().lock().unwrap_or_else(|e| e.into_inner()).events[event].bytes += n;
    }
}

/// Record a completed Krylov solve. No-op when disabled.
pub fn record_ksp(rec: KspRecord) {
    if !enabled() {
        return;
    }
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .ksp
        .push(rec);
}

fn intern(name: &'static str) -> usize {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&i) = reg.names.get(name) {
        return i;
    }
    let i = reg.events.len();
    reg.events.push(EventAgg {
        name,
        ..EventAgg::default()
    });
    reg.names.insert(name, i);
    i
}

/// Intern a runtime-computed name. First sight of a name leaks one boxed
/// copy to obtain the `&'static str` the registry stores; subsequent
/// scopes with the same text reuse it (interning, not a per-call leak).
fn intern_dyn(name: &str) -> usize {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&i) = reg.names.get(name) {
        return i;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let i = reg.events.len();
    reg.events.push(EventAgg {
        name: leaked,
        ..EventAgg::default()
    });
    reg.names.insert(leaked, i);
    i
}

/// Total flops recorded so far across every event. The ensemble scheduler
/// uses before/after deltas of this to attribute work to the job whose
/// slice ran in between (slices run one at a time on the shared pool) and
/// to enforce per-job flop budgets.
pub fn flops_total() -> u64 {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .events
        .iter()
        .map(|e| e.flops)
        .sum()
}

// ---------------------------------------------------------------------------
// Snapshots (the data the reporters consume)
// ---------------------------------------------------------------------------

/// Immutable copy of one event's aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSnapshot {
    pub name: &'static str,
    pub calls: u64,
    pub incl_seconds: f64,
    pub excl_seconds: f64,
    pub flops: u64,
    pub bytes: u64,
}

/// One parent→child aggregate in the call tree.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSnapshot {
    pub parent: &'static str,
    pub child: &'static str,
    pub calls: u64,
    pub incl_seconds: f64,
}

/// A consistent copy of everything recorded so far.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub events: Vec<EventSnapshot>,
    pub edges: Vec<EdgeSnapshot>,
    pub ksp: Vec<KspRecord>,
}

impl Snapshot {
    /// Look up an event by name.
    pub fn event(&self, name: &str) -> Option<&EventSnapshot> {
        self.events.iter().find(|e| e.name == name)
    }

    /// Children of `parent` in the call tree, in event-registration
    /// order (deterministic).
    pub fn children(&self, parent: &str) -> Vec<&EdgeSnapshot> {
        self.edges.iter().filter(|e| e.parent == parent).collect()
    }
}

/// Take a consistent snapshot of all recorded data. Available even when
/// profiling is disabled (returns whatever was recorded before).
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let events = reg
        .events
        .iter()
        .map(|e| EventSnapshot {
            name: e.name,
            calls: e.calls,
            incl_seconds: e.incl_ns as f64 * 1e-9,
            excl_seconds: e.excl_ns as f64 * 1e-9,
            flops: e.flops,
            bytes: e.bytes,
        })
        .collect();
    // Deterministic edge order: (parent index, child index) ascending.
    let mut keys: Vec<(usize, usize)> = reg.edges.keys().copied().collect();
    keys.sort_unstable();
    let edges = keys
        .into_iter()
        .map(|(p, c)| {
            let e = reg.edges[&(p, c)];
            EdgeSnapshot {
                parent: reg.events[p].name,
                child: reg.events[c].name,
                calls: e.calls,
                incl_seconds: e.incl_ns as f64 * 1e-9,
            }
        })
        .collect();
    Snapshot {
        events,
        edges,
        ksp: reg.ksp.clone(),
    }
}

// ---------------------------------------------------------------------------
// File outputs
// ---------------------------------------------------------------------------

/// Render the current snapshot as JSON and write it to `path`, creating
/// parent directories as needed.
pub fn write_json(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, json_string(&snapshot()))
}

/// Print the `-log_view`-style report for the current snapshot to
/// stderr (stdout stays clean for the caller's own tables/CSV).
pub fn print_log_view() {
    eprint!("{}", log_view_string(&snapshot()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry is process-global, so tests that exercise it must
    /// not interleave. `cargo test` runs tests on multiple threads;
    /// every test takes this lock first.
    fn serialize_tests() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fresh() -> MutexGuard<'static, ()> {
        let guard = serialize_tests();
        reset();
        enable();
        guard
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = serialize_tests();
        reset();
        disable();
        {
            let _s = scope("should_not_appear");
            log_flops(1000);
            log_bytes(1000);
            record_ksp(KspRecord {
                label: "x".into(),
                iterations: 1,
                rtol: 1e-5,
                converged: true,
                initial_residual: 1.0,
                final_residual: 0.1,
                history: vec![],
            });
        }
        let snap = snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.ksp.is_empty());
    }

    #[test]
    fn nested_scopes_aggregate_inclusive_exclusive() {
        let _g = fresh();
        {
            let _outer = scope("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            for _ in 0..2 {
                let _inner = scope("inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        disable();
        let snap = snapshot();
        let outer = snap.event("outer").unwrap();
        let inner = snap.event("inner").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 2);
        // Inclusive outer covers both inners; exclusive outer does not.
        assert!(outer.incl_seconds >= inner.incl_seconds);
        assert!(outer.excl_seconds <= outer.incl_seconds - inner.incl_seconds + 1e-3);
        assert!(inner.incl_seconds >= 0.008 - 1e-3);
        // Call-tree edge outer→inner with 2 calls.
        let edges = snap.children("outer");
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].child, "inner");
        assert_eq!(edges[0].calls, 2);
    }

    #[test]
    fn flops_accumulate_across_threads_via_adopt() {
        let _g = fresh();
        {
            let _s = scope("parallel_region");
            let parent = current_id();
            assert!(parent.is_some());
            std::thread::scope(|sc| {
                for _ in 0..4 {
                    sc.spawn(move || {
                        let _a = adopt(parent);
                        log_flops(250);
                    });
                }
            });
            log_flops(17);
        }
        disable();
        let snap = snapshot();
        let ev = snap.event("parallel_region").unwrap();
        assert_eq!(ev.flops, 4 * 250 + 17);
        // Adopted frames contribute no extra calls or time entries.
        assert_eq!(ev.calls, 1);
    }

    #[test]
    fn scope_dyn_interns_runtime_names_once() {
        let _g = fresh();
        for pass in 0..3 {
            let name = format!("Job[{:05}]", 7);
            let _s = scope_dyn(&name);
            log_flops(10 + pass);
        }
        disable();
        let snap = snapshot();
        // One event despite three guards built from three String values.
        let ev = snap.event("Job[00007]").unwrap();
        assert_eq!(ev.calls, 3);
        assert_eq!(ev.flops, 10 + 11 + 12);
        assert_eq!(
            snap.events
                .iter()
                .filter(|e| e.name.starts_with("Job["))
                .count(),
            1
        );
    }

    #[test]
    fn scope_dyn_disabled_records_and_interns_nothing() {
        let _g = serialize_tests();
        reset();
        disable();
        {
            let _s = scope_dyn("ephemeral");
            log_flops(5);
        }
        assert!(snapshot().events.is_empty());
    }

    /// Two "jobs" interleaved on the same worker threads: each dispatch
    /// adopts the parent that spawned it, so flop attribution stays
    /// disjoint per job even though the workers are shared. This is the
    /// contract the ensemble scheduler's per-job attribution rests on.
    #[test]
    fn interleaved_adoption_attributes_to_the_right_parent() {
        let _g = fresh();
        let mut totals = [0u64; 2];
        for round in 0..3 {
            for job in 0..2usize {
                let name = format!("AdoptJob[{job}]");
                let _s = scope_dyn(&name);
                let parent = current_id();
                let work = 100 * (job as u64 + 1) + round;
                std::thread::scope(|sc| {
                    for _ in 0..2 {
                        sc.spawn(move || {
                            let _a = adopt(parent);
                            log_flops(work);
                        });
                    }
                });
                totals[job] += 2 * work;
            }
        }
        disable();
        let snap = snapshot();
        for job in 0..2usize {
            let ev = snap.event(&format!("AdoptJob[{job}]")).unwrap();
            assert_eq!(ev.flops, totals[job], "job {job} flops disjoint");
            assert_eq!(ev.calls, 3, "one call per round");
        }
        assert_eq!(flops_total(), totals[0] + totals[1]);
    }

    #[test]
    fn flops_outside_any_scope_are_dropped() {
        let _g = fresh();
        log_flops(123);
        disable();
        assert!(snapshot().events.is_empty());
    }

    #[test]
    fn ksp_records_in_order() {
        let _g = fresh();
        for i in 0..3 {
            record_ksp(KspRecord {
                label: format!("solve{i}"),
                iterations: i,
                rtol: 1e-5,
                converged: true,
                initial_residual: 1.0,
                final_residual: 1e-9,
                history: vec![1.0, 0.5],
            });
        }
        disable();
        let snap = snapshot();
        assert_eq!(snap.ksp.len(), 3);
        assert_eq!(snap.ksp[2].label, "solve2");
    }

    #[test]
    fn registration_order_is_report_order() {
        let _g = fresh();
        {
            let _a = scope("zebra");
        }
        {
            let _b = scope("aardvark");
        }
        disable();
        let names: Vec<_> = snapshot().events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["zebra", "aardvark"]);
    }
}
