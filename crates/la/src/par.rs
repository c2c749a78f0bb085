//! Shared-memory data parallelism on a persistent worker pool.
//!
//! pTatin3D relies on MPI ranks for parallelism; this reproduction runs in
//! shared memory. Earlier revisions spawned fresh OS threads per call via
//! `std::thread::scope`, so every SpMV / dot / element loop in the Krylov
//! hot path paid thread-creation syscalls — exactly the per-apply fixed
//! cost the paper's matrix-free kernels work to eliminate. The helpers now
//! dispatch onto a lazily-created pool of long-lived workers parked on a
//! condvar; `std::thread` spawning happens only when the pool is (re)built.
//!
//! ## Determinism contract
//!
//! * [`split_ranges`] is a pure function of `(len, nt)`.
//! * Piece results depend only on the piece index, never on which thread
//!   ran the piece.
//! * [`par_reduce`] folds fixed [`REDUCE_BLOCK`]-sized blocks and combines
//!   the block partials left-to-right in block order — the grouping is a
//!   pure function of `len`, independent of the thread count.
//! * The calling thread folds piece 0 itself (it would otherwise idle).
//!
//! Together these make every helper bitwise-deterministic at a fixed
//! thread count, and make every *reduction* (dot products, norms — the
//! only place parallel regrouping could touch floating point) bitwise
//! identical across thread counts too. Element loops already scatter in
//! color/lane order, so whole Stokes solves reproduce bitwise at nt=1
//! and nt=N (see `tests/thread_invariance.rs` and the SolCx gate's
//! nt-sweep in scripts/ci.sh).
//!
//! ## Nested parallelism
//!
//! `par_*` calls made from inside a pool worker, or re-entrantly from a
//! piece running on the dispatching thread, degrade to the serial path
//! (pieces executed in order on the current thread) instead of
//! deadlocking. Distinct top-level dispatching threads serialize on the
//! pool lock.
//!
//! The thread count is a process-global knob (`set_num_threads`) so that
//! benchmark harnesses can sweep "core counts" the way the paper sweeps
//! MPI ranks; `PTATIN_TEST_THREADS` supplies the default so CI can run the
//! whole suite at several counts.

use ptatin_prof as prof;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set for the lifetime of a pool worker thread.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Set on the dispatching thread while it runs piece 0 of a job.
    static DISPATCH_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Verify that `ranges` is an ordered, disjoint, covering partition of
/// `0..len` with every boundary a multiple of `align` (the final end may
/// be clamped to `len`). Panics with a description of the violated
/// invariant. Called from every `split_*` under the `pool-sanitizer`
/// feature; public so tests can feed hand-built partitions.
#[cfg(any(feature = "pool-sanitizer", test))]
pub fn sanitize_partition(len: usize, align: usize, ranges: &[(usize, usize)]) {
    assert!(align > 0, "pool-sanitizer: alignment must be positive");
    assert!(
        !ranges.is_empty(),
        "pool-sanitizer: empty partition of {len} items"
    );
    let mut prev_end = 0usize;
    for (k, &(s, e)) in ranges.iter().enumerate() {
        assert!(s <= e, "pool-sanitizer: piece {k} is reversed ({s}, {e})");
        assert_eq!(
            s, prev_end,
            "pool-sanitizer: piece {k} starts at {s}, expected {prev_end} (gap or overlap)"
        );
        assert_eq!(
            s % align,
            0,
            "pool-sanitizer: piece {k} start {s} not a multiple of {align}"
        );
        assert!(
            e % align == 0 || e == len,
            "pool-sanitizer: piece {k} end {e} neither a multiple of {align} nor the final end"
        );
        prev_end = e;
    }
    assert_eq!(
        prev_end, len,
        "pool-sanitizer: partition covers {prev_end} of {len} items"
    );
}

/// Pool-invariant counters, compiled in only with the sanitizer.
#[cfg(feature = "pool-sanitizer")]
mod sanitizer {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Worker threads currently executing `worker_loop` (any generation).
    pub static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);
    /// Dispatches currently between publish and retire; the registry lock
    /// makes >1 a protocol violation.
    pub static ACTIVE_DISPATCHES: AtomicUsize = AtomicUsize::new(0);

    /// RAII increment/decrement of [`LIVE_WORKERS`].
    pub struct WorkerAlive;
    impl WorkerAlive {
        pub fn enter() -> Self {
            LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
            WorkerAlive
        }
    }
    impl Drop for WorkerAlive {
        fn drop(&mut self) {
            LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// RAII guard asserting at most one in-flight dispatch.
    pub struct DispatchDepth;
    impl DispatchDepth {
        pub fn enter() -> Self {
            let prev = ACTIVE_DISPATCHES.fetch_add(1, Ordering::SeqCst);
            assert_eq!(
                prev, 0,
                "pool-sanitizer: concurrent dispatches must serialize on the pool lock"
            );
            DispatchDepth
        }
    }
    impl Drop for DispatchDepth {
        fn drop(&mut self) {
            ACTIVE_DISPATCHES.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// `PTATIN_TEST_THREADS` (read once): default thread count for the whole
/// process so CI can run the test suite at several counts. `0`/unset defer
/// to `available_parallelism`.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PTATIN_TEST_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// Set the number of worker threads used by all parallel loops, resizing
/// the persistent pool eagerly (old workers are joined, never leaked).
///
/// `0` (the default) means "use `PTATIN_TEST_THREADS`, else
/// `std::thread::available_parallelism()`".
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
    if IS_POOL_WORKER.with(Cell::get) || DISPATCH_ACTIVE.with(Cell::get) {
        // Resizing from inside a parallel region would self-join / deadlock
        // on the pool lock; the new count takes effect on the next
        // top-level dispatch.
        return;
    }
    let mut slot = pool_registry().lock().unwrap_or_else(|e| e.into_inner());
    ensure_pool(&mut slot, num_threads().saturating_sub(1));
}

/// The number of threads parallel loops will currently use (the calling
/// thread plus pool workers).
pub fn num_threads() -> usize {
    let n = NUM_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let e = env_threads();
    if e != 0 {
        return e;
    }
    default_threads()
}

/// `std::thread::available_parallelism()` (read once): it re-reads the
/// cgroup quota on every call, and the CLI's default run asks on every
/// parallel dispatch.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Number of live worker threads in the persistent pool (excludes the
/// calling thread; `num_threads() == 1` keeps the pool empty).
pub fn pool_worker_count() -> usize {
    let slot = pool_registry().lock().unwrap_or_else(|e| e.into_inner());
    slot.as_ref().map_or(0, |p| p.handles.len())
}

/// Split `len` items into per-thread ranges of near-equal size.
///
/// Returns at most `nt` non-empty `(start, end)` ranges. The split is a
/// pure function of `(len, nt)` so repeated runs produce identical floating
/// point reductions.
pub fn split_ranges(len: usize, nt: usize) -> Vec<(usize, usize)> {
    let nt = nt.max(1).min(len.max(1));
    let chunk = len.div_ceil(nt);
    let mut out = Vec::with_capacity(nt);
    let mut s = 0;
    while s < len {
        let e = (s + chunk).min(len);
        out.push((s, e));
        s = e;
    }
    if out.is_empty() {
        out.push((0, 0));
    }
    #[cfg(feature = "pool-sanitizer")]
    sanitize_partition(len, 1, &out);
    out
}

/// Like [`split_ranges`], but every range boundary is a multiple of
/// `align` (the final end is clamped to `len`). Used to partition element
/// lists whose unit of work is a SIMD lane of `align` consecutive
/// elements — a lane is never split across threads, so lane-internal
/// scatter order is independent of the thread count.
pub fn split_ranges_aligned(len: usize, nt: usize, align: usize) -> Vec<(usize, usize)> {
    assert!(align > 0, "alignment must be positive");
    let out: Vec<(usize, usize)> = split_ranges(len.div_ceil(align), nt)
        .into_iter()
        .map(|(s, e)| (s * align, (e * align).min(len)))
        .collect();
    #[cfg(feature = "pool-sanitizer")]
    sanitize_partition(len, align, &out);
    out
}

/// Parallel loop over `0..len` where each piece covers whole `align`-sized
/// blocks (see [`split_ranges_aligned`]). The calling thread runs piece 0.
pub fn par_ranges_aligned<F>(len: usize, align: usize, f: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    let ranges = split_ranges_aligned(len, num_threads(), align);
    run_on_pool(&ranges, f);
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// Published pointer to the in-flight [`Job`] (lives on the dispatcher's
/// stack; validity is guaranteed by the attach/retire protocol below).
#[derive(Clone, Copy)]
struct JobPtr(*const Job);
// SAFETY: the pointer is only dereferenced by workers between publish and
// retire; `RetireGuard` keeps the pointee alive until every worker detaches.
unsafe impl Send for JobPtr {}

/// One dispatched parallel region. `func` is the type-erased piece
/// closure; the `'static` lifetime is a lie told to the type system — the
/// dispatcher does not return until every worker has detached, so the
/// borrow it erases is live whenever a worker dereferences it.
struct Job {
    func: *const (dyn Fn(usize) + Sync),
    npieces: usize,
    /// Next unclaimed piece (piece 0 is reserved for the caller).
    next: AtomicUsize,
    /// Completed worker pieces (target: `npieces - 1`).
    done: AtomicUsize,
    /// Profiler event open on the dispatching thread, adopted per dispatch.
    parent: Option<usize>,
    /// First panic payload raised by a worker piece.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: all mutable state in `Job` is behind atomics or a `Mutex`; the
// raw `func` pointer is only shared while the dispatcher blocks in
// `RetireGuard`, so the erased borrow outlives every access (see `Job`).
unsafe impl Send for Job {}
// SAFETY: as above — interior mutability is synchronized, `func` is
// immutable once published.
unsafe impl Sync for Job {}

struct Gate {
    /// Bumped at every publish so parked workers can tell a new job from a
    /// spurious wakeup.
    seq: u64,
    job: Option<JobPtr>,
    /// Workers currently holding a reference to the published job.
    attached: usize,
    shutdown: bool,
}

struct Shared {
    gate: Mutex<Gate>,
    /// Workers park here waiting for a job (or shutdown).
    work: Condvar,
    /// The dispatcher parks here waiting for workers to finish/detach.
    done: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

fn pool_registry() -> &'static Mutex<Option<Pool>> {
    static POOL: OnceLock<Mutex<Option<Pool>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(None))
}

/// Resize the pool to `target` workers: joins every old worker (no thread
/// leaks across resizes) and spawns a fresh generation. The only
/// `std::thread` spawn in this module — dispatch paths never spawn.
fn ensure_pool(slot: &mut Option<Pool>, target: usize) {
    let current = slot.as_ref().map_or(0, |p| p.handles.len());
    if current == target {
        return;
    }
    if let Some(pool) = slot.take() {
        {
            let mut gate = pool.shared.gate.lock().unwrap_or_else(|e| e.into_inner());
            gate.shutdown = true;
            pool.shared.work.notify_all();
        }
        for h in pool.handles {
            let _ = h.join();
        }
        // Every worker of the retired generation has been joined; a nonzero
        // live count means a worker thread escaped its generation.
        #[cfg(feature = "pool-sanitizer")]
        assert_eq!(
            sanitizer::LIVE_WORKERS.load(Ordering::SeqCst),
            0,
            "pool-sanitizer: worker outlived its pool generation"
        );
    }
    if target == 0 {
        return;
    }
    let shared = Arc::new(Shared {
        gate: Mutex::new(Gate {
            seq: 0,
            job: None,
            attached: 0,
            shutdown: false,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    });
    let mut handles = Vec::with_capacity(target);
    for k in 0..target {
        let sh = Arc::clone(&shared);
        handles.push(
            std::thread::Builder::new()
                .name(format!("ptatin-par-{k}"))
                .spawn(move || worker_loop(sh))
                // PANIC-OK: thread-spawn failure is resource exhaustion at
                // pool (re)build time; no caller could make progress anyway.
                .expect("spawn pool worker"),
        );
    }
    *slot = Some(Pool { shared, handles });
}

fn worker_loop(shared: Arc<Shared>) {
    #[cfg(feature = "pool-sanitizer")]
    let _alive = sanitizer::WorkerAlive::enter();
    IS_POOL_WORKER.with(|c| c.set(true));
    let mut seen = 0u64;
    let mut gate = shared.gate.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if gate.shutdown {
            return;
        }
        if gate.seq != seen {
            seen = gate.seq;
            if let Some(jp) = gate.job {
                gate.attached += 1;
                drop(gate);
                // SAFETY: `attached` was incremented under the gate lock
                // while the job was published; the dispatcher retires the
                // job only after `attached` returns to 0.
                run_pieces(unsafe { &*jp.0 });
                gate = shared.gate.lock().unwrap_or_else(|e| e.into_inner());
                gate.attached -= 1;
                shared.done.notify_all();
                continue; // re-check shutdown/seq before parking
            }
        }
        gate = shared.work.wait(gate).unwrap_or_else(|e| e.into_inner());
    }
}

/// Claim and run pieces of `job` until none remain. Runs on pool workers;
/// panics in user code are caught so a poisoned piece can't wedge the
/// pool, and re-thrown on the dispatching thread.
fn run_pieces(job: &Job) {
    let _attr = prof::adopt(job.parent);
    // SAFETY: see `Job::func` — the borrow outlives every attached worker.
    let f = unsafe { &*job.func };
    loop {
        let p = job.next.fetch_add(1, Ordering::Relaxed);
        if p >= job.npieces {
            return;
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(p)));
        if let Err(payload) = result {
            let mut slot = job.panic.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        // Release ordering publishes the piece's writes to the dispatcher.
        job.done.fetch_add(1, Ordering::AcqRel);
    }
}

/// Marks the dispatching thread while it runs piece 0, so re-entrant
/// `par_*` calls fall back to serial instead of deadlocking on the pool.
struct DispatchFlag;
impl DispatchFlag {
    fn set() -> Self {
        DISPATCH_ACTIVE.with(|c| c.set(true));
        DispatchFlag
    }
}
impl Drop for DispatchFlag {
    fn drop(&mut self) {
        DISPATCH_ACTIVE.with(|c| c.set(false));
    }
}

/// Waits for all workers to finish and detach, then unpublishes the job.
/// Runs on drop so the stack-allocated `Job` stays valid even when piece 0
/// unwinds on the dispatching thread.
struct RetireGuard<'a> {
    shared: &'a Shared,
    job: &'a Job,
}
impl Drop for RetireGuard<'_> {
    fn drop(&mut self) {
        let mut gate = self.shared.gate.lock().unwrap_or_else(|e| e.into_inner());
        while gate.attached != 0 || self.job.done.load(Ordering::Acquire) != self.job.npieces - 1 {
            gate = self
                .shared
                .done
                .wait(gate)
                .unwrap_or_else(|e| e.into_inner());
        }
        gate.job = None;
    }
}

/// Dispatch `piece(0..npieces)` across the pool: the calling thread runs
/// piece 0, parked workers claim the rest. Blocks until every piece
/// completed. Requires `npieces >= 2`; callers handle the serial cases.
fn dispatch(npieces: usize, piece: &(dyn Fn(usize) + Sync)) {
    debug_assert!(npieces >= 2);
    // Nested dispatch must have been diverted to the serial fallback in
    // run_on_pool; reaching here from a worker or an active piece-0 frame
    // would deadlock on the pool.
    #[cfg(feature = "pool-sanitizer")]
    assert!(
        !IS_POOL_WORKER.with(Cell::get) && !DISPATCH_ACTIVE.with(Cell::get),
        "pool-sanitizer: nested dispatch reached the pool instead of serializing"
    );
    // Hold the registry lock for the whole dispatch: concurrent top-level
    // dispatchers serialize here (they never fall back to serial, which
    // keeps "piece 0 on the caller, the rest on workers" an invariant that
    // tests may rely on).
    let mut slot = pool_registry().lock().unwrap_or_else(|e| e.into_inner());
    ensure_pool(&mut slot, num_threads().saturating_sub(1));
    let shared = match slot.as_ref() {
        Some(pool) if !pool.handles.is_empty() => Arc::clone(&pool.shared),
        _ => {
            // nt == 1: no workers to hand pieces to.
            drop(slot);
            for i in 0..npieces {
                piece(i);
            }
            return;
        }
    };
    // SAFETY: erase the borrow's lifetime to publish it to the workers.
    // `RetireGuard` below guarantees no worker holds the pointer once this
    // function returns (normally or by unwind).
    let func: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(piece)
    };
    #[cfg(feature = "pool-sanitizer")]
    let _depth = sanitizer::DispatchDepth::enter();
    let job = Job {
        func: func as *const (dyn Fn(usize) + Sync),
        npieces,
        next: AtomicUsize::new(1),
        done: AtomicUsize::new(0),
        parent: prof::current_id(),
        panic: Mutex::new(None),
    };
    {
        let mut gate = shared.gate.lock().unwrap_or_else(|e| e.into_inner());
        gate.seq = gate.seq.wrapping_add(1);
        gate.job = Some(JobPtr(&job as *const Job));
        shared.work.notify_all();
    }
    {
        let _active = DispatchFlag::set();
        let _retire = RetireGuard {
            shared: &shared,
            job: &job,
        };
        piece(0);
        // `_retire` drops here: waits for the workers, unpublishes.
    }
    let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Run `f(piece_index, start, end)` for every range, in parallel on the
/// persistent pool. The calling thread runs range 0; ranges `1..` go to
/// the pool workers. Falls back to an in-order serial loop when there is
/// nothing to parallelize or when called from inside a parallel region
/// (nested-parallelism policy). Piece results must depend only on the
/// piece index for the determinism contract to hold.
pub fn run_on_pool<F>(ranges: &[(usize, usize)], f: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    let npieces = ranges.len();
    if npieces == 0 {
        return;
    }
    if npieces == 1 || IS_POOL_WORKER.with(Cell::get) || DISPATCH_ACTIVE.with(Cell::get) {
        for (i, &(s, e)) in ranges.iter().enumerate() {
            f(i, s, e);
        }
        return;
    }
    let piece = |i: usize| {
        let (s, e) = ranges[i];
        f(i, s, e);
    };
    dispatch(npieces, &piece);
}

/// Raw-pointer wrapper that lets pieces write to disjoint regions of a
/// caller-owned buffer from pool workers. The *user* of the pointer is
/// responsible for disjointness.
pub(crate) struct SendPtr<T>(*mut T);
impl<T> SendPtr<T> {
    pub(crate) fn new(p: *mut T) -> Self {
        SendPtr(p)
    }
    /// Taking `&self` (not destructuring the field) keeps closures
    /// capturing the whole wrapper, so the `Send`/`Sync` impls apply.
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: `SendPtr` is a plain pointer wrapper; each user writes only a
// piece-private disjoint region (that contract is documented on every
// construction site and executed by the `pool-sanitizer` feature).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — concurrent pieces never alias the same region.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Run `f(range_index, start, end)` over a partition of `0..len`.
///
/// `f` must be safe to run concurrently on disjoint ranges; it receives no
/// mutable state from here, so callers typically capture raw output slices
/// split via [`split_at_mut`](slice::split_at_mut) or use interior atomics.
pub fn par_ranges<F>(len: usize, f: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    let ranges = split_ranges(len, num_threads());
    run_on_pool(&ranges, f);
}

/// Parallel map over mutable chunks: partitions `data` to the worker
/// threads and calls `f(global_offset, chunk)` on each piece.
pub fn par_chunks_mut<T: Send, F>(data: &mut [T], f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let ranges = split_ranges(data.len(), num_threads());
    if ranges.len() <= 1 {
        f(0, data);
        return;
    }
    let base = SendPtr::new(data.as_mut_ptr());
    run_on_pool(&ranges, |_i, s, e| {
        // SAFETY: `split_ranges` pieces are disjoint sub-slices of `data`,
        // which outlives the dispatch (run_on_pool blocks until done).
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
        f(s, chunk);
    });
}

/// Parallel loop over fixed-size blocks of `data`: calls
/// `f(block_index, block)` for every `block`-sized chunk (the last may be
/// shorter). Blocks are distributed contiguously over the worker threads,
/// so outputs are bitwise-independent of the thread count. Used by
/// assembly-style loops that compute into per-block scratch.
pub fn par_blocks_mut<T: Send, F>(data: &mut [T], block: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(block > 0);
    let len = data.len();
    let nblocks = len.div_ceil(block);
    if nblocks == 0 {
        return;
    }
    let ranges = split_ranges(nblocks, num_threads());
    let base = SendPtr::new(data.as_mut_ptr());
    run_on_pool(&ranges, |_p, bs, be| {
        for bi in bs..be {
            let s = bi * block;
            let e = (s + block).min(len);
            // SAFETY: blocks are disjoint; `data` outlives the dispatch.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
            f(bi, chunk);
        }
    });
}

/// Fixed partial-reduction block size. [`par_reduce`] folds
/// `REDUCE_BLOCK`-sized index blocks and combines the block partials
/// left-to-right in block order, so the grouping of a reduction is a pure
/// function of `len` — **independent of the thread count** — and every
/// reduction is bitwise identical at nt=1 and nt=N. The block is large
/// enough that the partial-combine tail is negligible next to the folds.
const REDUCE_BLOCK: usize = 8192;

/// Parallel reduction: `fold` runs over fixed `REDUCE_BLOCK`-sized index
/// blocks (threads each take a contiguous run of blocks), and the block
/// partials are combined left-to-right with `combine` in block order.
/// Because the blocking ignores the thread count, the result is bitwise
/// identical at every `num_threads()` — the foundation of the
/// cross-thread-count determinism contract (see module docs).
pub fn par_reduce<R, F, C>(len: usize, identity: R, fold: F, combine: C) -> R
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
    C: Fn(R, R) -> R,
{
    let nblocks = len.div_ceil(REDUCE_BLOCK).max(1);
    if nblocks <= 1 {
        return fold(0, len);
    }
    let mut parts: Vec<Option<R>> = (0..nblocks).map(|_| None).collect();
    let base = SendPtr::new(parts.as_mut_ptr());
    let ranges = split_ranges(nblocks, num_threads());
    run_on_pool(&ranges, |_, bs, be| {
        for b in bs..be {
            let s = b * REDUCE_BLOCK;
            let e = (s + REDUCE_BLOCK).min(len);
            // SAFETY: each piece writes only its own block slots `bs..be`;
            // `parts` outlives the dispatch.
            unsafe { *base.get().add(b) = Some(fold(s, e)) };
        }
    });
    parts
        .into_iter()
        // PANIC-OK: `run_on_pool` returns only after every piece ran, and
        // the piece owning block `b` wrote slot `b`; a `None` here is a
        // pool logic bug.
        .map(|p| p.expect("block finished"))
        .fold(identity, combine)
}

/// [`par_reduce`] over the blocks of `data`, each handed to `fold` mutably
/// as `fold(block_start, block)`: a kernel can update a block and reduce it
/// in the same sweep, with the grouping (and so the bits) of `par_reduce`.
pub fn par_reduce_mut<T, R, F, C>(data: &mut [T], identity: R, fold: F, combine: C) -> R
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
    C: Fn(R, R) -> R,
{
    let base = SendPtr::new(data.as_mut_ptr());
    par_reduce(
        data.len(),
        identity,
        |s, e| {
            // SAFETY: `par_reduce` folds every index block exactly once, on
            // one piece, and the blocks are disjoint; `data` outlives it.
            let block = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
            fold(s, block)
        },
        combine,
    )
}

/// Serialize unit tests that mutate the process-global thread count or
/// assert on thread identity / the prof registry.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_everything() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for nt in 1..9 {
                let r = split_ranges(len, nt);
                let mut covered = 0;
                let mut prev_end = 0;
                for &(s, e) in &r {
                    assert_eq!(s, prev_end);
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn aligned_split_covers_everything_on_block_boundaries() {
        for len in [0usize, 1, 3, 4, 5, 16, 17, 63, 64, 1000] {
            for nt in 1..9 {
                for align in [1usize, 4, 8] {
                    let r = split_ranges_aligned(len, nt, align);
                    let mut prev_end = 0;
                    for &(s, e) in &r {
                        assert_eq!(s, prev_end);
                        assert!(e >= s);
                        assert_eq!(s % align, 0, "start must be aligned");
                        assert!(e % align == 0 || e == len, "end aligned or final");
                        prev_end = e;
                    }
                    assert_eq!(prev_end, len, "len={len} nt={nt} align={align}");
                }
            }
        }
    }

    #[test]
    fn aligned_par_ranges_visits_whole_blocks() {
        let _guard = test_guard();
        use std::sync::atomic::{AtomicUsize, Ordering};
        set_num_threads(3);
        let len = 22;
        let align = 4;
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        par_ranges_aligned(len, align, |_, s, e| {
            assert_eq!(s % align, 0);
            assert!(e % align == 0 || e == len);
            for i in s..e {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        set_num_threads(0);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn par_chunks_mut_writes_all() {
        let mut v = vec![0usize; 1003];
        par_chunks_mut(&mut v, |off, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = off + i;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn par_blocks_mut_visits_every_block() {
        let _g = test_guard();
        set_num_threads(4);
        let mut v = vec![0usize; 1000];
        par_blocks_mut(&mut v, 64, |bi, chunk| {
            assert!(chunk.len() <= 64);
            for x in chunk.iter_mut() {
                *x = bi + 1;
            }
        });
        set_num_threads(0);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i / 64 + 1);
        }
    }

    #[test]
    fn par_reduce_sums() {
        let n = 12345usize;
        let s = par_reduce(
            n,
            0u64,
            |a, b| (a..b).map(|i| i as u64).sum::<u64>(),
            |x, y| x + y,
        );
        assert_eq!(s, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn par_reduce_works_with_non_clone_results() {
        // R: Send only (no Clone): boxed partials.
        let s = par_reduce(
            1000,
            Box::new(0u64),
            |a, b| Box::new((a..b).map(|i| i as u64).sum::<u64>()),
            |x, y| Box::new(*x + *y),
        );
        assert_eq!(*s, 999 * 1000 / 2);
    }

    #[test]
    fn par_reduce_folds_first_range_on_calling_thread() {
        let _g = test_guard();
        set_num_threads(4);
        let caller = std::thread::current().id();
        // 8 blocks over 4 threads: the caller owns blocks 0..2, the
        // workers the rest.
        let len = 8 * REDUCE_BLOCK;
        let ids = par_reduce(
            len,
            Vec::new(),
            |s, _e| vec![(s, std::thread::current().id())],
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        set_num_threads(0);
        assert_eq!(ids.len(), 8, "expected one partial per block");
        // Left-to-right combine in block order.
        for (b, (s, _)) in ids.iter().enumerate() {
            assert_eq!(*s, b * REDUCE_BLOCK, "partials out of block order");
        }
        assert_eq!(ids[0].1, caller, "block 0 must fold on the calling thread");
        assert!(
            ids.iter().any(|(_, id)| *id != caller),
            "expected a parallel split"
        );
    }

    #[test]
    fn par_reduce_is_bitwise_identical_across_thread_counts() {
        let _g = test_guard();
        // An ill-conditioned sum whose value depends on the fp grouping:
        // any nt-dependent regrouping would flip low bits.
        let x: Vec<f64> = (0..5 * REDUCE_BLOCK + 17)
            .map(|i| ((i as f64).sin() * 1e8).mul_add(1.0, 1e-8))
            .collect();
        let sum_at = |nt: usize| {
            set_num_threads(nt);
            let s = par_reduce(
                x.len(),
                0.0f64,
                |a, b| x[a..b].iter().sum::<f64>(),
                |p, q| p + q,
            );
            set_num_threads(0);
            s
        };
        let s1 = sum_at(1);
        for nt in [2, 3, 4, 7] {
            assert_eq!(
                s1.to_bits(),
                sum_at(nt).to_bits(),
                "reduction regrouped between nt=1 and nt={nt}"
            );
        }
    }

    #[test]
    fn pool_resize_leaks_no_workers() {
        let _g = test_guard();
        for _ in 0..3 {
            set_num_threads(4);
            assert_eq!(pool_worker_count(), 3);
            set_num_threads(2);
            assert_eq!(pool_worker_count(), 1);
            set_num_threads(1);
            assert_eq!(pool_worker_count(), 0, "drained pool must join workers");
        }
        set_num_threads(0);
        assert_eq!(pool_worker_count(), num_threads().saturating_sub(1));
    }

    #[test]
    fn pool_reused_across_dispatches() {
        let _g = test_guard();
        set_num_threads(4);
        let before = pool_worker_count();
        for _ in 0..50 {
            let s = par_reduce(10_000, 0u64, |a, b| (b - a) as u64, |x, y| x + y);
            assert_eq!(s, 10_000);
        }
        assert_eq!(
            pool_worker_count(),
            before,
            "dispatch must reuse the persistent workers, not respawn"
        );
        set_num_threads(0);
    }

    #[test]
    fn nested_par_from_worker_runs_serial() {
        let _g = test_guard();
        set_num_threads(4);
        let caller = std::thread::current().id();
        // Outer parallel loop; inner calls must degrade to serial on
        // whichever thread runs the piece (no deadlock, no pool re-entry).
        par_ranges(4, |_i, s, e| {
            let me = std::thread::current().id();
            let inner = par_reduce(
                100,
                Vec::new(),
                |is, _| vec![(is, std::thread::current().id())],
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            for (_, id) in &inner {
                assert_eq!(*id, me, "nested piece escaped its thread");
            }
            // Touch the range so the closure isn't optimized away.
            assert!(s <= e);
        });
        set_num_threads(0);
        let _ = caller;
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let _g = test_guard();
        set_num_threads(4);
        let result = std::panic::catch_unwind(|| {
            par_ranges(4, |i, _s, _e| {
                if i == 2 {
                    panic!("piece 2 exploded");
                }
            });
        });
        assert!(result.is_err(), "piece panic must reach the dispatcher");
        // The pool must still be functional afterwards.
        let s = par_reduce(1000, 0u64, |a, b| (b - a) as u64, |x, y| x + y);
        assert_eq!(s, 1000);
        assert_eq!(pool_worker_count(), 3);
        set_num_threads(0);
    }

    #[test]
    fn parallel_workers_attribute_flops_to_enclosing_event() {
        let _g = test_guard();
        // The prof registry is process-global; run this test's scope under
        // a unique event name so parallel tests cannot collide on it.
        prof::enable();
        let nt = 4;
        set_num_threads(nt);
        {
            let _s = prof::scope("par_attribution_test");
            par_ranges(1000, |_i, s, e| prof::log_flops((e - s) as u64));
            // A second dispatch from the same scope: workers must adopt
            // per dispatch, not per thread lifetime.
            par_ranges(1000, |_i, s, e| prof::log_flops((e - s) as u64));
        }
        set_num_threads(0);
        prof::disable();
        let snap = prof::snapshot();
        let ev = snap.event("par_attribution_test").expect("event recorded");
        assert_eq!(
            ev.flops, 2000,
            "worker flops must land on the enclosing event"
        );
        assert_eq!(ev.calls, 1);
    }

    #[test]
    fn sanitizer_accepts_every_split_ranges_output() {
        for len in [0usize, 1, 7, 64, 1000] {
            for nt in 1..9 {
                sanitize_partition(len, 1, &split_ranges(len, nt));
                for align in [1usize, 4, 8] {
                    sanitize_partition(len, align, &split_ranges_aligned(len, nt, align));
                }
            }
        }
    }

    #[test]
    fn sanitizer_fires_on_bad_partitions() {
        let fails = |len, align, ranges: &[(usize, usize)]| {
            let r = ranges.to_vec();
            std::panic::catch_unwind(move || sanitize_partition(len, align, &r)).is_err()
        };
        assert!(fails(10, 1, &[(0, 6), (4, 10)]), "overlap must panic");
        assert!(fails(10, 1, &[(0, 4), (6, 10)]), "gap must panic");
        assert!(fails(10, 1, &[(0, 8)]), "short coverage must panic");
        assert!(fails(10, 1, &[(0, 4), (4, 12)]), "overrun must panic");
        assert!(
            fails(10, 4, &[(0, 6), (6, 10)]),
            "misaligned boundary must panic"
        );
        assert!(
            fails(10, 1, &[(6, 4), (4, 10)]),
            "reversed piece must panic"
        );
        assert!(fails(10, 1, &[]), "empty partition must panic");
        // The happy path: aligned boundaries with a clamped final end.
        sanitize_partition(10, 4, &[(0, 8), (8, 10)]);
        sanitize_partition(0, 1, &[(0, 0)]);
    }

    #[cfg(feature = "pool-sanitizer")]
    #[test]
    fn sanitizer_pool_lifecycle_counters_balance() {
        let _g = test_guard();
        use super::sanitizer::{ACTIVE_DISPATCHES, LIVE_WORKERS};
        // Freshly spawned workers bump the counter from their own thread,
        // so give them a moment to start; the zero after a drain is exact
        // (ensure_pool joins every retired worker before returning).
        let settles_to = |want: usize| {
            for _ in 0..1000 {
                if LIVE_WORKERS.load(Ordering::SeqCst) == want {
                    return true;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            false
        };
        // Repeated resizes: every retired generation must be fully joined.
        for _ in 0..3 {
            set_num_threads(4);
            assert!(settles_to(3), "3 workers alive after resize to nt=4");
            set_num_threads(1);
            assert_eq!(
                LIVE_WORKERS.load(Ordering::SeqCst),
                0,
                "drain must join every worker of the retired generation"
            );
        }
        set_num_threads(4);
        let s = par_reduce(10_000, 0u64, |a, b| (b - a) as u64, |x, y| x + y);
        assert_eq!(s, 10_000);
        assert_eq!(ACTIVE_DISPATCHES.load(Ordering::SeqCst), 0);
        set_num_threads(0);
    }

    #[test]
    fn thread_count_override() {
        let _g = test_guard();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }
}
