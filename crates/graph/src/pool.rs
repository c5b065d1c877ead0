//! A persistent worker pool for data-parallel chunk jobs.
//!
//! The refinement engines ([`crate::partition`], [`crate::refinement`],
//! `portnum-logic`'s bisimulation) and the compiled-plan executor all
//! fan the same shape of work out over threads: a call-scoped list of
//! independent *chunks* (contiguous node ranges, bitset word ranges,
//! CSC entry ranges), each writing into its own pre-assigned output
//! slot. Spawning fresh scoped threads per call costs ~100µs — more
//! than an entire refinement round on a mid-size model — which is why
//! the old scoped-thread fan-out had to hide behind a large work gate.
//!
//! [`WorkerPool`] keeps the threads alive instead, and keeps the
//! per-call *submit path* light enough that back-to-back small calls
//! (a plan executor chunking one instruction after another issues
//! dozens) do not drown in coordination:
//!
//! * **Spin-then-park workers.** Between calls a worker first spins on
//!   the epoch-tagged cursor for a few microseconds before parking on
//!   the condvar. A burst of calls therefore pays the condvar wake
//!   (two syscalls and a scheduler round-trip, the dominant cost of
//!   the old per-call handshake) only for its *first* call; subsequent
//!   dispatches are picked up by spinning workers at the cost of one
//!   atomic store.
//! * **Parked-count-gated wake.** The submit path calls `notify_all`
//!   only when the parked-worker counter is nonzero, so a hot loop
//!   never issues the wake syscall at all.
//! * **Atomic completion counter.** Chunk completion is one
//!   `fetch_sub` on a remaining-chunks atomic; only the *last* chunk
//!   takes the done lock to wake a parked caller (the caller, too,
//!   spins briefly before parking). The old protocol locked a mutex
//!   and signalled a condvar once per chunk.
//! * **Lock-free heal fast path.** Worker liveness is tracked by an
//!   atomic counter (decremented by a drop guard on worker exit), so
//!   the all-alive case of [`WorkerPool::heal`] — every call's entry
//!   check — is one relaxed load instead of a mutex acquisition and a
//!   handle scan.
//!
//! Per-call overhead drops from a handful of microseconds to well under
//! one for warm (spinning) workers, so the shared work gate
//! ([`crate::partition::PARALLEL_THRESHOLD`]) can sit an order of
//! magnitude lower and small/medium models go parallel too.
//!
//! # Oversubscribed hosts
//!
//! When pool threads (workers plus the participating caller) outnumber
//! the host's cores — the single-core CI shape — spinning inverts from
//! latency hiding into sabotage: a caller burning its spin budget
//! occupies the only core the straggling worker needs to finish the
//! call (a ~100µs scheduler round-trip per stolen chunk), and a
//! spinning worker steals the core from the caller producing the next
//! call. An oversubscribed pool therefore (a) never wakes parked
//! workers — the caller completes every call itself at inline speed,
//! which is the throughput optimum when there is no spare core —
//! (b) shrinks the worker spin window to a token budget, and (c) has
//! the caller *yield* to a straggler rather than spin against it. The
//! protocol (epoch claims, the remaining-chunks barrier, panic
//! containment, healing) is identical in both regimes; only the
//! waiting strategy changes.
//!
//! # Calibrated dispatch cost
//!
//! Construction of a pool with workers measures the real cost of one
//! no-op `run` round-trip (median of a short burst, so a stray
//! scheduling hiccup or an armed chaos failpoint cannot skew it) and
//! exposes it as [`WorkerPool::dispatch_cost_ns`]. The parallel work
//! gate ([`crate::partition::threads_for`]) prices this measured cost
//! into its Auto decision — work below the *measured* break-even floor
//! stays sequential even above the static [`crate::partition::PARALLEL_THRESHOLD`]
//! — and the plan executor surfaces the same number in its `ExecStats`
//! so a bench row records the coordination cost it actually paid.
//!
//! # Tuning
//!
//! Whether a phase actually fans out is decided by the caller through
//! a [`crate::partition::Parallelism`] value: `Auto` (production) gates
//! on [`crate::partition::PARALLEL_THRESHOLD`] and the calibrated floor
//! via [`crate::partition::threads_for`], `Force` always parallelises
//! (≥ 2 threads even on single-core hosts, so tests drive every pool
//! path in-process), `Off` never does. The pool itself is sized
//! `cores − 1` workers (minimum 1) plus the participating caller.
//!
//! # Execution model
//!
//! [`WorkerPool::run`]`(chunks, job)` executes `job(i)` exactly once
//! for every `i in 0..chunks` and returns when all invocations have
//! finished. Chunks are claimed from a shared epoch-tagged cursor
//! (range stealing): whichever thread is free takes the next index, so
//! a straggler chunk cannot idle the rest of the pool. The **caller
//! participates** — with zero workers (single-core hosts) `run` simply
//! executes every chunk inline, so callers never need a sequential
//! fallback path for correctness.
//!
//! # Determinism
//!
//! Which *thread* runs a chunk is scheduling-dependent, but chunk
//! indices are handed out exactly once, so a job that writes only to
//! per-chunk slots (`buffers[i]`, disjoint word ranges of one bitset)
//! produces output independent of the interleaving. The refinement
//! front-ends rely on this: encode buffers are filled per chunk and
//! interned *in chunk order* afterwards, which keeps first-seen block
//! ids bit-identical to the sequential engine.
//!
//! # Safety
//!
//! `run` lends the job reference to worker threads for the duration of
//! the call, erasing its lifetime (the one `unsafe` impl in this
//! crate). This is sound because `run` does not return until every
//! claimed chunk has completed and no further chunk can be claimed for
//! that epoch: workers verify the epoch with a compare-and-swap before
//! every claim, so a stale worker can neither touch a new call's
//! cursor nor run an old call's job after its borrow ended. The
//! remaining-chunks counter only reaches zero after every claimed
//! chunk's job invocation has returned, and the caller blocks until it
//! does. Panics in a chunk are caught, remaining chunks are drained
//! without running the job, and the panic is re-raised on the caller
//! once the call's barrier is reached — the borrow again outlives
//! every use.
//!
//! # Self-healing contract
//!
//! The pool guarantees it stays serviceable across the three fault
//! classes a shared, process-wide resource must survive:
//!
//! 1. **Job panics** — caught per chunk; the remaining chunks drain
//!    without running the job, the barrier completes, and the original
//!    payload is re-raised on the caller. The *next* call starts from a
//!    clean epoch (pinned by `panicking_chunk_propagates…` below and
//!    the cross-crate reuse tests in `portnum-logic`).
//! 2. **Worker death** — a worker thread that exits (injected via the
//!    `pool-worker` failpoint, or killed by an unhandled panic outside
//!    the chunk guard) drops its liveness guard, which the next
//!    [`WorkerPool::run`] entry detects (one atomic load) and repairs.
//!    In-flight calls are unaffected because the caller participates
//!    and drains every chunk itself if need be.
//! 3. **Poisoned locks** — every mutex/condvar acquisition recovers
//!    the guard from a `PoisonError`; the pool's state machine is
//!    valid at every step that can unwind, so the poison flag carries
//!    no information here.
//!
//! # Failpoints
//!
//! Chaos sites (no-ops unless activated, see the `fail` shim):
//! `pool-dispatch` (entry of [`WorkerPool::run`]), `pool-chunk` (just
//! before a claimed chunk's job runs, inside the panic guard),
//! `pool-barrier` (after the last chunk's completion decrement, before
//! the parked caller is woken), and `pool-worker` (worker loop head; a
//! `return` action makes the worker thread exit, exercising the
//! respawn path).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// The job view a worker holds while a call is active: a raw,
/// lifetime-erased pointer to the caller's `Fn(usize)` closure.
///
/// Sending the raw pointer across threads is safe under the pool's
/// protocol: the pointer is only dereferenced between job installation
/// and the completion barrier of the same epoch, and
/// [`WorkerPool::run`] blocks until that barrier — so the pointee (and
/// everything it borrows) is alive for every dereference.
#[derive(Clone, Copy)]
struct Job {
    ptr: *const (dyn Fn(usize) + Sync),
}

#[allow(unsafe_code)]
// SAFETY: see the `Job` doc comment — the pointer is only dereferenced
// while the caller of `run` is blocked inside the call that installed it.
unsafe impl Send for Job {}
#[allow(unsafe_code)]
// SAFETY: as above; the pointee is `Sync`, so shared dereferences from
// several workers at once are fine.
unsafe impl Sync for Job {}

/// Iterations a worker spins on the cursor before parking on the
/// condvar. Each iteration is a load plus a `spin_loop` hint (~a few
/// ns), so the spin window is in the tens of microseconds — enough to
/// bridge the gaps between a plan executor's chunked instructions,
/// short enough that an idle pool parks (and stops burning cores)
/// almost at once.
const WORKER_SPIN: u32 = 8_192;

/// Worker spin budget when the pool is **oversubscribed** (more pool
/// threads than cores, the single-core CI shape): every spin iteration
/// then steals cycles from the caller that is trying to produce the
/// next call, so workers give the core back almost immediately.
const OVERSUBSCRIBED_WORKER_SPIN: u32 = 64;

/// Iterations the caller spins on the remaining-chunks counter before
/// escalating. The caller participates in the call, so by the time it
/// starts waiting the stragglers are usually one in-flight chunk away;
/// a short spin covers that without a syscall.
const CALLER_SPIN: u32 = 256;

/// `yield_now` rounds the caller inserts between spinning and parking.
/// The straggler usually holds the call's last chunk; on an
/// oversubscribed host it cannot *run* while the caller occupies the
/// core, so burning the full spin budget first (the old protocol) cost
/// a ~100µs scheduler round-trip per stolen chunk. Yielding hands the
/// core straight to the straggler instead — the stall collapses to a
/// context switch — while on idle multicore hosts a yield is a cheap
/// syscall and the re-check loop stays tight.
const CALLER_YIELDS: u32 = 512;

/// No-op `run` calls timed by the construction-time calibration. The
/// median of the burst is stored as the pool's dispatch cost, so a
/// single scheduling hiccup (or an armed chaos failpoint delaying one
/// dispatch) cannot skew the figure.
const CALIBRATION_ROUNDS: usize = 17;

/// Pool state guarded by the control mutex.
struct Control {
    /// Bumped once per call; 0 means "no job has ever been installed",
    /// so workers initialise their seen-epoch to 0. Wraps (skipping 0)
    /// after 2³² calls, which a worker would only confuse after
    /// sleeping through the entire wrap — not a realistic schedule.
    epoch: u32,
    /// Chunk count of the current call.
    chunks: u32,
    /// The current call's job, `None` between calls.
    job: Option<Job>,
    shutdown: bool,
}

struct Shared {
    /// Serialises whole `run` calls: the epoch/cursor/remaining
    /// protocol supports one active call at a time, so a second caller
    /// waits here until the first call's barrier completes.
    call: Mutex<()>,
    control: Mutex<Control>,
    /// Workers park here after their spin window expires.
    work_ready: Condvar,
    /// Lock + condvar a *parked* caller waits on (spinning callers
    /// never touch them). The caller's predicate is `remaining != 0`,
    /// checked under this lock; the thread that completes the call's
    /// last chunk takes the lock before notifying, so the wake cannot
    /// be lost. There is deliberately no done *flag*: a flag set by a
    /// late last-chunk thread of one call could land after the next
    /// call reset it and release that call's caller early.
    done: Mutex<()>,
    done_cv: Condvar,
    /// `(epoch << 32) | next_chunk`: the range-stealing cursor. The
    /// epoch tag makes claims from finished calls fail their CAS
    /// instead of corrupting the next call's queue — and doubles as
    /// the value spinning workers watch for new work without taking
    /// any lock.
    cursor: AtomicU64,
    /// Chunks of the current call not yet completed; the call's
    /// barrier is this counter reaching zero. Replaces the old
    /// mutex-guarded per-chunk done count: completion is one
    /// `fetch_sub` per chunk, and only the last chunk takes a lock.
    remaining: AtomicU32,
    /// Workers currently parked on `work_ready`; the submit path skips
    /// the `notify_all` syscall entirely while this is zero (spinning
    /// workers see the cursor store directly).
    parked: AtomicUsize,
    /// Shutdown mirror readable from the spin loop (the authoritative
    /// flag lives in `Control` for the parked path's predicate).
    shutdown: AtomicBool,
    /// Live worker threads, maintained by a drop guard in the worker
    /// loop — [`WorkerPool::heal`]'s all-alive fast path is one load.
    live: AtomicUsize,
    /// Whether pool threads (workers + the participating caller)
    /// outnumber the host's cores — fixed at construction. Waiting
    /// threads then yield instead of spinning, because every spin
    /// iteration would steal the core from the thread being waited on.
    oversubscribed: bool,
    /// Set when a chunk panics; remaining chunks are drained without
    /// running the job and the caller re-raises after the barrier.
    panicked: AtomicBool,
    /// The first panicking chunk's payload, resumed on the caller so
    /// the original message/location is not lost.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Decrements the live-worker counter however the worker loop exits
/// (normal shutdown, a `pool-worker` failpoint `return`, or a panic
/// escaping the chunk guard), so heal's liveness view cannot leak.
struct LiveGuard<'a>(&'a AtomicUsize);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

std::thread_local! {
    /// Set while the current thread is executing a pool chunk; a
    /// nested [`WorkerPool::run`] from inside a job would deadlock on
    /// the call mutex, so it is detected and rejected instead.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Snapshot of a [`WorkerPool`]'s observable state, taken by
/// [`WorkerPool::stats`]. Plain data — safe to ship across threads or
/// serialize onto a monitoring wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Dedicated worker threads ([`WorkerPool::worker_count`]).
    pub workers: usize,
    /// Measured per-dispatch coordination cost in nanoseconds
    /// ([`WorkerPool::dispatch_cost_ns`]).
    pub dispatch_cost_ns: u64,
    /// Workers respawned by [`WorkerPool::heal`] over the pool's
    /// lifetime ([`WorkerPool::respawn_count`]).
    pub respawn_count: usize,
}

/// A persistent pool of parked worker threads; see the module docs.
///
/// Most callers want the process-wide [`WorkerPool::global`] instance.
/// Dedicated pools (tests, isolation experiments) shut their workers
/// down on drop.
///
/// # Examples
///
/// ```
/// use portnum_graph::pool::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let hits = AtomicUsize::new(0);
/// WorkerPool::global().run(16, &|i| {
///     hits.fetch_add(i + 1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), (1..=16).sum());
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Live worker handles, interior-mutable so [`heal`](Self::heal)
    /// can replace dead workers from a `&self` call path.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// The worker count the pool maintains (healing respawns up to it).
    target_workers: usize,
    /// Monotonic id for worker thread names, so respawned workers are
    /// distinguishable in stack traces from the ones they replaced.
    next_worker_id: AtomicUsize,
    /// Total workers ever respawned by [`heal`](Self::heal);
    /// observable so tests can pin the self-healing contract.
    respawned: AtomicUsize,
    /// Measured cost of one no-op `run` round-trip, in nanoseconds
    /// (median of [`CALIBRATION_ROUNDS`] calls at construction; 0 for
    /// zero-worker pools, whose calls are plain inline loops).
    dispatch_cost_ns: AtomicU64,
}

impl WorkerPool {
    /// A pool with `workers` dedicated threads (the caller of
    /// [`run`](WorkerPool::run) always participates as one more).
    /// `workers == 0` is valid: every call then runs inline.
    ///
    /// Construction with workers also times a short burst of no-op
    /// calls and stores the median as the pool's measured dispatch
    /// cost (see [`dispatch_cost_ns`](Self::dispatch_cost_ns)).
    ///
    /// Pool construction also arms any failpoints named in the
    /// `PORTNUM_FAILPOINTS` environment variable (parsed once per
    /// process, panicking on a malformed spec like every other knob):
    /// every engine path crosses the pool module, so this is the one
    /// production hook that makes env-driven chaos work without test
    /// scaffolding.
    pub fn new(workers: usize) -> WorkerPool {
        fail::setup_from_env();
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let shared = Arc::new(Shared {
            call: Mutex::new(()),
            control: Mutex::new(Control { epoch: 0, chunks: 0, job: None, shutdown: false }),
            work_ready: Condvar::new(),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            cursor: AtomicU64::new(0),
            remaining: AtomicU32::new(0),
            parked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            oversubscribed: workers + 1 > cores,
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
        });
        let handles = (0..workers).map(|i| spawn_worker(&shared, i)).collect();
        let pool = WorkerPool {
            shared,
            workers: Mutex::new(handles),
            target_workers: workers,
            next_worker_id: AtomicUsize::new(workers),
            respawned: AtomicUsize::new(0),
            dispatch_cost_ns: AtomicU64::new(0),
        };
        if workers > 0 {
            pool.calibrate();
        }
        pool
    }

    /// The process-wide pool, created on first use with
    /// `available_parallelism - 1` workers (at least one, so the pool
    /// machinery is exercised even on single-core hosts; the caller is
    /// the remaining thread).
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            WorkerPool::new(threads.max(2) - 1)
        })
    }

    /// Number of dedicated worker threads (the caller adds one more).
    pub fn worker_count(&self) -> usize {
        self.target_workers
    }

    /// The measured cost of one no-op [`run`](Self::run) round-trip in
    /// nanoseconds: the median of a short burst timed at construction.
    /// This is the honest per-call coordination price the parallel
    /// work gate ([`crate::partition::threads_for`]) charges against a
    /// prospective fan-out, and the figure the plan executor surfaces
    /// in its `ExecStats`. Zero for zero-worker pools (inline calls).
    pub fn dispatch_cost_ns(&self) -> u64 {
        self.dispatch_cost_ns.load(Ordering::Relaxed)
    }

    /// Times [`CALIBRATION_ROUNDS`] no-op calls and stores the median.
    /// Each call is guarded against panics so an armed chaos failpoint
    /// (`pool-dispatch=panic`) degrades the sample instead of aborting
    /// pool construction; with no usable sample the cost stays 0 (the
    /// gate then falls back to the static threshold alone).
    fn calibrate(&self) {
        let chunks = self.target_workers + 1;
        let mut samples = Vec::with_capacity(CALIBRATION_ROUNDS);
        for _ in 0..CALIBRATION_ROUNDS {
            let start = std::time::Instant::now();
            if catch_unwind(AssertUnwindSafe(|| self.run(chunks, &|_| {}))).is_ok() {
                samples.push(start.elapsed().as_nanos() as u64);
            }
        }
        samples.sort_unstable();
        if !samples.is_empty() {
            self.dispatch_cost_ns.store(samples[samples.len() / 2], Ordering::Relaxed);
        }
    }

    /// Total workers respawned by [`heal`](Self::heal) over the pool's
    /// lifetime — the observable half of the self-healing contract.
    pub fn respawn_count(&self) -> usize {
        self.respawned.load(Ordering::Relaxed)
    }

    /// One-shot snapshot of the pool's observable state — worker
    /// count, measured dispatch cost, and respawn total — for
    /// monitoring surfaces (the serving layer's stats endpoint reports
    /// this verbatim). Cheap: three atomic loads.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.worker_count(),
            dispatch_cost_ns: self.dispatch_cost_ns(),
            respawn_count: self.respawn_count(),
        }
    }

    /// Detects and replaces dead worker threads. Called at every
    /// [`run`](Self::run) entry; the all-alive fast path is a single
    /// atomic load of the live-worker counter (each worker holds a
    /// drop guard that decrements it on any exit). A worker can die
    /// only by exiting its loop (the `pool-worker` failpoint's
    /// `return` action) or by a panic escaping the chunk guard —
    /// either way the epoch protocol is unaffected, so a fresh worker
    /// can join mid-stream. Public so callers can repair eagerly
    /// between calls.
    pub fn heal(&self) {
        if self.shared.live.load(Ordering::Acquire) >= self.target_workers {
            return;
        }
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        let dead: Vec<JoinHandle<()>> = {
            let mut alive = Vec::with_capacity(workers.len());
            let mut dead = Vec::new();
            for handle in workers.drain(..) {
                if handle.is_finished() {
                    dead.push(handle);
                } else {
                    alive.push(handle);
                }
            }
            *workers = alive;
            dead
        };
        for handle in dead {
            // A dead worker's exit status carries nothing the pool can
            // act on (job panics never escape the chunk guard), so the
            // join result is deliberately dropped.
            let _ = handle.join();
            let id = self.next_worker_id.fetch_add(1, Ordering::Relaxed);
            workers.push(spawn_worker(&self.shared, id));
            self.respawned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs `job(i)` exactly once for every `i in 0..chunks`, on the
    /// pool's workers and the calling thread, returning once all
    /// invocations have completed. Concurrent `run` calls on the same
    /// pool are serialised: the second caller blocks until the first
    /// call's barrier completes, then gets the whole pool.
    ///
    /// `run` is **not re-entrant**: a job must never call `run` (on
    /// any pool) from inside a chunk — the outer call holds the pool
    /// for its whole duration, so nesting would deadlock. Nested calls
    /// are detected and rejected with a panic instead of hanging.
    ///
    /// # Panics
    ///
    /// Resumes the first panicking chunk's panic on the caller
    /// (original payload preserved); the remaining chunks are skipped
    /// but still drained, so the pool stays usable. Also panics on
    /// re-entrant use, see above.
    pub fn run(&self, chunks: usize, job: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        fail::fail_point!("pool-dispatch");
        assert!(
            !IN_POOL_JOB.with(std::cell::Cell::get),
            "nested WorkerPool::run from inside a pool chunk would deadlock; \
             restructure the job to fan out from the caller instead"
        );
        if self.target_workers == 0 {
            // Inline fast path: no protocol, no atomics.
            for i in 0..chunks {
                job(i);
            }
            return;
        }
        self.heal();
        let chunks32 = u32::try_from(chunks).expect("pool calls are capped at 2^32 chunks");
        let _call = self.shared.call.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        #[allow(unsafe_code)]
        // SAFETY: lifetime erasure only — the pointer is dereferenced
        // exclusively between installation below and the completion
        // barrier at the end of this call, during which `job` is alive
        // (see the module-level safety argument).
        let ptr: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
                job,
            )
        };
        let epoch = {
            let mut control = self.shared.control.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            control.epoch = control.epoch.wrapping_add(1);
            if control.epoch == 0 {
                control.epoch = 1;
            }
            control.chunks = chunks32;
            control.job = Some(Job { ptr });
            self.shared.remaining.store(chunks32, Ordering::Release);
            self.shared.panicked.store(false, Ordering::Relaxed);
            // Publish the new cursor last: spinning workers key off the
            // epoch tag, and parked workers read `control` under the
            // mutex — either way the job/chunk state is visible first.
            self.shared.cursor.store(u64::from(control.epoch) << 32, Ordering::Release);
            control.epoch
        };
        // Wake parked workers only: spinning workers have already seen
        // the cursor store, and an empty wait queue makes the notify a
        // wasted syscall on the submit hot path. An *oversubscribed*
        // pool never wakes parked workers at all — a woken worker must
        // time-share the caller's own core, so the wake can only add
        // syscalls and context switches to a call the participating
        // caller (and any worker still inside its spin window) already
        // completes; exactly-once execution never depends on workers.
        if !self.shared.oversubscribed && self.shared.parked.load(Ordering::SeqCst) > 0 {
            self.shared.work_ready.notify_all();
        }

        // The caller is a worker too; with every chunk claimed via the
        // epoch-tagged cursor this also guarantees completion even if
        // all workers are still waking up.
        run_chunks(&self.shared, epoch, chunks32, Job { ptr });

        // Completion barrier, in three tiers: spin briefly (the caller
        // just ran chunks, so stragglers are usually one in-flight
        // chunk away), then yield — on an oversubscribed host the
        // straggler needs this core to finish at all, and handing it
        // over costs a context switch instead of the spin budget plus
        // a scheduler round-trip — and finally park on the done
        // condvar.
        let mut waits = 0u32;
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            waits += 1;
            if waits < CALLER_SPIN {
                std::hint::spin_loop();
            } else if waits < CALLER_SPIN + CALLER_YIELDS {
                std::thread::yield_now();
            } else {
                let mut done =
                    self.shared.done.lock().unwrap_or_else(PoisonError::into_inner);
                while self.shared.remaining.load(Ordering::Acquire) != 0 {
                    done = self.shared.done_cv.wait(done).unwrap_or_else(PoisonError::into_inner);
                }
                break;
            }
        }
        // Drop the erased pointer before the borrow ends.
        self.shared.control.lock().unwrap_or_else(std::sync::PoisonError::into_inner).job = None;
        if self.shared.panicked.swap(false, Ordering::Relaxed) {
            let payload = self
                .shared
                .panic_payload
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            match payload {
                Some(payload) => std::panic::resume_unwind(payload),
                None => panic!("a worker-pool chunk panicked"),
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut control = self.shared.control.lock().unwrap_or_else(PoisonError::into_inner);
            control.shutdown = true;
        }
        // Spinning workers watch the atomic mirror; parked workers the
        // control flag via the condvar.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.target_workers).finish_non_exhaustive()
    }
}

fn spawn_worker(shared: &Arc<Shared>, id: usize) -> JoinHandle<()> {
    // Count the worker live from the spawning side, so a heal/run
    // racing the thread's startup does not see a phantom shortfall and
    // spawn a duplicate.
    shared.live.fetch_add(1, Ordering::Release);
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("portnum-pool-{id}"))
        .spawn(move || worker_loop(&shared))
        .expect("spawning a pool worker")
}

fn worker_loop(shared: &Shared) {
    let _live = LiveGuard(&shared.live);
    let mut seen = 0u32;
    loop {
        // Chaos site: a `return` action makes this worker exit, which
        // `WorkerPool::heal` must detect and repair. Safe at any time:
        // the caller participates in every call, so in-flight chunks
        // still complete without this worker.
        fail::fail_point!("pool-worker", |_| ());
        // Spin-then-park: watch the cursor's epoch tag for a fresh
        // call before paying the condvar round-trip. A burst of small
        // calls is picked up here, lock-free. On an oversubscribed
        // host the budget is tiny — a spinning worker would be
        // stealing the core from the caller producing the next call.
        let spin_budget =
            if shared.oversubscribed { OVERSUBSCRIBED_WORKER_SPIN } else { WORKER_SPIN };
        let mut spun_out = true;
        let mut spins = 0u32;
        while spins < spin_budget {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let tag = (shared.cursor.load(Ordering::Acquire) >> 32) as u32;
            if tag != seen && tag != 0 {
                spun_out = false;
                break;
            }
            spins += 1;
            std::hint::spin_loop();
        }
        let (epoch, chunks, job) = {
            let mut control =
                shared.control.lock().unwrap_or_else(PoisonError::into_inner);
            if spun_out {
                // Park. The parked counter is published before the
                // epoch recheck under the lock, so a submitter either
                // sees us parked (and notifies) or we see its epoch.
                shared.parked.fetch_add(1, Ordering::SeqCst);
                loop {
                    if control.shutdown {
                        shared.parked.fetch_sub(1, Ordering::SeqCst);
                        return;
                    }
                    if control.epoch != seen {
                        break;
                    }
                    control =
                        shared.work_ready.wait(control).unwrap_or_else(PoisonError::into_inner);
                }
                shared.parked.fetch_sub(1, Ordering::SeqCst);
            } else if control.shutdown {
                return;
            }
            seen = control.epoch;
            (control.epoch, control.chunks, control.job)
        };
        if let Some(job) = job {
            run_chunks(shared, epoch, chunks, job);
        }
    }
}

/// Claims and executes chunks of the given epoch until the queue is
/// exhausted or the epoch moves on. Every claim is an epoch-verified
/// CAS, so a thread that dozed through the end of a call cannot steal
/// from (or double-count into) the next one. Completion is one
/// `fetch_sub` on the remaining counter per chunk; the thread that
/// completes the call's last chunk additionally takes the done lock to
/// wake a parked caller.
fn run_chunks(shared: &Shared, epoch: u32, chunks: u32, job: Job) {
    loop {
        let mut cursor = shared.cursor.load(Ordering::Acquire);
        let index = loop {
            if (cursor >> 32) as u32 != epoch {
                return;
            }
            let index = cursor as u32;
            if index >= chunks {
                return;
            }
            match shared.cursor.compare_exchange_weak(
                cursor,
                cursor + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break index,
                Err(current) => cursor = current,
            }
        };
        if !shared.panicked.load(Ordering::Relaxed) {
            #[allow(unsafe_code)]
            // SAFETY: the chunk was claimed under the current epoch, so
            // the installing `run` call is still blocked on the
            // completion barrier below and the pointee is alive.
            let func = unsafe { &*job.ptr };
            IN_POOL_JOB.with(|flag| flag.set(true));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Chaos site inside the panic guard, so an injected
                // panic exercises the same containment path as a real
                // job panic.
                fail::fail_point!("pool-chunk");
                func(index as usize);
            }));
            IN_POOL_JOB.with(|flag| flag.set(false));
            if let Err(payload) = outcome {
                // Keep the first payload so the caller can resume the
                // original panic (message and location intact).
                let mut slot =
                    shared.panic_payload.lock().unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert(payload);
                shared.panicked.store(true, Ordering::Relaxed);
            }
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Chaos site between the barrier reaching zero and the wake:
            // a delay here lets the caller return and start its next
            // call before this thread notifies.
            fail::fail_point!("pool-barrier");
            // Last chunk of the call: notify under the done lock, so a
            // caller that gave up spinning (it checks `remaining` under
            // the same lock) cannot miss the wake.
            let _done = shared.done.lock().unwrap_or_else(PoisonError::into_inner);
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        for chunks in [0usize, 1, 2, 7, 64, 1000] {
            let counts: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(chunks, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "chunks = {chunks}"
            );
        }
    }

    #[test]
    fn per_chunk_slots_are_deterministic() {
        // Each chunk writes its own slot; repeated calls must produce
        // identical output regardless of which worker ran what.
        let pool = WorkerPool::new(4);
        let reference: Vec<usize> = (0..257).map(|i| i * i).collect();
        for _ in 0..50 {
            let slots: Vec<Mutex<usize>> = (0..257).map(|_| Mutex::new(0)).collect();
            pool.run(257, &|i| {
                *slots[i].lock().unwrap() = i * i;
            });
            let got: Vec<usize> = slots.iter().map(|s| *s.lock().unwrap()).collect();
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.worker_count(), 0);
        assert_eq!(pool.dispatch_cost_ns(), 0, "inline calls have no dispatch cost");
        let sum = AtomicUsize::new(0);
        pool.run(10, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn pool_survives_many_small_calls() {
        // The epoch protocol must hand back a clean queue every call.
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..2000 {
            pool.run(3, &|i| {
                total.fetch_add(i + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 2000 * 6);
    }

    #[test]
    fn pool_survives_calls_across_park_boundaries() {
        // Sleeping past the spin window parks every worker; the next
        // call must take the condvar wake path and still complete.
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        for round in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            pool.run(8, &|i| {
                total.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), (round + 1) * 36);
        }
    }

    #[test]
    fn dispatch_cost_is_calibrated_at_construction() {
        let pool = WorkerPool::new(2);
        let cost = pool.dispatch_cost_ns();
        assert!(cost > 0, "a pool with workers must measure a nonzero dispatch cost");
        // Sanity ceiling: a no-op round-trip through warm workers is
        // microseconds, not milliseconds (loose bound for CI noise).
        assert!(cost < 50_000_000, "implausible dispatch cost: {cost}ns");
    }

    #[test]
    fn borrowed_environment_is_visible_and_mutable_per_chunk() {
        let pool = WorkerPool::new(2);
        let input: Vec<usize> = (0..100).collect();
        let out: Vec<Mutex<usize>> = (0..4).map(|_| Mutex::new(0)).collect();
        pool.run(4, &|c| {
            let chunk = &input[c * 25..(c + 1) * 25];
            *out[c].lock().unwrap() = chunk.iter().sum();
        });
        let total: usize = out.iter().map(|m| *m.lock().unwrap()).sum();
        assert_eq!(total, 99 * 100 / 2);
    }

    #[test]
    fn panicking_chunk_propagates_payload_and_pool_stays_usable() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        // The ORIGINAL payload reaches the caller, not a generic
        // re-panic — chunk diagnostics survive the pool boundary.
        let payload = result.expect_err("panic must reach the caller");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "boom");
        // The pool still works afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(5, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn nested_run_is_rejected_not_deadlocked() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|_| {
                WorkerPool::global().run(2, &|_| {});
            });
        }));
        let payload = result.expect_err("nested run must be rejected");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(message.contains("nested WorkerPool::run"), "got: {message}");
        // Still usable afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(3, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn respawn_count_starts_at_zero_and_heal_is_a_noop_when_alive() {
        let pool = WorkerPool::new(2);
        pool.run(4, &|_| {});
        pool.heal();
        assert_eq!(pool.respawn_count(), 0);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
        let hits = AtomicUsize::new(0);
        WorkerPool::global().run(12, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 12);
    }
}
