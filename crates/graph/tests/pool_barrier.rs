//! The completion barrier of [`WorkerPool::run`] must hold across calls
//! even when the thread that completed the previous call's last chunk
//! wakes the caller late.
//!
//! The `pool-barrier` failpoint delays that thread between its final
//! completion decrement and the wake. Its caller sees the counter at
//! zero while spinning and returns; the next call then starts while the
//! late thread has yet to notify. A barrier that trusts a call-finished
//! *flag* instead of the remaining-chunks counter lets that stale
//! notification release the next call's parked caller while a chunk is
//! still running.
//!
//! Own test binary: the failpoint registry is process-global.

use portnum_graph::pool::WorkerPool;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long the late thread sits between the decrement and the wake.
const BARRIER_DELAY_MS: u64 = 300;

/// How long the second call's straggling chunk waits for `run` to
/// return before it finishes anyway: far longer than the caller's spin
/// and yield window, so a caller that returns at all before this chunk
/// ends has passed the park tier.
const STRAGGLE_BOUND: Duration = Duration::from_millis(300);

/// Upper bound for every rendezvous wait, so a host too busy to
/// schedule the worker degrades to a vacuous attempt, never a hang.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(5);

// Shared state lives in statics and the jobs copy the rest on entry: a
// chunk that outlived its `run` call must not reach into a stack frame
// that has already been torn down.
static CALLER_IN: AtomicBool = AtomicBool::new(false);
static WORKER_IN: AtomicBool = AtomicBool::new(false);
static CALLER_DONE: AtomicBool = AtomicBool::new(false);
static STRAGGLER_IN: AtomicBool = AtomicBool::new(false);
static RUN_RETURNED: AtomicBool = AtomicBool::new(false);
static FINISHED: AtomicUsize = AtomicUsize::new(0);

fn wait_for(flag: &AtomicBool, timeout: Duration) {
    let start = Instant::now();
    while !flag.load(Ordering::Acquire) && start.elapsed() < timeout {
        std::hint::spin_loop();
    }
}

/// The first call's job: two chunks, one on the caller and one on the
/// worker, arranged so the worker completes the call's last chunk (and
/// therefore hits the armed `pool-barrier` site) just after the caller
/// finished its own.
fn first_call_chunk(caller: std::thread::ThreadId) {
    if std::thread::current().id() == caller {
        CALLER_IN.store(true, Ordering::Release);
        wait_for(&WORKER_IN, RENDEZVOUS_TIMEOUT);
        CALLER_DONE.store(true, Ordering::Release);
    } else {
        WORKER_IN.store(true, Ordering::Release);
        wait_for(&CALLER_IN, RENDEZVOUS_TIMEOUT);
        wait_for(&CALLER_DONE, RENDEZVOUS_TIMEOUT);
        // Let the caller's completion decrement land first.
        let start = Instant::now();
        while start.elapsed() < Duration::from_micros(20) {
            std::hint::spin_loop();
        }
    }
}

/// The second call's job: the caller's chunk ends only once the late
/// worker — past its delayed wake — has claimed the other chunk, and
/// that chunk straggles until `run` has returned (or the bound).
fn second_call_chunk(caller: std::thread::ThreadId) {
    if std::thread::current().id() == caller {
        wait_for(&STRAGGLER_IN, RENDEZVOUS_TIMEOUT);
    } else {
        STRAGGLER_IN.store(true, Ordering::Release);
        wait_for(&RUN_RETURNED, STRAGGLE_BOUND);
    }
    FINISHED.fetch_add(1, Ordering::AcqRel);
}

#[test]
fn a_late_wake_from_one_call_cannot_release_the_next_call_early() {
    fail::teardown();
    let pool = WorkerPool::new(1);
    let mut staged = false;
    for _ in 0..20 {
        CALLER_IN.store(false, Ordering::Release);
        WORKER_IN.store(false, Ordering::Release);
        CALLER_DONE.store(false, Ordering::Release);
        fail::cfg("pool-barrier", &format!("1*delay({BARRIER_DELAY_MS})")).unwrap();
        let caller = std::thread::current().id();
        let start = Instant::now();
        pool.run(2, &|_| first_call_chunk(caller));
        // A fast return means the caller saw the barrier at zero while
        // the worker sat in the delay: the stage is set. Otherwise the
        // delay fired on the caller (or the caller parked and waited it
        // out) — try again.
        if start.elapsed() < Duration::from_millis(BARRIER_DELAY_MS / 2) {
            staged = true;
            break;
        }
    }

    let caller = std::thread::current().id();
    pool.run(2, &|_| second_call_chunk(caller));
    let finished_at_return = FINISHED.load(Ordering::Acquire);
    RUN_RETURNED.store(true, Ordering::Release);
    // Outlive any chunk a broken barrier left running before asserting.
    let start = Instant::now();
    while FINISHED.load(Ordering::Acquire) < 2 && start.elapsed() < RENDEZVOUS_TIMEOUT {
        std::thread::sleep(Duration::from_millis(5));
    }
    fail::remove("pool-barrier");

    assert_eq!(
        finished_at_return, 2,
        "run returned while a chunk was still running (stage set: {staged})"
    );
    // The pool keeps serving afterwards.
    let hits = AtomicUsize::new(0);
    pool.run(8, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 8);
}
