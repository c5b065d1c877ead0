//! Self-healing contract under worker death: a `return` action on the
//! `pool-worker` failpoint makes workers exit their loop, and
//! [`WorkerPool::heal`] (called at every `run` entry) must detect the
//! dead threads, respawn them, and keep every call completing — the
//! caller participates, so chunks drain even while workers are dying.
//!
//! Own test binary: the failpoint registry is process-global and this
//! test kills pool workers, which must not race other pool tests.
//!
//! The site is armed *before* the pool is built, so every worker dies
//! at its first loop head without waiting to be woken: whether an
//! oversubscribed pool (more pool threads than cores) ever wakes a
//! parked worker is its own policy, and this test must not depend on it.

use portnum_graph::pool::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

#[test]
fn dead_workers_are_respawned_and_the_pool_keeps_serving() {
    fail::teardown();
    // Workers exit at the loop head while the action is armed; heal()
    // keeps replacing them at the next run() entry. Every call must
    // still execute all chunks exactly once throughout.
    fail::cfg("pool-worker", "return").unwrap();
    let pool = WorkerPool::new(2);
    let mut respawned = 0;
    for _ in 0..200 {
        let hits = AtomicUsize::new(0);
        pool.run(8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8, "chunks lost while workers died");
        respawned = pool.respawn_count();
        if respawned >= 2 {
            break;
        }
        // Give the just-killed threads a moment to finish exiting so
        // heal's `is_finished` probe can observe the death.
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(respawned >= 2, "workers died but were not respawned (respawn_count={respawned})");

    // Disarm: the next generation of workers stays alive and the pool
    // serves as if nothing happened.
    fail::remove("pool-worker");
    let hits = AtomicUsize::new(0);
    pool.run(16, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 16);
    assert_eq!(pool.worker_count(), 2, "healing must preserve the pool size");
}
