//! Pool panic-reuse regression tests: a job panic injected inside a
//! pool chunk (`pool-chunk` failpoint) must surface at the caller, and
//! the **same global pool** must complete the next identical call —
//! one test per pool entry point (plan execution, refinement encode,
//! CSC chunking).
//!
//! Every entry point runs with [`Parallelism::Force`], so it drives
//! the pool even on the small models used here; the "panic must reach
//! the caller" assert proves each call really crossed the pool.

mod common;

use common::execute_pinned;
use portnum_graph::generators;
use portnum_graph::partition::Parallelism;
use portnum_graph::pool::WorkerPool;
use portnum_logic::bisim::{self, BisimStyle, RefineEngine};
use portnum_logic::plan::{DiamondMode, Plan};
use portnum_logic::{Formula, Kripke, ModalIndex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises tests (the failpoint registry is process-global), resets
/// the registry, and builds the global pool: its construction-time
/// calibration crosses `pool-chunk`, so it must not run while a
/// one-shot panic is armed (the sequential baselines never touch it).
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    fail::teardown();
    WorkerPool::global();
    guard
}

fn model() -> Kripke {
    Kripke::k_mm(&generators::path(96))
}

/// `(⟨⟩p0 ∨ ⟨⟩p1) ∧ ¬⟨⟩p2` — three diamonds under connectives. Forced
/// execution on the 96-path splits the CSC gather of `⟨⟩p1` over the
/// pool: an entry-space split needs no 64-world minimum.
fn wide_formula() -> Formula {
    let d0 = Formula::diamond(ModalIndex::Any, &Formula::prop(0));
    let d1 = Formula::diamond(ModalIndex::Any, &Formula::prop(1));
    let d2 = Formula::diamond(ModalIndex::Any, &Formula::prop(2));
    d0.or(&d1).and(&d2.not())
}

/// Injects a one-shot panic at `pool-chunk`, runs `entry` expecting the
/// panic to surface, then re-runs `entry` on the same (global) pool and
/// returns the clean result for comparison against a baseline.
fn panic_then_reuse<T: Send>(entry: impl Fn() -> T + Send + Sync) -> T {
    fail::cfg("pool-chunk", "1*panic(injected chunk panic)").unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(&entry));
    fail::teardown();
    let payload = match outcome {
        Err(p) => p,
        Ok(_) => panic!("the injected chunk panic must reach the caller"),
    };
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(msg.contains("injected chunk panic"), "foreign panic: {msg:?}");
    entry()
}

#[test]
fn plan_level_execution_reuses_pool_after_chunk_panic() {
    let _g = serial();
    let k = model();
    let plan = Plan::compile(&k, &wide_formula()).expect("compiles");
    let baseline = plan.execute(&k);
    let reused =
        panic_then_reuse(|| execute_pinned(&plan, &k, DiamondMode::Auto, Parallelism::Force).0);
    assert_eq!(reused, baseline);
}

#[test]
fn refinement_encode_reuses_pool_after_chunk_panic() {
    let _g = serial();
    let k = model();
    let baseline = bisim::refine(&k, BisimStyle::Plain);
    let reused = panic_then_reuse(|| {
        bisim::refine_with(&k, BisimStyle::Plain, RefineEngine::Worklist, Parallelism::Force)
    });
    assert_eq!(reused.depth(), baseline.depth());
    assert_eq!(reused.final_level(), baseline.final_level());
}

#[test]
fn csc_chunking_reuses_pool_after_chunk_panic() {
    let _g = serial();
    let k = model();
    // A diamond over ⊤ saturates the operand, so the CSC gather has the
    // densest possible `iter_ones` split to chunk over.
    let f = Formula::diamond(ModalIndex::Any, &Formula::top())
        .and(&Formula::prop(1).not());
    let plan = Plan::compile(&k, &f).expect("compiles");
    let baseline = plan.execute_with(&k, DiamondMode::Csc).0;
    let reused =
        panic_then_reuse(|| execute_pinned(&plan, &k, DiamondMode::Csc, Parallelism::Force).0);
    assert_eq!(reused, baseline);
}
