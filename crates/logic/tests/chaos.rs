//! Chaos harness: fuzzes (failpoint site × action × query) and pins
//! the resilience contract of ISSUE 6 —
//!
//! 1. **no wedge**: after any injected fault, the global pool serves
//!    the next query;
//! 2. **no torn cache**: the `OnceLock` CSC stores and the
//!    checker's `Rc` truth vectors are committed whole or not at all;
//! 3. **bit-identical retry**: a query retried after a fault returns
//!    exactly the bits an uninjected run returns.
//!
//! The failpoint registry is process-global, so every test serialises
//! on one lock and tears the registry down before and after itself.

use portnum_graph::generators;
use portnum_graph::partition::Parallelism;
use portnum_graph::pool::WorkerPool;
use portnum_graph::resilience::{CancelToken, ExecControl, InterruptReason};
use portnum_logic::bisim::{self, BisimStyle};
use portnum_logic::plan::{DiamondMode, ModelChecker, Plan};
use portnum_logic::{Formula, Kripke, LogicError, ModalIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One registry, one test at a time.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    fail::teardown();
    guard
}

/// `(⟨⟩(⟨⟩ p2) ∨ p1) ∧ ¬p0` — a diamond tower with trailing
/// connectives, so every execution has instruction boundaries *after*
/// the diamonds (a cancel raised inside a diamond is observed at the
/// next boundary).
fn query_formula(depth: usize) -> Formula {
    let mut f = Formula::prop(2);
    for _ in 0..depth {
        f = Formula::diamond(ModalIndex::Any, &f);
    }
    f.or(&Formula::prop(1)).and(&Formula::prop(0).not())
}

/// `µX. q1 ∨ ⟨*,*⟩X` — endpoint reachability. On the 96-path the wave
/// front moves one world per Kleene iteration, so the
/// `plan-fixpoint-iter` site is hit ~n/2 times per query.
fn fixpoint_formula() -> Formula {
    Formula::mu(
        "X",
        &Formula::prop(1).or(&Formula::diamond(ModalIndex::Any, &Formula::var("X"))),
    )
    .expect("body is positive in X")
}

/// The query each site is exercised through: a closure running one
/// complete engine call on a **fresh model** (so lazily built caches
/// like the CSC reverse stores are rebuilt — and their build
/// sites hit — on every invocation) and returning a comparable digest.
type Query = fn(&ExecControl) -> Result<Vec<u64>, LogicError>;

fn run_plan_seq(ctl: &ExecControl) -> Result<Vec<u64>, LogicError> {
    let k = chaos_model();
    let plan = Plan::compile(&k, &query_formula(4))?;
    let (truths, _) = plan.execute_controlled(&k, DiamondMode::Auto, Parallelism::Auto, ctl)?;
    Ok(truths.iter().flat_map(|b| b.words().iter().copied()).collect())
}

fn run_plan_pool(ctl: &ExecControl) -> Result<Vec<u64>, LogicError> {
    let k = pool_model();
    let plan = Plan::compile(&k, &query_formula(4))?;
    let (truths, _) = plan.execute_controlled(&k, DiamondMode::Auto, Parallelism::Force, ctl)?;
    Ok(truths.iter().flat_map(|b| b.words().iter().copied()).collect())
}

fn run_plan_csc(ctl: &ExecControl) -> Result<Vec<u64>, LogicError> {
    let k = chaos_model();
    let plan = Plan::compile(&k, &query_formula(2))?;
    let (truths, _) = plan.execute_controlled(&k, DiamondMode::Csc, Parallelism::Auto, ctl)?;
    Ok(truths.iter().flat_map(|b| b.words().iter().copied()).collect())
}

fn run_fixpoint_seq(ctl: &ExecControl) -> Result<Vec<u64>, LogicError> {
    let k = chaos_model();
    let plan = Plan::compile(&k, &fixpoint_formula())?;
    let (truths, _) = plan.execute_controlled(&k, DiamondMode::Auto, Parallelism::Auto, ctl)?;
    Ok(truths.iter().flat_map(|b| b.words().iter().copied()).collect())
}

fn run_fixpoint_pool(ctl: &ExecControl) -> Result<Vec<u64>, LogicError> {
    let k = pool_model();
    let plan = Plan::compile(&k, &fixpoint_formula())?;
    let (truths, _) = plan.execute_controlled(&k, DiamondMode::Auto, Parallelism::Force, ctl)?;
    Ok(truths.iter().flat_map(|b| b.words().iter().copied()).collect())
}

fn run_checker(ctl: &ExecControl) -> Result<Vec<u64>, LogicError> {
    let k = chaos_model();
    let mut checker = ModelChecker::new(&k);
    let truth = checker.check_controlled(&query_formula(4), ctl)?;
    Ok(truth.words().to_vec())
}

fn run_refine(ctl: &ExecControl) -> Result<Vec<u64>, LogicError> {
    refine_digest(Parallelism::Auto, ctl)
}

/// Refinement with every round's encode forced onto the pool, so a
/// fault at `pool-chunk` lands inside a pool-encoded round.
fn run_refine_pool(ctl: &ExecControl) -> Result<Vec<u64>, LogicError> {
    refine_digest(Parallelism::Force, ctl)
}

/// Every level of a plain refinement of the chaos model, concatenated.
fn refine_digest(par: Parallelism, ctl: &ExecControl) -> Result<Vec<u64>, LogicError> {
    let k = chaos_model();
    let classes = bisim::refine_controlled(&k, BisimStyle::Plain, par, ctl)
        .map_err(LogicError::Interrupted)?;
    Ok((0..=classes.depth())
        .flat_map(|t| classes.level(t).iter().map(|&c| c as u64))
        .collect())
}

/// Every (site, query-that-hits-it) pair of the chaos matrix.
/// `pool-worker` is exercised separately (worker death + respawn lives
/// in the graph crate's pool tests; its action vocabulary is `return`,
/// not panic, so it stays out of the panic matrix).
const MATRIX: &[(&str, Query)] = &[
    ("plan-instr", run_plan_seq as Query),
    ("plan-instr", run_plan_pool as Query),
    ("plan-fixpoint-iter", run_fixpoint_seq as Query),
    ("plan-fixpoint-iter", run_fixpoint_pool as Query),
    ("checker-instr", run_checker as Query),
    ("refine-round", run_refine as Query),
    ("refine-round", run_refine_pool as Query),
    ("pool-chunk", run_refine_pool as Query),
    ("csc-build", run_plan_csc as Query),
    ("pool-dispatch", run_plan_pool as Query),
    ("pool-chunk", run_plan_pool as Query),
];

/// A long-diameter model: refinement needs many rounds and plans have
/// many instructions.
fn chaos_model() -> Kripke {
    Kripke::k_mm(&generators::path(96))
}

/// The model of the forced-pool queries: plans run one instruction at
/// a time, so the pool is reached only by splitting one instruction's
/// worlds into 64-aligned chunks, and below 128 worlds there is only
/// one chunk, filled inline. 256 worlds give every forced `Prop` and
/// forward diamond at least two chunks.
fn pool_model() -> Kripke {
    Kripke::k_mm(&generators::path(256))
}

fn assert_pool_not_wedged() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let hits = AtomicUsize::new(0);
    WorkerPool::global().run(7, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 7, "global pool wedged");
}

#[test]
fn panic_at_every_site_then_bit_identical_retry() {
    let _g = serial();
    for &(site, query) in MATRIX {
        let baseline = query(&ExecControl::unrestricted()).expect("clean run");
        fail::cfg(site, "1*panic(chaos injection)").unwrap();
        let outcome =
            catch_unwind(AssertUnwindSafe(|| query(&ExecControl::unrestricted())));
        match outcome {
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_default();
                assert!(msg.contains("chaos injection"), "site {site}: foreign panic {msg:?}");
            }
            Ok(r) => panic!("site {site} was not hit by its query (got {:?})", r.is_ok()),
        }
        fail::teardown();
        // No wedge, no torn cache, bit-identical retry.
        assert_pool_not_wedged();
        let retry = query(&ExecControl::unrestricted()).expect("retry after panic");
        assert_eq!(retry, baseline, "site {site}: retry diverged after injected panic");
    }
}

#[test]
fn delay_at_every_site_completes_identically() {
    let _g = serial();
    for &(site, query) in MATRIX {
        let baseline = query(&ExecControl::unrestricted()).expect("clean run");
        fail::cfg(site, "2*sleep(10)").unwrap();
        let slowed = query(&ExecControl::unrestricted()).expect("delayed run completes");
        fail::teardown();
        assert_eq!(slowed, baseline, "site {site}: delay changed the bits");
        assert_pool_not_wedged();
    }
}

#[test]
fn cancel_at_every_site_interrupts_then_bit_identical_retry() {
    let _g = serial();
    for &(site, query) in MATRIX {
        let baseline = query(&ExecControl::unrestricted()).expect("clean run");
        let token = CancelToken::new();
        let t = token.clone();
        fail::cfg_callback(site, move || t.cancel());
        let ctl = ExecControl::with_cancel(token);
        match query(&ctl) {
            Err(LogicError::Interrupted(i)) => {
                assert_eq!(i.reason, InterruptReason::Cancelled, "site {site}")
            }
            Err(other) => panic!("site {site}: unexpected error {other}"),
            Ok(_) => panic!("site {site}: cancel injected at a hit site must interrupt"),
        }
        fail::teardown();
        assert_pool_not_wedged();
        let retry = query(&ExecControl::unrestricted()).expect("retry after cancel");
        assert_eq!(retry, baseline, "site {site}: retry diverged after cancellation");
    }
}

#[test]
fn cancelled_check_commits_nothing_and_retries_like_fresh() {
    let _g = serial();
    let k = chaos_model();
    let f = query_formula(4);
    let fresh_bits = ModelChecker::new(&k).check(&f).expect("fresh").words().to_vec();

    let mut checker = ModelChecker::new(&k);
    let token = CancelToken::new();
    let t = token.clone();
    fail::cfg_callback("checker-instr", move || t.cancel());
    let err = checker
        .check_controlled(&f, &ExecControl::with_cancel(token))
        .expect_err("cancel at the first instruction boundary must interrupt");
    assert!(matches!(err, LogicError::Interrupted(_)));
    fail::teardown();
    // Whole-or-nothing: the interrupted check committed no vectors.
    assert_eq!(checker.stats().computed, 0, "interrupted check must publish nothing");
    // Immediate retry on the same checker is bit-identical to fresh.
    let retry = checker.check(&f).expect("retry").words().to_vec();
    assert_eq!(retry, fresh_bits);
}

/// Cancel raised from *inside* a fixpoint loop — dozens of iterations
/// into the second of two fixpoints — must leave the checker cache
/// whole-or-nothing: the completed first fixpoint may be committed
/// (as a whole vector), the in-flight one must not be, and a retry on
/// the SAME checker is bit-identical to a fresh run (a torn cached
/// vector would be reused and poison the retry).
#[test]
fn cancelled_fixpoint_mid_iteration_leaves_cache_whole_or_nothing() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let _g = serial();
    let k = chaos_model();
    // Two slow fixpoints: reach = µX.q1∨◇X (≈ n/2 iterations on the
    // path), then νY.⟨⟩≥2 Y under a negation (the 2-core: one endpoint
    // world erodes per iteration, ≈ n/2 more). The cancel fires on the
    // 60th hit of the per-iteration site — after `reach` has converged
    // and committed, mid-flight inside the second loop.
    let reach = fixpoint_formula();
    let core = Formula::nu("Y", &Formula::diamond_geq(ModalIndex::Any, 2, &Formula::var("Y")))
        .expect("body is positive in Y");
    let f = reach.and(&core.not());
    let fresh_bits = ModelChecker::new(&k).check(&f).expect("fresh").words().to_vec();

    let mut checker = ModelChecker::new(&k);
    let token = CancelToken::new();
    let t = token.clone();
    let hits = Arc::new(AtomicUsize::new(0));
    let h = hits.clone();
    fail::cfg_callback("plan-fixpoint-iter", move || {
        if h.fetch_add(1, Ordering::Relaxed) + 1 == 60 {
            t.cancel();
        }
    });
    let err = checker
        .check_controlled(&f, &ExecControl::with_cancel(token))
        .expect_err("cancel on iteration 60 must interrupt");
    assert!(matches!(err, LogicError::Interrupted(_)));
    fail::teardown();
    assert!(hits.load(Ordering::Relaxed) >= 60, "site under-hit: not a mid-iteration cancel");
    // Whole vectors only: whatever was committed, a retry on the same
    // checker reuses it and still matches fresh bits exactly.
    let committed = checker.stats().computed;
    let retry = checker.check(&f).expect("retry").words().to_vec();
    assert_eq!(retry, fresh_bits, "torn fixpoint cache after mid-iteration cancel");
    assert!(
        checker.stats().computed > committed,
        "retry must recompute the uncommitted suffix"
    );
}

/// An already-expired deadline is observed at the fixpoint's own loop
/// boundary (not just between instructions): the query interrupts with
/// the typed reason, commits nothing for the in-flight op, and retries
/// bit-identically.
#[test]
fn expired_deadline_interrupts_inside_the_fixpoint_loop() {
    let _g = serial();
    let k = chaos_model();
    let f = fixpoint_formula();
    let fresh_bits = ModelChecker::new(&k).check(&f).expect("fresh").words().to_vec();
    let mut checker = ModelChecker::new(&k);
    let ctl = ExecControl {
        deadline: Some(portnum_graph::resilience::Deadline::after(std::time::Duration::ZERO)),
        ..ExecControl::unrestricted()
    };
    match checker.check_controlled(&f, &ctl) {
        Err(LogicError::Interrupted(i)) => {
            assert_eq!(i.reason, InterruptReason::DeadlineExceeded)
        }
        other => panic!("expired deadline must interrupt, got {:?}", other.is_ok()),
    }
    assert_eq!(checker.stats().computed, 0, "interrupted fixpoint must publish nothing");
    let retry = checker.check(&f).expect("retry").words().to_vec();
    assert_eq!(retry, fresh_bits);
}

/// A panic injected mid-iteration (40 clean hits first) unwinds out of
/// the executor without corrupting anything process-global: the pool
/// still serves and a fresh run of the same query is bit-identical.
#[test]
fn fixpoint_panic_mid_iteration_then_bit_identical_retry() {
    let _g = serial();
    let baseline = run_fixpoint_seq(&ExecControl::unrestricted()).expect("clean run");
    fail::cfg("plan-fixpoint-iter", "40*off->1*panic(chaos injection)").unwrap();
    let outcome =
        catch_unwind(AssertUnwindSafe(|| run_fixpoint_seq(&ExecControl::unrestricted())));
    match outcome {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(msg.contains("chaos injection"), "foreign panic {msg:?}");
        }
        Ok(r) => panic!("iteration 41 was never reached (got {:?})", r.is_ok()),
    }
    fail::teardown();
    assert_pool_not_wedged();
    let retry = run_fixpoint_seq(&ExecControl::unrestricted()).expect("retry after panic");
    assert_eq!(retry, baseline, "retry diverged after mid-iteration panic");
}

#[test]
fn panicked_cache_build_leaves_oncelock_unset_not_torn() {
    let _g = serial();
    // Same long-lived model across the fault and the retry: the lazy
    // reverse store survives, so a torn publication would be visible.
    let k = chaos_model();
    let f = query_formula(2);
    let plan = Plan::compile(&k, &f).expect("compiles");
    fail::cfg("csc-build", "1*panic(build chaos)").unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| plan.execute_with(&k, DiamondMode::Csc)));
    assert!(outcome.is_err(), "csc-build must fire during the CSC build");
    fail::teardown();
    // Retry on the SAME model rebuilds the store from scratch and
    // matches a fresh model bit for bit.
    let (retried, _) = plan.execute_with(&k, DiamondMode::Csc);
    let fresh_model = chaos_model();
    let fresh_plan = Plan::compile(&fresh_model, &f).expect("compiles");
    let (fresh, _) = fresh_plan.execute_with(&fresh_model, DiamondMode::Csc);
    assert_eq!(retried, fresh, "torn CSC cache after injected panic");
}

#[test]
fn interrupted_refinement_retries_bit_identically() {
    let _g = serial();
    let k = chaos_model();
    let baseline = bisim::refine(&k, BisimStyle::Plain);
    // Cancel fired from inside round 1 — at its boundary, and under
    // `Force` also from inside its pool-encoded chunks: the run errors
    // at the next round boundary, and a retry under the same policy
    // reproduces the full level history.
    for (par, site) in [
        (Parallelism::Auto, "refine-round"),
        (Parallelism::Force, "refine-round"),
        (Parallelism::Force, "pool-chunk"),
    ] {
        let token = CancelToken::new();
        let t = token.clone();
        fail::cfg_callback(site, move || t.cancel());
        let err =
            bisim::refine_controlled(&k, BisimStyle::Plain, par, &ExecControl::with_cancel(token))
                .expect_err("path(96) refines over many rounds; the cancel must land");
        assert_eq!(err.reason, InterruptReason::Cancelled, "{par:?} at {site}");
        fail::teardown();
        let retry =
            bisim::refine_controlled(&k, BisimStyle::Plain, par, &ExecControl::unrestricted())
                .expect("unrestricted retry");
        assert_eq!(retry.depth(), baseline.depth(), "{par:?} at {site}");
        for d in 0..=baseline.depth() {
            assert_eq!(
                retry.level(d),
                baseline.level(d),
                "{par:?} at {site}: level {d} diverged"
            );
        }
    }
}

#[test]
fn randomized_chaos_smoke_with_fixed_seed() {
    let _g = serial();
    let seed = std::env::var("PORTNUM_CHAOS_SEED")
        .ok()
        .map(|v| v.parse::<u64>().expect("PORTNUM_CHAOS_SEED must be an integer"))
        .unwrap_or(0xC0FFEE);
    let mut rng = StdRng::seed_from_u64(seed);
    let baselines: Vec<Vec<u64>> = MATRIX
        .iter()
        .map(|&(_, q)| q(&ExecControl::unrestricted()).expect("clean run"))
        .collect();
    for round in 0..48 {
        let pick = rng.random_range(0..MATRIX.len());
        let (site, query) = MATRIX[pick];
        let action = rng.random_range(0..3u32);
        let token = CancelToken::new();
        let ctl = match action {
            0 => {
                fail::cfg(site, "1*panic(chaos injection)").unwrap();
                ExecControl::unrestricted()
            }
            1 => {
                fail::cfg(site, "1*sleep(5)").unwrap();
                ExecControl::unrestricted()
            }
            _ => {
                let t = token.clone();
                fail::cfg_callback(site, move || t.cancel());
                ExecControl::with_cancel(token)
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| query(&ctl)));
        fail::teardown();
        match (action, outcome) {
            // Injected panics must surface as panics (payload checked
            // in the dense matrix test) — never as wrong bits.
            (0, Err(_)) => {}
            (0, Ok(r)) => panic!("round {round}: panic at {site} vanished ({:?})", r.is_ok()),
            // Delays must not change behaviour at all.
            (1, Ok(Ok(bits))) => assert_eq!(bits, baselines[pick], "round {round}: {site}"),
            (1, other) => panic!("round {round}: delay at {site} broke the query: {other:?}"),
            // Cancels must surface as Interrupted.
            (_, Ok(Err(LogicError::Interrupted(_)))) => {}
            (_, other) => panic!("round {round}: cancel at {site} => {:?}", other.is_ok()),
        }
        // Invariants after every single injection: pool serves, retry
        // is bit-identical.
        assert_pool_not_wedged();
        let retry = query(&ExecControl::unrestricted()).expect("retry");
        assert_eq!(retry, baselines[pick], "round {round}: retry diverged after {site}");
    }
}

#[test]
fn deadline_and_budget_interrupt_long_queries() {
    let _g = serial();
    let k = chaos_model();
    // An already-expired deadline trips before any work.
    let ctl = ExecControl {
        deadline: Some(portnum_graph::resilience::Deadline::after(
            std::time::Duration::ZERO,
        )),
        ..ExecControl::unrestricted()
    };
    match run_plan_seq(&ctl) {
        Err(LogicError::Interrupted(i)) => {
            assert_eq!(i.reason, InterruptReason::DeadlineExceeded)
        }
        other => panic!("expired deadline must interrupt, got {:?}", other.is_ok()),
    }
    // A one-unit work budget trips at the first instruction boundary.
    let ctl = ExecControl::with_budget(portnum_graph::resilience::ExecBudget {
        max_touched_words: Some(1),
        ..Default::default()
    });
    match run_checker(&ctl) {
        Err(LogicError::Interrupted(i)) => {
            assert_eq!(i.reason, InterruptReason::BudgetExceeded)
        }
        other => panic!("tiny work budget must interrupt, got {:?}", other.is_ok()),
    }
    // Budgets degrade gracefully where the contract says so: a zero
    // slot-words ceiling forces sequential execution but still answers.
    let tight_slots = ExecControl::with_budget(portnum_graph::resilience::ExecBudget {
        max_slot_words: Some(0),
        ..Default::default()
    });
    let big = pool_model();
    let plan = Plan::compile(&big, &query_formula(4)).expect("compiles");
    let unrestricted = ExecControl::unrestricted();
    let (_, forced) = plan
        .execute_controlled(&big, DiamondMode::Auto, Parallelism::Force, &unrestricted)
        .expect("unrestricted");
    assert!(forced.chunked_ops > 0, "an undegraded forced run chunks: {forced:?}");
    let (seq, stats) = plan
        .execute_controlled(&big, DiamondMode::Auto, Parallelism::Force, &tight_slots)
        .expect("slot budget degrades, never fails");
    assert_eq!(stats.chunked_ops, 0, "degraded run must be sequential");
    assert_eq!(seq, plan.execute(&big), "degraded run must match the default bits");
    // A zero cache-words ceiling answers but publishes nothing.
    let mut checker = ModelChecker::new(&k);
    let no_cache = ExecControl::with_budget(portnum_graph::resilience::ExecBudget {
        max_cache_words: Some(0),
        ..Default::default()
    });
    let truth = checker
        .check_controlled(&query_formula(4), &no_cache)
        .expect("cache budget never fails the query");
    assert_eq!(truth.words().to_vec(), ModelChecker::new(&k).check(&query_formula(4)).unwrap().words().to_vec());
    assert_eq!(checker.stats().computed, 0, "over-budget cache must not publish");
}
