//! Model checking scaling: formula depth sweep, shared-subformula
//! memoisation, compiled-plan suites, diamond strategies, and the
//! warm-hit cost of a served check batch.
//!
//! Three engines are compared: the plan engine behind
//! [`evaluate_packed`] (hash-consed IR, slot recycling, forward/reverse
//! diamonds), the recursive pointer-memoised bitset engine
//! ([`evaluate_packed_recursive`], the differential-testing reference),
//! and `evaluate_legacy` below — the pre-bitset evaluator (memoised
//! `Rc<Vec<bool>>`, one byte per world) kept verbatim so the historical
//! delta stays measurable after the legacy path is gone from the
//! library.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use portnum_bench::workloads;
use portnum_graph::partition::Parallelism;
use portnum_graph::resilience::ExecControl;
use portnum_logic::plan::DiamondMode;
use portnum_logic::{
    evaluate_packed, evaluate_packed_recursive, parse, CheckerCache, Formula, FormulaKind, Kripke,
    ModelChecker, Plan,
};
use portnum_serve::ModelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

/// The pre-bitset evaluator, kept verbatim as the bench baseline.
fn evaluate_legacy(model: &Kripke, formula: &Formula) -> Vec<bool> {
    fn rec(
        model: &Kripke,
        formula: &Formula,
        memo: &mut HashMap<*const FormulaKind, Rc<Vec<bool>>>,
    ) -> Rc<Vec<bool>> {
        let key = formula.kind() as *const FormulaKind;
        if let Some(cached) = memo.get(&key) {
            return Rc::clone(cached);
        }
        let n = model.len();
        let result: Vec<bool> = match formula.kind() {
            FormulaKind::Top => vec![true; n],
            FormulaKind::Bottom => vec![false; n],
            FormulaKind::Prop(d) => (0..n).map(|v| model.degree(v) == *d).collect(),
            FormulaKind::Not(a) => rec(model, a, memo).iter().map(|&b| !b).collect(),
            FormulaKind::And(a, b) => {
                let left = rec(model, a, memo);
                let right = rec(model, b, memo);
                left.iter().zip(right.iter()).map(|(&x, &y)| x && y).collect()
            }
            FormulaKind::Or(a, b) => {
                let left = rec(model, a, memo);
                let right = rec(model, b, memo);
                left.iter().zip(right.iter()).map(|(&x, &y)| x || y).collect()
            }
            FormulaKind::Diamond { index, grade, inner } => {
                let sat = rec(model, inner, memo);
                match model.relation_id(*index) {
                    None => vec![*grade == 0; n],
                    Some(r) => (0..n)
                        .map(|v| {
                            let count = model
                                .successors_dense(r, v)
                                .iter()
                                .filter(|&&w| sat[w as usize])
                                .count();
                            count >= *grade
                        })
                        .collect(),
                }
            }
            FormulaKind::Var(_) | FormulaKind::Mu { .. } | FormulaKind::Nu { .. } => {
                unreachable!("the legacy baseline predates fixpoints; its workloads have none")
            }
        };
        let result = Rc::new(result);
        memo.insert(key, Rc::clone(&result));
        result
    }
    let mut memo = HashMap::new();
    let result = rec(model, formula, &mut memo);
    drop(memo);
    Rc::try_unwrap(result).unwrap_or_else(|rc| (*rc).clone())
}

fn bench_depth_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_checking/depth");
    for w in workloads::gnp_sweep(&[128], 0.05, 5) {
        let k = Kripke::k_mm(&w.graph);
        for depth in [2usize, 8, 32] {
            let f = workloads::nested_diamonds(depth);
            group.bench_with_input(BenchmarkId::new("packed", depth), &f, |b, f| {
                b.iter(|| evaluate_packed(&k, f).unwrap())
            });
            group.bench_with_input(BenchmarkId::new("legacy", depth), &f, |b, f| {
                b.iter(|| evaluate_legacy(&k, f))
            });
        }
    }
    group.finish();
}

fn bench_shared_subformulas(c: &mut Criterion) {
    // Exponential tree, linear DAG: the connective layers dominate, so
    // this is the word-parallel best case.
    let f = workloads::shared_dag(64);
    let w = &workloads::cycle_sweep(&[64])[0];
    let k = Kripke::k_mm(&w.graph);
    let mut group = c.benchmark_group("model_checking/shared_dag_64_levels");
    group.bench_function("packed", |b| b.iter(|| evaluate_packed(&k, &f).unwrap()));
    group.bench_function("legacy", |b| b.iter(|| evaluate_legacy(&k, &f)));
    group.finish();
}

fn bench_formula_suite(c: &mut Criterion) {
    // Sixteen diamond towers of increasing depth, built independently:
    // tower `d` structurally contains tower `d − 1`, but nothing shares
    // `Arc`s — the compiler-suite shape where pointer memoisation is
    // blind and structural hash-consing collapses the whole suite to
    // O(deepest tower) instructions.
    let suite: Vec<Formula> = (1..=16).map(workloads::nested_diamonds).collect();
    for w in workloads::gnp_sweep(&[128], 0.05, 5) {
        let k = Kripke::k_mm(&w.graph);
        let mut group = c.benchmark_group("model_checking/formula_suite16");
        group.bench_function("plan_compile_and_execute", |b| {
            b.iter(|| Plan::compile_suite(&k, suite.iter()).unwrap().execute(&k))
        });
        let plan = Plan::compile_suite(&k, suite.iter()).unwrap();
        group.bench_function("plan_execute_precompiled", |b| b.iter(|| plan.execute(&k)));
        group.bench_function("recursive", |b| {
            b.iter(|| {
                suite
                    .iter()
                    .map(|f| evaluate_packed_recursive(&k, f).unwrap().count_ones())
                    .sum::<usize>()
            })
        });
        group.finish();
    }
}

fn bench_parallel_execution(c: &mut Criterion) {
    // Sequential vs pool-forced plan execution: on multi-core hosts
    // the forced rows shrink with the core count; on single-core CI
    // they bound the pool's coordination overhead instead.
    let f = workloads::nested_diamonds(32);
    for w in workloads::gnp_sweep(&[512], 0.05, 5) {
        let k = Kripke::k_mm(&w.graph);
        let plan = Plan::compile(&k, &f).unwrap();
        let mut group = c.benchmark_group("model_checking/parallel_execution");
        group.bench_function("sequential", |b| {
            b.iter(|| plan.execute_with(&k, DiamondMode::Auto))
        });
        group.bench_function("pool_forced", |b| {
            let ctl = ExecControl::unrestricted();
            b.iter(|| plan.execute_controlled(&k, DiamondMode::Auto, Parallelism::Force, &ctl))
        });
        group.finish();
    }
}

fn bench_diamond_strategies(c: &mut Criterion) {
    // Deep alternating-grade towers: the grade-1 levels run the CSC
    // union gather, the grade-2 levels the CSC counting gather —
    // `auto` picks per instruction between forward and the CSC gather.
    let f = workloads::nested_diamonds(16);
    for w in workloads::gnp_sweep(&[512], 0.05, 5) {
        let k = Kripke::k_mm(&w.graph);
        let plan = Plan::compile(&k, &f).unwrap();
        let mut group = c.benchmark_group("model_checking/diamond_strategy");
        for (name, mode) in [
            ("auto", DiamondMode::Auto),
            ("forward", DiamondMode::Forward),
            ("csc", DiamondMode::Csc),
        ] {
            group.bench_with_input(BenchmarkId::new(name, w.graph.len()), &mode, |b, &mode| {
                b.iter(|| plan.execute_with(&k, mode))
            });
        }
        group.finish();
    }

    // A huge sparse path with a two-world inner set: the CSC gather
    // touches two predecessor rows where the forward sweep walks all
    // n worlds.
    let w = workloads::sparse_huge();
    let k = Kripke::k_mm(&w.graph);
    let f = workloads::endpoint_diamond();
    let plan = Plan::compile(&k, &f).unwrap();
    let mut group = c.benchmark_group("model_checking/diamond_strategy_sparse_huge");
    for (name, mode) in
        [("auto", DiamondMode::Auto), ("forward", DiamondMode::Forward), ("csc", DiamondMode::Csc)]
    {
        group.bench_with_input(BenchmarkId::new(name, w.graph.len()), &mode, |b, &mode| {
            b.iter(|| plan.execute_with(&k, mode))
        });
    }
    group.finish();
}

fn bench_fixpoint_reachability(c: &mut Criterion) {
    // Reachability `µX. q1 ∨ ⟨*,*⟩X` on goal-studded paths (a goal
    // world every 50 positions, ≈ 27 Kleene iterations): the compiled
    // plan iterates over the dirty frontier after one dense pass, the
    // recursive reference re-evaluates the whole model per iteration.
    // The million-world acceptance gate lives in `reproduce`; these
    // sizes track the same gap continuously.
    let f = workloads::reachability_formula();
    for n in [1usize << 14, 1 << 17] {
        let k = workloads::huge_reachability(n, 50);
        let plan = Plan::compile(&k, &f).unwrap();
        let mut group = c.benchmark_group("model_checking/fixpoint_reachability");
        group.bench_with_input(BenchmarkId::new("plan", n), &n, |b, _| {
            b.iter(|| plan.execute_with(&k, DiamondMode::Auto))
        });
        group.bench_with_input(BenchmarkId::new("kleene", n), &n, |b, _| {
            b.iter(|| evaluate_packed_recursive(&k, &f).unwrap())
        });
        group.finish();
    }
}

fn bench_checker_warm_hit(c: &mut Criterion) {
    // `serve_hot`'s batch shape on a warm cache, every answer cached:
    // 16 `hot_formula`s on gnp512, through a shard's sequence of resume
    // → resolve → estimate → both check halves → detach. `text`
    // resolves the wire texts through the cache's text memo, as a
    // served check does. `formula` parses every text, then prices and
    // checks the ASTs, as a served check did before the memo and as
    // perfbench's replay still does.
    let k = ModelSpec::gnp(512, 0.05, 5).build().expect("gnp512 builds");
    let mut rng = StdRng::seed_from_u64(16);
    let texts: Vec<String> =
        (0..16).map(|_| workloads::hot_formula(&mut rng).to_string()).collect();
    let ctl = ExecControl::unrestricted();
    let by_text = |cache: CheckerCache| {
        let mut checker = ModelChecker::resume(&k, cache, &[]);
        let batch = checker.resolve_texts(texts.iter().map(String::as_str)).unwrap();
        let (first, second) = batch.roots.split_at(texts.len() / 2);
        let mut truths = checker.check_roots_controlled(first, &ctl).unwrap();
        truths.extend(checker.check_roots_controlled(second, &ctl).unwrap());
        assert_eq!(batch.estimate, 0, "every answer is cached");
        (checker.detach(), truths.len())
    };
    let by_formula = |cache: CheckerCache| {
        let formulas: Vec<Formula> = texts.iter().map(|t| parse(t).unwrap()).collect();
        let mut checker = ModelChecker::resume(&k, cache, &[]);
        let estimate = checker.estimate_work(&formulas).unwrap();
        let (first, second) = formulas.split_at(formulas.len() / 2);
        let mut truths = checker.check_suite_controlled(first, &ctl).unwrap();
        truths.extend(checker.check_suite_controlled(second, &ctl).unwrap());
        assert_eq!(estimate, 0, "every answer is cached");
        (checker.detach(), truths.len())
    };
    // Warm the cache, its text memo included, outside the timed loop.
    let mut warm = ModelChecker::new(&k);
    let batch = warm.resolve_texts(texts.iter().map(String::as_str)).unwrap();
    warm.check_roots_controlled(&batch.roots, &ctl).unwrap();
    let mut slot = Some(warm.detach());
    let mut group = c.benchmark_group("checker_warm_hit");
    group.bench_function(BenchmarkId::new("text", texts.len()), |b| {
        b.iter(|| {
            let (cache, answered) = by_text(slot.take().unwrap());
            slot = Some(cache);
            answered
        })
    });
    group.bench_function(BenchmarkId::new("formula", texts.len()), |b| {
        b.iter(|| {
            let (cache, answered) = by_formula(slot.take().unwrap());
            slot = Some(cache);
            answered
        })
    });
    group.finish();
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = bench_depth_sweep, bench_shared_subformulas, bench_formula_suite,
        bench_diamond_strategies, bench_parallel_execution, bench_fixpoint_reachability,
        bench_checker_warm_hit
}
criterion_main!(benches);
