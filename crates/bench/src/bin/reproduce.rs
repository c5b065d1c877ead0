//! Regenerates every figure and table of the paper from the implemented
//! system and prints a report. `EXPERIMENTS.md` records the expected
//! output shape; run with `cargo run -p portnum-bench --bin reproduce`.

use portnum::algorithms::mb::{EdgePackingVertexCover, OddOddMb};
use portnum::algorithms::sb::LocalMaxDegreeSb;
use portnum::algorithms::vv::ViewGather;
use portnum::problems::{LocalMaxDegree, NonIsolation, Problem, VertexCoverApprox};
use portnum::sim::{MultisetFromVector, SetFromMultiset};
use portnum::{separations, verify, ProblemClass};
use portnum_bench::report::{section, Table};
use portnum_bench::workloads;
use portnum_graph::partition::Parallelism;
use portnum_graph::{cover, generators, matching, properties, Graph, Port, PortNumbering};
use portnum_logic::bisim::{self, BisimStyle};
use portnum_logic::compile::{
    compile_broadcast, compile_mb, compile_multiset, compile_sb, compile_set, compile_vector,
    mb_algorithm_to_formulas, ToFormulaOptions,
};
use portnum_logic::{
    evaluate, evaluate_packed, evaluate_packed_recursive, parse, Formula, Kripke, ModalIndex, Plan,
};
use portnum_machine::adapters::{
    BroadcastAsVector, MbAsVector, MultisetAsVector, ObliviousAsSb, SbAsVector, SetAsVector,
};
use portnum_machine::{Multiset, MultisetAlgorithm, Payload, Simulator, Status};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("portnum reproduce — Hella et al., PODC 2012");
    fig1_2();
    fig3_4();
    fig5();
    fig6();
    fig7();
    fig8();
    fig9();
    table3();
    table4_5();
    thm4();
    thm8_9();
    separations_report();
    remark2();
    vertex_cover();
    covers();
    section31();
    bench_snapshot();
    let mut failed_gates = Vec::new();
    bench_eval_snapshot(&mut failed_gates);
    serve_qps_snapshot(&mut failed_gates);
    if !failed_gates.is_empty() {
        eprintln!("\nAll sections ran; {} perf gate(s) failed:", failed_gates.len());
        for message in &failed_gates {
            eprintln!("  - {message}");
        }
        std::process::exit(1);
    }
    println!("\nAll sections completed.");
}

/// Records a failed perf gate instead of panicking, so a host-dependent
/// timing gate cannot stop the sections after it; `main` lists every
/// failed gate and exits non-zero. Correctness checks stay `assert!`s.
fn gate(failed: &mut Vec<String>, holds: bool, message: impl FnOnce() -> String) {
    if !holds {
        let message = message();
        println!("PERF GATE FAILED: {message}");
        failed.push(message);
    }
}

/// Median wall-clock microseconds of 7 runs of `routine` (the caller
/// warms up by computing its reference result first); `verify` checks
/// each run's output *outside* the timed region so the assert cost
/// never skews the sample. Shared by every `BENCH_*.json` snapshot so
/// their medians stay methodologically comparable.
fn median_us<T>(mut routine: impl FnMut() -> T, mut verify: impl FnMut(T)) -> f64 {
    use std::time::Instant;
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            let out = routine();
            let us = start.elapsed().as_secs_f64() * 1e6;
            verify(out);
            us
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Executes `plan` under [`portnum_logic::DiamondMode::Auto`] with
/// thread counts pinned by `par` — the sequential/pool pairs the eval
/// snapshot times against each other.
fn execute_pinned(plan: &Plan, k: &Kripke, par: Parallelism) -> Vec<portnum_graph::bitset::Bitset> {
    let ctl = portnum_graph::resilience::ExecControl::unrestricted();
    plan.execute_controlled(k, portnum_logic::DiamondMode::Auto, par, &ctl)
        .expect("unrestricted execution cannot be interrupted")
        .0
}

/// Times the partition-refinement hot path on the standard sweeps and
/// writes `BENCH_bisim.json` (one JSON object per line) next to the
/// working directory, so successive PRs accumulate a perf trajectory.
///
/// Each case is one `refine_worklist` row: the worklist engine every
/// refinement entry point runs, with its touched-world counter
/// (`touched`, signatures encoded). Re-signing every world every round
/// would touch `nodes × rounds`; the long-diameter workloads
/// (`path1024`, `deep_tree1024`) are where the two counts diverge.
fn bench_snapshot() {
    use std::fmt::Write as _;
    section("Perf snapshot: bisimulation refinement (written to BENCH_bisim.json)");

    let mut sweep = workloads::gnp_sweep(&[32, 128, 512], 0.08, 23);
    sweep.extend(workloads::regular_sweep(3, &[128, 512], 41));
    sweep.extend(workloads::path_sweep(&[1024]));
    sweep.push(workloads::deep_tree(1024));

    let mut json = String::new();
    let mut t = Table::new([
        "workload",
        "model",
        "style",
        "median µs",
        "touched",
        "classes",
    ]);
    for w in &sweep {
        let k_mm = Kripke::k_mm(&w.graph);
        let k_pp = Kripke::k_pp(&w.graph, &w.ports);
        let cases: [(&str, &Kripke, BisimStyle); 3] = [
            ("kmm", &k_mm, BisimStyle::Plain),
            ("kmm", &k_mm, BisimStyle::Graded),
            ("kpp", &k_pp, BisimStyle::Plain),
        ];
        for (model_name, k, style) in cases {
            // Warm up once (and fix the expected partition), then take
            // the median of a handful of runs.
            let classes = bisim::refine(k, style);
            let blocks = classes.class_count(classes.depth());
            let style_name = match style {
                BisimStyle::Plain => "plain",
                BisimStyle::Graded => "graded",
            };
            let (_, stats) = bisim::refine_fixpoint_stats(k, style);
            let median = median_us(
                || bisim::refine(k, style),
                |c| assert_eq!(c.final_level(), classes.final_level()),
            );
            t.row([
                w.name.clone(),
                model_name.to_string(),
                style_name.to_string(),
                format!("{median:.1}"),
                stats.encoded.to_string(),
                blocks.to_string(),
            ]);
            let _ = writeln!(
                json,
                "{{\"bench\":\"refine_worklist\",\"workload\":\"{}\",\"model\":\"{}\",\"style\":\"{}\",\
                 \"nodes\":{},\"median_us\":{:.1},\"touched\":{},\"classes\":{}}}",
                w.name,
                model_name,
                style_name,
                w.graph.len(),
                median,
                stats.encoded,
                blocks
            );
        }
    }
    print!("{}", t.render());
    match std::fs::write("BENCH_bisim.json", &json) {
        Ok(()) => println!("wrote BENCH_bisim.json ({} entries)", json.lines().count()),
        Err(e) => println!("could not write BENCH_bisim.json: {e}"),
    }
}

/// Times the packed model checker on the standard eval workloads and
/// writes `BENCH_eval.json` next to `BENCH_bisim.json`, so the perf
/// trajectory covers model checking as well as refinement. Failed perf
/// gates are pushed onto `failed`.
fn bench_eval_snapshot(failed: &mut Vec<String>) {
    use std::fmt::Write as _;
    section("Perf snapshot: packed model checking (written to BENCH_eval.json)");

    let shared = workloads::shared_dag(64);
    let mut cases: Vec<(String, Kripke, &str, Formula)> = Vec::new();
    for w in workloads::gnp_sweep(&[128, 512], 0.05, 5) {
        cases.push((
            w.name.clone(),
            Kripke::k_mm(&w.graph),
            "nested32",
            workloads::nested_diamonds(32),
        ));
    }
    for w in workloads::cycle_sweep(&[64, 256]) {
        cases.push((w.name.clone(), Kripke::k_mm(&w.graph), "shared_dag64", shared.clone()));
    }

    let mut json = String::new();
    let mut t = Table::new(["workload", "case", "median µs", "worlds true"]);
    for (name, k, case, f) in &cases {
        let reference = evaluate_packed(k, f).expect("well-formed case");
        let median = median_us(
            || evaluate_packed(k, f).expect("well-formed case"),
            |truth| assert_eq!(truth, reference),
        );
        let ones = reference.count_ones();
        t.row([name.clone(), case.to_string(), format!("{median:.1}"), ones.to_string()]);
        let _ = writeln!(
            json,
            "{{\"bench\":\"eval\",\"workload\":\"{}\",\"case\":\"{}\",\"worlds\":{},\
             \"median_us\":{:.1},\"ones\":{}}}",
            name,
            case,
            k.len(),
            median,
            ones
        );
    }

    // Shared-structure formula suite: sixteen independently built
    // diamond towers (structurally nested, no shared `Arc`s), checked
    // as one compiled plan vs. one recursive evaluation per formula.
    let suite: Vec<Formula> = (1..=16).map(workloads::nested_diamonds).collect();
    for w in workloads::gnp_sweep(&[128, 512], 0.05, 5) {
        let k = Kripke::k_mm(&w.graph);
        let reference: Vec<usize> = suite
            .iter()
            .map(|f| evaluate_packed(&k, f).expect("suite case").count_ones())
            .collect();
        let total_ones: usize = reference.iter().sum();
        let suite_cases = [
            (
                "formula_suite_plan",
                median_us(
                    || Plan::compile_suite(&k, suite.iter()).expect("suite compiles").execute(&k),
                    |truths| {
                        let ones: Vec<usize> =
                            truths.iter().map(portnum_graph::bitset::Bitset::count_ones).collect();
                        assert_eq!(ones, reference);
                    },
                ),
            ),
            (
                "formula_suite_recursive",
                median_us(
                    || {
                        suite
                            .iter()
                            .map(|f| {
                                evaluate_packed_recursive(&k, f).expect("suite case").count_ones()
                            })
                            .collect::<Vec<usize>>()
                    },
                    |ones| assert_eq!(ones, reference),
                ),
            ),
        ];
        for (case, median) in suite_cases {
            t.row([
                w.name.clone(),
                case.to_string(),
                format!("{median:.1}"),
                total_ones.to_string(),
            ]);
            let _ = writeln!(
                json,
                "{{\"bench\":\"eval\",\"workload\":\"{}\",\"case\":\"{}\",\"worlds\":{},\
                 \"median_us\":{:.1},\"ones\":{}}}",
                w.name,
                case,
                k.len(),
                median,
                total_ones
            );
        }
    }
    // Parallel vs sequential plan execution on one precompiled plan:
    // `plan_exec_seq` is the gate-driven default (sequential below the
    // work threshold), `plan_exec_pool` forces both chunking axes
    // through the persistent worker pool. On single-core hosts the
    // pool row bounds the coordination overhead; with >1 core it
    // should undercut the sequential row.
    use portnum_logic::plan::DiamondMode;
    let deep = workloads::nested_diamonds(32);
    for w in workloads::gnp_sweep(&[128, 512], 0.05, 5) {
        let k = Kripke::k_mm(&w.graph);
        let plan = Plan::compile(&k, &deep).expect("well-formed case");
        let (reference, _) = plan.execute_with(&k, DiamondMode::Auto);
        let ones: usize = reference.iter().map(|b| b.count_ones()).sum();
        let exec_cases = [
            (
                "plan_exec_seq",
                median_us(
                    || plan.execute_with(&k, DiamondMode::Auto).0,
                    |truths| assert_eq!(truths, reference),
                ),
            ),
            (
                "plan_exec_pool",
                median_us(
                    || execute_pinned(&plan, &k, Parallelism::Force),
                    |truths| assert_eq!(truths, reference),
                ),
            ),
        ];
        for (case, median) in exec_cases {
            t.row([w.name.clone(), case.to_string(), format!("{median:.1}"), ones.to_string()]);
            let _ = writeln!(
                json,
                "{{\"bench\":\"eval\",\"workload\":\"{}\",\"case\":\"{}\",\"worlds\":{},\
                 \"median_us\":{:.1},\"ones\":{}}}",
                w.name,
                case,
                k.len(),
                median,
                ones
            );
        }
    }
    // A huge sparse model with a two-world inner set: the reverse
    // diamond path runs on the O(n + edges) CSC store. The Auto row
    // asserts (via ExecStats) that the CSC gather actually fired.
    let huge = workloads::sparse_huge();
    let k = Kripke::k_mm(&huge.graph);
    let f = workloads::endpoint_diamond();
    let plan = Plan::compile(&k, &f).expect("well-formed case");
    let (reference, stats) = plan.execute_with(&k, portnum_logic::plan::DiamondMode::Auto);
    assert_eq!(stats.csc_diamonds, 1, "huge sparse diamond must go CSC: {stats:?}");
    let ones: usize = reference.iter().map(|b| b.count_ones()).sum();
    let huge_cases = [
        (
            "sparse_huge_auto_csc",
            median_us(
                || plan.execute_with(&k, portnum_logic::plan::DiamondMode::Auto).0,
                |truths| assert_eq!(truths, reference),
            ),
        ),
        (
            "sparse_huge_forward",
            median_us(
                || plan.execute_with(&k, portnum_logic::plan::DiamondMode::Forward).0,
                |truths| assert_eq!(truths, reference),
            ),
        ),
    ];
    for (case, median) in huge_cases {
        t.row([huge.name.clone(), case.to_string(), format!("{median:.1}"), ones.to_string()]);
        let _ = writeln!(
            json,
            "{{\"bench\":\"eval\",\"workload\":\"{}\",\"case\":\"{}\",\"worlds\":{},\
             \"median_us\":{:.1},\"ones\":{}}}",
            huge.name,
            case,
            k.len(),
            median,
            ones
        );
    }
    // The million-world frontier: a streamed sparse G(n, p) model on
    // 2²⁰ worlds (average degree 6), built through `KripkeBuilder`'s
    // two-pass CSR streaming — no Graph, no intermediate edge Vec.
    // `eval_1m_seq` is the forced-sequential reference, `eval_1m_pool`
    // the forced-parallel run over the blocked/sharded chunk paths; at
    // this size the pool is *required* to win, and the snapshot
    // asserts it. `refine_1m_worklist` times worklist bisimulation
    // refinement on the same model (gnp stabilises in O(log n) rounds,
    // so the run is dominated by the round-1 fresh encode).
    {
        let n = 1usize << 20;
        let k = workloads::huge_gnp(n, 6.0 / n as f64, 2012);
        let deep = workloads::nested_diamonds(8);
        let plan = Plan::compile(&k, &deep).expect("well-formed case");
        let reference = execute_pinned(&plan, &k, Parallelism::Off);
        let ones: usize = reference.iter().map(|b| b.count_ones()).sum();
        let seq_median = median_us(
            || execute_pinned(&plan, &k, Parallelism::Off),
            |truths| assert_eq!(truths, reference),
        );
        let pool_median = median_us(
            || execute_pinned(&plan, &k, Parallelism::Force),
            |truths| assert_eq!(truths, reference),
        );
        let classes = bisim::refine(&k, BisimStyle::Plain);
        let refine_median = median_us(
            || bisim::refine(&k, BisimStyle::Plain),
            |c| assert_eq!(c.final_level(), classes.final_level()),
        );
        let million_cases = [
            ("eval_1m_seq", seq_median, ones),
            ("eval_1m_pool", pool_median, ones),
            ("refine_1m_worklist", refine_median, classes.class_count(classes.depth())),
        ];
        for (case, median, count) in million_cases {
            t.row(["gnp1m".to_string(), case.to_string(), format!("{median:.1}"), count.to_string()]);
            let _ = writeln!(
                json,
                "{{\"bench\":\"eval\",\"workload\":\"gnp1m\",\"case\":\"{}\",\"worlds\":{},\
                 \"median_us\":{:.1},\"ones\":{}}}",
                case,
                n,
                median,
                count
            );
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if cores > 1 {
            gate(failed, pool_median < seq_median, || {
                format!(
                    "at 2^20 worlds the pool must beat sequential: \
                     pool {pool_median:.1}µs vs seq {seq_median:.1}µs on {cores} cores"
                )
            });
        } else {
            // One core: the pool cannot win, but the chunked paths must
            // stay within coordination overhead of the sequential sweep
            // (no hash-map cliffs, no re-done work).
            gate(failed, pool_median < seq_median * 1.5, || {
                format!(
                    "single-core pool overhead out of bounds: \
                     pool {pool_median:.1}µs vs seq {seq_median:.1}µs"
                )
            });
        }
    }
    // The million-world fixpoint: reachability `µX. q1 ∨ ⟨*,*⟩X` on a
    // 2²⁰-world path with a goal world every 100 positions (≈ 52 Kleene
    // iterations; the spacing sets the frontier-vs-dense gap — each
    // iteration flips ~2 worlds per goal segment, so wider segments
    // mean more iterations at the same total flip count while every
    // dense re-sweep still pays the full 2²⁰ worlds). `reachability_1m`
    // is the compiled plan's frontier iteration and
    // `reachability_1m_kleene` the whole-model re-evaluation reference. Both engines run the same
    // Kleene iteration sequence, so the total-time ratio *is* the
    // per-iteration ratio; the acceptance gate requires the frontier
    // engine to beat whole-model re-evaluation ≥ 3× (compared on
    // minima, reported as medians, like the live-update rows).
    {
        let n = 1usize << 20;
        let k = workloads::huge_reachability(n, 100);
        let f = workloads::reachability_formula();
        let plan = Plan::compile(&k, &f).expect("reachability compiles");
        let (reference, fstats) = plan.execute_with(&k, DiamondMode::Auto);
        let iters = fstats.fixpoint_iters;
        let ones: usize = reference.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, n, "every path world reaches a goal");
        let sample = |run: &mut dyn FnMut()| -> (f64, f64) {
            let mut us: Vec<f64> = (0..7)
                .map(|_| {
                    let start = std::time::Instant::now();
                    run();
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            us.sort_by(f64::total_cmp);
            (us[us.len() / 2], us[0])
        };
        let (plan_median, plan_min) = sample(&mut || {
            let (truths, _) = plan.execute_with(&k, DiamondMode::Auto);
            assert_eq!(truths, reference);
        });
        let (kleene_median, kleene_min) = sample(&mut || {
            let truth = evaluate_packed_recursive(&k, &f).expect("reachability evaluates");
            assert_eq!(&truth, &reference[0]);
        });
        for (case, median) in
            [("reachability_1m", plan_median), ("reachability_1m_kleene", kleene_median)]
        {
            t.row(["path1m".to_string(), case.to_string(), format!("{median:.1}"), iters.to_string()]);
            let _ = writeln!(
                json,
                "{{\"bench\":\"eval\",\"workload\":\"path1m\",\"case\":\"{}\",\"worlds\":{},\
                 \"median_us\":{:.1},\"ones\":{},\"iters\":{}}}",
                case,
                n,
                median,
                ones,
                iters
            );
        }
        gate(failed, plan_min * 3.0 <= kleene_min, || {
            format!(
                "frontier fixpoint iteration must beat whole-model re-evaluation ≥ 3× \
                 on the million-world path: plan {plan_min:.1}µs vs kleene {kleene_min:.1}µs \
                 over {iters} iterations (medians {plan_median:.1}µs / {kleene_median:.1}µs)"
            )
        });
    }
    // Cancellation latency: wall time from `CancelToken::cancel()` to
    // the `Interrupted` return of a controlled execution, while the
    // long gnp512 formula suite runs in a loop on another thread (so
    // the cancel always lands mid-run). The contract bounds this by
    // one granule — a single instruction's evaluation.
    {
        use portnum_graph::resilience::{CancelToken, ExecControl};
        let w = workloads::gnp_sweep(&[512], 0.05, 5).pop().expect("gnp512 workload");
        let k = Kripke::k_mm(&w.graph);
        let suite: Vec<Formula> = (1..=16).map(workloads::nested_diamonds).collect();
        let plan = Plan::compile_suite(&k, suite.iter()).expect("suite compiles");
        let mut samples: Vec<f64> = Vec::new();
        for _ in 0..7 {
            let token = CancelToken::new();
            let ctl = ExecControl::with_cancel(token.clone());
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|s| {
                s.spawn(|| loop {
                    match plan.execute_controlled(&k, DiamondMode::Auto, Parallelism::Auto, &ctl) {
                        Ok(_) => continue,
                        Err(_) => {
                            let _ = tx.send(std::time::Instant::now());
                            break;
                        }
                    }
                });
                std::thread::sleep(std::time::Duration::from_millis(2));
                let t0 = std::time::Instant::now();
                token.cancel();
                let returned = rx.recv().expect("controlled run reports interruption");
                samples.push(returned.duration_since(t0).as_secs_f64() * 1e6);
            });
        }
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        t.row([w.name.clone(), "cancel_latency".to_string(), format!("{median:.1}"), "0".to_string()]);
        let _ = writeln!(
            json,
            "{{\"bench\":\"eval\",\"workload\":\"{}\",\"case\":\"cancel_latency\",\"worlds\":{},\
             \"median_us\":{:.1},\"ones\":0}}",
            w.name,
            k.len(),
            median
        );
    }
    // Live-update rows: apply a batch of 10 localized edge flips under
    // traffic and re-answer a small formula suite. `live_update_repair`
    // patches the model in place (`Kripke::apply_delta`, one arrival
    // batch) and repairs the
    // checker's cached truth vectors over the dirty frontier
    // (`ModelChecker::detach`/`resume`); `live_update_rebuild` rebuilds
    // the post-delta model from its rows and checks with a fresh
    // checker. Both produce bit-identical answers (verified outside the
    // timed region); on the localized path1024 workload the repair leg
    // must win by ≥ 5× — the PR's headline acceptance number.
    {
        use portnum_logic::plan::ModelChecker;
        use std::time::Instant;
        let flips = 10;
        let suite: Vec<Formula> = (1..=4).map(workloads::nested_diamonds).collect();
        let sweeps: Vec<workloads::Workload> = workloads::path_sweep(&[1024])
            .into_iter()
            .chain(workloads::gnp_sweep(&[512], 0.05, 5))
            .collect();
        for w in &sweeps {
            let base = Kripke::k_mm(&w.graph);
            // The same flips as the per-delta sequence, as one arrival
            // batch: one apply, one version bump.
            let batch = workloads::edge_flip_batch(&base, flips, 77);
            // The expected post-delta answers, computed once.
            let mut final_model = base.clone();
            final_model.apply_delta(&batch).expect("flip batch applies");
            let reference: Vec<Vec<bool>> = {
                let mut checker = ModelChecker::new(&final_model);
                suite.iter().map(|f| checker.check(f).expect("suite case").to_bools()).collect()
            };
            // Post-delta rows, extracted once: the rebuild leg's input.
            let rows: std::collections::BTreeMap<ModalIndex, Vec<Vec<usize>>> = (0..final_model
                .relation_count())
                .map(|r| {
                    let rows = (0..final_model.len())
                        .map(|v| {
                            final_model
                                .successors_dense(r, v)
                                .iter()
                                .map(|&w| w as usize)
                                .collect()
                        })
                        .collect();
                    (final_model.relation_index(r), rows)
                })
                .collect();
            // (median, min) over the samples: the rows report the
            // median; the ≥5× gate compares minima, the noise-free
            // estimate of what each leg costs (the legs are too short
            // for a median to shrug off scheduler and allocator noise
            // this late in a long-running process).
            let stats_with_setup = |run: &mut dyn FnMut() -> (f64, Vec<Vec<bool>>)| -> (f64, f64) {
                let mut samples: Vec<f64> = (0..15)
                    .map(|_| {
                        let (us, outs) = run();
                        assert_eq!(outs, reference, "{}: live-update answers diverged", w.name);
                        us
                    })
                    .collect();
                samples.sort_by(|a, b| a.total_cmp(b));
                (samples[samples.len() / 2], samples[0])
            };
            let (repair_median, repair_min) = stats_with_setup(&mut || {
                // Untimed setup: a pristine model and a warm checker.
                let mut model = base.clone();
                let mut checker = ModelChecker::new(&model);
                for f in &suite {
                    checker.check(f).expect("suite case");
                }
                let cache = checker.detach();
                let start = Instant::now();
                let touched = model.apply_delta(&batch).expect("flip batch applies");
                let mut checker = ModelChecker::resume(&model, cache, &touched);
                let served: usize =
                    suite.iter().map(|f| checker.check(f).expect("suite case").count_ones()).sum();
                let us = start.elapsed().as_secs_f64() * 1e6;
                // Verification extraction, outside the timed region: the
                // repeated checks are cache hits on the served vectors.
                std::hint::black_box(served);
                let outs: Vec<Vec<bool>> = suite
                    .iter()
                    .map(|f| checker.check(f).expect("suite case").to_bools())
                    .collect();
                (us, outs)
            });
            let (rebuild_median, rebuild_min) = stats_with_setup(&mut || {
                let start = Instant::now();
                let model = Kripke::from_parts(base.variant(), final_model.degrees().to_vec(), rows.clone())
                    .expect("extracted rows rebuild");
                let mut checker = ModelChecker::new(&model);
                let served: usize =
                    suite.iter().map(|f| checker.check(f).expect("suite case").count_ones()).sum();
                let us = start.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(served);
                let outs: Vec<Vec<bool>> = suite
                    .iter()
                    .map(|f| checker.check(f).expect("suite case").to_bools())
                    .collect();
                (us, outs)
            });
            for (case, median) in
                [("live_update_repair", repair_median), ("live_update_rebuild", rebuild_median)]
            {
                t.row([w.name.clone(), case.to_string(), format!("{median:.1}"), flips.to_string()]);
                let _ = writeln!(
                    json,
                    "{{\"bench\":\"eval\",\"workload\":\"{}\",\"case\":\"{}\",\"worlds\":{},\
                     \"median_us\":{:.1},\"ones\":{}}}",
                    w.name,
                    case,
                    base.len(),
                    median,
                    flips
                );
            }
            if w.name == "path1024" {
                gate(failed, repair_min * 5.0 <= rebuild_min, || {
                    format!(
                        "localized live update must repair ≥ 5× faster than rebuild: \
                         repair {repair_min:.1}µs vs rebuild {rebuild_min:.1}µs \
                         (medians {repair_median:.1}µs / {rebuild_median:.1}µs)"
                    )
                });
            }
        }
    }
    print!("{}", t.render());
    match std::fs::write("BENCH_eval.json", &json) {
        Ok(()) => println!("wrote BENCH_eval.json ({} entries)", json.lines().count()),
        Err(e) => println!("could not write BENCH_eval.json: {e}"),
    }
}

/// Serving throughput through the socket protocol: 16 compatible
/// graded-diamond formulas on gnp512, batched (one coalesced `Check`
/// frame) vs unbatched (16 single-formula requests), at 1 and 4
/// clients. Appends `serve_qps_*` rows to `BENCH_eval.json` and gates
/// the PR's headline number: batched must serve ≥ 3× the QPS of
/// unbatched at 1 client. Batching amortises the per-frame costs —
/// round trip, framing, admission pricing, shard dispatch — across the
/// suite, so the suite here is 16 small distinct formulas whose
/// evaluation does not drown the per-request overhead under test (the
/// deep-tower shape is tracked continuously by the
/// `serving_throughput` criterion bench instead). The gate compares
/// minima over the samples (the noise-free estimate); the rows report
/// medians like every other snapshot. A failed gate is pushed onto
/// `failed`.
fn serve_qps_snapshot(failed: &mut Vec<String>) {
    use portnum_serve::{Client, ModelSpec, ServeConfig, Server};
    use std::fmt::Write as _;
    use std::time::Instant;
    section("Serving throughput: batched vs unbatched checks (appended to BENCH_eval.json)");

    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = server.addr();
    let suite: Vec<Formula> = (0..16usize)
        .map(|i| Formula::diamond_geq(ModalIndex::Any, i / 5, &Formula::prop(i % 5)))
        .collect();
    let mut client = Client::connect(addr).expect("connecting");
    client.load(0, &ModelSpec::gnp(512, 0.05, 5)).expect("loading gnp512");
    // Warm the serving cache: every measured iteration is steady-state,
    // so the batched/unbatched gap is pure per-request overhead (round
    // trips, framing, admission pricing, shard dispatch).
    let reference = client.check(0, &suite).expect("warm-up batch");

    /// `(median, min)` seconds over 9 runs of one 16-formula serving
    /// round.
    fn sample(mut round: impl FnMut()) -> (f64, f64) {
        let mut secs: Vec<f64> = (0..9)
            .map(|_| {
                let start = Instant::now();
                round();
                start.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(f64::total_cmp);
        (secs[secs.len() / 2], secs[0])
    }

    let (batched_median, batched_min) = sample(|| {
        let truths = client.check(0, &suite).expect("batched check");
        assert_eq!(truths, reference);
    });
    let (unbatched_median, unbatched_min) = sample(|| {
        for (i, f) in suite.iter().enumerate() {
            let truths = client.check(0, std::slice::from_ref(f)).expect("unbatched check");
            assert_eq!(truths.vectors[0], reference.vectors[i]);
        }
    });
    // 4 clients on their own connections, each serving the full suite
    // per round; the round is done when the slowest client finishes.
    let fan_out = |batched: bool| {
        let mut clients: Vec<Client> =
            (0..4).map(|_| Client::connect(addr).expect("connecting")).collect();
        sample(|| {
            std::thread::scope(|s| {
                for client in &mut clients {
                    s.spawn(|| {
                        if batched {
                            let truths = client.check(0, &suite).expect("batched check");
                            assert_eq!(truths, reference);
                        } else {
                            for (i, f) in suite.iter().enumerate() {
                                let truths = client
                                    .check(0, std::slice::from_ref(f))
                                    .expect("unbatched check");
                                assert_eq!(truths.vectors[0], reference.vectors[i]);
                            }
                        }
                    });
                }
            });
        })
    };
    let (batched_4c_median, _) = fan_out(true);
    let (unbatched_4c_median, _) = fan_out(false);

    let mut json = String::new();
    let mut t = Table::new(["workload", "case", "clients", "median µs", "QPS (16-formula rounds/s)"]);
    let cases = [
        ("serve_qps_batched16_1c", 1u32, batched_median),
        ("serve_qps_unbatched16_1c", 1, unbatched_median),
        ("serve_qps_batched16_4c", 4, batched_4c_median),
        ("serve_qps_unbatched16_4c", 4, unbatched_4c_median),
    ];
    for (case, clients, median) in cases {
        // Rounds served per second across all clients: one round is 16
        // formulas answered for one client.
        let qps = f64::from(clients) / median;
        t.row([
            "gnp512".to_string(),
            case.to_string(),
            clients.to_string(),
            format!("{:.1}", median * 1e6),
            format!("{qps:.0}"),
        ]);
        let _ = writeln!(
            json,
            "{{\"bench\":\"serve\",\"workload\":\"gnp512\",\"case\":\"{}\",\"worlds\":512,\
             \"median_us\":{:.1},\"qps\":{:.1}}}",
            case,
            median * 1e6,
            qps
        );
    }
    print!("{}", t.render());
    gate(failed, batched_min * 3.0 <= unbatched_min, || {
        format!(
            "a coalesced 16-formula batch must serve ≥ 3× the QPS of 16 single-formula \
             requests: batched {:.1}µs vs unbatched {:.1}µs per round \
             (medians {:.1}µs / {:.1}µs)",
            batched_min * 1e6,
            unbatched_min * 1e6,
            batched_median * 1e6,
            unbatched_median * 1e6
        )
    });
    use std::io::Write as _;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_eval.json")
        .and_then(|mut f| f.write_all(json.as_bytes()));
    match appended {
        Ok(()) => println!("appended {} serve rows to BENCH_eval.json", json.lines().count()),
        Err(e) => println!("could not append to BENCH_eval.json: {e}"),
    }
    server.shutdown();
}

/// Section 3.3's classic tool: covering graphs. Executions commute with
/// covering maps; bisimulation and quotients certify it logically.
fn covers() {
    section("Section 3.3: covering graphs (lifts) — algorithms cannot tell a graph from its cover");
    use portnum_graph::lifts::{lift, Voltages};
    use portnum_logic::minimum_base;
    let mut rng = StdRng::seed_from_u64(33);
    let sim = Simulator::new();
    let mut t = Table::new(["base", "voltages", "lift nodes", "outputs lift?", "min base worlds (base/lift)"]);
    for w in [
        workloads::Workload::consistent("petersen", generators::petersen()),
        workloads::Workload::random("no1factor3", generators::no_one_factor(3), 3),
    ] {
        for (vname, voltages) in [
            ("identity×2", Voltages::identity(&w.graph, 2)),
            ("double-cover", Voltages::double_cover(&w.graph)),
            ("random×3", Voltages::random(&w.graph, 3, &mut rng)),
        ] {
            let lifted = lift(&w.graph, &w.ports, &voltages).expect("voltages fit");
            let base = sim.run(&ViewGather { radius: 3 }, &w.graph, &w.ports).unwrap();
            let cov = sim.run(&ViewGather { radius: 3 }, lifted.graph(), lifted.ports()).unwrap();
            let commutes = lifted.graph().nodes().all(|x| {
                cov.outputs()[x] == base.outputs()[lifted.covering_map().project(x)]
            });
            let (bq, _) = minimum_base(&Kripke::k_pp(&w.graph, &w.ports));
            let (lq, _) = minimum_base(&Kripke::k_pp(lifted.graph(), lifted.ports()));
            t.row([
                w.name.clone(),
                vname.to_string(),
                lifted.graph().len().to_string(),
                commutes.to_string(),
                format!("{}/{}", bq.len(), lq.len()),
            ]);
        }
    }
    print!("{}", t.render());
}

/// Section 3.1: the stronger models, with MIS as the separating problem.
fn section31() {
    section("Section 3.1: stronger models — MIS ∈ LOCAL, MIS ∈ randomised, MIS ∉ VVc");
    use portnum::stronger::local::{run_with_ids, GreedyMisById};
    use portnum::stronger::randomized::{run_randomized, LubyMis};
    use portnum::stronger::separation::{even_cycle_matched_numbering, mis_beyond_vvc};
    let mut t = Table::new(["cycle", "K++ classes", "consistent", "greedy rounds", "luby rounds", "both valid MIS"]);
    for m in [2usize, 4, 8] {
        let (g, p) = even_cycle_matched_numbering(m);
        let classes = bisim::refine(&Kripke::k_pp(&g, &p), BisimStyle::Plain);
        let ids: Vec<u64> = (0..g.len() as u64).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
        let (greedy_out, greedy_rounds) =
            run_with_ids(&GreedyMisById, &g, &p, &ids, 4 * g.len()).expect("terminates");
        let (luby_out, luby_rounds) =
            run_randomized(&LubyMis, &g, &p, 2012, 100_000).expect("terminates w.h.p.");
        let mis = portnum::problems::MaximalIndependentSet;
        t.row([
            format!("C_{}", 2 * m),
            classes.class_count(classes.depth()).to_string(),
            p.is_consistent().to_string(),
            greedy_rounds.to_string(),
            luby_rounds.to_string(),
            (mis.is_valid(&g, &greedy_out) && mis.is_valid(&g, &luby_out)).to_string(),
        ]);
    }
    print!("{}", t.render());
    for e in [
        mis_beyond_vvc(4),
        portnum::stronger::separation::leader_election_beyond_vvc(4),
    ] {
        println!("  {e}");
        assert!(e.holds());
    }
}

/// Figures 1–2: port numberings and consistency.
fn fig1_2() {
    section("Figures 1–2: port numberings of the 4-node example graph");
    let g = generators::figure1_graph();
    let consistent = PortNumbering::consistent(&g);
    let mut rng = StdRng::seed_from_u64(1);
    let random = PortNumbering::random(&g, &mut rng);
    let mut t = Table::new(["numbering", "pairs (v,i) -> p(v,i)", "consistent"]);
    for (name, p) in [("canonical", &consistent), ("random", &random)] {
        let pairs: Vec<String> =
            p.pairs().map(|(a, b)| format!("({},{})→({},{})", a.node, a.index, b.node, b.index)).collect();
        t.row([name.to_string(), pairs.join(" "), p.is_consistent().to_string()]);
    }
    print!("{}", t.render());
}

/// Figures 3–4: reception and emission modes.
fn fig3_4() {
    section("Figures 3–4: Vector vs Multiset vs Set reception; Vector vs Broadcast emission");
    let vector = [Payload::Data("a"), Payload::Data("b"), Payload::Data("a")];
    let multiset: Multiset<Payload<&str>> = vector.iter().cloned().collect();
    let set = multiset.to_set();
    println!("received vector  : {vector:?}");
    println!("as multiset      : {multiset}");
    println!("as set           : {{{}}}", set.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(", "));
    println!("Broadcast sends one message to all ports; Vector may send m1 ≠ m2 ≠ m3 (Figure 4).");
}

/// Figure 5: the trivial partial order collapses into the linear order.
fn fig5() {
    section("Figure 5: problem classes — trivial partial order and proven linear order");
    let mut t = Table::new(["class", "level (Fig 5b)", "collapse/separation evidence"]);
    for c in ProblemClass::ALL {
        t.row([c.to_string(), c.level().to_string(), c.collapse_evidence().to_string()]);
    }
    print!("{}", t.render());
    println!("Derived order: SB ⊊ MB = VB ⊊ SV = MV = VV ⊊ VVc");
}

/// Figure 6: information available to each class, on the Figure 1 graph.
fn fig6() {
    section("Figure 6: auxiliary information available to each class (node 0 of Figure 1)");
    let g = generators::figure1_graph();
    let p = PortNumbering::consistent(&g);
    let v = 0usize;
    let mut t = Table::new(["class", "what node 0 can observe on its in-ports"]);
    let detail: Vec<String> = (0..g.degree(v))
        .map(|i| {
            let src = p.backward(Port::new(v, i));
            format!("port {i}: from node-out-port {}", src.index)
        })
        .collect();
    t.row(["VVc / VV (Vector)", &detail.join(", ")]);
    t.row(["MV / SV (Multiset/Set)", "sender out-port numbers, but no own in-port order"]);
    t.row(["VB (Broadcast)", "own in-port order, but no sender out-port numbers"]);
    t.row(["MB / SB", "only the (multi)set of messages"]);
    print!("{}", t.render());
}

/// Figure 7: the accessibility relations R(i,j) and projections.
fn fig7() {
    section("Figure 7: accessibility relations of K_{a,b}(G,p) on the Figure 1 graph");
    let g = generators::figure1_graph();
    let p = PortNumbering::consistent(&g);
    let mut t = Table::new(["model", "relations", "total edges"]);
    for (name, k) in [
        ("K_{+,+}", Kripke::k_pp(&g, &p)),
        ("K_{-,+}", Kripke::k_mp(&g, &p)),
        ("K_{+,-}", Kripke::k_pm(&g, &p)),
        ("K_{-,-}", Kripke::k_mm(&g)),
    ] {
        let rels: Vec<String> = k.indices().map(|i| format!("R({i})")).collect();
        let total: usize = k
            .indices()
            .map(|i| (0..k.len()).map(|v| k.successors(v, i).len()).sum::<usize>())
            .sum();
        t.row([name.to_string(), rels.join(" "), total.to_string()]);
    }
    print!("{}", t.render());
    println!("(each model distributes the same 2|E| = {} directed pairs)", 2 * g.edge_count());
}

/// Figure 8 / Lemma 15: double covers and 1-factorizations.
fn fig8() {
    section("Figure 8 / Lemma 15: bipartite double covers and 1-factorizations");
    let mut t = Table::new(["graph", "k", "cover regular", "factors", "edge-disjoint"]);
    for (name, g) in [
        ("cycle5", generators::cycle(5)),
        ("petersen", generators::petersen()),
        ("no1factor(3)", generators::no_one_factor(3)),
        ("hypercube(3)", generators::hypercube(3)),
    ] {
        let c = cover::bipartite_double_cover(&g);
        let k = c.regularity().unwrap_or(0);
        let factors = matching::one_factorization(&c).expect("regular covers factorize");
        let mut seen = std::collections::HashSet::new();
        let disjoint = factors
            .iter()
            .all(|f| f.iter().enumerate().all(|(l, &r)| seen.insert((l, r))));
        t.row([
            name.to_string(),
            k.to_string(),
            c.regularity().is_some().to_string(),
            factors.len().to_string(),
            disjoint.to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// Figure 9: regular graphs without a 1-factor and symmetric numberings.
fn fig9() {
    section("Figure 9: k-regular graphs without a 1-factor (odd k) + symmetric numberings");
    let mut t = Table::new([
        "k", "nodes", "connected", "has 1-factor", "symmetric p consistent?", "all bisimilar in K_{+,+}",
    ]);
    for k in [3usize, 5] {
        let g = generators::no_one_factor(k);
        let sym = PortNumbering::symmetric_regular(&g).expect("regular");
        let kpp = Kripke::k_pp(&g, &sym);
        let classes = bisim::refine(&kpp, BisimStyle::Plain);
        t.row([
            k.to_string(),
            g.len().to_string(),
            properties::is_connected(&g).to_string(),
            matching::has_one_factor(&g).to_string(),
            sym.is_consistent().to_string(),
            (classes.class_count(classes.depth()) == 1).to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// Table 3: the logic ↔ algorithms dictionary, exercised end to end.
fn table3() {
    section("Table 3 / Theorem 2: modal logic captures the constant-time classes");
    let g = generators::figure1_graph();
    let p = PortNumbering::consistent(&g);
    let sim = Simulator::new();
    let mut t = Table::new(["logic", "model", "class", "formula", "md", "rounds", "agrees"]);

    let f_any = parse("<*,*>(q2 & <*,*> q3)").unwrap();
    let k_mm = Kripke::k_mm(&g);
    let expect = evaluate(&k_mm, &f_any).unwrap();
    let run = sim.run(&SbAsVector(compile_sb(&f_any).unwrap()), &g, &p).unwrap();
    t.row([
        "ML".into(),
        "K_{-,-}".into(),
        "SB(1)".into(),
        f_any.to_string(),
        f_any.modal_depth().to_string(),
        run.rounds().to_string(),
        (run.outputs() == expect).to_string(),
    ]);
    let f_gr = parse("<*,*>>=2 q1").unwrap();
    let expect = evaluate(&k_mm, &f_gr).unwrap();
    let run = sim.run(&MbAsVector(compile_mb(&f_gr).unwrap()), &g, &p).unwrap();
    t.row([
        "GML".into(),
        "K_{-,-}".into(),
        "MB(1)".into(),
        f_gr.to_string(),
        f_gr.modal_depth().to_string(),
        run.rounds().to_string(),
        (run.outputs() == expect).to_string(),
    ]);
    let f_out = parse("<*,0><*,1> q3").unwrap();
    let k_mp = Kripke::k_mp(&g, &p);
    let expect = evaluate(&k_mp, &f_out).unwrap();
    let run = sim.run(&SetAsVector(compile_set(&f_out).unwrap()), &g, &p).unwrap();
    t.row([
        "MML".into(),
        "K_{-,+}".into(),
        "SV(1)".into(),
        f_out.to_string(),
        f_out.modal_depth().to_string(),
        run.rounds().to_string(),
        (run.outputs() == expect).to_string(),
    ]);
    let f_grout = parse("<*,0>>=2 q1").unwrap();
    let expect = evaluate(&k_mp, &f_grout).unwrap();
    let run = sim.run(&MultisetAsVector(compile_multiset(&f_grout).unwrap()), &g, &p).unwrap();
    t.row([
        "GMML".into(),
        "K_{-,+}".into(),
        "MV(1)".into(),
        f_grout.to_string(),
        f_grout.modal_depth().to_string(),
        run.rounds().to_string(),
        (run.outputs() == expect).to_string(),
    ]);
    let f_in = parse("<0,*> !<1,*> q1").unwrap();
    let k_pm = Kripke::k_pm(&g, &p);
    let expect = evaluate(&k_pm, &f_in).unwrap();
    let run = sim.run(&BroadcastAsVector(compile_broadcast(&f_in).unwrap()), &g, &p).unwrap();
    t.row([
        "MML".into(),
        "K_{+,-}".into(),
        "VB(1)".into(),
        f_in.to_string(),
        f_in.modal_depth().to_string(),
        run.rounds().to_string(),
        (run.outputs() == expect).to_string(),
    ]);
    let f_io = parse("<0,0> q2").unwrap();
    let k_pp = Kripke::k_pp(&g, &p);
    let expect = evaluate(&k_pp, &f_io).unwrap();
    let run = sim.run(&compile_vector(&f_io).unwrap(), &g, &p).unwrap();
    t.row([
        "MML".into(),
        "K_{+,+}".into(),
        "VV(1)/VVc(1)".into(),
        f_io.to_string(),
        f_io.modal_depth().to_string(),
        run.rounds().to_string(),
        (run.outputs() == expect).to_string(),
    ]);
    print!("{}", t.render());
    println!("running time = modal depth (paper: md+1; we apply the rectification it describes)");
}

/// Tables 4–5: the algorithm → formula construction.
fn table4_5() {
    section("Tables 4–5: compiling a finite-state MB algorithm into a GML formula");
    let opts = ToFormulaOptions { max_degree: 3, horizon: 4, ..Default::default() };
    let formulas = mb_algorithm_to_formulas(&OddOddMb, &opts).expect("compiles");
    let mut t = Table::new(["output", "formula size", "modal depth", "matches on suite"]);
    for (output, psi) in &formulas {
        let mut all = true;
        for w in workloads::standard_suite() {
            if w.graph.max_degree() > opts.max_degree {
                continue;
            }
            let run = Simulator::new().run(&MbAsVector(OddOddMb), &w.graph, &w.ports).unwrap();
            let k = Kripke::k_mm(&w.graph);
            let truth = evaluate(&k, psi).unwrap();
            let expected: Vec<bool> = run.outputs().iter().map(|o| o == output).collect();
            all &= truth == expected;
        }
        t.row([
            output.to_string(),
            psi.size().to_string(),
            psi.modal_depth().to_string(),
            all.to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// A tiny genuine Multiset algorithm used in the Theorem 4 sweep.
#[derive(Debug, Clone, Copy)]
struct DegreeProfile;

impl MultisetAlgorithm for DegreeProfile {
    type State = usize;
    type Msg = usize;
    type Output = Vec<usize>;

    fn init(&self, degree: usize) -> Status<usize, Vec<usize>> {
        Status::Running(degree)
    }

    fn message(&self, state: &usize, _port: usize) -> usize {
        *state
    }

    fn step(&self, _state: &usize, received: &Multiset<Payload<usize>>) -> Status<usize, Vec<usize>> {
        Status::Stopped(received.iter().filter_map(Payload::data).copied().collect())
    }
}

/// Theorem 4: Set simulates Multiset in T + 2Δ rounds.
fn thm4() {
    section("Theorem 4 (SV = MV): rounds of the Set-from-Multiset simulation, T + 2Δ");
    let sim = Simulator::new();
    let mut t = Table::new(["graph", "Δ", "direct rounds T", "wrapped rounds", "= T + 2Δ", "max msg units"]);
    let mut rng = StdRng::seed_from_u64(4);
    let mut graphs: Vec<(String, Graph)> = vec![
        ("cycle8".into(), generators::cycle(8)),
        ("star4".into(), generators::star(4)),
        ("grid3x3".into(), generators::grid(3, 3)),
    ];
    for d in [3usize, 4] {
        graphs.push((format!("reg{d}-10"), generators::random_regular(10, d, &mut rng)));
    }
    for (name, g) in graphs {
        let delta = g.max_degree();
        let p = PortNumbering::random(&g, &mut rng);
        let direct = sim.run(&MultisetAsVector(DegreeProfile), &g, &p).unwrap();
        let wrapped =
            sim.run(&SetAsVector(SetFromMultiset::new(DegreeProfile, delta)), &g, &p).unwrap();
        t.row([
            name,
            delta.to_string(),
            direct.rounds().to_string(),
            wrapped.rounds().to_string(),
            (wrapped.rounds() == direct.rounds() + 2 * delta).to_string(),
            wrapped.max_message_units().to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// Theorems 8–9: history-based simulation — no round overhead, growing
/// messages (the paper's open question on message size).
fn thm8_9() {
    section("Theorems 8–9 (MV = VV, MB = VB): history simulation — same rounds, growing messages");
    let sim = Simulator::new();
    let g = generators::cycle(10);
    let p = PortNumbering::consistent(&g);
    let mut t = Table::new(["radius T", "direct rounds", "wrapped rounds", "direct max msg", "wrapped max msg"]);
    for radius in [1usize, 2, 3, 4, 5] {
        let direct = sim.run(&ViewGather { radius }, &g, &p).unwrap();
        let wrapped = sim
            .run(&MultisetAsVector(MultisetFromVector::new(ViewGather { radius })), &g, &p)
            .unwrap();
        t.row([
            radius.to_string(),
            direct.rounds().to_string(),
            wrapped.rounds().to_string(),
            direct.max_message_units().to_string(),
            wrapped.max_message_units().to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// Theorems 11, 13, 17: the strict separations.
fn separations_report() {
    section("Theorems 11, 13, 17: separations (positive algorithm + bisimulation obstruction)");
    for e in separations::derive_linear_order() {
        println!("  {e}");
        assert!(e.holds(), "separation failed: {e}");
    }
}

/// Remark 2: the degree-oblivious class SBo.
fn remark2() {
    section("Remark 2: degree-oblivious SBo solves (only) non-isolation");
    let g = Graph::disjoint_union(&[&generators::star(3), &Graph::empty(2)]);
    let p = PortNumbering::consistent(&g);
    let sim = Simulator::new();
    let run = sim
        .run(
            &SbAsVector(ObliviousAsSb(portnum::algorithms::sb::NonIsolationOblivious)),
            &g,
            &p,
        )
        .unwrap();
    println!(
        "  non-isolation solved by SBo: {} (outputs {:?})",
        NonIsolation.is_valid(&g, run.outputs()),
        run.outputs()
    );
    let run = sim.run(&SbAsVector(LocalMaxDegreeSb), &g, &p).unwrap();
    println!(
        "  local-max-degree needs degrees (SB, not SBo): {}",
        LocalMaxDegree.is_valid(&g, run.outputs())
    );
}

/// Section 3.3 motivation: 2-approximate vertex cover in MB(1).
fn vertex_cover() {
    section("Section 3.3 / [3]: 2-approximate vertex cover by edge packing in MB");
    let sim = Simulator::new();
    let problem = VertexCoverApprox::two();
    let mut t = Table::new(["graph", "|C|", "opt", "ratio ok (≤2)", "rounds"]);
    for w in workloads::standard_suite() {
        if w.graph.edge_count() == 0 {
            continue;
        }
        let run = sim.run(&MbAsVector(EdgePackingVertexCover), &w.graph, &w.ports).unwrap();
        let size = run.outputs().iter().filter(|&&b| b).count();
        let opt = verify::min_vertex_cover_size(&w.graph);
        t.row([
            w.name.clone(),
            size.to_string(),
            opt.to_string(),
            problem.is_valid(&w.graph, run.outputs()).to_string(),
            run.rounds().to_string(),
        ]);
    }
    print!("{}", t.render());
}

// Formula is used via parse(); silence the otherwise-unused import lint in
// builds where sections are trimmed.
#[allow(dead_code)]
fn _formula_marker(_f: Formula, _i: ModalIndex) {}
