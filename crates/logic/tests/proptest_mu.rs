//! Differential property suite for modal µ-fragment fixpoints.
//!
//! The compiled iterate-until-stable plans (frontier iteration, dense
//! fallback, all three diamond dispatch modes, sequential and forced
//! pool execution) are pinned **bit-identical** to the naive Kleene
//! reference in [`evaluate_packed_recursive`] — whole-body
//! re-evaluation per iteration, no frontier, no plan. The strategies
//! generate *closed* formulas only: every `Var` sits under a binder
//! introducing it, and a lone negation is applied only to closed
//! subformulas (a graded box's two negations may wrap an open one), so
//! positivity holds by construction and the checked `mu`/`nu`
//! constructors never fail.
//!
//! Deterministic pins at the bottom assert the frontier accounting on
//! path models (after the first dense iteration the wave front is O(1)
//! worlds per step, so total touched worlds stay o(n · iterations)) and
//! that counted diamonds count every stored copy of a repeated
//! successor, moving up and down, in µ and ν bodies.

mod common;

use common::{arb_graph, arb_mu_formula, execute_pinned};
use portnum_graph::partition::Parallelism;
use portnum_logic::plan::{DiamondMode, ModelChecker, Plan};
use portnum_logic::{evaluate_packed_recursive, Formula, Kripke, ModalIndex, ModelVariant};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use portnum_graph::{generators, PortNumbering};
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fixpoint_plans_match_kleene_on_all_variants_and_modes(
        g in arb_graph(),
        seed in any::<u64>(),
        f_pp in arb_mu_formula(ModalIndex::InOut),
        f_mp in arb_mu_formula(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_mu_formula(|i, _j| ModalIndex::In(i)),
        f_mm in arb_mu_formula(|_i, _j| ModalIndex::Any),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        let cases = [
            (Kripke::k_pp(&g, &p), &f_pp),
            (Kripke::k_mp(&g, &p), &f_mp),
            (Kripke::k_pm(&g, &p), &f_pm),
            (Kripke::k_mm(&g), &f_mm),
        ];
        for (model, f) in &cases {
            let reference = evaluate_packed_recursive(model, f).unwrap();
            let plan = Plan::compile(model, f).unwrap();
            for mode in [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Csc] {
                let (mut seq, seq_stats) = plan.execute_with(model, mode);
                prop_assert_eq!(
                    seq.pop().unwrap(), reference.clone(),
                    "variant {:?}, mode {:?}, formula {}", model.variant(), mode, f
                );
                // Forced pool execution: bit-identical vectors AND
                // identical iteration counts (fixpoints always run on
                // the sequential instruction path; only their body ops
                // chunk).
                let (mut par, par_stats) = execute_pinned(&plan, model, mode, Parallelism::Force);
                prop_assert_eq!(
                    par.pop().unwrap(), reference.clone(),
                    "forced-parallel diverged: variant {:?}, mode {:?}, formula {}",
                    model.variant(), mode, f
                );
                prop_assert_eq!(seq_stats.fixpoint_iters, par_stats.fixpoint_iters);
                prop_assert_eq!(seq_stats.fixpoints, par_stats.fixpoints);
            }
        }
    }

    #[test]
    fn checker_fixpoints_match_kleene_and_cache_cleanly(
        g in arb_graph(),
        f in arb_mu_formula(|_i, _j| ModalIndex::Any),
    ) {
        let k = Kripke::k_mm(&g);
        let reference = evaluate_packed_recursive(&k, &f).unwrap();
        let mut checker = ModelChecker::new(&k);
        let got = checker.check(&f).unwrap();
        prop_assert_eq!(&*got, &reference, "checker diverged on {}", f);
        // Cache hit: same Rc, no recomputation.
        let computed = checker.stats().computed;
        let again = checker.check(&f).unwrap();
        prop_assert!(std::rc::Rc::ptr_eq(&got, &again));
        prop_assert_eq!(checker.stats().computed, computed);
    }
}

/// The o(n · iters) pin: single-goal reachability on a path forces
/// Θ(n) iterations, yet the frontier engine touches O(1) worlds per
/// iteration after the first dense pass — so total frontier-touched
/// worlds stay far below `n × iters`, the dense engine's bill.
#[test]
fn frontier_iteration_touches_o_of_n_iters_worlds_on_paths() {
    for n in [128usize, 512, 1024] {
        let k = Kripke::k_mm(&generators::path(n));
        let f = Formula::mu(
            "X",
            &Formula::prop(1).or(&Formula::diamond(ModalIndex::Any, &Formula::var("X"))),
        )
        .unwrap();
        let plan = Plan::compile(&k, &f).unwrap();
        let (out, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(out[0], evaluate_packed_recursive(&k, &f).unwrap(), "n = {n}");
        assert!(stats.fixpoint_iters > n / 4, "paths force long chains: {stats:?}");
        assert_eq!(stats.fixpoint_dense_passes, 1, "only the first iteration is dense");
        let dense_bill = n * stats.fixpoint_iters;
        assert!(
            stats.fixpoint_frontier_worlds * 8 < dense_bill,
            "n = {n}: frontier touched {} worlds, dense would touch {dense_bill}",
            stats.fixpoint_frontier_worlds,
        );
    }
}

/// Counted diamonds count stored entries, not distinct successors: on a
/// hand-built model whose rows repeat successors (`Kripke::from_parts`
/// keeps every copy), graded µ and ν bodies whose diamonds gain worlds
/// (`⟨⟩≥g X` under µ, the box under ν) and lose them (the box under µ,
/// `⟨⟩≥g X` under ν) match the Kleene reference in every diamond mode.
#[test]
fn counted_diamonds_count_repeated_successors_up_and_down() {
    let rows: Vec<Vec<usize>> = vec![
        vec![1, 1, 2],
        vec![0, 3, 3],
        vec![2, 2, 4],
        vec![5, 5, 5],
        vec![6, 6],
        vec![7, 7, 3],
        vec![],
        vec![0, 4, 4, 7],
    ];
    let degrees = vec![0, 2, 0, 2, 1, 0, 1, 2];
    let build = |rows: Vec<Vec<usize>>| {
        let relations = BTreeMap::from([(ModalIndex::Any, rows)]);
        Kripke::from_parts(ModelVariant::MinusMinus, degrees.clone(), relations)
            .expect("rows stay in range")
    };
    let k = build(rows.clone());
    let deduped = build(
        rows.iter()
            .map(|r| r.iter().copied().collect::<BTreeSet<_>>().into_iter().collect())
            .collect(),
    );
    let x = Formula::var("X");
    let goal = Formula::prop(1);
    let mut copies_matter = false;
    for grade in [2usize, 3] {
        let dia = Formula::diamond_geq(ModalIndex::Any, grade, &x);
        let graded_box = Formula::diamond_geq(ModalIndex::Any, grade, &x.not()).not();
        let formulas = [
            Formula::mu("X", &goal.or(&dia)).unwrap(),
            Formula::mu("X", &goal.or(&graded_box)).unwrap(),
            Formula::nu("X", &goal.not().and(&dia)).unwrap(),
            Formula::nu("X", &goal.not().and(&graded_box)).unwrap(),
        ];
        for f in &formulas {
            let want = evaluate_packed_recursive(&k, f).unwrap();
            copies_matter |= want != evaluate_packed_recursive(&deduped, f).unwrap();
            let plan = Plan::compile(&k, f).unwrap();
            for mode in [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Csc] {
                let (mut got, stats) = plan.execute_with(&k, mode);
                assert_eq!(got.pop().unwrap(), want, "{f} under {mode:?}");
                assert!(stats.fixpoint_iters > 1, "{f} must iterate past its dense pass");
            }
            let mut checker = ModelChecker::new(&k);
            assert_eq!(*checker.check(f).unwrap(), want, "checker on {f}");
        }
    }
    assert!(copies_matter, "the repeated successors must change some answer");
}
