//! Property tests pinning the packed (bitset) model checker to a naive
//! reference evaluator.
//!
//! The reference is the textbook semantics over `Vec<bool>`: no
//! memoisation, no packing, one recursive call per subformula
//! occurrence. The packed evaluator must agree bit-for-bit on random
//! formulas over random models of **all four** canonical variants, and
//! the `evaluate` / `satisfies` / `extension` wrappers must stay
//! consistent views of the packed result.
//!
//! The plan engine gets the same treatment: compiled plans (under every
//! diamond strategy) and the incremental [`ModelChecker`] cache are
//! pinned bit-identical to the recursive pointer-memoised engine
//! [`evaluate_packed_recursive`], including on formulas that are
//! structurally equal but share no `Arc`s — the dedup case pointer
//! identity cannot see, observable through the plan statistics hook.

mod common;

use common::{arb_formula_with as arb_formula, arb_graph, deep_clone, execute_pinned};
use portnum_graph::partition::Parallelism;
use portnum_logic::plan::{DiamondMode, ModelChecker, Plan};
use portnum_logic::{
    evaluate, evaluate_packed, evaluate_packed_recursive, extension, satisfies, Formula,
    FormulaKind, Kripke, ModalIndex,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use portnum_graph::PortNumbering;

/// Textbook semantics: unmemoised recursion over `Vec<bool>`.
fn reference_eval(model: &Kripke, formula: &Formula) -> Vec<bool> {
    let n = model.len();
    match formula.kind() {
        FormulaKind::Top => vec![true; n],
        FormulaKind::Bottom => vec![false; n],
        FormulaKind::Prop(d) => (0..n).map(|v| model.degree(v) == *d).collect(),
        FormulaKind::Not(a) => reference_eval(model, a).iter().map(|&b| !b).collect(),
        FormulaKind::And(a, b) => {
            let (x, y) = (reference_eval(model, a), reference_eval(model, b));
            x.iter().zip(&y).map(|(&p, &q)| p && q).collect()
        }
        FormulaKind::Or(a, b) => {
            let (x, y) = (reference_eval(model, a), reference_eval(model, b));
            x.iter().zip(&y).map(|(&p, &q)| p || q).collect()
        }
        FormulaKind::Diamond { index, grade, inner } => {
            let sat = reference_eval(model, inner);
            (0..n)
                .map(|v| {
                    let count = model
                        .successors(v, *index)
                        .iter()
                        .filter(|&&w| sat[w as usize])
                        .count();
                    count >= *grade
                })
                .collect()
        }
        FormulaKind::Var(_) | FormulaKind::Mu { .. } | FormulaKind::Nu { .. } => {
            unreachable!("the shared strategies generate only fixpoint-free formulas")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_matches_reference_on_all_variants(
        g in arb_graph(),
        seed in any::<u64>(),
        f_pp in arb_formula(ModalIndex::InOut),
        f_mp in arb_formula(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_formula(|i, _j| ModalIndex::In(i)),
        f_mm in arb_formula(|_i, _j| ModalIndex::Any),
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
            let expected = reference_eval(model, f);
            let packed = evaluate_packed(model, f).unwrap();
            prop_assert_eq!(packed.len(), model.len());
            prop_assert_eq!(
                &packed.to_bools(), &expected,
                "variant {:?} on {} with {}", model.variant(), g, f
            );
            // The wrapper views are consistent projections of the packed
            // vector.
            prop_assert_eq!(&evaluate(model, f).unwrap(), &expected);
            let ext = extension(model, f).unwrap();
            prop_assert_eq!(ext.len(), packed.count_ones());
            for (v, &sat) in expected.iter().enumerate() {
                prop_assert_eq!(satisfies(model, v, f).unwrap(), sat);
                prop_assert_eq!(ext.contains(&v), sat);
            }
        }
    }

    #[test]
    fn plans_match_recursive_engine_on_all_variants_and_modes(
        g in arb_graph(),
        seed in any::<u64>(),
        f_pp in arb_formula(ModalIndex::InOut),
        f_mp in arb_formula(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_formula(|i, _j| ModalIndex::In(i)),
        f_mm in arb_formula(|_i, _j| ModalIndex::Any),
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
            for mode in
                [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Reverse, DiamondMode::Csc]
            {
                let (mut out, exec) = plan.execute_with(model, mode);
                prop_assert_eq!(
                    out.pop().unwrap(), reference.clone(),
                    "variant {:?}, mode {:?}, formula {}", model.variant(), mode, f
                );
                prop_assert_eq!(exec.executed, plan.stats().instructions);
            }
        }
    }

    #[test]
    fn forced_parallel_execution_matches_sequential(
        g in arb_graph(),
        seed in any::<u64>(),
        f_pp in arb_formula(ModalIndex::InOut),
        f_mp in arb_formula(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_formula(|i, _j| ModalIndex::In(i)),
        f_mm in arb_formula(|_i, _j| ModalIndex::Any),
    ) {
        // The pool-driven executor (both chunking axes forced on, far
        // below the work gate) must be BIT-identical to the sequential
        // engine — same truth vectors, same per-strategy diamond
        // counts — on all four variants under every diamond mode.
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        let cases = [
            (Kripke::k_pp(&g, &p), &f_pp),
            (Kripke::k_mp(&g, &p), &f_mp),
            (Kripke::k_pm(&g, &p), &f_pm),
            (Kripke::k_mm(&g), &f_mm),
        ];
        for (model, f) in &cases {
            let plan = Plan::compile(model, f).unwrap();
            for mode in
                [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Reverse, DiamondMode::Csc]
            {
                let (seq, seq_stats) = execute_pinned(&plan, model, mode, Parallelism::Off);
                let (par, par_stats) = execute_pinned(&plan, model, mode, Parallelism::Force);
                prop_assert_eq!(
                    &seq, &par,
                    "variant {:?}, mode {:?}, formula {}", model.variant(), mode, f
                );
                prop_assert_eq!(seq_stats.executed, par_stats.executed);
                prop_assert_eq!(seq_stats.forward_diamonds, par_stats.forward_diamonds);
                prop_assert_eq!(seq_stats.chunked_ops, 0);
                prop_assert_eq!(seq_stats.reverse_diamonds, par_stats.reverse_diamonds);
                prop_assert_eq!(seq_stats.csc_diamonds, par_stats.csc_diamonds);
            }
        }
    }

    #[test]
    fn unshared_structural_duplicates_dedup_to_one_computation(
        g in arb_graph(),
        f in arb_formula(|_i, _j| ModalIndex::Any),
    ) {
        // A suite of one formula plus a structurally equal copy sharing
        // no Arcs: pointer memoisation would evaluate every node twice,
        // the plan must execute strictly fewer instructions than it
        // lowered pointer-distinct AST nodes.
        let k = Kripke::k_mm(&g);
        let copy = deep_clone(&f);
        prop_assert!(!f.ptr_eq(&copy));
        prop_assert_eq!(&f, &copy);
        let plan = Plan::compile_suite(&k, [&f, &copy]).unwrap();
        let stats = plan.stats();
        prop_assert!(
            stats.instructions < stats.ast_nodes,
            "dedup invisible in stats: {:?} for {}", stats, f
        );
        let truths = plan.execute(&k);
        prop_assert_eq!(&truths[0], &truths[1]);
        prop_assert_eq!(&truths[0], &evaluate_packed_recursive(&k, &f).unwrap());
    }

    #[test]
    fn checker_suite_matches_recursive_engine(
        g in arb_graph(),
        suite in proptest::collection::vec(arb_formula(|_i, _j| ModalIndex::Any), 1..5),
    ) {
        // Many formulas, one model, one shared plan cache: every result
        // must match the per-formula recursive engine, and the cache
        // can only ever compute as many vectors as it has instructions.
        let k = Kripke::k_mm(&g);
        let mut checker = ModelChecker::new(&k);
        for f in &suite {
            let got = checker.check(f).unwrap();
            prop_assert_eq!(&*got, &evaluate_packed_recursive(&k, f).unwrap(), "{}", f);
            // Re-checking an unshared copy is a pure cache hit.
            let again = checker.check(&deep_clone(f)).unwrap();
            prop_assert!(std::rc::Rc::ptr_eq(&got, &again));
        }
        let stats = checker.stats();
        prop_assert!(stats.computed <= stats.instructions);
        prop_assert!(stats.instructions <= stats.ast_nodes);
    }

    #[test]
    fn packed_memoisation_is_sound_under_sharing(
        g in arb_graph(),
        f in arb_formula(|_i, _j| ModalIndex::Any),
    ) {
        // Sharing the same subtree many times must not change truth —
        // the memo returns the identical packed vector each time.
        let k = Kripke::k_mm(&g);
        let shared = f.and(&f).or(&f.and(&f)).not().not();
        prop_assert_eq!(
            evaluate_packed(&k, &shared).unwrap().to_bools(),
            reference_eval(&k, &shared)
        );
    }
}
