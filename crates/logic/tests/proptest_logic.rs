//! Property-based tests for the logic crate: evaluation laws, bisimulation
//! invariance (Proposition 4 on generated models, all four canonical
//! variants), quotient-side checking, and parser totality on displayed
//! formulas.

mod common;

use common::{all_variants, arb_formula_with, arb_graph, arb_mu_formula, ungrade};
use portnum_graph::{Graph, PortNumbering};
use portnum_logic::bisim::{
    refine, refine_bounded, refine_fixpoint, refine_fixpoint_from, BisimStyle,
};
use portnum_logic::plan::ModelChecker;
use portnum_logic::{
    characteristic, evaluate, is_nnf, minimum_base, nnf, parse, quotient, simplify, Formula,
    Kripke, ModalIndex, ModelDelta,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The single-relation (`K₋,₋`) formula distribution most tests here
/// use: [`arb_formula_with`] over the `Any` index family.
fn arb_formula() -> impl Strategy<Value = Formula> {
    arb_formula_with(|_i, _j| ModalIndex::Any)
}

/// The quotient of `model` along `level`, built without the engine's
/// CSR code: one `BTreeSet` of successor blocks per block and modality
/// (read through by-index `successors`), handed to `Kripke::from_parts`.
fn blockwise_quotient(model: &Kripke, level: &[usize]) -> Kripke {
    let blocks = level.iter().max().map_or(0, |&b| b + 1);
    let mut degree = vec![0; blocks];
    for (v, &b) in level.iter().enumerate() {
        degree[b] = model.degree(v);
    }
    let relations: BTreeMap<ModalIndex, Vec<Vec<usize>>> = model
        .indices()
        .map(|index| {
            let mut sets = vec![BTreeSet::new(); blocks];
            for (v, &b) in level.iter().enumerate() {
                sets[b].extend(model.successors(v, index).iter().map(|&w| level[w as usize]));
            }
            (index, sets.into_iter().map(|set| set.into_iter().collect()).collect())
        })
        .collect();
    Kripke::from_parts(model.variant(), degree, relations).expect("blocks are in range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quotient_equals_blockwise_set_oracle(g in arb_graph(), seed in any::<u64>()) {
        // All four variants (`K₊,₊` has many relations and empty rows),
        // on the coarsest partition and, after a delta, on the resumed
        // partition — stable, and possibly finer than the coarsest.
        let mut rng = StdRng::seed_from_u64(seed);
        for mut model in all_variants(&g, seed) {
            let classes = refine_fixpoint(&model, BisimStyle::Plain);
            let (q, map) = quotient(&model, &classes);
            prop_assert_eq!(&map[..], classes.final_level());
            prop_assert_eq!(q, blockwise_quotient(&model, classes.final_level()));

            let n = model.len() as u32;
            let mut delta = ModelDelta::new();
            if model.relation_count() > 0 && rng.random_bool(0.5) {
                let r = rng.random_range(0..model.relation_count());
                let (v, w) = (rng.random_range(0..n), rng.random_range(0..n));
                delta.add_edge(model.relation_index(r), v, w);
            } else {
                delta.crash_world(rng.random_range(0..n));
            }
            let touched = model.apply_delta(&delta).expect("valid edits");
            let resumed =
                refine_fixpoint_from(&model, BisimStyle::Plain, classes.final_level(), &touched);
            let (q, map) = quotient(&model, &resumed);
            prop_assert_eq!(&map[..], resumed.final_level());
            prop_assert_eq!(q, blockwise_quotient(&model, resumed.final_level()));
        }
    }

    #[test]
    fn check_via_quotient_matches_direct_checking(
        g in arb_graph(),
        seed in any::<u64>(),
        f_pp in arb_formula_with(ModalIndex::InOut),
        f_mp in arb_formula_with(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_formula_with(|i, _j| ModalIndex::In(i)),
        f_mm in arb_formula_with(|_i, _j| ModalIndex::Any),
    ) {
        // Theorem: ungraded truth factors through the bisimulation
        // quotient. `check_via_quotient` applies it — previously only
        // exercised on fixed fixtures, here on generated models across
        // all four canonical variants.
        let models = all_variants(&g, seed);
        let formulas = [&f_pp, &f_mp, &f_pm, &f_mm];
        for (model, f) in models.iter().zip(formulas) {
            let f = ungrade(f);
            let mut checker = ModelChecker::new(model);
            let via_quotient = checker.check_via_quotient(&f).unwrap();
            let direct = checker.check(&f).unwrap();
            prop_assert_eq!(
                &via_quotient, &*direct,
                "variant {:?} on {} with {}", model.variant(), g, f
            );
        }
    }

    #[test]
    fn plain_bisimilar_worlds_agree_on_ungraded_formulas(
        g in arb_graph(),
        seed in any::<u64>(),
        f_pp in arb_formula_with(ModalIndex::InOut),
        f_mp in arb_formula_with(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_formula_with(|i, _j| ModalIndex::In(i)),
        f_mm in arb_formula_with(|_i, _j| ModalIndex::Any),
    ) {
        // Proposition 4 (Fact 1a), on generated models: plainly
        // bisimilar worlds satisfy the same ML/MML formulas — all four
        // variants, not just K₋,₋ (the graded twin lives below).
        let models = all_variants(&g, seed);
        let formulas = [&f_pp, &f_mp, &f_pm, &f_mm];
        for (model, f) in models.iter().zip(formulas) {
            let f = ungrade(f);
            let classes = refine(model, BisimStyle::Plain);
            let truth = evaluate(model, &f).unwrap();
            for u in 0..model.len() {
                for v in u + 1..model.len() {
                    if classes.bisimilar(u, v) {
                        prop_assert_eq!(
                            truth[u], truth[v],
                            "variant {:?}: {} vs {} on {}", model.variant(), u, v, f
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn boolean_laws_hold_pointwise(g in arb_graph(), f in arb_formula(), h in arb_formula()) {
        let k = Kripke::k_mm(&g);
        let vf = evaluate(&k, &f).unwrap();
        let vh = evaluate(&k, &h).unwrap();
        let vand = evaluate(&k, &f.and(&h)).unwrap();
        let vor = evaluate(&k, &f.or(&h)).unwrap();
        let vneg = evaluate(&k, &f.not()).unwrap();
        for w in 0..k.len() {
            prop_assert_eq!(vand[w], vf[w] && vh[w]);
            prop_assert_eq!(vor[w], vf[w] || vh[w]);
            prop_assert_eq!(vneg[w], !vf[w]);
        }
        // De Morgan through the box dual.
        let box_f = Formula::box_(ModalIndex::Any, &f);
        let vbox = evaluate(&k, &box_f).unwrap();
        let vdia_neg = evaluate(&k, &Formula::diamond(ModalIndex::Any, &f.not())).unwrap();
        for w in 0..k.len() {
            prop_assert_eq!(vbox[w], !vdia_neg[w]);
        }
    }

    #[test]
    fn grades_are_antitone(g in arb_graph(), f in arb_formula()) {
        let k = Kripke::k_mm(&g);
        let mut prev = evaluate(&k, &Formula::diamond_geq(ModalIndex::Any, 0, &f)).unwrap();
        prop_assert!(prev.iter().all(|&b| b), "grade 0 is trivially true");
        for grade in 1..=4 {
            let cur = evaluate(&k, &Formula::diamond_geq(ModalIndex::Any, grade, &f)).unwrap();
            for w in 0..k.len() {
                prop_assert!(!cur[w] || prev[w], "⟨⟩≥{grade} implies ⟨⟩≥{}", grade - 1);
            }
            prev = cur;
        }
    }

    #[test]
    fn graded_bisimilar_worlds_agree(g in arb_graph(), f in arb_formula()) {
        let k = Kripke::k_mm(&g);
        let classes = refine(&k, BisimStyle::Graded);
        let truth = evaluate(&k, &f).unwrap();
        for u in 0..k.len() {
            for v in 0..k.len() {
                if classes.bisimilar(u, v) {
                    prop_assert_eq!(truth[u], truth[v], "{} vs {} on {}", u, v, f);
                }
            }
        }
    }

    #[test]
    fn bounded_refinement_respects_modal_depth(g in arb_graph(), f in arb_formula()) {
        let k = Kripke::k_mm(&g);
        let depth = f.modal_depth();
        let classes = refine_bounded(&k, BisimStyle::Graded, depth);
        let truth = evaluate(&k, &f).unwrap();
        for u in 0..k.len() {
            for v in 0..k.len() {
                if classes.equivalent_at(depth, u, v) {
                    prop_assert_eq!(truth[u], truth[v],
                        "depth-{} equivalent worlds {} and {} disagree on {}", depth, u, v, f);
                }
            }
        }
    }

    #[test]
    fn characteristic_formulas_are_exact(g in arb_graph(), depth in 0usize..=3) {
        let k = Kripke::k_mm(&g);
        for style in [BisimStyle::Plain, BisimStyle::Graded] {
            let chars = characteristic(&k, style, depth);
            for v in 0..k.len() {
                let truth = evaluate(&k, chars.formula_for(v, depth)).unwrap();
                for (w, &truth_w) in truth.iter().enumerate() {
                    prop_assert_eq!(
                        truth_w,
                        chars.classes().equivalent_at(depth, v, w),
                        "style {:?}, depth {}, worlds {} {}", style, depth, v, w
                    );
                }
            }
        }
    }

    #[test]
    fn quotient_preserves_ungraded_formulas(g in arb_graph(), f in arb_formula()) {
        // Strip grades so the formula lands in ML (set-based quotients do
        // not preserve counting).
        let f = ungrade(&f);
        let k = Kripke::k_mm(&g);
        let (q, map) = minimum_base(&k);
        let orig = evaluate(&k, &f).unwrap();
        let quot = evaluate(&q, &f).unwrap();
        for v in 0..k.len() {
            prop_assert_eq!(orig[v], quot[map[v]], "{} at {}", f, v);
        }
    }

    #[test]
    fn quotient_block_count_matches_refinement(g in arb_graph()) {
        let k = Kripke::k_mm(&g);
        let classes = refine(&k, BisimStyle::Plain);
        let (q, map) = minimum_base(&k);
        prop_assert_eq!(q.len(), classes.class_count(classes.depth()));
        for u in 0..k.len() {
            for v in 0..k.len() {
                prop_assert_eq!(map[u] == map[v], classes.bisimilar(u, v));
            }
        }
    }

    #[test]
    fn display_parse_identity(f in arb_formula()) {
        prop_assert_eq!(parse(&f.to_string()).unwrap(), f);
    }

    #[test]
    fn display_parse_identity_with_binders(f in arb_mu_formula(|_i, _j| ModalIndex::Any)) {
        // µ/ν binders survive the string round-trip the serve protocol
        // ships formulas through, structurally intact.
        prop_assert_eq!(parse(&f.to_string()).unwrap(), f);
    }

    #[test]
    fn binder_transforms_preserve_extension(
        g in arb_graph(),
        f in arb_mu_formula(|_i, _j| ModalIndex::Any),
    ) {
        let k = Kripke::k_mm(&g);
        let s = simplify(&f);
        prop_assert!(s.size() <= f.size(), "{} grew to {}", f, s);
        prop_assert_eq!(evaluate(&k, &f).unwrap(), evaluate(&k, &s).unwrap(), "{} vs {}", f, s);
        let n = nnf(&f);
        prop_assert!(is_nnf(&n), "nnf({}) = {} not normal", f, n);
        prop_assert_eq!(evaluate(&k, &f).unwrap(), evaluate(&k, &n).unwrap(), "{} vs {}", f, n);
    }

    #[test]
    fn simplify_preserves_extension_and_never_grows(g in arb_graph(), f in arb_formula()) {
        let k = Kripke::k_mm(&g);
        let s = simplify(&f);
        prop_assert!(s.size() <= f.size(), "{} grew to {}", f, s);
        prop_assert!(s.modal_depth() <= f.modal_depth());
        prop_assert_eq!(evaluate(&k, &f).unwrap(), evaluate(&k, &s).unwrap(), "{} vs {}", f, s);
        // Idempotent.
        prop_assert_eq!(simplify(&s.clone()), s);
    }

    #[test]
    fn nnf_preserves_extension_and_normalises(g in arb_graph(), f in arb_formula()) {
        let k = Kripke::k_mm(&g);
        let n = nnf(&f);
        prop_assert!(is_nnf(&n), "nnf({}) = {} not normal", f, n);
        prop_assert_eq!(n.modal_depth(), f.modal_depth());
        prop_assert_eq!(evaluate(&k, &f).unwrap(), evaluate(&k, &n).unwrap(), "{} vs {}", f, n);
        prop_assert_eq!(nnf(&n.clone()), n);
    }

    #[test]
    fn disjoint_union_preserves_truth(g in arb_graph(), h in arb_graph(), f in arb_formula()) {
        let ka = Kripke::k_mm(&g);
        let kb = Kripke::k_mm(&h);
        let ku = ka.disjoint_union(&kb);
        let va = evaluate(&ka, &f).unwrap();
        let vb = evaluate(&kb, &f).unwrap();
        let vu = evaluate(&ku, &f).unwrap();
        for w in 0..ka.len() {
            prop_assert_eq!(vu[w], va[w]);
        }
        for w in 0..kb.len() {
            prop_assert_eq!(vu[ka.len() + w], vb[w]);
        }
    }
}

#[test]
fn malformed_binders_answer_typed_errors() {
    // Typed `ParseError` values, never panics — the contract the serve
    // protocol's `BadFormula` frames rest on.
    for s in [
        "X",                      // unbound at top level
        "q1 | Y",                 // unbound under a connective
        "mu X . q1 | Y",          // unbound inside a binder body
        "mu X . mu X . X",        // shadowed binder
        "nu Y . (q1 & mu Y . Y)", // shadowed across binder kinds
        "mu X . !X",              // negative occurrence (non-monotone)
        "mu X",                   // missing dot and body
        "mu . X",                 // missing variable
    ] {
        let err = parse(s).expect_err(&format!("{s:?} must not parse"));
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn bisimulation_is_invariant_under_world_relabelling() {
    // Reversing node ids of a graph must not change the partition sizes.
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..10 {
        let g = portnum_graph::generators::gnp(8, 0.3, &mut rng);
        let n = g.len();
        let reversed_edges: Vec<(usize, usize)> =
            g.edges().map(|(u, v)| (n - 1 - u, n - 1 - v)).collect();
        let h = Graph::from_edges(n, &reversed_edges).unwrap();
        let ck = refine(&Kripke::k_mm(&g), BisimStyle::Plain);
        let ch = refine(&Kripke::k_mm(&h), BisimStyle::Plain);
        assert_eq!(ck.class_count(ck.depth()), ch.class_count(ch.depth()));
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    ck.bisimilar(u, v),
                    ch.bisimilar(n - 1 - u, n - 1 - v),
                    "relabelling must preserve bisimilarity"
                );
            }
        }
    }
}

#[test]
fn kripke_from_random_port_numberings_is_total_function_per_in_port() {
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..10 {
        let g = portnum_graph::generators::gnp(8, 0.4, &mut rng);
        let p = PortNumbering::random(&g, &mut rng);
        let k = Kripke::k_pm(&g, &p);
        for v in g.nodes() {
            for i in 0..g.degree(v) {
                assert_eq!(k.successors(v, ModalIndex::In(i)).len(), 1);
            }
            assert!(k.successors(v, ModalIndex::In(g.degree(v))).is_empty());
        }
    }
}
