//! Differential matrix for the three-way diamond path, run **above a
//! test-shrunk dense cap** so the CSC gather actually fires on
//! proptest-sized models.
//!
//! The real [`REVERSE_WORD_CAP`] sits at 2²¹ words — far beyond any
//! model proptest can afford — so every test in this binary first
//! shrinks the effective cap to [`TEST_CAP`] words. Models with more
//! than `TEST_CAP` worlds (`predecessor_matrix_words() == n` for `n ≤
//! 64`) are then "huge": the dense `BitMatrix` rows are illegal and
//! the reverse path must run on the CSC store, exactly as it does
//! beyond 2²¹ words in production.
//!
//! The matrix: all four canonical variants × random formulas with
//! grades {0, 1, k} × every [`DiamondMode`] × sequential and
//! pool-forced execution, each pinned bit-identical to
//! [`evaluate_packed_recursive`] — plus strategy-count assertions that
//! the over-cap models really did take the CSC path.
//!
//! The cap override is process-global, which is why this matrix lives
//! in its own test binary: every test here shrinks the cap to the same
//! value, so concurrent tests can never flip a strategy mid-run.

mod common;

use common::{all_variants, arb_formula_with, arb_graph, execute_pinned};
use portnum_graph::partition::Parallelism;
use portnum_logic::plan::{
    set_reverse_word_cap_for_tests, DiamondMode, Plan, REVERSE_WORD_CAP,
};
use portnum_logic::{evaluate_packed_recursive, Formula, Kripke, ModalIndex};
use proptest::prelude::*;

/// The shrunk dense cap (in `u64` words) every test in this binary
/// runs under. `arb_graph` generates 2–9 worlds, so roughly half the
/// generated models sit just above it — the "huge sparse model"
/// regime, scaled down.
const TEST_CAP: usize = 4;

const _: () = assert!(TEST_CAP < REVERSE_WORD_CAP);

fn shrink_cap() {
    set_reverse_word_cap_for_tests(TEST_CAP);
}

const ALL_MODES: [DiamondMode; 4] =
    [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Reverse, DiamondMode::Csc];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csc_matrix_matches_recursive_above_the_shrunk_cap(
        g in arb_graph(),
        seed in any::<u64>(),
        f_pp in arb_formula_with(ModalIndex::InOut),
        f_mp in arb_formula_with(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_formula_with(|i, _j| ModalIndex::In(i)),
        f_mm in arb_formula_with(|_i, _j| ModalIndex::Any),
    ) {
        shrink_cap();
        let models = all_variants(&g, seed);
        let formulas = [&f_pp, &f_mp, &f_pm, &f_mm];
        for (model, f) in models.iter().zip(formulas) {
            let above_cap = model.predecessor_matrix_words() > TEST_CAP;
            let reference = evaluate_packed_recursive(model, f).unwrap();
            let plan = Plan::compile(model, f).unwrap();
            for mode in ALL_MODES {
                // Sequential and pool-forced execution, bit-identical
                // to the recursive engine and to each other.
                let (mut seq, ss) = plan.execute_with(model, mode);
                let (mut par, ps) = execute_pinned(&plan, model, mode, Parallelism::Force);
                prop_assert_eq!(
                    seq.pop().unwrap(), reference.clone(),
                    "variant {:?}, mode {:?}, above_cap {}, formula {}",
                    model.variant(), mode, above_cap, f
                );
                prop_assert_eq!(par.pop().unwrap(), reference.clone());
                prop_assert_eq!(ss.forward_diamonds, ps.forward_diamonds);
                prop_assert_eq!(ss.reverse_diamonds, ps.reverse_diamonds);
                prop_assert_eq!(ss.csc_diamonds, ps.csc_diamonds);
                // Above the cap the dense rows are illegal: no mode
                // may count a dense-reverse diamond.
                if above_cap {
                    prop_assert_eq!(
                        ss.reverse_diamonds, 0,
                        "dense rows above the cap (mode {:?}, formula {})", mode, f
                    );
                }
                match mode {
                    // Reverse never walks forward: everything
                    // reverse-shaped goes dense (below cap, grade 1)
                    // or CSC (everything else).
                    DiamondMode::Reverse => prop_assert_eq!(ss.forward_diamonds, 0),
                    DiamondMode::Csc => {
                        prop_assert_eq!(ss.forward_diamonds + ss.reverse_diamonds, 0);
                    }
                    DiamondMode::Forward => {
                        prop_assert_eq!(ss.reverse_diamonds + ss.csc_diamonds, 0);
                    }
                    DiamondMode::Auto => {}
                }
            }
        }
    }

    #[test]
    fn above_cap_reverse_diamonds_fire_the_csc_path(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        shrink_cap();
        // A guaranteed grade-1 diamond per variant: ⟨α⟩⊤ over the
        // model's first stored relation. On above-cap models the
        // Reverse mode *must* execute it as a CSC gather — the
        // scenario the dense cap used to foreclose.
        for model in all_variants(&g, seed).iter() {
            let Some(index) = model.indices().next() else { continue };
            let f = Formula::diamond(index, &Formula::top());
            let reference = evaluate_packed_recursive(model, &f).unwrap();
            let plan = Plan::compile(model, &f).unwrap();
            let (mut out, stats) = plan.execute_with(model, DiamondMode::Reverse);
            prop_assert_eq!(out.pop().unwrap(), reference, "variant {:?}", model.variant());
            if model.predecessor_matrix_words() > TEST_CAP {
                prop_assert_eq!(stats.csc_diamonds, 1, "above-cap must gather via CSC");
                prop_assert_eq!(stats.reverse_diamonds, 0);
            } else {
                prop_assert_eq!(stats.reverse_diamonds, 1, "below-cap keeps dense rows");
                prop_assert_eq!(stats.csc_diamonds, 0);
            }
        }
    }
}

#[test]
fn explicit_grade_matrix_above_and_below_the_shrunk_cap() {
    shrink_cap();
    // Deterministic {0, 1, k} coverage on one model either side of the
    // shrunk cap: cycle(4) sits at 4 words (dense legal), cycle(9) at
    // 9 words (dense illegal).
    for n in [4usize, 9] {
        let k = Kripke::k_mm(&portnum_graph::generators::cycle(n));
        let above_cap = k.predecessor_matrix_words() > TEST_CAP;
        assert_eq!(above_cap, n > TEST_CAP);
        for grade in [0usize, 1, 2, 3] {
            let f = Formula::diamond_geq(ModalIndex::Any, grade, &Formula::prop(2));
            let reference = evaluate_packed_recursive(&k, &f).unwrap();
            let plan = Plan::compile(&k, &f).unwrap();
            for mode in ALL_MODES {
                let (mut seq, _) = plan.execute_with(&k, mode);
                let (mut par, _) = execute_pinned(&plan, &k, mode, Parallelism::Force);
                assert_eq!(seq.pop().unwrap(), reference, "n {n}, grade {grade}, mode {mode:?}");
                assert_eq!(par.pop().unwrap(), reference, "n {n}, grade {grade}, mode {mode:?}");
            }
            // Grade 0 folds to ⊤ at lowering; the others execute one
            // diamond whose Reverse implementation is pinned by the cap
            // (dense for grade 1 below it, CSC otherwise).
            if grade > 0 {
                let (_, stats) = plan.execute_with(&k, DiamondMode::Reverse);
                let dense_legal = grade == 1 && !above_cap;
                assert_eq!(stats.reverse_diamonds, usize::from(dense_legal));
                assert_eq!(stats.csc_diamonds, usize::from(!dense_legal));
                assert_eq!(stats.forward_diamonds, 0);
            }
        }
    }
}

#[test]
fn sharded_graded_counts_merge_across_chunks() {
    shrink_cap();
    // The cross-chunk counting trap: a star's hub has one predecessor
    // row holding all 300 leaves, and entry-quantile sharding splits
    // that single row across every chunk. With grade 200 no chunk can
    // reach the threshold on its own (two chunks see ≤ 150 entries
    // each, more chunks see fewer) — the hub is satisfied only if the
    // per-chunk counts are *merged before* thresholding. An
    // implementation that thresholds per chunk returns ∅ here.
    let leaves = 300usize;
    let grade = 200usize;
    let k = Kripke::k_mm(&portnum_graph::generators::star(leaves));
    assert!(k.predecessor_matrix_words() > TEST_CAP);
    // Leaves have degree 1, so ⟨⟩₂₀₀ q₁ counts the hub's 300 q₁
    // leaf-successors and holds exactly at the hub.
    let f = Formula::diamond_geq(ModalIndex::Any, grade, &Formula::prop(1));
    let reference = evaluate_packed_recursive(&k, &f).unwrap();
    assert_eq!(reference.count_ones(), 1, "only the hub sees {grade}+ leaves");
    let plan = Plan::compile(&k, &f).unwrap();
    for mode in [DiamondMode::Auto, DiamondMode::Reverse, DiamondMode::Csc] {
        let (mut seq, ss) = plan.execute_with(&k, mode);
        let (mut par, ps) = execute_pinned(&plan, &k, mode, Parallelism::Force);
        assert_eq!(seq.pop().unwrap(), reference, "mode {mode:?}");
        assert_eq!(par.pop().unwrap(), reference, "mode {mode:?}");
        if mode != DiamondMode::Auto {
            // (Auto is free to prefer the forward sweep on a star.)
            assert_eq!(ss.csc_diamonds, 1, "graded above-cap must gather via CSC");
            assert_eq!(ps.csc_diamonds, 1);
        }
    }
}
