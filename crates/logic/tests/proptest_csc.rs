//! Deterministic checks of the CSC gather, the reverse diamond path:
//! explicit grades {0, 1, k} under every [`DiamondMode`], sequential
//! and pool-forced, pinned bit-identical to
//! [`evaluate_packed_recursive`] with strategy counts, and the graded
//! count merge across entry shards.
//!
//! The randomized mode sweep (all four variants × random formulas ×
//! every mode × sequential vs forced, with the same strategy-count
//! asserts) lives in `proptest_eval`.

mod common;

use common::execute_pinned;
use portnum_graph::partition::Parallelism;
use portnum_logic::plan::{DiamondMode, Plan};
use portnum_logic::{evaluate_packed_recursive, Formula, Kripke, ModalIndex};

const ALL_MODES: [DiamondMode; 3] = [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Csc];

#[test]
fn explicit_grade_matrix_matches_recursive() {
    // Deterministic {0, 1, k} coverage on two small cycles.
    for n in [4usize, 9] {
        let k = Kripke::k_mm(&portnum_graph::generators::cycle(n));
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
            // diamond on exactly the pinned strategy.
            if grade > 0 {
                let (_, stats) = plan.execute_with(&k, DiamondMode::Csc);
                assert_eq!((stats.csc_diamonds, stats.forward_diamonds), (1, 0));
                let (_, stats) = plan.execute_with(&k, DiamondMode::Forward);
                assert_eq!((stats.csc_diamonds, stats.forward_diamonds), (0, 1));
            }
        }
    }
}

#[test]
fn sharded_graded_counts_merge_across_chunks() {
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
    // Leaves have degree 1, so ⟨⟩₂₀₀ q₁ counts the hub's 300 q₁
    // leaf-successors and holds exactly at the hub.
    let f = Formula::diamond_geq(ModalIndex::Any, grade, &Formula::prop(1));
    let reference = evaluate_packed_recursive(&k, &f).unwrap();
    assert_eq!(reference.count_ones(), 1, "only the hub sees {grade}+ leaves");
    let plan = Plan::compile(&k, &f).unwrap();
    for mode in [DiamondMode::Auto, DiamondMode::Csc] {
        let (mut seq, ss) = plan.execute_with(&k, mode);
        let (mut par, ps) = execute_pinned(&plan, &k, mode, Parallelism::Force);
        assert_eq!(seq.pop().unwrap(), reference, "mode {mode:?}");
        assert_eq!(par.pop().unwrap(), reference, "mode {mode:?}");
        if mode == DiamondMode::Csc {
            // (Auto is free to prefer the forward sweep on a star.)
            assert_eq!(ss.csc_diamonds, 1, "graded must gather via CSC");
            assert_eq!(ps.csc_diamonds, 1);
        }
    }
}
