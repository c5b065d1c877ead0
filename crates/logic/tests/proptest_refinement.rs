//! Property tests pinning the worklist refinement engine to a naive
//! reference implementation.
//!
//! The reference ([`common::reference_refine`]) mirrors the textbook
//! algorithm: per round, per world, build an explicit nested signature
//! `(prev block, per modality the sorted successor blocks with counts)`
//! keyed into a std `HashMap`. It is O(n²)-ish and allocation-heavy but
//! obviously correct, and it shares no storage with the engine. The
//! engine must produce the *same level vectors at every depth* — exact
//! `==`, not merely the same partitions — for both styles on all four
//! canonical model variants.

mod common;

use common::{all_variants, arb_graph, reference_refine};
use portnum_graph::generators;
use portnum_graph::partition::{Counting, Parallelism, WorklistRefiner};
use portnum_graph::resilience::ExecControl;
use portnum_graph::{Graph, PortNumbering};
use portnum_logic::bisim::{
    refine, refine_bounded, refine_controlled, refine_fixpoint, refine_fixpoint_stats, BisimStyle,
    RefineStats,
};
use portnum_logic::{Kripke, KripkeBuilder, ModalIndex, ModelVariant};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts that `refine` reproduces the reference level for level with
/// exact `==`, that its depth is the first stable level, and that the
/// stats-reporting fixpoint path agrees with it.
fn assert_matches_reference(model: &Kripke, style: BisimStyle, what: &str) {
    let fast = refine(model, style);
    assert!(fast.is_stable(), "{what}: refine must reach the fixpoint");
    let depth = fast.depth();
    let slow = reference_refine(model, style, depth);
    for (t, slow_level) in slow.iter().enumerate() {
        assert_eq!(
            fast.level(t),
            slow_level.as_slice(),
            "{what}: level {t}/{depth}"
        );
    }
    // The reported depth is the first level equal to its predecessor.
    if depth > 0 {
        assert_eq!(
            slow[depth],
            slow[depth - 1],
            "{what}: depth {depth} is not stable"
        );
    }
    for t in 1..depth {
        assert_ne!(slow[t], slow[t - 1], "{what}: level {t} was already stable");
    }
    // The stats-reporting fixpoint path agrees, and its touched counter
    // covers at least one sweep yet never exceeds re-signing every
    // world every round.
    let (lean, stats) = refine_fixpoint_stats(model, style);
    assert_eq!(lean.final_level(), fast.final_level(), "{what}: fixpoint");
    assert_eq!(stats.rounds, depth, "{what}: rounds");
    assert!(
        stats.encoded >= model.len().min(1),
        "{what}: encoded {}",
        stats.encoded
    );
    assert!(
        stats.encoded <= model.len() * stats.rounds.max(1),
        "{what}: encoded {} over {} rounds",
        stats.encoded,
        stats.rounds
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interned_refinement_matches_reference(g in arb_graph(), seed in any::<u64>()) {
        for model in all_variants(&g, seed) {
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let what = format!("variant {:?}, style {style:?} on {g}", model.variant());
                assert_matches_reference(&model, style, &what);
            }
        }
    }

    #[test]
    fn bounded_refinement_matches_reference_prefix(
        g in arb_graph(),
        seed in any::<u64>(),
        depth in 0usize..4,
    ) {
        for model in all_variants(&g, seed) {
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let fast = refine_bounded(&model, style, depth);
                let slow = reference_refine(&model, style, depth);
                prop_assert!(fast.depth() <= depth);
                for (t, slow_level) in slow.iter().enumerate() {
                    prop_assert_eq!(
                        fast.level(t),
                        slow_level.as_slice(),
                        "variant {:?}, style {:?}, depth {} (bound {})",
                        model.variant(), style, t, depth
                    );
                }
            }
        }
    }

    #[test]
    fn forced_parallel_worklist_matches_sequential_worklist(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let ctl = ExecControl::unrestricted();
        for model in all_variants(&g, seed) {
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let seq = refine_controlled(&model, style, Parallelism::Off, &ctl).unwrap();
                let par = refine_controlled(&model, style, Parallelism::Force, &ctl).unwrap();
                prop_assert_eq!(seq.depth(), par.depth());
                for t in 0..=seq.depth() {
                    prop_assert_eq!(
                        seq.level(t), par.level(t),
                        "variant {:?}, style {:?}, level {}", model.variant(), style, t
                    );
                }
            }
        }
    }

    #[test]
    fn unbounded_refine_is_stable_and_matches_bounded_n(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let n = g.len();
        for model in all_variants(&g, seed) {
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let free = refine(&model, style);
                let capped = refine_bounded(&model, style, n);
                prop_assert!(free.is_stable(), "refine must reach the fixpoint");
                prop_assert!(capped.is_stable(), "n rounds always pass the fixpoint");
                prop_assert_eq!(free.depth(), capped.depth());
                prop_assert_eq!(free.final_level(), capped.final_level());
                // The O(n)-memory fixpoint path agrees with the full run.
                let lean = refine_fixpoint(&model, style);
                prop_assert!(lean.is_stable());
                prop_assert_eq!(lean.final_level(), free.final_level());
                prop_assert_eq!(lean.depth(), free.depth());
            }
        }
    }
}

/// The near-discrete regime of the `offline` pass at a quarter of its
/// size: a 2¹²-world average-degree-3 `G(n, p)` `K₋,₋`, where ~93% of
/// the fixpoint's blocks are singletons, so almost every encoded
/// signature is new to its round's intern table. Every level must equal
/// the naive reference's under both thread-count extremes, and the
/// worklist engine's counters must equal the values recorded before
/// its intern tables stopped allocating a key per new signature.
#[test]
fn near_discrete_gnp_fixpoints_agree_across_engines_with_pinned_stats() {
    let n = 1usize << 12;
    let p = 3.0 / n as f64;
    let model = KripkeBuilder::new(ModelVariant::MinusMinus, n)
        .relation(ModalIndex::Any, move || generators::gnp_edges(n, p, 12))
        .degrees_from_streams()
        .build()
        .expect("gnp stream stays in range");
    let pinned = |rounds, encoded, moved| RefineStats { rounds, encoded, moved, parallel_rounds: 0 };
    for (style, counting, expect) in [
        (BisimStyle::Graded, Counting::Multiset, pinned(5, 12700, 6856)),
        (BisimStyle::Plain, Counting::Distinct, pinned(5, 12854, 7158)),
    ] {
        let (lean, stats) = refine_fixpoint_stats(&model, style);
        assert_eq!(lean.class_count(lean.depth()), 3817, "{style:?}: near-discrete fixpoint");
        assert_eq!((stats.rounds, stats.encoded, stats.moved), (expect.rounds, expect.encoded, expect.moved));
        let slow = reference_refine(&model, style, expect.rounds);
        let ctl = ExecControl::unrestricted();
        for par in [Parallelism::Off, Parallelism::Force] {
            let full = refine_controlled(&model, style, par, &ctl).unwrap();
            assert_eq!(full.depth(), expect.rounds, "{style:?} {par:?}");
            assert_eq!(full.final_level(), lean.final_level(), "{style:?} {par:?}");
            for (t, slow_level) in slow.iter().enumerate() {
                assert_eq!(
                    full.level(t),
                    slow_level.as_slice(),
                    "{style:?} {par:?} level {t}"
                );
            }
        }
        // Full counters per thread-count extreme, off the engine itself:
        // every round with a frontier goes to the pool under `Force`.
        let relations = model.relations_csr();
        for (par, parallel_rounds) in [(Parallelism::Off, 0), (Parallelism::Force, 5)] {
            let seeds = (0..n).map(|v| model.degree(v) as u64);
            let mut refiner = WorklistRefiner::new(n, &relations, counting, seeds);
            refiner.parallelism(par);
            refiner.observe_levels(false);
            while refiner.round() {}
            assert_eq!(refiner.stats(), RefineStats { parallel_rounds, ..expect }, "{style:?} {par:?}");
        }
    }
}

/// Fixed graphs, level by level against the reference on three
/// variants: the long-diameter paths (one world settles per round), a
/// star, the Theorem 13 witness (plain and graded styles split
/// differently), a disconnected union, and seeded sparse `G(n, p)`.
#[test]
fn fixed_graphs_match_reference_level_by_level() {
    let mut rng = StdRng::seed_from_u64(29);
    let mut graphs = vec![
        generators::path(17),
        generators::path(1024),
        generators::star(5),
        generators::theorem13_witness().0,
        Graph::disjoint_union(&[&generators::cycle(3), &generators::cycle(4)]),
    ];
    for _ in 0..3 {
        graphs.push(generators::gnp(14, 0.25, &mut rng));
    }
    for _ in 0..3 {
        graphs.push(generators::gnp(300, 0.01, &mut rng));
    }
    for g in graphs {
        let p = PortNumbering::random(&g, &mut rng);
        for k in [Kripke::k_mm(&g), Kripke::k_pp(&g, &p), Kripke::k_mp(&g, &p)] {
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let what = format!("{:?} {style:?} on {} worlds", k.variant(), g.len());
                assert_matches_reference(&k, style, &what);
            }
        }
    }
}
