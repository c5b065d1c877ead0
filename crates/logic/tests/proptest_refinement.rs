//! Property tests pinning the interned-signature refinement engine to a
//! naive reference implementation.
//!
//! The reference mirrors the textbook algorithm (and the pre-CSR
//! implementation): per round, per world, build an explicit nested
//! signature `(prev block, per modality the sorted successor blocks with
//! counts)` keyed into a `HashMap`. It is O(n²)-ish and allocation-heavy
//! but obviously correct; the engine must produce the *same partitions at
//! every depth* for both styles on all four canonical model variants.

mod common;

use common::arb_graph;
use portnum_graph::generators;
use portnum_graph::partition::{Counting, Parallelism, WorklistRefiner};
use portnum_graph::{Graph, PortNumbering};
use portnum_logic::bisim::{
    refine, refine_bounded, refine_fixpoint, refine_fixpoint_stats, refine_with, BisimStyle,
    RefineEngine, RefineStats,
};
use portnum_logic::{Kripke, KripkeBuilder, ModalIndex, ModelVariant};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Naive reference refinement: all levels, nested-`Vec` signatures.
fn reference_refine(model: &Kripke, style: BisimStyle, rounds: usize) -> Vec<Vec<usize>> {
    let n = model.len();
    let indices: Vec<ModalIndex> = model.indices().collect();

    let mut ids: HashMap<usize, usize> = HashMap::new();
    let level0: Vec<usize> = (0..n)
        .map(|v| {
            let fresh = ids.len();
            *ids.entry(model.degree(v)).or_insert(fresh)
        })
        .collect();
    let mut levels = vec![level0];

    for _ in 0..rounds {
        let prev = levels.last().expect("depth 0");
        type Sig = (usize, Vec<Vec<(usize, usize)>>);
        let mut sigs: HashMap<Sig, usize> = HashMap::new();
        let mut next = vec![0usize; n];
        for v in 0..n {
            let mut per_index = Vec::with_capacity(indices.len());
            for &index in &indices {
                let mut blocks: Vec<usize> =
                    model.successors(v, index).iter().map(|&w| prev[w as usize]).collect();
                blocks.sort_unstable();
                let mut counted: Vec<(usize, usize)> = Vec::new();
                for b in blocks {
                    match counted.last_mut() {
                        Some((last, c)) if *last == b => *c += 1,
                        _ => counted.push((b, 1)),
                    }
                }
                if style == BisimStyle::Plain {
                    for entry in &mut counted {
                        entry.1 = 1;
                    }
                }
                per_index.push(counted);
            }
            let fresh = sigs.len();
            next[v] = *sigs.entry((prev[v], per_index)).or_insert(fresh);
        }
        levels.push(next);
    }
    levels
}

/// Renumbers a partition to dense first-seen ids so two partitions are
/// equal as vectors iff they induce the same blocks.
fn canonical(partition: &[usize]) -> Vec<usize> {
    let mut ids: HashMap<usize, usize> = HashMap::new();
    partition
        .iter()
        .map(|&b| {
            let fresh = ids.len();
            *ids.entry(b).or_insert(fresh)
        })
        .collect()
}

fn all_variants(g: &Graph, p: &PortNumbering) -> [Kripke; 4] {
    [Kripke::k_pp(g, p), Kripke::k_mp(g, p), Kripke::k_pm(g, p), Kripke::k_mm(g)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interned_refinement_matches_reference(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        for model in all_variants(&g, &p) {
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let fast = refine(&model, style);
                let slow = reference_refine(&model, style, fast.depth());
                prop_assert!(fast.is_stable());
                for (t, slow_level) in slow.iter().enumerate() {
                    prop_assert_eq!(
                        canonical(fast.level(t)),
                        canonical(slow_level),
                        "variant {:?}, style {:?}, depth {}/{} on {}",
                        model.variant(), style, t, fast.depth(), g
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_refinement_matches_reference_prefix(
        g in arb_graph(),
        seed in any::<u64>(),
        depth in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        for model in all_variants(&g, &p) {
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let fast = refine_bounded(&model, style, depth);
                let slow = reference_refine(&model, style, depth);
                prop_assert!(fast.depth() <= depth);
                for t in 0..=depth {
                    prop_assert_eq!(
                        canonical(fast.level(t)),
                        canonical(&slow[t.min(slow.len() - 1)]),
                        "variant {:?}, style {:?}, depth {} (bound {})",
                        model.variant(), style, t, depth
                    );
                }
            }
        }
    }

    #[test]
    fn forced_parallel_refinement_matches_sequential(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        // The full-round engine's chunked encode + in-order intern path
        // must produce levels BIT-identical (not just partition-equal)
        // to its sequential path, far below the auto-parallel threshold.
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        for model in all_variants(&g, &p) {
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let seq = refine_with(&model, style, RefineEngine::Rounds, Parallelism::Off);
                let par = refine_with(&model, style, RefineEngine::Rounds, Parallelism::Force);
                prop_assert!(par.is_stable());
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
    fn worklist_engine_matches_rounds_engine(g in arb_graph(), seed in any::<u64>()) {
        // The incremental worklist engine and the full-round reference
        // must agree BIT-identically (canonical ids, not just
        // partition-equal) at every level, on every variant and style.
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        for model in all_variants(&g, &p) {
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let wl = refine_with(&model, style, RefineEngine::Worklist, Parallelism::Auto);
                let rd = refine_with(&model, style, RefineEngine::Rounds, Parallelism::Auto);
                prop_assert_eq!(wl.depth(), rd.depth(), "variant {:?}", model.variant());
                prop_assert_eq!(wl.is_stable(), rd.is_stable());
                for t in 0..=wl.depth() {
                    prop_assert_eq!(
                        wl.level(t), rd.level(t),
                        "variant {:?}, style {:?}, level {}", model.variant(), style, t
                    );
                }
                // The stats-reporting fixpoint path agrees too, and its
                // touched counter can never beat one full sweep yet
                // never exceeds the full-round engine's bill.
                let (lean, stats) = refine_fixpoint_stats(&model, style);
                prop_assert_eq!(lean.final_level(), wl.final_level());
                prop_assert_eq!(stats.rounds, wl.depth());
                prop_assert!(stats.encoded >= model.len().min(1));
                prop_assert!(stats.encoded <= model.len() * stats.rounds.max(1));
            }
        }
    }

    #[test]
    fn forced_parallel_worklist_matches_sequential_worklist(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        for model in all_variants(&g, &p) {
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let seq = refine_with(&model, style, RefineEngine::Worklist, Parallelism::Off);
                let par = refine_with(&model, style, RefineEngine::Worklist, Parallelism::Force);
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
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        let n = g.len();
        for model in all_variants(&g, &p) {
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
/// signature is new to its round's intern table. Both fixpoints must be
/// identical on both engines under both thread-count extremes, and the
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
        for engine in [RefineEngine::Worklist, RefineEngine::Rounds] {
            for par in [Parallelism::Off, Parallelism::Force] {
                let full = refine_with(&model, style, engine, par);
                assert_eq!(full.depth(), expect.rounds, "{style:?} {engine:?} {par:?}");
                assert_eq!(full.final_level(), lean.final_level(), "{style:?} {engine:?} {par:?}");
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
