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
use portnum_graph::partition::Parallelism;
use portnum_graph::{Graph, PortNumbering};
use portnum_logic::bisim::{
    refine, refine_bounded, refine_fixpoint, refine_fixpoint_stats, refine_with, BisimStyle,
    RefineEngine,
};
use portnum_logic::{Kripke, ModalIndex};
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
