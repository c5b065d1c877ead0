//! Colour refinement (1-dimensional Weisfeiler–Leman).
//!
//! Starting from the degree partition, each round replaces a node's colour
//! with the *multiset* of its neighbours' colours. This is exactly graded
//! bisimulation refinement on the Kripke model `K_{-,-}(G)` of the paper
//! (the logic crate cross-validates the equivalence), and characterises what
//! `Multiset ∩ Broadcast` algorithms can distinguish.
//!
//! Rounds run on the incremental **worklist engine** of
//! [`crate::partition`] ([`crate::partition::WorklistRefiner`]): a round
//! re-colours only nodes whose neighbourhood colours can have changed
//! (the dirty frontier — predecessors of nodes that split off last
//! round), which turns near-stable rounds from Θ(n) into O(changed).
//! Levels use the dense first-seen ids and stability criterion that
//! `portnum-logic` uses for (g-)bisimulation, so the two notions are
//! comparable level by level. Rounds with at least
//! [`crate::partition::PARALLEL_THRESHOLD`] signature words of encode
//! work fan the encode phase out over the persistent worker pool
//! ([`crate::pool`]); the sequential group phase keeps colour ids
//! bit-identical to the single-threaded path.
//!
//! This module's tests pin the worklist engine level for level to a
//! naive reference that re-colours every node every round, keying
//! `(prev colour, multiset of neighbour colours)` in a std `HashMap`.

use crate::graph::{Graph, NodeId};
use crate::partition::{Counting, Parallelism, RelationCsr, WorklistRefiner};

/// Per-round colour classes: `levels[t][v]` is node `v`'s colour after `t`
/// refinement rounds; colours are contiguous small integers per round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorClasses {
    levels: Vec<Vec<usize>>,
}

impl ColorClasses {
    /// Maps a query depth to a stored level. Depths within the computed
    /// range pass through; deeper depths clamp to the final level, but
    /// only when that level is provably stable — equal to its
    /// predecessor (as [`stable_coloring`] guarantees) or empty (a
    /// graph with no nodes has only one partition, so every depth is
    /// the fixpoint even at `rounds == 0`). Clamping a *truncated*
    /// refinement would silently return a coarser partition, so that
    /// case panics instead.
    fn cap(&self, t: usize) -> usize {
        let last = self.levels.len() - 1;
        if t <= last {
            return t;
        }
        let stable = (last >= 1 && self.levels[last] == self.levels[last - 1])
            || self.levels[last].is_empty();
        assert!(
            stable,
            "depth-{t} query on a refinement truncated at round {last}; \
             rerun with more rounds or use stable_coloring"
        );
        last
    }

    /// Colour of `v` after `t` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `t` exceeds the computed rounds and the final partition
    /// is not stable (see the clamping rules on `cap` above); once
    /// stable, deeper rounds repeat the final partition and are clamped.
    pub fn class(&self, t: usize, v: NodeId) -> usize {
        self.level(t)[v]
    }

    /// The full colouring after `t` rounds (same clamping rules as
    /// [`ColorClasses::class`]).
    pub fn level(&self, t: usize) -> &[usize] {
        &self.levels[self.cap(t)]
    }

    /// Number of refinement rounds computed.
    pub fn rounds(&self) -> usize {
        self.levels.len() - 1
    }

    /// Number of distinct colours after `t` rounds (same clamping rules
    /// as [`ColorClasses::class`]).
    pub fn class_count(&self, t: usize) -> usize {
        self.level(t).iter().max().map_or(0, |&m| m + 1)
    }

    /// First round whose partition equals the previous round's, if any.
    pub fn stable_round(&self) -> Option<usize> {
        (1..self.levels.len())
            .find(|&t| self.levels[t] == self.levels[t - 1])
            .map(|t| t - 1)
    }
}

/// The adjacency lists of `g` packed as one CSR relation (`u32`
/// targets), the worklist engine's input shape.
fn graph_csr(g: &Graph) -> (Vec<usize>, Vec<u32>) {
    assert!(g.len() <= u32::MAX as usize, "graphs are capped at 2^32 nodes");
    let mut offsets = Vec::with_capacity(g.len() + 1);
    let mut targets = Vec::with_capacity(2 * g.edge_count());
    offsets.push(0);
    for v in g.nodes() {
        targets.extend(g.neighbors(v).iter().map(|&u| u as u32));
        offsets.push(targets.len());
    }
    (offsets, targets)
}

/// Worklist-engine colour refinement: `bound = Some(r)` runs exactly
/// `r` rounds (rounds past the fixpoint are free — the dirty frontier
/// is empty), `None` runs to the first stable round and reports it.
fn worklist_coloring(
    g: &Graph,
    bound: Option<usize>,
    par: Parallelism,
) -> (ColorClasses, Option<usize>) {
    let (offsets, targets) = graph_csr(g);
    let rel = RelationCsr { offsets: &offsets, targets: &targets };
    let mut refiner = WorklistRefiner::new(
        g.len(),
        std::slice::from_ref(&rel),
        Counting::Multiset,
        g.nodes().map(|v| g.degree(v) as u64),
    );
    refiner.parallelism(par);
    let mut level = Vec::new();
    refiner.canonical_level_into(&mut level);
    let mut levels = vec![level.clone()];
    match bound {
        Some(rounds) => {
            for _ in 0..rounds {
                refiner.round();
                refiner.canonical_level_into(&mut level);
                levels.push(level.clone());
            }
            (ColorClasses { levels }, None)
        }
        None => loop {
            let changed = refiner.round();
            refiner.canonical_level_into(&mut level);
            levels.push(level.clone());
            if !changed {
                let round = levels.len() - 2;
                return (ColorClasses { levels }, Some(round));
            }
            debug_assert!(levels.len() <= g.len().max(1) + 1, "refinement failed to stabilise");
        },
    }
}

/// Runs colour refinement for exactly `rounds` rounds (even past the
/// stable point — use [`stable_coloring`] to stop at the fixpoint).
///
/// # Examples
///
/// ```
/// use portnum_graph::{generators, refinement};
///
/// // All nodes of any cycle share a colour forever.
/// let c = refinement::color_refinement(&generators::cycle(7), 5);
/// assert_eq!(c.class_count(5), 1);
/// ```
pub fn color_refinement(g: &Graph, rounds: usize) -> ColorClasses {
    worklist_coloring(g, Some(rounds), Parallelism::Auto).0
}

/// Runs colour refinement to stability; returns the classes and the round at
/// which the partition stabilised.
///
/// Unlike [`color_refinement`] this stops at the first stable round
/// instead of running a fixed `n` rounds, so highly symmetric graphs
/// (which stabilise in O(1) rounds) cost O(1) rounds. The returned
/// [`ColorClasses`] contains levels `0..=round + 1` (the last two levels
/// are equal, witnessing stability).
pub fn stable_coloring(g: &Graph) -> (ColorClasses, usize) {
    let (classes, round) = worklist_coloring(g, None, Parallelism::Auto);
    (classes, round.expect("unbounded run reports its stable round"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Graph;
    use std::collections::HashMap;

    /// The naive reference: every node re-coloured every round, its
    /// next colour the first-seen id of `(prev colour, sorted
    /// (neighbour colour, count) runs)` in a std `HashMap`. Same
    /// contract as [`worklist_coloring`] — `Some(r)` runs exactly `r`
    /// rounds, `None` stops at (and reports) the first stable round.
    fn rounds_coloring(g: &Graph, bound: Option<usize>) -> (ColorClasses, Option<usize>) {
        let mut degrees: HashMap<usize, usize> = HashMap::new();
        let level0 = g
            .nodes()
            .map(|v| {
                let fresh = degrees.len();
                *degrees.entry(g.degree(v)).or_insert(fresh)
            })
            .collect();
        let mut levels: Vec<Vec<usize>> = vec![level0];
        loop {
            if bound.is_some_and(|rounds| levels.len() > rounds) {
                return (ColorClasses { levels }, None);
            }
            let prev = levels.last().expect("depth 0");
            let mut sigs: HashMap<(usize, Vec<(usize, usize)>), usize> = HashMap::new();
            let next: Vec<usize> = g
                .nodes()
                .map(|v| {
                    let mut colours: Vec<usize> = g.neighbors(v).iter().map(|&u| prev[u]).collect();
                    colours.sort_unstable();
                    let mut counted: Vec<(usize, usize)> = Vec::new();
                    for c in colours {
                        match counted.last_mut() {
                            Some((last, k)) if *last == c => *k += 1,
                            _ => counted.push((c, 1)),
                        }
                    }
                    let fresh = sigs.len();
                    *sigs.entry((prev[v], counted)).or_insert(fresh)
                })
                .collect();
            let stable = next == *prev;
            levels.push(next);
            if bound.is_none() {
                if stable {
                    let round = levels.len() - 2;
                    return (ColorClasses { levels }, Some(round));
                }
                // A partition on n nodes can only split n - 1 times.
                debug_assert!(levels.len() <= g.len().max(1) + 1, "refinement failed to stabilise");
            }
        }
    }

    #[test]
    fn cycles_of_different_lengths_are_wl_equivalent() {
        let g = Graph::disjoint_union(&[&generators::cycle(3), &generators::cycle(4)]);
        let (classes, round) = stable_coloring(&g);
        assert_eq!(classes.class_count(round), 1);
    }

    #[test]
    fn path_refines_by_distance_to_ends() {
        let g = generators::path(5);
        let (classes, round) = stable_coloring(&g);
        let level = classes.level(round);
        assert_eq!(level[0], level[4]);
        assert_eq!(level[1], level[3]);
        assert_ne!(level[0], level[2]);
        assert_eq!(classes.class_count(round), 3);
    }

    #[test]
    fn theorem13_witness_white_nodes_share_wl_colour_initially_but_not_under_counting() {
        // Colour refinement (multiset-based!) *does* separate the white
        // nodes of the Theorem 13 witness — that is exactly why the problem
        // is solvable in MB. The set-based bisimulation of the logic crate
        // does not separate them.
        let (g, (a, b)) = generators::theorem13_witness();
        let (classes, round) = stable_coloring(&g);
        assert_ne!(classes.class(round, a), classes.class(round, b));
        // At round 0 they agree (same degree).
        assert_eq!(classes.class(0, a), classes.class(0, b));
    }

    #[test]
    fn refinement_is_monotone_and_stabilises() {
        let g = generators::grid(3, 3);
        let (classes, round) = stable_coloring(&g);
        for t in 1..=round {
            assert!(classes.class_count(t) >= classes.class_count(t - 1));
        }
        // Once stable, later rounds keep the same partition.
        let more = color_refinement(&g, round + 3);
        assert_eq!(more.level(round), more.level(round + 3));
    }

    #[test]
    fn regular_graphs_stay_monochromatic() {
        for g in [generators::petersen(), generators::hypercube(3), generators::no_one_factor(3)] {
            let (classes, round) = stable_coloring(&g);
            assert_eq!(classes.class_count(round), 1, "{g}");
        }
    }

    #[test]
    fn class_queries_clamp_past_the_computed_rounds() {
        // stable_coloring keeps only the rounds up to the fixpoint; deeper
        // queries must clamp (the partition no longer changes), matching
        // the behaviour of the pre-early-stop implementation which simply
        // kept refining a stable partition.
        let g = generators::cycle(100);
        let (classes, round) = stable_coloring(&g);
        assert_eq!(classes.class(round + 5, 0), classes.class(round, 0));
        assert_eq!(classes.level(1_000), classes.level(round));
        assert_eq!(classes.class_count(1_000), 1);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_refinements_do_not_clamp() {
        // A long path keeps refining well past round 1; querying deeper
        // than the computed rounds on a truncated run must fail loudly,
        // not silently return the coarse round-1 partition.
        let classes = color_refinement(&generators::path(20), 1);
        let _ = classes.class(10, 0);
    }

    #[test]
    fn stable_coloring_stops_early() {
        // A 100-cycle is monochromatic from round 0; the old implementation
        // ran all 100 rounds regardless. Now stability is detected at the
        // first repeated level.
        let g = generators::cycle(100);
        let (classes, round) = stable_coloring(&g);
        assert_eq!(round, 0);
        assert_eq!(classes.rounds(), 1, "exactly one witness round past the fixpoint");
    }

    #[test]
    fn stable_coloring_agrees_with_fixed_round_refinement() {
        let g = generators::grid(4, 3);
        let (fast, round) = stable_coloring(&g);
        let slow = color_refinement(&g, g.len());
        for t in 0..=round.min(fast.rounds()) {
            assert_eq!(fast.level(t), slow.level(t), "level {t}");
        }
        assert_eq!(slow.stable_round(), Some(round));
    }

    #[test]
    fn worklist_engine_matches_rounds_engine() {
        // The incremental worklist engine must reproduce the naive
        // reference's levels bit for bit: stable run, over-long bounded
        // runs, and short truncations alike.
        for g in [
            generators::grid(5, 4),
            generators::path(30),
            generators::cycle(12),
            Graph::disjoint_union(&[&generators::petersen(), &generators::star(6)]),
            generators::binary_tree(31),
            Graph::empty(3),
            Graph::empty(0),
        ] {
            let (wl, wl_round) = stable_coloring(&g);
            let (rd, rd_round) = rounds_coloring(&g, None);
            let rd_round = rd_round.expect("unbounded run reports its stable round");
            assert_eq!(wl_round, rd_round, "stable round diverged on {g}");
            assert_eq!(wl.rounds(), rd.rounds(), "level count diverged on {g}");
            for t in 0..=wl.rounds() {
                assert_eq!(wl.level(t), rd.level(t), "{g} level {t}");
            }
            for rounds in [0, 1, wl_round + 2] {
                let a = color_refinement(&g, rounds);
                let (b, _) = rounds_coloring(&g, Some(rounds));
                for t in 0..=rounds {
                    assert_eq!(a.levels[t], b.levels[t], "{g} bounded {rounds} level {t}");
                }
            }
        }
    }

    #[test]
    fn worklist_forced_parallel_coloring_matches_sequential() {
        for g in [generators::grid(6, 5), generators::path(40)] {
            let (seq, seq_round) = worklist_coloring(&g, None, Parallelism::Off);
            let (par, par_round) = worklist_coloring(&g, None, Parallelism::Force);
            assert_eq!(seq_round, par_round);
            assert_eq!(seq.levels, par.levels, "{g}");
        }
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let (classes, round) = stable_coloring(&Graph::empty(1));
        assert_eq!(classes.class_count(round), 1);
        let (classes, round) = stable_coloring(&Graph::empty(0));
        assert_eq!(classes.class_count(round), 0);
    }

    #[test]
    fn zero_round_refinement_on_empty_graph_clamps() {
        // rounds == 0 leaves a single (empty) level; with no nodes the
        // partition is trivially stable, so deep queries clamp instead
        // of panicking about truncation.
        let classes = color_refinement(&Graph::empty(0), 0);
        assert_eq!(classes.rounds(), 0);
        assert_eq!(classes.class_count(0), 0);
        assert_eq!(classes.class_count(1_000), 0);
        assert!(classes.level(5).is_empty());
        assert_eq!(classes.stable_round(), None, "no witness round exists to report");
    }

    #[test]
    fn zero_round_refinement_on_nonempty_graph_reports_depth_zero() {
        // rounds == 0 on a real graph: depth-0 queries work, the
        // degree partition is reported, and nothing deeper is claimed.
        let classes = color_refinement(&generators::star(3), 0);
        assert_eq!(classes.rounds(), 0);
        assert_eq!(classes.class_count(0), 2, "centre vs leaves by degree");
        assert_eq!(classes.level(0).len(), 4);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn zero_round_refinement_on_nonempty_graph_rejects_deep_queries() {
        // One level, at least one node, no stability witness: a deeper
        // query must fail loudly rather than clamp.
        let classes = color_refinement(&generators::path(4), 0);
        let _ = classes.class_count(1);
    }
}
