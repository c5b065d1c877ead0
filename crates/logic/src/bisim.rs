//! Bisimulation and graded bisimulation via partition refinement
//! (Section 4.2).
//!
//! For finite (hence image-finite) Kripke models, bisimilarity is the limit
//! of signature refinement: start from the valuation partition (degrees)
//! and repeatedly split worlds whose successors fall into distinguishable
//! blocks. Two styles:
//!
//! * [`BisimStyle::Plain`] — signatures record, per modality, the *set* of
//!   successor blocks. The limit is bisimilarity; two bisimilar worlds
//!   satisfy the same ML/MML formulas (Fact 1a).
//! * [`BisimStyle::Graded`] — signatures record the *multiset* (counts) of
//!   successor blocks. The limit is g-bisimilarity (conditions B2*/B3*);
//!   two g-bisimilar worlds satisfy the same GML/GMML formulas (Fact 1b).
//!
//! Truncating the refinement at `t` rounds yields `t`-step equivalence:
//! worlds equivalent at depth `t` agree on all formulas of modal depth
//! `≤ t`, which via Theorem 2 means no algorithm of the matching class can
//! separate them within `t` rounds.
//!
//! # Implementation
//!
//! Every entry point runs the incremental worklist engine of
//! [`portnum_graph::partition::WorklistRefiner`]: blocks that split in
//! round `t` are the splitters of round `t + 1`, and only their
//! members' predecessors (found via the model's cached combined CSC
//! store) are re-signed. Near-stable rounds cost O(changed) instead of
//! O(n), which collapses the Θ(n · rounds) bill of re-signing every
//! world every round on long-diameter models (paths, deep trees — Θ(n)
//! rounds each). The partition after round `t` is still the
//! synchronous depth-`t` partition under dense first-seen ids; the
//! property suite pins every level, bit for bit, to a naive reference
//! that keys nested signatures in a std `HashMap`.
//!
//! A world's signature is encoded as a flat run of `u64` words —
//! previous block, then for each *nonempty* relation row its dense
//! relation id followed by the sorted successor blocks (with
//! multiplicities when graded) — and filed through a hash-chained
//! intern table that keys on the signature's Fx hash, so nothing is
//! allocated per world. Empty rows are skipped: on many-relation models
//! (K₊,₊ stores O(Δ²) relations, almost all rows empty) this shrinks a
//! round from O(worlds × relations) to O(edges). The relation id keeps
//! the encoding canonical without per-relation separators, since each
//! row's encoding is prefix-free.
//!
//! Level-by-level history (needed for `t`-step queries) costs O(n) memory
//! per round; fixpoint-only callers ([`bisimilar`], [`bisimilar_across`],
//! the quotient construction) use [`refine_fixpoint`], which keeps only
//! the final partition.
//!
//! A round whose frontier carries enough encode work (the
//! [`Parallelism::Auto`] gate) encodes on the persistent worker pool
//! ([`portnum_graph::pool`]) in chunks split at work quantiles, then
//! groups the chunks' signatures in world order, so every level is
//! bit-identical to the sequential path's.

use crate::kripke::Kripke;
use portnum_graph::partition::{Counting, Parallelism, WorklistRefiner};
use portnum_graph::resilience::{ExecControl, Interrupted};
pub use portnum_graph::partition::RefineStats;

/// Plain (set-based) or graded (counting) refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BisimStyle {
    /// Set-based signatures: bisimulation for ML/MML.
    Plain,
    /// Counting signatures: graded bisimulation for GML/GMML.
    Graded,
}

impl BisimStyle {
    fn counting(self) -> Counting {
        match self {
            BisimStyle::Plain => Counting::Distinct,
            BisimStyle::Graded => Counting::Multiset,
        }
    }
}

/// The result of a refinement run: a partition per depth (or, for
/// [`refine_fixpoint`], just the final partition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisimClasses {
    style: BisimStyle,
    /// All levels `0..=depth` when history is kept; only the final level
    /// otherwise.
    levels: Vec<Vec<usize>>,
    /// Depth of the deepest computed partition (= number of rounds run).
    depth: usize,
    stable: bool,
}

impl BisimClasses {
    /// The refinement style used.
    pub fn style(&self) -> BisimStyle {
        self.style
    }

    fn has_history(&self) -> bool {
        self.levels.len() == self.depth + 1
    }

    fn level_index(&self, t: usize) -> usize {
        if self.has_history() {
            t.min(self.depth)
        } else {
            assert!(
                t >= self.depth,
                "depth-{t} query on a history-free refinement of depth {}; \
                 use refine/refine_bounded instead of refine_fixpoint for \
                 level-indexed access",
                self.depth
            );
            0
        }
    }

    /// The block of world `v` at depth `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t < self.depth()` on a [`refine_fixpoint`] result,
    /// which records only the final partition.
    pub fn class(&self, t: usize, v: usize) -> usize {
        self.levels[self.level_index(t)][v]
    }

    /// The partition at depth `t` (clamped to the deepest computed level;
    /// once stable, deeper levels are identical).
    ///
    /// # Panics
    ///
    /// Panics if `t < self.depth()` on a [`refine_fixpoint`] result,
    /// which records only the final partition.
    pub fn level(&self, t: usize) -> &[usize] {
        &self.levels[self.level_index(t)]
    }

    /// The final (deepest) partition computed.
    pub fn final_level(&self) -> &[usize] {
        self.levels.last().expect("at least one level")
    }

    /// Number of blocks at depth `t`.
    pub fn class_count(&self, t: usize) -> usize {
        self.level(t).iter().max().map_or(0, |&m| m + 1)
    }

    /// Depth of the deepest computed partition.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Returns `true` if the refinement ran to a fixpoint, in which case
    /// [`Self::final_level`] is the full (g-)bisimilarity partition.
    pub fn is_stable(&self) -> bool {
        self.stable
    }

    /// Whether `u` and `v` are equivalent at depth `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t < self.depth()` on a [`refine_fixpoint`] result,
    /// which records only the final partition.
    pub fn equivalent_at(&self, t: usize, u: usize, v: usize) -> bool {
        let level = self.level(t);
        level[u] == level[v]
    }

    /// Whether `u` and `v` are (g-)bisimilar.
    ///
    /// # Panics
    ///
    /// Panics if the refinement was truncated before stabilising.
    pub fn bisimilar(&self, u: usize, v: usize) -> bool {
        assert!(self.stable, "refinement was truncated; rerun without a depth bound");
        let level = self.final_level();
        level[u] == level[v]
    }
}

/// Runs signature refinement to a fixpoint, keeping every intermediate
/// level (O(n · depth) memory). Use [`refine_fixpoint`] when only the
/// final partition matters.
pub fn refine(model: &Kripke, style: BisimStyle) -> BisimClasses {
    let ctl = ExecControl::unrestricted();
    refine_worklist(model, style, None, true, Parallelism::Auto, &ctl)
        .expect("unrestricted refinement cannot be interrupted")
        .0
}

/// Control-aware [`refine`] under an explicit thread-count policy
/// (production passes [`Parallelism::Auto`]; tests pin `Force` or `Off`
/// to one side of the encode gate — every policy yields the same
/// levels). Polls the [`ExecControl`] at every round boundary (cancel,
/// deadline, and the touched-work ceiling priced in encoded signatures
/// — the engine's own `RefineStats::encoded` currency). On `Err`
/// nothing is returned and nothing was published: all refinement state
/// is call-local, so a retry is bit-identical to an uninterrupted run.
/// Cancel-to-return latency is bounded by one refinement round.
///
/// # Errors
///
/// The first [`Interrupted`] observed at a round boundary.
pub fn refine_controlled(
    model: &Kripke,
    style: BisimStyle,
    par: Parallelism,
    ctl: &ExecControl,
) -> Result<BisimClasses, Interrupted> {
    Ok(refine_worklist(model, style, None, true, par, ctl)?.0)
}

/// Runs signature refinement for at most `depth` rounds (the result
/// characterises formulas of modal depth `≤ depth`).
pub fn refine_bounded(model: &Kripke, style: BisimStyle, depth: usize) -> BisimClasses {
    let ctl = ExecControl::unrestricted();
    refine_worklist(model, style, Some(depth), true, Parallelism::Auto, &ctl)
        .expect("unrestricted refinement cannot be interrupted")
        .0
}

/// Runs signature refinement to a fixpoint keeping only the final
/// partition (O(n) memory — no level history).
///
/// The result answers [`BisimClasses::bisimilar`] / final-level queries;
/// level-indexed queries below the fixpoint depth panic.
///
/// # Examples
///
/// ```
/// use portnum_graph::generators;
/// use portnum_logic::bisim::{refine_fixpoint, BisimStyle};
/// use portnum_logic::Kripke;
///
/// // On a path, worlds are bisimilar iff they mirror each other.
/// let k = Kripke::k_mm(&generators::path(7));
/// let classes = refine_fixpoint(&k, BisimStyle::Plain);
/// assert!(classes.is_stable());
/// assert!(classes.bisimilar(1, 5));
/// assert!(!classes.bisimilar(1, 2));
/// ```
pub fn refine_fixpoint(model: &Kripke, style: BisimStyle) -> BisimClasses {
    let ctl = ExecControl::unrestricted();
    refine_worklist(model, style, None, false, Parallelism::Auto, &ctl)
        .expect("unrestricted refinement cannot be interrupted")
        .0
}

/// Runs [`refine_fixpoint`] and also returns the engine's
/// [`RefineStats`] — rounds, the touched-world counter (`encoded`),
/// moves, and how many rounds went parallel. Re-signing every world
/// every round would encode exactly `n · rounds` signatures; on
/// long-diameter models `encoded` stays O(n + edges).
pub fn refine_fixpoint_stats(model: &Kripke, style: BisimStyle) -> (BisimClasses, RefineStats) {
    refine_worklist(model, style, None, false, Parallelism::Auto, &ExecControl::unrestricted())
        .expect("unrestricted refinement cannot be interrupted")
}

/// The refinement driver behind every entry point: the partition after
/// round `t` is the synchronous depth-`t` partition, canonically
/// renumbered, and each round re-encodes only the dirty frontier
/// maintained by [`WorklistRefiner`]. Relations are handed over as
/// borrowed CSR slices, so the engine adds no per-run copies of the
/// model.
fn refine_worklist(
    model: &Kripke,
    style: BisimStyle,
    depth: Option<usize>,
    keep_levels: bool,
    par: Parallelism,
    ctl: &ExecControl,
) -> Result<(BisimClasses, RefineStats), Interrupted> {
    let n = model.len();
    let relations = model.relations_csr();
    let mut refiner = WorklistRefiner::new(
        n,
        &relations,
        style.counting(),
        (0..n).map(|v| model.degree(v) as u64),
    );
    // Dirty propagation runs on the model's cached combined CSC store
    // ([`Kripke::combined_predecessors_csc`]) instead of a private
    // per-refiner reverse CSR — still lazy (fast-stabilising models
    // build nothing), amortised across refinement runs, and on
    // single-relation models literally the same store as the
    // evaluator's CSC diamond path.
    refiner.share_reverse_adjacency(|| model.combined_predecessors_csc());
    refiner.parallelism(par);
    // Fixpoint-only callers never observe intermediate canonical
    // levels, so the refiner can skip its per-round level bookkeeping
    // (the dirty-order sort); the fixpoint partition is unaffected.
    refiner.observe_levels(keep_levels);

    let mut level = Vec::new();
    refiner.canonical_level_into(&mut level);
    let mut levels = if keep_levels { vec![level.clone()] } else { Vec::new() };
    let mut rounds = 0usize;
    let mut stable = n <= 1;

    while depth.is_none_or(|d| rounds < d) {
        let changed = refiner.round_controlled(ctl)?;
        rounds += 1;
        if keep_levels {
            refiner.canonical_level_into(&mut level);
            levels.push(level.clone());
        }
        if !changed {
            stable = true;
            break;
        }
        debug_assert!(rounds <= n, "refinement must stabilise within n rounds");
    }

    if !keep_levels {
        refiner.canonical_level_into(&mut level);
        levels.push(level);
    }
    let stats = refiner.stats();
    Ok((BisimClasses { style, levels, depth: rounds, stable }, stats))
}

/// Resumes signature refinement after a [`crate::ModelDelta`], seeding
/// the worklist from a prior stable partition instead of from scratch.
///
/// `prior` must be a partition of the model that was **stable before
/// the delta** (e.g. [`BisimClasses::final_level`] of a fixpoint run on
/// the pre-delta model) and `touched` the sorted world list returned by
/// [`crate::Kripke::apply_delta`] (the union over a batch of deltas is
/// fine). The refiner restarts from the blocks of `prior` split by each
/// world's *current* degree atom, with the dirty frontier seeded to
/// `touched` plus every current predecessor of a touched world — the
/// only worlds whose signatures can have changed — and runs to a
/// fixpoint.
///
/// # The partition is stable but possibly finer than coarsest
///
/// Signature refinement only ever splits blocks, so resuming cannot
/// re-merge worlds that a removed edge has made equivalent again. The
/// result is guaranteed *stable* — a genuine (g-)bisimulation of the
/// current model — which is exactly what quotient-based model checking
/// needs ([`crate::quotient`] accepts any stable partition, and truth
/// vectors lift through any bisimulation). It is **not** guaranteed
/// coarsest, so minimum bases and bisimilarity *queries* must use
/// [`refine_fixpoint`] on the current model instead: `bisimilar` on a
/// resumed result can answer `false` for worlds the coarsest partition
/// would merge.
///
/// Cost is proportional to the region the delta actually perturbs:
/// on a localized delta the frontier stays small and the run touches
/// O(affected) worlds, not O(n).
pub fn refine_fixpoint_from(
    model: &Kripke,
    style: BisimStyle,
    prior: &[usize],
    touched: &[u32],
) -> BisimClasses {
    let n = model.len();
    assert_eq!(prior.len(), n, "prior partition must cover every world");
    // Dirty frontier: the touched worlds and their current predecessors
    // (a changed successor row or degree atom can only re-sign the
    // world itself and the worlds that observe it).
    let mut dirty: Vec<u32> = touched.to_vec();
    let csc = model.combined_predecessors_csc();
    for &w in touched {
        dirty.extend_from_slice(csc.row(w as usize));
    }
    let relations = model.relations_csr();
    let mut refiner = WorklistRefiner::resume(
        n,
        &relations,
        style.counting(),
        (0..n).map(|v| model.degree(v) as u64),
        prior,
        &dirty,
    );
    refiner.share_reverse_adjacency(|| model.combined_predecessors_csc());
    refiner.observe_levels(false);
    let mut rounds = 0usize;
    loop {
        let changed = refiner.round();
        rounds += 1;
        if !changed {
            break;
        }
        debug_assert!(rounds <= n + 1, "resumed refinement must stabilise within n rounds");
    }
    let mut level = Vec::new();
    refiner.canonical_level_into(&mut level);
    BisimClasses { style, levels: vec![level], depth: rounds, stable: true }
}

/// Whether worlds `u` and `v` of one model are (g-)bisimilar.
pub fn bisimilar(model: &Kripke, style: BisimStyle, u: usize, v: usize) -> bool {
    refine_fixpoint(model, style).bisimilar(u, v)
}

/// Whether world `u` of `a` is (g-)bisimilar to world `v` of `b`
/// (computed on the disjoint union).
///
/// # Panics
///
/// Panics if the model variants differ.
pub fn bisimilar_across(
    a: &Kripke,
    u: usize,
    b: &Kripke,
    v: usize,
    style: BisimStyle,
) -> bool {
    let union = a.disjoint_union(b);
    bisimilar(&union, style, u, a.len() + v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use portnum_graph::{generators, Graph, PortNumbering};

    #[test]
    fn cycle_nodes_all_bisimilar() {
        let k = Kripke::k_mm(&generators::cycle(6));
        let classes = refine(&k, BisimStyle::Plain);
        assert!(classes.is_stable());
        assert_eq!(classes.class_count(classes.depth()), 1);
        let classes = refine(&k, BisimStyle::Graded);
        assert_eq!(classes.class_count(classes.depth()), 1);
    }

    #[test]
    fn cycles_of_different_length_bisimilar_across() {
        let a = Kripke::k_mm(&generators::cycle(3));
        let b = Kripke::k_mm(&generators::cycle(5));
        assert!(bisimilar_across(&a, 0, &b, 0, BisimStyle::Plain));
        assert!(bisimilar_across(&a, 0, &b, 0, BisimStyle::Graded));
    }

    #[test]
    fn star_centre_differs_from_leaves() {
        let k = Kripke::k_mm(&generators::star(3));
        assert!(!bisimilar(&k, BisimStyle::Plain, 0, 1));
        assert!(bisimilar(&k, BisimStyle::Plain, 1, 2));
    }

    #[test]
    fn plain_vs_graded_on_theorem13_witness() {
        // The heart of Theorem 13: the white nodes are plain-bisimilar in
        // K_{-,-} (sets cannot count) but NOT g-bisimilar (multisets can).
        let (g, (a, b)) = generators::theorem13_witness();
        let k = Kripke::k_mm(&g);
        assert!(bisimilar(&k, BisimStyle::Plain, a, b));
        assert!(!bisimilar(&k, BisimStyle::Graded, a, b));
    }

    #[test]
    fn graded_refines_plain() {
        let (g, _) = generators::theorem13_witness();
        let k = Kripke::k_mm(&g);
        let plain = refine(&k, BisimStyle::Plain);
        let graded = refine(&k, BisimStyle::Graded);
        for u in 0..k.len() {
            for v in 0..k.len() {
                if graded.bisimilar(u, v) {
                    assert!(plain.bisimilar(u, v), "graded classes must refine plain");
                }
            }
        }
    }

    #[test]
    fn symmetric_port_numbering_makes_all_nodes_bisimilar_in_k_pp() {
        // Lemma 15, machine-checked.
        for g in [generators::cycle(5), generators::petersen(), generators::no_one_factor(3)] {
            let p = PortNumbering::symmetric_regular(&g).unwrap();
            let k = Kripke::k_pp(&g, &p);
            let classes = refine(&k, BisimStyle::Plain);
            assert_eq!(classes.class_count(classes.depth()), 1, "graph {g}");
        }
    }

    #[test]
    fn consistent_numbering_separates_no_one_factor_graph() {
        // Lemma 16 (contrapositive): with a consistent numbering of a graph
        // in the family 𝒢, not all nodes can stay bisimilar in K_{+,+}.
        let g = generators::no_one_factor(3);
        let p = PortNumbering::consistent(&g);
        let k = Kripke::k_pp(&g, &p);
        let classes = refine(&k, BisimStyle::Plain);
        assert!(classes.class_count(classes.depth()) > 1);
    }

    #[test]
    fn bounded_refinement_matches_modal_depth() {
        // On a path, worlds at distance ≥ t+1 from both ends cannot be
        // separated by depth-t formulas; bounded refinement reflects that.
        // (Use an odd path so nodes 2 and 5 are not mirror images: their
        // distances to the nearest end are 2 and 3.)
        let g = generators::path(9);
        let k = Kripke::k_mm(&g);
        let c1 = refine_bounded(&k, BisimStyle::Plain, 1);
        assert!(!c1.is_stable() || c1.depth() <= 1);
        // Depth 1: nodes 2 and 5 both see two degree-2 neighbours.
        assert!(c1.equivalent_at(1, 2, 5));
        // Full refinement eventually separates them.
        let full = refine(&k, BisimStyle::Plain);
        assert!(full.is_stable());
        assert!(!full.bisimilar(2, 5));
        // Mirror-image nodes stay bisimilar forever.
        assert!(full.bisimilar(2, 6));
    }

    #[test]
    fn equivalent_at_clamps_beyond_stability() {
        let k = Kripke::k_mm(&generators::cycle(4));
        let classes = refine(&k, BisimStyle::Plain);
        assert!(classes.equivalent_at(10_000, 0, 2));
    }

    #[test]
    fn k_pm_star_leaves_bisimilar_any_numbering() {
        // Theorem 11's obstruction: in K_{+,-} the leaves of a star are
        // bisimilar under every port numbering (each leaf's single in-port
        // is fed by the centre).
        let g = generators::star(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        use rand::SeedableRng;
        for _ in 0..10 {
            let p = PortNumbering::random(&g, &mut rng);
            let k = Kripke::k_pm(&g, &p);
            let classes = refine(&k, BisimStyle::Plain);
            for leaf in 2..=4 {
                assert!(classes.bisimilar(1, leaf));
            }
        }
    }

    #[test]
    fn k_mp_star_leaves_can_differ() {
        // By contrast, in K_{-,+} (Set/Multiset classes) the leaves *can*
        // be separated: each leaf sees which out-port of the centre feeds
        // it. This is why leaf selection is in SV(1) (Theorem 11).
        let g = generators::star(3);
        let p = PortNumbering::consistent(&g);
        let k = Kripke::k_mp(&g, &p);
        let classes = refine(&k, BisimStyle::Plain);
        assert!(!classes.bisimilar(1, 2));
    }

    #[test]
    fn disconnected_components_compare() {
        let g = Graph::disjoint_union(&[&generators::cycle(3), &generators::cycle(4)]);
        let k = Kripke::k_mm(&g);
        assert!(bisimilar(&k, BisimStyle::Plain, 0, 4));
    }

    #[test]
    fn fixpoint_matches_full_refinement() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        use rand::SeedableRng;
        for _ in 0..5 {
            let g = generators::gnp(12, 0.3, &mut rng);
            let k = Kripke::k_mm(&g);
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let full = refine(&k, style);
                let lean = refine_fixpoint(&k, style);
                assert!(lean.is_stable());
                assert_eq!(lean.depth(), full.depth());
                assert_eq!(lean.final_level(), full.final_level());
                // Clamped access beyond the fixpoint depth works.
                assert_eq!(lean.level(lean.depth() + 5), lean.final_level());
            }
        }
    }

    #[test]
    #[should_panic(expected = "history-free")]
    fn fixpoint_rejects_shallow_level_queries() {
        let k = Kripke::k_mm(&generators::path(9));
        let lean = refine_fixpoint(&k, BisimStyle::Plain);
        assert!(lean.depth() > 1, "path(9) needs several rounds");
        let _ = lean.level(1);
    }

    #[test]
    fn worklist_forced_parallel_matches_sequential() {
        let g = generators::gnp(40, 0.1, &mut {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(31)
        });
        let k = Kripke::k_mm(&g);
        for style in [BisimStyle::Plain, BisimStyle::Graded] {
            let ctl = ExecControl::unrestricted();
            let seq = refine_controlled(&k, style, Parallelism::Off, &ctl).unwrap();
            let par = refine_controlled(&k, style, Parallelism::Force, &ctl).unwrap();
            assert_eq!(seq.depth(), par.depth());
            for t in 0..=seq.depth() {
                assert_eq!(seq.level(t), par.level(t), "{:?} level {t}", style);
            }
        }
    }

    #[test]
    fn worklist_touches_o_of_n_worlds_on_paths() {
        // The tentpole property, end to end on a Kripke model: a path
        // takes Θ(n) rounds, and the worklist engine still only encodes
        // O(n) signatures in total — o(n · rounds), where re-signing
        // every world every round pays exactly n · rounds.
        let n = 256;
        let k = Kripke::k_mm(&generators::path(n));
        for style in [BisimStyle::Plain, BisimStyle::Graded] {
            let (classes, stats) = refine_fixpoint_stats(&k, style);
            assert!(classes.is_stable());
            assert!(stats.rounds >= n / 2 - 2, "paths take Θ(n) rounds, got {}", stats.rounds);
            assert!(
                stats.encoded <= 8 * n,
                "{:?}: touched {} worlds over {} rounds (full-round cost {})",
                style,
                stats.encoded,
                stats.rounds,
                n * stats.rounds
            );
        }
    }

    #[test]
    fn resumed_refinement_is_a_stable_refinement_of_fresh() {
        use crate::kripke::ModelDelta;
        use crate::ModalIndex;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        use rand::SeedableRng;
        for trial in 0..5 {
            let g = generators::gnp(16, 0.2, &mut rng);
            let mut k = Kripke::k_mm(&g);
            for style in [BisimStyle::Plain, BisimStyle::Graded] {
                let prior = refine_fixpoint(&k, style);
                // Remove the first stored edge (both directions), if any.
                let Some((v, &w)) = (0..k.len())
                    .find_map(|v| k.successors_dense(0, v).first().map(|w| (v, w)))
                else {
                    continue;
                };
                let mut delta = ModelDelta::new();
                delta
                    .remove_edge(ModalIndex::Any, v as u32, w)
                    .remove_edge(ModalIndex::Any, w, v as u32);
                let mut patched = k.clone();
                let touched = patched.apply_delta(&delta).unwrap();
                let resumed =
                    refine_fixpoint_from(&patched, style, prior.final_level(), &touched);
                assert!(resumed.is_stable());
                let fresh = refine_fixpoint(&patched, style);
                // Stable means: refines the fresh coarsest partition.
                let res = resumed.final_level();
                let coarse = fresh.final_level();
                for u in 0..k.len() {
                    for x in (u + 1)..k.len() {
                        if res[u] == res[x] {
                            assert_eq!(
                                coarse[u], coarse[x],
                                "trial {trial} {style:?}: resumed merged {u},{x} \
                                 but coarsest separates them"
                            );
                        }
                    }
                }
                k = patched;
            }
        }
    }

    #[test]
    fn resumed_refinement_with_no_touched_worlds_keeps_the_partition() {
        let k = Kripke::k_mm(&generators::path(9));
        let prior = refine_fixpoint(&k, BisimStyle::Plain);
        let resumed = refine_fixpoint_from(&k, BisimStyle::Plain, prior.final_level(), &[]);
        assert!(resumed.is_stable());
        assert_eq!(resumed.final_level(), prior.final_level());
    }

    #[test]
    fn refine_unbounded_reports_stable_and_matches_bounded_n() {
        // Regression: `refine` without a bound must report `is_stable()`
        // and agree with `refine_bounded(_, _, n)` (n rounds always pass
        // the fixpoint).
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        use rand::SeedableRng;
        for _ in 0..5 {
            let g = generators::gnp(10, 0.35, &mut rng);
            let p = PortNumbering::random(&g, &mut rng);
            for k in [Kripke::k_mm(&g), Kripke::k_pp(&g, &p)] {
                for style in [BisimStyle::Plain, BisimStyle::Graded] {
                    let free = refine(&k, style);
                    let bounded = refine_bounded(&k, style, g.len());
                    assert!(free.is_stable());
                    assert!(bounded.is_stable(), "n rounds always reach the fixpoint");
                    assert_eq!(free.final_level(), bounded.final_level());
                    assert_eq!(free.depth(), bounded.depth());
                }
            }
        }
    }
}
