//! Bisimulation quotients: the smallest Kripke model equivalent to a
//! given one.
//!
//! Collapsing a model along its bisimilarity partition yields the
//! *minimum base* — the Kripke-side analogue of the minimum base of a
//! graph fibration (Boldi–Vigna), reached here by partition refinement
//! instead of degree refinement. The quotient map is a functional
//! bisimulation, so by Fact 1 every ML/MML formula has the same truth
//! value at a world and at its block; model checking a large symmetric
//! model can therefore be done on its (often tiny) quotient.
//!
//! The construction uses *plain* bisimilarity. A set-based quotient
//! cannot preserve graded truth — `⟨α⟩≥2 φ` needs two distinct
//! successors, and a quotient block stands for many — so requests for a
//! graded-style partition are rejected.
//!
//! Each quotient relation is built straight into its final CSR arrays:
//! a counting pass sizes every block row by its members' rows, a
//! placement pass writes their successor blocks, and each row is then
//! sorted and deduplicated in place. That is two arrays per relation
//! and none per block, with no edge-list round-trip through
//! [`Kripke::from_parts`].
//!
//! # Examples
//!
//! ```
//! use portnum_graph::{generators, PortNumbering};
//! use portnum_logic::bisim::{refine, BisimStyle};
//! use portnum_logic::{quotient, Kripke};
//!
//! // Under Lemma 15's symmetric numbering, the Petersen graph's K₊,₊
//! // collapses to a single world.
//! let g = generators::petersen();
//! let p = PortNumbering::symmetric_regular(&g)?;
//! let k = Kripke::k_pp(&g, &p);
//! let (q, map) = quotient(&k, &refine(&k, BisimStyle::Plain));
//! assert_eq!(q.len(), 1);
//! assert!(map.iter().all(|&b| b == 0));
//! # Ok::<(), portnum_graph::PortError>(())
//! ```

use crate::bisim::{refine_fixpoint, BisimClasses, BisimStyle};
use crate::kripke::Kripke;

/// Collapses `model` along a stable plain-bisimulation partition.
///
/// Returns the quotient model and the projection `map[v] = block of v`.
/// The quotient has one world per block, the common degree of the block
/// as its valuation, and `B →α C` iff some (equivalently, by stability:
/// every) member of `B` has an `α`-successor in `C`.
///
/// Every ML/MML formula `φ` satisfies
/// `model, v ⊨ φ  ⇔  quotient, map[v] ⊨ φ`.
///
/// # Panics
///
/// Panics if `classes` was computed with [`BisimStyle::Graded`], was
/// truncated before stabilising, or does not match the model's size.
pub fn quotient(model: &Kripke, classes: &BisimClasses) -> (Kripke, Vec<usize>) {
    assert_eq!(
        classes.style(),
        BisimStyle::Plain,
        "set-based quotients preserve only ungraded truth; use BisimStyle::Plain"
    );
    assert!(classes.is_stable(), "quotient needs a stable partition");
    let level = classes.final_level();
    assert_eq!(level.len(), model.len(), "partition does not match the model");

    let block_count = level.iter().max().map_or(0, |&m| m + 1);
    let mut degree = vec![usize::MAX; block_count];
    for (v, &b) in level.iter().enumerate() {
        if degree[b] == usize::MAX {
            degree[b] = model.degree(v);
        } else {
            debug_assert_eq!(
                degree[b],
                model.degree(v),
                "stable partitions refine the valuation"
            );
        }
    }

    // Each quotient relation goes straight into CSR: a counting pass
    // sizes block row `B` as the sum of its members' row lengths, a
    // placement pass writes every member's successor blocks into it,
    // then each row is sorted and deduplicated in place and the
    // target array compacted over the gaps. Two arrays per relation,
    // none per block.
    let n = model.len();
    let mut cursor = vec![0usize; block_count];
    let mut relations = Vec::with_capacity(model.relation_count());
    for r in 0..model.relation_count() {
        let (offsets, targets) = model.relation_rows(r);
        let mut q_offsets = vec![0usize; block_count + 1];
        for v in 0..n {
            q_offsets[level[v] + 1] += offsets[v + 1] - offsets[v];
        }
        for b in 0..block_count {
            q_offsets[b + 1] += q_offsets[b];
        }
        cursor.copy_from_slice(&q_offsets[..block_count]);
        let mut q_targets = vec![0u32; q_offsets[block_count]];
        for v in 0..n {
            let slot = &mut cursor[level[v]];
            for &w in &targets[offsets[v]..offsets[v + 1]] {
                q_targets[*slot] = level[w as usize] as u32;
                *slot += 1;
            }
        }
        let mut len = 0;
        for b in 0..block_count {
            let (start, end) = (q_offsets[b], q_offsets[b + 1]);
            q_offsets[b] = len;
            q_targets[start..end].sort_unstable();
            let mut prev = None;
            for i in start..end {
                let t = q_targets[i];
                if prev != Some(t) {
                    q_targets[len] = t;
                    len += 1;
                    prev = Some(t);
                }
            }
        }
        q_offsets[block_count] = len;
        q_targets.truncate(len);
        relations.push((model.relation_index(r), q_offsets, q_targets));
    }

    let quotient = Kripke::from_csr_rows(model.variant(), degree, relations);
    (quotient, level.to_vec())
}

/// The *minimum base* of a model: its quotient by full plain
/// bisimilarity. The result has no two bisimilar worlds, so it is the
/// smallest model bisimulation-equivalent to the input.
///
/// Uses [`refine_fixpoint`] internally — only the final partition is
/// materialised, so the refinement history costs O(n), not O(n²).
pub fn minimum_base(model: &Kripke) -> (Kripke, Vec<usize>) {
    quotient(model, &refine_fixpoint(model, BisimStyle::Plain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::{bisimilar_across, refine, refine_bounded};
    use crate::formula::{Formula, ModalIndex};
    use portnum_graph::{generators, PortNumbering};

    fn ungraded_samples(max_port: usize, family: &dyn Fn(usize) -> ModalIndex) -> Vec<Formula> {
        let mut out = Vec::new();
        for d in 1..=3 {
            let q = Formula::prop(d);
            for i in 0..max_port {
                let dia = Formula::diamond(family(i), &q);
                out.push(dia.clone());
                out.push(Formula::box_(family(i), &q.or(&Formula::prop(2))));
                out.push(Formula::diamond(family(0), &dia).not());
            }
        }
        out
    }

    #[test]
    fn quotient_preserves_ungraded_truth() {
        let g = generators::theorem13_witness().0;
        let k = Kripke::k_mm(&g);
        // The suite runs through one per-model plan cache; its
        // `check_via_quotient` is this theorem, applied.
        let mut checker = crate::plan::ModelChecker::new(&k);
        assert!(checker.minimum_base().0.len() < k.len(), "the witness graph has symmetry");
        for f in ungraded_samples(1, &|_| ModalIndex::Any) {
            let orig = checker.check(&f).unwrap();
            let via_quotient = checker.check_via_quotient(&f).unwrap();
            assert_eq!(*orig, via_quotient, "{f}");
        }
    }

    #[test]
    fn quotient_preserves_truth_on_port_models() {
        let g = generators::figure1_graph();
        let p = PortNumbering::consistent(&g);
        for (k, indexer) in [
            (Kripke::k_pm(&g, &p), (|i| ModalIndex::In(i)) as fn(usize) -> ModalIndex),
            (Kripke::k_mp(&g, &p), |j| ModalIndex::Out(j)),
        ] {
            let (q, map) = minimum_base(&k);
            let suite = ungraded_samples(3, &indexer);
            // Evaluate the whole suite on both sides through shared plans.
            let orig = crate::plan::Plan::compile_suite(&k, suite.iter()).unwrap().execute(&k);
            let quot = crate::plan::Plan::compile_suite(&q, suite.iter()).unwrap().execute(&q);
            for ((f, o), qt) in suite.iter().zip(&orig).zip(&quot) {
                for (v, &b) in map.iter().enumerate() {
                    assert_eq!(o.get(v), qt.get(b), "{f} at {v}");
                }
            }
        }
    }

    #[test]
    fn quotient_worlds_are_pairwise_non_bisimilar() {
        let g = generators::grid(3, 3);
        let k = Kripke::k_mm(&g);
        let (q, _) = minimum_base(&k);
        let classes = refine(&q, BisimStyle::Plain);
        for u in 0..q.len() {
            for v in (u + 1)..q.len() {
                assert!(!classes.bisimilar(u, v), "quotient must be minimal");
            }
        }
    }

    #[test]
    fn quotient_is_idempotent() {
        let g = generators::path(7);
        let k = Kripke::k_mm(&g);
        let (q1, _) = minimum_base(&k);
        let (q2, map2) = minimum_base(&q1);
        assert_eq!(q1.len(), q2.len());
        // The second projection is a bijection.
        let mut seen = vec![false; q2.len()];
        for &b in &map2 {
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn worlds_bisimilar_to_their_blocks() {
        // The quotient map is a bisimulation: v in the original is
        // bisimilar to map[v] in the quotient.
        let g = generators::star(4);
        let k = Kripke::k_mm(&g);
        let (q, map) = minimum_base(&k);
        for (v, &block) in map.iter().enumerate() {
            assert!(bisimilar_across(&k, v, &q, block, BisimStyle::Plain));
        }
    }

    #[test]
    fn symmetric_cycle_collapses_to_a_point() {
        let g = generators::cycle(7);
        let p = PortNumbering::symmetric_regular(&g).unwrap();
        let k = Kripke::k_pp(&g, &p);
        let (q, _) = minimum_base(&k);
        assert_eq!(q.len(), 1);
        // The single world has a successor under each of its indices.
        for index in q.indices() {
            assert_eq!(q.successors(0, index), &[0]);
        }
    }

    #[test]
    #[should_panic(expected = "BisimStyle::Plain")]
    fn graded_partitions_are_rejected() {
        let k = Kripke::k_mm(&generators::cycle(3));
        let classes = refine(&k, BisimStyle::Graded);
        let _ = quotient(&k, &classes);
    }

    #[test]
    #[should_panic(expected = "stable partition")]
    fn truncated_partitions_are_rejected() {
        let k = Kripke::k_mm(&generators::path(9));
        let classes = refine_bounded(&k, BisimStyle::Plain, 1);
        assert!(!classes.is_stable());
        let _ = quotient(&k, &classes);
    }
}
