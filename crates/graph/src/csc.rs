//! CSC (reverse CSR) adjacency: per-node *predecessor* lists as two
//! flat arrays.
//!
//! A forward CSR relation answers "successors of `v`" in O(row); many
//! hot paths instead need "predecessors of `w`" — the worklist
//! refinement engine propagates dirty frontiers backwards, and the
//! model checker's reverse diamond path computes `⟨α⟩φ` by gathering
//! the predecessors of every world satisfying `φ`. [`CscAdjacency`] is
//! that inverse in the same two-flat-arrays shape as the forward CSR:
//! `O(n + edges)` memory at **any** scale. It is the only predecessor
//! store: it serves grade-1 and graded diamonds alike, on models of
//! every size.
//!
//! # Construction invariant
//!
//! [`CscAdjacency::from_relations`] buckets every stored edge by
//! target with two counting-sort passes (relation-major, then source
//! ascending), so each predecessor row comes out **sorted ascending by
//! source within each relation** and an edge stored `k` times
//! contributes `k` entries — multiplicities survive inversion, which
//! is what lets graded (counting) consumers use the rows directly.

use crate::partition::RelationCsr;
use crate::splice::splice_rows;

/// Reverse (CSC) adjacency over `n` nodes: predecessors of node `w`
/// are `preds()[bounds()[w]..bounds()[w + 1]]`, as `u32` node ids.
///
/// Built from one relation ([`CscAdjacency::from_csr`]) or the union
/// of several ([`CscAdjacency::from_relations`], the shape the
/// worklist refinement engine's dirty propagation wants — it only asks
/// "who can see `w`", not under which relation).
///
/// # Examples
///
/// ```
/// use portnum_graph::csc::CscAdjacency;
///
/// // Two nodes: 0 → 1, 1 → 0, 1 → 1.
/// let offsets = [0usize, 1, 3];
/// let targets = [1u32, 0, 1];
/// let csc = CscAdjacency::from_csr(2, &offsets, &targets);
/// assert_eq!(csc.row(0), &[1]);
/// assert_eq!(csc.row(1), &[0, 1]);
/// assert_eq!(csc.entry_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CscAdjacency {
    /// Row bounds, length `n + 1`.
    bounds: Vec<usize>,
    /// Concatenated predecessor ids.
    preds: Vec<u32>,
}

impl CscAdjacency {
    /// Inverts the union of `relations` over `n` nodes: node `w`'s row
    /// collects every `v` with `w ∈ successors(v)` under *any* of the
    /// relations, one entry per stored edge (multiplicities preserved),
    /// ordered relation-major then source-ascending.
    ///
    /// Two linear passes, two allocations — `O(n + edges)`.
    ///
    /// # Panics
    ///
    /// Panics if a relation's `offsets` does not have `n + 1` entries
    /// or stores a target `≥ n`.
    pub fn from_relations(n: usize, relations: &[RelationCsr<'_>]) -> CscAdjacency {
        // Chaos site: the CSC stores live in `OnceLock`s, and a panic
        // injected here must leave the lock uninitialised (not torn),
        // so the next query rebuilds from scratch.
        fail::fail_point!("csc-build");
        let mut bounds = vec![0usize; n + 1];
        for rel in relations {
            assert_eq!(rel.offsets.len(), n + 1, "CSR offsets must have n + 1 entries");
            for &w in rel.targets {
                bounds[w as usize + 1] += 1;
            }
        }
        for v in 0..n {
            bounds[v + 1] += bounds[v];
        }
        let mut preds = vec![0u32; bounds[n]];
        let mut cursor = bounds.clone();
        for rel in relations {
            let mut row_start = rel.offsets[0];
            for v in 0..n {
                let row_end = rel.offsets[v + 1];
                for &w in &rel.targets[row_start..row_end] {
                    preds[cursor[w as usize]] = v as u32;
                    cursor[w as usize] += 1;
                }
                row_start = row_end;
            }
        }
        CscAdjacency { bounds, preds }
    }

    /// Inverts a single relation given as raw CSR arrays (successors of
    /// `v` are `targets[offsets[v]..offsets[v + 1]]`).
    ///
    /// # Panics
    ///
    /// As [`CscAdjacency::from_relations`].
    pub fn from_csr(n: usize, offsets: &[usize], targets: &[u32]) -> CscAdjacency {
        CscAdjacency::from_relations(n, &[RelationCsr { offsets, targets }])
    }

    /// Patches a **single-relation** store in place after a batch of
    /// forward-edge edits, instead of re-inverting the whole relation:
    /// `added` / `removed` are `(source, target)` pairs. Each touched
    /// predecessor row becomes the sorted merge of its old entries
    /// minus the removals and the added sources (the
    /// [`CscAdjacency::from_csr`] invariant, multiplicities preserved),
    /// so the patched store is `Eq`-identical to a fresh inversion of
    /// the patched forward CSR. The rows are rewritten by the shared
    /// in-place kernel ([`crate::splice::splice_rows`]): a rejected
    /// batch leaves the store untouched.
    ///
    /// Not valid for multi-relation union stores
    /// ([`CscAdjacency::from_relations`]): their rows are relation-major
    /// and a flat edit batch cannot say which relation's span to touch.
    ///
    /// # Panics
    ///
    /// Panics if an edit names a node `>= node_count()`, or if a removed
    /// edge has no stored entry (callers validate the batch against the
    /// forward CSR before patching the inverse).
    pub fn apply_edits(&mut self, added: &[(u32, u32)], removed: &[(u32, u32)]) {
        let n = self.node_count();
        for &(v, w) in added.iter().chain(removed) {
            assert!((v as usize) < n && (w as usize) < n, "CSC edit ({v}, {w}) out of range");
        }
        // Flat `(target, source)` edit lists, fully sorted — the store's
        // rows are sorted ascending by source, so each touched row's
        // removals consume by a linear two-pointer walk and its adds
        // merge in linearly. One allocation per list instead of a map
        // of per-row `Vec`s: batch apply is on the serving hot path and
        // the per-row allocations dominate the splice otherwise.
        let mut add_sorted: Vec<(u32, u32)> = added.iter().map(|&(v, w)| (w, v)).collect();
        add_sorted.sort_unstable();
        let mut rm_sorted: Vec<(u32, u32)> = removed.iter().map(|&(v, w)| (w, v)).collect();
        rm_sorted.sort_unstable();
        let (bounds, preds) = (&mut self.bounds, &mut self.preds);
        splice_rows(bounds, preds, &add_sorted, &rm_sorted, |w, old, row_adds, row_rms, out| {
            let (mut r, mut a) = (0usize, 0usize);
            for &p in old {
                if r < row_rms.len() && row_rms[r].1 < p {
                    panic!("removed edge ({}, {w}) has no stored CSC entry", row_rms[r].1);
                }
                if r < row_rms.len() && row_rms[r].1 == p {
                    r += 1;
                    continue;
                }
                while a < row_adds.len() && row_adds[a].1 <= p {
                    out.push(row_adds[a].1);
                    a += 1;
                }
                out.push(p);
            }
            if r < row_rms.len() {
                panic!("removed edge ({}, {w}) has no stored CSC entry", row_rms[r].1);
            }
            out.extend(row_adds[a..].iter().map(|&(_, v)| v));
        });
    }

    /// Number of nodes of the underlying universe.
    pub fn node_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total stored predecessor entries (= stored forward edges).
    pub fn entry_count(&self) -> usize {
        self.preds.len()
    }

    /// Predecessors of node `w`, one entry per stored forward edge.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.node_count()`.
    #[inline]
    pub fn row(&self, w: usize) -> &[u32] {
        &self.preds[self.bounds[w]..self.bounds[w + 1]]
    }

    /// Number of predecessors of node `w` — the unit of the model
    /// checker's CSC cost estimate, readable without touching the row.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.node_count()`.
    #[inline]
    pub fn row_len(&self, w: usize) -> usize {
        self.bounds[w + 1] - self.bounds[w]
    }

    /// Best-effort prefetch of node `w`'s row bounds and first
    /// predecessor entries. A pure latency hint with
    /// [`crate::blocking::prefetch_read`] semantics: out-of-range `w`
    /// is ignored and observable behaviour never changes. Gather loops
    /// that know which row they will visit next call this one
    /// iteration ahead to hide the pointer-chase (bounds, then
    /// entries) behind the current row's work.
    #[inline]
    pub fn prefetch_row(&self, w: usize) {
        crate::blocking::prefetch_read(&self.bounds, w);
        if let Some(&start) = self.bounds.get(w) {
            crate::blocking::prefetch_read(&self.preds, start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CSR of a relation from explicit rows.
    fn csr(rows: &[&[u32]]) -> (Vec<usize>, Vec<u32>) {
        let mut offsets = vec![0usize];
        let mut targets = Vec::new();
        for row in rows {
            targets.extend_from_slice(row);
            offsets.push(targets.len());
        }
        (offsets, targets)
    }

    #[test]
    fn inverts_a_single_relation() {
        // 0 → {1, 2}, 1 → {2}, 2 → {}.
        let (offsets, targets) = csr(&[&[1, 2], &[2], &[]]);
        let csc = CscAdjacency::from_csr(3, &offsets, &targets);
        assert_eq!(csc.node_count(), 3);
        assert_eq!(csc.row(0), &[] as &[u32]);
        assert_eq!(csc.row(1), &[0]);
        assert_eq!(csc.row(2), &[0, 1]);
        assert_eq!(csc.entry_count(), 3);
        assert_eq!(csc.row_len(2), 2);
    }

    #[test]
    fn combines_relations_and_preserves_multiplicity() {
        // Relation A: 0 → 1; relation B: 0 → 1, 2 → 1. Node 1 sees the
        // duplicated edge twice (A's entry first, then B's, source
        // ascending within each).
        let (oa, ta) = csr(&[&[1], &[], &[]]);
        let (ob, tb) = csr(&[&[1], &[], &[1]]);
        let rels = [
            RelationCsr { offsets: &oa, targets: &ta },
            RelationCsr { offsets: &ob, targets: &tb },
        ];
        let csc = CscAdjacency::from_relations(3, &rels);
        assert_eq!(csc.row(1), &[0, 0, 2]);
        assert_eq!(csc.entry_count(), 3);
    }

    #[test]
    fn rows_sort_ascending_within_a_relation() {
        // Sources are visited in ascending order, so each row is sorted.
        let (offsets, targets) = csr(&[&[3], &[3], &[3], &[0, 1, 2, 3]]);
        let csc = CscAdjacency::from_csr(4, &offsets, &targets);
        assert_eq!(csc.row(3), &[0, 1, 2, 3]);
        for w in 0..3 {
            assert_eq!(csc.row(w), &[3]);
        }
    }

    #[test]
    fn apply_edits_in_place_when_row_lengths_hold() {
        // 0 → {1, 2}, 1 → {2}, 2 → {0}. Re-source the edge into node 1
        // from 0 to 2: its predecessor row keeps its length, so the
        // entry array stays where it is.
        let (offsets, targets) = csr(&[&[1, 2], &[2], &[0]]);
        let mut csc = CscAdjacency::from_csr(3, &offsets, &targets);
        let ptr = csc.row(0).as_ptr();
        csc.apply_edits(&[(2, 1)], &[(0, 1)]);
        let (po, pt) = csr(&[&[2], &[2], &[0, 1]]);
        assert_eq!(csc, CscAdjacency::from_csr(3, &po, &pt));
        assert_eq!(csc.row(0).as_ptr(), ptr);
    }

    #[test]
    fn apply_edits_splices_and_matches_fresh_inversion() {
        // Grow node 1's predecessor row and shrink node 2's: the rows
        // between them move, pinned against re-inverting the patched
        // CSR.
        let (offsets, targets) = csr(&[&[1, 2], &[2], &[], &[1]]);
        let mut csc = CscAdjacency::from_csr(4, &offsets, &targets);
        csc.apply_edits(&[(2, 1), (2, 1)], &[(0, 2)]);
        let (po, pt) = csr(&[&[1], &[2], &[1, 1], &[1]]);
        assert_eq!(csc, CscAdjacency::from_csr(4, &po, &pt));
        // Rows stay sorted ascending with multiplicity.
        assert_eq!(csc.row(1), &[0, 2, 2, 3]);
    }

    #[test]
    fn apply_edits_panicking_on_a_missing_removal_leaves_the_store() {
        // Row 1 would grow and row 2's removal has no entry: the patch
        // panics after row 1 was computed, before anything is written.
        let (offsets, targets) = csr(&[&[1], &[], &[1]]);
        let mut csc = CscAdjacency::from_csr(3, &offsets, &targets);
        let before = csc.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            csc.apply_edits(&[(1, 1)], &[(0, 2)]);
        }));
        assert!(result.is_err());
        assert_eq!(csc, before);
    }

    #[test]
    #[should_panic(expected = "no stored CSC entry")]
    fn apply_edits_rejects_missing_removals() {
        let (offsets, targets) = csr(&[&[1], &[]]);
        let mut csc = CscAdjacency::from_csr(2, &offsets, &targets);
        csc.apply_edits(&[], &[(1, 0)]);
    }

    #[test]
    fn degenerate_sizes() {
        let empty = CscAdjacency::from_relations(0, &[]);
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.entry_count(), 0);
        let lonely = CscAdjacency::from_csr(1, &[0, 0], &[]);
        assert_eq!(lonely.row(0), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "n + 1 entries")]
    fn malformed_offsets_panic() {
        let _ = CscAdjacency::from_csr(2, &[0, 0], &[]);
    }
}
