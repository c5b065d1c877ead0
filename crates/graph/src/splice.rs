//! In-place row splicing for CSR-shaped stores.
//!
//! A CSR-shaped store is a pair `(offsets, entries)`: row `r` is
//! `entries[offsets[r]..offsets[r + 1]]`. The forward relations of a
//! `portnum_logic::Kripke` and the predecessor rows of a
//! [`crate::csc::CscAdjacency`] are both this shape, and both are
//! patched after every model delta. [`splice_rows`] is the one kernel
//! that does it; each store keeps only its own *row rule* (how a
//! touched row's new contents follow from its old contents and its
//! edits).
//!
//! # Cost
//!
//! The kernel never allocates a second store. Untouched spans between
//! touched rows move by their running shift with `copy_within` (a
//! `memmove`), their offsets by one constant-add loop per span, and
//! spans whose shift is zero are not touched at all — so a batch that
//! keeps every row's length writes only the touched rows. The entry
//! array reallocates only when it grows past its capacity, and then
//! with `Vec`'s amortised doubling; shrinking keeps the capacity.

/// Rewrites the touched rows of the CSR-shaped store `(offsets,
/// entries)` in place.
///
/// `adds` and `removes` are `(row, value)` edits, each list sorted by
/// row (the order within a row is the row rule's business). Every row
/// named by either list is *touched*: `patch(row, old, row_adds,
/// row_removes, out)` must **append** the row's new contents to `out`,
/// given its old contents and its slice of each edit list. Untouched
/// rows keep their contents.
///
/// Every touched row is patched into one scratch buffer before the
/// store is written, so a panicking `patch` (say, on a removal with no
/// stored entry) leaves `(offsets, entries)` exactly as they were.
///
/// # Panics
///
/// Panics if an edit names a row `>= offsets.len() - 1`, if either
/// list is not sorted by row, or if `patch` panics — in every case
/// before the store is modified.
///
/// # Examples
///
/// ```
/// use portnum_graph::splice::splice_rows;
///
/// // Rows [7], [], [8, 9]; append 5 to row 1 and drop the 8 of row 2.
/// let mut offsets = vec![0usize, 1, 1, 3];
/// let mut entries = vec![7u32, 8, 9];
/// splice_rows(&mut offsets, &mut entries, &[(1, 5)], &[(2, 8)], |_, old, adds, rms, out| {
///     out.extend(old.iter().filter(|&&x| !rms.iter().any(|&(_, r)| r == x)));
///     out.extend(adds.iter().map(|&(_, a)| a));
/// });
/// assert_eq!(offsets, [0, 1, 2, 3]);
/// assert_eq!(entries, [7, 5, 9]);
/// ```
pub fn splice_rows<F>(
    offsets: &mut [usize],
    entries: &mut Vec<u32>,
    adds: &[(u32, u32)],
    removes: &[(u32, u32)],
    mut patch: F,
) where
    F: FnMut(u32, &[u32], &[(u32, u32)], &[(u32, u32)], &mut Vec<u32>),
{
    let n = offsets.len() - 1;
    // Pass 1, read-only: every touched row's new contents into
    // `scratch`, recording (row, end of its contents in `scratch`,
    // running shift after it). Nothing below this loop can panic.
    let mut scratch: Vec<u32> = Vec::new();
    let mut rows: Vec<(usize, usize, isize)> = Vec::new();
    let mut shift = 0isize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < adds.len() || j < removes.len() {
        let row = match (adds.get(i), removes.get(j)) {
            (Some(&(a, _)), Some(&(r, _))) => a.min(r),
            (Some(&(a, _)), None) => a,
            (None, Some(&(r, _))) => r,
            (None, None) => unreachable!("loop condition"),
        };
        let ascending = rows.last().is_none_or(|&(prev, _, _)| prev < row as usize);
        assert!(ascending, "edits must be sorted by row");
        let (ai, ri) = (i, j);
        while i < adds.len() && adds[i].0 == row {
            i += 1;
        }
        while j < removes.len() && removes[j].0 == row {
            j += 1;
        }
        let old = &entries[offsets[row as usize]..offsets[row as usize + 1]];
        let start = scratch.len();
        patch(row, old, &adds[ai..i], &removes[ri..j], &mut scratch);
        shift += (scratch.len() - start) as isize - old.len() as isize;
        rows.push((row as usize, scratch.len(), shift));
    }
    let old_total = entries.len();
    let new_total = old_total.wrapping_add_signed(shift);
    if new_total > old_total {
        // `resize` grows through `reserve`: amortised doubling.
        entries.resize(new_total, 0);
    }
    // Pass 2: move the untouched span after each touched row by its
    // running shift. A span moving left can only land on the sources
    // of earlier left-moving spans, one moving right only on those of
    // later right-moving spans, so left moves run ascending and right
    // moves descending.
    let span = |k: usize| {
        let (row, _, shift) = rows[k];
        let end = rows.get(k + 1).map_or(offsets[n], |&(next, _, _)| offsets[next]);
        (offsets[row + 1], end, shift)
    };
    for k in 0..rows.len() {
        let (from, to, shift) = span(k);
        if shift < 0 {
            entries.copy_within(from..to, from.wrapping_add_signed(shift));
        }
    }
    for k in (0..rows.len()).rev() {
        let (from, to, shift) = span(k);
        if shift > 0 {
            entries.copy_within(from..to, from.wrapping_add_signed(shift));
        }
    }
    // Pass 3: the touched rows at their new starts, then every offset
    // after each touched row shifted by that row's running shift.
    let (mut from, mut shift_before) = (0usize, 0isize);
    for &(row, end, shift) in &rows {
        let start = offsets[row].wrapping_add_signed(shift_before);
        entries[start..start + end - from].copy_from_slice(&scratch[from..end]);
        (from, shift_before) = (end, shift);
    }
    for (k, &(row, _, shift)) in rows.iter().enumerate() {
        let last = rows.get(k + 1).map_or(n, |&(next, _, _)| next);
        if shift != 0 {
            for o in &mut offsets[row + 1..=last] {
                *o = o.wrapping_add_signed(shift);
            }
        }
    }
    entries.truncate(new_total);
    debug_assert_eq!(offsets[n], entries.len(), "offsets end at the entry count");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row rule of the tests: drop every value named by a removal,
    /// then append the adds.
    fn rule(_: u32, old: &[u32], adds: &[(u32, u32)], rms: &[(u32, u32)], out: &mut Vec<u32>) {
        out.extend(old.iter().filter(|&&x| !rms.iter().any(|&(_, r)| r == x)));
        out.extend(adds.iter().map(|&(_, a)| a));
    }

    fn store(rows: &[&[u32]]) -> (Vec<usize>, Vec<u32>) {
        let mut offsets = vec![0usize];
        let mut entries = Vec::new();
        for row in rows {
            entries.extend_from_slice(row);
            offsets.push(entries.len());
        }
        (offsets, entries)
    }

    #[test]
    fn mixed_shifts_match_a_fresh_layout() {
        // Row 0 shrinks, row 2 grows by two, row 4 shrinks: the spans
        // after them move left, right and back.
        let (mut offsets, mut entries) = store(&[&[1, 2], &[3], &[], &[4, 5], &[6], &[7, 8]]);
        let adds = [(2, 9), (2, 10)];
        let removes = [(0, 1), (4, 6)];
        splice_rows(&mut offsets, &mut entries, &adds, &removes, rule);
        assert_eq!((offsets, entries), store(&[&[2], &[3], &[9, 10], &[4, 5], &[], &[7, 8]]));
    }

    #[test]
    fn consecutive_spans_move_in_a_safe_order() {
        // Each span lands on the source of the next one in its
        // direction: right moves must run back to front and left moves
        // front to back, or a span overwrites one not yet moved.
        let (mut offsets, mut entries) = store(&[&[1], &[], &[2, 3, 4], &[], &[5, 6, 7]]);
        splice_rows(&mut offsets, &mut entries, &[(1, 20), (3, 21)], &[], rule);
        assert_eq!((offsets, entries), store(&[&[1], &[20], &[2, 3, 4], &[21], &[5, 6, 7]]));
        let (mut offsets, mut entries) = store(&[&[1, 2], &[3, 4, 5], &[6], &[7, 8, 9]]);
        splice_rows(&mut offsets, &mut entries, &[], &[(0, 1), (0, 2), (2, 6)], rule);
        assert_eq!((offsets, entries), store(&[&[], &[3, 4, 5], &[], &[7, 8, 9]]));
    }

    #[test]
    fn equal_lengths_write_only_the_touched_rows() {
        let (mut offsets, mut entries) = store(&[&[1], &[2, 3], &[4]]);
        let ptr = entries.as_ptr();
        splice_rows(&mut offsets, &mut entries, &[(1, 7)], &[(1, 2)], rule);
        assert_eq!((offsets, entries.clone()), store(&[&[1], &[3, 7], &[4]]));
        assert_eq!(entries.as_ptr(), ptr);
    }

    #[test]
    fn shrinking_keeps_the_capacity() {
        let (mut offsets, mut entries) = store(&[&[1, 2, 3], &[4]]);
        let cap = entries.capacity();
        splice_rows(&mut offsets, &mut entries, &[], &[(0, 1), (0, 3), (1, 4)], rule);
        assert_eq!((offsets, entries.clone()), store(&[&[2], &[]]));
        assert_eq!(entries.capacity(), cap);
    }

    #[test]
    fn a_panicking_patch_leaves_the_store_untouched() {
        let (mut offsets, mut entries) = store(&[&[1], &[2], &[3]]);
        let before = (offsets.clone(), entries.clone());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let adds = [(0, 5), (2, 6)];
            splice_rows(&mut offsets, &mut entries, &adds, &[], |row, old, adds, rms, out| {
                assert!(row < 2, "row {row} refuses");
                rule(row, old, adds, rms, out);
            });
        }));
        assert!(result.is_err());
        assert_eq!((offsets, entries), before);
    }

    #[test]
    #[should_panic(expected = "sorted by row")]
    fn unsorted_edits_panic() {
        let (mut offsets, mut entries) = store(&[&[], &[]]);
        splice_rows(&mut offsets, &mut entries, &[(1, 0), (0, 0)], &[], rule);
    }
}
