//! Packed truth vectors: fixed-length bit sets over `u64` words.
//!
//! [`Bitset`] is the storage type behind `portnum-logic`'s packed model
//! checker: a set over a fixed universe `0..len`, one bit per element,
//! 64 elements per word. Boolean connectives (`and`, `or`, `not`) are
//! word-parallel loops over the backing array — 64 elements per
//! instruction instead of one — and membership is a shift and mask.
//!
//! # Tail invariant
//!
//! When `len` is not a multiple of 64, the unused high bits of the last
//! word are **always zero**. Every constructor and mutator maintains
//! this, so [`Bitset::count_ones`] and equality never see garbage and
//! `not` must (and does) re-mask the tail after complementing.

/// A fixed-length set of bits, packed 64 per `u64` word.
///
/// # Examples
///
/// ```
/// use portnum_graph::bitset::Bitset;
///
/// let mut a = Bitset::zeros(100);
/// a.insert(3);
/// a.insert(99);
/// let b = Bitset::ones(100);
/// assert_eq!(a.and(&b), a);
/// assert_eq!(a.count_ones(), 2);
/// assert_eq!(a.not().count_ones(), 98);
/// assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![3, 99]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Bitset {
    len: usize,
    words: Vec<u64>,
}

#[inline]
fn word_count(len: usize) -> usize {
    len.div_ceil(64)
}

impl Bitset {
    /// The empty set over universe `0..len`.
    pub fn zeros(len: usize) -> Bitset {
        Bitset { len, words: vec![0; word_count(len)] }
    }

    /// The full set over universe `0..len` (tail bits kept zero).
    pub fn ones(len: usize) -> Bitset {
        let mut set = Bitset { len, words: vec![!0u64; word_count(len)] };
        set.mask_tail();
        set
    }

    /// Builds the set `{ i : bools[i] }`.
    pub fn from_bools(bools: &[bool]) -> Bitset {
        let mut set = Bitset::zeros(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                set.words[i / 64] |= 1 << (i % 64);
            }
        }
        set
    }

    /// Builds a set by evaluating `f` on every element of the universe.
    ///
    /// `f` is called exactly once per element, in increasing order, so
    /// callers may carry sequential state (e.g. a CSR row cursor) in a
    /// captured mutable. Each word is accumulated in a register and
    /// stored once, so the loop body is shift-or rather than a
    /// read-modify-write per bit — this is the hot constructor of the
    /// packed model checker.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> bool) -> Bitset {
        let mut set = Bitset { len: 0, words: Vec::with_capacity(word_count(len)) };
        set.assign_from_fn(len, f);
        set
    }

    /// Re-fills `self` as `from_fn(len, f)` would, reusing the backing
    /// allocation — the in-place counterpart of [`Bitset::from_fn`] for
    /// callers (the plan executor) that cycle a fixed pool of slots.
    ///
    /// # Invocation contract
    ///
    /// `f` is invoked **exactly once per element, in strictly
    /// increasing order** (`f(0), f(1), …, f(len - 1)`), with no skips
    /// and no repeats — the same contract as [`Bitset::from_fn`].
    /// Callers are allowed to lean on it with stateful closures: the
    /// plan executor's forward-diamond path threads a CSR row cursor
    /// through `f` and would silently miscompile under any other
    /// schedule. A range-split parallel fill must therefore go through
    /// [`fill_words_from_fn`] with per-chunk closures (each chunk
    /// re-deriving its cursor), never by sharing one closure across
    /// chunks.
    pub fn assign_from_fn(&mut self, len: usize, mut f: impl FnMut(usize) -> bool) {
        self.len = len;
        self.words.clear();
        let mut i = 0;
        while i < len {
            let end = (i + 64).min(len);
            let mut word = 0u64;
            for bit in 0..end - i {
                word |= (f(i + bit) as u64) << bit;
            }
            self.words.push(word);
            i = end;
        }
    }

    /// Overwrites `self` with a copy of `other`, reusing the backing
    /// allocation (unlike `*self = other.clone()`, which reallocates).
    pub fn copy_from(&mut self, other: &Bitset) {
        self.len = other.len;
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// Overwrites `self` with the empty set over `0..len`, reusing the
    /// backing allocation.
    pub fn assign_zeros(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(word_count(len), 0);
    }

    /// Overwrites `self` with the full set over `0..len`, reusing the
    /// backing allocation (tail bits kept zero).
    pub fn assign_ones(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(word_count(len), !0u64);
        self.mask_tail();
    }

    /// Unpacks into one `bool` per element.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Size of the universe (number of bits, set or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range for Bitset of length {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Inserts element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range for Bitset of length {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Sets element `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range for Bitset of length {}", self.len);
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of elements in the set (one `popcnt` per word).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn and_assign(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "Bitset universe mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn or_assign(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "Bitset universe mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement (relative to the universe).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Intersection.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn and(&self, other: &Bitset) -> Bitset {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Union.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn or(&self, other: &Bitset) -> Bitset {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Complement relative to the universe.
    pub fn not(&self) -> Bitset {
        let mut out = self.clone();
        out.not_assign();
        out
    }

    /// Calls `f` with every element where `self` and `other` disagree, in
    /// increasing order — one XOR per word, then trailing-zero peeling,
    /// so the cost is one word sweep plus the number of differences (the
    /// flip-extraction primitive behind fixpoint frontier iteration and
    /// cache repair).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn for_each_difference(&self, other: &Bitset, mut f: impl FnMut(usize)) {
        assert_eq!(self.len, other.len, "Bitset universe mismatch");
        for (wi, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut diff = a ^ b;
            while diff != 0 {
                f(wi * 64 + diff.trailing_zeros() as usize);
                diff &= diff - 1; // clear lowest set bit
            }
        }
    }

    /// Iterates the set elements in increasing order, skipping empty words
    /// wholesale and peeling set bits with trailing-zero counts.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors(
                (word != 0).then_some(word),
                |&w| {
                    let next = w & (w - 1); // clear lowest set bit
                    (next != 0).then_some(next)
                },
            )
            .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }

    /// The backing words, low element first (tail bits zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words, for bulk overwrites (the
    /// parallel plan executor splits this slice into disjoint per-chunk
    /// ranges and fills each with [`fill_words_from_fn`]).
    ///
    /// The caller must uphold the tail invariant: unused high bits of
    /// the last word stay zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Fills `words` with the bits of elements `range.start..range.end`,
/// exactly as that span of a [`Bitset::from_fn`] result would look:
/// `f` is invoked once per element in increasing order, each word is
/// accumulated in a register and stored once, and a trailing partial
/// word gets zero tail bits.
///
/// This is the chunk primitive of parallel fills: split a bitset's
/// [`Bitset::words_mut`] at element boundaries that are multiples of
/// 64 (so chunks own disjoint words), hand each chunk its own closure
/// (re-deriving any sequential state, e.g. a CSR cursor, from
/// `range.start`), and fill the chunks concurrently — the result is
/// bit-identical to one sequential [`Bitset::assign_from_fn`] pass.
///
/// # Panics
///
/// Panics (in debug builds) if `range.start` is not a multiple of 64
/// or `words` is not exactly the chunk's word count.
pub fn fill_words_from_fn(words: &mut [u64], range: std::ops::Range<usize>, mut f: impl FnMut(usize) -> bool) {
    debug_assert_eq!(range.start % 64, 0, "chunk starts must be word-aligned");
    debug_assert_eq!(
        words.len(),
        (range.end - range.start).div_ceil(64),
        "chunk word count must match its element range"
    );
    let mut i = range.start;
    let mut wi = 0;
    while i < range.end {
        let end = (i + 64).min(range.end);
        let mut word = 0u64;
        for bit in 0..end - i {
            word |= (f(i + bit) as u64) << bit;
        }
        words[wi] = word;
        wi += 1;
        i = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_bits_stay_zero() {
        for len in [0usize, 1, 63, 64, 65, 100, 127, 128, 129] {
            let full = Bitset::ones(len);
            assert_eq!(full.count_ones(), len, "ones({len})");
            let empty = Bitset::zeros(len);
            assert_eq!(empty.not(), full, "not(zeros({len}))");
            assert_eq!(full.not(), empty, "not(ones({len}))");
            // Double complement is the identity only because the tail is
            // re-masked each time.
            assert_eq!(full.not().not(), full);
        }
    }

    #[test]
    fn for_each_difference_yields_exactly_the_xor_in_order() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let a = Bitset::from_fn(len, |i| i % 3 == 0);
            let b = Bitset::from_fn(len, |i| i % 5 == 0);
            let mut seen = Vec::new();
            a.for_each_difference(&b, |i| seen.push(i));
            let expected: Vec<usize> =
                (0..len).filter(|i| (i % 3 == 0) != (i % 5 == 0)).collect();
            assert_eq!(seen, expected, "len {len}");
            // Identical sets disagree nowhere, whatever the tail shape.
            a.for_each_difference(&a.clone(), |i| panic!("spurious difference at {i}"));
        }
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn for_each_difference_rejects_mismatched_universes() {
        Bitset::zeros(64).for_each_difference(&Bitset::zeros(65), |_| {});
    }

    #[test]
    fn roundtrips_bools() {
        let bools: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let set = Bitset::from_bools(&bools);
        assert_eq!(set.to_bools(), bools);
        assert_eq!(set.count_ones(), bools.iter().filter(|&&b| b).count());
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(set.get(i), b);
        }
    }

    #[test]
    fn connectives_match_boolean_semantics() {
        let n = 131;
        let a = Bitset::from_fn(n, |i| i % 2 == 0);
        let b = Bitset::from_fn(n, |i| i % 3 == 0);
        assert_eq!(a.and(&b), Bitset::from_fn(n, |i| i % 6 == 0));
        assert_eq!(a.or(&b), Bitset::from_fn(n, |i| i % 2 == 0 || i % 3 == 0));
        assert_eq!(a.not(), Bitset::from_fn(n, |i| i % 2 == 1));
    }

    #[test]
    fn iter_ones_in_order() {
        let mut set = Bitset::zeros(200);
        let members = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &members {
            set.insert(i);
        }
        assert_eq!(set.iter_ones().collect::<Vec<_>>(), members);
        assert!(Bitset::zeros(77).iter_ones().next().is_none());
    }

    #[test]
    fn set_and_insert_agree() {
        let mut a = Bitset::zeros(66);
        let mut b = Bitset::zeros(66);
        a.insert(65);
        b.set(65, true);
        assert_eq!(a, b);
        b.set(65, false);
        assert!(b.none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_past_len_panics() {
        let _ = Bitset::zeros(64).get(64);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universes_panic() {
        let mut a = Bitset::zeros(10);
        a.and_assign(&Bitset::zeros(11));
    }

    #[test]
    fn assign_variants_match_constructors() {
        let mut s = Bitset::from_fn(130, |i| i % 5 == 0);
        s.assign_zeros(70);
        assert_eq!(s, Bitset::zeros(70));
        s.assign_ones(99);
        assert_eq!(s, Bitset::ones(99));
        s.assign_from_fn(131, |i| i % 3 == 1);
        assert_eq!(s, Bitset::from_fn(131, |i| i % 3 == 1));
        let other = Bitset::from_fn(64, |i| i % 2 == 0);
        s.copy_from(&other);
        assert_eq!(s, other);
    }

    #[test]
    fn chunked_fill_matches_sequential_from_fn() {
        // Splitting the universe at 64-aligned boundaries and filling
        // each chunk independently must reproduce from_fn bit for bit,
        // including partial tail words.
        let pred = |i: usize| i.is_multiple_of(7) || i % 3 == 1;
        for len in [1usize, 63, 64, 65, 130, 192, 200] {
            let reference = Bitset::from_fn(len, pred);
            for split in [64usize, 128] {
                if split >= len {
                    continue;
                }
                let mut out = Bitset::zeros(len);
                let words = out.words_mut();
                let (head, tail) = words.split_at_mut(split / 64);
                fill_words_from_fn(head, 0..split, pred);
                fill_words_from_fn(tail, split..len, pred);
                assert_eq!(out, reference, "len {len}, split {split}");
                assert_eq!(out.count_ones(), reference.count_ones());
            }
        }
    }

    #[test]
    fn chunked_fill_supports_per_chunk_cursors() {
        // Each chunk re-derives sequential state from range.start —
        // the pattern the parallel forward-diamond path uses.
        let len = 150;
        let reference = Bitset::from_fn(len, |i| i % 2 == 0);
        let mut out = Bitset::zeros(len);
        let words = out.words_mut();
        let (head, tail) = words.split_at_mut(1);
        let mut cursor = 0usize; // chunk-local state
        fill_words_from_fn(head, 0..64, |i| {
            assert_eq!(i, cursor, "strictly increasing, no skips");
            cursor += 1;
            i % 2 == 0
        });
        let mut cursor = 64usize;
        fill_words_from_fn(tail, 64..len, |i| {
            assert_eq!(i, cursor);
            cursor += 1;
            i % 2 == 0
        });
        assert_eq!(out, reference);
    }
}
