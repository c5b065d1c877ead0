//! The hash-chained intern table: dense ids filed by a 64-bit hash,
//! with every text kept by the caller.
//!
//! The partition engines in [`partition`](crate::partition) file
//! their signatures through it, and `portnum-logic`'s checker cache
//! files formula wire texts through it. A table stores no text: the
//! caller keeps every interned text in its own storage (an
//! [`InternArena`], spans of a block store) and resolves a hash match
//! with its own comparison, so interning allocates no key. Ids are
//! dense and first-seen: `0, 1, 2, …` in filing order.

use crate::partition::{FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::hash::Hasher;

/// Ends an id chain.
const NONE: u32 = u32::MAX;

/// Fx hash of a word text: its length, then its words — the words the
/// `Hash` impl of `[u64]` feeds an [`FxHasher`]. Equal texts always
/// share a hash, so a collision only costs one extra text comparison.
#[inline]
#[must_use]
pub fn hash_words(words: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(words.len() as u64);
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// Fx hash of a byte text: its length, then its bytes in
/// little-endian 8-byte words (the last one zero-padded).
#[inline]
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(bytes.len() as u64);
    h.write(bytes);
    h.finish()
}

/// Maps a text's 64-bit hash to the first id filed under it and chains
/// later same-hash ids; see the [module docs](self).
#[derive(Debug, Default)]
pub struct InternTable {
    /// First id filed under each hash.
    first: FxHashMap<u64, u32>,
    /// Per id: the next id with the same hash (`NONE` ends the chain).
    next: Vec<u32>,
}

impl InternTable {
    /// Bytes the table charges per filed id (its chain link) and per
    /// distinct hash (a `u64` key and a `u32` id, padded to 16).
    pub const BYTES_PER_ID: usize = 4;
    /// See [`Self::BYTES_PER_ID`].
    pub const BYTES_PER_HASH: usize = 16;

    /// Forgets every id, keeping capacity.
    pub fn clear(&mut self) {
        self.first.clear();
        self.next.clear();
    }

    /// Number of ids filed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Whether no id is filed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// The table's own resident size: [`Self::BYTES_PER_ID`] per id
    /// plus [`Self::BYTES_PER_HASH`] per distinct hash. It grows only
    /// when an id is filed, so lookups never change it.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.next.len() * Self::BYTES_PER_ID + self.first.len() * Self::BYTES_PER_HASH
    }

    /// The id filed under `hash` whose text `same` accepts, if any.
    /// Files nothing.
    pub fn find(&self, hash: u64, mut same: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut id = *self.first.get(&hash)?;
        while id != NONE {
            if same(id) {
                return Some(id);
            }
            id = self.next[id as usize];
        }
        None
    }

    /// The id filed under `hash` whose text `same` accepts, or a fresh
    /// id (`len()` before the call) filed under `hash` if there is none.
    /// The flag is `true` exactly when the id is fresh, so the caller
    /// knows to store its text.
    ///
    /// # Panics
    ///
    /// Panics if a fresh id would not fit below `u32::MAX`.
    pub fn intern(&mut self, hash: u64, mut same: impl FnMut(u32) -> bool) -> (u32, bool) {
        let fresh = u32::try_from(self.next.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("intern tables hold fewer than 2^32 - 1 ids");
        let link = match self.first.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(fresh);
                NONE
            }
            Entry::Occupied(mut slot) => {
                let mut id = *slot.get();
                while id != NONE {
                    if same(id) {
                        return (id, false);
                    }
                    id = self.next[id as usize];
                }
                slot.insert(fresh)
            }
        };
        self.next.push(link);
        (fresh, true)
    }
}

/// An [`InternTable`] over its own arena: interned text `i` is
/// `items[ends[i - 1]..ends[i]]` (`ends[-1]` = 0). Every text sits in
/// one buffer, so a new text costs a copy, not an allocation of its
/// own, and [`clear`](Self::clear) keeps the capacity for reuse.
/// [`partition::Refiner`](crate::partition::Refiner) interns signature
/// words through it, the checker cache formula wire text bytes.
#[derive(Debug)]
pub struct InternArena<T> {
    table: InternTable,
    items: Vec<T>,
    ends: Vec<usize>,
}

impl<T> Default for InternArena<T> {
    fn default() -> Self {
        InternArena { table: InternTable::default(), items: Vec::new(), ends: Vec::new() }
    }
}

impl<T: Copy + PartialEq> InternArena<T> {
    /// Forgets every text, keeping capacity.
    pub fn clear(&mut self) {
        self.table.clear();
        self.items.clear();
        self.ends.clear();
    }

    /// Number of texts interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no text is interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The id of `text` (hashed to `hash`), if it is interned.
    #[must_use]
    pub fn find(&self, hash: u64, text: &[T]) -> Option<u32> {
        self.table.find(hash, |id| span(&self.items, &self.ends, id) == text)
    }

    /// The id of `text` (hashed to `hash`), interning a copy of it
    /// first if there is none; the flag is `true` exactly then.
    pub fn intern(&mut self, hash: u64, text: &[T]) -> (u32, bool) {
        let (items, ends) = (&self.items, &self.ends);
        let (id, fresh) = self.table.intern(hash, |id| span(items, ends, id) == text);
        if fresh {
            self.items.extend_from_slice(text);
            self.ends.push(self.items.len());
        }
        (id, fresh)
    }

    /// Resident size: the texts themselves, 8 bytes per text for its
    /// end offset, and the table's [`InternTable::bytes`]. Lookups never
    /// change it.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.items.len() * std::mem::size_of::<T>()
            + self.ends.len() * std::mem::size_of::<usize>()
            + self.table.bytes()
    }
}

/// Text `id` of `items` delimited by `ends`.
fn span<'a, T>(items: &'a [T], ends: &[usize], id: u32) -> &'a [T] {
    let id = id as usize;
    let start = if id == 0 { 0 } else { ends[id - 1] };
    &items[start..ends[id]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_hash_collisions_resolve_by_text() {
        // Every text under one hash: the chain alone must keep distinct
        // texts apart and send equal texts to one id.
        let texts: [&[u64]; 6] = [&[1, 2], &[1, 3], &[1, 2], &[], &[1, 3, 0], &[1, 3]];
        let mut table = InternTable::default();
        let mut stored: Vec<&[u64]> = Vec::new();
        let ids: Vec<u32> = texts
            .iter()
            .map(|&text| {
                let (id, fresh) = table.intern(7, |id| stored[id as usize] == text);
                if fresh {
                    stored.push(text);
                }
                id
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 3, 1]);
        assert_eq!(table.len(), 4);
        assert_eq!(table.find(7, |id| stored[id as usize] == [1, 3, 0]), Some(3));
        assert_eq!(table.find(7, |id| stored[id as usize] == [9]), None);
        assert_eq!(table.find(8, |_| true), None, "an unfiled hash finds nothing");
        assert_eq!(table.len(), 4, "find files nothing");
        // Four ids under one hash.
        assert_eq!(table.bytes(), 4 * InternTable::BYTES_PER_ID + InternTable::BYTES_PER_HASH);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.intern(7, |_| true), (0, true), "a cleared table starts over");
    }

    #[test]
    fn arenas_keep_one_copy_per_text() {
        let mut arena = InternArena::<u8>::default();
        assert_eq!(arena.intern(hash_bytes(b"q1"), b"q1"), (0, true));
        assert_eq!(arena.intern(hash_bytes(b"<*,*>q1"), b"<*,*>q1"), (1, true));
        assert_eq!(arena.intern(hash_bytes(b"q1"), b"q1"), (0, false));
        assert_eq!(arena.find(hash_bytes(b"<*,*>q1"), b"<*,*>q1"), Some(1));
        assert_eq!(arena.find(hash_bytes(b"q2"), b"q2"), None);
        assert_eq!(arena.len(), 2);
        // Nine text bytes, two end offsets, two ids under two hashes.
        let table = 2 * InternTable::BYTES_PER_ID + 2 * InternTable::BYTES_PER_HASH;
        assert_eq!(arena.bytes(), 9 + 2 * 8 + table);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.bytes(), 0);
    }

    #[test]
    fn hashes_see_length_and_every_byte() {
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"q1"), hash_bytes(b"q1\0"));
        assert_ne!(hash_bytes(b"<*>q1 | q2"), hash_bytes(b"<*>q1 | q3"));
        assert_eq!(hash_bytes(b"mu X . q1"), hash_bytes(b"mu X . q1"));
        assert_ne!(hash_words(&[]), hash_words(&[0]));
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
    }
}
