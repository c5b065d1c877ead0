//! The serving cache: resident models plus their detached checker
//! state, with the byte accounting the LRU eviction policy runs on.
//!
//! Between requests a shard holds each model as a [`ModelEntry`]: the
//! [`Kripke`] itself and the [`CheckerCache`] detached from the last
//! request's [`ModelChecker`](portnum_logic::ModelChecker) — truth
//! vectors, the instruction table they are indexed by, and the
//! bisimulation quotient, all of which the detach → resume handshake
//! carries across requests (and across deltas, repaired rather than
//! rebuilt). The pointer memo does not survive a detach: every request
//! decodes fresh formula allocations, so keeping it (and the formulas
//! its keys point into) would grow the cache with every request. The
//! instruction table grows only with structurally new subformulas.
//!
//! The entry's footprint is the model's CSR estimate plus the cache's
//! resident words; the shard keeps the sum of footprints under its
//! budget slice by evicting least-recently-used entries wholesale, or
//! — when only the pinned entry remains — shedding its checker cache
//! while keeping the model.

use portnum_logic::{CheckerCache, Kripke};

/// One resident model and its warm serving state.
#[derive(Debug)]
pub(crate) struct ModelEntry {
    /// The model, mutated in place by deltas.
    pub model: Kripke,
    /// Detached checker state; `None` right after a load, a trim, or a
    /// request that panicked mid-flight (cold but consistent — the
    /// next request rebuilds it).
    pub cache: Option<CheckerCache>,
    /// Footprint at last accounting, in bytes ([`entry_bytes`]).
    pub bytes: usize,
    /// Shard tick of the last request touching this entry (the LRU
    /// recency stamp).
    pub last_used: u64,
}

/// Estimated resident bytes of the model itself: CSR targets (`u32`
/// each), per-relation offset arrays, and the degree valuation.
pub(crate) fn model_bytes(model: &Kripke) -> usize {
    let n = model.len();
    let words = std::mem::size_of::<usize>();
    model.relation_entry_count() * 4 + model.relation_count() * (n + 1) * words + n * words
}

/// The entry's full footprint: model plus cached truth-vector words.
pub(crate) fn entry_bytes(entry: &ModelEntry) -> usize {
    model_bytes(&entry.model) + entry.cache.as_ref().map_or(0, |c| c.cached_words() * 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ModelSpec;
    use portnum_logic::{Formula, ModalIndex, ModelChecker};

    #[test]
    fn footprint_grows_with_the_checker_cache() {
        let model = ModelSpec::Path { n: 64 }.build().unwrap();
        let mut entry = ModelEntry { model, cache: None, bytes: 0, last_used: 0 };
        let cold = entry_bytes(&entry);
        assert!(cold >= 64 * 4, "CSR entries must be priced in");
        let mut checker = ModelChecker::new(&entry.model);
        checker.check(&Formula::diamond(ModalIndex::Any, &Formula::prop(1))).unwrap();
        let cache = checker.detach();
        assert!(cache.cached_words() > 0);
        entry.cache = Some(cache);
        assert!(entry_bytes(&entry) > cold);
    }
}
