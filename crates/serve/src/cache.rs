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
//! resident words — truth vectors, and for each cached fixpoint a delta
//! has repaired, the body values and per-world ranks its next warm
//! restart reads; the shard keeps the sum of footprints under its
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

/// The entry's full footprint: model plus the checker cache's resident
/// words ([`CheckerCache::cached_words`]).
pub(crate) fn entry_bytes(entry: &ModelEntry) -> usize {
    model_bytes(&entry.model) + entry.cache.as_ref().map_or(0, |c| c.cached_words() * 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ModelSpec;
    use portnum_logic::{Formula, ModalIndex, ModelChecker, ModelDelta};

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

    #[test]
    fn footprint_prices_the_fixpoint_state_repair_keeps() {
        // A cached µ-formula's first delta repair records the body's
        // values and a rank per world for the next warm restart; the
        // footprint must carry them, not just the truth vectors.
        let mut model = ModelSpec::Path { n: 256 }.build().unwrap();
        let reach = Formula::mu(
            "X",
            &Formula::prop(1).or(&Formula::diamond(ModalIndex::Any, &Formula::var("X"))),
        )
        .unwrap();
        let mut checker = ModelChecker::new(&model);
        checker.check(&reach).unwrap();
        let cache = checker.detach();
        let checked = cache.cached_words();
        let mut delta = ModelDelta::new();
        delta.remove_edge(ModalIndex::Any, 100, 101).remove_edge(ModalIndex::Any, 101, 100);
        let touched = model.apply_delta(&delta).unwrap();
        let cache = ModelChecker::resume(&model, cache, &touched).detach();
        // Four body values (q1, X, ⟨*,*⟩X, the disjunction) of 4 words
        // each, and 256 ranks of 4 bytes.
        assert_eq!(cache.cached_words(), checked + 4 * 4 + 256 / 2);
        let mut entry = ModelEntry { model, cache: Some(cache), bytes: 0, last_used: 0 };
        let before = model_bytes(&entry.model) + checked * 8;
        assert_eq!(entry_bytes(&entry), before + (4 * 4 + 256 / 2) * 8);
        entry.cache = None;
        assert_eq!(entry_bytes(&entry), model_bytes(&entry.model));
    }
}
