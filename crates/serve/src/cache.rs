//! The serving cache: resident models plus their detached checker
//! state, with the byte accounting the LRU eviction policy runs on.
//!
//! Between requests a shard holds each model as a [`ModelEntry`]: the
//! [`Kripke`] itself and the [`CheckerCache`] detached from the last
//! request's [`ModelChecker`] — truth vectors, the instruction table
//! they are indexed by, the bisimulation quotient, and the text memo,
//! all of which the detach → resume handshake carries across requests
//! (and across deltas, repaired rather than rebuilt). The instruction
//! table grows only with structurally new subformulas.
//!
//! The text memo maps each formula wire text the model has been checked
//! with to its root instruction ([`ModelChecker::resolve_texts`]). A
//! Check frame reaches the shard with its texts unparsed, so a text the
//! memo holds costs one hash lookup: no parse and no lowering. Only a
//! new text is parsed, on the shard, and a text that does not parse is
//! answered there with the `Protocol`/`BadFormula` frame the connection
//! layer used to answer, before any lowering and also when the model is
//! not loaded. The memo holds each distinct text once, in one byte
//! arena, and costs its bytes plus 32 bytes per text (end offset, root,
//! chain link, hash entry); it grows only with texts never seen, and is
//! dropped with the rest of the cache on a trim or an eviction. The
//! pointer memo does not survive a detach: a caller building fresh
//! formula allocations for every request would grow it (and the
//! formulas its keys point into) with every request.
//!
//! The entry's footprint is the model's CSR estimate plus the cache's
//! resident words — truth vectors, the text memo, and for each cached
//! fixpoint a delta has repaired, the body values and per-world ranks
//! its next warm restart reads; the shard keeps the sum of footprints
//! under its budget slice by evicting least-recently-used entries
//! wholesale, or — when only the pinned entry remains — shedding its
//! checker cache while keeping the model.
//!
//! [`ModelChecker`]: portnum_logic::ModelChecker
//! [`ModelChecker::resolve_texts`]: portnum_logic::ModelChecker::resolve_texts

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
    use portnum_graph::resilience::ExecControl;
    use portnum_logic::{parse, Formula, ModalIndex, ModelChecker, ModelDelta};

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
    fn footprint_prices_the_text_memo() {
        // The same formula checked by its text and by its AST: the text
        // path's cache holds the same vectors plus one memo entry, the
        // text's bytes and 32 bytes (end offset 8, root 4, chain link 4,
        // hash entry 16), rounded up to whole words.
        let model = ModelSpec::Path { n: 64 }.build().unwrap();
        let text = "<*,*>q1 | <*,*><*,*>q2";
        let mut by_formula = ModelChecker::new(&model);
        by_formula.check_suite(&[parse(text).unwrap()]).unwrap();
        let by_formula = by_formula.detach().cached_words();
        let mut by_text = ModelChecker::new(&model);
        let batch = by_text.resolve_texts([text]).unwrap();
        let ctl = ExecControl::unrestricted();
        let truths = by_text.check_roots_controlled(&batch.roots, &ctl).unwrap();
        let cache = by_text.detach();
        let memo_words = (text.len() + 32).div_ceil(8);
        assert_eq!(cache.cached_words(), by_formula + memo_words);

        let mut entry = ModelEntry { model, cache: Some(cache), bytes: 0, last_used: 0 };
        let priced = entry_bytes(&entry);
        assert_eq!(priced, model_bytes(&entry.model) + (by_formula + memo_words) * 8);
        // A warm hit neither parses nor grows the entry.
        let mut warm = ModelChecker::resume(&entry.model, entry.cache.take().unwrap(), &[]);
        let again = warm.resolve_texts([text]).unwrap();
        assert_eq!(again.estimate, 0);
        assert_eq!(warm.check_roots_controlled(&again.roots, &ctl).unwrap(), truths);
        entry.cache = Some(warm.detach());
        assert_eq!(entry_bytes(&entry), priced);
        // A trim drops the memo with the rest of the cache.
        entry.cache = None;
        assert_eq!(entry_bytes(&entry), model_bytes(&entry.model));
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
