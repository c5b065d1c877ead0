//! Property tests for the resilience layer: cancelling a check at a
//! random failpoint mid-run must leave the [`ModelChecker`] caches
//! consistent — an immediate retry on the *same* checker is
//! bit-identical to a fresh checker on all four canonical variants.
//!
//! The failpoint registry is process-global, so this binary holds
//! exactly one `#[test]` (proptest cases run sequentially within it).

mod common;

use common::{arb_formula_with as arb_formula, arb_graph};
use portnum_graph::resilience::{CancelToken, ExecControl};
use portnum_logic::plan::ModelChecker;
use portnum_logic::{Kripke, LogicError, ModalIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use portnum_graph::PortNumbering;

/// Sites on the `ModelChecker::check_controlled` path. Whether a given
/// (model, formula) pair actually reaches a site depends on the query —
/// a miss simply means the cancel never fires and the check completes,
/// which the property handles (both arms must stay cache-consistent).
const SITES: &[&str] = &["checker-instr", "csc-build", "pool-dispatch", "pool-chunk"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cancel_at_random_failpoint_leaves_checker_caches_consistent(
        g in arb_graph(),
        seed in any::<u64>(),
        site_ix in 0..SITES.len(),
        f_pp in arb_formula(ModalIndex::InOut),
        f_mp in arb_formula(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_formula(|i, _j| ModalIndex::In(i)),
        f_mm in arb_formula(|_i, _j| ModalIndex::Any),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        let cases = [
            (Kripke::k_pp(&g, &p), &f_pp),
            (Kripke::k_mp(&g, &p), &f_mp),
            (Kripke::k_pm(&g, &p), &f_pm),
            (Kripke::k_mm(&g), &f_mm),
        ];
        for (model, f) in &cases {
            let fresh = ModelChecker::new(model)
                .check(f)
                .expect("uninjected check succeeds")
                .words()
                .to_vec();

            let mut checker = ModelChecker::new(model);
            let token = CancelToken::new();
            let t = token.clone();
            fail::cfg_callback(SITES[site_ix], move || t.cancel());
            let injected = checker.check_controlled(f, &ExecControl::with_cancel(token));
            fail::teardown();

            match injected {
                // The cancel landed: whole-or-nothing means nothing was
                // committed by the interrupted call...
                Err(LogicError::Interrupted(_)) => {}
                // ...or the site was never reached and the run finished
                // (must already be correct).
                Ok(truth) => prop_assert_eq!(truth.words(), fresh.as_slice()),
                Err(other) => prop_assert!(false, "unexpected error: {}", other),
            }

            // Either way the caches are consistent: an immediate retry
            // on the same checker matches a fresh checker bit for bit.
            let retry = checker.check(f).expect("retry after cancel succeeds");
            prop_assert_eq!(retry.words(), fresh.as_slice());
        }
    }
}
