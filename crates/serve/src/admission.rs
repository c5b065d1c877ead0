//! Admission control: price a request before running it, bound it
//! while it runs.
//!
//! Pricing uses the engine's own measured cost model — the per-op
//! work-words estimate the Auto execution gate compares against the
//! pool's calibrated
//! [`dispatch_cost_ns`](portnum_graph::pool::WorkerPool::dispatch_cost_ns)
//! — via [`ModelChecker::resolve_texts`], which prices a batch as
//! [`ModelChecker::estimate_work`] does: it charges only the
//! instructions the batch would actually evaluate (cached subresults
//! are free, so a batch of warm hits prices at zero). Requests priced over [`ServeConfig::max_cost`] are shed
//! with an `Overloaded` error frame before any work happens; admitted
//! requests run under an [`ExecControl`] carrying the configured
//! deadline, the same cost cap as an in-flight work budget, and a
//! fresh [`CancelToken`] — so a mis-priced request dies with a typed
//! interrupt, never a torn cache (the checker's whole-or-nothing
//! commit guarantees the cache part).
//!
//! [`ModelChecker::estimate_work`]: portnum_logic::ModelChecker::estimate_work
//! [`ModelChecker::resolve_texts`]: portnum_logic::ModelChecker::resolve_texts

use crate::config::ServeConfig;
use portnum_graph::partition::parallel_floor_words;
use portnum_graph::pool::WorkerPool;
use portnum_graph::resilience::{CancelToken, Deadline, ExecControl};
use std::time::Duration;

/// The verdict on a priced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run it (under [`control_for`]'s `ExecControl`).
    Admit,
    /// Shed it: the estimate exceeds the configured cost cap.
    Shed {
        /// The offending estimate, in work-words.
        estimate: u64,
        /// The cap it broke.
        cap: u64,
    },
}

/// Prices `estimate` (work-words, from
/// [`ModelChecker::estimate_work`](portnum_logic::ModelChecker::estimate_work))
/// against the configured cap.
#[must_use]
pub fn admit(cfg: &ServeConfig, estimate: u64) -> Admission {
    match cfg.max_cost {
        Some(cap) if estimate > cap => Admission::Shed { estimate, cap },
        _ => Admission::Admit,
    }
}

/// Approximate cost of an admitted request in nanoseconds: the
/// work-words estimate at the engine's ~1 word/ns throughput anchor,
/// plus one measured pool dispatch when the estimate clears the Auto
/// gate's parallel floor (the request will pay the coordination price
/// exactly when the executor fans out). Surfaced in shed messages and
/// stats so operators see the same currency the gate prices with.
#[must_use]
pub fn estimated_cost_ns(estimate: u64) -> u64 {
    let pool = WorkerPool::global();
    let dispatch = if estimate as usize >= parallel_floor_words() {
        pool.dispatch_cost_ns()
    } else {
        0
    };
    estimate.saturating_add(dispatch)
}

/// The per-request [`ExecControl`]: configured deadline, the cost cap
/// doubling as the in-flight touched-work budget, and a fresh
/// [`CancelToken`] (returned so the connection layer — and the chaos
/// tests — can cancel mid-request).
#[must_use]
pub fn control_for(cfg: &ServeConfig) -> (ExecControl, CancelToken) {
    let token = CancelToken::new();
    let mut ctl = ExecControl::with_cancel(token.clone());
    if let Some(ms) = cfg.deadline_ms {
        ctl.deadline = Some(Deadline::after(Duration::from_millis(ms)));
    }
    ctl.budget.max_touched_words = cfg.max_cost.map(|c| usize::try_from(c).unwrap_or(usize::MAX));
    (ctl, token)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_cap_sheds_and_bounds() {
        let mut cfg = ServeConfig { max_cost: Some(100), ..ServeConfig::default() };
        assert_eq!(admit(&cfg, 100), Admission::Admit);
        assert_eq!(admit(&cfg, 101), Admission::Shed { estimate: 101, cap: 100 });
        let (ctl, _token) = control_for(&cfg);
        assert_eq!(ctl.budget.max_touched_words, Some(100));
        cfg.max_cost = None;
        assert_eq!(admit(&cfg, u64::MAX), Admission::Admit);
    }

    #[test]
    fn deadline_knob_reaches_the_control() {
        let cfg = ServeConfig { deadline_ms: Some(5), ..ServeConfig::default() };
        let (ctl, token) = control_for(&cfg);
        assert!(ctl.deadline.is_some());
        assert!(ctl.check().is_ok());
        token.cancel();
        assert!(ctl.check().is_err());
    }
}
