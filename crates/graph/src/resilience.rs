//! Cooperative execution control: cancellation, deadlines, and budgets.
//!
//! ROADMAP item 1 ("model-checking as a service") needs shared engine
//! state — the global [`crate::pool::WorkerPool`], per-model reverse
//! caches, per-checker truth vectors — to survive queries that are
//! cancelled, time out, or blow a resource budget. This module is the
//! control-plane vocabulary for that: a cloneable [`CancelToken`], a
//! wall-clock [`Deadline`], a priced [`ExecBudget`], all bundled into
//! an [`ExecControl`] that the engines poll at their natural granule
//! (plan instruction, refinement round, pool chunk).
//!
//! The contract every consumer upholds:
//!
//! * **Typed interruption, never partial results.** An interrupted
//!   computation returns [`Interrupted`]; callers never see a
//!   half-filled truth vector or partition.
//! * **Whole-or-nothing caches.** An interrupted query must leave every
//!   cache (the `OnceLock` CSC/dense reverse stores, the checker's
//!   `Rc<Bitset>` results) either fully committed or untouched, so an
//!   immediate retry is bit-identical to a run that was never
//!   interrupted.
//! * **Bounded latency.** Cancellation is observed within one granule:
//!   one plan instruction, one refinement round, or one pool chunk.
//!
//! Checks are cheap (one relaxed atomic load on the cancel path; the
//! deadline reads the clock only every few polls), so the granularity
//! can stay fine without showing up in profiles.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a computation was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The caller's [`CancelToken`] was triggered.
    Cancelled,
    /// The wall-clock [`Deadline`] passed.
    DeadlineExceeded,
    /// The touched-work ceiling of an [`ExecBudget`] was exceeded.
    BudgetExceeded,
}

/// Typed interruption error: the computation stopped cooperatively and
/// published nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted {
    /// What tripped.
    pub reason: InterruptReason,
}

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            InterruptReason::Cancelled => write!(f, "execution cancelled"),
            InterruptReason::DeadlineExceeded => write!(f, "execution deadline exceeded"),
            InterruptReason::BudgetExceeded => write!(f, "execution work budget exceeded"),
        }
    }
}

impl Error for Interrupted {}

impl Interrupted {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(reason: InterruptReason) -> Self {
        Interrupted { reason }
    }
}

/// Cloneable cooperative cancellation flag. All clones observe the same
/// flag; once set it stays set (there is deliberately no reset — retry
/// with a fresh token).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untriggered token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Triggers cancellation; every holder of a clone observes it on
    /// its next poll.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Wall-clock deadline. Copyable; comparisons read a monotonic clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    #[must_use]
    pub fn after(d: Duration) -> Self {
        Deadline { at: Instant::now() + d }
    }

    /// A deadline at an absolute instant.
    #[must_use]
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Resource ceilings for one query, priced in the same currency as the
/// plan executor's measured Auto cost model (words touched / stored).
///
/// Semantics (all ceilings optional, `None` = unlimited):
///
/// * `max_slot_words` — ceiling on *resident* truth-vector storage
///   (slot count × words per bitset, plus any per-thread partials a
///   parallel strategy would add). Exceeding it **degrades**: parallel
///   execution falls back to sequential rather than failing.
/// * `max_touched_words` — ceiling on cumulative work, accumulated from
///   the executor's per-instruction `op_work` estimate (the quantity
///   the Auto diamond choice already prices). Exceeding it **fails**
///   the query with [`InterruptReason::BudgetExceeded`].
/// * `max_cache_words` — ceiling on words a query may *publish* into
///   long-lived caches (checker truth vectors). Exceeding it skips
///   publication: the query still answers, later queries recompute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecBudget {
    /// Resident slot-storage ceiling in 64-bit words.
    pub max_slot_words: Option<usize>,
    /// Cumulative touched-work ceiling in cost-model units.
    pub max_touched_words: Option<usize>,
    /// Cache-publication ceiling in 64-bit words.
    pub max_cache_words: Option<usize>,
}

impl ExecBudget {
    /// An unlimited budget.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when `resident` slot words exceed the resident ceiling
    /// (signal to degrade parallel → sequential).
    #[must_use]
    pub fn slots_over(&self, resident: usize) -> bool {
        self.max_slot_words.is_some_and(|cap| resident > cap)
    }

    /// True when cumulative `touched` work exceeds the work ceiling
    /// (signal to fail with `BudgetExceeded`).
    #[must_use]
    pub fn touched_over(&self, touched: usize) -> bool {
        self.max_touched_words.is_some_and(|cap| touched > cap)
    }

    /// True when publishing `words` more cache words would exceed the
    /// cache ceiling given `already` published words (signal to skip
    /// publication, not to fail).
    #[must_use]
    pub fn cache_over(&self, already: usize, words: usize) -> bool {
        self.max_cache_words.is_some_and(|cap| already.saturating_add(words) > cap)
    }
}

/// The bundle the engines actually thread through: optional token,
/// optional deadline, budget. `ExecControl::default()` is the free
/// pass — all checks compile down to two branches on `None`.
#[derive(Debug, Clone, Default)]
pub struct ExecControl {
    /// Cooperative cancellation flag, polled at every granule boundary.
    pub cancel: Option<CancelToken>,
    /// Wall-clock ceiling, polled at every granule boundary.
    pub deadline: Option<Deadline>,
    /// Resource ceilings (see [`ExecBudget`] for per-field semantics).
    pub budget: ExecBudget,
}

impl ExecControl {
    /// The unrestricted control: never interrupts, never degrades.
    #[must_use]
    pub fn unrestricted() -> Self {
        Self::default()
    }

    /// Control carrying only a cancel token.
    #[must_use]
    pub fn with_cancel(token: CancelToken) -> Self {
        ExecControl { cancel: Some(token), ..Self::default() }
    }

    /// Control carrying only a deadline.
    #[must_use]
    pub fn with_deadline(deadline: Deadline) -> Self {
        ExecControl { deadline: Some(deadline), ..Self::default() }
    }

    /// Control carrying only a budget.
    #[must_use]
    pub fn with_budget(budget: ExecBudget) -> Self {
        ExecControl { budget, ..Self::default() }
    }

    /// True when this control can never interrupt (no token, no
    /// deadline, no work ceiling) — engines use it to skip staging
    /// buffers they would only need for rollback.
    #[must_use]
    pub fn is_unrestricted(&self) -> bool {
        self.cancel.is_none()
            && self.deadline.is_none()
            && self.budget.max_touched_words.is_none()
    }

    /// Polls cancellation and deadline. Called at granule boundaries
    /// (plan instruction, refinement round, pool chunk).
    ///
    /// # Errors
    ///
    /// [`InterruptReason::Cancelled`] once the token fires, else
    /// [`InterruptReason::DeadlineExceeded`] once the deadline passes.
    pub fn check(&self) -> Result<(), Interrupted> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(Interrupted::new(InterruptReason::Cancelled));
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Err(Interrupted::new(InterruptReason::DeadlineExceeded));
            }
        }
        Ok(())
    }

    /// Polls the cumulative-work ceiling on top of [`check`](Self::check).
    ///
    /// # Errors
    ///
    /// Everything [`check`](Self::check) returns, plus
    /// [`InterruptReason::BudgetExceeded`] once `touched` crosses the
    /// ceiling.
    pub fn check_work(&self, touched: usize) -> Result<(), Interrupted> {
        self.check()?;
        if self.budget.touched_over(touched) {
            return Err(Interrupted::new(InterruptReason::BudgetExceeded));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
        assert_eq!(
            ExecControl::with_cancel(u).check(),
            Err(Interrupted::new(InterruptReason::Cancelled))
        );
    }

    #[test]
    fn deadline_expiry() {
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        let ctl = ExecControl::with_deadline(past);
        assert_eq!(ctl.check(), Err(Interrupted::new(InterruptReason::DeadlineExceeded)));
        let future = Deadline::after(Duration::from_secs(3600));
        assert!(!future.expired());
        assert_eq!(ExecControl::with_deadline(future).check(), Ok(()));
    }

    #[test]
    fn budget_ceilings() {
        let b = ExecBudget {
            max_slot_words: Some(100),
            max_touched_words: Some(1000),
            max_cache_words: Some(50),
        };
        assert!(!b.slots_over(100));
        assert!(b.slots_over(101));
        assert!(!b.touched_over(1000));
        assert!(b.touched_over(1001));
        assert!(!b.cache_over(20, 30));
        assert!(b.cache_over(20, 31));
        assert!(!ExecBudget::unlimited().cache_over(usize::MAX, 0));

        let ctl = ExecControl::with_budget(b);
        assert_eq!(ctl.check_work(999), Ok(()));
        assert_eq!(
            ctl.check_work(1001),
            Err(Interrupted::new(InterruptReason::BudgetExceeded))
        );
    }

    #[test]
    fn unrestricted_detection() {
        assert!(ExecControl::unrestricted().is_unrestricted());
        assert!(!ExecControl::with_cancel(CancelToken::new()).is_unrestricted());
        assert!(!ExecControl::with_deadline(Deadline::after(Duration::from_secs(1)))
            .is_unrestricted());
        // Slot/cache ceilings degrade rather than interrupt, so they
        // alone leave the control "unrestricted" for rollback purposes.
        let degrade_only = ExecControl::with_budget(ExecBudget {
            max_slot_words: Some(1),
            max_touched_words: None,
            max_cache_words: Some(1),
        });
        assert!(degrade_only.is_unrestricted());
        let work = ExecControl::with_budget(ExecBudget {
            max_touched_words: Some(1),
            ..ExecBudget::default()
        });
        assert!(!work.is_unrestricted());
    }

    #[test]
    fn interrupted_display() {
        for (reason, needle) in [
            (InterruptReason::Cancelled, "cancelled"),
            (InterruptReason::DeadlineExceeded, "deadline"),
            (InterruptReason::BudgetExceeded, "budget"),
        ] {
            let msg = Interrupted::new(reason).to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle}");
        }
    }
}
