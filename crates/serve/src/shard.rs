//! Shard workers: each owns the models whose id hashes to it and
//! serves their requests strictly in arrival order.
//!
//! A shard is a plain thread draining a bounded queue. Per-model state
//! lives in [`ModelEntry`]s; every request runs the detach → resume
//! handshake so the long-lived [`CheckerCache`] survives between
//! requests without holding a borrow of the model across them.
//!
//! A Check arrives as its frame body with the formula texts unparsed.
//! The shard resolves them against the model's cache
//! ([`ModelChecker::resolve_texts`]): a text the cache has lowered
//! before costs a hash lookup, and only a new one is parsed. A text
//! that does not parse answers the `Protocol`/`BadFormula` frame that
//! decoding the whole frame up front would have answered, even when
//! the model is not loaded or the shard panics, and it wins over a
//! family mismatch anywhere in the batch.
//!
//! # Panic safety and version consistency
//!
//! Every op runs under `catch_unwind`. The checker cache is `take()`n
//! *before* any fallible work and written back only on the success
//! path, so a panic (or an injected chaos failpoint) leaves the entry
//! cold-but-consistent: the model keeps whatever state was already
//! committed — [`Kripke::apply_delta`] is atomic, the checker commit
//! is whole-or-nothing — and the next request simply rebuilds the
//! cache. Three chaos sites pin this: `serve-shard-op` (panic before
//! any mutation), `serve-batch` (between the two coalesced halves of
//! a check batch), and `serve-delta` (between the committed delta and
//! the cache repair).
//!
//! [`CheckerCache`]: portnum_logic::CheckerCache
//! [`Kripke::apply_delta`]: portnum_logic::Kripke::apply_delta

use crate::admission::{self, Admission};
use crate::cache::{entry_bytes, model_bytes, ModelEntry};
use crate::config::ServeConfig;
use crate::protocol::{
    CheckTexts, DeltaSpec, ErrorCode, ModelSpec, ProtocolError, Request, Response, WireRequest,
};
use portnum_logic::{FormulaRoot, LogicError, ModelChecker, ParseError, TextError};
use portnum_graph::resilience::InterruptReason;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// What the connection layer sends a shard.
pub(crate) enum ShardCmd {
    /// A model-keyed request; the response goes back on `reply`.
    Op {
        /// The walked request (`Load`/`Evict`/`Check`/`Delta`).
        req: WireRequest,
        /// Per-request reply channel.
        reply: Sender<Response>,
    },
    /// Snapshot request for the stats aggregation fan-out.
    Stats {
        /// Where the snapshot goes.
        reply: Sender<ShardStats>,
    },
}

/// One shard's observable state, aggregated into
/// [`ServerStats`](crate::protocol::ServerStats).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardStats {
    pub models: u64,
    pub mem_bytes: u64,
    pub loads: u64,
    pub evictions: u64,
    pub cache_trims: u64,
    pub checks: u64,
    pub formulas_checked: u64,
    pub deltas: u64,
    pub shed: u64,
    pub interrupted: u64,
    pub internal_errors: u64,
}

/// The shard worker loop: drains `rx` until every sender hung up.
pub(crate) fn run(rx: Receiver<ShardCmd>, cfg: Arc<ServeConfig>) {
    let mut shard = Shard::new(cfg);
    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::Stats { reply } => {
                let _ = reply.send(shard.snapshot());
            }
            ShardCmd::Op { req, reply } => {
                let resp = match catch_unwind(AssertUnwindSafe(|| shard.handle(&req))) {
                    Ok(resp) => resp,
                    Err(payload) => {
                        shard.stats.internal_errors += 1;
                        // Re-establish the byte accounting and the
                        // budget invariant from scratch: whatever the
                        // unwound op had half-done to the counters, the
                        // entries themselves are consistent.
                        shard.recount_all();
                        match req.bad_text() {
                            Some(e) => Response::error(ErrorCode::Protocol, e.to_string()),
                            None => Response::error(
                                ErrorCode::Internal,
                                format!("shard worker panicked: {}", panic_message(&payload)),
                            ),
                        }
                    }
                };
                let _ = reply.send(resp);
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

struct Shard {
    cfg: Arc<ServeConfig>,
    budget: usize,
    models: HashMap<u64, ModelEntry>,
    mem_bytes: usize,
    tick: u64,
    stats: ShardStats,
}

impl Shard {
    fn new(cfg: Arc<ServeConfig>) -> Shard {
        let budget = cfg.shard_budget();
        Shard {
            cfg,
            budget,
            models: HashMap::new(),
            mem_bytes: 0,
            tick: 0,
            stats: ShardStats::default(),
        }
    }

    fn snapshot(&self) -> ShardStats {
        ShardStats {
            models: self.models.len() as u64,
            mem_bytes: self.mem_bytes as u64,
            ..self.stats
        }
    }

    fn handle(&mut self, req: &WireRequest) -> Response {
        // Chaos site at the top of every shard op: a `panic` action
        // here proves the worker survives and the client still gets an
        // error frame with the shard state untouched.
        fail::fail_point!("serve-shard-op");
        match req {
            WireRequest::Check { model, texts } => self.check(*model, texts),
            WireRequest::Other(Request::Load { model, spec }) => self.load(*model, spec),
            WireRequest::Other(Request::Evict { model }) => self.evict(*model),
            WireRequest::Other(Request::Delta { model, delta }) => self.delta(*model, delta),
            // Ping/Stats are answered in the connection layer and a
            // walked Check is never `Other`; routing them here is a
            // server bug, not a client error.
            WireRequest::Other(Request::Ping | Request::Stats | Request::Check { .. }) => {
                Response::error(ErrorCode::Internal, "request is not shard-routable")
            }
        }
    }

    fn load(&mut self, id: u64, spec: &ModelSpec) -> Response {
        let model = match spec.build() {
            Ok(m) => m,
            Err(e) => return logic_error(&e),
        };
        let bytes = model_bytes(&model);
        if bytes > self.budget {
            self.stats.shed += 1;
            return Response::error(
                ErrorCode::Overloaded,
                format!("model footprint {bytes} B exceeds the shard budget {} B", self.budget),
            );
        }
        let worlds = model.len() as u64;
        let version = model.version();
        self.tick += 1;
        let entry = ModelEntry { model, cache: None, bytes, last_used: self.tick };
        if let Some(old) = self.models.insert(id, entry) {
            self.mem_bytes -= old.bytes;
        }
        self.mem_bytes += bytes;
        self.stats.loads += 1;
        self.enforce_budget(Some(id));
        Response::Loaded { model: id, worlds, version }
    }

    fn evict(&mut self, id: u64) -> Response {
        let existed = match self.models.remove(&id) {
            Some(entry) => {
                self.mem_bytes -= entry.bytes;
                true
            }
            None => false,
        };
        Response::Evicted { model: id, existed }
    }

    fn check(&mut self, id: u64, texts: &CheckTexts) -> Response {
        self.tick += 1;
        let tick = self.tick;
        let cfg = Arc::clone(&self.cfg);
        let Some(entry) = self.models.get_mut(&id) else {
            return match texts.bad_text() {
                Some(e) => Response::error(ErrorCode::Protocol, e.to_string()),
                None => no_such_model(id),
            };
        };
        let used_before = std::mem::replace(&mut entry.last_used, tick);
        // Taken before any fallible work; written back only below, so
        // an unwind in between leaves the entry cold but consistent.
        let cache = entry.cache.take();
        let mut checker = match cache {
            Some(c) => ModelChecker::resume(&entry.model, c, &[]),
            None => ModelChecker::new(&entry.model),
        };
        let outcome = run_batch(&mut checker, texts, &cfg);
        entry.cache = Some(checker.detach());
        if matches!(outcome, Err(BatchError::BadText { .. })) {
            // A frame with a text that does not parse is not served,
            // so, like any frame rejected before routing, it leaves
            // the LRU order alone.
            entry.last_used = used_before;
        }
        let worlds = entry.model.len() as u64;
        match outcome {
            Ok(vectors) => {
                self.stats.checks += 1;
                self.stats.formulas_checked += texts.len() as u64;
                self.recount(id);
                self.enforce_budget(Some(id));
                Response::Truths { worlds, vectors }
            }
            Err(BatchError::Shed { estimate, cap }) => {
                self.stats.shed += 1;
                Response::error(
                    ErrorCode::Overloaded,
                    format!(
                        "estimated work {estimate} (≈{} ns) over the admission cap {cap}",
                        admission::estimated_cost_ns(estimate)
                    ),
                )
            }
            // Every new text is parsed before any is lowered, so the
            // cache did not grow.
            Err(BatchError::BadText { index, error }) => Response::error(
                ErrorCode::Protocol,
                ProtocolError::bad_formula(&error, texts.get(index)).to_string(),
            ),
            Err(BatchError::Logic(e)) => {
                if matches!(e, LogicError::Interrupted(_)) {
                    self.stats.interrupted += 1;
                }
                // A denied or interrupted batch still warmed the cache
                // with whatever committed; keep the accounting honest.
                self.recount(id);
                self.enforce_budget(Some(id));
                logic_error(&e)
            }
        }
    }

    fn delta(&mut self, id: u64, spec: &DeltaSpec) -> Response {
        self.tick += 1;
        let tick = self.tick;
        let Some(entry) = self.models.get_mut(&id) else {
            return no_such_model(id);
        };
        entry.last_used = tick;
        let cache = entry.cache.take();
        let delta = spec.to_delta();
        let touched = match entry.model.apply_delta(&delta) {
            Ok(t) => t,
            Err(e) => {
                // Validation is atomic: the model was not touched, so
                // the cache it matches goes straight back.
                entry.cache = cache;
                return logic_error(&e);
            }
        };
        // Chaos site between the committed delta and the cache repair:
        // a panic here may cost the (already taken) cache, never the
        // model's version consistency.
        fail::fail_point!("serve-delta");
        if let Some(c) = cache {
            let checker = ModelChecker::resume(&entry.model, c, &touched);
            entry.cache = Some(checker.detach());
        }
        let version = entry.model.version();
        let touched_count = touched.len() as u64;
        self.stats.deltas += 1;
        self.recount(id);
        self.enforce_budget(Some(id));
        Response::DeltaApplied { model: id, version, touched: touched_count }
    }

    /// Re-prices one entry after its cache may have grown or shrunk.
    fn recount(&mut self, id: u64) {
        if let Some(entry) = self.models.get_mut(&id) {
            let bytes = entry_bytes(entry);
            self.mem_bytes = self.mem_bytes - entry.bytes + bytes;
            entry.bytes = bytes;
        }
    }

    /// Re-prices everything (the post-panic self-heal path).
    fn recount_all(&mut self) {
        let ids: Vec<u64> = self.models.keys().copied().collect();
        self.mem_bytes = 0;
        for id in ids {
            if let Some(entry) = self.models.get_mut(&id) {
                entry.bytes = entry_bytes(entry);
                self.mem_bytes += entry.bytes;
            }
        }
        self.enforce_budget(None);
    }

    /// Restores `mem_bytes <= budget`: LRU whole-entry eviction first
    /// (sparing `keep`, the entry serving the current request), then —
    /// when only `keep` remains — shedding its checker cache. Loads
    /// reject models larger than the budget outright, so the loop
    /// always terminates under it.
    fn enforce_budget(&mut self, keep: Option<u64>) {
        while self.mem_bytes > self.budget {
            let victim = self
                .models
                .iter()
                .filter(|(id, _)| Some(**id) != keep)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    let entry = self.models.remove(&id).expect("victim chosen from the map");
                    self.mem_bytes -= entry.bytes;
                    self.stats.evictions += 1;
                }
                None => {
                    let Some(id) = keep else { break };
                    let Some(entry) = self.models.get_mut(&id) else { break };
                    if entry.cache.take().is_none() {
                        break;
                    }
                    self.stats.cache_trims += 1;
                    let bytes = model_bytes(&entry.model);
                    self.mem_bytes = self.mem_bytes - entry.bytes + bytes;
                    entry.bytes = bytes;
                }
            }
        }
    }
}

enum BatchError {
    BadText { index: usize, error: ParseError },
    Logic(LogicError),
    Shed { estimate: u64, cap: u64 },
}

impl From<TextError> for BatchError {
    fn from(e: TextError) -> BatchError {
        match e {
            TextError::Parse { index, error } => BatchError::BadText { index, error },
            TextError::Logic(e) => BatchError::Logic(e),
        }
    }
}

/// Resolves, prices, admits, and runs one coalesced batch, returning
/// the packed truth vectors as raw words. The batch is split around the
/// `serve-batch` chaos site; both halves run against the shared cache,
/// so coalescing (and the whole-or-nothing commit per half) is
/// preserved.
fn run_batch(
    checker: &mut ModelChecker<'_>,
    texts: &CheckTexts,
    cfg: &ServeConfig,
) -> Result<Vec<Vec<u64>>, BatchError> {
    let batch = checker.resolve_texts(texts.iter())?;
    if let Admission::Shed { estimate, cap } = admission::admit(cfg, batch.estimate as u64) {
        return Err(BatchError::Shed { estimate, cap });
    }
    let (ctl, token) = admission::control_for(cfg);
    crate::testing::publish_cancel_token(token);
    let (first, second): (&[FormulaRoot], _) = batch.roots.split_at(batch.roots.len() / 2);
    let mut vecs = checker.check_roots_controlled(first, &ctl).map_err(BatchError::Logic)?;
    // Chaos site mid-batch: the first half is committed, the second
    // hasn't started — a cancel or panic here must surface as one
    // error frame with the connection and the committed half intact.
    fail::fail_point!("serve-batch");
    vecs.extend(checker.check_roots_controlled(second, &ctl).map_err(BatchError::Logic)?);
    Ok(vecs.iter().map(|b| b.words().to_vec()).collect())
}

fn no_such_model(id: u64) -> Response {
    Response::error(ErrorCode::NoSuchModel, format!("model {id} is not loaded"))
}

fn logic_error(e: &LogicError) -> Response {
    let code = match e {
        LogicError::Interrupted(i) => match i.reason {
            InterruptReason::Cancelled => ErrorCode::Cancelled,
            InterruptReason::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            InterruptReason::BudgetExceeded => ErrorCode::BudgetExceeded,
        },
        _ => ErrorCode::Logic,
    };
    Response::error(code, e.to_string())
}
