//! Model-checking as a service: a sharded batch server in front of the
//! `portnum-logic` engine.
//!
//! The paper's setting — many weak nodes querying properties of a
//! shared structure — maps onto long-lived [`Kripke`] models served
//! under concurrent traffic. This crate is the layer that makes every
//! engine capability user-visible as throughput:
//!
//! - **Protocol** ([`protocol`], [`framing`]): a length-prefixed
//!   binary protocol over plain TCP (the build environment is offline;
//!   no HTTP stack). Frames decode totally — malformed input yields
//!   typed errors, never a panic or a desynchronised stream.
//! - **Shards** ([`server`], `shard`): N worker threads own disjoint
//!   model-id slices; per-model requests serialise on their shard, so
//!   a model's op sequence is well-defined even under concurrent
//!   clients (the differential suite pins responses bit-identical to a
//!   single-threaded [`ModelChecker`] replaying that sequence).
//! - **Batching**: a check request carries a whole formula batch, as
//!   wire texts the shard resolves through the model's text memo
//!   ([`ModelChecker::resolve_texts`], parsing only texts it has not
//!   seen) and checks coalesced through
//!   [`ModelChecker::check_roots_controlled`] — shared subformulas are
//!   computed once against the model's long-lived cache.
//! - **Admission control** (`admission`): requests are priced with the
//!   engine's measured cost model before running, shed when over the
//!   configured cap or when the shard queue is full, and bounded
//!   in-flight by deadline + budget
//!   ([`ExecControl`](portnum_graph::resilience::ExecControl)) with
//!   typed interrupts mapped to error frames.
//! - **Serving cache** (`cache`): models plus their detached
//!   [`CheckerCache`]s (truth vectors, quotients, text memos) are
//!   LRU-evicted against a configurable memory budget.
//!
//! See `ARCHITECTURE.md` ("Serving layer") for the protocol table and
//! the `PORTNUM_SERVE_*` knobs, and the crate's tests for the
//! differential, proptest, chaos, and soak suites.
//!
//! [`Kripke`]: portnum_logic::Kripke
//! [`ModelChecker`]: portnum_logic::ModelChecker
//! [`ModelChecker::resolve_texts`]: portnum_logic::ModelChecker::resolve_texts
//! [`ModelChecker::check_roots_controlled`]: portnum_logic::ModelChecker::check_roots_controlled
//! [`CheckerCache`]: portnum_logic::CheckerCache

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
mod cache;
pub mod client;
pub mod config;
pub mod framing;
pub mod protocol;
pub mod server;
mod shard;

pub use client::{Client, ClientError, Truths};
pub use config::ServeConfig;
pub use protocol::{
    DeltaSpec, ErrorCode, ErrorFrame, ModelSpec, ProtocolError, Request, Response, ServerStats,
};
pub use server::Server;

/// Test-only observability hooks (used by the chaos suite to cancel a
/// request mid-batch); not part of the serving API.
#[doc(hidden)]
pub mod testing {
    use portnum_graph::resilience::CancelToken;
    use std::sync::Mutex;

    static LATEST: Mutex<Option<CancelToken>> = Mutex::new(None);

    /// Records the token of the request about to execute.
    pub(crate) fn publish_cancel_token(token: CancelToken) {
        *LATEST.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(token);
    }

    /// The most recently published per-request cancel token.
    #[must_use]
    pub fn latest_cancel_token() -> Option<CancelToken> {
        LATEST.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }
}
