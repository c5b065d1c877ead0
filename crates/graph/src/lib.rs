//! # portnum-graph
//!
//! Graph substrate for the *port-numbering model* of distributed computing,
//! as studied in Hella et al., “Weak models of distributed computing, with
//! connections to modal logic” (PODC 2012).
//!
//! The crate provides:
//!
//! * [`Graph`] — simple undirected graphs of bounded degree (the family
//!   `F(Δ)` of the paper);
//! * [`PortNumbering`] — bijections on ports realising the adjacency
//!   relation, with consistent, random, and *symmetric* (Lemma 15)
//!   constructions;
//! * [`generators`] — classic families plus the paper's witness graphs
//!   (Figure 1, the Theorem 13 two-component witness, Figure 9's regular
//!   graphs without a 1-factor);
//! * [`matching`] — Hopcroft–Karp, 1-factorization of regular bipartite
//!   graphs, and Edmonds' blossom algorithm;
//! * [`cover`] — bipartite double covers;
//! * [`views`] — Yamashita–Kameda view equivalence;
//! * [`refinement`] — colour refinement (1-WL);
//! * [`intern`] — the hash-chained intern table the partition engines
//!   file signatures through, and `portnum-logic`'s checker cache files
//!   formula wire texts through;
//! * [`partition`] — the incremental Paige–Tarjan-style worklist
//!   refiner shared by colour refinement and `portnum-logic`'s
//!   bisimulation, the signature interner view equivalence builds on,
//!   and the [`partition::Parallelism`] value every thread-count
//!   decision takes;
//! * [`bitset`] — packed `u64`-word truth vectors backing
//!   `portnum-logic`'s word-parallel model checker;
//! * [`blocking`] — the shared cache-block geometry (L2-sized world
//!   blocks, row-bound prefetch) tiling the plan executor's diamond
//!   sweeps and the worklist refiner's frontier encode;
//! * [`pool`] — the persistent worker pool behind every parallel phase
//!   (refinement encode rounds, parallel plan execution);
//! * [`resilience`] — the cooperative execution control plane
//!   (`CancelToken`, `Deadline`, `ExecBudget`) threaded through every
//!   long-running engine loop here and in `portnum-logic`;
//! * [`splice`] — the in-place row-splice kernel that patches every
//!   CSR-shaped store (forward relations, CSC predecessor rows) after
//!   a model delta;
//! * [`properties`] — connectivity, regularity, bipartiteness, Eulerian
//!   tests.
//!
//! # Load-bearing invariants
//!
//! The hot paths lean on a small set of contracts, each documented and
//! test-enforced where it is defined:
//!
//! * **Masked tail** ([`bitset::Bitset`]) — when the universe size is
//!   not a multiple of 64, the unused high bits of the last word are
//!   always zero, so `count_ones`, equality, and row-wise ORs never see
//!   garbage.
//! * **Exactly-once, in-order `assign_from_fn`**
//!   ([`bitset::Bitset::assign_from_fn`]) — the generator closure is
//!   called exactly once per index, in ascending order; the CSR
//!   diamond walks carry a cursor that relies on it.
//! * **Epoch-tagged chunk queue** ([`pool::WorkerPool`]) — workers
//!   CAS-verify the call epoch before every chunk claim, so a stale
//!   worker can neither touch a new call's cursor nor run an old job
//!   after its borrow ended.
//! * **First-seen canonical block ids** ([`partition`]) — refinement
//!   levels number blocks in first-scan order, so stability detection
//!   is a `memcmp` and partitions from different front-ends (1-WL,
//!   bisimulation, either engine) are directly comparable.
//!
//! # Quick start
//!
//! ```
//! use portnum_graph::{generators, PortNumbering};
//!
//! // The classic cubic graph without a perfect matching (Figure 9a).
//! let g = generators::no_one_factor(3);
//! assert!(!portnum_graph::matching::has_one_factor(&g));
//!
//! // Lemma 15: a symmetric (inconsistent) port numbering exists because the
//! // graph is regular...
//! let p = PortNumbering::symmetric_regular(&g)?;
//! assert!(!p.is_consistent());
//!
//! // ...while the canonical consistent numbering is an involution.
//! let q = PortNumbering::consistent(&g);
//! assert!(q.is_consistent());
//! # Ok::<(), portnum_graph::PortError>(())
//! ```

// `deny` rather than `forbid`: the worker pool ([`pool`]) carries the
// crate's two `unsafe impl`s (lifetime-erased job handoff to parked
// workers, justified there) and [`blocking`] wraps the architectural
// prefetch hint; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod blocking;
pub mod cover;
pub mod csc;
mod error;
pub mod generators;
mod graph;
pub mod intern;
pub mod lifts;
pub mod matching;
pub mod partition;
pub mod pool;
mod ports;
pub mod properties;
pub mod refinement;
pub mod resilience;
pub mod splice;
pub mod views;

pub use error::{GraphError, LiftError, MatchingError, PortError};
pub use graph::{Graph, GraphBuilder, NodeId};
pub use ports::{Port, PortNumbering};
