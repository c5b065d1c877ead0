//! # portnum-logic
//!
//! The modal-logic side of Hella et al., “Weak models of distributed
//! computing, with connections to modal logic” (PODC 2012), Section 4:
//!
//! * [`Formula`] — one AST for ML, GML, MML, and GMML, with degree atoms
//!   `q_d`, graded diamonds `⟨α⟩≥k`, and the four modality index families;
//! * [`parse`] — a text syntax round-tripping with `Display`;
//! * [`Kripke`] — the canonical models `K₊,₊ / K₋,₊ / K₊,₋ / K₋,₋(G, p)`
//!   of Section 4.3, plus custom models;
//! * [`evaluate`]/[`evaluate_packed`] — a model checker over packed
//!   (`u64`-word) truth vectors, compiled per formula into a
//!   hash-consed [`plan::Plan`] with forward/reverse diamond selection;
//! * [`plan`] — compiled evaluation plans: suite-level lowering
//!   ([`plan::Plan::compile_suite`]) and the per-model
//!   [`plan::ModelChecker`] cache amortising suites formula by formula;
//! * [`bisim`] — plain and graded bisimulation via partition refinement,
//!   bounded or to fixpoint (Section 4.2, Fact 1), on the incremental
//!   worklist engine of [`portnum_graph::partition`] (the full-round
//!   engine stays as its in-process differential reference);
//! * [`characteristic`] — Hennessy–Milner characteristic formulas: the
//!   converse of Fact 1, one separating formula per inequivalent pair;
//! * [`quotient`]/[`minimum_base`] — bisimulation quotients (the
//!   Kripke-side minimum base of a fibration);
//! * [`simplify`]/[`nnf`] — extension-preserving formula transformations
//!   (constant folding, negation normal form);
//! * [`compile`] — both directions of Theorem 2: formulas become
//!   distributed algorithms in the *matching weak class* running in
//!   `md(ψ)` rounds, and finite-state algorithms become formulas.
//!
//! # Load-bearing invariants
//!
//! * **Slot recycling in instruction order** ([`plan`]) — plan
//!   instructions run in ascending id order, and a truth-vector slot is
//!   recycled only after its last reader has taken its own slot, so no
//!   instruction writes a slot it reads; peak memory is the DAG's
//!   width, not its size.
//! * **Retained formulas** ([`plan::ModelChecker`]) — checked formulas
//!   are kept alive so the pointer-identity memo can never observe a
//!   recycled allocation.
//! * **Identical round semantics across refinement engines**
//!   ([`bisim`]) — the worklist engine's partition after round `t`
//!   equals the synchronous round engine's depth-`t` partition
//!   (canonical first-seen ids), so `t`-step equivalence queries mean
//!   the same thing under either engine.
//!
//! # Quick start
//!
//! ```
//! use portnum_graph::{generators, PortNumbering};
//! use portnum_logic::{compile, evaluate, parse, Kripke};
//! use portnum_machine::{adapters::MbAsVector, Simulator};
//!
//! // "at least two of my neighbours have odd degree 1"
//! let psi = parse("<*,*>>=2 q1")?;
//!
//! // Model-check it...
//! let g = generators::star(4);
//! let k = Kripke::k_mm(&g);
//! let truth = evaluate(&k, &psi)?;
//!
//! // ...and run it as a distributed MB algorithm: same answer, and the
//! // running time equals the modal depth.
//! let algo = compile::compile_mb(&psi)?;
//! let p = PortNumbering::consistent(&g);
//! let run = Simulator::new().run(&MbAsVector(algo), &g, &p)?;
//! assert_eq!(run.outputs().to_vec(), truth);
//! assert_eq!(run.rounds(), psi.modal_depth());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisim;
mod characteristic;
pub mod compile;
mod error;
mod eval;
mod formula;
mod kripke;
mod parser;
pub mod plan;
mod quotient;
mod transform;

pub use characteristic::{characteristic, characteristic_formula, CharacteristicFormulas};
pub use error::{CompileError, LogicError, ParseError};
pub use eval::{evaluate, evaluate_packed, evaluate_packed_recursive, extension, satisfies};
pub use plan::{
    CheckerCache, DiamondMode, FormulaRoot, ModelChecker, Plan, RepairStats, ResolvedBatch,
    TextError,
};
pub use formula::{Formula, FormulaKind, IndexFamily, ModalIndex};
pub use kripke::{Kripke, KripkeBuilder, ModelDelta, ModelVariant};
pub use parser::parse;
pub use quotient::{minimum_base, quotient};
pub use transform::{is_nnf, nnf, simplify};
