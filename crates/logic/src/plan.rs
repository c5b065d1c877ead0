//! Compiled evaluation plans: hash-consed formula IR plus a linear
//! executor, the engine behind [`evaluate_packed`](crate::evaluate_packed).
//!
//! The recursive evaluator memoises subformulas by *pointer* identity,
//! so structurally equal subformulas built separately — exactly what the
//! algorithm-to-formula compiler and the characteristic-formula
//! construction produce — are recomputed once per distinct `Arc`. A
//! [`Plan`] instead **lowers** a formula (or a whole suite of formulas
//! sharing one model) into a flat, topologically ordered instruction
//! list with *structural* hash-consing: two subformulas that look the
//! same become one instruction, whether or not they share memory.
//!
//! # Lowering
//!
//! Each AST node becomes at most one instruction (an internal `Op`)
//! whose operands are earlier instruction ids. Lowering folds on the
//! fly:
//!
//! * `⟨α⟩≥0 φ → ⊤`, and a diamond over a relation the model does not
//!   store (or over `⊥`) `→ ⊥`;
//! * `¬¬a → a`, `¬⊤ → ⊥`, `¬⊥ → ⊤`;
//! * `a ∧ a → a`, `a ∧ ⊤ → a`, `a ∧ ⊥ → ⊥` (dually for `∨`), with
//!   commutative operands canonicalised by id order so `a ∧ b` and
//!   `b ∧ a` cons to the same instruction.
//!
//! Folds can orphan already-lowered subtrees, so a finished plan is
//! compacted to the instructions reachable from its roots.
//!
//! # Slot allocation
//!
//! Every instruction writes one [`Bitset`] slot, and the executor runs
//! instructions in ascending id order — already a topological order,
//! since lowering interns operands before their consumers and
//! compaction keeps that order. A slot returns to the free list once
//! the last instruction reading it has been assigned its own slot
//! (roots are pinned), so no destination ever aliases one of its own
//! operands. Peak memory stays bounded by the width of the instruction
//! DAG, not its node count — a deep chain of diamonds runs in two
//! slots however long it is. All slot writes are full overwrites, so
//! recycled storage is reused without clearing.
//!
//! # Diamond strategies
//!
//! Diamond instructions have **two** implementations, chosen per
//! instruction at execution time ([`DiamondMode::Auto`]):
//!
//! * **forward** — walk the relation's CSR successor rows testing bits
//!   of `‖φ‖`, with early exit at the grade (the recursive evaluator's
//!   strategy; cost ≈ worlds + stored successor pairs — the
//!   `assign_from_fn` sweep visits every world even when its row is
//!   empty);
//! * **CSC gather** — walk the relation's CSC predecessor lists
//!   ([`Kripke::predecessors_csc`]) over `iter_ones(‖φ‖)`: `out ∪=
//!   preds(u)` for grade 1, a counting scatter for grade ≥ 2. Cost ≈
//!   the predecessor entries of the satisfying worlds; `O(n + edges)`
//!   storage, so it is legal at **any** model size and any grade — a
//!   large win when `‖φ‖` is sparse.
//!
//! Under [`DiamondMode::Auto`] the two are compared by a measured
//! cost model (in the shared "entry ops" currency):
//!
//! * forward: `targets + n` (the sweep visits every world, empty row
//!   or not — comparing against the pair count alone was a bug: a
//!   sparse relation over a large universe made the forward walk look
//!   free when its `O(n)` sweep dominated);
//! * CSC: `|‖φ‖| + Σ_{u ∈ ‖φ‖} |preds(u)|`, plus `n/64` (zeroing) for
//!   grade 1 or `n` (the counts array) for graded — graded diamonds
//!   are costed via actual CSC row lengths instead of being forced
//!   forward.
//!
//! Ties break toward forward. The explicit modes pin one
//! implementation (tests sweep all three modes in-process).
//!
//! # Fixpoints
//!
//! A µ/ν binder lowers to one `Fixpoint` instruction owning a
//! self-contained *body* instruction list: `Var` reads the enclosing
//! binder's accumulator, `Arg` reads an outer body's value (nested
//! binders nest bodies — a body's external args are ids in its
//! *enclosing* body, never plan ids, because a variable free at the
//! plan level is a lowering error). The executor iterates the body
//! until the accumulator is stable — Kleene iteration, µ from ⊥ and ν
//! from ⊤; positivity is enforced at formula construction, so the
//! accumulator moves one way and converges within `n + 1` root
//! evaluations:
//!
//! * the **first** iteration evaluates the body densely (every op,
//!   every world), exactly like the straight-line executor;
//! * every later iteration runs the body through the change-propagation
//!   kernel below, seeded by the accumulator's flips at `Var`. An
//!   iteration therefore costs O(frontier), not O(model): a monotone
//!   iteration flips each world at most once, so a path-shaped
//!   reachability query totals O(edges) across *all* its iterations
//!   instead of O(n · iterations).
//!
//! A cold run (from ⊥/⊤) **counts** each body diamond `⟨α⟩≥k φ` whose
//! `φ` reads the accumulator, as the paper's multiset node counts the
//! neighbours that send true: it keeps, per world, the number of its
//! stored `α`-successor entries in `‖φ‖` (a repeated successor counts
//! once per copy). The dense pass computes the counts with the counting
//! CSC gather and reads the diamond's bits off them. Each later pass
//! walks only the CSC rows of `φ`'s flips, moving each predecessor's
//! count up where `φ` now holds and down where it fails, and re-checks a
//! world only when its count crosses `k`. A flip therefore costs its
//! predecessor row: there is no candidate list to sort, no successor row
//! to walk again and no dense fallback, and the rows and count slots are
//! prefetched a few flips ahead. The counts cost 4 bytes per world per
//! counted diamond and live for one run: they are dropped when it
//! converges, never cached, and not part of
//! [`CheckerCache::cached_words`]. A counted diamond's dense pass always
//! gathers through the CSC, whatever the [`DiamondMode`], since its later
//! passes read the CSC anyway.
//!
//! Delta repair ([`ModelChecker::resume`]) restarts a cached top-level
//! fixpoint *warm* instead of from ⊥/⊤. Its first repair rebuilds it
//! and records the body's per-op values at convergence and a per-world
//! *rank*: the iteration at which the world entered X (µ) or left it
//! (ν). A later delta invalidates only a *cone*, found by
//! delete-and-rederive: the ranked worlds whose read ball (the body's
//! modal depth along its relations) holds a touched world are checked
//! in ascending rank, each against the post-delta model and the kept
//! worlds of strictly lower rank. A world joins the cone only when it
//! has lost every such derivation, and only then are the higher-ranked
//! worlds that read it checked. Every ranked world outside the cone
//! keeps a derivation that avoids both the delta and the cone, so
//! iteration restarts from the old value with the cone flipped out, and
//! its first pass is a frontier pass seeded by the cone and the touched
//! worlds together. Warm passes keep the candidate walk of the kernel
//! below instead of counting: their frontiers stay near the delta, and
//! counts that outlived a run would cost every cached fixpoint 4 bytes
//! per world per diamond. The answers are bit-identical to a rebuild. A
//! fixpoint still rebuilds wholesale on the first repair after a check
//! (checks record no state), when its cone reaches a quarter of the
//! universe or its support checks scan what a dense body pass scans,
//! and when its body nests another binder (its read ball is
//! unbounded).
//!
//! Fixpoint instructions price into the shared work currency at twice
//! their body's per-iteration work plus an `n/8` flip term (the
//! flip-once amortization above), which keeps
//! [`ModelChecker::estimate_work`] — and therefore serve admission —
//! honest about iterate-until-stable batches. A fixpoint instruction
//! itself never runs on a pool worker; its *body* ops chunk over the
//! pool like any other instruction.
//!
//! # Change propagation
//!
//! Fixpoint iteration and delta repair ([`ModelChecker::resume`]) are
//! one algorithm, so they share one kernel (`propagate_op`). Given an
//! op's stale value, the worlds where each operand flipped, and the
//! worlds where the op reads a changed model directly (a delta's touched
//! set; none inside a fixpoint run), it re-evaluates the op only at its
//! *candidate* worlds:
//!
//! * `Prop`: the directly read worlds;
//! * `¬`, `∧`, `∨`: the union of the operands' flips — one operand's list
//!   as it is when the other is clean, sorted and deduplicated only when
//!   both flipped;
//! * `⟨α⟩`: the directly read worlds plus the predecessors, under `α`
//!   alone ([`Kripke::predecessors_csc`]), of the inner flips, sorted and
//!   deduplicated; each is then re-evaluated by walking its successor
//!   row.
//!
//! Each op runs one point loop over its candidates, the same function
//! per world as the dense evaluator. Once the candidates reach a quarter of
//! the universe it recomputes the op densely and diffs the words
//! instead. Either way it records the worlds that actually flipped, each
//! once, and these seed the op's consumers, so a change the formula
//! cannot observe dies out after one ring. A cold fixpoint run's counted
//! diamonds (see *Fixpoints*) bypass this kernel; their flips come in
//! row-walk order, not ascending, and every consumer takes flips as a
//! set. The callers keep what differs: `Var` and nested fixpoints
//! (iteration), top-level fixpoints after a delta (repair: a warm
//! restart runs this kernel over the body with the touched set as its
//! directly read worlds, a rebuild does not), where values are stored,
//! and their stats. Since the cone of a warm restart holds only the
//! worlds that lost every derivation, the first pass's candidates stay
//! near the delta even where every world has several parents, below the
//! dense fallback.
//!
//! # Parallel execution
//!
//! [`Plan::execute`] runs heavy instructions on the persistent worker
//! pool ([`portnum_graph::pool`]), gated by a [`Parallelism`] value —
//! in production [`Parallelism::Auto`], the shared work threshold
//! ([`portnum_graph::partition::threads_for`]) — so tiny models stay on
//! the sequential fast path. Instructions still run one at a time, in
//! id order; the parallelism is *within* an instruction:
//!
//! * `Prop` and forward diamonds split the world range at 64-aligned,
//!   work-weighted boundaries (the CSR offsets are the work
//!   prefix-sums) and fill disjoint word ranges of the output slot;
//! * CSC gathers split the *entry* space at equal-count boundaries
//!   that may fall inside a single hub world's predecessor row, so one
//!   high-degree world can no longer serialise a chunk.
//!
//! Forward sweeps (sequential and chunked alike) are additionally
//! tiled over the shared cache-block geometry
//! ([`portnum_graph::blocking`]) with row-bound/row-target lookahead
//! prefetch — a pure traversal-order-and-hint layer.
//!
//! Chunks write only per-chunk state, so results are bit-identical
//! to the sequential engine (proptest-pinned in-process:
//! [`Plan::execute_controlled`] with [`Parallelism::Force`] drives them
//! below the gate, and with [`Parallelism::Off`] pins the sequential
//! reference at sizes the gate would parallelise). Fixpoint bodies
//! inherit the executor's value; [`ModelChecker`] evaluates
//! sequentially.
//!
//! The gate itself is two-stage: the static word floor
//! ([`portnum_graph::partition::threads_for`]) plus a floor derived
//! from the pool's *measured* per-dispatch coordination cost
//! ([`portnum_graph::partition::parallel_floor_words`], calibrated at
//! pool construction and surfaced in [`ExecStats::dispatch_cost_ns`]).
//!
//! # Suites and the per-model cache
//!
//! [`Plan::compile_suite`] lowers many formulas into one plan (shared
//! instructions evaluated once, one root per formula);
//! [`ModelChecker`] is the incremental variant — a per-model cache that
//! keeps the hash-cons table, every computed truth vector, and the
//! model's bisimulation quotient alive across `check` calls, so a
//! formula suite arriving one formula at a time (the compiler's
//! emission order) still pays for each distinct subformula once.
//!
//! A served check names its formulas by their wire text, so the cache
//! also memoises each text it has lowered, mapped to its root
//! instruction ([`ModelChecker::resolve_texts`]): a text seen before
//! costs one hash lookup, with no parse and no lowering, and
//! [`ModelChecker::check_roots_controlled`] evaluates the roots. The
//! memo lives as long as the instruction table its roots index (across
//! detach, resume and delta repair), which is sound because lowering
//! reads only the model's variant and which relations it stores, and a
//! delta changes neither ([`LogicError::NoSuchRelation`]).

use crate::error::{LogicError, ParseError};
use crate::formula::{Formula, FormulaKind};
use crate::kripke::Kripke;
use crate::parser::parse;
use portnum_graph::bitset::{fill_words_from_fn, Bitset};
use portnum_graph::blocking;
use portnum_graph::csc::CscAdjacency;
use portnum_graph::intern::{hash_bytes, InternArena};
use portnum_graph::partition::{encode_threads, quantile_ranges, FxHashMap, Parallelism};
use portnum_graph::pool::WorkerPool;
use portnum_graph::resilience::{ExecControl, Interrupted};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Mutex;

/// Strategy selection for diamond instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DiamondMode {
    /// Choose per instruction by the forward-vs-CSC cost model (the
    /// default).
    #[default]
    Auto,
    /// Always walk the forward CSR rows (a cold fixpoint run's counted
    /// diamonds excepted: they gather through the CSC in every mode).
    Forward,
    /// Always use the CSC gather ([`Kripke::predecessors_csc`]), any
    /// grade, any model size.
    Csc,
}

/// One plan instruction; operands are earlier instruction ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Top,
    Bottom,
    /// Degree atom `q_d`.
    Prop(usize),
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    /// `⟨α⟩≥grade φ` with `grade ≥ 1` over a stored relation (grade 0
    /// and missing relations fold away during lowering).
    Diamond { rel: u32, grade: usize, inner: u32 },
    /// The enclosing fixpoint's accumulator. Body-local: never appears
    /// in a plan's top-level instruction list.
    Var,
    /// The `k`-th external input of the enclosing fixpoint body (an
    /// outer binder's accumulator, imported frame by frame).
    /// Body-local, like [`Op::Var`].
    Arg(u32),
    /// `µX.φ` / `νX.φ`, iterated to stability by
    /// [`eval_fixpoint_into`]; the payload indexes the plan's
    /// [`FixBody`] table. Top-level fixpoints have no plan operands
    /// (their bodies are self-contained), so this is a leaf to
    /// [`Op::for_each_operand`].
    Fixpoint(u32),
}

impl Op {
    /// Calls `f` on each operand instruction id.
    fn for_each_operand(self, mut f: impl FnMut(u32)) {
        match self {
            Op::Top | Op::Bottom | Op::Prop(_) | Op::Var | Op::Arg(_) | Op::Fixpoint(_) => {}
            Op::Not(a) | Op::Diamond { inner: a, .. } => f(a),
            Op::And(a, b) | Op::Or(a, b) => {
                f(a);
                f(b);
            }
        }
    }
}

/// One fixpoint body: a self-contained linear instruction list
/// evaluated once per Kleene iteration. Body ids are body-local and
/// ascending (operands precede consumers, the lowering order); the
/// body is never compacted — it executes in id order over a dense
/// per-op value store that persists across
/// iterations so the frontier pass can repair it in place.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FixBody {
    /// `true` for ν (iterate from ⊤), `false` for µ (from ⊥).
    greatest: bool,
    /// Body instructions; operand ids are body-local.
    ops: Vec<Op>,
    /// The body op whose value is the next accumulator.
    root: u32,
    /// External inputs, as instruction ids in the *enclosing* body
    /// (`Op::Arg(k)` reads the k-th entry). Always empty for a
    /// top-level body: only outer binder accumulators are importable,
    /// and at the plan level there are none.
    args: Vec<u32>,
}

/// Lowering statistics — the observability hook for structural dedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Pointer-distinct AST nodes visited during lowering. The
    /// recursive evaluator computes one truth vector per such node.
    pub ast_nodes: usize,
    /// Live instructions — truth vectors the executor actually
    /// computes. `instructions < ast_nodes` exactly when structural
    /// dedup or folding removed work pointer memoisation would do.
    pub instructions: usize,
    /// Lowered nodes resolved to an existing instruction (hash-cons
    /// hits, pointer-memo hits, and folds).
    pub dedup_hits: usize,
    /// Peak live `Bitset` slots during execution (the DAG width bound).
    pub slots: usize,
}

/// Execution statistics of one plan run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Instructions executed (= `Bitset` computations performed).
    pub executed: usize,
    /// Diamonds evaluated by the forward CSR walk.
    pub forward_diamonds: usize,
    /// Always 0: the dense predecessor-row engine this counted is gone.
    /// Kept so existing stats readers still compile.
    pub reverse_diamonds: usize,
    /// Diamonds evaluated by the CSC predecessor gather
    /// ([`Kripke::predecessors_csc`]), any grade, any model size.
    pub csc_diamonds: usize,
    /// Instructions whose per-world loop was split into pool chunks
    /// (world-range splits for `Prop`/forward diamonds, entry-space
    /// splits for CSC gathers).
    pub chunked_ops: usize,
    /// Always 0: plans no longer run instructions concurrently. Kept so
    /// existing stats readers still compile.
    pub level_parallel_ops: usize,
    /// Fixpoint instructions executed (each runs one
    /// iterate-until-stable loop over its body).
    pub fixpoints: usize,
    /// Total Kleene iterations across all fixpoint instructions
    /// (nested fixpoints included).
    pub fixpoint_iters: usize,
    /// World-bits re-evaluated by frontier iteration passes: the
    /// point-repaired candidate worlds, plus `n` for every body op
    /// that fell back to a dense recompute, plus, for a counted diamond
    /// of a cold run, the worlds whose count crossed the grade (its
    /// count moves, one per predecessor entry of its operand's flips,
    /// are not counted here). The o(n · iters) figure the differential
    /// suite pins on path-shaped models.
    pub fixpoint_frontier_worlds: usize,
    /// Whole-body dense evaluation passes: the first iteration of
    /// every fixpoint.
    pub fixpoint_dense_passes: usize,
    /// The pool's measured per-dispatch coordination cost in
    /// nanoseconds ([`WorkerPool::dispatch_cost_ns`], calibrated once
    /// at pool construction) when this run dispatched any pool call,
    /// `0` for a fully sequential run. This is the number the Auto
    /// work gate prices against
    /// ([`portnum_graph::partition::parallel_floor_words`]), surfaced
    /// here so benches and regression rows can record the gate's
    /// input alongside the timings it produced.
    pub dispatch_cost_ns: u64,
}

impl ExecStats {
    /// Adds `other`'s counters into `self` (merging per-chunk stats).
    /// The dispatch cost is a calibration constant, not a counter, so
    /// it merges by `max` (either side that touched the pool knows it).
    fn absorb(&mut self, other: ExecStats) {
        self.executed += other.executed;
        self.forward_diamonds += other.forward_diamonds;
        self.csc_diamonds += other.csc_diamonds;
        self.chunked_ops += other.chunked_ops;
        self.fixpoints += other.fixpoints;
        self.fixpoint_iters += other.fixpoint_iters;
        self.fixpoint_frontier_worlds += other.fixpoint_frontier_worlds;
        self.fixpoint_dense_passes += other.fixpoint_dense_passes;
        self.dispatch_cost_ns = self.dispatch_cost_ns.max(other.dispatch_cost_ns);
    }
}

/// One in-progress fixpoint body during lowering: the frame of a µ/ν
/// binder whose body is still being lowered. Body ops intern into the
/// frame's own list and cons table — body ids are meaningless outside
/// their body, so nothing here may leak into (or read from) the plan
/// tables.
#[derive(Debug)]
struct Frame {
    /// Unique consing context of this binder *site*; see
    /// [`Lowerer::bodies_cons`].
    ctx: u32,
    /// The variable this frame's binder bound.
    var: std::sync::Arc<str>,
    ops: Vec<Op>,
    cons: FxHashMap<Op, u32>,
    /// External inputs imported so far (ids in the enclosing context).
    args: Vec<u32>,
    /// Enclosing-context id → local `Arg` op id, so one outer value is
    /// imported once however often it is referenced.
    arg_memo: FxHashMap<u32, u32>,
}

impl Frame {
    fn intern(&mut self, op: Op) -> u32 {
        if let Some(&id) = self.cons.get(&op) {
            return id;
        }
        let id =
            u32::try_from(self.ops.len()).expect("fixpoint bodies are capped at 2^32 instructions");
        self.cons.insert(op, id);
        self.ops.push(op);
        id
    }
}

/// Reusable lowering state: the instruction list, the structural
/// hash-cons table, and the pointer memo short-circuiting re-lowering
/// of `Arc`-shared subtrees.
#[derive(Debug, Default)]
struct Lowerer {
    ops: Vec<Op>,
    cons: FxHashMap<Op, u32>,
    /// Plan ids of the `Arc`-shared subtrees already lowered, keyed by
    /// node address. It keeps lowering linear in the formula *DAG*:
    /// without it [`Lowerer::lower`] recurses over the formula *tree*,
    /// and the hash-cons table above only merges the resulting ops
    /// after the walk. So `f = f ∧ f` iterated 40 times
    /// (`eval::tests::shared_subformulas_evaluate_once`) would take 2^40
    /// steps, and iterated 64 times (the
    /// `model_checking/shared_dag_64_levels/packed` bench row) 2^64.
    ptr_memo: FxHashMap<*const FormulaKind, u32>,
    /// Completed fixpoint bodies, indexed by [`Op::Fixpoint`]'s
    /// payload. Nested bodies complete before their parents, so a
    /// body's nested `Fixpoint` ops always reference lower indices.
    bodies: Vec<FixBody>,
    /// Structural body dedup, keyed by *site context* as well as
    /// content: a body's args are ids in its enclosing context, so two
    /// structurally equal bodies may only merge when that context is
    /// shared (0 = the plan level, where args are always empty; each
    /// binder frame gets a fresh context id).
    bodies_cons: FxHashMap<(u32, FixBody), u32>,
    /// Open binder frames, innermost last. Empty outside fixpoint
    /// lowering — the fast path.
    frames: Vec<Frame>,
    /// Context-id allocator for frames (0 is reserved for the plan).
    next_ctx: u32,
    ast_nodes: usize,
    dedup_hits: usize,
}

impl Lowerer {
    /// The op behind `id` *in the current lowering context* (the
    /// innermost open frame, or the plan when no binder is open).
    fn op_at(&self, id: u32) -> Op {
        match self.frames.last() {
            Some(frame) => frame.ops[id as usize],
            None => self.ops[id as usize],
        }
    }

    fn intern(&mut self, op: Op) -> u32 {
        if let Some(frame) = self.frames.last_mut() {
            if frame.cons.contains_key(&op) {
                self.dedup_hits += 1;
            }
            return frame.intern(op);
        }
        if let Some(&id) = self.cons.get(&op) {
            self.dedup_hits += 1;
            return id;
        }
        let id = u32::try_from(self.ops.len()).expect("plans are capped at 2^32 instructions");
        self.cons.insert(op, id);
        self.ops.push(op);
        id
    }

    fn mk_not(&mut self, a: u32) -> u32 {
        match self.op_at(a) {
            Op::Not(inner) => {
                self.dedup_hits += 1;
                inner
            }
            Op::Top => self.intern(Op::Bottom),
            Op::Bottom => self.intern(Op::Top),
            _ => self.intern(Op::Not(a)),
        }
    }

    fn mk_and(&mut self, a: u32, b: u32) -> u32 {
        let (a, b) = (a.min(b), a.max(b));
        if a == b {
            self.dedup_hits += 1;
            return a;
        }
        match (self.op_at(a), self.op_at(b)) {
            (Op::Bottom, _) | (_, Op::Bottom) => self.intern(Op::Bottom),
            (Op::Top, _) => {
                self.dedup_hits += 1;
                b
            }
            (_, Op::Top) => {
                self.dedup_hits += 1;
                a
            }
            _ => self.intern(Op::And(a, b)),
        }
    }

    fn mk_or(&mut self, a: u32, b: u32) -> u32 {
        let (a, b) = (a.min(b), a.max(b));
        if a == b {
            self.dedup_hits += 1;
            return a;
        }
        match (self.op_at(a), self.op_at(b)) {
            (Op::Top, _) | (_, Op::Top) => self.intern(Op::Top),
            (Op::Bottom, _) => {
                self.dedup_hits += 1;
                b
            }
            (_, Op::Bottom) => {
                self.dedup_hits += 1;
                a
            }
            _ => self.intern(Op::Or(a, b)),
        }
    }

    /// Lowers a fixpoint variable reference: the accumulator read
    /// interns as [`Op::Var`] in its *binding* frame, then is imported
    /// down through every intervening frame as an [`Op::Arg`] — each
    /// body only ever reads its own ops.
    fn lower_var(&mut self, name: &str) -> Result<u32, LogicError> {
        let Some(fi) = self.frames.iter().rposition(|f| *f.var == *name) else {
            return Err(LogicError::UnboundVariable { name: name.to_string() });
        };
        let mut id = self.frames[fi].intern(Op::Var);
        for i in fi + 1..self.frames.len() {
            let frame = &mut self.frames[i];
            id = match frame.arg_memo.get(&id) {
                Some(&local) => local,
                None => {
                    let k = u32::try_from(frame.args.len())
                        .expect("fixpoint bodies are capped at 2^32 external inputs");
                    frame.args.push(id);
                    let local = frame.intern(Op::Arg(k));
                    frame.arg_memo.insert(id, local);
                    local
                }
            };
        }
        Ok(id)
    }

    /// Lowers a µ/ν binder: opens a fresh frame, lowers the body into
    /// it, and interns the completed body as one [`Op::Fixpoint`]
    /// instruction in the enclosing context.
    fn lower_fixpoint(
        &mut self,
        model: &Kripke,
        var: &std::sync::Arc<str>,
        body: &Formula,
        greatest: bool,
    ) -> Result<u32, LogicError> {
        self.next_ctx += 1;
        self.frames.push(Frame {
            ctx: self.next_ctx,
            var: std::sync::Arc::clone(var),
            ops: Vec::new(),
            cons: FxHashMap::default(),
            args: Vec::new(),
            arg_memo: FxHashMap::default(),
        });
        // Pop the frame even when the body fails to lower: a
        // ModelChecker's Lowerer outlives errors.
        let root = match self.lower(model, body) {
            Ok(root) => root,
            Err(e) => {
                self.frames.pop();
                return Err(e);
            }
        };
        let frame = self.frames.pop().expect("pushed above");
        let fix = FixBody { greatest, ops: frame.ops, root, args: frame.args };
        let site_ctx = self.frames.last().map_or(0, |f| f.ctx);
        let b = match self.bodies_cons.get(&(site_ctx, fix.clone())) {
            Some(&b) => {
                self.dedup_hits += 1;
                b
            }
            None => {
                let b = u32::try_from(self.bodies.len()).expect("body indices fit u32");
                self.bodies_cons.insert((site_ctx, fix.clone()), b);
                self.bodies.push(fix);
                b
            }
        };
        Ok(self.intern(Op::Fixpoint(b)))
    }

    fn lower(&mut self, model: &Kripke, formula: &Formula) -> Result<u32, LogicError> {
        let key = formula.kind() as *const FormulaKind;
        // The pointer memo holds plan-context ids of (necessarily
        // closed) subtrees lowered outside every binder, so it is
        // sound to consult — and grow — only when no frame is open: a
        // body-local id is meaningless elsewhere, and inside a frame
        // even a closed subtree lowers to frame-local ops.
        if self.frames.is_empty() {
            if let Some(&id) = self.ptr_memo.get(&key) {
                self.dedup_hits += 1;
                return Ok(id);
            }
        }
        self.ast_nodes += 1;
        let id = match formula.kind() {
            FormulaKind::Top => self.intern(Op::Top),
            FormulaKind::Bottom => self.intern(Op::Bottom),
            FormulaKind::Prop(d) => self.intern(Op::Prop(*d)),
            FormulaKind::Not(a) => {
                let a = self.lower(model, a)?;
                self.mk_not(a)
            }
            FormulaKind::And(a, b) => {
                let a = self.lower(model, a)?;
                let b = self.lower(model, b)?;
                self.mk_and(a, b)
            }
            FormulaKind::Or(a, b) => {
                let a = self.lower(model, a)?;
                let b = self.lower(model, b)?;
                self.mk_or(a, b)
            }
            FormulaKind::Diamond { index, grade, inner } => {
                if index.family() != model.variant().family() {
                    return Err(LogicError::FamilyMismatch {
                        expected: model.variant().family(),
                        found: index.family(),
                    });
                }
                let inner = self.lower(model, inner)?;
                if *grade == 0 {
                    // ⟨α⟩≥0 φ is vacuously true, stored relation or not.
                    self.intern(Op::Top)
                } else {
                    match model.relation_id(*index) {
                        None => self.intern(Op::Bottom),
                        // ⟨α⟩≥k ⊥ has no satisfying successor for k ≥ 1.
                        Some(_) if self.op_at(inner) == Op::Bottom => self.intern(Op::Bottom),
                        Some(r) => self.intern(Op::Diamond {
                            rel: u32::try_from(r).expect("relation ids fit u32"),
                            grade: *grade,
                            inner,
                        }),
                    }
                }
            }
            FormulaKind::Var(name) => self.lower_var(name)?,
            FormulaKind::Mu { var, body } => self.lower_fixpoint(model, var, body, false)?,
            FormulaKind::Nu { var, body } => self.lower_fixpoint(model, var, body, true)?,
        };
        if self.frames.is_empty() {
            self.ptr_memo.insert(key, id);
        }
        Ok(id)
    }
}

/// A compiled evaluation plan for one model: a topologically ordered,
/// hash-consed instruction list with recycled output slots, one root
/// per input formula.
///
/// A plan resolves relation ids and folds against the model it was
/// compiled for; executing it against any other model is a logic error
/// (sizes are asserted, contents are the caller's contract).
///
/// # Examples
///
/// ```
/// use portnum_graph::generators;
/// use portnum_logic::plan::Plan;
/// use portnum_logic::{Formula, Kripke, ModalIndex};
///
/// let k = Kripke::k_mm(&generators::star(3));
/// // Two structurally equal diamonds that share no memory…
/// let a = Formula::diamond(ModalIndex::Any, &Formula::prop(1));
/// let b = Formula::diamond(ModalIndex::Any, &Formula::prop(1));
/// let plan = Plan::compile_suite(&k, [&a, &b])?;
/// // …lower to the same instructions.
/// assert!(plan.stats().instructions < plan.stats().ast_nodes);
/// let truth = plan.execute(&k);
/// assert_eq!(truth[0], truth[1]);
/// # Ok::<(), portnum_logic::LogicError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Plan {
    n: usize,
    ops: Vec<Op>,
    /// Fixpoint bodies, indexed by [`Op::Fixpoint`] payloads (possibly
    /// including bodies orphaned by folds; body ids are not compacted
    /// — a dead body is never executed, and bodies are small).
    bodies: Vec<FixBody>,
    /// Output slot of each instruction.
    dst: Vec<u32>,
    slot_count: usize,
    /// Root instruction of each input formula, in input order.
    roots: Vec<u32>,
    stats: PlanStats,
}

impl Plan {
    /// Compiles a single formula against `model`.
    ///
    /// # Examples
    ///
    /// ```
    /// use portnum_graph::generators;
    /// use portnum_logic::{parse, Kripke, Plan};
    ///
    /// // "some neighbour has degree 1" — true exactly at the centre.
    /// let k = Kripke::k_mm(&generators::star(3));
    /// let plan = Plan::compile(&k, &parse("<*,*> q1")?)?;
    /// let truths = plan.execute(&k);
    /// assert_eq!(truths[0].iter_ones().collect::<Vec<_>>(), vec![0]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::FamilyMismatch`] if the formula uses
    /// modalities from a different index family than the model.
    pub fn compile(model: &Kripke, formula: &Formula) -> Result<Plan, LogicError> {
        Plan::compile_suite(model, std::iter::once(formula))
    }

    /// Compiles a suite of formulas sharing `model` into one plan;
    /// subformulas shared *structurally* across the suite are lowered
    /// and executed once. Roots come out in input order.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::FamilyMismatch`] as [`Plan::compile`].
    pub fn compile_suite<'a, I>(model: &Kripke, formulas: I) -> Result<Plan, LogicError>
    where
        I: IntoIterator<Item = &'a Formula>,
    {
        let mut lw = Lowerer::default();
        let mut roots = Vec::new();
        for f in formulas {
            roots.push(lw.lower(model, f)?);
        }
        Ok(Plan::finish(model.len(), lw.ops, lw.bodies, roots, lw.ast_nodes, lw.dedup_hits))
    }

    /// Compacts to the live instructions, assigns recycled slots, and
    /// freezes the statistics. Fixpoint bodies are self-contained
    /// (body-local ids, no plan references either way), so compaction
    /// never rewrites them.
    fn finish(
        n: usize,
        ops: Vec<Op>,
        bodies: Vec<FixBody>,
        roots: Vec<u32>,
        ast_nodes: usize,
        dedup: usize,
    ) -> Plan {
        // Reachability from the roots: folds may have orphaned subtrees.
        let mut live = vec![false; ops.len()];
        let mut stack: Vec<u32> = roots.clone();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut live[id as usize], true) {
                continue;
            }
            ops[id as usize].for_each_operand(|a| stack.push(a));
        }

        // Order-preserving compaction (operands precede consumers, so
        // the remap is always populated before it is read).
        let mut remap = vec![u32::MAX; ops.len()];
        let mut compact: Vec<Op> = Vec::with_capacity(ops.len());
        for (id, op) in ops.into_iter().enumerate() {
            if !live[id] {
                continue;
            }
            let rewritten = match op {
                Op::Top | Op::Bottom | Op::Prop(_) | Op::Fixpoint(_) => op,
                Op::Not(a) => Op::Not(remap[a as usize]),
                Op::And(a, b) => Op::And(remap[a as usize], remap[b as usize]),
                Op::Or(a, b) => Op::Or(remap[a as usize], remap[b as usize]),
                Op::Diamond { rel, grade, inner } => {
                    Op::Diamond { rel, grade, inner: remap[inner as usize] }
                }
                Op::Var | Op::Arg(_) => unreachable!("Var/Arg live only inside fixpoint bodies"),
            };
            remap[id] = compact.len() as u32;
            compact.push(rewritten);
        }
        let roots: Vec<u32> = roots.iter().map(|&r| remap[r as usize]).collect();

        // Slots in execution (id) order: an operand's slot is freed
        // only after its last reader has taken a destination, so no
        // instruction writes a slot it reads. Roots are pinned.
        let m = compact.len();
        let mut last_reader = vec![0u32; m];
        for (id, op) in compact.iter().enumerate() {
            op.for_each_operand(|a| last_reader[a as usize] = id as u32);
        }
        for &r in &roots {
            last_reader[r as usize] = u32::MAX;
        }
        let mut dst = vec![0u32; m];
        let mut free: Vec<u32> = Vec::new();
        let mut slot_count = 0usize;
        for (id, op) in compact.iter().enumerate() {
            dst[id] = free.pop().unwrap_or_else(|| {
                slot_count += 1;
                (slot_count - 1) as u32
            });
            op.for_each_operand(|a| {
                if last_reader[a as usize] == id as u32 {
                    // Mark it freed, so an operand read twice frees once.
                    last_reader[a as usize] = u32::MAX;
                    free.push(dst[a as usize]);
                }
            });
        }

        let stats = PlanStats {
            ast_nodes,
            instructions: compact.len(),
            dedup_hits: dedup,
            slots: slot_count,
        };
        Plan { n, ops: compact, bodies, dst, slot_count, roots, stats }
    }

    /// Lowering statistics (instruction, dedup, and slot counts).
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Number of live instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the plan has no instructions (empty suite).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of input formulas (= result vectors per execution).
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// The plan's total per-instruction work estimate against `model`,
    /// in the touched-words currency
    /// [`ExecBudget`](portnum_graph::resilience::ExecBudget) meters —
    /// the same
    /// figure the Auto work gate and
    /// [`ModelChecker::estimate_work`] price with. Admission layers use
    /// this to cost a compiled suite before committing an executor to
    /// it.
    pub fn estimated_work(&self, model: &Kripke) -> usize {
        self.ops.iter().map(|&op| op_work_for(model, &self.bodies, op)).sum()
    }

    /// Executes with [`DiamondMode::Auto`]; returns one truth vector
    /// per input formula, in input order. Heavy instructions run on the
    /// persistent worker pool — see the module docs — while small plans
    /// stay on the sequential fast path.
    ///
    /// # Panics
    ///
    /// Panics if `model` has a different number of worlds than the
    /// model the plan was compiled for (compile and execute against the
    /// same model).
    pub fn execute(&self, model: &Kripke) -> Vec<Bitset> {
        self.execute_with(model, DiamondMode::Auto).0
    }

    /// Executes the plan in instruction order with the given diamond
    /// strategy, returning the root truth vectors and the execution
    /// statistics.
    ///
    /// # Panics
    ///
    /// See [`Plan::execute`].
    pub fn execute_with(&self, model: &Kripke, mode: DiamondMode) -> (Vec<Bitset>, ExecStats) {
        self.execute_controlled(model, mode, Parallelism::Auto, &ExecControl::unrestricted())
            .expect("unrestricted execution cannot be interrupted")
    }

    /// The full executor: `par` decides how thread counts resolve
    /// ([`Parallelism::Auto`] in production; `Force`/`Off` pin the
    /// pool-driven or sequential paths for differential tests and
    /// benches — output is bit-identical either way, and orthogonal to
    /// the [`DiamondMode`] strategy), and `ctl` is polled at every
    /// instruction boundary (and every fixpoint iteration), so
    /// cancel-to-error latency is bounded by one instruction. Budget
    /// semantics:
    ///
    /// * the touched-work ceiling accumulates the executor's
    ///   per-instruction work estimate — the same currency the Auto
    ///   diamond cost model and the parallel work gate already price —
    ///   and trips [`Interrupted`] when crossed;
    /// * the slot-words ceiling *degrades*: when resident slot storage
    ///   plus the parallel paths' per-thread partials would exceed it,
    ///   execution stays sequential (no partials) instead of failing.
    ///
    /// On `Err`, nothing is returned and nothing was published: all
    /// intermediate state is call-local, so an immediate retry is
    /// bit-identical to a run that was never interrupted.
    ///
    /// # Errors
    ///
    /// The first [`Interrupted`] observed at any granule boundary.
    ///
    /// # Panics
    ///
    /// See [`Plan::execute`].
    pub fn execute_controlled(
        &self,
        model: &Kripke,
        mode: DiamondMode,
        par: Parallelism,
        ctl: &ExecControl,
    ) -> Result<(Vec<Bitset>, ExecStats), Interrupted> {
        assert_eq!(
            model.len(),
            self.n,
            "plan executed against a model of a different size than it was compiled for"
        );
        ctl.check()?;
        // Slot-words budget: resident storage is the recycled slots;
        // the chunked paths add up to one partial bitset per pool
        // thread (CSC gather partials). When that sum would cross the
        // ceiling, degrade to sequential — the query still answers,
        // just without the partials.
        let word_len = self.n.div_ceil(64);
        let par = if ctl
            .budget
            .slots_over(self.slot_count * word_len + (encode_threads().max(2) + 1) * word_len)
        {
            Parallelism::Off
        } else {
            par
        };
        let mut touched = 0usize;
        let mut stats = ExecStats::default();
        let mut slots: Vec<Bitset> = (0..self.slot_count).map(|_| Bitset::default()).collect();
        for (id, &op) in self.ops.iter().enumerate() {
            // Chaos site at the instruction boundary: all executor
            // state is call-local, so a panic or interruption here
            // publishes nothing.
            fail::fail_point!("plan-instr");
            touched += op_work_for(model, &self.bodies, op);
            ctl.check_work(touched)?;
            let dst = self.dst[id] as usize;
            // Take the output slot so operand slots stay borrowable;
            // every instruction fully overwrites it (recycled contents
            // are stale by design).
            let mut out = std::mem::take(&mut slots[dst]);
            eval_instr_into(
                model,
                mode,
                &self.bodies,
                op,
                &|a| &slots[self.dst[a as usize] as usize],
                &mut out,
                &mut stats,
                ctl,
                par,
            )?;
            stats.executed += 1;
            slots[dst] = out;
        }

        // Move each root's vector out of its slot; duplicate roots
        // (identical formulas in the suite) clone the first copy.
        let mut results: Vec<Bitset> = Vec::with_capacity(self.roots.len());
        let mut first_owner: FxHashMap<u32, usize> = FxHashMap::default();
        for &r in &self.roots {
            let slot = self.dst[r as usize];
            match first_owner.get(&slot) {
                Some(&i) => results.push(results[i].clone()),
                None => {
                    first_owner.insert(slot, results.len());
                    results.push(std::mem::take(&mut slots[slot as usize]));
                }
            }
        }
        // Record the coordination cost the work gate priced this run
        // against — only when the pool actually dispatched, so a
        // sequential run reports 0 and stats stay engine-faithful.
        if stats.chunked_ops > 0 {
            stats.dispatch_cost_ns = WorkerPool::global().dispatch_cost_ns();
        }
        Ok((results, stats))
    }
}

/// Estimated work of one instruction, in the same "words of work"
/// currency as [`Parallelism::Auto`]'s gate (refinement signature words
/// ≈ a few ns each): connectives are word-parallel (`n/64`),
/// `Prop` compares one degree per world, diamonds sweep every
/// world plus every stored successor pair. A fixpoint prices at twice
/// its body's per-iteration work plus an `n/8` flip term: frontier
/// iteration flips each world at most once (monotone bodies), so
/// total work is a small multiple of one dense pass plus the flip
/// volume — this is what makes [`ModelChecker::estimate_work`]
/// iteration-aware for serve admission. Shared by [`Plan`]'s executor
/// and [`ModelChecker`]'s touched-work budget so both price budgets
/// in one currency.
fn op_work_for(model: &Kripke, bodies: &[FixBody], op: Op) -> usize {
    let n = model.len();
    match op {
        Op::Prop(_) => n / 8,
        Op::Diamond { rel, .. } => {
            let (_, targets) = model.relation_rows(rel as usize);
            (n + targets.len()) / 4
        }
        Op::Fixpoint(b) => {
            let per_iter: usize = bodies[b as usize]
                .ops
                .iter()
                .map(|&body_op| op_work_for(model, bodies, body_op))
                .sum();
            2 * per_iter + n / 8
        }
        _ => n / 64,
    }
}

/// Evaluates one instruction into `out` (a full overwrite), resolving
/// operands through `operand`: a fixpoint iterates from ⊥/⊤, a `Prop`
/// or diamond that `par` grants more than one thread chunks over the
/// pool, and every other instruction runs inline. The one instruction
/// dispatch, shared by [`Plan`]'s executor (slot-backed operands),
/// fixpoint bodies' dense pass (per-op values) and [`ModelChecker`]
/// (`Rc`-cached operands, always [`Parallelism::Off`]), so they cannot
/// drift.
#[allow(clippy::too_many_arguments)]
fn eval_instr_into<'a>(
    model: &Kripke,
    mode: DiamondMode,
    bodies: &[FixBody],
    op: Op,
    operand: &dyn Fn(u32) -> &'a Bitset,
    out: &mut Bitset,
    stats: &mut ExecStats,
    ctl: &ExecControl,
    par: Parallelism,
) -> Result<(), Interrupted> {
    match op {
        Op::Fixpoint(b) => {
            return eval_fixpoint_into(
                model,
                mode,
                bodies,
                b,
                operand,
                out,
                stats,
                ctl,
                par,
                FixStart::Cold,
            );
        }
        Op::Prop(_) | Op::Diamond { .. } => {
            let threads = par.threads(op_work_for(model, bodies, op));
            if threads > 1 {
                eval_op_chunked(model, mode, op, operand, out, stats, threads);
                return Ok(());
            }
        }
        _ => {}
    }
    eval_op_into(model, mode, op, operand, out, stats);
    Ok(())
}

/// Evaluates one non-fixpoint instruction into `out` (a full
/// overwrite) on the calling thread, resolving operand truth vectors
/// through `operand`.
fn eval_op_into<'a>(
    model: &Kripke,
    mode: DiamondMode,
    op: Op,
    operand: impl Fn(u32) -> &'a Bitset,
    out: &mut Bitset,
    stats: &mut ExecStats,
) {
    let n = model.len();
    match op {
        Op::Top => out.assign_ones(n),
        Op::Bottom => out.assign_zeros(n),
        Op::Prop(d) => out.assign_from_fn(n, |v| model.degree(v) == d),
        Op::Not(a) => {
            out.copy_from(operand(a));
            out.not_assign();
        }
        Op::And(a, b) => {
            out.copy_from(operand(a));
            out.and_assign(operand(b));
        }
        Op::Or(a, b) => {
            out.copy_from(operand(a));
            out.or_assign(operand(b));
        }
        Op::Diamond { rel, grade, inner } => {
            diamond_into(model, mode, rel as usize, grade, operand(inner), out, stats);
        }
        Op::Var | Op::Arg(_) => {
            unreachable!("Var/Arg are body-local leaves resolved by the fixpoint executor")
        }
        Op::Fixpoint(_) => {
            unreachable!("fixpoint instructions dispatch through eval_fixpoint_into")
        }
    }
}

/// One dense evaluation pass over a fixpoint body: every op, every
/// world, in body id order (operands precede consumers) — the same
/// engine as the straight-line executor, with `Var` reading the
/// current accumulator and `Arg` the resolved external inputs. Heavy
/// `Prop`/`Diamond` body ops chunk over the pool exactly as top-level
/// instructions do, except a counted diamond (`counts[i]` set), which
/// fills its counts with the sequential counting gather
/// ([`csc_count_into`]).
#[allow(clippy::too_many_arguments)]
fn body_dense_pass(
    model: &Kripke,
    mode: DiamondMode,
    bodies: &[FixBody],
    body: &FixBody,
    x: &Bitset,
    arg_vals: &[&Bitset],
    vals: &mut [Bitset],
    counts: &mut [Option<Vec<u32>>],
    stats: &mut ExecStats,
    ctl: &ExecControl,
    par: Parallelism,
) -> Result<(), Interrupted> {
    for i in 0..body.ops.len() {
        let op = body.ops[i];
        // Take the value slot so sibling slots stay borrowable; every
        // arm fully overwrites it.
        let mut out = std::mem::take(&mut vals[i]);
        match (op, counts[i].as_mut()) {
            (Op::Var, _) => out.copy_from(x),
            (Op::Arg(k), _) => out.copy_from(arg_vals[k as usize]),
            (Op::Diamond { rel, grade, inner }, Some(counts)) => {
                stats.csc_diamonds += 1;
                let csc = model.predecessors_csc(rel as usize);
                csc_count_into(csc, grade, &vals[inner as usize], model.len(), counts, &mut out);
            }
            _ => {
                eval_instr_into(
                    model,
                    mode,
                    bodies,
                    op,
                    &|a| &vals[a as usize],
                    &mut out,
                    stats,
                    ctl,
                    par,
                )?;
            }
        }
        vals[i] = out;
    }
    Ok(())
}

/// One frontier pass over a fixpoint body: repairs the persistent
/// per-op values in place through the change-propagation kernel
/// ([`propagate_op`]), seeded by `x_changed`, the accumulator's flips,
/// at the `Var` op, and by `direct`, the worlds where the model changed
/// since the values were computed (a delta's touched set on a warm
/// restart, empty inside one run). The repaired values are
/// bit-identical to a dense pass — the contract the differential µ
/// suite pins. Flips land in `changed[i]`, each world once, in no fixed
/// order; `changed[body.root]` is the accumulator's next flip set. An op
/// with `counts[i]` set is a counted diamond ([`count_flips`]); every
/// other op goes through [`propagate_op`].
#[allow(clippy::too_many_arguments)]
fn body_frontier_pass(
    model: &Kripke,
    mode: DiamondMode,
    bodies: &[FixBody],
    body: &FixBody,
    x: &Bitset,
    x_changed: &[u32],
    direct: &[u32],
    vals: &mut [Bitset],
    changed: &mut [Vec<u32>],
    counts: &mut [Option<Vec<u32>>],
    stats: &mut ExecStats,
    ctl: &ExecControl,
    par: Parallelism,
) -> Result<(), Interrupted> {
    for (i, &op) in body.ops.iter().enumerate() {
        let (prev, rest) = vals.split_at_mut(i);
        let prev: &[Bitset] = prev;
        let cur = &mut rest[0];
        let (prev_changed, rest_changed) = changed.split_at_mut(i);
        let flips = &mut rest_changed[0];
        match (op, counts[i].as_mut()) {
            // `Var` holds the previous accumulator, which moved exactly
            // at its recorded flips.
            (Op::Var, _) => {
                for &v in x_changed {
                    cur.set(v as usize, x.get(v as usize));
                }
                flips.clear();
                flips.extend_from_slice(x_changed);
                stats.fixpoint_frontier_worlds += x_changed.len();
            }
            // A nested fixpoint re-runs whenever the model or any of its
            // external inputs changed (its own executor starts dense
            // again — its accumulator restarts from ⊥/⊤, so stale
            // per-iteration state cannot be reused); the flips its
            // consumers need fall out of a word diff.
            (Op::Fixpoint(b), _) => {
                flips.clear();
                if !direct.is_empty()
                    || bodies[b as usize].args.iter().any(|&a| !prev_changed[a as usize].is_empty())
                {
                    let mut next = Bitset::default();
                    eval_fixpoint_into(
                        model,
                        mode,
                        bodies,
                        b,
                        &|a| &prev[a as usize],
                        &mut next,
                        stats,
                        ctl,
                        par,
                        FixStart::Cold,
                    )?;
                    cur.for_each_difference(&next, |v| flips.push(v as u32));
                    *cur = next;
                }
            }
            (Op::Diamond { rel, grade, inner }, Some(counts)) => {
                stats.fixpoint_frontier_worlds += count_flips(
                    model.predecessors_csc(rel as usize),
                    grade,
                    &prev[inner as usize],
                    &prev_changed[inner as usize],
                    counts,
                    cur,
                    flips,
                );
            }
            _ => match propagate_op(
                model,
                mode,
                op,
                |a| &prev[a as usize],
                |a| prev_changed[a as usize].as_slice(),
                direct,
                || cur,
                flips,
                stats,
            ) {
                Propagation::Clean => {}
                Propagation::Dense => stats.fixpoint_frontier_worlds += model.len(),
                Propagation::Points(c) => stats.fixpoint_frontier_worlds += c,
            },
        }
    }
    Ok(())
}

/// How [`propagate_op`] brought one value up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Propagation {
    /// No candidate world: the value cannot have moved.
    Clean,
    /// Recomputed over the whole universe (the candidates reached the
    /// dense-fallback threshold).
    Dense,
    /// Re-evaluated at this many candidate worlds.
    Points(usize),
}

/// The change-propagation kernel shared by fixpoint frontier iteration
/// ([`body_frontier_pass`]) and delta repair ([`ModelChecker::resume`]);
/// see the module docs. Brings `cur`, the value `op` had before some of
/// its inputs changed, up to date with the operands' current values
/// (`operand`), given the worlds where each operand flipped
/// (`flips_of`) and the worlds where the model changed under an op that
/// reads it directly (`direct`).
///
/// `flips` is overwritten with the worlds where `cur` flipped, each
/// once. They are ascending unless the op passed one operand's flips
/// through as its candidates (`¬`, or `∧`/`∨` with one clean operand)
/// and those were unordered, as a counted diamond's are
/// ([`count_flips`]). `cur` is only fetched when some candidate exists,
/// so a copy-on-write store is never copied for a clean op. `Var` and
/// `Fixpoint` are the callers' business; `Arg` is an input fixed for
/// the whole run, like a constant.
#[allow(clippy::too_many_arguments)]
fn propagate_op<'a, 'c>(
    model: &Kripke,
    mode: DiamondMode,
    op: Op,
    operand: impl Fn(u32) -> &'a Bitset,
    flips_of: impl Fn(u32) -> &'a [u32],
    direct: &[u32],
    cur: impl FnOnce() -> &'c mut Bitset,
    flips: &mut Vec<u32>,
    stats: &mut ExecStats,
) -> Propagation {
    flips.clear();
    // Candidate worlds, each once. A single input's list is borrowed as
    // it is; only a merge of several is sorted and deduplicated.
    let candidates: Cow<'_, [u32]> = match op {
        Op::Top | Op::Bottom | Op::Arg(_) => Cow::Borrowed(&[]),
        Op::Prop(_) => Cow::Borrowed(direct),
        Op::Not(a) => Cow::Borrowed(flips_of(a)),
        Op::And(a, b) | Op::Or(a, b) => match (flips_of(a), flips_of(b)) {
            ([], only) | (only, []) => Cow::Borrowed(only),
            (fa, fb) => {
                let mut c = [fa, fb].concat();
                c.sort_unstable();
                c.dedup();
                Cow::Owned(c)
            }
        },
        Op::Diamond { rel, inner, .. } => match flips_of(inner) {
            [] => Cow::Borrowed(direct),
            inner_flips => {
                let mut c = direct.to_vec();
                let csc = model.predecessors_csc(rel as usize);
                for &w in inner_flips {
                    c.extend_from_slice(csc.row(w as usize));
                }
                c.sort_unstable();
                c.dedup();
                Cow::Owned(c)
            }
        },
        Op::Var | Op::Fixpoint(_) => unreachable!("Var and Fixpoint are propagated by the caller"),
    };
    if candidates.is_empty() {
        return Propagation::Clean;
    }
    let cur = cur();
    if candidates.len() * 4 >= model.len() {
        // Past a quarter of the universe the vectorized sweep beats
        // point lookups; the flips still come cheap off a word diff.
        let mut next = Bitset::default();
        eval_op_into(model, mode, op, operand, &mut next, stats);
        cur.for_each_difference(&next, |v| flips.push(v as u32));
        *cur = next;
        return Propagation::Dense;
    }
    // One dispatch per op, then a tight point loop whose `now(v)` is
    // `eval_op_into(..).get(v)`.
    fn repair(cur: &mut Bitset, candidates: &[u32], flips: &mut Vec<u32>, now: impl Fn(usize) -> bool) {
        for &v in candidates {
            let now = now(v as usize);
            if cur.get(v as usize) != now {
                cur.set(v as usize, now);
                flips.push(v);
            }
        }
    }
    match op {
        Op::Prop(d) => repair(cur, &candidates, flips, |v| model.degree(v) == d),
        Op::Not(a) => {
            let a = operand(a);
            repair(cur, &candidates, flips, |v| !a.get(v));
        }
        Op::And(a, b) => {
            let (a, b) = (operand(a), operand(b));
            repair(cur, &candidates, flips, |v| a.get(v) && b.get(v));
        }
        Op::Or(a, b) => {
            let (a, b) = (operand(a), operand(b));
            repair(cur, &candidates, flips, |v| a.get(v) || b.get(v));
        }
        Op::Diamond { rel, grade, inner } => {
            let sat = operand(inner);
            repair(cur, &candidates, flips, |v| {
                let succ = model.successors_dense(rel as usize, v);
                succ.iter().filter(|&&w| sat.get(w as usize)).take(grade).count() >= grade
            });
        }
        Op::Top | Op::Bottom | Op::Arg(_) | Op::Var | Op::Fixpoint(_) => {
            unreachable!("ops without candidates returned above")
        }
    }
    Propagation::Points(candidates.len())
}

/// A top-level fixpoint's converged iteration state, recorded by delta
/// repair ([`ModelChecker::resume`]) so that the next repair can restart
/// the iteration warm ([`FixStart::Warm`]) instead of from ⊥/⊤.
///
/// Call the worlds in X (µ) or outside X (ν) the *ranked* side: the
/// side a Kleene iteration grows. The invariant: every ranked world of
/// rank `r` is derived by the ranked worlds of rank `< r` in its read
/// ball ([`BodyReads`]) alone — the body holds at it (µ) when `Var` is
/// true exactly at those worlds, or fails at it (ν) when `Var` is false
/// exactly there. Kleene iteration numbers have this property. Warm repair
/// keeps it: [`fixpoint_cone`] keeps a ranked world's rank only when
/// the delta left it outside the world's read ball or the world was
/// re-derived on the new model from kept worlds of lower rank, and a
/// world that flips onto the ranked side ranks above every ranked
/// world it reads. [`fixpoint_cone`] relies on it.
#[derive(Debug, Default)]
struct FixState {
    /// The body's per-op values at convergence (`vals[root]` is the
    /// fixpoint itself).
    vals: Vec<Bitset>,
    /// Per world, the iteration at which it entered X (µ) or left X
    /// (ν); `u32::MAX` for the worlds that never did.
    rank: Vec<u32>,
}

impl FixState {
    /// Resident `u64` words: the body values plus the ranks.
    fn words(&self) -> usize {
        self.vals.iter().map(|b| b.words().len()).sum::<usize>() + self.rank.len().div_ceil(2)
    }
}

/// Where [`eval_fixpoint_into`] starts its Kleene iteration.
enum FixStart<'s> {
    /// From ⊥ (µ) or ⊤ (ν) with a dense first pass, keeping no state:
    /// plan execution, checks and nested fixpoints.
    Cold,
    /// As [`FixStart::Cold`], recording the converged state.
    Record(&'s mut FixState),
    /// From a recorded state after a delta that touched the worlds
    /// `direct` (ascending): the `cone` ([`fixpoint_cone`]) is flipped
    /// out of the old value, and the first pass is a frontier pass
    /// seeded by the cone and the delta together. `reads` is the body's
    /// read ball, which ranks the worlds that flip.
    Warm { state: &'s mut FixState, reads: &'s BodyReads, cone: &'s [u32], direct: &'s [u32] },
}

/// What a fixpoint body reads of the model around a world: the
/// relations of its diamonds, and its modal depth — the body's value
/// at a world depends on the model and the accumulator only within
/// that many steps along those relations (the world's *read ball*).
struct BodyReads {
    rels: Vec<u32>,
    depth: usize,
}

impl BodyReads {
    fn of(body: &FixBody) -> BodyReads {
        let mut depth = vec![0usize; body.ops.len()];
        let mut rels = Vec::new();
        for (i, &op) in body.ops.iter().enumerate() {
            let mut d = 0;
            op.for_each_operand(|a| d = d.max(depth[a as usize]));
            if let Op::Diamond { rel, .. } = op {
                d += 1;
                rels.push(rel);
            }
            depth[i] = d;
        }
        rels.sort_unstable();
        rels.dedup();
        BodyReads { rels, depth: depth[body.root as usize] }
    }

    /// Calls `f` on every world within the body's depth of a world of
    /// `from`: along successors when `forward` (the worlds it reads),
    /// along the current predecessors otherwise (the worlds that read
    /// it). A world may be visited more than once; a depth-1 walk
    /// allocates nothing.
    fn for_each_in_ball(&self, model: &Kripke, from: &[u32], forward: bool, mut f: impl FnMut(u32)) {
        let row = |r: u32, v: u32| -> &[u32] {
            if forward {
                model.successors_dense(r as usize, v as usize)
            } else {
                model.predecessors_csc(r as usize).row(v as usize)
            }
        };
        let mut level: Vec<u32>;
        let mut cur = from;
        for step in 1..=self.depth {
            let last = step == self.depth;
            let mut next = Vec::new();
            for &v in cur {
                f(v);
                for &r in &self.rels {
                    if last {
                        row(r, v).iter().for_each(|&w| f(w));
                    } else {
                        next.extend_from_slice(row(r, v));
                    }
                }
            }
            if last {
                return;
            }
            next.sort_unstable();
            next.dedup();
            level = next;
            cur = &level;
        }
        cur.iter().for_each(|&v| f(v));
    }
}

/// The worlds of a recorded fixpoint that a delta touching `direct`
/// invalidated, ascending — or `None` when rebuilding wholesale is
/// cheaper: once they reach a quarter of the universe (the dense
/// threshold of [`propagate_op`]), or once their support checks have
/// scanned what one dense body pass scans (`n` plus the stored entries
/// of every diamond's relation).
///
/// This is delete-and-rederive over the Kleene ranks ([`FixState`]).
/// The candidates are the ranked worlds whose read ball holds a touched
/// world: the post-delta predecessor ball around `direct` (an edited
/// edge has both endpoints touched, so a path through a removed edge
/// reaches a touched world over surviving edges first). They are
/// checked in ascending rank: a candidate `w` of rank `r` is evaluated
/// on the post-delta model with `Var` true exactly at the ranked worlds
/// of rank `< r` outside the cone (for ν, false exactly there). A µ
/// world that still holds, or a ν world that still fails, keeps its
/// rank. Only a world that lost every such derivation joins the cone,
/// and only then are the ranked worlds of higher rank that read it
/// queued as candidates.
///
/// Ranks pushed are strictly above the rank popped, so every member of
/// the cone below `r` is final when `w` is checked. A ranked world kept
/// outside the cone was either never queued, so its derivation touches
/// neither the delta nor the cone, or it was just re-derived from kept
/// worlds of lower rank. By induction on rank the old value with the
/// cone flipped out lies on the ranked side of the new fixpoint, Kleene
/// iteration from there reaches exactly that fixpoint, and the kept
/// ranks still satisfy the [`FixState`] invariant.
fn fixpoint_cone(
    model: &Kripke,
    body: &FixBody,
    reads: &BodyReads,
    state: &FixState,
    direct: &[u32],
) -> Option<Vec<u32>> {
    let n = model.len();
    let x = &state.vals[body.root as usize];
    let ranked = |v: usize| x.get(v) != body.greatest;
    let mut budget = n + body
        .ops
        .iter()
        .map(|&op| match op {
            Op::Diamond { rel, .. } => model.relation_rows(rel as usize).1.len(),
            _ => 0,
        })
        .sum::<usize>();
    let mut in_cone = Bitset::zeros(n);
    let mut queued = Bitset::zeros(n);
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    reads.for_each_in_ball(model, direct, false, |v| {
        if ranked(v as usize) && !queued.get(v as usize) {
            queued.insert(v as usize);
            heap.push(Reverse((state.rank[v as usize], v)));
        }
    });
    let mut cone: Vec<u32> = Vec::new();
    while let Some(Reverse((r, w))) = heap.pop() {
        budget = budget.checked_sub(1)?;
        let support =
            |u: usize| body.greatest != (ranked(u) && state.rank[u] < r && !in_cone.get(u));
        let holds = holds_at(model, &body.ops, body.root, w as usize, &support, &mut budget)?;
        if holds != body.greatest {
            continue;
        }
        in_cone.insert(w as usize);
        cone.push(w);
        if cone.len() * 4 >= n {
            return None;
        }
        reads.for_each_in_ball(model, &[w], false, |u| {
            if state.rank[u as usize] > r && ranked(u as usize) && !queued.get(u as usize) {
                queued.insert(u as usize);
                heap.push(Reverse((state.rank[u as usize], u)));
            }
        });
    }
    cone.sort_unstable();
    Some(cone)
}

/// Whether body op `op` holds at world `v` of the current model, with
/// `Var` read through `var`: the value [`eval_op_into`] would give at
/// `v`, computed from `v`'s read ball alone. It serves only
/// [`fixpoint_cone`]'s support checks, whose bodies are closed and
/// binder-free. Every successor entry scanned is charged to `budget`;
/// `None` once it runs out.
fn holds_at(
    model: &Kripke,
    ops: &[Op],
    op: u32,
    v: usize,
    var: &impl Fn(usize) -> bool,
    budget: &mut usize,
) -> Option<bool> {
    Some(match ops[op as usize] {
        Op::Top => true,
        Op::Bottom => false,
        Op::Prop(d) => model.degree(v) == d,
        Op::Not(a) => !holds_at(model, ops, a, v, var, budget)?,
        Op::And(a, b) => {
            holds_at(model, ops, a, v, var, budget)? && holds_at(model, ops, b, v, var, budget)?
        }
        Op::Or(a, b) => {
            holds_at(model, ops, a, v, var, budget)? || holds_at(model, ops, b, v, var, budget)?
        }
        Op::Diamond { rel, grade, inner } => {
            let mut found = 0;
            for &w in model.successors_dense(rel as usize, v) {
                *budget = budget.checked_sub(1)?;
                if holds_at(model, ops, inner, w as usize, var, budget)? {
                    found += 1;
                    if found == grade {
                        return Some(true);
                    }
                }
            }
            false
        }
        Op::Var => var(v),
        Op::Arg(_) | Op::Fixpoint(_) => {
            unreachable!("warm fixpoint bodies are closed and binder-free")
        }
    })
}

/// Per op of `body`, `Some` (counts still to fill) for the diamonds a
/// cold run counts — those whose inner op reads the accumulator, directly
/// or through a nested binder's external inputs — and `None` for every
/// other op, whose value cannot move within one cold run or is not a
/// diamond.
fn counted_diamonds(bodies: &[FixBody], body: &FixBody) -> Vec<Option<Vec<u32>>> {
    let mut reads_x = vec![false; body.ops.len()];
    for (i, &op) in body.ops.iter().enumerate() {
        reads_x[i] = match op {
            Op::Var => true,
            Op::Fixpoint(b) => bodies[b as usize].args.iter().any(|&a| reads_x[a as usize]),
            _ => {
                let mut reads = false;
                op.for_each_operand(|a| reads |= reads_x[a as usize]);
                reads
            }
        };
    }
    body.ops
        .iter()
        .map(|&op| match op {
            Op::Diamond { inner, .. } if reads_x[inner as usize] => Some(Vec::new()),
            _ => None,
        })
        .collect()
}

/// Iterate-until-stable evaluation of one [`Op::Fixpoint`]
/// instruction: Kleene iteration of `bodies[b]`, from ⊥ (µ) or ⊤ (ν)
/// or warm from a recorded state (see [`FixStart`]). A cold first
/// iteration is dense and every later one a frontier pass — see the
/// module docs. The accumulator is advanced by applying the
/// root op's recorded flips, so a frontier iteration costs
/// O(frontier); the empty flip set is the convergence test. `arg_of` resolves the
/// body's external inputs in the enclosing context (plan slots,
/// checker caches, or an enclosing body's value store — never invoked
/// for a top-level fixpoint, whose body is closed).
///
/// Bit-identical to the naive Kleene reference: every pass computes
/// exactly `body(Xᵢ)` (ops are deterministic functions of their
/// operands, and point repair re-evaluates the same function
/// per world), and both engines stop at the first `Xᵢ₊₁ = Xᵢ`. A warm
/// start reaches the same fixpoint from a point on its ranked side
/// ([`fixpoint_cone`]).
///
/// When a state is kept, a world that flips onto the ranked side at
/// iteration `i` gets rank `i` on a cold start; on a warm one, 1 + the
/// largest rank among the ranked worlds of its read ball. On a cold
/// start the two coincide; the local rule ties a warm world's rank to
/// its neighbourhood rather than to how many repairs came before.
///
/// # Errors
///
/// [`Interrupted`] when `ctl` trips — checked every iteration, so
/// cancel latency is bounded by one body pass.
#[allow(clippy::too_many_arguments)]
fn eval_fixpoint_into<'a>(
    model: &Kripke,
    mode: DiamondMode,
    bodies: &[FixBody],
    b: u32,
    arg_of: &dyn Fn(u32) -> &'a Bitset,
    out: &mut Bitset,
    stats: &mut ExecStats,
    ctl: &ExecControl,
    par: Parallelism,
    start: FixStart<'_>,
) -> Result<(), Interrupted> {
    let body = &bodies[b as usize];
    let n = model.len();
    let root = body.root as usize;
    let greatest = body.greatest;
    let arg_vals: Vec<&Bitset> = body.args.iter().map(|&a| arg_of(a)).collect();
    let fresh = || (0..body.ops.len()).map(|_| Bitset::default()).collect::<Vec<Bitset>>();
    let mut local: Vec<Bitset>;
    let (vals, mut rank, warm) = match start {
        FixStart::Cold => {
            local = fresh();
            (&mut local, None, None)
        }
        FixStart::Record(state) => {
            state.vals = fresh();
            state.rank = vec![u32::MAX; n];
            (&mut state.vals, Some(&mut state.rank), None)
        }
        FixStart::Warm { state, reads, cone, direct } => {
            (&mut state.vals, Some(&mut state.rank), Some((reads, cone, direct)))
        }
    };
    let mut changed: Vec<Vec<u32>> = vec![Vec::new(); body.ops.len()];
    // A cold run counts its accumulator-reading diamonds; a warm restart
    // keeps the candidate walk (see the module docs).
    let mut counts = match warm {
        None => counted_diamonds(bodies, body),
        Some(_) => vec![None; body.ops.len()],
    };
    let mut x = match warm {
        Some((_, cone, _)) => {
            let mut x = vals[root].clone();
            for &v in cone {
                x.set(v as usize, greatest);
            }
            if let Some(rank) = rank.as_deref_mut() {
                for &v in cone {
                    rank[v as usize] = u32::MAX;
                }
            }
            x
        }
        None if greatest => Bitset::ones(n),
        None => Bitset::zeros(n),
    };
    let mut x_changed: Vec<u32> = Vec::new();
    stats.fixpoints += 1;
    let mut iters = 0usize;
    loop {
        // Chaos site at the iteration boundary: all iteration state is
        // call-local, so a panic or interruption mid-fixpoint
        // publishes nothing and a retry is bit-identical.
        fail::fail_point!("plan-fixpoint-iter");
        ctl.check()?;
        iters += 1;
        // Positivity is checked at construction, so a monotone body
        // converges within n + 1 root evaluations; anything more means
        // the accumulator oscillated.
        assert!(iters <= n + 2, "fixpoint failed to converge: body not monotone?");
        stats.fixpoint_iters += 1;
        match (iters, warm) {
            (1, None) => {
                stats.fixpoint_dense_passes += 1;
                body_dense_pass(
                    model, mode, bodies, body, &x, &arg_vals, vals, &mut counts, stats, ctl, par,
                )?;
                x_changed.clear();
                x.for_each_difference(&vals[root], |v| x_changed.push(v as u32));
            }
            (1, Some((_, cone, direct))) => {
                body_frontier_pass(
                    model, mode, bodies, body, &x, cone, direct, vals, &mut changed, &mut counts,
                    stats, ctl, par,
                )?;
                // The accumulator left the old value at the cone and the
                // root at its flips; it moves next where the two now
                // disagree.
                x_changed.clear();
                x_changed.extend(cone.iter().chain(&changed[root]));
                x_changed.sort_unstable();
                x_changed.dedup();
                x_changed.retain(|&v| x.get(v as usize) != vals[root].get(v as usize));
            }
            _ => {
                body_frontier_pass(
                    model, mode, bodies, body, &x, &x_changed, &[], vals, &mut changed,
                    &mut counts, stats, ctl, par,
                )?;
                x_changed.clear();
                x_changed.extend_from_slice(&changed[root]);
            }
        }
        if x_changed.is_empty() {
            break;
        }
        let root_val = &vals[root];
        if let Some(rank) = rank.as_deref_mut() {
            for &v in &x_changed {
                rank[v as usize] = if root_val.get(v as usize) == greatest {
                    u32::MAX
                } else if let Some((reads, ..)) = warm {
                    let mut below = 0;
                    reads.for_each_in_ball(model, &[v], true, |w| {
                        if x.get(w as usize) != greatest {
                            below = below.max(rank[w as usize]);
                        }
                    });
                    below + 1
                } else {
                    iters as u32
                };
            }
        }
        // Advance the accumulator by its flips — O(frontier), not
        // O(n), which is what keeps total fixpoint cost proportional
        // to flip volume instead of n × iterations.
        for &v in &x_changed {
            x.set(v as usize, root_val.get(v as usize));
        }
    }
    out.copy_from(&x);
    Ok(())
}

/// The two diamond implementations (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiamondImpl {
    Forward,
    Csc,
}

/// Picks the implementation of one diamond instruction — the single
/// decision point shared by the sequential and chunked diamond
/// evaluators, so a parallel run can never pick a different strategy
/// (and therefore different stats) than a sequential one.
///
/// The `Auto` cost model compares, in "entry ops":
///
/// * forward: `n + min(targets.len(), g·n²/|‖φ‖|)` — the
///   `assign_from_fn` sweep visits every world even when its CSR row
///   is empty (comparing against `targets.len()` alone once made
///   sparse relations over large universes wrongly pick the forward
///   path), and a row's walk stops at its `g`-th satisfying successor,
///   which takes about `g·n/|‖φ‖|` reads when successors satisfy `φ`
///   at `‖φ‖`'s density (pricing every stored entry once made a dense
///   `‖φ‖` wrongly pick the gather);
/// * CSC gather: `|‖φ‖|` row lookups plus the *actual* predecessor
///   entries of the satisfying worlds (read off the CSC bounds — this
///   is why the store is built before costing), plus `n/64` for the
///   grade-1 zeroing or `n` for the graded counts array.
///
/// Ties break toward forward; explicit modes are taken verbatim.
fn diamond_impl(
    model: &Kripke,
    mode: DiamondMode,
    rel: usize,
    grade: usize,
    sat: &Bitset,
    targets_len: usize,
) -> DiamondImpl {
    match mode {
        DiamondMode::Forward => DiamondImpl::Forward,
        DiamondMode::Csc => DiamondImpl::Csc,
        DiamondMode::Auto => {
            let n = model.len();
            let sat_count = sat.count_ones();
            let early_exit = grade.saturating_mul(n).saturating_mul(n) / sat_count.max(1);
            let forward_cost = n + targets_len.min(early_exit);
            // CSC cost: the fixed part (row lookups + zeroing or the
            // counts array) plus the actual predecessor entries of the
            // satisfying worlds. The summation stops — and the store is
            // not even built — once the running cost reaches the
            // forward cost: past that point the winner cannot change,
            // and a near-full ‖φ‖ would otherwise pay O(|‖φ‖|) lookups
            // per execution just to re-learn that forward wins.
            let mut csc_cost = sat_count + if grade == 1 { n / 64 } else { n };
            if csc_cost < forward_cost {
                let csc = model.predecessors_csc(rel);
                for u in sat.iter_ones() {
                    csc_cost += csc.row_len(u);
                    if csc_cost >= forward_cost {
                        break;
                    }
                }
            }
            if forward_cost <= csc_cost {
                DiamondImpl::Forward
            } else {
                DiamondImpl::Csc
            }
        }
    }
}

/// The CSC gather: `⟨α⟩≥g φ` computed from the predecessor lists of
/// the worlds satisfying `φ`. Grade 1 unions rows bit by bit; grade
/// ≥ 2 scatter-counts into a per-world array, inserting a world the
/// moment its count reaches the grade (duplicate stored edges count
/// once each, matching the forward walk's semantics; see
/// [`csc_count_into`]).
fn csc_gather_into(
    csc: &CscAdjacency,
    grade: usize,
    sat: &Bitset,
    n: usize,
    out: &mut Bitset,
) {
    out.assign_zeros(n);
    if grade == 1 {
        for u in sat.iter_ones() {
            for &v in csc.row(u) {
                out.insert(v as usize);
            }
        }
    } else {
        csc_count_into(csc, grade, sat, n, &mut Vec::new(), out);
    }
}

/// The counting CSC gather, keeping its counts: `counts[v]` becomes the
/// number of `v`'s stored successor entries in `sat` (the whole CSC
/// entry scan, no early exit), and `out` the worlds whose count reaches
/// `grade`. A counted diamond's dense pass ([`body_dense_pass`]); its
/// later passes move the counts by [`count_flips`]. Counts compare with
/// the grade as `usize`, so a grade past `u32::MAX` is never reached
/// rather than truncated.
fn csc_count_into(
    csc: &CscAdjacency,
    grade: usize,
    sat: &Bitset,
    n: usize,
    counts: &mut Vec<u32>,
    out: &mut Bitset,
) {
    out.assign_zeros(n);
    counts.clear();
    counts.resize(n, 0);
    for u in sat.iter_ones() {
        for &v in csc.row(u) {
            let c = &mut counts[v as usize];
            *c += 1;
            if *c as usize == grade {
                out.insert(v as usize);
            }
        }
    }
}

/// How many flips ahead [`count_flips`] prefetches: CSC rows at twice
/// this distance, the count slots of a row at this distance (its row
/// entries were fetched a stride earlier).
const COUNT_PREFETCH: usize = 4;

/// One frontier pass of a counted diamond `⟨α⟩≥grade φ` (see the module
/// docs): for each world of `inner_flips`, where `‖φ‖` (now `inner`)
/// flipped, moves the count of every entry of its CSC row (`csc`) by
/// one, up where `φ` now holds and down where it fails. A world whose
/// count crossed the grade is re-checked against `cur`, which it flips
/// when `count ≥ grade` now disagrees with it. `flips` is overwritten
/// with those worlds, each once, in walk order. Returns how many
/// crossings were re-checked.
///
/// `counts` must hold the counts of the `inner` value before these
/// flips, as [`csc_count_into`] or an earlier call left them; `inner`
/// must differ from that value exactly at `inner_flips`, each listed
/// once.
fn count_flips(
    csc: &CscAdjacency,
    grade: usize,
    inner: &Bitset,
    inner_flips: &[u32],
    counts: &mut [u32],
    cur: &mut Bitset,
    flips: &mut Vec<u32>,
) -> usize {
    flips.clear();
    for (i, &w) in inner_flips.iter().enumerate() {
        if let Some(&far) = inner_flips.get(i + 2 * COUNT_PREFETCH) {
            csc.prefetch_row(far as usize);
        }
        if let Some(&near) = inner_flips.get(i + COUNT_PREFETCH) {
            for &v in csc.row(near as usize) {
                blocking::prefetch_read(counts, v as usize);
            }
        }
        let row = csc.row(w as usize);
        if inner.get(w as usize) {
            for &v in row {
                let c = &mut counts[v as usize];
                *c += 1;
                if *c as usize == grade {
                    flips.push(v);
                }
            }
        } else {
            for &v in row {
                let c = &mut counts[v as usize];
                if *c as usize == grade {
                    flips.push(v);
                }
                *c -= 1;
            }
        }
    }
    let crossings = flips.len();
    // A world may have crossed and crossed back; it flips only where its
    // final count disagrees with `cur`, and then only once, since `cur`
    // agrees with it after the first check.
    flips.retain(|&v| {
        let now = counts[v as usize] as usize >= grade;
        let moved = cur.get(v as usize) != now;
        if moved {
            cur.set(v as usize, now);
        }
        moved
    });
    crossings
}

/// The forward CSR diamond sweep of one world range, tiled over the
/// shared cache-block geometry ([`blocking`]): worlds are visited in
/// blocks of [`blocking::BLOCK_WORLDS`] so a block's row bounds and
/// output words stay L2-resident while its rows are walked, and the
/// row bounds (and the row targets half a distance behind) are
/// prefetched [`blocking::PREFETCH_AHEAD`] worlds ahead to hide their
/// miss latency behind the current rows' bit tests.
///
/// `words` must cover exactly `range` (whose start is a multiple of
/// 64, as every chunk splitter here guarantees). The sweep is the one
/// shared by the sequential evaluator (`range = 0..n`) and the
/// chunked one (a work-quantile world range), and is bit-identical to
/// a plain [`Bitset::assign_from_fn`] pass: blocks are visited in
/// ascending order, so the CSR cursor contract holds across block
/// seams, and prefetch is a pure hint.
fn forward_sweep_blocked(
    offsets: &[usize],
    targets: &[u32],
    grade: usize,
    sat_words: &[u64],
    range: Range<usize>,
    words: &mut [u64],
) {
    let mut start = offsets[range.start];
    let mut word_base = 0usize;
    for block in blocking::blocks(range.end - range.start) {
        let block = range.start + block.start..range.start + block.end;
        let block_words = (block.end - block.start).div_ceil(64);
        fill_words_from_fn(&mut words[word_base..word_base + block_words], block.clone(), |v| {
            blocking::prefetch_read(offsets, v + blocking::PREFETCH_AHEAD);
            if let Some(&row_start) = offsets.get(v + blocking::PREFETCH_AHEAD / 2) {
                blocking::prefetch_read(targets, row_start);
            }
            debug_assert_eq!(start, offsets[v], "blocked sweep must visit worlds in order");
            let end = offsets[v + 1];
            let row = &targets[start..end];
            start = end;
            let mut count = 0usize;
            // Early-exit once the grade is met (for grade 1 — the
            // common case — this stops at the first satisfying
            // successor).
            row.iter().any(|&w| {
                count += (sat_words[(w >> 6) as usize] >> (w & 63) & 1 == 1) as usize;
                count >= grade
            })
        });
        word_base += block_words;
    }
}

/// Evaluates one diamond instruction into `out`, choosing the forward
/// CSR walk or the CSC gather per the mode and the cost model (see
/// [`diamond_impl`]). Shared by [`Plan`] and [`ModelChecker`].
fn diamond_into(
    model: &Kripke,
    mode: DiamondMode,
    rel: usize,
    grade: usize,
    sat: &Bitset,
    out: &mut Bitset,
    stats: &mut ExecStats,
) {
    let n = model.len();
    let (offsets, targets) = model.relation_rows(rel);
    match diamond_impl(model, mode, rel, grade, sat, targets.len()) {
        DiamondImpl::Csc => {
            stats.csc_diamonds += 1;
            csc_gather_into(model.predecessors_csc(rel), grade, sat, n, out);
        }
        DiamondImpl::Forward => {
            stats.forward_diamonds += 1;
            // One blocked sweep over the whole universe; the closure
            // threads a CSR cursor through `fill_words_from_fn`,
            // leaning on its exactly-once-in-order invocation contract.
            out.assign_zeros(n);
            forward_sweep_blocked(offsets, targets, grade, sat.words(), 0..n, out.words_mut());
        }
    }
}

/// Fills `out` over universe `0..n` by running `fill(range, words)` on
/// the pool, one chunk per range; range starts must be multiples of 64
/// (as produced by `quantile_ranges` with `align = 64`) so the word
/// slices are disjoint.
fn par_fill(
    out: &mut Bitset,
    n: usize,
    ranges: &[Range<usize>],
    fill: &(dyn Fn(Range<usize>, &mut [u64]) + Sync),
) {
    out.assign_zeros(n);
    if let [only] = ranges {
        // One chunk (tiny or heavily skewed universe): fill inline.
        fill(only.clone(), out.words_mut());
        return;
    }
    let mut rest = out.words_mut();
    let mut chunk_words: Vec<Mutex<&mut [u64]>> = Vec::with_capacity(ranges.len());
    for r in ranges {
        let wc = r.end.div_ceil(64) - r.start / 64;
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(wc);
        chunk_words.push(Mutex::new(head));
        rest = tail;
    }
    WorkerPool::global().run(ranges.len(), &|i| {
        let mut words = chunk_words[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        fill(ranges[i].clone(), &mut words);
    });
}

/// Chunked (pool-parallel) counterpart of [`eval_op_into`] for the two
/// per-world-heavy instructions, `Prop` and `Diamond`; bit-identical
/// output by construction (disjoint word ranges / commutative unions).
fn eval_op_chunked<'a>(
    model: &Kripke,
    mode: DiamondMode,
    op: Op,
    operand: impl Fn(u32) -> &'a Bitset,
    out: &mut Bitset,
    stats: &mut ExecStats,
    threads: usize,
) {
    let n = model.len();
    match op {
        Op::Prop(d) => {
            let degrees = model.degrees();
            // Uniform work per world: quantiles degenerate to equal
            // 64-aligned splits, no work array needed.
            let ranges = quantile_ranges(n, threads, 64, |v| v);
            stats.chunked_ops += (ranges.len() > 1) as usize;
            par_fill(out, n, &ranges, &|range, words| {
                fill_words_from_fn(words, range, |v| degrees[v] == d);
            });
        }
        Op::Diamond { rel, grade, inner } => {
            let sat = operand(inner);
            let (offsets, targets) = model.relation_rows(rel as usize);
            match diamond_impl(model, mode, rel as usize, grade, sat, targets.len()) {
                DiamondImpl::Csc => {
                    stats.csc_diamonds += 1;
                    stats.chunked_ops += csc_diamond_chunked(
                        model,
                        rel as usize,
                        grade,
                        sat,
                        out,
                        threads,
                    ) as usize;
                }
                DiamondImpl::Forward => {
                    stats.forward_diamonds += 1;
                    let sat_words = sat.words();
                    // Per-world forward work = the CSR row plus the
                    // visit itself, so the cumulative work at world v
                    // is offsets[v] + v. Each chunk re-derives its CSR
                    // cursor from the chunk start and runs the same
                    // blocked sweep as the sequential path.
                    let ranges = quantile_ranges(n, threads, 64, |v| offsets[v] + v);
                    stats.chunked_ops += (ranges.len() > 1) as usize;
                    par_fill(out, n, &ranges, &|range, words| {
                        forward_sweep_blocked(offsets, targets, grade, sat_words, range, words);
                    });
                }
            }
        }
        _ => unreachable!("only Prop and Diamond instructions are chunked"),
    }
}

/// The CSC entry space of one gather, sharded at *entry* (not world)
/// granularity: the satisfying worlds in ascending order plus the
/// exclusive prefix sum of their CSC row lengths, so entry index `e`
/// names one predecessor entry of one satisfying world, and an
/// equal-entry split can cut *inside* a heavy-hitter row. This is
/// what keeps one hub world (a star centre, a G(n,p) high-degree
/// world) from serialising a whole chunk the way per-world popcount
/// quantiles would.
struct EntryShards {
    /// Satisfying worlds, ascending.
    ones: Vec<u32>,
    /// `prefix[i]` = entries of `ones[..i]`; length `ones.len() + 1`.
    prefix: Vec<usize>,
}

impl EntryShards {
    fn build(csc: &CscAdjacency, sat: &Bitset) -> EntryShards {
        let mut ones = Vec::new();
        let mut prefix = vec![0usize];
        let mut total = 0usize;
        for u in sat.iter_ones() {
            ones.push(u as u32);
            total += csc.row_len(u);
            prefix.push(total);
        }
        EntryShards { ones, prefix }
    }

    fn total(&self) -> usize {
        *self.prefix.last().expect("prefix always has a leading 0")
    }

    /// Equal-entry chunk ranges over `0..total()` — plain splits, no
    /// work array, because every entry costs the same (one row read).
    fn ranges(&self, chunks: usize) -> Vec<Range<usize>> {
        let total = self.total();
        (0..chunks).map(|i| total * i / chunks..total * (i + 1) / chunks).collect()
    }

    /// Calls `f` once per predecessor entry of entry range `er`, in
    /// ascending entry order, walking whole rows where possible and
    /// partial rows at the shard seams. Prefetches the next row's
    /// bounds/entries one row ahead.
    fn for_entries(&self, csc: &CscAdjacency, er: Range<usize>, mut f: impl FnMut(u32)) {
        if er.is_empty() {
            return;
        }
        // The world containing entry `er.start`: the last index whose
        // prefix is ≤ er.start (ties from empty rows resolve to the
        // non-empty row that actually owns the entry).
        let mut wi = self.prefix.partition_point(|&p| p <= er.start) - 1;
        let mut pos = er.start;
        while pos < er.end {
            let u = self.ones[wi] as usize;
            if let Some(&next) = self.ones.get(wi + 1) {
                csc.prefetch_row(next as usize);
            }
            let row = csc.row(u);
            // `pos` is always within world `wi`'s entry span here: the
            // loop advances `pos` exactly to a row end (or to `er.end`,
            // exiting), and empty rows fall through with `wi += 1`.
            let lo = pos - self.prefix[wi];
            let hi = (er.end - self.prefix[wi]).min(row.len());
            for &v in &row[lo..hi] {
                f(v);
            }
            pos = self.prefix[wi] + hi;
            wi += 1;
        }
    }
}

/// CSC diamond over the pool, sharded at entry quantiles
/// ([`EntryShards`]) so hub rows split across chunks. Grade 1 inserts
/// each chunk's entries into a private partial `Bitset`, OR-merged —
/// insertion is idempotent and OR commutative, so any shard geometry
/// is bit-identical to the inline gather. Grade ≥ 2 scatter-counts
/// each chunk's entries into a private count store — a dense `u32`
/// array when the gather touches at least `n / 8` entries (the shape
/// the inline path scatters into), a sparse map when it is sparser —
/// the per-chunk counts are merged once, sequentially, and a world is
/// inserted when its summed count reaches the grade: the same set the
/// inline insert-at-threshold scatter produces, because both count
/// every stored edge exactly once. Returns whether the work was split.
fn csc_diamond_chunked(
    model: &Kripke,
    rel: usize,
    grade: usize,
    sat: &Bitset,
    out: &mut Bitset,
    threads: usize,
) -> bool {
    let n = model.len();
    let csc = model.predecessors_csc(rel);
    let shards = EntryShards::build(csc, sat);
    let total = shards.total();
    if threads <= 1 || total < 2 {
        csc_gather_into(csc, grade, sat, n, out);
        return false;
    }
    let ranges = shards.ranges(threads.min(total));
    if grade == 1 {
        let partials: Vec<Mutex<Bitset>> =
            (0..ranges.len()).map(|_| Mutex::new(Bitset::zeros(n))).collect();
        WorkerPool::global().run(ranges.len(), &|i| {
            let mut acc = partials[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            shards.for_entries(csc, ranges[i].clone(), |v| {
                acc.insert(v as usize);
            });
        });
        out.assign_zeros(n);
        for partial in &partials {
            out.or_assign(&partial.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
        }
    } else if total >= n / 8 {
        // Dense gather: enough entries that a per-chunk `u32` count
        // array (the same shape the inline path scatters into) beats a
        // hash map's per-entry overhead by an order of magnitude, and
        // the O(n · chunks) element-wise merge is dwarfed by the
        // scatter itself.
        let partials: Vec<Mutex<Vec<u32>>> =
            (0..ranges.len()).map(|_| Mutex::new(vec![0u32; n])).collect();
        WorkerPool::global().run(ranges.len(), &|i| {
            let mut counts =
                partials[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            shards.for_entries(csc, ranges[i].clone(), |v| {
                counts[v as usize] += 1;
            });
        });
        let mut partials = partials.into_iter();
        let mut totals = partials
            .next()
            .expect("at least two ranges")
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for partial in partials {
            let counts = partial.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
        }
        out.assign_from_fn(n, |v| totals[v] as usize >= grade);
    } else {
        // Sparse gather: per-chunk sparse count maps, merged once —
        // cost ∝ distinct predecessors touched, not n — then one
        // thresholding pass over the merged totals.
        let partials: Vec<Mutex<FxHashMap<u32, u32>>> =
            (0..ranges.len()).map(|_| Mutex::new(FxHashMap::default())).collect();
        WorkerPool::global().run(ranges.len(), &|i| {
            let mut map = partials[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            shards.for_entries(csc, ranges[i].clone(), |v| {
                *map.entry(v).or_insert(0) += 1;
            });
        });
        let mut totals: FxHashMap<u32, u32> = FxHashMap::default();
        for partial in partials {
            let map = partial.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
            for (v, c) in map {
                *totals.entry(v).or_insert(0) += c;
            }
        }
        out.assign_zeros(n);
        for (v, c) in totals {
            if c as usize >= grade {
                out.insert(v as usize);
            }
        }
    }
    true
}

/// A formula lowered into a [`ModelChecker`]'s instruction table: the
/// id of its root instruction. A root stays valid for the checker that
/// resolved it and for every resume of that checker's detached cache,
/// deltas included; it means nothing to any other cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FormulaRoot(u32);

/// A batch of wire texts resolved by [`ModelChecker::resolve_texts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedBatch {
    /// One root per text, in input order.
    pub roots: Vec<FormulaRoot>,
    /// The batch's price: what [`ModelChecker::estimate_work`] returns
    /// for the parsed formulas.
    pub estimate: usize,
}

/// Why [`ModelChecker::resolve_texts`] refused a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextError {
    /// The first text of the batch that does not parse. Every text is
    /// parsed before any is lowered, so this wins over a lowering error
    /// anywhere in the batch.
    Parse {
        /// Position of the text in the batch.
        index: usize,
        /// What the parser reported.
        error: ParseError,
    },
    /// Every text parsed, but lowering one failed
    /// ([`LogicError::FamilyMismatch`]): the first such text in batch
    /// order.
    Logic(LogicError),
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextError::Parse { index, error } => write!(f, "text {index}: {error}"),
            TextError::Logic(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for TextError {}

/// The wire texts a checker has lowered, each mapped to its root: text
/// `i` of the arena lowers to `roots[i]`.
#[derive(Debug, Default)]
struct TextMemo {
    texts: InternArena<u8>,
    roots: Vec<u32>,
}

impl TextMemo {
    /// The root memoised for `text` (hashed to `hash`), if any.
    fn get(&self, hash: u64, text: &[u8]) -> Option<u32> {
        self.texts.find(hash, text).map(|id| self.roots[id as usize])
    }

    /// Memoises `text` (hashed to `hash`) as lowering to `root`; a text
    /// already memoised keeps its entry.
    fn insert(&mut self, hash: u64, text: &[u8], root: u32) {
        if self.texts.intern(hash, text).1 {
            self.roots.push(root);
        }
    }

    /// Resident size: the arena's, and 4 bytes per root. Lookups never
    /// change it.
    fn bytes(&self) -> usize {
        self.texts.bytes() + self.roots.len() * 4
    }
}

/// Cumulative statistics of a [`ModelChecker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckerStats {
    /// Pointer-distinct AST nodes lowered so far.
    pub ast_nodes: usize,
    /// Distinct instructions in the shared cons table.
    pub instructions: usize,
    /// Truth vectors computed against the main model (`≤ instructions`;
    /// strictly fewer than `ast_nodes` once dedup bites).
    pub computed: usize,
    /// Truth vectors computed on the cached quotient by
    /// [`ModelChecker::check_via_quotient`] (per-call plans, outside
    /// the main cons table).
    pub quotient_computed: usize,
    /// Lowered nodes resolved to an existing instruction.
    pub dedup_hits: usize,
    /// Diamonds evaluated by the forward CSR walk.
    pub forward_diamonds: usize,
    /// Always 0, as [`ExecStats::reverse_diamonds`].
    pub reverse_diamonds: usize,
    /// Diamonds evaluated by the CSC predecessor gather.
    pub csc_diamonds: usize,
    /// Kleene iterations executed across all fixpoint instructions
    /// (each fixpoint converges within `n + 1` root evaluations by
    /// monotonicity; the figure the iteration-aware work estimate
    /// prices).
    pub fixpoint_iters: usize,
}

/// What one [`ModelChecker::resume`] repair pass did — the
/// observability hook asserting that a localized delta stays localized
/// (see [`ModelChecker::last_repair`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Cached truth vectors patched world-by-world over their dirty
    /// frontier (warm fixpoints included).
    pub repaired_vectors: usize,
    /// Total world-bits recomputed across all point repairs (`≤
    /// repaired_vectors × n`; on a localized delta, `≪`). A warm
    /// fixpoint counts its invalidated cone plus the worlds its
    /// frontier passes re-evaluated.
    pub repaired_worlds: usize,
    /// Cached truth vectors recomputed wholesale: their dirty frontier
    /// grew past the dense fallback threshold (a quarter of the
    /// universe), or they are fixpoints that could not restart warm.
    pub rebuilt_vectors: usize,
    /// Size of the largest dirty frontier used by a point repair (for
    /// a warm fixpoint, its cone plus its frontier passes' worlds).
    pub max_frontier: usize,
    /// Fixpoint vectors among `repaired_vectors` restarted warm from
    /// their recorded state, with only the cone the delta invalidated
    /// flipped out, instead of iterated again from ⊥/⊤.
    pub warm_fixpoints: usize,
    /// Whether a cached quotient was repaired by resuming refinement
    /// from the prior partition.
    pub quotient_repaired: bool,
}

/// A [`ModelChecker`]'s state, detached from its model borrow so the
/// model can be mutated with [`Kripke::apply_delta`] and the caches
/// *repaired* rather than rebuilt — see [`ModelChecker::detach`] and
/// [`ModelChecker::resume`].
#[derive(Debug)]
pub struct CheckerCache {
    /// Lowering state with an empty pointer memo (see
    /// [`ModelChecker::detach`]).
    lw: Lowerer,
    /// Wire texts lowered so far, by root (see
    /// [`ModelChecker::resolve_texts`]).
    texts: TextMemo,
    results: Vec<Option<Rc<Bitset>>>,
    mode: DiamondMode,
    quotient: Option<Rc<(Kripke, Vec<usize>)>>,
    quotient_repaired: bool,
    computed: usize,
    quotient_computed: usize,
    exec: ExecStats,
    published_words: usize,
    fix_states: FxHashMap<u32, FixState>,
    /// [`Kripke::version`] at detach time; resume debug-asserts the
    /// caller passed a touched set whenever the version moved.
    model_version: u64,
    n: usize,
}

impl CheckerCache {
    /// Total `u64` words held by the cached truth vectors, by the
    /// fixpoint states delta repair keeps (body values and per-world
    /// ranks) and by the wire-text memo of
    /// [`ModelChecker::resolve_texts`] (every text's bytes, 16 bytes per
    /// text for its end offset, root and chain link, and 16 per distinct
    /// text hash; rounded up to whole words) — the detached cache's
    /// resident size, which a serving layer adds to the model's own
    /// footprint when pricing an entry against a memory budget.
    /// Computed from what is actually cached (repairs and budget-gated
    /// commits included), not from a running counter.
    pub fn cached_words(&self) -> usize {
        self.results.iter().flatten().map(|b| b.words().len()).sum::<usize>()
            + self.fix_states.values().map(FixState::words).sum::<usize>()
            + self.texts.bytes().div_ceil(8)
    }

    /// The [`Kripke::version`] this cache was detached at. A serving
    /// layer uses this to assert cache/model version agreement across
    /// the detach → delta → resume handshake.
    pub fn model_version(&self) -> u64 {
        self.model_version
    }
}

/// A per-model evaluation cache: lowering state, computed truth
/// vectors, and the bisimulation quotient, all keyed to one model and
/// shared across every formula checked against it.
///
/// Where [`Plan::compile_suite`] wants the whole suite up front, a
/// `ModelChecker` accepts formulas one at a time (the order compiler
/// suites arrive in) and amortises both lowering and evaluation:
/// a subformula structurally seen before — in *any* earlier formula —
/// costs a hash lookup, not a Bitset computation.
///
/// # Examples
///
/// ```
/// use portnum_graph::generators;
/// use portnum_logic::plan::ModelChecker;
/// use portnum_logic::{Formula, Kripke, ModalIndex};
///
/// let k = Kripke::k_mm(&generators::cycle(5));
/// let mut checker = ModelChecker::new(&k);
/// let dia = Formula::diamond(ModalIndex::Any, &Formula::prop(2));
/// let first = checker.check(&dia)?;
/// // A structurally equal formula is a pure cache hit.
/// let again = checker.check(&Formula::diamond(ModalIndex::Any, &Formula::prop(2)))?;
/// assert!(std::rc::Rc::ptr_eq(&first, &again));
/// # Ok::<(), portnum_logic::LogicError>(())
/// ```
pub struct ModelChecker<'m> {
    model: &'m Kripke,
    lw: Lowerer,
    /// Wire texts lowered so far, by root; survives [`Self::detach`].
    texts: TextMemo,
    /// Checked formulas, kept alive so the pointer memo in `lw` can
    /// never observe a recycled allocation.
    retained: Vec<Formula>,
    /// Computed truth vectors, indexed by instruction id.
    results: Vec<Option<Rc<Bitset>>>,
    mode: DiamondMode,
    quotient: Option<Rc<(Kripke, Vec<usize>)>>,
    /// Whether `quotient` came from a resumed refinement
    /// ([`ModelChecker::resume`]): stable — valid for
    /// [`Self::check_via_quotient`] — but possibly finer than coarsest,
    /// so [`Self::minimum_base`] must recompute before answering.
    quotient_repaired: bool,
    computed: usize,
    quotient_computed: usize,
    exec: ExecStats,
    /// Words committed into `results` so far — the accumulator the
    /// cache-words budget of [`ModelChecker::check_controlled`] prices
    /// publication against.
    published_words: usize,
    /// Converged state of the cached top-level fixpoints, by
    /// instruction id, recorded by [`Self::resume`]'s first repair of
    /// each (checks record none) so later repairs restart them warm.
    fix_states: FxHashMap<u32, FixState>,
    /// What the latest [`Self::resume`] repair pass did, if any.
    last_repair: Option<RepairStats>,
}

impl<'m> ModelChecker<'m> {
    /// A fresh checker for `model` using [`DiamondMode::Auto`].
    pub fn new(model: &'m Kripke) -> Self {
        Self::with_mode(model, DiamondMode::Auto)
    }

    /// A fresh checker with an explicit diamond strategy, so a test can
    /// pin every [`DiamondMode`] against the same cache and repair paths.
    pub fn with_mode(model: &'m Kripke, mode: DiamondMode) -> Self {
        ModelChecker {
            model,
            lw: Lowerer::default(),
            texts: TextMemo::default(),
            retained: Vec::new(),
            results: Vec::new(),
            mode,
            quotient: None,
            quotient_repaired: false,
            computed: 0,
            quotient_computed: 0,
            exec: ExecStats::default(),
            published_words: 0,
            fix_states: FxHashMap::default(),
            last_repair: None,
        }
    }

    /// The model this checker is bound to.
    pub fn model(&self) -> &'m Kripke {
        self.model
    }

    /// Evaluates `formula` at every world, reusing every structurally
    /// shared subresult computed by earlier calls.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::FamilyMismatch`] as
    /// [`evaluate_packed`](crate::evaluate_packed) does.
    pub fn check(&mut self, formula: &Formula) -> Result<Rc<Bitset>, LogicError> {
        self.check_controlled(formula, &ExecControl::unrestricted())
    }

    /// Control-aware [`check`](Self::check): polls `ctl` at every
    /// instruction boundary and commits the per-instruction truth
    /// vectors into the checker's cache **whole-or-nothing** — an
    /// interrupted (or panicking) check publishes *no* new cache
    /// entries, so an immediate retry computes bits identical to a
    /// fresh checker. The cache-words budget gates publication only:
    /// when committing this check's vectors would cross the ceiling,
    /// the answer is still returned but nothing new is cached (later
    /// structurally-shared checks recompute).
    ///
    /// # Errors
    ///
    /// [`LogicError::Interrupted`] when `ctl` trips, plus everything
    /// [`check`](Self::check) returns.
    pub fn check_controlled(
        &mut self,
        formula: &Formula,
        ctl: &ExecControl,
    ) -> Result<Rc<Bitset>, LogicError> {
        let root = self.lower_retaining(formula)?;
        self.results.resize(self.lw.ops.len(), None);
        let mut out = self.eval_needed(&[FormulaRoot(root)], ctl)?;
        Ok(out.pop().expect("one root in, one vector out"))
    }

    /// Batched [`check_controlled`](Self::check_controlled): lowers
    /// every formula of the batch into the shared instruction table
    /// first, then evaluates the *union* of still-missing instructions
    /// in one pass — a subformula shared by any two batch members (or
    /// by an earlier check) is computed once, and the whole-or-nothing
    /// commit covers the batch as a unit. This is the coalesced entry
    /// point the serving layer routes compatible same-model formula
    /// batches through; it is pinned bit-identical to checking the
    /// formulas one at a time.
    ///
    /// Truth vectors come out in input order.
    ///
    /// # Errors
    ///
    /// As [`check_controlled`](Self::check_controlled). An error lowers
    /// no partial answers: either every formula's vector is returned or
    /// none is (though formulas lowered before the failing one stay
    /// memoised, exactly as a failed single check would leave them).
    pub fn check_suite_controlled(
        &mut self,
        formulas: &[Formula],
        ctl: &ExecControl,
    ) -> Result<Vec<Rc<Bitset>>, LogicError> {
        let roots = self.lower_all(formulas)?;
        Ok(self.eval_needed(&roots, ctl)?)
    }

    /// [`check_suite_controlled`](Self::check_suite_controlled) for
    /// formulas already lowered into this checker, by
    /// [`resolve_texts`](Self::resolve_texts): no parse and no lowering.
    /// A batch whose roots are all cached costs one lookup per root and
    /// allocates only its answer list.
    ///
    /// # Errors
    ///
    /// [`LogicError::Interrupted`] when `ctl` trips; nothing is
    /// committed then, as in
    /// [`check_controlled`](Self::check_controlled).
    ///
    /// # Panics
    ///
    /// Panics if a root was not resolved by this checker or by an
    /// earlier resume of its cache.
    pub fn check_roots_controlled(
        &mut self,
        roots: &[FormulaRoot],
        ctl: &ExecControl,
    ) -> Result<Vec<Rc<Bitset>>, LogicError> {
        Ok(self.eval_needed(roots, ctl)?)
    }

    /// Unrestricted [`check_suite_controlled`](Self::check_suite_controlled).
    ///
    /// # Errors
    ///
    /// As [`check`](Self::check).
    pub fn check_suite(&mut self, formulas: &[Formula]) -> Result<Vec<Rc<Bitset>>, LogicError> {
        self.check_suite_controlled(formulas, &ExecControl::unrestricted())
    }

    /// Prices a batch without running it: lowers every formula (which
    /// only grows the shared instruction table, never evaluates) and
    /// sums the per-instruction work estimate
    /// ([`ExecBudget`](portnum_graph::resilience::ExecBudget)'s
    /// touched-words currency, the same figure
    /// [`check_controlled`](Self::check_controlled) meters against the
    /// budget) over the instructions a subsequent
    /// [`check_suite_controlled`](Self::check_suite_controlled) would
    /// actually evaluate. Cached subresults price at zero, so the
    /// estimate falls as the cache warms — admission control sees the
    /// marginal cost, not the cold cost.
    ///
    /// # Errors
    ///
    /// [`LogicError::FamilyMismatch`] as lowering does.
    pub fn estimate_work(&mut self, formulas: &[Formula]) -> Result<usize, LogicError> {
        let roots = self.lower_all(formulas)?;
        Ok(self.price(&roots))
    }

    /// Resolves a batch of formula wire texts (the [`Display`]
    /// rendering [`parse`] reads back) to roots of the instruction
    /// table and prices it, as [`estimate_work`](Self::estimate_work)
    /// would price the parsed formulas. A text this cache has lowered
    /// before costs one hash lookup: no parse, no lowering. Only a new
    /// text is parsed and lowered, and then memoised.
    ///
    /// The memo maps each text to its root for as long as the
    /// instruction table lives: it survives [`detach`](Self::detach),
    /// [`resume`](Self::resume) and delta repair, and is counted in
    /// [`CheckerCache::cached_words`]. Lowering reads only the model's
    /// variant and which relations it stores, and a delta changes
    /// neither, so a memoised root never goes stale. Texts are compared
    /// byte for byte: two renderings of one formula are two entries
    /// sharing one root.
    ///
    /// Every new text is parsed before any is lowered, so a text that
    /// does not parse wins over a lowering error anywhere in the batch,
    /// as when the batch is parsed up front. Texts lowered before a
    /// failing one stay memoised.
    ///
    /// # Errors
    ///
    /// [`TextError::Parse`] for the first text that does not parse,
    /// else [`TextError::Logic`] for the first that does not lower
    /// ([`LogicError::FamilyMismatch`]).
    ///
    /// [`Display`]: std::fmt::Display
    pub fn resolve_texts<'t>(
        &mut self,
        texts: impl IntoIterator<Item = &'t str>,
    ) -> Result<ResolvedBatch, TextError> {
        let mut roots = Vec::new();
        let mut misses = Vec::new();
        for (index, text) in texts.into_iter().enumerate() {
            let hash = hash_bytes(text.as_bytes());
            match self.texts.get(hash, text.as_bytes()) {
                Some(root) => roots.push(FormulaRoot(root)),
                None => {
                    let formula = parse(text).map_err(|error| TextError::Parse { index, error })?;
                    roots.push(FormulaRoot(u32::MAX));
                    misses.push((index, hash, text, formula));
                }
            }
        }
        for (index, hash, text, formula) in misses {
            let root = self.lower_retaining(&formula).map_err(TextError::Logic)?;
            self.texts.insert(hash, text.as_bytes(), root);
            roots[index] = FormulaRoot(root);
        }
        self.results.resize(self.lw.ops.len(), None);
        let estimate = self.price(&roots);
        Ok(ResolvedBatch { roots, estimate })
    }

    /// Lowers every formula, in order, and sizes the result table to
    /// the grown instruction table.
    fn lower_all(&mut self, formulas: &[Formula]) -> Result<Vec<FormulaRoot>, LogicError> {
        let mut roots = Vec::with_capacity(formulas.len());
        for formula in formulas {
            roots.push(FormulaRoot(self.lower_retaining(formula)?));
        }
        self.results.resize(self.lw.ops.len(), None);
        Ok(roots)
    }

    /// The pricing core behind [`estimate_work`](Self::estimate_work)
    /// and [`resolve_texts`](Self::resolve_texts): the summed work of
    /// every uncached instruction the roots reach. Cached roots price at
    /// zero without a table-sized visited set.
    fn price(&self, roots: &[FormulaRoot]) -> usize {
        let mut stack: Vec<u32> =
            roots.iter().map(|r| r.0).filter(|&id| self.results[id as usize].is_none()).collect();
        if stack.is_empty() {
            return 0;
        }
        let mut visited = vec![false; self.lw.ops.len()];
        let mut work = 0usize;
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut visited[id as usize], true)
                || self.results[id as usize].is_some()
            {
                continue;
            }
            work += op_work_for(self.model, &self.lw.bodies, self.lw.ops[id as usize]);
            self.lw.ops[id as usize].for_each_operand(|a| stack.push(a));
        }
        work
    }

    /// Lowers `formula`, pinning it in `retained` iff lowering recorded
    /// new pointer-memo nodes. The pointer memo stays sound only while
    /// its keys stay alive; a pure memo hit pins nothing new, so
    /// repeated checks stay bounded. Checked even on error: a failed
    /// lowering memoises the subformulas it reached before failing.
    fn lower_retaining(&mut self, formula: &Formula) -> Result<u32, LogicError> {
        let memo_before = self.lw.ptr_memo.len();
        let lowered = self.lw.lower(self.model, formula);
        if self.lw.ptr_memo.len() > memo_before {
            self.retained.push(formula.clone());
        }
        lowered
    }

    /// Computes the still-missing results the `roots` depend on,
    /// ascending by instruction id (operands precede consumers), and
    /// returns one truth vector per root, in input order.
    ///
    /// Newly computed vectors are *staged* and committed into
    /// `self.results` only after every needed instruction completed:
    /// an interruption (or an injected panic at the `checker-instr`
    /// failpoint) between instructions unwinds with the staging buffer
    /// and leaves the cache exactly as the previous check left it —
    /// never a partially-published check. With several roots (a
    /// coalesced suite) the batch commits as one unit.
    ///
    /// Roots that are all cached skip the walk, and with it the
    /// table-sized visited set.
    fn eval_needed(
        &mut self,
        roots: &[FormulaRoot],
        ctl: &ExecControl,
    ) -> Result<Vec<Rc<Bitset>>, Interrupted> {
        let mut needed: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> =
            roots.iter().map(|r| r.0).filter(|&id| self.results[id as usize].is_none()).collect();
        if !stack.is_empty() {
            let mut visited = vec![false; self.lw.ops.len()];
            while let Some(id) = stack.pop() {
                if std::mem::replace(&mut visited[id as usize], true)
                    || self.results[id as usize].is_some()
                {
                    continue;
                }
                needed.push(id);
                self.lw.ops[id as usize].for_each_operand(|a| stack.push(a));
            }
        }
        needed.sort_unstable();
        let mut staged: Vec<(u32, Rc<Bitset>)> = Vec::with_capacity(needed.len());
        let mut exec = ExecStats::default();
        let mut touched = 0usize;
        for id in needed {
            // Chaos site at the checker's instruction boundary; see the
            // staging contract above.
            fail::fail_point!("checker-instr");
            touched += op_work_for(self.model, &self.lw.bodies, self.lw.ops[id as usize]);
            ctl.check_work(touched)?;
            let mut out = Bitset::default();
            let results = &self.results;
            // Operands resolve through the committed cache first, then
            // the staging buffer (ascending id order guarantees a
            // staged operand was pushed before its consumer).
            let operand = |a: u32| -> &Bitset {
                results[a as usize].as_deref().unwrap_or_else(|| {
                    let at = staged
                        .binary_search_by_key(&a, |&(id, _)| id)
                        .expect("operands evaluated before consumers");
                    &staged[at].1
                })
            };
            // The checker evaluates sequentially. Top-level fixpoint
            // bodies are closed (a free variable is a lowering error), so
            // a fixpoint never calls the operand resolver.
            eval_instr_into(
                self.model,
                self.mode,
                &self.lw.bodies,
                self.lw.ops[id as usize],
                &operand,
                &mut out,
                &mut exec,
                ctl,
                Parallelism::Off,
            )?;
            staged.push((id, Rc::new(out)));
        }
        let root_vecs = roots
            .iter()
            .map(|&FormulaRoot(root)| match staged.binary_search_by_key(&root, |&(id, _)| id) {
                Ok(at) => Rc::clone(&staged[at].1),
                Err(_) => Rc::clone(
                    self.results[root as usize].as_ref().expect("root cached by an earlier check"),
                ),
            })
            .collect();
        self.exec.absorb(exec);
        // Commit point: everything below is infallible. The cache-words
        // budget gates publication as a whole — answer-but-don't-cache
        // beats failing the query.
        let staged_words: usize = staged.iter().map(|(_, b)| b.words().len()).sum();
        if !ctl.budget.cache_over(self.published_words, staged_words) {
            self.published_words += staged_words;
            for (id, vec) in staged {
                self.computed += 1;
                self.results[id as usize] = Some(vec);
            }
        }
        Ok(root_vecs)
    }

    /// Detaches the checker's caches from its model borrow so the
    /// model can be mutated ([`Kripke::apply_delta`]) and the checker
    /// brought back with [`Self::resume`] — the live-update handshake.
    ///
    /// The cache keeps the instruction table, the computed truth
    /// vectors, the quotient and the wire-text memo of
    /// [`Self::resolve_texts`]. It drops the pointer memo and the
    /// checked formulas it kept alive, so its size is bounded by the
    /// *structurally distinct* subformulas and the distinct texts ever
    /// checked, not by the number of checks: a caller that builds fresh
    /// `Formula` allocations for every request resumes, lowers and
    /// detaches without growing. After a resume a re-checked `Formula`
    /// costs one structural hash-cons lookup per node (within one
    /// resumed checker the pointer memo works as before), and a
    /// re-resolved text costs one hash lookup in all.
    ///
    /// ```
    /// use portnum_graph::generators;
    /// use portnum_logic::plan::ModelChecker;
    /// use portnum_logic::{Formula, Kripke, ModalIndex, ModelDelta};
    ///
    /// let mut k = Kripke::k_mm(&generators::path(6));
    /// let phi = Formula::diamond(ModalIndex::Any, &Formula::prop(1));
    /// let mut checker = ModelChecker::new(&k);
    /// let before = checker.check(&phi)?.to_bools();
    ///
    /// let cache = checker.detach();
    /// let mut delta = ModelDelta::new();
    /// delta.remove_edge(ModalIndex::Any, 0, 1).remove_edge(ModalIndex::Any, 1, 0);
    /// let touched = k.apply_delta(&delta)?;
    /// let mut checker = ModelChecker::resume(&k, cache, &touched);
    ///
    /// // Repaired answers are bit-identical to a fresh checker's.
    /// assert_eq!(
    ///     checker.check(&phi)?.to_bools(),
    ///     ModelChecker::new(&k).check(&phi)?.to_bools(),
    /// );
    /// assert_ne!(checker.check(&phi)?.to_bools(), before);
    /// # Ok::<(), portnum_logic::LogicError>(())
    /// ```
    pub fn detach(mut self) -> CheckerCache {
        // The memo is keyed by the addresses of this checker's formulas,
        // which die with `retained` here; keeping it would pin every
        // node of every formula ever checked.
        self.lw.ptr_memo = FxHashMap::default();
        CheckerCache {
            lw: self.lw,
            texts: self.texts,
            results: self.results,
            mode: self.mode,
            quotient: self.quotient,
            quotient_repaired: self.quotient_repaired,
            computed: self.computed,
            quotient_computed: self.quotient_computed,
            exec: self.exec,
            published_words: self.published_words,
            fix_states: self.fix_states,
            model_version: self.model.version(),
            n: self.model.len(),
        }
    }

    /// Rebinds a detached cache to `model` — the same model the cache
    /// was detached from, after any number of [`Kripke::apply_delta`]
    /// calls — and *repairs* the cached truth vectors instead of
    /// dropping them. `touched` is the union of the touched-world lists
    /// returned by the deltas applied since [`Self::detach`] (order and
    /// duplicates don't matter).
    ///
    /// Repair recomputes only what a delta can have changed: cached
    /// vectors are brought up to date in instruction order by the
    /// change-propagation kernel (see the module docs), seeded by the
    /// touched set where an op reads the model directly. A vector of
    /// modal height `h` is therefore patched at most over `touched`
    /// plus its `h`-fold predecessor ball under the relations it
    /// actually reads, and usually much less: only worlds whose operand
    /// values really flipped propagate. A frontier that grows past a
    /// quarter of the universe falls back to recomputing that vector
    /// wholesale. Fixpoints read the model at unbounded depth, so they
    /// are restarted instead: warm from the state their previous repair
    /// recorded, with only the cone of worlds that lost every
    /// derivation below their rank flipped out (see the module docs). A
    /// fixpoint is still recomputed wholesale on its first repair after
    /// a check (which records the state), when its cone reaches a
    /// quarter of the universe or the search for it scans what a dense
    /// body pass scans, and when its body nests another binder. Every
    /// path is pinned bit-identical to a fresh checker by the
    /// differential delta suites, and [`Self::last_repair`] reports
    /// which path each vector took.
    ///
    /// A cached quotient is repaired too, by resuming partition
    /// refinement from the prior partition seeded with the dirty
    /// frontier ([`crate::bisim::refine_fixpoint_from`]) — stable, so
    /// [`Self::check_via_quotient`] stays exact, but possibly finer
    /// than coarsest, so the next [`Self::minimum_base`] recomputes.
    ///
    /// # Panics
    ///
    /// Panics if `model` has a different world count than the cache was
    /// detached with (deltas never resize the universe — crashed worlds
    /// stay as isolated vertices).
    pub fn resume(model: &'m Kripke, cache: CheckerCache, touched: &[u32]) -> ModelChecker<'m> {
        assert_eq!(
            model.len(),
            cache.n,
            "resume requires the model the cache was detached from"
        );
        debug_assert!(
            model.version() == cache.model_version || !touched.is_empty(),
            "model version moved but no touched worlds were passed"
        );
        let mut checker = ModelChecker {
            model,
            lw: cache.lw,
            texts: cache.texts,
            retained: Vec::new(),
            results: cache.results,
            mode: cache.mode,
            quotient: cache.quotient,
            quotient_repaired: cache.quotient_repaired,
            computed: cache.computed,
            quotient_computed: cache.quotient_computed,
            exec: cache.exec,
            published_words: cache.published_words,
            fix_states: cache.fix_states,
            last_repair: None,
        };
        if touched.is_empty() && model.version() == cache.model_version {
            return checker;
        }
        checker.repair(touched);
        checker
    }

    /// The repair pass of [`Self::resume`]; see its contract there.
    fn repair(&mut self, touched: &[u32]) {
        let model = self.model;
        let mut stats = RepairStats::default();

        let mut d0: Vec<u32> = touched.to_vec();
        d0.sort_unstable();
        d0.dedup();
        assert!(d0.last().is_none_or(|&w| (w as usize) < model.len()), "touched world out of range");

        // Ascending id order puts operands before consumers, and a
        // cached consumer's operands are always cached (commits are
        // whole-or-nothing). Every edited edge has both endpoints in
        // `d0`, so seeding with the post-delta predecessors suffices for
        // removed edges too.
        let mut changed: Vec<Vec<u32>> = vec![Vec::new(); self.results.len()];
        let mut exec = ExecStats::default();
        for id in 0..self.results.len() {
            let Some(mut existing) = self.results[id].take() else { continue };
            let results = &self.results;
            let operand = |a: u32| -> &Bitset {
                results[a as usize].as_deref().expect("cached consumers have cached operands")
            };
            let (prev_changed, rest_changed) = changed.split_at_mut(id);
            let flips = &mut rest_changed[0];
            let op = self.lw.ops[id];
            let outcome = if let Op::Fixpoint(b) = op {
                // A fixpoint reads the model at unbounded modal depth,
                // so no frontier bound holds for its vector. It restarts
                // warm from its recorded state with only the cone the
                // delta invalidated flipped out; the first repair after a
                // check, a cone past the dense threshold or the search
                // budget, and a body with nested binders (whose read
                // ball is unbounded) rebuild it
                // wholesale instead, recording fresh state where a later
                // repair can use it. Either way the word diff drives its
                // consumers.
                let body = &self.lw.bodies[b as usize];
                let keeps_state = !body.ops.iter().any(|o| matches!(o, Op::Fixpoint(_)));
                let reads = BodyReads::of(body);
                let mut state = self.fix_states.remove(&(id as u32)).unwrap_or_default();
                debug_assert!(
                    state.rank.is_empty() || state.vals[body.root as usize] == *existing,
                    "a recorded fixpoint state must match its cached vector"
                );
                let cone = if state.rank.is_empty() {
                    None
                } else {
                    fixpoint_cone(model, body, &reads, &state, &d0)
                };
                let frontier_before = exec.fixpoint_frontier_worlds;
                let start = match &cone {
                    Some(cone) => {
                        FixStart::Warm { state: &mut state, reads: &reads, cone, direct: &d0 }
                    }
                    None if keeps_state => FixStart::Record(&mut state),
                    None => FixStart::Cold,
                };
                let mut out = Bitset::default();
                eval_fixpoint_into(
                    model,
                    self.mode,
                    &self.lw.bodies,
                    b,
                    &operand,
                    &mut out,
                    &mut exec,
                    &ExecControl::unrestricted(),
                    Parallelism::Off,
                    start,
                )
                .expect("unrestricted control never interrupts");
                if keeps_state {
                    self.fix_states.insert(id as u32, state);
                }
                existing.for_each_difference(&out, |v| flips.push(v as u32));
                existing = Rc::new(out);
                match cone {
                    Some(cone) => {
                        stats.warm_fixpoints += 1;
                        Propagation::Points(
                            cone.len() + exec.fixpoint_frontier_worlds - frontier_before,
                        )
                    }
                    None => Propagation::Dense,
                }
            } else {
                propagate_op(
                    model,
                    self.mode,
                    op,
                    operand,
                    |a| prev_changed[a as usize].as_slice(),
                    &d0,
                    || Rc::make_mut(&mut existing),
                    flips,
                    &mut exec,
                )
            };
            match outcome {
                Propagation::Clean => {}
                Propagation::Dense => {
                    stats.rebuilt_vectors += 1;
                    self.computed += 1;
                }
                Propagation::Points(c) => {
                    stats.repaired_vectors += 1;
                    stats.repaired_worlds += c;
                    stats.max_frontier = stats.max_frontier.max(c);
                }
            }
            self.results[id] = Some(existing);
        }
        self.exec.absorb(exec);

        // Quotient repair: resume refinement from the prior (stable,
        // pre-delta) partition instead of refining from scratch.
        if let Some(q) = self.quotient.take() {
            let classes = crate::bisim::refine_fixpoint_from(
                model,
                crate::bisim::BisimStyle::Plain,
                &q.1,
                &d0,
            );
            self.quotient = Some(Rc::new(crate::quotient::quotient(model, &classes)));
            self.quotient_repaired = true;
            stats.quotient_repaired = true;
        }
        self.last_repair = Some(stats);
    }

    /// What the latest [`Self::resume`] repair pass did, or `None` if
    /// this checker has not repaired anything (fresh checker or no-op
    /// resume).
    pub fn last_repair(&self) -> Option<&RepairStats> {
        self.last_repair.as_ref()
    }

    /// The model's minimum base (quotient by plain bisimilarity),
    /// computed on first use and cached for the checker's lifetime —
    /// the "quotient keyed by model identity" that amortises
    /// symmetric-model suites.
    ///
    /// A quotient repaired across a delta ([`Self::resume`]) is stable
    /// but possibly finer than coarsest, so this recomputes the
    /// coarsest partition from scratch before answering; the repaired
    /// quotient keeps serving [`Self::check_via_quotient`] until then.
    pub fn minimum_base(&mut self) -> Rc<(Kripke, Vec<usize>)> {
        if self.quotient_repaired {
            self.quotient = None;
            self.quotient_repaired = false;
        }
        if let Some(q) = &self.quotient {
            return Rc::clone(q);
        }
        let q = Rc::new(crate::quotient::minimum_base(self.model));
        self.quotient = Some(Rc::clone(&q));
        q
    }

    /// The cached quotient under *some* stable plain bisimulation —
    /// the coarsest one unless a delta repair left a finer (still
    /// stable, still truth-preserving) partition in the cache. This is
    /// all [`Self::check_via_quotient`] needs; callers that require
    /// the minimum base itself use [`Self::minimum_base`].
    fn stable_base(&mut self) -> Rc<(Kripke, Vec<usize>)> {
        if let Some(q) = &self.quotient {
            return Rc::clone(q);
        }
        self.minimum_base()
    }

    /// Evaluates an **ungraded** formula on the cached quotient and
    /// expands the result back to the full model — a large win when the
    /// model is symmetric (quotient ≪ model). Only the quotient itself
    /// is amortised; the quotient-side plan is compiled per call (it
    /// runs under the checker's pinned [`DiamondMode`] and is counted
    /// in [`CheckerStats`]).
    ///
    /// # Errors
    ///
    /// As [`ModelChecker::check`].
    ///
    /// # Panics
    ///
    /// Panics if the formula is graded: set-based quotients preserve
    /// only ungraded truth (see [`crate::quotient`]).
    pub fn check_via_quotient(&mut self, formula: &Formula) -> Result<Bitset, LogicError> {
        assert!(
            formula.is_ungraded(),
            "quotients preserve only ungraded truth; use check() for graded formulas"
        );
        let q = self.stable_base();
        let (quotient, map) = &*q;
        let plan = Plan::compile(quotient, formula)?;
        let (mut truths, exec) = plan.execute_with(quotient, self.mode);
        self.quotient_computed += exec.executed;
        self.exec.forward_diamonds += exec.forward_diamonds;
        self.exec.csc_diamonds += exec.csc_diamonds;
        let truth = truths.pop().expect("single root");
        Ok(Bitset::from_fn(map.len(), |v| truth.get(map[v])))
    }

    /// Cumulative lowering/evaluation statistics.
    pub fn stats(&self) -> CheckerStats {
        CheckerStats {
            ast_nodes: self.lw.ast_nodes,
            instructions: self.lw.ops.len(),
            computed: self.computed,
            quotient_computed: self.quotient_computed,
            dedup_hits: self.lw.dedup_hits,
            forward_diamonds: self.exec.forward_diamonds,
            reverse_diamonds: 0,
            csc_diamonds: self.exec.csc_diamonds,
            fixpoint_iters: self.exec.fixpoint_iters,
        }
    }
}

impl std::fmt::Debug for ModelChecker<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelChecker")
            .field("worlds", &self.model.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_packed_recursive;
    use crate::formula::ModalIndex;
    use portnum_graph::{generators, PortNumbering};

    /// Runs `plan` with thread counts pinned by `par` and no control.
    fn execute_pinned(
        plan: &Plan,
        k: &Kripke,
        mode: DiamondMode,
        par: Parallelism,
    ) -> (Vec<Bitset>, ExecStats) {
        plan.execute_controlled(k, mode, par, &ExecControl::unrestricted())
            .expect("unrestricted execution cannot be interrupted")
    }

    /// Structurally equal diamond towers sharing no `Arc`s.
    fn unshared_tower(depth: usize) -> Formula {
        let mut f = Formula::prop(2);
        for _ in 0..depth {
            f = Formula::diamond(ModalIndex::Any, &f).or(&Formula::prop(1));
        }
        f
    }

    #[test]
    fn plan_matches_recursive_on_all_variants() {
        let g = generators::figure1_graph();
        let p = PortNumbering::consistent(&g);
        let models = [
            Kripke::k_pp(&g, &p),
            Kripke::k_mp(&g, &p),
            Kripke::k_pm(&g, &p),
            Kripke::k_mm(&g),
        ];
        for k in &models {
            let index = k.indices().next().unwrap();
            let f = Formula::diamond(index, &Formula::prop(2))
                .or(&Formula::box_(index, &Formula::prop(3)))
                .and(&Formula::diamond_geq(index, 2, &Formula::prop(2)).not());
            let plan = Plan::compile(k, &f).unwrap();
            let got = plan.execute(k).pop().unwrap();
            assert_eq!(got, evaluate_packed_recursive(k, &f).unwrap(), "{:?}", k.variant());
        }
    }

    #[test]
    fn structural_dedup_beats_pointer_identity() {
        // Two separately built copies: pointer memoisation sees 2×
        // the nodes, the plan lowers them once.
        let a = unshared_tower(6);
        let b = unshared_tower(6);
        let k = Kripke::k_mm(&generators::grid(3, 3));
        let plan = Plan::compile_suite(&k, [&a, &b]).unwrap();
        let stats = plan.stats();
        assert!(
            stats.instructions < stats.ast_nodes,
            "dedup must shrink the instruction list: {stats:?}"
        );
        assert!(stats.dedup_hits > 0);
        let (results, exec) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(exec.executed, stats.instructions);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], evaluate_packed_recursive(&k, &a).unwrap());
    }

    #[test]
    fn check_suite_matches_individual_checks() {
        let k = Kripke::k_mm(&generators::grid(4, 4));
        let suite: Vec<Formula> = (1..=4)
            .map(|p| {
                Formula::diamond(ModalIndex::Any, &Formula::prop(p))
                    .or(&Formula::diamond_geq(ModalIndex::Any, 2, &Formula::prop(1)))
            })
            .collect();
        let mut batched = ModelChecker::new(&k);
        let got = batched.check_suite(&suite).unwrap();
        let mut oneshot = ModelChecker::new(&k);
        for (f, g) in suite.iter().zip(&got) {
            assert_eq!(**g, *oneshot.check(f).unwrap());
        }
        // The batch committed into the shared cache: a repeat is a pure
        // cache hit, vector for vector.
        let again = batched.check_suite(&suite).unwrap();
        for (a, b) in got.iter().zip(&again) {
            assert!(Rc::ptr_eq(a, b));
        }
    }

    #[test]
    fn estimate_work_prices_marginal_cost() {
        let k = Kripke::k_mm(&generators::grid(4, 4));
        let suite: Vec<Formula> = (1..=3)
            .map(|p| Formula::diamond(ModalIndex::Any, &Formula::prop(p)))
            .collect();
        let mut checker = ModelChecker::new(&k);
        let cold = checker.estimate_work(&suite).unwrap();
        assert!(cold > 0, "cold batches carry a nonzero price");
        // The compiled-plan estimate prices the same instructions.
        let plan = Plan::compile_suite(&k, suite.iter()).unwrap();
        assert_eq!(plan.estimated_work(&k), cold);
        checker.check_suite(&suite).unwrap();
        assert_eq!(
            checker.estimate_work(&suite).unwrap(),
            0,
            "a fully cached batch is free"
        );
    }

    #[test]
    fn slots_are_bounded_by_dag_width() {
        // A pure diamond chain has width 1; with the Or-leaf it's 2–3.
        let k = Kripke::k_mm(&generators::cycle(8));
        let mut f = Formula::prop(2);
        for _ in 0..40 {
            f = Formula::diamond(ModalIndex::Any, &f);
        }
        let plan = Plan::compile(&k, &f).unwrap();
        assert!(plan.stats().slots <= 2, "{:?}", plan.stats());
        assert_eq!(plan.len(), 41);
        assert_eq!(
            plan.execute(&k).pop().unwrap(),
            evaluate_packed_recursive(&k, &f).unwrap()
        );
    }

    #[test]
    fn forward_and_reverse_diamonds_agree() {
        let g = generators::grid(4, 4);
        let p = PortNumbering::consistent(&g);
        for k in [Kripke::k_mm(&g), Kripke::k_pm(&g, &p)] {
            let index = k.indices().next().unwrap();
            let f = Formula::diamond(index, &Formula::prop(2))
                .or(&Formula::diamond(index, &Formula::prop(3).not()));
            let plan = Plan::compile(&k, &f).unwrap();
            let (fwd, sf) = plan.execute_with(&k, DiamondMode::Forward);
            let (csc, sc) = plan.execute_with(&k, DiamondMode::Csc);
            assert_eq!(fwd, csc);
            assert_eq!(sf.csc_diamonds, 0);
            assert!(sf.forward_diamonds > 0);
            assert_eq!(sc.forward_diamonds, 0);
            assert!(sc.csc_diamonds > 0);
        }
    }

    #[test]
    fn graded_diamonds_count_via_csc_under_reverse() {
        // A graded diamond pinned to the reverse path runs the CSC
        // counting gather; the forward walk counts too, and both agree
        // with the recursive engine.
        let k = Kripke::k_mm(&generators::star(4));
        let f = Formula::diamond_geq(ModalIndex::Any, 2, &Formula::prop(1));
        let plan = Plan::compile(&k, &f).unwrap();
        let (mut out, stats) = plan.execute_with(&k, DiamondMode::Csc);
        assert_eq!(stats.csc_diamonds, 1, "graded reverse counts via CSC: {stats:?}");
        assert_eq!(stats.forward_diamonds, 0);
        assert_eq!(out.pop().unwrap(), evaluate_packed_recursive(&k, &f).unwrap());
        let (mut out, stats) = plan.execute_with(&k, DiamondMode::Forward);
        assert_eq!(stats.forward_diamonds, 1);
        assert_eq!(out.pop().unwrap(), evaluate_packed_recursive(&k, &f).unwrap());
    }

    #[test]
    fn folds_preserve_semantics() {
        let k = Kripke::k_mm(&generators::path(5));
        let q = Formula::prop(1);
        let cases = [
            q.not().not(),
            q.and(&q),
            q.or(&Formula::bottom()),
            q.and(&Formula::top()),
            q.and(&Formula::bottom()),
            q.or(&Formula::top()),
            Formula::diamond_geq(ModalIndex::Any, 0, &q),
            Formula::diamond(ModalIndex::Any, &Formula::bottom()),
            Formula::top().not(),
        ];
        for f in &cases {
            let plan = Plan::compile(&k, f).unwrap();
            assert_eq!(
                plan.execute(&k).pop().unwrap(),
                evaluate_packed_recursive(&k, f).unwrap(),
                "{f}"
            );
        }
        // a ∧ b and b ∧ a cons to one instruction.
        let ab = q.and(&Formula::prop(2));
        let ba = Formula::prop(2).and(&q);
        let plan = Plan::compile_suite(&k, [&ab, &ba]).unwrap();
        let diamonds_and_atoms = 3; // q1, q2, and one shared And
        assert_eq!(plan.len(), diamonds_and_atoms);
    }

    #[test]
    fn family_mismatch_is_an_error() {
        let k = Kripke::k_mm(&generators::cycle(3));
        let f = Formula::diamond(ModalIndex::Out(0), &Formula::top());
        assert!(matches!(
            Plan::compile(&k, &f),
            Err(LogicError::FamilyMismatch { .. })
        ));
        // …even under a vacuous grade, as in the recursive engine.
        let g0 = Formula::diamond_geq(ModalIndex::Out(0), 0, &Formula::top());
        assert!(Plan::compile(&k, &g0).is_err());
    }

    #[test]
    fn checker_caches_across_structurally_equal_formulas() {
        let k = Kripke::k_mm(&generators::grid(3, 3));
        let mut checker = ModelChecker::new(&k);
        let first = checker.check(&unshared_tower(5)).unwrap();
        let computed_once = checker.stats().computed;
        let again = checker.check(&unshared_tower(5)).unwrap();
        assert!(Rc::ptr_eq(&first, &again));
        assert_eq!(checker.stats().computed, computed_once, "second check is free");
        assert!(checker.stats().computed < checker.stats().ast_nodes);
    }

    #[test]
    fn repeated_checks_stay_bounded() {
        let k = Kripke::k_mm(&generators::cycle(6));
        let mut checker = ModelChecker::new(&k);
        let f = unshared_tower(4);
        let first = checker.check(&f).unwrap();
        let retained = checker.retained.len();
        // Re-checking the same Arc-shared formula is a pure memo hit:
        // no new retention, no new computation, same Rc back.
        for _ in 0..5 {
            let again = checker.check(&f).unwrap();
            assert!(Rc::ptr_eq(&first, &again));
        }
        assert_eq!(checker.retained.len(), retained);
        // A failed lowering retains the formula: its subnodes entered
        // the pointer memo before the family check failed.
        let bad = Formula::prop(1).and(&Formula::diamond(
            crate::formula::ModalIndex::Out(0),
            &Formula::prop(2),
        ));
        assert!(checker.check(&bad).is_err());
        assert!(checker.retained.len() > retained);
    }

    /// The serving pattern: every request resumes the detached cache,
    /// prices and checks *freshly decoded* copies of the same formulas
    /// (so no pointer is ever seen twice), and detaches again. The
    /// cache must stop growing after the first request.
    #[test]
    fn resume_detach_rounds_on_fresh_formulas_stay_bounded() {
        let k = Kripke::k_mm(&generators::grid(4, 4));
        let batch = || {
            let reach = Formula::mu(
                "X",
                &Formula::prop(2).or(&Formula::diamond(ModalIndex::Any, &Formula::var("X"))),
            )
            .unwrap();
            vec![
                unshared_tower(4),
                Formula::diamond_geq(ModalIndex::Any, 2, &Formula::prop(3)).not(),
                reach.and(&Formula::prop(4).not()),
                Formula::diamond(ModalIndex::Any, &unshared_tower(2)),
            ]
        };
        // Shares its first conjunct with the batch before failing.
        let bad = || Formula::prop(2).and(&Formula::diamond(ModalIndex::Out(0), &Formula::prop(2)));
        let expected: Vec<Vec<u64>> = ModelChecker::new(&k)
            .check_suite(&batch())
            .unwrap()
            .iter()
            .map(|b| b.words().to_vec())
            .collect();

        let ctl = ExecControl::unrestricted();
        let mut cache: Option<CheckerCache> = None;
        let mut sizes = None;
        for round in 0..1000 {
            let mut checker = match cache.take() {
                Some(c) => ModelChecker::resume(&k, c, &[]),
                None => ModelChecker::new(&k),
            };
            let formulas = batch();
            checker.estimate_work(&formulas).unwrap();
            let mut got = checker.check_suite_controlled(&formulas[..2], &ctl).unwrap();
            got.extend(checker.check_suite_controlled(&formulas[2..], &ctl).unwrap());
            let got: Vec<Vec<u64>> = got.iter().map(|b| b.words().to_vec()).collect();
            assert_eq!(got, expected, "round {round}");
            assert!(checker.estimate_work(&[bad()]).is_err());
            assert!(checker.check_suite_controlled(&[bad()], &ctl).is_err());

            let detached = checker.detach();
            assert!(detached.lw.ptr_memo.is_empty(), "round {round}");
            let now = (detached.lw.ops.len(), detached.lw.cons.len(), detached.results.len());
            assert_eq!(*sizes.get_or_insert(now), now, "round {round}");
            cache = Some(detached);
        }
    }

    /// One served check through the text path: resume (or start),
    /// resolve, both check halves, detach.
    fn serve_texts<'k>(
        k: &'k Kripke,
        cache: Option<CheckerCache>,
        texts: &[String],
    ) -> (ModelChecker<'k>, usize, Vec<Vec<u64>>) {
        let mut checker = match cache {
            Some(c) => ModelChecker::resume(k, c, &[]),
            None => ModelChecker::new(k),
        };
        let ctl = ExecControl::unrestricted();
        let batch = checker.resolve_texts(texts.iter().map(String::as_str)).unwrap();
        let (first, second) = batch.roots.split_at(texts.len() / 2);
        let mut got = checker.check_roots_controlled(first, &ctl).unwrap();
        got.extend(checker.check_roots_controlled(second, &ctl).unwrap());
        (checker, batch.estimate, got.iter().map(|b| b.words().to_vec()).collect())
    }

    #[test]
    fn warm_text_hits_lower_nothing_and_keep_the_memo_size() {
        let k = Kripke::k_mm(&generators::grid(6, 6));
        let reach = Formula::mu(
            "X",
            &Formula::prop(2).or(&Formula::diamond(ModalIndex::Any, &Formula::var("X"))),
        )
        .unwrap();
        let texts: Vec<String> = (0..16)
            .map(|i| {
                let f = Formula::diamond_geq(ModalIndex::Any, 1 + i % 3, &Formula::prop(i % 5))
                    .or(&unshared_tower(i % 4));
                if i % 5 == 0 { f.and(&reach) } else { f }.to_string()
            })
            .collect();
        let formulas: Vec<Formula> = texts.iter().map(|t| parse(t).unwrap()).collect();
        let expected: Vec<Vec<u64>> = ModelChecker::new(&k)
            .check_suite(&formulas)
            .unwrap()
            .iter()
            .map(|b| b.words().to_vec())
            .collect();

        let (checker, cold, got) = serve_texts(&k, None, &texts);
        assert!(cold > 0, "a cold batch has a price");
        assert_eq!(got, expected);
        let warm = checker.stats();
        let mut cache = Some(checker.detach());
        let memo = cache.as_ref().unwrap().texts.bytes();
        let words = cache.as_ref().unwrap().cached_words();
        assert!(memo >= texts.iter().map(String::len).sum::<usize>());
        for round in 0..1000 {
            let (checker, estimate, got) = serve_texts(&k, cache.take(), &texts);
            assert_eq!(estimate, 0, "round {round}: a warm hit is free");
            assert_eq!(got, expected, "round {round}");
            let stats = checker.stats();
            assert_eq!(stats.ast_nodes, warm.ast_nodes, "round {round}: nothing was lowered");
            assert_eq!(stats.instructions, warm.instructions, "round {round}");
            assert_eq!(stats.computed, warm.computed, "round {round}");
            let detached = checker.detach();
            assert_eq!(detached.texts.bytes(), memo, "round {round}");
            assert_eq!(detached.cached_words(), words, "round {round}");
            cache = Some(detached);
        }
    }

    #[test]
    fn resolve_texts_parses_every_text_before_lowering_any() {
        let k = Kripke::k_mm(&generators::path(8));
        let mismatch = Formula::diamond(ModalIndex::InOut(1, 1), &Formula::prop(2)).to_string();
        let mut checker = ModelChecker::new(&k);
        // A text that does not parse wins over an earlier family
        // mismatch, and nothing is lowered.
        let err = checker.resolve_texts(["q1", mismatch.as_str(), "mu X . !X"]).unwrap_err();
        assert!(matches!(err, TextError::Parse { index: 2, .. }), "{err:?}");
        assert_eq!(checker.stats().ast_nodes, 0);
        assert!(checker.texts.roots.is_empty());
        // A mismatch fails the batch; the text lowered before it stays
        // memoised, the one after it is never reached.
        let err = checker.resolve_texts(["q1", mismatch.as_str(), "q3"]).unwrap_err();
        assert!(matches!(err, TextError::Logic(LogicError::FamilyMismatch { .. })), "{err:?}");
        assert_eq!(checker.texts.roots.len(), 1);
        let nodes = checker.stats().ast_nodes;
        let hit = checker.resolve_texts(["q1"]).unwrap();
        assert_eq!(checker.stats().ast_nodes, nodes, "a memoised text is not lowered again");
        // A new text twice in one batch is memoised once, with one root;
        // another rendering of the same formula is its own entry.
        let twice = checker.resolve_texts(["<*,*>q1", "<*,*>q1", "<*,*> q1", "q1"]).unwrap();
        assert_eq!(twice.roots[0], twice.roots[1]);
        assert_eq!(twice.roots[0], twice.roots[2]);
        assert_eq!(twice.roots[3], hit.roots[0]);
        assert_eq!(checker.texts.roots.len(), 3);
        let before = checker.texts.bytes();
        checker.resolve_texts(["<*,*>q1"]).unwrap();
        assert_eq!(checker.texts.bytes(), before);
        // Three texts, each with its end (8 bytes), root (4) and chain
        // link (4), under three distinct hashes (16 each).
        assert_eq!(before, ("q1".len() + "<*,*>q1".len() + "<*,*> q1".len()) + 3 * 16 + 3 * 16);
    }

    #[test]
    fn deltas_never_change_a_memoised_root() {
        use crate::kripke::ModelDelta;
        // Lowering reads the variant and which relations the model
        // stores. A delta cannot add a relation, so a diamond over a
        // missing one stays ⊥, and every memoised root stays what a
        // fresh lowering of its text gives.
        let g = generators::cycle(12);
        let mut k = Kripke::k_pp(&g, &PortNumbering::consistent(&g));
        let alpha = k.indices().next().unwrap();
        let missing = ModalIndex::InOut(7, 7);
        assert_eq!(k.relation_id(missing), None);
        let texts: Vec<String> = [
            Formula::diamond(missing, &Formula::prop(2)),
            Formula::diamond(alpha, &Formula::prop(2)).or(&Formula::diamond(missing, &Formula::top())),
            Formula::diamond(alpha, &Formula::diamond(alpha, &Formula::prop(1))).not(),
        ]
        .iter()
        .map(Formula::to_string)
        .collect();
        let mut checker = ModelChecker::new(&k);
        let roots = checker.resolve_texts(texts.iter().map(String::as_str)).unwrap().roots;
        assert_eq!(checker.lw.ops[roots[0].0 as usize], Op::Bottom);
        let mut cache = checker.detach();

        let version = k.version();
        let err = k.apply_delta(ModelDelta::new().add_edge(missing, 0, 1)).unwrap_err();
        assert_eq!(err, LogicError::NoSuchRelation);
        assert_eq!(k.version(), version, "a rejected delta leaves the model");

        let rel = k.relation_id(alpha).unwrap();
        for step in 0..4u32 {
            let v = step * 3;
            let mut delta = ModelDelta::new();
            match k.successors_dense(rel, v as usize).first() {
                Some(&w) => delta.remove_edge(alpha, v, w),
                None => delta.set_valuation(v, 1),
            };
            let touched = k.apply_delta(&delta).unwrap();
            let mut checker = ModelChecker::resume(&k, cache, &touched);
            let again = checker.resolve_texts(texts.iter().map(String::as_str)).unwrap().roots;
            assert_eq!(again, roots, "step {step}");
            let mut fresh = ModelChecker::new(&k);
            for (text, root) in texts.iter().zip(&roots) {
                let formula = parse(text).unwrap();
                let relowered = checker.lower_retaining(&formula).unwrap();
                assert_eq!(relowered, root.0, "step {step}: {text}");
                assert_eq!(
                    checker.check_roots_controlled(&[*root], &ExecControl::unrestricted())
                        .unwrap()[0]
                        .to_bools(),
                    fresh.check(&formula).unwrap().to_bools(),
                    "step {step}: {text}"
                );
            }
            cache = checker.detach();
        }
    }

    #[test]
    fn checker_quotient_is_cached_and_agrees() {
        let g = generators::theorem13_witness().0;
        let k = Kripke::k_mm(&g);
        let mut checker = ModelChecker::new(&k);
        let q1 = checker.minimum_base();
        let q2 = checker.minimum_base();
        assert!(Rc::ptr_eq(&q1, &q2));
        let f = Formula::diamond(ModalIndex::Any, &Formula::prop(2)).not();
        let via_q = checker.check_via_quotient(&f).unwrap();
        assert_eq!(&via_q, &*checker.check(&f).unwrap());
    }

    #[test]
    #[should_panic(expected = "ungraded")]
    fn checker_quotient_rejects_graded() {
        let k = Kripke::k_mm(&generators::cycle(4));
        let mut checker = ModelChecker::new(&k);
        let _ = checker.check_via_quotient(&Formula::diamond_geq(
            ModalIndex::Any,
            2,
            &Formula::top(),
        ));
    }

    #[test]
    fn empty_suite_and_empty_model() {
        let k = Kripke::k_mm(&generators::cycle(3));
        let plan = Plan::compile_suite(&k, []).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.root_count(), 0);
        assert!(plan.execute(&k).is_empty());

        let empty = Kripke::from_parts(
            crate::kripke::ModelVariant::MinusMinus,
            Vec::new(),
            std::collections::BTreeMap::new(),
        )
        .unwrap();
        let truth = Plan::compile(&empty, &Formula::top()).unwrap().execute(&empty);
        assert_eq!(truth[0].len(), 0);
    }

    /// A sparse relation over a large universe: `n = 640` worlds,
    /// 20 stored pairs, 4 worlds satisfying the inner formula.
    fn sparse_relation_model() -> Kripke {
        let n = 640;
        let mut degree = vec![0usize; n];
        for d in &mut degree[600..604] {
            *d = 7;
        }
        let mut rows = vec![Vec::new(); n];
        for (v, row) in rows.iter_mut().enumerate().take(20) {
            row.push(600 + v % 4);
        }
        let mut relations = std::collections::BTreeMap::new();
        relations.insert(ModalIndex::Any, rows);
        Kripke::from_parts(crate::kripke::ModelVariant::MinusMinus, degree, relations).unwrap()
    }

    #[test]
    fn auto_cost_model_counts_the_full_forward_sweep() {
        // Regression for the Auto crossover: the forward walk costs
        // n + targets.len() (assign_from_fn visits every world, empty
        // row or not), so on this model a reverse path (4 satisfying
        // worlds with 20 predecessor entries between them) beats
        // forward (640 + 20). The old comparison against targets.len()
        // alone wrongly chose the forward path. The CSC gather costs
        // 4 + 20 + 10 = 34 entry ops.
        let k = sparse_relation_model();
        let f = Formula::diamond(ModalIndex::Any, &Formula::prop(7));
        let plan = Plan::compile(&k, &f).unwrap();
        let (mut out, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(stats.csc_diamonds, 1, "sparse relation must go reverse via CSC: {stats:?}");
        assert_eq!(stats.forward_diamonds, 0);
        assert_eq!(out.pop().unwrap(), evaluate_packed_recursive(&k, &f).unwrap());

        // Control: a dense inner set (⊤ holds everywhere: CSC touches
        // every stored edge plus every world, 640 + 20 + 10 > 660)
        // still picks the forward walk.
        let dense = Formula::diamond(ModalIndex::Any, &Formula::top());
        let plan = Plan::compile(&k, &dense).unwrap();
        let (_, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(stats.forward_diamonds, 1, "dense inner must stay forward: {stats:?}");
        assert_eq!(stats.csc_diamonds, 0);
    }

    /// A hub model: every world points at world 0, which alone carries
    /// the marker degree, so world 0's CSC row holds all `n` worlds.
    fn hub_model(n: usize) -> Kripke {
        let mut degree = vec![0usize; n];
        degree[0] = 7;
        let rows: Vec<Vec<usize>> = (0..n).map(|_| vec![0usize]).collect();
        let mut relations = std::collections::BTreeMap::new();
        relations.insert(ModalIndex::Any, rows);
        Kripke::from_parts(crate::kripke::ModelVariant::MinusMinus, degree, relations).unwrap()
    }

    #[test]
    fn auto_prices_hub_predecessors_by_csc_row_length() {
        // The forward sweep costs 640 worlds + 640 pairs = 1280 entry
        // ops whatever the inner set. ⟨α⟩q₇: one satisfying world whose
        // CSC row holds all 640 worlds costs 1 + 640 + 10 = 651, so the
        // gather wins. ⟨α⟩⊤: 640 lookups + the same 640 entries + 10 =
        // 1290 tips the choice back to forward.
        let k = hub_model(640);
        let hub = Formula::diamond(ModalIndex::Any, &Formula::prop(7));
        let plan = Plan::compile(&k, &hub).unwrap();
        let (mut out, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(stats.csc_diamonds, 1, "one hub row must gather via CSC: {stats:?}");
        assert_eq!(stats.forward_diamonds, 0);
        let truth = out.pop().unwrap();
        assert_eq!(truth, evaluate_packed_recursive(&k, &hub).unwrap());
        assert_eq!(truth.count_ones(), 640, "every world sees the hub");

        let all = Formula::diamond(ModalIndex::Any, &Formula::top());
        let plan = Plan::compile(&k, &all).unwrap();
        let (mut out, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(stats.forward_diamonds, 1, "a full inner set stays forward: {stats:?}");
        assert_eq!(stats.csc_diamonds, 0);
        assert_eq!(out.pop().unwrap(), evaluate_packed_recursive(&k, &all).unwrap());
    }

    #[test]
    fn auto_picks_csc_above_the_dense_cap() {
        // A sparse model big enough that an n²-bit predecessor matrix
        // would take over 16 MiB, with a sparse inner set: the CSC
        // gather's O(n + edges) store keeps the reverse path cheap.
        let n = 12_000;
        let k = Kripke::k_mm(&generators::path(n));
        // Degree 1 holds exactly at the two path endpoints.
        let f = Formula::diamond(ModalIndex::Any, &Formula::prop(1));
        let plan = Plan::compile(&k, &f).unwrap();
        let (out, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(stats.csc_diamonds, 1, "huge sparse diamond must go CSC: {stats:?}");
        assert_eq!(stats.forward_diamonds, 0);
        // Bit-identical to the forward engine on the same plan.
        let (fwd, fwd_stats) = plan.execute_with(&k, DiamondMode::Forward);
        assert_eq!(fwd_stats.forward_diamonds, 1);
        assert_eq!(out, fwd);
        // ⟨α⟩q₁ holds exactly at the endpoints' neighbours.
        assert_eq!(out[0].iter_ones().collect::<Vec<_>>(), vec![1, n - 2]);
    }

    #[test]
    fn auto_credits_the_forward_walks_early_exit() {
        // A 2¹⁴-world G(n, p) of average degree 4. ‖¬q₀‖ holds at all
        // but the ~2% isolated worlds, so a forward row walk almost
        // always stops at its first successor: n + n²/|‖¬q₀‖| ≈ 2n
        // entry ops, against a gather that reads nearly every stored
        // entry (≈ 5n). Pricing the forward walk at n + targets once
        // picked the gather here.
        use crate::kripke::{KripkeBuilder, ModelVariant};
        let n = 1 << 14;
        let k = KripkeBuilder::new(ModelVariant::MinusMinus, n)
            .relation(ModalIndex::Any, || generators::gnp_edges(n, 4.0 / n as f64, 7))
            .degrees_from_streams()
            .build()
            .unwrap();
        let dense = Formula::diamond(ModalIndex::Any, &Formula::prop(0).not());
        // A sparse inner set (degree 8: ~3% of worlds) still gathers.
        let sparse = Formula::diamond(ModalIndex::Any, &Formula::prop(8));
        for (f, forward) in [(dense, true), (sparse, false)] {
            let plan = Plan::compile(&k, &f).unwrap();
            let (out, stats) = plan.execute_with(&k, DiamondMode::Auto);
            assert_eq!(stats.forward_diamonds, forward as usize, "{f}: {stats:?}");
            assert_eq!(stats.csc_diamonds, !forward as usize, "{f}: {stats:?}");
            for mode in [DiamondMode::Forward, DiamondMode::Csc] {
                assert_eq!(plan.execute_with(&k, mode).0, out, "{f} under {mode:?}");
            }
            assert_eq!(out[0], evaluate_packed_recursive(&k, &f).unwrap());
        }
    }

    /// A small suite exercising every op: atoms, boolean structure,
    /// nested and graded diamonds.
    fn delta_suite() -> Vec<Formula> {
        let p1 = Formula::prop(1);
        let p2 = Formula::prop(2);
        let dia = Formula::diamond(ModalIndex::Any, &p2);
        vec![
            p1.clone(),
            dia.clone(),
            Formula::diamond(ModalIndex::Any, &dia).and(&p1.not()),
            Formula::diamond_geq(ModalIndex::Any, 2, &p2).or(&dia),
            Formula::diamond(ModalIndex::Any, &Formula::diamond(ModalIndex::Any, &dia)),
        ]
    }

    #[test]
    fn checker_repair_matches_fresh_after_deltas() {
        use crate::kripke::ModelDelta;
        for g in [generators::path(24), generators::theorem13_witness().0] {
            let mut k = Kripke::k_mm(&g);
            let mut checker = ModelChecker::new(&k);
            for f in delta_suite() {
                checker.check(&f).unwrap();
            }
            // Two rounds of deltas: remove an edge, then re-add it
            // while crashing a world.
            let (v, &w) = (0..k.len())
                .find_map(|v| k.successors_dense(0, v).first().map(|w| (v, w)))
                .unwrap();
            let mut d1 = ModelDelta::new();
            d1.remove_edge(ModalIndex::Any, v as u32, w).remove_edge(ModalIndex::Any, w, v as u32);
            let mut d2 = ModelDelta::new();
            d2.add_edge(ModalIndex::Any, v as u32, w)
                .add_edge(ModalIndex::Any, w, v as u32)
                .crash_world((k.len() - 1) as u32);
            for delta in [d1, d2] {
                let cache = checker.detach();
                let touched = k.apply_delta(&delta).unwrap();
                checker = ModelChecker::resume(&k, cache, &touched);
                let mut fresh = ModelChecker::new(&k);
                for f in delta_suite() {
                    assert_eq!(
                        checker.check(&f).unwrap().to_bools(),
                        fresh.check(&f).unwrap().to_bools(),
                        "{g}: repaired check diverged on {f}"
                    );
                }
            }
            let stats = checker.last_repair().expect("repair ran");
            assert!(stats.repaired_vectors + stats.rebuilt_vectors > 0);
        }
    }

    #[test]
    fn checker_repair_touches_a_strict_subset_on_localized_deltas() {
        use crate::kripke::ModelDelta;
        let mut k = Kripke::k_mm(&generators::path(256));
        let mut checker = ModelChecker::new(&k);
        for f in delta_suite() {
            checker.check(&f).unwrap();
        }
        let mut delta = ModelDelta::new();
        delta.remove_edge(ModalIndex::Any, 100, 101).remove_edge(ModalIndex::Any, 101, 100);
        let cache = checker.detach();
        let touched = k.apply_delta(&delta).unwrap();
        checker = ModelChecker::resume(&k, cache, &touched);
        let stats = *checker.last_repair().expect("repair ran");
        assert!(stats.repaired_vectors > 0);
        assert_eq!(stats.rebuilt_vectors, 0, "a 2-edge delta must stay out of the dense fallback");
        // The tentpole property: repair work scales with the delta's
        // ball, not the universe. Heights here are ≤ 3, so no vector's
        // frontier can exceed 2 + 2·3 worlds.
        assert!(stats.max_frontier <= 8, "frontier {} on a localized delta", stats.max_frontier);
        assert!(stats.repaired_worlds < k.len());
        let mut fresh = ModelChecker::new(&k);
        for f in delta_suite() {
            assert_eq!(
                checker.check(&f).unwrap().to_bools(),
                fresh.check(&f).unwrap().to_bools()
            );
        }
    }

    #[test]
    fn checker_repair_seeds_diamonds_from_their_own_relation() {
        use crate::kripke::ModelDelta;
        // K₊,₊ of a degree-8 circulant: a world has at most one
        // predecessor per relation but eight across all of them, so
        // seeding from the union of relations would dirty every
        // neighbour of a flipped world instead of one.
        let g = generators::circulant(200, &[1, 2, 3, 4]);
        let mut k = Kripke::k_pp(&g, &PortNumbering::consistent(&g));
        let alpha = k.indices().next().unwrap();
        let rel = k.relation_id(alpha).unwrap();
        let (v, w) = (0..k.len())
            .find_map(|v| k.successors_dense(rel, v).first().map(|&w| (v as u32, w)))
            .unwrap();
        // q8 flips at v when the delta drops v's degree to 7.
        let f = Formula::diamond(alpha, &Formula::diamond(alpha, &Formula::prop(8)));
        let mut checker = ModelChecker::new(&k);
        checker.check(&f).unwrap();
        let cache = checker.detach();
        let touched = k.apply_delta(ModelDelta::new().remove_edge(alpha, v, w)).unwrap();
        checker = ModelChecker::resume(&k, cache, &touched);
        // The cached vectors have modal heights 0, 1, 2; each may be
        // repaired at most over α's predecessor ball of that radius.
        let csc = k.predecessors_csc(rel);
        let mut ball = touched.clone();
        let mut bound = 0;
        for _height in 0..=2 {
            bound += ball.len();
            let preds: Vec<u32> = ball.iter().flat_map(|&u| csc.row(u as usize)).copied().collect();
            ball.extend(preds);
            ball.sort_unstable();
            ball.dedup();
        }
        let stats = *checker.last_repair().expect("repair ran");
        assert_eq!(stats.rebuilt_vectors, 0, "{stats:?}");
        assert!(stats.repaired_worlds <= bound, "repaired {stats:?} beyond α's balls ({bound})");
        assert_eq!(
            checker.check(&f).unwrap().to_bools(),
            ModelChecker::new(&k).check(&f).unwrap().to_bools()
        );
    }

    #[test]
    fn quotient_repair_stays_exact_and_minimum_base_recovers_coarsest() {
        use crate::kripke::ModelDelta;
        // A 6-cycle quotients to one world; cutting it open makes the
        // quotient grow — the repaired (possibly finer) partition must
        // still produce exact quotient-path answers, and minimum_base
        // must fall back to the coarsest partition.
        let mut k = Kripke::k_mm(&generators::cycle(6));
        let phi = Formula::diamond(ModalIndex::Any, &Formula::prop(2));
        let mut checker = ModelChecker::new(&k);
        let before = checker.check_via_quotient(&phi).unwrap();
        assert_eq!(before.to_bools(), checker.check(&phi).unwrap().to_bools());
        let mut delta = ModelDelta::new();
        delta.remove_edge(ModalIndex::Any, 0, 1).remove_edge(ModalIndex::Any, 1, 0);
        let cache = checker.detach();
        let touched = k.apply_delta(&delta).unwrap();
        checker = ModelChecker::resume(&k, cache, &touched);
        let via_quotient = checker.check_via_quotient(&phi).unwrap();
        let mut fresh = ModelChecker::new(&k);
        assert_eq!(via_quotient.to_bools(), fresh.check(&phi).unwrap().to_bools());
        assert!(checker.last_repair().expect("repair ran").quotient_repaired);
        // minimum_base drops the repaired quotient and recomputes the
        // coarsest one — identical to a fresh checker's.
        assert_eq!(*checker.minimum_base(), *fresh.minimum_base());
    }

    #[test]
    fn forced_parallel_chunks_instructions_and_matches_sequential() {
        // A deep diamond chain on a 16×16 grid: the parallel executor
        // must split each diamond's per-world loop and still agree bit
        // for bit.
        let k = Kripke::k_mm(&generators::grid(16, 16));
        let mut f = Formula::prop(4);
        for _ in 0..6 {
            f = Formula::diamond(ModalIndex::Any, &f).or(&Formula::prop(2));
        }
        let plan = Plan::compile(&k, &f).unwrap();
        for mode in [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Csc] {
            let (seq, seq_stats) = execute_pinned(&plan, &k, mode, Parallelism::Off);
            let (par, par_stats) = execute_pinned(&plan, &k, mode, Parallelism::Force);
            assert_eq!(seq, par, "mode {mode:?}");
            assert_eq!(seq_stats.executed, par_stats.executed);
            assert_eq!(seq_stats.forward_diamonds, par_stats.forward_diamonds);
            assert_eq!(seq_stats.csc_diamonds, par_stats.csc_diamonds);
            assert_eq!(seq_stats.chunked_ops, 0, "mode {mode:?}: {seq_stats:?}");
            assert!(par_stats.chunked_ops > 0, "mode {mode:?}: {par_stats:?}");
        }
    }

    #[test]
    fn forced_parallel_csc_diamonds_shard_the_entry_space() {
        // The satisfying worlds contribute hundreds of predecessor
        // entries, so the equal-entry shards produce real chunks whose
        // partial gathers must merge to the sequential answer.
        let k = Kripke::k_mm(&generators::cycle(200));
        let f = Formula::diamond(ModalIndex::Any, &Formula::prop(2)); // everything true inside
        let plan = Plan::compile(&k, &f).unwrap();
        let (seq, ss) = plan.execute_with(&k, DiamondMode::Csc);
        let (par, ps) = execute_pinned(&plan, &k, DiamondMode::Csc, Parallelism::Force);
        assert_eq!(seq, par);
        assert_eq!(ss.csc_diamonds, 1);
        assert_eq!(ps.csc_diamonds, 1);
        assert!(ps.chunked_ops > 0, "{ps:?}");
        // An all-false inner set is the empty-gather edge case.
        let none = Formula::diamond(ModalIndex::Any, &Formula::prop(9));
        let plan = Plan::compile(&k, &none).unwrap();
        let (seq, _) = plan.execute_with(&k, DiamondMode::Csc);
        let (par, _) = execute_pinned(&plan, &k, DiamondMode::Csc, Parallelism::Force);
        assert_eq!(seq, par);
        assert!(seq[0].none());
        // Graded counting chunks too (per-chunk sparse count maps,
        // merged once, thresholded after the merge) and still agrees
        // with both the sequential scatter and the recursive engine.
        let graded = Formula::diamond_geq(ModalIndex::Any, 2, &Formula::prop(2));
        let plan = Plan::compile(&k, &graded).unwrap();
        let (seq, ss) = plan.execute_with(&k, DiamondMode::Csc);
        let (par, ps) = execute_pinned(&plan, &k, DiamondMode::Csc, Parallelism::Force);
        assert_eq!(seq, par);
        assert_eq!(ss.csc_diamonds, ps.csc_diamonds);
        assert!(ps.chunked_ops > 0, "graded CSC must shard its counting: {ps:?}");
        assert_eq!(seq[0], evaluate_packed_recursive(&k, &graded).unwrap());
    }

    #[test]
    fn entry_shards_split_inside_hub_rows() {
        // A star's centre is one huge CSC row (every leaf points at
        // it); the entry shards must cut inside that row rather than
        // serialising it into one chunk, and the sharded gather must
        // still agree with the inline one.
        let k = Kripke::k_mm(&generators::star(300));
        let f = Formula::diamond(ModalIndex::Any, &Formula::prop(1)); // leaves satisfy q1
        let plan = Plan::compile(&k, &f).unwrap();
        let (seq, _) = plan.execute_with(&k, DiamondMode::Csc);
        let (par, ps) = execute_pinned(&plan, &k, DiamondMode::Csc, Parallelism::Force);
        assert_eq!(seq, par);
        assert!(ps.chunked_ops > 0, "{ps:?}");
        // Directly: shard one hub row across many chunks and replay
        // the entries; together they must cover the row exactly once.
        let csc = k.predecessors_csc(0);
        let sat = Bitset::from_fn(k.len(), |w| w == 0); // the centre alone
        let shards = EntryShards::build(csc, &sat);
        assert_eq!(shards.total(), csc.row_len(0));
        let mut replayed = Vec::new();
        for r in shards.ranges(7) {
            shards.for_entries(csc, r, |v| replayed.push(v));
        }
        assert_eq!(replayed, csc.row(0));
    }

    /// Walks `plan` in execution order with a slot-owner table: every
    /// operand still owns its slot when read (no earlier destination
    /// overwrote it), no destination aliases one of its own operands,
    /// and every root still owns its slot at the end.
    fn assert_slots_sound(plan: &Plan) {
        let mut owner = vec![u32::MAX; plan.slot_count];
        for (id, op) in plan.ops.iter().enumerate() {
            let dst = plan.dst[id];
            op.for_each_operand(|a| {
                assert!(a < id as u32, "operand {a} of {id} runs later");
                let slot = plan.dst[a as usize];
                assert_eq!(owner[slot as usize], a, "slot {slot} of {a} overwritten before {id}");
                assert_ne!(slot, dst, "{id} writes the slot of its operand {a}");
            });
            owner[dst as usize] = id as u32;
        }
        for &r in &plan.roots {
            assert_eq!(owner[plan.dst[r as usize] as usize], r, "root {r} lost its slot");
        }
    }

    #[test]
    fn id_order_slots_never_overwrite_a_live_operand() {
        let k = Kripke::k_mm(&generators::grid(5, 5));
        let tower = unshared_tower(5).and(&unshared_tower(3).not());
        assert_slots_sound(&Plan::compile(&k, &tower).unwrap());
        assert_slots_sound(&Plan::compile_suite(&k, &delta_suite()).unwrap());
        assert_slots_sound(&Plan::compile_suite(&k, &fixpoint_suite()).unwrap());

        // Eight independent diamonds under one disjunction: id order
        // frees each diamond's operand as soon as the diamond has its
        // slot, so three slots suffice.
        let mut f = Formula::diamond(ModalIndex::Any, &Formula::prop(0));
        for d in 1..8 {
            f = f.or(&Formula::diamond(ModalIndex::Any, &Formula::prop(d)));
        }
        let plan = Plan::compile(&k, &f).unwrap();
        assert_slots_sound(&plan);
        assert!(plan.stats().slots <= 3, "{:?}", plan.stats());
        let (seq, _) = execute_pinned(&plan, &k, DiamondMode::Auto, Parallelism::Off);
        let (par, _) = execute_pinned(&plan, &k, DiamondMode::Auto, Parallelism::Force);
        assert_eq!(seq, par);
        assert_eq!(seq[0], evaluate_packed_recursive(&k, &f).unwrap());
    }

    #[test]
    fn duplicate_roots_share_one_instruction() {
        let k = Kripke::k_mm(&generators::star(2));
        let f = Formula::prop(1);
        let plan = Plan::compile_suite(&k, [&f, &f, &f]).unwrap();
        assert_eq!(plan.root_count(), 3);
        assert_eq!(plan.len(), 1);
        let out = plan.execute(&k);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
    }

    /// Closed fixpoint formulas exercising µ, ν, nesting, boolean
    /// structure around binders, and grades inside bodies.
    fn fixpoint_suite() -> Vec<Formula> {
        let parse = |s: &str| crate::parser::parse(s).unwrap();
        vec![
            parse("mu X . X"),
            parse("nu X . X"),
            parse("mu X . q2 | <*,*> X"),
            parse("nu X . q2 & <*,*> X"),
            parse("mu X . q1 | <*,*>>=2 X"),
            parse("(mu X . q2 | <*,*> X) & !(nu Y . <*,*> Y)"),
            parse("nu Y . mu X . (q1 & Y) | <*,*> X"),
        ]
    }

    /// The [`fixpoint_suite`] shapes rebuilt over `index`, so each
    /// canonical variant gets fixpoints in its own modal family.
    fn fixpoint_suite_with(index: ModalIndex) -> Vec<Formula> {
        let x = Formula::var("X");
        let reach =
            Formula::mu("X", &Formula::prop(2).or(&Formula::diamond(index, &x))).unwrap();
        let safe = Formula::nu("X", &Formula::prop(2).and(&Formula::diamond(index, &x))).unwrap();
        let graded =
            Formula::mu("X", &Formula::prop(1).or(&Formula::diamond_geq(index, 2, &x))).unwrap();
        let nested = Formula::nu(
            "Y",
            &Formula::mu(
                "X",
                &Formula::prop(1).and(&Formula::var("Y")).or(&Formula::diamond(index, &x)),
            )
            .unwrap(),
        )
        .unwrap();
        vec![reach.clone(), safe.clone(), graded, reach.and(&safe.not()), nested]
    }

    #[test]
    fn fixpoint_plans_match_kleene_reference_on_all_variants() {
        let g = generators::figure1_graph();
        let p = PortNumbering::consistent(&g);
        let models =
            [Kripke::k_pp(&g, &p), Kripke::k_mp(&g, &p), Kripke::k_pm(&g, &p), Kripke::k_mm(&g)];
        for k in &models {
            let index = k.indices().next().unwrap();
            for f in fixpoint_suite_with(index) {
                let plan = Plan::compile(k, &f).unwrap();
                let want = evaluate_packed_recursive(k, &f).unwrap();
                for mode in [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Csc] {
                    let (mut got, stats) = plan.execute_with(k, mode);
                    assert_eq!(got.pop().unwrap(), want, "{f} under {mode:?} on {:?}", k.variant());
                    assert!(stats.fixpoints > 0, "{f} lowered without a fixpoint instruction");
                }
            }
        }
    }

    #[test]
    fn counted_diamonds_never_truncate_a_grade_past_u32() {
        // 2³² + 1 truncated to a `u32` count threshold would read as
        // grade 1 and change every answer below; compared as `usize` it
        // is never reached.
        let parse = |s: &str| crate::parser::parse(s).unwrap();
        let cases = [
            (Kripke::k_mm(&generators::path(9)), "mu X . q1 | <*,*>>=4294967297 X"),
            (Kripke::k_mm(&generators::path(9)), "mu X . q1 | !<*,*>>=4294967297 !X"),
            (Kripke::k_mm(&generators::cycle(9)), "nu X . q2 & <*,*>>=4294967297 X"),
            (Kripke::k_mm(&generators::path(9)), "nu X . q2 & !<*,*>>=4294967297 !X"),
        ];
        for (k, text) in &cases {
            let f = parse(text);
            let want = evaluate_packed_recursive(k, &f).unwrap();
            let truncated = evaluate_packed_recursive(k, &parse(&text.replace("4294967297", "1")))
                .unwrap();
            assert_ne!(want, truncated, "{text}: the grade must matter here");
            let plan = Plan::compile(k, &f).unwrap();
            for mode in [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Csc] {
                assert_eq!(plan.execute_with(k, mode).0[0], want, "{text} under {mode:?}");
            }
            assert_eq!(*ModelChecker::new(k).check(&f).unwrap(), want, "checker on {text}");
        }
    }

    #[test]
    fn fixpoint_trivial_bodies_converge_immediately() {
        let k = Kripke::k_mm(&generators::cycle(5));
        let mu = Plan::compile(&k, &crate::parser::parse("mu X . X").unwrap()).unwrap();
        let (out, stats) = mu.execute_with(&k, DiamondMode::Auto);
        assert!(out[0].none(), "µX.X is ⊥");
        assert_eq!(stats.fixpoint_iters, 1, "⊥ is already a fixed point");
        let nu = Plan::compile(&k, &crate::parser::parse("nu X . X").unwrap()).unwrap();
        let (out, _) = nu.execute_with(&k, DiamondMode::Auto);
        assert_eq!(out[0].count_ones(), k.len(), "νX.X is ⊤");
    }

    #[test]
    fn fixpoint_reachability_iterates_and_frontier_stays_small() {
        // One goal world at the far end of a path: reachability needs a
        // full length-of-path sweep of iterations, but after the first
        // (dense) iteration the wave front is O(1) worlds per step — the
        // o(n·iters) pin. World n-1 of path(n) under K_MM has degree 1,
        // like world 0; q1 marks both ends, and reachability from every
        // world holds everywhere on an undirected path.
        let n = 512;
        let k = Kripke::k_mm(&generators::path(n));
        let f = crate::parser::parse("mu X . q1 | <*,*> X").unwrap();
        let plan = Plan::compile(&k, &f).unwrap();
        let (out, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(out[0], evaluate_packed_recursive(&k, &f).unwrap());
        assert!(stats.fixpoint_iters > n / 4, "a path forces a long iteration chain: {stats:?}");
        assert_eq!(stats.fixpoint_dense_passes, 1, "only the first iteration is dense");
        // Frontier accounting must beat whole-model re-evaluation by a
        // wide margin: n per iteration would be n·iters ≈ n²/2.
        let budget = 8 * n + stats.fixpoint_iters * 8;
        assert!(
            stats.fixpoint_frontier_worlds < budget,
            "frontier touched {} worlds over {} iterations (budget {budget})",
            stats.fixpoint_frontier_worlds,
            stats.fixpoint_iters,
        );
    }

    #[test]
    fn fixpoint_nested_matches_reference_under_forced_parallel() {
        let k = Kripke::k_mm(&generators::grid(7, 7));
        for f in fixpoint_suite() {
            let plan = Plan::compile(&k, &f).unwrap();
            let (seq, seq_stats) = plan.execute_with(&k, DiamondMode::Auto);
            let (par, par_stats) = execute_pinned(&plan, &k, DiamondMode::Auto, Parallelism::Force);
            assert_eq!(seq, par, "{f}");
            assert_eq!(seq_stats.executed, par_stats.executed);
            assert_eq!(seq_stats.fixpoint_iters, par_stats.fixpoint_iters, "{f}");
            assert_eq!(seq[0], evaluate_packed_recursive(&k, &f).unwrap(), "{f}");
        }
    }

    #[test]
    fn checker_caches_and_prices_fixpoints() {
        let k = Kripke::k_mm(&generators::grid(5, 5));
        let f = crate::parser::parse("mu X . q2 | <*,*> X").unwrap();
        let mut checker = ModelChecker::new(&k);
        // Fixpoints are priced above a plain diamond: the estimate must
        // carry the iteration-aware 2× body + flip term.
        let plain = crate::parser::parse("<*,*> q2").unwrap();
        let fix_work = checker.estimate_work(std::slice::from_ref(&f)).unwrap();
        let plain_work = checker.estimate_work(std::slice::from_ref(&plain)).unwrap();
        assert!(fix_work > plain_work, "fixpoint priced {fix_work} ≤ diamond {plain_work}");
        let first = checker.check(&f).unwrap();
        assert_eq!(*first, evaluate_packed_recursive(&k, &f).unwrap());
        assert!(checker.stats().fixpoint_iters > 0);
        let iters_once = checker.stats().fixpoint_iters;
        // A repeat is a pure cache hit: same vector, no new iterations,
        // and the batch now prices as free.
        let again = checker.check(&f).unwrap();
        assert!(Rc::ptr_eq(&first, &again));
        assert_eq!(checker.stats().fixpoint_iters, iters_once);
        assert_eq!(checker.estimate_work(std::slice::from_ref(&f)).unwrap(), 0);
    }

    #[test]
    fn checker_repair_matches_fresh_after_deltas_with_fixpoints() {
        use crate::kripke::ModelDelta;
        let mut k = Kripke::k_mm(&generators::path(24));
        let mut checker = ModelChecker::new(&k);
        for f in fixpoint_suite() {
            checker.check(&f).unwrap();
        }
        // Cutting an edge splits the path: reachability answers genuinely
        // change, so the repair has real flips to propagate.
        let mut delta = ModelDelta::new();
        delta.remove_edge(ModalIndex::Any, 11, 12).remove_edge(ModalIndex::Any, 12, 11);
        let cache = checker.detach();
        let touched = k.apply_delta(&delta).unwrap();
        checker = ModelChecker::resume(&k, cache, &touched);
        let mut fresh = ModelChecker::new(&k);
        for f in fixpoint_suite() {
            assert_eq!(
                checker.check(&f).unwrap().to_bools(),
                fresh.check(&f).unwrap().to_bools(),
                "repaired fixpoint diverged on {f}"
            );
        }
    }

    /// `K₋,₋` of a path whose valuation marks about one world in 32
    /// `q1` and one in 32 `q3`, every other world `q2`: the sparse `q1`
    /// goals bound how far reachability iterates.
    fn marked_path(n: usize, seed: u64) -> Kripke {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let degrees = (0..n)
            .map(|_| match rng.random_range(0..32u32) {
                0 => 1,
                1 => 3,
                _ => 2,
            })
            .collect();
        crate::KripkeBuilder::new(crate::kripke::ModelVariant::MinusMinus, n)
            .relation(ModalIndex::Any, move || generators::path_edges(n))
            .degrees(degrees)
            .build()
            .unwrap()
    }

    /// Drives 1000 deltas of 10 edge flips each through a checker
    /// caching a µ reachability and a ν safety formula on the `K₋,₋`
    /// model `k`: each delta restores the 5 edges the previous one
    /// removed and removes 5 fresh ones, so the model stays near its
    /// original shape. Asserts that after the first repair (which
    /// records the fixpoints' state) nothing is rebuilt, that every
    /// invalidated cone stays within an eighth of the universe, and that
    /// the largest cone over the last 100 deltas is at most twice the
    /// largest over the first 100 — warm ranks do not drift. Answers
    /// are compared with a fresh checker every 97 deltas. Returns the
    /// largest cone of every delta after the first.
    fn assert_warm_repair_local_without_drift(name: &str, mut k: Kripke) -> Vec<usize> {
        use crate::kripke::ModelDelta;
        use rand::{Rng, SeedableRng};
        let x = Formula::var("X");
        let reach =
            Formula::mu("X", &Formula::prop(1).or(&Formula::diamond(ModalIndex::Any, &x))).unwrap();
        let safe =
            Formula::nu("X", &Formula::prop(1).not().and(&Formula::box_(ModalIndex::Any, &x)))
                .unwrap();
        let suite = [reach, safe];
        let n = k.len();
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|v| k.successors_dense(0, v).iter().map(move |&w| (v as u32, w)))
            .filter(|&(v, w)| v < w)
            .collect();
        let mut checker = ModelChecker::new(&k);
        checker.check_suite(&suite).unwrap();
        let mut cache = checker.detach();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut removed: Vec<usize> = Vec::new();
        let mut largest_cones: Vec<usize> = Vec::new();
        for step in 0..1000 {
            let mut delta = ModelDelta::new();
            for &e in &removed {
                let (v, w) = edges[e];
                delta.add_edge(ModalIndex::Any, v, w).add_edge(ModalIndex::Any, w, v);
            }
            let mut fresh: Vec<usize> = Vec::new();
            while fresh.len() < 5 {
                let e = rng.random_range(0..edges.len());
                if !removed.contains(&e) && !fresh.contains(&e) {
                    fresh.push(e);
                }
            }
            for &e in &fresh {
                let (v, w) = edges[e];
                delta.remove_edge(ModalIndex::Any, v, w).remove_edge(ModalIndex::Any, w, v);
            }
            removed = fresh;
            let touched = k.apply_delta(&delta).unwrap();
            if step > 0 {
                // The cones the repair is about to flip out.
                let mut d0 = touched.clone();
                d0.sort_unstable();
                d0.dedup();
                let mut largest = 0;
                for (&id, state) in &cache.fix_states {
                    let Op::Fixpoint(b) = cache.lw.ops[id as usize] else { unreachable!() };
                    let body = &cache.lw.bodies[b as usize];
                    let cone = fixpoint_cone(&k, body, &BodyReads::of(body), state, &d0)
                        .unwrap_or_else(|| panic!("{name}, delta {step}: cone past n/4"));
                    assert!(cone.len() <= n / 8, "{name}, delta {step}: cone {}", cone.len());
                    largest = largest.max(cone.len());
                }
                largest_cones.push(largest);
            }
            let mut checker = ModelChecker::resume(&k, cache, &touched);
            let stats = *checker.last_repair().expect("repair ran");
            if step == 0 {
                assert_eq!(stats.rebuilt_vectors, 2, "{name}: the first repair records state");
            } else {
                assert_eq!(stats.rebuilt_vectors, 0, "{name}, delta {step}: {stats:?}");
                assert_eq!(stats.warm_fixpoints, 2, "{name}, delta {step}: {stats:?}");
            }
            if step % 97 == 0 || step == 999 {
                let got = checker.check_suite(&suite).unwrap();
                let want = ModelChecker::new(&k).check_suite(&suite).unwrap();
                assert_eq!(got, want, "{name}, delta {step}: repaired answers diverged");
            }
            cache = checker.detach();
        }
        let early = largest_cones[..100].iter().max().unwrap();
        let late = largest_cones[largest_cones.len() - 100..].iter().max().unwrap();
        assert!(late <= &(2 * early), "{name}: cones drifted from {early} to {late}");
        largest_cones
    }

    #[test]
    fn warm_fixpoint_repair_stays_local_on_a_marked_path() {
        assert_warm_repair_local_without_drift("marked path", marked_path(1 << 12, 6));
    }

    #[test]
    fn warm_fixpoint_repair_stays_local_on_a_gnp() {
        // The served live workload's G(n, p): 2¹⁴ worlds of average
        // degree 4, valued by degree.
        let n = 1 << 14;
        let k = crate::KripkeBuilder::new(crate::kripke::ModelVariant::MinusMinus, n)
            .relation(ModalIndex::Any, move || generators::gnp_edges(n, 4.0 / n as f64, 7))
            .degrees_from_streams()
            .build()
            .unwrap();
        let cones = assert_warm_repair_local_without_drift("gnp", k);
        // Every world here has several parents, and a world is evicted
        // only once it has lost all of them below its rank.
        let largest = *cones.iter().max().unwrap();
        assert!(largest <= n / 64, "gnp: largest cone {largest}");
    }

    /// A goal with two neighbours of equal rank that read each other:
    /// once the goal's edges are cut, neither may keep the other, since
    /// a derivation only rests on worlds of strictly lower rank.
    #[test]
    fn warm_repair_evicts_equal_rank_neighbours_that_read_each_other() {
        use crate::kripke::ModelDelta;
        // Goal 0 (valued 9) is adjacent to 1 and 2, which are adjacent
        // to each other; 3 hangs off 1. Ranks: 0 → 1, 1 and 2 → 2, 3 → 3.
        // Twelve isolated worlds keep the cone below the n/4 fallback.
        let edges = [(0, 1), (0, 2), (1, 2), (1, 3)];
        let mut degrees = vec![0; 16];
        degrees[..4].copy_from_slice(&[9, 3, 2, 1]);
        let mut k = crate::KripkeBuilder::new(crate::kripke::ModelVariant::MinusMinus, 16)
            .relation(ModalIndex::Any, move || {
                edges.into_iter().flat_map(|(v, w)| [(v, w), (w, v)])
            })
            .degrees(degrees)
            .build()
            .unwrap();
        let x = Formula::var("X");
        let reach =
            Formula::mu("X", &Formula::prop(9).or(&Formula::diamond(ModalIndex::Any, &x))).unwrap();
        let safe =
            Formula::nu("X", &Formula::prop(9).not().and(&Formula::box_(ModalIndex::Any, &x)))
                .unwrap();
        let suite = [reach, safe];
        let mut checker = ModelChecker::new(&k);
        checker.check_suite(&suite).unwrap();
        let cache = checker.detach();
        // The first repair after a check records the ranks.
        let mut delta = ModelDelta::new();
        delta.set_valuation(3, 1);
        let touched = k.apply_delta(&delta).unwrap();
        let cache = ModelChecker::resume(&k, cache, &touched).detach();
        let mut delta = ModelDelta::new();
        for w in [1, 2] {
            delta.remove_edge(ModalIndex::Any, 0, w).remove_edge(ModalIndex::Any, w, 0);
        }
        delta.set_valuation(0, 9);
        let touched = k.apply_delta(&delta).unwrap();
        let mut d0 = touched.clone();
        d0.sort_unstable();
        d0.dedup();
        for (&id, state) in &cache.fix_states {
            let Op::Fixpoint(b) = cache.lw.ops[id as usize] else { unreachable!() };
            let body = &cache.lw.bodies[b as usize];
            let cone = fixpoint_cone(&k, body, &BodyReads::of(body), state, &d0).unwrap();
            assert_eq!(cone, [1, 2, 3], "greatest = {}", body.greatest);
        }
        let mut checker = ModelChecker::resume(&k, cache, &touched);
        let stats = *checker.last_repair().expect("repair ran");
        assert_eq!(stats.warm_fixpoints, 2, "{stats:?}");
        let got = checker.check_suite(&suite).unwrap();
        assert_eq!(got, ModelChecker::new(&k).check_suite(&suite).unwrap());
        assert_eq!(got[0].iter_ones().collect::<Vec<_>>(), [0]);
    }

    /// A support check walks the body's read ball world by world, which
    /// on a deep body over a dense relation costs more than recomputing
    /// the fixpoint: the cone search stops once it has scanned what one
    /// dense body pass scans, and the fixpoint is rebuilt instead.
    #[test]
    fn warm_repair_rebuilds_once_support_checks_outspend_a_dense_pass() {
        use crate::kripke::ModelDelta;
        // Average degree 32; four goals (valued 1) among 1024 worlds.
        let n = 1024;
        let mut k = crate::KripkeBuilder::new(crate::kripke::ModelVariant::MinusMinus, n)
            .relation(ModalIndex::Any, move || generators::gnp_edges(n, 32.0 / n as f64, 3))
            .degrees((0..n).map(|v| if v % 256 == 0 { 1 } else { 2 }).collect())
            .build()
            .unwrap();
        let mut body = Formula::var("X");
        for _ in 0..6 {
            body = Formula::diamond(ModalIndex::Any, &body);
        }
        let f = Formula::mu("X", &Formula::prop(1).or(&body)).unwrap();
        let mut checker = ModelChecker::new(&k);
        checker.check(&f).unwrap();
        let mut cache = checker.detach();
        for step in 0..2 {
            let (v, w) = (5 + step, k.successors_dense(0, 5 + step)[0]);
            let mut delta = ModelDelta::new();
            delta.remove_edge(ModalIndex::Any, v as u32, w).set_valuation(v as u32, 2);
            let touched = k.apply_delta(&delta).unwrap();
            let mut checker = ModelChecker::resume(&k, cache, &touched);
            let stats = *checker.last_repair().expect("repair ran");
            assert_eq!(stats.rebuilt_vectors, 1, "delta {step}: {stats:?}");
            assert_eq!(stats.warm_fixpoints, 0, "delta {step}: {stats:?}");
            let got = checker.check(&f).unwrap();
            assert_eq!(*got, *ModelChecker::new(&k).check(&f).unwrap(), "delta {step}");
            assert_eq!(*got, crate::evaluate_packed_recursive(&k, &f).unwrap(), "delta {step}");
            cache = checker.detach();
        }
    }
}
