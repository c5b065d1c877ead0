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
//! # Slot allocation and the level schedule
//!
//! Every instruction writes one [`Bitset`] slot. Instructions are
//! scheduled by DAG *level* (an instruction's level is one more than
//! the deepest of its operands), and a slot is recycled one level
//! after its last reader's level (roots are pinned) — so two
//! instructions on the same level never alias each other's operands
//! and the whole level can execute concurrently. Peak memory stays
//! bounded by the width of the instruction DAG, not its node count — a
//! deep chain of diamonds runs in two slots however long it is. All
//! slot writes are full overwrites, so recycled storage is reused
//! without clearing.
//!
//! # Diamond strategies
//!
//! Diamond instructions have **three** implementations, chosen per
//! instruction at execution time ([`DiamondMode::Auto`]):
//!
//! * **forward** — walk the relation's CSR successor rows testing bits
//!   of `‖φ‖`, with early exit at the grade (the recursive evaluator's
//!   strategy; cost ≈ worlds + stored successor pairs — the
//!   `assign_from_fn` sweep visits every world even when its row is
//!   empty);
//! * **dense reverse** — union the relation's predecessor bit rows
//!   ([`Kripke::predecessor_rows`]) over `iter_ones(‖φ‖)`; cost ≈
//!   `|‖φ‖| × n/64` word ORs, a large win when `‖φ‖` is sparse. Only
//!   legal for grade-1 diamonds on models whose n²-bit predecessor
//!   matrix fits under [`REVERSE_WORD_CAP`];
//! * **CSC gather** — walk the relation's CSC predecessor lists
//!   ([`Kripke::predecessors_csc`]) over `iter_ones(‖φ‖)`: `out ∪=
//!   preds(u)` for grade 1, a counting scatter for grade ≥ 2. Cost ≈
//!   the predecessor entries of the satisfying worlds; `O(n + edges)`
//!   storage, so it is legal at **any** model size and any grade — the
//!   path that keeps reverse evaluation reachable on huge sparse
//!   models beyond the dense cap.
//!
//! Under [`DiamondMode::Auto`] the three are compared by a measured
//! cost model (in the shared "entry ops" currency):
//!
//! * forward: `targets + n` (the sweep visits every world, empty row
//!   or not — comparing against the pair count alone was a bug: a
//!   sparse relation over a large universe made the forward walk look
//!   free when its `O(n)` sweep dominated);
//! * dense reverse: `|‖φ‖| × row_words`, `∞` when illegal;
//! * CSC: `|‖φ‖| + Σ_{u ∈ ‖φ‖} |preds(u)|`, plus `n/64` (zeroing) for
//!   grade 1 or `n` (the counts array) for graded — graded diamonds
//!   are costed via actual CSC row lengths instead of being forced
//!   forward.
//!
//! Ties break toward forward, then dense. The explicit modes pin one
//! implementation (tests sweep all four modes in-process).
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
//! Fixpoint instructions price into the shared work currency at twice
//! their body's per-iteration work plus an `n/8` flip term (the
//! flip-once amortization above), which keeps
//! [`ModelChecker::estimate_work`] — and therefore serve admission —
//! honest about iterate-until-stable batches. Fixpoint instructions
//! run on the sequential instruction path (their *body* ops still
//! chunk over the pool); scheduling one as a level-parallel chunk
//! would nest pool dispatches from a worker thread.
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
//! * `¬`, `∧`, `∨`: the union of the operands' flips;
//! * `⟨α⟩`: the directly read worlds plus the predecessors, under `α`
//!   alone ([`Kripke::predecessors_csc`]), of the inner flips.
//!
//! Each op runs one point loop over its candidates, the same function
//! per world as the dense evaluator. Once the candidates reach a quarter of
//! the universe it recomputes the op densely and diffs the words
//! instead. Either way it records the worlds that actually flipped, and
//! these seed the op's consumers, so a change the formula cannot
//! observe dies out after one ring. The callers keep what differs:
//! `Var` and nested fixpoints (iteration), fixpoints rebuilt wholesale
//! after a delta (repair), where values are stored, and their stats.
//!
//! # Parallel execution
//!
//! [`Plan::execute`] runs on the persistent worker pool
//! ([`portnum_graph::pool`]) along two axes, both gated by a
//! [`Parallelism`] value — in production [`Parallelism::Auto`], the
//! shared work threshold ([`portnum_graph::partition::threads_for`]) —
//! so tiny models stay on the sequential fast path:
//!
//! * **within an instruction** — `Prop` and forward diamonds split the
//!   world range at 64-aligned, work-weighted boundaries (the CSR
//!   offsets are the work prefix-sums) and fill disjoint word ranges
//!   of the output slot; dense reverse diamonds split `iter_ones(‖φ‖)`
//!   at popcount quantiles into per-chunk partial unions merged with
//!   [`Bitset::or_assign`]; CSC gathers split the *entry* space at
//!   equal-count boundaries that may fall inside a single hub world's
//!   predecessor row, so one high-degree world can no longer serialise
//!   a chunk;
//! * **across instructions** — all instructions of one DAG level are
//!   independent (the level-aware slot allocator guarantees no
//!   aliasing), so a wide level executes as one pool call with one
//!   chunk per instruction.
//!
//! Forward sweeps (sequential and chunked alike) are additionally
//! tiled over the shared cache-block geometry
//! ([`portnum_graph::blocking`]) with row-bound/row-target lookahead
//! prefetch — a pure traversal-order-and-hint layer.
//!
//! Both axes write only per-chunk state, so results are bit-identical
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

use crate::error::LogicError;
use crate::formula::{Formula, FormulaKind};
use crate::kripke::Kripke;
use portnum_graph::bitset::{fill_words_from_fn, Bitset};
use portnum_graph::blocking;
use portnum_graph::csc::CscAdjacency;
use portnum_graph::partition::{encode_threads, quantile_ranges, FxHashMap, Parallelism};
use portnum_graph::pool::WorkerPool;
use portnum_graph::resilience::{ExecControl, Interrupted};
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Strategy selection for diamond instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DiamondMode {
    /// Choose per instruction by the three-way cost model (the
    /// default).
    #[default]
    Auto,
    /// Always walk the forward CSR rows.
    Forward,
    /// Evaluate through predecessors, picking the denser store when
    /// legal: the [`BitMatrix`](portnum_graph::bitset::BitMatrix) rows
    /// for grade-1 diamonds on models under [`REVERSE_WORD_CAP`], the
    /// CSC gather everywhere else (graded diamonds, over-cap models) —
    /// the forward sweep is never taken. Check
    /// [`ExecStats::reverse_diamonds`] / [`ExecStats::csc_diamonds`]
    /// when pinning this mode for a measurement.
    Reverse,
    /// Always use the CSC gather ([`Kripke::predecessors_csc`]), any
    /// grade, any model size.
    Csc,
}

/// Predecessor matrices larger than this many `u64` words (16 MiB) are
/// never built by the evaluator — beyond it the n²-bit dense reverse
/// storage stops paying for itself and the reverse diamond path runs
/// on the `O(n + edges)` CSC store instead ([`DiamondMode::Csc`]'s
/// implementation, which the cost model and [`DiamondMode::Reverse`]
/// fall through to).
pub const REVERSE_WORD_CAP: usize = 1 << 21;

/// The effective dense cap, overridable for tests (differential suites
/// shrink it so small proptest models exercise the over-cap CSC path).
static REVERSE_WORD_CAP_OVERRIDE: AtomicUsize = AtomicUsize::new(REVERSE_WORD_CAP);

fn reverse_word_cap() -> usize {
    REVERSE_WORD_CAP_OVERRIDE.load(Ordering::Relaxed)
}

/// Shrinks (or restores) the dense predecessor-matrix cap for this
/// process. Test-only: lets differential suites push proptest-sized
/// models above the cap so the CSC path actually fires. Affects every
/// subsequent `Auto`/`Reverse` strategy choice in the process — do not
/// mix with tests that pin strategy *counts* under the default cap in
/// the same binary.
#[doc(hidden)]
pub fn set_reverse_word_cap_for_tests(words: usize) {
    REVERSE_WORD_CAP_OVERRIDE.store(words, Ordering::Relaxed);
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
/// body is never compacted or level-scheduled — it executes in id
/// order over a dense per-op value store that persists across
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
    /// Diamonds evaluated by dense predecessor-row unions
    /// ([`Kripke::predecessor_rows`]).
    pub reverse_diamonds: usize,
    /// Diamonds evaluated by the CSC predecessor gather
    /// ([`Kripke::predecessors_csc`]) — the reverse path that works
    /// beyond [`REVERSE_WORD_CAP`] and for graded diamonds.
    pub csc_diamonds: usize,
    /// Instructions whose per-world loop was split into pool chunks
    /// (world-range splits for `Prop`/forward diamonds, `iter_ones`
    /// splits for reverse diamonds).
    pub chunked_ops: usize,
    /// Instructions executed concurrently with same-level siblings
    /// (instruction-level parallelism over the plan DAG).
    pub level_parallel_ops: usize,
    /// Fixpoint instructions executed (each runs one
    /// iterate-until-stable loop over its body).
    pub fixpoints: usize,
    /// Total Kleene iterations across all fixpoint instructions
    /// (nested fixpoints included).
    pub fixpoint_iters: usize,
    /// World-bits re-evaluated by frontier iteration passes: the
    /// point-repaired candidate worlds, plus `n` for every body op
    /// that fell back to a dense recompute. The o(n · iters) figure
    /// the differential suite pins on path-shaped models.
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
        self.reverse_diamonds += other.reverse_diamonds;
        self.csc_diamonds += other.csc_diamonds;
        self.chunked_ops += other.chunked_ops;
        self.level_parallel_ops += other.level_parallel_ops;
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
    /// Instruction ids grouped by DAG level (ascending id within a
    /// level); level `l` is `sched[level_bounds[l]..level_bounds[l+1]]`.
    /// A valid topological order, and the executor's schedule.
    sched: Vec<u32>,
    level_bounds: Vec<usize>,
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

        // DAG levels: leaves at 0, every instruction one past its
        // deepest operand. Instructions of a level share no data
        // dependency, so a level is the executor's unit of
        // instruction-level parallelism.
        let m = compact.len();
        let mut level = vec![0u32; m];
        let mut num_levels = 0usize;
        for (id, op) in compact.iter().enumerate() {
            let mut l = 0u32;
            op.for_each_operand(|a| l = l.max(level[a as usize] + 1));
            level[id] = l;
            num_levels = num_levels.max(l as usize + 1);
        }
        // Counting sort of instruction ids by level (stable, so ids
        // ascend within a level).
        let mut level_bounds = vec![0usize; num_levels + 1];
        for &l in &level {
            level_bounds[l as usize + 1] += 1;
        }
        for l in 0..num_levels {
            level_bounds[l + 1] += level_bounds[l];
        }
        let mut cursor = level_bounds.clone();
        let mut sched = vec![0u32; m];
        for (id, &l) in level.iter().enumerate() {
            sched[cursor[l as usize]] = id as u32;
            cursor[l as usize] += 1;
        }

        // Liveness by level: a slot is reusable starting one level
        // after its deepest reader (roots are pinned), so within a
        // level no destination ever aliases a sibling's operand — the
        // invariant that makes level-parallel execution sound.
        let mut free_level = vec![0u32; m];
        for (id, op) in compact.iter().enumerate() {
            op.for_each_operand(|a| {
                free_level[a as usize] = free_level[a as usize].max(level[id]);
            });
        }
        for &r in &roots {
            free_level[r as usize] = u32::MAX;
        }
        let mut free_bucket: Vec<Vec<u32>> = vec![Vec::new(); num_levels];
        for (id, &fl) in free_level.iter().enumerate() {
            if fl != u32::MAX {
                free_bucket[fl as usize].push(id as u32);
            }
        }

        let mut dst = vec![0u32; m];
        let mut free: Vec<u32> = Vec::new();
        let mut slot_count = 0usize;
        for l in 0..num_levels {
            if l > 0 {
                for &a in &free_bucket[l - 1] {
                    free.push(dst[a as usize]);
                }
            }
            for &id in &sched[level_bounds[l]..level_bounds[l + 1]] {
                dst[id as usize] = free.pop().unwrap_or_else(|| {
                    slot_count += 1;
                    (slot_count - 1) as u32
                });
            }
        }

        let stats = PlanStats {
            ast_nodes,
            instructions: compact.len(),
            dedup_hits: dedup,
            slots: slot_count,
        };
        Plan { n, ops: compact, bodies, dst, slot_count, sched, level_bounds, roots, stats }
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
    /// per input formula, in input order. Heavy instructions (and wide
    /// DAG levels) run on the persistent worker pool — see the module
    /// docs — while small plans stay on the sequential fast path.
    ///
    /// # Panics
    ///
    /// Panics if `model` has a different number of worlds than the
    /// model the plan was compiled for (compile and execute against the
    /// same model).
    pub fn execute(&self, model: &Kripke) -> Vec<Bitset> {
        self.execute_with(model, DiamondMode::Auto).0
    }

    /// Executes the plan level by level with the given diamond
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

    /// Estimated work of one instruction, in the same "words of work"
    /// currency as [`Parallelism::Auto`]'s gate (refinement signature words
    /// ≈ a few ns each): connectives are word-parallel (`n/64`),
    /// `Prop` compares one degree per world, diamonds sweep every
    /// world plus every stored successor pair.
    fn op_work(&self, model: &Kripke, id: u32) -> usize {
        op_work_for(model, &self.bodies, self.ops[id as usize])
    }

    /// The full executor: `par` decides how thread counts resolve
    /// ([`Parallelism::Auto`] in production; `Force`/`Off` pin the
    /// pool-driven or sequential paths for differential tests and
    /// benches — output is bit-identical either way, and orthogonal to
    /// the [`DiamondMode`] strategy), and `ctl` is polled at every
    /// instruction boundary (and, through the pool, at every chunk
    /// boundary of a level-parallel step), so cancel-to-error latency is
    /// bounded by one instruction/chunk granule. Budget semantics:
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
        // the parallel paths add up to one partial bitset per pool
        // thread (reverse/CSC gather partials, level outputs). When
        // that sum would cross the ceiling, degrade to sequential —
        // the query still answers, just without the partials.
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
        for l in 0..self.level_bounds.len() - 1 {
            let ids = &self.sched[self.level_bounds[l]..self.level_bounds[l + 1]];
            let level_work: usize = ids.iter().map(|&id| self.op_work(model, id)).sum();
            let heaviest: usize =
                ids.iter().map(|&id| self.op_work(model, id)).max().unwrap_or(0);
            // Instruction-level parallelism only when no sibling
            // dominates the level: a level that is mostly one heavy
            // diamond speeds up more by splitting that instruction's
            // world range (below) than by running its cheap siblings
            // alongside it. Levels carrying a fixpoint stay on the
            // sequential path: the iterate-until-stable loop chunks
            // its own body ops over the pool, and a pool worker must
            // never dispatch a nested pool call.
            if ids.len() > 1
                && par.threads(level_work) > 1
                && heaviest * 2 <= level_work
                && !ids.iter().any(|&id| matches!(self.ops[id as usize], Op::Fixpoint(_)))
            {
                fail::fail_point!("plan-instr");
                touched += level_work;
                ctl.check_work(touched)?;
                self.exec_level_parallel(model, mode, ids, &mut slots, &mut stats, ctl)?;
                continue;
            }
            for &id in ids {
                // Chaos site at the instruction boundary: all executor
                // state is call-local, so a panic or interruption here
                // publishes nothing.
                fail::fail_point!("plan-instr");
                touched += self.op_work(model, id);
                ctl.check_work(touched)?;
                let dst = self.dst[id as usize] as usize;
                // Take the output slot so operand slots stay
                // borrowable; every arm fully overwrites it (recycled
                // contents are stale by design).
                let mut out = std::mem::take(&mut slots[dst]);
                let op = self.ops[id as usize];
                if let Op::Fixpoint(b) = op {
                    eval_fixpoint_into(
                        model,
                        mode,
                        &self.bodies,
                        b,
                        &|a| &slots[self.dst[a as usize] as usize],
                        &mut out,
                        &mut stats,
                        ctl,
                        par,
                    )?;
                    stats.executed += 1;
                    slots[dst] = out;
                    continue;
                }
                let op_threads = match op {
                    Op::Prop(_) | Op::Diamond { .. } => par.threads(self.op_work(model, id)),
                    _ => 1,
                };
                if op_threads > 1 {
                    eval_op_chunked(
                        model,
                        mode,
                        op,
                        |a| &slots[self.dst[a as usize] as usize],
                        &mut out,
                        &mut stats,
                        op_threads,
                    );
                } else {
                    eval_op_into(
                        model,
                        mode,
                        op,
                        |a| &slots[self.dst[a as usize] as usize],
                        &mut out,
                        &mut stats,
                    );
                }
                stats.executed += 1;
                slots[dst] = out;
            }
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
        if stats.chunked_ops > 0 || stats.level_parallel_ops > 0 {
            stats.dispatch_cost_ns = WorkerPool::global().dispatch_cost_ns();
        }
        Ok((results, stats))
    }

    /// Executes one DAG level's instructions concurrently, one pool
    /// chunk per instruction. Sound because the level-aware slot
    /// allocator guarantees the level's destinations are pairwise
    /// distinct and disjoint from every operand slot still live at
    /// this level; each chunk owns exactly its destination.
    fn exec_level_parallel(
        &self,
        model: &Kripke,
        mode: DiamondMode,
        ids: &[u32],
        slots: &mut [Bitset],
        stats: &mut ExecStats,
        ctl: &ExecControl,
    ) -> Result<(), Interrupted> {
        let outs: Vec<Mutex<(Bitset, ExecStats)>> = ids
            .iter()
            .map(|&id| {
                let taken = std::mem::take(&mut slots[self.dst[id as usize] as usize]);
                Mutex::new((taken, ExecStats::default()))
            })
            .collect();
        let slots_ref: &[Bitset] = slots;
        WorkerPool::global().run_controlled(ids.len(), ctl, &|i| {
            let mut guard = outs[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let (out, chunk_stats) = &mut *guard;
            eval_op_into(
                model,
                mode,
                self.ops[ids[i] as usize],
                |a| &slots_ref[self.dst[a as usize] as usize],
                out,
                chunk_stats,
            );
        })?;
        for (&id, out) in ids.iter().zip(outs) {
            let (out, chunk_stats) =
                out.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
            slots[self.dst[id as usize] as usize] = out;
            stats.absorb(chunk_stats);
            stats.executed += 1;
            stats.level_parallel_ops += 1;
        }
        Ok(())
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
/// operand truth vectors through `operand`. The single evaluation
/// engine shared by [`Plan::execute_with`] (slot-backed operands) and
/// [`ModelChecker`] (`Rc`-cached operands), so the two cannot drift.
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
/// instructions do.
#[allow(clippy::too_many_arguments)]
fn body_dense_pass(
    model: &Kripke,
    mode: DiamondMode,
    bodies: &[FixBody],
    body: &FixBody,
    x: &Bitset,
    arg_vals: &[&Bitset],
    vals: &mut [Bitset],
    stats: &mut ExecStats,
    ctl: &ExecControl,
    par: Parallelism,
) -> Result<(), Interrupted> {
    for i in 0..body.ops.len() {
        let op = body.ops[i];
        // Take the value slot so sibling slots stay borrowable; every
        // arm fully overwrites it.
        let mut out = std::mem::take(&mut vals[i]);
        match op {
            Op::Var => out.copy_from(x),
            Op::Arg(k) => out.copy_from(arg_vals[k as usize]),
            Op::Fixpoint(b) => {
                eval_fixpoint_into(
                    model,
                    mode,
                    bodies,
                    b,
                    &|a| &vals[a as usize],
                    &mut out,
                    stats,
                    ctl,
                    par,
                )?;
            }
            _ => {
                let op_threads = match op {
                    Op::Prop(_) | Op::Diamond { .. } => par.threads(op_work_for(model, bodies, op)),
                    _ => 1,
                };
                if op_threads > 1 {
                    eval_op_chunked(model, mode, op, |a| &vals[a as usize], &mut out, stats, op_threads);
                } else {
                    eval_op_into(model, mode, op, |a| &vals[a as usize], &mut out, stats);
                }
            }
        }
        vals[i] = out;
    }
    Ok(())
}

/// One frontier pass over a fixpoint body: repairs the persistent
/// per-op values in place through the change-propagation kernel
/// ([`propagate_op`]), seeded by `x_changed`, the accumulator's flips,
/// at the `Var` op. The repaired values are bit-identical to a dense
/// pass — the contract the differential µ suite pins. Flips land in
/// `changed[i]` (ascending, deduplicated); `changed[body.root]` is the
/// accumulator's next flip set.
#[allow(clippy::too_many_arguments)]
fn body_frontier_pass(
    model: &Kripke,
    mode: DiamondMode,
    bodies: &[FixBody],
    body: &FixBody,
    x: &Bitset,
    x_changed: &[u32],
    vals: &mut [Bitset],
    changed: &mut [Vec<u32>],
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
        match op {
            // `Var` holds the previous accumulator, which moved exactly
            // at its recorded flips.
            Op::Var => {
                for &v in x_changed {
                    cur.set(v as usize, x.get(v as usize));
                }
                flips.clear();
                flips.extend_from_slice(x_changed);
                stats.fixpoint_frontier_worlds += x_changed.len();
            }
            // A nested fixpoint re-runs whenever any of its external
            // inputs flipped (its own executor starts dense again — its
            // accumulator restarts from ⊥/⊤, so stale per-iteration
            // state cannot be reused); the flips its consumers need fall
            // out of a word diff.
            Op::Fixpoint(b) => {
                flips.clear();
                if bodies[b as usize].args.iter().any(|&a| !prev_changed[a as usize].is_empty()) {
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
                    )?;
                    cur.for_each_difference(&next, |v| flips.push(v as u32));
                    *cur = next;
                }
            }
            // The model is fixed for the whole run, so no op reads a
            // changed world directly.
            _ => match propagate_op(
                model,
                mode,
                op,
                |a| &prev[a as usize],
                |a| prev_changed[a as usize].as_slice(),
                &[],
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
/// `flips` is overwritten with the worlds where `cur` flipped,
/// ascending. `cur` is only fetched when some candidate exists, so a
/// copy-on-write store is never copied for a clean op. `Var` and
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
    // Candidate worlds, ascending and deduplicated.
    let candidates: Vec<u32> = match op {
        Op::Top | Op::Bottom | Op::Arg(_) => Vec::new(),
        Op::Prop(_) => direct.to_vec(),
        Op::Not(a) => flips_of(a).to_vec(),
        Op::And(a, b) | Op::Or(a, b) => {
            let mut c: Vec<u32> = flips_of(a).iter().chain(flips_of(b)).copied().collect();
            c.sort_unstable();
            c.dedup();
            c
        }
        Op::Diamond { rel, inner, .. } => {
            let mut c = direct.to_vec();
            let inner_flips = flips_of(inner);
            if !inner_flips.is_empty() {
                let csc = model.predecessors_csc(rel as usize);
                for &w in inner_flips {
                    c.extend_from_slice(csc.row(w as usize));
                }
                c.sort_unstable();
                c.dedup();
            }
            c
        }
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

/// Iterate-until-stable evaluation of one [`Op::Fixpoint`]
/// instruction: Kleene iteration of `bodies[b]` from ⊥ (µ) or ⊤ (ν),
/// with the first iteration dense and every later one a frontier pass
/// — see the module docs. The accumulator is advanced by applying the
/// root op's recorded flips, so a frontier iteration costs
/// O(frontier); the empty flip set is the convergence test. `arg_of` resolves the
/// body's external inputs in the enclosing context (plan slots,
/// checker caches, or an enclosing body's value store — never invoked
/// for a top-level fixpoint, whose body is closed).
///
/// Bit-identical to the naive Kleene reference: every pass computes
/// exactly `body(Xᵢ)` (ops are deterministic functions of their
/// operands, and point repair re-evaluates the same function
/// per world), and both engines stop at the first `Xᵢ₊₁ = Xᵢ`.
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
) -> Result<(), Interrupted> {
    let body = &bodies[b as usize];
    let n = model.len();
    let arg_vals: Vec<&Bitset> = body.args.iter().map(|&a| arg_of(a)).collect();
    let mut vals: Vec<Bitset> = (0..body.ops.len()).map(|_| Bitset::default()).collect();
    let mut changed: Vec<Vec<u32>> = vec![Vec::new(); body.ops.len()];
    let mut x = if body.greatest { Bitset::ones(n) } else { Bitset::zeros(n) };
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
        if iters == 1 {
            stats.fixpoint_dense_passes += 1;
            body_dense_pass(model, mode, bodies, body, &x, &arg_vals, &mut vals, stats, ctl, par)?;
            x_changed.clear();
            x.for_each_difference(&vals[body.root as usize], |v| x_changed.push(v as u32));
        } else {
            body_frontier_pass(
                model, mode, bodies, body, &x, &x_changed, &mut vals, &mut changed, stats, ctl,
                par,
            )?;
            x_changed.clear();
            x_changed.extend_from_slice(&changed[body.root as usize]);
        }
        if x_changed.is_empty() {
            break;
        }
        // Advance the accumulator by its flips — O(frontier), not
        // O(n), which is what keeps total fixpoint cost proportional
        // to flip volume instead of n × iterations.
        let root_val = &vals[body.root as usize];
        for &v in &x_changed {
            x.set(v as usize, root_val.get(v as usize));
        }
    }
    out.copy_from(&x);
    Ok(())
}

/// The three diamond implementations (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiamondImpl {
    Forward,
    Dense,
    Csc,
}

/// Picks the implementation of one diamond instruction — the single
/// decision point shared by the sequential and chunked diamond
/// evaluators, so a parallel run can never pick a different strategy
/// (and therefore different stats) than a sequential one.
///
/// The `Auto` cost model compares, in "entry ops":
///
/// * forward: `targets.len() + n` — the `assign_from_fn` sweep visits
///   every world even when its CSR row is empty (comparing against
///   `targets.len()` alone once made sparse relations over large
///   universes wrongly pick the forward path);
/// * dense reverse: `|‖φ‖| × row_words` word ORs, legal only for
///   grade 1 under the dense cap;
/// * CSC gather: `|‖φ‖|` row lookups plus the *actual* predecessor
///   entries of the satisfying worlds (read off the CSC bounds — this
///   is why the store is built before costing), plus `n/64` for the
///   grade-1 zeroing or `n` for the graded counts array.
///
/// Ties break toward forward, then dense; explicit modes are taken
/// verbatim.
fn diamond_impl(
    model: &Kripke,
    mode: DiamondMode,
    rel: usize,
    grade: usize,
    sat: &Bitset,
    targets_len: usize,
) -> DiamondImpl {
    let dense_legal = grade == 1 && model.predecessor_matrix_words() <= reverse_word_cap();
    match mode {
        DiamondMode::Forward => DiamondImpl::Forward,
        DiamondMode::Csc => DiamondImpl::Csc,
        DiamondMode::Reverse => {
            if dense_legal {
                DiamondImpl::Dense
            } else {
                DiamondImpl::Csc
            }
        }
        DiamondMode::Auto => {
            let n = model.len();
            let ones = sat.count_ones();
            let forward_cost = targets_len + n;
            let dense_cost = if dense_legal { ones * sat.words().len() } else { usize::MAX };
            // CSC cost: the fixed part (row lookups + zeroing or the
            // counts array) plus the actual predecessor entries of the
            // satisfying worlds. The summation stops — and the store is
            // not even built — once the running cost reaches the
            // cheaper alternative: past that point the winner cannot
            // change, and a near-full ‖φ‖ would otherwise pay O(|‖φ‖|)
            // lookups per execution just to re-learn that forward wins.
            let budget = forward_cost.min(dense_cost);
            let mut csc_cost = ones + if grade == 1 { n / 64 } else { n };
            if csc_cost < budget {
                let csc = model.predecessors_csc(rel);
                for u in sat.iter_ones() {
                    csc_cost += csc.row_len(u);
                    if csc_cost >= budget {
                        break;
                    }
                }
            }
            if forward_cost <= dense_cost && forward_cost <= csc_cost {
                DiamondImpl::Forward
            } else if dense_cost <= csc_cost {
                DiamondImpl::Dense
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
/// once each, matching the forward walk's semantics).
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
        let mut counts = vec![0u32; n];
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
/// CSR walk, the dense predecessor-row union, or the CSC gather per
/// the mode and the cost model (see [`diamond_impl`]). Shared by
/// [`Plan`] and [`ModelChecker`].
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
        DiamondImpl::Dense => {
            stats.reverse_diamonds += 1;
            let pred = model.predecessor_rows(rel);
            out.assign_zeros(n);
            for w in sat.iter_ones() {
                out.or_words(pred.row(w));
            }
        }
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
                DiamondImpl::Dense => {
                    stats.reverse_diamonds += 1;
                    stats.chunked_ops +=
                        reverse_diamond_chunked(model, rel as usize, sat, out, threads) as usize;
                }
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

/// The pool scaffold of the *dense* reverse diamond path:
/// `iter_ones(‖φ‖)` is split at word boundaries balanced by popcount,
/// each chunk runs `gather(world, partial)` for its satisfying worlds
/// into a private partial `Bitset`, and the partials are OR-merged (in
/// chunk order — though OR makes any order bit-identical). Empty or
/// single-chunk sets run inline into `out`. Returns whether the work
/// was actually split. (The CSC path shards finer — at entry
/// granularity, see [`EntryShards`] — because its per-world cost is a
/// row walk, not a fixed-width word OR.)
fn gather_ones_chunked(
    n: usize,
    sat: &Bitset,
    threads: usize,
    out: &mut Bitset,
    gather: &(dyn Fn(usize, &mut Bitset) + Sync),
) -> bool {
    let sat_words = sat.words();
    // Popcount prefix over sat's words, the work array of the quantile
    // split (universe = word indices, not worlds).
    let wn = sat_words.len();
    let mut ones_prefix = Vec::with_capacity(wn + 1);
    ones_prefix.push(0usize);
    for (i, &w) in sat_words.iter().enumerate() {
        ones_prefix.push(ones_prefix[i] + w.count_ones() as usize);
    }
    let ranges = if ones_prefix[wn] == 0 {
        Vec::new()
    } else {
        quantile_ranges(wn, threads, 1, |i| ones_prefix[i])
    };
    if ranges.len() <= 1 {
        out.assign_zeros(n);
        for w in sat.iter_ones() {
            gather(w, out);
        }
        return false;
    }
    let partials: Vec<Mutex<Bitset>> =
        (0..ranges.len()).map(|_| Mutex::new(Bitset::zeros(n))).collect();
    WorkerPool::global().run(ranges.len(), &|i| {
        let mut acc = partials[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for wi in ranges[i].clone() {
            let mut word = sat_words[wi];
            while word != 0 {
                let w = wi * 64 + word.trailing_zeros() as usize;
                gather(w, &mut acc);
                word &= word - 1;
            }
        }
    });
    out.assign_zeros(n);
    for partial in &partials {
        out.or_assign(&partial.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
    }
    true
}

/// Dense reverse diamond over the pool: each satisfying world ORs its
/// whole predecessor bit row into the chunk partial.
fn reverse_diamond_chunked(
    model: &Kripke,
    rel: usize,
    sat: &Bitset,
    out: &mut Bitset,
    threads: usize,
) -> bool {
    let pred = model.predecessor_rows(rel);
    gather_ones_chunked(model.len(), sat, threads, out, &|w, acc| acc.or_words(pred.row(w)))
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
    /// Diamonds evaluated forward / dense-reverse / CSC-reverse.
    pub forward_diamonds: usize,
    /// See [`CheckerStats::forward_diamonds`].
    pub reverse_diamonds: usize,
    /// See [`CheckerStats::forward_diamonds`].
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
    /// frontier.
    pub repaired_vectors: usize,
    /// Total world-bits recomputed across all point repairs (`≤
    /// repaired_vectors × n`; on a localized delta, `≪`).
    pub repaired_worlds: usize,
    /// Cached truth vectors recomputed wholesale because their dirty
    /// frontier grew past the dense fallback threshold (a quarter of
    /// the universe).
    pub rebuilt_vectors: usize,
    /// Size of the largest dirty frontier used by a point repair.
    pub max_frontier: usize,
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
    lw: Lowerer,
    retained: Vec<Formula>,
    results: Vec<Option<Rc<Bitset>>>,
    mode: DiamondMode,
    quotient: Option<Rc<(Kripke, Vec<usize>)>>,
    quotient_repaired: bool,
    computed: usize,
    quotient_computed: usize,
    exec: ExecStats,
    published_words: usize,
    /// [`Kripke::version`] at detach time; resume debug-asserts the
    /// caller passed a touched set whenever the version moved.
    model_version: u64,
    n: usize,
}

impl CheckerCache {
    /// Total `u64` words held by the cached truth vectors — the
    /// detached cache's resident size, which a serving layer adds to
    /// the model's own footprint when pricing an entry against a
    /// memory budget. Computed from what is actually cached (repairs
    /// and budget-gated commits included), not from a running
    /// counter.
    pub fn cached_words(&self) -> usize {
        self.results.iter().flatten().map(|b| b.words().len()).sum()
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
    /// What the latest [`Self::resume`] repair pass did, if any.
    last_repair: Option<RepairStats>,
}

impl<'m> ModelChecker<'m> {
    /// A fresh checker for `model` using [`DiamondMode::Auto`].
    pub fn new(model: &'m Kripke) -> Self {
        Self::with_mode(model, DiamondMode::Auto)
    }

    /// A fresh checker with an explicit diamond strategy (benches pin
    /// forward vs. reverse with this).
    pub fn with_mode(model: &'m Kripke, mode: DiamondMode) -> Self {
        ModelChecker {
            model,
            lw: Lowerer::default(),
            retained: Vec::new(),
            results: Vec::new(),
            mode,
            quotient: None,
            quotient_repaired: false,
            computed: 0,
            quotient_computed: 0,
            exec: ExecStats::default(),
            published_words: 0,
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
        if let Some(cached) = &self.results[root as usize] {
            return Ok(Rc::clone(cached));
        }
        let mut out = self.eval_needed(&[root], ctl)?;
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
        let mut roots = Vec::with_capacity(formulas.len());
        for formula in formulas {
            roots.push(self.lower_retaining(formula)?);
        }
        self.results.resize(self.lw.ops.len(), None);
        Ok(self.eval_needed(&roots, ctl)?)
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
        let mut roots = Vec::with_capacity(formulas.len());
        for formula in formulas {
            roots.push(self.lower_retaining(formula)?);
        }
        self.results.resize(self.lw.ops.len(), None);
        let mut visited = vec![false; self.lw.ops.len()];
        let mut stack = roots;
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
        Ok(work)
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
    fn eval_needed(
        &mut self,
        roots: &[u32],
        ctl: &ExecControl,
    ) -> Result<Vec<Rc<Bitset>>, Interrupted> {
        let mut needed: Vec<u32> = Vec::new();
        let mut visited = vec![false; self.lw.ops.len()];
        let mut stack = roots.to_vec();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut visited[id as usize], true)
                || self.results[id as usize].is_some()
            {
                continue;
            }
            needed.push(id);
            self.lw.ops[id as usize].for_each_operand(|a| stack.push(a));
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
            if let Op::Fixpoint(b) = self.lw.ops[id as usize] {
                // Top-level fixpoint bodies are closed (a free variable is
                // a lowering error), so the arg resolver is never called;
                // the iteration runs sequentially inside the checker.
                eval_fixpoint_into(
                    self.model,
                    self.mode,
                    &self.lw.bodies,
                    b,
                    &operand,
                    &mut out,
                    &mut exec,
                    ctl,
                    Parallelism::Off,
                )?;
            } else {
                eval_op_into(self.model, self.mode, self.lw.ops[id as usize], operand, &mut out, &mut exec);
            }
            staged.push((id, Rc::new(out)));
        }
        let root_vecs = roots
            .iter()
            .map(|&root| match staged.binary_search_by_key(&root, |&(id, _)| id) {
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
    /// brought back with [`Self::resume`] — the live-update handshake:
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
    pub fn detach(self) -> CheckerCache {
        CheckerCache {
            lw: self.lw,
            retained: self.retained,
            results: self.results,
            mode: self.mode,
            quotient: self.quotient,
            quotient_repaired: self.quotient_repaired,
            computed: self.computed,
            quotient_computed: self.quotient_computed,
            exec: self.exec,
            published_words: self.published_words,
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
    /// wholesale. Fixpoints read the model at unbounded depth and are
    /// always recomputed. Every path is pinned bit-identical to a fresh
    /// checker by the differential delta suite, and
    /// [`Self::last_repair`] reports which path each vector took.
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
            retained: cache.retained,
            results: cache.results,
            mode: cache.mode,
            quotient: cache.quotient,
            quotient_repaired: cache.quotient_repaired,
            computed: cache.computed,
            quotient_computed: cache.quotient_computed,
            exec: cache.exec,
            published_words: cache.published_words,
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
                // so no frontier bound holds after a delta: rebuild it
                // wholesale (its own executor still iterates by
                // frontier) and let the word diff drive its consumers.
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
                )
                .expect("unrestricted control never interrupts");
                existing.for_each_difference(&out, |v| flips.push(v as u32));
                existing = Rc::new(out);
                Propagation::Dense
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
        self.exec.reverse_diamonds += exec.reverse_diamonds;
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
            reverse_diamonds: self.exec.reverse_diamonds,
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
            let (rev, sr) = plan.execute_with(&k, DiamondMode::Reverse);
            let (csc, sc) = plan.execute_with(&k, DiamondMode::Csc);
            assert_eq!(fwd, rev);
            assert_eq!(fwd, csc);
            assert_eq!(sf.reverse_diamonds + sf.csc_diamonds, 0);
            assert_eq!(sr.forward_diamonds, 0);
            assert!(sr.reverse_diamonds > 0);
            assert_eq!(sc.forward_diamonds + sc.reverse_diamonds, 0);
            assert!(sc.csc_diamonds > 0);
        }
    }

    #[test]
    fn graded_diamonds_count_via_csc_under_reverse() {
        // Dense bit rows cannot count, so a graded diamond pinned to
        // the reverse path runs the CSC counting gather (before the
        // CSC store existed it had to fall back to the forward walk).
        let k = Kripke::k_mm(&generators::star(4));
        let f = Formula::diamond_geq(ModalIndex::Any, 2, &Formula::prop(1));
        let plan = Plan::compile(&k, &f).unwrap();
        let (mut out, stats) = plan.execute_with(&k, DiamondMode::Reverse);
        assert_eq!(stats.csc_diamonds, 1, "graded reverse counts via CSC: {stats:?}");
        assert_eq!(stats.forward_diamonds, 0);
        assert_eq!(stats.reverse_diamonds, 0);
        assert_eq!(out.pop().unwrap(), evaluate_packed_recursive(&k, &f).unwrap());
        // Forward mode still takes the counting walk.
        let (mut out, stats) = plan.execute_with(&k, DiamondMode::Forward);
        assert_eq!(stats.forward_diamonds, 1);
        assert_eq!(out.pop().unwrap(), evaluate_packed_recursive(&k, &f).unwrap());
        // And the explicit CSC mode agrees, grade included.
        let (mut out, stats) = plan.execute_with(&k, DiamondMode::Csc);
        assert_eq!(stats.csc_diamonds, 1);
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
        // alone wrongly chose the forward path. Under the three-way
        // model the winner is the CSC gather (4 + 20 + 10 = 34 entry
        // ops vs. 4 ones × 10 row words = 40 for the dense rows).
        let k = sparse_relation_model();
        let f = Formula::diamond(ModalIndex::Any, &Formula::prop(7));
        let plan = Plan::compile(&k, &f).unwrap();
        let (mut out, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(stats.csc_diamonds, 1, "sparse relation must go reverse via CSC: {stats:?}");
        assert_eq!(stats.forward_diamonds, 0);
        assert_eq!(out.pop().unwrap(), evaluate_packed_recursive(&k, &f).unwrap());

        // Control: a dense inner set (⊤ holds everywhere: CSC touches
        // every stored edge plus every world, dense rows cost 640 ones
        // × 10 words = 6400 ≫ 660) still picks the forward walk.
        let dense = Formula::diamond(ModalIndex::Any, &Formula::top());
        let plan = Plan::compile(&k, &dense).unwrap();
        let (_, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(stats.forward_diamonds, 1, "dense inner must stay forward: {stats:?}");
        assert_eq!(stats.reverse_diamonds + stats.csc_diamonds, 0);
    }

    /// A hub model: every world points at world 0, which alone carries
    /// the marker degree. Predecessor rows are maximally dense, so the
    /// dense bit rows beat both the CSC gather (640 entries) and the
    /// forward sweep.
    fn hub_model(n: usize) -> Kripke {
        let mut degree = vec![0usize; n];
        degree[0] = 7;
        let rows: Vec<Vec<usize>> = (0..n).map(|_| vec![0usize]).collect();
        let mut relations = std::collections::BTreeMap::new();
        relations.insert(ModalIndex::Any, rows);
        Kripke::from_parts(crate::kripke::ModelVariant::MinusMinus, degree, relations).unwrap()
    }

    #[test]
    fn auto_keeps_dense_rows_for_dense_predecessors_under_the_cap() {
        // One satisfying world with 640 predecessors: dense reverse is
        // one 10-word row OR (cost 10), the CSC gather walks all 640
        // entries, the forward sweep visits 640 worlds + 640 pairs.
        let k = hub_model(640);
        assert!(k.predecessor_matrix_words() <= REVERSE_WORD_CAP);
        let f = Formula::diamond(ModalIndex::Any, &Formula::prop(7));
        let plan = Plan::compile(&k, &f).unwrap();
        let (mut out, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(stats.reverse_diamonds, 1, "dense predecessors keep BitMatrix: {stats:?}");
        assert_eq!(stats.forward_diamonds + stats.csc_diamonds, 0);
        assert_eq!(out.pop().unwrap(), evaluate_packed_recursive(&k, &f).unwrap());
    }

    #[test]
    fn auto_picks_csc_above_the_dense_cap() {
        // The acceptance scenario: a sparse model big enough that the
        // n²-bit predecessor matrix is over the cap, with a sparse
        // inner set — before the CSC store existed, this diamond was
        // silently forced onto the forward sweep.
        let n = 12_000;
        let k = Kripke::k_mm(&generators::path(n));
        assert!(
            k.predecessor_matrix_words() > REVERSE_WORD_CAP,
            "model must sit above the dense cap: {} words",
            k.predecessor_matrix_words()
        );
        // Degree 1 holds exactly at the two path endpoints.
        let f = Formula::diamond(ModalIndex::Any, &Formula::prop(1));
        let plan = Plan::compile(&k, &f).unwrap();
        let (out, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(stats.csc_diamonds, 1, "above-cap sparse diamond must go CSC: {stats:?}");
        assert_eq!(stats.forward_diamonds + stats.reverse_diamonds, 0);
        // Bit-identical to the forward engine on the same plan.
        let (fwd, fwd_stats) = plan.execute_with(&k, DiamondMode::Forward);
        assert_eq!(fwd_stats.forward_diamonds, 1);
        assert_eq!(out, fwd);
        // ⟨α⟩q₁ holds exactly at the endpoints' neighbours.
        assert_eq!(out[0].iter_ones().collect::<Vec<_>>(), vec![1, n - 2]);
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
        // A deep diamond chain on a 16×16 grid: every level is a
        // singleton, so the parallel executor must split the per-world
        // loop (the world-chunking axis) and still agree bit for bit.
        let k = Kripke::k_mm(&generators::grid(16, 16));
        let mut f = Formula::prop(4);
        for _ in 0..6 {
            f = Formula::diamond(ModalIndex::Any, &f).or(&Formula::prop(2));
        }
        let plan = Plan::compile(&k, &f).unwrap();
        for mode in
            [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Reverse, DiamondMode::Csc]
        {
            let (seq, seq_stats) = execute_pinned(&plan, &k, mode, Parallelism::Off);
            let (par, par_stats) = execute_pinned(&plan, &k, mode, Parallelism::Force);
            assert_eq!(seq, par, "mode {mode:?}");
            assert_eq!(seq_stats.executed, par_stats.executed);
            assert_eq!(seq_stats.forward_diamonds, par_stats.forward_diamonds);
            assert_eq!(seq_stats.reverse_diamonds, par_stats.reverse_diamonds);
            assert_eq!(seq_stats.csc_diamonds, par_stats.csc_diamonds);
            assert_eq!(seq_stats.chunked_ops, 0, "mode {mode:?}: {seq_stats:?}");
            assert!(par_stats.chunked_ops > 0, "mode {mode:?}: {par_stats:?}");
        }
    }

    #[test]
    fn forced_parallel_runs_wide_levels_concurrently() {
        // Eight independent diamonds under one disjunction tree: they
        // all sit on the same DAG level, so the forced executor runs
        // them as one pool batch (the instruction-level axis).
        let k = Kripke::k_mm(&generators::grid(5, 5));
        let mut f = Formula::diamond(ModalIndex::Any, &Formula::prop(0));
        for d in 1..8 {
            f = f.or(&Formula::diamond(ModalIndex::Any, &Formula::prop(d)));
        }
        let plan = Plan::compile(&k, &f).unwrap();
        let (seq, seq_stats) = plan.execute_with(&k, DiamondMode::Auto);
        let (par, par_stats) = execute_pinned(&plan, &k, DiamondMode::Auto, Parallelism::Force);
        assert_eq!(seq, par);
        assert_eq!(seq_stats.executed, par_stats.executed);
        assert!(par_stats.level_parallel_ops >= 8, "{par_stats:?}");
    }

    #[test]
    fn forced_parallel_reverse_diamonds_split_iter_ones() {
        // Pin the reverse path: sat bits spread over several words, so
        // the popcount split produces real chunks whose partial unions
        // must merge to the sequential answer.
        let k = Kripke::k_mm(&generators::cycle(200));
        let f = Formula::diamond(ModalIndex::Any, &Formula::prop(2)); // everything true inside
        let plan = Plan::compile(&k, &f).unwrap();
        let (seq, ss) = plan.execute_with(&k, DiamondMode::Reverse);
        let (par, ps) = execute_pinned(&plan, &k, DiamondMode::Reverse, Parallelism::Force);
        assert_eq!(seq, par);
        assert_eq!(ss.reverse_diamonds, 1);
        assert_eq!(ps.reverse_diamonds, 1);
        assert!(ps.chunked_ops > 0, "{ps:?}");
        // An all-false inner set is the empty-union edge case.
        let none = Formula::diamond(ModalIndex::Any, &Formula::prop(9));
        let plan = Plan::compile(&k, &none).unwrap();
        let (seq, _) = plan.execute_with(&k, DiamondMode::Reverse);
        let (par, _) = execute_pinned(&plan, &k, DiamondMode::Reverse, Parallelism::Force);
        assert_eq!(seq, par);
        assert!(seq[0].none());
    }

    #[test]
    fn forced_parallel_csc_diamonds_shard_the_entry_space() {
        // The CSC twin of the dense split test: the satisfying worlds
        // contribute hundreds of predecessor entries, so the
        // equal-entry shards produce real chunks whose partial gathers
        // must merge to the sequential answer.
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

    #[test]
    fn level_schedule_is_a_topological_order() {
        // Operands always sit on strictly earlier levels, and the
        // schedule is a permutation of the instruction list.
        let k = Kripke::k_mm(&generators::grid(3, 3));
        let f = unshared_tower(5).and(&unshared_tower(3).not());
        let plan = Plan::compile(&k, &f).unwrap();
        assert_eq!(plan.sched.len(), plan.ops.len());
        let mut level_of = vec![0usize; plan.ops.len()];
        for l in 0..plan.level_bounds.len() - 1 {
            for &id in &plan.sched[plan.level_bounds[l]..plan.level_bounds[l + 1]] {
                level_of[id as usize] = l;
            }
        }
        for (id, op) in plan.ops.iter().enumerate() {
            op.for_each_operand(|a| {
                assert!(level_of[a as usize] < level_of[id], "operand on a later level");
            });
        }
        // Within a level, destination slots are pairwise distinct and
        // never alias an operand read on the same level.
        for l in 0..plan.level_bounds.len() - 1 {
            let ids = &plan.sched[plan.level_bounds[l]..plan.level_bounds[l + 1]];
            let dsts: std::collections::HashSet<u32> =
                ids.iter().map(|&id| plan.dst[id as usize]).collect();
            assert_eq!(dsts.len(), ids.len(), "level {l} reuses a destination");
            for &id in ids {
                plan.ops[id as usize].for_each_operand(|a| {
                    assert!(
                        !dsts.contains(&plan.dst[a as usize]),
                        "level {l} writes a slot it also reads"
                    );
                });
            }
        }
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
                for mode in
                    [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Reverse, DiamondMode::Csc]
                {
                    let (mut got, stats) = plan.execute_with(k, mode);
                    assert_eq!(got.pop().unwrap(), want, "{f} under {mode:?} on {:?}", k.variant());
                    assert!(stats.fixpoints > 0, "{f} lowered without a fixpoint instruction");
                }
            }
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
}
