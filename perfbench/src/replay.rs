//! In-process replay of request frames through the public functions a
//! shard calls, in the shard's order:
//!
//! - checks: `Request::decode` → `ModelChecker::resume` →
//!   `estimate_work` → `admission::admit` → `check_suite_controlled`
//!   (twice: the shard runs each batch in two halves) → `detach` →
//!   `Response::encode`;
//! - deltas: `Request::decode` → `DeltaSpec::to_delta` →
//!   `Kripke::apply_delta` → `resume(touched)` → `detach` →
//!   `Response::encode`.
//!
//! Its response frames are the oracle the served frames must equal byte
//! for byte, and the spans around each call give per-layer time. The
//! program itself is not instrumented.

use crate::trace::Tracer;
use portnum_graph::resilience::InterruptReason;
use portnum_logic::{CheckerCache, Formula, FormulaKind, Kripke, LogicError, ModelChecker};
use portnum_serve::admission::{self, Admission};
use portnum_serve::framing::write_frame;
use portnum_serve::{DeltaSpec, ErrorCode, Request, Response, ServeConfig};
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::time::Instant;

/// What the replay counted, summed over the requests it served.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub checks: u64,
    pub formulas: u64,
    pub fixpoint_formulas: u64,
    /// Check batches whose `CheckerStats.computed` did not grow.
    pub hits: u64,
    pub computed: u64,
    /// Lowered nodes that found an existing instruction, and lowered
    /// nodes that added one.
    pub dedup_hits: u64,
    pub new_instructions: u64,
    pub forward: u64,
    pub reverse: u64,
    pub csc: u64,
    pub fixpoint_iters: u64,
    /// Estimated work-words and traced check time of non-hit batches.
    pub miss_words: u64,
    pub miss_check_ns: u64,
    pub deltas: u64,
    pub touched: u64,
    pub repaired_worlds: u64,
    pub rebuilt_vectors: u64,
    pub max_frontier: u64,
    /// Checker caches dropped to stay under the shard budget.
    pub trims: u64,
    /// Check response frames, their bytes, and how many of them an
    /// 8 KiB `BufWriter` wrote in more than one write.
    pub check_frames: u64,
    pub check_bytes: u64,
    pub split_frames: u64,
    pub build_ns: u64,
}

impl Counters {
    /// Adds `other`'s counts into `self` (the maximum frontier stays a
    /// maximum).
    pub fn absorb(&mut self, other: &Counters) {
        let Counters {
            checks,
            formulas,
            fixpoint_formulas,
            hits,
            computed,
            dedup_hits,
            new_instructions,
            forward,
            reverse,
            csc,
            fixpoint_iters,
            miss_words,
            miss_check_ns,
            deltas,
            touched,
            repaired_worlds,
            rebuilt_vectors,
            max_frontier,
            trims,
            check_frames,
            check_bytes,
            split_frames,
            build_ns,
        } = *other;
        self.checks += checks;
        self.formulas += formulas;
        self.fixpoint_formulas += fixpoint_formulas;
        self.hits += hits;
        self.computed += computed;
        self.dedup_hits += dedup_hits;
        self.new_instructions += new_instructions;
        self.forward += forward;
        self.reverse += reverse;
        self.csc += csc;
        self.fixpoint_iters += fixpoint_iters;
        self.miss_words += miss_words;
        self.miss_check_ns += miss_check_ns;
        self.deltas += deltas;
        self.touched += touched;
        self.repaired_worlds += repaired_worlds;
        self.rebuilt_vectors += rebuilt_vectors;
        self.max_frontier = self.max_frontier.max(max_frontier);
        self.trims += trims;
        self.check_frames += check_frames;
        self.check_bytes += check_bytes;
        self.split_frames += split_frames;
        self.build_ns += build_ns;
    }
}

struct Entry {
    model: Kripke,
    cache: Option<CheckerCache>,
}

/// Counts the writes a `BufWriter` passes through to the socket.
#[derive(Debug, Default)]
struct CountingSink {
    writes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The replayed server state: resident models and their detached caches.
pub struct Replayer {
    cfg: ServeConfig,
    budget: usize,
    models: BTreeMap<u64, Entry>,
    sink: BufWriter<CountingSink>,
    pub counters: Counters,
}

impl Default for Replayer {
    fn default() -> Self {
        Replayer::new()
    }
}

impl Replayer {
    /// A replay of a server running the default `ServeConfig`.
    pub fn new() -> Replayer {
        let cfg = ServeConfig::default();
        Replayer {
            budget: cfg.shard_budget(),
            cfg,
            models: BTreeMap::new(),
            // `serve_connection` writes through `BufWriter::new`.
            sink: BufWriter::new(CountingSink::default()),
            counters: Counters::default(),
        }
    }

    /// Builds the model a Load frame describes.
    ///
    /// # Panics
    ///
    /// If the frame is not a Load, the model does not build, or its id
    /// shares a shard with another model: the budget emulation assumes
    /// one model per shard.
    pub fn load(&mut self, body: &[u8]) {
        let Ok(Request::Load { model: id, spec }) = Request::decode(body) else {
            panic!("not a Load frame");
        };
        let shards = self.cfg.shards as u64;
        assert!(
            self.models
                .keys()
                .all(|&other| other == id || other % shards != id % shards),
            "model {id} shares a shard with another model"
        );
        let start = Instant::now();
        let model = spec.build().expect("generated models build");
        self.counters.build_ns += start.elapsed().as_nanos() as u64;
        self.models.insert(id, Entry { model, cache: None });
    }

    /// Serves one Check or Delta frame and returns the response frame.
    pub fn handle(&mut self, body: &[u8], t: &mut Tracer) -> Vec<u8> {
        t.next_request();
        let root = t.open("request");
        let resp = match t.time("protocol.decode", || Request::decode(body)) {
            Ok(Request::Check { model, formulas }) => self.check(model, &formulas, t),
            Ok(Request::Delta { model, delta }) => self.delta(model, &delta, t),
            Ok(_) => Response::error(ErrorCode::Internal, "replay serves checks and deltas"),
            Err(e) => Response::error(ErrorCode::Protocol, e.to_string()),
        };
        let out = t.time("protocol.encode", || resp.encode());
        t.close(root);
        if matches!(resp, Response::Truths { .. }) {
            let before = self.sink.get_ref().writes;
            write_frame(&mut self.sink, &out).expect("counting sink never fails");
            self.counters.check_frames += 1;
            self.counters.check_bytes += out.len() as u64;
            if self.sink.get_ref().writes - before > 1 {
                self.counters.split_frames += 1;
            }
        }
        out
    }

    fn check(&mut self, id: u64, formulas: &[Formula], t: &mut Tracer) -> Response {
        let Replayer {
            cfg,
            budget,
            models,
            counters,
            ..
        } = self;
        let Some(entry) = models.get_mut(&id) else {
            return Response::error(ErrorCode::NoSuchModel, format!("model {id} is not loaded"));
        };
        let cache = entry.cache.take();
        let mut checker = t.time("shard.resume", || match cache {
            Some(c) => ModelChecker::resume(&entry.model, c, &[]),
            None => ModelChecker::new(&entry.model),
        });
        let before = checker.stats();
        let mut check_ns = 0;
        let outcome = t
            .time("admission.estimate", || checker.estimate_work(formulas))
            .and_then(|estimate| {
                let estimate = estimate as u64;
                if let Admission::Shed { estimate, cap } =
                    t.time("admission.admit", || admission::admit(cfg, estimate))
                {
                    return Ok(Err(format!(
                        "estimated work {estimate} over the admission cap {cap}"
                    )));
                }
                let (ctl, _token) = admission::control_for(cfg);
                let half = formulas.len() / 2;
                let mut vectors = Vec::with_capacity(formulas.len());
                for part in [&formulas[..half], &formulas[half..]] {
                    let span = t.open("plan.check");
                    let done = checker.check_suite_controlled(part, &ctl);
                    check_ns += t.close(span);
                    vectors.extend(done?);
                }
                Ok(Ok((
                    estimate,
                    vectors.iter().map(|b| b.words().to_vec()).collect(),
                )))
            });
        let after = checker.stats();
        entry.cache = Some(t.time("shard.detach", || checker.detach()));
        let worlds = entry.model.len() as u64;
        let resp = match outcome {
            Ok(Ok((estimate, vectors))) => {
                let c = &mut *counters;
                c.checks += 1;
                c.formulas += formulas.len() as u64;
                c.fixpoint_formulas += formulas.iter().filter(|f| has_fixpoint(f)).count() as u64;
                let computed = (after.computed - before.computed) as u64;
                if computed == 0 {
                    c.hits += 1;
                } else {
                    c.miss_words += estimate;
                    c.miss_check_ns += check_ns;
                }
                c.computed += computed;
                c.new_instructions += (after.instructions - before.instructions) as u64;
                c.dedup_hits += (after.dedup_hits - before.dedup_hits) as u64;
                c.forward += (after.forward_diamonds - before.forward_diamonds) as u64;
                c.reverse += (after.reverse_diamonds - before.reverse_diamonds) as u64;
                c.csc += (after.csc_diamonds - before.csc_diamonds) as u64;
                c.fixpoint_iters += (after.fixpoint_iters - before.fixpoint_iters) as u64;
                Response::Truths { worlds, vectors }
            }
            Ok(Err(shed)) => Response::error(ErrorCode::Overloaded, shed),
            Err(e) => logic_error(&e),
        };
        enforce_budget(entry, *budget, counters);
        resp
    }

    fn delta(&mut self, id: u64, spec: &DeltaSpec, t: &mut Tracer) -> Response {
        let Some(entry) = self.models.get_mut(&id) else {
            return Response::error(ErrorCode::NoSuchModel, format!("model {id} is not loaded"));
        };
        let cache = entry.cache.take();
        let delta = t.time("protocol.to_delta", || spec.to_delta());
        let touched = match t.time("kripke.apply_delta", || entry.model.apply_delta(&delta)) {
            Ok(touched) => touched,
            Err(e) => {
                entry.cache = cache;
                return logic_error(&e);
            }
        };
        let c = &mut self.counters;
        if let Some(cache) = cache {
            let checker = t.time("repair.resume", || {
                ModelChecker::resume(&entry.model, cache, &touched)
            });
            if let Some(r) = checker.last_repair() {
                c.repaired_worlds += r.repaired_worlds as u64;
                c.rebuilt_vectors += r.rebuilt_vectors as u64;
                c.max_frontier = c.max_frontier.max(r.max_frontier as u64);
            }
            entry.cache = Some(t.time("shard.detach", || checker.detach()));
        }
        c.deltas += 1;
        c.touched += touched.len() as u64;
        let resp = Response::DeltaApplied {
            model: id,
            version: entry.model.version(),
            touched: touched.len() as u64,
        };
        enforce_budget(entry, self.budget, &mut self.counters);
        resp
    }
}

/// The serving cache's footprint estimate: CSR targets, per-relation
/// offsets, the valuation, and the cached truth-vector words.
fn entry_bytes(entry: &Entry) -> usize {
    let m = &entry.model;
    let words = std::mem::size_of::<usize>();
    let model =
        m.relation_entry_count() * 4 + m.relation_count() * (m.len() + 1) * words + m.len() * words;
    model + entry.cache.as_ref().map_or(0, |c| c.cached_words() * 8)
}

/// With one model per shard, the shard keeps an entry under its budget
/// slice by dropping the entry's checker cache.
fn enforce_budget(entry: &mut Entry, budget: usize, counters: &mut Counters) {
    if entry_bytes(entry) > budget && entry.cache.take().is_some() {
        counters.trims += 1;
    }
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

/// Whether `f` contains a fixpoint operator.
fn has_fixpoint(f: &Formula) -> bool {
    match f.kind() {
        FormulaKind::Mu { .. } | FormulaKind::Nu { .. } => true,
        FormulaKind::Not(a) => has_fixpoint(a),
        FormulaKind::And(a, b) | FormulaKind::Or(a, b) => has_fixpoint(a) || has_fixpoint(b),
        FormulaKind::Diamond { inner, .. } => has_fixpoint(inner),
        _ => false,
    }
}
