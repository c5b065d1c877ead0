//! Typed request/response frames and their binary encoding.
//!
//! Every frame travels as a [length-prefixed body](crate::framing); the
//! body's first byte is the opcode, the rest is the frame's fields in
//! little-endian fixed-width integers. Strings are UTF-8 with a `u32`
//! byte-length prefix; formulas travel as their [`Display`] rendering
//! (the grammar [`parse`] round-trips bit-exactly, pinned by the parser
//! proptests). Decoding is total: any malformed body yields a typed
//! [`ProtocolError`], never a panic, and never consumes bytes beyond
//! its own frame — the stream stays in sync.
//!
//! One frame walker checks every body: counts, tags, UTF-8 and
//! trailing bytes. It leaves a Check frame's formula texts unparsed.
//! [`Request::decode`] parses them after the walk; the server instead
//! ships the frame body to the model's shard, which parses a text only
//! when the model's checker cache has not lowered it before
//! ([`ModelChecker::resolve_texts`]). Either way a text that does not
//! parse answers [`ProtocolError::BadFormula`], and it wins over every
//! later fault of the frame (a `Truncated` or `TrailingBytes` tail), as
//! when each text is parsed as soon as it is read.
//!
//! [`Display`]: std::fmt::Display
//! [`ModelChecker::resolve_texts`]: portnum_logic::ModelChecker::resolve_texts

use portnum_graph::generators;
use portnum_logic::{
    parse, Formula, Kripke, KripkeBuilder, LogicError, ModalIndex, ModelDelta, ModelVariant,
    ParseError,
};
use rand::{rngs::StdRng, SeedableRng};
use std::fmt;
use std::ops::Range;

/// Frame bodies above this many bytes are rejected before allocation:
/// an oversized length prefix is a [`ProtocolError::FrameTooLarge`],
/// and the connection closes (past a corrupt prefix there is no
/// trustworthy frame boundary left to resynchronise on).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// What went wrong while decoding a frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The body ended before the fields it promised.
    Truncated,
    /// The body carried bytes past its last field.
    TrailingBytes,
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(u64),
    /// The opcode byte matches no known frame type.
    UnknownOpcode(u8),
    /// An enum tag byte was out of range for `what`.
    BadTag {
        /// Which tagged field was malformed.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A formula string failed to parse.
    BadFormula(String),
    /// A numeric field carried an unusable value (`what` says which).
    BadValue(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame body truncated"),
            ProtocolError::TrailingBytes => write!(f, "frame body has trailing bytes"),
            ProtocolError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtocolError::BadTag { what, tag } => write!(f, "bad {what} tag 0x{tag:02x}"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::BadFormula(msg) => write!(f, "unparseable formula: {msg}"),
            ProtocolError::BadValue(what) => write!(f, "unusable value for {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl ProtocolError {
    /// The [`ProtocolError::BadFormula`] for `text`, which `error` says
    /// does not parse.
    pub(crate) fn bad_formula(error: &ParseError, text: &str) -> ProtocolError {
        ProtocolError::BadFormula(format!("{error} in {text:?}"))
    }
}

/// How a [`Request::Load`] describes the model to construct. All three
/// shapes stream their edges through [`KripkeBuilder`] server-side.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Explicit relations: the general shape, and the one
    /// [`ModelSpec::from_model`] produces.
    Edges {
        /// Which `K_{±,±}` variant the relations belong to.
        variant: ModelVariant,
        /// World count.
        n: u64,
        /// Explicit degree valuation; derived from the edge streams
        /// when absent.
        degrees: Option<Vec<u64>>,
        /// One `(modality, edge list)` pair per relation.
        relations: Vec<(ModalIndex, Vec<(u32, u32)>)>,
    },
    /// The `n`-world path graph as `K₋,₋`.
    Path {
        /// World count.
        n: u64,
    },
    /// An Erdős–Rényi `G(n, p)` graph as `K₋,₋`, generated server-side
    /// from `seed` (deterministic: equal specs build equal models).
    Gnp {
        /// World count.
        n: u64,
        /// Edge probability as raw `f64` bits (bit-exact on the wire).
        p_bits: u64,
        /// Generator seed.
        seed: u64,
    },
}

impl ModelSpec {
    /// A [`ModelSpec::Gnp`] from an `f64` probability.
    #[must_use]
    pub fn gnp(n: u64, p: f64, seed: u64) -> ModelSpec {
        ModelSpec::Gnp { n, p_bits: p.to_bits(), seed }
    }

    /// Snapshots `model` as an [`ModelSpec::Edges`] spec — loading it
    /// rebuilds a model with identical relations, degrees, and variant
    /// (at version 0).
    #[must_use]
    pub fn from_model(model: &Kripke) -> ModelSpec {
        let n = model.len();
        let relations = (0..model.relation_count())
            .map(|r| {
                let edges = (0..n)
                    .flat_map(|v| {
                        model.successors_dense(r, v).iter().map(move |&w| (v as u32, w))
                    })
                    .collect();
                (model.relation_index(r), edges)
            })
            .collect();
        ModelSpec::Edges {
            variant: model.variant(),
            n: n as u64,
            degrees: Some(model.degrees().iter().map(|&d| d as u64).collect()),
            relations,
        }
    }

    /// Constructs the model, streaming every relation through
    /// [`KripkeBuilder`].
    ///
    /// # Errors
    ///
    /// Whatever [`KripkeBuilder::build`] reports (family mismatches,
    /// out-of-range worlds or degree lists).
    pub fn build(&self) -> Result<Kripke, LogicError> {
        match self {
            ModelSpec::Edges { variant, n, degrees, relations } => {
                let mut b = KripkeBuilder::new(*variant, usize::try_from(*n).unwrap_or(usize::MAX));
                for (index, edges) in relations {
                    b = b.relation(*index, move || edges.iter().copied());
                }
                b = match degrees {
                    Some(d) => b.degrees(d.iter().map(|&x| x as usize).collect()),
                    None => b.degrees_from_streams(),
                };
                b.build()
            }
            ModelSpec::Path { n } => {
                build_mm(&generators::path(usize::try_from(*n).unwrap_or(usize::MAX)))
            }
            ModelSpec::Gnp { n, p_bits, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let g = generators::gnp(
                    usize::try_from(*n).unwrap_or(usize::MAX),
                    f64::from_bits(*p_bits),
                    &mut rng,
                );
                build_mm(&g)
            }
        }
    }
}

/// Streams an undirected graph's adjacency (both directions) through
/// the builder as the single `K₋,₋` relation.
fn build_mm(g: &portnum_graph::Graph) -> Result<Kripke, LogicError> {
    KripkeBuilder::new(ModelVariant::MinusMinus, g.len())
        .relation(ModalIndex::Any, || {
            (0..g.len()).flat_map(|v| g.neighbors(v).iter().map(move |&w| (v as u32, w as u32)))
        })
        .degrees_from_streams()
        .build()
}

/// A model edit, mirrored field-for-field from [`ModelDelta`]'s builder
/// calls so it can travel the wire ([`ModelDelta`]'s internals are
/// private).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSpec {
    /// Edges to add, as `(modality, v, w)`.
    pub add: Vec<(ModalIndex, u32, u32)>,
    /// Edges to remove, as `(modality, v, w)`.
    pub remove: Vec<(ModalIndex, u32, u32)>,
    /// Valuation overrides, as `(world, degree)`.
    pub valuation: Vec<(u32, u64)>,
    /// Worlds to crash (drop every incident edge).
    pub crash: Vec<u32>,
}

impl DeltaSpec {
    /// Replays the recorded edits into a [`ModelDelta`].
    #[must_use]
    pub fn to_delta(&self) -> ModelDelta {
        let mut delta = ModelDelta::new();
        for &(index, v, w) in &self.add {
            delta.add_edge(index, v, w);
        }
        for &(index, v, w) in &self.remove {
            delta.remove_edge(index, v, w);
        }
        for &(v, d) in &self.valuation {
            delta.set_valuation(v, usize::try_from(d).unwrap_or(usize::MAX));
        }
        for &v in &self.crash {
            delta.crash_world(v);
        }
        delta
    }

    /// Total recorded edits.
    #[must_use]
    pub fn edit_count(&self) -> usize {
        self.add.len() + self.remove.len() + self.valuation.len() + self.crash.len()
    }
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`] in the
    /// connection thread (never routed to a shard).
    Ping,
    /// Construct (or replace) the model stored under `model`.
    Load {
        /// Model id (also the shard routing key).
        model: u64,
        /// What to build.
        spec: ModelSpec,
    },
    /// Drop the model under `model`, caches included.
    Evict {
        /// Model id.
        model: u64,
    },
    /// Check a batch of formulas against one model. The whole batch is
    /// coalesced into shared-cache suite evaluation server-side.
    Check {
        /// Model id.
        model: u64,
        /// The batch, answered in order.
        formulas: Vec<Formula>,
    },
    /// Apply a [`DeltaSpec`] to the stored model and repair its caches.
    Delta {
        /// Model id.
        model: u64,
        /// The edit batch (applied atomically: validation failures
        /// leave the model untouched).
        delta: DeltaSpec,
    },
    /// Server-wide statistics (aggregated over every shard).
    Stats,
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The model was constructed and stored.
    Loaded {
        /// Model id.
        model: u64,
        /// World count of the stored model.
        worlds: u64,
        /// Its [`Kripke::version`] stamp (0 for a fresh build).
        version: u64,
    },
    /// Answer to [`Request::Evict`].
    Evicted {
        /// Model id.
        model: u64,
        /// Whether the model was loaded.
        existed: bool,
    },
    /// Answer to [`Request::Check`]: one truth vector per formula, in
    /// request order, as raw `u64` words (`worlds` bits are valid).
    Truths {
        /// World count (the valid bit-length of every vector).
        worlds: u64,
        /// The packed truth vectors.
        vectors: Vec<Vec<u64>>,
    },
    /// The delta was applied and the caches repaired.
    DeltaApplied {
        /// Model id.
        model: u64,
        /// The model's new [`Kripke::version`] stamp.
        version: u64,
        /// Worlds the delta touched.
        touched: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// Any failure: the request was not (fully) served.
    Error(ErrorFrame),
}

/// Machine-readable failure class of an [`ErrorFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself was malformed (see [`ProtocolError`]).
    Protocol,
    /// The request named a model id with nothing loaded under it.
    NoSuchModel,
    /// The engine rejected the request
    /// ([`LogicError`], validation failures included).
    Logic,
    /// The request's [`CancelToken`] tripped mid-execution.
    ///
    /// [`CancelToken`]: portnum_graph::resilience::CancelToken
    Cancelled,
    /// The per-request deadline passed mid-execution.
    DeadlineExceeded,
    /// The per-request work budget tripped mid-execution.
    BudgetExceeded,
    /// Admission control shed the request (estimated cost over the
    /// cap, shard queue full, or model over the memory budget).
    Overloaded,
    /// The server failed internally (e.g. a shard worker panicked);
    /// the connection and the shard survive.
    Internal,
}

/// The payload of [`Response::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// Aggregated server statistics ([`Response::Stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Configured shard count.
    pub shards: u64,
    /// Models currently resident, across all shards.
    pub models: u64,
    /// Resident bytes (model footprints + checker caches).
    pub mem_bytes: u64,
    /// Configured memory budget in bytes (whole server).
    pub mem_budget: u64,
    /// Models loaded over the server's lifetime.
    pub loads: u64,
    /// LRU whole-model evictions.
    pub evictions: u64,
    /// Checker caches shed to fit the budget (model kept).
    pub cache_trims: u64,
    /// Check requests served.
    pub checks: u64,
    /// Formulas answered (a batch of 16 counts 16).
    pub formulas_checked: u64,
    /// Deltas applied.
    pub deltas: u64,
    /// Requests shed by admission control (cost cap or full queue).
    pub shed: u64,
    /// Requests interrupted by cancel/deadline/budget.
    pub interrupted: u64,
    /// Shard worker panics survived.
    pub internal_errors: u64,
    /// Malformed frames answered with protocol errors.
    pub protocol_errors: u64,
    /// Worker threads of the execution pool.
    pub pool_workers: u64,
    /// The pool's measured per-dispatch cost in nanoseconds — the
    /// admission cost model's calibration constant.
    pub pool_dispatch_cost_ns: u64,
    /// Pool workers respawned after chaos-induced deaths.
    pub pool_respawns: u64,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).expect("strings on the wire are < 4 GiB"));
    buf.extend_from_slice(s.as_bytes());
}

fn put_index(buf: &mut Vec<u8>, index: ModalIndex) {
    match index {
        ModalIndex::InOut(i, j) => {
            put_u8(buf, 0);
            put_u32(buf, i as u32);
            put_u32(buf, j as u32);
        }
        ModalIndex::Out(j) => {
            put_u8(buf, 1);
            put_u32(buf, j as u32);
        }
        ModalIndex::In(i) => {
            put_u8(buf, 2);
            put_u32(buf, i as u32);
        }
        ModalIndex::Any => put_u8(buf, 3),
    }
}

fn put_variant(buf: &mut Vec<u8>, v: ModelVariant) {
    put_u8(
        buf,
        match v {
            ModelVariant::PlusPlus => 0,
            ModelVariant::MinusPlus => 1,
            ModelVariant::PlusMinus => 2,
            ModelVariant::MinusMinus => 3,
        },
    );
}

fn put_spec(buf: &mut Vec<u8>, spec: &ModelSpec) {
    match spec {
        ModelSpec::Edges { variant, n, degrees, relations } => {
            put_u8(buf, 0);
            put_variant(buf, *variant);
            put_u64(buf, *n);
            match degrees {
                Some(d) => {
                    put_u8(buf, 1);
                    put_u32(buf, d.len() as u32);
                    d.iter().for_each(|&x| put_u64(buf, x));
                }
                None => put_u8(buf, 0),
            }
            put_u32(buf, relations.len() as u32);
            for (index, edges) in relations {
                put_index(buf, *index);
                put_u32(buf, edges.len() as u32);
                for &(v, w) in edges {
                    put_u32(buf, v);
                    put_u32(buf, w);
                }
            }
        }
        ModelSpec::Path { n } => {
            put_u8(buf, 1);
            put_u64(buf, *n);
        }
        ModelSpec::Gnp { n, p_bits, seed } => {
            put_u8(buf, 2);
            put_u64(buf, *n);
            put_u64(buf, *p_bits);
            put_u64(buf, *seed);
        }
    }
}

fn put_delta(buf: &mut Vec<u8>, delta: &DeltaSpec) {
    put_u32(buf, delta.add.len() as u32);
    for &(index, v, w) in &delta.add {
        put_index(buf, index);
        put_u32(buf, v);
        put_u32(buf, w);
    }
    put_u32(buf, delta.remove.len() as u32);
    for &(index, v, w) in &delta.remove {
        put_index(buf, index);
        put_u32(buf, v);
        put_u32(buf, w);
    }
    put_u32(buf, delta.valuation.len() as u32);
    for &(v, d) in &delta.valuation {
        put_u32(buf, v);
        put_u64(buf, d);
    }
    put_u32(buf, delta.crash.len() as u32);
    delta.crash.iter().for_each(|&v| put_u32(buf, v));
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Cursor over a frame body. Every read is bounds-checked; element
/// counts are validated against the bytes actually remaining before
/// anything is allocated, so a hostile count cannot balloon memory.
struct Rd<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Rd<'a> {
        Rd { b, at: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.at.checked_add(len).ok_or(ProtocolError::Truncated)?;
        if end > self.b.len() {
            return Err(ProtocolError::Truncated);
        }
        let out = &self.b[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an element count and rejects it unless at least
    /// `per_item_min` bytes per element remain in the body.
    fn count(&mut self, per_item_min: usize) -> Result<usize, ProtocolError> {
        let c = self.u32()? as usize;
        if c.saturating_mul(per_item_min) > self.b.len() - self.at {
            return Err(ProtocolError::Truncated);
        }
        Ok(c)
    }

    fn str(&mut self) -> Result<&'a str, ProtocolError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| ProtocolError::BadUtf8)
    }

    /// Reads a string field and returns its byte span in the body.
    fn str_span(&mut self) -> Result<Range<usize>, ProtocolError> {
        let s = self.str()?;
        Ok(self.at - s.len()..self.at)
    }

    fn index(&mut self) -> Result<ModalIndex, ProtocolError> {
        match self.u8()? {
            0 => Ok(ModalIndex::InOut(self.u32()? as usize, self.u32()? as usize)),
            1 => Ok(ModalIndex::Out(self.u32()? as usize)),
            2 => Ok(ModalIndex::In(self.u32()? as usize)),
            3 => Ok(ModalIndex::Any),
            tag => Err(ProtocolError::BadTag { what: "modal index", tag }),
        }
    }

    fn variant(&mut self) -> Result<ModelVariant, ProtocolError> {
        match self.u8()? {
            0 => Ok(ModelVariant::PlusPlus),
            1 => Ok(ModelVariant::MinusPlus),
            2 => Ok(ModelVariant::PlusMinus),
            3 => Ok(ModelVariant::MinusMinus),
            tag => Err(ProtocolError::BadTag { what: "model variant", tag }),
        }
    }

    fn spec(&mut self) -> Result<ModelSpec, ProtocolError> {
        match self.u8()? {
            0 => {
                let variant = self.variant()?;
                let n = self.u64()?;
                let degrees = match self.u8()? {
                    0 => None,
                    1 => {
                        let c = self.count(8)?;
                        Some((0..c).map(|_| self.u64()).collect::<Result<_, _>>()?)
                    }
                    tag => return Err(ProtocolError::BadTag { what: "degrees option", tag }),
                };
                let rel_count = self.count(5)?;
                let mut relations = Vec::with_capacity(rel_count);
                for _ in 0..rel_count {
                    let index = self.index()?;
                    let edge_count = self.count(8)?;
                    let edges = (0..edge_count)
                        .map(|_| Ok((self.u32()?, self.u32()?)))
                        .collect::<Result<_, ProtocolError>>()?;
                    relations.push((index, edges));
                }
                Ok(ModelSpec::Edges { variant, n, degrees, relations })
            }
            1 => Ok(ModelSpec::Path { n: self.u64()? }),
            2 => Ok(ModelSpec::Gnp { n: self.u64()?, p_bits: self.u64()?, seed: self.u64()? }),
            tag => Err(ProtocolError::BadTag { what: "model spec", tag }),
        }
    }

    fn delta(&mut self) -> Result<DeltaSpec, ProtocolError> {
        let add_count = self.count(9)?;
        let add = (0..add_count)
            .map(|_| Ok((self.index()?, self.u32()?, self.u32()?)))
            .collect::<Result<_, ProtocolError>>()?;
        let remove_count = self.count(9)?;
        let remove = (0..remove_count)
            .map(|_| Ok((self.index()?, self.u32()?, self.u32()?)))
            .collect::<Result<_, ProtocolError>>()?;
        let val_count = self.count(12)?;
        let valuation = (0..val_count)
            .map(|_| Ok((self.u32()?, self.u64()?)))
            .collect::<Result<_, ProtocolError>>()?;
        let crash_count = self.count(4)?;
        let crash = (0..crash_count).map(|_| self.u32()).collect::<Result<_, _>>()?;
        Ok(DeltaSpec { add, remove, valuation, crash })
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.at == self.b.len() {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes)
        }
    }
}

/// Parses one formula text of a Check frame.
fn parse_text(s: &str) -> Result<Formula, ProtocolError> {
    parse(s).map_err(|e| ProtocolError::bad_formula(&e, s))
}

/// Text `span` of `body`, which the walker checked is UTF-8.
fn text_at<'a>(body: &'a [u8], span: &Range<usize>) -> &'a str {
    std::str::from_utf8(&body[span.clone()]).expect("the walker checked every text is UTF-8")
}

/// The error of the first text in `spans` that does not parse, if any.
fn first_bad_text(body: &[u8], spans: &[Range<usize>]) -> Option<ProtocolError> {
    spans.iter().find_map(|span| parse_text(text_at(body, span)).err())
}

/// A frame body after [`walk`]: a Check frame's formula texts as byte
/// spans of the body, every other request decoded in full.
enum Walked {
    Check { model: u64, spans: Vec<Range<usize>> },
    Other(Request),
}

/// The frame walker behind every request decode; see the module docs.
/// On a malformed Check frame, the first text read before the fault
/// that does not parse is the error.
fn walk(body: &[u8]) -> Result<Walked, ProtocolError> {
    let mut rd = Rd::new(body);
    let req = match rd.u8()? {
        0x01 => Request::Ping,
        0x02 => Request::Load { model: rd.u64()?, spec: rd.spec()? },
        0x03 => Request::Evict { model: rd.u64()? },
        0x04 => {
            let model = rd.u64()?;
            let count = rd.count(4)?;
            let mut spans = Vec::with_capacity(count);
            let mut fault = None;
            for _ in 0..count {
                match rd.str_span() {
                    Ok(span) => spans.push(span),
                    Err(e) => {
                        fault = Some(e);
                        break;
                    }
                }
            }
            let walked = match fault {
                Some(e) => Err(e),
                None => rd.finish(),
            };
            return match walked {
                Ok(()) => Ok(Walked::Check { model, spans }),
                Err(e) => Err(first_bad_text(body, &spans).unwrap_or(e)),
            };
        }
        0x05 => Request::Delta { model: rd.u64()?, delta: rd.delta()? },
        0x06 => Request::Stats,
        op => return Err(ProtocolError::UnknownOpcode(op)),
    };
    rd.finish()?;
    Ok(Walked::Other(req))
}

/// A request frame as the server routes it: a Check frame keeps its
/// body for the owning shard, which resolves the texts against the
/// model's checker cache; every other request is decoded in full.
#[derive(Debug)]
pub(crate) enum WireRequest {
    /// A walked Check frame.
    Check {
        /// Model id.
        model: u64,
        /// The batch, unparsed.
        texts: CheckTexts,
    },
    /// Any other request ([`Request::Check`] never appears here).
    Other(Request),
}

impl WireRequest {
    /// Walks a frame body, keeping it when it is a Check frame.
    pub(crate) fn decode(body: Vec<u8>) -> Result<WireRequest, ProtocolError> {
        Ok(match walk(&body)? {
            Walked::Check { model, spans } => {
                WireRequest::Check { model, texts: CheckTexts { body, spans } }
            }
            Walked::Other(req) => WireRequest::Other(req),
        })
    }

    /// The error [`Request::decode`] answers for this frame, if it is a
    /// Check frame with a text that does not parse: a server that
    /// cannot serve the frame (no such model, a full queue, a panicked
    /// shard) still answers that error first.
    pub(crate) fn bad_text(&self) -> Option<ProtocolError> {
        match self {
            WireRequest::Check { texts, .. } => texts.bad_text(),
            WireRequest::Other(_) => None,
        }
    }
}

/// The formula texts of a walked Check frame: the frame body and the
/// byte span of each text in it, every text checked to be UTF-8.
#[derive(Debug)]
pub(crate) struct CheckTexts {
    body: Vec<u8>,
    spans: Vec<Range<usize>>,
}

impl CheckTexts {
    /// Number of formulas in the batch.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The texts, in batch order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        self.spans.iter().map(|span| text_at(&self.body, span))
    }

    /// Text `index` of the batch.
    pub(crate) fn get(&self, index: usize) -> &str {
        text_at(&self.body, &self.spans[index])
    }

    /// The error of the first text that does not parse, if any.
    pub(crate) fn bad_text(&self) -> Option<ProtocolError> {
        first_bad_text(&self.body, &self.spans)
    }
}

impl Request {
    /// Encodes the frame body (opcode byte included, length prefix
    /// excluded — [`crate::framing::write_frame`] adds that).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Ping => put_u8(&mut buf, 0x01),
            Request::Load { model, spec } => {
                put_u8(&mut buf, 0x02);
                put_u64(&mut buf, *model);
                put_spec(&mut buf, spec);
            }
            Request::Evict { model } => {
                put_u8(&mut buf, 0x03);
                put_u64(&mut buf, *model);
            }
            Request::Check { model, formulas } => {
                put_u8(&mut buf, 0x04);
                put_u64(&mut buf, *model);
                put_u32(&mut buf, formulas.len() as u32);
                for f in formulas {
                    put_str(&mut buf, &f.to_string());
                }
            }
            Request::Delta { model, delta } => {
                put_u8(&mut buf, 0x05);
                put_u64(&mut buf, *model);
                put_delta(&mut buf, delta);
            }
            Request::Stats => put_u8(&mut buf, 0x06),
        }
        buf
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] for any malformed body; decoding never
    /// panics.
    pub fn decode(body: &[u8]) -> Result<Request, ProtocolError> {
        match walk(body)? {
            Walked::Check { model, spans } => Ok(Request::Check {
                model,
                formulas: spans
                    .iter()
                    .map(|span| parse_text(text_at(body, span)))
                    .collect::<Result<_, _>>()?,
            }),
            Walked::Other(req) => Ok(req),
        }
    }
}

impl Response {
    /// Shorthand for an [`ErrorFrame`] response.
    #[must_use]
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error(ErrorFrame { code, message: message.into() })
    }

    /// Encodes the frame body (opcode byte included).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Pong => put_u8(&mut buf, 0x81),
            Response::Loaded { model, worlds, version } => {
                put_u8(&mut buf, 0x82);
                put_u64(&mut buf, *model);
                put_u64(&mut buf, *worlds);
                put_u64(&mut buf, *version);
            }
            Response::Evicted { model, existed } => {
                put_u8(&mut buf, 0x83);
                put_u64(&mut buf, *model);
                put_u8(&mut buf, u8::from(*existed));
            }
            Response::Truths { worlds, vectors } => {
                put_u8(&mut buf, 0x84);
                put_u64(&mut buf, *worlds);
                put_u32(&mut buf, vectors.len() as u32);
                for words in vectors {
                    put_u32(&mut buf, words.len() as u32);
                    words.iter().for_each(|&w| put_u64(&mut buf, w));
                }
            }
            Response::DeltaApplied { model, version, touched } => {
                put_u8(&mut buf, 0x85);
                put_u64(&mut buf, *model);
                put_u64(&mut buf, *version);
                put_u64(&mut buf, *touched);
            }
            Response::Stats(s) => {
                put_u8(&mut buf, 0x86);
                for v in s.as_array() {
                    put_u64(&mut buf, v);
                }
            }
            Response::Error(e) => {
                put_u8(&mut buf, 0x87);
                put_u8(
                    &mut buf,
                    match e.code {
                        ErrorCode::Protocol => 0,
                        ErrorCode::NoSuchModel => 1,
                        ErrorCode::Logic => 2,
                        ErrorCode::Cancelled => 3,
                        ErrorCode::DeadlineExceeded => 4,
                        ErrorCode::BudgetExceeded => 5,
                        ErrorCode::Overloaded => 6,
                        ErrorCode::Internal => 7,
                    },
                );
                put_str(&mut buf, &e.message);
            }
        }
        buf
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] for any malformed body; decoding never
    /// panics.
    pub fn decode(body: &[u8]) -> Result<Response, ProtocolError> {
        let mut rd = Rd::new(body);
        let resp = match rd.u8()? {
            0x81 => Response::Pong,
            0x82 => Response::Loaded { model: rd.u64()?, worlds: rd.u64()?, version: rd.u64()? },
            0x83 => {
                let model = rd.u64()?;
                let existed = match rd.u8()? {
                    0 => false,
                    1 => true,
                    tag => return Err(ProtocolError::BadTag { what: "existed flag", tag }),
                };
                Response::Evicted { model, existed }
            }
            0x84 => {
                let worlds = rd.u64()?;
                let count = rd.count(4)?;
                let mut vectors = Vec::with_capacity(count);
                for _ in 0..count {
                    let words = rd.count(8)?;
                    vectors.push((0..words).map(|_| rd.u64()).collect::<Result<_, _>>()?);
                }
                Response::Truths { worlds, vectors }
            }
            0x85 => Response::DeltaApplied {
                model: rd.u64()?,
                version: rd.u64()?,
                touched: rd.u64()?,
            },
            0x86 => {
                let mut arr = [0u64; ServerStats::FIELDS];
                for slot in &mut arr {
                    *slot = rd.u64()?;
                }
                Response::Stats(ServerStats::from_array(arr))
            }
            0x87 => {
                let code = match rd.u8()? {
                    0 => ErrorCode::Protocol,
                    1 => ErrorCode::NoSuchModel,
                    2 => ErrorCode::Logic,
                    3 => ErrorCode::Cancelled,
                    4 => ErrorCode::DeadlineExceeded,
                    5 => ErrorCode::BudgetExceeded,
                    6 => ErrorCode::Overloaded,
                    7 => ErrorCode::Internal,
                    tag => return Err(ProtocolError::BadTag { what: "error code", tag }),
                };
                Response::Error(ErrorFrame { code, message: rd.str()?.to_string() })
            }
            op => return Err(ProtocolError::UnknownOpcode(op)),
        };
        rd.finish()?;
        Ok(resp)
    }
}

impl ServerStats {
    /// Number of `u64` fields on the wire.
    pub const FIELDS: usize = 17;

    fn as_array(&self) -> [u64; Self::FIELDS] {
        [
            self.shards,
            self.models,
            self.mem_bytes,
            self.mem_budget,
            self.loads,
            self.evictions,
            self.cache_trims,
            self.checks,
            self.formulas_checked,
            self.deltas,
            self.shed,
            self.interrupted,
            self.internal_errors,
            self.protocol_errors,
            self.pool_workers,
            self.pool_dispatch_cost_ns,
            self.pool_respawns,
        ]
    }

    fn from_array(a: [u64; Self::FIELDS]) -> ServerStats {
        ServerStats {
            shards: a[0],
            models: a[1],
            mem_bytes: a[2],
            mem_budget: a[3],
            loads: a[4],
            evictions: a[5],
            cache_trims: a[6],
            checks: a[7],
            formulas_checked: a[8],
            deltas: a[9],
            shed: a[10],
            interrupted: a[11],
            internal_errors: a[12],
            protocol_errors: a[13],
            pool_workers: a[14],
            pool_dispatch_cost_ns: a[15],
            pool_respawns: a[16],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_build() {
        let spec = ModelSpec::gnp(24, 0.2, 7);
        let a = spec.build().unwrap();
        let b = ModelSpec::from_model(&a).build().unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.degrees(), b.degrees());
        for r in 0..a.relation_count() {
            for v in 0..a.len() {
                assert_eq!(a.successors_dense(r, v), b.successors_dense(r, v));
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut body = Request::Ping.encode();
        body.push(0);
        assert_eq!(Request::decode(&body), Err(ProtocolError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_hostile_counts_without_allocating() {
        // A Check frame claiming u32::MAX formulas in a 20-byte body.
        let mut body = vec![0x04];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&body), Err(ProtocolError::Truncated));
    }
}
