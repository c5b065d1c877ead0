//! Property tests for the wire protocol (satellite 2 of ISSUE 9):
//!
//! * **round-trip**: `decode(encode(x)) == x` for every frame type,
//!   request and response, over randomized payloads (formula batches
//!   included — formulas travel as their `Display` rendering, so this
//!   also re-pins the parser round-trip through the wire);
//! * **hardening**: truncated bodies (every proper prefix), trailing
//!   bytes, unknown opcodes, hostile element counts, oversized length
//!   prefixes, and arbitrary byte soup all yield *typed*
//!   [`ProtocolError`]s — never a panic, and (checked live at the
//!   bottom) never a desynchronised connection;
//! * **error parity**: a server resolves a Check frame's formula texts
//!   on the model's shard, parsing only texts its cache has not seen,
//!   and must still answer every valid, mutated or truncated Check body
//!   exactly as decoding the whole frame up front and then routing it
//!   would, for a loaded model and an unloaded one alike.

use portnum_logic::{Formula, Kripke, ModalIndex, ModelChecker, ModelVariant};
use portnum_serve::framing::{read_frame, write_frame, FrameError};
use portnum_serve::protocol::MAX_FRAME_LEN;
use portnum_serve::{
    DeltaSpec, ErrorCode, ErrorFrame, ModelSpec, ProtocolError, Request, Response, ServeConfig,
    Server, ServerStats,
};
use proptest::prelude::*;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn arb_index() -> impl Strategy<Value = ModalIndex> {
    prop_oneof![
        Just(ModalIndex::Any),
        (0usize..4, 0usize..4).prop_map(|(i, j)| ModalIndex::InOut(i, j)),
        (0usize..4).prop_map(ModalIndex::Out),
        (0usize..4).prop_map(ModalIndex::In),
    ]
}

fn arb_variant() -> impl Strategy<Value = ModelVariant> {
    prop_oneof![
        Just(ModelVariant::PlusPlus),
        Just(ModelVariant::MinusPlus),
        Just(ModelVariant::PlusMinus),
        Just(ModelVariant::MinusMinus),
    ]
}

/// Wraps a closed formula in a reachability-shaped binder, picking the
/// first variable name `f` does not already bind (nesting depth is
/// bounded well below the candidate list, so one is always fresh).
fn bind_fixpoint(greatest: bool, index: ModalIndex, f: &Formula) -> Formula {
    ["X", "Y", "Z", "W", "V"]
        .iter()
        .find_map(|name| {
            let body = f.or(&Formula::diamond(index, &Formula::var(name)));
            if greatest { Formula::nu(name, &body).ok() } else { Formula::mu(name, &body).ok() }
        })
        .expect("some candidate name is fresh")
}

/// Random formulas over every index family — the protocol ships them
/// as strings, so the distribution only needs to cover the grammar,
/// µ/ν binders included.
fn arb_formula() -> impl Strategy<Value = Formula> {
    arb_formula_over(|| arb_index().boxed())
}

/// Random formulas whose modal indices come from `index`.
fn arb_formula_over(index: fn() -> BoxedStrategy<ModalIndex>) -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::top()),
        Just(Formula::bottom()),
        (0usize..=4).prop_map(Formula::prop),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(&b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(&b)),
            (index(), 0usize..=3, inner.clone())
                .prop_map(|(index, k, f)| Formula::diamond_geq(index, k, &f)),
            (any::<bool>(), index(), inner)
                .prop_map(|(greatest, index, f)| bind_fixpoint(greatest, index, &f)),
        ]
    })
}

fn arb_spec() -> impl Strategy<Value = ModelSpec> {
    let edges = (
        arb_variant(),
        0u64..64,
        prop_oneof![
            Just(None),
            proptest::collection::vec(0u64..16, 0..6).prop_map(Some),
        ],
        proptest::collection::vec(
            (arb_index(), proptest::collection::vec((0u32..64, 0u32..64), 0..8)),
            0..3,
        ),
    )
        .prop_map(|(variant, n, degrees, relations)| ModelSpec::Edges {
            variant,
            n,
            degrees,
            relations,
        });
    prop_oneof![
        edges,
        (0u64..4096).prop_map(|n| ModelSpec::Path { n }),
        (0u64..4096, any::<u64>(), any::<u64>())
            .prop_map(|(n, p_bits, seed)| ModelSpec::Gnp { n, p_bits, seed }),
    ]
}

fn arb_delta() -> impl Strategy<Value = DeltaSpec> {
    (
        proptest::collection::vec((arb_index(), 0u32..64, 0u32..64), 0..5),
        proptest::collection::vec((arb_index(), 0u32..64, 0u32..64), 0..5),
        proptest::collection::vec((0u32..64, any::<u64>()), 0..5),
        proptest::collection::vec(0u32..64, 0..5),
    )
        .prop_map(|(add, remove, valuation, crash)| DeltaSpec { add, remove, valuation, crash })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Stats),
        (any::<u64>(), arb_spec()).prop_map(|(model, spec)| Request::Load { model, spec }),
        any::<u64>().prop_map(|model| Request::Evict { model }),
        (any::<u64>(), proptest::collection::vec(arb_formula(), 0..5))
            .prop_map(|(model, formulas)| Request::Check { model, formulas }),
        (any::<u64>(), arb_delta()).prop_map(|(model, delta)| Request::Delta { model, delta }),
    ]
}

/// ASCII plus a fixed non-ASCII salt: exercises the UTF-8 path without
/// needing a full `char` strategy.
fn arb_message() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(0x20u8..0x7f, 0..24)
            .prop_map(|b| String::from_utf8(b).expect("printable ASCII")),
        Just("K₋,₋ ⟨⟩≥2 — ünïcode payload".to_string()),
    ]
}

fn arb_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::Protocol),
        Just(ErrorCode::NoSuchModel),
        Just(ErrorCode::Logic),
        Just(ErrorCode::Cancelled),
        Just(ErrorCode::DeadlineExceeded),
        Just(ErrorCode::BudgetExceeded),
        Just(ErrorCode::Overloaded),
        Just(ErrorCode::Internal),
    ]
}

fn arb_stats() -> impl Strategy<Value = ServerStats> {
    proptest::collection::vec(any::<u64>(), ServerStats::FIELDS).prop_map(|v| ServerStats {
        shards: v[0],
        models: v[1],
        mem_bytes: v[2],
        mem_budget: v[3],
        loads: v[4],
        evictions: v[5],
        cache_trims: v[6],
        checks: v[7],
        formulas_checked: v[8],
        deltas: v[9],
        shed: v[10],
        interrupted: v[11],
        internal_errors: v[12],
        protocol_errors: v[13],
        pool_workers: v[14],
        pool_dispatch_cost_ns: v[15],
        pool_respawns: v[16],
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(model, worlds, version)| Response::Loaded { model, worlds, version }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(model, existed)| Response::Evicted { model, existed }),
        (
            any::<u64>(),
            proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..5), 0..5)
        )
            .prop_map(|(worlds, vectors)| Response::Truths { worlds, vectors }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(model, version, touched)| {
            Response::DeltaApplied { model, version, touched }
        }),
        arb_stats().prop_map(Response::Stats),
        (arb_code(), arb_message())
            .prop_map(|(code, message)| Response::Error(ErrorFrame { code, message })),
    ]
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn request_round_trips(req in arb_request()) {
        let body = req.encode();
        prop_assert_eq!(Request::decode(&body), Ok(req));
    }

    #[test]
    fn response_round_trips(resp in arb_response()) {
        let body = resp.encode();
        prop_assert_eq!(Response::decode(&body), Ok(resp));
    }

    /// Every proper prefix of a valid body fails with `Truncated`: the
    /// cut removes only trailing bytes, so the decoder replays the
    /// same reads until one crosses the cut — and counts are checked
    /// against the bytes actually present before anything allocates.
    #[test]
    fn truncated_request_is_typed(req in arb_request()) {
        let body = req.encode();
        for cut in 0..body.len() {
            prop_assert_eq!(
                Request::decode(&body[..cut]),
                Err(ProtocolError::Truncated),
                "cut at {} of {}",
                cut,
                body.len()
            );
        }
    }

    #[test]
    fn truncated_response_is_typed(resp in arb_response()) {
        let body = resp.encode();
        for cut in 0..body.len() {
            prop_assert_eq!(
                Response::decode(&body[..cut]),
                Err(ProtocolError::Truncated),
                "cut at {} of {}",
                cut,
                body.len()
            );
        }
    }

    #[test]
    fn trailing_bytes_are_typed(req in arb_request(), junk in 1u8..=255) {
        let mut body = req.encode();
        body.push(junk);
        prop_assert_eq!(Request::decode(&body), Err(ProtocolError::TrailingBytes));
    }

    /// Request opcodes stop at 0x06; everything above (response
    /// opcodes included — the planes are disjoint) is typed.
    #[test]
    fn unknown_request_opcode_is_typed(op in 0x07u8..=0xff, tail in proptest::collection::vec(any::<u8>(), 0..8)) {
        let mut body = vec![op];
        body.extend(tail);
        prop_assert_eq!(Request::decode(&body), Err(ProtocolError::UnknownOpcode(op)));
    }

    #[test]
    fn unknown_response_opcode_is_typed(op in 0x00u8..=0x80, tail in proptest::collection::vec(any::<u8>(), 0..8)) {
        let mut body = vec![op];
        body.extend(tail);
        prop_assert_eq!(Response::decode(&body), Err(ProtocolError::UnknownOpcode(op)));
    }

    /// Decoding is total: arbitrary byte soup yields `Ok` or a typed
    /// error, never a panic (the `proptest!` harness would report it).
    #[test]
    fn byte_soup_never_panics(soup in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = Request::decode(&soup);
        let _ = Response::decode(&soup);
    }

    /// An oversized length prefix is rejected *before* any allocation,
    /// as a protocol (not transport) error.
    #[test]
    fn oversized_prefix_is_typed(len in (MAX_FRAME_LEN as u32 + 1)..=u32::MAX) {
        let mut wire: &[u8] = &len.to_le_bytes();
        match read_frame(&mut wire) {
            Err(FrameError::Protocol(ProtocolError::FrameTooLarge(l))) => {
                prop_assert_eq!(l, u64::from(len));
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    /// Frames written back-to-back stay framed: a reader recovers each
    /// body byte-exactly and then sees the clean end of stream.
    #[test]
    fn frames_stay_in_sync(reqs in proptest::collection::vec(arb_request(), 1..5)) {
        let mut wire = Vec::new();
        for req in &reqs {
            write_frame(&mut wire, &req.encode()).expect("Vec writes are infallible");
        }
        let mut rd: &[u8] = &wire;
        for req in &reqs {
            let body = read_frame(&mut rd).expect("framed").expect("not EOF");
            prop_assert_eq!(Request::decode(&body).as_ref(), Ok(req));
        }
        prop_assert!(read_frame(&mut rd).expect("clean end").is_none());
    }
}

// ---------------------------------------------------------------------
// Live hardening: the typed errors above, observed through a server
// ---------------------------------------------------------------------

/// A malformed (but correctly framed) body gets an error frame and the
/// connection keeps serving — the frame boundary was never in doubt.
#[test]
fn malformed_body_then_ping_keeps_the_connection() {
    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::from_env()
    })
    .expect("binding an ephemeral port");
    let stream = std::net::TcpStream::connect(server.addr()).expect("connecting");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("cloning"));
    let mut writer = std::io::BufWriter::new(stream);

    write_frame(&mut writer, &[0xff, 0x01, 0x02]).expect("writing the bad frame");
    let body = read_frame(&mut reader).expect("reading").expect("a frame");
    match Response::decode(&body).expect("decodable error frame") {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
        other => panic!("expected a protocol error frame, got {other:?}"),
    }

    write_frame(&mut writer, &Request::Ping.encode()).expect("writing the ping");
    let body = read_frame(&mut reader).expect("reading").expect("a frame");
    assert_eq!(Response::decode(&body), Ok(Response::Pong));
    server.shutdown();
}

/// Unparseable formula strings inside a well-framed `Check` body — an
/// unbound variable and a shadowed binder — answer a *typed* protocol
/// error frame (the decoder's `BadFormula` path), and the connection
/// keeps serving afterwards. Hand-encoded so the test exercises the
/// wire shape directly, not `Request::encode` (which cannot produce
/// these bodies: the `Formula` constructors already reject them).
#[test]
fn bad_formula_strings_answer_typed_errors_and_keep_serving() {
    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::from_env()
    })
    .expect("binding an ephemeral port");
    let stream = std::net::TcpStream::connect(server.addr()).expect("connecting");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("cloning"));
    let mut writer = std::io::BufWriter::new(stream);

    for bad in ["X", "mu X . mu X . X", "mu X . !X", "mu X . q1 | Y"] {
        // Check = opcode 0x04, model id u64 LE, formula count u32 LE,
        // then each formula as a u32 LE length + UTF-8 bytes.
        let mut body = vec![0x04u8];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&(bad.len() as u32).to_le_bytes());
        body.extend_from_slice(bad.as_bytes());

        write_frame(&mut writer, &body).expect("writing the check frame");
        let reply = read_frame(&mut reader).expect("reading").expect("a frame");
        match Response::decode(&reply).expect("decodable error frame") {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Protocol, "formula {bad:?}");
                assert!(
                    e.message.contains("unparseable formula"),
                    "want the BadFormula rendering for {bad:?}, got {:?}",
                    e.message
                );
            }
            other => panic!("expected a protocol error frame for {bad:?}, got {other:?}"),
        }
    }

    write_frame(&mut writer, &Request::Ping.encode()).expect("writing the ping");
    let body = read_frame(&mut reader).expect("reading").expect("a frame");
    assert_eq!(Response::decode(&body), Ok(Response::Pong));
    server.shutdown();
}

/// An oversized length prefix gets one error frame and then the close:
/// past a corrupt prefix there is no boundary left to trust.
#[test]
fn oversized_prefix_closes_the_connection() {
    use std::io::Write;

    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::from_env()
    })
    .expect("binding an ephemeral port");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connecting");
    stream.write_all(&u32::MAX.to_le_bytes()).expect("writing the corrupt prefix");
    stream.flush().expect("flushing");

    let mut reader = std::io::BufReader::new(stream.try_clone().expect("cloning"));
    let body = read_frame(&mut reader).expect("reading").expect("a frame");
    match Response::decode(&body).expect("decodable error frame") {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol),
        other => panic!("expected a protocol error frame, got {other:?}"),
    }
    // Then EOF: the server hung up rather than guess at a boundary.
    assert!(read_frame(&mut reader).expect("clean close").is_none());
    server.shutdown();
}

// ---------------------------------------------------------------------
// Error parity: texts resolved on the shard answer as a full decode
// ---------------------------------------------------------------------

/// The model the parity server has loaded; `UNLOADED` names nothing.
const LOADED: u64 = 7;
const UNLOADED: u64 = 8;

fn parity_spec() -> ModelSpec {
    ModelSpec::gnp(24, 0.2, 5)
}

/// Texts that do not parse: an unbound variable, a shadowed binder, a
/// non-monotone body, a free variable under a binder, and broken syntax.
const BAD_TEXTS: [&str; 7] =
    ["X", "mu X . mu X . X", "mu X . !X", "mu X . q1 | Y", "q1 &", "<*,*", ""];

/// One text of a Check batch: a formula over any index family (most
/// mismatch `K₋,₋`), one that surely does, one over `K₋,₋`'s own index,
/// a text that does not parse, or bytes that are not UTF-8.
fn arb_text() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_formula().prop_map(|f| f.to_string().into_bytes()),
        (arb_formula(), 0usize..3).prop_map(|(f, i)| {
            Formula::diamond(ModalIndex::InOut(i, i), &f).to_string().into_bytes()
        }),
        arb_formula_over(|| Just(ModalIndex::Any).boxed()).prop_map(|f| f.to_string().into_bytes()),
        arb_formula_over(|| Just(ModalIndex::Any).boxed()).prop_map(|f| f.to_string().into_bytes()),
        (0..BAD_TEXTS.len()).prop_map(|i| BAD_TEXTS[i].as_bytes().to_vec()),
        Just(vec![b'q', 0xff, b'1']),
    ]
}

/// What happens to a well-formed Check body before it is sent. Nothing
/// touches the opcode, so every body is still read as a Check.
#[derive(Debug, Clone)]
enum Mutation {
    None,
    /// Cut after `1 + at % (len - 1)` bytes.
    Cut(usize),
    /// Append junk.
    Trailing(Vec<u8>),
    /// Overwrite byte `1 + at % (len - 1)`.
    Flip(usize, u8),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::None),
        Just(Mutation::None),
        any::<usize>().prop_map(Mutation::Cut),
        proptest::collection::vec(any::<u8>(), 1..6).prop_map(Mutation::Trailing),
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Mutation::Flip(at, b)),
    ]
}

/// A Check body over `texts`, hand-encoded so texts need not parse.
fn check_body(model: u64, texts: &[Vec<u8>], mutation: &Mutation) -> Vec<u8> {
    let mut body = vec![0x04u8];
    body.extend_from_slice(&model.to_le_bytes());
    body.extend_from_slice(&(texts.len() as u32).to_le_bytes());
    for text in texts {
        body.extend_from_slice(&(text.len() as u32).to_le_bytes());
        body.extend_from_slice(text);
    }
    let past_opcode = |at: usize, len: usize| 1 + at % (len - 1);
    match mutation {
        Mutation::None => {}
        Mutation::Cut(at) => body.truncate(past_opcode(*at, body.len())),
        Mutation::Trailing(junk) => body.extend_from_slice(junk),
        Mutation::Flip(at, b) => {
            let at = past_opcode(*at, body.len());
            body[at] = *b;
        }
    }
    body
}

/// A Check body decoded field by field, each text parsed as soon as it
/// is read: the reference `Request::decode` must agree with. It shares
/// no code with the frame walker, so it pins which error wins, a text
/// that does not parse over a later `Truncated` or `TrailingBytes`
/// included.
fn sequential_check_decode(body: &[u8]) -> Result<Request, ProtocolError> {
    let mut at = 0usize;
    let mut take = |len: usize| -> Result<&[u8], ProtocolError> {
        let end = at.checked_add(len).filter(|&end| end <= body.len());
        let end = end.ok_or(ProtocolError::Truncated)?;
        let out = &body[at..end];
        at = end;
        Ok(out)
    };
    assert_eq!(take(1)?, [0x04], "mutations keep the Check opcode");
    let model = u64::from_le_bytes(take(8)?.try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
    if count.saturating_mul(4) > body.len() - 13 {
        return Err(ProtocolError::Truncated);
    }
    let mut formulas = Vec::new();
    for _ in 0..count {
        let len = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
        let text = std::str::from_utf8(take(len)?).map_err(|_| ProtocolError::BadUtf8)?;
        let formula = portnum_logic::parse(text)
            .map_err(|e| ProtocolError::BadFormula(format!("{e} in {text:?}")))?;
        formulas.push(formula);
    }
    if at != body.len() {
        return Err(ProtocolError::TrailingBytes);
    }
    Ok(Request::Check { model, formulas })
}

/// The reply a server that decodes the whole frame before routing it
/// gives: the decode error, or the check routed to the loaded model.
fn routed_after_decode(body: &[u8], model: &Kripke) -> Response {
    match Request::decode(body) {
        Err(e) => Response::error(ErrorCode::Protocol, e.to_string()),
        Ok(Request::Check { model: LOADED, formulas }) => {
            match ModelChecker::new(model).check_suite(&formulas) {
                Ok(truths) => Response::Truths {
                    worlds: model.len() as u64,
                    vectors: truths.iter().map(|b| b.words().to_vec()).collect(),
                },
                Err(e) => Response::error(ErrorCode::Logic, e.to_string()),
            }
        }
        Ok(Request::Check { model, .. }) => {
            Response::error(ErrorCode::NoSuchModel, format!("model {model} is not loaded"))
        }
        Ok(other) => panic!("mutations keep the Check opcode, decoded {other:?}"),
    }
}

/// One connection to a server with `LOADED` loaded, shared by every
/// parity case so the model's text memo warms up across them.
struct ParityServer {
    _server: Server,
    model: Kripke,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ParityServer {
    fn call(&mut self, body: &[u8]) -> Response {
        write_frame(&mut self.writer, body).expect("writing a frame");
        let reply = read_frame(&mut self.reader).expect("reading").expect("a frame");
        Response::decode(&reply).expect("decodable reply")
    }

    fn protocol_errors(&mut self) -> u64 {
        match self.call(&Request::Stats.encode()) {
            Response::Stats(s) => s.protocol_errors,
            other => panic!("expected stats, got {other:?}"),
        }
    }
}

fn parity_server() -> MutexGuard<'static, ParityServer> {
    static SERVER: OnceLock<Mutex<ParityServer>> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let server = Server::start(ServeConfig::default()).expect("binding an ephemeral port");
            let stream = TcpStream::connect(server.addr()).expect("connecting");
            let mut parity = ParityServer {
                _server: server,
                model: parity_spec().build().expect("the spec builds"),
                reader: BufReader::new(stream.try_clone().expect("cloning")),
                writer: BufWriter::new(stream),
            };
            let load = Request::Load { model: LOADED, spec: parity_spec() };
            assert!(matches!(parity.call(&load.encode()), Response::Loaded { .. }));
            Mutex::new(parity)
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The server's reply to a Check body equals what decoding it up
    /// front and routing it yields, and every `Protocol` reply, the
    /// shard's `BadFormula` frames included, counts in
    /// `protocol_errors`.
    #[test]
    fn check_replies_match_decode_then_route(
        loaded in any::<bool>(),
        texts in proptest::collection::vec(arb_text(), 0..8),
        mutation in arb_mutation(),
    ) {
        let body = check_body(if loaded { LOADED } else { UNLOADED }, &texts, &mutation);
        prop_assert_eq!(Request::decode(&body), sequential_check_decode(&body), "body {:?}", body);
        let mut server = parity_server();
        let expected = routed_after_decode(&body, &server.model);
        let before = server.protocol_errors();
        let reply = server.call(&body);
        let protocol = matches!(&reply, Response::Error(e) if e.code == ErrorCode::Protocol);
        prop_assert_eq!(&reply, &expected, "body {:?}", body);
        prop_assert_eq!(server.protocol_errors() - before, u64::from(protocol));
    }
}

/// Each place a Check text can fail to parse counts one protocol error:
/// a loaded model's shard, an unloaded model's shard, and a text after
/// a memoised one in the same batch; beside a frame the connection
/// layer rejects itself.
#[test]
fn shard_side_parse_failures_count_as_protocol_errors() {
    let server = Server::start(ServeConfig::default()).expect("binding an ephemeral port");
    let stream = TcpStream::connect(server.addr()).expect("connecting");
    let mut reader = BufReader::new(stream.try_clone().expect("cloning"));
    let mut writer = BufWriter::new(stream);
    let mut call = |body: &[u8]| {
        write_frame(&mut writer, body).expect("writing");
        let reply = read_frame(&mut reader).expect("reading").expect("a frame");
        Response::decode(&reply).expect("decodable reply")
    };
    let load = Request::Load { model: LOADED, spec: parity_spec() };
    assert!(matches!(call(&load.encode()), Response::Loaded { .. }));
    let good = b"<*,*>q1".to_vec();
    let bad = b"mu X . !X".to_vec();
    let warm = check_body(LOADED, std::slice::from_ref(&good), &Mutation::None);
    assert!(matches!(call(&warm), Response::Truths { .. }));
    for body in [
        check_body(LOADED, std::slice::from_ref(&bad), &Mutation::None),
        check_body(UNLOADED, std::slice::from_ref(&bad), &Mutation::None),
        check_body(LOADED, &[good, bad], &Mutation::None),
        vec![0xff],
    ] {
        match call(&body) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Protocol, "{body:?}"),
            other => panic!("expected a protocol error frame for {body:?}, got {other:?}"),
        }
    }
    match call(&Request::Stats.encode()) {
        Response::Stats(s) => assert_eq!(s.protocol_errors, 4),
        other => panic!("expected stats, got {other:?}"),
    }
}
