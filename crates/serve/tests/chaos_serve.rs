//! Server-side chaos (satellite 3 of ISSUE 9): failpoints injected at
//! the three serving-layer sites —
//!
//! * `serve-shard-op`: the shard worker panics before touching any
//!   state — the worker survives, the client gets an `Internal` error
//!   frame (or the `BadFormula` frame a text that does not parse earns
//!   anyway), and a retry is bit-identical;
//! * `serve-batch`: the request's own [`CancelToken`] trips between
//!   the two coalesced halves of a check batch — the typed `Cancelled`
//!   frame arrives, the connection survives, and the committed half
//!   never tears the cache (the disarmed retry is bit-identical);
//! * `serve-delta`: a panic lands between the committed delta and the
//!   cache repair — the version stamp stays consistent (advanced
//!   exactly once, never replayed), and follow-up checks agree with an
//!   oracle that applied the same delta.
//!
//! Plus the admission plane's typed outcomes: a deadline raised
//! mid-batch maps to `DeadlineExceeded`, a cost cap to `Overloaded`.
//!
//! The failpoint registry is process-global, so every test serialises
//! on one lock and tears the registry down around itself (the same
//! idiom as the logic crate's chaos harness).
//!
//! [`CancelToken`]: portnum_graph::resilience::CancelToken

use portnum_logic::{Formula, Kripke, ModalIndex, ModelChecker};
use portnum_serve::{
    Client, ClientError, DeltaSpec, ErrorCode, ModelSpec, ServeConfig, Server, Truths,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One registry, one test at a time.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    fail::teardown();
    guard
}

fn single_shard_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        ..ServeConfig::default()
    })
    .expect("binding an ephemeral port")
}

/// A diamond tower with trailing connectives: several instruction
/// boundaries, so an interrupt raised mid-batch is observed inside the
/// second half rather than slipping through as a cache hit.
fn tower(depth: usize) -> Formula {
    let mut f = Formula::prop(2);
    for _ in 0..depth {
        f = Formula::diamond(ModalIndex::Any, &f);
    }
    f.or(&Formula::prop(1)).and(&Formula::prop(0).not())
}

/// The two-half batch every chaos site is exercised through.
fn chaos_batch() -> Vec<Formula> {
    vec![Formula::prop(0), tower(4)]
}

fn expect_code(result: Result<Truths, ClientError>, code: ErrorCode) -> String {
    match result {
        Err(ClientError::Server(e)) if e.code == code => e.message,
        other => panic!("expected a {code:?} error frame, got {other:?}"),
    }
}

#[test]
fn shard_panic_is_survived_with_state_intact() {
    let _guard = serial();
    let mut server = single_shard_server();
    let mut client = Client::connect(server.addr()).expect("connecting");

    let spec = ModelSpec::gnp(64, 0.1, 42);
    client.load(7, &spec).expect("load");
    let baseline = client.check(7, &chaos_batch()).expect("baseline check");

    fail::cfg("serve-shard-op", "1*panic(injected chaos)").expect("arming the failpoint");
    let message = expect_code(client.check(7, &chaos_batch()), ErrorCode::Internal);
    assert!(message.contains("panicked"), "unexpected message: {message}");

    // The worker unwound before touching the entry: the same
    // connection retries and gets the exact same bits back.
    let retry = client.check(7, &chaos_batch()).expect("retry after the panic");
    assert_eq!(retry, baseline);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.internal_errors, 1);
    assert_eq!(stats.models, 1);
    fail::teardown();
    server.shutdown();
}

#[test]
fn mid_batch_cancel_is_typed_and_the_retry_is_bit_identical() {
    let _guard = serial();
    let mut server = single_shard_server();
    let mut client = Client::connect(server.addr()).expect("connecting");

    let spec = ModelSpec::gnp(64, 0.1, 43);
    client.load(3, &spec).expect("load");
    let baseline = client.check(3, &chaos_batch()).expect("baseline check");
    // Cold the cache again so the second half has real work in which
    // to observe the cancel (cache hits commit nothing new).
    client.evict(3).expect("evict");
    client.load(3, &spec).expect("reload");

    // Between the two batch halves, trip the token the server
    // published for this very request.
    fail::cfg_callback("serve-batch", || {
        if let Some(token) = portnum_serve::testing::latest_cancel_token() {
            token.cancel();
        }
    });
    expect_code(client.check(3, &chaos_batch()), ErrorCode::Cancelled);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.interrupted, 1);
    assert_eq!(stats.internal_errors, 0);

    // Disarmed, the same connection re-runs the batch: the committed
    // first half plus the rebuilt second half answer bit-identically.
    fail::teardown();
    let retry = client.check(3, &chaos_batch()).expect("retry after the cancel");
    assert_eq!(retry, baseline);
    server.shutdown();
}

#[test]
fn delta_chaos_keeps_versions_consistent() {
    let _guard = serial();
    let mut server = single_shard_server();
    let mut client = Client::connect(server.addr()).expect("connecting");

    let spec = ModelSpec::gnp(64, 0.1, 44);
    client.load(9, &spec).expect("load");
    client.check(9, &chaos_batch()).expect("warming the cache");
    let mut oracle: Kripke = spec.build().expect("oracle builds");

    // The panic lands after the delta committed, before the cache
    // repair: the model's version must advance exactly once.
    let delta = DeltaSpec {
        add: vec![(ModalIndex::Any, 0, 5)],
        crash: vec![3],
        ..DeltaSpec::default()
    };
    fail::cfg("serve-delta", "1*panic(injected chaos)").expect("arming the failpoint");
    match client.apply_delta(9, &delta) {
        Err(ClientError::Server(e)) if e.code == ErrorCode::Internal => {}
        other => panic!("expected an Internal error frame, got {other:?}"),
    }
    oracle.apply_delta(&delta.to_delta()).expect("oracle applies the same delta");

    // The cache was lost mid-repair but the committed delta was not:
    // a cold re-check agrees with the oracle bit-for-bit.
    let truths = client.check(9, &chaos_batch()).expect("check after the chaos delta");
    let mut checker = ModelChecker::new(&oracle);
    let expected: Vec<Vec<u64>> = checker
        .check_suite(&chaos_batch())
        .expect("oracle suite")
        .iter()
        .map(|b| b.words().to_vec())
        .collect();
    assert_eq!(truths.vectors, expected);

    // And the next (uninjected) delta lands on the agreed version:
    // no stamp was lost or replayed under the unwind.
    let follow_up = DeltaSpec { valuation: vec![(1, 3)], ..DeltaSpec::default() };
    let (version, _) = client.apply_delta(9, &follow_up).expect("follow-up delta");
    oracle.apply_delta(&follow_up.to_delta()).expect("oracle follow-up");
    assert_eq!(version, oracle.version());

    let stats = client.stats().expect("stats");
    assert_eq!(stats.internal_errors, 1);
    assert_eq!(stats.deltas, 1, "the chaos delta died before the counter");
    fail::teardown();
    server.shutdown();
}

#[test]
fn deadline_raised_mid_batch_maps_to_a_typed_frame() {
    let _guard = serial();
    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        deadline_ms: Some(25),
        ..ServeConfig::default()
    })
    .expect("binding an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connecting");

    let spec = ModelSpec::gnp(64, 0.1, 45);
    client.load(1, &spec).expect("load");

    // Burn the whole deadline between the two halves: the second half
    // observes it at its first instruction boundary.
    fail::cfg("serve-batch", "sleep(100)").expect("arming the failpoint");
    expect_code(client.check(1, &chaos_batch()), ErrorCode::DeadlineExceeded);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.interrupted, 1);

    fail::teardown();
    client.check(1, &chaos_batch()).expect("check inside the deadline");
    server.shutdown();
}

#[test]
fn cost_cap_sheds_with_a_priced_message() {
    let _guard = serial();
    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        max_cost: Some(2),
        ..ServeConfig::default()
    })
    .expect("binding an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connecting");

    let spec = ModelSpec::gnp(64, 0.1, 46);
    client.load(4, &spec).expect("load");
    let message = expect_code(client.check(4, &chaos_batch()), ErrorCode::Overloaded);
    assert!(message.contains("admission cap"), "unexpected message: {message}");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.checks, 0);
    server.shutdown();
}

/// A Check frame whose text does not parse answers `BadFormula` even
/// when the shard panics before resolving it: the frame's own fault is
/// answered first, as when the connection parsed every text.
#[test]
fn shard_panic_still_answers_a_bad_text_as_such() {
    use portnum_serve::framing::{read_frame, write_frame};
    use portnum_serve::Response;

    let _guard = serial();
    let mut server = single_shard_server();
    let mut client = Client::connect(server.addr()).expect("connecting");
    client.load(7, &ModelSpec::gnp(64, 0.1, 42)).expect("load");

    let stream = std::net::TcpStream::connect(server.addr()).expect("connecting");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("cloning"));
    let mut writer = std::io::BufWriter::new(stream);
    let bad = "mu X . !X";
    let mut body = vec![0x04u8];
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&(bad.len() as u32).to_le_bytes());
    body.extend_from_slice(bad.as_bytes());

    fail::cfg("serve-shard-op", "1*panic(injected chaos)").expect("arming the failpoint");
    write_frame(&mut writer, &body).expect("writing the check frame");
    let reply = read_frame(&mut reader).expect("reading").expect("a frame");
    match Response::decode(&reply).expect("decodable error frame") {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Protocol);
            assert!(e.message.contains("unparseable formula"), "{}", e.message);
        }
        other => panic!("expected a protocol error frame, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.internal_errors, 1, "the shard did panic");
    assert_eq!(stats.protocol_errors, 1);
    client.check(7, &chaos_batch()).expect("the shard keeps serving");
    fail::teardown();
    server.shutdown();
}
