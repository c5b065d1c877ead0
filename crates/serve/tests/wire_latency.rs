//! Wire latency of an answer larger than the server's 8 KiB write
//! buffer.
//!
//! Such a body leaves the server as two segments: the length prefix,
//! flushed on its own, then the body. Unless the server socket sets
//! `TCP_NODELAY`, Nagle's algorithm holds the body until the client
//! ACKs the prefix, and the client delays that ACK by about 40 ms. The
//! test asserts the *minimum* round trip of a warm check, so a loaded
//! host cannot make it flaky: with the stall, no round trip gets under
//! 40 ms.

use portnum_logic::{Formula, ModalIndex};
use portnum_serve::{Client, ModelSpec, ServeConfig, Server};
use std::time::{Duration, Instant};

#[test]
fn large_answers_do_not_wait_for_the_delayed_ack() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("binding an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connecting");
    let n = 1u64 << 16;
    client.load(0, &ModelSpec::Path { n }).expect("loading the path model");

    // Two vectors of 2^16 bits: a 16 KiB body, twice the write buffer.
    let formulas = [Formula::diamond(ModalIndex::Any, &Formula::prop(1)), Formula::prop(2)];
    let warm = client.check(0, &formulas).expect("warm-up check");
    assert_eq!(warm.worlds, n);
    assert!(warm.vectors.iter().map(Vec::len).sum::<usize>() * 8 >= 16 << 10);

    let mut fastest = Duration::MAX;
    for _ in 0..20 {
        let start = Instant::now();
        let truths = client.check(0, &formulas).expect("warm check");
        fastest = fastest.min(start.elapsed());
        assert_eq!(truths, warm);
    }
    assert!(
        fastest < Duration::from_millis(20),
        "fastest warm round trip took {fastest:?}: the answer waited for the delayed ACK"
    );
}
