//! Differential test of the per-model text memo. A served check
//! resolves each formula text through the model's checker cache, so a
//! text the cache has lowered before is answered without a parse or a
//! lowering, across deltas. Two models share one shard whose budget
//! holds one model and a small cache: switching models evicts the other
//! whole, and a growing cache is trimmed. Over random sequences of
//! checks (drawn from a small text pool, so most texts hit), deltas and
//! switches, every answer must equal a fresh parse of the same texts
//! checked by a new `ModelChecker` on a mirrored model.

mod common;

use common::{random_delta, random_formula};
use portnum_logic::{parse, Formula, Kripke, ModelChecker};
use portnum_serve::{Client, ClientError, ErrorCode, ModelSpec, ServeConfig, Server, ServerStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn specs() -> [ModelSpec; 2] {
    [ModelSpec::gnp(256, 0.02, 0x7e57), ModelSpec::Path { n: 320 }]
}

/// The texts checks draw from: random `K₋,₋` formulas plus a µ and a ν
/// formula, each as its wire rendering.
fn text_pool() -> &'static [String] {
    static POOL: OnceLock<Vec<String>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x7e47);
        let mut pool: Vec<String> =
            (0..10).map(|_| random_formula(&mut rng, 3, true).to_string()).collect();
        pool.push("mu X . q2 | <*,*>X".to_string());
        pool.push("nu Y . !q1 & <*,*>Y".to_string());
        pool
    })
}

/// A budget that holds either model with about 3 KiB of cache, and
/// never both models: each footprint is read back from a server that
/// loaded it alone.
fn budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        let server = Server::start(ServeConfig::default()).expect("binding an ephemeral port");
        let mut client = Client::connect(server.addr()).expect("connecting");
        let mut resident = 0;
        let mut largest = 0;
        for (id, spec) in specs().iter().enumerate() {
            client.load(id as u64, spec).expect("loading");
            let now = client.stats().expect("stats").mem_bytes;
            largest = largest.max(now - resident);
            assert!(now - resident > 3 << 10, "each model alone outweighs the cache allowance");
            resident = now;
        }
        largest as usize + (3 << 10)
    })
}

#[derive(Debug, Clone)]
enum Op {
    /// Check the pool texts at `picks` against a model.
    Check { model: usize, picks: Vec<usize> },
    /// Apply a random valid delta drawn from `seed`.
    Delta { model: usize, seed: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..2usize, proptest::collection::vec(0..text_pool().len(), 1..8))
            .prop_map(|(model, picks)| Op::Check { model, picks }),
        (0..2usize, proptest::collection::vec(0..text_pool().len(), 1..8))
            .prop_map(|(model, picks)| Op::Check { model, picks }),
        (0..2usize, any::<u64>()).prop_map(|(model, seed)| Op::Delta { model, seed }),
    ]
}

/// Runs `call`; if the model was evicted, reloads it from the mirror
/// and runs `call` again.
fn on_loaded<T>(
    client: &mut Client,
    id: u64,
    mirror: &Kripke,
    mut call: impl FnMut(&mut Client) -> Result<T, ClientError>,
) -> T {
    match call(client) {
        Ok(answer) => answer,
        Err(ClientError::Server(e)) if e.code == ErrorCode::NoSuchModel => {
            client.load(id, &ModelSpec::from_model(mirror)).expect("reloading");
            call(client).expect("served after a reload")
        }
        Err(e) => panic!("model {id}: {e:?}"),
    }
}

/// Serves `ops` on a fresh one-shard server, comparing every check with
/// a new checker on the mirrored model, and returns the server's stats.
fn run_script(ops: &[Op]) -> ServerStats {
    let cfg = ServeConfig { shards: 1, mem_budget: budget(), ..ServeConfig::default() };
    let server = Server::start(cfg).expect("binding an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connecting");
    let mut mirrors = specs().map(|spec| spec.build().expect("the spec builds"));
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Check { model, picks } => {
                let formulas: Vec<Formula> =
                    picks.iter().map(|&i| parse(&text_pool()[i]).expect("pool texts parse")).collect();
                let mirror = &mirrors[*model];
                let truths =
                    on_loaded(&mut client, *model as u64, mirror, |c| c.check(*model as u64, &formulas));
                let fresh: Vec<Vec<u64>> = ModelChecker::new(mirror)
                    .check_suite(&formulas)
                    .expect("pool texts lower on K₋,₋")
                    .iter()
                    .map(|b| b.words().to_vec())
                    .collect();
                assert_eq!(truths.vectors, fresh, "step {step}: model {model}, picks {picks:?}");
            }
            Op::Delta { model, seed } => {
                let mirror = &mut mirrors[*model];
                let delta = random_delta(&mut StdRng::seed_from_u64(*seed), mirror);
                on_loaded(&mut client, *model as u64, mirror, |c| {
                    c.apply_delta(*model as u64, &delta)
                });
                mirror.apply_delta(&delta.to_delta()).expect("generated deltas apply");
            }
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.internal_errors, 0);
    assert!(stats.mem_bytes <= stats.mem_budget);
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn text_hits_match_fresh_parses_across_deltas_trims_and_evictions(
        ops in proptest::collection::vec(arb_op(), 8..40),
    ) {
        run_script(&ops);
    }
}

/// The fixed script below reaches both ways a cache is dropped, so the
/// property above runs where they happen.
#[test]
fn the_budget_trims_caches_and_evicts_models() {
    let ops: Vec<Op> = (0..60)
        .map(|i| match i % 6 {
            // A few checks in a row grow one model's cache past the
            // allowance; the next model's turn evicts the other.
            5 => Op::Delta { model: (i / 12) % 2, seed: i as u64 },
            _ => Op::Check {
                model: (i / 12) % 2,
                picks: (0..6).map(|k| (i * 5 + k * 7) % text_pool().len()).collect(),
            },
        })
        .collect();
    let stats = run_script(&ops);
    assert!(stats.cache_trims > 0, "{stats:?}");
    assert!(stats.evictions > 0, "{stats:?}");
}
