//! One benchmark run: set-up, the timed loop, verification of every
//! answer, and the metrics.

use crate::gen::{serve_plan, Kind, Scale, ServePlan, Workload, CONNS};
use crate::offline::{Offline, PassStats};
use crate::replay::{Counters, Replayer};
use crate::report::{
    block_rates, median, num, object, provenance_object, quantile, ratio, string, string_list,
    Metric,
};
use crate::trace::Tracer;
use crate::wire::{closed_loop, frame_hash, vm_hwm_mb, Backend, Callers, Conn, ConnLog};
use portnum_serve::ServerStats;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics, printed by every run with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, printed by every run with `--trace 1`; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.response_kib", "KiB"),
    ("framing.split_share", "share"),
    ("server.wait_p50_us", "us"),
    ("server.wait_p99_us", "us"),
    ("admission.estimate_us", "us"),
    ("admission.ns_per_word", "ns/word"),
    ("shard.resume_us", "us"),
    ("shard.detach_us", "us"),
    ("cache.hit_share", "share"),
    ("cache.trims_per_kcheck", "1/kcheck"),
    ("cache.evictions_per_kcheck", "1/kcheck"),
    ("cache.resident_mb", "MiB"),
    ("plan.check_us", "us"),
    ("plan.computed_per_formula", "count"),
    ("plan.dedup_share", "share"),
    ("plan.forward_share", "share"),
    ("plan.reverse_share", "share"),
    ("plan.csc_share", "share"),
    ("plan.fixpoint_iters", "count"),
    ("plan.execute_ms", "ms"),
    ("plan.chunked_ops", "count"),
    ("plan.level_parallel_ops", "count"),
    ("pool.dispatch_cost_ns", "ns"),
    ("kripke.build_ms", "ms"),
    ("kripke.apply_delta_us", "us"),
    ("kripke.touched", "count"),
    ("repair.resume_us", "us"),
    ("repair.repaired_worlds", "count"),
    ("repair.rebuilt_vectors", "count"),
    ("repair.max_frontier", "count"),
    ("bisim.refine_ms", "ms"),
    ("bisim.rounds", "count"),
    ("bisim.encoded_per_world", "count"),
    ("quotient.minimum_base_ms", "ms"),
    ("quotient.check_ms", "ms"),
    ("quotient.ratio", "share"),
    ("simulator.run_ms", "ms"),
    ("simulator.rounds", "count"),
    ("simulator.max_message_units", "count"),
    ("trace.overhead_share", "share"),
];

/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: usize = 9;

/// Which server the serve workloads drive.
#[derive(Debug, Clone)]
pub enum ServerChoice {
    /// The `portnum-serve` binary at this path, in its own process.
    Binary(PathBuf),
    /// The library server inside the benchmark process (smoke tests).
    InProcess,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub server: ServerChoice,
    /// Where spans are written when tracing.
    pub out_dir: Option<PathBuf>,
    /// The commit (or source digest) the binaries were built from.
    pub source_id: String,
    /// Replaces one oracle answer with a wrong one: proves that a wrong
    /// answer fails the run.
    pub corrupt_oracle: bool,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Provenance: host, build, seed, samples and quartiles, counters.
    pub record: String,
}

impl Outcome {
    /// The result line.
    pub fn result_line(&self) -> String {
        object([
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", crate::report::metrics_object(&self.metrics)),
        ])
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (the server does not start, a model does not load);
/// failures of individual timed requests are counted instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        Workload::Offline => run_offline(args),
        _ => run_serve(args),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn record(args: &Args, metrics: &[Metric], extra: Vec<(&str, String)>) -> String {
    let mut fields = vec![
        ("workload", string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("scale", string(&format!("{:?}", args.scale))),
        ("nproc", nproc().to_string()),
        ("source", string(&args.source_id)),
        (
            "profile",
            string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("metrics", provenance_object(metrics)),
    ];
    fields.extend(extra);
    object([("record", object(fields))])
}

/// Fills in every per-layer name, 0 where the workload measured none.
fn per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    let mut by_name: BTreeMap<&str, Metric> = measured.into_iter().map(|m| (m.name, m)).collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let m = by_name
                .remove(name)
                .unwrap_or_else(|| Metric::new(name, 0.0, unit));
            assert_eq!(m.unit, unit, "unit of {name}");
            m
        })
        .collect()
}

/// Per span name, the median per-request self time, with its samples.
fn span_metric(
    spans: &BTreeMap<&'static str, Vec<u64>>,
    span: &str,
    name: &'static str,
    unit: &'static str,
) -> Metric {
    let scale = match unit {
        "us" => 1e3,
        "ms" => 1e6,
        _ => 1.0,
    };
    let samples: Vec<f64> = spans.get(span).map_or_else(Vec::new, |v| {
        v.iter().map(|&ns| ns as f64 / scale).collect()
    });
    Metric::new(name, median(&samples), unit).with_samples(samples)
}

/// Writes spans under `--out-dir`, if one was given.
fn write_spans(args: &Args, suffix: &str, tracer: &Tracer) {
    let Some(dir) = &args.out_dir else { return };
    let name = format!("spans-{}-s{}{suffix}.tsv", args.workload.name(), args.seed);
    let path = dir.join(name);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| tracer.write_tsv(io::BufWriter::new(file)));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

// ---------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------

struct Served {
    plan: ServePlan,
    backend: Backend,
    conns: Vec<Conn>,
    warm_hashes: Vec<u64>,
}

/// Starts the server, connects, uploads the models, and warms up.
fn set_up_serve(args: &Args) -> io::Result<Served> {
    let plan = serve_plan(args.workload, args.seed, args.scale);
    let backend = match &args.server {
        ServerChoice::Binary(bin) => Backend::spawn(bin)?,
        ServerChoice::InProcess => Backend::in_process()?,
    };
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(backend.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    for body in &plan.loads {
        conns[0].call_ok(body)?;
    }
    let mut warm_hashes = Vec::with_capacity(plan.warmup.len());
    for body in &plan.warmup {
        let frame = conns[0].call(body)?;
        warm_hashes.push(frame_hash(&frame));
    }
    Ok(Served {
        plan,
        backend,
        conns,
        warm_hashes,
    })
}

/// A replay with the plan's models loaded and its warm-up served.
fn warmed_replay(plan: &ServePlan) -> (Replayer, Vec<u64>) {
    let mut replay = Replayer::new();
    for body in &plan.loads {
        replay.load(body);
    }
    let mut quiet = Tracer::new(false);
    let warm = plan
        .warmup
        .iter()
        .map(|body| frame_hash(&replay.handle(body, &mut quiet)))
        .collect();
    replay.counters = Counters {
        build_ns: replay.counters.build_ns,
        ..Counters::default()
    };
    (replay, warm)
}

/// Timed requests of `conns` in replay order: their streams
/// interleaved round-robin.
fn replay_order(logs: &[ConnLog], conns: &[usize]) -> Vec<(usize, usize)> {
    let longest = conns.iter().map(|&c| logs[c].sent.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| {
            conns
                .iter()
                .filter(move |&&c| i < logs[c].sent.len())
                .map(move |&c| (c, i))
        })
        .collect()
}

/// Connections whose requests can replay independently: one group per
/// connection when no model is shared between connections (serve_cold,
/// serve_live: each model then sees its own request order), one group
/// otherwise (serve_hot).
fn replay_groups(logs: &[ConnLog]) -> Vec<Vec<usize>> {
    let mut owner: BTreeMap<&[u8], usize> = BTreeMap::new();
    let shared = logs.iter().enumerate().any(|(c, log)| {
        log.sent
            .iter()
            .any(|body| *owner.entry(&body[1..9]).or_insert(c) != c)
    });
    if shared {
        vec![(0..logs.len()).collect()]
    } else {
        (0..logs.len()).map(|c| vec![c]).collect()
    }
}

/// What one group's replay produced.
struct Replayed {
    /// Response hash of every warm-up request.
    warm: Vec<u64>,
    /// `(connection, index, response hash)` of every replayed request.
    hashes: Vec<(usize, usize, u64)>,
    /// Whether the plain replay (if run) answered identically.
    plain_agrees: bool,
    /// Summed handle time of the traced and the plain replay.
    traced_s: f64,
    plain_s: f64,
    counters: Counters,
    tracer: Tracer,
    /// Kind of each replayed request, indexed by its request id - 1.
    kinds: Vec<Kind>,
}

/// Replays one group's timed requests through a warmed replay traced by
/// a tracer (recording when `trace`) and, when tracing, right beside it
/// through a second replay with spans off, alternating which goes
/// first, so both see the same machine state and the difference of
/// their summed times is the tracing overhead.
fn replay_group(plan: &ServePlan, logs: &[ConnLog], conns: &[usize], trace: bool) -> Replayed {
    let (mut traced, warm) = warmed_replay(plan);
    let mut plain = trace.then(|| warmed_replay(plan).0);
    let mut t = Tracer::new(trace);
    let mut off = Tracer::new(false);
    let order = replay_order(logs, conns);
    let mut hashes = Vec::with_capacity(order.len());
    let (mut plain_agrees, mut traced_ns, mut plain_ns) = (true, 0u128, 0u128);
    let timed = |r: &mut Replayer, t: &mut Tracer, body: &[u8]| {
        let start = Instant::now();
        let hash = frame_hash(&r.handle(body, t));
        (hash, start.elapsed().as_nanos())
    };
    for (k, &(c, i)) in order.iter().enumerate() {
        let body = &logs[c].sent[i];
        let (mut hash, mut plain_hash) = (0, None);
        for turn in [k % 2, 1 - k % 2] {
            if turn == 1 {
                let (h, ns) = timed(&mut traced, &mut t, body);
                traced_ns += ns;
                hash = h;
            } else if let Some(p) = plain.as_mut() {
                let (h, ns) = timed(p, &mut off, body);
                plain_ns += ns;
                plain_hash = Some(h);
            }
        }
        if plain_hash.is_some_and(|h| h != hash) {
            plain_agrees = false;
        }
        hashes.push((c, i, hash));
    }
    Replayed {
        warm,
        hashes,
        plain_agrees,
        traced_s: traced_ns as f64 / 1e9,
        plain_s: plain_ns as f64 / 1e9,
        counters: traced.counters,
        tracer: t,
        kinds: order.iter().map(|&(c, i)| logs[c].kinds[i]).collect(),
    }
}

fn latencies_ms(logs: &[ConnLog], kind: Kind) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| {
            l.kinds
                .iter()
                .zip(&l.latency_ns)
                .filter(move |(k, _)| **k == kind)
        })
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect()
}

/// Per model and request kind: count, p50 and p90 wire latency in ms.
fn by_model(logs: &[ConnLog]) -> String {
    let mut lat: BTreeMap<(u64, &str), Vec<f64>> = BTreeMap::new();
    for log in logs {
        for ((body, kind), ns) in log.sent.iter().zip(&log.kinds).zip(&log.latency_ns) {
            let model = u64::from_le_bytes(
                body[1..9]
                    .try_into()
                    .expect("check and delta frames name a model"),
            );
            let kind = if *kind == Kind::Check {
                "check"
            } else {
                "delta"
            };
            lat.entry((model, kind)).or_default().push(*ns as f64 / 1e6);
        }
    }
    object(lat.iter().map(|((model, kind), v)| {
        (
            format!("{model}.{kind}"),
            object([
                ("n", v.len().to_string()),
                ("p50_ms", num(median(v))),
                ("p90_ms", num(quantile(v, 0.9))),
            ]),
        )
    }))
}

fn stats_fields(s: &ServerStats) -> String {
    let fields = [
        ("shards", s.shards),
        ("models", s.models),
        ("mem_bytes", s.mem_bytes),
        ("mem_budget", s.mem_budget),
        ("loads", s.loads),
        ("evictions", s.evictions),
        ("cache_trims", s.cache_trims),
        ("checks", s.checks),
        ("formulas_checked", s.formulas_checked),
        ("deltas", s.deltas),
        ("shed", s.shed),
        ("interrupted", s.interrupted),
        ("internal_errors", s.internal_errors),
        ("protocol_errors", s.protocol_errors),
        ("pool_workers", s.pool_workers),
        ("pool_dispatch_cost_ns", s.pool_dispatch_cost_ns),
        ("pool_respawns", s.pool_respawns),
    ];
    object(fields.iter().map(|&(k, v)| (k, v.to_string())))
}

/// The tail percentile the workload reports as `op_tail_ms`. serve_hot
/// reports p99 (thousands of samples, and the p99 is the delayed-ACK
/// stall). Elsewhere p99 does not repeat across seeds within a tenth:
/// serve_cold's p99 is a handful of seed-specific heavy batches, and
/// serve_live and offline have too few samples; they report p90. On
/// offline even p90 caught the host's bursts (ten seeds: 49 to 90 ms,
/// spread 0.56), so it reports p75.
/// serve_live's op is its Check, not its Delta: between stalled checks
/// the host idles, and the same seed's delta p50 ranged from 3.6 to
/// 7.2 ms from run to run, wider than any bound.
fn tail_quantile(workload: Workload) -> f64 {
    match workload {
        Workload::ServeHot => 0.99,
        Workload::ServeCold | Workload::ServeLive => 0.90,
        Workload::Offline => 0.75,
    }
}

/// serve_cold's connections take turns: with both callers in flight,
/// its two engine-bound shards and the one worker pool they share
/// settled into a fast or a slow regime per server run (throughput 230
/// or 340 per second on the same seed), wider than any bound.
fn callers(workload: Workload) -> Callers {
    match workload {
        Workload::ServeCold => Callers::InTurn,
        _ => Callers::Concurrent,
    }
}

fn run_serve(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        // Stop the previous server before timing the next set-up.
        drop(served.take());
        let start = Instant::now();
        served = Some(set_up_serve(args).map_err(|e| format!("set-up failed: {e}"))?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let Served {
        plan,
        backend,
        conns,
        warm_hashes,
    } = served.expect("at least one set-up");
    let logs = closed_loop(
        conns,
        plan.streams.clone(),
        args.seconds,
        callers(args.workload),
    );
    let stats = Conn::connect(backend.addr())
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats request failed: {e}"))?;
    let peak_rss_mb = backend.peak_rss_mb().unwrap_or(0.0);
    drop(backend);

    // The oracle: the same frames through the same shard calls in this
    // process, compared outside the timed region. Independent groups
    // replay on threads of their own, except in a traced run of a
    // workload whose callers took turns: its spans must see one request
    // in flight, as the server did.
    let groups = replay_groups(&logs);
    let replays: Vec<Replayed> = if args.trace && callers(args.workload) == Callers::InTurn {
        groups
            .iter()
            .map(|conns| replay_group(&plan, &logs, conns, true))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let running: Vec<_> = groups
                .iter()
                .map(|conns| scope.spawn(|| replay_group(&plan, &logs, conns, args.trace)))
                .collect();
            running
                .into_iter()
                .map(|r| r.join().expect("replay thread"))
                .collect()
        })
    };
    let replays_agree = replays.iter().all(|r| r.plain_agrees);
    let mut expected: Vec<Vec<u64>> = logs.iter().map(|l| vec![0; l.sent.len()]).collect();
    for &(c, i, hash) in replays.iter().flat_map(|r| &r.hashes) {
        expected[c][i] = hash;
    }
    if args.corrupt_oracle {
        if let Some(first) = expected.iter_mut().find_map(|e| e.first_mut()) {
            *first ^= 1;
        }
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut ok_checks = 0u64;
    let mut ok_deltas = 0u64;
    // Completion times of the Checks that succeeded, for `ops_per_s`.
    let mut checks_done_s = Vec::new();
    for (log, want) in logs.iter().zip(&expected) {
        for ((((ok, got), want), kind), done_ns) in log
            .resp_ok
            .iter()
            .zip(&log.resp_hash)
            .zip(want)
            .zip(&log.kinds)
            .zip(&log.done_ns)
        {
            attempted += 1;
            match (*ok && got == want, kind) {
                (true, Kind::Check) => {
                    ok_checks += 1;
                    checks_done_s.push(*done_ns as f64 / 1e9);
                }
                (true, Kind::Delta) => ok_deltas += 1,
                (false, _) => failed += 1,
            }
        }
    }
    let warm_checks = plan.warmup.len() as u64;
    let counters_agree = stats.checks == warm_checks + ok_checks
        && stats.deltas == ok_deltas
        && stats.shed == 0
        && stats.interrupted == 0
        && stats.internal_errors == 0
        && stats.protocol_errors == 0;
    let warm_agrees = replays.iter().all(|r| r.warm == warm_hashes);
    let transport: Vec<String> = logs
        .iter()
        .filter_map(|l| l.transport_failure.clone())
        .collect();

    let check_rates = block_rates(&checks_done_s);
    let check_ms = latencies_ms(&logs, Kind::Check);
    let delta_ms = latencies_ms(&logs, Kind::Delta);
    let tail = tail_quantile(args.workload);

    let metrics = if !args.trace {
        vec![
            Metric::new("setup_s", median(&setups), "s").with_samples(setups.clone()),
            Metric::new("ops_per_s", median(&check_rates), "1/s").with_samples(check_rates),
            Metric::new("op_p50_ms", median(&check_ms), "ms").with_samples(check_ms.clone()),
            Metric::new("op_tail_ms", quantile(&check_ms, tail), "ms")
                .with_samples(check_ms.clone()),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    } else {
        for (g, r) in replays.iter().enumerate() {
            write_spans(args, &format!("-g{g}"), &r.tracer);
        }
        serve_layers(&replays, &stats, &check_ms)
    };
    let correct =
        failed == 0 && counters_agree && warm_agrees && replays_agree && transport.is_empty();
    let replay_trims: u64 = replays.iter().map(|r| r.counters.trims).sum();
    let record = record(
        args,
        &metrics,
        vec![
            (
                "server",
                string(match args.server {
                    ServerChoice::Binary(_) => "portnum-serve process, default ServeConfig",
                    ServerChoice::InProcess => "in-process Server, default ServeConfig",
                }),
            ),
            ("loop", string(&format!("closed, {CONNS} connections"))),
            ("op", string("Check request, wire to wire")),
            ("tail_quantile", num(tail)),
            ("requests", attempted.to_string()),
            ("checks_ok", ok_checks.to_string()),
            ("deltas_ok", ok_deltas.to_string()),
            ("check_p50_ms", num(median(&check_ms))),
            ("check_p99_ms", num(quantile(&check_ms, 0.99))),
            ("delta_p50_ms", num(median(&delta_ms))),
            ("delta_p90_ms", num(quantile(&delta_ms, 0.9))),
            ("by_model", by_model(&logs)),
            ("server_stats", stats_fields(&stats)),
            ("server_counters_agree", counters_agree.to_string()),
            ("warmup_answers_agree", warm_agrees.to_string()),
            ("replays_agree", replays_agree.to_string()),
            ("replay_trims", replay_trims.to_string()),
            ("transport_failures", string_list(&transport)),
        ],
    );
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        record,
    })
}

fn serve_layers(replays: &[Replayed], stats: &ServerStats, check_ms: &[f64]) -> Vec<Metric> {
    let mut c = Counters::default();
    let mut spans: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut service_us = Vec::new();
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    for r in replays {
        c.absorb(&r.counters);
        for (name, times) in r.tracer.per_request_self_ns() {
            spans.entry(name).or_default().extend(times);
        }
        // In-process service time of each replayed Check: its root span.
        service_us.extend(
            r.tracer
                .root_ns("request")
                .into_iter()
                .filter(|&(id, _)| r.kinds.get(id as usize - 1) == Some(&Kind::Check))
                .map(|(_, ns)| ns as f64 / 1e3),
        );
        traced_s += r.traced_s;
        plain_s += r.plain_s;
    }
    let wire_us: Vec<f64> = check_ms.iter().map(|ms| ms * 1e3).collect();
    let wait = |q: f64| quantile(&wire_us, q) - quantile(&service_us, q);
    let kchecks = stats.checks as f64 / 1e3;
    let diamonds = (c.forward + c.reverse + c.csc) as f64;
    per_layer(vec![
        span_metric(&spans, "protocol.decode", "protocol.decode_us", "us"),
        span_metric(&spans, "protocol.encode", "protocol.encode_us", "us"),
        Metric::new(
            "protocol.response_kib",
            ratio(c.check_bytes as f64, c.check_frames as f64) / 1024.0,
            "KiB",
        ),
        Metric::new(
            "framing.split_share",
            ratio(c.split_frames as f64, c.check_frames as f64),
            "share",
        ),
        Metric::new("server.wait_p50_us", wait(0.5), "us"),
        Metric::new("server.wait_p99_us", wait(0.99), "us"),
        span_metric(&spans, "admission.estimate", "admission.estimate_us", "us"),
        Metric::new(
            "admission.ns_per_word",
            ratio(c.miss_check_ns as f64, c.miss_words as f64),
            "ns/word",
        ),
        span_metric(&spans, "shard.resume", "shard.resume_us", "us"),
        span_metric(&spans, "shard.detach", "shard.detach_us", "us"),
        Metric::new(
            "cache.hit_share",
            ratio(c.hits as f64, c.checks as f64),
            "share",
        ),
        Metric::new(
            "cache.trims_per_kcheck",
            ratio(stats.cache_trims as f64, kchecks),
            "1/kcheck",
        ),
        Metric::new(
            "cache.evictions_per_kcheck",
            ratio(stats.evictions as f64, kchecks),
            "1/kcheck",
        ),
        Metric::new(
            "cache.resident_mb",
            stats.mem_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        span_metric(&spans, "plan.check", "plan.check_us", "us"),
        Metric::new(
            "plan.computed_per_formula",
            ratio(c.computed as f64, c.formulas as f64),
            "count",
        ),
        Metric::new(
            "plan.dedup_share",
            ratio(
                c.dedup_hits as f64,
                (c.dedup_hits + c.new_instructions) as f64,
            ),
            "share",
        ),
        Metric::new(
            "plan.forward_share",
            ratio(c.forward as f64, diamonds),
            "share",
        ),
        Metric::new(
            "plan.reverse_share",
            ratio(c.reverse as f64, diamonds),
            "share",
        ),
        Metric::new("plan.csc_share", ratio(c.csc as f64, diamonds), "share"),
        Metric::new(
            "plan.fixpoint_iters",
            ratio(c.fixpoint_iters as f64, c.fixpoint_formulas as f64),
            "count",
        ),
        Metric::new(
            "pool.dispatch_cost_ns",
            stats.pool_dispatch_cost_ns as f64,
            "ns",
        ),
        // Every replay builds every served model; report one replay's.
        Metric::new(
            "kripke.build_ms",
            ratio(c.build_ns as f64, replays.len() as f64) / 1e6,
            "ms",
        ),
        span_metric(&spans, "kripke.apply_delta", "kripke.apply_delta_us", "us"),
        Metric::new(
            "kripke.touched",
            ratio(c.touched as f64, c.deltas as f64),
            "count",
        ),
        span_metric(&spans, "repair.resume", "repair.resume_us", "us"),
        Metric::new(
            "repair.repaired_worlds",
            ratio(c.repaired_worlds as f64, c.deltas as f64),
            "count",
        ),
        Metric::new(
            "repair.rebuilt_vectors",
            ratio(c.rebuilt_vectors as f64, c.deltas as f64),
            "count",
        ),
        Metric::new("repair.max_frontier", c.max_frontier as f64, "count"),
        Metric::new(
            "trace.overhead_share",
            ratio(traced_s - plain_s, plain_s),
            "share",
        ),
    ])
}

// ---------------------------------------------------------------------
// Offline
// ---------------------------------------------------------------------

/// The pass every set-up runs once to warm the pool and the allocator.
const WARM_PASS: u64 = 1 << 32;

fn run_offline(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut offline = None;
    let mut warm_ok = true;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let o = Offline::setup(args.seed, args.scale);
        warm_ok &= o
            .pass(WARM_PASS, &mut Tracer::new(false))
            .failed_check
            .is_none();
        setups.push(start.elapsed().as_secs_f64());
        offline = Some(o);
    }
    let offline = offline.expect("at least one set-up");

    // With tracing, each pass runs twice, traced and with spans off,
    // alternating which goes first; the summed times give the overhead.
    let mut tracer = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    let mut pass_ms = Vec::new();
    let mut passes: Vec<PassStats> = Vec::new();
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    // Each failed pass, as `<pass>: <check>`.
    let mut failures: Vec<String> = Vec::new();
    // Completion times of the passes that succeeded, for `ops_per_s`.
    let mut passes_done_s = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let i = passes.len() as u64;
        for turn in [i % 2, 1 - i % 2] {
            let t0 = Instant::now();
            if turn == 0 {
                let mut stats = offline.pass(i, &mut tracer);
                if args.corrupt_oracle && i == 0 {
                    stats.failed_check = Some("corrupted oracle");
                }
                let elapsed = t0.elapsed().as_secs_f64();
                if let Some(check) = stats.failed_check {
                    failures.push(format!("{i}: {check}"));
                } else {
                    passes_done_s.push(start.elapsed().as_secs_f64());
                }
                traced_s += elapsed;
                pass_ms.push(elapsed * 1e3);
                passes.push(stats);
            } else if args.trace {
                if let Some(check) = offline.pass(i, &mut off).failed_check {
                    failures.push(format!("{i}: {check}, untraced"));
                }
                plain_s += t0.elapsed().as_secs_f64();
            }
        }
    }
    let attempted = passes.len() as u64;
    let failed = failures.len() as u64;
    let peak_rss_mb = vm_hwm_mb("/proc/self/status").unwrap_or(0.0);
    let tail = tail_quantile(Workload::Offline);

    let metrics = if !args.trace {
        let pass_rates = block_rates(&passes_done_s);
        vec![
            Metric::new("setup_s", median(&setups), "s").with_samples(setups.clone()),
            Metric::new("ops_per_s", median(&pass_rates), "1/s").with_samples(pass_rates),
            Metric::new("op_p50_ms", median(&pass_ms), "ms").with_samples(pass_ms.clone()),
            Metric::new("op_tail_ms", quantile(&pass_ms, tail), "ms").with_samples(pass_ms.clone()),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    } else {
        write_spans(args, "", &tracer);
        offline_layers(&passes, &tracer, (traced_s, plain_s))
    };
    let record = record(
        args,
        &metrics,
        vec![
            ("op", string("one pipeline pass")),
            ("tail_quantile", num(tail)),
            ("passes", attempted.to_string()),
            ("warm_passes_agree", warm_ok.to_string()),
            ("failed_passes", string_list(&failures)),
        ],
    );
    Ok(Outcome {
        correct: failed == 0 && warm_ok,
        attempted,
        failed,
        metrics,
        record,
    })
}

fn offline_layers(
    passes: &[PassStats],
    tracer: &Tracer,
    (traced_s, plain_s): (f64, f64),
) -> Vec<Metric> {
    let spans = tracer.per_request_self_ns();
    let n = passes.len() as f64;
    let mean = |f: &dyn Fn(&PassStats) -> f64| ratio(passes.iter().map(f).sum(), n);
    let diamonds = |p: &PassStats| {
        (p.exec.forward_diamonds + p.exec.reverse_diamonds + p.exec.csc_diamonds) as f64
    };
    let all_diamonds: f64 = passes.iter().map(diamonds).sum();
    let share = |f: &dyn Fn(&PassStats) -> usize| {
        ratio(passes.iter().map(|p| f(p) as f64).sum(), all_diamonds)
    };
    let dispatch = passes
        .iter()
        .map(|p| p.exec.dispatch_cost_ns)
        .max()
        .unwrap_or(0);
    let dispatch = if dispatch == 0 {
        portnum_graph::pool::WorkerPool::global().dispatch_cost_ns()
    } else {
        dispatch
    };
    per_layer(vec![
        Metric::new(
            "plan.forward_share",
            share(&|p| p.exec.forward_diamonds),
            "share",
        ),
        Metric::new(
            "plan.reverse_share",
            share(&|p| p.exec.reverse_diamonds),
            "share",
        ),
        Metric::new("plan.csc_share", share(&|p| p.exec.csc_diamonds), "share"),
        Metric::new(
            "plan.fixpoint_iters",
            mean(&|p| p.exec.fixpoint_iters as f64),
            "count",
        ),
        span_metric(&spans, "plan.execute", "plan.execute_ms", "ms"),
        Metric::new(
            "plan.chunked_ops",
            mean(&|p| p.exec.chunked_ops as f64),
            "count",
        ),
        Metric::new(
            "plan.level_parallel_ops",
            mean(&|p| p.exec.level_parallel_ops as f64),
            "count",
        ),
        Metric::new("pool.dispatch_cost_ns", dispatch as f64, "ns"),
        span_metric(&spans, "kripke.build", "kripke.build_ms", "ms"),
        span_metric(&spans, "bisim.refine", "bisim.refine_ms", "ms"),
        Metric::new("bisim.rounds", mean(&|p| p.rounds as f64), "count"),
        Metric::new(
            "bisim.encoded_per_world",
            mean(&|p| ratio(p.encoded as f64, p.worlds as f64)),
            "count",
        ),
        span_metric(
            &spans,
            "quotient.minimum_base",
            "quotient.minimum_base_ms",
            "ms",
        ),
        span_metric(&spans, "quotient.check", "quotient.check_ms", "ms"),
        Metric::new(
            "quotient.ratio",
            mean(&|p| ratio(p.base_worlds as f64, p.worlds as f64)),
            "share",
        ),
        span_metric(&spans, "simulator.run", "simulator.run_ms", "ms"),
        Metric::new("simulator.rounds", mean(&|p| p.sim_rounds as f64), "count"),
        Metric::new(
            "simulator.max_message_units",
            passes.iter().map(|p| p.sim_max_units).max().unwrap_or(0) as f64,
            "count",
        ),
        Metric::new(
            "trace.overhead_share",
            ratio(traced_s - plain_s, plain_s),
            "share",
        ),
    ])
}
