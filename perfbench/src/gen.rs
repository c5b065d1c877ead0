//! Seeded inputs. Every model a workload uploads and every request frame
//! a connection sends is a pure function of `(workload, seed, scale)`;
//! the program under test only ever sees the generated bytes. Models
//! travel as explicit `ModelSpec::Edges`, never as specs the server
//! expands itself.

use portnum_graph::{generators, PortNumbering};
use portnum_logic::{Formula, Kripke, KripkeBuilder, ModalIndex, ModelVariant};
use portnum_serve::{DeltaSpec, ModelSpec, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Connections of the closed-loop load generator.
pub const CONNS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm cache hits on three small models, one of them hot.
    ServeHot,
    /// Fresh formula batches on two large models.
    ServeCold,
    /// Deltas beside checks of a fixed suite.
    ServeLive,
    /// The paper pipeline without a server.
    Offline,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::ServeLive,
        Workload::Offline,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::ServeLive => "serve_live",
            Workload::Offline => "offline",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's own, or tiny ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Sizes that finish in well under a second.
    Tiny,
}

/// World counts of every generated model.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub hot_gnp: usize,
    pub hot_path: usize,
    pub hot_ported: usize,
    pub cold_gnp: usize,
    pub cold_path: usize,
    pub live_path: usize,
    pub live_gnp: usize,
    pub live_ported: usize,
    pub offline_gnp: usize,
    pub offline_sim: usize,
}

impl Scale {
    /// The world counts at this scale.
    pub fn sizes(self) -> Sizes {
        match self {
            Scale::Full => Sizes {
                hot_gnp: 512,
                hot_path: 4096,
                hot_ported: 1024,
                cold_gnp: 1 << 17,
                cold_path: 1 << 18,
                live_path: 1 << 16,
                live_gnp: 1 << 14,
                live_ported: 1 << 12,
                offline_gnp: 1 << 14,
                offline_sim: 1024,
            },
            Scale::Tiny => Sizes {
                hot_gnp: 64,
                hot_path: 256,
                hot_ported: 64,
                cold_gnp: 1024,
                cold_path: 2048,
                live_path: 512,
                live_gnp: 256,
                live_ported: 64,
                offline_gnp: 512,
                offline_sim: 64,
            },
        }
    }
}

/// Derives an independent stream seed from `seed` and a tag (splitmix64).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------

/// A sparse `G(n, p)` graph as `K₋,₋`, streamed through the builder
/// (O(n + edges), unlike the server-side `Gnp` spec's pair loop).
pub fn gnp_model(n: usize, avg_degree: f64, seed: u64) -> Kripke {
    let p = (avg_degree / n as f64).min(0.5);
    KripkeBuilder::new(ModelVariant::MinusMinus, n)
        .relation(ModalIndex::Any, move || generators::gnp_edges(n, p, seed))
        .degrees_from_streams()
        .build()
        .expect("gnp stream stays in range")
}

/// The path on `n` worlds as `K₋,₋`, with a seeded valuation: `q1` and
/// `q3` each mark about one world in 32, every other world is `q2`. The
/// sparse `q1` marks bound how far a reachability fixpoint must iterate.
pub fn marked_path(n: usize, seed: u64) -> Kripke {
    let mut rng = StdRng::seed_from_u64(seed);
    let degrees = (0..n)
        .map(|_| match rng.random_range(0..32u32) {
            0 => 1,
            1 => 3,
            _ => 2,
        })
        .collect();
    KripkeBuilder::new(ModelVariant::MinusMinus, n)
        .relation(ModalIndex::Any, move || generators::path_edges(n))
        .degrees(degrees)
        .build()
        .expect("path stream stays in range")
}

/// A random 3-regular graph with a random port numbering as `K₊,₊`,
/// with about one world in 32 valued `q1` instead of its degree, so a
/// reachability fixpoint has goals from the start.
pub fn ported_regular(n: usize, seed: u64) -> Kripke {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::random_regular(n, 3, &mut rng);
    let p = PortNumbering::random(&g, &mut rng);
    let ModelSpec::Edges {
        variant,
        n,
        degrees,
        relations,
    } = ModelSpec::from_model(&Kripke::k_pp(&g, &p))
    else {
        unreachable!("from_model always gives explicit edges");
    };
    let degrees = degrees.map(|d| {
        d.into_iter()
            .map(|x| {
                if rng.random_range(0..32u32) == 0 {
                    1
                } else {
                    x
                }
            })
            .collect()
    });
    ModelSpec::Edges {
        variant,
        n,
        degrees,
        relations,
    }
    .build()
    .expect("a relabelled K++ model builds")
}

// ---------------------------------------------------------------------
// Formulas
// ---------------------------------------------------------------------

/// Which modality indices a generated formula may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `⟨*,*⟩` only (`K₋,₋` models).
    Any,
    /// `⟨i,j⟩` over ports `0..3` (3-regular `K₊,₊` models).
    Ported,
}

impl Family {
    fn of(model: &Kripke) -> Family {
        match model.variant() {
            ModelVariant::PlusPlus => Family::Ported,
            _ => Family::Any,
        }
    }

    fn index(self, rng: &mut StdRng) -> ModalIndex {
        match self {
            Family::Any => ModalIndex::Any,
            Family::Ported => ModalIndex::InOut(rng.random_range(0..3), rng.random_range(0..3)),
        }
    }

    fn all(self) -> Vec<ModalIndex> {
        match self {
            Family::Any => vec![ModalIndex::Any],
            Family::Ported => (0..3)
                .flat_map(|i| (0..3).map(move |j| ModalIndex::InOut(i, j)))
                .collect(),
        }
    }
}

/// A random formula of modal depth at most `depth` over the atoms
/// `q0..q{atoms-1}`; graded diamonds when `graded`. A small atom set
/// makes subformulas recur across a stream, as real suites do.
pub fn random_formula(
    rng: &mut StdRng,
    depth: usize,
    atoms: usize,
    family: Family,
    graded: bool,
) -> Formula {
    if depth == 0 || rng.random_bool(0.25) {
        return Formula::prop(rng.random_range(0..atoms));
    }
    let sub = |rng: &mut StdRng| random_formula(rng, depth - 1, atoms, family, graded);
    match rng.random_range(0..6u8) {
        0 => sub(rng).not(),
        1 => sub(rng).and(&sub(rng)),
        2 => sub(rng).or(&sub(rng)),
        3 | 4 if graded => {
            let index = family.index(rng);
            Formula::diamond_geq(index, rng.random_range(1..4usize), &sub(rng))
        }
        _ => Formula::diamond(family.index(rng), &sub(rng)),
    }
}

/// A depth-3 formula of one fixed shape,
/// `⟨α⟩≥g (qa ∧ ¬⟨β⟩(qb ∨ ⟨γ⟩qc)) ∨ qd`, with random indices, grade and
/// atoms: every serve_hot batch of a size costs about the same to frame
/// and parse, whatever the seed.
pub fn hot_formula(rng: &mut StdRng, family: Family) -> Formula {
    let mut atom = || Formula::prop(rng.random_range(0..4usize));
    let (a, b, c, d) = (atom(), atom(), atom(), atom());
    let inner = b.or(&Formula::diamond(family.index(rng), &c));
    let body = a.and(&Formula::diamond(family.index(rng), &inner).not());
    Formula::diamond_geq(family.index(rng), rng.random_range(1..4usize), &body).or(&d)
}

/// `µX. goal ∨ ⋁_α ⟨α⟩X`: the worlds that can reach a `goal` world.
pub fn reachability(goal: &Formula, family: Family) -> Formula {
    let step = Formula::any_of(
        family
            .all()
            .into_iter()
            .map(|i| Formula::diamond(i, &Formula::var("X"))),
    );
    Formula::mu("X", &goal.or(&step)).expect("X occurs only positively")
}

/// The eval benches' nested graded diamonds, over the family's indices.
pub fn nested_diamonds(depth: usize, family: Family) -> Formula {
    let mut f = Formula::prop(2);
    for i in 0..depth {
        let index = match family {
            Family::Any => ModalIndex::Any,
            Family::Ported => ModalIndex::InOut(i % 3, (i + 1) % 3),
        };
        f = Formula::diamond_geq(index, 1 + (i % 2), &f).or(&Formula::prop(1));
    }
    f
}

/// serve_live's fixed suite: `nested_diamonds(1..=6)` plus reachability
/// of a `q1` world.
pub fn live_suite(family: Family) -> Vec<Formula> {
    let mut suite: Vec<Formula> = (1..=6).map(|d| nested_diamonds(d, family)).collect();
    suite.push(reachability(&Formula::prop(1), family));
    suite
}

fn check_body(model: u64, formulas: Vec<Formula>) -> Vec<u8> {
    Request::Check { model, formulas }.encode()
}

// ---------------------------------------------------------------------
// Request streams
// ---------------------------------------------------------------------

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Check,
    Delta,
}

/// One request frame body, ready to send.
#[derive(Debug, Clone)]
pub struct Outgoing {
    pub kind: Kind,
    pub body: Vec<u8>,
}

/// A model serve_live edits: its edges, and the ones removed now.
#[derive(Debug, Clone)]
pub struct LiveModel {
    id: u64,
    suite_body: Vec<u8>,
    /// Edges that deltas may remove, each as its stored directed entries
    /// (both directions on a symmetric `K₋,₋` relation).
    edges: Vec<Vec<(ModalIndex, u32, u32)>>,
    removed: Vec<usize>,
    deltas: u64,
    n: u32,
}

/// Edges removed (and restored) per delta.
pub const DELTA_EDGES: usize = 10;

impl LiveModel {
    fn new(id: u64, model: &Kripke) -> LiveModel {
        let family = Family::of(model);
        let mut edges = Vec::new();
        for r in 0..model.relation_count() {
            let index = model.relation_index(r);
            for v in 0..model.len() {
                for &w in model.successors_dense(r, v) {
                    let v = v as u32;
                    match family {
                        Family::Any if v < w => edges.push(vec![(index, v, w), (index, w, v)]),
                        Family::Any => {}
                        Family::Ported => edges.push(vec![(index, v, w)]),
                    }
                }
            }
        }
        assert!(
            edges.len() > 2 * DELTA_EDGES,
            "model {id} has too few edges to edit"
        );
        LiveModel {
            id,
            suite_body: check_body(id, live_suite(family)),
            edges,
            removed: Vec::new(),
            deltas: 0,
            n: model.len() as u32,
        }
    }

    /// Restores the previously removed edges and removes fresh ones;
    /// every 4th delta also overrides one world's valuation.
    fn next_delta(&mut self, rng: &mut StdRng) -> DeltaSpec {
        let mut spec = DeltaSpec::default();
        for &e in &self.removed {
            spec.add.extend_from_slice(&self.edges[e]);
        }
        let mut fresh = Vec::with_capacity(DELTA_EDGES);
        while fresh.len() < DELTA_EDGES {
            let e = rng.random_range(0..self.edges.len());
            if !self.removed.contains(&e) && !fresh.contains(&e) {
                fresh.push(e);
            }
        }
        for &e in &fresh {
            spec.remove.extend_from_slice(&self.edges[e]);
        }
        self.removed = fresh;
        self.deltas += 1;
        if self.deltas.is_multiple_of(4) {
            spec.valuation
                .push((rng.random_range(0..self.n), rng.random_range(0..4u64)));
        }
        spec
    }
}

/// One connection's request stream.
#[derive(Debug, Clone)]
pub enum Stream {
    /// Uniform draws from the shared pool of 64 batches.
    Hot {
        rng: StdRng,
        pool: Arc<Vec<Vec<u8>>>,
    },
    /// Fresh graded batches against one model; every 8th also carries a
    /// reachability fixpoint.
    Cold { rng: StdRng, model: u64, sent: u64 },
    /// Per owned model in turn: one delta, then three checks of the
    /// model's fixed suite.
    Live {
        rng: StdRng,
        models: Vec<LiveModel>,
        step: u64,
    },
}

/// Graded formulas per serve_cold batch.
pub const COLD_BATCH: usize = 8;

impl Stream {
    /// The next request frame of the stream.
    pub fn next_request(&mut self) -> Outgoing {
        match self {
            Stream::Hot { rng, pool } => {
                let i = rng.random_range(0..pool.len());
                Outgoing {
                    kind: Kind::Check,
                    body: pool[i].clone(),
                }
            }
            Stream::Cold { rng, model, sent } => {
                let mut batch: Vec<Formula> = (0..COLD_BATCH)
                    .map(|_| random_formula(rng, 5, 4, Family::Any, true))
                    .collect();
                if *sent % 8 == 7 {
                    // The goal is `q1 ∨ (φ ∧ ¬φ)`, φ the conjunction of
                    // the batch: new to the cache every time, yet always
                    // `q1`, so every fixpoint on a model iterates alike
                    // and the tail does not hang on how dense a random
                    // goal happens to be.
                    let all = batch[1..].iter().fold(batch[0].clone(), |a, f| a.and(f));
                    let goal = Formula::prop(1).or(&all.and(&all.not()));
                    batch.push(reachability(&goal, Family::Any));
                }
                *sent += 1;
                Outgoing {
                    kind: Kind::Check,
                    body: check_body(*model, batch),
                }
            }
            Stream::Live { rng, models, step } => {
                let owned = models.len();
                let live = &mut models[(*step / 4) as usize % owned];
                let out = if step.is_multiple_of(4) {
                    let delta = live.next_delta(rng);
                    let body = Request::Delta {
                        model: live.id,
                        delta,
                    }
                    .encode();
                    Outgoing {
                        kind: Kind::Delta,
                        body,
                    }
                } else {
                    Outgoing {
                        kind: Kind::Check,
                        body: live.suite_body.clone(),
                    }
                };
                *step += 1;
                out
            }
        }
    }
}

/// Everything a serve workload sends: the models uploaded during set-up,
/// the warm-up requests sent after them on connection 0, and one request
/// stream per connection.
#[derive(Debug, Clone)]
pub struct ServePlan {
    pub loads: Vec<Vec<u8>>,
    pub warmup: Vec<Vec<u8>>,
    pub streams: Vec<Stream>,
}

fn load_body(id: u64, model: &Kripke) -> Vec<u8> {
    Request::Load {
        model: id,
        spec: ModelSpec::from_model(model),
    }
    .encode()
}

/// The seed of every served model. Models are fixed per workload; the
/// run's seed drives what is sent to them, so runs with different seeds
/// measure the same data under different traffic.
const MODEL_SEED: u64 = 0x0005_eed0_f0de_15ed;

/// Model ids land on distinct shards of the default four, so no model's
/// cache competes with another's for a shard's memory budget.
pub fn serve_plan(workload: Workload, seed: u64, scale: Scale) -> ServePlan {
    let s = scale.sizes();
    let model_seed = |tag: u64| sub_seed(MODEL_SEED, tag);
    let conn_rng = |c: usize| StdRng::seed_from_u64(sub_seed(seed, 100 + c as u64));
    match workload {
        Workload::ServeHot => {
            let models = [
                gnp_model(s.hot_gnp, 0.05 * s.hot_gnp as f64, model_seed(1)),
                marked_path(s.hot_path, model_seed(2)),
                ported_regular(s.hot_ported, model_seed(3)),
            ];
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
            // 64 batches: half for model 0 (the hot shard), a quarter for
            // each other model; 3 in 8 of each model's batches carry 1
            // formula, the rest 16. With an even split the p50 would sit
            // on the gap between the two batch sizes' latencies and jump
            // across it from seed to seed.
            let pool: Vec<Vec<u8>> = (0..64usize)
                .map(|i| {
                    let id = match i {
                        0..=31 => 0,
                        32..=47 => 1,
                        _ => 2,
                    };
                    let family = Family::of(&models[id]);
                    let len = if i % 8 < 3 { 1 } else { 16 };
                    let batch = (0..len).map(|_| hot_formula(&mut rng, family)).collect();
                    check_body(id as u64, batch)
                })
                .collect();
            let pool = Arc::new(pool);
            ServePlan {
                loads: models
                    .iter()
                    .enumerate()
                    .map(|(id, m)| load_body(id as u64, m))
                    .collect(),
                warmup: pool.to_vec(),
                streams: (0..CONNS)
                    .map(|c| Stream::Hot {
                        rng: conn_rng(c),
                        pool: Arc::clone(&pool),
                    })
                    .collect(),
            }
        }
        Workload::ServeCold => {
            let models = [
                gnp_model(s.cold_gnp, 3.0, model_seed(4)),
                marked_path(s.cold_path, model_seed(5)),
            ];
            // Touch each model once so lazily built adjacency is in place
            // before the timed loop.
            let probe = || {
                vec![
                    Formula::diamond(ModalIndex::Any, &Formula::prop(1)),
                    Formula::prop(2),
                ]
            };
            ServePlan {
                loads: models
                    .iter()
                    .enumerate()
                    .map(|(id, m)| load_body(id as u64, m))
                    .collect(),
                warmup: (0..models.len() as u64)
                    .map(|id| check_body(id, probe()))
                    .collect(),
                streams: (0..CONNS)
                    .map(|c| Stream::Cold {
                        rng: conn_rng(c),
                        model: c as u64,
                        sent: 0,
                    })
                    .collect(),
            }
        }
        Workload::ServeLive => {
            let models = [
                marked_path(s.live_path, model_seed(6)),
                gnp_model(s.live_gnp, 4.0, model_seed(7)),
                ported_regular(s.live_ported, model_seed(8)),
            ];
            let live: Vec<LiveModel> = models
                .iter()
                .enumerate()
                .map(|(id, m)| LiveModel::new(id as u64, m))
                .collect();
            // Connection 0 owns the path, connection 1 the other two, so
            // every model's request order is deterministic.
            let owned = [
                vec![live[0].clone()],
                vec![live[1].clone(), live[2].clone()],
            ];
            ServePlan {
                loads: models
                    .iter()
                    .enumerate()
                    .map(|(id, m)| load_body(id as u64, m))
                    .collect(),
                warmup: live.iter().map(|m| m.suite_body.clone()).collect(),
                streams: owned
                    .into_iter()
                    .enumerate()
                    .map(|(c, models)| Stream::Live {
                        rng: conn_rng(c),
                        models,
                        step: 0,
                    })
                    .collect(),
            }
        }
        Workload::Offline => panic!("offline sends no requests"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(plan: &ServePlan, per_stream: usize) -> Vec<Vec<u8>> {
        let mut out = plan.loads.clone();
        out.extend(plan.warmup.iter().cloned());
        for stream in &plan.streams {
            let mut stream = stream.clone();
            out.extend((0..per_stream).map(|_| stream.next_request().body));
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_frames() {
        for w in [Workload::ServeHot, Workload::ServeCold, Workload::ServeLive] {
            let a = frames(&serve_plan(w, 11, Scale::Tiny), 64);
            let b = frames(&serve_plan(w, 11, Scale::Tiny), 64);
            assert_eq!(a, b, "{} frames differ between equal seeds", w.name());
            let c = frames(&serve_plan(w, 12, Scale::Tiny), 64);
            assert_ne!(a, c, "{} frames ignore the seed", w.name());
        }
    }

    #[test]
    fn every_frame_decodes() {
        for w in [Workload::ServeHot, Workload::ServeCold, Workload::ServeLive] {
            for body in frames(&serve_plan(w, 3, Scale::Tiny), 32) {
                Request::decode(&body).expect("generated frames are well-formed");
            }
        }
    }

    #[test]
    fn live_deltas_restore_what_they_removed() {
        let model = marked_path(64, 5);
        let mut live = LiveModel::new(0, &model);
        let mut rng = StdRng::seed_from_u64(1);
        let first = live.next_delta(&mut rng);
        let second = live.next_delta(&mut rng);
        assert!(first.add.is_empty());
        assert_eq!(first.remove.len(), 2 * DELTA_EDGES);
        assert_eq!(second.add, first.remove);
    }
}
