//! Workload generators shared by the Criterion benches and `reproduce`.

use portnum_graph::{generators, Graph, PortNumbering};
use portnum_logic::{Formula, Kripke, KripkeBuilder, ModalIndex, ModelDelta, ModelVariant};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A depth-`depth` model-checking formula alternating grade-1 and
/// grade-2 diamonds over `Any`, used by the eval benches and the
/// `BENCH_eval.json` snapshot — one definition so both measure the
/// same workload.
pub fn nested_diamonds(depth: usize) -> Formula {
    let mut f = Formula::prop(2);
    for i in 0..depth {
        let grade = 1 + (i % 2);
        f = Formula::diamond_geq(ModalIndex::Any, grade, &f).or(&Formula::prop(1));
    }
    f
}

/// A depth-3 formula of `serve_hot`'s fixed shape over `K₋,₋`,
/// `⟨*,*⟩≥g (qa ∧ ¬⟨*,*⟩(qb ∨ ⟨*,*⟩qc)) ∨ qd`, with random atoms
/// `a, b, c, d < 4` and grade `1 ≤ g ≤ 3`.
pub fn hot_formula(rng: &mut StdRng) -> Formula {
    use rand::Rng;
    let mut atom = || Formula::prop(rng.random_range(0..4usize));
    let (a, b, c, d) = (atom(), atom(), atom(), atom());
    let inner = b.or(&Formula::diamond(ModalIndex::Any, &c));
    let body = a.and(&Formula::diamond(ModalIndex::Any, &inner).not());
    Formula::diamond_geq(ModalIndex::Any, rng.random_range(1..4usize), &body).or(&d)
}

/// A random `K₋,₋` formula of modal depth at most `depth` over the atoms
/// `q0..q{atoms-1}`, with grades 1–3: `perfbench`'s serve_cold draw.
pub fn random_graded_formula(rng: &mut StdRng, depth: usize, atoms: usize) -> Formula {
    use rand::Rng;
    if depth == 0 || rng.random_bool(0.25) {
        return Formula::prop(rng.random_range(0..atoms));
    }
    let sub = |rng: &mut StdRng| random_graded_formula(rng, depth - 1, atoms);
    match rng.random_range(0..6u8) {
        0 => sub(rng).not(),
        1 => sub(rng).and(&sub(rng)),
        2 => sub(rng).or(&sub(rng)),
        3 | 4 => Formula::diamond_geq(ModalIndex::Any, rng.random_range(1..4usize), &sub(rng)),
        _ => Formula::diamond(ModalIndex::Any, &sub(rng)),
    }
}

/// serve_cold's fixpoint for a batch: `µX. (q1 ∨ (φ ∧ ¬φ)) ∨ ⟨*,*⟩X`
/// with `φ` the conjunction of the batch, a goal new to a cache that
/// holds the batch yet always `q1`.
pub fn closed_goal_reachability(batch: &[Formula]) -> Formula {
    let all = batch[1..].iter().fold(batch[0].clone(), |a, f| a.and(f));
    let goal = Formula::prop(1).or(&all.and(&all.not()));
    let step = Formula::diamond(ModalIndex::Any, &Formula::var("X"));
    Formula::mu("X", &goal.or(&step)).expect("X occurs only positively")
}

/// `f_{n+1} = f_n ∧ f_n` iterated `levels` times over a diamond seed:
/// an exponential formula tree that is a linear DAG, exercising the
/// evaluator's shared-subformula memoisation.
pub fn shared_dag(levels: usize) -> Formula {
    let mut f = Formula::diamond(ModalIndex::Any, &Formula::prop(2));
    for _ in 0..levels {
        f = f.and(&f);
    }
    f
}

/// A named graph instance with a port numbering.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name.
    pub name: String,
    /// The graph.
    pub graph: Graph,
    /// A port numbering (consistent unless stated otherwise in the name).
    pub ports: PortNumbering,
}

impl Workload {
    /// Builds a workload with the canonical consistent numbering.
    pub fn consistent(name: impl Into<String>, graph: Graph) -> Workload {
        let ports = PortNumbering::consistent(&graph);
        Workload { name: name.into(), graph, ports }
    }

    /// Builds a workload with a seeded random numbering.
    pub fn random(name: impl Into<String>, graph: Graph, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let ports = PortNumbering::random(&graph, &mut rng);
        Workload { name: name.into(), graph, ports }
    }
}

/// The standard small-graph suite used across benches: one representative
/// per structural family the paper's proofs care about.
pub fn standard_suite() -> Vec<Workload> {
    vec![
        Workload::consistent("figure1", generators::figure1_graph()),
        Workload::consistent("cycle16", generators::cycle(16)),
        Workload::consistent("star8", generators::star(8)),
        Workload::consistent("grid4x4", generators::grid(4, 4)),
        Workload::consistent("petersen", generators::petersen()),
        Workload::consistent("no1factor3", generators::no_one_factor(3)),
        Workload::consistent("thm13", generators::theorem13_witness().0),
    ]
}

/// Cycles of increasing size (scaling benches).
pub fn cycle_sweep(sizes: &[usize]) -> Vec<Workload> {
    sizes.iter().map(|&n| Workload::consistent(format!("cycle{n}"), generators::cycle(n))).collect()
}

/// Paths of increasing size — the long-diameter workloads where
/// refinement takes Θ(n) rounds and each round changes O(1) blocks.
/// These are the headline cases for the worklist refinement engine.
pub fn path_sweep(sizes: &[usize]) -> Vec<Workload> {
    sizes.iter().map(|&n| Workload::consistent(format!("path{n}"), generators::path(n))).collect()
}

/// A deep caterpillar tree on `n` nodes (`n/2` spine nodes, one leaf
/// each): diameter ~n/2 like a path, but with degree-3 spine worlds so
/// the refinement frontier carries both leaf and spine blocks.
pub fn deep_tree(n: usize) -> Workload {
    Workload::consistent(format!("deep_tree{n}"), generators::caterpillar(n / 2))
}

/// A huge sparse model: a 16384-world path, whose n²-bit predecessor
/// matrix would cost 16384 × 256 = 2²² `u64` words (32 MiB) per
/// relation while its CSC store is O(n). The workload where the CSC
/// gather's sparse inner set beats the forward sweep's O(n) pass.
pub fn sparse_huge() -> Workload {
    let n = 16_384;
    Workload::consistent(format!("sparse_huge{n}"), generators::path(n))
}

/// The sparse-inner-set diamond paired with [`sparse_huge`]: `⟨*,*⟩q₁`
/// holds at a path's two endpoint-neighbours, so `‖φ‖` has two worlds
/// and the reverse gather touches two predecessor rows where the
/// forward sweep walks all n worlds.
pub fn endpoint_diamond() -> Formula {
    Formula::diamond(ModalIndex::Any, &Formula::prop(1))
}

/// Random `d`-regular graphs of increasing size.
pub fn regular_sweep(d: usize, sizes: &[usize], seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    sizes
        .iter()
        .map(|&n| {
            let g = generators::random_regular(n, d, &mut rng);
            Workload::random(format!("reg{d}-{n}"), g, seed ^ n as u64)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Streamed million-world families. Each builds a `K₋,₋` model straight
// through `KripkeBuilder`'s two-pass streaming CSR construction — no
// `Graph`, no port numbering, no intermediate edge `Vec` — so peak
// memory is the finished CSR plus O(1) stream state. At 10⁶–10⁷
// worlds that is the difference between fitting in RAM and not.
// ---------------------------------------------------------------------

/// The streamed path `P_n` as a `K₋,₋` model on `n` worlds.
pub fn huge_path(n: usize) -> Kripke {
    KripkeBuilder::new(ModelVariant::MinusMinus, n)
        .relation(ModalIndex::Any, move || generators::path_edges(n))
        .build()
        .expect("path stream stays in range")
}

/// The streamed caterpillar (spine path plus one leaf per spine world)
/// as a `K₋,₋` model on `2·spine` worlds — the deep-tree shape of
/// [`deep_tree`] at sizes where building the `Graph` first would
/// dominate.
pub fn huge_caterpillar(spine: usize) -> Kripke {
    KripkeBuilder::new(ModelVariant::MinusMinus, 2 * spine)
        .relation(ModalIndex::Any, move || generators::caterpillar_edges(spine))
        .build()
        .expect("caterpillar stream stays in range")
}

/// A streamed circulant (bounded-degree regular) `K₋,₋` model: world
/// `v` sees `v ± o (mod n)` for every offset.
pub fn huge_circulant(n: usize, offsets: Vec<usize>) -> Kripke {
    KripkeBuilder::new(ModelVariant::MinusMinus, n)
        .relation(ModalIndex::Any, move || generators::circulant_edges(n, &offsets))
        .build()
        .expect("circulant stream stays in range")
}

/// A streamed sparse `G(n, p)` `K₋,₋` model (seeded, deterministic):
/// the geometric-skip stream touches only the kept pairs, so
/// construction is `O(n + edges)` even though the pair space is
/// `n(n−1)/2`. For a bounded average degree `d`, pass `p = d / n`.
pub fn huge_gnp(n: usize, p: f64, seed: u64) -> Kripke {
    KripkeBuilder::new(ModelVariant::MinusMinus, n)
        .relation(ModalIndex::Any, move || generators::gnp_edges(n, p, seed))
        .build()
        .expect("gnp stream stays in range")
}

/// The streamed path on `n` worlds as `K₋,₋` with a seeded valuation:
/// `q1` and `q3` each mark about one world in 32, every other world is
/// `q2` (serve_cold's path model).
pub fn marked_path(n: usize, seed: u64) -> Kripke {
    use rand::Rng;
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

/// The streamed path with a goal world every `goal_every` positions
/// (valuation 1 at goals, 0 elsewhere), the fixpoint benchmark model:
/// `µX. q1 ∨ ⟨*,*⟩X` converges in ≈ `goal_every/2` Kleene iterations,
/// and after the first dense pass the frontier is two worlds per goal
/// segment — tiny against the whole model, which is exactly the gap
/// the `reachability_1m` snapshot measures.
pub fn huge_reachability(n: usize, goal_every: usize) -> Kripke {
    assert!(goal_every >= 2, "adjacent goals leave no frontier to measure");
    KripkeBuilder::new(ModelVariant::MinusMinus, n)
        .relation(ModalIndex::Any, move || generators::path_edges(n))
        .degrees((0..n).map(|v| usize::from(v % goal_every == 0)).collect())
        .build()
        .expect("path stream stays in range")
}

/// The reachability fixpoint paired with [`huge_reachability`]:
/// `µX. q1 ∨ ⟨*,*⟩X` — every world can reach a goal, but only by
/// iterating the wave out from the goal worlds.
pub fn reachability_formula() -> Formula {
    Formula::mu(
        "X",
        &Formula::prop(1).or(&Formula::diamond(ModalIndex::Any, &Formula::var("X"))),
    )
    .expect("body is positive in X")
}

/// Random bounded-degree `G(n, p)` graphs.
pub fn gnp_sweep(sizes: &[usize], p: f64, seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    sizes
        .iter()
        .map(|&n| {
            let g = generators::gnp(n, p, &mut rng);
            Workload::consistent(format!("gnp{n}"), g)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Live-update delta workloads: deterministic `ModelDelta` sequences for
// the live_update bench and the `BENCH_eval.json` live_update rows.
// ---------------------------------------------------------------------

/// `k` localized edge-flip deltas against a symmetric single-relation
/// `K₋,₋` model: delta `i` removes the `i`-th sampled undirected edge
/// (both stored directions) and re-adds the previously removed one, so
/// every delta edits at most four directed entries and the model drifts
/// by one missing edge at a time. Edges are sampled distinct by a
/// seeded partial shuffle ([`generators::crash_schedule`] over edge
/// indices), making the sequence a pure function of `(model, k, seed)`.
///
/// # Panics
///
/// Panics if the model is not `K₋,₋` or stores fewer than `k`
/// undirected edges.
pub fn edge_flip_deltas(model: &Kripke, k: usize, seed: u64) -> Vec<ModelDelta> {
    let flips = flipped_edges(model, k, seed);
    let mut deltas = Vec::with_capacity(k);
    for (i, &(v, w)) in flips.iter().enumerate() {
        let mut d = ModelDelta::new();
        d.remove_edge(ModalIndex::Any, v, w).remove_edge(ModalIndex::Any, w, v);
        if i > 0 {
            let (pv, pw) = flips[i - 1];
            d.add_edge(ModalIndex::Any, pv, pw).add_edge(ModalIndex::Any, pw, pv);
        }
        deltas.push(d);
    }
    deltas
}

/// The same `k` edge flips as [`edge_flip_deltas`] as one arrival
/// batch: every sampled edge is removed and all but the last re-added,
/// which is exactly what the per-flip sequence composes to. Applying
/// the batch bumps the model's version once instead of once per flip —
/// the serving pattern the `live_update_repair` rows of `reproduce`
/// measure.
pub fn edge_flip_batch(model: &Kripke, k: usize, seed: u64) -> ModelDelta {
    let flips = flipped_edges(model, k, seed);
    let mut batch = ModelDelta::new();
    for &(v, w) in &flips {
        batch.remove_edge(ModalIndex::Any, v, w).remove_edge(ModalIndex::Any, w, v);
    }
    for &(v, w) in flips.iter().take(k.saturating_sub(1)) {
        batch.add_edge(ModalIndex::Any, v, w).add_edge(ModalIndex::Any, w, v);
    }
    batch
}

/// The `k` distinct undirected edges `(v, w)`, `v < w`, that
/// [`edge_flip_deltas`] flips in turn, sampled by a seeded partial
/// shuffle of the model's edge list.
fn flipped_edges(model: &Kripke, k: usize, seed: u64) -> Vec<(u32, u32)> {
    assert_eq!(model.variant(), ModelVariant::MinusMinus, "edge flips target K₋,₋ models");
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..model.len() {
        for &w in model.successors_dense(0, v) {
            if (v as u32) < w {
                edges.push((v as u32, w));
            }
        }
    }
    assert!(k <= edges.len(), "cannot flip {k} of {} undirected edges", edges.len());
    let picks = generators::crash_schedule(edges.len(), k, seed);
    picks.iter().map(|&e| edges[e as usize]).collect()
}

/// `k` crash-failure deltas: each crashes one distinct world (sampled
/// by [`generators::crash_schedule`]), isolating it from every stored
/// relation while the universe keeps its size. Works on any model
/// variant.
pub fn crash_deltas(model: &Kripke, k: usize, seed: u64) -> Vec<ModelDelta> {
    generators::crash_schedule(model.len(), k, seed)
        .into_iter()
        .map(|v| {
            let mut d = ModelDelta::new();
            d.crash_world(v);
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_wellformed() {
        for w in standard_suite() {
            assert_eq!(w.graph.len(), w.ports.len(), "{}", w.name);
            assert!(w.ports.is_consistent());
        }
        assert_eq!(cycle_sweep(&[4, 8]).len(), 2);
        let regs = regular_sweep(3, &[8, 10], 7);
        assert!(regs.iter().all(|w| w.graph.max_degree() == 3));
    }

    #[test]
    fn streamed_families_match_graph_built_models_in_miniature() {
        // The streamed builders must agree with the Graph route at
        // sizes where both are affordable; path and caterpillar emit
        // rows in the Graph generators' exact adjacency order, so the
        // models are `Eq`.
        assert_eq!(huge_path(64), Kripke::k_mm(&generators::path(64)));
        assert_eq!(huge_caterpillar(32), Kripke::k_mm(&generators::caterpillar(32)));
        // Circulant rows may order offsets differently; check shape.
        let c = huge_circulant(60, vec![1, 7]);
        assert_eq!(c.len(), 60);
        assert!(c.degrees().iter().all(|&d| d == 4));
        // The gnp stream is its own RNG; check symmetry-level facts.
        let g = huge_gnp(500, 0.01, 42);
        assert_eq!(g.len(), 500);
        assert_eq!(g.degrees().iter().sum::<usize>(), g.relation_entry_count());
        assert!(g.relation_entry_count().is_multiple_of(2), "symmetric pairs come in twos");
    }

    #[test]
    fn delta_workloads_apply_cleanly_and_stay_localized() {
        let mut k = Kripke::k_mm(&generators::path(64));
        let entries = k.relation_entry_count();
        for (i, d) in edge_flip_deltas(&k, 8, 9).iter().enumerate() {
            let touched = k.apply_delta(d).expect("flip deltas name stored edges");
            assert!(touched.len() <= 4, "delta {i} touched {touched:?}");
        }
        // Net effect of 8 flips: exactly one undirected edge missing.
        assert_eq!(k.relation_entry_count(), entries - 2);
        assert_eq!(edge_flip_deltas(&k, 8, 9).len(), 8);

        // The net batch composes to the same model as the sequence.
        let base = Kripke::k_mm(&generators::path(64));
        let mut batched = base.clone();
        batched.apply_delta(&edge_flip_batch(&base, 8, 9)).expect("batch applies");
        assert_eq!(batched, k);
        assert_eq!(batched.version(), 1, "one arrival, one version bump");

        let mut k = Kripke::k_mm(&generators::cycle(32));
        let crashes = crash_deltas(&k, 5, 3);
        for d in &crashes {
            k.apply_delta(d).expect("crashes are always valid");
        }
        // Crashed worlds are isolated (bystanders may lose edges too).
        assert_eq!(crashes.len(), 5);
        assert!(k.degrees().iter().filter(|&&d| d == 0).count() >= 5);
        assert_eq!(k.len(), 32, "the universe never shrinks");
    }
}
