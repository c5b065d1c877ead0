//! The streaming model-construction differentials.
//!
//! Three claims are pinned here:
//!
//! 1. **Streamed ≡ Vec-built, all four variants.** A model assembled
//!    by [`KripkeBuilder`]'s two-pass streaming CSR construction is
//!    `Eq` (exact CSR arrays, not just logically equivalent) to the
//!    same model built by the canonical `Vec`-collecting constructors
//!    `k_pp`/`k_mp`/`k_pm`/`k_mm`. The streams are derived from the
//!    same `Graph` + `PortNumbering` through the public port API, in
//!    the constructors' visit order, so any divergence is the
//!    builder's fault, not the test's.
//!
//! 2. **Big-model smoke.** A streamed path model at the million-world
//!    scale (capped to 2¹⁷ worlds in debug builds so the suite stays
//!    fast) evaluates bit-identically under the forced-sequential,
//!    forced-parallel, and Auto executors — the at-scale version of
//!    the proptest matrices, run under every CI knob combination like
//!    the rest of this suite.
//!
//! 3. **Counted fixpoints at scale.** Reachability and box-form safety
//!    fixpoints on streamed paths with goals 100 and 10 000 worlds apart
//!    (1 000 in debug) match the Kleene reference bit for bit, and
//!    their frontier work stays within a count fixed by the body's
//!    shape. The reference iterates the whole model about `spacing / 2`
//!    times, so this leg takes about two minutes in release on 2 vCPUs.

mod common;

use common::{arb_graph, execute_pinned};
use portnum_graph::partition::Parallelism;
use portnum_graph::{generators, Graph, Port, PortNumbering};
use portnum_logic::plan::{DiamondMode, Plan};
use portnum_logic::{
    evaluate_packed_recursive, Formula, Kripke, KripkeBuilder, ModalIndex, ModelVariant,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rebuilds the port-projected variant of `(g, p)` through the
/// streaming builder: one replayable stream per modality index, each
/// walking ports in the constructors' `(world, port)` order and
/// filtering to its index.
fn streamed_variant(
    g: &Graph,
    p: &PortNumbering,
    variant: ModelVariant,
    proj: fn(usize, usize) -> ModalIndex,
) -> Kripke {
    let mut indices = std::collections::BTreeSet::new();
    for v in g.nodes() {
        for i in 0..g.degree(v) {
            let src = p.backward(Port::new(v, i));
            indices.insert(proj(i, src.index));
        }
    }
    let mut b = KripkeBuilder::new(variant, g.len());
    for &index in &indices {
        b = b.relation(index, move || {
            g.nodes().flat_map(move |v| {
                (0..g.degree(v)).filter_map(move |i| {
                    let src = p.backward(Port::new(v, i));
                    (proj(i, src.index) == index).then_some((v as u32, src.node as u32))
                })
            })
        });
    }
    b.build().expect("port pairs stay in range")
}

/// The `K₋,₋` model streamed straight off the adjacency lists (ports
/// play no role in that variant, exactly as in [`Kripke::k_mm`]).
fn streamed_mm(g: &Graph) -> Kripke {
    KripkeBuilder::new(ModelVariant::MinusMinus, g.len())
        .relation(ModalIndex::Any, || {
            g.nodes().flat_map(|v| g.neighbors(v).iter().map(move |&w| (v as u32, w as u32)))
        })
        .build()
        .expect("adjacency pairs stay in range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streamed_models_are_eq_to_vec_built_models(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        prop_assert_eq!(
            streamed_variant(&g, &p, ModelVariant::PlusPlus, ModalIndex::InOut),
            Kripke::k_pp(&g, &p)
        );
        prop_assert_eq!(
            streamed_variant(&g, &p, ModelVariant::MinusPlus, |_i, j| ModalIndex::Out(j)),
            Kripke::k_mp(&g, &p)
        );
        prop_assert_eq!(
            streamed_variant(&g, &p, ModelVariant::PlusMinus, |i, _j| ModalIndex::In(i)),
            Kripke::k_pm(&g, &p)
        );
        prop_assert_eq!(streamed_mm(&g), Kripke::k_mm(&g));
    }
}

/// Worlds of the big-model smoke: a full million in release (the
/// scale the streaming/blocked/sharded paths exist for), capped to
/// 2¹⁷ in debug builds where a million-world sweep would dominate the
/// suite's runtime.
const SMOKE_WORLDS: usize = if cfg!(debug_assertions) { 1 << 17 } else { 1 << 20 };

#[test]
fn million_world_streamed_path_evaluates_identically_across_executors() {
    let n = SMOKE_WORLDS;
    let k = KripkeBuilder::new(ModelVariant::MinusMinus, n)
        .relation(ModalIndex::Any, move || generators::path_edges(n))
        .build()
        .expect("path stream stays in range");
    assert_eq!(k.len(), n);
    // One grade-1 and one graded diamond plus a Prop mix: covers the
    // blocked forward sweep, the chunked Prop fill, and the
    // entry-sharded CSC gather in a single small suite.
    let f1 = Formula::diamond(ModalIndex::Any, &Formula::prop(1)).or(&Formula::prop(2));
    let f2 = Formula::diamond_geq(ModalIndex::Any, 2, &Formula::prop(2));
    let plan = Plan::compile_suite(&k, &[f1, f2.clone()]).expect("suite compiles");
    let (seq, ss) = execute_pinned(&plan, &k, DiamondMode::Auto, Parallelism::Off);
    let (par, ps) = execute_pinned(&plan, &k, DiamondMode::Auto, Parallelism::Force);
    let (auto, _) = plan.execute_with(&k, DiamondMode::Auto);
    assert_eq!(seq, par, "forced-parallel must be bit-identical at scale");
    assert_eq!(seq, auto, "Auto must be bit-identical at scale");
    assert_eq!(ss.executed, ps.executed);
    assert!(
        ps.chunked_ops + ps.level_parallel_ops > 0,
        "forced run must exercise the pool: {ps:?}"
    );
    assert_eq!(ss.dispatch_cost_ns, 0, "sequential runs report no dispatch cost");
    // A single-formula plan has one op per level, so the forced run
    // must take the *chunked* route (blocked forward sweeps, sharded
    // CSC gathers) rather than running whole ops level-parallel.
    let solo = Plan::compile(&k, &f2).expect("formula compiles");
    let (solo_seq, _) = execute_pinned(&solo, &k, DiamondMode::Auto, Parallelism::Off);
    let (solo_par, sp) = execute_pinned(&solo, &k, DiamondMode::Auto, Parallelism::Force);
    assert_eq!(solo_seq, solo_par, "chunked run must be bit-identical at scale");
    assert!(sp.chunked_ops > 0, "single-op levels must chunk: {sp:?}");
    assert_eq!(solo_seq[0], seq[1], "the two plans agree on the shared formula");
    // Cheap sanity anchors that the answers are not vacuously equal:
    // q₂ ∪ ⟨⟩q₁ holds exactly at the n − 2 interior (degree-2) worlds,
    // and ⟨⟩₂q₂ needs two degree-2 neighbours, which the worlds at
    // distance ≤ 1 from an endpoint lack.
    assert_eq!(seq[0].count_ones(), n - 2, "q2 ∪ ⟨⟩q1 covers exactly the interior");
    assert_eq!(seq[1].count_ones(), n - 4, "⟨⟩₂q₂ holds away from both endpoints");
}

/// Goal spacings of the fixpoint smoke. The Kleene reference pays one
/// whole-model pass per iteration, about `spacing / 2` of them, so debug
/// builds cap the wide spacing as they cap [`SMOKE_WORLDS`].
const SMOKE_SPACINGS: [usize; 2] =
    if cfg!(debug_assertions) { [100, 1_000] } else { [100, 10_000] };

/// The spaced-goal path of the fixpoint smoke: `SMOKE_WORLDS` worlds with
/// a `q1` goal every `spacing` positions and `q0` elsewhere (the shape of
/// the benchmark crate's `huge_reachability`).
fn spaced_goal_path(n: usize, spacing: usize) -> Kripke {
    KripkeBuilder::new(ModelVariant::MinusMinus, n)
        .relation(ModalIndex::Any, move || generators::path_edges(n))
        .degrees((0..n).map(|v| usize::from(v % spacing == 0)).collect())
        .build()
        .expect("path stream stays in range")
}

/// Counted diamonds at scale: reachability `µX. q1 ∨ ⟨*⟩X` and the
/// box-form safety `νX. ¬q1 ∧ [*]X` on spaced-goal paths, bit-identical
/// to the Kleene reference, with the frontier work bounded by a count.
/// Each body op that reads the accumulator moves one way, so it flips a
/// world at most once (a counted diamond's count crosses its grade at
/// most once), and the frontier passes re-check at most `n` worlds per
/// such op however the goals are spaced: three ops for reachability
/// (`X`, `⟨*⟩X`, the `∨`), five for safety (`X`, `¬X`, `⟨*⟩¬X`, its
/// negation, the `∧`).
#[test]
fn spaced_goal_fixpoints_match_kleene_with_bounded_frontiers() {
    let n = SMOKE_WORLDS;
    let x = Formula::var("X");
    let reach =
        Formula::mu("X", &Formula::prop(1).or(&Formula::diamond(ModalIndex::Any, &x))).unwrap();
    let safe =
        Formula::nu("X", &Formula::prop(1).not().and(&Formula::box_(ModalIndex::Any, &x))).unwrap();
    for spacing in SMOKE_SPACINGS {
        let k = spaced_goal_path(n, spacing);
        for (f, holds, moving_ops) in [(&reach, n, 3), (&safe, 0, 5)] {
            let plan = Plan::compile(&k, f).expect("fixpoint compiles");
            let (mut out, stats) = execute_pinned(&plan, &k, DiamondMode::Auto, Parallelism::Off);
            let got = out.pop().expect("one root");
            assert_eq!(got.count_ones(), holds, "{f} at spacing {spacing}");
            assert_eq!(got, evaluate_packed_recursive(&k, f).unwrap(), "{f} at spacing {spacing}");
            assert!(stats.fixpoint_iters >= spacing / 2, "{f}: goals {spacing} apart: {stats:?}");
            assert!(
                stats.fixpoint_frontier_worlds <= moving_ops * n,
                "{f} at spacing {spacing}: {} frontier worlds over {n} worlds",
                stats.fixpoint_frontier_worlds,
            );
        }
    }
}
