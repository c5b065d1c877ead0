//! Shared proptest strategies and helpers for the logic-crate
//! integration suites (`proptest_eval`, `proptest_logic`,
//! `proptest_csc`, `proptest_refinement`): one definition of the
//! random-model / random-formula input distribution, so the binaries
//! cannot silently drift onto different test spaces, and the naive
//! refinement reference ([`reference_refine`]) the worklist engine is
//! pinned to.
//!
//! Each test binary compiles its own copy of this module and uses a
//! subset of it, hence the file-level `dead_code` allowance.
#![allow(dead_code)]

use portnum_graph::bitset::Bitset;
use portnum_graph::partition::Parallelism;
use portnum_graph::resilience::ExecControl;
use portnum_graph::{Graph, PortNumbering};
use portnum_logic::bisim::BisimStyle;
use portnum_logic::plan::{DiamondMode, ExecStats, Plan};
use portnum_logic::{Formula, FormulaKind, Kripke, ModalIndex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Random simple graphs on 2–9 nodes with an arbitrary edge mask.
pub fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=9).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), max_edges).prop_map(move |mask| {
            let mut b = Graph::builder(n);
            let mut idx = 0;
            for u in 0..n {
                for v in (u + 1)..n {
                    if mask[idx] {
                        b.edge(u, v).expect("pairs distinct");
                    }
                    idx += 1;
                }
            }
            b.build()
        })
    })
}

/// Random formulas whose modal indices come from `mk(in_port, out_port)`
/// (so each canonical variant gets formulas of its own index family)
/// with diamond grades drawn from {0, 1, 2, 3}.
pub fn arb_formula_with(mk: fn(usize, usize) -> ModalIndex) -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::top()),
        Just(Formula::bottom()),
        (0usize..=4).prop_map(Formula::prop),
    ];
    leaf.prop_recursive(4, 20, 3, move |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(&b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(&b)),
            (0usize..=3, 0usize..=2, 0usize..=2, inner)
                .prop_map(move |(k, i, j, f)| Formula::diamond_geq(mk(i, j), k, &f)),
        ]
    })
}

/// Closed µ-calculus fixpoint formulas over the index family drawn by
/// `mk(in_port, out_port)`.
///
/// `open(lo, next, depth)` generates formulas whose variable leaves are
/// drawn from `{X{lo}, …, X{next-1}}` — the binders in scope whose
/// occurrence here would be positive. A lone negation recurses with `lo =
/// next` (no outer variable may appear under it, keeping positivity),
/// a binder introduces the globally fresh name `X{next}` (so shadowing
/// never arises), and every other connective passes the window
/// through — the graded box `¬⟨α⟩≥k ¬φ` ([`Formula::box_`] at `k = 1`)
/// included, whose two negations leave an open `φ` positive. Under a box
/// a growing accumulator makes the inner diamond's operand *lose*
/// worlds, so µ bodies exercise the down-counting of a counted diamond,
/// not only ν bodies. The root is always a binder, so every draw is a
/// closed formula containing at least one fixpoint.
pub fn arb_mu_formula(mk: fn(usize, usize) -> ModalIndex) -> impl Strategy<Value = Formula> {
    fn open(
        mk: fn(usize, usize) -> ModalIndex,
        lo: usize,
        next: usize,
        depth: u32,
    ) -> BoxedStrategy<Formula> {
        let mut leaves = vec![
            Just(Formula::top()).boxed(),
            Just(Formula::bottom()).boxed(),
            (0usize..=4).prop_map(Formula::prop).boxed(),
        ];
        if lo < next {
            leaves.push((lo..next).prop_map(|i| Formula::var(&format!("X{i}"))).boxed());
        }
        let leaf = proptest::Union::new(leaves);
        if depth == 0 {
            return leaf.boxed();
        }
        prop_oneof![
            leaf,
            open(mk, next, next, depth - 1).prop_map(|f| f.not()),
            (open(mk, lo, next, depth - 1), open(mk, lo, next, depth - 1))
                .prop_map(|(a, b)| a.and(&b)),
            (open(mk, lo, next, depth - 1), open(mk, lo, next, depth - 1))
                .prop_map(|(a, b)| a.or(&b)),
            (0usize..=3, 0usize..=2, 0usize..=2, open(mk, lo, next, depth - 1))
                .prop_map(move |(k, i, j, f)| Formula::diamond_geq(mk(i, j), k, &f)),
            (1usize..=3, 0usize..=2, 0usize..=2, open(mk, lo, next, depth - 1))
                .prop_map(move |(k, i, j, f)| Formula::diamond_geq(mk(i, j), k, &f.not()).not()),
            (any::<bool>(), open(mk, lo, next + 1, depth - 1)).prop_map(move |(greatest, body)| {
                let name = format!("X{next}");
                if greatest {
                    Formula::nu(&name, &body).expect("positive by construction")
                } else {
                    Formula::mu(&name, &body).expect("positive by construction")
                }
            }),
        ]
        .boxed()
    }
    (any::<bool>(), open(mk, 0, 1, 3)).prop_map(|(greatest, body)| {
        let f = if greatest {
            Formula::nu("X0", &body).expect("positive by construction")
        } else {
            Formula::mu("X0", &body).expect("positive by construction")
        };
        assert!(f.is_closed(), "strategy generated an open formula: {f}");
        f
    })
}

/// All four canonical models of `g` under a seeded random numbering.
pub fn all_variants(g: &Graph, seed: u64) -> [Kripke; 4] {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = PortNumbering::random(g, &mut rng);
    [Kripke::k_pp(g, &p), Kripke::k_mp(g, &p), Kripke::k_pm(g, &p), Kripke::k_mm(g)]
}

/// Strips grades so a random formula lands in ML/MML (set-based
/// quotients and plain bisimulation preserve only ungraded truth).
pub fn ungrade(f: &Formula) -> Formula {
    match f.kind() {
        FormulaKind::Top => Formula::top(),
        FormulaKind::Bottom => Formula::bottom(),
        FormulaKind::Prop(d) => Formula::prop(*d),
        FormulaKind::Not(a) => ungrade(a).not(),
        FormulaKind::And(a, b) => ungrade(a).and(&ungrade(b)),
        FormulaKind::Or(a, b) => ungrade(a).or(&ungrade(b)),
        FormulaKind::Diamond { index, inner, .. } => Formula::diamond(*index, &ungrade(inner)),
        FormulaKind::Var(name) => Formula::var(name),
        // Ungrading preserves negation structure, so bodies stay positive
        // and scoped — the checked constructors cannot fail.
        FormulaKind::Mu { var, body } => {
            Formula::mu(var, &ungrade(body)).expect("ungrading preserves binder validity")
        }
        FormulaKind::Nu { var, body } => {
            Formula::nu(var, &ungrade(body)).expect("ungrading preserves binder validity")
        }
    }
}

/// Rebuilds `f` node by node so the copy is structurally equal to the
/// original but shares none of its `Arc`s — the dedup case pointer
/// memoisation cannot see.
pub fn deep_clone(f: &Formula) -> Formula {
    match f.kind() {
        FormulaKind::Top => Formula::top(),
        FormulaKind::Bottom => Formula::bottom(),
        FormulaKind::Prop(d) => Formula::prop(*d),
        FormulaKind::Not(a) => deep_clone(a).not(),
        FormulaKind::And(a, b) => deep_clone(a).and(&deep_clone(b)),
        FormulaKind::Or(a, b) => deep_clone(a).or(&deep_clone(b)),
        FormulaKind::Diamond { index, grade, inner } => {
            Formula::diamond_geq(*index, *grade, &deep_clone(inner))
        }
        FormulaKind::Var(name) => Formula::var(name),
        // A structural rebuild cannot invalidate scoping or positivity.
        FormulaKind::Mu { var, body } => {
            Formula::mu(var, &deep_clone(body)).expect("rebuild preserves binder validity")
        }
        FormulaKind::Nu { var, body } => {
            Formula::nu(var, &deep_clone(body)).expect("rebuild preserves binder validity")
        }
    }
}

/// Runs `plan` with thread counts pinned by `par` (`Force` drives every
/// pool path below the work gate, `Off` the sequential reference above
/// it) and no execution control.
pub fn execute_pinned(
    plan: &Plan,
    model: &Kripke,
    mode: DiamondMode,
    par: Parallelism,
) -> (Vec<Bitset>, ExecStats) {
    plan.execute_controlled(model, mode, par, &ExecControl::unrestricted())
        .expect("unrestricted execution cannot be interrupted")
}

/// Naive reference refinement: levels `0..=rounds`, each world's next
/// block the first-seen id (in world order) of its explicit nested
/// signature `(prev block, per modal index the sorted successor blocks
/// with counts — every count 1 when plain)` in a std `HashMap`. It
/// shares no encoding, intern table or reverse adjacency with the
/// engine, and its ids are the dense first-seen ids the engine's levels
/// use, so the two compare with exact `==`.
pub fn reference_refine(model: &Kripke, style: BisimStyle, rounds: usize) -> Vec<Vec<usize>> {
    let n = model.len();
    let indices: Vec<ModalIndex> = model.indices().collect();

    let mut ids: HashMap<usize, usize> = HashMap::new();
    let level0: Vec<usize> = (0..n)
        .map(|v| {
            let fresh = ids.len();
            *ids.entry(model.degree(v)).or_insert(fresh)
        })
        .collect();
    let mut levels = vec![level0];

    for _ in 0..rounds {
        let prev = levels.last().expect("depth 0");
        type Sig = (usize, Vec<Vec<(usize, usize)>>);
        let mut sigs: HashMap<Sig, usize> = HashMap::new();
        let mut next = vec![0usize; n];
        for v in 0..n {
            let mut per_index = Vec::with_capacity(indices.len());
            for &index in &indices {
                let mut blocks: Vec<usize> = model
                    .successors(v, index)
                    .iter()
                    .map(|&w| prev[w as usize])
                    .collect();
                blocks.sort_unstable();
                let mut counted: Vec<(usize, usize)> = Vec::new();
                for b in blocks {
                    match counted.last_mut() {
                        Some((last, c)) if *last == b => *c += 1,
                        _ => counted.push((b, 1)),
                    }
                }
                if style == BisimStyle::Plain {
                    for entry in &mut counted {
                        entry.1 = 1;
                    }
                }
                per_index.push(counted);
            }
            let fresh = sigs.len();
            next[v] = *sigs.entry((prev[v], per_index)).or_insert(fresh);
        }
        levels.push(next);
    }
    levels
}
