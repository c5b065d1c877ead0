//! Differential property tests for dynamic models: random delta
//! scripts against an independent mirror of the rows and degrees.
//!
//! Each case drives all **four** canonical variants through a random
//! script of edge adds, edge removals, valuation overrides, and crash
//! failures, maintaining a naive `Vec<Vec<u32>>` mirror of the rows
//! plus a degree vector alongside. After the script:
//!
//! * the patched [`Kripke`] must equal `Kripke::from_parts(mirror)` —
//!   the storage layer's CSR patching (and its repaired derived
//!   caches, which `Eq` ignores but the checker reads) agrees with a
//!   from-scratch build;
//! * a [`ModelChecker`] carried across the script via
//!   `detach`/`resume`, under a randomly drawn [`DiamondMode`], must
//!   answer bit-identically to a fresh evaluation of the rebuilt model
//!   — repair is indistinguishable from full recomputation whichever
//!   diamond implementation computed the vectors it patches;
//! * plan execution on the patched model must agree between the
//!   sequential and forced-parallel engines under the same mode
//!   (patched rows feed the chunked executor the same slices);
//! * the quotient path ([`ModelChecker::check_via_quotient`], repaired
//!   incrementally from the pre-delta partition) must stay exact for
//!   ungraded formulas.
//!
//! A second property carries cached µ/ν fixpoints — a random one plus
//! a reachability and a safety formula over every index of the variant,
//! with goals marked by valuation overrides — across delta scripts on
//! sparse models large enough against a body's read ball that repair
//! restarts them warm from their invalidated cone: after *every*
//! resume, the repaired answers must equal a fresh checker's and the
//! recursive reference's, bit for bit.
//!
//! A third property drives the storage layer's in-place splice kernel
//! alone through sequences of 60 deltas (growing, shrinking and
//! net-zero batches, edits on the first and last rows, duplicate
//! edges) and compares the forward store and every built CSC with
//! fresh builds after each one.

mod common;

use common::{
    all_variants, arb_formula_with as arb_formula, arb_graph, arb_mu_formula, execute_pinned,
    ungrade,
};
use portnum_graph::csc::CscAdjacency;
use portnum_graph::partition::Parallelism;
use portnum_graph::{generators, Graph};
use portnum_logic::plan::{DiamondMode, ModelChecker, Plan};
use portnum_logic::{
    evaluate_packed, evaluate_packed_recursive, Formula, Kripke, ModalIndex, ModelDelta,
    ModelVariant,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Independent replica of one model's mutable state: forward rows per
/// relation (multiplicities preserved, batch order within a row) and
/// the recorded degree valuation.
struct Mirror {
    rows: Vec<Vec<Vec<u32>>>,
    degree: Vec<usize>,
}

impl Mirror {
    fn of(model: &Kripke) -> Mirror {
        let rows = (0..model.relation_count())
            .map(|r| (0..model.len()).map(|v| model.successors_dense(r, v).to_vec()).collect())
            .collect();
        Mirror { rows, degree: model.degrees().to_vec() }
    }

    /// Rebuilds a fresh model from the mirrored state alone.
    fn build(&self, model: &Kripke) -> Kripke {
        let relations: BTreeMap<ModalIndex, Vec<Vec<usize>>> = self
            .rows
            .iter()
            .enumerate()
            .map(|(r, rows)| {
                let rows =
                    rows.iter().map(|row| row.iter().map(|&w| w as usize).collect()).collect();
                (model.relation_index(r), rows)
            })
            .collect();
        Kripke::from_parts(model.variant(), self.degree.clone(), relations)
            .expect("mirrored rows rebuild")
    }
}

/// One random, always-valid step: mutates `mirror` to match and
/// returns the equivalent delta (removals are drawn from the stored
/// rows, so multiplicity validation cannot fire).
fn random_step(rng: &mut StdRng, model: &Kripke, mirror: &mut Mirror) -> ModelDelta {
    let n = model.len() as u32;
    let rels = model.relation_count();
    let mut delta = ModelDelta::new();
    // Degree adjustments mirror `apply_delta`: net out-degree change,
    // saturating at zero, then explicit valuation overrides.
    // Edgeless graphs store no relations, leaving only valuation and
    // crash edits.
    let op = if rels == 0 { rng.random_range(2..4u8) } else { rng.random_range(0..4u8) };
    match op {
        0 => {
            let (r, v, w) = (rng.random_range(0..rels), rng.random_range(0..n), rng.random_range(0..n));
            delta.add_edge(model.relation_index(r), v, w);
            mirror.rows[r][v as usize].push(w);
            mirror.degree[v as usize] += 1;
        }
        1 => {
            // Remove a uniformly random stored edge, if any exist.
            let total: usize = mirror.rows.iter().flatten().map(Vec::len).sum();
            if total == 0 {
                return random_step(rng, model, mirror);
            }
            let mut pick = rng.random_range(0..total);
            'outer: for (r, rows) in mirror.rows.iter_mut().enumerate() {
                for (v, row) in rows.iter_mut().enumerate() {
                    if pick < row.len() {
                        let w = row.remove(pick);
                        delta.remove_edge(model.relation_index(r), v as u32, w);
                        mirror.degree[v] = mirror.degree[v].saturating_sub(1);
                        break 'outer;
                    }
                    pick -= row.len();
                }
            }
        }
        2 => {
            let (v, d) = (rng.random_range(0..n), rng.random_range(0..5usize));
            delta.set_valuation(v, d);
            mirror.degree[v as usize] = d;
        }
        _ => {
            let c = rng.random_range(0..n);
            delta.crash_world(c);
            for rows in &mut mirror.rows {
                let lost = rows[c as usize].len();
                mirror.degree[c as usize] = mirror.degree[c as usize].saturating_sub(lost);
                rows[c as usize].clear();
                for (v, row) in rows.iter_mut().enumerate() {
                    if v == c as usize {
                        continue;
                    }
                    let before = row.len();
                    row.retain(|&w| w != c);
                    mirror.degree[v] = mirror.degree[v].saturating_sub(before - row.len());
                }
            }
        }
    }
    delta
}

/// Sparse graphs on 48–96 nodes — a path, a cycle, or `G(n, 2.5/n)`:
/// large against a fixpoint body's read ball, so the cone a one-edit
/// delta invalidates usually stays under the dense-fallback threshold
/// and repair takes the warm path.
fn arb_sparse_graph() -> impl Strategy<Value = Graph> {
    (48usize..=96, 0u8..3, any::<u64>()).prop_map(|(n, shape, seed)| match shape {
        0 => generators::path(n),
        1 => generators::cycle(n),
        _ => generators::gnp(n, 2.5 / n as f64, &mut StdRng::seed_from_u64(seed)),
    })
}

/// Marks about one world in eight with the valuation 3: goals that,
/// unlike degree-valued `q1` ends, an edge cut neither creates nor
/// moves, so a cut can strand a whole region from its goal.
fn mark_goals(rng: &mut StdRng, model: &mut Kripke) {
    let mut marks = ModelDelta::new();
    for v in 0..model.len() as u32 {
        if rng.random_range(0..8u32) == 0 {
            marks.set_valuation(v, 3);
        }
    }
    model.apply_delta(&marks).unwrap();
}

/// `f` plus reachability of a `q3` goal and safety from `q3` goals
/// (`µX. q3 ∨ ⋁⟨α⟩X`, `νX. ¬q3 ∧ ⋀[α]X`) over every index of `model`:
/// the shapes whose derivations run far along the model, so a delta
/// invalidates worlds well outside its own neighbourhood.
fn fixpoint_suite(model: &Kripke, f: &Formula) -> Vec<Formula> {
    let x = Formula::var("X");
    let goal = Formula::prop(3);
    let step = Formula::any_of(model.indices().map(|i| Formula::diamond(i, &x)));
    let reach = Formula::mu("X", &goal.or(&step)).expect("X occurs only positively");
    let stay = Formula::all_of(model.indices().map(|i| Formula::box_(i, &x)));
    let safe = Formula::nu("X", &goal.not().and(&stay)).expect("X occurs only positively");
    vec![f.clone(), reach, safe]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fixpoint_repair_matches_fresh_after_every_delta(
        g in arb_sparse_graph(),
        seed in any::<u64>(),
        steps in 3usize..12,
        mode in prop_oneof![
            Just(DiamondMode::Auto),
            Just(DiamondMode::Forward),
            Just(DiamondMode::Csc),
        ],
        f_pp in arb_mu_formula(ModalIndex::InOut),
        f_mp in arb_mu_formula(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_mu_formula(|i, _j| ModalIndex::In(i)),
        f_mm in arb_mu_formula(|_i, _j| ModalIndex::Any),
    ) {
        let formulas = [&f_pp, &f_mp, &f_pm, &f_mm];
        for (model, f) in all_variants(&g, seed).into_iter().zip(formulas) {
            let suite = fixpoint_suite(&model, f);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51_7cc1_b727_220a);
            let mut mirror = Mirror::of(&model);
            let mut patched = model.clone();
            mark_goals(&mut rng, &mut patched);
            let mut checker = ModelChecker::with_mode(&patched, mode);
            checker.check_suite(&suite).unwrap();
            let mut cache = checker.detach();
            for step in 0..steps {
                let delta = random_step(&mut rng, &model, &mut mirror);
                let touched = patched.apply_delta(&delta).unwrap();
                let mut resumed = ModelChecker::resume(&patched, cache, &touched);
                let got = resumed.check_suite(&suite).unwrap();
                let fresh = ModelChecker::with_mode(&patched, mode).check_suite(&suite).unwrap();
                for ((f, got), fresh) in suite.iter().zip(&got).zip(&fresh) {
                    prop_assert_eq!(
                        &**got, &**fresh,
                        "step {}: repaired fixpoint diverged from a fresh checker on {:?} under {:?} with {} (graph {})",
                        step, patched.variant(), mode, f, g
                    );
                    prop_assert_eq!(
                        &**got, &evaluate_packed_recursive(&patched, f).unwrap(),
                        "step {}: repaired fixpoint diverged from the reference on {:?} with {}",
                        step, patched.variant(), f
                    );
                }
                cache = resumed.detach();
            }
        }
    }

    #[test]
    fn delta_scripts_match_mirror_and_repair_matches_fresh(
        g in arb_graph(),
        seed in any::<u64>(),
        steps in 1usize..10,
        mode in prop_oneof![
            Just(DiamondMode::Auto),
            Just(DiamondMode::Forward),
            Just(DiamondMode::Csc),
        ],
        f_pp in arb_formula(ModalIndex::InOut),
        f_mp in arb_formula(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_formula(|i, _j| ModalIndex::In(i)),
        f_mm in arb_formula(|_i, _j| ModalIndex::Any),
    ) {
        let models = all_variants(&g, seed);
        let formulas = [&f_pp, &f_mp, &f_pm, &f_mm];
        for (model, f) in models.into_iter().zip(formulas) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
            let mut mirror = Mirror::of(&model);

            // Warm a checker on the pristine model, then carry its
            // cache across every step of the script.
            let mut patched = model.clone();
            let mut checker = ModelChecker::with_mode(&patched, mode);
            checker.check(f).unwrap();
            let mut cache = checker.detach();
            for _ in 0..steps {
                let delta = random_step(&mut rng, &model, &mut mirror);
                let touched = patched.apply_delta(&delta).unwrap();
                let checker = ModelChecker::resume(&patched, cache, &touched);
                cache = checker.detach();
            }
            prop_assert_eq!(patched.version(), steps as u64);

            // Storage layer: patched model == from-scratch build of
            // the mirrored rows and degrees.
            let rebuilt = mirror.build(&model);
            prop_assert_eq!(
                &patched, &rebuilt,
                "patched model diverged from mirror on {:?} after {} steps (graph {})",
                patched.variant(), steps, g
            );

            // Checker repair: the carried cache answers bit-identically
            // to full recomputation on the rebuilt model.
            let expected = evaluate_packed(&rebuilt, f).unwrap();
            let mut resumed = ModelChecker::resume(&patched, cache, &[]);
            prop_assert_eq!(
                &*resumed.check(f).unwrap(), &expected,
                "repaired cache diverged on {:?} under {:?} with {} (graph {})",
                patched.variant(), mode, f, g
            );

            // Engine parity on patched storage: sequential vs forced
            // parallel over the post-delta rows.
            let plan = Plan::compile(&patched, f).unwrap();
            let (seq, _) = plan.execute_with(&patched, mode);
            let (par, _) = execute_pinned(&plan, &patched, mode, Parallelism::Force);
            prop_assert_eq!(&seq, &par);

            // Quotient path: exact for ungraded formulas on the
            // patched model (quotient repaired across the script).
            let uf = ungrade(f);
            let via_quotient = resumed.check_via_quotient(&uf).unwrap();
            prop_assert_eq!(
                via_quotient, evaluate_packed(&rebuilt, &uf).unwrap(),
                "quotient answer diverged on {:?} with {} (graph {})",
                patched.variant(), uf, g
            );
        }
    }

    #[test]
    fn batched_script_equals_sequential_application(
        g in arb_graph(),
        seed in any::<u64>(),
        steps in 1usize..8,
    ) {
        // Pushing the edits of additive steps into one batch must
        // agree with applying the steps one at a time. The script stays
        // inside the fragment where the two mean the same: removals and
        // crashes are validated against pre-batch rows (so none are
        // generated), and valuation overrides never precede edge edits
        // on the same source (adds first, overrides after).
        for model in all_variants(&g, seed) {
            let n = model.len() as u32;
            let rels = model.relation_count();
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(steps as u64));
            let mut adds = Vec::new();
            let mut overrides = Vec::new();
            let mut endpoints: Vec<u32> = Vec::new();
            for _ in 0..steps {
                if rels > 0 && rng.random_bool(0.7) {
                    let (v, w) = (rng.random_range(0..n), rng.random_range(0..n));
                    adds.push((model.relation_index(rng.random_range(0..rels)), v, w));
                    endpoints.push(v);
                    endpoints.push(w);
                } else {
                    let v = rng.random_range(0..n);
                    overrides.push((v, rng.random_range(0..5usize)));
                    endpoints.push(v);
                }
            }
            let mut batch = ModelDelta::new();
            let mut deltas: Vec<ModelDelta> = Vec::new();
            for &(index, v, w) in &adds {
                batch.add_edge(index, v, w);
                let mut d = ModelDelta::new();
                d.add_edge(index, v, w);
                deltas.push(d);
            }
            for &(v, d) in &overrides {
                batch.set_valuation(v, d);
                let mut step = ModelDelta::new();
                step.set_valuation(v, d);
                deltas.push(step);
            }
            let mut sequential = model.clone();
            for d in &deltas {
                sequential.apply_delta(d).unwrap();
            }
            let mut batched = model.clone();
            let touched = batched.apply_delta(&batch).unwrap();
            prop_assert_eq!(&batched, &sequential);
            prop_assert_eq!(batched.version(), 1);
            // The batch's touched set covers every edited endpoint.
            for &v in &endpoints {
                prop_assert!(touched.binary_search(&v).is_ok());
            }
        }
    }
}

/// A world for a splice edit, biased to the first and last rows (the
/// kernel's span arithmetic has its edge cases there).
fn edge_world(rng: &mut StdRng, n: usize) -> usize {
    match rng.random_range(0..4u8) {
        0 => 0,
        1 => n - 1,
        _ => rng.random_range(0..n),
    }
}

/// One random batch for the splice property, applied to `rows` and
/// `degree` by the canonical row rule (first-occurrence removal, adds
/// appended in batch order, net out-degree adjustment saturating at
/// zero). `shape` 0 grows the store, 1 shrinks it, 2 keeps every
/// relation's entry count.
fn splice_batch(
    rng: &mut StdRng,
    indices: &[ModalIndex],
    rows: &mut [Vec<Vec<u32>>],
    degree: &mut [usize],
    shape: u8,
) -> ModelDelta {
    let n = degree.len();
    let k = rng.random_range(1..5usize);
    let (adds, rms) = match shape {
        0 => (k, rng.random_range(0..k)),
        1 => (rng.random_range(0..k), k),
        _ => (0, k),
    };
    let mut delta = ModelDelta::new();
    let mut net = vec![0isize; n];
    // Removals are drawn from a pending copy of the rows, so a batch
    // never removes more copies of an edge than are stored.
    let mut pending = rows.to_vec();
    let mut removed: Vec<(usize, usize, u32)> = Vec::new();
    for _ in 0..rms {
        let (r, v) = (rng.random_range(0..indices.len()), edge_world(rng, n));
        let (r, v) = if pending[r][v].is_empty() {
            let stored: Vec<(usize, usize)> = (0..indices.len())
                .flat_map(|r| (0..n).map(move |v| (r, v)))
                .filter(|&(r, v)| !pending[r][v].is_empty())
                .collect();
            match stored.get(rng.random_range(0..stored.len().max(1))) {
                Some(&rv) => rv,
                None => break,
            }
        } else {
            (r, v)
        };
        let at = rng.random_range(0..pending[r][v].len());
        let w = pending[r][v].remove(at);
        delta.remove_edge(indices[r], v as u32, w);
        removed.push((r, v, w));
        net[v] -= 1;
    }
    // A net-zero batch adds one edge per removal in the same relation.
    let add_rels: Vec<usize> = if shape == 2 {
        removed.iter().map(|&(r, _, _)| r).collect()
    } else {
        (0..adds).map(|_| rng.random_range(0..indices.len())).collect()
    };
    let mut added: Vec<(usize, usize, u32)> = Vec::new();
    for r in add_rels {
        let v = edge_world(rng, n);
        // Duplicates: a target the row already stores, or the same add
        // twice in one batch (net-zero batches keep one add per removal).
        let w = match rows[r][v].first() {
            Some(&w) if rng.random_bool(0.3) => w,
            _ => edge_world(rng, n) as u32,
        };
        let copies = if shape != 2 && rng.random_bool(0.2) { 2 } else { 1 };
        for _ in 0..copies {
            delta.add_edge(indices[r], v as u32, w);
            added.push((r, v, w));
            net[v] += 1;
        }
    }
    for (r, v, w) in removed {
        let at = rows[r][v].iter().position(|&t| t == w).expect("drawn from the stored row");
        rows[r][v].remove(at);
    }
    for (r, v, w) in added {
        rows[r][v].push(w);
    }
    for (d, change) in degree.iter_mut().zip(net) {
        *d = (*d as isize + change).max(0) as usize;
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn splice_sequences_keep_stores_equal_to_fresh_builds(seed in any::<u64>()) {
        // Long delta sequences through the in-place splice kernel, on
        // random multi-relation models with empty rows and duplicate
        // edges: after every delta the forward store equals a fresh
        // build of the mirrored rows, and every built CSC (per
        // relation and, once rebuilt, the combined one) equals a fresh
        // inversion of the patched forward rows.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..24usize);
        let indices: Vec<ModalIndex> =
            (0..rng.random_range(1..4usize)).map(ModalIndex::Out).collect();
        let mut rows: Vec<Vec<Vec<u32>>> = indices
            .iter()
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let len = if rng.random_bool(0.3) { 0 } else { rng.random_range(1..5) };
                        (0..len).map(|_| rng.random_range(0..n as u32)).collect()
                    })
                    .collect()
            })
            .collect();
        let mut degree: Vec<usize> = (0..n).map(|_| rng.random_range(0..5)).collect();
        let build = |rows: &[Vec<Vec<u32>>], degree: &[usize]| {
            let relations: BTreeMap<ModalIndex, Vec<Vec<usize>>> = indices
                .iter()
                .zip(rows)
                .map(|(&i, rows)| {
                    (i, rows.iter().map(|row| row.iter().map(|&w| w as usize).collect()).collect())
                })
                .collect();
            Kripke::from_parts(ModelVariant::MinusPlus, degree.to_vec(), relations)
                .expect("mirrored rows build")
        };
        let mut model = build(&rows, &degree);
        let with_csc = rng.random_bool(0.5);
        if with_csc {
            for r in 0..indices.len() {
                model.predecessors_csc(r);
            }
            model.combined_predecessors_csc();
        }
        for step in 0..60 {
            let shape = rng.random_range(0..3u8);
            let delta = splice_batch(&mut rng, &indices, &mut rows, &mut degree, shape);
            model.apply_delta(&delta).unwrap();
            prop_assert_eq!(&model, &build(&rows, &degree), "step {} (shape {})", step, shape);
            if with_csc {
                for r in 0..indices.len() {
                    let (offsets, targets) = model.relation_rows(r);
                    let fresh = CscAdjacency::from_csr(n, offsets, targets);
                    prop_assert_eq!(model.predecessors_csc(r), &fresh, "step {} rel {}", step, r);
                }
                let fresh = CscAdjacency::from_relations(n, &model.relations_csr());
                prop_assert_eq!(model.combined_predecessors_csc(), &fresh, "step {}", step);
            }
        }
    }
}
