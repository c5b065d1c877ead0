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

mod common;

use common::{all_variants, arb_formula_with as arb_formula, arb_graph, execute_pinned, ungrade};
use portnum_graph::partition::Parallelism;
use portnum_logic::plan::{DiamondMode, ModelChecker, Plan};
use portnum_logic::{evaluate_packed, Kripke, ModalIndex, ModelDelta};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn delta_scripts_match_mirror_and_repair_matches_fresh(
        g in arb_graph(),
        seed in any::<u64>(),
        steps in 1usize..10,
        mode in prop_oneof![
            Just(DiamondMode::Auto),
            Just(DiamondMode::Forward),
            Just(DiamondMode::Reverse),
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
        // Merging additive steps into one batch (`ModelDelta::merge`)
        // must agree with applying them one at a time. The script stays
        // inside the equivalence fragment `merge` documents: removals
        // and crashes are validated against pre-batch rows (so none are
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
                let mut d = ModelDelta::new();
                if rels > 0 && rng.random_bool(0.7) {
                    let (v, w) = (rng.random_range(0..n), rng.random_range(0..n));
                    d.add_edge(model.relation_index(rng.random_range(0..rels)), v, w);
                    endpoints.push(v);
                    endpoints.push(w);
                    adds.push(d);
                } else {
                    let v = rng.random_range(0..n);
                    d.set_valuation(v, rng.random_range(0..5usize));
                    endpoints.push(v);
                    overrides.push(d);
                }
            }
            let deltas: Vec<ModelDelta> = adds.into_iter().chain(overrides).collect();
            let mut batch = ModelDelta::new();
            for d in &deltas {
                batch.merge(d);
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
