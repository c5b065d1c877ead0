//! Live updates under traffic: apply a batch of deltas to a running
//! model and re-answer a formula suite.
//!
//! Each iteration replays the full lifecycle — serve the suite on the
//! pristine model, take the delta batch, serve the suite again — so
//! the strategies stay comparable under the shim's plain `iter` timer
//! (both pay the identical warm-up prefix, and the second serve is
//! where they diverge):
//!
//! * **repair** — `Kripke::apply_delta` patches the CSR/CSC
//!   stores in place and `ModelChecker::detach`/`resume` repairs the
//!   cached truth vectors over the dirty frontier;
//! * **rebuild** — the post-delta model is reconstructed from its rows
//!   (`Kripke::from_parts`) and a fresh checker recomputes everything;
//! * **apply_only** — the model patch alone, isolating the storage
//!   layer's cost from the checker's.
//!
//! The `fixpoint_*` rows time the warm fixpoint repair in steady
//! state: a marked path (`workloads::huge_reachability`, a goal every
//! 32 worlds) and a 2¹⁴-world G(n, p) of average degree 4 valued by
//! degree (shaped like the served live workload's gnp, where every
//! world has several parents) each carry a cached reachability µ-formula across
//! a cycle of deltas, each restoring the previous delta's 10 removed
//! edges and removing 10 fresh ones — the served live workload's shape.
//! **fixpoint_repair** times `apply_delta` plus `resume` (which restarts
//! the fixpoint from the cone the delta invalidated);
//! **fixpoint_apply_only** the same deltas without a checker, so the
//! difference is the repair engine's own cost. Neither builds a CSC;
//! **fixpoint_apply_csc** applies the same cycle to a 2¹⁶-world marked
//! path whose CSC is built, the served live workload's connection-0
//! shape, where every delta patches the forward rows and the CSC.
//!
//! The isolated numbers (untimed setup, repair-vs-rebuild only) are
//! the `live_update_*` rows of `reproduce`'s `BENCH_eval.json`, which
//! pins repair ≥ 5× faster than rebuild on `path1024`. This bench
//! streams the flips as individual deltas; `reproduce` applies them as
//! one arrival batch (`workloads::edge_flip_batch`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use portnum_bench::workloads;
use portnum_graph::generators;
use portnum_logic::plan::ModelChecker;
use portnum_logic::{Formula, Kripke, KripkeBuilder, ModalIndex, ModelDelta, ModelVariant};
use std::collections::BTreeMap;
use std::time::Duration;

/// The post-delta model's rows, the rebuild leg's input.
fn rows_of(k: &Kripke) -> BTreeMap<ModalIndex, Vec<Vec<usize>>> {
    (0..k.relation_count())
        .map(|r| {
            let rows = (0..k.len())
                .map(|v| k.successors_dense(r, v).iter().map(|&w| w as usize).collect())
                .collect();
            (k.relation_index(r), rows)
        })
        .collect()
}

fn bench_live_update(c: &mut Criterion) {
    let suite: Vec<Formula> = (1..=4).map(workloads::nested_diamonds).collect();
    let shapes: Vec<(workloads::Workload, Vec<ModelDelta>)> = {
        let mut shapes = Vec::new();
        for w in workloads::path_sweep(&[1024, 4096]) {
            let base = Kripke::k_mm(&w.graph);
            let deltas = workloads::edge_flip_deltas(&base, 10, 77);
            shapes.push((w, deltas));
        }
        for w in workloads::gnp_sweep(&[512], 0.05, 5) {
            let base = Kripke::k_mm(&w.graph);
            let mut deltas = workloads::edge_flip_deltas(&base, 8, 77);
            deltas.extend(workloads::crash_deltas(&base, 2, 13));
            shapes.push((w, deltas));
        }
        shapes
    };

    let serve = |checker: &mut ModelChecker<'_>| -> usize {
        suite.iter().map(|f| checker.check(f).expect("suite case").count_ones()).sum()
    };

    let mut group = c.benchmark_group("live_update");
    for (w, deltas) in &shapes {
        let base = Kripke::k_mm(&w.graph);
        let mut final_model = base.clone();
        for d in deltas {
            final_model.apply_delta(d).expect("workload deltas apply");
        }
        let rows = rows_of(&final_model);
        let degrees = final_model.degrees().to_vec();

        group.bench_with_input(BenchmarkId::new("repair", &w.name), &base, |b, base| {
            b.iter(|| {
                let mut model = base.clone();
                let mut checker = ModelChecker::new(&model);
                let warm = serve(&mut checker);
                let cache = checker.detach();
                let mut touched: Vec<u32> = Vec::new();
                for d in deltas {
                    touched.extend(model.apply_delta(d).expect("workload deltas apply"));
                }
                let mut checker = ModelChecker::resume(&model, cache, &touched);
                warm + serve(&mut checker)
            })
        });
        group.bench_with_input(BenchmarkId::new("rebuild", &w.name), &base, |b, base| {
            b.iter(|| {
                let model = base.clone();
                let mut checker = ModelChecker::new(&model);
                let warm = serve(&mut checker);
                drop(checker);
                let rebuilt = Kripke::from_parts(base.variant(), degrees.clone(), rows.clone())
                    .expect("extracted rows rebuild");
                let mut checker = ModelChecker::new(&rebuilt);
                warm + serve(&mut checker)
            })
        });
        group.bench_with_input(BenchmarkId::new("apply_only", &w.name), &base, |b, base| {
            b.iter(|| {
                let mut model = base.clone();
                for d in deltas {
                    model.apply_delta(d).expect("workload deltas apply");
                }
                model.version()
            })
        });
    }
    group.finish();
}

/// Worlds of the `fixpoint_*` rows' marked path.
const FIXPOINT_PATH: usize = 1 << 14;
/// Worlds of the `fixpoint_*` rows' G(n, p), average degree 4.
const FIXPOINT_GNP: usize = 1 << 14;
/// Worlds of the `fixpoint_apply_csc` row's marked path.
const FIXPOINT_CSC_PATH: usize = 1 << 16;
/// Edge sets the `fixpoint_*` delta cycle rotates through.
const FIXPOINT_SETS: usize = 16;

/// The `fixpoint_*` rows' delta cycle on `model`: delta `i` restores
/// edge set `i - 1` (cyclically) and removes edge set `i`, each set 10
/// distinct undirected edges. The returned start model already misses
/// the last set, so the cycle returns the model to it after every
/// `FIXPOINT_SETS` deltas.
fn fixpoint_delta_cycle(model: &Kripke) -> (Kripke, Vec<ModelDelta>) {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..model.len() {
        for &w in model.successors_dense(0, v) {
            if (v as u32) < w {
                edges.push((v as u32, w));
            }
        }
    }
    let picks = generators::crash_schedule(edges.len(), 10 * FIXPOINT_SETS, 5);
    let sets: Vec<&[u32]> = picks.chunks(10).collect();
    let edit = |d: &mut ModelDelta, set: &[u32], add: bool| {
        for &e in set {
            let (v, w) = edges[e as usize];
            if add {
                d.add_edge(ModalIndex::Any, v, w).add_edge(ModalIndex::Any, w, v);
            } else {
                d.remove_edge(ModalIndex::Any, v, w).remove_edge(ModalIndex::Any, w, v);
            }
        }
    };
    let deltas = (0..FIXPOINT_SETS)
        .map(|i| {
            let mut d = ModelDelta::new();
            edit(&mut d, sets[(i + FIXPOINT_SETS - 1) % FIXPOINT_SETS], true);
            edit(&mut d, sets[i], false);
            d
        })
        .collect();
    let mut start = model.clone();
    let mut first = ModelDelta::new();
    edit(&mut first, sets[FIXPOINT_SETS - 1], false);
    start.apply_delta(&first).expect("sampled edges are stored");
    (start, deltas)
}

fn bench_fixpoint_repair(c: &mut Criterion) {
    let reach = workloads::reachability_formula();
    let gnp = KripkeBuilder::new(ModelVariant::MinusMinus, FIXPOINT_GNP)
        .relation(ModalIndex::Any, || {
            generators::gnp_edges(FIXPOINT_GNP, 4.0 / FIXPOINT_GNP as f64, 7)
        })
        .degrees_from_streams()
        .build()
        .expect("gnp stream stays in range");
    let models = [
        (format!("path{FIXPOINT_PATH}"), workloads::huge_reachability(FIXPOINT_PATH, 32)),
        (format!("gnp{FIXPOINT_GNP}"), gnp),
    ];
    let mut group = c.benchmark_group("live_update");
    for (name, model) in &models {
        let (start, deltas) = fixpoint_delta_cycle(model);
        group.bench_function(BenchmarkId::new("fixpoint_repair", name), |b| {
            let mut model = start.clone();
            let mut checker = ModelChecker::new(&model);
            checker.check(&reach).expect("reachability checks");
            let mut cache = Some(checker.detach());
            let mut next = 0;
            b.iter(|| {
                let touched = model.apply_delta(&deltas[next]).expect("cycle deltas apply");
                next = (next + 1) % deltas.len();
                let checker = ModelChecker::resume(&model, cache.take().expect("cache"), &touched);
                let warm = checker.last_repair().map_or(0, |r| r.warm_fixpoints);
                cache = Some(checker.detach());
                warm
            })
        });
        group.bench_function(BenchmarkId::new("fixpoint_apply_only", name), |b| {
            let mut model = start.clone();
            let mut next = 0;
            b.iter(|| {
                let touched = model.apply_delta(&deltas[next]).expect("cycle deltas apply");
                next = (next + 1) % deltas.len();
                touched.len()
            })
        });
    }
    // Connection 0 of the served live workload: the 2¹⁶-world marked
    // path with its CSC built, so every delta patches both stores.
    let path = workloads::huge_reachability(FIXPOINT_CSC_PATH, 32);
    let (start, deltas) = fixpoint_delta_cycle(&path);
    group.bench_function(
        BenchmarkId::new("fixpoint_apply_csc", format!("path{FIXPOINT_CSC_PATH}")),
        |b| {
            let mut model = start.clone();
            model.predecessors_csc(0);
            let mut next = 0;
            b.iter(|| {
                let touched = model.apply_delta(&deltas[next]).expect("cycle deltas apply");
                next = (next + 1) % deltas.len();
                touched.len()
            })
        },
    );
    group.finish();
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = bench_live_update, bench_fixpoint_repair
}
criterion_main!(benches);
