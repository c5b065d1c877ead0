//! Partition-refinement bisimulation scaling (Section 4.2): plain vs
//! graded, across model variants and graph sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use portnum_bench::workloads;
use portnum_logic::bisim::{refine, refine_fixpoint, BisimStyle};
use portnum_logic::{minimum_base, Kripke, KripkeBuilder, ModalIndex, ModelVariant};
use std::time::Duration;

fn bench_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("bisimulation/refine");
    let mut sweep = workloads::gnp_sweep(&[32, 128, 512], 0.08, 23);
    sweep.extend(workloads::regular_sweep(3, &[128, 512], 41));
    for w in sweep {
        let k_mm = Kripke::k_mm(&w.graph);
        let k_pp = Kripke::k_pp(&w.graph, &w.ports);
        group.bench_with_input(BenchmarkId::new("plain_kmm", &w.name), &k_mm, |b, k| {
            b.iter(|| refine(k, BisimStyle::Plain))
        });
        group.bench_with_input(BenchmarkId::new("graded_kmm", &w.name), &k_mm, |b, k| {
            b.iter(|| refine(k, BisimStyle::Graded))
        });
        group.bench_with_input(BenchmarkId::new("plain_kpp", &w.name), &k_pp, |b, k| {
            b.iter(|| refine(k, BisimStyle::Plain))
        });
    }
    group.finish();
}

fn bench_long_diameter(c: &mut Criterion) {
    // The worklist engine on the shapes it was built for: Θ(n) rounds
    // with an O(1)-block frontier per round, where re-signing every
    // world every round would cost Θ(n · rounds).
    let mut group = c.benchmark_group("bisimulation/engines");
    let mut sweep = workloads::path_sweep(&[256, 1024]);
    sweep.push(workloads::deep_tree(1024));
    for w in sweep {
        let k_mm = Kripke::k_mm(&w.graph);
        let k_pp = Kripke::k_pp(&w.graph, &w.ports);
        group.bench_with_input(
            BenchmarkId::new("plain_kmm_worklist", &w.name),
            &k_mm,
            |b, k| b.iter(|| refine(k, BisimStyle::Plain)),
        );
        group.bench_with_input(
            BenchmarkId::new("plain_kpp_worklist", &w.name),
            &k_pp,
            |b, k| b.iter(|| refine(k, BisimStyle::Plain)),
        );
    }
    group.finish();
}

fn bench_symmetric_certificates(c: &mut Criterion) {
    // The Lemma 15 certificate: all-nodes-bisimilar on regular graphs.
    let mut group = c.benchmark_group("bisimulation/lemma15_certificate");
    for k in [3usize, 5] {
        let g = portnum_graph::generators::no_one_factor(k);
        let p = portnum_graph::PortNumbering::symmetric_regular(&g).unwrap();
        let model = Kripke::k_pp(&g, &p);
        group.bench_with_input(BenchmarkId::from_parameter(k), &model, |b, m| {
            b.iter(|| {
                let classes = refine(m, BisimStyle::Plain);
                assert_eq!(classes.class_count(classes.depth()), 1);
            })
        });
    }
    group.finish();
}

fn bench_offline_shape(c: &mut Criterion) {
    // The refinement half of perfbench's `offline` pass, on a model of
    // its shape: a stream-built 2^14-world average-degree-3 G(n, p)
    // K-,-, whose fixpoints are ~93% singleton blocks, so nearly every
    // signature a round encodes is new to the intern table.
    let mut group = c.benchmark_group("bisimulation/offline");
    let n = 1usize << 14;
    let p = 3.0 / n as f64;
    let model = KripkeBuilder::new(ModelVariant::MinusMinus, n)
        .relation(ModalIndex::Any, move || portnum_graph::generators::gnp_edges(n, p, 7))
        .degrees_from_streams()
        .build()
        .expect("gnp stream stays in range");
    let name = "gnp16384_d3";
    group.bench_with_input(BenchmarkId::new("graded_fixpoint", name), &model, |b, k| {
        b.iter(|| refine_fixpoint(k, BisimStyle::Graded))
    });
    group.bench_with_input(BenchmarkId::new("plain_fixpoint", name), &model, |b, k| {
        b.iter(|| refine_fixpoint(k, BisimStyle::Plain))
    });
    group.bench_with_input(BenchmarkId::new("minimum_base", name), &model, |b, k| {
        b.iter(|| minimum_base(k))
    });
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
    targets = bench_refine, bench_long_diameter, bench_symmetric_certificates,
        bench_offline_shape
}
criterion_main!(benches);
