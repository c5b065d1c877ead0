//! Smoke test: every workload in `BENCHMARK.json` runs at tiny sizes in
//! seconds against an in-process server, reports every metric the file
//! names with its unit, and fails on a wrong answer.

use perfbench::gen::{Scale, Workload};
use perfbench::runner::{run, Args, Outcome, ServerChoice};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of each entry of one list in `BENCHMARK.json`, which
/// keeps one entry per line.
fn entries(list: &str) -> Vec<(String, Option<String>)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{list}\": ["))
        .expect("list present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit"))))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
        server: ServerChoice::InProcess,
        out_dir: None,
        source_id: "smoke".to_string(),
        corrupt_oracle: false,
    }
}

fn workloads() -> Vec<Workload> {
    entries("workloads")
        .into_iter()
        .map(|(name, _)| {
            Workload::parse(&name).unwrap_or_else(|| panic!("unknown workload {name}"))
        })
        .collect()
}

fn assert_metrics(outcome: &Outcome, list: &str) {
    let got: Vec<(String, Option<String>)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), Some(m.unit.to_string())))
        .collect();
    assert_eq!(
        got,
        entries(list),
        "{list} metrics differ from BENCHMARK.json"
    );
    assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn every_workload_reports_every_metric_and_verifies_its_answers() {
    assert_eq!(workloads().len(), 4);
    for workload in workloads() {
        for trace in [false, true] {
            let outcome = run(&tiny(workload, trace)).expect("tiny run sets up");
            assert!(
                outcome.correct,
                "{} (trace {trace}): {}",
                workload.name(),
                outcome.record
            );
            assert!(outcome.attempted >= 1);
            assert_eq!(outcome.failed, 0);
            assert_metrics(&outcome, if trace { "per_layer" } else { "end_to_end" });
            let line = outcome.result_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in workloads() {
        let outcome = run(&tiny(workload, false)).expect("tiny run sets up");
        for m in &outcome.metrics {
            assert!(
                m.value > 0.0,
                "{} reads {} on {}",
                m.name,
                m.value,
                workload.name()
            );
        }
    }
}

#[test]
fn a_wrong_answer_fails_the_run() {
    for workload in workloads() {
        let args = Args {
            corrupt_oracle: true,
            ..tiny(workload, false)
        };
        let outcome = run(&args).expect("tiny run sets up");
        assert!(
            !outcome.correct,
            "{} accepted a wrong answer",
            workload.name()
        );
        assert!(outcome.failed >= 1);
    }
}
