//! Offline drop-in subset of the `criterion` API.
//!
//! The build environment has no network access, so the workspace vendors
//! the slice of `criterion` its benches use: [`Criterion`],
//! [`BenchmarkId`], benchmark groups with `bench_with_input` /
//! `bench_function`, `Bencher::iter`, and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Measurement is simple wall-clock sampling: after a warm-up period, each
//! benchmark runs `sample_size` samples (batching iterations so a sample
//! lasts long enough to time reliably) and reports min / median / mean.
//! Passing `--test` (as `cargo bench -- --test` does) runs every closure
//! exactly once and skips measurement — the CI smoke mode. `--save-json
//! PATH` appends one JSON line per benchmark for trend tracking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimiser identity, re-exported for benches.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// A benchmark identifier: function name plus optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new<S: Into<String>, P: std::fmt::Display>(name: S, parameter: P) -> Self {
        BenchmarkId { id: format!("{}/{parameter}", name.into()) }
    }

    /// Just the parameter (for single-function groups).
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// The timing loop handle passed to benchmark closures.
pub struct Bencher<'a> {
    mode: Mode,
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    result: &'a mut Option<Sample>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Measure,
    TestOnce,
}

/// One benchmark's measured statistics, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
}

impl<'a> Bencher<'a> {
    /// Times `routine`, running it repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.mode == Mode::TestOnce {
            std_black_box(routine());
            return;
        }
        // Warm-up, and estimate the per-iteration cost while at it.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up {
            std_black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64;
        // Pick a batch size so one sample lasts ≥ ~50µs (timer resolution)
        // while the whole measurement fits the configured budget.
        let budget_ns = self.measurement.as_nanos() as f64 / self.sample_size as f64;
        let batch = (budget_ns / per_iter.max(1.0)).clamp(1.0, 1e9) as u64;
        let batch = batch.max((50_000.0 / per_iter.max(1.0)).ceil() as u64).max(1);

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                std_black_box(routine());
            }
            samples.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let min = samples[0];
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        *self.result = Some(Sample { min_ns: min, median_ns: median, mean_ns: mean });
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl<'a> BenchmarkGroup<'a> {
    fn run_one<F: FnMut(&mut Bencher<'_>)>(&mut self, id: String, mut f: F) {
        let full = format!("{}/{}", self.name, id);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let mut result = None;
        let mut bencher = Bencher {
            mode: self.criterion.mode,
            warm_up: self.criterion.warm_up,
            measurement: self.criterion.measurement,
            sample_size: self.criterion.sample_size,
            result: &mut result,
        };
        f(&mut bencher);
        match (self.criterion.mode, result) {
            (Mode::TestOnce, _) => println!("test {full} ... ok"),
            (Mode::Measure, Some(s)) => {
                // Labelled, because the columns are not real criterion's
                // `[low estimate high]` interval: a skewed run has
                // mean > median, which would read as an inverted one.
                println!(
                    "{full:<60} time: [min {} median {} mean {}]",
                    fmt_ns(s.min_ns),
                    fmt_ns(s.median_ns),
                    fmt_ns(s.mean_ns)
                );
                self.criterion.records.push((full, s));
            }
            (Mode::Measure, None) => println!("{full:<60} (no measurement)"),
        }
    }

    /// Benchmarks `f` with the given input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let id: BenchmarkId = id.into();
        self.run_one(id.to_string(), |b| f(b, input));
        self
    }

    /// Benchmarks a closure with no extra input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let id: BenchmarkId = id.into();
        self.run_one(id.to_string(), |b| f(b));
        self
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    mode: Mode,
    filter: Option<String>,
    save_json: Option<String>,
    records: Vec<(String, Sample)>,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut mode = Mode::Measure;
        let mut filter = None;
        let mut save_json = None;
        let mut args = std::env::args().skip(1).peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--test" => mode = Mode::TestOnce,
                "--save-json" => save_json = args.next(),
                // Flags cargo/criterion CLIs pass that we accept silently.
                "--bench" | "--verbose" | "--quiet" | "-n" | "--noplot" => {}
                s if s.starts_with("--") => {
                    // Unknown option: skip a value if one follows.
                    if args.peek().map(|a| !a.starts_with('-')).unwrap_or(false) {
                        args.next();
                    }
                }
                s => filter = Some(s.to_string()),
            }
        }
        Criterion {
            sample_size: 100,
            warm_up: Duration::from_secs(3),
            measurement: Duration::from_secs(5),
            mode,
            filter,
            save_json,
            records: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up duration.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Sets the measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into() }
    }

    /// Benchmarks a closure outside any group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let mut group = self.benchmark_group(name.to_string());
        group.bench_function(BenchmarkId { id: String::new() }, f);
        self
    }

    /// Writes accumulated results as JSON lines if `--save-json` was given.
    /// Called by `criterion_main!`.
    pub fn final_summary(&mut self) {
        let Some(path) = &self.save_json else { return };
        let mut out = String::new();
        for (name, s) in &self.records {
            let _ = writeln!(
                out,
                "{{\"id\":\"{}\",\"min_ns\":{:.1},\"median_ns\":{:.1},\"mean_ns\":{:.1}}}",
                name.replace('"', "'"),
                s.min_ns,
                s.median_ns,
                s.mean_ns
            );
        }
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
}

/// Declares a benchmark group, optionally with a custom `Criterion` config.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
            criterion.final_summary();
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(mode: Mode) -> Criterion {
        Criterion {
            sample_size: 5,
            warm_up: Duration::from_millis(5),
            measurement: Duration::from_millis(20),
            mode,
            filter: None,
            save_json: None,
            records: Vec::new(),
        }
    }

    #[test]
    fn measures_something() {
        let mut c = make(Mode::Measure);
        let mut group = c.benchmark_group("g");
        group.bench_with_input(BenchmarkId::new("f", 1), &1000u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
        assert_eq!(c.records.len(), 1);
        assert!(c.records[0].0.contains("g/f/1"));
        assert!(c.records[0].1.median_ns > 0.0);
    }

    #[test]
    fn test_mode_runs_once() {
        let mut c = make(Mode::TestOnce);
        let mut count = 0u32;
        let mut group = c.benchmark_group("g");
        group.bench_function("once", |b| b.iter(|| count += 1));
        group.finish();
        assert_eq!(count, 1);
        assert!(c.records.is_empty());
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("plain_kmm", "gnp32").to_string(), "plain_kmm/gnp32");
        assert_eq!(BenchmarkId::from_parameter(3).to_string(), "3");
    }
}
