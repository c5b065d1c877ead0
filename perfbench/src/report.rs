//! Percentiles and the JSON the benchmark prints.

use std::fmt::Write;

/// The `q`-quantile (nearest rank) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Blocks a run's completions are split into for [`block_rates`].
pub const RATE_BLOCKS: usize = 20;

/// The completion rate of each of [`RATE_BLOCKS`] consecutive blocks of
/// completions: a block's count over the time since the previous block
/// ended. `done_s` are completion times in seconds since the timed loop
/// started. Their median is the reported throughput, which a burst of
/// host speed or slowness in part of the run moves less than the mean.
pub fn block_rates(done_s: &[f64]) -> Vec<f64> {
    let mut sorted = done_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let block = (sorted.len() / RATE_BLOCKS).max(1);
    let mut prev = 0.0;
    sorted
        .chunks_exact(block)
        .map(|chunk| {
            let end = chunk[block - 1];
            let rate = ratio(block as f64, end - prev);
            prev = end;
            rate
        })
        .collect()
}

/// One reported number: its value, unit, and the samples it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// The samples behind `value` (latencies, set-ups, per-second
    /// completions); empty for a single measurement.
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: Vec::new(),
        }
    }

    pub fn with_samples(mut self, samples: Vec<f64>) -> Metric {
        self.samples = samples;
        self
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of string literals.
pub fn string_list(items: &[String]) -> String {
    let items: Vec<String> = items.iter().map(|s| string(s)).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON object from already-encoded values.
pub fn object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The `metrics` object of the result line.
pub fn metrics_object(metrics: &[Metric]) -> String {
    object(metrics.iter().map(|m| {
        (
            m.name,
            object([("value", num(m.value)), ("unit", string(m.unit))]),
        )
    }))
}

/// Each metric with its sample count and quartiles, for the record.
pub fn provenance_object(metrics: &[Metric]) -> String {
    object(metrics.iter().map(|m| {
        let s = &m.samples;
        (
            m.name,
            object([
                ("value", num(m.value)),
                ("unit", string(m.unit)),
                ("samples", s.len().to_string()),
                ("q1", num(quantile(s, 0.25))),
                ("median", num(median(s))),
                ("q3", num(quantile(s, 0.75))),
            ]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn block_rates_follow_each_block() {
        // 40 completions: the first 20 at 10 per second, the rest at 40.
        let done: Vec<f64> = (1..=20)
            .map(|i| f64::from(i) * 0.1)
            .chain((1..=20).map(|i| 2.0 + f64::from(i) * 0.025))
            .collect();
        let rates = block_rates(&done);
        assert_eq!(rates.len(), RATE_BLOCKS);
        assert!(rates[..10].iter().all(|r| (r - 10.0).abs() < 1e-9));
        assert!(rates[10..].iter().all(|r| (r - 40.0).abs() < 1e-9));
        assert_eq!(block_rates(&[0.5]), vec![2.0]);
    }

    #[test]
    fn json_is_escaped_and_finite() {
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\u000a\"");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(object([("k", num(1.5))]), "{\"k\": 1.5}");
    }
}
