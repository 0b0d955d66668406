//! Sample statistics and the metric report.
//!
//! Percentiles are nearest-rank and are only reportable with at least
//! [`MIN_BEYOND`] samples above the reported rank, so a tail figure
//! is never one or two outliers.

use std::collections::BTreeMap;

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest-rank index of percentile `p` over `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The smallest sample count at which percentile `p` is reportable.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| n - rank(p, n) >= MIN_BEYOND)
        .expect("some finite sample count satisfies the rule")
}

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - rank(p, n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, n) - 1])
}

/// Plain median (no tail rule): used for per-layer figures, where
/// the sample count is reported alongside.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Whether `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, ...).
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// The metrics of one run, by name.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
}

impl Report {
    /// Records a metric. Panics on an invalid or repeated name: both
    /// are harness bugs.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        let old = self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
        assert!(old.is_none(), "metric `{name}` reported twice");
    }

    /// Names and units reported so far, by name.
    pub fn entries(&self) -> Vec<(&str, &str)> {
        self.metrics
            .iter()
            .map(|(name, m)| (name.as_str(), m.unit))
            .collect()
    }

    /// A reported metric.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Human-readable lines, one per metric, with sample counts.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "{name:<34} {:>14} {:<6} n={}\n",
                    fmt_num(m.value),
                    m.unit,
                    m.samples
                )
            })
            .collect()
    }

    /// The `"metrics"` JSON object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    fmt_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust keeps; non-finite values (a
/// failed op counted as missing its latency) print as the largest
/// finite double so the line stays valid JSON.
pub fn fmt_num(v: f64) -> String {
    let v = if v.is_finite() { v } else { f64::MAX };
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), None);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(10.0));
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn min_samples_matches_the_percentile_rule() {
        for p in [50.0, 90.0, 95.0, 99.0] {
            let n = min_samples(p);
            let below: Vec<f64> = (0..n - 1).map(|i| i as f64).collect();
            let at: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(
                percentile(&below, p).is_none(),
                "p{p} with {} samples",
                n - 1
            );
            assert!(percentile(&at, p).is_some(), "p{p} with {n} samples");
        }
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(99.0), 1000);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..40).map(|i| ((i * 17) % 40) as f64).collect();
        let a = percentile(&samples, 50.0);
        samples.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&samples, 50.0));
        assert_eq!(a, Some(19.0));
    }

    #[test]
    fn an_infinite_sample_counts_as_missing_the_tail() {
        let mut samples: Vec<f64> = (0..89).map(|_| 1.0).collect();
        samples.extend(std::iter::repeat_n(f64::INFINITY, 11));
        assert_eq!(percentile(&samples, 90.0), Some(f64::INFINITY));
        assert_eq!(fmt_num(f64::INFINITY), format!("{:?}", f64::MAX));
    }

    #[test]
    fn metric_names_are_validated() {
        assert!(valid_name("warm_p50_ms"));
        assert!(valid_name("compile.cold.qrca_ms"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/ms"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn report_json_is_valid_and_ordered() {
        let mut r = Report::default();
        r.put("b_ms", 1.25, "ms", 3);
        r.put("a_s", 0.5, "s", 1);
        let v: serde_json::Value = serde_json::from_str(&r.json()).expect("valid JSON");
        let fields = v.as_object().expect("object");
        assert_eq!(fields[0].0, "a_s");
        assert_eq!(
            v.get("b_ms")
                .and_then(|m| m.get("value"))
                .and_then(|x| x.as_f64()),
            Some(1.25)
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn a_repeated_metric_is_a_bug() {
        let mut r = Report::default();
        r.put("x", 1.0, "ms", 1);
        r.put("x", 2.0, "ms", 1);
    }
}
