//! What every workload shares: the run context, the closed-loop
//! clock, seed derivation, output digests and the per-run outcome.

use crate::stats::min_samples;
use crate::trace::Tracer;
use qods_core::experiment::ExperimentRecord;
use qods_core::StudyConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A timed run never stops before its classes reach their minimum
/// sample counts, but gives up here.
pub const HARD_CAP: Duration = Duration::from_secs(120);

/// The percentile reported for the warm op class. On a shared host
/// the speed flips between a contended and an uncontended state, and
/// the share of each varies from run to run: a run's median moved
/// 16-29% between runs of identical code, its p90 far less.
pub const WARM_PCT: f64 = 90.0;

/// How long a workload's loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// The benchmark's timed loop: at least `secs`, and until the warm
    /// class has a reportable [`WARM_PCT`] and the cold class a
    /// reportable `cold_pct`.
    Seconds { secs: f64, cold_pct: f64 },
    /// A fixed number of ops (set-up warm-up and traced probes).
    Ops(u64),
}

impl Budget {
    /// Whether the loop should start another op.
    pub fn keep_going(self, start: Instant, ops: u64, warm: usize, cold: usize) -> bool {
        match self {
            Budget::Ops(n) => ops < n,
            Budget::Seconds { secs, cold_pct } => {
                let elapsed = start.elapsed();
                if elapsed >= HARD_CAP {
                    return false;
                }
                elapsed.as_secs_f64() < secs
                    || warm < min_samples(WARM_PCT)
                    || cold < min_samples(cold_pct)
            }
        }
    }
}

/// Named counts a workload records for the per-layer report.
#[derive(Debug, Default)]
pub struct Counts(Mutex<BTreeMap<&'static str, f64>>);

impl Counts {
    pub fn set(&self, name: &'static str, value: f64) {
        self.0.lock().expect("counts lock").insert(name, value);
    }

    pub fn add(&self, name: &'static str, value: f64) {
        *self
            .0
            .lock()
            .expect("counts lock")
            .entry(name)
            .or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.lock().expect("counts lock").get(name).copied()
    }
}

/// Everything a workload needs from the harness.
pub struct Cx<'a> {
    pub tracer: &'a Tracer,
    pub counts: &'a Counts,
    /// Scratch directory for artifact stores (inside the checkout).
    pub work: PathBuf,
    pub seed: u64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latencies of the warm-cache op class (failed ops are infinite).
    pub warm_ms: Vec<f64>,
    /// Latencies of the cold-cache op class.
    pub cold_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the timed loop.
    pub wall_s: f64,
    /// Why checks failed (empty when every output was correct).
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records one op: its latency in its class, or a failure that
    /// counts as missing every latency limit.
    pub fn record(&mut self, warm: bool, ms: f64, check: Result<(), String>) {
        self.op(check.is_ok());
        self.sample(warm, ms, check);
    }

    /// Counts one attempted op.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds one latency sample to its class; a failed check adds an
    /// infinite one and keeps the reason.
    pub fn sample(&mut self, warm: bool, ms: f64, check: Result<(), String>) {
        let ms = match check {
            Ok(()) => ms,
            Err(why) => {
                if self.failures.len() < 8 {
                    self.failures.push(why);
                }
                f64::INFINITY
            }
        };
        if warm {
            self.warm_ms.push(ms);
        } else {
            self.cold_ms.push(ms);
        }
    }
}

/// The paper configuration with both thread knobs at one, at study
/// seed `seed`.
pub fn config(seed: u64) -> StudyConfig {
    StudyConfig {
        threads: 1,
        seed,
        ..StudyConfig::default()
    }
}

/// SplitMix64: the seed stream every workload input is drawn from.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `index`-th value of the named input stream of workload seed
/// `seed`; distinct streams never share a value in practice.
pub fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    let tag = qods_compile::hash::fnv1a(stream.as_bytes());
    splitmix(splitmix(seed ^ tag).wrapping_add(index))
}

/// A digest of records minus their wall-time field: id, title and the
/// serialized output of each, in order.
pub fn digest(records: &[ExperimentRecord]) -> u64 {
    let mut text = String::new();
    for r in records {
        text.push_str(&r.id);
        text.push('\t');
        text.push_str(&r.title);
        text.push('\t');
        text.push_str(&serde_json::to_string(&r.output).expect("experiment outputs serialize"));
        text.push('\n');
    }
    qods_compile::hash::fnv1a(text.as_bytes())
}

/// Removes a scratch directory, ignoring one that is already gone.
pub fn clear_dir(dir: &std::path::Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", dir.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qods_core::experiment::ExperimentOutput;
    use qods_core::output::LatencyOut;

    fn record(t_1q: f64) -> ExperimentRecord {
        ExperimentRecord {
            id: "table1".to_string(),
            title: "Table 1".to_string(),
            seconds: 0.5,
            output: ExperimentOutput::Latency(LatencyOut {
                t_1q,
                t_2q: 10.0,
                t_meas: 100.0,
                t_prep: 10.0,
                t_move: 1.0,
                t_turn: 10.0,
            }),
        }
    }

    #[test]
    fn digest_ignores_wall_time_but_catches_a_mutated_record() {
        let a = record(1.0);
        let mut slower = a.clone();
        slower.seconds = 9.0;
        let one = std::slice::from_ref(&a);
        assert_eq!(digest(one), digest(&[slower]));
        let mutated = record(1.0000001);
        assert_ne!(digest(one), digest(&[mutated]));
        let mut retitled = a.clone();
        retitled.title.push('!');
        assert_ne!(digest(one), digest(&[retitled]));
        assert_ne!(digest(&[a.clone(), a.clone()]), digest(&[a]));
    }

    #[test]
    fn configs_pin_one_thread_and_vary_only_in_the_seed() {
        assert_eq!(config(5).threads, 1);
        assert_eq!(config(5), config(5));
        assert_eq!(
            StudyConfig {
                seed: 6,
                ..config(5)
            },
            config(6)
        );
    }

    #[test]
    fn derived_seeds_are_deterministic_and_stream_separated() {
        assert_eq!(derive(7, "hot", 3), derive(7, "hot", 3));
        assert_ne!(derive(7, "hot", 3), derive(8, "hot", 3));
        assert_ne!(derive(7, "hot", 3), derive(7, "fresh", 3));
        assert_ne!(derive(7, "hot", 3), derive(7, "hot", 4));
    }

    #[test]
    fn a_failed_op_misses_its_latency() {
        let mut o = Outcome::default();
        o.record(true, 2.0, Ok(()));
        o.record(true, 1.0, Err("wrong".to_string()));
        o.record(false, 3.0, Ok(()));
        assert_eq!((o.attempted, o.failed), (3, 1));
        assert_eq!(o.warm_ms, vec![2.0, f64::INFINITY]);
        assert_eq!(o.cold_ms, vec![3.0]);
        assert_eq!(o.failures, vec!["wrong".to_string()]);
    }

    #[test]
    fn op_budgets_count_and_timed_budgets_need_samples() {
        let now = Instant::now();
        assert!(Budget::Ops(2).keep_going(now, 1, 0, 0));
        assert!(!Budget::Ops(2).keep_going(now, 2, 0, 0));
        let (warm, cold) = (min_samples(WARM_PCT), min_samples(75.0));
        assert_eq!((warm, cold), (100, 40));
        let timed = |secs| Budget::Seconds {
            secs,
            cold_pct: 75.0,
        };
        assert!(timed(0.0).keep_going(now, 5, warm - 1, cold));
        assert!(timed(0.0).keep_going(now, 5, warm, cold - 1));
        assert!(!timed(0.0).keep_going(now, 5, warm, cold));
        assert!(timed(60.0).keep_going(now, 5, warm, cold));
    }
}
