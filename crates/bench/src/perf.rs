//! Machine-readable performance smokes: the Fig 4 Monte-Carlo panel
//! (`BENCH_montecarlo.json`), the Fig 15 architecture sweep
//! (`BENCH_sweep.json`), the staged kernel compile
//! (`BENCH_compile.json`), and the concurrent TCP serving layer
//! (`BENCH_serve.json`), so the perf trajectory of every hot path is
//! tracked across PRs instead of living in commit messages.
//!
//! The committed JSON files at the repo root double as perf baselines:
//! CI re-runs each smoke in quick mode and fails when machine-
//! normalized throughput regresses more than 2x against them (see
//! [`check_against`] / [`check_sweep_against`]). Each report includes
//! a frozen `reference` block measured on the engine it replaced with
//! this same harness, so the before/after of the rewrites stays
//! visible.

use qods_core::prelude::{
    area_sweep_in, evaluate_prep, log_areas, speedup_summary_from_curves, Arch, Circuit,
    ErrorModel, PrepStrategy, SimContext,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Trials per strategy for the full (committed-baseline) smoke.
pub const SMOKE_TRIALS: u64 = 200_000;
/// Trials per strategy for the quick (CI) smoke.
pub const QUICK_TRIALS: u64 = 40_000;
/// Timing repetitions; the best (minimum) wall time is kept, which is
/// the standard noise filter on shared hosts.
pub const SMOKE_REPS: u32 = 5;
/// Seed for every timed run (results are deterministic per seed).
pub const SMOKE_SEED: u64 = 7;

/// One timed panel entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct McBenchEntry {
    /// Strategy name (paper's Fig 4 label).
    pub strategy: String,
    /// Trials run per repetition.
    pub trials: u64,
    /// Best wall time over the repetitions, in milliseconds.
    pub wall_ms: f64,
    /// Trials per second at the best wall time.
    pub trials_per_sec: f64,
    /// Measured uncorrectable rate (sanity anchor: must not drift when
    /// only performance work happens).
    pub error_rate: f64,
    /// Measured discard rate.
    pub discard_rate: f64,
}

/// Frozen numbers from the engine this one replaced, for before/after
/// comparisons inside the same file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct McReference {
    /// Provenance of the frozen numbers.
    pub note: String,
    /// Per-strategy best wall times (same harness shape), milliseconds.
    pub per_strategy_ms: Vec<f64>,
    /// Panel total (sum of per-strategy bests), milliseconds.
    pub panel_total_ms: f64,
}

/// The full report written to `BENCH_montecarlo.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct McBenchReport {
    /// Format tag.
    pub schema: String,
    /// Trials per strategy per repetition.
    pub trials_per_strategy: u64,
    /// Timing repetitions (best kept).
    pub reps: u32,
    /// Worker threads (1 = the single-thread speedup criterion).
    pub threads: usize,
    /// One entry per Fig 4 strategy, paper order.
    pub panel: Vec<McBenchEntry>,
    /// Sum of best wall times, milliseconds.
    pub panel_total_ms: f64,
    /// Panel throughput: total trials / panel_total, per second.
    pub panel_trials_per_sec: f64,
    /// Host-speed yardstick: best ns/op of a fixed reference-frame
    /// workload timed in the same process (see [`calibration_ns_per_op`]).
    /// The CI gate compares `panel_trials_per_sec * calibration_ns_per_op`
    /// — a machine-normalized quantity — so a baseline from one host
    /// remains meaningful on another.
    pub calibration_ns_per_op: f64,
    /// Pre-rewrite engine numbers (only meaningful next to full-smoke
    /// trials; the quick smoke scales them by trial count).
    pub reference: McReference,
    /// `reference.panel_total_ms` over `panel_total_ms`, trial-count
    /// normalized.
    pub speedup_vs_reference: f64,
}

/// Best-of-3 × 200k-trial panel of the engine before this rewrite
/// (`Vec<bool>` frames, one Bernoulli draw per op, fresh allocations
/// per trial, static per-thread trial split), measured with this same
/// harness on the host that produced the committed baseline.
pub fn reference_baseline() -> McReference {
    McReference {
        note: "pre-rewrite engine (PR 1 state): Vec<bool> frames, per-op \
               Bernoulli sampling, per-trial allocation; best of 3 reps, \
               200000 trials/strategy, threads=1, same host as the \
               committed baseline"
            .to_string(),
        per_strategy_ms: vec![38.4, 95.6, 133.2, 328.0],
        panel_total_ms: 595.2,
    }
}

/// Times a fixed, fully self-contained workload — a local xorshift
/// generator driving branchy bit manipulation, defined entirely in
/// this function so no engine code under test can perturb it — as a
/// proxy for host speed. Its instruction mix (integer shifts, xors,
/// popcounts, data-dependent branches) resembles the panel's, so
/// dividing panel throughput by it cancels hardware differences to
/// first order while remaining sensitive to genuine engine
/// regressions.
pub fn calibration_ns_per_op(reps: u32) -> f64 {
    let rounds = 200_000u64;
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15 ^ SMOKE_SEED;
        let mut acc: u64 = 0;
        let t0 = Instant::now();
        for _ in 0..rounds {
            // xorshift64* step + the kind of masked bit work the
            // packed frame does, with a data-dependent branch.
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let r = s.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let q = (r >> 58) as u32; // 0..64
            acc ^= 1u64 << (q & 63);
            if r & 0xff == 0 {
                acc = acc.rotate_left(acc.count_ones());
            }
        }
        std::hint::black_box(acc);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e9 / rounds as f64
}

/// Runs the timed panel: `reps` repetitions of `trials` Monte-Carlo
/// trials per Fig 4 strategy, single-threaded, best time kept.
pub fn montecarlo_smoke(trials: u64, reps: u32) -> McBenchReport {
    let model = ErrorModel::paper();
    // Warm the caches (and fault in the code paths) once.
    for s in PrepStrategy::ALL {
        let _ = evaluate_prep(s, model, trials.min(2_000), SMOKE_SEED, 1);
    }
    let mut panel = Vec::new();
    for s in PrepStrategy::ALL {
        let mut best = f64::INFINITY;
        let mut eval = None;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let e = evaluate_prep(s, model, trials, SMOKE_SEED, 1);
            best = best.min(t0.elapsed().as_secs_f64());
            eval = Some(e);
        }
        let eval = eval.expect("at least one rep ran");
        panel.push(McBenchEntry {
            strategy: s.name().to_string(),
            trials,
            wall_ms: best * 1e3,
            trials_per_sec: trials as f64 / best,
            error_rate: eval.error_rate(),
            discard_rate: eval.discard_rate(),
        });
    }
    let panel_total_ms: f64 = panel.iter().map(|e| e.wall_ms).sum();
    let total_trials = trials * PrepStrategy::ALL.len() as u64;
    let reference = reference_baseline();
    // Normalize by trial count so quick smokes still report a
    // meaningful before/after ratio.
    let ref_scaled = reference.panel_total_ms * (trials as f64 / SMOKE_TRIALS as f64);
    McBenchReport {
        schema: "qods-bench-montecarlo/v1".to_string(),
        trials_per_strategy: trials,
        reps,
        threads: 1,
        panel_total_ms,
        panel_trials_per_sec: total_trials as f64 / (panel_total_ms / 1e3),
        calibration_ns_per_op: calibration_ns_per_op(reps),
        panel,
        reference,
        speedup_vs_reference: ref_scaled / panel_total_ms,
    }
}

/// Renders the report as the human-readable side of the smoke.
pub fn render_report(r: &McBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Monte-Carlo perf smoke ({} trials/strategy, best of {}, {} thread):",
        r.trials_per_strategy, r.reps, r.threads
    );
    for e in &r.panel {
        let _ = writeln!(
            out,
            "  {:<20} {:>9.1} ms  {:>12.0} trials/s  err={:.3e} discard={:.3e}",
            e.strategy, e.wall_ms, e.trials_per_sec, e.error_rate, e.discard_rate
        );
    }
    let _ = writeln!(
        out,
        "  panel total {:.1} ms ({:.0} trials/s); {:.1}x vs pre-rewrite engine",
        r.panel_total_ms, r.panel_trials_per_sec, r.speedup_vs_reference
    );
    out
}

/// Compares a fresh smoke against a checked-in baseline report.
/// Returns `Err` with a diagnostic when machine-normalized per-trial
/// throughput — `panel_trials_per_sec * calibration_ns_per_op`, so
/// the baseline host's raw speed cancels — regressed by more than
/// `max_regression` (CI uses 2.0).
pub fn check_against(
    current: &McBenchReport,
    baseline: &McBenchReport,
    max_regression: f64,
) -> Result<String, String> {
    let normalize = |r: &McBenchReport| r.panel_trials_per_sec * r.calibration_ns_per_op;
    let ratio = normalize(baseline) / normalize(current);
    let verdict = format!(
        "normalized panel throughput: current {:.0} trials/s x {:.2} ns calib \
         vs baseline {:.0} trials/s x {:.2} ns calib \
         (normalized slowdown {ratio:.2}, limit {max_regression:.2})",
        current.panel_trials_per_sec,
        current.calibration_ns_per_op,
        baseline.panel_trials_per_sec,
        baseline.calibration_ns_per_op,
    );
    if ratio > max_regression {
        Err(verdict)
    } else {
        Ok(verdict)
    }
}

/// Area points per curve for the full (committed-baseline) sweep
/// smoke — the paper's Fig 15 grid.
pub const SWEEP_AREAS: usize = 13;
/// Area points for the quick (CI) sweep smoke.
pub const QUICK_SWEEP_AREAS: usize = 7;
/// Timing repetitions for the sweep smoke (best kept).
pub const SWEEP_REPS: u32 = 5;

/// One benchmark's timed Fig 15 sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepBenchEntry {
    /// Benchmark circuit name.
    pub benchmark: String,
    /// Lowered gate count.
    pub gates: usize,
    /// Best wall time of the full workload (4-arch sweep + headline
    /// summary) at the report's thread count, milliseconds.
    pub wall_ms: f64,
    /// Best wall time of the same workload forced sequential
    /// (threads = 1), milliseconds.
    pub serial_wall_ms: f64,
    /// Headline max speedup (sanity anchor: must not drift when only
    /// performance work happens).
    pub max_speedup: f64,
    /// QLA knee-area penalty vs Fully-Multiplexed (second anchor).
    pub qla_area_penalty: f64,
}

/// Frozen numbers from the sweep implementation this one replaced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReference {
    /// Provenance of the frozen numbers.
    pub note: String,
    /// Per-benchmark best wall times (same workload shape), ms.
    pub per_benchmark_ms: Vec<f64>,
    /// Sum of per-benchmark bests, milliseconds.
    pub total_ms: f64,
    /// Area points per curve the reference ran.
    pub areas: usize,
}

/// The full report written to `BENCH_sweep.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepBenchReport {
    /// Format tag.
    pub schema: String,
    /// Area points per curve.
    pub areas: usize,
    /// Timing repetitions (best kept).
    pub reps: u32,
    /// Worker threads used for the parallel timing (one per core).
    pub threads: usize,
    /// One entry per benchmark circuit.
    pub panel: Vec<SweepBenchEntry>,
    /// Sum of best parallel wall times, milliseconds.
    pub total_ms: f64,
    /// Sum of best sequential wall times, milliseconds.
    pub serial_total_ms: f64,
    /// Sweep throughput: simulated `(arch, area)` points per second at
    /// the *sequential* total. The CI gate normalizes this quantity,
    /// and the single-threaded calibration below can only cancel host
    /// speed for a single-threaded measurement — deriving it from the
    /// parallel total would let per-point regressions hide behind the
    /// runner's core count (and fail honest runs on smaller hosts).
    pub points_per_sec: f64,
    /// Host-speed yardstick shared with the Monte-Carlo smoke; the CI
    /// gate compares `points_per_sec * calibration_ns_per_op`.
    pub calibration_ns_per_op: f64,
    /// Pre-rewrite sweep numbers (area-count normalized when the quick
    /// smoke runs a smaller grid).
    pub reference: SweepReference,
    /// Reference total over `total_ms`, area-count normalized — the
    /// headline improvement of the event-engine rewrite.
    pub speedup_vs_reference: f64,
    /// `serial_total_ms / total_ms` — what the worker pool itself
    /// buys on this host (1.0 on a single-core box).
    pub parallel_speedup: f64,
}

/// Best-of-5 x 13-area Fig 15 sweeps of the simulator before the
/// event-engine rewrite (per-call Dag/schedule/demand rebuild, string
/// of `simulate()` calls, summary re-sweeping three architectures),
/// measured with this same harness on the host that produced the
/// committed baseline.
pub fn sweep_reference_baseline() -> SweepReference {
    SweepReference {
        note: "pre-rewrite simulator (PR 2 state): per-call Dag + \
               speed-of-data + demand-mix rebuild, sequential sweep, \
               speedup_summary re-sweeping 3 archs; best of 5 reps, \
               13 areas, threads=1, same host as the committed baseline"
            .to_string(),
        per_benchmark_ms: vec![31.151, 35.270, 171.942],
        total_ms: 241.687,
        areas: 13,
    }
}

/// The Fig 15 benchmark set: the paper's three 32-bit kernels.
fn sweep_benchmarks() -> Vec<Circuit> {
    use qods_core::kernels::{qcla_lowered, qft_lowered, qrca_lowered, SynthAdapter};
    let synth = SynthAdapter::with_budget(12, 1e-2);
    vec![qrca_lowered(32), qcla_lowered(32), qft_lowered(32, &synth)]
}

/// One benchmark's full Fig 15 workload: the four-architecture area
/// sweep plus the headline summary derived from its curves.
fn sweep_workload(ctx: &SimContext<'_>, areas: &[f64], threads: usize) -> (f64, f64) {
    let archs = Arch::fig15_panel(ctx.circuit().n_qubits());
    let curves = area_sweep_in(ctx, &archs, areas, threads);
    let s = speedup_summary_from_curves(&curves);
    (s.max_speedup, s.qla_area_penalty)
}

/// Runs the timed Fig 15 sweep smoke: `reps` repetitions per
/// benchmark, parallel (one worker per core) and sequential, best
/// times kept.
pub fn sweep_smoke(areas_n: usize, reps: u32) -> SweepBenchReport {
    let circuits = sweep_benchmarks();
    let areas = log_areas(200.0, 3e6, areas_n);
    let threads = qods_core::arch::sweep::host_threads();
    let mut panel = Vec::new();
    for c in &circuits {
        let ctx = SimContext::new(c);
        // Warm caches and fault in the code paths once.
        let _ = sweep_workload(&ctx, &areas[..2.min(areas.len())], 1);
        let mut best = f64::INFINITY;
        let mut best_serial = f64::INFINITY;
        let mut anchors = (0.0, 0.0);
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            anchors = sweep_workload(&ctx, &areas, threads);
            best = best.min(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let _ = sweep_workload(&ctx, &areas, 1);
            best_serial = best_serial.min(t1.elapsed().as_secs_f64());
        }
        panel.push(SweepBenchEntry {
            benchmark: c.name.clone(),
            gates: c.len(),
            wall_ms: best * 1e3,
            serial_wall_ms: best_serial * 1e3,
            max_speedup: anchors.0,
            qla_area_penalty: anchors.1,
        });
    }
    let total_ms: f64 = panel.iter().map(|e| e.wall_ms).sum();
    let serial_total_ms: f64 = panel.iter().map(|e| e.serial_wall_ms).sum();
    // 4 architectures per benchmark, one simulation per (arch, area).
    let total_points = (4 * areas_n * circuits.len()) as f64;
    let reference = sweep_reference_baseline();
    // Normalize by area count so quick smokes still report a
    // meaningful before/after ratio (points scale linearly).
    let ref_scaled = reference.total_ms * (areas_n as f64 / reference.areas as f64);
    SweepBenchReport {
        schema: "qods-bench-sweep/v1".to_string(),
        areas: areas_n,
        reps,
        threads,
        total_ms,
        serial_total_ms,
        points_per_sec: total_points / (serial_total_ms / 1e3),
        calibration_ns_per_op: calibration_ns_per_op(reps),
        panel,
        reference,
        speedup_vs_reference: ref_scaled / total_ms,
        parallel_speedup: serial_total_ms / total_ms,
    }
}

/// Renders the sweep report as the human-readable side of the smoke.
pub fn render_sweep_report(r: &SweepBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 15 sweep perf smoke ({} areas, best of {}, {} thread(s)):",
        r.areas, r.reps, r.threads
    );
    for e in &r.panel {
        let _ = writeln!(
            out,
            "  {:<10} {:>6} gates  {:>8.2} ms parallel  {:>8.2} ms serial  \
             speedup {:.1}x  qla-area {:.0}x",
            e.benchmark, e.gates, e.wall_ms, e.serial_wall_ms, e.max_speedup, e.qla_area_penalty
        );
    }
    let _ = writeln!(
        out,
        "  total {:.1} ms parallel / {:.1} ms serial ({:.0} points/s serial); \
         {:.1}x vs pre-rewrite sweep, {:.2}x from the worker pool",
        r.total_ms, r.serial_total_ms, r.points_per_sec, r.speedup_vs_reference, r.parallel_speedup
    );
    out
}

/// Compares a fresh sweep smoke against a checked-in baseline report
/// with the same machine-normalized rule as [`check_against`]:
/// `points_per_sec * calibration_ns_per_op` cancels host speed, and a
/// normalized slowdown beyond `max_regression` fails.
pub fn check_sweep_against(
    current: &SweepBenchReport,
    baseline: &SweepBenchReport,
    max_regression: f64,
) -> Result<String, String> {
    let normalize = |r: &SweepBenchReport| r.points_per_sec * r.calibration_ns_per_op;
    let ratio = normalize(baseline) / normalize(current);
    let verdict = format!(
        "normalized sweep throughput: current {:.0} points/s x {:.2} ns calib \
         vs baseline {:.0} points/s x {:.2} ns calib \
         (normalized slowdown {ratio:.2}, limit {max_regression:.2})",
        current.points_per_sec,
        current.calibration_ns_per_op,
        baseline.points_per_sec,
        baseline.calibration_ns_per_op,
    );
    if ratio > max_regression {
        Err(verdict)
    } else {
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_roundtrips_and_checks() {
        let r = montecarlo_smoke(2_000, 1);
        assert_eq!(r.panel.len(), 4);
        assert!(r.panel_total_ms > 0.0);
        assert!(r.panel_trials_per_sec > 0.0);
        let json = serde_json::to_string_pretty(&r).expect("serialize");
        let back: McBenchReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.panel.len(), 4);
        assert_eq!(back.trials_per_strategy, 2_000);
        // A run can never regress >2x against itself.
        let verdict = check_against(&back, &r, 2.0);
        assert!(verdict.is_ok(), "{verdict:?}");
        // And a 3x-slower run must fail the gate.
        let mut slow = r.clone();
        slow.panel_trials_per_sec /= 3.0;
        assert!(check_against(&slow, &r, 2.0).is_err());
    }

    #[test]
    fn sweep_report_roundtrips_and_gate_fires() {
        // Synthetic report: the JSON contract and the normalized gate,
        // without paying for 32-bit kernel lowering in a debug test
        // (CI's quick smoke runs the real thing in release).
        let r = SweepBenchReport {
            schema: "qods-bench-sweep/v1".to_string(),
            areas: 13,
            reps: 5,
            threads: 4,
            panel: vec![SweepBenchEntry {
                benchmark: "QRCA-32".to_string(),
                gates: 1234,
                wall_ms: 10.0,
                serial_wall_ms: 30.0,
                max_speedup: 6.2,
                qla_area_penalty: 11.0,
            }],
            total_ms: 10.0,
            serial_total_ms: 30.0,
            points_per_sec: 5200.0,
            calibration_ns_per_op: 2.0,
            reference: sweep_reference_baseline(),
            speedup_vs_reference: 24.0,
            parallel_speedup: 3.0,
        };
        let json = serde_json::to_string_pretty(&r).expect("serialize");
        let back: SweepBenchReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.panel.len(), 1);
        assert_eq!(back.areas, 13);
        // A run never regresses >2x against itself...
        assert!(check_sweep_against(&back, &r, 2.0).is_ok());
        // ...and a 3x normalized slowdown fails the gate.
        let mut slow = r.clone();
        slow.points_per_sec /= 3.0;
        assert!(check_sweep_against(&slow, &r, 2.0).is_err());
        // The frozen reference keeps the pre-rewrite grid.
        assert_eq!(r.reference.areas, 13);
        assert!((r.reference.total_ms - 241.687).abs() < 1e-9);
    }

    #[test]
    fn smoke_rates_are_deterministic() {
        let a = montecarlo_smoke(4_000, 1);
        let b = montecarlo_smoke(4_000, 2);
        for (x, y) in a.panel.iter().zip(&b.panel) {
            assert_eq!(x.error_rate, y.error_rate, "{}", x.strategy);
            assert_eq!(x.discard_rate, y.discard_rate, "{}", x.strategy);
        }
    }
}

/// Timing repetitions for the compile smoke (best kept).
pub const COMPILE_REPS: u32 = 5;
/// Operand width of the full (committed-baseline) compile smoke.
pub const COMPILE_WIDTH: usize = 32;
/// Operand width of the quick (CI) compile smoke.
pub const QUICK_COMPILE_WIDTH: usize = 8;

/// One kernel of the timed compile workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompileBenchEntry {
    /// The spec (`family:width`).
    pub spec: String,
    /// Lowered physical gate count (sanity anchor).
    pub gates: usize,
}

/// The full report written to `BENCH_compile.json`: cold-disk vs
/// warm-disk full lowering of every kernel family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompileBenchReport {
    /// Format tag.
    pub schema: String,
    /// Operand width every family was compiled at.
    pub width: usize,
    /// Timing repetitions (best kept).
    pub reps: u32,
    /// The compiled kernel set.
    pub panel: Vec<CompileBenchEntry>,
    /// Best wall time of the full set with an *empty* disk store
    /// (every stage computed), milliseconds, threads = 1.
    pub cold_ms: f64,
    /// Best wall time of the full set through a fresh in-process
    /// store over the *warm* disk store (every stage deserialized),
    /// milliseconds, threads = 1.
    pub warm_ms: f64,
    /// Stages recomputed during the warm runs — the cache contract:
    /// must be 0, and the gate hard-fails otherwise.
    pub warm_computed: u64,
    /// `cold_ms / warm_ms` — what the persistent artifact store buys
    /// a cold process.
    pub disk_speedup: f64,
    /// Cold-path compile throughput (lowered gates per second) at the
    /// best cold time. Gate throughput — unlike kernels per second —
    /// is roughly width-invariant, so the quick smoke stays
    /// comparable against the full-width committed baseline.
    pub gates_per_sec: f64,
    /// Host-speed yardstick shared with the other smokes; the CI gate
    /// compares `gates_per_sec * calibration_ns_per_op`.
    pub calibration_ns_per_op: f64,
}

/// Runs the timed compile smoke: every kernel family at `width`,
/// cold-disk vs warm-disk, single-threaded, best of `reps`.
///
/// # Panics
///
/// Panics when a warm run recomputes anything or disagrees with the
/// cold compilation — either would mean the artifact store is broken,
/// which no perf number should paper over.
pub fn compile_smoke(width: usize, reps: u32) -> CompileBenchReport {
    use qods_core::compile::{ArtifactStore, Compiler, SynthBudget};
    use qods_core::kernels::{KernelFamily, KernelSpec};
    use std::sync::Arc;

    let specs: Vec<KernelSpec> = KernelFamily::ALL
        .iter()
        .map(|&family| KernelSpec::new(family, width).expect("smoke widths are valid"))
        .collect();
    let budget = SynthBudget {
        max_t: if width >= COMPILE_WIDTH { 12 } else { 8 },
        target_distance: 1e-2,
    };
    let dir = std::env::temp_dir().join(format!("qods_compile_smoke_{}", std::process::id()));

    // Cold: empty disk store every rep — the full lowering chain runs.
    let mut cold_best = f64::INFINITY;
    let mut cold_panel: Option<Vec<qods_core::compile::CompiledKernel>> = None;
    for _ in 0..reps.max(1) {
        let _ = std::fs::remove_dir_all(&dir);
        let compiler = Compiler::new(Arc::new(ArtifactStore::persistent(&dir)), budget);
        let t0 = Instant::now();
        let compiled = compiler.compile_many(&specs, 1).expect("valid specs");
        cold_best = cold_best.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            compiler.store().stats().disk_hits,
            0,
            "cold runs must start from an empty disk store"
        );
        cold_panel = Some(compiled);
    }
    let cold_panel = cold_panel.expect("at least one cold rep ran");

    // Warm: fresh in-process store over the disk the last cold rep
    // left behind — everything must deserialize, nothing recompute.
    let mut warm_best = f64::INFINITY;
    let mut warm_computed = 0u64;
    for _ in 0..reps.max(1) {
        let compiler = Compiler::new(Arc::new(ArtifactStore::persistent(&dir)), budget);
        let t0 = Instant::now();
        let compiled = compiler.compile_many(&specs, 1).expect("valid specs");
        warm_best = warm_best.min(t0.elapsed().as_secs_f64());
        let stats = compiler.store().stats();
        warm_computed += stats.computed;
        assert_eq!(stats.computed, 0, "warm-disk run recompiled a stage");
        for (cold, warm) in cold_panel.iter().zip(&compiled) {
            assert_eq!(
                *cold.characterization, *warm.characterization,
                "disk-cached artifact disagrees with the fresh compilation"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let total_gates: usize = cold_panel.iter().map(|k| k.scheduled.circuit.len()).sum();
    CompileBenchReport {
        schema: "qods-bench-compile/v1".to_string(),
        width,
        reps,
        panel: cold_panel
            .iter()
            .map(|k| CompileBenchEntry {
                spec: k.spec.to_string(),
                gates: k.scheduled.circuit.len(),
            })
            .collect(),
        cold_ms: cold_best * 1e3,
        warm_ms: warm_best * 1e3,
        warm_computed,
        disk_speedup: cold_best / warm_best,
        gates_per_sec: total_gates as f64 / cold_best,
        calibration_ns_per_op: calibration_ns_per_op(reps),
    }
}

/// Renders the compile report as the human-readable side of the smoke.
pub fn render_compile_report(r: &CompileBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Compile perf smoke ({} families at width {}, best of {}, 1 thread):",
        r.panel.len(),
        r.width,
        r.reps
    );
    for e in &r.panel {
        let _ = writeln!(out, "  {:<12} {:>7} gates", e.spec, e.gates);
    }
    let _ = writeln!(
        out,
        "  cold-disk {:.1} ms, warm-disk {:.1} ms: {:.1}x from the artifact store \
         ({} stages recomputed warm)",
        r.cold_ms, r.warm_ms, r.disk_speedup, r.warm_computed
    );
    out
}

/// Compares a fresh compile smoke against a checked-in baseline:
/// fails when machine-normalized cold-compile throughput regressed
/// more than `max_regression`, when the warm run recomputed anything,
/// or when the disk speedup fell below `min_disk_speedup` (CI uses
/// 2.0 / 1.2).
pub fn check_compile_against(
    current: &CompileBenchReport,
    baseline: &CompileBenchReport,
    max_regression: f64,
    min_disk_speedup: f64,
) -> Result<String, String> {
    let normalize = |r: &CompileBenchReport| r.gates_per_sec * r.calibration_ns_per_op;
    let ratio = normalize(baseline) / normalize(current);
    let verdict = format!(
        "cold compile: current {:.0} gates/s x {:.2} ns calib vs baseline {:.0} x {:.2} \
         (normalized slowdown {ratio:.2}, limit {max_regression:.2}); \
         disk speedup {:.2}x (floor {min_disk_speedup:.2}x), {} warm recomputes",
        current.gates_per_sec,
        current.calibration_ns_per_op,
        baseline.gates_per_sec,
        baseline.calibration_ns_per_op,
        current.disk_speedup,
        current.warm_computed,
    );
    if current.warm_computed > 0 {
        return Err(format!("{verdict} -- warm-disk run recompiled stages"));
    }
    if current.disk_speedup < min_disk_speedup {
        return Err(format!("{verdict} -- disk cache buys too little"));
    }
    if ratio > max_regression {
        return Err(verdict);
    }
    Ok(verdict)
}

/// The serving layer's latency accounting, re-exported so bench
/// callers (the load generator, external harnesses) address one
/// crate: `qods_bench::perf::LatencyHistogram` *is*
/// [`qods_service::stats::LatencyHistogram`] — the same type the
/// `stats` verb reports through.
pub use qods_service::stats::{LatencyHistogram, LatencySummary};

/// Connections for the committed serve smoke (the ISSUE's workload).
pub const SERVE_CONNECTIONS: usize = 8;
/// Lockstep rounds for the full (committed-baseline) serve smoke.
pub const SERVE_ROUNDS: usize = 10;
/// Lockstep rounds for the quick (CI) serve smoke.
pub const QUICK_SERVE_ROUNDS: usize = 5;
/// Monte-Carlo trials per served job: sized so one job costs ~100 ms
/// in release (with fault-free trials fast-forwarded) — two orders of
/// magnitude above client-thread scheduling skew, which is what makes
/// the exactly-once coalescing assertion below robust rather than a
/// timing lottery.
pub const SERVE_TRIALS: u64 = 400_000;

/// The serving path's robustness counters, carried in
/// `BENCH_serve.json` so the chaos-hardening work stays visible next
/// to the throughput numbers. Since schema v3 this is the *same*
/// [`RobustnessSnapshot`] the `stats` verb serves — one shape, read
/// straight off the server's stats line, so the bench report and the
/// verb can never drift apart. Client-side retries are a separate
/// report field ([`ServeBenchReport::client_retries`]): they are
/// counted by the clients, not the server.
pub use qods_obs::RobustnessSnapshot;

/// The full report written to `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Format tag.
    pub schema: String,
    /// Concurrent client connections in the multi-connection run.
    pub connections: usize,
    /// Lockstep rounds; each round is one fresh configuration that
    /// every connection requests simultaneously.
    pub rounds: usize,
    /// Requests answered per run (`rounds * connections`, both runs).
    pub requests_total: usize,
    /// Fraction of requests that duplicate another in-flight request
    /// (`1 - 1/connections`: everything but each round's leader).
    pub repeat_fraction: f64,
    /// Monte-Carlo trials per job (the per-job cost knob).
    pub trials_per_job: u64,
    /// Wall seconds for one connection submitting all requests
    /// sequentially against a cache-off server (nothing coalesces,
    /// nothing is cached: every duplicate pays full price).
    pub single_wall_s: f64,
    /// Requests per second of the single-connection baseline.
    pub single_rps: f64,
    /// Wall seconds for `connections` lockstep connections against an
    /// identical cache-off server (duplicates coalesce in flight).
    pub multi_wall_s: f64,
    /// Requests per second of the multi-connection run.
    pub multi_rps: f64,
    /// `multi_rps / single_rps` — the serving layer's concurrency
    /// win. Coalescing alone collapses each round's `connections`
    /// duplicates onto one execution, so this holds on a single-core
    /// host; worker parallelism only adds to it.
    pub scaling: f64,
    /// Jobs the multi-connection server actually executed — the
    /// exactly-once contract: must equal `rounds`, and the gate
    /// hard-fails otherwise.
    pub executed_jobs: u64,
    /// Requests answered by joining an in-flight execution (must be
    /// `rounds * (connections - 1)` when coalescing is airtight).
    pub coalesced_jobs: u64,
    /// Client-observed per-request latency over the multi-connection
    /// run, from the same [`LatencyHistogram`] the `stats` verb uses.
    pub latency: LatencySummary,
    /// Robustness counters from the multi-connection run's server
    /// (the `stats` verb's nested `robustness` object, verbatim).
    pub robustness: RobustnessSnapshot,
    /// Client-side transparent retries over the multi-connection run
    /// (overloaded / timeout / reset; counted by the clients).
    pub client_retries: u64,
    /// Host-speed yardstick shared with the other smokes; the CI gate
    /// compares `multi_rps * calibration_ns_per_op`.
    pub calibration_ns_per_op: f64,
}

/// One serve-smoke job line: round `round` as seen from client
/// `client`. The seed varies per round (each round is a distinct
/// configuration) but not per client (a round's requests must share
/// their coalescing key).
fn serve_job_line(round: usize, client: usize) -> String {
    format!(
        "{{\"id\":\"r{round}c{client}\",\"experiments\":[\"fig4\"],\
         \"overrides\":{{\"mc_trials\":{SERVE_TRIALS},\"seed\":{}}}}}",
        1_000 + round as u64
    )
}

/// Starts an in-process cache-off TCP server for the smoke. Caching
/// is off so the counters prove *in-flight coalescing*, not the
/// content-addressed cache (which the service smokes already gate);
/// one worker thread so the scaling number can only come from the
/// serving layer, never from engine parallelism.
fn serve_smoke_server() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<()>,
    std::sync::Arc<qods_net::ServeCore>,
) {
    use qods_core::study::StudyConfig;
    use qods_net::{NetServer, ServeCore, ServeOptions};
    use qods_service::Scheduler;
    use std::sync::Arc;

    let scheduler = Scheduler::with_options(StudyConfig::smoke(), 1, false);
    let core = Arc::new(ServeCore::new(
        scheduler,
        ServeOptions {
            max_inflight: 2 * SERVE_CONNECTIONS,
            ..ServeOptions::default()
        },
    ));
    let server = NetServer::bind(Arc::clone(&core), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().expect("smoke server serves"));
    (addr, handle, core)
}

/// Runs the concurrent-serving smoke: the same `rounds x connections`
/// request stream (every round one fresh config, duplicated across
/// all connections) against two identical cache-off servers — once
/// over a single connection sequentially, once over `connections`
/// lockstep connections — and reports the throughput scaling plus the
/// coalescing counters that prove duplicates executed exactly once.
///
/// # Panics
///
/// Panics when a request errors or a transport fails — a broken
/// server is not a perf number.
pub fn serve_smoke(connections: usize, rounds: usize) -> ServeBenchReport {
    use qods_net::Client;
    use std::sync::{Arc, Barrier};

    let connections = connections.max(2);
    let rounds = rounds.max(1);
    let requests_total = rounds * connections;

    // Warm the code paths (and the in-process artifact store) once so
    // neither run pays one-time compilation.
    {
        let (addr, server, _core) = serve_smoke_server();
        let mut c = Client::connect(addr).expect("connect warmup");
        let line = "{\"experiments\":[\"fig4\"],\"overrides\":{\"mc_trials\":2000}}";
        let r = c.roundtrip(line).expect("warmup").expect("warmup answers");
        assert!(r.contains("\"event\":\"result\""), "{r}");
        c.shutdown().expect("warmup shutdown");
        server.join().expect("warmup server exits");
    }

    // Single-connection baseline: every request in sequence; with the
    // cache off each of the `connections` duplicates per round pays
    // the full computation.
    let (addr, server, _core) = serve_smoke_server();
    let mut client = Client::connect(addr).expect("connect baseline");
    let t0 = Instant::now();
    for round in 0..rounds {
        for c in 0..connections {
            let line = client
                .roundtrip(&serve_job_line(round, c))
                .expect("roundtrip")
                .expect("result line");
            assert!(line.contains("\"event\":\"result\""), "{line}");
        }
    }
    let single_wall_s = t0.elapsed().as_secs_f64();
    client.shutdown().expect("baseline shutdown");
    server.join().expect("baseline server exits");

    // Multi-connection run: `connections` clients in lockstep rounds;
    // each round's duplicates arrive together and coalesce onto one
    // execution. Latency is recorded client-side into the shared
    // lock-free histogram.
    let (addr, server, core) = serve_smoke_server();
    let barrier = Arc::new(Barrier::new(connections + 1));
    let latency = Arc::new(LatencyHistogram::new());
    let retries = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let latency = Arc::clone(&latency);
            let retries = Arc::clone(&retries);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect worker");
                for round in 0..rounds {
                    barrier.wait();
                    let t = Instant::now();
                    let line = client
                        .roundtrip_retrying(&serve_job_line(round, c))
                        .expect("roundtrip")
                        .expect("result line");
                    latency.record(t.elapsed());
                    assert!(line.contains("\"event\":\"result\""), "{line}");
                }
                retries.fetch_add(client.retries(), std::sync::atomic::Ordering::Relaxed);
            })
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..rounds {
        barrier.wait();
    }
    for w in workers {
        w.join().expect("worker thread");
    }
    let multi_wall_s = t0.elapsed().as_secs_f64();

    let mut probe = Client::connect(addr).expect("connect probe");
    let stats = probe.stats().expect("stats verb");
    probe.shutdown().expect("smoke shutdown");
    server.join().expect("smoke server exits");
    drop(core);

    let single_rps = requests_total as f64 / single_wall_s;
    let multi_rps = requests_total as f64 / multi_wall_s;
    ServeBenchReport {
        schema: "qods-bench-serve/v3".to_string(),
        connections,
        rounds,
        requests_total,
        repeat_fraction: 1.0 - 1.0 / connections as f64,
        trials_per_job: SERVE_TRIALS,
        single_wall_s,
        single_rps,
        multi_wall_s,
        multi_rps,
        scaling: multi_rps / single_rps,
        executed_jobs: stats.executed,
        coalesced_jobs: stats.coalesced,
        latency: latency.summary(),
        robustness: stats.robustness,
        client_retries: retries.load(std::sync::atomic::Ordering::Relaxed),
        calibration_ns_per_op: calibration_ns_per_op(SMOKE_REPS),
    }
}

/// Renders the serve report as the human-readable side of the smoke.
pub fn render_serve_report(r: &ServeBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Concurrent serving smoke ({} connections x {} rounds, {:.0}% duplicates, \
         {} trials/job, cache off):",
        r.connections,
        r.rounds,
        100.0 * r.repeat_fraction,
        r.trials_per_job
    );
    let _ = writeln!(
        out,
        "  single connection: {:>7.3} s  ({:>6.1} req/s, every duplicate recomputed)",
        r.single_wall_s, r.single_rps
    );
    let _ = writeln!(
        out,
        "  {} connections:     {:>7.3} s  ({:>6.1} req/s, {} executions + {} coalesced)",
        r.connections, r.multi_wall_s, r.multi_rps, r.executed_jobs, r.coalesced_jobs
    );
    let _ = writeln!(
        out,
        "  scaling {:.1}x; client latency p50 {:.1} ms / p99 {:.1} ms / max {:.1} ms",
        r.scaling,
        r.latency.p50_us / 1e3,
        r.latency.p99_us / 1e3,
        r.latency.max_us / 1e3
    );
    let _ = writeln!(
        out,
        "  robustness: {} panics caught, {} deadlines exceeded, {} lines \
         rejected, {} idle reaped; {} client retries",
        r.robustness.panics_caught,
        r.robustness.deadline_exceeded,
        r.robustness.lines_rejected,
        r.robustness.idle_reaped,
        r.client_retries
    );
    out
}

/// Compares a fresh serve smoke against a checked-in baseline:
/// fails when coalesced duplicates did not execute exactly once
/// (`executed_jobs != rounds`), when nothing coalesced at all, when
/// throughput scaling fell below `min_scaling` (CI uses 3.0, the
/// ISSUE's floor), or when machine-normalized multi-connection
/// throughput regressed more than `max_regression` (CI uses 2.0).
pub fn check_serve_against(
    current: &ServeBenchReport,
    baseline: &ServeBenchReport,
    max_regression: f64,
    min_scaling: f64,
) -> Result<String, String> {
    let normalize = |r: &ServeBenchReport| r.multi_rps * r.calibration_ns_per_op;
    let ratio = normalize(baseline) / normalize(current);
    let verdict = format!(
        "serving: {} executions for {} rounds, {} coalesced; scaling {:.2}x \
         (floor {min_scaling:.2}x); current {:.1} req/s x {:.2} ns calib vs \
         baseline {:.1} req/s x {:.2} ns calib (normalized slowdown {ratio:.2}, \
         limit {max_regression:.2})",
        current.executed_jobs,
        current.rounds,
        current.coalesced_jobs,
        current.scaling,
        current.multi_rps,
        current.calibration_ns_per_op,
        baseline.multi_rps,
        baseline.calibration_ns_per_op,
    );
    if current.executed_jobs != current.rounds as u64 {
        return Err(format!(
            "{verdict} -- coalesced duplicates must execute exactly once"
        ));
    }
    if current.coalesced_jobs == 0 {
        return Err(format!("{verdict} -- nothing coalesced"));
    }
    if current.scaling < min_scaling {
        return Err(format!("{verdict} -- concurrency scaling below the floor"));
    }
    if ratio > max_regression {
        return Err(verdict);
    }
    Ok(verdict)
}

#[cfg(test)]
mod serve_tests {
    use super::*;

    fn synthetic_serve_report() -> ServeBenchReport {
        // Synthetic report: the JSON contract and the gate logic,
        // without paying for 80 x ~100 ms served jobs in a debug test
        // (CI's quick smoke runs the real thing in release).
        ServeBenchReport {
            schema: "qods-bench-serve/v3".to_string(),
            connections: 8,
            rounds: 10,
            requests_total: 80,
            repeat_fraction: 0.875,
            trials_per_job: SERVE_TRIALS,
            single_wall_s: 8.0,
            single_rps: 10.0,
            multi_wall_s: 1.2,
            multi_rps: 66.7,
            scaling: 6.67,
            executed_jobs: 10,
            coalesced_jobs: 70,
            latency: LatencySummary {
                count: 80,
                mean_us: 105_000.0,
                p50_us: 101_000.0,
                p99_us: 140_000.0,
                max_us: 150_000.0,
            },
            robustness: RobustnessSnapshot::default(),
            client_retries: 0,
            calibration_ns_per_op: 2.0,
        }
    }

    #[test]
    fn serve_report_roundtrips_and_gate_passes_itself() {
        let r = synthetic_serve_report();
        let json = serde_json::to_string_pretty(&r).expect("serialize");
        let back: ServeBenchReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.connections, 8);
        assert_eq!(back.executed_jobs, 10);
        assert_eq!(back.latency.count, 80);
        assert_eq!(back.robustness.panics_caught, 0);
        assert_eq!(back.client_retries, 0);
        let verdict = check_serve_against(&back, &r, 2.0, 3.0);
        assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn serve_gate_fails_on_every_broken_contract() {
        let good = synthetic_serve_report();
        // Duplicate executed twice: exactly-once broken.
        let mut double = good.clone();
        double.executed_jobs = 11;
        let err = check_serve_against(&double, &good, 2.0, 3.0).unwrap_err();
        assert!(err.contains("exactly once"), "{err}");
        // Nothing coalesced.
        let mut cold = good.clone();
        cold.coalesced_jobs = 0;
        assert!(check_serve_against(&cold, &good, 2.0, 3.0)
            .unwrap_err()
            .contains("nothing coalesced"));
        // Scaling below the ISSUE's 3x floor.
        let mut flat = good.clone();
        flat.scaling = 2.4;
        assert!(check_serve_against(&flat, &good, 2.0, 3.0)
            .unwrap_err()
            .contains("below the floor"));
        // A 3x normalized slowdown fails the 2x rule.
        let mut slow = good.clone();
        slow.multi_rps /= 3.0;
        assert!(check_serve_against(&slow, &good, 2.0, 3.0).is_err());
    }

    #[test]
    fn latency_histogram_is_reachable_through_perf() {
        // The satellite contract: one histogram type serves the
        // `stats` verb, the load generator, and bench callers.
        let h = LatencyHistogram::new();
        h.record(std::time::Duration::from_millis(3));
        h.record(std::time::Duration::from_millis(5));
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert!(s.p99_us >= s.p50_us);
    }
}
