//! Machine-readable performance smokes over four hot paths: the Fig 4
//! Monte-Carlo panel, the Fig 15 architecture sweep, the staged kernel
//! compile, and the concurrent TCP serving layer, so the perf
//! trajectory of each is tracked across PRs instead of living in
//! commit messages.
//!
//! Every smoke produces the same [`BenchReport`] envelope: the
//! workload and its size, one gated throughput, a host-speed
//! calibration, the workload's contract counters, and a detail section
//! of printed rows. The copies committed at the repo root as
//! `BENCH_<workload>.json` are the perf baselines: [`check`] gates a
//! fresh run of a baseline's own workload, at its own size, against
//! it.

use qods_core::prelude::{
    area_sweep_in, evaluate_prep, log_areas, speedup_summary_from_curves, Arch, Circuit,
    ErrorModel, PrepStrategy, SimContext,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

/// Format tag of every smoke report.
pub const SCHEMA: &str = "qods-bench-smoke/v1";
/// Timing repetitions; the best (minimum) wall time is kept, which is
/// the standard noise filter on shared hosts.
pub const SMOKE_REPS: u32 = 5;
/// Seed for every timed run (results are deterministic per seed).
pub const SMOKE_SEED: u64 = 7;
/// Trials per strategy of the Monte-Carlo smoke.
pub const SMOKE_TRIALS: u64 = 200_000;
/// Area points per curve of the sweep smoke — the paper's Fig 15 grid.
pub const SWEEP_AREAS: usize = 13;
/// Operand width of the compile smoke.
pub const COMPILE_WIDTH: usize = 32;
/// Connections of the serve smoke.
pub const SERVE_CONNECTIONS: usize = 8;
/// Lockstep rounds of the serve smoke.
pub const SERVE_ROUNDS: usize = 10;
/// Monte-Carlo trials per served job: sized so one job costs ~100 ms
/// in release (with fault-free trials fast-forwarded) — two orders of
/// magnitude above client-thread scheduling skew, which is what makes
/// the exactly-once coalescing assertion robust rather than a timing
/// lottery.
pub const SERVE_TRIALS: u64 = 400_000;

/// Largest machine-normalized slowdown against the baseline [`check`]
/// accepts.
pub const MAX_SLOWDOWN: f64 = 2.0;
/// Smallest cold-over-warm-disk compile speedup [`check`] accepts.
pub const MIN_DISK_SPEEDUP: f64 = 1.2;
/// Smallest multi- over single-connection serving throughput ratio
/// [`check`] accepts.
pub const MIN_SCALING: f64 = 3.0;

/// The four smoke workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig 4 panel, single-threaded; size = trials per strategy.
    Montecarlo,
    /// The Fig 15 sweep of the three 32-bit benchmarks; size = area
    /// points per curve.
    Sweep,
    /// Every kernel family compiled cold- and warm-disk; size =
    /// operand width.
    Compile,
    /// Lockstep connections against a cache-off TCP server; size =
    /// rounds.
    Serve,
}

impl Workload {
    /// Every workload, in baseline-file order.
    pub const ALL: [Workload; 4] = [
        Workload::Montecarlo,
        Workload::Sweep,
        Workload::Compile,
        Workload::Serve,
    ];

    /// The name reports carry and `BENCH_<name>.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Montecarlo => "montecarlo",
            Workload::Sweep => "sweep",
            Workload::Compile => "compile",
            Workload::Serve => "serve",
        }
    }

    /// Looks a workload up by name or alias (`mc`/`fig4`, `fig15`,
    /// `net`).
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "montecarlo" | "mc" | "fig4" => Some(Workload::Montecarlo),
            "sweep" | "fig15" => Some(Workload::Sweep),
            "compile" => Some(Workload::Compile),
            "serve" | "net" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// Runs the smoke at the one size its baseline records.
    pub fn run(self) -> BenchReport {
        match self {
            Workload::Montecarlo => montecarlo_smoke(SMOKE_TRIALS, SMOKE_REPS),
            Workload::Sweep => sweep_smoke(SWEEP_AREAS, SMOKE_REPS),
            Workload::Compile => compile_smoke(COMPILE_WIDTH, SMOKE_REPS),
            Workload::Serve => serve_smoke(SERVE_CONNECTIONS, SERVE_ROUNDS),
        }
    }
}

/// One smoke measurement: the shape of every `BENCH_*.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Format tag ([`SCHEMA`]).
    pub schema: String,
    /// Which smoke ran ([`Workload::name`]).
    pub workload: String,
    /// Workload size, in the unit [`Workload`] documents per variant.
    pub size: u64,
    /// Timing repetitions (best kept).
    pub reps: u32,
    /// Host-speed yardstick: best ns/op of a fixed workload timed in
    /// the same process (see [`calibration_ns_per_op`]). The gate
    /// compares `throughput * calibration_ns_per_op` — a
    /// machine-normalized quantity — so a baseline from one host
    /// remains meaningful on another.
    pub calibration_ns_per_op: f64,
    /// The gated throughput, in `unit`.
    pub throughput: f64,
    /// What `throughput` counts (`trials/s`, `points/s`, ...).
    pub unit: String,
    /// Correctness counters gated on every run.
    pub contracts: Contracts,
    /// Workload-specific detail: the rows the smoke prints.
    pub detail: Vec<Row>,
}

/// A workload's correctness counters; `None` where the workload has no
/// such contract.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Contracts {
    /// Compile: stages the warm-disk runs recomputed (must be 0).
    pub warm_recomputes: Option<u64>,
    /// Compile: cold over warm-disk wall time (at least
    /// [`MIN_DISK_SPEEDUP`]).
    pub disk_speedup: Option<f64>,
    /// Serve: jobs the multi-connection server executed (must equal
    /// the rounds: coalesced duplicates execute exactly once).
    pub executed_jobs: Option<u64>,
    /// Serve: requests answered by joining an in-flight execution
    /// (must be positive).
    pub coalesced_jobs: Option<u64>,
    /// Serve: multi- over single-connection throughput (at least
    /// [`MIN_SCALING`]).
    pub scaling: Option<f64>,
}

impl Contracts {
    /// The counters the workload carries, as `name value` pairs.
    fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(n) = self.warm_recomputes {
            parts.push(format!("warm_recomputes {n}"));
        }
        if let Some(s) = self.disk_speedup {
            parts.push(format!(
                "disk_speedup {s:.2}x (floor {MIN_DISK_SPEEDUP:.2}x)"
            ));
        }
        if let Some(n) = self.executed_jobs {
            parts.push(format!("executed_jobs {n}"));
        }
        if let Some(n) = self.coalesced_jobs {
            parts.push(format!("coalesced_jobs {n}"));
        }
        if let Some(s) = self.scaling {
            parts.push(format!("scaling {s:.2}x (floor {MIN_SCALING:.2}x)"));
        }
        parts.join(", ")
    }
}

/// One printed detail row: a label and its named numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// What the row measures (a strategy, a benchmark, a kernel, a run).
    pub label: String,
    /// Named numbers, in key order.
    pub values: BTreeMap<String, f64>,
}

impl Row {
    fn new<const N: usize>(label: impl Into<String>, values: [(&str, f64); N]) -> Row {
        Row {
            label: label.into(),
            values: values.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// A row from a flat struct of numbers, keyed by its field names.
    fn of(label: &str, fields: &impl Serialize) -> Row {
        let value = fields.to_value();
        Row {
            label: label.to_string(),
            values: value
                .as_object()
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
        }
    }
}

/// Renders a report as the human-readable side of the smoke.
pub fn render(r: &BenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} perf smoke (size {}, best of {}): {:.1} {} x {:.2} ns calib",
        r.workload, r.size, r.reps, r.throughput, r.unit, r.calibration_ns_per_op
    );
    for row in &r.detail {
        let _ = write!(out, "  {:<20}", row.label);
        for (k, v) in &row.values {
            if v.fract() == 0.0 || v.abs() >= 1e4 {
                let _ = write!(out, "  {k} {v:.0}");
            } else if v.abs() >= 1.0 {
                let _ = write!(out, "  {k} {v:.2}");
            } else {
                let _ = write!(out, "  {k} {v:.3e}");
            }
        }
        out.push('\n');
    }
    let contracts = r.contracts.describe();
    if !contracts.is_empty() {
        let _ = writeln!(out, "  contracts: {contracts}");
    }
    out
}

/// Reads and parses a baseline report, naming the workload it records.
///
/// # Errors
///
/// Returns a diagnostic when the file cannot be read, does not parse as
/// a [`BenchReport`], carries another schema, or names no known
/// workload.
pub fn load_baseline(path: &Path) -> Result<(Workload, BenchReport), String> {
    let shown = path.display();
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {shown}: {e}"))?;
    let report: BenchReport =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse baseline {shown}: {e}"))?;
    if report.schema != SCHEMA {
        return Err(format!(
            "baseline {shown} has schema `{}`, expected `{SCHEMA}`",
            report.schema
        ));
    }
    let workload = Workload::parse(&report.workload).ok_or_else(|| {
        format!(
            "baseline {shown} names unknown workload `{}`",
            report.workload
        )
    })?;
    Ok((workload, report))
}

/// Gates a fresh smoke against a checked-in baseline. Fails when the
/// baseline records another workload or size than the one that ran,
/// when either machine-normalized throughput is not finite and
/// positive, when the normalized slowdown exceeds [`MAX_SLOWDOWN`], or
/// when the fresh run breaks one of its [`Contracts`].
///
/// # Errors
///
/// Returns the verdict plus every broken rule.
pub fn check(current: &BenchReport, baseline: &BenchReport) -> Result<String, String> {
    let normalized = |r: &BenchReport| r.throughput * r.calibration_ns_per_op;
    let (now, then) = (normalized(current), normalized(baseline));
    let slowdown = then / now;
    let mut verdict = format!(
        "{}: current {:.1} {} x {:.2} ns calib vs baseline {:.1} x {:.2} \
         (normalized slowdown {slowdown:.2}, limit {MAX_SLOWDOWN:.2})",
        current.workload,
        current.throughput,
        current.unit,
        current.calibration_ns_per_op,
        baseline.throughput,
        baseline.calibration_ns_per_op,
    );
    let contracts = current.contracts.describe();
    if !contracts.is_empty() {
        verdict = format!("{verdict}; {contracts}");
    }
    let mut broken = Vec::new();
    if baseline.workload != current.workload {
        broken.push(format!(
            "baseline records workload `{}`, not `{}`",
            baseline.workload, current.workload
        ));
    }
    if baseline.size != current.size {
        broken.push(format!(
            "baseline records size {}, the run used {}",
            baseline.size, current.size
        ));
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !positive(now) || !positive(then) {
        broken.push("normalized throughput must be finite and positive".to_string());
    } else if slowdown > MAX_SLOWDOWN {
        broken.push("normalized throughput regressed".to_string());
    }
    let c = &current.contracts;
    if c.warm_recomputes.is_some_and(|n| n > 0) {
        broken.push("warm-disk run recompiled stages".to_string());
    }
    if c.disk_speedup.is_some_and(|s| s < MIN_DISK_SPEEDUP) {
        broken.push("disk cache buys too little".to_string());
    }
    if c.executed_jobs.is_some_and(|n| n != current.size) {
        broken.push("coalesced duplicates must execute exactly once".to_string());
    }
    if c.coalesced_jobs == Some(0) {
        broken.push("nothing coalesced".to_string());
    }
    if c.scaling.is_some_and(|s| s < MIN_SCALING) {
        broken.push("concurrency scaling below the floor".to_string());
    }
    if broken.is_empty() {
        Ok(verdict)
    } else {
        Err(format!("{verdict} -- {}", broken.join("; ")))
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
/// trials per Fig 4 strategy, single-threaded, best time kept. The
/// gated throughput is total trials over the summed best times.
pub fn montecarlo_smoke(trials: u64, reps: u32) -> BenchReport {
    let model = ErrorModel::paper();
    // Warm the caches (and fault in the code paths) once.
    for s in PrepStrategy::ALL {
        let _ = evaluate_prep(s, model, trials.min(2_000), SMOKE_SEED, 1);
    }
    let mut detail = Vec::new();
    let mut panel_total_s = 0.0;
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
        panel_total_s += best;
        detail.push(Row::new(
            s.name(),
            [
                ("wall_ms", best * 1e3),
                ("trials_per_sec", trials as f64 / best),
                // Sanity anchors: must not drift when only
                // performance work happens.
                ("error_rate", eval.error_rate()),
                ("discard_rate", eval.discard_rate()),
            ],
        ));
    }
    detail.push(Row::new("panel total", [("wall_ms", panel_total_s * 1e3)]));
    let total_trials = trials * PrepStrategy::ALL.len() as u64;
    BenchReport {
        schema: SCHEMA.to_string(),
        workload: Workload::Montecarlo.name().to_string(),
        size: trials,
        reps,
        calibration_ns_per_op: calibration_ns_per_op(reps),
        throughput: total_trials as f64 / panel_total_s,
        unit: "trials/s".to_string(),
        contracts: Contracts::default(),
        detail,
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
///
/// The gated throughput is simulated `(arch, area)` points per second
/// at the *sequential* total: the single-threaded calibration can only
/// cancel host speed for a single-threaded measurement, so deriving it
/// from the parallel total would let per-point regressions hide behind
/// the runner's core count (and fail honest runs on smaller hosts).
pub fn sweep_smoke(areas_n: usize, reps: u32) -> BenchReport {
    let circuits = sweep_benchmarks();
    let areas = log_areas(200.0, 3e6, areas_n);
    let threads = qods_core::arch::sweep::host_threads();
    let mut detail = Vec::new();
    let (mut total_s, mut serial_total_s) = (0.0, 0.0);
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
        total_s += best;
        serial_total_s += best_serial;
        detail.push(Row::new(
            c.name.clone(),
            [
                ("gates", c.len() as f64),
                ("wall_ms", best * 1e3),
                ("serial_wall_ms", best_serial * 1e3),
                // Sanity anchors: the headline max speedup and the QLA
                // knee-area penalty must not drift when only
                // performance work happens.
                ("max_speedup", anchors.0),
                ("qla_area_penalty", anchors.1),
            ],
        ));
    }
    detail.push(Row::new(
        "total",
        [
            ("threads", threads as f64),
            ("wall_ms", total_s * 1e3),
            ("serial_wall_ms", serial_total_s * 1e3),
            ("parallel_speedup", serial_total_s / total_s),
        ],
    ));
    // 4 architectures per benchmark, one simulation per (arch, area).
    let total_points = (4 * areas_n * circuits.len()) as f64;
    BenchReport {
        schema: SCHEMA.to_string(),
        workload: Workload::Sweep.name().to_string(),
        size: areas_n as u64,
        reps,
        calibration_ns_per_op: calibration_ns_per_op(reps),
        throughput: total_points / serial_total_s,
        unit: "points/s".to_string(),
        contracts: Contracts::default(),
        detail,
    }
}

/// Runs the timed compile smoke: every kernel family at `width`,
/// cold-disk vs warm-disk, single-threaded, best of `reps`. The gated
/// throughput is cold-path lowered gates per second.
///
/// # Panics
///
/// Panics when a warm run recomputes anything or disagrees with the
/// cold compilation — either would mean the artifact store is broken,
/// which no perf number should paper over.
pub fn compile_smoke(width: usize, reps: u32) -> BenchReport {
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
    let mut detail: Vec<Row> = cold_panel
        .iter()
        .map(|k| {
            Row::new(
                k.spec.to_string(),
                [("gates", k.scheduled.circuit.len() as f64)],
            )
        })
        .collect();
    detail.push(Row::new("cold-disk", [("wall_ms", cold_best * 1e3)]));
    detail.push(Row::new("warm-disk", [("wall_ms", warm_best * 1e3)]));
    BenchReport {
        schema: SCHEMA.to_string(),
        workload: Workload::Compile.name().to_string(),
        size: width as u64,
        reps,
        calibration_ns_per_op: calibration_ns_per_op(reps),
        throughput: total_gates as f64 / cold_best,
        unit: "gates/s".to_string(),
        contracts: Contracts {
            warm_recomputes: Some(warm_computed),
            disk_speedup: Some(cold_best / warm_best),
            ..Contracts::default()
        },
        detail,
    }
}

/// Starts an in-process TCP server on an ephemeral loopback port:
/// `workers` engine threads, the result cache on or off, and room for
/// `2 * connections` jobs in flight so every client connection is
/// admitted at once (its callers measure throughput, not shedding).
/// Returns the bound address and the serving thread, which exits after
/// a `shutdown` verb.
pub fn loopback_server(
    workers: usize,
    caching: bool,
    connections: usize,
) -> (SocketAddr, JoinHandle<()>) {
    use qods_core::study::StudyConfig;
    use qods_net::{NetServer, ServeCore, ServeOptions};
    use qods_service::Scheduler;
    use std::sync::Arc;

    let scheduler = Scheduler::with_options(StudyConfig::smoke(), workers, caching);
    let core = ServeCore::new(
        scheduler,
        ServeOptions {
            max_inflight: 2 * connections,
            ..ServeOptions::default()
        },
    );
    let server = NetServer::bind(Arc::new(core), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().expect("loopback server serves"));
    (addr, handle)
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

/// Runs the concurrent-serving smoke: the same `rounds x connections`
/// request stream (every round one fresh config, duplicated across
/// all connections) against two identical cache-off servers — once
/// over a single connection sequentially, once over `connections`
/// lockstep connections — and reports the multi-connection throughput
/// plus the coalescing counters that prove duplicates executed exactly
/// once.
///
/// # Panics
///
/// Panics when a request errors or a transport fails — a broken
/// server is not a perf number.
pub fn serve_smoke(connections: usize, rounds: usize) -> BenchReport {
    use qods_net::Client;
    use qods_obs::LatencyHistogram;
    use std::sync::{Arc, Barrier};

    let connections = connections.max(2);
    let rounds = rounds.max(1);
    let requests_total = rounds * connections;
    // Caching is off so the counters prove *in-flight coalescing*, not
    // the content-addressed cache (which the service smokes already
    // gate); one worker thread so the scaling number can only come
    // from the serving layer, never from engine parallelism.
    let serve_smoke_server = || loopback_server(1, false, connections);

    // Warm the code paths (and the in-process artifact store) once so
    // neither run pays one-time compilation.
    {
        let (addr, server) = serve_smoke_server();
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
    let (addr, server) = serve_smoke_server();
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
    let (addr, server) = serve_smoke_server();
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

    let single_rps = requests_total as f64 / single_wall_s;
    let multi_rps = requests_total as f64 / multi_wall_s;
    let detail = vec![
        Row::new(
            "jobs",
            [
                ("connections", connections as f64),
                ("trials_per_job", SERVE_TRIALS as f64),
                ("requests_total", requests_total as f64),
            ],
        ),
        // Every duplicate recomputed.
        Row::new(
            "single",
            [("wall_s", single_wall_s), ("req_per_s", single_rps)],
        ),
        // Duplicates coalesce in flight; retries are client-side.
        Row::new(
            "multi",
            [
                ("wall_s", multi_wall_s),
                ("req_per_s", multi_rps),
                (
                    "client_retries",
                    retries.load(std::sync::atomic::Ordering::Relaxed) as f64,
                ),
            ],
        ),
        Row::of("latency", &latency.summary()),
        // The `stats` verb's robustness counters, verbatim.
        Row::of("robustness", &stats.robustness),
    ];
    BenchReport {
        schema: SCHEMA.to_string(),
        workload: Workload::Serve.name().to_string(),
        size: rounds as u64,
        reps: 1,
        calibration_ns_per_op: calibration_ns_per_op(SMOKE_REPS),
        throughput: multi_rps,
        unit: "req/s".to_string(),
        contracts: Contracts {
            executed_jobs: Some(stats.executed),
            coalesced_jobs: Some(stats.coalesced),
            // Coalescing alone collapses each round's duplicates onto
            // one execution, so this holds on a single-core host.
            scaling: Some(multi_rps / single_rps),
            ..Contracts::default()
        },
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report that passes against itself and carries every contract
    /// counter, so one fixture reaches every rule of [`check`].
    fn good() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            workload: "serve".to_string(),
            size: 10,
            reps: 1,
            calibration_ns_per_op: 2.0,
            throughput: 64.0,
            unit: "req/s".to_string(),
            contracts: Contracts {
                warm_recomputes: Some(0),
                disk_speedup: Some(15.0),
                executed_jobs: Some(10),
                coalesced_jobs: Some(70),
                scaling: Some(7.0),
            },
            detail: vec![Row::new("multi", [("wall_s", 1.25)])],
        }
    }

    #[test]
    fn gate_fails_on_every_broken_rule() {
        type Break = fn(&mut BenchReport, &mut BenchReport);
        let cases: [(&str, Break, &str); 12] = [
            ("3x slowdown", |c, _| c.throughput /= 3.0, "regressed"),
            (
                "warm recompute",
                |c, _| c.contracts.warm_recomputes = Some(1),
                "recompiled",
            ),
            (
                "disk speedup below the floor",
                |c, _| c.contracts.disk_speedup = Some(1.1),
                "buys too little",
            ),
            (
                "double execution",
                |c, _| c.contracts.executed_jobs = Some(11),
                "exactly once",
            ),
            (
                "nothing coalesced",
                |c, _| c.contracts.coalesced_jobs = Some(0),
                "nothing coalesced",
            ),
            (
                "scaling below the floor",
                |c, _| c.contracts.scaling = Some(2.4),
                "below the floor",
            ),
            (
                "zero baseline throughput",
                |_, b| b.throughput = 0.0,
                "finite and positive",
            ),
            (
                "zero baseline calibration",
                |_, b| b.calibration_ns_per_op = 0.0,
                "finite and positive",
            ),
            (
                "NaN current throughput",
                |c, _| c.throughput = f64::NAN,
                "finite and positive",
            ),
            (
                "zero current throughput",
                |c, _| c.throughput = 0.0,
                "finite and positive",
            ),
            (
                "workload mismatch",
                |_, b| b.workload = "compile".to_string(),
                "workload",
            ),
            ("size mismatch", |_, b| b.size = 5, "size"),
        ];
        let fine = check(&good(), &good());
        assert!(fine.is_ok(), "{fine:?}");
        for (name, break_it, needle) in cases {
            let (mut current, mut baseline) = (good(), good());
            break_it(&mut current, &mut baseline);
            match check(&current, &baseline) {
                Ok(v) => panic!("{name}: gate passed: {v}"),
                Err(e) => assert!(e.contains(needle), "{name}: {e}"),
            }
        }
    }

    #[test]
    fn committed_baselines_parse_and_pass_against_themselves() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for workload in Workload::ALL {
            let path = root.join(format!("BENCH_{}.json", workload.name()));
            let (named, report) = load_baseline(&path).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(named, workload, "{}", path.display());
            let verdict = check(&report, &report);
            assert!(verdict.is_ok(), "{}: {verdict:?}", path.display());
            assert!(!render(&report).is_empty());
        }
    }

    #[test]
    fn smoke_rates_are_deterministic() {
        let a = montecarlo_smoke(4_000, 1);
        let b = montecarlo_smoke(4_000, 2);
        assert_eq!(a.detail.len(), PrepStrategy::ALL.len() + 1);
        for (x, y) in a.detail.iter().zip(&b.detail) {
            for rate in ["error_rate", "discard_rate"] {
                assert_eq!(x.values.get(rate), y.values.get(rate), "{}", x.label);
            }
        }
    }
}
