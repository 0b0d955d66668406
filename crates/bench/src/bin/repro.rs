//! Regenerates tables and figures of "Running a Quantum Circuit at
//! the Speed of Data" — a thin client of the `qods-service` job
//! layer.
//!
//! ```text
//! cargo run -p qods-bench --bin repro --release                  # everything, in parallel
//! cargo run -p qods-bench --bin repro --release -- --list       # enumerate experiments
//! cargo run -p qods-bench --bin repro --release -- quick        # smoke config
//! cargo run -p qods-bench --bin repro --release -- fig15 table9 # a selection
//! cargo run -p qods-bench --bin repro --release -- --json fig4  # machine-readable output
//! cargo run -p qods-bench --bin repro --release -- --sequential # timing baseline
//! cargo run -p qods-bench --bin repro --release -- --threads 4  # pin every pool
//! cargo run -p qods-bench --bin repro --release -- --load 40    # service load generator
//! ```
//!
//! Full runs print the paper-layout report on stdout and write
//! `results/repro.json` plus per-figure CSVs under `results/`.
//! Dispatch is entirely data-driven: every run is a
//! [`RunRequest`](qods_service::RunRequest) submitted to a
//! [`Scheduler`](qods_service::Scheduler), so adding an experiment to
//! the registry makes it addressable here with no changes to this
//! file, and `repro` exercises exactly the code path `qods-serve`
//! serves.

use qods_bench::{perf, write_json, write_record_csvs};
use qods_core::registry::Registry;
use qods_core::report::Render;
use qods_core::study::{PaperReproduction, StudyConfig};
use qods_service::{RunRequest, Scheduler};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: repro [--list] [--list-kernels] [--json] [--sequential] [--threads N]\n\
     \t     [--kernel FAMILY:WIDTH] [quick] [EXPERIMENT_ID ...]\n\
     \n\
     With no ids: runs every experiment (in parallel unless --sequential),\n\
     prints the paper-layout report, and writes results/repro.json + CSVs.\n\
     With ids: runs exactly those experiments and prints each one\n\
     (duplicate ids are rejected).\n\
     `repro --list` shows every addressable id.\n\
     `repro --lint` runs the qods-lint workspace invariant checker\n\
     against the committed lint-baseline.json and exits nonzero on\n\
     any new finding (same engine as `cargo run -p qods-lint`).\n\
     `repro --list-kernels` shows every kernel family and width bound.\n\
     `repro --kernel qcla:48` compiles one kernel through the staged\n\
     pipeline (repeatable; unknown families and invalid widths are\n\
     clean errors) and prints its characterization.\n\
     `--threads N` pins every worker pool (registry fan-out, Fig 15\n\
     sweeps, Monte-Carlo) to N threads end-to-end.\n\
     Compiled kernel artifacts persist under results/.artifacts/\n\
     (override with QODS_ARTIFACT_DIR; empty value = in-memory only),\n\
     so a second repro run in the same workspace skips lowering.\n\
     \n\
     Service load generator:\n\
     `repro --load N [--repeat F] [--load-gate R]` fires N randomized\n\
     requests (fraction F of them repeats, default 0.8) at a cold and\n\
     a warm job service and reports throughput and cache-hit rate;\n\
     with --load-gate R it exits nonzero unless warm/cold >= R.\n\
     `--connections C` (C > 1) drives the same batch over TCP instead:\n\
     C concurrent client connections against an in-process qods-net\n\
     server, reporting coalescing counters and client-side latency\n\
     percentiles alongside the throughput numbers.\n\
     \n\
     Observability:\n\
     `--trace-out FILE` (with --load) arms end-to-end request tracing,\n\
     prints a per-stage time breakdown after the run, and writes FILE\n\
     as Chrome trace-event JSON (load it at ui.perfetto.dev).\n\
     `repro --trace-verify FILE` checks that FILE is valid Chrome\n\
     trace JSON with >0 spans in every serving stage (net. / svc. /\n\
     compile. / pool.) and that every event sits on a named lane —\n\
     the CI obs-job gate over a previously written trace.\n\
     `repro --trace-overhead-gate PCT` times the same in-process batch\n\
     with tracing off and on (interleaved, best-of-3, one process, so\n\
     the comparison is machine-normalized by construction) and exits\n\
     nonzero when the traced run is more than PCT% slower.\n\
     \n\
     Perf smoke:\n\
     `repro --bench-json [montecarlo|sweep|compile|serve ...]` times\n\
     the Fig 4 Monte-Carlo panel, the Fig 15 architecture sweep, the\n\
     cold-vs-warm-disk kernel compile, and/or the concurrent TCP\n\
     serving layer (all four when no workload is named) and rewrites\n\
     the repo-root baselines BENCH_<workload>.json.\n\
     `repro --bench-check PATH` (repeatable) reruns the workload the\n\
     baseline at PATH records, at the size it records, writes\n\
     results/BENCH_<workload>.json, and exits nonzero when\n\
     machine-normalized throughput regressed more than 2x, when the\n\
     baseline is for another workload or size, or when the run breaks\n\
     a contract: zero warm-disk recompiles and a >= 1.2x disk speedup\n\
     (compile); coalesced duplicates executing exactly once and >= 3x\n\
     concurrency scaling (serve)."
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut list = false;
    let mut list_kernels = false;
    let mut kernels: Vec<String> = Vec::new();
    let mut json = false;
    let mut sequential = false;
    let mut threads: Option<usize> = None;
    let mut load: Option<usize> = None;
    let mut repeat = 0.8f64;
    let mut load_gate: Option<f64> = None;
    let mut connections = 1usize;
    let mut trace_out: Option<String> = None;
    let mut trace_verify: Option<String> = None;
    let mut trace_overhead_gate: Option<f64> = None;
    let mut lint = false;
    let mut bench_json = false;
    let mut bench_checks: Vec<String> = Vec::new();
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "quick" | "--quick" => quick = true,
            "--list" => list = true,
            "--list-kernels" => list_kernels = true,
            "--kernel" => match it.next() {
                Some(spec) => kernels.push(spec),
                None => {
                    eprintln!("--kernel needs a FAMILY:WIDTH spec\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--json" => json = true,
            "--sequential" => sequential = true,
            "--threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--load" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => load = Some(n),
                _ => {
                    eprintln!("--load needs a positive request count\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--repeat" => match it.next().and_then(|f| f.parse::<f64>().ok()) {
                Some(f) if (0.0..1.0).contains(&f) => repeat = f,
                _ => {
                    eprintln!("--repeat needs a fraction in [0, 1)\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--load-gate" => match it.next().and_then(|f| f.parse::<f64>().ok()) {
                Some(r) if r >= 1.0 => load_gate = Some(r),
                _ => {
                    eprintln!("--load-gate needs a ratio >= 1\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--connections" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => connections = n,
                _ => {
                    eprintln!("--connections needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match it.next() {
                Some(path) if !path.is_empty() => trace_out = Some(path),
                _ => {
                    eprintln!("--trace-out needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace-verify" => match it.next() {
                Some(path) if !path.is_empty() => trace_verify = Some(path),
                _ => {
                    eprintln!("--trace-verify needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace-overhead-gate" => match it.next().and_then(|f| f.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 => trace_overhead_gate = Some(pct),
                _ => {
                    eprintln!(
                        "--trace-overhead-gate needs a positive percentage\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--lint" => lint = true,
            "--bench-json" => bench_json = true,
            "--bench-check" => match it.next() {
                Some(path) => bench_checks.push(path),
                None => {
                    eprintln!("--bench-check needs a baseline path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_string()),
        }
    }

    if lint {
        return run_lint();
    }

    // Trace verification inspects a file someone else wrote; it must
    // not start pools or touch the artifact store.
    if let Some(path) = trace_verify {
        return run_trace_verify(&path);
    }
    if trace_out.is_some() && load.is_none() {
        eprintln!("--trace-out requires --load\n{}", usage());
        return ExitCode::FAILURE;
    }

    // Pin every worker pool in the process before anything runs:
    // registry fan-out, Fig 15 sweeps, and Monte-Carlo all consult
    // the same `qods_pool` policy. `--sequential` is the fully
    // single-threaded baseline unless `--threads` says otherwise.
    if let Some(n) = threads {
        qods_service::pool::set_thread_override(Some(n));
    } else if sequential {
        qods_service::pool::set_thread_override(Some(1));
    }

    // Attach the persistent artifact tier before any compilation: a
    // second repro run in the same workspace serves every kernel
    // stage from results/.artifacts/ instead of re-lowering
    // (QODS_ARTIFACT_DIR overrides the location; empty disables).
    let store = qods_core::compile::ArtifactStore::init_process(Path::new(
        qods_core::compile::DEFAULT_ARTIFACT_DIR,
    ));

    if list_kernels {
        return run_list_kernels();
    }
    if !kernels.is_empty() {
        return run_compile_kernels(&kernels, quick);
    }

    if let Some(pct) = trace_overhead_gate {
        return run_trace_overhead(pct);
    }

    if let Some(requests) = load {
        // Arm tracing before any serving-path work so the very first
        // request of the cold pass is captured; flush after the run so
        // the trace covers the whole batch.
        if trace_out.is_some() {
            qods_obs::trace::enable();
        }
        let code = run_load_generator(requests, repeat, load_gate, connections);
        if let Some(path) = trace_out {
            if let Err(flush_code) = flush_trace(&path) {
                return flush_code;
            }
        }
        return code;
    }

    if bench_json || !bench_checks.is_empty() {
        if quick {
            eprintln!(
                "`quick` has no bench size: every smoke runs its baseline's workload\n{}",
                usage()
            );
            return ExitCode::FAILURE;
        }
        // Positional ids name the baselines `--bench-json` rewrites;
        // none means all four.
        let mut regenerate = Vec::new();
        if bench_json {
            for id in &ids {
                match perf::Workload::parse(id) {
                    Some(w) => regenerate.push(w),
                    None => {
                        eprintln!("unknown bench workload `{id}`\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            if ids.is_empty() {
                regenerate = perf::Workload::ALL.to_vec();
            }
        }
        let mut code = ExitCode::SUCCESS;
        for path in &bench_checks {
            let (workload, baseline) = match perf::load_baseline(Path::new(path)) {
                Ok(loaded) => loaded,
                Err(e) => {
                    eprintln!("perf gate FAILED: {e}");
                    code = ExitCode::FAILURE;
                    continue;
                }
            };
            // A workload both checked and regenerated runs once and
            // rewrites its repo-root baseline.
            let regenerated = regenerate.contains(&workload);
            regenerate.retain(|&w| w != workload);
            if run_smoke(workload, regenerated, Some(&baseline)) == ExitCode::FAILURE {
                code = ExitCode::FAILURE;
            }
        }
        for workload in regenerate {
            if run_smoke(workload, true, None) == ExitCode::FAILURE {
                code = ExitCode::FAILURE;
            }
        }
        return code;
    }

    let registry = Registry::paper();

    if list {
        println!("{:<10} {:<22} title", "id", "aliases");
        for info in registry.list() {
            println!(
                "{:<10} {:<22} {}",
                info.id,
                info.aliases.join(", "),
                info.title
            );
        }
        return ExitCode::SUCCESS;
    }

    let config = if quick {
        StudyConfig::smoke()
    } else {
        StudyConfig::default()
    };
    // `repro` is a thin client of the job service: every run — full
    // paper or a selection — is one RunRequest through the scheduler
    // `qods-serve` uses, on the same shared worker pool.
    let workers = if sequential {
        1
    } else {
        qods_service::pool::host_threads()
    };
    let scheduler = Scheduler::with_options(config.clone(), workers, true);
    let request = RunRequest::of(ids.iter().map(String::as_str));

    if ids.is_empty() {
        let result = scheduler.run(&request).expect("the full registry resolves");
        // The compat struct records the *requested* configuration, not
        // the resolved one: the scheduler rewrites `threads` to the
        // host's worker count, and embedding that would make
        // results/repro.json vary across machines even though every
        // experiment output is bit-identical at any pool size.
        let out = PaperReproduction::from_records(config, &result.records);
        if json {
            println!("{}", serde_json::to_string_pretty(&out).expect("serialize"));
        } else {
            println!("{}", out.render());
        }
        let results = Path::new("results");
        write_json(&results.join("repro.json"), &out).expect("write results/repro.json");
        write_json(&results.join("experiments.json"), &result.records)
            .expect("write results/experiments.json");
        write_record_csvs(results, &result.records).expect("write figure CSVs");
        let cpu: f64 = result.records.iter().map(|r| r.seconds).sum();
        eprintln!(
            "ran {} experiments ({}, {} workers) in {:.2?} wall / {:.2?} summed; wrote results/",
            result.records.len(),
            if sequential { "sequential" } else { "parallel" },
            scheduler.threads(),
            std::time::Duration::from_secs_f64(result.seconds),
            std::time::Duration::from_secs_f64(cpu),
        );
        let st = store.stats();
        eprintln!(
            "compile stages: {} computed, {} mem hits, {} disk hits, {} corrupt",
            st.computed, st.mem_hits, st.disk_hits, st.corrupt_reads
        );
        return ExitCode::SUCCESS;
    }

    // Single-experiment mode: resolve every id through the service —
    // no per-experiment dispatch lives here.
    match scheduler.run(&request) {
        Ok(result) => {
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&result.records).expect("serialize")
                );
            } else {
                for r in &result.records {
                    print!("{}", r.output.render());
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// `repro --lint`: the qods-lint workspace invariant checker against
/// the committed baseline — the same run the CI lint job performs.
fn run_lint() -> ExitCode {
    let cwd = Path::new(".");
    let root = if cwd.join("crates").is_dir() {
        cwd.to_path_buf()
    } else {
        // Not launched from the workspace root (e.g. a bare binary):
        // fall back to the source tree this build came from.
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    };
    let baseline_path = root.join("lint-baseline.json");
    let base = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match qods_lint::baseline::Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("repro --lint: {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(_) => qods_lint::baseline::Baseline::empty(),
    };
    let tables = qods_lint::Tables::workspace();
    match qods_lint::run(&root, &tables, &base) {
        Ok(outcome) => {
            print!("{}", qods_lint::render_human(&outcome));
            if outcome.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("repro --lint: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro --list-kernels`: every kernel family the pipeline compiles.
fn run_list_kernels() -> ExitCode {
    use qods_core::kernels::{KernelFamily, MAX_WIDTH};
    println!(
        "{:<10} {:>12} {:>6} widths   description",
        "family", "qubits(n=32)", "synth"
    );
    for family in KernelFamily::ALL {
        println!(
            "{:<10} {:>12} {:>6} 1..={:<4} {}",
            family.name(),
            family.n_qubits(32),
            if family.uses_synthesis() { "yes" } else { "no" },
            MAX_WIDTH,
            family.title(),
        );
    }
    println!("\ncompile one with `repro --kernel FAMILY:WIDTH` (e.g. --kernel qcla:48)");
    ExitCode::SUCCESS
}

/// `repro --kernel FAMILY:WIDTH ...`: compiles each spec through the
/// staged pipeline (and the persistent artifact store) and prints its
/// characterization. Bad specs are typed errors, never panics.
fn run_compile_kernels(specs: &[String], quick: bool) -> ExitCode {
    use qods_core::compile::{ArtifactStore, Compiler, SynthBudget};
    use qods_core::kernels::KernelSpec;

    let mut parsed = Vec::with_capacity(specs.len());
    for raw in specs {
        match KernelSpec::parse(raw) {
            Ok(spec) => parsed.push(spec),
            Err(e) => {
                eprintln!("{e}\n(see `repro --list-kernels`)");
                return ExitCode::FAILURE;
            }
        }
    }
    let config = if quick {
        StudyConfig::smoke()
    } else {
        StudyConfig::default()
    };
    let compiler = Compiler::new(
        ArtifactStore::process(),
        SynthBudget {
            max_t: config.synth_max_t,
            target_distance: config.synth_target,
        },
    );
    let compiled = compiler
        .compile_many(&parsed, qods_service::pool::pool_threads(parsed.len()))
        .expect("specs validated above");
    for k in &compiled {
        let r = &k.characterization.report;
        println!(
            "{:<12} {:>4} qubits {:>7} gates  depth {:>6}  T-frac {:.3}  \
             {:.3e} us @ speed of data  zeros {:.1}/ms  pi/8 {:.1}/ms",
            k.spec.to_string(),
            r.n_qubits,
            r.gate_count,
            k.scheduled.depth,
            r.non_transversal_fraction,
            k.characterization.makespan_us,
            r.bandwidth.zero_per_ms,
            r.bandwidth.pi8_per_ms,
        );
    }
    let st = compiler.store().stats();
    eprintln!(
        "compile stages: {} computed, {} mem hits, {} disk hits ({})",
        st.computed,
        st.mem_hits,
        st.disk_hits,
        compiler
            .store()
            .dir()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "in-memory".to_string()),
    );
    ExitCode::SUCCESS
}

/// Drains the process tracer, prints the per-stage time breakdown,
/// and writes the Chrome trace-event file `--trace-out` asked for.
/// Runs after the load generator regardless of its outcome (a failed
/// run's trace is exactly the one worth looking at); only a write
/// failure turns into an error of its own.
fn flush_trace(path: &str) -> Result<(), ExitCode> {
    use qods_obs::export;

    let tracer = qods_obs::trace::tracer();
    let events = tracer.drain();
    let dropped = tracer.dropped();
    println!(
        "\nper-stage time breakdown ({} spans, {dropped} dropped):",
        events.len()
    );
    for (site, agg) in export::stage_breakdown(&events) {
        println!(
            "  {site:<24} {:>6} x  total {:>10.3} ms  max {:>9.3} ms",
            agg.count,
            agg.total_ns as f64 / 1e6,
            agg.max_ns as f64 / 1e6,
        );
    }
    match std::fs::write(path, export::to_chrome(&events)) {
        Ok(()) => {
            println!("wrote Chrome trace to {path} (load it at ui.perfetto.dev)");
            Ok(())
        }
        Err(e) => {
            eprintln!("failed to write trace to {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `repro --trace-verify FILE`: the CI check over a trace written by
/// `--trace-out`. The file must parse as Chrome trace-event JSON,
/// contain at least one complete (`X`) span in every serving stage,
/// and reference only lanes that carry a `thread_name` metadata
/// record — the properties the Perfetto UI needs to render a useful
/// timeline.
fn run_trace_verify(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace verify: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match qods_obs::export::parse_chrome(&text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("trace verify: {path} is not Chrome trace JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for stage in ["net.", "svc.", "compile.", "pool."] {
        let n = events
            .iter()
            .filter(|e| e.ph == "X" && e.name.starts_with(stage))
            .count();
        println!("  {stage:<9} {n} spans");
        if n == 0 {
            eprintln!("trace verify FAILED: no `{stage}*` spans in {path}");
            failed = true;
        }
    }
    let named_lanes: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.ph == "M")
        .map(|e| e.tid)
        .collect();
    if let Some(orphan) = events
        .iter()
        .find(|e| e.ph != "M" && !named_lanes.contains(&e.tid))
    {
        eprintln!(
            "trace verify FAILED: event `{}` sits on unnamed lane {}",
            orphan.name, orphan.tid
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("trace verify OK: {path} ({} events)", events.len());
        ExitCode::SUCCESS
    }
}

/// `repro --trace-overhead-gate PCT`: the CI bound on what tracing
/// costs the serving path. Times the same in-process batch with
/// tracing disabled and enabled — interleaved passes, best-of-3 per
/// mode, one process — so the comparison normalizes the machine away
/// like the bench-check gates do, and fails when the traced run is
/// more than PCT% slower than the untraced one.
fn run_trace_overhead(max_pct: f64) -> ExitCode {
    use qods_service::Overrides;

    let batch: Vec<RunRequest> = (0..12)
        .map(|i| {
            RunRequest::of(["fig4"]).with_overrides(Overrides {
                n_bits: Some(6 + (i % 3)),
                mc_trials: Some(50_000),
                seed: Some(7_000 + i as u64),
                ..Overrides::default()
            })
        })
        .collect();
    // Caching stays off: every pass performs the same real compute,
    // so the span-recording cost is measured against a stable
    // denominator instead of a cache-hit no-op.
    let scheduler = Scheduler::with_options(
        StudyConfig::smoke(),
        qods_service::pool::host_threads(),
        false,
    );
    let run_batch = |label: &str| -> Result<f64, ExitCode> {
        let t0 = std::time::Instant::now();
        for (i, outcome) in scheduler.run_batch(&batch).into_iter().enumerate() {
            if let Err(e) = outcome {
                eprintln!("overhead-gate request {i} ({label}) rejected: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    };

    // One untimed pass warms the artifact store and the worker pools.
    if let Err(code) = run_batch("warmup") {
        return code;
    }
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut spans_recorded = 0usize;
    for _round in 0..3 {
        qods_obs::trace::disable();
        match run_batch("untraced") {
            Ok(s) => best_off = best_off.min(s),
            Err(code) => return code,
        }
        qods_obs::trace::enable();
        let traced = run_batch("traced");
        // Drain between passes so the bounded span buffer never
        // fills: a full buffer drops spans instead of blocking, which
        // would understate the very overhead being measured.
        spans_recorded += qods_obs::trace::tracer().drain().len();
        qods_obs::trace::disable();
        match traced {
            Ok(s) => best_on = best_on.min(s),
            Err(code) => return code,
        }
    }
    if spans_recorded == 0 {
        eprintln!("tracing overhead gate FAILED: traced passes recorded no spans");
        return ExitCode::FAILURE;
    }
    let overhead_pct = 100.0 * (best_on / best_off - 1.0);
    println!(
        "tracing overhead: untraced {best_off:.3}s, traced {best_on:.3}s \
         ({spans_recorded} spans, {overhead_pct:+.1}% overhead)"
    );
    if overhead_pct > max_pct {
        eprintln!("tracing overhead gate FAILED: {overhead_pct:.1}% > allowed {max_pct:.1}%");
        ExitCode::FAILURE
    } else {
        println!("tracing overhead gate OK: {overhead_pct:+.1}% <= {max_pct:.1}%");
        ExitCode::SUCCESS
    }
}

/// The service load generator (`repro --load N`): fires a batch of
/// randomized-override requests — a `repeat` fraction of them reusing
/// earlier configurations — at a cold service (caching off: every
/// request recomputes) and a warm one (the content-addressed cache),
/// and reports throughput, speedup, cache-hit rate, and how many
/// benchmark lowerings each service actually performed. With
/// `--connections C > 1` the same batch is served over TCP by an
/// in-process `qods-net` server instead, split round-robin across C
/// concurrent client connections, adding coalescing counters and
/// client-side latency percentiles to the report.
fn run_load_generator(
    requests: usize,
    repeat: f64,
    gate: Option<f64>,
    connections: usize,
) -> ExitCode {
    use qods_service::Overrides;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Smoke-sized work: the generator measures the service layer, not
    // the engines, so each distinct config stays milliseconds-cheap.
    let base = StudyConfig::smoke();
    let unique = ((requests as f64) * (1.0 - repeat)).round().max(1.0) as usize;
    let unique = unique.min(requests);
    let variant = |i: usize| Overrides {
        n_bits: Some(6 + (i % 3)),
        mc_trials: Some(1_000 + 500 * (i % 2) as u64),
        noise_scale: Some(8.0 + (i % 4) as f64),
        seed: Some(9_000 + i as u64),
        synth_max_t: Some(8),
        sweep_points: Some(5),
        profile_samples: Some(32),
        ..Overrides::default()
    };

    let all_ids: Vec<&'static str> = Registry::paper().list().iter().map(|e| e.id).collect();
    let mut rng = StdRng::seed_from_u64(0x10ad);
    let mut batch: Vec<RunRequest> = Vec::with_capacity(requests);
    for i in 0..requests {
        // The first `unique` requests introduce fresh configurations;
        // the rest repeat a random earlier one (with a possibly
        // different experiment selection, which the context cache
        // still serves from one lowering).
        let config_index = if i < unique {
            i
        } else {
            rng.gen_range(0..unique)
        };
        let count = rng.gen_range(3..7).min(all_ids.len());
        let mut selected: Vec<String> = Vec::with_capacity(count);
        while selected.len() < count {
            let id = all_ids[rng.gen_range(0..all_ids.len())];
            if !selected.iter().any(|s| s == id) {
                selected.push(id.to_string());
            }
        }
        batch.push(RunRequest::of(selected).with_overrides(variant(config_index)));
    }

    if connections > 1 {
        return run_load_over_tcp(&batch, unique, connections, gate);
    }

    let time_batch = |scheduler: &Scheduler| -> Result<f64, ExitCode> {
        let t0 = std::time::Instant::now();
        for (i, outcome) in scheduler.run_batch(&batch).into_iter().enumerate() {
            if let Err(e) = outcome {
                eprintln!("load request {i} rejected: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    };

    println!(
        "load generator: {requests} requests, {unique} distinct configs \
         ({:.0}% repeats), {} worker threads",
        100.0 * (1.0 - unique as f64 / requests as f64),
        qods_service::pool::host_threads(),
    );
    // Cold service: no cache — every request recomputes from scratch,
    // the way the old one-shot `Registry::run_*` API had to.
    let cold = Scheduler::with_options(base.clone(), qods_service::pool::host_threads(), false);
    let cold_s = match time_batch(&cold) {
        Ok(s) => s,
        Err(code) => return code,
    };
    println!(
        "  cold service:    {cold_s:.3}s  ({:.1} req/s, {} lowerings, 0% cache hits)",
        requests as f64 / cold_s,
        cold.pool().stats().context_misses,
    );
    // Warm service: same batch through the content-addressed cache.
    // The first pass fills the cache (it still computes each of the
    // `unique` configurations once); the second pass is the
    // steady-state throughput a long-running service sustains on
    // repeat-heavy traffic.
    let warm = Scheduler::with_options(base, qods_service::pool::host_threads(), true);
    let fill_s = match time_batch(&warm) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let fill_stats = warm.pool().stats();
    println!(
        "  warm, 1st pass:  {fill_s:.3}s  ({:.1} req/s, {} lowerings, \
         {:.0}% context hits, {:.0}% output hits)",
        requests as f64 / fill_s,
        warm.pool().total_lowering_runs(),
        100.0 * fill_stats.context_hits as f64
            / (fill_stats.context_hits + fill_stats.context_misses) as f64,
        100.0 * fill_stats.output_hit_rate(),
    );
    let warm_s = match time_batch(&warm) {
        Ok(s) => s,
        Err(code) => return code,
    };
    println!(
        "  warm, steady:    {warm_s:.3}s  ({:.1} req/s, {} lowerings total)",
        requests as f64 / warm_s,
        warm.pool().total_lowering_runs(),
    );
    let first_ratio = cold_s / fill_s;
    let ratio = cold_s / warm_s;
    println!("  speedup: {first_ratio:.1}x cache-filling, {ratio:.1}x steady-state (vs cold)");
    match gate {
        Some(need) if ratio < need => {
            eprintln!("load gate FAILED: {ratio:.2}x < required {need:.2}x");
            ExitCode::FAILURE
        }
        Some(need) => {
            println!("load gate OK: {ratio:.2}x >= {need:.2}x");
            ExitCode::SUCCESS
        }
        None => ExitCode::SUCCESS,
    }
}

/// The TCP arm of the load generator: the cold/warm passes of
/// [`run_load_generator`], but every request travels a real socket
/// through the `qods-net` server — so the numbers include framing,
/// admission, and in-flight coalescing, which the in-process arm
/// cannot exercise.
fn run_load_over_tcp(
    batch: &[RunRequest],
    unique: usize,
    connections: usize,
    gate: Option<f64>,
) -> ExitCode {
    use qods_net::{Client, StatsLine};
    use qods_service::LatencyHistogram;
    use std::net::SocketAddr;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    let requests = batch.len();
    let lines: Arc<Vec<String>> = Arc::new(batch.iter().map(qods_net::protocol::render).collect());

    let start = |caching: bool| {
        perf::loopback_server(qods_service::pool::host_threads(), caching, connections)
    };

    // One timed pass: the batch split round-robin across the client
    // connections, each roundtrip recorded into the shared histogram.
    // Transient failures (overloaded sheds, resets) are retried with
    // backoff; the retry count is the robustness counter reported
    // below.
    let retries = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let one_pass = |addr: SocketAddr, latency: &Arc<LatencyHistogram>| -> Result<f64, ExitCode> {
        let t0 = std::time::Instant::now();
        let workers: Vec<JoinHandle<Result<(), String>>> = (0..connections)
            .map(|c| {
                let lines = Arc::clone(&lines);
                let latency = Arc::clone(latency);
                let retries = Arc::clone(&retries);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    for line in lines.iter().skip(c).step_by(connections) {
                        let t = std::time::Instant::now();
                        let response = client
                            .roundtrip_retrying(line)
                            .map_err(|e| e.to_string())?
                            .ok_or_else(|| "server closed the connection".to_string())?;
                        latency.record(t.elapsed());
                        if !response.contains("\"event\":\"result\"") {
                            return Err(format!("request rejected: {response}"));
                        }
                    }
                    retries.fetch_add(client.retries(), std::sync::atomic::Ordering::Relaxed);
                    Ok(())
                })
            })
            .collect();
        let mut failed = false;
        for w in workers {
            if let Err(e) = w.join().expect("load client thread") {
                eprintln!("load client failed: {e}");
                failed = true;
            }
        }
        if failed {
            return Err(ExitCode::FAILURE);
        }
        Ok(t0.elapsed().as_secs_f64())
    };

    // A fresh probe connection per stats read; the counters must not
    // include the probe's own traffic beyond its connection.
    let read_stats = |addr: SocketAddr| -> StatsLine {
        let mut probe = Client::connect(addr).expect("connect stats probe");
        probe.stats().expect("stats verb answers")
    };
    let stop = |addr: SocketAddr, server: JoinHandle<()>| {
        Client::connect(addr)
            .expect("connect for shutdown")
            .shutdown()
            .expect("shutdown acknowledged");
        server.join().expect("load server exits");
    };

    println!(
        "load generator: {requests} requests over TCP, {unique} distinct configs \
         ({:.0}% repeats), {connections} connections, {} worker threads",
        100.0 * (1.0 - unique as f64 / requests as f64),
        qods_service::pool::host_threads(),
    );

    let latency = Arc::new(LatencyHistogram::new());

    // Cold service: no cache, so only *in-flight* coalescing can save
    // a duplicate — exactly the serving layer's contribution.
    let (addr, server) = start(false);
    let cold_s = match one_pass(addr, &latency) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let cold_stats = read_stats(addr);
    stop(addr, server);
    println!(
        "  cold service:    {cold_s:.3}s  ({:.1} req/s, {} executed, {} coalesced in flight)",
        requests as f64 / cold_s,
        cold_stats.executed,
        cold_stats.coalesced,
    );

    // Warm service: fill pass, then the steady-state pass a
    // long-running server sustains on repeat-heavy traffic.
    let (addr, server) = start(true);
    let fill_s = match one_pass(addr, &latency) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let fill_stats = read_stats(addr);
    println!(
        "  warm, 1st pass:  {fill_s:.3}s  ({:.1} req/s, {} executed, {} coalesced, \
         {:.0}% context hits)",
        requests as f64 / fill_s,
        fill_stats.executed,
        fill_stats.coalesced,
        100.0 * fill_stats.context_hits as f64
            / (fill_stats.context_hits + fill_stats.context_misses).max(1) as f64,
    );
    let warm_s = match one_pass(addr, &latency) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let warm_stats = read_stats(addr);
    stop(addr, server);
    println!(
        "  warm, steady:    {warm_s:.3}s  ({:.1} req/s)",
        requests as f64 / warm_s,
    );

    let summary = latency.summary();
    println!(
        "  latency over {} roundtrips: p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
        summary.count,
        summary.p50_us / 1e3,
        summary.p99_us / 1e3,
        summary.max_us / 1e3,
    );
    println!(
        "  robustness: {} panics caught, {} deadlines exceeded, {} client retries, \
         {} lines rejected",
        cold_stats.robustness.panics_caught + warm_stats.robustness.panics_caught,
        cold_stats.robustness.deadline_exceeded + warm_stats.robustness.deadline_exceeded,
        retries.load(std::sync::atomic::Ordering::Relaxed),
        cold_stats.robustness.lines_rejected + warm_stats.robustness.lines_rejected,
    );
    let first_ratio = cold_s / fill_s;
    let ratio = cold_s / warm_s;
    println!("  speedup: {first_ratio:.1}x cache-filling, {ratio:.1}x steady-state (vs cold)");
    match gate {
        Some(need) if ratio < need => {
            eprintln!("load gate FAILED: {ratio:.2}x < required {need:.2}x");
            ExitCode::FAILURE
        }
        Some(need) => {
            println!("load gate OK: {ratio:.2}x >= {need:.2}x");
            ExitCode::SUCCESS
        }
        None => ExitCode::SUCCESS,
    }
}

/// The perf-smoke runner behind `--bench-json` and `--bench-check`:
/// runs `workload`, prints its report, writes it to the repo-root
/// baseline (`regenerate`) or under results/, and gates it against
/// `baseline` when one is given.
fn run_smoke(
    workload: perf::Workload,
    regenerate: bool,
    baseline: Option<&perf::BenchReport>,
) -> ExitCode {
    let report = workload.run();
    print!("{}", perf::render(&report));
    let file = format!("BENCH_{}.json", workload.name());
    let out = if regenerate {
        PathBuf::from(file)
    } else {
        Path::new("results").join(file)
    };
    if let Err(e) = write_json(&out, &report) {
        eprintln!("failed to write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", out.display());
    let Some(baseline) = baseline else {
        return ExitCode::SUCCESS;
    };
    match perf::check(&report, baseline) {
        Ok(verdict) => {
            println!("perf gate OK: {verdict}");
            ExitCode::SUCCESS
        }
        Err(verdict) => {
            eprintln!("perf gate FAILED: {verdict}");
            ExitCode::FAILURE
        }
    }
}
