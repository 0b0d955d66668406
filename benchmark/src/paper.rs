//! Workload `paper`: full regenerations of every registry experiment
//! at the paper configuration, as a `repro` user runs them.
//!
//! Warm op: a fresh `StudyContext` over a fresh persistent store on an
//! artifact directory that set-up filled, so compilation only reads
//! from disk. Cold op: the same over an empty directory, so the
//! regeneration compiles and writes every artifact first. The classes
//! interleave three warm to one cold, so host drift hits both alike.

use crate::harness::{clear_dir, config, derive, digest, Budget, Cx, Outcome};
use crate::trace::Tracer;
use qods_compile::{ArtifactStore, StoreStats};
use qods_core::experiment::ExperimentRecord;
use qods_core::{Registry, StudyContext};
use qods_phys::error_model::ErrorModel;
use qods_steane::eval::evaluate_prep;
use qods_steane::prep::PrepStrategy;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seeds per run; ops cycle through them.
const SEED_CYCLE: u64 = 3;
/// One cold op after every `COLD_EVERY - 1` warm ops.
const COLD_EVERY: u64 = 4;
/// Metric-name suffixes of the four Fig 4 preparation strategies.
pub const PREP_NAMES: [&str; 4] = ["basic", "verify", "correct", "verify_correct"];

/// The op class of the `i`-th op.
pub fn is_warm(i: u64) -> bool {
    i % COLD_EVERY != COLD_EVERY - 1
}

/// The study seeds one run cycles through.
pub fn seeds(seed: u64) -> Vec<u64> {
    (0..SEED_CYCLE).map(|i| derive(seed, "paper", i)).collect()
}

struct State {
    root: PathBuf,
    warm_dir: PathBuf,
    seeds: Vec<u64>,
    /// Reference digests, one per seed, from an in-memory store.
    refs: Vec<u64>,
}

/// One regeneration over a fresh store on `dir`.
fn regenerate(
    tr: &Tracer,
    registry: &Registry,
    warm: bool,
    dir: &Path,
    seed: u64,
) -> (Result<Vec<ExperimentRecord>, String>, StoreStats, f64) {
    let op = tr.open(
        "paper.regen",
        || (if warm { "warm" } else { "cold" }).to_string(),
        0,
        0,
    );
    let (ctx, _) = tr.time("core.context", String::new, op.id, || {
        StudyContext::with_store(config(seed), Arc::new(ArtifactStore::persistent(dir)))
    });
    tr.time("compile.load", String::new, op.id, || {
        ctx.characterizations().len()
    });
    let records: Result<Vec<ExperimentRecord>, String> = registry
        .iter()
        .map(|exp| {
            let id = exp.id();
            tr.time(
                "core.run_one",
                || id.to_string(),
                op.id,
                || registry.run_one(id, &ctx),
            )
            .0
            .map_err(|e| e.to_string())
        })
        .collect();
    let ms = tr.close(op);
    (records, ctx.compiler().store().stats(), ms)
}

fn check(
    records: Result<Vec<ExperimentRecord>, String>,
    stats: StoreStats,
    warm: bool,
    reference: u64,
) -> Result<(), String> {
    let records = records?;
    if digest(&records) != reference {
        return Err("paper: records differ from the reference for this seed".to_string());
    }
    if warm && stats.computed != 0 {
        return Err(format!(
            "paper: warm op recomputed {} artifacts",
            stats.computed
        ));
    }
    if !warm && stats.computed == 0 {
        return Err("paper: cold op computed nothing".to_string());
    }
    Ok(())
}

fn set_up(cx: &Cx, registry: &Registry, rep: usize) -> Result<State, String> {
    let root = cx.work.join(format!("paper-{rep}"));
    clear_dir(&root)?;
    let warm_dir = root.join("warm");
    let seeds = seeds(cx.seed);
    let fill = StudyContext::with_store(
        config(seeds[0]),
        Arc::new(ArtifactStore::persistent(&warm_dir)),
    );
    fill.characterizations();
    registry
        .run_one("widthsweep", &fill)
        .map_err(|e| e.to_string())?;
    if fill.compiler().store().stats().write_errors != 0 {
        return Err("paper: set-up could not write the warm artifact directory".to_string());
    }
    let refs = seeds
        .iter()
        .map(|&s| {
            let ctx = StudyContext::with_store(config(s), Arc::new(ArtifactStore::in_memory()));
            digest(&registry.run_all_sequential(&ctx))
        })
        .collect();
    Ok(State {
        root,
        warm_dir,
        seeds,
        refs,
    })
}

/// Runs ops `first..` of the schedule until `budget` says stop.
fn run_ops(
    tr: &Tracer,
    registry: &Registry,
    st: &State,
    first: u64,
    budget: Budget,
    out: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    let mut i = first;
    while budget.keep_going(start, i - first, out.warm_ms.len(), out.cold_ms.len()) {
        let warm = is_warm(i);
        let k = (i % st.seeds.len() as u64) as usize;
        let dir = if warm {
            st.warm_dir.clone()
        } else {
            st.root.join(format!("cold-{i}"))
        };
        let (records, stats, ms) = regenerate(tr, registry, warm, &dir, st.seeds[k]);
        out.record(warm, ms, check(records, stats, warm, st.refs[k]));
        if !warm {
            clear_dir(&dir)?;
        }
        i += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(())
}

/// Times each Fig 4 preparation strategy through `evaluate_prep` at
/// the paper's trial count, one thread.
fn prep_probes(cx: &Cx) {
    let cfg = config(derive(cx.seed, "prep", 0));
    let model = ErrorModel::paper().scaled(cfg.noise_scale);
    for (strategy, name) in PrepStrategy::ALL.into_iter().zip(PREP_NAMES) {
        let (eval, _) = cx.tracer.time(
            "steane.evaluate_prep",
            || name.to_string(),
            0,
            || evaluate_prep(strategy, model, cfg.mc_trials, cfg.seed, 1),
        );
        cx.counts.add("steane.trials", eval.stats.trials as f64);
        cx.counts.add("steane.accepted", eval.stats.accepted as f64);
    }
}

/// The workload: `reps` set-ups (each with a warm-up of one op per
/// class, untraced), then the loop under `budget`.
pub fn run(cx: &Cx, budget: Budget, reps: usize) -> Result<Outcome, String> {
    let registry = Registry::paper();
    let mut out = Outcome::default();
    let mut state: Option<State> = None;
    for rep in 0..reps {
        let t = Instant::now();
        let st = set_up(cx, &registry, rep)?;
        let mut warmup = Outcome::default();
        run_ops(
            &Tracer::new(false),
            &registry,
            &st,
            COLD_EVERY - 2,
            Budget::Ops(2),
            &mut warmup,
        )?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.failures.extend(warmup.failures);
        if let Some(old) = state.replace(st) {
            clear_dir(&old.root)?;
        }
    }
    let st = state.ok_or("paper: no set-up ran")?;
    run_ops(cx.tracer, &registry, &st, 0, budget, &mut out)?;
    if cx.tracer.recording() {
        prep_probes(cx);
    }
    clear_dir(&st.root)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_interleaves_three_warm_to_one_cold() {
        let classes: Vec<bool> = (0..8).map(is_warm).collect();
        assert_eq!(classes, [true, true, true, false, true, true, true, false]);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(seeds(11), seeds(11));
        assert_ne!(seeds(11), seeds(12));
    }
}
