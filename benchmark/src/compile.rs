//! Workload `compile`: cold compiles into an empty artifact directory,
//! each followed by a reload of the same request through a fresh store
//! over that directory.
//!
//! The request is the width sweep plus Tables 2 and 3: every kernel
//! family at every width of the default ladder, which includes the
//! three 32-bit paper circuits. The cold op drives the pipeline stage
//! by stage (`Compiler::ir`, then `scheduled`, then `characterization`
//! for every spec) and then runs the three experiments, which find
//! every artifact in memory. The reload runs the experiments alone and
//! must read everything back from disk.

use crate::harness::{clear_dir, config, digest, Budget, Cx, Outcome};
use crate::trace::Tracer;
use qods_compile::{ArtifactStore, StoreStats};
use qods_core::experiment::ExperimentRecord;
use qods_core::{Registry, StudyConfig, StudyContext};
use qods_kernels::{KernelFamily, KernelSpec};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The experiments one request asks for.
pub const EXPERIMENTS: [&str; 3] = ["widthsweep", "table2", "table3"];
/// Pipeline stages, in order.
pub const STAGES: [&str; 3] = ["ir", "sched", "char"];

/// Every family at every width of the sweep, family by family. The
/// order is fixed: QFT and Draper share rotation syntheses through
/// the compiler's synthesis cache, so the order decides which family
/// pays for them, and a seed-dependent order would move cost between
/// the per-family figures from one seed to the next.
pub fn specs() -> Vec<KernelSpec> {
    KernelFamily::ALL
        .iter()
        .flat_map(|&family| {
            StudyConfig::default()
                .width_sweep
                .into_iter()
                .map(move |width| KernelSpec { family, width })
        })
        .collect()
}

fn experiments(
    tr: &Tracer,
    registry: &Registry,
    ctx: &StudyContext,
    parent: u64,
) -> Result<Vec<ExperimentRecord>, String> {
    EXPERIMENTS
        .iter()
        .map(|&id| {
            tr.time(
                "core.run_one",
                || id.to_string(),
                parent,
                || registry.run_one(id, ctx),
            )
            .0
            .map_err(|e| e.to_string())
        })
        .collect()
}

fn fresh_context(tr: &Tracer, seed: u64, dir: &Path, parent: u64) -> StudyContext {
    tr.time("core.context", String::new, parent, || {
        StudyContext::with_store(config(seed), Arc::new(ArtifactStore::persistent(dir)))
    })
    .0
}

/// One cold compile into `dir`, stage by stage.
fn cold(
    tr: &Tracer,
    registry: &Registry,
    specs: &[KernelSpec],
    seed: u64,
    dir: &Path,
) -> (Result<Vec<ExperimentRecord>, String>, StoreStats, f64) {
    let op = tr.open("compile.cold", String::new, 0, 0);
    let ctx = fresh_context(tr, seed, dir, op.id);
    let compiler = ctx.compiler();
    let mut stages: Result<(), String> = Ok(());
    for stage in STAGES {
        for &spec in specs {
            let (done, _) = tr.time(
                "compile.stage",
                || format!("{stage}/{}", spec.family.name()),
                op.id,
                || match stage {
                    "ir" => compiler.ir(spec).map(drop),
                    "sched" => compiler.scheduled(spec).map(drop),
                    _ => compiler.characterization(spec).map(drop),
                },
            );
            if let Err(e) = done {
                stages = Err(format!("compile: {spec}: {e}"));
            }
        }
    }
    let records = stages.and_then(|()| experiments(tr, registry, &ctx, op.id));
    let ms = tr.close(op);
    (records, compiler.store().stats(), ms)
}

/// The same request through a fresh store over the filled `dir`.
fn reload(
    tr: &Tracer,
    registry: &Registry,
    seed: u64,
    dir: &Path,
) -> (Result<Vec<ExperimentRecord>, String>, StoreStats, f64) {
    let op = tr.open("compile.reload", String::new, 0, 0);
    let ctx = fresh_context(tr, seed, dir, op.id);
    let records = experiments(tr, registry, &ctx, op.id);
    let ms = tr.close(op);
    (records, ctx.compiler().store().stats(), ms)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

struct State {
    root: std::path::PathBuf,
    specs: Vec<KernelSpec>,
    reference: u64,
}

fn set_up(cx: &Cx, registry: &Registry, rep: usize) -> Result<State, String> {
    let root = cx.work.join(format!("compile-{rep}"));
    clear_dir(&root)?;
    let ctx = StudyContext::with_store(config(cx.seed), Arc::new(ArtifactStore::in_memory()));
    let records = EXPERIMENTS
        .iter()
        .map(|&id| registry.run_one(id, &ctx).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(State {
        root,
        specs: specs(),
        reference: digest(&records),
    })
}

/// Runs cold/reload pairs `first..` until `budget` says stop.
fn run_pairs(
    cx: &Cx,
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
        let dir = st.root.join(format!("cold-{i}"));
        let (cold_records, cold_stats, cold_ms) = cold(tr, registry, &st.specs, cx.seed, &dir);
        let bytes = dir_bytes(&dir);
        let (warm_records, warm_stats, warm_ms) = reload(tr, registry, cx.seed, &dir);
        let cold_check = cold_records.and_then(|records| {
            if digest(&records) != st.reference {
                return Err("compile: cold records differ from the in-memory reference".to_string());
            }
            if cold_stats.computed == 0 || cold_stats.write_errors != 0 {
                return Err(format!(
                    "compile: cold op computed {} and failed {} writes",
                    cold_stats.computed, cold_stats.write_errors
                ));
            }
            Ok(digest(&records))
        });
        let warm_check = match (&cold_check, warm_records) {
            (_, Err(e)) => Err(e),
            (Err(_), Ok(_)) => Err("compile: reload not checked, its cold op failed".to_string()),
            (Ok(cold_digest), Ok(records)) if digest(&records) != *cold_digest => {
                Err("compile: reload records differ from the cold records".to_string())
            }
            (Ok(_), Ok(_)) if warm_stats.computed != 0 => Err(format!(
                "compile: reload recomputed {} artifacts",
                warm_stats.computed
            )),
            _ => Ok(()),
        };
        out.op(cold_check.is_ok() && warm_check.is_ok());
        out.sample(false, cold_ms, cold_check.map(drop));
        out.sample(true, warm_ms, warm_check);
        cx.counts
            .set("compile.computed", cold_stats.computed as f64);
        cx.counts
            .set("compile.mem_hits", cold_stats.mem_hits as f64);
        cx.counts
            .set("compile.disk_hits", warm_stats.disk_hits as f64);
        cx.counts.set("compile.bytes_written", bytes as f64);
        cx.counts.add(
            "compile.corrupt_reads",
            (cold_stats.corrupt_reads + warm_stats.corrupt_reads) as f64,
        );
        cx.counts.add(
            "compile.write_errors",
            (cold_stats.write_errors + warm_stats.write_errors) as f64,
        );
        clear_dir(&dir)?;
        i += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(())
}

/// The workload: `reps` set-ups (reference plus one untraced warm-up
/// pair each), then the loop under `budget`.
pub fn run(cx: &Cx, budget: Budget, reps: usize) -> Result<Outcome, String> {
    let registry = Registry::paper();
    let mut out = Outcome::default();
    let mut state: Option<State> = None;
    for rep in 0..reps {
        let t = Instant::now();
        let st = set_up(cx, &registry, rep)?;
        let mut warmup = Outcome::default();
        run_pairs(
            cx,
            &Tracer::new(false),
            &registry,
            &st,
            0,
            Budget::Ops(1),
            &mut warmup,
        )?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.failures.extend(warmup.failures);
        if let Some(old) = state.replace(st) {
            clear_dir(&old.root)?;
        }
    }
    let st = state.ok_or("compile: no set-up ran")?;
    run_pairs(cx, cx.tracer, &registry, &st, 1, budget, &mut out)?;
    clear_dir(&st.root)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_every_family_and_width_including_the_paper_circuits() {
        let all = specs();
        assert_eq!(
            all.len(),
            KernelFamily::ALL.len() * StudyConfig::default().width_sweep.len()
        );
        for paper in qods_compile::paper_specs(32) {
            assert!(all.contains(&paper), "{paper} missing");
        }
    }
}
