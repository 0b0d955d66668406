//! Guards on the fault-free fast-forward of the Fig 4 evaluation:
//!
//! * the span contract — one clean trial of every strategy consumes
//!   exactly its op census in sampler ops and draws nothing else;
//! * differential equality — [`evaluate_prep`] and [`evaluate_all`]
//!   (which fast-forward) match a plain run of every trial, at any
//!   thread count, sampling mode, noise scale and seed;
//! * a deterministic work guard — at the paper's rates fewer than 5%
//!   of trials reach the trial closure, so a lost fast path fails here
//!   without timing anything.

use qods_phys::error_model::{ErrorModel, FaultSampling};
use qods_phys::montecarlo::{
    run_trials_multi, MonteCarloStats, TrialArena, TrialStream, TRIAL_CHUNK,
};
use qods_steane::code::SteaneCode;
use qods_steane::eval::{clean_prep_trial, evaluate_all, evaluate_prep, prep_trial};
use qods_steane::prep::PrepStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Every trial of `strategy` simulated: the same closure, no
/// descriptor.
fn plain_stats(
    strategy: PrepStrategy,
    model: ErrorModel,
    trials: u64,
    seed: u64,
) -> MonteCarloStats {
    let code = SteaneCode::new();
    run_trials_multi(&[TrialStream::new(trials, seed)], 1, |_, rng, arena| {
        prep_trial(strategy, model, &code, rng, arena)
    })[0]
}

#[test]
fn one_clean_trial_consumes_exactly_its_op_census() {
    let model = ErrorModel::paper();
    let code = SteaneCode::new();
    for strategy in PrepStrategy::ALL {
        let (clean, ops) = clean_prep_trial(strategy, model);
        assert_eq!(clean.span, ops.total(), "{strategy:?}");
        let mut checked = 0;
        for seed in 0..40u64 {
            // The gap a fresh chunk draws, read in span-1 units.
            let mut r_gap = StdRng::seed_from_u64(seed);
            let gap = TrialArena::new().clean_trials(model, 1, u64::MAX, &mut r_gap);
            if gap < clean.span {
                continue; // this seed's first trial meets a fault candidate
            }
            // The same stream through one simulated trial.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arena = TrialArena::new();
            let outcome = prep_trial(strategy, model, &code, &mut rng, &mut arena);
            assert_eq!(outcome, clean.outcome, "{strategy:?} seed {seed}");
            let rest = arena.clean_trials(model, 1, u64::MAX, &mut rng);
            assert_eq!(gap - rest, ops.total(), "{strategy:?} seed {seed}");
            assert_eq!(
                r_gap.next_u64(),
                rng.next_u64(),
                "{strategy:?} seed {seed}: a clean trial drew from the RNG"
            );
            checked += 1;
        }
        assert!(checked >= 30, "{strategy:?}: only {checked} clean seeds");
    }
}

#[test]
fn fast_forward_matches_plain_trials_everywhere() {
    // Not a multiple of TRIAL_CHUNK: the tail chunk is short.
    let trials = TRIAL_CHUNK + 333;
    for sampling in [
        FaultSampling::Auto,
        FaultSampling::Skip,
        FaultSampling::Exact,
    ] {
        for scale in [1.0, 10.0, 100.0] {
            let model = ErrorModel::paper().scaled(scale).with_sampling(sampling);
            for seed in [3u64, 41] {
                let plain: Vec<MonteCarloStats> = PrepStrategy::ALL
                    .iter()
                    .map(|&s| plain_stats(s, model, trials, seed))
                    .collect();
                for threads in [1, 2, 4] {
                    let label = format!("{sampling:?} x{scale} seed {seed} threads {threads}");
                    let panel = evaluate_all(model, trials, seed, threads);
                    for ((e, &s), p) in panel.iter().zip(&PrepStrategy::ALL).zip(&plain) {
                        assert_eq!(e.strategy, s);
                        assert_eq!(e.stats, *p, "evaluate_all {s:?} {label}");
                        let single = evaluate_prep(s, model, trials, seed, threads);
                        assert_eq!(single.stats, *p, "evaluate_prep {s:?} {label}");
                        assert_eq!(single.ops, e.ops);
                    }
                }
            }
        }
    }
}

#[test]
fn few_trials_reach_the_closure_at_paper_rates() {
    let model = ErrorModel::paper();
    let trials = 20 * TRIAL_CHUNK;
    let code = SteaneCode::new();
    let jobs: Vec<TrialStream> = PrepStrategy::ALL
        .iter()
        .map(|&s| TrialStream {
            clean: Some(clean_prep_trial(s, model).0),
            ..TrialStream::new(trials, 9)
        })
        .collect();
    let calls: Vec<AtomicU64> = PrepStrategy::ALL
        .iter()
        .map(|_| AtomicU64::new(0))
        .collect();
    let stats = run_trials_multi(&jobs, 1, |i, rng, arena| {
        calls[i].fetch_add(1, Ordering::Relaxed);
        prep_trial(PrepStrategy::ALL[i], model, &code, rng, arena)
    });
    for ((s, st), n) in PrepStrategy::ALL.iter().zip(&stats).zip(&calls) {
        let simulated = n.load(Ordering::Relaxed);
        assert_eq!(st.trials, trials);
        assert!(simulated > 0, "{s:?}: no trial was simulated at all");
        assert!(
            simulated * 20 < trials,
            "{s:?}: {simulated} of {trials} trials reached the closure (>= 5%)"
        );
        assert_eq!(*st, evaluate_prep(*s, model, trials, 9, 1).stats, "{s:?}");
    }
}
