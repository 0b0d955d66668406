//! The fault-free fast-forward is exact: recording runs of clean trials
//! in one countdown step must leave the RNG stream, the sampler state
//! and every Monte-Carlo statistic exactly where simulating each trial
//! would have left them.

use proptest::prelude::*;
use qods_phys::error_model::{ErrorModel, FaultSampler, FaultSampling};
use qods_phys::montecarlo::{
    run_trials, run_trials_multi, CleanTrial, MonteCarloStats, TrialArena, TrialOutcome,
    TrialStream, TRIAL_CHUNK,
};
use qods_phys::ops::{PhysOp, PhysOpKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small Clifford protocol with classical feedback: prepare, entangle,
/// move, and measure; a flipped first check discards, the parity of the
/// rest is the logical error.
fn protocol() -> Vec<PhysOp> {
    let mut ops: Vec<PhysOp> = (0..6).map(PhysOp::Prep).collect();
    ops.push(PhysOp::h(0));
    ops.extend((0..5).map(|q| PhysOp::cx(q, q + 1)));
    ops.extend([PhysOp::Move(2), PhysOp::TurnOp(2), PhysOp::Move(5)]);
    ops.push(PhysOp::cz(1, 4));
    ops.push(PhysOp::measure_x(0));
    ops.extend((1..6).map(PhysOp::measure_z));
    ops
}

fn trial(
    ops: &[PhysOp],
    model: ErrorModel,
    rng: &mut StdRng,
    arena: &mut TrialArena,
) -> TrialOutcome {
    let (frame, flips) = arena.frame_and_flips(6, model);
    frame.run(ops, rng, flips);
    if flips[0] {
        TrialOutcome::Discarded
    } else {
        TrialOutcome::AcceptedDetailed {
            logical_error: flips[1..].iter().filter(|&&f| f).count() % 2 == 1,
            dirty: flips[1..].iter().any(|&f| f),
        }
    }
}

/// The protocol's fault-free trial: one sampler op per physical op,
/// and the outcome of a noiseless run.
fn clean_trial(ops: &[PhysOp], model: ErrorModel) -> CleanTrial {
    let mut arena = TrialArena::new();
    let mut rng = StdRng::seed_from_u64(0);
    CleanTrial {
        model,
        span: ops.len() as u64,
        outcome: trial(ops, ErrorModel::noiseless(), &mut rng, &mut arena),
    }
}

fn run_both(
    model: ErrorModel,
    n: u64,
    seed: u64,
    threads: usize,
) -> (MonteCarloStats, MonteCarloStats) {
    let ops = protocol();
    let plain = run_trials(n, seed, |rng, arena| trial(&ops, model, rng, arena));
    let stream = TrialStream {
        clean: Some(clean_trial(&ops, model)),
        ..TrialStream::new(n, seed)
    };
    let fast = run_trials_multi(&[stream], threads, |_, rng, arena| {
        trial(&ops, model, rng, arena)
    });
    (plain, fast[0])
}

#[test]
fn descriptor_leaves_statistics_bit_identical() {
    // Not a multiple of TRIAL_CHUNK, so the short tail chunk is covered.
    let n = 3 * TRIAL_CHUNK + 291;
    for sampling in [
        FaultSampling::Auto,
        FaultSampling::Skip,
        FaultSampling::Exact,
    ] {
        for scale in [1.0, 30.0, 300.0] {
            let model = ErrorModel::paper().scaled(scale).with_sampling(sampling);
            for seed in [1u64, 7, 1234] {
                for threads in [1, 2, 4] {
                    let (plain, fast) = run_both(model, n, seed, threads);
                    assert_eq!(plain.trials, n);
                    assert_eq!(
                        plain, fast,
                        "{sampling:?} x{scale} seed {seed} threads {threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn noiseless_streams_never_reach_the_trial() {
    let ops = protocol();
    let model = ErrorModel::noiseless();
    let stream = TrialStream {
        clean: Some(clean_trial(&ops, model)),
        ..TrialStream::new(2 * TRIAL_CHUNK + 5, 3)
    };
    let stats = run_trials_multi(&[stream], 1, |_, _, _| -> TrialOutcome {
        panic!("a noiseless stream is all clean trials")
    });
    assert_eq!(stats[0].trials, 2 * TRIAL_CHUNK + 5);
    assert_eq!(stats[0].accepted, 2 * TRIAL_CHUNK + 5);
}

#[test]
fn exact_mode_fast_forwards_nothing() {
    let model = ErrorModel::paper().with_sampling(FaultSampling::Exact);
    let mut s = FaultSampler::new(model);
    let mut rng = StdRng::seed_from_u64(5);
    assert_eq!(s.clean_runs(10, 1_000, &mut rng), 0);
    let mut fresh = StdRng::seed_from_u64(5);
    assert_eq!(
        rng.next_u64(),
        fresh.next_u64(),
        "no RNG draw in exact mode"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Fast-forwarding `k` runs of `span` ops equals `k * span`
    /// fault-free per-op decisions: same RNG position, and the same
    /// next fault location afterwards.
    #[test]
    fn clean_runs_match_per_op_decisions(
        seed in 0u64..1_000,
        span in 1u64..400,
        max in 1u64..64,
        decade in 0i32..3,
    ) {
        let model = ErrorModel::paper().scaled(10f64.powi(decade)).with_sampling(FaultSampling::Skip);
        let mut fast = FaultSampler::new(model);
        let mut r1 = StdRng::seed_from_u64(seed);
        let k = fast.clean_runs(span, max, &mut r1);
        prop_assert!(k <= max);

        let mut slow = FaultSampler::new(model);
        let mut r2 = StdRng::seed_from_u64(seed);
        for op in 0..k * span {
            prop_assert!(
                !slow.fault_at(PhysOpKind::TwoQubitGate, &mut r2),
                "op {} of a fast-forwarded run faulted", op
            );
        }
        if k < max {
            // The next run holds a fault candidate within `span` ops.
            prop_assert!(fast.clean_runs(span, max, &mut r1) == 0);
        }
        let next = |s: &mut FaultSampler, r: &mut StdRng| {
            s.next_fault_within(PhysOpKind::TwoQubitGate, 1 << 20, r)
        };
        prop_assert_eq!(next(&mut fast, &mut r1), next(&mut slow, &mut r2));
        prop_assert_eq!(r1.next_u64(), r2.next_u64());
    }
}
