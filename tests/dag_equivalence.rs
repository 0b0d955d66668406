//! Equivalence of the flat CSR [`Dag`] and the per-curve Fig 8 sweep
//! against straightforward references kept here: the per-gate
//! `Vec<Vec<usize>>` last-writer builder, and a sweep that rebuilds
//! the DAG at every supply rate.

use proptest::prelude::*;
use qods_circuit::circuit::{Circuit, NoSynth};
use qods_circuit::dag::Dag;
use qods_circuit::latency_model::CharacterizationModel;
use qods_circuit::throughput::throughput_sweep;
use qods_circuit::Gate;

const QUBITS: usize = 6;

/// A random circuit of 1-, 2- and 3-qubit gates; a multi-qubit draw
/// whose operands collide falls back to a 1-qubit gate.
fn circuit(ops: &[(u8, usize, usize, usize)]) -> Circuit {
    let mut c = Circuit::new(QUBITS);
    for &(kind, a, b, t) in ops {
        let gate = match kind {
            0 => Gate::H(a),
            1 => Gate::T(a),
            2 if a != b => Gate::Cx(a, b),
            3 if a != b => Gate::CPhaseRot {
                c: a,
                t: b,
                k: 1,
                dagger: false,
            },
            4 if a != b && a != t && b != t => Gate::Toffoli(a, b, t),
            _ => Gate::X(t),
        };
        c.push(gate);
    }
    c
}

/// Predecessors as the last-writer chains define them, one `Vec` per
/// gate, in operand order without repeats.
fn reference_preds(circuit: &Circuit) -> Vec<Vec<usize>> {
    let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.n_qubits()];
    let mut preds = Vec::with_capacity(circuit.len());
    for (i, g) in circuit.gates().iter().enumerate() {
        let mut p = Vec::new();
        for &q in g.qubits().iter() {
            if let Some(prev) = last_on_qubit[q] {
                if !p.contains(&prev) {
                    p.push(prev);
                }
            }
            last_on_qubit[q] = Some(i);
        }
        preds.push(p);
    }
    preds
}

fn reference_asap(preds: &[Vec<usize>], duration: impl Fn(usize) -> f64) -> (Vec<f64>, f64) {
    let mut start = vec![0.0f64; preds.len()];
    let mut makespan = 0.0f64;
    for i in 0..preds.len() {
        let mut s = 0.0f64;
        for &p in &preds[i] {
            let end = start[p] + duration(p);
            if end > s {
                s = end;
            }
        }
        start[i] = s;
        let end = s + duration(i);
        if end > makespan {
            makespan = end;
        }
    }
    (start, makespan)
}

fn reference_critical_path(preds: &[Vec<usize>], duration: impl Fn(usize) -> f64) -> Vec<usize> {
    if preds.is_empty() {
        return Vec::new();
    }
    let mut dist = vec![0.0f64; preds.len()];
    let mut back: Vec<Option<usize>> = vec![None; preds.len()];
    for i in 0..preds.len() {
        let mut best = 0.0f64;
        let mut who = None;
        for &p in &preds[i] {
            if dist[p] > best {
                best = dist[p];
                who = Some(p);
            }
        }
        dist[i] = best + duration(i);
        back[i] = who;
    }
    let mut end = 0;
    for i in 1..preds.len() {
        if dist[i] > dist[end] {
            end = i;
        }
    }
    let mut path = vec![end];
    let mut cur = end;
    while let Some(p) = back[cur] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    path
}

/// The supply-limited makespan, rebuilding the reference DAG and every
/// per-gate quantity for this one rate.
fn reference_execution_time_us(
    circuit: &Circuit,
    model: &CharacterizationModel,
    zeros_per_ms: f64,
) -> f64 {
    let rate_per_us = zeros_per_ms / 1000.0;
    let preds = reference_preds(circuit);
    let gates = circuit.gates();
    let mut end = vec![0.0f64; gates.len()];
    let mut consumed: u64 = 0;
    let mut makespan = 0.0f64;
    for (i, g) in gates.iter().enumerate() {
        let mut ready = 0.0f64;
        for &p in &preds[i] {
            ready = ready.max(end[p]);
        }
        let mut zeros = model.zeros_per_qec() * g.qubits().len() as u64;
        if g.needs_pi8_ancilla() {
            zeros += model.zeros_per_pi8();
        }
        consumed += zeros;
        let supply_time = if rate_per_us.is_infinite() {
            0.0
        } else {
            consumed as f64 / rate_per_us
        };
        let dur = model.data_latency(g) + model.qec_interact();
        let e = (ready + dur).max(supply_time);
        end[i] = e;
        makespan = makespan.max(e);
    }
    makespan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Same predecessors in the same order, successors equal to their
    /// transpose in program order, operands inline, and identical
    /// `asap`/`critical_path`/`depth`.
    #[test]
    fn flat_dag_matches_the_vec_of_vecs_builder(
        ops in proptest::collection::vec((0u8..6, 0usize..QUBITS, 0usize..QUBITS, 0usize..QUBITS), 0..80),
        w in proptest::collection::vec(1u8..9, 80..81),
    ) {
        let c = circuit(&ops);
        let dag = Dag::build(&c);
        let preds = reference_preds(&c);
        prop_assert_eq!(dag.len(), preds.len());
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); preds.len()];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(i);
            }
        }
        for (i, g) in c.gates().iter().enumerate() {
            let flat: Vec<usize> = dag.preds(i).iter().map(|&p| p as usize).collect();
            prop_assert_eq!(&flat, &preds[i]);
            let flat: Vec<usize> = dag.succs(i).iter().map(|&s| s as usize).collect();
            prop_assert_eq!(&flat, &succs[i]);
            let flat: Vec<usize> = dag.operands(i).iter().map(|&q| q as usize).collect();
            prop_assert_eq!(&flat[..], &g.qubits()[..]);
        }
        let weight = |i: usize| f64::from(w[i]);
        let (start, makespan) = dag.asap(weight);
        let (ref_start, ref_makespan) = reference_asap(&preds, weight);
        prop_assert_eq!(start, ref_start);
        prop_assert_eq!(makespan.to_bits(), ref_makespan.to_bits());
        prop_assert_eq!(dag.critical_path(weight), reference_critical_path(&preds, weight));
        prop_assert_eq!(dag.depth(), reference_critical_path(&preds, |_| 1.0).len());
    }

    /// The per-curve sweep is bit-identical to rebuilding everything at
    /// every point.
    #[test]
    fn throughput_sweep_matches_the_per_point_reference(
        ops in proptest::collection::vec((0u8..6, 0usize..QUBITS, 0usize..QUBITS, 0usize..QUBITS), 1..60),
        lo in 0.5f64..500.0,
        span in 1.5f64..1000.0,
        points in 2usize..12,
    ) {
        let c = circuit(&ops).lower(&NoSynth);
        let model = CharacterizationModel::ion_trap();
        let hi = lo * span;
        let sweep = throughput_sweep(&c, &model, lo, hi, points);
        let step = (hi / lo).powf(1.0 / (points - 1) as f64);
        prop_assert_eq!(sweep.len(), points);
        for (i, p) in sweep.iter().enumerate() {
            let r = lo * step.powi(i as i32);
            prop_assert_eq!(p.zeros_per_ms.to_bits(), r.to_bits());
            let reference = reference_execution_time_us(&c, &model, r);
            prop_assert_eq!(p.execution_us.to_bits(), reference.to_bits());
        }
    }
}
