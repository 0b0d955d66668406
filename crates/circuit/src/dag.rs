//! Dataflow DAG over a logical circuit: per-qubit dependency chains,
//! levels, and weighted longest (critical) paths.
//!
//! The one flat dataflow view every consumer reads — schedule stage,
//! characterization, Fig 7/8 and the architectural simulator: per-gate
//! operands inline and predecessors/successors in CSR form, all `u32`.

use crate::circuit::Circuit;

/// No gate has touched this qubit yet.
const NONE: u32 = u32::MAX;

/// The dependency structure of a circuit.
///
/// Gate `j` depends on gate `i` when they share a qubit and `i` is the
/// most recent earlier gate on that qubit (last-writer chains — quantum
/// gates both read and write every qubit they touch). A gate lists its
/// predecessors in operand order, each once; successors are the
/// transpose, in program order.
#[derive(Debug, Clone)]
pub struct Dag {
    /// Per-gate operands and arity (the first `arity` slots are live).
    operands: Vec<([u32; 3], u8)>,
    /// Gate `i`'s predecessors are `pred_dat[pred_off[i]..pred_off[i + 1]]`.
    pred_off: Vec<u32>,
    pred_dat: Vec<u32>,
    /// Gate `i`'s successors are `succ_dat[succ_off[i]..succ_off[i + 1]]`.
    succ_off: Vec<u32>,
    succ_dat: Vec<u32>,
}

impl Dag {
    /// Builds the DAG for a circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's dependency edges (at most three per
    /// gate) or its qubits do not fit `u32` indices.
    pub fn build(circuit: &Circuit) -> Self {
        let n = circuit.len();
        assert!(
            n < NONE as usize / 3 && circuit.n_qubits() < NONE as usize,
            "circuit too large for a u32-indexed DAG"
        );
        let mut last_on_qubit = vec![NONE; circuit.n_qubits()];
        let mut operands = Vec::with_capacity(n);
        let mut pred_off = vec![0u32];
        let mut pred_dat = Vec::with_capacity(n);
        // Successor counts at `p + 1` until the prefix sum below.
        let mut succ_off = vec![0u32; n + 1];
        for (i, g) in circuit.gates().iter().enumerate() {
            let qs = g.qubits();
            let first = pred_dat.len();
            let mut ops = [0u32; 3];
            for (slot, &q) in ops.iter_mut().zip(qs.iter()) {
                *slot = q as u32;
                let prev = last_on_qubit[q];
                if prev != NONE && !pred_dat[first..].contains(&prev) {
                    pred_dat.push(prev);
                    succ_off[prev as usize + 1] += 1;
                }
                last_on_qubit[q] = i as u32;
            }
            operands.push((ops, qs.len() as u8));
            pred_off.push(pred_dat.len() as u32);
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        // Scattering in program order keeps every successor list sorted.
        let mut cursor = succ_off.clone();
        let mut succ_dat = vec![0u32; pred_dat.len()];
        for i in 0..n {
            for &p in &pred_dat[pred_off[i] as usize..pred_off[i + 1] as usize] {
                succ_dat[cursor[p as usize] as usize] = i as u32;
                cursor[p as usize] += 1;
            }
        }
        Dag {
            operands,
            pred_off,
            pred_dat,
            succ_off,
            succ_dat,
        }
    }

    /// Predecessors of gate `i`, in the order its operands reach them.
    pub fn preds(&self, i: usize) -> &[u32] {
        &self.pred_dat[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Successors of gate `i`, in program order.
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succ_dat[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// The qubits gate `i` touches, in operand order.
    pub fn operands(&self, i: usize) -> &[u32] {
        let (ops, arity) = &self.operands[i];
        &ops[..*arity as usize]
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.operands.len()
    }

    /// True when the DAG has no gates.
    pub fn is_empty(&self) -> bool {
        self.operands.is_empty()
    }

    /// ASAP start times given a per-gate duration function; returns
    /// `(start_times, makespan)`. Gates are already in topological
    /// order (program order), so one forward pass suffices.
    pub fn asap(&self, duration: impl Fn(usize) -> f64) -> (Vec<f64>, f64) {
        let mut start = vec![0.0f64; self.len()];
        let mut makespan = 0.0f64;
        for i in 0..self.len() {
            let mut s = 0.0f64;
            for &p in self.preds(i) {
                let p = p as usize;
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

    /// The gates on one weighted critical path (ties broken towards
    /// earlier gates), as indices in program order.
    pub fn critical_path(&self, duration: impl Fn(usize) -> f64) -> Vec<usize> {
        if self.is_empty() {
            return Vec::new();
        }
        // Longest path ending at each node.
        let mut dist = vec![0.0f64; self.len()];
        let mut back: Vec<Option<usize>> = vec![None; self.len()];
        for i in 0..self.len() {
            let mut best = 0.0f64;
            let mut who = None;
            for &p in self.preds(i) {
                let d = dist[p as usize];
                if d > best {
                    best = d;
                    who = Some(p as usize);
                }
            }
            dist[i] = best + duration(i);
            back[i] = who;
        }
        let mut end = 0;
        for i in 1..self.len() {
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

    /// Depth of the circuit in gate levels (unit durations).
    pub fn depth(&self) -> usize {
        self.critical_path(|_| 1.0).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn chain3() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        c.h(2);
        c.h(0); // parallel with the tail
        c
    }

    #[test]
    fn preds_follow_qubit_chains() {
        let d = Dag::build(&chain3());
        assert!(d.preds(0).is_empty());
        assert_eq!(d.preds(1), &[0]);
        assert_eq!(d.preds(2), &[1]);
        assert_eq!(d.preds(3), &[2]);
        assert_eq!(d.preds(4), &[1]); // H(0) waits on CX(0,1)
    }

    #[test]
    fn asap_respects_dependencies() {
        let d = Dag::build(&chain3());
        let (start, makespan) = d.asap(|_| 1.0);
        assert_eq!(start, vec![0.0, 1.0, 2.0, 3.0, 2.0]);
        assert_eq!(makespan, 4.0);
    }

    #[test]
    fn critical_path_picks_longest_chain() {
        let d = Dag::build(&chain3());
        let path = d.critical_path(|_| 1.0);
        assert_eq!(path, vec![0, 1, 2, 3]);
        assert_eq!(d.depth(), 4);
    }

    #[test]
    fn weighted_critical_path_can_differ() {
        let mut c = Circuit::new(2);
        c.h(0); // 0
        c.h(0); // 1: chain of two cheap gates on q0
        c.t(1); // 2: one expensive gate on q1
        let d = Dag::build(&c);
        assert_eq!(d.critical_path(|_| 1.0), vec![0, 1]);
        let weights = [1.0, 1.0, 5.0];
        assert_eq!(d.critical_path(|i| weights[i]), vec![2]);
    }

    #[test]
    fn empty_circuit() {
        let d = Dag::build(&Circuit::new(1));
        assert!(d.is_empty());
        assert_eq!(d.depth(), 0);
        let (s, m) = d.asap(|_| 1.0);
        assert!(s.is_empty());
        assert_eq!(m, 0.0);
    }

    #[test]
    fn succs_transpose_preds_and_operands_are_inline() {
        let d = Dag::build(&chain3());
        assert_eq!(d.succs(0), &[1]);
        assert_eq!(d.succs(1), &[2, 4]);
        assert_eq!(d.succs(2), &[3]);
        assert!(d.succs(3).is_empty() && d.succs(4).is_empty());
        assert_eq!(d.operands(0), &[0]);
        assert_eq!(d.operands(2), &[1, 2]);
    }

    #[test]
    fn shared_pred_deduplicated() {
        let mut c = Circuit::new(2);
        c.cx(0, 1); // 0
        c.cx(0, 1); // 1 depends on 0 via both qubits -> one pred
        let d = Dag::build(&c);
        assert_eq!(d.preds(1), &[0]);
    }
}
