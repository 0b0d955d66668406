//! Property-based tests across the stack (proptest).

use proptest::prelude::*;
use qods_circuit::circuit::{Circuit, NoSynth};
use qods_circuit::dag::Dag;
use qods_circuit::sim::statevector::State;
use qods_layout::grid::Grid;
use qods_layout::macroblock::{Macroblock, MacroblockKind};
use qods_layout::route::route;
use qods_phys::error_model::ErrorModel;
use qods_phys::pauli::{Pauli, PauliString};
use qods_steane::code::SteaneCode;
use qods_steane::encoder::{encode_zero, EncoderMovement};
use qods_steane::executor::Executor;
use qods_steane::tableau::Tableau;
use qods_synth::search::Synthesizer;
use qods_synth::su2::U2;
use rand::rngs::StdRng;
use rand::SeedableRng;
use speed_of_data::kernels::verify_adder;
use speed_of_data::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pauli strings form an abelian group under product, and
    /// commutation is symmetric.
    #[test]
    fn pauli_string_group_laws(x1 in 0u64..128, z1 in 0u64..128, x2 in 0u64..128, z2 in 0u64..128) {
        let a = PauliString::from_masks(7, x1, z1);
        let b = PauliString::from_masks(7, x2, z2);
        prop_assert_eq!(a.product(&b), b.product(&a));
        prop_assert!(a.product(&a).is_identity());
        prop_assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
        // Commutation matches the symplectic form.
        let form = ((a.x & b.z).count_ones() + (a.z & b.x).count_ones()).is_multiple_of(2);
        prop_assert_eq!(a.commutes_with(&b), form);
    }

    /// The Steane decoder corrects every weight-1 error and flags
    /// every weight-2 error as logical after decoding.
    #[test]
    fn steane_decoding_distance(q1 in 0usize..7, q2 in 0usize..7) {
        let code = SteaneCode::new();
        let e1 = 1u8 << q1;
        prop_assert!(!code.uncorrectable(e1));
        if q1 != q2 {
            let e2 = e1 | (1 << q2);
            prop_assert!(code.uncorrectable(e2));
        }
    }

    /// Single injected Paulis anywhere in the encoder's output are
    /// never uncorrectable (distance 3).
    #[test]
    fn encoder_output_tolerates_single_faults(q in 0usize..7, p in 0usize..3) {
        let pauli = [Pauli::X, Pauli::Y, Pauli::Z][p];
        let mut rng = StdRng::seed_from_u64(7);
        let mut ex = Executor::new(7, ErrorModel::noiseless(), &mut rng);
        let block = [0, 1, 2, 3, 4, 5, 6];
        encode_zero(&mut ex, &block, EncoderMovement::default());
        ex.inject(q, pauli);
        let code = SteaneCode::new();
        prop_assert!(!code.uncorrectable_xz(ex.x_mask(&block), ex.z_mask(&block)));
    }

    /// Both adders compute a + b for random operands and widths.
    #[test]
    fn adders_add(n in 1usize..7, a in 0u64..64, b in 0u64..64) {
        let mask = (1u64 << n) - 1;
        verify_adder(&qrca(n), n, a & mask, b & mask).map_err(TestCaseError::fail)?;
        verify_adder(&qcla(n), n, a & mask, b & mask).map_err(TestCaseError::fail)?;
    }

    /// Lowering preserves unitary semantics on random 3-qubit
    /// Clifford+Toffoli circuits.
    #[test]
    fn lowering_preserves_semantics(ops in proptest::collection::vec(0u8..6, 1..12), basis in 0usize..8) {
        let mut c = Circuit::new(3);
        for (i, op) in ops.iter().enumerate() {
            let q = i % 3;
            match op {
                0 => c.h(q),
                1 => c.s(q),
                2 => c.t(q),
                3 => c.cx(q, (q + 1) % 3),
                4 => c.toffoli(q, (q + 1) % 3, (q + 2) % 3),
                _ => c.x(q),
            }
        }
        let lowered = c.lower(&NoSynth);
        let mut s1 = State::basis(3, basis);
        s1.run(&c);
        let mut s2 = State::basis(3, basis);
        s2.run(&lowered);
        prop_assert!((s1.fidelity(&s2) - 1.0).abs() < 1e-9);
    }

    /// Synthesized sequences realize their reported distance.
    #[test]
    fn synthesis_reports_honest_distances(k in 3u8..9) {
        let synth = Synthesizer::with_budget(6, 1e-3);
        let seq = synth.rz_pi_over_2k(k, false);
        let target = U2::phase(std::f64::consts::PI / f64::from(1u32 << k));
        let actual = seq.matrix().distance(&target);
        prop_assert!((actual - seq.distance).abs() < 1e-9);
    }

    /// The DAG's ASAP schedule never starts a gate before a
    /// predecessor finishes, for random circuits.
    #[test]
    fn asap_respects_dependencies(ops in proptest::collection::vec((0usize..4, 0usize..4), 1..40)) {
        let mut c = Circuit::new(4);
        for &(a, b) in &ops {
            if a == b {
                c.h(a);
            } else {
                c.cx(a, b);
            }
        }
        let dag = Dag::build(&c);
        let (start, makespan) = dag.asap(|_| 1.0);
        for i in 0..c.len() {
            for &p in dag.preds(i) {
                prop_assert!(start[i] >= start[p as usize] + 1.0 - 1e-12);
            }
            prop_assert!(start[i] + 1.0 <= makespan + 1e-12);
        }
    }

    /// Routing cost is symmetric on an all-intersection grid.
    #[test]
    fn route_cost_symmetry(r1 in 0usize..5, c1 in 0usize..5, r2 in 0usize..5, c2 in 0usize..5) {
        let mut g = Grid::new(5, 5);
        for r in 0..5 {
            for c in 0..5 {
                g.place(r, c, Macroblock::new(MacroblockKind::FourWayIntersection));
            }
        }
        let t = LatencyTable::ion_trap();
        let fwd = route(&g, (r1, c1), (r2, c2), &t).expect("connected");
        let back = route(&g, (r2, c2), (r1, c1), &t).expect("connected");
        prop_assert_eq!(fwd.moves, back.moves);
        prop_assert_eq!(fwd.turns, back.turns);
        // Manhattan lower bound on moves.
        let manhattan = r1.abs_diff(r2) + c1.abs_diff(c2);
        prop_assert_eq!(fwd.moves as usize, manhattan);
    }

    /// Frame error propagation agrees with tableau conjugation: a
    /// Pauli error pushed through a random Clifford circuit matches
    /// the conjugated Pauli row.
    #[test]
    fn frame_matches_tableau(ops in proptest::collection::vec((0u8..3, 0usize..4, 0usize..4), 1..20),
                             q0 in 0usize..4, px in 0usize..3) {
        use qods_phys::frame::PauliFrame;
        use qods_phys::ops::PhysOp;
        use qods_phys::pauli::PauliString;
        let pauli = [Pauli::X, Pauli::Y, Pauli::Z][px];
        let mut rng = StdRng::seed_from_u64(1);
        let mut frame = PauliFrame::new(4, ErrorModel::noiseless());
        frame.inject(q0, pauli);
        let mut tab = Tableau::empty(4);
        let (x0, z0) = pauli.bits();
        tab.push(PauliString::from_masks(4, (x0 as u64) << q0, (z0 as u64) << q0));
        for &(kind, a, b) in &ops {
            match kind {
                0 => {
                    frame.apply(&PhysOp::h(a), &mut rng);
                    tab.h(a);
                }
                1 => {
                    frame.apply(&PhysOp::Gate1(qods_phys::ops::Gate1::S, a), &mut rng);
                    tab.s(a);
                }
                _ => {
                    if a != b {
                        frame.apply(&PhysOp::cx(a, b), &mut rng);
                        tab.cx(a, b);
                    }
                }
            }
        }
        let expect = &tab.rows()[0];
        let got = frame.extract(&[0, 1, 2, 3]);
        prop_assert_eq!(got.x, expect.x);
        prop_assert_eq!(got.z, expect.z);
    }

    /// Architecture simulation is deterministic and monotone in area
    /// for random small circuits.
    #[test]
    fn simulation_properties(ops in proptest::collection::vec((0usize..4, 0usize..4), 1..30)) {
        let mut c = Circuit::new(4);
        for &(a, b) in &ops {
            if a == b {
                c.t(a);
            } else {
                c.cx(a, b);
            }
        }
        let t1 = simulate(&c, Arch::FullyMultiplexed, 1e4).makespan_us;
        let t2 = simulate(&c, Arch::FullyMultiplexed, 1e4).makespan_us;
        prop_assert_eq!(t1, t2);
        let big = simulate(&c, Arch::FullyMultiplexed, 1e6).makespan_us;
        prop_assert!(big <= t1 * 1.0001);
    }
}
