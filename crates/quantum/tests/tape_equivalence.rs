//! Compiled-tape equivalence: executing a [`CompiledTape`] must reproduce
//! eager gate-by-gate execution — forward states, expectations,
//! probabilities, and adjoint gradients — to ≤ 1e-12 on randomized circuits,
//! and the tape must be reusable across rows.

use proptest::prelude::*;
use sqvae_quantum::embed::{angle_embedding_gates, RotationAxis};
use sqvae_quantum::grad::{adjoint, paramshift};
use sqvae_quantum::tape::{AdjointStep, AdjointStop};
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::{Circuit, CompiledTape, Gate, Param, QuantumError, StateVector};

const TOL: f64 = 1e-12;

/// Strategy: a random gate over `n` wires referencing at most `np` trainable
/// parameters and `ni` input features, spanning every gate kind the tape
/// compiler lowers (fusible single-qubit runs, CNOT runs, late-bound input
/// slots).
fn arb_gate(n: usize, np: usize, ni: usize) -> impl Strategy<Value = Gate> {
    let wire = 0..n;
    let wire2 = 0..n;
    let param = prop_oneof![
        (-3.0..3.0f64).prop_map(Param::Fixed),
        (0..np).prop_map(Param::Train),
        (0..ni).prop_map(Param::Input),
    ];
    (wire, wire2, param, 0..12u8).prop_map(move |(w, w2, p, kind)| {
        let w2 = if w2 == w { (w + 1) % n } else { w2 };
        match kind {
            0 => Gate::Hadamard(w),
            1 => Gate::RX(w, p),
            2 => Gate::RY(w, p),
            3 => Gate::RZ(w, p),
            4 => Gate::PauliX(w),
            5 | 9 => Gate::PauliY(w),
            6 | 10 => Gate::PauliZ(w),
            7 | 8 | 11 if n > 1 => Gate::CNOT(w, w2),
            _ => Gate::RY(w, p),
        }
    })
}

fn build_circuit(n: usize, gates: Vec<Gate>) -> Circuit {
    let mut c = Circuit::new(n).expect("valid register");
    for g in gates {
        c.push(g).expect("valid gate");
    }
    c
}

/// The eager gate-by-gate reference: explicit `apply_ops`, no tape.
fn eager_state(c: &Circuit, params: &[f64], inputs: &[f64]) -> StateVector {
    let mut s = StateVector::zero_state(c.n_qubits()).unwrap();
    s.apply_ops(c.ops(), params, inputs).unwrap();
    s
}

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what} length");
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() <= TOL, "{what}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled execution reproduces the eager amplitudes, expectations, and
    /// probabilities.
    #[test]
    fn compiled_forward_matches_gate_by_gate(
        gates in proptest::collection::vec(arb_gate(3, 4, 2), 1..32),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
        inputs in proptest::collection::vec(-2.0..2.0f64, 2),
    ) {
        let c = build_circuit(3, gates);
        let tape = c.compile(&params).unwrap();
        let eager = eager_state(&c, &params, &inputs);
        let dense = tape.execute_on(&inputs, None).unwrap();
        for (a, b) in eager.amplitudes().iter().zip(dense.amplitudes()) {
            prop_assert!(a.approx_eq(*b, TOL), "dense amplitude {a} vs {b}");
        }
        assert_close(
            &c.expectations_z_all(&eager).unwrap(),
            &tape.expectations_z_on(&inputs, None).unwrap(),
            "expectations",
        );
        assert_close(
            &eager.probabilities(),
            &tape.probabilities_on(&inputs, None).unwrap(),
            "probabilities",
        );
    }

    /// The tape's pre-lowered adjoint sweep reproduces the eager adjoint
    /// gradients (parameters AND inputs) for the ⟨Z⟩ readout.
    #[test]
    fn compiled_adjoint_matches_gate_by_gate(
        gates in proptest::collection::vec(arb_gate(3, 4, 2), 1..24),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
        inputs in proptest::collection::vec(-2.0..2.0f64, 2),
        upstream in proptest::collection::vec(-1.5..1.5f64, 3),
    ) {
        let c = build_circuit(3, gates);
        let tape = c.compile(&params).unwrap();
        let eager = adjoint::backward_expectations_z(
            &c, &params, &inputs, None, &upstream).unwrap();
        let taped = adjoint::backward_expectations_z_tape(
            &tape, &inputs, None, &upstream).unwrap();
        assert_close(&eager.params, &taped.params, "param gradients");
        assert_close(&eager.inputs, &taped.inputs, "input gradients");
    }

    /// Same for the probability readout (the baseline decoder's measurement).
    #[test]
    fn compiled_adjoint_matches_gate_by_gate_probabilities(
        gates in proptest::collection::vec(arb_gate(2, 3, 1), 1..20),
        params in proptest::collection::vec(-3.0..3.0f64, 3),
        inputs in proptest::collection::vec(-2.0..2.0f64, 1),
        upstream in proptest::collection::vec(-1.0..1.0f64, 4),
    ) {
        let c = build_circuit(2, gates);
        let tape = c.compile(&params).unwrap();
        let eager = adjoint::backward_probabilities(
            &c, &params, &inputs, None, &upstream).unwrap();
        let taped = adjoint::backward_probabilities_tape(
            &tape, &inputs, None, &upstream).unwrap();
        assert_close(&eager.params, &taped.params, "param gradients");
        assert_close(&eager.inputs, &taped.inputs, "input gradients");
    }

    /// One tape, many rows: re-executing with different inputs matches
    /// per-row eager execution (the batched reuse the layers rely on), and
    /// repeated execution of the same row is bit-identical.
    #[test]
    fn tape_reuse_across_rows_is_sound(
        gates in proptest::collection::vec(arb_gate(3, 4, 2), 1..24),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
        rows in proptest::collection::vec(
            proptest::collection::vec(-2.0..2.0f64, 2), 2..6),
    ) {
        let c = build_circuit(3, gates);
        let tape = c.compile(&params).unwrap();
        for row in &rows {
            let eager = eager_state(&c, &params, row);
            let a = tape.execute_on(row, None).unwrap();
            let b = tape.execute_on(row, None).unwrap();
            prop_assert_eq!(&a, &b, "tape re-execution must be deterministic");
            for (x, y) in eager.amplitudes().iter().zip(a.amplitudes()) {
                prop_assert!(x.approx_eq(*y, TOL), "row amplitude {x} vs {y}");
            }
        }
    }
}

/// The paper's baseline encoder — angle embedding plus 3 strongly-entangling
/// layers on 6 qubits — compiles to the shape the tape targets (late-bound
/// embedding, one fused matrix per wire per layer, one permutation per
/// ring); pin its end-to-end equivalence at the paper's scale.
#[test]
fn paper_template_tape_matches_eager() {
    let n = 6;
    let mut c = Circuit::new(n).unwrap();
    c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
        .unwrap();
    c.extend(strongly_entangling_layers(n, 3, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.05 * i as f64 - 1.2).collect();
    let inputs: Vec<f64> = (0..n).map(|i| 0.3 * i as f64 - 0.8).collect();
    let upstream: Vec<f64> = (0..n).map(|i| 1.0 - 0.4 * i as f64).collect();

    let tape: CompiledTape = c.compile(&params).unwrap();
    let eager = eager_state(&c, &params, &inputs);
    assert_close(
        &c.expectations_z_all(&eager).unwrap(),
        &tape.expectations_z_on(&inputs, None).unwrap(),
        "paper template expectations",
    );

    let ge = adjoint::backward_expectations_z(&c, &params, &inputs, None, &upstream).unwrap();
    let gt = adjoint::backward_expectations_z_tape(&tape, &inputs, None, &upstream).unwrap();
    assert_close(&ge.params, &gt.params, "paper template param grads");
    assert_close(&ge.inputs, &gt.inputs, "paper template input grads");
}

/// Checks the tape sweep of `gates` (after a prefix that spreads and phases
/// the state and entangles it with a CNOT ring, and followed by another
/// ring so every wire's gradient reaches the readout) against the eager
/// `vjp_diagonal` oracle, and that the adjoint program holds `blocks`
/// rotation blocks.
fn check_block_case(n: usize, gates: &[Gate], blocks: usize, what: &str) {
    let mut c = Circuit::new(n).unwrap();
    let ring: Vec<Gate> = (0..n).map(|w| Gate::CNOT(w, (w + 1) % n)).collect();
    for w in 0..n {
        c.h(w).unwrap();
        c.rz(w, Param::Fixed(std::f64::consts::FRAC_PI_4)).unwrap();
        c.ry(w, Param::Fixed(0.4 + 0.3 * w as f64)).unwrap();
    }
    c.extend(ring.iter().copied()).unwrap();
    c.extend(gates.iter().copied()).unwrap();
    c.extend(ring.iter().copied()).unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.9 - 0.37 * i as f64).collect();
    let inputs: Vec<f64> = (0..c.n_inputs()).map(|i| 0.4 + 0.6 * i as f64).collect();
    let diag: Vec<f64> = (0..1usize << n).map(|i| 1.0 - 0.3 * i as f64).collect();

    let tape = c.compile(&params).unwrap();
    let found = tape
        .adjoint_steps()
        .iter()
        .filter(|s| matches!(s, AdjointStep::Stop(AdjointStop::Block(_))))
        .count();
    assert_eq!(found, blocks, "{what}: rotation blocks");

    let eager = adjoint::vjp_diagonal(&c, &params, &inputs, None, &diag).unwrap();
    assert!(
        eager
            .params
            .iter()
            .chain(&eager.inputs)
            .any(|g| g.abs() > 1e-3),
        "{what}: the case should exercise non-zero gradients"
    );
    let taped = adjoint::vjp_diagonal_tape(&tape, &inputs, None, &diag).unwrap();
    assert_close(&eager.params, &taped.params, &format!("{what}: params"));
    assert_close(&eager.inputs, &taped.inputs, &format!("{what}: inputs"));
}

#[test]
fn block_reusing_one_parameter_index_accumulates() {
    check_block_case(
        2,
        &[
            Gate::RZ(0, Param::Train(0)),
            Gate::RY(0, Param::Train(1)),
            Gate::RZ(0, Param::Train(0)),
        ],
        1,
        "shared index",
    );
}

#[test]
fn block_mixing_every_rotation_axis() {
    check_block_case(
        2,
        &[
            Gate::RX(1, Param::Train(0)),
            Gate::RY(1, Param::Train(1)),
            Gate::RZ(1, Param::Train(2)),
            Gate::RX(1, Param::Train(3)),
        ],
        1,
        "mixed axes",
    );
}

#[test]
fn fixed_gate_on_the_wire_splits_the_run() {
    check_block_case(
        2,
        &[
            Gate::RY(0, Param::Train(0)),
            Gate::RZ(0, Param::Train(1)),
            Gate::Hadamard(0),
            Gate::RX(0, Param::Fixed(0.3)),
            Gate::RY(0, Param::Train(2)),
        ],
        2,
        "fixed split",
    );
}

#[test]
fn rotation_on_another_wire_interrupts_the_run() {
    check_block_case(
        3,
        &[
            Gate::RZ(0, Param::Train(0)),
            Gate::RY(0, Param::Train(1)),
            Gate::RX(2, Param::Train(2)),
            Gate::RY(0, Param::Train(3)),
        ],
        3,
        "interrupted run",
    );
}

#[test]
fn input_rotation_next_to_a_trainable_one() {
    check_block_case(
        2,
        &[
            Gate::RY(0, Param::Input(0)),
            Gate::RZ(0, Param::Train(0)),
            Gate::RY(0, Param::Train(1)),
            Gate::RX(0, Param::Input(1)),
            Gate::RZ(0, Param::Train(2)),
        ],
        2,
        "input beside trainable",
    );
}

/// A forward-only tape executes like a full one, but every adjoint entry
/// point rejects it with the typed error instead of returning zeros.
#[test]
fn forward_only_tapes_are_rejected_by_the_adjoint_sweep() {
    let n = 3;
    let mut c = Circuit::new(n).unwrap();
    c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
        .unwrap();
    c.extend(strongly_entangling_layers(n, 2, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.1 * i as f64).collect();
    let inputs = [0.2, -0.4, 0.9];
    let tape = c.compile_forward(&params).unwrap();
    let state = tape.execute_on(&inputs, None).unwrap();
    let full = c
        .compile(&params)
        .unwrap()
        .execute_on(&inputs, None)
        .unwrap();
    assert_eq!(state, full);

    let forward_only = Err(QuantumError::ForwardOnlyTape);
    assert_eq!(
        adjoint::backward_expectations_z_tape(&tape, &inputs, None, &[1.0; 3]),
        forward_only
    );
    assert_eq!(
        adjoint::backward_probabilities_tape(&tape, &inputs, None, &[1.0; 8]),
        forward_only
    );
    assert_eq!(
        adjoint::vjp_diagonal_tape(&tape, &inputs, None, &[1.0; 8]),
        forward_only
    );
}

/// Mismatched embedded initial states stay a typed error through the tape
/// pipeline, and recompiling with new parameters is what picks them up —
/// the tape itself is immutable.
#[test]
fn tape_errors_and_immutability() {
    let mut c = Circuit::new(2).unwrap();
    c.ry(0, Param::Train(0)).unwrap();
    let tape = c.compile(&[0.3]).unwrap();
    let wide = StateVector::zero_state(3).unwrap();
    assert!(matches!(
        tape.execute_on(&[], Some(&wide)),
        Err(QuantumError::DimensionMismatch { .. })
    ));

    // New parameters require a new compile; the old tape still answers for
    // the old ones.
    let old = tape.execute_on(&[], None).unwrap();
    let new = c.compile(&[1.1]).unwrap().execute_on(&[], None).unwrap();
    let reference = eager_state(&c, &[0.3], &[]);
    for (a, b) in old.amplitudes().iter().zip(reference.amplitudes()) {
        assert!(a.approx_eq(*b, TOL));
    }
    assert!(old
        .amplitudes()
        .iter()
        .zip(new.amplitudes())
        .any(|(a, b)| !a.approx_eq(*b, 1e-3)));
}

/// Mismatched embedded initial states are a typed error on every executor
/// (run, parameter shift, eager adjoint), not a panic or silent misread.
#[test]
fn mismatched_initial_is_a_typed_error_everywhere() {
    let mut c = Circuit::new(2).unwrap();
    c.ry(0, Param::Train(0)).unwrap();
    let wide = StateVector::zero_state(3).unwrap();
    assert!(matches!(
        c.run(&[0.1], &[], Some(&wide)),
        Err(QuantumError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        paramshift::jacobian_expectations_z(&c, &[0.1], &[], Some(&wide)),
        Err(QuantumError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        adjoint::backward_expectations_z(&c, &[0.1], &[], Some(&wide), &[1.0, 0.0]),
        Err(QuantumError::DimensionMismatch { .. })
    ));
}
