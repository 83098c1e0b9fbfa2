//! Backend equivalence: the structure-of-arrays SIMD backend must reproduce
//! the dense reference backend — forward states, measurements, and adjoint
//! gradients — to ≤ 1e-12 on randomized circuits, and every backend must be
//! fully deterministic for a fixed selection.

use proptest::prelude::*;
use sqvae_quantum::backend::{Backend, DenseBackend, SoaDenseBackend};
use sqvae_quantum::embed::{amplitude_embedding, angle_embedding_gates, RotationAxis};
use sqvae_quantum::grad::{adjoint, paramshift};
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::{Circuit, Gate, Param};

const TOL: f64 = 1e-12;

/// Strategy: a random gate over `n` wires referencing at most `np` trainable
/// parameters and `ni` input features, spanning every gate kind (the SoA
/// backend specializes single-qubit runs and CNOT runs).
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

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what} length");
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() <= TOL, "{what}: {x} vs {y}");
    }
}

/// Forward execution on `B` reproduces the dense amplitudes, per-wire
/// expectations, and probabilities.
fn check_forward_matches_dense<B: Backend>(c: &Circuit, params: &[f64], inputs: &[f64]) {
    let dense: DenseBackend = c.run_on(params, inputs, None).unwrap();
    let other: B = c.run_on(params, inputs, None).unwrap();
    let other_sv = other.to_statevector();
    for (a, b) in dense.amplitudes().iter().zip(other_sv.amplitudes()) {
        assert!(a.approx_eq(*b, TOL), "{} amplitude {a} vs {b}", B::NAME);
    }
    assert_close(
        &c.expectations_z_all(&dense).unwrap(),
        &c.expectations_z_all(&other).unwrap(),
        &format!("{} expectations", B::NAME),
    );
    assert_close(
        &Backend::probabilities(&dense),
        &other.probabilities(),
        &format!("{} probabilities", B::NAME),
    );
    // The reuse-buffer readout is the same numbers as the allocating one.
    let mut reused = Vec::new();
    other.probabilities_into(&mut reused);
    assert_eq!(reused, other.probabilities(), "{} readout", B::NAME);
}

/// Adjoint gradients (parameters AND inputs) on `B` reproduce the dense
/// ones for the ⟨Z⟩ readout.
fn check_adjoint_matches_dense_expectations<B: Backend>(
    c: &Circuit,
    params: &[f64],
    inputs: &[f64],
    upstream: &[f64],
) {
    let dense =
        adjoint::backward_expectations_z_on::<DenseBackend>(c, params, inputs, None, upstream)
            .unwrap();
    let other =
        adjoint::backward_expectations_z_on::<B>(c, params, inputs, None, upstream).unwrap();
    assert_close(
        &dense.params,
        &other.params,
        &format!("{} param gradients", B::NAME),
    );
    assert_close(
        &dense.inputs,
        &other.inputs,
        &format!("{} input gradients", B::NAME),
    );
}

/// Same for the probability readout (the baseline decoder's measurement).
fn check_adjoint_matches_dense_probabilities<B: Backend>(
    c: &Circuit,
    params: &[f64],
    inputs: &[f64],
    upstream: &[f64],
) {
    let dense =
        adjoint::backward_probabilities_on::<DenseBackend>(c, params, inputs, None, upstream)
            .unwrap();
    let other = adjoint::backward_probabilities_on::<B>(c, params, inputs, None, upstream).unwrap();
    assert_close(
        &dense.params,
        &other.params,
        &format!("{} param gradients", B::NAME),
    );
    assert_close(
        &dense.inputs,
        &other.inputs,
        &format!("{} input gradients", B::NAME),
    );
}

/// Parameter-shift Jacobians executed on `B` agree with the dense ones.
fn check_paramshift_matches_dense<B: Backend>(c: &Circuit, params: &[f64], inputs: &[f64]) {
    let (dp, di) =
        paramshift::jacobian_expectations_z_on::<DenseBackend>(c, params, inputs, None).unwrap();
    let (op, oi) = paramshift::jacobian_expectations_z_on::<B>(c, params, inputs, None).unwrap();
    for (a, b) in dp.iter().flatten().zip(op.iter().flatten()) {
        assert!((a - b).abs() <= TOL, "{} param jac {a} vs {b}", B::NAME);
    }
    for (a, b) in di.iter().flatten().zip(oi.iter().flatten()) {
        assert!((a - b).abs() <= TOL, "{} input jac {a} vs {b}", B::NAME);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SoA forward execution reproduces the dense amplitudes,
    /// per-wire expectations, and probabilities.
    #[test]
    fn optimized_forward_matches_dense(
        gates in proptest::collection::vec(arb_gate(3, 4, 2), 1..32),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
        inputs in proptest::collection::vec(-2.0..2.0f64, 2),
    ) {
        let c = build_circuit(3, gates);
        check_forward_matches_dense::<SoaDenseBackend>(&c, &params, &inputs);
    }

    /// SoA adjoint gradients (parameters AND inputs) reproduce the dense
    /// ones for the ⟨Z⟩ readout.
    #[test]
    fn optimized_adjoint_matches_dense_expectations(
        gates in proptest::collection::vec(arb_gate(3, 4, 2), 1..24),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
        inputs in proptest::collection::vec(-2.0..2.0f64, 2),
        upstream in proptest::collection::vec(-1.5..1.5f64, 3),
    ) {
        let c = build_circuit(3, gates);
        check_adjoint_matches_dense_expectations::<SoaDenseBackend>(&c, &params, &inputs, &upstream);
    }

    /// Same for the probability readout (the baseline decoder's measurement).
    #[test]
    fn optimized_adjoint_matches_dense_probabilities(
        gates in proptest::collection::vec(arb_gate(2, 3, 1), 1..20),
        params in proptest::collection::vec(-3.0..3.0f64, 3),
        inputs in proptest::collection::vec(-2.0..2.0f64, 1),
        upstream in proptest::collection::vec(-1.0..1.0f64, 4),
    ) {
        let c = build_circuit(2, gates);
        check_adjoint_matches_dense_probabilities::<SoaDenseBackend>(&c, &params, &inputs, &upstream);
    }

    /// Parameter-shift Jacobians executed on the SoA backend agree with the
    /// dense ones.
    #[test]
    fn optimized_paramshift_matches_dense(
        gates in proptest::collection::vec(arb_gate(2, 3, 1), 1..12),
        params in proptest::collection::vec(-3.0..3.0f64, 3),
        inputs in proptest::collection::vec(-2.0..2.0f64, 1),
    ) {
        let c = build_circuit(2, gates);
        check_paramshift_matches_dense::<SoaDenseBackend>(&c, &params, &inputs);
    }
}

/// The paper's baseline encoder circuit — angle embedding plus 3
/// strongly-entangling layers on 6 qubits — is exactly the shape the
/// SoA backend specializes (RZ·RY·RZ runs + CNOT ring); pin its
/// equivalence there.
#[test]
fn paper_template_matches_on_all_backends() {
    let n = 6;
    let mut c = Circuit::new(n).unwrap();
    c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
        .unwrap();
    c.extend(strongly_entangling_layers(n, 3, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.05 * i as f64 - 1.2).collect();
    let inputs: Vec<f64> = (0..n).map(|i| 0.3 * i as f64 - 0.8).collect();
    let upstream: Vec<f64> = (0..n).map(|i| 1.0 - 0.4 * i as f64).collect();

    check_forward_matches_dense::<SoaDenseBackend>(&c, &params, &inputs);
    check_adjoint_matches_dense_expectations::<SoaDenseBackend>(&c, &params, &inputs, &upstream);
}

/// Amplitude-embedded initial states flow through the SoA backend too.
#[test]
fn amplitude_embedded_initial_matches() {
    fn check<B: Backend>() {
        let mut c = Circuit::new(2).unwrap();
        c.extend(strongly_entangling_layers(2, 2, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.09 * (i + 1) as f64).collect();
        let init = amplitude_embedding(&[0.1, 0.5, 0.3, 0.7], 2).unwrap();

        let dense = c.run(&params, &[], Some(&init)).unwrap();
        let other: B = c
            .run_on(&params, &[], Some(&B::from_statevector(init.clone())))
            .unwrap();
        let other_sv = other.to_statevector();
        for (a, b) in dense.amplitudes().iter().zip(other_sv.amplitudes()) {
            assert!(a.approx_eq(*b, TOL), "{}: {a} vs {b}", B::NAME);
        }

        let gd =
            adjoint::backward_expectations_z(&c, &params, &[], Some(&init), &[1.0, -0.5]).unwrap();
        let gf = adjoint::backward_expectations_z_on(
            &c,
            &params,
            &[],
            Some(&B::from_statevector(init)),
            &[1.0, -0.5],
        )
        .unwrap();
        assert_close(&gd.params, &gf.params, "embedded-initial grads");
    }
    check::<SoaDenseBackend>();
}

/// A fixed backend selection is fully deterministic: two executions produce
/// bit-identical amplitudes.
#[test]
fn optimized_backends_are_deterministic() {
    let mut c = Circuit::new(4).unwrap();
    c.extend(strongly_entangling_layers(4, 3, 0, EntangleRange::PennyLane).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.11 * i as f64 - 1.7).collect();
    let a: DenseBackend = c.run_on(&params, &[], None).unwrap();
    let b: DenseBackend = c.run_on(&params, &[], None).unwrap();
    assert_eq!(a, b);
    let a: SoaDenseBackend = c.run_on(&params, &[], None).unwrap();
    let b: SoaDenseBackend = c.run_on(&params, &[], None).unwrap();
    assert_eq!(a, b);
}

/// Mismatched embedded initial states are a typed error on every backend and
/// every executor (run, parameter shift), not a panic or silent misread.
#[test]
fn mismatched_initial_is_a_typed_error_everywhere() {
    let mut c = Circuit::new(2).unwrap();
    c.ry(0, Param::Train(0)).unwrap();
    let wide = SoaDenseBackend::zero_state(3).unwrap();
    assert!(matches!(
        c.run_on(&[0.1], &[], Some(&wide)),
        Err(sqvae_quantum::QuantumError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        paramshift::jacobian_expectations_z_on(&c, &[0.1], &[], Some(&wide)),
        Err(sqvae_quantum::QuantumError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        adjoint::backward_expectations_z_on(&c, &[0.1], &[], Some(&wide), &[1.0, 0.0]),
        Err(sqvae_quantum::QuantumError::DimensionMismatch { .. })
    ));
}
