//! Property-based invariants of the simulator and its gradient engines.

use proptest::prelude::*;
use sqvae_quantum::embed::{amplitude_embedding, angle_embedding_gates, RotationAxis};
use sqvae_quantum::grad::{adjoint, finite_diff, paramshift};
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::{Circuit, Gate, Param, StateVector};

/// Strategy: a random gate over `n` wires referencing at most `np` params.
fn arb_gate(n: usize, np: usize) -> impl Strategy<Value = Gate> {
    let wire = 0..n;
    let wire2 = 0..n;
    let param = prop_oneof![
        (-3.0..3.0f64).prop_map(Param::Fixed),
        (0..np).prop_map(Param::Train),
    ];
    (wire, wire2, param, 0..8u8).prop_map(move |(w, w2, p, kind)| {
        let w2 = if w2 == w { (w + 1) % n } else { w2 };
        match kind {
            0 => Gate::Hadamard(w),
            1 => Gate::RX(w, p),
            2 => Gate::RY(w, p),
            3 => Gate::RZ(w, p),
            4 => Gate::PauliX(w),
            5 if n > 1 => Gate::CNOT(w, w2),
            6 => Gate::PauliY(w),
            7 => Gate::PauliZ(w),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any circuit of unitaries preserves the norm of the state.
    #[test]
    fn circuits_preserve_norm(
        gates in proptest::collection::vec(arb_gate(3, 4), 1..24),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
    ) {
        let c = build_circuit(3, gates);
        let s = c.run(&params, &[], None).unwrap();
        prop_assert!((s.norm() - 1.0).abs() < 1e-9);
    }

    /// Probabilities are a distribution: non-negative, summing to 1.
    #[test]
    fn probabilities_form_distribution(
        gates in proptest::collection::vec(arb_gate(3, 4), 1..24),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
    ) {
        let c = build_circuit(3, gates);
        let p = c.run_probabilities(&params, &[], None).unwrap();
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// Z expectations are bounded in [-1, 1].
    #[test]
    fn expectations_bounded(
        gates in proptest::collection::vec(arb_gate(2, 3), 1..16),
        params in proptest::collection::vec(-3.0..3.0f64, 3),
    ) {
        let c = build_circuit(2, gates);
        for z in c.run_expectations_z(&params, &[], None).unwrap() {
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&z));
        }
    }

    /// Adjoint and parameter-shift gradients agree on random circuits.
    #[test]
    fn adjoint_matches_paramshift(
        gates in proptest::collection::vec(arb_gate(2, 3), 1..12),
        params in proptest::collection::vec(-2.0..2.0f64, 3),
        upstream in proptest::collection::vec(-1.5..1.5f64, 2),
    ) {
        let c = build_circuit(2, gates);
        let adj = adjoint::backward_expectations_z(&c, &params, &[], None, &upstream).unwrap();
        let ps = paramshift::vjp_expectations_z(&c, &params, &[], None, &upstream).unwrap();
        for (a, b) in adj.params.iter().zip(&ps.params) {
            prop_assert!((a - b).abs() < 1e-8, "adjoint {} vs paramshift {}", a, b);
        }
    }

    /// Adjoint gradients agree with the central finite-difference oracle on
    /// random circuits and angles (the adjoint engine is the training path;
    /// finite differences are the model-free ground truth).
    #[test]
    fn adjoint_matches_finite_difference(
        gates in proptest::collection::vec(arb_gate(2, 3), 1..10),
        params in proptest::collection::vec(-2.0..2.0f64, 3),
        upstream in proptest::collection::vec(-1.0..1.0f64, 2),
    ) {
        let c = build_circuit(2, gates);
        let adj = adjoint::backward_expectations_z(&c, &params, &[], None, &upstream).unwrap();
        let measure = |s: &StateVector| {
            vec![s.expectation_z(0).unwrap(), s.expectation_z(1).unwrap()]
        };
        let jac = finite_diff::jacobian_params(
            &c, &params, &[], None, finite_diff::DEFAULT_EPS, measure,
        )
        .unwrap();
        for (k, row) in jac.iter().enumerate() {
            let fd: f64 = row.iter().zip(&upstream).map(|(j, u)| j * u).sum();
            prop_assert!(
                (adj.params[k] - fd).abs() < 1e-4,
                "param {}: adjoint {} vs finite diff {}",
                k, adj.params[k], fd
            );
        }
    }

    /// Adjoint *input* gradients (angle embeddings) also agree with the
    /// finite-difference oracle.
    #[test]
    fn adjoint_input_gradients_match_finite_difference(
        inputs in proptest::collection::vec(-1.5..1.5f64, 3),
        params in proptest::collection::vec(-2.0..2.0f64, 4),
        upstream in proptest::collection::vec(-1.0..1.0f64, 3),
    ) {
        let n = 3;
        let mut c = Circuit::new(n).unwrap();
        c.extend(angle_embedding_gates(n, RotationAxis::Y, 0)).unwrap();
        c.extend(strongly_entangling_layers(n, 1, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let params = &params[..c.n_params().min(params.len())];
        let params: Vec<f64> = params
            .iter()
            .copied()
            .chain(std::iter::repeat(0.5))
            .take(c.n_params())
            .collect();
        let adj = adjoint::backward_expectations_z(&c, &params, &inputs, None, &upstream).unwrap();
        let measure = |s: &StateVector| {
            (0..n).map(|w| s.expectation_z(w).unwrap()).collect::<Vec<_>>()
        };
        let jac = finite_diff::jacobian_inputs(
            &c, &params, &inputs, None, finite_diff::DEFAULT_EPS, measure,
        )
        .unwrap();
        for (k, row) in jac.iter().enumerate() {
            let fd: f64 = row.iter().zip(&upstream).map(|(j, u)| j * u).sum();
            prop_assert!(
                (adj.inputs[k] - fd).abs() < 1e-4,
                "input {}: adjoint {} vs finite diff {}",
                k, adj.inputs[k], fd
            );
        }
    }

    /// Amplitude embedding reproduces the normalized input exactly.
    #[test]
    fn amplitude_embedding_round_trip(
        features in proptest::collection::vec(0.01..1.0f64, 8),
    ) {
        let s = amplitude_embedding(&features, 3).unwrap();
        let norm: f64 = features.iter().map(|x| x * x).sum::<f64>().sqrt();
        for (j, &f) in features.iter().enumerate() {
            prop_assert!((s.amplitude(j).re - f / norm).abs() < 1e-12);
        }
    }

    /// Running a circuit twice with identical bindings is deterministic.
    #[test]
    fn execution_is_deterministic(
        gates in proptest::collection::vec(arb_gate(3, 4), 1..20),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
    ) {
        let c = build_circuit(3, gates);
        let a = c.run(&params, &[], None).unwrap();
        let b = c.run(&params, &[], None).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Un-applying every gate in reverse restores the initial state.
    #[test]
    fn inverse_restores_initial_state(
        gates in proptest::collection::vec(arb_gate(3, 4), 1..20),
        params in proptest::collection::vec(-3.0..3.0f64, 4),
    ) {
        let c = build_circuit(3, gates);
        let mut s = c.run(&params, &[], None).unwrap();
        for g in c.ops().iter().rev() {
            let theta = g.param().map_or(0.0, |p| p.resolve(&params, &[]));
            g.apply_inverse(&mut s, theta).unwrap();
        }
        let init = StateVector::zero_state(3).unwrap();
        for (a, b) in s.amplitudes().iter().zip(init.amplitudes()) {
            prop_assert!(a.approx_eq(*b, 1e-9));
        }
    }
}

#[test]
fn entangling_template_gradients_cross_validate_with_embedding() {
    // The full encoder shape used by the paper: angle embedding + strongly
    // entangling layers, gradients w.r.t. both inputs and parameters.
    let n = 4;
    let mut c = Circuit::new(n).unwrap();
    c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
        .unwrap();
    c.extend(strongly_entangling_layers(n, 2, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| (i as f64) * 0.1 - 1.0).collect();
    let inputs: Vec<f64> = (0..n).map(|i| 0.2 * (i as f64) + 0.1).collect();
    let upstream: Vec<f64> = (0..n).map(|i| 1.0 - 0.3 * i as f64).collect();

    let adj = adjoint::backward_expectations_z(&c, &params, &inputs, None, &upstream).unwrap();
    let ps = paramshift::vjp_expectations_z(&c, &params, &inputs, None, &upstream).unwrap();

    for (a, b) in adj.params.iter().zip(&ps.params) {
        assert!((a - b).abs() < 1e-9);
    }
    for (a, b) in adj.inputs.iter().zip(&ps.inputs) {
        assert!((a - b).abs() < 1e-9);
    }
    assert!(
        adj.params.iter().any(|g| g.abs() > 1e-6),
        "gradients should be non-trivial"
    );
}
