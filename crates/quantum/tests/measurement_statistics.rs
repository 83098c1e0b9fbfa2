//! Measurement-layer checks against analytically known states, plus
//! unitarity properties of every gate matrix.

use proptest::prelude::*;
use sqvae_quantum::{
    hadamard, pauli_x, pauli_y, pauli_z, rx_matrix, ry_matrix, rz_matrix, Circuit, Param,
    StateVector, C64,
};

fn assert_unitary(m: &[[C64; 2]; 2]) {
    // M·M† = I.
    for r in 0..2 {
        for c in 0..2 {
            let mut s = C64::ZERO;
            for (a, b) in m[r].iter().zip(m[c].iter()) {
                s += *a * b.conj();
            }
            let expected = if r == c { C64::ONE } else { C64::ZERO };
            assert!(s.approx_eq(expected, 1e-12), "M·M†[{r}][{c}] = {s}");
        }
    }
}

#[test]
fn fixed_gate_matrices_are_unitary() {
    for m in [pauli_x(), pauli_y(), pauli_z(), hadamard()] {
        assert_unitary(&m);
    }
}

proptest! {
    #[test]
    fn rotation_matrices_are_unitary(theta in -10.0..10.0f64) {
        assert_unitary(&rx_matrix(theta));
        assert_unitary(&ry_matrix(theta));
        assert_unitary(&rz_matrix(theta));
    }

    /// ⟨Z⟩ of RY(θ)|0⟩ is exactly cos θ, and Var(Z) = sin²θ.
    #[test]
    fn ry_expectation_is_cosine(theta in -6.0..6.0f64) {
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        let state = c.run(&[theta], &[], None).unwrap();
        let z = state.expectation_z(0).unwrap();
        prop_assert!((z - theta.cos()).abs() < 1e-12);
        let var = state.variance_z(0).unwrap();
        prop_assert!((var - theta.sin().powi(2)).abs() < 1e-12);
    }

    /// Probabilities of RY(θ)|0⟩ follow cos²/sin² of the half angle.
    #[test]
    fn ry_probabilities_are_half_angle_squares(theta in -6.0..6.0f64) {
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        let p = c.run_probabilities(&[theta], &[], None).unwrap();
        prop_assert!((p[0] - (theta / 2.0).cos().powi(2)).abs() < 1e-12);
        prop_assert!((p[1] - (theta / 2.0).sin().powi(2)).abs() < 1e-12);
    }
}

#[test]
fn ghz_state_statistics() {
    // H(0), CNOT(0,1), CNOT(1,2) → (|000⟩ + |111⟩)/√2.
    let mut c = Circuit::new(3).unwrap();
    c.h(0).unwrap();
    c.cnot(0, 1).unwrap();
    c.cnot(1, 2).unwrap();
    let state = c.run(&[], &[], None).unwrap();
    let p = state.probabilities();
    assert!((p[0] - 0.5).abs() < 1e-12);
    assert!((p[7] - 0.5).abs() < 1e-12);
    for &q in &p[1..7] {
        assert!(q.abs() < 1e-12);
    }
    // Every single-qubit ⟨Z⟩ is zero, every variance is 1.
    for w in 0..3 {
        assert!(state.expectation_z(w).unwrap().abs() < 1e-12);
        assert!((state.variance_z(w).unwrap() - 1.0).abs() < 1e-12);
    }
}

#[test]
fn global_phase_does_not_change_measurements() {
    // RZ on |0⟩ is a pure phase: probabilities and ⟨Z⟩ unchanged.
    let mut c = Circuit::new(2).unwrap();
    c.h(0).unwrap();
    c.cnot(0, 1).unwrap();
    let before = c.run(&[], &[], None).unwrap();
    let mut c2 = Circuit::new(2).unwrap();
    c2.h(0).unwrap();
    c2.cnot(0, 1).unwrap();
    c2.rz(0, Param::Fixed(1.23)).unwrap();
    c2.rz(1, Param::Fixed(-0.77)).unwrap();
    let after = c2.run(&[], &[], None).unwrap();
    for w in 0..2 {
        assert!((before.expectation_z(w).unwrap() - after.expectation_z(w).unwrap()).abs() < 1e-12);
    }
    for (a, b) in before.probabilities().iter().zip(after.probabilities()) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn shot_sampling_converges_to_probabilities() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut c = Circuit::new(1).unwrap();
    c.ry(0, Param::Fixed(1.0)).unwrap();
    let state = c.run(&[], &[], None).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let est = state.estimate_expectation_z(0, 20_000, &mut rng).unwrap();
    let exact = state.expectation_z(0).unwrap();
    assert!(
        (est - exact).abs() < 0.02,
        "estimate {est} vs exact {exact}"
    );
    // Outcome histogram matches probabilities.
    let outcomes = state.sample_measurements(20_000, &mut rng);
    let ones = outcomes.iter().filter(|&&o| o == 1).count() as f64 / 20_000.0;
    assert!((ones - state.probability(1)).abs() < 0.02);
}

/// The CDF + binary-search sampler consumes the RNG stream identically to
/// the former `O(shots·dim)` linear scan and picks the same outcomes; pin
/// both with a seeded run against an in-test scan reference.
#[test]
fn cdf_sampler_matches_linear_scan_reference_on_seeded_stream() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let linear_scan = |state: &StateVector, shots: usize, rng: &mut StdRng| -> Vec<usize> {
        let probs = state.probabilities();
        (0..shots)
            .map(|_| {
                let mut u: f64 = rng.gen_range(0.0..1.0);
                for (i, &p) in probs.iter().enumerate() {
                    if u < p {
                        return i;
                    }
                    u -= p;
                }
                probs.len() - 1
            })
            .collect()
    };

    let mut c = Circuit::new(3).unwrap();
    c.h(0).unwrap();
    c.ry(1, Param::Fixed(0.9)).unwrap();
    c.cnot(0, 2).unwrap();
    c.rz(2, Param::Fixed(0.4)).unwrap();
    let state = c.run(&[], &[], None).unwrap();

    for seed in [0u64, 7, 42, 1234] {
        let fast = state.sample_measurements(500, &mut StdRng::seed_from_u64(seed));
        let slow = linear_scan(&state, 500, &mut StdRng::seed_from_u64(seed));
        assert_eq!(fast, slow, "seed {seed}");
        // Same seed, same draws: the sampler itself is deterministic.
        let again = state.sample_measurements(500, &mut StdRng::seed_from_u64(seed));
        assert_eq!(fast, again, "seed {seed} determinism");
    }
    // Pin a few absolute outcomes so the stream mapping can never silently
    // change.
    let pinned = state.sample_measurements(8, &mut StdRng::seed_from_u64(42));
    assert_eq!(
        pinned,
        linear_scan(&state, 8, &mut StdRng::seed_from_u64(42))
    );
}

#[test]
fn max_register_bound_is_enforced() {
    assert!(StateVector::zero_state(sqvae_quantum::MAX_QUBITS).is_ok());
    assert!(StateVector::zero_state(sqvae_quantum::MAX_QUBITS + 1).is_err());
    assert!(Circuit::new(0).is_err());
}
