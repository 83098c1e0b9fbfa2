//! Quantum data embeddings.
//!
//! The paper uses two embeddings (§II-C):
//!
//! * **Amplitude embedding** — a feature vector `x ∈ R^d` is uploaded as
//!   `|x⟩ = (1/‖x‖₂) Σ_j x_j |j⟩`, requiring only `⌈log2 d⌉` qubits (qubit
//!   efficient, used by the baseline/scalable *encoders*).
//! * **Angle embedding** — each feature becomes a rotation angle on its own
//!   qubit (one qubit per feature, used by the *decoders* where the latent
//!   vector is small).

use crate::complex::C64;
use crate::error::{QuantumError, Result};
use crate::gate::{Gate, Param};
use crate::state::StateVector;

/// Number of qubits needed to amplitude-embed `n_features` values.
///
/// # Examples
///
/// ```
/// assert_eq!(sqvae_quantum::embed::qubits_for_features(64), 6);
/// assert_eq!(sqvae_quantum::embed::qubits_for_features(1000), 10);
/// assert_eq!(sqvae_quantum::embed::qubits_for_features(1), 1);
/// ```
pub fn qubits_for_features(n_features: usize) -> usize {
    if n_features <= 2 {
        1
    } else {
        (usize::BITS - (n_features - 1).leading_zeros()) as usize
    }
}

/// Amplitude-embeds `features` into an `n_qubits` register, zero-padding up
/// to `2^n_qubits` and L2-normalizing.
///
/// # Errors
///
/// * [`QuantumError::DimensionMismatch`] if more features than `2^n_qubits`.
/// * [`QuantumError::ZeroNorm`] if every feature is zero.
///
/// # Examples
///
/// ```
/// use sqvae_quantum::embed::amplitude_embedding;
///
/// let state = amplitude_embedding(&[1.0, 0.0, 0.0, 1.0], 2)?;
/// assert!((state.probability(0) - 0.5).abs() < 1e-12);
/// assert!((state.probability(3) - 0.5).abs() < 1e-12);
/// # Ok::<(), sqvae_quantum::QuantumError>(())
/// ```
pub fn amplitude_embedding(features: &[f64], n_qubits: usize) -> Result<StateVector> {
    StateVector::validate_register(n_qubits)?;
    let dim = 1usize << n_qubits;
    if features.len() > dim {
        return Err(QuantumError::DimensionMismatch {
            expected: dim,
            actual: features.len(),
        });
    }
    let mut amps = vec![C64::ZERO; dim];
    for (a, &f) in amps.iter_mut().zip(features) {
        *a = C64::real(f);
    }
    StateVector::from_amplitudes(amps)
}

/// Rotation axis used by [`angle_embedding_gates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RotationAxis {
    /// Rotate around X.
    X,
    /// Rotate around Y (the paper's choice; keeps amplitudes real).
    #[default]
    Y,
    /// Rotate around Z (phase-only on basis states).
    Z,
}

/// Builds the gate list for an angle embedding: feature `i` becomes a
/// rotation by `Param::Input(input_offset + i)` on wire `i`.
///
/// Returns `n_qubits` gates; callers append them at the front of a circuit.
///
/// # Examples
///
/// ```
/// use sqvae_quantum::embed::{angle_embedding_gates, RotationAxis};
/// use sqvae_quantum::Circuit;
///
/// let mut c = Circuit::new(3)?;
/// c.extend(angle_embedding_gates(3, RotationAxis::Y, 0))?;
/// assert_eq!(c.n_inputs(), 3);
/// # Ok::<(), sqvae_quantum::QuantumError>(())
/// ```
pub fn angle_embedding_gates(
    n_qubits: usize,
    axis: RotationAxis,
    input_offset: usize,
) -> Vec<Gate> {
    (0..n_qubits)
        .map(|w| {
            let p = Param::Input(input_offset + w);
            match axis {
                RotationAxis::X => Gate::RX(w, p),
                RotationAxis::Y => Gate::RY(w, p),
                RotationAxis::Z => Gate::RZ(w, p),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn qubit_counts() {
        assert_eq!(qubits_for_features(2), 1);
        assert_eq!(qubits_for_features(3), 2);
        assert_eq!(qubits_for_features(4), 2);
        assert_eq!(qubits_for_features(64), 6);
        assert_eq!(qubits_for_features(65), 7);
        assert_eq!(qubits_for_features(1024), 10);
    }

    #[test]
    fn amplitude_embedding_normalizes_and_pads() {
        let s = amplitude_embedding(&[3.0, 4.0], 2).unwrap();
        assert_eq!(s.dim(), 4);
        assert!((s.probability(0) - 0.36).abs() < 1e-12);
        assert!((s.probability(1) - 0.64).abs() < 1e-12);
        assert!(s.probability(2).abs() < 1e-15);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_embedding_matches_paper_definition() {
        // |x⟩ = (1/‖x‖₂) Σ x_j |j⟩.
        let x = [0.5, -0.5, 0.5, 0.5];
        let s = amplitude_embedding(&x, 2).unwrap();
        for (j, &xj) in x.iter().enumerate() {
            assert!((s.amplitude(j).re - xj).abs() < 1e-12);
            assert_eq!(s.amplitude(j).im, 0.0);
        }
    }

    #[test]
    fn amplitude_embedding_rejects_oversized_input() {
        assert!(amplitude_embedding(&[1.0; 5], 2).is_err());
    }

    #[test]
    fn amplitude_embedding_rejects_zero_vector() {
        assert_eq!(
            amplitude_embedding(&[0.0; 4], 2).unwrap_err(),
            QuantumError::ZeroNorm
        );
    }

    #[test]
    fn amplitude_embedding_normalizes_extreme_magnitudes() {
        // 1e155² overflows, 1e-160² is subnormal, 1e-170² underflows to 0.
        for x in [1e155, 1e-160, 1e-170] {
            let s = amplitude_embedding(&[x, x, 0.0, x], 2).unwrap();
            for (i, p) in s.probabilities().into_iter().enumerate() {
                let want = if i == 2 { 0.0 } else { 1.0 / 3.0 };
                assert!((p - want).abs() <= 1e-15, "x = {x}: p[{i}] = {p}");
            }
            assert!(
                (s.norm() - 1.0).abs() <= 1e-15,
                "x = {x}: norm {}",
                s.norm()
            );
        }
        assert_eq!(
            amplitude_embedding(&[0.0, -0.0, 0.0, 0.0], 2).unwrap_err(),
            QuantumError::ZeroNorm
        );
    }

    #[test]
    fn angle_embedding_encodes_each_feature_on_its_wire() {
        let mut c = Circuit::new(2).unwrap();
        c.extend(angle_embedding_gates(2, RotationAxis::Y, 0))
            .unwrap();
        let inputs = [0.4, 1.1];
        let z = c.run_expectations_z(&[], &inputs, None).unwrap();
        // RY(θ)|0⟩ gives ⟨Z⟩ = cos θ on each wire independently.
        assert!((z[0] - inputs[0].cos()).abs() < 1e-12);
        assert!((z[1] - inputs[1].cos()).abs() < 1e-12);
    }

    #[test]
    fn angle_embedding_offset_shifts_input_indices() {
        let gates = angle_embedding_gates(2, RotationAxis::Y, 3);
        assert_eq!(gates[0], Gate::RY(0, Param::Input(3)));
        assert_eq!(gates[1], Gate::RY(1, Param::Input(4)));
    }

    #[test]
    fn z_axis_embedding_leaves_basis_probabilities() {
        let mut c = Circuit::new(1).unwrap();
        c.extend(angle_embedding_gates(1, RotationAxis::Z, 0))
            .unwrap();
        let z = c.run_expectations_z(&[], &[0.9], None).unwrap();
        assert!((z[0] - 1.0).abs() < 1e-12); // phases don't move |0⟩ populations
    }
}
