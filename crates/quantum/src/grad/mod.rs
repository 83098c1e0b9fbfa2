//! Circuit differentiation.
//!
//! PennyLane's automatic differentiation (used by the paper) is rebuilt here
//! with three interchangeable engines:
//!
//! * [`adjoint`] — reverse-mode vector-Jacobian products against diagonal
//!   observables in a single backward sweep; the production path used by the
//!   hybrid training loop (exact, O(gates · dim)).
//! * [`paramshift`] — the hardware-compatible two-term parameter-shift rule
//!   (every parametrized gate is a single-qubit rotation); the method the
//!   reproduction notes call out for manual gradients.
//! * [`finite_diff`] — central differences, used only as a test oracle.
//!
//! All three agree to high precision; the test suites of each module and the
//! crate-level property tests cross-validate them.

pub mod adjoint;
pub mod finite_diff;
pub mod paramshift;

/// Gradients of a scalar loss with respect to a circuit's trainable
/// parameters and its embedded input features.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CircuitGradients {
    /// `dL/dθ` for each trainable parameter index.
    pub params: Vec<f64>,
    /// `dL/dx` for each input-feature index (angle embeddings).
    pub inputs: Vec<f64>,
}

impl CircuitGradients {
    /// Zero gradients of the given sizes.
    pub fn zeros(n_params: usize, n_inputs: usize) -> Self {
        CircuitGradients {
            params: vec![0.0; n_params],
            inputs: vec![0.0; n_inputs],
        }
    }
}
