//! Error type shared across the simulator.

use std::error::Error;
use std::fmt;

/// Errors raised while constructing or executing quantum circuits.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantumError {
    /// A wire index was at least the circuit's qubit count.
    WireOutOfRange {
        /// The offending wire.
        wire: usize,
        /// Number of qubits in the register.
        n_qubits: usize,
    },
    /// A control wire equals its target wire.
    ControlEqualsTarget {
        /// The duplicated wire.
        wire: usize,
    },
    /// The provided amplitude/feature vector does not fit the register.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        actual: usize,
    },
    /// An amplitude vector had (numerically) zero norm and cannot be embedded.
    ZeroNorm,
    /// The number of bound trainable parameters does not match the circuit.
    ParamCountMismatch {
        /// Parameters the circuit references.
        expected: usize,
        /// Parameters supplied by the caller.
        actual: usize,
    },
    /// The number of bound input features does not match the circuit.
    InputCountMismatch {
        /// Inputs the circuit references.
        expected: usize,
        /// Inputs supplied by the caller.
        actual: usize,
    },
    /// A register size was requested that is not supported (0 or > 24 qubits).
    UnsupportedRegisterSize {
        /// Requested number of qubits.
        n_qubits: usize,
    },
    /// A trajectory average was requested over zero trajectories — there is
    /// no mean of an empty sample, and silently substituting one run would
    /// misreport the caller's requested precision.
    ZeroTrajectories,
    /// An adjoint sweep was asked of a tape compiled without its adjoint
    /// program ([`crate::Circuit::compile_forward`]); compile it with
    /// [`crate::Circuit::compile`] to differentiate.
    ForwardOnlyTape,
}

impl fmt::Display for QuantumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantumError::WireOutOfRange { wire, n_qubits } => {
                write!(f, "wire {wire} out of range for {n_qubits}-qubit register")
            }
            QuantumError::ControlEqualsTarget { wire } => {
                write!(f, "control wire {wire} equals target wire")
            }
            QuantumError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            QuantumError::ZeroNorm => {
                write!(f, "cannot normalize a zero-norm amplitude vector")
            }
            QuantumError::ParamCountMismatch { expected, actual } => {
                write!(
                    f,
                    "parameter count mismatch: circuit uses {expected}, got {actual}"
                )
            }
            QuantumError::InputCountMismatch { expected, actual } => {
                write!(
                    f,
                    "input count mismatch: circuit uses {expected}, got {actual}"
                )
            }
            QuantumError::UnsupportedRegisterSize { n_qubits } => {
                write!(
                    f,
                    "unsupported register size of {n_qubits} qubits (must be 1..=24)"
                )
            }
            QuantumError::ZeroTrajectories => {
                write!(f, "cannot average expectations over zero trajectories")
            }
            QuantumError::ForwardOnlyTape => {
                write!(
                    f,
                    "tape was compiled forward-only and carries no adjoint program"
                )
            }
        }
    }
}

impl Error for QuantumError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, QuantumError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = QuantumError::WireOutOfRange {
            wire: 7,
            n_qubits: 4,
        };
        assert_eq!(e.to_string(), "wire 7 out of range for 4-qubit register");
        let e = QuantumError::ZeroNorm;
        assert!(e.to_string().contains("zero-norm"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuantumError>();
    }
}
