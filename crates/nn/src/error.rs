//! Error type for the neural-network substrate.

use std::error::Error;
use std::fmt;

/// Errors raised by matrix operations and layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Operand shapes are incompatible.
    ShapeMismatch {
        /// Shape the operation required.
        expected: (usize, usize),
        /// Shape that was provided.
        actual: (usize, usize),
    },
    /// A layer was asked to run backward before any forward pass.
    BackwardBeforeForward,
    /// An optimizer was stepped over a different number of parameter tensors
    /// than it was first used with.
    OptimizerStateMismatch {
        /// Tensors tracked by the optimizer.
        expected: usize,
        /// Tensors supplied to this step.
        actual: usize,
    },
    /// Training diverged: non-finite losses or gradients kept appearing
    /// after the trainer's guard rail used up its rollback budget (see
    /// `sqvae_core::TrainConfig::max_nan_recoveries`); the model is left on
    /// its last good weights.
    NonFinite {
        /// Epoch (0-based) of the final, unrecoverable event.
        epoch: usize,
        /// Rollbacks the guard attempted before giving up.
        recoveries: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch { expected, actual } => write!(
                f,
                "shape mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
            NnError::BackwardBeforeForward => {
                write!(f, "backward called before forward")
            }
            NnError::OptimizerStateMismatch { expected, actual } => write!(
                f,
                "optimizer state mismatch: tracking {expected} tensors, got {actual}"
            ),
            NnError::NonFinite { epoch, recoveries } => write!(
                f,
                "training diverged at epoch {epoch}: non-finite loss/gradients persisted \
                 after {recoveries} rollback(s)"
            ),
        }
    }
}

impl Error for NnError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, NnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NnError::ShapeMismatch {
            expected: (2, 3),
            actual: (3, 2),
        };
        assert_eq!(e.to_string(), "shape mismatch: expected 2x3, got 3x2");
        assert!(NnError::BackwardBeforeForward
            .to_string()
            .contains("backward"));
    }
}
