//! The layer abstraction: explicit forward/backward modules.
//!
//! Instead of a tape-based autograd, every layer caches what it needs in
//! `forward` and produces input gradients in `backward`, accumulating
//! parameter gradients into its [`ParamTensor`]s. This mirrors how the hybrid
//! quantum-classical pipeline composes: the quantum layers implement the same
//! contract with adjoint differentiation inside.

use crate::error::Result;
use crate::exec::ExecPolicy;
use crate::matrix::Matrix;

/// A trainable tensor: value and accumulated gradient of identical shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamTensor {
    /// Current parameter values.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
}

impl ParamTensor {
    /// Wraps an initial value with a zero gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        ParamTensor { value, grad }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// A differentiable layer mapping `[batch, in]` to `[batch, out]`.
///
/// Contract: `backward` must be called after `forward` with an upstream
/// gradient of the same shape as the forward output, and returns the
/// gradient with respect to the forward input. Parameter gradients
/// *accumulate* across calls until [`Module::zero_grad`].
pub trait Module {
    /// Forward pass over a mini-batch.
    ///
    /// # Errors
    ///
    /// Returns shape errors when the input width does not match the layer.
    fn forward(&mut self, input: &Matrix) -> Result<Matrix>;

    /// Backward pass: consumes `dL/d(output)`, returns `dL/d(input)`, and
    /// accumulates `dL/d(params)`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when no forward
    /// activation is cached, or shape errors.
    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix>;

    /// Mutable access to every trainable tensor (possibly none).
    fn parameters(&mut self) -> Vec<&mut ParamTensor>;

    /// Total scalar parameter count.
    fn parameter_count(&mut self) -> usize {
        self.parameters().iter().map(|p| p.len()).sum()
    }

    /// Zeros every parameter gradient.
    fn zero_grad(&mut self) {
        for p in self.parameters() {
            p.zero_grad();
        }
    }

    /// Sets the unified execution policy — batch-row parallelism and
    /// simulator backend in one value. Quantum stages apply both knobs and
    /// containers forward it to their children; the default does nothing,
    /// which is right for purely classical layers.
    fn set_exec_policy(&mut self, _policy: ExecPolicy) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_tensor_zero_grad() {
        let mut p = ParamTensor::new(Matrix::filled(2, 2, 1.0));
        p.grad.fill(3.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }
}
