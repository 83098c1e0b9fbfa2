//! The layer abstraction: explicit forward/backward modules.
//!
//! Instead of a tape-based autograd, every layer keeps what its backward
//! needs in `forward` and produces input gradients in `backward`,
//! accumulating parameter gradients into its [`ParamTensor`]s. Evaluation
//! runs `infer`, which computes the same outputs and keeps nothing. This
//! mirrors how the hybrid quantum-classical pipeline composes: the quantum
//! layers implement the same contract with adjoint differentiation inside,
//! keeping each row's final simulator register from forward to backward.

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
/// Contract:
///
/// * [`Module::forward`] is the training forward. It keeps what the
///   matching [`Module::backward`] reads: the input of a classical layer,
///   or the compiled circuit and every row's final register of a quantum
///   layer. Each `forward` replaces what the previous one kept.
/// * [`Module::backward`] must follow a `forward`, with an upstream
///   gradient of the forward output's shape, and returns the gradient with
///   respect to the forward input. It differentiates the forward that ran:
///   parameter values changed in between (an optimizer step, a snapshot
///   restore) do not enter the quantum layers' gradients, which sweep from
///   the kept registers and consume them, so a second `backward` without a
///   new `forward` is [`crate::NnError::BackwardBeforeForward`] there.
///   Parameter gradients *accumulate* across calls until
///   [`Module::zero_grad`].
/// * [`Module::infer`] is the evaluation forward: the same output bits as
///   `forward`, but it keeps nothing and leaves what `backward` reads
///   untouched.
pub trait Module {
    /// Training forward pass over a mini-batch; keeps what
    /// [`Module::backward`] reads.
    ///
    /// # Errors
    ///
    /// Returns shape errors when the input width does not match the layer.
    fn forward(&mut self, input: &Matrix) -> Result<Matrix>;

    /// Evaluation forward pass: returns the bits [`Module::forward`] would,
    /// keeps nothing, and cannot disturb a pending [`Module::backward`].
    ///
    /// # Errors
    ///
    /// Returns shape errors when the input width does not match the layer.
    fn infer(&self, input: &Matrix) -> Result<Matrix>;

    /// Backward pass: consumes `dL/d(output)`, returns `dL/d(input)`, and
    /// accumulates `dL/d(params)`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when nothing from a
    /// forward pass is kept, or shape errors.
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
    /// simulator backend in one value. Quantum stages apply both knobs,
    /// [`crate::Linear`] shards its products under the threads, and
    /// containers forward it to their children; the default does nothing,
    /// which is right for layers with no rows to shard (activations).
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
