//! Fully connected layer.

use crate::error::{NnError, Result};
use crate::exec::ExecPolicy;
use crate::init;
use crate::matrix::Matrix;
use crate::module::{Module, ParamTensor};
use rand::Rng;

/// A dense affine layer `y = x·W + b` with `W: [in, out]`, `b: [1, out]`.
///
/// Its products shard their output rows over the compute pool under the
/// layer's [`ExecPolicy`] threads (see [`Matrix::matmul_sharded`]); every
/// thread count gives the same bits.
///
/// # Examples
///
/// ```
/// use sqvae_nn::{Linear, Matrix, Module};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut layer = Linear::new(4, 2, &mut rng);
/// let x = Matrix::zeros(8, 4);
/// let y = layer.forward(&x)?;
/// assert_eq!(y.shape(), (8, 2));
/// # Ok::<(), sqvae_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamTensor,
    bias: ParamTensor,
    cached_input: Option<Matrix>,
    exec: ExecPolicy,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias. Its
    /// execution policy starts as [`ExecPolicy::from_env`].
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: ParamTensor::new(init::xavier_uniform(in_features, out_features, rng)),
            bias: ParamTensor::new(Matrix::zeros(1, out_features)),
            cached_input: None,
            exec: ExecPolicy::from_env(),
        }
    }

    /// Creates a layer from explicit weight and bias values (for tests).
    ///
    /// # Errors
    ///
    /// Returns a shape error when `bias` is not `1 × weight.cols()`.
    pub fn from_parts(weight: Matrix, bias: Matrix) -> Result<Self> {
        if bias.rows() != 1 || bias.cols() != weight.cols() {
            return Err(NnError::ShapeMismatch {
                expected: (1, weight.cols()),
                actual: bias.shape(),
            });
        }
        Ok(Linear {
            weight: ParamTensor::new(weight),
            bias: ParamTensor::new(bias),
            cached_input: None,
            exec: ExecPolicy::from_env(),
        })
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weight.value.cols()
    }

    /// Borrow of the weight tensor.
    pub fn weight(&self) -> &ParamTensor {
        &self.weight
    }

    /// Borrow of the bias tensor.
    pub fn bias(&self) -> &ParamTensor {
        &self.bias
    }

    /// The layer's execution policy: [`ExecPolicy::from_env`] until
    /// [`Module::set_exec_policy`] changes it.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.exec
    }
}

impl Module for Linear {
    fn forward(&mut self, input: &Matrix) -> Result<Matrix> {
        let out = self.infer(input)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn infer(&self, input: &Matrix) -> Result<Matrix> {
        let mut out = input.matmul_sharded(&self.weight.value, self.exec.threads)?;
        out.add_row_broadcast(&self.bias.value)?;
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward)?;
        // dW = xᵀ · g ; db = column sums of g ; dx = g · Wᵀ.
        let threads = self.exec.threads;
        let grad_w = input.transpose_matmul_sharded(grad_output, threads)?;
        self.weight.grad.add_scaled(&grad_w, 1.0)?;
        self.bias.grad.add_scaled(&grad_output.column_sums(), 1.0)?;
        grad_output.matmul_transpose_sharded(&self.weight.value, threads)
    }

    fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_exec_policy(&mut self, policy: ExecPolicy) {
        self.exec = policy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixed_layer() -> Linear {
        Linear::from_parts(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap(),
            Matrix::row_vector(&[0.5, -0.5]),
        )
        .unwrap()
    }

    #[test]
    fn forward_is_affine() {
        let mut l = fixed_layer();
        let x = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 1.0]]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y, Matrix::from_rows(&[&[1.5, 1.5], &[8.5, 9.5]]).unwrap());
    }

    #[test]
    fn parameter_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(64, 32, &mut rng);
        assert_eq!(l.parameter_count(), 64 * 32 + 32);
        assert_eq!(l.in_features(), 64);
        assert_eq!(l.out_features(), 32);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut l = fixed_layer();
        assert_eq!(
            l.backward(&Matrix::zeros(1, 2)).unwrap_err(),
            NnError::BackwardBeforeForward
        );
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.25, -0.75]]).unwrap();
        // Loss = sum of outputs → upstream gradient of ones.
        let ones = Matrix::filled(2, 2, 1.0);
        let y = l.forward(&x).unwrap();
        let grad_x = l.backward(&ones).unwrap();
        let base: f64 = y.sum();
        let eps = 1e-6;

        // Check dL/dW numerically for a few entries.
        for (r, c) in [(0, 0), (2, 1), (1, 0)] {
            let mut lp = l.clone();
            let v = lp.weight.value.get(r, c);
            lp.weight.value.set(r, c, v + eps);
            let fp = lp.forward(&x).unwrap().sum();
            let fd = (fp - base) / eps;
            assert!(
                (l.weight.grad.get(r, c) - fd).abs() < 1e-4,
                "dW[{r},{c}]: {} vs {fd}",
                l.weight.grad.get(r, c)
            );
        }
        // Check dL/dx numerically.
        for (r, c) in [(0, 0), (1, 2)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let mut lf = l.clone();
            lf.cached_input = None;
            let fp = lf.forward(&xp).unwrap().sum();
            let fd = (fp - base) / eps;
            assert!((grad_x.get(r, c) - fd).abs() < 1e-4);
        }
        // Bias gradient: dL/db_j = batch size (2) for a sum loss.
        assert!((l.bias.grad.get(0, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = fixed_layer();
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap();
        let g = Matrix::filled(1, 2, 1.0);
        l.forward(&x).unwrap();
        l.backward(&g).unwrap();
        let first = l.weight.grad.clone();
        l.forward(&x).unwrap();
        l.backward(&g).unwrap();
        assert_eq!(l.weight.grad, first.scale(2.0));
        l.zero_grad();
        assert_eq!(l.weight.grad.sum(), 0.0);
    }

    #[test]
    fn from_parts_validates_bias_shape() {
        assert!(Linear::from_parts(Matrix::zeros(3, 2), Matrix::zeros(1, 3)).is_err());
    }
}
