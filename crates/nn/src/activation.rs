//! Element-wise activation layers.

use crate::error::{NnError, Result};
use crate::matrix::Matrix;
use crate::module::{Module, ParamTensor};

/// The activation function applied by an [`Activation`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActivationKind {
    /// `max(0, x)` — used by the paper's classical encoder/decoder stacks.
    #[default]
    Relu,
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Leaky ReLU with slope 0.01 on the negative side.
    LeakyRelu,
    /// Identity (handy for configurable stacks).
    Identity,
}

/// A stateless element-wise activation.
///
/// # Examples
///
/// ```
/// use sqvae_nn::{Activation, ActivationKind, Matrix, Module};
///
/// let mut relu = Activation::new(ActivationKind::Relu);
/// let y = relu.forward(&Matrix::from_rows(&[&[-1.0, 2.0]])?)?;
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// # Ok::<(), sqvae_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActivationKind,
    cached_input: Option<Matrix>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation {
            kind,
            cached_input: None,
        }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    fn apply(kind: ActivationKind, x: f64) -> f64 {
        match kind {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            ActivationKind::Identity => x,
        }
    }

    fn derivative(kind: ActivationKind, x: f64) -> f64 {
        match kind {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Sigmoid => {
                let s = Self::apply(ActivationKind::Sigmoid, x);
                s * (1.0 - s)
            }
            ActivationKind::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            ActivationKind::LeakyRelu => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            ActivationKind::Identity => 1.0,
        }
    }
}

impl Module for Activation {
    fn forward(&mut self, input: &Matrix) -> Result<Matrix> {
        self.cached_input = Some(input.clone());
        self.infer(input)
    }

    fn infer(&self, input: &Matrix) -> Result<Matrix> {
        Ok(input.map(|x| Self::apply(self.kind, x)))
    }

    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward)?;
        if input.shape() != grad_output.shape() {
            return Err(NnError::ShapeMismatch {
                expected: input.shape(),
                actual: grad_output.shape(),
            });
        }
        Ok(input.zip_map(grad_output, |x, g| Self::derivative(self.kind, x) * g))
    }

    fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_derivative(kind: ActivationKind, x: f64) {
        let eps = 1e-6;
        let f = |v: f64| Activation::apply(kind, v);
        let fd = (f(x + eps) - f(x - eps)) / (2.0 * eps);
        let an = Activation::derivative(kind, x);
        assert!((fd - an).abs() < 1e-5, "{kind:?} at {x}: {an} vs {fd}");
    }

    #[test]
    fn derivatives_match_finite_differences() {
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Sigmoid,
            ActivationKind::Tanh,
            ActivationKind::LeakyRelu,
            ActivationKind::Identity,
        ] {
            for x in [-2.0, -0.5, 0.3, 1.7] {
                check_derivative(kind, x);
            }
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut a = Activation::new(ActivationKind::Relu);
        let y = a
            .forward(&Matrix::from_rows(&[&[-3.0, 0.0, 2.0]]).unwrap())
            .unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_is_bounded() {
        let mut a = Activation::new(ActivationKind::Sigmoid);
        let y = a
            .forward(&Matrix::from_rows(&[&[-50.0, 0.0, 50.0]]).unwrap())
            .unwrap();
        assert!(y.as_slice()[0] < 1e-12);
        assert!((y.as_slice()[1] - 0.5).abs() < 1e-12);
        assert!(y.as_slice()[2] > 1.0 - 1e-12);
    }

    #[test]
    fn backward_masks_gradient_through_relu() {
        let mut a = Activation::new(ActivationKind::Relu);
        a.forward(&Matrix::from_rows(&[&[-1.0, 1.0]]).unwrap())
            .unwrap();
        let g = a
            .backward(&Matrix::from_rows(&[&[5.0, 5.0]]).unwrap())
            .unwrap();
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut a = Activation::new(ActivationKind::Tanh);
        assert!(a.backward(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn no_parameters() {
        let mut a = Activation::new(ActivationKind::Relu);
        assert_eq!(a.parameter_count(), 0);
    }
}
