//! Composition of layers.

use crate::error::Result;
use crate::matrix::Matrix;
use crate::module::{Module, ParamTensor};

/// A stack of modules applied in order; the building block for the paper's
/// 3-hidden-layer classical encoders/decoders.
///
/// # Examples
///
/// ```
/// use sqvae_nn::{Activation, ActivationKind, Linear, Matrix, Module, Sequential};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(9);
/// // The paper's classical encoder: 64 → 32 → 16 → 6 with ReLU.
/// let mut encoder = Sequential::new();
/// encoder.push(Linear::new(64, 32, &mut rng));
/// encoder.push(Activation::new(ActivationKind::Relu));
/// encoder.push(Linear::new(32, 16, &mut rng));
/// encoder.push(Activation::new(ActivationKind::Relu));
/// encoder.push(Linear::new(16, 6, &mut rng));
/// let z = encoder.forward(&Matrix::zeros(4, 64))?;
/// assert_eq!(z.shape(), (4, 6));
/// # Ok::<(), sqvae_nn::NnError>(())
/// ```
///
/// Layers are boxed as `dyn Module + Send`, so a built stack can move onto
/// a worker thread (the inference service serves warm models that way).
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Module + Send>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("n_layers", &self.layers.len())
            .finish()
    }
}

impl Sequential {
    /// An empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Module + Send + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends a boxed layer (for dynamically built stacks).
    pub fn push_boxed(&mut self, layer: Box<dyn Module + Send>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Module for Sequential {
    fn forward(&mut self, input: &Matrix) -> Result<Matrix> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.parameters())
            .collect()
    }

    fn set_exec_policy(&mut self, policy: crate::exec::ExecPolicy) {
        for layer in &mut self.layers {
            layer.set_exec_policy(policy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Activation, ActivationKind};
    use crate::linear::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Sequential::new();
        s.push(Linear::new(4, 8, &mut rng));
        s.push(Activation::new(ActivationKind::Tanh));
        s.push(Linear::new(8, 3, &mut rng));
        s
    }

    #[test]
    fn forward_chains_layers() {
        let mut m = mlp(1);
        let y = m.forward(&Matrix::zeros(5, 4)).unwrap();
        assert_eq!(y.shape(), (5, 3));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn parameter_count_sums_layers() {
        let mut m = mlp(1);
        assert_eq!(m.parameter_count(), (4 * 8 + 8) + (8 * 3 + 3));
    }

    #[test]
    fn end_to_end_gradient_matches_finite_difference() {
        let mut m = mlp(11);
        let x = Matrix::from_rows(&[&[0.2, -0.4, 0.6, 1.0], &[-0.5, 0.3, 0.0, -1.0]]).unwrap();
        let y = m.forward(&x).unwrap();
        let base = y.sum();
        let grad_in = m.backward(&Matrix::filled(2, 3, 1.0)).unwrap();

        let eps = 1e-6;
        for (r, c) in [(0, 0), (1, 3), (0, 2)] {
            let mut m2 = mlp(11);
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let fp = m2.forward(&xp).unwrap().sum();
            let fd = (fp - base) / eps;
            assert!(
                (grad_in.get(r, c) - fd).abs() < 1e-4,
                "dx[{r},{c}]: {} vs {fd}",
                grad_in.get(r, c)
            );
        }

        // Spot-check a weight gradient through the whole stack.
        let mut m2 = mlp(11);
        {
            let params = m2.parameters();
            // params[0] is the first linear's weight.
            let w = &mut params.into_iter().next().unwrap().value;
            w.set(1, 2, w.get(1, 2) + eps);
        }
        let fp = m2.forward(&x).unwrap().sum();
        let fd = (fp - base) / eps;
        let mut m3 = mlp(11);
        m3.forward(&x).unwrap();
        m3.backward(&Matrix::filled(2, 3, 1.0)).unwrap();
        let g = m3.parameters().into_iter().next().unwrap().grad.get(1, 2);
        assert!((g - fd).abs() < 1e-4, "dW: {g} vs {fd}");
    }

    #[test]
    fn zero_grad_clears_all_layers() {
        let mut m = mlp(2);
        m.forward(&Matrix::filled(1, 4, 1.0)).unwrap();
        m.backward(&Matrix::filled(1, 3, 1.0)).unwrap();
        assert!(m.parameters().iter().any(|p| p.grad.frobenius_norm() > 0.0));
        m.zero_grad();
        assert!(m
            .parameters()
            .iter()
            .all(|p| p.grad.frobenius_norm() == 0.0));
    }
}
