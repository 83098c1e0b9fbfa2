//! First-order optimizers.
//!
//! Heterogeneous quantum/classical learning rates (§III-C, Fig. 7 of the
//! paper) are realized by instantiating one optimizer per parameter group —
//! e.g. `Adam::new(0.03)` stepping the quantum angles and `Adam::new(0.01)`
//! stepping the classical weights — and stepping each with its group's
//! tensors every iteration.

use crate::error::{NnError, Result};
use crate::matrix::Matrix;
use crate::module::ParamTensor;

/// A first-order optimizer over a fixed set of parameter tensors.
pub trait Optimizer {
    /// Applies one update step using each tensor's accumulated gradient.
    ///
    /// The same tensors (same count, same shapes, same order) must be passed
    /// on every call so internal state lines up.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::OptimizerStateMismatch`] when the tensor count
    /// changes between steps, or a shape error when a tensor changes shape.
    fn step(&mut self, params: &mut [&mut ParamTensor]) -> Result<()>;

    /// Current learning rate.
    fn learning_rate(&self) -> f64;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut ParamTensor]) -> Result<()> {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
        }
        if self.velocity.len() != params.len() {
            return Err(NnError::OptimizerStateMismatch {
                expected: self.velocity.len(),
                actual: params.len(),
            });
        }
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            if v.shape() != p.grad.shape() {
                return Err(NnError::ShapeMismatch {
                    expected: v.shape(),
                    actual: p.grad.shape(),
                });
            }
            if self.momentum != 0.0 {
                *v = v.scale(self.momentum);
                v.add_scaled(&p.grad, 1.0)?;
                p.value.add_scaled(v, -self.lr)?;
            } else {
                p.value.add_scaled(&p.grad, -self.lr)?;
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with the paper's `β₁ = 0.9`, `β₂ = 0.999` (§IV-B)
/// and `ε = 1e-8`.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    const BETA1: f64 = 0.9;
    const BETA2: f64 = 0.999;
    const EPS: f64 = 1e-8;

    /// Adam with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut ParamTensor]) -> Result<()> {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
            self.v = self.m.clone();
        }
        if self.m.len() != params.len() {
            return Err(NnError::OptimizerStateMismatch {
                expected: self.m.len(),
                actual: params.len(),
            });
        }
        self.t += 1;
        let bc1 = 1.0 - Self::BETA1.powi(self.t as i32);
        let bc2 = 1.0 - Self::BETA2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            if m.shape() != p.grad.shape() {
                return Err(NnError::ShapeMismatch {
                    expected: m.shape(),
                    actual: p.grad.shape(),
                });
            }
            // Zipped, not indexed: no bounds checks, so the loop
            // vectorizes.
            let p = &mut **p;
            let elements = p
                .value
                .as_mut_slice()
                .iter_mut()
                .zip(p.grad.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()));
            for ((x, &g), (m, v)) in elements {
                let mi = Self::BETA1 * *m + (1.0 - Self::BETA1) * g;
                let vi = Self::BETA2 * *v + (1.0 - Self::BETA2) * g * g;
                *m = mi;
                *v = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                *x -= self.lr * m_hat / (v_hat.sqrt() + Self::EPS);
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &ParamTensor) -> Matrix {
        // L = ½‖x − 3‖² → dL/dx = x − 3.
        p.value.map(|x| x - 3.0)
    }

    fn converges(opt: &mut dyn Optimizer, iters: usize) -> f64 {
        let mut p = ParamTensor::new(Matrix::filled(2, 2, 10.0));
        for _ in 0..iters {
            p.zero_grad();
            let g = quadratic_grad(&p);
            p.grad.add_scaled(&g, 1.0).unwrap();
            let mut refs = [&mut p];
            opt.step(&mut refs).unwrap();
        }
        p.value.map(|x| (x - 3.0).abs()).sum()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(converges(&mut opt, 200) < 1e-6);
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        assert!(converges(&mut opt, 600) < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!(converges(&mut opt, 400) < 1e-4);
        assert_eq!(opt.steps(), 400);
    }

    #[test]
    fn adam_first_step_moves_by_lr() {
        // With bias correction, the very first Adam step has magnitude ≈ lr.
        let mut p = ParamTensor::new(Matrix::filled(1, 1, 0.0));
        p.grad.fill(7.0);
        let mut opt = Adam::new(0.01);
        let mut refs = [&mut p];
        opt.step(&mut refs).unwrap();
        assert!((p.value.get(0, 0) + 0.01).abs() < 1e-6);
    }

    #[test]
    fn optimizer_rejects_changing_tensor_count() {
        let mut a = ParamTensor::new(Matrix::zeros(1, 1));
        let mut b = ParamTensor::new(Matrix::zeros(1, 1));
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut a]).unwrap();
        assert!(matches!(
            opt.step(&mut [&mut a, &mut b]),
            Err(NnError::OptimizerStateMismatch { .. })
        ));
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Sgd::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.5);
        assert_eq!(opt.learning_rate(), 0.5);
    }

    #[test]
    fn adam_steps_match_the_recorded_digest() {
        // Three steps of a fixed tensor and gradient, folded bit for bit
        // (values, then both moments) into an FNV-1a hash recorded before
        // the hyper-parameters became constants.
        let mut p = ParamTensor::new(Matrix::from_fn(2, 3, |i, j| {
            0.4 * i as f64 - 0.3 * j as f64
        }));
        let mut opt = Adam::new(0.03);
        for step in 0..3 {
            p.grad = Matrix::from_fn(2, 3, |i, j| (i + 2 * j + step) as f64 * 0.7 - 1.1);
            opt.step(&mut [&mut p]).unwrap();
        }
        let words = p
            .value
            .as_slice()
            .iter()
            .chain(opt.m[0].as_slice())
            .chain(opt.v[0].as_slice());
        let digest = words.fold(0xcbf2_9ce4_8422_2325_u64, |h, x| {
            x.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        });
        assert_eq!(
            digest, 0xcf48_b0dd_73d7_a90a,
            "Adam digest is now {digest:#018x}"
        );
    }

    #[test]
    fn heterogeneous_groups_use_their_own_rates() {
        // Two groups with different LRs: the larger-LR group moves further in
        // one plain-SGD step.
        let mut q = ParamTensor::new(Matrix::filled(1, 1, 1.0));
        let mut c = ParamTensor::new(Matrix::filled(1, 1, 1.0));
        q.grad.fill(1.0);
        c.grad.fill(1.0);
        let mut qopt = Sgd::new(0.03);
        let mut copt = Sgd::new(0.01);
        qopt.step(&mut [&mut q]).unwrap();
        copt.step(&mut [&mut c]).unwrap();
        assert!((q.value.get(0, 0) - 0.97).abs() < 1e-12);
        assert!((c.value.get(0, 0) - 0.99).abs() < 1e-12);
    }
}
