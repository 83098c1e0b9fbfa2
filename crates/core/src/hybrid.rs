//! Hybrid quantum-classical stacks with parameter groups.
//!
//! The paper's §III-C observation — quantum angles live in `[-π, π]` while
//! classical weights roam freely — motivates *heterogeneous learning rates*.
//! [`HybridStack`] tags each stage with a [`ParamGroup`] so the trainer can
//! step the two groups with different optimizers.

use sqvae_nn::{Matrix, Module, NnError, ParamTensor};

/// Which optimizer group a stage's parameters belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamGroup {
    /// Variational circuit angles (paper's best LR: 0.03).
    Quantum,
    /// Classical network weights (paper's best LR: 0.01).
    Classical,
}

/// An ordered chain of tagged modules behaving as one [`Module`].
///
/// Stages are boxed as `dyn Module + Send`, so an assembled model can move
/// onto a worker thread (the inference service keeps warm models there).
#[derive(Default)]
pub struct HybridStack {
    stages: Vec<(ParamGroup, Box<dyn Module + Send>)>,
}

impl std::fmt::Debug for HybridStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tags: Vec<&str> = self
            .stages
            .iter()
            .map(|(g, _)| match g {
                ParamGroup::Quantum => "quantum",
                ParamGroup::Classical => "classical",
            })
            .collect();
        f.debug_struct("HybridStack")
            .field("stages", &tags)
            .finish()
    }
}

impl HybridStack {
    /// An empty stack.
    pub fn new() -> Self {
        HybridStack { stages: Vec::new() }
    }

    /// Appends a classical stage.
    pub fn push_classical(&mut self, module: impl Module + Send + 'static) {
        self.stages.push((ParamGroup::Classical, Box::new(module)));
    }

    /// Appends a quantum stage.
    pub fn push_quantum(&mut self, module: impl Module + Send + 'static) {
        self.stages.push((ParamGroup::Quantum, Box::new(module)));
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the stack has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Mutable parameter tensors belonging to `group`.
    pub fn parameters_of(&mut self, group: ParamGroup) -> Vec<&mut ParamTensor> {
        self.stages
            .iter_mut()
            .filter(|(g, _)| *g == group)
            .flat_map(|(_, m)| m.parameters())
            .collect()
    }

    /// Scalar parameter count in `group`.
    pub fn parameter_count_of(&mut self, group: ParamGroup) -> usize {
        self.parameters_of(group).iter().map(|p| p.len()).sum()
    }
}

impl Module for HybridStack {
    fn forward(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        let mut x = input.clone();
        for (_, stage) in &mut self.stages {
            x = stage.forward(&x)?;
        }
        Ok(x)
    }

    fn infer(&self, input: &Matrix) -> Result<Matrix, NnError> {
        let mut x = input.clone();
        for (_, stage) in &self.stages {
            x = stage.infer(&x)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix, NnError> {
        let mut g = grad_output.clone();
        for (_, stage) in self.stages.iter_mut().rev() {
            g = stage.backward(&g)?;
        }
        Ok(g)
    }

    fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        self.stages
            .iter_mut()
            .flat_map(|(_, m)| m.parameters())
            .collect()
    }

    fn set_exec_policy(&mut self, policy: sqvae_nn::ExecPolicy) {
        for (_, stage) in &mut self.stages {
            stage.set_exec_policy(policy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantum_layer::{QuantumInput, QuantumLayer, QuantumOutput};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqvae_nn::{Activation, ActivationKind, Linear};

    fn stack() -> HybridStack {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = HybridStack::new();
        s.push_quantum(QuantumLayer::new(
            2,
            1,
            QuantumInput::Amplitude { in_features: 4 },
            QuantumOutput::ExpectationZ,
            &mut rng,
        ));
        s.push_classical(Linear::new(2, 3, &mut rng));
        s.push_classical(Activation::new(ActivationKind::Tanh));
        s
    }

    #[test]
    fn forward_chains_quantum_into_classical() {
        let mut s = stack();
        let y = s.forward(&Matrix::filled(2, 4, 0.5)).unwrap();
        assert_eq!(y.shape(), (2, 3));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn parameter_groups_are_separated() {
        let mut s = stack();
        let q = s.parameter_count_of(ParamGroup::Quantum);
        let c = s.parameter_count_of(ParamGroup::Classical);
        assert_eq!(q, 6); // 1 layer × 2 qubits × 3
        assert_eq!(c, 2 * 3 + 3);
        assert_eq!(s.parameter_count(), q + c);
    }

    #[test]
    fn backward_crosses_the_quantum_classical_boundary() {
        let mut s = stack();
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4]]).unwrap();
        let y = s.forward(&x).unwrap();
        let base = y.sum();
        s.backward(&Matrix::filled(1, 3, 1.0)).unwrap();
        // Quantum parameter gradient via finite differences end-to-end.
        let eps = 1e-6;
        let grads: Vec<f64> = {
            let qp = s.parameters_of(ParamGroup::Quantum);
            qp[0].grad.as_slice().to_vec()
        };
        for (k, &g) in grads.iter().enumerate() {
            let mut s2 = stack();
            {
                let mut qp = s2.parameters_of(ParamGroup::Quantum);
                let v = qp[0].value.get(0, k);
                qp[0].value.set(0, k, v + eps);
            }
            let fp = s2.forward(&x).unwrap().sum();
            let fd = (fp - base) / eps;
            assert!((g - fd).abs() < 1e-4, "quantum param {k}: {g} vs {fd}");
        }
    }

    #[test]
    fn debug_shows_stage_tags() {
        let s = stack();
        let d = format!("{s:?}");
        assert!(d.contains("quantum") && d.contains("classical"));
    }
}
