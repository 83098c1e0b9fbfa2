//! Parametrized circuit container and executor.

use crate::backend::Backend;
use crate::error::{QuantumError, Result};
use crate::gate::{Gate, Param};
use crate::state::StateVector;
use crate::tape::{self, CompiledTape};

/// An ordered list of gates over a fixed-width register, with deferred
/// parameter binding.
///
/// Trainable angles reference indices into a parameter vector
/// ([`Param::Train`]) and embedded features reference an input vector
/// ([`Param::Input`]); both are supplied at execution time so the same
/// circuit object serves every optimizer step and every batch sample.
///
/// # Examples
///
/// ```
/// use sqvae_quantum::{Circuit, Param};
///
/// let mut c = Circuit::new(2)?;
/// c.ry(0, Param::Input(0))?;
/// c.rot(1, Param::Train(0), Param::Train(1), Param::Train(2))?;
/// c.cnot(0, 1)?;
/// let state = c.run(&[0.1, 0.2, 0.3], &[0.5], None)?;
/// let z = c.expectations_z_all(&state)?;
/// assert_eq!(z.len(), 2);
/// # Ok::<(), sqvae_quantum::QuantumError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Gate>,
    n_params: usize,
    n_inputs: usize,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` wires.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::UnsupportedRegisterSize`] for 0 or > 24 qubits.
    pub fn new(n_qubits: usize) -> Result<Self> {
        // Validate the register size once, here; `run`/`run_on` rely on this
        // and never re-check it.
        StateVector::validate_register(n_qubits)?;
        Ok(Circuit {
            n_qubits,
            ops: Vec::new(),
            n_params: 0,
            n_inputs: 0,
        })
    }

    /// Number of wires.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of distinct trainable parameters referenced (max index + 1).
    #[inline]
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Number of distinct input features referenced (max index + 1).
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// The gate sequence.
    #[inline]
    pub fn ops(&self) -> &[Gate] {
        &self.ops
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the circuit contains no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    fn track_param(&mut self, p: Param) {
        match p {
            Param::Train(i) => self.n_params = self.n_params.max(i + 1),
            Param::Input(i) => self.n_inputs = self.n_inputs.max(i + 1),
            Param::Fixed(_) => {}
        }
    }

    /// Appends a validated gate.
    ///
    /// # Errors
    ///
    /// Returns wire-validation errors from [`Gate::validate`].
    pub fn push(&mut self, gate: Gate) -> Result<()> {
        gate.validate(self.n_qubits)?;
        if let Some(p) = gate.param() {
            self.track_param(p);
        }
        self.ops.push(gate);
        Ok(())
    }

    /// Appends every gate in `gates`.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first validation error.
    pub fn extend(&mut self, gates: impl IntoIterator<Item = Gate>) -> Result<()> {
        for g in gates {
            self.push(g)?;
        }
        Ok(())
    }

    /// Appends a Hadamard gate.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid wire.
    pub fn h(&mut self, wire: usize) -> Result<()> {
        self.push(Gate::Hadamard(wire))
    }

    /// Appends a Pauli-X gate.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid wire.
    pub fn x(&mut self, wire: usize) -> Result<()> {
        self.push(Gate::PauliX(wire))
    }

    /// Appends an `RX` rotation.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid wire.
    pub fn rx(&mut self, wire: usize, angle: Param) -> Result<()> {
        self.push(Gate::RX(wire, angle))
    }

    /// Appends an `RY` rotation.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid wire.
    pub fn ry(&mut self, wire: usize, angle: Param) -> Result<()> {
        self.push(Gate::RY(wire, angle))
    }

    /// Appends an `RZ` rotation.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid wire.
    pub fn rz(&mut self, wire: usize, angle: Param) -> Result<()> {
        self.push(Gate::RZ(wire, angle))
    }

    /// Appends the paper's three-parameter rotation
    /// `R(φ, θ, ω) = RZ(ω)·RY(θ)·RZ(φ)` as three gates (applied φ first).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid wire.
    pub fn rot(&mut self, wire: usize, phi: Param, theta: Param, omega: Param) -> Result<()> {
        self.rz(wire, phi)?;
        self.ry(wire, theta)?;
        self.rz(wire, omega)
    }

    /// Appends a CNOT.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid wires or `control == target`.
    pub fn cnot(&mut self, control: usize, target: usize) -> Result<()> {
        self.push(Gate::CNOT(control, target))
    }

    /// Checks caller-supplied binding vectors against the circuit's needs.
    pub(crate) fn check_bindings(&self, params: &[f64], inputs: &[f64]) -> Result<()> {
        if params.len() < self.n_params {
            return Err(QuantumError::ParamCountMismatch {
                expected: self.n_params,
                actual: params.len(),
            });
        }
        if inputs.len() < self.n_inputs {
            return Err(QuantumError::InputCountMismatch {
                expected: self.n_inputs,
                actual: inputs.len(),
            });
        }
        Ok(())
    }

    /// Lowers the circuit against one trainable-parameter vector into a
    /// [`CompiledTape`]: rotation matrices resolve and fuse, consecutive
    /// CNOTs group into one run op, and input-bound embedding gates stay
    /// behind as late slots.
    ///
    /// The tape also carries the pre-lowered adjoint program the gradient
    /// sweeps in [`crate::grad::adjoint`] replay. Callers executing
    /// many rows against the same parameters (a mini-batch) should compile
    /// once and reuse the tape via [`CompiledTape::execute_on`]; callers
    /// that never differentiate should use [`Circuit::compile_forward`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::ParamCountMismatch`] if `params` is shorter
    /// than the circuit references.
    pub fn compile(&self, params: &[f64]) -> Result<CompiledTape> {
        tape::compile(self, params, true)
    }

    /// [`Circuit::compile`] without the adjoint program: the entry point of
    /// the compile-then-execute pipeline every `run_*` convenience and every
    /// inference-only forward pass wraps. The adjoint sweeps reject the
    /// resulting tape with [`QuantumError::ForwardOnlyTape`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::ParamCountMismatch`] if `params` is shorter
    /// than the circuit references.
    pub fn compile_forward(&self, params: &[f64]) -> Result<CompiledTape> {
        tape::compile(self, params, false)
    }

    /// Executes the circuit on a chosen simulator [`Backend`] and returns
    /// the final register.
    ///
    /// A documented wrapper over the compile-then-execute pipeline:
    /// [`Circuit::compile_forward`] followed by [`CompiledTape::execute_on`].
    /// `initial` lets the caller start from an embedded state (amplitude
    /// embedding); `None` starts from `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns binding-count errors, a typed dimension mismatch if `initial`
    /// has a different width, or gate-application errors.
    pub fn run_on<B: Backend>(
        &self,
        params: &[f64],
        inputs: &[f64],
        initial: Option<&B>,
    ) -> Result<B> {
        self.check_bindings(params, inputs)?;
        self.compile_forward(params)?.execute_on(inputs, initial)
    }

    /// Executes the circuit on the dense reference backend
    /// ([`Circuit::run_on`] with `B = StateVector`): a documented wrapper
    /// over [`Circuit::compile_forward`] + [`CompiledTape::execute_on`].
    ///
    /// # Errors
    ///
    /// See [`Circuit::run_on`].
    pub fn run(
        &self,
        params: &[f64],
        inputs: &[f64],
        initial: Option<&StateVector>,
    ) -> Result<StateVector> {
        self.run_on(params, inputs, initial)
    }

    /// Per-wire `⟨Z⟩` for every wire, the measurement layer of the paper's
    /// encoders ("measurement expectation value is taken as output").
    ///
    /// # Errors
    ///
    /// Returns an error if `state` has a different register width.
    pub fn expectations_z_all<B: Backend>(&self, state: &B) -> Result<Vec<f64>> {
        if state.n_qubits() != self.n_qubits {
            return Err(QuantumError::DimensionMismatch {
                expected: 1 << self.n_qubits,
                actual: state.dim(),
            });
        }
        (0..self.n_qubits).map(|w| state.expectation_z(w)).collect()
    }

    /// Convenience: run then measure `⟨Z⟩` on every wire — a documented
    /// wrapper over [`Circuit::compile_forward`] +
    /// [`CompiledTape::expectations_z_on`].
    ///
    /// # Errors
    ///
    /// See [`Circuit::run`].
    pub fn run_expectations_z(
        &self,
        params: &[f64],
        inputs: &[f64],
        initial: Option<&StateVector>,
    ) -> Result<Vec<f64>> {
        let state = self.run(params, inputs, initial)?;
        self.expectations_z_all(&state)
    }

    /// Convenience: run then return all basis-state probabilities (the
    /// measurement layer of the baseline quantum decoder) — a documented
    /// wrapper over [`Circuit::compile_forward`] +
    /// [`CompiledTape::probabilities_on`].
    ///
    /// # Errors
    ///
    /// See [`Circuit::run`].
    pub fn run_probabilities(
        &self,
        params: &[f64],
        inputs: &[f64],
        initial: Option<&StateVector>,
    ) -> Result<Vec<f64>> {
        Ok(self.run(params, inputs, initial)?.probabilities())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn tracks_param_and_input_counts() {
        let mut c = Circuit::new(3).unwrap();
        c.ry(0, Param::Train(4)).unwrap();
        c.rz(1, Param::Input(2)).unwrap();
        c.rx(2, Param::Fixed(0.4)).unwrap();
        assert_eq!(c.n_params(), 5);
        assert_eq!(c.n_inputs(), 3);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn run_rejects_short_bindings() {
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        c.rz(0, Param::Input(0)).unwrap();
        assert!(matches!(
            c.run(&[], &[0.0], None),
            Err(QuantumError::ParamCountMismatch { .. })
        ));
        assert!(matches!(
            c.run(&[0.0], &[], None),
            Err(QuantumError::InputCountMismatch { .. })
        ));
    }

    #[test]
    fn run_rejects_mismatched_initial_state() {
        let c = Circuit::new(2).unwrap();
        let s = StateVector::zero_state(3).unwrap();
        assert!(matches!(
            c.run(&[], &[], Some(&s)),
            Err(QuantumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn ry_pi_via_train_binding() {
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        let z = c.run_expectations_z(&[PI], &[], None).unwrap();
        assert!((z[0] + 1.0).abs() < 1e-12);
        let z = c.run_expectations_z(&[0.0], &[], None).unwrap();
        assert!((z[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rot_decomposition_matches_expected_bloch_rotation() {
        // Rot(0, θ, 0) == RY(θ): ⟨Z⟩ = cos θ.
        let mut c = Circuit::new(1).unwrap();
        c.rot(0, Param::Fixed(0.0), Param::Train(0), Param::Fixed(0.0))
            .unwrap();
        let theta = 1.234;
        let z = c.run_expectations_z(&[theta], &[], None).unwrap();
        assert!((z[0] - theta.cos()).abs() < 1e-12);
    }

    #[test]
    fn bell_circuit_probabilities() {
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap();
        c.cnot(0, 1).unwrap();
        let p = c.run_probabilities(&[], &[], None).unwrap();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extend_validates_each_gate() {
        let mut c = Circuit::new(2).unwrap();
        let r = c.extend([Gate::Hadamard(0), Gate::CNOT(5, 1)]);
        assert!(r.is_err());
        assert_eq!(c.len(), 1); // the valid prefix was appended
    }

    #[test]
    fn initial_state_is_respected() {
        let mut c = Circuit::new(1).unwrap();
        c.x(0).unwrap();
        let mut init = StateVector::zero_state(1).unwrap();
        // |0⟩ → X → |1⟩, starting from |1⟩ → |0⟩.
        Gate::PauliX(0).apply(&mut init, 0.0).unwrap();
        let out = c.run(&[], &[], Some(&init)).unwrap();
        assert!((out.probability(0) - 1.0).abs() < 1e-12);
    }
}
