//! A variational quantum circuit as a neural-network layer.
//!
//! The layer implements [`Module`], so classical and quantum stages
//! backpropagate through each other exactly as the paper's hybrid
//! architecture requires. Each pass first **compiles the circuit once per
//! batch** into a [`CompiledTape`] — parameters bound, commuting
//! single-qubit gates pre-fused, CNOT runs flattened, and (for backward
//! only) the adjoint sweep pre-inverted into rotation blocks — and every
//! batch row then replays that tape, so the per-gate lowering work is paid
//! once instead of once per row. Forward executes a forward-only tape per
//! row; backward runs one tape adjoint pass per row against the
//! upstream-weighted diagonal observable.
//!
//! Batch rows are independent simulations, so both passes shard rows on
//! the process-wide compute pool ([`sqvae_nn::parallel`]) according to the
//! layer's [`ExecPolicy`] threads knob (default [`sqvae_nn::Threads::Off`];
//! the trainer propagates its configured policy). The calling thread and
//! the pool's persistent helpers claim rows one at a time; no thread is
//! spawned per pass. The shared tape is immutable and crosses threads by
//! reference. Per-row results land in preallocated row slots and gradients
//! accumulate in fixed row order, so the parallel path is bit-identical to
//! the sequential one.
//!
//! Which simulator executes the tape is the policy's second knob,
//! [`BackendKind`]: every row dispatches onto the dense reference register
//! or the structure-of-arrays SIMD backend (`SQVAE_BACKEND`,
//! `TrainConfig::backend`, [`sqvae_nn::ExecPolicy`]); the two agree to
//! ≤ 1e-12.

use rand::Rng;
use sqvae_nn::parallel;
use sqvae_nn::{init, BackendKind, ExecPolicy, Matrix, Module, NnError, ParamTensor};
use sqvae_quantum::embed::{
    amplitude_embedding, angle_embedding_gates, qubits_for_features, RotationAxis,
};
use sqvae_quantum::grad::adjoint;
use sqvae_quantum::grad::CircuitGradients;
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::{Backend, Circuit, CompiledTape, SoaDenseBackend, StateVector};

/// How classical data enters the circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumInput {
    /// Amplitude embedding: `in_features ≤ 2^n_qubits` values become the
    /// initial state (qubit-efficient; used by encoders). Inputs receive no
    /// gradient (they are raw data).
    Amplitude {
        /// Width of the embedded feature vector.
        in_features: usize,
    },
    /// Angle embedding: one `RY(x_i)` per wire (used by decoders); inputs
    /// are differentiable.
    Angle,
}

/// What measurement the layer returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumOutput {
    /// Per-wire `⟨Z⟩` — `n_qubits` outputs in [-1, 1].
    ExpectationZ,
    /// All basis-state probabilities — `2^n_qubits` outputs summing to 1.
    Probabilities,
}

/// A strongly-entangling variational circuit behaving as a `Module`.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sqvae_core::{QuantumInput, QuantumLayer, QuantumOutput};
/// use sqvae_nn::{Matrix, Module};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // The paper's baseline encoder: 64 features → 6 qubits → 6 expectations.
/// let mut enc = QuantumLayer::new(
///     6, 3, QuantumInput::Amplitude { in_features: 64 },
///     QuantumOutput::ExpectationZ, &mut rng,
/// );
/// assert_eq!(enc.parameter_count(), 54); // 3 layers × 6 qubits × 3 angles
/// let x = Matrix::filled(2, 64, 0.5);
/// let z = enc.forward(&x).unwrap();
/// assert_eq!(z.shape(), (2, 6));
/// ```
#[derive(Debug, Clone)]
pub struct QuantumLayer {
    circuit: Circuit,
    input_mode: QuantumInput,
    output_mode: QuantumOutput,
    params: ParamTensor,
    cached_input: Option<Matrix>,
    exec: ExecPolicy,
}

impl QuantumLayer {
    /// Builds a layer of `n_layers` strongly-entangling layers on `n_qubits`
    /// wires with angles initialized uniformly in `[-π, π]`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is outside the simulator's supported range, or
    /// if an amplitude input's `in_features` exceeds `2^n_qubits`, or an
    /// angle input is requested on zero qubits — all construction-time
    /// configuration bugs.
    pub fn new(
        n_qubits: usize,
        n_layers: usize,
        input_mode: QuantumInput,
        output_mode: QuantumOutput,
        rng: &mut impl Rng,
    ) -> Self {
        let mut circuit = Circuit::new(n_qubits).expect("valid register size");
        if let QuantumInput::Amplitude { in_features } = input_mode {
            assert!(
                in_features <= 1 << n_qubits,
                "amplitude embedding of {in_features} features needs {} qubits, have {n_qubits}",
                qubits_for_features(in_features)
            );
        }
        if matches!(input_mode, QuantumInput::Angle) {
            circuit
                .extend(angle_embedding_gates(n_qubits, RotationAxis::Y, 0))
                .expect("embedding wires in range");
        }
        circuit
            .extend(
                strongly_entangling_layers(n_qubits, n_layers, 0, EntangleRange::Ring)
                    .expect("template wires in range"),
            )
            .expect("template wires in range");
        let params = ParamTensor::new(init::angle_uniform(1, circuit.n_params(), rng));
        QuantumLayer {
            circuit,
            input_mode,
            output_mode,
            params,
            cached_input: None,
            exec: ExecPolicy::default(),
        }
    }

    /// Builder-style variant of [`Module::set_exec_policy`].
    pub fn with_exec_policy(mut self, policy: ExecPolicy) -> Self {
        self.exec = policy;
        self
    }

    /// The unified execution policy (threads + backend) in effect.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.exec
    }

    /// Number of wires.
    pub fn n_qubits(&self) -> usize {
        self.circuit.n_qubits()
    }

    /// Width of the input this layer expects.
    pub fn in_features(&self) -> usize {
        match self.input_mode {
            QuantumInput::Amplitude { in_features } => in_features,
            QuantumInput::Angle => self.circuit.n_qubits(),
        }
    }

    /// Width of the output this layer produces.
    pub fn out_features(&self) -> usize {
        match self.output_mode {
            QuantumOutput::ExpectationZ => self.circuit.n_qubits(),
            QuantumOutput::Probabilities => 1 << self.circuit.n_qubits(),
        }
    }

    /// The input mode.
    pub fn input_mode(&self) -> QuantumInput {
        self.input_mode
    }

    /// The output mode.
    pub fn output_mode(&self) -> QuantumOutput {
        self.output_mode
    }

    fn check_width(&self, m: &Matrix) -> Result<(), NnError> {
        if m.cols() != self.in_features() {
            return Err(NnError::ShapeMismatch {
                expected: (m.rows(), self.in_features()),
                actual: m.shape(),
            });
        }
        Ok(())
    }

    /// The amplitude-embedded starting state for `row` (all-zero rows embed
    /// `|0…0⟩` instead — zero vectors carry no information; this keeps
    /// training robust).
    fn embedded_initial(&self, row: &[f64]) -> StateVector {
        match amplitude_embedding(row, self.circuit.n_qubits()) {
            Ok(s) => s,
            Err(_) => StateVector::zero_state(self.circuit.n_qubits()).expect("valid register"),
        }
    }

    /// Lowers the circuit with the **current** trainable angles into a
    /// [`CompiledTape`] carrying the adjoint program. Called once per
    /// backward pass; every row then replays the shared tape. Crate-internal
    /// so [`crate::PatchedQuantumLayer`] can compile one tape per patch and
    /// drive the patch × row grid through its own work-sharding without
    /// borrowing the layer mutably.
    pub(crate) fn compile_tape(&self) -> CompiledTape {
        self.circuit
            .compile(self.params.value.as_slice())
            .expect("validated circuit")
    }

    /// [`Self::compile_tape`] without the adjoint program, for forward
    /// passes (which never differentiate).
    pub(crate) fn compile_forward_tape(&self) -> CompiledTape {
        self.circuit
            .compile_forward(self.params.value.as_slice())
            .expect("validated circuit")
    }

    /// One batch row's forward simulation: replays `tape` on the configured
    /// backend and writes the row's outputs into `slot` through the
    /// thread-local `scratch` buffer — the allocation-free per-row body of
    /// the `fill_rows` sharding in [`Module::forward`] here and in
    /// [`crate::PatchedQuantumLayer`] (crate-internal for the same reason as
    /// [`Self::compile_tape`]). Probability readout goes through
    /// [`CompiledTape::probabilities_into_on`], so the `2^n`-wide buffer is
    /// reused across every row one thread runs in the pass.
    pub(crate) fn forward_row_tape_into(
        &self,
        tape: &CompiledTape,
        row: &[f64],
        scratch: &mut Vec<f64>,
        slot: &mut [f64],
    ) {
        match self.exec.backend {
            BackendKind::Dense => {
                self.forward_row_tape_into_on::<StateVector>(tape, row, scratch, slot)
            }
            BackendKind::Soa => {
                self.forward_row_tape_into_on::<SoaDenseBackend>(tape, row, scratch, slot)
            }
        }
    }

    fn forward_row_tape_into_on<B: Backend>(
        &self,
        tape: &CompiledTape,
        row: &[f64],
        scratch: &mut Vec<f64>,
        slot: &mut [f64],
    ) {
        let (inputs, initial): (&[f64], Option<B>) = match self.input_mode {
            QuantumInput::Amplitude { .. } => {
                (&[], Some(B::from_statevector(self.embedded_initial(row))))
            }
            QuantumInput::Angle => (row, None),
        };
        match self.output_mode {
            QuantumOutput::ExpectationZ => {
                let state = tape
                    .execute_on(inputs, initial.as_ref())
                    .expect("validated circuit");
                for (w, y) in slot.iter_mut().enumerate() {
                    *y = state.expectation_z(w).expect("wire in range");
                }
            }
            QuantumOutput::Probabilities => {
                tape.probabilities_into_on(inputs, initial.as_ref(), scratch)
                    .expect("validated circuit");
                slot.copy_from_slice(scratch);
            }
        }
    }

    /// One batch row's adjoint backward pass over `tape`, on the configured
    /// backend (crate-internal for the same reason as
    /// [`Self::compile_tape`]).
    pub(crate) fn backward_row_tape(
        &self,
        tape: &CompiledTape,
        row: &[f64],
        upstream: &[f64],
    ) -> CircuitGradients {
        match self.exec.backend {
            BackendKind::Dense => self.backward_row_tape_on::<StateVector>(tape, row, upstream),
            BackendKind::Soa => self.backward_row_tape_on::<SoaDenseBackend>(tape, row, upstream),
        }
    }

    fn backward_row_tape_on<B: Backend>(
        &self,
        tape: &CompiledTape,
        row: &[f64],
        upstream: &[f64],
    ) -> CircuitGradients {
        let (inputs, initial): (&[f64], Option<B>) = match self.input_mode {
            QuantumInput::Amplitude { .. } => {
                (&[], Some(B::from_statevector(self.embedded_initial(row))))
            }
            QuantumInput::Angle => (row, None),
        };
        match self.output_mode {
            QuantumOutput::ExpectationZ => {
                adjoint::backward_expectations_z_tape(tape, inputs, initial.as_ref(), upstream)
            }
            QuantumOutput::Probabilities => {
                adjoint::backward_probabilities_tape(tape, inputs, initial.as_ref(), upstream)
            }
        }
        .expect("validated circuit")
    }

    /// Adds one row's parameter gradients into the accumulated gradient, in
    /// caller-chosen order (the determinism guarantee lives with the caller).
    pub(crate) fn accumulate_param_grads(&mut self, row_grads: &[f64]) {
        for (i, g) in row_grads.iter().enumerate() {
            let cur = self.params.grad.get(0, i);
            self.params.grad.set(0, i, cur + g);
        }
    }
}

impl Module for QuantumLayer {
    fn forward(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        self.check_width(input)?;
        // Lower the circuit once for the whole batch (forward program only);
        // every row (and every pool thread) replays the same immutable tape
        // by reference. Rows write straight into the output matrix, and the
        // probability readout reuses one scratch buffer per participating
        // thread instead of allocating per row.
        let tape = self.compile_forward_tape();
        let mut out = Matrix::zeros(input.rows(), self.out_features());
        parallel::fill_rows(
            out.as_mut_slice(),
            self.out_features(),
            self.exec.threads,
            Vec::new,
            |r, scratch, slot| self.forward_row_tape_into(&tape, input.row(r), scratch, slot),
        );
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward)?;
        if grad_output.rows() != input.rows() || grad_output.cols() != self.out_features() {
            return Err(NnError::ShapeMismatch {
                expected: (input.rows(), self.out_features()),
                actual: grad_output.shape(),
            });
        }
        // Recompiled here rather than cached from `forward`: the optimizer
        // may have stepped the angles in between, and compilation is cheap
        // relative to even one row's simulation.
        let tape = self.compile_tape();
        let per_row = parallel::map_rows(input.rows(), self.exec.threads, |r| {
            self.backward_row_tape(&tape, input.row(r), grad_output.row(r))
        });
        // Accumulate in fixed row order so parallel runs reproduce the
        // sequential floating-point sums bit for bit.
        let mut grad_input = Matrix::zeros(per_row.len(), self.in_features());
        for (r, grads) in per_row.iter().enumerate() {
            self.accumulate_param_grads(&grads.params);
            // Input gradients exist only for the differentiable angle
            // embedding; amplitude-embedded raw data gets zeros.
            if matches!(self.input_mode, QuantumInput::Angle) {
                grad_input.row_mut(r).copy_from_slice(&grads.inputs);
            }
        }
        Ok(grad_input)
    }

    fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        vec![&mut self.params]
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
    use sqvae_nn::Threads;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn shapes_for_all_modes() {
        let mut r = rng();
        let amp = QuantumLayer::new(
            3,
            2,
            QuantumInput::Amplitude { in_features: 8 },
            QuantumOutput::ExpectationZ,
            &mut r,
        );
        assert_eq!(amp.in_features(), 8);
        assert_eq!(amp.out_features(), 3);
        let ang = QuantumLayer::new(
            3,
            2,
            QuantumInput::Angle,
            QuantumOutput::Probabilities,
            &mut r,
        );
        assert_eq!(ang.in_features(), 3);
        assert_eq!(ang.out_features(), 8);
    }

    #[test]
    fn forward_produces_bounded_outputs() {
        let mut r = rng();
        let mut layer = QuantumLayer::new(
            3,
            2,
            QuantumInput::Amplitude { in_features: 8 },
            QuantumOutput::ExpectationZ,
            &mut r,
        );
        let x = Matrix::from_fn(4, 8, |i, j| (i * 8 + j) as f64 * 0.1 + 0.1);
        let y = layer.forward(&x).unwrap();
        for &v in y.as_slice() {
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn probability_outputs_sum_to_one_per_row() {
        let mut r = rng();
        let mut layer = QuantumLayer::new(
            3,
            1,
            QuantumInput::Angle,
            QuantumOutput::Probabilities,
            &mut r,
        );
        let x = Matrix::from_fn(3, 3, |i, j| 0.2 * (i + j) as f64);
        let y = layer.forward(&x).unwrap();
        for row in 0..3 {
            let s: f64 = y.row(row).iter().sum();
            assert!((s - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut r = rng();
        let mut layer = QuantumLayer::new(
            2,
            1,
            QuantumInput::Angle,
            QuantumOutput::ExpectationZ,
            &mut r,
        );
        assert!(layer.forward(&Matrix::zeros(1, 5)).is_err());
        assert!(layer.backward(&Matrix::zeros(1, 2)).is_err()); // before forward
    }

    #[test]
    fn zero_row_amplitude_input_does_not_crash() {
        let mut r = rng();
        let mut layer = QuantumLayer::new(
            2,
            1,
            QuantumInput::Amplitude { in_features: 4 },
            QuantumOutput::ExpectationZ,
            &mut r,
        );
        let x = Matrix::zeros(1, 4);
        let y = layer.forward(&x).unwrap();
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        let g = layer.backward(&Matrix::filled(1, 2, 1.0)).unwrap();
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn param_gradients_match_finite_differences() {
        let mut r = rng();
        let mut layer = QuantumLayer::new(
            2,
            1,
            QuantumInput::Amplitude { in_features: 4 },
            QuantumOutput::ExpectationZ,
            &mut r,
        );
        let x = Matrix::from_rows(&[&[0.1, 0.4, 0.2, 0.3], &[0.5, 0.1, 0.1, 0.3]]).unwrap();
        // Loss = sum of outputs.
        let y = layer.forward(&x).unwrap();
        let base = y.sum();
        let ones = Matrix::filled(2, 2, 1.0);
        layer.backward(&ones).unwrap();
        let eps = 1e-6;
        for k in 0..layer.params.len() {
            let mut pert = layer.clone();
            let v = pert.params.value.get(0, k);
            pert.params.value.set(0, k, v + eps);
            let fp = pert.forward(&x).unwrap().sum();
            let fd = (fp - base) / eps;
            let an = layer.params.grad.get(0, k);
            assert!((an - fd).abs() < 1e-4, "param {k}: {an} vs {fd}");
        }
    }

    #[test]
    fn input_gradients_flow_through_angle_embedding() {
        let mut r = rng();
        let mut layer = QuantumLayer::new(
            2,
            1,
            QuantumInput::Angle,
            QuantumOutput::ExpectationZ,
            &mut r,
        );
        let x = Matrix::from_rows(&[&[0.3, -0.6]]).unwrap();
        let y = layer.forward(&x).unwrap();
        let base = y.sum();
        let gin = layer.backward(&Matrix::filled(1, 2, 1.0)).unwrap();
        let eps = 1e-6;
        for c in 0..2 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut l2 = layer.clone();
            l2.cached_input = None;
            let fp = l2.forward(&xp).unwrap().sum();
            let fd = (fp - base) / eps;
            assert!((gin.get(0, c) - fd).abs() < 1e-4, "input {c}");
        }
    }

    #[test]
    fn amplitude_input_gradient_is_zero() {
        let mut r = rng();
        let mut layer = QuantumLayer::new(
            2,
            1,
            QuantumInput::Amplitude { in_features: 4 },
            QuantumOutput::ExpectationZ,
            &mut r,
        );
        layer.forward(&Matrix::filled(1, 4, 0.5)).unwrap();
        let g = layer.backward(&Matrix::filled(1, 2, 1.0)).unwrap();
        assert_eq!(g.frobenius_norm(), 0.0);
    }

    #[test]
    fn threaded_passes_are_bit_identical_to_sequential() {
        let layer_with = |threads: Threads| {
            let mut r = rng();
            QuantumLayer::new(
                3,
                2,
                QuantumInput::Angle,
                QuantumOutput::ExpectationZ,
                &mut r,
            )
            .with_exec_policy(ExecPolicy::default().with_threads(threads))
        };
        let x = Matrix::from_fn(7, 3, |i, j| 0.3 * (i as f64) - 0.2 * (j as f64));
        let g = Matrix::from_fn(7, 3, |i, j| 0.1 * (i + j) as f64 - 0.4);

        let mut seq = layer_with(Threads::Off);
        let y_seq = seq.forward(&x).unwrap();
        let gi_seq = seq.backward(&g).unwrap();

        for threads in [Threads::Fixed(1), Threads::Fixed(3), Threads::Fixed(16)] {
            let mut par = layer_with(threads);
            assert_eq!(par.forward(&x).unwrap(), y_seq, "{threads:?}");
            assert_eq!(par.backward(&g).unwrap(), gi_seq, "{threads:?}");
            assert_eq!(par.params.grad, seq.params.grad, "{threads:?}");
        }
    }

    #[test]
    fn soa_backend_matches_dense_numerically() {
        for (input, output) in [
            (
                QuantumInput::Amplitude { in_features: 8 },
                QuantumOutput::ExpectationZ,
            ),
            (QuantumInput::Angle, QuantumOutput::Probabilities),
        ] {
            let layer_with = |backend: BackendKind| {
                let mut r = rng();
                QuantumLayer::new(3, 2, input, output, &mut r)
                    .with_exec_policy(ExecPolicy::default().with_backend(backend))
            };
            let x = Matrix::from_fn(4, input_width(input), |i, j| {
                0.15 * (i + 1) as f64 + 0.07 * j as f64
            });
            let mut dense = layer_with(BackendKind::Dense);
            let yd = dense.forward(&x).unwrap();
            let g = Matrix::from_fn(4, yd.cols(), |i, j| 0.3 * (i as f64) - 0.1 * (j as f64));
            dense.backward(&g).unwrap();
            let mut soa = layer_with(BackendKind::Soa);
            let ys = soa.forward(&x).unwrap();
            for (a, b) in yd.as_slice().iter().zip(ys.as_slice()) {
                assert!((a - b).abs() < 1e-12, "soa forward {a} vs {b}");
            }
            soa.backward(&g).unwrap();
            for (a, b) in dense
                .params
                .grad
                .as_slice()
                .iter()
                .zip(soa.params.grad.as_slice())
            {
                assert!((a - b).abs() < 1e-12, "soa grad {a} vs {b}");
            }
        }
    }

    fn input_width(input: QuantumInput) -> usize {
        match input {
            QuantumInput::Amplitude { in_features } => in_features,
            QuantumInput::Angle => 3,
        }
    }

    #[test]
    fn paper_parameter_count() {
        // 3 layers × 6 qubits × 3 = 54 per network; ×2 networks = 108.
        let mut r = rng();
        let mut enc = QuantumLayer::new(
            6,
            3,
            QuantumInput::Amplitude { in_features: 64 },
            QuantumOutput::ExpectationZ,
            &mut r,
        );
        let mut dec = QuantumLayer::new(
            6,
            3,
            QuantumInput::Angle,
            QuantumOutput::Probabilities,
            &mut r,
        );
        assert_eq!(enc.parameter_count() + dec.parameter_count(), 108);
    }
}
