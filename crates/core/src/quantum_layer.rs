//! A variational quantum circuit as a neural-network layer.
//!
//! The layer implements [`Module`], so classical and quantum stages
//! backpropagate through each other exactly as the paper's hybrid
//! architecture requires. Each pass first **compiles the circuit once per
//! batch** into a [`CompiledTape`] — parameters bound, commuting
//! single-qubit gates pre-fused, CNOT runs flattened, and (for training)
//! the adjoint sweep pre-inverted into rotation blocks — and every batch
//! row then replays that tape, so the per-gate lowering work is paid once
//! instead of once per row.
//!
//! **Rows run as lanes of a register bank.** Every row of a patch replays
//! the same tape, so a pass splits each patch's rows into chunks of at
//! most 32 and runs each chunk as the lanes of one [`RegisterBank`]: a
//! batch-major register whose kernels loop over rows with unit stride.
//! Each lane does exactly the `f64` operations the per-row
//! [`StateVector`] does on its row, so outputs and gradients are
//! bit-identical to the per-row simulator for any chunking.
//!
//! **Forward keeps, backward sweeps.** The training forward
//! ([`Module::forward`]) compiles the tape with its adjoint program and
//! simulates each row once. It reads the outputs off each chunk's final
//! bank, then keeps the tape, every chunk's bank (about `2^n × 16` bytes
//! per row) and, for angle input, the angles the tape's input stops read.
//! [`Module::backward`] runs only the adjoint sweep over those banks
//! ([`adjoint::backward_expectations_z_bank`]), against each row's
//! upstream-weighted diagonal observable, and consumes them: it neither
//! recompiles nor re-simulates, and it differentiates the angles the
//! forward ran with even if the optimizer stepped them since. The next
//! forward drops whatever is still kept before it simulates. The
//! evaluation forward ([`Module::infer`]) compiles a forward-only tape and
//! keeps nothing.
//!
//! Chunks are independent simulations, so all three passes map
//! `(patch, chunk)` items on the process-wide compute pool
//! ([`sqvae_nn::parallel`]) according to the layer's [`ExecPolicy`]
//! threads knob: each patch splits into `max(⌈seats / patches⌉, ⌈rows /
//! 32⌉)` chunks (never more than its rows), `seats` being the threads the
//! pass takes part with. A new layer starts from [`ExecPolicy::from_env`],
//! and [`Module::set_exec_policy`] changes it. The calling thread and the
//! pool's persistent helpers claim items one at a time, each with its own
//! reused scratch; no thread is spawned per pass. The shared tape is
//! immutable and crosses threads by reference. Results land in
//! preallocated item slots and gradients accumulate per patch in fixed row
//! order, so the parallel path is bit-identical to the sequential one. A
//! backward keeps its forward's chunks, whatever the policy says since.

use rand::Rng;
use sqvae_nn::parallel;
use sqvae_nn::{init, ExecPolicy, Matrix, Module, NnError, ParamTensor, Threads};
use sqvae_quantum::embed::{
    amplitude_embedding, angle_embedding_gates, qubits_for_features, RotationAxis,
};
use sqvae_quantum::grad::adjoint;
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::{BankScratch, Circuit, CompiledTape, RegisterBank, StateVector};
use std::ops::Range;

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
    kept: Option<Kept>,
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
            kept: None,
            exec: ExecPolicy::from_env(),
        }
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

    /// Lowers the circuit with the current trainable angles into a
    /// [`CompiledTape`] carrying the adjoint program, for a training
    /// forward whose backward sweeps the same tape.
    fn compile_tape(&self) -> CompiledTape {
        self.circuit
            .compile(self.params.value.as_slice())
            .expect("validated circuit")
    }

    /// [`Self::compile_tape`] without the adjoint program, for evaluation
    /// passes (which never differentiate).
    fn compile_forward_tape(&self) -> CompiledTape {
        self.circuit
            .compile_forward(self.params.value.as_slice())
            .expect("validated circuit")
    }

    /// Loads patch `k`'s share of rows `rows` of `input`, for the work item
    /// `(k, rows)`, into the lanes of `bank`, which holds `|0…0⟩` in
    /// `rows.len()` lanes, and runs `tape` on it. An
    /// amplitude-input row is embedded into its lane; an angle-input lane
    /// starts from `|0…0⟩` and its row is the angles `tape` reads.
    /// `lanes` is reused to hold the per-lane input rows.
    fn run_chunk<'a>(
        &self,
        tape: &CompiledTape,
        input: &'a Matrix,
        (k, rows): (usize, Range<usize>),
        bank: &mut RegisterBank,
        lanes: &mut Vec<&'a [f64]>,
        sim: &mut BankScratch,
    ) {
        let in_w = self.in_features();
        lanes.clear();
        for (l, r) in rows.enumerate() {
            let x = patch_cols(input.row(r), k, in_w);
            match self.input_mode {
                QuantumInput::Amplitude { .. } => {
                    bank.set_lane(l, &self.embedded_initial(x))
                        .expect("the embedding has the layer's width");
                    lanes.push(&[]);
                }
                QuantumInput::Angle => lanes.push(x),
            }
        }
        bank.execute_tape(tape, lanes, sim)
            .expect("validated circuit");
    }

    /// Writes the layer's readout of every lane of `bank` into `out`,
    /// lane-major (cleared first, capacity reused).
    fn read_out_bank(&self, bank: &RegisterBank, out: &mut Vec<f64>, sim: &mut BankScratch) {
        match self.output_mode {
            QuantumOutput::ExpectationZ => bank.expectations_z_into(out, sim),
            QuantumOutput::Probabilities => bank.probabilities_into(out),
        }
    }

    /// Adds one row's parameter gradients into the accumulated gradient, in
    /// caller-chosen order (the determinism guarantee lives with the caller).
    fn accumulate_param_grads(&mut self, row_grads: &[f64]) {
        for (i, g) in row_grads.iter().enumerate() {
            let cur = self.params.grad.get(0, i);
            self.params.grad.set(0, i, cur + g);
        }
    }
}

/// What a training forward keeps for its backward.
///
/// The forward passes here run a **bank** of structurally identical
/// sub-circuits ([`crate::PatchedQuantumLayer`]; a lone [`QuantumLayer`] is
/// a bank of one) as one patch-major list of work items. Patch `k` reads
/// columns `k·in..(k+1)·in` of each input row and writes columns
/// `k·out..(k+1)·out` of each output row. An item is a `(patch, chunk)`
/// pair whose rows run as the lanes of one [`RegisterBank`], and the
/// forward keeps one bank per item.
#[derive(Debug, Clone)]
pub(crate) struct Kept {
    /// Per patch, the tape the forward executed, adjoint program included.
    tapes: Vec<CompiledTape>,
    /// The batch input, kept only for angle input, whose input stops read
    /// it; the sweep never reads amplitude-embedded data.
    inputs: Option<Matrix>,
    rows: usize,
    /// Every `(patch, chunk)` item's final bank, patch-major.
    banks: Vec<RegisterBank>,
}

/// The most rows one [`RegisterBank`] runs as lanes. In a sweep of 8, 16,
/// 32 and 64 lanes at 7 qubits × 256 rows (EXPERIMENTS.md), 32 and 64
/// lanes tied as the fastest, ahead of 8 and 16; 32 keeps half the
/// scratch and leaves more chunks to balance across threads.
const LANES: usize = 32;

/// How a pass splits each patch's rows into chunks, each run as the
/// lanes of one [`RegisterBank`]: `c = max(⌈seats / patches⌉, ⌈rows /
/// LANES⌉)` chunks of near-equal length, never more than the rows, where
/// `seats` is the threads the pass takes part with. Lanes never read each
/// other, so results are bit-identical for any chunking.
#[derive(Debug, Clone, Copy)]
struct Chunks {
    rows: usize,
    /// `c`, the chunks of each patch (0 for an empty batch).
    per_patch: usize,
}

impl Chunks {
    fn new(rows: usize, patches: usize, threads: Threads) -> Self {
        let seats = parallel::seats(patches * rows, threads);
        let per_patch = seats.div_ceil(patches).max(rows.div_ceil(LANES)).min(rows);
        Chunks { rows, per_patch }
    }

    /// The split a forward used, from the banks it kept.
    fn of_kept(rows: usize, patches: usize, banks: usize) -> Self {
        Chunks {
            rows,
            per_patch: banks / patches,
        }
    }

    /// Number of `(patch, chunk)` work items.
    fn items(&self, patches: usize) -> usize {
        patches * self.per_patch
    }

    /// The longest chunk's row count.
    fn max_len(&self) -> usize {
        self.rows.div_ceil(self.per_patch.max(1))
    }

    /// Splits a patch-major work-item index into its patch and its rows.
    fn item(&self, idx: usize) -> (usize, Range<usize>) {
        let (k, j) = (idx / self.per_patch, idx % self.per_patch);
        let start = |j: usize| j * self.rows / self.per_patch;
        (k, start(j)..start(j + 1))
    }
}

/// One thread's working storage for the passes: the simulator's
/// scratch, the per-lane row views of the chunk in hand, and (for
/// evaluation) a reused bank and readout buffer.
struct BankWork<'a> {
    sim: BankScratch,
    inputs: Vec<&'a [f64]>,
    upstream: Vec<&'a [f64]>,
    bank: Option<RegisterBank>,
    out: Vec<f64>,
}

impl BankWork<'_> {
    fn new() -> Self {
        BankWork {
            sim: BankScratch::default(),
            inputs: Vec::new(),
            upstream: Vec::new(),
            bank: None,
            out: Vec::new(),
        }
    }
}

/// Writes a chunk's lane-major readout `y` (`width` values per lane) into
/// rows `rows`, columns `k·width..(k+1)·width`, of `out`.
fn scatter(out: &mut Matrix, y: &[f64], k: usize, rows: Range<usize>, width: usize) {
    for (r, y) in rows.zip(y.chunks_exact(width)) {
        out.row_mut(r)[k * width..(k + 1) * width].copy_from_slice(y);
    }
}

impl Kept {
    /// Takes what `slot` holds for a backward pass with `grad_output` over
    /// `out_features` columns. A shape error leaves it in place, so a
    /// corrected call still succeeds.
    pub(crate) fn take_for(
        slot: &mut Option<Kept>,
        grad_output: &Matrix,
        out_features: usize,
    ) -> Result<Kept, NnError> {
        let kept = slot.as_ref().ok_or(NnError::BackwardBeforeForward)?;
        let expected = (kept.rows, out_features);
        if grad_output.shape() != expected {
            return Err(NnError::ShapeMismatch {
                expected,
                actual: grad_output.shape(),
            });
        }
        Ok(slot.take().expect("checked above"))
    }
}

/// Columns `k·width..(k+1)·width` of a row: patch `k`'s share of it.
fn patch_cols(row: &[f64], k: usize, width: usize) -> &[f64] {
    &row[k * width..(k + 1) * width]
}

/// The training forward of a bank: compiles every patch's tape with its
/// adjoint program, runs every `(patch, chunk)` item's rows as the lanes of
/// a new bank, and returns the outputs with what [`backward_bank`] sweeps
/// from: the tapes and every item's bank.
pub(crate) fn forward_bank(
    bank: &[QuantumLayer],
    input: &Matrix,
    threads: Threads,
) -> (Matrix, Kept) {
    let tapes: Vec<CompiledTape> = bank.iter().map(QuantumLayer::compile_tape).collect();
    let rows = input.rows();
    let chunks = Chunks::new(rows, bank.len(), threads);
    let items = parallel::map_rows_with(
        chunks.items(bank.len()),
        threads,
        BankWork::new,
        |idx, work| {
            let (k, range) = chunks.item(idx);
            let mut regs =
                RegisterBank::zero_state(bank[k].n_qubits(), range.len()).expect("valid register");
            bank[k].run_chunk(
                &tapes[k],
                input,
                (k, range),
                &mut regs,
                &mut work.inputs,
                &mut work.sim,
            );
            let mut y = Vec::new();
            bank[k].read_out_bank(&regs, &mut y, &mut work.sim);
            (regs, y)
        },
    );
    let out_w = bank[0].out_features();
    let mut out = Matrix::zeros(rows, bank.len() * out_w);
    let banks = items
        .into_iter()
        .enumerate()
        .map(|(idx, (regs, y))| {
            let (k, range) = chunks.item(idx);
            scatter(&mut out, &y, k, range, out_w);
            regs
        })
        .collect();
    let inputs = matches!(bank[0].input_mode, QuantumInput::Angle).then(|| input.clone());
    let kept = Kept {
        tapes,
        inputs,
        rows,
        banks,
    };
    (out, kept)
}

/// The evaluation forward of a bank: forward-only tapes, every
/// `(patch, chunk)` item run as the lanes of one reused bank per thread
/// and read out into a slot sized for the longest chunk, nothing kept.
/// Bit-identical to [`forward_bank`]'s outputs.
pub(crate) fn infer_bank(bank: &[QuantumLayer], input: &Matrix, threads: Threads) -> Matrix {
    let tapes: Vec<CompiledTape> = bank
        .iter()
        .map(QuantumLayer::compile_forward_tape)
        .collect();
    let rows = input.rows();
    let chunks = Chunks::new(rows, bank.len(), threads);
    let out_w = bank[0].out_features();
    let slot_len = chunks.max_len() * out_w;
    let mut results = vec![0.0; chunks.items(bank.len()) * slot_len];
    parallel::fill_rows(
        &mut results,
        slot_len,
        threads,
        BankWork::new,
        |idx, work, slot| {
            let (k, range) = chunks.item(idx);
            let n = bank[k].n_qubits();
            let regs = work
                .bank
                .get_or_insert_with(|| RegisterBank::zero_state(n, 0).expect("valid register"));
            regs.reset(n, range.len()).expect("valid register");
            bank[k].run_chunk(
                &tapes[k],
                input,
                (k, range),
                regs,
                &mut work.inputs,
                &mut work.sim,
            );
            bank[k].read_out_bank(regs, &mut work.out, &mut work.sim);
            slot[..work.out.len()].copy_from_slice(&work.out);
        },
    );
    let mut out = Matrix::zeros(rows, bank.len() * out_w);
    for (idx, y) in results.chunks_exact(slot_len.max(1)).enumerate() {
        let (k, range) = chunks.item(idx);
        scatter(&mut out, y, k, range, out_w);
    }
    out
}

/// The backward of a bank: sweeps every kept bank against its rows' share
/// of `grad_output` (shape-checked by [`Kept::take_for`]), consuming it,
/// then accumulates parameter gradients per patch in fixed row order and
/// returns the input gradient (zeros for amplitude-embedded raw data).
pub(crate) fn backward_bank(
    bank: &mut [QuantumLayer],
    kept: Kept,
    grad_output: &Matrix,
    threads: Threads,
) -> Matrix {
    let Kept {
        tapes,
        inputs,
        rows,
        banks,
    } = kept;
    let (layers, inputs) = (&*bank, inputs.as_ref());
    let chunks = Chunks::of_kept(rows, layers.len(), banks.len());
    let (in_w, out_w) = (layers[0].in_features(), layers[0].out_features());
    let per_item = parallel::map_items(banks, threads, BankWork::new, |idx, mut ket, work| {
        let (k, range) = chunks.item(idx);
        work.inputs.clear();
        work.upstream.clear();
        for r in range {
            let x = inputs.map_or(&[][..], |m| patch_cols(m.row(r), k, in_w));
            work.inputs.push(x);
            work.upstream.push(patch_cols(grad_output.row(r), k, out_w));
        }
        let sweep = match layers[k].output_mode {
            QuantumOutput::ExpectationZ => adjoint::backward_expectations_z_bank,
            QuantumOutput::Probabilities => adjoint::backward_probabilities_bank,
        };
        sweep(
            &tapes[k],
            &work.inputs,
            &mut ket,
            &work.upstream,
            &mut work.sim,
        )
        .expect("a kept bank matches its tape")
    });
    // Per `(patch, row)`, patch-major.
    let per: Vec<_> = per_item.into_iter().flatten().collect();
    let mut grad_input = Matrix::zeros(rows, bank.len() * in_w);
    for (k, layer) in bank.iter_mut().enumerate() {
        for r in 0..rows {
            let grads = &per[k * rows + r];
            layer.accumulate_param_grads(&grads.params);
            if matches!(layer.input_mode, QuantumInput::Angle) {
                grad_input.row_mut(r)[k * in_w..(k + 1) * in_w].copy_from_slice(&grads.inputs);
            }
        }
    }
    grad_input
}

impl Module for QuantumLayer {
    fn forward(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        self.check_width(input)?;
        self.kept = None;
        let (out, kept) = forward_bank(std::slice::from_ref(self), input, self.exec.threads);
        self.kept = Some(kept);
        Ok(out)
    }

    fn infer(&self, input: &Matrix) -> Result<Matrix, NnError> {
        self.check_width(input)?;
        Ok(infer_bank(
            std::slice::from_ref(self),
            input,
            self.exec.threads,
        ))
    }

    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix, NnError> {
        let width = self.out_features();
        let kept = Kept::take_for(&mut self.kept, grad_output, width)?;
        let threads = self.exec.threads;
        Ok(backward_bank(
            std::slice::from_mut(self),
            kept,
            grad_output,
            threads,
        ))
    }

    fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        vec![&mut self.params]
    }

    fn set_exec_policy(&mut self, policy: ExecPolicy) {
        self.exec = policy;
    }
}

/// The per-row oracles the bank passes are tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// The start state and angles of one row: an amplitude-input row
    /// becomes the start state; an angle-input row starts from `|0…0⟩` and
    /// is the angles the tape reads.
    fn row_start<'a>(layer: &QuantumLayer, row: &'a [f64]) -> (StateVector, &'a [f64]) {
        match layer.input_mode {
            QuantumInput::Amplitude { .. } => (layer.embedded_initial(row), &[]),
            QuantumInput::Angle => (StateVector::zero_state(layer.n_qubits()).unwrap(), row),
        }
    }

    /// A bank's forward outputs, one `StateVector` per `(patch, row)`, read
    /// out row by row.
    pub(crate) fn bank_outputs(bank: &[QuantumLayer], input: &Matrix) -> Matrix {
        let (in_w, out_w) = (bank[0].in_features(), bank[0].out_features());
        let mut out = Matrix::zeros(input.rows(), bank.len() * out_w);
        for (k, layer) in bank.iter().enumerate() {
            let tape = layer.compile_forward_tape();
            for r in 0..input.rows() {
                let (mut state, angles) = row_start(layer, patch_cols(input.row(r), k, in_w));
                state.execute_tape(&tape, angles).unwrap();
                let y = match layer.output_mode {
                    QuantumOutput::ExpectationZ => (0..layer.n_qubits())
                        .map(|w| state.expectation_z(w).unwrap())
                        .collect(),
                    QuantumOutput::Probabilities => state.probabilities(),
                };
                out.row_mut(r)[k * out_w..(k + 1) * out_w].copy_from_slice(&y);
            }
        }
        out
    }

    /// A bank's gradients from `adjoint::backward_*_tape` on
    /// `Circuit::compile(angles)`, which re-executes every row: per patch,
    /// the parameter gradients summed over rows in row order, and the input
    /// gradient matrix.
    pub(crate) fn bank_gradients(
        bank: &[QuantumLayer],
        input: &Matrix,
        grad_output: &Matrix,
    ) -> (Vec<Vec<f64>>, Matrix) {
        let (in_w, out_w) = (bank[0].in_features(), bank[0].out_features());
        let mut grad_input = Matrix::zeros(input.rows(), bank.len() * in_w);
        let mut params = Vec::new();
        for (k, layer) in bank.iter().enumerate() {
            let tape = layer
                .circuit
                .compile(layer.params.value.as_slice())
                .unwrap();
            let mut sum = vec![0.0; tape.n_params()];
            for r in 0..input.rows() {
                let (initial, inputs) = row_start(layer, patch_cols(input.row(r), k, in_w));
                let upstream = patch_cols(grad_output.row(r), k, out_w);
                let sweep = match layer.output_mode {
                    QuantumOutput::ExpectationZ => adjoint::backward_expectations_z_tape,
                    QuantumOutput::Probabilities => adjoint::backward_probabilities_tape,
                };
                let g = sweep(&tape, inputs, Some(&initial), upstream).unwrap();
                for (acc, v) in sum.iter_mut().zip(&g.params) {
                    *acc += v;
                }
                if matches!(layer.input_mode, QuantumInput::Angle) {
                    grad_input.row_mut(r)[k * in_w..(k + 1) * in_w].copy_from_slice(&g.inputs);
                }
            }
            params.push(sum);
        }
        (params, grad_input)
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

    fn with_threads(mut layer: QuantumLayer, threads: Threads) -> QuantumLayer {
        layer.set_exec_policy(ExecPolicy {
            threads,
            ..ExecPolicy::from_env()
        });
        layer
    }

    #[test]
    fn a_new_layer_starts_from_the_environment_policy() {
        for (input, output) in MODES {
            let layer = QuantumLayer::new(3, 1, input, output, &mut rng());
            assert_eq!(layer.exec, ExecPolicy::from_env(), "{input:?} {output:?}");
        }
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
            let fp = layer.infer(&xp).unwrap().sum();
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
            let layer = QuantumLayer::new(
                3,
                2,
                QuantumInput::Angle,
                QuantumOutput::ExpectationZ,
                &mut r,
            );
            with_threads(layer, threads)
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

    /// Every (input, output) pairing the models use.
    const MODES: [(QuantumInput, QuantumOutput); 3] = [
        (
            QuantumInput::Amplitude { in_features: 8 },
            QuantumOutput::ExpectationZ,
        ),
        (QuantumInput::Angle, QuantumOutput::ExpectationZ),
        (QuantumInput::Angle, QuantumOutput::Probabilities),
    ];

    #[test]
    fn kept_register_backward_equals_the_re_executing_oracle_bitwise() {
        // 0 rows, one lane, odd chunks, one row past a 32-lane chunk, and 65
        // rows: three uneven chunks (21/22/22) on every policy and host.
        for rows in [0, 1, 3, 5, 33, 65] {
            for (input, output) in MODES {
                let x = Matrix::from_fn(rows, input_width(input), |i, j| {
                    0.21 * (i % 7 + 1) as f64 - 0.13 * j as f64
                });
                for threads in [Threads::Off, Threads::Fixed(3)] {
                    let mut r = rng();
                    let layer = QuantumLayer::new(3, 2, input, output, &mut r);
                    let mut layer = with_threads(layer, threads);
                    let case = format!("{rows} rows {input:?} {output:?} {threads:?}");
                    let y = layer.forward(&x).unwrap();
                    assert_eq!(y.shape(), (rows, layer.out_features()), "{case}");
                    assert_eq!(layer.infer(&x).unwrap(), y, "{case}");
                    let want_y = oracle::bank_outputs(std::slice::from_ref(&layer), &x);
                    assert_eq!(y, want_y, "{case}");
                    let g = Matrix::from_fn(rows, y.cols(), |i, j| {
                        0.3 * (i % 5) as f64 - 0.17 * j as f64
                    });
                    let gin = layer.backward(&g).unwrap();
                    let (params, want_gin) =
                        oracle::bank_gradients(std::slice::from_ref(&layer), &x, &g);
                    assert_eq!(layer.params.grad.as_slice(), &params[0][..], "{case}");
                    assert_eq!(gin, want_gin, "{case}");
                }
            }
        }
    }

    #[test]
    fn backward_differentiates_the_forward_that_ran_once() {
        use sqvae_nn::{Optimizer, Sgd};
        for (input, output) in MODES {
            let x = Matrix::from_fn(4, input_width(input), |i, j| 0.1 * (i + 2 * j) as f64);
            let fresh = || {
                let mut r = rng();
                let layer = QuantumLayer::new(3, 2, input, output, &mut r);
                with_threads(layer, Threads::Off)
            };
            let mut reference = fresh();
            let y = reference.forward(&x).unwrap();
            let g = Matrix::from_fn(4, y.cols(), |i, j| 0.2 * i as f64 - 0.1 * j as f64);
            let want_gin = reference.backward(&g).unwrap();

            // Neither an optimizer step nor a policy change between
            // forward and backward leaks into the gradients: backward
            // sweeps the forward's banks with its tape.
            let mut stepped = fresh();
            stepped.forward(&x).unwrap();
            stepped.params.grad.fill(0.7);
            Sgd::new(0.5).step(&mut stepped.parameters()).unwrap();
            stepped.zero_grad();
            stepped = with_threads(stepped, Threads::Fixed(3));
            assert_ne!(stepped.params.value, reference.params.value);
            assert_eq!(stepped.backward(&g).unwrap(), want_gin);
            assert_eq!(stepped.params.grad, reference.params.grad);
            // The registers are consumed: one backward per forward.
            assert_eq!(
                stepped.backward(&g).unwrap_err(),
                NnError::BackwardBeforeForward
            );

            // A backward rejected for its shape keeps the registers.
            let mut retried = fresh();
            retried.forward(&x).unwrap();
            assert!(matches!(
                retried.backward(&Matrix::zeros(4, y.cols() + 1)),
                Err(NnError::ShapeMismatch { .. })
            ));
            assert!(matches!(
                retried.backward(&Matrix::zeros(3, y.cols())),
                Err(NnError::ShapeMismatch { .. })
            ));
            assert_eq!(retried.backward(&g).unwrap(), want_gin);
            assert_eq!(retried.params.grad, reference.params.grad);
        }
    }
}
