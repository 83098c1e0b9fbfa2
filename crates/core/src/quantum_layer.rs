//! A variational quantum circuit as a neural-network layer, run as one or
//! more patches — the paper's central scaling device (§III-C).
//!
//! The layer implements [`Module`], so classical and quantum stages
//! backpropagate through each other exactly as the paper's hybrid
//! architecture requires.
//!
//! **Patches.** "We partition the entire feature vector into multiple
//! equal-sized sub-vectors, and each sub-vector is fed into a quantum
//! sub-circuit." A layer holds one sub-circuit structure and one angle
//! vector per patch. Patch `k` reads columns `k·in..(k+1)·in` of each input
//! row and writes columns `k·out..(k+1)·out` of each output row, `in` and
//! `out` being the sub-circuit's widths. [`QuantumLayer::new`] builds one
//! patch, the paper's baseline; [`QuantumLayer::amplitude_encoder`] and
//! [`QuantumLayer::angle_decoder`] build `p`. With `p` patches over a
//! 1024-feature input, each sub-circuit amplitude-embeds `1024/p` features
//! into `log2(1024/p)` qubits and measures per-wire `⟨Z⟩`, so the latent
//! space dimension grows to `LSD = p · log2(1024/p)` — 18, 32, 56, 96 for
//! p = 2, 4, 8, 16 — instead of the baseline's 10 ([`patched_latent_dim`]).
//!
//! Each pass first **compiles the circuit once per patch and batch** into a
//! [`CompiledTape`] — the patch's angles bound, commuting single-qubit gates
//! pre-fused, CNOT runs flattened, and (for training) the adjoint sweep
//! pre-inverted into rotation blocks — and every batch row then replays
//! its patch's tape, so the per-gate lowering work is paid once instead of
//! once per row.
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
//! ([`Module::forward`]) compiles every patch's tape with its adjoint
//! program and simulates each row once. It reads the outputs off each
//! chunk's final bank, then keeps the tapes, every chunk's bank (about
//! `2^n × 16` bytes per row and patch) and, for angle input, the angles the
//! tapes' input stops read. [`Module::backward`] runs only the adjoint
//! sweep over those banks ([`adjoint::backward_expectations_z_bank`]),
//! against each row's upstream-weighted diagonal observable, and consumes
//! them: it neither recompiles nor re-simulates, and it differentiates the
//! angles the forward ran with even if the optimizer stepped them since.
//! The next forward drops whatever is still kept before it simulates. The
//! evaluation forward ([`Module::infer`]) compiles forward-only tapes and
//! keeps nothing.
//!
//! Chunks are independent simulations, so all three passes map
//! `(patch, chunk)` items, patch-major, as one call on the process-wide
//! compute pool ([`sqvae_nn::parallel`]) according to the layer's
//! [`ExecPolicy`] threads knob: each patch splits into `max(⌈seats /
//! patches⌉, ⌈rows / 32⌉)` chunks (never more than its rows), `seats` being
//! the threads the pass takes part with. A new layer starts from
//! [`ExecPolicy::from_env`], and [`Module::set_exec_policy`] changes it.
//! The calling thread and the pool's persistent helpers claim items one at
//! a time, each with its own reused scratch; no thread is spawned per
//! pass. The shared tapes are immutable and cross threads by reference.
//! Results land in preallocated item slots and gradients accumulate per
//! patch in fixed row order, so the parallel path is bit-identical to the
//! sequential one. A backward keeps its forward's chunks, whatever the
//! policy says since.

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

/// How classical data enters each patch's sub-circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumInput {
    /// Amplitude embedding: `in_features ≤ 2^n_qubits` values become the
    /// initial state (qubit-efficient; used by encoders). Inputs receive no
    /// gradient (they are raw data).
    Amplitude {
        /// Width of one patch's embedded feature vector.
        in_features: usize,
    },
    /// Angle embedding: one `RY(x_i)` per wire (used by decoders); inputs
    /// are differentiable.
    Angle,
}

/// What measurement each patch returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantumOutput {
    /// Per-wire `⟨Z⟩` — `n_qubits` outputs in [-1, 1].
    ExpectationZ,
    /// All basis-state probabilities — `2^n_qubits` outputs summing to 1.
    Probabilities,
}

/// Latent space dimension of a patched encoder over `input_dim` features
/// with `p` patches: `p · log2(input_dim / p)`.
///
/// # Panics
///
/// Panics unless `input_dim` and `p` are powers of two with `p < input_dim`.
///
/// # Examples
///
/// ```
/// use sqvae_core::patched_latent_dim;
/// // The paper's §IV-D: LSD 18/32/56/96 for 2/4/8/16 patches on 1024.
/// assert_eq!(patched_latent_dim(1024, 2), 18);
/// assert_eq!(patched_latent_dim(1024, 4), 32);
/// assert_eq!(patched_latent_dim(1024, 8), 56);
/// assert_eq!(patched_latent_dim(1024, 16), 96);
/// ```
pub fn patched_latent_dim(input_dim: usize, p: usize) -> usize {
    assert!(
        input_dim.is_power_of_two() && p.is_power_of_two() && p < input_dim,
        "input_dim and patch count must be powers of two with p < input_dim"
    );
    let per_patch = input_dim / p;
    p * (per_patch.trailing_zeros() as usize)
}

/// Strongly-entangling variational sub-circuits, one structure with one
/// angle vector per patch, behaving as one `Module` whose outputs are the
/// patches' outputs side by side.
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
    /// Every patch's sub-circuit, bound to that patch's angles when a pass
    /// compiles it.
    circuit: Circuit,
    input_mode: QuantumInput,
    output_mode: QuantumOutput,
    /// One `1 × n_params` angle vector per patch, in patch order.
    params: Vec<ParamTensor>,
    kept: Option<Kept>,
    exec: ExecPolicy,
}

/// [`QuantumLayer`] under the name the end-to-end benchmark in `perfbench/`
/// still calls its patched constructors by. It exists only for those calls;
/// delete it once they go.
pub type PatchedQuantumLayer = QuantumLayer;

impl QuantumLayer {
    /// Builds one patch: `n_layers` strongly-entangling layers on
    /// `n_qubits` wires with angles initialized uniformly in `[-π, π]`.
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
        Self::patches(1, n_qubits, n_layers, input_mode, output_mode, rng)
    }

    /// An encoder of `p` patches: each amplitude-embeds `input_dim / p`
    /// features and measures `⟨Z⟩` per wire.
    ///
    /// # Panics
    ///
    /// Panics unless `input_dim` and `p` are powers of two with
    /// `p < input_dim` (construction-time configuration).
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use sqvae_core::QuantumLayer;
    /// use sqvae_nn::{Matrix, Module};
    ///
    /// let mut rng = StdRng::seed_from_u64(0);
    /// // 2 patches × (16 features → 4 qubits → 4 expectations) = 8-dim output.
    /// let mut layer = QuantumLayer::amplitude_encoder(32, 2, 1, &mut rng);
    /// let y = layer.forward(&Matrix::filled(3, 32, 0.5)).unwrap();
    /// assert_eq!(y.shape(), (3, 8));
    /// ```
    pub fn amplitude_encoder(
        input_dim: usize,
        p: usize,
        n_layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let n_qubits = patched_latent_dim(input_dim, p) / p;
        let input_mode = QuantumInput::Amplitude {
            in_features: input_dim / p,
        };
        Self::patches(
            p,
            n_qubits,
            n_layers,
            input_mode,
            QuantumOutput::ExpectationZ,
            rng,
        )
    }

    /// A decoder of `p` patches: each angle-embeds `latent_dim / p` values
    /// and measures `⟨Z⟩` per wire (the paper's scalable decoder readout).
    ///
    /// # Panics
    ///
    /// Panics unless `p` divides `latent_dim` (construction-time
    /// configuration).
    pub fn angle_decoder(latent_dim: usize, p: usize, n_layers: usize, rng: &mut impl Rng) -> Self {
        assert!(
            p > 0 && latent_dim % p == 0,
            "patch count must divide the latent dimension"
        );
        Self::patches(
            p,
            latent_dim / p,
            n_layers,
            QuantumInput::Angle,
            QuantumOutput::ExpectationZ,
            rng,
        )
    }

    /// `p` patches of one sub-circuit, their angle vectors drawn from `rng`
    /// in patch order.
    fn patches(
        p: usize,
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
        let params = (0..p)
            .map(|_| ParamTensor::new(init::angle_uniform(1, circuit.n_params(), rng)))
            .collect();
        QuantumLayer {
            circuit,
            input_mode,
            output_mode,
            params,
            kept: None,
            exec: ExecPolicy::from_env(),
        }
    }

    /// Number of wires of each patch's sub-circuit.
    pub fn n_qubits(&self) -> usize {
        self.circuit.n_qubits()
    }

    /// Width of the input this layer expects: every patch's share.
    pub fn in_features(&self) -> usize {
        self.params.len() * self.patch_in()
    }

    /// Width of the output this layer produces: every patch's readout.
    pub fn out_features(&self) -> usize {
        self.params.len() * self.patch_out()
    }

    /// Input columns per patch.
    fn patch_in(&self) -> usize {
        match self.input_mode {
            QuantumInput::Amplitude { in_features } => in_features,
            QuantumInput::Angle => self.circuit.n_qubits(),
        }
    }

    /// Output columns per patch.
    fn patch_out(&self) -> usize {
        match self.output_mode {
            QuantumOutput::ExpectationZ => self.circuit.n_qubits(),
            QuantumOutput::Probabilities => 1 << self.circuit.n_qubits(),
        }
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

    /// Lowers the circuit with each patch's trainable angles into a
    /// [`CompiledTape`] carrying the adjoint program, for a training
    /// forward whose backward sweeps the same tapes.
    fn compile_tapes(&self) -> Vec<CompiledTape> {
        self.params
            .iter()
            .map(|p| {
                self.circuit
                    .compile(p.value.as_slice())
                    .expect("validated circuit")
            })
            .collect()
    }

    /// [`Self::compile_tapes`] without the adjoint programs, for
    /// evaluation passes (which never differentiate).
    fn compile_forward_tapes(&self) -> Vec<CompiledTape> {
        self.params
            .iter()
            .map(|p| {
                self.circuit
                    .compile_forward(p.value.as_slice())
                    .expect("validated circuit")
            })
            .collect()
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
        let in_w = self.patch_in();
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
}

/// What a training forward keeps for its backward: each patch's tape and
/// every `(patch, chunk)` item's final [`RegisterBank`].
#[derive(Debug, Clone)]
struct Kept {
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

/// Columns `k·width..(k+1)·width` of a row: patch `k`'s share of it.
fn patch_cols(row: &[f64], k: usize, width: usize) -> &[f64] {
    &row[k * width..(k + 1) * width]
}

impl Module for QuantumLayer {
    /// The training forward: compiles every patch's tape with its adjoint
    /// program, runs every `(patch, chunk)` item's rows as the lanes of a
    /// new bank, and keeps the tapes and every item's bank for
    /// [`Module::backward`] to sweep from.
    fn forward(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        self.check_width(input)?;
        self.kept = None;
        let tapes = self.compile_tapes();
        let (rows, patches, threads) = (input.rows(), self.params.len(), self.exec.threads);
        let chunks = Chunks::new(rows, patches, threads);
        let items = (0..chunks.items(patches)).map(|idx| chunks.item(idx));
        let ran = parallel::map_items(items, threads, BankWork::new, |_, (k, range), work| {
            let mut regs =
                RegisterBank::zero_state(self.n_qubits(), range.len()).expect("valid register");
            self.run_chunk(
                &tapes[k],
                input,
                (k, range),
                &mut regs,
                &mut work.inputs,
                &mut work.sim,
            );
            let mut y = Vec::new();
            self.read_out_bank(&regs, &mut y, &mut work.sim);
            (regs, y)
        });
        let out_w = self.patch_out();
        let mut out = Matrix::zeros(rows, patches * out_w);
        let banks = ran
            .into_iter()
            .enumerate()
            .map(|(idx, (regs, y))| {
                let (k, range) = chunks.item(idx);
                scatter(&mut out, &y, k, range, out_w);
                regs
            })
            .collect();
        let inputs = matches!(self.input_mode, QuantumInput::Angle).then(|| input.clone());
        self.kept = Some(Kept {
            tapes,
            inputs,
            rows,
            banks,
        });
        Ok(out)
    }

    /// The evaluation forward: forward-only tapes, every `(patch, chunk)`
    /// item run as the lanes of one reused bank per thread and read out
    /// into a slot sized for the longest chunk, nothing kept. Bit-identical
    /// to [`Module::forward`]'s outputs.
    fn infer(&self, input: &Matrix) -> Result<Matrix, NnError> {
        self.check_width(input)?;
        let (rows, patches, threads) = (input.rows(), self.params.len(), self.exec.threads);
        let out_w = self.patch_out();
        let mut out = Matrix::zeros(rows, patches * out_w);
        if rows == 0 {
            // No slots to fill, and `chunks_mut` takes no zero length.
            return Ok(out);
        }
        let tapes = self.compile_forward_tapes();
        let chunks = Chunks::new(rows, patches, threads);
        let slot_len = chunks.max_len() * out_w;
        let mut results = vec![0.0; chunks.items(patches) * slot_len];
        let slots = results.chunks_mut(slot_len);
        parallel::map_items(slots, threads, BankWork::new, |idx, slot, work| {
            let (k, range) = chunks.item(idx);
            let n = self.n_qubits();
            let regs = work
                .bank
                .get_or_insert_with(|| RegisterBank::zero_state(n, 0).expect("valid register"));
            regs.reset(n, range.len()).expect("valid register");
            self.run_chunk(
                &tapes[k],
                input,
                (k, range),
                regs,
                &mut work.inputs,
                &mut work.sim,
            );
            self.read_out_bank(regs, &mut work.out, &mut work.sim);
            slot[..work.out.len()].copy_from_slice(&work.out);
        });
        for (idx, y) in results.chunks_exact(slot_len).enumerate() {
            let (k, range) = chunks.item(idx);
            scatter(&mut out, y, k, range, out_w);
        }
        Ok(out)
    }

    /// Sweeps every kept bank against its rows' share of `grad_output`,
    /// consuming it, then accumulates each patch's parameter gradients in
    /// fixed row order and returns the input gradient (zeros for
    /// amplitude-embedded raw data). A shape error leaves the banks kept,
    /// so a corrected call still succeeds.
    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix, NnError> {
        let kept = self.kept.as_ref().ok_or(NnError::BackwardBeforeForward)?;
        let expected = (kept.rows, self.out_features());
        if grad_output.shape() != expected {
            return Err(NnError::ShapeMismatch {
                expected,
                actual: grad_output.shape(),
            });
        }
        let Kept {
            tapes,
            inputs,
            rows,
            banks,
        } = self.kept.take().expect("checked above");
        let inputs = inputs.as_ref();
        let patches = self.params.len();
        let chunks = Chunks::of_kept(rows, patches, banks.len());
        let (in_w, out_w) = (self.patch_in(), self.patch_out());
        let sweep = match self.output_mode {
            QuantumOutput::ExpectationZ => adjoint::backward_expectations_z_bank,
            QuantumOutput::Probabilities => adjoint::backward_probabilities_bank,
        };
        let threads = self.exec.threads;
        let per_item = parallel::map_items(banks, threads, BankWork::new, |idx, mut ket, work| {
            let (k, range) = chunks.item(idx);
            work.inputs.clear();
            work.upstream.clear();
            for r in range {
                let x = inputs.map_or(&[][..], |m| patch_cols(m.row(r), k, in_w));
                work.inputs.push(x);
                work.upstream.push(patch_cols(grad_output.row(r), k, out_w));
            }
            sweep(
                &tapes[k],
                &work.inputs,
                &mut ket,
                &work.upstream,
                &mut work.sim,
            )
            .expect("a kept bank matches its tape")
        });
        let angle = matches!(self.input_mode, QuantumInput::Angle);
        let mut grad_input = Matrix::zeros(rows, patches * in_w);
        // Items are patch-major and a patch's chunks run in row order, so
        // each patch adds its rows' parameter gradients in row order.
        for (idx, grads) in per_item.iter().enumerate() {
            let (k, range) = chunks.item(idx);
            let n_params = tapes[k].n_params();
            let per_lane = n_params + tapes[k].n_inputs();
            let acc = self.params[k].grad.as_mut_slice();
            for (l, r) in range.enumerate() {
                let (params, inputs) = grads[l * per_lane..(l + 1) * per_lane].split_at(n_params);
                for (a, g) in acc.iter_mut().zip(params) {
                    *a += g;
                }
                if angle {
                    grad_input.row_mut(r)[k * in_w..(k + 1) * in_w].copy_from_slice(inputs);
                }
            }
        }
        Ok(grad_input)
    }

    fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        self.params.iter_mut().collect()
    }

    fn set_exec_policy(&mut self, policy: ExecPolicy) {
        self.exec = policy;
    }
}

/// The per-row oracles the bank passes are tested against.
#[cfg(test)]
mod oracle {
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

    /// A layer's forward outputs, one `StateVector` per `(patch, row)`,
    /// read out row by row.
    pub(super) fn bank_outputs(layer: &QuantumLayer, input: &Matrix) -> Matrix {
        let (in_w, out_w) = (layer.patch_in(), layer.patch_out());
        let mut out = Matrix::zeros(input.rows(), layer.out_features());
        for (k, params) in layer.params.iter().enumerate() {
            let tape = layer
                .circuit
                .compile_forward(params.value.as_slice())
                .unwrap();
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

    /// A layer's gradients from `adjoint::backward_*_tape` on
    /// `Circuit::compile(angles)`, which re-executes every row: per patch,
    /// the parameter gradients summed over rows in row order, and the input
    /// gradient matrix.
    pub(super) fn bank_gradients(
        layer: &QuantumLayer,
        input: &Matrix,
        grad_output: &Matrix,
    ) -> (Vec<Vec<f64>>, Matrix) {
        let (in_w, out_w) = (layer.patch_in(), layer.patch_out());
        let mut grad_input = Matrix::zeros(input.rows(), layer.in_features());
        let mut params = Vec::new();
        for (k, angles) in layer.params.iter().enumerate() {
            let tape = layer.circuit.compile(angles.value.as_slice()).unwrap();
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

/// The pass contracts every build keeps, one patch or many, each checked on
/// one build: `tests` runs each on every build of its `layers()` and `banks()`.
#[cfg(test)]
mod contract {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqvae_nn::Threads;

    /// Builds a layer from a seeded RNG.
    pub(super) type Build = fn(&mut StdRng) -> QuantumLayer;

    pub(super) fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    pub(super) fn with_threads(mut layer: QuantumLayer, threads: Threads) -> QuantumLayer {
        layer.set_exec_policy(ExecPolicy {
            threads,
            ..ExecPolicy::from_env()
        });
        layer
    }

    fn grads(layer: &QuantumLayer) -> Vec<&Matrix> {
        layer.params.iter().map(|p| &p.grad).collect()
    }

    pub(super) fn starts_from_the_environment_policy(name: &str, build: Build) {
        assert_eq!(build(&mut rng()).exec, ExecPolicy::from_env(), "{name}");
    }

    /// Both forwards refuse a wrongly wide input, and `backward` refuses to
    /// run before a forward or on a wrongly wide upstream gradient.
    pub(super) fn rejects_wrong_widths(name: &str, build: Build) {
        let mut layer = build(&mut rng());
        let (w, out) = (layer.in_features(), layer.out_features());
        assert!(layer.forward(&Matrix::zeros(1, w + 2)).is_err(), "{name}");
        assert!(layer.infer(&Matrix::zeros(1, w - 1)).is_err(), "{name}");
        assert_eq!(
            layer.backward(&Matrix::zeros(1, out)).unwrap_err(),
            NnError::BackwardBeforeForward,
            "{name}"
        );
        layer.forward(&Matrix::filled(1, w, 0.1)).unwrap();
        assert!(
            layer.backward(&Matrix::zeros(1, out - 1)).is_err(),
            "{name}"
        );
    }

    /// Outputs, input gradients and parameter gradients at 1, 3 and 16
    /// threads are bit-identical to the sequential passes'.
    pub(super) fn threaded_passes_match_sequential(name: &str, build: Build) {
        let layer_with = |threads| with_threads(build(&mut rng()), threads);
        let mut seq = layer_with(Threads::Off);
        let x = Matrix::from_fn(7, seq.in_features(), |i, j| {
            0.3 * (i as f64) - 0.2 * (j as f64)
        });
        let y_seq = seq.forward(&x).unwrap();
        let g = Matrix::from_fn(7, y_seq.cols(), |i, j| 0.1 * (i + j) as f64 - 0.4);
        let gi_seq = seq.backward(&g).unwrap();

        for threads in [Threads::Fixed(1), Threads::Fixed(3), Threads::Fixed(16)] {
            let mut par = layer_with(threads);
            assert_eq!(par.forward(&x).unwrap(), y_seq, "{name} {threads:?}");
            assert_eq!(par.backward(&g).unwrap(), gi_seq, "{name} {threads:?}");
            assert_eq!(grads(&par), grads(&seq), "{name} {threads:?}");
        }
    }

    /// Both forwards and the kept-register backward equal the per-row
    /// oracles bit for bit.
    pub(super) fn kept_backward_matches_the_oracle(name: &str, build: Build) {
        // 0 rows, one lane, odd chunks, one row past a 32-lane chunk, and 65
        // rows: three uneven chunks (21/22/22) per patch on every policy and
        // host.
        for rows in [0, 1, 3, 5, 33, 65] {
            for threads in [Threads::Off, Threads::Fixed(3)] {
                let mut layer = with_threads(build(&mut rng()), threads);
                let x = Matrix::from_fn(rows, layer.in_features(), |i, j| {
                    0.21 * (i % 7 + 1) as f64 - 0.13 * j as f64
                });
                let case = format!("{rows} rows {name} {threads:?}");
                let y = layer.forward(&x).unwrap();
                assert_eq!(y.shape(), (rows, layer.out_features()), "{case}");
                assert_eq!(layer.infer(&x).unwrap(), y, "{case}");
                assert_eq!(y, oracle::bank_outputs(&layer, &x), "{case}");
                let g = Matrix::from_fn(rows, y.cols(), |i, j| {
                    0.3 * (i % 5) as f64 - 0.17 * j as f64
                });
                let gin = layer.backward(&g).unwrap();
                let (params, want_gin) = oracle::bank_gradients(&layer, &x, &g);
                let got: Vec<&[f64]> = layer.params.iter().map(|p| p.grad.as_slice()).collect();
                assert_eq!(got, params, "{case}");
                assert_eq!(gin, want_gin, "{case}");
            }
        }
    }

    /// `backward` differentiates the forward that ran, once: an optimizer
    /// step or a policy change in between leaks into no gradient, a second
    /// call is refused, and a call refused for its shape keeps the
    /// registers.
    pub(super) fn backward_differentiates_its_forward(name: &str, build: Build) {
        use sqvae_nn::{Optimizer, Sgd};
        let fresh = || with_threads(build(&mut rng()), Threads::Off);
        let mut reference = fresh();
        let x = Matrix::from_fn(4, reference.in_features(), |i, j| 0.1 * (i + 2 * j) as f64);
        let y = reference.forward(&x).unwrap();
        let g = Matrix::from_fn(4, y.cols(), |i, j| 0.2 * i as f64 - 0.1 * j as f64);
        let want_gin = reference.backward(&g).unwrap();

        // Backward sweeps the forward's banks with its tapes.
        let mut stepped = fresh();
        stepped.forward(&x).unwrap();
        for p in stepped.parameters() {
            p.grad.fill(0.7);
        }
        Sgd::new(0.5).step(&mut stepped.parameters()).unwrap();
        stepped.zero_grad();
        stepped = with_threads(stepped, Threads::Fixed(3));
        for (a, b) in stepped.params.iter().zip(&reference.params) {
            assert_ne!(a.value, b.value, "{name}");
        }
        assert_eq!(stepped.backward(&g).unwrap(), want_gin, "{name}");
        assert_eq!(grads(&stepped), grads(&reference), "{name}");
        // The registers are consumed: one backward per forward.
        assert_eq!(
            stepped.backward(&g).unwrap_err(),
            NnError::BackwardBeforeForward,
            "{name}"
        );

        let mut retried = fresh();
        retried.forward(&x).unwrap();
        assert!(
            matches!(
                retried.backward(&Matrix::zeros(4, y.cols() + 1)),
                Err(NnError::ShapeMismatch { .. })
            ),
            "{name}"
        );
        assert!(
            matches!(
                retried.backward(&Matrix::zeros(3, y.cols())),
                Err(NnError::ShapeMismatch { .. })
            ),
            "{name}"
        );
        assert_eq!(retried.backward(&g).unwrap(), want_gin, "{name}");
        assert_eq!(grads(&retried), grads(&reference), "{name}");
    }
}

#[cfg(test)]
mod tests {
    use super::contract::{self, rng, Build};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-patch builds the contracts run on: one in each (input,
    /// output) pairing the baselines build.
    fn layers() -> [(&'static str, Build); 3] {
        [
            ("amplitude ⟨Z⟩", |rng| {
                let input = QuantumInput::Amplitude { in_features: 8 };
                QuantumLayer::new(3, 2, input, QuantumOutput::ExpectationZ, rng)
            }),
            ("angle ⟨Z⟩", |rng| {
                QuantumLayer::new(3, 2, QuantumInput::Angle, QuantumOutput::ExpectationZ, rng)
            }),
            ("angle probabilities", |rng| {
                QuantumLayer::new(3, 2, QuantumInput::Angle, QuantumOutput::Probabilities, rng)
            }),
        ]
    }

    /// Both patched constructors as SQ-AE and SQ-VAE build them (§III-C):
    /// four amplitude patches of 8 features on 3 qubits, and three angle
    /// patches on 3 qubits.
    fn banks() -> [(&'static str, Build); 2] {
        [
            ("amplitude_encoder(32, 4, 2)", |rng| {
                QuantumLayer::amplitude_encoder(32, 4, 2, rng)
            }),
            ("angle_decoder(9, 3, 2)", |rng| {
                QuantumLayer::angle_decoder(9, 3, 2, rng)
            }),
        ]
    }

    #[test]
    fn a_new_layer_starts_from_the_environment_policy() {
        for (name, build) in layers() {
            contract::starts_from_the_environment_policy(name, build);
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
        for (name, build) in layers() {
            contract::rejects_wrong_widths(name, build);
        }
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
        for k in 0..layer.params[0].len() {
            let mut pert = layer.clone();
            let v = pert.params[0].value.get(0, k);
            pert.params[0].value.set(0, k, v + eps);
            let fp = pert.forward(&x).unwrap().sum();
            let fd = (fp - base) / eps;
            let an = layer.params[0].grad.get(0, k);
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
        for (name, build) in layers() {
            contract::threaded_passes_match_sequential(name, build);
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

    #[test]
    fn kept_register_backward_equals_the_re_executing_oracle_bitwise() {
        for (name, build) in layers() {
            contract::kept_backward_matches_the_oracle(name, build);
        }
    }

    #[test]
    fn backward_differentiates_the_forward_that_ran_once() {
        for (name, build) in layers() {
            contract::backward_differentiates_its_forward(name, build);
        }
    }

    #[test]
    fn a_new_bank_starts_from_the_environment_policy() {
        for (name, build) in banks() {
            contract::starts_from_the_environment_policy(name, build);
        }
    }

    #[test]
    fn rejects_bad_widths() {
        for (name, build) in banks() {
            contract::rejects_wrong_widths(name, build);
        }
    }

    #[test]
    fn threaded_patch_bank_matches_sequential_bitwise() {
        for (name, build) in banks() {
            contract::threaded_passes_match_sequential(name, build);
        }
    }

    #[test]
    fn kept_bank_backward_equals_the_re_executing_oracle_bitwise() {
        for (name, build) in banks() {
            contract::kept_backward_matches_the_oracle(name, build);
        }
    }

    #[test]
    fn bank_backward_differentiates_the_forward_that_ran_once() {
        for (name, build) in banks() {
            contract::backward_differentiates_its_forward(name, build);
        }
    }

    #[test]
    fn latent_dims_match_paper() {
        assert_eq!(patched_latent_dim(1024, 2), 18);
        assert_eq!(patched_latent_dim(1024, 4), 32);
        assert_eq!(patched_latent_dim(1024, 8), 56);
        assert_eq!(patched_latent_dim(1024, 16), 96);
        // Baseline (no patching, p=1): 10 = log2(1024).
        assert_eq!(patched_latent_dim(1024, 1), 10);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn latent_dim_rejects_non_powers() {
        patched_latent_dim(1000, 2);
    }

    #[test]
    fn encoder_shapes() {
        let mut enc = QuantumLayer::amplitude_encoder(64, 4, 2, &mut StdRng::seed_from_u64(1));
        assert_eq!(enc.parameters().len(), 4); // one angle vector per patch
        assert_eq!(enc.in_features(), 64);
        assert_eq!(enc.out_features(), 16); // 4 patches × log2(16)=4 qubits
        let y = enc.forward(&Matrix::filled(2, 64, 0.3)).unwrap();
        assert_eq!(y.shape(), (2, 16));
    }

    #[test]
    fn decoder_shapes() {
        let mut dec = QuantumLayer::angle_decoder(16, 4, 2, &mut StdRng::seed_from_u64(2));
        assert_eq!(dec.in_features(), 16);
        assert_eq!(dec.out_features(), 16);
        let y = dec.forward(&Matrix::filled(3, 16, 0.1)).unwrap();
        assert_eq!(y.shape(), (3, 16));
    }

    #[test]
    fn patches_are_independent() {
        // Changing features of patch 1 must not affect patch 0's outputs.
        let mut enc = QuantumLayer::amplitude_encoder(16, 2, 1, &mut StdRng::seed_from_u64(3));
        let mut a = Matrix::filled(1, 16, 0.5);
        let y1 = enc.forward(&a).unwrap();
        // Perturb patch 1 non-uniformly (amplitude embedding normalizes, so
        // a uniform rescale would be invisible).
        for c in 8..12 {
            a.set(0, c, 0.9);
        }
        let y2 = enc.forward(&a).unwrap();
        // Each patch embeds 8 features into 3 qubits → outputs are 3 wide.
        for c in 0..3 {
            assert!((y1.get(0, c) - y2.get(0, c)).abs() < 1e-12);
        }
        assert!((3..6).any(|c| (y1.get(0, c) - y2.get(0, c)).abs() > 1e-9));
    }

    #[test]
    fn parameter_count_scales_with_patches() {
        let mut enc = QuantumLayer::amplitude_encoder(64, 4, 3, &mut StdRng::seed_from_u64(4));
        // 4 patches × (3 layers × 4 qubits × 3) = 144.
        assert_eq!(enc.parameter_count(), 144);
    }

    #[test]
    fn backward_routes_gradients_to_the_right_patch() {
        let mut dec = QuantumLayer::angle_decoder(4, 2, 1, &mut StdRng::seed_from_u64(5));
        let x = Matrix::from_rows(&[&[0.2, 0.4, 0.6, 0.8]]).unwrap();
        dec.forward(&x).unwrap();
        // Upstream gradient only on patch 0's outputs.
        let mut g = Matrix::zeros(1, 4);
        g.set(0, 0, 1.0);
        g.set(0, 1, 1.0);
        let gin = dec.backward(&g).unwrap();
        // Patch 1's inputs get zero gradient.
        assert_eq!(gin.get(0, 2), 0.0);
        assert_eq!(gin.get(0, 3), 0.0);
        assert!(gin.get(0, 0).abs() + gin.get(0, 1).abs() > 1e-9);
    }
}
