//! Batch-compiled op tapes: lower a [`Circuit`] + parameter vector once,
//! execute many times.
//!
//! Within a mini-batch every row shares one trainable-parameter vector — only
//! the embedded inputs differ — yet gate-by-gate execution re-walks the op
//! list and re-derives the same rotation matrices for every row. Compiling
//! the circuit once per batch into a [`CompiledTape`] hoists all of that
//! parameter-dependent work out of the per-row loop:
//!
//! * runs of single-qubit gates **pre-fuse** into one 2×2 matrix per wire
//!   (fusing across gates on *other* wires too, since disjoint single-qubit
//!   unitaries commute);
//! * consecutive CNOTs collapse into one [`TapeOp::CnotRun`] permutation;
//! * input-dependent embedding gates stay behind as **late-bound**
//!   [`TapeOp::Late`] slots, resolved per row at execution time.
//!
//! A tape from [`Circuit::compile`] also carries a pre-lowered **adjoint
//! program** ([`CompiledTape::adjoint_steps`]): the backward sweep of
//! adjoint differentiation visits the same gates in reverse, every
//! fixed-gate segment between two parametrized stops is pre-inverted and
//! pre-fused the same way, and every maximal run of trainable single-qubit
//! rotations on one wire (the template's `Rot(φ, θ, ω)`) becomes one
//! [`RotationBlock`], differentiated in a single traversal of both
//! registers. Every parametrized gate is a single-qubit rotation, so every
//! stop of the sweep — a block, or an input rotation — runs the one block
//! kernel, [`Backend::adjoint_block_stop`]. `crate::grad::adjoint`
//! consumes the program for the batched backward pass. Callers that only
//! run forward compile with [`Circuit::compile_forward`] and skip the
//! adjoint lowering; the adjoint entry points reject such a tape with
//! [`QuantumError::ForwardOnlyTape`].
//!
//! This is the compile-once/execute-many split of PennyLane-style adjoint
//! pipelines (Jones & Gacon) and Qulacs-style batched statevector execution.
//!
//! # Examples
//!
//! ```
//! use sqvae_quantum::{Circuit, DenseBackend, Param};
//!
//! let mut c = Circuit::new(2)?;
//! c.ry(0, Param::Input(0))?; // late-bound embedding slot
//! c.rot(1, Param::Train(0), Param::Train(1), Param::Train(2))?; // pre-fused
//! c.cnot(0, 1)?;
//!
//! let tape = c.compile(&[0.1, 0.2, 0.3])?; // once per batch
//! for x in [0.5, 1.5] {
//!     let state: DenseBackend = tape.execute_on(&[x], None)?; // per row
//!     assert_eq!(state.dim(), 4);
//! }
//! # Ok::<(), sqvae_quantum::QuantumError>(())
//! ```

use crate::backend::{matmul2, start_state, Backend};
use crate::circuit::Circuit;
use crate::complex::C64;
use crate::error::{QuantumError, Result};
use crate::gate::{Gate, Param};

/// A pre-resolved operation on a compiled tape.
///
/// Everything that depends only on the circuit structure and the batch's
/// trainable parameters is resolved at compile time; only [`TapeOp::Late`]
/// still consults the per-row input vector.
#[derive(Debug, Clone, PartialEq)]
pub enum TapeOp {
    /// A pre-fused single-qubit unitary (row-major 2×2) on one wire.
    OneQ {
        /// Target wire.
        wire: usize,
        /// The fused 2×2 matrix.
        m: [[C64; 2]; 2],
    },
    /// A run of consecutive CNOTs (the template's ring entangler), applied
    /// as one basis-state permutation by backends that support it.
    CnotRun(Vec<(usize, usize)>),
    /// A late-bound slot: a gate whose angle comes from the per-row input
    /// vector ([`Param::Input`]), resolved at execution time.
    Late {
        /// The deferred gate.
        gate: Gate,
        /// Index into the input-feature vector.
        index: usize,
    },
}

/// One instruction of a tape's pre-lowered backward (adjoint) sweep, stored
/// in reverse circuit order.
#[derive(Debug, Clone, PartialEq)]
pub enum AdjointStep {
    /// A pre-inverted, pre-fused segment of non-differentiated gates,
    /// un-applied from both the ket and the bra in one go.
    Unapply(Vec<TapeOp>),
    /// A parametrized gate the sweep differentiates at.
    Stop(AdjointStop),
}

/// A parametrized stop of the backward sweep: where the adjoint engine reads
/// gradients off the ket and bra before un-applying the stop's gates from
/// both.
#[derive(Debug, Clone, PartialEq)]
pub enum AdjointStop {
    /// A run of trainable single-qubit rotations on one wire.
    Block(RotationBlock),
    /// A rotation bound to a per-row input feature. Its inverse is resolved
    /// at execution time, and it runs through the block kernel as a
    /// one-gate block.
    Input {
        /// The original gate (source of the generator).
        gate: Gate,
        /// Index into the input-feature vector.
        index: usize,
    },
}

/// A maximal run of consecutive trainable single-qubit rotations on one
/// wire, lowered so the backward sweep differentiates every angle of the
/// run in one traversal of the ket and bra.
///
/// Number the run's rotations `1…k` in sweep (reverse circuit) order, with
/// inverses `inv_j` and Pauli generators `G_j`, and let `A_1 = I`,
/// `A_{j+1} = inv_j·A_j`. Rotation `j` is differentiated against the
/// registers after the sweep has un-applied `A_j`, so its gradient
/// `Im⟨bra|A_jᴴ·G_j·A_j|ket⟩` is taken in the block's exit frame with the
/// conjugated generator `H_j = A_jᴴ·G_j·A_j`. All of them contract with
/// one 2×2 cross matrix of the two registers
/// ([`Backend::adjoint_block_stop`]), which then un-applies the fused
/// inverse `A_{k+1}` in the same pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RotationBlock {
    /// The wire every rotation of the run acts on.
    pub wire: usize,
    /// The run's fused inverse `A_{k+1} = inv_k ⋯ inv_1`.
    pub inv: [[C64; 2]; 2],
    /// One entry per rotation, in sweep order: its trainable-parameter
    /// index and its generator `H_j` in the block's exit frame.
    pub angles: Vec<(usize, [[C64; 2]; 2])>,
}

impl RotationBlock {
    /// An empty block on `wire` (`A_1 = I`).
    fn new(wire: usize) -> Self {
        RotationBlock {
            wire,
            inv: [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]],
            angles: Vec::new(),
        }
    }

    /// Appends the next rotation in sweep order: records `H = Aᴴ·G·A` for
    /// the current frame `A`, then advances the frame to `inv·A`.
    fn push(&mut self, index: usize, generator: &[[C64; 2]; 2], inv: &[[C64; 2]; 2]) {
        let a = &self.inv;
        let a_h = [
            [a[0][0].conj(), a[1][0].conj()],
            [a[0][1].conj(), a[1][1].conj()],
        ];
        self.angles
            .push((index, matmul2(&a_h, &matmul2(generator, a))));
        self.inv = matmul2(inv, a);
    }
}

/// A circuit lowered against one trainable-parameter vector: the product of
/// [`Circuit::compile`] (or [`Circuit::compile_forward`]), reusable across
/// every row of a batch.
///
/// Holds a flat forward program ([`CompiledTape::forward_ops`]) and, unless
/// compiled forward-only, the matching pre-lowered backward sweep
/// ([`CompiledTape::adjoint_steps`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTape {
    n_qubits: usize,
    n_params: usize,
    n_inputs: usize,
    forward: Vec<TapeOp>,
    /// `None` for a forward-only tape.
    adjoint: Option<Vec<AdjointStep>>,
}

impl CompiledTape {
    /// Number of wires.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of trainable parameters the source circuit references (already
    /// resolved into the tape).
    #[inline]
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Number of input features the tape's late-bound slots reference.
    #[inline]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// The flat forward program.
    #[inline]
    pub fn forward_ops(&self) -> &[TapeOp] {
        &self.forward
    }

    /// The pre-lowered backward sweep, in reverse circuit order (empty for a
    /// forward-only tape).
    #[inline]
    pub fn adjoint_steps(&self) -> &[AdjointStep] {
        self.adjoint.as_deref().unwrap_or(&[])
    }

    /// The adjoint program, or [`QuantumError::ForwardOnlyTape`] for a
    /// forward-only tape.
    pub(crate) fn adjoint_program(&self) -> Result<&[AdjointStep]> {
        self.adjoint.as_deref().ok_or(QuantumError::ForwardOnlyTape)
    }

    /// Executes the tape for one row and returns the final register.
    ///
    /// `inputs` resolves the late-bound embedding slots; `initial` lets the
    /// caller start from an embedded state (`None` = `|0…0⟩`).
    ///
    /// # Errors
    ///
    /// Returns an input-count error if `inputs` is shorter than the tape
    /// references, or a typed dimension mismatch if `initial` has a
    /// different width.
    pub fn execute_on<B: Backend>(&self, inputs: &[f64], initial: Option<&B>) -> Result<B> {
        let mut state = start_state(self.n_qubits, initial)?;
        state.execute_tape(self, inputs)?;
        Ok(state)
    }

    /// Executes the tape then measures `⟨Z⟩` on every wire.
    ///
    /// # Errors
    ///
    /// See [`CompiledTape::execute_on`].
    pub fn expectations_z_on<B: Backend>(
        &self,
        inputs: &[f64],
        initial: Option<&B>,
    ) -> Result<Vec<f64>> {
        let state = self.execute_on(inputs, initial)?;
        (0..self.n_qubits).map(|w| state.expectation_z(w)).collect()
    }

    /// Executes the tape then returns all basis-state probabilities.
    ///
    /// # Errors
    ///
    /// See [`CompiledTape::execute_on`].
    pub fn probabilities_on<B: Backend>(
        &self,
        inputs: &[f64],
        initial: Option<&B>,
    ) -> Result<Vec<f64>> {
        Ok(self.execute_on(inputs, initial)?.probabilities())
    }

    /// Executes the tape then writes all basis-state probabilities into
    /// `out` (cleared first, capacity reused) — the allocation-free readout
    /// used by batched per-row paths.
    ///
    /// # Errors
    ///
    /// See [`CompiledTape::execute_on`].
    pub fn probabilities_into_on<B: Backend>(
        &self,
        inputs: &[f64],
        initial: Option<&B>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.execute_on(inputs, initial)?.probabilities_into(out);
        Ok(())
    }
}

/// Incrementally lowers resolved gates into a fused op list.
#[derive(Default)]
struct Lowerer {
    ops: Vec<TapeOp>,
}

impl Lowerer {
    /// Pushes a single-qubit matrix, fusing into the most recent op on the
    /// same wire. Trailing `OneQ` ops on *other* wires are scanned past —
    /// disjoint single-qubit unitaries commute — so interleaved per-wire
    /// rotation columns still fuse to one matrix per wire.
    fn push_single(&mut self, wire: usize, m: [[C64; 2]; 2]) {
        for op in self.ops.iter_mut().rev() {
            match op {
                TapeOp::OneQ { wire: w, m: acc } if *w == wire => {
                    *acc = matmul2(&m, acc);
                    return;
                }
                TapeOp::OneQ { .. } => {}
                _ => break,
            }
        }
        self.ops.push(TapeOp::OneQ { wire, m });
    }

    /// Pushes a CNOT, extending the current permutation run if one is open.
    fn push_cnot(&mut self, control: usize, target: usize) {
        if let Some(TapeOp::CnotRun(pairs)) = self.ops.last_mut() {
            pairs.push((control, target));
        } else {
            self.ops.push(TapeOp::CnotRun(vec![(control, target)]));
        }
    }

    /// Lowers one gate with its resolved angle.
    fn lower(&mut self, gate: &Gate, theta: f64) {
        match gate.single_qubit_matrix(theta) {
            Some((w, m)) => self.push_single(w, m),
            None => {
                let Gate::CNOT(c, t) = *gate else {
                    unreachable!("every gate but the CNOT has a 2x2 matrix")
                };
                self.push_cnot(c, t);
            }
        }
    }
}

/// Lowers the backward sweep of `circuit` against `params`: walks the gates
/// in reverse, extends the open [`RotationBlock`] while trainable
/// single-qubit rotations stay on its wire, and pre-inverts and pre-fuses
/// the fixed gates between two stops into one segment.
fn lower_adjoint(circuit: &Circuit, params: &[f64]) -> Vec<AdjointStep> {
    let mut steps = Vec::new();
    let mut seg = Lowerer::default();
    let mut block: Option<RotationBlock> = None;
    // A block only opens after the pending segment was flushed, so at most
    // one of the two is non-empty at any time.
    let close =
        |block: &mut Option<RotationBlock>, seg: &mut Lowerer, steps: &mut Vec<AdjointStep>| {
            if let Some(b) = block.take() {
                steps.push(AdjointStep::Stop(AdjointStop::Block(b)));
            }
            if !seg.ops.is_empty() {
                steps.push(AdjointStep::Unapply(std::mem::take(&mut seg.ops)));
            }
        };
    for gate in circuit.ops().iter().rev() {
        match gate.param() {
            Some(Param::Train(index)) => {
                let (wire, generator) = gate
                    .single_qubit_generator()
                    .expect("parametrized gates are single-qubit rotations");
                if !matches!(&block, Some(b) if b.wire == wire) {
                    close(&mut block, &mut seg, &mut steps);
                }
                let (_, inv) = gate
                    .single_qubit_matrix(-params[index])
                    .expect("single-qubit rotations have a 2x2 matrix");
                block
                    .get_or_insert_with(|| RotationBlock::new(wire))
                    .push(index, &generator, &inv);
            }
            Some(Param::Input(index)) => {
                close(&mut block, &mut seg, &mut steps);
                steps.push(AdjointStep::Stop(AdjointStop::Input { gate: *gate, index }));
            }
            fixed => {
                if let Some(b) = block.take() {
                    steps.push(AdjointStep::Stop(AdjointStop::Block(b)));
                }
                // Fixed rotations invert by negating the angle; every other
                // fixed gate is self-inverse.
                let theta = match fixed {
                    Some(Param::Fixed(v)) => -v,
                    _ => 0.0,
                };
                seg.lower(gate, theta);
            }
        }
    }
    close(&mut block, &mut seg, &mut steps);
    steps
}

/// Lowers `circuit` against `params` into a [`CompiledTape`] (the body of
/// [`Circuit::compile`], and of [`Circuit::compile_forward`] when
/// `with_adjoint` is false).
pub(crate) fn compile(
    circuit: &Circuit,
    params: &[f64],
    with_adjoint: bool,
) -> Result<CompiledTape> {
    if params.len() < circuit.n_params() {
        return Err(QuantumError::ParamCountMismatch {
            expected: circuit.n_params(),
            actual: params.len(),
        });
    }

    // Forward program: resolve every non-input angle, fuse as we go. Gates
    // bound to input features stay late-bound and break fusion runs.
    let mut fwd = Lowerer::default();
    for gate in circuit.ops() {
        match gate.param() {
            Some(Param::Input(index)) => fwd.ops.push(TapeOp::Late { gate: *gate, index }),
            Some(Param::Train(i)) => fwd.lower(gate, params[i]),
            Some(Param::Fixed(v)) => fwd.lower(gate, v),
            None => fwd.lower(gate, 0.0),
        }
    }

    Ok(CompiledTape {
        n_qubits: circuit.n_qubits(),
        n_params: circuit.n_params(),
        n_inputs: circuit.n_inputs(),
        forward: fwd.ops,
        adjoint: with_adjoint.then(|| lower_adjoint(circuit, params)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseBackend;
    use crate::embed::{angle_embedding_gates, RotationAxis};
    use crate::gate::ry_matrix;
    use crate::templates::{strongly_entangling_layers, EntangleRange};
    use crate::StateVector;

    fn paper_circuit(n: usize, layers: usize) -> Circuit {
        let mut c = Circuit::new(n).unwrap();
        c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
            .unwrap();
        c.extend(strongly_entangling_layers(n, layers, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        c
    }

    #[test]
    fn template_compiles_to_one_matrix_per_wire_per_layer() {
        // Per layer: RZ·RY·RZ per wire fuse to one OneQ each, the CNOT ring
        // to one CnotRun; the embedding stays as n late-bound slots.
        let n = 4;
        let layers = 3;
        let c = paper_circuit(n, layers);
        let tape = c.compile(&vec![0.1; c.n_params()]).unwrap();
        let mut late = 0;
        let mut oneq = 0;
        let mut runs = 0;
        for op in tape.forward_ops() {
            match op {
                TapeOp::Late { .. } => late += 1,
                TapeOp::OneQ { .. } => oneq += 1,
                TapeOp::CnotRun(pairs) => {
                    assert_eq!(pairs.len(), n);
                    runs += 1;
                }
            }
        }
        assert_eq!(late, n);
        assert_eq!(oneq, n * layers);
        assert_eq!(runs, layers);
    }

    #[test]
    fn fusion_reaches_across_commuting_wires() {
        // H(0), H(1), H(0): the two wire-0 gates fuse through the commuting
        // wire-1 gate, leaving H·H = I on wire 0 and H on wire 1.
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap();
        c.h(1).unwrap();
        c.h(0).unwrap();
        let tape = c.compile(&[]).unwrap();
        assert_eq!(tape.forward_ops().len(), 2);
        let state: DenseBackend = tape.execute_on(&[], None).unwrap();
        let mut reference = StateVector::zero_state(2).unwrap();
        reference.apply_ops(c.ops(), &[], &[]).unwrap();
        for (a, b) in state.amplitudes().iter().zip(reference.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-15), "{a} vs {b}");
        }
    }

    #[test]
    fn execute_rejects_short_inputs_and_bad_initial() {
        let c = paper_circuit(3, 1);
        let tape = c.compile(&vec![0.0; c.n_params()]).unwrap();
        assert!(matches!(
            tape.execute_on::<DenseBackend>(&[0.0], None),
            Err(QuantumError::InputCountMismatch { .. })
        ));
        let wide = StateVector::zero_state(4).unwrap();
        assert!(matches!(
            tape.execute_on(&[0.0; 3], Some(&wide)),
            Err(QuantumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn compile_rejects_short_params() {
        let c = paper_circuit(2, 1);
        assert!(matches!(
            c.compile(&[0.0]),
            Err(QuantumError::ParamCountMismatch { .. })
        ));
    }

    #[test]
    fn paper_template_lowers_to_one_block_per_wire_per_layer() {
        // Sweep order per layer: the inverted CNOT ring, then wires n-1…0,
        // each Rot(φ, θ, ω) as one 3-angle block (angles in reverse: ω, θ,
        // φ); after the last layer, one input stop per embedded wire.
        let (n, layers) = (4, 2);
        let c = paper_circuit(n, layers);
        let tape = c.compile(&vec![0.2; c.n_params()]).unwrap();
        let mut steps = tape.adjoint_steps().iter();
        for layer in (0..layers).rev() {
            match steps.next() {
                Some(AdjointStep::Unapply(ops)) => {
                    assert!(matches!(ops.as_slice(), [TapeOp::CnotRun(p)] if p.len() == n));
                }
                other => panic!("layer {layer}: expected the CNOT ring, got {other:?}"),
            }
            for wire in (0..n).rev() {
                let first = 3 * (layer * n + wire);
                match steps.next() {
                    Some(AdjointStep::Stop(AdjointStop::Block(b))) => {
                        assert_eq!(b.wire, wire);
                        let indices: Vec<usize> = b.angles.iter().map(|&(i, _)| i).collect();
                        assert_eq!(indices, [first + 2, first + 1, first]);
                    }
                    other => panic!("layer {layer} wire {wire}: expected a block, got {other:?}"),
                }
            }
        }
        for wire in (0..n).rev() {
            match steps.next() {
                Some(AdjointStep::Stop(AdjointStop::Input { gate, index })) => {
                    assert_eq!(*index, wire);
                    assert_eq!(*gate, Gate::RY(wire, Param::Input(wire)));
                }
                other => panic!("wire {wire}: expected an input stop, got {other:?}"),
            }
        }
        assert!(steps.next().is_none());
    }

    #[test]
    fn block_frames_follow_the_sweep() {
        // RZ(a)·RY(b) on one wire, applied RY first: the sweep meets RZ
        // first (H = Z, frame I), then RY in the frame A = RZ(-a), and the
        // block un-applies RY(-b)·RZ(-a).
        let (a, b) = (0.7, -1.3);
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(1)).unwrap();
        c.rz(0, Param::Train(0)).unwrap();
        let tape = c.compile(&[a, b]).unwrap();
        let [AdjointStep::Stop(AdjointStop::Block(block))] = tape.adjoint_steps() else {
            panic!("expected one block, got {:?}", tape.adjoint_steps());
        };
        let frame = crate::gate::rz_matrix(-a);
        let frame_h = crate::gate::rz_matrix(a);
        let expected_h = matmul2(&frame_h, &matmul2(&crate::gate::pauli_y(), &frame));
        let expected_inv = matmul2(&ry_matrix(-b), &frame);
        assert_eq!(block.angles[0], (0, crate::gate::pauli_z()));
        assert_eq!(block.angles[1].0, 1);
        for r in 0..2 {
            for col in 0..2 {
                assert!(block.angles[1].1[r][col].approx_eq(expected_h[r][col], 1e-15));
                assert!(block.inv[r][col].approx_eq(expected_inv[r][col], 1e-15));
            }
        }
    }

    #[test]
    fn forward_only_tapes_skip_the_adjoint_program() {
        let c = paper_circuit(3, 2);
        let params = vec![0.4; c.n_params()];
        let full = c.compile(&params).unwrap();
        let fwd = c.compile_forward(&params).unwrap();
        assert!(full.adjoint.is_some());
        assert_eq!(fwd.adjoint, None);
        assert!(fwd.adjoint_steps().is_empty());
        assert_eq!(fwd.forward_ops(), full.forward_ops());
        assert_eq!(fwd.adjoint_program(), Err(QuantumError::ForwardOnlyTape));
    }
}
