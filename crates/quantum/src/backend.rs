//! Pluggable simulator backends.
//!
//! Every consumer of the simulator — [`crate::Circuit::run_on`], the whole
//! [`crate::grad`] module, and the quantum layers built on top — is generic
//! over a [`Backend`]: the set of primitive register operations a simulation
//! strategy must provide. Two implementations ship:
//!
//! * [`DenseBackend`] (an alias for [`StateVector`]) — the reference
//!   semantics: every gate is one pass over the `2^n` interleaved
//!   amplitudes. It is the default, and the oracle the equivalence suites
//!   compare everything else against.
//! * [`SoaDenseBackend`] — amplitudes split into separate re/im `f64`
//!   planes (structure-of-arrays) so every kernel is a branch-free
//!   unit-stride loop the autovectorizer packs into FMA, with cache-blocked
//!   tape execution for large registers (see [`soa`]).
//!
//! The trait is the per-row seam: the eager and tape executors, the
//! gradient oracles and the `soa` policy of the quantum layers are generic
//! over it. On the dense policy the layers run many rows at once on a
//! [`crate::RegisterBank`] instead, whose lanes do exactly the
//! [`StateVector`] arithmetic, so `StateVector` stays the reference the
//! bank is tested against bit for bit. Backend *selection* lives in
//! `sqvae_nn::BackendKind`, next to the analogous `Threads` policy: the
//! `SQVAE_BACKEND` environment variable sets every model's starting
//! backend, and a model's execution policy changes its own.

pub mod soa;

pub use soa::SoaDenseBackend;

use crate::complex::C64;
use crate::error::{QuantumError, Result};
use crate::gate::Gate;
use crate::state::StateVector;
use crate::tape::{CompiledTape, TapeOp};

/// The dense reference backend: exactly today's [`StateVector`] kernels.
pub type DenseBackend = StateVector;

/// Primitive register operations a simulation strategy must provide.
///
/// Semantics are fixed by [`StateVector`] (the reference implementation);
/// alternative backends may reorder floating-point work, so results are
/// required to match the dense backend only to high precision (the
/// equivalence property tests pin ≤ 1e-12), not bit-for-bit.
pub trait Backend: Clone + std::fmt::Debug {
    /// Short human-readable backend name (for logs and benches).
    const NAME: &'static str;

    /// Creates the all-zeros basis state `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::UnsupportedRegisterSize`] for 0 or more than
    /// [`crate::MAX_QUBITS`] qubits.
    fn zero_state(n_qubits: usize) -> Result<Self>
    where
        Self: Sized;

    /// Wraps an embedded dense state (amplitude embeddings produce a
    /// [`StateVector`]; backends adopt its amplitudes).
    fn from_statevector(state: StateVector) -> Self
    where
        Self: Sized;

    /// Materializes the register as a plain dense state (backends whose
    /// storage is not interleaved `C64`s — e.g. [`SoaDenseBackend`] — build
    /// one here; dense-storage backends clone).
    fn to_statevector(&self) -> StateVector;

    /// Converts back into a plain dense register.
    fn into_statevector(self) -> StateVector;

    /// Resets the register to `|0…0⟩` in place.
    fn reset(&mut self);

    /// Frees any working storage the register holds beside its amplitudes,
    /// for a register kept alive between passes (the quantum layers keep
    /// every row's final register from forward to backward). The state is
    /// unchanged. The default holds none; [`SoaDenseBackend`] drops its
    /// CNOT-gather planes.
    fn release_scratch(&mut self) {}

    /// Number of qubits in the register.
    fn n_qubits(&self) -> usize;

    /// Hilbert-space dimension `2^n`.
    #[inline]
    fn dim(&self) -> usize {
        1usize << self.n_qubits()
    }

    /// Bit position (from the least significant end) of `wire`.
    #[inline]
    fn bit_of_wire(&self, wire: usize) -> usize {
        self.n_qubits() - 1 - wire
    }

    /// Checks that `wire` addresses this register.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    fn check_wire(&self, wire: usize) -> Result<()> {
        if wire >= self.n_qubits() {
            Err(QuantumError::WireOutOfRange {
                wire,
                n_qubits: self.n_qubits(),
            })
        } else {
            Ok(())
        }
    }

    /// Applies an arbitrary single-qubit unitary `m` (row-major 2×2) to
    /// `wire`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    fn apply_single_qubit(&mut self, wire: usize, m: &[[C64; 2]; 2]) -> Result<()>;

    /// Applies a CNOT with the given control and target wires.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid wires or `control == target`.
    fn apply_cnot(&mut self, control: usize, target: usize) -> Result<()>;

    /// Multiplies each amplitude by the diagonal entries `d` (the adjoint
    /// engine's observable application).
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.dim()`.
    fn apply_diagonal_real(&mut self, d: &[f64]);

    /// Expectation value `⟨ψ|Z_wire|ψ⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    fn expectation_z(&self, wire: usize) -> Result<f64>;

    /// Expectation of an arbitrary real diagonal observable.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.dim()`.
    fn expectation_diagonal(&self, d: &[f64]) -> f64;

    /// Probabilities of all `2^n` basis states.
    fn probabilities(&self) -> Vec<f64>;

    /// Writes the probabilities of all `2^n` basis states into `out`
    /// (cleared first, capacity reused) — the allocation-free counterpart of
    /// [`Backend::probabilities`] for batched readout paths that call it
    /// once per row.
    ///
    /// The default falls back to [`Backend::probabilities`]; backends
    /// override it to fill the reused buffer directly.
    fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.probabilities());
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    fn inner(&self, other: &Self) -> C64;

    /// Executes a gate sequence with resolved parameter/input bindings, one
    /// gate at a time — the eager path the gradient oracles and the tape
    /// equivalence suites check [`Backend::execute_tape`] against.
    ///
    /// # Errors
    ///
    /// Propagates wire-validation errors from the kernels.
    fn apply_ops(&mut self, ops: &[Gate], params: &[f64], inputs: &[f64]) -> Result<()>
    where
        Self: Sized,
    {
        for g in ops {
            let theta = g.param().map_or(0.0, |p| p.resolve(params, inputs));
            g.apply(self, theta)?;
        }
        Ok(())
    }

    /// Applies one pre-resolved op of a [`CompiledTape`]. `inputs` resolves
    /// late-bound embedding slots ([`TapeOp::Late`]); all other ops ignore
    /// it.
    ///
    /// The default maps each op onto the primitive kernels (a
    /// [`TapeOp::CnotRun`] becomes one CNOT per pair); backends override it
    /// to specialize whole ops, e.g. [`SoaDenseBackend`] applies a CNOT run
    /// as a single permutation pass while the register fits in L1.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors; returns an input-count error if a late
    /// slot's index exceeds `inputs`.
    fn apply_tape_op(&mut self, op: &TapeOp, inputs: &[f64]) -> Result<()>
    where
        Self: Sized,
    {
        match op {
            TapeOp::OneQ { wire, m } => self.apply_single_qubit(*wire, m),
            TapeOp::CnotRun(pairs) => {
                for &(c, t) in pairs {
                    self.apply_cnot(c, t)?;
                }
                Ok(())
            }
            TapeOp::Late { gate, index } => {
                let theta = *inputs.get(*index).ok_or(QuantumError::InputCountMismatch {
                    expected: *index + 1,
                    actual: inputs.len(),
                })?;
                gate.apply(self, theta)
            }
        }
    }

    /// Executes a [`CompiledTape`]'s forward program: the batched
    /// counterpart of [`Backend::apply_ops`], with all parameter-dependent
    /// resolution already hoisted out by [`crate::Circuit::compile`].
    ///
    /// # Errors
    ///
    /// Returns an input-count error if `inputs` is shorter than the tape's
    /// late-bound slots reference, and propagates kernel errors.
    fn execute_tape(&mut self, tape: &CompiledTape, inputs: &[f64]) -> Result<()>
    where
        Self: Sized,
    {
        if inputs.len() < tape.n_inputs() {
            return Err(QuantumError::InputCountMismatch {
                expected: tape.n_inputs(),
                actual: inputs.len(),
            });
        }
        for op in tape.forward_ops() {
            self.apply_tape_op(op, inputs)?;
        }
        Ok(())
    }

    /// One block stop of the adjoint backward sweep, in a single traversal
    /// of both registers (`self` is the ket): accumulates the 2×2 cross
    /// matrix `C[a][b] = Σ conj(bra[·, a])·ket[·, b]`, where `·` runs over
    /// every other wire and `a`, `b` are `wire`'s bit, and un-applies the
    /// block's fused inverse `inv` from both registers as each amplitude
    /// pair is read.
    ///
    /// The adjoint engine turns `C` into one gradient per rotation of the
    /// block, `Im Σ_ab H[a][b]·C[a][b]`, with `H` the rotation's generator
    /// in the block's exit frame ([`crate::tape::RotationBlock`]).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    fn adjoint_block_stop(
        &mut self,
        bra: &mut Self,
        wire: usize,
        inv: &[[C64; 2]; 2],
    ) -> Result<[[C64; 2]; 2]>
    where
        Self: Sized;
}

/// The register an executor starts from: a clone of `initial`, checked
/// against an `n_qubits`-wide register, or `|0…0⟩`. Every executor (circuit
/// runs, tapes, parameter shifts, adjoint sweeps, noisy trajectories) starts
/// here, so an embedded state of the wrong width is the same typed error
/// everywhere.
///
/// # Errors
///
/// [`QuantumError::DimensionMismatch`] when `initial` has another width.
pub(crate) fn start_state<B: Backend>(n_qubits: usize, initial: Option<&B>) -> Result<B> {
    match initial {
        Some(s) if s.n_qubits() != n_qubits => Err(QuantumError::DimensionMismatch {
            expected: 1 << n_qubits,
            actual: s.dim(),
        }),
        Some(s) => Ok(s.clone()),
        // Circuits and tapes validate their width at construction, so this
        // cannot fail for them, but it stays a typed error, not a panic.
        None => B::zero_state(n_qubits),
    }
}

/// [`Backend::adjoint_block_stop`] over the dense backend's interleaved
/// `C64` amplitudes: walks the pairs `(i, i + stride)` of both registers
/// once, reading each pair into the cross matrix before overwriting it with
/// its un-applied value.
fn block_stop_interleaved(
    ket: &mut [C64],
    bra: &mut [C64],
    stride: usize,
    inv: &[[C64; 2]; 2],
) -> [[C64; 2]; 2] {
    debug_assert_eq!(ket.len(), bra.len(), "ket and bra widths differ");
    let m = *inv;
    let mut c = [[C64::ZERO; 2]; 2];
    for (kc, bc) in ket
        .chunks_exact_mut(stride << 1)
        .zip(bra.chunks_exact_mut(stride << 1))
    {
        let (k_lo, k_hi) = kc.split_at_mut(stride);
        let (b_lo, b_hi) = bc.split_at_mut(stride);
        for ((k0, k1), (b0, b1)) in k_lo
            .iter_mut()
            .zip(k_hi.iter_mut())
            .zip(b_lo.iter_mut().zip(b_hi.iter_mut()))
        {
            let (x0, x1) = (*k0, *k1);
            let (y0, y1) = (*b0, *b1);
            let (y0c, y1c) = (y0.conj(), y1.conj());
            c[0][0] += y0c * x0;
            c[0][1] += y0c * x1;
            c[1][0] += y1c * x0;
            c[1][1] += y1c * x1;
            *k0 = m[0][0] * x0 + m[0][1] * x1;
            *k1 = m[1][0] * x0 + m[1][1] * x1;
            *b0 = m[0][0] * y0 + m[0][1] * y1;
            *b1 = m[1][0] * y0 + m[1][1] * y1;
        }
    }
    c
}

impl Backend for StateVector {
    const NAME: &'static str = "dense";

    fn zero_state(n_qubits: usize) -> Result<Self> {
        StateVector::zero_state(n_qubits)
    }

    fn from_statevector(state: StateVector) -> Self {
        state
    }

    fn to_statevector(&self) -> StateVector {
        self.clone()
    }

    fn into_statevector(self) -> StateVector {
        self
    }

    fn reset(&mut self) {
        StateVector::reset(self);
    }

    fn n_qubits(&self) -> usize {
        StateVector::n_qubits(self)
    }

    fn apply_single_qubit(&mut self, wire: usize, m: &[[C64; 2]; 2]) -> Result<()> {
        StateVector::apply_single_qubit(self, wire, m)
    }

    fn apply_cnot(&mut self, control: usize, target: usize) -> Result<()> {
        StateVector::apply_cnot(self, control, target)
    }

    fn apply_diagonal_real(&mut self, d: &[f64]) {
        StateVector::apply_diagonal_real(self, d);
    }

    fn expectation_z(&self, wire: usize) -> Result<f64> {
        StateVector::expectation_z(self, wire)
    }

    fn expectation_diagonal(&self, d: &[f64]) -> f64 {
        StateVector::expectation_diagonal(self, d)
    }

    fn probabilities(&self) -> Vec<f64> {
        StateVector::probabilities(self)
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        StateVector::probabilities_into(self, out);
    }

    fn inner(&self, other: &Self) -> C64 {
        StateVector::inner(self, other)
    }

    fn adjoint_block_stop(
        &mut self,
        bra: &mut Self,
        wire: usize,
        inv: &[[C64; 2]; 2],
    ) -> Result<[[C64; 2]; 2]> {
        self.check_wire(wire)?;
        let stride = 1usize << Backend::bit_of_wire(self, wire);
        Ok(block_stop_interleaved(
            self.amps_mut(),
            bra.amps_mut(),
            stride,
            inv,
        ))
    }
}

/// Row-major product `a · b` of two 2×2 complex matrices (gate `b` applied
/// first, then `a`). Shared with the tape compiler's fusion pass.
pub(crate) fn matmul2(a: &[[C64; 2]; 2], b: &[[C64; 2]; 2]) -> [[C64; 2]; 2] {
    [
        [
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ],
        [
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{hadamard, pauli_x};

    fn assert_states_close(a: &StateVector, b: &StateVector, tol: f64) {
        assert_eq!(a.dim(), b.dim());
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, tol), "{x} != {y}");
        }
    }

    #[test]
    fn names_distinguish_backends() {
        assert_eq!(<DenseBackend as Backend>::NAME, "dense");
        assert_eq!(SoaDenseBackend::NAME, "soa");
    }

    #[test]
    fn single_qubit_fusion_composes_in_gate_order() {
        // X then H on wire 0 fused = H·X as a matrix.
        let fusedm = matmul2(&hadamard(), &pauli_x());
        let mut seq = StateVector::zero_state(1).unwrap();
        seq.apply_single_qubit(0, &pauli_x()).unwrap();
        seq.apply_single_qubit(0, &hadamard()).unwrap();
        let mut one = StateVector::zero_state(1).unwrap();
        one.apply_single_qubit(0, &fusedm).unwrap();
        assert_states_close(&seq, &one, 1e-15);
    }

    #[test]
    fn kernel_errors_surface_through_the_trait() {
        let mut d = DenseBackend::zero_state(2).unwrap();
        assert!(Backend::apply_cnot(&mut d, 0, 0).is_err());
        assert!(Backend::apply_cnot(&mut d, 0, 5).is_err());
        let bad_run = TapeOp::CnotRun(vec![(0, 1), (1, 1)]);
        assert!(d.apply_tape_op(&bad_run, &[]).is_err());
        let mut bra = d.clone();
        assert!(d.adjoint_block_stop(&mut bra, 2, &pauli_x()).is_err());
    }

    #[test]
    fn reset_and_round_trip() {
        let mut d = DenseBackend::zero_state(2).unwrap();
        Backend::apply_single_qubit(&mut d, 0, &pauli_x()).unwrap();
        assert!(d.to_statevector().probability(0b10) > 0.99);
        Backend::reset(&mut d);
        assert!((d.to_statevector().probability(0) - 1.0).abs() < 1e-15);
        let sv = d.clone().into_statevector();
        assert_eq!(sv, d.to_statevector());
    }
}
