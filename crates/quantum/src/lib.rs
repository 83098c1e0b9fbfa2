//! # sqvae-quantum
//!
//! A self-contained statevector quantum-circuit simulator with analytic
//! gradients, built as the quantum substrate for the DATE 2022 paper
//! *Scalable Variational Quantum Circuits for Autoencoder-based Drug
//! Discovery* (Li & Ghosh). It plays the role PennyLane's simulator plays in
//! the paper's experiments.
//!
//! ## What it provides
//!
//! * [`StateVector`] — the per-row simulator: a dense `2^n`-amplitude
//!   register with single-qubit, CNOT, and diagonal kernels,
//!   `⟨Z⟩`/probability measurements, and the gate, tape and adjoint-stop
//!   executors every circuit run and gradient engine goes through. It is
//!   the reference semantics the register bank is tested against.
//! * [`bank`] — [`RegisterBank`], many rows of one circuit as the lanes of
//!   one batch-major register: it runs a [`CompiledTape`]'s forward and
//!   adjoint programs over every lane with unit-stride kernels, each lane
//!   bit-identical to a [`StateVector`] run of its row. The quantum layers
//!   run their rows on it.
//! * [`Circuit`] — a gate list with deferred [`Param`] binding (trainable
//!   parameters vs. embedded input features) over the [`Gate`] set the
//!   paper's circuits use: `RX`/`RY`/`RZ` rotations, the CNOT, and the
//!   fixed Paulis and Hadamard.
//! * [`tape`] — the batch-compiled execution pipeline: [`Circuit::compile`]
//!   lowers the gate list against one parameter vector into a
//!   [`CompiledTape`] (pre-fused matrices, CNOT-run permutations, late-bound
//!   embedding slots) that every row of a mini-batch reuses; every `run_*`
//!   convenience wraps it.
//! * [`embed`] — amplitude and angle embeddings (§II-C of the paper).
//! * [`templates`] — the paper's repeatable hidden layer
//!   (strongly-entangling `Rot` + CNOT-ring layers).
//! * [`grad`] — adjoint reverse-mode differentiation (production path,
//!   per row or over a register bank), the parameter-shift rule
//!   (hardware-compatible path), and a finite-difference oracle, all
//!   cross-validated.
//!
//! ## Example: a trainable circuit and its gradient
//!
//! ```
//! use sqvae_quantum::{Circuit, Param};
//! use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
//! use sqvae_quantum::grad::adjoint;
//!
//! # fn main() -> Result<(), sqvae_quantum::QuantumError> {
//! let mut circuit = Circuit::new(4)?;
//! circuit.extend(strongly_entangling_layers(4, 3, 0, EntangleRange::Ring)?)?;
//! let params = vec![0.1; circuit.n_params()];
//!
//! // Forward: per-wire ⟨Z⟩ — the paper's encoder readout.
//! let z = circuit.run_expectations_z(&params, &[], None)?;
//! assert_eq!(z.len(), 4);
//!
//! // Backward: one adjoint pass gives dL/dθ for an upstream gradient.
//! let upstream = vec![1.0; 4];
//! let grads = adjoint::backward_expectations_z(&circuit, &params, &[], None, &upstream)?;
//! assert_eq!(grads.params.len(), params.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod circuit;
mod complex;
mod error;
mod gate;
mod state;

pub mod bank;
pub mod embed;
pub mod grad;
pub mod noise;
pub mod observable;
pub mod tape;
pub mod templates;

pub use bank::{BankScratch, RegisterBank};
pub use circuit::Circuit;
pub use complex::C64;
pub use error::{QuantumError, Result};
pub use gate::{hadamard, pauli_x, pauli_y, pauli_z, rx_matrix, ry_matrix, rz_matrix};
pub use gate::{Gate, Param};
pub use state::{StateVector, MAX_QUBITS};
pub use tape::CompiledTape;
