//! Adjoint (reverse-mode) differentiation.
//!
//! For a circuit `|ψ⟩ = U_N … U_1 |φ₀⟩` and a real diagonal observable `D`,
//! the expectation `E = ⟨ψ|D|ψ⟩` has gradient
//!
//! ```text
//! dE/dθ_k = Im ⟨bra_k | G_k | ψ_k⟩,
//! ```
//!
//! where `ψ_k = U_k … U_1|φ₀⟩`, `bra_k = (U_{k+1} … U_N)† D |ψ⟩`, and `G_k`
//! is the generator of `U_k = exp(-iθ G_k / 2)`. Sweeping `k = N … 1` while
//! un-applying gates from both vectors computes every gradient in one pass
//! (Jones & Gacon, 2020).
//!
//! Because every measurement used by the paper's autoencoders (`⟨Z⟩` per
//! wire, basis-state probabilities) is diagonal, one adjoint pass against the
//! *upstream-weighted* diagonal yields `dL/dθ` and `dL/dx` directly — the
//! quantum layer's `backward()`.
//!
//! Two sweeps are provided per readout: the eager gate-by-gate functions
//! over a [`Circuit`] (the reference semantics), and the sweep that
//! replays a [`CompiledTape`]'s pre-lowered adjoint program — pre-inverted
//! fused fixed segments, and rotation blocks whose angles are all
//! differentiated in one traversal of the ket and bra. Every parametrized
//! gate is a single-qubit rotation, so every stop of the tape sweep,
//! trainable block or input rotation, runs one kernel:
//! [`StateVector::adjoint_block_stop`].
//!
//! The tape sweep has three entry points. The `*_from` functions start
//! from a caller-supplied final register. The `*_tape` functions execute
//! the tape first and then run the same sweep; they are the re-executing
//! oracle the layers are tested against. The `*_bank` functions sweep every
//! lane of a [`RegisterBank`] at once, each lane bit-identical to the
//! `*_from` sweep of its row: batched training compiles once per
//! mini-batch, keeps each chunk of rows as a bank from its forward pass,
//! and sweeps the bank.

use crate::bank::{check_lane_count, BankScratch, RegisterBank};
use crate::circuit::Circuit;
use crate::complex::C64;
use crate::error::{QuantumError, Result};
use crate::gate::Param;
use crate::grad::CircuitGradients;
use crate::observable::{probability_diagonal, weighted_z_sum_diagonal};
use crate::state::{start_state, StateVector};
use crate::tape::{AdjointStep, AdjointStop, CompiledTape};

/// Vector-Jacobian product of `E = ⟨ψ|diag|ψ⟩` with respect to trainable
/// parameters and embedded inputs.
///
/// `initial` is the embedded starting state (`None` = `|0…0⟩`). The returned
/// gradients accumulate over every gate sharing a parameter index.
///
/// This is the **eager, gate-by-gate** reference sweep. The production
/// training path compiles the circuit once per batch and sweeps each
/// chunk's kept register bank with [`backward_expectations_z_bank`] or
/// [`backward_probabilities_bank`] instead; the tape sweep is
/// property-tested against this one at ≤ 1e-12.
///
/// # Errors
///
/// Returns binding-count or dimension errors from circuit execution, and a
/// dimension error if `diag` does not match the register.
pub fn vjp_diagonal(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    diag: &[f64],
) -> Result<CircuitGradients> {
    circuit.check_bindings(params, inputs)?;
    let dim = 1usize << circuit.n_qubits();
    if diag.len() != dim {
        return Err(QuantumError::DimensionMismatch {
            expected: dim,
            actual: diag.len(),
        });
    }

    // Forward pass, deliberately eager ([`StateVector::apply_ops`], not the
    // compiled tape) so this function stays a tape-independent oracle.
    let mut ket = start_state(circuit.n_qubits(), initial)?;
    ket.apply_ops(circuit.ops(), params, inputs)?;
    let mut bra = ket.clone();
    bra.apply_diagonal_real(diag);

    let mut grads = CircuitGradients::zeros(circuit.n_params(), circuit.n_inputs());

    // Backward sweep.
    for gate in circuit.ops().iter().rev() {
        let binding = gate.param();
        let theta = binding.map_or(0.0, |p| p.resolve(params, inputs));
        match binding {
            Some(Param::Train(idx)) => {
                let mut d = ket.clone();
                gate.apply_generator(&mut d)?;
                grads.params[idx] += bra.inner(&d).im;
            }
            Some(Param::Input(idx)) => {
                let mut d = ket.clone();
                gate.apply_generator(&mut d)?;
                grads.inputs[idx] += bra.inner(&d).im;
            }
            _ => {}
        }
        gate.apply_inverse(&mut ket, theta)?;
        gate.apply_inverse(&mut bra, theta)?;
    }
    Ok(grads)
}

/// Backward pass for a per-wire `⟨Z⟩` readout: given the upstream gradient
/// `dL/d⟨Z_w⟩` for every wire `w`, returns `dL/dθ` and `dL/dx`.
///
/// # Errors
///
/// Returns a dimension error if `upstream.len() != n_qubits`, plus execution
/// errors.
pub fn backward_expectations_z(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    upstream: &[f64],
) -> Result<CircuitGradients> {
    let diag = z_diagonal(circuit.n_qubits(), upstream)?;
    vjp_diagonal(circuit, params, inputs, initial, &diag)
}

/// Backward pass for a basis-state probability readout: given the upstream
/// gradient `dL/dp_i` for every basis state `i`, returns `dL/dθ` and
/// `dL/dx`.
///
/// # Errors
///
/// Returns a dimension error if `upstream.len() != 2^n_qubits`, plus
/// execution errors.
pub fn backward_probabilities(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    upstream: &[f64],
) -> Result<CircuitGradients> {
    let diag = probability_diagonal(circuit.n_qubits(), upstream)?;
    vjp_diagonal(circuit, params, inputs, initial, &diag)
}

/// `Im Σ_ab H[a][b]·C[a][b]`: one rotation's gradient `Im⟨bra|H|ket⟩` from
/// the cross matrix `C` a block stop accumulated.
fn contract_im(h: &[[C64; 2]; 2], c: &[[C64; 2]; 2]) -> f64 {
    (h[0][0] * c[0][0] + h[0][1] * c[0][1] + h[1][0] * c[1][0] + h[1][1] * c[1][1]).im
}

/// [`vjp_diagonal`] against a pre-compiled tape: executes the tape for
/// the row, then runs [`vjp_diagonal_from`]'s sweep from the final
/// register.
///
/// Training does not call this: the quantum layers keep every chunk's
/// final register bank from their forward pass and sweep from it directly.
/// This re-executing form is the oracle those layers are tested against,
/// and what the benchmarks time as one row's full adjoint cost.
///
/// # Errors
///
/// Returns [`QuantumError::ForwardOnlyTape`] for a tape compiled without
/// its adjoint program, input-count or dimension errors from tape
/// execution, and a dimension error if `diag` does not match the register.
pub fn vjp_diagonal_tape(
    tape: &CompiledTape,
    inputs: &[f64],
    initial: Option<&StateVector>,
    diag: &[f64],
) -> Result<CircuitGradients> {
    let steps = checked_program(tape, diag)?;
    let ket = tape.execute_on(inputs, initial)?;
    sweep(tape, steps, inputs, ket, diag)
}

/// The adjoint sweep of a compiled tape, started from `ket`, the register
/// the tape's forward program produced for this row (with the same
/// `inputs`). Consumes `ket`.
///
/// The sweep replays the tape's pre-lowered adjoint program: fixed-gate
/// segments between parametrized stops are already inverted and fused,
/// and each run of trainable single-qubit rotations on one wire is a
/// [`RotationBlock`] whose gradients all come from one
/// [`StateVector::adjoint_block_stop`] traversal. Input rotations take the
/// same kernel as one-gate blocks with a per-row inverse. Starting from the
/// same register bits, the result is bit-identical to
/// [`vjp_diagonal_tape`].
///
/// [`RotationBlock`]: crate::tape::RotationBlock
///
/// # Errors
///
/// Returns [`QuantumError::ForwardOnlyTape`] for a tape compiled without
/// its adjoint program, a dimension error if `ket` or `diag` does not match
/// the tape's register, and an input-count error if `inputs` is shorter
/// than the tape's input stops reference.
pub fn vjp_diagonal_from(
    tape: &CompiledTape,
    inputs: &[f64],
    ket: StateVector,
    diag: &[f64],
) -> Result<CircuitGradients> {
    let steps = checked_program(tape, diag)?;
    if ket.n_qubits() != tape.n_qubits() {
        return Err(QuantumError::DimensionMismatch {
            expected: 1 << tape.n_qubits(),
            actual: ket.dim(),
        });
    }
    sweep(tape, steps, inputs, ket, diag)
}

/// The tape's adjoint program, once `diag` is checked against its register.
fn checked_program<'t>(tape: &'t CompiledTape, diag: &[f64]) -> Result<&'t [AdjointStep]> {
    let steps = tape.adjoint_program()?;
    let dim = 1usize << tape.n_qubits();
    if diag.len() != dim {
        return Err(QuantumError::DimensionMismatch {
            expected: dim,
            actual: diag.len(),
        });
    }
    Ok(steps)
}

/// The backward sweep shared by [`vjp_diagonal_tape`] and
/// [`vjp_diagonal_from`], over a checked program.
fn sweep(
    tape: &CompiledTape,
    steps: &[AdjointStep],
    inputs: &[f64],
    mut ket: StateVector,
    diag: &[f64],
) -> Result<CircuitGradients> {
    let mut bra = ket.clone();
    bra.apply_diagonal_real(diag);

    let mut grads = CircuitGradients::zeros(tape.n_params(), tape.n_inputs());

    for step in steps {
        match step {
            AdjointStep::Unapply(ops) => {
                for op in ops {
                    ket.apply_tape_op(op, inputs)?;
                    bra.apply_tape_op(op, inputs)?;
                }
            }
            AdjointStep::Stop(AdjointStop::Block(block)) => {
                let c = ket.adjoint_block_stop(&mut bra, block.wire, &block.inv)?;
                for (index, h) in &block.angles {
                    grads.params[*index] += contract_im(h, &c);
                }
            }
            AdjointStep::Stop(AdjointStop::Input { gate, index }) => {
                let theta = *inputs.get(*index).ok_or(QuantumError::InputCountMismatch {
                    expected: *index + 1,
                    actual: inputs.len(),
                })?;
                let (wire, g) = gate
                    .single_qubit_generator()
                    .expect("parametrized gates are single-qubit rotations");
                let (_, inv) = gate
                    .single_qubit_matrix(-theta)
                    .expect("single-qubit rotations have a 2x2 matrix");
                grads.inputs[*index] +=
                    contract_im(&g, &ket.adjoint_block_stop(&mut bra, wire, &inv)?);
            }
        }
    }
    Ok(grads)
}

/// [`contract_im`] for every lane: adds lane `l`'s `Im Σ_ab H[a][b]·C[a][b]`
/// to `g[l]`, with `C` read from the eight cross-matrix planes `c` a stop
/// accumulated (laid out like a flat 2×2 matrix: `c00.re`, `c00.im`, …).
/// Each lane does `contract_im`'s operations in its order: every product's
/// imaginary part `h.re·c.im + h.im·c.re`, summed left to right.
fn contract_lanes(h: &[[C64; 2]; 2], c: [&[f64]; 8], g: &mut [f64]) {
    // A literal lane count runs one lane's sum as scalars.
    match g.len() {
        1 => contract(h, c, &mut g[..1]),
        _ => contract(h, c, g),
    }
}

/// [`contract_lanes`]'s loop.
#[inline(always)]
fn contract(h: &[[C64; 2]; 2], c: [&[f64]; 8], g: &mut [f64]) {
    let lanes = g.len();
    let [c00r, c00i, c01r, c01i, c10r, c10i, c11r, c11i] = c;
    let (c00r, c00i, c01r, c01i) = (
        &c00r[..lanes],
        &c00i[..lanes],
        &c01r[..lanes],
        &c01i[..lanes],
    );
    let (c10r, c10i, c11r, c11i) = (
        &c10r[..lanes],
        &c10i[..lanes],
        &c11r[..lanes],
        &c11i[..lanes],
    );
    let [[h00, h01], [h10, h11]] = *h;
    for l in 0..lanes {
        g[l] += (((h00.re * c00i[l] + h00.im * c00r[l]) + (h01.re * c01i[l] + h01.im * c01r[l]))
            + (h10.re * c10i[l] + h10.im * c10r[l]))
            + (h11.re * c11i[l] + h11.im * c11r[l]);
    }
}

/// The backward sweep over every lane of a [`RegisterBank`] at once, each
/// lane swept against the diagonal observable of its own upstream row,
/// `width` values long. Every step is a loop over lanes:
///
/// * the bra: the upstream rows are transposed once into `width` lane
///   planes, and for every amplitude `i`, `diagonal(up, i, d)` writes each
///   lane's diagonal entry into the lane plane `d`, which scales the ket
///   into the bra in the same pass;
/// * every stop, trainable block or input rotation, runs one bank kernel
///   ([`RegisterBank::block_stop`], [`RegisterBank::input_stop`]);
/// * each gradient is contracted from the stop's cross-matrix planes for
///   all lanes at once ([`contract_lanes`]) into a parameter-major plane,
///   transposed once at the end into the lane-major result.
///
/// Lane `l` does exactly the `f64` operations [`sweep`] does on that row
/// (the same diagonal entries, the same program, the same block-stop
/// order, and `grads[index] += contract_im(h, c)` in sweep order), so its
/// gradients are bit-identical to [`vjp_diagonal_from`]'s. Returns them
/// lane-major (see [`backward_expectations_z_bank`]).
fn vjp_bank(
    tape: &CompiledTape,
    inputs: &[&[f64]],
    ket: &mut RegisterBank,
    upstream: &[&[f64]],
    scratch: &mut BankScratch,
    width: usize,
    diagonal: impl Fn(&[f64], usize, &mut [f64]),
) -> Result<Vec<f64>> {
    let steps = tape.adjoint_program()?;
    ket.check_tape(tape)?;
    check_lane_count(upstream.len(), ket.lanes())?;
    ket.check_inputs(inputs, tape.n_inputs())?;
    if let Some(row) = upstream.iter().find(|row| row.len() != width) {
        return Err(QuantumError::DimensionMismatch {
            expected: width,
            actual: row.len(),
        });
    }
    let lanes = ket.lanes();
    if lanes == 0 {
        return Ok(Vec::new());
    }
    let BankScratch {
        work,
        bra,
        up,
        diag,
        grads,
    } = scratch;
    up.clear();
    up.resize(width * lanes, 0.0);
    for (l, row) in upstream.iter().enumerate() {
        for (w, &u) in row.iter().enumerate() {
            up[w * lanes + l] = u;
        }
    }
    bra.scaled_from(ket, diag, |i, d| diagonal(up, i, d));

    let n_params = tape.n_params();
    let per_lane = n_params + tape.n_inputs();
    grads.clear();
    grads.resize(per_lane * lanes, 0.0);
    for step in steps {
        match step {
            AdjointStep::Unapply(ops) => {
                for op in ops {
                    ket.apply_op(op, inputs, work)?;
                    bra.apply_op(op, inputs, work)?;
                }
            }
            AdjointStep::Stop(AdjointStop::Block(block)) => {
                ket.block_stop(bra, block.wire, &block.inv, work)?;
                let c = work.cross_planes(lanes);
                for (index, h) in &block.angles {
                    contract_lanes(h, c, &mut grads[index * lanes..][..lanes]);
                }
            }
            AdjointStep::Stop(AdjointStop::Input { gate, index }) => {
                let (_, generator) = gate
                    .single_qubit_generator()
                    .expect("parametrized gates are single-qubit rotations");
                ket.input_stop(bra, gate, *index, inputs, work)?;
                let g = &mut grads[(n_params + index) * lanes..][..lanes];
                contract_lanes(&generator, work.cross_planes(lanes), g);
            }
        }
    }
    let mut out = vec![0.0; lanes * per_lane];
    for (k, plane) in grads.chunks_exact(lanes).enumerate() {
        for (l, &g) in plane.iter().enumerate() {
            out[l * per_lane + k] = g;
        }
    }
    Ok(out)
}

/// [`backward_expectations_z_from`] for every lane of a [`RegisterBank`]:
/// sweeps the bank `ket` that `tape`'s forward program produced (lane `l`
/// with `inputs[l]`) against each lane's upstream row `upstream[l]`. The
/// sweep un-applies the circuit from `ket` in place; `scratch` holds the
/// bra, the diagonal plane and the kernels' working planes.
///
/// Returns every lane's gradients in one lane-major buffer, each lane
/// bit-identical to the per-row sweep of its row: with `P =
/// tape.n_params()` and `I = tape.n_inputs()`, lane `l`'s parameter
/// gradients are `[l·(P + I)..l·(P + I) + P]` and its input gradients the
/// `I` values after them.
///
/// # Errors
///
/// Returns [`QuantumError::ForwardOnlyTape`] for a tape compiled without
/// its adjoint program, a dimension error if `ket` has another width than
/// the tape, if `inputs` or `upstream` does not hold one row per lane, or
/// if an upstream row is not `n_qubits` long, and an input-count error if a
/// lane's inputs are shorter than the tape's. All are checked before the
/// sweep starts.
pub fn backward_expectations_z_bank(
    tape: &CompiledTape,
    inputs: &[&[f64]],
    ket: &mut RegisterBank,
    upstream: &[&[f64]],
    scratch: &mut BankScratch,
) -> Result<Vec<f64>> {
    let n = tape.n_qubits();
    vjp_bank(tape, inputs, ket, upstream, scratch, n, |up, i, d| {
        z_entries(n, up, i, d);
    })
}

/// Every lane's entry of the upstream-weighted `⟨Z⟩` diagonal
/// `Σ_w up[w]·Z_w` at basis state `i`, written into `d`, from the upstream
/// rows transposed into `n` lane planes `up`: each lane is added up from
/// 0.0 wire by wire, as `weighted_z_sum_diagonal` adds one row.
fn z_entries(n: usize, up: &[f64], i: usize, d: &mut [f64]) {
    let lanes = d.len();
    d.fill(0.0);
    for w in 0..n {
        let z = if i & (1 << (n - 1 - w)) == 0 {
            1.0
        } else {
            -1.0
        };
        for (d, u) in d.iter_mut().zip(&up[w * lanes..][..lanes]) {
            *d += u * z;
        }
    }
}

/// [`backward_probabilities_tape`]'s sweep for every lane of a
/// [`RegisterBank`] (see [`backward_expectations_z_bank`]); each upstream
/// row holds `2^n_qubits` values.
///
/// # Errors
///
/// See [`backward_expectations_z_bank`].
pub fn backward_probabilities_bank(
    tape: &CompiledTape,
    inputs: &[&[f64]],
    ket: &mut RegisterBank,
    upstream: &[&[f64]],
    scratch: &mut BankScratch,
) -> Result<Vec<f64>> {
    let dim = 1 << tape.n_qubits();
    vjp_bank(tape, inputs, ket, upstream, scratch, dim, |up, i, d| {
        d.copy_from_slice(&up[i * d.len()..][..d.len()]);
    })
}

/// The upstream-weighted `⟨Z⟩` diagonal `Σ_w upstream[w]·Z_w` on `n` wires.
fn z_diagonal(n: usize, upstream: &[f64]) -> Result<Vec<f64>> {
    if upstream.len() != n {
        return Err(QuantumError::DimensionMismatch {
            expected: n,
            actual: upstream.len(),
        });
    }
    let wires: Vec<usize> = (0..n).collect();
    weighted_z_sum_diagonal(n, &wires, upstream)
}

/// [`backward_expectations_z`] against a pre-compiled tape: executes the
/// tape, then sweeps (the re-executing oracle; see [`vjp_diagonal_tape`]).
///
/// # Errors
///
/// Returns a dimension error if `upstream.len() != n_qubits`, plus the
/// errors of [`vjp_diagonal_tape`] (including
/// [`QuantumError::ForwardOnlyTape`]).
pub fn backward_expectations_z_tape(
    tape: &CompiledTape,
    inputs: &[f64],
    initial: Option<&StateVector>,
    upstream: &[f64],
) -> Result<CircuitGradients> {
    vjp_diagonal_tape(
        tape,
        inputs,
        initial,
        &z_diagonal(tape.n_qubits(), upstream)?,
    )
}

/// [`backward_expectations_z_tape`] swept from the row's final register
/// `ket` instead of re-executing the tape (see [`vjp_diagonal_from`]).
///
/// # Errors
///
/// Returns a dimension error if `upstream.len() != n_qubits`, plus the
/// errors of [`vjp_diagonal_from`].
pub fn backward_expectations_z_from(
    tape: &CompiledTape,
    inputs: &[f64],
    ket: StateVector,
    upstream: &[f64],
) -> Result<CircuitGradients> {
    vjp_diagonal_from(tape, inputs, ket, &z_diagonal(tape.n_qubits(), upstream)?)
}

/// [`backward_probabilities`] against a pre-compiled tape: executes the
/// tape, then sweeps (the re-executing oracle; see [`vjp_diagonal_tape`]).
///
/// # Errors
///
/// Returns a dimension error if `upstream.len() != 2^n_qubits`, plus the
/// errors of [`vjp_diagonal_tape`] (including
/// [`QuantumError::ForwardOnlyTape`]).
pub fn backward_probabilities_tape(
    tape: &CompiledTape,
    inputs: &[f64],
    initial: Option<&StateVector>,
    upstream: &[f64],
) -> Result<CircuitGradients> {
    let diag = probability_diagonal(tape.n_qubits(), upstream)?;
    vjp_diagonal_tape(tape, inputs, initial, &diag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{amplitude_embedding, angle_embedding_gates, RotationAxis};
    use crate::gate::Param;
    use crate::templates::{strongly_entangling_layers, EntangleRange};

    /// dE/dθ for E = ⟨Z₀⟩ of RY(θ)|0⟩ is -sin θ.
    #[test]
    fn single_ry_analytic_gradient() {
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        let theta = 0.731;
        let g = backward_expectations_z(&c, &[theta], &[], None, &[1.0]).unwrap();
        assert!((g.params[0] + theta.sin()).abs() < 1e-12);
    }

    #[test]
    fn input_gradient_through_angle_embedding() {
        // ⟨Z₀⟩ of RY(x)|0⟩ = cos x, so dE/dx = -sin x.
        let mut c = Circuit::new(1).unwrap();
        c.extend(angle_embedding_gates(1, RotationAxis::Y, 0))
            .unwrap();
        let x = 1.04;
        let g = backward_expectations_z(&c, &[], &[x], None, &[1.0]).unwrap();
        assert!((g.inputs[0] + x.sin()).abs() < 1e-12);
        assert!(g.params.is_empty());
    }

    #[test]
    fn upstream_weights_scale_gradients() {
        let mut c = Circuit::new(2).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        c.ry(1, Param::Train(1)).unwrap();
        let params = [0.3, 1.2];
        let g1 = backward_expectations_z(&c, &params, &[], None, &[1.0, 0.0]).unwrap();
        let g2 = backward_expectations_z(&c, &params, &[], None, &[2.0, 0.0]).unwrap();
        assert!((g2.params[0] - 2.0 * g1.params[0]).abs() < 1e-12);
        assert!(g1.params[1].abs() < 1e-12); // wire-1 output had zero weight
    }

    #[test]
    fn probability_readout_gradient_matches_finite_difference() {
        let mut c = Circuit::new(2).unwrap();
        c.extend(strongly_entangling_layers(2, 2, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let n = c.n_params();
        let params: Vec<f64> = (0..n).map(|i| 0.1 + 0.13 * i as f64).collect();
        // Loss: sum_i w_i p_i with arbitrary weights.
        let w = [0.5, -1.5, 2.5, 0.25];
        let g = backward_probabilities(&c, &params, &[], None, &w).unwrap();
        let eps = 1e-6;
        for k in 0..n {
            let mut pp = params.clone();
            pp[k] += eps;
            let lp: f64 = c
                .run_probabilities(&pp, &[], None)
                .unwrap()
                .iter()
                .zip(&w)
                .map(|(p, wi)| p * wi)
                .sum();
            pp[k] -= 2.0 * eps;
            let lm: f64 = c
                .run_probabilities(&pp, &[], None)
                .unwrap()
                .iter()
                .zip(&w)
                .map(|(p, wi)| p * wi)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (g.params[k] - fd).abs() < 1e-5,
                "param {k}: adjoint={} fd={fd}",
                g.params[k]
            );
        }
    }

    #[test]
    fn gradient_with_amplitude_embedded_initial_state() {
        let mut c = Circuit::new(2).unwrap();
        c.extend(strongly_entangling_layers(2, 1, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let init = amplitude_embedding(&[0.2, 0.4, 0.6, 0.8], 2).unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.07 * (i + 1) as f64).collect();
        let upstream = [1.0, -0.5];
        let g = backward_expectations_z(&c, &params, &[], Some(&init), &upstream).unwrap();
        // Finite-difference oracle on L = z0 - 0.5 z1.
        let loss = |p: &[f64]| {
            let z = c.run_expectations_z(p, &[], Some(&init)).unwrap();
            z[0] - 0.5 * z[1]
        };
        let eps = 1e-6;
        for k in 0..params.len() {
            let mut pp = params.clone();
            pp[k] += eps;
            let lp = loss(&pp);
            pp[k] -= 2.0 * eps;
            let lm = loss(&pp);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((g.params[k] - fd).abs() < 1e-5, "param {k}");
        }
    }

    #[test]
    fn shared_parameter_accumulates() {
        // Two RY gates bound to the same trainable index: E = cos(2θ),
        // dE/dθ = -2 sin(2θ).
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        let theta = 0.41;
        let g = backward_expectations_z(&c, &[theta], &[], None, &[1.0]).unwrap();
        assert!((g.params[0] + 2.0 * (2.0 * theta).sin()).abs() < 1e-12);
    }

    /// Upstream values of both zero signs and both nonzero signs, so that a
    /// sum which dropped its leading `0.0` would keep a `−0.0` and flip a
    /// sign bit.
    const SIGNED: [f64; 4] = [0.0, -0.0, 0.75, -1.25];

    /// The lane-wise `⟨Z⟩` diagonal equals the per-row diagonal bit for bit,
    /// lane 0 holding only `−0.0` and the other lanes every mix of signed
    /// zeros and nonzero values.
    #[test]
    fn lane_z_entries_match_the_per_row_diagonal_bitwise() {
        let n = 3;
        let rows: Vec<Vec<f64>> = std::iter::once(vec![-0.0; n])
            .chain((0..SIGNED.len().pow(n as u32)).map(|k| {
                (0..n)
                    .map(|w| SIGNED[k / SIGNED.len().pow(w as u32) % SIGNED.len()])
                    .collect()
            }))
            .collect();
        let lanes = rows.len();
        let mut up = vec![0.0; n * lanes];
        for (l, row) in rows.iter().enumerate() {
            for (w, &u) in row.iter().enumerate() {
                up[w * lanes + l] = u;
            }
        }
        let want: Vec<Vec<f64>> = rows.iter().map(|r| z_diagonal(n, r).unwrap()).collect();
        let mut d = vec![1.0; lanes];
        for i in 0..1 << n {
            z_entries(n, &up, i, &mut d);
            for (l, want) in want.iter().enumerate() {
                assert_eq!(d[l].to_bits(), want[i].to_bits(), "lane {l} entry {i}");
            }
        }
    }

    /// The lane-wise contraction adds `contract_im` bit for bit, at cross
    /// matrices and rotation generators holding signed zeros: lane `l <
    /// 256` holds the zero whose sign is bit `k` of `l` in entry `k`, the
    /// other lanes mixes of zeros and nonzero values.
    #[test]
    fn lane_contraction_matches_contract_im_bitwise() {
        let lanes = 256 + 64;
        let c: Vec<Vec<f64>> = (0..8)
            .map(|k| {
                (0..lanes)
                    .map(|l| match l {
                        0..=255 if l >> k & 1 == 1 => -0.0,
                        0..=255 => 0.0,
                        _ => SIGNED[(l / (k + 1) + k) % SIGNED.len()],
                    })
                    .collect()
            })
            .collect();
        let planes: [&[f64]; 8] = std::array::from_fn(|k| c[k].as_slice());
        for (re, im) in SIGNED.iter().flat_map(|&re| SIGNED.map(|im| (re, im))) {
            let h = [[C64::new(re, im), C64::new(im, re)], [C64::new(re, im); 2]];
            let mut g = vec![0.0; lanes];
            contract_lanes(&h, planes, &mut g);
            for (l, g) in g.iter().enumerate() {
                let cl = |k: usize| C64::new(c[k][l], c[k + 1][l]);
                let want = 0.0 + contract_im(&h, &[[cl(0), cl(2)], [cl(4), cl(6)]]);
                assert_eq!(g.to_bits(), want.to_bits(), "h ({re}, {im}) lane {l}");
            }
        }
    }

    #[test]
    fn rejects_wrong_upstream_length() {
        let c = Circuit::new(2).unwrap();
        assert!(backward_expectations_z(&c, &[], &[], None, &[1.0]).is_err());
        assert!(backward_probabilities(&c, &[], &[], None, &[1.0; 3]).is_err());
    }
}
