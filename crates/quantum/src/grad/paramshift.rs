//! Parameter-shift differentiation.
//!
//! The hardware-compatible gradient rule: for a gate `U(θ) = exp(-iθG/2)`
//! whose generator has eigenvalues `±1/2`,
//!
//! ```text
//! d⟨M⟩/dθ = [⟨M⟩(θ + π/2) − ⟨M⟩(θ − π/2)] / 2 .
//! ```
//!
//! Every parametrized gate is a single-qubit rotation with a Pauli
//! generator, so this two-term rule covers every angle.
//!
//! A parameter shared by several gates is differentiated gate-by-gate and
//! summed (the product rule). This engine re-executes the circuit per shift,
//! so it is slower than [`crate::grad::adjoint`] but matches what quantum
//! hardware can evaluate; the paper's training relies on exactly this rule on
//! the PennyLane simulator.

use crate::circuit::Circuit;
use crate::error::Result;
use crate::gate::Param;
use crate::grad::CircuitGradients;
use crate::state::{start_state, StateVector};
use std::f64::consts::FRAC_PI_2;

/// Jacobian pair `(jac_params, jac_inputs)` with `jac[p][o] = ∂out_o/∂θ_p`.
pub type JacobianPair = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// Executes `circuit` with gate `gate_idx`'s angle replaced by
/// `override_theta`. The starting register goes through the shared
/// `start_state`, so a mismatched `initial` width is a typed dimension
/// error here exactly as it is in `Circuit::run`.
fn run_with_override(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    gate_idx: usize,
    override_theta: f64,
) -> Result<StateVector> {
    circuit.check_bindings(params, inputs)?;
    let mut state = start_state(circuit.n_qubits(), initial)?;
    for (i, g) in circuit.ops().iter().enumerate() {
        let theta = if i == gate_idx {
            override_theta
        } else {
            g.param().map_or(0.0, |p| p.resolve(params, inputs))
        };
        g.apply(&mut state, theta)?;
    }
    Ok(state)
}

/// Full Jacobian of a measurement vector with respect to trainable
/// parameters and inputs, via parameter shifts.
///
/// `measure` maps a final state to the output vector (e.g. per-wire `⟨Z⟩` or
/// probabilities). Returns `(jac_params, jac_inputs)` where
/// `jac_params[p][o] = d out_o / d θ_p`.
///
/// # Errors
///
/// Returns circuit-execution errors.
pub fn jacobian<F>(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    measure: F,
) -> Result<JacobianPair>
where
    F: Fn(&StateVector) -> Vec<f64>,
{
    circuit.check_bindings(params, inputs)?;
    let n_out = measure(&circuit.run(params, inputs, initial)?).len();
    let mut jac_params = vec![vec![0.0; n_out]; circuit.n_params()];
    let mut jac_inputs = vec![vec![0.0; n_out]; circuit.n_inputs()];

    for (gate_idx, gate) in circuit.ops().iter().enumerate() {
        let binding = match gate.param() {
            Some(Param::Train(i)) => Some((true, i)),
            Some(Param::Input(i)) => Some((false, i)),
            _ => None,
        };
        let Some((is_train, idx)) = binding else {
            continue;
        };
        let theta = gate
            .param()
            .expect("binding implies param")
            .resolve(params, inputs);

        let eval = |t: f64| -> Result<Vec<f64>> {
            Ok(measure(&run_with_override(
                circuit, params, inputs, initial, gate_idx, t,
            )?))
        };

        let plus = eval(theta + FRAC_PI_2)?;
        let minus = eval(theta - FRAC_PI_2)?;
        let target = if is_train {
            &mut jac_params[idx]
        } else {
            &mut jac_inputs[idx]
        };
        for (t, (p, m)) in target.iter_mut().zip(plus.iter().zip(&minus)) {
            *t += (p - m) / 2.0;
        }
    }
    Ok((jac_params, jac_inputs))
}

/// Jacobian of the per-wire `⟨Z⟩` readout.
///
/// # Errors
///
/// Returns circuit-execution errors.
pub fn jacobian_expectations_z(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
) -> Result<JacobianPair> {
    let n = circuit.n_qubits();
    jacobian(circuit, params, inputs, initial, |s| {
        (0..n)
            .map(|w| s.expectation_z(w).expect("wire in range"))
            .collect()
    })
}

/// Jacobian of the basis-state probability readout.
///
/// # Errors
///
/// Returns circuit-execution errors.
pub fn jacobian_probabilities(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
) -> Result<JacobianPair> {
    jacobian(circuit, params, inputs, initial, StateVector::probabilities)
}

/// Vector-Jacobian product computed by parameter shift (for cross-checking
/// the adjoint engine): contracts the Jacobian with `upstream`.
///
/// # Errors
///
/// Returns circuit-execution errors.
pub fn vjp_expectations_z(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    upstream: &[f64],
) -> Result<CircuitGradients> {
    let (jp, ji) = jacobian_expectations_z(circuit, params, inputs, initial)?;
    let contract = |jac: &[Vec<f64>]| -> Vec<f64> {
        jac.iter()
            .map(|row| row.iter().zip(upstream).map(|(j, u)| j * u).sum())
            .collect()
    };
    Ok(CircuitGradients {
        params: contract(&jp),
        inputs: contract(&ji),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{angle_embedding_gates, RotationAxis};
    use crate::grad::adjoint;
    use crate::templates::{strongly_entangling_layers, EntangleRange};

    #[test]
    fn two_term_rule_on_single_ry() {
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        let theta = 0.9;
        let (jp, _) = jacobian_expectations_z(&c, &[theta], &[], None).unwrap();
        assert!((jp[0][0] + theta.sin()).abs() < 1e-12);
    }

    #[test]
    fn jacobian_covers_inputs() {
        let mut c = Circuit::new(2).unwrap();
        c.extend(angle_embedding_gates(2, RotationAxis::Y, 0))
            .unwrap();
        let x = [0.4, -0.8];
        let (_, ji) = jacobian_expectations_z(&c, &[], &x, None).unwrap();
        assert!((ji[0][0] + x[0].sin()).abs() < 1e-12);
        assert!((ji[1][1] + x[1].sin()).abs() < 1e-12);
        assert!(ji[0][1].abs() < 1e-12); // no cross terms without entanglement
    }

    #[test]
    fn matches_adjoint_on_entangling_circuit() {
        let mut c = Circuit::new(3).unwrap();
        c.extend(angle_embedding_gates(3, RotationAxis::Y, 0))
            .unwrap();
        c.extend(strongly_entangling_layers(3, 2, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.05 * (i as f64) - 0.4).collect();
        let inputs = [0.3, -0.2, 0.9];
        let upstream = [0.7, -1.1, 0.4];
        let ps = vjp_expectations_z(&c, &params, &inputs, None, &upstream).unwrap();
        let adj = adjoint::backward_expectations_z(&c, &params, &inputs, None, &upstream).unwrap();
        for (a, b) in ps.params.iter().zip(&adj.params) {
            assert!((a - b).abs() < 1e-10, "params {a} vs {b}");
        }
        for (a, b) in ps.inputs.iter().zip(&adj.inputs) {
            assert!((a - b).abs() < 1e-10, "inputs {a} vs {b}");
        }
    }

    #[test]
    fn probability_jacobian_rows_sum_to_zero() {
        // Σ_i p_i = 1, so d(Σp)/dθ = 0 for every parameter.
        let mut c = Circuit::new(2).unwrap();
        c.extend(strongly_entangling_layers(2, 1, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.2 + 0.1 * i as f64).collect();
        let (jp, _) = jacobian_probabilities(&c, &params, &[], None).unwrap();
        for row in &jp {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-10);
        }
    }

    #[test]
    fn shared_binding_sums_gate_contributions() {
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        c.ry(0, Param::Train(0)).unwrap();
        let theta = 0.37;
        let (jp, _) = jacobian_expectations_z(&c, &[theta], &[], None).unwrap();
        assert!((jp[0][0] + 2.0 * (2.0 * theta).sin()).abs() < 1e-12);
    }
}
