//! Central finite differences — the numerical oracle used to validate the
//! analytic engines in tests. Not intended for training (O(2·n_params)
//! executions and truncation error).

use crate::circuit::Circuit;
use crate::error::Result;
use crate::state::StateVector;

/// Default step size balancing truncation and round-off error.
pub const DEFAULT_EPS: f64 = 1e-6;

/// Jacobian of `measure` with respect to trainable parameters, via central
/// differences with step `eps`. Returns `jac[p][o] = d out_o / d θ_p`.
///
/// # Errors
///
/// Returns circuit-execution errors.
pub fn jacobian_params<F>(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    eps: f64,
    measure: F,
) -> Result<Vec<Vec<f64>>>
where
    F: Fn(&StateVector) -> Vec<f64>,
{
    let mut work = params.to_vec();
    let mut jac = Vec::with_capacity(circuit.n_params());
    for k in 0..circuit.n_params() {
        work[k] = params[k] + eps;
        let plus = measure(&circuit.run(&work, inputs, initial)?);
        work[k] = params[k] - eps;
        let minus = measure(&circuit.run(&work, inputs, initial)?);
        work[k] = params[k];
        jac.push(
            plus.iter()
                .zip(&minus)
                .map(|(p, m)| (p - m) / (2.0 * eps))
                .collect(),
        );
    }
    Ok(jac)
}

/// Jacobian of `measure` with respect to embedded inputs, via central
/// differences with step `eps`.
///
/// # Errors
///
/// Returns circuit-execution errors.
pub fn jacobian_inputs<F>(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    eps: f64,
    measure: F,
) -> Result<Vec<Vec<f64>>>
where
    F: Fn(&StateVector) -> Vec<f64>,
{
    let mut work = inputs.to_vec();
    let mut jac = Vec::with_capacity(circuit.n_inputs());
    for k in 0..circuit.n_inputs() {
        work[k] = inputs[k] + eps;
        let plus = measure(&circuit.run(params, &work, initial)?);
        work[k] = inputs[k] - eps;
        let minus = measure(&circuit.run(params, &work, initial)?);
        work[k] = inputs[k];
        jac.push(
            plus.iter()
                .zip(&minus)
                .map(|(p, m)| (p - m) / (2.0 * eps))
                .collect(),
        );
    }
    Ok(jac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Param;
    use crate::grad::paramshift;
    use crate::templates::{strongly_entangling_layers, EntangleRange};

    #[test]
    fn finite_difference_matches_parameter_shift() {
        let mut c = Circuit::new(2).unwrap();
        c.extend(strongly_entangling_layers(2, 2, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.11 * (i + 1) as f64).collect();
        let measure =
            |s: &StateVector| vec![s.expectation_z(0).unwrap(), s.expectation_z(1).unwrap()];
        let fd = jacobian_params(&c, &params, &[], None, DEFAULT_EPS, measure).unwrap();
        let (ps, _) = paramshift::jacobian_expectations_z(&c, &params, &[], None).unwrap();
        for (rf, rp) in fd.iter().zip(&ps) {
            for (a, b) in rf.iter().zip(rp) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn input_jacobian_on_single_gate() {
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Input(0)).unwrap();
        let x = 0.55;
        let jac = jacobian_inputs(&c, &[], &[x], None, DEFAULT_EPS, |s: &StateVector| {
            vec![s.expectation_z(0).unwrap()]
        })
        .unwrap();
        assert!((jac[0][0] + x.sin()).abs() < 1e-6);
    }
}
