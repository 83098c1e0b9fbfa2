//! Stochastic Pauli-noise trajectories.
//!
//! The paper targets "near-term quantum computers" but evaluates on a
//! noiseless simulator. This module adds the standard NISQ realism knob as
//! an *extension* (DESIGN.md §7): a depolarizing channel of strength `p`
//! after every gate, unravelled as stochastic Pauli insertions (trajectory
//! / Monte-Carlo wave-function method). Averaging expectations over
//! trajectories converges to the density-matrix result.

use crate::circuit::Circuit;
use crate::error::Result;
use crate::gate::Gate;
use crate::state::{start_state, StateVector};
use rand::Rng;

/// A depolarizing noise model applied per gate per touched wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Probability of a depolarizing event on each wire a gate touches.
    pub p_depolarizing: f64,
}

impl NoiseModel {
    /// A noiseless model (trajectories reduce to exact simulation).
    pub fn noiseless() -> Self {
        NoiseModel {
            p_depolarizing: 0.0,
        }
    }

    /// A model with the given per-gate depolarizing probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn depolarizing(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        NoiseModel { p_depolarizing: p }
    }
}

/// Runs one noisy trajectory: after each gate, each touched wire suffers a
/// uniformly random Pauli (X, Y, or Z) with probability `p`.
///
/// # Errors
///
/// Returns binding-count errors, a typed dimension mismatch if `initial`
/// has a different width, or gate-application errors.
pub fn run_trajectory(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    noise: NoiseModel,
    rng: &mut impl Rng,
) -> Result<StateVector> {
    circuit.check_bindings(params, inputs)?;
    let mut state = start_state(circuit.n_qubits(), initial)?;
    for g in circuit.ops() {
        let theta = g.param().map_or(0.0, |p| p.resolve(params, inputs));
        g.apply(&mut state, theta)?;
        if noise.p_depolarizing > 0.0 {
            for w in g.wires() {
                if rng.gen_bool(noise.p_depolarizing) {
                    let pauli = match rng.gen_range(0..3) {
                        0 => Gate::PauliX(w),
                        1 => Gate::PauliY(w),
                        _ => Gate::PauliZ(w),
                    };
                    pauli.apply(&mut state, 0.0)?;
                }
            }
        }
    }
    Ok(state)
}

/// Averages per-wire `⟨Z⟩` over `n_trajectories` noisy runs.
///
/// # Errors
///
/// Returns [`crate::error::QuantumError::ZeroTrajectories`] when
/// `n_trajectories == 0` (an empty sample has no mean; earlier versions
/// silently ran one trajectory instead), and circuit-execution errors
/// otherwise.
pub fn noisy_expectations_z(
    circuit: &Circuit,
    params: &[f64],
    inputs: &[f64],
    initial: Option<&StateVector>,
    noise: NoiseModel,
    n_trajectories: usize,
    rng: &mut impl Rng,
) -> Result<Vec<f64>> {
    if n_trajectories == 0 {
        return Err(crate::error::QuantumError::ZeroTrajectories);
    }
    let n = circuit.n_qubits();
    let mut acc = vec![0.0; n];
    for _ in 0..n_trajectories {
        let state = run_trajectory(circuit, params, inputs, initial, noise, rng)?;
        for (a, w) in acc.iter_mut().zip(0..n) {
            *a += state.expectation_z(w)?;
        }
    }
    let inv = 1.0 / n_trajectories as f64;
    Ok(acc.into_iter().map(|a| a * inv).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QuantumError;
    use crate::gate::Param;
    use crate::templates::{strongly_entangling_layers, EntangleRange};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_circuit() -> (Circuit, Vec<f64>) {
        let mut c = Circuit::new(3).unwrap();
        c.extend(strongly_entangling_layers(3, 2, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.15 * i as f64 - 0.8).collect();
        (c, params)
    }

    #[test]
    fn noiseless_trajectory_matches_exact_simulation() {
        let (c, params) = test_circuit();
        let mut rng = StdRng::seed_from_u64(1);
        let exact = c.run(&params, &[], None).unwrap();
        let traj =
            run_trajectory(&c, &params, &[], None, NoiseModel::noiseless(), &mut rng).unwrap();
        // `run` executes the batch-compiled tape (fused matrices), the
        // trajectory applies gates one at a time: equal to fp tolerance.
        for (a, b) in exact.amplitudes().iter().zip(traj.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn noise_damps_expectations_toward_zero() {
        // A single RY(0.3) leaves ⟨Z⟩ ≈ 0.955; depolarizing noise must pull
        // the trajectory average toward 0.
        let mut c = Circuit::new(1).unwrap();
        c.ry(0, Param::Fixed(0.3)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let clean = noisy_expectations_z(&c, &[], &[], None, NoiseModel::noiseless(), 1, &mut rng)
            .unwrap()[0];
        let noisy = noisy_expectations_z(
            &c,
            &[],
            &[],
            None,
            NoiseModel::depolarizing(0.3),
            400,
            &mut rng,
        )
        .unwrap()[0];
        assert!(clean > 0.9);
        assert!(noisy.abs() < clean, "noisy {noisy} vs clean {clean}");
    }

    #[test]
    fn stronger_noise_damps_more() {
        let (c, params) = test_circuit();
        let expectation_magnitude = |p: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let z = noisy_expectations_z(
                &c,
                &params,
                &[],
                None,
                NoiseModel::depolarizing(p),
                300,
                &mut rng,
            )
            .unwrap();
            z.iter().map(|x| x.abs()).sum::<f64>()
        };
        let weak = expectation_magnitude(0.01, 3);
        let strong = expectation_magnitude(0.25, 3);
        assert!(strong < weak, "strong {strong} vs weak {weak}");
    }

    #[test]
    fn trajectories_stay_normalized() {
        let (c, params) = test_circuit();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let s = run_trajectory(
                &c,
                &params,
                &[],
                None,
                NoiseModel::depolarizing(0.5),
                &mut rng,
            )
            .unwrap();
            assert!((s.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn mismatched_initial_is_a_typed_error() {
        // A 2-qubit circuit started from a wider or a narrower register.
        let mut c = Circuit::new(2).unwrap();
        c.ry(0, Param::Fixed(0.7)).unwrap();
        c.cnot(0, 1).unwrap();
        let noise = NoiseModel::depolarizing(0.1);
        let mut rng = StdRng::seed_from_u64(6);
        for n in [3, 1] {
            let initial = StateVector::zero_state(n).unwrap();
            let mismatch = QuantumError::DimensionMismatch {
                expected: 4,
                actual: 1 << n,
            };
            assert_eq!(
                run_trajectory(&c, &[], &[], Some(&initial), noise, &mut rng),
                Err(mismatch.clone())
            );
            assert_eq!(
                noisy_expectations_z(&c, &[], &[], Some(&initial), noise, 4, &mut rng),
                Err(mismatch)
            );
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_probability() {
        NoiseModel::depolarizing(1.5);
    }

    #[test]
    fn zero_trajectories_is_a_typed_error_not_a_silent_clamp() {
        let (c, params) = test_circuit();
        let mut rng = StdRng::seed_from_u64(5);
        let err =
            noisy_expectations_z(&c, &params, &[], None, NoiseModel::noiseless(), 0, &mut rng)
                .unwrap_err();
        assert_eq!(err, crate::error::QuantumError::ZeroTrajectories);
        // The RNG must be untouched: no hidden trajectory ran.
        use rand::RngCore;
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(5).next_u64());
    }
}
