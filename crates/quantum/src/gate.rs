//! Gate intermediate representation.
//!
//! Gates carry [`Param`] bindings so one circuit can be re-executed with
//! different trainable parameters (`Param::Train`) and input features
//! (`Param::Input`) without rebuilding the op list — the same role PennyLane's
//! QNode plays in the paper's stack.

use crate::backend::Backend;
use crate::complex::C64;
use crate::error::{QuantumError, Result};

/// Where a gate angle comes from when the circuit is executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// A constant angle baked into the circuit.
    Fixed(f64),
    /// Index into the trainable parameter vector.
    Train(usize),
    /// Index into the input-feature vector (angle embedding).
    Input(usize),
}

impl Param {
    /// Resolves the binding against parameter and input vectors.
    #[inline]
    pub fn resolve(&self, params: &[f64], inputs: &[f64]) -> f64 {
        match *self {
            Param::Fixed(v) => v,
            Param::Train(i) => params[i],
            Param::Input(i) => inputs[i],
        }
    }
}

/// A quantum gate acting on one or two wires: the gates the paper's circuits
/// are built from.
///
/// Every circuit the models build is an amplitude or `RY` angle embedding
/// followed by strongly-entangling layers of `Rot` and a CNOT ring. The
/// fixed Paulis and the Hadamard serve the depolarizing noise model and the
/// tests. The parametrized rotations follow the PennyLane conventions used
/// by the paper: `RY(θ) = exp(-iθY/2)`, `RZ(θ) = exp(-iθZ/2)`. The
/// three-parameter rotation `R(φ, θ, ω) = RZ(ω)·RY(θ)·RZ(φ)` is expressed as
/// three consecutive single-parameter gates by
/// [`crate::circuit::Circuit::rot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Pauli-X on a wire.
    PauliX(usize),
    /// Pauli-Y on a wire.
    PauliY(usize),
    /// Pauli-Z on a wire.
    PauliZ(usize),
    /// Hadamard on a wire.
    Hadamard(usize),
    /// X-rotation `exp(-iθX/2)`.
    RX(usize, Param),
    /// Y-rotation `exp(-iθY/2)`.
    RY(usize, Param),
    /// Z-rotation `exp(-iθZ/2)`.
    RZ(usize, Param),
    /// Controlled-NOT (control, target).
    CNOT(usize, usize),
}

impl Gate {
    /// The parameter binding, when this gate is parametrized. Only the
    /// single-qubit rotations are.
    pub fn param(&self) -> Option<Param> {
        match *self {
            Gate::RX(_, p) | Gate::RY(_, p) | Gate::RZ(_, p) => Some(p),
            _ => None,
        }
    }

    /// All wires the gate touches.
    pub fn wires(&self) -> Vec<usize> {
        match *self {
            Gate::PauliX(w)
            | Gate::PauliY(w)
            | Gate::PauliZ(w)
            | Gate::Hadamard(w)
            | Gate::RX(w, _)
            | Gate::RY(w, _)
            | Gate::RZ(w, _) => vec![w],
            Gate::CNOT(c, t) => vec![c, t],
        }
    }

    /// Validates the gate's wires against a register size.
    ///
    /// # Errors
    ///
    /// Returns an error if a wire is out of range or control equals target.
    pub fn validate(&self, n_qubits: usize) -> Result<()> {
        for w in self.wires() {
            if w >= n_qubits {
                return Err(QuantumError::WireOutOfRange { wire: w, n_qubits });
            }
        }
        match *self {
            Gate::CNOT(c, t) if c == t => Err(QuantumError::ControlEqualsTarget { wire: c }),
            _ => Ok(()),
        }
    }

    /// The wire and 2×2 matrix of a single-qubit gate (with `theta` as the
    /// resolved angle), or `None` for the CNOT. The tape compiler uses this
    /// to fuse runs of adjacent single-qubit gates on one wire into a single
    /// kernel pass.
    pub fn single_qubit_matrix(&self, theta: f64) -> Option<(usize, [[C64; 2]; 2])> {
        match *self {
            Gate::PauliX(w) => Some((w, pauli_x())),
            Gate::PauliY(w) => Some((w, pauli_y())),
            Gate::PauliZ(w) => Some((w, pauli_z())),
            Gate::Hadamard(w) => Some((w, hadamard())),
            Gate::RX(w, _) => Some((w, rx_matrix(theta))),
            Gate::RY(w, _) => Some((w, ry_matrix(theta))),
            Gate::RZ(w, _) => Some((w, rz_matrix(theta))),
            Gate::CNOT(..) => None,
        }
    }

    /// The wire and Pauli generator `G` (from `U(θ) = exp(-iθG/2)`) of a
    /// rotation, or `None` for every fixed gate. The tape compiler conjugates
    /// these into the frames of adjoint rotation blocks, and the adjoint
    /// sweep contracts input rotations with them.
    pub(crate) fn single_qubit_generator(&self) -> Option<(usize, [[C64; 2]; 2])> {
        match *self {
            Gate::RX(w, _) => Some((w, pauli_x())),
            Gate::RY(w, _) => Some((w, pauli_y())),
            Gate::RZ(w, _) => Some((w, pauli_z())),
            _ => None,
        }
    }

    /// Applies the gate to `state` with `theta` as the resolved angle (ignored
    /// for non-parametrized gates). Generic over the simulator [`Backend`];
    /// plain [`crate::StateVector`] registers use the dense reference kernels.
    ///
    /// # Errors
    ///
    /// Propagates wire-validation errors from the state kernels.
    pub fn apply<B: Backend>(&self, state: &mut B, theta: f64) -> Result<()> {
        match *self {
            Gate::PauliX(w) => state.apply_single_qubit(w, &pauli_x()),
            Gate::PauliY(w) => state.apply_single_qubit(w, &pauli_y()),
            Gate::PauliZ(w) => state.apply_single_qubit(w, &pauli_z()),
            Gate::Hadamard(w) => state.apply_single_qubit(w, &hadamard()),
            Gate::RX(w, _) => state.apply_single_qubit(w, &rx_matrix(theta)),
            Gate::RY(w, _) => state.apply_single_qubit(w, &ry_matrix(theta)),
            Gate::RZ(w, _) => state.apply_single_qubit(w, &rz_matrix(theta)),
            Gate::CNOT(c, t) => state.apply_cnot(c, t),
        }
    }

    /// Applies the inverse (adjoint) of the gate.
    ///
    /// # Errors
    ///
    /// Propagates wire-validation errors from the state kernels.
    pub fn apply_inverse<B: Backend>(&self, state: &mut B, theta: f64) -> Result<()> {
        match *self {
            // Rotations invert by negating the angle.
            Gate::RX(..) | Gate::RY(..) | Gate::RZ(..) => self.apply(state, -theta),
            // Every fixed gate is self-inverse.
            Gate::PauliX(_)
            | Gate::PauliY(_)
            | Gate::PauliZ(_)
            | Gate::Hadamard(_)
            | Gate::CNOT(..) => self.apply(state, theta),
        }
    }

    /// Applies the gate's generator `G` (from `U(θ) = exp(-iθG/2)`) to
    /// `state`, in place. Used by adjoint differentiation:
    /// `dU/dθ |ψ⟩ = (-i/2)·G·U|ψ⟩`.
    ///
    /// # Errors
    ///
    /// Propagates wire-validation errors. Returns `Ok(false)` (leaving the
    /// state untouched) for non-parametrized gates.
    pub fn apply_generator<B: Backend>(&self, state: &mut B) -> Result<bool> {
        match self.single_qubit_generator() {
            Some((w, g)) => {
                state.apply_single_qubit(w, &g)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

/// Pauli-X matrix.
pub fn pauli_x() -> [[C64; 2]; 2] {
    [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]
}

/// Pauli-Y matrix.
pub fn pauli_y() -> [[C64; 2]; 2] {
    [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]]
}

/// Pauli-Z matrix.
pub fn pauli_z() -> [[C64; 2]; 2] {
    [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]]
}

/// Hadamard matrix.
pub fn hadamard() -> [[C64; 2]; 2] {
    let h = C64::real(std::f64::consts::FRAC_1_SQRT_2);
    [[h, h], [h, -h]]
}

/// `RX(θ) = exp(-iθX/2)`.
pub fn rx_matrix(theta: f64) -> [[C64; 2]; 2] {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [
        [C64::real(c), C64::new(0.0, -s)],
        [C64::new(0.0, -s), C64::real(c)],
    ]
}

/// `RY(θ) = exp(-iθY/2)`, the real rotation used by angle embedding (Fig. 3
/// of the paper lists its matrix).
pub fn ry_matrix(theta: f64) -> [[C64; 2]; 2] {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    [[C64::real(c), C64::real(-s)], [C64::real(s), C64::real(c)]]
}

/// `RZ(θ) = diag(e^{-iθ/2}, e^{iθ/2})`.
pub fn rz_matrix(theta: f64) -> [[C64; 2]; 2] {
    [
        [C64::from_polar(1.0, -theta / 2.0), C64::ZERO],
        [C64::ZERO, C64::from_polar(1.0, theta / 2.0)],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;
    use std::f64::consts::PI;

    fn fresh(n: usize) -> StateVector {
        StateVector::zero_state(n).unwrap()
    }

    #[test]
    fn param_resolution() {
        let params = [0.5, 1.5];
        let inputs = [2.5];
        assert_eq!(Param::Fixed(9.0).resolve(&params, &inputs), 9.0);
        assert_eq!(Param::Train(1).resolve(&params, &inputs), 1.5);
        assert_eq!(Param::Input(0).resolve(&params, &inputs), 2.5);
    }

    #[test]
    fn ry_pi_flips_qubit() {
        let mut s = fresh(1);
        Gate::RY(0, Param::Fixed(PI)).apply(&mut s, PI).unwrap();
        assert!((s.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ry_matches_paper_matrix() {
        // Paper Fig. 3: RY(φ) = [[cos(φ/2), -sin(φ/2)], [sin(φ/2), cos(φ/2)]].
        let m = ry_matrix(0.8);
        assert!((m[0][0].re - (0.4f64).cos()).abs() < 1e-15);
        assert!((m[0][1].re + (0.4f64).sin()).abs() < 1e-15);
        assert!((m[1][0].re - (0.4f64).sin()).abs() < 1e-15);
        assert!((m[1][1].re - (0.4f64).cos()).abs() < 1e-15);
    }

    #[test]
    fn rz_is_diagonal_phase() {
        let m = rz_matrix(1.2);
        assert!((m[0][0] - C64::from_polar(1.0, -0.6)).abs() < 1e-15);
        assert!((m[1][1] - C64::from_polar(1.0, 0.6)).abs() < 1e-15);
        assert_eq!(m[0][1], C64::ZERO);
    }

    #[test]
    fn gate_inverse_round_trips() {
        let gates = vec![
            Gate::Hadamard(0),
            Gate::RX(0, Param::Fixed(0.3)),
            Gate::RY(1, Param::Fixed(-0.7)),
            Gate::RZ(0, Param::Fixed(1.9)),
            Gate::CNOT(0, 1),
            Gate::PauliZ(0),
            Gate::PauliX(1),
            Gate::PauliY(1),
        ];
        let mut s = fresh(2);
        // Put the register into a non-trivial state first.
        Gate::Hadamard(0).apply(&mut s, 0.0).unwrap();
        Gate::RY(1, Param::Fixed(0.0)).apply(&mut s, 0.9).unwrap();
        let reference = s.clone();
        for g in &gates {
            let theta = g.param().map_or(0.0, |p| p.resolve(&[], &[]));
            g.apply(&mut s, theta).unwrap();
        }
        for g in gates.iter().rev() {
            let theta = g.param().map_or(0.0, |p| p.resolve(&[], &[]));
            g.apply_inverse(&mut s, theta).unwrap();
        }
        for (a, b) in s.amplitudes().iter().zip(reference.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12), "{a} != {b}");
        }
    }

    #[test]
    fn generator_matches_finite_difference_of_gate() {
        // dU/dθ |ψ⟩ ≈ (U(θ+ε) - U(θ-ε))|ψ⟩ / (2ε) must equal (-i/2)·G·U(θ)|ψ⟩.
        let theta = 0.77;
        let eps = 1e-6;
        for gate in [
            Gate::RX(0, Param::Fixed(theta)),
            Gate::RY(0, Param::Fixed(theta)),
            Gate::RZ(0, Param::Fixed(theta)),
        ] {
            let mut base = fresh(2);
            Gate::Hadamard(0).apply(&mut base, 0.0).unwrap();
            Gate::Hadamard(1).apply(&mut base, 0.0).unwrap();

            let mut plus = base.clone();
            gate.apply(&mut plus, theta + eps).unwrap();
            let mut minus = base.clone();
            gate.apply(&mut minus, theta - eps).unwrap();

            let mut analytic = base.clone();
            gate.apply(&mut analytic, theta).unwrap();
            assert!(gate.apply_generator(&mut analytic).unwrap());

            for i in 0..base.dim() {
                let fd = (plus.amplitude(i) - minus.amplitude(i)) / (2.0 * eps);
                let an = analytic.amplitude(i).mul_i().scale(-0.5); // (-i/2)·G·U|ψ⟩
                assert!(
                    fd.approx_eq(an, 1e-5),
                    "{gate:?} amp {i}: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn generator_is_noop_for_fixed_gates() {
        let mut s = fresh(1);
        assert!(!Gate::Hadamard(0).apply_generator(&mut s).unwrap());
        assert_eq!(s, fresh(1));
    }

    #[test]
    fn validate_rejects_bad_wires() {
        assert!(Gate::RY(3, Param::Fixed(0.0)).validate(2).is_err());
        assert!(Gate::CNOT(0, 0).validate(2).is_err());
        assert!(Gate::CNOT(0, 1).validate(2).is_ok());
    }
}
