//! Dense statevector register.
//!
//! A [`StateVector`] stores the `2^n` complex amplitudes of an `n`-qubit
//! register. Wire 0 is the **most significant** bit of the basis index, i.e.
//! basis state `|q0 q1 … q(n-1)⟩` has index `q0·2^(n-1) + … + q(n-1)`,
//! matching the PennyLane convention used by the paper.

use crate::complex::C64;
use crate::error::{QuantumError, Result};

/// Maximum register size supported (keeps memory below ~512 MiB).
pub const MAX_QUBITS: usize = 24;

/// A normalized `n`-qubit pure state in the computational basis.
///
/// # Examples
///
/// ```
/// use sqvae_quantum::StateVector;
///
/// let state = StateVector::zero_state(3).unwrap();
/// assert_eq!(state.dim(), 8);
/// assert!((state.probability(0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// Creates the all-zeros basis state `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::UnsupportedRegisterSize`] when `n_qubits` is 0
    /// or exceeds [`MAX_QUBITS`].
    pub fn zero_state(n_qubits: usize) -> Result<Self> {
        Self::validate_register(n_qubits)?;
        let mut amps = vec![C64::ZERO; 1 << n_qubits];
        amps[0] = C64::ONE;
        Ok(StateVector { n_qubits, amps })
    }

    /// Checks a register size against the simulator's supported range without
    /// allocating any amplitudes (used by [`crate::Circuit::new`] so circuits
    /// validate once at construction instead of on every run).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::UnsupportedRegisterSize`] when `n_qubits` is 0
    /// or exceeds [`MAX_QUBITS`].
    pub fn validate_register(n_qubits: usize) -> Result<()> {
        if n_qubits == 0 || n_qubits > MAX_QUBITS {
            return Err(QuantumError::UnsupportedRegisterSize { n_qubits });
        }
        Ok(())
    }

    /// Resets the register to `|0…0⟩` in place (no reallocation).
    pub fn reset(&mut self) {
        for a in &mut self.amps {
            *a = C64::ZERO;
        }
        self.amps[0] = C64::ONE;
    }

    /// Creates a state from raw amplitudes, normalizing them.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::DimensionMismatch`] if `amps.len()` is not a power of
    ///   two (or too large).
    /// * [`QuantumError::ZeroNorm`] if the amplitudes have zero norm.
    pub fn from_amplitudes(amps: Vec<C64>) -> Result<Self> {
        let dim = amps.len();
        if dim < 2 || !dim.is_power_of_two() || dim > (1 << MAX_QUBITS) {
            return Err(QuantumError::DimensionMismatch {
                expected: dim.max(2).next_power_of_two(),
                actual: dim,
            });
        }
        let n_qubits = dim.trailing_zeros() as usize;
        let mut state = StateVector { n_qubits, amps };
        state.normalize()?;
        Ok(state)
    }

    /// Number of qubits in the register.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Immutable view of the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable access to the raw amplitudes, for the adjoint block kernel
    /// and the structure-of-arrays conversion. A slice, so no caller can
    /// break the length invariant (`2^n_qubits`).
    #[inline]
    pub(crate) fn amps_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[inline]
    pub fn amplitude(&self, index: usize) -> C64 {
        self.amps[index]
    }

    /// `|⟨index|ψ⟩|²`, the probability of measuring basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[inline]
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Probabilities of all `2^n` basis states (sums to 1).
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Writes the probabilities of all `2^n` basis states into `out`,
    /// clearing it first and reusing its capacity — the allocation-free
    /// counterpart of [`StateVector::probabilities`] for per-row readout in
    /// batched paths.
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.amps.iter().map(|a| a.norm_sqr()));
    }

    /// The L2 norm of the state (1 for normalized states).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Rescales amplitudes to unit norm.
    ///
    /// Finite amplitudes of any magnitude normalize: when the plain sum of
    /// squared magnitudes is not a normal float (it overflowed, or its
    /// squares lost bits or vanished below ~1e-154), the amplitudes are
    /// first divided by the largest magnitude, which leaves their direction
    /// and brings the sum into `[1, dim]`. Amplitudes whose plain sum is
    /// normal take the plain arithmetic unchanged. Non-finite amplitudes
    /// are not checked for: they propagate into non-finite amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::ZeroNorm`] when every amplitude is zero.
    pub fn normalize(&mut self) -> Result<()> {
        let sum_sqr = |amps: &[C64]| amps.iter().map(|a| a.norm_sqr()).sum::<f64>();
        let mut sum = sum_sqr(&self.amps);
        if !sum.is_normal()
            && self
                .amps
                .iter()
                .all(|a| a.re.is_finite() && a.im.is_finite())
        {
            let max = self
                .amps
                .iter()
                .fold(0.0f64, |m, a| m.max(a.re.abs()).max(a.im.abs()));
            if max == 0.0 {
                return Err(QuantumError::ZeroNorm);
            }
            for a in &mut self.amps {
                *a = C64::new(a.re / max, a.im / max);
            }
            sum = sum_sqr(&self.amps);
        }
        let inv = 1.0 / sum.sqrt();
        for a in &mut self.amps {
            *a = a.scale(inv);
        }
        Ok(())
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.dim(), other.dim(), "inner product dimension mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Bit position (from the least significant end) of `wire`.
    #[inline]
    pub(crate) fn bit_of_wire(&self, wire: usize) -> usize {
        self.n_qubits - 1 - wire
    }

    /// Checks that `wire` addresses this register.
    pub(crate) fn check_wire(&self, wire: usize) -> Result<()> {
        if wire >= self.n_qubits {
            Err(QuantumError::WireOutOfRange {
                wire,
                n_qubits: self.n_qubits,
            })
        } else {
            Ok(())
        }
    }

    /// Applies an arbitrary single-qubit unitary `m` (row-major 2×2) to `wire`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    pub fn apply_single_qubit(&mut self, wire: usize, m: &[[C64; 2]; 2]) -> Result<()> {
        self.check_wire(wire)?;
        let bit = self.bit_of_wire(wire);
        let stride = 1usize << bit;
        let dim = self.dim();
        let mut base = 0usize;
        while base < dim {
            for offset in 0..stride {
                let i0 = base + offset;
                let i1 = i0 + stride;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[i1] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += stride << 1;
        }
        Ok(())
    }

    /// Applies a CNOT with the given control and target wires.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid wires or `control == target`.
    pub fn apply_cnot(&mut self, control: usize, target: usize) -> Result<()> {
        self.check_wire(control)?;
        self.check_wire(target)?;
        if control == target {
            return Err(QuantumError::ControlEqualsTarget { wire: control });
        }
        let cmask = 1usize << self.bit_of_wire(control);
        let tmask = 1usize << self.bit_of_wire(target);
        for i in 0..self.dim() {
            if i & cmask != 0 && i & tmask == 0 {
                let j = i | tmask;
                self.amps.swap(i, j);
            }
        }
        Ok(())
    }

    /// Multiplies each amplitude by the diagonal entries `d` (a diagonal
    /// operator application, used by the adjoint differentiation engine).
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.dim()`.
    pub fn apply_diagonal_real(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.dim(), "diagonal operator dimension mismatch");
        for (a, &x) in self.amps.iter_mut().zip(d) {
            *a = a.scale(x);
        }
    }

    /// Expectation value `⟨ψ|Z_wire|ψ⟩ ∈ [-1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    pub fn expectation_z(&self, wire: usize) -> Result<f64> {
        self.check_wire(wire)?;
        let mask = 1usize << self.bit_of_wire(wire);
        let mut e = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if i & mask == 0 {
                e += p;
            } else {
                e -= p;
            }
        }
        Ok(e)
    }

    /// Expectation of an arbitrary real diagonal observable.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != self.dim()`.
    pub fn expectation_diagonal(&self, d: &[f64]) -> f64 {
        assert_eq!(
            d.len(),
            self.dim(),
            "diagonal observable dimension mismatch"
        );
        self.amps
            .iter()
            .zip(d)
            .map(|(a, &x)| a.norm_sqr() * x)
            .sum()
    }

    /// Marginal probability distribution over a subset of wires (in the
    /// order given): entry `k` is the probability that the selected wires
    /// read the bits of `k` (first selected wire = most significant).
    ///
    /// Useful for inspecting patched sub-circuits and latent registers.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    pub fn marginal_probabilities(&self, wires: &[usize]) -> Result<Vec<f64>> {
        for &w in wires {
            self.check_wire(w)?;
        }
        let mut out = vec![0.0; 1 << wires.len()];
        for (i, a) in self.amps.iter().enumerate() {
            let mut k = 0usize;
            for &w in wires {
                k <<= 1;
                if i & (1 << self.bit_of_wire(w)) != 0 {
                    k |= 1;
                }
            }
            out[k] += a.norm_sqr();
        }
        Ok(out)
    }

    /// Draws `shots` computational-basis measurement outcomes from the
    /// state's probability distribution (inverse-CDF sampling).
    ///
    /// The cumulative distribution is precomputed once and each draw is a
    /// binary search, so sampling costs `O(dim + shots·log dim)` instead of
    /// the naive `O(shots·dim)` linear scan. The RNG stream consumption is
    /// identical to the scan (one uniform draw per shot), so the sampler is
    /// fully deterministic per seed. Outcomes match the scan except for
    /// draws landing inside the floating-point rounding gap of a bin
    /// boundary (the scan subtracts probabilities sequentially, the CDF
    /// accumulates them — a measure-≈0 event; the seed tests pin agreement
    /// on reference states).
    ///
    /// This models the finite-shot readout of real hardware; the rest of
    /// the reproduction uses exact expectations, as the paper's simulator
    /// does.
    pub fn sample_measurements(&self, shots: usize, rng: &mut impl rand::Rng) -> Vec<usize> {
        let mut cdf = Vec::with_capacity(self.dim());
        let mut acc = 0.0;
        for a in &self.amps {
            acc += a.norm_sqr();
            cdf.push(acc);
        }
        let last = self.dim() - 1;
        (0..shots)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                // First index with u < cdf[i]; a numerical remainder beyond
                // the final cumulative sum lands on the last state, exactly
                // as the linear scan's fallback did.
                cdf.partition_point(|&c| c <= u).min(last)
            })
            .collect()
    }

    /// Shot-based estimate of `⟨Z_wire⟩` from `shots` samples.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    pub fn estimate_expectation_z(
        &self,
        wire: usize,
        shots: usize,
        rng: &mut impl rand::Rng,
    ) -> Result<f64> {
        self.check_wire(wire)?;
        let mask = 1usize << self.bit_of_wire(wire);
        let outcomes = self.sample_measurements(shots, rng);
        let plus = outcomes.iter().filter(|&&o| o & mask == 0).count();
        Ok((2 * plus) as f64 / shots.max(1) as f64 - 1.0)
    }

    /// Variance of the Pauli-Z observable on `wire`: `1 - ⟨Z⟩²`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::WireOutOfRange`] for an invalid wire.
    pub fn variance_z(&self, wire: usize) -> Result<f64> {
        let e = self.expectation_z(wire)?;
        Ok(1.0 - e * e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn h_matrix() -> [[C64; 2]; 2] {
        let h = C64::real(FRAC_1_SQRT_2);
        [[h, h], [h, -h]]
    }

    #[test]
    fn zero_state_is_basis_zero() {
        let s = StateVector::zero_state(2).unwrap();
        assert_eq!(s.amplitude(0), C64::ONE);
        assert_eq!(s.probabilities(), vec![1.0, 0.0, 0.0, 0.0]);
        assert!((s.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rejects_bad_register_sizes() {
        assert!(StateVector::zero_state(0).is_err());
        assert!(StateVector::zero_state(MAX_QUBITS + 1).is_err());
    }

    #[test]
    fn from_amplitudes_normalizes() {
        let s = StateVector::from_amplitudes(vec![C64::real(3.0), C64::real(4.0)]).unwrap();
        assert!((s.probability(0) - 9.0 / 25.0).abs() < 1e-12);
        assert!((s.probability(1) - 16.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn from_amplitudes_rejects_non_power_of_two() {
        let v = vec![C64::ONE; 3];
        assert!(StateVector::from_amplitudes(v).is_err());
    }

    #[test]
    fn from_amplitudes_rejects_zero_vector() {
        let v = vec![C64::ZERO; 4];
        assert_eq!(
            StateVector::from_amplitudes(v).unwrap_err(),
            QuantumError::ZeroNorm
        );
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut s = StateVector::zero_state(1).unwrap();
        s.apply_single_qubit(0, &h_matrix()).unwrap();
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wire_zero_is_most_significant() {
        // Flip wire 0 of a 2-qubit register with X: |00> -> |10> = index 2.
        let x = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];
        let mut s = StateVector::zero_state(2).unwrap();
        s.apply_single_qubit(0, &x).unwrap();
        assert!((s.probability(0b10) - 1.0).abs() < 1e-12);
        // Flip wire 1: |00> -> |01> = index 1.
        let mut s = StateVector::zero_state(2).unwrap();
        s.apply_single_qubit(1, &x).unwrap();
        assert!((s.probability(0b01) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cnot_entangles_bell_state() {
        let mut s = StateVector::zero_state(2).unwrap();
        s.apply_single_qubit(0, &h_matrix()).unwrap();
        s.apply_cnot(0, 1).unwrap();
        assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(s.probability(0b01) < 1e-12);
        assert!(s.probability(0b10) < 1e-12);
    }

    #[test]
    fn cnot_rejects_same_wires() {
        let mut s = StateVector::zero_state(2).unwrap();
        assert!(matches!(
            s.apply_cnot(1, 1),
            Err(QuantumError::ControlEqualsTarget { wire: 1 })
        ));
    }

    #[test]
    fn expectation_z_on_basis_states() {
        let s = StateVector::zero_state(2).unwrap();
        assert!((s.expectation_z(0).unwrap() - 1.0).abs() < 1e-12);
        let x = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];
        let mut s = StateVector::zero_state(2).unwrap();
        s.apply_single_qubit(1, &x).unwrap();
        assert!((s.expectation_z(1).unwrap() + 1.0).abs() < 1e-12);
        assert!((s.expectation_z(0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_z_of_superposition_is_zero() {
        let mut s = StateVector::zero_state(1).unwrap();
        s.apply_single_qubit(0, &h_matrix()).unwrap();
        assert!(s.expectation_z(0).unwrap().abs() < 1e-12);
        assert!((s.variance_z(0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_diagonal_matches_z() {
        let mut s = StateVector::zero_state(2).unwrap();
        s.apply_single_qubit(0, &h_matrix()).unwrap();
        s.apply_cnot(0, 1).unwrap();
        // Z on wire 0 has diagonal (+1, +1, -1, -1).
        let d = vec![1.0, 1.0, -1.0, -1.0];
        let ez = s.expectation_z(0).unwrap();
        assert!((s.expectation_diagonal(&d) - ez).abs() < 1e-12);
    }

    #[test]
    fn inner_product_of_orthogonal_states() {
        let s0 = StateVector::zero_state(1).unwrap();
        let x = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];
        let mut s1 = StateVector::zero_state(1).unwrap();
        s1.apply_single_qubit(0, &x).unwrap();
        assert!(s0.inner(&s1).abs() < 1e-12);
        assert!((s0.inner(&s0) - C64::ONE).abs() < 1e-12);
    }

    #[test]
    fn marginal_probabilities_of_bell_state() {
        let mut s = StateVector::zero_state(2).unwrap();
        s.apply_single_qubit(0, &h_matrix()).unwrap();
        s.apply_cnot(0, 1).unwrap();
        // Each single wire is maximally mixed.
        for w in 0..2 {
            let m = s.marginal_probabilities(&[w]).unwrap();
            assert!((m[0] - 0.5).abs() < 1e-12);
            assert!((m[1] - 0.5).abs() < 1e-12);
        }
        // Both wires jointly recover the full distribution.
        let m = s.marginal_probabilities(&[0, 1]).unwrap();
        assert!((m[0] - 0.5).abs() < 1e-12);
        assert!((m[3] - 0.5).abs() < 1e-12);
        // Reversed wire order permutes the basis consistently.
        let r = s.marginal_probabilities(&[1, 0]).unwrap();
        assert_eq!(m, r); // Bell state is symmetric
        assert!(s.marginal_probabilities(&[5]).is_err());
    }

    #[test]
    fn marginals_sum_to_one_on_product_states() {
        let mut s = StateVector::zero_state(3).unwrap();
        s.apply_single_qubit(1, &h_matrix()).unwrap();
        let m = s.marginal_probabilities(&[1, 2]).unwrap();
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((m[0b00] - 0.5).abs() < 1e-12);
        assert!((m[0b10] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unitaries_preserve_norm() {
        let mut s = StateVector::from_amplitudes(vec![
            C64::new(0.3, 0.1),
            C64::new(-0.2, 0.4),
            C64::new(0.5, -0.5),
            C64::new(0.1, 0.2),
        ])
        .unwrap();
        s.apply_single_qubit(1, &h_matrix()).unwrap();
        s.apply_cnot(1, 0).unwrap();
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }
}
