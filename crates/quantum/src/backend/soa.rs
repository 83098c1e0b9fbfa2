//! Structure-of-arrays dense backend: split re/im planes for SIMD.
//!
//! [`SoaDenseBackend`] stores the register's `2^n` amplitudes as two
//! separate `Vec<f64>` planes (all real parts, then all imaginary parts)
//! instead of interleaved `C64`s. Every kernel then walks four (or eight)
//! independent unit-stride `f64` slices with branch-free loop bodies — the
//! access pattern the autovectorizer turns into packed FMA, which the
//! interleaved layout blocks behind shuffles.
//!
//! Two traversal strategies stack on top of the layout:
//!
//! * **Pair-block kernels** — every single-qubit / controlled / phase pass
//!   is decomposed into disjoint `(lo, hi)` slice pairs obtained with
//!   `split_at_mut`, so the innermost loop is pure `a[k]`/`b[k]` indexing
//!   over equal-length slices (no index arithmetic, no bounds-check
//!   residue, no branches).
//! * **Cache-blocked run execution** — [`Backend::execute_tape`] applies a
//!   run of consecutive single-qubit tape ops on *distinct* wires (they
//!   commute) one L1-sized tile at a time: each tile of amplitudes is
//!   loaded once and every op of the run is applied to it before moving on,
//!   instead of streaming the whole register from memory once per op. Only
//!   ops whose stride fits inside a tile participate; larger strides run as
//!   ordinary full passes. Tiling never reorders the ops, so the arithmetic
//!   is bit-identical to the untiled pass.
//!
//! Reordered floating-point work means results match the dense reference
//! to ~1e-15 per amplitude (property-tested at ≤ 1e-12), not bit-for-bit;
//! for a fixed backend selection, results remain fully deterministic across
//! thread counts.

use crate::backend::Backend;
use crate::complex::C64;
use crate::error::{QuantumError, Result};
use crate::state::StateVector;
use crate::tape::{CompiledTape, TapeOp};

/// Amplitudes per cache tile for run execution: 2048 amplitudes are two
/// 16 KiB planes, so one tile (re + im) fits comfortably in a 32 KiB L1d
/// alongside the loop's working set.
const TILE: usize = 1 << 11;

/// A row-major 2×2 complex matrix unpacked into scalar components, so the
/// kernel loop bodies are pure `f64` arithmetic on named lanes.
#[derive(Clone, Copy)]
struct M2 {
    r00: f64,
    i00: f64,
    r01: f64,
    i01: f64,
    r10: f64,
    i10: f64,
    r11: f64,
    i11: f64,
}

impl M2 {
    fn new(m: &[[C64; 2]; 2]) -> Self {
        M2 {
            r00: m[0][0].re,
            i00: m[0][0].im,
            r01: m[0][1].re,
            i01: m[0][1].im,
            r10: m[1][0].re,
            i10: m[1][0].im,
            r11: m[1][1].re,
            i11: m[1][1].im,
        }
    }
}

/// Applies the 2×2 matrix `m` to the amplitude pairs `(i0 + k, i1 + k)`
/// for `k in 0..len`, where the two blocks are disjoint (`i0 + len <= i1`).
/// Splitting both planes at `i1` yields four equal-length unit-stride
/// slices, which is exactly the shape the autovectorizer packs into FMA.
#[inline]
fn pair_block(re: &mut [f64], im: &mut [f64], i0: usize, i1: usize, len: usize, m: &M2) {
    debug_assert!(i0 + len <= i1);
    let (rl, rh) = re.split_at_mut(i1);
    let (il, ih) = im.split_at_mut(i1);
    let r0 = &mut rl[i0..i0 + len];
    let m0 = &mut il[i0..i0 + len];
    let r1 = &mut rh[..len];
    let m1 = &mut ih[..len];
    for k in 0..len {
        let ar = r0[k];
        let ai = m0[k];
        let br = r1[k];
        let bi = m1[k];
        r0[k] = m.r00 * ar - m.i00 * ai + m.r01 * br - m.i01 * bi;
        m0[k] = m.r00 * ai + m.i00 * ar + m.r01 * bi + m.i01 * br;
        r1[k] = m.r10 * ar - m.i10 * ai + m.r11 * br - m.i11 * bi;
        m1[k] = m.r10 * ai + m.i10 * ar + m.r11 * bi + m.i11 * br;
    }
}

/// Swaps the amplitude pairs `(i0 + k, i1 + k)` for `k in 0..len` (the CNOT
/// target flip on a half-space block).
#[inline]
fn swap_block(re: &mut [f64], im: &mut [f64], i0: usize, i1: usize, len: usize) {
    debug_assert!(i0 + len <= i1);
    let (rl, rh) = re.split_at_mut(i1);
    let (il, ih) = im.split_at_mut(i1);
    rl[i0..i0 + len].swap_with_slice(&mut rh[..len]);
    il[i0..i0 + len].swap_with_slice(&mut ih[..len]);
}

/// Multiplies the block starting at `i0` by `d0` and the block at `i1` by
/// `d1` (a controlled diagonal phase: one complex scalar per half-space).
#[inline]
fn phase_block(re: &mut [f64], im: &mut [f64], i0: usize, i1: usize, len: usize, d0: C64, d1: C64) {
    debug_assert!(i0 + len <= i1);
    let (rl, rh) = re.split_at_mut(i1);
    let (il, ih) = im.split_at_mut(i1);
    let r0 = &mut rl[i0..i0 + len];
    let m0 = &mut il[i0..i0 + len];
    let r1 = &mut rh[..len];
    let m1 = &mut ih[..len];
    for k in 0..len {
        let (ar, ai) = (r0[k], m0[k]);
        r0[k] = d0.re * ar - d0.im * ai;
        m0[k] = d0.re * ai + d0.im * ar;
        let (br, bi) = (r1[k], m1[k]);
        r1[k] = d1.re * br - d1.im * bi;
        m1[k] = d1.re * bi + d1.im * br;
    }
}

/// Dense amplitudes in structure-of-arrays form: split re/im `f64` planes
/// behind branch-free unit-stride kernels, plus cache-blocked tape
/// execution for large registers.
///
/// Pick it (`SQVAE_BACKEND=soa`, `--backend soa`,
/// `BackendKind::Soa`) when register size — not gate count — dominates:
/// at 12–14 qubits its packed-FMA forward and readout passes beat the dense
/// backend's interleaved kernels, and the gap widens with every extra
/// qubit. At the paper's 5–7-qubit patches dense trains faster.
///
/// # Examples
///
/// ```
/// use sqvae_quantum::backend::{Backend, SoaDenseBackend};
/// use sqvae_quantum::{Circuit, Param};
///
/// let mut c = Circuit::new(2)?;
/// c.ry(0, Param::Fixed(0.3))?;
/// c.cnot(0, 1)?;
/// let state: SoaDenseBackend = c.run_on(&[], &[], None)?;
/// assert_eq!(state.probabilities().len(), 4);
/// # Ok::<(), sqvae_quantum::QuantumError>(())
/// ```
#[derive(Debug)]
pub struct SoaDenseBackend {
    n_qubits: usize,
    re: Vec<f64>,
    im: Vec<f64>,
    /// Reused by the CNOT-run gather pass; not part of the logical state.
    scratch_re: Vec<f64>,
    scratch_im: Vec<f64>,
}

impl Clone for SoaDenseBackend {
    fn clone(&self) -> Self {
        // The adjoint sweep clones the ket into the bra register on the hot
        // path; the gather scratch is transient, so don't copy it.
        SoaDenseBackend {
            n_qubits: self.n_qubits,
            re: self.re.clone(),
            im: self.im.clone(),
            scratch_re: Vec::new(),
            scratch_im: Vec::new(),
        }
    }
}

impl PartialEq for SoaDenseBackend {
    fn eq(&self, other: &Self) -> bool {
        self.n_qubits == other.n_qubits && self.re == other.re && self.im == other.im
    }
}

impl SoaDenseBackend {
    /// Validates a controlled gate's wires.
    fn check_controlled(&self, control: usize, target: usize) -> Result<()> {
        self.check_wire(control)?;
        self.check_wire(target)?;
        if control == target {
            return Err(QuantumError::ControlEqualsTarget { wire: control });
        }
        Ok(())
    }

    /// Enumerates the half-space with `cbit` set and `tbit` clear as
    /// maximal unit-stride blocks, calling `f(re, im, i0, i1, len)` per
    /// block with `i1 = i0 + tmask`. Three nested loops cover the index
    /// bits above, between, and below the two fixed bits, so the inner
    /// extent is always `2^min(cbit, tbit)` contiguous amplitudes.
    fn for_each_controlled_block(
        &mut self,
        cbit: usize,
        tbit: usize,
        mut f: impl FnMut(&mut [f64], &mut [f64], usize, usize, usize),
    ) {
        let cmask = 1usize << cbit;
        let tmask = 1usize << tbit;
        let (b1, b2) = if cbit < tbit {
            (cbit, tbit)
        } else {
            (tbit, cbit)
        };
        let (s1, s2) = (1usize << b1, 1usize << b2);
        let dim = 1usize << self.n_qubits;
        let mut hi = 0;
        while hi < dim {
            let mut mid = 0;
            while mid < s2 {
                let i0 = hi + mid + cmask;
                f(&mut self.re, &mut self.im, i0, i0 + tmask, s1);
                mid += s1 << 1;
            }
            hi += s2 << 1;
        }
    }

    /// Applies a run of consecutive CNOTs.
    ///
    /// While the planes fit in L1 (`dim <= TILE`) the whole run collapses
    /// into one permutation gather through reused scratch planes
    /// (allocation-free after the first run). Larger registers take one
    /// streaming half-space swap per CNOT instead: the gather's scattered
    /// reads thrash the cache once the planes outgrow it, while
    /// `swap_with_slice` blocks stay unit-stride at every size.
    fn apply_cnot_run(&mut self, pairs: &[(usize, usize)]) -> Result<()> {
        for &(c, t) in pairs {
            self.check_controlled(c, t)?;
        }
        if pairs.len() == 1 || (1usize << self.n_qubits) > TILE {
            for &(c, t) in pairs {
                let cbit = self.bit_of_wire(c);
                let tbit = self.bit_of_wire(t);
                self.for_each_controlled_block(cbit, tbit, swap_block);
            }
            return Ok(());
        }
        let n = self.n_qubits;
        let masks: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(c, t)| (n - 1 - c, 1usize << (n - 1 - t)))
            .collect();
        let dim = 1usize << n;
        self.scratch_re.resize(dim, 0.0);
        self.scratch_im.resize(dim, 0.0);
        for i in 0..dim {
            let mut src = i;
            for &(cbit, tmask) in masks.iter().rev() {
                src ^= ((src >> cbit) & 1) * tmask;
            }
            self.scratch_re[i] = self.re[src];
            self.scratch_im[i] = self.im[src];
        }
        std::mem::swap(&mut self.re, &mut self.scratch_re);
        std::mem::swap(&mut self.im, &mut self.scratch_im);
        Ok(())
    }

    /// Applies a run of single-qubit matrices on distinct wires tile by
    /// tile: each `TILE`-amplitude window is brought into L1 once and every
    /// op of the run is applied to it before the next window streams in.
    /// Callers guarantee every `stride` satisfies `2 * stride <= tile`, so
    /// each op's pair blocks are tile-local and op order within a tile
    /// matches the untiled pass bit for bit.
    fn apply_oneq_run_tiled(&mut self, run: &[(usize, M2)]) {
        let dim = 1usize << self.n_qubits;
        let tile = TILE.min(dim);
        let mut t0 = 0;
        while t0 < dim {
            let re = &mut self.re[t0..t0 + tile];
            let im = &mut self.im[t0..t0 + tile];
            for &(stride, ref m) in run {
                let mut base = 0;
                while base < tile {
                    pair_block(re, im, base, base + stride, stride, m);
                    base += stride << 1;
                }
            }
            t0 += tile;
        }
    }

    /// The split-plane [`Backend::adjoint_block_stop`] pass: per amplitude
    /// pair of both registers, accumulate the four cross products
    /// `conj(b_a)·k_b` into scalar lanes, then overwrite both pairs with the
    /// block's fused inverse.
    fn block_stop_pass(&mut self, bra: &mut Self, stride: usize, m: &M2) -> [[C64; 2]; 2] {
        let dim = 1usize << self.n_qubits;
        // c{a}{b}{r,i}: re/im of C[a][b] = Σ conj(b_a)·k_b.
        let (mut c00r, mut c00i, mut c01r, mut c01i) = (0.0, 0.0, 0.0, 0.0);
        let (mut c10r, mut c10i, mut c11r, mut c11i) = (0.0, 0.0, 0.0, 0.0);
        let mut base = 0;
        while base < dim {
            let i1 = base + stride;
            let (krl, krh) = self.re.split_at_mut(i1);
            let (kil, kih) = self.im.split_at_mut(i1);
            let (brl, brh) = bra.re.split_at_mut(i1);
            let (bil, bih) = bra.im.split_at_mut(i1);
            let kr0 = &mut krl[base..];
            let ki0 = &mut kil[base..];
            let kr1 = &mut krh[..stride];
            let ki1 = &mut kih[..stride];
            let br0 = &mut brl[base..];
            let bi0 = &mut bil[base..];
            let br1 = &mut brh[..stride];
            let bi1 = &mut bih[..stride];
            for k in 0..stride {
                let (k0r, k0i) = (kr0[k], ki0[k]);
                let (k1r, k1i) = (kr1[k], ki1[k]);
                let (b0r, b0i) = (br0[k], bi0[k]);
                let (b1r, b1i) = (br1[k], bi1[k]);
                c00r += b0r * k0r + b0i * k0i;
                c00i += b0r * k0i - b0i * k0r;
                c01r += b0r * k1r + b0i * k1i;
                c01i += b0r * k1i - b0i * k1r;
                c10r += b1r * k0r + b1i * k0i;
                c10i += b1r * k0i - b1i * k0r;
                c11r += b1r * k1r + b1i * k1i;
                c11i += b1r * k1i - b1i * k1r;
                kr0[k] = m.r00 * k0r - m.i00 * k0i + m.r01 * k1r - m.i01 * k1i;
                ki0[k] = m.r00 * k0i + m.i00 * k0r + m.r01 * k1i + m.i01 * k1r;
                kr1[k] = m.r10 * k0r - m.i10 * k0i + m.r11 * k1r - m.i11 * k1i;
                ki1[k] = m.r10 * k0i + m.i10 * k0r + m.r11 * k1i + m.i11 * k1r;
                br0[k] = m.r00 * b0r - m.i00 * b0i + m.r01 * b1r - m.i01 * b1i;
                bi0[k] = m.r00 * b0i + m.i00 * b0r + m.r01 * b1i + m.i01 * b1r;
                br1[k] = m.r10 * b0r - m.i10 * b0i + m.r11 * b1r - m.i11 * b1i;
                bi1[k] = m.r10 * b0i + m.i10 * b0r + m.r11 * b1i + m.i11 * b1r;
            }
            base += stride << 1;
        }
        [
            [C64::new(c00r, c00i), C64::new(c01r, c01i)],
            [C64::new(c10r, c10i), C64::new(c11r, c11i)],
        ]
    }
}

impl Backend for SoaDenseBackend {
    const NAME: &'static str = "soa";

    fn zero_state(n_qubits: usize) -> Result<Self> {
        StateVector::validate_register(n_qubits)?;
        let dim = 1usize << n_qubits;
        let mut re = vec![0.0; dim];
        re[0] = 1.0;
        Ok(SoaDenseBackend {
            n_qubits,
            re,
            im: vec![0.0; dim],
            scratch_re: Vec::new(),
            scratch_im: Vec::new(),
        })
    }

    fn from_statevector(state: StateVector) -> Self {
        let n_qubits = state.n_qubits();
        let amps = state.amplitudes();
        SoaDenseBackend {
            n_qubits,
            re: amps.iter().map(|a| a.re).collect(),
            im: amps.iter().map(|a| a.im).collect(),
            scratch_re: Vec::new(),
            scratch_im: Vec::new(),
        }
    }

    fn to_statevector(&self) -> StateVector {
        let mut sv = StateVector::zero_state(self.n_qubits).expect("register validated");
        for (a, (&r, &i)) in sv
            .amps_mut()
            .iter_mut()
            .zip(self.re.iter().zip(self.im.iter()))
        {
            *a = C64 { re: r, im: i };
        }
        sv
    }

    fn into_statevector(self) -> StateVector {
        self.to_statevector()
    }

    fn reset(&mut self) {
        self.re.fill(0.0);
        self.im.fill(0.0);
        self.re[0] = 1.0;
    }

    fn release_scratch(&mut self) {
        self.scratch_re = Vec::new();
        self.scratch_im = Vec::new();
    }

    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn apply_single_qubit(&mut self, wire: usize, m: &[[C64; 2]; 2]) -> Result<()> {
        self.check_wire(wire)?;
        let stride = 1usize << self.bit_of_wire(wire);
        let m = M2::new(m);
        let dim = 1usize << self.n_qubits;
        let mut base = 0;
        while base < dim {
            pair_block(&mut self.re, &mut self.im, base, base + stride, stride, &m);
            base += stride << 1;
        }
        Ok(())
    }

    fn apply_controlled(&mut self, control: usize, target: usize, m: &[[C64; 2]; 2]) -> Result<()> {
        self.check_controlled(control, target)?;
        let cbit = self.bit_of_wire(control);
        let tbit = self.bit_of_wire(target);
        let m = M2::new(m);
        self.for_each_controlled_block(cbit, tbit, |re, im, i0, i1, len| {
            pair_block(re, im, i0, i1, len, &m);
        });
        Ok(())
    }

    fn apply_cnot(&mut self, control: usize, target: usize) -> Result<()> {
        self.check_controlled(control, target)?;
        let cbit = self.bit_of_wire(control);
        let tbit = self.bit_of_wire(target);
        self.for_each_controlled_block(cbit, tbit, swap_block);
        Ok(())
    }

    fn apply_diagonal_real(&mut self, d: &[f64]) {
        assert_eq!(d.len(), self.re.len(), "diagonal length mismatch");
        for (r, dk) in self.re.iter_mut().zip(d) {
            *r *= dk;
        }
        for (i, dk) in self.im.iter_mut().zip(d) {
            *i *= dk;
        }
    }

    fn expectation_z(&self, wire: usize) -> Result<f64> {
        self.check_wire(wire)?;
        let stride = 1usize << self.bit_of_wire(wire);
        let dim = 1usize << self.n_qubits;
        let mut acc = 0.0;
        let mut base = 0;
        while base < dim {
            let r0 = &self.re[base..base + stride];
            let i0 = &self.im[base..base + stride];
            let r1 = &self.re[base + stride..base + 2 * stride];
            let i1 = &self.im[base + stride..base + 2 * stride];
            let mut lo = 0.0;
            let mut hi = 0.0;
            for k in 0..stride {
                lo += r0[k] * r0[k] + i0[k] * i0[k];
                hi += r1[k] * r1[k] + i1[k] * i1[k];
            }
            acc += lo - hi;
            base += stride << 1;
        }
        Ok(acc)
    }

    fn expectation_diagonal(&self, d: &[f64]) -> f64 {
        assert_eq!(d.len(), self.re.len(), "diagonal length mismatch");
        let mut acc = 0.0;
        for ((r, i), dk) in self.re.iter().zip(self.im.iter()).zip(d) {
            acc += (r * r + i * i) * dk;
        }
        acc
    }

    fn probabilities(&self) -> Vec<f64> {
        self.re
            .iter()
            .zip(self.im.iter())
            .map(|(r, i)| r * r + i * i)
            .collect()
    }

    fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.re
                .iter()
                .zip(self.im.iter())
                .map(|(r, i)| r * r + i * i),
        );
    }

    fn inner(&self, other: &Self) -> C64 {
        assert_eq!(self.n_qubits, other.n_qubits, "dimension mismatch");
        let mut re = 0.0;
        let mut im = 0.0;
        for k in 0..self.re.len() {
            let (ar, ai) = (self.re[k], self.im[k]);
            let (br, bi) = (other.re[k], other.im[k]);
            re += ar * br + ai * bi;
            im += ar * bi - ai * br;
        }
        C64 { re, im }
    }

    fn apply_tape_op(&mut self, op: &TapeOp, inputs: &[f64]) -> Result<()> {
        match op {
            TapeOp::OneQ { wire, m } => self.apply_single_qubit(*wire, m),
            TapeOp::Controlled { control, target, m } => {
                Backend::apply_controlled(self, *control, *target, m)
            }
            // Controlled diagonal phases touch two amplitudes per pair with
            // one complex scalar each — no 2×2 matmul needed.
            TapeOp::Phase { control, target, d } => {
                self.check_controlled(*control, *target)?;
                let cbit = self.bit_of_wire(*control);
                let tbit = self.bit_of_wire(*target);
                let d = *d;
                self.for_each_controlled_block(cbit, tbit, |re, im, i0, i1, len| {
                    phase_block(re, im, i0, i1, len, d[0], d[1]);
                });
                Ok(())
            }
            TapeOp::CnotRun(pairs) => self.apply_cnot_run(pairs),
            TapeOp::Late { gate, index } => {
                let theta = *inputs.get(*index).ok_or(QuantumError::InputCountMismatch {
                    expected: *index + 1,
                    actual: inputs.len(),
                })?;
                gate.apply(self, theta)
            }
        }
    }

    fn execute_tape(&mut self, tape: &CompiledTape, inputs: &[f64]) -> Result<()> {
        if inputs.len() < tape.n_inputs() {
            return Err(QuantumError::InputCountMismatch {
                expected: tape.n_inputs(),
                actual: inputs.len(),
            });
        }
        let ops = tape.forward_ops();
        let tile = TILE.min(1usize << self.n_qubits);
        let mut run: Vec<(usize, M2)> = Vec::new();
        let mut i = 0;
        while i < ops.len() {
            // Collect the maximal run of consecutive single-qubit ops on
            // distinct wires whose pair blocks fit inside one tile; distinct
            // single-qubit unitaries commute, so the run can be applied
            // tile-by-tile without reordering any op relative to another.
            run.clear();
            let mut seen_wires = 0u32;
            let mut j = i;
            while let Some(TapeOp::OneQ { wire, m }) = ops.get(j) {
                let stride = 1usize << self.bit_of_wire(*wire);
                let bit = 1u32 << (*wire as u32);
                if stride << 1 > tile || seen_wires & bit != 0 {
                    break;
                }
                seen_wires |= bit;
                run.push((stride, M2::new(m)));
                j += 1;
            }
            if run.len() >= 2 {
                self.apply_oneq_run_tiled(&run);
                i = j;
            } else {
                self.apply_tape_op(&ops[i], inputs)?;
                i += 1;
            }
        }
        Ok(())
    }

    fn adjoint_block_stop(
        &mut self,
        bra: &mut Self,
        wire: usize,
        inv: &[[C64; 2]; 2],
    ) -> Result<[[C64; 2]; 2]> {
        self.check_wire(wire)?;
        debug_assert_eq!(self.n_qubits, bra.n_qubits, "ket and bra widths differ");
        let stride = 1usize << self.bit_of_wire(wire);
        Ok(self.block_stop_pass(bra, stride, &M2::new(inv)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{hadamard, pauli_x, ry_matrix, rz_matrix};

    fn assert_states_close(a: &StateVector, b: &StateVector, tol: f64) {
        assert_eq!(a.dim(), b.dim());
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, tol), "{x} != {y}");
        }
    }

    /// A dense register with every amplitude distinct and nonzero.
    fn busy_state(n: usize) -> StateVector {
        let mut s = StateVector::zero_state(n).unwrap();
        for w in 0..n {
            s.apply_single_qubit(w, &hadamard()).unwrap();
            s.apply_single_qubit(w, &ry_matrix(0.3 + 0.4 * w as f64))
                .unwrap();
            s.apply_single_qubit(w, &rz_matrix(0.2 * w as f64 + 0.1))
                .unwrap();
        }
        s
    }

    #[test]
    fn round_trips_through_statevector() {
        let dense = busy_state(4);
        let soa = SoaDenseBackend::from_statevector(dense.clone());
        assert_eq!(soa.to_statevector(), dense);
        assert_eq!(soa.clone().into_statevector(), dense);
    }

    #[test]
    fn single_qubit_matches_dense_on_every_wire() {
        for n in 1..=5 {
            for w in 0..n {
                let mut dense = busy_state(n);
                let mut soa = SoaDenseBackend::from_statevector(dense.clone());
                let m = ry_matrix(0.7 + w as f64);
                dense.apply_single_qubit(w, &m).unwrap();
                Backend::apply_single_qubit(&mut soa, w, &m).unwrap();
                assert_states_close(&dense, &soa.to_statevector(), 1e-14);
            }
        }
    }

    #[test]
    fn controlled_and_cnot_match_dense_on_every_wire_pair() {
        let m = ry_matrix(1.1);
        for n in 2..=4 {
            for c in 0..n {
                for t in 0..n {
                    if c == t {
                        continue;
                    }
                    let mut dense = busy_state(n);
                    let mut soa = SoaDenseBackend::from_statevector(dense.clone());
                    dense.apply_controlled(c, t, &m).unwrap();
                    Backend::apply_controlled(&mut soa, c, t, &m).unwrap();
                    assert_states_close(&dense, &soa.to_statevector(), 1e-14);

                    let mut dense2 = busy_state(n);
                    let mut soa2 = SoaDenseBackend::from_statevector(dense2.clone());
                    dense2.apply_cnot(c, t).unwrap();
                    Backend::apply_cnot(&mut soa2, c, t).unwrap();
                    // A CNOT only moves amplitudes: exact match.
                    assert_eq!(dense2, soa2.to_statevector());
                }
            }
        }
    }

    #[test]
    fn cnot_run_gather_matches_gate_by_gate() {
        let ring: Vec<(usize, usize)> = (0..5).map(|w| (w, (w + 1) % 5)).collect();
        let mut dense = busy_state(5);
        let mut soa = SoaDenseBackend::from_statevector(dense.clone());
        for &(c, t) in &ring {
            dense.apply_cnot(c, t).unwrap();
        }
        soa.apply_cnot_run(&ring).unwrap();
        assert_eq!(dense, soa.to_statevector());
        // The scratch planes were taken by the swap and must not leak into
        // equality or a cloned register.
        let clone = soa.clone();
        assert_eq!(clone, soa);
        // Releasing them keeps the state and frees both planes.
        assert_eq!(soa.scratch_re.len(), 32);
        soa.release_scratch();
        assert_eq!(clone, soa);
        assert_eq!(soa.scratch_re.capacity() + soa.scratch_im.capacity(), 0);
    }

    #[test]
    fn measurements_match_dense() {
        let dense = busy_state(5);
        let soa = SoaDenseBackend::from_statevector(dense.clone());
        for w in 0..5 {
            let a = dense.expectation_z(w).unwrap();
            let b = Backend::expectation_z(&soa, w).unwrap();
            assert!((a - b).abs() < 1e-13, "wire {w}: {a} vs {b}");
        }
        let d: Vec<f64> = (0..dense.dim()).map(|i| 0.1 * i as f64 - 0.4).collect();
        assert!((dense.expectation_diagonal(&d) - soa.expectation_diagonal(&d)).abs() < 1e-13);
        let pd = dense.probabilities();
        let ps = soa.probabilities();
        let mut reused = vec![0.0; 3]; // wrong size on purpose: must be replaced
        soa.probabilities_into(&mut reused);
        for ((a, b), c) in pd.iter().zip(&ps).zip(&reused) {
            assert!((a - b).abs() < 1e-15);
            assert_eq!(b, c);
        }
        let other = SoaDenseBackend::from_statevector(busy_state(5));
        let di = dense.inner(&other.to_statevector());
        let si = soa.inner(&other);
        assert!((di.re - si.re).abs() < 1e-13 && (di.im - si.im).abs() < 1e-13);
    }

    #[test]
    fn diagonal_phase_blocks_match_dense() {
        let mut dense = busy_state(3);
        let mut soa = SoaDenseBackend::from_statevector(dense.clone());
        let d: Vec<f64> = (0..8).map(|i| 1.0 - 0.05 * i as f64).collect();
        dense.apply_diagonal_real(&d);
        Backend::apply_diagonal_real(&mut soa, &d);
        assert_states_close(&dense, &soa.to_statevector(), 1e-15);
    }

    #[test]
    fn reset_and_zero_state() {
        let mut soa = SoaDenseBackend::from_statevector(busy_state(3));
        soa.reset();
        assert_eq!(soa, SoaDenseBackend::zero_state(3).unwrap());
        assert!(SoaDenseBackend::zero_state(0).is_err());
        assert_eq!(SoaDenseBackend::NAME, "soa");
    }

    #[test]
    fn kernel_errors_surface_through_the_trait() {
        let mut s = SoaDenseBackend::zero_state(2).unwrap();
        assert!(Backend::apply_single_qubit(&mut s, 5, &pauli_x()).is_err());
        assert!(Backend::apply_cnot(&mut s, 0, 0).is_err());
        assert!(Backend::apply_cnot(&mut s, 0, 5).is_err());
        assert!(Backend::apply_controlled(&mut s, 3, 0, &pauli_x()).is_err());
        assert!(s.apply_cnot_run(&[(0, 1), (1, 1)]).is_err());
    }

    #[test]
    fn tiled_run_execution_is_bit_identical_to_per_op_passes() {
        // A register big enough that several strides fit the tile and at
        // least one (wire 0) exceeds it when TILE is small relative to dim;
        // at 13 qubits dim = 8192 = 4 tiles of 2048.
        let n = 13;
        let mut c = crate::Circuit::new(n).unwrap();
        c.extend(
            crate::templates::strongly_entangling_layers(
                n,
                2,
                0,
                crate::templates::EntangleRange::Ring,
            )
            .unwrap(),
        )
        .unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|k| 0.01 * k as f64 - 1.0).collect();
        let tape = c.compile(&params).unwrap();

        let mut tiled = SoaDenseBackend::zero_state(n).unwrap();
        tiled.execute_tape(&tape, &[]).unwrap();

        // The untiled reference: every op through apply_tape_op directly.
        let mut untiled = SoaDenseBackend::zero_state(n).unwrap();
        for op in tape.forward_ops() {
            untiled.apply_tape_op(op, &[]).unwrap();
        }
        assert_eq!(tiled, untiled);
    }
}
