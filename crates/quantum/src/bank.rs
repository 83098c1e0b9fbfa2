//! Batch-major register banks: the rows of one circuit as lanes of one
//! register.
//!
//! Every row of a batch replays the same [`CompiledTape`]; only the embedded
//! inputs differ. A [`RegisterBank`] stores `R` such rows of an `n`-qubit
//! register as the lanes of one batch-major register: `re`/`im` planes
//! indexed `[amplitude · R + lane]`. Every kernel's inner loop then runs over
//! lanes with unit stride, whatever the wire:
//!
//! * a fused [`TapeOp::OneQ`] op, a block inverse or an unapplied segment
//!   applies one 2×2 matrix over the contiguous `stride · R` span of each
//!   half-block;
//! * an input rotation applies one matrix per lane, read from lane-length
//!   matrix planes (a one-lane bank takes the uniform kernel with its
//!   lane's matrix);
//! * a [`TapeOp::CnotRun`] is one basis permutation, gathered in `R`-length
//!   blocks through scratch planes (the permutation is kept while the same
//!   run repeats, as a template's entangling rings do);
//! * `⟨Z⟩` accumulates per lane;
//! * every stop of the adjoint sweep, trainable block or input rotation,
//!   runs one kernel: it un-applies each lane's inverse, read from the
//!   same eight lane-length matrix planes (a block stop broadcasts its one
//!   inverse into them), and accumulates each lane's 2×2 cross matrix in
//!   eight more lane-length planes (a one-lane bank keeps it in locals,
//!   as the per-row kernel does).
//!
//! **Bits are the contract.** Each lane does exactly the `f64` operations
//! [`StateVector`] does on that row, in the same order: complex products
//! grouped as `(m00·a0) + (m01·a1)`, zero matrix entries multiplied like any
//! other, no fused multiply-adds. A lane's amplitudes, readouts and
//! gradients are therefore bit-identical to the per-row simulator's, for
//! any lane count, and lanes never read each other. The adjoint sweep over a
//! bank lives beside the per-row sweep, in
//! [`crate::grad::adjoint::backward_expectations_z_bank`] and
//! [`crate::grad::adjoint::backward_probabilities_bank`]; its bra build and
//! gradient contraction are lane loops as well.
//!
//! **Wide lanes, same bits.** Every lane-loop kernel (the uniform and
//! per-lane matrix kernels, the CNOT gather, the `⟨Z⟩` sums, the stop
//! kernel and the one-lane stop) is compiled twice from one body: for the
//! build's target and, on x86-64, with AVX2 enabled. Each call runs the
//! AVX2 form when
//! `std::arch::is_x86_feature_detected!("avx2")` reports it, four `f64`
//! per instruction where baseline x86-64 has two; other CPUs and
//! architectures run the portable form. The bits do not depend on which
//! form runs: a lane's operations are the same `f64` operations in the
//! same order in both, the AVX2 form does not enable FMA, and Rust never
//! contracts a multiply and an add on its own. The tests compare each
//! kernel's two forms bit for bit.
//!
//! Working storage (gather planes, lane matrices, accumulators, the sweep's
//! bra, upstream planes and gradient plane) lives in a [`BankScratch`] the
//! caller owns, so a thread running many banks allocates it once.
//!
//! # Examples
//!
//! ```
//! use sqvae_quantum::{BankScratch, Circuit, Param, RegisterBank};
//!
//! let mut c = Circuit::new(2)?;
//! c.ry(0, Param::Input(0))?;
//! c.cnot(0, 1)?;
//! let tape = c.compile_forward(&[])?;
//!
//! // Three rows of the batch run as the three lanes of one bank.
//! let rows: [&[f64]; 3] = [&[0.0], &[std::f64::consts::PI], &[1.0]];
//! let mut bank = RegisterBank::zero_state(2, rows.len())?;
//! let mut scratch = BankScratch::default();
//! bank.execute_tape(&tape, &rows, &mut scratch)?;
//! let mut z = Vec::new();
//! bank.expectations_z_into(&mut z, &mut scratch);
//! assert_eq!(z.len(), 3 * 2); // lane-major: ⟨Z_0⟩, ⟨Z_1⟩ per lane
//! assert!((z[0] - 1.0).abs() < 1e-12 && (z[2] + 1.0).abs() < 1e-12);
//! # Ok::<(), sqvae_quantum::QuantumError>(())
//! ```

use crate::complex::C64;
use crate::error::{QuantumError, Result};
use crate::gate::Gate;
use crate::state::StateVector;
use crate::tape::{CompiledTape, TapeOp};

/// A 2×2 complex matrix flattened as `[m00.re, m00.im, m01.re, m01.im,
/// m10.re, m10.im, m11.re, m11.im]`.
type Flat = [f64; 8];

fn flat(m: &[[C64; 2]; 2]) -> Flat {
    [
        m[0][0].re, m[0][0].im, m[0][1].re, m[0][1].im, m[1][0].re, m[1][0].im, m[1][1].re,
        m[1][1].im,
    ]
}

/// `R` rows of one `n`-qubit register, stored batch-major as the lanes of
/// one register (see the [module docs](self)).
///
/// A new bank holds `|0…0⟩` in every lane; [`RegisterBank::set_lane`]
/// loads an embedded state into one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterBank {
    n_qubits: usize,
    lanes: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl RegisterBank {
    /// A bank of `lanes` registers of `n_qubits` wires, each `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::UnsupportedRegisterSize`] when `n_qubits` is
    /// 0 or exceeds [`crate::MAX_QUBITS`].
    pub fn zero_state(n_qubits: usize, lanes: usize) -> Result<Self> {
        let mut bank = RegisterBank::empty();
        bank.reset(n_qubits, lanes)?;
        Ok(bank)
    }

    /// A bank with no storage, for scratch that is sized before use.
    fn empty() -> Self {
        RegisterBank {
            n_qubits: 0,
            lanes: 0,
            re: Vec::new(),
            im: Vec::new(),
        }
    }

    /// Resizes the bank to `lanes` registers of `n_qubits` wires and resets
    /// every lane to `|0…0⟩`, reusing the planes' storage.
    ///
    /// # Errors
    ///
    /// See [`RegisterBank::zero_state`]; the bank is unchanged on error.
    pub fn reset(&mut self, n_qubits: usize, lanes: usize) -> Result<()> {
        StateVector::validate_register(n_qubits)?;
        let len = lanes << n_qubits;
        for plane in [&mut self.re, &mut self.im] {
            plane.clear();
            plane.resize(len, 0.0);
        }
        self.re[..lanes].fill(1.0);
        self.n_qubits = n_qubits;
        self.lanes = lanes;
        Ok(())
    }

    /// Number of qubits of every lane.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of lanes (rows) in the bank.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Hilbert-space dimension `2^n` of every lane.
    #[inline]
    pub fn dim(&self) -> usize {
        1 << self.n_qubits
    }

    /// Copies `state` into lane `lane`, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::DimensionMismatch`] when `state` has another
    /// width than the bank's lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn set_lane(&mut self, lane: usize, state: &StateVector) -> Result<()> {
        assert!(
            lane < self.lanes,
            "lane {lane} of a {}-lane bank",
            self.lanes
        );
        if state.n_qubits() != self.n_qubits {
            return Err(QuantumError::DimensionMismatch {
                expected: self.dim(),
                actual: state.dim(),
            });
        }
        for (i, a) in state.amplitudes().iter().enumerate() {
            self.re[i * self.lanes + lane] = a.re;
            self.im[i * self.lanes + lane] = a.im;
        }
        Ok(())
    }

    /// Lane `lane` as a dense register, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn lane(&self, lane: usize) -> StateVector {
        assert!(
            lane < self.lanes,
            "lane {lane} of a {}-lane bank",
            self.lanes
        );
        let mut state = StateVector::zero_state(self.n_qubits).expect("a bank's width is valid");
        for (i, a) in state.amps_mut().iter_mut().enumerate() {
            *a = C64::new(
                self.re[i * self.lanes + lane],
                self.im[i * self.lanes + lane],
            );
        }
        state
    }

    /// Executes `tape`'s forward program on every lane: lane `l` resolves
    /// the tape's late-bound slots from `inputs[l]`.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::DimensionMismatch`] when the tape has another width
    ///   than the bank, or `inputs` does not hold one slice per lane.
    /// * [`QuantumError::InputCountMismatch`] when a lane's inputs are
    ///   shorter than the tape's late-bound slots reference.
    ///
    /// Both are checked before any op runs.
    pub fn execute_tape(
        &mut self,
        tape: &CompiledTape,
        inputs: &[&[f64]],
        scratch: &mut BankScratch,
    ) -> Result<()> {
        self.check_tape(tape)?;
        self.check_inputs(inputs, tape.n_inputs())?;
        for op in tape.forward_ops() {
            self.apply_op(op, inputs, &mut scratch.work)?;
        }
        Ok(())
    }

    /// Writes `⟨Z_w⟩` of every wire of every lane into `out` (cleared
    /// first, capacity reused), lane-major: lane `l`'s values are
    /// `out[l·n..(l + 1)·n]`.
    pub fn expectations_z_into(&self, out: &mut Vec<f64>, scratch: &mut BankScratch) {
        let (n, lanes) = (self.n_qubits, self.lanes);
        let acc = &mut scratch.work.acc;
        acc.clear();
        acc.resize((n + 1) * lanes, 0.0);
        let (z, p) = acc.split_at_mut(n * lanes);
        z_sums(&self.re, &self.im, n, lanes, z, p);
        out.clear();
        out.extend((0..lanes * n).map(|j| z[(j % n) * lanes + j / n]));
    }

    /// Writes every lane's `2^n` basis-state probabilities into `out`
    /// (cleared first, capacity reused), lane-major: lane `l`'s values are
    /// `out[l·2^n..(l + 1)·2^n]`.
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        let (dim, lanes) = (self.dim(), self.lanes);
        out.clear();
        out.resize(dim * lanes, 0.0);
        for (i, (re, im)) in self
            .re
            .chunks_exact(lanes.max(1))
            .zip(self.im.chunks_exact(lanes.max(1)))
            .enumerate()
        {
            for (l, (r, m)) in re.iter().zip(im).enumerate() {
                out[l * dim + i] = r * r + m * m;
            }
        }
    }

    /// Checks that `tape` runs on this bank's width.
    pub(crate) fn check_tape(&self, tape: &CompiledTape) -> Result<()> {
        if tape.n_qubits() != self.n_qubits {
            return Err(QuantumError::DimensionMismatch {
                expected: 1 << tape.n_qubits(),
                actual: self.dim(),
            });
        }
        Ok(())
    }

    /// Checks that `inputs` holds one slice per lane, each at least
    /// `n_inputs` long.
    pub(crate) fn check_inputs(&self, inputs: &[&[f64]], n_inputs: usize) -> Result<()> {
        check_lane_count(inputs.len(), self.lanes)?;
        match inputs.iter().find(|row| row.len() < n_inputs) {
            Some(row) => Err(QuantumError::InputCountMismatch {
                expected: n_inputs,
                actual: row.len(),
            }),
            None => Ok(()),
        }
    }

    /// The distance between the two amplitudes `wire` pairs, in amplitudes.
    fn stride(&self, wire: usize) -> Result<usize> {
        if wire >= self.n_qubits {
            return Err(QuantumError::WireOutOfRange {
                wire,
                n_qubits: self.n_qubits,
            });
        }
        Ok(1 << (self.n_qubits - 1 - wire))
    }

    /// Applies one tape op to every lane; a late-bound slot reads lane
    /// `l`'s angle from `inputs[l]`.
    pub(crate) fn apply_op(
        &mut self,
        op: &TapeOp,
        inputs: &[&[f64]],
        work: &mut Work,
    ) -> Result<()> {
        match op {
            TapeOp::OneQ { wire, m } => {
                let half = self.stride(*wire)? * self.lanes;
                one_q(&mut self.re, &mut self.im, half, &flat(m));
            }
            TapeOp::CnotRun(pairs) => self.cnot_run(pairs, work)?,
            TapeOp::Late { gate, index } => {
                let wire = work.lane_matrices(gate, *index, inputs, false)?;
                let s = self.stride(wire)?;
                match self.lanes {
                    0 => {}
                    1 => one_q(&mut self.re, &mut self.im, s, &work.lane_matrix(0)),
                    lanes => lane_q(&mut self.re, &mut self.im, s, lanes, &work.m),
                }
            }
        }
        Ok(())
    }

    /// Applies a run of CNOTs as one basis permutation: destination
    /// amplitude `i` gathers the `R`-lane block of its source amplitude,
    /// the composition of the run's swaps read backwards. The permutation
    /// is kept for the next run: a template's entangling rings, and a
    /// sweep's ket and bra, repeat the same run.
    fn cnot_run(&mut self, pairs: &[(usize, usize)], work: &mut Work) -> Result<()> {
        for &(c, t) in pairs {
            self.stride(c)?;
            self.stride(t)?;
            if c == t {
                return Err(QuantumError::ControlEqualsTarget { wire: c });
            }
        }
        let n = self.n_qubits;
        if work.perm_of.0 != n || work.perm_of.1 != pairs {
            work.perm_of.0 = n;
            work.perm_of.1.clear();
            work.perm_of.1.extend_from_slice(pairs);
            work.perm.clear();
            work.perm.extend((0..1usize << n).map(|i| {
                pairs.iter().rev().fold(i, |j, &(c, t)| {
                    if j & (1 << (n - 1 - c)) != 0 {
                        j ^ (1 << (n - 1 - t))
                    } else {
                        j
                    }
                })
            }));
        }
        let lanes = self.lanes;
        for (plane, gather) in [
            (&mut self.re, &mut work.gather_re),
            (&mut self.im, &mut work.gather_im),
        ] {
            gather.resize(plane.len(), 0.0);
            permute(plane, gather, &work.perm, lanes);
            std::mem::swap(plane, gather);
        }
        Ok(())
    }

    /// One block stop of the adjoint sweep over every lane (`self` is the
    /// ket): broadcasts `inv` into `work`'s lane matrix planes and runs
    /// [`stop`], which accumulates each lane's 2×2 cross matrix into `work`
    /// (read it with [`Work::cross_planes`]) and un-applies `inv` from both
    /// banks in the same pass, exactly as the per-row kernel does.
    pub(crate) fn block_stop(
        &mut self,
        bra: &mut RegisterBank,
        wire: usize,
        inv: &[[C64; 2]; 2],
        work: &mut Work,
    ) -> Result<()> {
        let s = self.stride(wire)?;
        work.broadcast(&flat(inv), self.lanes);
        stop(self, bra, s, work);
        Ok(())
    }

    /// A block stop at an input rotation: like
    /// [`RegisterBank::block_stop`], but lane `l` un-applies `gate` at its
    /// own angle `-inputs[l][index]`.
    pub(crate) fn input_stop(
        &mut self,
        bra: &mut RegisterBank,
        gate: &Gate,
        index: usize,
        inputs: &[&[f64]],
        work: &mut Work,
    ) -> Result<()> {
        let wire = work.lane_matrices(gate, index, inputs, true)?;
        let s = self.stride(wire)?;
        stop(self, bra, s, work);
        Ok(())
    }

    /// Makes `self` the bra of an adjoint sweep: `ket`'s lanes, each
    /// amplitude scaled by its lane's diagonal entry, as
    /// [`StateVector::apply_diagonal_real`] scales one row. For every
    /// amplitude `i`, `entries(i, d)` writes each lane's entry into the
    /// lane-length plane `d`; the ket is scaled into the bra in the same
    /// pass.
    pub(crate) fn scaled_from(
        &mut self,
        ket: &RegisterBank,
        d: &mut Vec<f64>,
        entries: impl Fn(usize, &mut [f64]),
    ) {
        let lanes = ket.lanes;
        self.n_qubits = ket.n_qubits;
        self.lanes = lanes;
        self.re.resize(ket.re.len(), 0.0);
        self.im.resize(ket.im.len(), 0.0);
        d.clear();
        d.resize(lanes, 0.0);
        // A literal lane count runs one lane's entries and products as
        // scalars.
        match lanes {
            0 => {}
            1 => scale_lanes(self, ket, &mut d[..1], entries),
            _ => scale_lanes(self, ket, &mut d[..lanes], entries),
        }
    }
}

/// [`RegisterBank::scaled_from`]'s loop, for `d.len()` lanes, at least one.
#[inline(always)]
fn scale_lanes(
    bra: &mut RegisterBank,
    ket: &RegisterBank,
    d: &mut [f64],
    entries: impl Fn(usize, &mut [f64]),
) {
    let lanes = d.len();
    let amplitudes = bra
        .re
        .chunks_exact_mut(lanes)
        .zip(bra.im.chunks_exact_mut(lanes))
        .zip(ket.re.chunks_exact(lanes).zip(ket.im.chunks_exact(lanes)));
    for (i, ((br, bi), (kr, ki))) in amplitudes.enumerate() {
        entries(i, d);
        for (((br, bi), (kr, ki)), d) in br.iter_mut().zip(bi).zip(kr.iter().zip(ki)).zip(&*d) {
            *br = kr * d;
            *bi = ki * d;
        }
    }
}

/// Checks that a per-lane argument holds one entry per lane.
pub(crate) fn check_lane_count(got: usize, lanes: usize) -> Result<()> {
    if got != lanes {
        return Err(QuantumError::DimensionMismatch {
            expected: lanes,
            actual: got,
        });
    }
    Ok(())
}

/// Reusable working storage for [`RegisterBank`] kernels and the bank
/// adjoint sweep, one per thread. Between calls it carries only capacity
/// and the last CNOT run's permutation, kept with the run it was computed
/// for, so no result depends on what an earlier call left in it.
#[derive(Debug)]
pub struct BankScratch {
    pub(crate) work: Work,
    /// The sweep's bra bank.
    pub(crate) bra: RegisterBank,
    /// The sweep's upstream rows, transposed into lane-length planes.
    pub(crate) up: Vec<f64>,
    /// One amplitude's upstream-weighted diagonal entries, one per lane.
    pub(crate) diag: Vec<f64>,
    /// The sweep's gradients, parameter-major: gradient `k` of lane `l` at
    /// `[k · R + lane]`.
    pub(crate) grads: Vec<f64>,
}

impl Default for BankScratch {
    fn default() -> Self {
        BankScratch {
            work: Work::default(),
            bra: RegisterBank::empty(),
            up: Vec::new(),
            diag: Vec::new(),
            grads: Vec::new(),
        }
    }
}

/// The kernels' working planes.
#[derive(Debug, Default)]
pub(crate) struct Work {
    /// Planes a CNOT run gathers into, then swaps with the bank's.
    gather_re: Vec<f64>,
    gather_im: Vec<f64>,
    /// Source amplitude of every destination amplitude of a CNOT run.
    perm: Vec<usize>,
    /// The register width and the run `perm` was computed for.
    perm_of: (usize, Vec<(usize, usize)>),
    /// Per-lane matrices of an input rotation or of a stop: eight
    /// lane-length planes, one per [`Flat`] entry, back to back.
    m: Vec<f64>,
    /// A stop's cross-matrix accumulators, laid out like `m`; the
    /// `⟨Z⟩` readout keeps its per-wire sums and probabilities here.
    acc: Vec<f64>,
}

/// The eight lane-length planes of `v`.
fn planes(v: &[f64], lanes: usize) -> [&[f64]; 8] {
    let mut it = v.chunks_exact(lanes);
    std::array::from_fn(|_| it.next().expect("eight planes"))
}

/// The eight lane-length planes of `v`, mutably.
fn planes_mut(v: &mut [f64], lanes: usize) -> [&mut [f64]; 8] {
    let mut it = v.chunks_exact_mut(lanes);
    std::array::from_fn(|_| it.next().expect("eight planes"))
}

impl Work {
    /// Fills the lane matrix planes with `gate` at lane `l`'s angle
    /// `inputs[l][index]`, or with its inverse at the negated angle, and
    /// returns the gate's wire.
    fn lane_matrices(
        &mut self,
        gate: &Gate,
        index: usize,
        inputs: &[&[f64]],
        inverse: bool,
    ) -> Result<usize> {
        let lanes = inputs.len();
        let mut wire = 0;
        self.m.clear();
        self.m.resize(8 * lanes, 0.0);
        for (l, row) in inputs.iter().enumerate() {
            let theta = *row.get(index).ok_or(QuantumError::InputCountMismatch {
                expected: index + 1,
                actual: row.len(),
            })?;
            let theta = if inverse { -theta } else { theta };
            let (w, m) = gate
                .single_qubit_matrix(theta)
                .expect("late-bound gates are single-qubit rotations");
            wire = w;
            for (k, v) in flat(&m).into_iter().enumerate() {
                self.m[k * lanes + l] = v;
            }
        }
        Ok(wire)
    }

    /// Fills the lane matrix planes with `m` for each of `lanes` lanes.
    fn broadcast(&mut self, m: &Flat, lanes: usize) {
        self.m.clear();
        for &v in m {
            self.m.extend(std::iter::repeat(v).take(lanes));
        }
    }

    /// Lane `lane`'s matrix from the lane matrix planes.
    fn lane_matrix(&self, lane: usize) -> Flat {
        let lanes = self.m.len() / 8;
        std::array::from_fn(|k| self.m[k * lanes + lane])
    }

    /// The cross-matrix planes of the last stop over `lanes` lanes, at
    /// least one (each laid out like a [`Flat`] entry).
    pub(crate) fn cross_planes(&self, lanes: usize) -> [&[f64]; 8] {
        planes(&self.acc, lanes)
    }
}

/// `m·(a0, a1)` for one amplitude pair, grouped as the dense kernel groups
/// it: `(m00·a0) + (m01·a1)`, each product `re·re − im·im`, `re·im + im·re`.
#[inline(always)]
fn mul2(m: &Flat, a0r: f64, a0i: f64, a1r: f64, a1i: f64) -> [f64; 4] {
    [
        (m[0] * a0r - m[1] * a0i) + (m[2] * a1r - m[3] * a1i),
        (m[0] * a0i + m[1] * a0r) + (m[2] * a1i + m[3] * a1r),
        (m[4] * a0r - m[5] * a0i) + (m[6] * a1r - m[7] * a1i),
        (m[4] * a0i + m[5] * a0r) + (m[6] * a1i + m[7] * a1r),
    ]
}

/// Defines a lane-loop kernel from one body, compiled twice:
/// `$name::portable` for the build's target and, on x86-64, `$name::avx2`
/// with AVX2 enabled. `$name` runs `avx2` when the CPU reports AVX2 and
/// `portable` otherwise, one call either way: each plane stays its own
/// argument, so the compiler knows none overlaps another and vectorizes
/// the lane loops (inlined into a caller's loop, the portable block stop
/// lost that). `avx2` enables exactly AVX2, not FMA, and Rust never
/// contracts a multiply and an add on its own, so both forms do each
/// lane's `f64` operations in the same order and give the same bits; only
/// the vector width differs.
macro_rules! kernel {
    ($(#[$attr:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        mod $name {
            use super::*;

            $(#[$attr])*
            #[inline(never)]
            pub(super) fn portable($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            $(#[$attr])*
            #[target_feature(enable = "avx2")]
            pub(super) fn avx2($($arg: $ty),*) $body
        }

        $(#[$attr])*
        #[inline(always)]
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `avx2` requires only the AVX2 instructions, and
                // the CPU has just reported them.
                return unsafe { $name::avx2($($arg),*) };
            }
            $name::portable($($arg),*)
        }
    };
}

kernel! {
    /// Applies one matrix to every lane: each block of `2·half` values pairs
    /// its lower `half` with its upper `half`, element by element.
    fn one_q(re: &mut [f64], im: &mut [f64], half: usize, m: &Flat) {
        if half == 0 {
            return;
        }
        for (rc, ic) in re
            .chunks_exact_mut(2 * half)
            .zip(im.chunks_exact_mut(2 * half))
        {
            let (r0, r1) = rc.split_at_mut(half);
            let (i0, i1) = ic.split_at_mut(half);
            for (((r0, i0), r1), i1) in r0.iter_mut().zip(i0).zip(r1).zip(i1) {
                [*r0, *i0, *r1, *i1] = mul2(m, *r0, *i0, *r1, *i1);
            }
        }
    }
}

kernel! {
    /// Applies lane `l`'s matrix (from the eight planes in `m`) to lane `l`,
    /// for amplitude pairs `stride` apart.
    fn lane_q(re: &mut [f64], im: &mut [f64], stride: usize, lanes: usize, m: &[f64]) {
        let m = planes(m, lanes);
        let half = stride * lanes;
        for (rc, ic) in re
            .chunks_exact_mut(2 * half)
            .zip(im.chunks_exact_mut(2 * half))
        {
            let (r0, r1) = rc.split_at_mut(half);
            let (i0, i1) = ic.split_at_mut(half);
            for (((r0, i0), r1), i1) in r0
                .chunks_exact_mut(lanes)
                .zip(i0.chunks_exact_mut(lanes))
                .zip(r1.chunks_exact_mut(lanes))
                .zip(i1.chunks_exact_mut(lanes))
            {
                for l in 0..lanes {
                    let ml = std::array::from_fn(|k| m[k][l]);
                    [r0[l], i0[l], r1[l], i1[l]] = mul2(&ml, r0[l], i0[l], r1[l], i1[l]);
                }
            }
        }
    }
}

kernel! {
    /// Gathers `dst`'s block of `lanes` values at amplitude `i` from `src`'s
    /// block at `perm[i]`.
    fn permute(src: &[f64], dst: &mut [f64], perm: &[usize], lanes: usize) {
        // A literal lane count lets one lane copy single values instead of
        // calling a block copy per amplitude.
        match lanes {
            0 => {}
            1 => gather(src, dst, perm, 1),
            _ => gather(src, dst, perm, lanes),
        }
    }
}

/// [`permute()`]'s loop, for a non-zero lane count.
#[inline(always)]
fn gather(src: &[f64], dst: &mut [f64], perm: &[usize], lanes: usize) {
    for (block, &from) in dst.chunks_exact_mut(lanes).zip(perm) {
        block.copy_from_slice(&src[from * lanes..][..lanes]);
    }
}

kernel! {
    /// Per-lane `⟨Z_w⟩` sums into `z` (`n` planes of `lanes`), with `p` a
    /// lane-length plane of probabilities: amplitude by amplitude, each
    /// lane's probability is added to every wire whose bit is 0 and
    /// subtracted from every wire whose bit is 1, as the dense readout does
    /// one wire at a time.
    fn z_sums(re: &[f64], im: &[f64], n: usize, lanes: usize, z: &mut [f64], p: &mut [f64]) {
        // A literal lane count runs one lane's sums as scalars.
        match lanes {
            0 => {}
            1 => lane_z_sums(re, im, n, 1, z, p),
            _ => lane_z_sums(re, im, n, lanes, z, p),
        }
    }
}

/// [`z_sums()`]'s loop, for a non-zero lane count.
#[inline(always)]
fn lane_z_sums(re: &[f64], im: &[f64], n: usize, lanes: usize, z: &mut [f64], p: &mut [f64]) {
    let p = &mut p[..lanes];
    for (i, (r, m)) in re
        .chunks_exact(lanes)
        .zip(im.chunks_exact(lanes))
        .enumerate()
    {
        for ((p, r), m) in p.iter_mut().zip(r).zip(m) {
            *p = r * r + m * m;
        }
        for (w, acc) in z.chunks_exact_mut(lanes).enumerate() {
            if i & (1 << (n - 1 - w)) == 0 {
                for (a, p) in acc.iter_mut().zip(&*p) {
                    *a += p;
                }
            } else {
                for (a, p) in acc.iter_mut().zip(&*p) {
                    *a -= p;
                }
            }
        }
    }
}

/// A stop of the adjoint sweep over every lane of `ket` and `bra`, for
/// amplitude pairs `stride` apart: for every pair, in the per-row kernel's
/// order, each lane adds `conj(bra)·ket` products to its eight cross-matrix
/// planes in `work`, then un-applies its own matrix, read from `work`'s
/// lane matrix planes, from both banks. A block stop's planes hold one
/// inverse broadcast to every lane, an input stop's each lane's own.
fn stop(ket: &mut RegisterBank, bra: &mut RegisterBank, stride: usize, work: &mut Work) {
    debug_assert_eq!(ket.re.len(), bra.re.len(), "ket and bra widths differ");
    let lanes = ket.lanes;
    work.acc.clear();
    work.acc.resize(8 * lanes.max(1), 0.0);
    match lanes {
        0 => return,
        1 => {
            let m = work.lane_matrix(0);
            stop_one(ket, bra, stride, &m, planes_mut(&mut work.acc, 1));
            return;
        }
        _ => {}
    }
    let half = stride * lanes;
    let blocks = ket
        .re
        .chunks_exact_mut(2 * half)
        .zip(ket.im.chunks_exact_mut(2 * half))
        .zip(bra.re.chunks_exact_mut(2 * half))
        .zip(bra.im.chunks_exact_mut(2 * half));
    let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = planes(&work.m, lanes);
    let [c00r, c00i, c01r, c01i, c10r, c10i, c11r, c11i] = planes_mut(&mut work.acc, lanes);
    for (((kr, ki), br), bi) in blocks {
        let (kr0, kr1) = kr.split_at_mut(half);
        let (ki0, ki1) = ki.split_at_mut(half);
        let (br0, br1) = br.split_at_mut(half);
        let (bi0, bi1) = bi.split_at_mut(half);
        stop_kernel(
            kr0, ki0, kr1, ki1, br0, bi0, br1, bi1, c00r, c00i, c01r, c01i, c10r, c10i, c11r, c11i,
            m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i,
        );
    }
}

kernel! {
    /// The amplitude pairs of one block of a stop, every lane: the block's
    /// lower (`kr0`, `ki0`) and upper (`kr1`, `ki1`) ket halves and the
    /// bra's likewise, `stride · lanes` values each, the eight lane-length
    /// cross-matrix planes, and the eight lane-length planes of each lane's
    /// matrix. Pairs run in order, each over its lanes. Every plane is its
    /// own slice, cut to the lane count, so each lane's eight matrix loads
    /// need no bounds check and the lane loop vectorizes. One call per
    /// block, not per pair, keeps a bank of few lanes from paying a call
    /// for each pair.
    #[allow(clippy::too_many_arguments)]
    fn stop_kernel(
        kr0: &mut [f64],
        ki0: &mut [f64],
        kr1: &mut [f64],
        ki1: &mut [f64],
        br0: &mut [f64],
        bi0: &mut [f64],
        br1: &mut [f64],
        bi1: &mut [f64],
        c00r: &mut [f64],
        c00i: &mut [f64],
        c01r: &mut [f64],
        c01i: &mut [f64],
        c10r: &mut [f64],
        c10i: &mut [f64],
        c11r: &mut [f64],
        c11i: &mut [f64],
        m00r: &[f64],
        m00i: &[f64],
        m01r: &[f64],
        m01i: &[f64],
        m10r: &[f64],
        m10i: &[f64],
        m11r: &[f64],
        m11i: &[f64],
    ) {
        let lanes = c00r.len();
        let (c00i, c01r, c01i) = (&mut c00i[..lanes], &mut c01r[..lanes], &mut c01i[..lanes]);
        let (c10r, c10i, c11r, c11i) = (
            &mut c10r[..lanes],
            &mut c10i[..lanes],
            &mut c11r[..lanes],
            &mut c11i[..lanes],
        );
        let (m00r, m00i, m01r, m01i) = (
            &m00r[..lanes],
            &m00i[..lanes],
            &m01r[..lanes],
            &m01i[..lanes],
        );
        let (m10r, m10i, m11r, m11i) = (
            &m10r[..lanes],
            &m10i[..lanes],
            &m11r[..lanes],
            &m11i[..lanes],
        );
        for o in (0..kr0.len()).step_by(lanes) {
            let at = o..o + lanes;
            let (kr0, ki0, kr1, ki1) = (
                &mut kr0[at.clone()],
                &mut ki0[at.clone()],
                &mut kr1[at.clone()],
                &mut ki1[at.clone()],
            );
            let (br0, bi0, br1, bi1) = (
                &mut br0[at.clone()],
                &mut bi0[at.clone()],
                &mut br1[at.clone()],
                &mut bi1[at],
            );
            for l in 0..lanes {
                let m = [
                    m00r[l], m00i[l], m01r[l], m01i[l], m10r[l], m10i[l], m11r[l], m11i[l],
                ];
                let (x, y) = stop_pair(
                    [kr0[l], ki0[l], kr1[l], ki1[l]],
                    [br0[l], bi0[l], br1[l], bi1[l]],
                    &m,
                    [
                        &mut c00r[l],
                        &mut c00i[l],
                        &mut c01r[l],
                        &mut c01i[l],
                        &mut c10r[l],
                        &mut c10i[l],
                        &mut c11r[l],
                        &mut c11i[l],
                    ],
                );
                [kr0[l], ki0[l], kr1[l], ki1[l]] = x;
                [br0[l], bi0[l], br1[l], bi1[l]] = y;
            }
        }
    }
}

kernel! {
    /// The block stop of a one-lane bank: the per-row kernel's loop over
    /// amplitude pairs `stride` apart, on split planes, with the cross
    /// matrix in locals; it is written to `acc` (one value per plane) at the
    /// end. [`stop`] gives the same bits at one lane, but keeps the cross
    /// matrix in the accumulator planes; a one-lane sweep through it ran
    /// about 1.4× as long (7 qubits, one x86-64 vCPU).
    fn stop_one(
        ket: &mut RegisterBank,
        bra: &mut RegisterBank,
        stride: usize,
        m: &Flat,
        acc: [&mut [f64]; 8],
    ) {
        let mut c = [0.0; 8];
        let blocks = ket
            .re
            .chunks_exact_mut(2 * stride)
            .zip(ket.im.chunks_exact_mut(2 * stride))
            .zip(bra.re.chunks_exact_mut(2 * stride))
            .zip(bra.im.chunks_exact_mut(2 * stride));
        for (((kr, ki), br), bi) in blocks {
            let (kr0, kr1) = kr.split_at_mut(stride);
            let (ki0, ki1) = ki.split_at_mut(stride);
            let (br0, br1) = br.split_at_mut(stride);
            let (bi0, bi1) = bi.split_at_mut(stride);
            for o in 0..stride {
                let (x, y) = stop_pair(
                    [kr0[o], ki0[o], kr1[o], ki1[o]],
                    [br0[o], bi0[o], br1[o], bi1[o]],
                    m,
                    c.each_mut(),
                );
                [kr0[o], ki0[o], kr1[o], ki1[o]] = x;
                [br0[o], bi0[o], br1[o], bi1[o]] = y;
            }
        }
        for (plane, v) in acc.into_iter().zip(c) {
            plane[0] = v;
        }
    }
}

/// One amplitude pair of a block stop, as the per-row kernel does it:
/// `x` and `y` are the ket's and bra's `[lo.re, lo.im, hi.re, hi.im]`.
/// Adds `conj(bra)·ket` products to the eight cross-matrix entries `c`
/// (laid out like a [`Flat`]), then returns the pair un-applied by `m` from
/// the ket and from the bra. Both block-stop kernels run it.
#[inline(always)]
fn stop_pair(x: [f64; 4], y: [f64; 4], m: &Flat, c: [&mut f64; 8]) -> ([f64; 4], [f64; 4]) {
    let [x0r, x0i, x1r, x1i] = x;
    let [y0r, y0i, y1r, y1i] = y;
    let [c00r, c00i, c01r, c01i, c10r, c10i, c11r, c11i] = c;
    // conj(bra), negated exactly as `C64::conj` does.
    let (y0c, y1c) = (-y0i, -y1i);
    *c00r += y0r * x0r - y0c * x0i;
    *c00i += y0r * x0i + y0c * x0r;
    *c01r += y0r * x1r - y0c * x1i;
    *c01i += y0r * x1i + y0c * x1r;
    *c10r += y1r * x0r - y1c * x0i;
    *c10i += y1r * x0i + y1c * x0r;
    *c11r += y1r * x1r - y1c * x1i;
    *c11i += y1r * x1i + y1c * x1r;
    (mul2(m, x0r, x0i, x1r, x1i), mul2(m, y0r, y0i, y1r, y1i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{hadamard, Param};
    use crate::Circuit;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn zero_state_and_lane_round_trip() {
        let mut bank = RegisterBank::zero_state(2, 3).unwrap();
        for l in 0..3 {
            assert_eq!(bank.lane(l), StateVector::zero_state(2).unwrap());
        }
        let mut s = StateVector::zero_state(2).unwrap();
        s.apply_single_qubit(1, &hadamard()).unwrap();
        bank.set_lane(1, &s).unwrap();
        assert_eq!(bank.lane(1), s);
        assert_eq!(bank.lane(0), StateVector::zero_state(2).unwrap());
        assert!(matches!(
            bank.set_lane(0, &StateVector::zero_state(3).unwrap()),
            Err(QuantumError::DimensionMismatch {
                expected: 4,
                actual: 8
            })
        ));
        assert!(RegisterBank::zero_state(0, 2).is_err());
    }

    #[test]
    fn reset_reuses_storage_at_another_shape() {
        let mut bank = RegisterBank::zero_state(3, 4).unwrap();
        bank.reset(2, 5).unwrap();
        assert_eq!((bank.n_qubits(), bank.lanes(), bank.dim()), (2, 5, 4));
        assert_eq!(bank, RegisterBank::zero_state(2, 5).unwrap());
        assert!(bank.reset(30, 1).is_err());
        assert_eq!(bank.lanes(), 5);
    }

    #[test]
    fn lanes_follow_their_own_inputs() {
        let mut c = Circuit::new(3).unwrap();
        c.ry(0, Param::Input(0)).unwrap();
        c.rx(2, Param::Input(1)).unwrap();
        c.cnot(0, 1).unwrap();
        c.cnot(1, 2).unwrap();
        c.rz(1, Param::Train(0)).unwrap();
        let tape = c.compile(&[0.4]).unwrap();
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|l| vec![0.3 * l as f64 - 0.5, 1.1 - 0.2 * l as f64])
            .collect();
        let inputs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut bank = RegisterBank::zero_state(3, 5).unwrap();
        let mut scratch = BankScratch::default();
        bank.execute_tape(&tape, &inputs, &mut scratch).unwrap();
        let (mut z, mut p) = (Vec::new(), Vec::new());
        bank.expectations_z_into(&mut z, &mut scratch);
        bank.probabilities_into(&mut p);
        for (l, row) in rows.iter().enumerate() {
            let state: StateVector = tape.execute_on(row, None).unwrap();
            assert_eq!(bank.lane(l), state, "lane {l}");
            let want_z: Vec<f64> = (0..3).map(|w| state.expectation_z(w).unwrap()).collect();
            assert_eq!(bits(&z[l * 3..][..3]), bits(&want_z), "lane {l}");
            assert_eq!(bits(&p[l * 8..][..8]), bits(&state.probabilities()));
        }
    }

    #[test]
    fn zero_lanes_run_and_read_out_nothing() {
        let mut c = Circuit::new(2).unwrap();
        c.ry(0, Param::Input(0)).unwrap();
        c.cnot(0, 1).unwrap();
        let tape = c.compile_forward(&[]).unwrap();
        let mut bank = RegisterBank::zero_state(2, 0).unwrap();
        let mut scratch = BankScratch::default();
        bank.execute_tape(&tape, &[], &mut scratch).unwrap();
        let (mut z, mut p) = (vec![1.0], vec![1.0]);
        bank.expectations_z_into(&mut z, &mut scratch);
        bank.probabilities_into(&mut p);
        assert!(z.is_empty() && p.is_empty());
    }

    #[test]
    fn bad_wires_in_a_run_are_typed_errors() {
        let mut bank = RegisterBank::zero_state(2, 2).unwrap();
        let mut work = Work::default();
        let run = |pairs| TapeOp::CnotRun(pairs);
        assert!(matches!(
            bank.apply_op(&run(vec![(0, 1), (1, 1)]), &[], &mut work),
            Err(QuantumError::ControlEqualsTarget { wire: 1 })
        ));
        assert!(matches!(
            bank.apply_op(&run(vec![(0, 2)]), &[], &mut work),
            Err(QuantumError::WireOutOfRange { wire: 2, .. })
        ));
        let one = TapeOp::OneQ {
            wire: 3,
            m: hadamard(),
        };
        assert!(bank.apply_op(&one, &[], &mut work).is_err());
        assert_eq!(bank, RegisterBank::zero_state(2, 2).unwrap());
    }

    /// Register widths, each run at every wire, and lane counts: together
    /// they hit every stride and every remainder of a 2-, 4- or 8-wide
    /// vector loop over lanes.
    const QUBITS: [usize; 4] = [1, 2, 5, 7];
    const LANE_COUNTS: [usize; 8] = [1, 2, 3, 5, 8, 31, 32, 33];

    /// The signatures of the `⟨Z⟩`-sum kernel and the one-lane block stop.
    type ZSums = fn(&[f64], &[f64], usize, usize, &mut [f64], &mut [f64]);
    type StopOne = fn(&mut RegisterBank, &mut RegisterBank, usize, &Flat, [&mut [f64]; 8]);

    /// Seeded values in `[-1, 1)` (SplitMix64).
    struct Seeded(u64);

    impl Seeded {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = self.0;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }

        fn plane(&mut self, len: usize) -> Vec<f64> {
            (0..len).map(|_| self.next()).collect()
        }

        fn flat(&mut self) -> Flat {
            std::array::from_fn(|_| self.next())
        }
    }

    /// The stop kernel over every block of `2·half` values of the ket and
    /// bra planes `kb` (`[ket.re, ket.im, bra.re, bra.im]`) as [`stop`]
    /// runs it, with the lane matrix planes `m`, in its portable form or
    /// the dispatched one.
    fn stop_blocks(
        portable: bool,
        kb: &mut [Vec<f64>; 4],
        acc: &mut [f64],
        lanes: usize,
        half: usize,
        m: &[f64],
    ) {
        let [kr, ki, br, bi] = kb;
        let [c00r, c00i, c01r, c01i, c10r, c10i, c11r, c11i] = planes_mut(acc, lanes);
        let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = planes(m, lanes);
        let blocks = kr
            .chunks_exact_mut(2 * half)
            .zip(ki.chunks_exact_mut(2 * half))
            .zip(br.chunks_exact_mut(2 * half))
            .zip(bi.chunks_exact_mut(2 * half));
        for (((kr, ki), br), bi) in blocks {
            let (kr0, kr1) = kr.split_at_mut(half);
            let (ki0, ki1) = ki.split_at_mut(half);
            let (br0, br1) = br.split_at_mut(half);
            let (bi0, bi1) = bi.split_at_mut(half);
            let kernel = if portable {
                stop_kernel::portable
            } else {
                stop_kernel
            };
            kernel(
                kr0, ki0, kr1, ki1, br0, bi0, br1, bi1, c00r, c00i, c01r, c01i, c10r, c10i, c11r,
                c11i, m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i,
            );
        }
    }

    /// Every kernel's portable body gives the bits its dispatched form
    /// gives: the form a CPU without AVX2, or another architecture, runs
    /// against the one this host runs.
    #[test]
    fn portable_kernels_match_the_dispatched_ones_bitwise() {
        let mut rng = Seeded(25);
        for n in QUBITS {
            let dim = 1 << n;
            for lanes in LANE_COUNTS {
                let len = lanes << n;
                let (re, im) = (rng.plane(len), rng.plane(len));

                // The `⟨Z⟩` sums.
                let z_of = |kernel: ZSums| {
                    let (mut z, mut p) = (vec![0.0; n * lanes], vec![0.0; lanes]);
                    kernel(&re, &im, n, lanes, &mut z, &mut p);
                    bits(&z)
                };
                assert_eq!(z_of(z_sums::portable), z_of(z_sums), "{n}q x{lanes} z");

                // A CNOT run's gather, through a seeded permutation.
                let mut perm: Vec<usize> = (0..dim).collect();
                for i in (1..dim).rev() {
                    perm.swap(i, (rng.next().abs() * (i + 1) as f64) as usize % (i + 1));
                }
                let gathered = |kernel: fn(&[f64], &mut [f64], &[usize], usize)| {
                    let mut dst = vec![0.0; len];
                    kernel(&re, &mut dst, &perm, lanes);
                    bits(&dst)
                };
                assert_eq!(
                    gathered(permute::portable),
                    gathered(permute),
                    "{n}q x{lanes} gather"
                );

                for wire in 0..n {
                    let stride = 1 << (n - 1 - wire);
                    let case = format!("{n}q x{lanes} wire {wire}");

                    // One matrix for every lane, and one per lane.
                    let m = rng.flat();
                    let one = |kernel: fn(&mut [f64], &mut [f64], usize, &Flat)| {
                        let (mut r, mut i) = (re.clone(), im.clone());
                        kernel(&mut r, &mut i, stride * lanes, &m);
                        (bits(&r), bits(&i))
                    };
                    assert_eq!(one(one_q::portable), one(one_q), "{case} one_q");
                    let lane_m = rng.plane(8 * lanes);
                    let per_lane = |kernel: fn(&mut [f64], &mut [f64], usize, usize, &[f64])| {
                        let (mut r, mut i) = (re.clone(), im.clone());
                        kernel(&mut r, &mut i, stride, lanes, &lane_m);
                        (bits(&r), bits(&i))
                    };
                    assert_eq!(
                        per_lane(lane_q::portable),
                        per_lane(lane_q),
                        "{case} lane_q"
                    );

                    // The stop kernel of the sweep: one inverse broadcast to
                    // every lane (a block stop's), and one per lane (an input
                    // rotation's).
                    let kb = [re.clone(), im.clone(), rng.plane(len), rng.plane(len)];
                    let mut broadcast = Work::default();
                    broadcast.broadcast(&m, lanes);
                    for (what, m) in [("broadcast", &broadcast.m), ("per-lane", &lane_m)] {
                        let run = |portable| {
                            let (mut kb, mut acc) = (kb.clone(), vec![0.0; 8 * lanes]);
                            stop_blocks(portable, &mut kb, &mut acc, lanes, stride * lanes, m);
                            (kb.map(|p| bits(&p)), bits(&acc))
                        };
                        assert_eq!(run(true), run(false), "{case} {what} stop");
                    }

                    // The one-lane block stop.
                    if lanes == 1 {
                        let bank = |re: &[f64], im: &[f64]| RegisterBank {
                            n_qubits: n,
                            lanes: 1,
                            re: re.to_vec(),
                            im: im.to_vec(),
                        };
                        let bra = (rng.plane(len), rng.plane(len));
                        let run = |kernel: StopOne| {
                            let (mut k, mut b) = (bank(&re, &im), bank(&bra.0, &bra.1));
                            let mut acc = [0.0; 8];
                            kernel(
                                &mut k,
                                &mut b,
                                stride,
                                &m,
                                acc.each_mut().map(std::slice::from_mut),
                            );
                            (k, b, bits(&acc))
                        };
                        assert_eq!(run(stop_one::portable), run(stop_one), "{case} stop_one");
                    }
                }
            }
        }
    }
}
