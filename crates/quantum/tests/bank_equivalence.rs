//! Register banks against the per-row simulator, bit for bit.
//!
//! A [`RegisterBank`] runs the rows of a batch as the lanes of one
//! batch-major register, and each lane must do exactly the `f64` operations
//! [`StateVector`] does on that row. So every readout and both gradient
//! groups of every lane are compared with `to_bits` against
//! `StateVector::execute_tape` and `adjoint::*_tape`, on random circuits
//! over every gate kind the models and the noise model use, 1–8 qubits, odd
//! and even lane counts, and `|0…0⟩` or amplitude-embedded lanes.

use proptest::prelude::*;
use sqvae_quantum::embed::amplitude_embedding;
use sqvae_quantum::grad::{adjoint, CircuitGradients};
use sqvae_quantum::{
    BankScratch, Circuit, CompiledTape, Gate, Param, QuantumError, RegisterBank, StateVector,
};

/// Lane counts: one lane (the uniform-kernel shortcuts), small odd and
/// even counts, and one either side of a 32-lane chunk.
const LANES: [usize; 6] = [1, 2, 3, 5, 32, 33];

/// Strategy: a random gate on up to 8 wires, bound to one of 4 trainable
/// parameters or 8 input features: the Paulis, the Hadamard, fixed,
/// trainable or input-bound `RX`/`RY`/`RZ`, and CNOTs on any wire pair.
/// [`on_wires`] folds it onto a narrower register.
fn arb_gate() -> impl Strategy<Value = Gate> {
    let param = prop_oneof![
        (-3.0..3.0f64).prop_map(Param::Fixed),
        (0..4usize).prop_map(Param::Train),
        (0..8usize).prop_map(Param::Input),
    ];
    (0..8usize, 1..8usize, param, 0..12u8).prop_map(|(w, shift, p, kind)| match kind {
        0 => Gate::Hadamard(w),
        1 => Gate::RX(w, p),
        2 => Gate::RY(w, p),
        3 => Gate::RZ(w, p),
        4 => Gate::PauliX(w),
        5 => Gate::PauliY(w),
        6 => Gate::PauliZ(w),
        7..=9 => Gate::CNOT(w, (w + shift) % 8),
        _ => Gate::RY(w, p),
    })
}

/// `gate` on an `n`-wire register: wires and input indices taken modulo
/// `n`, and a CNOT whose wires then coincide (or any CNOT on one wire)
/// replaced by a Hadamard.
fn on_wires(gate: Gate, n: usize) -> Gate {
    let p = |p: Param| match p {
        Param::Input(i) => Param::Input(i % n),
        other => other,
    };
    match gate {
        Gate::CNOT(c, t) if c % n != t % n => Gate::CNOT(c % n, t % n),
        Gate::CNOT(c, _) => Gate::Hadamard(c % n),
        Gate::Hadamard(w) => Gate::Hadamard(w % n),
        Gate::PauliX(w) => Gate::PauliX(w % n),
        Gate::PauliY(w) => Gate::PauliY(w % n),
        Gate::PauliZ(w) => Gate::PauliZ(w % n),
        Gate::RX(w, q) => Gate::RX(w % n, p(q)),
        Gate::RY(w, q) => Gate::RY(w % n, p(q)),
        Gate::RZ(w, q) => Gate::RZ(w % n, p(q)),
    }
}

/// One random case: a circuit on 1–8 wires with its parameters, and a
/// seed for the per-lane data.
fn arb_case() -> impl Strategy<Value = (usize, Vec<Gate>, Vec<f64>, u64)> {
    (
        1usize..9,
        proptest::collection::vec(arb_gate(), 1..40),
        proptest::collection::vec(-3.0..3.0f64, 4),
        0u64..u64::MAX,
    )
        .prop_map(|(n, gates, params, seed)| {
            let gates = gates.into_iter().map(|g| on_wires(g, n)).collect();
            (n, gates, params, seed)
        })
}

fn build(n: usize, gates: &[Gate]) -> Circuit {
    let mut c = Circuit::new(n).unwrap();
    for g in gates {
        c.push(*g).unwrap();
    }
    c
}

/// A deterministic value in `[-2, 2)` for (`seed`, `k`).
fn value(seed: u64, k: usize) -> f64 {
    let mut x = seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    (x >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
}

/// Per-lane rows of `width` values.
fn rows(seed: u64, lanes: usize, width: usize) -> Vec<Vec<f64>> {
    (0..lanes)
        .map(|l| (0..width).map(|k| value(seed, l * width + k)).collect())
        .collect()
}

fn views(rows: &[Vec<f64>]) -> Vec<&[f64]> {
    rows.iter().map(Vec::as_slice).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Lane `l`'s starting state: `|0…0⟩`, or an amplitude embedding of a
/// row of the lane's own data (which may have fewer features than `2^n`).
fn initial(n: usize, embedded: bool, seed: u64, l: usize) -> Option<StateVector> {
    embedded.then(|| {
        let features: Vec<f64> = (0..(1 << n) - l % 2)
            .map(|k| value(!seed, l * 512 + k))
            .collect();
        amplitude_embedding(&features, n).unwrap()
    })
}

/// A bank of `lanes` lanes of `tape`, started from [`initial`] and run.
fn run_bank(
    tape: &CompiledTape,
    inputs: &[Vec<f64>],
    embedded: bool,
    seed: u64,
    scratch: &mut BankScratch,
) -> RegisterBank {
    let n = tape.n_qubits();
    let mut bank = RegisterBank::zero_state(n, inputs.len()).unwrap();
    for l in 0..inputs.len() {
        if let Some(s) = initial(n, embedded, seed, l) {
            bank.set_lane(l, &s).unwrap();
        }
    }
    bank.execute_tape(tape, &views(inputs), scratch).unwrap();
    bank
}

/// Lane `l`'s gradients in a bank sweep's lane-major result equal the
/// per-row oracle's `want`.
fn assert_lane_eq(got: &[f64], l: usize, want: &CircuitGradients, what: &str) {
    let per_lane = want.params.len() + want.inputs.len();
    let (params, inputs) = got[l * per_lane..(l + 1) * per_lane].split_at(want.params.len());
    assert_eq!(bits(params), bits(&want.params), "{what}: params");
    assert_eq!(bits(inputs), bits(&want.inputs), "{what}: inputs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every lane's amplitudes, `⟨Z⟩` and probabilities equal the per-row
    /// `StateVector` run of its row, bit for bit.
    #[test]
    fn bank_forward_matches_per_row_bitwise((n, gates, params, seed) in arb_case()) {
        let tape = build(n, &gates).compile_forward(&params).unwrap();
        let mut scratch = BankScratch::default();
        for lanes in LANES {
            for embedded in [false, true] {
                let inputs = rows(seed, lanes, n);
                let bank = run_bank(&tape, &inputs, embedded, seed, &mut scratch);
                let (mut z, mut p) = (Vec::new(), Vec::new());
                bank.expectations_z_into(&mut z, &mut scratch);
                bank.probabilities_into(&mut p);
                for (l, x) in inputs.iter().enumerate() {
                    let mut row = initial(n, embedded, seed, l)
                        .unwrap_or_else(|| StateVector::zero_state(n).unwrap());
                    row.execute_tape(&tape, x).unwrap();
                    let what = format!("{n}q x{lanes} embedded={embedded} lane {l}");
                    prop_assert_eq!(&bank.lane(l), &row, "{}", what);
                    let want_z: Vec<f64> = (0..n).map(|w| row.expectation_z(w).unwrap()).collect();
                    prop_assert_eq!(bits(&z[l * n..][..n]), bits(&want_z), "{}", what);
                    let dim = 1 << n;
                    prop_assert_eq!(bits(&p[l * dim..][..dim]), bits(&row.probabilities()), "{}", what);
                }
            }
        }
    }

    /// Every lane's parameter and input gradients, for both readouts, equal
    /// the re-executing per-row oracle's, bit for bit.
    #[test]
    fn bank_sweep_matches_per_row_oracle_bitwise((n, gates, params, seed) in arb_case()) {
        let tape = build(n, &gates).compile(&params).unwrap();
        let mut scratch = BankScratch::default();
        for lanes in LANES {
            for embedded in [false, true] {
                let inputs = rows(seed, lanes, n);
                let up_z = rows(seed.rotate_left(7), lanes, n);
                let up_p = rows(seed.rotate_left(13), lanes, 1 << n);
                let mut ket = run_bank(&tape, &inputs, embedded, seed, &mut scratch);
                let got_z = adjoint::backward_expectations_z_bank(
                    &tape, &views(&inputs), &mut ket, &views(&up_z), &mut scratch,
                ).unwrap();
                let mut ket = run_bank(&tape, &inputs, embedded, seed, &mut scratch);
                let got_p = adjoint::backward_probabilities_bank(
                    &tape, &views(&inputs), &mut ket, &views(&up_p), &mut scratch,
                ).unwrap();
                let per_lane = tape.n_params() + tape.n_inputs();
                prop_assert_eq!(got_z.len(), lanes * per_lane);
                prop_assert_eq!(got_p.len(), lanes * per_lane);
                for l in 0..lanes {
                    let init = initial(n, embedded, seed, l);
                    let want_z = adjoint::backward_expectations_z_tape(
                        &tape, &inputs[l], init.as_ref(), &up_z[l],
                    ).unwrap();
                    let want_p = adjoint::backward_probabilities_tape(
                        &tape, &inputs[l], init.as_ref(), &up_p[l],
                    ).unwrap();
                    let what = format!("{n}q x{lanes} embedded={embedded} lane {l}");
                    assert_lane_eq(&got_z, l, &want_z, &format!("{what} <Z>"));
                    assert_lane_eq(&got_p, l, &want_p, &format!("{what} probabilities"));
                }
            }
        }
    }
}

/// The paper's decoder sub-circuit (RY embedding + strongly-entangling
/// layers) at the layers' shapes, on lanes that chunk like the layers do.
#[test]
fn decoder_template_banks_match_per_row_bitwise() {
    use sqvae_quantum::embed::{angle_embedding_gates, RotationAxis};
    use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
    for n in [5, 6, 7] {
        let mut c = Circuit::new(n).unwrap();
        c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
            .unwrap();
        c.extend(strongly_entangling_layers(n, 5, 0, EntangleRange::Ring).unwrap())
            .unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|k| value(3, k)).collect();
        let tape = c.compile(&params).unwrap();
        let mut scratch = BankScratch::default();
        for lanes in [1, 16, 32, 64] {
            let inputs = rows(n as u64, lanes, n);
            let upstream = rows(n as u64 + 100, lanes, n);
            let mut ket = run_bank(&tape, &inputs, false, 0, &mut scratch);
            let got = adjoint::backward_expectations_z_bank(
                &tape,
                &views(&inputs),
                &mut ket,
                &views(&upstream),
                &mut scratch,
            )
            .unwrap();
            for l in 0..lanes {
                let want =
                    adjoint::backward_expectations_z_tape(&tape, &inputs[l], None, &upstream[l])
                        .unwrap();
                assert_lane_eq(&got, l, &want, &format!("{n}q x{lanes} lane {l}"));
            }
        }
    }
}

/// Bad arguments are typed errors, never panics.
#[test]
fn bank_arguments_are_checked_with_typed_errors() {
    let mut c = Circuit::new(3).unwrap();
    c.ry(0, Param::Input(0)).unwrap();
    c.ry(2, Param::Input(1)).unwrap();
    c.rot(1, Param::Train(0), Param::Train(1), Param::Train(2))
        .unwrap();
    c.cnot(0, 1).unwrap();
    let params = [0.1, 0.2, 0.3];
    let tape = c.compile(&params).unwrap();
    let forward_only = c.compile_forward(&params).unwrap();
    let mut scratch = BankScratch::default();
    let good: [&[f64]; 2] = [&[0.5, 0.6], &[0.7, 0.8]];
    let short: [&[f64]; 2] = [&[0.5, 0.6], &[0.7]];
    let upstream: [&[f64]; 2] = [&[1.0, 0.5, -0.5], &[0.2, 0.1, 0.0]];

    // An input slice shorter than the tape's inputs.
    let mut bank = RegisterBank::zero_state(3, 2).unwrap();
    assert_eq!(
        bank.execute_tape(&tape, &short, &mut scratch),
        Err(QuantumError::InputCountMismatch {
            expected: 2,
            actual: 1
        })
    );
    assert_eq!(bank, RegisterBank::zero_state(3, 2).unwrap());
    assert!(matches!(
        bank.execute_tape(&tape, &good[..1], &mut scratch),
        Err(QuantumError::DimensionMismatch {
            expected: 2,
            actual: 1
        })
    ));
    // A tape of another width.
    let mut wide = RegisterBank::zero_state(4, 2).unwrap();
    assert!(matches!(
        wide.execute_tape(&tape, &good, &mut scratch),
        Err(QuantumError::DimensionMismatch { .. })
    ));

    // An initial lane of the wrong width.
    assert!(matches!(
        bank.set_lane(1, &StateVector::zero_state(2).unwrap()),
        Err(QuantumError::DimensionMismatch {
            expected: 8,
            actual: 4
        })
    ));

    bank.execute_tape(&tape, &good, &mut scratch).unwrap();
    let ran = bank.clone();
    // A forward-only tape given to the sweep.
    assert_eq!(
        adjoint::backward_expectations_z_bank(
            &forward_only,
            &good,
            &mut bank,
            &upstream,
            &mut scratch
        ),
        Err(QuantumError::ForwardOnlyTape)
    );
    assert_eq!(
        adjoint::backward_probabilities_bank(
            &forward_only,
            &good,
            &mut bank,
            &[&[0.0; 8], &[0.0; 8]],
            &mut scratch
        ),
        Err(QuantumError::ForwardOnlyTape)
    );
    // An upstream of the wrong length, or with a row per lane missing.
    let long: [&[f64]; 2] = [&[1.0, 0.5, -0.5], &[0.2, 0.1, 0.0, 9.0]];
    assert_eq!(
        adjoint::backward_expectations_z_bank(&tape, &good, &mut bank, &long, &mut scratch),
        Err(QuantumError::DimensionMismatch {
            expected: 3,
            actual: 4
        })
    );
    assert_eq!(
        adjoint::backward_probabilities_bank(&tape, &good, &mut bank, &upstream, &mut scratch),
        Err(QuantumError::DimensionMismatch {
            expected: 8,
            actual: 3
        })
    );
    assert!(matches!(
        adjoint::backward_expectations_z_bank(
            &tape,
            &good,
            &mut bank,
            &upstream[..1],
            &mut scratch
        ),
        Err(QuantumError::DimensionMismatch { .. })
    ));
    // Short inputs to the sweep.
    assert!(matches!(
        adjoint::backward_expectations_z_bank(&tape, &short, &mut bank, &upstream, &mut scratch),
        Err(QuantumError::InputCountMismatch { .. })
    ));
    // None of the rejected calls touched the bank, and it still sweeps.
    assert_eq!(bank, ran);
    let grads =
        adjoint::backward_expectations_z_bank(&tape, &good, &mut bank, &upstream, &mut scratch)
            .unwrap();
    // Two lanes of 3 parameter and 2 input gradients each.
    assert_eq!(grads.len(), 2 * (3 + 2));
}
