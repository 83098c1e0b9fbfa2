//! Adjoint vs parameter-shift gradient cost — the ablation justifying the
//! adjoint engine as the training path (parameter-shift re-executes the
//! circuit twice per parameter; adjoint is one backward sweep) — plus
//! sequential vs row-sharded batches of the per-row tape oracle, and the
//! per-row simulator against the register bank the quantum layers run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqvae_nn::parallel::{self, Threads};
use sqvae_quantum::embed::{angle_embedding_gates, RotationAxis};
use sqvae_quantum::grad::{adjoint, paramshift};
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::{BankScratch, Circuit, RegisterBank, StateVector};

fn circuit(n_qubits: usize, layers: usize) -> (Circuit, Vec<f64>, Vec<f64>) {
    let mut c = Circuit::new(n_qubits).expect("valid register");
    c.extend(strongly_entangling_layers(n_qubits, layers, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.1 + 0.01 * i as f64).collect();
    let upstream = vec![1.0; n_qubits];
    (c, params, upstream)
}

fn bench_adjoint_vs_paramshift(c: &mut Criterion) {
    let mut group = c.benchmark_group("gradient_engines");
    for layers in [1usize, 3, 5] {
        let (circ, params, upstream) = circuit(6, layers);
        group.bench_with_input(BenchmarkId::new("adjoint", layers), &layers, |b, _| {
            b.iter(|| {
                adjoint::backward_expectations_z(&circ, &params, &[], None, &upstream).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("paramshift", layers), &layers, |b, _| {
            b.iter(|| paramshift::vjp_expectations_z(&circ, &params, &[], None, &upstream).unwrap())
        });
    }
    group.finish();
}

/// A batch of 32 re-executing adjoint passes against one compiled tape
/// (`adjoint::*_tape`, the per-row oracle the layers are tested against),
/// sequential vs sharded across threads. The layers no longer run this
/// path: they sweep register banks (the `register_bank` group).
fn bench_batched_adjoint(c: &mut Criterion) {
    let (circ, params, upstream) = circuit(6, 3);
    let rows = 32usize;
    let mut group = c.benchmark_group("batched_adjoint");
    for (name, threads) in [("seq", Threads::Off), ("auto", Threads::Auto)] {
        group.bench_function(format!("{name}_x{rows}"), |b| {
            b.iter(|| {
                let tape = circ.compile(&params).unwrap();
                parallel::map_rows(rows, threads, |_r| {
                    adjoint::backward_expectations_z_tape(&tape, &[], None, &upstream).unwrap()
                })
            })
        });
    }
    group.finish();
}

/// Per-row values: one `Vec` per row.
type Rows = Vec<Vec<f64>>;

/// The paper's decoder sub-circuit at p = 8: RY angle embedding + 5
/// strongly-entangling ring layers on 7 qubits, with per-row angles and
/// upstream gradients.
fn decoder(rows: usize) -> (Circuit, Vec<f64>, Rows, Rows) {
    let n = 7;
    let mut c = Circuit::new(n).expect("valid register");
    c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
        .unwrap();
    c.extend(strongly_entangling_layers(n, 5, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.1 + 0.01 * i as f64).collect();
    let row = |r: usize, scale: f64| -> Vec<f64> {
        (0..n)
            .map(|w| scale * ((r * n + w) as f64 * 0.37).sin())
            .collect()
    };
    let inputs = (0..rows).map(|r| row(r, 1.5)).collect();
    let upstream = (0..rows).map(|r| row(r + rows, 0.5)).collect();
    (c, params, inputs, upstream)
}

/// The per-row dense simulator (`StateVector`, one register per row)
/// against one register bank of all the rows, on one thread: the forward
/// with its `⟨Z⟩` readout at 1, 32 and 256 rows, and the adjoint sweep from
/// the kept final registers at 32 rows. Each iteration is one call over
/// every row, as a quantum layer makes it for one patch.
fn bench_register_bank(c: &mut Criterion) {
    let mut group = c.benchmark_group("register_bank");
    for rows in [1usize, 32, 256] {
        let (circ, params, inputs, _) = decoder(rows);
        let tape = circ.compile_forward(&params).unwrap();
        let n = tape.n_qubits();
        group.bench_function(format!("forward/rows/x{rows}"), |b| {
            let mut z = Vec::with_capacity(rows * n);
            b.iter(|| {
                z.clear();
                for x in &inputs {
                    let state: StateVector = tape.execute_on(x, None).unwrap();
                    z.extend((0..n).map(|w| state.expectation_z(w).unwrap()));
                }
                z.len()
            })
        });
        let lanes: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        group.bench_function(format!("forward/bank/x{rows}"), |b| {
            let (mut bank, mut scratch, mut z) = (
                RegisterBank::zero_state(n, rows).unwrap(),
                BankScratch::default(),
                Vec::new(),
            );
            b.iter(|| {
                bank.reset(n, rows).unwrap();
                bank.execute_tape(&tape, &lanes, &mut scratch).unwrap();
                bank.expectations_z_into(&mut z, &mut scratch);
                z.len()
            })
        });
    }

    let rows = 32;
    let (circ, params, inputs, upstream) = decoder(rows);
    let tape = circ.compile(&params).unwrap();
    let kept: Vec<StateVector> = inputs
        .iter()
        .map(|x| tape.execute_on(x, None).unwrap())
        .collect();
    group.bench_function(format!("adjoint/rows/x{rows}"), |b| {
        b.iter(|| {
            kept.iter()
                .zip(&inputs)
                .zip(&upstream)
                .map(|((ket, x), u)| {
                    adjoint::backward_expectations_z_from(&tape, x, ket.clone(), u)
                        .unwrap()
                        .params[0]
                })
                .sum::<f64>()
        })
    });
    let lanes: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let ups: Vec<&[f64]> = upstream.iter().map(Vec::as_slice).collect();
    let mut scratch = BankScratch::default();
    let mut bank = RegisterBank::zero_state(tape.n_qubits(), rows).unwrap();
    bank.execute_tape(&tape, &lanes, &mut scratch).unwrap();
    group.bench_function(format!("adjoint/bank/x{rows}"), |b| {
        let mut ket = bank.clone();
        b.iter(|| {
            ket.clone_from(&bank);
            adjoint::backward_expectations_z_bank(&tape, &lanes, &mut ket, &ups, &mut scratch)
                .unwrap()[0]
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_adjoint_vs_paramshift,
    bench_batched_adjoint,
    bench_register_bank
);
criterion_main!(benches);
