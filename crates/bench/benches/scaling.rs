//! Register scaling sweep: per-row forward readout, probability readout,
//! and a batch of four re-executing tape adjoint passes over 4–14 qubits on
//! the dense statevector simulator. EXPERIMENTS.md records the measured
//! sweep: each pass takes about 4.5–5× longer per two added qubits (four
//! times the amplitudes, and more gates per layer).

use criterion::{criterion_group, criterion_main, Criterion};
use sqvae_quantum::embed::{angle_embedding_gates, RotationAxis};
use sqvae_quantum::grad::adjoint;
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::Circuit;

const QUBITS: [usize; 6] = [4, 6, 8, 10, 12, 14];
const LAYERS: usize = 3;
const BATCH: usize = 4;

/// The paper's encoder shape at width `n`: angle embedding plus
/// strongly-entangling layers, so the sweep exercises late-bound inputs,
/// fusible single-qubit runs, and the CNOT ring at every size.
fn circuit(n: usize) -> (Circuit, Vec<f64>, Vec<Vec<f64>>) {
    let mut c = Circuit::new(n).expect("valid register");
    c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
        .unwrap();
    c.extend(strongly_entangling_layers(n, LAYERS, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.1 + 0.01 * i as f64).collect();
    let rows: Vec<Vec<f64>> = (0..BATCH)
        .map(|r| {
            (0..n)
                .map(|i| 0.2 * (r + 1) as f64 - 0.07 * i as f64)
                .collect()
        })
        .collect();
    (c, params, rows)
}

fn bench_scaling_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_forward");
    group.sample_size(10);
    for n in QUBITS {
        let (circ, params, rows) = circuit(n);
        let tape = circ.compile(&params).unwrap();
        group.bench_function(format!("dense/{n}q"), |b| {
            b.iter(|| tape.expectations_z_on(&rows[0], None).unwrap())
        });
    }
    group.finish();
}

fn bench_scaling_probabilities(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_probabilities");
    group.sample_size(10);
    for n in QUBITS {
        let (circ, params, rows) = circuit(n);
        let tape = circ.compile(&params).unwrap();
        let mut out = Vec::new();
        group.bench_function(format!("dense/{n}q"), |b| {
            b.iter(|| {
                tape.execute_on(&rows[0], None)
                    .unwrap()
                    .probabilities_into(&mut out);
                out.last().copied()
            })
        });
    }
    group.finish();
}

fn bench_scaling_adjoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_adjoint_batch4");
    group.sample_size(10);
    for n in QUBITS {
        let (circ, params, rows) = circuit(n);
        let tape = circ.compile(&params).unwrap();
        let upstream = vec![1.0f64; n];
        group.bench_function(format!("dense/{n}q"), |b| {
            b.iter(|| {
                rows.iter()
                    .map(|row| {
                        adjoint::backward_expectations_z_tape(&tape, row, None, &upstream)
                            .unwrap()
                            .params[0]
                    })
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scaling_forward,
    bench_scaling_probabilities,
    bench_scaling_adjoint
);
criterion_main!(benches);
