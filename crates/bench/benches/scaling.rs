//! Backend scaling sweep: forward readout, probability readout, and a
//! batched tape adjoint pass over 4–14 qubits on both simulator backends
//! (dense, soa). EXPERIMENTS.md records the measured sweep; the SoA
//! backend's packed split-plane kernels pull ahead of the dense interleaved
//! kernels on forward passes and readouts as the register outgrows the
//! cache (12–14 qubits).

use criterion::{criterion_group, criterion_main, Criterion};
use sqvae_quantum::backend::{Backend, DenseBackend, SoaDenseBackend};
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

fn bench_forward_on<B: Backend>(group: &mut criterion::BenchmarkGroup<'_>, n: usize) {
    let (c, params, rows) = circuit(n);
    let tape = c.compile(&params).unwrap();
    group.bench_function(format!("{}/{n}q", B::NAME), |b| {
        b.iter(|| tape.expectations_z_on::<B>(&rows[0], None).unwrap())
    });
}

fn bench_probabilities_on<B: Backend>(group: &mut criterion::BenchmarkGroup<'_>, n: usize) {
    let (c, params, rows) = circuit(n);
    let tape = c.compile(&params).unwrap();
    let mut out = Vec::new();
    group.bench_function(format!("{}/{n}q", B::NAME), |b| {
        b.iter(|| {
            tape.probabilities_into_on::<B>(&rows[0], None, &mut out)
                .unwrap();
            out.last().copied()
        })
    });
}

fn bench_adjoint_on<B: Backend>(group: &mut criterion::BenchmarkGroup<'_>, n: usize) {
    let (c, params, rows) = circuit(n);
    let tape = c.compile(&params).unwrap();
    let upstream = vec![1.0f64; n];
    group.bench_function(format!("{}/{n}q", B::NAME), |b| {
        b.iter(|| {
            rows.iter()
                .map(|row| {
                    adjoint::backward_expectations_z_tape::<B>(&tape, row, None, &upstream)
                        .unwrap()
                        .params[0]
                })
                .sum::<f64>()
        })
    });
}

fn bench_scaling_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_forward");
    group.sample_size(10);
    for n in QUBITS {
        bench_forward_on::<DenseBackend>(&mut group, n);
        bench_forward_on::<SoaDenseBackend>(&mut group, n);
    }
    group.finish();
}

fn bench_scaling_probabilities(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_probabilities");
    group.sample_size(10);
    for n in QUBITS {
        bench_probabilities_on::<DenseBackend>(&mut group, n);
        bench_probabilities_on::<SoaDenseBackend>(&mut group, n);
    }
    group.finish();
}

fn bench_scaling_adjoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_adjoint_batch4");
    group.sample_size(10);
    for n in QUBITS {
        bench_adjoint_on::<DenseBackend>(&mut group, n);
        bench_adjoint_on::<SoaDenseBackend>(&mut group, n);
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
