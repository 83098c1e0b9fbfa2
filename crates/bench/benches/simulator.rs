//! Micro-benchmarks of the statevector simulator: circuit execution cost vs
//! qubit count and vs layer depth (the budget behind every experiment).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqvae_quantum::embed::amplitude_embedding;
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::Circuit;

fn circuit(n_qubits: usize, layers: usize) -> (Circuit, Vec<f64>) {
    let mut c = Circuit::new(n_qubits).expect("valid register");
    c.extend(strongly_entangling_layers(n_qubits, layers, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.1 + 0.01 * i as f64).collect();
    (c, params)
}

fn bench_execution_vs_qubits(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_execution_vs_qubits");
    for n in [4usize, 6, 8, 10] {
        let (circ, params) = circuit(n, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| circ.run_expectations_z(&params, &[], None).unwrap())
        });
    }
    group.finish();
}

fn bench_execution_vs_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_execution_vs_depth");
    for layers in [1usize, 3, 5, 9] {
        let (circ, params) = circuit(7, layers); // the SQ-AE p=8 patch size
        group.bench_with_input(BenchmarkId::from_parameter(layers), &layers, |b, _| {
            b.iter(|| circ.run_expectations_z(&params, &[], None).unwrap())
        });
    }
    group.finish();
}

fn bench_amplitude_embedding(c: &mut Criterion) {
    let features: Vec<f64> = (0..1024).map(|i| (i % 7) as f64 + 0.5).collect();
    c.bench_function("amplitude_embedding_1024", |b| {
        b.iter(|| amplitude_embedding(&features, 10).unwrap())
    });
}

fn bench_probabilities(c: &mut Criterion) {
    let (circ, params) = circuit(10, 3);
    c.bench_function("probabilities_10q", |b| {
        b.iter(|| circ.run_probabilities(&params, &[], None).unwrap())
    });
}

criterion_group!(
    benches,
    bench_execution_vs_qubits,
    bench_execution_vs_depth,
    bench_amplitude_embedding,
    bench_probabilities
);
criterion_main!(benches);
