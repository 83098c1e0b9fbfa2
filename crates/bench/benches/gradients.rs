//! Adjoint vs parameter-shift gradient cost — the ablation justifying the
//! adjoint engine as the training path (parameter-shift re-executes the
//! circuit twice per parameter; adjoint is one backward sweep) — plus
//! sequential vs row-sharded batches of compiled-tape adjoint passes (the
//! quantum layers' backward hot path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqvae_nn::parallel::{self, Threads};
use sqvae_quantum::grad::{adjoint, paramshift};
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::{Circuit, DenseBackend};

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

/// A batch of 32 adjoint passes against one compiled tape, sequential vs
/// sharded across threads: a quantum layer compiles its circuit once per
/// batch, then executes and sweeps the tape per row.
fn bench_batched_adjoint(c: &mut Criterion) {
    let (circ, params, upstream) = circuit(6, 3);
    let rows = 32usize;
    let mut group = c.benchmark_group("batched_adjoint");
    for (name, threads) in [("seq", Threads::Off), ("auto", Threads::Auto)] {
        group.bench_function(format!("{name}_x{rows}"), |b| {
            b.iter(|| {
                let tape = circ.compile(&params).unwrap();
                parallel::map_rows(rows, threads, |_r| {
                    adjoint::backward_expectations_z_tape::<DenseBackend>(
                        &tape,
                        &[],
                        None,
                        &upstream,
                    )
                    .unwrap()
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_adjoint_vs_paramshift, bench_batched_adjoint);
criterion_main!(benches);
