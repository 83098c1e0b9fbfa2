//! Train-step throughput per model family (one forward+backward+step over a
//! small batch) — the cost model behind the experiment harness's quick/full
//! scales — plus sequential-vs-parallel batching at batch size 32 (the
//! row-sharding path; `Threads::Auto` should win wall-clock on any
//! multi-core runner while staying bit-identical), and the SQ-VAE(1024)
//! decoder's `Linear(56, 1024)` on one thread and on the compute pool.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_core::{models, Autoencoder, ExecPolicy, Threads, TrainConfig, Trainer};
use sqvae_datasets::Dataset;
use sqvae_nn::{Linear, Matrix, Module};

fn toy_dataset(n: usize, width: usize) -> Dataset {
    Dataset::from_samples(
        (0..n)
            .map(|i| (0..width).map(|j| ((i + j) % 5) as f64).collect())
            .collect(),
    )
    .expect("non-empty")
}

fn one_epoch(model: &mut Autoencoder, data: &Dataset, batch_size: usize, threads: Threads) {
    model.set_exec_policy(ExecPolicy {
        threads,
        ..ExecPolicy::from_env()
    });
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size,
        ..TrainConfig::default()
    });
    trainer.train(model, data, None).expect("training succeeds");
}

fn bench_training_steps(c: &mut Criterion) {
    let small = toy_dataset(16, 64);
    let large = toy_dataset(8, 1024);

    c.bench_function("epoch_classical_ae_64d", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = models::classical_ae(64, 6, &mut rng);
        b.iter(|| one_epoch(&mut model, &small, 8, Threads::Off))
    });

    c.bench_function("epoch_h_bq_ae_64d", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = models::h_bq_ae(64, 3, &mut rng);
        b.iter(|| one_epoch(&mut model, &small, 8, Threads::Off))
    });

    c.bench_function("epoch_sq_ae_1024d_p8", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = models::sq_ae(1024, 8, 2, &mut rng);
        b.iter(|| one_epoch(&mut model, &large, 8, Threads::Off))
    });

    c.bench_function("epoch_sq_vae_1024d_p16", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = models::sq_vae(1024, 16, 2, &mut rng);
        b.iter(|| one_epoch(&mut model, &large, 8, Threads::Off))
    });
}

/// Sequential vs row-sharded epochs at batch size 32: the direct measurement
/// behind the "parallel batching" ROADMAP item.
fn bench_parallel_batching(c: &mut Criterion) {
    let data32 = toy_dataset(32, 64);
    let large32 = toy_dataset(32, 1024);
    let mut group = c.benchmark_group("parallel_batching");

    for (name, threads) in [("seq", Threads::Off), ("auto", Threads::Auto)] {
        group.bench_function(format!("h_bq_ae_64d_b32_{name}"), |b| {
            let mut rng = StdRng::seed_from_u64(0);
            let mut model = models::h_bq_ae(64, 3, &mut rng);
            b.iter(|| one_epoch(&mut model, &data32, 32, threads))
        });
        group.bench_function(format!("sq_ae_1024d_p8_b32_{name}"), |b| {
            let mut rng = StdRng::seed_from_u64(0);
            let mut model = models::sq_ae(1024, 8, 2, &mut rng);
            b.iter(|| one_epoch(&mut model, &large32, 32, threads))
        });
    }
    group.finish();
}

/// The SQ-VAE(1024) decoder's `Linear(56, 1024)`: the forward of a
/// 256-latent screening batch and the backward of a 32-row training batch,
/// sequential (`off`) and under the default policy (`default`, the compute
/// pool for these shapes). The pair's ratio is the sharding's gain.
fn bench_linear(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear");
    let x256 = Matrix::filled(256, 56, 0.5);
    let x32 = Matrix::filled(32, 56, 0.5);
    let g32 = Matrix::filled(32, 1024, 0.01);
    for (name, policy) in [
        (
            "off",
            ExecPolicy {
                threads: Threads::Off,
                ..ExecPolicy::from_env()
            },
        ),
        ("default", ExecPolicy::from_env()),
    ] {
        let mut layer = Linear::new(56, 1024, &mut StdRng::seed_from_u64(0));
        layer.set_exec_policy(policy);
        group.bench_function(format!("fwd_56x1024_x256_{name}"), |b| {
            b.iter(|| layer.infer(&x256).expect("shapes match"))
        });
        layer.forward(&x32).expect("shapes match");
        group.bench_function(format!("bwd_56x1024_x32_{name}"), |b| {
            b.iter(|| layer.backward(&g32).expect("a forward ran"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_training_steps, bench_parallel_batching, bench_linear
}
criterion_main!(benches);
