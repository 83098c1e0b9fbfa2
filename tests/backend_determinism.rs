//! Backend × thread-count invariance of the training pipeline.
//!
//! For a **fixed** simulator backend, training must be bit-identical across
//! every `SQVAE_THREADS` setting (extending `tests/parallel_determinism.rs`
//! to the SoA backend and the parallel patch bank). **Across** backends,
//! the SoA kernels reorder floating-point arithmetic, so runs agree to high
//! precision rather than bit-for-bit; short trainings stay within tight
//! tolerances.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqvae_core::{
    models, Autoencoder, BackendKind, ExecPolicy, ParamGroup, QuantumInput, QuantumLayer,
    QuantumOutput, Threads, TrainConfig, Trainer,
};
use sqvae_datasets::Dataset;
use sqvae_nn::{Matrix, Module};

fn toy_dataset(n: usize, width: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_samples(
        (0..n)
            .map(|_| (0..width).map(|_| rng.gen_range(0.0..2.0)).collect())
            .collect(),
    )
    .expect("non-empty")
}

/// Trains a small model and returns (per-epoch train MSEs, final parameter
/// values of both groups).
fn train_with(
    make: fn(&mut StdRng) -> Autoencoder,
    backend: BackendKind,
    threads: Threads,
) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = make(&mut rng);
    model.set_exec_policy(ExecPolicy { threads, backend });
    let data = toy_dataset(10, 16, 12);
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 4,
        ..TrainConfig::default()
    });
    let history = trainer.train(&mut model, &data, None).unwrap();
    let params: Vec<f64> = [ParamGroup::Quantum, ParamGroup::Classical]
        .into_iter()
        .flat_map(|g| {
            model
                .parameters_of(g)
                .iter()
                .flat_map(|p| p.value.as_slice().to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    (history.train_mse_series(), params)
}

fn assert_backend_thread_matrix(make: fn(&mut StdRng) -> Autoencoder) {
    for backend in [BackendKind::Dense, BackendKind::Soa] {
        let baseline = train_with(make, backend, Threads::Off);
        assert_eq!(baseline.0.len(), 2);
        assert!(baseline.1.iter().all(|v| v.is_finite()));
        // Fixed backend: every thread policy reproduces the sequential run
        // bit for bit.
        for threads in [Threads::Fixed(1), Threads::Fixed(4), Threads::Auto] {
            let run = train_with(make, backend, threads);
            assert_eq!(
                run, baseline,
                "{backend:?} × {threads:?} diverged from its sequential run"
            );
        }
    }
    // Across backends: same physics, reordered arithmetic. Two short epochs
    // keep the drift many orders below anything training-relevant.
    let dense = train_with(make, BackendKind::Dense, Threads::Off);
    let soa = train_with(make, BackendKind::Soa, Threads::Off);
    for (a, b) in dense.0.iter().zip(&soa.0) {
        assert!((a - b).abs() < 1e-9, "soa epoch MSE {a} vs {b}");
    }
    for (a, b) in dense.1.iter().zip(&soa.1) {
        assert!((a - b).abs() < 1e-9, "soa final param {a} vs {b}");
    }
}

#[test]
fn every_factory_model_starts_from_the_environment_policy() {
    let mut rng = StdRng::seed_from_u64(1);
    for model in [
        models::classical_ae(16, 3, &mut rng),
        models::classical_vae(16, 3, &mut rng),
        models::f_bq_ae(16, 1, &mut rng),
        models::f_bq_vae(16, 1, &mut rng),
        models::h_bq_ae(16, 1, &mut rng),
        models::h_bq_vae(16, 1, &mut rng),
        models::sq_ae(16, 2, 1, &mut rng),
        models::sq_vae(16, 2, 1, &mut rng),
    ] {
        assert_eq!(
            model.exec_policy(),
            ExecPolicy::from_env(),
            "{}",
            model.name
        );
    }
}

#[test]
fn hybrid_model_is_invariant_across_the_backend_thread_matrix() {
    assert_backend_thread_matrix(|rng| models::h_bq_ae(16, 1, rng));
}

#[test]
fn patched_model_is_invariant_across_the_backend_thread_matrix() {
    // Also exercises the parallel patch bank: patches × rows are sharded
    // through one flattened work list.
    assert_backend_thread_matrix(|rng| models::sq_ae(16, 2, 1, rng));
}

#[test]
fn evaluation_is_backend_consistent() {
    let data = toy_dataset(8, 16, 31);
    let evaluate = |backend: BackendKind| {
        let mut rng = StdRng::seed_from_u64(30);
        let mut model = models::sq_vae(16, 2, 1, &mut rng);
        model.set_exec_policy(ExecPolicy {
            threads: Threads::Fixed(3),
            backend,
        });
        Trainer::evaluate_batched(&mut model, &data, 4).unwrap()
    };
    let dense = evaluate(BackendKind::Dense);
    assert!(dense.is_finite());
    let soa = evaluate(BackendKind::Soa);
    assert!((dense - soa).abs() < 1e-10, "soa: {dense} vs {soa}");
}

#[test]
fn tape_reuse_matrix_is_deterministic() {
    // Each batch pass compiles the circuit once and replays the shared tape
    // on every row (PR 6 tentpole). Two guarantees, across the full
    // backend × thread-count matrix: (a) duplicated input rows produce
    // bitwise-identical output and gradient rows — they replay the same
    // tape — and (b) every cell with the same backend reproduces the
    // sequential pass bit for bit, tape sharing included.
    let x = Matrix::from_fn(6, 3, |i, j| 0.21 * ((i % 3) as f64) - 0.13 * (j as f64));
    let g = Matrix::from_fn(6, 3, |i, j| 0.17 * ((i % 3) as f64) + 0.05 * (j as f64));
    // Rows 0..3 repeat as rows 3..6 (both in inputs and upstream grads).
    for backend in [BackendKind::Dense, BackendKind::Soa] {
        let run = |threads: Threads| {
            let mut rng = StdRng::seed_from_u64(17);
            let mut layer = QuantumLayer::new(
                3,
                2,
                QuantumInput::Angle,
                QuantumOutput::ExpectationZ,
                &mut rng,
            );
            layer.set_exec_policy(ExecPolicy { threads, backend });
            let y = layer.forward(&x).unwrap();
            let gin = layer.backward(&g).unwrap();
            let grads = layer.parameters()[0].grad.clone();
            (y, gin, grads)
        };
        let baseline = run(Threads::Off);
        let (y, gin, _) = &baseline;
        for r in 0..3 {
            assert_eq!(y.row(r), y.row(r + 3), "{backend:?} duplicated row {r}");
            assert_eq!(
                gin.row(r),
                gin.row(r + 3),
                "{backend:?} duplicated grad row {r}"
            );
        }
        for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
            assert_eq!(
                run(threads),
                baseline,
                "{backend:?} × {threads:?} diverged from the sequential tape replay"
            );
        }
    }
}
