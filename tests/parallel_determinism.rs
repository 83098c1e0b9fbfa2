//! Thread-count invariance of the training pipeline.
//!
//! The parallel batching path (PR 2 tentpole) shards batch rows across OS
//! threads in the quantum layers' forward and adjoint backward passes. These
//! tests pin the central guarantee: training histories, parameters, and
//! gradients are **bit-identical** for `Threads::Off`, `Fixed(1)`, and
//! `Fixed(4)` on the same seed, for both the hybrid baseline and the
//! patched scalable model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqvae_core::{
    models, Autoencoder, ExecPolicy, History, ParamGroup, QuantumInput, QuantumLayer,
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

/// Everything a run can observably produce: the per-epoch history plus the
/// final parameter values and leftover gradients of both groups.
#[derive(Debug, PartialEq)]
struct RunArtifacts {
    history: History,
    params: Vec<Vec<f64>>,
    grads: Vec<Vec<f64>>,
}

fn train_with(make: fn(&mut StdRng) -> Autoencoder, threads: Threads) -> RunArtifacts {
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = make(&mut rng);
    model.set_exec_policy(ExecPolicy {
        threads,
        ..ExecPolicy::from_env()
    });
    let data = toy_dataset(12, 16, 8);
    let (train, test) = data.shuffle_split(0.75, 0);
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 4,
        ..TrainConfig::default()
    });
    let history = trainer.train(&mut model, &train, Some(&test)).unwrap();
    let collect = |model: &mut Autoencoder, grad: bool| {
        [ParamGroup::Quantum, ParamGroup::Classical]
            .into_iter()
            .flat_map(|g| {
                model
                    .parameters_of(g)
                    .iter()
                    .map(|p| {
                        if grad {
                            p.grad.as_slice().to_vec()
                        } else {
                            p.value.as_slice().to_vec()
                        }
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let params = collect(&mut model, false);
    let grads = collect(&mut model, true);
    RunArtifacts {
        history,
        params,
        grads,
    }
}

fn assert_thread_count_invariant(make: fn(&mut StdRng) -> Autoencoder) {
    let baseline = train_with(make, Threads::Off);
    assert_eq!(baseline.history.records.len(), 2);
    assert!(baseline.params.iter().flatten().all(|v| v.is_finite()));
    assert!(baseline
        .grads
        .iter()
        .any(|g| g.iter().any(|v| v.abs() > 0.0)));
    for threads in [Threads::Fixed(1), Threads::Fixed(4), Threads::Auto] {
        let run = train_with(make, threads);
        assert_eq!(
            run, baseline,
            "{threads:?} diverged from the sequential path"
        );
    }
}

#[test]
fn hybrid_model_training_is_thread_count_invariant() {
    assert_thread_count_invariant(|rng| models::h_bq_ae(16, 1, rng));
}

#[test]
fn patched_model_training_is_thread_count_invariant() {
    assert_thread_count_invariant(|rng| models::sq_ae(16, 2, 1, rng));
}

#[test]
fn patched_vae_training_is_thread_count_invariant() {
    // The VAE exercises the reparametrization RNG too: the trainer's RNG
    // stream must not depend on the thread count.
    assert_thread_count_invariant(|rng| models::sq_vae(16, 2, 1, rng));
}

#[test]
fn evaluation_is_thread_count_invariant() {
    let data = toy_dataset(10, 16, 21);
    let evaluate = |threads: Threads| {
        let mut rng = StdRng::seed_from_u64(20);
        let mut model = models::h_bq_ae(16, 1, &mut rng);
        model.set_exec_policy(ExecPolicy {
            threads,
            ..ExecPolicy::from_env()
        });
        Trainer::evaluate_batched(&mut model, &data, 4).unwrap()
    };
    let seq = evaluate(Threads::Off);
    assert!(seq.is_finite());
    assert_eq!(evaluate(Threads::Fixed(4)), seq);
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
fn tape_reuse_matrix_is_deterministic() {
    // Each batch pass compiles the circuit once and replays the shared tape
    // on every row. Two guarantees across the thread-count matrix: (a)
    // duplicated input rows produce bitwise-identical output and gradient
    // rows, since they replay the same tape, and (b) every thread count
    // reproduces the sequential pass bit for bit, tape sharing included.
    let x = Matrix::from_fn(6, 3, |i, j| 0.21 * ((i % 3) as f64) - 0.13 * (j as f64));
    let g = Matrix::from_fn(6, 3, |i, j| 0.17 * ((i % 3) as f64) + 0.05 * (j as f64));
    // Rows 0..3 repeat as rows 3..6 (both in inputs and upstream grads).
    let run = |threads: Threads| {
        let mut rng = StdRng::seed_from_u64(17);
        let mut layer = QuantumLayer::new(
            3,
            2,
            QuantumInput::Angle,
            QuantumOutput::ExpectationZ,
            &mut rng,
        );
        layer.set_exec_policy(ExecPolicy {
            threads,
            ..ExecPolicy::from_env()
        });
        let y = layer.forward(&x).unwrap();
        let gin = layer.backward(&g).unwrap();
        let grads = layer.parameters()[0].grad.clone();
        (y, gin, grads)
    };
    let baseline = run(Threads::Off);
    let (y, gin, _) = &baseline;
    for r in 0..3 {
        assert_eq!(y.row(r), y.row(r + 3), "duplicated row {r}");
        assert_eq!(gin.row(r), gin.row(r + 3), "duplicated grad row {r}");
    }
    for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
        assert_eq!(
            run(threads),
            baseline,
            "{threads:?} diverged from the sequential tape replay"
        );
    }
}
