//! Cross-crate integration tests: the full pipeline from synthetic data
//! through hybrid training to molecule sampling and scoring.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::chem::{properties::DrugProperties, smiles, valence, MoleculeMatrix};
use sqvae::core::{models, sampling, Autoencoder, ParamGroup, TrainConfig, Trainer};
use sqvae::datasets::pdbbind::{generate as gen_pdbbind, PdbbindConfig};
use sqvae::datasets::qm9::{generate as gen_qm9, Qm9Config};
use sqvae::nn::{ExecPolicy, Matrix, Threads};

fn quick(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 8,
        ..TrainConfig::default()
    }
}

#[test]
fn qm9_pipeline_classical_vae() {
    let data = gen_qm9(&Qm9Config {
        n_samples: 48,
        seed: 1,
    });
    let (train, test) = data.shuffle_split(0.85, 0);
    let mut rng = StdRng::seed_from_u64(2);
    let mut model = models::classical_vae(64, 6, &mut rng);
    let hist = Trainer::new(quick(6))
        .train(&mut model, &train, Some(&test))
        .unwrap();
    assert!(hist.final_train_mse().unwrap() < hist.records[0].train_mse);
    assert!(hist.final_test_mse().unwrap().is_finite());
}

#[test]
fn qm9_pipeline_fully_quantum_on_normalized_data() {
    let data = gen_qm9(&Qm9Config {
        n_samples: 32,
        seed: 3,
    })
    .l1_normalized();
    let mut rng = StdRng::seed_from_u64(4);
    let mut model = models::f_bq_vae(64, 2, &mut rng);
    let hist = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: 8,
        quantum_lr: 0.01,
        classical_lr: 0.01,
        ..TrainConfig::default()
    })
    .train(&mut model, &data, None)
    .unwrap();
    // Normalized data + probability outputs: losses live on the 1e-3 scale
    // (the paper's Fig. 4(b) axis) from the very first epoch.
    assert!(hist.records[0].train_mse < 0.05);
    assert!(hist.final_train_mse().unwrap() <= hist.records[0].train_mse + 1e-9);
}

#[test]
fn ligand_pipeline_sq_vae_trains_and_samples() {
    let data = gen_pdbbind(&PdbbindConfig {
        n_samples: 24,
        seed: 5,
    });
    let mut rng = StdRng::seed_from_u64(6);
    let mut model = models::sq_vae(1024, 8, 1, &mut rng);
    let hist = Trainer::new(quick(3))
        .train(&mut model, &data, None)
        .unwrap();
    assert!(hist.final_train_mse().unwrap() < hist.records[0].train_mse);

    let mut srng = StdRng::seed_from_u64(7);
    let out = sampling::sample_molecules(&mut model, 30, 32, None, &mut srng).unwrap();
    assert_eq!(out.attempted, 30);
    // Every surviving molecule is valence-clean, connected, and scorable.
    for m in &out.molecules {
        assert!(valence::valences_ok(m));
        assert!(m.is_connected());
        let p = DrugProperties::compute(m);
        assert!(p.qed > 0.0 && p.qed <= 1.0);
        // And representable as SMILES.
        assert!(smiles::write(m).is_ok());
    }
}

/// The objective `Autoencoder::backward` differentiates: reconstruction MSE
/// plus the Gaussian latent's KL term at weight 1 (zero for AEs). The sampling
/// rng is re-seeded on every call, so a VAE draws the same ε each time.
fn elbo(model: &mut Autoencoder, x: &Matrix) -> f64 {
    let out = model
        .forward_train(x, &mut StdRng::seed_from_u64(9))
        .unwrap();
    let (mse, _) = sqvae::nn::loss::mse(&out.reconstruction, x).unwrap();
    mse + out.kl
}

/// Adds `delta` to the `k`-th quantum parameter scalar, counting across
/// tensors in `parameters_of` order.
fn nudge_quantum_param(model: &mut Autoencoder, k: usize, delta: f64) {
    let mut idx = k;
    for p in model.parameters_of(ParamGroup::Quantum) {
        if idx < p.value.len() {
            p.value.as_mut_slice()[idx] += delta;
            return;
        }
        idx -= p.value.len();
    }
    panic!("quantum parameter {k} out of range");
}

#[test]
fn hybrid_gradients_are_exact_end_to_end() {
    // Central-difference check of every quantum parameter of every quantum
    // factory, through the full Autoencoder (encoder, latent with a fixed ε,
    // decoder): the safety net for any change to the gradient engine.
    type Factory = fn(&mut StdRng) -> Autoencoder;
    let zoo: [(&str, Factory); 6] = [
        ("F-BQ-AE", |r| models::f_bq_ae(16, 1, r)),
        ("F-BQ-VAE", |r| models::f_bq_vae(16, 1, r)),
        ("H-BQ-AE", |r| models::h_bq_ae(16, 1, r)),
        ("H-BQ-VAE", |r| models::h_bq_vae(16, 1, r)),
        ("SQ-AE", |r| models::sq_ae(16, 2, 1, r)),
        ("SQ-VAE", |r| models::sq_vae(16, 2, 1, r)),
    ];
    let x = Matrix::from_fn(2, 16, |r, c| 0.1 + 0.05 * (r * 16 + c) as f64);
    let eps = 1e-5;
    for (name, factory) in zoo {
        let mut model = factory(&mut StdRng::seed_from_u64(8));
        model.set_exec_policy(ExecPolicy {
            threads: Threads::Off,
            ..ExecPolicy::from_env()
        });
        let out = model
            .forward_train(&x, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let (_, grad) = sqvae::nn::loss::mse(&out.reconstruction, &x).unwrap();
        model.backward(&grad).unwrap();
        let analytic: Vec<f64> = model
            .parameters_of(ParamGroup::Quantum)
            .iter()
            .flat_map(|p| p.grad.as_slice().to_vec())
            .collect();
        assert!(!analytic.is_empty(), "{name} has quantum parameters");

        for (k, &a) in analytic.iter().enumerate() {
            nudge_quantum_param(&mut model, k, eps);
            let plus = elbo(&mut model, &x);
            nudge_quantum_param(&mut model, k, -2.0 * eps);
            let minus = elbo(&mut model, &x);
            nudge_quantum_param(&mut model, k, eps);
            let fd = (plus - minus) / (2.0 * eps);
            assert!(
                (a - fd).abs() < 1e-9 * (1.0 + a.abs()),
                "{name}: quantum param {k}: analytic {a} vs fd {fd}"
            );
        }
    }
}

#[test]
fn molecule_matrix_codec_is_faithful_through_the_facade() {
    let mols = sqvae::datasets::pdbbind::generate_molecules(&PdbbindConfig {
        n_samples: 10,
        seed: 10,
    });
    for mol in &mols {
        let mm = MoleculeMatrix::encode(mol, 32).unwrap();
        let back = mm.decode();
        assert_eq!(back.formula(), mol.formula());
        assert_eq!(back.n_bonds(), mol.n_bonds());
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let data = gen_qm9(&Qm9Config {
            n_samples: 16,
            seed: 11,
        });
        let mut rng = StdRng::seed_from_u64(12);
        let mut model = models::h_bq_vae(64, 1, &mut rng);
        let hist = Trainer::new(quick(2))
            .train(&mut model, &data, None)
            .unwrap();
        let mut srng = StdRng::seed_from_u64(13);
        let out = sampling::sample_molecules(&mut model, 5, 8, None, &mut srng).unwrap();
        (hist, out.molecules)
    };
    let (h1, m1) = run();
    let (h2, m2) = run();
    assert_eq!(h1, h2);
    assert_eq!(m1, m2);
}

#[test]
fn patched_latent_dims_match_the_paper_through_the_facade() {
    for (p, lsd) in [(2usize, 18usize), (4, 32), (8, 56), (16, 96)] {
        assert_eq!(sqvae::core::patched_latent_dim(1024, p), lsd);
    }
}
