//! Fig. 5 — why the baseline quantum autoencoder does not scale.
//!
//! * Panel (a): reconstruction MSE per epoch of F-BQ-AE (10D), H-BQ-AE
//!   (10D), and the classical AE (10D) on 32×32 PDBbind-like ligands — the
//!   fully quantum variant barely learns, the hybrid sits between.
//! * Panel (b): test MSE at the final epoch vs latent space dimension
//!   {10, 16, 32, 64, 128} for classical AEs and VAEs — AEs improve with
//!   LSD, VAEs stay almost flat.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_bench::{print_series, print_table, section, ExpArgs};
use sqvae_core::{models, TrainConfig, Trainer};
use sqvae_datasets::pdbbind::{generate, PdbbindConfig};

fn main() {
    let args = ExpArgs::parse(std::env::args().skip(1));
    let epochs = args.pick(6, 20);
    let n = args.pick(120, 2492);

    let data = generate(&PdbbindConfig {
        n_samples: n,
        seed: args.seed,
    });
    let (train, test) = data.shuffle_split(0.85, args.seed);

    if args.wants_panel("a") {
        section("Fig. 5(a): baselines on PDBbind ligands (train MSE per epoch, LSD 10)");
        let config = || TrainConfig {
            epochs,
            quantum_lr: 0.01,
            classical_lr: 0.01,
            seed: args.seed,
            ..TrainConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(args.seed);

        // Fully quantum on normalized data (probabilities cannot reach the
        // original code scale — exactly the paper's point).
        let mut fbq = models::f_bq_ae(1024, models::BASELINE_LAYERS, &mut rng);
        let hist = Trainer::new(config())
            .train(&mut fbq, &train, None)
            .expect("training succeeds");
        print_series("F-BQ-AE 10D", &hist.train_mse_series());

        let mut hbq = models::h_bq_ae(1024, models::BASELINE_LAYERS, &mut rng);
        let hist = Trainer::new(config())
            .train(&mut hbq, &train, None)
            .expect("training succeeds");
        print_series("H-BQ-AE 10D", &hist.train_mse_series());

        let mut ae = models::classical_ae(1024, 10, &mut rng);
        let hist = Trainer::new(config())
            .train(&mut ae, &train, None)
            .expect("training succeeds");
        print_series("AE 10D", &hist.train_mse_series());
        println!("  expected shape: F-BQ-AE stuck high, H-BQ-AE between, AE lowest");
    }

    if args.wants_panel("b") {
        section("Fig. 5(b): final test MSE vs latent space dimension (classical AE/VAE)");
        let mut rows = Vec::new();
        for &lsd in &[10usize, 16, 32, 64, 128] {
            let mut rng = StdRng::seed_from_u64(args.seed);
            let mut ae = models::classical_ae(1024, lsd, &mut rng);
            let ae_hist = Trainer::new(TrainConfig {
                epochs,
                seed: args.seed,
                ..TrainConfig::default()
            })
            .train(&mut ae, &train, Some(&test))
            .expect("training succeeds");
            let mut vae = models::classical_vae(1024, lsd, &mut rng);
            let vae_hist = Trainer::new(TrainConfig {
                epochs,
                seed: args.seed,
                ..TrainConfig::default()
            })
            .train(&mut vae, &train, Some(&test))
            .expect("training succeeds");
            rows.push(vec![
                lsd.to_string(),
                format!(
                    "{:.4}",
                    ae_hist.final_test_mse().expect("test set supplied")
                ),
                format!(
                    "{:.4}",
                    vae_hist.final_test_mse().expect("test set supplied")
                ),
            ]);
        }
        print_table(&["LSD", "AE-test-MSE", "VAE-test-MSE"], &rows);
        println!("  expected shape: AE improves with larger LSD, VAE nearly flat");
    }
}
