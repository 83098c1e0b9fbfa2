//! Fig. 4 — baseline quantum autoencoders vs classical VAEs on 8×8 data.
//!
//! * Panel (a): train MSE per epoch on *original-scale* Digits and QM9 —
//!   the paper sees no quantum advantage here (probability outputs cannot
//!   reach original scales; the hybrid FC has to do the work).
//! * Panel (b): the same on *L1-normalized* inputs — the regime where
//!   BQ-VAE learns faster than the classical VAE.
//! * Panel (c,d): digit reconstructions/samples and a QM9 molecule
//!   reconstruction from original vs normalized inputs, as ASCII art and
//!   SMILES.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_bench::{ascii_image, ascii_side_by_side, batch_matrix, print_series, section, ExpArgs};
use sqvae_chem::{smiles, MoleculeMatrix};
use sqvae_core::{models, Autoencoder, TrainConfig, Trainer};
use sqvae_datasets::digits::{generate as gen_digits, DigitsConfig};
use sqvae_datasets::qm9::{generate as gen_qm9, Qm9Config};
use sqvae_datasets::Dataset;

fn train_curve(model: &mut Autoencoder, data: &Dataset, epochs: usize, args: &ExpArgs) -> Vec<f64> {
    let mut trainer = Trainer::new(TrainConfig {
        epochs,
        // The paper's Fig. 4 training uses a single LR of 0.01 for curve
        // comparison; heterogeneous rates are introduced later (Fig. 7).
        quantum_lr: 0.01,
        classical_lr: 0.01,
        seed: args.seed,
        ..TrainConfig::default()
    });
    trainer
        .train(model, data, None)
        .expect("training succeeds")
        .train_mse_series()
}

fn main() {
    let args = ExpArgs::parse(std::env::args().skip(1));
    let epochs = args.pick(8, 20);
    let n = args.pick(160, 1000);

    let digits = gen_digits(&DigitsConfig {
        n_samples: n,
        seed: args.seed,
    });
    let qm9 = gen_qm9(&Qm9Config {
        n_samples: n,
        seed: args.seed,
    });

    if args.wants_panel("a") {
        section("Fig. 4(a): train MSE on ORIGINAL-scale Digits & QM9 (per epoch)");
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut bq_qm9 = models::h_bq_vae(64, models::BASELINE_LAYERS, &mut rng);
        print_series("BQ-VAE-QM9", &train_curve(&mut bq_qm9, &qm9, epochs, &args));
        let mut cvae_qm9 = models::classical_vae(64, 6, &mut rng);
        print_series("CVAE-QM9", &train_curve(&mut cvae_qm9, &qm9, epochs, &args));
        let mut bq_dig = models::h_bq_vae(64, models::BASELINE_LAYERS, &mut rng);
        print_series(
            "BQ-VAE-Digits",
            &train_curve(&mut bq_dig, &digits, epochs, &args),
        );
        let mut cvae_dig = models::classical_vae(64, 6, &mut rng);
        print_series(
            "CVAE-Digits",
            &train_curve(&mut cvae_dig, &digits, epochs, &args),
        );
        println!("  expected shape: classical VAE reaches lower loss at original scale");
    }

    if args.wants_panel("b") {
        section("Fig. 4(b): train MSE on L1-NORMALIZED Digits & QM9 (per epoch)");
        let qm9_n = qm9.l1_normalized();
        let digits_n = digits.l1_normalized();
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut bq_qm9 = models::f_bq_vae(64, models::BASELINE_LAYERS, &mut rng);
        print_series(
            "BQ-VAE-QM9",
            &train_curve(&mut bq_qm9, &qm9_n, epochs, &args),
        );
        let mut cvae_qm9 = models::classical_vae(64, 6, &mut rng);
        print_series(
            "CVAE-QM9",
            &train_curve(&mut cvae_qm9, &qm9_n, epochs, &args),
        );
        let mut bq_dig = models::f_bq_vae(64, models::BASELINE_LAYERS, &mut rng);
        print_series(
            "BQ-VAE-Digits",
            &train_curve(&mut bq_dig, &digits_n, epochs, &args),
        );
        let mut cvae_dig = models::classical_vae(64, 6, &mut rng);
        print_series(
            "CVAE-Digits",
            &train_curve(&mut cvae_dig, &digits_n, epochs, &args),
        );
        println!("  expected shape: fully quantum BQ-VAE converges faster when normalized");
    }

    if args.wants_panel("cd") || args.wants_panel("c") || args.wants_panel("d") {
        section("Fig. 4(c): digit inputs, BQ-VAE reconstructions, and samples");
        let digits_n = digits.l1_normalized();
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut bq = models::f_bq_vae(64, models::BASELINE_LAYERS, &mut rng);
        args.train_or_restore("fig4c-fbq-digits", &mut bq, |m| {
            train_curve(m, &digits_n, epochs, &args);
        });
        for i in 0..3 {
            let x = batch_matrix(&[digits_n.sample(i)]);
            let recon = bq.reconstruct(&x).expect("reconstruction succeeds");
            let max_in = digits_n.sample(i).iter().cloned().fold(0.0f64, f64::max);
            let max_out = recon.row(0).iter().cloned().fold(0.0f64, f64::max);
            let left = ascii_image(digits_n.sample(i), 8, max_in.max(1e-12));
            let right = ascii_image(recon.row(0), 8, max_out.max(1e-12));
            println!("  input {i} (left) vs reconstruction (right):");
            print!("{}", ascii_side_by_side(&left, &right));
        }
        let mut srng = StdRng::seed_from_u64(args.seed + 2);
        let samples = bq.sample(3, &mut srng).expect("sampling succeeds");
        for i in 0..3 {
            let max = samples.row(i).iter().cloned().fold(0.0f64, f64::max);
            println!("  BQ-VAE sample {i}:");
            print!("{}", ascii_image(samples.row(i), 8, max.max(1e-12)));
        }

        section("Fig. 4(d): QM9 molecule reconstruction, original vs normalized input");
        let mol_feats = qm9.sample(0);
        let input_mol = MoleculeMatrix::from_values(8, mol_feats.to_vec())
            .expect("8x8 features")
            .decode();
        println!(
            "  input molecule: {} ({})",
            smiles::write(&input_mol).unwrap_or_else(|_| "-".into()),
            input_mol.formula()
        );
        // Original-scale reconstruction through the hybrid baseline.
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut hbq = models::h_bq_vae(64, models::BASELINE_LAYERS, &mut rng);
        args.train_or_restore("fig4d-hbq-qm9", &mut hbq, |m| {
            train_curve(m, &qm9, epochs, &args);
        });
        match sqvae_core::sampling::reconstruct_molecule(&mut hbq, &input_mol, 8, false, None) {
            Ok(Some(m)) => println!(
                "  reconstructed (original scale): {} ({})",
                smiles::write(&m).unwrap_or_else(|_| "-".into()),
                m.formula()
            ),
            _ => println!("  reconstructed (original scale): <empty decode>"),
        }
        // Normalized-input reconstruction through the fully quantum model;
        // rescale by the input's L1 norm for decoding.
        let qm9_n = qm9.l1_normalized();
        let mut fbq = models::f_bq_vae(64, models::BASELINE_LAYERS, &mut rng);
        args.train_or_restore("fig4d-fbq-qm9", &mut fbq, |m| {
            train_curve(m, &qm9_n, epochs, &args);
        });
        let l1: f64 = mol_feats.iter().sum();
        match sqvae_core::sampling::reconstruct_molecule(&mut fbq, &input_mol, 8, true, Some(l1)) {
            Ok(Some(m)) => println!(
                "  reconstructed (normalized):     {} ({})",
                smiles::write(&m).unwrap_or_else(|_| "-".into()),
                m.formula()
            ),
            _ => println!("  reconstructed (normalized):     <empty decode>"),
        }
        println!("  expected shape: normalized reconstruction barely resembles the input");
    }
}
