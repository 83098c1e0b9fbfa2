//! Fig. 8 — the scalable quantum autoencoders at work.
//!
//! * Panel (a): final train MSE vs latent space dimension on PDBbind-like
//!   ligands for VAE, SQ-VAE, and SQ-AE (LSD from patches 2/4/8/16).
//! * Panel (b): train MSE per epoch on grayscale CIFAR-like 32×32 images
//!   (SQ-VAE, CVAE, SQ-AE, CAE at LSD 18).
//! * Panel (c): three test images and their classical-AE vs SQ-AE
//!   reconstructions as ASCII art.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_bench::{
    ascii_image, ascii_side_by_side, batch_matrix, print_series, print_table, section, ExpArgs,
};
use sqvae_core::{models, patched_latent_dim, TrainConfig, Trainer};
use sqvae_datasets::cifar_gray::{generate as gen_cifar, CifarGrayConfig};
use sqvae_datasets::pdbbind::{generate as gen_pdbbind, PdbbindConfig};

fn main() {
    let args = ExpArgs::parse(std::env::args().skip(1));
    let epochs = args.pick(4, 20);
    let layers = args.pick(2, models::SCALABLE_LAYERS);

    if args.wants_panel("a") {
        section("Fig. 8(a): final train MSE vs LSD on PDBbind ligands");
        let data = gen_pdbbind(&PdbbindConfig {
            n_samples: args.pick(96, 2492),
            seed: args.seed,
        });
        let (train, _) = data.shuffle_split(0.85, args.seed);
        let mut rows = Vec::new();
        for &p in &[2usize, 4, 8, 16] {
            let lsd = patched_latent_dim(1024, p);
            let run = |mut model: sqvae_core::Autoencoder| -> f64 {
                Trainer::new(TrainConfig {
                    epochs,
                    seed: args.seed,
                    ..TrainConfig::default()
                })
                .train(&mut model, &train, None)
                .expect("training succeeds")
                .final_train_mse()
                .expect("non-empty history")
            };
            let mut rng = StdRng::seed_from_u64(args.seed);
            let vae = run(models::classical_vae(1024, lsd, &mut rng));
            let sq_vae = run(models::sq_vae(1024, p, layers, &mut rng));
            let sq_ae = run(models::sq_ae(1024, p, layers, &mut rng));
            rows.push(vec![
                format!("{lsd} (p={p})"),
                format!("{vae:.4}"),
                format!("{sq_vae:.4}"),
                format!("{sq_ae:.4}"),
            ]);
        }
        print_table(&["LSD", "VAE", "SQ-VAE", "SQ-AE"], &rows);
        println!("  expected shape: SQ variants on par with classical; SQ-AE ≤ SQ-VAE");
    }

    let cifar = gen_cifar(&CifarGrayConfig {
        n_samples: args.pick(96, 500),
        seed: args.seed,
    });
    let (train_img, test_img) = cifar.shuffle_split(0.85, args.seed);
    let p_img = 2; // LSD 18, as in the paper's panel (b)

    if args.wants_panel("b") {
        section("Fig. 8(b): train MSE per epoch on grayscale CIFAR images (LSD 18)");
        let run = |mut model: sqvae_core::Autoencoder| -> Vec<f64> {
            Trainer::new(TrainConfig {
                epochs,
                seed: args.seed,
                ..TrainConfig::default()
            })
            .train(&mut model, &train_img, None)
            .expect("training succeeds")
            .train_mse_series()
        };
        let mut rng = StdRng::seed_from_u64(args.seed);
        print_series(
            "SQ-VAE",
            &run(models::sq_vae(1024, p_img, layers, &mut rng)),
        );
        print_series("CVAE", &run(models::classical_vae(1024, 18, &mut rng)));
        print_series("SQ-AE", &run(models::sq_ae(1024, p_img, layers, &mut rng)));
        print_series("CAE", &run(models::classical_ae(1024, 18, &mut rng)));
        println!("  expected shape: AEs below VAEs; quantum on par with classical");
    }

    if args.wants_panel("c") {
        section("Fig. 8(c): CIFAR reconstructions — input | classical AE | SQ-AE");
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut cae = models::classical_ae(1024, 18, &mut rng);
        let mut sq = models::sq_ae(1024, p_img, layers, &mut rng);
        for model in [&mut cae, &mut sq] {
            Trainer::new(TrainConfig {
                epochs,
                seed: args.seed,
                ..TrainConfig::default()
            })
            .train(model, &train_img, None)
            .expect("training succeeds");
        }
        for i in 0..3.min(test_img.len()) {
            let x = batch_matrix(&[test_img.sample(i)]);
            let rc = cae.reconstruct(&x).expect("reconstruction succeeds");
            let rq = sq.reconstruct(&x).expect("reconstruction succeeds");
            let art_in = ascii_image(test_img.sample(i), 32, 1.0);
            let art_c = ascii_image(rc.row(0), 32, 1.0);
            let art_q = ascii_image(rq.row(0), 32, 1.0);
            println!("  test image {i}: input | classical AE:");
            print!("{}", ascii_side_by_side(&art_in, &art_c));
            println!("  test image {i}: input | SQ-AE:");
            print!("{}", ascii_side_by_side(&art_in, &art_q));
        }
        println!("  expected shape: both reconstructions show sketches of the input");
    }
}
