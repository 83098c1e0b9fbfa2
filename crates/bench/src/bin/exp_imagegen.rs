//! Extension experiment: image *generation* from the SQ-VAE latent prior.
//!
//! The paper's conclusion notes that "the proposed scalable quantum
//! autoencoder also applies to other tasks such as image generation"; this
//! binary demonstrates it. An SQ-VAE is trained on grayscale CIFAR-like
//! images, then brand-new images are decoded from `z ~ N(0, I)` and
//! rendered as ASCII art, alongside distribution statistics comparing
//! generated pixels to the training set.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_bench::{ascii_image, print_table_with_csv, section, ExpArgs};
use sqvae_core::{models, TrainConfig, Trainer};
use sqvae_datasets::cifar_gray::{generate, CifarGrayConfig};
use sqvae_datasets::digits::{generate as gen_digits, DigitsConfig};

fn pixel_stats(samples: &[Vec<f64>]) -> (f64, f64) {
    let n: usize = samples.iter().map(|s| s.len()).sum();
    let mean: f64 = samples.iter().flatten().sum::<f64>() / n as f64;
    let var: f64 = samples
        .iter()
        .flatten()
        .map(|x| (x - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    (mean, var.sqrt())
}

fn main() {
    let args = ExpArgs::parse(std::env::args().skip(1));
    let epochs = args.pick(6, 20);

    section("Extension: SQ-VAE image generation (grayscale CIFAR-like, LSD 18)");
    let data = generate(&CifarGrayConfig {
        n_samples: args.pick(96, 500),
        seed: args.seed,
    });
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut model = models::sq_vae(1024, 2, args.pick(2, models::SCALABLE_LAYERS), &mut rng);
    let hist = Trainer::new(TrainConfig {
        epochs,
        seed: args.seed,
        max_grad_norm: Some(5.0),
        ..TrainConfig::default()
    })
    .train(&mut model, &data, None)
    .expect("training succeeds");
    println!(
        "  trained {} for {epochs} epochs: MSE {:.4} -> {:.4}",
        model.name,
        hist.records[0].train_mse,
        hist.final_train_mse().expect("non-empty history"),
    );

    let mut srng = StdRng::seed_from_u64(args.seed + 1);
    let images = model.sample(3, &mut srng).expect("sampling succeeds");
    for i in 0..3 {
        println!("  generated image {i}:");
        print!("{}", ascii_image(images.row(i), 32, 1.0));
    }

    let gen_rows: Vec<Vec<f64>> = (0..images.rows()).map(|r| images.row(r).to_vec()).collect();
    let (gm, gs) = pixel_stats(&gen_rows);
    let (tm, ts) = pixel_stats(data.samples());
    print_table_with_csv(
        "imagegen_pixel_stats",
        &["set", "pixel mean", "pixel std"],
        &[
            vec!["training".into(), format!("{tm:.3}"), format!("{ts:.3}")],
            vec!["generated".into(), format!("{gm:.3}"), format!("{gs:.3}")],
        ],
    );

    section("Extension: F-BQ-VAE digit generation (fully quantum prior samples)");
    let digits = gen_digits(&DigitsConfig {
        n_samples: args.pick(120, 500),
        seed: args.seed,
    })
    .l1_normalized();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut fbq = models::f_bq_vae(64, models::BASELINE_LAYERS, &mut rng);
    Trainer::new(TrainConfig {
        epochs,
        quantum_lr: 0.01,
        classical_lr: 0.01,
        seed: args.seed,
        ..TrainConfig::default()
    })
    .train(&mut fbq, &digits, None)
    .expect("training succeeds");
    let mut srng = StdRng::seed_from_u64(args.seed + 2);
    let samples = fbq.sample(3, &mut srng).expect("sampling succeeds");
    for i in 0..3 {
        let max = samples.row(i).iter().cloned().fold(1e-12f64, f64::max);
        println!("  generated digit {i}:");
        print!("{}", ascii_image(samples.row(i), 8, max));
    }
}
