//! Table II — drug properties (QED / logP / SA, normalized) of ligands
//! sampled from VAEs and SQ-VAEs with LSD ∈ {18, 32, 56, 96} after training
//! on PDBbind-like ligands.
//!
//! Shape expectation (paper): SQ-VAE matches or beats VAE on most columns
//! at small LSD (e.g. logP/SA at LSD-18, QED at LSD-56); VAE's logP/SA rise
//! with LSD.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_bench::{print_table_with_csv, section, ExpArgs};
use sqvae_core::{models, patched_latent_dim, sampling, TrainConfig, Trainer};
use sqvae_datasets::pdbbind::{generate, generate_molecules, PdbbindConfig, PDBBIND_MATRIX_SIZE};

fn main() {
    let args = ExpArgs::parse(std::env::args().skip(1));
    let n_train = args.pick(128, 2118); // 85% of 2492 at full scale
    let epochs = args.pick(10, 20);
    let n_samples = args.pick(200, 1000);

    let data = generate(&PdbbindConfig {
        n_samples: args.pick(151, 2492),
        seed: args.seed,
    });
    let (train, _) = data.shuffle_split(n_train as f64 / data.len() as f64, args.seed);

    section("Table II: drug properties of sampled ligands (normalized QED/logP/SA)");
    println!(
        "  ({} train ligands, {} epochs, {} samples per model)",
        train.len(),
        epochs,
        n_samples
    );

    let training_molecules = generate_molecules(&PdbbindConfig {
        n_samples: args.pick(151, 2492),
        seed: args.seed,
    });

    let mut rows = Vec::new();
    let mut quality_rows = Vec::new();
    for &p in &[2usize, 4, 8, 16] {
        let lsd = patched_latent_dim(1024, p);
        let mut rng = StdRng::seed_from_u64(args.seed);

        // Classical VAE at the matching LSD.
        let mut vae = models::classical_vae(1024, lsd, &mut rng);
        args.train_or_restore(&format!("vae-lsd{lsd}"), &mut vae, |m| {
            let mut trainer = Trainer::new(TrainConfig {
                epochs,
                ..TrainConfig::default()
            });
            trainer
                .train(m, &train, None)
                .expect("classical training succeeds");
        });
        let mut srng = StdRng::seed_from_u64(args.seed + 1);
        let v =
            sampling::sample_molecules(&mut vae, n_samples, PDBBIND_MATRIX_SIZE, None, &mut srng)
                .expect("sampling succeeds");

        // SQ-VAE with p patches.
        let mut sq = models::sq_vae(1024, p, args.pick(2, models::SCALABLE_LAYERS), &mut rng);
        args.train_or_restore(&format!("sq-lsd{lsd}"), &mut sq, |m| {
            let mut trainer = Trainer::new(TrainConfig {
                epochs,
                ..TrainConfig::default()
            });
            trainer
                .train(m, &train, None)
                .expect("quantum training succeeds");
        });
        let mut srng = StdRng::seed_from_u64(args.seed + 1);
        let q =
            sampling::sample_molecules(&mut sq, n_samples, PDBBIND_MATRIX_SIZE, None, &mut srng)
                .expect("sampling succeeds");

        rows.push(vec![
            format!("LSD-{lsd}"),
            format!("{:.3}", v.properties.qed),
            format!("{:.3}", q.properties.qed),
            format!("{:.3}", v.properties.logp),
            format!("{:.3}", q.properties.logp),
            format!("{:.3}", v.properties.sa),
            format!("{:.3}", q.properties.sa),
            format!("{:.2}", v.validity),
            format!("{:.2}", q.validity),
        ]);

        // Extension: MolGAN-style generation-quality metrics.
        let vm = sampling::generation_metrics(&v, &training_molecules);
        let qm = sampling::generation_metrics(&q, &training_molecules);
        for (name, m) in [("VAE", vm), ("SQ-VAE", qm)] {
            quality_rows.push(vec![
                format!("LSD-{lsd} {name}"),
                format!("{:.2}", m.uniqueness),
                format!("{:.2}", m.novelty),
                format!("{:.2}", m.diversity),
                format!("{:.2}", m.lipinski),
            ]);
        }
    }
    print_table_with_csv(
        "table2_drug_properties",
        &[
            "LSD",
            "VAE-QED",
            "SQVAE-QED",
            "VAE-logP",
            "SQVAE-logP",
            "VAE-SA",
            "SQVAE-SA",
            "VAE-valid",
            "SQVAE-valid",
        ],
        &rows,
    );
    println!();
    println!("  paper (QED): VAE .138/.179/.139/.142  SQ-VAE .153/.177/.204/.167");
    println!("  paper (logP): VAE .357/.472/.496/.761 SQ-VAE .780/.616/.709/.740");
    println!("  paper (SA):  VAE .192/.292/.307/.599  SQ-VAE .626/.479/.534/.547");

    section("Extension: generation quality (uniqueness / novelty / diversity / Lipinski)");
    print_table_with_csv(
        "table2_generation_quality",
        &["model", "unique", "novel", "diverse", "lipinski"],
        &quality_rows,
    );
}
