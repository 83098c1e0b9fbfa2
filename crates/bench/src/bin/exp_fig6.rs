//! Fig. 6 — quantum layer-depth sensitivity.
//!
//! Sweeps the SQ-AE's strongly-entangling layer count L from 1 to 9 and
//! reports train/test MSE after 5 and 10 epochs. The paper finds a sweet
//! spot around L = 5: too shallow lacks expressive power, too deep breeds
//! spurious local minima (You & Wu 2021).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_bench::{print_table_with_csv, section, ExpArgs};
use sqvae_core::{models, TrainConfig, Trainer};
use sqvae_datasets::pdbbind::{generate, PdbbindConfig};

fn main() {
    let args = ExpArgs::parse(std::env::args().skip(1));
    let epochs = 10; // the paper probes epochs 5 and 10 at both scales
    let probe = 5;
    let n = args.pick(128, 2492);
    let patches = 8; // LSD 56, the Table II sweet spot

    let data = generate(&PdbbindConfig {
        n_samples: n,
        seed: args.seed,
    });
    let (train, test) = data.shuffle_split(0.85, args.seed);

    section(format!(
        "Fig. 6: SQ-AE (p={patches}) layer-depth sweep, train/test MSE @ epochs {probe} and {epochs}"
    )
    .as_str());

    let mut rows = Vec::new();
    for layers in 1..=9usize {
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut model = models::sq_ae(1024, patches, layers, &mut rng);
        let hist = Trainer::new(TrainConfig {
            epochs,
            // The paper tunes depth at a homogeneous LR of 0.001 (§IV-B).
            quantum_lr: 0.001,
            classical_lr: 0.001,
            seed: args.seed,
            ..TrainConfig::default()
        })
        .train(&mut model, &train, Some(&test))
        .expect("training succeeds");
        let early = hist.at_epoch(probe - 1).expect("probe within epochs");
        let late = hist.records.last().expect("non-empty history");
        rows.push(vec![
            layers.to_string(),
            format!("{:.4}", early.train_mse),
            format!("{:.4}", early.test_mse.expect("test set supplied")),
            format!("{:.4}", late.train_mse),
            format!("{:.4}", late.test_mse.expect("test set supplied")),
        ]);
    }
    print_table_with_csv(
        "fig6_depth_sweep",
        &[
            "layers",
            &format!("train@{probe}"),
            &format!("test@{probe}"),
            &format!("train@{epochs}"),
            &format!("test@{epochs}"),
        ],
        &rows,
    );
    println!("  expected shape: loss minimized at mid depth (paper: L = 5)");
}
