//! Fig. 7 — heterogeneous learning-rate grid.
//!
//! Trains the SQ-AE under every combination of quantum × classical learning
//! rate in {0.001, 0.003, 0.01, 0.03, 0.1} and reports final train MSE.
//! The paper's optimum is quantum 0.03 / classical 0.01 — off the diagonal,
//! which is the whole argument for heterogeneous rates (§III-C).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_bench::{print_table_with_csv, section, ExpArgs};
use sqvae_core::{models, TrainConfig, Trainer};
use sqvae_datasets::pdbbind::{generate, PdbbindConfig};

const RATES: [f64; 5] = [0.001, 0.003, 0.01, 0.03, 0.1];

fn main() {
    let args = ExpArgs::parse(std::env::args().skip(1));
    let epochs = args.pick(3, 10);
    let n = args.pick(64, 2492);
    let layers = args.pick(2, 5);
    let patches = 8;

    let data = generate(&PdbbindConfig {
        n_samples: n,
        seed: args.seed,
    });
    let (train, _) = data.shuffle_split(0.85, args.seed);

    section(
        format!(
            "Fig. 7: SQ-AE (p={patches}, L={layers}) train MSE over quantum x classical LR grid"
        )
        .as_str(),
    );

    let mut rows = Vec::new();
    let mut best = (f64::INFINITY, 0.0, 0.0);
    for &clr in &RATES {
        let mut row = vec![format!("c={clr}")];
        for &qlr in &RATES {
            let mut rng = StdRng::seed_from_u64(args.seed);
            let mut model = models::sq_ae(1024, patches, layers, &mut rng);
            let hist = Trainer::new(TrainConfig {
                epochs,
                quantum_lr: qlr,
                classical_lr: clr,
                seed: args.seed,
                ..TrainConfig::default()
            })
            .train(&mut model, &train, None)
            .expect("training succeeds");
            let mse = hist.final_train_mse().expect("non-empty history");
            if mse < best.0 {
                best = (mse, qlr, clr);
            }
            row.push(format!("{mse:.4}"));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("cls \\ qnt".to_string())
        .chain(RATES.iter().map(|r| format!("q={r}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table_with_csv("fig7_learning_rate_grid", &header_refs, &rows);
    println!(
        "  best: train MSE {:.4} at quantum lr {} / classical lr {} (paper: 0.03 / 0.01)",
        best.0, best.1, best.2
    );
}
