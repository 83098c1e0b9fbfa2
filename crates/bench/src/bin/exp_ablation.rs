//! Ablations of the paper's three architectural choices (DESIGN.md §7):
//!
//! 1. **Heterogeneous vs homogeneous learning rates** — SQ-AE trained with
//!    (q=0.03, c=0.01) against the same rate for both groups.
//! 2. **Patched vs baseline circuit** — SQ-AE (LSD 56) against H-BQ-AE
//!    (LSD 10) on the same ligands: the input-output mapping constraint in
//!    action.
//! 3. **Gradient engines** — numerical agreement of adjoint,
//!    parameter-shift, and finite differences on an SQ-AE patch circuit
//!    (why the adjoint path is trusted for training).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_bench::{print_series, print_table, section, ExpArgs};
use sqvae_core::{models, TrainConfig, Trainer};
use sqvae_datasets::pdbbind::{generate, PdbbindConfig};
use sqvae_quantum::embed::{angle_embedding_gates, RotationAxis};
use sqvae_quantum::grad::{adjoint, finite_diff, paramshift};
use sqvae_quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae_quantum::Circuit;

fn main() {
    let args = ExpArgs::parse(std::env::args().skip(1));
    let epochs = args.pick(6, 20);
    let n = args.pick(96, 2492);
    let layers = args.pick(2, models::SCALABLE_LAYERS);

    let data = generate(&PdbbindConfig {
        n_samples: n,
        seed: args.seed,
    });
    let (train, _) = data.shuffle_split(0.85, args.seed);

    if args.wants_panel("lr") {
        section("Ablation 1: heterogeneous vs homogeneous learning rates (SQ-AE p=8)");
        for (label, qlr, clr) in [
            ("hetero q=0.03/c=0.01", 0.03, 0.01),
            ("homog  q=c=0.01", 0.01, 0.01),
            ("homog  q=c=0.03", 0.03, 0.03),
        ] {
            let mut rng = StdRng::seed_from_u64(args.seed);
            let mut model = models::sq_ae(1024, 8, layers, &mut rng);
            let hist = Trainer::new(TrainConfig {
                epochs,
                quantum_lr: qlr,
                classical_lr: clr,
                seed: args.seed,
                ..TrainConfig::default()
            })
            .train(&mut model, &train, None)
            .expect("training succeeds");
            print_series(label, &hist.train_mse_series());
        }
    }

    if args.wants_panel("patch") {
        section("Ablation 2: patched (SQ-AE, LSD 56) vs baseline (H-BQ-AE, LSD 10)");
        let mut rows = Vec::new();
        for (label, build) in [
            (
                "H-BQ-AE LSD 10",
                Box::new(|rng: &mut StdRng| models::h_bq_ae(1024, 3, rng))
                    as Box<dyn Fn(&mut StdRng) -> sqvae_core::Autoencoder>,
            ),
            (
                "SQ-AE   LSD 56",
                Box::new(move |rng: &mut StdRng| models::sq_ae(1024, 8, layers, rng)),
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(args.seed);
            let mut model = build(&mut rng);
            let pc = model.parameter_count();
            let hist = Trainer::new(TrainConfig {
                epochs,
                seed: args.seed,
                ..TrainConfig::default()
            })
            .train(&mut model, &train, None)
            .expect("training succeeds");
            rows.push(vec![
                label.to_string(),
                pc.quantum.to_string(),
                format!("{:.4}", hist.records[0].train_mse),
                format!("{:.4}", hist.final_train_mse().expect("non-empty")),
            ]);
        }
        print_table(&["model", "q-params", "epoch-0 MSE", "final MSE"], &rows);
        println!("  expected: the patched model's 5.6x larger latent space wins");
    }

    if args.wants_panel("grad") {
        section("Ablation 3: gradient-engine agreement on an SQ patch circuit");
        let n_qubits = 7; // the p=8 patch size
        let mut c = Circuit::new(n_qubits).expect("valid register");
        c.extend(angle_embedding_gates(n_qubits, RotationAxis::Y, 0))
            .expect("embedding fits");
        c.extend(
            strongly_entangling_layers(n_qubits, 3, 0, EntangleRange::Ring).expect("template fits"),
        )
        .expect("template fits");
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.03 * i as f64 - 0.9).collect();
        let inputs: Vec<f64> = (0..n_qubits).map(|i| 0.2 * i as f64).collect();
        let upstream: Vec<f64> = (0..n_qubits).map(|i| 1.0 - 0.1 * i as f64).collect();

        let adj = adjoint::backward_expectations_z(&c, &params, &inputs, None, &upstream)
            .expect("adjoint succeeds");
        let ps = paramshift::vjp_expectations_z(&c, &params, &inputs, None, &upstream)
            .expect("parameter shift succeeds");
        let fd = finite_diff::jacobian_params(&c, &params, &inputs, None, 1e-6, |s| {
            (0..n_qubits)
                .map(|w| s.expectation_z(w).expect("wire in range"))
                .collect()
        })
        .expect("finite differences succeed");
        let fd_vjp: Vec<f64> = fd
            .iter()
            .map(|row| row.iter().zip(&upstream).map(|(j, u)| j * u).sum())
            .collect();

        let max_diff = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max)
        };
        let rows = vec![
            vec![
                "adjoint vs param-shift".to_string(),
                format!("{:.2e}", max_diff(&adj.params, &ps.params)),
            ],
            vec![
                "adjoint vs finite-diff".to_string(),
                format!("{:.2e}", max_diff(&adj.params, &fd_vjp)),
            ],
        ];
        print_table(&["engine pair", "max |Δgrad|"], &rows);
        println!(
            "  ({} trainable parameters; agreement at machine/step precision)",
            params.len()
        );
    }
}
