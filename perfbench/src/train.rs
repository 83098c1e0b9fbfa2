//! `train-ligand-32x32` and `train-qm9-8x8`: one `Trainer` per model,
//! called with `epochs: 1` over and over (Adam state carries over), with
//! the trainer's shipped defaults.
//!
//! The traced run re-drives the same epochs through the trainer's public
//! steps (`forward_train`, `loss::mse`, `backward`, two `Adam::step`s,
//! `ParamSnapshot::capture`) and must reproduce the untraced losses bit for
//! bit.

use crate::common::{self, mix, repeated_setup, timed, Ctx, Outcome, Timings};
use crate::probes::{self, Arch};
use crate::stats::median;
use crate::trace::{self, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::core::checkpoint::{self, ParamSnapshot};
use sqvae::core::models::{ModelSpec, BASELINE_LAYERS, SCALABLE_LAYERS};
use sqvae::core::{Autoencoder, History, ParamGroup, TrainConfig, Trainer};
use sqvae::datasets::{pdbbind, qm9, Dataset};
use sqvae::nn::{loss, Adam, Matrix, NnError, Optimizer};
use std::time::Instant;

/// Where a workload's training rows come from.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// PDBbind-like ligands, 32x32 matrices.
    Ligand(usize),
    /// QM9-like molecules, 8x8 matrices.
    Qm9(usize),
}

impl Data {
    fn generate(self, seed: u64) -> Dataset {
        match self {
            Data::Ligand(n_samples) => {
                pdbbind::generate(&pdbbind::PdbbindConfig { n_samples, seed })
            }
            Data::Qm9(n_samples) => qm9::generate(&qm9::Qm9Config { n_samples, seed }),
        }
    }
}

/// A training workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Models trained in turn, one epoch each.
    pub models: &'static [ModelSpec],
    /// Training set.
    pub data: Data,
    /// Highest percentile the epoch-time tail may be read at.
    pub tail_cap: f64,
}

/// SQ-VAE(1024, p=8, L=5) on 128 ligands.
pub const LIGAND: Spec = Spec {
    models: &[ModelSpec::SqVae {
        input_dim: 1024,
        p: 8,
        n_layers: SCALABLE_LAYERS,
    }],
    data: Data::Ligand(128),
    tail_cap: 75.0,
};

/// H-BQ-VAE(64, L=3) and SQ-VAE(64, p=2, L=5), alternating, on 512 QM9
/// molecules.
pub const QM9: Spec = Spec {
    models: &[
        ModelSpec::HBqVae {
            input_dim: 64,
            n_layers: BASELINE_LAYERS,
        },
        ModelSpec::SqVae {
            input_dim: 64,
            p: 2,
            n_layers: SCALABLE_LAYERS,
        },
    ],
    data: Data::Qm9(512),
    tail_cap: 75.0,
};

/// Stage spans of one traced epoch; whatever they leave uncovered is
/// `trainer.other`.
const STAGES: [&str; 5] = [
    "trainer.forward",
    "trainer.loss",
    "trainer.backward",
    "trainer.optim",
    "trainer.snapshot",
];

/// The trainer configuration of every workload epoch.
fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        seed: mix(seed, 2),
        ..TrainConfig::default()
    }
}

fn build_models(spec: &Spec, seed: u64) -> Vec<Autoencoder> {
    spec.models
        .iter()
        .enumerate()
        .map(|(i, m)| m.build(&mut StdRng::seed_from_u64(mix(seed, 10 + i as u64))))
        .collect()
}

struct Setup {
    data: Dataset,
    models: Vec<Autoencoder>,
    trainers: Vec<Trainer>,
    /// Losses of the warm-up epochs, one per model.
    warm_loss: Vec<f64>,
    gen_ms: f64,
}

/// Generates the data, builds the models, and trains each one warm-up
/// epoch, which fills every lazy cache before timing starts.
fn setup(spec: &Spec, seed: u64) -> Setup {
    let (data, gen_ms) = timed(|| spec.data.generate(mix(seed, 1)));
    let mut models = build_models(spec, seed);
    let mut trainers: Vec<Trainer> = models.iter().map(|_| Trainer::new(config(seed))).collect();
    let warm_loss = models
        .iter_mut()
        .zip(&mut trainers)
        .map(|(m, t)| epoch_loss(t.train(m, &data, None)))
        .collect();
    Setup {
        data,
        models,
        trainers,
        warm_loss,
        gen_ms,
    }
}

/// The loss of a one-epoch `Trainer::train` call; NaN when it failed or
/// the trainer had to roll back a divergence.
fn epoch_loss(hist: Result<History, NnError>) -> f64 {
    match hist {
        Ok(h) if h.anomalies.is_empty() => h.final_train_mse().unwrap_or(f64::NAN),
        _ => f64::NAN,
    }
}

/// One epoch of `Trainer::train` with `epochs: 1`, step by step, for a
/// healthy run (a non-finite loss or gradient, which the trainer would
/// roll back, is an error here).
struct Redrive {
    cfg: TrainConfig,
    quantum: Adam,
    classical: Adam,
}

impl Redrive {
    fn new(cfg: &TrainConfig) -> Self {
        Redrive {
            cfg: cfg.clone(),
            quantum: Adam::new(cfg.quantum_lr),
            classical: Adam::new(cfg.classical_lr),
        }
    }

    fn epoch(
        &mut self,
        model: &mut Autoencoder,
        data: &Dataset,
        tracer: &mut Tracer,
        group: u64,
    ) -> Result<f64, NnError> {
        let open = tracer.begin("trainer.epoch", group);
        let out = self.epoch_body(model, data, tracer, group);
        tracer.end(open);
        out
    }

    fn epoch_body(
        &mut self,
        model: &mut Autoencoder,
        data: &Dataset,
        tracer: &mut Tracer,
        g: u64,
    ) -> Result<f64, NnError> {
        let diverged = NnError::NonFinite {
            epoch: 0,
            recoveries: 0,
        };
        model.set_exec_policy(self.cfg.exec_policy());
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut last_good = tracer.span("trainer.snapshot", g, || ParamSnapshot::capture(model));
        let shuffled = data.shuffled(self.cfg.seed);
        let (mut sum, mut seen) = (0.0, 0usize);
        for batch in shuffled.batches(self.cfg.batch_size) {
            let x = Matrix::from_rows(&batch)?;
            model.zero_grad();
            let out = tracer.span("trainer.forward", g, || model.forward_train(&x, &mut rng))?;
            let (mse, grad) =
                tracer.span("trainer.loss", g, || loss::mse(&out.reconstruction, &x))?;
            if !mse.is_finite() || !out.kl.is_finite() {
                return Err(diverged);
            }
            tracer.span("trainer.backward", g, || model.backward(&grad))?;
            let finite = [ParamGroup::Quantum, ParamGroup::Classical]
                .into_iter()
                .all(|group| {
                    model
                        .parameters_of(group)
                        .iter()
                        .all(|p| p.grad.as_slice().iter().all(|v| v.is_finite()))
                });
            if !finite {
                return Err(diverged);
            }
            tracer.span("trainer.optim", g, || {
                self.quantum
                    .step(&mut model.parameters_of(ParamGroup::Quantum))?;
                self.classical
                    .step(&mut model.parameters_of(ParamGroup::Classical))
            })?;
            sum += mse * batch.len() as f64;
            seen += batch.len();
            last_good = tracer.span("trainer.snapshot", g, || ParamSnapshot::capture(model));
        }
        drop(last_good);
        Ok(sum / seen.max(1) as f64)
    }
}

/// Runs a training workload.
///
/// Every run re-drives the warm-up epochs from fresh models and compares
/// losses bit for bit. A traced run also re-drives each timed epoch right
/// after the trainer ran it, so traced and untraced epochs share the same
/// stretch of machine time.
pub fn run(spec: &Spec, ctx: &Ctx) -> Outcome {
    let (mut s, setup) = repeated_setup(|| setup(spec, ctx.seed));
    let cfg = config(ctx.seed);
    let m = spec.models.len();
    let mut out = Outcome {
        setup_s: setup.ref_s,
        setup_wall_s: setup.wall_s,
        correct: true,
        failed: s.warm_loss.iter().filter(|l| !l.is_finite()).count() as u64,
        ..Outcome::default()
    };
    let mut fresh = build_models(spec, ctx.seed);
    let mut drives: Vec<Redrive> = fresh.iter().map(|_| Redrive::new(&cfg)).collect();
    let mut tracer = Tracer::new(ctx.trace, ctx.origin);
    let mut redrive = |k: usize, want: f64, tracer: &mut Tracer, out: &mut Outcome| {
        let loss = drives[k % m].epoch(&mut fresh[k % m], &s.data, tracer, k as u64);
        if loss.map(f64::to_bits) != Ok(want.to_bits()) {
            out.correct = false;
            out.failed += 1;
        }
    };
    for (k, &want) in s.warm_loss.iter().enumerate() {
        redrive(k, want, &mut tracer, &mut out);
    }
    let mut epochs = Timings::default();
    let deadline = Instant::now() + ctx.budget(1.0);
    while epochs.len() < 2 * m || Instant::now() < deadline {
        let k = m + epochs.len();
        let i = k % m;
        let loss = epoch_loss(epochs.time(|| s.trainers[i].train(&mut s.models[i], &s.data, None)));
        out.failed += u64::from(!loss.is_finite());
        if ctx.trace {
            redrive(k, loss, &mut tracer, &mut out);
        }
    }
    out.attempted = (m + epochs.len()) as u64;
    epochs.summarize_into(&mut out, 0, s.data.len() as f64, spec.tail_cap);
    out.named = vec![
        ("train_rows_per_s", out.items_per_s, "1/s"),
        ("epoch_ms_p50", out.op_ms.p50, "ms"),
        ("epoch_ms_tail", out.op_ms.tail, "ms"),
    ];
    if ctx.trace {
        layer_metrics(spec, ctx, &mut out, &tracer, &epochs.wall, &mut fresh, &s);
        out.tracer = Some(tracer);
    }
    out
}

/// Per-layer metrics from the traced epochs and the standalone probes.
fn layer_metrics(
    spec: &Spec,
    ctx: &Ctx,
    out: &mut Outcome,
    tracer: &Tracer,
    untraced_ms: &[f64],
    models: &mut [Autoencoder],
    s: &Setup,
) {
    let m = spec.models.len();
    let spans = tracer.spans();
    // Epoch groups past the warm-up epochs.
    let epochs: Vec<f64> = trace::durations_ms(spans, "trainer.epoch").split_off(m);
    let n = epochs.len();
    let stage_ms: Vec<Vec<f64>> = STAGES
        .iter()
        .map(|name| trace::self_ms_by_group(spans, name).split_off(m))
        .collect();
    let covered: Vec<f64> = (0..n)
        .map(|e| stage_ms.iter().map(|st| st[e]).sum())
        .collect();
    let l = &mut out.layers;
    for (name, per_epoch) in [
        "trainer.forward_ms",
        "trainer.loss_ms",
        "trainer.backward_ms",
        "trainer.optim_ms",
        "trainer.snapshot_ms",
    ]
    .into_iter()
    .zip(&stage_ms)
    {
        l.insert(name, median(per_epoch));
    }
    let other: Vec<f64> = epochs.iter().zip(&covered).map(|(e, c)| e - c).collect();
    l.insert("trainer.other_ms", median(&other));
    let coverage: Vec<f64> = epochs
        .iter()
        .zip(&covered)
        .map(|(e, c)| 100.0 * c / e)
        .collect();
    l.insert("trace.coverage_pct", median(&coverage));
    let untraced = median(untraced_ms);
    l.insert(
        "trace.overhead_pct",
        100.0 * (median(&epochs) - untraced) / untraced,
    );
    l.insert(
        "optim.step_us",
        median(&trace::durations_ms(spans, "trainer.optim")) * 1e3,
    );

    // Standalone probes, averaged over the workload's models.
    let policy = config(ctx.seed).exec_policy();
    let batch = TrainConfig::default().batch_size;
    let x = Matrix::from_rows(&s.data.batches(batch)[0]).expect("uniform width");
    let mut acc = std::collections::BTreeMap::<&'static str, f64>::new();
    for model in models.iter_mut() {
        let arch: Arch = probes::arch(model.spec().expect("factory models carry a spec"));
        let z = model.encode(&x).expect("batch fits the model");
        let (ef, eb) = probes::qlayer_ms(&arch.enc, policy, &x, 5);
        let (df, db) = probes::qlayer_ms(&arch.dec, policy, &z, 5);
        let (ie, id) = (
            probes::sim_row(&arch.enc, &x),
            probes::sim_row(&arch.dec, &z),
        );
        let (lf, lb) = probes::linear_us(&arch.linears, batch, 20);
        let mut rows = 0.0;
        let mut bytes = 0.0;
        let mut dispatch = 0.0;
        for (stage, sim) in [(&arch.enc, &ie), (&arch.dec, &id)] {
            let stage_rows = (stage.patches * batch) as f64;
            rows += 2.0 * stage_rows;
            bytes += stage_rows
                * (16u64 << stage.n_qubits) as f64
                * (sim.fwd_passes + sim.adj_passes) as f64;
            dispatch += probes::dispatch_us(stage.patches * batch, policy.threads, 20) / 2.0;
        }
        let compiles = 2.0 * (arch.enc.patches + arch.dec.patches) as f64;
        let compile_us =
            (probes::compile_us(&arch.enc, 20) + probes::compile_us(&arch.dec, 20)) / 2.0;
        for (k, v) in [
            ("qlayer.enc_fwd_ms", ef),
            ("qlayer.enc_bwd_ms", eb),
            ("qlayer.dec_fwd_ms", df),
            ("qlayer.dec_bwd_ms", db),
            ("sim.row_fwd_us", (ie.fwd_us + id.fwd_us) / 2.0),
            ("sim.row_adj_us", (ie.adj_us + id.adj_us) / 2.0),
            ("sim.rows", rows),
            ("sim.bytes_computed", bytes),
            ("tape.compile_us", compile_us),
            ("tape.compiles_per_batch", compiles),
            ("parallel.dispatch_us", dispatch),
            ("parallel.calls_per_batch", 4.0),
            ("linear.fwd_us", lf),
            ("linear.bwd_us", lb),
        ] {
            *acc.entry(k).or_default() += v / m as f64;
        }
    }
    l.extend(acc);
    let (save_ms, load_ms) = checkpoint_ms(&mut models[0], ctx);
    l.insert("checkpoint.save_ms", save_ms);
    l.insert("checkpoint.load_ms", load_ms);
    l.insert("datasets.gen_ms", s.gen_ms);
}

/// Median save and load time (ms) of `model`'s checkpoint.
pub fn checkpoint_ms(model: &mut Autoencoder, ctx: &Ctx) -> (f64, f64) {
    let path = ctx
        .out_dir
        .join(format!("probe-{}.ckpt", std::process::id()));
    let save = common::median_us_of(3, || {
        checkpoint::save_model(model, ctx.seed, &path).expect("out dir is writable");
    });
    let load = common::median_us_of(3, || {
        std::hint::black_box(checkpoint::load_model(&path).expect("just saved"));
    });
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(checkpoint::backup_path(&path));
    (save / 1e3, load / 1e3)
}
