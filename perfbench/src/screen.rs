//! `screen-ligand-32x32`: batches of latent samples from a pre-trained
//! SQ-VAE(1024, p=8, L=5) through `sampling::sample_molecules` and
//! `generation_metrics` against the training molecules (the paper's
//! Table II path).
//!
//! The traced run re-drives each batch through the public calls
//! `sample_molecules` is made of and must yield exactly its molecules.

use crate::common::{mix, repeated_setup, timed, Ctx, Outcome, Timings};
use crate::probes;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::train::checkpoint_ms;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::chem::fingerprint::{diversity, fingerprint, Fingerprint};
use sqvae::chem::properties::lipinski::RuleOfFive;
use sqvae::chem::properties::{mean_properties, DrugProperties};
use sqvae::chem::{sanitize, valence, Molecule, MoleculeMatrix};
use sqvae::core::models::{ModelSpec, SCALABLE_LAYERS};
use sqvae::core::sampling::{
    generation_metrics, sample_molecules, GenerationMetrics, SampledMolecules,
};
use sqvae::core::{Autoencoder, TrainConfig, Trainer};
use sqvae::datasets::pdbbind::{self, PdbbindConfig, PDBBIND_MATRIX_SIZE};
use std::collections::HashSet;
use std::time::Instant;

/// The screening model.
pub const MODEL: ModelSpec = ModelSpec::SqVae {
    input_dim: 1024,
    p: 8,
    n_layers: SCALABLE_LAYERS,
};

/// Latent samples per screen batch.
pub const BATCH: usize = 256;

/// Seed of the screening model's training set and initial weights. The
/// model is fixed, like shipped weights: the workload seed only draws the
/// latents, so every run screens equally hard molecules.
const MODEL_SEED: u64 = 20_220_314;

/// Training set size and epochs of the screening model (fewer epochs decode
/// to empty molecules only).
const TRAIN_LIGANDS: usize = 128;
const TRAIN_EPOCHS: usize = 10;

const TAIL_CAP: f64 = 90.0;

/// The pre-trained screening model and its training molecules.
pub struct Screener {
    /// The trained model.
    pub model: Autoencoder,
    /// Molecules the model was trained on.
    pub training: Vec<Molecule>,
    /// Time to generate the training set, ms.
    pub gen_ms: f64,
}

/// Generates the ligand set and trains the screening model on it.
pub fn screener() -> Screener {
    let cfg = PdbbindConfig {
        n_samples: TRAIN_LIGANDS,
        seed: MODEL_SEED,
    };
    let ((data, training), gen_ms) =
        timed(|| (pdbbind::generate(&cfg), pdbbind::generate_molecules(&cfg)));
    let mut model = MODEL.build(&mut StdRng::seed_from_u64(MODEL_SEED));
    Trainer::new(TrainConfig {
        epochs: TRAIN_EPOCHS,
        seed: MODEL_SEED,
        ..TrainConfig::default()
    })
    .train(&mut model, &data, None)
    .expect("the screening model trains");
    Screener {
        model,
        training,
        gen_ms,
    }
}

fn batch_rng(seed: u64, batch: usize) -> StdRng {
    StdRng::seed_from_u64(mix(seed, 100 + batch as u64))
}

/// What one re-driven batch produced, with its useful-work counts.
struct Redriven {
    sampled: SampledMolecules,
    metrics: GenerationMetrics,
    nonempty: usize,
}

/// `sample_molecules` + `generation_metrics`, step by step through the
/// public model and chem calls they are made of.
fn redrive(
    model: &mut Autoencoder,
    training: &[Molecule],
    rng: &mut StdRng,
    tracer: &mut Tracer,
    g: u64,
) -> Redriven {
    let open = tracer.begin("screen.batch", g);
    let z = tracer.span("ae.sample_latent", g, || model.sample_latent(BATCH, rng));
    let features = tracer.span("ae.decode", g, || {
        model.decode(&z).expect("latent width matches")
    });
    let mut molecules = Vec::new();
    let (mut valid, mut nonempty) = (0usize, 0usize);
    for r in 0..features.rows() {
        let decoded = tracer.span("chem.decode", g, || {
            MoleculeMatrix::from_values(PDBBIND_MATRIX_SIZE, features.row(r).to_vec())
                .expect("decoder width is 32x32")
                .decode()
        });
        if decoded.is_empty() {
            continue;
        }
        nonempty += 1;
        valid += usize::from(tracer.span("chem.valence", g, || valence::is_valid(&decoded)));
        if let Ok(s) = tracer.span("chem.sanitize", g, || sanitize::sanitize(&decoded)) {
            molecules.push(s.molecule);
        }
    }
    let properties = tracer.span("chem.props", g, || mean_properties(molecules.iter()));
    let sampled = SampledMolecules {
        validity: valid as f64 / BATCH as f64,
        properties,
        molecules,
        attempted: BATCH,
    };
    let n = sampled.molecules.len();
    let metrics = if n == 0 {
        GenerationMetrics {
            validity: sampled.validity,
            ..GenerationMetrics::default()
        }
    } else {
        let fps: Vec<Fingerprint> = tracer.span("chem.fingerprint", g, || {
            sampled.molecules.iter().map(fingerprint).collect()
        });
        let train_fps: HashSet<Fingerprint> = tracer.span("chem.fingerprint", g, || {
            training.iter().map(fingerprint).collect()
        });
        let (unique, novel) = tracer.span("chem.dedup", g, || {
            let unique: HashSet<&Fingerprint> = fps.iter().collect();
            (
                unique.len(),
                fps.iter().filter(|fp| !train_fps.contains(fp)).count(),
            )
        });
        let lipinski = tracer.span("chem.lipinski", g, || {
            sampled
                .molecules
                .iter()
                .filter(|m| RuleOfFive::compute(m).passes())
                .count()
        });
        let diversity = tracer.span("chem.diversity", g, || diversity(&fps));
        GenerationMetrics {
            validity: sampled.validity,
            uniqueness: unique as f64 / n as f64,
            novelty: novel as f64 / n as f64,
            diversity,
            lipinski: lipinski as f64 / n as f64,
        }
    };
    tracer.end(open);
    Redriven {
        sampled,
        metrics,
        nonempty,
    }
}

fn props_bits(p: &DrugProperties) -> [u64; 5] {
    [p.qed, p.logp_raw, p.logp, p.sa_raw, p.sa].map(f64::to_bits)
}

fn metrics_bits(m: &GenerationMetrics) -> [u64; 5] {
    [m.validity, m.uniqueness, m.novelty, m.diversity, m.lipinski].map(f64::to_bits)
}

/// Whether a re-driven batch equals the library's, bit for bit.
fn same(a: &(SampledMolecules, GenerationMetrics), b: &Redriven) -> bool {
    a.0.molecules == b.sampled.molecules
        && a.0.validity.to_bits() == b.sampled.validity.to_bits()
        && props_bits(&a.0.properties) == props_bits(&b.sampled.properties)
        && metrics_bits(&a.1) == metrics_bits(&b.metrics)
}

/// Runs the screening workload.
///
/// Batch 0 fills lazy state and is not timed; every run re-drives it as the
/// correctness check. A traced run also re-drives each timed batch right
/// after the library ran it, so traced and untraced batches share the same
/// stretch of machine time.
pub fn run(ctx: &Ctx) -> Outcome {
    let (mut s, setup) = repeated_setup(screener);
    let mut out = Outcome {
        setup_s: setup.ref_s,
        setup_wall_s: setup.wall_s,
        correct: true,
        ..Outcome::default()
    };
    let mut tracer = Tracer::new(ctx.trace, ctx.origin);
    let deadline = Instant::now() + ctx.budget(1.0);
    let mut batches = Timings::default();
    let mut kept: Vec<(SampledMolecules, GenerationMetrics)> = Vec::new();
    let mut nonempty = Vec::new();
    let mut screened = 0usize;
    while batches.len() < 12 || Instant::now() < deadline {
        let b = batches.len();
        let (sampled, metrics) = batches.time(|| {
            let sampled = sample_molecules(
                &mut s.model,
                BATCH,
                PDBBIND_MATRIX_SIZE,
                None,
                &mut batch_rng(ctx.seed, b),
            )
            .expect("latent width matches");
            let metrics = generation_metrics(&sampled, &s.training);
            (sampled, metrics)
        });
        let finite = [
            metrics.uniqueness,
            metrics.novelty,
            metrics.diversity,
            metrics.lipinski,
            sampled.properties.qed,
        ]
        .iter()
        .all(|v| v.is_finite());
        if sampled.attempted != BATCH || !finite {
            out.failed += 1;
        }
        screened += sampled.molecules.len();
        if b == 0 || ctx.trace {
            let got = redrive(
                &mut s.model,
                &s.training,
                &mut batch_rng(ctx.seed, b),
                &mut tracer,
                b as u64,
            );
            let want = (sampled, metrics);
            if !same(&want, &got) {
                out.correct = false;
                out.failed += 1;
            }
            nonempty.push(got.nonempty);
            kept.push(want);
        }
    }
    out.attempted = batches.len() as u64;
    if screened == 0 {
        // Nothing decoded: the chem half of the path did no work.
        out.correct = false;
    }

    batches.summarize_into(&mut out, 1, BATCH as f64, TAIL_CAP);
    out.named = vec![
        ("screen_mols_per_s", out.items_per_s, "1/s"),
        ("screen_batch_ms_p50", out.op_ms.p50, "ms"),
        ("screen_batch_ms_tail", out.op_ms.tail, "ms"),
    ];
    if ctx.trace {
        layer_metrics(
            ctx,
            &mut out,
            &tracer,
            &kept,
            &nonempty,
            &mut s,
            &batches.wall,
        );
        out.tracer = Some(tracer);
    }
    out
}

fn layer_metrics(
    ctx: &Ctx,
    out: &mut Outcome,
    tracer: &Tracer,
    batches: &[(SampledMolecules, GenerationMetrics)],
    nonempty: &[usize],
    s: &mut Screener,
    untraced_ms: &[f64],
) {
    let spans = tracer.spans();
    // Batch 0 fills lazy state; it is left out like in the untraced run.
    let per_batch = |name: &str| trace::self_ms_by_group(spans, name).split_off(1);
    let batch_ms = trace::durations_ms(spans, "screen.batch").split_off(1);
    let n = batch_ms.len();
    let sanitized: Vec<f64> = batches[1..=n]
        .iter()
        .map(|b| b.0.molecules.len() as f64)
        .collect();
    let nonempty: Vec<f64> = nonempty[1..=n].iter().map(|&c| c as f64).collect();
    let l = &mut out.layers;
    let total = |name: &str| -> f64 { per_batch(name).iter().sum() };
    let per = |name: &str, count: &[f64]| 1e3 * total(name) / count.iter().sum::<f64>().max(1.0);
    l.insert(
        "ae.sample_latent_us",
        median(&per_batch("ae.sample_latent")) * 1e3,
    );
    l.insert("ae.decode_ms", median(&per_batch("ae.decode")));
    l.insert("chem.decode_us", per("chem.decode", &vec![BATCH as f64; n]));
    l.insert("chem.valence_us", per("chem.valence", &nonempty));
    l.insert("chem.sanitize_us", per("chem.sanitize", &nonempty));
    l.insert("chem.props_us", per("chem.props", &sanitized));
    let fingerprinted: Vec<f64> = sanitized
        .iter()
        .map(|c| c + s.training.len() as f64)
        .collect();
    l.insert(
        "chem.fingerprint_us",
        per("chem.fingerprint", &fingerprinted),
    );
    l.insert("chem.lipinski_us", per("chem.lipinski", &sanitized));
    l.insert("chem.diversity_ms", median(&per_batch("chem.diversity")));
    let samples = (n * BATCH) as f64;
    l.insert(
        "screen.nonempty_ratio",
        nonempty.iter().sum::<f64>() / samples,
    );
    l.insert(
        "screen.sanitized_ratio",
        sanitized.iter().sum::<f64>() / samples,
    );
    let unique: f64 = batches[1..=n]
        .iter()
        .map(|b| b.1.uniqueness * b.0.molecules.len() as f64)
        .sum();
    l.insert(
        "screen.unique_ratio",
        unique / sanitized.iter().sum::<f64>().max(1.0),
    );

    // Share of each batch its layer spans account for: every layer span is
    // a direct child of the batch span, so they cover all but its self time.
    let coverage: Vec<f64> = per_batch("screen.batch")
        .iter()
        .zip(&batch_ms)
        .map(|(own, t)| 100.0 * (1.0 - own / t))
        .collect();
    l.insert("trace.coverage_pct", median(&coverage));
    let untraced = median(&untraced_ms[1..]);
    l.insert(
        "trace.overhead_pct",
        100.0 * (median(&batch_ms) - untraced) / untraced,
    );

    // Standalone probes of the decode path at the screen batch shape.
    let arch = probes::arch(MODEL);
    let policy = s.model.exec_policy();
    let z = s.model.sample_latent(BATCH, &mut batch_rng(ctx.seed, 0));
    let (dec_fwd, _) = probes::qlayer_ms(&arch.dec, policy, &z, 5);
    l.insert("qlayer.dec_fwd_ms", dec_fwd);
    let sim = probes::sim_row(&arch.dec, &z);
    let rows = (arch.dec.patches * BATCH) as f64;
    l.insert("sim.row_fwd_us", sim.fwd_us);
    l.insert("sim.rows", rows);
    l.insert(
        "sim.bytes_computed",
        rows * (16u64 << arch.dec.n_qubits) as f64 * sim.fwd_passes as f64,
    );
    l.insert("tape.compile_us", probes::compile_us(&arch.dec, 20));
    l.insert("tape.compiles_per_batch", arch.dec.patches as f64);
    l.insert(
        "parallel.dispatch_us",
        probes::dispatch_us(arch.dec.patches * BATCH, policy.threads, 20),
    );
    l.insert("parallel.calls_per_batch", 1.0);
    let dec_linear = arch.linears.last().copied().into_iter().collect::<Vec<_>>();
    l.insert("linear.fwd_us", probes::linear_us(&dec_linear, BATCH, 20).0);
    let (save_ms, load_ms) = checkpoint_ms(&mut s.model, ctx);
    l.insert("checkpoint.save_ms", save_ms);
    l.insert("checkpoint.load_ms", load_ms);
    l.insert("datasets.gen_ms", s.gen_ms);
}
