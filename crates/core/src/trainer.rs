//! Mini-batch training with heterogeneous learning rates.
//!
//! Implements §IV-B of the paper: Adam (β₁ = 0.9, β₂ = 0.999), mini-batches
//! of 32, 20 epochs — with one Adam instance per parameter group so quantum
//! angles and classical weights can use the Fig. 7 optimum (0.03 / 0.01) or
//! any other combination.
//!
//! The trainer runs a model on the model's own execution policy
//! ([`Autoencoder::exec_policy`]): every model starts from
//! [`ExecPolicy::from_env`], and only [`Autoencoder::set_exec_policy`]
//! changes it.

use crate::autoencoder::Autoencoder;
use crate::checkpoint::ParamSnapshot;
use crate::faults::{self, FaultPoint};
use crate::hybrid::ParamGroup;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_datasets::Dataset;
use sqvae_nn::{loss, Adam, ExecPolicy, Matrix, NnError, Optimizer};

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (paper: 32).
    pub batch_size: usize,
    /// Learning rate for quantum parameters (paper's Fig. 7 optimum: 0.03).
    pub quantum_lr: f64,
    /// Learning rate for classical parameters (paper's optimum: 0.01).
    pub classical_lr: f64,
    /// RNG seed for shuffling and reparametrization noise.
    pub seed: u64,
    /// Whether to reshuffle the training set each epoch.
    pub shuffle: bool,
    /// Optional global gradient-norm clip applied across both parameter
    /// groups before each optimizer step (guards against the VAE's early
    /// logvar blow-ups on high-dimensional data).
    pub max_grad_norm: Option<f64>,
    /// KL warm-up: the KL weight ramps linearly from 0 to the latent head's
    /// configured weight over this many epochs (0 = no warm-up). A standard
    /// remedy for early posterior collapse in VAEs.
    pub kl_warmup_epochs: usize,
    /// Early stopping: end training when the test MSE has not improved for
    /// this many consecutive epochs (requires a test set; `None` disables).
    pub early_stop_patience: Option<usize>,
    /// Guard rail against divergence, always on: when a batch produces a
    /// non-finite loss or non-finite gradients, roll the parameters back to
    /// the last good snapshot, scale the learning rates down, optionally
    /// re-derive the RNG, record the event in [`History::anomalies`], and
    /// keep training — instead of silently poisoning every later weight.
    /// Defaults to [`NanGuard::default`].
    pub nan_guard: NanGuard,
}

/// Policy for the trainer's non-finite guard rail (see
/// [`TrainConfig::nan_guard`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NanGuard {
    /// Give up — with a typed [`NnError::NonFinite`] — after this many
    /// rollbacks in one run; the model is left on its last good snapshot.
    pub max_recoveries: usize,
    /// Multiply both learning rates by this factor on every rollback
    /// (0.5 = halve the step; a blown-up step is the usual culprit).
    pub lr_decay: f64,
    /// Re-derive the shuffle/reparametrization RNG after a rollback, so the
    /// retried trajectory does not replay the exact batch noise that blew
    /// up (deterministic: the new seed is a hash of the old seed and the
    /// rollback count).
    pub reseed: bool,
}

impl Default for NanGuard {
    fn default() -> Self {
        NanGuard {
            max_recoveries: 4,
            lr_decay: 0.5,
            reseed: true,
        }
    }
}

/// What the non-finite guard detected on one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// The batch loss (MSE or KL term) was NaN or infinite.
    NonFiniteLoss,
    /// The loss was finite but backpropagation produced non-finite
    /// gradients.
    NonFiniteGradient,
}

/// One recovered divergence event (see [`History::anomalies`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyEvent {
    /// Epoch (0-based) in which the event fired.
    pub epoch: usize,
    /// Batch index within that epoch.
    pub batch: usize,
    /// What was detected.
    pub kind: AnomalyKind,
    /// Cumulative learning-rate scale in force *after* this rollback
    /// (1.0 → untouched; 0.25 → two halvings at the default decay).
    pub lr_scale: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            quantum_lr: 0.03,
            classical_lr: 0.01,
            seed: 42,
            shuffle: true,
            max_grad_norm: None,
            kl_warmup_epochs: 0,
            early_stop_patience: None,
            nan_guard: NanGuard::default(),
        }
    }
}

impl TrainConfig {
    /// Always [`ExecPolicy::from_env`], the policy every freshly built model
    /// starts with; the configuration holds no policy, and the trainer runs
    /// on the model's own. It exists only because the end-to-end benchmark
    /// in `perfbench/` calls it; delete it once those calls go.
    pub fn exec_policy(&self) -> ExecPolicy {
        ExecPolicy::from_env()
    }
}

/// Loss record for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean train reconstruction MSE.
    pub train_mse: f64,
    /// Mean train KL divergence (0 for AEs).
    pub train_kl: f64,
    /// Mean test reconstruction MSE, when a test set was supplied.
    pub test_mse: Option<f64>,
}

/// Full training history of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct History {
    /// Model name.
    pub model: String,
    /// Per-epoch records, in order.
    pub records: Vec<EpochRecord>,
    /// The epoch whose weights the model carries after training, when
    /// best-weight tracking was active (early stopping with a test set):
    /// the epoch with the lowest test MSE. `None` when tracking was off —
    /// the model simply holds the last epoch's weights.
    pub best_epoch: Option<usize>,
    /// Divergence events the non-finite guard rail recovered from, in
    /// order. Empty on a healthy run.
    pub anomalies: Vec<AnomalyEvent>,
}

impl History {
    /// Train MSE of the last epoch.
    pub fn final_train_mse(&self) -> Option<f64> {
        self.records.last().map(|r| r.train_mse)
    }

    /// Test MSE of the last epoch.
    pub fn final_test_mse(&self) -> Option<f64> {
        self.records.last().and_then(|r| r.test_mse)
    }

    /// Train-MSE series (one point per epoch) for figure regeneration.
    pub fn train_mse_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.train_mse).collect()
    }

    /// The record at a given epoch, if trained that far.
    pub fn at_epoch(&self, epoch: usize) -> Option<&EpochRecord> {
        self.records.iter().find(|r| r.epoch == epoch)
    }

    /// Serializes the history as CSV (`epoch,train_mse,train_kl,test_mse`),
    /// with an empty cell for missing test losses — ready for external
    /// plotting tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("epoch,train_mse,train_kl,test_mse\n");
        for r in &self.records {
            let test = r.test_mse.map_or(String::new(), |t| format!("{t}"));
            out.push_str(&format!(
                "{},{},{},{}\n",
                r.epoch, r.train_mse, r.train_kl, test
            ));
        }
        out
    }
}

/// Trains autoencoders against reconstruction MSE (+ KL for VAEs).
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
    quantum_opt: Adam,
    classical_opt: Adam,
}

impl Trainer {
    /// Creates a trainer with fresh optimizer state.
    pub fn new(config: TrainConfig) -> Self {
        let quantum_opt = Adam::new(config.quantum_lr);
        let classical_opt = Adam::new(config.classical_lr);
        Trainer {
            config,
            quantum_opt,
            classical_opt,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Converts a batch of row slices into a matrix.
    fn batch_matrix(rows: &[&[f64]]) -> Result<Matrix, NnError> {
        Matrix::from_rows(rows)
    }

    /// Default evaluation batch size used by [`Trainer::evaluate`].
    pub const DEFAULT_EVAL_BATCH: usize = 64;

    /// Mean reconstruction MSE of `model` over `data` (evaluation mode: VAEs
    /// reconstruct through the posterior mean), in batches of
    /// [`Self::DEFAULT_EVAL_BATCH`].
    ///
    /// # Errors
    ///
    /// Returns shape errors from the model.
    pub fn evaluate(model: &mut Autoencoder, data: &Dataset) -> Result<f64, NnError> {
        Self::evaluate_batched(model, data, Self::DEFAULT_EVAL_BATCH)
    }

    /// [`Trainer::evaluate`] with an explicit batch size, bounding peak
    /// evaluation memory. An empty dataset evaluates to 0.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the model.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size == 0`.
    pub fn evaluate_batched(
        model: &mut Autoencoder,
        data: &Dataset,
        batch_size: usize,
    ) -> Result<f64, NnError> {
        assert!(batch_size > 0, "evaluation batch size must be positive");
        if data.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for batch in data.batches(batch_size) {
            let x = Self::batch_matrix(&batch)?;
            let recon = model.reconstruct(&x)?;
            let (mse, _) = loss::mse(&recon, &x)?;
            total += mse * batch.len() as f64;
            count += batch.len();
        }
        Ok(total / count.max(1) as f64)
    }

    /// Runs the full training loop, returning the per-epoch history.
    ///
    /// With early stopping active (a patience *and* a test set), the model
    /// is left holding the weights of the **best-test-MSE epoch**, not the
    /// last epoch trained — the stop fires only after `patience` epochs of
    /// no improvement, so the final weights would otherwise always be
    /// stale. [`History::best_epoch`] records which epoch that was.
    ///
    /// On every exit the KL warm-up scale is reset to 1.0, so a model whose
    /// run ended mid-ramp (few epochs, or an early stop) does not keep
    /// training with a silently down-weighted KL term on the next run.
    ///
    /// The run uses the model's own execution policy and leaves it as it
    /// was.
    ///
    /// # Errors
    ///
    /// Returns shape/optimizer errors from the underlying stages.
    pub fn train(
        &mut self,
        model: &mut Autoencoder,
        train: &Dataset,
        test: Option<&Dataset>,
    ) -> Result<History, NnError> {
        let mut history = History {
            model: model.name.clone(),
            records: Vec::with_capacity(self.config.epochs),
            best_epoch: None,
            anomalies: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // (epoch, test MSE, weights) of the best epoch seen so far.
        let mut best: Option<(usize, f64, ParamSnapshot)> = None;
        let mut stale_epochs = 0usize;
        // Non-finite guard state: the last known-good weights, how many
        // rollbacks have fired, and the cumulative learning-rate scale.
        let guard = self.config.nan_guard;
        let mut last_good = ParamSnapshot::capture(model);
        let mut recoveries = 0usize;
        let mut lr_scale = 1.0f64;
        for epoch in 0..self.config.epochs {
            if self.config.kl_warmup_epochs > 0 {
                let scale = ((epoch + 1) as f64 / self.config.kl_warmup_epochs as f64).min(1.0);
                model.set_kl_scale(scale);
            }
            let data = if self.config.shuffle {
                train.shuffled(self.config.seed.wrapping_add(epoch as u64))
            } else {
                train.clone()
            };
            let mut epoch_mse = 0.0;
            let mut epoch_kl = 0.0;
            let mut seen = 0usize;
            for (batch_idx, batch) in data.batches(self.config.batch_size).into_iter().enumerate() {
                let x = Self::batch_matrix(&batch)?;
                model.zero_grad();
                let out = model.forward_train(&x, &mut rng)?;
                let (mut mse, grad) = loss::mse(&out.reconstruction, &x)?;
                if faults::trigger(FaultPoint::NanLoss).is_some() {
                    mse = f64::NAN; // injected divergence (chaos testing)
                }
                // Guard rail: divergence must never reach the optimizer. A
                // non-finite loss skips backward outright; a finite loss
                // still gets its gradients screened after backward.
                let kind = if !mse.is_finite() || !out.kl.is_finite() {
                    Some(AnomalyKind::NonFiniteLoss)
                } else {
                    model.backward(&grad)?;
                    if has_non_finite_grads(model) {
                        Some(AnomalyKind::NonFiniteGradient)
                    } else {
                        None
                    }
                };
                if let Some(kind) = kind {
                    recoveries += 1;
                    last_good
                        .restore(model)
                        .expect("snapshot was captured from this very model");
                    model.zero_grad();
                    if recoveries > guard.max_recoveries {
                        // Budget exhausted: surface a typed error, with the
                        // model left on its last good weights.
                        return Err(NnError::NonFinite {
                            epoch,
                            recoveries: recoveries - 1,
                        });
                    }
                    lr_scale *= guard.lr_decay;
                    self.quantum_opt
                        .set_learning_rate(self.config.quantum_lr * lr_scale);
                    self.classical_opt
                        .set_learning_rate(self.config.classical_lr * lr_scale);
                    if guard.reseed {
                        // Deterministic re-derivation: don't replay the exact
                        // reparametrization noise that blew up.
                        rng = StdRng::seed_from_u64(
                            self.config.seed
                                ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(recoveries as u64),
                        );
                    }
                    history.anomalies.push(AnomalyEvent {
                        epoch,
                        batch: batch_idx,
                        kind,
                        lr_scale,
                    });
                    continue; // this batch contributes nothing
                }
                if let Some(max_norm) = self.config.max_grad_norm {
                    clip_gradients(model, max_norm)?;
                }
                {
                    let mut qp = model.parameters_of(ParamGroup::Quantum);
                    self.quantum_opt.step(&mut qp)?;
                }
                {
                    let mut cp = model.parameters_of(ParamGroup::Classical);
                    self.classical_opt.step(&mut cp)?;
                }
                epoch_mse += mse * batch.len() as f64;
                epoch_kl += out.kl * batch.len() as f64;
                seen += batch.len();
                last_good = ParamSnapshot::capture(model);
            }
            let denom = seen.max(1) as f64;
            let test_mse = match test {
                Some(t) => Some(Self::evaluate_batched(model, t, self.config.batch_size)?),
                None => None,
            };
            history.records.push(EpochRecord {
                epoch,
                train_mse: epoch_mse / denom,
                train_kl: epoch_kl / denom,
                test_mse,
            });
            if let (Some(patience), Some(t)) = (self.config.early_stop_patience, test_mse) {
                let improved = best.as_ref().map_or(true, |(_, b, _)| t < *b - 1e-12);
                if improved {
                    best = Some((epoch, t, ParamSnapshot::capture(model)));
                    stale_epochs = 0;
                } else {
                    stale_epochs += 1;
                    if stale_epochs >= patience {
                        break;
                    }
                }
            }
        }
        if let Some((epoch, _, snap)) = best {
            history.best_epoch = Some(epoch);
            if history.records.last().map(|r| r.epoch) != Some(epoch) {
                snap.restore(model)
                    .expect("snapshot was captured from this very model");
            }
        }
        if self.config.kl_warmup_epochs > 0 {
            model.set_kl_scale(1.0);
        }
        Ok(history)
    }
}

/// Whether any gradient entry in either parameter group is NaN/±∞.
fn has_non_finite_grads(model: &mut Autoencoder) -> bool {
    for group in [ParamGroup::Quantum, ParamGroup::Classical] {
        for p in model.parameters_of(group) {
            if p.grad.as_slice().iter().any(|g| !g.is_finite()) {
                return true;
            }
        }
    }
    false
}

/// Rescales every gradient so the global L2 norm across both parameter
/// groups is at most `max_norm`.
fn clip_gradients(model: &mut Autoencoder, max_norm: f64) -> Result<(), NnError> {
    let mut sq = 0.0;
    for group in [ParamGroup::Quantum, ParamGroup::Classical] {
        for p in model.parameters_of(group) {
            sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f64>();
        }
    }
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for group in [ParamGroup::Quantum, ParamGroup::Classical] {
            for p in model.parameters_of(group) {
                for g in p.grad.as_mut_slice() {
                    *g *= scale;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_dataset(n: usize, width: usize, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::from_samples(
            (0..n)
                .map(|_| (0..width).map(|_| rng.gen_range(0.0..2.0)).collect())
                .collect(),
        )
        .expect("non-empty")
    }

    fn quick_config(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 8,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn classical_ae_loss_decreases() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = models::classical_ae(16, 4, &mut rng);
        let data = toy_dataset(64, 16, 2);
        let mut trainer = Trainer::new(quick_config(12));
        let hist = trainer.train(&mut model, &data, None).unwrap();
        let first = hist.records.first().unwrap().train_mse;
        let last = hist.final_train_mse().unwrap();
        assert!(last < first, "loss should decrease: {first} -> {last}");
        assert_eq!(hist.records.len(), 12);
    }

    #[test]
    fn hybrid_quantum_ae_trains() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = models::h_bq_ae(16, 1, &mut rng);
        let data = toy_dataset(24, 16, 4);
        let mut trainer = Trainer::new(quick_config(6));
        let hist = trainer.train(&mut model, &data, None).unwrap();
        let first = hist.records.first().unwrap().train_mse;
        let last = hist.final_train_mse().unwrap();
        assert!(
            last < first,
            "hybrid loss should decrease: {first} -> {last}"
        );
    }

    #[test]
    fn sq_vae_trains_and_reports_kl() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = models::sq_vae(16, 2, 1, &mut rng);
        let data = toy_dataset(16, 16, 6);
        let mut trainer = Trainer::new(quick_config(3));
        let hist = trainer.train(&mut model, &data, None).unwrap();
        assert!(hist.records.iter().all(|r| r.train_kl >= 0.0));
        assert_eq!(hist.records.len(), 3);
    }

    #[test]
    fn test_split_is_evaluated() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = models::classical_ae(8, 2, &mut rng);
        let data = toy_dataset(32, 8, 8);
        let (train, test) = data.shuffle_split(0.75, 0);
        let mut trainer = Trainer::new(quick_config(2));
        let hist = trainer.train(&mut model, &train, Some(&test)).unwrap();
        assert!(hist.records.iter().all(|r| r.test_mse.is_some()));
        assert!(hist.final_test_mse().unwrap().is_finite());
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(11);
            let mut model = models::classical_ae(8, 2, &mut rng);
            let data = toy_dataset(16, 8, 12);
            Trainer::new(quick_config(3))
                .train(&mut model, &data, None)
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn history_accessors() {
        let mut hist = History {
            model: "m".into(),
            records: vec![],
            best_epoch: None,
            anomalies: vec![],
        };
        assert!(hist.final_train_mse().is_none());
        hist.records.push(EpochRecord {
            epoch: 0,
            train_mse: 1.0,
            train_kl: 0.0,
            test_mse: None,
        });
        assert_eq!(hist.train_mse_series(), vec![1.0]);
        assert!(hist.at_epoch(0).is_some());
        assert!(hist.at_epoch(5).is_none());
    }

    #[test]
    fn gradient_clipping_tames_exploding_first_steps() {
        // Classical VAE on wide inputs: without clipping the first epochs
        // can spike (Fig. 8(b)); with clipping the first-epoch loss stays
        // near the data scale.
        let data = toy_dataset(32, 64, 20);
        let run = |clip: Option<f64>| {
            let mut rng = StdRng::seed_from_u64(21);
            let mut model = models::classical_vae(64, 4, &mut rng);
            let mut t = Trainer::new(TrainConfig {
                epochs: 3,
                batch_size: 8,
                max_grad_norm: clip,
                ..TrainConfig::default()
            });
            t.train(&mut model, &data, None).unwrap()
        };
        let clipped = run(Some(1.0));
        let free = run(None);
        assert!(clipped.final_train_mse().unwrap().is_finite());
        assert!(free.final_train_mse().unwrap().is_finite());
        // Clipping must not prevent learning…
        assert!(clipped.final_train_mse().unwrap() <= clipped.records[0].train_mse + 1e-9);
        // …and every clipped epoch stays on the data scale (inputs ∈ [0, 2),
        // so per-element MSE can never legitimately exceed ~4 by much).
        for r in &clipped.records {
            assert!(
                r.train_mse < 10.0,
                "clipped epoch spiked to {}",
                r.train_mse
            );
        }
    }

    #[test]
    fn early_stopping_halts_on_stale_test_loss() {
        // Zero learning rates freeze the model, so the test loss can never
        // improve: with patience 2 the run must end after 3 epochs.
        let data = toy_dataset(8, 4, 40);
        let (train, test) = data.shuffle_split(0.5, 0);
        let mut rng = StdRng::seed_from_u64(41);
        let mut model = models::classical_ae(4, 2, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 4,
            quantum_lr: 0.0,
            classical_lr: 0.0,
            early_stop_patience: Some(2),
            ..TrainConfig::default()
        });
        let hist = trainer.train(&mut model, &train, Some(&test)).unwrap();
        assert_eq!(
            hist.records.len(),
            3,
            "first epoch sets the best loss; two stale epochs then stop"
        );
        // Without a test set the option is inert.
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 4,
            early_stop_patience: Some(1),
            ..TrainConfig::default()
        });
        let hist = trainer.train(&mut model, &train, None).unwrap();
        assert_eq!(hist.records.len(), 3);
    }

    #[test]
    fn evaluate_empty_dataset_is_zero() {
        // shuffle_split(1.0) is the only route to an empty dataset: the
        // train side takes every sample.
        let (train, test) = toy_dataset(6, 4, 50).shuffle_split(1.0, 0);
        assert_eq!(train.len(), 6);
        assert!(test.is_empty());
        let mut rng = StdRng::seed_from_u64(51);
        let mut model = models::classical_ae(4, 2, &mut rng);
        assert_eq!(Trainer::evaluate(&mut model, &test).unwrap(), 0.0);
        assert_eq!(
            Trainer::evaluate_batched(&mut model, &test, 1).unwrap(),
            0.0
        );
    }

    #[test]
    fn evaluate_batch_larger_than_dataset() {
        let data = toy_dataset(3, 4, 52);
        let mut rng = StdRng::seed_from_u64(53);
        let mut model = models::classical_ae(4, 2, &mut rng);
        // One oversized batch degenerates to a single full-dataset batch.
        let oversized = Trainer::evaluate_batched(&mut model, &data, 64).unwrap();
        let exact = Trainer::evaluate_batched(&mut model, &data, 3).unwrap();
        assert!(oversized.is_finite());
        assert_eq!(oversized, exact);
        // The default entry point also uses one batch here.
        assert_eq!(Trainer::evaluate(&mut model, &data).unwrap(), oversized);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn evaluate_rejects_zero_batch() {
        let data = toy_dataset(2, 4, 54);
        let mut rng = StdRng::seed_from_u64(55);
        let mut model = models::classical_ae(4, 2, &mut rng);
        let _ = Trainer::evaluate_batched(&mut model, &data, 0);
    }

    #[test]
    fn early_stop_fires_exactly_when_stale_epochs_reach_patience() {
        // Zero learning rates freeze the model, so every epoch after the
        // first is stale: the run must stop after exactly patience + 1
        // epochs — a regression pin on the `stale_epochs == patience`
        // boundary (neither one epoch early nor one late).
        let data = toy_dataset(8, 4, 42);
        let (train, test) = data.shuffle_split(0.5, 0);
        for patience in 1..=3 {
            let mut rng = StdRng::seed_from_u64(43);
            let mut model = models::classical_ae(4, 2, &mut rng);
            let mut trainer = Trainer::new(TrainConfig {
                epochs: 40,
                batch_size: 4,
                quantum_lr: 0.0,
                classical_lr: 0.0,
                early_stop_patience: Some(patience),
                ..TrainConfig::default()
            });
            let hist = trainer.train(&mut model, &train, Some(&test)).unwrap();
            assert_eq!(hist.records.len(), patience + 1, "patience {patience}");
        }
    }

    #[test]
    fn history_csv_serialization() {
        let hist = History {
            model: "m".into(),
            records: vec![
                EpochRecord {
                    epoch: 0,
                    train_mse: 1.5,
                    train_kl: 0.25,
                    test_mse: Some(2.0),
                },
                EpochRecord {
                    epoch: 1,
                    train_mse: 1.0,
                    train_kl: 0.1,
                    test_mse: None,
                },
            ],
            best_epoch: None,
            anomalies: vec![],
        };
        let csv = hist.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "epoch,train_mse,train_kl,test_mse");
        assert_eq!(lines[1], "0,1.5,0.25,2");
        assert_eq!(lines[2], "1,1,0.1,");
    }

    #[test]
    fn kl_warmup_runs_and_converges() {
        let data = toy_dataset(24, 8, 30);
        let mut rng = StdRng::seed_from_u64(31);
        let mut model = models::classical_vae(8, 2, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 8,
            kl_warmup_epochs: 3,
            ..TrainConfig::default()
        });
        let hist = trainer.train(&mut model, &data, None).unwrap();
        assert!(hist.final_train_mse().unwrap().is_finite());
        // With the weight ramping in, the KL term is reported every epoch.
        assert!(hist.records.iter().all(|r| r.train_kl >= 0.0));
    }

    #[test]
    fn early_stop_leaves_the_model_at_its_best_epoch() {
        // An aggressive learning rate makes the test loss oscillate, so the
        // stop fires with the live weights *worse* than the best epoch's.
        // After train() returns, evaluating the model on the test set must
        // reproduce the best recorded test MSE exactly — the weights were
        // restored bit-for-bit — and best_epoch must name that epoch.
        let data = toy_dataset(32, 8, 60);
        let (train, test) = data.shuffle_split(0.75, 0);
        let mut rng = StdRng::seed_from_u64(61);
        let mut model = models::classical_ae(8, 2, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 8,
            classical_lr: 0.5,
            early_stop_patience: Some(2),
            ..TrainConfig::default()
        });
        let hist = trainer.train(&mut model, &train, Some(&test)).unwrap();
        let best_epoch = hist.best_epoch.expect("tracking was active");
        let best_mse = hist.at_epoch(best_epoch).unwrap().test_mse.unwrap();
        // best_epoch is the argmin of the recorded test losses.
        for r in &hist.records {
            assert!(best_mse <= r.test_mse.unwrap() + 1e-12);
        }
        let now = Trainer::evaluate_batched(&mut model, &test, 8).unwrap();
        assert_eq!(
            now.to_bits(),
            best_mse.to_bits(),
            "model must carry the best epoch's weights, not the last's"
        );
    }

    #[test]
    fn best_epoch_is_none_without_early_stopping() {
        let data = toy_dataset(8, 4, 62);
        let mut rng = StdRng::seed_from_u64(63);
        let mut model = models::classical_ae(4, 2, &mut rng);
        let hist = Trainer::new(quick_config(2))
            .train(&mut model, &data, None)
            .unwrap();
        assert_eq!(hist.best_epoch, None);
    }

    #[test]
    fn kl_scale_is_reset_when_the_run_ends_mid_warmup() {
        // Fewer epochs than warm-up epochs: the last epoch sets the scale
        // to epochs/warmup < 1. Without the exit reset, the model would
        // carry that down-weighted KL into any later training run.
        let data = toy_dataset(16, 8, 64);
        let mut rng = StdRng::seed_from_u64(65);
        let mut model = models::classical_vae(8, 2, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 8,
            kl_warmup_epochs: 10,
            ..TrainConfig::default()
        });
        trainer.train(&mut model, &data, None).unwrap();
        assert_eq!(model.kl_scale(), 1.0);

        // Early stop mid-ramp leaks the same way: frozen learning rates
        // make epoch 1 stale, stopping at scale 2/10 before the fix.
        let (train, test) = data.shuffle_split(0.5, 0);
        let mut model = models::classical_vae(8, 2, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 20,
            batch_size: 8,
            quantum_lr: 0.0,
            classical_lr: 0.0,
            kl_warmup_epochs: 10,
            early_stop_patience: Some(1),
            ..TrainConfig::default()
        });
        let hist = trainer.train(&mut model, &train, Some(&test)).unwrap();
        assert!(hist.records.len() < 20, "the stop must have fired");
        assert_eq!(model.kl_scale(), 1.0);
    }

    /// A toy dataset with one sample carrying a 1e200 feature: the MSE of
    /// any batch containing it overflows to +∞, tripping the guard — the
    /// deterministic stand-in for a mid-run divergence.
    fn poisoned_dataset(n: usize, width: usize, seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..width).map(|_| rng.gen_range(0.0..2.0)).collect())
            .collect();
        samples[0][0] = 1e200;
        Dataset::from_samples(samples).expect("non-empty")
    }

    #[test]
    fn nan_guard_rolls_back_and_keeps_training() {
        // One poisoned batch per epoch: with the guard on, the run must
        // complete, record the anomalies, and leave every parameter finite.
        let data = poisoned_dataset(32, 16, 70);
        let mut rng = StdRng::seed_from_u64(71);
        let mut model = models::classical_vae(16, 2, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 8,
            nan_guard: NanGuard {
                max_recoveries: 64,
                lr_decay: 0.5,
                reseed: true,
            },
            ..TrainConfig::default()
        });
        let hist = trainer.train(&mut model, &data, None).unwrap();
        assert!(
            !hist.anomalies.is_empty(),
            "the poisoned batch must trip the guard"
        );
        // Rollback restores finite weights and later epochs stay sane.
        for group in [ParamGroup::Quantum, ParamGroup::Classical] {
            for p in model.parameters_of(group) {
                assert!(p.value.as_slice().iter().all(|v| v.is_finite()));
            }
        }
        assert!(hist.final_train_mse().unwrap().is_finite());
        // Events carry a decaying lr scale and ordered positions.
        for w in hist.anomalies.windows(2) {
            assert!(w[1].lr_scale < w[0].lr_scale);
            assert!((w[0].epoch, w[0].batch) < (w[1].epoch, w[1].batch));
        }
    }

    #[test]
    fn nan_guard_budget_exhaustion_is_a_typed_error() {
        // The poisoned sample comes back every epoch; with a budget of 2
        // rollbacks, the third epoch's event must give up with a typed
        // error.
        let data = poisoned_dataset(32, 16, 72);
        let mut rng = StdRng::seed_from_u64(73);
        let mut model = models::classical_vae(16, 2, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 8,
            batch_size: 8,
            nan_guard: NanGuard {
                max_recoveries: 2,
                lr_decay: 0.5,
                reseed: false,
            },
            ..TrainConfig::default()
        });
        let err = trainer.train(&mut model, &data, None).unwrap_err();
        assert!(
            matches!(err, NnError::NonFinite { recoveries: 2, .. }),
            "got {err:?}"
        );
        // Even on give-up the model holds finite (rolled-back) weights.
        for group in [ParamGroup::Quantum, ParamGroup::Classical] {
            for p in model.parameters_of(group) {
                assert!(p.value.as_slice().iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn nan_guard_is_inert_on_healthy_runs() {
        // A healthy run is bit for bit the plain step loop: seeded RNG,
        // per-epoch shuffle, zero_grad, forward_train, MSE, backward, then
        // the quantum and the classical Adam step. Snapshot upkeep must not
        // perturb training, and no anomaly is recorded.
        let data = toy_dataset(24, 16, 2);
        let cfg = quick_config(3);
        let build = || models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(1));
        let mut trained = build();
        let hist = Trainer::new(cfg.clone())
            .train(&mut trained, &data, None)
            .unwrap();
        assert!(hist.anomalies.is_empty());

        let mut model = build();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (mut quantum, mut classical) = (Adam::new(cfg.quantum_lr), Adam::new(cfg.classical_lr));
        for (epoch, record) in hist.records.iter().enumerate() {
            let shuffled = data.shuffled(cfg.seed.wrapping_add(epoch as u64));
            let (mut mse_sum, mut kl_sum, mut seen) = (0.0, 0.0, 0usize);
            for batch in shuffled.batches(cfg.batch_size) {
                let x = Matrix::from_rows(&batch).unwrap();
                model.zero_grad();
                let out = model.forward_train(&x, &mut rng).unwrap();
                let (mse, grad) = loss::mse(&out.reconstruction, &x).unwrap();
                model.backward(&grad).unwrap();
                quantum
                    .step(&mut model.parameters_of(ParamGroup::Quantum))
                    .unwrap();
                classical
                    .step(&mut model.parameters_of(ParamGroup::Classical))
                    .unwrap();
                mse_sum += mse * batch.len() as f64;
                kl_sum += out.kl * batch.len() as f64;
                seen += batch.len();
            }
            assert_eq!(
                record.train_mse.to_bits(),
                (mse_sum / seen as f64).to_bits()
            );
            assert_eq!(record.train_kl.to_bits(), (kl_sum / seen as f64).to_bits());
        }
        for group in [ParamGroup::Quantum, ParamGroup::Classical] {
            for (a, b) in trained
                .parameters_of(group)
                .iter()
                .zip(model.parameters_of(group))
            {
                assert_eq!(a.value, b.value, "{group:?}");
            }
        }
    }

    #[test]
    fn training_runs_on_the_models_own_policy_and_leaves_it() {
        use sqvae_nn::Threads;
        let policy = ExecPolicy {
            threads: Threads::Fixed(3),
            ..ExecPolicy::from_env()
        };
        let mut model = models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(3));
        model.set_exec_policy(policy);
        Trainer::new(quick_config(1))
            .train(&mut model, &toy_dataset(8, 16, 4), None)
            .unwrap();
        assert_eq!(model.exec_policy(), policy);
    }
}
