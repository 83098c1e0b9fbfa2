//! Mini-batch training with heterogeneous learning rates.
//!
//! Implements §IV-B of the paper, one way for every model: Adam (β₁ = 0.9,
//! β₂ = 0.999) with one instance per parameter group, so quantum angles and
//! classical weights can use the Fig. 7 optimum (0.03 / 0.01) or any other
//! pair; mini-batches of 32 from a training set reshuffled every epoch; 20
//! epochs; and the full ELBO (reconstruction MSE plus the Gaussian latent's
//! KL term at weight 1).
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
    /// Optional global gradient-norm clip applied across both parameter
    /// groups before each optimizer step (guards against the VAE's early
    /// logvar blow-ups on high-dimensional data).
    pub max_grad_norm: Option<f64>,
    /// Budget of the guard rail against divergence, which is always on.
    /// When a batch produces a non-finite loss or non-finite gradients, the
    /// trainer rolls the parameters back to the last good snapshot, halves
    /// both learning rates, re-derives the RNG (deterministically, from the
    /// seed and the rollback count, so the retry does not replay the noise
    /// that blew up), records the event in [`History::anomalies`], and keeps
    /// training. After this many rollbacks in one run it gives up with a
    /// typed [`NnError::NonFinite`], the model left on its last good
    /// snapshot.
    pub max_nan_recoveries: usize,
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
    /// (1.0 → untouched; 0.25 → two rollbacks, each halving the rates).
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
            max_grad_norm: None,
            max_nan_recoveries: 4,
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

    /// Mean reconstruction MSE of `model` over `data` (evaluation mode: VAEs
    /// reconstruct through the posterior mean), in batches of `batch_size`
    /// rows, which bounds peak evaluation memory. An empty dataset
    /// evaluates to 0.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the model.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size == 0`.
    pub fn evaluate(
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
            let x = Matrix::from_rows(&batch)?;
            let recon = model.reconstruct(&x)?;
            let (mse, _) = loss::mse(&recon, &x)?;
            total += mse * batch.len() as f64;
            count += batch.len();
        }
        Ok(total / count.max(1) as f64)
    }

    /// Runs the full training loop, returning the per-epoch history.
    ///
    /// A test set is only evaluated, after every epoch, into
    /// [`EpochRecord::test_mse`]: it moves no weight, so a run with one ends
    /// on the same parameters as a run without. The model is left holding
    /// the last epoch's weights.
    ///
    /// The run uses the model's own execution policy and leaves it as it
    /// was.
    ///
    /// # Errors
    ///
    /// Returns shape/optimizer errors from the underlying stages, and
    /// [`NnError::NonFinite`] once the guard rail has used up
    /// [`TrainConfig::max_nan_recoveries`].
    pub fn train(
        &mut self,
        model: &mut Autoencoder,
        train: &Dataset,
        test: Option<&Dataset>,
    ) -> Result<History, NnError> {
        let mut history = History {
            model: model.name.clone(),
            records: Vec::with_capacity(self.config.epochs),
            anomalies: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // Non-finite guard state: the last known-good weights, how many
        // rollbacks have fired, and the cumulative learning-rate scale.
        let mut last_good = ParamSnapshot::capture(model);
        let mut recoveries = 0usize;
        let mut lr_scale = 1.0f64;
        for epoch in 0..self.config.epochs {
            let data = train.shuffled(self.config.seed.wrapping_add(epoch as u64));
            let mut epoch_mse = 0.0;
            let mut epoch_kl = 0.0;
            let mut seen = 0usize;
            for (batch_idx, batch) in data.batches(self.config.batch_size).into_iter().enumerate() {
                let x = Matrix::from_rows(&batch)?;
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
                    if recoveries > self.config.max_nan_recoveries {
                        // Budget exhausted: surface a typed error, with the
                        // model left on its last good weights.
                        return Err(NnError::NonFinite {
                            epoch,
                            recoveries: recoveries - 1,
                        });
                    }
                    // A blown-up step is the usual culprit: halve both rates.
                    lr_scale *= 0.5;
                    self.quantum_opt
                        .set_learning_rate(self.config.quantum_lr * lr_scale);
                    self.classical_opt
                        .set_learning_rate(self.config.classical_lr * lr_scale);
                    // Deterministic re-derivation: don't replay the exact
                    // reparametrization noise that blew up.
                    rng = StdRng::seed_from_u64(
                        self.config.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(recoveries as u64),
                    );
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
                last_good.recapture(model);
            }
            let denom = seen.max(1) as f64;
            let test_mse = match test {
                Some(t) => Some(Self::evaluate(model, t, self.config.batch_size)?),
                None => None,
            };
            history.records.push(EpochRecord {
                epoch,
                train_mse: epoch_mse / denom,
                train_kl: epoch_kl / denom,
                test_mse,
            });
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
    fn a_test_set_changes_only_the_test_mse() {
        // The SQ-VAE has quantum stacks and Gaussian heads, so evaluating a
        // test set after each epoch runs both `infer` paths and the sample
        // cache reset of `forward_mean` between epochs. None of it may move
        // a weight or a train record: only `test_mse` differs.
        let (train, test) = toy_dataset(24, 16, 80).shuffle_split(0.75, 0);
        let run = |test: Option<&Dataset>| {
            let mut model = models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(81));
            let hist = Trainer::new(quick_config(3))
                .train(&mut model, &train, test)
                .unwrap();
            let params: Vec<Vec<u64>> = [ParamGroup::Quantum, ParamGroup::Classical]
                .into_iter()
                .flat_map(|group| {
                    model
                        .parameters_of(group)
                        .into_iter()
                        .map(|p| p.value.as_slice().iter().map(|v| v.to_bits()).collect())
                        .collect::<Vec<_>>()
                })
                .collect();
            (params, hist)
        };
        let train_bits = |h: &History| -> Vec<(u64, u64)> {
            h.records
                .iter()
                .map(|r| (r.train_mse.to_bits(), r.train_kl.to_bits()))
                .collect()
        };
        let (params, hist) = run(Some(&test));
        let (bare_params, bare_hist) = run(None);
        assert_eq!(hist.records.len(), 3);
        assert!(hist.records.iter().all(|r| r.test_mse.is_some()));
        assert!(bare_hist.records.iter().all(|r| r.test_mse.is_none()));
        assert_eq!(params, bare_params);
        assert_eq!(train_bits(&hist), train_bits(&bare_hist));
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
    fn evaluate_empty_dataset_is_zero() {
        // shuffle_split(1.0) is the only route to an empty dataset: the
        // train side takes every sample.
        let (train, test) = toy_dataset(6, 4, 50).shuffle_split(1.0, 0);
        assert_eq!(train.len(), 6);
        assert!(test.is_empty());
        let mut rng = StdRng::seed_from_u64(51);
        let mut model = models::classical_ae(4, 2, &mut rng);
        assert_eq!(Trainer::evaluate(&mut model, &test, 64).unwrap(), 0.0);
        assert_eq!(Trainer::evaluate(&mut model, &test, 1).unwrap(), 0.0);
    }

    #[test]
    fn evaluate_batch_larger_than_dataset() {
        let data = toy_dataset(3, 4, 52);
        let mut rng = StdRng::seed_from_u64(53);
        let mut model = models::classical_ae(4, 2, &mut rng);
        // One oversized batch degenerates to a single full-dataset batch.
        let oversized = Trainer::evaluate(&mut model, &data, 64).unwrap();
        let exact = Trainer::evaluate(&mut model, &data, 3).unwrap();
        assert!(oversized.is_finite());
        assert_eq!(oversized, exact);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn evaluate_rejects_zero_batch() {
        let data = toy_dataset(2, 4, 54);
        let mut rng = StdRng::seed_from_u64(55);
        let mut model = models::classical_ae(4, 2, &mut rng);
        let _ = Trainer::evaluate(&mut model, &data, 0);
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
            max_nan_recoveries: 64,
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
        // Every rollback halves the rates, and events come in order.
        for (k, event) in hist.anomalies.iter().enumerate() {
            assert_eq!(event.lr_scale, 0.5f64.powi(k as i32 + 1));
        }
        for w in hist.anomalies.windows(2) {
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
            max_nan_recoveries: 2,
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
