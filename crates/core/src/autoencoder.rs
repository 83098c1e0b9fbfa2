//! The autoencoder: encoder stack → latent stage → decoder stack.

use crate::hybrid::{HybridStack, ParamGroup};
use crate::latent::{standard_normals, Latent};
use crate::models::ModelSpec;
use rand::Rng;
use sqvae_nn::{ExecPolicy, Matrix, Module, NnError, ParamTensor};

/// Per-group trainable parameter counts (the paper's Table I rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParameterCount {
    /// Variational circuit angles.
    pub quantum: usize,
    /// Classical weights and biases.
    pub classical: usize,
}

impl ParameterCount {
    /// Quantum + classical.
    pub fn total(&self) -> usize {
        self.quantum + self.classical
    }
}

/// A (possibly hybrid, possibly variational) autoencoder.
///
/// Built by the factory functions in [`crate::models`]; this type owns the
/// forward/backward plumbing shared by every variant in the paper.
///
/// **Non-finite values.** The evaluation calls ([`Autoencoder::encode`],
/// [`Autoencoder::decode`], [`Autoencoder::reconstruct`]) do not check
/// their inputs: a NaN or infinite cell propagates, and its row comes back
/// NaN. The two outside boundaries reject such values with typed errors
/// instead: the inference server refuses the payload at submission
/// (`sqvae::serve::ServeError::NonFinite`), and a checkpoint with a
/// non-finite parameter is neither saved nor loaded
/// ([`crate::checkpoint::CheckpointError::NonFinite`]). Training has its
/// own guard (see [`crate::TrainConfig::max_nan_recoveries`]): a non-finite
/// loss or gradient never reaches the optimizer, and the trainer rolls back
/// to its last good weights.
#[derive(Debug)]
pub struct Autoencoder {
    /// Human-readable variant name (e.g. `"SQ-VAE(p=8)"`).
    pub name: String,
    encoder: HybridStack,
    latent: Latent,
    decoder: HybridStack,
    identity_latent_dim: Option<usize>,
    spec: Option<ModelSpec>,
    exec: ExecPolicy,
}

/// Output of a training-mode forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardOutput {
    /// Reconstruction, same shape as the input.
    pub reconstruction: Matrix,
    /// KL divergence of the latent sample (0 for non-variational models).
    pub kl: f64,
}

impl Autoencoder {
    /// Assembles an autoencoder from its stages. Its execution policy starts
    /// as [`ExecPolicy::from_env`], like that of every quantum layer.
    pub fn new(
        name: impl Into<String>,
        encoder: HybridStack,
        latent: Latent,
        decoder: HybridStack,
    ) -> Self {
        Autoencoder {
            name: name.into(),
            encoder,
            latent,
            decoder,
            identity_latent_dim: None,
            spec: None,
            exec: ExecPolicy::from_env(),
        }
    }

    /// Records the latent width for models whose latent stage is
    /// [`Latent::Identity`] (factories call this; other variants infer the
    /// width from their latent layer).
    pub fn with_identity_latent_dim(mut self, dim: usize) -> Self {
        self.identity_latent_dim = Some(dim);
        self
    }

    /// Records the [`ModelSpec`] that built this model (factories call
    /// this); checkpoints persist it so loading can rebuild the same
    /// architecture.
    pub fn with_spec(mut self, spec: ModelSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// The architecture descriptor recorded at construction, if this model
    /// came from a `models::*` factory. Hand-assembled models return `None`
    /// and cannot be checkpointed.
    pub fn spec(&self) -> Option<ModelSpec> {
        self.spec
    }

    /// The model's execution policy: [`ExecPolicy::from_env`] until
    /// [`Autoencoder::set_exec_policy`] changes it.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.exec
    }

    /// Whether the model is a VAE (supports sampling new data).
    pub fn is_variational(&self) -> bool {
        self.latent.is_variational()
    }

    /// Latent dimensionality (width of `z`).
    pub fn latent_dim(&self) -> usize {
        match &self.latent {
            Latent::Gaussian(g) => g.latent_dim(),
            // Identity: the encoder output width, recorded at construction.
            Latent::Identity => self
                .identity_latent_dim
                .expect("identity-latent models record their latent dim at construction"),
        }
    }

    /// Training-mode forward: encode, sample/transform the latent, decode.
    ///
    /// # Errors
    ///
    /// Returns shape errors from any stage.
    pub fn forward_train(
        &mut self,
        input: &Matrix,
        rng: &mut impl Rng,
    ) -> Result<ForwardOutput, NnError> {
        let h = self.encoder.forward(input)?;
        let z = match &mut self.latent {
            Latent::Identity => h,
            Latent::Gaussian(g) => g.forward_sample(&h, rng)?,
        };
        let kl = match &self.latent {
            Latent::Gaussian(g) => g.last_kl().unwrap_or(0.0),
            _ => 0.0,
        };
        let reconstruction = self.decoder.forward(&z)?;
        Ok(ForwardOutput { reconstruction, kl })
    }

    /// Evaluation-mode encoding: maps inputs to latent vectors. VAEs return
    /// the posterior mean `μ` (no sampling).
    ///
    /// Like every evaluation path here, this runs [`Module::infer`], so the
    /// stacks keep nothing (no simulator registers, no layer inputs).
    /// Non-finite inputs are not checked; they propagate (see the
    /// [type docs](Autoencoder)).
    ///
    /// # Errors
    ///
    /// Returns shape errors from any stage.
    pub fn encode(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        let h = self.encoder.infer(input)?;
        match &mut self.latent {
            Latent::Identity => Ok(h),
            Latent::Gaussian(g) => g.forward_mean(&h),
        }
    }

    /// Evaluation-mode reconstruction: VAEs use the posterior mean `μ`
    /// instead of sampling. Non-finite inputs propagate (see the
    /// [type docs](Autoencoder)).
    ///
    /// # Errors
    ///
    /// Returns shape errors from any stage.
    pub fn reconstruct(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        let z = self.encode(input)?;
        self.decoder.infer(&z)
    }

    /// Backward pass for the ELBO: takes `dL_recon/d(reconstruction)` and
    /// propagates through decoder, latent (adding the KL term), and encoder.
    ///
    /// # Errors
    ///
    /// Returns errors when called before [`Autoencoder::forward_train`].
    pub fn backward(&mut self, grad_reconstruction: &Matrix) -> Result<(), NnError> {
        let grad_z = self.decoder.backward(grad_reconstruction)?;
        let grad_h = match &mut self.latent {
            Latent::Identity => grad_z,
            Latent::Gaussian(g) => g.backward(&grad_z)?,
        };
        self.encoder.backward(&grad_h)?;
        Ok(())
    }

    /// Decodes latent vectors into data space (the generation path of
    /// Fig. 2(a)'s red box). Works for every variant; only VAEs have a
    /// *meaningful* prior to sample from. Non-finite latents propagate (see
    /// the [type docs](Autoencoder)).
    ///
    /// # Errors
    ///
    /// Returns shape errors when `z` width mismatches the decoder.
    pub fn decode(&mut self, z: &Matrix) -> Result<Matrix, NnError> {
        self.decoder.infer(z)
    }

    /// Draws `n` latent vectors `z ~ N(0, I)` without decoding them.
    ///
    /// [`Autoencoder::sample`] is exactly `decode(sample_latent(n, rng))`;
    /// the split lets callers (e.g. the inference service) batch the latent
    /// draws of several requests into one decoder pass while consuming the
    /// identical RNG stream a direct `sample` call would.
    pub fn sample_latent(&mut self, n: usize, rng: &mut impl Rng) -> Matrix {
        standard_normals(n, self.latent_dim(), rng)
    }

    /// Draws `n` samples by decoding `z ~ N(0, I)`.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the decoder.
    pub fn sample(&mut self, n: usize, rng: &mut impl Rng) -> Result<Matrix, NnError> {
        let z = self.sample_latent(n, rng);
        self.decode(&z)
    }

    /// Mutable access to all parameters in `group` (latent heads count as
    /// classical).
    pub fn parameters_of(&mut self, group: ParamGroup) -> Vec<&mut ParamTensor> {
        let mut v = self.encoder.parameters_of(group);
        if group == ParamGroup::Classical {
            v.extend(self.latent.parameters());
        }
        v.extend(self.decoder.parameters_of(group));
        v
    }

    /// Sets the execution policy (batch-row parallelism) on every stage and
    /// on the latent heads: quantum stages shard their register-bank chunks
    /// under it, and `Linear` stages and heads their products. This is the
    /// only way a model's policy changes: the trainer runs on whatever
    /// policy the model has.
    pub fn set_exec_policy(&mut self, policy: ExecPolicy) {
        self.exec = policy;
        self.encoder.set_exec_policy(policy);
        if let Latent::Gaussian(g) = &mut self.latent {
            g.set_exec_policy(policy);
        }
        self.decoder.set_exec_policy(policy);
    }

    /// Zeroes every gradient.
    pub fn zero_grad(&mut self) {
        for p in self.parameters_of(ParamGroup::Quantum) {
            p.zero_grad();
        }
        for p in self.parameters_of(ParamGroup::Classical) {
            p.zero_grad();
        }
    }

    /// Table I-style parameter accounting.
    pub fn parameter_count(&mut self) -> ParameterCount {
        ParameterCount {
            quantum: self
                .parameters_of(ParamGroup::Quantum)
                .iter()
                .map(|p| p.len())
                .sum(),
            classical: self
                .parameters_of(ParamGroup::Classical)
                .iter()
                .map(|p| p.len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latent::GaussianLatent;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqvae_nn::{Activation, ActivationKind, Linear};

    fn tiny_vae(seed: u64) -> Autoencoder {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut enc = HybridStack::new();
        enc.push_classical(Linear::new(6, 4, &mut rng));
        enc.push_classical(Activation::new(ActivationKind::Relu));
        let latent = Latent::Gaussian(GaussianLatent::new(4, 2, &mut rng));
        let mut dec = HybridStack::new();
        dec.push_classical(Linear::new(2, 6, &mut rng));
        Autoencoder::new("tiny-vae", enc, latent, dec)
    }

    #[test]
    fn forward_train_and_reconstruct() {
        let mut m = tiny_vae(0);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Matrix::filled(3, 6, 0.5);
        let out = m.forward_train(&x, &mut rng).unwrap();
        assert_eq!(out.reconstruction.shape(), (3, 6));
        assert!(out.kl >= 0.0);
        assert!(m.is_variational());
        let r = m.reconstruct(&x).unwrap();
        assert_eq!(r.shape(), (3, 6));
    }

    #[test]
    fn sampling_shape() {
        let mut m = tiny_vae(2);
        let mut rng = StdRng::seed_from_u64(3);
        let s = m.sample(5, &mut rng).unwrap();
        assert_eq!(s.shape(), (5, 6));
        assert_eq!(m.latent_dim(), 2);
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut m = tiny_vae(4);
        let mut rng = StdRng::seed_from_u64(5);
        let x = Matrix::filled(2, 6, 0.3);
        let out = m.forward_train(&x, &mut rng).unwrap();
        let (_, grad) = sqvae_nn::loss::mse(&out.reconstruction, &x).unwrap();
        m.backward(&grad).unwrap();
        let norm: f64 = m
            .parameters_of(ParamGroup::Classical)
            .iter()
            .map(|p| p.grad.frobenius_norm())
            .sum();
        assert!(norm > 0.0);
        m.zero_grad();
        let norm: f64 = m
            .parameters_of(ParamGroup::Classical)
            .iter()
            .map(|p| p.grad.frobenius_norm())
            .sum();
        assert_eq!(norm, 0.0);
    }

    #[test]
    fn exec_policy_reaches_the_latent_heads() {
        // Two settings in turn, so the second is a change whatever the
        // environment's starting policy is.
        let mut m = tiny_vae(7);
        for n in [2, 3] {
            let policy = ExecPolicy {
                threads: sqvae_nn::Threads::Fixed(n),
                ..ExecPolicy::from_env()
            };
            m.set_exec_policy(policy);
            assert_eq!(m.exec_policy(), policy);
            let Latent::Gaussian(g) = &m.latent else {
                panic!("tiny_vae is variational");
            };
            assert_eq!(g.mu_head.exec_policy(), policy);
            assert_eq!(g.logvar_head.exec_policy(), policy);
        }
    }

    #[test]
    fn parameter_count_totals() {
        let mut m = tiny_vae(6);
        let pc = m.parameter_count();
        assert_eq!(pc.quantum, 0);
        // enc 6*4+4 = 28; heads 2×(4*2+2)=20; dec 2*6+6=18.
        assert_eq!(pc.classical, 28 + 20 + 18);
        assert_eq!(pc.total(), pc.classical);
    }
}
