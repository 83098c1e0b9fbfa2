//! The autoencoder: encoder stack → latent stage → decoder stack.

use crate::hybrid::{HybridStack, ParamGroup};
use crate::latent::Latent;
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
#[derive(Debug)]
pub struct Autoencoder {
    /// Human-readable variant name (e.g. `"SQ-VAE(p=8)"`).
    pub name: String,
    encoder: HybridStack,
    latent: Latent,
    decoder: HybridStack,
    last_kl: f64,
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
    /// Assembles an autoencoder from its stages.
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
            last_kl: 0.0,
            identity_latent_dim: None,
            spec: None,
            exec: ExecPolicy::default(),
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

    /// The execution policy most recently applied via
    /// [`Autoencoder::set_exec_policy`] (default: sequential, dense).
    pub fn exec_policy(&self) -> ExecPolicy {
        self.exec
    }

    /// Whether the model is a VAE (supports sampling new data).
    pub fn is_variational(&self) -> bool {
        self.latent.is_variational()
    }

    /// Latent dimensionality (width of `z`).
    pub fn latent_dim(&mut self) -> usize {
        match &mut self.latent {
            Latent::Gaussian(g) => g.latent_dim(),
            Latent::Linear(l) => l.out_features(),
            // Identity: the encoder output width; probe with the decoder
            // input assumption — stored implicitly, so ask the encoder.
            Latent::Identity => self.probe_latent_dim(),
        }
    }

    fn probe_latent_dim(&mut self) -> usize {
        self.identity_latent_dim
            .expect("identity-latent models record their latent dim at construction")
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
            Latent::Linear(l) => l.forward(&h)?,
            Latent::Gaussian(g) => g.forward_sample(&h, rng)?,
        };
        let kl = match &self.latent {
            Latent::Gaussian(g) => g.last_kl().unwrap_or(0.0),
            _ => 0.0,
        };
        self.last_kl = kl;
        let reconstruction = self.decoder.forward(&z)?;
        Ok(ForwardOutput { reconstruction, kl })
    }

    /// Evaluation-mode encoding: maps inputs to latent vectors. VAEs return
    /// the posterior mean `μ` (no sampling).
    ///
    /// Like every evaluation path here, this runs [`Module::infer`], so the
    /// stacks keep nothing (no simulator registers, no layer inputs).
    ///
    /// # Errors
    ///
    /// Returns shape errors from any stage.
    pub fn encode(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        let h = self.encoder.infer(input)?;
        match &mut self.latent {
            Latent::Identity => Ok(h),
            Latent::Linear(l) => l.infer(&h),
            Latent::Gaussian(g) => g.forward_mean(&h),
        }
    }

    /// Evaluation-mode reconstruction: VAEs use the posterior mean `μ`
    /// instead of sampling.
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
            Latent::Linear(l) => l.backward(&grad_z)?,
            Latent::Gaussian(g) => g.backward(&grad_z)?,
        };
        self.encoder.backward(&grad_h)?;
        Ok(())
    }

    /// Decodes latent vectors into data space (the generation path of
    /// Fig. 2(a)'s red box). Works for every variant; only VAEs have a
    /// *meaningful* prior to sample from.
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
        let d = self.latent_dim();
        Matrix::from_fn(n, d, |_, _| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        })
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

    /// KL divergence of the most recent training forward.
    pub fn last_kl(&self) -> f64 {
        self.last_kl
    }

    /// Scales the VAE's KL weight (used by the trainer's warm-up schedule);
    /// a no-op for non-variational models.
    pub fn set_kl_scale(&mut self, scale: f64) {
        if let Latent::Gaussian(g) = &mut self.latent {
            g.set_kl_scale(scale);
        }
    }

    /// The current KL warm-up scale (1.0 for non-variational models, which
    /// have no KL term to scale).
    pub fn kl_scale(&self) -> f64 {
        match &self.latent {
            Latent::Gaussian(g) => g.kl_scale(),
            _ => 1.0,
        }
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

    /// Sets the unified execution policy — batch-row parallelism and
    /// simulator backend — on every quantum stage (classical stages and
    /// latent heads ignore it). The trainer calls this with its configured
    /// [`sqvae_nn::ExecPolicy`] before each run.
    pub fn set_exec_policy(&mut self, policy: sqvae_nn::ExecPolicy) {
        self.exec = policy;
        self.encoder.set_exec_policy(policy);
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
        let latent = Latent::Gaussian(GaussianLatent::new(4, 2, 1.0, &mut rng));
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
    fn parameter_count_totals() {
        let mut m = tiny_vae(6);
        let pc = m.parameter_count();
        assert_eq!(pc.quantum, 0);
        // enc 6*4+4 = 28; heads 2×(4*2+2)=20; dec 2*6+6=18.
        assert_eq!(pc.classical, 28 + 20 + 18);
        assert_eq!(pc.total(), pc.classical);
    }
}
