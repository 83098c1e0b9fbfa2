//! Latent-space heads: the difference between an AE and a VAE.
//!
//! §II-B of the paper: the VAE's inference network outputs Gaussian
//! parameters `(μ, log σ²)`; `z = μ + σ·ε` is sampled with the
//! reparametrization trick and regularized toward `N(0, I)` by the KL term
//! of the ELBO. Vanilla AEs skip the distribution ("the only part that AE
//! does not involve") and optionally pass through a small latent FC.

use rand::Rng;
use sqvae_nn::{loss, Linear, Matrix, Module, NnError, ParamTensor};

/// Gaussian latent head with reparametrized sampling.
#[derive(Debug, Clone)]
pub struct GaussianLatent {
    mu_head: Linear,
    logvar_head: Linear,
    cached: Option<LatentCache>,
    kl_weight: f64,
    kl_scale: f64,
}

/// Clamp range for log σ² — keeps `exp(logvar)` finite at initialization
/// (the standard VAE stabilization; gradients are masked outside the range).
const LOGVAR_CLAMP: f64 = 6.0;

#[derive(Debug, Clone)]
struct LatentCache {
    mu: Matrix,
    /// Clamped log-variance used by sampling and the KL term.
    logvar: Matrix,
    /// 1.0 where the raw head output was inside the clamp range, else 0.0.
    logvar_mask: Matrix,
    eps: Matrix,
    kl: f64,
}

impl GaussianLatent {
    /// Creates μ and log σ² heads mapping `hidden_dim → latent_dim`, with KL
    /// weight `kl_weight` in the ELBO.
    pub fn new(hidden_dim: usize, latent_dim: usize, kl_weight: f64, rng: &mut impl Rng) -> Self {
        GaussianLatent {
            mu_head: Linear::new(hidden_dim, latent_dim, rng),
            logvar_head: Linear::new(hidden_dim, latent_dim, rng),
            cached: None,
            kl_weight,
            kl_scale: 1.0,
        }
    }

    /// Scales the KL weight (for warm-up schedules); `1.0` restores the
    /// configured weight.
    pub fn set_kl_scale(&mut self, scale: f64) {
        self.kl_scale = scale.max(0.0);
    }

    /// The current KL warm-up scale (1.0 unless a schedule is mid-ramp).
    pub fn kl_scale(&self) -> f64 {
        self.kl_scale
    }

    /// Latent width.
    pub fn latent_dim(&self) -> usize {
        self.mu_head.out_features()
    }

    /// Samples `z = μ(h) + σ(h)·ε` for a batch of hidden states.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `hidden` width mismatches the heads.
    pub fn forward_sample(
        &mut self,
        hidden: &Matrix,
        rng: &mut impl Rng,
    ) -> Result<Matrix, NnError> {
        let mu = self.mu_head.forward(hidden)?;
        let raw_logvar = self.logvar_head.forward(hidden)?;
        let logvar = raw_logvar.map(|lv| lv.clamp(-LOGVAR_CLAMP, LOGVAR_CLAMP));
        let logvar_mask = raw_logvar.map(|lv| if lv.abs() < LOGVAR_CLAMP { 1.0 } else { 0.0 });
        let eps = Matrix::from_fn(mu.rows(), mu.cols(), |_, _| {
            // Box-Muller standard normal.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        });
        let sigma = logvar.map(|lv| (0.5 * lv).exp());
        let z = mu.add(&sigma.hadamard(&eps)?)?;
        let (kl, _, _) = loss::gaussian_kl(&mu, &logvar)?;
        self.cached = Some(LatentCache {
            mu,
            logvar,
            logvar_mask,
            eps,
            kl,
        });
        Ok(z)
    }

    /// The deterministic latent code `μ(h)` (used at evaluation time); the
    /// head runs [`Module::infer`], so it keeps nothing.
    ///
    /// Invalidates any cached sample: a `backward` call must always pair
    /// with the *immediately preceding* `forward_sample`, and an evaluation
    /// pass in between ends that pairing, so `backward` reports
    /// [`NnError::BackwardBeforeForward`] instead of differentiating a
    /// sample older than the evaluation.
    ///
    /// # Errors
    ///
    /// Returns shape errors when `hidden` width mismatches the heads.
    pub fn forward_mean(&mut self, hidden: &Matrix) -> Result<Matrix, NnError> {
        self.cached = None;
        self.mu_head.infer(hidden)
    }

    /// KL divergence of the most recent [`GaussianLatent::forward_sample`].
    pub fn last_kl(&self) -> Option<f64> {
        self.cached.as_ref().map(|c| c.kl)
    }

    /// The KL weight in the ELBO.
    pub fn kl_weight(&self) -> f64 {
        self.kl_weight
    }

    /// Backward through sampling *and* the KL regularizer: consumes
    /// `dL_recon/dz`, adds `kl_weight · dKL/d(μ, logvar)`, and returns
    /// `dL/d(hidden)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] without a cached sample.
    pub fn backward(&mut self, grad_z: &Matrix) -> Result<Matrix, NnError> {
        let cache = self.cached.as_ref().ok_or(NnError::BackwardBeforeForward)?;
        // z = μ + ε·exp(logvar/2):
        //   dz/dμ = 1
        //   dz/dlogvar = ε·exp(logvar/2)/2
        let sigma = cache.logvar.map(|lv| (0.5 * lv).exp());
        let grad_mu_recon = grad_z.clone();
        let grad_logvar_recon = grad_z.hadamard(&cache.eps)?.hadamard(&sigma)?.scale(0.5);
        let (_, kl_mu, kl_logvar) = loss::gaussian_kl(&cache.mu, &cache.logvar)?;
        let effective_weight = self.kl_weight * self.kl_scale;
        let mut grad_mu = grad_mu_recon;
        grad_mu.add_scaled(&kl_mu, effective_weight)?;
        let mut grad_logvar = grad_logvar_recon;
        grad_logvar.add_scaled(&kl_logvar, effective_weight)?;
        // Clamped entries have zero derivative through the clamp.
        let grad_logvar = grad_logvar.hadamard(&cache.logvar_mask)?;
        let gh_mu = self.mu_head.backward(&grad_mu)?;
        let gh_logvar = self.logvar_head.backward(&grad_logvar)?;
        gh_mu.add(&gh_logvar)
    }

    /// Both heads' parameter tensors (classical group).
    pub fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        let mut v = self.mu_head.parameters();
        v.extend(self.logvar_head.parameters());
        v
    }

    /// Total scalar parameters.
    pub fn parameter_count(&mut self) -> usize {
        self.parameters().iter().map(|p| p.len()).sum()
    }
}

/// The latent stage of an autoencoder.
///
/// One `Latent` exists per model, so the size spread between the empty
/// `Identity` and the two-headed `Gaussian` variant is irrelevant; boxing
/// would only add an indirection to the training hot path.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Latent {
    /// No latent transformation (fully quantum AE).
    Identity,
    /// A latent fully connected layer (hybrid/classical AE variants).
    Linear(Linear),
    /// Gaussian heads with reparametrized sampling (VAE variants).
    Gaussian(GaussianLatent),
}

impl Latent {
    /// Whether this latent stage makes the model generative (a VAE).
    pub fn is_variational(&self) -> bool {
        matches!(self, Latent::Gaussian(_))
    }

    /// Parameter tensors of the latent stage (classical group).
    pub fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        match self {
            Latent::Identity => Vec::new(),
            Latent::Linear(l) => l.parameters(),
            Latent::Gaussian(g) => g.parameters(),
        }
    }

    /// Scalar parameter count.
    pub fn parameter_count(&mut self) -> usize {
        self.parameters().iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_shapes_and_kl() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lat = GaussianLatent::new(4, 3, 1.0, &mut rng);
        let h = Matrix::filled(5, 4, 0.2);
        let z = lat.forward_sample(&h, &mut rng).unwrap();
        assert_eq!(z.shape(), (5, 3));
        assert!(lat.last_kl().unwrap() >= 0.0);
        assert_eq!(lat.latent_dim(), 3);
    }

    #[test]
    fn paper_head_parameter_count() {
        // Two 6→6 heads = 84 classical parameters (Table I, F-BQ-VAE).
        let mut rng = StdRng::seed_from_u64(1);
        let mut lat = GaussianLatent::new(6, 6, 1.0, &mut rng);
        assert_eq!(lat.parameter_count(), 84);
    }

    #[test]
    fn sampling_is_stochastic_but_mean_is_not() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lat = GaussianLatent::new(3, 2, 1.0, &mut rng);
        let h = Matrix::filled(1, 3, 0.5);
        let z1 = lat.forward_sample(&h, &mut rng).unwrap();
        let z2 = lat.forward_sample(&h, &mut rng).unwrap();
        assert_ne!(z1, z2);
        let m1 = lat.forward_mean(&h).unwrap();
        let m2 = lat.forward_mean(&h).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lat = GaussianLatent::new(2, 2, 1.0, &mut rng);
        assert!(lat.backward(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn forward_mean_invalidates_the_sample_cache() {
        // A mean (evaluation) forward between forward_sample and backward
        // must not leave the stale sample cache behind: backward would pair
        // the old ε/μ/logvar with mu_head activations from the *mean* pass.
        let mut rng = StdRng::seed_from_u64(6);
        let mut lat = GaussianLatent::new(3, 2, 1.0, &mut rng);
        let h = Matrix::filled(2, 3, 0.4);
        lat.forward_sample(&h, &mut rng).unwrap();
        assert!(lat.last_kl().is_some());
        lat.forward_mean(&h).unwrap();
        assert!(lat.last_kl().is_none());
        assert_eq!(
            lat.backward(&Matrix::zeros(2, 2)),
            Err(NnError::BackwardBeforeForward)
        );
    }

    #[test]
    fn gradient_check_through_reparametrization() {
        // With ε frozen (reuse the cache), d(sum z)/d(head params) must match
        // finite differences of μ + ε·σ.
        let mut rng = StdRng::seed_from_u64(4);
        let mut lat = GaussianLatent::new(3, 2, 0.0, &mut rng); // kl_weight 0 isolates reparam path
        let h = Matrix::from_rows(&[&[0.3, -0.2, 0.7]]).unwrap();
        let _z = lat.forward_sample(&h, &mut rng).unwrap();
        let eps_frozen = lat.cached.as_ref().unwrap().eps.clone();
        let grad_h = lat.backward(&Matrix::filled(1, 2, 1.0)).unwrap();

        let loss_with = |lat: &mut GaussianLatent, h: &Matrix| -> f64 {
            let mu = lat.mu_head.forward(h).unwrap();
            let logvar = lat.logvar_head.forward(h).unwrap();
            let sigma = logvar.map(|lv| (0.5 * lv).exp());
            mu.add(&sigma.hadamard(&eps_frozen).unwrap()).unwrap().sum()
        };
        let base = loss_with(&mut lat.clone(), &h);
        let fd_eps = 1e-6;
        for c in 0..3 {
            let mut hp = h.clone();
            hp.set(0, c, h.get(0, c) + fd_eps);
            let fp = loss_with(&mut lat.clone(), &hp);
            let fd = (fp - base) / fd_eps;
            assert!((grad_h.get(0, c) - fd).abs() < 1e-4, "dh[{c}]");
        }
    }

    #[test]
    fn extreme_head_outputs_are_clamped() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut lat = GaussianLatent::new(2, 2, 1.0, &mut rng);
        // Force an enormous logvar by scaling the head weights.
        for p in lat.logvar_head.parameters() {
            for v in p.value.as_mut_slice() {
                *v = 100.0;
            }
        }
        let h = Matrix::filled(1, 2, 10.0);
        let z = lat.forward_sample(&h, &mut rng).unwrap();
        assert!(z.as_slice().iter().all(|v| v.is_finite()));
        assert!(lat.last_kl().unwrap().is_finite());
        // Gradient through the clamp is masked to zero for the logvar path.
        let g = lat.backward(&Matrix::filled(1, 2, 1.0)).unwrap();
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn latent_enum_properties() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut id = Latent::Identity;
        assert!(!id.is_variational());
        assert_eq!(id.parameter_count(), 0);
        let mut lin = Latent::Linear(Linear::new(6, 6, &mut rng));
        assert_eq!(lin.parameter_count(), 42);
        let g = Latent::Gaussian(GaussianLatent::new(6, 6, 1.0, &mut rng));
        assert!(g.is_variational());
    }
}
