//! # sqvae-core
//!
//! The primary contribution of the DATE 2022 paper *Scalable Variational
//! Quantum Circuits for Autoencoder-based Drug Discovery* (Li & Ghosh),
//! rebuilt in Rust: classical, baseline-quantum, and scalable
//! patched-quantum autoencoders with a shared training and sampling
//! pipeline.
//!
//! ## The model zoo (see [`models`])
//!
//! * **AE / VAE** — classical MLP baselines (64→32→16→latent and mirror).
//! * **F-BQ-AE / F-BQ-VAE** — fully quantum baseline: amplitude-embedding
//!   encoder with ⟨Z⟩ readout, angle-embedding decoder with probability
//!   readout; works on normalized data only.
//! * **H-BQ-AE / H-BQ-VAE** — hybrid baseline: classical FCs after both
//!   quantum halves map measurements back to original scales.
//! * **SQ-AE / SQ-VAE** — the scalable variant: *patched* quantum circuits
//!   enlarge the latent space from `log2(d)` to `p·log2(d/p)` (§III-C).
//!
//! Every quantum stage is one [`QuantumLayer`]: a strongly-entangling
//! sub-circuit with one angle vector per patch. The baselines build one
//! patch ([`QuantumLayer::new`]); SQ-AE and SQ-VAE build `p`
//! ([`QuantumLayer::amplitude_encoder`], [`QuantumLayer::angle_decoder`]),
//! with the latent width [`patched_latent_dim`].
//!
//! ## Example: train an SQ-AE on synthetic ligands
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use sqvae_core::{models, TrainConfig, Trainer};
//! use sqvae_datasets::pdbbind::{generate, PdbbindConfig};
//!
//! # fn main() -> Result<(), sqvae_nn::NnError> {
//! let data = generate(&PdbbindConfig { n_samples: 12, seed: 1 });
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = models::sq_ae(1024, 8, 1, &mut rng); // p=8 → LSD 56
//! let mut trainer = Trainer::new(TrainConfig {
//!     epochs: 1,
//!     batch_size: 4,
//!     ..TrainConfig::default()
//! });
//! let history = trainer.train(&mut model, &data, None)?;
//! assert_eq!(history.records.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod autoencoder;
mod hybrid;
mod latent;
mod quantum_layer;
mod trainer;

pub mod checkpoint;
pub mod faults;
pub mod models;
pub mod sampling;

pub use autoencoder::{Autoencoder, ForwardOutput, ParameterCount};
pub use hybrid::{HybridStack, ParamGroup};
pub use latent::{GaussianLatent, Latent};
pub use quantum_layer::{
    patched_latent_dim, PatchedQuantumLayer, QuantumInput, QuantumLayer, QuantumOutput,
};
pub use trainer::{AnomalyEvent, AnomalyKind, EpochRecord, History, TrainConfig, Trainer};

// Re-exported so downstream users can set a model's execution policy
// without depending on `sqvae-nn` directly.
pub use sqvae_nn::{BackendKind, ExecPolicy, Threads};
