//! # sqvae-datasets
//!
//! Deterministic synthetic stand-ins for the four datasets of the DATE 2022
//! SQ-VAE paper, plus splitting/batching/normalization utilities. Each
//! generator module documents how it substitutes for the real data
//! (DESIGN.md §3 has the full table):
//!
//! | paper dataset | module | shape |
//! |---|---|---|
//! | QM9 (8×8 molecule matrices) | [`qm9`] | 64 features |
//! | PDBbind 2019 ligands (32×32) | [`pdbbind`] | 1024 features |
//! | scikit-learn Digits | [`digits`] | 64 features, 0–16 gray |
//! | grayscale CIFAR-10 | [`cifar_gray`] | 1024 features, \[0,1\] |
//!
//! Everything is seeded: the same configuration always yields the same
//! dataset, so every experiment in the reproduction is replayable.
//!
//! ## Example
//!
//! ```
//! use sqvae_datasets::pdbbind::{generate, PdbbindConfig};
//!
//! let ligands = generate(&PdbbindConfig { n_samples: 20, seed: 1 });
//! let (train, test) = ligands.shuffle_split(0.85, 0); // the paper's split
//! assert_eq!(train.len() + test.len(), 20);
//! ```

#![warn(missing_docs)]

mod dataset;

pub mod cifar_gray;
pub mod digits;
pub mod molgen;
pub mod pdbbind;
pub mod qm9;
pub mod stats;

pub use dataset::Dataset;
