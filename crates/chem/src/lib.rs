//! # sqvae-chem
//!
//! A self-contained cheminformatics substrate standing in for RDKit in the
//! DATE 2022 SQ-VAE reproduction (*Scalable Variational Quantum Circuits for
//! Autoencoder-based Drug Discovery*, Li & Ghosh).
//!
//! It provides exactly what the paper's pipeline needs:
//!
//! * [`Molecule`] — heavy-atom molecular graphs over C/N/O/F/S with implicit
//!   hydrogens, connectivity, and fragment utilities.
//! * [`MoleculeMatrix`] — the paper's Fig. 3 codec between graphs and the
//!   symmetric atom/bond-code matrices the autoencoders train on, robust to
//!   continuous model outputs.
//! * [`valence`] / [`sanitize`] — the validity model and repairs applied to
//!   decoded samples.
//! * [`rings`] — SSSR-approximate ring perception (aromatic rings,
//!   macrocycles, fusion).
//! * [`smiles`] — a writer/parser pair for human-readable inspection.
//! * [`properties`] — QED / logP / SA scorers with MolGAN-style \[0,1\]
//!   normalization (Table II's metrics). Each scorer documents how it
//!   substitutes for its RDKit counterpart.
//!
//! ## Example
//!
//! ```
//! use sqvae_chem::{properties::DrugProperties, smiles, MoleculeMatrix};
//!
//! # fn main() -> Result<(), sqvae_chem::ChemError> {
//! let mol = smiles::parse("CC(=O)OC")?;
//! let matrix = MoleculeMatrix::encode(&mol, 8)?;     // 8×8 features
//! let decoded = matrix.decode();                     // round-trips
//! assert_eq!(decoded.formula(), mol.formula());
//! let props = DrugProperties::compute(&decoded);
//! assert!(props.qed > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bond;
mod element;
mod error;
mod matrix;
mod molecule;

pub mod fingerprint;
pub mod properties;
pub mod rings;
pub mod sanitize;
pub mod scaffold;
pub mod smiles;
pub mod valence;

pub use bond::BondOrder;
pub use element::Element;
pub use error::{ChemError, Result};
pub use matrix::MoleculeMatrix;
pub use molecule::{Bond, Molecule};
