//! Molecule sampling and scoring — the generation half of the pipeline
//! (Fig. 2(a)'s red box, evaluated in Table II).
//!
//! Gaussian noise is decoded into molecule-matrix features, rounded into
//! graphs, sanitized (valence repair + largest fragment), and scored with
//! the QED / logP / SA metrics.
//!
//! Each molecule's chem work runs on the compute pool
//! ([`sqvae_nn::parallel`]), and every count, set and mean is then taken on
//! the calling thread in sample order, so the results are bit-identical for
//! any thread count.

use crate::autoencoder::Autoencoder;
use rand::Rng;
use sqvae_chem::fingerprint::{diversity, fingerprint, Fingerprint};
use sqvae_chem::properties::lipinski::RuleOfFive;
use sqvae_chem::properties::DrugProperties;
use sqvae_chem::{sanitize, valence, Molecule, MoleculeMatrix};
use sqvae_nn::{parallel, ExecPolicy, NnError};
use std::collections::HashSet;

/// Result of sampling a batch of molecules from a generative model.
#[derive(Debug, Clone)]
pub struct SampledMolecules {
    /// Sanitized molecules (one per sample that decoded to ≥1 atom).
    pub molecules: Vec<Molecule>,
    /// Fraction of samples that were already valid *before* sanitization.
    pub validity: f64,
    /// Mean Table II metrics over the sanitized molecules.
    pub properties: DrugProperties,
    /// Number of latent samples drawn.
    pub attempted: usize,
}

/// Draws `n` latent samples from `model`, decodes them into `size × size`
/// molecule matrices, and scores them. The per-sample chem work runs on the
/// compute pool under the model's [`ExecPolicy`] threads.
///
/// `rescale` multiplies decoded features before rounding — use it for fully
/// quantum models whose probability outputs live on the normalized scale
/// (pass the training set's mean L1 norm); hybrid/scalable models output
/// original-scale codes and take `None`.
///
/// `n == 0` is an explicit empty result — no molecules, `attempted: 0`, and
/// a validity of 0.0 (not a 0/0; earlier versions divided by `n.max(1)`,
/// quietly reporting a fraction over samples that were never drawn). The
/// RNG is untouched in that case.
///
/// # Errors
///
/// Returns shape errors from the decoder, and
/// [`NnError::ShapeMismatch`] (before any molecule is decoded) when the
/// model's output width is not `size * size`.
pub fn sample_molecules(
    model: &mut Autoencoder,
    n: usize,
    size: usize,
    rescale: Option<f64>,
    rng: &mut impl Rng,
) -> Result<SampledMolecules, NnError> {
    if n == 0 {
        return Ok(SampledMolecules {
            molecules: Vec::new(),
            validity: 0.0,
            properties: DrugProperties::default(),
            attempted: 0,
        });
    }
    let features = model.sample(n, rng)?;
    if size == 0 || features.cols() != size * size {
        return Err(NnError::ShapeMismatch {
            expected: (n, size * size),
            actual: features.shape(),
        });
    }
    let screened = parallel::map_rows(features.rows(), model.exec_policy().threads, |r| {
        screen_sample(features.row(r), size, rescale)
    });
    let mut molecules = Vec::new();
    let mut properties = Vec::new();
    let mut valid = 0usize;
    for s in screened.into_iter().flatten() {
        valid += usize::from(s.valid);
        if let Some((molecule, p)) = s.sanitized {
            molecules.push(molecule);
            properties.push(p);
        }
    }
    Ok(SampledMolecules {
        validity: valid as f64 / n as f64,
        properties: DrugProperties::mean(properties),
        molecules,
        attempted: n,
    })
}

/// One decoded sample's chem results.
struct Screened {
    /// Whether the decoded molecule was valid before sanitization.
    valid: bool,
    /// The sanitized molecule and its properties, when sanitization
    /// succeeded.
    sanitized: Option<(Molecule, DrugProperties)>,
}

/// One sample's chem work: rescale, decode, valence check, sanitize and
/// score. `None` when the sample decodes to no atoms.
fn screen_sample(values: &[f64], size: usize, rescale: Option<f64>) -> Option<Screened> {
    let mut row = values.to_vec();
    if let Some(s) = rescale {
        for v in &mut row {
            *v *= s;
        }
    }
    let decoded = MoleculeMatrix::from_values(size, row)
        .expect("sample width checked to be size*size")
        .decode();
    if decoded.is_empty() {
        return None;
    }
    let valid = valence::is_valid(&decoded);
    let sanitized = sanitize::sanitize(&decoded).ok().map(|s| {
        let p = DrugProperties::compute(&s.molecule);
        (s.molecule, p)
    });
    Some(Screened { valid, sanitized })
}

/// Generation-quality metrics in the MolGAN tradition: how valid, unique,
/// novel, diverse, and drug-filter-compliant a sample batch is.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GenerationMetrics {
    /// Fraction of attempted samples that decoded to valid molecules
    /// (before sanitization).
    pub validity: f64,
    /// Fraction of distinct fingerprints among the sanitized molecules.
    pub uniqueness: f64,
    /// Fraction of sanitized molecules whose fingerprint does not occur in
    /// the training set.
    pub novelty: f64,
    /// Mean pairwise Tanimoto distance among the sanitized molecules.
    pub diversity: f64,
    /// Fraction passing Lipinski's rule of five.
    pub lipinski: f64,
}

/// Scores a sample batch against its training set. Fingerprints and rule
/// of five checks run per molecule on the compute pool under
/// [`ExecPolicy::from_env`] threads; the sets, counts and diversity are
/// taken in molecule order.
pub fn generation_metrics(sampled: &SampledMolecules, training: &[Molecule]) -> GenerationMetrics {
    let n = sampled.molecules.len();
    if n == 0 {
        return GenerationMetrics {
            validity: sampled.validity,
            ..GenerationMetrics::default()
        };
    }
    let threads = ExecPolicy::from_env().threads;
    let mols = &sampled.molecules;
    let (fps, passes): (Vec<Fingerprint>, Vec<bool>) = parallel::map_rows(n, threads, |i| {
        (
            fingerprint(&mols[i]),
            RuleOfFive::compute(&mols[i]).passes(),
        )
    })
    .into_iter()
    .unzip();
    let train_fps: HashSet<Fingerprint> =
        parallel::map_rows(training.len(), threads, |i| fingerprint(&training[i]))
            .into_iter()
            .collect();
    let unique: HashSet<&Fingerprint> = fps.iter().collect();
    let novel = fps.iter().filter(|fp| !train_fps.contains(fp)).count();
    let lipinski_pass = passes.iter().filter(|&&p| p).count();
    GenerationMetrics {
        validity: sampled.validity,
        uniqueness: unique.len() as f64 / n as f64,
        novelty: novel as f64 / n as f64,
        diversity: diversity(&fps),
        lipinski: lipinski_pass as f64 / n as f64,
    }
}

/// Reconstructs one molecule through the model: encode → latent → decode →
/// round → sanitize. Returns the reconstructed molecule (empty decodes give
/// `None`).
///
/// `normalize_input` L1-normalizes the encoded features first (for fully
/// quantum models trained on normalized data, Fig. 4(b)); `rescale`
/// multiplies the decoded features before rounding (pass the original L1
/// norm to undo the normalization).
///
/// # Errors
///
/// Returns shape errors from the model.
pub fn reconstruct_molecule(
    model: &mut Autoencoder,
    mol: &Molecule,
    size: usize,
    normalize_input: bool,
    rescale: Option<f64>,
) -> Result<Option<Molecule>, NnError> {
    let matrix =
        MoleculeMatrix::encode(mol, size).expect("caller guarantees the molecule fits the matrix");
    let matrix = if normalize_input {
        matrix.l1_normalized()
    } else {
        matrix
    };
    let features = matrix.as_features().to_vec();
    let x = sqvae_nn::Matrix::from_vec(1, features.len(), features)?;
    let recon = model.reconstruct(&x)?;
    let mut row = recon.row(0).to_vec();
    if let Some(s) = rescale {
        for v in &mut row {
            *v *= s;
        }
    }
    let decoded = MoleculeMatrix::from_values(size, row)
        .expect("reconstruction width equals size*size")
        .decode();
    if decoded.is_empty() {
        return Ok(None);
    }
    Ok(sanitize::sanitize(&decoded).ok().map(|s| s.molecule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_produces_scored_molecules() {
        let mut rng = StdRng::seed_from_u64(0);
        // Untrained SQ-VAE on 64-dim (8×8 matrices): outputs are arbitrary
        // but the pipeline must be total.
        let mut model = models::sq_vae(64, 2, 1, &mut rng);
        let mut srng = StdRng::seed_from_u64(1);
        let out = sample_molecules(&mut model, 20, 8, None, &mut srng).unwrap();
        assert_eq!(out.attempted, 20);
        assert!(out.validity >= 0.0 && out.validity <= 1.0);
        for m in &out.molecules {
            assert!(valence::valences_ok(m));
            assert!(m.is_connected());
        }
        if !out.molecules.is_empty() {
            assert!(out.properties.qed > 0.0);
        }
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(3);
            models::sq_vae(64, 2, 1, &mut rng)
        };
        let mut m1 = build();
        let mut m2 = build();
        let out1 = sample_molecules(&mut m1, 5, 8, None, &mut StdRng::seed_from_u64(9)).unwrap();
        let out2 = sample_molecules(&mut m2, 5, 8, None, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(out1.molecules, out2.molecules);
    }

    #[test]
    fn zero_samples_is_an_explicit_empty_result() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = models::sq_vae(64, 2, 1, &mut rng);
        let mut srng = StdRng::seed_from_u64(8);
        let out = sample_molecules(&mut model, 0, 8, None, &mut srng).unwrap();
        assert_eq!(out.attempted, 0);
        assert!(out.molecules.is_empty());
        assert_eq!(out.validity, 0.0, "no samples drawn, none were valid");
        // The RNG must be untouched — nothing was decoded.
        use rand::RngCore;
        assert_eq!(srng.next_u64(), StdRng::seed_from_u64(8).next_u64());
    }

    #[test]
    fn sampling_rejects_a_size_that_does_not_match_the_decoder() {
        // The decoder emits 64 features (8×8); 32×32 asks for 1024.
        let mut rng = StdRng::seed_from_u64(10);
        let mut model = models::sq_vae(64, 2, 1, &mut rng);
        let err =
            sample_molecules(&mut model, 4, 32, None, &mut StdRng::seed_from_u64(11)).unwrap_err();
        assert_eq!(
            err,
            NnError::ShapeMismatch {
                expected: (4, 1024),
                actual: (4, 64),
            }
        );
        assert!(sample_molecules(&mut model, 4, 0, None, &mut StdRng::seed_from_u64(11)).is_err());
    }

    #[test]
    fn reconstruction_rejects_a_size_that_does_not_match_the_model() {
        use sqvae_chem::{BondOrder, Element};
        let mut mol = Molecule::new();
        let a = mol.add_atom(Element::C);
        let b = mol.add_atom(Element::N);
        mol.add_bond(a, b, BondOrder::Double).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut model = models::sq_vae(64, 2, 1, &mut rng);
        // A 4×4 matrix has 16 features; the encoder takes 64.
        let err = reconstruct_molecule(&mut model, &mol, 4, false, None).unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn rescale_amplifies_normalized_outputs() {
        // F-BQ probabilities are ≤ 1; without rescale nearly every entry
        // rounds to zero.
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = models::f_bq_vae(64, 1, &mut rng);
        let mut srng = StdRng::seed_from_u64(5);
        let plain = sample_molecules(&mut model, 10, 8, None, &mut srng).unwrap();
        let mut srng = StdRng::seed_from_u64(5);
        let scaled = sample_molecules(&mut model, 10, 8, Some(30.0), &mut srng).unwrap();
        let atoms =
            |s: &SampledMolecules| -> usize { s.molecules.iter().map(|m| m.n_atoms()).sum() };
        assert!(atoms(&scaled) >= atoms(&plain));
    }

    #[test]
    fn generation_metrics_ranges_and_edge_cases() {
        use sqvae_chem::{BondOrder, Element};
        // Hand-built sample batch: two identical + one distinct molecule.
        let mut a = Molecule::new();
        let c1 = a.add_atom(Element::C);
        let c2 = a.add_atom(Element::C);
        a.add_bond(c1, c2, BondOrder::Single).unwrap();
        let mut b = Molecule::new();
        let c = b.add_atom(Element::C);
        let o = b.add_atom(Element::O);
        b.add_bond(c, o, BondOrder::Single).unwrap();
        let sampled = SampledMolecules {
            molecules: vec![a.clone(), a.clone(), b.clone()],
            validity: 1.0,
            properties: Default::default(),
            attempted: 3,
        };
        // Training set contains molecule `a` but not `b`.
        let m = generation_metrics(&sampled, &[a.clone()]);
        assert!((m.uniqueness - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.novelty - 1.0 / 3.0).abs() < 1e-12);
        assert!(m.diversity > 0.0 && m.diversity <= 1.0);
        assert_eq!(m.lipinski, 1.0);
        // Empty batch: everything but validity zeroed.
        let empty = SampledMolecules {
            molecules: vec![],
            validity: 0.25,
            properties: Default::default(),
            attempted: 4,
        };
        let m = generation_metrics(&empty, &[a]);
        assert_eq!(m.validity, 0.25);
        assert_eq!(m.uniqueness, 0.0);
    }

    #[test]
    fn reconstruction_round_trip_through_model() {
        use sqvae_chem::{BondOrder, Element};
        let mut mol = Molecule::new();
        let a = mol.add_atom(Element::C);
        let b = mol.add_atom(Element::O);
        mol.add_bond(a, b, BondOrder::Single).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut model = models::classical_ae(64, 6, &mut rng);
        // Untrained model: reconstruction may be empty or a molecule — the
        // call itself must succeed either way.
        let out = reconstruct_molecule(&mut model, &mol, 8, false, None).unwrap();
        if let Some(m) = out {
            assert!(valence::valences_ok(&m));
        }
    }
}
