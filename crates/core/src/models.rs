//! Factory functions for every autoencoder variant in the paper.
//!
//! | factory | paper name | input | notes |
//! |---|---|---|---|
//! | [`classical_ae`]/[`classical_vae`] | AE / VAE | any | 3-layer MLP halves |
//! | [`f_bq_ae`]/[`f_bq_vae`] | F-BQ-AE / F-BQ-VAE | 2^n | fully quantum baseline |
//! | [`h_bq_ae`]/[`h_bq_vae`] | H-BQ-AE / H-BQ-VAE | 2^n | + classical FCs for original scale |
//! | [`sq_ae`]/[`sq_vae`] | SQ-AE / SQ-VAE | 2^n | patched circuits (§III-C) |
//!
//! Hybrid variants follow §IV-B: "Both quantum encoder and decoder are
//! connected to a classical layer" — a latent-width FC after the quantum
//! encoder and a full-width FC after the quantum decoder. With the paper's
//! 64-feature / 6-qubit / 3-layer baseline this accounting reproduces
//! Table I's quantum counts exactly (108) and its classical counts for the
//! hybrid variants (4202 / 4286 = 42 + 84·\[VAE\] + 4160).

use crate::autoencoder::Autoencoder;
use crate::hybrid::HybridStack;
use crate::latent::{GaussianLatent, Latent};
use crate::quantum_layer::{patched_latent_dim, QuantumInput, QuantumLayer, QuantumOutput};
use rand::Rng;
use sqvae_nn::{Activation, ActivationKind, Linear};
use sqvae_quantum::embed::qubits_for_features;
use sqvae_quantum::MAX_QUBITS;

/// Default KL weight for the VAE variants.
pub const DEFAULT_KL_WEIGHT: f64 = 1.0;

/// The architecture of a factory-built autoencoder, captured as data.
///
/// Every `models::*` factory stamps its spec onto the returned
/// [`Autoencoder`], so a trained model can be persisted (the checkpoint
/// format stores the spec as a tag string) and rebuilt later via
/// [`ModelSpec::build`] — same constructor, same shapes — before the saved
/// parameters are copied in.
///
/// The textual form round-trips through [`std::fmt::Display`] /
/// [`std::str::FromStr`]: `"sq_vae 64 2 1"` ⇄ `SqVae { input_dim: 64,
/// p: 2, n_layers: 1 }`. Parsing refuses, with an error, every spec whose
/// factory would panic; a value written in code meets the factory's
/// construction asserts when it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// [`classical_ae`].
    ClassicalAe {
        /// Feature width.
        input_dim: usize,
        /// Latent width.
        latent_dim: usize,
    },
    /// [`classical_vae`].
    ClassicalVae {
        /// Feature width.
        input_dim: usize,
        /// Latent width.
        latent_dim: usize,
    },
    /// [`f_bq_ae`].
    FBqAe {
        /// Feature width (≤ 2^qubits).
        input_dim: usize,
        /// Strongly-entangling layer count.
        n_layers: usize,
    },
    /// [`f_bq_vae`].
    FBqVae {
        /// Feature width (≤ 2^qubits).
        input_dim: usize,
        /// Strongly-entangling layer count.
        n_layers: usize,
    },
    /// [`h_bq_ae`].
    HBqAe {
        /// Feature width (≤ 2^qubits).
        input_dim: usize,
        /// Strongly-entangling layer count.
        n_layers: usize,
    },
    /// [`h_bq_vae`].
    HBqVae {
        /// Feature width (≤ 2^qubits).
        input_dim: usize,
        /// Strongly-entangling layer count.
        n_layers: usize,
    },
    /// [`sq_ae`].
    SqAe {
        /// Feature width (power of two).
        input_dim: usize,
        /// Patch count (power of two, `< input_dim`).
        p: usize,
        /// Strongly-entangling layer count per patch.
        n_layers: usize,
    },
    /// [`sq_vae`].
    SqVae {
        /// Feature width (power of two).
        input_dim: usize,
        /// Patch count (power of two, `< input_dim`).
        p: usize,
        /// Strongly-entangling layer count per patch.
        n_layers: usize,
    },
}

impl ModelSpec {
    /// Rebuilds the architecture this spec describes by calling its factory.
    ///
    /// The `rng` only seeds the *initial* parameters; checkpoint loading
    /// overwrites every tensor afterwards, so any seed yields the same
    /// restored model.
    pub fn build(&self, rng: &mut impl Rng) -> Autoencoder {
        match *self {
            ModelSpec::ClassicalAe {
                input_dim,
                latent_dim,
            } => classical_ae(input_dim, latent_dim, rng),
            ModelSpec::ClassicalVae {
                input_dim,
                latent_dim,
            } => classical_vae(input_dim, latent_dim, rng),
            ModelSpec::FBqAe {
                input_dim,
                n_layers,
            } => f_bq_ae(input_dim, n_layers, rng),
            ModelSpec::FBqVae {
                input_dim,
                n_layers,
            } => f_bq_vae(input_dim, n_layers, rng),
            ModelSpec::HBqAe {
                input_dim,
                n_layers,
            } => h_bq_ae(input_dim, n_layers, rng),
            ModelSpec::HBqVae {
                input_dim,
                n_layers,
            } => h_bq_vae(input_dim, n_layers, rng),
            ModelSpec::SqAe {
                input_dim,
                p,
                n_layers,
            } => sq_ae(input_dim, p, n_layers, rng),
            ModelSpec::SqVae {
                input_dim,
                p,
                n_layers,
            } => sq_vae(input_dim, p, n_layers, rng),
        }
    }

    /// Trainable parameters (both groups) of the model this spec builds;
    /// `None` when its factory would refuse it — the construction asserts
    /// of [`patched_latent_dim`], registers of 1 to [`MAX_QUBITS`] qubits,
    /// non-zero widths — or the count overflows. Pure arithmetic, so a
    /// checkpoint's spec is checked against the tensors it stores before
    /// the factory allocates anything.
    pub(crate) fn parameter_count(&self) -> Option<usize> {
        // Weights plus biases of an `i → o` fully connected layer.
        let linear = |i: usize, o: usize| i.checked_mul(o)?.checked_add(o);
        // Three angles per wire and strongly-entangling layer.
        let circuit =
            |n_qubits: usize, n_layers: usize| n_qubits.checked_mul(n_layers)?.checked_mul(3);
        let register = |n_qubits: usize| (1..=MAX_QUBITS).contains(&n_qubits).then_some(n_qubits);
        let (stages, latent_dim) = match *self {
            ModelSpec::ClassicalAe {
                input_dim,
                latent_dim,
            }
            | ModelSpec::ClassicalVae {
                input_dim,
                latent_dim,
            } => {
                let (h1, h2) = default_hidden_dims(input_dim);
                let (i, l) = (input_dim, latent_dim);
                let mlp = [(i, h1), (h1, h2), (h2, l), (l, h2), (h2, h1), (h1, i)];
                (
                    mlp.map(|(a, b)| linear(a, b)).to_vec(),
                    (i > 0).then_some(l),
                )
            }
            ModelSpec::FBqAe {
                input_dim,
                n_layers,
            }
            | ModelSpec::FBqVae {
                input_dim,
                n_layers,
            } => {
                let nq = register(qubits_for_features(input_dim)).filter(|_| input_dim > 0)?;
                (vec![circuit(nq, n_layers); 2], Some(nq))
            }
            ModelSpec::HBqAe {
                input_dim,
                n_layers,
            }
            | ModelSpec::HBqVae {
                input_dim,
                n_layers,
            } => {
                let nq = register(qubits_for_features(input_dim)).filter(|_| input_dim > 0)?;
                let encoder = [circuit(nq, n_layers), linear(nq, nq)];
                let decoder = [circuit(nq, n_layers), linear(1 << nq, input_dim)];
                ([encoder, decoder].concat(), Some(nq))
            }
            ModelSpec::SqAe {
                input_dim,
                p,
                n_layers,
            }
            | ModelSpec::SqVae {
                input_dim,
                p,
                n_layers,
            } => {
                if !(input_dim.is_power_of_two() && p.is_power_of_two() && p < input_dim) {
                    return None;
                }
                // p · log2(input_dim / p) < input_dim: no overflow.
                let lsd = p * register((input_dim / p).trailing_zeros() as usize)?;
                let encoder = [circuit(lsd, n_layers), linear(lsd, lsd)];
                let decoder = [circuit(lsd, n_layers), linear(lsd, input_dim)];
                ([encoder, decoder].concat(), Some(lsd))
            }
        };
        let latent_dim = latent_dim.filter(|&l| l > 0)?;
        let variational = matches!(
            self,
            ModelSpec::ClassicalVae { .. }
                | ModelSpec::FBqVae { .. }
                | ModelSpec::HBqVae { .. }
                | ModelSpec::SqVae { .. }
        );
        // The VAEs' Gaussian heads: two `latent_dim → latent_dim` layers.
        let heads = if variational {
            linear(latent_dim, latent_dim)?.checked_mul(2)
        } else {
            Some(0)
        };
        stages
            .into_iter()
            .chain([heads])
            .try_fold(0usize, |sum, n| sum.checked_add(n?))
    }

    /// The feature width the model consumes and reconstructs.
    pub fn input_dim(&self) -> usize {
        match *self {
            ModelSpec::ClassicalAe { input_dim, .. }
            | ModelSpec::ClassicalVae { input_dim, .. }
            | ModelSpec::FBqAe { input_dim, .. }
            | ModelSpec::FBqVae { input_dim, .. }
            | ModelSpec::HBqAe { input_dim, .. }
            | ModelSpec::HBqVae { input_dim, .. }
            | ModelSpec::SqAe { input_dim, .. }
            | ModelSpec::SqVae { input_dim, .. } => input_dim,
        }
    }
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ModelSpec::ClassicalAe {
                input_dim,
                latent_dim,
            } => write!(f, "classical_ae {input_dim} {latent_dim}"),
            ModelSpec::ClassicalVae {
                input_dim,
                latent_dim,
            } => write!(f, "classical_vae {input_dim} {latent_dim}"),
            ModelSpec::FBqAe {
                input_dim,
                n_layers,
            } => write!(f, "f_bq_ae {input_dim} {n_layers}"),
            ModelSpec::FBqVae {
                input_dim,
                n_layers,
            } => write!(f, "f_bq_vae {input_dim} {n_layers}"),
            ModelSpec::HBqAe {
                input_dim,
                n_layers,
            } => write!(f, "h_bq_ae {input_dim} {n_layers}"),
            ModelSpec::HBqVae {
                input_dim,
                n_layers,
            } => write!(f, "h_bq_vae {input_dim} {n_layers}"),
            ModelSpec::SqAe {
                input_dim,
                p,
                n_layers,
            } => write!(f, "sq_ae {input_dim} {p} {n_layers}"),
            ModelSpec::SqVae {
                input_dim,
                p,
                n_layers,
            } => write!(f, "sq_vae {input_dim} {p} {n_layers}"),
        }
    }
}

impl std::str::FromStr for ModelSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split_whitespace();
        let kind = it.next().ok_or_else(|| "empty model spec".to_string())?;
        let nums: Vec<usize> = it
            .map(|t| {
                t.parse::<usize>()
                    .map_err(|_| format!("non-numeric field '{t}' in model spec '{s}'"))
            })
            .collect::<Result<_, _>>()?;
        let want = |n: usize| -> Result<(), String> {
            if nums.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "model spec '{s}': expected {n} numeric fields, got {}",
                    nums.len()
                ))
            }
        };
        let spec = match kind {
            "classical_ae" => {
                want(2)?;
                Ok(ModelSpec::ClassicalAe {
                    input_dim: nums[0],
                    latent_dim: nums[1],
                })
            }
            "classical_vae" => {
                want(2)?;
                Ok(ModelSpec::ClassicalVae {
                    input_dim: nums[0],
                    latent_dim: nums[1],
                })
            }
            "f_bq_ae" => {
                want(2)?;
                Ok(ModelSpec::FBqAe {
                    input_dim: nums[0],
                    n_layers: nums[1],
                })
            }
            "f_bq_vae" => {
                want(2)?;
                Ok(ModelSpec::FBqVae {
                    input_dim: nums[0],
                    n_layers: nums[1],
                })
            }
            "h_bq_ae" => {
                want(2)?;
                Ok(ModelSpec::HBqAe {
                    input_dim: nums[0],
                    n_layers: nums[1],
                })
            }
            "h_bq_vae" => {
                want(2)?;
                Ok(ModelSpec::HBqVae {
                    input_dim: nums[0],
                    n_layers: nums[1],
                })
            }
            "sq_ae" => {
                want(3)?;
                Ok(ModelSpec::SqAe {
                    input_dim: nums[0],
                    p: nums[1],
                    n_layers: nums[2],
                })
            }
            "sq_vae" => {
                want(3)?;
                Ok(ModelSpec::SqVae {
                    input_dim: nums[0],
                    p: nums[1],
                    n_layers: nums[2],
                })
            }
            other => Err(format!("unknown model kind '{other}'")),
        }?;
        match spec.parameter_count() {
            Some(_) => Ok(spec),
            None => Err(format!(
                "model spec '{spec}' describes no buildable model (powers of two with p < \
                 input_dim, registers of 1 to {MAX_QUBITS} qubits, non-zero widths, a count \
                 that fits usize)"
            )),
        }
    }
}

/// The paper's default quantum hidden-layer count for the baseline (§III-B).
pub const BASELINE_LAYERS: usize = 3;

/// The depth selected by the Fig. 6 sweep for scalable variants.
pub const SCALABLE_LAYERS: usize = 5;

/// Hidden widths for the classical MLP halves: the paper's 64→32→16→latent
/// generalized as `input/2 → input/4 → latent`.
pub fn default_hidden_dims(input_dim: usize) -> (usize, usize) {
    ((input_dim / 2).max(2), (input_dim / 4).max(2))
}

fn mlp_encoder(input_dim: usize, latent_dim: usize, rng: &mut impl Rng) -> HybridStack {
    let (h1, h2) = default_hidden_dims(input_dim);
    let mut s = HybridStack::new();
    s.push_classical(Linear::new(input_dim, h1, rng));
    s.push_classical(Activation::new(ActivationKind::Relu));
    s.push_classical(Linear::new(h1, h2, rng));
    s.push_classical(Activation::new(ActivationKind::Relu));
    s.push_classical(Linear::new(h2, latent_dim, rng));
    s
}

fn mlp_decoder(latent_dim: usize, output_dim: usize, rng: &mut impl Rng) -> HybridStack {
    let (h1, h2) = default_hidden_dims(output_dim);
    let mut s = HybridStack::new();
    s.push_classical(Linear::new(latent_dim, h2, rng));
    s.push_classical(Activation::new(ActivationKind::Relu));
    s.push_classical(Linear::new(h2, h1, rng));
    s.push_classical(Activation::new(ActivationKind::Relu));
    s.push_classical(Linear::new(h1, output_dim, rng));
    s
}

/// Classical vanilla autoencoder (the paper's "AE", Table I column 1).
pub fn classical_ae(input_dim: usize, latent_dim: usize, rng: &mut impl Rng) -> Autoencoder {
    Autoencoder::new(
        format!("AE(lsd={latent_dim})"),
        mlp_encoder(input_dim, latent_dim, rng),
        Latent::Identity,
        mlp_decoder(latent_dim, input_dim, rng),
    )
    .with_identity_latent_dim(latent_dim)
    .with_spec(ModelSpec::ClassicalAe {
        input_dim,
        latent_dim,
    })
}

/// Classical variational autoencoder (the paper's "VAE").
pub fn classical_vae(input_dim: usize, latent_dim: usize, rng: &mut impl Rng) -> Autoencoder {
    Autoencoder::new(
        format!("VAE(lsd={latent_dim})"),
        mlp_encoder(input_dim, latent_dim, rng),
        Latent::Gaussian(GaussianLatent::new(
            latent_dim,
            latent_dim,
            DEFAULT_KL_WEIGHT,
            rng,
        )),
        mlp_decoder(latent_dim, input_dim, rng),
    )
    .with_spec(ModelSpec::ClassicalVae {
        input_dim,
        latent_dim,
    })
}

fn baseline_quantum_encoder(
    input_dim: usize,
    n_layers: usize,
    rng: &mut impl Rng,
) -> (HybridStack, usize) {
    let n_qubits = qubits_for_features(input_dim);
    let mut enc = HybridStack::new();
    enc.push_quantum(QuantumLayer::new(
        n_qubits,
        n_layers,
        QuantumInput::Amplitude {
            in_features: input_dim,
        },
        QuantumOutput::ExpectationZ,
        rng,
    ));
    (enc, n_qubits)
}

fn baseline_quantum_decoder(n_qubits: usize, n_layers: usize, rng: &mut impl Rng) -> HybridStack {
    let mut dec = HybridStack::new();
    dec.push_quantum(QuantumLayer::new(
        n_qubits,
        n_layers,
        QuantumInput::Angle,
        QuantumOutput::Probabilities,
        rng,
    ));
    dec
}

/// Fully quantum baseline AE (F-BQ-AE): amplitude-in/expectation-out
/// encoder, angle-in/probability-out decoder, no classical parameters.
/// Suitable for *normalized* data only (§III-B).
pub fn f_bq_ae(input_dim: usize, n_layers: usize, rng: &mut impl Rng) -> Autoencoder {
    let (enc, n_qubits) = baseline_quantum_encoder(input_dim, n_layers, rng);
    let dec = baseline_quantum_decoder(n_qubits, n_layers, rng);
    Autoencoder::new(format!("F-BQ-AE({input_dim}d)"), enc, Latent::Identity, dec)
        .with_identity_latent_dim(n_qubits)
        .with_spec(ModelSpec::FBqAe {
            input_dim,
            n_layers,
        })
}

/// Fully quantum baseline VAE (F-BQ-VAE): adds Gaussian latent heads.
pub fn f_bq_vae(input_dim: usize, n_layers: usize, rng: &mut impl Rng) -> Autoencoder {
    let (enc, n_qubits) = baseline_quantum_encoder(input_dim, n_layers, rng);
    let dec = baseline_quantum_decoder(n_qubits, n_layers, rng);
    Autoencoder::new(
        format!("F-BQ-VAE({input_dim}d)"),
        enc,
        Latent::Gaussian(GaussianLatent::new(
            n_qubits,
            n_qubits,
            DEFAULT_KL_WEIGHT,
            rng,
        )),
        dec,
    )
    .with_spec(ModelSpec::FBqVae {
        input_dim,
        n_layers,
    })
}

/// Hybrid baseline AE (H-BQ-AE): quantum halves plus a latent-width FC after
/// the encoder and a full-width FC after the decoder, for original-scale
/// data.
pub fn h_bq_ae(input_dim: usize, n_layers: usize, rng: &mut impl Rng) -> Autoencoder {
    let (mut enc, n_qubits) = baseline_quantum_encoder(input_dim, n_layers, rng);
    enc.push_classical(Linear::new(n_qubits, n_qubits, rng));
    let mut dec = baseline_quantum_decoder(n_qubits, n_layers, rng);
    dec.push_classical(Linear::new(1 << n_qubits, input_dim, rng));
    Autoencoder::new(format!("H-BQ-AE({input_dim}d)"), enc, Latent::Identity, dec)
        .with_identity_latent_dim(n_qubits)
        .with_spec(ModelSpec::HBqAe {
            input_dim,
            n_layers,
        })
}

/// Hybrid baseline VAE (H-BQ-VAE).
pub fn h_bq_vae(input_dim: usize, n_layers: usize, rng: &mut impl Rng) -> Autoencoder {
    let (mut enc, n_qubits) = baseline_quantum_encoder(input_dim, n_layers, rng);
    enc.push_classical(Linear::new(n_qubits, n_qubits, rng));
    let mut dec = baseline_quantum_decoder(n_qubits, n_layers, rng);
    dec.push_classical(Linear::new(1 << n_qubits, input_dim, rng));
    Autoencoder::new(
        format!("H-BQ-VAE({input_dim}d)"),
        enc,
        Latent::Gaussian(GaussianLatent::new(
            n_qubits,
            n_qubits,
            DEFAULT_KL_WEIGHT,
            rng,
        )),
        dec,
    )
    .with_spec(ModelSpec::HBqVae {
        input_dim,
        n_layers,
    })
}

/// Scalable quantum AE (SQ-AE) with `p` patched sub-circuits (§III-C):
/// patched amplitude encoder → latent FC → patched angle decoder →
/// full-width FC.
pub fn sq_ae(input_dim: usize, p: usize, n_layers: usize, rng: &mut impl Rng) -> Autoencoder {
    let lsd = patched_latent_dim(input_dim, p);
    let mut enc = HybridStack::new();
    enc.push_quantum(QuantumLayer::amplitude_encoder(input_dim, p, n_layers, rng));
    enc.push_classical(Linear::new(lsd, lsd, rng));
    let mut dec = HybridStack::new();
    dec.push_quantum(QuantumLayer::angle_decoder(lsd, p, n_layers, rng));
    dec.push_classical(Linear::new(lsd, input_dim, rng));
    Autoencoder::new(
        format!("SQ-AE(p={p},lsd={lsd})"),
        enc,
        Latent::Identity,
        dec,
    )
    .with_identity_latent_dim(lsd)
    .with_spec(ModelSpec::SqAe {
        input_dim,
        p,
        n_layers,
    })
}

/// Scalable quantum VAE (SQ-VAE) with `p` patched sub-circuits.
pub fn sq_vae(input_dim: usize, p: usize, n_layers: usize, rng: &mut impl Rng) -> Autoencoder {
    let lsd = patched_latent_dim(input_dim, p);
    let mut enc = HybridStack::new();
    enc.push_quantum(QuantumLayer::amplitude_encoder(input_dim, p, n_layers, rng));
    enc.push_classical(Linear::new(lsd, lsd, rng));
    let mut dec = HybridStack::new();
    dec.push_quantum(QuantumLayer::angle_decoder(lsd, p, n_layers, rng));
    dec.push_classical(Linear::new(lsd, input_dim, rng));
    Autoencoder::new(
        format!("SQ-VAE(p={p},lsd={lsd})"),
        enc,
        Latent::Gaussian(GaussianLatent::new(lsd, lsd, DEFAULT_KL_WEIGHT, rng)),
        dec,
    )
    .with_spec(ModelSpec::SqVae {
        input_dim,
        p,
        n_layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqvae_nn::Matrix;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn table1_quantum_counts_match_paper() {
        let mut r = rng();
        for mut m in [
            f_bq_ae(64, BASELINE_LAYERS, &mut r),
            f_bq_vae(64, BASELINE_LAYERS, &mut r),
            h_bq_ae(64, BASELINE_LAYERS, &mut r),
            h_bq_vae(64, BASELINE_LAYERS, &mut r),
        ] {
            assert_eq!(m.parameter_count().quantum, 108, "{}", m.name);
        }
    }

    #[test]
    fn table1_classical_counts() {
        let mut r = rng();
        assert_eq!(f_bq_ae(64, 3, &mut r).parameter_count().classical, 0);
        assert_eq!(f_bq_vae(64, 3, &mut r).parameter_count().classical, 84);
        assert_eq!(h_bq_ae(64, 3, &mut r).parameter_count().classical, 4202);
        assert_eq!(h_bq_vae(64, 3, &mut r).parameter_count().classical, 4286);
        // Classical VAE = AE + the two 6→6 Gaussian heads (84).
        let ae = classical_ae(64, 6, &mut r).parameter_count().classical;
        let vae = classical_vae(64, 6, &mut r).parameter_count().classical;
        assert_eq!(vae - ae, 84);
        assert_eq!(classical_ae(64, 6, &mut r).parameter_count().quantum, 0);
    }

    #[test]
    fn classical_round_trip_shapes() {
        let mut r = rng();
        let mut m = classical_vae(64, 6, &mut r);
        let x = Matrix::filled(4, 64, 0.5);
        let y = m.reconstruct(&x).unwrap();
        assert_eq!(y.shape(), (4, 64));
        let mut rng2 = StdRng::seed_from_u64(1);
        let s = m.sample(3, &mut rng2).unwrap();
        assert_eq!(s.shape(), (3, 64));
    }

    #[test]
    fn fully_quantum_round_trip_shapes() {
        let mut r = rng();
        let mut m = f_bq_vae(16, 2, &mut r);
        let x = Matrix::filled(2, 16, 0.25);
        let y = m.reconstruct(&x).unwrap();
        assert_eq!(y.shape(), (2, 16));
        // Probabilities: rows sum to 1.
        for row in 0..2 {
            let s: f64 = y.row(row).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hybrid_round_trip_shapes() {
        let mut r = rng();
        let mut m = h_bq_ae(16, 2, &mut r);
        let x = Matrix::filled(2, 16, 1.5);
        let y = m.reconstruct(&x).unwrap();
        assert_eq!(y.shape(), (2, 16));
        assert!(!m.is_variational());
    }

    #[test]
    fn scalable_round_trip_shapes_and_lsd() {
        let mut r = rng();
        let mut m = sq_vae(64, 4, 2, &mut r);
        assert_eq!(m.latent_dim(), patched_latent_dim(64, 4));
        let x = Matrix::filled(2, 64, 0.5);
        let y = m.reconstruct(&x).unwrap();
        assert_eq!(y.shape(), (2, 64));
        let mut rng2 = StdRng::seed_from_u64(5);
        let s = m.sample(2, &mut rng2).unwrap();
        assert_eq!(s.shape(), (2, 64));
    }

    #[test]
    fn sq_models_have_both_param_groups() {
        let mut r = rng();
        let mut m = sq_ae(64, 2, 2, &mut r);
        let pc = m.parameter_count();
        assert!(pc.quantum > 0);
        assert!(pc.classical > 0);
        // Quantum: encoder + decoder, each 2 patches × 2 layers × 5 qubits
        // × 3 angles = 60, so 120 total.
        assert_eq!(pc.quantum, 120);
    }

    #[test]
    fn names_are_informative() {
        let mut r = rng();
        assert!(sq_vae(1024, 8, 1, &mut r).name.contains("lsd=56"));
        assert!(classical_ae(64, 6, &mut r).name.contains("lsd=6"));
    }

    #[test]
    fn every_factory_stamps_a_spec_that_round_trips_as_text() {
        let mut r = rng();
        let models = [
            classical_ae(16, 3, &mut r),
            classical_vae(16, 3, &mut r),
            f_bq_ae(16, 2, &mut r),
            f_bq_vae(16, 2, &mut r),
            h_bq_ae(16, 2, &mut r),
            h_bq_vae(16, 2, &mut r),
            sq_ae(16, 2, 2, &mut r),
            sq_vae(16, 2, 2, &mut r),
        ];
        for m in models {
            let spec = m.spec().expect("factory must stamp a spec");
            assert_eq!(spec.input_dim(), 16, "{}", m.name);
            let parsed: ModelSpec = spec.to_string().parse().unwrap();
            assert_eq!(parsed, spec, "{}", m.name);
        }
    }

    #[test]
    fn spec_build_reproduces_the_factory_architecture() {
        let mut r1 = rng();
        let mut r2 = rng();
        let mut direct = sq_vae(16, 2, 2, &mut r1);
        let mut rebuilt = direct.spec().unwrap().build(&mut r2);
        assert_eq!(direct.name, rebuilt.name);
        assert_eq!(direct.parameter_count(), rebuilt.parameter_count());
        assert_eq!(direct.latent_dim(), rebuilt.latent_dim());
    }

    #[test]
    fn bad_spec_strings_are_rejected() {
        for bad in [
            "",
            "warp_ae 4 2",
            "sq_vae 4",
            "sq_vae a b c",
            // Specs no factory builds.
            "classical_ae 0 2",
            "classical_vae 16 0",
            "f_bq_ae 0 1",
            "h_bq_vae 16777217 1",
            "f_bq_vae 67108864 1",
            "sq_vae 64 3 1",
            "sq_vae 64 64 1",
            "sq_ae 48 2 1",
            "sq_ae 16 0 1",
            "sq_vae 33554432 1 1",
        ] {
            assert!(bad.parse::<ModelSpec>().is_err(), "{bad:?}");
        }
        // The largest register and patch the simulator takes still parse.
        for good in [
            "f_bq_ae 16777216 1",
            "sq_ae 33554432 2 1",
            "classical_ae 1 1",
        ] {
            assert!(good.parse::<ModelSpec>().is_ok(), "{good}");
        }
    }

    #[test]
    fn spec_parameter_counts_match_the_built_models() {
        let mut r = rng();
        for spec in [
            "classical_ae 16 3",
            "classical_vae 64 6",
            "classical_ae 5 9",
            "f_bq_ae 16 2",
            "f_bq_vae 64 3",
            "h_bq_ae 64 3",
            "h_bq_vae 20 2",
            "sq_ae 64 4 2",
            "sq_vae 128 8 3",
            "sq_vae 16 2 0",
        ] {
            let spec: ModelSpec = spec.parse().unwrap();
            let built = spec.build(&mut r).parameter_count().total();
            assert_eq!(spec.parameter_count(), Some(built), "{spec}");
        }
        let huge: ModelSpec = "classical_ae 100000 2".parse().unwrap();
        assert!(huge.parameter_count().unwrap() > 1 << 32);
        let overflowing = ModelSpec::SqAe {
            input_dim: 1 << 62,
            p: 1 << 61,
            n_layers: 1,
        };
        assert_eq!(overflowing.parameter_count(), None);
    }
}
