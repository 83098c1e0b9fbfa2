//! Patched quantum circuits — the paper's central scaling device (§III-C).
//!
//! "We partition the entire feature vector into multiple equal-sized
//! sub-vectors, and each sub-vector is fed into a quantum sub-circuit."
//! With `p` patches over a 1024-feature input, each sub-circuit
//! amplitude-embeds `1024/p` features into `log2(1024/p)` qubits and
//! measures per-wire `⟨Z⟩`, so the latent space dimension grows to
//! `LSD = p · log2(1024/p)` — 18, 32, 56, 96 for p = 2, 4, 8, 16 — instead
//! of the baseline's 10.
//!
//! The sub-circuits are small (7 qubits at p = 8), and every row of a patch
//! replays the same tape. Each patch's rows therefore run in chunks, each
//! chunk as the lanes of one [`sqvae_quantum::RegisterBank`] (on the dense
//! policy), and the bank of patches maps its whole list of `(patch,
//! chunk)` items as one call on the process-wide compute pool
//! ([`sqvae_nn::parallel`]), whose persistent helpers and calling thread
//! claim items one at a time; no thread is spawned per pass, and the
//! results are bit-identical to the per-row simulator for any chunking
//! and thread count.
//!
//! Like a single [`QuantumLayer`], the training forward compiles one tape
//! per patch, with its adjoint program, simulates every row once, and
//! keeps each chunk's final register bank (2 KiB per row at 7 qubits); its
//! backward runs only the adjoint sweeps over those banks and consumes
//! them. The evaluation forward ([`Module::infer`]) keeps nothing.

use crate::quantum_layer::{self, Kept, QuantumInput, QuantumLayer, QuantumOutput};
use rand::Rng;
use sqvae_nn::{ExecPolicy, Matrix, Module, NnError, ParamTensor};

/// Latent space dimension of a patched encoder over `input_dim` features
/// with `p` patches: `p · log2(input_dim / p)`.
///
/// # Panics
///
/// Panics unless `input_dim` and `p` are powers of two with `p < input_dim`.
///
/// # Examples
///
/// ```
/// use sqvae_core::patched_latent_dim;
/// // The paper's §IV-D: LSD 18/32/56/96 for 2/4/8/16 patches on 1024.
/// assert_eq!(patched_latent_dim(1024, 2), 18);
/// assert_eq!(patched_latent_dim(1024, 4), 32);
/// assert_eq!(patched_latent_dim(1024, 8), 56);
/// assert_eq!(patched_latent_dim(1024, 16), 96);
/// ```
pub fn patched_latent_dim(input_dim: usize, p: usize) -> usize {
    assert!(
        input_dim.is_power_of_two() && p.is_power_of_two() && p < input_dim,
        "input_dim and patch count must be powers of two with p < input_dim"
    );
    let per_patch = input_dim / p;
    p * (per_patch.trailing_zeros() as usize)
}

/// A bank of identical quantum sub-circuits, each handling one slice of the
/// feature vector; outputs are concatenated.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sqvae_core::{PatchedQuantumLayer, QuantumInput, QuantumOutput};
/// use sqvae_nn::{Matrix, Module};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // 2 patches × (16 features → 4 qubits → 4 expectations) = 8-dim output.
/// let mut layer = PatchedQuantumLayer::amplitude_encoder(32, 2, 1, &mut rng);
/// let y = layer.forward(&Matrix::filled(3, 32, 0.5)).unwrap();
/// assert_eq!(y.shape(), (3, 8));
/// ```
#[derive(Debug, Clone)]
pub struct PatchedQuantumLayer {
    patches: Vec<QuantumLayer>,
    in_per_patch: usize,
    out_per_patch: usize,
    exec: ExecPolicy,
    kept: Option<Kept>,
}

impl PatchedQuantumLayer {
    /// An encoder bank: each patch amplitude-embeds `input_dim / p` features
    /// and measures `⟨Z⟩` per wire.
    ///
    /// # Panics
    ///
    /// Panics unless `input_dim` and `p` are powers of two with
    /// `p < input_dim` (construction-time configuration).
    pub fn amplitude_encoder(
        input_dim: usize,
        p: usize,
        n_layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let per_patch = input_dim / p;
        let n_qubits = patched_latent_dim(input_dim, p) / p;
        let patches = (0..p)
            .map(|_| {
                QuantumLayer::new(
                    n_qubits,
                    n_layers,
                    QuantumInput::Amplitude {
                        in_features: per_patch,
                    },
                    QuantumOutput::ExpectationZ,
                    rng,
                )
            })
            .collect();
        PatchedQuantumLayer {
            patches,
            in_per_patch: per_patch,
            out_per_patch: n_qubits,
            exec: ExecPolicy::from_env(),
            kept: None,
        }
    }

    /// A decoder bank: each patch angle-embeds `latent_dim / p` values and
    /// measures `⟨Z⟩` per wire (the paper's scalable decoder readout).
    ///
    /// # Panics
    ///
    /// Panics unless `p` divides `latent_dim` (construction-time
    /// configuration).
    pub fn angle_decoder(latent_dim: usize, p: usize, n_layers: usize, rng: &mut impl Rng) -> Self {
        assert!(
            p > 0 && latent_dim % p == 0,
            "patch count must divide the latent dimension"
        );
        let n_qubits = latent_dim / p;
        let patches = (0..p)
            .map(|_| {
                QuantumLayer::new(
                    n_qubits,
                    n_layers,
                    QuantumInput::Angle,
                    QuantumOutput::ExpectationZ,
                    rng,
                )
            })
            .collect();
        PatchedQuantumLayer {
            patches,
            in_per_patch: n_qubits,
            out_per_patch: n_qubits,
            exec: ExecPolicy::from_env(),
            kept: None,
        }
    }

    /// Number of patches.
    pub fn n_patches(&self) -> usize {
        self.patches.len()
    }

    /// Total input width.
    pub fn in_features(&self) -> usize {
        self.in_per_patch * self.patches.len()
    }

    /// Total output width.
    pub fn out_features(&self) -> usize {
        self.out_per_patch * self.patches.len()
    }

    fn check_width(&self, input: &Matrix) -> Result<(), NnError> {
        if input.cols() != self.in_features() {
            return Err(NnError::ShapeMismatch {
                expected: (input.rows(), self.in_features()),
                actual: input.shape(),
            });
        }
        Ok(())
    }
}

impl Module for PatchedQuantumLayer {
    /// Training forward: each patch circuit is compiled once into a
    /// [`sqvae_quantum::CompiledTape`] with its adjoint program, then each
    /// patch's rows split into chunks that replay its tape as the lanes of
    /// one register bank. The layer flattens the patch × chunk grid into
    /// one patch-major work list and shards it on the compute pool — one
    /// pool call over both axes, no nesting. Outputs land in fixed `(patch,
    /// row)` slots, so parallel execution is bit-identical to sequential,
    /// and every chunk's final bank is kept for [`Module::backward`].
    fn forward(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        self.check_width(input)?;
        self.kept = None;
        let (out, kept) = quantum_layer::forward_bank(&self.patches, input, self.exec.threads);
        self.kept = Some(kept);
        Ok(out)
    }

    fn infer(&self, input: &Matrix) -> Result<Matrix, NnError> {
        self.check_width(input)?;
        Ok(quantum_layer::infer_bank(
            &self.patches,
            input,
            self.exec.threads,
        ))
    }

    /// Backward pass: the adjoint sweeps of the kept banks, sharded like
    /// [`PatchedQuantumLayer::forward`]. Gradients accumulate per patch in
    /// fixed row order, preserving the bit-identical determinism guarantee.
    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix, NnError> {
        let width = self.out_features();
        let kept = Kept::take_for(&mut self.kept, grad_output, width)?;
        Ok(quantum_layer::backward_bank(
            &mut self.patches,
            kept,
            grad_output,
            self.exec.threads,
        ))
    }

    fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        self.patches
            .iter_mut()
            .flat_map(|p| p.parameters())
            .collect()
    }

    fn set_exec_policy(&mut self, policy: ExecPolicy) {
        // The bank shards the flattened patch × chunk grid itself, so its
        // own policy is the only one its passes read.
        self.exec = policy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqvae_nn::Threads;

    #[test]
    fn a_new_bank_starts_from_the_environment_policy() {
        let mut rng = StdRng::seed_from_u64(13);
        let enc = PatchedQuantumLayer::amplitude_encoder(16, 2, 1, &mut rng);
        let dec = PatchedQuantumLayer::angle_decoder(6, 2, 1, &mut rng);
        assert_eq!(enc.exec, ExecPolicy::from_env());
        assert_eq!(dec.exec, ExecPolicy::from_env());
    }

    #[test]
    fn latent_dims_match_paper() {
        assert_eq!(patched_latent_dim(1024, 2), 18);
        assert_eq!(patched_latent_dim(1024, 4), 32);
        assert_eq!(patched_latent_dim(1024, 8), 56);
        assert_eq!(patched_latent_dim(1024, 16), 96);
        // Baseline (no patching, p=1): 10 = log2(1024).
        assert_eq!(patched_latent_dim(1024, 1), 10);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn latent_dim_rejects_non_powers() {
        patched_latent_dim(1000, 2);
    }

    #[test]
    fn encoder_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut enc = PatchedQuantumLayer::amplitude_encoder(64, 4, 2, &mut rng);
        assert_eq!(enc.n_patches(), 4);
        assert_eq!(enc.in_features(), 64);
        assert_eq!(enc.out_features(), 16); // 4 patches × log2(16)=4 qubits
        let y = enc.forward(&Matrix::filled(2, 64, 0.3)).unwrap();
        assert_eq!(y.shape(), (2, 16));
    }

    #[test]
    fn decoder_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut dec = PatchedQuantumLayer::angle_decoder(16, 4, 2, &mut rng);
        assert_eq!(dec.in_features(), 16);
        assert_eq!(dec.out_features(), 16);
        let y = dec.forward(&Matrix::filled(3, 16, 0.1)).unwrap();
        assert_eq!(y.shape(), (3, 16));
    }

    #[test]
    fn patches_are_independent() {
        // Changing features of patch 1 must not affect patch 0's outputs.
        let mut rng = StdRng::seed_from_u64(3);
        let mut enc = PatchedQuantumLayer::amplitude_encoder(16, 2, 1, &mut rng);
        let mut a = Matrix::filled(1, 16, 0.5);
        let y1 = enc.forward(&a).unwrap();
        // Perturb patch 1 non-uniformly (amplitude embedding normalizes, so
        // a uniform rescale would be invisible).
        for c in 8..12 {
            a.set(0, c, 0.9);
        }
        let y2 = enc.forward(&a).unwrap();
        // Each patch embeds 8 features into 3 qubits → outputs are 3 wide.
        for c in 0..3 {
            assert!((y1.get(0, c) - y2.get(0, c)).abs() < 1e-12);
        }
        assert!((3..6).any(|c| (y1.get(0, c) - y2.get(0, c)).abs() > 1e-9));
    }

    #[test]
    fn parameter_count_scales_with_patches() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut enc = PatchedQuantumLayer::amplitude_encoder(64, 4, 3, &mut rng);
        // 4 patches × (3 layers × 4 qubits × 3) = 144.
        assert_eq!(enc.parameter_count(), 144);
    }

    #[test]
    fn backward_routes_gradients_to_the_right_patch() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut dec = PatchedQuantumLayer::angle_decoder(4, 2, 1, &mut rng);
        let x = Matrix::from_rows(&[&[0.2, 0.4, 0.6, 0.8]]).unwrap();
        dec.forward(&x).unwrap();
        // Upstream gradient only on patch 0's outputs.
        let mut g = Matrix::zeros(1, 4);
        g.set(0, 0, 1.0);
        g.set(0, 1, 1.0);
        let gin = dec.backward(&g).unwrap();
        // Patch 1's inputs get zero gradient.
        assert_eq!(gin.get(0, 2), 0.0);
        assert_eq!(gin.get(0, 3), 0.0);
        assert!(gin.get(0, 0).abs() + gin.get(0, 1).abs() > 1e-9);
    }

    #[test]
    fn threaded_patch_bank_matches_sequential_bitwise() {
        let bank_with = |threads: Threads| {
            let mut rng = StdRng::seed_from_u64(9);
            let mut bank = PatchedQuantumLayer::amplitude_encoder(16, 2, 2, &mut rng);
            bank.set_exec_policy(ExecPolicy {
                threads,
                ..ExecPolicy::from_env()
            });
            bank
        };
        let x = Matrix::from_fn(5, 16, |i, j| 0.05 * (i * 16 + j) as f64 + 0.1);
        let g = Matrix::from_fn(5, 6, |i, j| 0.2 * (i as f64) - 0.1 * (j as f64));

        let mut seq = bank_with(Threads::Off);
        let y_seq = seq.forward(&x).unwrap();
        seq.backward(&g).unwrap();
        let seq_grads: Vec<Matrix> = seq.parameters().iter().map(|p| p.grad.clone()).collect();

        let mut par = bank_with(Threads::Fixed(4));
        assert_eq!(par.forward(&x).unwrap(), y_seq);
        par.backward(&g).unwrap();
        let par_grads: Vec<Matrix> = par.parameters().iter().map(|p| p.grad.clone()).collect();
        assert_eq!(par_grads, seq_grads);
    }

    #[test]
    fn rejects_bad_widths() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut enc = PatchedQuantumLayer::amplitude_encoder(16, 2, 1, &mut rng);
        assert!(enc.forward(&Matrix::zeros(1, 10)).is_err());
        enc.forward(&Matrix::filled(1, 16, 0.1)).unwrap();
        assert!(enc.backward(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn kept_register_backward_equals_the_re_executing_oracle_bitwise() {
        use crate::quantum_layer::oracle;
        type Build = fn(&mut StdRng) -> PatchedQuantumLayer;
        let banks: [(&str, Build, usize); 2] = [
            (
                "amplitude_encoder",
                |rng| PatchedQuantumLayer::amplitude_encoder(32, 4, 2, rng),
                32,
            ),
            (
                "angle_decoder",
                |rng| PatchedQuantumLayer::angle_decoder(9, 3, 2, rng),
                9,
            ),
        ];
        // 0 rows, one lane per patch, odd chunks, one row past a 32-lane
        // chunk, and 65 rows: three uneven chunks (21/22/22) per patch on
        // every policy and host.
        for rows in [0, 1, 3, 5, 33, 65] {
            for (name, build, width) in banks {
                let x = Matrix::from_fn(rows, width, |i, j| {
                    0.07 * ((i % 6) * width + j) as f64 - 0.4
                });
                for threads in [Threads::Off, Threads::Fixed(3)] {
                    let mut bank = build(&mut StdRng::seed_from_u64(12));
                    bank.set_exec_policy(ExecPolicy {
                        threads,
                        ..ExecPolicy::from_env()
                    });
                    let case = format!("{rows} rows {name} {threads:?}");
                    let y = bank.forward(&x).unwrap();
                    assert_eq!(y.shape(), (rows, bank.out_features()), "{case}");
                    assert_eq!(bank.infer(&x).unwrap(), y, "{case}");
                    assert_eq!(y, oracle::bank_outputs(&bank.patches, &x), "{case}");
                    let g = Matrix::from_fn(rows, y.cols(), |i, j| {
                        0.25 * (i % 4) as f64 - 0.05 * j as f64
                    });
                    let gin = bank.backward(&g).unwrap();
                    let (params, want_gin) = oracle::bank_gradients(&bank.patches, &x, &g);
                    let got: Vec<Vec<f64>> = bank
                        .parameters()
                        .iter()
                        .map(|p| p.grad.as_slice().to_vec())
                        .collect();
                    assert_eq!(got, params, "{case}");
                    assert_eq!(gin, want_gin, "{case}");
                }
            }
        }
    }

    #[test]
    fn backward_differentiates_the_forward_that_ran_once() {
        use sqvae_nn::{Adam, Optimizer};
        let fresh = || PatchedQuantumLayer::angle_decoder(6, 2, 2, &mut StdRng::seed_from_u64(8));
        let x = Matrix::from_fn(3, 6, |i, j| 0.3 * i as f64 - 0.2 * j as f64);
        let g = Matrix::from_fn(3, 6, |i, j| 0.1 * (i + j) as f64 - 0.3);
        let mut reference = fresh();
        reference.forward(&x).unwrap();
        let want_gin = reference.backward(&g).unwrap();
        let want: Vec<Matrix> = reference
            .parameters()
            .iter()
            .map(|p| p.grad.clone())
            .collect();

        let mut stepped = fresh();
        stepped.forward(&x).unwrap();
        for p in stepped.parameters() {
            p.grad.fill(1.0);
        }
        Adam::new(0.1).step(&mut stepped.parameters()).unwrap();
        stepped.zero_grad();
        assert_eq!(stepped.backward(&g).unwrap(), want_gin);
        let got: Vec<Matrix> = stepped
            .parameters()
            .iter()
            .map(|p| p.grad.clone())
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            stepped.backward(&g).unwrap_err(),
            NnError::BackwardBeforeForward
        );

        let mut retried = fresh();
        retried.forward(&x).unwrap();
        assert!(retried.backward(&Matrix::zeros(3, 5)).is_err());
        assert_eq!(retried.backward(&g).unwrap(), want_gin);
    }
}
