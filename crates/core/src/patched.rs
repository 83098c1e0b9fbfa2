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
//! The sub-circuits are small (7 qubits at p = 8), so one `(patch, row)`
//! simulation costs microseconds. The bank therefore runs its whole
//! patch × row grid as one call on the process-wide compute pool
//! ([`sqvae_nn::parallel`]), whose persistent helpers and calling thread
//! claim work items one at a time; no thread is spawned per pass, and the
//! results are bit-identical to the sequential loop.

use crate::quantum_layer::{QuantumInput, QuantumLayer, QuantumOutput};
use rand::Rng;
use sqvae_nn::{parallel, ExecPolicy, Matrix, Module, NnError, ParamTensor, Threads};
use sqvae_quantum::CompiledTape;

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
    threads: Threads,
    cached_slices: Option<Vec<Matrix>>,
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
            threads: Threads::Off,
            cached_slices: None,
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
            threads: Threads::Off,
            cached_slices: None,
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

    /// Lowers every patch's circuit once for a batch pass with `compile`
    /// (forward-only for `forward`, with the adjoint program for
    /// `backward`). Patch circuits are structurally identical but carry
    /// independent trainable angles, so each patch gets its own tape; all of
    /// them are shared immutably by every thread of the flattened
    /// patch × row pool call.
    fn compile_tapes(&self, compile: fn(&QuantumLayer) -> CompiledTape) -> Vec<CompiledTape> {
        self.patches.iter().map(compile).collect()
    }
}

impl Module for PatchedQuantumLayer {
    /// Forward pass: each patch circuit is compiled once into a
    /// [`CompiledTape`], then every `(patch, row)` pair is an independent
    /// replay of its patch's tape, so the bank flattens the whole
    /// patch × batch grid into one patch-major work list and shards it on
    /// the compute pool with [`parallel::fill_rows`] — one pool call over
    /// both axes, no nesting, and the same per-row body as
    /// [`QuantumLayer`]'s own forward. Results land in fixed `(patch, row)`
    /// slots, so parallel execution is bit-identical to sequential.
    fn forward(&mut self, input: &Matrix) -> Result<Matrix, NnError> {
        if input.cols() != self.in_features() {
            return Err(NnError::ShapeMismatch {
                expected: (input.rows(), self.in_features()),
                actual: input.shape(),
            });
        }
        let p = self.patches.len();
        let rows = input.rows();
        let slices: Vec<Matrix> = (0..p)
            .map(|k| input.columns(k * self.in_per_patch, (k + 1) * self.in_per_patch))
            .collect::<Result<_, _>>()?;
        let tapes = self.compile_tapes(QuantumLayer::compile_forward_tape);
        let patches = &self.patches;
        let width = self.out_per_patch;
        let mut results = vec![0.0; p * rows * width];
        parallel::fill_rows(
            &mut results,
            width,
            self.threads,
            Vec::new,
            |idx, scratch, slot| {
                let (k, r) = (idx / rows, idx % rows);
                patches[k].forward_row_tape_into(&tapes[k], slices[k].row(r), scratch, slot);
            },
        );
        let mut out = Matrix::zeros(rows, self.out_features());
        for (idx, patch_row) in results.chunks_exact(width).enumerate() {
            let (k, r) = (idx / rows, idx % rows);
            out.row_mut(r)[k * width..(k + 1) * width].copy_from_slice(patch_row);
        }
        self.cached_slices = Some(slices);
        Ok(out)
    }

    /// Backward pass, sharded like [`PatchedQuantumLayer::forward`].
    /// Gradients accumulate per patch in fixed row order, preserving the
    /// bit-identical determinism guarantee.
    fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix, NnError> {
        let slices = self
            .cached_slices
            .take()
            .ok_or(NnError::BackwardBeforeForward)?;
        let rows = slices.first().map_or(0, Matrix::rows);
        if grad_output.cols() != self.out_features() || grad_output.rows() != rows {
            self.cached_slices = Some(slices);
            return Err(NnError::ShapeMismatch {
                expected: (rows, self.out_features()),
                actual: grad_output.shape(),
            });
        }
        let p = self.patches.len();
        let grad_slices: Vec<Matrix> = (0..p)
            .map(|k| grad_output.columns(k * self.out_per_patch, (k + 1) * self.out_per_patch))
            .collect::<Result<_, _>>()?;
        let tapes = self.compile_tapes(QuantumLayer::compile_tape);
        let patches = &self.patches;
        let per = parallel::map_rows(p * rows, self.threads, |idx| {
            let (k, r) = (idx / rows, idx % rows);
            patches[k].backward_row_tape(&tapes[k], slices[k].row(r), grad_slices[k].row(r))
        });
        let mut grad_input = Matrix::zeros(rows, self.in_features());
        for (k, patch) in self.patches.iter_mut().enumerate() {
            let cols = k * self.in_per_patch..(k + 1) * self.in_per_patch;
            for r in 0..rows {
                let grads = &per[k * rows + r];
                patch.accumulate_param_grads(&grads.params);
                // Input gradients exist only for the differentiable angle
                // embedding; amplitude-embedded raw data gets zeros.
                if matches!(patch.input_mode(), QuantumInput::Angle) {
                    grad_input.row_mut(r)[cols.clone()].copy_from_slice(&grads.inputs);
                }
            }
        }
        self.cached_slices = Some(slices);
        Ok(grad_input)
    }

    fn parameters(&mut self) -> Vec<&mut ParamTensor> {
        self.patches
            .iter_mut()
            .flat_map(|p| p.parameters())
            .collect()
    }

    fn set_exec_policy(&mut self, policy: ExecPolicy) {
        // The bank shards the flattened patch × row grid itself; patches
        // run their own rows inline (a row reaching a patch here is exactly
        // one work item), so no nested pool calls ever form. The backend
        // knob is forwarded so every patch's tape replays on the same
        // simulator.
        self.threads = policy.threads;
        for patch in &mut self.patches {
            patch.set_exec_policy(policy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            bank.set_exec_policy(ExecPolicy::default().with_threads(threads));
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
}
