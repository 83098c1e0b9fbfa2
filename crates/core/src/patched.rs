//! Tests of [`QuantumLayer`](crate::QuantumLayer)s built with more than one
//! patch, as SQ-AE and SQ-VAE build them (§III-C): the paper's latent
//! widths, each patch's independence and gradient routing, and the pass
//! contracts of `quantum_layer::contract` on both patched constructors.

mod tests {
    use crate::quantum_layer::contract::{self, Build};
    use crate::{patched_latent_dim, QuantumLayer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqvae_nn::{Matrix, Module};

    /// Both patched constructors: four amplitude patches of 8 features on
    /// 3 qubits, and three angle patches on 3 qubits.
    fn banks() -> [(&'static str, Build); 2] {
        [
            ("amplitude_encoder(32, 4, 2)", |rng| {
                QuantumLayer::amplitude_encoder(32, 4, 2, rng)
            }),
            ("angle_decoder(9, 3, 2)", |rng| {
                QuantumLayer::angle_decoder(9, 3, 2, rng)
            }),
        ]
    }

    #[test]
    fn a_new_bank_starts_from_the_environment_policy() {
        for (name, build) in banks() {
            contract::starts_from_the_environment_policy(name, build);
        }
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
        let mut enc = QuantumLayer::amplitude_encoder(64, 4, 2, &mut rng);
        assert_eq!(enc.parameters().len(), 4); // one angle vector per patch
        assert_eq!(enc.in_features(), 64);
        assert_eq!(enc.out_features(), 16); // 4 patches × log2(16)=4 qubits
        let y = enc.forward(&Matrix::filled(2, 64, 0.3)).unwrap();
        assert_eq!(y.shape(), (2, 16));
    }

    #[test]
    fn decoder_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut dec = QuantumLayer::angle_decoder(16, 4, 2, &mut rng);
        assert_eq!(dec.in_features(), 16);
        assert_eq!(dec.out_features(), 16);
        let y = dec.forward(&Matrix::filled(3, 16, 0.1)).unwrap();
        assert_eq!(y.shape(), (3, 16));
    }

    #[test]
    fn patches_are_independent() {
        // Changing features of patch 1 must not affect patch 0's outputs.
        let mut rng = StdRng::seed_from_u64(3);
        let mut enc = QuantumLayer::amplitude_encoder(16, 2, 1, &mut rng);
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
        let mut enc = QuantumLayer::amplitude_encoder(64, 4, 3, &mut rng);
        // 4 patches × (3 layers × 4 qubits × 3) = 144.
        assert_eq!(enc.parameter_count(), 144);
    }

    #[test]
    fn backward_routes_gradients_to_the_right_patch() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut dec = QuantumLayer::angle_decoder(4, 2, 1, &mut rng);
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
        for (name, build) in banks() {
            contract::threaded_passes_match_sequential(name, build);
        }
    }

    #[test]
    fn rejects_bad_widths() {
        for (name, build) in banks() {
            contract::rejects_wrong_widths(name, build);
        }
    }

    #[test]
    fn kept_register_backward_equals_the_re_executing_oracle_bitwise() {
        for (name, build) in banks() {
            contract::kept_backward_matches_the_oracle(name, build);
        }
    }

    #[test]
    fn backward_differentiates_the_forward_that_ran_once() {
        for (name, build) in banks() {
            contract::backward_differentiates_its_forward(name, build);
        }
    }
}
