//! Property-based invariants of the NN substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_nn::{loss, Activation, ActivationKind, Linear, Matrix, Module};

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0..2.0f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("sized"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// (AB)C == A(BC) within numerical tolerance.
    #[test]
    fn matmul_is_associative(
        a in arb_matrix(3, 4),
        b in arb_matrix(4, 2),
        c in arb_matrix(2, 5),
    ) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// Transpose is an involution and (AB)ᵀ = BᵀAᵀ.
    #[test]
    fn transpose_identities(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let ab_t = a.matmul(&b).unwrap().transpose();
        let bt_at = b.transpose().matmul(&a.transpose()).unwrap();
        for (x, y) in ab_t.as_slice().iter().zip(bt_at.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// MSE is non-negative and zero only at equality.
    #[test]
    fn mse_non_negative(a in arb_matrix(2, 3), b in arb_matrix(2, 3)) {
        let (l, _) = loss::mse(&a, &b).unwrap();
        prop_assert!(l >= 0.0);
        let (l_self, _) = loss::mse(&a, &a).unwrap();
        prop_assert_eq!(l_self, 0.0);
    }

    /// Gaussian KL against the standard normal prior is non-negative.
    #[test]
    fn kl_non_negative(mu in arb_matrix(2, 3), lv in arb_matrix(2, 3)) {
        let (l, _, _) = loss::gaussian_kl(&mu, &lv).unwrap();
        prop_assert!(l >= -1e-12);
    }

    /// Linear backward computes the exact gradient of a sum-loss.
    #[test]
    fn linear_input_gradient_is_exact(x in arb_matrix(2, 3), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Linear::new(3, 2, &mut rng);
        layer.forward(&x).unwrap();
        let grad_in = layer.backward(&Matrix::filled(2, 2, 1.0)).unwrap();
        // For L = Σ y, dL/dx_{rc} = Σ_j W_{cj}, independent of x.
        for r in 0..2 {
            for c in 0..3 {
                let expected: f64 = (0..2).map(|j| layer.weight().value.get(c, j)).sum();
                prop_assert!((grad_in.get(r, c) - expected).abs() < 1e-10);
            }
        }
    }

    /// A ReLU MLP is piecewise-linear: scaling a positive-regime input by a
    /// small factor keeps outputs finite and deterministic.
    #[test]
    fn mlp_forward_is_deterministic(x in arb_matrix(3, 4), seed in 0u64..100) {
        let forward = || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut hidden = Linear::new(4, 6, &mut rng);
            let mut relu = Activation::new(ActivationKind::Relu);
            let mut out = Linear::new(6, 2, &mut rng);
            let h = relu.forward(&hidden.forward(&x).unwrap()).unwrap();
            out.forward(&h).unwrap()
        };
        let y1 = forward();
        let y2 = forward();
        prop_assert_eq!(y1, y2);
    }
}
