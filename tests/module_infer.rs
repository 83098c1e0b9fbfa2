//! `Module::infer`, the evaluation forward, against the training forward on
//! all four `Module` implementors: the same output bits, nothing kept, and
//! a pending backward left as it was. The container runs as an encoder and
//! as a decoder, and the quantum layer with one patch and with two.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::core::{HybridStack, QuantumInput, QuantumLayer, QuantumOutput};
use sqvae::nn::{
    Activation, ActivationKind, BackendKind, ExecPolicy, Linear, Matrix, Module, NnError, Threads,
};

/// A freshly built module, the same one on every call for a fixed seed.
type Build = fn(&mut StdRng) -> Box<dyn Module>;

/// Every implementor, with the input width it takes. The containers hold a
/// quantum stage, so `infer` is chained through one.
fn implementors() -> [(&'static str, Build, usize); 6] {
    [
        ("Linear", |rng| Box::new(Linear::new(4, 3, rng)), 4),
        (
            "Activation",
            |_| Box::new(Activation::new(ActivationKind::Tanh)),
            4,
        ),
        (
            "HybridStack decoder",
            |rng| {
                let mut s = HybridStack::new();
                s.push_classical(Linear::new(4, 3, rng));
                s.push_classical(Activation::new(ActivationKind::Tanh));
                s.push_quantum(QuantumLayer::new(
                    3,
                    1,
                    QuantumInput::Angle,
                    QuantumOutput::Probabilities,
                    rng,
                ));
                Box::new(s)
            },
            4,
        ),
        (
            "HybridStack",
            |rng| {
                let mut s = HybridStack::new();
                s.push_quantum(QuantumLayer::new(
                    2,
                    2,
                    QuantumInput::Amplitude { in_features: 4 },
                    QuantumOutput::ExpectationZ,
                    rng,
                ));
                s.push_classical(Linear::new(2, 3, rng));
                s.push_classical(Activation::new(ActivationKind::Relu));
                Box::new(s)
            },
            4,
        ),
        (
            "QuantumLayer",
            |rng| {
                Box::new(QuantumLayer::new(
                    3,
                    2,
                    QuantumInput::Angle,
                    QuantumOutput::ExpectationZ,
                    rng,
                ))
            },
            3,
        ),
        (
            "QuantumLayer amplitude_encoder",
            |rng| Box::new(QuantumLayer::amplitude_encoder(16, 2, 2, rng)),
            16,
        ),
    ]
}

fn build(make: Build, policy: ExecPolicy) -> Box<dyn Module> {
    let mut m = make(&mut StdRng::seed_from_u64(21));
    m.set_exec_policy(policy);
    m
}

fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
    let (r, c) = m.shape();
    (r, c, m.as_slice().iter().map(|v| v.to_bits()).collect())
}

fn grad_bits(m: &mut dyn Module) -> Vec<(usize, usize, Vec<u64>)> {
    m.parameters().iter().map(|p| bits(&p.grad)).collect()
}

const POLICIES: [ExecPolicy; 2] = [
    ExecPolicy {
        threads: Threads::Off,
        backend: BackendKind::Dense,
    },
    ExecPolicy {
        threads: Threads::Fixed(3),
        backend: BackendKind::Dense,
    },
];

#[test]
fn infer_returns_the_forward_bits() {
    for (name, make, width) in implementors() {
        for policy in POLICIES {
            let x = Matrix::from_fn(4, width, |i, j| 0.11 * (i * width + j) as f64 - 0.5);
            let inferred = build(make, policy).infer(&x).unwrap();
            let trained = build(make, policy).forward(&x).unwrap();
            assert_eq!(bits(&inferred), bits(&trained), "{name} {policy:?}");
        }
    }
}

#[test]
fn backward_after_only_infer_has_nothing_to_differentiate() {
    for (name, make, width) in implementors() {
        for policy in POLICIES {
            let mut m = build(make, policy);
            let y = m.infer(&Matrix::filled(3, width, 0.3)).unwrap();
            assert_eq!(
                m.backward(&Matrix::filled(3, y.cols(), 1.0)).unwrap_err(),
                NnError::BackwardBeforeForward,
                "{name} {policy:?}"
            );
        }
    }
}

#[test]
fn infer_between_forward_and_backward_changes_nothing() {
    for (name, make, width) in implementors() {
        for policy in POLICIES {
            let x1 = Matrix::from_fn(4, width, |i, j| 0.09 * (i + 3 * j) as f64 + 0.05);
            // A different batch, with a different row count, so anything
            // `infer` kept or overwrote would show in the gradients.
            let x2 = Matrix::from_fn(2, width, |i, j| 0.4 - 0.07 * (i * width + j) as f64);

            let mut plain = build(make, policy);
            let y = plain.forward(&x1).unwrap();
            let g = Matrix::from_fn(4, y.cols(), |i, j| 0.2 * i as f64 - 0.15 * j as f64);
            let want = plain.backward(&g).unwrap();

            let mut interleaved = build(make, policy);
            interleaved.forward(&x1).unwrap();
            interleaved.infer(&x2).unwrap();
            let got = interleaved.backward(&g).unwrap();

            assert_eq!(bits(&got), bits(&want), "{name} {policy:?}");
            assert_eq!(
                grad_bits(interleaved.as_mut()),
                grad_bits(plain.as_mut()),
                "{name} {policy:?}"
            );
        }
    }
}
