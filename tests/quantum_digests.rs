//! Bit-level digests of the quantum models and the compiled adjoint sweep.
//!
//! Each digest folds every output of a model pass, bit for bit, into an
//! FNV-1a hash, and each test compares it with a value recorded before the
//! gate set was cut to the gates the models build. A change that alters any
//! amplitude a model reads out, any gradient or any tape the sweep replays
//! changes a hash.
//!
//! Every factory runs at a small shape sequentially (`Threads::Off`),
//! whatever `SQVAE_THREADS` selects: one seeded training forward, a
//! backward of the MSE gradient into both parameter groups, and an
//! evaluation reconstruction. The digests are checked again on two and
//! three threads, where each patch's rows split into several register-bank
//! chunks across the compute pool.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqvae::core::{models, Autoencoder, ExecPolicy, ParamGroup, Threads};
use sqvae::nn::Matrix;
use sqvae::quantum::embed::{angle_embedding_gates, RotationAxis};
use sqvae::quantum::grad::adjoint;
use sqvae::quantum::templates::{strongly_entangling_layers, EntangleRange};
use sqvae::quantum::Circuit;

/// FNV-1a over the little-endian bytes of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Asserts a digest equals its recorded value, printing the new value.
fn check(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what} digest is now {got:#018x}");
}

/// Four rows of 16 features in [0.05, 1.05): positive, so every amplitude
/// embedding is well defined.
fn batch() -> Matrix {
    let mut rng = StdRng::seed_from_u64(41);
    Matrix::from_fn(4, 16, |_, _| 0.05 + rng.gen_range(0.0..1.0))
}

/// Digests of one training step and one evaluation pass of `model` on
/// `threads`: the forward reconstruction, both gradient groups after the
/// backward of the MSE gradient, and the reconstruction.
fn model_digests(mut model: Autoencoder, threads: Threads) -> [u64; 3] {
    model.set_exec_policy(ExecPolicy {
        threads,
        ..ExecPolicy::from_env()
    });
    let x = batch();
    let out = model
        .forward_train(&x, &mut StdRng::seed_from_u64(43))
        .expect("forward");
    let mut fwd = Digest::new();
    fwd.f64s(out.reconstruction.as_slice());
    fwd.word(out.kl.to_bits());

    let scale = 2.0 / x.len() as f64;
    let grad = out.reconstruction.zip_map(&x, |r, t| scale * (r - t));
    model.zero_grad();
    model.backward(&grad).expect("backward");
    let mut grads = Digest::new();
    for group in [ParamGroup::Quantum, ParamGroup::Classical] {
        for p in model.parameters_of(group) {
            grads.f64s(p.grad.as_slice());
        }
    }

    let mut recon = Digest::new();
    recon.f64s(model.reconstruct(&x).expect("reconstruct").as_slice());
    [fwd.0, grads.0, recon.0]
}

/// Builds a model from a seeded RNG.
type Factory = fn(&mut StdRng) -> Autoencoder;

/// The six quantum factories at 16 features: 4-qubit baselines, and
/// scalable models of two 3-qubit patches.
fn factories() -> Vec<(&'static str, Factory)> {
    vec![
        ("f_bq_ae", |r| models::f_bq_ae(16, 2, r)),
        ("f_bq_vae", |r| models::f_bq_vae(16, 2, r)),
        ("h_bq_ae", |r| models::h_bq_ae(16, 2, r)),
        ("h_bq_vae", |r| models::h_bq_vae(16, 2, r)),
        ("sq_ae", |r| models::sq_ae(16, 2, 2, r)),
        ("sq_vae", |r| models::sq_vae(16, 2, 2, r)),
    ]
}

/// Recorded `[forward, gradients, reconstruct]` digests, per factory in
/// [`factories`] order.
const MODEL_DIGESTS: [[u64; 3]; 6] = [
    [
        0xea11_abd5_4ab4_4411,
        0x27dd_a4d4_e6ff_7bd2,
        0x2bc0_7c3d_3ade_1bf1,
    ],
    [
        0x893c_1b9c_d104_c22c,
        0x5dc7_aba0_1e03_0b25,
        0x39ee_32a1_de49_0451,
    ],
    [
        0x2606_2c33_2516_6dfe,
        0xacc2_a883_e55e_bbab,
        0x7479_5800_7377_3a3e,
    ],
    [
        0x82b1_a4d0_eb5c_74c0,
        0x8ae9_dd7c_de50_230b,
        0xae28_685b_b495_d3ed,
    ],
    [
        0x72b2_7c8b_ca99_e38d,
        0x1e31_4d04_b669_20d5,
        0x4064_9474_2777_e3ed,
    ],
    [
        0x822d_ded1_e8d8_eef2,
        0x886b_a6a9_3790_b500,
        0x34d0_1cc6_a17e_e46d,
    ],
];

/// Checks one factory's digests on `threads`.
fn check_model(name: &str, make: Factory, threads: Threads, want: [u64; 3]) {
    let got = model_digests(make(&mut StdRng::seed_from_u64(42)), threads);
    for (stage, (g, w)) in ["forward_train", "backward", "reconstruct"]
        .into_iter()
        .zip(got.into_iter().zip(want))
    {
        check(&format!("{name} {threads:?} {stage}"), g, w);
    }
}

#[test]
fn quantum_models_match_recorded_digests() {
    for ((name, make), want) in factories().into_iter().zip(MODEL_DIGESTS) {
        check_model(name, make, Threads::Off, want);
    }
}

/// Chunks run on the pool, and the dense digests hold. The pool has
/// `max(cpus, 2) − 1` helpers, so what splits depends on the host. The
/// single-register `f_bq_*` and `h_bq_*` layers split the four-row batch
/// into two chunks at `Fixed(2)`, and into three at `Fixed(3)` on three or
/// more CPUs (two on fewer). The two-patch `sq_*` layers keep one chunk per
/// patch, their two patches running as two pool items, except at
/// `Fixed(3)` on three or more CPUs, where each patch splits in two. The
/// 33- and 65-row kept-register oracle tests in `patched.rs` and
/// `quantum_layer.rs` split every patch on any host, since those rows
/// exceed one bank's lanes (65 rows into three uneven chunks).
#[test]
fn dense_digests_hold_when_chunks_split_across_the_pool() {
    for ((name, make), want) in factories().into_iter().zip(MODEL_DIGESTS) {
        for threads in [Threads::Fixed(2), Threads::Fixed(3)] {
            check_model(name, make, threads, want);
        }
    }
}

/// Digest of one compiled adjoint sweep of the paper template (RY angle
/// embedding + three strongly-entangling layers on five wires).
fn template_adjoint_digest() -> u64 {
    let n = 5;
    let mut c = Circuit::new(n).unwrap();
    c.extend(angle_embedding_gates(n, RotationAxis::Y, 0))
        .unwrap();
    c.extend(strongly_entangling_layers(n, 3, 0, EntangleRange::Ring).unwrap())
        .unwrap();
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.07 * i as f64 - 1.3).collect();
    let inputs: Vec<f64> = (0..n).map(|i| 0.35 * i as f64 - 0.6).collect();
    let upstream: Vec<f64> = (0..n).map(|i| 0.9 - 0.45 * i as f64).collect();
    let tape = c.compile(&params).unwrap();
    let g = adjoint::backward_expectations_z_tape(&tape, &inputs, None, &upstream).unwrap();
    let mut d = Digest::new();
    d.f64s(&g.params);
    d.f64s(&g.inputs);
    d.0
}

#[test]
fn template_adjoint_sweep_matches_recorded_digests() {
    check(
        "dense template adjoint",
        template_adjoint_digest(),
        0xbdac_8253_1a5b_1746,
    );
}
