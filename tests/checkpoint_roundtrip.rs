//! Checkpoint round-trip coverage across the whole model zoo: every
//! `models::*` factory, under every simulator backend, must survive
//! save → load with bit-identical behavior; malformed files must fail with
//! typed errors, never garbage weights.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::core::checkpoint::{self, Checkpoint, CheckpointError};
use sqvae::core::models::ModelSpec;
use sqvae::core::{models, Autoencoder};
use sqvae::nn::{BackendKind, ExecPolicy, Matrix, Threads};
use sqvae::serve::{InferenceServer, Op, Request, ServeError, ServerConfig};

const DIM: usize = 16;

/// Every factory in the zoo at a 16-feature (4-qubit) scale.
fn zoo() -> Vec<(&'static str, Autoencoder)> {
    let mut rng = StdRng::seed_from_u64(99);
    vec![
        ("classical_ae", models::classical_ae(DIM, 4, &mut rng)),
        ("classical_vae", models::classical_vae(DIM, 4, &mut rng)),
        ("f_bq_ae", models::f_bq_ae(DIM, 1, &mut rng)),
        ("f_bq_vae", models::f_bq_vae(DIM, 1, &mut rng)),
        ("h_bq_ae", models::h_bq_ae(DIM, 1, &mut rng)),
        ("h_bq_vae", models::h_bq_vae(DIM, 1, &mut rng)),
        ("sq_ae", models::sq_ae(DIM, 2, 1, &mut rng)),
        ("sq_vae", models::sq_vae(DIM, 2, 1, &mut rng)),
    ]
}

fn probe() -> Matrix {
    Matrix::from_fn(3, DIM, |r, c| ((r * DIM + c) as f64).sin().abs() * 0.5)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn checkpoint_bytes(model: &mut Autoencoder) -> Vec<u8> {
    let ckpt = Checkpoint::capture(model, 7).expect("factory models carry specs");
    let mut buf = Vec::new();
    ckpt.write_to(&mut buf).expect("in-memory write succeeds");
    buf
}

#[test]
fn every_factory_round_trips_bit_identically_on_all_backends() {
    let x = probe();
    for backend in [BackendKind::Dense, BackendKind::Soa] {
        for (name, mut model) in zoo() {
            model.set_exec_policy(ExecPolicy {
                threads: Threads::Off,
                backend,
            });
            let want = model.reconstruct(&x).expect("direct reconstruct");

            let buf = checkpoint_bytes(&mut model);
            let ckpt = Checkpoint::read_from(buf.as_slice()).expect("read back");
            assert_eq!(ckpt.backend, backend, "{name}: backend survives");
            assert_eq!(ckpt.seed, 7, "{name}: seed survives");
            let mut rebuilt = ckpt.build_model().expect("rebuild");
            // Threads come from the local environment, but the recorded
            // backend must win.
            assert_eq!(rebuilt.exec_policy().backend, backend);

            let got = rebuilt.reconstruct(&x).expect("rebuilt reconstruct");
            assert_eq!(
                bits(&want),
                bits(&got),
                "{name} on {backend:?}: reconstruction must be bit-identical"
            );
            // Sampling (the generative half) must round-trip too.
            let want_s = model.sample(2, &mut StdRng::seed_from_u64(5)).unwrap();
            let got_s = rebuilt.sample(2, &mut StdRng::seed_from_u64(5)).unwrap();
            assert_eq!(bits(&want_s), bits(&got_s), "{name}: sampling round trip");
        }
    }
}

#[test]
fn file_round_trip_through_the_convenience_api() {
    let dir = std::env::temp_dir().join("sqvae-ckpt-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let x = probe();
    for (name, mut model) in zoo() {
        let path = dir
            .join(format!("{name}.ckpt"))
            .to_string_lossy()
            .into_owned();
        checkpoint::save_model(&mut model, 7, &path).expect("save");
        let mut reloaded = checkpoint::load_model(&path).expect("load");
        assert_eq!(
            bits(&model.reconstruct(&x).unwrap()),
            bits(&reloaded.reconstruct(&x).unwrap()),
            "{name}: file round trip"
        );
    }
}

#[test]
fn corrupt_files_yield_typed_errors() {
    let model = &mut zoo().remove(7).1; // sq_vae
    let buf = checkpoint_bytes(model);

    // Bad magic.
    let mut bad = buf.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        Checkpoint::read_from(bad.as_slice()),
        Err(CheckpointError::BadMagic)
    ));

    // Future format version.
    let mut future = buf.clone();
    future[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Checkpoint::read_from(future.as_slice()),
        Err(CheckpointError::UnsupportedVersion { found: u32::MAX })
    ));

    // A flipped body bit fails the checksum before any weight is trusted.
    let mut flipped = buf.clone();
    let mid = 20 + (buf.len() - 28) / 2;
    flipped[mid] ^= 0x01;
    assert!(matches!(
        Checkpoint::read_from(flipped.as_slice()),
        Err(CheckpointError::ChecksumMismatch)
    ));

    // Truncation at every section boundary is an I/O error, not a panic.
    for cut in [0, 7, 11, 19, buf.len() / 2, buf.len() - 1] {
        match Checkpoint::read_from(&buf[..cut]) {
            Err(CheckpointError::Io(_)) => {}
            other => panic!("truncation at {cut} gave {other:?}"),
        }
    }

    // Extra bytes inside the declared body (with a recomputed valid
    // checksum, so only the structural check can catch them) are rejected.
    let body_len = u64::from_le_bytes(buf[12..20].try_into().unwrap()) as usize;
    let mut padded_body = buf[20..20 + body_len].to_vec();
    padded_body.push(0);
    let mut padded = buf[..12].to_vec();
    padded.extend_from_slice(&(padded_body.len() as u64).to_le_bytes());
    padded.extend_from_slice(&padded_body);
    let digest = padded_body.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    padded.extend_from_slice(&digest.to_le_bytes());
    assert!(matches!(
        Checkpoint::read_from(padded.as_slice()),
        Err(CheckpointError::Corrupt(_))
    ));
}

#[test]
fn restoring_across_architectures_is_rejected() {
    let mut zoo = zoo();
    let small = &mut zoo[7].1; // sq_vae(16, 2, 1)
    let buf = checkpoint_bytes(small);
    let ckpt = Checkpoint::read_from(buf.as_slice()).unwrap();
    // A different architecture refuses the foreign weights...
    let mut other = models::classical_ae(DIM, 4, &mut StdRng::seed_from_u64(1));
    let fingerprint = |m: &mut Autoencoder| -> Vec<Vec<u64>> {
        use sqvae::core::ParamGroup;
        [ParamGroup::Quantum, ParamGroup::Classical]
            .into_iter()
            .flat_map(|g| {
                m.parameters_of(g)
                    .iter()
                    .map(|p| p.value.as_slice().iter().map(|v| v.to_bits()).collect())
                    .collect::<Vec<Vec<u64>>>()
            })
            .collect()
    };
    let before = fingerprint(&mut other);
    assert!(ckpt.params.restore(&mut other).is_err());
    // ...and is left untouched by the failed restore.
    assert_eq!(before, fingerprint(&mut other));
}

/// Architecture tags no factory can build without panicking or asking for
/// tens of gigabytes.
const IMPOSSIBLE_SPECS: [ModelSpec; 5] = [
    // A patch count that is not a power of two.
    ModelSpec::SqVae {
        input_dim: 64,
        p: 3,
        n_layers: 1,
    },
    // As many patches as features.
    ModelSpec::SqVae {
        input_dim: 64,
        p: 64,
        n_layers: 1,
    },
    // An input width that is not a power of two.
    ModelSpec::SqAe {
        input_dim: 48,
        p: 2,
        n_layers: 1,
    },
    // A 26-qubit register.
    ModelSpec::FBqAe {
        input_dim: 1 << 26,
        n_layers: 1,
    },
    // About 5e9 weights, in a file that stores a few hundred.
    ModelSpec::ClassicalAe {
        input_dim: 100_000,
        latent_dim: 2,
    },
];

/// One checkpoint file per impossible spec, each a valid `sq_vae` file
/// (checksum included) that differs only in its architecture tag.
fn impossible_files(prefix: &str) -> Vec<String> {
    let dir = std::env::temp_dir().join("sqvae-ckpt-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let valid = Checkpoint::capture(&mut zoo().remove(7).1, 7).unwrap();
    IMPOSSIBLE_SPECS
        .iter()
        .enumerate()
        .map(|(i, &spec)| {
            let path = dir.join(format!("{prefix}-impossible-{i}.ckpt"));
            // No backup generation the server could heal from.
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(checkpoint::backup_path(&path));
            Checkpoint {
                spec,
                ..valid.clone()
            }
            .save(&path)
            .unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect()
}

#[test]
fn impossible_architecture_tags_are_typed_errors() {
    for (path, spec) in impossible_files("load").iter().zip(IMPOSSIBLE_SPECS) {
        match checkpoint::load_model(path) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(msg.contains(&spec.to_string()), "{spec}: {msg}")
            }
            other => panic!("{spec}: {:?}", other.map(|m| m.name)),
        }
    }
}

#[test]
fn serving_an_impossible_architecture_is_a_checkpoint_error() {
    let server = InferenceServer::start(ServerConfig::default());
    for path in impossible_files("serve") {
        let reply = server.request(Request::new(path, Op::Sample { n: 1, seed: 0 }));
        assert!(matches!(reply, Err(ServeError::Checkpoint(_))), "{reply:?}");
    }
    assert_eq!(server.health().respawns, 0);
    server.shutdown();
}
