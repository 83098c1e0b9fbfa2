//! Never-panic properties of the inputs that come from outside the
//! process: checkpoint bytes and `SQVAE_FAULTS` specs.
//!
//! Each input must end in a typed error or a working result. Checkpoints
//! are fed as arbitrary bytes and as valid files with a few body bytes
//! overwritten or the body cut short; the body length and the checksum are
//! repaired, so parsing reaches the body. A checkpoint that loads must
//! build its model or refuse with a typed error, and a built model must
//! reconstruct a row. Fault specs are strings over the spec alphabet plus
//! multi-byte characters, `nan` and `inf`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_core::checkpoint::{Checkpoint, MAGIC};
use sqvae_core::faults::FaultPlan;
use sqvae_core::models;
use sqvae_nn::Matrix;
use std::panic::catch_unwind;
use std::sync::OnceLock;

/// Byte offset of the body: magic (8), version (4), body length (8).
const BODY: usize = 20;

/// FNV-1a-64, the checkpoint body checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A checkpoint file around `body`, with a consistent length and checksum.
fn with_body(header: &[u8], body: &[u8]) -> Vec<u8> {
    let mut bytes = header[..12].to_vec();
    bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
    bytes.extend_from_slice(body);
    bytes.extend_from_slice(&fnv1a64(body).to_le_bytes());
    bytes
}

/// Valid checkpoints of small models, one per architecture kind.
fn valid_checkpoints() -> &'static [Vec<u8>] {
    static FILES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    FILES.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(3);
        [
            models::classical_vae(16, 4, &mut rng),
            models::f_bq_ae(16, 1, &mut rng),
            models::h_bq_vae(16, 1, &mut rng),
            models::sq_ae(16, 2, 1, &mut rng),
            models::sq_vae(16, 2, 1, &mut rng),
        ]
        .into_iter()
        .map(|mut model| {
            let mut bytes = Vec::new();
            Checkpoint::capture(&mut model, 3)
                .unwrap()
                .write_to(&mut bytes)
                .unwrap();
            bytes
        })
        .collect()
    })
}

/// Parses `bytes` as a checkpoint and, when it loads, builds its model and
/// reconstructs one row (skipped above 1024 features, to bound the run
/// time). Returns whether the bytes loaded.
fn load_and_run(bytes: &[u8]) -> bool {
    let Ok(ckpt) = Checkpoint::read_from(bytes) else {
        return false;
    };
    if let Ok(mut model) = ckpt.build_model() {
        let width = ckpt.spec.input_dim();
        if width <= 1024 {
            let _ = model.reconstruct(&Matrix::filled(1, width, 0.5));
        }
    }
    true
}

/// Arbitrary bytes: raw, or behind a valid magic and version so parsing
/// reaches the length, body and checksum checks, or a random body with a
/// repaired length and checksum so parsing reaches the body fields.
fn arbitrary_checkpoint_bytes() -> impl Strategy<Value = Vec<u8>> {
    let bytes = proptest::collection::vec(0..=255u8, 0..96);
    (0..3u8, bytes).prop_map(|(kind, tail)| {
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&1u32.to_le_bytes());
        match kind {
            0 => tail,
            1 => [header, tail].concat(),
            _ => with_body(&header, &tail),
        }
    })
}

/// A valid checkpoint with one to three body bytes overwritten and/or its
/// body cut short, with the body length and checksum repaired.
fn mutated_checkpoint() -> impl Strategy<Value = Vec<u8>> {
    let writes = proptest::collection::vec((0..usize::MAX, 0..=255u8), 0..=3);
    (0..5usize, writes, 0..3u8, 0..usize::MAX).prop_map(|(which, writes, cut, cut_at)| {
        let file = &valid_checkpoints()[which];
        let mut body = file[BODY..file.len() - 8].to_vec();
        for &(at, byte) in &writes {
            let i = at % body.len();
            body[i] = byte;
        }
        if writes.is_empty() || cut == 0 {
            body.truncate(cut_at % body.len());
        }
        with_body(file, &body)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Arbitrary bytes give a typed error or a checkpoint, never a panic.
    #[test]
    fn checkpoint_bytes_never_panic(bytes in arbitrary_checkpoint_bytes()) {
        let run = catch_unwind(|| load_and_run(&bytes));
        prop_assert!(run.is_ok(), "checkpoint bytes {:?} panicked", bytes);
    }

    /// Mutated and truncated checkpoints load, build and reconstruct, or
    /// stop at a typed error; never a panic.
    #[test]
    fn mutated_checkpoints_never_panic(bytes in mutated_checkpoint()) {
        let run = catch_unwind(|| load_and_run(&bytes));
        prop_assert!(run.is_ok(), "mutated checkpoint {:?} panicked", bytes);
    }
}

/// Fragments of the `SQVAE_FAULTS` spec language, values that parse as
/// floats outside `[0, 1]`, and multi-byte characters.
const SPEC_TOKENS: [&str; 30] = [
    "seed",
    "worker_panic",
    "queue_saturation",
    "checkpoint_flip",
    "checkpoint_truncate",
    "nan_loss",
    "on",
    "1",
    "=",
    ",",
    " ",
    "0",
    "0.5",
    ".",
    "-",
    "+",
    "e",
    "9",
    "nan",
    "NaN",
    "inf",
    "-inf",
    "infinity",
    "1e400",
    "18446744073709551616",
    "é",
    "€",
    "𝄞",
    "ß=",
    "_",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Every spec parses to a plan whose rates lie in [0, 1], or to an
    /// error message; never a panic.
    #[test]
    fn fault_specs_never_panic(
        tokens in proptest::collection::vec(0..SPEC_TOKENS.len(), 0..12),
    ) {
        let spec: String = tokens.iter().map(|&t| SPEC_TOKENS[t]).collect();
        match catch_unwind(|| FaultPlan::parse(&spec)) {
            Err(_) => prop_assert!(false, "spec {:?} panicked", spec),
            Ok(Ok(plan)) => prop_assert!(
                plan.rates.iter().all(|r| (0.0..=1.0).contains(r)),
                "spec {:?} gave rates {:?}",
                spec,
                plan.rates
            ),
            Ok(Err(msg)) => prop_assert!(!msg.is_empty(), "spec {:?}: empty error", spec),
        }
    }
}
