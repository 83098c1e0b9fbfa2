//! Serve payload boundaries: every shape and value a client can send
//! resolves to a result or a typed error, and none takes the engine down.
//!
//! The payloads are empty, mis-sized, non-finite and huge rows for
//! `Encode`, `Decode` and `Reconstruct`, plus `Sample` requests, against a
//! running server holding an SQ-VAE(16, p=2, L=1) checkpoint. A NaN or
//! infinite cell is refused at submission with `ServeError::NonFinite`,
//! naming the first bad cell; a finite row of huge values is served.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::core::models;
use sqvae::nn::Matrix;
use sqvae::serve::{publish_model, InferenceServer, Op, Request, ServeError, ServerConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn serve_payloads_resolve_to_results_or_typed_errors() {
    let mut model = models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(8));
    let latent = model.latent_dim();
    let path = std::env::temp_dir().join("sqvae-serve-payloads-sq-vae.ckpt");
    let path = path.to_string_lossy().into_owned();
    publish_model(&mut model, 8, &path).unwrap();
    let server = InferenceServer::start(ServerConfig::default());

    let rows = |width: usize, v: f64| Matrix::filled(1, width, v);
    // Empty, mis-sized, non-finite and huge payloads for a `width`-wide
    // input.
    let payloads = |width: usize| {
        [
            Matrix::zeros(1, 0),
            Matrix::zeros(0, width),
            rows(width - 1, 0.5),
            rows(width + 1, 0.5),
            rows(width, f64::NAN),
            rows(width, f64::INFINITY),
            rows(width, f64::NEG_INFINITY),
            rows(width, 1e308),
        ]
    };
    let ops = payloads(16)
        .into_iter()
        .flat_map(|m| [Op::Encode(m.clone()), Op::Reconstruct(m)])
        .chain(payloads(latent).into_iter().map(Op::Decode))
        .chain([Op::Sample { n: 0, seed: 1 }, Op::Sample { n: 3, seed: 2 }]);
    for op in ops {
        let what = format!("{op:?}");
        let (want_rows, finite) = match &op {
            Op::Encode(m) | Op::Decode(m) | Op::Reconstruct(m) => {
                (m.rows(), m.as_slice().iter().all(|v| v.is_finite()))
            }
            Op::Sample { n, .. } => (*n, true),
        };
        let reply = catch_unwind(AssertUnwindSafe(|| {
            server.request(Request::new(path.clone(), op))
        }))
        .unwrap_or_else(|_| panic!("{what} panicked in the client"));
        match reply {
            Ok(out) if finite => assert_eq!(out.rows(), want_rows, "{what}"),
            Err(ServeError::NonFinite { row: 0, col: 0 }) if !finite => {}
            Err(ServeError::EmptyRequest | ServeError::Model(_)) if finite => {}
            other => panic!("{what}: unexpected reply {other:?}"),
        }
    }

    // The error names the first non-finite cell in row-major order, for
    // every payload op.
    let mut bad = Matrix::filled(3, 16, 0.5);
    bad.set(2, 0, f64::NAN);
    bad.set(1, 7, f64::NEG_INFINITY);
    let mut bad_latent = Matrix::filled(2, latent, 0.1);
    bad_latent.set(1, latent - 1, f64::INFINITY);
    for (op, want) in [
        (Op::Encode(bad.clone()), (1, 7)),
        (Op::Reconstruct(bad), (1, 7)),
        (Op::Decode(bad_latent), (1, latent - 1)),
    ] {
        let what = format!("{op:?}");
        let err = server.request(Request::new(path.clone(), op)).unwrap_err();
        assert_eq!(
            err,
            ServeError::NonFinite {
                row: want.0,
                col: want.1
            },
            "{what}"
        );
        assert!(!err.is_retryable());
    }

    // A finite row of huge values encodes in its direction: like a row of
    // ones, whose amplitudes normalize to the same bits.
    let encode = |v: f64| -> Vec<u64> {
        let out = server.request(Request::new(path.clone(), Op::Encode(rows(16, v))));
        out.unwrap()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    assert_eq!(encode(1e308), encode(1.0));
    assert_eq!(server.health().respawns, 0);
    server.shutdown();
}
