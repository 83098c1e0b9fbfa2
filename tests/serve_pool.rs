//! Serving determinism: a mixed schedule served through the
//! `InferenceServer` returns bytes bit-identical to direct model calls.
//!
//! Results depend only on each request's payload (sample requests carry
//! their own seeds), never on batch composition or on how many compute-pool
//! threads a batch's rows fan out over. CI runs this at `SQVAE_THREADS=1`
//! and at `=4`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::core::{models, Autoencoder};
use sqvae::nn::Matrix;
use sqvae::serve::{publish_model, InferenceServer, Op, Request, ServerConfig};

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("sqvae-serve-pool-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

fn published_model(name: &str, seed: u64) -> (String, Autoencoder) {
    let mut model = models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(seed));
    let path = temp_path(name);
    publish_model(&mut model, seed, &path).unwrap();
    (path, model)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A mixed schedule over `models`: encode, reconstruct, decode, and seeded
/// sample requests for each model in turn, so the engine coalesces several
/// keys out of one queue.
fn schedule(models: &mut [(String, Autoencoder)]) -> Vec<Request> {
    let mut reqs = Vec::new();
    for (i, (path, model)) in models.iter_mut().enumerate() {
        let x = Matrix::from_fn(2, 16, |r, c| ((i * 32 + r * 16 + c) as f64).sin());
        let z = Matrix::from_fn(3, model.latent_dim(), |r, c| {
            (i + r + c) as f64 * 0.17 - 0.3
        });
        reqs.push(Request::new(path.clone(), Op::Encode(x.clone())));
        reqs.push(Request::new(path.clone(), Op::Reconstruct(x)));
        reqs.push(Request::new(path.clone(), Op::Decode(z)));
        for j in 0..3u64 {
            reqs.push(Request::new(
                path.clone(),
                Op::Sample {
                    n: 1 + j as usize,
                    seed: i as u64 * 100 + j,
                },
            ));
        }
    }
    reqs
}

/// Direct (serverless) reference bytes for the same schedule.
fn reference(models: &mut [(String, Autoencoder)]) -> Vec<Vec<u64>> {
    let reqs = schedule(models);
    reqs.iter()
        .map(|req| {
            let model = &mut models
                .iter_mut()
                .find(|(p, _)| *p == req.model)
                .expect("request targets a published model")
                .1;
            let out = match &req.op {
                Op::Encode(x) => model.encode(x).unwrap(),
                Op::Decode(z) => model.decode(z).unwrap(),
                Op::Reconstruct(x) => model.reconstruct(x).unwrap(),
                Op::Sample { n, seed } => {
                    model.sample(*n, &mut StdRng::seed_from_u64(*seed)).unwrap()
                }
            };
            bits(&out)
        })
        .collect()
}

/// Runs the schedule through the server and returns result bytes in
/// schedule order. Submission happens while paused so the queue holds the
/// whole schedule before the engine takes a batch — the adversarial case
/// for batch-composition effects.
fn serve_schedule(models: &mut [(String, Autoencoder)]) -> Vec<Vec<u64>> {
    let server = InferenceServer::start(ServerConfig::default());
    server.pause();
    let ids: Vec<u64> = schedule(models)
        .into_iter()
        .map(|r| server.submit(r).unwrap())
        .collect();
    server.resume();
    let out: Vec<Vec<u64>> = ids
        .into_iter()
        .map(|id| bits(&server.wait(id).unwrap()))
        .collect();
    let health = server.health();
    assert!(health.worker_alive);
    assert_eq!(health.respawns, 0);
    let stats = server.shutdown();
    assert_eq!(stats.requests, out.len());
    // Four keys per model (three sample requests share one).
    assert_eq!(stats.batches, 4 * models.len());
    out
}

#[test]
fn a_mixed_schedule_is_served_bit_identically_to_direct_calls() {
    let mut published: Vec<(String, Autoencoder)> = (0..3)
        .map(|i| published_model(&format!("matrix-{i}.ckpt"), 50 + i))
        .collect();
    let want = reference(&mut published);
    assert_eq!(serve_schedule(&mut published), want);
}
