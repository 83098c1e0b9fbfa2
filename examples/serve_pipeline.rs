//! End-to-end checkpoint + serving pipeline, used as a CI gate:
//!
//! 1. train a scalable SQ-VAE for one epoch,
//! 2. save it as a checkpoint and reload it (asserting bit-identical
//!    reconstructions across the round trip),
//! 3. stand up an [`sqvae::serve::InferenceServer`] over the checkpoint
//!    and push a batched mix of encode / decode / sample / reconstruct
//!    requests,
//! 4. diff every served result against the direct in-process call.
//!
//! Exits nonzero on the first mismatch, so CI fails loudly.
//!
//! ```sh
//! cargo run --release --example serve_pipeline
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::core::checkpoint;
use sqvae::core::{models, TrainConfig, Trainer};
use sqvae::datasets::qm9::{generate, Qm9Config};
use sqvae::nn::Matrix;
use sqvae::serve::{InferenceServer, Op, Request, ServerConfig};

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn check(label: &str, served: &Matrix, direct: &Matrix) -> Result<(), String> {
    if bits(served) == bits(direct) {
        println!(
            "  {label}: served == direct ({} rows, bit-identical)",
            served.rows()
        );
        Ok(())
    } else {
        Err(format!("{label}: served output diverged from direct call"))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SEED: u64 = 42;

    // 1. One epoch of real training so the checkpoint holds non-initial
    //    weights.
    let data = generate(&Qm9Config {
        n_samples: 64,
        seed: 7,
    });
    let (train, test) = data.shuffle_split(0.85, 0);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut model = models::sq_vae(64, 2, 1, &mut rng);
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 1,
        batch_size: 16,
        ..TrainConfig::default()
    });
    let history = trainer.train(&mut model, &train, Some(&test))?;
    println!(
        "trained {} for 1 epoch: train MSE {:.4}",
        model.name,
        history.final_train_mse().unwrap()
    );

    // 2. Save → reload → bit-identical reconstruction.
    let dir = std::env::temp_dir().join("sqvae-serve-pipeline");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("sq_vae.ckpt").to_string_lossy().into_owned();
    checkpoint::save_model(&mut model, SEED, &path)?;
    let mut reloaded = checkpoint::load_model(&path)?;
    let probe = Matrix::from_fn(4, 64, |r, c| (r * 64 + c) as f64 / 256.0);
    check(
        "checkpoint round trip",
        &reloaded.reconstruct(&probe)?,
        &model.reconstruct(&probe)?,
    )?;

    // 3. Serve a batched request mix against the checkpoint. Pausing the
    //    server while the burst is submitted makes the coalescing
    //    deterministic (otherwise the engine may take the first request
    //    before the rest arrive, which is correct but batches less). The
    //    two Reconstruct requests share a coalescing key, so the engine
    //    merges them into one forward pass even with other kinds queued
    //    between them.
    let server = InferenceServer::start(ServerConfig {
        capacity: 32,
        max_batch_rows: 64,
        ..ServerConfig::default()
    });
    server.pause();
    let x = Matrix::from_fn(3, 64, |r, c| ((r * 64 + c) as f64).sin().abs());
    let z = Matrix::from_fn(2, model.latent_dim(), |r, c| (r + c) as f64 * 0.2);
    let ids = [
        server.submit(Request::new(path.clone(), Op::Reconstruct(x.clone())))?,
        server.submit(Request::new(path.clone(), Op::Encode(x.clone())))?,
        server.submit(Request::new(path.clone(), Op::Decode(z.clone())))?,
        server.submit(Request::new(path.clone(), Op::Sample { n: 5, seed: 11 }))?,
        server.submit(Request::new(path.clone(), Op::Reconstruct(probe.clone())))?,
    ];
    server.resume();
    let served: Vec<Matrix> = ids
        .iter()
        .map(|&id| server.wait(id))
        .collect::<Result<_, _>>()?;

    // 4. Every served answer must match the direct in-process call bitwise.
    check("reconstruct", &served[0], &model.reconstruct(&x)?)?;
    check("encode", &served[1], &model.encode(&x)?)?;
    check("decode", &served[2], &model.decode(&z)?)?;
    check(
        "sample",
        &served[3],
        &model.sample(5, &mut StdRng::seed_from_u64(11))?,
    )?;
    check("reconstruct #2", &served[4], &model.reconstruct(&probe)?)?;

    let stats = server.shutdown();
    println!(
        "server processed {} requests in {} batches ({} rows, largest batch {} requests)",
        stats.requests, stats.batches, stats.rows, stats.largest_batch_requests
    );
    assert!(
        stats.batches < stats.requests,
        "expected at least one coalesced batch"
    );
    println!("serve pipeline OK");
    Ok(())
}
