//! Chaos suite: drives the serving and training stacks under deterministic
//! fault injection ([`sqvae::faults`]) and checks the robustness contract:
//!
//! * every accepted request resolves — a result or a typed error, never a
//!   hang (these tests finishing at all is the proof);
//! * every request that succeeds under chaos returns bytes identical to
//!   the fault-free run;
//! * the supervisor respawns a panicked engine, a panic fails only the
//!   batch in flight, checkpoint corruption heals from the `.bak`
//!   generation, and NaN losses roll back and continue.
//!
//! The injector is process-global, so this suite lives in its own
//! integration binary and serializes itself through `GATE`. CI runs it a
//! second time with `SQVAE_FAULTS` set (fixed seed); the environment plan
//! feeds the serving storm test, and every assertion is written to hold
//! for arbitrary rates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::core::{models, Autoencoder, TrainConfig, Trainer};
use sqvae::datasets::qm9::{generate as gen_qm9, Qm9Config};
use sqvae::faults::{self, FaultPlan, FaultPoint, FaultScope};
use sqvae::nn::Matrix;
use sqvae::serve::{
    publish_model, InferenceServer, Op, Request, RetryPolicy, ServeError, ServerConfig,
};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

// The fault injector is process-global: every test that installs a plan
// must hold this while it runs.
static GATE: Mutex<()> = Mutex::new(());

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("sqvae-chaos-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

/// Publishes a small SQ-VAE checkpoint with no faults active (the chaos
/// under test starts after the model exists on disk).
fn published_model(name: &str, seed: u64) -> (String, Autoencoder) {
    assert!(!faults::active(), "publish must happen fault-free");
    let mut model = models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(seed));
    let path = temp_path(name);
    publish_model(&mut model, seed, &path).unwrap();
    (path, model)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_dying_worker_resolves_every_outstanding_ticket_and_is_respawned() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let (path, mut direct) = published_model("worker-gone.ckpt", 1);
    let server = InferenceServer::start(ServerConfig {
        retry: RetryPolicy::none(),
        ..ServerConfig::default()
    });

    // Queue a burst while paused, then let the (always-panicking) engine
    // take it as one batch: every ticket in it must fail typed, none may
    // hang.
    server.pause();
    let ids: Vec<u64> = (0..8)
        .map(|seed| {
            server
                .submit(Request::new(path.clone(), Op::Sample { n: 1, seed }))
                .unwrap()
        })
        .collect();
    let scope = FaultScope::install(FaultPlan::quiet(7).with_rate(FaultPoint::WorkerPanic, 1.0));
    let results: Vec<Result<Matrix, ServeError>> = std::thread::scope(|s| {
        let server = &server;
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| s.spawn(move || server.wait(id)))
            .collect();
        server.resume();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in results {
        assert_eq!(r.unwrap_err(), ServeError::WorkerGone);
    }

    // With the fault still armed, a fresh request fails typed too (the
    // respawned engine dies again) — still no hang.
    assert_eq!(
        server
            .request(Request::new(path.clone(), Op::Sample { n: 1, seed: 90 }))
            .unwrap_err(),
        ServeError::WorkerGone
    );

    // Disarm: the supervisor's latest respawn serves again, bit-identically.
    drop(scope);
    let healed = server
        .request(Request::new(path, Op::Sample { n: 2, seed: 91 }))
        .unwrap();
    let want = direct.sample(2, &mut StdRng::seed_from_u64(91)).unwrap();
    assert_eq!(bits(&healed), bits(&want));

    let health = server.health();
    assert!(health.worker_alive);
    assert!(health.respawns >= 1, "supervisor never respawned");
    server.shutdown();
}

#[test]
fn chaos_storm_loses_no_request_and_survivors_are_bit_identical() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let (path, mut direct) = published_model("storm.ckpt", 2);

    // Fault-free reference for the whole schedule, from direct model calls
    // (the engine's coalescing guarantee makes these the served bytes).
    let xs: Vec<Matrix> = (0..40)
        .map(|i| Matrix::from_fn(1, 16, |_, c| ((i * 16 + c) as f64).cos() / 2.0))
        .collect();
    let reference: Vec<Vec<u64>> = (0..40u64)
        .map(|i| {
            if i % 2 == 0 {
                bits(
                    &direct
                        .sample(1 + (i as usize % 3), &mut StdRng::seed_from_u64(i))
                        .unwrap(),
                )
            } else {
                bits(&direct.reconstruct(&xs[i as usize]).unwrap())
            }
        })
        .collect();

    // Rates come from SQVAE_FAULTS when CI sets it; only the serving
    // points matter here (no saves or training happen under this scope),
    // and worker panics are forced on so the test always exercises them.
    let base = FaultPlan::from_env().unwrap_or(FaultPlan::quiet(42));
    let plan = FaultPlan::quiet(base.seed)
        .with_rate(
            FaultPoint::WorkerPanic,
            base.rate(FaultPoint::WorkerPanic).max(0.25),
        )
        .with_rate(
            FaultPoint::QueueSaturation,
            base.rate(FaultPoint::QueueSaturation).max(0.15),
        );
    let scope = FaultScope::install(plan);

    let server = InferenceServer::start(ServerConfig {
        retry: RetryPolicy {
            max_attempts: 6,
            backoff: Duration::from_millis(1),
        },
        ..ServerConfig::default()
    });
    let mut successes = 0usize;
    for i in 0..40u64 {
        let op = if i % 2 == 0 {
            Op::Sample {
                n: 1 + (i as usize % 3),
                seed: i,
            }
        } else {
            Op::Reconstruct(xs[i as usize].clone())
        };
        // Every round trip resolves — success or typed error, never a
        // hang. Retries are part of the contract: a lost engine or a
        // saturated queue is transient.
        match server.request(Request::new(path.clone(), op)) {
            Ok(m) => {
                assert_eq!(bits(&m), reference[i as usize], "request {i} diverged");
                successes += 1;
            }
            Err(e) => assert!(
                e.is_retryable(),
                "request {i} failed with a non-transient error: {e}"
            ),
        }
    }

    let stats = faults::stats().unwrap();
    drop(scope);

    // Fault-free epilogue: the server is healthy again after the storm.
    let healed = server
        .request(Request::new(path, Op::Sample { n: 1, seed: 1000 }))
        .unwrap();
    let want = direct.sample(1, &mut StdRng::seed_from_u64(1000)).unwrap();
    assert_eq!(bits(&healed), bits(&want));

    let health = server.health();
    assert!(health.worker_alive);
    if stats.fired_at(FaultPoint::WorkerPanic) > 0 {
        assert!(health.respawns >= 1, "engine died but was never respawned");
    }
    let engine_stats = server.shutdown();
    // The storm's successes all flowed through some engine generation.
    assert!(engine_stats.requests >= successes);
    assert!(successes > 0, "chaos drowned every request");
}

#[test]
fn an_engine_panic_fails_only_the_batch_in_flight() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let (path_a, _) = published_model("blast-a.ckpt", 70);
    let (path_b, mut model_b) = published_model("blast-b.ckpt", 71);
    let server = InferenceServer::start(ServerConfig {
        retry: RetryPolicy::none(),
        ..ServerConfig::default()
    });

    // Three seeded samples per model, interleaved in one paused queue. The
    // engine's first batch is model A's three (the front request's key);
    // model B's stay queued behind it.
    server.pause();
    let mut ids_a = Vec::new();
    let mut ids_b = Vec::new();
    for seed in 0..3u64 {
        let submit = |path: &str| {
            server
                .submit(Request::new(path, Op::Sample { n: 2, seed }))
                .unwrap()
        };
        ids_a.push(submit(&path_a));
        ids_b.push((seed, submit(&path_b)));
    }
    let seed = FaultPlan::from_env().map(|p| p.seed).unwrap_or(13);
    let scope = FaultScope::install(FaultPlan::quiet(seed).with_rate(FaultPoint::WorkerPanic, 1.0));
    server.resume();
    for id in ids_a {
        assert_eq!(server.wait(id).unwrap_err(), ServeError::WorkerGone);
    }

    // Disarm before any further client call: the next wait respawns the
    // engine, which serves model B's queued requests with fault-free bytes.
    drop(scope);
    for (seed, id) in ids_b {
        let want = model_b.sample(2, &mut StdRng::seed_from_u64(seed)).unwrap();
        let got = server
            .wait(id)
            .unwrap_or_else(|e| panic!("a queued request outside the batch failed: {e}"));
        assert_eq!(bits(&got), bits(&want));
    }
    let health = server.health();
    assert!(health.worker_alive);
    assert_eq!(health.respawns, 1, "expected exactly one respawn");
    assert_eq!(server.shutdown().requests, 3);
}

#[test]
fn corrupted_checkpoint_heals_from_backup_bit_identically() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut model = models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(3));
    let path = temp_path("healing.ckpt");
    // Two clean saves of the same model: the second rotates the first into
    // `.bak`, so backup and primary hold identical bytes.
    publish_model(&mut model, 3, &path).unwrap();
    publish_model(&mut model, 3, &path).unwrap();

    // Third save under a guaranteed bit-flip: the primary is now corrupt,
    // the backup is the clean second save.
    {
        let _scope =
            FaultScope::install(FaultPlan::quiet(9).with_rate(FaultPoint::CheckpointFlip, 1.0));
        publish_model(&mut model, 3, &path).unwrap();
    }

    // Serving that path must heal through the backup and return exactly
    // the bytes the uncorrupted model produces.
    let server = InferenceServer::start(ServerConfig::default());
    let served = server
        .request(Request::new(path, Op::Sample { n: 3, seed: 33 }))
        .unwrap();
    let want = model.sample(3, &mut StdRng::seed_from_u64(33)).unwrap();
    assert_eq!(bits(&served), bits(&want));
    let stats = server.shutdown();
    assert!(
        stats.checkpoint_recoveries >= 1,
        "recovery path never exercised"
    );
}

#[test]
fn nan_loss_faults_roll_back_and_training_still_converges_on_a_result() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let data = gen_qm9(&Qm9Config {
        n_samples: 32,
        seed: 4,
    });
    let mut model = models::classical_vae(64, 4, &mut StdRng::seed_from_u64(5));
    let seed = FaultPlan::from_env().map(|p| p.seed).unwrap_or(42);
    let _scope = FaultScope::install(FaultPlan::quiet(seed).with_rate(FaultPoint::NanLoss, 0.25));
    let history = Trainer::new(TrainConfig {
        epochs: 4,
        batch_size: 8,
        max_nan_recoveries: 10_000,
        ..TrainConfig::default()
    })
    .train(&mut model, &data, None)
    .unwrap();

    let fired = faults::stats().unwrap().fired_at(FaultPoint::NanLoss);
    assert!(fired > 0, "rate 0.25 over 16 batches never fired");
    assert_eq!(history.anomalies.len() as u64, fired);
    assert_eq!(history.records.len(), 4);
    assert!(history.final_train_mse().unwrap().is_finite());
}

#[test]
fn saturation_faults_surface_as_typed_backpressure() {
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let (path, _) = published_model("saturated.ckpt", 6);
    let _scope =
        FaultScope::install(FaultPlan::quiet(11).with_rate(FaultPoint::QueueSaturation, 1.0));
    let server = InferenceServer::start(ServerConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_micros(100),
        },
        ..ServerConfig::default()
    });
    // Saturation on every attempt: retries exhaust into the typed
    // backpressure error, not a hang or a panic.
    assert_eq!(
        server
            .request(Request::new(path, Op::Sample { n: 1, seed: 0 }))
            .unwrap_err(),
        ServeError::QueueFull { capacity: 256 }
    );
    server.shutdown();
}
