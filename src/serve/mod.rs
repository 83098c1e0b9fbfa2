//! Long-running batched inference over checkpointed models.
//!
//! The training pipeline produces checkpoints ([`sqvae_core::checkpoint`]);
//! this module serves them. Three layers:
//!
//! * [`BatchEngine`] (`engine`) — a synchronous core: a warm-model registry
//!   keyed by checkpoint path, a request queue, and a coalescer that merges
//!   single `encode` / `decode` / `sample` / `reconstruct` requests
//!   targeting the same model into one batched forward pass. Every model
//!   call is row-independent (the quantum layers shard batch rows on the
//!   shared compute pool with a bit-identical guarantee), so a coalesced batch
//!   returns exactly the bytes the same requests would produce one at a
//!   time.
//! * The dispatcher (`dispatch`) — routes each request to a home worker by
//!   hashing its coalescing key (**sharding**: same-key requests land
//!   together so batches stay fat), spilling to the least-loaded worker
//!   when the home shard's queue is at least
//!   [`ServerConfig::spill_depth`] deep (**spillover**: a deep home queue
//!   already guarantees a full batch, so the marginal request gains more
//!   from an idle worker).
//! * [`InferenceServer`] (`pool`) — a pool of [`ServerConfig::workers`]
//!   worker threads (default: the `SQVAE_WORKERS` environment variable,
//!   falling back to one per CPU), each wrapping its own engine with its
//!   own warm-model registry replica: bounded pool-wide submission queue
//!   (typed [`ServeError::QueueFull`] backpressure), blocking
//!   [`InferenceServer::request`] round trips, a maintenance
//!   [`InferenceServer::pause`], and a graceful
//!   [`InferenceServer::shutdown`] that drains every accepted request
//!   before the pool exits.
//!
//! ## Fault tolerance
//!
//! The server is built to keep its core invariant — **every accepted
//! request resolves**, with a result or a typed error, never a hang —
//! under the failures a long-running deployment actually sees, and each
//! guarantee holds per pool worker:
//!
//! * **Deadlines.** A request can carry its own [`Request::deadline`], or
//!   inherit [`ServerConfig::default_timeout`]. Expired requests are
//!   load-shed in-queue (before they waste a batch slot) and
//!   [`InferenceServer::wait`] gives up at the deadline — both surface as
//!   [`ServeError::DeadlineExceeded`].
//! * **Worker supervision.** A panic in a worker (a model bug, or an
//!   injected [`sqvae_core::faults::FaultPoint::WorkerPanic`]) fails only
//!   the tickets *that worker* held in flight with
//!   [`ServeError::WorkerGone`] — the rest of the pool keeps serving — and
//!   the supervisor respawns the crashed member independently on the next
//!   client call, rebuilding its warm-model registry from the checkpoint
//!   paths the dead generation had loaded. Queued-but-unstolen requests
//!   survive the crash untouched.
//! * **Client retries.** [`InferenceServer::request`] retries retryable
//!   errors ([`ServeError::QueueFull`], [`ServeError::WorkerGone`]) per
//!   the [`ServerConfig::retry`] policy with exponential backoff.
//! * **Poison recovery.** Every lock acquisition recovers from mutex
//!   poisoning, so one panic never cascades into aborts elsewhere.
//! * **Checkpoint healing.** Models load through
//!   [`sqvae_core::checkpoint::load_model_or_recover`], so a corrupted
//!   checkpoint file falls back to its `.bak` generation instead of
//!   failing every request that targets it.
//!
//! ## Determinism
//!
//! Results are **bit-identical for any pool size** (and any
//! [`ServerConfig::spill_depth`]): every request's bytes depend only on
//! its own payload, never on batch composition or worker placement.
//! Sampling stays deterministic under coalescing because each `sample`
//! request carries its own seed: the engine draws that request's latent
//! rows from a fresh `StdRng::seed_from_u64(seed)` — the same stream a
//! direct [`sqvae_core::Autoencoder::sample`] call would consume — and only
//! the decoder pass is shared. Routing therefore decides wall-clock, not
//! answers.
//!
//! ## Example
//!
//! ```no_run
//! use sqvae::serve::{InferenceServer, Op, Request, ServerConfig};
//! use sqvae_nn::Threads;
//!
//! # fn main() -> Result<(), sqvae::serve::ServeError> {
//! let server = InferenceServer::start(ServerConfig {
//!     workers: Threads::Fixed(4), // or leave the SQVAE_WORKERS default
//!     ..ServerConfig::default()
//! });
//! let sampled = server.request(Request::new("model.ckpt", Op::Sample { n: 4, seed: 7 }))?;
//! println!("sampled {} molecules-worth of features", sampled.rows());
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

mod dispatch;
mod engine;
mod pool;
mod stats;

pub use dispatch::shard_index;
pub use engine::{BatchEngine, Ticket};
pub use pool::{workers_from_env, InferenceServer, ServerConfig, WORKERS_ENV_VAR};
pub use stats::{EngineStats, ServerHealth};

use sqvae_core::checkpoint::{self, Checkpoint};
use sqvae_core::Autoencoder;
use sqvae_nn::{Matrix, NnError};
use std::time::{Duration, Instant};

/// Errors surfaced by the inference service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The submission queue is at capacity; retry after in-flight work
    /// drains. This is the backpressure signal — the server never buffers
    /// unboundedly.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The worker thread holding this request is gone (panicked) before
    /// answering it.
    WorkerGone,
    /// A request carried no rows to process (`n == 0` or an empty matrix).
    EmptyRequest,
    /// The referenced checkpoint could not be loaded (message from
    /// [`sqvae_core::checkpoint::CheckpointError`]).
    Checkpoint(String),
    /// The model rejected the payload (shape mismatch etc.).
    Model(NnError),
    /// The request's deadline passed before a result was produced: either
    /// load-shed in-queue or abandoned by [`InferenceServer::wait`].
    DeadlineExceeded,
    /// [`InferenceServer::wait`] was asked about an id the server never
    /// issued (or whose result was already consumed).
    UnknownTicket {
        /// The unrecognised ticket id.
        id: u64,
    },
}

impl ServeError {
    /// Whether retrying the same request may succeed: transient conditions
    /// ([`ServeError::QueueFull`] backpressure, a [`ServeError::WorkerGone`]
    /// crash the supervisor heals) are retryable; payload and deadline
    /// errors are not.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServeError::QueueFull { .. } | ServeError::WorkerGone)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "submission queue is full (capacity {capacity})")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::WorkerGone => write!(f, "worker thread exited before answering"),
            ServeError::EmptyRequest => write!(f, "request carries no rows"),
            ServeError::Checkpoint(msg) => write!(f, "checkpoint load failed: {msg}"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::DeadlineExceeded => {
                write!(f, "deadline passed before the request was served")
            }
            ServeError::UnknownTicket { id } => {
                write!(f, "ticket {id} was never issued or already consumed")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<NnError> for ServeError {
    fn from(e: NnError) -> Self {
        ServeError::Model(e)
    }
}

/// One inference operation on a model.
#[derive(Debug, Clone)]
pub enum Op {
    /// Map data rows to latent codes (VAEs: the posterior mean).
    Encode(Matrix),
    /// Decode latent rows into data space.
    Decode(Matrix),
    /// Evaluation-mode round trip (encode → decode).
    Reconstruct(Matrix),
    /// Draw `n` fresh samples by decoding `z ~ N(0, I)` drawn from
    /// `StdRng::seed_from_u64(seed)` — bit-identical to a direct
    /// [`sqvae_core::Autoencoder::sample`] call with that RNG.
    Sample {
        /// Number of samples to draw.
        n: usize,
        /// Seed for this request's latent draws.
        seed: u64,
    },
}

impl Op {
    /// Number of output rows this op will produce (and the coalescer's
    /// row-budget cost).
    fn rows(&self) -> usize {
        match self {
            Op::Encode(m) | Op::Decode(m) | Op::Reconstruct(m) => m.rows(),
            Op::Sample { n, .. } => *n,
        }
    }

    /// Coalescing key: ops merge into one batch only when the kind and the
    /// payload width agree (widths always agree for same-kind ops on one
    /// model, but a mis-sized payload must not poison its batchmates). The
    /// dispatcher hashes the same key to pick a request's home shard.
    fn kind_and_width(&self) -> (u8, usize) {
        match self {
            Op::Encode(m) => (0, m.cols()),
            Op::Decode(m) => (1, m.cols()),
            Op::Reconstruct(m) => (2, m.cols()),
            Op::Sample { .. } => (3, 0),
        }
    }
}

/// A request: which checkpoint to serve, and what to do.
#[derive(Debug, Clone)]
pub struct Request {
    /// Path of the checkpoint file; each pool worker loads it on first use
    /// and keeps the model warm for subsequent requests.
    pub model: String,
    /// The operation to run.
    pub op: Op,
    /// Absolute deadline: past this instant the request is load-shed (if
    /// still queued) or abandoned (if in flight) with
    /// [`ServeError::DeadlineExceeded`]. `None` falls back to
    /// [`ServerConfig::default_timeout`], counted from submission.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A request with no deadline of its own (the server's
    /// [`ServerConfig::default_timeout`] still applies, if set).
    pub fn new(model: impl Into<String>, op: Op) -> Self {
        Request {
            model: model.into(),
            op,
            deadline: None,
        }
    }

    /// Sets an absolute deadline `timeout` from now. The deadline survives
    /// [`InferenceServer::request`] retries — the budget covers the whole
    /// round trip, not each attempt.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }
}

/// Client-side retry policy for [`InferenceServer::request`]: retryable
/// errors (see [`ServeError::is_retryable`]) are retried up to
/// `max_attempts` total attempts with exponential backoff (`backoff`,
/// doubling per failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, counting the first (`1` disables retries).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles on each further failure.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No retries: one attempt, errors surface immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// Backoff before retry number `attempt` (1-based): `backoff << (attempt - 1)`.
    fn delay(&self, attempt: u32) -> Duration {
        self.backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
        }
    }
}

/// Saves `model` as a checkpoint at `path` so a server can load it.
/// Re-exported convenience over [`sqvae_core::checkpoint::save_model`].
///
/// # Errors
///
/// See [`sqvae_core::checkpoint::save_model`].
pub fn publish_model(model: &mut Autoencoder, seed: u64, path: &str) -> Result<(), ServeError> {
    checkpoint::save_model(model, seed, path).map_err(|e| ServeError::Checkpoint(e.to_string()))
}

/// Loads a checkpoint header without building the model — a cheap
/// existence/compatibility probe for request routing.
///
/// # Errors
///
/// See [`Checkpoint::load`].
pub fn probe_checkpoint(path: &str) -> Result<Checkpoint, ServeError> {
    Checkpoint::load(path).map_err(|e| ServeError::Checkpoint(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqvae_core::models;
    use sqvae_nn::Threads;

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("sqvae-serve-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn published_model(name: &str, seed: u64) -> (String, Autoencoder) {
        let mut model = models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(seed));
        let path = temp_path(name);
        publish_model(&mut model, seed, &path).unwrap();
        (path, model)
    }

    fn rows_bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn coalesced_batch_matches_direct_single_row_calls() {
        let (path, mut direct) = published_model("coalesce.ckpt", 1);
        let mut engine = BatchEngine::new(64);
        let xs: Vec<Matrix> = (0..5)
            .map(|i| Matrix::from_fn(1, 16, |_, c| (i * 16 + c) as f64 / 80.0))
            .collect();
        let tickets: Vec<Ticket> = xs
            .iter()
            .map(|x| {
                engine
                    .submit(Request::new(path.clone(), Op::Reconstruct(x.clone())))
                    .unwrap()
            })
            .collect();
        assert_eq!(engine.pending(), 5);
        // All five coalesce into ONE forward pass...
        assert_eq!(engine.process_next_batch(), 5);
        let stats = engine.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.rows, 5);
        assert_eq!(stats.largest_batch_requests, 5);
        // ...and each result is bit-identical to the direct call.
        for (x, t) in xs.iter().zip(tickets) {
            let served = engine.take_result(t).unwrap().unwrap();
            let want = direct.reconstruct(x).unwrap();
            assert_eq!(rows_bits(&served), rows_bits(&want));
        }
    }

    #[test]
    fn encode_decode_and_sample_round_trip_bit_identically() {
        let (path, mut direct) = published_model("ops.ckpt", 2);
        let mut engine = BatchEngine::new(64);
        let x = Matrix::from_fn(3, 16, |r, c| ((r * 16 + c) as f64).sin());
        let t_enc = engine
            .submit(Request::new(path.clone(), Op::Encode(x.clone())))
            .unwrap();
        let z = Matrix::from_fn(2, direct.latent_dim(), |r, c| (r + c) as f64 * 0.1);
        let t_dec = engine
            .submit(Request::new(path.clone(), Op::Decode(z.clone())))
            .unwrap();
        let t_s1 = engine
            .submit(Request::new(path.clone(), Op::Sample { n: 2, seed: 11 }))
            .unwrap();
        let t_s2 = engine
            .submit(Request::new(path, Op::Sample { n: 3, seed: 12 }))
            .unwrap();
        engine.drain();
        // Mixed kinds cannot share a batch; the two samples can.
        assert_eq!(engine.stats().batches, 3);

        let want_enc = direct.encode(&x).unwrap();
        assert_eq!(
            rows_bits(&engine.take_result(t_enc).unwrap().unwrap()),
            rows_bits(&want_enc)
        );
        let want_dec = direct.decode(&z).unwrap();
        assert_eq!(
            rows_bits(&engine.take_result(t_dec).unwrap().unwrap()),
            rows_bits(&want_dec)
        );
        // Coalesced samples equal direct per-seed sample() calls.
        let want_s1 = direct.sample(2, &mut StdRng::seed_from_u64(11)).unwrap();
        let want_s2 = direct.sample(3, &mut StdRng::seed_from_u64(12)).unwrap();
        assert_eq!(
            rows_bits(&engine.take_result(t_s1).unwrap().unwrap()),
            rows_bits(&want_s1)
        );
        assert_eq!(
            rows_bits(&engine.take_result(t_s2).unwrap().unwrap()),
            rows_bits(&want_s2)
        );
    }

    #[test]
    fn row_budget_splits_oversized_batches() {
        let (path, _) = published_model("budget.ckpt", 3);
        let mut engine = BatchEngine::new(4);
        for _ in 0..3 {
            engine
                .submit(Request::new(
                    path.clone(),
                    Op::Reconstruct(Matrix::filled(3, 16, 0.2)),
                ))
                .unwrap();
        }
        engine.drain();
        // 3 rows each, budget 4: no two requests fit together.
        assert_eq!(engine.stats().batches, 3);
        assert_eq!(engine.stats().largest_batch_requests, 1);
    }

    #[test]
    fn models_stay_warm_across_batches() {
        let (path, _) = published_model("warm.ckpt", 4);
        let mut engine = BatchEngine::new(8);
        for _ in 0..3 {
            engine
                .submit(Request::new(path.clone(), Op::Sample { n: 1, seed: 0 }))
                .unwrap();
            engine.drain();
        }
        assert_eq!(engine.warm_models(), 1);
    }

    #[test]
    fn engine_surfaces_checkpoint_and_empty_errors() {
        let mut engine = BatchEngine::new(8);
        let t = engine
            .submit(Request::new(
                temp_path("does-not-exist.ckpt"),
                Op::Sample { n: 1, seed: 0 },
            ))
            .unwrap();
        engine.drain();
        assert!(matches!(
            engine.take_result(t),
            Some(Err(ServeError::Checkpoint(_)))
        ));
        let err = engine
            .submit(Request::new("x", Op::Sample { n: 0, seed: 0 }))
            .unwrap_err();
        assert_eq!(err, ServeError::EmptyRequest);
    }

    #[test]
    fn bad_payload_fails_its_batch_without_poisoning_other_keys() {
        let (path, mut direct) = published_model("width.ckpt", 5);
        let mut engine = BatchEngine::new(64);
        // Wrong width: 16-feature model fed 8-wide rows.
        let bad = engine
            .submit(Request::new(
                path.clone(),
                Op::Reconstruct(Matrix::filled(1, 8, 0.1)),
            ))
            .unwrap();
        let x = Matrix::filled(1, 16, 0.3);
        let good = engine
            .submit(Request::new(path, Op::Reconstruct(x.clone())))
            .unwrap();
        engine.drain();
        // Different widths → different batch keys → independent fates.
        assert!(matches!(
            engine.take_result(bad),
            Some(Err(ServeError::Model(_)))
        ));
        let served = engine.take_result(good).unwrap().unwrap();
        assert_eq!(
            rows_bits(&served),
            rows_bits(&direct.reconstruct(&x).unwrap())
        );
    }

    #[test]
    fn server_round_trip_matches_direct_calls() {
        let (path, mut direct) = published_model("server.ckpt", 6);
        let server = InferenceServer::start(ServerConfig {
            capacity: 16,
            max_batch_rows: 32,
            ..ServerConfig::default()
        });
        let x = Matrix::from_fn(2, 16, |r, c| (r * 16 + c) as f64 / 32.0);
        let served = server
            .request(Request::new(path.clone(), Op::Reconstruct(x.clone())))
            .unwrap();
        assert_eq!(
            rows_bits(&served),
            rows_bits(&direct.reconstruct(&x).unwrap())
        );
        let sampled = server
            .request(Request::new(path, Op::Sample { n: 3, seed: 9 }))
            .unwrap();
        let want = direct.sample(3, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(rows_bits(&sampled), rows_bits(&want));
        let stats = server.shutdown();
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn a_multi_worker_pool_round_trips_and_reports_its_size() {
        let (path, mut direct) = published_model("pool3.ckpt", 30);
        let server = InferenceServer::start(ServerConfig {
            workers: Threads::Fixed(3),
            ..ServerConfig::default()
        });
        assert_eq!(server.workers(), 3);
        let health = server.health();
        assert!(health.worker_alive);
        assert_eq!(health.workers, 3);
        let sampled = server
            .request(Request::new(path, Op::Sample { n: 2, seed: 31 }))
            .unwrap();
        let want = direct.sample(2, &mut StdRng::seed_from_u64(31)).unwrap();
        assert_eq!(rows_bits(&sampled), rows_bits(&want));
        server.shutdown();
    }

    #[test]
    fn spillover_routing_does_not_change_result_bytes() {
        // Same request set through two 4-worker pools: one that pins
        // requests to their home shard (huge spill_depth) and one that
        // spills on any queue imbalance (spill_depth 1). Placement differs;
        // bytes must not.
        let paths: Vec<String> = (0..3)
            .map(|i| published_model(&format!("spill-{i}.ckpt"), 40 + i).0)
            .collect();
        let reqs = || -> Vec<Request> {
            let mut v = Vec::new();
            for (i, p) in paths.iter().enumerate() {
                for j in 0..4u64 {
                    v.push(Request::new(
                        p.clone(),
                        Op::Sample {
                            n: 1,
                            seed: i as u64 * 10 + j,
                        },
                    ));
                }
            }
            v
        };
        let run = |spill_depth: usize| -> Vec<Vec<u64>> {
            let server = InferenceServer::start(ServerConfig {
                workers: Threads::Fixed(4),
                spill_depth,
                ..ServerConfig::default()
            });
            // Pause so queues build depth and the shallow spill threshold
            // actually triggers divergent placement.
            server.pause();
            let ids: Vec<u64> = reqs()
                .into_iter()
                .map(|r| server.submit(r).unwrap())
                .collect();
            server.resume();
            let out = ids
                .into_iter()
                .map(|id| rows_bits(&server.wait(id).unwrap()))
                .collect();
            server.shutdown();
            out
        };
        assert_eq!(run(1), run(usize::MAX));
    }

    #[test]
    fn bounded_queue_backpressure_and_graceful_drain() {
        let (path, _) = published_model("backpressure.ckpt", 7);
        let server = InferenceServer::start(ServerConfig {
            capacity: 3,
            max_batch_rows: 64,
            ..ServerConfig::default()
        });
        // Paused pool: accepted requests pile up deterministically. The
        // capacity bound is pool-wide, whatever the worker count.
        server.pause();
        let req = |seed: u64| Request::new(path.clone(), Op::Sample { n: 1, seed });
        let ids: Vec<u64> = (0..3).map(|s| server.submit(req(s)).unwrap()).collect();
        assert_eq!(
            server.submit(req(99)).unwrap_err(),
            ServeError::QueueFull { capacity: 3 }
        );
        // Graceful shutdown lifts the pause and drains all three accepted
        // requests before the pool exits.
        let results: Vec<_> = {
            let server = &server;
            std::thread::scope(|scope| {
                let handles: Vec<_> = ids
                    .iter()
                    .map(|&id| scope.spawn(move || server.wait(id)))
                    .collect();
                // Submissions racing shutdown see a typed refusal, never a hang.
                server.resume();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        for r in results {
            assert_eq!(r.unwrap().shape(), (1, 16));
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests, 3);
    }

    #[test]
    fn shutdown_refuses_new_work_but_drains_accepted_work() {
        let (path, _) = published_model("drain.ckpt", 8);
        let server = InferenceServer::start(ServerConfig {
            capacity: 8,
            max_batch_rows: 64,
            ..ServerConfig::default()
        });
        server.pause();
        let id = server
            .submit(Request::new(path.clone(), Op::Sample { n: 2, seed: 1 }))
            .unwrap();
        server.begin_shutdown();
        assert_eq!(
            server
                .submit(Request::new(path, Op::Sample { n: 1, seed: 2 }))
                .unwrap_err(),
            ServeError::ShuttingDown
        );
        // The accepted request still completes.
        assert_eq!(server.wait(id).unwrap().shape(), (2, 16));
        server.shutdown();
    }

    #[test]
    fn wait_on_an_unknown_ticket_is_a_typed_error_not_a_hang() {
        let server = InferenceServer::start(ServerConfig::default());
        assert_eq!(
            server.wait(12345).unwrap_err(),
            ServeError::UnknownTicket { id: 12345 }
        );
        server.shutdown();
    }

    #[test]
    fn a_consumed_ticket_cannot_be_waited_on_twice() {
        let (path, _) = published_model("consume.ckpt", 20);
        let server = InferenceServer::start(ServerConfig::default());
        let id = server
            .submit(Request::new(path, Op::Sample { n: 1, seed: 3 }))
            .unwrap();
        assert!(server.wait(id).is_ok());
        assert_eq!(
            server.wait(id).unwrap_err(),
            ServeError::UnknownTicket { id }
        );
        server.shutdown();
    }

    #[test]
    fn queued_requests_past_their_deadline_are_load_shed() {
        let (path, _) = published_model("deadline.ckpt", 21);
        let server = InferenceServer::start(ServerConfig::default());
        // Paused pool: the request sits in-queue past its (already
        // expired) deadline and must be shed, not served.
        server.pause();
        let req = Request::new(path, Op::Sample { n: 1, seed: 0 }).with_timeout(Duration::ZERO);
        let id = server.submit(req).unwrap();
        assert_eq!(server.wait(id).unwrap_err(), ServeError::DeadlineExceeded);
        assert!(server.health().deadline_shed >= 1);
        server.resume();
        server.shutdown();
    }

    #[test]
    fn default_timeout_covers_requests_without_their_own_deadline() {
        let (path, _) = published_model("default-timeout.ckpt", 22);
        let server = InferenceServer::start(ServerConfig {
            default_timeout: Some(Duration::from_millis(5)),
            ..ServerConfig::default()
        });
        server.pause();
        let id = server
            .submit(Request::new(path, Op::Sample { n: 1, seed: 0 }))
            .unwrap();
        assert_eq!(server.wait(id).unwrap_err(), ServeError::DeadlineExceeded);
        server.resume();
        server.shutdown();
    }

    #[test]
    fn retryable_errors_are_exactly_queue_full_and_worker_gone() {
        assert!(ServeError::QueueFull { capacity: 1 }.is_retryable());
        assert!(ServeError::WorkerGone.is_retryable());
        assert!(!ServeError::DeadlineExceeded.is_retryable());
        assert!(!ServeError::ShuttingDown.is_retryable());
        assert!(!ServeError::EmptyRequest.is_retryable());
        assert!(!ServeError::UnknownTicket { id: 0 }.is_retryable());
    }

    #[test]
    fn request_retries_ride_out_queue_full_backpressure() {
        let (path, _) = published_model("retry.ckpt", 23);
        let server = InferenceServer::start(ServerConfig {
            capacity: 1,
            retry: RetryPolicy {
                max_attempts: 50,
                backoff: Duration::from_millis(1),
            },
            ..ServerConfig::default()
        });
        // Fill the 1-slot queue while paused so the next request sees
        // QueueFull and has to retry until resume() drains the slot.
        server.pause();
        let parked = server
            .submit(Request::new(path.clone(), Op::Sample { n: 1, seed: 1 }))
            .unwrap();
        let result = std::thread::scope(|scope| {
            let server = &server;
            let path = path.clone();
            let h = scope
                .spawn(move || server.request(Request::new(path, Op::Sample { n: 1, seed: 2 })));
            std::thread::sleep(Duration::from_millis(10));
            server.resume();
            h.join().unwrap()
        });
        assert_eq!(result.unwrap().shape(), (1, 16));
        assert_eq!(server.wait(parked).unwrap().shape(), (1, 16));
        server.shutdown();
    }

    #[test]
    fn health_reports_a_live_unremarkable_server() {
        let server = InferenceServer::start(ServerConfig::default());
        let health = server.health();
        assert!(health.worker_alive);
        assert!(health.workers >= 1);
        assert_eq!(health.respawns, 0);
        assert_eq!(health.pending, 0);
        server.shutdown();
    }

    #[test]
    fn stats_absorb_adds_counts_and_maxes_the_high_water_mark() {
        let mut a = EngineStats {
            requests: 3,
            batches: 2,
            rows: 10,
            largest_batch_requests: 2,
            checkpoint_recoveries: 1,
        };
        a.absorb(EngineStats {
            requests: 5,
            batches: 1,
            rows: 7,
            largest_batch_requests: 4,
            checkpoint_recoveries: 0,
        });
        assert_eq!(
            a,
            EngineStats {
                requests: 8,
                batches: 3,
                rows: 17,
                largest_batch_requests: 4,
                checkpoint_recoveries: 1,
            }
        );
    }

    #[test]
    fn probe_reads_checkpoint_metadata() {
        let (path, direct) = published_model("probe.ckpt", 10);
        let ckpt = probe_checkpoint(&path).unwrap();
        assert_eq!(ckpt.name, direct.name);
        assert_eq!(ckpt.seed, 10);
        assert!(probe_checkpoint(&temp_path("missing.ckpt")).is_err());
    }
}
