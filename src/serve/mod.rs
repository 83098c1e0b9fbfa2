//! Long-running batched inference over checkpointed models.
//!
//! The training pipeline produces checkpoints ([`sqvae_core::checkpoint`]);
//! this module serves them. [`InferenceServer`] runs **one engine thread
//! over one bounded request queue**. The thread takes the front request
//! plus every queued request for the same model, op kind and payload width
//! that still fits [`ServerConfig::max_batch_rows`], runs them as one
//! batched `encode` / `decode` / `sample` / `reconstruct` call on its
//! warm-model registry (keyed by checkpoint path), publishes the results,
//! and takes the next batch. The batch's rows fan out on the process-wide
//! compute pool ([`sqvae_nn::parallel`]) that training also uses, so the
//! server adds no second thread-count lever. Around that engine:
//! typed [`ServeError::QueueFull`] backpressure, blocking
//! [`InferenceServer::request`] round trips, a maintenance
//! [`InferenceServer::pause`], and a graceful
//! [`InferenceServer::shutdown`] that drains every accepted request before
//! the engine exits.
//!
//! ## Fault tolerance
//!
//! The server is built to keep its core invariant — **every accepted
//! request resolves**, with a result or a typed error, never a hang —
//! under the failures a long-running deployment actually sees:
//!
//! * **Deadlines.** A request can carry its own [`Request::deadline`], or
//!   inherit [`ServerConfig::default_timeout`]. Expired requests are
//!   load-shed in-queue (before they waste a batch slot) and
//!   [`InferenceServer::wait`] gives up at the deadline — both surface as
//!   [`ServeError::DeadlineExceeded`].
//! * **Engine supervision.** A panic in the engine thread (a model bug, or
//!   an injected [`sqvae_core::faults::FaultPoint::WorkerPanic`]) fails
//!   exactly the batch in flight with [`ServeError::WorkerGone`]. Requests
//!   still queued wait, and the supervisor respawns the engine on the next
//!   client call that needs it, rebuilding its warm-model registry from the
//!   checkpoint paths the dead generation had loaded.
//! * **Client retries.** [`InferenceServer::request`] retries retryable
//!   errors ([`ServeError::QueueFull`], [`ServeError::WorkerGone`]) per
//!   the [`ServerConfig::retry`] policy with exponential backoff.
//! * **Bounded payloads.** A request with more rows than one batch may hold
//!   is refused at submission with [`ServeError::TooManyRows`], before any
//!   allocation sized by its row count.
//! * **Finite payloads.** A payload holding a NaN or an infinity is
//!   refused at submission with [`ServeError::NonFinite`], so a bad row
//!   never joins a coalesced batch.
//! * **Poison recovery.** Every lock acquisition recovers from mutex
//!   poisoning, so one panic never cascades into aborts elsewhere.
//! * **Checkpoint healing.** Models load through
//!   [`sqvae_core::checkpoint::load_model_or_recover`], so a corrupted
//!   checkpoint file falls back to its `.bak` generation instead of
//!   failing every request that targets it.
//!
//! ## Determinism
//!
//! Every request's bytes depend only on its own payload, never on batch
//! composition or on the compute pool's thread count. Sampling stays
//! deterministic under coalescing because each `sample` request carries
//! its own seed: the engine draws that request's latent rows from a fresh
//! `StdRng::seed_from_u64(seed)` — the same stream a direct
//! [`sqvae_core::Autoencoder::sample`] call would consume — and only the
//! decoder pass is shared.
//!
//! ## Example
//!
//! ```no_run
//! use sqvae::serve::{InferenceServer, Op, Request, ServerConfig};
//!
//! # fn main() -> Result<(), sqvae::serve::ServeError> {
//! let server = InferenceServer::start(ServerConfig::default());
//! let sampled = server.request(Request::new("model.ckpt", Op::Sample { n: 4, seed: 7 }))?;
//! println!("sampled {} molecules-worth of features", sampled.rows());
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

mod engine;
mod pool;
mod stats;

pub use pool::{workers_from_env, InferenceServer, ServerConfig};
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
    /// The engine thread panicked while running this request's batch, or
    /// could not be respawned to run it.
    WorkerGone,
    /// A request carried no rows to process (`n == 0` or an empty matrix).
    EmptyRequest,
    /// A request carried more rows than one batch may hold. Split it into
    /// requests of at most `max_batch_rows` rows.
    TooManyRows {
        /// Rows the request carried.
        rows: usize,
        /// The server's [`ServerConfig::max_batch_rows`].
        max_batch_rows: usize,
    },
    /// A payload cell is NaN or infinite. Every model maps such a row to
    /// NaN outputs, so the server refuses it at submission.
    NonFinite {
        /// Row of the first non-finite cell.
        row: usize,
        /// Column of the first non-finite cell.
        col: usize,
    },
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
            ServeError::WorkerGone => write!(f, "engine thread exited before answering"),
            ServeError::EmptyRequest => write!(f, "request carries no rows"),
            ServeError::TooManyRows {
                rows,
                max_batch_rows,
            } => write!(
                f,
                "request carries {rows} rows, over the batch row budget of {max_batch_rows}"
            ),
            ServeError::NonFinite { row, col } => {
                write!(f, "payload cell ({row}, {col}) is not finite")
            }
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
    /// Number of output rows this op will produce (and its cost against
    /// the batch row budget).
    fn rows(&self) -> usize {
        match self {
            Op::Encode(m) | Op::Decode(m) | Op::Reconstruct(m) => m.rows(),
            Op::Sample { n, .. } => *n,
        }
    }

    /// The `(row, column)` of the payload's first non-finite cell, in
    /// row-major order (`None` for a finite payload or a `Sample`).
    fn first_non_finite(&self) -> Option<(usize, usize)> {
        match self {
            Op::Encode(m) | Op::Decode(m) | Op::Reconstruct(m) => m
                .as_slice()
                .iter()
                .position(|v| !v.is_finite())
                .map(|i| (i / m.cols(), i % m.cols())),
            Op::Sample { .. } => None,
        }
    }

    /// Coalescing key: ops merge into one batch only when the kind and the
    /// payload width agree (widths always agree for same-kind ops on one
    /// model, but a mis-sized payload must not poison its batchmates).
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
    /// Path of the checkpoint file; the engine loads it on first use and
    /// keeps the model warm for subsequent requests.
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

    fn server_with_budget(max_batch_rows: usize) -> InferenceServer {
        InferenceServer::start(ServerConfig {
            max_batch_rows,
            ..ServerConfig::default()
        })
    }

    /// Submits `reqs` while the server is paused, so the engine sees them
    /// all queued at once, then resumes and waits on each in order.
    fn serve_paused(
        server: &InferenceServer,
        reqs: Vec<Request>,
    ) -> Vec<Result<Matrix, ServeError>> {
        server.pause();
        let ids: Vec<u64> = reqs
            .into_iter()
            .map(|r| server.submit(r).unwrap())
            .collect();
        assert_eq!(server.health().pending, ids.len());
        server.resume();
        ids.into_iter().map(|id| server.wait(id)).collect()
    }

    #[test]
    fn coalesced_batch_matches_direct_single_row_calls() {
        let (path, mut direct) = published_model("coalesce.ckpt", 1);
        let server = server_with_budget(64);
        let xs: Vec<Matrix> = (0..20)
            .map(|i| Matrix::from_fn(1, 16, |_, c| (i * 16 + c) as f64 / 320.0))
            .collect();
        let reqs = xs
            .iter()
            .map(|x| Request::new(path.clone(), Op::Reconstruct(x.clone())))
            .collect();
        let served = serve_paused(&server, reqs);
        // Each result is bit-identical to the direct call...
        for (x, got) in xs.iter().zip(served) {
            let want = direct.reconstruct(x).unwrap();
            assert_eq!(rows_bits(&got.unwrap()), rows_bits(&want));
        }
        // ...and all twenty ran as ONE forward pass.
        let stats = server.shutdown();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.requests, 20);
        assert_eq!(stats.rows, 20);
        assert_eq!(stats.largest_batch_requests, 20);
    }

    #[test]
    fn encode_decode_and_sample_round_trip_bit_identically() {
        let (path, mut direct) = published_model("ops.ckpt", 2);
        let server = server_with_budget(64);
        let x = Matrix::from_fn(3, 16, |r, c| ((r * 16 + c) as f64).sin());
        let z = Matrix::from_fn(2, direct.latent_dim(), |r, c| (r + c) as f64 * 0.1);
        let served = serve_paused(
            &server,
            vec![
                Request::new(path.clone(), Op::Encode(x.clone())),
                Request::new(path.clone(), Op::Sample { n: 2, seed: 11 }),
                Request::new(path.clone(), Op::Decode(z.clone())),
                Request::new(path, Op::Sample { n: 3, seed: 12 }),
            ],
        );
        let served: Vec<Vec<u64>> = served.into_iter().map(|r| rows_bits(&r.unwrap())).collect();
        assert_eq!(served[0], rows_bits(&direct.encode(&x).unwrap()));
        assert_eq!(served[2], rows_bits(&direct.decode(&z).unwrap()));
        // Coalesced samples equal direct per-seed sample() calls.
        let want_s1 = direct.sample(2, &mut StdRng::seed_from_u64(11)).unwrap();
        let want_s2 = direct.sample(3, &mut StdRng::seed_from_u64(12)).unwrap();
        assert_eq!(served[1], rows_bits(&want_s1));
        assert_eq!(served[3], rows_bits(&want_s2));
        // Mixed kinds cannot share a batch; the two samples can, even with
        // a decode queued between them.
        let stats = server.shutdown();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.largest_batch_requests, 2);
    }

    #[test]
    fn row_budget_splits_oversized_batches() {
        let (path, _) = published_model("budget.ckpt", 3);
        let server = server_with_budget(4);
        let reqs = (0..3)
            .map(|_| Request::new(path.clone(), Op::Reconstruct(Matrix::filled(3, 16, 0.2))))
            .collect();
        for got in serve_paused(&server, reqs) {
            assert_eq!(got.unwrap().shape(), (3, 16));
        }
        // 3 rows each, budget 4: no two requests fit together.
        let stats = server.shutdown();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.largest_batch_requests, 1);
    }

    #[test]
    fn models_stay_warm_across_batches() {
        let (path, mut direct) = published_model("warm.ckpt", 4);
        let server = server_with_budget(8);
        let sample = |seed| server.request(Request::new(path.clone(), Op::Sample { n: 1, seed }));
        sample(0).unwrap();
        // With the checkpoint gone from disk, only the warm registry can
        // answer the later batches.
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(format!("{path}.bak"));
        for seed in 1..3 {
            let want = direct.sample(1, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_eq!(rows_bits(&sample(seed).unwrap()), rows_bits(&want));
        }
        assert_eq!(server.shutdown().batches, 3);
        // A cold server cannot load it.
        let cold = server_with_budget(8);
        assert!(matches!(
            cold.request(Request::new(path, Op::Sample { n: 1, seed: 0 })),
            Err(ServeError::Checkpoint(_))
        ));
        cold.shutdown();
    }

    #[test]
    fn engine_surfaces_checkpoint_and_empty_errors() {
        let server = server_with_budget(8);
        let missing = Request::new(
            temp_path("does-not-exist.ckpt"),
            Op::Sample { n: 1, seed: 0 },
        );
        assert!(matches!(
            server.request(missing),
            Err(ServeError::Checkpoint(_))
        ));
        let err = server
            .submit(Request::new("x", Op::Sample { n: 0, seed: 0 }))
            .unwrap_err();
        assert_eq!(err, ServeError::EmptyRequest);
        assert_eq!(server.health().respawns, 0);
        server.shutdown();
    }

    #[test]
    fn bad_payload_fails_its_batch_without_poisoning_other_keys() {
        let (path, mut direct) = published_model("width.ckpt", 5);
        let server = server_with_budget(64);
        let x = Matrix::filled(1, 16, 0.3);
        // Wrong width: 16-feature model fed 8-wide rows. Different widths →
        // different batch keys → independent fates.
        let served = serve_paused(
            &server,
            vec![
                Request::new(path.clone(), Op::Reconstruct(Matrix::filled(1, 8, 0.1))),
                Request::new(path, Op::Reconstruct(x.clone())),
            ],
        );
        assert!(matches!(served[0], Err(ServeError::Model(_))));
        assert_eq!(
            rows_bits(served[1].as_ref().unwrap()),
            rows_bits(&direct.reconstruct(&x).unwrap())
        );
        server.shutdown();
    }

    #[test]
    fn requests_over_the_row_budget_are_refused_typed() {
        let (path, mut direct) = published_model("oversized.ckpt", 13);
        let server = server_with_budget(8);
        let refused = |rows: usize| ServeError::TooManyRows {
            rows,
            max_batch_rows: 8,
        };
        let wide = Matrix::filled(9, 16, 0.1);
        let latents = Matrix::filled(9, direct.latent_dim(), 0.1);
        let over = [
            (Op::Sample { n: 9, seed: 0 }, 9),
            (
                Op::Sample {
                    n: usize::MAX,
                    seed: 0,
                },
                usize::MAX,
            ),
            (Op::Encode(wide.clone()), 9),
            (Op::Decode(latents), 9),
            (Op::Reconstruct(wide), 9),
        ];
        for (op, rows) in over {
            let err = server.request(Request::new(path.clone(), op)).unwrap_err();
            assert_eq!(err, refused(rows));
            assert!(!err.is_retryable());
        }
        // At the budget, requests are still served bit-identically.
        let x = Matrix::from_fn(8, 16, |r, c| ((r * 16 + c) as f64).cos());
        let served = server
            .request(Request::new(path.clone(), Op::Reconstruct(x.clone())))
            .unwrap();
        assert_eq!(
            rows_bits(&served),
            rows_bits(&direct.reconstruct(&x).unwrap())
        );
        let sampled = server
            .request(Request::new(path, Op::Sample { n: 8, seed: 5 }))
            .unwrap();
        let want = direct.sample(8, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(rows_bits(&sampled), rows_bits(&want));
        let health = server.health();
        assert_eq!(health.respawns, 0);
        assert!(health.worker_alive);
        assert_eq!(server.shutdown().requests, 2);
    }

    #[test]
    #[should_panic(expected = "batch row budget must be positive")]
    fn a_zero_row_budget_is_refused_at_start() {
        let _ = server_with_budget(0);
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
    fn bounded_queue_backpressure_and_graceful_drain() {
        let (path, _) = published_model("backpressure.ckpt", 7);
        let server = InferenceServer::start(ServerConfig {
            capacity: 3,
            max_batch_rows: 64,
            ..ServerConfig::default()
        });
        // Paused server: accepted requests pile up deterministically.
        server.pause();
        let req = |seed: u64| Request::new(path.clone(), Op::Sample { n: 1, seed });
        let ids: Vec<u64> = (0..3).map(|s| server.submit(req(s)).unwrap()).collect();
        assert_eq!(
            server.submit(req(99)).unwrap_err(),
            ServeError::QueueFull { capacity: 3 }
        );
        // Graceful shutdown lifts the pause and drains all three accepted
        // requests before the engine exits.
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
        // Paused server: the request sits in-queue past its (already
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
        assert!(!ServeError::TooManyRows {
            rows: 2,
            max_batch_rows: 1
        }
        .is_retryable());
        assert!(!ServeError::UnknownTicket { id: 0 }.is_retryable());
        assert!(!ServeError::NonFinite { row: 0, col: 0 }.is_retryable());
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
