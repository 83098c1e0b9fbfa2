//! The synchronous batching core each pool worker owns: request queue,
//! coalescer, and warm-model registry.
//!
//! A [`BatchEngine`] is deliberately single-threaded — the pool in
//! [`crate::serve::InferenceServer`] provides the concurrency by running
//! one engine per worker — which keeps the coalescing logic deterministic
//! and directly testable. Because every model call is row-independent and
//! `sample` requests carry their own seeds, the bytes an engine produces
//! depend only on each request's payload, never on how requests were
//! batched or which engine ran them; that is what makes pool results
//! bit-identical across pool sizes.

use super::stats::EngineStats;
use super::{Op, Request, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_core::checkpoint::{self, RecoverySource};
use sqvae_core::Autoencoder;
use sqvae_nn::Matrix;
use std::collections::{HashMap, VecDeque};

/// Handle for retrieving one request's result from a [`BatchEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(pub(super) u64);

struct Job {
    ticket: Ticket,
    model: String,
    op: Op,
}

/// The synchronous batching core: queue, coalescer, and warm-model
/// registry. Single-threaded by design — [`crate::serve::InferenceServer`]
/// provides the concurrency wrapper, one engine per pool worker — which
/// keeps the coalescing logic deterministic and directly testable.
pub struct BatchEngine {
    models: HashMap<String, Autoencoder>,
    queue: VecDeque<Job>,
    results: HashMap<Ticket, Result<Matrix, ServeError>>,
    next_ticket: u64,
    max_batch_rows: usize,
    stats: EngineStats,
}

impl std::fmt::Debug for BatchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEngine")
            .field("warm_models", &self.models.len())
            .field("pending", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BatchEngine {
    /// An empty engine whose coalesced batches hold at most
    /// `max_batch_rows` rows. Each batch runs as one model call whose
    /// quantum layers fan the rows out on the shared compute pool
    /// ([`sqvae_nn::parallel`]); a pool call costs microseconds, so even a
    /// single-row batch pays no thread spawn.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch_rows == 0`.
    pub fn new(max_batch_rows: usize) -> Self {
        assert!(max_batch_rows > 0, "batch row budget must be positive");
        BatchEngine {
            models: HashMap::new(),
            queue: VecDeque::new(),
            results: HashMap::new(),
            next_ticket: 0,
            max_batch_rows,
            stats: EngineStats::default(),
        }
    }

    /// Queues a request; [`BatchEngine::drain`] (or repeated
    /// [`BatchEngine::process_next_batch`]) executes it.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyRequest`] when the request carries zero rows.
    pub fn submit(&mut self, req: Request) -> Result<Ticket, ServeError> {
        if req.op.rows() == 0 {
            return Err(ServeError::EmptyRequest);
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.queue.push_back(Job {
            ticket,
            model: req.model,
            op: req.op,
        });
        Ok(ticket)
    }

    /// Number of queued, not-yet-processed requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Removes and returns the result for `ticket`, if its batch has run.
    pub fn take_result(&mut self, ticket: Ticket) -> Option<Result<Matrix, ServeError>> {
        self.results.remove(&ticket)
    }

    /// Processes every queued request.
    pub fn drain(&mut self) {
        while !self.queue.is_empty() {
            self.process_next_batch();
        }
    }

    /// Coalesces the front request with every queued request sharing its
    /// (model, op kind, width) key — up to the row budget — and runs them
    /// as one batched forward pass. Returns the number of requests
    /// completed (0 when the queue is empty).
    pub fn process_next_batch(&mut self) -> usize {
        let Some(first) = self.queue.pop_front() else {
            return 0;
        };
        let key = (first.model.clone(), first.op.kind_and_width());
        let mut batch = vec![first];
        let mut rows = batch[0].op.rows();
        // Pull every same-key job that still fits the row budget; different
        // keys stay queued in order for later batches.
        let mut kept = VecDeque::with_capacity(self.queue.len());
        while let Some(job) = self.queue.pop_front() {
            let fits = rows + job.op.rows() <= self.max_batch_rows;
            if fits && job.model == key.0 && job.op.kind_and_width() == key.1 {
                rows += job.op.rows();
                batch.push(job);
            } else {
                kept.push_back(job);
            }
        }
        self.queue = kept;

        let completed = batch.len();
        self.stats.requests += completed;
        self.stats.largest_batch_requests = self.stats.largest_batch_requests.max(completed);
        match self.run_batch(&batch) {
            Ok(outputs) => {
                self.stats.batches += 1;
                self.stats.rows += rows;
                for (job, out) in batch.iter().zip(outputs) {
                    self.results.insert(job.ticket, Ok(out));
                }
            }
            Err(e) => {
                for job in &batch {
                    self.results.insert(job.ticket, Err(e.clone()));
                }
            }
        }
        completed
    }

    /// Runs one coalesced batch: stacks every job's rows, executes a single
    /// model pass, and splits the output back per job.
    fn run_batch(&mut self, batch: &[Job]) -> Result<Vec<Matrix>, ServeError> {
        let path = batch[0].model.clone();
        self.warm_up(&path)?;
        let model = self.models.get_mut(&path).expect("just warmed");

        // Per-request latent draws for Sample jobs: each consumes exactly
        // the RNG stream its direct `sample` call would, so only the decode
        // is shared.
        let inputs: Vec<Matrix> = batch
            .iter()
            .map(|job| match &job.op {
                Op::Encode(m) | Op::Decode(m) | Op::Reconstruct(m) => m.clone(),
                Op::Sample { n, seed } => {
                    model.sample_latent(*n, &mut StdRng::seed_from_u64(*seed))
                }
            })
            .collect();
        let stacked = Matrix::vstack(&inputs)?;
        let output = match &batch[0].op {
            Op::Encode(_) => model.encode(&stacked)?,
            Op::Decode(_) | Op::Sample { .. } => model.decode(&stacked)?,
            Op::Reconstruct(_) => model.reconstruct(&stacked)?,
        };

        let mut outputs = Vec::with_capacity(batch.len());
        let mut start = 0usize;
        for job in batch {
            let n = job.op.rows();
            outputs.push(Matrix::from_fn(n, output.cols(), |r, c| {
                output.get(start + r, c)
            }));
            start += n;
        }
        Ok(outputs)
    }

    /// Loads the checkpoint at `path` into the warm registry (no-op when
    /// already warm), recovering from the `.bak` generation if the primary
    /// file is corrupt. A respawned worker uses this to rebuild the dead
    /// generation's registry.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] when neither the primary nor the backup
    /// loads.
    pub fn warm_up(&mut self, path: &str) -> Result<(), ServeError> {
        if self.models.contains_key(path) {
            return Ok(());
        }
        let (model, source) = checkpoint::load_model_or_recover(path)
            .map_err(|e| ServeError::Checkpoint(e.to_string()))?;
        if source == RecoverySource::Backup {
            self.stats.checkpoint_recoveries += 1;
        }
        self.models.insert(path.to_string(), model);
        Ok(())
    }

    /// Number of models currently held warm.
    pub fn warm_models(&self) -> usize {
        self.models.len()
    }

    /// Checkpoint paths currently warm, sorted for determinism. The pool
    /// snapshots these so a respawned worker can rebuild its registry.
    pub fn warm_paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = self.models.keys().cloned().collect();
        paths.sort();
        paths
    }
}
