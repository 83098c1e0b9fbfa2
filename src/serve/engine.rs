//! The serving engine's two halves: the coalescing rule over the server's
//! queue ([`take_batch`]) and the warm-model registry that runs one batch
//! at a time ([`BatchEngine`]).
//!
//! The engine thread in [`crate::serve::InferenceServer`] owns one
//! [`BatchEngine`]. Because every model call is row-independent and
//! `sample` requests carry their own seeds, the bytes a batch returns for a
//! request depend only on that request's payload, never on what it was
//! batched with.

use super::stats::EngineStats;
use super::{Op, Request, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_core::checkpoint::{self, RecoverySource};
use sqvae_core::Autoencoder;
use sqvae_nn::Matrix;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// An accepted request with its server-assigned id and effective deadline
/// (the request's own, or submission time + the default timeout).
pub(super) struct QueuedJob {
    pub(super) id: u64,
    pub(super) req: Request,
    pub(super) deadline: Option<Instant>,
}

/// Removes the next batch from `queue`: the front job plus every queued job
/// sharing its (model, op kind, width) key whose rows still fit
/// `max_batch_rows`. Jobs with other keys keep their order for later
/// batches.
pub(super) fn take_batch(queue: &mut VecDeque<QueuedJob>, max_batch_rows: usize) -> Vec<QueuedJob> {
    let Some(first) = queue.pop_front() else {
        return Vec::new();
    };
    let key = (first.req.model.clone(), first.req.op.kind_and_width());
    let mut rows = first.req.op.rows();
    let mut batch = vec![first];
    let mut kept = VecDeque::with_capacity(queue.len());
    for job in queue.drain(..) {
        let fits = job.req.op.rows() <= max_batch_rows.saturating_sub(rows);
        if fits && job.req.model == key.0 && job.req.op.kind_and_width() == key.1 {
            rows += job.req.op.rows();
            batch.push(job);
        } else {
            kept.push_back(job);
        }
    }
    *queue = kept;
    batch
}

/// The warm-model registry, keyed by checkpoint path, and the batch runner.
#[derive(Default)]
pub(super) struct BatchEngine {
    models: HashMap<String, Autoencoder>,
    /// Counters since the last [`BatchEngine::take_stats`].
    stats: EngineStats,
}

impl BatchEngine {
    /// Runs one coalesced batch (all jobs share one key): stacks every
    /// job's rows, executes a single model call whose quantum layers fan
    /// the rows out on the shared compute pool ([`sqvae_nn::parallel`]),
    /// and splits the output back per job.
    ///
    /// # Errors
    ///
    /// The checkpoint or model error, shared by every job of the batch.
    pub(super) fn run_batch(&mut self, batch: &[QueuedJob]) -> Result<Vec<Matrix>, ServeError> {
        let rows: usize = batch.iter().map(|job| job.req.op.rows()).sum();
        self.stats.requests += batch.len();
        self.stats.largest_batch_requests = self.stats.largest_batch_requests.max(batch.len());
        let path = &batch[0].req.model;
        self.warm_up(path)?;
        let model = self.models.get_mut(path).expect("just warmed");

        // Per-request latent draws for Sample jobs: each consumes exactly
        // the RNG stream its direct `sample` call would, so only the decode
        // is shared.
        let inputs: Vec<Matrix> = batch
            .iter()
            .map(|job| match &job.req.op {
                Op::Encode(m) | Op::Decode(m) | Op::Reconstruct(m) => m.clone(),
                Op::Sample { n, seed } => {
                    model.sample_latent(*n, &mut StdRng::seed_from_u64(*seed))
                }
            })
            .collect();
        let stacked = Matrix::vstack(&inputs)?;
        let output = match &batch[0].req.op {
            Op::Encode(_) => model.encode(&stacked)?,
            Op::Decode(_) | Op::Sample { .. } => model.decode(&stacked)?,
            Op::Reconstruct(_) => model.reconstruct(&stacked)?,
        };
        self.stats.batches += 1;
        self.stats.rows += rows;

        let mut outputs = Vec::with_capacity(batch.len());
        let mut start = 0usize;
        for job in batch {
            let n = job.req.op.rows();
            outputs.push(Matrix::from_fn(n, output.cols(), |r, c| {
                output.get(start + r, c)
            }));
            start += n;
        }
        Ok(outputs)
    }

    /// Loads the checkpoint at `path` into the warm registry (no-op when
    /// already warm), recovering from the `.bak` generation if the primary
    /// file is corrupt. A respawned engine uses this to rebuild the dead
    /// generation's registry.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] when neither the primary nor the backup
    /// loads.
    pub(super) fn warm_up(&mut self, path: &str) -> Result<(), ServeError> {
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

    /// Checkpoint paths currently warm. The server snapshots these so a
    /// respawned engine can rebuild its registry.
    pub(super) fn warm_paths(&self) -> Vec<String> {
        self.models.keys().cloned().collect()
    }

    /// Returns the counters gathered since the last call and resets them.
    pub(super) fn take_stats(&mut self) -> EngineStats {
        std::mem::take(&mut self.stats)
    }
}
