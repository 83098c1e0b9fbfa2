//! Observability counters for the serving stack: the engine's work counters
//! ([`EngineStats`], totalled across batches and engine generations via
//! [`EngineStats::absorb`]) and the server's liveness snapshot
//! ([`ServerHealth`]).

/// Counters describing what the engine did, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests completed (successfully or with an error).
    pub requests: usize,
    /// Model forward passes executed. `requests > batches` means
    /// coalescing merged work.
    pub batches: usize,
    /// Total rows pushed through model forward passes.
    pub rows: usize,
    /// Largest number of requests merged into one batch.
    pub largest_batch_requests: usize,
    /// Model loads that had to fall back to a checkpoint's `.bak`
    /// generation because the primary file was corrupt or missing.
    pub checkpoint_recoveries: usize,
}

impl EngineStats {
    /// Folds another set of counters into this one. The server uses this
    /// to total each batch's counters across engine respawns; counts add,
    /// the largest-batch high-water mark takes the max.
    pub fn absorb(&mut self, other: EngineStats) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.rows += other.rows;
        self.largest_batch_requests = self
            .largest_batch_requests
            .max(other.largest_batch_requests);
        self.checkpoint_recoveries += other.checkpoint_recoveries;
    }
}

/// A snapshot of the server's liveness counters (see
/// [`crate::serve::InferenceServer::health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerHealth {
    /// The engine thread is currently running.
    pub worker_alive: bool,
    /// Times the supervisor respawned a crashed engine thread.
    pub respawns: u64,
    /// Requests that resolved with
    /// [`crate::serve::ServeError::DeadlineExceeded`].
    pub deadline_shed: u64,
    /// Accepted requests not yet taken into a batch.
    pub pending: usize,
}
