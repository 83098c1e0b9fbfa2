//! The serving engine: one supervised engine thread over one request
//! queue.
//!
//! The engine thread takes one coalesced batch at a time off the queue
//! ([`take_batch`]), runs it outside the lock on its warm-model
//! registry ([`BatchEngine`]), publishes the results, and takes the next
//! batch. The batch's rows fan out on the shared compute pool
//! ([`sqvae_nn::parallel`]), so the server adds no thread count of its own.
//!
//! * Deadlines are enforced in the queue (and in
//!   [`InferenceServer::wait`]).
//! * A panic fails exactly the batch in flight with
//!   [`ServeError::WorkerGone`]. Requests still queued wait for the
//!   generation the supervisor respawns on the next client call, whose
//!   warm registry is rebuilt from the dead generation's checkpoint paths.
//! * [`EngineStats::absorb`] totals the counters across batches and
//!   generations for [`InferenceServer::shutdown`].
//!
//! Waiters never poll: results are signalled through the `done` condvar,
//! and the engine sleeps on the `work` condvar.

use super::engine::{take_batch, BatchEngine, QueuedJob};
use super::stats::{EngineStats, ServerHealth};
use super::{Request, RetryPolicy, ServeError};
use sqvae_core::faults::{self, FaultPoint};
use sqvae_nn::{Matrix, Threads};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Always [`Threads::Off`], without reading the environment: the server
/// runs one engine thread, so there is no worker pool to size. It exists
/// only because the end-to-end benchmark in `perfbench/` prints it; delete
/// it once that print goes.
pub fn workers_from_env() -> Threads {
    Threads::Off
}

/// Configuration for [`InferenceServer::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum queued (accepted, not yet batched) requests before
    /// [`ServeError::QueueFull`] backpressure kicks in.
    pub capacity: usize,
    /// Row budget per coalesced batch. A request with more rows is refused
    /// with [`ServeError::TooManyRows`].
    pub max_batch_rows: usize,
    /// Deadline applied (from submission time) to requests that carry no
    /// [`Request::deadline`] of their own. `None` means such requests wait
    /// indefinitely.
    pub default_timeout: Option<Duration>,
    /// Retry policy for [`InferenceServer::request`].
    pub retry: RetryPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity: 256,
            max_batch_rows: 64,
            default_timeout: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Where the engine thread is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Running,
    /// Panicked and not yet respawned.
    Crashed,
    /// Drained the queue and exited at shutdown.
    Exited,
}

struct ServerState {
    queue: VecDeque<QueuedJob>,
    /// Ids of the batch the engine is running. A panic fails exactly these
    /// with [`ServeError::WorkerGone`].
    in_flight: Vec<u64>,
    results: HashMap<u64, Result<Matrix, ServeError>>,
    /// Issued, not-yet-consumed ids → effective deadline. Absence (and no
    /// queued result) means the id was never issued:
    /// [`ServeError::UnknownTicket`].
    outstanding: HashMap<u64, Option<Instant>>,
    /// Ids whose waiter gave up at the deadline while the engine held them;
    /// the engine discards their results instead of publishing.
    abandoned: HashSet<u64>,
    next_id: u64,
    paused: bool,
    shutting_down: bool,
    engine: Engine,
    /// Checkpoint paths the current generation holds warm; a respawned
    /// generation rebuilds its registry from these.
    warm_paths: Vec<String>,
    /// Times the supervisor respawned a crashed engine.
    respawns: u64,
    /// Requests that resolved with [`ServeError::DeadlineExceeded`].
    deadline_shed: u64,
    /// Counters of every finished batch, across generations.
    stats: EngineStats,
}

struct Shared {
    state: Mutex<ServerState>,
    /// Wakes the engine: new work, resume, shutdown.
    work_cv: Condvar,
    /// Wakes clients blocked on results.
    done_cv: Condvar,
}

/// Locks the server state, recovering from poisoning: a panic elsewhere
/// must not abort every subsequent client call. The state is kept
/// consistent across panics by [`PanicGuard`], so the recovered guard is
/// safe to use.
fn lock_state(shared: &Shared) -> MutexGuard<'_, ServerState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Publishes one result, honouring abandonment: a waiter that timed out
/// while the engine held the id has already consumed its error, so the
/// late result is dropped instead of leaking into `results`.
fn publish_result(state: &mut ServerState, id: u64, result: Result<Matrix, ServeError>) {
    if !state.abandoned.remove(&id) {
        state.results.insert(id, result);
    }
}

/// Fails queued requests whose deadline already passed (load-shedding
/// before they waste a batch slot) and wakes their waiters.
fn shed_expired(state: &mut ServerState, shared: &Shared) {
    let now = Instant::now();
    let mut expired = Vec::new();
    state.queue.retain(|job| match job.deadline {
        Some(d) if d <= now => {
            expired.push(job.id);
            false
        }
        _ => true,
    });
    if expired.is_empty() {
        return;
    }
    for id in expired {
        state.deadline_shed += 1;
        publish_result(state, id, Err(ServeError::DeadlineExceeded));
    }
    shared.done_cv.notify_all();
}

/// Runs on every exit path of the engine thread. On a panic (a model bug or
/// an injected [`FaultPoint::WorkerPanic`]) it restores the invariant that
/// every accepted request resolves: the batch in flight fails with
/// [`ServeError::WorkerGone`], the queue is left for the next generation,
/// and waiters wake to observe the crash immediately.
struct PanicGuard(Arc<Shared>);

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let mut state = lock_state(&self.0);
        state.engine = Engine::Crashed;
        for id in std::mem::take(&mut state.in_flight) {
            publish_result(&mut state, id, Err(ServeError::WorkerGone));
        }
        self.0.done_cv.notify_all();
    }
}

fn spawn_engine(shared: Arc<Shared>, max_batch_rows: usize) -> JoinHandle<()> {
    std::thread::spawn(move || run_engine(shared, max_batch_rows))
}

fn run_engine(shared: Arc<Shared>, max_batch_rows: usize) {
    let _guard = PanicGuard(Arc::clone(&shared));
    let mut engine = BatchEngine::default();
    // Respawn path: rebuild the warm registry the dead generation held.
    // Paths that no longer load are skipped here; requests that still
    // target them get the typed checkpoint error per batch.
    let warm = lock_state(&shared).warm_paths.clone();
    for path in &warm {
        let _ = engine.warm_up(path);
    }

    let mut state = lock_state(&shared);
    state.stats.absorb(engine.take_stats());
    loop {
        shed_expired(&mut state, &shared);
        if (state.queue.is_empty() || state.paused) && !state.shutting_down {
            // Sleep until new work, or until the earliest queued deadline,
            // so a paused or idle engine still sheds expired requests
            // promptly.
            let next_deadline = state.queue.iter().filter_map(|j| j.deadline).min();
            state = match next_deadline {
                Some(d) => {
                    let timeout = d.saturating_duration_since(Instant::now());
                    shared
                        .work_cv
                        .wait_timeout(state, timeout)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => shared
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
            continue;
        }
        if state.queue.is_empty() {
            break; // shutting down with nothing left to drain
        }
        // Run the batch without the lock, so clients keep submitting while
        // it executes. `in_flight` is the blast radius of a panic.
        let batch = take_batch(&mut state.queue, max_batch_rows);
        state.in_flight = batch.iter().map(|j| j.id).collect();
        drop(state);

        // Chaos hook: fires exactly where a real model panic would land,
        // with the batch in flight and the lock released.
        if faults::trigger(FaultPoint::WorkerPanic).is_some() {
            panic!("injected worker panic (sqvae::faults)");
        }
        let outcome = engine.run_batch(&batch);

        state = lock_state(&shared);
        state.in_flight.clear();
        match outcome {
            Ok(outputs) => {
                for (job, out) in batch.iter().zip(outputs) {
                    publish_result(&mut state, job.id, Ok(out));
                }
            }
            Err(e) => {
                for job in &batch {
                    publish_result(&mut state, job.id, Err(e.clone()));
                }
            }
        }
        state.stats.absorb(engine.take_stats());
        state.warm_paths = engine.warm_paths();
        shared.done_cv.notify_all();
    }
    state.engine = Engine::Exited;
    shared.done_cv.notify_all();
}

/// A supervised inference server: one engine thread coalescing batches off
/// one bounded request queue.
///
/// Submissions are bounded by [`ServerConfig::capacity`]. The engine takes
/// the front request plus every queued request sharing its (model, op
/// kind, width) key that still fits [`ServerConfig::max_batch_rows`], runs
/// them as one model call, and publishes the results. An engine panic fails
/// only the batch in flight ([`ServeError::WorkerGone`]); the supervisor
/// respawns the engine on the next client call with its warm-model
/// registry rebuilt from checkpoints. [`InferenceServer::shutdown`] drains
/// everything already accepted before the engine exits.
///
/// Every request's bytes depend only on its own payload (per-request sample
/// seeds included), never on batch composition.
pub struct InferenceServer {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
    config: ServerConfig,
}

impl std::fmt::Debug for InferenceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceServer")
            .field("config", &self.config)
            .finish()
    }
}

impl InferenceServer {
    /// Spawns the engine thread and returns the handle clients submit to.
    ///
    /// # Panics
    ///
    /// Panics when `config.max_batch_rows == 0`: no request could ever
    /// fit a batch.
    pub fn start(config: ServerConfig) -> Self {
        assert!(
            config.max_batch_rows > 0,
            "batch row budget must be positive"
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(ServerState {
                queue: VecDeque::new(),
                in_flight: Vec::new(),
                results: HashMap::new(),
                outstanding: HashMap::new(),
                abandoned: HashSet::new(),
                next_id: 0,
                paused: false,
                shutting_down: false,
                engine: Engine::Running,
                warm_paths: Vec::new(),
                respawns: 0,
                deadline_shed: 0,
                stats: EngineStats::default(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handle = spawn_engine(Arc::clone(&shared), config.max_batch_rows);
        InferenceServer {
            shared,
            handle: Mutex::new(Some(handle)),
            config,
        }
    }

    /// Respawns a crashed engine. Called by each client operation that
    /// needs a live engine, so the server heals on the next touch after a
    /// panic without a dedicated monitor thread. During shutdown the
    /// engine is only respawned when accepted work is left to drain.
    fn supervise(&self) {
        fn needs_respawn(state: &ServerState) -> bool {
            state.engine == Engine::Crashed && !(state.shutting_down && state.queue.is_empty())
        }
        if !needs_respawn(&lock_state(&self.shared)) {
            return;
        }
        // Lock order everywhere: handle, then state.
        let mut handle = self.handle.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let mut state = lock_state(&self.shared);
            if !needs_respawn(&state) {
                return;
            }
            state.engine = Engine::Running;
            state.respawns += 1;
        }
        if let Some(dead) = handle.take() {
            let _ = dead.join(); // dead thread: returns immediately
        }
        *handle = Some(spawn_engine(
            Arc::clone(&self.shared),
            self.config.max_batch_rows,
        ));
    }

    /// Joins the engine thread, if one is running.
    fn join_engine(&self) {
        let handle = self
            .handle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Queues a request, returning an id for [`InferenceServer::wait`].
    /// The effective deadline — [`Request::deadline`] or submission time +
    /// [`ServerConfig::default_timeout`] — is fixed here.
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyRequest`] for zero-row payloads,
    /// [`ServeError::TooManyRows`] for payloads over
    /// [`ServerConfig::max_batch_rows`] and [`ServeError::NonFinite`] for
    /// payloads holding a NaN or an infinity (all rejected eagerly, before
    /// a queue slot or an allocation), [`ServeError::QueueFull`] when the
    /// bounded queue is at capacity (backpressure — retry later), and
    /// [`ServeError::ShuttingDown`] after [`InferenceServer::shutdown`]
    /// began.
    pub fn submit(&self, req: Request) -> Result<u64, ServeError> {
        let rows = req.op.rows();
        if rows == 0 {
            return Err(ServeError::EmptyRequest);
        }
        if rows > self.config.max_batch_rows {
            return Err(ServeError::TooManyRows {
                rows,
                max_batch_rows: self.config.max_batch_rows,
            });
        }
        if let Some((row, col)) = req.op.first_non_finite() {
            return Err(ServeError::NonFinite { row, col });
        }
        self.supervise();
        // Chaos hook: models a burst that saturated the queue before us.
        if faults::trigger(FaultPoint::QueueSaturation).is_some() {
            return Err(ServeError::QueueFull {
                capacity: self.config.capacity,
            });
        }
        let mut state = lock_state(&self.shared);
        if state.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if state.queue.len() >= self.config.capacity {
            return Err(ServeError::QueueFull {
                capacity: self.config.capacity,
            });
        }
        let id = state.next_id;
        state.next_id += 1;
        let deadline = req
            .deadline
            .or_else(|| self.config.default_timeout.map(|t| Instant::now() + t));
        state.outstanding.insert(id, deadline);
        state.queue.push_back(QueuedJob { id, req, deadline });
        self.shared.work_cv.notify_one();
        Ok(id)
    }

    /// Blocks until the request behind `id` completes and returns its
    /// result. A result already published returns at once; otherwise a
    /// crashed engine is respawned first. Never blocks past the request's
    /// deadline, and never blocks at all for ids the server did not issue.
    /// Completion is signalled through a condvar — no polling, so latency
    /// is not quantized by any sleep interval.
    ///
    /// # Errors
    ///
    /// The request's own failure, [`ServeError::WorkerGone`] when the
    /// engine died holding it (or could not be respawned),
    /// [`ServeError::DeadlineExceeded`] past the deadline, or
    /// [`ServeError::UnknownTicket`] for ids never issued or already
    /// consumed.
    pub fn wait(&self, id: u64) -> Result<Matrix, ServeError> {
        let mut state = lock_state(&self.shared);
        loop {
            if let Some(result) = state.results.remove(&id) {
                state.outstanding.remove(&id);
                return result;
            }
            let Some(&deadline) = state.outstanding.get(&id) else {
                return Err(ServeError::UnknownTicket { id });
            };
            match state.engine {
                Engine::Running => {}
                Engine::Crashed => {
                    drop(state);
                    self.supervise();
                    state = lock_state(&self.shared);
                    if state.engine == Engine::Running {
                        continue; // healed: re-check results immediately
                    }
                    // The respawn was declined (shutdown with nothing
                    // queued), so nothing can resolve this ticket any more.
                    state.outstanding.remove(&id);
                    return state
                        .results
                        .remove(&id)
                        .unwrap_or(Err(ServeError::WorkerGone));
                }
                Engine::Exited => {
                    // Clean exit with the ticket unresolved (shutdown raced
                    // the waiter).
                    state.outstanding.remove(&id);
                    return Err(ServeError::WorkerGone);
                }
            }
            state = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if d <= now {
                        // Give up: cancel if still queued; if the engine
                        // already holds it, mark it abandoned so the late
                        // result is discarded rather than leaked.
                        if state.in_flight.contains(&id) {
                            state.abandoned.insert(id);
                        } else {
                            state.queue.retain(|j| j.id != id);
                        }
                        state.outstanding.remove(&id);
                        state.deadline_shed += 1;
                        return Err(ServeError::DeadlineExceeded);
                    }
                    self.shared
                        .done_cv
                        .wait_timeout(state, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .shared
                    .done_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Submit + wait in one blocking call, retrying retryable errors
    /// ([`ServeError::is_retryable`]) per [`ServerConfig::retry`] with
    /// exponential backoff. A [`Request::deadline`] is absolute: the whole
    /// retry loop shares one budget.
    ///
    /// # Errors
    ///
    /// See [`InferenceServer::submit`] and [`InferenceServer::wait`]; the
    /// last error once attempts are exhausted.
    pub fn request(&self, req: Request) -> Result<Matrix, ServeError> {
        let policy = self.config.retry;
        let attempts = policy.max_attempts.max(1);
        let mut failures = 0u32;
        loop {
            let outcome = self.submit(req.clone()).and_then(|id| self.wait(id));
            match outcome {
                Err(e) if e.is_retryable() && failures + 1 < attempts => {
                    failures += 1;
                    std::thread::sleep(policy.delay(failures));
                }
                other => return other,
            }
        }
    }

    /// Stops the engine from taking new batches (a running batch
    /// finishes). Accepted requests keep queuing until the bounded queue
    /// fills, at which point submissions see [`ServeError::QueueFull`] —
    /// the maintenance lever for load-shedding upstream. Deadlines keep
    /// being enforced while paused.
    pub fn pause(&self) {
        lock_state(&self.shared).paused = true;
    }

    /// Resumes batch processing after [`InferenceServer::pause`].
    pub fn resume(&self) {
        lock_state(&self.shared).paused = false;
        self.shared.work_cv.notify_one();
    }

    /// Liveness counters: engine status, respawns, deadline sheds, queue
    /// depth.
    pub fn health(&self) -> ServerHealth {
        let state = lock_state(&self.shared);
        ServerHealth {
            worker_alive: state.engine == Engine::Running,
            respawns: state.respawns,
            deadline_shed: state.deadline_shed,
            pending: state.queue.len(),
        }
    }

    /// Graceful shutdown: stops accepting new work, drains every accepted
    /// request (pause is lifted), joins the engine, and returns counters
    /// totalled across all batches and generations. If the engine crashes
    /// while draining, it is respawned until the queue empties; each crash
    /// fails only its own batch.
    pub fn shutdown(self) -> EngineStats {
        loop {
            self.supervise();
            self.begin_shutdown();
            self.join_engine();
            let state = lock_state(&self.shared);
            if state.engine != Engine::Crashed || state.queue.is_empty() {
                return state.stats;
            }
            // Crashed mid-drain: respawn and keep draining.
        }
    }

    pub(super) fn begin_shutdown(&self) {
        let mut state = lock_state(&self.shared);
        state.shutting_down = true;
        state.paused = false;
        self.shared.work_cv.notify_all();
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        self.begin_shutdown();
        self.join_engine();
    }
}
