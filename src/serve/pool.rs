//! The multi-worker serving engine: a pool of supervised worker threads,
//! each owning a [`BatchEngine`] with its own warm-model registry replica,
//! fed by the sharded dispatcher in [`super::dispatch`].
//!
//! Every PR 8 robustness contract holds **per worker**:
//!
//! * deadlines are enforced in each worker's queue (and in
//!   [`InferenceServer::wait`]);
//! * a panic kills exactly one worker — only the tickets *it* held in
//!   flight fail with [`ServeError::WorkerGone`], its queued-but-unstolen
//!   requests survive, and the supervisor respawns that member
//!   independently on the next client call (warm registry rebuilt from its
//!   checkpoint paths);
//! * [`EngineStats::absorb`] folds counters across worker generations
//!   *and* across pool members, so [`InferenceServer::shutdown`] and
//!   [`InferenceServer::health`] report pool-wide totals.
//!
//! Waiters never poll: ticket completion is signalled through a shared
//! `done` condvar, and each worker sleeps on its **own** `work` condvar so
//! a submission wakes exactly the worker it was routed to.

use super::dispatch;
use super::engine::BatchEngine;
use super::stats::{EngineStats, ServerHealth};
use super::{Request, RetryPolicy, ServeError};
use sqvae_core::faults::{self, FaultPoint};
use sqvae_nn::{Matrix, Threads};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Name of the environment variable that sets the default pool size (same
/// grammar as `SQVAE_THREADS`: `auto`, `off`, or a positive count).
pub const WORKERS_ENV_VAR: &str = "SQVAE_WORKERS";

/// Reads the default worker-pool policy from `SQVAE_WORKERS`: unset or
/// `auto` → [`Threads::Auto`] (one worker per available CPU); `0` or `off`
/// → a single worker; `n` → exactly `n` workers. Unparseable values warn
/// once on stderr and fall back to `auto` (matching the `SQVAE_THREADS` /
/// `SQVAE_BACKEND` typo policy).
pub fn workers_from_env() -> Threads {
    match std::env::var(WORKERS_ENV_VAR) {
        Ok(v) => v.parse().unwrap_or_else(|err: String| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!("warning: {WORKERS_ENV_VAR}: {err}; falling back to 'auto'");
            });
            Threads::Auto
        }),
        Err(_) => Threads::Auto,
    }
}

/// Configuration for [`InferenceServer::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum queued (accepted, unprocessed) requests — summed across the
    /// whole pool — before [`ServeError::QueueFull`] backpressure kicks in.
    pub capacity: usize,
    /// Row budget per coalesced batch (see [`BatchEngine::new`]).
    pub max_batch_rows: usize,
    /// Deadline applied (from submission time) to requests that carry no
    /// [`Request::deadline`] of their own. `None` means such requests wait
    /// indefinitely.
    pub default_timeout: Option<Duration>,
    /// Retry policy for [`InferenceServer::request`].
    pub retry: RetryPolicy,
    /// Worker-pool size policy. Defaults to the `SQVAE_WORKERS` environment
    /// variable ([`workers_from_env`]), which itself defaults to
    /// [`Threads::Auto`] — one worker per available CPU.
    pub workers: Threads,
    /// Queue depth at which a request's home shard is considered "deep" and
    /// the dispatcher spills the request to the least-loaded worker instead
    /// (see [`super::dispatch`]). Values `<= 1` spill on any imbalance;
    /// very large values pin requests to their shard.
    pub spill_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity: 256,
            max_batch_rows: 64,
            default_timeout: None,
            retry: RetryPolicy::default(),
            workers: workers_from_env(),
            spill_depth: 8,
        }
    }
}

/// An accepted request with its server-assigned id and effective deadline
/// (the request's own, or submission time + default timeout).
struct QueuedJob {
    id: u64,
    req: Request,
    deadline: Option<Instant>,
}

/// Per-worker mutable state: its queue, blast radius, and live counters.
#[derive(Default)]
struct WorkerSlot {
    queue: VecDeque<QueuedJob>,
    /// Ids this worker has stolen and not yet resolved. A panic fails
    /// exactly these with [`ServeError::WorkerGone`].
    in_flight: Vec<u64>,
    /// Checkpoint paths this worker's current generation holds warm; a
    /// respawned generation rebuilds its registry from these.
    warm_paths: Vec<String>,
    /// Live counters of the current generation.
    stats_live: EngineStats,
    /// The worker thread is running (spawned and neither exited nor
    /// crashed).
    alive: bool,
    /// The worker panicked and has not been respawned yet.
    crashed: bool,
}

struct PoolState {
    workers: Vec<WorkerSlot>,
    results: HashMap<u64, Result<Matrix, ServeError>>,
    /// Issued, not-yet-consumed ids → effective deadline. Absence (and no
    /// queued result) means the id was never issued:
    /// [`ServeError::UnknownTicket`].
    outstanding: HashMap<u64, Option<Instant>>,
    /// Ids whose waiter gave up at the deadline while a worker held them;
    /// the worker discards their results instead of publishing.
    abandoned: HashSet<u64>,
    next_id: u64,
    paused: bool,
    shutting_down: bool,
    /// Times the supervisor respawned a crashed worker (pool-wide).
    respawns: u64,
    /// Requests that resolved with [`ServeError::DeadlineExceeded`].
    deadline_shed: u64,
    /// Counters folded in from finished worker generations (pool-wide).
    stats_done: EngineStats,
}

impl PoolState {
    fn new(n_workers: usize) -> Self {
        PoolState {
            workers: (0..n_workers)
                .map(|_| WorkerSlot {
                    alive: true,
                    ..WorkerSlot::default()
                })
                .collect(),
            results: HashMap::new(),
            outstanding: HashMap::new(),
            abandoned: HashSet::new(),
            next_id: 0,
            paused: false,
            shutting_down: false,
            respawns: 0,
            deadline_shed: 0,
            stats_done: EngineStats::default(),
        }
    }

    /// Accepted, unprocessed requests across the whole pool.
    fn pending(&self) -> usize {
        self.workers.iter().map(|s| s.queue.len()).sum()
    }
}

struct Shared {
    state: Mutex<PoolState>,
    /// One wake channel per worker (new work for *that* worker, resume,
    /// shutdown), so a submission never wakes the rest of the pool.
    work_cvs: Vec<Condvar>,
    /// Wakes clients blocked on results.
    done_cv: Condvar,
}

/// Locks the pool state, recovering from poisoning: a panic elsewhere must
/// not abort every subsequent client call. The state is kept consistent
/// across panics by [`PanicGuard`], so the recovered guard is safe to use.
fn lock_state(shared: &Shared) -> MutexGuard<'_, PoolState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fails worker `w`'s queued requests whose deadline already passed
/// (load-shedding before they waste a batch slot) and wakes their waiters.
fn shed_expired(state: &mut PoolState, shared: &Shared, w: usize) {
    let now = Instant::now();
    let mut shed_any = false;
    let mut kept = VecDeque::with_capacity(state.workers[w].queue.len());
    let drained: Vec<QueuedJob> = state.workers[w].queue.drain(..).collect();
    for job in drained {
        match job.deadline {
            Some(d) if d <= now => {
                state.deadline_shed += 1;
                shed_any = true;
                if !state.abandoned.remove(&job.id) {
                    state
                        .results
                        .insert(job.id, Err(ServeError::DeadlineExceeded));
                }
            }
            _ => kept.push_back(job),
        }
    }
    state.workers[w].queue = kept;
    if shed_any {
        shared.done_cv.notify_all();
    }
}

/// Publishes one result, honouring abandonment: a waiter that timed out
/// while a worker held the id has already consumed its error, so the late
/// result is dropped instead of leaking into `results`.
fn publish_result(state: &mut PoolState, id: u64, result: Result<Matrix, ServeError>) {
    if state.abandoned.remove(&id) {
        return;
    }
    state.results.insert(id, result);
}

/// Whether an outstanding ticket is still held somewhere that can resolve
/// it: a published result, some worker's queue, or some worker's in-flight
/// set. An outstanding ticket held nowhere can never resolve.
fn ticket_reachable(state: &PoolState, id: u64) -> bool {
    state.results.contains_key(&id)
        || state
            .workers
            .iter()
            .any(|s| s.in_flight.contains(&id) || s.queue.iter().any(|j| j.id == id))
}

/// Runs on every exit path of worker `worker`. On a panic (a model bug or
/// an injected [`FaultPoint::WorkerPanic`]) it restores the invariant that
/// every accepted request resolves: all of *this worker's* in-flight ids
/// fail with [`ServeError::WorkerGone`] — other pool members are untouched
/// — its counters fold into the pool total, and the condvars wake so
/// waiters observe the crash immediately.
struct PanicGuard {
    shared: Arc<Shared>,
    worker: usize,
}

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let mut state = lock_state(&self.shared);
        let slot = &mut state.workers[self.worker];
        let in_flight = std::mem::take(&mut slot.in_flight);
        let live = std::mem::take(&mut slot.stats_live);
        slot.alive = false;
        slot.crashed = true;
        for id in in_flight {
            if state.abandoned.remove(&id) {
                continue; // waiter already gave up at its deadline
            }
            state.results.insert(id, Err(ServeError::WorkerGone));
        }
        state.stats_done.absorb(live);
        self.shared.done_cv.notify_all();
        self.shared.work_cvs[self.worker].notify_all();
    }
}

fn spawn_worker(shared: Arc<Shared>, w: usize, max_batch_rows: usize) -> JoinHandle<()> {
    std::thread::spawn(move || run_worker(shared, w, max_batch_rows))
}

fn run_worker(shared: Arc<Shared>, w: usize, max_batch_rows: usize) {
    let _guard = PanicGuard {
        shared: Arc::clone(&shared),
        worker: w,
    };
    let mut engine = BatchEngine::new(max_batch_rows);
    // Respawn path: rebuild the warm registry the dead generation held.
    // Paths that no longer load are skipped here; requests that still
    // target them get the typed checkpoint error per batch.
    let warm: Vec<String> = lock_state(&shared).workers[w].warm_paths.clone();
    for path in &warm {
        let _ = engine.warm_up(path);
    }

    let mut state = lock_state(&shared);
    loop {
        shed_expired(&mut state, &shared, w);
        if (state.workers[w].queue.is_empty() || state.paused) && !state.shutting_down {
            // Sleep until new work — or until this worker's earliest queued
            // deadline, so paused/idle workers still shed expired requests
            // promptly.
            let next_deadline = state.workers[w]
                .queue
                .iter()
                .filter_map(|j| j.deadline)
                .min();
            state = match next_deadline {
                Some(d) => {
                    let now = Instant::now();
                    if d <= now {
                        continue; // shed on the next loop iteration
                    }
                    let (guard, _) = shared.work_cvs[w]
                        .wait_timeout(state, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    guard
                }
                None => shared.work_cvs[w]
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
            continue;
        }
        if state.workers[w].queue.is_empty() && state.shutting_down {
            break;
        }
        // Steal this worker's queue and run it without the lock, so clients
        // keep submitting (and other workers keep serving) while the batch
        // executes. `in_flight` records the stolen ids: they are the blast
        // radius if this worker panics mid-batch.
        let stolen: Vec<QueuedJob> = state.workers[w].queue.drain(..).collect();
        state.workers[w].in_flight = stolen.iter().map(|j| j.id).collect();
        drop(state);

        // Chaos hook: fires exactly where a real model panic would land —
        // after stealing, with tickets in flight and the lock released. The
        // worker index gives the injector an independent stream per pool
        // member, and lets a filtered plan kill exactly one of them.
        if faults::trigger_for(FaultPoint::WorkerPanic, Some(w)).is_some() {
            panic!("injected worker panic (sqvae::faults)");
        }

        let mut tickets = Vec::with_capacity(stolen.len());
        let mut rejected = Vec::new();
        for job in stolen {
            match engine.submit(job.req) {
                Ok(t) => tickets.push((job.id, t)),
                Err(e) => rejected.push((job.id, e)),
            }
        }
        engine.drain();

        state = lock_state(&shared);
        state.workers[w].in_flight.clear();
        for (id, t) in tickets {
            let result = engine
                .take_result(t)
                .expect("drained engine has every result");
            publish_result(&mut state, id, result);
        }
        for (id, e) in rejected {
            publish_result(&mut state, id, Err(e));
        }
        state.workers[w].warm_paths = engine.warm_paths();
        state.workers[w].stats_live = engine.stats();
        shared.done_cv.notify_all();
    }
    // Clean exit: fold this generation's counters into the pool total.
    state.stats_done.absorb(engine.stats());
    state.workers[w].stats_live = EngineStats::default();
    state.workers[w].alive = false;
    shared.done_cv.notify_all();
}

/// A pool of supervised worker threads serving batched inference, each over
/// its own [`BatchEngine`].
///
/// Submissions are bounded pool-wide by [`ServerConfig::capacity`] and
/// routed by the sharded dispatcher (see [`super::dispatch`]): requests
/// sharing a coalescing key land on the same worker so batching stays
/// effective, spilling to the least-loaded worker when the home shard's
/// queue is deep. Each worker steals its own queue at once, coalesces it,
/// runs it, and publishes results. A worker panic fails only the tickets
/// *that worker* held in flight ([`ServeError::WorkerGone`]); the
/// supervisor respawns crashed members independently on the next client
/// call with their warm-model registries rebuilt from checkpoints.
/// [`InferenceServer::shutdown`] drains everything already accepted before
/// the pool exits.
///
/// Results are bit-identical for any pool size: every request's bytes
/// depend only on its own payload (per-request sample seeds included),
/// never on batch composition or worker placement.
pub struct InferenceServer {
    shared: Arc<Shared>,
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    config: ServerConfig,
    pool_size: usize,
}

impl std::fmt::Debug for InferenceServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceServer")
            .field("capacity", &self.config.capacity)
            .field("workers", &self.pool_size)
            .finish()
    }
}

impl InferenceServer {
    /// Spawns the worker pool and returns the handle clients submit to.
    pub fn start(config: ServerConfig) -> Self {
        let pool_size = config.workers.resolve(usize::MAX);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState::new(pool_size)),
            work_cvs: (0..pool_size).map(|_| Condvar::new()).collect(),
            done_cv: Condvar::new(),
        });
        let handles = (0..pool_size)
            .map(|w| Some(spawn_worker(Arc::clone(&shared), w, config.max_batch_rows)))
            .collect();
        InferenceServer {
            shared,
            handles: Mutex::new(handles),
            config,
            pool_size,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.pool_size
    }

    /// Respawns every crashed worker. Called at the entry of each client
    /// operation, so the pool heals on the next touch after a panic without
    /// a dedicated monitor thread — and each member independently: one
    /// crash never restarts its siblings. During shutdown a member is only
    /// respawned when it still has accepted work to drain.
    fn supervise(&self) {
        fn respawn_set(state: &PoolState) -> Vec<usize> {
            state
                .workers
                .iter()
                .enumerate()
                .filter(|(_, s)| s.crashed && (!state.shutting_down || !s.queue.is_empty()))
                .map(|(w, _)| w)
                .collect()
        }
        if respawn_set(&lock_state(&self.shared)).is_empty() {
            return;
        }
        // Lock order everywhere: handle slots, then state.
        let mut slots = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        let to_spawn = {
            let mut state = lock_state(&self.shared);
            let ws = respawn_set(&state);
            for &w in &ws {
                state.workers[w].crashed = false;
                state.workers[w].alive = true;
                state.respawns += 1;
            }
            ws
        };
        for w in to_spawn {
            if let Some(handle) = slots[w].take() {
                let _ = handle.join(); // dead thread: returns immediately
            }
            slots[w] = Some(spawn_worker(
                Arc::clone(&self.shared),
                w,
                self.config.max_batch_rows,
            ));
        }
    }

    /// Queues a request, returning an id for [`InferenceServer::wait`].
    /// The effective deadline — [`Request::deadline`] or submission time +
    /// [`ServerConfig::default_timeout`] — is fixed here, and the dispatcher
    /// routes the request to its home shard (spilling to the least-loaded
    /// worker when that shard's queue is deep).
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the pool-wide bounded queue is at
    /// capacity (backpressure — retry later), [`ServeError::ShuttingDown`]
    /// after [`InferenceServer::shutdown`] began, [`ServeError::EmptyRequest`]
    /// for zero-row payloads (rejected eagerly, not worth a queue slot).
    pub fn submit(&self, req: Request) -> Result<u64, ServeError> {
        if req.op.rows() == 0 {
            return Err(ServeError::EmptyRequest);
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
        if state.pending() >= self.config.capacity {
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
        let depths: Vec<usize> = state.workers.iter().map(|s| s.queue.len()).collect();
        let target = dispatch::route(&req.model, &req.op, &depths, self.config.spill_depth);
        state.workers[target]
            .queue
            .push_back(QueuedJob { id, req, deadline });
        self.shared.work_cvs[target].notify_one();
        Ok(id)
    }

    /// Blocks until the request behind `id` completes and returns its
    /// result. Never blocks past the request's deadline, and never blocks
    /// at all for ids the server did not issue. Completion is signalled
    /// through a condvar — no polling, so latency is not quantized by any
    /// sleep interval.
    ///
    /// # Errors
    ///
    /// The request's own failure, [`ServeError::WorkerGone`] when the
    /// worker holding it died (and could not be respawned),
    /// [`ServeError::DeadlineExceeded`] past the deadline, or
    /// [`ServeError::UnknownTicket`] for ids never issued or already
    /// consumed.
    pub fn wait(&self, id: u64) -> Result<Matrix, ServeError> {
        self.supervise();
        let mut state = lock_state(&self.shared);
        loop {
            if let Some(result) = state.results.remove(&id) {
                state.outstanding.remove(&id);
                return result;
            }
            let Some(&deadline) = state.outstanding.get(&id) else {
                return Err(ServeError::UnknownTicket { id });
            };
            if state.workers.iter().any(|s| s.crashed) {
                drop(state);
                self.supervise();
                state = lock_state(&self.shared);
                if state.workers.iter().any(|s| s.crashed) {
                    // Some member's respawn was declined (shutdown with
                    // nothing of its own to drain). A ticket held nowhere
                    // can never resolve: fail it typed. Tickets held by
                    // surviving members keep waiting below.
                    if !ticket_reachable(&state, id) {
                        state.outstanding.remove(&id);
                        return Err(ServeError::WorkerGone);
                    }
                } else {
                    continue; // pool healed: re-check results immediately
                }
            } else if state.workers.iter().all(|s| !s.alive) {
                // Clean pool exit with the ticket unresolved (shutdown
                // raced the waiter).
                state.outstanding.remove(&id);
                return Err(ServeError::WorkerGone);
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if d <= now {
                        // Give up: cancel if still queued; if a worker
                        // already holds it, mark it abandoned so the late
                        // result is discarded rather than leaked.
                        let mut was_queued = false;
                        for slot in &mut state.workers {
                            let before = slot.queue.len();
                            slot.queue.retain(|j| j.id != id);
                            was_queued |= slot.queue.len() != before;
                        }
                        if !was_queued && state.workers.iter().any(|s| s.in_flight.contains(&id)) {
                            state.abandoned.insert(id);
                        }
                        state.outstanding.remove(&id);
                        state.deadline_shed += 1;
                        return Err(ServeError::DeadlineExceeded);
                    }
                    let (guard, _) = self
                        .shared
                        .done_cv
                        .wait_timeout(state, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = guard;
                }
                None => {
                    state = self
                        .shared
                        .done_cv
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
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

    /// Stops every worker from picking up new batches (already-running work
    /// finishes). Accepted requests keep queuing until the pool-wide
    /// bounded queue fills, at which point submissions see
    /// [`ServeError::QueueFull`] — the maintenance lever for load-shedding
    /// upstream. Deadlines keep being enforced while paused.
    pub fn pause(&self) {
        lock_state(&self.shared).paused = true;
    }

    /// Resumes batch processing after [`InferenceServer::pause`].
    pub fn resume(&self) {
        lock_state(&self.shared).paused = false;
        for cv in &self.shared.work_cvs {
            cv.notify_one();
        }
    }

    /// Liveness counters aggregated across the pool: worker status, total
    /// respawns, deadline sheds, pool-wide queue depth.
    pub fn health(&self) -> ServerHealth {
        let state = lock_state(&self.shared);
        ServerHealth {
            worker_alive: state.workers.iter().all(|s| s.alive),
            workers: state.workers.len(),
            respawns: state.respawns,
            deadline_shed: state.deadline_shed,
            pending: state.pending(),
        }
    }

    /// Graceful shutdown: stops accepting new work, drains every accepted
    /// request on every worker (pause is lifted), joins the pool, and
    /// returns counters totalled across all members and generations. If a
    /// worker crashes while draining, it is respawned until its queue
    /// empties; if the drain cannot complete, leftovers resolve as
    /// [`ServeError::ShuttingDown`] rather than hanging their waiters.
    pub fn shutdown(self) -> EngineStats {
        loop {
            self.supervise();
            self.begin_shutdown();
            let taken: Vec<JoinHandle<()>> = {
                let mut slots = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
                slots.iter_mut().filter_map(|s| s.take()).collect()
            };
            for handle in taken {
                let _ = handle.join();
            }
            let mut state = lock_state(&self.shared);
            if state
                .workers
                .iter()
                .any(|s| s.crashed && !s.queue.is_empty())
            {
                continue; // crashed mid-drain: respawn and keep draining
            }
            for w in 0..state.workers.len() {
                while let Some(job) = state.workers[w].queue.pop_front() {
                    publish_result(&mut state, job.id, Err(ServeError::ShuttingDown));
                }
            }
            self.shared.done_cv.notify_all();
            let mut stats = state.stats_done;
            for slot in &state.workers {
                stats.absorb(slot.stats_live);
            }
            return stats;
        }
    }

    pub(super) fn begin_shutdown(&self) {
        let mut state = lock_state(&self.shared);
        state.shutting_down = true;
        state.paused = false;
        for cv in &self.shared.work_cvs {
            cv.notify_all();
        }
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        self.begin_shutdown();
        let taken: Vec<JoinHandle<()>> = {
            let mut slots = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
            slots.iter_mut().filter_map(|s| s.take()).collect()
        };
        for handle in taken {
            let _ = handle.join();
        }
    }
}
