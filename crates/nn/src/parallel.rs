//! Row-sharded parallel execution on one persistent compute pool.
//!
//! Every quantum layer simulates batch rows independently, every output
//! row of a `Matrix` product is its own fold, and screening scores each
//! sampled molecule on its own, so each of these is an embarrassingly
//! parallel axis. [`map_rows`] hands a call's rows to one process-wide
//! pool of helper threads (standard library only, matching the offline
//! build environment). [`map_items`] hands out owned items instead — the
//! quantum layers' `(patch, chunk)` work items or their kept register
//! banks, a product's groups of output rows, or disjoint slots of a
//! caller's output buffer — each with one reused scratch value per
//! participating thread. The pool holds `max(cpus, 2) − 1` helpers, started
//! on the first parallel call with the CPU count read once, and lives for
//! the process. Training, every quantum layer, the `Linear` products, the
//! screening chem work and the serving engine submit into the same pool,
//! so serving shares one set of threads with row sharding instead of
//! multiplying it.
//!
//! The calling thread always takes part: it and any helper that joins claim
//! rows one at a time from one atomic counter, and each row's result lands
//! in its own preallocated slot. A call whose helpers are all busy runs on
//! the calling thread alone, so nested and concurrent calls always
//! complete. Because results land in row order — never in thread-arrival
//! order — and callers accumulate any reductions over the returned `Vec` in
//! fixed row order, the parallel path is **bit-identical** to the
//! sequential one. A panic in any row is re-raised on the calling thread,
//! with its payload, once no helper is still inside the call.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

/// Row-parallelism policy for layers that shard batch rows across threads.
///
/// Models start from the `SQVAE_THREADS` environment variable, read only by
/// [`crate::ExecPolicy::from_env`] (`auto` when unset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// One thread per available CPU (capped by the number of rows).
    Auto,
    /// Exactly `n` threads (capped by the number of rows, and on one row
    /// call by the compute pool's helpers plus the caller); `Fixed(0)` and
    /// `Fixed(1)` run sequentially.
    Fixed(usize),
    /// Sequential execution on the calling thread.
    Off,
}

impl Threads {
    /// Number of threads to use for `n_rows` independent rows. `Auto`
    /// reads the CPU count once per process; `resolve(usize::MAX)` is the
    /// uncapped count.
    pub fn resolve(self, n_rows: usize) -> usize {
        let cap = match self {
            Threads::Off => 1,
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => cpus(),
        };
        cap.min(n_rows.max(1))
    }
}

impl FromStr for Threads {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "" | "auto" => Ok(Threads::Auto),
            "0" | "off" => Ok(Threads::Off),
            other => other
                .parse::<usize>()
                .map(Threads::Fixed)
                .map_err(|_| format!("invalid thread spec '{other}' (want auto, off, or a count)")),
        }
    }
}

/// CPUs available to the process, read once: `available_parallelism`
/// reads cgroup files on every call, which costs tens of µs.
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Computes `f(0), …, f(n_rows - 1)` on the compute pool, returning the
/// results **in row order**.
///
/// Each row's result is written into its own preallocated slot, so no
/// result is ever placed by arrival order and the output is bit-identical to
/// the sequential `(0..n_rows).map(f)`. With one resolved thread (or fewer
/// than two rows) the rows run inline on the calling thread.
///
/// # Panics
///
/// Re-raises, with its payload, the first panic raised by `f` on any
/// thread; rows not yet started when it was raised are skipped.
pub fn map_rows<R, F>(n_rows: usize, threads: Threads, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = (0..n_rows).map(|_| Mutex::new(None)).collect();
    run(n_rows, seats(n_rows, threads), &|row, _seat| {
        *lock(&slots[row]) = Some(f(row));
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("a row slot is never locked across a panic")
                .expect("every row slot is filled by the row that claimed it")
        })
        .collect()
}

/// [`map_rows`] over owned inputs with per-thread scratch: computes
/// `f(row, item, scratch)` for the `row`-th item on the compute pool,
/// handing each item by value to the thread that claims its row, and
/// returns the results in row order (bit-identical to the sequential
/// `items.into_iter().enumerate().map(..)`). Each participating thread
/// builds one `scratch` value with `init`, on its first row, and reuses it
/// for every further row it claims in the call, so per-row working buffers
/// amortize to one allocation per thread; results stay bit-identical as
/// long as `f`'s result does not depend on what an earlier row left in the
/// scratch. Items may borrow caller storage, such as the disjoint
/// `chunks_mut` slots of a preallocated output, which `f` then writes in
/// place.
///
/// # Panics
///
/// Re-raises the first panic raised by `init` or `f` as [`map_rows`] does.
pub fn map_items<T, S, R, G, F>(
    items: impl IntoIterator<Item = T>,
    threads: Threads,
    init: G,
    f: F,
) -> Vec<R>
where
    T: Send,
    S: Send,
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(usize, T, &mut S) -> R + Sync,
{
    // A slot holds `Err(Some(item))` until the row that claims it takes the
    // item and stores `Ok(result)`.
    let slots: Vec<Mutex<Result<R, Option<T>>>> = items
        .into_iter()
        .map(|t| Mutex::new(Err(Some(t))))
        .collect();
    run_with(slots.len(), threads, init, |row, scratch| {
        let mut slot = lock(&slots[row]);
        let item = slot.as_mut().err().and_then(Option::take);
        *slot = Ok(f(row, item.expect("every row is claimed once"), scratch));
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("a row slot is never locked across a panic")
                .ok()
                .expect("every row slot is filled by the row that claimed it")
        })
        .collect()
}

/// Runs `body(row, scratch)` for every row on the compute pool, with one
/// `scratch` per participating thread, built by `init` on its first row.
fn run_with<S, G, B>(n_rows: usize, threads: Threads, init: G, body: B)
where
    S: Send,
    G: Fn() -> S + Sync,
    B: Fn(usize, &mut S) + Sync,
{
    let seats = seats(n_rows, threads);
    let scratch: Vec<Mutex<Option<S>>> = (0..seats).map(|_| Mutex::new(None)).collect();
    run(n_rows, seats, &|row, seat| {
        body(row, lock(&scratch[seat]).get_or_insert_with(&init));
    });
}

/// Locks a row or scratch slot. Each is locked by one thread at a time, and
/// a row that panics cancels every row not yet started, so no slot is
/// locked again after a panic poisoned it.
fn lock<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock()
        .expect("a slot is never locked again after a row panicked")
}

/// One row call's body: `body(row, seat)` computes `row` on the thread in
/// `seat` (0 is the caller, `1..seats` are helpers), which indexes any
/// per-thread state.
type RowBody<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// Threads taking part in one call over `n_rows` rows: the policy's count,
/// capped by the rows and by the pool's helpers plus the caller. Callers
/// that split their own work into chunks size them with it.
pub fn seats(n_rows: usize, threads: Threads) -> usize {
    match threads.resolve(n_rows) {
        0 | 1 => 1,
        want => want.min(helpers() + 1),
    }
}

/// Runs `body` for every row in `0..n_rows` on `seats` threads: inline
/// when `seats` is one, otherwise the caller plus up to `seats - 1`
/// helpers that are free to join.
fn run(n_rows: usize, seats: usize, body: &RowBody<'_>) {
    if seats <= 1 {
        (0..n_rows).for_each(|row| body(row, 0));
        return;
    }
    let caller = thread::current();
    // SAFETY: this erases `body`'s lifetime so that the pool's helpers can
    // hold it in a `'static` job, though it borrows from this call's
    // frame. No helper can use it after that frame is gone, because:
    // - this call never returns or unwinds while a helper is inside the
    //   body. Once `submit` has published the job (its last step that can
    //   panic), the caller only runs rows, catching their panics in
    //   `Job::work` as the helpers do, and waits until `done` counts every
    //   row; it re-raises a row's panic only after that. `Job::work`
    //   counts a row only after its body returned or unwound;
    // - a helper dereferences `body` only after it has claimed a row below
    //   `rows`, and a claimed row is counted in `done` only after its body
    //   finished, so a helper that reaches the job late (it may hold the
    //   `Arc<Job>` after this call returned) fails its claim and never
    //   touches `body`;
    // - each participant's `Release` increment of `done` pairs with the
    //   `Acquire` load in `Job::wait`, so every row's writes into borrowed
    //   slots happen before this call reads them or frees their storage.
    let body = unsafe { std::mem::transmute::<&RowBody<'_>, &'static RowBody<'static>>(body) };
    let job = Arc::new(Job {
        body,
        rows: n_rows,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller,
    });
    POOL.submit(&job, seats);
    job.work(0);
    job.wait();
    let payload = job
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// One call's rows, shared by the caller and the helpers that join it.
struct Job {
    /// The call's row body, lifetime-erased: valid only until `done`
    /// reaches `rows`, so it is read only after claiming a row (see
    /// [`run`]).
    body: &'static RowBody<'static>,
    rows: usize,
    /// Next unclaimed row; a value `>= rows` means every row is claimed.
    next: AtomicUsize,
    /// Rows whose body finished, plus rows cancelled after a panic.
    done: AtomicUsize,
    /// The first panic payload raised by a row.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The submitting thread, unparked when a helper finishes the last row.
    caller: Thread,
}

impl Job {
    /// Claims and runs rows one at a time, from the thread in `seat`, until
    /// every row is claimed.
    fn work(&self, seat: usize) {
        loop {
            // `Relaxed`: a claim publishes no data; `done` orders the rows'
            // writes.
            let row = self.next.fetch_add(1, Ordering::Relaxed);
            if row >= self.rows {
                return;
            }
            let mut finished = 1;
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.body)(row, seat))) {
                self.panic
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
                // Claim every row not yet started and count it as done, so
                // no row runs after a failure.
                let next = self.next.fetch_max(self.rows, Ordering::Relaxed);
                finished += self.rows.saturating_sub(next);
            }
            let done = self.done.fetch_add(finished, Ordering::Release) + finished;
            if done == self.rows && seat != 0 {
                // The caller may have seen `done` while spinning and moved
                // on; the unused token then only makes its next `park`
                // return early, which `park` allows.
                self.caller.unpark();
            }
        }
    }

    /// Blocks the caller until every row is done: a short spin, since the
    /// helpers' last rows usually take microseconds, then parks until the
    /// helper that finishes the last row unparks it.
    fn wait(&self) {
        const SPINS: u32 = 1 << 10;
        let mut spins = 0;
        while self.done.load(Ordering::Acquire) < self.rows {
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                thread::park();
            }
        }
    }
}

/// The process-wide compute pool: calls waiting for helpers, and the
/// helpers' wake-up signal.
struct Pool {
    queue: Mutex<Queue>,
    wake: Condvar,
}

/// A call that still has seats for helpers.
struct Open {
    job: Arc<Job>,
    next_seat: usize,
    seats: usize,
}

struct Queue {
    /// Calls wanting helpers, oldest first.
    open: VecDeque<Open>,
    /// Helpers blocked on [`Pool::wake`].
    idle: usize,
}

static POOL: Pool = Pool {
    queue: Mutex::new(Queue {
        open: VecDeque::new(),
        idle: 0,
    }),
    wake: Condvar::new(),
};

/// Number of helper threads, starting them on first use: `max(cpus, 2) −
/// 1`, so that `Fixed(n ≥ 2)` crosses threads even on one CPU. A helper that
/// fails to start is left out. Helpers run for the life of the process and
/// never unwind, since every row runs under `catch_unwind`.
fn helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| {
        (1..cpus().max(2))
            .filter(|i| {
                thread::Builder::new()
                    .name(format!("sqvae-pool-{i}"))
                    .spawn(|| POOL.serve())
                    .is_ok()
            })
            .count()
    })
}

impl Pool {
    /// The queue holds only whole `Open` entries at every step, so a
    /// poisoned lock still guards a valid queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offers `job` to the helpers, waking as many idle ones as it has
    /// helper seats.
    fn submit(&self, job: &Arc<Job>, seats: usize) {
        let wake = {
            let mut queue = self.lock();
            queue.open.push_back(Open {
                job: Arc::clone(job),
                next_seat: 1,
                seats,
            });
            queue.idle.min(seats - 1)
        };
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    /// A helper's loop: join the oldest call that still has unclaimed rows
    /// and a free seat, or sleep until one is submitted.
    fn serve(&self) {
        let mut queue = self.lock();
        loop {
            match queue.take_seat() {
                Some((job, seat)) => {
                    drop(queue);
                    job.work(seat);
                    drop(job);
                    queue = self.lock();
                }
                None => {
                    queue.idle += 1;
                    queue = self
                        .wake
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                    queue.idle -= 1;
                }
            }
        }
    }
}

impl Queue {
    /// Takes a seat in the oldest open call, dropping calls whose rows are
    /// all claimed or whose seats are all taken.
    fn take_seat(&mut self) -> Option<(Arc<Job>, usize)> {
        while let Some(open) = self.open.front_mut() {
            if open.job.next.load(Ordering::Relaxed) >= open.job.rows {
                self.open.pop_front();
                continue;
            }
            let seat = open.next_seat;
            open.next_seat += 1;
            let job = Arc::clone(&open.job);
            if open.next_seat == open.seats {
                self.open.pop_front();
            }
            return Some((job, seat));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::sync::Barrier;

    #[test]
    fn matches_sequential_for_every_policy() {
        let expected: Vec<usize> = (0..37).map(|r| r * r).collect();
        for threads in [
            Threads::Off,
            Threads::Auto,
            Threads::Fixed(1),
            Threads::Fixed(3),
            Threads::Fixed(64),
        ] {
            assert_eq!(map_rows(37, threads, |r| r * r), expected, "{threads:?}");
        }
    }

    #[test]
    fn empty_and_single_row() {
        assert_eq!(map_rows(0, Threads::Fixed(4), |r| r), Vec::<usize>::new());
        assert_eq!(map_rows(1, Threads::Fixed(4), |r| r + 10), vec![10]);
        let none = map_items(Vec::<f64>::new(), Threads::Fixed(4), || (), |_, x, ()| x);
        assert!(none.is_empty());
        let one = map_items([2.5], Threads::Fixed(4), || (), |r, x, ()| x + r as f64);
        assert_eq!(one, vec![2.5]);
    }

    #[test]
    fn resolve_caps_by_rows_and_floor_is_one() {
        assert_eq!(Threads::Off.resolve(100), 1);
        assert_eq!(Threads::Fixed(0).resolve(100), 1);
        assert_eq!(Threads::Fixed(4).resolve(2), 2);
        assert_eq!(Threads::Fixed(4).resolve(100), 4);
        assert!(Threads::Auto.resolve(100) >= 1);
        assert_eq!(Threads::Auto.resolve(0), 1);
    }

    #[test]
    fn parses_thread_specs() {
        assert_eq!("auto".parse::<Threads>(), Ok(Threads::Auto));
        assert_eq!("".parse::<Threads>(), Ok(Threads::Auto));
        assert_eq!("off".parse::<Threads>(), Ok(Threads::Off));
        assert_eq!("0".parse::<Threads>(), Ok(Threads::Off));
        assert_eq!("6".parse::<Threads>(), Ok(Threads::Fixed(6)));
        assert!("six".parse::<Threads>().is_err());
    }

    #[test]
    fn env_spec_typo_falls_back_to_auto() {
        // The environment reader warns once on stderr; the value still resolves.
        let threads = |spec| crate::ExecPolicy::from_spec(Some(spec)).threads;
        assert_eq!(threads("of"), Threads::Auto);
        assert_eq!(threads("3"), Threads::Fixed(3));
        assert_eq!(threads("off"), Threads::Off);
    }

    #[test]
    fn rows_collect_in_order_not_arrival_order() {
        // Later rows finish first (they sleep less), yet results stay ordered.
        let out = map_rows(8, Threads::Fixed(4), |r| {
            std::thread::sleep(std::time::Duration::from_millis(8 - r as u64));
            r
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn map_items_moves_each_item_into_its_own_row() {
        let items: Vec<Vec<f64>> = (0..40).map(|r| vec![row_value(r); r % 5]).collect();
        let expected: Vec<(usize, u64)> = items
            .iter()
            .enumerate()
            .map(|(r, v)| (r, v.iter().sum::<f64>().to_bits()))
            .collect();
        for threads in [Threads::Off, Threads::Fixed(3), Threads::Fixed(64)] {
            let got = map_items(items.clone(), threads, Vec::new, |r, v: Vec<f64>, seen| {
                seen.push(r);
                (r, v.into_iter().sum::<f64>().to_bits())
            });
            assert_eq!(got, expected, "{threads:?}");
        }
    }

    /// Filling a row-major output in place, as `Matrix::fill_rows_of_product`
    /// and the quantum layers' evaluation pass do: `map_items` over the
    /// buffer's `chunks_mut` slots, each written by the thread that claims it.
    #[test]
    fn fill_rows_matches_sequential_and_reuses_scratch() {
        let row_len = 3;
        let expected: Vec<f64> = (0..13 * row_len)
            .map(|i| (i / row_len + i % row_len) as f64)
            .collect();
        for threads in [
            Threads::Off,
            Threads::Fixed(1),
            Threads::Fixed(4),
            Threads::Fixed(64),
        ] {
            let mut out = vec![0.0; 13 * row_len];
            map_items(
                out.chunks_mut(row_len),
                threads,
                Vec::<f64>::new,
                |r, slot, scratch| {
                    // The scratch persists across a thread's rows: grow it
                    // once and fill from it.
                    scratch.clear();
                    scratch.extend((0..row_len).map(|c| (r + c) as f64));
                    slot.copy_from_slice(scratch);
                },
            );
            assert_eq!(out, expected, "{threads:?}");
        }
    }

    /// An empty output has no slots, so nothing runs.
    #[test]
    fn fill_rows_handles_empty_output() {
        let mut out: Vec<f64> = Vec::new();
        for threads in [Threads::Off, Threads::Fixed(4)] {
            let filled = map_items(out.chunks_mut(4), threads, || (), |_, _, ()| {});
            assert!(filled.is_empty(), "{threads:?}");
        }
        assert!(out.is_empty());
    }

    /// Floating-point work whose bits depend on the row, so a misplaced or
    /// recomputed row shows.
    fn row_value(r: usize) -> f64 {
        (0..50).fold(r as f64 * 0.37, |acc, k| (acc * 1.0001 + k as f64).sin())
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn pool_holds_one_helper_less_than_the_cpus_but_at_least_one() {
        assert_eq!(helpers(), cpus().max(2) - 1);
        assert_eq!(seats(100, Threads::Off), 1);
        assert_eq!(seats(1, Threads::Fixed(8)), 1);
        assert_eq!(seats(2, Threads::Fixed(2)), 2);
        assert_eq!(seats(100, Threads::Fixed(64)), (helpers() + 1).min(64));
    }

    #[test]
    fn a_row_panic_re_raises_its_payload_and_the_helpers_keep_serving() {
        // Both rows wait on one barrier, so they run at once on the caller
        // and a helper; the helper's row panics.
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            map_rows(2, Threads::Fixed(2), |r| {
                barrier.wait();
                assert_eq!(thread::current().id(), caller, "row {r} ran on a helper");
                r
            })
        }))
        .expect_err("the helper's panic reaches the caller");
        let msg = err.downcast_ref::<String>().expect("a formatted payload");
        assert!(msg.contains("ran on a helper"), "{msg}");

        // The next call again needs a helper beside the caller.
        let barrier = Barrier::new(2);
        let ran = Mutex::new(HashSet::new());
        let out = map_rows(2, Threads::Fixed(2), |r| {
            barrier.wait();
            ran.lock().unwrap().insert(thread::current().id());
            r
        });
        assert_eq!(out, vec![0, 1]);
        assert_eq!(ran.into_inner().unwrap().len(), 2);
    }

    #[test]
    fn a_caller_row_panic_waits_for_the_helper_then_re_raises() {
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        let helper_done = AtomicUsize::new(0);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut out = [0.0; 2];
            map_items(
                out.iter_mut(),
                Threads::Fixed(2),
                || (),
                |_, slot, ()| {
                    barrier.wait();
                    if thread::current().id() == caller {
                        panic!("caller row failed");
                    }
                    *slot = 1.0;
                    helper_done.fetch_add(1, Ordering::SeqCst);
                },
            );
        }))
        .expect_err("the caller's own panic is re-raised");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"caller row failed"));
        // The helper's row had finished before the call unwound.
        assert_eq!(helper_done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_callers_share_the_pool_bit_identically() {
        const CALLERS: usize = 8;
        let expected = Arc::new(bits(&(0..24).map(row_value).collect::<Vec<_>>()));
        let start = Arc::new(Barrier::new(CALLERS));
        let handles: Vec<_> = (0..CALLERS)
            .map(|t| {
                let (start, expected) = (Arc::clone(&start), Arc::clone(&expected));
                thread::spawn(move || {
                    start.wait();
                    for call in 0..50 {
                        let threads =
                            [Threads::Auto, Threads::Fixed(2), Threads::Fixed(5)][(t + call) % 3];
                        assert_eq!(bits(&map_rows(24, threads, row_value)), *expected);
                        let got = map_items(0..24, threads, Vec::new, |_, r, scratch| {
                            scratch.push(r);
                            row_value(r)
                        });
                        assert_eq!(bits(&got), *expected);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("a caller thread failed");
        }
    }

    #[test]
    fn a_call_nested_inside_a_row_completes() {
        // The barrier puts the caller and a helper inside the outer rows at
        // once, so each nested call may find no free helper.
        let barrier = Barrier::new(2);
        let expected: Vec<f64> = (0..2)
            .map(|r| (0..10).map(|c| row_value(r * 10 + c)).sum())
            .collect();
        let got = map_rows(2, Threads::Fixed(2), |r| {
            barrier.wait();
            map_rows(10, Threads::Auto, |c| row_value(r * 10 + c))
                .iter()
                .sum::<f64>()
        });
        assert_eq!(bits(&got), bits(&expected));
    }

    #[test]
    fn map_items_inits_scratch_at_most_once_per_participating_thread() {
        let inits = Mutex::new(HashMap::new());
        let ran = Mutex::new(HashSet::new());
        // Rows 0 and 1 wait for each other, so two threads take part.
        let barrier = Barrier::new(2);
        let out = map_items(
            0..32,
            Threads::Fixed(2),
            || {
                *inits
                    .lock()
                    .unwrap()
                    .entry(thread::current().id())
                    .or_insert(0) += 1
            },
            |r, item, ()| {
                if r < 2 {
                    barrier.wait();
                }
                ran.lock().unwrap().insert(thread::current().id());
                item
            },
        );
        let (inits, ran) = (inits.into_inner().unwrap(), ran.into_inner().unwrap());
        assert_eq!(ran.len(), 2);
        assert!(inits.values().all(|&n| n == 1), "{inits:?}");
        assert_eq!(inits.keys().copied().collect::<HashSet<_>>(), ran);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_the_pool_holds_stay_bit_identical() {
        let expected = bits(&(0..200).map(row_value).collect::<Vec<_>>());
        let ran = Mutex::new(HashSet::new());
        let got = map_rows(200, Threads::Fixed(64), |r| {
            ran.lock().unwrap().insert(thread::current().id());
            row_value(r)
        });
        assert_eq!(bits(&got), expected);
        assert!(ran.into_inner().unwrap().len() <= helpers() + 1);
        let mut out = vec![0.0; 200];
        map_items(
            out.iter_mut(),
            Threads::Fixed(64),
            || (),
            |r, slot, ()| {
                *slot = row_value(r);
            },
        );
        assert_eq!(bits(&out), expected);
    }
}
