//! Open-loop load generation.
//!
//! One generator thread submits request `k` when it falls due (on a fixed
//! rate schedule, or all at once in a burst); waiter threads collect
//! results in submission order. Latency is timed from when
//! a request was *due*, so a stall also charges the requests queued behind
//! it, and the generator's own lateness is recorded.

use crate::trace::Tracer;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What the generator drives: a submit that returns a ticket and a wait
/// that returns a digest of the result.
pub trait Target: Sync {
    /// Error type of both calls.
    type Error: Send;
    /// Submits request `k`, due at `due`, without waiting for it.
    fn submit(&self, k: usize, due: Instant) -> Result<u64, Self::Error>;
    /// Blocks until `ticket` resolves.
    fn wait(&self, ticket: u64) -> Result<u64, Self::Error>;
}

/// How the generator paces submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Request `k` is due at `start + k / rate` seconds.
    Rate(f64),
    /// Every request is due at the start.
    Burst,
}

/// Timing and result of one request.
#[derive(Debug)]
pub struct Outcome<E> {
    /// Request index.
    pub k: usize,
    /// When the request was due.
    pub due: Instant,
    /// When the generator began submitting it.
    pub sent: Instant,
    /// When its result (or error) was observed.
    pub done: Instant,
    /// Result digest, or the error.
    pub result: Result<u64, E>,
}

impl<E> Outcome<E> {
    /// Latency from due time to result, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Settings of one open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Pacing.
    pub pace: Pace,
    /// Requests to send (the generator also stops at `duration`).
    pub n: usize,
    /// Phase length.
    pub duration: Duration,
    /// Most requests outstanding at once; the generator blocks beyond it.
    pub window: usize,
    /// Waiter threads.
    pub waiters: usize,
    /// Index of the first request (so phases draw distinct requests).
    pub first_k: usize,
}

/// Per-thread tracers of a phase: the generator's, then each waiter's.
pub type PhaseTrace = Vec<Tracer>;

/// Runs one phase against `target` and returns every outcome ordered by
/// request index. With `trace`, submit and wait calls are recorded as
/// `serve.submit` / `serve.wait` spans grouped by request index.
pub fn drive<T: Target>(
    target: &T,
    phase: Phase,
    trace: bool,
    origin: Instant,
) -> (Vec<Outcome<T::Error>>, PhaseTrace) {
    let start = Instant::now();
    let stop = start + phase.duration;
    let window = phase.window.max(1);
    let (token_tx, token_rx) = mpsc::channel::<()>();
    for _ in 0..window {
        token_tx.send(()).expect("receiver alive");
    }
    type Job = (usize, u64, Instant, Instant);
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);
    let mut gen_trace = Tracer::new(trace, origin);
    let (outcomes, mut traces) = std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..phase.waiters.max(1))
            .map(|_| {
                let (job_rx, token_tx) = (&job_rx, token_tx.clone());
                scope.spawn(move || {
                    let mut tracer = Tracer::new(trace, origin);
                    let mut out = Vec::new();
                    loop {
                        let job = job_rx
                            .lock()
                            .expect("no waiter panics holding the queue")
                            .recv();
                        let Ok((k, ticket, due, sent)) = job else {
                            break;
                        };
                        let open = tracer.begin("serve.wait", k as u64);
                        let result = target.wait(ticket);
                        tracer.end(open);
                        let done = Instant::now();
                        out.push(Outcome {
                            k,
                            due,
                            sent,
                            done,
                            result,
                        });
                        let _ = token_tx.send(());
                    }
                    (out, tracer)
                })
            })
            .collect();
        let mut failed_early = Vec::new();
        for i in 0..phase.n {
            let k = phase.first_k + i;
            let due = match phase.pace {
                Pace::Rate(rate) => start + Duration::from_secs_f64(i as f64 / rate),
                Pace::Burst => start,
            };
            if due >= stop {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            token_rx.recv().expect("waiters hold a sender");
            let sent = Instant::now();
            let open = gen_trace.begin("serve.submit", k as u64);
            let submitted_ticket = target.submit(k, due);
            gen_trace.end(open);
            match submitted_ticket {
                Ok(ticket) => job_tx.send((k, ticket, due, sent)).expect("waiters alive"),
                Err(e) => {
                    failed_early.push(Outcome {
                        k,
                        due,
                        sent,
                        done: Instant::now(),
                        result: Err(e),
                    });
                    token_tx.send(()).expect("receiver alive");
                }
            }
        }
        drop(job_tx);
        let mut outcomes = failed_early;
        let mut traces = Vec::new();
        for w in waiters {
            let (out, tracer) = w.join().expect("waiter threads do not panic");
            outcomes.extend(out);
            traces.push(tracer);
        }
        (outcomes, traces)
    });
    let mut outcomes = outcomes;
    outcomes.sort_by_key(|o| o.k);
    traces.insert(0, gen_trace);
    (outcomes, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Answers instantly except that request 0 takes `stall`; every
    /// request's digest is its index.
    struct Fake {
        stall: Duration,
        submits: AtomicUsize,
    }

    impl Target for Fake {
        type Error = ();
        fn submit(&self, k: usize, _due: Instant) -> Result<u64, ()> {
            self.submits.fetch_add(1, Ordering::Relaxed);
            Ok(k as u64)
        }
        fn wait(&self, ticket: u64) -> Result<u64, ()> {
            if ticket == 0 {
                std::thread::sleep(self.stall);
            }
            Ok(ticket)
        }
    }

    fn phase(pace: Pace, n: usize, window: usize) -> Phase {
        Phase {
            pace,
            n,
            duration: Duration::from_secs(5),
            window,
            waiters: 1,
            first_k: 0,
        }
    }

    #[test]
    fn latency_runs_from_due_time_and_a_stall_charges_later_requests() {
        let fake = Fake {
            stall: Duration::from_millis(60),
            submits: AtomicUsize::new(0),
        };
        // One request every 10 ms; the single waiter is stuck on request 0
        // for 60 ms, so requests due during the stall see it in latency.
        let (out, traces) = drive(
            &fake,
            phase(Pace::Rate(100.0), 8, 64),
            false,
            Instant::now(),
        );
        assert_eq!(out.len(), 8);
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, o)| o.k == i && o.result == Ok(i as u64)));
        for (i, o) in out.iter().enumerate() {
            // Due times follow the fixed schedule exactly.
            let offset = o.due.duration_since(out[0].due).as_secs_f64();
            assert!((offset - i as f64 * 0.010).abs() < 1e-6);
            assert!(o.latency_ms() >= o.late_ms());
        }
        assert!(out[0].latency_ms() >= 60.0);
        // Request 1 was due at 10 ms and only observed after the stall.
        assert!(out[1].latency_ms() >= 45.0, "{}", out[1].latency_ms());
        assert!(traces.iter().all(|t| t.spans().is_empty()));
    }

    #[test]
    fn a_full_window_makes_the_generator_late_and_lateness_counts_in_latency() {
        let fake = Fake {
            stall: Duration::from_millis(50),
            submits: AtomicUsize::new(0),
        };
        // Window of one: request 1 (due at 1 ms) cannot be sent until
        // request 0 resolves at ~50 ms.
        let (out, _) = drive(
            &fake,
            phase(Pace::Rate(1000.0), 3, 1),
            false,
            Instant::now(),
        );
        assert!(out[1].late_ms() >= 40.0, "{}", out[1].late_ms());
        assert!(out[1].latency_ms() >= out[1].late_ms());
        assert_eq!(fake.submits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn the_phase_stops_at_its_duration_and_traces_each_call() {
        let fake = Fake {
            stall: Duration::ZERO,
            submits: AtomicUsize::new(0),
        };
        let mut p = phase(Pace::Rate(100.0), 1000, 8);
        p.duration = Duration::from_millis(50);
        let (out, traces) = drive(&fake, p, true, Instant::now());
        assert!((4..=6).contains(&out.len()), "{}", out.len());
        let spans: usize = traces.iter().map(|t| t.spans().len()).sum();
        assert_eq!(spans, 2 * out.len());
        assert!(traces[0].spans().iter().all(|s| s.name == "serve.submit"));
    }

    #[test]
    fn a_burst_is_due_at_once_and_a_small_window_shows_as_lateness() {
        let fake = Fake {
            stall: Duration::from_millis(30),
            submits: AtomicUsize::new(0),
        };
        let (out, _) = drive(&fake, phase(Pace::Burst, 200, 4), false, Instant::now());
        assert_eq!(out.len(), 200);
        assert!(out.iter().all(|o| o.due == out[0].due));
        // Request 4 waits for request 0's 30 ms stall to free a window slot.
        assert!(out[4].late_ms() >= 25.0, "{}", out[4].late_ms());
        assert!(out[199].latency_ms() >= out[4].late_ms());
    }
}
