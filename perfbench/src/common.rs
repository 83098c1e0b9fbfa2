//! Shared plumbing: run context, seeds, timers, and what a workload returns.

use crate::calib;
use crate::stats::Summary;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measured time budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Where checkpoints, spans and the result file go.
    pub out_dir: PathBuf,
    /// Common time origin of every span.
    pub origin: Instant,
}

impl Ctx {
    /// A fraction of the measured time budget.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a workload reports back to `main`. Times are in calibrated
/// reference units (see [`crate::calib`]) unless named `wall`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median set-up time over [`SETUP_REPS`] set-ups, seconds.
    pub setup_s: f64,
    /// The same, in wall seconds.
    pub setup_wall_s: f64,
    /// Work items per second (rows, molecules, or requests).
    pub items_per_s: f64,
    /// Per-operation latency (epoch, screen batch, or request), ms.
    pub op_ms: Summary,
    /// The same, in wall ms.
    pub op_wall_ms: Summary,
    /// Median calibration time of the run, ms.
    pub cal_ms: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, or with wrong outputs.
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// End-to-end figures under the workload's own names, for the report.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

/// SplitMix64 of `seed ^ salt`: independent, reproducible sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Median wall time of `reps` calls of `f`, in µs.
pub fn median_us_of(reps: usize, mut f: impl FnMut()) -> f64 {
    median_us_inner(reps, || {
        let t = Instant::now();
        f();
        t.elapsed()
    })
}

/// Median of the durations `f` measures itself over `reps` calls, in µs.
pub fn median_us_inner(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let v: Vec<f64> = (0..reps.max(1)).map(|_| f().as_secs_f64() * 1e6).collect();
    crate::stats::median(&v)
}

/// Median set-up time of a run, in reference and wall seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Reference seconds (see [`crate::calib`]).
    pub ref_s: f64,
    /// Wall seconds.
    pub wall_s: f64,
}

/// Sets up [`SETUP_REPS`] times, calibrating before and after each, and
/// returns the last set-up with the median set-up time.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, SetupTime) {
    let mut wall = Vec::with_capacity(SETUP_REPS);
    let mut refs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let before = calib::measure();
        let (s, ms) = timed(&mut setup);
        let after = calib::measure();
        last = Some(s);
        wall.push(ms / 1e3);
        refs.push(calib::to_ref(ms, (before + after) / 2.0) / 1e3);
    }
    let time = SetupTime {
        ref_s: crate::stats::median(&refs),
        wall_s: crate::stats::median(&wall),
    };
    (last.expect("at least one set-up"), time)
}

/// Operation times of a run, each calibrated right before it ran.
#[derive(Debug, Default)]
pub struct Timings {
    /// Wall ms.
    pub wall: Vec<f64>,
    /// Calibration ms measured before each operation.
    pub cal: Vec<f64>,
}

impl Timings {
    /// Calibrates, then runs and times `f`.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.cal.push(calib::measure());
        let (r, ms) = timed(f);
        self.wall.push(ms);
        r
    }

    /// The operation times in reference ms.
    pub fn reference(&self) -> Vec<f64> {
        self.wall
            .iter()
            .zip(&self.cal)
            .map(|(&w, &c)| calib::to_ref(w, c))
            .collect()
    }

    /// Number of timed operations.
    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// Fills the summary fields of `out` from the operations past the
    /// first `skip`, `items` work items per operation. Throughput is taken
    /// at the median operation time, which one slow stretch cannot move.
    pub fn summarize_into(&self, out: &mut Outcome, skip: usize, items: f64, tail_cap: f64) {
        out.op_ms = crate::stats::summarize(&self.reference()[skip..], tail_cap);
        out.op_wall_ms = crate::stats::summarize(&self.wall[skip..], tail_cap);
        out.cal_ms = crate::stats::median(&self.cal);
        out.items_per_s = items * 1e3 / out.op_ms.p50;
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a digest of a matrix's shape and value bits: equal digests mean
/// byte-equal results.
pub fn digest(m: &sqvae::nn::Matrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = [m.rows() as u64, m.cols() as u64];
    for w in words
        .into_iter()
        .chain(m.as_slice().iter().map(|v| v.to_bits()))
    {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }

    #[test]
    fn digests_see_every_bit_and_the_shape() {
        use sqvae::nn::Matrix;
        let a = Matrix::from_vec(1, 2, vec![0.5, 0.25]).unwrap();
        let b = Matrix::from_vec(1, 2, vec![0.5, 0.25 + f64::EPSILON]).unwrap();
        let c = Matrix::from_vec(2, 1, vec![0.5, 0.25]).unwrap();
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn setup_time_is_the_median_of_the_repetitions() {
        let mut calls = 0;
        let (last, time) = repeated_setup(|| {
            calls += 1;
            calls
        });
        assert_eq!(last, SETUP_REPS);
        assert!(time.ref_s >= 0.0 && time.wall_s >= 0.0);
    }

    #[test]
    fn timings_skip_warm_up_operations() {
        let mut t = Timings::default();
        for _ in 0..3 {
            t.time(|| std::thread::sleep(Duration::from_millis(2)));
        }
        let mut out = Outcome::default();
        t.summarize_into(&mut out, 1, 10.0, 99.0);
        assert_eq!((t.len(), out.op_ms.n, out.op_wall_ms.n), (3, 2, 2));
        assert!(out.op_wall_ms.p50 >= 2.0);
        assert_eq!(out.items_per_s, 10.0 * 1e3 / out.op_ms.p50);
        assert!(out.cal_ms > 0.0);
    }
}
