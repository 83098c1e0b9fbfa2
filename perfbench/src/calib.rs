//! Machine-speed calibration.
//!
//! A shared machine changes speed by up to ~1.5x over minutes as other
//! tenants load it, which swamps the differences a benchmark exists to
//! show. So every timed operation is preceded by a fixed calibration job —
//! the benchmark's own code, which no change to the repository can speed
//! up or slow down — and reported times are scaled to what they would be
//! on a machine where the job takes [`REF_MS`]:
//!
//! `reference ms = wall ms × REF_MS / calibration ms`.
//!
//! The job is a statevector-style rotation sweep over a 64 KiB register plus
//! a branchy integer loop, run once on one thread and once on every CPU;
//! the calibration is the mean of the two wall times, so both single-thread
//! speed and the availability of the other CPUs are tracked.

use std::time::Instant;

/// Calibration time of the reference machine, ms.
pub const REF_MS: f64 = 3.0;

/// Kernel repetitions per thread in one calibration.
const REPS: u64 = 5;

/// The fixed job: returns a value so the work cannot be optimised away.
fn job(seed: u64) -> f64 {
    let n = 1usize << 12;
    let mut re: Vec<f64> = (0..n)
        .map(|i| ((i as u64 ^ seed) % 97) as f64 / 97.0)
        .collect();
    let mut im = vec![0.0f64; n];
    let (c, s) = (0.8f64, 0.6f64);
    for pass in 0..48 {
        let bit = 1usize << (pass % 12);
        for i in (0..n).filter(|i| i & bit == 0) {
            let j = i | bit;
            let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
            re[i] = c * ar - s * bi;
            im[i] = c * ai + s * br;
            re[j] = c * br - s * ai;
            im[j] = c * bi + s * ar;
        }
    }
    let mut h = seed;
    for i in 0..20_000u64 {
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ i;
        if h.is_multiple_of(3) {
            h = h.wrapping_add(re[(h as usize) & (n - 1)].to_bits());
        }
    }
    re[0] + im[1] + (h % 7) as f64
}

/// Wall time (ms) of [`REPS`] jobs on each of `threads` threads.
fn run_on(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for k in 0..threads as u64 {
            scope.spawn(move || {
                for r in 0..REPS {
                    std::hint::black_box(job(k * REPS + r));
                }
            });
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// One calibration: the mean wall time (ms) of the job on one thread and
/// on every CPU.
pub fn measure() -> f64 {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (run_on(1) + run_on(nproc)) / 2.0
}

/// Scales a wall time measured next to calibration `cal_ms` to reference
/// ms.
pub fn to_ref(wall_ms: f64, cal_ms: f64) -> f64 {
    wall_ms * REF_MS / cal_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_is_deterministic_and_takes_time() {
        assert_eq!(job(3).to_bits(), job(3).to_bits());
        let ms = measure();
        assert!(ms > 0.0 && ms.is_finite());
    }

    #[test]
    fn a_machine_twice_as_slow_reads_the_same_reference_time() {
        assert_eq!(to_ref(100.0, REF_MS), 100.0);
        assert_eq!(to_ref(200.0, 2.0 * REF_MS), 100.0);
    }
}
