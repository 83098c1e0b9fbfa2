//! Deterministic fault injection for chaos testing.
//!
//! Production hardening is only trustworthy when the failure paths run
//! under test. This module provides seed-driven **injection points** that
//! the serving and training stacks consult at the moments where real
//! systems break:
//!
//! * [`FaultPoint::WorkerPanic`] — the serving engine thread panics with a
//!   batch in flight (exercises the supervisor + `ServeError::WorkerGone`
//!   paths).
//! * [`FaultPoint::QueueSaturation`] — a submission is refused as if the
//!   bounded queue were full (exercises backpressure + client retry).
//! * [`FaultPoint::CheckpointFlip`] / [`FaultPoint::CheckpointTruncate`] —
//!   a just-written checkpoint is bit-flipped / truncated, simulating a
//!   torn write (exercises checksum detection + `.bak` recovery).
//! * [`FaultPoint::NanLoss`] — a training batch reports a non-finite loss
//!   (exercises the trainer's snapshot rollback guard).
//!
//! ## Determinism
//!
//! Every point draws from its **own** `StdRng` stream seeded from
//! `plan.seed ^ point-index`, so whether (say) the third checkpoint save is
//! corrupted does not depend on how many serving batches ran in between,
//! or on thread interleaving at other points. Re-running with the same plan
//! and the same per-point call sequence reproduces the same faults.
//!
//! ## Cost when disabled
//!
//! No plan installed (the default) means every [`trigger`] call is a single
//! relaxed atomic load followed by an immediate return — the hot paths pay
//! effectively nothing, and none of the failure machinery runs.
//!
//! ## Enabling
//!
//! Programmatically ([`install`] / [`clear`], or the RAII [`FaultScope`]),
//! or from the environment: `SQVAE_FAULTS="seed=42,worker_panic=0.25,
//! queue_saturation=0.1,checkpoint_flip=0.5,checkpoint_truncate=0.1,
//! nan_loss=0.2"` (missing rates default to 0; `SQVAE_FAULTS=on` installs
//! [`FaultPlan::chaos`] with seed 42). Call [`install_from_env`] at
//! process start — the chaos integration test and CI leg do.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Panic the serving engine thread with a batch in flight.
    WorkerPanic,
    /// Refuse a submission as if the bounded queue were at capacity.
    QueueSaturation,
    /// Flip one bit of a checkpoint file right after it is saved.
    CheckpointFlip,
    /// Truncate a checkpoint file right after it is saved.
    CheckpointTruncate,
    /// Replace one training batch's loss with NaN.
    NanLoss,
}

/// Number of distinct [`FaultPoint`]s.
pub const N_FAULT_POINTS: usize = 5;

/// Every point, in index order.
pub const ALL_FAULT_POINTS: [FaultPoint; N_FAULT_POINTS] = [
    FaultPoint::WorkerPanic,
    FaultPoint::QueueSaturation,
    FaultPoint::CheckpointFlip,
    FaultPoint::CheckpointTruncate,
    FaultPoint::NanLoss,
];

impl FaultPoint {
    fn index(self) -> usize {
        match self {
            FaultPoint::WorkerPanic => 0,
            FaultPoint::QueueSaturation => 1,
            FaultPoint::CheckpointFlip => 2,
            FaultPoint::CheckpointTruncate => 3,
            FaultPoint::NanLoss => 4,
        }
    }

    /// The key this point uses in the `SQVAE_FAULTS` spec.
    pub fn key(self) -> &'static str {
        match self {
            FaultPoint::WorkerPanic => "worker_panic",
            FaultPoint::QueueSaturation => "queue_saturation",
            FaultPoint::CheckpointFlip => "checkpoint_flip",
            FaultPoint::CheckpointTruncate => "checkpoint_truncate",
            FaultPoint::NanLoss => "nan_loss",
        }
    }
}

/// Per-point firing probabilities plus the master seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed; each point derives its own stream from it.
    pub seed: u64,
    /// Firing probability per point, in [`ALL_FAULT_POINTS`] index order.
    pub rates: [f64; N_FAULT_POINTS],
}

impl Default for FaultPlan {
    /// All rates zero — installing it injects nothing.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            rates: [0.0; N_FAULT_POINTS],
        }
    }
}

impl FaultPlan {
    /// A plan that fires nothing (same as `Default`).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A moderately hostile default: occasional worker panics, queue
    /// refusals, checkpoint corruption, and NaN losses.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::quiet(seed)
            .with_rate(FaultPoint::WorkerPanic, 0.25)
            .with_rate(FaultPoint::QueueSaturation, 0.10)
            .with_rate(FaultPoint::CheckpointFlip, 0.50)
            .with_rate(FaultPoint::CheckpointTruncate, 0.10)
            .with_rate(FaultPoint::NanLoss, 0.20)
    }

    /// Returns the plan with `point`'s firing probability set to `rate`.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is outside `[0, 1]`.
    pub fn with_rate(mut self, point: FaultPoint, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} outside [0, 1]"
        );
        self.rates[point.index()] = rate;
        self
    }

    /// The firing probability configured for `point`.
    pub fn rate(&self, point: FaultPoint) -> f64 {
        self.rates[point.index()]
    }

    /// Parses a `SQVAE_FAULTS`-style spec: comma-separated `key=value`
    /// pairs (`seed` plus any [`FaultPoint::key`]), or the literal `on` /
    /// `1` for [`FaultPlan::chaos`] with seed 42.
    ///
    /// # Errors
    ///
    /// A message naming the offending token and the accepted keys.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("on") || spec == "1" {
            return Ok(FaultPlan::chaos(42));
        }
        let mut plan = FaultPlan::default();
        for token in spec.split(',').filter(|t| !t.trim().is_empty()) {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("fault token `{token}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("fault seed `{value}` is not a u64"))?;
                continue;
            }
            let point = ALL_FAULT_POINTS
                .iter()
                .copied()
                .find(|p| p.key() == key)
                .ok_or_else(|| {
                    format!(
                        "unknown fault point `{key}` (accepted: seed, worker_panic, \
                         queue_saturation, checkpoint_flip, checkpoint_truncate, nan_loss)"
                    )
                })?;
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("fault rate `{value}` for `{key}` is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} for `{key}` outside [0, 1]"));
            }
            plan = plan.with_rate(point, rate);
        }
        Ok(plan)
    }

    /// Reads the plan from `SQVAE_FAULTS`. Unset → `None`; a malformed
    /// value warns once on stderr and counts as unset (matching the
    /// `SQVAE_THREADS` typo policy).
    pub fn from_env() -> Option<Self> {
        let spec = std::env::var("SQVAE_FAULTS").ok()?;
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(msg) => {
                eprintln!("sqvae: ignoring SQVAE_FAULTS={spec:?}: {msg}");
                None
            }
        }
    }
}

/// How often each point was consulted and how often it fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// [`trigger`] calls per point, index order of [`ALL_FAULT_POINTS`].
    pub checked: [u64; N_FAULT_POINTS],
    /// Faults actually injected per point.
    pub fired: [u64; N_FAULT_POINTS],
}

impl FaultStats {
    /// Injections recorded at `point`.
    pub fn fired_at(&self, point: FaultPoint) -> u64 {
        self.fired[point.index()]
    }

    /// [`trigger`] consultations recorded at `point`.
    pub fn checked_at(&self, point: FaultPoint) -> u64 {
        self.checked[point.index()]
    }

    /// Total injections across every point.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }
}

struct Injector {
    plan: FaultPlan,
    /// One stream per point, seeded `plan.seed ^ point-tag`.
    rngs: [StdRng; N_FAULT_POINTS],
    stats: FaultStats,
}

impl Injector {
    fn new(plan: FaultPlan) -> Self {
        Injector {
            plan,
            rngs: std::array::from_fn(|i| {
                StdRng::seed_from_u64(plan.seed ^ (0x5157_4145_u64 << 8 | i as u64))
            }),
            stats: FaultStats::default(),
        }
    }

    fn trigger(&mut self, point: FaultPoint) -> Option<u64> {
        let i = point.index();
        self.stats.checked[i] += 1;
        let rate = self.plan.rates[i];
        if rate <= 0.0 {
            return None;
        }
        let rng = &mut self.rngs[i];
        // Two draws per consultation (decision + payload) keeps the stream
        // position independent of whether the fault fired.
        let decision = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let payload = rng.next_u64();
        if decision < rate {
            self.stats.fired[i] += 1;
            Some(payload)
        } else {
            None
        }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static INJECTOR: Mutex<Option<Injector>> = Mutex::new(None);

fn injector() -> std::sync::MutexGuard<'static, Option<Injector>> {
    INJECTOR.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `plan` globally, replacing any previous plan and resetting the
/// per-point streams and counters.
pub fn install(plan: FaultPlan) {
    *injector() = Some(Injector::new(plan));
    ACTIVE.store(true, Ordering::Release);
}

/// Installs the plan from `SQVAE_FAULTS` when the variable is set. Returns
/// whether a plan was installed.
pub fn install_from_env() -> bool {
    match FaultPlan::from_env() {
        Some(plan) => {
            install(plan);
            true
        }
        None => false,
    }
}

/// Removes any installed plan; every [`trigger`] reverts to the free path.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *injector() = None;
}

/// Whether a plan is installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Consults the injector at `point`. `None` means proceed normally;
/// `Some(payload)` means inject the fault, with `payload` as deterministic
/// randomness for shaping it (e.g. which byte of a checkpoint to flip).
#[inline]
pub fn trigger(point: FaultPoint) -> Option<u64> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    injector().as_mut().and_then(|inj| inj.trigger(point))
}

/// Counters of the installed plan (`None` when inactive).
pub fn stats() -> Option<FaultStats> {
    injector().as_ref().map(|inj| inj.stats)
}

/// RAII guard: installs a plan on construction, [`clear`]s on drop. The
/// injector is process-global — tests using it must run in a test binary
/// of their own and serialize themselves (the chaos suite and
/// `crates/core/tests/faults.rs` each hold a gate mutex for exactly this
/// reason).
#[derive(Debug)]
pub struct FaultScope(());

impl FaultScope {
    /// Installs `plan` and returns the guard that uninstalls it.
    pub fn install(plan: FaultPlan) -> Self {
        install(plan);
        FaultScope(())
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        clear();
    }
}

#[cfg(test)]
mod tests {
    // Tests that install or clear a plan live in `tests/faults.rs`, their
    // own process: the injector is global, and checkpoint or trainer unit
    // tests running alongside would consult (and be faulted by) their plans.
    use super::*;

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        let plan =
            FaultPlan::parse("seed=9, worker_panic=0.25, nan_loss=1.0, checkpoint_flip=0").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.rate(FaultPoint::WorkerPanic), 0.25);
        assert_eq!(plan.rate(FaultPoint::NanLoss), 1.0);
        assert_eq!(plan.rate(FaultPoint::CheckpointFlip), 0.0);
        assert_eq!(plan.rate(FaultPoint::QueueSaturation), 0.0);

        assert_eq!(FaultPlan::parse("on").unwrap(), FaultPlan::chaos(42));
        assert_eq!(FaultPlan::parse("1").unwrap(), FaultPlan::chaos(42));
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());

        assert!(FaultPlan::parse("worker_panic").is_err());
        assert!(FaultPlan::parse("warp_core_breach=0.5").is_err());
        assert!(FaultPlan::parse("worker_panic=1.5").is_err());
        assert!(FaultPlan::parse("seed=banana").is_err());
        assert!(FaultPlan::parse("worker_panic=x").is_err());
        assert!(FaultPlan::parse("worker_panic=1.0, worker=0").is_err());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn with_rate_rejects_out_of_range() {
        let _ = FaultPlan::default().with_rate(FaultPoint::NanLoss, 2.0);
    }
}
