//! Fault-injector behaviour under installed plans.
//!
//! The injector is process-global, so every test that installs (or clears)
//! a plan lives in this binary, where nothing else consults it: in the
//! library's unit-test binary, checkpoint saves and trainer batches would
//! draw from these plans — and be corrupted by them — while they run. The
//! tests here still share one process, so each holds `GATE` for its whole
//! body.

use sqvae_core::faults::{self, clear, stats, trigger, FaultPlan, FaultPoint, FaultScope};
use std::sync::{Mutex, MutexGuard, PoisonError};

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn disabled_is_silent() {
    let _gate = gate();
    clear();
    assert!(!faults::active());
    assert_eq!(trigger(FaultPoint::WorkerPanic), None);
    assert_eq!(stats(), None);
}

#[test]
fn zero_rate_never_fires_and_full_rate_always_fires() {
    let _gate = gate();
    let _scope = FaultScope::install(FaultPlan::quiet(7).with_rate(FaultPoint::NanLoss, 1.0));
    for _ in 0..32 {
        assert_eq!(trigger(FaultPoint::WorkerPanic), None);
        assert!(trigger(FaultPoint::NanLoss).is_some());
    }
    let s = stats().unwrap();
    assert_eq!(s.fired_at(FaultPoint::NanLoss), 32);
    assert_eq!(s.checked_at(FaultPoint::NanLoss), 32);
    assert_eq!(s.fired_at(FaultPoint::WorkerPanic), 0);
    assert_eq!(s.checked_at(FaultPoint::WorkerPanic), 32);
    assert_eq!(s.total_fired(), 32);
}

#[test]
fn same_plan_reproduces_the_same_fault_sequence() {
    let _gate = gate();
    let run = || -> Vec<Option<u64>> {
        let _scope =
            FaultScope::install(FaultPlan::quiet(42).with_rate(FaultPoint::CheckpointFlip, 0.5));
        (0..64)
            .map(|_| trigger(FaultPoint::CheckpointFlip))
            .collect()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(a.iter().any(|t| t.is_some()));
    assert!(a.iter().any(|t| t.is_none()));
}

#[test]
fn points_draw_from_independent_streams() {
    let _gate = gate();
    // Interleave consultations of a second point between runs; the first
    // point's outcomes must not move.
    let run = |interleave: bool| -> Vec<Option<u64>> {
        let _scope = FaultScope::install(
            FaultPlan::quiet(3)
                .with_rate(FaultPoint::WorkerPanic, 0.5)
                .with_rate(FaultPoint::NanLoss, 0.5),
        );
        (0..32)
            .map(|_| {
                if interleave {
                    let _ = trigger(FaultPoint::NanLoss);
                }
                trigger(FaultPoint::WorkerPanic)
            })
            .collect()
    };
    assert_eq!(run(false), run(true));
}
