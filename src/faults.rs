//! Deterministic fault injection — the chaos-testing entry point.
//!
//! Re-exports [`sqvae_core::faults`] under the facade so the serving stack
//! ([`crate::serve`]), the trainer, and the checkpoint writer all consult
//! **one** global injector. The injection points:
//!
//! | Point | Where it bites | What it exercises |
//! |---|---|---|
//! | [`FaultPoint::WorkerPanic`] | the serving engine, with a batch in flight | supervisor respawn, [`crate::serve::ServeError::WorkerGone`] for that batch |
//! | [`FaultPoint::QueueSaturation`] | [`crate::serve::InferenceServer::submit`] | [`crate::serve::ServeError::QueueFull`] backpressure + [`crate::serve::RetryPolicy`] |
//! | [`FaultPoint::CheckpointFlip`] | after a checkpoint save | checksum detection + `.bak` recovery |
//! | [`FaultPoint::CheckpointTruncate`] | after a checkpoint save | truncation detection + `.bak` recovery |
//! | [`FaultPoint::NanLoss`] | a training batch's loss | trainer snapshot rollback guard |
//!
//! Enable with [`install`] / [`FaultScope`] in tests, or set `SQVAE_FAULTS`
//! (e.g. `seed=42,worker_panic=0.25,nan_loss=0.2`, or `on` for
//! [`FaultPlan::chaos`]) and call [`install_from_env`]. With no plan
//! installed every [`trigger`] is one relaxed atomic load — the hot paths
//! pay nothing. Each point draws from its own seeded stream. See
//! `tests/chaos.rs` for the full harness in action.

pub use sqvae_core::faults::{
    active, clear, install, install_from_env, stats, trigger, FaultPlan, FaultPoint, FaultScope,
    FaultStats, ALL_FAULT_POINTS, N_FAULT_POINTS,
};
