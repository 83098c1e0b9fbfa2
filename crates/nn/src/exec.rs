//! Unified execution policy for quantum-bearing models.
//!
//! [`ExecPolicy`] bundles the two execution knobs — batch-row parallelism
//! and simulator backend — into one value with one setter
//! ([`crate::Module::set_exec_policy`]), the only path either knob travels
//! from a trainer config or experiment flag down through every container
//! and layer.

use crate::backend::BackendKind;
use crate::parallel::Threads;

/// How a model executes its quantum workload: batch-row parallelism plus
/// simulator backend, carried as one value from `TrainConfig` / `ExpArgs`
/// down to every quantum stage.
///
/// The default matches layer construction defaults (sequential, dense);
/// [`ExecPolicy::from_env`] matches the trainer's environment-driven
/// defaults (`SQVAE_THREADS`, `SQVAE_BACKEND`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Batch-row parallelism policy.
    pub threads: Threads,
    /// Simulator backend selection.
    pub backend: BackendKind,
}

impl ExecPolicy {
    /// Creates a policy from both knobs.
    pub fn new(threads: Threads, backend: BackendKind) -> Self {
        ExecPolicy { threads, backend }
    }

    /// Reads both knobs from the environment (`SQVAE_THREADS`,
    /// `SQVAE_BACKEND`), warning once on stderr about unparseable values.
    pub fn from_env() -> Self {
        ExecPolicy {
            threads: Threads::from_env(),
            backend: BackendKind::from_env(),
        }
    }

    /// Returns the policy with a different thread setting.
    #[must_use]
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the policy with a different backend selection.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_layer_construction_defaults() {
        let p = ExecPolicy::default();
        assert_eq!(p.threads, Threads::Off);
        assert_eq!(p.backend, BackendKind::Dense);
    }

    #[test]
    fn builders_set_each_knob() {
        let p = ExecPolicy::default()
            .with_threads(Threads::Fixed(3))
            .with_backend(BackendKind::Soa);
        assert_eq!(p, ExecPolicy::new(Threads::Fixed(3), BackendKind::Soa));
    }
}
