//! Execution policy for every model.
//!
//! [`ExecPolicy`] holds the execution knob — batch-row parallelism — in one
//! value. Every quantum layer, every `Linear` and every autoencoder starts
//! from [`ExecPolicy::from_env`], the only code that reads `SQVAE_THREADS`,
//! and a model's policy changes only through
//! [`crate::Module::set_exec_policy`], which containers forward to every
//! layer. Quantum layers shard their register-bank chunks under it, and
//! `Linear` its products. No thread setting changes a result: every one is
//! bit-identical.

use crate::backend::BackendKind;
use crate::parallel::Threads;
use std::sync::OnceLock;

/// Environment variable holding the starting [`Threads`].
const THREADS_ENV_VAR: &str = "SQVAE_THREADS";

/// How a model executes: batch-row parallelism (quantum rows and classical
/// products).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Batch-row parallelism policy.
    pub threads: Threads,
    /// The simulator backend: always [`BackendKind::Dense`], the one
    /// simulator there is.
    pub backend: BackendKind,
}

impl ExecPolicy {
    /// The policy every model starts with, read from the environment once
    /// per process: `SQVAE_THREADS` (`auto` when unset or empty, `off`/`0`,
    /// or a thread count). An unparseable value falls back to `auto` after
    /// one stderr warning naming it, instead of silently running a typo
    /// like `SQVAE_THREADS=of`.
    pub fn from_env() -> Self {
        static POLICY: OnceLock<ExecPolicy> = OnceLock::new();
        *POLICY.get_or_init(|| Self::from_spec(std::env::var(THREADS_ENV_VAR).ok().as_deref()))
    }

    /// The policy an environment value selects, `None` for an unset one.
    pub(crate) fn from_spec(threads: Option<&str>) -> Self {
        let threads = match threads.map(str::parse) {
            None => Threads::Auto,
            Some(Ok(t)) => t,
            Some(Err(err)) => {
                eprintln!("warning: {THREADS_ENV_VAR}: {err}; falling back to Auto");
                Threads::Auto
            }
        };
        ExecPolicy {
            threads,
            backend: BackendKind::Dense,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reader_parses_each_value_and_falls_back_on_typos() {
        let read = |spec| ExecPolicy::from_spec(spec).threads;
        assert_eq!(read(None), Threads::Auto);
        assert_eq!(read(Some("")), Threads::Auto);
        assert_eq!(read(Some("3")), Threads::Fixed(3));
        assert_eq!(read(Some("off")), Threads::Off);
        // A typo warns once and falls back to the unset default.
        assert_eq!(read(Some("of")), Threads::Auto);
        assert_eq!(ExecPolicy::from_spec(Some("2")).backend, BackendKind::Dense);
    }
}
