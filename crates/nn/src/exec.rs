//! Execution policy for every model.
//!
//! [`ExecPolicy`] bundles the two execution knobs — batch-row parallelism
//! and simulator backend — into one value. Every quantum layer, every
//! `Linear` and every autoencoder starts from [`ExecPolicy::from_env`], the
//! only code that reads `SQVAE_THREADS` and `SQVAE_BACKEND`, and a model's
//! policy changes only through [`crate::Module::set_exec_policy`], which
//! containers forward to every layer. Quantum layers apply both knobs;
//! `Linear` shards its products under the threads. Neither knob changes a
//! result: every thread setting is bit-identical, and the backends agree
//! to ~1e-15.

use crate::backend::BackendKind;
use crate::parallel::Threads;
use std::fmt::Debug;
use std::str::FromStr;
use std::sync::OnceLock;

/// Environment variable holding the starting [`Threads`].
const THREADS_ENV_VAR: &str = "SQVAE_THREADS";

/// Environment variable holding the starting [`BackendKind`].
const BACKEND_ENV_VAR: &str = "SQVAE_BACKEND";

/// How a model executes: batch-row parallelism (quantum rows and classical
/// products) plus simulator backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Batch-row parallelism policy.
    pub threads: Threads,
    /// Simulator backend selection.
    pub backend: BackendKind,
}

impl ExecPolicy {
    /// The policy every model starts with, read from the environment once
    /// per process: `SQVAE_THREADS` (`auto` when unset or empty, `off`/`0`,
    /// or a thread count) and `SQVAE_BACKEND` (`dense` when unset or empty,
    /// or `soa`; `fused` is an alias of `dense`). An unparseable value falls
    /// back to that default after one stderr warning naming it, instead of
    /// silently running a typo like `SQVAE_THREADS=of`.
    pub fn from_env() -> Self {
        static POLICY: OnceLock<ExecPolicy> = OnceLock::new();
        *POLICY.get_or_init(|| {
            let var = |name| std::env::var(name).ok();
            Self::from_specs(
                var(THREADS_ENV_VAR).as_deref(),
                var(BACKEND_ENV_VAR).as_deref(),
            )
        })
    }

    /// The policy two environment values select, `None` for an unset one.
    pub(crate) fn from_specs(threads: Option<&str>, backend: Option<&str>) -> Self {
        ExecPolicy {
            threads: parse_or(THREADS_ENV_VAR, threads, Threads::Auto),
            backend: parse_or(BACKEND_ENV_VAR, backend, BackendKind::Dense),
        }
    }
}

/// Parses one environment value, warning on stderr and returning
/// `fallback` when it does not parse.
fn parse_or<T: FromStr<Err = String> + Debug>(var: &str, raw: Option<&str>, fallback: T) -> T {
    match raw.map(str::parse) {
        None => fallback,
        Some(Ok(v)) => v,
        Some(Err(err)) => {
            eprintln!("warning: {var}: {err}; falling back to {fallback:?}");
            fallback
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reader_parses_each_value_and_falls_back_on_typos() {
        let read = ExecPolicy::from_specs;
        let default = ExecPolicy {
            threads: Threads::Auto,
            backend: BackendKind::Dense,
        };
        assert_eq!(read(None, None), default);
        assert_eq!(read(Some(""), Some("")), default);
        assert_eq!(
            read(Some("3"), Some("soa")),
            ExecPolicy {
                threads: Threads::Fixed(3),
                backend: BackendKind::Soa,
            }
        );
        assert_eq!(read(Some("off"), Some("fused")).threads, Threads::Off);
        assert_eq!(read(Some("off"), Some("fused")).backend, BackendKind::Dense);
        // Typos warn once each and fall back to the unset default, one
        // variable at a time.
        assert_eq!(read(Some("of"), Some("sao")), default);
        assert_eq!(read(Some("of"), Some("soa")).backend, BackendKind::Soa);
        assert_eq!(read(Some("2"), Some("fusd")).threads, Threads::Fixed(2));
    }
}
