//! Simulator-backend selection policy.
//!
//! The quantum substrate (`sqvae-quantum`) exposes a `Backend` trait with
//! two register implementations; *which* one a model's quantum layers use
//! is a training-time policy, exactly like the [`crate::Threads`]
//! row-parallelism policy that lives next door. [`BackendKind`] names the
//! available choices, parses from the `SQVAE_BACKEND` environment variable,
//! `--backend` experiment flags and checkpoint files, and travels inside an
//! [`crate::ExecPolicy`] through [`crate::Module::set_exec_policy`] from the
//! trainer down to every quantum stage. Layers without a simulator inside
//! simply ignore it.
//!
//! Both backends compute the same quantities; selections differ only in
//! wall-clock (and, at the ~1e-15 level, in floating-point rounding, since
//! the structure-of-arrays kernels reorder arithmetic). For a fixed
//! selection, results are fully deterministic.

use std::fmt;
use std::str::FromStr;

/// Name of the environment variable read by [`BackendKind::from_env`].
pub const BACKEND_ENV_VAR: &str = "SQVAE_BACKEND";

/// Which simulator backend the quantum layers execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The dense reference statevector kernels (one pass per gate over
    /// interleaved amplitudes): the fastest to train at the paper's
    /// 5–7-qubit patch sizes.
    #[default]
    Dense,
    /// Structure-of-arrays dense amplitudes: split re/im `f64` planes whose
    /// branch-free unit-stride kernels autovectorize into packed FMA, with
    /// cache-blocked tape execution — faster forward passes and readouts on
    /// large registers (12–14 qubits).
    Soa,
}

impl BackendKind {
    /// Reads the policy from the `SQVAE_BACKEND` environment variable:
    /// unset, empty, `dense`, or `fused` → [`BackendKind::Dense`]; `soa` →
    /// [`BackendKind::Soa`]. Unparseable values fall back to the default
    /// (dense) after a one-time stderr warning (see
    /// [`BackendKind::from_env_spec`]).
    pub fn from_env() -> Self {
        match std::env::var(BACKEND_ENV_VAR) {
            Ok(v) => Self::from_env_spec(&v),
            Err(_) => BackendKind::default(),
        }
    }

    /// Parses an environment-supplied spec, falling back to the default
    /// (dense) on an unparseable value — but **warning once** on stderr,
    /// naming the bad value and the accepted ones, instead of silently
    /// running a typo like `SQVAE_BACKEND=sao` on the dense backend.
    pub fn from_env_spec(raw: &str) -> Self {
        raw.parse().unwrap_or_else(|err| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!("warning: {BACKEND_ENV_VAR}: {err}; falling back to 'dense'");
            });
            BackendKind::default()
        })
    }

    /// Short lowercase name (`dense` / `soa`), matching what [`FromStr`]
    /// accepts.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Soa => "soa",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    /// Parses `dense` or `soa` (surrounding whitespace ignored; empty means
    /// the default). `fused` — the name of a removed backend that kept the
    /// dense backend's interleaved amplitudes — is an alias of `dense`, so
    /// environment settings, experiment flags and checkpoints that name it
    /// still load.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "" | "dense" | "fused" => Ok(BackendKind::Dense),
            "soa" => Ok(BackendKind::Soa),
            other => Err(format!(
                "invalid backend spec '{other}' (want dense or soa; fused is an alias of dense)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_backend_specs() {
        assert_eq!("dense".parse::<BackendKind>(), Ok(BackendKind::Dense));
        assert_eq!("".parse::<BackendKind>(), Ok(BackendKind::Dense));
        assert_eq!("fused".parse::<BackendKind>(), Ok(BackendKind::Dense));
        assert_eq!(" fused ".parse::<BackendKind>(), Ok(BackendKind::Dense));
        assert_eq!("soa".parse::<BackendKind>(), Ok(BackendKind::Soa));
        let err = "gpu".parse::<BackendKind>().unwrap_err();
        for accepted in ["dense", "soa", "fused"] {
            assert!(
                err.contains(accepted),
                "typo warning must list {accepted}: {err}"
            );
        }
    }

    #[test]
    fn default_is_dense() {
        assert_eq!(BackendKind::default(), BackendKind::Dense);
    }

    #[test]
    fn env_spec_typo_falls_back_to_dense() {
        // The warning is emitted once on stderr; the value still resolves.
        assert_eq!(BackendKind::from_env_spec("fusd"), BackendKind::Dense);
        // The `fused` alias parses (no warning path) and means dense.
        assert_eq!(BackendKind::from_env_spec("fused"), BackendKind::Dense);
        assert_eq!(BackendKind::from_env_spec("soa"), BackendKind::Soa);
        assert_eq!(BackendKind::from_env_spec(""), BackendKind::Dense);
    }

    #[test]
    fn names_round_trip() {
        for kind in [BackendKind::Dense, BackendKind::Soa] {
            assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
            assert_eq!(format!("{kind}"), kind.name());
        }
    }
}
