//! Simulator-backend selection policy.
//!
//! The quantum substrate (`sqvae-quantum`) exposes a `Backend` trait with
//! two register implementations; *which* one a model's quantum layers use
//! is an execution policy, exactly like the [`crate::Threads`]
//! row-parallelism policy that lives next door. [`BackendKind`] names the
//! available choices and parses from the `SQVAE_BACKEND` environment
//! variable (read only by [`crate::ExecPolicy::from_env`]) and from
//! checkpoint files. It travels inside an [`crate::ExecPolicy`]: every
//! model starts from the environment's, and
//! [`crate::Module::set_exec_policy`] changes one model's. Layers without a
//! simulator inside simply ignore it.
//!
//! Both backends compute the same quantities; selections differ only in
//! wall-clock (and, at the ~1e-15 level, in floating-point rounding, since
//! the structure-of-arrays kernels reorder arithmetic). For a fixed
//! selection, results are fully deterministic.

use std::fmt;
use std::str::FromStr;

/// Which simulator backend the quantum layers execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The dense reference statevector kernels (one pass per gate over
    /// interleaved amplitudes): the fastest to train at the paper's
    /// 5–7-qubit patch sizes.
    Dense,
    /// Structure-of-arrays dense amplitudes: split re/im `f64` planes whose
    /// branch-free unit-stride kernels autovectorize into packed FMA, with
    /// cache-blocked tape execution — faster forward passes and readouts on
    /// large registers (12–14 qubits).
    Soa,
}

impl BackendKind {
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
    /// `dense`). `fused` — the name of a removed backend that kept the dense
    /// backend's interleaved amplitudes — is an alias of `dense`, so
    /// environment settings and checkpoints that name it still load.
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
    fn env_spec_typo_falls_back_to_dense() {
        // The environment reader warns once on stderr; the value still resolves.
        let backend = |spec| crate::ExecPolicy::from_specs(None, Some(spec)).backend;
        assert_eq!(backend("fusd"), BackendKind::Dense);
        // The `fused` alias parses (no warning path) and means dense.
        assert_eq!(backend("fused"), BackendKind::Dense);
        assert_eq!(backend("soa"), BackendKind::Soa);
        assert_eq!(backend(""), BackendKind::Dense);
    }

    #[test]
    fn names_round_trip() {
        for kind in [BackendKind::Dense, BackendKind::Soa] {
            assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
            assert_eq!(format!("{kind}"), kind.name());
        }
    }
}
