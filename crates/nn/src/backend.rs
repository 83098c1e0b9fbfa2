//! The simulator-backend tag.
//!
//! Every quantum layer runs one simulator: its rows as the lanes of a
//! register bank, each lane bit-identical to the per-row dense
//! `StateVector` (`sqvae-quantum`). [`BackendKind`] is the name checkpoint
//! files record for it. It parses the names earlier builds wrote, `fused`
//! and `soa` (two removed backends), as aliases of `dense`, so their
//! checkpoints still load, and it rides in [`crate::ExecPolicy`] as a
//! field that always reads [`BackendKind::Dense`].

use std::fmt;
use std::str::FromStr;

/// Which simulator backend the quantum layers execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The dense statevector semantics, run as register-bank lanes.
    Dense,
}

impl BackendKind {
    /// Short lowercase name (`dense`), matching what [`FromStr`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
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

    /// Parses `dense` (surrounding whitespace ignored; empty means `dense`).
    /// `fused` and `soa` — the names of removed backends that computed the
    /// same quantities — are aliases of `dense`, so checkpoints that name
    /// them still load.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "" | "dense" | "fused" | "soa" => Ok(BackendKind::Dense),
            other => Err(format!(
                "invalid backend spec '{other}' (want dense; fused and soa are aliases of dense)"
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
        assert_eq!("soa".parse::<BackendKind>(), Ok(BackendKind::Dense));
        let err = "gpu".parse::<BackendKind>().unwrap_err();
        for accepted in ["dense", "soa", "fused"] {
            assert!(
                err.contains(accepted),
                "typo warning must list {accepted}: {err}"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        let kind = BackendKind::Dense;
        assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
        assert_eq!(format!("{kind}"), kind.name());
    }
}
