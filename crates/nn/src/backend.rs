//! The simulator-backend tag.
//!
//! Every quantum layer runs one simulator: its rows as the lanes of a
//! register bank, each lane bit-identical to the per-row dense
//! `StateVector` (`sqvae-quantum`). [`BackendKind`] names it, and it rides
//! in [`crate::ExecPolicy`] as a field that always reads
//! [`BackendKind::Dense`].

/// Which simulator backend the quantum layers execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The dense statevector semantics, run as register-bank lanes.
    Dense,
}

impl BackendKind {
    /// Short lowercase name (`dense`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
        }
    }
}
