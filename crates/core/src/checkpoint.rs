//! Model checkpointing: persist a trained [`Autoencoder`] and rebuild it.
//!
//! A checkpoint is a self-describing binary file:
//!
//! ```text
//! magic "SQVAECKP" (8 bytes)
//! format version   (u32 LE)
//! body length      (u64 LE)
//! body             (see below)
//! FNV-1a-64 of body (u64 LE)
//! ```
//!
//! The body carries the model name, the [`ModelSpec`] architecture tag (so
//! loading can call the same `models::*` factory that built the model), a
//! simulator tag (written as `dense`; an empty tag and the tags of two
//! removed backends, `fused` and `soa`, load as aliases of it, and any other
//! tag is corrupt), the RNG seed recorded at save time, and the parameter
//! tensors of both optimizer groups. Floats travel as IEEE-754 bit patterns
//! ([`sqvae_nn::serialize`]), so a save → load round trip reconstructs
//! **bit-identically** — `reconstruct` on the loaded model produces the same
//! bits as on the original.
//!
//! Corrupt input is a typed [`CheckpointError`], never a panic: truncation
//! surfaces as [`CheckpointError::Io`] (`UnexpectedEof`), bit flips as
//! [`CheckpointError::ChecksumMismatch`], format drift as
//! [`CheckpointError::UnsupportedVersion`]. An architecture tag no factory
//! can build, or one implying more parameters than the file stores, is
//! [`CheckpointError::Corrupt`] before any model is allocated. A NaN or
//! infinite parameter is [`CheckpointError::NonFinite`]: it is refused on
//! load, and no save writes one.
//!
//! Saves are **crash-safe**: [`Checkpoint::save`] writes a temp sibling,
//! fsyncs it, and renames it into place, keeping the previous generation
//! as `<path>.bak`; [`Checkpoint::load_or_recover`] falls back to that
//! backup when the primary is corrupt or missing. A crash at any moment of
//! a save therefore never destroys the last good checkpoint.
//!
//! ## Example: save, reload, verify
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use sqvae_core::checkpoint::Checkpoint;
//! use sqvae_core::models;
//! use sqvae_nn::Matrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut model = models::sq_ae(16, 2, 1, &mut rng);
//! let ckpt = Checkpoint::capture(&mut model, 7)?;
//! let mut bytes = Vec::new();
//! ckpt.write_to(&mut bytes)?;
//!
//! let mut reloaded = Checkpoint::read_from(&bytes[..])?.build_model()?;
//! let x = Matrix::filled(2, 16, 0.5);
//! assert_eq!(model.reconstruct(&x)?, reloaded.reconstruct(&x)?);
//! # Ok(())
//! # }
//! ```

use crate::autoencoder::Autoencoder;
use crate::faults::{self, FaultPoint};
use crate::hybrid::ParamGroup;
use crate::models::ModelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae_nn::serialize::{
    read_matrix, read_string, read_u32, read_u64, write_matrix, write_string, write_u32, write_u64,
};
use sqvae_nn::Matrix;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic identifying a checkpoint.
pub const MAGIC: [u8; 8] = *b"SQVAECKP";

/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;

/// Upper bound on the serialized body (1 GiB) — rejects absurd headers
/// before any allocation.
pub const MAX_BODY_BYTES: u64 = 1 << 30;

/// Upper bound on the tensor count per parameter group.
pub const MAX_TENSORS_PER_GROUP: u32 = 1 << 16;

/// Everything that can go wrong saving or loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure; truncated files surface as `UnexpectedEof`.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The body's FNV-1a-64 digest does not match the stored one.
    ChecksumMismatch,
    /// Structurally invalid content (bad tags, trailing bytes, caps
    /// exceeded); the message says what.
    Corrupt(String),
    /// The model was assembled by hand, not a `models::*` factory, so it
    /// carries no [`ModelSpec`] and cannot be rebuilt from a file.
    MissingSpec,
    /// A stored tensor's shape differs from the target model's tensor.
    ShapeMismatch {
        /// Which optimizer group the tensor belongs to.
        group: ParamGroup,
        /// Index of the tensor within its group.
        index: usize,
        /// Shape the target model expects.
        expected: (usize, usize),
        /// Shape found in the snapshot.
        found: (usize, usize),
    },
    /// A parameter is NaN or infinite. A model holding it answers every
    /// input with NaN, so no checkpoint with one is written or loaded.
    NonFinite {
        /// Which optimizer group the tensor belongs to.
        group: ParamGroup,
        /// Index of the tensor within its group.
        index: usize,
        /// Row of the first non-finite value in the tensor.
        row: usize,
        /// Column of the first non-finite value in the tensor.
        col: usize,
    },
    /// The snapshot holds a different number of tensors than the target.
    TensorCountMismatch {
        /// Which optimizer group mismatched.
        group: ParamGroup,
        /// Tensor count the target model expects.
        expected: usize,
        /// Tensor count found in the snapshot.
        found: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "checkpoint format version {found} is newer than the supported {FORMAT_VERSION}"
            ),
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint body does not match its checksum")
            }
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::MissingSpec => write!(
                f,
                "model has no architecture spec (not built by a models::* factory)"
            ),
            CheckpointError::ShapeMismatch {
                group,
                index,
                expected,
                found,
            } => write!(
                f,
                "{group:?} tensor {index}: model expects {}x{}, checkpoint has {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            CheckpointError::NonFinite {
                group,
                index,
                row,
                col,
            } => write!(
                f,
                "{group:?} tensor {index}: value at ({row}, {col}) is not finite"
            ),
            CheckpointError::TensorCountMismatch {
                group,
                expected,
                found,
            } => write!(
                f,
                "{group:?} group: model has {expected} tensors, checkpoint has {found}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64-bit digest — tiny, dependency-free corruption detection (not
/// cryptographic).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A copy of a model's parameter values, split by optimizer group.
///
/// Used in two roles: the payload of a [`Checkpoint`], and the trainer's
/// in-memory last-good snapshot, which its non-finite guard rolls back to
/// (no architecture metadata needed when the target is the same live
/// model).
#[derive(Debug, Clone)]
pub struct ParamSnapshot {
    quantum: Vec<Matrix>,
    classical: Vec<Matrix>,
}

impl ParamSnapshot {
    /// Copies the current parameter values out of `model`.
    pub fn capture(model: &mut Autoencoder) -> Self {
        let quantum = model
            .parameters_of(ParamGroup::Quantum)
            .iter()
            .map(|p| p.value.clone())
            .collect();
        let classical = model
            .parameters_of(ParamGroup::Classical)
            .iter()
            .map(|p| p.value.clone())
            .collect();
        ParamSnapshot { quantum, classical }
    }

    /// Writes the snapshot's values back into `model`, group by group.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::TensorCountMismatch`] / [`CheckpointError::ShapeMismatch`]
    /// when `model`'s architecture differs from the snapshot's origin; the
    /// model is untouched in that case.
    pub fn restore(&self, model: &mut Autoencoder) -> Result<(), CheckpointError> {
        // Validate both groups fully before mutating anything.
        for (group, stored) in [
            (ParamGroup::Quantum, &self.quantum),
            (ParamGroup::Classical, &self.classical),
        ] {
            let params = model.parameters_of(group);
            if params.len() != stored.len() {
                return Err(CheckpointError::TensorCountMismatch {
                    group,
                    expected: params.len(),
                    found: stored.len(),
                });
            }
            for (index, (p, s)) in params.iter().zip(stored).enumerate() {
                if p.value.shape() != s.shape() {
                    return Err(CheckpointError::ShapeMismatch {
                        group,
                        index,
                        expected: p.value.shape(),
                        found: s.shape(),
                    });
                }
            }
        }
        for (group, stored) in [
            (ParamGroup::Quantum, &self.quantum),
            (ParamGroup::Classical, &self.classical),
        ] {
            for (p, s) in model.parameters_of(group).into_iter().zip(stored) {
                p.value = s.clone();
            }
        }
        Ok(())
    }

    /// Checks that every stored value is finite.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NonFinite`] naming the first NaN or infinity.
    fn check_finite(&self) -> Result<(), CheckpointError> {
        for (group, tensors) in [
            (ParamGroup::Quantum, &self.quantum),
            (ParamGroup::Classical, &self.classical),
        ] {
            for (index, m) in tensors.iter().enumerate() {
                if let Some(i) = m.as_slice().iter().position(|v| !v.is_finite()) {
                    return Err(CheckpointError::NonFinite {
                        group,
                        index,
                        row: i / m.cols(),
                        col: i % m.cols(),
                    });
                }
            }
        }
        Ok(())
    }

    fn write_group(w: &mut impl Write, group: &[Matrix]) -> io::Result<()> {
        write_u32(w, group.len() as u32)?;
        for m in group {
            write_matrix(w, m)?;
        }
        Ok(())
    }

    fn read_group(r: &mut impl Read) -> Result<Vec<Matrix>, CheckpointError> {
        let n = read_u32(r)?;
        if n > MAX_TENSORS_PER_GROUP {
            return Err(CheckpointError::Corrupt(format!(
                "{n} tensors in one group exceeds the cap"
            )));
        }
        let mut v = Vec::with_capacity(n as usize);
        for _ in 0..n {
            v.push(read_matrix(r)?);
        }
        Ok(v)
    }
}

/// A saved model: architecture descriptor, execution metadata, and the
/// trained parameter tensors.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Human-readable model name (e.g. `"SQ-VAE(p=8,lsd=56)"`).
    pub name: String,
    /// Architecture descriptor; [`Checkpoint::build_model`] feeds it back
    /// through the factory that built the original.
    pub spec: ModelSpec,
    /// RNG seed recorded by the caller at save time (provenance metadata —
    /// e.g. the training seed; not consumed on load).
    pub seed: u64,
    /// The parameter tensors of both optimizer groups.
    pub params: ParamSnapshot,
}

impl Checkpoint {
    /// Snapshots `model` into a checkpoint, recording `seed` as provenance.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingSpec`] when the model was not built by a
    /// `models::*` factory (nothing records its architecture).
    pub fn capture(model: &mut Autoencoder, seed: u64) -> Result<Self, CheckpointError> {
        let spec = model.spec().ok_or(CheckpointError::MissingSpec)?;
        Ok(Checkpoint {
            name: model.name.clone(),
            spec,
            seed,
            params: ParamSnapshot::capture(model),
        })
    }

    /// Rebuilds the model this checkpoint describes: factory-construct from
    /// the spec and overwrite every parameter with the saved tensors. Like
    /// every factory-built model, it starts from
    /// [`sqvae_nn::ExecPolicy::from_env`]: threads are a machine-local
    /// choice.
    ///
    /// # Errors
    ///
    /// Propagates [`ParamSnapshot::restore`] errors; impossible for a
    /// checkpoint produced by [`Checkpoint::capture`] unless the factory
    /// definitions changed since the file was written.
    pub fn build_model(&self) -> Result<Autoencoder, CheckpointError> {
        // The seed only places throwaway initial values; restore overwrites
        // every tensor. Reusing the recorded seed keeps the build fully
        // deterministic anyway.
        let mut model = self.spec.build(&mut StdRng::seed_from_u64(self.seed));
        self.params.restore(&mut model)?;
        Ok(model)
    }

    /// Serializes the checkpoint to `w` (magic, version, body, checksum).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NonFinite`] (before anything is written) when a
    /// parameter is NaN or infinite; otherwise propagates writer errors.
    pub fn write_to(&self, mut w: impl Write) -> Result<(), CheckpointError> {
        self.params.check_finite()?;
        let mut body = Vec::new();
        write_string(&mut body, &self.name)?;
        write_string(&mut body, &self.spec.to_string())?;
        write_string(&mut body, "dense")?;
        write_u64(&mut body, self.seed)?;
        ParamSnapshot::write_group(&mut body, &self.params.quantum)?;
        ParamSnapshot::write_group(&mut body, &self.params.classical)?;

        w.write_all(&MAGIC)?;
        write_u32(&mut w, FORMAT_VERSION)?;
        write_u64(&mut w, body.len() as u64)?;
        w.write_all(&body)?;
        write_u64(&mut w, fnv1a64(&body))?;
        Ok(())
    }

    /// Deserializes a checkpoint written by [`Checkpoint::write_to`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`], [`CheckpointError::UnsupportedVersion`],
    /// [`CheckpointError::ChecksumMismatch`], [`CheckpointError::Corrupt`]
    /// (also for a spec no factory builds, or one implying more parameters
    /// than the file stores), [`CheckpointError::NonFinite`] for a NaN or
    /// infinite parameter, or [`CheckpointError::Io`] (truncation →
    /// `UnexpectedEof`).
    pub fn read_from(mut r: impl Read) -> Result<Self, CheckpointError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = read_u32(&mut r)?;
        if version > FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let body_len = read_u64(&mut r)?;
        if body_len > MAX_BODY_BYTES {
            return Err(CheckpointError::Corrupt(format!(
                "body length {body_len} exceeds the cap"
            )));
        }
        let mut body = vec![0u8; body_len as usize];
        r.read_exact(&mut body)?;
        let stored_digest = read_u64(&mut r)?;
        if fnv1a64(&body) != stored_digest {
            return Err(CheckpointError::ChecksumMismatch);
        }

        let mut b: &[u8] = &body;
        let name = read_string(&mut b)?;
        let spec_tag = read_string(&mut b)?;
        let spec: ModelSpec = spec_tag.parse().map_err(CheckpointError::Corrupt)?;
        // Every tag earlier builds wrote names the one simulator there is.
        match read_string(&mut b)?.trim() {
            "" | "dense" | "fused" | "soa" => {}
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "invalid backend tag '{other}' (want dense; fused and soa are aliases of dense)"
                )))
            }
        }
        let seed = read_u64(&mut b)?;
        let quantum = ParamSnapshot::read_group(&mut b)?;
        let classical = ParamSnapshot::read_group(&mut b)?;
        if !b.is_empty() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after the last tensor",
                b.len()
            )));
        }
        let stored: usize = quantum.iter().chain(&classical).map(Matrix::len).sum();
        if spec.parameter_count().map_or(true, |n| n > stored) {
            return Err(CheckpointError::Corrupt(format!(
                "model spec '{spec}' implies more parameters than the {stored} stored"
            )));
        }
        let params = ParamSnapshot { quantum, classical };
        params.check_finite()?;
        Ok(Checkpoint {
            name,
            spec,
            seed,
            params,
        })
    }

    /// Writes the checkpoint to `path` **crash-safely**: the bytes go to a
    /// sibling temp file first, are fsynced, and only then renamed over
    /// `path` — a crash at any instant leaves either the old generation or
    /// the new one, never a torn file. The previous generation (when one
    /// exists) survives as `<path>.bak`, which [`Checkpoint::load_or_recover`]
    /// falls back on if the primary is later found corrupt.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NonFinite`] (before any file is touched) when a
    /// parameter is NaN or infinite; otherwise propagates filesystem
    /// errors. A failed save leaves the previous checkpoint at `path`
    /// untouched.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.params.check_finite()?;
        let path = path.as_ref();
        let tmp = tmp_path(path);
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            self.write_to(&mut w)?;
            w.flush()?;
            // Durability point: the temp file's bytes hit the disk before
            // any rename makes them visible under the real name.
            w.get_ref().sync_all()?;
        }
        // Keep one backup generation: the current primary (if any) becomes
        // `<path>.bak` before the new file takes its name.
        match fs::rename(path, backup_path(path)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        fs::rename(&tmp, path)?;
        // Make the renames durable too, where the platform allows opening
        // a directory (errors here are ignored: the data itself is synced).
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        inject_save_faults(path)?;
        Ok(())
    }

    /// Reads a checkpoint from the file at `path` (buffered).
    ///
    /// # Errors
    ///
    /// See [`Checkpoint::read_from`]; plus filesystem errors opening the
    /// file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Checkpoint::read_from(BufReader::new(File::open(path)?))
    }

    /// Loads the checkpoint at `path`, falling back to its `.bak`
    /// generation when the primary is **corrupt** (bad magic, checksum
    /// mismatch, truncation, structural damage — the debris a crash mid-save
    /// or a torn write leaves behind). Reports which file answered.
    ///
    /// A *missing* primary also tries the backup: a crash between the two
    /// renames of [`Checkpoint::save`] leaves exactly that state.
    ///
    /// # Errors
    ///
    /// The primary's error when no backup exists or the backup is also
    /// unreadable, so callers see the most specific diagnosis.
    pub fn load_or_recover(
        path: impl AsRef<Path>,
    ) -> Result<(Self, RecoverySource), CheckpointError> {
        let path = path.as_ref();
        let primary_err = match Checkpoint::load(path) {
            Ok(ckpt) => return Ok((ckpt, RecoverySource::Primary)),
            Err(e) if e.is_corruption() || is_not_found(&e) => e,
            Err(e) => return Err(e),
        };
        match Checkpoint::load(backup_path(path)) {
            Ok(ckpt) => Ok((ckpt, RecoverySource::Backup)),
            Err(_) => Err(primary_err),
        }
    }
}

/// Which file satisfied a [`Checkpoint::load_or_recover`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// The primary checkpoint was intact.
    Primary,
    /// The primary was corrupt or missing; the `.bak` generation answered.
    Backup,
}

impl CheckpointError {
    /// Whether this error means the file's *content* is damaged (as opposed
    /// to absent, unreadable for I/O reasons, or architecturally
    /// incompatible) — the class of failure a `.bak` generation can heal. A
    /// non-finite parameter counts: the previous generation may predate the
    /// divergence that wrote it.
    pub fn is_corruption(&self) -> bool {
        match self {
            CheckpointError::BadMagic
            | CheckpointError::ChecksumMismatch
            | CheckpointError::Corrupt(_)
            | CheckpointError::NonFinite { .. } => true,
            // A truncated file runs out of bytes mid-read.
            CheckpointError::Io(e) => e.kind() == io::ErrorKind::UnexpectedEof,
            _ => false,
        }
    }
}

fn is_not_found(e: &CheckpointError) -> bool {
    matches!(e, CheckpointError::Io(io) if io.kind() == io::ErrorKind::NotFound)
}

/// The sibling path where [`Checkpoint::save`] parks the previous
/// generation: `<path>.bak`.
pub fn backup_path(path: impl AsRef<Path>) -> PathBuf {
    let mut p = path.as_ref().as_os_str().to_owned();
    p.push(".bak");
    PathBuf::from(p)
}

/// The scratch path [`Checkpoint::save`] writes before the atomic rename.
fn tmp_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".tmp");
    PathBuf::from(p)
}

/// Chaos hook: after a save lands, optionally damage the primary file the
/// way a torn write would — a deterministic bit flip or truncation driven
/// by the installed [`crate::faults`] plan. A no-op unless a plan with a
/// nonzero checkpoint rate is active.
fn inject_save_faults(path: &Path) -> Result<(), CheckpointError> {
    if !faults::active() {
        return Ok(());
    }
    if let Some(payload) = faults::trigger(FaultPoint::CheckpointFlip) {
        let len = fs::metadata(path)?.len();
        if len > 0 {
            let mut f = OpenOptions::new().read(true).write(true).open(path)?;
            let offset = payload % len;
            f.seek(SeekFrom::Start(offset))?;
            let mut byte = [0u8; 1];
            f.read_exact(&mut byte)?;
            byte[0] ^= 1 << ((payload >> 32) % 8) as u8;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(&byte)?;
        }
    }
    if let Some(payload) = faults::trigger(FaultPoint::CheckpointTruncate) {
        let len = fs::metadata(path)?.len();
        if len > 0 {
            let keep = payload % len;
            OpenOptions::new().write(true).open(path)?.set_len(keep)?;
        }
    }
    Ok(())
}

/// Convenience: snapshot `model` (recording `seed`) and save it to `path`.
///
/// # Errors
///
/// See [`Checkpoint::capture`] and [`Checkpoint::save`].
pub fn save_model(
    model: &mut Autoencoder,
    seed: u64,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    Checkpoint::capture(model, seed)?.save(path)
}

/// Convenience: load the checkpoint at `path` and rebuild its model.
///
/// # Errors
///
/// See [`Checkpoint::load`] and [`Checkpoint::build_model`].
pub fn load_model(path: impl AsRef<Path>) -> Result<Autoencoder, CheckpointError> {
    Checkpoint::load(path)?.build_model()
}

/// Convenience: [`Checkpoint::load_or_recover`] + rebuild — the loader the
/// serving stack uses, so a corrupted primary heals from `.bak` instead of
/// failing every request that targets it.
///
/// # Errors
///
/// See [`Checkpoint::load_or_recover`] and [`Checkpoint::build_model`].
pub fn load_model_or_recover(
    path: impl AsRef<Path>,
) -> Result<(Autoencoder, RecoverySource), CheckpointError> {
    let (ckpt, source) = Checkpoint::load_or_recover(path)?;
    Ok((ckpt.build_model()?, source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use sqvae_nn::ExecPolicy;

    fn model() -> Autoencoder {
        models::sq_vae(16, 2, 1, &mut StdRng::seed_from_u64(3))
    }

    /// The bytes of `ckpt` with `tag` as its simulator tag, as a writer that
    /// records that tag (and no finiteness check) produces them.
    fn bytes_tagged(ckpt: &Checkpoint, tag: &str) -> Vec<u8> {
        let mut body = Vec::new();
        write_string(&mut body, &ckpt.name).unwrap();
        write_string(&mut body, &ckpt.spec.to_string()).unwrap();
        write_string(&mut body, tag).unwrap();
        write_u64(&mut body, ckpt.seed).unwrap();
        ParamSnapshot::write_group(&mut body, &ckpt.params.quantum).unwrap();
        ParamSnapshot::write_group(&mut body, &ckpt.params.classical).unwrap();
        let mut bytes = MAGIC.to_vec();
        write_u32(&mut bytes, FORMAT_VERSION).unwrap();
        write_u64(&mut bytes, body.len() as u64).unwrap();
        bytes.extend_from_slice(&body);
        write_u64(&mut bytes, fnv1a64(&body)).unwrap();
        bytes
    }

    /// Loads `bytes` and checks that the rebuilt model reconstructs
    /// bit-identically to `m`.
    fn assert_rebuilds_bit_identically(m: &mut Autoencoder, bytes: &[u8]) {
        let mut rebuilt = Checkpoint::read_from(bytes).unwrap().build_model().unwrap();
        assert_eq!(rebuilt.exec_policy(), ExecPolicy::from_env());
        let x = Matrix::from_fn(3, 16, |r, c| (r * 16 + c) as f64 / 48.0);
        let y0 = m.reconstruct(&x).unwrap();
        let y1 = rebuilt.reconstruct(&x).unwrap();
        for (a, b) in y0.as_slice().iter().zip(y1.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    fn checkpoint_bytes() -> Vec<u8> {
        let mut m = model();
        let mut bytes = Vec::new();
        Checkpoint::capture(&mut m, 3)
            .unwrap()
            .write_to(&mut bytes)
            .unwrap();
        bytes
    }

    #[test]
    fn round_trip_preserves_metadata_and_bits() {
        let mut m = model();
        let ckpt = Checkpoint::capture(&mut m, 42).unwrap();
        let mut bytes = Vec::new();
        ckpt.write_to(&mut bytes).unwrap();
        let back = Checkpoint::read_from(&bytes[..]).unwrap();
        assert_eq!(back.name, m.name);
        assert_eq!(back.spec, m.spec().unwrap());
        assert_eq!(back.seed, 42);
        for (a, b) in ckpt.params.quantum.iter().zip(&back.params.quantum) {
            assert_eq!(a, b);
        }
        // The writer records the `dense` tag, so the bytes are unchanged.
        assert_eq!(bytes, bytes_tagged(&ckpt, "dense"));
        assert_rebuilds_bit_identically(&mut m, &bytes);
    }

    #[test]
    fn fused_backend_tag_loads_as_dense() {
        // Builds with a `fused` backend wrote that name into the body; the
        // bytes below are what such a build produced for this model.
        let mut m = model();
        let ckpt = Checkpoint::capture(&mut m, 4).unwrap();
        assert_rebuilds_bit_identically(&mut m, &bytes_tagged(&ckpt, "fused"));
    }

    #[test]
    fn soa_backend_tag_loads_as_dense() {
        // Builds with the `soa` backend wrote that name into the body.
        let mut m = model();
        let ckpt = Checkpoint::capture(&mut m, 4).unwrap();
        assert_rebuilds_bit_identically(&mut m, &bytes_tagged(&ckpt, "soa"));
    }

    #[test]
    fn unknown_backend_tag_is_corrupt() {
        let mut m = model();
        let ckpt = Checkpoint::capture(&mut m, 4).unwrap();
        for tag in ["gpu", "Dense", "soa2"] {
            let err = Checkpoint::read_from(&bytes_tagged(&ckpt, tag)[..]).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Corrupt(msg) if msg.contains(tag)),
                "{tag}: {err:?}"
            );
        }
    }

    #[test]
    fn non_finite_parameters_are_neither_written_nor_loaded() {
        let mut m = model();
        let healthy = Checkpoint::capture(&mut m, 5).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut ckpt = healthy.clone();
            ckpt.params.classical[1].set(0, 2, bad);
            let want = |e: &CheckpointError| {
                matches!(
                    e,
                    CheckpointError::NonFinite {
                        group: ParamGroup::Classical,
                        index: 1,
                        row: 0,
                        col: 2,
                    }
                )
            };
            let mut bytes = Vec::new();
            let err = ckpt.write_to(&mut bytes).unwrap_err();
            assert!(want(&err), "{bad}: {err:?}");
            assert!(bytes.is_empty(), "nothing is written");
            assert!(err.is_corruption());

            let dir = std::env::temp_dir().join(format!(
                "sqvae-ckpt-nonfinite-{}-{}",
                std::process::id(),
                bad
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            let path = dir.join("m.ckpt");
            assert!(want(&ckpt.save(&path).unwrap_err()));
            assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "no file is created");
            fs::remove_dir_all(&dir).unwrap();

            // Bytes an older writer produced load as a typed error.
            let err = Checkpoint::read_from(&bytes_tagged(&ckpt, "dense")[..]).unwrap_err();
            assert!(want(&err), "{bad}: {err:?}");
        }
    }

    #[test]
    fn handmade_models_cannot_be_captured() {
        let mut m = Autoencoder::new(
            "handmade",
            crate::hybrid::HybridStack::new(),
            crate::latent::Latent::Identity,
            crate::hybrid::HybridStack::new(),
        );
        assert!(matches!(
            Checkpoint::capture(&mut m, 0),
            Err(CheckpointError::MissingSpec)
        ));
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = checkpoint_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Checkpoint::read_from(&bytes[..]),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = checkpoint_bytes();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Checkpoint::read_from(&bytes[..]),
            Err(CheckpointError::UnsupportedVersion { found }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn bit_flip_in_body_fails_the_checksum() {
        let mut bytes = checkpoint_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            Checkpoint::read_from(&bytes[..]),
            Err(CheckpointError::ChecksumMismatch)
        ));
    }

    #[test]
    fn truncation_is_an_io_error() {
        let bytes = checkpoint_bytes();
        for cut in [4, 12, 19, bytes.len() - 1] {
            let err = Checkpoint::read_from(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn restore_rejects_architecture_mismatch() {
        let mut m = model();
        let ckpt = Checkpoint::capture(&mut m, 0).unwrap();
        // Same factory family, different width: tensor shapes differ.
        let mut other = models::sq_vae(32, 2, 1, &mut StdRng::seed_from_u64(0));
        let before = ParamSnapshot::capture(&mut other);
        let err = ckpt.params.restore(&mut other).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::ShapeMismatch { .. } | CheckpointError::TensorCountMismatch { .. }
        ));
        // Failed restore must leave the target untouched.
        let after = ParamSnapshot::capture(&mut other);
        for (a, b) in before.quantum.iter().zip(&after.quantum) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn snapshot_restore_round_trips_on_the_live_model() {
        let mut m = model();
        let snap = ParamSnapshot::capture(&mut m);
        // Perturb every parameter, then restore.
        for p in m.parameters_of(ParamGroup::Quantum) {
            for v in p.value.as_mut_slice() {
                *v += 1.0;
            }
        }
        for p in m.parameters_of(ParamGroup::Classical) {
            for v in p.value.as_mut_slice() {
                *v -= 0.5;
            }
        }
        snap.restore(&mut m).unwrap();
        let now = ParamSnapshot::capture(&mut m);
        for (a, b) in snap.quantum.iter().zip(&now.quantum) {
            assert_eq!(a, b);
        }
        for (a, b) in snap.classical.iter().zip(&now.classical) {
            assert_eq!(a, b);
        }
    }

    fn temp_ckpt(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sqvae-checkpoint-tests");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = fs::remove_file(&p);
        let _ = fs::remove_file(backup_path(&p));
        p
    }

    #[test]
    fn save_is_atomic_and_keeps_a_backup_generation() {
        let path = temp_ckpt("atomic.ckpt");
        let mut m = model();
        save_model(&mut m, 1, &path).unwrap();
        assert!(path.exists());
        assert!(
            !backup_path(&path).exists(),
            "first save has no previous generation"
        );
        let gen1 = fs::read(&path).unwrap();

        save_model(&mut m, 2, &path).unwrap();
        assert_eq!(
            fs::read(backup_path(&path)).unwrap(),
            gen1,
            "second save must park generation 1 as .bak"
        );
        // No scratch debris survives a completed save.
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn load_or_recover_falls_back_to_backup_on_corruption() {
        let path = temp_ckpt("recover.ckpt");
        let mut m = model();
        // Two saves of the same model: primary and .bak hold identical bits.
        save_model(&mut m, 5, &path).unwrap();
        save_model(&mut m, 5, &path).unwrap();

        let (_, source) = Checkpoint::load_or_recover(&path).unwrap();
        assert_eq!(source, RecoverySource::Primary);

        // Torn write: flip a body byte in the primary.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert!(Checkpoint::load(&path).unwrap_err().is_corruption());
        let (ckpt, source) = Checkpoint::load_or_recover(&path).unwrap();
        assert_eq!(source, RecoverySource::Backup);
        assert_eq!(ckpt.seed, 5);
        // The recovered model reconstructs bit-identically to the original.
        let mut rebuilt = ckpt.build_model().unwrap();
        let x = Matrix::filled(2, 16, 0.25);
        let (a, b) = (m.reconstruct(&x).unwrap(), rebuilt.reconstruct(&x).unwrap());
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }

        // Truncation (crash mid-write of the primary) recovers the same way.
        let full = fs::read(backup_path(&path)).unwrap();
        fs::write(&path, &full[..full.len() / 3]).unwrap();
        let (_, source) = Checkpoint::load_or_recover(&path).unwrap();
        assert_eq!(source, RecoverySource::Backup);

        // A missing primary (crash between the two renames) also recovers.
        fs::remove_file(&path).unwrap();
        let (_, source) = Checkpoint::load_or_recover(&path).unwrap();
        assert_eq!(source, RecoverySource::Backup);
    }

    #[test]
    fn load_or_recover_reports_the_primary_error_when_backup_is_absent() {
        let path = temp_ckpt("no-backup.ckpt");
        let mut m = model();
        save_model(&mut m, 7, &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = Checkpoint::load_or_recover(&path).unwrap_err();
        assert!(err.is_corruption(), "got {err:?}");
        // Architecture-level errors are not recoverable corruption.
        assert!(!CheckpointError::MissingSpec.is_corruption());
        assert!(!CheckpointError::UnsupportedVersion { found: 9 }.is_corruption());
    }

    #[test]
    fn leftover_tmp_from_a_crashed_save_is_overwritten() {
        let path = temp_ckpt("tmpdebris.ckpt");
        // A crash after creating the temp file but before the rename leaves
        // debris; the next save must simply write over it.
        fs::write(tmp_path(&path), b"half-written garbage").unwrap();
        let mut m = model();
        save_model(&mut m, 9, &path).unwrap();
        assert!(!tmp_path(&path).exists());
        assert!(Checkpoint::load(&path).is_ok());
    }

    #[test]
    fn failed_save_leaves_the_previous_checkpoint_untouched() {
        let path = temp_ckpt("failsafe.ckpt");
        let mut m = model();
        save_model(&mut m, 11, &path).unwrap();
        let before = fs::read(&path).unwrap();
        // Occupy the temp name with a directory: the save fails at the
        // scratch-file stage, before anything touches the primary.
        let tmp = tmp_path(&path);
        fs::create_dir_all(&tmp).unwrap();
        assert!(save_model(&mut m, 12, &path).is_err());
        assert_eq!(fs::read(&path).unwrap(), before);
        fs::remove_dir(&tmp).unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        let msgs = [
            CheckpointError::BadMagic.to_string(),
            CheckpointError::UnsupportedVersion { found: 9 }.to_string(),
            CheckpointError::ChecksumMismatch.to_string(),
            CheckpointError::MissingSpec.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
