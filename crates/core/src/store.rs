//! Crash-safe, generation-numbered model store.
//!
//! A [`ModelStore`] is a directory of snapshot **generations**
//! (`gen-00000001.l2r`, `gen-00000002.l2r`, …) plus a checksummed
//! `MANIFEST` naming the **active** generation and the length + CRC of
//! every retained file.  It is the durable hand-off point between the
//! offline fit and the online serving stack: `fit` publishes into the
//! store, the server reloads from it (by generation or `latest`), and a
//! crash at *any* point of a publish leaves the store serving the newest
//! **durable** generation — never a torn file.
//!
//! The manifest is sealed with the snapshot's header (magic
//! [`MANIFEST_MAGIC`], version [`MANIFEST_VERSION`], payload length, payload
//! CRC-32; see [`crate::snapshot`]), written and checked by the same code,
//! and [`decode_manifest`] reports [`SnapshotError`]s.  A store never
//! surfaces them: a manifest that fails to decode counts as missing, and
//! recovery falls back to the generation files (below).
//!
//! ## Publish discipline
//!
//! Every publish is a fixed sequence of filesystem operations:
//!
//! ```text
//! op 0  write   gen-N.l2r.tmp      (full snapshot bytes)
//! op 1  fsync   gen-N.l2r.tmp
//! op 2  rename  gen-N.l2r.tmp  → gen-N.l2r
//! op 3  fsync   store directory
//! op 4  write   MANIFEST.tmp       (new manifest: active = N)
//! op 5  fsync   MANIFEST.tmp
//! op 6  rename  MANIFEST.tmp   → MANIFEST        ← the commit point
//! op 7  fsync   store directory
//! op 8+ unlink  generations dropped by retention (best-effort)
//! ```
//!
//! A generation is **durable** once op 6 completes; before that, recovery
//! serves the previous manifest.  [`ModelStore::open`] recovers from a
//! crash between any two ops: orphaned `.tmp` files are removed, a torn
//! or missing `MANIFEST` falls back to a directory scan that adopts the
//! newest generation file passing [`crate::snapshot::verify_frame`] and
//! durably rewrites the manifest, and a manifest whose active generation
//! file fails its length/CRC check (bit rot) falls back the same way.
//!
//! ## Integrity passes
//!
//! Publishing a generation and serving it runs five full CRC-32 passes
//! (all the workspace's one implementation,
//! [`l2r_road_network::codec::crc32`]), each guarding a different moment:
//!
//! 1. [`encode_snapshot`] checksums the payload it just encoded into the
//!    snapshot header, so any later change to those bytes is detectable
//!    wherever the file travels;
//! 2. [`ModelStore::publish`] checksums the whole file for its `MANIFEST`
//!    entry — the commit records exactly the bytes it made durable;
//! 3. [`ModelStore::open`] re-checks the active generation against that
//!    entry before trusting the manifest, so bit rot after the commit falls
//!    back to recovery instead of being served;
//! 4. [`ModelStore::load_bytes`] re-checks the bytes it actually read for
//!    the load, which may differ from the ones `open` saw;
//! 5. [`decode_snapshot`] verifies the payload CRC in the header
//!    ([`verify_frame`]), the check every snapshot reader makes whatever
//!    the bytes' source.
//!
//! Dropping any one of them would narrow what a crash or bit flip can be
//! caught at; each costs one linear pass over the file (through the
//! carry-less-multiply kernel on x86-64 CPUs that have it, the
//! slicing-by-16 tables elsewhere), well below a decode.
//!
//! ## Fault injection
//!
//! All filesystem access goes through the [`StoreFs`] trait.  Production
//! code uses [`RealFs`]; the crash-matrix suite
//! (`crates/core/tests/store_crash_matrix.rs`) installs a [`FaultFs`] —
//! the filesystem-level sibling of the serve crate's seeded `FaultPlan` —
//! which injects one deterministic fault (crash, short write, bit flip, or
//! `ENOSPC`) at a chosen mutating-operation index and counts every
//! operation so the matrix can enumerate all crash points exactly.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use l2r_road_network::{crc32, CodecError, Reader};

use crate::pipeline::L2r;
use crate::snapshot::{
    decode_snapshot, encode_snapshot, seal, seal_begin, splitmix64, unseal, verify_frame, Snapshot,
    SnapshotError, MAX_DATASET_NAME,
};

/// Magic bytes identifying a store `MANIFEST` file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"L2RMANI\0";

/// Current manifest format version.
pub const MANIFEST_VERSION: u8 = 1;

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Most generations a manifest may list (a plausibility bound, far above
/// any real retention setting).
pub const MAX_MANIFEST_ENTRIES: usize = 65_536;

/// Operation index of the snapshot-file write within a publish.
pub const PUBLISH_OP_WRITE_SNAPSHOT: u64 = 0;

/// Operation index of the manifest write within a publish.
pub const PUBLISH_OP_WRITE_MANIFEST: u64 = 4;

/// Operation index of the manifest rename — the commit point — within a
/// publish.  A crash strictly before this op leaves the previous
/// generation active; a crash after it leaves the new one active.
pub const PUBLISH_OP_COMMIT: u64 = 6;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// An error raised by [`ModelStore`] operations.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed; carries the offending path.
    Io {
        /// The file or directory the operation failed on.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A snapshot file failed to decode.
    Snapshot(SnapshotError),
    /// The directory is not a model store: no manifest and no generation
    /// files to recover from.
    NotAStore(PathBuf),
    /// The requested generation is not in the store.
    UnknownGeneration(u64),
    /// A generation listed in the manifest fails its length/CRC check
    /// (bit rot after commit).
    CorruptGeneration {
        /// The damaged generation.
        generation: u64,
    },
    /// The store has no published generation to serve.
    NoDurableGeneration,
    /// The store was created for a different dataset.
    DatasetMismatch {
        /// Dataset stamped in the store's manifest.
        store: String,
        /// Dataset the caller asked for.
        requested: String,
    },
}

impl StoreError {
    fn io(path: &Path, source: io::Error) -> StoreError {
        StoreError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O error at `{}`: {source}", path.display())
            }
            StoreError::Snapshot(e) => write!(f, "store snapshot unreadable: {e}"),
            StoreError::NotAStore(dir) => {
                write!(f, "`{}` is not a model store", dir.display())
            }
            StoreError::UnknownGeneration(g) => write!(f, "store has no generation {g}"),
            StoreError::CorruptGeneration { generation } => {
                write!(
                    f,
                    "store generation {generation} is corrupt (checksum mismatch)"
                )
            }
            StoreError::NoDurableGeneration => {
                write!(f, "store has no durable generation to serve")
            }
            StoreError::DatasetMismatch { store, requested } => {
                write!(f, "store holds dataset `{store}`, not `{requested}`")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

// ---------------------------------------------------------------------------
// Manifest codec
// ---------------------------------------------------------------------------

/// One retained generation as listed by the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Generation number (monotonic, starting at 1).
    pub generation: u64,
    /// Exact snapshot file length in bytes.
    pub len: u64,
    /// CRC-32 (IEEE) of the full snapshot file.
    pub crc: u32,
}

/// The decoded contents of a store `MANIFEST`: which dataset the store
/// holds, which generation is active, and the integrity data of every
/// retained generation file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Dataset every generation in this store was fitted on.
    pub dataset: String,
    /// The active generation (0 = none published yet).
    pub active: u64,
    /// Retained generations, ascending.
    pub entries: Vec<ManifestEntry>,
}

/// Serialises a manifest into its sealed byte stream: the snapshot header
/// (magic [`MANIFEST_MAGIC`], version [`MANIFEST_VERSION`], payload length,
/// CRC-32) followed by the payload.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut w = seal_begin(MANIFEST_MAGIC, MANIFEST_VERSION);
    w.str(&m.dataset);
    w.u64(m.active);
    w.length(m.entries.len());
    for e in &m.entries {
        w.u64(e.generation);
        w.u64(e.len);
        w.u32(e.crc);
    }
    seal(w)
}

/// Decodes a sealed manifest, validating the header (magic, version,
/// length, checksum; see [`crate::snapshot`]) and the payload's structural
/// invariants (entries strictly ascending, active listed).
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, SnapshotError> {
    let mut r = Reader::new(unseal(bytes, MANIFEST_MAGIC, MANIFEST_VERSION)?);
    let dataset = r.str("manifest dataset", MAX_DATASET_NAME)?.to_string();
    let active = r.u64("manifest active generation")?;
    let n = r.length("manifest entry count", 20)?;
    if n > MAX_MANIFEST_ENTRIES {
        return Err(CodecError::ImplausibleLength {
            what: "manifest entry count",
            len: n as u64,
        }
        .into());
    }
    let mut entries = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        let generation = r.u64("manifest entry generation")?;
        if generation <= prev {
            return Err(CodecError::Invalid("manifest generations not ascending").into());
        }
        prev = generation;
        entries.push(ManifestEntry {
            generation,
            len: r.u64("manifest entry length")?,
            crc: r.u32("manifest entry crc")?,
        });
    }
    if !r.is_exhausted() {
        return Err(SnapshotError::TrailingBytes(r.remaining() as u64));
    }
    if active != 0 && !entries.iter().any(|e| e.generation == active) {
        return Err(CodecError::Invalid("manifest active generation not listed").into());
    }
    Ok(Manifest {
        dataset,
        active,
        entries,
    })
}

// ---------------------------------------------------------------------------
// Filesystem abstraction
// ---------------------------------------------------------------------------

/// The filesystem operations a [`ModelStore`] performs, behind a trait so
/// the crash-matrix suite can inject deterministic faults.  Implementors
/// must be cheap to share across threads.
pub trait StoreFs: Send + Sync {
    /// Reads the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (or truncates) `path` and writes all of `data`.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Flushes `path`'s data and metadata to stable storage.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Flushes the directory entry table of `dir` to stable storage.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Lists the file names (not paths) inside `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
}

/// The production [`StoreFs`]: plain `std::fs` with real fsyncs.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl StoreFs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and syncing it flushes its entry
        // table on unix; harmless elsewhere.
        std::fs::File::open(dir)?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }
}

/// What a [`FaultFs`] injects at its chosen operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsFaultKind {
    /// The process dies before the operation takes effect: the op fails
    /// and every later operation fails too.
    Crash,
    /// A write persists only a seeded prefix of its bytes, then the
    /// process dies (torn file on disk).  Non-write operations crash.
    ShortWrite,
    /// A write silently flips one seeded bit and *succeeds* — the caller
    /// never learns; only checksums can catch it.  Non-write operations
    /// are unaffected.
    BitFlip,
    /// The operation fails with `ENOSPC`; the process stays alive.
    Enospc,
}

/// Configuration of a [`FaultFs`].
#[derive(Debug, Clone, Copy)]
pub struct FsFaultConfig {
    /// Seed of the short-write length and bit-flip position draws.
    pub seed: u64,
    /// Index of the mutating operation to fault (writes, fsyncs, renames
    /// and removes count; reads and listings do not), or `None` to count
    /// operations without injecting anything.
    pub fault_at: Option<u64>,
    /// What to inject at that operation.
    pub kind: FsFaultKind,
}

impl Default for FsFaultConfig {
    fn default() -> FsFaultConfig {
        FsFaultConfig {
            seed: 0xFA17_F500,
            fault_at: None,
            kind: FsFaultKind::Crash,
        }
    }
}

/// A [`StoreFs`] that injects one deterministic fault at a chosen
/// mutating-operation index, then (for crash-class faults) fails every
/// later operation as a dead process would.  Counts operations so the
/// crash matrix can enumerate every injection point.
#[derive(Debug, Default)]
pub struct FaultFs {
    cfg: FsFaultConfig,
    inner: RealFs,
    ops: AtomicU64,
    dead: AtomicBool,
    injected: AtomicBool,
}

impl FaultFs {
    /// Wraps the real filesystem with an injection plan.
    pub fn new(cfg: FsFaultConfig) -> FaultFs {
        FaultFs {
            cfg,
            ..FaultFs::default()
        }
    }

    /// Mutating operations performed so far (including the faulted one).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Whether the configured fault has fired.
    pub fn injected(&self) -> bool {
        self.injected.load(Ordering::Relaxed)
    }

    fn dead_err() -> io::Error {
        io::Error::other("injected crash: filesystem is dead")
    }

    fn enospc() -> io::Error {
        io::Error::from_raw_os_error(28) // ENOSPC
    }

    /// Advances the mutating-op counter; returns the fault to inject at
    /// this op, if any.
    fn mutating(&self) -> io::Result<Option<FsFaultKind>> {
        // ordering: Relaxed — the crash simulation is single-threaded per
        // store; the flag only gates later ops on the same thread.
        if self.dead.load(Ordering::Relaxed) {
            return Err(Self::dead_err());
        }
        let idx = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.cfg.fault_at == Some(idx) {
            self.injected.store(true, Ordering::Relaxed);
            Ok(Some(self.cfg.kind))
        } else {
            Ok(None)
        }
    }

    fn alive(&self) -> io::Result<()> {
        // ordering: Relaxed — single-threaded crash simulation (see above).
        if self.dead.load(Ordering::Relaxed) {
            Err(Self::dead_err())
        } else {
            Ok(())
        }
    }

    fn die(&self) -> io::Error {
        // ordering: Relaxed — single-threaded crash simulation (see above).
        self.dead.store(true, Ordering::Relaxed);
        Self::dead_err()
    }
}

impl StoreFs for FaultFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.alive()?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.mutating()? {
            None => self.inner.write(path, data),
            Some(FsFaultKind::Crash) => Err(self.die()),
            Some(FsFaultKind::Enospc) => Err(Self::enospc()),
            Some(FsFaultKind::ShortWrite) => {
                let keep = if data.is_empty() {
                    0
                } else {
                    (splitmix64(self.cfg.seed ^ 0x5707) as usize) % data.len()
                };
                let _ = self.inner.write(path, &data[..keep]);
                Err(self.die())
            }
            Some(FsFaultKind::BitFlip) => {
                let mut corrupt = data.to_vec();
                if !corrupt.is_empty() {
                    let bit = (splitmix64(self.cfg.seed ^ 0xF11B) as usize) % (corrupt.len() * 8);
                    corrupt[bit / 8] ^= 1 << (bit % 8);
                }
                self.inner.write(path, &corrupt)
            }
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        match self.mutating()? {
            None | Some(FsFaultKind::BitFlip) => self.inner.sync_file(path),
            Some(FsFaultKind::Enospc) => Err(Self::enospc()),
            Some(FsFaultKind::Crash) | Some(FsFaultKind::ShortWrite) => Err(self.die()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.mutating()? {
            None | Some(FsFaultKind::BitFlip) => self.inner.rename(from, to),
            Some(FsFaultKind::Enospc) => Err(Self::enospc()),
            Some(FsFaultKind::Crash) | Some(FsFaultKind::ShortWrite) => Err(self.die()),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.mutating()? {
            None | Some(FsFaultKind::BitFlip) => self.inner.remove_file(path),
            Some(FsFaultKind::Enospc) => Err(Self::enospc()),
            Some(FsFaultKind::Crash) | Some(FsFaultKind::ShortWrite) => Err(self.die()),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.mutating()? {
            None | Some(FsFaultKind::BitFlip) => self.inner.sync_dir(dir),
            Some(FsFaultKind::Enospc) => Err(Self::enospc()),
            Some(FsFaultKind::Crash) | Some(FsFaultKind::ShortWrite) => Err(self.die()),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        // Not counted: only runs at store creation, and counting it would
        // shift publish op indices by whether the directory pre-existed.
        self.alive()?;
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.alive()?;
        self.inner.list(dir)
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Tunables of a [`ModelStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Total generations to retain (including the active one); older
    /// generations are unlinked after each publish commits.  Clamped to a
    /// minimum of 1.
    pub retain: usize,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions { retain: 3 }
    }
}

fn gen_file_name(generation: u64) -> String {
    format!("gen-{generation:08}.l2r")
}

fn parse_gen_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("gen-")?.strip_suffix(".l2r")?;
    (digits.len() == 8 && digits.bytes().all(|b| b.is_ascii_digit()))
        .then(|| digits.parse().ok())
        .flatten()
}

/// A crash-safe, generation-numbered snapshot directory (see the module
/// docs for the publish discipline and recovery rules).
pub struct ModelStore {
    fs: Arc<dyn StoreFs>,
    dir: PathBuf,
    options: StoreOptions,
    manifest: Manifest,
    next_generation: u64,
}

impl std::fmt::Debug for ModelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelStore")
            .field("dir", &self.dir)
            .field("dataset", &self.manifest.dataset)
            .field("active", &self.manifest.active)
            .field("generations", &self.manifest.entries.len())
            .finish()
    }
}

impl ModelStore {
    /// Creates (or opens, if it already exists) a store for `dataset` at
    /// `dir` on the real filesystem.  A directory holding a `MANIFEST` or
    /// any generation file is opened as [`ModelStore::open`] would (a lost
    /// or torn manifest is recovered from the generation files, and
    /// numbering continues past the highest one present), then must hold
    /// `dataset`.
    pub fn create(
        dir: &Path,
        dataset: &str,
        options: StoreOptions,
    ) -> Result<ModelStore, StoreError> {
        let fs: Arc<dyn StoreFs> = Arc::new(RealFs);
        fs.create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        let names = fs.list(dir).map_err(|e| StoreError::io(dir, e))?;
        if names
            .iter()
            .any(|n| n == MANIFEST_FILE || parse_gen_file_name(n).is_some())
        {
            let store = ModelStore::open_with_options(fs, dir, options)?;
            if store.manifest.dataset != dataset {
                return Err(StoreError::DatasetMismatch {
                    store: store.manifest.dataset.clone(),
                    requested: dataset.to_string(),
                });
            }
            return Ok(store);
        }
        let mut store = ModelStore {
            fs,
            dir: dir.to_path_buf(),
            options: StoreOptions {
                retain: options.retain.max(1),
            },
            manifest: Manifest {
                dataset: dataset.to_string(),
                active: 0,
                entries: Vec::new(),
            },
            next_generation: 1,
        };
        let manifest = store.manifest.clone();
        store.write_manifest(&manifest)?;
        Ok(store)
    }

    /// Opens (and, if the last writer crashed, recovers) the store at
    /// `dir` on the real filesystem.
    pub fn open(dir: &Path) -> Result<ModelStore, StoreError> {
        ModelStore::open_with_options(Arc::new(RealFs), dir, StoreOptions::default())
    }

    /// [`ModelStore::open`] over an injectable filesystem with explicit
    /// [`StoreOptions`] (retention is a per-handle policy, not persisted in
    /// the manifest).
    pub fn open_with_options(
        fs: Arc<dyn StoreFs>,
        dir: &Path,
        options: StoreOptions,
    ) -> Result<ModelStore, StoreError> {
        let names = fs.list(dir).map_err(|e| StoreError::io(dir, e))?;
        let mut scanned: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_gen_file_name(n))
            .collect();
        scanned.sort_unstable();

        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest = match fs.read(&manifest_path) {
            Ok(bytes) => decode_manifest(&bytes).ok(),
            Err(_) => None,
        };
        let had_manifest = manifest.is_some();

        // Trust the manifest only if its active generation file verifies
        // bit-for-bit; bit rot after commit falls back to recovery.
        if let Some(m) = &manifest {
            if m.active != 0 {
                let entry = m
                    .entries
                    .iter()
                    .find(|e| e.generation == m.active)
                    .copied()
                    .expect("decode_manifest guarantees the active generation is listed");
                let path = dir.join(gen_file_name(m.active));
                let ok = matches!(
                    fs.read(&path),
                    Ok(bytes) if bytes.len() as u64 == entry.len && crc32(&bytes) == entry.crc
                );
                if !ok {
                    manifest = None;
                }
            }
        }

        // Generation numbers are never reused, even for files that were
        // renamed into place but whose manifest commit never happened.
        let max_seen = scanned
            .iter()
            .copied()
            .chain(
                manifest
                    .iter()
                    .flat_map(|m| m.entries.iter().map(|e| e.generation)),
            )
            .max()
            .unwrap_or(0);

        let mut store = ModelStore {
            fs,
            dir: dir.to_path_buf(),
            options: StoreOptions {
                retain: options.retain.max(1),
            },
            manifest: Manifest {
                dataset: String::new(),
                active: 0,
                entries: Vec::new(),
            },
            next_generation: max_seen + 1,
        };

        match manifest {
            Some(m) => store.manifest = m,
            None => {
                // Torn, missing, or bit-rotted manifest: adopt every
                // generation file that verifies, newest one active, and
                // durably rewrite the manifest.
                let mut entries = Vec::new();
                let mut dataset = None;
                for &generation in scanned.iter().rev() {
                    let path = store.dir.join(gen_file_name(generation));
                    let Ok(bytes) = store.fs.read(&path) else {
                        continue;
                    };
                    if verify_frame(&bytes).is_err() {
                        continue;
                    }
                    if dataset.is_none() {
                        // The newest verifying generation names the
                        // dataset for the whole store.
                        dataset = Some(decode_snapshot(&bytes)?.dataset);
                    }
                    entries.push(ManifestEntry {
                        generation,
                        len: bytes.len() as u64,
                        crc: crc32(&bytes),
                    });
                }
                entries.reverse();
                let Some(dataset) = dataset else {
                    return Err(if had_manifest || !names.is_empty() {
                        StoreError::NoDurableGeneration
                    } else {
                        StoreError::NotAStore(store.dir.clone())
                    });
                };
                let recovered = Manifest {
                    dataset,
                    active: entries.last().map_or(0, |e| e.generation),
                    entries,
                };
                store.write_manifest(&recovered)?;
            }
        }

        // Clear orphaned temp files from interrupted publishes.
        for name in &names {
            if name.ends_with(".tmp") {
                let _ = store.fs.remove_file(&store.dir.join(name));
            }
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The dataset every generation in this store was fitted on.
    pub fn dataset(&self) -> &str {
        &self.manifest.dataset
    }

    /// The active (newest durable) generation, if any.
    pub fn latest(&self) -> Option<u64> {
        (self.manifest.active != 0).then_some(self.manifest.active)
    }

    /// All retained generations, ascending.
    pub fn generations(&self) -> Vec<u64> {
        self.manifest.entries.iter().map(|e| e.generation).collect()
    }

    /// Durably publishes `model` as the next generation and returns its
    /// number.  See the module docs for the exact operation sequence; the
    /// new generation is visible to [`ModelStore::open`] only once the
    /// manifest rename (op [`PUBLISH_OP_COMMIT`]) completes.
    pub fn publish(&mut self, model: &L2r) -> Result<u64, StoreError> {
        let generation = self.next_generation;
        let bytes = encode_snapshot(model, &self.manifest.dataset);
        let final_name = gen_file_name(generation);
        let final_path = self.dir.join(&final_name);
        let tmp_path = self.dir.join(format!("{final_name}.tmp"));

        self.fs
            .write(&tmp_path, &bytes)
            .map_err(|e| StoreError::io(&tmp_path, e))?;
        self.fs
            .sync_file(&tmp_path)
            .map_err(|e| StoreError::io(&tmp_path, e))?;
        self.fs
            .rename(&tmp_path, &final_path)
            .map_err(|e| StoreError::io(&final_path, e))?;
        self.fs
            .sync_dir(&self.dir)
            .map_err(|e| StoreError::io(&self.dir, e))?;

        let mut manifest = self.manifest.clone();
        manifest.entries.push(ManifestEntry {
            generation,
            len: bytes.len() as u64,
            crc: crc32(&bytes),
        });
        manifest.active = generation;
        let mut dropped = Vec::new();
        while manifest.entries.len() > self.options.retain {
            dropped.push(manifest.entries.remove(0).generation);
        }
        self.write_manifest(&manifest)?;
        self.next_generation = generation + 1;

        // Retention: unlink dropped generations only after the commit.
        // Best-effort — a crash here leaves orphans the next publish or
        // open sweeps up, never a correctness problem.
        for g in dropped {
            let _ = self.fs.remove_file(&self.dir.join(gen_file_name(g)));
        }
        Ok(generation)
    }

    /// Reads and integrity-checks the exact bytes of `generation`.
    pub fn load_bytes(&self, generation: u64) -> Result<Vec<u8>, StoreError> {
        let entry = self
            .manifest
            .entries
            .iter()
            .find(|e| e.generation == generation)
            .copied()
            .ok_or(StoreError::UnknownGeneration(generation))?;
        let path = self.dir.join(gen_file_name(generation));
        let bytes = self.fs.read(&path).map_err(|e| StoreError::io(&path, e))?;
        if bytes.len() as u64 != entry.len || crc32(&bytes) != entry.crc {
            return Err(StoreError::CorruptGeneration { generation });
        }
        Ok(bytes)
    }

    /// Loads and decodes `generation`.
    pub fn load(&self, generation: u64) -> Result<Snapshot, StoreError> {
        Ok(decode_snapshot(&self.load_bytes(generation)?)?)
    }

    /// Loads the newest durable generation, returning its number too.
    pub fn load_latest(&self) -> Result<(u64, Snapshot), StoreError> {
        let generation = self.latest().ok_or(StoreError::NoDurableGeneration)?;
        Ok((generation, self.load(generation)?))
    }

    /// Durably replaces the manifest (ops 4–7 of a publish), then adopts
    /// it in memory.
    fn write_manifest(&mut self, manifest: &Manifest) -> Result<(), StoreError> {
        let final_path = self.dir.join(MANIFEST_FILE);
        let tmp_path = self.dir.join(format!("{MANIFEST_FILE}.tmp"));
        let bytes = encode_manifest(manifest);
        self.fs
            .write(&tmp_path, &bytes)
            .map_err(|e| StoreError::io(&tmp_path, e))?;
        self.fs
            .sync_file(&tmp_path)
            .map_err(|e| StoreError::io(&tmp_path, e))?;
        self.fs
            .rename(&tmp_path, &final_path)
            .map_err(|e| StoreError::io(&final_path, e))?;
        self.fs
            .sync_dir(&self.dir)
            .map_err(|e| StoreError::io(&self.dir, e))?;
        self.manifest = manifest.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest {
            dataset: "porto".to_string(),
            active: 3,
            entries: vec![
                ManifestEntry {
                    generation: 2,
                    len: 100,
                    crc: 0xAB,
                },
                ManifestEntry {
                    generation: 3,
                    len: 120,
                    crc: 0xCD,
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrips_bit_stably() {
        let m = manifest();
        let bytes = encode_manifest(&m);
        let decoded = decode_manifest(&bytes).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(encode_manifest(&decoded), bytes);
    }

    #[test]
    fn manifest_rejects_unlisted_active_generation() {
        let mut m = manifest();
        m.active = 9;
        assert!(matches!(
            decode_manifest(&encode_manifest(&m)),
            Err(SnapshotError::Codec(CodecError::Invalid(_)))
        ));
    }

    #[test]
    fn manifest_rejects_non_ascending_generations() {
        let mut m = manifest();
        m.entries.swap(0, 1);
        assert!(matches!(
            decode_manifest(&encode_manifest(&m)),
            Err(SnapshotError::Codec(CodecError::Invalid(_)))
        ));
    }

    #[test]
    fn gen_file_names_roundtrip() {
        assert_eq!(parse_gen_file_name(&gen_file_name(7)), Some(7));
        assert_eq!(
            parse_gen_file_name(&gen_file_name(12345678)),
            Some(12345678)
        );
        assert_eq!(parse_gen_file_name("gen-0000001.l2r"), None);
        assert_eq!(parse_gen_file_name("gen-00000007.l2r.tmp"), None);
        assert_eq!(parse_gen_file_name("MANIFEST"), None);
    }

    #[test]
    fn fault_fs_counts_only_mutating_ops() {
        let fs = FaultFs::new(FsFaultConfig::default());
        let dir = std::env::temp_dir().join(format!("l2r-faultfs-{}", std::process::id()));
        fs.create_dir_all(&dir).unwrap();
        let f = dir.join("x");
        fs.write(&f, b"abc").unwrap();
        let _ = fs.read(&f).unwrap();
        let _ = fs.list(&dir).unwrap();
        fs.remove_file(&f).unwrap();
        assert_eq!(fs.ops(), 2); // write + remove; read/list/create_dir_all free
        assert!(!fs.injected());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
