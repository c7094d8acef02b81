//! Versioned binary snapshots of a fitted [`L2r`] model.
//!
//! The paper's premise (Section VII-C) is that the offline cost is paid
//! *once*; this module is the seam that makes that true across processes:
//! [`save_model`] persists everything a fitted model owns — the road
//! network, the region graph with its T/B-edge classification and attached
//! paths, learned and transferred preference vectors, transfer centers,
//! configuration and offline statistics — into a single file, and
//! [`load_model`] brings it back with **bit-identical** routing (a loaded
//! model answers exactly like the original; the vertex-grid sweeps in
//! `tests/snapshot_equivalence.rs` check both against the reference router
//! in [`crate::oracle`], and `crates/core/tests/snapshot_robustness.rs`
//! covers the malformed-file surface).
//!
//! # File format
//!
//! Everything is little-endian (see [`l2r_road_network::codec`]):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"L2RSNAP\0"
//!      8     1  format version (currently 7)
//!      9     8  payload length in bytes (u64)
//!     17     4  CRC-32 (IEEE) of the payload (u32)
//!     21     n  payload: dataset name, network, region graph, learned
//!               preferences, transferred preferences, config, offline
//!               stats, canary probes, connector table
//! ```
//!
//! The network section is the vertex count, each vertex's position and
//! out-degree, the edge count, then one record per edge — head, distance,
//! road type ([`l2r_road_network::EDGE_WIRE_BYTES`]) — in id order.  An
//! edge's id is its CSR position (grouped by tail, sorted by head), so the
//! degrees imply every tail, and the decoder writes each record once,
//! straight into the columns the router reads.
//!
//! Stored paths — the region graph's attached and inner-region paths and
//! the connector paths — travel as *walks* over the network's CSR
//! ([`l2r_road_network::encode_walk`]): a LEB128 vertex count, then per hop
//! `a → b` the LEB128 rank of the first edge in `a`'s out-edge group (sorted
//! by head) whose head is `b`.  The decoder steps from a known start vertex
//! and rejects a rank at or beyond the out-degree, so every decoded path is
//! drivable by construction.  A region-graph path is written as its start
//! vertex (`u32`) followed by its walk.
//!
//! The connector table ([`crate::ConnectorTable`]) is every fastest-path
//! stub the online router stitches with, resolved once by the fit.  Its
//! keys are not stored: the decoder derives them from the region graph, so
//! the section is the last in the payload and runs to its end:
//!
//! ```text
//! field                   size
//! entry count             u64 (must equal the derived key count)
//! per key, ascending by (from, to):
//!   walk from `from`      LEB128 vertex count (0 = proven unreachable),
//!                         then one LEB128 rank per hop; ends at `to`
//! ```
//!
//! Version 2 stamps two pieces of provenance into the (checksummed)
//! payload: the **dataset name** the model was fitted on — so a `reload`
//! can refuse to swap dataset A's model in under name B — and a set of
//! **canary probes**: deterministic route queries whose answer digests are
//! recorded at save time ([`compute_canaries`]) and replayed against the
//! decoded model before a hot-swap commits
//! ([`crate::ModelRegistry`]'s validation stage).  Version 3 dropped the
//! solver byte from the transfer configuration: conjugate gradient is the
//! only solver.  Version 4 added the connector table, so a loaded model
//! routes without re-running a single connector search, and three offline
//! stats: the connector resolution time, and the transfer solve's
//! unconverged column count and largest relative residual.  Version 5
//! shrank each network edge record from 33 to 17 bytes (`from`, `to`,
//! distance, road type; [`l2r_road_network::EDGE_WIRE_BYTES`]): travel time
//! and fuel are functions of the distance and road type, so the decoder
//! derives them exactly as `RoadNetworkBuilder` does instead of reading
//! them.  Version 6 writes every stored path as a walk of out-edge ranks
//! instead of `u32` vertex ids, and drops the connector keys, which the
//! decoder derives from the region graph; the connector table moved to the
//! end of the payload.  Version 7 stores the network in serving order:
//! edge ids are CSR positions, each vertex record carries its out-degree
//! and each edge record only its head, distance and road type (17 → 13
//! bytes), and the decoder accepts only the layouts the builder produces.
//! A loader accepts exactly the current version.
//!
//! The header is the workspace's one **sealed-file** format.  A model
//! store's `MANIFEST` ([`crate::store`]) uses the same 21-byte header with
//! its own magic (`b"L2RMANI\0"`) and version (1), written and checked by the
//! same crate-private functions, and reports the same [`SnapshotError`]s.
//!
//! [`load_model`] performs a single file read.  Served models arrive
//! through a [`crate::ModelStore`] instead, which reads the file twice: once
//! when the store opens and checks the active generation's length and
//! whole-file CRC against its `MANIFEST`, and again for the load, which
//! repeats that check on the bytes it hands to [`decode_snapshot`]; the
//! decode then checks the payload CRC in the header (see the store's module
//! docs for why each pass is kept).  Every pass runs the workspace's one
//! CRC-32, [`l2r_road_network::codec::crc32`].  Decoding fills preallocated
//! vectors (the fixed-stride network tables decode in parallel chunks across
//! `L2R_THREADS` workers, straight into the network's serving layout), and
//! validates every embedded id against the counts stored in the same
//! payload, every walk's ranks against the out-degrees, and the connector
//! section's entry count and endpoints against the key set the decoded
//! region graph implies (derived when the model is assembled and its
//! oriented-path table built) — a corrupt or truncated file produces a
//! [`SnapshotError`], never a panic.
//! Encoding is deterministic (hash maps are written in sorted key order and
//! canaries are derived from a fixed probe schedule), so
//! `encode → decode → encode` reproduces the exact bytes; the tests lean on
//! that for cheap whole-model equality.

use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};

use l2r_preference::{LearnedPreference, Preference};
use l2r_region_graph::{decode_region_graph, encode_region_graph, RegionEdgeId, RegionGraph};
use l2r_road_network::{crc32, CodecError, Decode, Encode, Reader, RoadNetwork, VertexId, Writer};

use crate::config::L2rConfig;
use crate::connectors::ConnectorTable;
use crate::pipeline::{L2r, OfflineStats};
use crate::router::{QueryScratch, RouteResult};
use crate::store::MANIFEST_VERSION;

/// Magic bytes identifying an L2R snapshot file.
const SNAPSHOT_MAGIC: [u8; 8] = *b"L2RSNAP\0";

/// Current snapshot format version.  Bumped on any wire-format change;
/// loaders reject every other version.  Version 2 added the dataset name
/// and canary probes to the payload; version 3 removed the solver byte
/// from the transfer configuration; version 4 added the connector table and
/// the connector-time and transfer-convergence stats; version 5 stores each
/// network edge as its distance and road type only, and derives travel time
/// and fuel on load; version 6 stores paths as walks of out-edge ranks and
/// derives the connector keys from the region graph on load; version 7
/// stores the network in CSR order (edge ids are positions), with each
/// vertex's out-degree and each edge's head instead of its endpoints.
pub const SNAPSHOT_VERSION: u8 = 7;

/// Size of the fixed header preceding the payload: the magic, the version
/// byte, the payload length and the payload's CRC-32.
pub const SNAPSHOT_HEADER_LEN: usize = 8 + 1 + 8 + 4;

/// Header bytes holding the payload length (`u64`, little-endian).
pub const SNAPSHOT_LEN_FIELD: Range<usize> = 9..17;

/// Header bytes holding the payload's CRC-32 (`u32`, little-endian).
pub const SNAPSHOT_CRC_FIELD: Range<usize> = 17..SNAPSHOT_HEADER_LEN;

/// Longest dataset name a snapshot may carry.
pub const MAX_DATASET_NAME: usize = 256;

/// Most canary probes a snapshot may carry.
const MAX_CANARIES: usize = 4096;

/// Canary probes recorded by default at save time.
const DEFAULT_CANARY_COUNT: usize = 16;

/// An error raised while saving or loading a snapshot, or while decoding a
/// model store's `MANIFEST`, which is sealed with the same header (see
/// [`crate::store`]).  The messages name no file kind: the wrapping error
/// (`RegistryError::Snapshot`, `StoreError::Snapshot`, …) does.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read or written.  Carries the
    /// offending path so operator-facing reload/rollback messages say
    /// *which* file failed.
    Io {
        /// The file the operation failed on.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file does not start with the expected magic (`L2RSNAP\0`, or
    /// `L2RMANI\0` for a manifest).
    BadMagic,
    /// The file was written by any format version other than the one this
    /// build reads ([`SNAPSHOT_VERSION`], or
    /// [`crate::store::MANIFEST_VERSION`] for a manifest), older or newer.
    UnsupportedVersion(u8),
    /// The file has the expected magic but ends inside the fixed header.
    TruncatedHeader {
        /// Total file length in bytes (less than the header size).
        len: u64,
    },
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present after the header.
        actual: u64,
    },
    /// The file is longer than its header claims.
    TrailingBytes(u64),
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        expected: u32,
        /// Checksum of the payload as read.
        actual: u32,
    },
    /// The payload failed structural validation.
    Codec(CodecError),
}

impl SnapshotError {
    /// Wraps an I/O failure with the path it happened on.
    pub fn io(path: &Path, source: std::io::Error) -> SnapshotError {
        SnapshotError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "I/O error at `{}`: {source}", path.display())
            }
            SnapshotError::BadMagic => write!(f, "bad magic (wrong kind of file)"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported format version {v} (this build reads snapshot version \
                 {SNAPSHOT_VERSION} and manifest version {MANIFEST_VERSION})"
            ),
            SnapshotError::TruncatedHeader { len } => write!(
                f,
                "truncated inside the {SNAPSHOT_HEADER_LEN}-byte header ({len} bytes total)"
            ),
            SnapshotError::Truncated { expected, actual } => {
                write!(f, "truncated: payload {actual} of {expected} bytes")
            }
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the payload")
            }
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header {expected:#010x}, payload {actual:#010x}"
            ),
            SnapshotError::Codec(e) => write!(f, "payload invalid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            SnapshotError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// Sealed files
// ---------------------------------------------------------------------------

/// Starts a sealed file of kind `magic` at format `version`: a writer
/// holding the header with its length and CRC fields zeroed, ready for the
/// payload to be written straight after it.
pub(crate) fn seal_begin(magic: [u8; 8], version: u8) -> Writer {
    let mut w = Writer::new();
    w.u64(u64::from_le_bytes(magic));
    w.u8(version);
    w.u64(0); // payload length, filled in by `seal`
    w.u32(0); // payload checksum, filled in by `seal`
    w
}

/// Finishes a file started by [`seal_begin`]: fills in the payload's length
/// and CRC-32 in place, so the payload is never copied.
pub(crate) fn seal(w: Writer) -> Vec<u8> {
    let mut out = w.into_vec();
    let payload_len = (out.len() - SNAPSHOT_HEADER_LEN) as u64;
    out[SNAPSHOT_LEN_FIELD].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out[SNAPSHOT_HEADER_LEN..]);
    out[SNAPSHOT_CRC_FIELD].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Checks a sealed file's header — magic, header length, version, payload
/// length and payload CRC-32, in that order — and returns the payload.
pub(crate) fn unseal(bytes: &[u8], magic: [u8; 8], version: u8) -> Result<&[u8], SnapshotError> {
    if !bytes.starts_with(&magic) {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(SnapshotError::TruncatedHeader {
            len: bytes.len() as u64,
        });
    }
    if bytes[8] != version {
        return Err(SnapshotError::UnsupportedVersion(bytes[8]));
    }
    let payload_len =
        u64::from_le_bytes(bytes[SNAPSHOT_LEN_FIELD].try_into().expect("8-byte slice"));
    let stored_crc =
        u32::from_le_bytes(bytes[SNAPSHOT_CRC_FIELD].try_into().expect("4-byte slice"));
    let payload = &bytes[SNAPSHOT_HEADER_LEN..];
    let actual = payload.len() as u64;
    if actual < payload_len {
        return Err(SnapshotError::Truncated {
            expected: payload_len,
            actual,
        });
    }
    if actual > payload_len {
        return Err(SnapshotError::TrailingBytes(actual - payload_len));
    }
    let actual_crc = crc32(payload);
    if actual_crc != stored_crc {
        return Err(SnapshotError::ChecksumMismatch {
            expected: stored_crc,
            actual: actual_crc,
        });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Canary probes
// ---------------------------------------------------------------------------

/// One canary probe: a route query and the digest of its answer, recorded
/// at save time and replayed before a hot-swap commits.  A digest mismatch
/// means the snapshot's model does not answer like the model that was
/// saved — the swap is rejected and the old model keeps serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canary {
    /// Probe source vertex.
    pub src: VertexId,
    /// Probe destination vertex.
    pub dst: VertexId,
    /// [`route_digest`] of the model's answer at save time.
    pub digest: u64,
}

/// A decoded snapshot: the fitted model plus its provenance metadata.
#[derive(Debug)]
pub struct Snapshot {
    /// The dataset name stamped at save time (empty for unnamed saves).
    pub dataset: String,
    /// Canary probes recorded at save time.
    pub canaries: Vec<Canary>,
    /// The fitted model itself.
    pub model: L2r,
}

/// The finalization step of splitmix64 — a cheap, well-mixed hash.  The
/// workspace's one copy: it also mixes the fault schedules of the store's
/// `FaultFs` and of the serve crate's `FaultPlan`, so seeds behave
/// identically across both fault layers.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-sensitive digest of one route answer: folds the strategy label
/// and every path vertex through splitmix64.  `None` (no route) has its
/// own fixed digest.  Deterministic across processes and platforms — the
/// same answer always digests the same.
pub fn route_digest(result: &Option<RouteResult>) -> u64 {
    let Some(r) = result else {
        return 0x4E4F_524F_5554_4531; // fixed "NOROUTE" sentinel
    };
    let mut h = 0xD16E_5715_0CA4_A21Eu64;
    for &b in r.strategy.label().as_bytes() {
        h = splitmix64(h ^ b as u64);
    }
    let vertices = r.path.vertices();
    h = splitmix64(h ^ vertices.len() as u64);
    for v in vertices {
        h = splitmix64(h ^ v.0 as u64);
    }
    h
}

/// Computes `count` canary probes for `model`: a deterministic schedule of
/// source/destination pairs (seeded only by the network's shape, so
/// `encode → decode → encode` reproduces the exact probes) routed through
/// [`L2r::route`], the router every served model answers with.
pub fn compute_canaries(model: &L2r, count: usize) -> Vec<Canary> {
    let n = model.network().num_vertices() as u64;
    if n < 2 || count == 0 {
        return Vec::new();
    }
    let seed = 0x5EED_CAFE_D15C_0B01u64 ^ (n << 20) ^ model.network().num_edges() as u64;
    let mut canaries = Vec::with_capacity(count);
    let mut scratch = QueryScratch::new();
    for i in 0..count as u64 {
        let src = VertexId((splitmix64(seed ^ (2 * i)) % n) as u32);
        let mut dst = VertexId((splitmix64(seed ^ (2 * i + 1)) % n) as u32);
        if dst == src {
            dst = VertexId(((dst.0 as u64 + 1) % n) as u32);
        }
        let digest = route_digest(&model.route(&mut scratch, src, dst));
        canaries.push(Canary { src, dst, digest });
    }
    canaries
}

fn encode_duration(w: &mut Writer, d: std::time::Duration) {
    // Nanosecond resolution in a u64 covers ~584 years of offline time.
    w.u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

fn decode_duration(
    r: &mut Reader<'_>,
    what: &'static str,
) -> Result<std::time::Duration, CodecError> {
    Ok(std::time::Duration::from_nanos(r.u64(what)?))
}

fn encode_stats(w: &mut Writer, s: &OfflineStats) {
    encode_duration(w, s.clustering_time);
    encode_duration(w, s.region_graph_time);
    encode_duration(w, s.learning_time);
    encode_duration(w, s.transfer_time);
    encode_duration(w, s.apply_time);
    w.length(s.num_regions);
    w.length(s.num_t_edges);
    w.length(s.num_b_edges);
    w.f64(s.null_rate);
    w.length(s.apply.edges_with_paths);
    w.length(s.apply.edges_without_paths);
    w.length(s.apply.total_paths);
    encode_duration(w, s.connector_time);
    w.length(s.unconverged_columns);
    w.f64(s.max_relative_residual);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<OfflineStats, CodecError> {
    Ok(OfflineStats {
        clustering_time: decode_duration(r, "clustering time")?,
        region_graph_time: decode_duration(r, "region graph time")?,
        learning_time: decode_duration(r, "learning time")?,
        transfer_time: decode_duration(r, "transfer time")?,
        apply_time: decode_duration(r, "apply time")?,
        num_regions: r.u64("num regions")? as usize,
        num_t_edges: r.u64("num t-edges")? as usize,
        num_b_edges: r.u64("num b-edges")? as usize,
        null_rate: r.f64("null rate")?,
        apply: crate::apply::ApplyStats {
            edges_with_paths: r.u64("edges with paths")? as usize,
            edges_without_paths: r.u64("edges without paths")? as usize,
            total_paths: r.u64("total paths")? as usize,
        },
        connector_time: decode_duration(r, "connector time")?,
        unconverged_columns: r.u64("unconverged columns")? as usize,
        max_relative_residual: r.f64("max relative residual")?,
    })
}

/// Encodes the framed snapshot (header + payload) with `stats` in place of
/// the model's own.  The payload is written straight after a placeholder
/// header, which is patched at the end, so the snapshot is never copied.
/// Hash-map entries are written in ascending edge-id order, making the byte
/// stream deterministic.
fn encode_framed(model: &L2r, stats: &OfflineStats, dataset: &str, canaries: &[Canary]) -> Vec<u8> {
    let mut w = seal_begin(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
    w.str(dataset);
    let net = model.network();
    net.encode(&mut w);
    encode_region_graph(&mut w, model.region_graph(), net);

    let mut learned: Vec<(&RegionEdgeId, &LearnedPreference)> =
        model.learned_preferences().iter().collect();
    learned.sort_by_key(|(id, _)| **id);
    w.length(learned.len());
    // l2r: allow(nondeterministic-iteration) — the Vec sorted above, not the map
    for (id, lp) in learned {
        w.u32(id.0);
        lp.encode(&mut w);
    }

    let mut transferred: Vec<(&RegionEdgeId, &Option<Preference>)> =
        model.transferred_preferences().iter().collect();
    transferred.sort_by_key(|(id, _)| **id);
    w.length(transferred.len());
    // l2r: allow(nondeterministic-iteration) — the Vec sorted above, not the map
    for (id, pref) in transferred {
        w.u32(id.0);
        match pref {
            Some(p) => {
                w.bool(true);
                p.encode(&mut w);
            }
            None => w.bool(false),
        }
    }

    let config = model.config();
    config.learn.encode(&mut w);
    config.transfer.encode(&mut w);
    w.length(config.function_top_k);
    w.length(config.max_transfer_center_pairs);

    encode_stats(&mut w, stats);

    w.length(canaries.len());
    for c in canaries {
        w.u32(c.src.0);
        w.u32(c.dst.0);
        w.u64(c.digest);
    }
    model.connectors().encode(&mut w, net);
    seal(w)
}

fn decode_payload(payload: &[u8]) -> Result<Snapshot, SnapshotError> {
    let mut r = Reader::new(payload);
    let dataset = r.str("dataset name", MAX_DATASET_NAME)?.to_string();
    // The network tables dominate the payload at country scale; their
    // fixed-stride wire format lets the decode fan out across `L2R_THREADS`
    // workers.
    let net = RoadNetwork::decode(&mut r)?;
    let region_graph: RegionGraph = decode_region_graph(&mut r, &net)?;
    let num_edges = region_graph.num_edges();

    let learned_len = r.length("learned preference count", 14)?;
    let mut learned: HashMap<RegionEdgeId, LearnedPreference> = HashMap::with_capacity(learned_len);
    for _ in 0..learned_len {
        let id = RegionEdgeId(r.index("learned edge id", num_edges)?);
        let lp = LearnedPreference::decode(&mut r)?;
        if learned.insert(id, lp).is_some() {
            return Err(CodecError::Invalid("duplicate learned edge id").into());
        }
    }

    let transferred_len = r.length("transferred preference count", 5)?;
    let mut transferred: HashMap<RegionEdgeId, Option<Preference>> =
        HashMap::with_capacity(transferred_len);
    for _ in 0..transferred_len {
        let id = RegionEdgeId(r.index("transferred edge id", num_edges)?);
        let pref = if r.bool("transferred preference flag")? {
            Some(Preference::decode(&mut r)?)
        } else {
            None
        };
        if transferred.insert(id, pref).is_some() {
            return Err(CodecError::Invalid("duplicate transferred edge id").into());
        }
    }

    let learn = l2r_preference::LearnConfig::decode(&mut r)?;
    let transfer = l2r_preference::TransferConfig::decode(&mut r)?;
    let function_top_k = r.u64("function top k")? as usize;
    let max_transfer_center_pairs = r.u64("max transfer center pairs")? as usize;
    let config = L2rConfig {
        learn,
        transfer,
        function_top_k,
        max_transfer_center_pairs,
    };

    let stats = decode_stats(&mut r)?;

    let canary_len = r.length("canary count", 16)?;
    if canary_len > MAX_CANARIES {
        return Err(CodecError::ImplausibleLength {
            what: "canary count",
            len: canary_len as u64,
        }
        .into());
    }
    let num_vertices = net.num_vertices() as u32;
    let mut canaries = Vec::with_capacity(canary_len);
    for _ in 0..canary_len {
        let src = r.u32("canary source")?;
        let dst = r.u32("canary destination")?;
        if src >= num_vertices || dst >= num_vertices {
            return Err(CodecError::Invalid("canary vertex id out of range").into());
        }
        canaries.push(Canary {
            src: VertexId(src),
            dst: VertexId(dst),
            digest: r.u64("canary digest")?,
        });
    }

    // The connector table comes last and runs to the end of the payload:
    // its keys are not stored but derived from the region graph, once the
    // model's oriented-path table exists.
    let model = L2r::assemble(
        net,
        region_graph,
        learned,
        transferred,
        config,
        stats,
        |net, rg, oriented| ConnectorTable::decode(&mut r, net, rg, oriented),
    )?;
    Ok(Snapshot {
        dataset,
        canaries,
        model,
    })
}

/// Serialises a fitted model into the framed snapshot byte stream
/// (header + checksummed payload), stamping `dataset` and recording
/// 16 canary probes.  Deterministic: the same model
/// and name always produce the same bytes.
pub fn encode_snapshot(model: &L2r, dataset: &str) -> Vec<u8> {
    encode_snapshot_with(
        model,
        dataset,
        &compute_canaries(model, DEFAULT_CANARY_COUNT),
    )
}

/// Serialises a fitted model with explicit canary probes (tests and chaos
/// drills craft deliberately wrong ones to prove validation rejects them).
pub fn encode_snapshot_with(model: &L2r, dataset: &str, canaries: &[Canary]) -> Vec<u8> {
    encode_framed(model, model.stats(), dataset, canaries)
}

/// Serialises a fitted model without a dataset stamp (the name is empty:
/// such snapshots reload under any name).
pub fn encode_model(model: &L2r) -> Vec<u8> {
    encode_snapshot(model, "")
}

/// Serialises a fitted model with its wall-clock stage durations zeroed.
///
/// Snapshots carry the fit's per-stage timings as provenance, so two fits of
/// the same data never encode identically through [`encode_model`] even when
/// the learned model is the same.  This variant strips exactly that timing
/// provenance (the structural stats — counts, null rate, transfer
/// convergence, apply statistics — are kept), making the bytes comparable
/// across fits: it is what the cross-thread determinism checks diff.  The
/// model is encoded in place, with only the stats overridden.
pub fn encode_model_structural(model: &L2r) -> Vec<u8> {
    let stats = OfflineStats {
        clustering_time: std::time::Duration::ZERO,
        region_graph_time: std::time::Duration::ZERO,
        learning_time: std::time::Duration::ZERO,
        transfer_time: std::time::Duration::ZERO,
        apply_time: std::time::Duration::ZERO,
        connector_time: std::time::Duration::ZERO,
        ..model.stats().clone()
    };
    let canaries = compute_canaries(model, DEFAULT_CANARY_COUNT);
    encode_framed(model, &stats, "", &canaries)
}

/// Validates the snapshot framing — magic, version, header, length and
/// payload checksum — without decoding the payload.  This is what the
/// model store runs over artifacts before trusting them (a bit flip
/// anywhere in the file fails here).  Its cost is one CRC-32 pass over the
/// payload, well below a full decode of the same payload.
pub fn verify_frame(bytes: &[u8]) -> Result<(), SnapshotError> {
    unseal(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION).map(|_| ())
}

/// Decodes a framed snapshot byte stream — model plus provenance metadata —
/// validating the magic, version, length, checksum and every embedded id.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    decode_payload(unseal(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?)
}

/// Decodes a framed snapshot byte stream back into a fitted model,
/// discarding the provenance metadata.
pub fn decode_model(bytes: &[u8]) -> Result<L2r, SnapshotError> {
    decode_snapshot(bytes).map(|s| s.model)
}

/// Writes a fitted model to `path` with a `dataset` stamp, returning the
/// snapshot size in bytes.
pub fn save_snapshot(model: &L2r, dataset: &str, path: &Path) -> Result<u64, SnapshotError> {
    let bytes = encode_snapshot(model, dataset);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| SnapshotError::io(parent, e))?;
        }
    }
    std::fs::write(path, &bytes).map_err(|e| SnapshotError::io(path, e))?;
    Ok(bytes.len() as u64)
}

/// Writes a fitted model to `path` without a dataset stamp, returning the
/// snapshot size in bytes.
pub fn save_model(model: &L2r, path: &Path) -> Result<u64, SnapshotError> {
    save_snapshot(model, "", path)
}

/// Reads a snapshot — model plus provenance metadata — from `path` in a
/// single read.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::io(path, e))?;
    decode_snapshot(&bytes)
}

/// Reads a fitted model from `path` in a single read.
pub fn load_model(path: &Path) -> Result<L2r, SnapshotError> {
    load_snapshot(path).map(|s| s.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_datagen::{
        generate_network, generate_workload, SyntheticNetworkConfig, WorkloadConfig,
    };
    use l2r_road_network::RoadNetworkBuilder;

    fn fitted() -> L2r {
        let syn = generate_network(&SyntheticNetworkConfig::tiny());
        let wl = generate_workload(&syn, &WorkloadConfig::tiny(250));
        let (train, _) = wl.temporal_split(0.8);
        L2r::fit(&syn.net, &train, L2rConfig::fast()).unwrap()
    }

    #[test]
    fn encode_decode_encode_is_bit_stable() {
        let model = fitted();
        let bytes = encode_model(&model);
        let loaded = decode_model(&bytes).unwrap();
        assert_eq!(encode_model(&loaded), bytes);
    }

    #[test]
    fn loaded_model_preserves_all_parts() {
        let model = fitted();
        let loaded = decode_model(&encode_model(&model)).unwrap();
        assert_eq!(
            loaded.network().num_vertices(),
            model.network().num_vertices()
        );
        assert_eq!(
            loaded.region_graph().num_edges(),
            model.region_graph().num_edges()
        );
        assert_eq!(loaded.learned_preferences(), model.learned_preferences());
        assert_eq!(
            loaded.transferred_preferences(),
            model.transferred_preferences()
        );
        assert_eq!(loaded.connectors(), model.connectors());
        assert!(!loaded.connectors().is_empty());
        assert_eq!(loaded.stats().num_regions, model.stats().num_regions);
        assert_eq!(
            loaded.stats().learning_time.as_nanos(),
            model.stats().learning_time.as_nanos()
        );
        assert_eq!(
            loaded.config().function_top_k,
            model.config().function_top_k
        );
    }

    #[test]
    fn structural_encoding_matches_a_rebuilt_zero_timing_model() {
        let model = fitted();
        let zero = std::time::Duration::ZERO;
        let stats = OfflineStats {
            clustering_time: zero,
            region_graph_time: zero,
            learning_time: zero,
            transfer_time: zero,
            apply_time: zero,
            connector_time: zero,
            ..model.stats().clone()
        };
        let rebuilt = L2r::from_parts(
            model.network().clone(),
            model.region_graph().clone(),
            model.learned_preferences().clone(),
            model.transferred_preferences().clone(),
            model.config().clone(),
            stats,
        );
        assert_eq!(encode_model_structural(&model), encode_model(&rebuilt));
    }

    #[test]
    fn empty_model_roundtrips() {
        // Zero regions cannot come out of `fit` (it errors), but the format
        // must still round-trip the degenerate model.
        let net = RoadNetworkBuilder::new().build();
        let rg = RegionGraph::build(&net, &[], &[], 2);
        let model = L2r::from_parts(
            net,
            rg,
            HashMap::new(),
            HashMap::new(),
            L2rConfig::default(),
            OfflineStats::default(),
        );
        let bytes = encode_model(&model);
        let loaded = decode_model(&bytes).unwrap();
        assert_eq!(loaded.region_graph().num_regions(), 0);
        assert!(loaded.learned_preferences().is_empty());
        assert_eq!(encode_model(&loaded), bytes);
    }

    #[test]
    fn out_of_range_preference_edge_ids_error() {
        let model = fitted();
        let num_edges = model.region_graph().num_edges() as u32;

        let mut learned = model.learned_preferences().clone();
        let any = *learned.values().next().unwrap();
        learned.insert(RegionEdgeId(num_edges + 40), any);
        let bad = L2r::from_parts(
            model.network().clone(),
            model.region_graph().clone(),
            learned,
            model.transferred_preferences().clone(),
            model.config().clone(),
            model.stats().clone(),
        );
        assert!(matches!(
            decode_model(&encode_model(&bad)),
            Err(SnapshotError::Codec(CodecError::IndexOutOfRange { .. }))
        ));

        let mut transferred = model.transferred_preferences().clone();
        transferred.insert(RegionEdgeId(num_edges), None);
        let bad = L2r::from_parts(
            model.network().clone(),
            model.region_graph().clone(),
            model.learned_preferences().clone(),
            transferred,
            model.config().clone(),
            model.stats().clone(),
        );
        assert!(matches!(
            decode_model(&encode_model(&bad)),
            Err(SnapshotError::Codec(CodecError::IndexOutOfRange { .. }))
        ));
    }

    #[test]
    fn named_snapshot_roundtrips_dataset_and_canaries() {
        let model = fitted();
        let bytes = encode_snapshot(&model, "chengdu");
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap.dataset, "chengdu");
        assert_eq!(snap.canaries.len(), DEFAULT_CANARY_COUNT);
        // Replaying every canary against the decoded model reproduces the
        // recorded digests — the property registry validation relies on.
        for c in &snap.canaries {
            let answer = snap.model.route(&mut QueryScratch::new(), c.src, c.dst);
            assert_eq!(route_digest(&answer), c.digest);
        }
        // Determinism: same model + name → same bytes.
        assert_eq!(encode_snapshot(&snap.model, "chengdu"), bytes);
    }

    #[test]
    fn out_of_range_canary_vertices_error() {
        let model = fitted();
        let n = model.network().num_vertices() as u32;
        let bad = [Canary {
            src: VertexId(n + 3),
            dst: VertexId(0),
            digest: 7,
        }];
        assert!(matches!(
            decode_snapshot(&encode_snapshot_with(&model, "x", &bad)),
            Err(SnapshotError::Codec(CodecError::Invalid(_)))
        ));
    }

    #[test]
    fn verify_frame_accepts_exactly_what_decode_accepts() {
        let model = fitted();
        let bytes = encode_snapshot(&model, "d");
        verify_frame(&bytes).unwrap();
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            verify_frame(&flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            verify_frame(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
