//! Engine snapshots: persist a built [`ReachabilityEngine`] to disk and
//! reopen it without touching the trajectory dataset.
//!
//! The paper's indexes are built *offline* over a 194 GB dataset; rebuilding
//! them from raw trajectories on every process start would dwarf any query
//! cost. A snapshot captures everything the engine derives from the data:
//!
//! * the **ST-Index** — its temporal directory (slot → segment → blob
//!   handle) in the snapshot container and its posting heap as a raw page
//!   file reopened through [`streach_storage::FilePageStore`], so a cold
//!   start serves queries with *real* page I/O against real disk pages,
//! * the **Con-Index** — the historical [`SpeedStats`] every bounding hop
//!   is derived from (queries store no tables, so there are none to save),
//! * the [`IndexConfig`] the indexes were built with.
//!
//! The **road network is not serialized** — it is a static input (generated
//! deterministically or loaded from map data), not a derivative of the
//! trajectories. [`ReachabilityEngine::open_snapshot`] takes the network as
//! an argument and validates it against a structural fingerprint stored in
//! the snapshot, so opening a snapshot against the wrong city fails loudly
//! instead of answering garbage.
//!
//! # Files
//!
//! A snapshot directory holds:
//!
//! * `index.snap` — the [`streach_storage::snapshot`] container (versioned
//!   header, named sections, CRC-32 per section and over the file),
//! * `postings.pages` — the sealed-base ST-Index posting heap, one 4 KiB
//!   page per [`streach_storage::PAGE_SIZE`] slot, written with `fsync`,
//! * `deltas.pages` — the streaming-ingest delta posting heap (empty when
//!   nothing was ingested since the base was sealed).
//!
//! # Incremental snapshots
//!
//! Streaming ingest ([`crate::ingest`]) chains three *delta sections* onto
//! the container — `delta_pages_meta` (length + CRC of `deltas.pages`),
//! `delta_dir` (the (slot, segment) → handle override directory) and
//! `ingest_meta` (WAL generation, applied-record prefix, per-trajectory
//! last-visit table). [`ReachabilityEngine::save_incremental_snapshot`]
//! skips re-exporting `postings.pages` when the target directory already
//! holds the base heap the engine was opened from (length-checked at save;
//! the CRC pinned in the container is verified at open), so a periodic
//! checkpoint of a serving process rewrites only the container and the
//! small delta heap.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use bytes::{Buf, BufMut};
use streach_roadnet::{RoadNetwork, SegmentId, ShardMap};
use streach_storage::{
    BlobHandle, Crc32, FilePageStore, InMemoryPageStore, MmapPageStore, PageStore, PostingStore,
    SimulatedDiskStore, SnapshotReader, SnapshotWriter, StorageBackend, StorageError,
    StorageResult,
};

use crate::con_index::ConIndex;
use crate::config::IndexConfig;
use crate::engine::ReachabilityEngine;
use crate::ingest::IngestState;
use crate::speed_stats::SpeedStats;
use crate::st_index::{StIndex, StIndexStats, StIndexStore};

/// File name of the snapshot container inside a snapshot directory.
pub const CONTAINER_FILE: &str = "index.snap";
/// File name of the base posting-heap page file inside a snapshot
/// directory.
pub const PAGES_FILE: &str = "postings.pages";
/// File-name prefix of the delta posting-heap page files inside a snapshot
/// directory (see [`delta_pages_file`]).
pub const DELTA_PAGES_PREFIX: &str = "deltas";

/// File name of the delta page file with the given save sequence number.
///
/// Unlike the base heap, the delta heap is rewritten on **every**
/// checkpoint, and the WAL records it covers may have been rotated away —
/// overwriting the previous delta file in place would make a crash between
/// the two publish renames destroy the only remaining copy of ingested
/// data. Each save therefore writes a fresh `deltas.<seq>.pages`; the
/// container names the sequence it belongs to, and superseded delta files
/// are deleted only after the new container is committed.
pub fn delta_pages_file(seq: u64) -> String {
    format!("{DELTA_PAGES_PREFIX}.{seq}.pages")
}

/// Which page store a snapshot-open wrapper is being offered (see
/// [`ReachabilityEngine::open_snapshot_with_stores`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreRole {
    /// The sealed-base posting heap (`postings.pages`, read-only).
    Base,
    /// The delta posting heap of previously ingested data, loaded into a
    /// writable in-memory store so further ingest never mutates the
    /// snapshot artifacts.
    Delta,
}

const SEC_CONFIG: &str = "config";
const SEC_NETWORK: &str = "network";
const SEC_PAGES_META: &str = "pages_meta";
const SEC_ST_INDEX: &str = "st_index";
const SEC_SPEED_STATS: &str = "speed_stats";
const SEC_DELTA_PAGES_META: &str = "delta_pages_meta";
const SEC_DELTA_DIR: &str = "delta_dir";
const SEC_INGEST_META: &str = "ingest_meta";
/// Optional: shard id (u16 LE) + encoded
/// [`ShardMap`]. Present only for shard engines; restores the ownership
/// filter at open so a reopened shard keeps folding only its own postings.
const SEC_SHARD_MAP: &str = "shard_map";
/// Optional: the road network itself
/// ([`streach_roadnet::encode_network`], bit-exact roundtrip). Present for
/// self-contained snapshots, so a replica bootstraps from shipped
/// artifacts alone (see [`ReachabilityEngine::open_snapshot_standalone`]).
const SEC_ROAD_NETWORK: &str = "road_network";

/// Structural fingerprint of a road network (FNV-1a over segment count,
/// node count and every segment's length/class/topology), used to reject
/// opening a snapshot against a different network.
pub fn network_fingerprint(network: &RoadNetwork) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    mix(network.num_segments() as u64);
    mix(network.num_nodes() as u64);
    for seg in network.segments() {
        mix(seg.length_m.to_bits());
        mix(seg.start_node.0 as u64);
        mix(seg.end_node.0 as u64);
        mix(seg.class as u64);
    }
    hash
}

/// Byte length of the `config` section.
const CONFIG_LEN: usize = 49;

fn encode_config(config: &IndexConfig) -> Vec<u8> {
    let mut buf = Vec::with_capacity(CONFIG_LEN);
    buf.put_u32_le(config.slot_s);
    buf.put_u64_le(config.pool_pages as u64);
    buf.put_u64_le(config.read_latency_us);
    buf.put_u64_le(config.max_cached_con_slots as u64);
    buf.put_u64_le(config.fallback_min_speed_ms.to_bits());
    buf.put_u32_le(config.read_retries);
    buf.put_u64_le(config.auto_checkpoint_bytes);
    buf.put_u8(config.storage_backend.config_byte());
    buf
}

/// Decodes the `config` section: exactly [`CONFIG_LEN`] bytes.
fn decode_config(mut buf: &[u8]) -> StorageResult<IndexConfig> {
    if buf.remaining() != CONFIG_LEN {
        return Err(StorageError::corrupt("config section has wrong length"));
    }
    let config = IndexConfig {
        slot_s: buf.get_u32_le(),
        pool_pages: buf.get_u64_le() as usize,
        read_latency_us: buf.get_u64_le(),
        max_cached_con_slots: buf.get_u64_le() as usize,
        fallback_min_speed_ms: f64::from_bits(buf.get_u64_le()),
        read_retries: buf.get_u32_le(),
        auto_checkpoint_bytes: buf.get_u64_le(),
        storage_backend: StorageBackend::from_config_byte(buf.get_u8())
            .ok_or_else(|| StorageError::corrupt("config section has unknown storage backend"))?,
    };
    if config.slot_s == 0 || config.pool_pages == 0 {
        return Err(StorageError::corrupt("config section has invalid values"));
    }
    Ok(config)
}

/// ST-Index metadata: scalars, construction stats and the temporal
/// directory — all read from the one state pinned for this save.
fn encode_st_index(st: &StIndex, pinned: &crate::st_index::PinnedState) -> Vec<u8> {
    let directory = pinned.directory_entries();
    let entries: usize = directory.iter().map(|(_, e)| e.len()).sum();
    let mut buf = Vec::with_capacity(64 + directory.len() * 12 + entries * 16);
    buf.put_u32_le(st.slot_s());
    buf.put_u16_le(st.num_days());
    let stats = st.stats();
    buf.put_u64_le(stats.num_time_lists);
    buf.put_u64_le(stats.num_observations);
    buf.put_u64_le(stats.posting_bytes);
    buf.put_u64_le(stats.posting_pages);
    buf.put_u64_le(pinned.base_postings().size_bytes());
    buf.put_u32_le(directory.len() as u32);
    for (slot, entries) in &directory {
        buf.put_u32_le(*slot);
        buf.put_u32_le(entries.len() as u32);
        for (seg, handle) in entries {
            buf.put_u32_le(seg.0);
            buf.put_u64_le(handle.offset);
            buf.put_u32_le(handle.len);
        }
    }
    buf
}

struct StIndexParts {
    slot_s: u32,
    num_days: u16,
    stats: StIndexStats,
    tail: u64,
    directory: Vec<(u32, Vec<(SegmentId, BlobHandle)>)>,
}

fn decode_st_index(mut buf: &[u8]) -> StorageResult<StIndexParts> {
    let corrupt = || StorageError::corrupt("st_index section truncated");
    if buf.remaining() < 50 {
        return Err(corrupt());
    }
    let slot_s = buf.get_u32_le();
    let num_days = buf.get_u16_le();
    let stats = StIndexStats {
        num_time_lists: buf.get_u64_le(),
        num_observations: buf.get_u64_le(),
        posting_bytes: buf.get_u64_le(),
        posting_pages: buf.get_u64_le(),
    };
    let tail = buf.get_u64_le();
    let num_slots = buf.get_u32_le() as usize;
    // File-supplied count: cap the pre-allocation by what the buffer could
    // possibly hold (8 bytes minimum per slot record).
    let mut directory = Vec::with_capacity(num_slots.min(buf.remaining() / 8));
    let mut prev_slot: Option<u32> = None;
    for _ in 0..num_slots {
        if buf.remaining() < 8 {
            return Err(corrupt());
        }
        let slot = buf.get_u32_le();
        if prev_slot.is_some_and(|p| p >= slot) {
            return Err(StorageError::corrupt("st_index directory slots not sorted"));
        }
        prev_slot = Some(slot);
        let num_entries = buf.get_u32_le() as usize;
        if buf.remaining() < num_entries * 16 {
            return Err(corrupt());
        }
        let mut entries = Vec::with_capacity(num_entries);
        let mut prev_seg: Option<u32> = None;
        for _ in 0..num_entries {
            let seg = buf.get_u32_le();
            let offset = buf.get_u64_le();
            let len = buf.get_u32_le();
            if prev_seg.is_some_and(|p| p >= seg) {
                return Err(StorageError::corrupt(
                    "st_index directory entries not sorted",
                ));
            }
            prev_seg = Some(seg);
            if offset.checked_add(len as u64).is_none_or(|end| end > tail) {
                return Err(StorageError::corrupt(
                    "st_index blob handle points past the posting heap",
                ));
            }
            entries.push((SegmentId(seg), BlobHandle { offset, len }));
        }
        directory.push((slot, entries));
    }
    if buf.remaining() != 0 {
        return Err(StorageError::corrupt("st_index section has trailing bytes"));
    }
    if slot_s == 0 {
        return Err(StorageError::corrupt("st_index slot length is zero"));
    }
    Ok(StIndexParts {
        slot_s,
        num_days,
        stats,
        tail,
        directory,
    })
}

/// The delta directory: ((slot, segment), handle) entries in key order.
fn encode_delta_dir(entries: &[((u32, u32), BlobHandle)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + entries.len() * 20);
    buf.put_u32_le(entries.len() as u32);
    for ((slot, segment), handle) in entries {
        buf.put_u32_le(*slot);
        buf.put_u32_le(*segment);
        buf.put_u64_le(handle.offset);
        buf.put_u32_le(handle.len);
    }
    buf
}

fn decode_delta_dir(mut buf: &[u8], tail: u64) -> StorageResult<Vec<((u32, u32), BlobHandle)>> {
    let corrupt = || StorageError::corrupt("delta_dir section truncated");
    if buf.remaining() < 4 {
        return Err(corrupt());
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() != n * 20 {
        return Err(corrupt());
    }
    let mut entries = Vec::with_capacity(n);
    let mut prev: Option<(u32, u32)> = None;
    for _ in 0..n {
        let key = (buf.get_u32_le(), buf.get_u32_le());
        if prev.is_some_and(|p| p >= key) {
            return Err(StorageError::corrupt("delta_dir entries not sorted"));
        }
        prev = Some(key);
        let offset = buf.get_u64_le();
        let len = buf.get_u32_le();
        if offset.checked_add(len as u64).is_none_or(|end| end > tail) {
            return Err(StorageError::corrupt(
                "delta_dir blob handle points past the delta heap",
            ));
        }
        entries.push((key, BlobHandle { offset, len }));
    }
    Ok(entries)
}

/// Exports every page of `source` into a fresh page file at `path`,
/// returning (pages, CRC-32). The source is read underneath the latency
/// shim — export is an offline bulk copy, not simulated query I/O.
fn export_pages(source: &dyn PageStore, path: &Path) -> StorageResult<(u64, u32)> {
    let target = FilePageStore::create(path)?;
    let mut crc = Crc32::new();
    for page_id in 0..source.num_pages() {
        let page = source.read_page(page_id)?;
        crc.update(page.bytes());
        let id = target.allocate()?;
        debug_assert_eq!(id, page_id);
        target.write_page(page_id, &page)?;
    }
    target.flush()?;
    Ok((target.num_pages(), crc.finalize()))
}

/// Writes the engine's snapshot into `dir` (created if missing): the
/// container file plus the base and delta posting page files, all fsynced.
/// The caller holds the engine's ingest lock, so the delta tail cannot
/// move underneath the export.
///
/// Files are staged under `.tmp` names and renamed into place only after
/// they are fully written and synced, so re-saving over an existing
/// snapshot never destroys it on a crash mid-save. The container stores
/// each page file's length and CRC-32, so a torn set (crash between the
/// renames) — or any later bit rot in a page file — is rejected at open
/// instead of silently serving mismatched postings.
///
/// With `incremental`, the base page file is left untouched when the
/// target directory already holds the exact heap this engine serves
/// (length + CRC verified against the identity recorded at open).
pub(crate) fn save(
    engine: &ReachabilityEngine,
    dir: &Path,
    incremental: bool,
    ingest_state: &IngestState,
) -> StorageResult<()> {
    std::fs::create_dir_all(dir)?;
    let container_tmp = dir.join(format!("{CONTAINER_FILE}.tmp"));

    // Pin one (base, delta) state for the whole save. The caller holds the
    // ingest lock, which also excludes compaction, so this pinned pair is
    // the engine's state for the save's entire duration — while concurrent
    // queries keep being served from it untouched.
    let pinned = engine.st_index().pin();

    // 1. The base posting heap: reuse the published file when incremental
    //    and it still has the length the recorded identity expects (a full
    //    CRC pass here would make every checkpoint O(base); the CRC pinned
    //    in the container is verified at open, so in-place rot cannot be
    //    served — and re-exporting from the same rotten file would not
    //    save it either). Anything missing or resized is re-exported.
    let pages_path = dir.join(PAGES_FILE);
    let reusable = if incremental {
        engine.base_pages_identity().filter(|(pages, _)| {
            std::fs::metadata(&pages_path)
                .is_ok_and(|m| m.len() == pages * streach_storage::PAGE_SIZE as u64)
        })
    } else {
        None
    };
    let mut base_tmp = None;
    let (num_pages, pages_crc) = match reusable {
        Some(identity) => identity,
        None => {
            let tmp = dir.join(format!("{PAGES_FILE}.tmp"));
            let identity = export_pages(pinned.base_postings().store().inner(), &tmp)?;
            base_tmp = Some(tmp);
            identity
        }
    };

    // 2. The delta posting heap (empty file when nothing was ingested),
    //    under a fresh sequence-numbered name: the previous delta file is
    //    never touched until the new container is committed.
    let delta_seq = engine.next_delta_seq();
    let delta_name = delta_pages_file(delta_seq);
    let delta_tmp = dir.join(format!("{delta_name}.tmp"));
    let (delta_pages, delta_crc) =
        export_pages(pinned.delta_postings().store().inner(), &delta_tmp)?;

    // 3. Everything else goes into the checksummed container.
    let mut writer = SnapshotWriter::new();
    writer.add_section(SEC_CONFIG, encode_config(engine.config()));
    let mut network = Vec::with_capacity(8);
    network.put_u64_le(network_fingerprint(engine.network()));
    writer.add_section(SEC_NETWORK, network);
    let mut pages_meta = Vec::with_capacity(12);
    pages_meta.put_u64_le(num_pages);
    pages_meta.put_u32_le(pages_crc);
    writer.add_section(SEC_PAGES_META, pages_meta);
    writer.add_section(SEC_ST_INDEX, encode_st_index(engine.st_index(), &pinned));
    writer.add_section(SEC_SPEED_STATS, engine.con_index().speed_stats().encode());
    let mut delta_meta = Vec::with_capacity(28);
    delta_meta.put_u64_le(delta_pages);
    delta_meta.put_u32_le(delta_crc);
    delta_meta.put_u64_le(pinned.delta_postings().size_bytes());
    delta_meta.put_u64_le(delta_seq);
    writer.add_section(SEC_DELTA_PAGES_META, delta_meta);
    writer.add_section(
        SEC_DELTA_DIR,
        encode_delta_dir(&pinned.delta_directory_entries()),
    );
    writer.add_section(
        SEC_INGEST_META,
        ReachabilityEngine::encode_ingest_meta(ingest_state),
    );
    if let Some((map, shard_id)) = engine.shard_ownership() {
        let encoded = map.encode();
        let mut buf = Vec::with_capacity(2 + encoded.len());
        buf.put_u16_le(shard_id);
        buf.extend_from_slice(&encoded);
        writer.add_section(SEC_SHARD_MAP, buf);
    }
    if engine.snapshot_self_contained() {
        writer.add_section(
            SEC_ROAD_NETWORK,
            streach_roadnet::encode_network(engine.network()),
        );
    }
    writer.finish(&container_tmp)?;

    // 4. Publish: every artifact was staged under a `.tmp` (or fresh
    //    sequence-numbered) name, so a failure before the container rename
    //    leaves the previous snapshot fully openable — the old container
    //    still references the old, untouched delta file. The container
    //    rename is the commit point. Residual window (pre-existing, full
    //    saves only): when the base heap itself was re-exported over an
    //    existing snapshot, a crash between the two renames below leaves a
    //    torn base/container pair that is rejected at open; the engine
    //    still holds that state and can simply re-save.
    std::fs::rename(&delta_tmp, dir.join(&delta_name))?;
    if let Some(tmp) = base_tmp {
        std::fs::rename(&tmp, &pages_path)?;
        engine.set_base_pages_identity((num_pages, pages_crc));
    }
    std::fs::rename(&container_tmp, dir.join(CONTAINER_FILE))?;
    engine.commit_delta_seq(delta_seq);

    // 5. Garbage-collect superseded delta files — everything matching the
    //    prefix except the one the just-committed container references.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(DELTA_PAGES_PREFIX)
                && name.ends_with(".pages")
                && name != delta_name
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    Ok(())
}

/// Stream-verifies the page file against the length and CRC recorded in the
/// container.
fn verify_pages_file(path: &Path, expected_pages: u64, expected_crc: u32) -> StorageResult<()> {
    use std::io::Read as _;
    let mut file = std::fs::File::open(path)?;
    let mut crc = Crc32::new();
    let mut buf = vec![0u8; 1 << 20];
    let mut total = 0u64;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        crc.update(&buf[..n]);
        total += n as u64;
    }
    if total != expected_pages * streach_storage::PAGE_SIZE as u64 {
        return Err(StorageError::corrupt(format!(
            "posting page file has {total} bytes, expected {expected_pages} pages"
        )));
    }
    if crc.finalize() != expected_crc {
        return Err(StorageError::corrupt(
            "posting page file checksum mismatch (torn save or bit rot)",
        ));
    }
    Ok(())
}

/// Opens a sealed (read-only) page file through the chosen physical
/// backend. Both backends apply the same alignment validation and return
/// bit-identical pages; they differ only in the transport (read syscalls vs
/// a shared memory mapping).
fn open_sealed_pages(path: &Path, backend: StorageBackend) -> StorageResult<Box<dyn PageStore>> {
    Ok(match backend {
        StorageBackend::File => Box::new(FilePageStore::open_read_only(path)?),
        StorageBackend::Mmap => Box::new(MmapPageStore::open(path)?),
    })
}

/// Reopens an engine from the snapshot in `dir` against the given road
/// network. Fails with [`StorageError::Corrupt`] when the snapshot is
/// damaged or was built over a different network. `wrap` sees each
/// validated page store — [`StoreRole::Base`], then [`StoreRole::Delta`] —
/// before the engine takes ownership (identity for plain opens; a
/// fault-injection or instrumentation wrapper otherwise).
/// `backend_override` replaces the [`StorageBackend`] recorded in the
/// snapshot config for this open (and for every subsequent save from the
/// opened engine).
///
/// The base page file's CRC check runs on a scoped thread, concurrently
/// with decoding the container's sections on the caller's thread. It is
/// joined — and its error returned — before any page store is opened over
/// the file, so no engine is ever built over an unverified page file.
pub(crate) fn open<F>(
    dir: &Path,
    network: Arc<RoadNetwork>,
    backend_override: Option<StorageBackend>,
    wrap: F,
) -> StorageResult<ReachabilityEngine>
where
    F: FnMut(StoreRole, Box<dyn PageStore>) -> Box<dyn PageStore>,
{
    let reader = SnapshotReader::open(dir.join(CONTAINER_FILE))?;
    open_parsed(dir, &reader, network, backend_override, wrap)
}

/// Reopens a self-contained snapshot (see
/// [`ReachabilityEngine::open_snapshot_standalone`]): the road network is
/// decoded from the same parsed container the engine is then opened from,
/// so a concurrent re-save can never pair one file's network with another
/// file's index. The fingerprint check in [`open_parsed`] cross-validates
/// the codec roundtrip against the structural hash taken at save.
pub(crate) fn open_standalone(dir: &Path) -> StorageResult<ReachabilityEngine> {
    let reader = SnapshotReader::open(dir.join(CONTAINER_FILE))?;
    if !reader.section_names().any(|n| n == SEC_ROAD_NETWORK) {
        return Err(StorageError::corrupt(
            "snapshot has no road_network section (not saved self-contained)",
        ));
    }
    let network = streach_roadnet::decode_network(reader.section(SEC_ROAD_NETWORK)?)
        .ok_or_else(|| StorageError::corrupt("road_network section is malformed"))?;
    open_parsed(dir, &reader, Arc::new(network), None, |_, store| store)
}

/// Everything [`open_parsed`] decodes from the container while the base
/// page file is being verified.
struct DecodedSections {
    st_index: StIndexParts,
    delta_tail: u64,
    delta_seq: u64,
    delta_directory: Vec<((u32, u32), BlobHandle)>,
    speed_stats: SpeedStats,
    ingest_meta: (u64, u64, crate::ingest::LastVisitMap),
}

/// Decodes and cross-checks the container sections the engine is built
/// from, and verifies the delta page file against its recorded length and
/// CRC.
fn decode_sections(
    dir: &Path,
    reader: &SnapshotReader,
    config: &IndexConfig,
) -> StorageResult<DecodedSections> {
    let st_index = decode_st_index(reader.section(SEC_ST_INDEX)?)?;
    if st_index.slot_s != config.slot_s {
        return Err(StorageError::corrupt(
            "st_index slot length disagrees with the config section",
        ));
    }

    let mut delta_meta = reader.section(SEC_DELTA_PAGES_META)?;
    if delta_meta.remaining() != 28 {
        return Err(StorageError::corrupt(
            "delta_pages_meta section has wrong length",
        ));
    }
    let delta_expected_pages = delta_meta.get_u64_le();
    let delta_expected_crc = delta_meta.get_u32_le();
    let delta_tail = delta_meta.get_u64_le();
    let delta_seq = delta_meta.get_u64_le();
    if delta_tail.div_ceil(streach_storage::PAGE_SIZE as u64) > delta_expected_pages {
        return Err(StorageError::corrupt(
            "delta page file is shorter than the delta heap",
        ));
    }
    verify_pages_file(
        &dir.join(delta_pages_file(delta_seq)),
        delta_expected_pages,
        delta_expected_crc,
    )?;
    let delta_directory = decode_delta_dir(reader.section(SEC_DELTA_DIR)?, delta_tail)?;

    let speed_stats = SpeedStats::decode(reader.section(SEC_SPEED_STATS)?)
        .ok_or_else(|| StorageError::corrupt("speed_stats section is malformed"))?;
    if speed_stats.slot_s() != config.slot_s {
        return Err(StorageError::corrupt(
            "speed_stats granularity disagrees with the config section",
        ));
    }
    let ingest_meta = crate::ingest::decode_ingest_meta(reader.section(SEC_INGEST_META)?)?;
    Ok(DecodedSections {
        st_index,
        delta_tail,
        delta_seq,
        delta_directory,
        speed_stats,
        ingest_meta,
    })
}

/// [`open`] over an already parsed container.
fn open_parsed<F>(
    dir: &Path,
    reader: &SnapshotReader,
    network: Arc<RoadNetwork>,
    backend_override: Option<StorageBackend>,
    mut wrap: F,
) -> StorageResult<ReachabilityEngine>
where
    F: FnMut(StoreRole, Box<dyn PageStore>) -> Box<dyn PageStore>,
{
    let mut fp_section = reader.section(SEC_NETWORK)?;
    if fp_section.remaining() != 8 {
        return Err(StorageError::corrupt("network section has wrong length"));
    }
    let stored_fp = fp_section.get_u64_le();
    let actual_fp = network_fingerprint(&network);
    if stored_fp != actual_fp {
        return Err(StorageError::corrupt(format!(
            "snapshot was built over a different road network \
             (stored fingerprint {stored_fp:#018x}, got {actual_fp:#018x})"
        )));
    }

    let mut config = decode_config(reader.section(SEC_CONFIG)?)?;
    if let Some(backend) = backend_override {
        config.storage_backend = backend;
    }

    // The page file must belong to this container (length + CRC). It is the
    // largest input an open reads, so its checksum runs beside the section
    // decode and is joined before anything is opened over it.
    let mut pages_meta = reader.section(SEC_PAGES_META)?;
    if pages_meta.remaining() != 12 {
        return Err(StorageError::corrupt("pages_meta section has wrong length"));
    }
    let expected_pages = pages_meta.get_u64_le();
    let expected_crc = pages_meta.get_u32_le();
    let pages_path = dir.join(PAGES_FILE);
    let decoded = std::thread::scope(|s| {
        let base_check = s.spawn(|| verify_pages_file(&pages_path, expected_pages, expected_crc));
        let decoded = decode_sections(dir, reader, &config);
        let base_checked = base_check
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        base_checked.and(decoded)
    })?;
    let parts = decoded.st_index;

    // Reopen the verified posting heap — read-only, so snapshots deployed as
    // immutable artifacts still serve — behind the same latency shim the
    // in-memory backend uses (zero latency still counts page reads — and
    // here they are genuine disk reads).
    let base_store = open_sealed_pages(&pages_path, config.storage_backend)?;
    if base_store.num_pages() < parts.tail.div_ceil(streach_storage::PAGE_SIZE as u64) {
        return Err(StorageError::corrupt(
            "posting page file is shorter than the posting heap",
        ));
    }
    let io = base_store.io_stats();
    let store: StIndexStore = SimulatedDiskStore::with_latency(
        wrap(StoreRole::Base, base_store),
        Duration::from_micros(config.read_latency_us),
        Duration::ZERO,
    );
    let postings = PostingStore::with_tail_and_retries(
        store,
        config.pool_pages,
        parts.tail,
        config.read_retries,
    );

    // The verified delta heap of previously ingested data, copied into a
    // writable in-memory store (further ingest must never mutate the
    // snapshot artifacts). The copy shares the base heap's I/O counters, so
    // base and delta reads are accounted identically.
    let delta_path = dir.join(delta_pages_file(decoded.delta_seq));
    let delta_mem = InMemoryPageStore::with_stats(io);
    {
        let delta_src = open_sealed_pages(&delta_path, config.storage_backend)?;
        for page_id in 0..delta_src.num_pages() {
            let page = delta_src.read_page(page_id)?;
            let id = delta_mem.allocate()?;
            debug_assert_eq!(id, page_id);
            delta_mem.write_page(page_id, &page)?;
        }
    }
    let delta_store: StIndexStore = SimulatedDiskStore::with_latency(
        wrap(StoreRole::Delta, Box::new(delta_mem) as Box<dyn PageStore>),
        Duration::from_micros(config.read_latency_us),
        Duration::ZERO,
    );
    let delta_postings = PostingStore::with_tail_and_retries(
        delta_store,
        config.pool_pages,
        decoded.delta_tail,
        config.read_retries,
    );

    let st_index = StIndex::from_parts(
        network.clone(),
        parts.slot_s,
        parts.num_days,
        parts.stats,
        parts.directory,
        postings,
        delta_postings,
        decoded.delta_directory,
    );

    let con_index = ConIndex::new(network.clone(), Arc::new(decoded.speed_stats), &config);

    let (wal_generation, wal_applied, last_visit) = decoded.ingest_meta;
    let engine = ReachabilityEngine::new(network, st_index, con_index, config);
    engine.install_snapshot_meta(
        (expected_pages, expected_crc),
        wal_generation,
        wal_applied,
        last_visit,
    );
    engine.commit_delta_seq(decoded.delta_seq);
    engine.set_snapshot_home(dir);

    // Optional sections, presence-checked: unsharded engines have no shard
    // map, and only self-contained saves embed the network.
    if reader.section_names().any(|n| n == SEC_SHARD_MAP) {
        let mut buf = reader.section(SEC_SHARD_MAP)?;
        if buf.remaining() < 2 {
            return Err(StorageError::corrupt("shard_map section truncated"));
        }
        let shard_id = buf.get_u16_le();
        let map = ShardMap::decode(buf)
            .ok_or_else(|| StorageError::corrupt("shard_map section is malformed"))?;
        if map.num_segments() != engine.network().num_segments() {
            return Err(StorageError::corrupt(
                "shard_map covers a different number of segments than the network",
            ));
        }
        if shard_id >= map.num_shards() {
            return Err(StorageError::corrupt("shard_map shard id out of range"));
        }
        engine.set_shard_ownership(Arc::new(map), shard_id);
    }
    if reader.section_names().any(|n| n == SEC_ROAD_NETWORK) {
        engine.set_snapshot_self_contained();
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};

    #[test]
    fn fingerprint_is_deterministic_and_discriminates() {
        let a = SyntheticCity::generate(GeneratorConfig::small()).network;
        let b = SyntheticCity::generate(GeneratorConfig::small()).network;
        assert_eq!(network_fingerprint(&a), network_fingerprint(&b));
        let other = SyntheticCity::generate(GeneratorConfig {
            seed: 77,
            ..GeneratorConfig::small()
        })
        .network;
        assert_ne!(network_fingerprint(&a), network_fingerprint(&other));
    }

    #[test]
    fn config_roundtrip() {
        let config = IndexConfig {
            slot_s: 600,
            pool_pages: 33,
            read_latency_us: 17,
            max_cached_con_slots: 9,
            fallback_min_speed_ms: 2.75,
            read_retries: 5,
            auto_checkpoint_bytes: 123_456,
            storage_backend: StorageBackend::Mmap,
        };
        let bytes = encode_config(&config);
        assert_eq!(bytes.len(), CONFIG_LEN);
        let decoded = decode_config(&bytes).unwrap();
        assert_eq!(decoded.slot_s, 600);
        assert_eq!(decoded.pool_pages, 33);
        assert_eq!(decoded.read_latency_us, 17);
        assert_eq!(decoded.max_cached_con_slots, 9);
        assert_eq!(decoded.fallback_min_speed_ms, 2.75);
        assert_eq!(decoded.read_retries, 5);
        assert_eq!(decoded.auto_checkpoint_bytes, 123_456);
        assert_eq!(decoded.storage_backend, StorageBackend::Mmap);
        // Any other length, and an unknown backend byte, are corruption.
        assert!(decode_config(&[1, 2, 3]).is_err());
        assert!(decode_config(&bytes[..CONFIG_LEN - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_config(&padded).is_err());
        let mut bad = bytes;
        bad[CONFIG_LEN - 1] = 0xEE;
        assert!(decode_config(&bad).is_err());
    }
}
