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
//! * `index.snap` — the [`streach_storage::snapshot`] container (version 9:
//!   a checksummed section table, eager sections read at open and lazy
//!   sections read a checksummed chunk at a time),
//! * `postings.pages` — the sealed-base ST-Index posting heap, one 4 KiB
//!   page per [`streach_storage::PAGE_SIZE`] slot, written with `fsync`.
//!
//! # An open reads structure only
//!
//! An open validates the container's table, its eager sections and the
//! page file's length, in time proportional to the number of slots and
//! pages plus the size of the delta tail. It reads no posting page and
//! decodes no slot:
//!
//! * `pages_meta` holds one CRC-32 per page. A page is checked when the
//!   buffer pool misses it ([`streach_storage::ChecksummedPageStore`]); a
//!   mismatch is a typed [`StorageError::Corrupt`] naming the page, never a
//!   different answer.
//! * The temporal directory and the speed statistics are each a small
//!   eager head plus one lazy chunk per slot. The head holds every chunk's
//!   offset, length and CRC; a slot's directory or speed row is read,
//!   checked and decoded the first time a query or ingest touches it, and
//!   kept. The query pipeline resolves the slots a query reads before it
//!   bounds, so the bounding and verification code stays infallible about
//!   them.
//!
//! [`ReachabilityEngine::scrub`] reads and checks everything an open
//! skipped: every page and every chunk.
//!
//! The layouts of the ST-Index's sections (`st_index`, `st_index_slots`
//! and `delta`) are on the modules that encode them,
//! [`crate::st_index`]'s `directory` and `delta`; the speed statistics
//! (`speed_stats` + `speed_stats_rows`) follow the same head + chunk shape,
//! with the layout on [`SpeedStats`]'s encoder.
//!
//! # Incremental snapshots
//!
//! Streaming ingest ([`crate::ingest`]) adds two eager sections: `delta`,
//! the delta tail's merged lists, and `ingest_meta` (WAL generation,
//! applied-record prefix, per-trajectory last-visit table).
//! [`ReachabilityEngine::save_incremental_snapshot`] skips re-exporting
//! `postings.pages` when the target directory already holds the base heap
//! the engine was opened from (length-checked at save; the page CRCs
//! pinned in the container are checked on every read), so a periodic
//! checkpoint of a serving process rewrites only the container.

use std::fmt::Display;
use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut};
use streach_roadnet::{RoadNetwork, ShardMap};
use streach_storage::{
    crc32, ChecksummedPageStore, FilePageStore, LazySection, PageStore, SnapshotReader,
    SnapshotWriter, StorageError, StorageResult, PAGE_SIZE,
};

use crate::con_index::ConIndex;
use crate::config::IndexConfig;
use crate::engine::ReachabilityEngine;
use crate::ingest::IngestState;
use crate::speed_stats::SpeedStats;
use crate::st_index::{StIndex, StIndexStore};

/// File name of the snapshot container inside a snapshot directory.
pub const CONTAINER_FILE: &str = "index.snap";
/// File name of the base posting-heap page file inside a snapshot
/// directory.
pub const PAGES_FILE: &str = "postings.pages";
const SEC_CONFIG: &str = "config";
const SEC_NETWORK: &str = "network";
const SEC_PAGES_META: &str = "pages_meta";
const SEC_ST_INDEX: &str = "st_index";
/// Lazy: the directory chunks the `st_index` head points into.
const SEC_ST_INDEX_SLOTS: &str = "st_index_slots";
const SEC_SPEED_STATS: &str = "speed_stats";
/// Lazy: the speed rows the `speed_stats` head points into.
const SEC_SPEED_STATS_ROWS: &str = "speed_stats_rows";
const SEC_DELTA: &str = "delta";
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
const CONFIG_LEN: usize = 33;

/// Encodes the `config` section: slot_s u32, pool_pages u64, fallback
/// speed f64 bits, read_retries u32, auto_checkpoint_bytes u64, and one
/// byte written as 0. A decode also accepts a 1 there, which v9 snapshots
/// saved with the removed mmap backend hold. `read_latency_us` is ignored
/// and not persisted.
fn encode_config(config: &IndexConfig) -> Vec<u8> {
    let mut buf = Vec::with_capacity(CONFIG_LEN);
    buf.put_u32_le(config.slot_s);
    buf.put_u64_le(config.pool_pages as u64);
    buf.put_u64_le(config.fallback_min_speed_ms.to_bits());
    buf.put_u32_le(config.read_retries);
    buf.put_u64_le(config.auto_checkpoint_bytes);
    buf.put_u8(0);
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
        fallback_min_speed_ms: f64::from_bits(buf.get_u64_le()),
        read_retries: buf.get_u32_le(),
        auto_checkpoint_bytes: buf.get_u64_le(),
        ..IndexConfig::default()
    };
    if buf.get_u8() > 1 {
        return Err(StorageError::corrupt(
            "config section has unknown storage backend",
        ));
    }
    if config.slot_s == 0 || config.pool_pages == 0 {
        return Err(StorageError::corrupt("config section has invalid values"));
    }
    Ok(config)
}

/// Where one chunk of a lazy section lives, and its CRC-32: the unit an
/// open skips and a first touch reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chunk {
    /// Offset within the lazy section.
    pub offset: u64,
    pub len: u32,
    pub crc: u32,
}

impl Chunk {
    /// Bytes of an encoded chunk record: offset u64, length u32, CRC u32.
    pub(crate) const ENCODED_LEN: usize = 16;

    /// The chunk of `area` written from `start` to its end.
    pub(crate) fn seal(area: &[u8], start: usize) -> Self {
        Self {
            offset: start as u64,
            len: u32::try_from(area.len() - start).expect("a chunk spans at most 4 GiB"),
            crc: crc32(&area[start..]),
        }
    }

    pub(crate) fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.offset);
        buf.put_u32_le(self.len);
        buf.put_u32_le(self.crc);
    }

    /// Reads a record [`Chunk::put`] wrote; the caller checked that
    /// [`Chunk::ENCODED_LEN`] bytes remain.
    pub(crate) fn get(buf: &mut &[u8]) -> Self {
        Self {
            offset: buf.get_u64_le(),
            len: buf.get_u32_le(),
            crc: buf.get_u32_le(),
        }
    }

    /// Reads the chunk from `section` and checks its CRC; errors name the
    /// section and `what`.
    pub(crate) fn read(&self, section: &LazySection, what: impl Display) -> StorageResult<Vec<u8>> {
        section.read_chunk(self.offset..self.offset + self.len as u64, self.crc, what)
    }

    /// Checks that `chunks`, in order, tile `[0, len)` exactly.
    pub(crate) fn check_tiling(chunks: &[Chunk], len: u64, name: &str) -> StorageResult<()> {
        let mut end = 0u64;
        for chunk in chunks {
            if chunk.offset != end {
                return Err(StorageError::corrupt(format!(
                    "{name} chunk at offset {} does not follow the previous one (ends at {end})",
                    chunk.offset
                )));
            }
            end += chunk.len as u64;
        }
        if end != len {
            return Err(StorageError::corrupt(format!(
                "{name} chunks cover {end} bytes of a {len}-byte section"
            )));
        }
        Ok(())
    }
}

/// Exports every page of `source` into a fresh page file at `path`,
/// returning each page's CRC-32. The source is read past the buffer pool
/// but through the page checksums of a reopened heap, so a save never
/// copies a rotten page.
fn export_pages(source: &dyn PageStore, path: &Path) -> StorageResult<Arc<[u32]>> {
    let target = FilePageStore::create(path)?;
    let mut crcs = Vec::with_capacity(source.num_pages() as usize);
    for page_id in 0..source.num_pages() {
        let page = source.read_page(page_id)?;
        crcs.push(crc32(page.bytes()));
        let id = target.allocate()?;
        debug_assert_eq!(id, page_id);
        target.write_page(page_id, &page)?;
    }
    target.flush()?;
    Ok(crcs.into())
}

/// Writes the engine's snapshot into `dir` (created if missing): the
/// container file plus the base posting page file, both fsynced. The
/// caller holds the engine's ingest lock, so the delta tail cannot move
/// underneath the export.
///
/// Every slot directory and speed row is decoded before the first file is
/// written, so a damaged source snapshot fails the save before it touches
/// the target. Files are staged under `.tmp` names and renamed into place
/// only after they are fully written and synced, so re-saving over an
/// existing snapshot never destroys it on a crash mid-save. The container
/// stores the page file's page count and per-page CRCs, so a torn pair
/// (crash between the renames) is rejected at open by its length, and any
/// later bit rot in a page is rejected when the page is read.
///
/// With `incremental`, the base page file is left untouched when the
/// target directory already holds the exact heap this engine serves (its
/// length checked against the page CRCs recorded at open).
pub(crate) fn save(
    engine: &ReachabilityEngine,
    dir: &Path,
    incremental: bool,
    ingest_state: &IngestState,
) -> StorageResult<()> {
    // Pin one (base, delta) state for the whole save. The caller holds the
    // ingest lock, which also excludes compaction, so this pinned pair is
    // the engine's state for the save's entire duration — while concurrent
    // queries keep being served from it untouched.
    let pinned = engine.st_index().pin();
    let (st_head, st_slots, st_delta) = engine.st_index().encode_sections(&pinned)?;
    let (speed_head, speed_rows) = engine.con_index().speed_stats().encode()?;

    std::fs::create_dir_all(dir)?;
    let container_tmp = dir.join(format!("{CONTAINER_FILE}.tmp"));

    // 1. The base posting heap: reuse the published file when incremental
    //    and it still has the length the recorded page CRCs expect (a full
    //    pass here would make every checkpoint O(base); the page CRCs
    //    pinned in the container are checked on every read, so in-place
    //    rot cannot be served — and re-exporting from the same rotten file
    //    would not save it either). Anything missing or resized is
    //    re-exported.
    let pages_path = dir.join(PAGES_FILE);
    let reusable = if incremental {
        engine.base_pages_identity().filter(|crcs| {
            std::fs::metadata(&pages_path)
                .is_ok_and(|m| m.len() == crcs.len() as u64 * PAGE_SIZE as u64)
        })
    } else {
        None
    };
    let mut base_tmp = None;
    let page_crcs = match reusable {
        Some(crcs) => crcs,
        None => {
            let tmp = dir.join(format!("{PAGES_FILE}.tmp"));
            let crcs = export_pages(pinned.base_postings().store().as_ref(), &tmp)?;
            base_tmp = Some(tmp);
            crcs
        }
    };

    // 2. Everything else, the delta tail included, goes into the
    //    checksummed container.
    let mut writer = SnapshotWriter::new();
    writer.add_section(SEC_CONFIG, encode_config(engine.config()));
    let mut network = Vec::with_capacity(8);
    network.put_u64_le(network_fingerprint(engine.network()));
    writer.add_section(SEC_NETWORK, network);
    let mut pages_meta = Vec::with_capacity(8 + page_crcs.len() * 4);
    pages_meta.put_u64_le(page_crcs.len() as u64);
    page_crcs.iter().for_each(|&crc| pages_meta.put_u32_le(crc));
    writer.add_section(SEC_PAGES_META, pages_meta);
    writer.add_section(SEC_ST_INDEX, st_head);
    writer.add_lazy_section(SEC_ST_INDEX_SLOTS, st_slots);
    writer.add_section(SEC_SPEED_STATS, speed_head);
    writer.add_lazy_section(SEC_SPEED_STATS_ROWS, speed_rows);
    writer.add_section(SEC_DELTA, st_delta);
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

    // 3. Publish: every artifact was staged under a `.tmp` name, so a
    //    failure before the container rename leaves the previous snapshot
    //    fully openable. The container rename is the commit point.
    //    Residual window (full saves only): when the base heap itself was
    //    re-exported over an existing snapshot, a crash between the two
    //    renames below leaves a torn base/container pair that is rejected
    //    at open or at the first read of a mismatched page; the engine
    //    still holds that state and can simply re-save.
    if let Some(tmp) = base_tmp {
        std::fs::rename(&tmp, &pages_path)?;
        engine.set_base_pages_identity(page_crcs);
    }
    std::fs::rename(&container_tmp, dir.join(CONTAINER_FILE))?;
    Ok(())
}

/// Opens a sealed page file read-only and checks that it holds exactly
/// `expected_pages` pages.
fn open_sealed_pages(path: &Path, expected_pages: u64) -> StorageResult<Box<dyn PageStore>> {
    let store = FilePageStore::open_read_only(path)?;
    if store.num_pages() != expected_pages {
        return Err(StorageError::corrupt(format!(
            "page file {} has {} pages, expected {expected_pages}",
            path.display(),
            store.num_pages()
        )));
    }
    Ok(Box::new(store))
}

/// Reopens an engine from the snapshot in `dir` against the given road
/// network. Fails with [`StorageError::Corrupt`] when the snapshot's
/// structure is damaged or was built over a different network. `wrap`
/// sees the sealed base page store once, before the engine takes ownership
/// (identity for plain opens; a fault-injection or instrumentation wrapper
/// otherwise); the page checksums sit above it, so they check what the
/// wrapper returns.
pub(crate) fn open(
    dir: &Path,
    network: Arc<RoadNetwork>,
    wrap: impl FnOnce(Box<dyn PageStore>) -> Box<dyn PageStore>,
) -> StorageResult<ReachabilityEngine> {
    open_checked(dir, Some(network), wrap)
}

/// Reopens a self-contained snapshot (see
/// [`ReachabilityEngine::open_snapshot_standalone`]): the road network is
/// decoded from the same parsed container the engine is then opened from,
/// so a concurrent re-save can never pair one file's network with another
/// file's index. The fingerprint check in [`open_checked`] cross-validates
/// the codec roundtrip against the structural hash taken at save.
pub(crate) fn open_standalone(dir: &Path) -> StorageResult<ReachabilityEngine> {
    open_checked(dir, None, |store| store)
}

/// Opens the snapshot in `dir` against `network`, or against the network
/// embedded in the container when `network` is `None`. Checks the
/// fingerprint, the config, the page CRC list against the page file's
/// length, and every head and eager section, cross-checked; offers the page
/// store to `wrap` and checks the pages it returns against the recorded
/// CRCs on first read; restores the optional sections. Reads no page and
/// no chunk.
fn open_checked(
    dir: &Path,
    network: Option<Arc<RoadNetwork>>,
    wrap: impl FnOnce(Box<dyn PageStore>) -> Box<dyn PageStore>,
) -> StorageResult<ReachabilityEngine> {
    let reader = SnapshotReader::open(dir.join(CONTAINER_FILE))?;
    let network = match network {
        Some(network) => network,
        None => {
            if !reader.has_section(SEC_ROAD_NETWORK) {
                return Err(StorageError::corrupt(
                    "snapshot has no road_network section (not saved self-contained)",
                ));
            }
            let network = streach_roadnet::decode_network(reader.section(SEC_ROAD_NETWORK)?)
                .ok_or_else(|| StorageError::corrupt("road_network section is malformed"))?;
            Arc::new(network)
        }
    };

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

    let config = decode_config(reader.section(SEC_CONFIG)?)?;

    // [page count u64], then one CRC-32 per page.
    let mut pages_meta = reader.section(SEC_PAGES_META)?;
    let wrong_length = || StorageError::corrupt("pages_meta section has wrong length");
    if pages_meta.remaining() < 8 {
        return Err(wrong_length());
    }
    let num_pages = pages_meta.get_u64_le();
    if pages_meta.remaining() as u64 != num_pages.saturating_mul(4) {
        return Err(wrong_length());
    }
    let page_crcs: Arc<[u32]> = (0..num_pages).map(|_| pages_meta.get_u32_le()).collect();

    // Reopen the posting heap — read-only, so snapshots deployed as
    // immutable artifacts still serve. Each page is checked on its first
    // physical read.
    let base_store = open_sealed_pages(&dir.join(PAGES_FILE), num_pages)?;
    let store: StIndexStore = Box::new(ChecksummedPageStore::new(
        wrap(base_store),
        Arc::clone(&page_crcs),
    ));
    let st_index = StIndex::open_sections(
        network.clone(),
        reader.section(SEC_ST_INDEX)?,
        reader.lazy_section(SEC_ST_INDEX_SLOTS)?,
        reader.section(SEC_DELTA)?,
        &config,
        store,
    )?;

    let speed_stats = SpeedStats::open(
        reader.section(SEC_SPEED_STATS)?,
        reader.lazy_section(SEC_SPEED_STATS_ROWS)?,
        network.num_segments(),
    )?;
    if speed_stats.slot_s() != config.slot_s {
        return Err(StorageError::corrupt(
            "speed_stats granularity disagrees with the config section",
        ));
    }
    let (wal_generation, wal_applied, last_visit) = crate::ingest::decode_ingest_meta(
        reader.section(SEC_INGEST_META)?,
        network.num_segments(),
    )?;

    let con_index = ConIndex::new(network.clone(), Arc::new(speed_stats), &config);

    let engine = ReachabilityEngine::new(network, st_index, con_index, config);
    engine.install_snapshot_meta(page_crcs, wal_generation, wal_applied, last_visit);
    engine.set_snapshot_home(dir);

    // Optional sections, presence-checked: unsharded engines have no shard
    // map, and only self-contained saves embed the network.
    if reader.has_section(SEC_SHARD_MAP) {
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
    if reader.has_section(SEC_ROAD_NETWORK) {
        engine.set_snapshot_self_contained();
    }
    Ok(engine)
}

/// `payload` as the lazy section `name` of a fresh container on disk.
#[cfg(test)]
pub(crate) fn lazy_section(name: &str, payload: Vec<u8>) -> LazySection {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("streach-lazy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}.snap", NEXT.fetch_add(1, Ordering::Relaxed)));
    let mut writer = SnapshotWriter::new();
    writer.add_lazy_section(name, payload);
    writer.finish(&path).unwrap();
    SnapshotReader::open(&path)
        .unwrap()
        .lazy_section(name)
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::query::{Algorithm, SQuery};
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

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
            fallback_min_speed_ms: 2.75,
            read_retries: 5,
            auto_checkpoint_bytes: 123_456,
        };
        let bytes = encode_config(&config);
        let mut expected = Vec::new();
        expected.extend_from_slice(&600u32.to_le_bytes());
        expected.extend_from_slice(&33u64.to_le_bytes());
        expected.extend_from_slice(&2.75f64.to_bits().to_le_bytes());
        expected.extend_from_slice(&5u32.to_le_bytes());
        expected.extend_from_slice(&123_456u64.to_le_bytes());
        expected.push(0);
        assert_eq!(bytes, expected, "33 bytes, read_latency_us not among them");
        assert_eq!(bytes.len(), CONFIG_LEN);
        let decoded = decode_config(&bytes).unwrap();
        assert_eq!(decoded.slot_s, 600);
        assert_eq!(decoded.pool_pages, 33);
        assert_eq!(decoded.read_latency_us, 0, "ignored, not persisted");
        assert_eq!(decoded.fallback_min_speed_ms, 2.75);
        assert_eq!(decoded.read_retries, 5);
        assert_eq!(decoded.auto_checkpoint_bytes, 123_456);
        // A v9 snapshot saved with the old mmap backend stored a 1 there:
        // it still decodes, to the same config.
        let mut mmap_saved = bytes.clone();
        mmap_saved[CONFIG_LEN - 1] = 1;
        let decoded = decode_config(&mmap_saved).unwrap();
        assert_eq!(encode_config(&decoded), bytes);
        // Any other length, and any other last byte, are corruption.
        assert!(decode_config(&[1, 2, 3]).is_err());
        assert!(decode_config(&bytes[..CONFIG_LEN - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_config(&padded).is_err());
        for byte in [2, 0xEE] {
            let mut bad = bytes.clone();
            bad[CONFIG_LEN - 1] = byte;
            assert!(matches!(
                decode_config(&bad),
                Err(StorageError::Corrupt { .. })
            ));
        }
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "streach-core-snapshot-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A small engine over the tiny fleet, saved to a fresh directory, and
    /// the dataset it was built from.
    fn saved_world(
        name: &str,
    ) -> (
        Arc<RoadNetwork>,
        TrajectoryDataset,
        ReachabilityEngine,
        std::path::PathBuf,
    ) {
        let network = Arc::new(SyntheticCity::generate(GeneratorConfig::small()).network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let built = EngineBuilder::new(network.clone(), &dataset)
            .index_config(IndexConfig::default())
            .build();
        let dir = tmp_dir(name);
        built.save_snapshot(&dir).unwrap();
        (network, dataset, built, dir)
    }

    /// An open reads no posting page and decodes no slot; one query then
    /// decodes exactly the directory slots of its window and the speed
    /// rows of its hops, and builds no trajectory view: it touched each
    /// window slot once.
    #[test]
    fn fresh_open_decodes_nothing_and_a_query_only_its_slots() {
        let (network, dataset, built, dir) = saved_world("lazy-open");
        let engine = ReachabilityEngine::open_snapshot(&dir, network.clone()).unwrap();
        let decoded_dirs = || engine.st_index().pin().directory().decoded_slots();
        let decoded_rows = || engine.con_index().speed_stats().decoded_slots();
        assert_eq!(engine.st_index().io_stats().snapshot().page_reads, 0);
        assert!(decoded_dirs().is_empty() && decoded_rows().is_empty());

        // An undecided start, picked on the built engine the way the
        // integration suites pick one (`streach_testkit::split_start`):
        // where and when a taxi entered a segment that is its own nearest
        // match, active on some but not all days, with a non-empty annulus,
        // asked at exactly its active share of days.
        let duration_s = 900;
        let num_days = built.st_index().num_days() as usize;
        let query = dataset
            .trajectories()
            .iter()
            .flat_map(|traj| traj.visits.iter().take(4))
            .find_map(|visit| {
                let location = network.segment(visit.segment).mbr.center();
                if built.try_locate(&location) != Ok(visit.segment) {
                    return None;
                }
                let t = visit.enter_time_s;
                let active = crate::query::verifier::VerifierCore::new(
                    built.st_index(),
                    visit.segment,
                    t,
                    duration_s,
                )
                .ok()?
                .active_days();
                let bounds = crate::query::sqmb::sqmb(
                    built.con_index(),
                    network.num_segments(),
                    visit.segment,
                    t,
                    duration_s,
                );
                (active > 0 && active < num_days && !bounds.annulus().is_empty()).then_some(
                    SQuery {
                        location,
                        start_time_s: t,
                        duration_s,
                        prob: active as f64 / num_days as f64,
                    },
                )
            })
            .expect("a start active on some but not all days");
        let answer = engine.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
        let expected = built.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
        assert_eq!(answer.region.segments, expected.region.segments);
        assert!(answer.stats.segments_verified > 0, "the query verified");
        assert_eq!(
            engine.st_index().view_stats(),
            Default::default(),
            "one touch of a slot builds no view"
        );

        let slot_s = engine.st_index().slot_s();
        let slots_per_day = streach_traj::SECONDS_PER_DAY.div_ceil(slot_s);
        let populated: Vec<u32> = engine.st_index().populated_slots().collect();
        let mut window: Vec<u32> =
            crate::time::slots_overlapping(query.start_time_s, query.end_time_s(), slot_s)
                .map(|slot| slot % slots_per_day)
                .filter(|slot| populated.contains(slot))
                .collect();
        window.sort_unstable();
        assert!(!window.is_empty());
        assert_eq!(decoded_dirs(), window);
        let mut rows = crate::query::sqmb::hop_slots(query.start_time_s, duration_s, slot_s);
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(decoded_rows(), rows);

        // A scrub checks and decodes the rest.
        engine.scrub().unwrap();
        assert_eq!(decoded_dirs(), populated);
        assert_eq!(decoded_rows().len(), 288);
        std::fs::remove_dir_all(&dir).ok();
    }
}
