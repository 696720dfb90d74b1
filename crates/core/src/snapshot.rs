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
//! # The temporal directory (`st_index` section)
//!
//! The directory has one entry per time list, so it is most of the
//! container. It is written as varints, without blob offsets:
//!
//! ```text
//! [slot_s u32][num_days u16]
//! [num_time_lists u64][num_observations u64][posting_bytes u64]
//! [posting_pages u64][tail u64][slot count u32]        -- 50 bytes, LE
//! per populated slot, in ascending slot order:
//!     [slot          : varint]   -- < slots per day
//!     [entry count   : varint]   -- ≥ 1
//!     per entry, in ascending segment order:
//!         [segment   : varint]   -- the id for the first entry of the
//!                                --   slot, the gap ≥ 1 to the previous
//!                                --   id after it
//!         [blob len  : varint]   -- ≥ 1
//! ```
//!
//! The offsets are implied: build and compaction append the sealed base's
//! blobs in exactly this (slot, segment) order with no gap, so each blob
//! starts where the previous one ended. Decode rebuilds every handle from a
//! running sum that starts at 0, and that sum must end exactly at the
//! heap's `tail`: a directory that overruns, skips or only partly covers
//! the posting heap is [`StorageError::Corrupt`]. An entry costs about two
//! bytes instead of sixteen. The decoder fills the in-memory
//! `SlotDirectory` directly, which keeps the same implied offsets at eight
//! bytes per entry, so a slot's blobs may span at most `u32::MAX` bytes; a
//! larger slot is corrupt too. The delta directory keeps explicit offsets,
//! because the delta heap also holds superseded versions of re-ingested
//! lists.
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
    get_varint_u32, put_varint_u32, BlobHandle, Crc32, FilePageStore, InMemoryPageStore,
    MmapPageStore, PageStore, PostingStore, SimulatedDiskStore, SnapshotReader, SnapshotWriter,
    StorageBackend, StorageError, StorageResult,
};

use crate::con_index::ConIndex;
use crate::config::IndexConfig;
use crate::engine::ReachabilityEngine;
use crate::ingest::IngestState;
use crate::speed_stats::SpeedStats;
use crate::st_index::{oversized_slot, SlotDirectory, StIndex, StIndexStats, StIndexStore};

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
/// [`ReachabilityEngine::open_snapshot_with_stores_and_backend`]).
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

/// The `st_index` section: ST-Index scalars, construction stats and the
/// sealed-base temporal directory.
struct StIndexParts {
    slot_s: u32,
    num_days: u16,
    stats: StIndexStats,
    tail: u64,
    /// One directory per slot of the day, empty for an unpopulated slot.
    directory: Vec<SlotDirectory>,
}

/// Byte length of the fixed-width head of the `st_index` section.
const ST_INDEX_HEAD_LEN: usize = 50;

/// Encodes the `st_index` section (layout in the module docs).
fn encode_st_index(parts: &StIndexParts) -> Vec<u8> {
    let populated = || {
        parts
            .directory
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_empty())
    };
    let entries: usize = parts.directory.iter().map(SlotDirectory::len).sum();
    let mut buf = Vec::with_capacity(ST_INDEX_HEAD_LEN + parts.directory.len() * 6 + entries * 4);
    buf.put_u32_le(parts.slot_s);
    buf.put_u16_le(parts.num_days);
    buf.put_u64_le(parts.stats.num_time_lists);
    buf.put_u64_le(parts.stats.num_observations);
    buf.put_u64_le(parts.stats.posting_bytes);
    buf.put_u64_le(parts.stats.posting_pages);
    buf.put_u64_le(parts.tail);
    buf.put_u32_le(populated().count() as u32);
    let mut offset = 0u64;
    for (slot, dir) in populated() {
        put_varint_u32(&mut buf, slot as u32);
        put_varint_u32(&mut buf, dir.len() as u32);
        let mut prev: Option<SegmentId> = None;
        for (segment, handle) in dir.entries() {
            debug_assert_eq!(
                handle.offset, offset,
                "sealed-base blobs must be contiguous in (slot, segment) order"
            );
            put_varint_u32(&mut buf, prev.map_or(segment.0, |p| segment.0 - p.0));
            put_varint_u32(&mut buf, handle.len);
            prev = Some(segment);
            offset += handle.len as u64;
        }
    }
    buf
}

/// Decodes the `st_index` section straight into one [`SlotDirectory`] per
/// slot of the day, rebuilding each blob offset as the running sum of the
/// lengths before it. Any deviation from the layout in the module docs, or
/// a slot whose blobs span more than `u32::MAX` bytes, is
/// [`StorageError::Corrupt`].
fn decode_st_index(mut buf: &[u8]) -> StorageResult<StIndexParts> {
    let truncated = || StorageError::corrupt("st_index section truncated");
    if buf.remaining() < ST_INDEX_HEAD_LEN {
        return Err(truncated());
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
    if slot_s == 0 {
        return Err(StorageError::corrupt("st_index slot length is zero"));
    }
    let slots_per_day = streach_traj::SECONDS_PER_DAY.div_ceil(slot_s);
    // Nearly every varint in the section is one byte; only longer ones take
    // the general (canonical-form checking) path.
    #[inline(always)]
    fn varint(buf: &mut &[u8]) -> StorageResult<u32> {
        match buf.split_first() {
            Some((&byte, rest)) if byte < 0x80 => {
                *buf = rest;
                Ok(byte as u32)
            }
            _ => get_varint_u32(buf).ok_or_else(|| {
                StorageError::corrupt("st_index directory has a truncated or overlong varint")
            }),
        }
    }
    let mut directory = vec![SlotDirectory::default(); slots_per_day as usize];
    let mut prev_slot: Option<u32> = None;
    let mut offset = 0u64;
    for _ in 0..num_slots {
        let slot = varint(&mut buf)?;
        if slot >= slots_per_day {
            return Err(StorageError::corrupt(format!(
                "st_index directory slot {slot} is outside the day ({slots_per_day} slots)"
            )));
        }
        if prev_slot.is_some_and(|p| p >= slot) {
            return Err(StorageError::corrupt("st_index directory slots not sorted"));
        }
        prev_slot = Some(slot);
        let num_entries = varint(&mut buf)? as usize;
        if num_entries == 0 {
            return Err(StorageError::corrupt(
                "st_index directory has an empty slot",
            ));
        }
        // File-supplied count: cap the reservation by what the bytes left
        // could hold (an entry is at least 2 bytes).
        if num_entries > buf.remaining() / 2 {
            return Err(truncated());
        }
        // The slot's blob ends, relative to its first blob's offset. They
        // only grow, and at most 2^32 lengths below 2^32 cannot overflow a
        // u64, so both bounds on them are checked once, after the slot.
        let first = offset;
        let mut segments = Vec::with_capacity(num_entries);
        let mut ends = Vec::with_capacity(num_entries);
        let mut end = 0u64;
        let mut segment = 0u32;
        for i in 0..num_entries {
            let step = varint(&mut buf)?;
            segment = if i == 0 {
                step
            } else if step == 0 {
                return Err(StorageError::corrupt(
                    "st_index directory has a zero segment gap",
                ));
            } else {
                segment.checked_add(step).ok_or_else(|| {
                    StorageError::corrupt("st_index directory segment id overflows")
                })?
            };
            let len = varint(&mut buf)?;
            if len == 0 {
                return Err(StorageError::corrupt(
                    "st_index directory has a zero-length blob",
                ));
            }
            end += len as u64;
            segments.push(SegmentId(segment));
            ends.push(end as u32);
        }
        offset = first
            .checked_add(end)
            .filter(|&offset| offset <= tail)
            .ok_or_else(|| {
                StorageError::corrupt("st_index directory runs past the posting heap")
            })?;
        if end > u32::MAX as u64 {
            return Err(oversized_slot(slot));
        }
        directory[slot as usize] = SlotDirectory::new(first, segments, ends);
    }
    if buf.remaining() != 0 {
        return Err(StorageError::corrupt("st_index section has trailing bytes"));
    }
    if offset != tail {
        return Err(StorageError::corrupt(
            "st_index directory does not cover the posting heap",
        ));
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

fn decode_delta_dir(
    mut buf: &[u8],
    tail: u64,
    slots_per_day: u32,
) -> StorageResult<Vec<((u32, u32), BlobHandle)>> {
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
        if key.0 >= slots_per_day {
            return Err(StorageError::corrupt("delta_dir slot is outside the day"));
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
    let st = engine.st_index();
    writer.add_section(
        SEC_ST_INDEX,
        encode_st_index(&StIndexParts {
            slot_s: st.slot_s(),
            num_days: st.num_days(),
            stats: st.stats(),
            tail: pinned.base_postings().size_bytes(),
            directory: pinned.directory().to_vec(),
        }),
    );
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

/// Streams the file at `path` once, returning its length in bytes and its
/// CRC-32.
fn checksum_file(path: &Path) -> StorageResult<(u64, u32)> {
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
    Ok((total, crc.finalize()))
}

/// Compares a page file's measured (length, CRC-32) with the page count
/// and CRC recorded in the container.
fn check_pages_file(
    (total, crc): (u64, u32),
    expected_pages: u64,
    expected_crc: u32,
) -> StorageResult<()> {
    if total != expected_pages * streach_storage::PAGE_SIZE as u64 {
        return Err(StorageError::corrupt(format!(
            "posting page file has {total} bytes, expected {expected_pages} pages"
        )));
    }
    if crc != expected_crc {
        return Err(StorageError::corrupt(
            "posting page file checksum mismatch (torn save or bit rot)",
        ));
    }
    Ok(())
}

/// Stream-verifies the page file against the length and CRC recorded in the
/// container.
fn verify_pages_file(path: &Path, expected_pages: u64, expected_crc: u32) -> StorageResult<()> {
    check_pages_file(checksum_file(path)?, expected_pages, expected_crc)
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
pub(crate) fn open<F>(
    dir: &Path,
    network: Arc<RoadNetwork>,
    backend_override: Option<StorageBackend>,
    wrap: F,
) -> StorageResult<ReachabilityEngine>
where
    F: FnMut(StoreRole, Box<dyn PageStore>) -> Box<dyn PageStore>,
{
    assemble(
        dir,
        read_checked(dir, Some(network), backend_override)?,
        wrap,
    )
}

/// Reopens a self-contained snapshot (see
/// [`ReachabilityEngine::open_snapshot_standalone`]): the road network is
/// decoded from the same parsed container the engine is then opened from,
/// so a concurrent re-save can never pair one file's network with another
/// file's index. The fingerprint check in [`read_checked`] cross-validates
/// the codec roundtrip against the structural hash taken at save.
pub(crate) fn open_standalone(dir: &Path) -> StorageResult<ReachabilityEngine> {
    assemble(dir, read_checked(dir, None, None)?, |_, store| store)
}

/// Everything [`decode_sections`] decodes from the container.
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
    let delta_directory = decode_delta_dir(
        reader.section(SEC_DELTA_DIR)?,
        delta_tail,
        config.slots_per_day(),
    )?;

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

/// A parsed container whose sections decoded and cross-checked, and whose
/// `postings.pages` matched the length and CRC it records. Nothing has been
/// opened over a page file yet.
struct CheckedSnapshot {
    reader: SnapshotReader,
    network: Arc<RoadNetwork>,
    config: IndexConfig,
    pages_identity: (u64, u32),
    decoded: DecodedSections,
}

/// Reads, decodes and checks the snapshot in `dir` against `network`, or
/// against the network embedded in the container when `network` is `None`.
///
/// The base page file is the largest input an open reads, so its length +
/// CRC pass runs on a scoped thread started before the container is even
/// read; the caller's thread reads, seals and decodes the container
/// meanwhile, and compares the thread's result with `pages_meta` after the
/// sections are decoded. Errors keep a fixed precedence: a container read
/// or parse error first, then the network fingerprint and config errors,
/// then the page-file error, then a section-decode error. The thread is
/// joined before this returns, so no page store is ever opened — or
/// offered to a wrapper — over an unverified page file.
fn read_checked(
    dir: &Path,
    network: Option<Arc<RoadNetwork>>,
    backend_override: Option<StorageBackend>,
) -> StorageResult<CheckedSnapshot> {
    let pages_path = dir.join(PAGES_FILE);
    std::thread::scope(|s| {
        let pages_pass = s.spawn(|| checksum_file(&pages_path));
        let reader = SnapshotReader::open(dir.join(CONTAINER_FILE))?;
        let network = match network {
            Some(network) => network,
            None => {
                if !reader.section_names().any(|n| n == SEC_ROAD_NETWORK) {
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

        let mut config = decode_config(reader.section(SEC_CONFIG)?)?;
        if let Some(backend) = backend_override {
            config.storage_backend = backend;
        }

        let mut pages_meta = reader.section(SEC_PAGES_META)?;
        if pages_meta.remaining() != 12 {
            return Err(StorageError::corrupt("pages_meta section has wrong length"));
        }
        let expected_pages = pages_meta.get_u64_le();
        let expected_crc = pages_meta.get_u32_le();

        let decoded = decode_sections(dir, &reader, &config);
        let pages = pages_pass
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        check_pages_file(pages, expected_pages, expected_crc)?;
        Ok(CheckedSnapshot {
            reader,
            network,
            config,
            pages_identity: (expected_pages, expected_crc),
            decoded: decoded?,
        })
    })
}

/// Builds the engine over a [`CheckedSnapshot`]: opens the page stores,
/// offers each to `wrap`, and restores the optional sections.
fn assemble<F>(
    dir: &Path,
    checked: CheckedSnapshot,
    mut wrap: F,
) -> StorageResult<ReachabilityEngine>
where
    F: FnMut(StoreRole, Box<dyn PageStore>) -> Box<dyn PageStore>,
{
    let CheckedSnapshot {
        reader,
        network,
        config,
        pages_identity,
        decoded,
    } = checked;
    let parts = decoded.st_index;

    // Reopen the verified posting heap — read-only, so snapshots deployed as
    // immutable artifacts still serve — behind the same latency shim the
    // in-memory backend uses (zero latency still counts page reads — and
    // here they are genuine disk reads).
    let base_store = open_sealed_pages(&dir.join(PAGES_FILE), config.storage_backend)?;
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
    engine.install_snapshot_meta(pages_identity, wal_generation, wal_applied, last_visit);
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

    /// A hand-built directory: slot 5 holds segments 3 and 131, slot 200
    /// holds segment 7; blobs of 10, 200 and 1 bytes, back to back.
    fn sample_st_index() -> StIndexParts {
        let handle = |offset, len| BlobHandle { offset, len };
        let mut directory = vec![SlotDirectory::default(); 288];
        for (slot, segment, blob) in [
            (5, 3, handle(0, 10)),
            (5, 131, handle(10, 200)),
            (200, 7, handle(210, 1)),
        ] {
            directory[slot].push(SegmentId(segment), blob).unwrap();
        }
        StIndexParts {
            slot_s: 300,
            num_days: 2,
            stats: StIndexStats {
                num_time_lists: 3,
                num_observations: 5,
                posting_bytes: 211,
                posting_pages: 1,
            },
            tail: 211,
            directory,
        }
    }

    /// The fixed-width head of [`sample_st_index`]'s encoding.
    fn sample_head() -> Vec<u8> {
        let mut head = vec![0x2C, 0x01, 0, 0, 0x02, 0]; // slot_s 300, num_days 2
        for v in [3u64, 5, 211, 1, 211] {
            head.extend_from_slice(&v.to_le_bytes()); // stats, tail
        }
        head.extend_from_slice(&2u32.to_le_bytes()); // slot count
        head
    }

    /// The directory body of [`sample_st_index`]'s encoding.
    const SAMPLE_BODY: [u8; 13] = [
        0x05, 0x02, // slot 5, 2 entries
        0x03, 0x0A, // segment 3, len 10
        0x80, 0x01, 0xC8, 0x01, // gap 128 → segment 131, len 200
        0xC8, 0x01, 0x01, // slot 200, 1 entry
        0x07, 0x01, // segment 7, len 1
    ];

    fn with_body(body: &[u8]) -> Vec<u8> {
        let mut bytes = sample_head();
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn st_index_golden_bytes() {
        let golden = with_body(&SAMPLE_BODY);
        assert_eq!(golden.len(), ST_INDEX_HEAD_LEN + SAMPLE_BODY.len());
        assert_eq!(encode_st_index(&sample_st_index()), golden);
        let decoded = decode_st_index(&golden).unwrap();
        let expected = sample_st_index();
        assert_eq!(decoded.slot_s, expected.slot_s);
        assert_eq!(decoded.num_days, expected.num_days);
        assert_eq!(decoded.stats, expected.stats);
        assert_eq!(decoded.tail, expected.tail);
        assert_eq!(decoded.directory, expected.directory);
    }

    #[test]
    fn st_index_decoder_rejects_malformed_directories() {
        let cases: [(&str, Vec<u8>); 11] = [
            (
                "zero segment gap",
                with_body(&[5, 2, 3, 10, 0, 0xC8, 1, 0xC8, 1, 1, 7, 1]),
            ),
            (
                "slot outside the day (288 at Δt = 300 s)",
                with_body(&[5, 2, 3, 10, 0x80, 1, 0xC8, 1, 0xA0, 0x02, 1, 7, 1]),
            ),
            (
                "slots out of order",
                with_body(&[5, 2, 3, 10, 0x80, 1, 0xC8, 1, 5, 1, 7, 1]),
            ),
            (
                "empty slot",
                with_body(&[5, 2, 3, 10, 0x80, 1, 0xC9, 1, 0xC8, 1, 0]),
            ),
            (
                "zero-length blob",
                with_body(&[5, 2, 3, 0, 0x80, 1, 0xD2, 1, 0xC8, 1, 1, 7, 1]),
            ),
            (
                "directory one byte short of the tail",
                with_body(&[5, 2, 3, 10, 0x80, 1, 0xC7, 1, 0xC8, 1, 1, 7, 1]),
            ),
            (
                "directory one byte past the tail",
                with_body(&[5, 2, 3, 10, 0x80, 1, 0xC9, 1, 0xC8, 1, 1, 7, 1]),
            ),
            (
                "overlong varint",
                with_body(&[0x85, 0x00, 2, 3, 10, 0x80, 1, 0xC8, 1, 0xC8, 1, 1, 7, 1]),
            ),
            (
                "segment id overflow",
                with_body(&[
                    5, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 10, 1, 0xC8, 1, 0xC8, 1, 1, 7, 1,
                ]),
            ),
            (
                "trailing byte",
                with_body(&[5, 2, 3, 10, 0x80, 1, 0xC8, 1, 0xC8, 1, 1, 7, 1, 0]),
            ),
            ("zero slot length", {
                let mut bytes = with_body(&SAMPLE_BODY);
                bytes[..4].copy_from_slice(&0u32.to_le_bytes());
                bytes
            }),
        ];
        for (what, bytes) in cases {
            match decode_st_index(&bytes) {
                Err(StorageError::Corrupt { context }) => {
                    assert!(context.contains("st_index"), "{what}: {context}")
                }
                Err(e) => panic!("{what}: expected Corrupt, got {e}"),
                Ok(_) => panic!("{what}: a malformed directory decoded"),
            }
        }
        // Compaction indexes the temporal array by delta slot, so the delta
        // directory must stay inside the day as well.
        let delta = encode_delta_dir(&[((288, 1), BlobHandle { offset: 0, len: 4 })]);
        assert!(decode_delta_dir(&delta, 4, 289).is_ok());
        assert!(matches!(
            decode_delta_dir(&delta, 4, 288),
            Err(StorageError::Corrupt { .. })
        ));
        // Every strict prefix of a valid section is rejected too.
        let golden = with_body(&SAMPLE_BODY);
        for cut in 0..golden.len() {
            assert!(
                matches!(
                    decode_st_index(&golden[..cut]),
                    Err(StorageError::Corrupt { .. })
                ),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    /// An `st_index` section over a heap of `tail` bytes whose directory
    /// body holds `num_slots` slots.
    fn section(tail: u64, num_slots: u32, body: &[u8]) -> Vec<u8> {
        let mut bytes = vec![0x2C, 0x01, 0, 0, 0x02, 0]; // slot_s 300, num_days 2
        for v in [2u64, 2, tail, tail.div_ceil(4096), tail] {
            bytes.extend_from_slice(&v.to_le_bytes()); // stats, tail
        }
        bytes.extend_from_slice(&num_slots.to_le_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn st_index_decoder_rejects_a_slot_over_4_gib() {
        const MAX: u64 = u32::MAX as u64;
        // One slot whose blobs span u32::MAX + 1 bytes: segment 3 with a
        // u32::MAX-byte blob, then segment 4 with a 1-byte blob.
        let over = section(MAX + 1, 1, &[5, 2, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 1]);
        match decode_st_index(&over) {
            Err(StorageError::Corrupt { context }) => {
                assert!(
                    context.contains("st_index") && context.contains("slot 5"),
                    "{context}"
                )
            }
            Err(e) => panic!("expected Corrupt, got {e}"),
            Ok(_) => panic!("a slot spanning more than u32::MAX bytes decoded"),
        }
        // Exactly u32::MAX bytes in one slot fits.
        let exact =
            decode_st_index(&section(MAX, 1, &[5, 1, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F])).unwrap();
        let entries: Vec<_> = exact.directory[5].entries().collect();
        assert_eq!(
            entries,
            vec![(
                SegmentId(3),
                BlobHandle {
                    offset: 0,
                    len: u32::MAX
                }
            )]
        );
        // The bound is per slot: the same bytes split over two slots decode,
        // and the second slot's offset lies past 4 GiB without wrapping.
        let split = decode_st_index(&section(
            MAX + 1,
            2,
            &[5, 1, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 6, 1, 4, 1],
        ))
        .unwrap();
        let entries: Vec<_> = split.directory[6].entries().collect();
        assert_eq!(
            entries,
            vec![(
                SegmentId(4),
                BlobHandle {
                    offset: MAX,
                    len: 1
                }
            )]
        );
        assert_eq!(
            encode_st_index(&split),
            section(
                MAX + 1,
                2,
                &[5, 1, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 6, 1, 4, 1],
            )
        );
    }

    #[test]
    fn st_index_of_a_built_index_round_trips_byte_identically() {
        use streach_traj::{FleetConfig, TrajectoryDataset};
        let network = Arc::new(SyntheticCity::generate(GeneratorConfig::small()).network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let index = StIndex::build(network, &dataset, &IndexConfig::default());
        let pinned = index.pin();
        let parts = StIndexParts {
            slot_s: index.slot_s(),
            num_days: index.num_days(),
            stats: index.stats(),
            tail: pinned.base_postings().size_bytes(),
            directory: pinned.directory().to_vec(),
        };
        let bytes = encode_st_index(&parts);
        let decoded = decode_st_index(&bytes).unwrap();
        assert_eq!(decoded.directory, parts.directory);
        assert_eq!(encode_st_index(&decoded), bytes);
        // Every decoded handle is the one the built index looks up.
        let mut entries = 0;
        for (slot, dir) in decoded.directory.iter().enumerate() {
            for (segment, handle) in dir.entries() {
                let mut from_index = Vec::new();
                let mut from_handle = Vec::new();
                assert!(index
                    .read_time_list_into(segment, slot as u32, &mut from_index)
                    .unwrap());
                pinned
                    .base_postings()
                    .read_into(handle, &mut from_handle)
                    .unwrap();
                assert_eq!(from_index, from_handle, "slot {slot}, {segment}");
                entries += 1;
            }
        }
        assert_eq!(entries, index.stats().num_time_lists);
    }
}
