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
//! * `index.snap` — the [`streach_storage::snapshot`] container (version 8:
//!   a checksummed section table, eager sections read at open and lazy
//!   sections read a checksummed chunk at a time),
//! * `postings.pages` — the sealed-base ST-Index posting heap, one 4 KiB
//!   page per [`streach_storage::PAGE_SIZE`] slot, written with `fsync`,
//! * `deltas.<seq>.pages` — the streaming-ingest delta posting heap (empty
//!   when nothing was ingested since the base was sealed).
//!
//! # An open reads structure only
//!
//! An open validates the container's table, its eager sections and the
//! page files' lengths, in time proportional to the number of slots and
//! pages. It reads no posting page and decodes no slot:
//!
//! * `pages_meta` and `delta_pages_meta` hold one CRC-32 per page. A base
//!   page is checked when the buffer pool misses it
//!   ([`streach_storage::ChecksummedPageStore`]); a mismatch is a typed
//!   [`StorageError::Corrupt`] naming the page, never a different answer.
//!   The delta heap is copied into memory at open, each page checked as it
//!   is copied.
//! * The temporal directory and the speed statistics are each a small
//!   eager head plus one lazy chunk per slot. The head holds every chunk's
//!   offset, length and CRC; a slot's directory or speed row is read,
//!   checked and decoded the first time a query or ingest touches it, and
//!   kept. The query pipeline resolves the slots a query reads before it
//!   bounds, so the bounding and verification code stays infallible about
//!   them.
//!
//! [`ReachabilityEngine::scrub`] reads and checks everything an open
//! skipped: every page with a recorded CRC and every chunk.
//!
//! # The temporal directory (`st_index` + `st_index_slots`)
//!
//! ```text
//! st_index (eager):
//!     [slot_s u32][num_days u16]
//!     [num_time_lists u64][num_observations u64][posting_bytes u64]
//!     [posting_pages u64][tail u64][slot count u32]        -- 50 bytes, LE
//!     per populated slot, in ascending slot order:          -- 36 bytes
//!         [slot u32][entry count u32][first blob offset u64][span u32]
//!         [chunk offset u64][chunk len u32][chunk CRC-32 u32]
//! st_index_slots (lazy): the chunks, back to back; one slot's chunk is
//!     per entry, in ascending segment order:
//!         [segment   : varint]   -- the id for the first entry of the
//!                                --   slot, the gap ≥ 1 to the previous
//!                                --   id after it
//!         [blob len  : varint]   -- ≥ 1
//! ```
//!
//! The blob offsets are implied: build and compaction append the sealed
//! base's blobs in exactly (slot, segment) order with no gap, so a slot's
//! blobs are one run of the heap, `span` bytes from `first`, and each blob
//! starts where the previous one ended. The open checks that the runs tile
//! `[0, tail)` and the chunks tile `st_index_slots` exactly; a chunk
//! decodes only if its entry count matches and its lengths sum to exactly
//! its span. An entry costs about two bytes. The decoder fills the
//! in-memory `SlotDirectory`, which keeps the same implied offsets at eight
//! bytes per entry. The delta directory keeps explicit offsets, because the
//! delta heap also holds superseded versions of re-ingested lists.
//!
//! The speed statistics (`speed_stats` + `speed_stats_rows`) follow the
//! same shape; the layout is on [`SpeedStats`]'s encoder.
//!
//! # Incremental snapshots
//!
//! Streaming ingest ([`crate::ingest`]) chains three *delta sections* onto
//! the container — `delta_pages_meta` (page count, heap tail, sequence and
//! per-page CRCs of the delta file), `delta_dir` (the (slot, segment) →
//! handle override directory) and `ingest_meta` (WAL generation,
//! applied-record prefix, per-trajectory last-visit table).
//! [`ReachabilityEngine::save_incremental_snapshot`] skips re-exporting
//! `postings.pages` when the target directory already holds the base heap
//! the engine was opened from (length-checked at save; the page CRCs
//! pinned in the container are checked on every read), so a periodic
//! checkpoint of a serving process rewrites only the container and the
//! small delta heap.

use std::fmt::Display;
use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut};
use streach_roadnet::{RoadNetwork, SegmentId, ShardMap};
use streach_storage::{
    crc32, get_varint_u32, put_varint_u32, BlobHandle, ChecksummedPageStore, FilePageStore,
    InMemoryPageStore, LazySection, MmapPageStore, PageStore, PostingStore, SnapshotReader,
    SnapshotWriter, StorageBackend, StorageError, StorageResult, PAGE_SIZE,
};

use crate::con_index::ConIndex;
use crate::config::IndexConfig;
use crate::engine::ReachabilityEngine;
use crate::ingest::IngestState;
use crate::speed_stats::SpeedStats;
use crate::st_index::{
    LazyDirectory, SlotDirectory, SlotHead, StIndex, StIndexStats, StIndexStore, TemporalIndex,
};

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
/// Lazy: the directory chunks the `st_index` head points into.
const SEC_ST_INDEX_SLOTS: &str = "st_index_slots";
const SEC_SPEED_STATS: &str = "speed_stats";
/// Lazy: the speed rows the `speed_stats` head points into.
const SEC_SPEED_STATS_ROWS: &str = "speed_stats_rows";
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
    // Formerly the Con-Index table cache's capacity: written as 0, skipped
    // on read.
    buf.put_u64_le(0);
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
        // Skips the 8 bytes that held the Con-Index table cache's capacity.
        fallback_min_speed_ms: {
            buf.advance(8);
            f64::from_bits(buf.get_u64_le())
        },
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

/// The head of the `st_index` section: ST-Index scalars, construction
/// stats and where every populated slot's directory lives.
struct StIndexHead {
    slot_s: u32,
    num_days: u16,
    stats: StIndexStats,
    tail: u64,
    /// `(slot, head)` of every populated slot, ascending.
    slots: Vec<(u32, SlotHead)>,
}

/// Byte length of the fixed-width part of the `st_index` head.
const ST_INDEX_HEAD_LEN: usize = 50;
/// Byte length of one slot's record in the `st_index` head.
const ST_INDEX_SLOT_LEN: usize = 36;

/// Encodes the `st_index` head and its `st_index_slots` chunks (layout in
/// the module docs) from one directory per slot of the day.
fn encode_st_index(
    slot_s: u32,
    num_days: u16,
    stats: StIndexStats,
    tail: u64,
    directory: &[&SlotDirectory],
) -> (Vec<u8>, Vec<u8>) {
    let entries: usize = directory.iter().map(|d| d.len()).sum();
    let mut chunks = Vec::with_capacity(entries * 3);
    let mut slots = Vec::new();
    for (slot, dir) in directory.iter().enumerate().filter(|(_, d)| !d.is_empty()) {
        let start = chunks.len();
        let mut prev: Option<SegmentId> = None;
        for (segment, handle) in dir.entries() {
            put_varint_u32(&mut chunks, prev.map_or(segment.0, |p| segment.0 - p.0));
            put_varint_u32(&mut chunks, handle.len);
            prev = Some(segment);
        }
        slots.push((
            slot as u32,
            SlotHead {
                entries: dir.len() as u32,
                first: dir.first(),
                span: dir.span(),
                chunk: Chunk::seal(&chunks, start),
            },
        ));
    }
    let mut head = Vec::with_capacity(ST_INDEX_HEAD_LEN + slots.len() * ST_INDEX_SLOT_LEN);
    head.put_u32_le(slot_s);
    head.put_u16_le(num_days);
    head.put_u64_le(stats.num_time_lists);
    head.put_u64_le(stats.num_observations);
    head.put_u64_le(stats.posting_bytes);
    head.put_u64_le(stats.posting_pages);
    head.put_u64_le(tail);
    head.put_u32_le(slots.len() as u32);
    for (slot, h) in &slots {
        head.put_u32_le(*slot);
        head.put_u32_le(h.entries);
        head.put_u64_le(h.first);
        head.put_u32_le(h.span);
        h.chunk.put(&mut head);
    }
    (head, chunks)
}

/// Decodes and validates the `st_index` head against the length of its
/// chunk section, in time proportional to the populated slots: slots
/// ascend inside the day, every slot has an entry and at least a byte per
/// entry, the slots' runs tile `[0, tail)` and their chunks tile
/// `[0, chunks_len)` exactly. Any deviation is [`StorageError::Corrupt`].
fn decode_st_index_head(mut buf: &[u8], chunks_len: u64) -> StorageResult<StIndexHead> {
    if buf.remaining() < ST_INDEX_HEAD_LEN {
        return Err(StorageError::corrupt("st_index head truncated"));
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
    if buf.remaining() != num_slots.saturating_mul(ST_INDEX_SLOT_LEN) {
        return Err(StorageError::corrupt("st_index head has the wrong length"));
    }
    let slots_per_day = streach_traj::SECONDS_PER_DAY.div_ceil(slot_s);
    let mut slots: Vec<(u32, SlotHead)> = Vec::with_capacity(num_slots);
    let mut chunks = Vec::with_capacity(num_slots);
    let mut end = 0u64;
    for _ in 0..num_slots {
        let slot = buf.get_u32_le();
        let head = SlotHead {
            entries: buf.get_u32_le(),
            first: buf.get_u64_le(),
            span: buf.get_u32_le(),
            chunk: Chunk::get(&mut buf),
        };
        let bad = |what: &str| StorageError::corrupt(format!("st_index head: slot {slot} {what}"));
        if slot >= slots_per_day {
            return Err(bad(&format!("is outside the day ({slots_per_day} slots)")));
        }
        if slots.last().is_some_and(|&(prev, _)| prev >= slot) {
            return Err(bad("is out of order"));
        }
        if head.entries == 0 {
            return Err(bad("has no entries"));
        }
        if (head.span as u64) < head.entries as u64
            || (head.chunk.len as u64) < 2 * head.entries as u64
        {
            return Err(bad("is shorter than its entries"));
        }
        if head.first != end {
            return Err(bad("does not start where the previous slot's blobs end"));
        }
        end += head.span as u64;
        if end > tail {
            return Err(bad("runs past the posting heap"));
        }
        chunks.push(head.chunk);
        slots.push((slot, head));
    }
    if end != tail {
        return Err(StorageError::corrupt(
            "st_index directory does not cover the posting heap",
        ));
    }
    Chunk::check_tiling(&chunks, chunks_len, "st_index_slots")?;
    Ok(StIndexHead {
        slot_s,
        num_days,
        stats,
        tail,
        slots,
    })
}

/// Decodes one slot's chunk into its [`SlotDirectory`], rebuilding each
/// blob offset as the running sum of the lengths before it. The chunk must
/// hold exactly `head.entries` entries whose lengths sum to exactly
/// `head.span`; anything else is [`StorageError::Corrupt`] naming
/// `st_index_slots` and the slot.
pub(crate) fn decode_slot_chunk(
    slot: u32,
    head: &SlotHead,
    mut buf: &[u8],
) -> StorageResult<SlotDirectory> {
    let bad = |what: &str| StorageError::corrupt(format!("st_index_slots slot {slot}: {what}"));
    // Nearly every varint in a chunk is one byte; only longer ones take the
    // general (canonical-form checking) path.
    #[inline(always)]
    fn varint(buf: &mut &[u8]) -> Option<u32> {
        match buf.split_first() {
            Some((&byte, rest)) if byte < 0x80 => {
                *buf = rest;
                Some(byte as u32)
            }
            _ => get_varint_u32(buf),
        }
    }
    let n = head.entries as usize;
    let mut segments = Vec::with_capacity(n);
    let mut ends = Vec::with_capacity(n);
    let mut end = 0u64;
    let mut segment = 0u32;
    for i in 0..n {
        let step = varint(&mut buf).ok_or_else(|| bad("truncated or overlong varint"))?;
        segment = if i == 0 {
            step
        } else if step == 0 {
            return Err(bad("zero segment gap"));
        } else {
            segment
                .checked_add(step)
                .ok_or_else(|| bad("segment id overflows"))?
        };
        let len = varint(&mut buf).ok_or_else(|| bad("truncated or overlong varint"))?;
        if len == 0 {
            return Err(bad("zero-length blob"));
        }
        end += len as u64;
        if end > head.span as u64 {
            return Err(bad("blobs run past the slot's span"));
        }
        segments.push(SegmentId(segment));
        ends.push(end as u32);
    }
    if !buf.is_empty() {
        return Err(bad("trailing bytes"));
    }
    if end != head.span as u64 {
        return Err(bad("blobs do not fill the slot's span"));
    }
    Ok(SlotDirectory::new(head.first, segments, ends))
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

/// Reads `count` page CRCs, which must be all that is left of `buf`.
fn decode_page_crcs(mut buf: &[u8], count: u64, section: &str) -> StorageResult<Arc<[u32]>> {
    if buf.remaining() as u64 != count.saturating_mul(4) {
        return Err(StorageError::corrupt(format!(
            "{section} section has wrong length"
        )));
    }
    Ok((0..count).map(|_| buf.get_u32_le()).collect())
}

/// Exports every page of `source` into a fresh page file at `path`,
/// returning each page's CRC-32. The source is read underneath the latency
/// shim — export is an offline bulk copy, not simulated query I/O — but
/// through the page checksums of a reopened heap, so a save never copies a
/// rotten page.
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
/// container file plus the base and delta posting page files, all fsynced.
/// The caller holds the engine's ingest lock, so the delta tail cannot
/// move underneath the export.
///
/// Every slot directory and speed row is decoded before the first file is
/// written, so a damaged source snapshot fails the save before it touches
/// the target. Files are staged under `.tmp` names and renamed into place
/// only after they are fully written and synced, so re-saving over an
/// existing snapshot never destroys it on a crash mid-save. The container
/// stores each page file's page count and per-page CRCs, so a torn set
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
    let st = engine.st_index();
    let (st_head, st_chunks) = encode_st_index(
        st.slot_s(),
        st.num_days(),
        st.stats(),
        pinned.base_postings().size_bytes(),
        &pinned.directory().directories()?,
    );
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

    // 2. The delta posting heap (empty file when nothing was ingested),
    //    under a fresh sequence-numbered name: the previous delta file is
    //    never touched until the new container is committed.
    let delta_seq = engine.next_delta_seq();
    let delta_name = delta_pages_file(delta_seq);
    let delta_tmp = dir.join(format!("{delta_name}.tmp"));
    let delta_crcs = export_pages(pinned.delta_postings().store().as_ref(), &delta_tmp)?;

    // 3. Everything else goes into the checksummed container.
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
    writer.add_lazy_section(SEC_ST_INDEX_SLOTS, st_chunks);
    writer.add_section(SEC_SPEED_STATS, speed_head);
    writer.add_lazy_section(SEC_SPEED_STATS_ROWS, speed_rows);
    let mut delta_meta = Vec::with_capacity(24 + delta_crcs.len() * 4);
    delta_meta.put_u64_le(delta_crcs.len() as u64);
    delta_meta.put_u64_le(pinned.delta_postings().size_bytes());
    delta_meta.put_u64_le(delta_seq);
    delta_crcs
        .iter()
        .for_each(|&crc| delta_meta.put_u32_le(crc));
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
    //    torn base/container pair that is rejected at open or at the first
    //    read of a mismatched page; the engine still holds that state and
    //    can simply re-save.
    std::fs::rename(&delta_tmp, dir.join(&delta_name))?;
    if let Some(tmp) = base_tmp {
        std::fs::rename(&tmp, &pages_path)?;
        engine.set_base_pages_identity(page_crcs);
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

/// Opens a sealed (read-only) page file through the chosen physical
/// backend and checks that it holds exactly `expected_pages` pages. Both
/// backends apply the same alignment validation and return bit-identical
/// pages; they differ only in the transport (read syscalls vs a shared
/// memory mapping).
fn open_sealed_pages(
    path: &Path,
    backend: StorageBackend,
    expected_pages: u64,
) -> StorageResult<Box<dyn PageStore>> {
    let store: Box<dyn PageStore> = match backend {
        StorageBackend::File => Box::new(FilePageStore::open_read_only(path)?),
        StorageBackend::Mmap => Box::new(MmapPageStore::open(path)?),
    };
    if store.num_pages() != expected_pages {
        return Err(StorageError::corrupt(format!(
            "page file {} has {} pages, expected {expected_pages}",
            path.display(),
            store.num_pages()
        )));
    }
    Ok(store)
}

/// Reopens an engine from the snapshot in `dir` against the given road
/// network. Fails with [`StorageError::Corrupt`] when the snapshot's
/// structure is damaged or was built over a different network. `wrap`
/// sees each page store — [`StoreRole::Base`], then [`StoreRole::Delta`] —
/// before the engine takes ownership (identity for plain opens; a
/// fault-injection or instrumentation wrapper otherwise); the page
/// checksums sit above it, so they check what the wrapper returns.
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

/// A parsed container whose eager sections decoded and cross-checked.
/// Nothing has been opened over a page file yet.
struct CheckedSnapshot {
    reader: SnapshotReader,
    network: Arc<RoadNetwork>,
    config: IndexConfig,
    page_crcs: Arc<[u32]>,
    st_index: StIndexHead,
    delta_tail: u64,
    delta_seq: u64,
    delta_crcs: Arc<[u32]>,
    delta_directory: Vec<((u32, u32), BlobHandle)>,
    speed_stats: SpeedStats,
    ingest_meta: (u64, u64, crate::ingest::LastVisitMap),
}

/// Reads and checks the snapshot container in `dir` against `network`, or
/// against the network embedded in the container when `network` is `None`:
/// the fingerprint, the config, the page CRC lists, and every head and
/// eager section, cross-checked. Reads no page and no chunk.
fn read_checked(
    dir: &Path,
    network: Option<Arc<RoadNetwork>>,
    backend_override: Option<StorageBackend>,
) -> StorageResult<CheckedSnapshot> {
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

    let mut config = decode_config(reader.section(SEC_CONFIG)?)?;
    if let Some(backend) = backend_override {
        config.storage_backend = backend;
    }

    let mut pages_meta = reader.section(SEC_PAGES_META)?;
    if pages_meta.remaining() < 8 {
        return Err(StorageError::corrupt("pages_meta section has wrong length"));
    }
    let num_pages = pages_meta.get_u64_le();
    let page_crcs = decode_page_crcs(pages_meta, num_pages, SEC_PAGES_META)?;

    let st_index = decode_st_index_head(
        reader.section(SEC_ST_INDEX)?,
        reader.lazy_section(SEC_ST_INDEX_SLOTS)?.len(),
    )?;
    if st_index.slot_s != config.slot_s {
        return Err(StorageError::corrupt(
            "st_index slot length disagrees with the config section",
        ));
    }
    if st_index.tail > num_pages * PAGE_SIZE as u64 {
        return Err(StorageError::corrupt(
            "posting page file is shorter than the posting heap",
        ));
    }

    let mut delta_meta = reader.section(SEC_DELTA_PAGES_META)?;
    if delta_meta.remaining() < 24 {
        return Err(StorageError::corrupt(
            "delta_pages_meta section has wrong length",
        ));
    }
    let delta_pages = delta_meta.get_u64_le();
    let delta_tail = delta_meta.get_u64_le();
    let delta_seq = delta_meta.get_u64_le();
    let delta_crcs = decode_page_crcs(delta_meta, delta_pages, SEC_DELTA_PAGES_META)?;
    if delta_tail.div_ceil(PAGE_SIZE as u64) > delta_pages {
        return Err(StorageError::corrupt(
            "delta page file is shorter than the delta heap",
        ));
    }
    let delta_directory = decode_delta_dir(
        reader.section(SEC_DELTA_DIR)?,
        delta_tail,
        config.slots_per_day(),
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
    let ingest_meta = crate::ingest::decode_ingest_meta(
        reader.section(SEC_INGEST_META)?,
        network.num_segments(),
    )?;
    Ok(CheckedSnapshot {
        reader,
        network,
        config,
        page_crcs,
        st_index,
        delta_tail,
        delta_seq,
        delta_crcs,
        delta_directory,
        speed_stats,
        ingest_meta,
    })
}

/// Builds the engine over a [`CheckedSnapshot`]: opens the page stores,
/// offers each to `wrap`, checks the pages they return against the
/// recorded CRCs, and restores the optional sections.
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
        page_crcs,
        st_index: head,
        delta_tail,
        delta_seq,
        delta_crcs,
        delta_directory,
        speed_stats,
        ingest_meta,
    } = checked;

    // Reopen the posting heap — read-only, so snapshots deployed as
    // immutable artifacts still serve. Each page is checked on its first
    // physical read.
    let base_store = open_sealed_pages(
        &dir.join(PAGES_FILE),
        config.storage_backend,
        page_crcs.len() as u64,
    )?;
    let io = base_store.io_stats();
    let store: StIndexStore = Box::new(ChecksummedPageStore::new(
        wrap(StoreRole::Base, base_store),
        Arc::clone(&page_crcs),
    ));
    let postings = PostingStore::with_tail_and_retries(
        store,
        config.pool_pages,
        head.tail,
        config.read_retries,
    );

    // The delta heap of previously ingested data, copied into a writable
    // in-memory store (further ingest must never mutate the snapshot
    // artifacts), each page checked as it is copied. The copy shares the
    // base heap's I/O counters, so base and delta reads are accounted
    // identically; its full pages stay checked on every read, while its
    // last partial page is where ingest appends.
    let delta_path = dir.join(delta_pages_file(delta_seq));
    let delta_mem = InMemoryPageStore::with_stats(io);
    {
        let delta_src =
            open_sealed_pages(&delta_path, config.storage_backend, delta_crcs.len() as u64)?;
        for (page_id, &crc) in (0..delta_src.num_pages()).zip(delta_crcs.iter()) {
            let page = delta_src.read_page(page_id)?;
            if crc32(page.bytes()) != crc {
                return Err(StorageError::corrupt(format!(
                    "delta page file {}: page {page_id} fails its checksum (torn save or bit rot)",
                    delta_path.display()
                )));
            }
            let id = delta_mem.allocate()?;
            debug_assert_eq!(id, page_id);
            delta_mem.write_page(page_id, &page)?;
        }
    }
    let full_delta_pages = (delta_tail / PAGE_SIZE as u64) as usize;
    let delta_store: StIndexStore = Box::new(ChecksummedPageStore::new(
        wrap(StoreRole::Delta, Box::new(delta_mem)),
        delta_crcs[..full_delta_pages].into(),
    ));
    let delta_postings = PostingStore::with_tail_and_retries(
        delta_store,
        config.pool_pages,
        delta_tail,
        config.read_retries,
    );

    let mut heads = vec![None; config.slots_per_day() as usize];
    for (slot, slot_head) in head.slots {
        heads[slot as usize] = Some(slot_head);
    }
    let temporal = TemporalIndex::lazy(LazyDirectory {
        section: reader.lazy_section(SEC_ST_INDEX_SLOTS)?,
        heads,
    });
    let st_index = StIndex::from_parts(
        network.clone(),
        head.slot_s,
        head.num_days,
        head.stats,
        temporal,
        postings,
        delta_postings,
        delta_directory,
    );

    let con_index = ConIndex::new(network.clone(), Arc::new(speed_stats), &config);

    let (wal_generation, wal_applied, last_visit) = ingest_meta;
    let engine = ReachabilityEngine::new(network, st_index, con_index, config);
    engine.install_snapshot_meta(page_crcs, wal_generation, wal_applied, last_visit);
    engine.commit_delta_seq(delta_seq);
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
            storage_backend: StorageBackend::Mmap,
        };
        let bytes = encode_config(&config);
        assert_eq!(bytes.len(), CONFIG_LEN);
        assert_eq!(bytes[20..28], [0; 8], "the dead cache-capacity bytes");
        let decoded = decode_config(&bytes).unwrap();
        assert_eq!(decoded.slot_s, 600);
        assert_eq!(decoded.pool_pages, 33);
        assert_eq!(decoded.read_latency_us, 17);
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

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "streach-core-snapshot-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    use super::lazy_section;

    /// A hand-built directory: slot 5 holds segments 3 and 131, slot 200
    /// holds segment 7; blobs of 10, 200 and 1 bytes, back to back.
    fn sample_directory() -> Vec<SlotDirectory> {
        let handle = |offset, len| BlobHandle { offset, len };
        let mut directory = vec![SlotDirectory::default(); 288];
        for (slot, segment, blob) in [
            (5, 3, handle(0, 10)),
            (5, 131, handle(10, 200)),
            (200, 7, handle(210, 1)),
        ] {
            directory[slot].push(SegmentId(segment), blob).unwrap();
        }
        directory
    }

    const SAMPLE_STATS: StIndexStats = StIndexStats {
        num_time_lists: 3,
        num_observations: 5,
        posting_bytes: 211,
        posting_pages: 1,
    };

    fn encode_sample() -> (Vec<u8>, Vec<u8>) {
        let directory = sample_directory();
        let refs: Vec<&SlotDirectory> = directory.iter().collect();
        encode_st_index(300, 2, SAMPLE_STATS, 211, &refs)
    }

    /// The chunks of [`sample_directory`]: slot 5's, then slot 200's.
    const SAMPLE_CHUNK_5: [u8; 6] = [
        0x03, 0x0A, // segment 3, len 10
        0x80, 0x01, 0xC8, 0x01, // gap 128 → segment 131, len 200
    ];
    const SAMPLE_CHUNK_200: [u8; 2] = [0x07, 0x01]; // segment 7, len 1

    /// The head of [`sample_directory`]'s encoding, each slot record
    /// written out field by field.
    fn sample_head() -> Vec<u8> {
        let mut head = vec![0x2C, 0x01, 0, 0, 0x02, 0]; // slot_s 300, num_days 2
        for v in [3u64, 5, 211, 1, 211] {
            head.extend_from_slice(&v.to_le_bytes()); // stats, tail
        }
        head.extend_from_slice(&2u32.to_le_bytes()); // slot count
        for (slot, entries, first, span, offset, chunk) in [
            (5u32, 2u32, 0u64, 210u32, 0u64, &SAMPLE_CHUNK_5[..]),
            (200, 1, 210, 1, 6, &SAMPLE_CHUNK_200[..]),
        ] {
            head.extend_from_slice(&slot.to_le_bytes());
            head.extend_from_slice(&entries.to_le_bytes());
            head.extend_from_slice(&first.to_le_bytes());
            head.extend_from_slice(&span.to_le_bytes());
            head.extend_from_slice(&offset.to_le_bytes());
            head.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            head.extend_from_slice(&crc32(chunk).to_le_bytes());
        }
        head
    }

    #[test]
    fn st_index_golden_bytes() {
        let head = sample_head();
        assert_eq!(head.len(), ST_INDEX_HEAD_LEN + 2 * ST_INDEX_SLOT_LEN);
        let chunks = [&SAMPLE_CHUNK_5[..], &SAMPLE_CHUNK_200[..]].concat();
        assert_eq!(encode_sample(), (head.clone(), chunks.clone()));

        let decoded = decode_st_index_head(&head, chunks.len() as u64).unwrap();
        assert_eq!(
            (
                decoded.slot_s,
                decoded.num_days,
                decoded.stats,
                decoded.tail
            ),
            (300, 2, SAMPLE_STATS, 211)
        );
        let section = lazy_section(SEC_ST_INDEX_SLOTS, chunks);
        let expected = sample_directory();
        for (slot, slot_head) in &decoded.slots {
            let bytes = slot_head.chunk.read(&section, slot).unwrap();
            let directory = decode_slot_chunk(*slot, slot_head, &bytes).unwrap();
            assert_eq!(directory, expected[*slot as usize], "slot {slot}");
        }
        assert_eq!(
            decoded.slots.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            [5, 200]
        );
    }

    fn expect_corrupt<T>(what: &str, result: StorageResult<T>, needle: &str) {
        match result {
            Err(StorageError::Corrupt { context }) => {
                assert!(context.contains(needle), "{what}: {context}")
            }
            Err(e) => panic!("{what}: expected Corrupt, got {e}"),
            Ok(_) => panic!("{what}: a malformed st_index decoded"),
        }
    }

    /// Offset of slot record `i`'s field at `field` bytes into the record.
    fn field(i: usize, field: usize) -> usize {
        ST_INDEX_HEAD_LEN + i * ST_INDEX_SLOT_LEN + field
    }

    #[test]
    fn st_index_head_decoder_rejects_malformed_heads() {
        let head = sample_head();
        let set = |at: usize, bytes: &[u8]| {
            let mut h = head.clone();
            h[at..at + bytes.len()].copy_from_slice(bytes);
            h
        };
        let cases: Vec<(&str, Vec<u8>, u64)> = vec![
            (
                "slot outside the day (288 at Δt = 300 s)",
                set(field(1, 0), &288u32.to_le_bytes()),
                8,
            ),
            (
                "slots out of order",
                set(field(1, 0), &5u32.to_le_bytes()),
                8,
            ),
            ("empty slot", set(field(0, 4), &0u32.to_le_bytes()), 8),
            (
                "span shorter than its entries",
                set(field(0, 16), &1u32.to_le_bytes()),
                8,
            ),
            (
                "spans do not tile the heap",
                set(field(1, 8), &211u64.to_le_bytes()),
                8,
            ),
            (
                "runs short of the tail",
                set(field(1, 16), &0u32.to_le_bytes()),
                8,
            ),
            (
                "runs past the tail",
                set(field(1, 16), &2u32.to_le_bytes()),
                8,
            ),
            (
                "chunk offset past its section",
                set(field(1, 20), &9u64.to_le_bytes()),
                8,
            ),
            ("chunks short of their section", head.clone(), 9),
            ("chunks past their section", head.clone(), 7),
            ("slot count off by one", set(46, &3u32.to_le_bytes()), 8),
            ("zero slot length", set(0, &0u32.to_le_bytes()), 8),
        ];
        for (what, bytes, chunks_len) in cases {
            expect_corrupt(what, decode_st_index_head(&bytes, chunks_len), "st_index");
        }
        // Every strict prefix of a valid head is rejected too.
        for cut in 0..head.len() {
            expect_corrupt(
                &format!("prefix of {cut} bytes"),
                decode_st_index_head(&head[..cut], 8),
                "st_index",
            );
        }
        // The head is an eager section: a flipped byte fails its CRC when
        // the container is opened, before the decoder sees it.
        let path = std::env::temp_dir().join(format!("streach-head-{}.snap", std::process::id()));
        let mut writer = SnapshotWriter::new();
        writer.add_section(SEC_ST_INDEX, head.clone());
        writer.finish(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - head.len() + field(1, 0);
        bytes[at] ^= 0x01;
        expect_corrupt(
            "head CRC mismatch",
            SnapshotReader::parse(bytes),
            "section st_index: checksum mismatch",
        );
        std::fs::remove_file(&path).ok();
        // Compaction indexes the temporal array by delta slot, so the delta
        // directory must stay inside the day as well.
        let delta = encode_delta_dir(&[((288, 1), BlobHandle { offset: 0, len: 4 })]);
        assert!(decode_delta_dir(&delta, 4, 289).is_ok());
        assert!(matches!(
            decode_delta_dir(&delta, 4, 288),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn slot_chunk_decoder_rejects_malformed_chunks() {
        let head = |entries, span| SlotHead {
            entries,
            first: 0,
            span,
            chunk: Chunk {
                offset: 0,
                len: 0,
                crc: 0,
            },
        };
        let ok = head(2, 210);
        assert!(decode_slot_chunk(5, &ok, &SAMPLE_CHUNK_5).is_ok());
        let cases: [(&str, SlotHead, &[u8]); 9] = [
            ("zero segment gap", ok, &[3, 10, 0, 0xC8, 1]),
            ("zero-length blob", ok, &[3, 0, 0x80, 1, 0xD2, 1]),
            ("one byte short of the span", ok, &[3, 10, 0x80, 1, 0xC7, 1]),
            ("one byte past the span", ok, &[3, 10, 0x80, 1, 0xC9, 1]),
            ("overlong varint", ok, &[0x83, 0x00, 10, 0x80, 1, 0xC8, 1]),
            (
                "segment id overflow",
                ok,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 10, 1, 0xC8, 1],
            ),
            ("trailing byte", ok, &[3, 10, 0x80, 1, 0xC8, 1, 0]),
            ("fewer entries than the head", head(3, 210), &SAMPLE_CHUNK_5),
            ("more entries than the head", head(1, 210), &SAMPLE_CHUNK_5),
        ];
        for (what, head, bytes) in cases {
            expect_corrupt(
                what,
                decode_slot_chunk(5, &head, bytes),
                "st_index_slots slot 5",
            );
        }
        // A chunk that fails its CRC never reaches the decoder.
        let section = lazy_section(SEC_ST_INDEX_SLOTS, SAMPLE_CHUNK_5.to_vec());
        let chunk = Chunk::seal(&SAMPLE_CHUNK_5, 0);
        assert!(chunk.read(&section, "slot 5").is_ok());
        let flipped = Chunk {
            crc: chunk.crc ^ 1,
            ..chunk
        };
        expect_corrupt(
            "chunk CRC mismatch",
            flipped.read(&section, "slot 5"),
            "st_index_slots slot 5: chunk checksum mismatch",
        );
    }

    #[test]
    fn slot_chunk_decoder_bounds_a_slot_at_4_gib() {
        const MAX: u32 = u32::MAX;
        // Blobs of u32::MAX bytes and one more: past any span a head can
        // hold, rejected without overflowing.
        let over = [3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 1];
        let head = |entries, span| SlotHead {
            entries,
            first: 7,
            span,
            chunk: Chunk {
                offset: 0,
                len: 0,
                crc: 0,
            },
        };
        expect_corrupt(
            "over 4 GiB",
            decode_slot_chunk(5, &head(2, MAX), &over),
            "slot 5",
        );
        // Exactly u32::MAX bytes in one slot fits.
        let exact = decode_slot_chunk(5, &head(1, MAX), &over[..6]).unwrap();
        assert_eq!(
            exact.entries().collect::<Vec<_>>(),
            vec![(
                SegmentId(3),
                BlobHandle {
                    offset: 7,
                    len: MAX
                }
            )]
        );
    }

    /// A small engine over the tiny fleet, saved to a fresh directory.
    fn saved_engine(name: &str) -> (Arc<RoadNetwork>, ReachabilityEngine, std::path::PathBuf) {
        let network = Arc::new(SyntheticCity::generate(GeneratorConfig::small()).network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let built = EngineBuilder::new(network.clone(), &dataset)
            .index_config(IndexConfig::default())
            .build();
        let dir = tmp_dir(name);
        built.save_snapshot(&dir).unwrap();
        (network, built, dir)
    }

    #[test]
    fn st_index_of_a_built_index_round_trips_byte_identically() {
        let (network, built, dir) = saved_engine("st-index-roundtrip");
        let index = built.st_index();
        let pinned = index.pin();
        let directory = pinned.directory().directories().unwrap();
        let tail = pinned.base_postings().size_bytes();
        let (head, chunks) = encode_st_index(
            index.slot_s(),
            index.num_days(),
            index.stats(),
            tail,
            &directory,
        );
        let decoded = decode_st_index_head(&head, chunks.len() as u64).unwrap();
        let section = lazy_section(SEC_ST_INDEX_SLOTS, chunks.clone());
        let mut rebuilt = vec![SlotDirectory::default(); directory.len()];
        for (slot, slot_head) in &decoded.slots {
            let bytes = slot_head.chunk.read(&section, slot).unwrap();
            rebuilt[*slot as usize] = decode_slot_chunk(*slot, slot_head, &bytes).unwrap();
        }
        let refs: Vec<&SlotDirectory> = rebuilt.iter().collect();
        assert_eq!(refs, directory);
        assert_eq!(
            encode_st_index(decoded.slot_s, decoded.num_days, decoded.stats, tail, &refs),
            (head, chunks)
        );
        // The reopened engine serves every decoded handle's bytes.
        let reopened = ReachabilityEngine::open_snapshot(&dir, network).unwrap();
        let mut entries = 0;
        for (slot, dir) in rebuilt.iter().enumerate() {
            for (segment, handle) in dir.entries() {
                let mut from_index = Vec::new();
                let mut from_handle = Vec::new();
                assert!(reopened
                    .st_index()
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
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An open reads no posting page and decodes no slot; one query then
    /// decodes exactly the directory slots of its window and the speed
    /// rows of its hops.
    #[test]
    fn fresh_open_decodes_nothing_and_a_query_only_its_slots() {
        let (network, built, dir) = saved_engine("lazy-open");
        let engine = ReachabilityEngine::open_snapshot(&dir, network.clone()).unwrap();
        let decoded_dirs = || engine.st_index().pin().directory().decoded_slots();
        let decoded_rows = || engine.con_index().speed_stats().decoded_slots();
        assert_eq!(engine.st_index().io_stats().snapshot().page_reads, 0);
        assert!(decoded_dirs().is_empty() && decoded_rows().is_empty());

        let query = SQuery {
            location: network.bounds().center(),
            start_time_s: 9 * 3600 + 100,
            duration_s: 900,
            prob: 0.2,
        };
        let answer = engine.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
        let expected = built.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
        assert_eq!(answer.region.segments, expected.region.segments);
        // 09:01:40 + 15 min reads slots 108..=111 and hops over 108..=110.
        let populated: Vec<u32> = engine.st_index().populated_slots().collect();
        let window: Vec<u32> = (108..=111).filter(|s| populated.contains(s)).collect();
        assert!(!window.is_empty());
        assert_eq!(decoded_dirs(), window);
        assert_eq!(decoded_rows(), [108, 109, 110]);

        // A scrub checks and decodes the rest.
        engine.scrub().unwrap();
        assert_eq!(decoded_dirs(), populated);
        assert_eq!(decoded_rows().len(), 288);
        std::fs::remove_dir_all(&dir).ok();
    }
}
