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
//! bytes per entry.
//!
//! The speed statistics (`speed_stats` + `speed_stats_rows`) follow the
//! same shape; the layout is on [`SpeedStats`]'s encoder.
//!
//! # Incremental snapshots
//!
//! Streaming ingest ([`crate::ingest`]) adds two eager sections: `delta`,
//! the delta tail's merged lists, and `ingest_meta` (WAL generation,
//! applied-record prefix, per-trajectory last-visit table).
//!
//! ```text
//! delta (eager):
//!     [folded bytes u64][entry count u32]
//!     per entry, in strictly ascending (slot, segment) order:
//!         [slot u32][segment u32][len u32][encoded time list: len bytes]
//! ```
//!
//! The folded bytes are [`crate::DeltaStats::delta_bytes`]: every
//! merged list folded in since the base was sealed, so at least the live
//! lists' bytes. The open checks each key against the day and the network
//! and each list against the strict posting decoder.
//! [`ReachabilityEngine::save_incremental_snapshot`] skips re-exporting
//! `postings.pages` when the target directory already holds the base heap
//! the engine was opened from (length-checked at save; the page CRCs
//! pinned in the container are checked on every read), so a periodic
//! checkpoint of a serving process rewrites only the container.

use std::fmt::Display;
use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut};
use streach_roadnet::{RoadNetwork, SegmentId, ShardMap};
use streach_storage::{
    crc32, get_varint_u32, put_varint_u32, visit_posting, ChecksummedPageStore, FilePageStore,
    LazySection, PageStore, PostingStore, SnapshotReader, SnapshotWriter, StorageError,
    StorageResult, PAGE_SIZE,
};

use crate::con_index::ConIndex;
use crate::config::IndexConfig;
use crate::engine::ReachabilityEngine;
use crate::ingest::IngestState;
use crate::speed_stats::SpeedStats;
use crate::st_index::{
    DeltaEntry, LazyDirectory, SlotDirectory, SlotHead, StIndex, StIndexStats, StIndexStore,
    TemporalIndex,
};

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

/// The delta tail as the snapshot holds it: ((slot, segment), encoded
/// list) entries in key order, and the bytes folded in.
type DeltaSection = (Vec<DeltaEntry>, u64);

/// Byte length of the `delta` section's fixed head, and of each entry's.
const DELTA_HEAD_LEN: usize = 12;

/// Encodes the `delta` section (layout in the module docs).
fn encode_delta((entries, folded_bytes): &DeltaSection) -> Vec<u8> {
    let live: usize = entries.iter().map(|(_, bytes)| bytes.len()).sum();
    let mut buf = Vec::with_capacity(DELTA_HEAD_LEN * (1 + entries.len()) + live);
    buf.put_u64_le(*folded_bytes);
    buf.put_u32_le(entries.len() as u32);
    for ((slot, segment), bytes) in entries {
        buf.put_u32_le(*slot);
        buf.put_u32_le(*segment);
        buf.put_u32_le(u32::try_from(bytes.len()).expect("a time list spans at most 4 GiB"));
        buf.put_slice(bytes);
    }
    buf
}

/// Decodes and validates the `delta` section: keys ascend strictly inside
/// the day and the network, every list passes the strict posting decoder,
/// the entries fill the section exactly and the live lists hold no more
/// bytes than were folded in. Any deviation is [`StorageError::Corrupt`]
/// naming the section.
fn decode_delta(
    mut buf: &[u8],
    slots_per_day: u32,
    num_segments: usize,
) -> StorageResult<DeltaSection> {
    let bad = |what: String| StorageError::corrupt(format!("delta section: {what}"));
    if buf.remaining() < DELTA_HEAD_LEN {
        return Err(bad("truncated head".into()));
    }
    let folded_bytes = buf.get_u64_le();
    let count = buf.get_u32_le() as usize;
    // The count is only as trustworthy as the section CRC: never reserve
    // more entries than the section could hold.
    let mut entries: Vec<DeltaEntry> =
        Vec::with_capacity(count.min(buf.remaining() / DELTA_HEAD_LEN));
    let mut live = 0u64;
    for _ in 0..count {
        if buf.remaining() < DELTA_HEAD_LEN {
            return Err(bad("truncated entry".into()));
        }
        let (slot, segment) = (buf.get_u32_le(), buf.get_u32_le());
        let len = buf.get_u32_le() as usize;
        let at = format!("slot {slot} segment {segment}");
        if entries
            .last()
            .is_some_and(|(prev, _)| *prev >= (slot, segment))
        {
            return Err(bad(format!("{at} is out of order or repeated")));
        }
        if slot >= slots_per_day {
            return Err(bad(format!(
                "{at} is outside the day ({slots_per_day} slots)"
            )));
        }
        if segment as usize >= num_segments {
            return Err(bad(format!(
                "{at} is outside the network ({num_segments} segments)"
            )));
        }
        if len > buf.remaining() {
            return Err(bad(format!("{at} runs past the section")));
        }
        let (bytes, rest) = buf.split_at(len);
        if !visit_posting(bytes, |_, _| {}) {
            return Err(bad(format!("{at} holds a malformed time list")));
        }
        live += len as u64;
        entries.push(((slot, segment), bytes.into()));
        buf = rest;
    }
    if !buf.is_empty() {
        return Err(bad("trailing bytes".into()));
    }
    if live > folded_bytes {
        return Err(bad(format!(
            "live lists hold {live} bytes, more than the {folded_bytes} folded in"
        )));
    }
    Ok((entries, folded_bytes))
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
    writer.add_lazy_section(SEC_ST_INDEX_SLOTS, st_chunks);
    writer.add_section(SEC_SPEED_STATS, speed_head);
    writer.add_lazy_section(SEC_SPEED_STATS_ROWS, speed_rows);
    writer.add_section(SEC_DELTA, encode_delta(&pinned.delta()));
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
    assemble(dir, read_checked(dir, Some(network))?, wrap)
}

/// Reopens a self-contained snapshot (see
/// [`ReachabilityEngine::open_snapshot_standalone`]): the road network is
/// decoded from the same parsed container the engine is then opened from,
/// so a concurrent re-save can never pair one file's network with another
/// file's index. The fingerprint check in [`read_checked`] cross-validates
/// the codec roundtrip against the structural hash taken at save.
pub(crate) fn open_standalone(dir: &Path) -> StorageResult<ReachabilityEngine> {
    assemble(dir, read_checked(dir, None)?, |store| store)
}

/// A parsed container whose eager sections decoded and cross-checked.
/// Nothing has been opened over a page file yet.
struct CheckedSnapshot {
    reader: SnapshotReader,
    network: Arc<RoadNetwork>,
    config: IndexConfig,
    page_crcs: Arc<[u32]>,
    st_index: StIndexHead,
    delta: DeltaSection,
    speed_stats: SpeedStats,
    ingest_meta: (u64, u64, crate::ingest::LastVisitMap),
}

/// Reads and checks the snapshot container in `dir` against `network`, or
/// against the network embedded in the container when `network` is `None`:
/// the fingerprint, the config, the page CRC lists, and every head and
/// eager section, cross-checked. Reads no page and no chunk.
fn read_checked(dir: &Path, network: Option<Arc<RoadNetwork>>) -> StorageResult<CheckedSnapshot> {
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

    let delta = decode_delta(
        reader.section(SEC_DELTA)?,
        config.slots_per_day(),
        network.num_segments(),
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
        delta,
        speed_stats,
        ingest_meta,
    })
}

/// Builds the engine over a [`CheckedSnapshot`]: opens the page store,
/// offers it to `wrap`, checks the pages it returns against the recorded
/// CRCs, and restores the optional sections.
fn assemble(
    dir: &Path,
    checked: CheckedSnapshot,
    wrap: impl FnOnce(Box<dyn PageStore>) -> Box<dyn PageStore>,
) -> StorageResult<ReachabilityEngine> {
    let CheckedSnapshot {
        reader,
        network,
        config,
        page_crcs,
        st_index: head,
        delta,
        speed_stats,
        ingest_meta,
    } = checked;

    // Reopen the posting heap — read-only, so snapshots deployed as
    // immutable artifacts still serve. Each page is checked on its first
    // physical read.
    let base_store = open_sealed_pages(&dir.join(PAGES_FILE), page_crcs.len() as u64)?;
    let store: StIndexStore = Box::new(ChecksummedPageStore::new(
        wrap(base_store),
        Arc::clone(&page_crcs),
    ));
    let postings = PostingStore::sealed(store, config.pool_pages, head.tail, config.read_retries);

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
        delta,
    );

    let con_index = ConIndex::new(network.clone(), Arc::new(speed_stats), &config);

    let (wal_generation, wal_applied, last_visit) = ingest_meta;
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
    use streach_storage::BlobHandle;
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
            Ok(_) => panic!("{what}: a malformed section decoded"),
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
    }

    /// Two delta lists: segment 3 in slot 5 (dates 0 and 2) and segment 9
    /// in slot 200 (date 1), 14 bytes between them, 20 bytes folded in.
    fn sample_delta() -> DeltaSection {
        let list = |entries: &[(u16, &[u32])]| -> Arc<[u8]> {
            let mut list = streach_storage::TimeList::new();
            for &(date, ids) in entries {
                ids.iter().for_each(|&id| list.add(date, id));
            }
            list.encode().into()
        };
        (
            vec![
                ((5, 3), list(&[(0, &[4]), (2, &[1, 7])])),
                ((200, 9), list(&[(1, &[2])])),
            ],
            20,
        )
    }

    /// [`sample_delta`]'s section, written out field by field.
    fn sample_delta_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&20u64.to_le_bytes()); // folded bytes
        bytes.extend_from_slice(&2u32.to_le_bytes()); // entry count
        for (slot, segment, list) in [
            // tag, 2 dates: date 0, 1 id: 4; gap 2 → date 2, 2 ids: 1, +6
            (
                5u32,
                3u32,
                &[0x01, 0x02, 0x00, 0x01, 0x04, 0x02, 0x02, 0x01, 0x06][..],
            ),
            // tag, 1 date: date 1, 1 id: 2
            (200, 9, &[0x01, 0x01, 0x01, 0x01, 0x02][..]),
        ] {
            bytes.extend_from_slice(&slot.to_le_bytes());
            bytes.extend_from_slice(&segment.to_le_bytes());
            bytes.extend_from_slice(&(list.len() as u32).to_le_bytes());
            bytes.extend_from_slice(list);
        }
        bytes
    }

    #[test]
    fn delta_golden_bytes() {
        let bytes = sample_delta_bytes();
        assert_eq!(encode_delta(&sample_delta()), bytes);
        assert_eq!(decode_delta(&bytes, 288, 10).unwrap(), sample_delta());
        // An empty tail is its head alone.
        assert_eq!(encode_delta(&(Vec::new(), 0)), [0; DELTA_HEAD_LEN]);
        assert_eq!(decode_delta(&[0; 12], 288, 10).unwrap(), (Vec::new(), 0));
    }

    #[test]
    fn delta_decoder_rejects_malformed_sections() {
        let clean = sample_delta_bytes();
        // Offsets of the second entry's fields, and of the first list.
        let second = DELTA_HEAD_LEN + DELTA_HEAD_LEN + 9;
        let set = |at: usize, bytes: &[u8]| {
            let mut b = clean.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            b
        };
        let cases: Vec<(&str, Vec<u8>, u32, usize)> = vec![
            (
                "keys out of order",
                set(second, &4u32.to_le_bytes()),
                288,
                10,
            ),
            (
                "duplicate key",
                set(second, &[5, 0, 0, 0, 3, 0, 0, 0]),
                288,
                10,
            ),
            ("slot outside the day", clean.clone(), 200, 10),
            ("segment outside the network", clean.clone(), 288, 9),
            (
                "list fails strict decode (zero id gap)",
                set(2 * DELTA_HEAD_LEN + 8, &[0x00]),
                288,
                10,
            ),
            (
                "length past the section",
                set(second + 8, &6u32.to_le_bytes()),
                288,
                10,
            ),
            ("trailing bytes", [clean.as_slice(), &[0]].concat(), 288, 10),
            (
                "live bytes above folded bytes",
                set(0, &13u64.to_le_bytes()),
                288,
                10,
            ),
            (
                "count past the entries",
                set(8, &3u32.to_le_bytes()),
                288,
                10,
            ),
        ];
        for (what, bytes, slots_per_day, num_segments) in cases {
            expect_corrupt(
                what,
                decode_delta(&bytes, slots_per_day, num_segments),
                "delta section",
            );
        }
        for cut in 0..clean.len() {
            expect_corrupt(
                &format!("prefix of {cut} bytes"),
                decode_delta(&clean[..cut], 288, 10),
                "delta section",
            );
        }
        // Exactly as many bytes folded in as live is fine.
        assert!(decode_delta(&set(0, &14u64.to_le_bytes()), 288, 10).is_ok());
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
        let (network, _, built, dir) = saved_world(name);
        (network, built, dir)
    }

    /// [`saved_engine`] and the dataset it was built from.
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
