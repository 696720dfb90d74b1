//! The temporal index: one [`SlotDirectory`] per Δt slot of the day, and
//! its snapshot sections.
//!
//! # Layout (`st_index` + `st_index_slots`)
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
//! The blob offsets are implied: a sealed base lays its blobs out in
//! exactly (slot, segment) order with no gap, so a slot's blobs are one run
//! of the heap, `span` bytes from `first`, and each blob starts where the
//! previous one ended. The open checks that the runs tile `[0, tail)` and
//! the chunks tile `st_index_slots` exactly; a chunk decodes only if its
//! entry count matches and its lengths sum to exactly its span. An entry
//! costs about two bytes. The decoder fills the in-memory
//! [`SlotDirectory`], which keeps the same implied offsets at eight bytes
//! per entry.

use std::sync::OnceLock;

use bytes::{Buf, BufMut};
use streach_roadnet::SegmentId;
use streach_storage::{
    get_varint_u32, put_varint_u32, BlobHandle, LazySection, StorageError, StorageResult,
};

use super::StIndexStats;
use crate::snapshot::Chunk;

/// Directory of one temporal leaf: for every road segment traversed during
/// the slot, the handle of its time list in the sealed-base posting store.
///
/// The sealed base lays its blobs out in (slot, segment) order with no gap,
/// so a slot's blobs are one contiguous run of the heap and their offsets
/// are implied, as in the snapshot's `st_index` section: the run starts at
/// `first`, and entry `i` ends `ends[i]` bytes into it (it starts where
/// entry `i - 1` ends). That is 8 bytes per entry. A run longer than
/// `u32::MAX` bytes does not fit: the seal refuses it, and the snapshot
/// decoder rejects it as corrupt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SlotDirectory {
    /// Heap offset of the slot's first blob.
    first: u64,
    /// Sorted by segment ID for binary search.
    segments: Vec<SegmentId>,
    /// `ends[i]`: end of entry `i`'s blob, relative to `first`.
    ends: Vec<u32>,
}

impl SlotDirectory {
    /// A slot whose blobs start at heap offset `first`, entry `i` being
    /// `segments[i]`'s blob, which ends `ends[i]` bytes past `first`.
    /// Segments must ascend strictly and ends must grow strictly.
    pub(crate) fn new(first: u64, segments: Vec<SegmentId>, ends: Vec<u32>) -> Self {
        debug_assert_eq!(segments.len(), ends.len());
        debug_assert!(segments.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(ends.windows(2).all(|w| w[0] < w[1]));
        Self {
            first,
            segments,
            ends,
        }
    }

    /// The entry of `segment`, searching only the entries from `*from` on
    /// and moving `*from` past where the search ended: a batch of ascending
    /// segments walks the directory once.
    pub(super) fn seek(&self, from: &mut usize, segment: SegmentId) -> Option<usize> {
        match self.segments[*from..].binary_search(&segment) {
            Ok(k) => {
                *from += k + 1;
                Some(*from - 1)
            }
            Err(k) => {
                *from += k;
                None
            }
        }
    }

    /// The blob handle of entry `i`.
    pub(super) fn handle(&self, i: usize) -> BlobHandle {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        BlobHandle {
            offset: self.first + start as u64,
            len: self.ends[i] - start,
        }
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.segments.len()
    }

    /// Bytes of heap the slot's blobs span.
    fn span(&self) -> u32 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// `true` when no segment was traversed in the slot.
    fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The entries in segment order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (SegmentId, BlobHandle)> + '_ {
        (0..self.len()).map(|i| (self.segments[i], self.handle(i)))
    }
}

/// The error for a slot whose blobs span more than `u32::MAX` bytes.
pub(super) fn oversized_slot(slot: u32) -> StorageError {
    StorageError::corrupt(format!(
        "st_index directory slot {slot} holds more than 4 GiB of blobs"
    ))
}

/// Where a reopened snapshot keeps one populated slot's directory: its
/// entry count, its run of the posting heap and its chunk of the lazy
/// `st_index_slots` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct SlotHead {
    pub entries: u32,
    pub first: u64,
    pub span: u32,
    pub chunk: Chunk,
}

/// The temporal index: one [`SlotDirectory`] per slot of the day.
///
/// A built index holds every directory. A reopened one decodes a populated
/// slot's directory from its snapshot chunk the first time a reader asks
/// for it ([`TemporalIndex::get`]); after that a lookup costs one atomic
/// load more than a plain array. A chunk that fails its checksum or its
/// decode is a typed error naming the slot, every time it is touched: the
/// slot stays undecoded.
pub(crate) struct TemporalIndex {
    slots: Vec<OnceLock<SlotDirectory>>,
    /// A reopened index's `st_index_slots` section; `None` when built.
    section: Option<LazySection>,
    /// `heads[slot]` of a reopened index, `None` for a slot nobody
    /// traversed; empty when built.
    heads: Vec<Option<SlotHead>>,
}

impl TemporalIndex {
    /// An index holding every directory.
    pub(super) fn built(directories: Vec<SlotDirectory>) -> Self {
        Self {
            slots: directories.into_iter().map(OnceLock::from).collect(),
            section: None,
            heads: Vec::new(),
        }
    }

    /// An index over a snapshot's `st_index_slots` `section`, whose slot
    /// heads [`decode_st_index_head`] checked. Each populated slot decodes
    /// on first touch; empty slots need no decode.
    pub(super) fn lazy(section: LazySection, heads: Vec<Option<SlotHead>>) -> Self {
        let slots = heads
            .iter()
            .map(|head| match head {
                Some(_) => OnceLock::new(),
                None => OnceLock::from(SlotDirectory::default()),
            })
            .collect();
        Self {
            slots,
            section: Some(section),
            heads,
        }
    }

    /// Reads, checks and decodes the directory of populated `slot` from
    /// the snapshot the index was opened from.
    fn read(&self, slot: usize) -> StorageResult<SlotDirectory> {
        let section = self
            .section
            .as_ref()
            .expect("an undecoded slot has a lazy source");
        let head = self.heads[slot].expect("an undecoded slot is populated");
        let bytes = head.chunk.read(section, format_args!("slot {slot}"))?;
        decode_slot_chunk(slot as u32, &head, &bytes)
    }

    /// Number of slots: one per Δt slot of the day.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The directory of `slot` (already wrapped into the day), decoded on
    /// first touch.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> StorageResult<&SlotDirectory> {
        match self.slots[slot as usize].get() {
            Some(directory) => Ok(directory),
            None => self.decode(slot as usize),
        }
    }

    #[cold]
    fn decode(&self, slot: usize) -> StorageResult<&SlotDirectory> {
        let directory = self.read(slot)?;
        Ok(self.slots[slot].get_or_init(|| directory))
    }

    /// Whether any segment was traversed in `slot`; decodes nothing.
    pub(super) fn is_populated(&self, slot: usize) -> bool {
        self.slots[slot].get().is_none_or(|d| !d.is_empty())
    }

    /// Every directory, decoding the slots not decoded yet.
    pub(crate) fn directories(&self) -> StorageResult<Vec<&SlotDirectory>> {
        (0..self.len() as u32).map(|slot| self.get(slot)).collect()
    }

    /// Reads, checks and decodes every populated slot's chunk of the
    /// snapshot this index was opened from (decoded slots included, from
    /// disk again), keeping the slots not decoded yet. Returns the first
    /// failure.
    pub(super) fn scrub(&self) -> StorageResult<()> {
        for slot in (0..self.heads.len()).filter(|&slot| self.heads[slot].is_some()) {
            let directory = self.read(slot)?;
            self.slots[slot].get_or_init(|| directory);
        }
        Ok(())
    }

    /// Populated slots whose directory is decoded.
    #[cfg(test)]
    pub(crate) fn decoded_slots(&self) -> Vec<u32> {
        (0..self.len())
            .filter(|&slot| self.slots[slot].get().is_some_and(|d| !d.is_empty()))
            .map(|slot| slot as u32)
            .collect()
    }
}

/// The head of the `st_index` section: ST-Index scalars, construction
/// stats and where every populated slot's directory lives.
pub(super) struct StIndexHead {
    pub slot_s: u32,
    pub num_days: u16,
    pub stats: StIndexStats,
    pub tail: u64,
    /// `slots[slot]`: the head of every slot of the day, `None` for a slot
    /// nobody traversed.
    pub slots: Vec<Option<SlotHead>>,
}

/// Byte length of the fixed-width part of the `st_index` head.
const ST_INDEX_HEAD_LEN: usize = 50;
/// Byte length of one slot's record in the `st_index` head.
const ST_INDEX_SLOT_LEN: usize = 36;

/// Encodes the `st_index` head and its `st_index_slots` chunks (layout in
/// the module docs) from one directory per slot of the day.
pub(super) fn encode_st_index(
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
                first: dir.first,
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
pub(super) fn decode_st_index_head(mut buf: &[u8], chunks_len: u64) -> StorageResult<StIndexHead> {
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
    let mut slots = vec![None; slots_per_day as usize];
    let mut prev: Option<u32> = None;
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
        if prev.is_some_and(|prev| prev >= slot) {
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
        slots[slot as usize] = Some(head);
        prev = Some(slot);
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
fn decode_slot_chunk(slot: u32, head: &SlotHead, mut buf: &[u8]) -> StorageResult<SlotDirectory> {
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::builder::EngineBuilder;
    use crate::config::IndexConfig;
    use crate::engine::ReachabilityEngine;
    use crate::snapshot::lazy_section;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_storage::{crc32, SnapshotReader, SnapshotWriter};
    use streach_traj::{FleetConfig, TrajectoryDataset};

    /// A hand-built directory: slot 5 holds segments 3 and 131, slot 200
    /// holds segment 7; blobs of 10, 200 and 1 bytes, back to back.
    fn sample_directory() -> Vec<SlotDirectory> {
        let mut directory = vec![SlotDirectory::default(); 288];
        directory[5] = SlotDirectory::new(0, vec![SegmentId(3), SegmentId(131)], vec![10, 210]);
        directory[200] = SlotDirectory::new(210, vec![SegmentId(7)], vec![1]);
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
        let populated = (0..288).filter(|&slot| decoded.slots[slot].is_some());
        assert_eq!(populated.collect::<Vec<_>>(), [5, 200]);
        let section = lazy_section("st_index_slots", chunks);
        let temporal = TemporalIndex::lazy(section, decoded.slots);
        let directories = temporal.directories().unwrap();
        assert!(directories.into_iter().eq(&sample_directory()));
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
        // A head that decodes but disagrees with the heap it names fails the
        // open's check: its heap size (22..30) or page count (30..38) against
        // the tail and the page file.
        let network = Arc::new(SyntheticCity::generate(GeneratorConfig::small()).network);
        let check = |head: &[u8], num_pages: u64| {
            let store = streach_storage::InMemoryPageStore::new();
            for _ in 0..num_pages {
                streach_storage::PageStore::allocate(&store).unwrap();
            }
            let slots = lazy_section("st_index_slots", encode_sample().1);
            let config = IndexConfig::default();
            let open = crate::st_index::StIndex::open_sections;
            open(
                network.clone(),
                head,
                slots,
                &[0; 12],
                &config,
                Box::new(store),
            )
            .map(|_| ())
        };
        assert!(check(&head, 1).is_ok());
        let needle = "st_index head records a heap";
        expect_corrupt("heap size off", check(&set(22, &[212]), 1), needle);
        expect_corrupt("page count off", check(&set(30, &[2]), 1), needle);
        expect_corrupt("page file longer", check(&head, 2), needle);
        // The head is an eager section: a flipped byte fails its CRC when
        // the container is opened, before the decoder sees it.
        let path = std::env::temp_dir().join(format!("streach-head-{}.snap", std::process::id()));
        let mut writer = SnapshotWriter::new();
        writer.add_section("st_index", head.clone());
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
        let section = lazy_section("st_index_slots", SAMPLE_CHUNK_5.to_vec());
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

    #[test]
    fn st_index_of_a_built_index_round_trips_byte_identically() {
        let network = Arc::new(SyntheticCity::generate(GeneratorConfig::small()).network);
        let dataset = TrajectoryDataset::simulate(&network, FleetConfig::tiny());
        let built = EngineBuilder::new(network.clone(), &dataset)
            .index_config(IndexConfig::default())
            .build();
        let dir = std::env::temp_dir().join(format!(
            "streach-core-st-index-roundtrip-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        built.save_snapshot(&dir).unwrap();

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
        let section = lazy_section("st_index_slots", chunks.clone());
        let rebuilt = TemporalIndex::lazy(section, decoded.slots);
        let refs = rebuilt.directories().unwrap();
        assert_eq!(refs, directory);
        assert_eq!(
            encode_st_index(decoded.slot_s, decoded.num_days, decoded.stats, tail, &refs),
            (head, chunks)
        );
        // The reopened engine serves every decoded handle's bytes.
        let reopened = ReachabilityEngine::open_snapshot(&dir, network).unwrap();
        let mut entries = 0;
        for (slot, dir) in refs.iter().enumerate() {
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
}
