//! Posting lists ("time lists") stored across pages.
//!
//! Each leaf of the ST-Index keeps, per road segment and time slot, a *time
//! list*: for every date in the historical dataset, the list of trajectory
//! IDs that traversed the segment during that slot on that date. The paper
//! stores these lists on disk — reading them is the expensive operation that
//! SQMB/Con-Index pruning is designed to avoid.
//!
//! [`PostingStore`] is a write-once blob heap over a [`PageStore`]: a
//! [`PostingWriter`] lays blobs out contiguously (spanning page boundaries
//! when necessary), writes each page once and seals the heap; a
//! [`BlobHandle`] addresses a blob. Reads go through a [`BufferPool`], so
//! every posting access pays for exactly the pages it touches unless
//! cached.
//!
//! # Wire format
//!
//! Every blob is one tagged delta/varint time list:
//!
//! ```text
//! u8   tag = 0x01             (format marker)
//! varint  entry count n
//! n × {
//!     varint  date            (entry 0: absolute day index;
//!                              entry i>0: delta from previous date, ≥ 1)
//!     varint  id count k      (k = 0 allowed)
//!     if k > 0:
//!         varint  first id    (absolute)
//!         (k-1) × varint gap  (difference from previous id, ≥ 1)
//! }
//! ```
//!
//! Dates and trajectory IDs are strictly ascending in a well-formed time
//! list, so deltas and gaps are always ≥ 1 — a zero delta/gap byte (such as
//! a zeroed page tail) is rejected as malformed, never absorbed. Any other
//! tag byte (a zeroed blob start included) is rejected too.
//!
//! ## Canonical varints
//!
//! A `u32` varint is 1–5 bytes of LEB128: seven payload bits per byte,
//! least-significant group first, high bit set on every byte except the
//! last. Decoding is *canonical*: a terminating byte with a zero payload
//! after at least one continuation byte (an overlong encoding such as
//! `80 00`) is rejected, and the fifth byte may carry only the top four
//! bits of the `u32` and must terminate (`byte & 0xF0 == 0`). Every `u32`
//! therefore has exactly one accepted byte sequence, which makes the whole
//! blob encoding injective: any byte string that decodes at all re-encodes
//! to itself, so a corrupted blob can never silently masquerade as a
//! shorter (or padded) valid list.
//!
//! # Strictness
//!
//! All decoders reject trailing bytes, truncated streams, overlong varints,
//! zero date-deltas/id-gaps and arithmetic overflow of the running date/id.
//! A torn or zeroed page under a range-valid handle surfaces as
//! [`StorageError::Corrupt`](crate::StorageError::Corrupt), never as a
//! shorter valid list.

use std::sync::Arc;

use crate::buffer_pool::BufferPool;
use crate::iostats::IoStats;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pagestore::{PageStore, StorageResult};

/// Tag byte opening every posting blob: the format marker of the
/// delta/varint layout.
const TAG_DELTA: u8 = 0x01;

/// Appends `v` to `buf` as a canonical LEB128 varint (1–5 bytes).
pub fn put_varint_u32(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a canonical LEB128 varint from the front of `buf`, advancing it.
///
/// Returns `None` on truncation, on an overlong encoding (a terminating
/// byte with zero payload after a continuation byte, e.g. `80 00`), and on
/// a fifth byte that either continues or carries bits beyond the top four
/// of a `u32`. Exactly one byte sequence is accepted per value, so the
/// codec is injective.
pub fn get_varint_u32(buf: &mut &[u8]) -> Option<u32> {
    let mut out: u32 = 0;
    for i in 0..5u32 {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        let payload = (byte & 0x7F) as u32;
        if i == 4 && byte & 0xF0 != 0 {
            // The fifth byte may carry only bits 28..32 and must terminate.
            return None;
        }
        out |= payload << (7 * i);
        if byte & 0x80 == 0 {
            if i > 0 && payload == 0 {
                // Overlong: canonical encodings never end in a zero payload.
                return None;
            }
            return Some(out);
        }
    }
    None
}

/// The trajectory IDs observed on a given date.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimeListEntry {
    /// Day index within the dataset (0-based; the paper's dataset spans
    /// `m = 30` days).
    pub date: u16,
    /// IDs of the trajectories that traversed the segment in the slot on
    /// this date, sorted ascending.
    pub traj_ids: Vec<u32>,
}

/// A full time list: one entry per date with at least one traversal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimeList {
    /// Entries sorted by date.
    pub entries: Vec<TimeListEntry>,
}

impl TimeList {
    /// Creates an empty time list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a trajectory observation for `date`, keeping entries sorted and
    /// IDs deduplicated.
    pub fn add(&mut self, date: u16, traj_id: u32) {
        match self.entries.binary_search_by_key(&date, |e| e.date) {
            Ok(i) => {
                let ids = &mut self.entries[i].traj_ids;
                if let Err(pos) = ids.binary_search(&traj_id) {
                    ids.insert(pos, traj_id);
                }
            }
            Err(i) => {
                self.entries.insert(
                    i,
                    TimeListEntry {
                        date,
                        traj_ids: vec![traj_id],
                    },
                );
            }
        }
    }

    /// The trajectory IDs recorded for `date`, if any.
    pub fn ids_on(&self, date: u16) -> Option<&[u32]> {
        self.entries
            .binary_search_by_key(&date, |e| e.date)
            .ok()
            .map(|i| self.entries[i].traj_ids.as_slice())
    }

    /// Number of dates with at least one traversal.
    pub fn num_dates(&self) -> usize {
        self.entries.len()
    }

    /// Total number of (date, trajectory) observations.
    pub fn num_observations(&self) -> usize {
        self.entries.iter().map(|e| e.traj_ids.len()).sum()
    }

    /// The list's fixed-width-equivalent footprint — a `u32` count, then a
    /// `u16` date and `u32` id count per entry and a `u32` per id. This is
    /// the logical "decoded" size [`IoStats::record_posting_decode`]
    /// compares the stored bytes against.
    pub fn fixed_width_size(&self) -> u64 {
        fixed_width_size(self.num_dates() as u64, self.num_observations() as u64)
    }

    /// Serializes the time list as one tagged delta/varint blob (see the
    /// [module docs](self)). Entries must be strictly ascending by date
    /// with strictly ascending IDs per entry — the invariant
    /// [`TimeList::add`] maintains.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + self.fixed_width_size() as usize);
        buf.push(TAG_DELTA);
        put_varint_u32(&mut buf, self.entries.len() as u32);
        let mut prev_date = 0u32;
        for (i, entry) in self.entries.iter().enumerate() {
            let date = entry.date as u32;
            if i == 0 {
                put_varint_u32(&mut buf, date);
            } else {
                debug_assert!(date > prev_date, "dates must be strictly ascending");
                put_varint_u32(&mut buf, date.wrapping_sub(prev_date));
            }
            prev_date = date;
            put_varint_u32(&mut buf, entry.traj_ids.len() as u32);
            let mut prev_id = 0u32;
            for (j, &id) in entry.traj_ids.iter().enumerate() {
                if j == 0 {
                    put_varint_u32(&mut buf, id);
                } else {
                    debug_assert!(id > prev_id, "ids must be strictly ascending");
                    put_varint_u32(&mut buf, id.wrapping_sub(prev_id));
                }
                prev_id = id;
            }
        }
        buf
    }

    /// Deserializes a blob produced by [`TimeList::encode`]. Returns `None`
    /// on any malformation — wrong tag, truncation, trailing bytes,
    /// overlong varints, zero/non-monotone deltas. The strictness matters
    /// for fault tolerance: a torn or zeroed page must never decode into a
    /// shorter "valid" list.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut entries = Vec::new();
        if !visit_posting(buf, |date, ids| {
            entries.push(TimeListEntry {
                date,
                traj_ids: ids.collect(),
            });
        }) {
            return None;
        }
        Some(Self { entries })
    }
}

/// Appends to `out` the blob of the time list holding `obs`, which are
/// sorted by `pair(o) = (date, id)` and may repeat a pair: a repeat is
/// dropped, as [`TimeList::add`] drops it. The bytes equal
/// [`TimeList::encode`]'s for that list, with no list built.
pub fn encode_sorted<T>(obs: &[T], pair: impl Fn(&T) -> (u16, u32), out: &mut Vec<u8>) {
    debug_assert!(obs.windows(2).all(|w| pair(&w[0]) <= pair(&w[1])));
    let dates = obs.chunk_by(|a, b| pair(a).0 == pair(b).0);
    out.push(TAG_DELTA);
    put_varint_u32(out, dates.clone().count() as u32);
    let mut prev_date = 0u32;
    for day in dates {
        let date = pair(&day[0]).0 as u32;
        put_varint_u32(out, date - prev_date);
        prev_date = date;
        let ids = day.chunk_by(|a, b| pair(a).1 == pair(b).1);
        put_varint_u32(out, ids.clone().count() as u32);
        let mut prev_id = 0u32;
        for run in ids {
            let id = pair(&run[0]).1;
            put_varint_u32(out, id - prev_id);
            prev_id = id;
        }
    }
}

/// The fixed-width-equivalent footprint of a time list with `dates` entries
/// holding `ids` trajectory IDs in total: a `u32` count, then a `u16` date
/// and `u32` id count per entry and a `u32` per id. Every decode records
/// this as its `bytes_decoded` (see [`IoStats::record_posting_decode`]).
pub fn fixed_width_size(dates: u64, ids: u64) -> u64 {
    4 + 6 * dates + 4 * ids
}

/// Iterator over the trajectory IDs of one date entry inside an encoded
/// time list (see [`visit_posting`]). Decodes lazily from the blob bytes,
/// so visiting a posting never materialises intermediate `Vec`s.
#[derive(Debug, Clone)]
pub struct IdIter<'a> {
    buf: &'a [u8],
    remaining: usize,
    prev: u32,
    first: bool,
}

impl Iterator for IdIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // The slice handed to an IdIter was pre-validated by the visitor's
        // scan, so decoding cannot fail or overflow here.
        let Some(v) = get_varint_u32(&mut self.buf) else {
            self.remaining = 0;
            return None;
        };
        self.prev = if self.first {
            v
        } else {
            self.prev.wrapping_add(v)
        };
        self.first = false;
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for IdIter<'_> {}

/// Walks an encoded posting blob without materialising a [`TimeList`],
/// calling `f(date, ids)` for every date entry. Each entry's id stream is
/// scanned once up front — validating every gap (non-zero, no overflow) and
/// finding its extent — before `f` receives a lazy [`IdIter`] over exactly
/// those bytes, so a warm verification performs no heap allocation.
///
/// Returns `false` (after visiting the well-formed prefix) when the blob is
/// malformed, trailing bytes included; a caller that sees `false` must
/// treat the posting as corrupt, never as "fewer entries".
#[must_use = "a false return means the posting bytes are corrupt"]
pub fn visit_posting<'a, F>(buf: &'a [u8], mut f: F) -> bool
where
    F: FnMut(u16, IdIter<'a>),
{
    let Some((&TAG_DELTA, mut buf)) = buf.split_first() else {
        return false;
    };
    let Some(n) = get_varint_u32(&mut buf) else {
        return false;
    };
    let mut prev_date = 0u32;
    for i in 0..n {
        let Some(date_field) = get_varint_u32(&mut buf) else {
            return false;
        };
        let date = if i == 0 {
            date_field
        } else if date_field == 0 {
            return false;
        } else {
            match prev_date.checked_add(date_field) {
                Some(d) => d,
                None => return false,
            }
        };
        if date > u16::MAX as u32 {
            return false;
        }
        prev_date = date;
        let Some(count) = get_varint_u32(&mut buf) else {
            return false;
        };
        let ids_start = buf;
        if count > 0 {
            let Some(first) = get_varint_u32(&mut buf) else {
                return false;
            };
            let mut prev_id = first;
            for _ in 1..count {
                let Some(gap) = get_varint_u32(&mut buf) else {
                    return false;
                };
                if gap == 0 {
                    return false;
                }
                match prev_id.checked_add(gap) {
                    Some(id) => prev_id = id,
                    None => return false,
                }
            }
        }
        let ids_len = ids_start.len() - buf.len();
        f(
            date as u16,
            IdIter {
                buf: &ids_start[..ids_len],
                remaining: count as usize,
                prev: 0,
                first: true,
            },
        );
    }
    buf.is_empty()
}

/// Computes the `(bytes_decoded, bytes_resident)` accounting pair for one
/// encoded posting blob (see [`IoStats::record_posting_decode`]):
/// `bytes_resident` is the blob's stored footprint (`buf.len()`), and
/// `bytes_decoded` is the fixed-width-equivalent footprint the blob expands
/// to. Returns `None` when the blob is malformed.
pub fn posting_sizes(buf: &[u8]) -> Option<(u64, u64)> {
    let mut dates = 0u64;
    let mut ids = 0u64;
    if !visit_posting(buf, |_, iter| {
        dates += 1;
        ids += iter.len() as u64;
    }) {
        return None;
    }
    Some((fixed_width_size(dates, ids), buf.len() as u64))
}

/// Location of a blob inside a [`PostingStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlobHandle {
    /// Byte offset of the blob from the beginning of the heap.
    pub offset: u64,
    /// Length of the blob in bytes.
    pub len: u32,
}

impl BlobHandle {
    /// Number of distinct pages this blob touches when read.
    pub fn pages_spanned(&self) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let first = self.offset / PAGE_SIZE as u64;
        let last = (self.offset + self.len as u64 - 1) / PAGE_SIZE as u64;
        last - first + 1
    }
}

/// A sealed heap of byte blobs stored across fixed-size pages, read through
/// an LRU buffer pool. A heap is written once, by a [`PostingWriter`] that
/// [finishes](PostingWriter::finish) into it, or opened
/// [sealed](Self::sealed) over the pages a store already holds, such as a
/// snapshot's posting file. Nothing appends to it afterwards: compaction
/// writes a fresh heap. Every read is a [`BlobRun`] ([`PostingStore::run`]).
pub struct PostingStore<S: PageStore> {
    pool: BufferPool<S>,
    /// Bytes in the heap.
    len: u64,
}

impl<S: PageStore> PostingStore<S> {
    /// Opens the sealed heap of `len` bytes that `store` holds, read
    /// through a pool of `pool_pages` pages that retries a transient read
    /// failure `read_retries` times.
    pub fn sealed(store: S, pool_pages: usize, len: u64, read_retries: u32) -> Self {
        Self {
            pool: BufferPool::with_retries(store, pool_pages, read_retries),
            len,
        }
    }

    /// The buffer pool's page capacity.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// The buffer pool's transient-read retry budget.
    pub fn read_retries(&self) -> u32 {
        self.pool.read_retries()
    }

    /// Access to the underlying page store (page export during snapshots).
    pub fn store(&self) -> &S {
        self.pool.store()
    }

    /// The shared I/O statistics handle.
    pub fn io_stats(&self) -> Arc<IoStats> {
        self.pool.io_stats()
    }

    /// Bytes in the heap.
    pub fn size_bytes(&self) -> u64 {
        self.len
    }

    /// Number of pages allocated in the underlying store.
    pub fn num_pages(&self) -> u64 {
        self.pool.store().num_pages()
    }

    /// Drops all cached pages (e.g. before timing a cold-cache query).
    pub fn clear_cache(&self) {
        self.pool.clear();
    }

    /// Reads a blob back.
    pub fn read(&self, handle: BlobHandle) -> StorageResult<Vec<u8>> {
        let mut out = Vec::new();
        self.read_into(handle, &mut out)?;
        Ok(out)
    }

    /// Reads a blob into a caller-owned buffer (cleared first), so a warm
    /// read performs no allocation beyond what `out`'s capacity already
    /// covers. A reader of many blobs in heap order uses
    /// [`PostingStore::run`] instead.
    pub fn read_into(&self, handle: BlobHandle, out: &mut Vec<u8>) -> StorageResult<()> {
        let mut run = self.run();
        if handle.pages_spanned() > 1 {
            // A run copies a straddling blob into the buffer it is given.
            run.read(handle, out)?;
        } else {
            let mut unused = Vec::new();
            let bytes = run.read(handle, &mut unused)?;
            out.clear();
            out.extend_from_slice(bytes);
        }
        Ok(())
    }

    /// A reader lending this heap's blobs, read in ascending heap order,
    /// one pool fetch per page (see [`BlobRun`]).
    pub fn run(&self) -> BlobRun<'_, S> {
        BlobRun {
            store: self,
            page: None,
        }
    }

    /// Reads a [`TimeList`] back. A blob that fails to decode — a torn or
    /// zeroed page under a range-valid handle, or a mismatched handle — is
    /// reported as [`crate::StorageError::Corrupt`], never a panic: a disk
    /// fault mid-query must surface as an error the serving process can
    /// handle. Successful decodes record their
    /// [`bytes_decoded`/`bytes_resident`](IoStats::record_posting_decode)
    /// accounting on the shared [`IoStats`].
    pub fn read_time_list(&self, handle: BlobHandle) -> StorageResult<TimeList> {
        let mut buf = Vec::new();
        let mut run = self.run();
        let list = TimeList::decode(run.read(handle, &mut buf)?).ok_or_else(|| {
            crate::StorageError::corrupt(format!(
                "time list blob at offset {} (len {}) failed to decode \
                 (torn page or corrupted posting heap)",
                handle.offset, handle.len
            ))
        })?;
        self.pool
            .io_stats()
            .record_posting_decode(list.fixed_width_size(), handle.len as u64);
        Ok(list)
    }
}

/// The one way to write a posting heap: [`push`](Self::push) copies each
/// blob into the page being filled and writes a page to the store once,
/// when it fills; [`finish`](Self::finish) writes the partial last page and
/// seals the heap into a read-only [`PostingStore`]. So a handle from
/// `push` is readable only once the heap is sealed, and callers publish
/// directory entries after `finish` returns.
///
/// The writer owns a fresh page store. After an `Err` from `push` or
/// `finish` the writer is abandoned: nothing is sealed, and a retry writes
/// a fresh store with the same bytes at the same handles. Pushing to a
/// writer whose `push` failed, or finishing it, panics: it holds a page it
/// never wrote.
pub struct PostingWriter<S: PageStore> {
    store: S,
    /// The page holding byte `len`, filled up to `len`.
    page: Page,
    /// Bytes pushed so far.
    len: u64,
    /// A page write failed.
    failed: bool,
}

impl<S: PageStore> PostingWriter<S> {
    /// Starts a heap on `store`, which must hold no page.
    pub fn new(store: S) -> Self {
        assert_eq!(
            store.num_pages(),
            0,
            "a posting heap is written to a fresh store"
        );
        Self {
            store,
            page: Page::zeroed(),
            len: 0,
            failed: false,
        }
    }

    /// Appends a blob to the heap and returns its handle.
    pub fn push(&mut self, bytes: &[u8]) -> StorageResult<BlobHandle> {
        assert!(
            !self.failed,
            "a posting writer is abandoned after a failed push"
        );
        let handle = BlobHandle {
            offset: self.len,
            len: u32::try_from(bytes.len()).expect("a blob spans at most 4 GiB"),
        };
        let mut rest = bytes;
        while !rest.is_empty() {
            let in_page = (self.len % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - in_page).min(rest.len());
            self.page.bytes_mut()[in_page..in_page + chunk].copy_from_slice(&rest[..chunk]);
            rest = &rest[chunk..];
            self.len += chunk as u64;
            if self.len.is_multiple_of(PAGE_SIZE as u64) {
                if let Err(e) = self.write_page() {
                    self.failed = true;
                    return Err(e);
                }
                self.page = Page::zeroed();
            }
        }
        Ok(handle)
    }

    /// Writes the partial last page, if any, and seals the heap, read
    /// through a pool of `pool_pages` pages that retries a transient read
    /// failure `read_retries` times.
    pub fn finish(
        mut self,
        pool_pages: usize,
        read_retries: u32,
    ) -> StorageResult<PostingStore<S>> {
        assert!(
            !self.failed,
            "a posting writer is abandoned after a failed push"
        );
        if !self.len.is_multiple_of(PAGE_SIZE as u64) {
            self.write_page()?;
        }
        Ok(PostingStore::sealed(
            self.store,
            pool_pages,
            self.len,
            read_retries,
        ))
    }

    /// Writes the page being filled as the store's next page. Pages are
    /// written in order, once each, so the next page is the one allocated.
    fn write_page(&mut self) -> StorageResult<()> {
        let id = self.store.allocate()?;
        debug_assert_eq!(id, (self.len - 1) / PAGE_SIZE as u64);
        self.store.write_page(id, &self.page)
    }
}

/// A reader over one [`PostingStore`] that lends blobs read in ascending
/// heap order, made by [`PostingStore::run`]. It holds the last page it
/// fetched, so the blobs packed on one page cost one pool fetch between
/// them, and a blob inside that page is lent as a slice of the pooled page.
/// Only a blob that straddles a page boundary is copied, into the caller's
/// buffer. Any read order is correct; ascending order is what makes each
/// page one fetch.
pub struct BlobRun<'a, S: PageStore> {
    store: &'a PostingStore<S>,
    page: Option<(PageId, Arc<Page>)>,
}

impl<S: PageStore> BlobRun<'_, S> {
    /// Page `id`, fetched through the pool unless it is the page held.
    fn page(&mut self, id: PageId) -> StorageResult<&Page> {
        if self.page.as_ref().is_none_or(|(held, _)| *held != id) {
            self.page = Some((id, self.store.pool.page(id)?));
        }
        Ok(&self.page.as_ref().expect("page just fetched").1)
    }

    /// The bytes of the blob at `handle`: lent from the pooled page when
    /// the blob lies on one page, else copied into `buf` (cleared first).
    pub fn read<'b>(
        &'b mut self,
        handle: BlobHandle,
        buf: &'b mut Vec<u8>,
    ) -> StorageResult<&'b [u8]> {
        let len = handle.len as usize;
        let first = handle.offset / PAGE_SIZE as u64;
        let in_page = (handle.offset % PAGE_SIZE as u64) as usize;
        if len == 0 {
            return Ok(&[]);
        }
        if in_page + len <= PAGE_SIZE {
            return Ok(&self.page(first)?.bytes()[in_page..in_page + len]);
        }
        buf.clear();
        let (mut id, mut at) = (first, in_page);
        while buf.len() < len {
            let chunk = (PAGE_SIZE - at).min(len - buf.len());
            buf.extend_from_slice(&self.page(id)?.bytes()[at..at + chunk]);
            id += 1;
            at = 0;
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::InMemoryPageStore;

    fn sample_list() -> TimeList {
        let mut list = TimeList::new();
        list.add(3, 100);
        list.add(1, 42);
        list.add(3, 7);
        list.add(3, 7); // duplicate, ignored
        list.add(29, 65000);
        list
    }

    /// SplitMix64 — the workspace's deterministic-test RNG idiom.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_list(state: &mut u64) -> TimeList {
        let mut list = TimeList::new();
        let num_dates = (splitmix64(state) % 8) as u16;
        for _ in 0..num_dates {
            let date = (splitmix64(state) % 30) as u16;
            let num_ids = splitmix64(state) % 12;
            for _ in 0..num_ids {
                let id = match splitmix64(state) % 4 {
                    0 => (splitmix64(state) % 64) as u32,           // dense cluster
                    1 => splitmix64(state) as u32,                  // full range
                    2 => u32::MAX - (splitmix64(state) % 8) as u32, // near max
                    _ => (splitmix64(state) % 100_000) as u32,      // fleet-scale
                };
                list.add(date, id);
            }
        }
        list
    }

    #[test]
    fn time_list_add_keeps_sorted_dedup() {
        let list = sample_list();
        assert_eq!(list.num_dates(), 3);
        assert_eq!(list.num_observations(), 4);
        let dates: Vec<u16> = list.entries.iter().map(|e| e.date).collect();
        assert_eq!(dates, vec![1, 3, 29]);
        assert_eq!(list.ids_on(3), Some(&[7u32, 100][..]));
        assert_eq!(list.ids_on(2), None);
    }

    /// The exact bytes of one small blob: a silent change of the on-disk
    /// layout fails here before it reaches a posting heap.
    #[test]
    fn time_list_golden_bytes() {
        let list = sample_list();
        let golden = [
            0x01, // tag
            0x03, // 3 entries
            0x01, 0x01, 0x2A, // date 1, 1 id: 42
            0x02, 0x02, 0x07, 0x5D, // date +2 = 3, 2 ids: 7, +93 = 100
            0x1A, 0x01, 0xE8, 0xFB, 0x03, // date +26 = 29, 1 id: 65000
        ];
        assert_eq!(list.encode(), golden);
        assert_eq!(TimeList::decode(&golden), Some(list.clone()));
        assert_eq!(posting_sizes(&golden), Some((38, golden.len() as u64)));
        assert_eq!(list.fixed_width_size(), 38);
        assert_eq!(TimeList::new().encode(), [0x01, 0x00]);
    }

    #[test]
    fn varint_roundtrip_edge_values() {
        let values = [
            0u32,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            0x1F_FFFF,
            0x20_0000,
            0x0FFF_FFFF,
            0x1000_0000,
            u32::MAX - 1,
            u32::MAX,
        ];
        for &v in &values {
            let mut buf = Vec::new();
            put_varint_u32(&mut buf, v);
            assert!(buf.len() <= 5);
            let mut cursor = buf.as_slice();
            assert_eq!(get_varint_u32(&mut cursor), Some(v), "value {v:#x}");
            assert!(cursor.is_empty(), "value {v:#x} left trailing bytes");
        }
    }

    #[test]
    fn varint_rejects_overlong_truncated_and_overflow() {
        // Overlong encodings of small values.
        for overlong in [
            &[0x80, 0x00][..],
            &[0x81, 0x80, 0x00][..],
            &[0xFF, 0x80, 0x80, 0x80, 0x00][..],
        ] {
            let mut cursor = overlong;
            assert_eq!(get_varint_u32(&mut cursor), None, "bytes {overlong:02x?}");
        }
        // Truncated streams (continuation bit set, nothing follows).
        for truncated in [&[0x80][..], &[0xFF, 0xFF][..], &[][..]] {
            let mut cursor = truncated;
            assert_eq!(get_varint_u32(&mut cursor), None);
        }
        // A fifth byte must terminate and fit in the top 4 bits of a u32.
        let mut too_long = &[0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01][..];
        assert_eq!(get_varint_u32(&mut too_long), None);
        let mut overflow = &[0xFFu8, 0xFF, 0xFF, 0xFF, 0x10][..];
        assert_eq!(get_varint_u32(&mut overflow), None);
        // The canonical maximum is accepted.
        let mut max = &[0xFFu8, 0xFF, 0xFF, 0xFF, 0x0F][..];
        assert_eq!(get_varint_u32(&mut max), Some(u32::MAX));
    }

    #[test]
    fn varint_decode_is_canonical() {
        // Every accepted 1..=3-byte sequence re-encodes to itself, so no two
        // byte strings decode to the same value (injectivity, sampled).
        let mut state = 0xC0FF_EE00_1234_5678u64;
        for _ in 0..2000 {
            let len = 1 + (splitmix64(&mut state) % 3) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| splitmix64(&mut state) as u8).collect();
            let mut cursor = bytes.as_slice();
            if let Some(v) = get_varint_u32(&mut cursor) {
                let consumed = &bytes[..bytes.len() - cursor.len()];
                let mut re = Vec::new();
                put_varint_u32(&mut re, v);
                assert_eq!(re, consumed, "non-canonical accept of {bytes:02x?}");
            }
        }
    }

    #[test]
    fn encode_roundtrips_adversarial_lists() {
        let dense = TimeList {
            entries: vec![TimeListEntry {
                date: 0,
                traj_ids: (0..512u32).collect(),
            }],
        };
        let lists = vec![
            TimeList::new(),
            TimeList {
                // A date with zero observations is unreachable through
                // `add`, but the wire format supports it (k = 0).
                entries: vec![TimeListEntry {
                    date: 7,
                    traj_ids: vec![],
                }],
            },
            TimeList {
                entries: vec![TimeListEntry {
                    date: u16::MAX,
                    traj_ids: vec![0],
                }],
            },
            TimeList {
                entries: vec![TimeListEntry {
                    date: 1,
                    traj_ids: vec![u32::MAX],
                }],
            },
            TimeList {
                entries: vec![TimeListEntry {
                    date: 2,
                    traj_ids: vec![0, u32::MAX],
                }],
            },
            dense,
            sample_list(),
        ];
        for list in &lists {
            let bytes = list.encode();
            let back =
                TimeList::decode(&bytes).unwrap_or_else(|| panic!("decode failed on {list:?}"));
            assert_eq!(&back, list);
            // Accounting pair: decoded is the fixed-width footprint.
            let (decoded, resident) = posting_sizes(&bytes).unwrap();
            assert_eq!(decoded, list.fixed_width_size());
            assert_eq!(resident, bytes.len() as u64);
        }
    }

    #[test]
    fn seeded_property_roundtrip() {
        let mut state = 0x5EED_0000_0000_0001u64;
        for _ in 0..300 {
            let list = random_list(&mut state);
            let bytes = list.encode();
            assert_eq!(TimeList::decode(&bytes).as_ref(), Some(&list));
            // Strictness: every strict prefix and any appended byte is
            // rejected — a flip can never shorten or pad a list.
            for cut in 0..bytes.len() {
                assert!(
                    TimeList::decode(&bytes[..cut]).is_none(),
                    "accepted a blob truncated to {cut} bytes"
                );
            }
            let mut padded = bytes.clone();
            padded.push(0);
            assert!(
                TimeList::decode(&padded).is_none(),
                "accepted a padded blob"
            );
        }
    }

    #[test]
    fn delta_decode_accepts_only_canonical_bytes() {
        // Injectivity end-to-end: any single-byte corruption of a delta blob
        // either fails to decode, or decodes to a list whose re-encoding is
        // exactly the corrupted bytes (i.e. the decoder never silently
        // reinterprets bytes as a different-length list). It never yields
        // the original list.
        let mut state = 0xDE17_A000_0000_0002u64;
        for _ in 0..40 {
            let list = random_list(&mut state);
            let bytes = list.encode();
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut flipped = bytes.clone();
                    flipped[i] ^= 1 << bit;
                    if let Some(back) = TimeList::decode(&flipped) {
                        assert_ne!(back, list, "flip at byte {i} bit {bit} was invisible");
                        assert_eq!(
                            back.encode(),
                            flipped,
                            "non-canonical accept after flip at byte {i} bit {bit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn delta_decode_rejects_non_monotone_streams() {
        // Hand-built bodies exercising each strictness rule. Tag byte first.
        let reject = |body: &[u8]| {
            let mut blob = vec![TAG_DELTA];
            blob.extend_from_slice(body);
            assert!(
                TimeList::decode(&blob).is_none(),
                "accepted malformed body {body:02x?}"
            );
        };
        // Two entries, second date delta = 0 (duplicate date).
        reject(&[2, 5, 1, 9, 0, 1, 3]);
        // Second id gap = 0 (duplicate id).
        reject(&[1, 5, 2, 9, 0]);
        // Date overflows u16 (absolute 0xFFFF + delta 1).
        reject(&[2, 0xFF, 0xFF, 0x03, 1, 1, 1, 1, 1, 1]);
        // Id accumulator overflows u32 (first = MAX, gap = 1).
        reject(&[1, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1]);
        // Truncated gap stream (k = 3 but only first id present).
        reject(&[1, 0, 3, 7]);
        // Zero-filled tail (torn page): entry count says 1 but all zeros
        // after the date means gap bytes are zero.
        reject(&[1, 4, 2, 9, 0, 0, 0]);
    }

    #[test]
    fn encoding_compresses_dense_lists() {
        let mut list = TimeList::new();
        for date in 0..30u16 {
            for id in 0..64u32 {
                list.add(date, 1000 + id * 3);
            }
        }
        let encoded = list.encode().len() as f64;
        assert!(
            encoded * 1.5 < list.fixed_width_size() as f64,
            "{encoded} encoded bytes vs {} fixed-width bytes",
            list.fixed_width_size()
        );
    }

    #[test]
    fn blob_handle_page_span() {
        assert_eq!(BlobHandle { offset: 0, len: 0 }.pages_spanned(), 0);
        assert_eq!(BlobHandle { offset: 0, len: 1 }.pages_spanned(), 1);
        assert_eq!(
            BlobHandle {
                offset: 0,
                len: PAGE_SIZE as u32
            }
            .pages_spanned(),
            1
        );
        assert_eq!(
            BlobHandle {
                offset: 0,
                len: PAGE_SIZE as u32 + 1
            }
            .pages_spanned(),
            2
        );
        assert_eq!(
            BlobHandle {
                offset: PAGE_SIZE as u64 - 1,
                len: 2
            }
            .pages_spanned(),
            2
        );
    }

    /// A sealed in-memory heap holding `blobs` in order, and their handles.
    fn heap<B: AsRef<[u8]>>(
        blobs: impl IntoIterator<Item = B>,
        pool_pages: usize,
    ) -> (PostingStore<InMemoryPageStore>, Vec<BlobHandle>) {
        let mut writer = PostingWriter::new(InMemoryPageStore::new());
        let handles = blobs
            .into_iter()
            .map(|b| writer.push(b.as_ref()).unwrap())
            .collect();
        (writer.finish(pool_pages, 0).unwrap(), handles)
    }

    #[test]
    fn write_read_roundtrip_small() {
        let (store, h) = heap([&b"hello"[..], &b"world!"[..]], 8);
        assert_eq!(store.read(h[0]).unwrap(), b"hello");
        assert_eq!(store.read(h[1]).unwrap(), b"world!");
        assert_eq!(store.size_bytes(), 11);
        assert_eq!(store.num_pages(), 1);
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let blob: Vec<u8> = (0..(PAGE_SIZE * 3 + 123))
            .map(|i| (i % 251) as u8)
            .collect();
        let (store, h) = heap([&b"prefix"[..], blob.as_slice()], 8);
        assert_eq!(store.read(h[1]).unwrap(), blob);
        assert_eq!(store.read(h[0]).unwrap(), b"prefix");
        assert!(store.num_pages() >= 4);
        assert_eq!(h[1].pages_spanned(), 4);
    }

    #[test]
    fn time_list_storage_roundtrip() {
        let lists: Vec<TimeList> = (0..50u32)
            .map(|seg| {
                let mut list = TimeList::new();
                for date in 0..10u16 {
                    list.add(date, seg * 1000 + date as u32);
                    list.add(date, seg * 1000 + 500);
                }
                list
            })
            .collect();
        let (store, handles) = heap(lists.iter().map(TimeList::encode), 4);
        for (list, handle) in lists.iter().zip(&handles) {
            assert_eq!(&store.read_time_list(*handle).unwrap(), list);
        }
    }

    #[test]
    fn read_time_list_records_decode_accounting() {
        let list = sample_list();
        let (store, h) = heap([list.encode()], 4);
        store.io_stats().reset();
        store.read_time_list(h[0]).unwrap();
        let snap = store.io_stats().snapshot();
        assert_eq!(snap.bytes_decoded, list.fixed_width_size());
        assert_eq!(snap.bytes_resident, h[0].len as u64);
        assert!(snap.bytes_resident < snap.bytes_decoded);
    }

    /// Bytes in any other layout — the retired tagged fixed-width (`0x00`)
    /// and untagged fixed-width blobs, an unknown tag, a zeroed tail — are
    /// `Corrupt`, never a shorter valid list.
    #[test]
    fn foreign_layouts_and_torn_blobs_are_corrupt() {
        let list = sample_list();
        let mut torn = list.encode();
        let n = torn.len();
        torn[n - 2..].fill(0);
        let untagged_one_entry = [1, 0, 0, 0, 3, 0, 1, 0, 0, 0, 42, 0, 0, 0];
        let mut tagged_fixed_width = vec![0x00];
        tagged_fixed_width.extend_from_slice(&untagged_one_entry);
        let cases = [
            ("tag 0x00", tagged_fixed_width),
            ("untagged fixed-width", untagged_one_entry.to_vec()),
            ("tag 0x02", vec![0x02, 0x00]),
            ("zeroed tail", torn),
            ("empty", Vec::new()),
        ];
        let (store, handles) = heap(cases.iter().map(|(_, bytes)| bytes), 4);
        for ((what, bytes), handle) in cases.iter().zip(handles) {
            assert!(TimeList::decode(bytes).is_none(), "{what} decoded");
            assert!(posting_sizes(bytes).is_none(), "{what} sized");
            let err = store.read_time_list(handle).unwrap_err();
            assert!(
                matches!(err, crate::StorageError::Corrupt { .. }),
                "{what}: got {err:?}"
            );
        }
    }

    #[test]
    fn reads_are_counted_and_cached() {
        let (store, h) = heap([[7u8; 100]], 4);
        store.io_stats().reset();
        store.read(h[0]).unwrap();
        let after_first = store.io_stats().snapshot();
        assert_eq!(after_first.cache_misses, 1);
        store.read(h[0]).unwrap();
        let after_second = store.io_stats().snapshot();
        assert_eq!(
            after_second.cache_misses, 1,
            "second read should hit the pool"
        );
        assert_eq!(after_second.cache_hits, 1);
    }

    #[test]
    fn visit_posting_matches_decode() {
        let list = sample_list();
        let bytes = list.encode();
        let mut seen: Vec<(u16, Vec<u32>)> = Vec::new();
        assert!(visit_posting(&bytes, |date, ids| {
            assert_eq!(ids.len(), list.ids_on(date).unwrap().len());
            seen.push((date, ids.collect()));
        }));
        let expected: Vec<(u16, Vec<u32>)> = list
            .entries
            .iter()
            .map(|e| (e.date, e.traj_ids.clone()))
            .collect();
        assert_eq!(seen, expected);
        // An empty list is valid and visits nothing.
        assert!(visit_posting(&TimeList::new().encode(), |_, _| panic!(
            "no entries"
        )));
    }

    #[test]
    fn read_into_reuses_buffer() {
        let (store, h) = heap([&b"first blob"[..], &[9u8; 6000][..]], 8);
        let mut buf = Vec::new();
        store.read_into(h[0], &mut buf).unwrap();
        assert_eq!(buf, b"first blob");
        store.read_into(h[1], &mut buf).unwrap();
        assert_eq!(buf, vec![9u8; 6000]);
        let cap = buf.capacity();
        store.read_into(h[0], &mut buf).unwrap();
        assert_eq!(buf, b"first blob");
        assert_eq!(buf.capacity(), cap, "re-read must not reallocate");
        store.read_into(h[1], &mut buf).unwrap();
        assert_eq!(buf.capacity(), cap, "re-read must not reallocate");
    }

    /// A run lends every in-page blob from one fetch of its page, copies a
    /// straddling blob into the buffer, and yields the bytes `read` does.
    #[test]
    fn blob_run_fetches_each_page_once() {
        let blobs = (0..300u32).map(|i| vec![i as u8; 29]).chain([Vec::new()]);
        let (store, handles) = heap(blobs, 8);
        let pages = store.num_pages();
        assert!(pages >= 3);
        let straddlers = handles.iter().filter(|h| h.pages_spanned() > 1).count();
        assert!(straddlers >= 2);
        store.io_stats().reset();
        let mut run = store.run();
        let mut buf = Vec::new();
        for &h in &handles {
            let lent = run.read(h, &mut buf).unwrap().to_vec();
            assert_eq!(lent, store.read(h).unwrap());
        }
        // `read` fetched each blob's pages on its own; the run fetched each
        // page once.
        let blob_pages: u64 = handles.iter().map(|h| h.pages_spanned()).sum();
        let snap = store.io_stats().snapshot();
        assert_eq!(snap.cache_hits + snap.cache_misses, blob_pages + pages);
        assert_eq!(snap.cache_misses, pages);
    }

    /// Blobs of seeded lengths, some empty and some longer than a page.
    fn random_blobs(seed: u64, n: usize) -> Vec<Vec<u8>> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                let len = match splitmix64(&mut state) % 8 {
                    0 => 0,
                    1 => PAGE_SIZE + (splitmix64(&mut state) % 300) as usize,
                    _ => (splitmix64(&mut state) % 90) as usize,
                };
                (0..len).map(|j| (i * 7 + j) as u8 | 1).collect()
            })
            .collect()
    }

    /// Every page of a store, in order.
    fn pages_of<S: PageStore>(store: &S) -> Vec<Vec<u8>> {
        (0..store.num_pages())
            .map(|id| store.read_page(id).unwrap().bytes().to_vec())
            .collect()
    }

    /// Pages `[0, len)` of a heap touch.
    fn pages_touched(len: u64) -> u64 {
        len.div_ceil(PAGE_SIZE as u64)
    }

    /// A writer writes each page once, its partial last page at `finish`,
    /// and reads none back; an empty heap writes nothing.
    #[test]
    fn a_batch_writes_each_page_once() {
        for blobs in [
            random_blobs(7, 300),
            random_blobs(8, 1),
            random_blobs(9, 50),
            Vec::new(),
        ] {
            let store = InMemoryPageStore::new();
            let io = store.io_stats();
            let mut writer = PostingWriter::new(store);
            for blob in &blobs {
                writer.push(blob).unwrap();
            }
            let heap = writer.finish(4, 0).unwrap();
            let snap = io.snapshot();
            assert_eq!(snap.page_writes, pages_touched(heap.size_bytes()));
            assert_eq!(snap.page_reads, 0, "no page is read back");
            assert_eq!(heap.num_pages(), pages_touched(heap.size_bytes()));
        }
    }

    /// A heap reopened sealed over the pages a writer wrote serves the
    /// writer's blobs.
    #[test]
    fn a_sealed_heap_reads_what_the_writer_wrote() {
        let blobs = random_blobs(0x5EED_7A11, 70);
        let (written, handles) = heap(&blobs, 4);
        let store = InMemoryPageStore::new();
        for bytes in pages_of(written.store()) {
            let id = store.allocate().unwrap();
            store.write_page(id, &Page::from_slice(&bytes)).unwrap();
        }
        let sealed = PostingStore::sealed(store, 4, written.size_bytes(), 0);
        assert_eq!(sealed.size_bytes(), written.size_bytes());
        for (blob, &handle) in blobs.iter().zip(&handles) {
            assert_eq!(&sealed.read(handle).unwrap(), blob);
        }
    }

    /// A write EIO anywhere in a heap fails the write with a typed error
    /// and seals nothing; a rewrite on a fresh store (what a failed
    /// compaction's retry does) yields the same handles and bytes as a
    /// write that never failed.
    #[test]
    fn a_write_fault_yields_no_heap_and_a_rewrite_writes_the_same_bytes() {
        use crate::fault::{FaultController, FaultInjectingPageStore};
        let blobs = random_blobs(0xFA17_0003, 200);
        let (clean, expected) = heap(&blobs, 4);
        let pages = clean.num_pages();
        assert!(pages >= 4);

        for fail_at in [0, 1, pages / 2, pages - 1] {
            let ctl = FaultController::detached(fail_at);
            ctl.fail_write_at(fail_at);
            let faulty =
                FaultInjectingPageStore::with_controller(Box::new(InMemoryPageStore::new()), &ctl);
            let failed = (|| {
                let mut writer = PostingWriter::new(faulty);
                for blob in &blobs {
                    writer.push(blob)?;
                }
                writer.finish(4, 0)
            })();
            let err = failed
                .err()
                .expect("the scripted write fault must fail the write");
            assert!(
                matches!(&err, crate::StorageError::Io(e) if e.to_string().contains("injected EIO on write")),
                "write #{fail_at}: {err:?}"
            );

            let (retried, handles) = heap(&blobs, 4);
            assert_eq!(handles, expected, "write #{fail_at}");
            assert_eq!(retried.size_bytes(), clean.size_bytes());
            assert_eq!(
                pages_of(retried.store()),
                pages_of(clean.store()),
                "write #{fail_at}"
            );
        }
    }

    /// A writer whose page write failed holds a page it never wrote, so
    /// sealing it would lose bytes under valid handles.
    #[test]
    #[should_panic(expected = "abandoned after a failed push")]
    fn a_writer_whose_push_failed_cannot_finish() {
        use crate::fault::{FaultController, FaultInjectingPageStore};
        let ctl = FaultController::detached(0);
        let store =
            FaultInjectingPageStore::with_controller(Box::new(InMemoryPageStore::new()), &ctl);
        ctl.fail_write_at(0);
        let mut writer = PostingWriter::new(store);
        assert!(writer.push(&[1u8; PAGE_SIZE]).is_err());
        let _ = writer.finish(4, 0);
    }

    #[test]
    fn encode_sorted_matches_time_list_encode() {
        let mut state = 0xE7C0_DE00_0000_0004u64;
        for _ in 0..300 {
            let mut obs: Vec<(u16, u32)> = Vec::new();
            for _ in 0..splitmix64(&mut state) % 40 {
                let date = (splitmix64(&mut state) % 6) as u16;
                let id = (splitmix64(&mut state) % 20) as u32;
                obs.push((date, id));
                if splitmix64(&mut state).is_multiple_of(3) {
                    obs.push((date, id)); // a repeated (date, id) pair
                }
            }
            obs.sort_unstable();
            let mut list = TimeList::new();
            for &(date, id) in &obs {
                list.add(date, id);
            }
            let mut out = vec![0xAA];
            encode_sorted(&obs, |&p| p, &mut out);
            assert_eq!(out[0], 0xAA, "appends to what is there");
            assert_eq!(out[1..], list.encode(), "observations {obs:?}");
        }
    }

    #[test]
    fn empty_blob() {
        let (store, h) = heap([b""], 4);
        assert_eq!(h[0].len, 0);
        assert_eq!(store.read(h[0]).unwrap(), Vec::<u8>::new());
        assert_eq!(store.num_pages(), 0);
    }
}
