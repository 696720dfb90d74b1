//! Page-based storage substrate for the `streach` workspace.
//!
//! The paper's central engineering challenge is that "the trajectory data
//! usually cannot fit in the memory, and analyzing them involves heavy I/O to
//! disks". The original system keeps the ST-Index time lists (per road
//! segment, per time slot: date → trajectory IDs) on disk, and the whole point
//! of the Con-Index + SQMB/TBS machinery is to touch as few of those disk
//! pages as possible.
//!
//! This crate reproduces that cost model with an explicit storage engine:
//!
//! * [`page`] — fixed-size pages and page identifiers,
//! * [`pagestore`] — the [`PageStore`](pagestore::PageStore) trait with an
//!   in-memory backend, a file backend (positional reads and writes, the
//!   one store every sealed snapshot heap is served from) and a per-page
//!   CRC check,
//! * [`buffer_pool`] — a read-only LRU buffer pool in front of any page
//!   store,
//! * [`fault`] — a deterministic, scriptable fault-injection wrapper
//!   ([`FaultInjectingPageStore`](fault::FaultInjectingPageStore)) used to
//!   drive the query pipelines through EIO, torn pages and zeroed pages,
//! * [`iostats`] — shared atomic I/O counters, so query processing code can
//!   report page reads/hits exactly like the paper reports running time,
//! * [`postings`] — a write-once blob heap storing the serialized time
//!   lists (trajectory-ID posting lists) across pages: a writer seals it
//!   into a read-only store,
//! * [`snapshot`] — the versioned, checksummed snapshot container format
//!   used by engine snapshots (named eager and lazy sections, CRC-32 per
//!   table, payload and chunk),
//! * [`wal`] — the CRC-framed, generation-stamped write-ahead log behind
//!   streaming ingest (deterministic torn-tail recovery, scriptable append
//!   faults).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer_pool;
pub mod fault;
pub mod iostats;
pub mod page;
pub mod pagestore;
pub mod postings;
pub mod snapshot;
pub mod wal;

pub use buffer_pool::{BufferPool, DEFAULT_READ_RETRIES};
pub use fault::{AppendFault, FaultController, FaultInjectingPageStore, ReadFault};
pub use iostats::{IoStats, IoStatsSnapshot};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pagestore::{
    ChecksummedPageStore, FilePageStore, InMemoryPageStore, PageStore, StorageError, StorageResult,
};
pub use postings::{
    encode_sorted, fixed_width_size, get_varint_u32, posting_sizes, put_varint_u32, visit_posting,
    BlobHandle, BlobRun, IdIter, PostingStore, PostingWriter, TimeList, TimeListEntry,
};
pub use snapshot::{
    crc32, Crc32, LazySection, SnapshotReader, SnapshotWriter, MIN_SNAPSHOT_VERSION,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use wal::{FollowerLog, ShippedBatch, Wal, WalRecovery, WalTail, WAL_MAGIC, WAL_VERSION};
