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
//!   in-memory backend, a file backend, and a simulated-latency wrapper that
//!   emulates the cost of a spinning disk / remote store,
//! * [`buffer_pool`] — an LRU buffer pool in front of any page store,
//! * [`fault`] — a deterministic, scriptable fault-injection wrapper
//!   ([`FaultInjectingPageStore`](fault::FaultInjectingPageStore)) used to
//!   drive the query pipelines through EIO, torn pages and zeroed pages,
//! * [`mmap`] — a read-only memory-mapped backend for sealed snapshot page
//!   files, serving `read_page` straight out of the mapping,
//! * [`iostats`] — shared atomic I/O counters, so query processing code can
//!   report page reads/hits exactly like the paper reports running time,
//! * [`btree`] — a from-scratch B+-tree used for the ST-Index *temporal
//!   index* over Δt time slots,
//! * [`postings`] — an append-only blob heap storing the serialized time
//!   lists (trajectory-ID posting lists) across pages,
//! * [`snapshot`] — the versioned, checksummed snapshot container format
//!   used by engine snapshots (named sections + CRC-32 seals),
//! * [`wal`] — the CRC-framed, generation-stamped write-ahead log behind
//!   streaming ingest (deterministic torn-tail recovery, scriptable append
//!   faults).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod btree;
pub mod buffer_pool;
pub mod fault;
pub mod iostats;
pub mod mmap;
pub mod page;
pub mod pagestore;
pub mod postings;
pub mod snapshot;
pub mod wal;

pub use btree::BPlusTree;
pub use buffer_pool::{BufferPool, DEFAULT_READ_RETRIES};
pub use fault::{AppendFault, FaultController, FaultInjectingPageStore, ReadFault};
pub use iostats::{IoStats, IoStatsSnapshot};
pub use mmap::{MmapPageStore, StorageBackend};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pagestore::{
    FilePageStore, InMemoryPageStore, PageStore, SimulatedDiskStore, StorageError, StorageResult,
};
pub use postings::{
    get_varint_u32, posting_sizes, put_varint_u32, visit_posting, BlobHandle, IdIter, PostingStore,
    TimeList, TimeListEntry,
};
pub use snapshot::{
    Crc32, SnapshotReader, SnapshotWriter, MIN_SNAPSHOT_VERSION, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use wal::{FollowerLog, ShippedBatch, Wal, WalRecovery, WalTail, WAL_MAGIC, WAL_VERSION};
