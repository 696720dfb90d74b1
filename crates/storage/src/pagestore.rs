//! Page store backends.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::iostats::IoStats;
use crate::page::{Page, PageId, PAGE_SIZE};

/// Errors produced by page stores and the snapshot format.
#[derive(Debug)]
pub enum StorageError {
    /// The requested page does not exist.
    PageOutOfBounds {
        /// Requested page id.
        requested: PageId,
        /// Number of pages currently allocated.
        allocated: u64,
    },
    /// An underlying I/O error (file backend only).
    Io(std::io::Error),
    /// Persisted data failed validation (bad magic, checksum mismatch,
    /// truncation, malformed section).
    Corrupt {
        /// Human-readable description of what failed to validate.
        context: String,
    },
    /// A persisted file was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// A write was rejected because the log's fence epoch is stale: a
    /// replica has been promoted at a higher epoch, so this handle belongs
    /// to a **deposed leader**. The write was refused *before* any byte
    /// landed — nothing to ack, nothing to replay — which is what keeps a
    /// partitioned-but-alive old leader from silently diverging from the
    /// promoted fleet. Not transient: no retry makes a deposed leader
    /// current again.
    Fenced {
        /// Fence epoch stamped in this log's header.
        epoch: u64,
        /// Minimum epoch the fence admits (the promoted leader's).
        required: u64,
    },
    /// A physical page read failed. The buffer pool annotates every failed
    /// fetch with the page id, the backend it was reading from and the
    /// number of attempts it made (transient faults are retried with a
    /// bounded deterministic backoff), so a query-level error can name the
    /// exact page that faulted instead of a bare `EIO`.
    PageRead {
        /// Page id of the failed read.
        page: PageId,
        /// Short name of the backend the read was issued against (see
        /// [`PageStore::backend_name`]).
        backend: &'static str,
        /// Number of physical read attempts made before giving up (1 =
        /// no retry was possible or budgeted).
        attempts: u32,
        /// The underlying failure.
        source: Box<StorageError>,
    },
}

impl StorageError {
    /// Shorthand for a [`StorageError::Corrupt`] with the given context.
    pub fn corrupt(context: impl Into<String>) -> Self {
        StorageError::Corrupt {
            context: context.into(),
        }
    }

    /// Annotates `source` as a failed read of `page` against `backend`
    /// after `attempts` physical attempts. Already-annotated errors are
    /// passed through unchanged (the page that faulted first is the one
    /// worth reporting).
    pub fn page_read(
        page: PageId,
        backend: &'static str,
        attempts: u32,
        source: StorageError,
    ) -> Self {
        match source {
            already @ StorageError::PageRead { .. } => already,
            source => StorageError::PageRead {
                page,
                backend,
                attempts,
                source: Box::new(source),
            },
        }
    }

    /// Whether this failure is plausibly transient — worth retrying with a
    /// backoff. Only raw I/O errors qualify: a page that is out of bounds,
    /// corrupt, or written by an incompatible version will not get better
    /// by asking again.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io(_) => true,
            StorageError::PageRead { source, .. } => source.is_transient(),
            _ => false,
        }
    }

    /// The page id this error is attributed to, when the failing layer
    /// recorded one.
    pub fn page_id(&self) -> Option<PageId> {
        match self {
            StorageError::PageRead { page, .. } => Some(*page),
            StorageError::PageOutOfBounds { requested, .. } => Some(*requested),
            _ => None,
        }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::PageOutOfBounds {
                requested,
                allocated,
            } => {
                write!(f, "page {requested} out of bounds ({allocated} allocated)")
            }
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Corrupt { context } => write!(f, "corrupt data: {context}"),
            StorageError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "unsupported format version {found} (expected {expected})"
                )
            }
            StorageError::Fenced { epoch, required } => {
                write!(
                    f,
                    "WAL fenced: epoch {epoch} is stale (a leader at epoch \
                     {required} has been promoted); this leader is deposed"
                )
            }
            StorageError::PageRead {
                page,
                backend,
                attempts,
                source,
            } => {
                if *attempts > 1 {
                    write!(
                        f,
                        "reading page {page} from {backend} store \
                         (after {attempts} attempts): {source}"
                    )
                } else {
                    write!(f, "reading page {page} from {backend} store: {source}")
                }
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::PageRead { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// A store of fixed-size pages addressed by [`PageId`].
///
/// All implementations record physical reads and writes into the shared
/// [`IoStats`] handle returned by [`PageStore::io_stats`].
pub trait PageStore: Send + Sync {
    /// Allocates a new zeroed page and returns its id.
    fn allocate(&self) -> StorageResult<PageId>;

    /// Reads a whole page.
    fn read_page(&self, id: PageId) -> StorageResult<Page>;

    /// Overwrites a whole page.
    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()>;

    /// Number of pages currently allocated.
    fn num_pages(&self) -> u64;

    /// Forces buffered writes down to durable storage (fsync for file
    /// backends; a no-op for memory backends).
    fn flush(&self) -> StorageResult<()>;

    /// The shared I/O statistics handle.
    fn io_stats(&self) -> Arc<IoStats>;

    /// Short human-readable name of the backend, used to annotate read
    /// failures (see [`StorageError::PageRead`]). Wrappers report their own
    /// name; the page id pins the failure regardless of nesting.
    fn backend_name(&self) -> &'static str {
        "page"
    }
}

impl PageStore for Box<dyn PageStore> {
    fn allocate(&self) -> StorageResult<PageId> {
        (**self).allocate()
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        (**self).read_page(id)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        (**self).write_page(id, page)
    }

    fn num_pages(&self) -> u64 {
        (**self).num_pages()
    }

    fn flush(&self) -> StorageResult<()> {
        (**self).flush()
    }

    fn io_stats(&self) -> Arc<IoStats> {
        (**self).io_stats()
    }

    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }
}

/// A purely in-memory page store.
///
/// This is the default backend for tests and benchmarks: it is deterministic
/// and its I/O counters stand in for the disk accesses of the original
/// system.
pub struct InMemoryPageStore {
    pages: Mutex<Vec<Page>>,
    stats: Arc<IoStats>,
}

impl InMemoryPageStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self {
            pages: Mutex::new(Vec::new()),
            stats: IoStats::new_shared(),
        }
    }

    /// Creates an empty store that shares the given statistics handle.
    pub fn with_stats(stats: Arc<IoStats>) -> Self {
        Self {
            pages: Mutex::new(Vec::new()),
            stats,
        }
    }
}

impl Default for InMemoryPageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for InMemoryPageStore {
    fn allocate(&self) -> StorageResult<PageId> {
        let mut pages = self.pages.lock();
        pages.push(Page::zeroed());
        Ok((pages.len() - 1) as PageId)
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        let pages = self.pages.lock();
        let page = pages
            .get(id as usize)
            .ok_or(StorageError::PageOutOfBounds {
                requested: id,
                allocated: pages.len() as u64,
            })?;
        self.stats.record_reads(1);
        Ok(page.clone())
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let mut pages = self.pages.lock();
        let len = pages.len() as u64;
        let slot = pages
            .get_mut(id as usize)
            .ok_or(StorageError::PageOutOfBounds {
                requested: id,
                allocated: len,
            })?;
        *slot = page.clone();
        self.stats.record_writes(1);
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn flush(&self) -> StorageResult<()> {
        Ok(())
    }

    fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn backend_name(&self) -> &'static str {
        "in-memory"
    }
}

/// A file-backed page store: the real-disk backend behind engine snapshots.
///
/// Pages are stored contiguously in a single file at page-aligned offsets
/// (`page_id * PAGE_SIZE`), so every `read_page`/`write_page` is one aligned
/// positional `pread`/`pwrite`: no seek and no lock, so concurrent readers
/// of a sealed heap never queue on each other. [`PageStore::flush`] calls
/// `fsync`, and physical reads/writes are counted through the same
/// [`IoStats`] handle the in-memory backend uses — query I/O accounting is
/// backend-independent.
pub struct FilePageStore {
    file: File,
    /// Pages readable so far; `allocate` publishes a page only after the
    /// file has grown to hold it.
    num_pages: AtomicU64,
    /// Serialises `allocate`, so two callers never take the same page.
    grow: Mutex<()>,
    stats: Arc<IoStats>,
}

impl FilePageStore {
    /// Creates (or truncates) a page file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self::over(file, 0))
    }

    /// Opens an existing page file at `path` **read-only** — the mode
    /// snapshot cold opens use, so a snapshot deployed as a read-only
    /// artifact (chmod 444, read-only volume mount) still serves queries.
    /// Rejects files whose length is not page-aligned (a truncated or
    /// foreign file). `write_page` and `allocate` on a read-only store fail
    /// with [`StorageError::Io`].
    pub fn open_read_only<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::corrupt(format!(
                "page file {} has length {len}, not a multiple of the page size",
                path.display()
            )));
        }
        Ok(Self::over(file, len / PAGE_SIZE as u64))
    }

    /// A store over `file`, which holds `num_pages` pages.
    fn over(file: File, num_pages: u64) -> Self {
        Self {
            file,
            num_pages: AtomicU64::new(num_pages),
            grow: Mutex::new(()),
            stats: IoStats::new_shared(),
        }
    }

    /// The file offset of page `id`, which must be allocated.
    fn offset_of(&self, id: PageId) -> StorageResult<u64> {
        let allocated = self.num_pages();
        if id >= allocated {
            return Err(StorageError::PageOutOfBounds {
                requested: id,
                allocated,
            });
        }
        Ok(id * PAGE_SIZE as u64)
    }
}

impl PageStore for FilePageStore {
    fn allocate(&self) -> StorageResult<PageId> {
        let _grow = self.grow.lock();
        let id = self.num_pages();
        // Growing the file reads back zeroes without writing them, so a
        // page that `write_page` fills next is written once, not twice.
        self.file.set_len((id + 1) * PAGE_SIZE as u64)?;
        self.num_pages.store(id + 1, Ordering::Release);
        Ok(id)
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        let offset = self.offset_of(id)?;
        let mut page = Page::zeroed();
        self.file.read_exact_at(page.bytes_mut(), offset)?;
        self.stats.record_reads(1);
        Ok(page)
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let offset = self.offset_of(id)?;
        self.file.write_all_at(page.bytes(), offset)?;
        self.stats.record_writes(1);
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.num_pages.load(Ordering::Acquire)
    }

    fn flush(&self) -> StorageResult<()> {
        self.file.sync_all()?;
        Ok(())
    }

    fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn backend_name(&self) -> &'static str {
        "file"
    }
}

/// Checks every page read from the wrapped store against the CRC-32 that
/// was recorded for it when the page file was written (a snapshot's
/// `pages_meta`). A snapshot open checks that its page file holds exactly
/// the recorded pages, so a page past the recorded list has no checksum to
/// meet and is refused too.
///
/// Under a [`crate::BufferPool`] the check runs on the miss path only, once
/// per physical read. A mismatch or a missing checksum is
/// [`StorageError::Corrupt`] naming the page; the pool does not retry it.
pub struct ChecksummedPageStore<S: PageStore> {
    inner: S,
    crcs: Arc<[u32]>,
}

impl<S: PageStore> ChecksummedPageStore<S> {
    /// Wraps `inner`, page `i` checked against `crcs[i]`.
    pub fn new(inner: S, crcs: Arc<[u32]>) -> Self {
        Self { inner, crcs }
    }
}

impl<S: PageStore> PageStore for ChecksummedPageStore<S> {
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        let page = self.inner.read_page(id)?;
        match self.crcs.get(id as usize) {
            Some(&crc) if crate::snapshot::crc32(page.bytes()) == crc => Ok(page),
            Some(_) => Err(StorageError::corrupt(format!(
                "page {id} fails its checksum (torn write or bit rot)"
            ))),
            None => Err(StorageError::corrupt(format!(
                "page {id} has no recorded checksum"
            ))),
        }
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        self.inner.write_page(id, page)
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn flush(&self) -> StorageResult<()> {
        self.inner.flush()
    }

    fn io_stats(&self) -> Arc<IoStats> {
        self.inner.io_stats()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(store: &dyn PageStore) {
        let id = store.allocate().unwrap();
        let fresh = store.read_page(id).unwrap();
        assert!(fresh.bytes().iter().all(|&b| b == 0));
        let mut page = Page::zeroed();
        page.bytes_mut()[0] = 0xAB;
        page.bytes_mut()[PAGE_SIZE - 1] = 0xCD;
        store.write_page(id, &page).unwrap();
        let back = store.read_page(id).unwrap();
        assert_eq!(back.bytes()[0], 0xAB);
        assert_eq!(back.bytes()[PAGE_SIZE - 1], 0xCD);
    }

    #[test]
    fn in_memory_roundtrip_and_stats() {
        let store = InMemoryPageStore::new();
        roundtrip(&store);
        let snap = store.io_stats().snapshot();
        assert_eq!(snap.page_reads, 2);
        assert_eq!(snap.page_writes, 1);
        assert_eq!(store.num_pages(), 1);
    }

    #[test]
    fn in_memory_out_of_bounds() {
        let store = InMemoryPageStore::new();
        assert!(matches!(
            store.read_page(3),
            Err(StorageError::PageOutOfBounds {
                requested: 3,
                allocated: 0
            })
        ));
        assert!(store.write_page(0, &Page::zeroed()).is_err());
    }

    #[test]
    fn allocation_ids_are_sequential() {
        let store = InMemoryPageStore::new();
        for expected in 0..10u64 {
            assert_eq!(store.allocate().unwrap(), expected);
        }
        assert_eq!(store.num_pages(), 10);
    }

    /// A fresh scratch directory for `tag`, unique to this process.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("streach-pagestore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes `pages` pages to a fresh file at `path`, page `i` filled with
    /// `i + 1` and tagged `0xA0 + i` in its first byte.
    fn write_pages(path: &Path, pages: u8) -> Vec<Page> {
        let store = FilePageStore::create(path).unwrap();
        let written: Vec<Page> = (0..pages)
            .map(|i| {
                let mut page = Page::zeroed();
                page.bytes_mut().fill(i + 1);
                page.bytes_mut()[0] = 0xA0 + i;
                let id = store.allocate().unwrap();
                store.write_page(id, &page).unwrap();
                page
            })
            .collect();
        store.flush().unwrap();
        written
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("pages.bin");
        {
            let store = FilePageStore::create(&path).unwrap();
            roundtrip(&store);
            assert_eq!(store.num_pages(), 1);
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), PAGE_SIZE as u64);
        // Re-open and check persistence.
        let store = FilePageStore::open_read_only(&path).unwrap();
        assert_eq!(store.num_pages(), 1);
        let page = store.read_page(0).unwrap();
        assert_eq!(page.bytes()[0], 0xAB);
        assert_eq!(store.io_stats().snapshot().page_reads, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_only_file_store_refuses_writes_and_reads_past_its_end() {
        let dir = temp_dir("readonly");
        let path = dir.join("pages.bin");
        write_pages(&path, 1);
        let store = FilePageStore::open_read_only(&path).unwrap();
        assert_eq!(store.backend_name(), "file");
        assert!(matches!(
            store.read_page(1),
            Err(StorageError::PageOutOfBounds {
                requested: 1,
                allocated: 1
            })
        ));
        assert!(matches!(store.allocate(), Err(StorageError::Io(_))));
        assert!(matches!(
            store.write_page(0, &Page::zeroed()),
            Err(StorageError::Io(_))
        ));
        assert_eq!(store.num_pages(), 1, "a refused allocate adds no page");
        assert!(store.flush().is_ok());

        // An empty page file is a valid, empty heap.
        let empty = dir.join("empty.bin");
        std::fs::write(&empty, []).unwrap();
        let store = FilePageStore::open_read_only(&empty).unwrap();
        assert_eq!(store.num_pages(), 0);
        assert!(matches!(
            store.read_page(0),
            Err(StorageError::PageOutOfBounds {
                requested: 0,
                allocated: 0
            })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_readers_on_four_threads_see_the_same_bytes() {
        let dir = temp_dir("threads");
        let path = dir.join("pages.bin");
        let written = write_pages(&path, 5);
        let store = FilePageStore::open_read_only(&path).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        for (id, want) in written.iter().enumerate() {
                            let page = store.read_page(id as PageId).unwrap();
                            assert_eq!(page.bytes(), want.bytes(), "page {id}");
                        }
                    }
                });
            }
        });
        assert_eq!(store.io_stats().snapshot().page_reads, 4 * 50 * 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display() {
        let e = StorageError::PageOutOfBounds {
            requested: 9,
            allocated: 2,
        };
        assert!(e.to_string().contains("page 9"));
        assert!(StorageError::corrupt("bad crc")
            .to_string()
            .contains("bad crc"));
        let v = StorageError::UnsupportedVersion {
            found: 9,
            expected: 1,
        };
        assert!(v.to_string().contains("version 9"));
    }

    #[test]
    fn file_store_flush_persists_and_rejects_misaligned_files() {
        let dir = temp_dir("flush");
        let path = dir.join("pages.bin");
        {
            let store = FilePageStore::create(&path).unwrap();
            let id = store.allocate().unwrap();
            store.write_page(id, &Page::from_slice(b"durable")).unwrap();
            store.flush().unwrap();
        }
        let store = FilePageStore::open_read_only(&path).unwrap();
        assert_eq!(&store.read_page(0).unwrap().bytes()[..7], b"durable");
        // Append garbage so the length is no longer page-aligned.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF; 17]).unwrap();
        }
        assert!(matches!(
            FilePageStore::open_read_only(&path),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksummed_store_rejects_a_page_that_fails_its_crc() {
        let inner = InMemoryPageStore::new();
        for fill in [1u8, 2, 3] {
            let id = inner.allocate().unwrap();
            inner.write_page(id, &Page::from_slice(&[fill; 8])).unwrap();
        }
        let crc = |fill: u8| crate::snapshot::crc32(Page::from_slice(&[fill; 8]).bytes());
        // Page 2 has no recorded CRC: it is refused, not read unchecked.
        let store = ChecksummedPageStore::new(inner, vec![crc(1), crc(9)].into());
        assert!(store.read_page(0).is_ok());
        for (id, expected) in [
            (1, "page 1 fails its checksum"),
            (2, "page 2 has no recorded checksum"),
        ] {
            match store.read_page(id) {
                Err(StorageError::Corrupt { context }) => {
                    assert!(context.contains(expected), "{context}")
                }
                other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
            }
        }
        assert!(!StorageError::corrupt("x").is_transient());
    }

    #[test]
    fn boxed_store_forwards_everything() {
        let boxed: Box<dyn PageStore> = Box::new(InMemoryPageStore::new());
        roundtrip(&boxed);
        assert_eq!(boxed.num_pages(), 1);
        assert!(boxed.flush().is_ok());
        assert_eq!(boxed.io_stats().snapshot().page_reads, 2);
    }
}
