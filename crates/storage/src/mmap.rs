//! Read-only memory-mapped page store.
//!
//! [`MmapPageStore`] maps a sealed page file (a snapshot's
//! `postings.pages`) into the address space once at open time and then
//! serves every [`read_page`](crate::PageStore::read_page) as a
//! bounds-checked copy out of the mapping — no `read` syscall, no seek, no
//! file-lock contention on the hot path. This is the cold-path complement to
//! the compressed posting encoding: fewer bytes on disk *and* fewer kernel
//! crossings per page touched.
//!
//! The backend is strictly read-only, matching how snapshot base heaps are
//! served (`FilePageStore::open_read_only`): `allocate` and `write_page`
//! fail with [`StorageError::Io`]. Fault-injection wrappers
//! ([`crate::FaultInjectingPageStore`]) sit *above* the mapping and compose
//! unchanged — a torn/zeroed/EIO script sees the same `PageStore` surface
//! as any other backend.
//!
//! The environment is offline, so the mapping is established with direct
//! `mmap`/`munmap` FFI in the workspace's shims style rather than a crates.io
//! wrapper; non-Unix targets fall back to reading the file into memory,
//! preserving semantics (and determinism) everywhere.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use crate::iostats::IoStats;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pagestore::{PageStore, StorageError, StorageResult};

/// Physical backend used to serve a snapshot's sealed (read-only) page
/// files.
///
/// Selected per engine via the index config and recorded in the snapshot
/// container, with an environment/CLI override in the test and bench
/// harnesses. Both backends return bit-identical pages; they differ only in
/// how the bytes travel (read syscalls + file offset locking vs a single
/// shared mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// Serve sealed page files through [`crate::FilePageStore`] read
    /// syscalls. The default.
    #[default]
    File,
    /// Serve sealed page files through a read-only [`MmapPageStore`]
    /// mapping.
    Mmap,
}

impl StorageBackend {
    /// Stable single-byte identifier used in snapshot configs.
    pub fn config_byte(self) -> u8 {
        match self {
            Self::File => 0,
            Self::Mmap => 1,
        }
    }

    /// Inverse of [`config_byte`](Self::config_byte).
    pub fn from_config_byte(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(Self::File),
            1 => Some(Self::Mmap),
            _ => None,
        }
    }

    /// Human-readable name (bench labels, env-var selection).
    pub fn name(self) -> &'static str {
        match self {
            Self::File => "file",
            Self::Mmap => "mmap",
        }
    }
}

impl std::str::FromStr for StorageBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "file" => Ok(Self::File),
            "mmap" => Ok(Self::Mmap),
            other => Err(format!(
                "unknown storage backend {other:?} (expected file or mmap)"
            )),
        }
    }
}

#[cfg(unix)]
mod ffi {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    /// `(void *)-1`, the POSIX mmap failure sentinel.
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }
}

/// How the file bytes are held in memory.
enum Backing {
    /// A live `mmap` region. Owned exclusively by this store; unmapped on
    /// drop. The underlying file descriptor is closed right after mapping —
    /// POSIX keeps the mapping valid independently of the fd.
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
    /// Plain in-memory copy: zero-length files (mapping zero bytes is
    /// `EINVAL`) and non-Unix targets.
    Buffered(Vec<u8>),
}

impl Backing {
    fn as_bytes(&self) -> &[u8] {
        match self {
            // SAFETY: `ptr` points to a live PROT_READ mapping of exactly
            // `len` bytes, established in `open_impl` and unmapped only in
            // `drop`. The region is private and never written through, so
            // a shared `&[u8]` view is sound for the store's lifetime.
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Buffered(buf) => buf,
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = *self {
            // SAFETY: this is the unique owner of the mapping created in
            // `open_impl`; failure is ignored (nothing actionable at drop).
            unsafe {
                ffi::munmap(ptr as *mut std::os::raw::c_void, len);
            }
        }
    }
}

// SAFETY: the mapping is immutable (PROT_READ, private, read-only file
// handle closed after mapping) and owned exclusively by the store, so
// concurrent shared access from multiple threads is sound.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

/// A read-only page store serving a sealed page file out of a single
/// memory mapping.
///
/// See the [module docs](self) for the role this backend plays; see
/// [`StorageBackend`] for how it is selected.
pub struct MmapPageStore {
    backing: Backing,
    num_pages: u64,
    stats: Arc<IoStats>,
}

impl MmapPageStore {
    /// Maps an existing page file at `path` read-only. Rejects files whose
    /// length is not page-aligned (a truncated or foreign file), exactly
    /// like [`crate::FilePageStore::open`].
    pub fn open<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        Self::open_with_stats(path, IoStats::new_shared())
    }

    /// Maps an existing page file sharing the given statistics handle.
    pub fn open_with_stats<P: AsRef<Path>>(path: P, stats: Arc<IoStats>) -> StorageResult<Self> {
        Self::open_impl(path.as_ref(), stats)
    }

    fn open_impl(path: &Path, stats: Arc<IoStats>) -> StorageResult<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::corrupt(format!(
                "page file {} has length {len}, not a multiple of the page size",
                path.display()
            )));
        }
        let backing = Self::map_file(&file, len as usize)?;
        Ok(Self {
            backing,
            num_pages: len / PAGE_SIZE as u64,
            stats,
        })
    }

    #[cfg(unix)]
    fn map_file(file: &File, len: usize) -> StorageResult<Backing> {
        use std::os::unix::io::AsRawFd;

        if len == 0 {
            return Ok(Backing::Buffered(Vec::new()));
        }
        // SAFETY: mapping `len` bytes of a freshly-opened read-only file at
        // a kernel-chosen address; the result is checked against MAP_FAILED
        // before use.
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == ffi::MAP_FAILED {
            return Err(StorageError::Io(std::io::Error::last_os_error()));
        }
        Ok(Backing::Mapped {
            ptr: ptr as *const u8,
            len,
        })
    }

    #[cfg(not(unix))]
    fn map_file(file: &File, len: usize) -> StorageResult<Backing> {
        use std::io::Read;

        let mut buf = Vec::with_capacity(len);
        let mut file = file;
        file.read_to_end(&mut buf)?;
        if buf.len() != len {
            return Err(StorageError::corrupt(format!(
                "page file changed size during open ({} != {len})",
                buf.len()
            )));
        }
        Ok(Backing::Buffered(buf))
    }

    /// Whether the store is backed by a live memory mapping (as opposed to
    /// the zero-length / non-Unix in-memory fallback).
    pub fn is_mapped(&self) -> bool {
        #[cfg(unix)]
        {
            matches!(self.backing, Backing::Mapped { .. })
        }
        #[cfg(not(unix))]
        {
            false
        }
    }

    fn read_only_error(&self, op: &str) -> StorageError {
        StorageError::Io(std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            format!("cannot {op}: mmap page store is read-only"),
        ))
    }
}

impl PageStore for MmapPageStore {
    fn allocate(&self) -> StorageResult<PageId> {
        Err(self.read_only_error("allocate"))
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        if id >= self.num_pages {
            return Err(StorageError::PageOutOfBounds {
                requested: id,
                allocated: self.num_pages,
            });
        }
        let start = id as usize * PAGE_SIZE;
        let mut page = Page::zeroed();
        page.bytes_mut()
            .copy_from_slice(&self.backing.as_bytes()[start..start + PAGE_SIZE]);
        self.stats.record_reads(1);
        Ok(page)
    }

    fn write_page(&self, _id: PageId, _page: &Page) -> StorageResult<()> {
        Err(self.read_only_error("write"))
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn flush(&self) -> StorageResult<()> {
        Ok(())
    }

    fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn backend_name(&self) -> &'static str {
        "mmap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::FilePageStore;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("streach-mmap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mmap_reads_match_file_reads() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("pages.bin");
        {
            let store = FilePageStore::create(&path).unwrap();
            for i in 0..5u8 {
                let id = store.allocate().unwrap();
                let mut page = Page::zeroed();
                page.bytes_mut().fill(i + 1);
                page.bytes_mut()[0] = 0xA0 + i;
                store.write_page(id, &page).unwrap();
            }
            store.flush().unwrap();
        }
        let file = FilePageStore::open_read_only(&path).unwrap();
        let mapped = MmapPageStore::open(&path).unwrap();
        assert!(mapped.is_mapped());
        assert_eq!(mapped.num_pages(), 5);
        assert_eq!(mapped.backend_name(), "mmap");
        for id in 0..5 {
            assert_eq!(
                mapped.read_page(id).unwrap().bytes(),
                file.read_page(id).unwrap().bytes(),
                "page {id} differs between backends"
            );
        }
        assert_eq!(mapped.io_stats().snapshot().page_reads, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_rejects_out_of_bounds_and_writes() {
        let dir = temp_dir("readonly");
        let path = dir.join("pages.bin");
        {
            let store = FilePageStore::create(&path).unwrap();
            store.allocate().unwrap();
            store.flush().unwrap();
        }
        let mapped = MmapPageStore::open(&path).unwrap();
        assert!(matches!(
            mapped.read_page(1),
            Err(StorageError::PageOutOfBounds {
                requested: 1,
                allocated: 1
            })
        ));
        assert!(matches!(mapped.allocate(), Err(StorageError::Io(_))));
        assert!(matches!(
            mapped.write_page(0, &Page::zeroed()),
            Err(StorageError::Io(_))
        ));
        assert!(mapped.flush().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_rejects_misaligned_files_and_handles_empty_ones() {
        let dir = temp_dir("align");
        let misaligned = dir.join("bad.bin");
        std::fs::write(&misaligned, [0xFFu8; 17]).unwrap();
        assert!(matches!(
            MmapPageStore::open(&misaligned),
            Err(StorageError::Corrupt { .. })
        ));
        let empty = dir.join("empty.bin");
        std::fs::write(&empty, []).unwrap();
        let store = MmapPageStore::open(&empty).unwrap();
        assert_eq!(store.num_pages(), 0);
        assert!(!store.is_mapped());
        assert!(store.read_page(0).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_store_is_shareable_across_threads() {
        let dir = temp_dir("threads");
        let path = dir.join("pages.bin");
        {
            let store = FilePageStore::create(&path).unwrap();
            let id = store.allocate().unwrap();
            store.write_page(id, &Page::from_slice(b"shared")).unwrap();
            store.flush().unwrap();
        }
        let store = std::sync::Arc::new(MmapPageStore::open(&path).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let page = store.read_page(0).unwrap();
                        assert_eq!(&page.bytes()[..6], b"shared");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backend_config_byte_roundtrip() {
        for backend in [StorageBackend::File, StorageBackend::Mmap] {
            assert_eq!(
                StorageBackend::from_config_byte(backend.config_byte()),
                Some(backend)
            );
            assert_eq!(backend.name().parse::<StorageBackend>(), Ok(backend));
        }
        assert_eq!(StorageBackend::from_config_byte(7), None);
        assert!("tape".parse::<StorageBackend>().is_err());
    }
}
