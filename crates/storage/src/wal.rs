//! The streaming-ingest write-ahead log.
//!
//! A serving engine that accepts new trajectory points after open needs a
//! durability story that survives a crash mid-append: the in-memory delta
//! postings are rebuilt by *replaying* this log, so the log — not the delta
//! heap — is the source of truth for everything ingested since the last
//! snapshot.
//!
//! # Format
//!
//! ```text
//! [magic "STRWAL\0\0" : 8 bytes]
//! [format version     : u32 LE]
//! [generation         : u64 LE]
//! [fence epoch        : u64 LE]
//! per record:
//!     [payload length : u32 LE]
//!     [CRC-32         : u32 LE]   -- over the length bytes + payload
//!     [payload bytes]
//! ```
//!
//! Records are opaque byte blobs framed with a length and a CRC-32 seal.
//! (The ingest layer packs its trajectory-point batches into these blobs
//! with the same canonical LEB128 varints as the compressed posting
//! encoding — see [`crate::put_varint_u32`] — so frame payloads shrink with
//! the rest of the cold path; the framing itself is format-agnostic.)
//! There is no terminator: the log is append-only and a crash can leave a
//! torn frame at the tail. [`Wal::open`] recovers **deterministically**: it
//! scans frames from the start, stops at the first frame that is short or
//! fails its checksum, truncates the file back to the end of the last valid
//! frame and reports how many bytes were dropped. Re-opening an already
//! recovered log is a no-op, so recovery is idempotent.
//!
//! The **generation** counter ties a log to the snapshot it extends: an
//! engine snapshot records `(generation, records_applied)`, and replay on
//! attach skips the records the snapshot has already folded in. Rotating the
//! log ([`Wal::rotate`]) bumps the generation and starts an empty file, which
//! is what a successful incremental snapshot save does — records folded into
//! the snapshot never need replaying again. [`Wal::rotate_if_applied`] is
//! the race-free variant a concurrent engine uses: the "is every record
//! folded in?" check and the rotation happen under one lock, so an append
//! that slips in between can never be silently discarded.
//!
//! # Fencing
//!
//! The **fence epoch** guards failover: every log carries the epoch it was
//! written under, and promoting a replica bumps the epoch and persists it
//! with the promoted log ([`FollowerLog::set_epoch`]). Fencing the deposed
//! leader's handle ([`Wal::fence`]) raises its admitted minimum: any later
//! [`Wal::append`] or [`Wal::sync`] on the stale-epoch handle fails with a
//! typed [`StorageError::Fenced`] *before* a byte lands or an ack is
//! possible — a partitioned-but-alive old leader rejects writes loudly
//! instead of silently diverging from the promoted fleet. Rotation
//! preserves the epoch; only promotion moves it.
//!
//! # Group commit
//!
//! [`Wal::sync`] implements **group commit**: one caller becomes the fsync
//! leader while later callers wait; a single physical `fsync` covers every
//! frame appended before it started, so N concurrent writers pay ~1 fsync
//! instead of N. Appends keep landing *while* the leader's fsync is in
//! flight (the file handle is cloned out of the lock), which is where the
//! batching comes from. A failed fsync fails the **whole group** — the
//! leader and every waiter whose frames the attempt covered — so callers
//! can freeze their applied prefix for every record in the group; frames
//! appended after the attempt's snapshot contend for a fresh fsync instead
//! of inheriting an error that never touched their bytes.
//!
//! # Fault injection
//!
//! A log opened with [`Wal::open_with_controller`] consults the shared
//! [`FaultController`] script before every append, so the ingest
//! crash-recovery campaign can "kill" the process at any record ordinal:
//! [`AppendFault::TornAppend`] persists half a frame and poisons the handle
//! (the process is dead; only re-opening recovers), exactly what a power cut
//! mid-`write` leaves behind.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::fault::{AppendFault, FaultController};
use crate::pagestore::{StorageError, StorageResult};
use crate::snapshot::Crc32;

/// Magic bytes opening every write-ahead log.
pub const WAL_MAGIC: [u8; 8] = *b"STRWAL\0\0";

/// WAL format version written by this build — the only one it reads.
pub const WAL_VERSION: u32 = 2;

/// Header length in bytes: magic + version + generation + fence epoch.
const HEADER_LEN: u64 = 8 + 4 + 8 + 8;

/// Frame header length in bytes: payload length + CRC-32.
const FRAME_HEADER_LEN: usize = 8;

/// Parsed log header: `(generation, epoch)`. Returns `Ok(None)` when
/// `bytes` is shorter than the header (still being written); typed errors
/// on bad magic or any version other than [`WAL_VERSION`].
fn parse_header(bytes: &[u8], path: &Path) -> StorageResult<Option<(u64, u64)>> {
    if bytes.len() < 12 {
        return Ok(None);
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(StorageError::corrupt(format!(
            "WAL {} has bad magic",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(StorageError::UnsupportedVersion {
            found: version,
            expected: WAL_VERSION,
        });
    }
    if bytes.len() < HEADER_LEN as usize {
        return Ok(None);
    }
    let generation = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let epoch = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    Ok(Some((generation, epoch)))
}

/// What [`Wal::open`] found (and fixed) in an existing log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecovery {
    /// Generation of the opened log.
    pub generation: u64,
    /// Fence epoch of the opened log.
    pub epoch: u64,
    /// Number of intact records recovered.
    pub records: u64,
    /// Bytes of torn tail discarded (0 for a cleanly closed log).
    pub truncated_bytes: u64,
}

struct WalState {
    file: File,
    generation: u64,
    /// Number of valid records (the ordinal of the next append).
    records: u64,
    /// Byte offset of the end of the last valid record.
    tail: u64,
    /// Set when an append died mid-frame (injected torn append, or a real
    /// I/O error that could not be rewound): the handle refuses further
    /// appends and only a fresh [`Wal::open`] — which truncates the torn
    /// tail — recovers.
    poisoned: bool,
}

/// Group-commit bookkeeping: how far the file is provably durable, and
/// whether an fsync is currently in flight. Guarded by a `std` mutex so
/// waiters can block on the condition variable.
struct SyncState {
    /// Generation the durability watermark belongs to (rotation resets it).
    generation: u64,
    /// Byte offset up to which the current generation is fsynced.
    synced_tail: u64,
    /// An fsync leader is currently running; later callers wait and are
    /// covered by (or fail with) its outcome.
    in_flight: bool,
    /// Count of failed fsync attempts — waiters compare it against the
    /// value at wait entry to learn an fsync failed while they waited.
    failures: u64,
    /// (generation, tail) the most recent failed attempt would have
    /// covered: only waiters whose frames fall inside it are in the failed
    /// group; later appenders contend for a fresh fsync instead of
    /// inheriting an error that never touched their bytes.
    failed_generation: u64,
    failed_tail: u64,
    /// Message of the most recent fsync failure, surfaced to waiters.
    last_error: String,
}

/// An append-only, CRC-framed write-ahead log.
pub struct Wal {
    path: PathBuf,
    controller: Option<FaultController>,
    /// Fence epoch stamped in this log's header — fixed for the handle's
    /// lifetime (rotation preserves it; only a promotion, which writes a
    /// new log, moves it).
    epoch: u64,
    /// Minimum epoch the fence admits. Raised by [`Wal::fence`] when a
    /// replica is promoted past this handle; once `epoch < fence`, every
    /// append and sync fails typed before acking anything.
    fence: AtomicU64,
    state: Mutex<WalState>,
    sync_state: std::sync::Mutex<SyncState>,
    sync_cv: std::sync::Condvar,
}

fn lock_sync(wal: &Wal) -> std::sync::MutexGuard<'_, SyncState> {
    wal.sync_state.lock().unwrap_or_else(|e| e.into_inner())
}

fn frame_crc(payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&(payload.len() as u32).to_le_bytes());
    crc.update(payload);
    crc.finalize()
}

/// Writes (and fsyncs) the log header — the single definition of its
/// layout, shared by creation, rotation and epoch persistence.
fn write_header(file: &mut File, generation: u64, epoch: u64) -> StorageResult<()> {
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(&WAL_MAGIC);
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    header.extend_from_slice(&generation.to_le_bytes());
    header.extend_from_slice(&epoch.to_le_bytes());
    file.write_all(&header)?;
    file.sync_all()?;
    Ok(())
}

impl Wal {
    /// Opens (or creates) the log at `path`, recovering a torn tail, and
    /// returns the handle together with every intact record payload.
    pub fn open<P: AsRef<Path>>(path: P) -> StorageResult<(Self, Vec<Vec<u8>>, WalRecovery)> {
        Self::open_impl(path.as_ref(), None)
    }

    /// Like [`Wal::open`], but every append first consults the fault
    /// script shared through `controller` (see [`FaultController`]).
    pub fn open_with_controller<P: AsRef<Path>>(
        path: P,
        controller: FaultController,
    ) -> StorageResult<(Self, Vec<Vec<u8>>, WalRecovery)> {
        Self::open_impl(path.as_ref(), Some(controller))
    }

    fn open_impl(
        path: &Path,
        controller: Option<FaultController>,
    ) -> StorageResult<(Self, Vec<Vec<u8>>, WalRecovery)> {
        if !path.exists() {
            let wal = Self::create_at(path, 1, 0, controller)?;
            let recovery = WalRecovery {
                generation: 1,
                epoch: 0,
                records: 0,
                truncated_bytes: 0,
            };
            return Ok((wal, Vec::new(), recovery));
        }

        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (generation, epoch) = parse_header(&bytes, path)?.ok_or_else(|| {
            StorageError::corrupt(format!("WAL {} shorter than its header", path.display()))
        })?;

        // Scan frames; the first short or checksum-failing frame marks the
        // torn tail. Everything before it is the consistent prefix.
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut offset = HEADER_LEN as usize;
        loop {
            let remaining = bytes.len() - offset;
            if remaining < FRAME_HEADER_LEN {
                break;
            }
            let len =
                u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 b"));
            if remaining - FRAME_HEADER_LEN < len {
                break; // torn payload
            }
            let payload = &bytes[offset + FRAME_HEADER_LEN..offset + FRAME_HEADER_LEN + len];
            if frame_crc(payload) != crc {
                break; // torn or corrupted frame
            }
            records.push(payload.to_vec());
            offset += FRAME_HEADER_LEN + len;
        }

        let tail = offset as u64;
        let truncated_bytes = bytes.len() as u64 - tail;
        if truncated_bytes > 0 {
            file.set_len(tail)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(tail))?;

        let recovery = WalRecovery {
            generation,
            epoch,
            records: records.len() as u64,
            truncated_bytes,
        };
        let wal = Self {
            path: path.to_path_buf(),
            controller,
            epoch,
            fence: AtomicU64::new(0),
            state: Mutex::new(WalState {
                file,
                generation,
                records: records.len() as u64,
                tail,
                poisoned: false,
            }),
            // Conservative watermark: the recovered bytes survived on disk,
            // but nothing proves they were ever fsynced — the first `sync`
            // call after open pays one real fsync to cover them.
            sync_state: std::sync::Mutex::new(SyncState {
                generation,
                synced_tail: HEADER_LEN,
                in_flight: false,
                failures: 0,
                failed_generation: 0,
                failed_tail: 0,
                last_error: String::new(),
            }),
            sync_cv: std::sync::Condvar::new(),
        };
        Ok((wal, records, recovery))
    }

    fn create_at(
        path: &Path,
        generation: u64,
        epoch: u64,
        controller: Option<FaultController>,
    ) -> StorageResult<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        write_header(&mut file, generation, epoch)?;
        Ok(Self {
            path: path.to_path_buf(),
            controller,
            epoch,
            fence: AtomicU64::new(0),
            state: Mutex::new(WalState {
                file,
                generation,
                records: 0,
                tail: HEADER_LEN,
                poisoned: false,
            }),
            sync_state: std::sync::Mutex::new(SyncState {
                generation,
                synced_tail: HEADER_LEN,
                in_flight: false,
                failures: 0,
                failed_generation: 0,
                failed_tail: 0,
                last_error: String::new(),
            }),
            sync_cv: std::sync::Condvar::new(),
        })
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// The fence epoch stamped in this log's header.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Fences this handle against epochs below `min_epoch`: once the
    /// handle's own epoch falls below the fence, every [`Wal::append`] and
    /// [`Wal::sync`] fails with [`StorageError::Fenced`] before anything is
    /// written or acked. Called on a deposed leader's WAL when a replica is
    /// promoted past it; the fence only ratchets forward.
    pub fn fence(&self, min_epoch: u64) {
        self.fence.fetch_max(min_epoch, Ordering::SeqCst);
    }

    /// Typed rejection when this handle's epoch fell behind the fence.
    fn check_fence(&self) -> StorageResult<()> {
        let required = self.fence.load(Ordering::SeqCst);
        if self.epoch < required {
            return Err(StorageError::Fenced {
                epoch: self.epoch,
                required,
            });
        }
        Ok(())
    }

    /// Number of durable records in the log.
    pub fn records(&self) -> u64 {
        self.state.lock().records
    }

    /// Total bytes of the log file (header + frames).
    pub fn len_bytes(&self) -> u64 {
        self.state.lock().tail
    }

    /// Appends one record and returns its ordinal (0-based within the
    /// current generation). The append is all-or-nothing: on failure the
    /// file is rewound to the previous record boundary, except for an
    /// injected torn append (a simulated crash), which leaves the torn tail
    /// in place and poisons the handle.
    pub fn append(&self, payload: &[u8]) -> StorageResult<u64> {
        self.check_fence()?;
        let mut state = self.state.lock();
        if state.poisoned {
            return Err(StorageError::corrupt(format!(
                "WAL {} is poisoned by a failed append; re-open to recover",
                self.path.display()
            )));
        }
        let ordinal = state.records;

        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&frame_crc(payload).to_le_bytes());
        frame.extend_from_slice(payload);

        if let Some(ctl) = &self.controller {
            match ctl.next_append_fault(ordinal) {
                None => {}
                Some(AppendFault::Eio) => {
                    return Err(StorageError::Io(std::io::Error::other(format!(
                        "injected EIO on WAL append #{ordinal} (fault seed {})",
                        ctl.seed()
                    ))));
                }
                Some(AppendFault::TornAppend) => {
                    // Simulated crash mid-write: half the frame reaches the
                    // disk, the process is gone. The handle is poisoned;
                    // recovery happens at the next open.
                    let tail = state.tail;
                    state.file.seek(SeekFrom::Start(tail))?;
                    state.file.write_all(&frame[..frame.len() / 2])?;
                    state.file.sync_all()?;
                    state.poisoned = true;
                    return Err(StorageError::Io(std::io::Error::other(format!(
                        "injected torn WAL append #{ordinal} (fault seed {})",
                        ctl.seed()
                    ))));
                }
            }
        }

        let tail = state.tail;
        let write = (|| -> StorageResult<()> {
            state.file.seek(SeekFrom::Start(tail))?;
            state.file.write_all(&frame)?;
            Ok(())
        })();
        match write {
            Ok(()) => {
                state.tail += frame.len() as u64;
                state.records += 1;
                Ok(ordinal)
            }
            Err(e) => {
                // Rewind the possibly partial frame; if even that fails the
                // handle is poisoned and only a re-open recovers.
                if state.file.set_len(tail).is_err() {
                    state.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Forces appended records down to durable storage — with **group
    /// commit**: concurrent callers share one physical `fsync`.
    ///
    /// The call returns `Ok` once every byte appended *before this call*
    /// is durable, whether this caller ran the fsync itself (the leader)
    /// or was covered by another caller's. A failed fsync fails exactly
    /// the callers it covered: the leader returns the backend error, and
    /// each waiter whose frames fell inside the failed attempt gets an
    /// error naming the group failure — so callers can freeze their
    /// applied prefix for the whole group. A caller whose frames landed
    /// *after* the failed attempt's snapshot was never fsynced at all; it
    /// contends for a fresh fsync instead of inheriting the error.
    pub fn sync(&self) -> StorageResult<()> {
        // A deposed leader must not ack: the fence is checked before this
        // call can report any record durable.
        self.check_fence()?;
        // Everything appended before this call — in particular the
        // caller's own record — ends at or before this tail.
        let (generation, target) = {
            let state = self.state.lock();
            (state.generation, state.tail)
        };
        // Covered when the watermark passed the target — or when the whole
        // generation was rotated away, which only happens once every one of
        // its records is folded into a snapshot (or the caller explicitly
        // discarded it with `rotate`).
        let covered =
            |group: &SyncState| group.generation != generation || group.synced_tail >= target;
        let mut group = lock_sync(self);
        loop {
            if covered(&group) {
                return Ok(());
            }
            if group.in_flight {
                let failures_at_entry = group.failures;
                group = self.sync_cv.wait(group).unwrap_or_else(|e| e.into_inner());
                if covered(&group) {
                    return Ok(());
                }
                if group.failures != failures_at_entry
                    && group.failed_generation == generation
                    && group.failed_tail >= target
                {
                    // The failed attempt covered our frames: we are part of
                    // the failed group. (A caller whose frames landed after
                    // the attempt's snapshot was never fsynced at all — it
                    // loops and contends for a fresh fsync instead.)
                    return Err(StorageError::Io(std::io::Error::other(format!(
                        "WAL group fsync failed for the batch containing this \
                         record: {}",
                        group.last_error
                    ))));
                }
                continue;
            }
            // Become the leader: fsync once for every frame appended so
            // far. The file handle is cloned out of the lock so concurrent
            // appends keep landing while the fsync runs — they form the
            // next group. The (generation, tail) snapshot is taken before
            // the fsync, so success never overstates coverage and failure
            // blames exactly the frames the attempt covered.
            group.in_flight = true;
            drop(group);
            let (clone_result, fsync_generation, fsync_tail) = {
                let state = self.state.lock();
                (state.file.try_clone(), state.generation, state.tail)
            };
            let result = clone_result.map_err(StorageError::from).and_then(|file| {
                if let Some(ctl) = &self.controller {
                    if let Some(ordinal) = ctl.next_sync_fault() {
                        return Err(StorageError::Io(std::io::Error::other(format!(
                            "injected EIO on WAL fsync #{ordinal} (fault seed {})",
                            ctl.seed()
                        ))));
                    }
                }
                file.sync_all()?;
                Ok(())
            });
            group = lock_sync(self);
            group.in_flight = false;
            match result {
                Ok(()) => {
                    if fsync_generation > group.generation {
                        group.generation = fsync_generation;
                        group.synced_tail = fsync_tail;
                    } else if fsync_generation == group.generation && fsync_tail > group.synced_tail
                    {
                        group.synced_tail = fsync_tail;
                    }
                    // (A stale fsync of a rotated-away generation updates
                    // nothing; the loop re-checks coverage either way.)
                    self.sync_cv.notify_all();
                }
                Err(e) => {
                    group.failures += 1;
                    group.failed_generation = fsync_generation;
                    group.failed_tail = fsync_tail;
                    group.last_error = e.to_string();
                    self.sync_cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Starts a fresh, empty generation: a new log file with `generation +
    /// 1` is staged and atomically renamed over the current one. Called
    /// after an incremental snapshot save — every record of the old
    /// generation is folded into the snapshot and never needs replaying.
    /// Returns the new generation.
    pub fn rotate(&self) -> StorageResult<u64> {
        let mut state = self.state.lock();
        self.rotate_locked(&mut state)
    }

    /// Rotates **only if** the log still holds exactly `applied_records`
    /// records — the check and the rotation are atomic under the state
    /// lock, so a record appended concurrently by another ingest caller
    /// can never be discarded by a checkpoint that raced it. Returns the
    /// new generation, or `None` when the log moved on (or is poisoned)
    /// and rotation was skipped.
    pub fn rotate_if_applied(&self, applied_records: u64) -> StorageResult<Option<u64>> {
        let mut state = self.state.lock();
        if state.poisoned || state.records != applied_records {
            return Ok(None);
        }
        self.rotate_locked(&mut state).map(Some)
    }

    fn rotate_locked(&self, state: &mut WalState) -> StorageResult<u64> {
        self.check_fence()?;
        let next_gen = state.generation + 1;
        let tmp = self.path.with_extension("wal.tmp");
        {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            write_header(&mut file, next_gen, self.epoch)?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // From here the on-disk log IS the new generation: if re-acquiring
        // a handle to it fails, the old handle must not keep accepting
        // appends — they would land (and fsync!) on the unlinked old inode
        // and silently vanish at the next open. Poison until re-opened.
        let reopen = (|| -> StorageResult<File> {
            let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
            file.seek(SeekFrom::Start(HEADER_LEN))?;
            Ok(file)
        })();
        match reopen {
            Ok(file) => {
                state.file = file;
                state.generation = next_gen;
                state.records = 0;
                state.tail = HEADER_LEN;
                state.poisoned = false;
                // The staged header was fsynced before the rename: the new
                // generation starts durable up to its header.
                let mut group = lock_sync(self);
                group.generation = next_gen;
                group.synced_tail = HEADER_LEN;
                self.sync_cv.notify_all();
                Ok(next_gen)
            }
            Err(e) => {
                state.poisoned = true;
                Err(e)
            }
        }
    }
}

/// One batch of intact records a [`WalTail`] found past its cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedBatch {
    /// Generation of the log the records belong to.
    pub generation: u64,
    /// Fence epoch of the log the records were read from — a follower
    /// rejects batches from an epoch below its own (a deposed leader still
    /// shipping) and adopts a higher one (the fleet was promoted).
    pub epoch: u64,
    /// Ordinal of the first record in `payloads` within that generation.
    pub start_record: u64,
    /// The decoded record payloads, in ordinal order (CRC-verified).
    pub payloads: Vec<Vec<u8>>,
    /// The raw frame bytes of exactly those records — header and payload
    /// as they appear on disk, ready to be appended verbatim to a
    /// byte-compatible [`FollowerLog`].
    pub frames: Vec<u8>,
}

/// A polling reader over a (possibly live) WAL file — the shipping half of
/// leader→replica replication.
///
/// The tail keeps a `(generation, record, byte offset)` cursor and re-reads
/// the file on every [`WalTail::poll`]: new intact frames past the cursor
/// are returned as a [`ShippedBatch`], a torn frame at the end (an append
/// in flight) is simply left for the next poll, and a **generation change**
/// (the leader rotated after a checkpoint) resets the cursor to the start
/// of the new generation. Reading never takes any of the leader's locks —
/// the log format is append-only and CRC-framed, so a concurrent append can
/// at worst look like a torn tail.
pub struct WalTail {
    path: PathBuf,
    generation: u64,
    records: u64,
    offset: u64,
}

impl WalTail {
    /// Starts a tail at the beginning of the log at `path`. The file does
    /// not have to exist yet — the first successful poll latches onto it.
    pub fn new<P: AsRef<Path>>(path: P) -> Self {
        Self {
            path: path.as_ref().to_path_buf(),
            generation: 0,
            records: 0,
            offset: HEADER_LEN,
        }
    }

    /// The log file being tailed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The cursor position: (generation, records consumed).
    pub fn position(&self) -> (u64, u64) {
        (self.generation, self.records)
    }

    /// Reads every intact record past the cursor. Returns `Ok(None)` when
    /// the file does not exist yet or holds nothing new; `Err` on a
    /// malformed header (shipping from a non-WAL file is a setup bug, not
    /// an idle condition).
    pub fn poll(&mut self) -> StorageResult<Option<ShippedBatch>> {
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let Some((generation, epoch)) = parse_header(&bytes, &self.path)? else {
            return Ok(None); // header still being written
        };
        if generation != self.generation {
            // The leader rotated (or this is the first poll): everything in
            // the file belongs to the new generation, starting at record 0.
            self.generation = generation;
            self.records = 0;
            self.offset = HEADER_LEN;
        }

        let mut payloads: Vec<Vec<u8>> = Vec::new();
        let start_offset = self.offset as usize;
        let mut offset = start_offset;
        if offset > bytes.len() {
            // The file shrank without a generation bump — cannot happen
            // through the Wal API (truncation only at open/rotate, both
            // re-header); treat it as corruption rather than re-shipping.
            return Err(StorageError::corrupt(format!(
                "shipped WAL {} shrank below the cursor",
                self.path.display()
            )));
        }
        loop {
            let remaining = bytes.len() - offset;
            if remaining < FRAME_HEADER_LEN {
                break;
            }
            let len =
                u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 b"));
            if remaining - FRAME_HEADER_LEN < len {
                break; // append in flight
            }
            let payload = &bytes[offset + FRAME_HEADER_LEN..offset + FRAME_HEADER_LEN + len];
            if frame_crc(payload) != crc {
                break; // torn frame; re-examine next poll
            }
            payloads.push(payload.to_vec());
            offset += FRAME_HEADER_LEN + len;
        }
        if payloads.is_empty() {
            return Ok(None);
        }
        let batch = ShippedBatch {
            generation: self.generation,
            epoch,
            start_record: self.records,
            frames: bytes[start_offset..offset].to_vec(),
            payloads,
        };
        self.records += batch.payloads.len() as u64;
        self.offset = offset as u64;
        Ok(Some(batch))
    }
}

/// A byte-compatible local copy of a leader's WAL, maintained by a replica
/// from shipped frames.
///
/// The file is a real WAL — same header, same frames — so a failover
/// promotion simply attaches it with the ordinary `attach_wal` path: replay
/// skips everything the replica already applied and the promoted engine
/// keeps appending to the very same log.
pub struct FollowerLog {
    path: PathBuf,
    file: File,
    generation: u64,
    epoch: u64,
    records: u64,
    /// Byte offset of the end of the last intact frame — appends rewind to
    /// it on failure so a faulted write never leaves a torn suffix that a
    /// later append would bury.
    tail: u64,
}

impl FollowerLog {
    /// Creates (truncating any previous content) a follower log at `path`
    /// for `generation`, at epoch 0. The log adopts the leader's fence
    /// epoch from the first shipped batch ([`FollowerLog::append_shipped`]).
    pub fn create<P: AsRef<Path>>(path: P, generation: u64) -> StorageResult<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        write_header(&mut file, generation, 0)?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            generation,
            epoch: 0,
            records: 0,
            tail: HEADER_LEN,
        })
    }

    /// The log's file path (hand this to `attach_wal` on promotion).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The generation the log currently mirrors.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The fence epoch persisted in the log's header.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shipped records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Persists a raised fence epoch into the log's header in place (the
    /// header has a fixed length, so the frames after it are untouched).
    /// This is the promotion step that makes the bumped epoch durable:
    /// attaching the log afterwards yields a WAL whose stamped epoch
    /// outranks every pre-promotion leader. Lowering the epoch is refused —
    /// fences only ratchet forward.
    pub fn set_epoch(&mut self, epoch: u64) -> StorageResult<()> {
        if epoch < self.epoch {
            return Err(StorageError::Fenced {
                epoch,
                required: self.epoch,
            });
        }
        if epoch == self.epoch {
            return Ok(());
        }
        self.file.seek(SeekFrom::Start(0))?;
        write_header(&mut self.file, self.generation, epoch)?;
        self.epoch = epoch;
        Ok(())
    }

    /// Appends a shipped batch's raw frames verbatim and fsyncs. Rejects a
    /// batch from another generation or out of sequence — the caller must
    /// [`FollowerLog::reset`] on a generation change — and, **typed**, a
    /// batch from a fence epoch below the log's own: that is a deposed
    /// leader still shipping after a promotion. A batch from a higher epoch
    /// adopts it (persisted before the frames land).
    pub fn append_shipped(&mut self, batch: &ShippedBatch) -> StorageResult<()> {
        if batch.epoch < self.epoch {
            return Err(StorageError::Fenced {
                epoch: batch.epoch,
                required: self.epoch,
            });
        }
        if batch.generation != self.generation {
            return Err(StorageError::corrupt(format!(
                "shipped batch of generation {} cannot extend follower log of \
                 generation {}",
                batch.generation, self.generation
            )));
        }
        if batch.start_record != self.records {
            return Err(StorageError::corrupt(format!(
                "shipped batch starts at record {} but the follower log holds {}",
                batch.start_record, self.records
            )));
        }
        if batch.epoch > self.epoch {
            self.set_epoch(batch.epoch)?;
        }
        let tail = self.tail;
        let write = (|| -> StorageResult<()> {
            self.file.seek(SeekFrom::Start(tail))?;
            self.file.write_all(&batch.frames)?;
            self.file.sync_all()?;
            Ok(())
        })();
        match write {
            Ok(()) => {
                self.tail += batch.frames.len() as u64;
                self.records += batch.payloads.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Rewind the possibly partial frames; a torn suffix left in
                // place would corrupt every later append.
                let _ = self.file.set_len(tail);
                Err(e)
            }
        }
    }

    /// Discards the mirrored content and starts over at `generation` — the
    /// follower's reaction to a leader rotation (the records of the old
    /// generation are covered by the leader's checkpoint). The fence epoch
    /// is preserved: rotation never lowers a fence.
    pub fn reset(&mut self, generation: u64) -> StorageResult<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        write_header(&mut self.file, generation, self.epoch)?;
        self.generation = generation;
        self.records = 0;
        self.tail = HEADER_LEN;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ReadFault;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("streach-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn create_append_reopen_roundtrip() {
        let path = tmp("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        {
            let (wal, records, recovery) = Wal::open(&path).unwrap();
            assert!(records.is_empty());
            assert_eq!(recovery.generation, 1);
            assert_eq!(wal.append(b"alpha").unwrap(), 0);
            assert_eq!(wal.append(b"").unwrap(), 1);
            assert_eq!(wal.append(&[7u8; 5000]).unwrap(), 2);
            wal.sync().unwrap();
            assert_eq!(wal.records(), 3);
        }
        let (wal, records, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], b"alpha");
        assert_eq!(records[1], b"");
        assert_eq!(records[2], vec![7u8; 5000]);
        assert_eq!(wal.generation(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// Crash simulation: for every truncation point of the file — each
    /// record boundary and several mid-frame cuts — recovery must yield
    /// exactly the longest valid prefix and truncate the file back to it.
    #[test]
    fn recovery_truncates_torn_tail_at_every_cut() {
        let path = tmp("cuts.wal");
        let _ = std::fs::remove_file(&path);
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10 + i as usize * 37]).collect();
        let mut boundaries = vec![HEADER_LEN as usize];
        {
            let (wal, _, _) = Wal::open(&path).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
                boundaries.push(wal.len_bytes() as usize);
            }
            wal.sync().unwrap();
        }
        let clean = std::fs::read(&path).unwrap();

        for cut in (HEADER_LEN as usize..=clean.len()).step_by(7).chain(
            boundaries.iter().copied().chain(
                boundaries
                    .iter()
                    .map(|b| b + 1)
                    .filter(|b| *b <= clean.len()),
            ),
        ) {
            let cut_path = tmp("cuts-case.wal");
            std::fs::write(&cut_path, &clean[..cut]).unwrap();
            let (wal, records, recovery) = Wal::open(&cut_path).unwrap();
            // The expected prefix: every record whose frame ends at or
            // before the cut.
            let expected = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(records.len(), expected, "cut at {cut}");
            assert_eq!(recovery.records, expected as u64, "cut at {cut}");
            assert_eq!(&records[..], &payloads[..expected], "cut at {cut}");
            // The file is truncated to the consistent prefix, so re-opening
            // reports no further truncation.
            assert_eq!(wal.len_bytes() as usize, boundaries[expected]);
            drop(wal);
            let (_, again, recovery2) = Wal::open(&cut_path).unwrap();
            assert_eq!(again.len(), expected, "cut at {cut}: recovery idempotent");
            assert_eq!(recovery2.truncated_bytes, 0, "cut at {cut}");
            std::fs::remove_file(&cut_path).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_record_bytes_cut_the_replay_prefix() {
        let path = tmp("bitrot.wal");
        let _ = std::fs::remove_file(&path);
        {
            let (wal, _, _) = Wal::open(&path).unwrap();
            wal.append(b"first-record").unwrap();
            wal.append(b"second-record").unwrap();
            wal.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the second record's payload.
        let n = bytes.len();
        bytes[n - 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_, records, recovery) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 1, "corrupt record must end the prefix");
        assert_eq!(records[0], b"first-record");
        assert!(recovery.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_and_versioned_files_are_rejected() {
        let path = tmp("foreign.wal");
        std::fs::write(&path, b"definitely not a wal header").unwrap();
        assert!(matches!(
            Wal::open(&path),
            Err(StorageError::Corrupt { .. })
        ));
        // A future version is rejected as unsupported, not misread.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&path),
            Err(StorageError::UnsupportedVersion { found: 99, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// A v1 log (20-byte header, no fence epoch) is rejected typed by both
    /// readers of a WAL file: the leader's open and the shipping tail that
    /// feeds follower logs.
    #[test]
    fn v1_header_is_rejected_typed() {
        let path = tmp("v1.wal");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes());
        let payload = b"v1-era-record";
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&frame_crc(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(&path, &bytes).unwrap();
        let is_v1_rejection = |r: StorageResult<()>| {
            matches!(
                r,
                Err(StorageError::UnsupportedVersion {
                    found: 1,
                    expected: WAL_VERSION
                })
            )
        };
        assert!(is_v1_rejection(Wal::open(&path).map(|_| ())));
        assert!(is_v1_rejection(WalTail::new(&path).poll().map(|_| ())));
        // Nothing was rewritten: the rejected file is left as found.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
    }

    /// Fencing: raising the fence past the handle's epoch fails append,
    /// sync and rotation with the typed error — before anything is written
    /// or acked — and the error is not transient.
    #[test]
    fn fenced_wal_rejects_append_sync_and_rotate_typed() {
        let path = tmp("fence.wal");
        let _ = std::fs::remove_file(&path);
        let (wal, _, _) = Wal::open(&path).unwrap();
        wal.append(b"pre-fence").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.epoch(), 0);

        wal.fence(1);
        let err = wal.append(b"post-fence").unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::Fenced {
                    epoch: 0,
                    required: 1
                }
            ),
            "{err}"
        );
        assert!(!err.is_transient(), "a fence never heals by retrying");
        assert!(matches!(wal.sync(), Err(StorageError::Fenced { .. })));
        assert!(matches!(wal.rotate(), Err(StorageError::Fenced { .. })));
        // Fences only ratchet forward: a lower fence does not unfence.
        wal.fence(0);
        assert!(matches!(
            wal.append(b"still-fenced"),
            Err(StorageError::Fenced { .. })
        ));
        drop(wal);
        // Nothing past the pre-fence record ever landed.
        let (_, records, recovery) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"pre-fence".to_vec()]);
        assert_eq!(recovery.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    /// A follower log adopts a higher shipped epoch (persisted in its
    /// header), refuses a lower one typed, and `set_epoch` + reopen yields
    /// a WAL stamped with the promoted epoch — with its frames intact.
    #[test]
    fn follower_log_adopts_and_enforces_epochs() {
        let leader_path = tmp("epoch-leader.wal");
        let follower_path = tmp("epoch-follower.wal");
        let _ = std::fs::remove_file(&leader_path);
        let _ = std::fs::remove_file(&follower_path);
        let (wal, _, _) = Wal::open(&leader_path).unwrap();
        wal.append(b"record-zero").unwrap();
        wal.sync().unwrap();
        let mut tail = WalTail::new(&leader_path);
        let batch = tail.poll().unwrap().expect("one record");

        let mut log = FollowerLog::create(&follower_path, 1).unwrap();
        // Shipped batches carry the leader's epoch; the fresh log adopts it.
        let mut promoted = batch.clone();
        promoted.epoch = 3;
        log.append_shipped(&promoted).unwrap();
        assert_eq!(log.epoch(), 3);
        // A batch from a lower epoch is a deposed leader: typed rejection.
        let stale = batch.clone();
        assert!(matches!(
            log.append_shipped(&stale),
            Err(StorageError::Fenced {
                epoch: 0,
                required: 3
            })
        ));
        // Promotion bumps further and persists; reset keeps the epoch.
        log.set_epoch(4).unwrap();
        assert!(matches!(log.set_epoch(3), Err(StorageError::Fenced { .. })));
        drop(log);
        let (wal, records, recovery) = Wal::open(&follower_path).unwrap();
        assert_eq!(recovery.epoch, 4);
        assert_eq!(wal.epoch(), 4);
        assert_eq!(records, vec![b"record-zero".to_vec()]);
        std::fs::remove_file(&leader_path).ok();
        std::fs::remove_file(&follower_path).ok();
    }

    #[test]
    fn rotation_bumps_generation_and_empties_the_log() {
        let path = tmp("rotate.wal");
        let _ = std::fs::remove_file(&path);
        let (wal, _, _) = Wal::open(&path).unwrap();
        wal.append(b"old-generation").unwrap();
        assert_eq!(wal.rotate().unwrap(), 2);
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.append(b"new-generation").unwrap(), 0);
        wal.sync().unwrap();
        drop(wal);
        let (_, records, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.generation, 2);
        assert_eq!(records, vec![b"new-generation".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    /// Group commit: concurrent appenders each call `sync` and every record
    /// must be durable afterwards — one fsync may cover many records, but
    /// never fewer than the caller's own.
    #[test]
    fn group_commit_covers_every_concurrent_append() {
        let path = tmp(&format!("group-{:?}.wal", std::thread::current().id()));
        let _ = std::fs::remove_file(&path);
        let (wal, _, _) = Wal::open(&path).unwrap();
        let writers = 8usize;
        let per_writer = 5usize;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        let payload = format!("writer-{w}-record-{i}");
                        wal.append(payload.as_bytes()).expect("append");
                        wal.sync().expect("group sync");
                    }
                });
            }
        });
        assert_eq!(wal.records(), (writers * per_writer) as u64);
        drop(wal);
        let (_, records, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.truncated_bytes, 0, "every acked record durable");
        let mut seen: Vec<String> = records
            .iter()
            .map(|r| String::from_utf8(r.clone()).unwrap())
            .collect();
        seen.sort();
        let mut expected: Vec<String> = (0..writers)
            .flat_map(|w| (0..per_writer).map(move |i| format!("writer-{w}-record-{i}")))
            .collect();
        expected.sort();
        assert_eq!(seen, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotate_if_applied_is_atomic_with_the_record_count() {
        let path = tmp("rotate-if.wal");
        let _ = std::fs::remove_file(&path);
        let (wal, _, _) = Wal::open(&path).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        // An outstanding (unapplied) record blocks rotation.
        assert_eq!(wal.rotate_if_applied(1).unwrap(), None);
        assert_eq!(wal.generation(), 1);
        assert_eq!(wal.records(), 2);
        // Everything applied: rotation proceeds.
        assert_eq!(wal.rotate_if_applied(2).unwrap(), Some(2));
        assert_eq!(wal.records(), 0);
        // A record appended into the new generation blocks again.
        wal.append(b"three").unwrap();
        assert_eq!(wal.rotate_if_applied(0).unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_sync_fault_fails_the_group_and_is_retryable() {
        let path = tmp("sync-eio.wal");
        let _ = std::fs::remove_file(&path);
        let ctl = FaultController::detached(13);
        ctl.fail_next_syncs(1);
        let (wal, _, _) = Wal::open_with_controller(&path, ctl.clone()).unwrap();
        wal.append(b"record").unwrap();
        let err = wal.sync().unwrap_err();
        assert!(err.to_string().contains("WAL fsync"), "{err}");
        assert!(err.to_string().contains("seed 13"), "{err}");
        assert_eq!(ctl.syncs_observed(), 1);
        // The record is still in the log; a later fsync covers it.
        wal.sync().expect("retried fsync succeeds");
        drop(wal);
        let (_, records, _) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"record".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_torn_append_poisons_until_reopen() {
        let path = tmp("torn-append.wal");
        let _ = std::fs::remove_file(&path);
        let ctl = FaultController::detached(77);
        ctl.fail_append_at(1, AppendFault::TornAppend);
        let (wal, _, _) = Wal::open_with_controller(&path, ctl.clone()).unwrap();
        wal.append(b"survives").unwrap();
        let err = wal.append(b"dies-mid-write").unwrap_err();
        assert!(err.to_string().contains("torn WAL append"), "{err}");
        assert!(err.to_string().contains("seed 77"), "{err}");
        // The handle is dead — the "process" crashed.
        assert!(wal.append(b"after-crash").is_err());
        drop(wal);
        // Re-open: the torn frame is truncated away, the prefix survives.
        let (wal, records, recovery) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"survives".to_vec()]);
        assert!(recovery.truncated_bytes > 0, "torn tail must be dropped");
        assert_eq!(wal.append(b"back-in-business").unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_eio_append_is_retryable() {
        let path = tmp("eio-append.wal");
        let _ = std::fs::remove_file(&path);
        let ctl = FaultController::detached(5);
        ctl.fail_append_at(0, AppendFault::Eio);
        let (wal, _, _) = Wal::open_with_controller(&path, ctl.clone()).unwrap();
        let err = wal.append(b"rejected").unwrap_err();
        assert!(err.to_string().contains("injected EIO"), "{err}");
        // Nothing was written; the same payload appends cleanly afterwards.
        assert_eq!(wal.append(b"accepted").unwrap(), 0);
        drop(wal);
        let (_, records, _) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![b"accepted".to_vec()]);
        // Read-fault scripting on the same controller does not interfere.
        ctl.fail_read_at(0, ReadFault::Eio);
        std::fs::remove_file(&path).ok();
    }
}
