//! Deterministic fault injection for page stores.
//!
//! Error paths are only trustworthy if they are exercised, and real disks
//! fail in ways a test cannot provoke on demand: `EIO` halfway through a
//! query, a torn page after a power cut, a sector silently reading back as
//! zeroes. [`FaultInjectingPageStore`] wraps any [`PageStore`] and injects
//! exactly those failures under a script, so the fault-tolerance of the
//! whole query pipeline can be driven through every read it performs.
//!
//! Two scripting styles compose:
//!
//! * **Ordinal scripts** — fail the *n*-th physical read (0-based, counted
//!   across the store's lifetime) with a chosen [`ReadFault`], or fail every
//!   read from an ordinal onward. Ordinals are counted with one atomic, so a
//!   script is exact even when reads race across verification workers.
//! * **Seeded probabilistic faults** — fail each read with probability `p`,
//!   decided by hashing `(seed, ordinal)`. The decision depends only on the
//!   seed and the read's ordinal, never on thread timing, so a failing run
//!   reproduces bit-exactly from its seed.
//!
//! The wrapper is controlled through a [`FaultController`] handle that
//! remains usable after the store has been boxed into an engine, which is
//! how the fault-injection test campaign scripts faults mid-life against a
//! reopened snapshot.
//!
//! The controller also scripts the **write path** of the streaming-ingest
//! subsystem: ordinal-addressed page-write `EIO`s (a posting writer writes
//! each heap page through `write_page`) and WAL append faults (`EIO` before any
//! byte lands, or a torn append simulating a crash mid-write — see
//! [`AppendFault`] and [`crate::Wal::open_with_controller`]). A detached
//! controller ([`FaultController::detached`]) can drive a WAL alone or be
//! shared between a WAL and a store via
//! [`FaultInjectingPageStore::with_controller`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::iostats::IoStats;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pagestore::{PageStore, StorageError, StorageResult};

/// What an injected read failure looks like to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// The read fails with an I/O error (`EIO`).
    Eio,
    /// The read "succeeds" but only the first half of the page made it to
    /// disk; the rest reads back as zeroes (a torn write).
    TornPage,
    /// The read "succeeds" but the whole page reads back as zeroes (a
    /// trimmed or never-written sector).
    ZeroedPage,
}

/// What an injected [`crate::Wal`] append failure looks like. Scripted by
/// **record ordinal** (not attempt ordinal) and consumed one-shot, so a
/// failed-and-retried append is not re-failed by the same script entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendFault {
    /// The append fails with an I/O error before any byte reaches the file;
    /// a retry of the same record can succeed.
    Eio,
    /// A simulated crash mid-append: half the frame is persisted, then the
    /// "process dies" — the WAL handle is poisoned and only a re-open (which
    /// truncates the torn tail) recovers.
    TornAppend,
}

#[derive(Default)]
struct FaultPlan {
    /// Ordinal-addressed one-shot read faults.
    read_faults: std::collections::HashMap<u64, ReadFault>,
    /// Every read with ordinal >= this fails with `EIO` (a dead disk).
    fail_reads_from: Option<u64>,
    /// Per-read `EIO` probability, decided by `mix(seed, ordinal)`.
    read_fault_probability: f64,
    /// Ordinal-addressed one-shot page-write `EIO`s.
    write_faults: std::collections::HashSet<u64>,
    /// Record-ordinal-addressed one-shot WAL append faults (consumed on
    /// use).
    append_faults: std::collections::HashMap<u64, AppendFault>,
    /// Attempt-ordinal-addressed one-shot WAL append faults: stable under
    /// WAL rotation, which resets record ordinals per generation.
    append_attempt_faults: std::collections::HashMap<u64, AppendFault>,
    /// Number of upcoming WAL fsync attempts to fail with `EIO`.
    failing_syncs: u64,
    /// Extra latency per physical read.
    read_latency: Duration,
}

struct FaultState {
    seed: u64,
    reads: AtomicU64,
    writes: AtomicU64,
    appends: AtomicU64,
    syncs: AtomicU64,
    plan: Mutex<FaultPlan>,
}

/// Control handle for a [`FaultInjectingPageStore`]; clones share the same
/// script, and the handle outlives boxing the store into an engine.
#[derive(Clone)]
pub struct FaultController {
    state: Arc<FaultState>,
}

impl FaultController {
    /// Creates a controller that is not (yet) attached to any store: the
    /// handle for scripting [`crate::Wal`] append faults
    /// ([`crate::Wal::open_with_controller`]), or for sharing one script
    /// between a store ([`FaultInjectingPageStore::with_controller`]) and a
    /// WAL.
    pub fn detached(seed: u64) -> Self {
        Self {
            state: Arc::new(FaultState {
                seed,
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                appends: AtomicU64::new(0),
                syncs: AtomicU64::new(0),
                plan: Mutex::new(FaultPlan::default()),
            }),
        }
    }

    /// The seed probabilistic faults are derived from.
    pub fn seed(&self) -> u64 {
        self.state.seed
    }

    /// Number of physical reads the store has been asked for so far (every
    /// attempt counts, including ones that were failed by the script).
    pub fn reads_observed(&self) -> u64 {
        self.state.reads.load(Ordering::SeqCst)
    }

    /// Scripts a one-shot fault for the read with the given lifetime
    /// ordinal (0-based).
    pub fn fail_read_at(&self, ordinal: u64, fault: ReadFault) {
        self.state.plan.lock().read_faults.insert(ordinal, fault);
    }

    /// Fails every read from `ordinal` onward with `EIO` — a disk that died
    /// and stays dead.
    pub fn fail_reads_from(&self, ordinal: u64) {
        self.state.plan.lock().fail_reads_from = Some(ordinal);
    }

    /// Fails each read with probability `p`, decided deterministically from
    /// `(seed, ordinal)`.
    pub fn set_read_fault_probability(&self, p: f64) {
        self.state.plan.lock().read_fault_probability = p.clamp(0.0, 1.0);
    }

    /// Scripts a one-shot `EIO` for the page write with the given lifetime
    /// ordinal (0-based): the page writes of a posting heap's writer.
    pub fn fail_write_at(&self, ordinal: u64) {
        self.state.plan.lock().write_faults.insert(ordinal);
    }

    /// Scripts a one-shot fault for the WAL append of the given **record
    /// ordinal** (0-based within the log's current generation). The script
    /// entry is consumed when it fires, so a retried append succeeds.
    pub fn fail_append_at(&self, ordinal: u64, fault: AppendFault) {
        self.state.plan.lock().append_faults.insert(ordinal, fault);
    }

    /// Scripts a one-shot fault for the WAL append with the given lifetime
    /// **attempt ordinal** (0-based, counted across generations) — the
    /// addressing a campaign needs when checkpoints may rotate the log
    /// (and reset record ordinals) at nondeterministic points.
    pub fn fail_append_attempt_at(&self, attempt: u64, fault: AppendFault) {
        self.state
            .plan
            .lock()
            .append_attempt_faults
            .insert(attempt, fault);
    }

    /// Consults (and consumes) the append script for `record_ordinal`.
    /// Called by [`crate::Wal::append`] when the log carries a controller.
    pub(crate) fn next_append_fault(&self, record_ordinal: u64) -> Option<AppendFault> {
        let attempt = self.state.appends.fetch_add(1, Ordering::SeqCst);
        let mut plan = self.state.plan.lock();
        plan.append_faults
            .remove(&record_ordinal)
            .or_else(|| plan.append_attempt_faults.remove(&attempt))
    }

    /// Number of WAL fsync attempts consulted against this script. With
    /// group commit, one attempt can cover many concurrently appended
    /// records.
    pub fn syncs_observed(&self) -> u64 {
        self.state.syncs.load(Ordering::SeqCst)
    }

    /// Fails the next `n` WAL fsync attempts with `EIO` — the scripting
    /// shape for multi-writer group-commit campaigns, where the number of
    /// physical fsyncs under a concurrent batch depends on timing.
    pub fn fail_next_syncs(&self, n: u64) {
        self.state.plan.lock().failing_syncs = n;
    }

    /// Consults (and consumes) the fsync script. Called by
    /// [`crate::Wal::sync`]'s group-commit leader when the log carries a
    /// controller; returns the faulted attempt ordinal.
    pub(crate) fn next_sync_fault(&self) -> Option<u64> {
        let ordinal = self.state.syncs.fetch_add(1, Ordering::SeqCst);
        let mut plan = self.state.plan.lock();
        if plan.failing_syncs > 0 {
            plan.failing_syncs -= 1;
            return Some(ordinal);
        }
        None
    }

    /// Adds a fixed latency to every physical read (spin-waited, so
    /// microsecond scripts stay accurate).
    pub fn set_read_latency(&self, latency: Duration) {
        self.state.plan.lock().read_latency = latency;
    }

    /// Clears the whole script (faults and latency): subsequent operations
    /// pass through untouched. The read counter keeps running — ordinals
    /// are lifetime ordinals.
    pub fn clear(&self) {
        *self.state.plan.lock() = FaultPlan::default();
    }
}

/// SplitMix64: one multiply-xor-shift chain, enough to decorrelate
/// consecutive ordinals under one seed. Public so seeded test schedules
/// draw from the same mixer as the fault scripts.
pub fn mix(seed: u64, ordinal: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(ordinal.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A scriptable, seeded fault-injection wrapper over any [`PageStore`].
///
/// See the [module docs](crate::fault) for the scripting model. All
/// pass-through operations (allocation, writes, statistics) behave exactly
/// like the wrapped store's.
pub struct FaultInjectingPageStore {
    inner: Box<dyn PageStore>,
    state: Arc<FaultState>,
}

impl FaultInjectingPageStore {
    /// Wraps `inner` with an empty script and seed 0.
    pub fn new(inner: Box<dyn PageStore>) -> Self {
        Self::with_seed(inner, 0)
    }

    /// Wraps `inner` with an empty script; `seed` drives the probabilistic
    /// fault decisions.
    pub fn with_seed(inner: Box<dyn PageStore>, seed: u64) -> Self {
        Self::with_controller(inner, &FaultController::detached(seed))
    }

    /// Wraps `inner` under an existing controller, sharing its script and
    /// counters — e.g. one script driving both a page store and a WAL.
    pub fn with_controller(inner: Box<dyn PageStore>, controller: &FaultController) -> Self {
        Self {
            inner,
            state: Arc::clone(&controller.state),
        }
    }

    /// A control handle for scripting faults; stays valid after the store
    /// is boxed away into an engine.
    pub fn controller(&self) -> FaultController {
        FaultController {
            state: Arc::clone(&self.state),
        }
    }

    fn injected_eio(ordinal: u64, seed: u64, what: &str) -> StorageError {
        StorageError::Io(std::io::Error::other(format!(
            "injected EIO on {what} #{ordinal} (fault seed {seed})"
        )))
    }

    fn spin(duration: Duration) {
        if duration.is_zero() {
            return;
        }
        let start = std::time::Instant::now();
        while start.elapsed() < duration {
            std::hint::spin_loop();
        }
    }
}

impl PageStore for FaultInjectingPageStore {
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        let ordinal = self.state.reads.fetch_add(1, Ordering::SeqCst);
        let (latency, fault) = {
            let plan = self.state.plan.lock();
            let fault = if let Some(&f) = plan.read_faults.get(&ordinal) {
                Some(f)
            } else if plan.fail_reads_from.is_some_and(|from| ordinal >= from) {
                Some(ReadFault::Eio)
            } else if plan.read_fault_probability > 0.0 {
                // 53 uniform bits → [0, 1): the decision depends only on
                // (seed, ordinal), never on thread timing.
                let u = (mix(self.state.seed, ordinal) >> 11) as f64 / ((1u64 << 53) as f64);
                (u < plan.read_fault_probability).then_some(ReadFault::Eio)
            } else {
                None
            };
            (plan.read_latency, fault)
        };
        // Spin outside the plan lock: concurrent reads must overlap their
        // latency (and controller calls must not block behind it).
        Self::spin(latency);
        match fault {
            None => self.inner.read_page(id),
            Some(ReadFault::Eio) => Err(Self::injected_eio(ordinal, self.state.seed, "read")),
            Some(ReadFault::ZeroedPage) => {
                // Still pay the physical read (and its accounting); the data
                // simply never comes back.
                let _ = self.inner.read_page(id)?;
                Ok(Page::zeroed())
            }
            Some(ReadFault::TornPage) => {
                let mut page = self.inner.read_page(id)?;
                page.bytes_mut()[PAGE_SIZE / 2..].fill(0);
                Ok(page)
            }
        }
    }

    fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let ordinal = self.state.writes.fetch_add(1, Ordering::SeqCst);
        if self.state.plan.lock().write_faults.remove(&ordinal) {
            return Err(Self::injected_eio(ordinal, self.state.seed, "write"));
        }
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
        "fault-injecting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::InMemoryPageStore;

    fn store_with_pages(n: u64) -> FaultInjectingPageStore {
        let inner = InMemoryPageStore::new();
        for i in 0..n {
            let id = inner.allocate().unwrap();
            let mut page = Page::zeroed();
            page.bytes_mut()[0] = i as u8;
            page.bytes_mut()[PAGE_SIZE - 1] = 0xEE;
            inner.write_page(id, &page).unwrap();
        }
        FaultInjectingPageStore::with_seed(Box::new(inner), 42)
    }

    #[test]
    fn passthrough_without_script() {
        let store = store_with_pages(3);
        for i in 0..3u64 {
            assert_eq!(store.read_page(i).unwrap().bytes()[0], i as u8);
        }
        assert_eq!(store.controller().reads_observed(), 3);
        assert!(store.flush().is_ok());
        assert_eq!(store.num_pages(), 3);
    }

    #[test]
    fn scripted_ordinal_fails_exactly_once() {
        let store = store_with_pages(2);
        let ctl = store.controller();
        ctl.fail_read_at(1, ReadFault::Eio);
        assert!(store.read_page(0).is_ok()); // ordinal 0
        let err = store.read_page(0).unwrap_err(); // ordinal 1
        assert!(err.to_string().contains("injected EIO"), "{err}");
        assert!(err.to_string().contains("seed 42"), "{err}");
        assert!(store.read_page(0).is_ok()); // ordinal 2: one-shot
    }

    #[test]
    fn dead_disk_fails_everything_until_cleared() {
        let store = store_with_pages(1);
        let ctl = store.controller();
        ctl.fail_reads_from(0);
        for _ in 0..4 {
            assert!(store.read_page(0).is_err());
        }
        ctl.clear();
        assert!(store.read_page(0).is_ok());
    }

    #[test]
    fn torn_and_zeroed_pages_lose_data_without_erroring() {
        let store = store_with_pages(1);
        let ctl = store.controller();
        ctl.fail_read_at(0, ReadFault::TornPage);
        ctl.fail_read_at(1, ReadFault::ZeroedPage);
        let torn = store.read_page(0).unwrap();
        assert_eq!(torn.bytes()[0], 0, "first half survives");
        assert_eq!(torn.bytes()[PAGE_SIZE - 1], 0, "second half zeroed");
        let zeroed = store.read_page(0).unwrap();
        assert!(zeroed.bytes().iter().all(|&b| b == 0));
        let clean = store.read_page(0).unwrap();
        assert_eq!(clean.bytes()[PAGE_SIZE - 1], 0xEE);
    }

    #[test]
    fn probabilistic_faults_reproduce_bit_exactly_per_seed() {
        let decisions = |seed: u64| -> Vec<bool> {
            let store = {
                let inner = InMemoryPageStore::new();
                inner.allocate().unwrap();
                FaultInjectingPageStore::with_seed(Box::new(inner), seed)
            };
            store.controller().set_read_fault_probability(0.3);
            (0..200).map(|_| store.read_page(0).is_err()).collect()
        };
        let a = decisions(7);
        let b = decisions(7);
        assert_eq!(a, b, "same seed must reproduce the same fault pattern");
        let failures = a.iter().filter(|&&f| f).count();
        assert!(
            (20..=100).contains(&failures),
            "p=0.3 over 200 reads gave {failures} failures"
        );
        let c = decisions(8);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn scripted_write_faults_hit_exact_ordinals() {
        let store = store_with_pages(2);
        let ctl = store.controller();
        ctl.fail_write_at(1);
        let page = Page::zeroed();
        assert!(store.write_page(0, &page).is_ok()); // write ordinal 0
        let err = store.write_page(0, &page).unwrap_err(); // ordinal 1
        assert!(err.to_string().contains("injected EIO on write"), "{err}");
        assert!(store.write_page(0, &page).is_ok()); // one-shot
    }

    #[test]
    fn shared_controller_drives_store_and_counts_independently() {
        let inner = InMemoryPageStore::new();
        inner.allocate().unwrap();
        let ctl = FaultController::detached(11);
        let store = FaultInjectingPageStore::with_controller(Box::new(inner), &ctl);
        assert_eq!(ctl.seed(), 11);
        ctl.fail_read_at(0, ReadFault::Eio);
        assert!(store.read_page(0).is_err());
        assert!(store.read_page(0).is_ok());
        assert_eq!(ctl.reads_observed(), 2);
    }

    #[test]
    fn read_latency_is_applied() {
        let store = store_with_pages(1);
        store
            .controller()
            .set_read_latency(Duration::from_micros(200));
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            store.read_page(0).unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_micros(10 * 200));
    }
}
