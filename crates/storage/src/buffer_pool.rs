//! An LRU buffer pool in front of a page store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use parking_lot::{Mutex, MutexGuard};

use crate::iostats::IoStats;
use crate::page::{Page, PageId};
use crate::pagestore::{PageStore, StorageError, StorageResult};

/// A fixed-capacity LRU cache of pages.
///
/// Read requests first consult the cache; hits avoid touching the underlying
/// [`PageStore`] (and therefore avoid its latency and read counters), misses
/// fetch the page and possibly evict the least-recently-used cached page.
/// This mirrors the original system, where repeated accesses to the same
/// ST-Index posting pages (e.g. the start segment's time list) are served
/// from memory while the bulk of the trace-back search still pays disk I/O.
///
/// Pages are cached in their **on-disk encoding**: with delta/varint
/// posting compression (see [`crate::postings`]) a pool slot holds the
/// compressed bytes, so the same `pool_pages` budget keeps roughly
/// `decode_ratio` times more postings resident. [`IoStats`] splits the two
/// views as `bytes_resident` (stored bytes fetched) vs `bytes_decoded`
/// (fixed-width-equivalent bytes produced by decoding them).
///
/// # Concurrency
///
/// * **Page-sharded LRU.** The pool is split into LRU shards keyed by page
///   id (`id % shards`), each behind its own lock on its own cache line, so
///   parallel verification workers hitting different pages do not write to
///   the same lock or recency list. The shard count is derived from the
///   capacity, never configured: one shard per 64 pages, at most 16. A
///   pool below 128 pages (the fault campaigns' 1-page pools, a 256 KiB
///   cold-read pool) keeps one exact LRU; a larger one is LRU *per shard*
///   (the victim is the least recently used page of the missing page's
///   shard). The shard capacities sum to `capacity`, so total residency
///   never exceeds it.
/// * **In-flight fetch coalescing** (per shard). When several threads miss
///   on the same page simultaneously (common during parallel annulus
///   verification, where neighbouring segments share posting pages),
///   exactly one thread — the *leader* — issues the physical store read;
///   the others block on the in-flight entry and are handed the fetched
///   page. One miss and one physical `page_reads` increment are recorded
///   for the leader; followers record cache hits, since their request is
///   served from memory. If the leader's read fails, followers fall back to
///   their own store read.
/// * **Writes make racing fetches stale.** [`BufferPool::write_page`]
///   writes the store, then refreshes a resident copy — and if a fetch of
///   the page is in flight, detaches it and marks it stale: its leader may
///   have copied the bytes before the write, so it hands them to its
///   waiters (whose reads overlapped the write) but does not cache them,
///   and a fetch arriving after the write starts a fresh physical read.
/// * **O(1) eviction.** Recency order lives in an intrusive doubly-linked
///   list threaded through a slab of nodes, so refreshing a page on a cache
///   hit and selecting the LRU victim on a miss are both constant time.
pub struct BufferPool<S: PageStore> {
    store: S,
    capacity: usize,
    /// Number of *extra* physical read attempts made when a fetch fails
    /// with a transient error (see [`StorageError::is_transient`]).
    read_retries: u32,
    /// Page `id` lives in `shards[id % shards.len()]`.
    shards: Box<[Shard]>,
    stats: Arc<IoStats>,
}

/// Default number of transient-read retries per fetch (so a fetch makes at
/// most `1 + DEFAULT_READ_RETRIES` physical attempts).
pub const DEFAULT_READ_RETRIES: u32 = 2;

/// Fewest pages an LRU shard holds: pools smaller than twice this stay one
/// exact LRU.
const MIN_SHARD_PAGES: usize = 64;

/// Most LRU shards a pool is split into.
const MAX_SHARDS: usize = 16;

/// Base backoff before the first retry; each further retry doubles it. The
/// wait is spin-based (like [`crate::SimulatedDiskStore`]) so the schedule
/// is deterministic at microsecond scale.
const RETRY_BACKOFF_BASE_US: u64 = 50;

/// Slab index standing in for "no node".
const NIL: u32 = u32::MAX;

/// One LRU shard behind its own lock, padded so that no two shards (and
/// nothing else) share a cache line.
#[repr(align(128))]
struct Shard(Mutex<LruShard>);

struct Node {
    /// Pages are `Arc`d so a read can take a reference out of the critical
    /// section with one atomic bump — parallel verification workers must not
    /// serialize on the shard lock for the duration of their posting-byte
    /// copies.
    page: Arc<Page>,
    id: PageId,
    prev: u32,
    next: u32,
}

struct LruShard {
    /// Pages this shard may hold.
    capacity: usize,
    /// page id -> slab index of its node.
    map: HashMap<PageId, u32>,
    /// Node slab; the recency list is threaded through `prev`/`next`. The
    /// slab never shrinks below the shard capacity: eviction reuses the
    /// victim's slot in place and [`BufferPool::clear`] empties it wholesale.
    nodes: Vec<Node>,
    /// Most recently used node, or [`NIL`].
    head: u32,
    /// Least recently used node (the eviction victim), or [`NIL`].
    tail: u32,
    /// Fetches currently being performed by a leader thread.
    in_flight: HashMap<PageId, Arc<InFlight>>,
}

/// Rendezvous point for threads waiting on a page another thread is
/// currently fetching. `std::sync` primitives are used directly because the
/// `parking_lot` shim has no condition variables.
struct InFlight {
    /// `None` while the fetch is in progress; `Some(Some(page))` on success,
    /// `Some(None)` when the leader's read failed (followers then retry on
    /// their own).
    slot: StdMutex<Option<Option<Arc<Page>>>>,
    ready: Condvar,
    /// Set by a [`BufferPool::write_page`] that landed while this fetch was
    /// in flight: the leader's bytes may predate the write, so they must not
    /// be cached. Written and read only under the shard lock, which orders
    /// the two (hence `Relaxed`).
    stale: AtomicBool,
}

impl InFlight {
    fn new() -> Self {
        Self {
            slot: StdMutex::new(None),
            ready: Condvar::new(),
            stale: AtomicBool::new(false),
        }
    }

    fn publish(&self, page: Option<Arc<Page>>) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(page);
        self.ready.notify_all();
    }

    fn wait(&self) -> Option<Arc<Page>> {
        let mut guard = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            in_flight: HashMap::new(),
        }
    }

    /// Detaches a node from the recency list (it stays in the slab).
    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let node = &self.nodes[idx as usize];
            (node.prev, node.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Prepends a detached node at the most-recently-used position.
    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let node = &mut self.nodes[idx as usize];
            node.prev = NIL;
            node.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Refreshes a resident page's recency and returns it. O(1).
    fn touch(&mut self, id: PageId) -> Option<Arc<Page>> {
        let idx = *self.map.get(&id)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(Arc::clone(&self.nodes[idx as usize].page))
    }

    /// Inserts (or refreshes) a page, evicting the LRU victim when full.
    /// O(1): the victim is the list tail, its slab slot is reused in place.
    fn insert(&mut self, id: PageId, page: Arc<Page>) {
        if let Some(&idx) = self.map.get(&id) {
            self.nodes[idx as usize].page = page;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return;
        }
        let idx = if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let node = &mut self.nodes[victim as usize];
            self.map.remove(&node.id);
            node.page = page;
            node.id = id;
            victim
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                page,
                id,
                prev: NIL,
                next: NIL,
            });
            idx
        };
        self.map.insert(id, idx);
        self.push_front(idx);
    }

    /// Drops every cached page (in-flight fetches are left alone).
    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// Number of LRU shards for a pool of `capacity` pages: one per
/// [`MIN_SHARD_PAGES`], between 1 and [`MAX_SHARDS`].
fn shard_count(capacity: usize) -> usize {
    (capacity / MIN_SHARD_PAGES).clamp(1, MAX_SHARDS)
}

impl<S: PageStore> BufferPool<S> {
    /// Creates a buffer pool caching up to `capacity` pages, with the
    /// default transient-read retry budget ([`DEFAULT_READ_RETRIES`]).
    pub fn new(store: S, capacity: usize) -> Self {
        Self::with_retries(store, capacity, DEFAULT_READ_RETRIES)
    }

    /// Creates a buffer pool with an explicit retry budget: a fetch whose
    /// physical read fails with a *transient* error (`EIO`-class, see
    /// [`StorageError::is_transient`]) is retried up to `read_retries`
    /// times with a deterministic doubling backoff before the failure is
    /// surfaced. `0` disables retries entirely.
    pub fn with_retries(store: S, capacity: usize, read_retries: u32) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        let stats = store.io_stats();
        let n = shard_count(capacity);
        // Spread the remainder over the first shards: capacities sum to
        // exactly `capacity`.
        let shards = (0..n)
            .map(|i| {
                let pages = capacity / n + usize::from(i < capacity % n);
                Shard(Mutex::new(LruShard::new(pages)))
            })
            .collect();
        Self {
            store,
            capacity,
            read_retries,
            shards,
            stats,
        }
    }

    /// The locked shard holding page `id`.
    fn shard(&self, id: PageId) -> MutexGuard<'_, LruShard> {
        self.shards[(id % self.shards.len() as u64) as usize]
            .0
            .lock()
    }

    /// The configured transient-read retry budget.
    pub fn read_retries(&self) -> u32 {
        self.read_retries
    }

    /// One physical read with the bounded transient-error retry loop. The
    /// backoff schedule is deterministic (50 µs, 100 µs, ... spin-waited),
    /// so a test scripting an ordinal-addressed fault observes the same
    /// attempt sequence on every run. Returns the page together with the
    /// number of attempts actually made.
    fn read_with_retries(&self, id: PageId) -> (Result<Page, StorageError>, u32) {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.store.read_page(id) {
                Ok(page) => return (Ok(page), attempt),
                Err(e) if e.is_transient() && attempt <= self.read_retries => {
                    Self::backoff(attempt);
                }
                Err(e) => return (Err(e), attempt),
            }
        }
    }

    /// Deterministic doubling backoff before retry number `attempt`.
    fn backoff(attempt: u32) {
        let wait = std::time::Duration::from_micros(RETRY_BACKOFF_BASE_US << (attempt - 1).min(10));
        let start = std::time::Instant::now();
        while start.elapsed() < wait {
            std::hint::spin_loop();
        }
    }

    /// The configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.shards.iter().map(|s| s.0.lock().map.len()).sum()
    }

    /// The shared I/O statistics handle (same as the underlying store's).
    pub fn io_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Access to the wrapped store (e.g. for allocation during bulk loads).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Allocates a new page in the underlying store.
    pub fn allocate(&self) -> StorageResult<PageId> {
        self.store.allocate()
    }

    /// Fetches a page through the cache, coalescing concurrent misses.
    /// The leader's physical read runs the bounded transient-retry loop
    /// ([`BufferPool::with_retries`]), so a one-shot `EIO` is absorbed
    /// without any waiter observing it.
    ///
    /// Failure contract: a failed physical read is **never** inserted into
    /// the cache and its in-flight entry is removed before the error is
    /// published, so every waiter observes the failure (directly or through
    /// its own retried read) and a later fetch goes back to the store
    /// instead of being served a phantom page. Errors are annotated with
    /// the page id, backend and attempt count ([`StorageError::PageRead`]).
    fn fetch(&self, id: PageId) -> StorageResult<Arc<Page>> {
        enum Role {
            Hit(Arc<Page>),
            Follower(Arc<InFlight>),
            Leader(Arc<InFlight>),
        }
        // A follower whose leader failed retries from the top (rare path);
        // iterative so a persistently failing page cannot grow the stack.
        loop {
            let role = {
                let mut shard = self.shard(id);
                if let Some(page) = shard.touch(id) {
                    Role::Hit(page)
                } else if let Some(pending) = shard.in_flight.get(&id) {
                    Role::Follower(Arc::clone(pending))
                } else {
                    let pending = Arc::new(InFlight::new());
                    shard.in_flight.insert(id, Arc::clone(&pending));
                    Role::Leader(pending)
                }
            };
            match role {
                Role::Hit(page) => {
                    self.stats.record_hit();
                    return Ok(page);
                }
                Role::Follower(pending) => match pending.wait() {
                    Some(page) => {
                        // Served from memory without touching the store: a hit.
                        self.stats.record_hit();
                        return Ok(page);
                    }
                    // Leader failed; retry independently.
                    None => continue,
                },
                Role::Leader(pending) => {
                    self.stats.record_miss();
                    let (result, attempts) = self.read_with_retries(id);
                    let mut shard = self.shard(id);
                    // A racing write already detached a stale entry (and a
                    // later fetch may have registered its own since).
                    let stale = pending.stale.load(Ordering::Relaxed);
                    if !stale {
                        shard.in_flight.remove(&id);
                    }
                    match result {
                        Ok(page) => {
                            let page = Arc::new(page);
                            if !stale {
                                shard.insert(id, Arc::clone(&page));
                            }
                            drop(shard);
                            pending.publish(Some(page.clone()));
                            return Ok(page);
                        }
                        Err(e) => {
                            drop(shard);
                            pending.publish(None);
                            return Err(StorageError::page_read(
                                id,
                                self.store.backend_name(),
                                attempts,
                                e,
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Runs `f` against a page without handing out an owned copy: on a cache
    /// hit the pooled page is retained with one `Arc` bump (no allocation,
    /// no byte copy) and the closure runs *outside* the shard lock, so
    /// parallel verification workers never serialize on each other's reads.
    /// This is the backbone of the query hot path — posting reads copy the
    /// bytes they need straight into a caller-owned scratch buffer.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        let page = self.fetch(id)?;
        Ok(f(&page))
    }

    /// Reads a page through the cache.
    pub fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.with_page(id, |page| page.clone())
    }

    /// Writes a page through the cache (write-through: the underlying store
    /// is updated immediately and the cached copy refreshed). A fetch of the
    /// page still in flight is marked stale so its possibly pre-write bytes
    /// are never cached (see the type docs).
    pub fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
        self.store.write_page(id, page)?;
        let mut shard = self.shard(id);
        if let Some(pending) = shard.in_flight.remove(&id) {
            pending.stale.store(true, Ordering::Relaxed);
        }
        if shard.map.contains_key(&id) {
            shard.insert(id, Arc::new(page.clone()));
        }
        Ok(())
    }

    /// Drops every cached page (counters are unaffected).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.0.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagestore::{InMemoryPageStore, SimulatedDiskStore};
    use std::time::Duration;

    fn store_with_pages(n: u64) -> InMemoryPageStore {
        let store = InMemoryPageStore::new();
        for i in 0..n {
            let id = store.allocate().unwrap();
            let mut page = Page::zeroed();
            page.bytes_mut()[0] = i as u8;
            store.write_page(id, &page).unwrap();
        }
        store.io_stats().reset();
        store
    }

    #[test]
    fn hit_after_first_read() {
        let pool = BufferPool::new(store_with_pages(4), 4);
        pool.read_page(0).unwrap();
        pool.read_page(0).unwrap();
        pool.read_page(0).unwrap();
        let snap = pool.io_stats().snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.page_reads, 1);
    }

    #[test]
    fn eviction_respects_lru_order() {
        let pool = BufferPool::new(store_with_pages(3), 2);
        pool.read_page(0).unwrap();
        pool.read_page(1).unwrap();
        // Touch page 0 so page 1 becomes the LRU victim.
        pool.read_page(0).unwrap();
        pool.read_page(2).unwrap(); // evicts 1
        pool.io_stats().reset();
        pool.read_page(0).unwrap(); // hit
        pool.read_page(1).unwrap(); // miss (was evicted)
        let snap = pool.io_stats().snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn cache_never_exceeds_capacity() {
        let pool = BufferPool::new(store_with_pages(10), 3);
        for i in 0..10 {
            pool.read_page(i).unwrap();
            assert!(pool.cached_pages() <= 3);
        }
    }

    #[test]
    fn write_through_updates_cache_and_store() {
        let pool = BufferPool::new(store_with_pages(1), 2);
        pool.read_page(0).unwrap();
        let mut page = Page::zeroed();
        page.bytes_mut()[0] = 99;
        pool.write_page(0, &page).unwrap();
        // Cached copy must reflect the write.
        let cached = pool.read_page(0).unwrap();
        assert_eq!(cached.bytes()[0], 99);
        // And the underlying store as well.
        let direct = pool.store().read_page(0).unwrap();
        assert_eq!(direct.bytes()[0], 99);
    }

    #[test]
    fn clear_forces_misses() {
        let pool = BufferPool::new(store_with_pages(2), 2);
        pool.read_page(0).unwrap();
        pool.read_page(1).unwrap();
        pool.clear();
        assert_eq!(pool.cached_pages(), 0);
        pool.io_stats().reset();
        pool.read_page(0).unwrap();
        assert_eq!(pool.io_stats().snapshot().cache_misses, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BufferPool::new(InMemoryPageStore::new(), 0);
    }

    #[test]
    fn read_values_are_correct_after_eviction_churn() {
        let pool = BufferPool::new(store_with_pages(20), 4);
        for round in 0..3 {
            for i in 0..20u64 {
                let page = pool.read_page(i).unwrap();
                assert_eq!(page.bytes()[0], i as u8, "round {round}");
            }
        }
    }

    /// The heart of the coalescing fix: many threads missing the same page
    /// at once must issue exactly one physical read — the previous pool let
    /// every thread fetch and double-count `page_reads`.
    #[test]
    fn concurrent_misses_coalesce_to_one_read() {
        // A slow store keeps the fetch in flight long enough for every
        // thread to pile up on the same page.
        let slow = SimulatedDiskStore::with_latency(
            store_with_pages(1),
            Duration::from_millis(20),
            Duration::ZERO,
        );
        let pool = BufferPool::new(slow, 4);
        std::thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(move || {
                        let page = pool.read_page(0).unwrap();
                        assert_eq!(page.bytes()[0], 0);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let snap = pool.io_stats().snapshot();
        assert_eq!(snap.page_reads, 1, "exactly one physical read");
        assert_eq!(snap.cache_misses, 1, "exactly one miss (the leader)");
        assert_eq!(snap.cache_hits, 7, "followers are served from memory");
    }

    /// Coalescing across different pages must not serialize: concurrent
    /// fetches of distinct pages still each read once.
    #[test]
    fn distinct_pages_fetch_independently() {
        let pool = BufferPool::new(store_with_pages(8), 8);
        std::thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..8u64)
                .map(|i| {
                    scope.spawn(move || {
                        let page = pool.read_page(i).unwrap();
                        assert_eq!(page.bytes()[0], i as u8);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let snap = pool.io_stats().snapshot();
        assert_eq!(snap.page_reads, 8);
        assert_eq!(snap.cache_misses, 8);
    }

    /// A failed leader read must not poison followers: they fall back to
    /// their own fetch (which fails the same way for a truly missing page).
    #[test]
    fn leader_failure_propagates_as_error() {
        let pool = BufferPool::new(store_with_pages(1), 4);
        assert!(pool.read_page(5).is_err());
        // The in-flight entry is cleaned up: a later valid read still works.
        assert_eq!(pool.read_page(0).unwrap().bytes()[0], 0);
    }

    /// The intrusive-list LRU agrees with a naive reference model over a
    /// long pseudo-random access sequence (unlink/push_front/evict paths all
    /// exercised).
    #[test]
    fn intrusive_lru_matches_reference_model() {
        let pool = BufferPool::new(store_with_pages(32), 5);
        let mut model: Vec<u64> = Vec::new(); // most recent at the back
        let mut state = 0x1234_5678_u64;
        for round in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (state >> 33) % 32;
            assert_eq!(pool.read_page(id).unwrap().bytes()[0], id as u8);
            model.retain(|x| *x != id);
            model.push(id);
            if model.len() > 5 {
                model.remove(0);
            }
            assert_eq!(pool.cached_pages(), model.len(), "round {round}");
        }
        // Every page the model says is resident must be served as a hit.
        pool.io_stats().reset();
        for &id in &model {
            pool.read_page(id).unwrap();
        }
        assert_eq!(
            pool.io_stats().snapshot().cache_misses,
            0,
            "model and pool disagree on residency"
        );
    }

    /// Regression (fault-injection): when a coalesced fetch fails, the page
    /// must NOT be cached, every concurrent waiter must observe the error
    /// (directly or through its own retried read against the dead disk),
    /// and — once the disk recovers — a later retry must go back to the
    /// store instead of being served a phantom cached page.
    #[test]
    fn failed_coalesced_fetch_is_not_cached_and_waiters_all_error() {
        use crate::fault::FaultInjectingPageStore;

        let inner = store_with_pages(1);
        let faulty = FaultInjectingPageStore::with_seed(Box::new(inner), 7);
        let ctl = faulty.controller();
        // A dead disk with enough per-read latency that all threads pile up
        // on the same in-flight fetch before the leader's read fails.
        ctl.fail_reads_from(0);
        ctl.set_read_latency(Duration::from_millis(20));
        let pool = BufferPool::new(faulty, 4);

        let results: Vec<StorageResult<Arc<Page>>> = std::thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(move || pool.fetch(0))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, r) in results.iter().enumerate() {
            let err = r.as_ref().expect_err("waiter must observe the failure");
            assert!(
                matches!(err, StorageError::PageRead { page: 0, .. }),
                "waiter {i}: failed fetch must be annotated with the page id, got {err}"
            );
            assert!(
                err.to_string().contains("injected EIO"),
                "waiter {i}: {err}"
            );
        }
        assert_eq!(pool.cached_pages(), 0, "a failed fetch must not be cached");

        // Disk recovers: the retry must hit the store again (a physical
        // read, not a cache hit on a phantom page).
        ctl.clear();
        let physical_before = pool.io_stats().snapshot().page_reads;
        let page = pool.read_page(0).expect("retry after recovery");
        assert_eq!(page.bytes()[0], 0);
        assert!(
            pool.io_stats().snapshot().page_reads > physical_before,
            "retry after a failed fetch must re-read from disk"
        );
    }

    /// With retries disabled, a one-shot fault on the leader's read leaves
    /// followers able to recover on their own retried read — and exactly
    /// one of the retries repopulates the cache.
    #[test]
    fn followers_recover_when_only_the_leader_read_faults() {
        use crate::fault::{FaultInjectingPageStore, ReadFault};

        let inner = store_with_pages(1);
        let faulty = FaultInjectingPageStore::with_seed(Box::new(inner), 3);
        let ctl = faulty.controller();
        ctl.fail_read_at(0, ReadFault::Eio); // only the first physical read
        ctl.set_read_latency(Duration::from_millis(20));
        let pool = BufferPool::with_retries(faulty, 4, 0);

        let results: Vec<StorageResult<Arc<Page>>> = std::thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..6).map(|_| scope.spawn(move || pool.fetch(0))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The leader fails; every follower retries and succeeds on read #1+.
        let failures = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(failures, 1, "exactly the leader observes the one-shot EIO");
        for r in results.iter().filter(|r| r.is_ok()) {
            assert_eq!(r.as_ref().unwrap().bytes()[0], 0);
        }
        assert_eq!(pool.cached_pages(), 1, "the successful retry is cached");
    }

    /// The automatic retry absorbs a transient one-shot `EIO`: the fetch
    /// succeeds, the caller never sees the fault, and the extra physical
    /// attempt is observable through the fault controller.
    #[test]
    fn transient_eio_is_absorbed_by_the_retry_budget() {
        use crate::fault::{FaultInjectingPageStore, ReadFault};

        let inner = store_with_pages(1);
        let faulty = FaultInjectingPageStore::with_seed(Box::new(inner), 9);
        let ctl = faulty.controller();
        ctl.fail_read_at(0, ReadFault::Eio);
        let pool = BufferPool::new(faulty, 4); // default retry budget
        let page = pool.read_page(0).expect("retry must absorb the EIO");
        assert_eq!(page.bytes()[0], 0);
        assert_eq!(ctl.reads_observed(), 2, "one failed + one retried read");
        assert_eq!(pool.cached_pages(), 1, "the retried read is cached");
        // Two consecutive one-shot faults still fit the default budget.
        pool.clear();
        ctl.fail_read_at(2, ReadFault::Eio);
        ctl.fail_read_at(3, ReadFault::Eio);
        assert!(pool.read_page(0).is_ok());
        assert_eq!(ctl.reads_observed(), 5);
    }

    /// A persistent fault exhausts the budget and surfaces annotated with
    /// the attempt count; non-transient errors are not retried at all.
    #[test]
    fn persistent_eio_exhausts_budget_and_corrupt_is_not_retried() {
        use crate::fault::FaultInjectingPageStore;

        let inner = store_with_pages(1);
        let faulty = FaultInjectingPageStore::with_seed(Box::new(inner), 13);
        let ctl = faulty.controller();
        ctl.fail_reads_from(0); // dead disk
        let pool = BufferPool::with_retries(faulty, 4, 2);
        let err = pool.read_page(0).unwrap_err();
        match &err {
            StorageError::PageRead { page, attempts, .. } => {
                assert_eq!(*page, 0);
                assert_eq!(*attempts, 3, "budget of 2 retries = 3 attempts");
            }
            other => panic!("expected PageRead annotation, got {other}"),
        }
        assert!(err.to_string().contains("after 3 attempts"), "{err}");
        assert_eq!(ctl.reads_observed(), 3);
        // Out-of-bounds is permanent: exactly one attempt.
        ctl.clear();
        let before = ctl.reads_observed();
        assert!(pool.read_page(9).is_err());
        assert_eq!(
            ctl.reads_observed(),
            before + 1,
            "non-transient failures must not burn the retry budget"
        );
    }

    /// Recency order survives the intrusive list: heavy touch traffic keeps the
    /// hottest pages resident.
    #[test]
    fn frequently_touched_pages_survive_churn() {
        let pool = BufferPool::new(store_with_pages(10), 3);
        pool.read_page(0).unwrap();
        for i in 1..10u64 {
            pool.read_page(i).unwrap();
            pool.read_page(0).unwrap(); // keep page 0 hot
        }
        pool.io_stats().reset();
        pool.read_page(0).unwrap();
        assert_eq!(
            pool.io_stats().snapshot().cache_hits,
            1,
            "hot page must still be resident"
        );
    }

    /// A store whose first read copies the page and *then* stalls until the
    /// test releases it, so a write can land between the copy and the fetch
    /// completing. Later reads are not gated.
    struct StallAfterCopy {
        inner: InMemoryPageStore,
        armed: std::sync::atomic::AtomicBool,
        copied: std::sync::Barrier,
        release: std::sync::Barrier,
    }

    impl PageStore for StallAfterCopy {
        fn allocate(&self) -> StorageResult<PageId> {
            self.inner.allocate()
        }
        fn read_page(&self, id: PageId) -> StorageResult<Page> {
            let page = self.inner.read_page(id)?;
            if self.armed.swap(false, Ordering::SeqCst) {
                self.copied.wait();
                self.release.wait();
            }
            Ok(page)
        }
        fn write_page(&self, id: PageId, page: &Page) -> StorageResult<()> {
            self.inner.write_page(id, page)
        }
        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }
        fn flush(&self) -> StorageResult<()> {
            Ok(())
        }
        fn io_stats(&self) -> Arc<IoStats> {
            self.inner.io_stats()
        }
    }

    /// Regression: a write landing while a miss on the same page is in
    /// flight used to leave the leader's pre-write copy in the pool (the
    /// write only refreshed resident pages), so every later read returned
    /// the old bytes — the delta-tail append racing a query's miss.
    #[test]
    fn write_during_in_flight_miss_does_not_cache_stale_bytes() {
        let pool = BufferPool::new(
            StallAfterCopy {
                inner: store_with_pages(1),
                armed: std::sync::atomic::AtomicBool::new(true),
                copied: std::sync::Barrier::new(2),
                release: std::sync::Barrier::new(2),
            },
            4,
        );
        let mut written = Page::zeroed();
        written.bytes_mut()[0] = 42;
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| pool.read_page(0).unwrap());
            pool.store().copied.wait(); // the leader holds the old bytes
            pool.write_page(0, &written).unwrap();
            // A read issued after the write must not join the stale fetch.
            let after_write = scope.spawn(|| pool.read_page(0).unwrap());
            pool.store().release.wait();
            assert_eq!(after_write.join().unwrap().bytes()[0], 42);
            // The leader's read overlapped the write; it returns its copy.
            assert_eq!(leader.join().unwrap().bytes()[0], 0);
        });
        assert_eq!(pool.store().read_page(0).unwrap().bytes()[0], 42);
        assert_eq!(
            pool.read_page(0).unwrap().bytes()[0],
            42,
            "the pool must not serve the pre-write copy"
        );
    }

    #[test]
    fn shard_count_is_derived_from_capacity() {
        for (capacity, shards) in [
            (1, 1),
            (64, 1),
            (127, 1),
            (128, 2),
            (1000, 15),
            (1 << 20, 16),
        ] {
            let pool = BufferPool::new(InMemoryPageStore::new(), capacity);
            assert_eq!(pool.shards.len(), shards, "capacity {capacity}");
            let total: usize = pool.shards.iter().map(|s| s.0.lock().capacity).sum();
            assert_eq!(total, capacity, "shard capacities sum to the pool's");
        }
    }

    /// A pool large enough to shard is an exact LRU per shard: one
    /// reference model per shard, pages routed by `id % shards`.
    #[test]
    fn sharded_lru_matches_one_reference_model_per_shard() {
        const PAGES: u64 = 1024;
        let pool = BufferPool::new(store_with_pages(PAGES), 256);
        let shards = pool.shards.len();
        assert_eq!(shards, 4);
        let per_shard = 256 / shards;
        let mut models: Vec<Vec<u64>> = vec![Vec::new(); shards]; // most recent at the back
        let mut state = 0x9E37_79B9_u64;
        for round in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Skewed toward low ids so hits and evictions both happen.
            let id = ((state >> 33) % PAGES) % (1 + (state >> 20) % PAGES);
            assert_eq!(pool.read_page(id).unwrap().bytes()[0], id as u8);
            let model = &mut models[(id % shards as u64) as usize];
            model.retain(|x| *x != id);
            model.push(id);
            if model.len() > per_shard {
                model.remove(0);
            }
            if round % 97 == 0 {
                let resident: usize = models.iter().map(Vec::len).sum();
                assert_eq!(pool.cached_pages(), resident, "round {round}");
            }
        }
        pool.io_stats().reset();
        for id in models.iter().flatten() {
            pool.read_page(*id).unwrap();
        }
        assert_eq!(
            pool.io_stats().snapshot().cache_misses,
            0,
            "models and pool disagree on residency"
        );
    }

    #[test]
    fn residency_never_exceeds_capacity_under_churn() {
        const CAPACITY: usize = 1000;
        let pages = 4 * CAPACITY as u64;
        let pool = BufferPool::new(store_with_pages(pages), CAPACITY);
        for round in 0..2 {
            for id in 0..pages {
                assert_eq!(pool.read_page(id).unwrap().bytes()[0], id as u8);
                if id % 50 == 0 {
                    assert!(pool.cached_pages() <= CAPACITY, "round {round} page {id}");
                }
            }
            // Every shard saw more pages than it holds, so all are full.
            assert_eq!(pool.cached_pages(), CAPACITY);
        }
    }

    /// Counters stay exact across shards and threads: every request is one
    /// hit or one miss, and every miss is one physical read.
    #[test]
    fn concurrent_mixed_traffic_keeps_counters_exact() {
        const THREADS: u64 = 4;
        const REQUESTS: u64 = 5_000;
        const PAGES: u64 = 1024;
        let pool = BufferPool::new(store_with_pages(PAGES), 256);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pool = &pool;
                scope.spawn(move || {
                    let mut state = 0x1234_5678 ^ t;
                    for _ in 0..REQUESTS {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        // Half the traffic on a hot set that stays resident.
                        let id = if state >> 63 == 0 {
                            (state >> 33) % 64
                        } else {
                            (state >> 33) % PAGES
                        };
                        assert_eq!(pool.read_page(id).unwrap().bytes()[0], id as u8);
                    }
                });
            }
        });
        let snap = pool.io_stats().snapshot();
        assert_eq!(snap.cache_hits + snap.cache_misses, THREADS * REQUESTS);
        assert_eq!(snap.page_reads, snap.cache_misses);
        assert!(snap.cache_hits > 0 && snap.cache_misses > 0, "{snap:?}");
        assert!(pool.cached_pages() <= 256);
    }
}
