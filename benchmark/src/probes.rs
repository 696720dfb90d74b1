//! Single-layer probes: short, quiesced, single-caller measurements of one
//! public function each. Only traced runs pay for them (set-up's table
//! builds excepted, which every run needs anyway).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use streach_core::prelude::*;
use streach_core::time::slot_of;
use streach_storage::{IoStats, Page, PageId, PageStore, StorageResult, Wal};

use crate::metrics::{self, ms, us};
use crate::workloads::Run;

/// Builds the Con-Index tables of `slots` one by one; returns each build's
/// duration in ms (already-cached slots are skipped).
pub fn build_tables(run: &mut Run<'_>, engine: &ReachabilityEngine, slots: &[u32]) -> Vec<f64> {
    let mut build_ms = Vec::new();
    for &slot in slots {
        let built = engine.con_index().stats().slots_built;
        let t0 = Instant::now();
        run.trace.span("con_index.build_slots", 0, |_| {
            engine.con_index().build_slots(&[slot])
        });
        if engine.con_index().stats().slots_built > built {
            build_ms.push(ms(t0.elapsed()));
        }
    }
    build_ms
}

/// `roadnet.locate_us`: `try_locate` of every query origin, p50.
pub fn locate(run: &mut Run<'_>, engine: &ReachabilityEngine, queries: &[SQuery]) {
    let samples: Vec<f64> = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            let located = std::hint::black_box(engine.try_locate(&q.location));
            let elapsed = us(t0.elapsed());
            assert!(located.is_ok(), "generated origins are on the network");
            elapsed
        })
        .collect();
    run.values
        .set("roadnet.locate_us", metrics::median(&samples));
}

/// `con_index.table_hit_us`: `slot_table` of a cached slot, p50.
pub fn table_hit(run: &mut Run<'_>, engine: &ReachabilityEngine, slot: u32) {
    engine.con_index().build_slots(&[slot]);
    let samples: Vec<f64> = (0..1000)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(engine.con_index().slot_table(slot));
            us(t0.elapsed())
        })
        .collect();
    run.values
        .set("con_index.table_hit_us", metrics::median(&samples));
}

/// Times `time_list` on each query's (start segment, start slot). With
/// `cold` the posting cache is dropped before every call, so each read
/// misses the pool; otherwise a first untimed round warms it.
pub fn time_lists(
    run: &mut Run<'_>,
    engine: &ReachabilityEngine,
    queries: &[SQuery],
    cold: bool,
) -> Vec<f64> {
    let slot_s = engine.config().slot_s;
    let keys: Vec<(SegmentId, u32)> = queries
        .iter()
        .take(200)
        .filter_map(|q| {
            let segment = engine.try_locate(&q.location).ok()?;
            Some((segment, slot_of(q.start_time_s, slot_s)))
        })
        .collect();
    let index = engine.st_index();
    if !cold {
        for &(segment, slot) in &keys {
            let _ = index.time_list(segment, slot);
        }
    }
    let name = if cold {
        "st_index.time_list(miss)"
    } else {
        "st_index.time_list(hit)"
    };
    let mut samples = Vec::new();
    for &(segment, slot) in &keys {
        if cold {
            index.clear_cache();
        }
        let t0 = Instant::now();
        let list = run.trace.span(name, 0, |_| {
            std::hint::black_box(index.time_list(segment, slot))
        });
        let elapsed = us(t0.elapsed());
        // Segments nobody drove in that slot have no list and read nothing.
        if matches!(list, Ok(Some(_))) {
            samples.push(elapsed);
        }
    }
    assert!(!samples.is_empty(), "no query origin has a time list");
    samples
}

/// Totals of a [`TimedStore`].
#[derive(Default)]
pub struct ReadClock {
    pub reads: AtomicU64,
    pub nanos: AtomicU64,
}

impl ReadClock {
    /// Mean µs per physical page read so far.
    pub fn mean_us(&self) -> f64 {
        let reads = self.reads.load(Ordering::Relaxed).max(1);
        self.nanos.load(Ordering::Relaxed) as f64 / reads as f64 / 1e3
    }
}

/// A `PageStore` wrapper that times `read_page` — installed under the buffer
/// pool through `open_snapshot_with_stores_and_backend`, so it sees exactly
/// the physical reads of the file or mmap backend.
pub struct TimedStore {
    inner: Box<dyn PageStore>,
    clock: Arc<ReadClock>,
}

impl TimedStore {
    pub fn wrap(inner: Box<dyn PageStore>, clock: Arc<ReadClock>) -> Box<dyn PageStore> {
        Box::new(Self { inner, clock })
    }
}

impl PageStore for TimedStore {
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        let t0 = Instant::now();
        let page = self.inner.read_page(id);
        self.clock
            .nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.reads.fetch_add(1, Ordering::Relaxed);
        page
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

/// `wal.append_us` / `wal.sync_ms`: `Wal::append` and `Wal::sync` timed
/// directly on a scratch log, with records of the size ingest writes.
pub fn wal(run: &mut Run<'_>, path: &Path, record_bytes: usize) {
    let (wal, _, _) = Wal::open(path).expect("open the scratch WAL");
    let payload = vec![0xA5u8; record_bytes.max(1)];
    let (mut append_us, mut sync_ms) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let t0 = Instant::now();
        run.trace
            .span("wal.append", 0, |_| wal.append(&payload))
            .expect("append to the scratch WAL");
        append_us.push(us(t0.elapsed()));
        let t0 = Instant::now();
        run.trace
            .span("wal.sync", 0, |_| wal.sync())
            .expect("sync the scratch WAL");
        sync_ms.push(ms(t0.elapsed()));
    }
    run.values.set("wal.append_us", metrics::median(&append_us));
    run.values.set("wal.sync_ms", metrics::median(&sync_ms));
}
