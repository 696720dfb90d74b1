//! Shared I/O statistics.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of counter stripes per [`IoStats`].
const STRIPES: usize = 16;

/// Atomic I/O counters shared between a page store, its buffer pool and the
/// query processing code.
///
/// The paper evaluates algorithms by running time, which on the original
/// system is dominated by trajectory-posting disk reads. Tracking page reads
/// and buffer-pool hits lets the benchmark harness report both wall time and
/// the underlying I/O volume, making the ES vs SQMB+TBS comparison
/// reproducible even on machines where everything fits in RAM.
///
/// # Striping
///
/// Every warm posting read records a cache hit and a decode, from every
/// verification worker at once. A single set of atomics would put all of
/// those increments on one cache line that the workers keep stealing from
/// each other. Instead each thread increments its own **stripe** — a full
/// copy of the counters padded to its own cache line, chosen once per thread
/// round-robin — and [`IoStats::snapshot`] sums the stripes. Increments are
/// still atomic adds, so the sums are exact; [`IoStats::reset`] zeroes every
/// stripe (a reset racing live increments may keep some of them).
#[derive(Default)]
pub struct IoStats {
    stripes: [Stripe; STRIPES],
}

/// One thread's share of the counters, alone on its cache line (128 bytes:
/// adjacent-line prefetchers pull 64-byte lines in pairs).
#[derive(Default)]
#[repr(align(128))]
struct Stripe {
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    bytes_decoded: AtomicU64,
    bytes_resident: AtomicU64,
}

/// Hands each thread its stripe index, round-robin in order of first use.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

impl std::fmt::Debug for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("IoStats").field(&self.snapshot()).finish()
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStatsSnapshot {
    /// Number of pages read from the underlying store (cache misses included).
    pub page_reads: u64,
    /// Number of pages written to the underlying store.
    pub page_writes: u64,
    /// Number of page requests served from the buffer pool.
    pub cache_hits: u64,
    /// Number of page requests that had to go to the underlying store.
    pub cache_misses: u64,
    /// Logical (fixed-width-equivalent) bytes produced by posting decodes:
    /// the size each decoded time list *would* occupy uncompressed.
    pub bytes_decoded: u64,
    /// Encoded bytes actually resident on disk / in the buffer pool for
    /// those same posting decodes. `bytes_decoded / bytes_resident` is the
    /// per-query compression win.
    pub bytes_resident: u64,
}

impl IoStats {
    /// Creates a fresh, zeroed counter set behind an [`Arc`].
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The calling thread's stripe.
    #[inline]
    fn stripe(&self) -> &Stripe {
        &self.stripes[THREAD_STRIPE.with(|i| *i)]
    }

    /// Records `n` physical page reads.
    #[inline]
    pub fn record_reads(&self, n: u64) {
        self.stripe().page_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` physical page writes.
    #[inline]
    pub fn record_writes(&self, n: u64) {
        self.stripe().page_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a buffer-pool hit.
    #[inline]
    pub fn record_hit(&self) {
        self.stripe().cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a buffer-pool miss.
    #[inline]
    pub fn record_miss(&self) {
        self.stripe().cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one posting decode: `decoded` logical fixed-width bytes
    /// reconstructed from `resident` encoded bytes (the compression win is
    /// `decoded / resident`). The paper's PAPERS.md survey notes that page
    /// counts alone hide this — a compressed heap reads fewer pages *and*
    /// fewer bytes per page touched.
    #[inline]
    pub fn record_posting_decode(&self, decoded: u64, resident: u64) {
        let stripe = self.stripe();
        stripe.bytes_decoded.fetch_add(decoded, Ordering::Relaxed);
        stripe.bytes_resident.fetch_add(resident, Ordering::Relaxed);
    }

    /// Takes a snapshot of the current counter values (the sum over all
    /// stripes).
    pub fn snapshot(&self) -> IoStatsSnapshot {
        let mut total = IoStatsSnapshot::default();
        for s in &self.stripes {
            total.page_reads += s.page_reads.load(Ordering::Relaxed);
            total.page_writes += s.page_writes.load(Ordering::Relaxed);
            total.cache_hits += s.cache_hits.load(Ordering::Relaxed);
            total.cache_misses += s.cache_misses.load(Ordering::Relaxed);
            total.bytes_decoded += s.bytes_decoded.load(Ordering::Relaxed);
            total.bytes_resident += s.bytes_resident.load(Ordering::Relaxed);
        }
        total
    }

    /// Resets all counters (every stripe) to zero.
    pub fn reset(&self) {
        for s in &self.stripes {
            s.page_reads.store(0, Ordering::Relaxed);
            s.page_writes.store(0, Ordering::Relaxed);
            s.cache_hits.store(0, Ordering::Relaxed);
            s.cache_misses.store(0, Ordering::Relaxed);
            s.bytes_decoded.store(0, Ordering::Relaxed);
            s.bytes_resident.store(0, Ordering::Relaxed);
        }
    }
}

impl std::ops::Add for IoStatsSnapshot {
    type Output = IoStatsSnapshot;

    /// Counter-wise sum: the I/O of two spans of one query.
    fn add(self, other: IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            page_reads: self.page_reads + other.page_reads,
            page_writes: self.page_writes + other.page_writes,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            bytes_decoded: self.bytes_decoded + other.bytes_decoded,
            bytes_resident: self.bytes_resident + other.bytes_resident,
        }
    }
}

impl IoStatsSnapshot {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn delta_since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            bytes_decoded: self.bytes_decoded.saturating_sub(earlier.bytes_decoded),
            bytes_resident: self.bytes_resident.saturating_sub(earlier.bytes_resident),
        }
    }

    /// Compression win of the postings touched: logical decoded bytes per
    /// encoded resident byte. Returns 1.0 when nothing was decoded.
    pub fn decode_ratio(&self) -> f64 {
        if self.bytes_resident == 0 {
            1.0
        } else {
            self.bytes_decoded as f64 / self.bytes_resident as f64
        }
    }

    /// Fraction of page requests served from the cache, in `[0, 1]`.
    /// Returns 1.0 when there were no requests at all.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::default();
        s.record_reads(3);
        s.record_writes(2);
        s.record_hit();
        s.record_hit();
        s.record_miss();
        let snap = s.snapshot();
        assert_eq!(snap.page_reads, 3);
        assert_eq!(snap.page_writes, 2);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::default();
        s.record_reads(5);
        s.record_miss();
        s.reset();
        assert_eq!(s.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn delta_since_subtracts() {
        let s = IoStats::default();
        s.record_reads(5);
        let t0 = s.snapshot();
        s.record_reads(7);
        s.record_hit();
        let t1 = s.snapshot();
        let d = t1.delta_since(&t0);
        assert_eq!(d.page_reads, 7);
        assert_eq!(d.cache_hits, 1);
    }

    #[test]
    fn posting_decode_bytes_accumulate_and_reset() {
        let s = IoStats::default();
        s.record_posting_decode(100, 40);
        s.record_posting_decode(50, 10);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_decoded, 150);
        assert_eq!(snap.bytes_resident, 50);
        assert!((snap.decode_ratio() - 3.0).abs() < 1e-12);
        let d = snap.delta_since(&IoStatsSnapshot {
            bytes_decoded: 100,
            bytes_resident: 40,
            ..Default::default()
        });
        assert_eq!(d.bytes_decoded, 50);
        assert_eq!(d.bytes_resident, 10);
        s.reset();
        let zero = s.snapshot();
        assert_eq!(zero, IoStatsSnapshot::default());
        assert_eq!(zero.decode_ratio(), 1.0);
    }

    #[test]
    fn hit_ratio_edge_cases() {
        let empty = IoStatsSnapshot::default();
        assert_eq!(empty.hit_ratio(), 1.0);
        let half = IoStatsSnapshot {
            cache_hits: 5,
            cache_misses: 5,
            ..Default::default()
        };
        assert!((half.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_handle_is_cloneable_across_threads() {
        let s = IoStats::new_shared();
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            for _ in 0..100 {
                s2.record_reads(1);
            }
        });
        for _ in 0..100 {
            s.record_writes(1);
        }
        h.join().unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.page_reads, 100);
        assert_eq!(snap.page_writes, 100);
    }

    /// More threads than stripes, every counter incremented concurrently:
    /// the summed snapshot is exact, and `reset` clears every stripe.
    #[test]
    fn striped_increments_sum_exactly_and_reset_clears_every_stripe() {
        const THREADS: u64 = 2 * STRIPES as u64 + 3;
        const INCREMENTS: u64 = 2_000;
        let s = IoStats::new_shared();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..INCREMENTS {
                        s.record_reads(1);
                        s.record_writes(2);
                        s.record_hit();
                        s.record_miss();
                        s.record_posting_decode(t + 1, 1);
                    }
                });
            }
        });
        let n = THREADS * INCREMENTS;
        let snap = s.snapshot();
        assert_eq!(snap.page_reads, n);
        assert_eq!(snap.page_writes, 2 * n);
        assert_eq!(snap.cache_hits, n);
        assert_eq!(snap.cache_misses, n);
        assert_eq!(snap.bytes_decoded, INCREMENTS * THREADS * (THREADS + 1) / 2);
        assert_eq!(snap.bytes_resident, n);
        s.reset();
        assert_eq!(s.snapshot(), IoStatsSnapshot::default());
    }
}
