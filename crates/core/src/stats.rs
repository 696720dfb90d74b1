//! Per-query runtime and I/O statistics.

use std::time::Duration;

use streach_storage::IoStatsSnapshot;

/// Measurements collected while answering one query.
///
/// The paper's efficiency metric is the query-processing running time; this
/// struct additionally records the page I/O and the number of probability
/// verifications (each verification reads trajectory postings from disk),
/// which explains *why* one algorithm beats another.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Wall-clock time spent answering the query; in a batch, its own
    /// stages, not the time it waited behind other members.
    pub wall_time: Duration,
    /// Time spent computing the bounding regions (SQMB/MQMB Con-Index hops,
    /// or the network expansion for the ES baseline) — the expansions only.
    pub bounding_time: Duration,
    /// Time spent verifying candidate segments against the trajectory
    /// postings (the stage the indexes exist to shrink, and the stage that
    /// runs on all cores): the verifier core's construction, which reads the
    /// start segment's postings, plus the annulus (or ES candidate) reads.
    pub verify_time: Duration,
    /// Page I/O performed while answering the query (delta over the query).
    pub io: IoStatsSnapshot,
    /// Number of road segments whose reachability probability was verified
    /// against the trajectory postings — the segments actually read. 0 when
    /// the start segment decided the query: its active days cannot reach
    /// Prob, so nothing is verified
    /// ([`VerifierCore::decided`](crate::query::verifier::VerifierCore::decided)).
    pub segments_verified: usize,
    /// Size of the maximum bounding region (0 for the ES baseline, which
    /// does not compute one). Equal to `min_bounding_size` when an
    /// SQMB+TBS s-query was decided: it runs the Near expansion only, so
    /// its maximum bound is its minimum bound. MQMB keeps its Far expansion
    /// and skips only the decided starts' batches.
    pub max_bounding_size: usize,
    /// Size of the minimum bounding region (0 for the ES baseline).
    pub min_bounding_size: usize,
    /// Number of road segments visited by network expansion (ES) or by the
    /// trace back search (SQMB+TBS).
    pub segments_visited: usize,
    /// The start's (day, trajectory) pairs the forward walk looked up,
    /// once per window slot read forward (see
    /// [`VerifierCore::view_pairs_walked`](crate::query::verifier::VerifierCore::view_pairs_walked)):
    /// an exact count, the same on any number of workers and shards for
    /// the same asks and folds.
    pub view_pairs_walked: u64,
}

impl QueryStats {
    /// Running time in milliseconds (convenience for reports).
    pub fn running_time_ms(&self) -> f64 {
        self.wall_time.as_secs_f64() * 1e3
    }

    /// Merges the statistics of several sub-queries (used when an m-query is
    /// answered as repeated s-queries): times and counters add up, while the
    /// bounding-region sizes keep the widest maximum and the tightest
    /// minimum seen by any sub-query. A `0` bounding size is the ES "no
    /// bounding region" sentinel, so it never wins the minimum: merging an
    /// ES sub-query with an SQMB one reports the SQMB bounds.
    pub fn merge(&self, other: &QueryStats) -> QueryStats {
        QueryStats {
            wall_time: self.wall_time + other.wall_time,
            bounding_time: self.bounding_time + other.bounding_time,
            verify_time: self.verify_time + other.verify_time,
            io: self.io + other.io,
            segments_verified: self.segments_verified + other.segments_verified,
            max_bounding_size: self.max_bounding_size.max(other.max_bounding_size),
            min_bounding_size: match (self.min_bounding_size, other.min_bounding_size) {
                (0, b) => b,
                (a, 0) => a,
                (a, b) => a.min(b),
            },
            segments_visited: self.segments_visited + other.segments_visited,
            view_pairs_walked: self.view_pairs_walked + other.view_pairs_walked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_time_conversion() {
        let s = QueryStats {
            wall_time: Duration::from_millis(250),
            ..Default::default()
        };
        assert!((s.running_time_ms() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counters() {
        let a = QueryStats {
            wall_time: Duration::from_millis(100),
            segments_verified: 5,
            segments_visited: 10,
            view_pairs_walked: 40,
            io: IoStatsSnapshot {
                page_reads: 3,
                cache_hits: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let b = QueryStats {
            wall_time: Duration::from_millis(50),
            segments_verified: 7,
            segments_visited: 20,
            view_pairs_walked: 2,
            io: IoStatsSnapshot {
                page_reads: 4,
                cache_misses: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.wall_time, Duration::from_millis(150));
        assert_eq!(m.segments_verified, 12);
        assert_eq!(m.segments_visited, 30);
        assert_eq!(m.view_pairs_walked, 42);
        assert_eq!(m.io.page_reads, 7);
        assert_eq!(m.io.cache_hits, 1);
        assert_eq!(m.io.cache_misses, 2);
    }

    #[test]
    fn merge_keeps_extreme_bounding_sizes() {
        let a = QueryStats {
            max_bounding_size: 120,
            min_bounding_size: 8,
            ..Default::default()
        };
        let b = QueryStats {
            max_bounding_size: 90,
            min_bounding_size: 15,
            ..Default::default()
        };
        let m = a.merge(&b);
        // Widest max, tightest min — NOT the sums (210 / 23).
        assert_eq!(m.max_bounding_size, 120);
        assert_eq!(m.min_bounding_size, 8);
        // Merge order must not matter.
        let n = b.merge(&a);
        assert_eq!(n.max_bounding_size, 120);
        assert_eq!(n.min_bounding_size, 8);
    }

    #[test]
    fn merge_treats_es_zero_as_no_bounding_region() {
        let es = QueryStats::default(); // ES reports 0 / 0: no bounding pass.
        let sqmb = QueryStats {
            max_bounding_size: 64,
            min_bounding_size: 12,
            ..Default::default()
        };
        // The ES sentinel never clamps the merged minimum to 0.
        let m = es.merge(&sqmb);
        assert_eq!(m.max_bounding_size, 64);
        assert_eq!(m.min_bounding_size, 12);
        let n = sqmb.merge(&es);
        assert_eq!(n.min_bounding_size, 12);
        // Two ES sub-queries still merge to the sentinel.
        let z = es.merge(&es);
        assert_eq!(z.max_bounding_size, 0);
        assert_eq!(z.min_bounding_size, 0);
    }

    #[test]
    fn merge_adds_decode_accounting() {
        let a = QueryStats {
            io: IoStatsSnapshot {
                bytes_decoded: 100,
                bytes_resident: 40,
                ..Default::default()
            },
            ..Default::default()
        };
        let b = QueryStats {
            io: IoStatsSnapshot {
                bytes_decoded: 50,
                bytes_resident: 20,
                ..Default::default()
            },
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.io.bytes_decoded, 150);
        assert_eq!(m.io.bytes_resident, 60);
        assert!((m.io.decode_ratio() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn default_is_zeroed() {
        let s = QueryStats::default();
        assert_eq!(s.segments_verified, 0);
        assert_eq!(s.running_time_ms(), 0.0);
    }
}
