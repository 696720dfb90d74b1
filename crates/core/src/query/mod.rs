//! Query types and the query-processing algorithms.
//!
//! * [`SQuery`] / [`MQuery`] — single- and multi-location spatio-temporal
//!   reachability queries `q = (S, T, L, Prob)`,
//! * [`es`] — the exhaustive-search baseline,
//! * [`sqmb`] — the s-query maximum/minimum bounding region search
//!   (Algorithm 1),
//! * [`tbs`] — the trace back search (Algorithm 2),
//! * [`mqmb`] — the m-query maximum bounding region search (Algorithm 3),
//! * `pipeline` — the one procedure that runs them for every tier: locate,
//!   bound, verify, measure, and record what each answer read
//!   ([`ReadFootprint`]).

pub mod es;
pub mod mqmb;
pub(crate) mod pipeline;
pub mod reference;
pub mod sqmb;
pub mod tbs;
pub mod verifier;

pub use pipeline::{BatchAnswer, ReadFootprint};

use streach_geo::GeoPoint;

use crate::region::ReachableRegion;
use crate::stats::QueryStats;

/// A query that cannot be answered — as a value, not a panic, so a serving
/// process survives malformed requests, off-network locations **and disk
/// faults**: every posting read of the query hot path (from
/// [`streach_storage::PageStore`] through
/// [`verifier::VerifierCore::probabilities`] to
/// [`crate::ReachabilityEngine::try_s_query`] /
/// [`crate::ReachabilityEngine::try_m_query`]) is fallible, so an `EIO`,
/// a truncated page file or a torn page mid-query surfaces as
/// [`QueryError::Storage`] and the engine stays able to serve the next
/// fault-free query. The deterministic fault-injection harness
/// ([`streach_storage::FaultInjectingPageStore`], exercised by
/// `tests/fault_injection.rs`) drives every pipeline through scripted
/// failures to keep that guarantee honest.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query parameters are invalid (zero duration, probability outside
    /// `(0, 1]`, non-finite location, start time outside the day).
    InvalidQuery(String),
    /// A query location could not be matched to any road segment.
    LocationOffNetwork {
        /// Index of the offending location (always 0 for an s-query).
        index: usize,
        /// The location that failed to match.
        location: GeoPoint,
    },
    /// A posting read failed at the storage layer mid-query: a disk fault
    /// (EIO, truncation after open) or corrupted posting bytes (torn or
    /// zeroed page under a range-valid handle). Carries the faulting page
    /// id when the storage layer attributed one, plus the backend context.
    /// The query did **not** produce a region — a partial verification is
    /// never returned as if it were complete.
    Storage {
        /// Page id of the failed read, when known.
        page: Option<u64>,
        /// Rendered description of the underlying storage failure,
        /// including the backend it was reading from.
        context: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::InvalidQuery(reason) => write!(f, "invalid query: {reason}"),
            QueryError::LocationOffNetwork { index, location } => write!(
                f,
                "query location #{index} ({:.5}, {:.5}) cannot be matched to the road network",
                location.lon, location.lat
            ),
            QueryError::Storage { page, context } => match page {
                Some(page) => write!(f, "storage fault on page {page} mid-query: {context}"),
                None => write!(f, "storage fault mid-query: {context}"),
            },
        }
    }
}

impl std::error::Error for QueryError {}

impl From<streach_storage::StorageError> for QueryError {
    fn from(e: streach_storage::StorageError) -> Self {
        QueryError::Storage {
            page: e.page_id(),
            context: e.to_string(),
        }
    }
}

/// A single-location spatio-temporal reachability query
/// `q = (S, T, L, Prob)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SQuery {
    /// The query location `S = {s}`.
    pub location: GeoPoint,
    /// Start time `T`, in seconds after midnight.
    pub start_time_s: u32,
    /// Duration `L` in seconds.
    pub duration_s: u32,
    /// Reachability probability threshold `Prob ∈ (0, 1]`.
    pub prob: f64,
}

impl SQuery {
    /// End of the query window `T + L`. Values past the day length indicate
    /// a cross-midnight window, which the engine evaluates with wrap-around
    /// slot semantics (the day is treated as circular, like the indexes do).
    pub fn end_time_s(&self) -> u32 {
        self.start_time_s + self.duration_s
    }

    /// Validates the query parameters.
    pub fn validate(&self) -> Result<(), QueryError> {
        if !self.location.is_finite() {
            return Err(QueryError::InvalidQuery(
                "query location must be finite".into(),
            ));
        }
        if self.duration_s == 0 {
            return Err(QueryError::InvalidQuery(
                "query duration must be positive".into(),
            ));
        }
        if !(0.0 < self.prob && self.prob <= 1.0) {
            return Err(QueryError::InvalidQuery(format!(
                "probability must be in (0, 1], got {}",
                self.prob
            )));
        }
        if self.start_time_s >= streach_traj::SECONDS_PER_DAY {
            return Err(QueryError::InvalidQuery(
                "start time must be within one day".into(),
            ));
        }
        Ok(())
    }
}

/// A multi-location spatio-temporal reachability query
/// `q = ({s1, …, sn}, T, L, Prob)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MQuery {
    /// The query locations `S = {s1, …, sn}`.
    pub locations: Vec<GeoPoint>,
    /// Start time `T`, in seconds after midnight.
    pub start_time_s: u32,
    /// Duration `L` in seconds.
    pub duration_s: u32,
    /// Reachability probability threshold `Prob ∈ (0, 1]`.
    pub prob: f64,
}

impl MQuery {
    /// The s-query obtained by restricting this m-query to one location.
    pub fn sub_query(&self, index: usize) -> SQuery {
        SQuery {
            location: self.locations[index],
            start_time_s: self.start_time_s,
            duration_s: self.duration_s,
            prob: self.prob,
        }
    }

    /// Validates the query parameters.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.locations.is_empty() {
            return Err(QueryError::InvalidQuery(
                "an m-query needs at least one location".into(),
            ));
        }
        for (i, _) in self.locations.iter().enumerate() {
            self.sub_query(i).validate()?;
        }
        Ok(())
    }
}

/// Which algorithm answers an s-query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The exhaustive-search baseline (network expansion + per-segment
    /// verification).
    ExhaustiveSearch,
    /// The paper's SQMB bounding-region search followed by trace back search.
    SqmbTbs,
}

/// Which algorithm answers an m-query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MQueryAlgorithm {
    /// Answer each location as an independent s-query (SQMB+TBS) and union
    /// the results — the baseline of Section 4.3.
    RepeatedSQuery,
    /// The paper's MQMB bounding-region search with overlap elimination,
    /// followed by a single trace back search.
    MqmbTbs,
}

/// The answer to a query: the Prob-reachable region plus measurements.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The Prob-reachable region.
    pub region: ReachableRegion,
    /// Runtime / I/O statistics.
    pub stats: QueryStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_query() -> SQuery {
        SQuery {
            location: GeoPoint::new(114.0, 22.5),
            start_time_s: 11 * 3600,
            duration_s: 600,
            prob: 0.2,
        }
    }

    #[test]
    fn squery_validation() {
        assert!(base_query().validate().is_ok());
        assert!(SQuery {
            duration_s: 0,
            ..base_query()
        }
        .validate()
        .is_err());
        assert!(SQuery {
            prob: 0.0,
            ..base_query()
        }
        .validate()
        .is_err());
        assert!(SQuery {
            prob: 1.5,
            ..base_query()
        }
        .validate()
        .is_err());
        assert!(SQuery {
            start_time_s: 90_000,
            ..base_query()
        }
        .validate()
        .is_err());
        assert!(SQuery {
            location: GeoPoint::new(f64::NAN, 0.0),
            ..base_query()
        }
        .validate()
        .is_err());
        assert!(SQuery {
            prob: 1.0,
            ..base_query()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn squery_end_time_may_cross_midnight() {
        let q = SQuery {
            start_time_s: 23 * 3600 + 3000,
            duration_s: 3600,
            ..base_query()
        };
        assert_eq!(q.end_time_s(), 23 * 3600 + 3000 + 3600);
        assert!(q.end_time_s() > streach_traj::SECONDS_PER_DAY);
        assert_eq!(base_query().end_time_s(), 11 * 3600 + 600);
    }

    #[test]
    fn mquery_validation_and_subqueries() {
        let m = MQuery {
            locations: vec![GeoPoint::new(114.0, 22.5), GeoPoint::new(114.05, 22.55)],
            start_time_s: 10 * 3600,
            duration_s: 1200,
            prob: 0.2,
        };
        assert!(m.validate().is_ok());
        let s1 = m.sub_query(1);
        assert_eq!(s1.location, m.locations[1]);
        assert_eq!(s1.duration_s, 1200);

        let empty = MQuery {
            locations: vec![],
            ..m.clone()
        };
        assert!(empty.validate().is_err());
        let bad = MQuery { prob: -0.1, ..m };
        assert!(bad.validate().is_err());
    }
}
