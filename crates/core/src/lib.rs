//! `streach-core` — the paper's primary contribution.
//!
//! This crate implements the data-driven **spatio-temporal reachability
//! query** framework of *"Mining Spatio-Temporal Reachable Regions over
//! Massive Trajectory Data"* (Ding, ICDE/WPI 2017):
//!
//! * [`st_index`] — the **ST-Index**: a temporal B-tree over Δt time slots,
//!   a spatial R-tree over the re-segmented road network, and per
//!   (segment, slot) *time lists* (date → trajectory IDs) stored on pages,
//! * [`con_index`] — the **Con-Index**: per time slot and road segment, the
//!   Near ID list (reachable within one Δt at the historical minimum speed)
//!   and the Far ID list (at the historical maximum speed),
//! * [`query`] — the query processing algorithms: the exhaustive-search
//!   baseline (**ES**), the single-location maximum/minimum bounding region
//!   search (**SQMB**), the trace back search (**TBS**) and the
//!   multi-location bounding region search (**MQMB**),
//! * [`engine`] — a high-level [`ReachabilityEngine`](engine::ReachabilityEngine)
//!   tying indexes and algorithms together behind one public API,
//! * [`builder`] — index construction from a road network plus a
//!   map-matched trajectory dataset,
//! * [`snapshot`] — engine persistence: save a built engine to a snapshot
//!   directory and reopen it cold, without the trajectory dataset,
//! * [`region`] / [`geojson`] — query results and their export,
//! * [`stats`] — per-query runtime/I-O accounting used by the benchmarks.
//!
//! # Hot-path architecture
//!
//! The query path is built around three disciplines, established by the
//! zero-allocation refactor and verified by `tests/verifier_alloc.rs` and
//! `tests/equivalence.rs`:
//!
//! * **Workspace reuse + epoch stamping.** All Dijkstra runs (the ES travel
//!   cap, MQMB's per-start ownership distances) execute on a reusable
//!   [`DijkstraWorkspace`](streach_roadnet::DijkstraWorkspace): dense
//!   per-segment `dist`/`stamp` arrays that are invalidated by bumping an
//!   epoch counter instead of being cleared, with `f64::total_cmp` heap
//!   ordering (NaN-sound, deterministic tie-breaks). A run costs
//!   O(settled segments) and allocates nothing after the first use.
//! * **Day-indexed, zero-allocation verification.** The reachability
//!   verifier is split into a shareable
//!   [`VerifierCore`](query::verifier::VerifierCore) (the start segment's
//!   trajectory IDs as a `Vec` indexed by `date`, pre-sorted once) and a
//!   per-worker [`VerifierScratch`](query::verifier::VerifierScratch)
//!   (day-indexed candidate buckets, touched-day list, raw posting byte
//!   buffer). Postings are read through the index view the core pinned
//!   once per query
//!   ([`StIndex::read_pinned`](st_index::StIndex::read_pinned))
//!   into the recycled buffer and decoded in place with
//!   [`streach_storage::visit_posting`], so each (segment, slot) posting
//!   is read exactly once per evaluation and a warm `probability()` call
//!   performs **zero heap allocations**.
//! * **Parallel stages.** The embarrassingly parallel stages — annulus
//!   verification in ES/TBS/MQMB, per-segment Con-Index table construction,
//!   and the sort-based (slot, segment) grouping of
//!   [`StIndex::build`](st_index::StIndex::build) — run on scoped threads
//!   via `streach_par` (one scratch per worker, results in input order).
//!   [`QueryStats`] reports per-stage `bounding_time`/`verify_time` so the
//!   split is measurable per query.
//! * **Fallible storage on the hot path.** Every posting read from
//!   [`StIndex::read_pinned`](st_index::StIndex::read_pinned)
//!   through [`VerifierCore::probability`](query::verifier::VerifierCore::probability)
//!   and the parallel ES/TBS/MQMB workers
//!   (`streach_par::try_par_map_with`: first error wins, remaining work
//!   cancelled) up to
//!   [`ReachabilityEngine::try_s_query`](engine::ReachabilityEngine::try_s_query) /
//!   [`try_m_query`](engine::ReachabilityEngine::try_m_query) returns a
//!   `Result`: a disk fault mid-query surfaces as
//!   [`QueryError::Storage`](query::QueryError::Storage) (page id +
//!   backend context) and the engine keeps serving. The deterministic
//!   fault-injection harness (`streach_storage::FaultInjectingPageStore`
//!   under [`ReachabilityEngine::open_snapshot_with_store`](engine::ReachabilityEngine::open_snapshot_with_store),
//!   driven by `tests/fault_injection.rs`) scripts an EIO at every
//!   posting-read ordinal of every pipeline to keep the error paths honest.
//! * **Online maintenance.** The ST-Index state (sealed base + delta tail)
//!   sits behind one swappable `Arc`: readers pin a consistent pair per
//!   read, so compaction builds its new base off to the side and publishes
//!   it with a single pointer swap — queries never block on maintenance.
//!   [`maintenance::MaintenanceController`] runs auto-checkpoints and
//!   compactions on a background thread, and WAL group commit lets
//!   concurrent ingest callers share one fsync
//!   (`tests/concurrent_maintenance.rs` pins the whole story with a seeded
//!   deterministic harness).
//!
//! The naive pre-refactor implementations are preserved in
//! [`query::reference`] as the equivalence baseline and the benchmark
//! anchor for `BENCH_hotpath.json` (see the "Benchmarking" section of
//! `ROADMAP.md`).
//!
//! # Quick start
//!
//! ```
//! use streach_core::prelude::*;
//!
//! // 1. A (synthetic) city and a simulated taxi fleet.
//! let city = SyntheticCity::generate(GeneratorConfig::small());
//! let network = std::sync::Arc::new(city.network);
//! let dataset = TrajectoryDataset::simulate(
//!     &network,
//!     FleetConfig { num_taxis: 10, num_days: 4, ..FleetConfig::tiny() },
//! );
//!
//! // 2. Build the indexes.
//! let engine = EngineBuilder::new(network.clone(), &dataset)
//!     .index_config(IndexConfig { slot_s: 300, ..IndexConfig::default() })
//!     .build();
//!
//! // 3. Ask a single-location reachability query (11:00, 10 minutes, 25%).
//! let query = SQuery {
//!     location: network.bounds().center(),
//!     start_time_s: 9 * 3600,
//!     duration_s: 600,
//!     prob: 0.25,
//! };
//! let outcome = engine.s_query(&query, Algorithm::SqmbTbs);
//! println!("reachable road length: {:.1} km", outcome.region.total_length_km);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod con_index;
pub mod config;
pub mod engine;
pub mod geojson;
pub mod ingest;
pub mod maintenance;
pub mod query;
pub mod region;
pub mod replicate;
pub mod serve;
pub mod sharded;
pub mod snapshot;
pub mod speed_stats;
pub mod st_index;
pub mod stats;
pub mod subscribe;
pub mod time;

pub use builder::EngineBuilder;
pub use con_index::{ConIndex, ConnectionLists};
pub use config::IndexConfig;
pub use engine::ReachabilityEngine;
pub use ingest::{IngestObserver, IngestOutcome, IngestTouch, WalAttach};
pub use maintenance::{
    MaintenanceConfig, MaintenanceController, MaintenanceError, MaintenanceStats,
};
pub use query::{Algorithm, MQuery, QueryError, QueryOutcome, SQuery};
pub use region::ReachableRegion;
pub use replicate::{
    ReplicaSet, ReplicaStatus, ReplicationConfig, ReplicationController, ReplicationEvent,
    ReplicationStats,
};
pub use serve::{QueryServer, ServeConfig, ServerStats, Ticket};
pub use sharded::{ReadPreference, ShardedEngine};
pub use snapshot::StoreRole;
pub use speed_stats::SpeedStats;
pub use st_index::{DeltaStats, StIndex};
pub use stats::QueryStats;
pub use streach_storage::StorageBackend;
pub use subscribe::{
    ReachabilityEvent, SubscribeConfig, SubscribeError, SubscribeStats, SubscriptionEvent,
    SubscriptionId, SubscriptionManager, Trigger,
};

/// Convenient re-exports for downstream users (examples, benches, tests).
pub mod prelude {
    pub use crate::builder::EngineBuilder;
    pub use crate::config::IndexConfig;
    pub use crate::engine::ReachabilityEngine;
    pub use crate::geojson::region_to_geojson;
    pub use crate::ingest::{IngestOutcome, WalAttach};
    pub use crate::maintenance::{MaintenanceConfig, MaintenanceController};
    pub use crate::query::{Algorithm, MQuery, QueryError, QueryOutcome, SQuery};
    pub use crate::region::ReachableRegion;
    pub use crate::replicate::{
        ReplicaSet, ReplicaStatus, ReplicationConfig, ReplicationController, ReplicationEvent,
        ReplicationStats,
    };
    pub use crate::serve::{QueryServer, ServeConfig, ServerStats};
    pub use crate::sharded::{ReadPreference, ShardedEngine};
    pub use crate::stats::QueryStats;
    pub use crate::subscribe::{
        ReachabilityEvent, SubscribeConfig, SubscribeError, SubscribeStats, SubscriptionEvent,
        SubscriptionId, SubscriptionManager, Trigger,
    };
    pub use streach_geo::GeoPoint;
    pub use streach_roadnet::{GeneratorConfig, RoadNetwork, SegmentId, ShardMap, SyntheticCity};
    pub use streach_traj::{points_of, FleetConfig, TrajPoint, TrajectoryDataset};
}
