//! Shared scaffolding of the root integration suites (`tests/*.rs`).
//!
//! Every bit-identity campaign needs the same pieces: the pinned fault
//! seed, scratch directories, a checkpointing index config, a snapshot
//! opened under a scripted fault wrapper, the small live-feed and fault
//! scenarios, slot-disjoint ingest batches, the morning query pool with
//! its quiesced answers, and the seeded race of query threads against
//! whatever the caller interleaves. They live here once, in an unpublished
//! crate, so a suite states only what it tests.
//!
//! The seeded choices go through [`mix`], the SplitMix64 the storage
//! crate's fault scripts use, so a test schedule and a fault script under
//! the same seed can never drift apart.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use streach_core::prelude::*;
use streach_core::query::reference::naive_s_query;
use streach_core::query::sqmb::{sqmb, BoundingRegions};
use streach_core::query::verifier::VerifierCore;
use streach_core::query::MQueryAlgorithm;
use streach_storage::{FaultController, FaultInjectingPageStore};

pub use streach_storage::fault::mix;

/// Seed of every scripted schedule and fault: `STREACH_FAULT_SEED` when
/// set (CI pins it; every assertion message embeds it, so a failure
/// reproduces with the same value), else a fixed default.
pub fn fault_seed() -> u64 {
    std::env::var("STREACH_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_728)
}

/// A fresh scratch path under the system temp directory, unique to this
/// process and `name`. Anything left there by an earlier run is removed;
/// the directory itself is not created.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("streach-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copies a snapshot directory file by file — "shipping" its artifacts.
pub fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

/// Opens the snapshot in `dir` with a seeded [`FaultInjectingPageStore`]
/// under the buffer pool of its sealed base heap, returning the engine and
/// the script's controller.
pub fn open_with_fault_script(
    dir: &Path,
    network: Arc<RoadNetwork>,
    seed: u64,
) -> (ReachabilityEngine, FaultController) {
    let mut controller = None;
    let engine = ReachabilityEngine::open_snapshot_with_store(dir, network, |store| {
        let wrapped = FaultInjectingPageStore::with_seed(store, seed);
        controller = Some(wrapped.controller());
        Box::new(wrapped)
    })
    .expect("open snapshot with fault wrapper");
    (engine, controller.expect("fault wrapper installed"))
}

/// The default index configuration with an auto-checkpoint due on any
/// non-empty delta: every maintenance pass does real checkpoint work.
pub fn checkpointing_config() -> IndexConfig {
    IndexConfig {
        auto_checkpoint_bytes: 1,
        ..IndexConfig::default()
    }
}

/// The shared live-feed scenario: a small synthetic city and one 10-taxi,
/// 08:00–11:00 fleet (seed 31) of `base_days + extra_days` days. Returns
/// the network, the base dataset (dates `0..base_days`) and one live-feed
/// batch per (trajectory, date) of the extra days, in dataset order.
pub fn scenario(
    base_days: u16,
    extra_days: u16,
) -> (Arc<RoadNetwork>, TrajectoryDataset, Vec<Vec<TrajPoint>>) {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let network = Arc::new(city.network);
    let full = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 10,
            num_days: base_days + extra_days,
            day_start_s: 8 * 3600,
            day_end_s: 11 * 3600,
            seed: 31,
            ..FleetConfig::default()
        },
    );
    let base = TrajectoryDataset::from_matched(
        full.trajectories()
            .iter()
            .filter(|t| t.date < base_days)
            .cloned()
            .collect(),
        full.num_taxis(),
        base_days,
    );
    let batches: Vec<Vec<TrajPoint>> = full
        .trajectories()
        .iter()
        .filter(|t| t.date >= base_days)
        .map(|t| points_of(t).collect())
        .collect();
    assert!(batches.len() >= 2, "scenario needs live batches");
    (network, base, batches)
}

/// The fault campaigns' scenario: a small synthetic city and a 12-taxi,
/// 3-day, 08:00–12:00 fleet (seed 5), dense enough that cold queries read
/// postings a scripted fault can hit.
pub fn fault_scenario() -> (Arc<RoadNetwork>, TrajectoryDataset) {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 12,
            num_days: 3,
            day_start_s: 8 * 3600,
            day_end_s: 12 * 3600,
            seed: 5,
            ..FleetConfig::default()
        },
    );
    (network, dataset)
}

/// A slot-disjoint ingest batch derived from `batch`: fresh trajectory IDs
/// (no continuation pair into the morning slots), existing dates among
/// `0..base_days` (the day count cannot move) and afternoon time slots
/// (13:00+, while the morning pool stays before 12:00). By construction it
/// cannot change any answer of a morning query, which the suites re-verify
/// with a guard after every race.
pub fn disjoint_batch(batch: &[TrajPoint], round: usize, base_days: u16) -> Vec<TrajPoint> {
    batch
        .iter()
        .map(|p| TrajPoint {
            traj_id: p.traj_id + 1_000_000 + round as u32 * 10_000,
            date: p.date % base_days,
            segment: p.segment,
            enter_time_s: (p.enter_time_s + 5 * 3600).min(streach_traj::SECONDS_PER_DAY - 1),
        })
        .collect()
}

/// Whether `engine`'s start segment decides `query` before verifying: its
/// active days cannot reach Prob, so the pipeline answers from the minimum
/// bounding region and reads no posting beyond the start segment's.
pub fn decided(engine: &ReachabilityEngine, query: &SQuery) -> bool {
    let start = engine
        .try_locate(&query.location)
        .expect("start on the network");
    VerifierCore::new(
        engine.st_index(),
        start,
        query.start_time_s,
        query.duration_s,
    )
    .expect("start segment postings")
    .decided(query.prob)
}

/// The naive reference answer of `query` on `engine`'s indexes: the
/// oracle of `query::reference`, which shares no code with the pipeline.
pub fn oracle(engine: &ReachabilityEngine, query: &SQuery, algorithm: Algorithm) -> Answer {
    let start = engine
        .try_locate(&query.location)
        .expect("start on the network");
    let region = naive_s_query(
        engine.network(),
        engine.con_index(),
        engine.st_index(),
        query,
        start,
        algorithm,
    )
    .expect("oracle s-query");
    region_bits(&region)
}

/// The SQMB bounds of `query` on `engine`, read through `sqmb` itself: the
/// pipeline skips the Far expansion of a decided query.
pub fn sqmb_bounds(engine: &ReachabilityEngine, query: &SQuery) -> BoundingRegions {
    let start = engine
        .try_locate(&query.location)
        .expect("start on the network");
    sqmb(
        engine.con_index(),
        engine.network().num_segments(),
        start,
        query.start_time_s,
        query.duration_s,
    )
}

/// A start that Prob splits, with its start segment: where and when a taxi
/// of `dataset` entered a segment that was active on some but not all of
/// `engine`'s days, and whose SQMB annulus is not empty. The first query
/// asks for exactly its active share of days, which the start itself
/// reaches (undecided); the second asks for Prob 1.0, which no segment can
/// reach (decided). Both share one window of `duration_s` and one set of
/// bounds.
pub fn split_start(
    engine: &ReachabilityEngine,
    dataset: &TrajectoryDataset,
    duration_s: u32,
) -> (SQuery, SQuery, SegmentId) {
    let num_days = engine.st_index().num_days();
    dataset
        .trajectories()
        .iter()
        .flat_map(|traj| traj.visits.iter().take(4))
        .find_map(|visit| {
            let location = engine.network().segment(visit.segment).mbr.center();
            if engine.try_locate(&location) != Ok(visit.segment) {
                return None;
            }
            let t = visit.enter_time_s;
            let core = VerifierCore::new(engine.st_index(), visit.segment, t, duration_s).ok()?;
            let active = core.active_days();
            if active == 0 || active >= num_days as usize {
                return None;
            }
            let undecided = SQuery {
                location,
                start_time_s: t,
                duration_s,
                prob: active as f64 / num_days as f64,
            };
            if sqmb_bounds(engine, &undecided).annulus().is_empty() {
                return None;
            }
            let decided = SQuery {
                prob: 1.0,
                ..undecided
            };
            Some((undecided, decided, visit.segment))
        })
        .expect("a start active on some but not all days")
}

/// Bit-comparable form of a region: its segments and the bits of its
/// total length.
pub type Answer = (Vec<SegmentId>, u64);

/// The bit-comparable form of `region`.
pub fn region_bits(region: &ReachableRegion) -> Answer {
    (region.segments.clone(), region.total_length_km.to_bits())
}

/// The bit-comparable form of a query outcome's region.
pub fn answer_of(outcome: &QueryOutcome) -> Answer {
    region_bits(&outcome.region)
}

/// Anything the pool can be run against: the single reference engine or
/// the sharded router — both expose the same fallible query surface.
pub trait Queryable {
    /// Answers an s-query.
    fn s(&self, query: &SQuery, algorithm: Algorithm) -> Result<QueryOutcome, QueryError>;
    /// Answers an m-query.
    fn m(&self, query: &MQuery, algorithm: MQueryAlgorithm) -> Result<QueryOutcome, QueryError>;
}

impl Queryable for ReachabilityEngine {
    fn s(&self, query: &SQuery, algorithm: Algorithm) -> Result<QueryOutcome, QueryError> {
        self.try_s_query(query, algorithm)
    }
    fn m(&self, query: &MQuery, algorithm: MQueryAlgorithm) -> Result<QueryOutcome, QueryError> {
        self.try_m_query(query, algorithm)
    }
}

impl Queryable for ShardedEngine {
    fn s(&self, query: &SQuery, algorithm: Algorithm) -> Result<QueryOutcome, QueryError> {
        self.try_s_query(query, algorithm)
    }
    fn m(&self, query: &MQuery, algorithm: MQueryAlgorithm) -> Result<QueryOutcome, QueryError> {
        self.try_m_query(query, algorithm)
    }
}

/// The morning query pool racing threads draw from. Entries are numbered
/// s-queries first, then m-queries.
pub struct Pool {
    s_queries: Vec<(SQuery, Algorithm)>,
    m_queries: Vec<(MQuery, MQueryAlgorithm)>,
}

/// The morning pool: four windows between 08:30 and 10:15, each an
/// SQMB+TBS s-query per `s_locations` entry and an MQMB+TBS m-query over
/// `m_locations`; the short (300 s) windows add the ES and repeated
/// s-query baselines.
pub fn pool(s_locations: &[GeoPoint], m_locations: &[GeoPoint]) -> Pool {
    let mut s_queries = Vec::new();
    let mut m_queries = Vec::new();
    for (start, duration, prob) in [
        (8 * 3600 + 1800, 300u32, 0.25),
        (9 * 3600, 600, 0.25),
        (9 * 3600 + 900, 900, 0.6),
        (10 * 3600, 300, 0.6),
    ] {
        for &location in s_locations {
            let s = SQuery {
                location,
                start_time_s: start,
                duration_s: duration,
                prob,
            };
            s_queries.push((s, Algorithm::SqmbTbs));
            if duration <= 300 {
                s_queries.push((s, Algorithm::ExhaustiveSearch));
            }
        }
        let m = MQuery {
            locations: m_locations.to_vec(),
            start_time_s: start,
            duration_s: duration,
            prob,
        };
        m_queries.push((m.clone(), MQueryAlgorithm::MqmbTbs));
        if duration <= 300 {
            m_queries.push((m, MQueryAlgorithm::RepeatedSQuery));
        }
    }
    Pool {
        s_queries,
        m_queries,
    }
}

/// Runs the whole pool quiesced and returns every answer in pool order.
pub fn pool_answers<E: Queryable>(engine: &E, pool: &Pool) -> Vec<Answer> {
    let mut out = Vec::with_capacity(pool.s_queries.len() + pool.m_queries.len());
    for (q, algo) in &pool.s_queries {
        out.push(answer_of(&engine.s(q, *algo).expect("s-query")));
    }
    for (q, algo) in &pool.m_queries {
        out.push(answer_of(&engine.m(q, *algo).expect("m-query")));
    }
    out
}

/// Runs pool entry `index` on `engine` and returns its answer.
pub fn run_pool_entry<E: Queryable>(
    engine: &E,
    pool: &Pool,
    index: usize,
) -> Result<Answer, QueryError> {
    if index < pool.s_queries.len() {
        let (q, algo) = &pool.s_queries[index];
        Ok(answer_of(&engine.s(q, *algo)?))
    } else {
        let (q, algo) = &pool.m_queries[index - pool.s_queries.len()];
        Ok(answer_of(&engine.m(q, *algo)?))
    }
}

/// Asserts the engine's quiesced pool answers equal `expected`.
pub fn assert_pool_answers<E: Queryable>(
    engine: &E,
    pool: &Pool,
    expected: &[Answer],
    seed: u64,
    label: &str,
) {
    let got = pool_answers(engine, pool);
    for (i, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
        assert_eq!(
            g, e,
            "[seed {seed}] {label}: quiesced pool entry #{i} diverged"
        );
    }
}

/// The schedule of one racing phase: `threads` query threads each run
/// `queries_per_thread` pool entries drawn by `mix(seed, …)` from the
/// phase number, and `label` names the phase in every assertion message.
pub struct Race<'a> {
    /// The campaign seed.
    pub seed: u64,
    /// Concurrent query threads.
    pub threads: usize,
    /// Pool entries each thread runs.
    pub queries_per_thread: usize,
    /// Phase number; distinct phases draw distinct entries.
    pub phase: u64,
    /// Names the phase in assertion messages.
    pub label: &'a str,
}

/// One racing phase: query threads sweep seeded pool entries against
/// `engine` and assert each answer bit-identical to `expected`, while
/// `interleave` runs on the caller's thread until every query thread
/// finished, so the race window covers the whole phase. Each thread runs
/// under a seeded worker override (1 or 2), so both the sequential and the
/// parallel verification paths race the interleaved work.
pub fn race_queries<E: Queryable + Sync, F: FnMut()>(
    engine: &E,
    pool: &Pool,
    expected: &[Answer],
    race: Race<'_>,
    mut interleave: F,
) {
    let Race {
        seed,
        threads,
        queries_per_thread,
        phase,
        label,
    } = race;
    let running = AtomicUsize::new(threads);
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let running = &running;
            scope.spawn(move || {
                let workers = 1 + (mix(seed, phase * 31 + thread as u64) % 2) as usize;
                streach_par::with_worker_override(workers, || {
                    for i in 0..queries_per_thread {
                        let index = (mix(seed, phase * 1009 + thread as u64 * 101 + i as u64)
                            % (pool.s_queries.len() + pool.m_queries.len()) as u64)
                            as usize;
                        let got = run_pool_entry(engine, pool, index).unwrap_or_else(|e| {
                            panic!(
                                "[seed {seed}] {label}: thread {thread} query #{i} \
                                 (pool entry {index}, {workers} workers) failed: {e}"
                            )
                        });
                        assert_eq!(
                            got, expected[index],
                            "[seed {seed}] {label}: thread {thread} query #{i} \
                             (pool entry {index}, {workers} workers) diverged from \
                             the quiesced reference"
                        );
                    }
                });
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        while running.load(Ordering::SeqCst) > 0 {
            interleave();
        }
    });
}
