//! Spatially sharded serving: a scatter-gather router over per-shard
//! engines and their read replicas.
//!
//! # Design: postings sharded, statistics led
//!
//! A [`ShardedEngine`] splits the road network into `K` spatial shards
//! with a deterministic k-d cut ([`streach_roadnet::ShardMap::partition`])
//! and serves each shard from a **shard engine** — a full
//! [`ReachabilityEngine`] over the full network whose ST-Index holds only
//! the postings of segments the shard owns (see
//! [`crate::builder::EngineBuilder::shard`]). Everything *else* — the
//! Con-Index speed statistics, the day count, the last-visit table — is
//! maintained over the full data stream by the **statistics leader**
//! (shard 0's leader): at build time every shard engine computes them over
//! the full dataset, and streaming ingest keeps them current on the
//! statistics leader only, which is the single engine every router query
//! path reads them from ([`ShardedEngine`]'s `reference`). Ingest is
//! **owner-routed**: the statistics leader ingests the raw batch and the
//! other shards receive just their owned, pre-normalized slice (see
//! [`ShardedEngine::ingest`]). The consequences:
//!
//! * **Bounding is local.** SQMB/MQMB only touch the statistics leader's
//!   Con-Index, which sees the full stream and therefore produces the
//!   exact bounding regions a single engine would — no cross-shard
//!   coordination before verification.
//! * **Verification is routed.** Each `(segment, slot)` posting read in
//!   the verify sweep is answered by the shard owning that segment
//!   ([`RoutedPostings`], a [`PostingSource`]). An s-query whose annulus
//!   lies inside one shard reads one engine; a query whose reachable
//!   annulus straddles a boundary fans out across shards *inside the
//!   existing `streach_par` parallel sweep* — scatter-gather without a
//!   second merge pass, because every segment is verified exactly once
//!   against the byte-identical posting the single engine holds.
//! * **Answers are bit-identical.** The final region is assembled by the
//!   same generic pipeline code ([`crate::query::tbs`],
//!   [`crate::query::es`], [`crate::query::mqmb`]) a single engine runs —
//!   same bounding, same postings, same sort — so sharded answers equal
//!   single-engine answers bit for bit (pinned by
//!   `tests/sharded_equivalence.rs`).
//!
//! MQMB m-queries run **one** unified bounding over the replicated
//! statistics, then group the per-start posting work by owning shard
//! implicitly through the router — each start's core construction and each
//! annulus segment's verification read exactly the owning shard's heap.
//!
//! # Replica failover and probation revival
//!
//! Each shard serves reads from an ordered list of engines: the leader
//! plus any replicas registered with [`ShardedEngine::add_replica`]
//! (typically WAL-shipped followers, see [`crate::replicate`]). A posting
//! read tries the list in preference order; an engine whose store faults
//! is **marked dead** and skipped, and the read fails over to the next
//! engine — converged replicas hold byte-identical postings, so the
//! answer is unchanged.
//!
//! Dead is a *probation*, not a life sentence: every routed read ticks a
//! skip counter on **every** dead engine in the try-order — the ones
//! passed over before the serving engine and the ones behind it (an
//! engine behind a healthy one would otherwise never be reconsidered and
//! a transient fault would be a permanent capacity loss). Every
//! [`PROBATION_READS`]-th tick re-probes that engine with the actual
//! posting read. A healed engine (transient fault, remounted disk,
//! restarted host) serves the probe and is revived on the spot; a
//! still-broken one pays one failed read per probation window and stays
//! dead. Either way the bytes returned to the caller come entirely from
//! one engine (a behind-the-server probe reads into a scratch buffer), so
//! the "never a partial region" guarantee is untouched. When every engine
//! of a shard is dead (and no probe heals one) the read surfaces a typed
//! [`StorageError`] that reaches the caller as [`QueryError::Storage`]:
//! a partial region is never returned.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use streach_roadnet::{RoadNetwork, SegmentId, ShardMap};
use streach_storage::{IoStats, IoStatsSnapshot, StorageError, StorageResult};

use crate::engine::ReachabilityEngine;
use crate::query::es::exhaustive_search;
use crate::query::mqmb::{mqmb, mqmb_trace_back};
use crate::query::sqmb::sqmb;
use crate::query::tbs::trace_back_search;
use crate::query::verifier::{PostingSource, VerifierCore};
use crate::query::{Algorithm, MQuery, MQueryAlgorithm, QueryError, QueryOutcome, SQuery};
use crate::region::ReachableRegion;
use crate::st_index::PinnedState;
use crate::stats::QueryStats;

/// Which engine of a shard's serving list answers posting reads first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPreference {
    /// Read from the shard leader; fail over to replicas when it dies.
    #[default]
    Leader,
    /// Read from replicas (in registration order) and keep the leader as
    /// the last resort — offloads query I/O from the ingest path.
    ReplicaFirst,
}

/// How many reads skip a dead engine before one read re-probes it.
///
/// Low enough that a healed engine rejoins within one query's annulus
/// sweep, high enough that a hard-down engine costs one failed read per
/// window instead of one per read (which would undo the point of marking
/// it dead).
pub const PROBATION_READS: u64 = 64;

/// One engine in a shard's serving list plus its liveness state.
struct ServingEntry {
    engine: Arc<ReachabilityEngine>,
    /// Set on a storage fault; a dead engine is skipped cheaply and
    /// re-probed every [`PROBATION_READS`]-th skip — a successful probe
    /// revives it (see the module docs).
    dead: AtomicBool,
    /// Reads that skipped this engine since it was marked dead.
    skipped: AtomicU64,
}

impl ServingEntry {
    fn new(engine: Arc<ReachabilityEngine>) -> Self {
        Self {
            engine,
            dead: AtomicBool::new(false),
            skipped: AtomicU64::new(0),
        }
    }
}

/// The ordered serving list of one shard: leader first, replicas after.
struct ShardServing {
    entries: Vec<ServingEntry>,
}

impl ShardServing {
    /// Routed posting read with failover: tries every live engine in
    /// `order`, marks the ones that fault dead, and periodically re-probes
    /// dead ones so a healed engine rejoins the rotation. Every engine is
    /// read through its pinned view `pins[idx]` (one per entry).
    fn read_time_list_into(
        &self,
        shard_id: u16,
        pins: &[PinnedState],
        order: impl Iterator<Item = usize>,
        segment: SegmentId,
        slot: u32,
        buf: &mut Vec<u8>,
    ) -> StorageResult<bool> {
        let mut last_err = None;
        let mut order = order;
        while let Some(idx) = order.next() {
            let entry = &self.entries[idx];
            let was_dead = entry.dead.load(Ordering::Relaxed);
            if was_dead {
                // Probation: skip the dead engine cheaply, except every
                // PROBATION_READS-th skip, which re-probes it with the
                // actual read below.
                let skipped = entry.skipped.fetch_add(1, Ordering::Relaxed) + 1;
                if !skipped.is_multiple_of(PROBATION_READS) {
                    continue;
                }
            }
            match entry
                .engine
                .st_index()
                .read_pinned(&pins[idx], segment, slot, buf)
            {
                Ok(found) => {
                    if was_dead {
                        // The probe succeeded: the engine healed. Revive it
                        // for subsequent reads; this read was served wholly
                        // by it, so the answer stays bit-identical.
                        entry.skipped.store(0, Ordering::Relaxed);
                        entry.dead.store(false, Ordering::Relaxed);
                    }
                    // Tick probation for the dead engines this read never
                    // reached: an engine behind a healthy one in the
                    // preference order would otherwise never accumulate
                    // skips and stay dead forever after healing. The probe
                    // reads into a scratch buffer — the answer returned to
                    // the caller was served wholly by `idx`.
                    for behind in order {
                        let entry = &self.entries[behind];
                        if !entry.dead.load(Ordering::Relaxed) {
                            continue;
                        }
                        let skipped = entry.skipped.fetch_add(1, Ordering::Relaxed) + 1;
                        if !skipped.is_multiple_of(PROBATION_READS) {
                            continue;
                        }
                        let mut scratch = Vec::new();
                        if entry
                            .engine
                            .st_index()
                            .read_pinned(&pins[behind], segment, slot, &mut scratch)
                            .is_ok()
                        {
                            entry.skipped.store(0, Ordering::Relaxed);
                            entry.dead.store(false, Ordering::Relaxed);
                        }
                    }
                    return Ok(found);
                }
                Err(err) => {
                    entry.dead.store(true, Ordering::Relaxed);
                    last_err = Some(err);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            StorageError::corrupt(format!(
                "shard {shard_id} has no live engine left to serve posting reads \
                 (leader and every replica are marked dead)"
            ))
        }))
    }

    fn live(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.dead.load(Ordering::Relaxed))
            .count()
    }
}

/// A scatter-gather router over `K` shard engines (plus optional read
/// replicas per shard) that answers every query pipeline bit-identically
/// to a single unsharded engine. See the module docs for the design.
pub struct ShardedEngine {
    network: Arc<RoadNetwork>,
    map: Arc<ShardMap>,
    shards: Vec<ShardServing>,
    preference: ReadPreference,
    /// Router-level posting-decode accounting; page reads/hits land in the
    /// individual engines' counters and are aggregated per query.
    io: Arc<IoStats>,
    /// Serializes routed ingest: batch N+1's normalization on the
    /// statistics leader must observe batch N's last-visit state, and the
    /// owner-routed sub-batches must land on the other shards in the same
    /// order the leader logged the full batches — otherwise a shard's WAL
    /// replay could interleave differently from its live application.
    route: Mutex<()>,
}

impl ShardedEngine {
    /// Assembles a router from one **leader** engine per shard, in shard-id
    /// order. Each leader must have been built (or reopened) with the
    /// matching shard ownership — [`crate::builder::EngineBuilder::shard`]
    /// with this exact `map` and its position's shard id.
    ///
    /// # Panics
    /// Panics on a topology error: wrong leader count, a leader without
    /// shard ownership, or ownership disagreeing with `map` — these are
    /// deployment bugs, not runtime conditions.
    pub fn new(map: Arc<ShardMap>, leaders: Vec<Arc<ReachabilityEngine>>) -> Self {
        assert_eq!(
            leaders.len(),
            map.num_shards() as usize,
            "need exactly one leader per shard"
        );
        let network = leaders
            .first()
            .expect("a sharded engine needs at least one shard")
            .network()
            .clone();
        for (shard_id, leader) in leaders.iter().enumerate() {
            let (owned_map, owned_id) = leader
                .shard_ownership()
                .expect("every shard leader must carry shard ownership");
            assert_eq!(
                owned_id, shard_id as u16,
                "leader #{shard_id} owns shard {owned_id}"
            );
            assert_eq!(
                owned_map.as_ref(),
                map.as_ref(),
                "leader #{shard_id} was partitioned with a different shard map"
            );
        }
        let shards = leaders
            .into_iter()
            .map(|engine| ShardServing {
                entries: vec![ServingEntry::new(engine)],
            })
            .collect();
        Self {
            network,
            map,
            shards,
            preference: ReadPreference::Leader,
            io: Arc::new(IoStats::default()),
            route: Mutex::new(()),
        }
    }

    /// Registers a read replica for `shard_id`, appended to the shard's
    /// failover order. The replica must serve the same shard's postings —
    /// typically a WAL-shipped follower of that shard's leader
    /// ([`crate::replicate::ReplicaSet`]); a converged follower holds
    /// byte-identical postings, which is what keeps failover answers
    /// bit-identical.
    ///
    /// # Panics
    /// Panics when `shard_id` is out of range or the replica's shard
    /// ownership disagrees with the router's map.
    pub fn add_replica(&mut self, shard_id: u16, engine: Arc<ReachabilityEngine>) {
        let (owned_map, owned_id) = engine
            .shard_ownership()
            .expect("a replica must carry shard ownership");
        assert_eq!(owned_id, shard_id, "replica owns shard {owned_id}");
        assert_eq!(
            owned_map.as_ref(),
            self.map.as_ref(),
            "replica was partitioned with a different shard map"
        );
        self.shards[shard_id as usize]
            .entries
            .push(ServingEntry::new(engine));
    }

    /// Replaces a shard's leader — the engine owner-routed ingest lands on
    /// and the first read candidate under leader preference — with
    /// `engine`, typically a replica just promoted through
    /// [`ReplicaSet::promote`](crate::replicate::ReplicaSet::promote). The
    /// deposed leader's entry is dropped from serving entirely (a fenced
    /// leader cannot even serve stale reads safely once writes resume
    /// elsewhere); replicas registered with
    /// [`ShardedEngine::add_replica`] stay in place.
    ///
    /// # Panics
    /// Panics when `shard_id` is out of range or the engine's shard
    /// ownership disagrees with the router's map.
    pub fn install_leader(&mut self, shard_id: u16, engine: Arc<ReachabilityEngine>) {
        let (owned_map, owned_id) = engine
            .shard_ownership()
            .expect("a leader must carry shard ownership");
        assert_eq!(owned_id, shard_id, "engine owns shard {owned_id}");
        assert_eq!(
            owned_map.as_ref(),
            self.map.as_ref(),
            "engine was partitioned with a different shard map"
        );
        self.shards[shard_id as usize].entries[0] = ServingEntry::new(engine);
    }

    /// Sets which engine of each shard answers posting reads first.
    pub fn set_read_preference(&mut self, preference: ReadPreference) {
        self.preference = preference;
    }

    /// The shard map queries are routed with.
    pub fn shard_map(&self) -> &Arc<ShardMap> {
        &self.map
    }

    /// Number of spatial shards.
    pub fn num_shards(&self) -> u16 {
        self.map.num_shards()
    }

    /// The shard owning `segment`'s postings.
    pub fn route_of(&self, segment: SegmentId) -> u16 {
        self.map.shard_of(segment)
    }

    /// Number of engines of `shard_id` not yet marked dead (leader +
    /// replicas).
    pub fn live_engines(&self, shard_id: u16) -> usize {
        self.shards[shard_id as usize].live()
    }

    /// The statistics leader: the engine answering everything
    /// non-posting — bounding (Con-Index), location matching and index
    /// scalars. Shard 0's leader by convention; it is the one engine whose
    /// statistics streaming ingest keeps current over the full stream
    /// (see [`ShardedEngine::ingest`]).
    fn reference(&self) -> &ReachabilityEngine {
        &self.shards[0].entries[0].engine
    }

    /// The failover try-order for one shard's serving list of `n` engines.
    fn order(&self, n: usize) -> impl Iterator<Item = usize> {
        let replica_first = self.preference == ReadPreference::ReplicaFirst;
        (0..n).map(move |i| if replica_first { (i + 1) % n } else { i })
    }

    /// Sum of the per-engine I/O counters plus the router's decode
    /// accounting — the aggregate a sharded query reports I/O deltas over.
    fn io_snapshot(&self) -> IoStatsSnapshot {
        let mut total = self.io.snapshot();
        for shard in &self.shards {
            for entry in &shard.entries {
                let s = entry.engine.st_index().io_stats().snapshot();
                total.page_reads += s.page_reads;
                total.page_writes += s.page_writes;
                total.cache_hits += s.cache_hits;
                total.cache_misses += s.cache_misses;
                total.bytes_decoded += s.bytes_decoded;
                total.bytes_resident += s.bytes_resident;
            }
        }
        total
    }

    /// Ingests a batch by **owner-routing** it across the shard leaders.
    ///
    /// The statistics leader (shard 0) ingests the raw full batch — it
    /// alone normalizes the stream, derives the speed pairs, raises the day
    /// count and maintains the last-visit table, so every statistic the
    /// router's query paths read through [`ShardedEngine::reference`] stays
    /// bit-identical to a single engine's. The normalized point sequence it
    /// produces is then split by owning shard, and each other leader
    /// receives only its owned points as a **pre-normalized** WAL record
    /// (applied postings-only; see
    /// [`crate::ingest`]'s `WAL_BATCH_TAG_PRENORMALIZED`). A shard whose
    /// sub-batch is empty does zero work — no WAL record, no fsync, no
    /// observer wakeup — so per-shard [`crate::ingest::IngestTouch`]es
    /// report only locally-touched pairs and subscription wakeups do not
    /// fan out needlessly. WAL write amplification drops from ×K full
    /// copies to one full copy plus each shard's owned slice.
    ///
    /// Outcomes are in shard order; shard 0's covers the full batch, the
    /// others cover their owned slices. On an error the shards before the
    /// failing one have already applied their slice: recover the failed
    /// shard from its WAL/snapshot rather than re-ingesting the batch.
    pub fn ingest(
        &self,
        points: &[streach_traj::TrajPoint],
    ) -> StorageResult<Vec<crate::ingest::IngestOutcome>> {
        let _route = self.route.lock();
        let mut outcomes = Vec::with_capacity(self.shards.len());
        let (outcome, normalized) = self.shards[0].entries[0].engine.ingest_capturing(points)?;
        outcomes.push(outcome);
        for (shard_id, shard) in self.shards.iter().enumerate().skip(1) {
            let owned: Vec<streach_traj::TrajPoint> = normalized
                .iter()
                .filter(|p| self.map.shard_of(p.segment) == shard_id as u16)
                .copied()
                .collect();
            if owned.is_empty() {
                outcomes.push(crate::ingest::IngestOutcome {
                    points: 0,
                    lists_touched: 0,
                    speed_observations: 0,
                    wal_ordinal: None,
                });
                continue;
            }
            outcomes.push(shard.entries[0].engine.ingest_prenormalized(&owned)?);
        }
        Ok(outcomes)
    }

    /// Answers a single-location query across the shards; see
    /// [`ReachabilityEngine::try_s_query`] for the error contract. The
    /// region is bit-identical to the single-engine answer.
    pub fn try_s_query(
        &self,
        query: &SQuery,
        algorithm: Algorithm,
    ) -> Result<QueryOutcome, QueryError> {
        query.validate()?;
        let reference = self.reference();
        let start_segment = reference.try_locate(&query.location)?;
        let routed = RoutedPostings { sharded: self };

        let io_before = self.io_snapshot();
        let t0 = Instant::now();
        let (region, verified, visited, max_b, min_b, bounding_time, verify_time) = match algorithm
        {
            Algorithm::ExhaustiveSearch => {
                let out = exhaustive_search(&self.network, &routed, query, start_segment)?;
                (
                    out.region,
                    out.verifications,
                    out.visited,
                    0,
                    0,
                    out.expansion_time,
                    out.verify_time,
                )
            }
            Algorithm::SqmbTbs => {
                let tb = Instant::now();
                let bounds = sqmb(
                    reference.con_index(),
                    self.network.num_segments(),
                    start_segment,
                    query.start_time_s,
                    query.duration_s,
                );
                let bounding_time = tb.elapsed();
                let tv = Instant::now();
                let core = VerifierCore::new(
                    &routed,
                    start_segment,
                    query.start_time_s,
                    query.duration_s,
                )?;
                let outcome = trace_back_search(&self.network, &core, &bounds, query.prob)?;
                let verify_time = tv.elapsed();
                (
                    outcome.region,
                    outcome.verifications,
                    outcome.visited,
                    bounds.max_region.len(),
                    bounds.min_region.len(),
                    bounding_time,
                    verify_time,
                )
            }
        };
        let wall_time = t0.elapsed();
        let io_after = self.io_snapshot();

        Ok(QueryOutcome {
            region,
            stats: QueryStats {
                wall_time,
                bounding_time,
                verify_time,
                io: io_after.delta_since(&io_before),
                segments_verified: verified,
                max_bounding_size: max_b,
                min_bounding_size: min_b,
                segments_visited: visited,
            },
        })
    }

    /// Answers a multi-location query across the shards; see
    /// [`ReachabilityEngine::try_m_query`] for the algorithm split and the
    /// error contract. MQMB computes **one** unified bounding over the
    /// replicated statistics; the per-start cores and the annulus sweep
    /// read routed postings.
    pub fn try_m_query(
        &self,
        query: &MQuery,
        algorithm: MQueryAlgorithm,
    ) -> Result<QueryOutcome, QueryError> {
        query.validate()?;
        match algorithm {
            MQueryAlgorithm::RepeatedSQuery => {
                let mut region = ReachableRegion::empty();
                let mut stats = QueryStats::default();
                for i in 0..query.locations.len() {
                    let sub = query.sub_query(i);
                    let outcome = self.try_s_query(&sub, Algorithm::SqmbTbs).map_err(|e| {
                        // Attribute an off-network location to its m-query index.
                        match e {
                            QueryError::LocationOffNetwork { location, .. } => {
                                QueryError::LocationOffNetwork { index: i, location }
                            }
                            other => other,
                        }
                    })?;
                    region = region.union(&self.network, &outcome.region);
                    stats = stats.merge(&outcome.stats);
                }
                Ok(QueryOutcome { region, stats })
            }
            MQueryAlgorithm::MqmbTbs => {
                let reference = self.reference();
                let starts: Vec<SegmentId> = query
                    .locations
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        reference.try_locate(p).map_err(|e| match e {
                            QueryError::LocationOffNetwork { location, .. } => {
                                QueryError::LocationOffNetwork { index: i, location }
                            }
                            other => other,
                        })
                    })
                    .collect::<Result<_, _>>()?;
                let routed = RoutedPostings { sharded: self };
                let io_before = self.io_snapshot();
                let t0 = Instant::now();
                let bounds = mqmb(
                    reference.con_index(),
                    &self.network,
                    &starts,
                    &query.locations,
                    query.start_time_s,
                    query.duration_s,
                );
                let bounding_time = t0.elapsed();
                let outcome = mqmb_trace_back(
                    &self.network,
                    &routed,
                    &bounds,
                    &starts,
                    query.start_time_s,
                    query.duration_s,
                    query.prob,
                )?;
                let wall_time = t0.elapsed();
                let io_after = self.io_snapshot();
                Ok(QueryOutcome {
                    region: outcome.region,
                    stats: QueryStats {
                        wall_time,
                        bounding_time,
                        verify_time: outcome.setup_time + outcome.verify_time,
                        io: io_after.delta_since(&io_before),
                        segments_verified: outcome.verifications,
                        max_bounding_size: bounds.max_region.len(),
                        min_bounding_size: bounds.min_region.len(),
                        segments_visited: outcome.visited,
                    },
                })
            }
        }
    }

    /// Δt slot length of the backing index (replicated, so any engine's
    /// value is authoritative).
    pub fn slot_s(&self) -> u32 {
        self.reference().st_index().slot_s()
    }

    /// Snaps a location to its road segment; the spatial index is the full
    /// network on every engine, so the reference engine answers exactly
    /// like a single engine would.
    pub fn try_locate(&self, location: &streach_geo::GeoPoint) -> Result<SegmentId, QueryError> {
        self.reference().try_locate(location)
    }

    /// Registers an ingest observer on every shard **leader** (replicas
    /// apply the same batches later via WAL shipping). With owner-routed
    /// ingest the union of leader notifications covers every touched
    /// posting pair exactly once: each shard reports its owned pairs, and
    /// the statistics leader alone reports the speed slots and any day
    /// raise — an observer is woken once per batch per touched shard, not
    /// ×K for every batch.
    pub fn observe_ingest(&self, observer: &Arc<crate::ingest::IngestObserver>) {
        for shard in &self.shards {
            shard.entries[0].engine.observe_ingest(observer);
        }
    }

    /// Answers a batch of SQMB+TBS s-queries with one shared bounding pass
    /// per (origin segment, slot window) group, reading postings through
    /// the scatter-gather router. Results are in input order and
    /// bit-identical to per-query [`ShardedEngine::try_s_query`] with
    /// [`Algorithm::SqmbTbs`]; failures surface as that caller's error.
    pub fn try_s_query_coalesced(&self, queries: &[SQuery]) -> Vec<crate::serve::CoalescedAnswer> {
        let reference = self.reference();
        let routed = RoutedPostings { sharded: self };
        crate::serve::answer_coalesced(
            &self.network,
            reference.con_index(),
            &routed,
            &|location| reference.try_locate(location),
            queries,
        )
    }
}

/// The routed [`PostingSource`]: resolves each `(segment, slot)` read
/// against the shard owning the segment, with sticky replica failover.
/// Index scalars come from the reference engine — they are replicated, so
/// any engine (dead store or not; these never touch disk) answers them.
struct RoutedPostings<'a> {
    sharded: &'a ShardedEngine,
}

impl PostingSource for RoutedPostings<'_> {
    /// One [`StIndex`](crate::StIndex) pin per serving entry of every shard
    /// (`[shard][entry]`), so failover and probation probes read pinned
    /// views too. Topology changes take `&mut ShardedEngine` and therefore
    /// cannot happen while a query holds this pin.
    type Pin = Vec<Vec<PinnedState>>;

    fn slot_s(&self) -> u32 {
        self.sharded.reference().st_index().slot_s()
    }

    fn num_days(&self) -> u16 {
        self.sharded.reference().st_index().num_days()
    }

    fn io_stats(&self) -> Arc<IoStats> {
        self.sharded.io.clone()
    }

    fn pin(&self) -> Self::Pin {
        self.sharded
            .shards
            .iter()
            .map(|shard| {
                shard
                    .entries
                    .iter()
                    .map(|entry| entry.engine.st_index().pin())
                    .collect()
            })
            .collect()
    }

    fn read_pinned(
        &self,
        pin: &Self::Pin,
        segment: SegmentId,
        slot: u32,
        buf: &mut Vec<u8>,
    ) -> StorageResult<bool> {
        let shard_id = self.sharded.map.shard_of(segment);
        let serving = &self.sharded.shards[shard_id as usize];
        serving.read_time_list_into(
            shard_id,
            &pin[shard_id as usize],
            self.sharded.order(serving.entries.len()),
            segment,
            slot,
            buf,
        )
    }

    fn malformed_posting(&self, segment: SegmentId, slot: u32) -> StorageError {
        let shard_id = self.sharded.map.shard_of(segment);
        let serving = &self.sharded.shards[shard_id as usize];
        PostingSource::malformed_posting(serving.entries[0].engine.st_index(), segment, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EngineBuilder;
    use crate::config::IndexConfig;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

    fn setup(
        num_shards: u16,
    ) -> (
        Arc<RoadNetwork>,
        TrajectoryDataset,
        ReachabilityEngine,
        ShardedEngine,
    ) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(
            &network,
            FleetConfig {
                num_taxis: 12,
                num_days: 3,
                ..FleetConfig::tiny()
            },
        );
        let config = IndexConfig {
            read_latency_us: 0,
            ..IndexConfig::default()
        };
        let single = EngineBuilder::new(network.clone(), &dataset)
            .index_config(config.clone())
            .build();
        let map = Arc::new(ShardMap::partition(&network, num_shards));
        let leaders: Vec<Arc<ReachabilityEngine>> = (0..num_shards)
            .map(|shard_id| {
                Arc::new(
                    EngineBuilder::new(network.clone(), &dataset)
                        .index_config(config.clone())
                        .shard(map.clone(), shard_id)
                        .build(),
                )
            })
            .collect();
        let sharded = ShardedEngine::new(map, leaders);
        (network, dataset, single, sharded)
    }

    #[test]
    fn sharded_queries_match_single_engine_bit_for_bit() {
        let (network, _dataset, single, sharded) = setup(3);
        let query = SQuery {
            location: network.bounds().center(),
            start_time_s: 9 * 3600,
            duration_s: 600,
            prob: 0.2,
        };
        for algo in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
            let want = single.try_s_query(&query, algo).unwrap();
            let got = sharded.try_s_query(&query, algo).unwrap();
            assert_eq!(want.region, got.region, "{algo:?}");
            assert_eq!(
                want.stats.segments_verified, got.stats.segments_verified,
                "{algo:?}"
            );
        }
    }

    #[test]
    fn sharded_m_queries_match_single_engine() {
        let (network, _dataset, single, sharded) = setup(2);
        let b = network.bounds();
        let m = MQuery {
            locations: vec![
                b.center(),
                streach_geo::GeoPoint::new(
                    b.center().lon + (b.max_lon - b.min_lon) * 0.2,
                    b.center().lat,
                ),
            ],
            start_time_s: 9 * 3600,
            duration_s: 600,
            prob: 0.2,
        };
        for algo in [MQueryAlgorithm::MqmbTbs, MQueryAlgorithm::RepeatedSQuery] {
            let want = single.try_m_query(&m, algo).unwrap();
            let got = sharded.try_m_query(&m, algo).unwrap();
            assert_eq!(want.region, got.region, "{algo:?}");
        }
    }

    #[test]
    fn routed_ingest_preserves_equivalence() {
        let (network, dataset, single, sharded) = setup(2);
        // Continue one trajectory: the statistics leader normalizes the
        // full batch, the owning shard folds the postings, and a shard
        // that owns nothing of the batch does zero work.
        let traj = dataset.trajectories().first().unwrap();
        let last = traj.visits.last().unwrap();
        let segment = SegmentId((last.segment.0 + 1) % network.num_segments() as u32);
        let points = vec![streach_traj::TrajPoint {
            traj_id: traj.traj_id,
            date: traj.date,
            segment,
            enter_time_s: last.enter_time_s + 60,
        }];
        single.ingest(&points).unwrap();
        let outcomes = sharded.ingest(&points).unwrap();
        assert_eq!(outcomes.len(), 2);
        // The single point lands on exactly one shard's postings; if that
        // shard is not the statistics leader, the leader still processed
        // the full batch (statistics) while the non-owning shard did
        // nothing at all.
        let owner = sharded.route_of(segment);
        if owner != 0 {
            assert_eq!(outcomes[1].points, 1);
            assert!(outcomes[1].lists_touched > 0);
        } else {
            assert_eq!(outcomes[1].points, 0);
            assert_eq!(outcomes[1].lists_touched, 0);
        }
        let query = SQuery {
            location: network.bounds().center(),
            start_time_s: 9 * 3600,
            duration_s: 600,
            prob: 0.2,
        };
        let want = single.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
        let got = sharded.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
        assert_eq!(want.region, got.region);
    }
}
