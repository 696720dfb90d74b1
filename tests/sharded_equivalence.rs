//! Sharded + replicated serving equivalence harness: a scatter-gather
//! router over K spatial shard engines and their WAL-shipped read replicas
//! must answer **bit-identically** to a single unsharded engine — on every
//! pipeline, including queries whose reachable annulus straddles a shard
//! boundary.
//!
//! The harness is seeded (`STREACH_FAULT_SEED`, printed in every assertion)
//! and drives the shared morning query pool (`streach_testkit::pool`, here
//! over three spread locations) through four phases per round:
//!
//! * **Barrier ingest** — a real fleet-day batch lands on the single
//!   reference engine and on every shard leader (the router forwards the
//!   full batch; each leader folds only its owned postings), then ships to
//!   every replica and asserts convergence (same applied generation and
//!   offset, zero lag).
//! * **Quiesced sweep** — every pool entry is answered by the router under
//!   both read preferences (leader reads and replica-first reads) and
//!   compared bit-for-bit against the quiesced reference. A guard assertion
//!   checks the pool actually contains boundary-straddling answers, so the
//!   scatter-gather path is provably exercised.
//! * **Checkpoint** — `ReplicaSet::checkpoint_leader` runs the
//!   ship-before-rotate protocol on every shard; followers must track the
//!   rotated generation and keep answering identically.
//! * **Ship race** — query threads sweep seeded pool entries against the
//!   router (replica-first) while the caller interleaves slot-disjoint
//!   leader ingest with shipping, so queries race replica apply. The
//!   disjoint data provably cannot change any pool answer, which a guard
//!   re-checks after the race.
//!
//! After the rounds the fleet "crashes": shard 0 fails over by promoting
//! its converged replica (replaying nothing), every other shard reopens
//! from its checkpoint plus WAL-tail replay — and the rebuilt router still
//! answers the whole pool bit-identically.
//!
//! A second campaign scripts a **dead disk** (`FaultInjectingPageStore`,
//! every read EIO) on a replica mid-campaign: reads stickily fail over to
//! the leader with unchanged answers, and when the leader's disk dies too
//! the query surfaces a typed [`QueryError::Storage`] — never a partial
//! region.
//!
//! Three further campaigns cover the replication tier:
//!
//! * **Split-brain** — after a fenced `ReplicaSet::promote`, the deposed
//!   leader's next ingest fails with the typed `StorageError::Fenced`
//!   error and applies nothing; the promoted fleet (promoted leader
//!   installed into the router) keeps answering bit-identically to the
//!   reference across all four pipelines.
//! * **Background shipping race** — a `ReplicationController` ships on its
//!   own thread while query threads sweep the replica and the caller
//!   ingests slot-disjoint data at the leader; every record is shipped
//!   exactly once.
//! * **Apply-fault SLO** — a scripted dead base disk on the replica makes
//!   apply fail on the base lists it merges: lag grows past the configured
//!   SLO (typed breach event), and after the disk heals shipping
//!   re-converges with zero re-replayed records.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use streach::prelude::*;
use streach::storage::StorageError;
use streach_core::query::reference::naive_m_query;
use streach_core::query::MQueryAlgorithm;
use streach_core::sharded::PROBATION_READS;
use streach_core::st_index::ViewStats;
use streach_testkit::{
    answer_of, assert_pool_answers, copy_dir, disjoint_batch, fault_scenario, fault_seed, mix,
    open_with_fault_script, oracle, pool, pool_answers, race_queries, region_bits, scenario,
    split_start, tmp_dir, Race,
};

/// Base fleet-days built offline; the remaining days arrive via ingest.
const BASE_DAYS: u16 = 2;
/// Fleet-days ingested round by round.
const EXTRA_DAYS: u16 = 2;
/// Spatial shards of the tentpole campaign.
const NUM_SHARDS: u16 = 3;
/// Concurrent query threads in the ship race.
const QUERY_THREADS: usize = 2;

/// Per shard: a WAL-backed leader plus one replica bootstrapped from the
/// leader's self-contained snapshot alone (no shared network object, no
/// dataset — exactly the artifacts shipping would move between hosts).
/// Returns the shard home directories, the leaders, and the replica sets.
#[allow(clippy::type_complexity)]
fn build_fleet(
    root: &Path,
    seed: u64,
    network: &Arc<RoadNetwork>,
    base: &TrajectoryDataset,
    map: &Arc<ShardMap>,
) -> (
    Vec<PathBuf>,
    Vec<Arc<ReachabilityEngine>>,
    Vec<Arc<ReplicaSet>>,
) {
    let mut homes = Vec::new();
    let mut leaders = Vec::new();
    let mut sets = Vec::new();
    for shard_id in 0..map.num_shards() {
        let home = root.join(format!("shard{shard_id}"));
        let leader = Arc::new(
            EngineBuilder::new(network.clone(), base)
                .index_config(IndexConfig::default())
                .shard(map.clone(), shard_id)
                .build(),
        );
        leader
            .save_snapshot_self_contained(&home)
            .unwrap_or_else(|e| panic!("[seed {seed}] shard {shard_id}: save leader: {e}"));
        leader
            .attach_wal(home.join("ingest.wal"))
            .unwrap_or_else(|e| panic!("[seed {seed}] shard {shard_id}: attach WAL: {e}"));

        let replica_home = root.join(format!("shard{shard_id}-replica"));
        copy_dir(&home, &replica_home);
        let _ = std::fs::remove_file(replica_home.join("ingest.wal"));
        let replica = Arc::new(
            ReachabilityEngine::open_snapshot_standalone(&replica_home).unwrap_or_else(|e| {
                panic!(
                    "[seed {seed}] shard {shard_id}: bootstrap replica from shipped artifacts: {e}"
                )
            }),
        );
        let set = Arc::new(ReplicaSet::new(leader.clone(), home.join("ingest.wal")));
        set.add_replica(replica, replica_home.join("follower.wal"))
            .unwrap_or_else(|e| panic!("[seed {seed}] shard {shard_id}: register replica: {e}"));
        homes.push(home);
        leaders.push(leader);
        sets.push(set);
    }
    (homes, leaders, sets)
}

/// Query locations spread across the network so some reachable annuli
/// straddle shard boundaries (guard-checked by the tentpole campaign).
fn spread_locations(network: &RoadNetwork) -> [GeoPoint; 3] {
    let b = network.bounds();
    let center = b.center();
    [
        center,
        GeoPoint::new(
            center.lon + (b.max_lon - b.min_lon) * 0.22,
            center.lat + (b.max_lat - b.min_lat) * 0.10,
        ),
        GeoPoint::new(
            center.lon - (b.max_lon - b.min_lon) * 0.18,
            center.lat - (b.max_lat - b.min_lat) * 0.15,
        ),
    ]
}

/// The tentpole campaign (see the module docs).
#[test]
fn sharded_replicated_serving_stays_bit_identical() {
    let seed = fault_seed();
    let root = tmp_dir("harness");
    let (network, base, round_batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    let map = Arc::new(ShardMap::partition(&network, NUM_SHARDS));

    // The quiesced single-engine reference: full index, volatile ingest.
    let reference = EngineBuilder::new(network.clone(), &base)
        .index_config(IndexConfig::default())
        .build();

    let (homes, leaders, sets) = build_fleet(&root, seed, &network, &base, &map);
    let mut router = ShardedEngine::new(map.clone(), leaders);
    for (shard_id, set) in sets.iter().enumerate() {
        router.add_replica(shard_id as u16, set.replica(0));
    }

    let locations = spread_locations(&network);
    let pool = pool(&locations, &locations[..2]);

    let rounds = if cfg!(debug_assertions) {
        2.min(round_batches.len())
    } else {
        round_batches.len().min(4)
    };
    let queries_per_thread = if cfg!(debug_assertions) { 4 } else { 8 };

    for (round, batch) in round_batches.iter().enumerate().take(rounds) {
        // Barrier phase: the fleet-day batch lands everywhere quiesced —
        // reference, every leader (via the router), every replica (via
        // shipping).
        reference
            .ingest(batch)
            .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: reference ingest: {e}"));
        router
            .ingest(batch)
            .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: sharded ingest: {e}"));
        for (shard_id, set) in sets.iter().enumerate() {
            set.ship().unwrap_or_else(|e| {
                panic!("[seed {seed}] round {round}: ship shard {shard_id}: {e}")
            });
            assert!(
                set.converged(),
                "[seed {seed}] round {round}: shard {shard_id} replica did not converge: {:?}",
                set.status()
            );
            assert_eq!(
                set.status()[0].lag_records(),
                0,
                "[seed {seed}] round {round}: shard {shard_id} reports lag after convergence"
            );
        }
        let expected = pool_answers(&reference, &pool);

        if round == 0 {
            // The scatter-gather premise: some answers must span several
            // shards, otherwise every annulus read one engine and the
            // boundary path went untested.
            let straddling = expected
                .iter()
                .filter(|(segments, _)| {
                    let mut shards: Vec<u16> = segments.iter().map(|&s| map.shard_of(s)).collect();
                    shards.sort_unstable();
                    shards.dedup();
                    shards.len() >= 2
                })
                .count();
            assert!(
                straddling > 0,
                "[seed {seed}] no pool answer straddles a shard boundary — \
                 the scatter-gather path is untested"
            );
        }

        router.set_read_preference(ReadPreference::Leader);
        assert_pool_answers(
            &router,
            &pool,
            &expected,
            seed,
            &format!("round {round} leader reads"),
        );
        router.set_read_preference(ReadPreference::ReplicaFirst);
        assert_pool_answers(
            &router,
            &pool,
            &expected,
            seed,
            &format!("round {round} replica-first reads"),
        );

        // Ship-before-rotate: checkpoint every leader mid-campaign; the
        // followers must track the rotated generation and keep answering.
        if round == 0 {
            for (shard_id, set) in sets.iter().enumerate() {
                set.checkpoint_leader(&homes[shard_id]).unwrap_or_else(|e| {
                    panic!("[seed {seed}] round {round}: checkpoint shard {shard_id}: {e}")
                });
                assert!(
                    set.converged(),
                    "[seed {seed}] round {round}: shard {shard_id} diverged across the \
                     checkpoint rotation: {:?}",
                    set.status()
                );
            }
            assert_pool_answers(
                &router,
                &pool,
                &expected,
                seed,
                &format!("round {round} post-checkpoint"),
            );
        }

        // Ship race: queries sweep the router (replica-first) while
        // slot-disjoint data lands at the leaders and ships to the
        // replicas underneath them.
        let disjoint = disjoint_batch(batch, round, BASE_DAYS);
        reference
            .ingest(&disjoint)
            .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: reference disjoint: {e}"));
        let pieces: Vec<&[TrajPoint]> =
            disjoint.chunks(disjoint.len().div_ceil(8).max(1)).collect();
        let mut next_piece = 0usize;
        {
            let sets = &sets;
            let router = &router;
            race_queries(
                router,
                &pool,
                &expected,
                Race {
                    seed,
                    threads: QUERY_THREADS,
                    queries_per_thread,
                    phase: round as u64,
                    label: &format!("round {round} ship race"),
                },
                || {
                    if next_piece < pieces.len() {
                        router.ingest(pieces[next_piece]).unwrap_or_else(|e| {
                            panic!("[seed {seed}] round {round}: racing ingest: {e}")
                        });
                        next_piece += 1;
                    }
                    for (shard_id, set) in sets.iter().enumerate() {
                        set.ship().unwrap_or_else(|e| {
                            panic!("[seed {seed}] round {round}: racing ship shard {shard_id}: {e}")
                        });
                    }
                },
            );
        }
        for piece in &pieces[next_piece..] {
            router
                .ingest(piece)
                .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: drain ingest: {e}"));
        }
        for (shard_id, set) in sets.iter().enumerate() {
            set.ship()
                .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: drain ship: {e}"));
            assert!(
                set.converged(),
                "[seed {seed}] round {round}: shard {shard_id} did not converge after the race"
            );
        }
        // Disjointness guard: the raced data must not have moved a single
        // pool answer, on the router or on the reference.
        assert_pool_answers(
            &router,
            &pool,
            &expected,
            seed,
            &format!("round {round} post-race (disjointness guard)"),
        );
        assert_pool_answers(
            &reference,
            &pool,
            &expected,
            seed,
            &format!("round {round} reference guard"),
        );
    }

    // Crash + recovery: shard 0 fails over by promoting its converged
    // replica (replays nothing); the other shards reopen from their
    // checkpoint plus WAL-tail replay. The rebuilt fleet still answers the
    // whole pool bit-identically.
    let expected = pool_answers(&reference, &pool);
    drop(router);
    let mut recovered = Vec::new();
    for (shard_id, set) in sets.into_iter().enumerate() {
        if shard_id == 0 {
            set.ship()
                .unwrap_or_else(|e| panic!("[seed {seed}] failover: final ship: {e}"));
            let (promoted, attach) = set
                .promote(0)
                .unwrap_or_else(|e| panic!("[seed {seed}] failover: promote shard 0 replica: {e}"));
            assert_eq!(
                attach.records_replayed, 0,
                "[seed {seed}] a converged follower replays nothing on promotion"
            );
            recovered.push(promoted);
        } else {
            drop(set); // crash this shard's leader and replica
            let engine = Arc::new(
                ReachabilityEngine::open_snapshot_standalone(&homes[shard_id]).unwrap_or_else(
                    |e| panic!("[seed {seed}] recovery: reopen shard {shard_id}: {e}"),
                ),
            );
            engine
                .attach_wal(homes[shard_id].join("ingest.wal"))
                .unwrap_or_else(|e| {
                    panic!("[seed {seed}] recovery: replay shard {shard_id} WAL tail: {e}")
                });
            recovered.push(engine);
        }
    }
    let recovered_router = ShardedEngine::new(map, recovered);
    assert_pool_answers(&recovered_router, &pool, &expected, seed, "recovered fleet");
    std::fs::remove_dir_all(&root).ok();
}

/// Where and when a taxi entered a segment of `shard` that is its own
/// nearest match, asked at one day's share, so the start is undecided; for
/// shard 1, one whose ES answer holds shard-0 segments, so its window reads
/// reach shard 0 though its start's reads do not.
fn start_in(
    single: &ReachabilityEngine,
    router: &ShardedEngine,
    dataset: &TrajectoryDataset,
    shard: u16,
    seed: u64,
) -> SQuery {
    let network = single.network();
    let num_days = single.st_index().num_days();
    dataset
        .trajectories()
        .iter()
        .flat_map(|traj| traj.visits.iter().take(4))
        .find_map(|visit| {
            let location = network.segment(visit.segment).mbr.center();
            if single.try_locate(&location) != Ok(visit.segment)
                || router.route_of(visit.segment) != shard
            {
                return None;
            }
            let query = SQuery {
                location,
                start_time_s: visit.enter_time_s,
                duration_s: 600,
                prob: 1.0 / num_days as f64,
            };
            let answer = single
                .try_s_query(&query, Algorithm::ExhaustiveSearch)
                .ok()?;
            (shard == 0
                || answer
                    .region
                    .segments
                    .iter()
                    .any(|&s| router.route_of(s) == 0))
            .then_some(query)
        })
        .unwrap_or_else(|| panic!("[seed {seed}] no start in shard {shard}"))
}

/// Satellite campaign: a dead disk on a replica mid-campaign fails reads
/// over to the leader bit-identically; shard exhaustion is a typed error;
/// and a healed engine is revived by the probation re-probe instead of
/// staying dead forever.
#[test]
fn replica_dead_disk_fails_over_and_shard_exhaustion_is_typed() {
    let seed = fault_seed();
    let root = tmp_dir("failover");
    let (network, dataset) = fault_scenario();
    // A one-page buffer pool keeps (almost) every posting read physical, so
    // the scripted dead disk fires on the next query instead of hiding
    // behind the cache; one retry keeps the campaign fast.
    let cfg = IndexConfig {
        pool_pages: 1,
        read_retries: 1,
        ..IndexConfig::default()
    };
    let single = EngineBuilder::new(network.clone(), &dataset)
        .index_config(cfg.clone())
        .build();
    let map = Arc::new(ShardMap::partition(&network, 2));

    let home = root.join("shard0");
    EngineBuilder::new(network.clone(), &dataset)
        .index_config(cfg.clone())
        .shard(map.clone(), 0)
        .build()
        .save_snapshot(&home)
        .unwrap_or_else(|e| panic!("[seed {seed}] save shard 0 snapshot: {e}"));
    let replica_home = root.join("shard0-replica");
    copy_dir(&home, &replica_home);

    let (leader0, leader_disk) = open_with_fault_script(&home, network.clone(), seed);
    let (replica0, replica_disk) =
        open_with_fault_script(&replica_home, network.clone(), mix(seed, 1));
    let replica0 = Arc::new(replica0);
    let leader1 = Arc::new(
        EngineBuilder::new(network.clone(), &dataset)
            .index_config(cfg)
            .shard(map.clone(), 1)
            .build(),
    );
    let mut router = ShardedEngine::new(map, vec![Arc::new(leader0), leader1]);
    router.add_replica(0, replica0.clone());
    router.set_read_preference(ReadPreference::ReplicaFirst);

    let center = network.bounds().center();
    let q = |start_time_s: u32, duration_s: u32| SQuery {
        location: center,
        start_time_s,
        duration_s,
        prob: 0.25,
    };

    // Healthy: shard 0 reads are served by the replica, bit-identically.
    let healthy = q(9 * 3600, 600);
    let want = single.try_s_query(&healthy, Algorithm::SqmbTbs).unwrap();
    let got = router.try_s_query(&healthy, Algorithm::SqmbTbs).unwrap();
    assert_eq!(
        answer_of(&want),
        answer_of(&got),
        "[seed {seed}] healthy replica-first answer diverged"
    );
    assert_eq!(router.live_engines(0), 2);
    assert!(
        replica_disk.reads_observed() > 0,
        "[seed {seed}] the replica never served a physical read — the failover premise is void"
    );
    // A start in shard 1 whose window reaches shard 0: asked three times,
    // its window slots get trajectory views on the replica (the first
    // choice), so a dead replica could serve them from memory.
    let straddling = start_in(&single, &router, &dataset, 1, seed);
    let straddling_want = single.try_s_query(&straddling, Algorithm::SqmbTbs).unwrap();
    for _ in 0..3 {
        let got = router.try_s_query(&straddling, Algorithm::SqmbTbs).unwrap();
        assert_eq!(
            answer_of(&straddling_want),
            answer_of(&got),
            "[seed {seed}] healthy straddling answer diverged"
        );
    }
    assert!(
        replica0.st_index().view_stats().views_built > 0,
        "[seed {seed}] the replica built no view"
    );

    // Dead disk on the replica mid-campaign: the next physical read marks
    // it dead and fails over to the leader; answers are unchanged.
    replica_disk.fail_reads_from(0);
    let mut replica_died = false;
    for (i, (start, duration)) in [
        (10 * 3600u32, 900u32),
        (9 * 3600 + 1800, 600),
        (8 * 3600 + 1800, 300),
        (10 * 3600 + 1800, 600),
    ]
    .into_iter()
    .enumerate()
    {
        let probe = q(start, duration);
        let want = single.try_s_query(&probe, Algorithm::SqmbTbs).unwrap();
        let got = router
            .try_s_query(&probe, Algorithm::SqmbTbs)
            .unwrap_or_else(|e| panic!("[seed {seed}] probe #{i}: failover query failed: {e}"));
        assert_eq!(
            answer_of(&want),
            answer_of(&got),
            "[seed {seed}] probe #{i} diverged after the replica's disk died"
        );
        if router.live_engines(0) == 1 {
            replica_died = true;
            break;
        }
    }
    assert!(
        replica_died,
        "[seed {seed}] the dead-disk replica was never detected"
    );

    // The leader's disk dies too: the query surfaces a typed storage
    // error — never a partial region — and the shard is exhausted.
    leader_disk.fail_reads_from(0);
    let doomed = q(9 * 3600, 900);
    let err = router.try_s_query(&doomed, Algorithm::SqmbTbs).unwrap_err();
    assert!(
        matches!(err, QueryError::Storage { .. }),
        "[seed {seed}] expected a typed storage error, got {err:?}"
    );
    assert_eq!(
        router.live_engines(0),
        0,
        "[seed {seed}] the dead leader must be marked dead"
    );
    // With every engine of the shard dead and the faults persisting, the
    // router keeps surfacing a typed storage error — either the explicit
    // exhaustion message or, when a probation re-probe fires, the actual
    // disk fault — and a probe must never revive a still-broken engine.
    for i in 0..4 {
        let err = router.try_s_query(&doomed, Algorithm::SqmbTbs).unwrap_err();
        assert!(
            matches!(err, QueryError::Storage { .. }),
            "[seed {seed}] exhausted-shard query #{i} must stay a typed storage error, got {err:?}"
        );
        assert_eq!(
            router.live_engines(0),
            0,
            "[seed {seed}] a probe revived a still-broken engine"
        );
    }

    // Probation revival: the leader's disk heals. One transient fault must
    // not be a permanent capacity loss — within one probation window a
    // re-probe reads through the healed store and revives the engine, and
    // the shard serves bit-identical answers again.
    leader_disk.clear();
    let healed = q(9 * 3600, 900);
    let want = single.try_s_query(&healed, Algorithm::SqmbTbs).unwrap();
    let mut revived_at = None;
    for attempt in 0..(4 * PROBATION_READS) {
        match router.try_s_query(&healed, Algorithm::SqmbTbs) {
            Ok(got) => {
                assert_eq!(
                    answer_of(&want),
                    answer_of(&got),
                    "[seed {seed}] healed-leader answer diverged after revival"
                );
                revived_at = Some(attempt);
                break;
            }
            Err(QueryError::Storage { .. }) => continue,
            Err(other) => panic!("[seed {seed}] unexpected error while probing: {other:?}"),
        }
    }
    assert!(
        revived_at.is_some(),
        "[seed {seed}] the healed leader was never revived by probation"
    );
    assert!(
        router.live_engines(0) >= 1,
        "[seed {seed}] revival must be visible in the live count"
    );

    // A probation probe reads through the engine's buffer pool, so a page
    // pooled before the disk died may have revived the replica while its
    // disk is still dead. Drive it dead again past the pool, so that only
    // a probe of the healed disk can revive it below.
    replica0.st_index().clear_cache();
    for _ in 0..(4 * PROBATION_READS) {
        if router.live_engines(0) == 1 {
            break;
        }
        let got = router
            .try_s_query(&healed, Algorithm::SqmbTbs)
            .unwrap_or_else(|e| panic!("[seed {seed}] query over a dead replica failed: {e}"));
        assert_eq!(
            answer_of(&want),
            answer_of(&got),
            "[seed {seed}] answer diverged while the replica died again"
        );
    }
    assert_eq!(
        router.live_engines(0),
        1,
        "[seed {seed}] the replica was live before its disk healed"
    );
    let reads_before_heal = replica_disk.reads_observed();

    // The replica heals too and rejoins within a few probation windows.
    // Only the straddling query's window reads reach shard 0, and they
    // read segment-major while its first choice is dead, so they re-probe
    // the replica: served from the dead replica's views, they never would.
    replica_disk.clear();
    for _ in 0..(4 * PROBATION_READS) {
        let got = router
            .try_s_query(&straddling, Algorithm::SqmbTbs)
            .unwrap_or_else(|e| panic!("[seed {seed}] post-revival query failed: {e}"));
        assert_eq!(
            answer_of(&straddling_want),
            answer_of(&got),
            "[seed {seed}] answer diverged while the replica rejoined"
        );
        if router.live_engines(0) == 2 {
            break;
        }
    }
    assert_eq!(
        router.live_engines(0),
        2,
        "[seed {seed}] the healed replica was never revived by probation"
    );
    assert!(
        replica_disk.reads_observed() > reads_before_heal,
        "[seed {seed}] the replica rejoined without reading its healed disk"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// A shard whose first-choice engine is marked dead reads segment-major
/// through the failover path, even where that engine holds the window's
/// trajectory views in memory, so its reads keep re-probing the dead
/// engine and a healed one rejoins. The start is owned by the other shard,
/// so only the window's reads can reach the dead engine: forwarding from it
/// would never re-probe it.
#[test]
fn a_degraded_shard_reads_segment_major_so_probation_revives_its_first_choice() {
    let seed = fault_seed();
    let root = tmp_dir("degraded");
    let (network, dataset) = fault_scenario();
    let cfg = IndexConfig {
        pool_pages: 1,
        read_retries: 1,
        ..IndexConfig::default()
    };
    let single = EngineBuilder::new(network.clone(), &dataset)
        .index_config(cfg.clone())
        .build();
    let map = Arc::new(ShardMap::partition(&network, 2));
    let home = root.join("shard0");
    EngineBuilder::new(network.clone(), &dataset)
        .index_config(cfg.clone())
        .shard(map.clone(), 0)
        .build()
        .save_snapshot(&home)
        .unwrap_or_else(|e| panic!("[seed {seed}] save shard 0 snapshot: {e}"));
    let replica_home = root.join("shard0-replica");
    copy_dir(&home, &replica_home);
    let leader0 = ReachabilityEngine::open_snapshot(&home, network.clone())
        .unwrap_or_else(|e| panic!("[seed {seed}] open shard 0 leader: {e}"));
    let (replica0, replica_disk) =
        open_with_fault_script(&replica_home, network.clone(), mix(seed, 2));
    let replica0 = Arc::new(replica0);
    let leader1 = EngineBuilder::new(network.clone(), &dataset)
        .index_config(cfg)
        .shard(map.clone(), 1)
        .build();
    let mut router = ShardedEngine::new(map, vec![Arc::new(leader0), Arc::new(leader1)]);
    router.add_replica(0, replica0.clone());
    router.set_read_preference(ReadPreference::ReplicaFirst);

    let start_in = |shard| start_in(&single, &router, &dataset, shard, seed);
    let straddling = start_in(1);
    let ask = |query: &SQuery| {
        for algorithm in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
            let want = single.try_s_query(query, algorithm).unwrap();
            let got = router
                .try_s_query(query, algorithm)
                .unwrap_or_else(|e| panic!("[seed {seed}] routed {algorithm:?}: {e}"));
            assert_eq!(
                answer_of(&want),
                answer_of(&got),
                "[seed {seed}] {query:?} {algorithm:?} diverged"
            );
        }
    };
    // Healthy: the asks build the window's views on both first choices.
    ask(&straddling);
    assert!(
        replica0.st_index().view_stats().views_built > 0,
        "[seed {seed}] the first-choice replica built no view"
    );

    // The replica's disk dies: the first physical read of a shard-0 start
    // marks it dead.
    replica_disk.fail_reads_from(0);
    replica0.st_index().clear_cache();
    let _ = router.try_s_query(&start_in(0), Algorithm::SqmbTbs);
    assert_eq!(
        router.live_engines(0),
        1,
        "[seed {seed}] the replica's dead disk was not detected"
    );

    // Healed, still marked dead: shard 0 is degraded, so the straddling
    // window is read segment-major and its shard-0 reads re-probe the
    // replica, which rejoins within a few queries.
    replica_disk.clear();
    let mut asked = 0;
    while router.live_engines(0) < 2 && asked < 4 {
        ask(&straddling);
        asked += 1;
    }
    assert_eq!(
        router.live_engines(0),
        2,
        "[seed {seed}] the healed first choice was not revived after {asked} queries"
    );
    ask(&straddling);
    std::fs::remove_dir_all(&root).ok();
}

/// Split-brain campaign: a partitioned-but-alive deposed leader must
/// reject writes loudly after a fenced promotion — it can never ack a
/// record the promoted fleet does not see — and the promoted fleet keeps
/// answering bit-identically to the single reference engine across all
/// four pipelines.
#[test]
fn split_brain_promotion_fences_the_deposed_leader() {
    let seed = fault_seed();
    let root = tmp_dir("split-brain");
    let (network, base, round_batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    let map = Arc::new(ShardMap::partition(&network, NUM_SHARDS));
    let reference = EngineBuilder::new(network.clone(), &base)
        .index_config(IndexConfig::default())
        .build();
    let (_homes, leaders, sets) = build_fleet(&root, seed, &network, &base, &map);
    let mut router = ShardedEngine::new(map.clone(), leaders.clone());
    for (shard_id, set) in sets.iter().enumerate() {
        router.add_replica(shard_id as u16, set.replica(0));
    }
    let locations = spread_locations(&network);
    let pool = pool(&locations, &locations[..2]);

    // A live round lands everywhere, ships, and converges.
    reference
        .ingest(&round_batches[0])
        .unwrap_or_else(|e| panic!("[seed {seed}] reference ingest: {e}"));
    router
        .ingest(&round_batches[0])
        .unwrap_or_else(|e| panic!("[seed {seed}] fleet ingest: {e}"));
    for (shard_id, set) in sets.iter().enumerate() {
        set.ship()
            .unwrap_or_else(|e| panic!("[seed {seed}] ship shard {shard_id}: {e}"));
        assert!(set.converged(), "[seed {seed}] shard {shard_id} converged");
    }

    // Shard 0's leader is "partitioned away": its converged replica is
    // promoted — fenced — and installed as the shard's serving leader.
    let (promoted, attach) = sets[0]
        .promote(0)
        .unwrap_or_else(|e| panic!("[seed {seed}] promote shard 0 replica: {e}"));
    assert_eq!(
        attach.records_replayed, 0,
        "[seed {seed}] a converged follower replays nothing on promotion"
    );
    router.install_leader(0, promoted.clone());

    // The deposed leader can never ack again: every retry fails with the
    // typed fencing error before the record lands, and nothing applies.
    let deposed = &leaders[0];
    let position = deposed.wal_position();
    for attempt in 0..2 {
        let err = deposed
            .ingest(&round_batches[1])
            .expect_err("a deposed leader must not ack a write");
        assert!(
            matches!(err, StorageError::Fenced { .. }),
            "[seed {seed}] attempt {attempt}: expected the typed fencing error, got {err}"
        );
        assert_eq!(
            deposed.wal_position(),
            position,
            "[seed {seed}] attempt {attempt}: a fenced ingest must apply nothing"
        );
    }
    // The retired set neither ships from the deposed leader's log nor
    // mints a second promotion epoch.
    assert!(
        matches!(sets[0].ship(), Err(StorageError::Fenced { .. })),
        "[seed {seed}] a retired set must refuse to ship"
    );
    assert!(
        matches!(sets[0].promote(0), Err(StorageError::Fenced { .. })),
        "[seed {seed}] a second promotion must be refused"
    );

    // Life goes on through the promoted leader: the next round lands on
    // the fleet and the reference, and every pipeline stays bit-identical.
    reference
        .ingest(&round_batches[1])
        .unwrap_or_else(|e| panic!("[seed {seed}] reference round 2: {e}"));
    router
        .ingest(&round_batches[1])
        .unwrap_or_else(|e| panic!("[seed {seed}] fleet round 2 through the promoted leader: {e}"));
    for (shard_id, set) in sets.iter().enumerate().skip(1) {
        set.ship()
            .unwrap_or_else(|e| panic!("[seed {seed}] round 2 ship shard {shard_id}: {e}"));
    }
    let expected = pool_answers(&reference, &pool);
    router.set_read_preference(ReadPreference::Leader);
    assert_pool_answers(
        &router,
        &pool,
        &expected,
        seed,
        "promoted fleet leader reads",
    );
    router.set_read_preference(ReadPreference::ReplicaFirst);
    assert_pool_answers(
        &router,
        &pool,
        &expected,
        seed,
        "promoted fleet replica-first reads",
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Background-shipping race: a `ReplicationController` owns `ship()` on
/// its own thread while query threads sweep the replica and the caller
/// ingests slot-disjoint batches at the leader. Answers stay bit-identical
/// throughout, the fleet converges deterministically via `run_now`, and
/// the exactly-once counter proves no record shipped twice.
#[test]
fn background_controller_ships_under_live_ingest() {
    let seed = fault_seed();
    let root = tmp_dir("controller-race");
    let (network, base, round_batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    let leader = Arc::new(
        EngineBuilder::new(network.clone(), &base)
            .index_config(IndexConfig::default())
            .build(),
    );
    let home = root.join("leader");
    leader
        .save_snapshot_self_contained(&home)
        .unwrap_or_else(|e| panic!("[seed {seed}] save leader: {e}"));
    leader
        .attach_wal(home.join("ingest.wal"))
        .unwrap_or_else(|e| panic!("[seed {seed}] attach WAL: {e}"));
    let replica_home = root.join("replica");
    copy_dir(&home, &replica_home);
    let _ = std::fs::remove_file(replica_home.join("ingest.wal"));
    let replica = Arc::new(
        ReachabilityEngine::open_snapshot_standalone(&replica_home)
            .unwrap_or_else(|e| panic!("[seed {seed}] bootstrap replica: {e}")),
    );
    let set = Arc::new(ReplicaSet::new(leader.clone(), home.join("ingest.wal")));
    set.add_replica(replica.clone(), replica_home.join("follower.wal"))
        .unwrap_or_else(|e| panic!("[seed {seed}] register replica: {e}"));
    let ctl = ReplicationController::spawn(
        set.clone(),
        ReplicationConfig {
            poll_interval: std::time::Duration::from_millis(2),
            ..ReplicationConfig::default()
        },
    );

    // A live batch lands and ships; the quiesced replica answers fix the
    // expectation for the race (the raced data is slot-disjoint).
    leader
        .ingest(&round_batches[0])
        .unwrap_or_else(|e| panic!("[seed {seed}] leader ingest: {e}"));
    ctl.run_now();
    assert!(
        set.converged(),
        "[seed {seed}] replica converged after run_now"
    );
    let locations = spread_locations(&network);
    let pool = pool(&locations, &locations[..2]);
    let expected = pool_answers(replica.as_ref(), &pool);

    let disjoint = disjoint_batch(&round_batches[0], 0, BASE_DAYS);
    let pieces: Vec<&[TrajPoint]> = disjoint.chunks(disjoint.len().div_ceil(8).max(1)).collect();
    let queries_per_thread = if cfg!(debug_assertions) { 4 } else { 8 };
    let mut next_piece = 0usize;
    {
        let leader = &leader;
        let ctl = &ctl;
        race_queries(
            replica.as_ref(),
            &pool,
            &expected,
            Race {
                seed,
                threads: QUERY_THREADS,
                queries_per_thread,
                phase: 777,
                label: "background shipping race",
            },
            || {
                if next_piece < pieces.len() {
                    leader.ingest(pieces[next_piece]).unwrap_or_else(|e| {
                        panic!("[seed {seed}] racing ingest piece {next_piece}: {e}")
                    });
                    next_piece += 1;
                    ctl.kick();
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            },
        );
    }
    for piece in &pieces[next_piece..] {
        leader
            .ingest(piece)
            .unwrap_or_else(|e| panic!("[seed {seed}] drain ingest: {e}"));
    }
    ctl.run_now();
    assert!(
        set.converged(),
        "[seed {seed}] fleet must converge after the final run_now: {:?}",
        set.status()
    );
    assert_eq!(ctl.lag(), vec![0], "[seed {seed}] lag observable as zero");
    let stats = ctl.stats();
    assert!(stats.passes >= 1, "[seed {seed}] the worker ran passes");
    assert_eq!(
        stats.records_shipped,
        leader.wal_position().1,
        "[seed {seed}] every record shipped exactly once: {stats:?}"
    );
    // The disjointness guard: the raced data moved no morning answer.
    assert_pool_answers(
        replica.as_ref(),
        &pool,
        &expected,
        seed,
        "post-race replica",
    );
    assert_pool_answers(leader.as_ref(), &pool, &expected, seed, "post-race leader");
    let events = ctl.shutdown();
    assert!(
        events.is_empty(),
        "[seed {seed}] a healthy campaign surfaces no events: {events:?}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Apply-fault campaign: a scripted dead base disk on the replica makes
/// replicated apply fail, since every shipped record lands on a (slot,
/// segment) pair with a base list that apply must read to merge. The controller keeps the records staged
/// (never dropping or re-polling them), lag grows past the SLO and fires
/// the typed breach event, and after the disk heals one kick re-converges
/// the fleet with zero re-replayed records.
#[test]
fn controller_rides_out_replica_apply_faults_with_slo_events() {
    let seed = fault_seed();
    let root = tmp_dir("apply-faults");
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 6,
            num_days: 2,
            day_start_s: 8 * 3600,
            day_end_s: 11 * 3600,
            seed: 31,
            ..FleetConfig::default()
        },
    );
    let leader = Arc::new(
        EngineBuilder::new(network.clone(), &dataset)
            .index_config(IndexConfig::default())
            .build(),
    );
    let home = root.join("leader");
    leader
        .save_snapshot(&home)
        .unwrap_or_else(|e| panic!("[seed {seed}] save leader: {e}"));
    leader
        .attach_wal(home.join("ingest.wal"))
        .unwrap_or_else(|e| panic!("[seed {seed}] attach WAL: {e}"));
    let replica_home = root.join("replica");
    copy_dir(&home, &replica_home);
    let _ = std::fs::remove_file(replica_home.join("ingest.wal"));
    let (replica, replica_disk) = open_with_fault_script(&replica_home, network.clone(), seed);
    let replica = Arc::new(replica);
    let set = Arc::new(ReplicaSet::new(leader.clone(), home.join("ingest.wal")));
    set.add_replica(replica.clone(), replica_home.join("follower.wal"))
        .unwrap_or_else(|e| panic!("[seed {seed}] register replica: {e}"));
    let slo = 4u64;
    let ctl = ReplicationController::spawn(
        set.clone(),
        ReplicationConfig {
            poll_interval: std::time::Duration::from_millis(3),
            lag_slo_records: slo,
            retry_backoff: std::time::Duration::from_millis(1),
            max_backoff: std::time::Duration::from_millis(10),
        },
    );
    // One point per record, each on its own (slot, segment) pair of the
    // base dataset: its visits in order, one per pair, so every record's
    // apply reads a base list no earlier record overrode.
    let mut pairs = std::collections::BTreeSet::new();
    let visits: Vec<(SegmentId, u32)> = dataset
        .trajectories()
        .iter()
        .flat_map(|t| t.visits.iter())
        .filter(|v| pairs.insert((v.enter_time_s / 300, v.segment)))
        .map(|v| (v.segment, v.enter_time_s))
        .collect();
    let burst = 3 * slo as u32;
    assert!(visits.len() > 2 + burst as usize);
    let batch = |i: u32| -> Vec<TrajPoint> {
        let (segment, enter_time_s) = visits[i as usize];
        vec![TrajPoint {
            traj_id: 900 + i,
            date: 1,
            segment,
            enter_time_s,
        }]
    };

    // Healthy baseline: two records ship and apply, reading base lists.
    replica.st_index().clear_cache();
    let reads_before = replica_disk.reads_observed();
    for i in 0..2 {
        leader
            .ingest(&batch(i))
            .unwrap_or_else(|e| panic!("[seed {seed}] baseline ingest #{i}: {e}"));
    }
    ctl.run_now();
    assert!(set.converged(), "[seed {seed}] baseline converged");
    assert!(
        replica_disk.reads_observed() > reads_before,
        "[seed {seed}] replicated apply never read the base store — the fault lever is void"
    );

    // Dead replica disk: every base read EIOs, so apply fails while the
    // leader keeps ingesting. Lag must grow past the SLO and fire the
    // typed events; the shipped records stay staged.
    replica.st_index().clear_cache();
    replica_disk.fail_reads_from(0);
    for i in 2..2 + burst {
        leader
            .ingest(&batch(i))
            .unwrap_or_else(|e| panic!("[seed {seed}] burst ingest #{i}: {e}"));
    }
    ctl.run_now();
    let lag = ctl.lag()[0];
    assert!(
        lag >= u64::from(burst),
        "[seed {seed}] lag must grow while apply faults: {lag}"
    );
    let events = ctl.take_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ReplicationEvent::ShipFailed { .. })),
        "[seed {seed}] the apply fault surfaces as a typed ship failure: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            ReplicationEvent::SloBreached { replica: 0, lag_records, slo_records }
                if *lag_records > *slo_records && *slo_records == slo
        )),
        "[seed {seed}] crossing the SLO fires the typed breach event: {events:?}"
    );
    let stats = ctl.stats();
    assert!(
        stats.ship_errors >= 1 && stats.slo_breaches == 1,
        "[seed {seed}] stats must record the excursion: {stats:?}"
    );

    // Heal: one kicked pass (backoff bypassed) drains the staged records
    // and re-converges. Zero re-replay: the follower log holds exactly the
    // leader's record count — a re-shipped record would have broken the
    // log's contiguity check — and the engines agree on the position.
    replica_disk.clear();
    ctl.run_now();
    assert!(
        set.converged(),
        "[seed {seed}] healed fleet re-converges: {:?}",
        set.status()
    );
    assert_eq!(ctl.lag(), vec![0], "[seed {seed}] lag back under the SLO");
    let status = &set.status()[0];
    assert_eq!(
        status.shipped_records,
        leader.wal_position().1,
        "[seed {seed}] every leader record entered the follower log exactly once"
    );
    let events = ctl.take_events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            ReplicationEvent::SloRecovered { replica: 0, lag_records } if *lag_records <= slo
        )),
        "[seed {seed}] recovery fires the typed event: {events:?}"
    );
    ctl.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// The queries of the forward campaign: SQMB+TBS and ES s-queries from the
/// spread locations, from an undecided start of the base days
/// (`split_start`) and from where and when a taxi of the `live` points
/// entered a segment, and an MQMB m-query per window over two spread
/// locations and those starts.
fn forward_queries(
    network: &RoadNetwork,
    reference: &ReachabilityEngine,
    base: &TrajectoryDataset,
    live: &[TrajPoint],
) -> (Vec<(SQuery, Algorithm)>, Vec<MQuery>) {
    let locations = spread_locations(network);
    let (undecided, _, _) = split_start(reference, base, 600);
    let (live_location, live_at) = live
        .iter()
        .find_map(|p| {
            let location = network.segment(p.segment).mbr.center();
            (reference.try_locate(&location) == Ok(p.segment)).then_some((location, p.enter_time_s))
        })
        .expect("a live point on a segment that is its own nearest match");
    let windows = [
        (8 * 3600 + 1800, 300u32, 0.25),
        (9 * 3600, 600, 0.25),
        (9 * 3600 + 900, 900, 0.6),
        (undecided.start_time_s, undecided.duration_s, undecided.prob),
        (live_at, 600, 0.25),
    ];
    let mut s_queries = Vec::new();
    let mut m_queries = Vec::new();
    for (start_time_s, duration_s, prob) in windows {
        for location in locations
            .iter()
            .copied()
            .chain([undecided.location, live_location])
        {
            let q = SQuery {
                location,
                start_time_s,
                duration_s,
                prob,
            };
            s_queries.push((q, Algorithm::SqmbTbs));
            s_queries.push((q, Algorithm::ExhaustiveSearch));
        }
        m_queries.push(MQuery {
            locations: vec![locations[0], undecided.location, live_location],
            start_time_s,
            duration_s,
            prob,
        });
    }
    (s_queries, m_queries)
}

/// Asks every query of the forward campaign three times on `router` — a
/// window slot's first verification reads it segment-major, the second
/// builds each first-choice engine's view of it, later ones read forward —
/// and asserts each answer equals the single `reference` engine's, which
/// equals the naive oracle (`query::reference`), bit for bit.
fn assert_three_asks(
    seed: u64,
    label: &str,
    router: &ShardedEngine,
    reference: &ReachabilityEngine,
    (s_queries, m_queries): &(Vec<(SQuery, Algorithm)>, Vec<MQuery>),
) {
    let locate = |location: &GeoPoint| reference.try_locate(location).expect("on the network");
    let mut verified = 0;
    let mut s_expected = Vec::new();
    for (q, algorithm) in s_queries {
        let want = reference
            .try_s_query(q, *algorithm)
            .expect("reference s-query");
        assert_eq!(
            answer_of(&want),
            oracle(reference, q, *algorithm),
            "[seed {seed}] {label}: reference diverged from the oracle on {q:?} {algorithm:?}"
        );
        verified += want.stats.segments_verified;
        s_expected.push(answer_of(&want));
    }
    assert!(verified > 0, "[seed {seed}] {label}: no query verified");
    let mut m_expected = Vec::new();
    for m in m_queries {
        let want = reference
            .try_m_query(m, MQueryAlgorithm::MqmbTbs)
            .expect("reference m-query");
        let starts: Vec<SegmentId> = m.locations.iter().map(locate).collect();
        let oracle = naive_m_query(
            reference.network(),
            reference.con_index(),
            reference.st_index(),
            m,
            &starts,
        )
        .expect("oracle m-query");
        assert_eq!(
            answer_of(&want),
            region_bits(&oracle),
            "[seed {seed}] {label}: reference diverged from the oracle on {m:?}"
        );
        m_expected.push(answer_of(&want));
    }
    for ask in 0..3 {
        for ((q, algorithm), want) in s_queries.iter().zip(&s_expected) {
            let got = router
                .try_s_query(q, *algorithm)
                .unwrap_or_else(|e| panic!("[seed {seed}] {label}: routed s-query: {e}"));
            assert_eq!(
                &answer_of(&got),
                want,
                "[seed {seed}] {label}, ask {ask}: {q:?} {algorithm:?}"
            );
        }
        for (m, want) in m_queries.iter().zip(&m_expected) {
            let got = router
                .try_m_query(m, MQueryAlgorithm::MqmbTbs)
                .unwrap_or_else(|e| panic!("[seed {seed}] {label}: routed m-query: {e}"));
            assert_eq!(
                &answer_of(&got),
                want,
                "[seed {seed}] {label}, ask {ask}: {m:?}"
            );
        }
    }
}

/// Forward campaign: 2 shards × 1 replica, replica-first reads. The router
/// reads window slots forward through each shard's first-choice engine (the
/// replica) and ORs the shards' parts; every answer stays bit-identical to
/// the single engine and the oracle — on the built fleet, after a routed
/// ingest (delta lists carrying what the base lacks), after a re-ingest
/// into the same pairs (their `added` lists grow), and on a fleet reopened
/// from snapshots whose `delta` sections are not empty (lists whose
/// `added` is unknown), before and after ingest onto those lists.
#[test]
fn routed_forward_reads_match_the_single_engine_and_the_oracle() {
    let seed = fault_seed();
    let root = tmp_dir("routed-forward");
    let (network, base, batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    let map = Arc::new(ShardMap::partition(&network, 2));
    let reference = EngineBuilder::new(network.clone(), &base)
        .index_config(IndexConfig::default())
        .build();
    let (_homes, leaders, sets) = build_fleet(&root, seed, &network, &base, &map);
    let mut router = ShardedEngine::new(map.clone(), leaders.clone());
    for (shard_id, set) in sets.iter().enumerate() {
        router.add_replica(shard_id as u16, set.replica(0));
    }
    router.set_read_preference(ReadPreference::ReplicaFirst);
    // The first extra day, whole: one live batch per trajectory.
    let live_day: Vec<TrajPoint> = batches
        .iter()
        .flatten()
        .filter(|p| p.date == BASE_DAYS)
        .copied()
        .collect();
    let queries = forward_queries(&network, &reference, &base, &live_day);

    assert_three_asks(seed, "built fleet", &router, &reference, &queries);
    for (shard_id, (set, leader)) in sets.iter().zip(&leaders).enumerate() {
        assert!(
            set.replica(0).st_index().view_stats().views_built > 0,
            "[seed {seed}] shard {shard_id}: the first-choice replica built no view"
        );
        assert_eq!(
            leader.st_index().view_stats().views_built,
            0,
            "[seed {seed}] shard {shard_id}: a view was built off the first choice"
        );
    }

    // A new day through the router: the replicas' delta lists carry what
    // their base lists lack. Then the same pairs again, under new IDs on a
    // base day: each list's `added` grows, and must keep the new day.
    let again: Vec<TrajPoint> = live_day
        .iter()
        .map(|p| TrajPoint {
            traj_id: p.traj_id + 1_000_000,
            date: 0,
            ..*p
        })
        .collect();
    for (label, batch) in [("after ingest", &live_day), ("after re-ingest", &again)] {
        reference
            .ingest(batch)
            .unwrap_or_else(|e| panic!("[seed {seed}] {label}: reference ingest: {e}"));
        router
            .ingest(batch)
            .unwrap_or_else(|e| panic!("[seed {seed}] {label}: routed ingest: {e}"));
        for (shard_id, set) in sets.iter().enumerate() {
            set.ship()
                .unwrap_or_else(|e| panic!("[seed {seed}] {label}: ship shard {shard_id}: {e}"));
            assert!(
                set.converged(),
                "[seed {seed}] {label}: shard {shard_id} did not converge"
            );
            assert!(set.replica(0).st_index().delta_stats().delta_lists > 0);
        }
        assert_three_asks(seed, label, &router, &reference, &queries);
    }

    // Reopen every shard from a snapshot holding its delta tail: the
    // reopened lists carry no `added`, and neither do lists merged onto
    // them.
    let reopened: Vec<Arc<ReachabilityEngine>> = leaders
        .iter()
        .enumerate()
        .map(|(shard_id, leader)| {
            let dir = root.join(format!("reopened{shard_id}"));
            leader
                .save_snapshot(&dir)
                .unwrap_or_else(|e| panic!("[seed {seed}] save shard {shard_id}: {e}"));
            let engine = ReachabilityEngine::open_snapshot(&dir, network.clone())
                .unwrap_or_else(|e| panic!("[seed {seed}] reopen shard {shard_id}: {e}"));
            assert!(engine.st_index().delta_stats().delta_lists > 0);
            Arc::new(engine)
        })
        .collect();
    drop(router);
    let router = ShardedEngine::new(map, reopened.clone());
    assert_three_asks(seed, "reopened fleet", &router, &reference, &queries);
    let later: Vec<TrajPoint> = live_day
        .iter()
        .map(|p| TrajPoint {
            traj_id: p.traj_id + 2_000_000,
            date: 1,
            ..*p
        })
        .collect();
    reference
        .ingest(&later)
        .unwrap_or_else(|e| panic!("[seed {seed}] reference ingest onto the reopened lists: {e}"));
    router
        .ingest(&later)
        .unwrap_or_else(|e| panic!("[seed {seed}] ingest onto the reopened lists: {e}"));
    assert_three_asks(
        seed,
        "reopened fleet after ingest",
        &router,
        &reference,
        &queries,
    );
    for (shard_id, engine) in reopened.iter().enumerate() {
        assert!(
            engine.st_index().view_stats().views_built > 0,
            "[seed {seed}] reopened shard {shard_id} built no view"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Asks the forward campaign's s-queries three times, in lockstep on the
/// single `reference` engine and on `router`, so that each engine of both
/// sees the same touches of every window slot. Every answer equals the
/// oracle, which reads every list segment-major, bit for bit; the router's
/// `view_pairs_walked` equals the single engine's, query by query, whatever
/// the number of shards; and the third ask walks. Returns the router's
/// pairs walked per ask, query by query.
fn assert_lockstep_walks(
    seed: u64,
    label: &str,
    router: &ShardedEngine,
    reference: &ReachabilityEngine,
    s_queries: &[(SQuery, Algorithm)],
) -> Vec<Vec<u64>> {
    let mut asks = Vec::new();
    for ask in 0..3 {
        let mut walked = Vec::new();
        for (q, algorithm) in s_queries {
            let want = reference
                .try_s_query(q, *algorithm)
                .expect("reference s-query");
            let got = router
                .try_s_query(q, *algorithm)
                .unwrap_or_else(|e| panic!("[seed {seed}] {label}: routed s-query: {e}"));
            let at = format!("[seed {seed}] {label}, ask {ask}: {q:?} {algorithm:?}");
            assert_eq!(answer_of(&got), oracle(reference, q, *algorithm), "{at}");
            assert_eq!(answer_of(&got), answer_of(&want), "{at}");
            let (w, g) = (&want.stats, &got.stats);
            assert_eq!(w.view_pairs_walked, g.view_pairs_walked, "{at}");
            walked.push(g.view_pairs_walked);
        }
        if ask == 2 {
            assert!(
                walked.iter().sum::<u64>() > 0,
                "[seed {seed}] {label}: the third ask walked nothing"
            );
        }
        asks.push(walked);
    }
    asks
}

/// Whether some query walked fewer pairs on the first of `asks` than on the
/// last: a window slot it reads had no view on the first ask.
fn first_ask_read_segment_major(asks: &[Vec<u64>]) -> bool {
    asks[0]
        .iter()
        .zip(&asks[2])
        .any(|(first, last)| first < last)
}

/// Forward-through-delta campaign, routed: 2 shards × 1 replica,
/// replica-first reads, so every walk reads the replicas' views, and the
/// replicas' deltas arrive by follower apply. Asked in lockstep with the
/// single engine ([`assert_lockstep_walks`]): on the built fleet; after a
/// routed ingest, which drops every touched slot's view on the replicas
/// until two asks rebuild it over the delta lists; after a re-ingest into
/// the same (slot, segment) pairs; on a fleet reopened from snapshots whose
/// delta sections are not empty; and after a compaction of every engine
/// while a pin of each old state is held.
#[test]
fn routed_walks_through_the_delta_match_the_single_engine_and_the_oracle() {
    let seed = fault_seed();
    let root = tmp_dir("routed-delta-walk");
    let (network, base, batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    let map = Arc::new(ShardMap::partition(&network, 2));
    let reference = EngineBuilder::new(network.clone(), &base)
        .index_config(IndexConfig::default())
        .build();
    let (_homes, leaders, sets) = build_fleet(&root, seed, &network, &base, &map);
    let mut router = ShardedEngine::new(map.clone(), leaders.clone());
    for (shard_id, set) in sets.iter().enumerate() {
        router.add_replica(shard_id as u16, set.replica(0));
    }
    router.set_read_preference(ReadPreference::ReplicaFirst);
    let live_day: Vec<TrajPoint> = batches
        .iter()
        .flatten()
        .filter(|p| p.date == BASE_DAYS)
        .copied()
        .collect();
    let (s_queries, _) = forward_queries(&network, &reference, &base, &live_day);
    let replica_views = || -> Vec<ViewStats> {
        sets.iter()
            .map(|set| set.replica(0).st_index().view_stats())
            .collect()
    };

    assert_lockstep_walks(seed, "built fleet", &router, &reference, &s_queries);
    // The same pairs again, under new IDs on a base day.
    let again: Vec<TrajPoint> = live_day
        .iter()
        .map(|p| TrajPoint {
            traj_id: p.traj_id + 1_000_000,
            date: 1,
            ..*p
        })
        .collect();
    for (label, batch) in [("after ingest", &live_day), ("after re-ingest", &again)] {
        let walked = replica_views();
        reference
            .ingest(batch)
            .unwrap_or_else(|e| panic!("[seed {seed}] {label}: reference ingest: {e}"));
        router
            .ingest(batch)
            .unwrap_or_else(|e| panic!("[seed {seed}] {label}: routed ingest: {e}"));
        for (shard_id, set) in sets.iter().enumerate() {
            set.ship()
                .unwrap_or_else(|e| panic!("[seed {seed}] {label}: ship shard {shard_id}: {e}"));
            assert!(set.converged(), "[seed {seed}] {label}: shard {shard_id}");
        }
        let folded = replica_views();
        for (shard_id, (before, after)) in walked.iter().zip(&folded).enumerate() {
            assert!(
                after.views_built < before.views_built,
                "[seed {seed}] {label}: follower apply kept every touched slot's view \
                 on shard {shard_id}: {before:?} → {after:?}"
            );
        }
        let asks = assert_lockstep_walks(seed, label, &router, &reference, &s_queries);
        assert!(
            first_ask_read_segment_major(&asks),
            "[seed {seed}] {label}: the fold dropped no view a query walks"
        );
        for (shard_id, (before, after)) in folded.iter().zip(replica_views()).enumerate() {
            assert!(
                after.views_built > before.views_built,
                "[seed {seed}] {label}: shard {shard_id} rebuilt no view: {after:?}"
            );
        }
    }

    // Reopened: the single engine and every shard leader from their
    // snapshots, so the lockstep starts from no view on either side.
    let reopen = |name: String, engine: &ReachabilityEngine| {
        let dir = root.join(name);
        engine
            .save_snapshot(&dir)
            .unwrap_or_else(|e| panic!("[seed {seed}] save {dir:?}: {e}"));
        let engine = ReachabilityEngine::open_snapshot(&dir, network.clone())
            .unwrap_or_else(|e| panic!("[seed {seed}] reopen {dir:?}: {e}"));
        assert!(engine.st_index().delta_stats().delta_lists > 0);
        Arc::new(engine)
    };
    let reference = reopen("reference".into(), &reference);
    let reopened: Vec<Arc<ReachabilityEngine>> = leaders
        .iter()
        .enumerate()
        .map(|(shard_id, leader)| reopen(format!("reopened{shard_id}"), leader))
        .collect();
    drop(router);
    let router = ShardedEngine::new(map, reopened.clone());
    let asks = assert_lockstep_walks(seed, "reopened", &router, &reference, &s_queries);
    assert!(
        first_ask_read_segment_major(&asks),
        "[seed {seed}] a first ask of a reopened slot reads it segment-major"
    );

    let held: Vec<_> = reopened
        .iter()
        .chain([&reference])
        .map(|engine| engine.st_index().pin())
        .collect();
    for engine in reopened.iter().chain([&reference]) {
        engine
            .compact()
            .unwrap_or_else(|e| panic!("[seed {seed}] compact: {e}"));
        assert_eq!(engine.st_index().view_stats(), ViewStats::default());
    }
    assert_lockstep_walks(seed, "compacted", &router, &reference, &s_queries);
    drop(held);
    std::fs::remove_dir_all(&root).ok();
}

/// A batch whose points all lie on one shard's segments folds into that
/// shard's slots alone, so the other shard keeps its views of them. A slot
/// is forward on the router only when every shard offers its view, and the
/// folded shard's view is dropped just as the single engine's is, so the
/// router walks exactly what the single engine walks, query by query, on
/// every ask after the fold, and both answer like the oracle.
#[test]
fn a_one_shard_fold_keeps_the_router_walking_like_the_single_engine() {
    let seed = fault_seed();
    let (network, base, batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    let map = Arc::new(ShardMap::partition(&network, 2));
    let build = |shard: Option<u16>| {
        let builder =
            EngineBuilder::new(network.clone(), &base).index_config(IndexConfig::default());
        Arc::new(match shard {
            Some(shard_id) => builder.shard(map.clone(), shard_id).build(),
            None => builder.build(),
        })
    };
    let reference = build(None);
    let leaders: Vec<Arc<ReachabilityEngine>> = (0..2).map(|id| build(Some(id))).collect();
    let router = ShardedEngine::new(map.clone(), leaders.clone());
    let live_day: Vec<TrajPoint> = batches
        .iter()
        .flatten()
        .filter(|p| p.date == BASE_DAYS)
        .copied()
        .collect();
    let (s_queries, _) = forward_queries(&network, &reference, &base, &live_day);
    assert_lockstep_walks(seed, "built", &router, &reference, &s_queries);

    let views = |engine: &ReachabilityEngine| engine.st_index().view_stats().views_built;
    let before: Vec<u64> = leaders.iter().map(|leader| views(leader)).collect();
    let one_shard: Vec<TrajPoint> = live_day
        .iter()
        .filter(|p| map.shard_of(p.segment) == 1)
        .copied()
        .collect();
    assert!(!one_shard.is_empty() && one_shard.len() < live_day.len());
    reference
        .ingest(&one_shard)
        .unwrap_or_else(|e| panic!("[seed {seed}] reference ingest: {e}"));
    router
        .ingest(&one_shard)
        .unwrap_or_else(|e| panic!("[seed {seed}] routed ingest: {e}"));
    assert_eq!(
        views(&leaders[0]),
        before[0],
        "[seed {seed}] the batch folded into shard 0"
    );
    assert!(
        views(&leaders[1]) < before[1],
        "[seed {seed}] the batch dropped no view of shard 1"
    );
    let asks = assert_lockstep_walks(seed, "one-shard fold", &router, &reference, &s_queries);
    assert!(
        first_ask_read_segment_major(&asks),
        "[seed {seed}] the fold dropped no view a query walks"
    );
}

/// Compile-time pin: the router must stay shareable across threads — the
/// ship race and any serving tier depend on it.
#[test]
fn sharded_engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedEngine>();
    assert_send_sync::<ReplicaStatus>();
    assert_send_sync::<ReplicaSet>();
    assert_send_sync::<ReplicationController>();
}
