//! Serving front-end equivalence: cross-user coalescing and the
//! ingest-invalidated result cache must never change an answer.
//!
//! Three layers of pinning, all seeded (`STREACH_FAULT_SEED`, printed in
//! every assertion):
//!
//! * **Batches are bit-identical to single queries and to the oracle.** A
//!   batch mixing duplicates, shared (origin, slot window) groups with
//!   distinct probability thresholds, distinct windows, ES members, an
//!   invalid query and an off-network location is answered by
//!   `try_s_query_batch` — every outcome must equal the member's own
//!   `try_s_query` answer (a batch of one) and the naive reference of
//!   `query::reference`, which shares no code with the pipeline, bit for
//!   bit, and every failure must be the same typed error. Checked on the
//!   single engine and on a two-shard scatter-gather router.
//! * **The result cache races live ingest + compaction.** A [`QueryServer`]
//!   with cache and coalescing on serves a morning query pool while other
//!   threads ingest slot-disjoint afternoon batches through the WAL and a
//!   [`MaintenanceController`] runs checkpoints + compaction — every answer
//!   (cached or computed) must equal the quiesced reference. Between
//!   rounds an **answer-changing** morning batch lands: rounds alternate
//!   between existing dates (targeted slot/segment invalidation) and a new
//!   fleet day (the day count rises — every probability's denominator
//!   changes — so the whole cache must flush). A guard asserts at least
//!   one pool answer actually changed, so a stale cache entry cannot hide.
//! * **Counter sanity.** Quiesced double-sweeps pin deterministic cache
//!   hits; the invalidation counters prove the targeted and the flush path
//!   both fired; duplicate submissions prove cross-user sharing (a shared
//!   bounding pass or a cache hit).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use streach::prelude::*;
use streach_core::MaintenanceConfig;
use streach_testkit::{
    answer_of, checkpointing_config, decided, disjoint_batch, fault_seed, mix, oracle, scenario,
    split_start, sqmb_bounds, tmp_dir, Answer,
};

/// Base fleet-days built offline; later days arrive via live ingest.
const BASE_DAYS: u16 = 2;
/// Fleet-days arriving via live ingest.
const EXTRA_DAYS: u16 = 2;

/// The serving query pool: morning windows only, so the afternoon batches
/// of the race phase provably cannot change any answer. Mixes probability
/// thresholds sharing an (origin, window) group — the coalescable shape,
/// up to Prob 1.0, which only a start active on every day can leave
/// undecided — plus one ES query (the uncoalescable, empty-bounding cache
/// shape).
fn serving_pool(center: GeoPoint) -> Vec<(SQuery, Algorithm)> {
    let mut queries = Vec::new();
    for (location, start, duration) in [
        (center, 9 * 3600u32, 600u32),
        (center.offset_m(900.0, -600.0), 9 * 3600, 600),
        (center.offset_m(-700.0, 500.0), 10 * 3600, 300),
    ] {
        for prob in [0.25, 0.6, 1.0] {
            queries.push((
                SQuery {
                    location,
                    start_time_s: start,
                    duration_s: duration,
                    prob,
                },
                Algorithm::SqmbTbs,
            ));
        }
    }
    queries.push((
        SQuery {
            location: center,
            start_time_s: 10 * 3600,
            duration_s: 300,
            prob: 0.25,
        },
        Algorithm::ExhaustiveSearch,
    ));
    queries
}

/// An answer-changing morning batch for round `round`: fresh trajectory
/// IDs on the **same morning slots** the pool reads. Even rounds reuse
/// existing dates (the day count cannot move → the cache must invalidate
/// by touched slot/segment); odd rounds keep the new fleet day (the day
/// count rises → the cache must flush wholesale).
fn morning_batch(batch: &[TrajPoint], round: usize) -> Vec<TrajPoint> {
    batch
        .iter()
        .map(|p| TrajPoint {
            traj_id: p.traj_id + 2_000_000 + round as u32 * 10_000,
            date: if round.is_multiple_of(2) {
                p.date % BASE_DAYS
            } else {
                p.date
            },
            segment: p.segment,
            enter_time_s: p.enter_time_s,
        })
        .collect()
}

/// Batched answers must be bit-identical to each member alone and to the
/// oracle — including the typed errors — on a batch mixing every grouping
/// shape and both algorithms.
#[test]
fn coalesced_batch_is_bit_identical_to_serial() {
    let seed = fault_seed();
    let (network, base, _) = scenario(BASE_DAYS, EXTRA_DAYS);
    let engine = EngineBuilder::new(network.clone(), &base)
        .index_config(checkpointing_config())
        .build();
    let center = network.bounds().center();
    let sq = |location, start_time_s, duration_s, prob| SQuery {
        location,
        start_time_s,
        duration_s,
        prob,
    };

    let mut batch: Vec<(SQuery, Algorithm)> = vec![
        // #0-2: two exact duplicates + a third sharing the (origin, window)
        // group with a different threshold: one bounding pass, three
        // verifications.
        sq(center, 9 * 3600, 600, 0.25),
        sq(center, 9 * 3600, 600, 0.25),
        sq(center, 9 * 3600, 600, 0.6),
        // #3: same origin, different window → its own group.
        sq(center, 10 * 3600, 300, 0.25),
        // #4: different origin → its own group.
        sq(center.offset_m(900.0, -600.0), 9 * 3600, 600, 0.25),
        // #5: same slot window as the first group, but an unaligned start
        // second: must NOT collapse into the duplicates' verification.
        sq(center, 9 * 3600 + 7, 600, 0.25),
        // #6, #7: invalid (probability out of range) and off-network: the
        // failure stays the caller's, the rest of the batch is answered.
        sq(center, 9 * 3600, 600, 1.5),
        sq(center.offset_m(500_000.0, 500_000.0), 9 * 3600, 600, 0.25),
        // #8: Prob 1.0 in the first group: the start segment decides it
        // before verifying, so it rides the group's bounding pass but reads
        // nothing.
        sq(center, 9 * 3600, 600, 1.0),
    ]
    .into_iter()
    .map(|q| (q, Algorithm::SqmbTbs))
    .collect();
    // #9: ES from the first group's origin and window: it bounds nothing,
    // so it shares nothing. #10: ES elsewhere.
    batch.push((sq(center, 9 * 3600, 600, 0.25), Algorithm::ExhaustiveSearch));
    batch.push((
        sq(center.offset_m(-700.0, 500.0), 10 * 3600, 300, 0.25),
        Algorithm::ExhaustiveSearch,
    ));
    assert!(
        decided(&engine, &batch[8].0),
        "[seed {seed}] the Prob 1.0 member must be decided"
    );

    let answers = engine.try_s_query_batch(&batch);
    assert_eq!(answers.len(), batch.len(), "[seed {seed}] answer count");
    for (i, ((query, algorithm), answer)) in batch.iter().zip(&answers).enumerate() {
        let alone = engine.try_s_query(query, *algorithm);
        match (&answer.outcome, &alone) {
            (Ok(got), Ok(want)) => {
                assert_eq!(
                    answer_of(got),
                    answer_of(want),
                    "[seed {seed}] batch entry #{i} diverged from its batch of one"
                );
                assert_eq!(
                    answer_of(got),
                    oracle(&engine, query, *algorithm),
                    "[seed {seed}] batch entry #{i} diverged from the oracle"
                );
                assert_eq!(
                    (got.stats.max_bounding_size, got.stats.min_bounding_size),
                    (want.stats.max_bounding_size, want.stats.min_bounding_size),
                    "[seed {seed}] batch entry #{i}: bounding sizes diverged"
                );
                // An SQMB+TBS answer read inside its maximum bound; ES
                // reads wherever its expansion goes ("any segment").
                let region = answer.footprint.max_region().len();
                match algorithm {
                    Algorithm::SqmbTbs => assert_eq!(
                        region, got.stats.max_bounding_size,
                        "[seed {seed}] batch entry #{i}: footprint region"
                    ),
                    Algorithm::ExhaustiveSearch => assert_eq!(
                        region, 0,
                        "[seed {seed}] batch entry #{i}: an ES footprint is any segment"
                    ),
                }
            }
            (Err(got), Err(want)) => assert_eq!(
                got.to_string(),
                want.to_string(),
                "[seed {seed}] batch entry #{i}: error diverged"
            ),
            (got, want) => {
                panic!("[seed {seed}] batch entry #{i}: batched {got:?} vs alone {want:?}")
            }
        }
    }
    // The duplicates, the shared-threshold members and the unaligned-start
    // member (same hop-slot fingerprint → same bounds, own verifier) rode
    // one bounding pass; the other windows/origins, the failures and the
    // ES members did not.
    for (i, answer) in answers.iter().enumerate() {
        let want_shared = matches!(i, 0 | 1 | 2 | 5 | 8);
        assert_eq!(
            answer.shared_bounding, want_shared,
            "[seed {seed}] entry #{i}: shared_bounding should be {want_shared}"
        );
    }
}

/// Same bit-identity through the sharded scatter-gather router, plus the
/// router-backed server invalidating on `ShardedEngine::ingest`.
#[test]
fn sharded_coalescing_and_server_cache_stay_bit_identical() {
    let seed = fault_seed();
    let (network, base, batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    let map = Arc::new(ShardMap::partition(&network, 2));
    let single = EngineBuilder::new(network.clone(), &base)
        .index_config(checkpointing_config())
        .build();
    let leaders: Vec<Arc<ReachabilityEngine>> = (0..2)
        .map(|shard_id| {
            Arc::new(
                EngineBuilder::new(network.clone(), &base)
                    .index_config(checkpointing_config())
                    .shard(map.clone(), shard_id)
                    .build(),
            )
        })
        .collect();
    let router = Arc::new(ShardedEngine::new(map, leaders));
    let center = network.bounds().center();
    let pool = serving_pool(center);

    for (i, ((query, algorithm), answer)) in
        pool.iter().zip(router.try_s_query_batch(&pool)).enumerate()
    {
        let got = answer
            .outcome
            .unwrap_or_else(|e| panic!("[seed {seed}] sharded batch entry #{i} failed: {e}"));
        let want = single
            .try_s_query(query, *algorithm)
            .expect("single-engine reference");
        assert_eq!(
            answer_of(&got),
            answer_of(&want),
            "[seed {seed}] sharded batch entry #{i} diverged from the single engine"
        );
        assert_eq!(
            answer_of(&got),
            oracle(&single, query, *algorithm),
            "[seed {seed}] sharded batch entry #{i} diverged from the oracle"
        );
    }

    // A server over the router: populate the cache, ingest a new fleet day
    // through the router (every leader notifies; the day count rises), and
    // require post-ingest answers to match the updated single engine — a
    // stale cache entry would be caught here.
    let server = QueryServer::start(
        router.clone(),
        ServeConfig {
            workers: 2,
            cache_capacity: 64,
            ..Default::default()
        },
    );
    for (i, (query, algorithm)) in pool.iter().enumerate() {
        let got = server
            .query(*query, *algorithm)
            .unwrap_or_else(|e| panic!("[seed {seed}] warmup pool entry #{i} failed: {e}"));
        let want = single.try_s_query(query, *algorithm).expect("reference");
        assert_eq!(
            answer_of(&got),
            answer_of(&want),
            "[seed {seed}] sharded server entry #{i} diverged pre-ingest"
        );
    }
    router.ingest(&batches[0]).expect("router ingest");
    single.ingest(&batches[0]).expect("single ingest");
    for (i, (query, algorithm)) in pool.iter().enumerate() {
        let want = single.try_s_query(query, *algorithm).expect("reference");
        // First read recomputes (the ingest flushed the cache), second read
        // serves the fresh entry — both must match the updated reference.
        let got = server
            .query(*query, *algorithm)
            .unwrap_or_else(|e| panic!("[seed {seed}] post-ingest pool entry #{i} failed: {e}"));
        let served = server
            .query(*query, *algorithm)
            .unwrap_or_else(|e| panic!("[seed {seed}] re-served pool entry #{i} failed: {e}"));
        assert_eq!(
            answer_of(&got),
            answer_of(&want),
            "[seed {seed}] sharded server entry #{i} stale after router ingest"
        );
        assert_eq!(
            answer_of(&served),
            answer_of(&want),
            "[seed {seed}] sharded server entry #{i} cached answer diverged"
        );
    }
    let stats = server.stats();
    assert!(
        stats.cache_flushes >= 1,
        "[seed {seed}] a new fleet day must flush the cache ({stats:?})"
    );
    server.shutdown();
}

/// The tentpole harness: the cached server races live WAL ingest,
/// auto-checkpoints and background compaction (see the module docs).
#[test]
fn cached_server_racing_ingest_and_compaction_stays_bit_identical() {
    let seed = fault_seed();
    let dir = tmp_dir("harness");
    let (network, base, batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    EngineBuilder::new(network.clone(), &base)
        .index_config(checkpointing_config())
        .save_snapshot(&dir)
        .expect("save base snapshot");

    let live = Arc::new(
        ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open live engine"),
    );
    live.attach_wal(dir.join("ingest.wal")).expect("attach WAL");
    let controller = streach_core::MaintenanceController::spawn(
        Arc::clone(&live),
        &dir,
        MaintenanceConfig {
            poll_interval: std::time::Duration::from_millis(20),
            compact_delta_ratio: Some(0.05),
        },
    );
    let reference =
        ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open reference");

    let server = QueryServer::start(
        Arc::clone(&live),
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            cache_capacity: 256,
        },
    );
    let center = network.bounds().center();
    let pool = serving_pool(center);
    let rounds = if cfg!(debug_assertions) { 2 } else { 4 };
    let queries_per_thread = if cfg!(debug_assertions) { 4 } else { 8 };
    const QUERY_THREADS: usize = 3;

    // Several taxi-days per round: one lone taxi-day may miss every pool
    // origin, and the answer-change guard below needs each round to bite.
    let round_groups: Vec<Vec<TrajPoint>> = batches
        .chunks(batches.len().div_ceil(rounds))
        .map(|chunk| chunk.iter().flatten().copied().collect())
        .collect();

    let mut previous: Option<Vec<Answer>> = None;
    for round in 0..rounds {
        // Answer-changing morning ingest (quiesced): even rounds keep the
        // day count (targeted invalidation must fire), odd rounds raise it
        // (the whole cache must flush).
        let batch = morning_batch(&round_groups[round % round_groups.len()], round);
        live.ingest(&batch)
            .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: live ingest: {e}"));
        reference
            .ingest(&batch)
            .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: reference ingest: {e}"));
        let expected: Vec<Answer> = pool
            .iter()
            .map(|(q, a)| answer_of(&reference.try_s_query(q, *a).expect("reference query")))
            .collect();
        if let Some(prev) = &previous {
            assert_ne!(
                prev, &expected,
                "[seed {seed}] round {round}: the morning batch must change at least \
                 one pool answer, or the staleness check is vacuous"
            );
        }

        // Quiesced sweep 1: stale entries from the previous round must have
        // been invalidated — a stale hit would diverge right here.
        let stats_before = server.stats();
        for (i, (query, algorithm)) in pool.iter().enumerate() {
            let got = server
                .query(*query, *algorithm)
                .unwrap_or_else(|e| panic!("[seed {seed}] round {round} sweep1 #{i}: {e}"));
            assert_eq!(
                answer_of(&got),
                expected[i],
                "[seed {seed}] round {round} sweep1 #{i}: stale or wrong answer"
            );
        }
        // Quiesced sweep 2: nothing changed in between, so every answer is
        // served from the cache — and still bit-identical.
        let stats_mid = server.stats();
        for (i, (query, algorithm)) in pool.iter().enumerate() {
            let got = server
                .query(*query, *algorithm)
                .unwrap_or_else(|e| panic!("[seed {seed}] round {round} sweep2 #{i}: {e}"));
            assert_eq!(
                answer_of(&got),
                expected[i],
                "[seed {seed}] round {round} sweep2 #{i}: cached answer diverged"
            );
        }
        let stats_after = server.stats();
        // Every query is one lookup verdict: the submit-side probe and the
        // worker's lookup never both count.
        assert_eq!(
            (stats_mid.cache_hits + stats_mid.cache_misses)
                - (stats_before.cache_hits + stats_before.cache_misses),
            pool.len() as u64,
            "[seed {seed}] round {round}: sweep 1 lookups ({stats_before:?} -> {stats_mid:?})"
        );
        assert!(
            stats_after.cache_hits >= stats_mid.cache_hits + pool.len() as u64,
            "[seed {seed}] round {round}: quiesced sweep 2 must be all cache hits \
             ({stats_before:?} -> {stats_mid:?} -> {stats_after:?})"
        );
        if round > 0 {
            assert!(
                stats_mid.cache_misses > stats_before.cache_misses,
                "[seed {seed}] round {round}: the answer-changing ingest must have \
                 evicted at least one entry ({stats_before:?} -> {stats_mid:?})"
            );
        }

        // Race phase: threads hammer the server (hits, shared bounding
        // passes and fresh computes all mixed) while the main thread feeds
        // slot-disjoint afternoon pieces through the WAL and triggers
        // maintenance passes — afternoon data cannot change these answers,
        // so even mid-invalidation reads must stay bit-identical.
        let afternoon = disjoint_batch(&round_groups[round % round_groups.len()], round, BASE_DAYS);
        reference
            .ingest(&afternoon)
            .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: reference afternoon: {e}"));
        let pieces: Vec<&[TrajPoint]> = afternoon
            .chunks(afternoon.len().div_ceil(16).max(1))
            .collect();
        let mut next_piece = 0usize;
        let running = AtomicUsize::new(QUERY_THREADS);
        std::thread::scope(|scope| {
            for thread in 0..QUERY_THREADS {
                let server = &server;
                let pool = &pool;
                let expected = &expected;
                let running = &running;
                scope.spawn(move || {
                    for i in 0..queries_per_thread {
                        let index =
                            (mix(seed, round as u64 * 1009 + thread as u64 * 101 + i as u64)
                                % pool.len() as u64) as usize;
                        let (query, algorithm) = &pool[index];
                        let got = server.query(*query, *algorithm).unwrap_or_else(|e| {
                            panic!(
                                "[seed {seed}] round {round} race: thread {thread} \
                                 query #{i} (pool entry {index}) failed: {e}"
                            )
                        });
                        assert_eq!(
                            answer_of(&got),
                            expected[index],
                            "[seed {seed}] round {round} race: thread {thread} query #{i} \
                             (pool entry {index}) diverged from the quiesced reference"
                        );
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
            while running.load(Ordering::SeqCst) > 0 {
                if next_piece < pieces.len() {
                    live.ingest(pieces[next_piece]).unwrap_or_else(|e| {
                        panic!("[seed {seed}] round {round}: racing ingest: {e}")
                    });
                    next_piece += 1;
                } else {
                    controller.run_now();
                }
            }
        });
        for piece in &pieces[next_piece..] {
            live.ingest(piece)
                .unwrap_or_else(|e| panic!("[seed {seed}] round {round}: drain ingest: {e}"));
        }
        // Disjointness guard: the racing afternoon data must not have
        // changed a single morning answer (on either engine).
        for (i, (query, algorithm)) in pool.iter().enumerate() {
            let got = server
                .query(*query, *algorithm)
                .unwrap_or_else(|e| panic!("[seed {seed}] round {round} guard #{i}: {e}"));
            assert_eq!(
                answer_of(&got),
                expected[i],
                "[seed {seed}] round {round} guard #{i}: afternoon ingest changed a \
                 morning answer (disjointness premise broken)"
            );
        }
        let errors = controller.take_errors();
        assert!(
            errors.is_empty(),
            "[seed {seed}] round {round}: background maintenance failed: {errors:?}"
        );
        previous = Some(expected);
    }

    // Duplicate burst: cross-user sharing must show up as shared bounding
    // passes, cache hits, or both — never as N independent cold computes
    // with an idle cache.
    let burst_query = pool[0].0;
    let before = server.stats();
    let tickets: Vec<_> = (0..8)
        .map(|_| server.submit(burst_query, Algorithm::SqmbTbs))
        .collect();
    let burst_expected = answer_of(
        &reference
            .try_s_query(&burst_query, Algorithm::SqmbTbs)
            .unwrap(),
    );
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket
            .wait()
            .unwrap_or_else(|e| panic!("[seed {seed}] burst ticket #{i}: {e}"));
        assert_eq!(
            answer_of(&got),
            burst_expected,
            "[seed {seed}] burst ticket #{i} diverged"
        );
    }
    let after = server.stats();
    assert!(
        after.coalesced > before.coalesced || after.cache_hits > before.cache_hits,
        "[seed {seed}] 8 duplicate submissions shared no work ({before:?} -> {after:?})"
    );

    let stats = server.stats();
    assert_eq!(
        stats.submitted, stats.completed,
        "[seed {seed}] every submitted query must complete ({stats:?})"
    );
    assert!(
        stats.cache_hits > 0 && stats.cache_invalidated > 0,
        "[seed {seed}] the harness must exercise hits and targeted invalidation ({stats:?})"
    );
    assert!(
        stats.cache_flushes >= 1,
        "[seed {seed}] a new-fleet-day round must flush the cache ({stats:?})"
    );
    let maintenance = controller.stats();
    assert!(
        maintenance.checkpoints > 0,
        "[seed {seed}] the race must exercise auto-checkpoints ({maintenance:?})"
    );
    let errors = controller.shutdown();
    assert!(
        errors.is_empty(),
        "[seed {seed}] shutdown errors: {errors:?}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A decided answer (its start segment's active days cannot reach Prob)
/// reads only the start segment's postings, so its cache entry records the
/// minimum region as its footprint. An ingest touching only an annulus
/// posting drops the undecided answer over the same bounds and keeps the
/// decided one; a touch on the start segment's T0 slot drops both. Every
/// answer, cached or not, equals the quiesced reference.
#[test]
fn decided_answer_keeps_its_entry_until_its_start_slot_is_touched() {
    let seed = fault_seed();
    let (network, base, _) = scenario(BASE_DAYS, EXTRA_DAYS);
    let build = || {
        EngineBuilder::new(network.clone(), &base)
            .index_config(checkpointing_config())
            .build()
    };
    let live = Arc::new(build());
    let reference = build();
    let (undecided, decided_query, start) = split_start(&reference, &base, 600);
    assert!(!decided(&reference, &undecided) && decided(&reference, &decided_query));
    let annulus = sqmb_bounds(&reference, &undecided).annulus();
    let server = QueryServer::start(
        Arc::clone(&live),
        ServeConfig {
            workers: 1,
            cache_capacity: 16,
            ..Default::default()
        },
    );
    let check = |label: &str| {
        for query in [undecided, decided_query] {
            let got = server
                .query(query, Algorithm::SqmbTbs)
                .unwrap_or_else(|e| panic!("[seed {seed}] {label}: {e}"));
            let want = reference.try_s_query(&query, Algorithm::SqmbTbs).unwrap();
            assert_eq!(
                answer_of(&got),
                answer_of(&want),
                "[seed {seed}] {label}: {query:?} diverged from the reference"
            );
        }
    };
    // One fresh trajectory on an existing date, at the start time: no speed
    // pair and no day raise, so the posting pair is the whole touch.
    let touch = |segment: SegmentId, traj_id: u32| {
        let point = [TrajPoint {
            traj_id,
            date: 0,
            segment,
            enter_time_s: undecided.start_time_s,
        }];
        live.ingest(&point).expect("live ingest");
        reference.ingest(&point).expect("reference ingest");
    };
    check("cold");

    let before = server.stats();
    touch(annulus[0], 7_000_000);
    let after = server.stats();
    assert_eq!(
        after.cache_invalidated - before.cache_invalidated,
        1,
        "[seed {seed}] an annulus touch drops the undecided entry only ({before:?} -> {after:?})"
    );
    let got = server.query(decided_query, Algorithm::SqmbTbs).unwrap();
    assert_eq!(
        server.stats().cache_hits,
        after.cache_hits + 1,
        "[seed {seed}] the decided entry must survive an annulus touch"
    );
    assert_eq!(
        answer_of(&got),
        answer_of(
            &reference
                .try_s_query(&decided_query, Algorithm::SqmbTbs)
                .unwrap()
        ),
        "[seed {seed}] the kept decided entry is stale"
    );
    check("after the annulus touch");

    let before = server.stats();
    touch(start, 7_000_001);
    let after = server.stats();
    assert_eq!(
        after.cache_invalidated - before.cache_invalidated,
        2,
        "[seed {seed}] a touch on the start's T0 slot drops both entries ({before:?} -> {after:?})"
    );
    check("after the start touch");
    server.shutdown();
}

/// Compile-time pin: the server must stay shareable across client threads.
#[test]
fn server_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryServer<ReachabilityEngine>>();
    assert_send_sync::<QueryServer<ShardedEngine>>();
    assert_send_sync::<ServerStats>();
}
