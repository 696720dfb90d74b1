//! Continuous-subscription equivalence harness: standing queries kept
//! current **incrementally** (footprint-filtered re-evaluation per ingest
//! batch, `streach_core::subscribe`) must stay **bit-identical** to
//! re-running every subscription from scratch after every batch — across
//! live ingest, background compaction, and the sharded router.
//!
//! The harness is seeded (`STREACH_FAULT_SEED`, printed in every
//! assertion) and pins five properties:
//!
//! * **Bit-identity, single engine** — after every live batch (and a
//!   mid-campaign compaction) each subscription's incrementally maintained
//!   region equals a fresh full evaluation, segment-for-segment and to the
//!   last float bit, on both SQMB+TBS and ES subscriptions.
//! * **Bit-identity, sharded** — the same campaign against a 3-shard
//!   scatter-gather router: per-shard ingest touches merge into one
//!   re-evaluation stream and the maintained regions match an unsharded
//!   reference engine.
//! * **Zero work on untouched batches** — a slot-disjoint afternoon batch
//!   (`streach_testkit::disjoint_batch`) intersects no
//!   morning subscription's footprint: the manager issues **zero** engine
//!   queries and emits **zero** events, while a real morning batch does
//!   re-evaluate. This is the observable cost model of incremental
//!   evaluation.
//! * **Threshold triggers fire exactly at the crossing batch** — a dry run
//!   records the region-length trajectory of a standing query, a threshold
//!   is planted between two consecutive lengths, and the live campaign
//!   must raise `trigger_fired` exactly on the batches where the length
//!   crosses below the threshold — not before, not after, not while
//!   already below.
//! * **Typed faults, registration survives** — a scripted dead disk
//!   (`FaultInjectingPageStore`, every read EIO) during re-evaluation
//!   surfaces as a typed `SubscriptionEvent::EvaluationFailed` carrying
//!   `QueryError::Storage`; the subscription stays registered and dirty,
//!   and once the disk heals the next pass converges it back to the full
//!   answer. The bounded event queue reports overflow as a typed
//!   `Lagged` count instead of blocking or silently growing.

use std::sync::Arc;

use streach::prelude::*;
use streach::storage::{FaultController, FaultInjectingPageStore};
use streach_testkit::{
    decided, disjoint_batch, fault_scenario, fault_seed, region_bits, scenario, split_start,
    sqmb_bounds, tmp_dir,
};

/// Base fleet-days built offline; the remaining days arrive via ingest.
const BASE_DAYS: u16 = 2;
/// Fleet-days ingested batch by batch.
const EXTRA_DAYS: u16 = 2;
/// Spatial shards of the sharded campaign.
const NUM_SHARDS: u16 = 3;

/// The standing-query pool: morning windows over several locations, both
/// algorithms (ES only on the short windows it can afford), and Prob 1.0,
/// which a start decides before verifying unless it was active every day.
fn standing_pool(network: &RoadNetwork) -> Vec<(SQuery, Algorithm)> {
    let center = network.bounds().center();
    let locations = [
        center,
        center.offset_m(900.0, -600.0),
        center.offset_m(-1200.0, 800.0),
    ];
    let mut pool = Vec::new();
    for (start, duration, prob) in [
        (8 * 3600 + 1800, 300u32, 0.25),
        (9 * 3600, 600, 0.25),
        (9 * 3600 + 900, 900, 0.6),
        (9 * 3600, 600, 1.0),
    ] {
        for &location in &locations {
            let q = SQuery {
                location,
                start_time_s: start,
                duration_s: duration,
                prob,
            };
            pool.push((q, Algorithm::SqmbTbs));
            if duration <= 300 {
                pool.push((q, Algorithm::ExhaustiveSearch));
            }
        }
    }
    pool
}

/// Asserts every subscription's incrementally maintained region equals a
/// fresh full evaluation of the same query, bit for bit.
fn assert_subscriptions_match_full<F>(
    manager: &SubscriptionManager<ReachabilityEngine>,
    subs: &[(SubscriptionId, SQuery, Algorithm)],
    full: F,
    seed: u64,
    label: &str,
) where
    F: Fn(&SQuery, Algorithm) -> Result<QueryOutcome, QueryError>,
{
    for (id, query, algorithm) in subs {
        let maintained = manager
            .last_region(*id)
            .unwrap_or_else(|e| panic!("[seed {seed}] {label}: {id} vanished: {e}"))
            .unwrap_or_else(|| panic!("[seed {seed}] {label}: {id} has no answer"));
        let fresh = full(query, *algorithm)
            .unwrap_or_else(|e| panic!("[seed {seed}] {label}: full re-eval of {id} failed: {e}"))
            .region;
        assert_eq!(
            region_bits(&maintained),
            region_bits(&fresh),
            "[seed {seed}] {label}: {id} ({algorithm:?}) diverged from full re-evaluation"
        );
    }
}

/// Tentpole, single engine: incremental == full after every batch, across
/// live ingest and a mid-campaign compaction, with zero engine queries on
/// a pass that saw no touches.
#[test]
fn incremental_matches_full_reevaluation() {
    let seed = fault_seed();
    let (network, base, round_batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    let engine = Arc::new(
        EngineBuilder::new(network.clone(), &base)
            .index_config(IndexConfig::default())
            .build(),
    );
    let manager = SubscriptionManager::spawn(engine.clone(), SubscribeConfig::default());

    let mut subs = Vec::new();
    for (query, algorithm) in standing_pool(&network) {
        let id = manager
            .subscribe(query, algorithm, Trigger::AnyRegionChange)
            .unwrap_or_else(|e| panic!("[seed {seed}] subscribe: {e}"));
        subs.push((id, query, algorithm));
    }
    // Every registration computed its baseline synchronously.
    assert_subscriptions_match_full(
        &manager,
        &subs,
        |q, a| engine.try_s_query(q, a),
        seed,
        "registration baseline",
    );
    let registration_events = manager.poll_events().len();
    assert_eq!(
        registration_events,
        subs.len(),
        "[seed {seed}] one initial event per subscription"
    );

    let compact_at = round_batches.len() / 2;
    for (round, batch) in round_batches.iter().enumerate() {
        engine.ingest(batch).expect("live ingest");
        if round == compact_at {
            // Background maintenance folds the delta mid-campaign; the
            // maintained answers must not move.
            engine.compact().expect("mid-campaign compaction");
        }
        manager.run_now();
        assert_subscriptions_match_full(
            &manager,
            &subs,
            |q, a| engine.try_s_query(q, a),
            seed,
            &format!("after batch {round}"),
        );
    }

    // A quiesced pass with no pending touches re-evaluates nothing.
    let queries_before = manager.stats().engine_queries;
    manager.run_now();
    assert_eq!(
        manager.stats().engine_queries,
        queries_before,
        "[seed {seed}] an untouched pass must issue zero engine queries"
    );

    // Unsubscribe actually unregisters.
    let (gone, ..) = subs[0];
    manager.unsubscribe(gone).expect("unsubscribe");
    assert_eq!(manager.subscriptions(), subs.len() - 1);
    assert_eq!(
        manager.unsubscribe(gone),
        Err(SubscribeError::UnknownSubscription(gone)),
        "[seed {seed}] double unsubscribe must be a typed error"
    );
}

/// Tentpole, sharded: the same campaign against a 3-shard router, with the
/// per-shard touches merged into one re-evaluation stream, compared
/// against an unsharded reference engine.
#[test]
fn sharded_subscriptions_stay_bit_identical() {
    let seed = fault_seed();
    let (network, base, round_batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    let map = Arc::new(ShardMap::partition(&network, NUM_SHARDS));

    let reference = EngineBuilder::new(network.clone(), &base)
        .index_config(IndexConfig::default())
        .build();
    let leaders = (0..NUM_SHARDS)
        .map(|shard_id| {
            Arc::new(
                EngineBuilder::new(network.clone(), &base)
                    .index_config(IndexConfig::default())
                    .shard(map.clone(), shard_id)
                    .build(),
            )
        })
        .collect();
    let router = Arc::new(ShardedEngine::new(map, leaders));
    let manager = SubscriptionManager::spawn(router.clone(), SubscribeConfig::default());

    let mut subs = Vec::new();
    for (query, algorithm) in standing_pool(&network) {
        let id = manager
            .subscribe(query, algorithm, Trigger::AnyRegionChange)
            .unwrap_or_else(|e| panic!("[seed {seed}] sharded subscribe: {e}"));
        subs.push((id, query, algorithm));
    }

    for (round, batch) in round_batches.iter().enumerate() {
        reference.ingest(batch).expect("reference ingest");
        router.ingest(batch).expect("routed ingest");
        manager.run_now();
        let label = format!("sharded, after batch {round}");
        for (id, query, algorithm) in &subs {
            let maintained = manager
                .last_region(*id)
                .unwrap_or_else(|e| panic!("[seed {seed}] {label}: {id} vanished: {e}"))
                .unwrap_or_else(|| panic!("[seed {seed}] {label}: {id} has no answer"));
            let fresh = reference
                .try_s_query(query, *algorithm)
                .unwrap_or_else(|e| {
                    panic!("[seed {seed}] {label}: reference re-eval of {id} failed: {e}")
                })
                .region;
            assert_eq!(
                region_bits(&maintained),
                region_bits(&fresh),
                "[seed {seed}] {label}: {id} ({algorithm:?}) diverged from the \
                 unsharded reference"
            );
        }
    }
}

/// Cost model: a slot-disjoint batch intersects no footprint and issues
/// zero engine queries; a real morning batch re-evaluates.
#[test]
fn untouched_batches_issue_zero_engine_queries() {
    let seed = fault_seed();
    let (network, base, round_batches) = scenario(BASE_DAYS, EXTRA_DAYS);
    let engine = Arc::new(
        EngineBuilder::new(network.clone(), &base)
            .index_config(IndexConfig::default())
            .build(),
    );
    let manager = SubscriptionManager::spawn(engine.clone(), SubscribeConfig::default());
    let subs: Vec<_> = standing_pool(&network)
        .into_iter()
        .map(|(query, algorithm)| {
            manager
                .subscribe(query, algorithm, Trigger::AnyRegionChange)
                .unwrap_or_else(|e| panic!("[seed {seed}] subscribe: {e}"))
        })
        .collect();
    let _ = manager.poll_events(); // drain the registration baselines

    // Afternoon batches on existing dates: no day raise, no slot overlap.
    let baseline = manager.stats().engine_queries;
    for (round, batch) in round_batches.iter().enumerate().take(3) {
        engine
            .ingest(&disjoint_batch(batch, round, BASE_DAYS))
            .expect("disjoint ingest");
        manager.run_now();
    }
    let stats = manager.stats();
    assert_eq!(
        stats.engine_queries,
        baseline,
        "[seed {seed}] slot-disjoint batches must issue zero engine queries \
         for {} standing subscriptions",
        subs.len()
    );
    assert!(
        manager.poll_events().is_empty(),
        "[seed {seed}] slot-disjoint batches must emit no events"
    );

    // A real morning batch intersects footprints and re-evaluates; the
    // incremental path still does no more work than one evaluation per
    // registered subscription (what a full re-run would cost).
    engine.ingest(&round_batches[0]).expect("morning ingest");
    manager.run_now();
    let after = manager.stats().engine_queries;
    assert!(
        after > baseline,
        "[seed {seed}] a touching batch must re-evaluate something"
    );
    assert!(
        after - baseline <= subs.len() as u64,
        "[seed {seed}] one batch must cost at most one evaluation per subscription"
    );
}

/// A decided standing query (its start segment's active days cannot reach
/// Prob) records the minimum region as its footprint. An ingest touching
/// only an annulus posting re-evaluates the undecided subscription over the
/// same bounds and wakes no decided one; a touch on the start segment's T0
/// slot wakes both. Every maintained answer equals a fresh evaluation.
#[test]
fn decided_subscription_sleeps_until_its_start_slot_is_touched() {
    let seed = fault_seed();
    let (network, base, _) = scenario(BASE_DAYS, EXTRA_DAYS);
    let engine = Arc::new(
        EngineBuilder::new(network.clone(), &base)
            .index_config(IndexConfig::default())
            .build(),
    );
    let (undecided, decided_query, start) = split_start(&engine, &base, 600);
    assert!(!decided(&engine, &undecided) && decided(&engine, &decided_query));
    let annulus = sqmb_bounds(&engine, &undecided).annulus();
    let manager = SubscriptionManager::spawn(engine.clone(), SubscribeConfig::default());
    let subs: Vec<_> = [undecided, decided_query]
        .into_iter()
        .map(|query| {
            let id = manager
                .subscribe(query, Algorithm::SqmbTbs, Trigger::AnyRegionChange)
                .unwrap_or_else(|e| panic!("[seed {seed}] subscribe: {e}"));
            (id, query, Algorithm::SqmbTbs)
        })
        .collect();
    // One fresh trajectory on an existing date, at the start time: no speed
    // pair and no day raise, so the posting pair is the whole touch.
    let touch = |segment: SegmentId, traj_id: u32| {
        let before = manager.stats().engine_queries;
        engine
            .ingest(&[TrajPoint {
                traj_id,
                date: 0,
                segment,
                enter_time_s: undecided.start_time_s,
            }])
            .expect("ingest");
        manager.run_now();
        manager.stats().engine_queries - before
    };

    assert_eq!(
        touch(annulus[0], 7_000_000),
        1,
        "[seed {seed}] an annulus touch wakes the undecided subscription only"
    );
    assert_subscriptions_match_full(
        &manager,
        &subs,
        |q, a| engine.try_s_query(q, a),
        seed,
        "after the annulus touch",
    );
    assert_eq!(
        touch(start, 7_000_001),
        2,
        "[seed {seed}] a touch on the start's T0 slot wakes both subscriptions"
    );
    assert_subscriptions_match_full(
        &manager,
        &subs,
        |q, a| engine.try_s_query(q, a),
        seed,
        "after the start touch",
    );
}

/// Threshold triggers fire exactly on the batches where the maintained
/// region's length crosses below the planted threshold.
#[test]
fn threshold_trigger_fires_exactly_at_the_crossing_batch() {
    let seed = fault_seed();
    let (network, base, round_batches) = scenario(BASE_DAYS, EXTRA_DAYS);

    // Dry run: record each candidate's length trajectory on a shadow
    // engine and plant a threshold between two consecutive lengths of the
    // first query that ever shrinks (new ingest days raise the probability
    // denominator, so shrinks exist; guard-checked below).
    let shadow = EngineBuilder::new(network.clone(), &base)
        .index_config(IndexConfig::default())
        .build();
    let candidates: Vec<SQuery> = standing_pool(&network)
        .into_iter()
        .filter(|(_, a)| *a == Algorithm::SqmbTbs)
        .map(|(q, _)| q)
        .collect();
    let length_of = |query: &SQuery| {
        shadow
            .try_s_query(query, Algorithm::SqmbTbs)
            .expect("dry evaluation")
            .region
            .total_length_km
    };
    let mut trajectories: Vec<Vec<f64>> = candidates.iter().map(|q| vec![length_of(q)]).collect();
    for batch in &round_batches {
        shadow.ingest(batch).expect("dry ingest");
        for (lengths, query) in trajectories.iter_mut().zip(&candidates) {
            lengths.push(length_of(query));
        }
    }
    let (query, threshold, lengths) = candidates
        .iter()
        .zip(&trajectories)
        .find_map(|(query, lengths)| {
            (1..lengths.len())
                .find(|&k| lengths[k] < lengths[k - 1])
                .map(|k| (*query, (lengths[k - 1] + lengths[k]) / 2.0, lengths.clone()))
        })
        .unwrap_or_else(|| {
            panic!("[seed {seed}] guard: no standing query ever shrank — scenario too static")
        });
    let expected_fired: Vec<bool> = (1..lengths.len())
        .map(|k| lengths[k - 1] >= threshold && lengths[k] < threshold)
        .collect();
    assert!(
        expected_fired.iter().any(|&f| f),
        "[seed {seed}] guard: the planted threshold must cross at least once"
    );

    // Live campaign: the manager must fire on exactly the expected batches.
    let engine = Arc::new(
        EngineBuilder::new(network.clone(), &base)
            .index_config(IndexConfig::default())
            .build(),
    );
    let manager = SubscriptionManager::spawn(engine.clone(), SubscribeConfig::default());
    let id = manager
        .subscribe(query, Algorithm::SqmbTbs, Trigger::LengthBelowKm(threshold))
        .unwrap_or_else(|e| panic!("[seed {seed}] subscribe: {e}"));
    let initial = manager.poll_events();
    assert!(
        matches!(
            initial.as_slice(),
            [SubscriptionEvent::Update(ReachabilityEvent {
                old_region: None,
                trigger_fired: false,
                ..
            })]
        ),
        "[seed {seed}] the registration baseline must not fire the trigger: {initial:?}"
    );

    for (round, batch) in round_batches.iter().enumerate() {
        engine.ingest(batch).expect("live ingest");
        manager.run_now();
        let fired = manager.poll_events().iter().any(|event| {
            matches!(
                event,
                SubscriptionEvent::Update(ReachabilityEvent {
                    id: event_id,
                    trigger_fired: true,
                    ..
                }) if *event_id == id
            )
        });
        assert_eq!(
            fired,
            expected_fired[round],
            "[seed {seed}] batch {round}: trigger fired={fired}, expected \
             {} (lengths {} -> {}, threshold {threshold})",
            expected_fired[round],
            lengths[round],
            lengths[round + 1],
        );
    }
}

/// A dead disk during re-evaluation surfaces as a typed event; the
/// subscription stays registered and converges once the disk heals. The
/// bounded queue reports overflow as a typed `Lagged` count.
#[test]
fn evaluation_fault_emits_typed_event_and_converges() {
    let seed = fault_seed();
    let dir = tmp_dir("fault");
    // A denser fleet than `scenario()`: the standing queries below must
    // actually read postings cold (guard-checked), so the scripted EIO has
    // something to hit.
    let (network, dataset) = fault_scenario();
    EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .save_snapshot(&dir)
        .expect("save snapshot");
    let live_batch: Vec<TrajPoint> = {
        let extra = TrajectoryDataset::simulate(
            &network,
            FleetConfig {
                num_taxis: 6,
                num_days: 1,
                day_start_s: 8 * 3600,
                day_end_s: 12 * 3600,
                seed: 99,
                ..FleetConfig::default()
            },
        );
        extra
            .trajectories()
            .iter()
            .flat_map(|t| {
                points_of(t).map(|mut p| {
                    p.date += 3;
                    p
                })
            })
            .collect()
    };
    let ctl = FaultController::detached(seed);
    let engine = Arc::new(
        ReachabilityEngine::open_snapshot_with_store(&dir, network.clone(), {
            let ctl = ctl.clone();
            move |store| Box::new(FaultInjectingPageStore::with_controller(store, &ctl))
        })
        .expect("open snapshot with fault wrapper"),
    );

    // Overflow handling rides along: a 2-slot queue receiving more initial
    // events than it holds must report the loss, typed.
    let manager = SubscriptionManager::spawn(
        engine.clone(),
        SubscribeConfig {
            event_capacity: 2,
            ..SubscribeConfig::default()
        },
    );
    let mut subs = Vec::new();
    for (query, algorithm) in standing_pool(&network) {
        subs.push((
            manager
                .subscribe(query, algorithm, Trigger::AnyRegionChange)
                .unwrap_or_else(|e| panic!("[seed {seed}] subscribe: {e}")),
            query,
            algorithm,
        ));
    }
    let overflowed = subs.len() as u64 - 2;
    let drained = manager.poll_events();
    assert!(
        matches!(drained.first(), Some(SubscriptionEvent::Lagged { missed }) if *missed == overflowed),
        "[seed {seed}] a 2-slot queue after {} events must lead with \
         Lagged{{{overflowed}}}: {drained:?}",
        subs.len()
    );
    assert_eq!(drained.len(), 3, "[seed {seed}] Lagged + the 2 kept events");

    // Land a touching batch (a fresh day: raises the day count, so every
    // subscription is affected) and let the manager settle.
    engine.ingest(&live_batch).expect("live ingest");
    manager.run_now();
    let _ = manager.poll_events();

    // Guard: a cold full re-evaluation must physically read postings —
    // otherwise the dead-disk phase below would prove nothing.
    engine.st_index().clear_cache();
    let reads_before = ctl.reads_observed();
    manager.invalidate_all();
    manager.run_now();
    assert!(
        ctl.reads_observed() > reads_before,
        "[seed {seed}] guard: cold re-evaluation must hit the page store"
    );
    let _ = manager.poll_events();

    // Kill the disk and force a full re-evaluation: the pass must fail
    // typed, and every subscription must stay registered and dirty.
    engine.st_index().clear_cache();
    ctl.fail_reads_from(ctl.reads_observed());
    manager.invalidate_all();
    manager.run_now();
    let events = manager.poll_events();
    let failures = events
        .iter()
        .filter(|event| {
            matches!(
                event,
                SubscriptionEvent::EvaluationFailed {
                    error: QueryError::Storage { .. },
                    ..
                }
            )
        })
        .count();
    assert!(
        failures > 0,
        "[seed {seed}] a dead disk mid-pass must surface typed Storage failures: {events:?}"
    );
    assert_eq!(
        manager.subscriptions(),
        subs.len(),
        "[seed {seed}] failed evaluations must not unregister anything"
    );
    assert!(
        manager.stats().errors >= failures as u64,
        "[seed {seed}] failures must be counted"
    );

    // Heal the disk: the dirty subscriptions converge on the next pass,
    // bit-identically to a full re-evaluation.
    ctl.clear();
    engine.st_index().clear_cache();
    manager.run_now();
    assert_subscriptions_match_full(
        &manager,
        &subs,
        |q, a| engine.try_s_query(q, a),
        seed,
        "after the disk healed",
    );
}
