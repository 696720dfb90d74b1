//! Integration tests asserting the qualitative *shapes* the paper's
//! evaluation reports, on a small instance:
//!
//! * running time / reachable length grow with the duration `L` (Fig. 4.1),
//! * reachable length shrinks as `Prob` grows while the SQMB+TBS running
//!   time stays roughly flat (Fig. 4.3),
//! * the rush hour start time yields a smaller region than free-flow night
//!   time (Fig. 4.5/4.6),
//! * SQMB+TBS verifies far fewer segments than ES (the source of the
//!   50–90 % running-time reduction).

use std::sync::Arc;

use streach::prelude::*;

fn engine_with_all_day_fleet() -> (ReachabilityEngine, GeoPoint) {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 40,
            num_days: 6,
            day_start_s: 0,
            day_end_s: 86_400,
            seed: 99,
            ..FleetConfig::default()
        },
    );
    let engine = EngineBuilder::new(network, &dataset)
        .index_config(IndexConfig {
            read_latency_us: 0,
            ..Default::default()
        })
        .build();
    (engine, center)
}

#[test]
fn reachable_length_grows_with_duration() {
    let (engine, center) = engine_with_all_day_fleet();
    let mut lengths = Vec::new();
    for minutes in [5u32, 15, 30] {
        let q = SQuery {
            location: center,
            start_time_s: 11 * 3600,
            duration_s: minutes * 60,
            prob: 0.2,
        };
        let outcome = engine.s_query(&q, Algorithm::SqmbTbs);
        lengths.push(outcome.region.total_length_km);
    }
    assert!(
        lengths[1] > lengths[0],
        "15-minute region must beat 5-minute region: {lengths:?}"
    );
    assert!(
        lengths[2] >= lengths[1],
        "30-minute region must not shrink: {lengths:?}"
    );
}

#[test]
fn region_shrinks_with_probability_but_verifications_stay_flat() {
    let (engine, center) = engine_with_all_day_fleet();
    let mut lengths = Vec::new();
    let mut verifications = Vec::new();
    for prob in [0.2, 0.6, 1.0] {
        let q = SQuery {
            location: center,
            start_time_s: 11 * 3600,
            duration_s: 900,
            prob,
        };
        let outcome = engine.s_query(&q, Algorithm::SqmbTbs);
        lengths.push(outcome.region.total_length_km);
        verifications.push(outcome.stats.segments_verified);
    }
    assert!(
        lengths[0] >= lengths[1] && lengths[1] >= lengths[2],
        "lengths {lengths:?}"
    );
    // The number of verifications (the cost driver) does not depend on Prob:
    // the bounding regions are identical for every threshold.
    assert_eq!(verifications[0], verifications[1]);
    assert_eq!(verifications[1], verifications[2]);
}

#[test]
fn rush_hour_region_is_smaller_than_night_region() {
    let (engine, center) = engine_with_all_day_fleet();
    let mut by_time = Vec::new();
    for hour in [3u32, 8] {
        let q = SQuery {
            location: center,
            start_time_s: hour * 3600,
            duration_s: 600,
            prob: 0.2,
        };
        let outcome = engine.s_query(&q, Algorithm::SqmbTbs);
        by_time.push((
            hour,
            outcome.region.total_length_km,
            outcome.stats.max_bounding_size,
        ));
    }
    let (_, night_km, night_bound) = by_time[0];
    let (_, rush_km, rush_bound) = by_time[1];
    assert!(
        night_km > rush_km,
        "night region ({night_km:.1} km) must exceed rush-hour region ({rush_km:.1} km)"
    );
    // The mechanism the paper describes: slower maximum speeds shrink the
    // maximum bounding region, which in turn reduces work.
    assert!(
        night_bound > rush_bound,
        "bounding region must shrink at rush hour"
    );
}

#[test]
fn index_based_algorithm_reduces_verifications_substantially() {
    let (engine, center) = engine_with_all_day_fleet();
    let q = SQuery {
        location: center,
        start_time_s: 11 * 3600,
        duration_s: 600,
        prob: 0.2,
    };
    let es = engine.s_query(&q, Algorithm::ExhaustiveSearch);
    let fast = engine.s_query(&q, Algorithm::SqmbTbs);
    assert!(es.stats.segments_verified > 0);
    let ratio = fast.stats.segments_verified as f64 / es.stats.segments_verified as f64;
    assert!(
        ratio < 0.8,
        "SQMB+TBS should verify well under 80% of what ES verifies, got {:.0}% ({} vs {})",
        ratio * 100.0,
        fast.stats.segments_verified,
        es.stats.segments_verified
    );
    // And it reads fewer posting pages.
    assert!(
        fast.stats.io.cache_misses + fast.stats.io.cache_hits
            <= es.stats.io.cache_misses + es.stats.io.cache_hits
    );
}

#[test]
fn time_interval_granularity_leaves_result_roughly_stable() {
    // Fig. 4.7: Δt is a system parameter and should not change the result
    // much. Build two engines with different Δt over the same data.
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 40,
            num_days: 6,
            day_start_s: 0,
            day_end_s: 86_400,
            seed: 99,
            ..FleetConfig::default()
        },
    );
    let mut lengths = Vec::new();
    for slot_s in [300u32, 600] {
        let engine = EngineBuilder::new(network.clone(), &dataset)
            .index_config(IndexConfig {
                slot_s,
                read_latency_us: 0,
                ..Default::default()
            })
            .build();
        let q = SQuery {
            location: center,
            start_time_s: 11 * 3600,
            duration_s: 1200,
            prob: 0.2,
        };
        let outcome = engine.s_query(&q, Algorithm::SqmbTbs);
        lengths.push(outcome.region.total_length_km);
    }
    let ratio = lengths[0].min(lengths[1]) / lengths[0].max(lengths[1]).max(1e-9);
    assert!(
        ratio > 0.5,
        "Δt = 5 vs 10 min changed the result too much: {lengths:?}"
    );
}
