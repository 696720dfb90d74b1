//! End-to-end integration test: synthetic city → fleet simulation → (raw GPS
//! → map matching) → index construction → reachability queries.
//!
//! This exercises every crate of the workspace through the public API, the
//! way the examples and the benchmark harness use it.

use std::sync::Arc;

use streach::prelude::*;
use streach::traj::map_matching::map_match;
use streach::traj::FleetSimulator;

fn build_engine(
    num_taxis: usize,
    num_days: u16,
) -> (Arc<RoadNetwork>, ReachabilityEngine, GeoPoint) {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis,
            num_days,
            ..FleetConfig::tiny()
        },
    );
    let engine = EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig {
            read_latency_us: 0,
            ..Default::default()
        })
        .build();
    (network, engine, center)
}

#[test]
fn full_preprocessing_pipeline_produces_queryable_indexes() {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);

    // Raw GPS emission + map matching (the paper's pre-processing module).
    let fleet = FleetConfig {
        num_taxis: 6,
        num_days: 2,
        ..FleetConfig::tiny()
    };
    let sim = FleetSimulator::new(&network, fleet.clone());
    let pairs = sim.simulate_with_gps();
    let raw: Vec<_> = pairs.iter().map(|(r, _)| r.clone()).collect();
    assert!(raw.iter().all(|t| !t.is_empty()));
    let matched = map_match(&network, &raw);
    assert_eq!(matched.len(), raw.len());

    let dataset = TrajectoryDataset::from_matched(matched, fleet.num_taxis, fleet.num_days);
    let engine = EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig {
            read_latency_us: 0,
            ..Default::default()
        })
        .build();

    // The indexes are non-trivial.
    assert!(engine.st_index().stats().num_time_lists > 0);

    // A query at a time the fleet was active returns a region containing the
    // start segment.
    let q = SQuery {
        location: center,
        start_time_s: 9 * 3600,
        duration_s: 600,
        prob: 0.2,
    };
    let outcome = engine.s_query(&q, Algorithm::SqmbTbs);
    let r0 = engine.locate(&center).unwrap();
    assert!(outcome.region.contains(r0));
    assert!(outcome.region.total_length_km > 0.0);
}

#[test]
fn sqmb_tbs_and_es_agree_on_verified_segments() {
    let (network, engine, center) = build_engine(25, 4);
    let q = SQuery {
        location: center,
        start_time_s: 9 * 3600,
        duration_s: 600,
        prob: 0.25,
    };

    let es = engine.s_query(&q, Algorithm::ExhaustiveSearch);
    let fast = engine.s_query(&q, Algorithm::SqmbTbs);

    // Both contain the start segment and are non-empty.
    let r0 = engine.locate(&center).unwrap();
    assert!(es.region.contains(r0));
    assert!(fast.region.contains(r0));

    // The ES region is the ground truth for "verified Prob-reachable": every
    // segment ES found must lie inside the SQMB maximum bounding region and
    // most of it must be recovered by TBS (differences can only come from
    // the minimum bounding region, which is included without verification).
    let common = es
        .region
        .segments
        .iter()
        .filter(|s| fast.region.contains(**s))
        .count();
    assert!(
        common as f64 >= 0.7 * es.region.len() as f64,
        "SQMB+TBS recovered only {common} of {} ES segments",
        es.region.len()
    );

    // The index-based algorithm must not verify more segments than ES does.
    assert!(
        fast.stats.segments_verified <= es.stats.segments_verified,
        "TBS verified {} segments, ES verified {}",
        fast.stats.segments_verified,
        es.stats.segments_verified
    );
    let _ = network;
}

#[test]
fn mquery_union_semantics_and_efficiency() {
    use streach::core::query::MQueryAlgorithm;

    let (network, engine, center) = build_engine(25, 4);
    let q = MQuery {
        locations: vec![
            center,
            center.offset_m(1200.0, 600.0),
            center.offset_m(-900.0, -900.0),
        ],
        start_time_s: 9 * 3600,
        duration_s: 900,
        prob: 0.2,
    };

    let repeated = engine.m_query(&q, MQueryAlgorithm::RepeatedSQuery);
    let unified = engine.m_query(&q, MQueryAlgorithm::MqmbTbs);

    // Every start segment is in both results.
    for loc in &q.locations {
        let seg = engine.locate(loc).unwrap();
        assert!(repeated.region.contains(seg));
        assert!(unified.region.contains(seg));
    }

    // MQMB verifies fewer (or equal) segments than running the s-queries
    // separately, because overlapping segments are verified once.
    assert!(unified.stats.segments_verified <= repeated.stats.segments_verified);

    // The two regions agree on the bulk of the area.
    let common = repeated
        .region
        .segments
        .iter()
        .filter(|s| unified.region.contains(**s))
        .count();
    assert!(
        common as f64 >= 0.6 * repeated.region.len() as f64,
        "unified region too different: {common} of {}",
        repeated.region.len()
    );
    let _ = network;
}

#[test]
fn probability_threshold_is_monotone_end_to_end() {
    let (_, engine, center) = build_engine(30, 5);
    let mut previous_len = usize::MAX;
    for prob in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let q = SQuery {
            location: center,
            start_time_s: 9 * 3600,
            duration_s: 900,
            prob,
        };
        let outcome = engine.s_query(&q, Algorithm::SqmbTbs);
        assert!(
            outcome.region.len() <= previous_len,
            "region must shrink as Prob grows (prob={prob})"
        );
        previous_len = outcome.region.len();
    }
}

#[test]
fn geojson_export_of_query_result_is_well_formed() {
    let (network, engine, center) = build_engine(15, 3);
    let q = SQuery {
        location: center,
        start_time_s: 9 * 3600,
        duration_s: 600,
        prob: 0.2,
    };
    let outcome = engine.s_query(&q, Algorithm::SqmbTbs);
    let geojson = region_to_geojson(&network, &outcome.region);
    assert!(geojson.starts_with("{\"type\":\"FeatureCollection\""));
    assert_eq!(
        geojson.matches("\"type\":\"Feature\"").count(),
        outcome.region.len()
    );
    assert_eq!(geojson.matches('{').count(), geojson.matches('}').count());
}
