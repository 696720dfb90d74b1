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
    let (network, _, engine, center) = build_world(num_taxis, num_days);
    (network, engine, center)
}

/// [`build_engine`], keeping the dataset too.
fn build_world(
    num_taxis: usize,
    num_days: u16,
) -> (
    Arc<RoadNetwork>,
    TrajectoryDataset,
    ReachabilityEngine,
    GeoPoint,
) {
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
        .index_config(IndexConfig::default())
        .build();
    (network, dataset, engine, center)
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
        .index_config(IndexConfig::default())
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
    let outcome = engine.try_s_query(&q, Algorithm::SqmbTbs).expect("s-query");
    let r0 = engine.try_locate(&center).unwrap();
    assert!(outcome.region.contains(r0));
    assert!(outcome.region.total_length_km > 0.0);
}

/// SQMB+TBS against the ES ground truth at the paper's density: the small
/// city (456 segments) with ~0.5 taxis per segment. The minimum bounding
/// region is added without verification, so precision below 1 is by
/// design; the bounds pin how far below.
#[test]
fn sqmb_tbs_and_es_agree_on_verified_segments() {
    let (_, engine, center) = build_engine(230, 8);
    let (mut common, mut fast_len, mut es_len, mut es_beyond_start) = (0, 0, 0, 0);
    for dx in [-1500.0, 0.0, 1500.0] {
        for dy in [-1500.0, 0.0, 1500.0] {
            for start_time_s in [9 * 3600, 10 * 3600] {
                let q = SQuery {
                    location: center.offset_m(dx, dy),
                    start_time_s,
                    duration_s: 600,
                    prob: 0.25,
                };
                let es = engine
                    .try_s_query(&q, Algorithm::ExhaustiveSearch)
                    .expect("s-query");
                let fast = engine.try_s_query(&q, Algorithm::SqmbTbs).expect("s-query");
                let r0 = engine.try_locate(&q.location).unwrap();
                assert!(es.region.contains(r0) && fast.region.contains(r0));
                // The index-based algorithm must not verify more segments
                // than ES does.
                assert!(
                    fast.stats.segments_verified <= es.stats.segments_verified,
                    "{q:?}: TBS verified {} segments, ES verified {}",
                    fast.stats.segments_verified,
                    es.stats.segments_verified
                );
                common += es
                    .region
                    .segments
                    .iter()
                    .filter(|s| fast.region.contains(**s))
                    .count();
                fast_len += fast.region.len();
                es_len += es.region.len();
                es_beyond_start += es.region.len() - 1;
            }
        }
    }

    // ES must verify something beyond its start segments, or the bounds
    // below hold vacuously.
    assert!(
        es_beyond_start > 0,
        "ES found only its start segments: the precision and recall checks would be vacuous"
    );
    let precision = common as f64 / fast_len as f64;
    let recall = common as f64 / es_len as f64;
    assert!(
        precision >= 0.85,
        "pooled precision {precision:.3} ({common} of {fast_len} SQMB+TBS segments verified by ES)"
    );
    assert!(
        recall >= 0.95,
        "pooled recall {recall:.3} ({common} of {es_len} ES segments recovered by SQMB+TBS)"
    );
}

/// Why recall falls below 1 (ROADMAP 6(c)): 6(b)'s sweep at one hop,
/// L = 300 s. Every ES segment missing from SQMB+TBS lies outside the
/// maximum bounding region, so the trace-back never verified it. Eq. 3.1
/// does not order the two visits, so such a segment can be met by a start
/// trajectory that passed it *before* the start segment, upstream of the
/// forward bound. On this sweep that explains every one of them: each
/// missing segment is met only by trajectories that passed it before r0.
#[test]
fn es_segments_missing_from_sqmb_tbs_lie_outside_the_max_bound() {
    let (_, dataset, engine, center) = build_world(230, 8);
    let slot_s = engine.config().slot_s;
    let (mut es_len, mut missing, mut upstream_only) = (0, 0, 0);
    for dx in [-1500.0, 0.0, 1500.0] {
        for dy in [-1500.0, 0.0, 1500.0] {
            for start_time_s in [9 * 3600, 10 * 3600] {
                let q = SQuery {
                    location: center.offset_m(dx, dy),
                    start_time_s,
                    duration_s: 300,
                    prob: 0.25,
                };
                let es = engine.try_s_query(&q, Algorithm::ExhaustiveSearch).unwrap();
                let fast = engine.try_s_query(&q, Algorithm::SqmbTbs).unwrap();
                let bounds = streach_testkit::sqmb_bounds(&engine, &q);
                let r0 = engine.try_locate(&q.location).unwrap();
                es_len += es.region.len();
                // T0 and the window are both the slot at T (L = Δt).
                let in_slot = |t: u32| t / slot_s == start_time_s / slot_s;
                for &r in es
                    .region
                    .segments
                    .iter()
                    .filter(|&&r| !fast.region.contains(r))
                {
                    missing += 1;
                    assert!(
                        !bounds.max_region.contains(&r),
                        "{q:?}: {r} is in ES, not in SQMB+TBS, yet inside the max bound"
                    );
                    // The (day, trajectory) pairs meeting r: they passed r0
                    // and r in the slot. Is every one at r before r0?
                    let mut met = false;
                    let mut downstream = false;
                    for traj in dataset.trajectories() {
                        let times = |s: SegmentId| {
                            traj.visits
                                .iter()
                                .filter(move |v| v.segment == s && in_slot(v.enter_time_s))
                                .map(|v| v.enter_time_s)
                        };
                        let (Some(first_r0), Some(last_r)) = (times(r0).min(), times(r).max())
                        else {
                            continue;
                        };
                        met = true;
                        downstream |= last_r >= first_r0;
                    }
                    assert!(
                        met,
                        "{q:?}: ES admitted {r}, which no start trajectory meets"
                    );
                    if !downstream {
                        upstream_only += 1;
                    }
                }
            }
        }
    }
    assert!(
        missing > 0,
        "the sweep must show recall below 1 ({es_len} ES segments)"
    );
    assert_eq!(
        upstream_only, missing,
        "a missing segment is met downstream of r0 by some start trajectory"
    );
    println!(
        "L = 300 s: {missing} of {es_len} ES segments missing from SQMB+TBS, all outside the \
         max bound; {upstream_only} of them met only by trajectories that passed r before r0"
    );
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

    let repeated = engine
        .try_m_query(&q, MQueryAlgorithm::RepeatedSQuery)
        .expect("m-query");
    let unified = engine
        .try_m_query(&q, MQueryAlgorithm::MqmbTbs)
        .expect("m-query");

    // Every start segment is in both results.
    for loc in &q.locations {
        let seg = engine.try_locate(loc).unwrap();
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
        let outcome = engine.try_s_query(&q, Algorithm::SqmbTbs).expect("s-query");
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
    let outcome = engine.try_s_query(&q, Algorithm::SqmbTbs).expect("s-query");
    let geojson = region_to_geojson(&network, &outcome.region);
    assert!(geojson.starts_with("{\"type\":\"FeatureCollection\""));
    assert_eq!(
        geojson.matches("\"type\":\"Feature\"").count(),
        outcome.region.len()
    );
    assert_eq!(geojson.matches('{').count(), geojson.matches('}').count());
}
