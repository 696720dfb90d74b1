//! Business coverage analysis with a multi-location query.
//!
//! A chain (think UPS or McDonald's, as in the paper's introduction) has
//! several branches and wants the overall spatial coverage reachable from
//! any branch within 20 minutes. This is exactly a multi-location ST
//! reachability query; the example compares answering it as repeated
//! single-location queries versus the MQMB algorithm.
//!
//! Run with:
//! ```text
//! cargo run --release --example business_coverage
//! ```

use std::sync::Arc;

use streach::core::query::MQueryAlgorithm;
use streach::prelude::*;

fn main() {
    let city = SyntheticCity::generate(GeneratorConfig::medium());
    let center = city.central_point();
    let network = Arc::new(city.network);

    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 80,
            num_days: 12,
            ..FleetConfig::default()
        },
    );
    let engine = EngineBuilder::new(network.clone(), &dataset).build();

    // Five branch locations spread across the city.
    let branches = vec![
        center,
        center.offset_m(2500.0, 1500.0),
        center.offset_m(-2800.0, 800.0),
        center.offset_m(1000.0, -2600.0),
        center.offset_m(-1500.0, -1800.0),
    ];

    let query = MQuery {
        locations: branches.clone(),
        start_time_s: 10 * 3600,
        duration_s: 20 * 60,
        prob: 0.2,
    };

    println!(
        "business coverage of {} branches (T = 10:00, L = 20 min, Prob = 20%):\n",
        branches.len()
    );
    for (name, algo) in [
        (
            "repeated s-queries (SQMB+TBS x n)",
            MQueryAlgorithm::RepeatedSQuery,
        ),
        ("m-query (MQMB+TBS)", MQueryAlgorithm::MqmbTbs),
    ] {
        let outcome = engine.try_m_query(&query, algo).expect("m-query");
        println!(
            "{name:<36} -> {:>5} segments, {:>8.2} km covered, {:>9.1} ms, {:>6} verifications",
            outcome.region.len(),
            outcome.region.total_length_km,
            outcome.stats.running_time_ms(),
            outcome.stats.segments_verified,
        );
    }

    // Per-branch breakdown (Fig. 4.9 shows the union vs the three parts).
    println!("\nper-branch coverage:");
    for (i, &branch) in branches.iter().enumerate() {
        let outcome = engine
            .try_s_query(
                &SQuery {
                    location: branch,
                    start_time_s: query.start_time_s,
                    duration_s: query.duration_s,
                    prob: query.prob,
                },
                Algorithm::SqmbTbs,
            )
            .expect("s-query");
        println!(
            "  branch {:>2}: {:>5} segments, {:>8.2} km",
            i + 1,
            outcome.region.len(),
            outcome.region.total_length_km
        );
    }

    let union = engine
        .try_m_query(&query, MQueryAlgorithm::MqmbTbs)
        .expect("m-query");
    let geojson = region_to_geojson(&network, &union.region);
    let path = std::env::temp_dir().join("streach_business_coverage.geojson");
    std::fs::write(&path, geojson).expect("write GeoJSON");
    println!("\nwrote union coverage to {}", path.display());
}
