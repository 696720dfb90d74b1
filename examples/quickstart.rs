//! Quickstart: build a city, simulate a fleet, build the indexes and answer
//! one single-location reachability query with both algorithms.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use streach::prelude::*;

fn main() {
    // 1. A synthetic metropolis (stands in for the Shenzhen road network).
    let city = SyntheticCity::generate(GeneratorConfig::medium());
    let center = city.central_point();
    let network = Arc::new(city.network);
    println!(
        "road network: {} intersections, {} directed segments, {:.0} km",
        network.num_nodes(),
        network.num_segments(),
        network.total_length_km()
    );

    // 2. A simulated taxi fleet (stands in for the 21,385-taxi GPS dataset).
    let fleet = FleetConfig {
        num_taxis: 60,
        num_days: 10,
        day_start_s: 6 * 3600,
        day_end_s: 22 * 3600,
        ..FleetConfig::default()
    };
    let dataset = TrajectoryDataset::simulate(&network, fleet);
    let stats = dataset.stats();
    println!(
        "trajectory dataset: {} taxis x {} days = {} trajectories, {} segment visits",
        stats.num_taxis, stats.num_days, stats.num_trajectories, stats.num_segment_visits
    );

    // 3. Build the ST-Index and Con-Index.
    let engine = EngineBuilder::new(network.clone(), &dataset).build();
    let st_stats = engine.st_index().stats();
    println!(
        "ST-Index: {} time lists, {} posting pages ({} KiB)",
        st_stats.num_time_lists,
        st_stats.posting_pages,
        st_stats.posting_bytes / 1024
    );

    // 4. A single-location reachability query: from the city centre at 11:00,
    //    within 10 minutes, with 20% probability.
    let query = SQuery {
        location: center,
        start_time_s: 11 * 3600,
        duration_s: 10 * 60,
        prob: 0.2,
    };

    for (name, algo) in [
        ("exhaustive search (ES)", Algorithm::ExhaustiveSearch),
        ("SQMB + TBS", Algorithm::SqmbTbs),
    ] {
        let outcome = engine.try_s_query(&query, algo).expect("s-query");
        println!(
            "{name:<24} -> {:>4} segments, {:>7.2} km reachable, {:>8.1} ms, {} segments verified, {} page reads",
            outcome.region.len(),
            outcome.region.total_length_km,
            outcome.stats.running_time_ms(),
            outcome.stats.segments_verified,
            outcome.stats.io.page_reads,
        );
    }

    // 5. Export the SQMB+TBS result as GeoJSON for inspection in any map viewer.
    let outcome = engine
        .try_s_query(&query, Algorithm::SqmbTbs)
        .expect("s-query");
    let geojson = region_to_geojson(&network, &outcome.region);
    let path = std::env::temp_dir().join("streach_quickstart_region.geojson");
    std::fs::write(&path, geojson).expect("write GeoJSON");
    println!("wrote {}", path.display());
}
