//! Location-based advertising (Fig. 1.2 of the paper).
//!
//! A shopping mall wants to know which streets are within a 15-minute reach
//! of its entrance at different times of day, so it can decide where (and
//! when) to distribute coupons. The reachable region around 1 pm is visibly
//! larger than around 6 pm because of the evening rush hour.
//!
//! Run with:
//! ```text
//! cargo run --release --example location_advertising
//! ```

use std::sync::Arc;

use streach::core::time::format_hhmm;
use streach::prelude::*;

fn main() {
    let city = SyntheticCity::generate(GeneratorConfig::medium());
    let mall = city.central_point();
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

    println!("reachable region around the mall (L = 15 min, Prob = 20%):\n");
    println!(
        "{:<12} {:>10} {:>14} {:>12}",
        "start time", "segments", "road km", "runtime ms"
    );

    let mut results = Vec::new();
    for hour in [1u32, 6, 10, 13, 18, 21] {
        let query = SQuery {
            location: mall,
            start_time_s: hour * 3600,
            duration_s: 15 * 60,
            prob: 0.2,
        };
        let outcome = engine
            .try_s_query(&query, Algorithm::SqmbTbs)
            .expect("s-query");
        println!(
            "{:<12} {:>10} {:>14.2} {:>12.1}",
            format_hhmm(query.start_time_s),
            outcome.region.len(),
            outcome.region.total_length_km,
            outcome.stats.running_time_ms()
        );
        results.push((hour, outcome.region.total_length_km));

        // Dump one GeoJSON per start time so the shrinking rush-hour region
        // can be inspected on a map.
        let geojson = region_to_geojson(&network, &outcome.region);
        let path = std::env::temp_dir().join(format!("streach_advertising_{hour:02}h.geojson"));
        std::fs::write(&path, geojson).expect("write GeoJSON");
    }

    // The headline observation of Fig. 1.2: the 13:00 region beats the 18:00
    // (rush hour) region.
    let at = |h: u32| {
        results
            .iter()
            .find(|(hour, _)| *hour == h)
            .map(|(_, km)| *km)
            .unwrap_or(0.0)
    };
    println!(
        "\n13:00 reach = {:.1} km vs 18:00 reach = {:.1} km  ({}).",
        at(13),
        at(18),
        if at(13) > at(18) {
            "rush hour shrinks the coupon zone"
        } else {
            "no rush-hour effect detected"
        }
    );
    println!(
        "GeoJSON files written to {}",
        std::env::temp_dir().display()
    );
}
