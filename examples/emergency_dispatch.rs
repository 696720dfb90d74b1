//! Emergency dispatching analysis.
//!
//! Dispatchers want to know, for a set of candidate depot locations, which
//! one can reach the largest share of the city within a fixed response
//! budget at a given time of day — and how much that coverage degrades at
//! rush hour. The example ranks candidate depots by their 10-minute
//! Prob-reachable road length at 03:00 (free flow) and 08:00 (morning peak).
//!
//! Run with:
//! ```text
//! cargo run --release --example emergency_dispatch
//! ```

use std::sync::Arc;

use streach::core::time::format_hhmm;
use streach::prelude::*;

fn main() {
    let city = SyntheticCity::generate(GeneratorConfig::medium());
    let center = city.central_point();
    let network = Arc::new(city.network);

    // Around-the-clock fleet so night-time reachability is observable.
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 90,
            num_days: 12,
            day_start_s: 0,
            day_end_s: 86_400,
            ..FleetConfig::default()
        },
    );
    let engine = EngineBuilder::new(network.clone(), &dataset).build();

    let candidates = vec![
        ("central depot", center),
        ("north depot", center.offset_m(0.0, 3500.0)),
        ("south-west depot", center.offset_m(-3200.0, -2800.0)),
        ("east depot", center.offset_m(3800.0, 500.0)),
    ];

    let total_km = network.total_length_km();
    println!("candidate depots, 10-minute response coverage (Prob = 20%):\n");
    println!(
        "{:<18} {:>14} {:>14} {:>16}",
        "depot", "03:00 cover km", "08:00 cover km", "rush-hour loss %"
    );

    let mut best: Option<(&str, f64)> = None;
    for (name, location) in &candidates {
        let mut coverage = [0.0f64; 2];
        for (i, hour) in [3u32, 8].into_iter().enumerate() {
            let query = SQuery {
                location: *location,
                start_time_s: hour * 3600,
                duration_s: 10 * 60,
                prob: 0.2,
            };
            let outcome = engine
                .try_s_query(&query, Algorithm::SqmbTbs)
                .expect("s-query");
            coverage[i] = outcome.region.total_length_km;
        }
        let loss = if coverage[0] > 0.0 {
            (1.0 - coverage[1] / coverage[0]) * 100.0
        } else {
            0.0
        };
        println!(
            "{:<18} {:>14.2} {:>14.2} {:>16.1}",
            name, coverage[0], coverage[1], loss
        );
        if best.map(|(_, km)| coverage[1] > km).unwrap_or(true) {
            best = Some((name, coverage[1]));
        }
    }

    if let Some((name, km)) = best {
        println!(
            "\nbest rush-hour coverage: {name} ({km:.1} km of {total_km:.0} km total, at {})",
            format_hhmm(8 * 3600)
        );
    }
}
