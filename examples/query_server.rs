//! Serving front end: many concurrent clients submit s-queries through a
//! [`QueryServer`], which folds queries sharing an (origin, slot window)
//! into **one bounding pass** (cross-user coalescing), serves repeats
//! from an ingest-invalidated **result cache**, and stays bit-identical to
//! the serial engine path throughout — including across a live ingest that
//! invalidates exactly the affected cache entries.
//!
//! Run with:
//! ```text
//! cargo run --release --example query_server
//! ```

use std::sync::Arc;

use streach::prelude::*;

fn main() {
    // --- An engine over a simulated fleet history -------------------------
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let center = city.central_point();
    let network = Arc::new(city.network);
    let base_days = 3u16;
    let full = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 25,
            num_days: base_days + 1,
            day_start_s: 8 * 3600,
            day_end_s: 14 * 3600,
            ..FleetConfig::default()
        },
    );
    let base = TrajectoryDataset::from_matched(
        full.trajectories()
            .iter()
            .filter(|t| t.date < base_days)
            .cloned()
            .collect(),
        full.num_taxis(),
        base_days,
    );
    let live_batch: Vec<TrajPoint> = full
        .trajectories()
        .iter()
        .filter(|t| t.date >= base_days)
        .flat_map(|t| points_of(t).collect::<Vec<_>>())
        .collect();
    let engine = Arc::new(streach::core::EngineBuilder::new(network.clone(), &base).build());

    // --- Start the server over the engine ---------------------------------
    // Workers drain a bounded submission queue in batches; inside a batch,
    // queries sharing (origin segment, slot window) ride one bounding pass
    // and fan out only for verification. The result cache is invalidated by
    // the exact (slot, segment) pairs each ingest batch touches.
    let server = QueryServer::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 2,
            queue_depth: 128,
            cache_capacity: 1024,
        },
    );

    // --- A burst of concurrent "users" ------------------------------------
    // Three users ask about the same origin and window with different
    // probability thresholds (one shared bounding pass, three
    // verifications), plus one distinct query.
    let base_query = SQuery {
        location: center,
        start_time_s: 9 * 3600,
        duration_s: 600,
        prob: 0.25,
    };
    let tickets: Vec<_> = [0.25, 0.4, 0.6]
        .into_iter()
        .map(|prob| server.submit(SQuery { prob, ..base_query }, Algorithm::SqmbTbs))
        .chain(std::iter::once(server.submit(
            SQuery {
                location: center.offset_m(800.0, -500.0),
                ..base_query
            },
            Algorithm::SqmbTbs,
        )))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.wait().expect("burst query");
        println!(
            "burst query #{i}: {} segments, {:.1} km reachable",
            outcome.region.segments.len(),
            outcome.region.total_length_km
        );
    }

    // The same query again: now a cache hit (no bounding, no verification).
    let cached = server
        .query(base_query, Algorithm::SqmbTbs)
        .expect("cached query");
    let stats = server.stats();
    println!(
        "after burst + repeat: {} coalesced, {} cache hits, {} misses",
        stats.coalesced, stats.cache_hits, stats.cache_misses
    );
    assert!(stats.cache_hits > 0, "the repeat must be served from cache");

    // --- Live ingest invalidates, the server never serves stale -----------
    // The serial path is the ground truth; after ingesting a new fleet day
    // the server's answer must track it (the ingest notified the cache,
    // which dropped every affected entry — here the day count rose, so all
    // of them).
    engine.ingest(&live_batch).expect("live ingest");
    let fresh = server
        .query(base_query, Algorithm::SqmbTbs)
        .expect("post-ingest query");
    let serial = engine
        .try_s_query(&base_query, Algorithm::SqmbTbs)
        .expect("serial reference");
    assert_eq!(
        fresh.region.segments, serial.region.segments,
        "the served answer must match the serial engine after ingest"
    );
    let changed = fresh.region.segments != cached.region.segments
        || fresh.region.total_length_km != cached.region.total_length_km;
    println!(
        "post-ingest answer matches the serial engine (answer changed: {changed}); \
         cache flushes: {}",
        server.stats().cache_flushes
    );

    server.shutdown();
    println!("done");
}
