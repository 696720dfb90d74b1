//! Benchmarks for the offline index-construction stages: the ST-Index build
//! (per-slot counting-sort grouping), one slot's Con-Index connection table
//! as the reference oracle builds it, and the two spatial index loading
//! strategies (ablation: R-tree STR bulk load vs incremental insert).
//!
//! Run with `cargo bench -p streach-bench --bench index_construction`.

use std::sync::Arc;

use streach_bench::timing::measure;
use streach_bench::ScenarioSize;
use streach_core::query::reference::SlotTable;
use streach_core::{ConIndex, IndexConfig, SpeedStats, StIndex};
use streach_roadnet::SyntheticCity;
use streach_spatial::RTree;
use streach_traj::TrajectoryDataset;

fn report(group: &str, name: &str, ms: f64) {
    println!("{group:<16} {name:<22} {ms:>10.3} ms");
}

fn main() {
    let city = SyntheticCity::generate(ScenarioSize::Smoke.city());
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(&network, ScenarioSize::Smoke.fleet());
    println!("{:<16} {:<22} {:>13}", "group", "benchmark", "median");

    let m = measure(1, 9, || {
        StIndex::build(network.clone(), &dataset, &IndexConfig::default())
    });
    report("index_build", "st_index", m.median_ms());

    let m = measure(1, 9, || SpeedStats::from_dataset(&network, &dataset, 300));
    report("index_build", "speed_stats", m.median_ms());

    let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, 300));
    let con = ConIndex::new(network.clone(), stats, &IndexConfig::default());
    let m = measure(1, 9, || SlotTable::build(&con, 132));
    report("index_build", "con_index_one_slot", m.median_ms());

    let items: Vec<_> = network.segments().iter().map(|s| (s.mbr, s.id)).collect();
    let m = measure(2, 19, || RTree::bulk_load(items.clone()));
    report("rtree_ablation", "str_bulk_load", m.median_ms());

    let m = measure(2, 19, || {
        let mut t = RTree::new();
        for (mbr, id) in &items {
            t.insert(*mbr, *id);
        }
        t
    });
    report("rtree_ablation", "incremental_insert", m.median_ms());
}
