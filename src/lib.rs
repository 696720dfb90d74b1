//! # streach — spatio-temporal reachable region mining
//!
//! A from-scratch Rust reproduction of *"Mining Spatio-Temporal Reachable
//! Regions over Massive Trajectory Data"* (Ding, ICDE/WPI 2017).
//!
//! The system answers queries of the form *"which road segments can be
//! reached from location `S`, starting at time `T`, within duration `L`,
//! with probability at least `Prob` according to historical trajectories?"*
//! using two purpose-built indexes (the ST-Index and the Con-Index) and the
//! SQMB / TBS / MQMB query-processing algorithms.
//!
//! This crate is a façade: it re-exports the workspace crates so that
//! downstream users (and the bundled examples) only need one dependency.
//!
//! | Module | Contents |
//! |---|---|
//! | [`geo`] | geometry primitives (points, MBRs, polylines) |
//! | [`storage`] | page store, buffer pool, posting lists, snapshot container, WAL |
//! | [`spatial`] | R-tree, k-d shard partition |
//! | [`roadnet`] | road network, re-segmentation, synthetic city generator |
//! | [`traj`] | taxi-fleet simulator, map matching, trajectory datasets |
//! | [`core`] | ST-Index, Con-Index, ES / SQMB / TBS / MQMB, the engine |
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough.

#![warn(missing_docs)]

pub use streach_core as core;
pub use streach_geo as geo;
pub use streach_roadnet as roadnet;
pub use streach_spatial as spatial;
pub use streach_storage as storage;
pub use streach_traj as traj;

pub use streach_core::prelude;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        // Touch one item from every re-exported crate.
        let p = crate::geo::GeoPoint::new(114.0, 22.5);
        assert!(p.is_finite());
        let _ = crate::storage::PAGE_SIZE;
        let t: crate::spatial::RTree<u32> = crate::spatial::RTree::new();
        assert!(t.is_empty());
        let cfg = crate::roadnet::GeneratorConfig::small();
        assert_eq!(cfg.cols, 9);
        let fleet = crate::traj::FleetConfig::tiny();
        assert_eq!(fleet.num_days, 3);
        let idx = crate::core::IndexConfig::default();
        assert_eq!(idx.slot_s, 300);
    }
}
