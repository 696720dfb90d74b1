//! Raw GPS records and trajectories.

use serde::{Deserialize, Serialize};
use streach_geo::GeoPoint;

/// One GPS fix.
///
/// "Each record has five core attributes including trajectory ID, longitude,
/// latitude, speed and time." (Section 4.1) — plus the date, since the
/// Prob-reachable computation treats the same taxi on different days as
/// different trajectories.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsRecord {
    /// Trajectory this record belongs to.
    pub traj_id: u32,
    /// Position of the fix.
    pub point: GeoPoint,
    /// Instantaneous speed in m/s.
    pub speed_ms: f64,
    /// Seconds since midnight (local time of day).
    pub time_s: u32,
    /// Day index within the dataset (0-based).
    pub date: u16,
}

/// A raw trajectory: the ordered GPS records of one moving object during one
/// day ("one moving object only has one trajectory per day").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawTrajectory {
    /// Unique trajectory ID (taxi × date).
    pub traj_id: u32,
    /// Day index within the dataset.
    pub date: u16,
    /// GPS records ordered by time.
    pub records: Vec<GpsRecord>,
}

impl RawTrajectory {
    /// Creates an empty trajectory.
    pub fn new(traj_id: u32, date: u16) -> Self {
        Self {
            traj_id,
            date,
            records: Vec::new(),
        }
    }

    /// Appends a record, asserting that time does not go backwards.
    pub fn push(&mut self, record: GpsRecord) {
        if let Some(last) = self.records.last() {
            debug_assert!(
                record.time_s >= last.time_s,
                "GPS records must be time-ordered"
            );
        }
        self.records.push(record);
    }

    /// Number of GPS records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the trajectory has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Time span covered by the trajectory, in seconds (0 for < 2 records).
    pub fn duration_s(&self) -> u32 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.time_s.saturating_sub(a.time_s),
            _ => 0,
        }
    }

    /// Straight-line sampled length: the sum of distances between
    /// consecutive fixes, in meters.
    pub fn sampled_length_m(&self) -> f64 {
        self.records
            .windows(2)
            .map(|w| w[0].point.haversine_m(&w[1].point))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: u32, lon: f64, lat: f64) -> GpsRecord {
        GpsRecord {
            traj_id: 1,
            point: GeoPoint::new(lon, lat),
            speed_ms: 10.0,
            time_s: t,
            date: 0,
        }
    }

    #[test]
    fn empty_trajectory() {
        let t = RawTrajectory::new(1, 0);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.duration_s(), 0);
        assert_eq!(t.sampled_length_m(), 0.0);
    }

    #[test]
    fn push_and_measures() {
        let mut t = RawTrajectory::new(1, 0);
        let p0 = GeoPoint::new(114.0, 22.5);
        let p1 = p0.offset_m(300.0, 0.0);
        let p2 = p1.offset_m(0.0, 400.0);
        t.push(record(100, p0.lon, p0.lat));
        t.push(record(130, p1.lon, p1.lat));
        t.push(record(160, p2.lon, p2.lat));
        assert_eq!(t.len(), 3);
        assert_eq!(t.duration_s(), 60);
        assert!((t.sampled_length_m() - 700.0).abs() < 3.0);
    }

    // The ordering check is a `debug_assert!`, compiled out in release.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_records_rejected_in_debug() {
        let mut t = RawTrajectory::new(1, 0);
        t.push(record(100, 114.0, 22.5));
        t.push(record(50, 114.0, 22.5));
    }
}
