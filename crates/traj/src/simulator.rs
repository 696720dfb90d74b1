//! The taxi-fleet simulator.
//!
//! The simulator drives a configurable fleet over the road network for a
//! configurable number of days, producing either raw GPS streams (to exercise
//! the map-matching pre-processing) or directly map-matched trajectories (the
//! ground truth, used to build large datasets cheaply).
//!
//! The movement model is a class-weighted network walk rather than
//! origin–destination routing: taxis prefer faster road classes and rarely
//! U-turn, they pause between "trips" to model passenger pick-ups, and their
//! speed on every segment follows the time-of-day [`SpeedProfile`] plus
//! per-taxi noise. This reproduces the structural properties the paper's
//! evaluation depends on — dense coverage of central segments, long-range
//! movement along highways, rush-hour slowdowns — without the cost of
//! millions of shortest-path computations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streach_roadnet::{RoadNetwork, SegmentId};

use crate::gps::{GpsRecord, RawTrajectory};
use crate::map_matching::{MatchedTrajectory, SegmentVisit};
use crate::speed_profile::SpeedProfile;

/// Configuration of the simulated fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of taxis in the fleet.
    pub num_taxis: usize,
    /// Number of days simulated.
    pub num_days: u16,
    /// Time of day at which taxis start operating (seconds after midnight).
    pub day_start_s: u32,
    /// Time of day at which taxis stop operating.
    pub day_end_s: u32,
    /// Interval between GPS fixes in seconds (the paper's fleet reports
    /// roughly every 30 seconds).
    pub gps_interval_s: u32,
    /// Standard deviation of the GPS position noise in meters.
    pub gps_noise_m: f64,
    /// Mean driving time between passenger stops, in seconds.
    pub mean_trip_duration_s: f64,
    /// Mean idle time at a stop, in seconds.
    pub mean_idle_s: f64,
    /// Relative speed noise per taxi and segment (0.15 = ±15%).
    pub speed_noise: f64,
    /// Time-of-day congestion profile.
    pub profile: SpeedProfile,
    /// RNG seed; the same seed reproduces the same fleet.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            num_taxis: 200,
            num_days: 30,
            day_start_s: 0,
            day_end_s: crate::SECONDS_PER_DAY,
            gps_interval_s: 30,
            gps_noise_m: 8.0,
            mean_trip_duration_s: 15.0 * 60.0,
            mean_idle_s: 6.0 * 60.0,
            speed_noise: 0.15,
            profile: SpeedProfile::default(),
            seed: 2014,
        }
    }
}

impl FleetConfig {
    /// A tiny fleet for unit tests: 5 taxis, 3 days, daytime only.
    pub fn tiny() -> Self {
        Self {
            num_taxis: 5,
            num_days: 3,
            day_start_s: 8 * 3600,
            day_end_s: 12 * 3600,
            seed: 1,
            ..Self::default()
        }
    }
}

/// Drives the fleet over a road network.
pub struct FleetSimulator<'a> {
    network: &'a RoadNetwork,
    config: FleetConfig,
}

/// Result of simulating one taxi-day with ground truth attached.
struct DayResult {
    raw: RawTrajectory,
    matched: MatchedTrajectory,
}

impl<'a> FleetSimulator<'a> {
    /// Creates a simulator. Panics on an empty network or inconsistent
    /// configuration.
    pub fn new(network: &'a RoadNetwork, config: FleetConfig) -> Self {
        assert!(
            network.num_segments() > 0,
            "cannot simulate on an empty network"
        );
        assert!(
            config.day_end_s > config.day_start_s,
            "day must have positive length"
        );
        assert!(config.gps_interval_s > 0, "GPS interval must be positive");
        Self { network, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Simulates the whole fleet, returning only the map-matched ground
    /// truth (cheap; used to build large datasets).
    pub fn simulate_matched(&self) -> Vec<MatchedTrajectory> {
        self.simulate_internal(false)
            .into_iter()
            .map(|d| d.matched)
            .collect()
    }

    /// Simulates the whole fleet, returning raw GPS trajectories together
    /// with their ground-truth matched counterparts (used to validate the
    /// map-matching step).
    pub fn simulate_with_gps(&self) -> Vec<(RawTrajectory, MatchedTrajectory)> {
        self.simulate_internal(true)
            .into_iter()
            .map(|d| (d.raw, d.matched))
            .collect()
    }

    /// Simulates every (taxi, date) pair, the pairs split across worker
    /// threads. Each pair has its own seed, so the output (in taxi-major
    /// order) does not depend on the worker count.
    fn simulate_internal(&self, emit_gps: bool) -> Vec<DayResult> {
        let cfg = &self.config;
        let pairs: Vec<(usize, u16)> = (0..cfg.num_taxis)
            .flat_map(|taxi| (0..cfg.num_days).map(move |date| (taxi, date)))
            .collect();
        streach_par::par_map(&pairs, |&(taxi, date)| {
            let traj_id = (taxi as u32) * cfg.num_days as u32 + date as u32;
            // Derive a per-(taxi, date) seed so each day is independent
            // yet reproducible.
            let seed = cfg
                .seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((taxi as u64) << 20)
                .wrapping_add(date as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            self.simulate_day(traj_id, date, &mut rng, emit_gps)
        })
    }

    /// Exponentially distributed duration with the given mean.
    fn exp_duration(rng: &mut StdRng, mean_s: f64) -> f64 {
        let u: f64 = rng.gen_range(1e-6..1.0);
        -mean_s * u.ln()
    }

    fn pick_start_segment(&self, rng: &mut StdRng) -> SegmentId {
        let idx = rng.gen_range(0..self.network.num_segments());
        SegmentId(idx as u32)
    }

    /// Chooses the next segment of the walk: successors weighted by the
    /// square of their free-flow speed (taxis prefer arterials), with a dead
    /// end falling back to the twin (U-turn).
    fn pick_next_segment(&self, current: SegmentId, rng: &mut StdRng) -> Option<SegmentId> {
        let successors = self.network.successors(current);
        if successors.is_empty() {
            return self.network.segment(current).twin;
        }
        let weight = |s: SegmentId| {
            let v = self.network.segment(s).class.free_flow_ms();
            v * v
        };
        let total: f64 = successors.iter().copied().map(weight).sum();
        let mut pick = rng.gen_range(0.0..total);
        let mut last = None;
        for &seg in successors {
            let w = weight(seg);
            if pick < w {
                return Some(seg);
            }
            pick -= w;
            last = Some(seg);
        }
        last
    }

    fn simulate_day(&self, traj_id: u32, date: u16, rng: &mut StdRng, emit_gps: bool) -> DayResult {
        let cfg = &self.config;
        let mut raw = RawTrajectory::new(traj_id, date);
        let mut matched = MatchedTrajectory::new(traj_id, date);

        let mut current = self.pick_start_segment(rng);
        let mut time = cfg.day_start_s as f64 + rng.gen_range(0.0..300.0);
        let mut next_fix = time;
        let mut trip_remaining = Self::exp_duration(rng, cfg.mean_trip_duration_s);

        while time < cfg.day_end_s as f64 {
            let seg = self.network.segment(current);
            matched.push(SegmentVisit {
                segment: current,
                enter_time_s: time as u32,
            });

            // Travel speed on this segment right now.
            let noise = 1.0 + rng.gen_range(-cfg.speed_noise..cfg.speed_noise);
            let speed = (cfg.profile.speed_ms(seg.class, time as u32) * noise).max(1.0);
            let traversal = seg.length_m / speed;
            let enter_time = time;
            let exit_time = time + traversal;

            if emit_gps {
                while next_fix < exit_time && next_fix < cfg.day_end_s as f64 {
                    let frac = ((next_fix - enter_time) / traversal).clamp(0.0, 1.0);
                    let on_road = seg.geometry.point_at_fraction(frac);
                    let jitter_x = rng.gen_range(-cfg.gps_noise_m..cfg.gps_noise_m);
                    let jitter_y = rng.gen_range(-cfg.gps_noise_m..cfg.gps_noise_m);
                    raw.push(GpsRecord {
                        traj_id,
                        point: on_road.offset_m(jitter_x, jitter_y),
                        speed_ms: speed,
                        time_s: next_fix as u32,
                        date,
                    });
                    next_fix += cfg.gps_interval_s as f64;
                }
            }

            time = exit_time;
            trip_remaining -= traversal;
            if trip_remaining <= 0.0 {
                // Passenger stop: idle, then start a new trip from here.
                let idle = Self::exp_duration(rng, cfg.mean_idle_s);
                time += idle;
                next_fix = next_fix.max(time);
                trip_remaining = Self::exp_duration(rng, cfg.mean_trip_duration_s);
            }
            match self.pick_next_segment(current, rng) {
                Some(next) => current = next,
                None => break,
            }
        }
        DayResult { raw, matched }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};

    fn small_city() -> SyntheticCity {
        SyntheticCity::generate(GeneratorConfig::small())
    }

    #[test]
    fn simulation_is_deterministic() {
        let city = small_city();
        let sim = FleetSimulator::new(&city.network, FleetConfig::tiny());
        let a = sim.simulate_matched();
        let b = sim.simulate_matched();
        assert_eq!(a, b);
    }

    #[test]
    fn produces_one_trajectory_per_taxi_per_day() {
        let city = small_city();
        let cfg = FleetConfig::tiny();
        let sim = FleetSimulator::new(&city.network, cfg.clone());
        let matched = sim.simulate_matched();
        assert_eq!(matched.len(), cfg.num_taxis * cfg.num_days as usize);
        // Trajectory IDs are unique.
        let mut ids: Vec<u32> = matched.iter().map(|t| t.traj_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), matched.len());
        // Dates span 0..num_days.
        assert!(matched.iter().all(|t| t.date < cfg.num_days));
    }

    #[test]
    fn visits_are_time_ordered_and_within_operating_hours() {
        let city = small_city();
        let cfg = FleetConfig::tiny();
        let sim = FleetSimulator::new(&city.network, cfg.clone());
        for traj in sim.simulate_matched() {
            assert!(!traj.is_empty());
            for w in traj.visits.windows(2) {
                assert!(w[0].enter_time_s <= w[1].enter_time_s);
            }
            assert!(traj.visits.first().unwrap().enter_time_s >= cfg.day_start_s);
            assert!(traj.visits.last().unwrap().enter_time_s <= cfg.day_end_s + 3600);
        }
    }

    #[test]
    fn consecutive_visits_are_adjacent_segments() {
        let city = small_city();
        let sim = FleetSimulator::new(&city.network, FleetConfig::tiny());
        let matched = sim.simulate_matched();
        for traj in &matched {
            for w in traj.visits.windows(2) {
                let a = w[0].segment;
                let b = w[1].segment;
                let ok = city.network.successors(a).contains(&b)
                    || city.network.segment(a).twin == Some(b);
                assert!(ok, "visit jump from {a} to {b}");
            }
        }
    }

    #[test]
    fn gps_fixes_are_near_the_visited_segments() {
        let city = small_city();
        let sim = FleetSimulator::new(
            &city.network,
            FleetConfig {
                num_taxis: 2,
                num_days: 1,
                ..FleetConfig::tiny()
            },
        );
        let pairs = sim.simulate_with_gps();
        assert_eq!(pairs.len(), 2);
        for (raw, matched) in &pairs {
            assert!(!raw.is_empty(), "GPS stream must not be empty");
            assert!(!matched.is_empty());
            // Fix interval is respected (allowing idle gaps).
            for w in raw.records.windows(2) {
                assert!(w[1].time_s >= w[0].time_s + sim.config().gps_interval_s - 1);
            }
            // Every fix lies close to some segment of the network.
            for rec in &raw.records {
                let (_, d) = city.network.nearest_segment(&rec.point).unwrap();
                assert!(d < 60.0, "GPS fix {d} m away from every road");
            }
        }
    }

    #[test]
    fn rush_hour_days_cover_fewer_segments_per_hour() {
        // At rush hour taxis are slower, so in a fixed wall-clock window they
        // traverse fewer segments than at free-flow night time.
        let city = small_city();
        let mk = |start: u32| FleetConfig {
            num_taxis: 8,
            num_days: 2,
            day_start_s: start,
            day_end_s: start + 3600,
            seed: 3,
            ..FleetConfig::default()
        };
        let night = FleetSimulator::new(&city.network, mk(2 * 3600)).simulate_matched();
        let rush = FleetSimulator::new(&city.network, mk(7 * 3600 + 1800)).simulate_matched();
        let night_visits: usize = night.iter().map(|t| t.len()).sum();
        let rush_visits: usize = rush.iter().map(|t| t.len()).sum();
        assert!(
            night_visits as f64 > rush_visits as f64 * 1.2,
            "night {night_visits} vs rush {rush_visits}"
        );
    }

    /// The fleet is the same however many workers simulate it.
    #[test]
    fn simulation_does_not_depend_on_the_worker_count() {
        let city = small_city();
        let sim = FleetSimulator::new(
            &city.network,
            FleetConfig {
                num_taxis: 12,
                num_days: 3,
                ..FleetConfig::tiny()
            },
        );
        let matched = sim.simulate_matched();
        let with_gps = sim.simulate_with_gps();
        for workers in [1, 3] {
            streach_par::with_worker_override(workers, || {
                assert_eq!(sim.simulate_matched(), matched, "workers = {workers}");
                assert!(
                    sim.simulate_with_gps() == with_gps,
                    "workers = {workers}: GPS streams differ"
                );
            });
        }
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn invalid_day_window_rejected() {
        let city = small_city();
        let cfg = FleetConfig {
            day_start_s: 10,
            day_end_s: 10,
            ..FleetConfig::tiny()
        };
        let _ = FleetSimulator::new(&city.network, cfg);
    }
}
