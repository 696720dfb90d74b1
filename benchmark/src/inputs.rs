//! Everything the program is fed, generated from `--seed`: the city, the
//! fleet, the tick stream and the query lists. The same seed gives the same
//! inputs; no clock, pid or address ever reaches a seed.

use std::sync::Arc;

use streach_core::prelude::*;
use streach_geo::Mbr;
use streach_traj::SECONDS_PER_DAY;

pub const COLS: usize = 21;
pub const ROWS: usize = 21;
pub const TAXIS: usize = 120;
pub const BASE_DAYS: u16 = 15;
/// Fleet time per ingest tick: one Δt, the way live GPS arrives.
pub const TICK_S: u32 = 300;
pub const TICKS_PER_DAY: usize = (SECONDS_PER_DAY / TICK_S) as usize;

/// Query-list sizes. One pass over the s-query list takes ~2 s warm, so a
/// 10 s phase holds several whole passes and every block of the phase is a
/// shuffled sample of the same list.
pub const S_QUERIES: usize = 600;
pub const M_QUERIES: usize = 120;
pub const SWEEP_QUERIES: usize = 48;
/// Queries between two restarts of adhoc_cold (one sub-sweep, ~4 s: three fit
/// a 10 s phase with a second to spare either way).
pub const SWEEP_CHUNK: usize = 12;
pub const HOT_TUPLES: usize = 512;
/// Share of serve_live requests drawn from the hot tuples (a stated guess:
/// there is no production trace).
pub const HOT_SHARE: f64 = 0.8;

const DURATIONS_S: [u32; 3] = [300, 600, 1200];
const PROBS: [f64; 2] = [0.2, 0.5];
/// Start of the four 30-minute windows serve_live's hot tuples fall in.
const HOT_WINDOWS_S: [u32; 4] = [7 * 3600, 9 * 3600, 13 * 3600, 18 * 3600];

/// SplitMix64: the benchmark's own generator, so its inputs do not move when
/// the repository's `rand` stand-in does.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per (seed, purpose).
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut rng = Rng(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The generated world: the city, the base fleet-days the index is built
/// over, and the extra days cut into ingest ticks.
pub struct World {
    pub network: Arc<RoadNetwork>,
    pub base: TrajectoryDataset,
    /// `live_days[d][t]`: the points of extra day `d` whose fleet time falls
    /// in tick `t`, in timestamp order.
    pub live_days: Vec<Vec<Vec<TrajPoint>>>,
    pub base_points: u64,
}

/// Generates the city and simulates `BASE_DAYS + extra_days` fleet-days.
pub fn world(seed: u64, extra_days: u16) -> World {
    let city = SyntheticCity::generate(GeneratorConfig {
        cols: COLS,
        rows: ROWS,
        seed,
        ..GeneratorConfig::default()
    });
    let network = Arc::new(city.network);
    let full = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: TAXIS,
            num_days: BASE_DAYS + extra_days,
            day_start_s: 0,
            day_end_s: SECONDS_PER_DAY,
            seed,
            ..FleetConfig::default()
        },
    );
    let mut live_days = vec![vec![Vec::new(); TICKS_PER_DAY]; extra_days as usize];
    let mut base = Vec::new();
    for traj in full.trajectories() {
        if traj.date < BASE_DAYS {
            base.push(traj.clone());
        } else {
            let day = &mut live_days[(traj.date - BASE_DAYS) as usize];
            for point in points_of(traj) {
                let tick = (point.enter_time_s / TICK_S) as usize;
                day[tick.min(TICKS_PER_DAY - 1)].push(point);
            }
        }
    }
    // Trajectories were appended taxi by taxi; a stable sort by timestamp
    // keeps each trajectory's own order inside a tick.
    for day in &mut live_days {
        for tick in day {
            tick.sort_by_key(|p| p.enter_time_s);
        }
    }
    let base = TrajectoryDataset::from_matched(base, TAXIS, BASE_DAYS);
    let base_points = base.stats().num_segment_visits;
    World {
        network,
        base,
        live_days,
        base_points,
    }
}

/// The central 60 % of the map: origins here have a full neighbourhood, so
/// query cost does not depend on how close to the edge a seed lands.
fn central_box(network: &RoadNetwork) -> Mbr {
    let b = network.bounds();
    let (w, h) = (b.max_lon - b.min_lon, b.max_lat - b.min_lat);
    Mbr::new(
        b.min_lon + 0.2 * w,
        b.min_lat + 0.2 * h,
        b.max_lon - 0.2 * w,
        b.max_lat - 0.2 * h,
    )
}

/// `n` origins on a jittered grid over `area`: one uniformly placed point in
/// each cell of a near-square grid, in shuffled order. Every seed covers the
/// map evenly, so a list's cost profile depends on the seed far less than
/// with independent draws — the seed moves each origin inside its cell.
fn jittered_grid(rng: &mut Rng, area: &Mbr, n: usize) -> Vec<GeoPoint> {
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let (w, h) = (
        (area.max_lon - area.min_lon) / cols as f64,
        (area.max_lat - area.min_lat) / rows as f64,
    );
    let mut points: Vec<GeoPoint> = (0..cols * rows)
        .map(|cell| {
            GeoPoint::new(
                area.min_lon + ((cell % cols) as f64 + rng.unit()) * w,
                area.min_lat + ((cell / cols) as f64 + rng.unit()) * h,
            )
        })
        .collect();
    rng.shuffle(&mut points);
    points.truncate(n);
    points
}

fn point_in(rng: &mut Rng, area: &Mbr) -> GeoPoint {
    GeoPoint::new(
        area.min_lon + rng.unit() * (area.max_lon - area.min_lon),
        area.min_lat + rng.unit() * (area.max_lat - area.min_lat),
    )
}

/// `n` start times spread evenly over `[from_s, from_s + span_s)`, each moved
/// inside its own sub-interval by the seed, in shuffled order.
fn jittered_times(rng: &mut Rng, from_s: u32, span_s: u32, n: usize) -> Vec<u32> {
    let step = span_s as f64 / n as f64;
    let mut times: Vec<u32> = (0..n)
        .map(|i| from_s + ((i as f64 + rng.unit()) * step) as u32)
        .collect();
    rng.shuffle(&mut times);
    times
}

/// The ad-hoc s-query list: unique origins in the central box, T in
/// [09:00, 09:30), every (L, Prob) combination equally often, shuffled.
pub fn s_queries(seed: u64, network: &RoadNetwork) -> Vec<SQuery> {
    let mut rng = Rng::stream(seed, 1);
    let origins = jittered_grid(&mut rng, &central_box(network), S_QUERIES);
    let times = jittered_times(&mut rng, 9 * 3600, 1800, S_QUERIES);
    let mut queries: Vec<SQuery> = (0..S_QUERIES)
        .map(|i| SQuery {
            location: origins[i],
            start_time_s: times[i],
            duration_s: DURATIONS_S[i % 3],
            prob: PROBS[(i / 3) % 2],
        })
        .collect();
    rng.shuffle(&mut queries);
    queries
}

/// The m-query list: three locations 1.5–2.5 km apart, same (T, L, Prob) mix.
pub fn m_queries(seed: u64, network: &RoadNetwork) -> Vec<MQuery> {
    let mut rng = Rng::stream(seed, 2);
    let origins = jittered_grid(&mut rng, &central_box(network), M_QUERIES);
    let times = jittered_times(&mut rng, 9 * 3600, 1800, M_QUERIES);
    let mut queries: Vec<MQuery> = (0..M_QUERIES)
        .map(|i| {
            let first = origins[i];
            let mut locations = vec![first];
            for _ in 0..2 {
                let (angle, reach) = (
                    rng.unit() * std::f64::consts::TAU,
                    1500.0 + rng.unit() * 1000.0,
                );
                locations.push(first.offset_m(reach * angle.cos(), reach * angle.sin()));
            }
            MQuery {
                locations,
                start_time_s: times[i],
                duration_s: DURATIONS_S[i % 3],
                prob: PROBS[(i / 3) % 2],
            }
        })
        .collect();
    rng.shuffle(&mut queries);
    queries
}

/// The day-wide sweep of adhoc_cold: T covers the whole day in 30-minute
/// steps, L = 10 min, so every query needs Con-Index slots no other query of
/// its restart built. The list is ordered as `SWEEP_QUERIES / SWEEP_CHUNK`
/// sub-sweeps, each spanning the whole day in coarser steps (sub-sweep `k`
/// starts `k` half-hours in), so whichever whole number of sub-sweeps fits a
/// timed phase sees the same mix of night and rush-hour slots.
pub fn sweep_queries(seed: u64, network: &RoadNetwork) -> Vec<SQuery> {
    let mut rng = Rng::stream(seed, 3);
    let origins = jittered_grid(&mut rng, &central_box(network), SWEEP_QUERIES);
    let chunks = SWEEP_QUERIES / SWEEP_CHUNK;
    let step_s = SECONDS_PER_DAY / SWEEP_QUERIES as u32;
    (0..SWEEP_QUERIES)
        .map(|i| SQuery {
            location: origins[i],
            start_time_s: ((i % SWEEP_CHUNK) * chunks + i / SWEEP_CHUNK) as u32 * step_s,
            duration_s: 600,
            prob: 0.2,
        })
        .collect()
}

/// serve_live's request source: `HOT_SHARE` of requests are Zipf(1.0) draws
/// from `HOT_TUPLES` fixed (origin, T, L, Prob) tuples inside four 30-minute
/// windows, the rest have an origin and T nobody asked before.
pub struct RequestMix {
    hot: Vec<SQuery>,
    /// Cumulative Zipf(1.0) weights over the hot tuples.
    cdf: Vec<f64>,
    area: Mbr,
    rng: Rng,
}

impl RequestMix {
    pub fn new(seed: u64, network: &RoadNetwork) -> Self {
        let mut rng = Rng::stream(seed, 4);
        let area = central_box(network);
        let origins = jittered_grid(&mut rng, &area, HOT_TUPLES);
        let times = jittered_times(&mut rng, 0, 1800, HOT_TUPLES);
        let hot: Vec<SQuery> = (0..HOT_TUPLES)
            .map(|i| SQuery {
                location: origins[i],
                start_time_s: HOT_WINDOWS_S[i % 4] + times[i],
                duration_s: DURATIONS_S[(i / 4) % 3],
                prob: PROBS[(i / 12) % 2],
            })
            .collect();
        let mut cdf = Vec::with_capacity(HOT_TUPLES);
        let mut total = 0.0;
        for rank in 1..=HOT_TUPLES {
            total += 1.0 / rank as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self {
            hot,
            cdf,
            area,
            rng: Rng::stream(seed, 5),
        }
    }

    pub fn hot_tuples(&self) -> &[SQuery] {
        &self.hot
    }

    /// A query nobody asked before, in the same windows and mix as the hot
    /// tuples.
    pub fn unique(&mut self) -> SQuery {
        let pick = self.rng.below(12 * 4);
        SQuery {
            location: point_in(&mut self.rng, &self.area),
            start_time_s: HOT_WINDOWS_S[pick % 4] + self.rng.below(1800) as u32,
            duration_s: DURATIONS_S[(pick / 4) % 3],
            prob: PROBS[(pick / 12) % 2],
        }
    }

    /// The next request of the stream.
    pub fn next(&mut self) -> SQuery {
        if self.rng.unit() < HOT_SHARE {
            let u = self.rng.unit();
            let rank = self.cdf.partition_point(|c| *c < u);
            self.hot[rank.min(HOT_TUPLES - 1)]
        } else {
            self.unique()
        }
    }
}
