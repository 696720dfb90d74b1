//! Historical speed statistics per road segment and time slot.
//!
//! The Con-Index is built from "the minimum speed (removing the 0 speed)" and
//! "the maximum traveling speed calculated from the historical trajectories"
//! (Section 3.2.2). This module aggregates, for every (segment, Δt slot)
//! pair, the minimum and maximum traversal speed observed in the map-matched
//! trajectory dataset, with per-class per-slot fallbacks for pairs that were
//! never observed.

use bytes::{Buf, BufMut};
use streach_roadnet::{RoadClass, RoadNetwork, SegmentId};
use streach_traj::TrajectoryDataset;

use crate::time::slot_of;

/// Traversal speeds slower than this are treated as "0 speed" (standing
/// traffic / data noise) and excluded, as the paper does.
const MIN_PLAUSIBLE_SPEED_MS: f64 = 0.5;
/// Traversal speeds faster than this are discarded as matching noise.
const MAX_PLAUSIBLE_SPEED_MS: f64 = 45.0;
/// Congestion margin applied to per-cell minimum speeds when building the
/// Near lists (see [`SpeedStats::min_speed_ms`]).
const MIN_SPEED_MARGIN: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
struct MinMax {
    min: f32,
    max: f32,
}

impl MinMax {
    const EMPTY: MinMax = MinMax {
        min: f32::INFINITY,
        max: f32::NEG_INFINITY,
    };

    fn observe(&mut self, v: f64) {
        let v = v as f32;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// The cell [`SpeedStats::encode`] wrote as 8 bytes: `min`, then `max`,
    /// each as the little-endian bits of an `f32`.
    fn from_le_bytes(bytes: &[u8; 8]) -> Self {
        let bits = u64::from_le_bytes(*bytes);
        MinMax {
            min: f32::from_bits(bits as u32),
            max: f32::from_bits((bits >> 32) as u32),
        }
    }
}

/// Minimum and maximum observed traversal speed for every
/// (road segment, time slot) pair.
///
/// `Clone` supports the copy-on-write update path of streaming ingest: the
/// Con-Index keeps the stats behind an `Arc` and clones only when an update
/// races with a reader holding the previous version.
#[derive(Clone)]
pub struct SpeedStats {
    slot_s: u32,
    slots_per_day: u32,
    num_segments: usize,
    /// `per_segment[slot * num_segments + segment]`
    per_segment: Vec<MinMax>,
    /// Fallback per (slot, class) aggregates.
    per_class: Vec<[MinMax; 4]>,
    /// Number of speed observations ingested.
    observations: u64,
}

fn class_index(class: RoadClass) -> usize {
    match class {
        RoadClass::Highway => 0,
        RoadClass::Primary => 1,
        RoadClass::Secondary => 2,
        RoadClass::Local => 3,
    }
}

impl SpeedStats {
    /// Computes the statistics from a map-matched dataset.
    ///
    /// A trajectory's traversal speed over a segment is its length divided by
    /// the time between entering it and entering the next segment; the last
    /// visit of every trajectory has no exit time and is skipped.
    pub fn from_dataset(network: &RoadNetwork, dataset: &TrajectoryDataset, slot_s: u32) -> Self {
        assert!(slot_s > 0, "slot length must be positive");
        let slots_per_day = streach_traj::SECONDS_PER_DAY.div_ceil(slot_s);
        let num_segments = network.num_segments();
        let mut stats = Self {
            slot_s,
            slots_per_day,
            num_segments,
            per_segment: vec![MinMax::EMPTY; slots_per_day as usize * num_segments],
            per_class: vec![[MinMax::EMPTY; 4]; slots_per_day as usize],
            observations: 0,
        };
        for traj in dataset.trajectories() {
            for w in traj.visits.windows(2) {
                stats.observe_pair(network, w[0].segment, w[0].enter_time_s, w[1].enter_time_s);
            }
        }
        stats
    }

    /// Ingests one consecutive-visit pair: the trajectory entered `segment`
    /// at `enter_time_s` and entered the *next* segment at
    /// `next_enter_time_s`. Returns `true` when the pair produced a valid
    /// speed observation (implausibly slow/fast traversals and zero-length
    /// intervals are discarded, as in the batch build).
    ///
    /// This is the single observation path shared by the batch construction
    /// ([`SpeedStats::from_dataset`]) and the streaming ingest, so an engine
    /// that ingested a trajectory point by point holds **bit-identical**
    /// statistics to one rebuilt from scratch on the combined dataset.
    pub fn observe_pair(
        &mut self,
        network: &RoadNetwork,
        segment: SegmentId,
        enter_time_s: u32,
        next_enter_time_s: u32,
    ) -> bool {
        let seg = network.segment(segment);
        let dt = next_enter_time_s.saturating_sub(enter_time_s);
        if dt == 0 {
            return false;
        }
        let speed = seg.length_m / dt as f64;
        if !(MIN_PLAUSIBLE_SPEED_MS..=MAX_PLAUSIBLE_SPEED_MS).contains(&speed) {
            return false;
        }
        let slot = slot_of(enter_time_s, self.slot_s);
        self.observe(segment, seg.class, slot, speed);
        true
    }

    fn observe(&mut self, segment: SegmentId, class: RoadClass, slot: u32, speed: f64) {
        let idx = slot as usize * self.num_segments + segment.index();
        self.per_segment[idx].observe(speed);
        self.per_class[slot as usize][class_index(class)].observe(speed);
        self.observations += 1;
    }

    /// The Δt granularity the statistics were aggregated at.
    pub fn slot_s(&self) -> u32 {
        self.slot_s
    }

    /// Number of (segment, slot, trajectory) speed observations ingested.
    pub fn num_observations(&self) -> u64 {
        self.observations
    }

    /// Fraction of (segment, slot) cells with at least one observation.
    pub fn coverage(&self) -> f64 {
        let filled = self.per_segment.iter().filter(|m| !m.is_empty()).count();
        filled as f64 / self.per_segment.len() as f64
    }

    fn cell(&self, segment: SegmentId, slot: u32) -> &MinMax {
        let slot = slot % self.slots_per_day;
        &self.per_segment[slot as usize * self.num_segments + segment.index()]
    }

    /// Maximum observed speed (m/s) on `segment` during `slot`, falling back
    /// to the per-class slot aggregate and finally to the class free-flow
    /// speed when nothing was observed.
    pub fn max_speed_ms(&self, network: &RoadNetwork, segment: SegmentId, slot: u32) -> f64 {
        let cell = self.cell(segment, slot);
        if !cell.is_empty() {
            return cell.max as f64;
        }
        let class = network.segment(segment).class;
        let class_cell = &self.per_class[(slot % self.slots_per_day) as usize][class_index(class)];
        if !class_cell.is_empty() {
            return class_cell.max as f64;
        }
        class.free_flow_ms()
    }

    /// Conservative minimum speed (m/s) on `segment` during `slot`, used to
    /// build the Near lists (the lower bound of the reachable range).
    ///
    /// The value is the minimum observed traversal speed, shrunk by a
    /// congestion margin ([`MIN_SPEED_MARGIN`]): a single segment usually has
    /// only a handful of traversals per Δt slot, so its sample minimum tends
    /// to sit near the typical speed rather than the worst-case congested
    /// speed the paper's 400-million-point dataset captures. `fallback_min`
    /// bounds the value from below so Near lists never collapse to the start
    /// segment alone, and the result never exceeds the observed maximum for
    /// the same cell.
    pub fn min_speed_ms(
        &self,
        network: &RoadNetwork,
        segment: SegmentId,
        slot: u32,
        fallback_min: f64,
    ) -> f64 {
        let class = network.segment(segment).class;
        let class_cell = &self.per_class[(slot % self.slots_per_day) as usize][class_index(class)];
        let cell = self.cell(segment, slot);
        let (observed_min, cap) = if !cell.is_empty() {
            (cell.min as f64, cell.max as f64)
        } else if !class_cell.is_empty() {
            (class_cell.min as f64, class_cell.max as f64)
        } else {
            (class.free_flow_ms() * 0.3, class.free_flow_ms())
        };
        (observed_min * MIN_SPEED_MARGIN).max(fallback_min).min(cap)
    }

    /// Serializes the statistics for an engine snapshot.
    ///
    /// Layout: `slot_s`, `slots_per_day`, `num_segments` and `observations`
    /// header, then the dense per-(slot, segment) min/max table and the
    /// per-(slot, class) fallback table as IEEE-754 `f32` bit patterns.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf =
            Vec::with_capacity(32 + self.per_segment.len() * 8 + self.per_class.len() * 32);
        buf.put_u32_le(self.slot_s);
        buf.put_u32_le(self.slots_per_day);
        buf.put_u64_le(self.num_segments as u64);
        buf.put_u64_le(self.observations);
        buf.put_u64_le(self.per_segment.len() as u64);
        for cell in &self.per_segment {
            buf.put_u32_le(cell.min.to_bits());
            buf.put_u32_le(cell.max.to_bits());
        }
        buf.put_u64_le(self.per_class.len() as u64);
        for classes in &self.per_class {
            for cell in classes {
                buf.put_u32_le(cell.min.to_bits());
                buf.put_u32_le(cell.max.to_bits());
            }
        }
        buf
    }

    /// Deserializes statistics previously produced by [`SpeedStats::encode`].
    /// Returns `None` when the buffer is malformed or internally
    /// inconsistent.
    pub(crate) fn decode(mut buf: &[u8]) -> Option<Self> {
        if buf.remaining() < 32 {
            return None;
        }
        let slot_s = buf.get_u32_le();
        let slots_per_day = buf.get_u32_le();
        let num_segments_u64 = buf.get_u64_le();
        let observations = buf.get_u64_le();
        if slot_s == 0 || slots_per_day != streach_traj::SECONDS_PER_DAY.div_ceil(slot_s) {
            return None;
        }
        // All lengths are file-supplied: validate with overflow-checked
        // arithmetic against the actual buffer size before any allocation.
        let per_segment_len = buf.get_u64_le();
        let expected_len = (slots_per_day as u64).checked_mul(num_segments_u64)?;
        if per_segment_len != expected_len
            || per_segment_len > (buf.remaining() as u64).saturating_sub(8) / 8
        {
            return None;
        }
        let num_segments = num_segments_u64 as usize;
        let (cells, mut buf) = buf.split_at(per_segment_len as usize * 8);
        let per_class_len = buf.get_u64_le() as usize;
        if per_class_len != slots_per_day as usize || buf.remaining() != per_class_len * 32 {
            return None;
        }
        // Both tables are whole 8-byte cells by the length checks above.
        let per_segment = cells
            .as_chunks::<8>()
            .0
            .iter()
            .map(MinMax::from_le_bytes)
            .collect();
        let per_class = buf
            .as_chunks::<32>()
            .0
            .iter()
            .map(|row| {
                let row = row.as_chunks::<8>().0;
                std::array::from_fn(|class| MinMax::from_le_bytes(&row[class]))
            })
            .collect();
        Some(Self {
            slot_s,
            slots_per_day,
            num_segments,
            per_segment,
            per_class,
            observations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streach_roadnet::{GeneratorConfig, SyntheticCity};
    use streach_traj::FleetConfig;

    fn setup() -> (SyntheticCity, TrajectoryDataset) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let dataset = TrajectoryDataset::simulate(&city.network, FleetConfig::tiny());
        (city, dataset)
    }

    #[test]
    fn observations_are_ingested() {
        let (city, dataset) = setup();
        let stats = SpeedStats::from_dataset(&city.network, &dataset, 300);
        assert!(
            stats.num_observations() > 100,
            "observations {}",
            stats.num_observations()
        );
        assert!(stats.coverage() > 0.0);
        assert_eq!(stats.slot_s(), 300);
    }

    #[test]
    fn min_never_exceeds_max() {
        let (city, dataset) = setup();
        let stats = SpeedStats::from_dataset(&city.network, &dataset, 300);
        for seg in city.network.segment_ids() {
            for slot in (0..288).step_by(17) {
                let min = stats.min_speed_ms(&city.network, seg, slot, 1.0);
                let max = stats.max_speed_ms(&city.network, seg, slot);
                assert!(
                    min <= max + 1e-9,
                    "min {min} > max {max} for {seg} slot {slot}"
                );
                assert!(min > 0.0);
                assert!(max <= 45.0 + 1e-9);
            }
        }
    }

    #[test]
    fn fallbacks_apply_when_no_data() {
        let (city, _) = setup();
        // An empty dataset: everything must fall back to class defaults.
        let empty = TrajectoryDataset::from_matched(Vec::new(), 0, 0);
        let stats = SpeedStats::from_dataset(&city.network, &empty, 300);
        assert_eq!(stats.num_observations(), 0);
        let seg = city.network.segment_ids().next().unwrap();
        let class = city.network.segment(seg).class;
        assert_eq!(
            stats.max_speed_ms(&city.network, seg, 10),
            class.free_flow_ms()
        );
        assert!(stats.min_speed_ms(&city.network, seg, 10, 2.0) >= 2.0);
    }

    #[test]
    fn rush_hour_max_speed_lower_than_night() {
        let (city, _) = setup();
        // A fleet operating around the clock so both slots are covered.
        let dataset = TrajectoryDataset::simulate(
            &city.network,
            FleetConfig {
                num_taxis: 20,
                num_days: 3,
                day_start_s: 0,
                day_end_s: 86_400,
                seed: 5,
                ..FleetConfig::default()
            },
        );
        let stats = SpeedStats::from_dataset(&city.network, &dataset, 1800);
        // Compare the class-level aggregates at 03:00 vs 07:30-08:00.
        let night_slot = slot_of(3 * 3600, 1800);
        let rush_slot = slot_of(7 * 3600 + 1800, 1800);
        let mut rush_sum = 0.0;
        let mut night_sum = 0.0;
        let mut n = 0.0;
        for seg in city.network.segment_ids() {
            rush_sum += stats.max_speed_ms(&city.network, seg, rush_slot);
            night_sum += stats.max_speed_ms(&city.network, seg, night_slot);
            n += 1.0;
        }
        assert!(
            night_sum / n > rush_sum / n * 1.1,
            "night avg max {} vs rush avg max {}",
            night_sum / n,
            rush_sum / n
        );
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let (city, dataset) = setup();
        let stats = SpeedStats::from_dataset(&city.network, &dataset, 300);
        let bytes = stats.encode();
        let decoded = SpeedStats::decode(&bytes).expect("round trip");
        assert_eq!(decoded.slot_s, stats.slot_s);
        assert_eq!(decoded.slots_per_day, stats.slots_per_day);
        assert_eq!(decoded.num_segments, stats.num_segments);
        assert_eq!(decoded.observations, stats.observations);
        // Every cell of both tables, by bit pattern (NaN-safe, ±0 apart).
        let bits = |cells: &[MinMax]| -> Vec<(u32, u32)> {
            cells
                .iter()
                .map(|c| (c.min.to_bits(), c.max.to_bits()))
                .collect()
        };
        assert_eq!(bits(&decoded.per_segment), bits(&stats.per_segment));
        assert_eq!(
            bits(decoded.per_class.as_flattened()),
            bits(stats.per_class.as_flattened())
        );
        assert_eq!(decoded.encode(), bytes);

        // Truncated buffers, a trailing byte and a wrong per-class count are
        // rejected, not misread.
        assert!(SpeedStats::decode(&bytes[..bytes.len() - 3]).is_none());
        assert!(SpeedStats::decode(&[]).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SpeedStats::decode(&trailing).is_none());
        let per_class_count = 32 + stats.per_segment.len() * 8;
        for count in [287u64, 289, 0, u64::MAX] {
            let mut wrong = bytes.clone();
            wrong[per_class_count..per_class_count + 8].copy_from_slice(&count.to_le_bytes());
            assert!(
                SpeedStats::decode(&wrong).is_none(),
                "per_class count {count}"
            );
        }
    }

    #[test]
    fn slots_wrap_around_day() {
        let (city, dataset) = setup();
        let stats = SpeedStats::from_dataset(&city.network, &dataset, 300);
        let seg = city.network.segment_ids().next().unwrap();
        let a = stats.max_speed_ms(&city.network, seg, 5);
        let b = stats.max_speed_ms(&city.network, seg, 5 + 288);
        assert_eq!(a, b);
    }
}
