//! Historical speed statistics per road segment and time slot.
//!
//! The Con-Index is built from "the minimum speed (removing the 0 speed)" and
//! "the maximum traveling speed calculated from the historical trajectories"
//! (Section 3.2.2). This module aggregates, for every (segment, Δt slot)
//! pair, the minimum and maximum traversal speed observed in the map-matched
//! trajectory dataset, with per-class per-slot fallbacks for pairs that were
//! never observed. A snapshot stores the table as one chunk per slot, and a
//! reopened table decodes a slot's row when it is first touched.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use bytes::{Buf, BufMut};
use streach_roadnet::{RoadClass, RoadNetwork, SegmentId};
use streach_storage::{LazySection, StorageError, StorageResult};
use streach_traj::TrajectoryDataset;

use crate::snapshot::Chunk;
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

    /// A cell encoded as 8 bytes: `min`, then `max`, each as the
    /// little-endian bits of an `f32`.
    fn from_le_bytes(bytes: &[u8; 8]) -> Self {
        let bits = u64::from_le_bytes(*bytes);
        MinMax {
            min: f32::from_bits(bits as u32),
            max: f32::from_bits((bits >> 32) as u32),
        }
    }
}

/// One slot's statistics: the per-class fallback cells and one cell per
/// segment, plus the traversal-cost rows a bounding hop reads, derived from
/// them on first use.
pub(crate) struct SpeedRow {
    per_class: [MinMax; 4],
    cells: Vec<MinMax>,
    /// `length_m / max_speed_ms` per segment (see [`SpeedRow::far_costs`]).
    far_costs: OnceLock<Box<[f64]>>,
    /// `length_m / min_speed_ms` per segment, with the fallback minimum
    /// speed it was derived under (see [`SpeedRow::near_costs`]).
    near_costs: OnceLock<(f64, Box<[f64]>)>,
}

/// The cells only: a copy is about to change (the copy-on-write update
/// path), so it derives its cost rows afresh.
impl Clone for SpeedRow {
    fn clone(&self) -> Self {
        Self::new(self.per_class, self.cells.clone())
    }
}

impl SpeedRow {
    fn new(per_class: [MinMax; 4], cells: Vec<MinMax>) -> Self {
        Self {
            per_class,
            cells,
            far_costs: OnceLock::new(),
            near_costs: OnceLock::new(),
        }
    }

    fn empty(num_segments: usize) -> Self {
        Self::new([MinMax::EMPTY; 4], vec![MinMax::EMPTY; num_segments])
    }

    fn observe(&mut self, segment: SegmentId, class: RoadClass, speed: f64) {
        self.cells[segment.index()].observe(speed);
        self.per_class[class_index(class)].observe(speed);
        // The cell and its class fallback moved: so may any cost.
        self.far_costs.take();
        self.near_costs.take();
    }

    /// The Far traversal costs of the slot: entering segment `s` takes
    /// `length_m / max_speed_ms(s)` seconds, `+∞` where that speed is not
    /// positive. The same `f64` quotient the expansion used to compute per
    /// relaxation, derived once per row (8 B per segment) and dropped when
    /// an observation lands in the row.
    pub(crate) fn far_costs(&self, network: &RoadNetwork) -> &[f64] {
        self.far_costs
            .get_or_init(|| costs(network, |s| self.max_speed_ms(network, s)))
    }

    /// The Near traversal costs of the slot, as [`SpeedRow::far_costs`] at
    /// `min_speed_ms(s, fallback_min)`. The row keeps the costs of the
    /// first fallback it is asked for (a Con-Index has one); another
    /// fallback gets its costs derived afresh.
    pub(crate) fn near_costs(&self, network: &RoadNetwork, fallback_min: f64) -> Cow<'_, [f64]> {
        let near = |fallback_min| costs(network, |s| self.min_speed_ms(network, s, fallback_min));
        let (kept, costs) = self
            .near_costs
            .get_or_init(|| (fallback_min, near(fallback_min)));
        if kept.to_bits() == fallback_min.to_bits() {
            Cow::Borrowed(costs)
        } else {
            Cow::Owned(near(fallback_min).into_vec())
        }
    }

    /// See [`SpeedStats::max_speed_ms`]. The class is looked up only for a
    /// segment with no observation of its own.
    pub(crate) fn max_speed_ms(&self, network: &RoadNetwork, segment: SegmentId) -> f64 {
        let cell = &self.cells[segment.index()];
        if !cell.is_empty() {
            return cell.max as f64;
        }
        let class = network.segment(segment).class;
        let class_cell = &self.per_class[class_index(class)];
        if !class_cell.is_empty() {
            return class_cell.max as f64;
        }
        class.free_flow_ms()
    }

    /// See [`SpeedStats::min_speed_ms`].
    pub(crate) fn min_speed_ms(
        &self,
        network: &RoadNetwork,
        segment: SegmentId,
        fallback_min: f64,
    ) -> f64 {
        let class = network.segment(segment).class;
        let class_cell = &self.per_class[class_index(class)];
        let cell = &self.cells[segment.index()];
        let (observed_min, cap) = if !cell.is_empty() {
            (cell.min as f64, cell.max as f64)
        } else if !class_cell.is_empty() {
            (class_cell.min as f64, class_cell.max as f64)
        } else {
            (class.free_flow_ms() * 0.3, class.free_flow_ms())
        };
        (observed_min * MIN_SPEED_MARGIN).max(fallback_min).min(cap)
    }

    /// Byte length of an encoded row over `num_segments` segments, or
    /// `None` when it overflows.
    fn encoded_len(num_segments: u64) -> Option<u64> {
        num_segments.checked_mul(8)?.checked_add(32)
    }

    /// Appends the row: the four class cells, then the segment cells, each
    /// as `min` then `max`, the little-endian bits of an `f32`.
    fn encode(&self, buf: &mut Vec<u8>) {
        for cell in self.per_class.iter().chain(&self.cells) {
            buf.put_u32_le(cell.min.to_bits());
            buf.put_u32_le(cell.max.to_bits());
        }
    }

    /// Decodes a row [`SpeedRow::encode`] wrote; the caller checked its
    /// length.
    fn decode(bytes: &[u8]) -> Self {
        let (cells, rest) = bytes.as_chunks::<8>();
        debug_assert!(rest.is_empty() && cells.len() >= 4);
        let (per_class, cells) = cells.split_at(4);
        Self::new(
            std::array::from_fn(|class| MinMax::from_le_bytes(&per_class[class])),
            cells.iter().map(MinMax::from_le_bytes).collect(),
        )
    }

    /// Bytes held by the derived cost rows.
    #[cfg(test)]
    pub(crate) fn cost_bytes(&self) -> usize {
        let far = self.far_costs.get().map_or(0, |c| c.len());
        let near = self.near_costs.get().map_or(0, |(_, c)| c.len());
        (far + near) * std::mem::size_of::<f64>()
    }
}

/// Traversal cost (s) of every segment at `speed_ms`, `+∞` where the speed
/// is not positive (the segment is impassable).
fn costs(network: &RoadNetwork, speed_ms: impl Fn(SegmentId) -> f64) -> Box<[f64]> {
    network
        .segment_ids()
        .map(|s| match speed_ms(s) {
            v if v > 0.0 => network.segment(s).length_m / v,
            _ => f64::INFINITY,
        })
        .collect()
}

/// Where the rows of a reopened snapshot come from: its lazy
/// `speed_stats_rows` section and the chunk of every slot.
struct LazyRows {
    section: LazySection,
    chunks: Vec<Chunk>,
}

/// Minimum and maximum observed traversal speed for every
/// (road segment, time slot) pair.
///
/// The table is one row per slot of the day. A built table holds every
/// row; a table reopened from a snapshot decodes a row the first time it
/// is touched ([`SpeedStats::resolve`]), and the readers of one slot then
/// pay one atomic load for it. Each row sits behind its own `Arc`, so a
/// clone (the copy-on-write update path of streaming ingest: the Con-Index
/// keeps the stats behind an `Arc` and clones only when an update races
/// with a reader holding the previous version) shares every row, decoded
/// or not, and an update copies only the rows it changes.
#[derive(Clone)]
pub struct SpeedStats {
    slot_s: u32,
    slots_per_day: u32,
    num_segments: usize,
    /// `rows[slot]`, empty until decoded when `lazy` is set.
    rows: Vec<Arc<OnceLock<SpeedRow>>>,
    lazy: Option<Arc<LazyRows>>,
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

/// Byte length of the fixed part of the `speed_stats` head.
const HEAD_LEN: usize = 24;

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
        let mut rows = vec![SpeedRow::empty(num_segments); slots_per_day as usize];
        let mut observations = 0;
        for traj in dataset.trajectories() {
            for w in traj.visits.windows(2) {
                if let Some((slot, speed)) = speed_of(
                    network,
                    w[0].segment,
                    w[0].enter_time_s,
                    w[1].enter_time_s,
                    slot_s,
                ) {
                    let class = network.segment(w[0].segment).class;
                    rows[slot as usize].observe(w[0].segment, class, speed);
                    observations += 1;
                }
            }
        }
        Self {
            slot_s,
            slots_per_day,
            num_segments,
            rows: rows.into_iter().map(|row| Arc::new(row.into())).collect(),
            lazy: None,
            observations,
        }
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
    /// statistics to one rebuilt from scratch on the combined dataset. The
    /// slot's row must be resolved ([`SpeedStats::resolve`]); ingest
    /// resolves every slot a batch touches before it changes anything.
    pub fn observe_pair(
        &mut self,
        network: &RoadNetwork,
        segment: SegmentId,
        enter_time_s: u32,
        next_enter_time_s: u32,
    ) -> bool {
        let Some((slot, speed)) = speed_of(
            network,
            segment,
            enter_time_s,
            next_enter_time_s,
            self.slot_s,
        ) else {
            return false;
        };
        let row = Arc::make_mut(&mut self.rows[slot as usize])
            .get_mut()
            .expect("ingest resolves a slot's speed row before updating it");
        row.observe(segment, network.segment(segment).class, speed);
        self.observations += 1;
        true
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
    /// Decodes every row.
    pub fn coverage(&self) -> f64 {
        let filled: usize = (0..self.slots_per_day)
            .map(|slot| {
                self.row(slot)
                    .cells
                    .iter()
                    .filter(|m| !m.is_empty())
                    .count()
            })
            .sum();
        filled as f64 / (self.slots_per_day as usize * self.num_segments) as f64
    }

    /// Decodes the rows of `slots` (wrapped into the day) that are not
    /// decoded yet. A row that cannot be read is [`StorageError::Corrupt`]
    /// (or the read's I/O error) naming `speed_stats` and the slot, and
    /// stays undecoded, so the next touch fails the same way. Queries and
    /// ingest call this before they read or update a row.
    pub fn resolve(&self, slots: impl IntoIterator<Item = u32>) -> StorageResult<()> {
        for slot in slots {
            self.resolved_row(slot % self.slots_per_day)?;
        }
        Ok(())
    }

    fn resolved_row(&self, slot: u32) -> StorageResult<&SpeedRow> {
        let cell = &self.rows[slot as usize];
        if let Some(row) = cell.get() {
            return Ok(row);
        }
        let lazy = self
            .lazy
            .as_ref()
            .expect("an undecoded row has a lazy source");
        let bytes = lazy.chunks[slot as usize].read(&lazy.section, format_args!("slot {slot}"))?;
        Ok(cell.get_or_init(|| SpeedRow::decode(&bytes)))
    }

    /// The row of `slot` (wrapped into the day), decoded on first touch.
    ///
    /// # Panics
    ///
    /// When the row must be decoded and cannot be read. The query pipeline
    /// and ingest [`resolve`](Self::resolve) their slots first, so they
    /// never get here; the panic is left to direct callers of the
    /// infallible bounding functions over a damaged snapshot.
    pub(crate) fn row(&self, slot: u32) -> &SpeedRow {
        let slot = slot % self.slots_per_day;
        match self.rows[slot as usize].get() {
            Some(row) => row,
            None => self
                .resolved_row(slot)
                .unwrap_or_else(|e| panic!("speed_stats slot {slot} cannot be read: {e}")),
        }
    }

    /// Slots whose row is decoded.
    #[cfg(test)]
    pub(crate) fn decoded_slots(&self) -> Vec<u32> {
        (0..self.slots_per_day)
            .filter(|&slot| self.rows[slot as usize].get().is_some())
            .collect()
    }

    /// Reads, checks and decodes every row of the snapshot this table was
    /// opened from (decoded rows included, from disk again), keeping the
    /// rows not decoded yet. Returns the first failure.
    pub(crate) fn scrub(&self) -> StorageResult<()> {
        let Some(lazy) = &self.lazy else {
            return Ok(());
        };
        for (slot, chunk) in lazy.chunks.iter().enumerate() {
            let bytes = chunk.read(&lazy.section, format_args!("slot {slot}"))?;
            self.rows[slot].get_or_init(|| SpeedRow::decode(&bytes));
        }
        Ok(())
    }

    /// Maximum observed speed (m/s) on `segment` during `slot`, falling back
    /// to the per-class slot aggregate and finally to the class free-flow
    /// speed when nothing was observed. Decodes the slot's row on first
    /// touch, and panics if that row cannot be read: resolve the slot
    /// first ([`SpeedStats::resolve`]) to get the error instead.
    pub fn max_speed_ms(&self, network: &RoadNetwork, segment: SegmentId, slot: u32) -> f64 {
        self.row(slot).max_speed_ms(network, segment)
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
    /// the same cell. Decodes the slot's row on first touch, like
    /// [`SpeedStats::max_speed_ms`].
    pub fn min_speed_ms(
        &self,
        network: &RoadNetwork,
        segment: SegmentId,
        slot: u32,
        fallback_min: f64,
    ) -> f64 {
        self.row(slot).min_speed_ms(network, segment, fallback_min)
    }

    /// Serializes the statistics for an engine snapshot as the eager
    /// `speed_stats` head and the lazy `speed_stats_rows` section, decoding
    /// every row first:
    ///
    /// ```text
    /// head: [slot_s u32][slots per day u32][segments u64][observations u64]
    ///       per slot of the day: [chunk offset u64][chunk len u32][CRC u32]
    /// rows: per slot of the day, its chunk: the four class cells, then one
    ///       cell per segment, each [min f32 bits u32][max f32 bits u32]
    /// ```
    pub(crate) fn encode(&self) -> StorageResult<(Vec<u8>, Vec<u8>)> {
        self.resolve(0..self.slots_per_day)?;
        let row_len = SpeedRow::encoded_len(self.num_segments as u64).expect("fits") as usize;
        let mut head = Vec::with_capacity(HEAD_LEN + self.rows.len() * Chunk::ENCODED_LEN);
        head.put_u32_le(self.slot_s);
        head.put_u32_le(self.slots_per_day);
        head.put_u64_le(self.num_segments as u64);
        head.put_u64_le(self.observations);
        let mut rows = Vec::with_capacity(self.rows.len() * row_len);
        for slot in 0..self.slots_per_day {
            let start = rows.len();
            self.row(slot).encode(&mut rows);
            Chunk::seal(&rows, start).put(&mut head);
        }
        Ok((head, rows))
    }

    /// Opens statistics [`SpeedStats::encode`] wrote for a network of
    /// `num_segments` segments: validates the head (the slot grid, the
    /// segment count, and that the row chunks tile `rows` exactly) and
    /// decodes no row.
    pub(crate) fn open(head: &[u8], rows: LazySection, num_segments: usize) -> StorageResult<Self> {
        let malformed = |what: &str| StorageError::corrupt(format!("speed_stats {what}"));
        let mut buf = head;
        if buf.remaining() < HEAD_LEN {
            return Err(malformed("head truncated"));
        }
        let slot_s = buf.get_u32_le();
        let slots_per_day = buf.get_u32_le();
        let stored_segments = buf.get_u64_le();
        let observations = buf.get_u64_le();
        if slot_s == 0 || slots_per_day != streach_traj::SECONDS_PER_DAY.div_ceil(slot_s) {
            return Err(malformed("slot grid is inconsistent"));
        }
        if stored_segments != num_segments as u64 {
            return Err(malformed(
                "covers a different number of segments than the network",
            ));
        }
        if buf.remaining() != slots_per_day as usize * Chunk::ENCODED_LEN {
            return Err(malformed("head has the wrong length"));
        }
        let row_len =
            SpeedRow::encoded_len(stored_segments).ok_or_else(|| malformed("row overflows"))?;
        let chunks: Vec<Chunk> = (0..slots_per_day).map(|_| Chunk::get(&mut buf)).collect();
        if chunks.iter().any(|c| c.len as u64 != row_len) {
            return Err(malformed("row chunk has the wrong length"));
        }
        Chunk::check_tiling(&chunks, rows.len(), "speed_stats")?;
        Ok(Self {
            slot_s,
            slots_per_day,
            num_segments,
            rows: (0..slots_per_day).map(|_| Arc::default()).collect(),
            lazy: Some(Arc::new(LazyRows {
                section: rows,
                chunks,
            })),
            observations,
        })
    }
}

/// The slot and speed of one consecutive-visit pair, or `None` when the
/// interval is empty or the speed implausible (see
/// [`SpeedStats::observe_pair`]).
fn speed_of(
    network: &RoadNetwork,
    segment: SegmentId,
    enter_time_s: u32,
    next_enter_time_s: u32,
    slot_s: u32,
) -> Option<(u32, f64)> {
    let dt = next_enter_time_s.saturating_sub(enter_time_s);
    if dt == 0 {
        return None;
    }
    let speed = network.segment(segment).length_m / dt as f64;
    (MIN_PLAUSIBLE_SPEED_MS..=MAX_PLAUSIBLE_SPEED_MS)
        .contains(&speed)
        .then(|| (slot_of(enter_time_s, slot_s), speed))
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

    /// Every row of both tables by bit pattern (NaN-safe, ±0 apart).
    fn bits(stats: &SpeedStats) -> Vec<(u32, u32)> {
        (0..stats.slots_per_day)
            .flat_map(|slot| {
                let row = stats.row(slot);
                row.per_class
                    .iter()
                    .chain(&row.cells)
                    .copied()
                    .collect::<Vec<_>>()
            })
            .map(|c| (c.min.to_bits(), c.max.to_bits()))
            .collect()
    }

    fn open(stats: &SpeedStats) -> SpeedStats {
        let (head, rows) = stats.encode().unwrap();
        let section = crate::snapshot::lazy_section("speed_stats_rows", rows);
        SpeedStats::open(&head, section, stats.num_segments).unwrap()
    }

    #[test]
    fn encode_open_roundtrip_is_bit_exact() {
        let (city, dataset) = setup();
        let stats = SpeedStats::from_dataset(&city.network, &dataset, 300);
        let reopened = open(&stats);
        assert_eq!(reopened.slot_s, stats.slot_s);
        assert_eq!(reopened.slots_per_day, stats.slots_per_day);
        assert_eq!(reopened.num_segments, stats.num_segments);
        assert_eq!(reopened.observations, stats.observations);
        assert!(
            reopened.decoded_slots().is_empty(),
            "an open decodes no row"
        );
        reopened.resolve([100, 100 + 288]).unwrap();
        assert_eq!(reopened.decoded_slots(), [100]);
        assert_eq!(bits(&reopened), bits(&stats));
        assert_eq!(reopened.encode().unwrap(), stats.encode().unwrap());
        // A clone shares the rows: decoding one decodes it for the other.
        let fresh = open(&stats);
        let clone = fresh.clone();
        fresh.resolve([7]).unwrap();
        assert_eq!(clone.decoded_slots(), [7]);
    }

    /// A two-slot day over two segments, cells set by hand.
    fn tiny() -> SpeedStats {
        let cell = |min, max| MinMax { min, max };
        let row = |class: MinMax, cells: Vec<MinMax>| {
            SpeedRow::new([class, MinMax::EMPTY, MinMax::EMPTY, MinMax::EMPTY], cells)
        };
        let rows = vec![
            row(cell(1.0, 2.0), vec![cell(1.0, 2.0), MinMax::EMPTY]),
            row(MinMax::EMPTY, vec![MinMax::EMPTY, MinMax::EMPTY]),
        ];
        SpeedStats {
            slot_s: 43_200,
            slots_per_day: 2,
            num_segments: 2,
            rows: rows.into_iter().map(|r| Arc::new(r.into())).collect(),
            lazy: None,
            observations: 1,
        }
    }

    #[test]
    fn speed_stats_golden_bytes() {
        let (head, rows) = tiny().encode().unwrap();
        // One row: six cells of (min, max) f32 bits. Slot 0 saw 1..2 m/s on
        // segment 0 (a highway); slot 1 saw nothing.
        let (one, two) = (
            1.0f32.to_bits().to_le_bytes(),
            2.0f32.to_bits().to_le_bytes(),
        );
        let empty = [
            f32::INFINITY.to_bits().to_le_bytes(),
            f32::NEG_INFINITY.to_bits().to_le_bytes(),
        ]
        .concat();
        let row_0 = [&one[..], &two, &empty, &empty, &empty, &one, &two, &empty].concat();
        let row_1 = empty.repeat(6);
        assert_eq!(row_0.len(), 48);
        assert_eq!(rows, [row_0.clone(), row_1.clone()].concat());
        let mut golden = Vec::new();
        for v in [43_200u32, 2] {
            golden.extend_from_slice(&v.to_le_bytes()); // slot_s, slots per day
        }
        for v in [2u64, 1] {
            golden.extend_from_slice(&v.to_le_bytes()); // segments, observations
        }
        for (offset, row) in [(0u64, &row_0), (48, &row_1)] {
            golden.extend_from_slice(&offset.to_le_bytes());
            golden.extend_from_slice(&48u32.to_le_bytes());
            golden.extend_from_slice(&streach_storage::crc32(row).to_le_bytes());
        }
        assert_eq!(head, golden);
        assert_eq!(bits(&open(&tiny())), bits(&tiny()));
    }

    #[test]
    fn speed_stats_open_rejects_malformed_heads_and_rows() {
        let (head, rows) = tiny().encode().unwrap();
        let section = || crate::snapshot::lazy_section("speed_stats_rows", rows.clone());
        let set = |at: usize, bytes: &[u8]| {
            let mut h = head.clone();
            h[at..at + bytes.len()].copy_from_slice(bytes);
            h
        };
        let cases: Vec<(&str, Vec<u8>, usize)> = vec![
            ("truncated head", head[..HEAD_LEN - 1].to_vec(), 2),
            ("zero slot length", set(0, &0u32.to_le_bytes()), 2),
            ("slot grid", set(4, &3u32.to_le_bytes()), 2),
            ("segment count", head.clone(), 3),
            ("head length", head[..head.len() - 1].to_vec(), 2),
            ("row length", set(HEAD_LEN + 8, &47u32.to_le_bytes()), 2),
            (
                "chunk offset past its section",
                set(HEAD_LEN + 16, &64u64.to_le_bytes()),
                2,
            ),
            (
                "chunks out of order",
                set(HEAD_LEN, &48u64.to_le_bytes()),
                2,
            ),
        ];
        for (what, head, num_segments) in cases {
            match SpeedStats::open(&head, section(), num_segments) {
                Err(StorageError::Corrupt { context }) => {
                    assert!(context.contains("speed_stats"), "{what}: {context}")
                }
                Err(e) => panic!("{what}: expected Corrupt, got {e}"),
                Ok(_) => panic!("{what}: a malformed head opened"),
            }
        }
        // A row whose bytes fail their CRC fails every touch, typed.
        let mut rotten = rows.clone();
        rotten[50] ^= 0x10;
        let stats = SpeedStats::open(
            &head,
            crate::snapshot::lazy_section("speed_stats_rows", rotten),
            2,
        )
        .unwrap();
        assert!(stats.resolve([0]).is_ok());
        for _ in 0..2 {
            match stats.resolve([1]) {
                Err(StorageError::Corrupt { context }) => {
                    assert_eq!(context, "speed_stats_rows slot 1: chunk checksum mismatch")
                }
                other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
            }
        }
        assert!(stats.scrub().is_err());
        assert_eq!(stats.decoded_slots(), [0]);
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
