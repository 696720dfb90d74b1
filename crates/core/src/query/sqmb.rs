//! S-query maximum/minimum bounding region search (SQMB, Algorithm 1).
//!
//! Starting from the start road segment `r0`, the algorithm repeatedly jumps
//! through the Con-Index: in step `ℓ` it unions the Far (resp. Near) ID lists
//! of every segment currently in the bounding set, for the slot containing
//! `T + ℓ·Δt`, until `k` steps cover the query duration
//! (`kΔt ≤ L < (k+1)Δt`). The Far expansion yields the **maximum bounding
//! region** (an upper bound of the Prob-reachable region), the Near
//! expansion the **minimum bounding region** (a lower bound).
//!
//! # The hop is evaluated, not looked up
//!
//! `Far(r, slot)` is by construction the set one expansion from `r` reaches
//! within Δt at the slot's maximum speeds, so the step
//! `B ← B ∪ ⋃_{r∈B} Far(r, slot)` is the set one *multi-source* expansion
//! from `B` reaches: a segment is within budget of the nearest source iff it
//! is within budget of some source. The identity is exact in floating
//! point, not just on paper. An arrival time is the left fold
//! `((0 + c₁) + c₂) + …` of non-negative traversal costs along a path;
//! `a + c` rounds monotonically in `a`, so Dijkstra settles every segment at
//! the minimum fold over all paths from all sources — the minimum of the
//! single-source arrivals, bit for bit — and a fold never decreases along
//! its path, so the `≤ Δt` pruning never cuts a path whose final sum is
//! within budget. Every source settles at 0, so the settled set of hop `ℓ`
//! *is* the bounding set of hop `ℓ+1`. The literal list walk survives as
//! [`crate::query::reference::naive_sqmb`]; the equivalence suites pin the
//! two bit-identical.
//!
//! # A hop seeds only its frontier
//!
//! Take any path from the bounding set to a segment outside it, and cut it
//! at its *last* member. The suffix folds from 0 over a subset of the
//! path's costs, so it arrives no later than the whole path (the same
//! monotone rounding as above): whatever the hop reaches, it reaches from
//! a member with a successor outside the set. Such a member is either a
//! segment the last hop added, or a member that already had one before and
//! still does, since the set only grows. So each hop seeds the previous
//! hop's seeds that still have a successor outside the grown set plus the
//! segments it added, and settles bit-for-bit the set the whole-set hop
//! settles. An empty frontier means the set is closed under successors:
//! no later hop can add a segment, and they are skipped (answer-neutral;
//! the speed rows of every hop slot are still resolved, so a damaged one
//! still fails the query).

use streach_roadnet::SegmentId;

use crate::con_index::{BoundingPass, ConIndex};
use crate::time::slot_of;

/// The two bounding regions computed by SQMB.
#[derive(Debug, Clone)]
pub struct BoundingRegions {
    /// Maximum bounding region (includes the start segment).
    pub max_region: Vec<SegmentId>,
    /// Minimum bounding region (includes the start segment).
    pub min_region: Vec<SegmentId>,
}

impl BoundingRegions {
    /// The bounds of a decided query (see [`sqmb_min_only`]): the maximum
    /// region is the minimum one, so the annulus is empty.
    pub fn min_only(min_region: Vec<SegmentId>) -> Self {
        Self {
            max_region: min_region.clone(),
            min_region,
        }
    }

    /// Segments in the maximum but not the minimum bounding region — the
    /// annulus the trace back search has to verify.
    pub fn annulus(&self) -> Vec<SegmentId> {
        let mut out = Vec::with_capacity(self.max_region.len());
        let mut i = 0;
        for &seg in &self.max_region {
            while i < self.min_region.len() && self.min_region[i] < seg {
                i += 1;
            }
            if i >= self.min_region.len() || self.min_region[i] != seg {
                out.push(seg);
            }
        }
        out
    }
}

/// Number of Con-Index hops needed to cover a duration.
///
/// The paper iterates `k` steps with `kΔt ≤ L < (k+1)Δt`; because the
/// bounding region must stay an *upper* bound of everything reachable within
/// `L`, we round up instead of down when `L` is not a multiple of `Δt` (the
/// extra slack is removed later by the trace back verification), and always
/// take at least one hop.
pub fn num_hops(duration_s: u32, slot_s: u32) -> u32 {
    duration_s.div_ceil(slot_s).max(1)
}

/// The Δt slot of every Con-Index hop of a query, in hop order: hop `ℓ`
/// uses the slot containing `T + ℓ·Δt` (wrapping past midnight).
pub(crate) fn hop_slots(start_time_s: u32, duration_s: u32, slot_s: u32) -> Vec<u32> {
    (0..num_hops(duration_s, slot_s))
        .map(|step| slot_of(start_time_s.saturating_add(step * slot_s), slot_s))
        .collect()
}

/// One hop per slot through the Con-Index using either the Far or the Near
/// speeds.
///
/// Each hop seeds only the *frontier*: the previous hop's seeds that still
/// have a successor outside the grown set, plus every segment the previous
/// hop added. A member off the frontier has all its successors inside the
/// set, and the set only grows, so it has nothing left to offer; an empty
/// frontier means the set is closed under successors, and the remaining
/// hops are skipped. On the benchmark city the L = 20 min Far set grows
/// 1 → 634 → 2 459 → 2 635 → 2 636 segments (the whole city), so its last
/// two hops seed about the 1 825 and 176 segments the hops before them
/// added, instead of all 2 459 and 2 635 members.
fn expand(
    pass: &mut BoundingPass<'_>,
    start_segment: SegmentId,
    hop_slots: &[u32],
    use_far: bool,
) -> Vec<SegmentId> {
    let network = pass.network();
    // R starts as {r0}; after each step R = B (Algorithm 1, line 8).
    let mut bounding = vec![start_segment];
    let mut frontier = vec![start_segment];
    for &slot in hop_slots {
        if frontier.is_empty() {
            break;
        }
        let ws = pass.hop(&bounding, &frontier, slot, use_far);
        frontier.retain(|&s| network.successors(s).iter().any(|&n| !ws.reached(n)));
        for (seg, _) in ws.settled() {
            bounding.push(seg);
            frontier.push(seg);
        }
    }
    bounding.sort_unstable();
    bounding
}

/// Runs SQMB: computes the maximum and minimum bounding regions of an
/// s-query starting at `start_segment`. (`_num_segments` predates the dense
/// expansion workspace, which sizes itself from the network.)
pub fn sqmb(
    con_index: &ConIndex,
    _num_segments: usize,
    start_segment: SegmentId,
    start_time_s: u32,
    duration_s: u32,
) -> BoundingRegions {
    let hop_slots = hop_slots(start_time_s, duration_s, con_index.slot_s());
    con_index.bounding_pass(|pass| BoundingRegions {
        max_region: expand(pass, start_segment, &hop_slots, true),
        min_region: expand(pass, start_segment, &hop_slots, false),
    })
}

/// SQMB's Near expansion alone, as [`BoundingRegions::min_only`]: the
/// minimum bounding region of [`sqmb`], bit for bit, without the Far
/// expansion. This is the whole bounding pass of a query the start segment
/// decides ([`VerifierCore::decided`](crate::query::verifier::VerifierCore::decided)):
/// no annulus segment can pass, so its answer is the minimum region and
/// the maximum one would only bound reads that never happen.
pub fn sqmb_min_only(
    con_index: &ConIndex,
    start_segment: SegmentId,
    start_time_s: u32,
    duration_s: u32,
) -> BoundingRegions {
    let hop_slots = hop_slots(start_time_s, duration_s, con_index.slot_s());
    BoundingRegions::min_only(
        con_index.bounding_pass(|pass| expand(pass, start_segment, &hop_slots, false)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::speed_stats::SpeedStats;
    use std::sync::Arc;
    use streach_roadnet::{GeneratorConfig, RoadNetwork, SyntheticCity};
    use streach_traj::{FleetConfig, TrajectoryDataset};

    fn setup() -> (Arc<RoadNetwork>, ConIndex, SegmentId) {
        let city = SyntheticCity::generate(GeneratorConfig::small());
        let center = city.central_point();
        let network = Arc::new(city.network);
        let dataset = TrajectoryDataset::simulate(
            &network,
            FleetConfig {
                num_taxis: 20,
                num_days: 4,
                ..FleetConfig::tiny()
            },
        );
        let config = IndexConfig::default();
        let stats = Arc::new(SpeedStats::from_dataset(&network, &dataset, config.slot_s));
        let con = ConIndex::new(network.clone(), stats, &config);
        let start = network.nearest_segment(&center).unwrap().0;
        (network, con, start)
    }

    #[test]
    fn num_hops_covers_the_duration() {
        assert_eq!(num_hops(600, 300), 2); // L = 10 min, Δt = 5 min
        assert_eq!(num_hops(300, 300), 1);
        assert_eq!(num_hops(299, 300), 1); // L < Δt still takes one hop
        assert_eq!(num_hops(2100, 300), 7); // L = 35 min
        assert_eq!(num_hops(2100, 600), 4); // Δt = 10 min: rounded up so k·Δt ≥ L
                                            // The covered time never falls short of L.
        for (l, dt) in [(600u32, 300u32), (900, 600), (2100, 600), (60, 300)] {
            assert!(num_hops(l, dt) * dt >= l);
        }
    }

    #[test]
    fn min_region_is_subset_of_max_region() {
        let (network, con, start) = setup();
        let b = sqmb(&con, network.num_segments(), start, 9 * 3600, 600);
        assert!(b.max_region.contains(&start));
        assert!(b.min_region.contains(&start));
        for seg in &b.min_region {
            assert!(
                b.max_region.binary_search(seg).is_ok(),
                "{seg} in min but not max"
            );
        }
        assert!(b.max_region.len() >= b.min_region.len());
        // The annulus is exactly max \ min.
        let annulus = b.annulus();
        assert_eq!(annulus.len(), b.max_region.len() - b.min_region.len());
        for seg in &annulus {
            assert!(b.min_region.binary_search(seg).is_err());
        }
    }

    #[test]
    fn longer_duration_grows_both_regions() {
        let (network, con, start) = setup();
        let short = sqmb(&con, network.num_segments(), start, 9 * 3600, 300);
        let long = sqmb(&con, network.num_segments(), start, 9 * 3600, 1500);
        assert!(long.max_region.len() > short.max_region.len());
        assert!(long.min_region.len() >= short.min_region.len());
        for seg in &short.max_region {
            assert!(long.max_region.binary_search(seg).is_ok());
        }
    }

    #[test]
    fn max_region_covers_direct_successors() {
        let (network, con, start) = setup();
        let b = sqmb(&con, network.num_segments(), start, 9 * 3600, 600);
        for &succ in network.successors(start) {
            assert!(
                b.max_region.binary_search(&succ).is_ok(),
                "successor {succ} missing"
            );
        }
    }

    #[test]
    fn min_only_bounds_are_the_minimum_region_of_sqmb() {
        let (network, con, start) = setup();
        for (t, l) in [
            (9 * 3600, 300),
            (9 * 3600 + 120, 900),
            (23 * 3600 + 3300, 600),
        ] {
            let full = sqmb(&con, network.num_segments(), start, t, l);
            let min_only = sqmb_min_only(&con, start, t, l);
            assert_eq!(min_only.min_region, full.min_region, "T={t} L={l}");
            assert_eq!(min_only.max_region, full.min_region, "T={t} L={l}");
            assert!(min_only.annulus().is_empty());
        }
    }

    #[test]
    fn regions_are_sorted_and_unique() {
        let (network, con, start) = setup();
        let b = sqmb(&con, network.num_segments(), start, 10 * 3600, 900);
        assert!(b.max_region.windows(2).all(|w| w[0] < w[1]));
        assert!(b.min_region.windows(2).all(|w| w[0] < w[1]));
    }
}
