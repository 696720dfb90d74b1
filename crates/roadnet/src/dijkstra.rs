//! Shortest paths over the road network.
//!
//! The query hot path runs many Dijkstra expansions per query (the ES
//! distance cap, MQMB's per-start ownership distances, every Con-Index hop
//! of a bounding pass), so the search state lives in a reusable
//! [`DijkstraWorkspace`]: dense per-segment arrays that
//! are *epoch-stamped* instead of cleared — starting a new run bumps a
//! counter, and a slot is only considered initialised when its stamp matches
//! the current epoch. A run therefore costs O(visited) regardless of how
//! large the network is, performs no hashing, and after the first run on a
//! network performs no allocation at all.
//!
//! Priorities are ordered with [`f64::total_cmp`], which is a total order
//! even in the presence of NaN (the previous `Cost` newtype fell back to
//! `Ordering::Equal`, which can silently corrupt the binary-heap invariant).
//! Ties are broken by segment ID so heap order — and therefore the visit
//! order — is fully deterministic.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::graph::{NodeId, RoadNetwork};
use crate::segment::SegmentId;

/// A heap entry ordered by distance (or arrival time) via `total_cmp`, with
/// the item index as a deterministic tie-breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    item: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.item.cmp(&other.item))
    }
}

/// Reusable dense-array state for segment-level Dijkstra runs.
///
/// One workspace serves any number of consecutive runs, including runs over
/// different networks (the arrays grow to the largest segment count seen).
/// It is intentionally *not* shared across threads: each worker owns one.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    /// Segments settled by the current run, in settling order.
    settled: Vec<SegmentId>,
}

impl DijkstraWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new run over a graph with `n` items: bumps the epoch and
    /// grows the arrays if needed. Only touched slots are ever re-read.
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.stamp.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap-around (once per 2^32 runs): reset all stamps.
                self.stamp.fill(0);
                1
            }
        };
        self.heap.clear();
        self.settled.clear();
    }

    #[inline]
    fn tentative(&self, idx: usize) -> f64 {
        if self.stamp[idx] == self.epoch {
            self.dist[idx]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn relax(&mut self, idx: usize, d: f64) {
        self.dist[idx] = d;
        self.stamp[idx] = self.epoch;
        self.heap.push(Reverse(HeapEntry {
            dist: d,
            item: idx as u32,
        }));
    }

    /// Network distances (in meters) from the *end* of `start` to the *end*
    /// of every segment reachable within `max_distance_m`, traversing
    /// segments in their stated direction. The start segment itself has
    /// distance zero. Results are queried with [`DijkstraWorkspace::distance`]
    /// or iterated with [`DijkstraWorkspace::settled`] until the next run.
    ///
    /// This is the `dis(r0, r)` used by the MQMB overlap-elimination rule:
    /// when a road segment falls inside several per-location bounding
    /// regions, it is kept only for the start location it is closest to.
    pub fn run(&mut self, network: &RoadNetwork, start: SegmentId, max_distance_m: f64) {
        self.run_until(network, start, max_distance_m, |_| false);
    }

    /// Like [`DijkstraWorkspace::run`], but stops early as soon as `done`
    /// returns `true` for a settled segment (used for point-to-point
    /// queries).
    pub fn run_until<F>(
        &mut self,
        network: &RoadNetwork,
        start: SegmentId,
        max_distance_m: f64,
        mut done: F,
    ) where
        F: FnMut(SegmentId) -> bool,
    {
        self.begin(network.num_segments());
        self.relax(start.index(), 0.0);
        while let Some(Reverse(HeapEntry { dist: d, item })) = self.heap.pop() {
            let seg = SegmentId(item);
            if d > self.tentative(item as usize) {
                continue; // stale heap entry
            }
            self.settled.push(seg);
            if done(seg) {
                return;
            }
            for &next in network.successors(seg) {
                let nd = d + network.segment(next).length_m;
                if nd <= max_distance_m && nd < self.tentative(next.index()) {
                    self.relax(next.index(), nd);
                }
            }
        }
    }

    /// One time-budgeted hop of a bounding pass (the "modified conventional
    /// network expansion" of Section 3.2.2): every segment of `region` is at
    /// arrival 0, entering segment `s` costs `cost_s[s]` seconds (`+∞` where
    /// it is impassable), and every other segment whose earliest arrival is
    /// within `budget_s` is settled. Only the successors of `seeds` (a
    /// subset of `region`) are scanned out of the region. Arrival times are
    /// read like distances ([`DijkstraWorkspace::distance`],
    /// [`DijkstraWorkspace::reached`], which count the region as reached)
    /// until the next run; [`DijkstraWorkspace::settled`] yields only the
    /// segments the hop added, in settling order. Duplicates in `region`
    /// are harmless.
    ///
    /// Traversal cost is charged when *entering* a segment (the expansion
    /// starts at the head of the region's segments, matching the paper's
    /// convention that the query location lies on the start road segment).
    ///
    /// A path's arrival time is the left fold `((0 + c1) + c2) + …` of
    /// non-negative costs, and `a + c` rounds monotonically in `a`, so the
    /// settled arrival of a segment is exactly the minimum fold over all
    /// paths from the region, and prefixes never exceed the final sum
    /// (budget pruning never cuts a valid path). The suffix of a path from
    /// its *last* region member folds from 0 over a subset of its costs, so
    /// it arrives no later: the minimum is always attained by a path that
    /// leaves the region once and never re-enters it. Its first segment is
    /// a region member with a successor outside the region. Seeding every
    /// such member therefore settles bit-for-bit the same set, at the same
    /// arrivals, as seeding the whole region, and a hop costs in
    /// proportion to its seeds and what it adds, not to the region.
    pub fn expand_within_time(
        &mut self,
        network: &RoadNetwork,
        region: &[SegmentId],
        seeds: &[SegmentId],
        budget_s: f64,
        cost_s: &[f64],
    ) {
        self.begin(network.num_segments());
        // Arrival 0 is final (no path undercuts it), so the region is
        // settled up front instead of cycling through the heap.
        for &s in region {
            self.dist[s.index()] = 0.0;
            self.stamp[s.index()] = self.epoch;
        }
        for &s in seeds {
            debug_assert!(self.reached(s), "seed {s} outside the region");
            self.relax_successors(network, s, 0.0, budget_s, cost_s);
        }
        while let Some(Reverse(HeapEntry { dist: t, item })) = self.heap.pop() {
            if t > self.tentative(item as usize) {
                continue; // stale heap entry
            }
            let seg = SegmentId(item);
            self.settled.push(seg);
            self.relax_successors(network, seg, t, budget_s, cost_s);
        }
    }

    /// Offers arrival `t + cost_s[next]` to every successor of `seg`.
    #[inline]
    fn relax_successors(
        &mut self,
        network: &RoadNetwork,
        seg: SegmentId,
        t: f64,
        budget_s: f64,
        cost_s: &[f64],
    ) {
        for &next in network.successors(seg) {
            let idx = next.index();
            let nt = t + cost_s[idx];
            if nt <= budget_s && nt < self.tentative(idx) {
                self.relax(idx, nt);
            }
        }
    }

    /// Distance of `seg` from the start of the most recent run (arrival
    /// time in seconds after [`DijkstraWorkspace::expand_within_time`]), if
    /// reached.
    #[inline]
    pub fn distance(&self, seg: SegmentId) -> Option<f64> {
        let idx = seg.index();
        if idx < self.stamp.len() && self.stamp[idx] == self.epoch {
            Some(self.dist[idx])
        } else {
            None
        }
    }

    /// Returns `true` when `seg` was reached by the most recent run.
    #[inline]
    pub fn reached(&self, seg: SegmentId) -> bool {
        self.distance(seg).is_some()
    }

    /// Segments settled by the most recent run with their distances, in
    /// settling (ascending-distance) order. After
    /// [`DijkstraWorkspace::expand_within_time`], the segments the hop
    /// added to its region.
    pub fn settled(&self) -> impl Iterator<Item = (SegmentId, f64)> + '_ {
        self.settled.iter().map(|&s| (s, self.dist[s.index()]))
    }

    /// Number of segments settled by the most recent run.
    pub fn num_settled(&self) -> usize {
        self.settled.len()
    }
}

thread_local! {
    static THREAD_WORKSPACE: std::cell::RefCell<DijkstraWorkspace> =
        std::cell::RefCell::new(DijkstraWorkspace::new());
}

/// Runs `f` with the calling thread's long-lived [`DijkstraWorkspace`].
///
/// This is how the query hot paths (the ES travel cap, MQMB's per-start
/// ownership distances) get cross-*query* reuse of the dense arrays: the
/// workspace lives for the thread, so after the first query on a thread no
/// Dijkstra run allocates. Must not be called re-entrantly from `f`.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut DijkstraWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

/// Network distances from `start` as a map (compatibility wrapper around
/// [`DijkstraWorkspace`]; hot paths should hold a workspace and use
/// [`DijkstraWorkspace::run`] directly to avoid the per-call allocations).
pub fn segment_distances_from(
    network: &RoadNetwork,
    start: SegmentId,
    max_distance_m: f64,
) -> HashMap<SegmentId, f64> {
    let mut ws = DijkstraWorkspace::new();
    ws.run(network, start, max_distance_m);
    ws.settled().collect()
}

/// Network distance in meters from `from` to `to` (end-of-segment to
/// end-of-segment), or `None` if `to` is not reachable within
/// `max_distance_m`.
pub fn shortest_segment_distance(
    network: &RoadNetwork,
    from: SegmentId,
    to: SegmentId,
    max_distance_m: f64,
) -> Option<f64> {
    let mut ws = DijkstraWorkspace::new();
    ws.run_until(network, from, max_distance_m, |seg| seg == to);
    ws.distance(to)
}

/// Shortest path between two intersections by travel distance. Returns the
/// segment sequence and the total length in meters, or `None` when `to` is
/// unreachable. Used by the taxi simulator to route trips.
pub fn shortest_path_between_nodes(
    network: &RoadNetwork,
    from: NodeId,
    to: NodeId,
) -> Option<(Vec<SegmentId>, f64)> {
    if from == to {
        return Some((Vec::new(), 0.0));
    }
    let n = network.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut via: Vec<Option<SegmentId>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
    dist[from.index()] = 0.0;
    heap.push(Reverse(HeapEntry {
        dist: 0.0,
        item: from.0,
    }));
    while let Some(Reverse(HeapEntry { dist: d, item })) = heap.pop() {
        let node = NodeId(item);
        if node == to {
            break;
        }
        if d > dist[node.index()] {
            continue;
        }
        for &seg_id in network.segments_out_of(node) {
            let seg = network.segment(seg_id);
            let nd = d + seg.length_m;
            if nd < dist[seg.end_node.index()] {
                dist[seg.end_node.index()] = nd;
                via[seg.end_node.index()] = Some(seg_id);
                heap.push(Reverse(HeapEntry {
                    dist: nd,
                    item: seg.end_node.0,
                }));
            }
        }
    }
    if dist[to.index()].is_infinite() {
        return None;
    }
    // Reconstruct the path.
    let mut path = Vec::new();
    let mut node = to;
    while node != from {
        let seg_id = via[node.index()].expect("path reconstruction");
        path.push(seg_id);
        node = network.segment(seg_id).start_node;
    }
    path.reverse();
    Some((path, dist[to.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RawRoad, RoadNetwork};
    use crate::segment::{Direction, RoadClass};
    use streach_geo::{GeoPoint, Polyline};

    /// A 4x4 grid of two-way local streets with 500 m spacing.
    fn grid() -> RoadNetwork {
        let origin = GeoPoint::new(114.0, 22.5);
        let spacing = 500.0;
        let node = |i: i32, j: i32| origin.offset_m(i as f64 * spacing, j as f64 * spacing);
        let mut roads = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                if i + 1 < 4 {
                    roads.push(RawRoad {
                        geometry: Polyline::straight(node(i, j), node(i + 1, j)),
                        class: RoadClass::Local,
                        direction: Direction::TwoWay,
                    });
                }
                if j + 1 < 4 {
                    roads.push(RawRoad {
                        geometry: Polyline::straight(node(i, j), node(i, j + 1)),
                        class: RoadClass::Local,
                        direction: Direction::TwoWay,
                    });
                }
            }
        }
        RoadNetwork::from_roads(&roads)
    }

    fn node_at(net: &RoadNetwork, i: i32, j: i32) -> NodeId {
        let p = GeoPoint::new(114.0, 22.5).offset_m(i as f64 * 500.0, j as f64 * 500.0);
        (0..net.num_nodes() as u32)
            .map(NodeId)
            .min_by(|a, b| {
                net.node_position(*a)
                    .haversine_m(&p)
                    .partial_cmp(&net.node_position(*b).haversine_m(&p))
                    .unwrap()
            })
            .unwrap()
    }

    #[test]
    fn node_to_node_path_follows_manhattan_distance() {
        let net = grid();
        let from = node_at(&net, 0, 0);
        let to = node_at(&net, 3, 2);
        let (path, d) = shortest_path_between_nodes(&net, from, to).unwrap();
        // Manhattan distance: (3 + 2) * 500 = 2500 m.
        assert!((d - 2500.0).abs() < 10.0, "distance {d}");
        assert_eq!(path.len(), 5);
        // The path is connected and starts/ends at the right nodes.
        assert_eq!(net.segment(path[0]).start_node, from);
        assert_eq!(net.segment(*path.last().unwrap()).end_node, to);
        for w in path.windows(2) {
            assert_eq!(net.segment(w[0]).end_node, net.segment(w[1]).start_node);
        }
    }

    #[test]
    fn path_to_self_is_empty() {
        let net = grid();
        let n = node_at(&net, 1, 1);
        let (path, d) = shortest_path_between_nodes(&net, n, n).unwrap();
        assert!(path.is_empty());
        assert_eq!(d, 0.0);
    }

    #[test]
    fn segment_distances_respect_budget() {
        let net = grid();
        let (start, _) = net
            .nearest_segment(&GeoPoint::new(114.0, 22.5).offset_m(250.0, 0.0))
            .unwrap();
        let dist = segment_distances_from(&net, start, 1200.0);
        assert_eq!(dist[&start], 0.0);
        assert!(dist.len() > 1);
        for (&seg, &d) in &dist {
            assert!(d <= 1200.0, "segment {seg} at {d}");
        }
        // A larger budget reaches at least as many segments.
        let bigger = segment_distances_from(&net, start, 3000.0);
        assert!(bigger.len() >= dist.len());
        for (seg, d) in &dist {
            assert!((bigger[seg] - d).abs() < 1e-9);
        }
    }

    #[test]
    fn shortest_segment_distance_matches_distance_map() {
        let net = grid();
        let (start, _) = net
            .nearest_segment(&GeoPoint::new(114.0, 22.5).offset_m(250.0, 0.0))
            .unwrap();
        let dist = segment_distances_from(&net, start, 4000.0);
        for (&seg, &d) in dist.iter().take(20) {
            let single = shortest_segment_distance(&net, start, seg, 4000.0).unwrap();
            assert!((single - d).abs() < 1e-9);
        }
        assert_eq!(
            shortest_segment_distance(&net, start, start, 100.0),
            Some(0.0)
        );
    }

    #[test]
    fn unreachable_returns_none() {
        // Two disconnected one-way roads.
        let a = GeoPoint::new(114.0, 22.5);
        let roads = vec![
            RawRoad {
                geometry: Polyline::straight(a, a.offset_m(300.0, 0.0)),
                class: RoadClass::Local,
                direction: Direction::OneWay,
            },
            RawRoad {
                geometry: Polyline::straight(a.offset_m(5000.0, 0.0), a.offset_m(5300.0, 0.0)),
                class: RoadClass::Local,
                direction: Direction::OneWay,
            },
        ];
        let net = RoadNetwork::from_roads(&roads);
        assert_eq!(
            shortest_segment_distance(&net, SegmentId(0), SegmentId(1), 1e9),
            None
        );
        assert!(shortest_path_between_nodes(&net, NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn workspace_reuse_across_runs_matches_fresh_runs() {
        let net = grid();
        let mut ws = DijkstraWorkspace::new();
        let starts: Vec<SegmentId> = net.segment_ids().take(8).collect();
        for &start in &starts {
            ws.run(&net, start, 1700.0);
            let fresh = segment_distances_from(&net, start, 1700.0);
            assert_eq!(ws.num_settled(), fresh.len(), "start {start}");
            for (seg, d) in ws.settled() {
                assert!((fresh[&seg] - d).abs() < 1e-9, "start {start} seg {seg}");
            }
            // Segments beyond the budget are reported unreached.
            for seg in net.segment_ids() {
                assert_eq!(
                    ws.reached(seg),
                    fresh.contains_key(&seg),
                    "start {start} seg {seg}"
                );
            }
        }
    }

    #[test]
    fn settled_order_is_ascending_distance() {
        let net = grid();
        let mut ws = DijkstraWorkspace::new();
        ws.run(&net, SegmentId(0), 5000.0);
        let dists: Vec<f64> = ws.settled().map(|(_, d)| d).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Regression for the NaN-unsound `Ord` of the old `Cost` newtype: a
    /// chain of degenerate (sub-meter, effectively zero-length) segments
    /// produces many exactly-tied priorities; the heap order must stay a
    /// total order and distances must match a fresh brute-force run.
    #[test]
    fn degenerate_zero_length_segments_keep_heap_order_sound() {
        let a = GeoPoint::new(114.0, 22.5);
        let mut roads = Vec::new();
        // A star of 6 one-way micro-segments (0.3 m) all tied at ~0 cost,
        // followed by a normal road out of the cluster.
        let mut p = a;
        for _ in 0..6 {
            let q = p.offset_m(0.3, 0.0);
            roads.push(RawRoad {
                geometry: Polyline::straight(p, q),
                class: RoadClass::Local,
                direction: Direction::TwoWay,
            });
            p = q;
        }
        roads.push(RawRoad {
            geometry: Polyline::straight(p, p.offset_m(400.0, 0.0)),
            class: RoadClass::Local,
            direction: Direction::OneWay,
        });
        let net = RoadNetwork::from_roads(&roads);
        let mut ws = DijkstraWorkspace::new();
        ws.run(&net, SegmentId(0), 1e9);
        // Every segment the chain reaches is settled exactly once, with
        // finite, monotone distances.
        let mut seen = std::collections::HashSet::new();
        let mut last = 0.0f64;
        for (seg, d) in ws.settled() {
            assert!(seen.insert(seg), "segment {seg} settled twice");
            assert!(d.is_finite());
            assert!(d >= last, "settling order went backwards");
            last = d;
        }
        assert!(ws.num_settled() >= 7, "settled {}", ws.num_settled());
    }

    /// `total_cmp` heap entries are totally ordered even for NaN priorities
    /// (the old `unwrap_or(Equal)` fallback violated transitivity).
    #[test]
    fn heap_entry_total_order_with_nan() {
        let nan = HeapEntry {
            dist: f64::NAN,
            item: 1,
        };
        let one = HeapEntry { dist: 1.0, item: 2 };
        let inf = HeapEntry {
            dist: f64::INFINITY,
            item: 3,
        };
        // total_cmp places +NaN above +inf; what matters is consistency.
        assert_eq!(nan.cmp(&nan), std::cmp::Ordering::Equal);
        assert_eq!(nan.cmp(&one), std::cmp::Ordering::Greater);
        assert_eq!(one.cmp(&nan), std::cmp::Ordering::Less);
        assert_eq!(inf.cmp(&nan), std::cmp::Ordering::Less);
        // Antisymmetry + transitivity over a mixed set: sorting must not panic
        // and must be idempotent.
        let mut v = vec![
            nan,
            one,
            inf,
            HeapEntry {
                dist: f64::NAN,
                item: 0,
            },
        ];
        v.sort();
        let w = {
            let mut w = v.clone();
            w.sort();
            w
        };
        // NaN != NaN under PartialEq, so compare through the total order.
        assert!(v
            .iter()
            .zip(&w)
            .all(|(a, b)| a.cmp(b) == std::cmp::Ordering::Equal));
    }

    /// A straight chain of ten 500 m local segments.
    fn chain() -> RoadNetwork {
        let origin = GeoPoint::new(114.0, 22.5);
        let mut roads = Vec::new();
        for i in 0..10 {
            let a = origin.offset_m(i as f64 * 500.0, 0.0);
            let b = origin.offset_m((i + 1) as f64 * 500.0, 0.0);
            roads.push(RawRoad {
                geometry: Polyline::straight(a, b),
                class: RoadClass::Local,
                direction: Direction::OneWay,
            });
        }
        RoadNetwork::from_roads(&roads)
    }

    fn arrival(ws: &DijkstraWorkspace, i: u32) -> f64 {
        ws.distance(SegmentId(i)).expect("segment reached")
    }

    /// A hop seeded from the whole region, at per-segment speeds (m/s).
    fn hop(
        ws: &mut DijkstraWorkspace,
        net: &RoadNetwork,
        region: &[SegmentId],
        budget_s: f64,
        speed_ms: impl Fn(SegmentId) -> f64,
    ) {
        let cost: Vec<f64> = net
            .segment_ids()
            .map(|s| match speed_ms(s) {
                v if v > 0.0 => net.segment(s).length_m / v,
                _ => f64::INFINITY,
            })
            .collect();
        ws.expand_within_time(net, region, region, budget_s, &cost);
    }

    #[test]
    fn expansion_respects_time_budget() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        // 10 m/s on every segment: each 500 m segment costs 50 s.
        hop(&mut ws, &net, &[SegmentId(0)], 120.0, |_| 10.0);
        // Two segments past the start (50 s, 100 s); the fourth would arrive
        // at 150 s.
        assert_eq!(ws.num_settled(), 2);
        assert!(ws.reached(SegmentId(0)));
        assert!(ws.reached(SegmentId(1)));
        assert!(ws.reached(SegmentId(2)));
        assert!(!ws.reached(SegmentId(3)));
        assert_eq!(arrival(&ws, 0), 0.0);
        assert!((arrival(&ws, 2) - 100.0).abs() < 1.0);
    }

    #[test]
    fn faster_speed_reaches_farther() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        hop(&mut ws, &net, &[SegmentId(0)], 200.0, |_| 5.0);
        let slow: Vec<SegmentId> = ws.settled().map(|(seg, _)| seg).collect();
        hop(&mut ws, &net, &[SegmentId(0)], 200.0, |_| 20.0);
        assert!(ws.num_settled() > slow.len());
        // Every segment reached slowly is also reached quickly (monotonicity).
        for seg in slow {
            assert!(ws.reached(seg));
        }
    }

    #[test]
    fn zero_speed_blocks_expansion() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        // Segment 2 is impassable.
        hop(&mut ws, &net, &[SegmentId(0)], 1e6, |s| {
            if s == SegmentId(2) {
                0.0
            } else {
                10.0
            }
        });
        assert!(ws.reached(SegmentId(1)));
        assert!(!ws.reached(SegmentId(2)));
        assert!(!ws.reached(SegmentId(5)));
    }

    #[test]
    fn multiple_starts_take_minimum_arrival() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        // A duplicated source changes nothing.
        let sources = [SegmentId(0), SegmentId(5), SegmentId(0)];
        hop(&mut ws, &net, &sources, 60.0, |_| 10.0);
        assert_eq!(ws.num_settled(), 2);
        assert!(ws.reached(SegmentId(6)));
        assert!((arrival(&ws, 6) - 50.0).abs() < 1.0);
        assert!(ws.reached(SegmentId(1)));
        assert!(!ws.reached(SegmentId(3)));
        assert_eq!(arrival(&ws, 5), 0.0);
    }

    #[test]
    fn zero_budget_reaches_only_starts() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        hop(&mut ws, &net, &[SegmentId(3)], 0.0, |_| 10.0);
        assert_eq!(ws.num_settled(), 0);
        assert!(ws.reached(SegmentId(3)));
    }

    /// Seeding only the region members with a successor outside it (here
    /// the last of a run of chain segments) adds what seeding all of them
    /// adds, at the same arrivals.
    #[test]
    fn seeding_the_region_boundary_adds_what_seeding_all_of_it_adds() {
        let net = chain();
        let region: Vec<SegmentId> = (0..4).map(SegmentId).collect();
        let cost: Vec<f64> = net.segments().iter().map(|s| s.length_m / 9.0).collect();
        let mut ws = DijkstraWorkspace::new();
        ws.expand_within_time(&net, &region, &region, 150.0, &cost);
        let all: Vec<(SegmentId, u64)> = ws.settled().map(|(s, t)| (s, t.to_bits())).collect();
        ws.expand_within_time(&net, &region, &[SegmentId(3)], 150.0, &cost);
        let boundary: Vec<(SegmentId, u64)> = ws.settled().map(|(s, t)| (s, t.to_bits())).collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all, boundary);
        assert!(region.iter().all(|&s| ws.reached(s)));
        // No seed, nothing added.
        ws.expand_within_time(&net, &region, &[], 150.0, &cost);
        assert_eq!(ws.num_settled(), 0);
    }

    #[test]
    fn arrival_times_are_monotone_along_the_chain() {
        let net = chain();
        let mut ws = DijkstraWorkspace::new();
        hop(&mut ws, &net, &[SegmentId(0)], 1e6, |_| 12.0);
        assert_eq!(ws.num_settled(), 9);
        for i in 1..10u32 {
            assert!(
                arrival(&ws, i) > arrival(&ws, i - 1),
                "arrival times must increase along the chain"
            );
        }
    }
}
