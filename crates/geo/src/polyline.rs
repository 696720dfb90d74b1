//! Polylines describing road-segment shapes.

use crate::distance::{equirectangular_m, point_segment_projection_m};
use crate::mbr::Mbr;
use crate::point::GeoPoint;

/// A polyline: an ordered list of at least two points describing the shape of
/// a road segment ("a list of intermediate points (2 terminal points at the
/// beginning and the end)" in the paper's road-network definition).
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    points: Vec<GeoPoint>,
}

/// Result of projecting a point onto a polyline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// Distance in meters from the query point to its closest point on the
    /// polyline.
    pub distance_m: f64,
    /// The closest point on the polyline.
    pub point: GeoPoint,
    /// Distance in meters from the start of the polyline to the closest
    /// point, measured along the polyline.
    pub offset_m: f64,
}

impl Polyline {
    /// Creates a polyline. Panics if fewer than two points are given.
    pub fn new(points: Vec<GeoPoint>) -> Self {
        assert!(points.len() >= 2, "a polyline needs at least two points");
        Self { points }
    }

    /// A straight two-point polyline.
    pub fn straight(a: GeoPoint, b: GeoPoint) -> Self {
        Self::new(vec![a, b])
    }

    /// The points of the polyline.
    pub fn points(&self) -> &[GeoPoint] {
        &self.points
    }

    /// First point.
    pub fn start(&self) -> GeoPoint {
        self.points[0]
    }

    /// Last point.
    pub fn end(&self) -> GeoPoint {
        *self.points.last().expect("non-empty")
    }

    /// Total length of the polyline in meters.
    pub fn length_m(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| equirectangular_m(&w[0], &w[1]))
            .sum()
    }

    /// Bounding rectangle of the polyline.
    pub fn mbr(&self) -> Mbr {
        Mbr::of_points(self.points.iter())
    }

    /// A copy of the polyline with the point order reversed (used to derive
    /// the opposite direction of a two-way road).
    pub fn reversed(&self) -> Polyline {
        let mut pts = self.points.clone();
        pts.reverse();
        Polyline::new(pts)
    }

    /// The point located `offset_m` meters from the start, measured along
    /// the polyline. Offsets beyond the length clamp to the end point.
    pub fn point_at_offset(&self, offset_m: f64) -> GeoPoint {
        if offset_m <= 0.0 {
            return self.start();
        }
        let mut remaining = offset_m;
        for w in self.points.windows(2) {
            let seg_len = equirectangular_m(&w[0], &w[1]);
            if remaining <= seg_len {
                let t = if seg_len <= f64::EPSILON {
                    0.0
                } else {
                    remaining / seg_len
                };
                return w[0].lerp(&w[1], t);
            }
            remaining -= seg_len;
        }
        self.end()
    }

    /// The point at a fraction `t ∈ [0, 1]` of the total length.
    pub fn point_at_fraction(&self, t: f64) -> GeoPoint {
        self.point_at_offset(self.length_m() * t.clamp(0.0, 1.0))
    }

    /// Projects `p` onto the polyline, returning the closest point, the
    /// distance to it and its offset along the polyline.
    pub fn project(&self, p: &GeoPoint) -> Projection {
        let mut best = Projection {
            distance_m: f64::INFINITY,
            point: self.start(),
            offset_m: 0.0,
        };
        let mut walked = 0.0;
        for w in self.points.windows(2) {
            let seg_len = equirectangular_m(&w[0], &w[1]);
            let (d, t) = point_segment_projection_m(p, &w[0], &w[1]);
            if d < best.distance_m {
                best = Projection {
                    distance_m: d,
                    point: w[0].lerp(&w[1], t),
                    offset_m: walked + seg_len * t,
                };
            }
            walked += seg_len;
        }
        best
    }

    /// Splits the polyline into consecutive pieces, each at most
    /// `max_piece_m` meters long. This is the geometric core of the paper's
    /// *road re-segmentation* pre-processing step (default granularity
    /// 500 m): long roads (e.g. highways) are chopped into pieces by adding
    /// new intersection points.
    ///
    /// Returns at least one piece; pieces keep the original intermediate
    /// points and add interpolated cut points.
    pub fn split_by_length(&self, max_piece_m: f64) -> Vec<Polyline> {
        assert!(max_piece_m > 0.0, "granularity must be positive");
        let total = self.length_m();
        if total <= max_piece_m {
            return vec![self.clone()];
        }
        // Use equal-length pieces so no piece exceeds the granularity and the
        // last piece is not degenerate.
        let n_pieces = (total / max_piece_m).ceil() as usize;
        let piece_len = total / n_pieces as f64;

        let mut pieces = Vec::with_capacity(n_pieces);
        let mut current = vec![self.start()];
        let mut walked_in_piece = 0.0;
        for w in self.points.windows(2) {
            let mut seg_start = w[0];
            let seg_end = w[1];
            let mut seg_len = equirectangular_m(&seg_start, &seg_end);
            // Consume the segment, cutting whenever we hit the piece length.
            while walked_in_piece + seg_len >= piece_len - 1e-9 && pieces.len() + 1 < n_pieces {
                let need = piece_len - walked_in_piece;
                let t = if seg_len <= f64::EPSILON {
                    1.0
                } else {
                    need / seg_len
                };
                let cut = seg_start.lerp(&seg_end, t);
                current.push(cut);
                pieces.push(Polyline::new(std::mem::replace(&mut current, vec![cut])));
                seg_start = cut;
                seg_len -= need;
                walked_in_piece = 0.0;
            }
            if seg_len > f64::EPSILON {
                current.push(seg_end);
                walked_in_piece += seg_len;
            } else if current.last() != Some(&seg_end)
                && equirectangular_m(current.last().unwrap(), &seg_end) > 1e-9
            {
                current.push(seg_end);
            }
        }
        if current.len() >= 2 {
            pieces.push(Polyline::new(current));
        }
        pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        let a = GeoPoint::new(114.0, 22.5);
        let b = a.offset_m(1000.0, 0.0);
        let c = b.offset_m(0.0, 1000.0);
        Polyline::new(vec![a, b, c])
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn rejects_single_point() {
        let _ = Polyline::new(vec![GeoPoint::new(0.0, 0.0)]);
    }

    #[test]
    fn length_of_l_shape() {
        let p = l_shape();
        assert!((p.length_m() - 2000.0).abs() < 5.0, "len {}", p.length_m());
    }

    #[test]
    fn start_end_and_reverse() {
        let p = l_shape();
        let r = p.reversed();
        assert_eq!(p.start(), r.end());
        assert_eq!(p.end(), r.start());
        assert!((p.length_m() - r.length_m()).abs() < 1e-6);
    }

    #[test]
    fn point_at_offset_clamps() {
        let p = l_shape();
        assert_eq!(p.point_at_offset(-5.0), p.start());
        assert_eq!(p.point_at_offset(1e9), p.end());
        let mid = p.point_at_offset(1000.0);
        // 1000 m along the L-shape is the corner.
        assert!(mid.haversine_m(&p.points()[1]) < 5.0);
    }

    #[test]
    fn point_at_fraction_midpoint() {
        let a = GeoPoint::new(114.0, 22.5);
        let b = a.offset_m(800.0, 0.0);
        let p = Polyline::straight(a, b);
        let mid = p.point_at_fraction(0.5);
        assert!(mid.haversine_m(&a.offset_m(400.0, 0.0)) < 1.0);
    }

    #[test]
    fn projection_onto_l_shape() {
        let p = l_shape();
        // A point 300m east, 50m north of the start projects onto the first leg.
        let q = p.start().offset_m(300.0, 50.0);
        let proj = p.project(&q);
        assert!(
            (proj.distance_m - 50.0).abs() < 2.0,
            "d {}",
            proj.distance_m
        );
        assert!(
            (proj.offset_m - 300.0).abs() < 2.0,
            "offset {}",
            proj.offset_m
        );
        // A point near the far end projects onto the second leg with offset ~ 1900.
        let q2 = p.end().offset_m(40.0, -100.0);
        let proj2 = p.project(&q2);
        assert!(
            (proj2.offset_m - 1900.0).abs() < 5.0,
            "offset {}",
            proj2.offset_m
        );
        assert!((proj2.distance_m - 40.0).abs() < 2.0);
    }

    #[test]
    fn split_short_polyline_is_identity() {
        let p = l_shape();
        let pieces = p.split_by_length(5000.0);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0], p);
    }

    #[test]
    fn split_preserves_total_length_and_granularity() {
        let p = l_shape(); // ~2000 m
        let pieces = p.split_by_length(500.0);
        assert_eq!(pieces.len(), 4);
        let total: f64 = pieces.iter().map(|x| x.length_m()).sum();
        assert!((total - p.length_m()).abs() < 1.0, "total {total}");
        for piece in &pieces {
            assert!(piece.length_m() <= 500.0 + 1.0);
            assert!(piece.length_m() > 100.0);
        }
        // Pieces are contiguous.
        for w in pieces.windows(2) {
            assert!(w[0].end().haversine_m(&w[1].start()) < 1e-6);
        }
        assert_eq!(pieces[0].start(), p.start());
        assert_eq!(pieces.last().unwrap().end(), p.end());
    }

    #[test]
    fn split_long_straight_road() {
        let a = GeoPoint::new(114.0, 22.5);
        let b = a.offset_m(10_000.0, 0.0);
        let road = Polyline::straight(a, b);
        let pieces = road.split_by_length(500.0);
        let expected = (road.length_m() / 500.0).ceil() as usize;
        assert_eq!(pieces.len(), expected);
        let nominal = road.length_m() / expected as f64;
        for piece in &pieces {
            assert!(
                piece.length_m() <= 505.0,
                "piece too long: {}",
                piece.length_m()
            );
            assert!((piece.length_m() - nominal).abs() < 5.0);
        }
    }

    #[test]
    fn mbr_covers_polyline() {
        let p = l_shape();
        let m = p.mbr();
        for pt in p.points() {
            assert!(m.contains_point(pt));
        }
    }
}
