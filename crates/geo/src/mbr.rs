//! Minimum bounding rectangles in longitude/latitude space.

use crate::point::GeoPoint;

/// An axis-aligned minimum bounding rectangle (MBR) in lon/lat space.
///
/// Every road segment carries an MBR describing its spatial range (see the
/// *Road Network* definition in the paper), and the R-tree in
/// `streach-spatial` is built over these MBRs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbr {
    /// Western boundary (minimum longitude).
    pub min_lon: f64,
    /// Southern boundary (minimum latitude).
    pub min_lat: f64,
    /// Eastern boundary (maximum longitude).
    pub max_lon: f64,
    /// Northern boundary (maximum latitude).
    pub max_lat: f64,
}

impl Mbr {
    /// An "empty" rectangle that acts as the identity for [`Mbr::union`]:
    /// expanding it with any point yields the MBR of that point.
    pub const EMPTY: Mbr = Mbr {
        min_lon: f64::INFINITY,
        min_lat: f64::INFINITY,
        max_lon: f64::NEG_INFINITY,
        max_lat: f64::NEG_INFINITY,
    };

    /// Creates an MBR from explicit bounds. Bounds are reordered if given
    /// backwards so that the result is always well formed.
    pub fn new(min_lon: f64, min_lat: f64, max_lon: f64, max_lat: f64) -> Self {
        Self {
            min_lon: min_lon.min(max_lon),
            min_lat: min_lat.min(max_lat),
            max_lon: min_lon.max(max_lon),
            max_lat: min_lat.max(max_lat),
        }
    }

    /// The degenerate MBR of a single point.
    pub fn of_point(p: &GeoPoint) -> Self {
        Self::new(p.lon, p.lat, p.lon, p.lat)
    }

    /// Builds the MBR of an iterator of points. Returns [`Mbr::EMPTY`] when
    /// the iterator is empty.
    pub fn of_points<'a, I: IntoIterator<Item = &'a GeoPoint>>(points: I) -> Self {
        let mut mbr = Self::EMPTY;
        for p in points {
            mbr.expand_point(p);
        }
        mbr
    }

    /// Returns `true` if this is the empty rectangle.
    pub fn is_empty(&self) -> bool {
        self.min_lon > self.max_lon || self.min_lat > self.max_lat
    }

    /// Grows the rectangle to include the point `p`.
    pub fn expand_point(&mut self, p: &GeoPoint) {
        self.min_lon = self.min_lon.min(p.lon);
        self.min_lat = self.min_lat.min(p.lat);
        self.max_lon = self.max_lon.max(p.lon);
        self.max_lat = self.max_lat.max(p.lat);
    }

    /// Grows the rectangle to include another rectangle.
    pub fn expand(&mut self, other: &Mbr) {
        self.min_lon = self.min_lon.min(other.min_lon);
        self.min_lat = self.min_lat.min(other.min_lat);
        self.max_lon = self.max_lon.max(other.max_lon);
        self.max_lat = self.max_lat.max(other.max_lat);
    }

    /// The union of two rectangles.
    pub fn union(&self, other: &Mbr) -> Mbr {
        let mut m = *self;
        m.expand(other);
        m
    }

    /// Returns `true` if the point lies inside or on the boundary.
    pub fn contains_point(&self, p: &GeoPoint) -> bool {
        p.lon >= self.min_lon
            && p.lon <= self.max_lon
            && p.lat >= self.min_lat
            && p.lat <= self.max_lat
    }

    /// Returns `true` if `other` is fully contained in `self`.
    pub fn contains(&self, other: &Mbr) -> bool {
        other.min_lon >= self.min_lon
            && other.max_lon <= self.max_lon
            && other.min_lat >= self.min_lat
            && other.max_lat <= self.max_lat
    }

    /// Returns `true` if the two rectangles overlap (including touching).
    pub fn intersects(&self, other: &Mbr) -> bool {
        !(other.min_lon > self.max_lon
            || other.max_lon < self.min_lon
            || other.min_lat > self.max_lat
            || other.max_lat < self.min_lat)
    }

    /// Area in squared degrees (used for R-tree node split heuristics, where
    /// only relative comparisons matter).
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.max_lon - self.min_lon) * (self.max_lat - self.min_lat)
        }
    }

    /// Half-perimeter ("margin") in degrees, another R-tree heuristic.
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.max_lon - self.min_lon) + (self.max_lat - self.min_lat)
        }
    }

    /// Area of the intersection of two rectangles, zero if disjoint.
    pub fn intersection_area(&self, other: &Mbr) -> f64 {
        let w = (self.max_lon.min(other.max_lon) - self.min_lon.max(other.min_lon)).max(0.0);
        let h = (self.max_lat.min(other.max_lat) - self.min_lat.max(other.min_lat)).max(0.0);
        w * h
    }

    /// How much the area grows if `other` were merged into `self`.
    pub fn enlargement(&self, other: &Mbr) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Center point of the rectangle.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new(
            (self.min_lon + self.max_lon) / 2.0,
            (self.min_lat + self.max_lat) / 2.0,
        )
    }

    /// Returns a copy grown by `pad_deg` degrees on every side.
    pub fn padded(&self, pad_deg: f64) -> Mbr {
        Mbr {
            min_lon: self.min_lon - pad_deg,
            min_lat: self.min_lat - pad_deg,
            max_lon: self.max_lon + pad_deg,
            max_lat: self.max_lat + pad_deg,
        }
    }

    /// Minimum distance in degrees-squared from a point to the rectangle
    /// (zero when the point is inside). Used to order R-tree nearest
    /// neighbour candidates; only relative comparisons matter.
    pub fn min_dist2_deg(&self, p: &GeoPoint) -> f64 {
        let dx = if p.lon < self.min_lon {
            self.min_lon - p.lon
        } else if p.lon > self.max_lon {
            p.lon - self.max_lon
        } else {
            0.0
        };
        let dy = if p.lat < self.min_lat {
            self.min_lat - p.lat
        } else if p.lat > self.max_lat {
            p.lat - self.max_lat
        } else {
            0.0
        };
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Mbr {
        Mbr::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn new_reorders_bounds() {
        let m = Mbr::new(2.0, 3.0, 1.0, 1.0);
        assert_eq!(m, Mbr::new(1.0, 1.0, 2.0, 3.0));
    }

    #[test]
    fn empty_identity_for_union() {
        let m = unit();
        assert_eq!(Mbr::EMPTY.union(&m), m);
        assert!(Mbr::EMPTY.is_empty());
        assert!(!m.is_empty());
        assert_eq!(Mbr::EMPTY.area(), 0.0);
        assert_eq!(Mbr::EMPTY.margin(), 0.0);
    }

    #[test]
    fn of_points_covers_all() {
        let pts = [
            GeoPoint::new(114.0, 22.5),
            GeoPoint::new(114.2, 22.4),
            GeoPoint::new(113.9, 22.7),
        ];
        let m = Mbr::of_points(pts.iter());
        for p in &pts {
            assert!(m.contains_point(p));
        }
        assert_eq!(m.min_lon, 113.9);
        assert_eq!(m.max_lat, 22.7);
    }

    #[test]
    fn contains_and_intersects() {
        let outer = unit();
        let inner = Mbr::new(0.25, 0.25, 0.75, 0.75);
        let overlapping = Mbr::new(0.5, 0.5, 1.5, 1.5);
        let disjoint = Mbr::new(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.intersects(&inner));
        assert!(outer.intersects(&overlapping));
        assert!(!outer.intersects(&disjoint));
    }

    #[test]
    fn touching_rectangles_intersect() {
        let a = unit();
        let b = Mbr::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn area_margin_enlargement() {
        let a = unit();
        assert_eq!(a.area(), 1.0);
        assert_eq!(a.margin(), 2.0);
        let b = Mbr::new(1.0, 0.0, 2.0, 1.0);
        assert_eq!(a.enlargement(&b), 1.0);
        assert_eq!(a.intersection_area(&b), 0.0);
        let c = Mbr::new(0.5, 0.0, 1.5, 1.0);
        assert!((a.intersection_area(&c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn center_and_padding() {
        let m = unit();
        assert_eq!(m.center(), GeoPoint::new(0.5, 0.5));
        let p = m.padded(0.1);
        assert!(p.contains(&m));
        assert!((p.area() - 1.44).abs() < 1e-12);
    }

    #[test]
    fn min_dist_zero_inside_positive_outside() {
        let m = unit();
        assert_eq!(m.min_dist2_deg(&GeoPoint::new(0.5, 0.5)), 0.0);
        assert!(m.min_dist2_deg(&GeoPoint::new(2.0, 0.5)) > 0.0);
        assert_eq!(m.min_dist2_deg(&GeoPoint::new(2.0, 0.5)), 1.0);
        assert_eq!(m.min_dist2_deg(&GeoPoint::new(2.0, 2.0)), 2.0);
    }
}
