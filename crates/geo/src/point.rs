//! Longitude/latitude points.

use crate::distance::{equirectangular_m, haversine_m};

/// A WGS-84 point expressed as degrees of longitude and latitude.
///
/// The order of the fields follows the trajectory record layout of the paper
/// (`longitude`, `latitude`), and all distance helpers return meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Longitude in degrees, positive east.
    pub lon: f64,
    /// Latitude in degrees, positive north.
    pub lat: f64,
}

impl GeoPoint {
    /// Creates a new point from a longitude and latitude in degrees.
    #[inline]
    pub fn new(lon: f64, lat: f64) -> Self {
        Self { lon, lat }
    }

    /// Great-circle (haversine) distance to `other`, in meters.
    #[inline]
    pub fn haversine_m(&self, other: &GeoPoint) -> f64 {
        haversine_m(self, other)
    }

    /// Fast equirectangular approximation of the distance to `other`, in
    /// meters. Adequate at city scale (the error is well below GPS noise).
    #[inline]
    pub fn fast_distance_m(&self, other: &GeoPoint) -> f64 {
        equirectangular_m(self, other)
    }

    /// Linear interpolation between `self` and `other`.
    ///
    /// `t = 0.0` yields `self`, `t = 1.0` yields `other`. Values outside
    /// `[0, 1]` extrapolate along the same straight (lon/lat) line.
    #[inline]
    pub fn lerp(&self, other: &GeoPoint, t: f64) -> GeoPoint {
        GeoPoint::new(
            self.lon + (other.lon - self.lon) * t,
            self.lat + (other.lat - self.lat) * t,
        )
    }

    /// Midpoint between the two points (in lon/lat space).
    #[inline]
    pub fn midpoint(&self, other: &GeoPoint) -> GeoPoint {
        self.lerp(other, 0.5)
    }

    /// Returns a point displaced by `dx_m` meters east and `dy_m` meters
    /// north of `self`, using a local tangent-plane approximation.
    pub fn offset_m(&self, dx_m: f64, dy_m: f64) -> GeoPoint {
        let lat_rad = self.lat.to_radians();
        let dlat = dy_m / crate::EARTH_RADIUS_M;
        let dlon = dx_m / (crate::EARTH_RADIUS_M * lat_rad.cos());
        GeoPoint::new(self.lon + dlon.to_degrees(), self.lat + dlat.to_degrees())
    }

    /// Returns `true` if both coordinates are finite numbers.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.lon.is_finite() && self.lat.is_finite()
    }
}

impl From<(f64, f64)> for GeoPoint {
    /// Converts a `(lon, lat)` tuple into a point.
    fn from((lon, lat): (f64, f64)) -> Self {
        GeoPoint::new(lon, lat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shenzhen_center() -> GeoPoint {
        // Roughly the query location used throughout the paper's evaluation.
        GeoPoint::new(114.0550, 22.5311)
    }

    #[test]
    fn lerp_endpoints() {
        let a = GeoPoint::new(114.0, 22.5);
        let b = GeoPoint::new(114.1, 22.6);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.lon - 114.05).abs() < 1e-12);
        assert!((mid.lat - 22.55).abs() < 1e-12);
    }

    #[test]
    fn midpoint_matches_half_lerp() {
        let a = GeoPoint::new(113.9, 22.4);
        let b = GeoPoint::new(114.2, 22.7);
        assert_eq!(a.midpoint(&b), a.lerp(&b, 0.5));
    }

    #[test]
    fn offset_round_trip_distance() {
        let p = shenzhen_center();
        let q = p.offset_m(500.0, 0.0);
        let d = p.haversine_m(&q);
        assert!((d - 500.0).abs() < 1.0, "offset east by 500m measured {d}");
        let r = p.offset_m(0.0, -1200.0);
        let d = p.haversine_m(&r);
        assert!(
            (d - 1200.0).abs() < 2.0,
            "offset south by 1200m measured {d}"
        );
    }

    #[test]
    fn from_tuple() {
        let p: GeoPoint = (114.0, 22.5).into();
        assert_eq!(p, GeoPoint::new(114.0, 22.5));
    }

    #[test]
    fn finite_check() {
        assert!(GeoPoint::new(1.0, 2.0).is_finite());
        assert!(!GeoPoint::new(f64::NAN, 2.0).is_finite());
        assert!(!GeoPoint::new(1.0, f64::INFINITY).is_finite());
    }
}
