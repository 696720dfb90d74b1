//! Self-contained wire form of a road network.
//!
//! A replica bootstrapping from shipped artifacts alone needs the road
//! network without access to the original map files, so the snapshot
//! container can carry an optional `road_network` section encoded here.
//!
//! The encoding walks the *primary* segments (a one-way segment, or the
//! forward direction of a two-way pair — [`RoadNetwork::from_roads`] pushes
//! forward then backward consecutively, so the primary is the one whose
//! twin has the higher id) in id order and stores each as the [`RawRoad`]
//! it was built from: polyline points as IEEE-754 bit patterns, class and
//! direction as single bytes. Feeding the decoded roads back through
//! `from_roads` replays the exact same node interning and segment id
//! assignment, so the decoded network is bit-identical to the original —
//! `network_fingerprint` in the snapshot layer pins this.

use streach_geo::{GeoPoint, Polyline};

use crate::graph::{RawRoad, RoadNetwork};
use crate::segment::{Direction, RoadClass};

const CODEC_VERSION: u8 = 1;

/// Encoded size of one polyline point: two `f64` bit patterns.
const POINT_LEN: usize = 16;
/// Smallest encoded road: class, direction, point count and two points.
const MIN_ROAD_LEN: usize = 1 + 1 + 4 + 2 * POINT_LEN;

fn class_to_byte(class: RoadClass) -> u8 {
    match class {
        RoadClass::Highway => 0,
        RoadClass::Primary => 1,
        RoadClass::Secondary => 2,
        RoadClass::Local => 3,
    }
}

fn class_from_byte(byte: u8) -> Option<RoadClass> {
    Some(match byte {
        0 => RoadClass::Highway,
        1 => RoadClass::Primary,
        2 => RoadClass::Secondary,
        3 => RoadClass::Local,
        _ => return None,
    })
}

/// Serializes `network` so [`decode_network`] can rebuild it bit-identically.
pub fn encode_network(network: &RoadNetwork) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(CODEC_VERSION);
    let primaries: Vec<_> = network
        .segment_ids()
        .filter(|&id| {
            let seg = network.segment(id);
            seg.twin.is_none() || seg.twin > Some(id)
        })
        .collect();
    out.extend_from_slice(&(primaries.len() as u32).to_le_bytes());
    for id in primaries {
        let seg = network.segment(id);
        out.push(class_to_byte(seg.class));
        out.push(match seg.direction {
            Direction::OneWay => 0,
            Direction::TwoWay => 1,
        });
        let points = seg.geometry.points();
        out.extend_from_slice(&(points.len() as u32).to_le_bytes());
        for p in points {
            out.extend_from_slice(&p.lon.to_bits().to_le_bytes());
            out.extend_from_slice(&p.lat.to_bits().to_le_bytes());
        }
    }
    out
}

/// Rebuilds a road network encoded by [`encode_network`]. Returns `None` on
/// a truncated buffer, unknown version, or invalid enum byte. The road and
/// point counts are untrusted until the bytes behind them are read, so no
/// pre-allocation exceeds what the remaining buffer could hold.
pub fn decode_network(bytes: &[u8]) -> Option<RoadNetwork> {
    let mut cursor = 0usize;
    let take = |cursor: &mut usize, n: usize| -> Option<&[u8]> {
        let slice = bytes.get(*cursor..*cursor + n)?;
        *cursor += n;
        Some(slice)
    };
    if *take(&mut cursor, 1)?.first()? != CODEC_VERSION {
        return None;
    }
    let num_roads = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().ok()?) as usize;
    let mut roads = Vec::with_capacity(num_roads.min((bytes.len() - cursor) / MIN_ROAD_LEN));
    for _ in 0..num_roads {
        let class = class_from_byte(take(&mut cursor, 1)?[0])?;
        let direction = match take(&mut cursor, 1)?[0] {
            0 => Direction::OneWay,
            1 => Direction::TwoWay,
            _ => return None,
        };
        let num_points = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().ok()?) as usize;
        if num_points < 2 {
            return None;
        }
        let mut points = Vec::with_capacity(num_points.min((bytes.len() - cursor) / POINT_LEN));
        for _ in 0..num_points {
            let lon = f64::from_bits(u64::from_le_bytes(take(&mut cursor, 8)?.try_into().ok()?));
            let lat = f64::from_bits(u64::from_le_bytes(take(&mut cursor, 8)?.try_into().ok()?));
            points.push(GeoPoint::new(lon, lat));
        }
        roads.push(RawRoad {
            geometry: Polyline::new(points),
            class,
            direction,
        });
    }
    if cursor != bytes.len() {
        return None;
    }
    Some(RoadNetwork::from_roads(&roads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, SyntheticCity};

    #[test]
    fn roundtrip_reproduces_the_network_exactly() {
        let net = SyntheticCity::generate(GeneratorConfig::small()).network;
        let bytes = encode_network(&net);
        let back = decode_network(&bytes).expect("decode");
        assert_eq!(back.num_segments(), net.num_segments());
        assert_eq!(back.num_nodes(), net.num_nodes());
        for id in net.segment_ids() {
            let (a, b) = (net.segment(id), back.segment(id));
            assert_eq!(a.start_node, b.start_node, "{id}");
            assert_eq!(a.end_node, b.end_node, "{id}");
            assert_eq!(a.length_m.to_bits(), b.length_m.to_bits(), "{id}");
            assert_eq!(a.class, b.class, "{id}");
            assert_eq!(a.direction, b.direction, "{id}");
            assert_eq!(a.twin, b.twin, "{id}");
            assert_eq!(a.geometry.points(), b.geometry.points(), "{id}");
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_bytes() {
        let net = SyntheticCity::generate(GeneratorConfig::small()).network;
        let bytes = encode_network(&net);
        assert!(decode_network(&bytes[..bytes.len() - 1]).is_none());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_network(&extended).is_none());
        let mut wrong_version = bytes;
        wrong_version[0] = 99;
        assert!(decode_network(&wrong_version).is_none());
    }

    /// Counts near `u32::MAX` with nothing behind them are rejected without
    /// reserving memory for them.
    #[test]
    fn decode_rejects_huge_counts_without_allocating() {
        assert!(decode_network(&[1, 0xFF, 0xFF, 0xFF, 0xFF]).is_none());
        // One road claiming 2^32 - 1 points, followed by a single point.
        let mut one_road = vec![1, 1, 0, 0, 0, 3, 1, 0xFF, 0xFF, 0xFF, 0xFF];
        one_road.extend_from_slice(&[0; POINT_LEN]);
        assert!(decode_network(&one_road).is_none());
    }
}
