//! Streaming ingest: WAL-backed trajectory appends into a serving engine.
//!
//! A built (or reopened) [`crate::ReachabilityEngine`] is a *sealed*
//! artifact: its ST-Index base heap and speed statistics describe the data
//! it was constructed over. This module lets the engine keep absorbing the
//! fleet's new trajectory points without a rebuild:
//!
//! 1. [`ReachabilityEngine::attach_wal`](crate::ReachabilityEngine::attach_wal)
//!    opens (or recovers) a [`streach_storage::Wal`] and replays every
//!    record the current snapshot has not folded in yet, reconstructing the
//!    delta tail exactly as it was before the crash/restart.
//! 2. [`ReachabilityEngine::ingest`](crate::ReachabilityEngine::ingest)
//!    appends a batch of [`TrajPoint`]s: the batch is framed and fsynced
//!    into the WAL first (durability; concurrent callers **group-commit**,
//!    sharing one physical fsync), then folded — strictly in WAL-record
//!    order — into the ST-Index delta postings, the online
//!    [`crate::SpeedStats`] and the day count.
//! 3. [`ReachabilityEngine::save_incremental_snapshot`](crate::ReachabilityEngine::save_incremental_snapshot)
//!    chains the delta sections onto the snapshot container, after which
//!    the WAL is rotated — folded records never replay again. The
//!    background [`crate::maintenance::MaintenanceController`] triggers
//!    this automatically when the delta heap crosses
//!    [`IndexConfig::auto_checkpoint_bytes`](crate::IndexConfig::auto_checkpoint_bytes).
//!
//! Replay and re-application are **idempotent** (time-list merges are
//! sorted-set inserts; speed min/max aggregation is order-insensitive), so
//! at-least-once delivery after a torn WAL tail converges to the same
//! engine a from-scratch build on the combined dataset produces.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Buf, BufMut};
use streach_storage::{get_varint_u32, put_varint_u32, StorageError, StorageResult, Wal};
use streach_traj::TrajPoint;

/// What one applied ingest batch touched — the invalidation signal
/// delivered to observers registered with
/// [`crate::ReachabilityEngine::observe_ingest`] (the result cache of
/// [`crate::serve`] is the canonical consumer).
#[derive(Debug, Clone, Default)]
pub struct IngestTouch {
    /// The (slot, segment) delta-directory pairs whose posting list the
    /// batch created or re-merged, sorted ascending and deduplicated, with
    /// the slot wrapped into the day grid. On a shard engine these are the
    /// shard-owned pairs only.
    pub posting_pairs: Vec<(u32, u32)>,
    /// Day slots in which the batch contributed Con-Index speed pairs,
    /// sorted and deduplicated. Speed statistics feed the SQMB/MQMB
    /// bounding regions (and the ES travel cap), so an answer whose slot
    /// window meets one of these slots may change for **any** segment —
    /// there is no sound per-segment refinement here.
    pub speed_slots: Vec<u32>,
    /// Whether the batch raised the engine's day count. The day count is
    /// every reachability probability's denominator, so when it rises every
    /// cached answer is stale at once.
    pub num_days_raised: bool,
}

impl IngestTouch {
    /// True when the batch changed nothing observable by queries.
    pub fn is_empty(&self) -> bool {
        self.posting_pairs.is_empty() && self.speed_slots.is_empty() && !self.num_days_raised
    }
}

/// Callback invoked (under the engine's ingest lock) after every
/// successfully applied ingest batch, live or WAL-replayed.
pub type IngestObserver = dyn Fn(&IngestTouch) + Send + Sync;

/// Outcome of one [`crate::ReachabilityEngine::ingest`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Number of trajectory points in the batch.
    pub points: usize,
    /// Number of (slot, segment) delta time lists created or re-merged.
    pub lists_touched: usize,
    /// Number of valid speed observations folded into the Con-Index
    /// statistics (cached connection tables are invalidated when > 0).
    pub speed_observations: usize,
    /// WAL record ordinal the batch was logged under, when a WAL is
    /// attached.
    pub wal_ordinal: Option<u64>,
}

/// Outcome of attaching (and replaying) a write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalAttach {
    /// Generation of the attached log.
    pub generation: u64,
    /// Records skipped because the snapshot had already folded them in.
    pub records_skipped: u64,
    /// Records replayed into the engine.
    pub records_replayed: u64,
    /// Trajectory points contained in the replayed records.
    pub points_replayed: u64,
    /// Bytes of torn WAL tail discarded during recovery.
    pub truncated_bytes: u64,
}

/// The last segment visit seen per (trajectory, date) — the state needed to
/// turn a point stream into the consecutive-visit speed pairs the batch
/// build derives from `windows(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LastVisit {
    pub segment: u32,
    pub enter_time_s: u32,
}

/// Last visit per (traj_id, date) — the table replayed from snapshots.
pub(crate) type LastVisitMap = HashMap<(u32, u16), LastVisit>;

/// Mutable ingest state of an engine, behind one mutex: the attached WAL,
/// the WAL bookkeeping persisted in snapshots, and the per-trajectory
/// last-visit table. The WAL handle itself is shared (`Arc`) so that
/// group-committed ingest callers can append + fsync **without** holding
/// this mutex — only the application phase serializes through it.
#[derive(Default)]
pub(crate) struct IngestState {
    pub wal: Option<Arc<Wal>>,
    /// Generation of the WAL whose prefix the engine state covers.
    pub wal_generation: u64,
    /// Length of the fully-applied record prefix of that generation.
    pub wal_applied: u64,
    /// Ordinal (within `wal_generation`) of the next record to fold into
    /// the index. Group-committed ingest callers apply strictly in WAL
    /// order — live application is then bit-identical to replay — and this
    /// cursor, unlike `wal_applied`, keeps advancing past records whose
    /// group fsync failed (they are skipped live and recovered by replay).
    pub apply_cursor: u64,
    /// Set when a record was logged but its application failed (or its
    /// group fsync did): the applied-prefix counter freezes (replay after
    /// restart re-applies the tail idempotently) and rotation is
    /// suppressed.
    pub prefix_broken: bool,
    /// Last visit per (traj_id, date), for speed-pair extraction.
    pub last_visit: LastVisitMap,
}

impl IngestState {
    /// Records that one more WAL record is fully applied (no-op once the
    /// prefix is broken).
    pub fn mark_applied(&mut self) {
        if !self.prefix_broken {
            self.wal_applied += 1;
        }
    }
}

/// Tag byte opening a varint-encoded WAL batch record.
const WAL_BATCH_TAG_VARINT: u8 = 0x01;

/// Tag byte opening a **pre-normalized** varint batch record: the points
/// were normalized (re-entries dropped) and owner-routed by the sharded
/// router's statistics leader, so replay must apply them postings-only —
/// no re-normalization, no speed-pair derivation, no last-visit staging
/// (see [`crate::sharded::ShardedEngine::ingest`]). Body layout is
/// identical to [`WAL_BATCH_TAG_VARINT`].
const WAL_BATCH_TAG_PRENORMALIZED: u8 = 0x02;

/// Encodes a batch of trajectory points as a WAL record payload.
///
/// Layout (varint format, shared with the posting heap's delta encoding —
/// see `streach_storage::postings` for the canonical-varint rules):
/// tag byte `0x01`, varint point count, then per point varint `traj_id`,
/// varint `date`, varint `segment`, varint `enter_time_s`. Fleet IDs and
/// intra-day timestamps are small, so a point takes about half of the 14
/// bytes a fixed-width layout would need.
pub(crate) fn encode_batch(points: &[TrajPoint]) -> Vec<u8> {
    encode_tagged_batch(WAL_BATCH_TAG_VARINT, points)
}

/// Encodes an owner-routed, already-normalized batch under the
/// pre-normalized tag. Same varint body as [`encode_batch`]; only the tag
/// byte differs, and the tag is what tells replay to skip normalization.
pub(crate) fn encode_prenormalized_batch(points: &[TrajPoint]) -> Vec<u8> {
    encode_tagged_batch(WAL_BATCH_TAG_PRENORMALIZED, points)
}

fn encode_tagged_batch(tag: u8, points: &[TrajPoint]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(6 + points.len() * 8);
    buf.push(tag);
    put_varint_u32(&mut buf, points.len() as u32);
    for p in points {
        put_varint_u32(&mut buf, p.traj_id);
        put_varint_u32(&mut buf, u32::from(p.date));
        put_varint_u32(&mut buf, p.segment.0);
        put_varint_u32(&mut buf, p.enter_time_s);
    }
    buf
}

/// Decodes the varint batch body following the tag byte. Strict: any
/// varint failure, a date outside `u16`, or trailing bytes is `None`.
fn decode_batch_varint(mut buf: &[u8]) -> Option<Vec<TrajPoint>> {
    let n = get_varint_u32(&mut buf)? as usize;
    // The count is untrusted until the points prove themselves: clamp the
    // pre-allocation to what the buffer could possibly hold (≥ 4 bytes per
    // point — four varints of at least one byte each).
    let mut points = Vec::with_capacity(n.min(buf.remaining() / 4));
    for _ in 0..n {
        let traj_id = get_varint_u32(&mut buf)?;
        let date = u16::try_from(get_varint_u32(&mut buf)?).ok()?;
        let segment = streach_roadnet::SegmentId(get_varint_u32(&mut buf)?);
        let enter_time_s = get_varint_u32(&mut buf)?;
        points.push(TrajPoint {
            traj_id,
            date,
            segment,
            enter_time_s,
        });
    }
    if !buf.is_empty() {
        return None;
    }
    Some(points)
}

/// A decoded WAL ingest record: the points plus whether they were written
/// pre-normalized (owner-routed by the sharded router) and must therefore
/// be applied postings-only on replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecodedRecord {
    pub points: Vec<TrajPoint>,
    pub prenormalized: bool,
}

/// Decodes a WAL record payload back into trajectory points. The tag byte
/// — `0x01` ([`encode_batch`]) or `0x02` ([`encode_prenormalized_batch`])
/// — is the only record format marker. Strict like every decoder in this
/// workspace: any other tag, a short buffer or trailing bytes is `Corrupt`,
/// never a silently shorter batch.
pub(crate) fn decode_record(buf: &[u8]) -> StorageResult<DecodedRecord> {
    let (&tag, body) = buf
        .split_first()
        .filter(|(&tag, _)| tag == WAL_BATCH_TAG_VARINT || tag == WAL_BATCH_TAG_PRENORMALIZED)
        .ok_or_else(|| StorageError::corrupt("WAL ingest record has an unknown tag"))?;
    let points = decode_batch_varint(body)
        .ok_or_else(|| StorageError::corrupt("WAL ingest record is malformed"))?;
    Ok(DecodedRecord {
        points,
        prenormalized: tag == WAL_BATCH_TAG_PRENORMALIZED,
    })
}

/// Point-only view of [`decode_record`], for callers (and tests) that do
/// not care about the pre-normalized flag.
#[cfg(test)]
pub(crate) fn decode_batch(buf: &[u8]) -> StorageResult<Vec<TrajPoint>> {
    decode_record(buf).map(|r| r.points)
}

/// Serializes the ingest bookkeeping for the snapshot container:
/// generation, applied-prefix length and the last-visit table.
pub(crate) fn encode_ingest_meta(
    generation: u64,
    applied: u64,
    last_visit: &LastVisitMap,
) -> Vec<u8> {
    let mut entries: Vec<(&(u32, u16), &LastVisit)> = last_visit.iter().collect();
    entries.sort_unstable_by_key(|(k, _)| **k);
    let mut buf = Vec::with_capacity(20 + entries.len() * 14);
    buf.put_u64_le(generation);
    buf.put_u64_le(applied);
    buf.put_u32_le(entries.len() as u32);
    for ((traj_id, date), visit) in entries {
        buf.put_u32_le(*traj_id);
        buf.put_u16_le(*date);
        buf.put_u32_le(visit.segment);
        buf.put_u32_le(visit.enter_time_s);
    }
    buf
}

/// Deserializes the ingest bookkeeping section.
pub(crate) fn decode_ingest_meta(mut buf: &[u8]) -> StorageResult<(u64, u64, LastVisitMap)> {
    let corrupt = || StorageError::corrupt("ingest_meta section is malformed");
    if buf.remaining() < 20 {
        return Err(corrupt());
    }
    let generation = buf.get_u64_le();
    let applied = buf.get_u64_le();
    let n = buf.get_u32_le() as usize;
    if buf.remaining() != n * 14 {
        return Err(corrupt());
    }
    let mut last_visit = HashMap::with_capacity(n);
    for _ in 0..n {
        let traj_id = buf.get_u32_le();
        let date = buf.get_u16_le();
        let visit = LastVisit {
            segment: buf.get_u32_le(),
            enter_time_s: buf.get_u32_le(),
        };
        last_visit.insert((traj_id, date), visit);
    }
    Ok((generation, applied, last_visit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use streach_roadnet::SegmentId;

    fn sample_points() -> Vec<TrajPoint> {
        vec![
            TrajPoint {
                traj_id: 7,
                date: 3,
                segment: SegmentId(99),
                enter_time_s: 32_400,
            },
            TrajPoint {
                traj_id: 7,
                date: 3,
                segment: SegmentId(100),
                enter_time_s: 32_455,
            },
            TrajPoint {
                traj_id: 8,
                date: 4,
                segment: SegmentId(0),
                enter_time_s: 0,
            },
        ]
    }

    #[test]
    fn batch_roundtrip_and_strictness() {
        let points = sample_points();
        let bytes = encode_batch(&points);
        assert_eq!(decode_batch(&bytes).unwrap(), points);
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), Vec::new());
        // Truncated or padded buffers are rejected.
        assert!(decode_batch(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_batch(&[]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_batch(&padded).is_err());
        // The varint format beats a 4 + 14n fixed-width layout.
        assert!(bytes.len() < 4 + points.len() * 14);
    }

    /// The exact bytes of a 2-point batch record: a silent change of the
    /// WAL record format fails here.
    #[test]
    fn batch_record_golden_bytes() {
        let points = &sample_points()[..2];
        let golden = [
            0x01, // tag
            0x02, // 2 points
            0x07, 0x03, 0x63, 0x90, 0xFD, 0x01, // traj 7, date 3, segment 99, t 32 400
            0x07, 0x03, 0x64, 0xC7, 0xFD, 0x01, // traj 7, date 3, segment 100, t 32 455
        ];
        assert_eq!(encode_batch(points), golden);
        assert_eq!(decode_batch(&golden).unwrap(), points);
    }

    #[test]
    fn prenormalized_batches_roundtrip_with_flag() {
        let points = sample_points();
        let raw = decode_record(&encode_batch(&points)).unwrap();
        assert!(!raw.prenormalized);
        assert_eq!(raw.points, points);
        let pre = decode_record(&encode_prenormalized_batch(&points)).unwrap();
        assert!(pre.prenormalized);
        assert_eq!(pre.points, points);
        // Strictness carries over to the 0x02 tag.
        let bytes = encode_prenormalized_batch(&points);
        assert!(decode_record(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn varint_batch_rejects_out_of_range_dates() {
        // date is u16 on the wire; a varint body claiming a larger value
        // must be rejected, not truncated.
        let mut buf = vec![0x01u8];
        put_varint_u32(&mut buf, 1); // count
        put_varint_u32(&mut buf, 7); // traj_id
        put_varint_u32(&mut buf, 70_000); // date: exceeds u16
        put_varint_u32(&mut buf, 99); // segment
        put_varint_u32(&mut buf, 0); // enter_time_s
        assert!(decode_batch(&buf).is_err());
    }

    #[test]
    fn ingest_meta_roundtrip() {
        let mut last_visit = HashMap::new();
        last_visit.insert(
            (7, 3),
            LastVisit {
                segment: 100,
                enter_time_s: 32_455,
            },
        );
        last_visit.insert(
            (8, 4),
            LastVisit {
                segment: 0,
                enter_time_s: 0,
            },
        );
        let bytes = encode_ingest_meta(5, 12, &last_visit);
        let (generation, applied, decoded) = decode_ingest_meta(&bytes).unwrap();
        assert_eq!(generation, 5);
        assert_eq!(applied, 12);
        assert_eq!(decoded, last_visit);
        // Determinism: the map serializes in sorted key order.
        assert_eq!(bytes, encode_ingest_meta(5, 12, &decoded));
        assert!(decode_ingest_meta(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn applied_prefix_freezes_once_broken() {
        let mut state = IngestState::default();
        state.mark_applied();
        state.mark_applied();
        assert_eq!(state.wal_applied, 2);
        state.prefix_broken = true;
        state.mark_applied();
        assert_eq!(state.wal_applied, 2, "broken prefix must not advance");
    }
}
