//! Streaming-ingest equivalence suite: an engine that ingests K extra
//! fleet-days point by point must answer **bit-identically** to an engine
//! rebuilt from scratch on the combined dataset — on all four query
//! pipelines, before and after compaction, and across an incremental
//! snapshot save + reopen + WAL replay. Plus `snapshot_roundtrip.rs`-style
//! corruption checks on the new incremental artifacts, and the Con-Index
//! contract under ingest: bounding hops evaluated directly stay bit-identical
//! to the table walk on from-scratch statistics, and no query path ever
//! materialises a slot table.

use std::path::PathBuf;
use std::sync::Arc;

use streach::prelude::*;
use streach::storage::StorageError;
use streach_core::query::mqmb::mqmb;
use streach_core::query::reference::{naive_mqmb, naive_sqmb};
use streach_core::query::sqmb::sqmb;
use streach_core::query::MQueryAlgorithm;
use streach_core::ConIndex;

/// Days in the base dataset; the extra `K` days arrive via ingest.
const BASE_DAYS: u16 = 3;
/// Extra fleet-days ingested on top of the base.
const EXTRA_DAYS: u16 = 2;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("streach-ingest-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> IndexConfig {
    IndexConfig {
        read_latency_us: 0,
        ..Default::default()
    }
}

/// One simulation of the full (base + extra) fleet, split so that base and
/// extra trajectories carry consistent IDs: `base` covers dates `0..BASE_DAYS`,
/// `extra` the remaining `EXTRA_DAYS`.
struct Scenario {
    network: Arc<RoadNetwork>,
    base: TrajectoryDataset,
    combined: TrajectoryDataset,
    /// The extra fleet-days, one `Vec<TrajPoint>` per trajectory, in
    /// dataset order.
    extra_batches: Vec<Vec<TrajPoint>>,
}

fn scenario() -> Scenario {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let network = Arc::new(city.network);
    let full = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 14,
            num_days: BASE_DAYS + EXTRA_DAYS,
            day_start_s: 8 * 3600,
            day_end_s: 12 * 3600,
            seed: 23,
            ..FleetConfig::default()
        },
    );
    let num_taxis = full.num_taxis();
    let base_trajs: Vec<_> = full
        .trajectories()
        .iter()
        .filter(|t| t.date < BASE_DAYS)
        .cloned()
        .collect();
    let extra_batches: Vec<Vec<TrajPoint>> = full
        .trajectories()
        .iter()
        .filter(|t| t.date >= BASE_DAYS)
        .map(|t| points_of(t).collect())
        .collect();
    assert!(!extra_batches.is_empty(), "scenario needs extra fleet-days");
    let base = TrajectoryDataset::from_matched(base_trajs, num_taxis, BASE_DAYS);
    let combined = TrajectoryDataset::from_matched(
        full.trajectories().to_vec(),
        num_taxis,
        BASE_DAYS + EXTRA_DAYS,
    );
    Scenario {
        network,
        base,
        combined,
        extra_batches,
    }
}

/// The query workload every equivalence assertion sweeps: all four
/// pipelines at several (start, duration, prob) combinations, including a
/// cross-midnight window.
fn workload(center: GeoPoint) -> Vec<(SQuery, MQuery)> {
    let mut out = Vec::new();
    for (start, duration) in [
        (9 * 3600u32, 300u32),
        (10 * 3600 + 900, 900),
        (11 * 3600, 600),
        (23 * 3600 + 55 * 60, 600),
    ] {
        for prob in [0.25, 0.6] {
            out.push((
                SQuery {
                    location: center,
                    start_time_s: start,
                    duration_s: duration,
                    prob,
                },
                MQuery {
                    locations: vec![center, center.offset_m(900.0, -600.0)],
                    start_time_s: start,
                    duration_s: duration,
                    prob,
                },
            ));
        }
    }
    out
}

/// Asserts that both engines answer the whole workload bit-identically on
/// all four pipelines (regions and total lengths).
fn assert_bit_identical(a: &ReachabilityEngine, b: &ReachabilityEngine, label: &str) {
    let center = a.network().bounds().center();
    for (i, (sq, mq)) in workload(center).iter().enumerate() {
        for algo in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
            let ra = a.try_s_query(sq, algo).expect("engine A s-query");
            let rb = b.try_s_query(sq, algo).expect("engine B s-query");
            assert_eq!(
                ra.region.segments, rb.region.segments,
                "{label}: s-query #{i} ({algo:?}) regions diverged"
            );
            assert_eq!(
                ra.region.total_length_km.to_bits(),
                rb.region.total_length_km.to_bits(),
                "{label}: s-query #{i} ({algo:?}) lengths diverged"
            );
        }
        for algo in [MQueryAlgorithm::MqmbTbs, MQueryAlgorithm::RepeatedSQuery] {
            let ra = a.try_m_query(mq, algo).expect("engine A m-query");
            let rb = b.try_m_query(mq, algo).expect("engine B m-query");
            assert_eq!(
                ra.region.segments, rb.region.segments,
                "{label}: m-query #{i} ({algo:?}) regions diverged"
            );
            assert_eq!(
                ra.region.total_length_km.to_bits(),
                rb.region.total_length_km.to_bits(),
                "{label}: m-query #{i} ({algo:?}) lengths diverged"
            );
        }
    }
}

/// The tentpole guarantee: base-engine + point-by-point ingest ==
/// from-scratch rebuild on the combined dataset, bit-exactly, on every
/// pipeline — and compaction preserves it while matching the rebuilt
/// engine's physical layout.
#[test]
fn ingested_engine_matches_rebuilt_engine_bit_exactly() {
    let s = scenario();
    let ingested = streach::core::EngineBuilder::new(s.network.clone(), &s.base)
        .index_config(config())
        .build();
    let rebuilt = streach::core::EngineBuilder::new(s.network.clone(), &s.combined)
        .index_config(config())
        .build();

    // Sanity: the extra days actually change answers (the day count `m`
    // enters every probability denominator).
    let center = s.network.bounds().center();
    let probe = workload(center)[0].0;
    let before = ingested.s_query(&probe, Algorithm::SqmbTbs);
    assert_eq!(ingested.st_index().num_days(), BASE_DAYS);

    let mut total_points = 0usize;
    for batch in &s.extra_batches {
        let outcome = ingested.ingest(batch).expect("ingest batch");
        assert_eq!(outcome.points, batch.len());
        assert_eq!(outcome.wal_ordinal, None, "no WAL attached");
        total_points += outcome.points;
    }
    assert!(total_points > 0);
    assert_eq!(ingested.st_index().num_days(), BASE_DAYS + EXTRA_DAYS);
    assert!(ingested.st_index().delta_stats().delta_lists > 0);
    let after = ingested.s_query(&probe, Algorithm::SqmbTbs);
    assert_ne!(
        before.region.segments, after.region.segments,
        "ingesting {EXTRA_DAYS} fleet-days must change at least the probe query"
    );

    assert_bit_identical(&ingested, &rebuilt, "ingested vs rebuilt");
    assert_eq!(
        ingested.st_index().stats().num_observations,
        rebuilt.st_index().stats().num_observations,
        "observation counts must match the combined dataset"
    );

    // Compaction folds the delta into a sealed base that matches the
    // rebuilt engine's layout exactly — stats and all.
    let folded = ingested.compact().expect("compact");
    assert!(folded.delta_lists > 0);
    assert_eq!(ingested.st_index().delta_stats(), Default::default());
    assert_eq!(
        ingested.st_index().stats(),
        rebuilt.st_index().stats(),
        "compacted base must be laid out exactly like a from-scratch build"
    );
    assert_bit_identical(&ingested, &rebuilt, "compacted vs rebuilt");
    // Compacting again is a no-op.
    assert_eq!(
        ingested.compact().expect("idempotent compact").delta_lists,
        0
    );
}

/// Ingest order must not matter: interleaving the batches point-group-wise
/// converges to the same engine (the delta merge is a sorted-set union).
#[test]
fn ingest_is_batch_order_insensitive() {
    let s = scenario();
    let a = streach::core::EngineBuilder::new(s.network.clone(), &s.base)
        .index_config(config())
        .build();
    let b = streach::core::EngineBuilder::new(s.network.clone(), &s.base)
        .index_config(config())
        .build();
    for batch in &s.extra_batches {
        a.ingest(batch).expect("forward ingest");
    }
    for batch in s.extra_batches.iter().rev() {
        b.ingest(batch).expect("reverse ingest");
    }
    assert_bit_identical(&a, &b, "forward vs reverse batch order");
}

/// Direct-hop SQMB/MQMB on `engine` against the literal table walk over
/// `tables` — regions and every owner bit-identical — on the workload's
/// (T, L) pairs.
fn assert_bounding_matches_table_walk(engine: &ReachabilityEngine, tables: &ConIndex, label: &str) {
    let network = engine.network();
    let n = network.num_segments();
    for (i, (sq, mq)) in workload(network.bounds().center()).iter().enumerate() {
        let (t, l) = (sq.start_time_s, sq.duration_s);
        let start = engine.locate(&sq.location).expect("on-network start");
        let direct = sqmb(engine.con_index(), n, start, t, l);
        let naive = naive_sqmb(tables, n, start, t, l);
        assert_eq!(
            (direct.max_region, direct.min_region),
            (naive.max_region, naive.min_region),
            "{label}: SQMB bounds of query #{i} diverged"
        );
        let starts: Vec<SegmentId> = mq
            .locations
            .iter()
            .map(|p| engine.locate(p).expect("on-network start"))
            .collect();
        let direct = mqmb(engine.con_index(), network, &starts, &mq.locations, t, l);
        let naive = naive_mqmb(tables, network, &starts, &mq.locations, t, l);
        assert_eq!(
            (&direct.max_region, &direct.min_region),
            (&naive.max_region, &naive.min_region),
            "{label}: MQMB bounds of query #{i} diverged"
        );
        for seg in network.segment_ids() {
            assert_eq!(
                direct.owner_of(seg),
                naive.owner_of(seg),
                "{label}: MQMB owner of {seg} in query #{i} diverged"
            );
        }
    }
}

/// Bounding hops read the live speed statistics, so after an arbitrary
/// ingest interleaving they must still equal the table walk — with the
/// tables rebuilt from scratch on the current statistics: mid-way on the
/// ingesting engine itself (those tables must then be dropped by the later
/// batches), at the end on an engine rebuilt from the combined dataset.
#[test]
fn direct_bounding_matches_table_walk_after_interleaved_ingest() {
    let s = scenario();
    let ingested = streach::core::EngineBuilder::new(s.network.clone(), &s.base)
        .index_config(config())
        .build();
    let rebuilt = streach::core::EngineBuilder::new(s.network.clone(), &s.combined)
        .index_config(config())
        .build();
    assert_bounding_matches_table_walk(&ingested, ingested.con_index(), "base");

    // Even-indexed batches backwards, then the odd ones forwards.
    let (even, odd): (Vec<_>, Vec<_>) = s
        .extra_batches
        .iter()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    for (_, batch) in even.iter().rev() {
        ingested.ingest(batch).expect("ingest even batch");
    }
    assert_bounding_matches_table_walk(&ingested, ingested.con_index(), "mid-ingest");
    for (_, batch) in &odd {
        ingested.ingest(batch).expect("ingest odd batch");
    }
    assert_bounding_matches_table_walk(&ingested, rebuilt.con_index(), "vs rebuilt tables");
    assert_bounding_matches_table_walk(&ingested, ingested.con_index(), "vs own tables");
}

/// Slot tables are off the query path: a cold engine answers the s- and
/// m-query sweep on all four pipelines and a `QueryServer` batch, with
/// ingest landing in the queried slots in between, and its Con-Index still
/// reports no table built or cached — while every answer equals a freshly
/// built engine on the same data.
#[test]
fn con_index_tables_stay_off_the_query_path() {
    let s = scenario();
    let build = |dataset: &TrajectoryDataset| {
        Arc::new(
            streach::core::EngineBuilder::new(s.network.clone(), dataset)
                .index_config(config())
                .build(),
        )
    };
    let (cold, fresh_base, rebuilt) = (build(&s.base), build(&s.base), build(&s.combined));

    assert_bit_identical(&cold, &fresh_base, "cold sweep");
    // The extra fleet-days drive 08:00-12:00: inside the workload's windows.
    for batch in &s.extra_batches {
        cold.ingest(batch).expect("ingest batch");
    }
    let server = QueryServer::start(Arc::clone(&cold), ServeConfig::default());
    let sweep = workload(s.network.bounds().center());
    let tickets: Vec<_> = sweep
        .iter()
        .map(|(sq, _)| server.submit(*sq, Algorithm::SqmbTbs))
        .collect();
    for (i, (ticket, (sq, _))) in tickets.into_iter().zip(&sweep).enumerate() {
        let served = ticket.wait().expect("served s-query");
        let want = rebuilt
            .try_s_query(sq, Algorithm::SqmbTbs)
            .expect("s-query");
        assert_eq!(
            (
                served.region.segments,
                served.region.total_length_km.to_bits()
            ),
            (want.region.segments, want.region.total_length_km.to_bits()),
            "served s-query #{i} diverged from the rebuilt engine"
        );
    }
    server.shutdown();
    assert_bit_identical(&cold, &rebuilt, "after ingest");

    for (name, engine) in [
        ("cold", &cold),
        ("fresh", &fresh_base),
        ("rebuilt", &rebuilt),
    ] {
        let tables = engine.con_index().stats();
        assert_eq!(
            (tables.slots_built, tables.cached_slots),
            (0, 0),
            "{name}: a query path built or read a Con-Index slot table"
        );
    }
}

/// The full streaming lifecycle across processes: open snapshot → attach
/// WAL → ingest → incremental save → reopen + replay → more ingest →
/// compact — bit-identical to the rebuilt engine at every step.
#[test]
fn wal_backed_lifecycle_roundtrips_through_incremental_snapshots() {
    let s = scenario();
    let dir = tmp_dir("lifecycle");
    let wal_path = dir.join("ingest.wal");
    streach::core::EngineBuilder::new(s.network.clone(), &s.base)
        .index_config(config())
        .save_snapshot(&dir)
        .expect("save base snapshot");
    let rebuilt = streach::core::EngineBuilder::new(s.network.clone(), &s.combined)
        .index_config(config())
        .build();

    let half = s.extra_batches.len() / 2;
    assert!(half > 0);

    // Process 1: ingest the first half through the WAL, then checkpoint.
    {
        let engine = ReachabilityEngine::open_snapshot(&dir, s.network.clone()).expect("open base");
        let attach = engine.attach_wal(&wal_path).expect("attach fresh WAL");
        assert_eq!(attach.records_replayed, 0);
        for batch in &s.extra_batches[..half] {
            engine.ingest(batch).expect("ingest first half");
        }
        engine
            .save_incremental_snapshot(&dir)
            .expect("incremental checkpoint");
        // The checkpoint folded every WAL record: the log rotated empty.
        let wal_len = std::fs::metadata(&wal_path).expect("wal exists").len();
        assert!(
            wal_len < 64,
            "rotated WAL must be header-only, got {wal_len} bytes"
        );
    }

    // Process 2: crash-free restart — nothing to replay, deltas come from
    // the incremental snapshot; ingest the second half but "crash" before
    // any checkpoint (drop without saving).
    {
        let engine =
            ReachabilityEngine::open_snapshot(&dir, s.network.clone()).expect("reopen checkpoint");
        assert!(
            engine.st_index().delta_stats().delta_lists > 0,
            "incremental snapshot must restore the delta tail"
        );
        let attach = engine.attach_wal(&wal_path).expect("re-attach WAL");
        assert_eq!(attach.records_replayed, 0, "checkpoint covers the log");
        for batch in &s.extra_batches[half..] {
            engine.ingest(batch).expect("ingest second half");
        }
        assert_bit_identical(&engine, &rebuilt, "pre-crash engine vs rebuilt");
    }

    // Process 3: recovery — the checkpoint plus the WAL tail reconstruct
    // the full combined state; then compact and save a final snapshot.
    let final_dir = tmp_dir("lifecycle-final");
    {
        let engine =
            ReachabilityEngine::open_snapshot(&dir, s.network.clone()).expect("reopen after crash");
        let attach = engine.attach_wal(&wal_path).expect("replay WAL tail");
        assert_eq!(
            attach.records_replayed,
            (s.extra_batches.len() - half) as u64,
            "exactly the unfolded records replay"
        );
        assert_bit_identical(&engine, &rebuilt, "recovered engine vs rebuilt");

        engine.compact().expect("compact");
        assert_eq!(
            engine.st_index().stats(),
            rebuilt.st_index().stats(),
            "compacted recovery must match the rebuilt layout"
        );
        engine.save_snapshot(&final_dir).expect("save compacted");
    }

    // The compacted snapshot reopens into the combined engine.
    let reopened =
        ReachabilityEngine::open_snapshot(&final_dir, s.network.clone()).expect("reopen final");
    assert_bit_identical(&reopened, &rebuilt, "final snapshot vs rebuilt");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&final_dir).ok();
}

/// Corruption checks on the incremental artifacts, in the style of
/// `snapshot_roundtrip.rs`: a flipped byte or truncation in `deltas.pages`
/// and a flipped byte in each delta container section must be rejected at
/// open — no damaged delta may reach query processing.
#[test]
fn corrupted_incremental_snapshot_is_rejected() {
    let s = scenario();
    let dir = tmp_dir("corrupt-incremental");
    streach::core::EngineBuilder::new(s.network.clone(), &s.base)
        .index_config(config())
        .save_snapshot(&dir)
        .expect("save base");
    {
        let engine = ReachabilityEngine::open_snapshot(&dir, s.network.clone()).expect("open base");
        for batch in &s.extra_batches {
            engine.ingest(batch).expect("ingest");
        }
        engine
            .save_incremental_snapshot(&dir)
            .expect("incremental save");
    }
    // Pristine snapshot opens fine.
    assert!(ReachabilityEngine::open_snapshot(&dir, s.network.clone()).is_ok());

    // Bit rot in the delta page file (length intact). The file carries a
    // per-checkpoint sequence number in its name; exactly one must exist
    // after the save (superseded ones are garbage-collected).
    let delta_files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name().is_some_and(|n| {
                let n = n.to_string_lossy();
                n.starts_with(streach::core::snapshot::DELTA_PAGES_PREFIX) && n.ends_with(".pages")
            })
        })
        .collect();
    assert_eq!(
        delta_files.len(),
        1,
        "exactly one committed delta file expected, got {delta_files:?}"
    );
    let delta_path = delta_files[0].clone();
    let clean_deltas = std::fs::read(&delta_path).unwrap();
    assert!(!clean_deltas.is_empty(), "delta heap must not be empty");
    let mut rotten = clean_deltas.clone();
    let mid = rotten.len() / 2;
    rotten[mid] ^= 0x08;
    std::fs::write(&delta_path, &rotten).unwrap();
    match ReachabilityEngine::open_snapshot(&dir, s.network.clone()) {
        Err(StorageError::Corrupt { context }) => {
            assert!(context.contains("checksum"), "{context}")
        }
        Err(other) => panic!("delta bit rot must be rejected as Corrupt, got {other}"),
        Ok(_) => panic!("delta bit rot must be rejected"),
    }

    // Truncation of the delta page file.
    std::fs::write(&delta_path, &clean_deltas[..clean_deltas.len() / 2]).unwrap();
    assert!(matches!(
        ReachabilityEngine::open_snapshot(&dir, s.network.clone()),
        Err(StorageError::Corrupt { .. })
    ));
    std::fs::write(&delta_path, &clean_deltas).unwrap();

    // A flipped byte inside each delta section's payload (walking the
    // documented container layout) is caught by the per-section CRC.
    let container = dir.join(streach::core::snapshot::CONTAINER_FILE);
    let clean = std::fs::read(&container).unwrap();
    let section_count = u32::from_le_bytes(clean[12..16].try_into().unwrap()) as usize;
    let mut cursor = 16usize;
    let mut delta_sections = 0;
    for _ in 0..section_count {
        let name_len = u16::from_le_bytes(clean[cursor..cursor + 2].try_into().unwrap()) as usize;
        let name = String::from_utf8(clean[cursor + 2..cursor + 2 + name_len].to_vec()).unwrap();
        let payload_len = u64::from_le_bytes(
            clean[cursor + 2 + name_len..cursor + 10 + name_len]
                .try_into()
                .unwrap(),
        ) as usize;
        let payload_start = cursor + 14 + name_len;
        if matches!(
            name.as_str(),
            "delta_pages_meta" | "delta_dir" | "ingest_meta"
        ) && payload_len > 0
        {
            delta_sections += 1;
            let mut bad = clean.clone();
            bad[payload_start + payload_len / 2] ^= 0x10;
            std::fs::write(&container, &bad).unwrap();
            assert!(
                matches!(
                    ReachabilityEngine::open_snapshot(&dir, s.network.clone()),
                    Err(StorageError::Corrupt { .. })
                ),
                "flipped byte in section {name} must be rejected"
            );
        }
        cursor = payload_start + payload_len;
    }
    assert!(
        delta_sections >= 2,
        "expected the delta container sections to be present and non-empty"
    );
    std::fs::write(&container, &clean).unwrap();
    assert!(ReachabilityEngine::open_snapshot(&dir, s.network).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed ingest input is rejected up front, before anything is logged
/// or applied.
#[test]
fn invalid_points_are_rejected_before_application() {
    let s = scenario();
    let engine = streach::core::EngineBuilder::new(s.network.clone(), &s.base)
        .index_config(config())
        .build();
    let stats_before = engine.st_index().stats();
    let bogus_segment = TrajPoint {
        traj_id: 1,
        date: 3,
        segment: SegmentId(u32::MAX),
        enter_time_s: 9 * 3600,
    };
    let err = engine.ingest(&[bogus_segment]).unwrap_err();
    assert!(err.to_string().contains("segment"), "{err}");
    let bogus_date = TrajPoint {
        traj_id: 1,
        date: u16::MAX,
        segment: s.extra_batches[0][0].segment,
        enter_time_s: 9 * 3600,
    };
    assert!(engine.ingest(&[bogus_date]).is_err());
    assert_eq!(engine.st_index().stats(), stats_before);
    assert_eq!(engine.st_index().delta_stats(), Default::default());
}

/// Mid-trajectory continuation: the base dataset ends with trajectories
/// cut off mid-day, and ingest delivers their remaining points. The builder
/// seeds the last-visit table from the batch data, so the boundary speed
/// pair (last base visit -> first ingested visit) and same-segment dedup
/// match a from-scratch build on the uncut trajectories bit-exactly.
#[test]
fn mid_trajectory_continuation_matches_rebuilt_engine() {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let network = Arc::new(city.network);
    let full = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 12,
            num_days: 3,
            day_start_s: 8 * 3600,
            day_end_s: 12 * 3600,
            seed: 41,
            ..FleetConfig::default()
        },
    );
    let mut base_trajs = full.trajectories().to_vec();
    let mut continuations: Vec<Vec<TrajPoint>> = Vec::new();
    for traj in base_trajs.iter_mut().filter(|t| t.date == 2) {
        let cut = traj.visits.len() / 2;
        if cut == 0 {
            continue;
        }
        let tail = traj.visits.split_off(cut);
        continuations.push(
            tail.iter()
                .map(|v| TrajPoint {
                    traj_id: traj.traj_id,
                    date: traj.date,
                    segment: v.segment,
                    enter_time_s: v.enter_time_s,
                })
                .collect(),
        );
    }
    assert!(!continuations.is_empty(), "need trajectories to continue");

    let ingested = streach::core::EngineBuilder::new(
        network.clone(),
        &TrajectoryDataset::from_matched(base_trajs, full.num_taxis(), 3),
    )
    .index_config(config())
    .build();
    for batch in &continuations {
        ingested.ingest(batch).expect("ingest continuation");
    }
    let rebuilt = streach::core::EngineBuilder::new(
        network.clone(),
        &TrajectoryDataset::from_matched(full.trajectories().to_vec(), full.num_taxis(), 3),
    )
    .index_config(config())
    .build();
    // The boundary speed pairs (last base visit -> first ingested visit)
    // must be derived: without the seeded last-visit table the ingested
    // engine would hold fewer observations than the rebuild.
    assert_eq!(
        ingested.con_index().speed_observations(),
        rebuilt.con_index().speed_observations(),
        "continued vs rebuilt: speed observation counts diverged"
    );
    assert_bit_identical(&ingested, &rebuilt, "continued vs rebuilt");

    ingested.compact().expect("compact");
    assert_eq!(
        ingested.st_index().stats(),
        rebuilt.st_index().stats(),
        "compacted continuation must match the rebuilt layout"
    );
    assert_bit_identical(&ingested, &rebuilt, "compacted continuation vs rebuilt");
}

/// A CRC-valid WAL record naming a segment outside the network (e.g. a log
/// written against a different city) must fail `attach_wal` with a typed
/// error naming the record — never a panic during recovery.
#[test]
fn wal_replay_rejects_points_for_a_different_network() {
    use streach::storage::{put_varint_u32, Wal};

    let s = scenario();
    let dir = tmp_dir("foreign-wal");
    streach::core::EngineBuilder::new(s.network.clone(), &s.base)
        .index_config(config())
        .save_snapshot(&dir)
        .expect("save base");
    let wal_path = dir.join("foreign.wal");
    {
        let (wal, _, _) = Wal::open(&wal_path).expect("create wal");
        // Hand-framed ingest record: 1 point naming segment 1_000_000.
        let mut payload = vec![0x01]; // batch tag
        for field in [1, 7, 3, 1_000_000, 9 * 3600] {
            // point count, traj_id, date, segment, enter time
            put_varint_u32(&mut payload, field);
        }
        wal.append(&payload).expect("append");
        wal.sync().expect("sync");
    }
    let engine = ReachabilityEngine::open_snapshot(&dir, s.network.clone()).expect("open");
    match engine.attach_wal(&wal_path) {
        Err(StorageError::Corrupt { context }) => {
            assert!(context.contains("record #0"), "{context}");
            assert!(context.contains("segment"), "{context}");
        }
        Err(other) => panic!("expected typed validation failure, got {other}"),
        Ok(_) => panic!("foreign WAL record must not replay"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
