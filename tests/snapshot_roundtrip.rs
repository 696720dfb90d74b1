//! Engine snapshot round-trip suite: build → save → open must answer a
//! fixed query workload **bit-identically** to the freshly built engine,
//! with genuine page I/O on the cold open — plus typed rejection of
//! corrupted, truncated and mismatched snapshots.
//!
//! An open reads structure only; pages and slot chunks are checked when
//! first read. So the corruption promise is: every flipped or edited byte
//! is rejected, typed, at open or by [`ReachabilityEngine::scrub`], and a
//! full query sweep on the damaged snapshot answers each query either
//! bit-identically to the intact engine or with a typed
//! `QueryError::Storage` — never a different answer, never a panic.

use std::sync::Arc;

use streach::core::query::MQueryAlgorithm;
use streach::prelude::*;
use streach::storage::{SnapshotReader, SnapshotWriter, StorageError};
use streach_testkit::{
    answer_of, fault_seed, open_with_fault_script, pool, pool_answers, run_pool_entry, tmp_dir,
    Answer,
};

fn build_inputs() -> (Arc<RoadNetwork>, TrajectoryDataset) {
    let city = SyntheticCity::generate(GeneratorConfig::small());
    let network = Arc::new(city.network);
    let dataset = TrajectoryDataset::simulate(
        &network,
        FleetConfig {
            num_taxis: 20,
            num_days: 4,
            day_start_s: 0,
            day_end_s: 86_400,
            seed: 31,
            ..FleetConfig::default()
        },
    );
    (network, dataset)
}

/// The fixed s-query suite every snapshot assertion sweeps — includes a
/// cross-midnight start so wrap semantics survive persistence too.
fn squery_suite(location: GeoPoint) -> Vec<SQuery> {
    let mut out = Vec::new();
    for (start, duration) in [
        (9 * 3600u32, 600u32),
        (12 * 3600, 1500),
        (18 * 3600 + 900, 300),
        (23 * 3600 + 55 * 60, 600),
    ] {
        for prob in [0.25, 0.75] {
            out.push(SQuery {
                location,
                start_time_s: start,
                duration_s: duration,
                prob,
            });
        }
    }
    out
}

#[test]
fn snapshot_roundtrip_answers_bit_identically() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("roundtrip");
    let center = network.bounds().center();

    let built = streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build();
    built.save_snapshot(&dir).expect("save snapshot");

    // Reopen cold — the dataset is not in scope here at all.
    let reopened = ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open snapshot");

    // Cold open must pay real page I/O on the first posting reads.
    reopened.st_index().clear_cache();
    reopened.st_index().io_stats().reset();

    for (i, q) in squery_suite(center).iter().enumerate() {
        for algo in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
            let a = built.try_s_query(q, algo).expect("s-query");
            let b = reopened.try_s_query(q, algo).expect("s-query");
            assert_eq!(
                a.region.segments, b.region.segments,
                "query #{i} ({algo:?}) region diverged after reopen"
            );
            assert_eq!(
                a.region.total_length_km.to_bits(),
                b.region.total_length_km.to_bits(),
                "query #{i} ({algo:?}) length diverged after reopen"
            );
        }
    }

    let io = reopened.st_index().io_stats().snapshot();
    assert!(
        io.page_reads > 0,
        "cold open must read pages from the snapshot's page file"
    );

    // M-queries round-trip too.
    let m = MQuery {
        locations: vec![center, center.offset_m(1200.0, -800.0)],
        start_time_s: 10 * 3600,
        duration_s: 900,
        prob: 0.25,
    };
    use streach::core::query::MQueryAlgorithm;
    let a = built
        .try_m_query(&m, MQueryAlgorithm::MqmbTbs)
        .expect("m-query");
    let b = reopened
        .try_m_query(&m, MQueryAlgorithm::MqmbTbs)
        .expect("m-query");
    assert_eq!(a.region.segments, b.region.segments);
    assert_eq!(
        a.region.total_length_km.to_bits(),
        b.region.total_length_km.to_bits()
    );

    // Index metadata survives verbatim.
    assert_eq!(built.st_index().stats(), reopened.st_index().stats());
    assert_eq!(built.st_index().num_days(), reopened.st_index().num_days());
    assert_eq!(built.config().slot_s, reopened.config().slot_s);

    // The temporal directory is varint-coded with implied offsets, a few
    // bytes per time list, plus a fixed 36-byte head record per populated
    // slot: fixed-width entries would blow this budget.
    let container =
        SnapshotReader::open(dir.join(streach::core::snapshot::CONTAINER_FILE)).unwrap();
    let st_index_bytes = container.section("st_index").unwrap().len()
        + container.read_section("st_index_slots").unwrap().len();
    let slots = reopened.st_index().populated_slots().count();
    let lists = reopened.st_index().stats().num_time_lists as usize;
    let budget = 64 + (8 + 36) * slots + 3 * lists;
    assert!(
        st_index_bytes <= budget,
        "st_index sections are {st_index_bytes} bytes, over the budget of {budget} \
         ({slots} slots, {lists} time lists)"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_container_is_rejected() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("corrupt");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .save_snapshot(&dir)
        .expect("save snapshot");

    let container = dir.join(streach::core::snapshot::CONTAINER_FILE);
    let mut bytes = std::fs::read(&container).unwrap();

    // Flip one byte in the header.
    bytes[3] ^= 0xFF;
    std::fs::write(&container, &bytes).unwrap();
    assert!(matches!(
        ReachabilityEngine::open_snapshot(&dir, network.clone()),
        Err(StorageError::Corrupt { .. })
    ));

    // Restore, then truncate the container mid-section.
    bytes[3] ^= 0xFF;
    std::fs::write(&container, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(
        ReachabilityEngine::open_snapshot(&dir, network.clone()),
        Err(StorageError::Corrupt { .. })
    ));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_page_file_is_rejected() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("truncated-pages");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .save_snapshot(&dir)
        .expect("save snapshot");

    let pages = dir.join(streach::core::snapshot::PAGES_FILE);
    let bytes = std::fs::read(&pages).unwrap();
    assert!(bytes.len() > streach::storage::PAGE_SIZE);

    // Cutting mid-page breaks alignment; cutting at a page boundary leaves
    // the heap short. Both must be rejected at open time.
    std::fs::write(&pages, &bytes[..bytes.len() - 100]).unwrap();
    assert!(matches!(
        ReachabilityEngine::open_snapshot(&dir, network.clone()),
        Err(StorageError::Corrupt { .. })
    ));
    std::fs::write(&pages, &bytes[..streach::storage::PAGE_SIZE]).unwrap();
    assert!(matches!(
        ReachabilityEngine::open_snapshot(&dir, network.clone()),
        Err(StorageError::Corrupt { .. })
    ));

    // Bit rot inside a posting page (length intact) opens — an open reads
    // no page — but never reaches an answer: the page fails its CRC when
    // read, and a scrub names it.
    let intact = {
        std::fs::write(&pages, &bytes).unwrap();
        sweep_answers(&ReachabilityEngine::open_snapshot(&dir, network.clone()).unwrap())
    };
    let mut rotten = bytes.clone();
    let mid = rotten.len() / 2;
    rotten[mid] ^= 0x40;
    std::fs::write(&pages, &rotten).unwrap();
    let page = mid / streach::storage::PAGE_SIZE;
    assert_rejected_or_harmless(&dir, &network, &intact, "page rot", &format!("page {page}"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot deployed as an immutable artifact (read-only files) must
/// still open and serve queries — cold opens never write.
#[test]
#[cfg(unix)]
fn read_only_snapshot_opens_and_serves() {
    use std::os::unix::fs::PermissionsExt;

    let (network, dataset) = build_inputs();
    let dir = tmp_dir("read-only");
    let built = streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build();
    built.save_snapshot(&dir).expect("save snapshot");
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        std::fs::set_permissions(entry.path(), std::fs::Permissions::from_mode(0o444)).unwrap();
    }

    let reopened = ReachabilityEngine::open_snapshot(&dir, network.clone())
        .expect("read-only snapshot must open");
    let q = squery_suite(network.bounds().center())[0];
    let a = built.try_s_query(&q, Algorithm::SqmbTbs).expect("s-query");
    let b = reopened
        .try_s_query(&q, Algorithm::SqmbTbs)
        .expect("s-query");
    assert_eq!(a.region.segments, b.region.segments);

    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        std::fs::set_permissions(entry.path(), std::fs::Permissions::from_mode(0o644)).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Re-saving over an existing snapshot directory stages and renames, so the
/// directory always holds a complete, openable snapshot.
#[test]
fn resave_over_existing_snapshot_keeps_it_openable() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("resave");
    let built = streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build();
    built.save_snapshot(&dir).expect("first save");
    built.save_snapshot(&dir).expect("re-save over existing");
    // No stale staging files are left behind.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().all(|n| !n.ends_with(".tmp")),
        "staging files left behind: {names:?}"
    );
    let reopened = ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open");
    assert_eq!(built.st_index().stats(), reopened.st_index().stats());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_rejects_a_different_network() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("wrong-network");
    streach::core::EngineBuilder::new(network, &dataset)
        .index_config(IndexConfig::default())
        .save_snapshot(&dir)
        .expect("save snapshot");

    let other = Arc::new(
        SyntheticCity::generate(GeneratorConfig {
            seed: 4242,
            ..GeneratorConfig::small()
        })
        .network,
    );
    match ReachabilityEngine::open_snapshot(&dir, other) {
        Err(StorageError::Corrupt { context }) => {
            assert!(context.contains("different road network"), "{context}")
        }
        Err(e) => panic!("expected network-mismatch rejection, got {e}"),
        Ok(_) => panic!("a snapshot must not open against a different network"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_snapshot_directory_is_an_io_error() {
    let network = Arc::new(SyntheticCity::generate(GeneratorConfig::small()).network);
    let missing = tmp_dir("does-not-exist");
    assert!(matches!(
        ReachabilityEngine::open_snapshot(&missing, network),
        Err(StorageError::Io(_))
    ));
}

/// The fixed sweep every corruption case runs: the suite's s-queries from
/// two origins under both algorithms, and one MQMB m-query.
fn sweep(engine: &ReachabilityEngine) -> Vec<Result<Answer, QueryError>> {
    let center = engine.network().bounds().center();
    let origins = [center, center.offset_m(1500.0, -900.0)];
    let mut out = Vec::new();
    for origin in origins {
        for q in squery_suite(origin) {
            for algo in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
                out.push(engine.try_s_query(&q, algo).map(|o| answer_of(&o)));
            }
        }
    }
    let m = MQuery {
        locations: origins.to_vec(),
        start_time_s: 10 * 3600,
        duration_s: 900,
        prob: 0.25,
    };
    out.push(
        engine
            .try_m_query(&m, MQueryAlgorithm::MqmbTbs)
            .map(|o| answer_of(&o)),
    );
    out
}

/// The sweep's answers on an intact engine.
fn sweep_answers(engine: &ReachabilityEngine) -> Vec<Answer> {
    sweep(engine)
        .into_iter()
        .map(|a| a.expect("an intact snapshot answers every query"))
        .collect()
}

/// The corruption promise for the damaged snapshot in `dir`: rejected,
/// typed, at open — or it opens, every sweep query answers like `intact`
/// bit for bit or fails with a typed `QueryError::Storage`, and a scrub
/// then rejects it as `Corrupt` whose description contains `needle`. The
/// sweep runs three times, so its window slots are read segment-major,
/// then build their trajectory views from the damaged heap, then are read
/// forward.
fn assert_rejected_or_harmless(
    dir: &std::path::Path,
    network: &Arc<RoadNetwork>,
    intact: &[Answer],
    label: &str,
    needle: &str,
) {
    let engine = match ReachabilityEngine::open_snapshot(dir, network.clone()) {
        Err(StorageError::Corrupt { context }) => {
            assert!(
                !context.is_empty(),
                "{label}: rejection without a description"
            );
            return;
        }
        Err(StorageError::UnsupportedVersion { .. }) if label.ends_with("version") => return,
        Err(e) => panic!("{label}: unexpected error at open: {e}"),
        Ok(engine) => engine,
    };
    for ask in 0..3 {
        for (i, (got, want)) in sweep(&engine).into_iter().zip(intact).enumerate() {
            match got {
                Ok(answer) => assert_eq!(
                    &answer, want,
                    "{label}: sweep query #{i}, ask {ask}, answered differently from the intact engine"
                ),
                Err(QueryError::Storage { .. }) => {}
                Err(e) => panic!("{label}: sweep query #{i}, ask {ask}: unexpected error {e}"),
            }
        }
    }
    match engine.scrub() {
        Err(StorageError::Corrupt { context }) => {
            assert!(context.contains(needle), "{label}: scrub said {context}")
        }
        Err(e) => panic!("{label}: scrub: unexpected error {e}"),
        Ok(()) => panic!("{label}: the damage was neither rejected at open nor by scrub"),
    }
}

/// One target byte in every part of the v9 container: the header fields,
/// every section-table field, the table CRC and the middle of every
/// payload, eager and lazy. Walks the documented layout.
fn container_targets(clean: &[u8]) -> Vec<(String, usize, String)> {
    let u16_at = |at: usize| u16::from_le_bytes(clean[at..at + 2].try_into().unwrap()) as usize;
    let u32_at = |at: usize| u32::from_le_bytes(clean[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(clean[at..at + 8].try_into().unwrap()) as usize;
    let any = String::new();
    let mut targets = vec![
        ("magic".to_string(), 2, any.clone()),
        ("version".to_string(), 8, any.clone()),
        ("section-count".to_string(), 12, any.clone()),
        ("table-length".to_string(), 16, any.clone()),
    ];
    let count = u32_at(12);
    let table_end = 20 + u32_at(16);
    targets.push(("table-crc".to_string(), table_end + 1, any.clone()));
    let mut cursor = 20;
    let mut payload = table_end + 4;
    for _ in 0..count {
        let name_len = u16_at(cursor);
        let name = String::from_utf8(clean[cursor + 2..cursor + 2 + name_len].to_vec()).unwrap();
        let kind = cursor + 2 + name_len;
        let len = u64_at(kind + 1);
        targets.push((format!("{name}:name"), cursor + 2, any.clone()));
        targets.push((format!("{name}:kind"), kind, any.clone()));
        targets.push((format!("{name}:payload-len"), kind + 1, any.clone()));
        targets.push((format!("{name}:crc"), kind + 9, any.clone()));
        if len > 0 {
            // A lazy payload is checked a chunk at a time: the scrub names
            // the section.
            let needle = if clean[kind] == 1 {
                name.clone()
            } else {
                any.clone()
            };
            targets.push((format!("{name}:payload"), payload + len / 2, needle));
        }
        cursor = kind + 13;
        payload += len;
    }
    assert_eq!(payload, clean.len(), "the payloads tile the file");
    targets
}

/// Corruption matrix: one flipped byte in every part of `index.snap` and
/// in a sampled sweep of `postings.pages` offsets. Each is rejected, typed,
/// at open or by scrub, and no sweep query answers differently.
#[test]
fn corruption_matrix_every_container_section_and_sampled_page_bytes() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("corruption-matrix");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .save_snapshot(&dir)
        .expect("save snapshot");
    let intact = sweep_answers(&ReachabilityEngine::open_snapshot(&dir, network.clone()).unwrap());

    let container = dir.join(streach::core::snapshot::CONTAINER_FILE);
    let clean = std::fs::read(&container).unwrap();
    let targets = container_targets(&clean);
    let known: Vec<&str> = targets.iter().map(|(n, ..)| n.as_str()).collect();
    for expected in [
        "config:payload",
        "network:payload",
        "pages_meta:payload",
        "st_index:payload",
        "st_index_slots:payload",
        "speed_stats:payload",
        "speed_stats_rows:payload",
    ] {
        assert!(
            known.contains(&expected),
            "container is missing section target {expected} (found {known:?})"
        );
    }
    for (name, offset, needle) in targets {
        let mut bad = clean.clone();
        bad[offset] ^= 0x20;
        std::fs::write(&container, &bad).unwrap();
        assert_rejected_or_harmless(&dir, &network, &intact, &name, &needle);
    }
    std::fs::write(&container, &clean).unwrap();

    // The page file: a flipped byte at a spread of offsets (page starts,
    // mid-page, page ends, EOF) under a clean container fails that page's
    // CRC when it is read; the scrub names the page.
    let pages = dir.join(streach::core::snapshot::PAGES_FILE);
    let clean_pages = std::fs::read(&pages).unwrap();
    let n = clean_pages.len();
    let page = streach::storage::PAGE_SIZE;
    let mut offsets: Vec<usize> = vec![0, 1, page - 1, page, page + page / 2, n / 2, n - 1];
    for k in 1..8 {
        offsets.push((k * n / 8 / page) * page + (k * 97) % page);
    }
    offsets.retain(|&o| o < n);
    offsets.sort_unstable();
    offsets.dedup();
    for offset in offsets {
        let mut bad = clean_pages.clone();
        bad[offset] ^= 0x01;
        std::fs::write(&pages, &bad).unwrap();
        let label = format!("page flip at {offset}");
        let needle = format!("page {} fails its checksum", offset / page);
        assert_rejected_or_harmless(&dir, &network, &intact, &label, &needle);
    }
    std::fs::write(&pages, &clean_pages).unwrap();
    assert!(
        ReachabilityEngine::open_snapshot(&dir, network)
            .expect("restored snapshot must open again")
            .scrub()
            .is_ok(),
        "restored snapshot must scrub clean"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn crc32(bytes: &[u8]) -> u32 {
    streach::storage::crc32(bytes)
}

/// Dense flip sweep over the compressed posting heap: the default encoding
/// is delta/varint, so `postings.pages` holds compressed blobs — a flipped
/// byte inside one must never become a silently shorter or shifted list.
/// Its page fails its CRC when read (typed `QueryError::Storage`), and the
/// scrub names it. (Decode-level strictness *past* the CRC — torn pages
/// handed straight to the decoder — is pinned by the storage unit suite.)
#[test]
fn flips_inside_compressed_blobs_surface_as_corrupt() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("compressed-flips");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .save_snapshot(&dir)
        .expect("save snapshot");
    let intact = sweep_answers(&ReachabilityEngine::open_snapshot(&dir, network.clone()).unwrap());

    // The saved container is the current version: tagged compressed heaps.
    let container = std::fs::read(dir.join(streach::core::snapshot::CONTAINER_FILE)).unwrap();
    assert_eq!(
        u32::from_le_bytes(container[8..12].try_into().unwrap()),
        streach::storage::SNAPSHOT_VERSION,
        "a fresh save must write the current container version"
    );

    let pages = dir.join(streach::core::snapshot::PAGES_FILE);
    let clean_pages = std::fs::read(&pages).unwrap();
    let n = clean_pages.len();
    // 64 deterministic offsets spread over the whole heap, hitting blob
    // interiors (tag bytes, varint counts, gap streams) rather than page
    // boundaries only.
    for k in 0..64usize {
        let offset = (k * n / 64 + (k * 131) % 523) % n;
        for mask in [0x01u8, 0x80] {
            let mut bad = clean_pages.clone();
            bad[offset] ^= mask;
            std::fs::write(&pages, &bad).unwrap();
            let label = format!("flip {mask:#04x} at {offset}");
            let needle = format!(
                "page {} fails its checksum",
                offset / streach::storage::PAGE_SIZE
            );
            assert_rejected_or_harmless(&dir, &network, &intact, &label, &needle);
        }
    }
    std::fs::write(&pages, &clean_pages).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites the container's version field and appends the whole-file seal
/// the containers of versions 1 to 7 ended with.
fn reseal_as_version(container: &std::path::Path, version: u32) {
    let mut bytes = std::fs::read(container).unwrap();
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    let seal = crc32(&bytes);
    bytes.extend_from_slice(&seal.to_le_bytes());
    std::fs::write(container, &bytes).unwrap();
}

/// There is one container version: a sealed v7 container is
/// `UnsupportedVersion` from every open path, never misread and never
/// reported as damage.
#[test]
fn v7_snapshot_is_rejected_as_unsupported() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("v7-rejected");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build()
        .save_snapshot_self_contained(&dir)
        .expect("save snapshot");
    reseal_as_version(&dir.join(streach::core::snapshot::CONTAINER_FILE), 7);

    for (what, opened) in [
        (
            "open_snapshot",
            ReachabilityEngine::open_snapshot(&dir, network.clone()),
        ),
        (
            "open_snapshot_standalone",
            ReachabilityEngine::open_snapshot_standalone(&dir),
        ),
    ] {
        match opened {
            Err(StorageError::UnsupportedVersion { found: 7, expected }) => {
                assert_eq!(expected, streach::storage::SNAPSHOT_VERSION, "{what}")
            }
            Err(e) => panic!("{what}: expected UnsupportedVersion, got {e}"),
            Ok(_) => panic!("{what}: a v7 snapshot must not open"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites the container's version field and reseals its section table,
/// as a genuine version 8 container (framed like this version) would be.
fn reseal_as_v8(container: &std::path::Path) {
    let mut bytes = std::fs::read(container).unwrap();
    bytes[8..12].copy_from_slice(&8u32.to_le_bytes());
    let table_end = 20 + u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let crc = crc32(&bytes[..table_end]);
    bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(container, &bytes).unwrap();
}

/// A v8 container — the previous layout, which kept the delta tail in a
/// page file of its own — is `UnsupportedVersion` from every open path,
/// never misread and never reported as damage.
#[test]
fn v8_snapshot_is_rejected_as_unsupported() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("v8-rejected");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build()
        .save_snapshot_self_contained(&dir)
        .expect("save snapshot");
    reseal_as_v8(&dir.join(streach::core::snapshot::CONTAINER_FILE));

    for (what, opened) in [
        (
            "open_snapshot",
            ReachabilityEngine::open_snapshot(&dir, network.clone()),
        ),
        (
            "open_snapshot_standalone",
            ReachabilityEngine::open_snapshot_standalone(&dir),
        ),
    ] {
        match opened {
            Err(StorageError::UnsupportedVersion { found: 8, expected }) => {
                assert_eq!(expected, streach::storage::SNAPSHOT_VERSION, "{what}")
            }
            Err(e) => panic!("{what}: expected UnsupportedVersion, got {e}"),
            Ok(_) => panic!("{what}: a v8 snapshot must not open"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `road_network` section whose road count claims ~2^32 roads with no
/// bytes behind it fails a standalone open as a typed error — the decoder
/// must not abort reserving memory for the claimed count.
#[test]
fn oversized_road_count_fails_standalone_open_typed() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("huge-road-count");
    streach::core::EngineBuilder::new(network, &dataset)
        .index_config(IndexConfig::default())
        .build()
        .save_snapshot_self_contained(&dir)
        .expect("save snapshot");

    // Reseal the container with the hostile section in place of the network.
    let container = dir.join(streach::core::snapshot::CONTAINER_FILE);
    reseal_with_section(&container, "road_network", vec![1, 0xFF, 0xFF, 0xFF, 0xFF]);

    match ReachabilityEngine::open_snapshot_standalone(&dir) {
        Err(StorageError::Corrupt { context }) => {
            assert!(context.contains("road_network"), "{context}")
        }
        Err(e) => panic!("expected a Corrupt road_network rejection, got {e}"),
        Ok(_) => panic!("a hostile road_network section must not open"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites the container with the payloads of `replaced` swapped in and
/// every other section as saved (eager or lazy as saved), sealed like a
/// genuine save.
fn reseal_with_sections(container: &std::path::Path, replaced: &[(&str, Vec<u8>)]) {
    let reader = SnapshotReader::open(container).unwrap();
    let mut writer = SnapshotWriter::new();
    for section in reader.section_names() {
        let bytes = match replaced.iter().find(|(name, _)| *name == section) {
            Some((_, payload)) => payload.clone(),
            None => reader.read_section(section).unwrap(),
        };
        if reader.is_lazy(section) {
            writer.add_lazy_section(section, bytes);
        } else {
            writer.add_section(section, bytes);
        }
    }
    drop(reader);
    let staged = container.with_extension("resealed");
    writer.finish(&staged).unwrap();
    std::fs::rename(&staged, container).unwrap();
}

fn reseal_with_section(container: &std::path::Path, name: &str, payload: Vec<u8>) {
    reseal_with_sections(container, &[(name, payload)]);
}

/// Byte length of the fixed-width part of the `st_index` head; its last
/// four bytes are the slot count. Each slot record after it is 36 bytes.
const ST_INDEX_HEAD_LEN: usize = 50;
const ST_INDEX_SLOT_LEN: usize = 36;

/// One populated slot of the temporal directory: its number, the heap
/// offset and span of its blobs, and its entries as (segment, blob len);
/// the blob offsets are implied by the order.
#[derive(Clone)]
struct Slot {
    slot: u32,
    first: u64,
    span: u32,
    entries: Vec<(u32, u32)>,
}

/// Splits the `st_index` head and `st_index_slots` chunks into the fixed
/// head and the slots, checking every chunk's recorded CRC.
fn split_st_index(head: &[u8], chunks: &[u8]) -> (Vec<u8>, Vec<Slot>) {
    let varint = |buf: &mut &[u8]| streach::storage::get_varint_u32(buf).expect("varint");
    let (fixed, records) = head.split_at(ST_INDEX_HEAD_LEN);
    let u32_at = |r: &[u8], at: usize| u32::from_le_bytes(r[at..at + 4].try_into().unwrap());
    let u64_at = |r: &[u8], at: usize| u64::from_le_bytes(r[at..at + 8].try_into().unwrap());
    let slots = records
        .chunks(ST_INDEX_SLOT_LEN)
        .map(|r| {
            let (offset, len) = (u64_at(r, 20) as usize, u32_at(r, 28) as usize);
            let mut chunk = &chunks[offset..offset + len];
            assert_eq!(crc32(chunk), u32_at(r, 32), "chunk CRC as saved");
            let mut segment = 0;
            let entries = (0..u32_at(r, 4))
                .map(|i| {
                    let step = varint(&mut chunk);
                    segment = if i == 0 { step } else { segment + step };
                    (segment, varint(&mut chunk))
                })
                .collect();
            assert!(chunk.is_empty(), "chunk has trailing bytes");
            Slot {
                slot: u32_at(r, 0),
                first: u64_at(r, 8),
                span: u32_at(r, 16),
                entries,
            }
        })
        .collect();
    (fixed.to_vec(), slots)
}

/// Encodes a slot's entries as its chunk.
fn slot_chunk(slot: &Slot) -> Vec<u8> {
    use streach::storage::put_varint_u32;
    let mut out = Vec::new();
    let mut prev = None;
    for &(segment, len) in &slot.entries {
        put_varint_u32(
            &mut out,
            prev.map_or(segment, |p: u32| segment.wrapping_sub(p)),
        );
        put_varint_u32(&mut out, len);
        prev = Some(segment);
    }
    out
}

/// The `st_index` head and the `st_index_slots` chunks.
type StIndexSections = (Vec<u8>, Vec<u8>);

/// Encodes the fixed head and slots back into the `st_index` head and
/// `st_index_slots` chunks, with `chunk_of` giving each slot's chunk bytes
/// and every chunk offset, length and CRC recomputed: the CRCs hold.
fn join_st_index(
    fixed: &[u8],
    slots: &[Slot],
    chunk_of: impl Fn(usize, &Slot) -> Vec<u8>,
) -> StIndexSections {
    let mut head = fixed.to_vec();
    let mut chunks = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        let chunk = chunk_of(i, slot);
        head.extend_from_slice(&slot.slot.to_le_bytes());
        head.extend_from_slice(&(slot.entries.len() as u32).to_le_bytes());
        head.extend_from_slice(&slot.first.to_le_bytes());
        head.extend_from_slice(&slot.span.to_le_bytes());
        head.extend_from_slice(&(chunks.len() as u64).to_le_bytes());
        head.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        head.extend_from_slice(&crc32(&chunk).to_le_bytes());
        chunks.extend_from_slice(&chunk);
    }
    (head, chunks)
}

/// A real container whose temporal directory was edited — and resealed,
/// so every checksum holds — is rejected, typed and naming the section, at
/// open (head edits) or by scrub (chunk edits, which also fail every query
/// that touches the slot); no query answers differently and none panics.
#[test]
fn edited_st_index_directories_fail_open_typed() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("edited-st-index");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .save_snapshot(&dir)
        .expect("save snapshot");
    let container = dir.join(streach::core::snapshot::CONTAINER_FILE);
    let clean = std::fs::read(&container).unwrap();
    let reader = SnapshotReader::parse(clean.clone()).unwrap();
    let head = reader.section("st_index").unwrap().to_vec();
    let chunks = reader.read_section("st_index_slots").unwrap();
    drop(reader);
    let (fixed, slots) = split_st_index(&head, &chunks);
    assert_eq!(
        join_st_index(&fixed, &slots, |_, s| slot_chunk(s)),
        (head.clone(), chunks.clone()),
        "the test's directory codec must reproduce the saved bytes"
    );
    // The unedited sections, resealed the same way, still open and answer.
    reseal_with_sections(
        &container,
        &[
            ("st_index", head.clone()),
            ("st_index_slots", chunks.clone()),
        ],
    );
    let intact = sweep_answers(&ReachabilityEngine::open_snapshot(&dir, network.clone()).unwrap());

    let slots_per_day = 86_400u32.div_ceil(IndexConfig::default().slot_s);
    let edit = |change: &dyn Fn(&mut Vec<Slot>)| {
        let mut edited = slots.clone();
        change(&mut edited);
        join_st_index(&fixed, &edited, |_, s| slot_chunk(s))
    };
    // A slot with at least two entries, for the in-slot edits.
    let multi = slots
        .iter()
        .position(|s| s.entries.len() >= 2)
        .expect("some slot holds two time lists");
    let cases: Vec<(&str, StIndexSections)> = vec![
        (
            "last len one short of the span",
            edit(&|d| {
                let last = d.last_mut().unwrap().entries.last_mut().unwrap();
                assert!(last.1 > 1, "a time list blob is longer than one byte");
                last.1 -= 1;
            }),
        ),
        (
            "last len one past the span",
            edit(&|d| d.last_mut().unwrap().entries.last_mut().unwrap().1 += 1),
        ),
        (
            "zero segment gap",
            edit(&|d| d[multi].entries[1].0 = d[multi].entries[0].0),
        ),
        (
            "slot outside the day",
            edit(&|d| d.last_mut().unwrap().slot = slots_per_day),
        ),
        (
            "zero len (total kept)",
            edit(&|d| {
                let moved = std::mem::take(&mut d[multi].entries[0].1);
                d[multi].entries[1].1 += moved;
            }),
        ),
        (
            "span one short, next run one early",
            edit(&|d| {
                d[multi].span -= 1;
                d[multi + 1].first -= 1;
            }),
        ),
        (
            "overlong varint",
            join_st_index(&fixed, &slots, |i, s| {
                let mut chunk = slot_chunk(s);
                if i == 0 {
                    // The first segment id, re-encoded with one redundant byte.
                    let mut canonical = Vec::new();
                    streach::storage::put_varint_u32(&mut canonical, s.entries[0].0);
                    let mut long = canonical.clone();
                    *long.last_mut().unwrap() |= 0x80;
                    long.push(0x00);
                    chunk.splice(..canonical.len(), long);
                }
                chunk
            }),
        ),
    ];
    for (what, (edited_head, edited_chunks)) in cases {
        assert_ne!(
            (&edited_head, &edited_chunks),
            (&head, &chunks),
            "{what}: the edit changed nothing"
        );
        std::fs::write(&container, &clean).unwrap();
        reseal_with_sections(
            &container,
            &[("st_index", edited_head), ("st_index_slots", edited_chunks)],
        );
        assert_rejected_or_harmless(&dir, &network, &intact, what, "st_index");
    }
    std::fs::write(&container, &clean).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A resealed `ingest_meta` whose last-visit table names a segment past
/// the network, or holds a key twice or out of order, fails the open as a
/// typed `Corrupt` naming the section: the next ingest continuing that
/// trajectory would otherwise index past the network.
#[test]
fn malformed_ingest_meta_fails_open_typed() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("ingest-meta");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .save_snapshot(&dir)
        .expect("save snapshot");
    let container = dir.join(streach::core::snapshot::CONTAINER_FILE);
    let clean = std::fs::read(&container).unwrap();
    let num_segments = network.num_segments() as u32;
    // [generation u64][applied u64][count u32], then per entry
    // [traj u32][date u16][segment u32][enter time u32].
    let meta = |entries: &[(u32, u16, u32)]| {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for &(traj, date, segment) in entries {
            buf.extend_from_slice(&traj.to_le_bytes());
            buf.extend_from_slice(&date.to_le_bytes());
            buf.extend_from_slice(&segment.to_le_bytes());
            buf.extend_from_slice(&36_000u32.to_le_bytes());
        }
        buf
    };
    reseal_with_section(
        &container,
        "ingest_meta",
        meta(&[(1, 0, 5), (1, 1, num_segments - 1)]),
    );
    ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("a valid table opens");
    for (what, entries) in [
        (
            "segment past the network",
            vec![(1, 0, 5), (2, 0, num_segments)],
        ),
        ("duplicated key", vec![(1, 0, 5), (1, 0, 6)]),
        ("keys out of order", vec![(2, 0, 5), (1, 0, 6)]),
    ] {
        std::fs::write(&container, &clean).unwrap();
        reseal_with_section(&container, "ingest_meta", meta(&entries));
        match ReachabilityEngine::open_snapshot(&dir, network.clone()) {
            Err(StorageError::Corrupt { context }) => {
                assert!(context.contains("ingest_meta"), "{what}: {context}")
            }
            Err(e) => panic!("{what}: expected Corrupt, got {e}"),
            Ok(_) => panic!("{what}: a malformed ingest_meta must not open"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The optional sections round-trip: a self-contained **sharded**
/// snapshot reopens standalone (network decoded from the container, shard
/// ownership restored) and answers bit-identically to the built engine.
#[test]
fn self_contained_sharded_snapshot_reopens_standalone() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("self-contained-shard");
    let center = network.bounds().center();
    let map = Arc::new(ShardMap::partition(&network, 2));
    let built = streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .shard(map.clone(), 1)
        .build();
    built
        .save_snapshot_self_contained(&dir)
        .expect("save self-contained sharded snapshot");

    // No network object, no dataset: the snapshot directory is enough.
    let reopened =
        ReachabilityEngine::open_snapshot_standalone(&dir).expect("standalone open must work");
    let (owned_map, shard_id) = reopened
        .shard_ownership()
        .expect("shard ownership must survive the round-trip");
    assert_eq!(shard_id, 1);
    assert_eq!(owned_map.as_ref(), map.as_ref());
    assert_eq!(
        reopened.network().num_segments(),
        network.num_segments(),
        "embedded network must decode to the same segmentation"
    );

    for (i, q) in squery_suite(center).iter().enumerate() {
        let a = built.try_s_query(q, Algorithm::SqmbTbs).expect("s-query");
        let b = reopened
            .try_s_query(q, Algorithm::SqmbTbs)
            .expect("s-query");
        assert_eq!(
            a.region.segments, b.region.segments,
            "query #{i}: standalone reopen diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A cold open under the open hook is a pure read-path substitution: on
/// a fresh open (nothing cleared, nothing reset) the query sweep answers
/// bit-identically to the built engine on both algorithms, every physical
/// page read passes through the hook, and the per-query decode accounting
/// shows the compressed heap expanding at least 1.5x.
#[test]
fn cold_open_sweep_answers_bit_identically_to_the_built_engine() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("cold-open-sweep");
    let center = network.bounds().center();
    let built = streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build();
    built.save_snapshot(&dir).expect("save snapshot");
    let (cold, hook) = open_with_fault_script(&dir, network.clone(), fault_seed());

    for (i, q) in squery_suite(center).iter().enumerate() {
        for algo in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
            let a = built.try_s_query(q, algo).expect("s-query");
            let b = cold.try_s_query(q, algo).expect("s-query");
            assert_eq!(
                a.region.segments, b.region.segments,
                "query #{i} ({algo:?}): cold open's region diverged"
            );
            assert_eq!(
                a.region.total_length_km.to_bits(),
                b.region.total_length_km.to_bits(),
                "query #{i} ({algo:?}): cold open's length diverged"
            );
        }
    }

    let io = cold.st_index().io_stats().snapshot();
    assert!(io.page_reads > 0, "a cold sweep reads pages");
    assert_eq!(
        hook.reads_observed(),
        io.page_reads,
        "every physical page read passes through the open hook"
    );
    // The default heap is compressed: the verifier's decode accounting must
    // show at least 1.5x more decoded (fixed-width-equivalent) bytes than
    // resident bytes over the same sweep.
    assert!(
        io.bytes_resident > 0 && io.decode_ratio() >= 1.5,
        "decode ratio {:.3} below 1.5 (decoded {} vs resident {})",
        io.decode_ratio(),
        io.bytes_decoded,
        io.bytes_resident
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Threads race on the same untouched slots of a freshly opened engine —
/// four of them start the same pool walk at once, so every slot's first
/// touch is contended — and every answer is bit-identical to the built
/// engine's.
#[test]
fn racing_first_touches_answer_like_the_built_engine() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("racing-first-touch");
    let built = streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build();
    built.save_snapshot(&dir).expect("save snapshot");
    let center = network.bounds().center();
    let locations = [
        center,
        center.offset_m(1500.0, -900.0),
        center.offset_m(-1200.0, 600.0),
    ];
    let pool = pool(&locations, &locations[..2]);
    let expected = pool_answers(&built, &pool);

    let engine = ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("open snapshot");
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for thread in 0..4 {
            let (engine, pool, expected, start) = (&engine, &pool, &expected, &start);
            scope.spawn(move || {
                streach_par::with_worker_override(1, || {
                    start.wait();
                    for (i, want) in expected.iter().enumerate() {
                        let got = run_pool_entry(engine, pool, i)
                            .unwrap_or_else(|e| panic!("thread {thread}: #{i}: {e}"));
                        assert_eq!(&got, want, "thread {thread}: pool entry #{i}");
                    }
                })
            });
        }
    });
    engine.scrub().expect("an intact snapshot scrubs clean");
    std::fs::remove_dir_all(&dir).ok();
}

/// One flipped byte inside one slot's directory chunk and one inside
/// another slot's speed row: every query that touches either slot fails,
/// typed and naming the section and slot, and fails again on retry; every
/// other query answers bit-identically. An ingest that touches either
/// fails before anything is logged or applied.
#[test]
fn a_damaged_slot_fails_every_query_that_touches_it() {
    const DIR_SLOT: u32 = 108; // 09:00
    const ROW_SLOT: u32 = 146; // 12:10

    let (network, dataset) = build_inputs();
    let dir = tmp_dir("damaged-slot");
    let built = streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(IndexConfig::default())
        .build();
    built.save_snapshot(&dir).expect("save snapshot");
    let slot_s = IndexConfig::default().slot_s;

    // Locate both chunks through the documented heads and flip a byte in
    // the middle of each.
    let container = dir.join(streach::core::snapshot::CONTAINER_FILE);
    let reader = SnapshotReader::open(&container).unwrap();
    let u32_at = |r: &[u8], at: usize| u32::from_le_bytes(r[at..at + 4].try_into().unwrap()) as u64;
    let u64_at = |r: &[u8], at: usize| u64::from_le_bytes(r[at..at + 8].try_into().unwrap());
    let record = reader.section("st_index").unwrap()[ST_INDEX_HEAD_LEN..]
        .chunks(ST_INDEX_SLOT_LEN)
        .find(|r| u32_at(r, 0) == DIR_SLOT as u64)
        .expect("the fleet drives at 09:00")
        .to_vec();
    let dir_at = reader.section_range("st_index_slots").unwrap().start
        + u64_at(&record, 20)
        + u32_at(&record, 28) / 2;
    let row = &reader.section("speed_stats").unwrap()[24 + 16 * ROW_SLOT as usize..];
    let row_at = reader.section_range("speed_stats_rows").unwrap().start
        + u64_at(row, 0)
        + u32_at(row, 8) / 2;
    drop(reader);
    let mut bytes = std::fs::read(&container).unwrap();
    bytes[dir_at as usize] ^= 0x08;
    bytes[row_at as usize] ^= 0x08;
    std::fs::write(&container, &bytes).unwrap();

    let engine = ReachabilityEngine::open_snapshot(&dir, network.clone())
        .expect("a damaged chunk is not read at open");
    let location = network.bounds().center();
    let (mut failed, mut answered) = (0, 0);
    for start_time_s in (8 * 3600..13 * 3600).step_by(1200) {
        for duration_s in [300u32, 900] {
            for algo in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
                let q = SQuery {
                    location,
                    start_time_s,
                    duration_s,
                    prob: 0.25,
                };
                let first = start_time_s / slot_s;
                let last = (start_time_s + duration_s.max(slot_s) - 1) / slot_s;
                let touches_dir = (first..=last).contains(&DIR_SLOT);
                let touches_row = algo == Algorithm::SqmbTbs
                    && (0..duration_s.div_ceil(slot_s))
                        .any(|k| (start_time_s + k * slot_s) / slot_s == ROW_SLOT);
                let label = format!("T={start_time_s} L={duration_s} {algo:?}");
                for attempt in 0..2 {
                    match engine.try_s_query(&q, algo) {
                        Ok(outcome) => {
                            assert!(!touches_dir && !touches_row, "{label}: answered");
                            let want = built.try_s_query(&q, algo).unwrap();
                            assert_eq!(answer_of(&outcome), answer_of(&want), "{label}");
                            answered += 1;
                        }
                        Err(QueryError::Storage { context, .. }) => {
                            let needle = if touches_dir {
                                format!("st_index_slots slot {DIR_SLOT}")
                            } else {
                                assert!(touches_row, "{label}: failed: {context}");
                                format!("speed_stats_rows slot {ROW_SLOT}")
                            };
                            assert!(context.contains(&needle), "{label} #{attempt}: {context}");
                            failed += 1;
                        }
                        Err(e) => panic!("{label}: unexpected error {e}"),
                    }
                }
            }
        }
    }
    assert!(
        failed >= 6 && answered >= 6,
        "{failed} failed, {answered} answered"
    );

    // Ingest: a batch into the damaged directory slot, and one whose speed
    // pair lands in the damaged row, each fail with nothing logged and
    // nothing applied; a batch clear of both applies.
    engine
        .attach_wal(dir.join("ingest.wal"))
        .expect("attach WAL");
    let before = (engine.wal_position(), engine.st_index().delta_stats());
    let point = |traj_id, segment, enter_time_s| TrajPoint {
        traj_id,
        date: 0,
        segment: SegmentId(segment),
        enter_time_s,
    };
    for (batch, needle) in [
        (
            vec![point(900_000, 3, DIR_SLOT * slot_s + 10)],
            "st_index_slots slot 108",
        ),
        (
            vec![
                point(900_001, 3, ROW_SLOT * slot_s + 10),
                point(900_001, 4, ROW_SLOT * slot_s + 70),
            ],
            "speed_stats_rows slot 146",
        ),
    ] {
        for _ in 0..2 {
            match engine.ingest(&batch) {
                Err(StorageError::Corrupt { context }) => {
                    assert!(context.contains(needle), "{context}")
                }
                other => panic!(
                    "expected Corrupt naming {needle}, got {:?}",
                    other.map(|_| ())
                ),
            }
            assert_eq!(engine.wal_position(), before.0, "{needle}: the WAL moved");
            assert_eq!(
                engine.st_index().delta_stats(),
                before.1,
                "{needle}: the delta moved"
            );
        }
    }
    engine
        .ingest(&[point(900_002, 3, 200 * slot_s)])
        .expect("a batch clear of the damage applies");
    assert_eq!(engine.wal_position().1, before.0 .1 + 1);
    std::fs::remove_dir_all(&dir).ok();
}
