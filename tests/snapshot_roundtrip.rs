//! Engine snapshot round-trip suite: build → save → open must answer a
//! fixed query workload **bit-identically** to the freshly built engine,
//! with genuine page I/O on the cold open — plus loud rejection of
//! corrupted, truncated and mismatched snapshots.

use std::sync::Arc;

use streach::prelude::*;
use streach::storage::StorageError;
use streach_testkit::{config, tmp_dir};

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
        .index_config(config())
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
    // bytes per time list: fixed-width entries would blow this budget.
    let container =
        streach::storage::SnapshotReader::open(dir.join(streach::core::snapshot::CONTAINER_FILE))
            .unwrap();
    let st_index_bytes = container.section("st_index").unwrap().len();
    let slots = reopened.st_index().populated_slots().count();
    let lists = reopened.st_index().stats().num_time_lists as usize;
    let budget = 64 + 8 * slots + 3 * lists;
    assert!(
        st_index_bytes <= budget,
        "st_index section is {st_index_bytes} bytes, over the budget of {budget} \
         ({slots} slots, {lists} time lists)"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_container_is_rejected() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("corrupt");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(config())
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
        .index_config(config())
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

    // Bit rot inside a posting page (length intact) must also be caught —
    // the container pins the page file's CRC.
    let mut rotten = bytes.clone();
    let mid = rotten.len() / 2;
    rotten[mid] ^= 0x40;
    std::fs::write(&pages, &rotten).unwrap();
    assert!(matches!(
        ReachabilityEngine::open_snapshot(&dir, network.clone()),
        Err(StorageError::Corrupt { .. })
    ));

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
        .index_config(config())
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
        .index_config(config())
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
        .index_config(config())
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

/// Corruption matrix: one flipped byte in **every named section** of
/// `index.snap` (plus the magic, version, section count and trailing seal)
/// and in a sampled sweep of `postings.pages` offsets must each be rejected
/// at open with a descriptive `StorageError::Corrupt` — no flipped byte
/// anywhere in a snapshot may ever reach query processing.
#[test]
fn corruption_matrix_every_container_section_and_sampled_page_bytes() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("corruption-matrix");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(config())
        .save_snapshot(&dir)
        .expect("save snapshot");

    let container = dir.join(streach::core::snapshot::CONTAINER_FILE);
    let clean = std::fs::read(&container).unwrap();

    // Walk the documented container layout (magic, version, count, then
    // [name_len u16][name][payload_len u64][payload crc u32][payload]) to
    // find one byte inside every section's payload and header.
    let mut targets: Vec<(String, usize)> = vec![
        ("magic".into(), 2),
        ("version".into(), 8),
        ("section-count".into(), 12),
        ("file-seal".into(), clean.len() - 2),
    ];
    let section_count = u32::from_le_bytes(clean[12..16].try_into().unwrap()) as usize;
    let mut cursor = 16usize;
    for _ in 0..section_count {
        let name_len = u16::from_le_bytes(clean[cursor..cursor + 2].try_into().unwrap()) as usize;
        let name = String::from_utf8(clean[cursor + 2..cursor + 2 + name_len].to_vec()).unwrap();
        let payload_len = u64::from_le_bytes(
            clean[cursor + 2 + name_len..cursor + 10 + name_len]
                .try_into()
                .unwrap(),
        ) as usize;
        let payload_start = cursor + 14 + name_len;
        // One byte in each section-header field after the name length —
        // name, payload length, CRC — and, for non-empty sections, one byte
        // in the middle of the payload. A flipped name still parses; only
        // the file seal, which covers the header bytes too, can catch it.
        targets.push((format!("{name}:name"), cursor + 2));
        targets.push((format!("{name}:payload-len"), cursor + 2 + name_len));
        targets.push((format!("{name}:header-crc"), cursor + 10 + name_len));
        if payload_len > 0 {
            targets.push((format!("{name}:payload"), payload_start + payload_len / 2));
        }
        cursor = payload_start + payload_len;
    }
    let known: Vec<&str> = targets.iter().map(|(n, _)| n.as_str()).collect();
    for expected in [
        "config:payload",
        "network:payload",
        "pages_meta:payload",
        "st_index:payload",
        "speed_stats:payload",
    ] {
        assert!(
            known.contains(&expected),
            "container is missing section target {expected} (found {known:?})"
        );
    }

    for (name, offset) in targets {
        let mut bad = clean.clone();
        bad[offset] ^= 0x20;
        std::fs::write(&container, &bad).unwrap();
        match ReachabilityEngine::open_snapshot(&dir, network.clone()) {
            Err(StorageError::Corrupt { context }) => assert!(
                !context.is_empty(),
                "corruption in {name} must come with a description"
            ),
            Err(StorageError::UnsupportedVersion { .. }) if name == "version" => {}
            Err(e) => panic!("corruption in {name} (offset {offset}): unexpected error {e}"),
            Ok(_) => panic!("corruption in {name} (offset {offset}) was not rejected"),
        }
    }
    std::fs::write(&container, &clean).unwrap();

    // The page file: a flipped byte at a spread of offsets (page starts,
    // mid-page, page ends, EOF) under a clean container is caught by the
    // pages CRC pinned in the container. That check runs on its own thread
    // beside the section decode; its error must still be the one returned.
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
        match ReachabilityEngine::open_snapshot(&dir, network.clone()) {
            Err(StorageError::Corrupt { context }) => assert!(
                context.contains("posting page file checksum"),
                "page flip at {offset}: error does not name the checksum: {context}"
            ),
            Err(e) => panic!("page flip at {offset}: unexpected error {e}"),
            Ok(_) => panic!("page flip at offset {offset} was not rejected at open"),
        }
    }
    std::fs::write(&pages, &clean_pages).unwrap();
    assert!(
        ReachabilityEngine::open_snapshot(&dir, network).is_ok(),
        "restored snapshot must open again"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = streach::storage::Crc32::new();
    crc.update(bytes);
    crc.finalize()
}

/// Dense flip sweep over the compressed posting heap: the default encoding
/// is delta/varint, so `postings.pages` holds compressed blobs — a flipped
/// byte inside one must surface as `Corrupt` at open (the container pins
/// the page file's CRC), never as a silently shorter or shifted list.
/// (Decode-level strictness *past* the CRC — torn pages handed straight to
/// the decoder — is pinned by the storage unit suite and the torn-page
/// fault campaign.)
#[test]
fn flips_inside_compressed_blobs_surface_as_corrupt() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("compressed-flips");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(config())
        .save_snapshot(&dir)
        .expect("save snapshot");

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
            match ReachabilityEngine::open_snapshot(&dir, network.clone()) {
                Err(StorageError::Corrupt { .. }) => {}
                Err(e) => panic!("flip {mask:#04x} at {offset}: unexpected error {e}"),
                Ok(_) => panic!("flip {mask:#04x} at offset {offset} was not rejected"),
            }
        }
    }
    std::fs::write(&pages, &clean_pages).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites the container's version field and reseals the file checksum,
/// leaving every section as saved.
fn reseal_as_version(container: &std::path::Path, version: u32) {
    let mut bytes = std::fs::read(container).unwrap();
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    let body_len = bytes.len() - 4;
    let seal = crc32(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&seal.to_le_bytes());
    std::fs::write(container, &bytes).unwrap();
}

/// There is one container version: a resealed v6 container — an otherwise
/// intact, self-contained save — is `UnsupportedVersion` from every open
/// path, never misread and never reported as damage.
#[test]
fn v6_snapshot_is_rejected_as_unsupported() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("v6-rejected");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(config())
        .build()
        .save_snapshot_self_contained(&dir)
        .expect("save snapshot");
    reseal_as_version(&dir.join(streach::core::snapshot::CONTAINER_FILE), 6);

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
            Err(StorageError::UnsupportedVersion { found: 6, expected }) => {
                assert_eq!(expected, streach::storage::SNAPSHOT_VERSION, "{what}")
            }
            Err(e) => panic!("{what}: expected UnsupportedVersion, got {e}"),
            Ok(_) => panic!("{what}: a v6 snapshot must not open"),
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
        .index_config(config())
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

/// Rewrites the container with `name`'s payload replaced and every other
/// section as saved, sealed like a genuine save.
fn reseal_with_section(container: &std::path::Path, name: &str, payload: Vec<u8>) {
    use streach::storage::{SnapshotReader, SnapshotWriter};

    let reader = SnapshotReader::open(container).unwrap();
    let mut writer = SnapshotWriter::new();
    for section in reader.section_names() {
        let bytes = if section == name {
            payload.clone()
        } else {
            reader.section(section).unwrap().to_vec()
        };
        writer.add_section(section, bytes);
    }
    writer.finish(container).unwrap();
}

/// Byte length of the fixed-width head of the `st_index` section; its last
/// four bytes are the slot count.
const ST_INDEX_HEAD_LEN: usize = 50;

/// The temporal directory as (slot, [(segment, blob len)]); the offsets
/// are implied by the order.
type Directory = Vec<(u32, Vec<(u32, u32)>)>;

/// Splits an `st_index` payload into its fixed-width head and directory.
fn split_st_index(payload: &[u8]) -> (Vec<u8>, Directory) {
    let varint = |buf: &mut &[u8]| streach::storage::get_varint_u32(buf).expect("varint");
    let (head, mut body) = payload.split_at(ST_INDEX_HEAD_LEN);
    let num_slots = u32::from_le_bytes(head[ST_INDEX_HEAD_LEN - 4..].try_into().unwrap());
    let directory = (0..num_slots)
        .map(|_| {
            let slot = varint(&mut body);
            let count = varint(&mut body);
            let mut segment = 0;
            let entries = (0..count)
                .map(|i| {
                    let step = varint(&mut body);
                    segment = if i == 0 { step } else { segment + step };
                    (segment, varint(&mut body))
                })
                .collect();
            (slot, entries)
        })
        .collect();
    assert!(body.is_empty(), "st_index payload has trailing bytes");
    (head.to_vec(), directory)
}

/// Encodes a head and directory back into an `st_index` payload.
fn join_st_index(head: &[u8], directory: &Directory) -> Vec<u8> {
    use streach::storage::put_varint_u32;

    let mut out = head.to_vec();
    for (slot, entries) in directory {
        put_varint_u32(&mut out, *slot);
        put_varint_u32(&mut out, entries.len() as u32);
        let mut prev = None;
        for &(segment, len) in entries {
            put_varint_u32(&mut out, prev.map_or(segment, |p| segment.wrapping_sub(p)));
            put_varint_u32(&mut out, len);
            prev = Some(segment);
        }
    }
    out
}

/// A real container whose `st_index` directory was edited — and resealed,
/// so every checksum holds — must fail `open_snapshot` as a typed
/// `Corrupt` naming the section, never panic and never open.
#[test]
fn edited_st_index_directories_fail_open_typed() {
    let (network, dataset) = build_inputs();
    let dir = tmp_dir("edited-st-index");
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(config())
        .save_snapshot(&dir)
        .expect("save snapshot");
    let container = dir.join(streach::core::snapshot::CONTAINER_FILE);
    let clean = std::fs::read(&container).unwrap();
    let payload = streach::storage::SnapshotReader::parse(clean.clone())
        .unwrap()
        .section("st_index")
        .unwrap()
        .to_vec();
    let (head, directory) = split_st_index(&payload);
    assert_eq!(
        join_st_index(&head, &directory),
        payload,
        "the test's directory codec must reproduce the saved bytes"
    );
    // The unedited payload, resealed the same way, still opens.
    reseal_with_section(&container, "st_index", payload.clone());
    ReachabilityEngine::open_snapshot(&dir, network.clone()).expect("resealed clean payload");

    let slots_per_day = 86_400u32.div_ceil(config().slot_s);
    let edit = |change: &dyn Fn(&mut Directory)| {
        let mut edited = directory.clone();
        change(&mut edited);
        join_st_index(&head, &edited)
    };
    // A slot with at least two entries, for the in-slot edits.
    let multi = directory
        .iter()
        .position(|(_, entries)| entries.len() >= 2)
        .expect("some slot holds two time lists");
    let overlong = {
        // The first slot number, re-encoded with one redundant byte.
        let mut canonical = Vec::new();
        streach::storage::put_varint_u32(&mut canonical, directory[0].0);
        let mut bytes = payload[..ST_INDEX_HEAD_LEN].to_vec();
        bytes.extend_from_slice(&canonical);
        *bytes.last_mut().unwrap() |= 0x80;
        bytes.push(0x00);
        bytes.extend_from_slice(&payload[ST_INDEX_HEAD_LEN + canonical.len()..]);
        bytes
    };
    let cases: Vec<(&str, Vec<u8>)> = vec![
        (
            "last len one short of the tail",
            edit(&|d| {
                let last = d.last_mut().unwrap().1.last_mut().unwrap();
                assert!(last.1 > 1, "a time list blob is longer than one byte");
                last.1 -= 1;
            }),
        ),
        (
            "last len one past the tail",
            edit(&|d| d.last_mut().unwrap().1.last_mut().unwrap().1 += 1),
        ),
        (
            "zero segment gap",
            edit(&|d| d[multi].1[1].0 = d[multi].1[0].0),
        ),
        (
            "slot outside the day",
            edit(&|d| d.last_mut().unwrap().0 = slots_per_day),
        ),
        (
            "zero len (total kept)",
            edit(&|d| {
                let moved = std::mem::take(&mut d[multi].1[0].1);
                d[multi].1[1].1 += moved;
            }),
        ),
        ("overlong varint", overlong),
    ];
    for (what, edited) in cases {
        assert_ne!(edited, payload, "{what}: the edit changed nothing");
        reseal_with_section(&container, "st_index", edited);
        match ReachabilityEngine::open_snapshot(&dir, network.clone()) {
            Err(StorageError::Corrupt { context }) => {
                assert!(context.contains("st_index"), "{what}: {context}")
            }
            Err(e) => panic!("{what}: expected Corrupt, got {e}"),
            Ok(_) => panic!("{what}: an edited directory must not open"),
        }
    }
    std::fs::write(&container, &clean).unwrap();
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
        .index_config(config())
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

/// The mmap backend must be a pure read-path substitution: same snapshot,
/// same queries, bit-identical regions and lengths — and the per-query
/// decode accounting shows the compressed heap expanding at least 1.5x.
#[test]
fn mmap_backend_answers_bit_identically_to_file_backend() {
    use streach::storage::StorageBackend;

    let (network, dataset) = build_inputs();
    let dir = tmp_dir("mmap-vs-file");
    let center = network.bounds().center();
    streach::core::EngineBuilder::new(network.clone(), &dataset)
        .index_config(config())
        .save_snapshot(&dir)
        .expect("save snapshot");

    let file =
        ReachabilityEngine::open_snapshot_with_backend(&dir, network.clone(), StorageBackend::File)
            .expect("open with file backend");
    let mmap =
        ReachabilityEngine::open_snapshot_with_backend(&dir, network.clone(), StorageBackend::Mmap)
            .expect("open with mmap backend");

    for (i, q) in squery_suite(center).iter().enumerate() {
        for algo in [Algorithm::SqmbTbs, Algorithm::ExhaustiveSearch] {
            let a = file.try_s_query(q, algo).expect("s-query");
            let b = mmap.try_s_query(q, algo).expect("s-query");
            assert_eq!(
                a.region.segments, b.region.segments,
                "query #{i} ({algo:?}): mmap region diverged from file"
            );
            assert_eq!(
                a.region.total_length_km.to_bits(),
                b.region.total_length_km.to_bits(),
                "query #{i} ({algo:?}): mmap length diverged from file"
            );
        }
    }

    // The default heap is compressed: the verifier's decode accounting must
    // show at least 1.5x more decoded (fixed-width-equivalent) bytes than
    // resident bytes over the same sweep.
    let io = mmap.st_index().io_stats().snapshot();
    assert!(
        io.bytes_resident > 0 && io.decode_ratio() >= 1.5,
        "decode ratio {:.3} below 1.5 (decoded {} vs resident {})",
        io.decode_ratio(),
        io.bytes_decoded,
        io.bytes_resident
    );
    std::fs::remove_dir_all(&dir).ok();
}
