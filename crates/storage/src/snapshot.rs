//! The on-disk snapshot container format.
//!
//! An engine snapshot is a directory with two files: a page file holding the
//! raw posting pages (read back through [`crate::FilePageStore`]) and a
//! *snapshot container* holding everything else — index directories, speed
//! statistics, configuration — as named, checksummed sections.
//!
//! # Layout
//!
//! ```text
//! [magic "STRSNAP\0" : 8 bytes]
//! [format version    : u32 LE]
//! [section count     : u32 LE]
//! per section:
//!     [name length   : u16 LE]
//!     [name          : UTF-8 bytes]
//!     [payload length: u64 LE]
//!     [payload CRC-32: u32 LE]
//!     [payload bytes]
//! [file CRC-32       : u32 LE]   -- over everything before it
//! ```
//!
//! Every payload carries its own CRC-32 (IEEE), and the whole file is sealed
//! by a trailing CRC, so truncation, bit rot and foreign files are all
//! rejected with [`StorageError::Corrupt`] instead of being deserialized
//! into garbage. A version bump turns old files into
//! [`StorageError::UnsupportedVersion`] — never a silent misread.
//!
//! # One checksum pass per byte
//!
//! Both checks stay, but each byte is checksummed once. The reader walks the
//! sections, computes each payload's CRC and compares it with the section
//! header; it then folds that same CRC — and the CRC of the few header bytes
//! before it — into the running seal with `crc32_combine` instead of
//! re-reading the payload. After the last section the folded value *is*
//! `crc32(everything before the seal)`, and is compared with the trailer.
//! [`SnapshotWriter::finish`] builds the seal the same way.
//!
//! `crc32_combine` is exact, not an approximation. Without its init value
//! and final xor, a CRC is the remainder of the message polynomial times
//! `x^32` modulo the generator `P`, so it is linear over GF(2). Appending `B`
//! to `A` multiplies `A`'s polynomial by `x^(8·|B|)`, hence
//! `crc(A‖B) = crc(A)·x^(8·|B|) ⊕ crc(B) (mod P)`. The init value and the
//! final xor are both all-ones of the register width and cancel in that
//! identity (the init term of `B` absorbs `A`'s final xor), so the same
//! formula holds for the standard CRC-32 — zlib's `crc32_combine` relies on
//! it too. `x^(8n) mod P` is computed by square-and-multiply from a table of
//! `x^(2^k) mod P`, so a combine costs `O(log n)` 32-bit products, whatever
//! the payload size.
//!
//! An unknown version may lay its sections out differently, so such a file
//! is judged by the seal alone (one pass over the body): a sealed file
//! reports [`StorageError::UnsupportedVersion`], a damaged one
//! [`StorageError::Corrupt`].

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;

use bytes::{Buf, BufMut};

use crate::pagestore::{StorageError, StorageResult};

#[cfg(target_arch = "x86_64")]
mod clmul;

/// Magic bytes opening every snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"STRSNAP\0";

/// Snapshot format version written by this build — the only one it reads.
pub const SNAPSHOT_VERSION: u32 = 7;

/// Oldest snapshot format version this build reads: older containers fail
/// with [`StorageError::UnsupportedVersion`]; there is no converter.
pub const MIN_SNAPSHOT_VERSION: u32 = SNAPSHOT_VERSION;

/// The CRC-32 (IEEE 802.3) generator polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 lookup tables. `TABLES[0][b]` is the register after shifting
/// byte `b` through eight bitwise steps; `TABLES[k][b]` is that value pushed
/// through `k` further zero bytes, so sixteen input bytes fold into the
/// register with sixteen independent lookups.
static TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 (IEEE 802.3, reflected) accumulator. Implemented
/// locally — the offline build has no checksum crate. On x86_64 CPUs with
/// `PCLMULQDQ` (detected at run time) whole 16-byte blocks go through a
/// carry-less-multiply fold at ~8 GB/s (module `clmul`); table-driven
/// slice-by-16 (~1.8 GB/s) finishes the sub-16-byte tail and serves every
/// other CPU. Both give the same register for the same bytes, and the tests
/// below pin both against the standard check value and a bitwise oracle.
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh accumulator.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let (crc, bytes) = clmul::update(self.state, bytes);
        #[cfg(not(target_arch = "x86_64"))]
        let crc = self.state;
        self.state = table_update(crc, bytes);
    }

    /// Returns the checksum of everything fed so far.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// Slice-by-16: feeds `bytes` into the CRC register `crc`.
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for c in blocks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes` in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finalize()
}

/// `a · b mod P` over GF(2), both operands in the reflected representation
/// (bit 31 is the coefficient of `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut i = 0;
    while i < 32 {
        if a & (1 << (31 - i)) != 0 {
            product ^= b;
        }
        // b ← b · x mod P.
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
        i += 1;
    }
    product
}

/// `X2N[k] = x^(2^k) mod P`. The multiplicative order of `x` divides
/// `2^32 − 1`, so `x^(2^32) = x` and the table repeats with period 32.
static X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    table[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 32 {
        table[k] = multmodp(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// `x^(8·len) mod P`: the factor that shifts a CRC past `len` bytes.
fn x8nmodp(mut len: u64) -> u32 {
    let mut p = 1 << 31; // x^0
    let mut k = 3; // 8·len = len · 2^3
    while len != 0 {
        if len & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        len >>= 1;
        k += 1;
    }
    p
}

/// `crc32(A‖B)` from `crc32(A)`, `crc32(B)` and `|B|`, without touching the
/// bytes (see the module docs for why this is exact).
fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x8nmodp(len_b), crc_a) ^ crc_b
}

/// Writes a snapshot container: named sections appended in order, sealed by
/// [`SnapshotWriter::finish`].
pub struct SnapshotWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts an empty container.
    pub fn new() -> Self {
        Self {
            sections: Vec::new(),
        }
    }

    /// Appends a named section. Names must be unique within one container:
    /// the reader rejects a container with a repeated name as corrupt.
    pub fn add_section(&mut self, name: &str, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate snapshot section {name}"
        );
        self.sections.push((name.to_string(), payload));
    }

    /// Serializes the container to `path` and fsyncs it. Each payload is
    /// checksummed once; its CRC goes into the section header and is folded
    /// into the file seal.
    pub fn finish<P: AsRef<Path>>(self, path: P) -> StorageResult<()> {
        let mut out = BufWriter::new(File::create(path)?);
        let mut header: Vec<u8> = Vec::with_capacity(64);
        header.put_slice(&SNAPSHOT_MAGIC);
        header.put_u32_le(SNAPSHOT_VERSION);
        header.put_u32_le(self.sections.len() as u32);
        let mut seal = crc32(&header);
        out.write_all(&header)?;
        for (name, payload) in &self.sections {
            let payload_crc = crc32(payload);
            header.clear();
            header.put_u16_le(name.len() as u16);
            header.put_slice(name.as_bytes());
            header.put_u64_le(payload.len() as u64);
            header.put_u32_le(payload_crc);
            seal = crc32_combine(seal, crc32(&header), header.len() as u64);
            seal = crc32_combine(seal, payload_crc, payload.len() as u64);
            out.write_all(&header)?;
            out.write_all(payload)?;
        }
        out.write_all(&seal.to_le_bytes())?;
        let file = out.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        Ok(())
    }
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Reads and validates a snapshot container into memory. The reader keeps
/// the one buffer it validated; sections are borrowed slices of it.
pub struct SnapshotReader {
    bytes: Vec<u8>,
    sections: Vec<(String, Range<usize>)>,
}

impl SnapshotReader {
    /// Opens, checksums and parses the container at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let path = path.as_ref();
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::parse(bytes).map_err(|e| match e {
            StorageError::Corrupt { context } => StorageError::Corrupt {
                context: format!("{}: {context}", path.display()),
            },
            other => other,
        })
    }

    /// Parses a container held in memory, checking the file seal and every
    /// section's CRC in one pass over the bytes.
    pub fn parse(bytes: Vec<u8>) -> StorageResult<Self> {
        let header_len = SNAPSHOT_MAGIC.len() + 4 + 4;
        if bytes.len() < header_len + 4 {
            return Err(StorageError::corrupt("snapshot shorter than its header"));
        }
        let (body, seal) = bytes.split_at(bytes.len() - 4);
        let expected_seal = u32::from_le_bytes(seal.try_into().expect("4 bytes"));
        let seal_mismatch =
            || StorageError::corrupt("file checksum mismatch (truncated or corrupted snapshot)");

        let mut cursor: &[u8] = body;
        let mut magic = [0u8; 8];
        cursor.copy_to_slice(&mut magic);
        if magic != SNAPSHOT_MAGIC {
            return Err(StorageError::corrupt("bad snapshot magic"));
        }
        let version = cursor.get_u32_le();
        if version != SNAPSHOT_VERSION {
            if crc32(body) != expected_seal {
                return Err(seal_mismatch());
            }
            return Err(StorageError::UnsupportedVersion {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let count = cursor.get_u32_le() as usize;
        let mut seal = crc32(&body[..header_len]);
        let offset = |cursor: &[u8]| body.len() - cursor.remaining();
        // The count is attacker-controlled until each section proves itself;
        // never pre-allocate more than the remaining bytes could hold (a
        // section is at least 14 bytes: name length + payload length + CRC).
        let mut sections: Vec<(String, Range<usize>)> =
            Vec::with_capacity(count.min(cursor.remaining() / 14));
        for i in 0..count {
            let header_start = offset(cursor);
            if cursor.remaining() < 2 {
                return Err(StorageError::corrupt(format!("section {i}: missing name")));
            }
            let name_len = cursor.get_u16_le() as usize;
            if cursor.remaining() < name_len + 12 {
                return Err(StorageError::corrupt(format!("section {i}: truncated")));
            }
            let name = std::str::from_utf8(&cursor[..name_len])
                .map_err(|_| StorageError::corrupt(format!("section {i}: non-UTF-8 name")))?;
            cursor.advance(name_len);
            let payload_len = cursor.get_u64_le();
            let payload_crc = cursor.get_u32_le();
            if (cursor.remaining() as u64) < payload_len {
                return Err(StorageError::corrupt(format!(
                    "section {name}: payload truncated"
                )));
            }
            let payload_start = offset(cursor);
            let payload = payload_start..payload_start + payload_len as usize;
            let crc = crc32(&body[payload.clone()]);
            if crc != payload_crc {
                return Err(StorageError::corrupt(format!(
                    "section {name}: checksum mismatch"
                )));
            }
            if sections.iter().any(|(n, _)| n == name) {
                return Err(StorageError::corrupt(format!(
                    "section {name}: duplicate section name"
                )));
            }
            let header = &body[header_start..payload_start];
            seal = crc32_combine(seal, crc32(header), header.len() as u64);
            seal = crc32_combine(seal, crc, payload_len);
            cursor.advance(payload.len());
            sections.push((name.to_string(), payload));
        }
        if cursor.remaining() != 0 {
            return Err(StorageError::corrupt("trailing bytes after last section"));
        }
        if seal != expected_seal {
            return Err(seal_mismatch());
        }
        Ok(Self { bytes, sections })
    }

    /// Names of the sections in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// The payload of a named section, or a [`StorageError::Corrupt`]
    /// explaining which section is missing.
    pub fn section(&self, name: &str) -> StorageResult<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, range)| &self.bytes[range.clone()])
            .ok_or_else(|| StorageError::corrupt(format!("missing snapshot section {name}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_standard_check_value() {
        // The canonical CRC-32/IEEE check: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming in pieces equals one shot.
        let mut streamed = Crc32::new();
        streamed.update(b"1234");
        streamed.update(b"");
        streamed.update(b"56789");
        assert_eq!(streamed.finalize(), 0xCBF4_3926);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("streach-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn writer_reader_roundtrip() {
        let path = tmp("roundtrip.snap");
        let mut w = SnapshotWriter::new();
        w.add_section("alpha", b"hello".to_vec());
        w.add_section("beta", vec![7u8; 10_000]);
        w.add_section("empty", Vec::new());
        w.finish(&path).unwrap();

        let r = SnapshotReader::open(&path).unwrap();
        assert_eq!(
            r.section_names().collect::<Vec<_>>(),
            vec!["alpha", "beta", "empty"]
        );
        assert_eq!(r.section("alpha").unwrap(), b"hello");
        assert_eq!(r.section("beta").unwrap(), &[7u8; 10_000][..]);
        assert_eq!(r.section("empty").unwrap(), b"");
        assert!(matches!(
            r.section("gamma"),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = tmp("truncated.snap");
        let mut w = SnapshotWriter::new();
        w.add_section("data", vec![42u8; 5000]);
        w.finish(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10, 0] {
            assert!(
                matches!(
                    SnapshotReader::parse(bytes[..cut].to_vec()),
                    Err(StorageError::Corrupt { .. })
                ),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn corrupted_header_and_payload_are_rejected() {
        let path = tmp("corrupt.snap");
        let mut w = SnapshotWriter::new();
        w.add_section("data", b"payload-bytes".to_vec());
        w.finish(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Flip a magic byte.
        let mut bad = clean.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            SnapshotReader::parse(bad),
            Err(StorageError::Corrupt { .. })
        ));

        // Flip a payload byte (both the section CRC and the seal catch it).
        let mut bad = clean.clone();
        let n = bad.len();
        bad[n - 10] ^= 0x01;
        assert!(matches!(
            SnapshotReader::parse(bad),
            Err(StorageError::Corrupt { .. })
        ));

        // Every byte, header fields included: a flipped section name still
        // parses structurally, so only the seal folded over the header
        // bytes rejects it.
        for offset in 0..clean.len() {
            for mask in [0x01u8, 0x20, 0x80] {
                let mut bad = clean.clone();
                bad[offset] ^= mask;
                assert!(
                    matches!(
                        SnapshotReader::parse(bad),
                        Err(StorageError::Corrupt { .. })
                    ),
                    "flip {mask:#04x} at offset {offset} was not rejected"
                );
            }
        }
    }

    #[test]
    fn future_version_is_rejected_as_unsupported() {
        let path = tmp("version.snap");
        let mut w = SnapshotWriter::new();
        w.add_section("data", b"x".to_vec());
        w.finish(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Bump the version field and re-seal the file checksum.
        bytes[8] = 99;
        let n = bytes.len();
        let seal = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&seal.to_le_bytes());
        assert!(matches!(
            SnapshotReader::parse(bytes.clone()),
            Err(StorageError::UnsupportedVersion { found: 99, .. })
        ));
        // An unknown version with a broken seal is damage, not a new format.
        bytes[n - 6] ^= 0x01;
        assert!(matches!(
            SnapshotReader::parse(bytes),
            Err(StorageError::Corrupt { .. })
        ));
    }

    /// The textbook bit-at-a-time CRC-32: the oracle the table-driven
    /// implementation must equal on every input.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// Checks `crc` against the bitwise oracle at every length 0..=1024 and
    /// at 4095, 4096, 4097 and 1 MiB + 3 bytes, each from 16 start offsets.
    fn assert_matches_oracle(what: &str, crc: impl Fn(&[u8]) -> u32) {
        let long = (1 << 20) + 3;
        let data = random_bytes(0x5eed, 16 + long);
        for start in 0..16 {
            // Grow the oracle's register one byte at a time.
            let mut oracle = 0xFFFF_FFFFu32;
            for len in 0..=long {
                let checked = len <= 1024 || [4095, 4096, 4097, long].contains(&len);
                if checked {
                    assert_eq!(
                        crc(&data[start..start + len]),
                        !oracle,
                        "{what}: start {start}, length {len}"
                    );
                }
                if len < long {
                    oracle ^= data[start + len] as u32;
                    for _ in 0..8 {
                        oracle = (oracle >> 1) ^ (POLY & (oracle & 1).wrapping_neg());
                    }
                }
            }
        }
    }

    #[test]
    fn crc_equals_bitwise_oracle_at_every_length_and_alignment() {
        assert_matches_oracle("dispatched", crc32);
    }

    /// The table path alone, so the fallback for CPUs without carry-less
    /// multiply stays covered on a CPU that has it.
    #[test]
    fn table_crc_equals_bitwise_oracle_at_every_length_and_alignment() {
        assert_matches_oracle("table", |bytes| !table_update(0xFFFF_FFFF, bytes));
    }

    /// On a CPU with `PCLMULQDQ` the kernel must really run: it consumes
    /// every whole 16-byte block of an input of four blocks or more.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_kernel_runs_when_detected() {
        let data = random_bytes(9, 4096 + 7);
        let (crc, rest) = clmul::update(0xFFFF_FFFF, &data);
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            assert_eq!(rest.len(), 7);
            assert_eq!(table_update(crc, rest), table_update(0xFFFF_FFFF, &data));
        } else {
            assert_eq!((crc, rest.len()), (0xFFFF_FFFF, data.len()));
        }
        // Below four blocks it leaves everything to the table.
        assert_eq!(clmul::update(1, &data[..63]), (1, &data[..63]));
    }

    #[test]
    fn crc_streamed_at_random_splits_equals_bitwise_oracle() {
        use rand::{Rng, SeedableRng};
        let data = random_bytes(0xC4C3, 1 << 20);
        let expected = bitwise_crc32(&data);
        assert_eq!(crc32(&data), expected);
        for seed in [17, 18, 19] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut streamed = Crc32::new();
            let mut table = 0xFFFF_FFFF;
            let mut pos = 0;
            while pos < data.len() {
                // Half the pieces are shorter than one 16-byte block.
                let max = if rng.gen_bool(0.5) { 16 } else { 4099 };
                let step = rng.gen_range(0..max).min(data.len() - pos);
                streamed.update(&data[pos..pos + step]);
                table = table_update(table, &data[pos..pos + step]);
                pos += step;
            }
            assert_eq!(streamed.finalize(), expected, "seed {seed}");
            assert_eq!(!table, expected, "seed {seed}, table path");
        }
    }

    #[test]
    fn crc32_combine_equals_crc_of_concatenation() {
        let data = random_bytes(0xAB, 5000);
        for (split, end) in [
            (0, 0),
            (0, 1),
            (0, 5000),
            (1, 1),
            (5000, 5000),
            (7, 8),
            (16, 4096),
            (1234, 5000),
        ] {
            let (a, b) = (&data[..split], &data[split..end]);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&data[..end]),
                "|A| = {}, |B| = {}",
                a.len(),
                b.len()
            );
        }
    }

    #[test]
    fn writer_output_is_byte_identical_to_the_documented_layout() {
        let sections: Vec<(&str, Vec<u8>)> = vec![
            ("config", b"0123456789abcdef0123456789abcdef".to_vec()),
            ("empty", Vec::new()),
            ("bulk", random_bytes(3, 70_001)),
            ("tail", vec![0xFF; 17]),
        ];
        // The container assembled by hand, sealed with the bitwise oracle.
        let mut expected = Vec::new();
        expected.extend_from_slice(&SNAPSHOT_MAGIC);
        expected.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        expected.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for (name, payload) in &sections {
            expected.extend_from_slice(&(name.len() as u16).to_le_bytes());
            expected.extend_from_slice(name.as_bytes());
            expected.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            expected.extend_from_slice(&bitwise_crc32(payload).to_le_bytes());
            expected.extend_from_slice(payload);
        }
        let seal = bitwise_crc32(&expected);
        expected.extend_from_slice(&seal.to_le_bytes());

        let path = tmp("layout.snap");
        let mut w = SnapshotWriter::new();
        for (name, payload) in &sections {
            w.add_section(name, payload.clone());
        }
        w.finish(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        let r = SnapshotReader::parse(expected).unwrap();
        for (name, payload) in &sections {
            assert_eq!(r.section(name).unwrap(), payload.as_slice());
        }
    }

    #[test]
    fn duplicate_section_names_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for payload in [&b"first"[..], &b"second"[..]] {
            bytes.extend_from_slice(&6u16.to_le_bytes());
            bytes.extend_from_slice(b"config");
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&bitwise_crc32(payload).to_le_bytes());
            bytes.extend_from_slice(payload);
        }
        let seal = bitwise_crc32(&bytes);
        bytes.extend_from_slice(&seal.to_le_bytes());
        match SnapshotReader::parse(bytes) {
            Err(StorageError::Corrupt { context }) => {
                assert!(context.contains("duplicate"), "{context}")
            }
            Err(e) => panic!("expected Corrupt, got {e}"),
            Ok(_) => panic!("a container with two config sections must not parse"),
        }
    }

    #[test]
    fn previous_version_is_rejected() {
        let path = tmp("previous.snap");
        let mut w = SnapshotWriter::new();
        w.add_section("data", b"payload".to_vec());
        w.finish(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Step the version field back to 6 and re-seal the file checksum.
        bytes[8] = 6;
        let n = bytes.len();
        let seal = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&seal.to_le_bytes());
        assert!(matches!(
            SnapshotReader::parse(bytes),
            Err(StorageError::UnsupportedVersion {
                found: 6,
                expected: 7
            })
        ));
    }
}
