//! The on-disk snapshot container format.
//!
//! An engine snapshot is a directory with a page file holding the raw
//! posting pages (read back through [`crate::FilePageStore`]) and a
//! *snapshot container* holding everything else — index directories, speed
//! statistics, configuration — as named, checksummed sections.
//!
//! # Layout (version 9)
//!
//! ```text
//! [magic "STRSNAP\0" : 8 bytes]
//! [format version    : u32 LE]   -- 9
//! [section count     : u32 LE]
//! [table length      : u32 LE]   -- bytes of the section table below
//! section table, per section:
//!     [name length   : u16 LE]
//!     [name          : UTF-8 bytes]
//!     [kind          : u8]       -- 0 eager, 1 lazy
//!     [payload length: u64 LE]
//!     [payload CRC-32: u32 LE]
//! [table CRC-32      : u32 LE]   -- over every byte before it
//! payloads, back to back in table order: the eager sections, then the
//! lazy ones; the file ends with the last payload
//! ```
//!
//! # What an open reads
//!
//! [`SnapshotReader::open`] reads the header and the table, checks the
//! table CRC, checks that the payloads tile the rest of the file exactly,
//! and reads and CRC-checks every **eager** payload. It reads no byte of a
//! **lazy** payload: a lazy section is a block of independently checksummed
//! chunks whose offsets, lengths and CRCs live in an eager section beside
//! it (the snapshot's `st_index` and `speed_stats` heads). The caller reads
//! a chunk on first use through a [`LazySection`] — a positional read
//! checked against the chunk's own CRC — so an open costs time in
//! proportion to the structure it validates, not to the file. Every byte
//! of the file is still covered by a checksum: the header and table by the
//! table CRC, an eager payload by its CRC at open, and a lazy payload by
//! the chunk CRCs when a chunk is read (the whole-payload CRC in the table
//! also lets [`LazySection::read_all`] check a lazy section in one pass).
//!
//! Truncation, bit rot and foreign files are rejected with
//! [`StorageError::Corrupt`] instead of being deserialized into garbage. A
//! version bump turns old files into [`StorageError::UnsupportedVersion`] —
//! never a silent misread. Versions 1 to 7 laid their sections out
//! differently but all ended with a CRC-32 of every byte before it, so such
//! a file is judged by that seal alone: a sealed file reports
//! `UnsupportedVersion`, a damaged one `Corrupt`. Version 8 is framed like
//! this version, so its table CRC judges it the same way. A newer version
//! is `UnsupportedVersion` outright.

use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut};

use crate::pagestore::{StorageError, StorageResult};

#[cfg(target_arch = "x86_64")]
mod clmul;

/// Magic bytes opening every snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"STRSNAP\0";

/// Snapshot format version written by this build — the only one it reads.
pub const SNAPSHOT_VERSION: u32 = 9;

/// Oldest snapshot format version this build reads: older containers fail
/// with [`StorageError::UnsupportedVersion`]; there is no converter.
pub const MIN_SNAPSHOT_VERSION: u32 = SNAPSHOT_VERSION;

/// Oldest version framed like this one: header, section table and table
/// CRC.
const FRAMED_SINCE: u32 = 8;

/// Byte length of the fixed header: magic, version, section count, table
/// length.
const HEADER_LEN: usize = 20;

/// How many bytes an open reads in its first read: the header, the table
/// and the eager payloads of a snapshot all fit in it unless the container
/// embeds a large road network.
const OPEN_PREFIX: u64 = 64 << 10;

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

/// Where a container's bytes come from: the file it was opened from, or a
/// buffer parsed in memory.
#[derive(Clone)]
enum Source {
    File(Arc<File>),
    Memory(Arc<[u8]>),
}

impl Source {
    fn len(&self) -> StorageResult<u64> {
        Ok(match self {
            Source::File(file) => file.metadata()?.len(),
            Source::Memory(bytes) => bytes.len() as u64,
        })
    }

    /// Reads the `len` bytes at `offset`. Bytes past the end are
    /// [`StorageError::Corrupt`]: the container shrank under its table.
    fn read_at(&self, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        let past_end = || StorageError::corrupt("snapshot container is shorter than its table");
        match self {
            Source::File(file) => {
                let mut buf = vec![0u8; len];
                file.read_exact_at(&mut buf, offset).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        past_end()
                    } else {
                        e.into()
                    }
                })?;
                Ok(buf)
            }
            Source::Memory(bytes) => offset
                .checked_add(len as u64)
                .filter(|&end| end <= bytes.len() as u64)
                .map(|end| bytes[offset as usize..end as usize].to_vec())
                .ok_or_else(past_end),
        }
    }
}

/// One entry of the section table.
struct Section {
    name: String,
    lazy: bool,
    /// File offsets of the payload.
    range: Range<u64>,
    crc: u32,
}

/// Writes a snapshot container: named sections, sealed by
/// [`SnapshotWriter::finish`].
pub struct SnapshotWriter {
    sections: Vec<(String, bool, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts an empty container.
    pub fn new() -> Self {
        Self {
            sections: Vec::new(),
        }
    }

    /// Appends an eager section: read and checksummed by every open. Names
    /// must be unique within one container: the reader rejects a container
    /// with a repeated name as corrupt.
    pub fn add_section(&mut self, name: &str, payload: Vec<u8>) {
        self.push(name, false, payload);
    }

    /// Appends a lazy section: an open reads none of it; readers fetch its
    /// chunks through [`LazySection`] (see the module docs). Lazy sections
    /// are laid out after every eager one.
    pub fn add_lazy_section(&mut self, name: &str, payload: Vec<u8>) {
        self.push(name, true, payload);
    }

    fn push(&mut self, name: &str, lazy: bool, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(n, ..)| n != name),
            "duplicate snapshot section {name}"
        );
        self.sections.push((name.to_string(), lazy, payload));
    }

    /// Serializes the container to `path` and fsyncs it. Each payload is
    /// checksummed once, for its table entry.
    pub fn finish<P: AsRef<Path>>(mut self, path: P) -> StorageResult<()> {
        // Eager payloads first, so an open reads one contiguous prefix.
        self.sections.sort_by_key(|(_, lazy, _)| *lazy);
        let mut table = Vec::new();
        for (name, lazy, payload) in &self.sections {
            table.put_u16_le(name.len() as u16);
            table.put_slice(name.as_bytes());
            table.put_u8(u8::from(*lazy));
            table.put_u64_le(payload.len() as u64);
            table.put_u32_le(crc32(payload));
        }
        let mut head = Vec::with_capacity(HEADER_LEN + table.len() + 4);
        head.put_slice(&SNAPSHOT_MAGIC);
        head.put_u32_le(SNAPSHOT_VERSION);
        head.put_u32_le(self.sections.len() as u32);
        head.put_u32_le(table.len() as u32);
        head.put_slice(&table);
        let table_crc = crc32(&head);
        head.put_u32_le(table_crc);

        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&head)?;
        for (_, _, payload) in &self.sections {
            out.write_all(payload)?;
        }
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

/// A validated snapshot container: its section table, the eager payloads
/// (checked at open and held in memory) and a handle for reading the lazy
/// ones.
pub struct SnapshotReader {
    source: Source,
    /// The container from its first byte through the last eager payload.
    eager: Vec<u8>,
    sections: Vec<Section>,
}

impl SnapshotReader {
    /// Opens the container at `path`: reads and checks its table and its
    /// eager payloads, and keeps the file open for lazy reads.
    pub fn open<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let path = path.as_ref();
        let file = File::open(path)?;
        Self::read(Source::File(Arc::new(file))).map_err(|e| match e {
            StorageError::Corrupt { context } => StorageError::Corrupt {
                context: format!("{}: {context}", path.display()),
            },
            other => other,
        })
    }

    /// Parses a container held in memory, with the same checks as
    /// [`SnapshotReader::open`].
    pub fn parse(bytes: Vec<u8>) -> StorageResult<Self> {
        Self::read(Source::Memory(bytes.into()))
    }

    fn read(source: Source) -> StorageResult<Self> {
        let len = source.len()?;
        if len < (HEADER_LEN + 4) as u64 {
            return Err(StorageError::corrupt("snapshot shorter than its header"));
        }
        let mut prefix = source.read_at(0, len.min(OPEN_PREFIX) as usize)?;
        let mut header = &prefix[..HEADER_LEN];
        let mut magic = [0u8; 8];
        header.copy_to_slice(&mut magic);
        if magic != SNAPSHOT_MAGIC {
            return Err(StorageError::corrupt("bad snapshot magic"));
        }
        let version = header.get_u32_le();
        if !(FRAMED_SINCE..=SNAPSHOT_VERSION).contains(&version) {
            return Err(judge_other_version(&source, len, version));
        }
        let count = header.get_u32_le() as usize;
        let table_end = HEADER_LEN as u64 + header.get_u32_le() as u64 + 4;
        if table_end > len {
            return Err(StorageError::corrupt("section table runs past the end"));
        }
        extend_to(&source, &mut prefix, table_end)?;
        let (body, crc) = prefix[..table_end as usize].split_at(table_end as usize - 4);
        if crc32(body) != u32::from_le_bytes(crc.try_into().expect("4 bytes")) {
            return Err(StorageError::corrupt("section table checksum mismatch"));
        }
        if version != SNAPSHOT_VERSION {
            return Err(StorageError::UnsupportedVersion {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }

        let mut table = &body[HEADER_LEN..];
        // The count is only as trustworthy as the table CRC: never reserve
        // more entries than the table could hold (at least 15 bytes each).
        let mut sections: Vec<Section> = Vec::with_capacity(count.min(table.len() / 15));
        let mut offset = table_end;
        for i in 0..count {
            if table.remaining() < 2 {
                return Err(StorageError::corrupt(format!("section {i}: missing name")));
            }
            let name_len = table.get_u16_le() as usize;
            if table.remaining() < name_len + 13 {
                return Err(StorageError::corrupt(format!("section {i}: truncated")));
            }
            let name = std::str::from_utf8(&table[..name_len])
                .map_err(|_| StorageError::corrupt(format!("section {i}: non-UTF-8 name")))?
                .to_string();
            table.advance(name_len);
            let lazy = match table.get_u8() {
                0 => false,
                1 => true,
                kind => {
                    return Err(StorageError::corrupt(format!(
                        "section {name}: unknown kind {kind}"
                    )))
                }
            };
            let payload_len = table.get_u64_le();
            let crc = table.get_u32_le();
            if !lazy && sections.last().is_some_and(|s| s.lazy) {
                return Err(StorageError::corrupt(format!(
                    "section {name}: eager section after a lazy one"
                )));
            }
            if sections.iter().any(|s| s.name == name) {
                return Err(StorageError::corrupt(format!(
                    "section {name}: duplicate section name"
                )));
            }
            let end = offset
                .checked_add(payload_len)
                .filter(|&end| end <= len)
                .ok_or_else(|| {
                    StorageError::corrupt(format!("section {name}: payload truncated"))
                })?;
            sections.push(Section {
                name,
                lazy,
                range: offset..end,
                crc,
            });
            offset = end;
        }
        if table.remaining() != 0 {
            return Err(StorageError::corrupt("trailing bytes in the section table"));
        }
        if offset != len {
            return Err(StorageError::corrupt("trailing bytes after last section"));
        }

        let eager_end = sections
            .iter()
            .filter(|s| !s.lazy)
            .map(|s| s.range.end)
            .max()
            .unwrap_or(table_end);
        extend_to(&source, &mut prefix, eager_end)?;
        prefix.truncate(eager_end as usize);
        for section in sections.iter().filter(|s| !s.lazy) {
            let range = section.range.start as usize..section.range.end as usize;
            if crc32(&prefix[range]) != section.crc {
                return Err(StorageError::corrupt(format!(
                    "section {}: checksum mismatch",
                    section.name
                )));
            }
        }
        Ok(Self {
            source,
            eager: prefix,
            sections,
        })
    }

    /// Names of the sections in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|s| s.name.as_str())
    }

    /// Whether the container has a section called `name`.
    pub fn has_section(&self, name: &str) -> bool {
        self.sections.iter().any(|s| s.name == name)
    }

    /// Whether `name` is a lazy section (`false` when there is none).
    pub fn is_lazy(&self, name: &str) -> bool {
        self.find(name).is_ok_and(|s| s.lazy)
    }

    fn find(&self, name: &str) -> StorageResult<&Section> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| StorageError::corrupt(format!("missing snapshot section {name}")))
    }

    /// The file offsets of a named section's payload.
    pub fn section_range(&self, name: &str) -> StorageResult<Range<u64>> {
        self.find(name).map(|s| s.range.clone())
    }

    /// The payload of a named eager section, or a [`StorageError::Corrupt`]
    /// explaining which section is missing (or that it is lazy).
    pub fn section(&self, name: &str) -> StorageResult<&[u8]> {
        let section = self.find(name)?;
        if section.lazy {
            return Err(StorageError::corrupt(format!(
                "snapshot section {name} is lazy"
            )));
        }
        Ok(&self.eager[section.range.start as usize..section.range.end as usize])
    }

    /// A handle for reading the lazy section `name`.
    pub fn lazy_section(&self, name: &str) -> StorageResult<LazySection> {
        let section = self.find(name)?;
        if !section.lazy {
            return Err(StorageError::corrupt(format!(
                "snapshot section {name} is not lazy"
            )));
        }
        Ok(LazySection {
            source: self.source.clone(),
            name: section.name.as_str().into(),
            range: section.range.clone(),
            crc: section.crc,
        })
    }

    /// The whole payload of any section, checked against its CRC.
    pub fn read_section(&self, name: &str) -> StorageResult<Vec<u8>> {
        if self.is_lazy(name) {
            self.lazy_section(name)?.read_all()
        } else {
            self.section(name).map(<[u8]>::to_vec)
        }
    }
}

/// Grows `buf`, which holds the source's bytes from offset 0, to `end`.
fn extend_to(source: &Source, buf: &mut Vec<u8>, end: u64) -> StorageResult<()> {
    let have = buf.len() as u64;
    if have < end {
        buf.extend_from_slice(&source.read_at(have, (end - have) as usize)?);
    }
    Ok(())
}

/// The error for a container of another version: an older one is judged by
/// the whole-file seal versions 1 to 7 ended with, a newer one cannot be.
fn judge_other_version(source: &Source, len: u64, version: u32) -> StorageError {
    let unsupported = StorageError::UnsupportedVersion {
        found: version,
        expected: SNAPSHOT_VERSION,
    };
    if version > SNAPSHOT_VERSION {
        return unsupported;
    }
    let bytes = match source.read_at(0, len as usize) {
        Ok(bytes) => bytes,
        Err(e) => return e,
    };
    let (body, seal) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != u32::from_le_bytes(seal.try_into().expect("4 bytes")) {
        return StorageError::corrupt("file checksum mismatch (truncated or corrupted snapshot)");
    }
    unsupported
}

/// A lazy section of an open container: its chunks are read on demand, each
/// checked against the CRC its owner recorded for it. Cheap to clone; the
/// clones share the open file.
#[derive(Clone)]
pub struct LazySection {
    source: Source,
    name: Arc<str>,
    /// File offsets of the payload.
    range: Range<u64>,
    crc: u32,
}

impl LazySection {
    /// The section's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        self.range.end - self.range.start
    }

    /// `true` for an empty payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the payload bytes `chunk` (offsets within the payload) and
    /// checks them against `crc`. A chunk past the payload or a CRC
    /// mismatch is [`StorageError::Corrupt`] naming the section and `what`
    /// (the chunk's owner, such as `slot 17`).
    pub fn read_chunk(
        &self,
        chunk: Range<u64>,
        crc: u32,
        what: impl Display,
    ) -> StorageResult<Vec<u8>> {
        if chunk.start > chunk.end || chunk.end > self.len() {
            return Err(StorageError::corrupt(format!(
                "{} {what}: chunk runs past its section",
                self.name
            )));
        }
        let bytes = self.source.read_at(
            self.range.start + chunk.start,
            (chunk.end - chunk.start) as usize,
        )?;
        if crc32(&bytes) != crc {
            return Err(StorageError::corrupt(format!(
                "{} {what}: chunk checksum mismatch",
                self.name
            )));
        }
        Ok(bytes)
    }

    /// The whole payload, checked against the CRC in the section table.
    pub fn read_all(&self) -> StorageResult<Vec<u8>> {
        self.read_chunk(0..self.len(), self.crc, "payload")
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

    /// Writes `sections` (name, lazy, payload) to a fresh container file
    /// and returns its bytes.
    fn written(name: &str, sections: &[(&str, bool, Vec<u8>)]) -> Vec<u8> {
        let path = tmp(name);
        let mut w = SnapshotWriter::new();
        for (name, lazy, payload) in sections {
            if *lazy {
                w.add_lazy_section(name, payload.clone());
            } else {
                w.add_section(name, payload.clone());
            }
        }
        w.finish(&path).unwrap();
        std::fs::read(&path).unwrap()
    }

    fn is_corrupt<T>(result: StorageResult<T>) -> bool {
        matches!(result, Err(StorageError::Corrupt { .. }))
    }

    #[test]
    fn writer_reader_roundtrip() {
        let path = tmp("roundtrip.snap");
        let mut w = SnapshotWriter::new();
        w.add_lazy_section("chunks", (0..=255u8).collect());
        w.add_section("alpha", b"hello".to_vec());
        w.add_section("beta", vec![7u8; 10_000]);
        w.add_section("empty", Vec::new());
        w.finish(&path).unwrap();

        for r in [
            SnapshotReader::open(&path).unwrap(),
            SnapshotReader::parse(std::fs::read(&path).unwrap()).unwrap(),
        ] {
            // Eager sections come first, in the order they were added.
            assert_eq!(
                r.section_names().collect::<Vec<_>>(),
                vec!["alpha", "beta", "empty", "chunks"]
            );
            assert_eq!(r.section("alpha").unwrap(), b"hello");
            assert_eq!(r.section("beta").unwrap(), &[7u8; 10_000][..]);
            assert_eq!(r.section("empty").unwrap(), b"");
            assert!(is_corrupt(r.section("gamma")));
            assert!(r.has_section("chunks") && r.is_lazy("chunks") && !r.is_lazy("alpha"));
            assert!(
                is_corrupt(r.section("chunks")),
                "a lazy section is not eager"
            );
            assert!(is_corrupt(r.lazy_section("alpha")));
            let lazy = r.lazy_section("chunks").unwrap();
            assert_eq!((lazy.name(), lazy.len()), ("chunks", 256));
            assert_eq!(lazy.read_all().unwrap(), (0..=255u8).collect::<Vec<_>>());
            assert_eq!(r.read_section("chunks").unwrap(), lazy.read_all().unwrap());
            assert_eq!(r.read_section("beta").unwrap(), vec![7u8; 10_000]);
            let chunk = lazy.read_chunk(10..20, crc32(&(10..20u8).collect::<Vec<_>>()), "x");
            assert_eq!(chunk.unwrap(), (10..20u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lazy_chunks_are_checked_on_read() {
        let bytes = written("lazy.snap", &[("rows", true, vec![0x5A; 100])]);
        let r = SnapshotReader::parse(bytes).unwrap();
        let rows = r.lazy_section("rows").unwrap();
        let good = crc32(&[0x5A; 40]);
        assert!(rows.read_chunk(60..100, good, "slot 3").is_ok());
        for (chunk, crc, expected) in [
            (60..100, good ^ 1, "rows slot 3: chunk checksum mismatch"),
            (61..101, good, "rows slot 3: chunk runs past its section"),
        ] {
            match rows.read_chunk(chunk, crc, "slot 3") {
                Err(StorageError::Corrupt { context }) => assert_eq!(context, expected),
                other => panic!("expected Corrupt, got {:?}", other.map(|b| b.len())),
            }
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = written(
            "truncated.snap",
            &[
                ("data", false, vec![42u8; 5000]),
                ("rows", true, vec![1; 300]),
            ],
        );
        for cut in [bytes.len() - 1, bytes.len() - 300, bytes.len() / 2, 10, 0] {
            assert!(
                is_corrupt(SnapshotReader::parse(bytes[..cut].to_vec())),
                "truncation at {cut} must be rejected"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(is_corrupt(SnapshotReader::parse(padded)));
    }

    #[test]
    fn corrupted_header_and_payload_are_rejected() {
        let clean = written(
            "corrupt.snap",
            &[("data", false, b"payload-bytes".to_vec())],
        );
        // Every byte, header fields included: a flipped section name still
        // parses structurally, so only the table CRC rejects it.
        for offset in 0..clean.len() {
            for mask in [0x01u8, 0x20, 0x80] {
                let mut bad = clean.clone();
                bad[offset] ^= mask;
                match SnapshotReader::parse(bad) {
                    Err(StorageError::Corrupt { .. }) => {}
                    // The version field: a newer version is not damage.
                    Err(StorageError::UnsupportedVersion { .. }) if (8..12).contains(&offset) => {}
                    Err(e) => panic!("flip {mask:#04x} at offset {offset}: {e}"),
                    Ok(_) => panic!("flip {mask:#04x} at offset {offset} was not rejected"),
                }
            }
        }
        // A lazy payload is not read at open: a flip in it is caught by
        // the reads that check it.
        let clean = written("corrupt-lazy.snap", &[("rows", true, vec![9u8; 64])]);
        let mut bad = clean.clone();
        let n = bad.len();
        bad[n - 5] ^= 0x04;
        let r = SnapshotReader::parse(bad).unwrap();
        let rows = r.lazy_section("rows").unwrap();
        assert!(is_corrupt(rows.read_all()));
        assert!(is_corrupt(rows.read_chunk(
            32..64,
            crc32(&[9u8; 32]),
            "slot 1"
        )));
        assert!(rows.read_chunk(0..32, crc32(&[9u8; 32]), "slot 0").is_ok());
    }

    /// `bytes` with its version field set to `version` and, like the
    /// containers of versions 1 to 7, sealed by a trailing CRC.
    fn resealed_as(mut bytes: Vec<u8>, version: u32) -> Vec<u8> {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let n = bytes.len();
        let seal = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&seal.to_le_bytes());
        bytes
    }

    #[test]
    fn future_version_is_rejected_as_unsupported() {
        let bytes = written("version.snap", &[("data", false, b"x".to_vec())]);
        let mut future = bytes.clone();
        future[8] = 99;
        assert!(matches!(
            SnapshotReader::parse(future),
            Err(StorageError::UnsupportedVersion { found: 99, .. })
        ));
        // A newer layout is unknown, so its seal cannot be judged.
        let mut damaged = resealed_as(bytes, 99);
        let n = damaged.len();
        damaged[n - 2] ^= 0x01;
        assert!(matches!(
            SnapshotReader::parse(damaged),
            Err(StorageError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn previous_versions_are_rejected() {
        let bytes = written("previous.snap", &[("data", false, b"payload".to_vec())]);
        let v7 = resealed_as(bytes.clone(), 7);
        assert!(matches!(
            SnapshotReader::parse(v7.clone()),
            Err(StorageError::UnsupportedVersion {
                found: 7,
                expected: SNAPSHOT_VERSION
            })
        ));
        // An old version with a broken seal is damage, not an old format.
        let mut damaged = v7;
        let n = damaged.len();
        damaged[n - 6] ^= 0x01;
        assert!(is_corrupt(SnapshotReader::parse(damaged)));

        // Version 8 is framed like this one: its table CRC is its seal.
        let mut v8 = bytes;
        v8[8..12].copy_from_slice(&8u32.to_le_bytes());
        let table_end = HEADER_LEN + u32::from_le_bytes(v8[16..20].try_into().unwrap()) as usize;
        let crc = crc32(&v8[..table_end]);
        v8[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            SnapshotReader::parse(v8.clone()),
            Err(StorageError::UnsupportedVersion {
                found: 8,
                expected: SNAPSHOT_VERSION
            })
        ));
        v8[table_end] ^= 0x01;
        assert!(is_corrupt(SnapshotReader::parse(v8)));
    }

    /// The container assembled by hand, the table sealed with the bitwise
    /// oracle: `sections` in the order given (eager first).
    fn by_hand(sections: &[(&str, u8, Vec<u8>)]) -> Vec<u8> {
        let mut table = Vec::new();
        for (name, kind, payload) in sections {
            table.extend_from_slice(&(name.len() as u16).to_le_bytes());
            table.extend_from_slice(name.as_bytes());
            table.push(*kind);
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            table.extend_from_slice(&bitwise_crc32(payload).to_le_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&(table.len() as u32).to_le_bytes());
        out.extend_from_slice(&table);
        let crc = bitwise_crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        for (_, _, payload) in sections {
            out.extend_from_slice(payload);
        }
        out
    }

    #[test]
    fn writer_output_is_byte_identical_to_the_documented_layout() {
        let bulk = random_bytes(3, 70_001);
        let written = written(
            "layout.snap",
            &[
                (
                    "config",
                    false,
                    b"0123456789abcdef0123456789abcdef".to_vec(),
                ),
                ("rows", true, bulk.clone()),
                ("empty", false, Vec::new()),
                ("tail", false, vec![0xFF; 17]),
            ],
        );
        let expected = by_hand(&[
            ("config", 0, b"0123456789abcdef0123456789abcdef".to_vec()),
            ("empty", 0, Vec::new()),
            ("tail", 0, vec![0xFF; 17]),
            ("rows", 1, bulk.clone()),
        ]);
        assert_eq!(written, expected);
        let r = SnapshotReader::parse(expected).unwrap();
        assert_eq!(r.section("tail").unwrap(), &[0xFF; 17]);
        assert_eq!(r.read_section("rows").unwrap(), bulk);
    }

    #[test]
    fn malformed_tables_are_rejected() {
        let cases = [
            (
                "duplicate",
                by_hand(&[
                    ("config", 0, b"first".to_vec()),
                    ("config", 0, b"second".to_vec()),
                ]),
            ),
            (
                "eager section after a lazy one",
                by_hand(&[
                    ("rows", 1, b"lazy".to_vec()),
                    ("config", 0, b"eager".to_vec()),
                ]),
            ),
            ("unknown kind", by_hand(&[("config", 2, b"x".to_vec())])),
        ];
        for (expected, bytes) in cases {
            match SnapshotReader::parse(bytes) {
                Err(StorageError::Corrupt { context }) => {
                    assert!(context.contains(expected), "{context}")
                }
                Err(e) => panic!("{expected}: expected Corrupt, got {e}"),
                Ok(_) => panic!("{expected}: a malformed table parsed"),
            }
        }
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
}
