//! The versioned container format for **design snapshots**.
//!
//! Dataset snapshots ([`crate::snapshot`]) persist the data; this module
//! persists the *learned physical design* — which partitions are
//! graph-resident (`T_G`), the budget accounting, and the tuner's trained
//! state (DOTIL's Q-matrices). The two formats are deliberately separate
//! files with separate magics: a design is only meaningful relative to a
//! dataset, so restore validates a structural fingerprint before touching
//! anything.
//!
//! The container is a magic + version header followed by length-prefixed,
//! tag-addressed **sections**. Consumers (kgdual-core's checkpoint codec,
//! kgdual-dotil's tuner-state codec) define their own section payloads
//! with the [`FieldWriter`]/[`FieldReader`] primitives; the container only
//! guarantees that truncated, corrupt, or future-versioned files surface a
//! typed [`DesignError`] *before* any payload is interpreted — never a
//! panic, and never a partially applied restore.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "KGDS" | version u16 | section_count u16 | sections...
//! section: tag u8 | len u64 | payload bytes
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic prefix of a design snapshot ("KGdual DeSign").
pub const DESIGN_MAGIC: &[u8; 4] = b"KGDS";
/// Current (and only) container version this build reads and writes.
pub const DESIGN_VERSION: u16 = 1;

/// Errors raised while decoding or applying a design snapshot.
///
/// Every variant is a *typed* failure: callers are guaranteed that a bad
/// file (truncated download, wrong dataset, future version) is reported
/// here without panicking and without mutating the store being restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// Missing or wrong magic header — not a design snapshot at all.
    BadMagic,
    /// The file declares a container version this build does not read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Highest version this build supports.
        supported: u16,
    },
    /// The buffer ended before the declared content.
    Truncated,
    /// Structurally invalid content (bad tag, impossible length, …).
    Corrupt(String),
    /// The snapshot is well-formed but does not apply to this store —
    /// wrong dataset, different budget, or a tuner of another kind.
    Mismatch(String),
    /// A section the decoder requires is absent.
    MissingSection(u8),
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::BadMagic => write!(f, "not a kgdual design snapshot (bad magic)"),
            DesignError::UnsupportedVersion { found, supported } => write!(
                f,
                "design snapshot version {found} is newer than the supported {supported}"
            ),
            DesignError::Truncated => write!(f, "design snapshot truncated"),
            DesignError::Corrupt(why) => write!(f, "design snapshot corrupt: {why}"),
            DesignError::Mismatch(why) => {
                write!(f, "design snapshot does not match this store: {why}")
            }
            DesignError::MissingSection(tag) => {
                write!(f, "design snapshot is missing required section {tag}")
            }
        }
    }
}

impl std::error::Error for DesignError {}

/// Builds one section's payload field by field.
#[derive(Default)]
pub struct FieldWriter {
    buf: BytesMut,
}

impl FieldWriter {
    /// An empty payload buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Append a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_u64_le(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.buf.put_u32_le(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }

    /// Append length-prefixed raw bytes (nested payloads).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.put_u64_le(b.len() as u64);
        self.buf.put_slice(b);
    }

    /// Finish the payload.
    pub fn into_bytes(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Reads one section's payload field by field, surfacing
/// [`DesignError::Truncated`] instead of panicking on short input.
pub struct FieldReader {
    buf: Bytes,
}

impl FieldReader {
    /// Wrap a payload slice.
    pub fn new(payload: &[u8]) -> Self {
        FieldReader {
            buf: Bytes::copy_from_slice(payload),
        }
    }

    fn need(&self, n: usize) -> Result<(), DesignError> {
        if self.buf.remaining() < n {
            return Err(DesignError::Truncated);
        }
        Ok(())
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, DesignError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Read a `bool` (any non-zero byte is `true`).
    pub fn get_bool(&mut self) -> Result<bool, DesignError> {
        Ok(self.get_u8()? != 0)
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DesignError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DesignError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, DesignError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DesignError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let raw = self.buf.copy_to_bytes(len);
        String::from_utf8(raw.to_vec())
            .map_err(|_| DesignError::Corrupt("string is not valid UTF-8".into()))
    }

    /// Read length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DesignError> {
        let len = self.get_u64()? as usize;
        self.need(len)?;
        Ok(self.buf.copy_to_bytes(len).to_vec())
    }

    /// Bytes left unread (0 when a payload was fully consumed).
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

/// Assembles a design snapshot from tagged sections.
#[derive(Default)]
pub struct SnapshotWriter {
    sections: Vec<(u8, Bytes)>,
}

impl SnapshotWriter {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one section. Tags must be unique; callers own the tag space.
    pub fn add_section(&mut self, tag: u8, payload: Bytes) {
        debug_assert!(
            !self.sections.iter().any(|&(t, _)| t == tag),
            "duplicate design-snapshot section tag {tag}"
        );
        self.sections.push((tag, payload));
    }

    /// Serialize the container.
    pub fn encode(self) -> Bytes {
        let total: usize = self.sections.iter().map(|(_, p)| p.len() + 9).sum();
        let mut buf = BytesMut::with_capacity(total + 8);
        buf.put_slice(DESIGN_MAGIC);
        buf.put_u16_le(DESIGN_VERSION);
        buf.put_u16_le(self.sections.len() as u16);
        for (tag, payload) in self.sections {
            buf.put_u8(tag);
            buf.put_u64_le(payload.len() as u64);
            buf.put_slice(&payload);
        }
        buf.freeze()
    }
}

/// Parses a design snapshot's container, validating the header and every
/// section length before any payload is handed out.
#[derive(Debug)]
pub struct SnapshotReader {
    version: u16,
    sections: Vec<(u8, Bytes)>,
}

impl SnapshotReader {
    /// Decode the container. Fails with a typed error on anything short of
    /// a structurally complete snapshot.
    pub fn decode(data: &[u8]) -> Result<Self, DesignError> {
        let mut buf = Bytes::copy_from_slice(data);
        if buf.remaining() < DESIGN_MAGIC.len() {
            return Err(DesignError::BadMagic);
        }
        if &buf.copy_to_bytes(4)[..] != DESIGN_MAGIC {
            return Err(DesignError::BadMagic);
        }
        if buf.remaining() < 4 {
            return Err(DesignError::Truncated);
        }
        let version = buf.get_u16_le();
        if version != DESIGN_VERSION {
            return Err(DesignError::UnsupportedVersion {
                found: version,
                supported: DESIGN_VERSION,
            });
        }
        let count = buf.get_u16_le() as usize;
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            if buf.remaining() < 9 {
                return Err(DesignError::Truncated);
            }
            let tag = buf.get_u8();
            let len = buf.get_u64_le() as usize;
            if buf.remaining() < len {
                return Err(DesignError::Truncated);
            }
            if sections.iter().any(|&(t, _): &(u8, Bytes)| t == tag) {
                return Err(DesignError::Corrupt(format!("duplicate section tag {tag}")));
            }
            sections.push((tag, buf.copy_to_bytes(len)));
        }
        if buf.remaining() > 0 {
            return Err(DesignError::Corrupt(format!(
                "{} trailing bytes after the last section",
                buf.remaining()
            )));
        }
        Ok(SnapshotReader { version, sections })
    }

    /// The container version the file declared.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Look up one section's payload.
    pub fn section(&self, tag: u8) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|(_, p)| &p[..])
    }

    /// Look up a section that must exist.
    pub fn require(&self, tag: u8) -> Result<&[u8], DesignError> {
        self.section(tag).ok_or(DesignError::MissingSection(tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bytes {
        let mut core = FieldWriter::new();
        core.put_u64(100);
        core.put_bool(true);
        core.put_str("hello");
        core.put_f64(0.25);
        let mut tuner = FieldWriter::new();
        tuner.put_bytes(&[1, 2, 3]);
        let mut w = SnapshotWriter::new();
        w.add_section(1, core.into_bytes());
        w.add_section(2, tuner.into_bytes());
        w.encode()
    }

    #[test]
    fn roundtrip_preserves_sections_and_fields() {
        let bytes = sample();
        let r = SnapshotReader::decode(&bytes).unwrap();
        assert_eq!(r.version(), DESIGN_VERSION);
        let mut core = FieldReader::new(r.require(1).unwrap());
        assert_eq!(core.get_u64().unwrap(), 100);
        assert!(core.get_bool().unwrap());
        assert_eq!(core.get_str().unwrap(), "hello");
        assert_eq!(core.get_f64().unwrap(), 0.25);
        assert_eq!(core.remaining(), 0);
        let mut tuner = FieldReader::new(r.require(2).unwrap());
        assert_eq!(tuner.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.section(9), None);
        assert_eq!(r.require(9).unwrap_err(), DesignError::MissingSection(9));
    }

    #[test]
    fn rejects_garbage_and_every_truncation() {
        assert_eq!(
            SnapshotReader::decode(b"nope").unwrap_err(),
            DesignError::BadMagic
        );
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(
                SnapshotReader::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail typed, not panic"
            );
        }
    }

    #[test]
    fn rejects_future_versions() {
        let mut bytes = sample().to_vec();
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        assert_eq!(
            SnapshotReader::decode(&bytes).unwrap_err(),
            DesignError::UnsupportedVersion {
                found: 0xFFFF,
                supported: DESIGN_VERSION
            }
        );
    }

    #[test]
    fn rejects_trailing_garbage_and_duplicate_tags() {
        let mut bytes = sample().to_vec();
        bytes.push(0);
        assert!(matches!(
            SnapshotReader::decode(&bytes).unwrap_err(),
            DesignError::Corrupt(_)
        ));

        let mut w = SnapshotWriter::new();
        w.add_section(1, Bytes::copy_from_slice(b"a"));
        let mut raw = w.encode().to_vec();
        // Hand-append a second section with the same tag and patch the count.
        raw.extend_from_slice(&[1]);
        raw.extend_from_slice(&1u64.to_le_bytes());
        raw.push(b'b');
        raw[6] = 2;
        assert!(matches!(
            SnapshotReader::decode(&raw).unwrap_err(),
            DesignError::Corrupt(_)
        ));
    }

    #[test]
    fn field_reader_truncation_is_typed() {
        let mut w = FieldWriter::new();
        w.put_str("abcdef");
        let payload = w.into_bytes();
        let mut r = FieldReader::new(&payload[..3]);
        assert_eq!(r.get_str().unwrap_err(), DesignError::Truncated);
        let mut r = FieldReader::new(&payload[..6]);
        assert_eq!(r.get_str().unwrap_err(), DesignError::Truncated);
        let mut r = FieldReader::new(&[]);
        assert_eq!(r.get_u64().unwrap_err(), DesignError::Truncated);
        assert_eq!(r.get_f64().unwrap_err(), DesignError::Truncated);
    }
}
