//! The length-checked binary encoding every byte this system stores or
//! sends is written in.
//!
//! Three consumers share it: the engine's write-ahead log and snapshot
//! files (the engine crate's `persist` module), the replication stream
//! that ships those WAL frames to a standby, and every request and
//! response frame of the client/server protocol (`mpq-server`'s
//! `protocol` module) — so a query reply of a million row ids and a
//! checkpoint of a million-row column go through the same few
//! functions. The module provides primitive put/get pairs over a byte
//! buffer, bulk codecs for `u16`/`u32` slices (one length check, one
//! reservation, no per-element bounds work), codecs for the shared
//! vocabulary types ([`Schema`], [`AttrDomain`]), and the [`crc32`]
//! that frames all three.
//!
//! Everything read back is *validated* — a reader over corrupted or
//! hostile bytes returns [`WireError`], never panics, never allocates
//! more than the input could hold (an element count is checked against
//! the bytes remaining *before* anything is allocated for it) and never
//! produces an out-of-contract value (domains are rebuilt through
//! their checked constructors).
//!
//! The format is little-endian and length-prefixed. Values carry no
//! version tag of their own: files are versioned by their magic header,
//! protocol frames by the version checked in the handshake.

use crate::attribute::{AttrDomain, Attribute, Schema};

/// Errors raised while decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// Byte offset at which more input was needed.
        at: usize,
    },
    /// Bytes decoded but the value failed validation.
    Invalid {
        /// Explanation.
        detail: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { at } => write!(f, "wire input truncated at byte {at}"),
            WireError::Invalid { detail } => write!(f, "invalid wire value: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends primitive values to a growing byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// An empty writer whose buffer already holds room for `capacity`
    /// bytes, for callers that know roughly how long the encoding will
    /// be (a frame around a large row-id list).
    pub fn with_capacity(capacity: usize) -> WireWriter {
        WireWriter { buf: Vec::with_capacity(capacity) }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-prefixed `u16` slice.
    pub fn put_u16s(&mut self, vs: &[u16]) {
        self.put_u32(vs.len() as u32);
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 2, 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(2).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_u32(vs.len() as u32);
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 4, 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(4).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// Reads primitive values back out of a byte slice, with bounds checks.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { at: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is invalid.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Invalid { detail: format!("bool byte {other}") }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated { at: self.pos });
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Invalid { detail: "string is not UTF-8".into() })
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated { at: self.pos });
        }
        self.take(n)
    }

    /// Reads the element count of a length-prefixed slice and takes its
    /// `count * width` bytes. The count is checked against what the
    /// buffer could hold before anything is multiplied or allocated.
    fn take_elements(&mut self, width: usize) -> Result<&'a [u8], WireError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() / width {
            return Err(WireError::Truncated { at: self.pos });
        }
        self.take(n * width)
    }

    /// Reads a length-prefixed `u16` vector.
    pub fn get_u16s(&mut self) -> Result<Vec<u16>, WireError> {
        let bytes = self.take_elements(2)?;
        Ok(bytes.chunks_exact(2).map(|c| u16::from_le_bytes([c[0], c[1]])).collect())
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let bytes = self.take_elements(4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

// ---------------------------------------------------------------------
// Vocabulary codecs
// ---------------------------------------------------------------------

const DOMAIN_CATEGORICAL: u8 = 0;
const DOMAIN_BINNED: u8 = 1;

/// Encodes an attribute domain.
pub fn put_domain(w: &mut WireWriter, d: &AttrDomain) {
    match d {
        AttrDomain::Categorical { members } => {
            w.put_u8(DOMAIN_CATEGORICAL);
            w.put_u32(members.len() as u32);
            for m in members {
                w.put_str(m);
            }
        }
        AttrDomain::Binned { cuts } => {
            w.put_u8(DOMAIN_BINNED);
            w.put_u32(cuts.len() as u32);
            for &c in cuts {
                w.put_f64(c);
            }
        }
    }
}

/// Decodes an attribute domain, revalidating through the checked
/// constructors.
pub fn get_domain(r: &mut WireReader<'_>) -> Result<AttrDomain, WireError> {
    match r.get_u8()? {
        DOMAIN_CATEGORICAL => {
            let n = r.get_u32()? as usize;
            if n > r.remaining() {
                return Err(WireError::Truncated { at: r.position() });
            }
            let members: Vec<String> =
                (0..n).map(|_| r.get_str()).collect::<Result<_, _>>()?;
            if members.is_empty() {
                return Err(WireError::Invalid { detail: "categorical domain with no members".into() });
            }
            Ok(AttrDomain::categorical(members))
        }
        DOMAIN_BINNED => {
            let n = r.get_u32()? as usize;
            if n > r.remaining() / 8 {
                return Err(WireError::Truncated { at: r.position() });
            }
            let cuts: Vec<f64> = (0..n).map(|_| r.get_f64()).collect::<Result<_, _>>()?;
            AttrDomain::binned(cuts).map_err(|e| WireError::Invalid { detail: e.to_string() })
        }
        other => Err(WireError::Invalid { detail: format!("unknown domain tag {other}") }),
    }
}

/// Encodes a schema (attribute names + domains, in order).
pub fn put_schema(w: &mut WireWriter, s: &Schema) {
    w.put_u16(s.len() as u16);
    for (_, attr) in s.iter() {
        w.put_str(&attr.name);
        put_domain(w, &attr.domain);
    }
}

/// Decodes a schema, revalidating through [`Schema::new`].
pub fn get_schema(r: &mut WireReader<'_>) -> Result<Schema, WireError> {
    let n = r.get_u16()? as usize;
    let mut attrs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = r.get_str()?;
        let domain = get_domain(r)?;
        attrs.push(Attribute::new(name, domain));
    }
    Schema::new(attrs).map_err(|e| WireError::Invalid { detail: e.to_string() })
}

// ---------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------

/// Bytes folded into the CRC per step.
const CRC_SLICES: usize = 16;

/// `CRC_TABLES[k][b]` is the CRC register after byte `b` followed by
/// `k` zero bytes: table 0 is the classic bytewise table, table `k`
/// advances an entry of table `k - 1` by one more zero byte.
/// Const-evaluated at compile time: no per-call table cost. A `static`
/// rather than a `const`, which an unoptimized build would copy onto
/// the stack at every use.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = {
    const POLY: u32 = 0xEDB8_8320;
    let mut t = [[0u32; 256]; CRC_SLICES];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < CRC_SLICES {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`crc32` flavour) of `bytes`.
/// Frames every WAL record, snapshot file, replication batch and
/// protocol message, to detect torn or corrupted bytes.
///
/// Slicing-by-16: each step folds sixteen input bytes through sixteen
/// independent table lookups, so the loop-carried dependency is one
/// XOR tree per sixteen bytes instead of one lookup per byte; the
/// bytes a last partial block leaves over go one at a time. The value
/// is that of the bytewise algorithm for every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(CRC_SLICES);
    for b in &mut blocks {
        // The register only reaches the first four bytes of the block;
        // byte `i` is followed by `15 - i` more bytes of it.
        let r = crc.to_le_bytes();
        crc = t[15][(b[0] ^ r[0]) as usize]
            ^ t[14][(b[1] ^ r[1]) as usize]
            ^ t[13][(b[2] ^ r[2]) as usize]
            ^ t[12][(b[3] ^ r[3]) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u16(65535);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-2.5e300);
        w.put_bool(true);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        w.put_u16s(&[10, 20, 30]);
        w.put_u32s(&[0, 70_000, u32::MAX]);
        w.put_u32s(&[]);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65535);
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), -2.5e300);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_u16s().unwrap(), vec![10, 20, 30]);
        assert_eq!(r.get_u32s().unwrap(), vec![0, 70_000, u32::MAX]);
        assert_eq!(r.get_u32s().unwrap(), Vec::<u32>::new());
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.put_str("abcdef");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(r.get_str().is_err(), "cut at {cut} must fail");
        }
        // The bulk codecs: every strict prefix is `Truncated`, and the
        // reader is left where a caller can report the offset.
        let mut w = WireWriter::new();
        w.put_u16s(&[1, 2, 3]);
        let u16s = w.into_bytes();
        let mut w = WireWriter::new();
        w.put_u32s(&[1, 2, 3]);
        let u32s = w.into_bytes();
        for cut in 0..u16s.len() {
            let got = WireReader::new(&u16s[..cut]).get_u16s();
            assert!(matches!(got, Err(WireError::Truncated { .. })), "u16s cut at {cut}: {got:?}");
        }
        for cut in 0..u32s.len() {
            let got = WireReader::new(&u32s[..cut]).get_u32s();
            assert!(matches!(got, Err(WireError::Truncated { .. })), "u32s cut at {cut}: {got:?}");
        }
    }

    #[test]
    fn hostile_lengths_do_not_overallocate() {
        // A length prefix claiming 4 GiB over a 6-byte buffer.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 1, 2];
        assert!(WireReader::new(&bytes).get_bytes().is_err());
        assert!(WireReader::new(&bytes).get_str().is_err());
        assert!(WireReader::new(&bytes).get_u16s().is_err());
        assert!(WireReader::new(&bytes).get_u32s().is_err());
        // Every count the payload cannot hold is refused by the length
        // check alone — `count * width` is never formed (it would wrap a
        // 32-bit `usize` for the larger ones) and nothing is allocated.
        // One element too many is the tightest case.
        for claimed in [3u32, 1 << 30, (1 << 31) + 1, u32::MAX] {
            let mut buf = claimed.to_le_bytes().to_vec();
            buf.extend_from_slice(&[0xAB; 11]);
            let mut r = WireReader::new(&buf);
            assert_eq!(r.get_u32s(), Err(WireError::Truncated { at: 4 }), "u32s x{claimed}");
            assert_eq!(r.position(), 4, "a refused count consumes only the prefix");
        }
        for claimed in [6u32, 1 << 31, u32::MAX] {
            let mut buf = claimed.to_le_bytes().to_vec();
            buf.extend_from_slice(&[0xAB; 11]);
            assert_eq!(
                WireReader::new(&buf).get_u16s(),
                Err(WireError::Truncated { at: 4 }),
                "u16s x{claimed}"
            );
        }
    }

    #[test]
    fn bad_bool_and_tag_are_invalid() {
        assert!(matches!(
            WireReader::new(&[9]).get_bool(),
            Err(WireError::Invalid { .. })
        ));
        assert!(matches!(
            get_domain(&mut WireReader::new(&[7])),
            Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn schema_roundtrips() {
        let s = Schema::new(vec![
            Attribute::new("age", AttrDomain::binned(vec![30.0, 63.0]).unwrap()),
            Attribute::new("color", AttrDomain::categorical(["red", "green"])),
            Attribute::new("free", AttrDomain::binned(vec![]).unwrap()),
        ])
        .unwrap();
        let mut w = WireWriter::new();
        put_schema(&mut w, &s);
        let bytes = w.into_bytes();
        let back = get_schema(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(back, s);
        // Every strict prefix fails cleanly.
        for cut in 0..bytes.len() {
            assert!(get_schema(&mut WireReader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    /// The bit-at-a-time definition of CRC-32/IEEE.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_is_the_bitwise_function() {
        // Every length that exercises zero, one and many sixteen-byte
        // blocks plus every tail length, at every alignment of the
        // slice's start within a block.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..320)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=300 {
                let slice = &buf[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "offset {offset} len {len}");
            }
        }
    }
}
