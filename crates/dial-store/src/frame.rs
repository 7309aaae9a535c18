//! CRC-framed record codec for segment files.
//!
//! Every record on disk is `[magic u8][kind u8][len u32 LE][crc u32 LE]`
//! followed by `len` payload bytes; the CRC-32 (IEEE) covers the kind byte
//! plus the payload. A torn tail — a partial header, short payload, or a
//! mismatched checksum — is *detected*, never misparsed: the decoder stops
//! at the first frame that fails to verify and recovery truncates there.

/// First byte of every frame; anything else means the reader is lost.
pub const MAGIC: u8 = 0xD5;
/// Record kind: one NDJSON-encoded [`dial_stream::Event`].
pub const KIND_EVENT: u8 = 1;
/// Record kind: one JSON-encoded [`dial_stream::SealDelta`], closing a batch.
pub const KIND_SEAL: u8 = 2;
/// Fixed frame header size: magic + kind + len + crc.
pub const HEADER_BYTES: usize = 10;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// The slicing-by-8 tables: `t[0]` is the byte-at-a-time table and
/// `t[k][i]` is the CRC register after `i` is followed by `k` zero bytes,
/// so one step can fold eight input bytes with eight lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [build_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = build_tables();

/// Folds one byte into the CRC register.
fn crc_byte(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
}

/// CRC-32 (IEEE 802.3) over `kind` followed by `payload` — the exact bytes
/// the checksum field in a frame header protects. Computed slicing-by-8:
/// the same polynomial, initial value and final XOR as a byte-at-a-time
/// loop, so every checksum is bit-equal to one.
pub fn record_crc(kind: u8, payload: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = crc_byte(0xFFFF_FFFF, kind);
    let mut chunks = payload.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    !chunks.remainder().iter().fold(crc, |crc, &b| crc_byte(crc, b))
}

/// Appends one framed record to `out`.
pub fn encode(kind: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.push(MAGIC);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_crc(kind, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why decoding stopped at a given offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than a complete header + payload needs.
    Truncated,
    /// The byte at the frame boundary is not [`MAGIC`].
    BadMagic,
    /// The kind byte is not a known record kind.
    BadKind,
    /// The stored checksum does not match the payload.
    BadCrc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            FrameError::Truncated => "truncated frame",
            FrameError::BadMagic => "bad frame magic",
            FrameError::BadKind => "unknown record kind",
            FrameError::BadCrc => "checksum mismatch",
        };
        f.write_str(what)
    }
}

/// Decodes the frame starting at `off`; returns `(kind, payload, next_off)`.
pub fn decode(buf: &[u8], off: usize) -> Result<(u8, &[u8], usize), FrameError> {
    let rest = &buf[off..];
    if rest.len() < HEADER_BYTES {
        return Err(FrameError::Truncated);
    }
    if rest[0] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let kind = rest[1];
    if kind != KIND_EVENT && kind != KIND_SEAL {
        return Err(FrameError::BadKind);
    }
    let len = u32::from_le_bytes([rest[2], rest[3], rest[4], rest[5]]) as usize;
    let crc = u32::from_le_bytes([rest[6], rest[7], rest[8], rest[9]]);
    let Some(payload) = rest.get(HEADER_BYTES..HEADER_BYTES + len) else {
        return Err(FrameError::Truncated);
    };
    if record_crc(kind, payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok((kind, payload, off + HEADER_BYTES + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC the sliced one must equal.
    fn record_crc_bytewise(kind: u8, payload: &[u8]) -> u32 {
        !std::iter::once(&kind).chain(payload).fold(0xFFFF_FFFF, |crc, &b| crc_byte(crc, b))
    }

    #[test]
    fn crc_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926; our record CRC prefixes
        // the kind byte, so check the raw polynomial via a kindless probe.
        let crc = b"123456789".iter().fold(0xFFFF_FFFF, |crc, &b| crc_byte(crc, b));
        assert_eq!(!crc, 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_reference() {
        // A deterministic pseudo-random buffer, so every table sees every
        // byte value in every lane.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..(1 << 20))
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for kind in [KIND_EVENT, KIND_SEAL] {
            for len in 0..=64 {
                assert_eq!(
                    record_crc(kind, &buf[..len]),
                    record_crc_bytewise(kind, &buf[..len]),
                    "kind {kind}, length {len}"
                );
            }
            assert_eq!(record_crc(kind, &buf), record_crc_bytewise(kind, &buf), "kind {kind}");
        }
    }

    #[test]
    fn frame_bytes_are_pinned() {
        let mut buf = Vec::new();
        encode(KIND_EVENT, b"{\"Watermark\":{\"month\":[2019,3]}}", &mut buf);
        // Magic, kind, length 32 LE, then the CRC-32 of kind + payload LE
        // (zlib.crc32(b"\x01" + payload) == 0xF1416D81).
        assert_eq!(buf[..HEADER_BYTES], [0xD5, 1, 32, 0, 0, 0, 0x81, 0x6D, 0x41, 0xF1]);
        assert_eq!(&buf[HEADER_BYTES..], b"{\"Watermark\":{\"month\":[2019,3]}}");
    }

    #[test]
    fn round_trip_multiple_records() {
        let mut buf = Vec::new();
        encode(KIND_EVENT, b"{\"a\":1}", &mut buf);
        encode(KIND_SEAL, b"{\"seq\":0}", &mut buf);
        let (k1, p1, off) = decode(&buf, 0).unwrap();
        assert_eq!((k1, p1), (KIND_EVENT, b"{\"a\":1}".as_slice()));
        let (k2, p2, end) = decode(&buf, off).unwrap();
        assert_eq!((k2, p2), (KIND_SEAL, b"{\"seq\":0}".as_slice()));
        assert_eq!(end, buf.len());
    }

    #[test]
    fn torn_tails_are_detected() {
        let mut buf = Vec::new();
        encode(KIND_EVENT, b"payload-bytes", &mut buf);
        // Short header.
        assert_eq!(decode(&buf[..4], 0), Err(FrameError::Truncated));
        // Complete header, short payload.
        assert_eq!(decode(&buf[..HEADER_BYTES + 3], 0), Err(FrameError::Truncated));
        // Flipped payload byte fails the checksum.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(decode(&flipped, 0), Err(FrameError::BadCrc));
        // Garbage at the boundary.
        let mut garbage = buf;
        garbage[0] = 0x00;
        assert_eq!(decode(&garbage, 0), Err(FrameError::BadMagic));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = Vec::new();
        encode(KIND_EVENT, b"x", &mut buf);
        buf[1] = 9;
        assert_eq!(decode(&buf, 0), Err(FrameError::BadKind));
    }
}
