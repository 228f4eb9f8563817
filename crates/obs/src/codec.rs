//! A small LZ77-style byte codec for golden-trace fixtures.
//!
//! Trace renderings are extremely repetitive (thousands of near-identical
//! event lines), so even this deliberately simple greedy matcher shrinks
//! them by an order of magnitude. The format is fixed so fixtures stay
//! stable across compiler and platform changes:
//!
//! ```text
//! "OBZ1"                      magic
//! varint  decompressed_len    LEB128
//! tokens:
//!   0x00 varint(len) bytes    literal run
//!   0x01 varint(dist) varint(len)   copy `len` bytes from `dist` back
//! ```
//!
//! Matches are at least [`MIN_MATCH`] bytes and may overlap the output
//! cursor (runs encode naturally). Decompression is panic-free and
//! validates every token against the declared output length.

/// Shortest back-reference worth emitting.
const MIN_MATCH: usize = 4;
/// Longest back-reference emitted by the compressor.
const MAX_MATCH: usize = 1 << 16;
/// How far back the compressor searches.
const WINDOW: usize = 1 << 16;
/// Hash-chain probes per position (caps worst-case compress time).
const MAX_PROBES: usize = 32;

const MAGIC: &[u8; 4] = b"OBZ1";

/// Why a compressed buffer could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the `OBZ1` magic.
    BadMagic,
    /// The buffer ended inside a varint or token.
    Truncated,
    /// A token was malformed (unknown tag, zero/overlong copy, bad
    /// distance) or the output did not match the declared length.
    Corrupt,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => f.write_str("not an OBZ1 stream"),
            CodecError::Truncated => f.write_str("truncated OBZ1 stream"),
            CodecError::Corrupt => f.write_str("corrupt OBZ1 stream"),
        }
    }
}

impl std::error::Error for CodecError {}

fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(CodecError::Corrupt);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Corrupt);
        }
    }
}

fn hash3(data: &[u8], i: usize) -> usize {
    let a = data[i] as u32;
    let b = data[i + 1] as u32;
    let c = data[i + 2] as u32;
    let key = a | (b << 8) | (c << 16);
    (key.wrapping_mul(2654435761) >> 17) as usize & (HASH_SLOTS - 1)
}

const HASH_SLOTS: usize = 1 << 15;

/// Compresses `input` into a self-describing `OBZ1` buffer.
#[must_use]
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4 + 16);
    out.extend_from_slice(MAGIC);
    push_varint(&mut out, input.len() as u64);

    // head[h] = most recent position with hash h; prev[i] = previous
    // position sharing position i's hash. usize::MAX = empty.
    let mut head = vec![usize::MAX; HASH_SLOTS];
    let mut prev = vec![usize::MAX; input.len()];

    let mut literal_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        let mut from = from;
        while from < to {
            let len = (to - from).min(MAX_MATCH);
            out.push(0x00);
            push_varint(out, len as u64);
            out.extend_from_slice(&input[from..from + len]);
            from += len;
        }
    };

    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash3(input, i);
            let mut candidate = head[h];
            let mut probes = 0usize;
            while candidate != usize::MAX && probes < MAX_PROBES && i - candidate <= WINDOW {
                let limit = (input.len() - i).min(MAX_MATCH);
                let mut len = 0usize;
                while len < limit && input[candidate + len] == input[i + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = i - candidate;
                    if len == limit {
                        break;
                    }
                }
                candidate = prev[candidate];
                probes += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }

        if best_len >= MIN_MATCH {
            flush_literals(&mut out, literal_start, i);
            out.push(0x01);
            push_varint(&mut out, best_dist as u64);
            push_varint(&mut out, best_len as u64);
            // Index the skipped positions so later matches can refer into
            // this region too.
            let end = i + best_len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= input.len() {
                let h = hash3(input, j);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i = end;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, literal_start, input.len());
    out
}

/// Decompresses an `OBZ1` buffer produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    if data.len() < MAGIC.len() || &data[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut pos = MAGIC.len();
    let expected = read_varint(data, &mut pos)?;
    let expected = usize::try_from(expected).map_err(|_| CodecError::Corrupt)?;
    // Each stream byte can expand to at most MAX_MATCH output bytes, so
    // a larger declared length cannot be honest — reject it before
    // allocating.
    if expected > data.len().saturating_mul(MAX_MATCH) {
        return Err(CodecError::Corrupt);
    }
    let mut out: Vec<u8> = Vec::with_capacity(expected.min(1 << 24));

    while pos < data.len() {
        let tag = data[pos];
        pos += 1;
        match tag {
            0x00 => {
                let len = read_varint(data, &mut pos)?;
                let len = usize::try_from(len).map_err(|_| CodecError::Corrupt)?;
                if len == 0 {
                    return Err(CodecError::Corrupt);
                }
                let end = pos.checked_add(len).ok_or(CodecError::Corrupt)?;
                if end > data.len() {
                    return Err(CodecError::Truncated);
                }
                if out.len() + len > expected {
                    return Err(CodecError::Corrupt);
                }
                out.extend_from_slice(&data[pos..end]);
                pos = end;
            }
            0x01 => {
                let dist = read_varint(data, &mut pos)?;
                let len = read_varint(data, &mut pos)?;
                let dist = usize::try_from(dist).map_err(|_| CodecError::Corrupt)?;
                let len = usize::try_from(len).map_err(|_| CodecError::Corrupt)?;
                if dist == 0 || len == 0 || dist > out.len() {
                    return Err(CodecError::Corrupt);
                }
                if out.len() + len > expected {
                    return Err(CodecError::Corrupt);
                }
                // Byte-by-byte copy: overlapping matches (dist < len)
                // replicate the run, exactly as the compressor assumed.
                let start = out.len() - dist;
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            }
            _ => return Err(CodecError::Corrupt),
        }
    }

    if out.len() != expected {
        return Err(CodecError::Corrupt);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(input: &[u8]) {
        let packed = compress(input);
        let unpacked = decompress(&packed).expect("round trip");
        assert_eq!(unpacked, input);
    }

    #[test]
    fn round_trips_edge_cases() {
        round_trip(b"");
        round_trip(b"x");
        round_trip(b"abc");
        round_trip(b"abcd");
        round_trip(&[0u8; 10_000]);
    }

    #[test]
    fn round_trips_repetitive_text_and_shrinks_it() {
        let mut text = String::new();
        for i in 0..500 {
            text.push_str(&format!(
                "PacketDelivered time=1{i:06}000 id=p{i} node=n42 hops=6\n"
            ));
        }
        let input = text.as_bytes();
        let packed = compress(input);
        assert!(
            packed.len() < input.len() / 3,
            "expected >3x shrink, got {} -> {}",
            input.len(),
            packed.len()
        );
        round_trip(input);
    }

    #[test]
    fn round_trips_pseudorandom_bytes() {
        // xorshift so the test is deterministic without a clock or RNG dep.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut data = Vec::with_capacity(4096);
        for _ in 0..4096 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            data.push((state >> 32) as u8);
        }
        round_trip(&data);
    }

    #[test]
    fn compression_is_deterministic() {
        let input = b"the quick brown fox jumps over the lazy dog, the quick brown fox";
        assert_eq!(compress(input), compress(input));
    }

    #[test]
    fn rejects_malformed_streams() {
        assert_eq!(decompress(b"nope"), Err(CodecError::BadMagic));
        assert_eq!(decompress(b"OBZ1"), Err(CodecError::Truncated));
        // Declared length 5 but no tokens.
        assert_eq!(decompress(b"OBZ1\x05"), Err(CodecError::Corrupt));
        // Unknown tag.
        assert_eq!(decompress(b"OBZ1\x01\x07"), Err(CodecError::Corrupt));
        // Literal run longer than the stream.
        assert_eq!(
            decompress(b"OBZ1\x05\x00\x05ab"),
            Err(CodecError::Truncated)
        );
        // Match before any output exists.
        assert_eq!(
            decompress(b"OBZ1\x04\x01\x01\x04"),
            Err(CodecError::Corrupt)
        );
        // Valid prefix, then garbage tag.
        let mut buf = compress(b"hello hello hello hello").to_vec();
        buf.push(0x7f);
        assert_eq!(decompress(&buf), Err(CodecError::Corrupt));
    }

    #[test]
    fn overlapping_match_replicates_runs() {
        // "OBZ1", len 8, literal "ab", match dist=2 len=6 -> "abababab".
        let mut buf = Vec::new();
        buf.extend_from_slice(b"OBZ1");
        buf.push(8);
        buf.extend_from_slice(&[0x00, 0x02]);
        buf.extend_from_slice(b"ab");
        buf.extend_from_slice(&[0x01, 0x02, 0x06]);
        assert_eq!(decompress(&buf).expect("overlap"), b"abababab");
    }
}
