//! Crash-safe line framing for durable append-only files.
//!
//! The checkpoint journal and durable JSONL streams share one framing: each
//! record is a single line
//!
//! ```text
//! J1 <payload-len> <crc32-hex> <payload>\n
//! ```
//!
//! written with one `write` call, so a crash mid-append can corrupt **only
//! the final line**. On load, [`read_framed`] walks the file front to back
//! and stops at the first line that fails the length or CRC check — by the
//! append-only invariant that line (and anything after it) can only be the
//! torn tail of the last in-flight write, so every earlier record is intact.
//!
//! Payloads must not contain raw newlines (JSON one-liners never do; the
//! framer rejects them defensively).

/// Frame tag identifying the format version.
const TAG: &str = "J1";

/// The register update for each byte value (eight steps of the reflected
/// polynomial division), built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes`.
///
/// Hand-rolled so the workspace stays dependency-free; byte-at-a-time over a
/// table built at compile time is ample for journal-sized inputs.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(0xFFFF_FFFF, |crc, &b| CRC32_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8))
}

/// A payload rejected by [`frame_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload contains a raw newline and cannot be framed as one line.
    EmbeddedNewline,
    /// The line does not carry the `J1` tag.
    BadTag,
    /// The line's header fields are malformed.
    BadHeader,
    /// The declared length does not match the payload.
    LengthMismatch {
        /// Length declared by the frame header.
        declared: usize,
        /// Actual payload length on the line.
        actual: usize,
    },
    /// The payload's CRC-32 does not match the declared checksum.
    ChecksumMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::EmbeddedNewline => write!(f, "payload contains a raw newline"),
            FrameError::BadTag => write!(f, "missing J1 frame tag"),
            FrameError::BadHeader => write!(f, "malformed frame header"),
            FrameError::LengthMismatch { declared, actual } => {
                write!(f, "frame length mismatch: declared {declared}, actual {actual}")
            }
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Frames `payload` as one durable line (including the trailing newline).
///
/// The returned string is meant to be appended with a **single** `write`
/// call: partial writes then only ever produce a torn final line, which
/// [`read_framed`] drops cleanly.
pub fn frame_line(payload: &str) -> Result<String, FrameError> {
    if payload.contains('\n') {
        return Err(FrameError::EmbeddedNewline);
    }
    Ok(format!("{TAG} {} {:08x} {payload}\n", payload.len(), crc32(payload.as_bytes())))
}

/// Parses one framed line (without its trailing newline) back to its
/// payload, verifying length and checksum.
pub fn parse_frame(line: &str) -> Result<&str, FrameError> {
    let rest = line.strip_prefix(TAG).ok_or(FrameError::BadTag)?;
    let rest = rest.strip_prefix(' ').ok_or(FrameError::BadHeader)?;
    let (len_str, rest) = rest.split_once(' ').ok_or(FrameError::BadHeader)?;
    let (crc_str, payload) = rest.split_once(' ').ok_or(FrameError::BadHeader)?;
    let declared: usize = len_str.parse().map_err(|_| FrameError::BadHeader)?;
    let declared_crc = u32::from_str_radix(crc_str, 16).map_err(|_| FrameError::BadHeader)?;
    if payload.len() != declared {
        return Err(FrameError::LengthMismatch { declared, actual: payload.len() });
    }
    if crc32(payload.as_bytes()) != declared_crc {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(payload)
}

/// What [`read_framed`] salvaged from a (possibly torn) framed file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FramedRead<'a> {
    /// Payloads of every intact record, in file order, borrowed from the
    /// file's bytes.
    pub records: Vec<&'a str>,
    /// Bytes dropped from the tail (the torn final write).
    pub dropped_tail_bytes: usize,
    /// Why the tail was dropped, when it was.
    pub tail_error: Option<String>,
}

impl FramedRead<'_> {
    /// `true` when the file ended mid-record and bytes were discarded.
    pub fn tail_dropped(&self) -> bool {
        self.dropped_tail_bytes > 0
    }
}

/// Reads a framed file, salvaging every intact leading record and dropping
/// the torn tail (if any).
///
/// Operates on raw bytes: a write torn mid-UTF-8-sequence is still confined
/// to the final line and is dropped like any other checksum failure.
pub fn read_framed(bytes: &[u8]) -> FramedRead<'_> {
    let mut out = FramedRead::default();
    let mut pos = 0;
    while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            // No newline: the final write never completed.
            out.dropped_tail_bytes = bytes.len() - pos;
            out.tail_error = Some("unterminated final line".to_string());
            return out;
        };
        let line_bytes = &bytes[pos..pos + nl];
        let parsed = std::str::from_utf8(line_bytes)
            .map_err(|_| FrameError::BadHeader.to_string())
            .and_then(|line| parse_frame(line).map_err(|e| e.to_string()));
        match parsed {
            Ok(payload) => out.records.push(payload),
            Err(e) => {
                // A bad line can only be the torn tail of the last append
                // (the append-only invariant); drop it and everything after.
                out.dropped_tail_bytes = bytes.len() - pos;
                out.tail_error = Some(e);
                return out;
            }
        }
        pos += nl + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrips() {
        let payload = r#"{"type":"shard","index":3}"#;
        let line = frame_line(payload).expect("frames");
        assert!(line.ends_with('\n'));
        assert_eq!(parse_frame(line.trim_end_matches('\n')).expect("parses"), payload);
    }

    #[test]
    fn newlines_are_rejected() {
        assert_eq!(frame_line("a\nb"), Err(FrameError::EmbeddedNewline));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let line = frame_line("hello world").unwrap();
        let bad = line.replace("hello", "jello");
        assert_eq!(parse_frame(bad.trim_end_matches('\n')), Err(FrameError::ChecksumMismatch));
    }

    #[test]
    fn read_framed_salvages_intact_prefix() {
        let mut file = String::new();
        for i in 0..4 {
            file.push_str(&frame_line(&format!("record {i}")).unwrap());
        }
        let read = read_framed(file.as_bytes());
        assert_eq!(read.records.len(), 4);
        assert!(!read.tail_dropped());
    }

    #[test]
    fn read_framed_drops_only_the_torn_tail() {
        let mut file = String::new();
        for i in 0..3 {
            file.push_str(&frame_line(&format!("record {i}")).unwrap());
        }
        let intact = file.len();
        file.push_str("J1 40 deadbeef {\"type\":\"shard\",\"ind"); // torn write
        let read = read_framed(file.as_bytes());
        assert_eq!(read.records, vec!["record 0", "record 1", "record 2"]);
        assert_eq!(read.dropped_tail_bytes, file.len() - intact);
        assert!(read.tail_dropped());
    }

    #[test]
    fn every_truncation_point_keeps_the_intact_prefix() {
        let mut file = String::new();
        let mut boundaries = vec![0usize];
        for i in 0..3 {
            file.push_str(&frame_line(&format!("payload number {i}")).unwrap());
            boundaries.push(file.len());
        }
        for cut in 0..file.len() {
            let read = read_framed(&file.as_bytes()[..cut]);
            // The salvage is exactly the records whose full line fits.
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(read.records.len(), complete, "cut at byte {cut}");
        }
    }
}
