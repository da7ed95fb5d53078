//! The durable file envelope, and the checkpoint file format built on it.
//!
//! Every durable file this workspace writes (mission checkpoints here,
//! the fleet manifest in `iobt-fleet`) is one envelope, sealed by
//! [`seal`] and verified by [`open`] (all integers little-endian, `k`
//! fixed per file kind):
//!
//! | offset      | size | field                                     |
//! |-------------|------|-------------------------------------------|
//! | 0           | 8    | magic                                     |
//! | 8           | 4    | format version (`u32`)                    |
//! | 12          | 8·k  | `k` header words (`u64` each)             |
//! | 12 + 8k     | 8    | payload length (`u64`)                    |
//! | 20 + 8k     | n    | payload                                   |
//! | 20 + 8k + n | 4    | CRC-32 (IEEE) over every preceding byte   |
//!
//! A checkpoint is the envelope with magic `b"IOBTCKPT"`, version
//! [`FORMAT_VERSION`] and `k = 2` header words: the mission seed and the
//! window index (windows completed).
//!
//! The CRC covers the header *and* the payload, so a bit flip anywhere
//! in the file — including in the header fields themselves — is
//! detected at load. Files are written to a `.tmp` sibling and
//! atomically renamed into place ([`write_atomic`]), so a crash
//! mid-write can only ever leave a stale temp file behind, never a
//! truncated file under the final name.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::codec::{Dec, DecodeError};

/// File magic: the first eight bytes of every checkpoint.
pub const MAGIC: [u8; 8] = *b"IOBTCKPT";

/// Current checkpoint format version. Bump on any layout change.
///
/// Version policy: the loader accepts exactly this version. A
/// checkpoint from any other build — including the previous one, N−1 —
/// is refused with [`CkptError::UnsupportedVersion`] before a single
/// payload byte is interpreted, never best-effort parsed: a checkpoint
/// only has to outlive the process that wrote it, and a refused file
/// costs one re-run where a misparsed one would silently diverge.
///
/// History: v1 recorded the netsim graph cache as a present/absent
/// bool; v2 widened that byte to a three-state disposition (absent,
/// clean, pending-liveness-patch) for incremental connectivity
/// maintenance, so v1 readers would misparse v2 payloads; v3 widened
/// the recorder's per-subsystem emission-counter array from 5 to 6
/// slots when the `fleet` subsystem was added, shifting every field
/// after it; v4 widened it again from 6 to 7 slots for the `bridge`
/// subsystem; v5 length-prefixes that counter block (so a new
/// subsystem no longer moves any other field) and stores the config
/// guard as the length-prefixed run-parameter codec bytes; v6 drops
/// eight fixed run settings from that guard, the detector threshold (it
/// follows from the guarded report period), the simulator snapshot's
/// MAC-retry / mobility-step / idle-drain guard and the tasking sink's
/// attempt cap and retry base, all now constants; v7 carries the mission
/// prologue's products (recruitment counts, initial composition,
/// assurance, the recruits' ids) after the guard, so a resume no longer
/// recomputes them; v8 drops each node's sleep schedule from the
/// simulator snapshot (builder configuration, which nothing changes after
/// the build); v9 carries each in-flight message's payload as its length
/// alone and drops the sensor reporter's payload size (now a constant).
pub const FORMAT_VERSION: u32 = 9;

/// Trailing checksum size in bytes.
pub const TRAILER_LEN: usize = 4;

/// Envelope bytes around the payload, given `k` header words: magic,
/// version, the words, the payload length, the checksum.
const fn overhead(k: usize) -> usize {
    8 + 4 + 8 * k + 8 + TRAILER_LEN
}

/// Decoded checkpoint header fields. The format version is checked,
/// not kept: a decoded header's is always [`FORMAT_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Mission seed the checkpoint belongs to.
    pub seed: u64,
    /// Number of utility windows completed when the checkpoint was
    /// taken (resume continues from window `window`).
    pub window: u64,
}

/// Everything that can go wrong saving or loading a checkpoint.
///
/// None of these are panics: a torn, truncated or bit-flipped file
/// surfaces as an `Err` so the caller can fall back to the previous
/// good checkpoint.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem error (open/read/write/rename).
    Io {
        /// What was being attempted (e.g. `"write"`).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file is shorter than a minimal envelope.
    Truncated {
        /// Actual file length.
        len: usize,
        /// Minimum length for an empty-payload checkpoint.
        min: usize,
    },
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// The format version is newer (or otherwise unknown) to this build.
    UnsupportedVersion(u32),
    /// The header's payload length disagrees with the file size.
    LengthMismatch {
        /// Length declared in the header.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The trailing CRC-32 does not match the file contents.
    CrcMismatch {
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the file contents.
        computed: u32,
    },
    /// The checkpoint was written for a different mission seed.
    SeedMismatch {
        /// Seed the caller expected.
        expected: u64,
        /// Seed found in the header.
        found: u64,
    },
    /// The envelope verified, but the payload failed to decode.
    Decode(DecodeError),
    /// The payload decoded, but disagrees with the scenario/config the
    /// caller is resuming with (e.g. different window count).
    Mismatch(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { op, path, source } => {
                write!(f, "checkpoint {op} failed for {}: {source}", path.display())
            }
            CkptError::Truncated { len, min } => {
                write!(f, "checkpoint truncated: {len} bytes, minimum {min}")
            }
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CkptError::LengthMismatch { declared, actual } => write!(
                f,
                "payload length mismatch: header declares {declared}, file holds {actual}"
            ),
            CkptError::CrcMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CkptError::SeedMismatch { expected, found } => {
                write!(f, "seed mismatch: expected {expected}, checkpoint has {found}")
            }
            CkptError::Decode(e) => write!(f, "payload decode failed: {e}"),
            CkptError::Mismatch(why) => write!(f, "checkpoint does not match this run: {why}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io { source, .. } => Some(source),
            CkptError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for CkptError {
    fn from(e: DecodeError) -> Self {
        CkptError::Decode(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Seals `payload` in an envelope: `magic`, `version`, the header
/// `words`, the payload length, the payload, and a CRC-32 over all of it.
pub fn seal(magic: &[u8; 8], version: u32, words: &[u64], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(overhead(words.len()) + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    for word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Verifies an envelope written by [`seal`] with `K` header words and
/// returns the words and the payload slice.
///
/// Verification order: length floor → magic → version → declared
/// payload length → CRC. Every failure is an `Err`; nothing panics on
/// arbitrary input.
pub fn open<'a, const K: usize>(
    magic: &[u8; 8],
    version: u32,
    bytes: &'a [u8],
) -> Result<([u64; K], &'a [u8]), CkptError> {
    let min = overhead(K);
    if bytes.len() < min {
        return Err(CkptError::Truncated {
            len: bytes.len(),
            min,
        });
    }
    if bytes[..8] != *magic {
        return Err(CkptError::BadMagic);
    }
    // Past the length floor every fixed-width read below is in bounds.
    let mut header = Dec::new(&bytes[8..]);
    let found = header.u32()?;
    if found != version {
        return Err(CkptError::UnsupportedVersion(found));
    }
    let mut words = [0u64; K];
    for word in &mut words {
        *word = header.u64()?;
    }
    let declared = header.u64()?;
    let actual = (bytes.len() - min) as u64;
    if declared != actual {
        return Err(CkptError::LengthMismatch { declared, actual });
    }
    let body_end = bytes.len() - TRAILER_LEN;
    let stored = Dec::new(&bytes[body_end..]).u32()?;
    let computed = crc32(&bytes[..body_end]);
    if stored != computed {
        return Err(CkptError::CrcMismatch { stored, computed });
    }
    Ok((words, &bytes[min - TRAILER_LEN..body_end]))
}

/// Serialises a checkpoint envelope around `payload`.
pub fn encode_checkpoint(seed: u64, window: u64, payload: &[u8]) -> Vec<u8> {
    seal(&MAGIC, FORMAT_VERSION, &[seed, window], payload)
}

/// Verifies a checkpoint envelope and returns its header and payload
/// slice (see [`open`] for the verification order).
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(CheckpointHeader, &[u8]), CkptError> {
    let ([seed, window], payload) = open::<2>(&MAGIC, FORMAT_VERSION, bytes)?;
    Ok((
        CheckpointHeader { seed, window },
        payload,
    ))
}

/// Writes `bytes` to `path` atomically and durably: they go to a `.tmp`
/// sibling, are flushed to disk with `sync_all`, and the sibling is
/// then renamed over `path`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let io = |op: &'static str, p: &Path| {
        let path = p.to_path_buf();
        move |source| CkptError::Io { op, path, source }
    };
    let mut file = fs::File::create(&tmp).map_err(io("create", &tmp))?;
    file.write_all(bytes).map_err(io("write", &tmp))?;
    file.sync_all().map_err(io("sync", &tmp))?;
    drop(file);
    fs::rename(&tmp, path).map_err(io("rename", path))?;
    Ok(())
}

/// Writes a checkpoint to `path` atomically (see [`write_atomic`]).
pub fn write_checkpoint_atomic(
    path: &Path,
    seed: u64,
    window: u64,
    payload: &[u8],
) -> Result<(), CkptError> {
    write_atomic(path, &encode_checkpoint(seed, window, payload))
}

/// Reads a whole file, naming the path in the error.
pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, CkptError> {
    fs::read(path).map_err(|source| CkptError::Io {
        op: "read",
        path: path.to_path_buf(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn envelope_roundtrip() {
        let payload = b"mission state goes here";
        let bytes = encode_checkpoint(42, 7, payload);
        let (header, got) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(header.seed, 42);
        assert_eq!(header.window, 7);
        assert_eq!(got, payload);
        // The shared envelope under it, at both header widths in use:
        // k = 2 (checkpoints) and k = 0 (the fleet manifest).
        let two = seal(b"TESTMAGC", 9, &[42, 7], payload);
        assert_eq!(open::<2>(b"TESTMAGC", 9, &two).unwrap(), ([42, 7], &payload[..]));
        let zero = seal(b"TESTMAGC", 9, &[], payload);
        assert_eq!(zero.len() + 16, two.len());
        assert_eq!(open::<0>(b"TESTMAGC", 9, &zero).unwrap(), ([], &payload[..]));
        // Reading with the wrong width never verifies.
        assert!(open::<0>(b"TESTMAGC", 9, &two).is_err());
        assert!(open::<2>(b"TESTMAGC", 9, &zero).is_err());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let bytes = encode_checkpoint(1, 0, &[]);
        let (header, got) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(header.window, 0);
        assert!(got.is_empty());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_checkpoint(42, 3, b"abcdefgh");
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    decode_checkpoint(&bad).is_err(),
                    "flip of byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_checkpoint(42, 3, b"abcdefgh");
        for len in 0..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode_checkpoint(1, 1, b"x");
        bytes[8] = 99; // version field
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(CkptError::UnsupportedVersion(_) | CkptError::CrcMismatch { .. })
        ));
        // N−1 policy: a well-formed envelope from the previous format
        // version is refused by version, never handed to the decoder.
        let previous = seal(&MAGIC, FORMAT_VERSION - 1, &[1, 1], b"x");
        assert!(matches!(
            decode_checkpoint(&previous),
            Err(CkptError::UnsupportedVersion(v)) if v == FORMAT_VERSION - 1
        ));
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("iobt-ckpt-env-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.ickpt");
        write_checkpoint_atomic(&path, 9, 2, b"payload").unwrap();
        let bytes = read_file(&path).unwrap();
        let (header, payload) = decode_checkpoint(&bytes).unwrap();
        assert_eq!((header.seed, header.window), (9, 2));
        assert_eq!(payload, b"payload");
        // No temp file left behind.
        assert!(!dir.join("one.ickpt.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
