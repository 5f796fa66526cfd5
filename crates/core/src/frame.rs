//! The length-prefixed, checksummed frame codec of the `iocov serve`
//! wire protocol (see [`serve`](crate::serve)).
//!
//! ```text
//! offset  size  field
//! 0       1     frame type: b'L' hello, b'T' data,
//!               b'C' checkpoint, b'D' done
//! 1       8     payload length, u64 LE
//! 9       n     payload
//! 9+n     8     FNV-1a 64 checksum of the payload, u64 LE
//! ```
//!
//! Every frame comes from a socket peer, so [`read_frame`] treats the
//! bytes as untrusted: an unknown type byte, an oversized length, a
//! short payload or a bad checksum is a structured [`FrameError`], and
//! a declared length costs no allocation the peer does not deliver.

use std::fmt;
use std::io::{self, Read, Write};

use crate::checkpoint::fnv1a64;

/// Frame type: the checkpoint document a server answers a HELLO with
/// (empty for a fresh stream).
pub const FRAME_CHECKPOINT: u8 = b'C';
/// Frame type: end of stream; from a server, a refusal carrying the
/// reason.
pub const FRAME_DONE: u8 = b'D';
/// Frame type: a serve-stream greeting. Payload is a JSON stream
/// header.
pub const FRAME_HELLO: u8 = b'L';
/// Frame type: a chunk of raw trace bytes on a serve stream.
pub const FRAME_DATA: u8 = b'T';

/// Ceiling on a frame's declared payload length. Frames come from a
/// socket peer — untrusted by policy — so a corrupt length must fail
/// fast instead of provoking a gigantic allocation.
pub const MAX_FRAME_LEN: u64 = 1 << 30;

/// The most payload buffer [`read_frame`] reserves before bytes arrive;
/// larger payloads grow the buffer as they are actually read, so a
/// forged length costs nothing it does not deliver.
const FRAME_PREALLOC: usize = 64 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Reading the stream failed (includes mid-frame EOF).
    Io(io::Error),
    /// The type byte is not one of the known frame types.
    BadType(u8),
    /// The declared payload length exceeds the reader's limit
    /// ([`MAX_FRAME_LEN`] unless [`read_frame_limited`] set a smaller
    /// one).
    Oversized {
        /// The declared payload length.
        len: u64,
        /// The limit it exceeds.
        max: u64,
    },
    /// The payload checksum does not verify.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::BadType(t) => write!(f, "unknown frame type {t:#04x}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds {max}")
            }
            FrameError::ChecksumMismatch { expected, found } => write!(
                f,
                "frame checksum mismatch: stored {expected:#018x}, computed {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// One decoded protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `FRAME_*` type bytes.
    pub kind: u8,
    /// The verified payload.
    pub payload: Vec<u8>,
}

/// Writes one frame with the payload's checksum.
///
/// # Errors
///
/// Underlying stream errors.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&[kind])?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv1a64(payload).to_le_bytes())?;
    w.flush()
}

/// Reads and verifies one frame. `Ok(None)` is a clean end of stream
/// (EOF exactly at a frame boundary); EOF anywhere inside a frame is
/// [`FrameError::Io`].
///
/// # Errors
///
/// [`FrameError`] describing what failed: I/O, an unknown type byte, an
/// oversized length, or a checksum mismatch.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, FrameError> {
    read_frame_limited(r, MAX_FRAME_LEN)
}

/// [`read_frame`] with a tighter payload ceiling than
/// [`MAX_FRAME_LEN`]: a declared length above `max` is
/// [`FrameError::Oversized`] before any payload byte is read.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_limited(r: &mut impl Read, max: u64) -> Result<Option<Frame>, FrameError> {
    let mut kind = [0u8; 1];
    loop {
        match r.read(&mut kind) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let kind = kind[0];
    if !matches!(
        kind,
        FRAME_CHECKPOINT | FRAME_DONE | FRAME_HELLO | FRAME_DATA
    ) {
        return Err(FrameError::BadType(kind));
    }
    let mut len = [0u8; 8];
    r.read_exact(&mut len).map_err(FrameError::Io)?;
    let len = u64::from_le_bytes(len);
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let capacity = usize::try_from(len).map_err(|_| FrameError::Oversized { len, max })?;
    let mut payload = Vec::with_capacity(capacity.min(FRAME_PREALLOC));
    r.take(len)
        .read_to_end(&mut payload)
        .map_err(FrameError::Io)?;
    if payload.len() != capacity {
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame payload ended after {} of {len} bytes", payload.len()),
        )));
    }
    let mut stored = [0u8; 8];
    r.read_exact(&mut stored).map_err(FrameError::Io)?;
    let stored = u64::from_le_bytes(stored);
    let computed = fnv1a64(&payload);
    if stored != computed {
        return Err(FrameError::ChecksumMismatch {
            expected: stored,
            found: computed,
        });
    }
    Ok(Some(Frame { kind, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_CHECKPOINT, b"hello frames").unwrap();
        write_frame(&mut buf, FRAME_DONE, &[]).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let first = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(first.kind, FRAME_CHECKPOINT);
        assert_eq!(first.payload, b"hello frames");
        let second = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(second.kind, FRAME_DONE);
        assert!(second.payload.is_empty());
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frame_corruption_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_DONE, b"payload bytes").unwrap();

        // Flip a payload byte → checksum mismatch.
        let mut torn = buf.clone();
        torn[12] ^= 0x40;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(torn)),
            Err(FrameError::ChecksumMismatch { .. })
        ));

        // Unknown type byte.
        let mut bad_type = buf.clone();
        bad_type[0] = b'Z';
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bad_type)),
            Err(FrameError::BadType(b'Z'))
        ));

        // Truncation mid-frame is an I/O error, not a clean EOF.
        let torn_tail = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut io::Cursor::new(torn_tail)),
            Err(FrameError::Io(_))
        ));

        // A header declaring the largest legal payload, then EOF, is a
        // structured I/O error (the payload is never preallocated).
        let mut forged = vec![FRAME_DATA];
        forged.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        match read_frame(&mut io::Cursor::new(forged)) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected a truncation error, got {other:?}"),
        }

        // Oversized declared length fails before allocating.
        let mut oversized = buf.clone();
        oversized[1..9].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(oversized)),
            Err(FrameError::Oversized { .. })
        ));
    }
}
