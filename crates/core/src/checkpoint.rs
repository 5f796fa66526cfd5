//! Crash-resumable analysis checkpoints (the `.iockpt` format).
//!
//! A long streaming analysis holds three pieces of state: the input
//! cursor (byte offset + lossy-skip ledger, [`CursorState`]), the
//! per-process relevance states (descriptor provenance + cwd,
//! [`PidStateSnapshot`]), and the accumulated coverage
//! ([`AnalysisReport`] — every aggregate is an order-independent sum, so
//! a materialized prefix report merged with the report over the
//! remaining events is *identical* to an uninterrupted run). A
//! [`CheckpointDoc`] bundles all three plus the pipeline-metrics
//! snapshot, and [`write_checkpoint`] persists it so a killed run can
//! continue from the last checkpoint instead of starting over.
//!
//! # On-disk layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"IOCKPT\r\n"  (CRLF translation detector)
//! 8       4     format version, u32 LE
//! 12      8     payload length, u64 LE
//! 20      n     payload: CheckpointDoc as JSON
//! 20+n    8     FNV-1a 64 checksum of the payload, u64 LE
//! ```
//!
//! Durability contract: the document is written to a sibling temporary
//! file, fsynced, and atomically renamed over the target, so the file at
//! the checkpoint path is always *some* complete checkpoint — a crash
//! mid-write can lose the newest checkpoint but never corrupt the
//! previous one. The checksum catches torn or bit-rotted payloads at
//! load time; [`read_checkpoint`] refuses anything that does not verify,
//! so a resume either starts from a provably intact state or fails with
//! a structured [`CheckpointError`] (and the caller falls back to a full
//! re-run).

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use iocov_trace::{CursorState, SourceFormat};
use serde::{Deserialize, Serialize};

use crate::coverage::AnalysisReport;
use crate::metrics::MetricsSnapshot;

/// The eight-byte `.iockpt` file signature. The `\r\n` tail detects
/// line-ending translation by transfer tools, like PNG's signature.
pub const IOCKPT_MAGIC: [u8; 8] = *b"IOCKPT\r\n";

/// Current checkpoint format version.
pub const IOCKPT_VERSION: u32 = 1;

/// Serializable per-process relevance state: which descriptors trace to
/// the mount point, and whether the cwd does. Maps are `BTreeMap` so a
/// checkpoint of the same state is always the same bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PidStateSnapshot {
    /// Descriptor → does it originate under the mount point?
    pub fds: BTreeMap<i32, bool>,
    /// Whether the process cwd is under the mount point.
    pub cwd_relevant: bool,
}

/// Everything needed to resume an interrupted streaming analysis.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckpointDoc {
    /// The mount point the run filters to (`None` = keep-all). Resume
    /// refuses a checkpoint taken under a different filter — the
    /// restored provenance states would be meaningless.
    pub mount: Option<String>,
    /// Input position: byte offset, line count, lossy-skip ledger.
    pub cursor: CursorState,
    /// Per-pid relevance states at the cursor position.
    pub pid_states: BTreeMap<u32, PidStateSnapshot>,
    /// Coverage accumulated over everything before the cursor.
    pub report: AnalysisReport,
    /// Pipeline-metrics totals at the cursor position.
    #[serde(default)]
    pub metrics: MetricsSnapshot,
    /// Container format of the trace the cursor indexes into. Defaults
    /// to JSONL so checkpoints written before the field existed (which
    /// were JSONL-only) still load.
    #[serde(default)]
    pub format: SourceFormat,
}

/// Why a checkpoint file could not be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading the file failed.
    Io(io::Error),
    /// The file does not start with [`IOCKPT_MAGIC`].
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before the declared payload + checksum.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present after the header.
        found: u64,
    },
    /// The payload checksum does not verify (torn write or corruption).
    ChecksumMismatch {
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
    /// The payload is intact but not a valid [`CheckpointDoc`].
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => {
                write!(f, "not an .iockpt file (bad magic)")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (max {IOCKPT_VERSION})"
                )
            }
            CheckpointError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated checkpoint: expected {expected} payload bytes, found {found}"
                )
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: stored {expected:#018x}, computed {found:#018x}"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint payload: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64-bit over `bytes` — small, dependency-free, and more than
/// enough to catch torn writes and bit rot in a local checkpoint file.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The sibling temporary path used for atomic replacement.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The sibling `.prev` path where [`write_checkpoint`] rotates the
/// previous good checkpoint, and where
/// [`read_checkpoint_with_fallback`] looks when the primary does not
/// verify.
#[must_use]
pub fn prev_checkpoint_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".prev");
    path.with_file_name(name)
}

/// Parent-directory fsync counter, observable from the durability test:
/// file data survives a power loss only if the rename itself reached
/// the directory.
#[cfg(all(unix, test))]
static DIR_SYNCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Fsyncs the directory containing `path`, making a completed rename
/// durable. A rename only updates the directory entry; without this, a
/// power loss after [`write_checkpoint`] returns could roll the entry
/// back and lose a checkpoint the caller was told is safe.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
        #[cfg(test)]
        DIR_SYNCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Serializes `doc` into a complete `.iockpt` image (header, JSON
/// payload, checksum trailer) — the bytes [`write_checkpoint`] persists
/// and `iocov serve` answers a resuming stream's HELLO with.
///
/// # Errors
///
/// Serialization failure only (surfaced as `io::Error::other`).
pub fn encode_checkpoint(doc: &CheckpointDoc) -> io::Result<Vec<u8>> {
    let payload = serde_json::to_string(doc)
        .map_err(|e| io::Error::other(format!("serialize checkpoint: {e}")))?;
    let payload = payload.as_bytes();
    let mut buf = Vec::with_capacity(IOCKPT_MAGIC.len() + 20 + payload.len());
    buf.extend_from_slice(&IOCKPT_MAGIC);
    buf.extend_from_slice(&IOCKPT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    Ok(buf)
}

/// Serializes `doc` and atomically replaces the file at `path` with it
/// (write sibling `.tmp`, fsync, rotate the old checkpoint to `.prev`,
/// rename, fsync the parent directory). The rotation keeps one known-
/// good generation on disk: if the newest checkpoint is torn by a crash
/// mid-write, resume falls back to `.prev` instead of starting over.
///
/// # Errors
///
/// Any I/O failure; the target file is untouched unless the final
/// rename succeeded.
pub fn write_checkpoint(path: &Path, doc: &CheckpointDoc) -> io::Result<()> {
    let buf = encode_checkpoint(doc)?;
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    drop(file);
    match std::fs::rename(path, prev_checkpoint_path(path)) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(())
}

/// Atomically replaces the file at `path` with `bytes` under the same
/// durability discipline as [`write_checkpoint`], minus the `.prev`
/// rotation: sibling `.tmp`, write, fsync, rename, fsync the parent
/// directory. A reader never observes a torn file. `iocov serve` uses
/// this for its merged snapshot and status documents.
///
/// # Errors
///
/// Any I/O failure; the target file is untouched unless the final
/// rename succeeded.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(())
}

/// Loads and verifies a checkpoint file.
///
/// # Errors
///
/// [`CheckpointError`] describing exactly what failed — I/O, magic,
/// version, truncation, checksum, or payload shape.
pub fn read_checkpoint(path: &Path) -> Result<CheckpointDoc, CheckpointError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    parse_checkpoint(&bytes)
}

/// Loads a checkpoint, falling back to the rotated `.prev` sibling when
/// the primary fails to verify (torn write, bit rot, or a crash between
/// the two renames). Returns the document plus `true` when the fallback
/// generation was used, so callers can log a warning — the resume then
/// simply replays a little more of the trace.
///
/// # Errors
///
/// The *primary* path's [`CheckpointError`] when neither generation
/// verifies, so diagnostics always describe the file the user named.
pub fn read_checkpoint_with_fallback(
    path: &Path,
) -> Result<(CheckpointDoc, bool), CheckpointError> {
    match read_checkpoint(path) {
        Ok(doc) => Ok((doc, false)),
        Err(primary) => match read_checkpoint(&prev_checkpoint_path(path)) {
            Ok(doc) => Ok((doc, true)),
            Err(_) => Err(primary),
        },
    }
}

/// Verifies and decodes checkpoint `bytes` (see module docs for the
/// layout).
///
/// # Errors
///
/// Same classification as [`read_checkpoint`], minus I/O.
pub fn parse_checkpoint(bytes: &[u8]) -> Result<CheckpointDoc, CheckpointError> {
    if bytes.len() < IOCKPT_MAGIC.len() || bytes[..IOCKPT_MAGIC.len()] != IOCKPT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let rest = &bytes[IOCKPT_MAGIC.len()..];
    if rest.len() < 12 {
        return Err(CheckpointError::Truncated {
            expected: 12,
            found: rest.len() as u64,
        });
    }
    let version = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
    if version > IOCKPT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let len = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
    let body = &rest[12..];
    let expected = len.checked_add(8).ok_or(CheckpointError::Truncated {
        expected: u64::MAX,
        found: body.len() as u64,
    })?;
    if (body.len() as u64) < expected {
        return Err(CheckpointError::Truncated {
            expected,
            found: body.len() as u64,
        });
    }
    let payload = &body[..usize::try_from(len).map_err(|_| CheckpointError::Truncated {
        expected,
        found: body.len() as u64,
    })?];
    let stored = u64::from_le_bytes(
        body[payload.len()..payload.len() + 8]
            .try_into()
            .expect("8 bytes"),
    );
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch {
            expected: stored,
            found: computed,
        });
    }
    let text =
        std::str::from_utf8(payload).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| CheckpointError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::StreamingAnalyzer;
    use crate::TraceFilter;
    use iocov_trace::{ArgValue, TraceEvent};

    fn sample_doc() -> CheckpointDoc {
        // Accumulate some real state so the round-trip exercises every
        // field, including non-empty pid states and a live report.
        let mut analyzer = StreamingAnalyzer::new(TraceFilter::mount_point("/mnt/test").unwrap());
        let mut open = TraceEvent::build(
            "open",
            2,
            vec![
                ArgValue::Path("/mnt/test/f".into()),
                ArgValue::Flags(0o101),
                ArgValue::Mode(0o644),
            ],
            3,
        );
        open.pid = 41;
        let mut chdir = TraceEvent::build("chdir", 80, vec![ArgValue::Path("/mnt/test".into())], 0);
        chdir.pid = 42;
        analyzer.push(&open);
        analyzer.push(&chdir);
        CheckpointDoc {
            mount: Some("/mnt/test".into()),
            cursor: CursorState {
                byte_offset: 321,
                lines: 2,
                events: 2,
                ..CursorState::default()
            },
            pid_states: analyzer.pid_states(),
            report: analyzer.report(),
            metrics: MetricsSnapshot::default(),
            format: SourceFormat::Jsonl,
        }
    }

    fn tmp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iockpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_is_lossless() {
        let doc = sample_doc();
        let path = tmp_file("round_trip.iockpt");
        write_checkpoint(&path, &doc).unwrap();
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(doc, back);
        // Two pids tracked: one via open, one via chdir.
        assert_eq!(back.pid_states.len(), 2);
        assert!(back.pid_states[&41].fds[&3]);
        assert!(back.pid_states[&42].cwd_relevant);
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let path = tmp_file("rewrite.iockpt");
        let mut doc = sample_doc();
        write_checkpoint(&path, &doc).unwrap();
        doc.cursor.byte_offset = 999;
        write_checkpoint(&path, &doc).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().cursor.byte_offset, 999);
        assert!(!tmp_path(&path).exists(), "tmp file must not linger");
    }

    #[test]
    fn corruption_is_detected() {
        let doc = sample_doc();
        let path = tmp_file("corrupt.iockpt");
        write_checkpoint(&path, &doc).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // Flip one payload bit → checksum mismatch.
        let mid = IOCKPT_MAGIC.len() + 12 + 5;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            parse_checkpoint(&bytes),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        bytes[mid] ^= 0x01;

        // Truncate → structured truncation error, not a panic.
        let torn = &bytes[..bytes.len() - 12];
        assert!(matches!(
            parse_checkpoint(torn),
            Err(CheckpointError::Truncated { .. })
        ));

        // Wrong magic.
        assert!(matches!(
            parse_checkpoint(b"NOTCKPT\n rest"),
            Err(CheckpointError::BadMagic)
        ));

        // Future version.
        let mut future = bytes.clone();
        future[IOCKPT_MAGIC.len()..IOCKPT_MAGIC.len() + 4]
            .copy_from_slice(&(IOCKPT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            parse_checkpoint(&future),
            Err(CheckpointError::UnsupportedVersion(_))
        ));

        // Untouched bytes still verify.
        assert_eq!(parse_checkpoint(&bytes).unwrap(), doc);
    }

    #[cfg(unix)]
    #[test]
    fn checkpoint_write_syncs_parent_directory() {
        use std::sync::atomic::Ordering;
        let before = DIR_SYNCS.load(Ordering::Relaxed);
        write_checkpoint(&tmp_file("dirsync.iockpt"), &sample_doc()).unwrap();
        assert!(
            DIR_SYNCS.load(Ordering::Relaxed) > before,
            "write_checkpoint must fsync the parent directory after the rename"
        );
    }

    #[test]
    fn rotation_keeps_previous_generation() {
        let path = tmp_file("rotate.iockpt");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(prev_checkpoint_path(&path));
        let mut gen1 = sample_doc();
        gen1.cursor.byte_offset = 100;
        write_checkpoint(&path, &gen1).unwrap();
        assert!(
            !prev_checkpoint_path(&path).exists(),
            "first write has nothing to rotate"
        );
        let mut gen2 = sample_doc();
        gen2.cursor.byte_offset = 200;
        write_checkpoint(&path, &gen2).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), gen2);
        assert_eq!(
            read_checkpoint(&prev_checkpoint_path(&path)).unwrap(),
            gen1,
            "replaced checkpoint must survive as .prev"
        );
        // With an intact primary the fallback reader never falls back.
        let (doc, fell_back) = read_checkpoint_with_fallback(&path).unwrap();
        assert!(!fell_back);
        assert_eq!(doc, gen2);
    }

    #[test]
    fn torn_primary_falls_back_to_prev() {
        use iocov_faults::{FaultPlan, FaultyWrite};
        let path = tmp_file("torn_fallback.iockpt");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(prev_checkpoint_path(&path));
        let mut gen1 = sample_doc();
        gen1.cursor.byte_offset = 100;
        write_checkpoint(&path, &gen1).unwrap();
        let mut gen2 = sample_doc();
        gen2.cursor.byte_offset = 200;
        write_checkpoint(&path, &gen2).unwrap();

        // Tear a third generation over the primary under a seeded fault
        // schedule: short transfers, then the disk dies. Whatever prefix
        // lands, resume must verify it, reject it, and recover from the
        // rotated generation.
        let mut gen3 = sample_doc();
        gen3.cursor.byte_offset = 300;
        let image = encode_checkpoint(&gen3).unwrap();
        for seed in 0..8u64 {
            let plan = FaultPlan::new(seed)
                .with_rates(200, 100, 700)
                .with_hard_error_after(1);
            let mut w = FaultyWrite::new(File::create(&path).unwrap(), plan);
            let mut off = 0;
            loop {
                match w.write(&image[off..]) {
                    Ok(n) => off += n,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
                        ) => {}
                    Err(_) => break,
                }
            }
            assert!(
                off < image.len(),
                "seed {seed}: torn write must not complete"
            );
            assert!(
                read_checkpoint(&path).is_err(),
                "seed {seed}: torn primary must not verify"
            );
            let (doc, fell_back) = read_checkpoint_with_fallback(&path).unwrap();
            assert!(fell_back, "seed {seed}");
            assert_eq!(
                doc, gen1,
                "seed {seed}: fallback must be the rotated generation"
            );
        }

        // Neither generation intact → the primary's error surfaces.
        std::fs::write(prev_checkpoint_path(&path), b"garbage").unwrap();
        assert!(read_checkpoint_with_fallback(&path).is_err());
    }

    #[test]
    fn resume_from_pid_states_matches_uninterrupted() {
        // The crash-resume invariant at the analyzer level: splitting a
        // stream at an arbitrary event boundary, checkpointing, and
        // resuming into a fresh analyzer yields a byte-identical merged
        // report.
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let mut events = Vec::new();
        for pid in 0..4u32 {
            let mut open = TraceEvent::build(
                "open",
                2,
                vec![
                    ArgValue::Path(format!("/mnt/test/f{pid}")),
                    ArgValue::Flags(0o2),
                    ArgValue::Mode(0o600),
                ],
                3,
            );
            open.pid = pid;
            let mut dup = TraceEvent::build("dup", 32, vec![ArgValue::Fd(3)], 8);
            dup.pid = pid;
            let mut write = TraceEvent::build(
                "write",
                1,
                vec![ArgValue::Fd(8), ArgValue::Ptr(1), ArgValue::UInt(64)],
                64,
            );
            write.pid = pid;
            events.extend([open, dup, write]);
        }
        let mut full = StreamingAnalyzer::new(filter.clone());
        full.push_all(&events);
        let full_report = serde_json::to_string(&full.finish()).unwrap();

        for cut in 0..=events.len() {
            let mut head = StreamingAnalyzer::new(filter.clone());
            head.push_all(&events[..cut]);
            // Round-trip the resume state through the serialized doc.
            let doc = CheckpointDoc {
                mount: Some("/mnt/test".into()),
                pid_states: head.pid_states(),
                report: head.report(),
                ..CheckpointDoc::default()
            };
            let doc: CheckpointDoc =
                serde_json::from_str(&serde_json::to_string(&doc).unwrap()).unwrap();
            let mut tail = StreamingAnalyzer::new(filter.clone());
            tail.restore_pid_states(&doc.pid_states);
            tail.push_all(&events[cut..]);
            let mut merged = doc.report;
            merged.merge(&tail.finish());
            assert_eq!(
                full_report,
                serde_json::to_string(&merged).unwrap(),
                "cut={cut}"
            );
        }
    }
}
