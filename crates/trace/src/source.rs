//! Composable, pull-based event sources.
//!
//! Every ingestion path in the pipeline — strict or lossy, JSONL or
//! `.iotb`, fresh or resumed from a checkpoint — is one implementation
//! of a single trait: an [`EventSource`] yields events in batches,
//! reports a serializable resume point ([`SourcePos`]) valid at any
//! batch boundary, and exposes the lossy skip ledger. Format
//! auto-sniffing lives in the [`open_source`] factory (it used to be
//! CLI-side glue), so callers ask for "the events in this file" and the
//! right cursor is chosen for them:
//!
//! ```text
//!   open_source(path)                EventSource        consumer
//!   ┌──────────────┐   sniff   ┌──────────────────┐   next_batch()
//!   │ magic bytes? ├──────────▶│ JsonlCursor      ├──▶ Driver /
//!   │ --format?    │           │ IotbCursor       │    session
//!   │ resume pos?  │           │ (strict | lossy) │
//!   └──────────────┘           └──────────────────┘
//! ```
//!
//! Strictness is not a separate implementation: [`ErrorPolicy::Abort`]
//! in [`ReadOptions`] makes either cursor fail on the first malformed
//! line or record. Whole-trace reads are not separate either: the
//! provided [`EventSource::read_all`] drains any source into a
//! [`Trace`], and `read_jsonl` / `read_iotb` are that drain over a
//! strict cursor.

use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

use serde::{Deserialize, Serialize};

use crate::batch::EventBatch;
use crate::binary::{is_iotb, IotbCursor};
use crate::cursor::{CursorState, JsonlCursor};
use crate::lossy::{ReadOptions, SkippedLine};
use crate::serial::TraceIoError;
use crate::Trace;

#[cfg(doc)]
use crate::lossy::ErrorPolicy;

/// On-disk trace container format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SourceFormat {
    /// JSON Lines, one event per line.
    #[default]
    Jsonl,
    /// The `.iotb` compact binary container.
    Iotb,
}

impl SourceFormat {
    /// Stable kebab-case name, used in errors and checkpoints.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SourceFormat::Jsonl => "jsonl",
            SourceFormat::Iotb => "iotb",
        }
    }
}

impl fmt::Display for SourceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A serializable resume point: the format being scanned plus the
/// cursor's state. What a checkpoint stores, and what [`open_source`]
/// accepts to continue an interrupted scan.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourcePos {
    /// Which cursor produced the state.
    pub format: SourceFormat,
    /// The cursor's resume state.
    pub state: CursorState,
}

/// A pull-based, resumable stream of trace events.
pub trait EventSource {
    /// Pulls up to `max` events as one columnar [`EventBatch`]. An
    /// empty batch means end of stream.
    ///
    /// Every implementation returns exactly `max` events while the
    /// stream has them, so batch boundaries — and anything derived
    /// from them, like batch-count metrics — are identical across
    /// decode paths.
    ///
    /// # Errors
    ///
    /// Returns the underlying cursor's errors: I/O failure, an
    /// exhausted lossy skip budget, or — under strict options — the
    /// first malformed line/record.
    fn next_batch(&mut self, max: usize) -> Result<EventBatch, TraceIoError>;

    /// The current resume point. Valid to checkpoint at any batch
    /// boundary.
    fn position(&self) -> SourcePos;

    /// Every line/record dropped so far (lossy mode).
    fn skip_ledger(&self) -> &[SkippedLine];

    /// Drains the rest of the stream into a [`Trace`] — the one
    /// whole-trace read. Under strict options the first malformed
    /// line/record aborts it; under lossy ones the skips stay in
    /// [`skip_ledger`](Self::skip_ledger) and the cursor's
    /// [`position`](Self::position) afterwards.
    ///
    /// # Errors
    ///
    /// The first error [`next_batch`](Self::next_batch) returns.
    fn read_all(&mut self) -> Result<Trace, TraceIoError> {
        let mut events = Vec::new();
        loop {
            let batch = self.next_batch(DRAIN_BATCH)?;
            if batch.is_empty() {
                return Ok(Trace::from_events(events));
            }
            events.extend(batch.to_events());
        }
    }
}

/// Batch size [`EventSource::read_all`] pulls with.
const DRAIN_BATCH: usize = 4096;

/// The JSONL [`EventSource`]: the cursor itself.
pub type JsonlSource<R> = JsonlCursor<R>;

/// The `.iotb` [`EventSource`]: the cursor itself.
pub type IotbSource<R> = IotbCursor<R>;

impl<R: Read> EventSource for JsonlCursor<R> {
    fn next_batch(&mut self, max: usize) -> Result<EventBatch, TraceIoError> {
        // `next_into` decodes canonical lines straight into the batch
        // columns; only lines it declines go through serde into an
        // owned event, which is packed into the batch and dropped.
        fill_batch(max, |batch| self.next_into(batch))
    }

    fn position(&self) -> SourcePos {
        SourcePos {
            format: SourceFormat::Jsonl,
            state: self.state().clone(),
        }
    }

    fn skip_ledger(&self) -> &[SkippedLine] {
        &self.state().skipped
    }
}

impl<R: Read> EventSource for IotbCursor<R> {
    fn next_batch(&mut self, max: usize) -> Result<EventBatch, TraceIoError> {
        // `next_into` decodes records straight into the batch columns —
        // no owned `TraceEvent` is materialized on this path.
        fill_batch(max, |batch| self.next_into(batch))
    }

    fn position(&self) -> SourcePos {
        SourcePos {
            format: SourceFormat::Iotb,
            state: self.state().clone(),
        }
    }

    fn skip_ledger(&self) -> &[SkippedLine] {
        &self.state().skipped
    }
}

/// Pulls rows through `next_into` until the batch holds `max` events or
/// the stream ends.
fn fill_batch(
    max: usize,
    mut next_into: impl FnMut(&mut EventBatch) -> Result<bool, TraceIoError>,
) -> Result<EventBatch, TraceIoError> {
    let mut batch = EventBatch::with_capacity(max.min(1024));
    while batch.len() < max && next_into(&mut batch)? {}
    Ok(batch)
}

/// Reader decoration applied by [`open_source`] to the data file —
/// retry layers, fault injection. Sniffing always reads the plain file.
pub type ReaderWrap = Box<dyn Fn(File) -> Box<dyn Read>>;

/// How [`open_source`] opens a trace file.
#[derive(Default)]
pub struct SourceOptions {
    /// Per-line/record error handling, shared by both cursors.
    pub read: ReadOptions,
    /// Forced container format; `None` sniffs the magic bytes.
    pub format: Option<SourceFormat>,
    /// Resume point from a checkpoint. Its format must match the
    /// resolved one ([`SourceError::FormatMismatch`] otherwise).
    pub resume: Option<SourcePos>,
    /// Optional reader decoration for the data file.
    pub wrap: Option<ReaderWrap>,
    /// Ignored. Every format and container version is read by its one
    /// serial cursor at any value. The field outlived the parallel v2
    /// block decoder it configured because the committed benchmark
    /// harness still sets it in a struct literal; it goes with the next
    /// change to the benchmark.
    pub decode_jobs: usize,
}

/// Why [`open_source`] failed — split by phase so callers can keep
/// their own message conventions per failure site.
#[derive(Debug)]
pub enum SourceError {
    /// The file could not be opened.
    Open(std::io::Error),
    /// The magic-byte sniff read failed.
    Sniff(std::io::Error),
    /// Seeking to a JSONL resume offset failed.
    Seek(std::io::Error),
    /// A resume was requested over a source that cannot replay earlier
    /// bytes — a pipe, FIFO, socket, or device instead of a regular
    /// file. Detected up front so the caller gets an actionable
    /// message instead of a raw seek failure mid-open.
    Unseekable {
        /// What the path turned out to be ("fifo", "socket", …).
        kind: &'static str,
    },
    /// The resume position was taken over a different container format
    /// than the file resolves to.
    FormatMismatch {
        /// The file's actual format.
        resolved: SourceFormat,
        /// The format recorded in the resume position.
        resumed: SourceFormat,
    },
    /// The cursor rejected the stream (container corruption, bad
    /// resume offset).
    Trace(TraceIoError),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Open(e) => write!(f, "cannot open trace: {e}"),
            SourceError::Sniff(e) => write!(f, "cannot sniff trace format: {e}"),
            SourceError::Seek(e) => write!(f, "cannot seek to resume offset: {e}"),
            SourceError::Unseekable { kind } => write!(
                f,
                "cannot resume from a {kind}: resuming re-reads earlier trace bytes, which only \
                 a regular file can replay; save the stream to a file and resume from that path"
            ),
            SourceError::FormatMismatch { resolved, resumed } => write!(
                f,
                "resume position is for a {resumed} trace but the file is {resolved}"
            ),
            SourceError::Trace(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SourceError::Open(e) | SourceError::Sniff(e) | SourceError::Seek(e) => Some(e),
            SourceError::Trace(e) => Some(e),
            SourceError::FormatMismatch { .. } | SourceError::Unseekable { .. } => None,
        }
    }
}

/// Sniffs a file's container format from its magic bytes. Files shorter
/// than the magic are JSONL (possibly empty).
///
/// # Errors
///
/// Returns [`SourceError::Open`] / [`SourceError::Sniff`] on I/O
/// failure.
pub fn sniff_format(path: &str) -> Result<SourceFormat, SourceError> {
    let mut file = File::open(path).map_err(SourceError::Open)?;
    let mut magic = [0u8; 4];
    let mut filled = 0;
    while filled < magic.len() {
        match file.read(&mut magic[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(SourceError::Sniff(e)),
        }
    }
    Ok(if is_iotb(&magic[..filled]) {
        SourceFormat::Iotb
    } else {
        SourceFormat::Jsonl
    })
}

/// Opens a trace file as an [`EventSource`]: resolves the format
/// (forced or sniffed), validates any resume position against it,
/// positions the reader, applies the wrap hook, and picks the cursor
/// ([`open_reader`]).
///
/// # Errors
///
/// See [`SourceError`]; cursor-construction failures (e.g. `.iotb`
/// container corruption) surface as [`SourceError::Trace`].
pub fn open_source(
    path: &str,
    options: SourceOptions,
) -> Result<Box<dyn EventSource>, SourceError> {
    if options.resume.is_some() {
        // Resuming re-reads earlier bytes (a JSONL seek, an iotb table
        // re-read), which a pipe or device cannot replay. Detect it
        // before opening: opening a FIFO with no writer would block
        // forever, and a raw seek error mid-open is not actionable.
        let meta = std::fs::metadata(path).map_err(SourceError::Open)?;
        if !meta.is_file() {
            return Err(SourceError::Unseekable {
                kind: file_type_name(&meta.file_type()),
            });
        }
    }
    let format = match options.format {
        Some(format) => format,
        None => sniff_format(path)?,
    };
    if let Some(pos) = &options.resume {
        if pos.format != format {
            return Err(SourceError::FormatMismatch {
                resolved: format,
                resumed: pos.format,
            });
        }
    }
    let mut file = File::open(path).map_err(SourceError::Open)?;
    if let (SourceFormat::Jsonl, Some(pos)) = (format, &options.resume) {
        // Seek the raw file before decorating it: wrap layers (retry,
        // fault injection) need not be seekable.
        file.seek(SeekFrom::Start(pos.state.byte_offset))
            .map_err(SourceError::Seek)?;
    }
    let reader: Box<dyn Read> = match options.wrap {
        Some(wrap) => wrap(file),
        None => Box::new(file),
    };
    let resume = options.resume.map(|pos| pos.state);
    open_reader(reader, format, options.read, resume).map_err(SourceError::Trace)
}

/// Picks the serial cursor for `format` over a reader already
/// positioned for it: at the resume byte offset for a resumed JSONL
/// scan, at the container start for `.iotb` (its cursor re-reads the
/// string table and skips the already-counted events itself).
///
/// # Errors
///
/// `.iotb` container errors from the cursor constructor.
pub fn open_reader<'a, R: Read + 'a>(
    reader: R,
    format: SourceFormat,
    read: ReadOptions,
    resume: Option<CursorState>,
) -> Result<Box<dyn EventSource + 'a>, TraceIoError> {
    Ok(match (format, resume) {
        (SourceFormat::Jsonl, Some(state)) => Box::new(JsonlCursor::resume(reader, read, state)),
        (SourceFormat::Jsonl, None) => Box::new(JsonlCursor::new(reader, read)),
        (SourceFormat::Iotb, Some(state)) => Box::new(IotbCursor::resume(reader, read, state)?),
        (SourceFormat::Iotb, None) => Box::new(IotbCursor::new(reader, read)?),
    })
}

/// Classifies a path that cannot support seek-based replay: returns the
/// human-readable file-type name ("pipe (FIFO)", "socket", …) when
/// `path` exists and is not a regular file, `None` when it is one (or
/// does not exist — the open path will surface that error itself).
///
/// Checkpoint/resume configs need this up front: a checkpoint cursor
/// records a byte offset that resume must seek back to, so offering to
/// checkpoint a FIFO or socket stream writes state no run can ever use.
#[must_use]
pub fn unseekable_kind(path: &str) -> Option<&'static str> {
    let meta = std::fs::metadata(path).ok()?;
    if meta.is_file() {
        None
    } else {
        Some(file_type_name(&meta.file_type()))
    }
}

/// Human-readable name of a non-regular file type, for
/// [`SourceError::Unseekable`].
fn file_type_name(file_type: &std::fs::FileType) -> &'static str {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileTypeExt;
        if file_type.is_fifo() {
            return "pipe (FIFO)";
        }
        if file_type.is_socket() {
            return "socket";
        }
        if file_type.is_char_device() {
            return "character device";
        }
        if file_type.is_block_device() {
            return "block device";
        }
    }
    if file_type.is_dir() {
        return "directory";
    }
    "non-regular file"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArgValue, TraceEvent};
    use crate::{write_iotb, write_jsonl, Trace};

    fn sample_trace() -> Trace {
        Trace::from_events(
            (0u32..5)
                .map(|i| {
                    TraceEvent::build(
                        "write",
                        1,
                        vec![ArgValue::Fd(3), ArgValue::UInt(u64::from(i))],
                        64,
                    )
                })
                .collect(),
        )
    }

    struct TempFile(String);

    impl TempFile {
        fn new(tag: &str, bytes: &[u8]) -> Self {
            let path = std::env::temp_dir()
                .join(format!("iocov-source-{}-{tag}", std::process::id()))
                .to_string_lossy()
                .into_owned();
            std::fs::write(&path, bytes).unwrap();
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn drain(source: &mut dyn EventSource, max: usize) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        loop {
            let batch = source.next_batch(max).unwrap();
            if batch.is_empty() {
                break;
            }
            events.extend(batch.to_events());
        }
        events
    }

    #[test]
    fn factory_sniffs_both_formats() {
        let trace = sample_trace();
        let mut jsonl = Vec::new();
        write_jsonl(&mut jsonl, &trace).unwrap();
        let mut iotb = Vec::new();
        write_iotb(&mut iotb, &trace).unwrap();

        for (tag, bytes, format) in [
            ("a.jsonl", &jsonl, SourceFormat::Jsonl),
            ("a.iotb", &iotb, SourceFormat::Iotb),
        ] {
            let file = TempFile::new(tag, bytes);
            assert_eq!(sniff_format(&file.0).unwrap(), format);
            let mut source = open_source(&file.0, SourceOptions::default()).unwrap();
            assert_eq!(source.position().format, format);
            let events = drain(source.as_mut(), 2);
            assert_eq!(events, trace.events());
            assert!(source.skip_ledger().is_empty());
        }
    }

    #[test]
    fn resume_format_mismatch_is_structured() {
        let mut iotb = Vec::new();
        write_iotb(&mut iotb, &sample_trace()).unwrap();
        let file = TempFile::new("mismatch.iotb", &iotb);
        let Err(err) = open_source(
            &file.0,
            SourceOptions {
                resume: Some(SourcePos::default()),
                ..SourceOptions::default()
            },
        ) else {
            panic!("expected format mismatch")
        };
        match &err {
            SourceError::FormatMismatch { resolved, resumed } => {
                assert_eq!(*resolved, SourceFormat::Iotb);
                assert_eq!(*resumed, SourceFormat::Jsonl);
            }
            other => panic!("expected format mismatch, got {other}"),
        }
        assert!(err.to_string().contains("jsonl"), "{err}");
    }

    #[test]
    fn resume_continues_where_position_left_off() {
        let trace = sample_trace();
        let mut jsonl = Vec::new();
        write_jsonl(&mut jsonl, &trace).unwrap();
        let mut iotb = Vec::new();
        write_iotb(&mut iotb, &trace).unwrap();

        for (tag, bytes) in [("r.jsonl", &jsonl), ("r.iotb", &iotb)] {
            let file = TempFile::new(tag, bytes);
            let mut head = open_source(&file.0, SourceOptions::default()).unwrap();
            let mut events = head.next_batch(2).unwrap().to_events();
            let pos = head.position();
            drop(head);
            let mut tail = open_source(
                &file.0,
                SourceOptions {
                    resume: Some(pos),
                    ..SourceOptions::default()
                },
            )
            .unwrap();
            events.extend(drain(tail.as_mut(), 3));
            assert_eq!(events, trace.events(), "{tag}");
        }
    }

    #[test]
    fn missing_file_is_an_open_error() {
        let Err(err) = open_source("/nonexistent/trace.jsonl", SourceOptions::default()) else {
            panic!("expected open error")
        };
        assert!(matches!(err, SourceError::Open(_)), "{err}");
    }

    #[test]
    fn short_file_sniffs_as_jsonl() {
        let file = TempFile::new("short", b"IO");
        assert_eq!(sniff_format(&file.0).unwrap(), SourceFormat::Jsonl);
    }

    #[test]
    fn every_iotb_version_opens_through_the_cursor() {
        let trace = sample_trace();
        let mut v1 = Vec::new();
        write_iotb(&mut v1, &trace).unwrap();
        let mut v2 = Vec::new();
        crate::write_iotb_indexed(&mut v2, &trace, 2).unwrap();

        for (tag, bytes) in [("v1.iotb", &v1), ("v2.iotb", &v2)] {
            let file = TempFile::new(tag, bytes);
            let mut source = open_source(&file.0, SourceOptions::default()).unwrap();
            assert_eq!(drain(source.as_mut(), 3), trace.events(), "{tag}");
            let pos = source.position();
            assert_eq!(pos.format, SourceFormat::Iotb);
            assert!(source.skip_ledger().is_empty());
            // v2 keeps v1's header, table and record bytes, and the
            // cursor stops on the sentinel without reading the index:
            // both scans end at the same offset.
            assert_eq!(pos.state.byte_offset, v1.len() as u64, "{tag}");
        }
    }

    #[test]
    fn resume_over_indexed_container_continues_exactly() {
        let trace = sample_trace();
        let mut indexed = Vec::new();
        crate::write_iotb_indexed(&mut indexed, &trace, 2).unwrap();
        let file = TempFile::new("resume-indexed.iotb", &indexed);

        let mut head = open_source(&file.0, SourceOptions::default()).unwrap();
        let mut events = head.next_batch(3).unwrap().to_events();
        let pos = head.position();
        drop(head);
        let mut tail = open_source(
            &file.0,
            SourceOptions {
                resume: Some(pos),
                ..SourceOptions::default()
            },
        )
        .unwrap();
        events.extend(drain(tail.as_mut(), 3));
        assert_eq!(events, trace.events());
    }

    #[test]
    fn indexed_open_reads_through_the_wrap_hook() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let trace = sample_trace();
        let mut indexed = Vec::new();
        crate::write_iotb_indexed(&mut indexed, &trace, 2).unwrap();
        let file = TempFile::new("wrapped.iotb", &indexed);

        static WRAPPED: AtomicBool = AtomicBool::new(false);
        let mut source = open_source(
            &file.0,
            SourceOptions {
                wrap: Some(Box::new(|f: File| {
                    WRAPPED.store(true, Ordering::SeqCst);
                    Box::new(f) as Box<dyn Read>
                })),
                ..SourceOptions::default()
            },
        )
        .unwrap();
        assert!(WRAPPED.load(Ordering::SeqCst));
        assert_eq!(drain(source.as_mut(), 2), trace.events());
    }

    #[cfg(unix)]
    #[test]
    fn resume_from_fifo_is_a_structured_unseekable_error() {
        let path = std::env::temp_dir()
            .join(format!("iocov-source-{}-resume.fifo", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        let status = std::process::Command::new("mkfifo")
            .arg(&path)
            .status()
            .expect("mkfifo");
        assert!(status.success());

        let result = open_source(
            &path,
            SourceOptions {
                resume: Some(SourcePos {
                    format: SourceFormat::Jsonl,
                    ..SourcePos::default()
                }),
                ..SourceOptions::default()
            },
        );
        let _ = std::fs::remove_file(&path);
        let Err(err) = result else {
            panic!("expected unseekable error")
        };
        assert!(
            matches!(
                err,
                SourceError::Unseekable {
                    kind: "pipe (FIFO)"
                }
            ),
            "{err}"
        );
        let msg = err.to_string();
        assert!(msg.contains("cannot resume from a pipe (FIFO)"), "{msg}");
        assert!(msg.contains("save the stream to a file"), "{msg}");
    }

    #[cfg(unix)]
    #[test]
    fn unseekable_kind_classifies_fifos_and_clears_regular_files() {
        let dir = std::env::temp_dir();
        let fifo = dir
            .join(format!("iocov-source-{}-kind.fifo", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&fifo);
        let status = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .expect("mkfifo");
        assert!(status.success());
        assert_eq!(unseekable_kind(&fifo), Some("pipe (FIFO)"));
        let _ = std::fs::remove_file(&fifo);

        let file = dir
            .join(format!("iocov-source-{}-kind.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&file, b"").unwrap();
        assert_eq!(unseekable_kind(&file), None);
        let _ = std::fs::remove_file(&file);

        // A missing path is not classified: the open will report it.
        assert_eq!(unseekable_kind("/no/such/iocov/path"), None);
    }
}
