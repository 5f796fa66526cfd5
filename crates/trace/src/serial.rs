//! Trace serialization: JSON Lines reading and writing.
//!
//! Every JSONL read goes through one [`JsonlCursor`] and its line
//! scanner ([`LineReader`]): the strict [`read_jsonl`] drains it under
//! [`ReadOptions::STRICT`], so the first malformed line aborts the read,
//! and a cursor under [`ErrorPolicy::Skip`](crate::ErrorPolicy::Skip)
//! records skips and keeps going. Both normalize a UTF-8 BOM on the
//! first line and CRLF line endings, and both report 1-based physical
//! line numbers that count blank lines.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Read, Write};

use crate::cursor::JsonlCursor;
use crate::lossy::ReadOptions;
use crate::source::EventSource;
use crate::Trace;

/// An error reading or writing a serialized trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse; carries the 1-based line number.
    Parse {
        line: usize,
        source: serde_json::Error,
    },
    /// An event failed to serialize; carries the 0-based event index.
    Serialize {
        index: usize,
        source: serde_json::Error,
    },
    /// Lossy reading gave up: more lines were skipped than
    /// [`ReadOptions::max_errors`](crate::ReadOptions::max_errors) allows.
    TooManyErrors {
        /// Skips recorded before giving up (`max + 1`).
        errors: usize,
        /// The configured limit.
        max: usize,
    },
    /// An `.iotb` binary container is unusable: bad magic, unsupported
    /// version, or a corrupt string table. Fatal even in lossy mode —
    /// every record depends on the table.
    Binary {
        /// What was wrong with the container.
        detail: String,
    },
    /// An `.iotb` binary record failed to decode under the strict
    /// reader; carries the 1-based record number.
    Record {
        /// 1-based record ordinal.
        record: usize,
        /// Decoder message.
        detail: String,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::Parse { line, source } => {
                write!(f, "trace parse error on line {line}: {source}")
            }
            TraceIoError::Serialize { index, source } => {
                write!(f, "trace serialize error for event {index}: {source}")
            }
            TraceIoError::TooManyErrors { errors, max } => {
                write!(
                    f,
                    "trace has too many malformed lines: {errors} skipped, limit {max}"
                )
            }
            TraceIoError::Binary { detail } => {
                write!(f, "binary trace container error: {detail}")
            }
            TraceIoError::Record { record, detail } => {
                write!(f, "binary trace error at record {record}: {detail}")
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse { source, .. } | TraceIoError::Serialize { source, .. } => {
                Some(source)
            }
            TraceIoError::TooManyErrors { .. }
            | TraceIoError::Binary { .. }
            | TraceIoError::Record { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// One physical line of a JSONL stream, already normalized. Borrows
/// the [`LineReader`]'s reusable buffer, so it lives only until the
/// next read.
#[derive(Debug)]
pub(crate) struct RawLine<'a> {
    /// 1-based physical line number (blank lines count).
    pub number: usize,
    /// Line bytes with any BOM stripped and the terminator normalized to
    /// one `\n`, which an unterminated final line gains too: the shape
    /// the canonical decoder reads in place.
    pub framed: &'a [u8],
    /// Whether the line ended with a `\n` (false only for a truncated
    /// final line).
    pub terminated: bool,
    /// Whether a `\r\n` terminator was normalized away.
    pub crlf: bool,
    /// Whether a UTF-8 BOM was stripped (first line only).
    pub bom: bool,
}

impl RawLine<'_> {
    /// Line bytes with the terminator (and any `\r`) stripped.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.framed[..self.framed.len() - 1]
    }

    /// The line's original on-disk length in bytes, counting everything
    /// normalization removed (BOM, `\r`, `\n`). Summing `raw_len` over
    /// consumed lines yields the exact stream byte offset — the anchor a
    /// checkpoint needs to resume a read mid-file.
    pub(crate) fn raw_len(&self) -> u64 {
        (self.bytes().len()
            + usize::from(self.terminated)
            + usize::from(self.crlf)
            + if self.bom { 3 } else { 0 }) as u64
    }
}

/// A physical-line scanner over raw bytes.
///
/// `BufRead::lines` would abort on invalid UTF-8 with an opaque
/// `io::Error`; this scanner stays at the byte level so the lossy reader
/// can classify and skip such lines, and so both readers agree on line
/// numbering and CRLF/BOM normalization. A line is either taken in
/// place from the reader's buffer ([`next_in_place`](Self::next_in_place))
/// or copied into one reusable buffer ([`next_line`](Self::next_line)),
/// so scanning costs no allocation per line.
pub(crate) struct LineReader<R> {
    inner: R,
    number: usize,
    buf: Vec<u8>,
}

impl<R: BufRead> LineReader<R> {
    /// A scanner resuming mid-stream: `inner` is already positioned at
    /// the start of line `start_line + 1`, and reported line numbers
    /// continue from there. BOM stripping stays first-line-only, so a
    /// resumed scanner never strips one.
    pub(crate) fn with_start(inner: R, start_line: usize) -> Self {
        LineReader {
            inner,
            number: start_line,
            buf: Vec::new(),
        }
    }

    /// The number of the last line read (0 before the first).
    pub(crate) fn number(&self) -> usize {
        self.number
    }

    /// Offers the next line to `take` without copying it: `take` sees
    /// the reader's buffered bytes from the start of the line and
    /// returns the length, `\n` included, of the whole line it accepts,
    /// or `None` to leave the line to [`next_line`](Self::next_line).
    /// The buffer may end mid-line; a line with a BOM, a `\r\n` or no
    /// terminator must be declined, since this path normalizes nothing.
    /// Returns the accepted length.
    pub(crate) fn next_in_place(
        &mut self,
        take: impl FnOnce(&[u8]) -> Option<usize>,
    ) -> Result<Option<usize>, std::io::Error> {
        let buffered = loop {
            match self.inner.fill_buf() {
                Ok(buffered) => break buffered,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let Some(len) = take(buffered) else {
            return Ok(None);
        };
        debug_assert_eq!(
            buffered[..len].iter().position(|&b| b == b'\n'),
            Some(len - 1)
        );
        self.inner.consume(len);
        self.number += 1;
        Ok(Some(len))
    }

    /// Reads the next physical line, or `None` at end of stream.
    pub(crate) fn next_line(&mut self) -> Result<Option<RawLine<'_>>, std::io::Error> {
        self.buf.clear();
        if self.inner.read_until(b'\n', &mut self.buf)? == 0 {
            return Ok(None);
        }
        self.number += 1;
        let terminated = self.buf.last() == Some(&b'\n');
        let crlf = self.buf.ends_with(b"\r\n");
        if crlf {
            let len = self.buf.len();
            self.buf[len - 2] = b'\n';
            self.buf.truncate(len - 1);
        } else if !terminated {
            self.buf.push(b'\n');
        }
        let bom = self.number == 1 && self.buf.starts_with(&[0xEF, 0xBB, 0xBF]);
        Ok(Some(RawLine {
            number: self.number,
            framed: &self.buf[if bom { 3 } else { 0 }..],
            terminated,
            crlf,
            bom,
        }))
    }
}

/// Whether a normalized line holds nothing but whitespace.
pub(crate) fn is_blank(bytes: &[u8]) -> bool {
    bytes.iter().all(u8::is_ascii_whitespace)
}

/// Writes a trace as JSON Lines (one event per line). Writers can be
/// passed by `&mut` reference.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] if the writer fails, or
/// [`TraceIoError::Serialize`] (with the 0-based event index) if an
/// event cannot be serialized.
///
/// ```
/// use iocov_trace::{read_jsonl, write_jsonl, Trace, TraceEvent};
///
/// # fn main() -> Result<(), iocov_trace::TraceIoError> {
/// let trace = Trace::from_events(vec![TraceEvent::build("close", 3, vec![], 0)]);
/// let mut buf = Vec::new();
/// write_jsonl(&mut buf, &trace)?;
/// let back = read_jsonl(&buf[..])?;
/// assert_eq!(trace, back);
/// # Ok(())
/// # }
/// ```
pub fn write_jsonl<W: Write>(writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    // Reads are buffered; without this, each event costs two write
    // syscalls when the caller hands us a raw `File`.
    let mut writer = std::io::BufWriter::new(writer);
    for (index, event) in trace.iter().enumerate() {
        let line = serde_json::to_string(event)
            .map_err(|e| TraceIoError::Serialize { index, source: e })?;
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    writer.flush()?;
    Ok(())
}

/// Reads a JSON Lines trace strictly: the first malformed line aborts
/// the read. Blank lines are skipped (but still counted in line
/// numbering), a leading UTF-8 BOM and CRLF line endings are
/// normalized. Readers can be passed by `&mut` reference.
///
/// For traces from real tracers that may contain garbage, drain a
/// [`JsonlCursor`] opened with the default (skipping) [`ReadOptions`]
/// instead: [`EventSource::read_all`] returns the same events, and the
/// cursor's state keeps the skip ledger.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on read failure (including invalid
/// UTF-8) or [`TraceIoError::Parse`] (with the offending 1-based
/// physical line number) on malformed JSON.
pub fn read_jsonl<R: Read>(reader: R) -> Result<Trace, TraceIoError> {
    JsonlCursor::new(reader, ReadOptions::STRICT).read_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArgValue, TraceEvent};

    fn sample_trace() -> Trace {
        Trace::from_events(vec![
            TraceEvent::build(
                "open",
                2,
                vec![ArgValue::Path("/mnt/test/a".into()), ArgValue::Flags(0o101)],
                3,
            ),
            TraceEvent::build(
                "write",
                1,
                vec![ArgValue::Fd(3), ArgValue::UInt(4096)],
                4096,
            ),
            TraceEvent::build("close", 3, vec![ArgValue::Fd(3)], 0),
        ])
    }

    #[test]
    fn jsonl_roundtrip_preserves_trace() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &trace).unwrap();
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn output_is_one_line_per_event() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &trace).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &trace).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push('\n');
        text.insert(0, '\n');
        let back = read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn parse_error_reports_line_number() {
        let text = "{\"bad\": true}\n";
        let err = read_jsonl(text.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
        assert!(err.to_string().contains("line 1"));
        assert!(err.source().is_some());
    }

    #[test]
    fn parse_error_line_number_counts_blank_lines() {
        // Regression: blank (and whitespace-only) lines must advance the
        // reported physical line number — line 4 here, not line 2.
        let text = "\n   \n\n{\"bad\": true}\n";
        let err = read_jsonl(text.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn crlf_and_bom_are_normalized_in_strict_mode() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &trace).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut crlf = String::from("\u{feff}");
        crlf.push_str(&text.replace('\n', "\r\n"));
        let back = read_jsonl(crlf.as_bytes()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn crlf_lines_count_toward_error_line_numbers() {
        let text = "\r\n{\"bad\": true}\r\n";
        let err = read_jsonl(text.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let back = read_jsonl(&b""[..]).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn invalid_utf8_is_an_io_error_with_line_number() {
        let bytes = b"\n\xff\xfe garbage\n";
        let err = read_jsonl(&bytes[..]).unwrap_err();
        match &err {
            TraceIoError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                assert!(e.to_string().contains("line 2"), "{e}");
            }
            other => panic!("expected i/o error, got {other}"),
        }
    }

    #[test]
    fn io_error_variant_displays() {
        let e = TraceIoError::from(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        assert!(e.source().is_some());
    }

    #[test]
    fn serialize_error_carries_event_index() {
        // No TraceEvent actually fails to serialize, so exercise the
        // variant's Display/source contract directly.
        let source = serde_json::from_str::<TraceEvent>("{").unwrap_err();
        let e = TraceIoError::Serialize { index: 7, source };
        assert!(e.to_string().contains("event 7"));
        assert!(e.source().is_some());
    }

    #[test]
    fn too_many_errors_variant_displays() {
        let e = TraceIoError::TooManyErrors { errors: 3, max: 2 };
        let text = e.to_string();
        assert!(text.contains("3 skipped"));
        assert!(text.contains("limit 2"));
        assert!(e.source().is_none());
    }
}
