//! Fault-tolerant JSONL trace ingestion.
//!
//! Real tracers emit garbage under load: a crashed tracer truncates its
//! final line mid-record, log shippers re-terminate lines with CRLF,
//! editors prepend a UTF-8 BOM, and buffer tearing interleaves raw bytes
//! into otherwise valid JSON. The strict [`read_jsonl`](crate::read_jsonl)
//! aborts an entire multi-gigabyte ingest on the first such line;
//! [`read_jsonl_lossy`] instead recovers every parseable event and
//! records one [`SkippedLine`] — physical line number, [`ErrorClass`],
//! and parser message — per line it had to drop, so the pipeline's
//! metrics layer can report exactly how lossy the ingest was.
//!
//! ```
//! use iocov_trace::{read_jsonl_lossy, ReadOptions};
//!
//! let bytes = b"{\"seq\":0,\"timestamp_ns\":0,\"pid\":1,\"name\":\"close\",\
//!               \"sysno\":3,\"args\":[{\"Fd\":3}],\"retval\":0}\n\
//!               this line is garbage\n";
//! let read = read_jsonl_lossy(&bytes[..], &ReadOptions::default()).unwrap();
//! assert_eq!(read.trace.len(), 1);
//! assert_eq!(read.skipped.len(), 1);
//! assert_eq!(read.skipped[0].line, 2);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::io::Read;

use serde::{Deserialize, Serialize};

use crate::batch::EventBatch;
use crate::cursor::{CursorState, JsonlCursor};
use crate::serial::TraceIoError;
use crate::Trace;

/// What to do when a line fails to parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Record a [`SkippedLine`] and continue (the lossy default).
    #[default]
    Skip,
    /// Abort with the same error the strict reader would return.
    Abort,
}

/// Options controlling [`read_jsonl_lossy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadOptions {
    /// Maximum number of skipped lines tolerated before the read aborts
    /// with [`TraceIoError::TooManyErrors`]. `None` (the default) never
    /// gives up.
    pub max_errors: Option<usize>,
    /// Per-line error policy.
    pub on_error: ErrorPolicy,
}

/// Why a line was skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ErrorClass {
    /// The line is not valid JSON (or not a valid event).
    MalformedJson,
    /// The final line was cut off mid-record (no trailing newline and
    /// unparseable — the signature of a tracer killed mid-write).
    TruncatedTail,
    /// The line is not valid UTF-8.
    InvalidUtf8,
    /// An `.iotb` binary record failed to decode (bad tag, out-of-range
    /// symbol, wrong payload size). Only produced by
    /// [`read_iotb_lossy`](crate::read_iotb_lossy).
    MalformedRecord,
}

impl ErrorClass {
    /// Stable kebab-case name, used in reports and metrics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorClass::MalformedJson => "malformed-json",
            ErrorClass::TruncatedTail => "truncated-tail",
            ErrorClass::InvalidUtf8 => "invalid-utf8",
            ErrorClass::MalformedRecord => "malformed-record",
        }
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One line the lossy reader had to drop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkippedLine {
    /// 1-based physical line number (blank lines count).
    pub line: usize,
    /// Error classification.
    pub class: ErrorClass,
    /// The underlying parser/decoder message.
    pub message: String,
}

impl fmt::Display for SkippedLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}: {}", self.line, self.class, self.message)
    }
}

/// The result of a lossy read: the recovered trace plus a full account
/// of everything that was dropped or normalized.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LossyRead {
    /// Every event that parsed, in input order.
    pub trace: Trace,
    /// Every line that was dropped, in input order.
    pub skipped: Vec<SkippedLine>,
    /// Physical lines scanned (blank lines included).
    pub lines: usize,
    /// Whether a UTF-8 BOM was stripped from the first line.
    pub bom_stripped: bool,
    /// Lines whose CRLF terminator was normalized.
    pub crlf_lines: usize,
}

impl LossyRead {
    /// Assembles a lossy-read result from a drained cursor's final
    /// state. This is the single source of truth for line/skip
    /// accounting: the batch readers ([`read_jsonl_lossy`],
    /// [`read_iotb_lossy`](crate::read_iotb_lossy)) are thin drains over
    /// the cursors ([`JsonlCursor`],
    /// [`IotbCursor`](crate::IotbCursor)), so batch and cursor ledgers
    /// cannot drift apart.
    #[must_use]
    pub fn from_cursor(trace: Trace, state: CursorState) -> Self {
        LossyRead {
            trace,
            skipped: state.skipped,
            lines: state.lines,
            bom_stripped: state.bom_stripped,
            crlf_lines: state.crlf_lines,
        }
    }

    /// Skip counts grouped by error class, in class order.
    #[must_use]
    pub fn skips_by_class(&self) -> BTreeMap<ErrorClass, usize> {
        let mut map = BTreeMap::new();
        for skip in &self.skipped {
            *map.entry(skip.class).or_insert(0) += 1;
        }
        map
    }
}

/// Reads a JSONL trace, recovering from malformed lines instead of
/// aborting. See the [module docs](self) for the failure model.
///
/// Blank lines are skipped silently (they are not errors); a UTF-8 BOM
/// and CRLF line endings are normalized and reported via
/// [`LossyRead::bom_stripped`] / [`LossyRead::crlf_lines`] rather than
/// counted as skips.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on genuine read failure,
/// [`TraceIoError::TooManyErrors`] once more than
/// [`ReadOptions::max_errors`] lines have been skipped, and — only under
/// [`ErrorPolicy::Abort`] — the strict reader's per-line errors.
pub fn read_jsonl_lossy<R: Read>(
    reader: R,
    options: &ReadOptions,
) -> Result<LossyRead, TraceIoError> {
    let mut cursor = JsonlCursor::new(reader, *options);
    // Decode through the columnar batch path, materializing owned
    // events only once at the end (as `read_iotb_lossy` does).
    let mut batch = EventBatch::new();
    while cursor.next_into(&mut batch)? {}
    let trace = Trace::from_events(batch.to_events());
    Ok(LossyRead::from_cursor(trace, cursor.into_state()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArgValue, TraceEvent};
    use crate::write_jsonl;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::build(
                "open",
                2,
                vec![ArgValue::Path("/mnt/test/a".into()), ArgValue::Flags(0o101)],
                3,
            ),
            TraceEvent::build("write", 1, vec![ArgValue::Fd(3), ArgValue::UInt(64)], 64),
            TraceEvent::build("close", 3, vec![ArgValue::Fd(3)], 0),
        ]
    }

    fn jsonl(events: &[TraceEvent]) -> Vec<String> {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &Trace::from_events(events.to_vec())).unwrap();
        String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn clean_input_matches_strict_reader() {
        let events = sample_events();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &Trace::from_events(events.clone())).unwrap();
        let read = read_jsonl_lossy(&buf[..], &ReadOptions::default()).unwrap();
        assert_eq!(read.trace.events(), &events[..]);
        assert!(read.skipped.is_empty());
        assert_eq!(read.lines, 3);
        assert!(!read.bom_stripped);
        assert_eq!(read.crlf_lines, 0);
    }

    #[test]
    fn malformed_lines_are_skipped_with_position_and_class() {
        let lines = jsonl(&sample_events());
        let text = format!(
            "{}\nnot json at all\n{}\n{{\"seq\": 1,\n{}\n",
            lines[0], lines[1], lines[2]
        );
        let read = read_jsonl_lossy(text.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(read.trace.len(), 3, "all valid events recovered");
        assert_eq!(read.skipped.len(), 2);
        assert_eq!(read.skipped[0].line, 2);
        assert_eq!(read.skipped[0].class, ErrorClass::MalformedJson);
        assert_eq!(read.skipped[1].line, 4);
        assert_eq!(read.skipped[1].class, ErrorClass::MalformedJson);
    }

    #[test]
    fn truncated_final_line_is_classified_as_truncated_tail() {
        let lines = jsonl(&sample_events());
        let truncated = &lines[2][..lines[2].len() / 2];
        let text = format!("{}\n{}\n{truncated}", lines[0], lines[1]);
        let read = read_jsonl_lossy(text.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(read.trace.len(), 2);
        assert_eq!(read.skipped.len(), 1);
        assert_eq!(read.skipped[0].class, ErrorClass::TruncatedTail);
        assert_eq!(read.skipped[0].line, 3);
    }

    #[test]
    fn bom_and_crlf_are_normalized_not_skipped() {
        let lines = jsonl(&sample_events());
        let text = format!("\u{feff}{}\r\n{}\r\n{}\n", lines[0], lines[1], lines[2]);
        let read = read_jsonl_lossy(text.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(read.trace.len(), 3);
        assert!(read.skipped.is_empty());
        assert!(read.bom_stripped);
        assert_eq!(read.crlf_lines, 2);
    }

    #[test]
    fn invalid_utf8_lines_are_skipped() {
        let lines = jsonl(&sample_events());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(lines[0].as_bytes());
        bytes.extend_from_slice(b"\n\xff\xfe torn buffer\n");
        bytes.extend_from_slice(lines[1].as_bytes());
        bytes.push(b'\n');
        let read = read_jsonl_lossy(&bytes[..], &ReadOptions::default()).unwrap();
        assert_eq!(read.trace.len(), 2);
        assert_eq!(read.skipped.len(), 1);
        assert_eq!(read.skipped[0].class, ErrorClass::InvalidUtf8);
    }

    #[test]
    fn all_corruption_classes_in_one_stream() {
        // The acceptance fixture shape: BOM + CRLF + malformed JSON +
        // truncated tail in a single input, zero events lost.
        let lines = jsonl(&sample_events());
        let truncated = &lines[0][..20];
        let text = format!(
            "\u{feff}{}\r\n\nbroken {{line\n{}\n{truncated}",
            lines[0], lines[1]
        );
        let read = read_jsonl_lossy(text.as_bytes(), &ReadOptions::default()).unwrap();
        assert_eq!(read.trace.len(), 2);
        let by_class = read.skips_by_class();
        assert_eq!(by_class[&ErrorClass::MalformedJson], 1);
        assert_eq!(by_class[&ErrorClass::TruncatedTail], 1);
        assert!(read.bom_stripped);
        assert_eq!(read.crlf_lines, 1);
    }

    #[test]
    fn max_errors_aborts_after_the_limit() {
        let options = ReadOptions {
            max_errors: Some(1),
            ..ReadOptions::default()
        };
        let text = "junk one\njunk two\njunk three\n";
        let err = read_jsonl_lossy(text.as_bytes(), &options).unwrap_err();
        match err {
            TraceIoError::TooManyErrors { errors, max } => {
                assert_eq!(errors, 2);
                assert_eq!(max, 1);
            }
            other => panic!("expected TooManyErrors, got {other}"),
        }
        // At the limit exactly: still fine.
        let one = read_jsonl_lossy(&b"junk\n"[..], &options).unwrap();
        assert_eq!(one.skipped.len(), 1);
    }

    #[test]
    fn abort_policy_behaves_like_strict_reader() {
        let options = ReadOptions {
            on_error: ErrorPolicy::Abort,
            ..ReadOptions::default()
        };
        let err = read_jsonl_lossy(&b"\nbad line\n"[..], &options).unwrap_err();
        match err {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn skipped_line_display_and_serde() {
        let skip = SkippedLine {
            line: 9,
            class: ErrorClass::TruncatedTail,
            message: "unexpected end".into(),
        };
        assert_eq!(skip.to_string(), "line 9: truncated-tail: unexpected end");
        let json = serde_json::to_string(&skip).unwrap();
        let back: SkippedLine = serde_json::from_str(&json).unwrap();
        assert_eq!(skip, back);
    }

    #[test]
    fn batch_and_cursor_ledgers_agree_with_blank_lines() {
        // Regression for skip accounting drift: the batch reader and the
        // cursor must report identical 1-based line numbers (blank lines
        // count) for every skip. Blanks interleave skips and events here
        // so an off-by-one in either path would show.
        let lines = jsonl(&sample_events());
        let text = format!(
            "\n{}\n\n\njunk A\n{}\n\njunk B\n\n{}\n",
            lines[0], lines[1], lines[2]
        );
        let batch = read_jsonl_lossy(text.as_bytes(), &ReadOptions::default()).unwrap();
        let mut cursor = JsonlCursor::new(text.as_bytes(), ReadOptions::default());
        let mut events = Vec::new();
        while let Some(e) = cursor.next_event().unwrap() {
            events.push(e);
        }
        let state = cursor.into_state();
        assert_eq!(events, batch.trace.events());
        assert_eq!(state.skipped, batch.skipped);
        assert_eq!(state.lines, batch.lines);
        assert_eq!(
            batch.skipped.iter().map(|s| s.line).collect::<Vec<_>>(),
            [5, 8]
        );
        assert_eq!(batch.lines, 10);
    }

    #[test]
    fn empty_input_is_a_clean_lossy_read() {
        let read = read_jsonl_lossy(&b""[..], &ReadOptions::default()).unwrap();
        assert!(read.trace.is_empty());
        assert!(read.skipped.is_empty());
        assert_eq!(read.lines, 0);
    }
}
