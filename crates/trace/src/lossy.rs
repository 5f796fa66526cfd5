//! Fault-tolerant trace ingestion: the per-line error policy.
//!
//! Real tracers emit garbage under load: a crashed tracer truncates its
//! final line mid-record, log shippers re-terminate lines with CRLF,
//! editors prepend a UTF-8 BOM, and buffer tearing interleaves raw bytes
//! into otherwise valid JSON. The strict [`read_jsonl`](crate::read_jsonl)
//! aborts an entire multi-gigabyte ingest on the first such line; a
//! source opened with [`ErrorPolicy::Skip`] instead recovers every
//! parseable event and records one [`SkippedLine`] — physical line
//! number, [`ErrorClass`], and parser message — per line it had to drop,
//! so the pipeline's metrics layer can report exactly how lossy the
//! ingest was. The ledger, line count and BOM/CRLF normalizations live
//! in the cursor's [`CursorState`](crate::CursorState).
//!
//! ```
//! use iocov_trace::{EventSource, JsonlCursor, ReadOptions};
//!
//! let bytes = b"{\"seq\":0,\"timestamp_ns\":0,\"pid\":1,\"name\":\"close\",\
//!               \"sysno\":3,\"args\":[{\"Fd\":3}],\"retval\":0}\n\
//!               this line is garbage\n";
//! let mut source = JsonlCursor::new(&bytes[..], ReadOptions::default());
//! let trace = source.read_all().unwrap();
//! assert_eq!(trace.len(), 1);
//! let state = source.position().state;
//! assert_eq!(state.skipped.len(), 1);
//! assert_eq!(state.skipped[0].line, 2);
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

#[cfg(doc)]
use crate::serial::TraceIoError;

/// What to do when a line fails to parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// Record a [`SkippedLine`] and continue (the lossy default).
    #[default]
    Skip,
    /// Abort with the same error the strict reader would return.
    Abort,
}

/// Per-line/record error handling for the trace cursors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadOptions {
    /// Maximum number of skipped lines tolerated before the read aborts
    /// with [`TraceIoError::TooManyErrors`]. `None` (the default) never
    /// gives up.
    pub max_errors: Option<usize>,
    /// Per-line error policy.
    pub on_error: ErrorPolicy,
}

impl ReadOptions {
    /// Strict reads: the first malformed line or record aborts.
    pub const STRICT: ReadOptions = ReadOptions {
        max_errors: None,
        on_error: ErrorPolicy::Abort,
    };
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
    /// symbol, wrong payload size). Only produced by the `.iotb`
    /// readers.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{CursorState, JsonlCursor};
    use crate::event::{ArgValue, TraceEvent};
    use crate::serial::TraceIoError;
    use crate::source::EventSource;
    use crate::{write_jsonl, Trace};

    /// A lossy read: the drained trace plus the cursor's final state.
    fn read_lossy(
        bytes: &[u8],
        options: ReadOptions,
    ) -> Result<(Trace, CursorState), TraceIoError> {
        let mut source = JsonlCursor::new(bytes, options);
        let trace = source.read_all()?;
        Ok((trace, source.position().state))
    }

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
        let (trace, state) = read_lossy(&buf[..], ReadOptions::default()).unwrap();
        assert_eq!(trace.events(), &events[..]);
        assert!(state.skipped.is_empty());
        assert_eq!(state.lines, 3);
        assert!(!state.bom_stripped);
        assert_eq!(state.crlf_lines, 0);
    }

    #[test]
    fn malformed_lines_are_skipped_with_position_and_class() {
        let lines = jsonl(&sample_events());
        let text = format!(
            "{}\nnot json at all\n{}\n{{\"seq\": 1,\n{}\n",
            lines[0], lines[1], lines[2]
        );
        let (trace, state) = read_lossy(text.as_bytes(), ReadOptions::default()).unwrap();
        assert_eq!(trace.len(), 3, "all valid events recovered");
        assert_eq!(state.skipped.len(), 2);
        assert_eq!(state.skipped[0].line, 2);
        assert_eq!(state.skipped[0].class, ErrorClass::MalformedJson);
        assert_eq!(state.skipped[1].line, 4);
        assert_eq!(state.skipped[1].class, ErrorClass::MalformedJson);
    }

    #[test]
    fn truncated_final_line_is_classified_as_truncated_tail() {
        let lines = jsonl(&sample_events());
        let truncated = &lines[2][..lines[2].len() / 2];
        let text = format!("{}\n{}\n{truncated}", lines[0], lines[1]);
        let (trace, state) = read_lossy(text.as_bytes(), ReadOptions::default()).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(state.skipped.len(), 1);
        assert_eq!(state.skipped[0].class, ErrorClass::TruncatedTail);
        assert_eq!(state.skipped[0].line, 3);
    }

    #[test]
    fn bom_and_crlf_are_normalized_not_skipped() {
        let lines = jsonl(&sample_events());
        let text = format!("\u{feff}{}\r\n{}\r\n{}\n", lines[0], lines[1], lines[2]);
        let (trace, state) = read_lossy(text.as_bytes(), ReadOptions::default()).unwrap();
        assert_eq!(trace.len(), 3);
        assert!(state.skipped.is_empty());
        assert!(state.bom_stripped);
        assert_eq!(state.crlf_lines, 2);
    }

    #[test]
    fn invalid_utf8_lines_are_skipped() {
        let lines = jsonl(&sample_events());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(lines[0].as_bytes());
        bytes.extend_from_slice(b"\n\xff\xfe torn buffer\n");
        bytes.extend_from_slice(lines[1].as_bytes());
        bytes.push(b'\n');
        let (trace, state) = read_lossy(&bytes[..], ReadOptions::default()).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(state.skipped.len(), 1);
        assert_eq!(state.skipped[0].class, ErrorClass::InvalidUtf8);
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
        let (trace, state) = read_lossy(text.as_bytes(), ReadOptions::default()).unwrap();
        assert_eq!(trace.len(), 2);
        let classes: Vec<ErrorClass> = state.skipped.iter().map(|s| s.class).collect();
        assert_eq!(
            classes,
            [ErrorClass::MalformedJson, ErrorClass::TruncatedTail]
        );
        assert!(state.bom_stripped);
        assert_eq!(state.crlf_lines, 1);
    }

    #[test]
    fn max_errors_aborts_after_the_limit() {
        let options = ReadOptions {
            max_errors: Some(1),
            ..ReadOptions::default()
        };
        let text = "junk one\njunk two\njunk three\n";
        let err = read_lossy(text.as_bytes(), options).unwrap_err();
        match err {
            TraceIoError::TooManyErrors { errors, max } => {
                assert_eq!(errors, 2);
                assert_eq!(max, 1);
            }
            other => panic!("expected TooManyErrors, got {other}"),
        }
        // At the limit exactly: still fine.
        let (_, one) = read_lossy(&b"junk\n"[..], options).unwrap();
        assert_eq!(one.skipped.len(), 1);
    }

    #[test]
    fn abort_policy_behaves_like_strict_reader() {
        let options = ReadOptions {
            on_error: ErrorPolicy::Abort,
            ..ReadOptions::default()
        };
        let err = read_lossy(&b"\nbad line\n"[..], options).unwrap_err();
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
        // Regression for skip accounting drift: the batch drain and the
        // event-at-a-time cursor must report identical 1-based line numbers (blank lines
        // count) for every skip. Blanks interleave skips and events here
        // so an off-by-one in either path would show.
        let lines = jsonl(&sample_events());
        let text = format!(
            "\n{}\n\n\njunk A\n{}\n\njunk B\n\n{}\n",
            lines[0], lines[1], lines[2]
        );
        let (batch_trace, batch) = read_lossy(text.as_bytes(), ReadOptions::default()).unwrap();
        let mut cursor = JsonlCursor::new(text.as_bytes(), ReadOptions::default());
        let mut events = Vec::new();
        while let Some(e) = cursor.next_event().unwrap() {
            events.push(e);
        }
        let state = cursor.into_state();
        assert_eq!(events, batch_trace.events());
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
        let (trace, state) = read_lossy(&b""[..], ReadOptions::default()).unwrap();
        assert!(trace.is_empty());
        assert!(state.skipped.is_empty());
        assert_eq!(state.lines, 0);
    }
}
