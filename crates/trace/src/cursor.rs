//! A resumable, offset-tracking JSONL event cursor.
//!
//! A [`JsonlCursor`] is an [`EventSource`](crate::EventSource), so
//! whole-trace reads ([`read_jsonl`](crate::read_jsonl), or
//! [`read_all`](crate::EventSource::read_all) under lossy options) are
//! drains over it that return a [`Trace`](crate::Trace). The cursor
//! itself yields events one at a time while maintaining a
//! [`CursorState`] — exact byte offset, line count, event count, and
//! the full lossy-skip record — that can be serialized into a
//! checkpoint and later handed back to [`JsonlCursor::resume`] with a
//! reader seeked to [`CursorState::byte_offset`]. A resumed cursor
//! continues line numbering, skip accounting, and `max_errors`
//! budgeting exactly where the checkpointed one stopped, so an
//! interrupted + resumed scan is indistinguishable from an
//! uninterrupted one.
//!
//! Decoding has two tiers. A line in the canonical compact shape
//! [`write_jsonl`](crate::write_jsonl) emits is decoded in one pass
//! straight into [`EventBatch`] columns, with no per-line allocation.
//! Every other line — whitespace, reordered keys, string escapes,
//! unusual number spellings, or plain garbage — goes through
//! `serde_json`, so serde remains the only authority on which lines are
//! rejected and with which messages.

use std::io::{BufReader, Read};

use serde::{Deserialize, Serialize};

use crate::batch::{ArgView, EventBatch};
use crate::event::TraceEvent;
use crate::lossy::{ErrorClass, ErrorPolicy, ReadOptions, SkippedLine};
use crate::serial::{is_blank, LineReader, TraceIoError};

/// Everything a [`JsonlCursor`] needs to resume mid-stream.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CursorState {
    /// Byte offset of the first unconsumed line (seek target on resume).
    pub byte_offset: u64,
    /// Physical lines consumed (blank lines count).
    pub lines: usize,
    /// Events yielded.
    pub events: u64,
    /// Every line dropped so far (lossy mode).
    pub skipped: Vec<SkippedLine>,
    /// Whether a UTF-8 BOM was stripped from the first line.
    pub bom_stripped: bool,
    /// Lines whose CRLF terminator was normalized.
    pub crlf_lines: usize,
}

/// A streaming JSONL reader that tracks its own resume point.
pub struct JsonlCursor<R> {
    lines: LineReader<BufReader<R>>,
    options: ReadOptions,
    state: CursorState,
    fallback_lines: u64,
}

impl<R: Read> JsonlCursor<R> {
    /// A cursor over a fresh stream.
    pub fn new(reader: R, options: ReadOptions) -> Self {
        JsonlCursor {
            lines: LineReader::new(BufReader::new(reader)),
            options,
            state: CursorState::default(),
            fallback_lines: 0,
        }
    }

    /// Resumes from a checkpointed `state`. The caller must have seeked
    /// `reader` to `state.byte_offset`.
    pub fn resume(reader: R, options: ReadOptions, state: CursorState) -> Self {
        JsonlCursor {
            lines: LineReader::with_start(BufReader::new(reader), state.lines),
            options,
            state,
            fallback_lines: 0,
        }
    }

    /// The current resume point. Valid to checkpoint after any
    /// [`next_event`](Self::next_event) return — the offset always sits
    /// on a line boundary past everything already consumed.
    #[must_use]
    pub fn state(&self) -> &CursorState {
        &self.state
    }

    /// Consumes the cursor, yielding its final state.
    #[must_use]
    pub fn into_state(self) -> CursorState {
        self.state
    }

    /// Non-blank, valid-UTF-8 lines the canonical decoder declined
    /// and handed to `serde_json`, whether serde then accepted them or
    /// not. Zero over anything [`write_jsonl`](crate::write_jsonl)
    /// wrote without string escapes. Not part of [`CursorState`].
    #[must_use]
    pub fn fallback_lines(&self) -> u64 {
        self.fallback_lines
    }

    /// Yields the next event, or `None` at end of stream. A one-row
    /// wrapper over [`next_into`](Self::next_into).
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] on read failure,
    /// [`TraceIoError::TooManyErrors`] when the lossy skip budget is
    /// exhausted, and — under [`ErrorPolicy::Abort`] — the strict
    /// reader's per-line errors.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        let mut batch = EventBatch::new();
        if self.next_into(&mut batch)? {
            Ok(Some(batch.get(0).expect("one decoded row").to_event()))
        } else {
            Ok(None)
        }
    }

    /// Decodes the next event directly into `batch` — the JSONL
    /// counterpart of [`IotbCursor::next_into`](crate::IotbCursor::next_into).
    /// Returns whether an event was appended; `false` means end of
    /// stream.
    ///
    /// A line in the canonical compact shape `write_jsonl` emits is
    /// decoded in one pass straight into the batch columns. Any other
    /// line goes through `serde_json::from_str::<TraceEvent>`, so serde
    /// alone decides what is rejected and with which message.
    ///
    /// # Errors
    ///
    /// Same failure model as [`next_event`](Self::next_event).
    pub fn next_into(&mut self, batch: &mut EventBatch) -> Result<bool, TraceIoError> {
        while let Some(line) = self.lines.next_line()? {
            self.state.byte_offset += line.raw_len();
            self.state.lines = line.number;
            self.state.bom_stripped |= line.bom;
            self.state.crlf_lines += usize::from(line.crlf);
            if is_blank(line.bytes) {
                continue;
            }
            let (class, message) = match std::str::from_utf8(line.bytes) {
                Err(e) => (ErrorClass::InvalidUtf8, e.to_string()),
                Ok(text) => {
                    if decode_canonical(text, batch).is_some() {
                        self.state.events += 1;
                        return Ok(true);
                    }
                    self.fallback_lines += 1;
                    match serde_json::from_str::<TraceEvent>(text) {
                        Ok(event) => {
                            batch.push_event(&event);
                            self.state.events += 1;
                            return Ok(true);
                        }
                        Err(e) => {
                            if self.options.on_error == ErrorPolicy::Abort {
                                return Err(TraceIoError::Parse {
                                    line: line.number,
                                    source: e,
                                });
                            }
                            let class = if line.terminated {
                                ErrorClass::MalformedJson
                            } else {
                                ErrorClass::TruncatedTail
                            };
                            (class, e.to_string())
                        }
                    }
                }
            };
            if self.options.on_error == ErrorPolicy::Abort {
                // Only reachable for invalid UTF-8 (JSON aborts above).
                return Err(TraceIoError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line {}: {message}", line.number),
                )));
            }
            self.state.skipped.push(SkippedLine {
                line: line.number,
                class,
                message,
            });
            if let Some(max) = self.options.max_errors {
                if self.state.skipped.len() > max {
                    return Err(TraceIoError::TooManyErrors {
                        errors: self.state.skipped.len(),
                        max,
                    });
                }
            }
        }
        Ok(false)
    }
}

/// Decodes `text` if it is exactly the canonical compact line
/// `write_jsonl` emits:
///
/// ```text
/// {"seq":…,"timestamp_ns":…,"pid":…,"name":"…","sysno":…,"args":[{"Tag":v},…],"retval":…}
/// ```
///
/// Returns `None`, with `batch` untouched, on any deviation:
/// whitespace, keys missing, repeated or in another order, an escape or
/// control character inside a string, a number with a sign, fraction,
/// exponent or leading zero the writer never emits, a value out of its
/// field's range, an unknown or multi-key argument object, or trailing
/// bytes. Every line it accepts, serde accepts as the same event.
fn decode_canonical(text: &str, batch: &mut EventBatch) -> Option<()> {
    let mut c = Canonical { text, pos: 0 };
    c.eat("{\"seq\":")?;
    let seq = c.unsigned()?;
    c.eat(",\"timestamp_ns\":")?;
    let timestamp_ns = c.unsigned()?;
    c.eat(",\"pid\":")?;
    let pid = u32::try_from(c.unsigned()?).ok()?;
    c.eat(",\"name\":")?;
    let name = c.string()?;
    c.eat(",\"sysno\":")?;
    let sysno = u32::try_from(c.unsigned()?).ok()?;
    c.eat(",\"args\":[")?;
    let mut row = batch.begin_row();
    let mut first = true;
    while c.eat("]").is_none() {
        if !first {
            c.eat(",")?;
        }
        first = false;
        row.push_arg(c.arg()?);
    }
    c.eat(",\"retval\":")?;
    let retval = c.signed()?;
    c.eat("}")?;
    if c.pos != text.len() {
        return None;
    }
    let name_id = row.intern_name(name);
    row.commit(seq, timestamp_ns, pid, name_id, sysno, retval);
    Some(())
}

/// A read position in one line, for [`decode_canonical`]. Every
/// method returns `None` where the line leaves the canonical shape.
struct Canonical<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Canonical<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    /// Consumes the literal `lit`.
    fn eat(&mut self, lit: &str) -> Option<()> {
        self.rest().starts_with(lit.as_bytes()).then(|| {
            self.pos += lit.len();
        })
    }

    /// A string with no escape or control character, borrowed from the
    /// line.
    fn string(&mut self) -> Option<&'a str> {
        self.eat("\"")?;
        let start = self.pos;
        self.pos += self
            .rest()
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        let end = self.pos;
        self.eat("\"")?;
        Some(&self.text[start..end])
    }

    /// An integer as the writer prints it: an optional `-`, then
    /// digits with no leading zero (and no `-0`). Returns the sign and
    /// the magnitude.
    fn integer(&mut self) -> Option<(bool, u64)> {
        let negative = self.eat("-").is_some();
        let digits = self.rest();
        let mut magnitude = 0u64;
        let mut float = false;
        // Take the whole JSON number token, as serde's tokenizer does.
        for &b in digits {
            match b {
                b'0'..=b'9' => {
                    magnitude = magnitude
                        .checked_mul(10)?
                        .checked_add(u64::from(b - b'0'))?;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        // A fraction or exponent makes serde read a float, which no
        // integer field accepts.
        if float {
            return None;
        }
        let len = digits.len() - self.rest().len();
        if len == 0 || (digits[0] == b'0' && (len > 1 || negative)) {
            return None;
        }
        Some((negative, magnitude))
    }

    fn unsigned(&mut self) -> Option<u64> {
        match self.integer()? {
            (false, magnitude) => Some(magnitude),
            (true, _) => None,
        }
    }

    fn signed(&mut self) -> Option<i64> {
        let (negative, magnitude) = self.integer()?;
        let magnitude = i128::from(magnitude);
        i64::try_from(if negative { -magnitude } else { magnitude }).ok()
    }

    /// One externally tagged argument object, `{"Tag":value}`.
    fn arg(&mut self) -> Option<ArgView<'a>> {
        self.eat("{")?;
        let tag = self.string()?;
        self.eat(":")?;
        let arg = match tag {
            "Int" => ArgView::Int(self.signed()?),
            "UInt" => ArgView::UInt(self.unsigned()?),
            "Fd" => ArgView::Fd(i32::try_from(self.signed()?).ok()?),
            "Path" => ArgView::Path(self.string()?),
            "Str" => ArgView::Str(self.string()?),
            "Flags" => ArgView::Flags(u32::try_from(self.unsigned()?).ok()?),
            "Mode" => ArgView::Mode(u32::try_from(self.unsigned()?).ok()?),
            "Whence" => ArgView::Whence(u32::try_from(self.unsigned()?).ok()?),
            "Ptr" => ArgView::Ptr(self.unsigned()?),
            _ => return None,
        };
        self.eat("}")?;
        Some(arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArgValue;
    use crate::source::EventSource;
    use crate::{write_jsonl, Trace};

    fn sample_bytes() -> Vec<u8> {
        let trace = Trace::from_events(
            (0u32..6)
                .map(|i| {
                    TraceEvent::build(
                        "write",
                        1,
                        vec![ArgValue::Fd(3), ArgValue::UInt(u64::from(i) * 7)],
                        64,
                    )
                })
                .collect(),
        );
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &trace).unwrap();
        buf
    }

    fn corrupt_bytes() -> Vec<u8> {
        let clean = String::from_utf8(sample_bytes()).unwrap();
        let lines: Vec<&str> = clean.lines().collect();
        let mut text = format!("\u{feff}{}\r\n", lines[0]);
        text.push_str("not json\n\n");
        for l in &lines[1..5] {
            text.push_str(l);
            text.push('\n');
        }
        let mut bytes = text.into_bytes();
        bytes.extend_from_slice(b"\xff\xfe torn\n");
        bytes.extend_from_slice(&lines[5].as_bytes()[..lines[5].len() / 2]);
        bytes
    }

    fn drain<R: Read>(cursor: &mut JsonlCursor<R>) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        while let Some(e) = cursor.next_event().unwrap() {
            events.push(e);
        }
        events
    }

    #[test]
    fn cursor_matches_batch_lossy_reader() {
        let bytes = corrupt_bytes();
        let mut source = JsonlCursor::new(&bytes[..], ReadOptions::default());
        let batch_trace = source.read_all().unwrap();
        let batch = source.into_state();
        let mut cursor = JsonlCursor::new(&bytes[..], ReadOptions::default());
        let events = drain(&mut cursor);
        let state = cursor.into_state();
        assert_eq!(events, batch_trace.events());
        assert_eq!(state.skipped, batch.skipped);
        assert_eq!(state.lines, batch.lines);
        assert_eq!(state.bom_stripped, batch.bom_stripped);
        assert_eq!(state.crlf_lines, batch.crlf_lines);
        assert_eq!(state.byte_offset, bytes.len() as u64);
        assert_eq!(state.events, events.len() as u64);
    }

    #[test]
    fn resume_at_every_event_boundary_is_seamless() {
        let bytes = corrupt_bytes();
        let mut full = JsonlCursor::new(&bytes[..], ReadOptions::default());
        let full_events = drain(&mut full);
        let full_state = full.into_state();

        for stop_after in 0..=full_events.len() {
            let mut head = JsonlCursor::new(&bytes[..], ReadOptions::default());
            let mut events = Vec::new();
            for _ in 0..stop_after {
                events.push(head.next_event().unwrap().unwrap());
            }
            let saved = head.into_state();
            // Round-trip the state through serde, as a checkpoint would.
            let saved: CursorState =
                serde_json::from_str(&serde_json::to_string(&saved).unwrap()).unwrap();
            let tail_bytes = &bytes[usize::try_from(saved.byte_offset).unwrap()..];
            let mut tail = JsonlCursor::resume(tail_bytes, ReadOptions::default(), saved);
            events.extend(drain(&mut tail));
            assert_eq!(events, full_events, "stop_after={stop_after}");
            assert_eq!(tail.into_state(), full_state, "stop_after={stop_after}");
        }
    }

    #[test]
    fn strict_policy_aborts_like_read_jsonl() {
        let options = ReadOptions {
            on_error: ErrorPolicy::Abort,
            ..ReadOptions::default()
        };
        let mut cursor = JsonlCursor::new(&b"\nbad line\n"[..], options);
        match cursor.next_event().unwrap_err() {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn noncanonical_fixture_lines_fall_back_to_serde() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../fixtures/noncanonical_trace.jsonl"
        );
        let text = std::fs::read_to_string(path).unwrap();
        let expected: Vec<TraceEvent> = text
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        let mut cursor = JsonlCursor::new(text.as_bytes(), ReadOptions::default());
        let mut batch = EventBatch::new();
        while cursor.next_into(&mut batch).unwrap() {}
        assert_eq!(batch.to_events(), expected);
        assert!(cursor.state().skipped.is_empty());
        // Lines 2–7 leave the canonical shape; lines 1, 8 and 9 keep it.
        assert_eq!(cursor.fallback_lines(), 6);
    }

    #[test]
    fn max_errors_budget_spans_resume() {
        let options = ReadOptions {
            max_errors: Some(2),
            ..ReadOptions::default()
        };
        let bytes = b"junk one\njunk two\njunk three\n";
        let mut head = JsonlCursor::new(&bytes[..], options);
        assert!(head.next_event().unwrap_err().to_string().contains("limit"));

        // Consume one junk line's worth by resuming after the first line
        // with one skip on the books: the budget continues, not resets.
        let mut head = JsonlCursor::new(&b"junk one\n"[..], options);
        assert!(head.next_event().unwrap().is_none());
        let mut state = head.into_state();
        assert_eq!(state.skipped.len(), 1);
        state.byte_offset = 0;
        let mut tail = JsonlCursor::resume(&b"junk two\njunk three\n"[..], options, state);
        match tail.next_event().unwrap_err() {
            TraceIoError::TooManyErrors { errors, max } => {
                assert_eq!(errors, 3);
                assert_eq!(max, 2);
            }
            other => panic!("expected TooManyErrors, got {other}"),
        }
    }
}
