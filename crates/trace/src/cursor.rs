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
//!
//! The canonical decoder reads a line where it lies. Each line is first
//! offered to it in place, in the cursor's 64 KiB read buffer: a line
//! it accepts costs no copy, no newline search and no whole-line UTF-8
//! check, since it takes only ASCII outside strings and checks each
//! string on its own. A line it declines there — one that crosses a
//! buffer refill, a first line with a BOM, a CRLF, blank, non-canonical
//! or invalid line — is copied out and normalized by the line scanner,
//! and the same decoder gets the copy before serde does. Either way a
//! line is decoded, skipped and counted the same, so the events,
//! [`CursorState`] and [`fallback_lines`](JsonlCursor::fallback_lines)
//! do not depend on where the buffer refills fall.

use std::io::{BufReader, Read};

use serde::{Deserialize, Serialize};

use crate::batch::{ArgView, EventBatch, NameHints};
use crate::event::TraceEvent;
use crate::lossy::{ErrorClass, ErrorPolicy, ReadOptions, SkippedLine};
use crate::serial::{is_blank, LineReader, TraceIoError};
use crate::source::READ_BUFFER;

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
    /// Name ids by syscall number, kept across batches.
    hints: NameHints,
}

impl<R: Read> JsonlCursor<R> {
    /// A cursor over a fresh stream.
    pub fn new(reader: R, options: ReadOptions) -> Self {
        JsonlCursor::resume(reader, options, CursorState::default())
    }

    /// Resumes from a checkpointed `state`. The caller must have seeked
    /// `reader` to `state.byte_offset`.
    pub fn resume(reader: R, options: ReadOptions, state: CursorState) -> Self {
        JsonlCursor {
            lines: LineReader::with_start(
                BufReader::with_capacity(READ_BUFFER, reader),
                state.lines,
            ),
            options,
            state,
            fallback_lines: 0,
            hints: NameHints::new(),
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
    /// decoded in one pass straight into the batch columns, from the
    /// read buffer where possible. Any other line goes through
    /// `serde_json::from_str::<TraceEvent>`, so serde alone decides
    /// what is rejected and with which message.
    ///
    /// # Errors
    ///
    /// Same failure model as [`next_event`](Self::next_event).
    pub fn next_into(&mut self, batch: &mut EventBatch) -> Result<bool, TraceIoError> {
        loop {
            let hints = &mut self.hints;
            let taken = self
                .lines
                .next_in_place(|bytes| decode_canonical(bytes, batch, hints))?;
            if let Some(len) = taken {
                self.state.byte_offset += len as u64;
                self.state.lines = self.lines.number();
                self.state.events += 1;
                return Ok(true);
            }
            let Some(line) = self.lines.next_line()? else {
                return Ok(false);
            };
            self.state.byte_offset += line.raw_len();
            self.state.lines = line.number;
            self.state.bom_stripped |= line.bom;
            self.state.crlf_lines += usize::from(line.crlf);
            if is_blank(line.bytes()) {
                continue;
            }
            let (class, message) = match std::str::from_utf8(line.bytes()) {
                Err(e) => (ErrorClass::InvalidUtf8, e.to_string()),
                Ok(text) => {
                    if decode_canonical(line.framed, batch, &mut self.hints).is_some() {
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
    }
}

/// Decodes the canonical compact line `write_jsonl` emits at the start
/// of `bytes`, through its `\n`:
///
/// ```text
/// {"seq":…,"timestamp_ns":…,"pid":…,"name":"…","sysno":…,"args":[{"Tag":v},…],"retval":…}
/// ```
///
/// Returns the bytes consumed, `\n` included, or `None`, with `batch`
/// untouched, on any deviation: whitespace (a `\r` before the `\n`
/// too), keys missing, repeated or in another order, an escape, control
/// character or invalid UTF-8 inside a string, a non-ASCII byte outside
/// one, a number with a sign, fraction, exponent or leading zero the
/// writer never emits, a value out of its field's range, an unknown or
/// multi-key argument object, or anything but `\n` after the closing
/// brace — including the end of `bytes`, so a line cut short by a
/// buffer refill is never taken. Every line it accepts, serde accepts
/// as the same event.
fn decode_canonical(bytes: &[u8], batch: &mut EventBatch, hints: &mut NameHints) -> Option<usize> {
    let mut c = Canonical { bytes, pos: 0 };
    c.eat(b"{\"seq\":")?;
    let seq = c.unsigned()?;
    c.eat(b",\"timestamp_ns\":")?;
    let timestamp_ns = c.unsigned()?;
    c.eat(b",\"pid\":")?;
    let pid = u32::try_from(c.unsigned()?).ok()?;
    c.eat(b",\"name\":")?;
    let name = c.string()?;
    c.eat(b",\"sysno\":")?;
    let sysno = u32::try_from(c.unsigned()?).ok()?;
    c.eat(b",\"args\":[")?;
    let mut row = batch.begin_row();
    if c.eat(b"]").is_none() {
        loop {
            row.push_arg(c.arg()?);
            if c.eat(b"]").is_some() {
                break;
            }
            c.eat(b",")?;
        }
    }
    c.eat(b",\"retval\":")?;
    let retval = c.signed()?;
    c.eat(b"}\n")?;
    let name_id = row.intern_hinted(hints, name, sysno);
    row.commit(seq, timestamp_ns, pid, name_id, sysno, retval);
    Some(c.pos)
}

/// A read position in a line, for [`decode_canonical`]. Every method
/// returns `None` where the line leaves the canonical shape.
struct Canonical<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Canonical<'a> {
    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Consumes the literal `lit`. Inlined so that each call compares
    /// a literal of known length in registers rather than through
    /// `bcmp`.
    #[inline(always)]
    fn eat(&mut self, lit: &[u8]) -> Option<()> {
        self.rest().starts_with(lit).then(|| {
            self.pos += lit.len();
        })
    }

    /// A string with no escape or control character and valid UTF-8,
    /// borrowed from the line.
    fn string(&mut self) -> Option<&'a str> {
        self.eat(b"\"")?;
        let rest = self.rest();
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        if rest[len] != b'"' {
            return None;
        }
        self.pos += len + 1;
        std::str::from_utf8(&rest[..len]).ok()
    }

    /// An integer as the writer prints it: an optional `-`, then
    /// digits with no leading zero (and no `-0`). Returns the sign and
    /// the magnitude.
    #[inline]
    fn integer(&mut self) -> Option<(bool, u64)> {
        let negative = self.eat(b"-").is_some();
        let rest = self.rest();
        let mut magnitude = 0u64;
        let mut len = 0;
        while let Some(&byte) = rest.get(len) {
            let digit = byte.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(digit));
            len += 1;
        }
        // serde's tokenizer takes a fraction, exponent or second sign
        // into the number and reads a float, which no integer field
        // accepts.
        if len == 0
            || matches!(rest.get(len), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
            || (rest[0] == b'0' && (len > 1 || negative))
        {
            return None;
        }
        // Nineteen digits always fit a `u64`; only a longer run can
        // have wrapped.
        if len > 19 {
            magnitude = rest[..len].iter().try_fold(0u64, |n, &d| {
                n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
            })?;
        }
        self.pos += len;
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

    /// One externally tagged argument object, `{"Tag":value}`, its tag
    /// picked by its first letter (and its second, for `F` and `P`).
    fn arg(&mut self) -> Option<ArgView<'a>> {
        self.eat(b"{\"")?;
        let arg = match self.rest() {
            [b'I', ..] => {
                self.eat(b"Int\":")?;
                ArgView::Int(self.signed()?)
            }
            [b'U', ..] => {
                self.eat(b"UInt\":")?;
                ArgView::UInt(self.unsigned()?)
            }
            [b'F', b'd', ..] => {
                self.eat(b"Fd\":")?;
                ArgView::Fd(i32::try_from(self.signed()?).ok()?)
            }
            [b'F', ..] => {
                self.eat(b"Flags\":")?;
                ArgView::Flags(u32::try_from(self.unsigned()?).ok()?)
            }
            [b'P', b'a', ..] => {
                self.eat(b"Path\":")?;
                ArgView::Path(self.string()?)
            }
            [b'P', ..] => {
                self.eat(b"Ptr\":")?;
                ArgView::Ptr(self.unsigned()?)
            }
            [b'S', ..] => {
                self.eat(b"Str\":")?;
                ArgView::Str(self.string()?)
            }
            [b'M', ..] => {
                self.eat(b"Mode\":")?;
                ArgView::Mode(u32::try_from(self.unsigned()?).ok()?)
            }
            [b'W', ..] => {
                self.eat(b"Whence\":")?;
                ArgView::Whence(u32::try_from(self.unsigned()?).ok()?)
            }
            _ => return None,
        };
        self.eat(b"}")?;
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
    fn deeply_nested_line_is_a_parse_error_not_a_stack_overflow() {
        // One line nested far past any thread's stack, between two good
        // events: lossy reading skips it, strict reading reports it.
        let clean = String::from_utf8(sample_bytes()).unwrap();
        let lines: Vec<&str> = clean.lines().collect();
        let text = format!("{}\n{}\n{}\n", lines[0], "[".repeat(1_000_000), lines[1]);
        let mut cursor = JsonlCursor::new(text.as_bytes(), ReadOptions::default());
        assert_eq!(drain(&mut cursor).len(), 2);
        let skipped = &cursor.state().skipped;
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].line, 2);
        assert!(
            skipped[0].message.contains("recursion limit exceeded"),
            "{skipped:?}"
        );
        let strict = ReadOptions {
            on_error: ErrorPolicy::Abort,
            ..ReadOptions::default()
        };
        let mut cursor = JsonlCursor::new(text.as_bytes(), strict);
        assert!(cursor.next_event().unwrap().is_some());
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
