//! Property tests for the lossy JSONL reader: for any interleaving of
//! valid records with corrupt lines, the recovered trace is exactly the
//! valid subsequence and every corrupt line is counted once, with the
//! right error class.

use iocov_trace::{
    write_jsonl, ArgValue, CursorState, ErrorClass, EventSource, JsonlCursor, ReadOptions, Trace,
    TraceEvent, TraceIoError,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// A lossy read: the drained trace plus the cursor's final state.
fn read_lossy(bytes: &[u8], options: ReadOptions) -> Result<(Trace, CursorState), TraceIoError> {
    let mut source = JsonlCursor::new(bytes, options);
    let trace = source.read_all()?;
    Ok((trace, source.position().state))
}

/// What one line of the generated stream holds.
#[derive(Debug, Clone)]
enum LineSpec {
    /// A well-formed serialized event the reader must keep.
    Valid(TraceEvent),
    /// A terminated line that is not a valid event record.
    Malformed(&'static str),
    /// A terminated line of invalid UTF-8.
    Garbage,
    /// An empty line the reader must skip silently.
    Blank,
}

/// Malformed-but-terminated payloads: broken JSON, tracer banners, and
/// well-formed JSON of the wrong shape.
const JUNK: [&str; 4] = [
    "{\"seq\": 3, \"name\": \"open\"",
    "#### tracer restarted ####",
    "[1, 2, 3]",
    "{\"pid\": \"not-a-number\"}",
];

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        ("[a-z]{1,6}", 3i64..10).prop_map(|(name, fd)| TraceEvent::build(
            "open",
            2,
            vec![
                ArgValue::Path(format!("/mnt/test/{name}")),
                ArgValue::Flags(0o101),
                ArgValue::Mode(0o644),
            ],
            fd,
        )),
        (3i32..10, 0u32..20).prop_map(|(fd, shift)| TraceEvent::build(
            "write",
            1,
            vec![
                ArgValue::Fd(fd),
                ArgValue::Ptr(1),
                ArgValue::UInt(1u64 << shift),
            ],
            1i64 << shift,
        )),
        (3i32..10).prop_map(|fd| TraceEvent::build("close", 3, vec![ArgValue::Fd(fd)], 0)),
    ]
}

fn arb_line() -> impl Strategy<Value = LineSpec> {
    prop_oneof![
        arb_event().prop_map(LineSpec::Valid),
        (0usize..JUNK.len()).prop_map(|i| LineSpec::Malformed(JUNK[i])),
        (0u8..1).prop_map(|_| LineSpec::Garbage),
        (0u8..1).prop_map(|_| LineSpec::Blank),
    ]
}

/// Serializes one event exactly as `write_jsonl` would (one line,
/// newline-terminated).
fn event_line(event: &TraceEvent) -> Vec<u8> {
    let mut line = Vec::new();
    write_jsonl(&mut line, &Trace::from_events(vec![event.clone()])).expect("event serializes");
    line
}

proptest! {
    #[test]
    fn lossy_reader_recovers_exactly_the_valid_subsequence(
        specs in vec(arb_line(), 0..40),
        truncate in 0u8..2,
    ) {
        let truncate = truncate == 1;
        let mut bytes: Vec<u8> = Vec::new();
        let mut expected_events: Vec<TraceEvent> = Vec::new();
        let mut expected_malformed = 0usize;
        let mut expected_garbage = 0usize;
        for spec in &specs {
            match spec {
                LineSpec::Valid(event) => {
                    bytes.extend_from_slice(&event_line(event));
                    expected_events.push(event.clone());
                }
                LineSpec::Malformed(junk) => {
                    bytes.extend_from_slice(junk.as_bytes());
                    bytes.push(b'\n');
                    expected_malformed += 1;
                }
                LineSpec::Garbage => {
                    bytes.extend_from_slice(&[0xFF, 0xFE, b'x', 0x00, b'\n']);
                    expected_garbage += 1;
                }
                LineSpec::Blank => bytes.push(b'\n'),
            }
        }
        if truncate {
            // An unterminated fragment of a record ends the stream.
            bytes.extend_from_slice(b"{\"seq\": 9, \"na");
        }

        let (trace, read) = read_lossy(&bytes[..], ReadOptions::default()).unwrap();
        prop_assert_eq!(trace.events(), &expected_events[..]);
        let expected_skips = expected_malformed + expected_garbage + usize::from(truncate);
        prop_assert_eq!(read.skipped.len(), expected_skips);

        let count = |class| read.skipped.iter().filter(|s| s.class == class).count();
        prop_assert_eq!(count(ErrorClass::MalformedJson), expected_malformed);
        prop_assert_eq!(count(ErrorClass::InvalidUtf8), expected_garbage);
        prop_assert_eq!(count(ErrorClass::TruncatedTail), usize::from(truncate));

        // Every skip carries a usable 1-based line number.
        let lines = read.lines;
        for skip in &read.skipped {
            prop_assert!(skip.line >= 1 && skip.line <= lines);
        }
    }

    #[test]
    fn max_errors_never_exceeded(
        specs in vec(arb_line(), 0..20),
    ) {
        let mut bytes: Vec<u8> = Vec::new();
        let mut corrupt = 0usize;
        for spec in &specs {
            match spec {
                LineSpec::Valid(event) => bytes.extend_from_slice(&event_line(event)),
                LineSpec::Malformed(junk) => {
                    bytes.extend_from_slice(junk.as_bytes());
                    bytes.push(b'\n');
                    corrupt += 1;
                }
                LineSpec::Garbage => {
                    bytes.extend_from_slice(&[0xFF, 0xFE, b'\n']);
                    corrupt += 1;
                }
                LineSpec::Blank => bytes.push(b'\n'),
            }
        }
        let options = ReadOptions { max_errors: Some(2), ..ReadOptions::default() };
        let result = read_lossy(&bytes[..], options);
        if corrupt <= 2 {
            prop_assert!(result.is_ok());
            prop_assert_eq!(result.unwrap().1.skipped.len(), corrupt);
        } else {
            prop_assert!(result.is_err());
        }
    }
}
