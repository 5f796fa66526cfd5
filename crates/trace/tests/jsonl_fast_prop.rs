//! Differential property tests for the JSONL cursor's canonical-line
//! decoder against `serde_json`, which stays the referee:
//!
//! * every event `write_jsonl` writes decodes through
//!   `JsonlCursor::next_into` to the event serde gives, and every line
//!   without a string escape takes the canonical decoder rather than
//!   the serde fallback;
//! * over lines mutated away from the canonical shape, the cursor and
//!   serde agree on every line — same event, or same rejection — and a
//!   line the canonical decoder accepts is one serde accepts as the
//!   same event, whether the line comes first in the stream or second;
//! * over streams mixing canonical, CRLF, BOM, blank, invalid-UTF-8,
//!   non-canonical and cut-short lines, a reader that refills the
//!   cursor's buffer a few bytes at a time, or once at any offset,
//!   yields the same events, cursor state and fallback count as one
//!   that hands over everything at once.

use std::io::Read;

use iocov_trace::{
    write_jsonl, ArgValue, CursorState, EventBatch, JsonlCursor, ReadOptions, Trace, TraceEvent,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Characters names and paths are drawn from: plain ASCII, the three
/// the writer escapes by name (`"`, `\`, newline), other control
/// characters, DEL (not escaped), and multi-byte text.
const ALPHABET: [char; 24] = [
    'a', 'b', 'm', 'Z', '0', '9', '/', '.', '-', '_', ' ', '"', '\\', '\n', '\t', '\u{1}',
    '\u{1f}', '\u{7f}', 'é', 'ß', '😀', '\u{2028}', '/', 'x',
];

fn arb_text() -> impl Strategy<Value = String> {
    vec(0..ALPHABET.len(), 0..10).prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX), any::<u64>(), 0u64..1000]
}

fn arb_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0),
        any::<i64>(),
        -1000i64..1000
    ]
}

fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(u32::MAX), any::<u32>(), 0u32..0o7777]
}

fn arb_arg() -> impl Strategy<Value = ArgValue> {
    prop_oneof![
        arb_i64().prop_map(ArgValue::Int),
        arb_u64().prop_map(ArgValue::UInt),
        prop_oneof![Just(i32::MIN), Just(i32::MAX), Just(-100), any::<i32>()]
            .prop_map(ArgValue::Fd),
        arb_text().prop_map(ArgValue::Path),
        arb_text().prop_map(ArgValue::Str),
        arb_u32().prop_map(ArgValue::Flags),
        arb_u32().prop_map(ArgValue::Mode),
        arb_u32().prop_map(ArgValue::Whence),
        arb_u64().prop_map(ArgValue::Ptr),
    ]
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        (arb_u64(), arb_u64(), arb_u32()),
        arb_text(),
        arb_u32(),
        vec(arb_arg(), 0..7),
        arb_i64(),
    )
        .prop_map(
            |((seq, timestamp_ns, pid), name, sysno, args, retval)| TraceEvent {
                seq,
                timestamp_ns,
                pid,
                name,
                sysno,
                args,
                retval,
            },
        )
}

/// The line `write_jsonl` writes for `event`, without its newline.
fn canonical_line(event: &TraceEvent) -> String {
    let mut buf = Vec::new();
    write_jsonl(&mut buf, &Trace::from_events(vec![event.clone()])).expect("event serializes");
    let mut line = String::from_utf8(buf).expect("writer emits UTF-8");
    assert_eq!(line.pop(), Some('\n'));
    line
}

/// The event's fields in declaration order, each value rendered the
/// way the writer renders it.
fn fields(event: &TraceEvent) -> Vec<(String, String)> {
    vec![
        ("seq".into(), event.seq.to_string()),
        ("timestamp_ns".into(), event.timestamp_ns.to_string()),
        ("pid".into(), event.pid.to_string()),
        ("name".into(), serde_json::to_string(&event.name).unwrap()),
        ("sysno".into(), event.sysno.to_string()),
        ("args".into(), serde_json::to_string(&event.args).unwrap()),
        ("retval".into(), event.retval.to_string()),
    ]
}

fn join(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Numeric fields, by index into [`fields`].
const NUMERIC: [usize; 5] = [0, 1, 2, 4, 6];

/// Rewrites `line` away from (or, by chance, back into) the canonical
/// shape. `kind` picks the mutation; `a` and `b` parameterize it.
fn mutate(event: &TraceEvent, kind: usize, a: usize, b: usize) -> String {
    let line = canonical_line(event);
    let mut f = fields(event);
    let n = f.len();
    match kind {
        // Whitespace anywhere, inside strings included.
        0 => {
            let mut at = a % (line.len() + 1);
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            let ws = [" ", "\t", "  ", "\r"][b % 4];
            format!("{}{ws}{}", &line[..at], &line[at..])
        }
        // Whitespace after the `:` or `,` between fields.
        1 => {
            let (colon, comma) = [(" ", ","), ("", ", "), (" ", ", ")][b % 3];
            let body: Vec<String> = f
                .iter()
                .map(|(k, v)| format!("\"{k}\":{colon}{v}"))
                .collect();
            format!("{{{}}}", body.join(comma))
        }
        // Two keys swapped.
        2 => {
            f.swap(a % n, b % n);
            join(&f)
        }
        // A key repeated, with its own or another field's value.
        3 => {
            let (key, _) = f[a % n].clone();
            let value = f[b % n].1.clone();
            f.insert(b % (n + 1), (key, value));
            join(&f)
        }
        // A key dropped, or an unknown key added.
        4 => {
            if b.is_multiple_of(2) {
                f.remove(a % n);
            } else {
                f.insert(a % (n + 1), ("extra".into(), "1".into()));
            }
            join(&f)
        }
        // Number spellings the writer never emits.
        5 => {
            let i = NUMERIC[a % NUMERIC.len()];
            let v = f[i].1.clone();
            f[i].1 = match b % 7 {
                0 => "-0".into(),
                1 => format!("0{v}"),
                2 => format!("{v}.0"),
                3 => format!("{v}e0"),
                4 => "1e3".into(),
                5 => format!("{v}E+1"),
                _ => format!("+{v}"),
            };
            join(&f)
        }
        // Values out of their field's range.
        6 => {
            let (i, v) = [
                (0, "18446744073709551616"),
                (0, "-1"),
                (2, "4294967296"),
                (2, "-1"),
                (4, "4294967296"),
                (6, "9223372036854775808"),
                (6, "-9223372036854775809"),
            ][b % 7];
            f[i].1 = v.into();
            join(&f)
        }
        // Argument objects serde may reject: out-of-range scalars,
        // unknown tags, two keys, a non-object, a trailing comma.
        7 => {
            let bad = [
                r#"{"Fd":2147483648}"#,
                r#"{"Fd":-2147483649}"#,
                r#"{"Flags":4294967296}"#,
                r#"{"Mode":-1}"#,
                r#"{"Whence":4294967296}"#,
                r#"{"UInt":-1}"#,
                r#"{"Int":9223372036854775808}"#,
                r#"{"Ptr":18446744073709551616}"#,
                r#"{"Bogus":1}"#,
                r#"{"Fd":3,"Int":4}"#,
                r#"{"Path":7}"#,
                r#""Fd""#,
                r#"{}"#,
            ][b % 13];
            let mut args: Vec<String> = event
                .args
                .iter()
                .map(|arg| serde_json::to_string(arg).unwrap())
                .collect();
            args.insert(a % (args.len() + 1), bad.to_owned());
            f[5].1 = format!("[{}]", args.join(","));
            if a.is_multiple_of(5) {
                f[5].1 = format!("[{},]", args.join(","));
            }
            join(&f)
        }
        // Trailing or missing bytes.
        _ => {
            let tail = [" ", "x", "}", ",", "\u{feff}", "{}"][b % 6];
            if a.is_multiple_of(3) {
                line[..line.len() - 1].to_owned()
            } else {
                format!("{line}{tail}")
            }
        }
    }
}

/// A canonical line to put ahead of the line under test.
const LEAD: &str =
    r#"{"seq":0,"timestamp_ns":0,"pid":1,"name":"close","sysno":3,"args":[{"Fd":3}],"retval":0}"#;

/// Runs `text` through a lossy cursor and returns the decoded event
/// (if any), whether the canonical decoder took it, and the skip
/// message (if any). The line is read twice, as line 1 of a stream and
/// as line 2 behind a canonical line, and both reads must agree, so the
/// verdict holds for a line in the middle of the read buffer as well as
/// for the first line, the only one that may carry a BOM.
fn cursor_verdict(text: &str) -> (Option<TraceEvent>, bool, Option<String>) {
    let first = verdict_at(text, "");
    let second = verdict_at(text, &format!("{LEAD}\n"));
    assert_eq!(first, second, "line 1 and line 2 verdicts differ: {text:?}");
    first
}

fn verdict_at(text: &str, lead: &str) -> (Option<TraceEvent>, bool, Option<String>) {
    let bytes = format!("{lead}{text}\n");
    let led = usize::from(!lead.is_empty());
    let mut cursor = JsonlCursor::new(bytes.as_bytes(), ReadOptions::default());
    let mut batch = EventBatch::new();
    while cursor
        .next_into(&mut batch)
        .expect("lossy cursor never fails here")
    {}
    let mut events = batch.to_events();
    assert!(
        events.len() <= led + 1,
        "one line decoded to {} events",
        events.len() - led
    );
    let fast = events.len() == led + 1 && cursor.fallback_lines() == 0;
    let skip = cursor.state().skipped.first().map(|skip| {
        assert_eq!(skip.line, led + 1);
        skip.message.clone()
    });
    let event = (events.len() > led).then(|| events.pop().expect("decoded line"));
    (event, fast, skip)
}

/// A reader that hands out its bytes `sizes[i]` at a time, cycling
/// through `sizes`, so the cursor's read buffer refills mid-line.
struct Chunked<'a> {
    bytes: &'a [u8],
    sizes: Vec<usize>,
    turn: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.turn % self.sizes.len()];
        self.turn += 1;
        let n = size.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Drains a lossy cursor: events, final state and fallback count.
fn drain<R: Read>(reader: R) -> (Vec<TraceEvent>, CursorState, u64) {
    let mut cursor = JsonlCursor::new(reader, ReadOptions::default());
    let mut batch = EventBatch::new();
    while cursor
        .next_into(&mut batch)
        .expect("lossy cursor never fails here")
    {}
    let fallback = cursor.fallback_lines();
    (batch.to_events(), cursor.into_state(), fallback)
}

/// One line of a mixed stream.
#[derive(Debug, Clone)]
enum Piece {
    Canonical(TraceEvent),
    Crlf(TraceEvent),
    Mutated(TraceEvent, usize, usize, usize),
    Blank,
    InvalidUtf8,
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    prop_oneof![
        arb_event().prop_map(Piece::Canonical),
        arb_event().prop_map(Piece::Canonical),
        arb_event().prop_map(Piece::Canonical),
        arb_event().prop_map(Piece::Crlf),
        (arb_event(), 0usize..9, 0usize..4096, 0usize..4096)
            .prop_map(|(event, kind, a, b)| Piece::Mutated(event, kind, a, b)),
        Just(Piece::Blank),
        Just(Piece::InvalidUtf8),
    ]
}

/// The stream bytes: an optional BOM, the pieces, and a tail that is
/// whole, cut short, or a whole line without its newline.
fn stream(bom: bool, pieces: &[Piece], tail: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    if bom {
        bytes.extend_from_slice("\u{feff}".as_bytes());
    }
    for piece in pieces {
        match piece {
            Piece::Canonical(event) => bytes.extend_from_slice(canonical_line(event).as_bytes()),
            Piece::Crlf(event) => {
                bytes.extend_from_slice(canonical_line(event).as_bytes());
                bytes.push(b'\r');
            }
            Piece::Mutated(event, kind, a, b) => {
                bytes.extend_from_slice(mutate(event, *kind, *a, *b).as_bytes());
            }
            Piece::Blank => bytes.extend_from_slice(b"  "),
            Piece::InvalidUtf8 => bytes.extend_from_slice(b"{\"seq\":\xff\xfe}"),
        }
        bytes.push(b'\n');
    }
    match tail % 3 {
        0 => {}
        1 => {
            let cut = bytes.len().saturating_sub(1 + tail % 40);
            bytes.truncate(cut);
        }
        _ => {
            bytes.pop();
        }
    }
    bytes
}

proptest! {
    #[test]
    fn written_lines_decode_like_serde_and_take_the_canonical_decoder(
        events in vec(arb_event(), 0..24),
    ) {
        let mut bytes = Vec::new();
        write_jsonl(&mut bytes, &Trace::from_events(events.clone())).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        let mut escaped = 0u64;
        for (line, event) in text.lines().zip(&events) {
            let parsed: TraceEvent = serde_json::from_str(line).unwrap();
            prop_assert_eq!(&parsed, event);
            escaped += u64::from(line.contains('\\'));
        }

        let mut cursor = JsonlCursor::new(&bytes[..], ReadOptions::default());
        let mut batch = EventBatch::new();
        while cursor.next_into(&mut batch).unwrap() {}
        prop_assert_eq!(batch.to_events(), events);
        prop_assert!(cursor.state().skipped.is_empty());
        // Only lines with an escaped character leave the canonical
        // decoder; everything else must stay on it.
        prop_assert_eq!(cursor.fallback_lines(), escaped);
    }

    #[test]
    fn refills_anywhere_change_nothing(
        bom in any::<bool>(),
        pieces in vec(arb_piece(), 0..16),
        tail in 0usize..120,
        tiny in vec(1usize..=7, 1..6),
        wide in vec(1usize..=400, 1..6),
    ) {
        let bytes = stream(bom, &pieces, tail);
        let whole = drain(&bytes[..]);
        for sizes in [tiny, wide] {
            let chunked = drain(Chunked { bytes: &bytes, sizes: sizes.clone(), turn: 0 });
            prop_assert_eq!(&chunked, &whole, "read sizes {:?}", sizes);
        }
        prop_assert_eq!(whole.1.byte_offset, bytes.len() as u64);
    }

    #[test]
    fn mutated_lines_decode_exactly_as_serde_decides(
        event in arb_event(),
        kind in 0usize..9,
        a in 0usize..4096,
        b in 0usize..4096,
    ) {
        let line = mutate(&event, kind, a, b);
        let (decoded, fast, skip) = cursor_verdict(&line);
        match serde_json::from_str::<TraceEvent>(&line) {
            Ok(expected) => {
                prop_assert_eq!(decoded, Some(expected));
                prop_assert_eq!(skip, None);
            }
            Err(e) => {
                prop_assert!(!fast, "canonical decoder accepted a line serde rejects: {line}");
                prop_assert_eq!(decoded, None);
                prop_assert_eq!(skip, Some(e.to_string()));
            }
        }
    }
}

#[test]
fn a_refill_at_every_offset_changes_nothing() {
    let event = |seq: u64, name: &str, args: Vec<ArgValue>, retval: i64| TraceEvent {
        seq,
        timestamp_ns: seq * 1_000,
        pid: 40 + seq as u32 % 3,
        name: name.to_owned(),
        sysno: seq as u32 % 5,
        args,
        retval,
    };
    let open = event(
        1,
        "open",
        vec![
            ArgValue::Path("/mnt/test/é".into()),
            ArgValue::Flags(65),
            ArgValue::Mode(420),
        ],
        3,
    );
    let write = event(
        2,
        "write",
        vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(4096)],
        4096,
    );
    let close = event(3, "close", vec![ArgValue::Fd(3)], -9);
    let pieces = [
        Piece::Canonical(open.clone()),
        Piece::Crlf(write.clone()),
        Piece::Blank,
        Piece::Canonical(close.clone()),
        Piece::InvalidUtf8,
        Piece::Mutated(open.clone(), 1, 0, 0),
        Piece::Canonical(write.clone()),
        Piece::Mutated(close.clone(), 5, 2, 1),
        Piece::Canonical(open),
        Piece::Canonical(close),
    ];
    for tail in [0, 1, 2] {
        let bytes = stream(true, &pieces, tail);
        let whole = drain(&bytes[..]);
        assert!(whole.2 > 0 && !whole.1.skipped.is_empty() && whole.1.crlf_lines == 1);
        for cut in 1..bytes.len() {
            let split = drain(Chunked {
                bytes: &bytes,
                sizes: vec![cut, usize::MAX],
                turn: 0,
            });
            assert_eq!(split, whole, "tail {tail}, refill after byte {cut}");
        }
    }
}

#[test]
fn non_canonical_spellings_fall_back_to_serde() {
    let base = r#"{"seq":1,"timestamp_ns":2,"pid":3,"name":"open","sysno":2,"args":[{"Path":"/mnt/test/a"},{"Flags":65},{"Fd":-100}],"retval":-2}"#;
    let (event, fast, _) = cursor_verdict(base);
    assert!(fast, "canonical line declined");
    let event = event.expect("canonical line decodes");
    for variant in [
        base.replace(":1,", ": 1,"),
        base.replace(r#""seq":1,"timestamp_ns":2"#, r#""timestamp_ns":2,"seq":1"#),
        base.replace(r#""pid":3"#, r#""pid":03"#),
        base.replace("/mnt/test/a", r"\/mnt\/test\/a"),
        format!(" {base}"),
    ] {
        let (decoded, fast, skip) = cursor_verdict(&variant);
        assert!(!fast, "took the canonical decoder: {variant}");
        assert_eq!(skip, None, "{variant}");
        assert_eq!(decoded.as_ref(), Some(&event), "{variant}");
    }
    for rejected in [
        base.replace(r#""pid":3"#, r#""pid":3.0"#),
        base.replace(r#"{"Fd":-100}"#, r#"{"Fd":2147483648}"#),
        format!("{base}x"),
    ] {
        let (decoded, fast, skip) = cursor_verdict(&rejected);
        assert!(!fast && decoded.is_none(), "{rejected}");
        let expected = serde_json::from_str::<TraceEvent>(&rejected).unwrap_err();
        assert_eq!(skip, Some(expected.to_string()), "{rejected}");
    }
}
