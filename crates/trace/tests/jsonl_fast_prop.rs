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
//!   same event.

use iocov_trace::{write_jsonl, ArgValue, EventBatch, JsonlCursor, ReadOptions, Trace, TraceEvent};
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

/// Runs `text` through a lossy cursor as one line and returns the
/// decoded event (if any), whether the canonical decoder took it, and
/// the skip message (if any).
fn cursor_verdict(text: &str) -> (Option<TraceEvent>, bool, Option<String>) {
    let bytes = format!("{text}\n");
    let mut cursor = JsonlCursor::new(bytes.as_bytes(), ReadOptions::default());
    let mut batch = EventBatch::new();
    while cursor
        .next_into(&mut batch)
        .expect("lossy cursor never fails here")
    {}
    assert!(
        batch.len() <= 1,
        "one line decoded to {} events",
        batch.len()
    );
    let fast = batch.len() == 1 && cursor.fallback_lines() == 0;
    let skip = cursor
        .state()
        .skipped
        .first()
        .map(|skip| skip.message.clone());
    (batch.to_events().pop(), fast, skip)
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
