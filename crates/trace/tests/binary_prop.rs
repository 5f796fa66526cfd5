//! Property tests for the `.iotb` binary codec: `jsonl → iotb → jsonl`
//! round-trips are byte-exact for arbitrary traces, and a truncated
//! binary tail recovers every whole record — the binary mirror of
//! `lossy_prop.rs`.

use iocov_trace::{
    read_iotb, read_jsonl, write_iotb, write_iotb_indexed, write_jsonl, ArgValue, CursorState,
    ErrorClass, EventSource, IotbCursor, ReadOptions, Trace, TraceEvent,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// A lossy read: the drained trace plus the cursor's final state.
fn read_lossy(bytes: &[u8]) -> (Trace, CursorState) {
    let mut source = IotbCursor::new(bytes, ReadOptions::default()).unwrap();
    let trace = source.read_all().unwrap();
    (trace, source.position().state)
}

/// Edge-leaning strings: empty, high-Unicode, embedded quotes/newline
/// escapes, and near-invalid-UTF-8 lookalikes (the `\u{fffd}`
/// replacement char and lone surrogates are not representable in &str,
/// so the worst representable cases are what the codec must carry).
fn arb_string() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-z/._-]{1,12}",
        Just("/mnt/test/\u{fffd}\u{202e}".to_owned()),
        Just("line\nbreak\tand \"quotes\"".to_owned()),
        Just("\u{10FFFF}\u{0}".to_owned()),
    ]
}

fn arb_arg() -> impl Strategy<Value = ArgValue> {
    prop_oneof![
        any::<i64>().prop_map(ArgValue::Int),
        any::<u64>().prop_map(ArgValue::UInt),
        any::<i32>().prop_map(ArgValue::Fd),
        arb_string().prop_map(ArgValue::Path),
        arb_string().prop_map(ArgValue::Str),
        any::<u32>().prop_map(ArgValue::Flags),
        any::<u32>().prop_map(ArgValue::Mode),
        any::<u32>().prop_map(ArgValue::Whence),
        any::<u64>().prop_map(ArgValue::Ptr),
    ]
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        (
            any::<u64>(),
            prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
            any::<u32>(),
        ),
        (arb_string(), any::<u32>()),
        (vec(arb_arg(), 0..6), any::<i64>()),
    )
        .prop_map(
            |((seq, timestamp_ns, pid), (name, sysno), (args, retval))| TraceEvent {
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

proptest! {
    /// jsonl → iotb → jsonl is the identity, byte-for-byte at the JSONL
    /// level (not just event equality): the binary format must not
    /// perturb anything the text format can express.
    #[test]
    fn jsonl_iotb_jsonl_roundtrip_is_byte_exact(events in vec(arb_event(), 0..30)) {
        let trace = Trace::from_events(events);
        let mut jsonl_in = Vec::new();
        write_jsonl(&mut jsonl_in, &trace).unwrap();

        let parsed = read_jsonl(&jsonl_in[..]).unwrap();
        let mut iotb = Vec::new();
        write_iotb(&mut iotb, &parsed).unwrap();
        let back = read_iotb(&iotb[..]).unwrap();
        prop_assert_eq!(&back, &trace);

        let mut jsonl_out = Vec::new();
        write_jsonl(&mut jsonl_out, &back).unwrap();
        prop_assert_eq!(jsonl_in, jsonl_out);
    }

    /// Cutting an `.iotb` stream at any byte past the string table
    /// recovers exactly the records that fit before the cut, plus at
    /// most one truncated-tail skip.
    #[test]
    fn truncated_iotb_tail_recovers_whole_records(
        events in vec(arb_event(), 1..12),
        cut_back in 1usize..64,
    ) {
        let trace = Trace::from_events(events);
        let mut bytes = Vec::new();
        write_iotb(&mut bytes, &trace).unwrap();

        // Never cut into the header/string table — that is fatal by design.
        let table_end = iotb_table_end(&bytes);
        if bytes.len() - table_end == 0 {
            return Ok(()); // empty record region, nothing to truncate
        }
        let cut = table_end.max(bytes.len().saturating_sub(cut_back));
        let (read_trace, read) = read_lossy(&bytes[..cut]);

        // Count the records that fit entirely before the cut, and
        // whether the cut lands exactly on a record boundary (a clean
        // EOF) or mid-record (a truncated tail).
        let mut whole = 0usize;
        let mut pos = table_end;
        while pos < cut {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            if pos + 4 + len <= cut {
                whole += 1;
                pos += 4 + len;
            } else {
                break;
            }
        }
        let clean_boundary = pos == cut;

        let got = read_trace.events();
        prop_assert_eq!(got, &trace.events()[..whole]);
        if clean_boundary {
            prop_assert!(read.skipped.is_empty());
        } else {
            prop_assert_eq!(read.skipped.len(), 1);
            prop_assert_eq!(read.skipped[0].class, ErrorClass::TruncatedTail);
            prop_assert_eq!(read.skipped[0].line, whole + 1);
        }
    }

    /// The serial cursor — the one `.iotb` reader — reads a
    /// block-indexed v2 container to the events it was written from,
    /// at every block size.
    #[test]
    fn serial_cursor_reads_v2_at_every_block_size(
        events in vec(arb_event(), 0..40),
        block_events in 1usize..9,
    ) {
        let trace = Trace::from_events(events);
        let mut v2 = Vec::new();
        write_iotb_indexed(&mut v2, &trace, block_events).unwrap();

        let serial = read_iotb(&v2[..]).unwrap();
        prop_assert_eq!(&serial, &trace);
    }

    /// A corrupt length prefix mid-stream — one that claims more bytes
    /// than remain but is followed by intact records — must be
    /// classified as corruption and resynchronized past, never silently
    /// treated as end-of-file: every intact trailing record survives.
    #[test]
    fn corrupt_midstream_prefix_is_corruption_not_eof(
        events in vec(arb_event(), 2..10),
        idx_seed in 0usize..64,
    ) {
        let trace = Trace::from_events(events);
        let mut bytes = Vec::new();
        write_iotb(&mut bytes, &trace).unwrap();

        // Locate record boundaries, then forge the length prefix of a
        // non-final record to overrun EOF.
        let table_end = iotb_table_end(&bytes);
        let mut starts = Vec::new();
        let mut pos = table_end;
        while pos < bytes.len() {
            starts.push(pos);
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + len;
        }
        let idx = idx_seed % (starts.len() - 1);
        let forged = (1u32 << 20).to_le_bytes(); // MAX_RECORD_LEN: passes the limit check, overruns EOF
        bytes[starts[idx]..starts[idx] + 4].copy_from_slice(&forged);

        let (read_trace, read) = read_lossy(&bytes[..]);
        let got = read_trace.events();
        let n = trace.len();
        // Records before the corruption are untouched; every intact
        // record after it is recovered (resync may in principle surface
        // extra phantom records from the overwritten payload, so assert
        // prefix and suffix rather than exact equality).
        prop_assert!(got.len() >= n - 1);
        prop_assert_eq!(&got[..idx], &trace.events()[..idx]);
        prop_assert_eq!(&got[got.len() - (n - 1 - idx)..], &trace.events()[idx + 1..]);
        prop_assert_eq!(read.skipped.len(), 1);
        prop_assert_eq!(read.skipped[0].class, ErrorClass::MalformedRecord);
        prop_assert!(
            read.skipped[0].message.contains("resynchronized"),
            "{}", read.skipped[0].message
        );
    }
}

/// Byte offset just past the string-table checksum.
fn iotb_table_end(bytes: &[u8]) -> usize {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut pos = 12;
    for _ in 0..count {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len;
    }
    pos + 8
}
