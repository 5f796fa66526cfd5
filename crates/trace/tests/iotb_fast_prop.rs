//! Differential property tests for the `.iotb` cursor's in-place record
//! read against its copying path.
//!
//! A record whose length prefix and payload both sit in the cursor's
//! read buffer is decoded where it lies; any other record is copied out
//! first. A reader that hands over one byte per `read` never lets a
//! whole record into the buffer, so it drives every record through the
//! copying path and serves as the referee. Over v1 and v2 containers
//! with bad argument tags, out-of-range symbols, trailing payload
//! bytes, over-cap length prefixes, a resynchronizing tail and a cut
//! tail, read strictly and lossily, readers that return 1–7 or 1–400
//! bytes per `read`, or refill once at any byte offset, must yield the
//! same events, the same skip entries and the same `CursorState` after
//! every record as the referee — and the same name tables when the
//! records fill one batch.

use std::io::Read;

use iocov_trace::binary::MAX_RECORD_LEN;
use iocov_trace::{
    write_iotb, write_iotb_indexed, ArgValue, CursorState, EventBatch, EventSource, IotbCursor,
    ReadOptions, Trace, TraceEvent,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-z/._-]{1,12}",
        Just("/mnt/test/é😀".to_owned()),
    ]
}

fn arb_arg() -> impl Strategy<Value = ArgValue> {
    prop_oneof![
        any::<i64>().prop_map(ArgValue::Int),
        any::<u64>().prop_map(ArgValue::UInt),
        any::<i32>().prop_map(ArgValue::Fd),
        arb_text().prop_map(ArgValue::Path),
        arb_text().prop_map(ArgValue::Str),
        any::<u32>().prop_map(ArgValue::Flags),
        any::<u32>().prop_map(ArgValue::Mode),
        any::<u32>().prop_map(ArgValue::Whence),
        any::<u64>().prop_map(ArgValue::Ptr),
    ]
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        (any::<u64>(), any::<u64>(), 0u32..4),
        prop_oneof![Just("open"), Just("write"), Just("close"), Just("stat")],
        (vec(arb_arg(), 0..5), any::<i64>()),
    )
        .prop_map(
            |((seq, timestamp_ns, pid), name, (args, retval))| TraceEvent {
                seq,
                timestamp_ns,
                pid,
                name: name.to_owned(),
                sysno: pid,
                args,
                retval,
            },
        )
}

/// What happens to one record on its way into the container.
#[derive(Debug, Clone, Copy)]
enum Damage {
    None,
    /// The first argument tag (or, for a record without arguments, a
    /// claimed argument) is unknown.
    BadTag,
    /// The name symbol points past the string table.
    BadSymbol,
    /// One byte more payload than the record decodes.
    Trailing,
    /// A length prefix over `MAX_RECORD_LEN`: the framing is lost.
    OverCap,
    /// A length prefix that runs past the end of the container, so the
    /// cursor probes the rest for whole records to resynchronize on.
    Overrun,
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        Just(Damage::None),
        Just(Damage::None),
        Just(Damage::None),
        Just(Damage::BadTag),
        Just(Damage::BadSymbol),
        Just(Damage::Trailing),
        Just(Damage::OverCap),
        Just(Damage::Overrun),
    ]
}

/// Byte offset of the first record's length prefix.
fn table_end(bytes: &[u8]) -> usize {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut pos = 12;
    for _ in 0..count {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len;
    }
    pos + 8
}

/// Writes `events` as a v1 or v2 container, damaging record `i` by
/// `damage[i % damage.len()]`, then cuts `cut` bytes off the end.
fn container(events: &[TraceEvent], v2: bool, damage: &[Damage], cut: usize) -> Vec<u8> {
    let trace = Trace::from_events(events.to_vec());
    let mut clean = Vec::new();
    if v2 {
        write_iotb_indexed(&mut clean, &trace, 3).unwrap();
    } else {
        write_iotb(&mut clean, &trace).unwrap();
    }
    let start = table_end(&clean);
    let mut out = clean[..start].to_vec();
    let mut pos = start;
    let mut payloads = Vec::new();
    for _ in events {
        let len = u32::from_le_bytes(clean[pos..pos + 4].try_into().unwrap()) as usize;
        payloads.push(clean[pos + 4..pos + 4 + len].to_vec());
        pos += 4 + len;
    }
    let trailer = &clean[pos..];
    for (i, mut payload) in payloads.into_iter().enumerate() {
        let mut prefix = payload.len();
        match damage[i % damage.len()] {
            Damage::None => {}
            Damage::BadTag => {
                if payload.len() > 40 {
                    payload[40] = 0xEE;
                } else {
                    payload[36..40].copy_from_slice(&1u32.to_le_bytes());
                    payload.extend_from_slice(&[0xEE; 8]);
                    prefix = payload.len();
                }
            }
            Damage::BadSymbol => payload[20..24].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes()),
            Damage::Trailing => {
                payload.push(0);
                prefix += 1;
            }
            Damage::OverCap => prefix = MAX_RECORD_LEN + 1,
            Damage::Overrun => prefix = MAX_RECORD_LEN,
        }
        out.extend_from_slice(&u32::try_from(prefix).unwrap().to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out.extend_from_slice(trailer);
    let keep = out.len().saturating_sub(cut).max(start);
    out.truncate(keep);
    out
}

/// A reader that hands out its bytes `sizes[i]` at a time, cycling
/// through `sizes`, so the cursor's read buffer refills mid-record.
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

fn chunked(bytes: &[u8], sizes: Vec<usize>) -> Chunked<'_> {
    Chunked {
        bytes,
        sizes,
        turn: 0,
    }
}

/// One step of a read: the event and the state after it, or the error.
type Step = Result<(Option<TraceEvent>, CursorState), String>;

/// Reads record by record, keeping the state after every call.
fn steps<R: Read>(reader: R, options: ReadOptions) -> Vec<Step> {
    let mut cursor = IotbCursor::new(reader, options).expect("the table is intact");
    let mut out = Vec::new();
    loop {
        match cursor.next_event() {
            Ok(event) => {
                let end = event.is_none();
                out.push(Ok((event, cursor.state().clone())));
                if end {
                    return out;
                }
            }
            Err(e) => {
                out.push(Err(e.to_string()));
                return out;
            }
        }
    }
}

/// Reads every record into one batch: its events and name table, and
/// the final state or error.
fn one_batch<R: Read>(
    reader: R,
    options: ReadOptions,
) -> (Vec<TraceEvent>, Vec<String>, Result<CursorState, String>) {
    let mut cursor = IotbCursor::new(reader, options).expect("the table is intact");
    let mut batch = EventBatch::new();
    let end = loop {
        match cursor.next_into(&mut batch) {
            Ok(true) => {}
            Ok(false) => break Ok(cursor.state().clone()),
            Err(e) => break Err(e.to_string()),
        }
    };
    let names = batch.names().iter().map(|name| name.to_string()).collect();
    (batch.to_events(), names, end)
}

/// Each batch's events and name table.
type Batches = Vec<(Vec<TraceEvent>, Vec<String>)>;

/// Reads batches of `size` records: each batch's events and name
/// table, and the final state or error.
fn in_batches<R: Read>(
    reader: R,
    options: ReadOptions,
    size: usize,
) -> (Batches, Result<CursorState, String>) {
    let mut cursor = IotbCursor::new(reader, options).expect("the table is intact");
    let mut out = Vec::new();
    loop {
        match cursor.next_batch(size) {
            Ok(batch) if batch.is_empty() => return (out, Ok(cursor.into_state())),
            Ok(batch) => {
                let names = batch.names().iter().map(|name| name.to_string()).collect();
                out.push((batch.to_events(), names));
            }
            Err(e) => return (out, Err(e.to_string())),
        }
    }
}

/// A strict read, and a lossy one with no skip budget.
fn options() -> [ReadOptions; 2] {
    [ReadOptions::STRICT, ReadOptions::default()]
}

proptest! {
    #[test]
    fn in_place_reads_match_the_copying_path(
        events in vec(arb_event(), 0..20),
        v2 in any::<bool>(),
        damage in vec(arb_damage(), 1..6),
        cut in prop_oneof![Just(0usize), 0usize..60],
        tiny in vec(1usize..=7, 1..6),
        wide in vec(1usize..=400, 1..6),
    ) {
        let bytes = container(&events, v2, &damage, cut);
        for options in options() {
            let referee = steps(chunked(&bytes, vec![1]), options);
            prop_assert_eq!(&steps(&bytes[..], options), &referee);
            let referee_batch = one_batch(chunked(&bytes, vec![1]), options);
            prop_assert_eq!(&one_batch(&bytes[..], options), &referee_batch);
            // Name hints outlive batches: every batch must still list its
            // own rows' names, first seen first, and carry the events a
            // batch of one record gets.
            let referee_events: Vec<TraceEvent> = referee
                .iter()
                .filter_map(|step| step.as_ref().ok().and_then(|(event, _)| event.clone()))
                .collect();
            for size in [2, 3] {
                let (chunks, end) = in_batches(&bytes[..], options, size);
                let mut flat = Vec::new();
                for (events, names) in chunks {
                    let mut first_seen: Vec<String> = Vec::new();
                    for event in &events {
                        if !first_seen.contains(&event.name) {
                            first_seen.push(event.name.clone());
                        }
                    }
                    prop_assert_eq!(names, first_seen);
                    flat.extend(events);
                }
                // A strict read that fails drops the batch it was filling.
                if end.is_ok() {
                    prop_assert_eq!(&flat, &referee_events);
                } else {
                    prop_assert_eq!(&flat[..], &referee_events[..flat.len()]);
                }
            }
            for sizes in [&tiny, &wide] {
                prop_assert_eq!(
                    &steps(chunked(&bytes, sizes.clone()), options),
                    &referee,
                    "read sizes {:?}", sizes
                );
                prop_assert_eq!(
                    &one_batch(chunked(&bytes, sizes.clone()), options),
                    &referee_batch,
                    "read sizes {:?}", sizes
                );
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
    let open = |seq| {
        event(
            seq,
            "open",
            vec![
                ArgValue::Path("/mnt/test/é".into()),
                ArgValue::Flags(65),
                ArgValue::Mode(420),
            ],
            3,
        )
    };
    let write = |seq| {
        event(
            seq,
            "write",
            vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(4096)],
            4096,
        )
    };
    let close = |seq| event(seq, "close", vec![ArgValue::Fd(3)], -9);
    let events: Vec<TraceEvent> = (0..12)
        .map(|seq| match seq % 3 {
            0 => open(seq),
            1 => write(seq),
            _ => close(seq),
        })
        .collect();
    let damaged = [
        Damage::None,
        Damage::BadTag,
        Damage::None,
        Damage::BadSymbol,
        Damage::Trailing,
        Damage::None,
    ];
    let cases = [
        (false, &damaged[..], 0),
        (true, &damaged[..], 0),
        (false, &damaged[..], 7),
        (false, &[Damage::None, Damage::None, Damage::Overrun][..], 0),
        (true, &[Damage::None, Damage::OverCap][..], 0),
    ];
    for (v2, damage, cut) in cases {
        let bytes = container(&events, v2, damage, cut);
        for options in options() {
            let referee = steps(chunked(&bytes, vec![1]), options);
            let referee_batch = one_batch(chunked(&bytes, vec![1]), options);
            for at in 1..bytes.len() {
                let split = steps(chunked(&bytes, vec![at, usize::MAX]), options);
                assert_eq!(
                    split, referee,
                    "v2 {v2}, damage {damage:?}, refill after byte {at}"
                );
                let split = one_batch(chunked(&bytes, vec![at, usize::MAX]), options);
                assert_eq!(
                    split, referee_batch,
                    "v2 {v2}, damage {damage:?}, refill after byte {at}"
                );
            }
        }
    }
    // The cases reach every skip class the copying path reports.
    let lossy = one_batch(
        &container(&events, false, &damaged, 7)[..],
        ReadOptions::default(),
    );
    let skipped = lossy.2.expect("lossy reads do not fail").skipped;
    assert!(skipped
        .iter()
        .any(|s| s.message.contains("unknown argument tag")));
    assert!(skipped.iter().any(|s| s.message.contains("out of range")));
    assert!(skipped.iter().any(|s| s.message.contains("trailing bytes")));
    assert!(skipped.iter().any(|s| s.message.contains("cut off")));
}
