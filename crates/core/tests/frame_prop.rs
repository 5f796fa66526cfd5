//! Frames arrive from outside the process — from serve clients — so
//! `read_frame` and the serve HELLO reader must turn any byte string
//! into a frame (a HELLO) or a structured error, never a panic, and
//! never allocate for bytes the input does not deliver. Inputs are
//! arbitrary bytes, forged headers over arbitrary tails, valid frames
//! followed by garbage, and well-formed frames of the retired `S` and
//! `H` kinds, which read as an unknown type. This file holds one test, since
//! its counting `#[global_allocator]` sees every thread in the binary.

#![cfg(unix)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

use iocov::frame::{
    read_frame, write_frame, Frame, FrameError, FRAME_CHECKPOINT, FRAME_DATA, FRAME_DONE,
    FRAME_HELLO,
};
use iocov::serve::{read_hello, MAX_HELLO_LEN};
use iocov::StreamHello;
use iocov_trace::SourceFormat;
use proptest::collection::vec;
use proptest::prelude::*;

/// Tracks live and peak heap bytes.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

const KINDS: [u8; 4] = [FRAME_CHECKPOINT, FRAME_DONE, FRAME_HELLO, FRAME_DATA];

/// Type bytes of frames the protocol no longer has.
const RETIRED: [u8; 2] = [b'S', b'H'];

fn arb_kind() -> impl Strategy<Value = u8> {
    (0..KINDS.len()).prop_map(|i| KINDS[i])
}

/// A frame payload: raw bytes, or a HELLO document (possibly one whose
/// stream name pushes it past the HELLO cap).
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        vec(any::<u8>(), 0..256),
        prop_oneof!["[a-z0-9._-]{0,8}", "[a-z]{4090,4100}"].prop_map(|stream| {
            serde_json::to_string(&StreamHello {
                stream,
                format: SourceFormat::Jsonl,
            })
            .expect("a hello serializes")
            .into_bytes()
        }),
    ]
}

/// An input and the frames a reader must return before reaching its
/// arbitrary tail.
fn arb_input() -> impl Strategy<Value = (Vec<u8>, Vec<Frame>)> {
    let frames = vec((arb_kind(), arb_payload()), 0..4).prop_map(|frames| {
        frames
            .into_iter()
            .map(|(kind, payload)| Frame { kind, payload })
            .collect::<Vec<_>>()
    });
    let garbage = || vec(any::<u8>(), 0..64);
    prop_oneof![
        vec(any::<u8>(), 0..512).prop_map(|bytes| (bytes, Vec::new())),
        (arb_kind(), any::<u64>(), garbage()).prop_map(|(kind, len, tail)| {
            let mut bytes = vec![kind];
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&tail);
            (bytes, Vec::new())
        }),
        (frames, garbage()).prop_map(|(frames, garbage)| {
            let mut bytes = Vec::new();
            for frame in &frames {
                write_frame(&mut bytes, frame.kind, &frame.payload).expect("in-memory write");
            }
            bytes.extend_from_slice(&garbage);
            (bytes, frames)
        }),
        ((0..RETIRED.len()), arb_payload()).prop_map(|(i, payload)| {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, RETIRED[i], &payload).expect("in-memory write");
            (bytes, Vec::new())
        }),
    ]
}

proptest! {
    #[test]
    fn untrusted_frames_give_a_frame_or_a_structured_error((bytes, frames) in arb_input()) {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);

        let mut input = Cursor::new(&bytes[..]);
        // A first byte outside the protocol's kinds is rejected as such.
        if let Some(&kind) = bytes.first().filter(|k| !KINDS.contains(k)) {
            let first = read_frame(&mut Cursor::new(&bytes[..]));
            prop_assert!(matches!(first, Err(FrameError::BadType(k)) if k == kind));
        }
        let mut read = Vec::new();
        // Each frame consumes at least its 17 header and checksum bytes,
        // so the input runs out long before this bound.
        for _ in 0..=bytes.len() {
            match read_frame(&mut input) {
                Ok(Some(frame)) => read.push(frame),
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(!e.to_string().is_empty());
                    break;
                }
            }
        }
        let hello = read_hello(&mut Cursor::new(&bytes[..]));
        let grown = PEAK.load(Ordering::Relaxed) - before;

        prop_assert!(read.len() >= frames.len(), "lost a valid frame");
        prop_assert_eq!(&read[..frames.len()], &frames[..]);
        if let Some(first) = frames.first() {
            let want = (first.kind == FRAME_HELLO && first.payload.len() as u64 <= MAX_HELLO_LEN)
                .then(|| serde_json::from_slice::<StreamHello>(&first.payload).ok())
                .flatten();
            prop_assert_eq!(hello, want);
        }
        prop_assert!(grown < 1 << 20, "peak heap grew by {} bytes", grown);
    }
}
