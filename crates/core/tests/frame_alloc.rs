//! `read_frame` must not trust a frame's declared length for its
//! allocation: a 9-byte header declaring `MAX_FRAME_LEN` followed by EOF
//! fails with a structured error while the process's peak heap grows by
//! far less than the declared gigabyte. This file holds one test, since
//! its counting `#[global_allocator]` sees every thread in the binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Cursor};
use std::sync::atomic::{AtomicUsize, Ordering};

use iocov::frame::{read_frame, FrameError, FRAME_DATA, MAX_FRAME_LEN};

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

#[test]
fn forged_max_length_header_fails_without_a_large_allocation() {
    let mut forged = vec![FRAME_DATA];
    forged.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    let mut input = Cursor::new(forged);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = read_frame(&mut input);
    let grown = PEAK.load(Ordering::Relaxed) - before;

    match result {
        Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
        other => panic!("expected a structured I/O error, got {other:?}"),
    }
    assert!(grown < 1 << 20, "peak heap grew by {grown} bytes");
}
