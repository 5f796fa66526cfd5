//! The trace recorder: thread-safe event sink with optional ring buffering.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::event::TraceEvent;
use crate::Trace;

/// Statistics about a recording session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecorderStats {
    /// Events accepted into the buffer.
    pub recorded: u64,
    /// Events discarded because the ring buffer was full (oldest-first),
    /// mirroring LTTng's `discard`/`overwrite` accounting.
    pub dropped: u64,
}

/// A thread-safe syscall-event sink.
///
/// Mirrors the essential behaviour of an LTTng session:
///
/// * recording can be paused/resumed ([`set_enabled`](Self::set_enabled));
/// * an optional capacity bound turns the buffer into a ring that
///   overwrites the oldest events and counts drops;
/// * each accepted event is stamped with a monotonic sequence number and a
///   logical nanosecond timestamp (deterministic, not wall-clock, so runs
///   are reproducible).
///
/// ```
/// use iocov_trace::{Recorder, TraceEvent};
///
/// let rec = Recorder::with_capacity(2);
/// for i in 0..3 {
///     rec.record(TraceEvent::build("close", 3, vec![], i));
/// }
/// let stats = rec.stats();
/// assert_eq!(stats.recorded, 3);
/// assert_eq!(stats.dropped, 1);
/// assert_eq!(rec.take().len(), 2);
/// ```
#[derive(Debug)]
pub struct Recorder {
    buffer: Mutex<VecDeque<TraceEvent>>,
    capacity: Option<usize>,
    enabled: AtomicBool,
    seq: AtomicU64,
    clock_ns: AtomicU64,
    dropped: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An unbounded recorder.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            buffer: Mutex::new(VecDeque::new()),
            capacity: None,
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            clock_ns: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// A ring-buffered recorder keeping at most `capacity` events
    /// (oldest events are overwritten and counted as dropped).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            buffer: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity: Some(capacity),
            ..Recorder::new()
        }
    }

    /// Pauses or resumes recording. Events arriving while paused are
    /// silently ignored (not counted as drops), like a stopped LTTng
    /// session.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the recorder currently accepts events.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records an event, stamping `seq`, `timestamp_ns`, and leaving `pid`
    /// as provided by the caller.
    pub fn record(&self, mut event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // Logical clock: 1 µs per event keeps timestamps strictly
        // increasing and human-scaled without being wall-clock dependent.
        event.timestamp_ns = self.clock_ns.fetch_add(1_000, Ordering::Relaxed);
        let mut buf = self.buffer.lock();
        if let Some(cap) = self.capacity {
            if buf.len() >= cap && cap > 0 {
                buf.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            if cap == 0 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        buf.push_back(event);
    }

    /// Number of currently buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buffer.lock().len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buffer.lock().is_empty()
    }

    /// Session statistics (total recorded and dropped).
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            recorded: self.seq.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Drains the buffer into a [`Trace`], leaving the recorder running
    /// (sequence numbers keep increasing across takes). The buffer is
    /// handed over whole, not copied, and replaced by one of the same
    /// size, so the next fill does not regrow it.
    #[must_use]
    pub fn take(&self) -> Trace {
        let mut buf = self.buffer.lock();
        let refill = VecDeque::with_capacity(buf.len());
        Trace::from_events(Vec::from(std::mem::replace(&mut *buf, refill)))
    }

    /// Copies the current buffer contents without draining.
    #[must_use]
    pub fn peek(&self) -> Trace {
        let buf = self.buffer.lock();
        Trace::from_events(buf.iter().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArgValue;

    fn ev(retval: i64) -> TraceEvent {
        TraceEvent::build("read", 0, vec![ArgValue::Fd(3)], retval)
    }

    #[test]
    fn record_stamps_monotonic_identity() {
        let rec = Recorder::new();
        rec.record(ev(1));
        rec.record(ev(2));
        let t = rec.take();
        assert_eq!(t.events()[0].seq, 0);
        assert_eq!(t.events()[1].seq, 1);
        assert!(t.events()[0].timestamp_ns < t.events()[1].timestamp_ns);
    }

    #[test]
    fn disabled_recorder_ignores_events() {
        let rec = Recorder::new();
        rec.set_enabled(false);
        assert!(!rec.is_enabled());
        rec.record(ev(0));
        assert!(rec.is_empty());
        assert_eq!(rec.stats().recorded, 0);
        rec.set_enabled(true);
        rec.record(ev(0));
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let rec = Recorder::with_capacity(3);
        for i in 0..5 {
            rec.record(ev(i));
        }
        let t = rec.take();
        assert_eq!(t.len(), 3);
        let retvals: Vec<i64> = t.iter().map(|e| e.retval).collect();
        assert_eq!(retvals, [2, 3, 4]);
        assert_eq!(rec.stats().dropped, 2);
        assert_eq!(rec.stats().recorded, 5);
    }

    #[test]
    fn ring_buffer_keeps_its_bound_across_takes() {
        let rec = Recorder::with_capacity(3);
        for i in 0..5 {
            rec.record(ev(i));
        }
        let first: Vec<i64> = rec.take().iter().map(|e| e.retval).collect();
        assert_eq!(first, [2, 3, 4]);
        for i in 5..12 {
            rec.record(ev(i));
        }
        assert_eq!(rec.len(), 3);
        let second = rec.take();
        let retvals: Vec<i64> = second.iter().map(|e| e.retval).collect();
        assert_eq!(retvals, [9, 10, 11]);
        let seqs: Vec<u64> = second.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [9, 10, 11]);
        assert_eq!(
            rec.stats(),
            RecorderStats {
                recorded: 12,
                dropped: 6
            }
        );
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let rec = Recorder::with_capacity(0);
        rec.record(ev(0));
        assert!(rec.is_empty());
        assert_eq!(rec.stats().dropped, 1);
    }

    #[test]
    fn take_drains_but_keeps_sequencing() {
        let rec = Recorder::new();
        rec.record(ev(0));
        let first = rec.take();
        assert_eq!(first.len(), 1);
        assert!(rec.is_empty());
        rec.record(ev(0));
        let second = rec.take();
        assert_eq!(second.events()[0].seq, 1);
    }

    #[test]
    fn peek_does_not_drain() {
        let rec = Recorder::new();
        rec.record(ev(0));
        assert_eq!(rec.peek().len(), 1);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing_when_unbounded() {
        let rec = std::sync::Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    rec.record(ev(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.len(), 2000);
        let t = rec.take();
        let mut seqs: Vec<u64> = t.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 2000, "sequence numbers must be unique");
    }
}
