//! In-process syscall trace recording — the LTTng substitute.
//!
//! The IOCov paper traces file-system testers with LTTng, a low-overhead
//! kernel tracing framework, and feeds the recorded syscalls (names,
//! arguments, return values) to the IOCov analyzer. In this reproduction
//! the "kernel" is the in-memory [`iocov-vfs`] file system, so tracing is
//! in-process: the syscall layer emits one [`TraceEvent`] per call into a
//! shared [`Recorder`].
//!
//! The recorder preserves the properties of the real pipeline that matter
//! to IOCov:
//!
//! * it sees **every** syscall, including tester-internal noise aimed at
//!   paths outside the test mount point (the analyzer's trace filter must
//!   do real work);
//! * events carry raw argument values (flags words, byte counts, offsets)
//!   plus decoded path strings, exactly the information LTTng's syscall
//!   tracepoints provide;
//! * traces serialize to JSON Lines for offline analysis and diffing.
//!
//! [`iocov-vfs`]: https://docs.rs/iocov-vfs
//!
//! # Examples
//!
//! ```
//! use iocov_trace::{ArgValue, Recorder, TraceEvent};
//!
//! let recorder = Recorder::new();
//! recorder.record(TraceEvent::build(
//!     "open",
//!     2,
//!     vec![ArgValue::Path("/mnt/test/f".into()), ArgValue::Flags(0o100), ArgValue::Mode(0o644)],
//!     3,
//! ));
//! let trace = recorder.take();
//! assert_eq!(trace.len(), 1);
//! assert_eq!(trace.events()[0].name, "open");
//! ```

pub mod batch;
pub mod binary;
pub mod cursor;
mod event;
pub mod intern;
pub mod lossy;
mod recorder;
pub mod retry;
mod serial;
pub mod source;

pub use batch::{ArgView, EventBatch, EventRef, EventView};
pub use binary::{
    is_iotb, read_iotb, write_iotb, write_iotb_indexed, IotbCursor, DEFAULT_BLOCK_EVENTS,
    IOTB_INDEX_FOOTER_MAGIC, IOTB_MAGIC, IOTB_VERSION, IOTB_VERSION_INDEXED,
};
pub use cursor::{CursorState, JsonlCursor};
pub use event::{ArgValue, TraceEvent};
pub use intern::{StrInterner, Sym};
pub use lossy::{ErrorClass, ErrorPolicy, ReadOptions, SkippedLine};
pub use recorder::{Recorder, RecorderStats};
pub use retry::{is_transient, RetryPolicy, RetryRead};
pub use serial::{read_jsonl, write_jsonl, TraceIoError};
pub use source::{
    open_reader, open_source, sniff_format, unseekable_kind, EventSource, IotbSource, JsonlSource,
    ReaderWrap, SourceError, SourceFormat, SourceOptions, SourcePos,
};

use serde::{Deserialize, Serialize};

/// An ordered collection of trace events, as produced by one recording
/// session.
///
/// `Trace` is a thin container; all coverage analysis lives in the `iocov`
/// core crate. It provides only the generic conveniences a trace transport
/// should: length, iteration, concatenation, and serialization.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Wraps a vector of events.
    #[must_use]
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        Trace { events }
    }

    /// The recorded events in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends all events of `other` to `self`.
    pub fn extend(&mut self, other: Trace) {
        self.events.extend(other.events);
    }

    /// Adds one event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Iterates over events.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Consumes the trace, yielding its events.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl IntoIterator for Trace {
    type Item = TraceEvent;
    type IntoIter = std::vec::IntoIter<TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str) -> TraceEvent {
        TraceEvent::build(name, 0, vec![], 0)
    }

    #[test]
    fn trace_push_len_iter() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(ev("open"));
        t.push(ev("close"));
        assert_eq!(t.len(), 2);
        let names: Vec<_> = t.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["open", "close"]);
    }

    #[test]
    fn trace_extend_concatenates_in_order() {
        let mut a = Trace::from_events(vec![ev("a")]);
        let b = Trace::from_events(vec![ev("b"), ev("c")]);
        a.extend(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.events()[2].name, "c");
    }

    #[test]
    fn trace_collect_and_into_iter() {
        let t: Trace = vec![ev("x"), ev("y")].into_iter().collect();
        let names: Vec<String> = t.into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["x", "y"]);
    }

    #[test]
    fn trace_ref_into_iter() {
        let t = Trace::from_events(vec![ev("x")]);
        let mut n = 0;
        for e in &t {
            assert_eq!(e.name, "x");
            n += 1;
        }
        assert_eq!(n, 1);
    }

    #[test]
    fn extend_trait_appends_events() {
        let mut t = Trace::new();
        Extend::extend(&mut t, vec![ev("p"), ev("q")]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.into_events().len(), 2);
    }
}
