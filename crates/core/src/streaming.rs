//! The per-event analysis step: filter, variant merge, partition and
//! count, one event at a time.
//!
//! [`StreamingAnalyzer::push`] is the only loop that applies the
//! relevance rules and accumulates coverage. [`Iocov::analyze`] drives
//! it over a whole in-memory trace; sessions drive it over decoded
//! batches on their shard thread. A paper-scale suite produces
//! millions of events, and holding the whole trace before analysis
//! costs gigabytes, so the analyzer consumes events incrementally —
//! keeping the descriptor-provenance state *across* chunks, so a
//! descriptor opened in one chunk is still attributed correctly when
//! used in the next (a fresh analysis per chunk would lose it).
//!
//! [`Iocov::analyze`]: crate::Iocov::analyze

use std::collections::BTreeMap;

use iocov_trace::{EventBatch, EventView, TraceEvent};

use crate::coverage::{AnalysisReport, ReportBuilder};
use crate::filter::TraceFilter;
use crate::metrics::PipelineMetrics;
use crate::relevance::{self, CallKind, PidStates};
use crate::PidStateSnapshot;

/// An incremental coverage analyzer.
///
/// ```
/// use iocov::{StreamingAnalyzer, TraceFilter};
/// use iocov_trace::{ArgValue, TraceEvent};
///
/// let mut analyzer = StreamingAnalyzer::new(TraceFilter::mount_point("/mnt/test").unwrap());
/// analyzer.push(&TraceEvent::build(
///     "open",
///     2,
///     vec![ArgValue::Path("/mnt/test/f".into()), ArgValue::Flags(0), ArgValue::Mode(0)],
///     3,
/// ));
/// // …push millions more, then:
/// let report = analyzer.finish();
/// assert_eq!(report.total_calls(), 1);
/// ```
///
/// A clone carries the relevance states and counts so far and continues
/// independently of the original; attached metrics stay shared.
#[derive(Debug, Clone)]
pub struct StreamingAnalyzer {
    filter: TraceFilter,
    states: PidStates,
    builder: ReportBuilder,
    metrics: Option<std::sync::Arc<PipelineMetrics>>,
    /// The scanned batch's name table, resolved; reused across batches.
    calls: Vec<CallKind>,
}

impl StreamingAnalyzer {
    /// Creates a streaming analyzer with a filter.
    #[must_use]
    pub fn new(filter: TraceFilter) -> Self {
        StreamingAnalyzer {
            filter,
            states: PidStates::default(),
            builder: ReportBuilder::default(),
            metrics: None,
            calls: Vec::new(),
        }
    }

    /// An unfiltered streaming analyzer.
    #[must_use]
    pub fn unfiltered() -> Self {
        StreamingAnalyzer::new(TraceFilter::keep_all())
    }

    /// Also counts identifier and flag-combination coverage (see
    /// [`PipelineBuilder::extended_coverage`](crate::PipelineBuilder::extended_coverage)).
    pub(crate) fn extended_coverage(mut self) -> Self {
        self.builder.identifiers = Some(Default::default());
        self.builder.open_flags = Some(Default::default());
        self
    }

    /// Attaches shared pipeline metrics; every pushed event updates the
    /// counters. Shards of a parallel run share one instance — the
    /// counters are atomic, so the totals equal a serial run's.
    #[must_use]
    pub fn with_metrics(mut self, metrics: std::sync::Arc<PipelineMetrics>) -> Self {
        self.set_metrics(metrics);
        self
    }

    /// Replaces the attached metrics (a clone that must count apart from
    /// its original gets its own instance here).
    pub(crate) fn set_metrics(&mut self, metrics: std::sync::Arc<PipelineMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Consumes one event; returns whether it was kept.
    ///
    /// Generic over [`EventView`], so owned [`TraceEvent`]s and borrowed
    /// [`EventRef`](iocov_trace::EventRef) batch rows take the exact
    /// same keep/drop and partition path.
    pub fn push<E: EventView + ?Sized>(&mut self, event: &E) -> bool {
        self.push_as(event, &CallKind::resolve(event.name()))
    }

    /// Consumes every row of `batch`, in order, resolving the batch's
    /// name table once instead of each row's name.
    pub(crate) fn push_batch(&mut self, batch: &EventBatch) {
        let mut calls = std::mem::take(&mut self.calls);
        calls.clear();
        calls.extend(batch.names().iter().map(|name| CallKind::resolve(name)));
        for event in batch.iter() {
            self.push_as(&event, &calls[event.name_id() as usize]);
        }
        self.calls = calls;
    }

    /// [`push`](Self::push) for an event whose name resolved to `call`.
    /// The row's arguments are located once and read from that view by
    /// every step.
    fn push_as<E: EventView + ?Sized>(&mut self, event: &E, call: &CallKind) -> bool {
        self.builder.filter_stats.total += 1;
        let metrics = self.metrics.as_deref();
        if let Some(m) = metrics {
            m.add_events_read(1);
        }
        let args = event.args();
        let dropped = if self.filter.is_keep_all() {
            None
        } else {
            let state = self.states.get(event.pid());
            let dropped = relevance::event_drop_reason(&self.filter, state, args);
            relevance::update_state(state, args, event.retval(), call.role, dropped.is_none());
            dropped
        };
        match dropped {
            None => {
                self.builder.filter_stats.kept += 1;
                self.builder.accumulate(event, args, call, metrics);
                true
            }
            Some(reason) => {
                self.builder.filter_stats.dropped += 1;
                if let Some(m) = metrics {
                    m.record_drop(reason);
                }
                false
            }
        }
    }

    /// Consumes a batch of events.
    pub fn push_all<'a>(&mut self, events: impl IntoIterator<Item = &'a TraceEvent>) {
        for event in events {
            self.push(event);
        }
    }

    /// Finishes the stream and returns the report.
    #[must_use]
    pub fn finish(self) -> AnalysisReport {
        self.builder.materialize()
    }

    /// Serializable snapshots of every per-pid relevance state, for
    /// checkpointing. Paired with the materialized [`report`](Self::report)
    /// and the input cursor, this is everything a resumed analysis needs.
    #[must_use]
    pub fn pid_states(&self) -> BTreeMap<u32, PidStateSnapshot> {
        self.states.snapshots()
    }

    /// Restores per-pid relevance states from a checkpoint, replacing
    /// any current states. Call on a fresh analyzer before pushing the
    /// events after the checkpoint's cursor.
    pub fn restore_pid_states(&mut self, states: &BTreeMap<u32, PidStateSnapshot>) {
        self.states = PidStates::restore(states);
    }

    /// A snapshot of the report so far (the stream may continue).
    ///
    /// Accumulation counts into dense slots internally, so this
    /// materializes the string-keyed report on each call — cheap next to any real stream,
    /// but callers should hold the result rather than re-calling in a
    /// loop.
    #[must_use]
    pub fn report(&self) -> AnalysisReport {
        self.builder.materialize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArgName, Iocov};
    use iocov_trace::{ArgValue, Trace};

    fn open_ev(path: &str, fd: i64) -> TraceEvent {
        TraceEvent::build(
            "open",
            2,
            vec![
                ArgValue::Path(path.into()),
                ArgValue::Flags(0),
                ArgValue::Mode(0),
            ],
            fd,
        )
    }

    fn write_ev(fd: i32, count: u64) -> TraceEvent {
        TraceEvent::build(
            "write",
            1,
            vec![ArgValue::Fd(fd), ArgValue::Ptr(1), ArgValue::UInt(count)],
            count as i64,
        )
    }

    #[test]
    fn streaming_matches_batch_analysis() {
        let events = vec![
            open_ev("/mnt/test/a", 3),
            write_ev(3, 512),
            open_ev("/etc/noise", 4),
            write_ev(4, 100),
            TraceEvent::build("close", 3, vec![ArgValue::Fd(3)], 0),
        ];
        let trace = Trace::from_events(events.clone());
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let batch = Iocov::with_filter(filter.clone()).analyze(&trace);
        let mut streaming = StreamingAnalyzer::new(filter);
        streaming.push_all(&events);
        let report = streaming.finish();
        assert_eq!(batch, report);
    }

    #[test]
    fn fd_state_survives_chunk_boundaries() {
        // The whole point: a descriptor opened in chunk 1, used in
        // chunk 2.
        let chunk1 = vec![open_ev("/mnt/test/a", 3)];
        let chunk2 = vec![write_ev(3, 4096)];
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();

        // Per-chunk batch analysis loses the attribution…
        let mut per_chunk =
            Iocov::with_filter(filter.clone()).analyze(&Trace::from_events(chunk1.clone()));
        per_chunk.merge(
            &Iocov::with_filter(filter.clone()).analyze(&Trace::from_events(chunk2.clone())),
        );
        assert_eq!(per_chunk.input_coverage(ArgName::WriteCount).calls, 0);

        // …the streaming analyzer keeps it.
        let mut streaming = StreamingAnalyzer::new(filter);
        streaming.push_all(&chunk1);
        streaming.push_all(&chunk2);
        let report = streaming.finish();
        assert_eq!(report.input_coverage(ArgName::WriteCount).calls, 1);
    }

    #[test]
    fn dup_provenance_survives_chunk_boundaries() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let mut streaming = StreamingAnalyzer::new(filter);
        streaming.push_all(&[open_ev("/mnt/test/a", 3)]);
        streaming.push_all(&[TraceEvent::build(
            "dup2",
            33,
            vec![ArgValue::Fd(3), ArgValue::Fd(9)],
            9,
        )]);
        streaming.push_all(&[write_ev(9, 64)]);
        let report = streaming.finish();
        assert_eq!(report.input_coverage(ArgName::WriteCount).calls, 1);
    }

    #[test]
    fn unfiltered_keeps_unattributed_fd_events() {
        let mut streaming = StreamingAnalyzer::unfiltered();
        assert!(streaming.push(&write_ev(42, 8)));
        let report = streaming.finish();
        assert_eq!(report.input_coverage(ArgName::WriteCount).calls, 1);
    }

    #[test]
    fn interim_report_is_available() {
        let mut streaming = StreamingAnalyzer::unfiltered();
        streaming.push(&open_ev("/a", 3));
        assert_eq!(streaming.report().total_calls(), 1);
        streaming.push(&write_ev(3, 16));
        assert_eq!(streaming.report().total_calls(), 2);
    }

    #[test]
    fn stats_count_kept_and_dropped() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let mut streaming = StreamingAnalyzer::new(filter);
        assert!(streaming.push(&open_ev("/mnt/test/x", 3)));
        assert!(!streaming.push(&open_ev("/var/y", 4)));
        let report = streaming.finish();
        assert_eq!(report.filter_stats.total, 2);
        assert_eq!(report.filter_stats.kept, 1);
        assert_eq!(report.filter_stats.dropped, 1);
    }
}
