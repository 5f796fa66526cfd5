//! Resident analysis sessions and the batch driver that feeds them.
//!
//! * [`AnalysisSession`] is the resident half — the shard supervisor,
//!   metrics, and checkpoint cursor, with no opinion about where events
//!   come from. Callers [`feed`](AnalysisSession::feed) it batches at
//!   their own pace, take merged [`snapshot`](AnalysisSession::snapshot)s
//!   mid-stream, [`checkpoint`](AnalysisSession::checkpoint) it at a
//!   source position, and [`finish`](AnalysisSession::finish) it for the
//!   final report plus failure manifest. A resident coverage oracle
//!   (many generators querying one long-lived analysis, `iocov serve`'s
//!   concurrent trace streams) plugs in here.
//! * [`Driver`] is the thin batch half — the pull loop over any
//!   [`EventSource`] (chunking, checkpoint-boundary capping, stop-after,
//!   lossy skip accounting). Every batch path routes through it.
//!
//! Sessions come from [`PipelineBuilder`](crate::pipeline::PipelineBuilder):
//! `build_session` for a session, `build` for a driver over one. The
//! supervisor behind a session always analyzes on its supervised shard
//! thread; the builder picks the restart policy.

use std::collections::BTreeMap;
use std::sync::Arc;

use iocov_trace::{EventBatch, EventSource, SourcePos, TraceEvent};

use crate::checkpoint::{write_checkpoint, CheckpointDoc, PidStateSnapshot};
use crate::coverage::AnalysisReport;
use crate::metrics::{MetricsSnapshot, PipelineMetrics, ShardFailureRecord};
use crate::parallel::ShardSupervisor;
use crate::pipeline::{CheckpointHook, CheckpointPolicy, PipelineError, PipelineRun};

/// A resident analysis: accepts event batches incrementally and yields
/// cumulative reports on demand. Holds the shard supervisor, the
/// metrics it counts into (its own, or shared through
/// [`PipelineBuilder::metrics`](crate::PipelineBuilder::metrics)), the
/// checkpoint policy, and the session's event cursor; the caller owns
/// pacing and event provenance.
pub struct AnalysisSession {
    pub(crate) shard: ShardSupervisor,
    pub(crate) mount: Option<String>,
    pub(crate) metrics: Arc<PipelineMetrics>,
    pub(crate) checkpoint: Option<CheckpointPolicy>,
    /// Events fed so far, counted from the start of the trace (a
    /// resumed session starts at the checkpoint's count).
    pub(crate) events: u64,
}

impl AnalysisSession {
    /// Feeds one columnar batch. Batch-shape counters are recorded here
    /// — once, on the single entry point every feed path funnels
    /// through — and never on the shard, so a restarted shard cannot
    /// count a batch twice.
    pub fn feed(&mut self, batch: EventBatch) {
        self.metrics
            .record_batch(batch.len() as u64, batch.estimated_owned_allocs());
        self.events += batch.len() as u64;
        self.shard.push(batch);
    }

    /// Feeds one owned chunk of in-memory events, packing it into a
    /// columnar batch in one pass that frees each event once packed.
    pub fn feed_owned(&mut self, events: Vec<TraceEvent>) {
        self.feed(EventBatch::from(events));
    }

    /// Events fed so far (from the start of the trace for a resumed
    /// session).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Re-bases the event cursor (the driver syncs it to the source's
    /// position before pulling).
    pub(crate) fn set_events(&mut self, events: u64) {
        self.events = events;
    }

    /// The cumulative report over everything fed so far. The session
    /// stays live; subsequent feeds continue seamlessly.
    #[must_use]
    pub fn snapshot(&mut self) -> AnalysisReport {
        self.cut().0
    }

    /// A checkpoint cut: the cumulative report and per-pid relevance
    /// states over everything fed so far.
    #[must_use]
    pub fn cut(&mut self) -> (AnalysisReport, BTreeMap<u32, PidStateSnapshot>) {
        self.shard.cut()
    }

    /// Assembles a complete checkpoint document for the session's state
    /// at source position `pos`. Its metrics are the session's plus
    /// the cut's funnel, which the session's metrics receive only at
    /// finish.
    #[must_use]
    pub fn checkpoint_doc(&mut self, pos: &SourcePos) -> CheckpointDoc {
        let (report, pid_states) = self.cut();
        let mut metrics = self.metrics.snapshot();
        metrics.merge(&self.shard.funnel());
        CheckpointDoc {
            mount: self.mount.clone(),
            cursor: pos.state.clone(),
            pid_states,
            report,
            metrics,
            format: pos.format,
        }
    }

    /// Cuts the session and persists a checkpoint at `pos` to the
    /// configured policy path, returning the document written. No-op
    /// (`None`) without a checkpoint policy.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Checkpoint`] when the write fails.
    pub fn checkpoint(&mut self, pos: &SourcePos) -> Result<Option<CheckpointDoc>, PipelineError> {
        let Some(path) = self.checkpoint.as_ref().map(|ck| ck.path.clone()) else {
            return Ok(None);
        };
        let doc = self.checkpoint_doc(pos);
        write_checkpoint(&path, &doc).map_err(|error| PipelineError::Checkpoint { path, error })?;
        Ok(Some(doc))
    }

    /// The checkpoint cadence policy, if any.
    #[must_use]
    pub fn checkpoint_policy(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }

    /// Accounts lossy parse skips to the session's metrics (the source
    /// driver observes ledger growth; the session owns the counters).
    pub fn add_parse_skipped(&self, n: u64) {
        self.metrics.add_parse_skipped(n);
    }

    /// Drains the session: the final report and the shard-failure
    /// manifest (empty on a fault-free run).
    #[must_use]
    pub fn finish(self) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        self.shard.finish()
    }
}

/// The thin batch half: pulls a source to end-of-input (or a stop
/// boundary), feeding the session.
pub struct Driver {
    session: AnalysisSession,
    chunk: usize,
    stop_after: Option<u64>,
    pub(crate) on_checkpoint: Option<CheckpointHook>,
}

impl Driver {
    /// A driver over `session` with the given pull chunk size and
    /// optional stop-after-events boundary.
    #[must_use]
    pub fn new(session: AnalysisSession, chunk: usize, stop_after: Option<u64>) -> Self {
        Driver {
            session,
            chunk: chunk.max(1),
            stop_after,
            on_checkpoint: None,
        }
    }

    /// Pulls the source to end-of-input (or `stop_after`), feeding
    /// batches into the session, cutting checkpoints at every
    /// `checkpoint.every` boundary (each handed to the checkpoint hook
    /// once persisted), and accounting lossy parse skips to the metrics.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Source`] on a read/decode failure,
    /// [`PipelineError::Checkpoint`] when a checkpoint cannot be
    /// persisted.
    pub fn run(mut self, source: &mut dyn EventSource) -> Result<PipelineRun, PipelineError> {
        // The session's cursor follows the source: a resumed source
        // starts at the checkpoint's event count.
        self.session.set_events(source.position().state.events);
        let mut skips_seen = source.skip_ledger().len();
        let mut stopped = false;
        loop {
            let events = self.session.events();
            // Cap the batch so it never crosses a checkpoint or stop
            // boundary — cuts land on exact event counts, like the
            // per-event loop this replaces.
            let mut want = self.chunk;
            if let Some(ck) = self.session.checkpoint_policy() {
                let until = ck.every - (events % ck.every);
                want = want.min(usize::try_from(until).unwrap_or(usize::MAX));
            }
            if let Some(stop) = self.stop_after {
                let until = stop.saturating_sub(events).max(1);
                want = want.min(usize::try_from(until).unwrap_or(usize::MAX));
            }
            let batch = source.next_batch(want).map_err(PipelineError::Source)?;
            // Count lossy skips before the EOF check: trailing garbage
            // after the last event surfaces as ledger growth on the
            // final (possibly empty) pull.
            let skips = source.skip_ledger().len();
            if skips > skips_seen {
                self.session.add_parse_skipped((skips - skips_seen) as u64);
                skips_seen = skips;
            }
            if batch.is_empty() {
                break;
            }
            self.session.feed(batch);
            let events = self.session.events();
            if let Some(every) = self.session.checkpoint_policy().map(|ck| ck.every) {
                if events.is_multiple_of(every) {
                    let doc = self.session.checkpoint(&source.position())?;
                    if let (Some(hook), Some(doc)) = (&mut self.on_checkpoint, doc) {
                        hook(doc);
                    }
                }
            }
            if self.stop_after.is_some_and(|k| events >= k) {
                stopped = true;
                break;
            }
        }
        let skipped = source.skip_ledger().to_vec();
        let events = self.session.events();
        if stopped {
            // Simulated kill: no report, no checkpoint beyond the last
            // periodic one — exactly what a real kill leaves behind.
            return Ok(PipelineRun {
                report: AnalysisReport::default(),
                failures: Vec::new(),
                metrics: MetricsSnapshot::default(),
                skipped,
                events,
                stopped,
            });
        }
        let metrics = Arc::clone(&self.session.metrics);
        let (report, failures) = self.session.finish();
        Ok(PipelineRun {
            report,
            failures,
            metrics: metrics.snapshot(),
            skipped,
            events,
            stopped,
        })
    }
}
