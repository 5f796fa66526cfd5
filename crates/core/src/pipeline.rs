//! The unified analysis pipeline: one builder, every execution shape.
//!
//! Four PRs of growth forked the paper's single §3 pipeline into a
//! matrix of hand-wired paths — strict vs. lossy decode, JSONL vs.
//! `.iotb`, serial vs. pooled, batch vs. checkpointed — each duplicated
//! at its call sites. This module collapses the matrix into two
//! orthogonal stages:
//!
//! ```text
//!   EventSource (iocov_trace::source)         Executor (this module)
//!  ┌───────────────────────────────┐   ┌─────────────────────────────┐
//!  │ open_source(path, options)    │   │ SerialExecutor              │
//!  │   ├─ JsonlSource (strict/lossy│   │   supervised in-thread scan │
//!  │   │   via ReadOptions)        │──▶│ PoolExecutor                │
//!  │   ├─ IotbSource  (strict/lossy│   │   pid-sharded worker pool   │
//!  │   │   via ReadOptions)        │   │   (ParallelStreamingAnalyzer│
//!  │   └─ IotbBlockSource (v2 only;│   │    + rotation at checkpoint │
//!  │       parallel block decode)  │   │    cuts)                    │
//!  │ next_batch / position /       │   │                             │
//!  │ skip_ledger                   │   │                             │
//!  └───────────────────────────────┘   └─────────────────────────────┘
//!                   │                                 │
//!                   └───────── Pipeline::run ─────────┘
//!                     (chunking, checkpoint cuts, stop-after,
//!                      parse-skip metrics, resume seeding)
//! ```
//!
//! A [`Pipeline`] is built from a [`PipelineBuilder`] and pulls batches
//! from any [`EventSource`], so every flag combination — any source ×
//! any worker count × checkpointing × metrics — runs the same loop.
//! The non-negotiable invariant, inherited from the analyzers
//! underneath: the serialized report is **byte-identical** across every
//! cell of that matrix to a plain serial run over the same events.
//!
//! Parallelism therefore layers at *two* independent stages. Upstream,
//! a block-indexed `.iotb` v2 container opened with
//! `SourceOptions::decode_jobs > 1` decodes blocks on worker threads
//! inside `IotbBlockSource`, but reassembles them in file order before
//! `next_batch` returns — so to this module it is indistinguishable
//! from a serial source. Downstream, [`PoolExecutor`] shards the
//! decoded events by pid. Byte-identity composes because each stage
//! preserves event order at its boundary; no cell of the matrix (any
//! decode-jobs × any analysis-jobs) can perturb the report.
//!
//! # Checkpoint cuts
//!
//! [`Executor::cut`] returns the *cumulative* `(report, pid states)`
//! pair a [`CheckpointDoc`] needs. The serial executor rotates its
//! incarnation (finish, merge into the running base, restart from the
//! captured states — the exact resume invariant the checkpoint tests
//! prove); the pool executor drains the worker pool the same way and
//! seeds its successor with
//! [`ParallelStreamingAnalyzer::with_base_states`]. Rotation is also
//! what makes resume seeding free: a resumed run is just a pipeline
//! whose executor starts from the checkpoint's `(report, states)`
//! instead of empty ones.

use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use iocov_trace::{EventBatch, EventSource, SkippedLine, TraceEvent, TraceIoError};

use crate::checkpoint::{CheckpointDoc, PidStateSnapshot};
use crate::coverage::AnalysisReport;
use crate::filter::TraceFilter;
use crate::metrics::{PipelineMetrics, ShardFailureRecord};
use crate::parallel::{
    panic_message, ParallelStreamingAnalyzer, ShardError, ShardHook, SupervisedScanGuard,
    SupervisorPolicy,
};
use crate::session::{AnalysisSession, Driver};
use crate::streaming::StreamingAnalyzer;

/// Default batch size pulled from the source per executor push.
pub const DEFAULT_CHUNK: usize = 4096;

/// An execution strategy for the analysis stage: consumes columnar
/// event batches, yields cumulative state at checkpoint cuts, and
/// produces the final report plus a shard-failure manifest.
///
/// Both implementations are *supervised*: a panicking scan is replayed
/// from retained batches per [`SupervisorPolicy`], and exhausting the
/// restart budget degrades to a partial report instead of aborting.
pub trait Executor {
    /// Feeds one owned columnar batch of events.
    fn push(&mut self, batch: EventBatch);

    /// A checkpoint cut: the cumulative report and per-pid relevance
    /// states over everything pushed so far. The executor may rotate
    /// internal state; subsequent pushes continue seamlessly.
    fn cut(&mut self) -> (AnalysisReport, BTreeMap<u32, PidStateSnapshot>);

    /// Drains the executor, returning the final report and the
    /// shard-failure manifest (empty on a fault-free run).
    fn finish(self: Box<Self>) -> (AnalysisReport, Vec<ShardFailureRecord>);
}

/// In-thread supervised execution — the `--jobs 1` path, with the same
/// restart-on-panic semantics as a one-worker pool but zero thread or
/// channel overhead (it IS a [`StreamingAnalyzer`] scan wrapped in
/// `catch_unwind` + batch replay).
pub struct SerialExecutor {
    filter: TraceFilter,
    metrics: Option<Arc<PipelineMetrics>>,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
    /// Current incarnation; `None` before the first push, after a
    /// panic (until the replay respawns it), and once `gave_up`.
    analyzer: Option<StreamingAnalyzer>,
    /// The incarnation's private metrics, absorbed into the shared
    /// instance only on clean completion (cut or finish) — exactly-once
    /// across restarts, like the pool.
    local: Option<Arc<PipelineMetrics>>,
    /// Batches fed since the last cut, retained (`Arc`-shared) as the
    /// replay log for restarts.
    log: Vec<Arc<EventBatch>>,
    /// Log batches the current incarnation has consumed.
    seen: usize,
    /// Reports merged out of previous cuts (and a resumed checkpoint).
    base_report: AnalysisReport,
    /// Cumulative pid states at the last cut (or resume), the seed for
    /// every incarnation.
    base_states: BTreeMap<u32, PidStateSnapshot>,
    restarts: u32,
    gave_up: bool,
    last_error: Option<String>,
}

impl SerialExecutor {
    /// A serial executor; `resume` seeds the cumulative report and pid
    /// states from a checkpoint.
    #[must_use]
    pub fn new(
        filter: TraceFilter,
        metrics: Option<Arc<PipelineMetrics>>,
        policy: SupervisorPolicy,
        hook: Option<ShardHook>,
        resume: Option<(AnalysisReport, BTreeMap<u32, PidStateSnapshot>)>,
    ) -> Self {
        let (base_report, base_states) = resume.unwrap_or_default();
        SerialExecutor {
            filter,
            metrics,
            policy,
            hook,
            analyzer: None,
            local: None,
            log: Vec::new(),
            seen: 0,
            base_report,
            base_states,
            restarts: 0,
            gave_up: false,
            last_error: None,
        }
    }

    /// Spawns a fresh incarnation seeded with the base states.
    fn incarnate(&mut self) {
        let local = self
            .metrics
            .as_ref()
            .map(|_| Arc::new(PipelineMetrics::default()));
        let mut analyzer = StreamingAnalyzer::new(self.filter.clone());
        if let Some(m) = &local {
            analyzer = analyzer.with_metrics(Arc::clone(m));
        }
        analyzer.restore_pid_states(&self.base_states);
        self.analyzer = Some(analyzer);
        self.local = local;
        self.seen = 0;
    }

    /// Drives the current incarnation through every unconsumed log
    /// batch, restarting (fresh incarnation, full replay) on panic up
    /// to the policy's budget.
    fn drive(&mut self) {
        while !self.gave_up && (self.seen < self.log.len() || self.analyzer.is_none()) {
            if self.analyzer.is_none() {
                self.incarnate();
                continue;
            }
            let idx = self.seen;
            let Some(batch) = self.log.get(idx).map(Arc::clone) else {
                return;
            };
            let mut analyzer = self.analyzer.take().expect("incarnation exists");
            let hook = self.hook.clone();
            let local = self.local.clone();
            let tick = idx as u64;
            let result = catch_unwind(AssertUnwindSafe(move || {
                let _supervised = SupervisedScanGuard::enter();
                let _timer = local.as_deref().map(|m| m.time_stage("analyze"));
                if let Some(hook) = &hook {
                    hook(0, tick);
                }
                for event in batch.iter() {
                    analyzer.push(&event);
                }
                analyzer
            }));
            match result {
                Ok(analyzer) => {
                    self.analyzer = Some(analyzer);
                    self.seen = idx + 1;
                }
                Err(payload) => {
                    self.last_error =
                        Some(ShardError::Panicked(panic_message(payload.as_ref())).to_string());
                    // The panic poisoned the incarnation mid-batch; its
                    // half-counted private metrics die with it.
                    self.local = None;
                    if self.restarts >= self.policy.max_restarts {
                        self.gave_up = true;
                        return;
                    }
                    self.restarts += 1;
                    if let Some(metrics) = &self.metrics {
                        metrics.record_shard_restart();
                    }
                    std::thread::sleep(self.policy.backoff(self.restarts));
                }
            }
        }
    }

    /// Completes the current incarnation: merges its report into the
    /// base, captures its pid states, absorbs its private metrics, and
    /// clears the replay log.
    fn rotate(&mut self) {
        self.drive();
        if let Some(analyzer) = self.analyzer.take() {
            self.base_states = analyzer.pid_states();
            self.base_report.merge(&analyzer.finish());
            if let (Some(shared), Some(local)) = (&self.metrics, self.local.take()) {
                shared.absorb(&local.snapshot());
                shared.absorb_stage_timings(&local.stage_timings());
            }
        }
        self.log.clear();
        self.seen = 0;
    }

    fn manifest(&self) -> Vec<ShardFailureRecord> {
        if self.restarts > 0 || self.gave_up {
            vec![ShardFailureRecord {
                shard: 0,
                restarts: self.restarts,
                gave_up: self.gave_up,
                last_error: self.last_error.clone().unwrap_or_default(),
            }]
        } else {
            Vec::new()
        }
    }
}

impl Executor for SerialExecutor {
    fn push(&mut self, batch: EventBatch) {
        if self.gave_up {
            return;
        }
        self.log.push(Arc::new(batch));
        self.drive();
    }

    fn cut(&mut self) -> (AnalysisReport, BTreeMap<u32, PidStateSnapshot>) {
        self.rotate();
        (self.base_report.clone(), self.base_states.clone())
    }

    fn finish(mut self: Box<Self>) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        self.rotate();
        let failures = self.manifest();
        if let Some(metrics) = &self.metrics {
            for failure in &failures {
                metrics.record_shard_failure(failure.clone());
            }
        }
        (self.base_report, failures)
    }
}

/// Pool execution over the supervised pid-sharded worker pool. A
/// checkpoint cut drains the live pool (absorbing its counters and
/// collecting its per-shard pid states) and lazily spawns a successor
/// seeded with those states — the pool analogue of the serial
/// executor's rotation.
pub struct PoolExecutor {
    filter: TraceFilter,
    workers: usize,
    metrics: Option<Arc<PipelineMetrics>>,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
    /// Live pool; spawned lazily on the first push after construction
    /// or a cut.
    pool: Option<ParallelStreamingAnalyzer>,
    base_report: AnalysisReport,
    base_states: BTreeMap<u32, PidStateSnapshot>,
    /// Failure manifest accumulated across pool rotations, keyed by
    /// shard.
    failures: BTreeMap<usize, ShardFailureRecord>,
}

impl PoolExecutor {
    /// A pool executor; `resume` seeds the cumulative report and pid
    /// states from a checkpoint.
    #[must_use]
    pub fn new(
        filter: TraceFilter,
        workers: usize,
        metrics: Option<Arc<PipelineMetrics>>,
        policy: SupervisorPolicy,
        hook: Option<ShardHook>,
        resume: Option<(AnalysisReport, BTreeMap<u32, PidStateSnapshot>)>,
    ) -> Self {
        let (base_report, base_states) = resume.unwrap_or_default();
        PoolExecutor {
            filter,
            workers,
            metrics,
            policy,
            hook,
            pool: None,
            base_report,
            base_states,
            failures: BTreeMap::new(),
        }
    }

    fn make_pool(&self) -> ParallelStreamingAnalyzer {
        let mut pool = ParallelStreamingAnalyzer::new(self.filter.clone(), self.workers)
            .with_policy(self.policy);
        if let Some(hook) = &self.hook {
            pool = pool.with_hook(Arc::clone(hook));
        }
        if let Some(metrics) = &self.metrics {
            pool = pool.with_metrics(Arc::clone(metrics));
        }
        if !self.base_states.is_empty() {
            pool = pool.with_base_states(self.base_states.clone());
        }
        pool
    }

    /// Drains the live pool into the cumulative base, if one exists.
    fn rotate(&mut self) {
        if let Some(pool) = self.pool.take() {
            let (report, failures, states) = pool.finish_with_states();
            self.base_report.merge(&report);
            self.base_states = states;
            for f in failures {
                let entry = self
                    .failures
                    .entry(f.shard)
                    .or_insert_with(|| ShardFailureRecord {
                        shard: f.shard,
                        restarts: 0,
                        gave_up: false,
                        last_error: String::new(),
                    });
                entry.restarts += f.restarts;
                entry.gave_up |= f.gave_up;
                if !f.last_error.is_empty() {
                    entry.last_error = f.last_error;
                }
            }
        }
    }
}

impl Executor for PoolExecutor {
    fn push(&mut self, batch: EventBatch) {
        if self.pool.is_none() {
            self.pool = Some(self.make_pool());
        }
        self.pool
            .as_mut()
            .expect("pool just created")
            .push_shared(batch);
    }

    fn cut(&mut self) -> (AnalysisReport, BTreeMap<u32, PidStateSnapshot>) {
        self.rotate();
        (self.base_report.clone(), self.base_states.clone())
    }

    fn finish(mut self: Box<Self>) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        self.rotate();
        (self.base_report, self.failures.into_values().collect())
    }
}

/// When (and where) to persist resumable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Write a checkpoint every this many events.
    pub every: u64,
    /// Checkpoint file path.
    pub path: PathBuf,
}

/// Why a pipeline run failed.
#[derive(Debug)]
pub enum PipelineError {
    /// The event source failed (open, decode, or I/O).
    Source(TraceIoError),
    /// Persisting a checkpoint failed.
    Checkpoint {
        /// The checkpoint path being written.
        path: PathBuf,
        /// The underlying I/O error.
        error: io::Error,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Source(e) => write!(f, "{e}"),
            PipelineError::Checkpoint { path, error } => {
                write!(f, "cannot write checkpoint {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Source(e) => Some(e),
            PipelineError::Checkpoint { error, .. } => Some(error),
        }
    }
}

/// Outcome of a pipeline run.
#[derive(Debug)]
pub struct PipelineRun {
    /// The merged coverage report (default/empty when `stopped`).
    pub report: AnalysisReport,
    /// Shard-failure manifest (empty on a fault-free run or when
    /// `stopped`).
    pub failures: Vec<ShardFailureRecord>,
    /// The source's lossy-skip ledger, including any skips restored
    /// from a resumed checkpoint.
    pub skipped: Vec<SkippedLine>,
    /// Events consumed, counted from the start of the trace (a resumed
    /// run starts at the checkpoint's count).
    pub events: u64,
    /// Whether `stop_after` ended the run before end-of-input
    /// (simulated kill: no report is produced).
    pub stopped: bool,
}

/// Configures and builds a [`Pipeline`].
pub struct PipelineBuilder {
    filter: TraceFilter,
    mount: Option<String>,
    jobs: usize,
    chunk: usize,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
    metrics: Option<Arc<PipelineMetrics>>,
    checkpoint: Option<CheckpointPolicy>,
    resume: Option<CheckpointDoc>,
    stop_after: Option<u64>,
}

impl PipelineBuilder {
    /// A builder over `filter` with serial execution and no
    /// checkpointing.
    #[must_use]
    pub fn new(filter: TraceFilter) -> Self {
        PipelineBuilder {
            filter,
            mount: None,
            jobs: 1,
            chunk: DEFAULT_CHUNK,
            policy: SupervisorPolicy::default(),
            hook: None,
            metrics: None,
            checkpoint: None,
            resume: None,
            stop_after: None,
        }
    }

    /// Records the mount point the filter was built from, for
    /// checkpoint provenance.
    #[must_use]
    pub fn mount(mut self, mount: Option<String>) -> Self {
        self.mount = mount;
        self
    }

    /// Worker count (1 = in-thread serial execution).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Events pulled from the source per executor push.
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Supervision policy for the executor.
    #[must_use]
    pub fn policy(mut self, policy: SupervisorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Worker progress hook (fault injection).
    #[must_use]
    pub fn hook(mut self, hook: ShardHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Shared pipeline metrics.
    #[must_use]
    pub fn metrics(mut self, metrics: Arc<PipelineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Periodic checkpointing policy.
    #[must_use]
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Seeds the run from a loaded checkpoint (the caller opens the
    /// source at the matching position).
    #[must_use]
    pub fn resume(mut self, doc: CheckpointDoc) -> Self {
        self.resume = Some(doc);
        self
    }

    /// Stop (simulating a kill) after this many events.
    #[must_use]
    pub fn stop_after(mut self, events: u64) -> Self {
        self.stop_after = Some(events);
        self
    }

    /// Builds the resident session alone: routes to the serial or pool
    /// executor and seeds it (and the metrics) from any resume
    /// checkpoint. This is the entry point for callers that feed
    /// events themselves (`iocov serve`, incremental oracles); batch
    /// callers use [`build`](Self::build).
    #[must_use]
    pub fn build_session(self) -> AnalysisSession {
        let events = self.resume.as_ref().map_or(0, |doc| doc.cursor.events);
        let seed = self.resume.map(|doc| {
            // The checkpointed snapshot carries the counters for
            // everything before the cursor; live metrics continue from
            // there.
            if let Some(m) = &self.metrics {
                m.absorb(&doc.metrics);
            }
            (doc.report, doc.pid_states)
        });
        // The stall watchdog lives in the pooled pipeline, so a shard
        // timeout routes through it even at one worker.
        let executor: Box<dyn Executor> = if self.jobs > 1 || self.policy.shard_timeout.is_some() {
            Box::new(PoolExecutor::new(
                self.filter,
                self.jobs,
                self.metrics.clone(),
                self.policy,
                self.hook,
                seed,
            ))
        } else {
            Box::new(SerialExecutor::new(
                self.filter,
                self.metrics.clone(),
                self.policy,
                self.hook,
                seed,
            ))
        };
        AnalysisSession::new(executor, self.mount, self.metrics, self.checkpoint, events)
    }

    /// Builds the pipeline: a [`build_session`](Self::build_session)
    /// session paired with the batch driver's chunk and stop-after
    /// configuration.
    #[must_use]
    pub fn build(self) -> Pipeline {
        let chunk = self.chunk;
        let stop_after = self.stop_after;
        Pipeline {
            session: self.build_session(),
            chunk,
            stop_after,
        }
    }
}

/// A configured analysis pipeline: an [`AnalysisSession`] paired with
/// the batch [`Driver`]'s configuration. Drive it from an
/// [`EventSource`] with [`run`](Self::run), or push in-memory events
/// directly with [`push_owned`](Self::push_owned) +
/// [`finish`](Self::finish) (the workload/bench path).
pub struct Pipeline {
    session: AnalysisSession,
    chunk: usize,
    stop_after: Option<u64>,
}

impl Pipeline {
    /// Feeds one owned chunk of in-memory events, packing it into a
    /// columnar batch (no source, no checkpointing counters).
    pub fn push_owned(&mut self, events: Vec<TraceEvent>) {
        self.session.feed_owned(events);
    }

    /// Feeds one columnar batch directly (no source, no checkpointing
    /// counters) — the allocation-free twin of
    /// [`push_owned`](Self::push_owned).
    pub fn push_batch(&mut self, batch: EventBatch) {
        self.session.feed(batch);
    }

    /// The resident session underneath, for mid-stream cuts.
    pub fn session_mut(&mut self) -> &mut AnalysisSession {
        &mut self.session
    }

    /// Unwraps the resident session, discarding the driver
    /// configuration.
    #[must_use]
    pub fn into_session(self) -> AnalysisSession {
        self.session
    }

    /// Drains the executor: the final report and failure manifest.
    #[must_use]
    pub fn finish(self) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        self.session.finish()
    }

    /// Pulls the source to end-of-input (or `stop_after`) through the
    /// batch [`Driver`], pushing batches through the executor, cutting
    /// checkpoints at every `checkpoint.every` boundary, and accounting
    /// lossy parse skips to the metrics.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Source`] on a read/decode failure,
    /// [`PipelineError::Checkpoint`] when a checkpoint cannot be
    /// persisted.
    pub fn run(self, source: &mut dyn EventSource) -> Result<PipelineRun, PipelineError> {
        Driver::new(self.session, self.chunk, self.stop_after).run(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use iocov_trace::{ArgValue, JsonlSource, ReadOptions, Trace};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn multi_pid_trace(pids: u32, per_pid: usize) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for round in 0..per_pid {
            for pid in 0..pids {
                let fd = 3 + round as i32;
                let root = if pid % 2 == 0 { "/mnt/test" } else { "/noise" };
                let mut step = vec![
                    TraceEvent::build(
                        "open",
                        2,
                        vec![
                            ArgValue::Path(format!("{root}/f{round}")),
                            ArgValue::Flags(0o101),
                            ArgValue::Mode(0o644),
                        ],
                        i64::from(fd),
                    ),
                    TraceEvent::build(
                        "dup2",
                        33,
                        vec![ArgValue::Fd(fd), ArgValue::Fd(fd + 64)],
                        i64::from(fd + 64),
                    ),
                    TraceEvent::build(
                        "write",
                        1,
                        vec![
                            ArgValue::Fd(fd + 64),
                            ArgValue::Ptr(1),
                            ArgValue::UInt(1 << (round % 16)),
                        ],
                        1 << (round % 16),
                    ),
                    TraceEvent::build("close", 3, vec![ArgValue::Fd(fd)], 0),
                ];
                for event in &mut step {
                    event.pid = pid;
                }
                events.extend(step);
            }
        }
        events
    }

    fn filter() -> TraceFilter {
        TraceFilter::mount_point("/mnt/test").unwrap()
    }

    fn fast_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            max_restarts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            shard_timeout: None,
        }
    }

    fn panic_hook(shard: usize, tick: u64, times: u64) -> ShardHook {
        let fired = Arc::new(AtomicU64::new(0));
        Arc::new(move |w, t| {
            if w == shard && t == tick && fired.fetch_add(1, Ordering::SeqCst) < times {
                panic!("injected pipeline panic (shard {w}, tick {t})");
            }
        })
    }

    #[test]
    fn builder_matches_serial_analyzer_at_every_job_count() {
        let events = multi_pid_trace(5, 6);
        let trace = Trace::from_events(events.clone());
        let serial = serde_json::to_string(&Analyzer::new(filter()).analyze(&trace)).unwrap();
        for jobs in [1, 2, 4] {
            let mut pipeline = PipelineBuilder::new(filter()).jobs(jobs).build();
            for chunk in events.chunks(7) {
                pipeline.push_owned(chunk.to_vec());
            }
            let (report, failures) = pipeline.finish();
            assert!(failures.is_empty());
            assert_eq!(
                serial,
                serde_json::to_string(&report).unwrap(),
                "diverged at {jobs} jobs"
            );
        }
    }

    #[test]
    fn run_over_source_matches_in_memory_push() {
        let events = multi_pid_trace(4, 5);
        let trace = Trace::from_events(events.clone());
        let mut bytes = Vec::new();
        iocov_trace::write_jsonl(&mut bytes, &trace).unwrap();
        let expected = Analyzer::new(filter()).analyze(&trace);
        let mut source = JsonlSource::new(&bytes[..], ReadOptions::default());
        let run = PipelineBuilder::new(filter())
            .chunk(13)
            .build()
            .run(&mut source)
            .unwrap();
        assert_eq!(run.events, events.len() as u64);
        assert!(!run.stopped);
        assert_eq!(expected, run.report);
    }

    #[test]
    fn serial_executor_panic_recovers_byte_identical() {
        let events = multi_pid_trace(3, 8);
        let trace = Trace::from_events(events.clone());
        let serial = serde_json::to_string(&Analyzer::new(filter()).analyze(&trace)).unwrap();
        let mut pipeline = PipelineBuilder::new(filter())
            .policy(fast_policy())
            .hook(panic_hook(0, 1, 1))
            .build();
        for chunk in events.chunks(events.len() / 3) {
            pipeline.push_owned(chunk.to_vec());
        }
        let (report, failures) = pipeline.finish();
        assert_eq!(serial, serde_json::to_string(&report).unwrap());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].shard, 0);
        assert_eq!(failures[0].restarts, 1);
        assert!(!failures[0].gave_up);
    }

    #[test]
    fn serial_executor_exhausted_budget_degrades() {
        let events = multi_pid_trace(3, 2);
        let metrics = Arc::new(PipelineMetrics::default());
        let mut pipeline = PipelineBuilder::new(filter())
            .policy(fast_policy())
            .metrics(Arc::clone(&metrics))
            .hook(panic_hook(0, 0, u64::MAX))
            .build();
        pipeline.push_owned(events);
        let (report, failures) = pipeline.finish();
        assert_eq!(report, AnalysisReport::default());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].gave_up);
        assert_eq!(failures[0].restarts, fast_policy().max_restarts);
        let snap = metrics.snapshot();
        assert_eq!(snap.shard_restarts, u64::from(fast_policy().max_restarts));
        assert_eq!(snap.shard_failures.len(), 1);
        // No half-counted incarnation leaked into the shared counters.
        assert_eq!(snap.events_read, 0);
    }

    #[test]
    fn checkpoint_cuts_preserve_byte_identity_serial_and_pool() {
        // Rotating the executor at checkpoint cuts (the new pool
        // snapshot path included) must not disturb the final report.
        let events = multi_pid_trace(5, 6);
        let trace = Trace::from_events(events.clone());
        let serial = serde_json::to_string(&Analyzer::new(filter()).analyze(&trace)).unwrap();
        for jobs in [1, 2, 4] {
            let mut pipeline = PipelineBuilder::new(filter()).jobs(jobs).build();
            let mut states_at_cuts = Vec::new();
            for chunk in events.chunks(11) {
                pipeline.push_owned(chunk.to_vec());
                states_at_cuts.push(pipeline.session_mut().cut());
            }
            let (report, failures) = pipeline.finish();
            assert!(failures.is_empty());
            assert_eq!(
                serial,
                serde_json::to_string(&report).unwrap(),
                "diverged at {jobs} jobs"
            );
            // The last cut already carries the full report.
            let (last_report, _) = states_at_cuts.last().unwrap();
            assert_eq!(serial, serde_json::to_string(last_report).unwrap());
        }
    }

    #[test]
    fn resume_from_cut_matches_uninterrupted_for_both_executors() {
        let events = multi_pid_trace(4, 6);
        let trace = Trace::from_events(events.clone());
        let serial = serde_json::to_string(&Analyzer::new(filter()).analyze(&trace)).unwrap();
        let cut_at = events.len() / 2;
        for jobs in [1, 3] {
            let mut head = PipelineBuilder::new(filter()).jobs(jobs).build();
            head.push_owned(events[..cut_at].to_vec());
            let (head_report, head_states) = head.session_mut().cut();
            let doc = CheckpointDoc {
                report: head_report,
                pid_states: head_states,
                ..CheckpointDoc::default()
            };
            // Round-trip through serialization like a real resume.
            let doc: CheckpointDoc =
                serde_json::from_str(&serde_json::to_string(&doc).unwrap()).unwrap();
            let mut tail = PipelineBuilder::new(filter())
                .jobs(jobs)
                .resume(doc)
                .build();
            tail.push_owned(events[cut_at..].to_vec());
            let (report, _) = tail.finish();
            assert_eq!(
                serial,
                serde_json::to_string(&report).unwrap(),
                "diverged at {jobs} jobs"
            );
        }
    }

    #[test]
    fn run_writes_checkpoints_and_stop_simulates_kill() {
        let events = multi_pid_trace(2, 3);
        let trace = Trace::from_events(events.clone());
        let mut bytes = Vec::new();
        iocov_trace::write_jsonl(&mut bytes, &trace).unwrap();
        let path =
            std::env::temp_dir().join(format!("iocov-pipeline-test-{}.iockpt", std::process::id()));
        let mut source = JsonlSource::new(&bytes[..], ReadOptions::default());
        let run = PipelineBuilder::new(filter())
            .checkpoint(CheckpointPolicy {
                every: 4,
                path: path.clone(),
            })
            .stop_after(10)
            .build()
            .run(&mut source)
            .unwrap();
        assert!(run.stopped);
        assert_eq!(run.events, 10);
        let doc = crate::checkpoint::read_checkpoint(&path).unwrap();
        assert_eq!(doc.cursor.events, 8, "last boundary before the stop");

        // Resume from the checkpoint over a cursor seeked to its
        // offset: byte-identical to an uninterrupted run.
        let full = serde_json::to_string(&Analyzer::new(filter()).analyze(&trace)).unwrap();
        let offset = usize::try_from(doc.cursor.byte_offset).unwrap();
        let mut source =
            JsonlSource::resume(&bytes[offset..], ReadOptions::default(), doc.cursor.clone());
        let resumed = PipelineBuilder::new(filter())
            .resume(doc)
            .build()
            .run(&mut source)
            .unwrap();
        assert_eq!(full, serde_json::to_string(&resumed.report).unwrap());
        let _ = std::fs::remove_file(&path);
    }
}
