//! Pid-sharded parallel analysis over a supervised persistent worker
//! pool.
//!
//! Every piece of state the analysis pipeline carries between events is
//! per-process: the trace filter's descriptor-provenance map and cwd
//! relevance live in a per-pid entry, and coverage accumulation is a sum
//! of per-event contributions. A trace can therefore be sharded *by pid*
//! across worker threads with no cross-shard communication: each worker
//! runs an ordinary [`StreamingAnalyzer`] over its pids' events in trace
//! order, and the per-worker reports are combined with
//! [`AnalysisReport::merge`]. Because every aggregate in a report is an
//! order-independent sum over `BTreeMap`s, the merged report is
//! **identical** to a serial run — same keys, same counts, same
//! serialized bytes — regardless of the worker count.
//!
//! # Supervision
//!
//! Both analyzers are *supervised*: worker panics are caught with
//! `catch_unwind`, converted into structured [`ShardError`] values, and
//! absorbed by restarting the failed shard with exponential backoff (see
//! [`SupervisorPolicy`]). The restart replays the shard's batches into a
//! fresh [`StreamingAnalyzer`], so a recovered run's report is
//! byte-identical to a fault-free one. Restarts never double-count
//! metrics: each worker *incarnation* accumulates into a private
//! [`PipelineMetrics`] whose snapshot is absorbed into the shared
//! instance only on clean completion. When a shard exhausts its restart
//! budget the run *degrades* instead of aborting: the merged report
//! omits that shard's pids and a [`ShardFailureRecord`] manifest
//! (available via [`finish_with_failures`] / [`analyze_with_failures`]
//! and in every metrics snapshot) says exactly what is missing. With
//! [`SupervisorPolicy::shard_timeout`] set, a shard that stops
//! heartbeating is declared stalled, abandoned, and replayed the same
//! way.
//!
//! [`finish_with_failures`]: ParallelStreamingAnalyzer::finish_with_failures
//! [`analyze_with_failures`]: ParallelAnalyzer::analyze_with_failures
//!
//! [`ParallelAnalyzer`] is the one-shot interface mirroring
//! [`Analyzer`](crate::Analyzer): it spawns one scoped thread per shard
//! over the whole borrowed slice — zero copies, one spawn per analysis
//! attempt.
//!
//! [`ParallelStreamingAnalyzer`] is the chunked interface mirroring
//! [`StreamingAnalyzer`]. It keeps each shard's filter state alive
//! *across* chunks so a descriptor opened (or duplicated) in one chunk
//! is still attributed correctly in the next — and unlike a
//! spawn-per-chunk design, its shard threads are **persistent**: they
//! are spawned once on the first dispatched batch and fed over bounded
//! channels, so a caller can parse the next chunk while the workers are
//! still analyzing the previous one (pipelined parse/analyze overlap).
//! Batches are shared as `Arc<EventBatch>` — one columnar block
//! broadcast to every worker, each of which walks it by reference
//! ([`EventRef`](iocov_trace::EventRef)) and keeps only its own pids, so
//! fan-out costs one atomic refcount per shard instead of an event-vector
//! clone. Hand the pool a shared batch via
//! [`push_shared`](ParallelStreamingAnalyzer::push_shared) (the
//! pipeline's hot path) or an owned chunk via
//! [`push_owned`](ParallelStreamingAnalyzer::push_owned); both the
//! borrowed [`push_all`](ParallelStreamingAnalyzer::push_all) and owned
//! compatibility paths pack events into batch columns rather than
//! cloning them. Chunks smaller than [`PARALLEL_THRESHOLD`]
//! events are coalesced in a caller-side buffer so per-batch channel
//! overhead never dominates tiny pushes. The supervisor retains every
//! dispatched batch (they are `Arc`-shared, so retention costs pointers,
//! not copies) as the replay log for restarts.
//!
//! ```
//! use iocov::{Analyzer, ParallelAnalyzer, TraceFilter};
//! use iocov_trace::{ArgValue, Trace, TraceEvent};
//!
//! let mut open = TraceEvent::build(
//!     "open",
//!     2,
//!     vec![ArgValue::Path("/mnt/test/f".into()), ArgValue::Flags(0), ArgValue::Mode(0)],
//!     3,
//! );
//! open.pid = 7;
//! let trace = Trace::from_events(vec![open]);
//! let filter = TraceFilter::mount_point("/mnt/test").unwrap();
//! let serial = Analyzer::new(filter.clone()).analyze(&trace);
//! let parallel = ParallelAnalyzer::new(filter, 4).analyze(&trace);
//! assert_eq!(serial, parallel);
//! ```

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iocov_trace::{EventBatch, EventView, Trace, TraceEvent};

use crate::coverage::AnalysisReport;
use crate::filter::TraceFilter;
use crate::metrics::{MetricsSnapshot, PipelineMetrics, ShardFailureRecord};
use crate::streaming::StreamingAnalyzer;

/// A progress hook observed by every shard worker: `(shard, tick)`,
/// where `tick` is the batch ordinal within the current worker
/// incarnation (pool) or always `0` at scan start (one-shot). Fault
/// injection (`iocov-faults`) plugs in here to panic or stall a specific
/// shard at a specific point.
pub type ShardHook = Arc<dyn Fn(usize, u64) + Send + Sync>;

/// Restart budget, backoff curve, and stall watchdog for supervised
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Restarts allowed per shard before it is abandoned (`gave_up`).
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per restart.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// If set, a shard with no heartbeat progress for this long (while
    /// the supervisor is waiting on it) is declared stalled and
    /// replayed. `None` waits forever, like an unsupervised join.
    pub shard_timeout: Option<Duration>,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_restarts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            shard_timeout: None,
        }
    }
}

impl SupervisorPolicy {
    /// The backoff before the `attempt`-th restart (1-based):
    /// `base_backoff * 2^(attempt-1)`, capped at `max_backoff`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    /// The backoff before the `attempt`-th restart with bounded
    /// deterministic jitter: the exponential [`backoff`](Self::backoff)
    /// plus up to half of itself, where the extra fraction is drawn
    /// from a SplitMix64 mix of `(seed, attempt)`. The result always
    /// stays within `[base_backoff, max_backoff]`, and the same
    /// `(seed, attempt)` pair always yields the same duration — so
    /// simultaneous worker deaths fan out instead of restarting in
    /// lockstep, while fault schedules stay reproducible.
    #[must_use]
    pub fn jittered_backoff(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self.backoff(attempt);
        let nanos = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX);
        let extra = splitmix64(seed, u64::from(attempt)) % (nanos / 2 + 1);
        Duration::from_nanos(nanos.saturating_add(extra)).clamp(self.base_backoff, self.max_backoff)
    }

    /// Sets the stall watchdog timeout.
    #[must_use]
    pub fn with_shard_timeout(mut self, timeout: Duration) -> Self {
        self.shard_timeout = Some(timeout);
        self
    }

    /// Sets the restart budget.
    #[must_use]
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }
}

/// SplitMix64 finalizer over `(seed, n)` — the same construction the
/// workload generator uses for per-round keys. Dependency-free and
/// byte-reproducible, which is all restart jitter needs.
#[must_use]
pub fn splitmix64(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A structured shard failure, as observed by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The worker panicked; carries the panic payload rendered to text.
    Panicked(String),
    /// The worker produced no heartbeat for longer than the watchdog
    /// allows.
    Stalled {
        /// How long the supervisor waited without progress.
        waited: Duration,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            ShardError::Stalled { waited } => {
                write!(
                    f,
                    "worker stalled: no heartbeat for {}ms",
                    waited.as_millis()
                )
            }
        }
    }
}

thread_local! {
    static IN_SUPERVISED_SCAN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the current thread is inside a supervised shard scan — a
/// panic raised here is caught, converted into a structured
/// [`ShardError::Panicked`], and handled by the supervisor (restart or
/// degrade), never an abort. Binaries can install a panic hook that
/// consults this to keep recovered panics off stderr; the panic message
/// still reaches the failure manifest.
#[must_use]
pub fn in_supervised_scan() -> bool {
    IN_SUPERVISED_SCAN.with(std::cell::Cell::get)
}

/// RAII: marks the current thread supervised for the guard's lifetime
/// (cleared on unwind too, so a panic leaves the thread unmarked once
/// the supervisor has taken over).
pub(crate) struct SupervisedScanGuard;

impl SupervisedScanGuard {
    pub(crate) fn enter() -> Self {
        IN_SUPERVISED_SCAN.with(|flag| flag.set(true));
        SupervisedScanGuard
    }
}

impl Drop for SupervisedScanGuard {
    fn drop(&mut self) {
        IN_SUPERVISED_SCAN.with(|flag| flag.set(false));
    }
}

/// Renders a `catch_unwind` payload to text.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A one-shot parallel analyzer: shards a trace by pid across `workers`
/// threads and merges the per-worker reports, supervising each shard
/// per [`SupervisorPolicy`].
#[derive(Clone)]
pub struct ParallelAnalyzer {
    filter: TraceFilter,
    workers: usize,
    metrics: Option<Arc<PipelineMetrics>>,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
}

impl fmt::Debug for ParallelAnalyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelAnalyzer")
            .field("filter", &self.filter)
            .field("workers", &self.workers)
            .field("policy", &self.policy)
            .field("hook", &self.hook.as_ref().map(|_| "…"))
            .finish_non_exhaustive()
    }
}

impl ParallelAnalyzer {
    /// A parallel analyzer with a filter; `workers` is clamped to at
    /// least 1.
    #[must_use]
    pub fn new(filter: TraceFilter, workers: usize) -> Self {
        ParallelAnalyzer {
            filter,
            workers: workers.max(1),
            metrics: None,
            policy: SupervisorPolicy::default(),
            hook: None,
        }
    }

    /// An unfiltered parallel analyzer.
    #[must_use]
    pub fn unfiltered(workers: usize) -> Self {
        ParallelAnalyzer::new(TraceFilter::keep_all(), workers)
    }

    /// Attaches shared pipeline metrics. Workers accumulate privately
    /// and the totals are absorbed on clean shard completion, so
    /// snapshots match a serial run exactly even across restarts.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<PipelineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Overrides the supervision policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SupervisorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a worker progress hook (fault injection).
    #[must_use]
    pub fn with_hook(mut self, hook: ShardHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// The worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured filter.
    #[must_use]
    pub fn filter(&self) -> &TraceFilter {
        &self.filter
    }

    /// Runs the full pipeline over one trace.
    #[must_use]
    pub fn analyze(&self, trace: &Trace) -> AnalysisReport {
        self.analyze_events(trace.events())
    }

    /// Runs the full pipeline over a slice of events.
    #[must_use]
    pub fn analyze_events(&self, events: &[TraceEvent]) -> AnalysisReport {
        self.analyze_events_with_failures(events).0
    }

    /// Like [`analyze`](Self::analyze), also returning the shard-failure
    /// manifest (empty on a fault-free run).
    #[must_use]
    pub fn analyze_with_failures(
        &self,
        trace: &Trace,
    ) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        self.analyze_events_with_failures(trace.events())
    }

    /// Runs the supervised pipeline over a slice of events.
    ///
    /// One-shot analysis needs no pipelining — the whole input is
    /// already in memory — so this scans the borrowed slice directly
    /// from scoped shard threads: zero event copies and one spawn per
    /// shard attempt. A panicking shard is rescanned from scratch (its
    /// analyzer state died with it) after backoff, up to
    /// [`SupervisorPolicy::max_restarts`] times; a shard that gives up
    /// is reported in the returned manifest and its pids are missing
    /// from the (partial) report. The process is never aborted by a
    /// worker panic.
    #[must_use]
    pub fn analyze_events_with_failures(
        &self,
        events: &[TraceEvent],
    ) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        let n = self.workers;
        let scans: Vec<ShardScan> = if n == 1 || events.len() < PARALLEL_THRESHOLD {
            // Below the threshold thread spawn dominates; a serial pass
            // over all shards costs the same modulo test per event.
            (0..n).map(|w| self.supervised_scan(w, events)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|w| scope.spawn(move || self.supervised_scan(w, events)))
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| {
                        handle.join().unwrap_or_else(|payload| ShardScan {
                            // The supervisor wrapper itself panicked —
                            // possible only via a pathological hook;
                            // degrade rather than abort.
                            report: None,
                            restarts: 0,
                            last_error: Some(panic_message(payload.as_ref())),
                        })
                    })
                    .collect()
            })
        };
        let mut merged = AnalysisReport::default();
        let mut failures = Vec::new();
        for (w, scan) in scans.into_iter().enumerate() {
            let gave_up = scan.report.is_none();
            if let Some(report) = &scan.report {
                merged.merge(report);
            }
            if scan.restarts > 0 || gave_up {
                failures.push(ShardFailureRecord {
                    shard: w,
                    restarts: scan.restarts,
                    gave_up,
                    last_error: scan.last_error.unwrap_or_default(),
                });
            }
        }
        if let Some(metrics) = &self.metrics {
            for failure in &failures {
                metrics.record_shard_failure(failure.clone());
            }
        }
        (merged, failures)
    }

    /// Scans shard `w` of `events` with restart-on-panic supervision.
    fn supervised_scan(&self, w: usize, events: &[TraceEvent]) -> ShardScan {
        let n = self.workers;
        let mut restarts = 0u32;
        let mut last_error = None;
        loop {
            // Fresh analyzer and private metrics per attempt: a panic
            // poisons the analyzer mid-scan, and half-counted metrics
            // must never leak into the shared instance.
            let local = self
                .metrics
                .as_ref()
                .map(|_| Arc::new(PipelineMetrics::default()));
            let mut shard = StreamingAnalyzer::new(self.filter.clone());
            if let Some(m) = &local {
                shard = shard.with_metrics(Arc::clone(m));
            }
            let scan_metrics = local.clone();
            let hook = self.hook.clone();
            let result = catch_unwind(AssertUnwindSafe(move || {
                let _supervised = SupervisedScanGuard::enter();
                let _timer = scan_metrics.as_deref().map(|m| m.time_stage("analyze"));
                if let Some(hook) = &hook {
                    hook(w, 0);
                }
                for event in events {
                    if event.pid as usize % n == w {
                        shard.push(event);
                    }
                }
                shard.finish()
            }));
            match result {
                Ok(report) => {
                    if let (Some(shared), Some(local)) = (&self.metrics, &local) {
                        shared.absorb(&local.snapshot());
                        shared.absorb_stage_timings(&local.stage_timings());
                    }
                    return ShardScan {
                        report: Some(report),
                        restarts,
                        last_error,
                    };
                }
                Err(payload) => {
                    last_error =
                        Some(ShardError::Panicked(panic_message(payload.as_ref())).to_string());
                    if restarts >= self.policy.max_restarts {
                        return ShardScan {
                            report: None,
                            restarts,
                            last_error,
                        };
                    }
                    restarts += 1;
                    if let Some(metrics) = &self.metrics {
                        metrics.record_shard_restart();
                    }
                    std::thread::sleep(self.policy.backoff(restarts));
                }
            }
        }
    }
}

/// Outcome of one supervised one-shot shard scan.
struct ShardScan {
    /// The shard's report; `None` when the restart budget ran out.
    report: Option<AnalysisReport>,
    restarts: u32,
    last_error: Option<String>,
}

/// A job sent to a persistent shard worker.
enum Job {
    /// A columnar batch of events to scan; every worker receives the
    /// same `Arc` and keeps only its own pids.
    Batch(Arc<EventBatch>),
    /// A request for a materialized snapshot of the shard's report so
    /// far, answered on the enclosed channel.
    Snapshot(SyncSender<AnalysisReport>),
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Job::Batch(batch) => f.debug_tuple("Batch").field(&batch.len()).finish(),
            Job::Snapshot(_) => f.write_str("Snapshot"),
        }
    }
}

/// A worker incarnation's exit message, sent on its done channel.
enum WorkerExit {
    /// Clean completion: the shard's final report, its per-pid relevance
    /// states (for checkpointing), and the incarnation's private metrics
    /// (snapshot + stage timings) for the supervisor to absorb.
    Finished {
        report: Box<AnalysisReport>,
        states: BTreeMap<u32, crate::PidStateSnapshot>,
        counters: Option<(MetricsSnapshot, BTreeMap<String, u64>)>,
    },
    /// The incarnation panicked.
    Panicked(String),
}

/// One live worker incarnation as the supervisor sees it.
struct Slot {
    /// Job queue sender; `None` once the queue is closed (at drain time)
    /// or the shard abandoned.
    jobs: Option<SyncSender<Job>>,
    /// Exit-message channel from the incarnation.
    done: Receiver<WorkerExit>,
    /// Bumped by the worker after every processed job — the liveness
    /// signal the stall watchdog reads.
    heartbeat: Arc<AtomicU64>,
    /// Batches from the supervisor's log already delivered to this
    /// incarnation.
    sent: usize,
}

impl Slot {
    /// A slot whose worker could not be spawned: every interaction sees
    /// a dead channel.
    fn dead() -> Self {
        let (_, done) = sync_channel(1);
        Slot {
            jobs: None,
            done,
            heartbeat: Arc::new(AtomicU64::new(0)),
            sent: 0,
        }
    }
}

/// Per-shard supervision ledger.
#[derive(Debug, Clone, Default)]
struct ShardSupervision {
    restarts: u32,
    gave_up: bool,
    last_error: Option<String>,
}

/// Outcome of offering one job to a worker's queue.
enum Offer {
    Accepted,
    Failed(ShardError),
}

/// The loop run by each persistent shard thread: drain batches (keeping
/// only `pid % n == w`), answer snapshot requests, and return the
/// shard's final report when the job channel closes.
fn worker_loop(
    w: usize,
    n: usize,
    mut shard: StreamingAnalyzer,
    jobs: Receiver<Job>,
    metrics: Option<Arc<PipelineMetrics>>,
    heartbeat: Arc<AtomicU64>,
    hook: Option<ShardHook>,
) -> (AnalysisReport, BTreeMap<u32, crate::PidStateSnapshot>) {
    let mut tick = 0u64;
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Batch(batch) => {
                if let Some(hook) = &hook {
                    hook(w, tick);
                }
                tick += 1;
                // Each worker times its own scan, so the "analyze" stage
                // total is summed across shards (CPU time, not wall
                // clock).
                let _timer = metrics.as_deref().map(|m| m.time_stage("analyze"));
                // Walk the shared columns by reference: no owned event
                // is materialized on the worker side either.
                for event in batch.iter() {
                    if event.pid() as usize % n == w {
                        shard.push(&event);
                    }
                }
                heartbeat.fetch_add(1, Ordering::Relaxed);
            }
            Job::Snapshot(reply) => {
                let _ = reply.send(shard.report());
                heartbeat.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    heartbeat.fetch_add(1, Ordering::Relaxed);
    let states = shard.pid_states();
    (shard.finish(), states)
}

/// A chunked parallel analyzer: N **persistent** worker threads, each
/// owning a [`StreamingAnalyzer`] shard for the pids with
/// `pid % N == shard index`, supervised per [`SupervisorPolicy`].
///
/// Shard state survives across [`push_all`](Self::push_all) /
/// [`push_owned`](Self::push_owned) calls, so feeding a long trace
/// chunk-by-chunk preserves descriptor provenance exactly like a single
/// serial [`StreamingAnalyzer`] would. Worker threads are spawned
/// lazily on the first dispatched batch and live until
/// [`finish`](Self::finish); batches travel over bounded channels of
/// depth [`PIPELINE_DEPTH`], so the caller can parse chunk *k + 1*
/// while the workers analyze chunk *k*. Every dispatched batch is
/// retained (`Arc`-shared) as the replay log: a shard that panics or
/// stalls is restarted with a fresh analyzer and replayed from batch 0,
/// reproducing the exact per-shard event sequence.
pub struct ParallelStreamingAnalyzer {
    filter: TraceFilter,
    nworkers: usize,
    metrics: Option<Arc<PipelineMetrics>>,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
    /// Live incarnations; empty until the first batch dispatch.
    slots: Vec<Slot>,
    /// Every batch ever dispatched, in order — the replay log.
    batch_log: Vec<Arc<EventBatch>>,
    /// Per-shard restart ledger.
    supervision: Vec<ShardSupervision>,
    /// Caller-side coalescing buffer for chunks below
    /// [`PARALLEL_THRESHOLD`], packed columnar like everything else.
    pending: EventBatch,
    /// Checkpoint-restored per-pid relevance states; each shard
    /// incarnation restores its `pid % N == shard` subset before
    /// scanning (including supervised respawns, which replay on top of
    /// the same base).
    base_states: BTreeMap<u32, crate::PidStateSnapshot>,
}

impl fmt::Debug for ParallelStreamingAnalyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelStreamingAnalyzer")
            .field("workers", &self.nworkers)
            .field("policy", &self.policy)
            .field("batches", &self.batch_log.len())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl ParallelStreamingAnalyzer {
    /// Creates a pool of `workers` persistent shards (clamped to at
    /// least 1) over clones of `filter`. Threads are spawned on the
    /// first dispatched batch, not here, so a pool that never sees a
    /// large chunk costs one spawn per shard total.
    #[must_use]
    pub fn new(filter: TraceFilter, workers: usize) -> Self {
        let nworkers = workers.max(1);
        ParallelStreamingAnalyzer {
            filter,
            nworkers,
            metrics: None,
            policy: SupervisorPolicy::default(),
            hook: None,
            slots: Vec::new(),
            batch_log: Vec::new(),
            supervision: vec![ShardSupervision::default(); nworkers],
            pending: EventBatch::new(),
            base_states: BTreeMap::new(),
        }
    }

    /// Seeds every shard with checkpoint-restored per-pid relevance
    /// states (each worker restores only its own pids). Must be called
    /// before the first push.
    #[must_use]
    pub fn with_base_states(mut self, states: BTreeMap<u32, crate::PidStateSnapshot>) -> Self {
        debug_assert!(
            self.slots.is_empty(),
            "set base states before pushing events"
        );
        self.base_states = states;
        self
    }

    /// Attaches shared pipeline metrics to every shard. Must be called
    /// before the first push — workers capture the metrics handle when
    /// they spawn.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<PipelineMetrics>) -> Self {
        debug_assert!(
            self.slots.is_empty(),
            "attach metrics before pushing events"
        );
        self.metrics = Some(metrics);
        self
    }

    /// Overrides the supervision policy. Must be called before the
    /// first push.
    #[must_use]
    pub fn with_policy(mut self, policy: SupervisorPolicy) -> Self {
        debug_assert!(self.slots.is_empty(), "set policy before pushing events");
        self.policy = policy;
        self
    }

    /// Installs a worker progress hook (fault injection). Must be
    /// called before the first push.
    #[must_use]
    pub fn with_hook(mut self, hook: ShardHook) -> Self {
        debug_assert!(self.slots.is_empty(), "set hook before pushing events");
        self.hook = Some(hook);
        self
    }

    /// The worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.nworkers
    }

    /// Spawns one fresh worker incarnation for shard `w`.
    fn spawn_slot(&self, w: usize) -> std::io::Result<Slot> {
        let n = self.nworkers;
        let (jobs, queue) = sync_channel::<Job>(PIPELINE_DEPTH);
        let (done_tx, done) = sync_channel::<WorkerExit>(1);
        let heartbeat = Arc::new(AtomicU64::new(0));
        // Filter cloned per incarnation: the worker thread owns its
        // analyzer (and dies with it on panic), so it cannot borrow
        // the supervisor's copy.
        let mut shard = StreamingAnalyzer::new(self.filter.clone());
        if !self.base_states.is_empty() {
            // Cloned, not moved: the base states must survive as the
            // seed for every *future* incarnation of this shard — a
            // supervised respawn replays the log on the same base.
            let subset: BTreeMap<u32, crate::PidStateSnapshot> = self
                .base_states
                .iter()
                .filter(|(&pid, _)| pid as usize % n == w)
                .map(|(&pid, state)| (pid, state.clone()))
                .collect();
            shard.restore_pid_states(&subset);
        }
        // Private metrics per incarnation; absorbed by the supervisor
        // only on clean completion (see WorkerExit::Finished).
        let local = self
            .metrics
            .as_ref()
            .map(|_| Arc::new(PipelineMetrics::default()));
        if let Some(m) = &local {
            shard = shard.with_metrics(Arc::clone(m));
        }
        let beat = Arc::clone(&heartbeat);
        let hook = self.hook.clone();
        std::thread::Builder::new()
            .name(format!("iocov-shard-{w}"))
            .spawn(move || {
                let loop_metrics = local.clone();
                let result = catch_unwind(AssertUnwindSafe(move || {
                    let _supervised = SupervisedScanGuard::enter();
                    worker_loop(w, n, shard, queue, loop_metrics, beat, hook)
                }));
                let exit = match result {
                    Ok((report, states)) => WorkerExit::Finished {
                        report: Box::new(report),
                        states,
                        counters: local.map(|m| (m.snapshot(), m.stage_timings())),
                    },
                    Err(payload) => WorkerExit::Panicked(panic_message(payload.as_ref())),
                };
                let _ = done_tx.send(exit);
            })?;
        Ok(Slot {
            jobs: Some(jobs),
            done,
            heartbeat,
            sent: 0,
        })
    }

    /// Spawns shard `w`, burning restart budget on spawn failure; a
    /// shard whose worker cannot be spawned at all gives up with a dead
    /// slot instead of aborting the run.
    fn spawned_slot(&mut self, w: usize) -> Slot {
        loop {
            match self.spawn_slot(w) {
                Ok(slot) => return slot,
                Err(e) => {
                    self.supervision[w].last_error = Some(format!("spawn shard worker: {e}"));
                    if self.supervision[w].restarts >= self.policy.max_restarts {
                        self.supervision[w].gave_up = true;
                        return Slot::dead();
                    }
                    self.supervision[w].restarts += 1;
                    if let Some(metrics) = &self.metrics {
                        metrics.record_shard_restart();
                    }
                    std::thread::sleep(self.policy.backoff(self.supervision[w].restarts));
                }
            }
        }
    }

    /// Offers one job to shard `w`, spinning on a full queue (with the
    /// stall watchdog active) and detecting a dead worker.
    fn offer_job(&self, w: usize, mut job: Job) -> Offer {
        let slot = &self.slots[w];
        let Some(jobs) = &slot.jobs else {
            return Offer::Failed(ShardError::Panicked("worker unavailable".into()));
        };
        let mut last_beat = slot.heartbeat.load(Ordering::Relaxed);
        let mut progress_at = Instant::now();
        loop {
            match jobs.try_send(job) {
                Ok(()) => return Offer::Accepted,
                Err(TrySendError::Disconnected(_)) => {
                    return Offer::Failed(self.reap_exit(w));
                }
                Err(TrySendError::Full(back)) => {
                    job = back;
                    if let Some(limit) = self.policy.shard_timeout {
                        let beat = slot.heartbeat.load(Ordering::Relaxed);
                        if beat != last_beat {
                            last_beat = beat;
                            progress_at = Instant::now();
                        } else if progress_at.elapsed() >= limit {
                            return Offer::Failed(ShardError::Stalled {
                                waited: progress_at.elapsed(),
                            });
                        }
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Fetches the exit message of a worker whose queue disconnected.
    fn reap_exit(&self, w: usize) -> ShardError {
        // The worker drops its queue receiver (disconnecting us) during
        // unwind, then sends its exit message; give it a moment.
        match self.slots[w].done.recv_timeout(Duration::from_secs(5)) {
            Ok(WorkerExit::Panicked(msg)) => ShardError::Panicked(msg),
            Ok(WorkerExit::Finished { .. }) => {
                ShardError::Panicked("worker exited before its queue closed".into())
            }
            Err(_) => ShardError::Panicked("worker terminated without reporting".into()),
        }
    }

    /// Drains the pool like [`finish_with_failures`], additionally
    /// returning the merged per-pid relevance states at the drain point
    /// (the union of the disjoint per-shard maps) — everything a
    /// checkpoint needs to seed a successor pool via
    /// [`with_base_states`](Self::with_base_states). A pool that never
    /// dispatched a batch passes its base states through unchanged.
    ///
    /// [`finish_with_failures`]: Self::finish_with_failures
    #[must_use]
    #[allow(clippy::type_complexity)]
    pub fn finish_with_states(
        mut self,
    ) -> (
        AnalysisReport,
        Vec<ShardFailureRecord>,
        BTreeMap<u32, crate::PidStateSnapshot>,
    ) {
        self.flush_pending();
        let mut merged = AnalysisReport::default();
        let mut states = std::mem::take(&mut self.base_states);
        if !self.slots.is_empty() {
            let target = self.batch_log.len();
            for w in 0..self.nworkers {
                loop {
                    self.deliver_up_to(w, target);
                    if self.supervision[w].gave_up {
                        break;
                    }
                    // Close this incarnation's queue so it can finish.
                    self.slots[w].jobs = None;
                    match self.await_exit(w) {
                        Ok((report, shard_states, counters)) => {
                            merged.merge(&report);
                            // The worker's map already contains its
                            // restored base subset, so extend replaces
                            // exactly this shard's pids.
                            states.extend(shard_states);
                            if let (Some(shared), Some((snapshot, timings))) =
                                (&self.metrics, counters)
                            {
                                shared.absorb(&snapshot);
                                shared.absorb_stage_timings(&timings);
                            }
                            break;
                        }
                        Err(error) => self.recover(w, &error),
                    }
                }
            }
        }
        let failures = self.manifest();
        if let Some(metrics) = &self.metrics {
            for failure in &failures {
                metrics.record_shard_failure(failure.clone());
            }
        }
        (merged, failures, states)
    }

    /// Records a failure for shard `w` and either respawns a fresh
    /// incarnation (the caller replays the log into it) or abandons the
    /// shard once the restart budget is spent.
    fn recover(&mut self, w: usize, error: &ShardError) {
        self.supervision[w].last_error = Some(error.to_string());
        if self.supervision[w].restarts >= self.policy.max_restarts {
            self.supervision[w].gave_up = true;
            // Abandon: dropping the sender lets a live-but-stalled
            // incarnation drain and exit on its own; its report is
            // discarded.
            self.slots[w].jobs = None;
            return;
        }
        self.supervision[w].restarts += 1;
        if let Some(metrics) = &self.metrics {
            metrics.record_shard_restart();
        }
        std::thread::sleep(self.policy.backoff(self.supervision[w].restarts));
        self.slots[w] = self.spawned_slot(w);
    }

    /// Delivers log batches to shard `w` until its incarnation has seen
    /// the first `target` batches (restarting and replaying as needed).
    fn deliver_up_to(&mut self, w: usize, target: usize) {
        while !self.supervision[w].gave_up && self.slots[w].sent < target {
            let idx = self.slots[w].sent;
            match self.offer_job(w, Job::Batch(Arc::clone(&self.batch_log[idx]))) {
                Offer::Accepted => self.slots[w].sent = idx + 1,
                Offer::Failed(error) => self.recover(w, &error),
            }
        }
    }

    /// Waits for shard `w`'s incarnation to exit after its queue was
    /// closed, watching for stalls.
    #[allow(clippy::type_complexity)]
    fn await_exit(
        &self,
        w: usize,
    ) -> Result<
        (
            Box<AnalysisReport>,
            BTreeMap<u32, crate::PidStateSnapshot>,
            Option<(MetricsSnapshot, BTreeMap<String, u64>)>,
        ),
        ShardError,
    > {
        let slot = &self.slots[w];
        let mut last_beat = slot.heartbeat.load(Ordering::Relaxed);
        let mut progress_at = Instant::now();
        loop {
            match slot.done.recv_timeout(Duration::from_millis(20)) {
                Ok(WorkerExit::Finished {
                    report,
                    states,
                    counters,
                }) => return Ok((report, states, counters)),
                Ok(WorkerExit::Panicked(msg)) => return Err(ShardError::Panicked(msg)),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ShardError::Panicked(
                        "worker terminated without reporting".into(),
                    ))
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(limit) = self.policy.shard_timeout {
                        let beat = slot.heartbeat.load(Ordering::Relaxed);
                        if beat != last_beat {
                            last_beat = beat;
                            progress_at = Instant::now();
                        } else if progress_at.elapsed() >= limit {
                            return Err(ShardError::Stalled {
                                waited: progress_at.elapsed(),
                            });
                        }
                    }
                }
            }
        }
    }

    /// Hands one batch to every worker. Blocks only when a worker's
    /// queue is [`PIPELINE_DEPTH`] batches behind — the backpressure
    /// that bounds memory to `depth × batch` per shard (plus the
    /// `Arc`-shared replay log).
    fn dispatch(&mut self, batch: Arc<EventBatch>) {
        if self.slots.is_empty() {
            self.slots = (0..self.nworkers).map(|w| self.spawned_slot(w)).collect();
        }
        self.batch_log.push(batch);
        let target = self.batch_log.len();
        for w in 0..self.nworkers {
            self.deliver_up_to(w, target);
        }
    }

    /// Dispatches the coalescing buffer, if non-empty.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let batch = Arc::new(std::mem::take(&mut self.pending));
        self.dispatch(batch);
    }

    /// Consumes one columnar batch — the zero-copy hot path from the
    /// decode stage: a batch of at least [`PARALLEL_THRESHOLD`] events
    /// is wrapped in an `Arc` and broadcast as-is (one refcount bump
    /// per shard); smaller batches are coalesced column-to-column and
    /// dispatched once the buffer reaches the threshold.
    pub fn push_shared(&mut self, batch: EventBatch) {
        if self.pending.is_empty() && batch.len() >= PARALLEL_THRESHOLD {
            self.dispatch(Arc::new(batch));
            return;
        }
        self.pending.append_batch(&batch);
        if self.pending.len() >= PARALLEL_THRESHOLD {
            self.flush_pending();
        }
    }

    /// Consumes one owned chunk of events, packing it into batch
    /// columns before dispatch.
    pub fn push_owned(&mut self, events: Vec<TraceEvent>) {
        if self.pending.is_empty() && events.len() >= PARALLEL_THRESHOLD {
            self.dispatch(Arc::new(EventBatch::from_events(&events)));
            return;
        }
        for event in &events {
            self.pending.push_event(event);
        }
        if self.pending.len() >= PARALLEL_THRESHOLD {
            self.flush_pending();
        }
    }

    /// Consumes a stream of owned events, coalescing into
    /// [`PARALLEL_THRESHOLD`]-sized batches.
    pub fn push_batch(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        for event in events {
            self.pending.push_event(&event);
        }
        if self.pending.len() >= PARALLEL_THRESHOLD {
            self.flush_pending();
        }
    }

    /// Consumes one chunk of borrowed events. Events are packed into
    /// the coalescing batch's columns directly — unlike the former
    /// `Arc<Vec<TraceEvent>>` design, no per-event `TraceEvent` clone
    /// (name `String` + args `Vec` + path `String`s) is made to outlive
    /// the borrow.
    pub fn push_all(&mut self, events: &[TraceEvent]) {
        for event in events {
            self.pending.push_event(event);
        }
        if self.pending.len() >= PARALLEL_THRESHOLD {
            self.flush_pending();
        }
    }

    /// Drains the pool and returns the merged report. Equivalent to
    /// [`finish_with_failures`](Self::finish_with_failures) with the
    /// manifest discarded (it is still recorded in the attached metrics,
    /// if any). A degraded run returns the partial report — never
    /// panics.
    #[must_use]
    pub fn finish(self) -> AnalysisReport {
        self.finish_with_failures().0
    }

    /// Drains the pool: flushes the coalescing buffer, closes every job
    /// queue, collects the shard reports, and merges them in shard
    /// order — supervising throughout. A shard that panics or stalls at
    /// any point (including during the final drain) is restarted with
    /// backoff and replayed from the batch log; a shard that exhausts
    /// its restart budget is reported in the returned manifest (also
    /// recorded in the attached metrics) and omitted from the merged
    /// report.
    #[must_use]
    pub fn finish_with_failures(self) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        let (merged, failures, _) = self.finish_with_states();
        (merged, failures)
    }

    /// A merged snapshot of the report so far (the stream may
    /// continue). Flushes the coalescing buffer and waits for every
    /// worker to answer a snapshot request, so the result reflects all
    /// events pushed before the call — restarting and replaying shards
    /// that fail along the way.
    #[must_use]
    pub fn report(&mut self) -> AnalysisReport {
        self.flush_pending();
        let mut merged = AnalysisReport::default();
        if self.slots.is_empty() {
            return merged;
        }
        let target = self.batch_log.len();
        for w in 0..self.nworkers {
            loop {
                self.deliver_up_to(w, target);
                if self.supervision[w].gave_up {
                    break;
                }
                let (reply_tx, reply_rx) = sync_channel(1);
                match self.offer_job(w, Job::Snapshot(reply_tx)) {
                    Offer::Failed(error) => {
                        self.recover(w, &error);
                        continue;
                    }
                    Offer::Accepted => {}
                }
                match self.await_snapshot(w, &reply_rx) {
                    Ok(report) => {
                        merged.merge(&report);
                        break;
                    }
                    Err(error) => self.recover(w, &error),
                }
            }
        }
        merged
    }

    /// Waits for a snapshot reply from shard `w`, watching for stalls
    /// and for the worker dying mid-snapshot.
    fn await_snapshot(
        &self,
        w: usize,
        reply: &Receiver<AnalysisReport>,
    ) -> Result<AnalysisReport, ShardError> {
        let slot = &self.slots[w];
        let mut last_beat = slot.heartbeat.load(Ordering::Relaxed);
        let mut progress_at = Instant::now();
        loop {
            match reply.recv_timeout(Duration::from_millis(20)) {
                Ok(report) => return Ok(report),
                Err(RecvTimeoutError::Disconnected) => return Err(self.reap_exit(w)),
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(limit) = self.policy.shard_timeout {
                        let beat = slot.heartbeat.load(Ordering::Relaxed);
                        if beat != last_beat {
                            last_beat = beat;
                            progress_at = Instant::now();
                        } else if progress_at.elapsed() >= limit {
                            return Err(ShardError::Stalled {
                                waited: progress_at.elapsed(),
                            });
                        }
                    }
                }
            }
        }
    }

    /// The shard-failure manifest: one record per shard that needed
    /// restarting, in shard order.
    fn manifest(&self) -> Vec<ShardFailureRecord> {
        self.supervision
            .iter()
            .enumerate()
            .filter(|(_, s)| s.restarts > 0 || s.gave_up)
            .map(|(w, s)| ShardFailureRecord {
                shard: w,
                restarts: s.restarts,
                gave_up: s.gave_up,
                last_error: s.last_error.clone().unwrap_or_default(),
            })
            .collect()
    }
}

/// Chunks smaller than this are coalesced in the caller's buffer before
/// dispatch ([`ParallelStreamingAnalyzer`]) or analyzed on the calling
/// thread ([`ParallelAnalyzer`]); per-batch dispatch (or thread spawn)
/// costs more than analyzing this few events.
pub const PARALLEL_THRESHOLD: usize = 1024;

/// Bounded depth of each worker's job queue: the caller may run at most
/// this many batches ahead of the slowest shard.
pub const PIPELINE_DEPTH: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analyzer, ArgName};
    use iocov_trace::ArgValue;

    /// A multi-pid trace exercising every provenance rule: opens, dups,
    /// renames, chdir, interleaved across `pids` processes.
    fn multi_pid_trace(pids: u32, per_pid: usize) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for round in 0..per_pid {
            for pid in 0..pids {
                let fd = 3 + round as i32;
                let mount = pid % 2 == 0; // odd pids are pure noise
                let root = if mount { "/mnt/test" } else { "/somewhere" };
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
                            ArgValue::UInt(1 << (round % 20)),
                        ],
                        1 << (round % 20),
                    ),
                    TraceEvent::build(
                        "rename",
                        82,
                        vec![
                            ArgValue::Path(format!("/tmp/stage{round}")),
                            ArgValue::Path(format!("{root}/dst{round}")),
                        ],
                        0,
                    ),
                    TraceEvent::build("chdir", 80, vec![ArgValue::Path(root.to_owned())], 0),
                    TraceEvent::build(
                        "open",
                        2,
                        vec![
                            ArgValue::Path("relative".into()),
                            ArgValue::Flags(0),
                            ArgValue::Mode(0),
                        ],
                        i64::from(fd + 100),
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

    /// A hook that panics the first `times` times shard `shard` reaches
    /// tick `tick`, then disarms (mirrors `iocov_faults::PanicSchedule`,
    /// which this crate cannot depend on).
    fn panic_hook(shard: usize, tick: u64, times: u64) -> ShardHook {
        let fired = Arc::new(AtomicU64::new(0));
        Arc::new(move |w, t| {
            if w == shard && t == tick && fired.fetch_add(1, Ordering::SeqCst) < times {
                panic!("injected test panic (shard {w}, tick {t})");
            }
        })
    }

    /// A fast-retry policy so tests don't sleep through real backoff.
    fn fast_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            max_restarts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            shard_timeout: None,
        }
    }

    #[test]
    fn jittered_backoff_is_bounded_and_reproducible() {
        let policy = SupervisorPolicy::default();
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            for attempt in 1..=8u32 {
                let a = policy.jittered_backoff(attempt, seed);
                let b = policy.jittered_backoff(attempt, seed);
                // Byte-reproducible per (seed, attempt).
                assert_eq!(a, b, "seed={seed} attempt={attempt}");
                assert!(
                    a >= policy.base_backoff && a <= policy.max_backoff,
                    "seed={seed} attempt={attempt}: {a:?} outside [base, max]"
                );
                // Never less than the un-jittered exponential floor
                // (until the ceiling compresses everything onto max).
                assert!(a >= policy.backoff(attempt).min(policy.max_backoff));
            }
        }
        // Different seeds actually fan out (the point of the jitter).
        let spread: std::collections::BTreeSet<Duration> = (0..16u64)
            .map(|seed| policy.jittered_backoff(2, seed))
            .collect();
        assert!(spread.len() > 1, "jitter produced identical backoffs");
    }

    #[test]
    fn parallel_matches_serial_at_every_worker_count() {
        let events = multi_pid_trace(5, 4);
        let trace = Trace::from_events(events);
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = Analyzer::new(filter.clone()).analyze(&trace);
        for workers in 1..=8 {
            let parallel = ParallelAnalyzer::new(filter.clone(), workers).analyze(&trace);
            assert_eq!(serial, parallel, "diverged at {workers} workers");
        }
    }

    #[test]
    fn parallel_serializes_identically_to_serial() {
        let trace = Trace::from_events(multi_pid_trace(3, 3));
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = serde_json::to_string(&Analyzer::new(filter.clone()).analyze(&trace)).unwrap();
        let parallel =
            serde_json::to_string(&ParallelAnalyzer::new(filter, 4).analyze(&trace)).unwrap();
        assert_eq!(serial, parallel, "reports must be byte-identical");
    }

    #[test]
    fn more_workers_than_pids_is_fine() {
        let trace = Trace::from_events(multi_pid_trace(2, 2));
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = Analyzer::new(filter.clone()).analyze(&trace);
        let parallel = ParallelAnalyzer::new(filter, 8).analyze(&trace);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let analyzer = ParallelAnalyzer::unfiltered(0);
        assert_eq!(analyzer.workers(), 1);
        assert_eq!(
            ParallelStreamingAnalyzer::new(TraceFilter::keep_all(), 0).workers(),
            1
        );
    }

    #[test]
    fn chunked_parallel_keeps_provenance_across_chunks() {
        // fd opened in chunk 1, duplicated in chunk 2, written via the
        // duplicate in chunk 3: per-chunk batch analysis would lose the
        // attribution, the sharded streaming analyzer must not.
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let mut open = TraceEvent::build(
            "open",
            2,
            vec![
                ArgValue::Path("/mnt/test/a".into()),
                ArgValue::Flags(0),
                ArgValue::Mode(0),
            ],
            3,
        );
        open.pid = 6;
        let mut dup = TraceEvent::build("dup", 32, vec![ArgValue::Fd(3)], 9);
        dup.pid = 6;
        let mut write = TraceEvent::build(
            "write",
            1,
            vec![ArgValue::Fd(9), ArgValue::Ptr(1), ArgValue::UInt(128)],
            128,
        );
        write.pid = 6;

        let mut sharded = ParallelStreamingAnalyzer::new(filter, 4);
        sharded.push_all(&[open]);
        sharded.push_all(&[dup]);
        sharded.push_all(&[write]);
        let report = sharded.finish();
        assert_eq!(report.input_coverage(ArgName::WriteCount).calls, 1);
        assert_eq!(report.filter_stats.kept, 3);
    }

    #[test]
    fn interim_report_merges_all_shards() {
        let mut sharded = ParallelStreamingAnalyzer::new(TraceFilter::keep_all(), 3);
        let events = multi_pid_trace(3, 1);
        let total = events.len();
        sharded.push_all(&events);
        assert_eq!(sharded.report().filter_stats.total, total);
    }

    #[test]
    fn parallel_metrics_snapshot_matches_serial_byte_for_byte() {
        // The acceptance bar: counters from a 4-worker run must be
        // *byte-identical* to a serial run over the same trace — large
        // enough to clear PARALLEL_THRESHOLD so real threads race on the
        // shared atomics.
        let events = multi_pid_trace(7, 40);
        assert!(events.len() >= PARALLEL_THRESHOLD);
        let trace = Trace::from_events(events);
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();

        let serial_metrics = Arc::new(PipelineMetrics::default());
        let serial = Analyzer::new(filter.clone())
            .with_metrics(Arc::clone(&serial_metrics))
            .analyze(&trace);

        let parallel_metrics = Arc::new(PipelineMetrics::default());
        let parallel = ParallelAnalyzer::new(filter, 4)
            .with_metrics(Arc::clone(&parallel_metrics))
            .analyze(&trace);

        assert_eq!(serial, parallel);
        let s = serial_metrics.snapshot();
        let p = parallel_metrics.snapshot();
        assert_eq!(s, p);
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            serde_json::to_string(&p).unwrap(),
            "metrics snapshots must be byte-identical"
        );
        assert!(s.events_read > 0 && s.total_dropped() > 0);
    }

    #[test]
    fn shared_metrics_across_chunked_parallel_runs() {
        // One metrics instance fed by a chunked sharded run still sums to
        // the trace totals.
        let events = multi_pid_trace(4, 3);
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let metrics = Arc::new(PipelineMetrics::default());
        let mut sharded =
            ParallelStreamingAnalyzer::new(filter, 3).with_metrics(Arc::clone(&metrics));
        for chunk in events.chunks(5) {
            sharded.push_all(chunk);
        }
        let report = sharded.finish();
        let snap = metrics.snapshot();
        assert_eq!(snap.events_read, events.len() as u64);
        // Filter-stage drops account for exactly the events not kept
        // (unknown-syscall drops happen after the filter, inside kept).
        assert_eq!(
            snap.events_read
                - snap.filter_dropped["wrong-mount"]
                - snap.filter_dropped["irrelevant-fd"],
            report.filter_stats.kept as u64
        );
        assert!(metrics.stage_timings().contains_key("analyze"));
    }

    #[test]
    fn owned_batches_match_serial_at_every_worker_count() {
        // The zero-copy hot path: chunks big enough to dispatch without
        // coalescing, pushed as owned vectors.
        let events = multi_pid_trace(7, 60);
        assert!(events.len() >= 2 * PARALLEL_THRESHOLD);
        let trace = Trace::from_events(events.clone());
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = serde_json::to_string(&Analyzer::new(filter.clone()).analyze(&trace)).unwrap();
        for workers in 1..=4 {
            let mut pool = ParallelStreamingAnalyzer::new(filter.clone(), workers);
            for chunk in events.chunks(PARALLEL_THRESHOLD) {
                pool.push_owned(chunk.to_vec());
            }
            let report = serde_json::to_string(&pool.finish()).unwrap();
            assert_eq!(serial, report, "diverged at {workers} workers");
        }
    }

    #[test]
    fn mixed_owned_and_borrowed_pushes_match_serial() {
        let events = multi_pid_trace(5, 8);
        let trace = Trace::from_events(events.clone());
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = Analyzer::new(filter.clone()).analyze(&trace);
        let mut pool = ParallelStreamingAnalyzer::new(filter, 3);
        let (left, right) = events.split_at(events.len() / 2);
        pool.push_all(left);
        pool.push_owned(right.to_vec());
        assert_eq!(serial, pool.finish());
    }

    #[test]
    fn interim_report_then_more_batches_matches_serial() {
        // A snapshot mid-stream must not disturb shard state: pushing
        // more events afterwards still converges on the serial report.
        let events = multi_pid_trace(7, 40);
        let trace = Trace::from_events(events.clone());
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = Analyzer::new(filter.clone()).analyze(&trace);
        let mut pool = ParallelStreamingAnalyzer::new(filter, 4);
        let (left, right) = events.split_at(events.len() / 3);
        pool.push_owned(left.to_vec());
        let interim = pool.report();
        assert_eq!(interim.filter_stats.total, left.len());
        pool.push_owned(right.to_vec());
        assert_eq!(serial, pool.finish());
    }

    #[test]
    fn empty_pool_finishes_to_default_report() {
        let pool = ParallelStreamingAnalyzer::new(TraceFilter::keep_all(), 4);
        assert_eq!(pool.finish(), AnalysisReport::default());
    }

    #[test]
    fn large_chunk_takes_threaded_path() {
        // Enough events to clear PARALLEL_THRESHOLD, so the scoped-thread
        // branch actually runs and must still match serial.
        let events = multi_pid_trace(7, 40);
        assert!(events.len() >= PARALLEL_THRESHOLD);
        let trace = Trace::from_events(events);
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = Analyzer::new(filter.clone()).analyze(&trace);
        let parallel = ParallelAnalyzer::new(filter, 4).analyze(&trace);
        assert_eq!(serial, parallel);
    }

    // ------------------------------------------------------------------
    // Supervision
    // ------------------------------------------------------------------

    #[test]
    fn one_shot_injected_panic_recovers_byte_identical_serial_branch() {
        // Small trace → the supervised serial branch runs on the calling
        // thread; the panic must be caught there too.
        let events = multi_pid_trace(5, 4);
        assert!(events.len() < PARALLEL_THRESHOLD);
        let trace = Trace::from_events(events);
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = serde_json::to_string(&Analyzer::new(filter.clone()).analyze(&trace)).unwrap();
        let analyzer = ParallelAnalyzer::new(filter, 3)
            .with_policy(fast_policy())
            .with_hook(panic_hook(1, 0, 1));
        let (report, failures) = analyzer.analyze_with_failures(&trace);
        assert_eq!(serial, serde_json::to_string(&report).unwrap());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].shard, 1);
        assert_eq!(failures[0].restarts, 1);
        assert!(!failures[0].gave_up);
        assert!(failures[0].last_error.contains("injected test panic"));
    }

    #[test]
    fn one_shot_injected_panic_recovers_byte_identical_threaded_branch() {
        let events = multi_pid_trace(7, 40);
        assert!(events.len() >= PARALLEL_THRESHOLD);
        let trace = Trace::from_events(events);
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = serde_json::to_string(&Analyzer::new(filter.clone()).analyze(&trace)).unwrap();
        let analyzer = ParallelAnalyzer::new(filter, 4)
            .with_policy(fast_policy())
            .with_hook(panic_hook(2, 0, 1));
        let (report, failures) = analyzer.analyze_with_failures(&trace);
        assert_eq!(serial, serde_json::to_string(&report).unwrap());
        assert_eq!(failures.len(), 1);
        assert!(!failures[0].gave_up);
    }

    #[test]
    fn one_shot_exhausted_restarts_degrade_to_partial_report() {
        let events = multi_pid_trace(4, 2);
        let trace = Trace::from_events(events);
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        // Shard 0 panics forever (far more charges than the budget).
        let analyzer = ParallelAnalyzer::new(filter.clone(), 2)
            .with_policy(fast_policy())
            .with_hook(panic_hook(0, 0, u64::MAX));
        let (report, failures) = analyzer.analyze_with_failures(&trace);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].shard, 0);
        assert_eq!(failures[0].restarts, fast_policy().max_restarts);
        assert!(failures[0].gave_up);
        // The surviving shard's pids are still fully analyzed.
        let odd_only: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.pid % 2 == 1)
            .cloned()
            .collect();
        let expected = Analyzer::new(filter).analyze(&Trace::from_events(odd_only));
        assert_eq!(report, expected);
    }

    #[test]
    fn pool_injected_panic_recovers_byte_identical() {
        let events = multi_pid_trace(7, 40);
        let trace = Trace::from_events(events.clone());
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = serde_json::to_string(&Analyzer::new(filter.clone()).analyze(&trace)).unwrap();
        // Panic on the second batch of shard 1: state replay (not just
        // the failing batch) must reconstruct batch 1's contribution.
        let mut pool = ParallelStreamingAnalyzer::new(filter, 3)
            .with_policy(fast_policy())
            .with_hook(panic_hook(1, 1, 1));
        for chunk in events.chunks(PARALLEL_THRESHOLD) {
            pool.push_owned(chunk.to_vec());
        }
        let (report, failures) = pool.finish_with_failures();
        assert_eq!(serial, serde_json::to_string(&report).unwrap());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].shard, 1);
        assert!(!failures[0].gave_up);
    }

    #[test]
    fn pool_metrics_not_double_counted_across_restart() {
        let events = multi_pid_trace(6, 40);
        let trace = Trace::from_events(events.clone());
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();

        let clean_metrics = Arc::new(PipelineMetrics::default());
        let clean = Analyzer::new(filter.clone())
            .with_metrics(Arc::clone(&clean_metrics))
            .analyze(&trace);

        let metrics = Arc::new(PipelineMetrics::default());
        let mut pool = ParallelStreamingAnalyzer::new(filter, 2)
            .with_metrics(Arc::clone(&metrics))
            .with_policy(fast_policy())
            .with_hook(panic_hook(0, 1, 1));
        for chunk in events.chunks(PARALLEL_THRESHOLD) {
            pool.push_owned(chunk.to_vec());
        }
        let report = pool.finish();
        assert_eq!(clean, report);
        let snap = metrics.snapshot();
        let clean_snap = clean_metrics.snapshot();
        // Restarted shard replays its events, but only the successful
        // incarnation's counters are absorbed: totals match a clean run.
        assert_eq!(snap.events_read, clean_snap.events_read);
        assert_eq!(snap.filter_dropped, clean_snap.filter_dropped);
        assert_eq!(snap.partition_records, clean_snap.partition_records);
        // And the recovery itself is accounted.
        assert_eq!(snap.shard_restarts, 1);
        assert_eq!(snap.shard_failures.len(), 1);
        assert!(!snap.shard_failures[0].gave_up);
    }

    #[test]
    fn pool_exhausted_restarts_degrade_to_partial_report() {
        let events = multi_pid_trace(4, 8);
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let mut pool = ParallelStreamingAnalyzer::new(filter.clone(), 2)
            .with_policy(fast_policy())
            .with_hook(panic_hook(1, 0, u64::MAX));
        pool.push_owned(events.clone());
        let (report, failures) = pool.finish_with_failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].gave_up);
        assert_eq!(failures[0].restarts, fast_policy().max_restarts);
        let even_only: Vec<_> = events.iter().filter(|e| e.pid % 2 == 0).cloned().collect();
        let expected = Analyzer::new(filter).analyze(&Trace::from_events(even_only));
        assert_eq!(report, expected);
    }

    #[test]
    fn pool_stall_watchdog_replays_stalled_shard() {
        let events = multi_pid_trace(6, 20);
        let trace = Trace::from_events(events.clone());
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = serde_json::to_string(&Analyzer::new(filter.clone()).analyze(&trace)).unwrap();
        // Shard 0 freezes for 5s on its first batch; the 50ms watchdog
        // must abandon and replay it rather than wait.
        let stalled = Arc::new(AtomicU64::new(0));
        let flag = Arc::clone(&stalled);
        let hook: ShardHook = Arc::new(move |w, t| {
            if w == 0 && t == 0 && flag.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_secs(5));
            }
        });
        let policy = fast_policy().with_shard_timeout(Duration::from_millis(50));
        let started = Instant::now();
        let mut pool = ParallelStreamingAnalyzer::new(filter, 2)
            .with_policy(policy)
            .with_hook(hook);
        pool.push_owned(events);
        let (report, failures) = pool.finish_with_failures();
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "watchdog must not wait out the stall"
        );
        assert_eq!(serial, serde_json::to_string(&report).unwrap());
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].shard, 0);
        assert!(!failures[0].gave_up);
        assert!(
            failures[0].last_error.contains("stalled"),
            "{}",
            failures[0].last_error
        );
    }

    #[test]
    fn interim_report_after_injected_panic_recovers() {
        let events = multi_pid_trace(5, 30);
        let trace = Trace::from_events(events.clone());
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let serial = Analyzer::new(filter.clone()).analyze(&trace);
        let mut pool = ParallelStreamingAnalyzer::new(filter, 2)
            .with_policy(fast_policy())
            .with_hook(panic_hook(0, 0, 1));
        pool.push_owned(events);
        let interim = pool.report();
        assert_eq!(interim.filter_stats.total, serial.filter_stats.total);
        assert_eq!(serial, pool.finish());
    }
}
