//! The shard supervisor: the one execution engine behind every
//! [`AnalysisSession`](crate::AnalysisSession).
//!
//! Every piece of state the analysis carries between events is
//! per-process: the trace filter's descriptor-provenance map and cwd
//! relevance live in a per-pid entry, and coverage accumulation is a sum
//! of per-event contributions. A trace can therefore be sharded *by pid*
//! with no cross-shard communication: shard `w` of `n` runs an ordinary
//! [`StreamingAnalyzer`] over the events with `pid % n == w`, in trace
//! order, and the shard reports are combined with
//! [`AnalysisReport::merge`]. Because every aggregate in a report is an
//! order-independent sum over `BTreeMap`s, the merged report is
//! **identical** to a serial run — same keys, same counts, same
//! serialized bytes — at any shard count.
//!
//! # Supervision
//!
//! [`ShardSupervisor`] owns, once, everything supervision needs:
//!
//! * a per-shard [`RestartLedger`] (restarts, `gave_up`, last error)
//!   that lasts the whole run, so [`SupervisorPolicy::max_restarts`] is
//!   a budget per shard per run and a shard that gave up stays given
//!   up;
//! * one *restore point* per shard: a clone of the shard's analyzer and
//!   private metrics at the last cut, seeded from the resumed
//!   checkpoint's pid states (or empty);
//! * the replay log: every batch since the last cut, shared as
//!   `Arc<EventBatch>` so retention costs pointers, not copies;
//! * metrics absorption: each incarnation counts into a private
//!   [`PipelineMetrics`], absorbed into the shared instance only at a
//!   checkpoint cut or at finish, from the restore point, so restarts
//!   never double-count;
//! * the [`ShardFailureRecord`] manifest.
//!
//! A panicking scan is caught with `catch_unwind`, turned into a
//! structured [`ShardError`], and the shard restarts after exponential
//! backoff: a copy of its restore point replays the log, so a recovered
//! run's report is byte-identical to a fault-free one. A shard that
//! exhausts its budget *degrades* the run instead of aborting it: the
//! report keeps what the shard had at its last restore point and omits
//! its pids from then on, and the manifest says so.
//!
//! # Cuts
//!
//! A *cut* syncs every live shard to the end of the log, clones each
//! one into its restore point, and clears the log. There is one cut and
//! three occasions for it:
//!
//! * **in memory**, whenever the log's retained batch bytes
//!   ([`EventBatch::heap_bytes`]) pass [`RESTORE_BUDGET`] — so the log,
//!   and with it the analysis's memory, stays bounded however long the
//!   trace;
//! * **at a checkpoint** ([`cut`](ShardSupervisor::cut)), which also
//!   *rebases* the shards: hook ticks count from zero again and the
//!   restore points' counters move into the shared metrics, so a
//!   checkpoint document's counters cover exactly its report;
//! * **at finish**, the same rebasing cut.
//!
//! The cumulative report is the resumed base report merged with every
//! restore point's report, and the cumulative pid states are the union
//! of theirs. An in-memory cut changes nothing a run prints: it only
//! moves the point a restart replays from. Shard threads persist across
//! cuts.
//!
//! # Transport
//!
//! The shards are `n` persistent `iocov-shard-N` threads, spawned on the
//! first dispatch and fed over bounded queues of depth
//! [`PIPELINE_DEPTH`]: every thread receives the same `Arc<EventBatch>`
//! and keeps only its own pids, so the caller decodes (or simulates)
//! batch *k + 1* while the shards analyze batch *k*. Batches smaller
//! than [`PARALLEL_THRESHOLD`] are coalesced first. A cut is a mark job
//! on the same queue, answered with the thread's clone. With
//! [`SupervisorPolicy::shard_timeout`] set, a shard that stops
//! heartbeating is declared stalled, abandoned and replayed like a
//! panicked one. Finish joins the live threads, so none outlives its
//! session: the next session's threads then reuse their stacks and
//! malloc arenas instead of racing their exit for fresh ones.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iocov_trace::EventBatch;

use crate::checkpoint::PidStateSnapshot;
use crate::coverage::AnalysisReport;
use crate::metrics::{PipelineMetrics, ShardFailureRecord};
use crate::streaming::StreamingAnalyzer;

/// A progress hook observed by every shard before it scans a batch:
/// `(shard, tick)`, where `tick` is the batch's ordinal counted from the
/// last checkpoint cut (in-memory cuts do not reset it). Fault
/// injection (`iocov-faults`) plugs in here to panic or stall a specific
/// shard at a specific point.
pub type ShardHook = Arc<dyn Fn(usize, u64) + Send + Sync>;

/// Restart budget, backoff curve, and stall watchdog for supervised
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Restarts allowed per shard per run before it is abandoned
    /// (`gave_up`).
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per restart.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// If set, a shard with no heartbeat progress for this long (while
    /// the supervisor is waiting on it) is declared stalled and
    /// replayed. `None` waits on a shard for as long as it takes.
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
/// byte-reproducible, which is all the seeded test schedules need.
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

/// Whether the current thread is inside a shard scan — a panic raised
/// here is caught, converted into a structured [`ShardError::Panicked`],
/// and handled by the supervisor: restart or degrade. Binaries can
/// install a panic hook that consults this to keep caught panics off
/// stderr; the message still reaches the failure manifest.
#[must_use]
pub fn in_supervised_scan() -> bool {
    IN_SUPERVISED_SCAN.with(std::cell::Cell::get)
}

/// RAII: marks the current thread supervised for the guard's lifetime
/// (cleared on unwind too, so a panic leaves the thread unmarked once
/// the supervisor has taken over).
struct SupervisedScanGuard;

impl SupervisedScanGuard {
    fn enter() -> Self {
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
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Chunks smaller than this are coalesced in the caller's buffer before
/// a threaded dispatch; per-batch channel overhead costs more than
/// analyzing this few events.
pub const PARALLEL_THRESHOLD: usize = 1024;

/// Bounded depth of each shard thread's job queue: the caller may run at
/// most this many batches ahead of the slowest shard.
pub const PIPELINE_DEPTH: usize = 2;

/// Batch bytes ([`EventBatch::heap_bytes`]) the replay log may retain
/// before the supervisor cuts it in memory. The log then peaks at this
/// plus one batch, whatever the trace's length. A smaller budget cuts
/// more often, and every cut clones each shard's analyzer, at a cost that
/// grows with the shard's pids.
pub const RESTORE_BUDGET: usize = 4 << 20;

/// One shard's restart ledger, kept for the whole run.
#[derive(Debug, Clone, Default)]
struct RestartLedger {
    restarts: u32,
    gave_up: bool,
    last_error: String,
}

impl RestartLedger {
    /// Charges one failure against `policy.max_restarts`. A failure at
    /// the budget gives up, leaving the count at the budget, and returns
    /// `false`; any other failure counts a restart, records it in
    /// `metrics`, sleeps the backoff and returns `true`.
    fn charge(
        &mut self,
        error: String,
        policy: &SupervisorPolicy,
        metrics: Option<&PipelineMetrics>,
    ) -> bool {
        self.last_error = error;
        if self.restarts >= policy.max_restarts {
            self.gave_up = true;
            return false;
        }
        self.restarts += 1;
        if let Some(metrics) = metrics {
            metrics.record_shard_restart();
        }
        std::thread::sleep(policy.backoff(self.restarts));
        true
    }

    /// Whether the shard has given up.
    fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Shard `shard`'s failure-manifest record, if it ever failed.
    fn record(&self, shard: usize) -> Option<ShardFailureRecord> {
        (self.restarts > 0 || self.gave_up).then(|| ShardFailureRecord {
            shard,
            restarts: self.restarts,
            gave_up: self.gave_up,
            last_error: self.last_error.clone(),
        })
    }
}

/// One shard incarnation: an analyzer over the shard's pids, its private
/// metrics, and its tick. A live incarnation scans batches; a *restore
/// point* is a clone of one, taken at a cut, that restarts copy from.
struct Incarnation {
    analyzer: StreamingAnalyzer,
    /// Absorbed into the shared metrics only from a restore point at a
    /// checkpoint cut or at finish, so a panicked incarnation's
    /// half-counted events die with it.
    local: Option<Arc<PipelineMetrics>>,
    /// Batches scanned since the last checkpoint cut; also the tick the
    /// hook sees next.
    seen: usize,
}

impl Incarnation {
    /// A fresh incarnation seeded with `states`, counting into a private
    /// metrics instance when the run has metrics.
    fn seeded(
        empty: &StreamingAnalyzer,
        states: &BTreeMap<u32, PidStateSnapshot>,
        metered: bool,
    ) -> Self {
        let mut analyzer = empty.clone();
        analyzer.restore_pid_states(states);
        let mut incarnation = Incarnation {
            analyzer,
            local: None,
            seen: 0,
        };
        if metered {
            incarnation.count_into(PipelineMetrics::default());
        }
        incarnation
    }

    fn count_into(&mut self, metrics: PipelineMetrics) {
        let metrics = Arc::new(metrics);
        self.analyzer.set_metrics(Arc::clone(&metrics));
        self.local = Some(metrics);
    }

    /// Scans shard `w` of `n`'s events out of one batch, walking the
    /// shared columns by reference.
    fn scan(&mut self, batch: &EventBatch, w: usize, n: usize, hook: Option<&ShardHook>) {
        if let Some(hook) = hook {
            hook(w, self.seen as u64);
        }
        self.seen += 1;
        // Each shard times its own scan, so the "analyze" stage total is
        // summed across shards (CPU time, not wall clock).
        let _timer = self.local.as_deref().map(|m| m.time_stage("analyze"));
        if n == 1 {
            self.analyzer.push_batch(batch, |_| true);
        } else {
            self.analyzer.push_batch(batch, |pid| pid as usize % n == w);
        }
    }

    /// A deep copy that counts on apart from `self`: the analyzer, and a
    /// private metrics instance holding the same counts.
    fn copy(&self) -> Incarnation {
        let mut copy = Incarnation {
            analyzer: self.analyzer.clone(),
            local: None,
            seen: self.seen,
        };
        if let Some(local) = &self.local {
            let counters = PipelineMetrics::default();
            counters.absorb(&local.snapshot());
            counters.absorb_stage_timings(&local.stage_timings());
            copy.count_into(counters);
        }
        copy
    }

    /// Starts a checkpoint epoch: ticks count from zero and counters
    /// from empty. Returns the counters of the epoch that ended.
    fn rebase(&mut self) -> Option<Arc<PipelineMetrics>> {
        self.seen = 0;
        let ended = self.local.take();
        if ended.is_some() {
            self.count_into(PipelineMetrics::default());
        }
        ended
    }

    /// A cut of this live incarnation: its restore point, after which
    /// the incarnation itself rebases if the cut is a checkpoint.
    fn mark(&mut self, rebase: bool) -> Incarnation {
        let point = self.copy();
        if rebase {
            self.rebase();
        }
        point
    }
}

/// A job on a shard thread's queue.
enum Job {
    Scan(Arc<EventBatch>),
    /// Cut: reply with a restore point ([`Incarnation::mark`]).
    Mark {
        rebase: bool,
    },
}

/// A shard thread's reply, sent on its done channel.
enum Reply {
    Marked(Box<Incarnation>),
    Panicked(String),
}

/// One live shard thread as the supervisor sees it.
struct Slot {
    /// Job queue sender; `None` once the shard is abandoned.
    jobs: Option<SyncSender<Job>>,
    /// Reply channel from the thread.
    done: Receiver<Reply>,
    /// Bumped by the thread after every job — the liveness signal the
    /// stall watchdog reads.
    heartbeat: Arc<AtomicU64>,
    /// Log batches already delivered to this incarnation.
    sent: usize,
    /// The thread, joined at finish; an abandoned slot drops it and
    /// lets a stalled thread exit on its own.
    thread: Option<JoinHandle<()>>,
}

impl Slot {
    /// A slot with no thread behind it (the shard gave up): every
    /// interaction sees a dead channel.
    fn dead() -> Self {
        let (_, done) = sync_channel(1);
        Slot {
            jobs: None,
            done,
            heartbeat: Arc::new(AtomicU64::new(0)),
            sent: 0,
            thread: None,
        }
    }
}

/// Supervised pid-sharded analysis; see the [module docs](self).
pub(crate) struct ShardSupervisor {
    metrics: Option<Arc<PipelineMetrics>>,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
    /// Log bytes that trigger an in-memory cut ([`RESTORE_BUDGET`]).
    pub(crate) budget: usize,
    /// One entry per shard, for the whole run.
    ledger: Vec<RestartLedger>,
    /// Batches since the last cut — the replay log.
    log: Vec<Arc<EventBatch>>,
    /// [`EventBatch::heap_bytes`] summed over the log.
    log_bytes: usize,
    /// The most `log_bytes` has ever been.
    pub(crate) log_peak: usize,
    /// The largest batch the log has held.
    pub(crate) batch_peak: usize,
    /// The resumed checkpoint's report (or empty), merged into every
    /// cumulative report.
    base_report: AnalysisReport,
    /// Each shard's restore point: its state at the last cut.
    restore: Vec<Incarnation>,
    /// Live shard threads; spawned on the first dispatch.
    slots: Vec<Slot>,
    /// Coalescing buffer for batches below [`PARALLEL_THRESHOLD`].
    pending: EventBatch,
}

impl ShardSupervisor {
    /// A supervisor over `shards` pid shards, each a copy of the `empty`
    /// analyzer, whose base is `seed`'s `(report, pid states)`, or empty.
    pub(crate) fn new(
        empty: StreamingAnalyzer,
        shards: usize,
        policy: SupervisorPolicy,
        hook: Option<ShardHook>,
        metrics: Option<Arc<PipelineMetrics>>,
        seed: Option<(AnalysisReport, BTreeMap<u32, PidStateSnapshot>)>,
    ) -> Self {
        let n = shards.max(1);
        let (base_report, base_states) = seed.unwrap_or_default();
        let restore = (0..n)
            .map(|w| {
                let states: BTreeMap<u32, PidStateSnapshot> = base_states
                    .iter()
                    .filter(|(&pid, _)| pid as usize % n == w)
                    .map(|(&pid, state)| (pid, state.clone()))
                    .collect();
                Incarnation::seeded(&empty, &states, metrics.is_some())
            })
            .collect();
        ShardSupervisor {
            metrics,
            policy,
            hook,
            budget: RESTORE_BUDGET,
            ledger: vec![RestartLedger::default(); n],
            log: Vec::new(),
            log_bytes: 0,
            log_peak: 0,
            batch_peak: 0,
            base_report,
            restore,
            slots: Vec::new(),
            pending: EventBatch::new(),
        }
    }

    fn shards(&self) -> usize {
        self.ledger.len()
    }

    /// Feeds one batch. A full batch goes out as it is, after any
    /// coalesced remainder as a batch of its own; a small one joins the
    /// coalescing buffer.
    pub(crate) fn push(&mut self, batch: EventBatch) {
        if batch.len() >= PARALLEL_THRESHOLD {
            self.flush_pending();
            self.dispatch(Arc::new(batch));
        } else if self.pending.is_empty() {
            self.pending = batch;
        } else {
            self.pending.append_batch(&batch);
            if self.pending.len() >= PARALLEL_THRESHOLD {
                self.flush_pending();
            }
        }
        self.cut_over_budget();
    }

    /// A checkpoint cut: the cumulative report and pid states over
    /// everything pushed so far.
    pub(crate) fn cut(&mut self) -> (AnalysisReport, BTreeMap<u32, PidStateSnapshot>) {
        self.mark(true);
        let mut states = BTreeMap::new();
        for point in &self.restore {
            states.extend(point.analyzer.pid_states());
        }
        (self.report(), states)
    }

    /// Drains the supervisor: the final report and the shard-failure
    /// manifest (also recorded in the metrics), one record per shard
    /// that restarted or gave up.
    pub(crate) fn finish(mut self) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        self.mark(true);
        // Every live thread has just answered the mark, so it exits as
        // soon as its queue closes.
        for slot in &mut self.slots {
            slot.jobs = None;
            if let Some(thread) = slot.thread.take() {
                let _ = thread.join();
            }
        }
        let failures: Vec<ShardFailureRecord> = self
            .ledger
            .iter()
            .enumerate()
            .filter_map(|(w, ledger)| ledger.record(w))
            .collect();
        if let Some(metrics) = &self.metrics {
            for failure in &failures {
                metrics.record_shard_failure(failure.clone());
            }
        }
        (self.report(), failures)
    }

    /// The base report merged with every restore point's.
    fn report(&self) -> AnalysisReport {
        let mut report = self.base_report.clone();
        for point in &self.restore {
            report.merge(&point.analyzer.report());
        }
        report
    }

    /// Appends one batch to the replay log.
    fn retain(&mut self, batch: Arc<EventBatch>) {
        let bytes = batch.heap_bytes();
        self.log_bytes += bytes;
        self.log_peak = self.log_peak.max(self.log_bytes);
        self.batch_peak = self.batch_peak.max(bytes);
        self.log.push(batch);
    }

    /// Cuts in memory once the log has outgrown the budget.
    fn cut_over_budget(&mut self) {
        if self.log_bytes > self.budget {
            self.mark(false);
        }
    }

    /// The one cut (see the [module docs](self#cuts)): flushes the
    /// coalescing buffer, brings each live shard to the end of the log
    /// and makes its clone the shard's restore point, then clears the
    /// log. A shard that panics or stalls, even now, is restarted and
    /// replayed first. A rebasing cut then moves the restore points'
    /// counters into the shared metrics.
    fn mark(&mut self, rebase: bool) {
        self.flush_pending();
        let target = self.log.len();
        for w in 0..self.slots.len() {
            loop {
                self.deliver_up_to(w, target);
                if self.ledger[w].gave_up() {
                    break;
                }
                match self
                    .offer(w, Job::Mark { rebase })
                    .and_then(|()| self.await_mark(w))
                {
                    Ok(point) => {
                        self.restore[w] = *point;
                        break;
                    }
                    Err(error) => self.recover(w, &error),
                }
            }
        }
        if rebase {
            for point in &mut self.restore {
                if let (Some(shared), Some(ended)) = (&self.metrics, point.rebase()) {
                    shared.absorb(&ended.snapshot());
                    shared.absorb_stage_timings(&ended.stage_timings());
                }
            }
        }
        self.log.clear();
        self.log_bytes = 0;
        for slot in &mut self.slots {
            slot.sent = 0;
        }
    }

    /// Charges one failure of shard `w` to its run-long budget. Returns
    /// `true` once the backoff has passed and the shard may restart,
    /// `false` when it has given up.
    fn charge(&mut self, w: usize, error: String) -> bool {
        self.ledger[w].charge(error, &self.policy, self.metrics.as_deref())
    }

    /// Spawns one thread running a copy of shard `w`'s restore point.
    fn spawn_slot(&self, w: usize) -> std::io::Result<Slot> {
        let n = self.shards();
        let (jobs, queue) = sync_channel::<Job>(PIPELINE_DEPTH);
        let (replies, done) = sync_channel::<Reply>(1);
        let heartbeat = Arc::new(AtomicU64::new(0));
        let mut incarnation = self.restore[w].copy();
        let beat = Arc::clone(&heartbeat);
        let hook = self.hook.clone();
        let thread = std::thread::Builder::new()
            .name(format!("iocov-shard-{w}"))
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let _supervised = SupervisedScanGuard::enter();
                    while let Ok(job) = queue.recv() {
                        match job {
                            Job::Scan(batch) => incarnation.scan(&batch, w, n, hook.as_ref()),
                            Job::Mark { rebase } => {
                                let point = Box::new(incarnation.mark(rebase));
                                if replies.send(Reply::Marked(point)).is_err() {
                                    return;
                                }
                            }
                        }
                        beat.fetch_add(1, Ordering::Relaxed);
                    }
                }));
                if let Err(payload) = result {
                    let _ = replies.send(Reply::Panicked(panic_message(payload.as_ref())));
                }
            })?;
        Ok(Slot {
            jobs: Some(jobs),
            done,
            heartbeat,
            sent: 0,
            thread: Some(thread),
        })
    }

    /// A live slot for shard `w`, charging the budget on spawn failure;
    /// a shard that has given up gets a dead slot.
    fn spawned_slot(&mut self, w: usize) -> Slot {
        while !self.ledger[w].gave_up() {
            match self.spawn_slot(w) {
                Ok(slot) => return slot,
                Err(e) => {
                    self.charge(w, format!("spawn shard worker: {e}"));
                }
            }
        }
        Slot::dead()
    }

    /// Charges a failure of shard `w`'s thread, then respawns it from
    /// its restore point (the caller replays the log into it) or
    /// abandons it. Dropping the old slot's sender lets a
    /// live-but-stalled thread drain and exit on its own.
    fn recover(&mut self, w: usize, error: &ShardError) {
        self.slots[w] = if self.charge(w, error.to_string()) {
            self.spawned_slot(w)
        } else {
            Slot::dead()
        };
    }

    /// Waits for `event` from shard `w`'s thread, declaring it stalled
    /// once its heartbeat has not moved for the policy's shard timeout.
    fn watch<T>(
        &self,
        w: usize,
        mut event: impl FnMut() -> Result<T, Option<ShardError>>,
    ) -> Result<T, ShardError> {
        let heartbeat = &self.slots[w].heartbeat;
        let mut last_beat = heartbeat.load(Ordering::Relaxed);
        let mut progress_at = Instant::now();
        loop {
            match event() {
                Ok(value) => return Ok(value),
                Err(Some(error)) => return Err(error),
                Err(None) => {}
            }
            if let Some(limit) = self.policy.shard_timeout {
                let beat = heartbeat.load(Ordering::Relaxed);
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

    /// Offers one job to shard `w`'s queue, spinning while it is full
    /// and detecting a dead thread.
    fn offer(&self, w: usize, job: Job) -> Result<(), ShardError> {
        let Some(jobs) = &self.slots[w].jobs else {
            return Err(ShardError::Panicked("worker unavailable".into()));
        };
        let mut job = Some(job);
        self.watch(w, || {
            match jobs.try_send(job.take().expect("job present until sent")) {
                Ok(()) => Ok(()),
                Err(TrySendError::Disconnected(_)) => Err(Some(self.reap_exit(w))),
                Err(TrySendError::Full(back)) => {
                    job = Some(back);
                    std::thread::sleep(Duration::from_micros(200));
                    Err(None)
                }
            }
        })
    }

    /// Fetches the exit message of a thread whose queue disconnected.
    fn reap_exit(&self, w: usize) -> ShardError {
        // The thread drops its queue receiver (disconnecting us) during
        // unwind, then sends its exit message; give it a moment.
        match self.slots[w].done.recv_timeout(Duration::from_secs(5)) {
            Ok(Reply::Panicked(msg)) => ShardError::Panicked(msg),
            Ok(Reply::Marked(_)) => ShardError::Panicked("worker exited after a mark".into()),
            Err(_) => ShardError::Panicked("worker terminated without reporting".into()),
        }
    }

    /// Waits for shard `w`'s reply to a mark job.
    fn await_mark(&self, w: usize) -> Result<Box<Incarnation>, ShardError> {
        let done = &self.slots[w].done;
        self.watch(w, || match done.recv_timeout(Duration::from_millis(20)) {
            Ok(Reply::Marked(point)) => Ok(point),
            Ok(Reply::Panicked(msg)) => Err(Some(ShardError::Panicked(msg))),
            Err(RecvTimeoutError::Disconnected) => Err(Some(ShardError::Panicked(
                "worker terminated without reporting".into(),
            ))),
            Err(RecvTimeoutError::Timeout) => Err(None),
        })
    }

    /// Delivers log batches to shard `w` until its incarnation has seen
    /// the first `target` (restarting and replaying as needed).
    fn deliver_up_to(&mut self, w: usize, target: usize) {
        while !self.ledger[w].gave_up() && self.slots[w].sent < target {
            let idx = self.slots[w].sent;
            match self.offer(w, Job::Scan(Arc::clone(&self.log[idx]))) {
                Ok(()) => self.slots[w].sent = idx + 1,
                Err(error) => self.recover(w, &error),
            }
        }
    }

    /// Logs one batch and hands it to every shard thread. Blocks only
    /// when a queue is [`PIPELINE_DEPTH`] batches behind — the
    /// backpressure that bounds memory to `depth × batch` per shard
    /// (plus the `Arc`-shared log, which the budget bounds).
    fn dispatch(&mut self, batch: Arc<EventBatch>) {
        if self.slots.is_empty() {
            self.slots = (0..self.shards()).map(|w| self.spawned_slot(w)).collect();
        }
        self.retain(batch);
        let target = self.log.len();
        for w in 0..self.shards() {
            self.deliver_up_to(w, target);
        }
    }

    fn flush_pending(&mut self) {
        if !self.pending.is_empty() {
            let batch = Arc::new(std::mem::take(&mut self.pending));
            self.dispatch(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArgName, Iocov, MetricsSnapshot, PipelineBuilder, TraceFilter};
    use iocov_trace::{ArgValue, Trace, TraceEvent};

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
    /// tick `tick`, then disarms (mirrors the CLI's `--inject-panic`
    /// drill on `iocov_faults::DrillTrigger`, which this crate cannot
    /// depend on).
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

    fn filter() -> TraceFilter {
        TraceFilter::mount_point("/mnt/test").unwrap()
    }

    fn serial(events: &[TraceEvent]) -> AnalysisReport {
        Iocov::with_filter(filter()).analyze(&Trace::from_events(events.to_vec()))
    }

    /// The serial report with its counters: one metered
    /// `StreamingAnalyzer` over every event.
    fn serial_metered(events: &[TraceEvent]) -> (AnalysisReport, MetricsSnapshot) {
        let metrics = Arc::new(PipelineMetrics::default());
        let mut analyzer = StreamingAnalyzer::new(filter()).with_metrics(Arc::clone(&metrics));
        analyzer.push_all(events);
        (analyzer.finish(), metrics.snapshot())
    }

    fn json(report: &AnalysisReport) -> String {
        serde_json::to_string(report).unwrap()
    }

    /// The supervision referees run at the real budget and at zero,
    /// which cuts the log in memory after every batch.
    const BUDGETS: [usize; 2] = [RESTORE_BUDGET, 0];

    /// A session at `jobs` shards with the fast-retry policy.
    fn builder(jobs: usize) -> PipelineBuilder {
        PipelineBuilder::new(filter())
            .jobs(jobs)
            .policy(fast_policy())
    }

    /// Feeds `events` in `chunk`-sized owned batches and finishes.
    fn run_chunked(
        builder: PipelineBuilder,
        events: &[TraceEvent],
        chunk: usize,
    ) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        let mut session = builder.build_session();
        for part in events.chunks(chunk.max(1)) {
            session.feed_owned(part.to_vec());
        }
        session.finish()
    }

    #[test]
    fn zero_shards_clamp_to_one_shard() {
        let supervisor = ShardSupervisor::new(
            StreamingAnalyzer::unfiltered(),
            0,
            SupervisorPolicy::default(),
            None,
            None,
            None,
        );
        assert_eq!(supervisor.shards(), 1);
    }

    #[test]
    fn one_job_scans_on_a_shard_thread() {
        // With or without a stall watchdog, a one-job session scans on
        // `iocov-shard-0`, never the caller.
        let events = multi_pid_trace(3, 4);
        let watched = fast_policy().with_shard_timeout(Duration::from_secs(60));
        for (cell, session) in [
            ("watchdog", builder(1).policy(watched)),
            ("supervised", builder(1)),
        ] {
            let names = Arc::new(std::sync::Mutex::new(std::collections::BTreeSet::new()));
            let seen = Arc::clone(&names);
            let hook: ShardHook = Arc::new(move |_, _| {
                let name = std::thread::current().name().map(str::to_owned);
                seen.lock().unwrap().insert(name);
            });
            let (report, _) = run_chunked(session.hook(hook), &events, 7);
            assert_eq!(json(&serial(&events)), json(&report), "{cell}");
            let names = names.lock().unwrap();
            assert_eq!(
                names.iter().collect::<Vec<_>>(),
                [&Some("iocov-shard-0".to_owned())],
                "{cell}"
            );
        }
    }

    #[test]
    fn sharded_matches_serial_at_every_job_count() {
        // Byte-identical at 1–8 shards, with more shards than pids at
        // the top end, both as one whole-trace batch and chunked small
        // enough to coalesce.
        let events = multi_pid_trace(5, 4);
        let expected = json(&serial(&events));
        for jobs in 1..=8 {
            for chunk in [events.len(), 7] {
                let (report, failures) = run_chunked(builder(jobs), &events, chunk);
                assert!(failures.is_empty());
                assert_eq!(
                    expected,
                    json(&report),
                    "diverged at {jobs} jobs, chunk {chunk}"
                );
            }
        }
        let few_pids = multi_pid_trace(2, 2);
        let (report, _) = run_chunked(builder(8), &few_pids, few_pids.len());
        assert_eq!(serial(&few_pids), report);
    }

    #[test]
    fn owned_batches_above_the_threshold_match_serial() {
        // Batches big enough to dispatch without coalescing.
        let events = multi_pid_trace(7, 60);
        assert!(events.len() >= 2 * PARALLEL_THRESHOLD);
        let expected = json(&serial(&events));
        for jobs in 1..=4 {
            let (report, _) = run_chunked(builder(jobs), &events, PARALLEL_THRESHOLD);
            assert_eq!(expected, json(&report), "diverged at {jobs} jobs");
        }
    }

    #[test]
    fn columnar_and_owned_feeds_mix() {
        let events = multi_pid_trace(5, 8);
        let (left, right) = events.split_at(events.len() / 2);
        for jobs in [1, 3] {
            let mut session = builder(jobs).build_session();
            session.feed(EventBatch::from_events(left));
            session.feed_owned(right.to_vec());
            assert_eq!(
                serial(&events),
                session.finish().0,
                "diverged at {jobs} jobs"
            );
        }
    }

    #[test]
    fn chunked_feed_keeps_provenance_across_batches() {
        // fd opened in batch 1, duplicated in batch 2, written via the
        // duplicate in batch 3: per-batch analysis would lose the
        // attribution, the shard's resident analyzer must not.
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
        for jobs in [1, 4] {
            let mut session = builder(jobs).build_session();
            for event in [&open, &dup, &write] {
                session.feed_owned(vec![event.clone()]);
            }
            let (report, _) = session.finish();
            assert_eq!(report.input_coverage(ArgName::WriteCount).calls, 1);
            assert_eq!(report.filter_stats.kept, 3);
        }
    }

    #[test]
    fn snapshot_mid_stream_then_more_batches_matches_serial() {
        // A snapshot is a cut: it must merge every shard and leave the
        // stream able to continue to the serial report.
        let events = multi_pid_trace(7, 40);
        let (left, right) = events.split_at(events.len() / 3);
        for jobs in [1, 3, 4] {
            let mut session = builder(jobs).build_session();
            session.feed_owned(left.to_vec());
            assert_eq!(session.snapshot().filter_stats.total, left.len());
            session.feed_owned(right.to_vec());
            assert_eq!(
                serial(&events),
                session.finish().0,
                "diverged at {jobs} jobs"
            );
        }
    }

    #[test]
    fn empty_session_finishes_to_default_report() {
        for jobs in [1, 4] {
            let (report, failures) = builder(jobs).build_session().finish();
            assert_eq!(report, AnalysisReport::default());
            assert!(failures.is_empty());
        }
    }

    #[test]
    fn parallel_metrics_snapshot_matches_serial_byte_for_byte() {
        // The acceptance bar: counters from a 4-shard run must be
        // *byte-identical* to a serial run over the same trace — large
        // enough to clear PARALLEL_THRESHOLD so real threads race on the
        // shared atomics.
        let events = multi_pid_trace(7, 40);
        assert!(events.len() >= PARALLEL_THRESHOLD);
        let (expected, s) = serial_metered(&events);
        assert!(s.events_read > 0 && s.total_dropped() > 0);
        let mut snapshots = Vec::new();
        for jobs in [1, 4] {
            let metrics = Arc::new(PipelineMetrics::default());
            let mut session = builder(jobs).metrics(Arc::clone(&metrics)).build_session();
            session.feed_owned(events.clone());
            assert_eq!(expected, session.finish().0);
            snapshots.push(metrics.snapshot());
        }
        assert_eq!(
            serde_json::to_string(&snapshots[0]).unwrap(),
            serde_json::to_string(&snapshots[1]).unwrap(),
            "metrics snapshots must be byte-identical"
        );
        // The batch-shape sums are recorded by the session's feed, which
        // the whole-trace analyzer does not have; every other counter
        // matches it.
        let mut p = snapshots.swap_remove(0);
        assert_eq!(p.batched_events, events.len() as u64);
        (p.batched_events, p.allocs_estimated) = (0, 0);
        assert_eq!(s, p);
    }

    #[test]
    fn shared_metrics_across_chunked_feeds_sum_to_trace_totals() {
        let events = multi_pid_trace(4, 3);
        for jobs in [1, 3] {
            let metrics = Arc::new(PipelineMetrics::default());
            let (report, _) = run_chunked(builder(jobs).metrics(Arc::clone(&metrics)), &events, 5);
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
    }

    // ------------------------------------------------------------------
    // Supervision
    // ------------------------------------------------------------------

    #[test]
    fn injected_panic_replays_byte_identical() {
        // Panic on the second batch of the shard: state replay (not
        // just the failing batch) must reconstruct batch 0's
        // contribution. Small batches below the threshold exercise
        // coalescing; large ones do not.
        // At a zero budget the log is cut after every batch, so the
        // restart resumes from the restore point taken after batch 0.
        let events = multi_pid_trace(7, 40);
        let expected = json(&serial(&events));
        for ((jobs, shard, chunk), budget) in [
            (1, 0, events.len() / 3),
            (3, 1, PARALLEL_THRESHOLD),
            (3, 1, events.len() / 3),
        ]
        .into_iter()
        .flat_map(|cell| BUDGETS.map(|budget| (cell, budget)))
        {
            let (report, failures) = run_chunked(
                builder(jobs)
                    .restore_budget(budget)
                    .hook(panic_hook(shard, 1, 1)),
                &events,
                chunk,
            );
            assert_eq!(
                expected,
                json(&report),
                "diverged at {jobs} jobs, budget {budget}"
            );
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].shard, shard);
            assert_eq!(failures[0].restarts, 1);
            assert!(!failures[0].gave_up);
            assert!(failures[0].last_error.contains("injected test panic"));
        }
    }

    #[test]
    fn metrics_not_double_counted_across_restart() {
        let events = multi_pid_trace(6, 40);
        let (clean, clean_snap) = serial_metered(&events);
        for (jobs, budget) in [1, 2].into_iter().flat_map(|j| BUDGETS.map(|b| (j, b))) {
            let metrics = Arc::new(PipelineMetrics::default());
            let (report, _) = run_chunked(
                builder(jobs)
                    .restore_budget(budget)
                    .metrics(Arc::clone(&metrics))
                    .hook(panic_hook(0, 1, 1)),
                &events,
                PARALLEL_THRESHOLD,
            );
            assert_eq!(clean, report);
            let snap = metrics.snapshot();
            // The restarted shard replays its events, but only the
            // counters of its restore point and replay are absorbed.
            assert_eq!(snap.events_read, clean_snap.events_read);
            assert_eq!(snap.filter_dropped, clean_snap.filter_dropped);
            assert_eq!(snap.partition_records, clean_snap.partition_records);
            // And the recovery itself is accounted.
            assert_eq!(snap.shard_restarts, 1);
            assert_eq!(snap.shard_failures.len(), 1);
            assert!(!snap.shard_failures[0].gave_up);
        }
    }

    #[test]
    fn exhausted_budget_degrades_to_partial_report() {
        // The shard panics forever (far more charges than the budget):
        // its pids go missing, every other shard's are fully analyzed,
        // and no half-counted incarnation leaks into the counters.
        let events = multi_pid_trace(4, 8);
        for (jobs, shard) in [(1, 0), (2, 0), (2, 1)] {
            let metrics = Arc::new(PipelineMetrics::default());
            let (report, failures) = run_chunked(
                builder(jobs)
                    .metrics(Arc::clone(&metrics))
                    .hook(panic_hook(shard, 0, u64::MAX)),
                &events,
                events.len(),
            );
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].shard, shard);
            assert!(failures[0].gave_up);
            assert_eq!(failures[0].restarts, fast_policy().max_restarts);
            let survivors: Vec<_> = events
                .iter()
                .filter(|e| e.pid as usize % jobs != shard)
                .cloned()
                .collect();
            assert_eq!(report, serial(&survivors), "jobs {jobs}, shard {shard}");
            let snap = metrics.snapshot();
            assert_eq!(snap.shard_restarts, u64::from(fast_policy().max_restarts));
            assert_eq!(snap.shard_failures.len(), 1);
            assert_eq!(snap.events_read, survivors.len() as u64);
        }
    }

    #[test]
    fn restart_budget_is_per_shard_per_run_across_cuts() {
        // Checkpoint cuts between batches and a panic on every batch's
        // first tick: the shard must spend exactly its budget once, give
        // up once, and count nothing afterwards, at every job count —
        // later cuts must not hand it a fresh ledger.
        let events = multi_pid_trace(2, 9);
        let every = events.len() / 6;
        for (jobs, budget) in [1, 2].into_iter().flat_map(|j| BUDGETS.map(|b| (j, b))) {
            let metrics = Arc::new(PipelineMetrics::default());
            let mut session = builder(jobs)
                .restore_budget(budget)
                .metrics(Arc::clone(&metrics))
                .hook(panic_hook(0, 0, 99))
                .build_session();
            for part in events.chunks(every) {
                session.feed_owned(part.to_vec());
                let _ = session.cut();
            }
            let (report, failures) = session.finish();
            let max = fast_policy().max_restarts;
            assert_eq!(failures.len(), 1, "jobs {jobs}: {failures:?}");
            assert_eq!(failures[0].shard, 0);
            assert_eq!(failures[0].restarts, max, "jobs {jobs}");
            assert!(failures[0].gave_up);
            let snap = metrics.snapshot();
            assert_eq!(snap.shard_restarts, u64::from(max), "jobs {jobs}");
            assert_eq!(snap.shard_failures.len(), 1, "jobs {jobs}");
            // Shard 0 gave up on its first batch, so none of its pids
            // were ever counted; shard 1's (jobs 2) all were.
            let survivors: Vec<_> = events
                .iter()
                .filter(|e| !(e.pid as usize).is_multiple_of(jobs))
                .cloned()
                .collect();
            assert_eq!(report, serial(&survivors), "jobs {jobs}");
            assert_eq!(report.filter_stats.total, survivors.len());
        }
    }

    #[test]
    fn stall_watchdog_replays_stalled_shard() {
        let events = multi_pid_trace(6, 60);
        let expected = json(&serial(&events));
        // Shard 0 freezes for 5s on its first batch; the 50ms watchdog
        // must abandon and replay it rather than wait. As one batch the
        // stall surfaces at finish; in three, at a zero budget, it
        // surfaces at the in-memory cut after the first.
        for ((jobs, budget), chunk) in [1, 2]
            .into_iter()
            .flat_map(|j| BUDGETS.map(|b| (j, b)))
            .flat_map(|cell| [events.len(), PARALLEL_THRESHOLD].map(|c| (cell, c)))
        {
            let stalled = Arc::new(AtomicU64::new(0));
            let flag = Arc::clone(&stalled);
            let hook: ShardHook = Arc::new(move |w, t| {
                if w == 0 && t == 0 && flag.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_secs(5));
                }
            });
            let policy = fast_policy().with_shard_timeout(Duration::from_millis(50));
            let started = Instant::now();
            let (report, failures) = run_chunked(
                builder(jobs)
                    .restore_budget(budget)
                    .policy(policy)
                    .hook(hook),
                &events,
                chunk,
            );
            assert!(
                started.elapsed() < Duration::from_secs(4),
                "watchdog must not wait out the stall"
            );
            assert_eq!(expected, json(&report));
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].shard, 0);
            assert!(!failures[0].gave_up);
            assert!(
                failures[0].last_error.contains("stalled"),
                "{}",
                failures[0].last_error
            );
        }
    }

    #[test]
    fn replay_log_stays_within_the_budget_and_cuts_are_invisible() {
        // Twenty-one full batches against a budget of two: the log must
        // peak at the budget plus one batch, and the report and counters
        // must equal a run that never cuts.
        let events = multi_pid_trace(8, 384);
        assert!(events.len().is_multiple_of(PARALLEL_THRESHOLD));
        let parts: Vec<&[TraceEvent]> = events.chunks(PARALLEL_THRESHOLD).collect();
        let sizes: Vec<usize> = parts
            .iter()
            .map(|part| EventBatch::from_events(part).heap_bytes())
            .collect();
        let largest = *sizes.iter().max().unwrap();
        let total: usize = sizes.iter().sum();
        let budget = 2 * largest;
        assert!(total >= 10 * budget, "{total} bytes against {budget}");
        let expected = json(&serial(&events));
        for jobs in [1, 2] {
            let run = |budget: usize| {
                let metrics = Arc::new(PipelineMetrics::default());
                let mut session = builder(jobs)
                    .restore_budget(budget)
                    .metrics(Arc::clone(&metrics))
                    .build_session();
                for part in &parts {
                    session.feed(EventBatch::from_events(part));
                }
                let peaks = (session.shards.log_peak, session.shards.batch_peak);
                let (report, failures) = session.finish();
                assert!(failures.is_empty());
                let counters = serde_json::to_string(&metrics.snapshot()).unwrap();
                (json(&report), counters, peaks)
            };
            let (uncut, uncut_counters, (uncut_peak, _)) = run(usize::MAX);
            assert_eq!(uncut_peak, total, "jobs {jobs}: an uncut log holds it all");
            let (report, counters, (peak, batch_peak)) = run(budget);
            assert_eq!(batch_peak, largest);
            assert!(
                peak <= budget + largest,
                "jobs {jobs}: log peaked at {peak} against {budget} + {largest}"
            );
            assert_eq!(expected, report, "jobs {jobs}");
            assert_eq!(uncut, report, "jobs {jobs}");
            assert_eq!(uncut_counters, counters, "jobs {jobs}");
        }
    }

    #[test]
    fn full_batch_after_a_remainder_is_dispatched_uncopied() {
        // A small batch waits in the coalescing buffer; the full batch
        // that follows must not be copied into it. The remainder goes
        // out as its own batch (tick 0) and the full one unchanged
        // (tick 1), and the report and counters equal a serial run's.
        let events = multi_pid_trace(6, 200);
        let (small, full) = events.split_at(163);
        assert!(full.len() >= PARALLEL_THRESHOLD);
        let (expected, serial_counters) = serial_metered(&events);
        for jobs in [1, 2] {
            let ticks = Arc::new(std::sync::Mutex::new(Vec::new()));
            let seen = Arc::clone(&ticks);
            let hook: ShardHook = Arc::new(move |w, t| {
                if w == 0 {
                    seen.lock().unwrap().push(t);
                }
            });
            let metrics = Arc::new(PipelineMetrics::default());
            let mut session = builder(jobs)
                .metrics(Arc::clone(&metrics))
                .hook(hook)
                .build_session();
            session.feed(EventBatch::from_events(small));
            let full = EventBatch::from_events(full);
            let full_bytes = full.heap_bytes();
            session.feed(full);
            assert_eq!(session.shards.batch_peak, full_bytes, "jobs {jobs}");
            let (report, failures) = session.finish();
            assert!(failures.is_empty());
            assert_eq!(*ticks.lock().unwrap(), [0, 1], "jobs {jobs}");
            assert_eq!(expected, report, "jobs {jobs}");
            let mut counters = metrics.snapshot();
            assert_eq!(counters.batched_events, events.len() as u64);
            (counters.batched_events, counters.allocs_estimated) = (0, 0);
            assert_eq!(serial_counters, counters, "jobs {jobs}");
        }
    }

    #[test]
    fn gave_up_shard_keeps_its_restore_point() {
        // Shard 0 panics on every attempt from tick 2 on. At a zero
        // budget its restore point holds batches 0 and 1, so the
        // degraded report and counters keep exactly those of its events;
        // at the real budget no cut came first, so it keeps none.
        let events = multi_pid_trace(4, 150);
        let kept = 2 * PARALLEL_THRESHOLD;
        for (jobs, budget) in [1, 2].into_iter().flat_map(|j| BUDGETS.map(|b| (j, b))) {
            let metrics = Arc::new(PipelineMetrics::default());
            let (report, failures) = run_chunked(
                builder(jobs)
                    .restore_budget(budget)
                    .metrics(Arc::clone(&metrics))
                    .hook(panic_hook(0, 2, u64::MAX)),
                &events,
                PARALLEL_THRESHOLD,
            );
            assert_eq!(failures.len(), 1);
            assert!(failures[0].gave_up);
            let prefix = if budget == 0 { kept } else { 0 };
            let survivors: Vec<_> = events
                .iter()
                .enumerate()
                .filter(|(i, e)| *i < prefix || !(e.pid as usize).is_multiple_of(jobs))
                .map(|(_, e)| e.clone())
                .collect();
            assert_eq!(
                json(&report),
                json(&serial(&survivors)),
                "jobs {jobs}, budget {budget}"
            );
            assert_eq!(metrics.snapshot().events_read, survivors.len() as u64);
        }
    }

    #[test]
    fn snapshot_after_injected_panic_recovers() {
        let events = multi_pid_trace(5, 30);
        let expected = serial(&events);
        for jobs in [1, 2] {
            let mut session = builder(jobs).hook(panic_hook(0, 0, 1)).build_session();
            session.feed_owned(events.clone());
            assert_eq!(
                session.snapshot().filter_stats.total,
                expected.filter_stats.total
            );
            assert_eq!(expected, session.finish().0);
        }
    }
}
