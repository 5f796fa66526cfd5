//! The shard supervisor: the one execution engine behind every
//! [`AnalysisSession`](crate::AnalysisSession).
//!
//! A session analyzes on one *shard*: an ordinary [`StreamingAnalyzer`]
//! on a persistent `iocov-shard` thread, fed the caller's batches in
//! trace order. The caller decodes (or simulates) batch *k + 1* while
//! the shard analyzes batch *k*; that overlap is the only parallelism
//! within one trace. The caller's thread costs at least as much CPU as
//! the shard's on every input measured (EXPERIMENTS.md, "One shard
//! thread"), so splitting the shard's work across more threads could
//! not shorten a run.
//!
//! # Supervision
//!
//! [`ShardSupervisor`] owns, once, everything supervision needs:
//!
//! * the [`RestartLedger`] (restarts, `gave_up`, events lost, last
//!   error), which lasts the whole run, so
//!   [`SupervisorPolicy::max_restarts`] is a budget per run and a shard
//!   that gave up stays given up;
//! * the *restore point*: a clone of the shard's analyzer at the last
//!   cut, seeded from the resumed checkpoint's pid states (or empty).
//!   The analyzer's counts are the scan side of the `--metrics` funnel
//!   ([`PipelineMetrics`] derives it from them), so the restore point
//!   carries its funnel, and a failed incarnation's counts die with it;
//! * the hook ticks: each batch's ordinal since the last cut, sent with
//!   its scan job, so a restart does not reset them;
//! * the [`ShardFailureRecord`] manifest.
//!
//! Analysis is a deterministic fold, so a batch that panicked the shard
//! would panic it again: nothing is replayed. A failed shard (panic
//! caught with `catch_unwind`, stall declared by the watchdog, spawn
//! failure) is charged to the ledger and, after exponential backoff,
//! restarts from a copy of its restore point. It loses its events since
//! that point and goes on with the next batch: a panicked thread hands
//! its job queue to the new incarnation, so only the batches it had
//! begun are lost. The ledger counts the lost batches' events. A shard
//! that exhausts its budget keeps its restore point and loses everything
//! after it. Either way the report is partial, and the manifest says by
//! how much.
//!
//! # Cuts
//!
//! A *cut* ([`cut`](ShardSupervisor::cut) at a checkpoint or snapshot,
//! and finish) syncs the live shard, clones it into its restore point,
//! and rebases: hook ticks count from zero again. The cumulative report
//! is the resumed base report merged with the restore point's, the
//! cumulative pid states are the restore point's, and so is the funnel
//! a checkpoint document adds to the session's metrics. Finish absorbs
//! the last restore point's funnel and the failure manifest into the
//! session's metrics, once. The shard thread persists across cuts.
//!
//! # Transport
//!
//! The shard thread is spawned on the first dispatch and fed over a
//! bounded queue of depth [`PIPELINE_DEPTH`]. Batches smaller than
//! [`PARALLEL_THRESHOLD`] are coalesced first. A cut is a mark job on
//! the same queue, answered with the thread's clone. With
//! [`SupervisorPolicy::shard_timeout`] set, a shard that stops
//! heartbeating is declared stalled and abandoned with its queue. Finish
//! joins the live thread, so none outlives its session: the next
//! session's thread then reuses its stack and malloc arena instead of
//! racing its exit for fresh ones.

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
use crate::metrics::{MetricsSnapshot, PipelineMetrics, ShardFailureRecord};
use crate::streaming::StreamingAnalyzer;

/// A progress hook the shard calls before it scans a batch, with the
/// batch's `tick`: its ordinal counted from the last cut. Fault
/// injection (`iocov-faults`) plugs in here to panic or stall the shard
/// at a specific point.
pub type ShardHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Restart budget, backoff curve, and stall watchdog for supervised
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Restarts allowed per run before the shard is abandoned
    /// (`gave_up`). `serve` applies the same budget to each stream.
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per restart.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// If set, a shard with no heartbeat progress for this long (while
    /// the supervisor is waiting on it) is declared stalled and
    /// restarted from its restore point. `None` waits on a shard for as
    /// long as it takes.
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

/// Bounded depth of the shard thread's job queue: the caller may run at
/// most this many batches ahead of the shard.
pub const PIPELINE_DEPTH: usize = 2;

/// The shard's restart ledger, kept for the whole run.
#[derive(Debug, Clone, Default)]
struct RestartLedger {
    restarts: u32,
    gave_up: bool,
    /// Events handed to the shard that its restore points do not hold.
    lost_events: u64,
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
        metrics: &PipelineMetrics,
    ) -> bool {
        self.last_error = error;
        if self.restarts >= policy.max_restarts {
            self.gave_up = true;
            return false;
        }
        self.restarts += 1;
        metrics.record_shard_restart();
        std::thread::sleep(policy.backoff(self.restarts));
        true
    }

    /// The shard's failure-manifest record, if it ever failed.
    fn record(&self) -> Option<ShardFailureRecord> {
        (self.restarts > 0 || self.gave_up).then(|| ShardFailureRecord {
            shard: 0,
            restarts: self.restarts,
            gave_up: self.gave_up,
            lost_events: self.lost_events,
            last_error: self.last_error.clone(),
        })
    }
}

/// One shard incarnation. A live incarnation scans batches; a *restore
/// point* is a clone of one, taken at a cut, that restarts copy from.
#[derive(Clone)]
struct Incarnation {
    analyzer: StreamingAnalyzer,
    /// Events of the batches scanned since the last cut.
    scanned: u64,
}

impl Incarnation {
    /// Scans batch `tick`, walking its columns by reference, and times
    /// the scan into `metrics`.
    fn scan(
        &mut self,
        batch: &EventBatch,
        tick: u64,
        hook: Option<&ShardHook>,
        metrics: &PipelineMetrics,
    ) {
        if let Some(hook) = hook {
            hook(tick);
        }
        self.scanned += batch.len() as u64;
        let _timer = metrics.time_stage("analyze");
        self.analyzer.push_batch(batch);
    }

    /// A cut of this live incarnation: its restore point, after which
    /// the incarnation counts its events from zero again.
    fn mark(&mut self) -> Incarnation {
        let point = self.clone();
        self.scanned = 0;
        point
    }
}

/// A job on the shard thread's queue.
enum Job {
    /// Scan a batch at its tick.
    Scan(Arc<EventBatch>, u64),
    /// Cut: reply with a restore point ([`Incarnation::mark`]).
    Mark,
}

/// The shard thread's reply, sent on its done channel.
enum Reply {
    Marked(Box<Incarnation>),
    /// The scan panicked; the thread hands back its queue, holding the
    /// jobs it never began.
    Panicked(String, Receiver<Job>),
}

/// The shard thread's job queue, both ends.
type Queue = (SyncSender<Job>, Receiver<Job>);

/// A failed incarnation: the error, and the job queue a panicked thread
/// handed back.
struct Failure {
    error: ShardError,
    queue: Option<Receiver<Job>>,
}

/// What the shard thread's reply says: a restore point, a failure, or
/// (`Err(None)`) nothing yet.
fn answer(reply: Result<Reply, RecvTimeoutError>) -> Result<Box<Incarnation>, Option<Failure>> {
    let (msg, queue) = match reply {
        Ok(Reply::Marked(point)) => return Ok(point),
        Err(RecvTimeoutError::Timeout) => return Err(None),
        Ok(Reply::Panicked(msg, queue)) => (msg, Some(queue)),
        Err(RecvTimeoutError::Disconnected) => ("worker terminated without reporting".into(), None),
    };
    let error = ShardError::Panicked(msg);
    Err(Some(Failure { error, queue }))
}

/// The live shard thread as the supervisor sees it. Dropping a slot
/// abandons its thread: a stalled one exits on its own once it wakes to
/// a closed queue.
struct Slot {
    jobs: SyncSender<Job>,
    /// Reply channel from the thread.
    done: Receiver<Reply>,
    /// Bumped by the thread after every job — the liveness signal the
    /// stall watchdog reads.
    heartbeat: Arc<AtomicU64>,
    /// [`SupervisorPolicy::shard_timeout`].
    timeout: Option<Duration>,
    /// The thread, joined at finish.
    thread: JoinHandle<()>,
}

impl Slot {
    /// Waits for `event` from the thread, declaring it stalled once its
    /// heartbeat has not moved for the shard timeout.
    fn watch<T>(
        &self,
        mut event: impl FnMut() -> Result<T, Option<Failure>>,
    ) -> Result<T, Failure> {
        let mut last_beat = self.heartbeat.load(Ordering::Relaxed);
        let mut progress_at = Instant::now();
        loop {
            match event() {
                Ok(value) => return Ok(value),
                Err(Some(failure)) => return Err(failure),
                Err(None) => {}
            }
            if let Some(limit) = self.timeout {
                let beat = self.heartbeat.load(Ordering::Relaxed);
                if beat != last_beat {
                    last_beat = beat;
                    progress_at = Instant::now();
                } else if progress_at.elapsed() >= limit {
                    let error = ShardError::Stalled {
                        waited: progress_at.elapsed(),
                    };
                    return Err(Failure { error, queue: None });
                }
            }
        }
    }

    /// Offers one job to the queue, spinning while it is full. A full
    /// queue may be a panicked thread's, so the spin waits on its reply
    /// channel.
    fn offer(&self, job: Job) -> Result<(), Failure> {
        let mut job = Some(job);
        self.watch(|| {
            match self
                .jobs
                .try_send(job.take().expect("job present until sent"))
            {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(back) | TrySendError::Disconnected(back)) => {
                    job = Some(back);
                }
            }
            // No mark is outstanding here, so any reply is a failure.
            answer(self.done.recv_timeout(Duration::from_micros(200))).and(Err(None))
        })
    }

    /// Waits for the thread's reply to a mark job.
    fn await_mark(&self) -> Result<Box<Incarnation>, Failure> {
        self.watch(|| answer(self.done.recv_timeout(Duration::from_millis(20))))
    }
}

/// Supervised analysis on one shard thread; see the [module docs](self).
pub(crate) struct ShardSupervisor {
    metrics: Arc<PipelineMetrics>,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
    /// The restart ledger, for the whole run.
    ledger: RestartLedger,
    /// Batches dispatched since the last cut: the next batch's tick.
    ticks: u64,
    /// Events dispatched since the last cut.
    events: u64,
    /// The resumed checkpoint's report (or empty), merged into every
    /// cumulative report.
    base_report: AnalysisReport,
    /// The shard's restore point: its state at the last cut.
    restore: Incarnation,
    /// The live shard thread: spawned on the first dispatch, `None`
    /// before it and once the shard has given up.
    slot: Option<Slot>,
    /// Coalescing buffer for batches below [`PARALLEL_THRESHOLD`].
    pending: EventBatch,
}

impl ShardSupervisor {
    /// A supervisor over one shard, a copy of the `empty` analyzer,
    /// whose base is `seed`'s `(report, pid states)`, or empty.
    pub(crate) fn new(
        mut empty: StreamingAnalyzer,
        policy: SupervisorPolicy,
        hook: Option<ShardHook>,
        metrics: Arc<PipelineMetrics>,
        seed: Option<(AnalysisReport, BTreeMap<u32, PidStateSnapshot>)>,
    ) -> Self {
        let (base_report, base_states) = seed.unwrap_or_default();
        empty.restore_pid_states(&base_states);
        let restore = Incarnation {
            analyzer: empty,
            scanned: 0,
        };
        ShardSupervisor {
            metrics,
            policy,
            hook,
            ledger: RestartLedger::default(),
            ticks: 0,
            events: 0,
            base_report,
            restore,
            slot: None,
            pending: EventBatch::new(),
        }
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
    }

    /// A checkpoint cut: the cumulative report and pid states over
    /// everything pushed so far.
    pub(crate) fn cut(&mut self) -> (AnalysisReport, BTreeMap<u32, PidStateSnapshot>) {
        self.mark();
        (self.report(), self.restore.analyzer.pid_states())
    }

    /// The scan side of the funnel since the session began (a resumed
    /// session's checkpoint holds the funnel before it): the restore
    /// point's, so as of the last cut.
    pub(crate) fn funnel(&self) -> MetricsSnapshot {
        self.restore.analyzer.funnel()
    }

    /// Drains the supervisor: the final report and the shard-failure
    /// manifest, one record if the shard restarted or gave up. The
    /// restore point's funnel goes into the metrics with the manifest.
    pub(crate) fn finish(mut self) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        self.mark();
        // The live thread has just answered the mark, so it exits as
        // soon as its queue closes.
        if let Some(Slot { jobs, thread, .. }) = self.slot.take() {
            drop(jobs);
            let _ = thread.join();
        }
        let failures = Vec::from_iter(self.ledger.record());
        let mut funnel = self.funnel();
        funnel.shard_failures.clone_from(&failures);
        self.metrics.absorb(&funnel);
        (self.report(), failures)
    }

    /// The base report merged with the restore point's.
    fn report(&self) -> AnalysisReport {
        let mut report = self.base_report.clone();
        report.merge(&self.restore.analyzer.report());
        report
    }

    /// The one cut (see the [module docs](self#cuts)): flushes the
    /// coalescing buffer, makes the live shard's clone its restore
    /// point, and charges the ledger the events since the last cut that
    /// the new restore point does not hold. A shard that fails even now
    /// is restarted first.
    fn mark(&mut self) {
        self.flush_pending();
        // Whether a restart took over a queue that holds the mark job
        // already.
        let mut queued = false;
        while let Some(slot) = &self.slot {
            if !queued {
                if let Err(failure) = slot.offer(Job::Mark) {
                    self.recover(failure);
                    continue;
                }
            }
            match slot.await_mark() {
                Ok(point) => {
                    self.ledger.lost_events += self.events - point.scanned;
                    self.restore = Incarnation {
                        scanned: 0,
                        ..*point
                    };
                    break;
                }
                Err(failure) => queued = self.recover(failure),
            }
        }
        if self.ledger.gave_up {
            self.ledger.lost_events += self.events;
        }
        (self.ticks, self.events) = (0, 0);
    }

    /// Charges one failure to the run-long budget. Returns `true` once
    /// the backoff has passed and the shard may restart, `false` when it
    /// has given up.
    fn charge(&mut self, error: String) -> bool {
        self.ledger.charge(error, &self.policy, &self.metrics)
    }

    /// Spawns one thread running a copy of the restore point on `queue`,
    /// or on a fresh one.
    fn spawn_slot(&self, queue: Option<Queue>) -> std::io::Result<Slot> {
        let (jobs, queue) = queue.unwrap_or_else(|| sync_channel(PIPELINE_DEPTH));
        let (replies, done) = sync_channel::<Reply>(1);
        let heartbeat = Arc::new(AtomicU64::new(0));
        let mut incarnation = self.restore.clone();
        let beat = Arc::clone(&heartbeat);
        let hook = self.hook.clone();
        let metrics = Arc::clone(&self.metrics);
        let thread = std::thread::Builder::new()
            .name("iocov-shard".to_owned())
            .spawn(move || {
                while let Ok(job) = queue.recv() {
                    match job {
                        Job::Scan(batch, tick) => {
                            let scan = catch_unwind(AssertUnwindSafe(|| {
                                let _supervised = SupervisedScanGuard::enter();
                                incarnation.scan(&batch, tick, hook.as_ref(), &metrics);
                            }));
                            if let Err(payload) = scan {
                                let msg = panic_message(payload.as_ref());
                                let _ = replies.send(Reply::Panicked(msg, queue));
                                return;
                            }
                        }
                        Job::Mark => {
                            let point = Box::new(incarnation.mark());
                            if replies.send(Reply::Marked(point)).is_err() {
                                return;
                            }
                        }
                    }
                    beat.fetch_add(1, Ordering::Relaxed);
                }
            })?;
        Ok(Slot {
            jobs,
            done,
            heartbeat,
            timeout: self.policy.shard_timeout,
            thread,
        })
    }

    /// A live slot on `queue` (or a fresh one), charging the budget on
    /// spawn failure; `None` once the shard has given up. Also returns
    /// whether the slot runs on `queue`.
    fn spawned_slot(&mut self, mut queue: Option<Queue>) -> (Option<Slot>, bool) {
        let mut kept = queue.is_some();
        while !self.ledger.gave_up {
            match self.spawn_slot(queue.take()) {
                Ok(slot) => return (Some(slot), kept),
                Err(e) => {
                    kept = false;
                    self.charge(format!("spawn shard worker: {e}"));
                }
            }
        }
        (None, false)
    }

    /// Charges a failure of the shard thread, then respawns it from its
    /// restore point or abandons it. A panicked thread's queue goes to
    /// the new thread, which takes the jobs the failed one never began;
    /// a stalled thread keeps its own and, once its sender is dropped,
    /// drains it and exits alone. Returns whether the new thread took
    /// over the queue.
    fn recover(&mut self, failure: Failure) -> bool {
        let jobs = self.slot.take().expect("a live shard failed").jobs;
        if !self.charge(failure.error.to_string()) {
            return false;
        }
        let (slot, kept) = self.spawned_slot(failure.queue.map(|queue| (jobs, queue)));
        self.slot = slot;
        kept
    }

    /// Hands one batch, with its tick, to the shard thread (spawning it
    /// on the first batch) unless the shard has given up, restarting a
    /// failed thread first. Blocks only when the queue is
    /// [`PIPELINE_DEPTH`] batches behind — the backpressure that bounds
    /// memory to `depth × batch`.
    fn dispatch(&mut self, batch: Arc<EventBatch>) {
        if self.slot.is_none() && !self.ledger.gave_up {
            self.slot = self.spawned_slot(None).0;
        }
        let tick = self.ticks;
        self.ticks += 1;
        self.events += batch.len() as u64;
        while let Some(slot) = &self.slot {
            let Err(failure) = slot.offer(Job::Scan(Arc::clone(&batch), tick)) else {
                break;
            };
            self.recover(failure);
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
    use crate::{ArgName, Iocov, PipelineBuilder, TraceFilter};
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

    /// A hook that panics on the first `times` batches the shard scans
    /// at or past tick `tick`, then disarms (mirrors the CLI's
    /// `--inject-panic` drill on `iocov_faults::DrillTrigger::fire_from`,
    /// which this crate cannot depend on).
    fn panic_hook(tick: u64, times: u64) -> ShardHook {
        let fired = Arc::new(AtomicU64::new(0));
        Arc::new(move |t| {
            if t >= tick && fired.fetch_add(1, Ordering::SeqCst) < times {
                panic!("injected test panic (tick {t})");
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

    /// The serial report with its counters: one `StreamingAnalyzer`
    /// over every event, its funnel absorbed into fresh metrics.
    fn serial_metered(events: &[TraceEvent]) -> (AnalysisReport, MetricsSnapshot) {
        let mut analyzer = StreamingAnalyzer::new(filter());
        analyzer.push_all(events);
        let metrics = PipelineMetrics::default();
        metrics.absorb(&analyzer.funnel());
        (analyzer.finish(), metrics.snapshot())
    }

    fn json(report: &AnalysisReport) -> String {
        serde_json::to_string(report).unwrap()
    }

    /// A session with the fast-retry policy.
    fn builder() -> PipelineBuilder {
        PipelineBuilder::new(filter()).policy(fast_policy())
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
    fn sessions_scan_on_the_shard_thread() {
        // With or without a stall watchdog, a session scans on
        // `iocov-shard`, never the caller.
        let events = multi_pid_trace(3, 4);
        let watched = fast_policy().with_shard_timeout(Duration::from_secs(60));
        for (cell, session) in [
            ("watchdog", builder().policy(watched)),
            ("supervised", builder()),
        ] {
            let names = Arc::new(std::sync::Mutex::new(std::collections::BTreeSet::new()));
            let seen = Arc::clone(&names);
            let hook: ShardHook = Arc::new(move |_| {
                let name = std::thread::current().name().map(str::to_owned);
                seen.lock().unwrap().insert(name);
            });
            let (report, _) = run_chunked(session.hook(hook), &events, 7);
            assert_eq!(json(&serial(&events)), json(&report), "{cell}");
            let names = names.lock().unwrap();
            assert_eq!(
                names.iter().collect::<Vec<_>>(),
                [&Some("iocov-shard".to_owned())],
                "{cell}"
            );
        }
    }

    #[test]
    fn session_matches_serial() {
        // Byte-identical both as one whole-trace batch and chunked small
        // enough to coalesce.
        let events = multi_pid_trace(5, 4);
        let expected = json(&serial(&events));
        for chunk in [events.len(), 7] {
            let (report, failures) = run_chunked(builder(), &events, chunk);
            assert!(failures.is_empty());
            assert_eq!(expected, json(&report), "diverged at chunk {chunk}");
        }
    }

    #[test]
    fn owned_batches_above_the_threshold_match_serial() {
        // Batches big enough to dispatch without coalescing.
        let events = multi_pid_trace(7, 60);
        assert!(events.len() >= 2 * PARALLEL_THRESHOLD);
        let (report, _) = run_chunked(builder(), &events, PARALLEL_THRESHOLD);
        assert_eq!(json(&serial(&events)), json(&report));
    }

    #[test]
    fn columnar_and_owned_feeds_mix() {
        let events = multi_pid_trace(5, 8);
        let (left, right) = events.split_at(events.len() / 2);
        let mut session = builder().build_session();
        session.feed(EventBatch::from_events(left));
        session.feed_owned(right.to_vec());
        assert_eq!(serial(&events), session.finish().0);
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
        let mut session = builder().build_session();
        for event in [&open, &dup, &write] {
            session.feed_owned(vec![event.clone()]);
        }
        let (report, _) = session.finish();
        assert_eq!(report.input_coverage(ArgName::WriteCount).calls, 1);
        assert_eq!(report.filter_stats.kept, 3);
    }

    #[test]
    fn snapshot_mid_stream_then_more_batches_matches_serial() {
        // A snapshot is a cut: it must sync the shard and leave the
        // stream able to continue to the serial report.
        let events = multi_pid_trace(7, 40);
        let (left, right) = events.split_at(events.len() / 3);
        let mut session = builder().build_session();
        session.feed_owned(left.to_vec());
        assert_eq!(session.snapshot().filter_stats.total, left.len());
        session.feed_owned(right.to_vec());
        assert_eq!(serial(&events), session.finish().0);
    }

    #[test]
    fn empty_session_finishes_to_default_report() {
        let (report, failures) = builder().build_session().finish();
        assert_eq!(report, AnalysisReport::default());
        assert!(failures.is_empty());
    }

    #[test]
    fn session_metrics_match_serial_byte_for_byte() {
        // Counters from a session large enough to clear
        // PARALLEL_THRESHOLD match a serial run's, but for the
        // batch-shape sums, which are recorded by the session's feed
        // that the whole-trace analyzer does not have.
        let events = multi_pid_trace(7, 40);
        assert!(events.len() >= PARALLEL_THRESHOLD);
        let (expected, s) = serial_metered(&events);
        assert!(s.events_read > 0 && s.total_dropped() > 0);
        let metrics = Arc::new(PipelineMetrics::default());
        let mut session = builder().metrics(Arc::clone(&metrics)).build_session();
        session.feed_owned(events.clone());
        assert_eq!(expected, session.finish().0);
        let mut p = metrics.snapshot();
        assert_eq!(p.batched_events, events.len() as u64);
        (p.batched_events, p.allocs_estimated) = (0, 0);
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            serde_json::to_string(&p).unwrap()
        );
    }

    #[test]
    fn shared_metrics_across_chunked_feeds_sum_to_trace_totals() {
        let events = multi_pid_trace(4, 3);
        let metrics = Arc::new(PipelineMetrics::default());
        let (report, _) = run_chunked(builder().metrics(Arc::clone(&metrics)), &events, 5);
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
    fn full_batch_after_a_remainder_is_dispatched_uncopied() {
        // A small batch waits in the coalescing buffer; the full batch
        // that follows must not be copied into it. The remainder goes
        // out as its own batch (tick 0) and the full one unchanged
        // (tick 1), and the report and counters equal a serial run's.
        let events = multi_pid_trace(6, 200);
        let (small, full) = events.split_at(163);
        assert!(full.len() >= PARALLEL_THRESHOLD);
        let (expected, serial_counters) = serial_metered(&events);
        let ticks = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&ticks);
        let hook: ShardHook = Arc::new(move |t| seen.lock().unwrap().push(t));
        let metrics = Arc::new(PipelineMetrics::default());
        let mut session = builder()
            .metrics(Arc::clone(&metrics))
            .hook(hook)
            .build_session();
        session.feed(EventBatch::from_events(small));
        session.feed(EventBatch::from_events(full));
        let (report, failures) = session.finish();
        assert!(failures.is_empty());
        assert_eq!(*ticks.lock().unwrap(), [0, 1]);
        assert_eq!(expected, report);
        let mut counters = metrics.snapshot();
        assert_eq!(counters.batched_events, events.len() as u64);
        (counters.batched_events, counters.allocs_estimated) = (0, 0);
        assert_eq!(serial_counters, counters);
    }

    // ------------------------------------------------------------------
    // Supervision
    // ------------------------------------------------------------------

    /// `events` without the events at the indices `lost` names: what a
    /// degraded run analyzes.
    fn surviving(events: &[TraceEvent], lost: impl Fn(usize) -> bool) -> Vec<TraceEvent> {
        events
            .iter()
            .enumerate()
            .filter(|&(i, _)| !lost(i))
            .map(|(_, e)| e.clone())
            .collect()
    }

    /// A run's counters with the feed's batch-shape sums (which the
    /// serial analyzer does not record) checked against `events` and
    /// zeroed, and the supervision fields split off.
    fn analysis_counters(
        metrics: &PipelineMetrics,
        events: usize,
    ) -> (MetricsSnapshot, u64, Vec<ShardFailureRecord>) {
        let mut counters = metrics.snapshot();
        assert_eq!(counters.batched_events, events as u64);
        (counters.batched_events, counters.allocs_estimated) = (0, 0);
        let restarts = std::mem::take(&mut counters.shard_restarts);
        let failures = std::mem::take(&mut counters.shard_failures);
        (counters, restarts, failures)
    }

    /// The one failure record a run whose shard failed must emit.
    fn record(restarts: u32, gave_up: bool, lost: usize) -> ShardFailureRecord {
        ShardFailureRecord {
            shard: 0,
            restarts,
            gave_up,
            lost_events: lost as u64,
            last_error: String::new(),
        }
    }

    /// `failures` without their error text, which the caller checks.
    fn without_errors(mut failures: Vec<ShardFailureRecord>) -> Vec<ShardFailureRecord> {
        for failure in &mut failures {
            assert!(!failure.last_error.is_empty());
            failure.last_error.clear();
        }
        failures
    }

    #[test]
    fn injected_panic_loses_the_events_since_the_restore_point() {
        // Panic on the second batch: the restore point is the start of
        // the run, so the restarted shard loses both batches 0 and 1 and
        // analyzes everything after. Small feeds coalesce into batches
        // of PARALLEL_THRESHOLD events; large ones do not.
        let events = multi_pid_trace(7, 80);
        for (chunk, batch) in [
            (events.len() / 3, events.len() / 3),
            (PARALLEL_THRESHOLD, PARALLEL_THRESHOLD),
            (PARALLEL_THRESHOLD / 2, PARALLEL_THRESHOLD),
        ] {
            let (report, failures) = run_chunked(builder().hook(panic_hook(1, 1)), &events, chunk);
            assert!(events.len() > 2 * batch);
            let survivors = surviving(&events, |i| i < 2 * batch);
            assert_eq!(json(&serial(&survivors)), json(&report), "chunk {chunk}");
            assert!(failures[0].last_error.contains("injected test panic"));
            assert_eq!(without_errors(failures), [record(1, false, 2 * batch)]);
        }
    }

    #[test]
    fn a_panic_that_recurs_on_every_attempt_costs_one_restart() {
        // A genuine fault: the scan of batch 1 panics every time it is
        // tried, not a drill that disarms. Nothing is replayed, so the
        // shard restarts once, loses batches 0 and 1, and keeps its
        // budget for the rest of the run.
        let events = multi_pid_trace(4, 150);
        let hook: ShardHook = Arc::new(|t| {
            if t == 1 {
                panic!("deterministic fault in batch {t}");
            }
        });
        let metrics = Arc::new(PipelineMetrics::default());
        let (report, failures) = run_chunked(
            builder().metrics(Arc::clone(&metrics)).hook(hook),
            &events,
            PARALLEL_THRESHOLD,
        );
        let lost = 2 * PARALLEL_THRESHOLD;
        let (expected, serial_counters) = serial_metered(&surviving(&events, |i| i < lost));
        assert_eq!(json(&expected), json(&report));
        let (counters, restarts, manifest) = analysis_counters(&metrics, events.len());
        assert_eq!(serial_counters, counters);
        assert_eq!(restarts, 1);
        assert_eq!(manifest, failures);
        assert!(failures[0].last_error.contains("deterministic fault"));
        assert_eq!(without_errors(failures), [record(1, false, lost)]);
    }

    #[test]
    fn metrics_count_only_the_surviving_events() {
        // The restarted shard starts from its restore point's counters,
        // so the run's counters are exactly a serial run's over the
        // events that survived, and the recovery itself is accounted.
        let events = multi_pid_trace(6, 80);
        let metrics = Arc::new(PipelineMetrics::default());
        let (report, failures) = run_chunked(
            builder()
                .metrics(Arc::clone(&metrics))
                .hook(panic_hook(1, 1)),
            &events,
            PARALLEL_THRESHOLD,
        );
        let survivors = surviving(&events, |i| i < 2 * PARALLEL_THRESHOLD);
        let (expected, serial_counters) = serial_metered(&survivors);
        assert_eq!(expected, report);
        let (counters, restarts, manifest) = analysis_counters(&metrics, events.len());
        assert_eq!(serial_counters, counters);
        assert_eq!(restarts, 1);
        assert_eq!(manifest, failures);
        assert!(!failures[0].gave_up);
    }

    #[test]
    fn exhausted_budget_degrades_to_partial_report() {
        // The shard panics on every batch it is handed: batches 0–2
        // spend the budget and batch 3 gives it up. With no cut its
        // restore point is empty, so every event goes missing, and no
        // half-counted incarnation leaks into the counters.
        let events = multi_pid_trace(4, 150);
        let max = fast_policy().max_restarts;
        let metrics = Arc::new(PipelineMetrics::default());
        let (report, failures) = run_chunked(
            builder()
                .metrics(Arc::clone(&metrics))
                .hook(panic_hook(0, u64::MAX)),
            &events,
            PARALLEL_THRESHOLD,
        );
        let (expected, serial_counters) = serial_metered(&[]);
        assert_eq!(report, expected);
        let (counters, restarts, _) = analysis_counters(&metrics, events.len());
        assert_eq!(serial_counters, counters);
        assert_eq!(restarts, u64::from(max));
        assert_eq!(without_errors(failures), [record(max, true, events.len())]);
    }

    #[test]
    fn restart_budget_is_per_run_across_cuts() {
        // Checkpoint cuts between batches and a panic on every batch's
        // first tick: the shard must spend exactly its budget once, give
        // up once, and count nothing afterwards — later cuts must not
        // hand it a fresh ledger.
        let events = multi_pid_trace(2, 9);
        let every = events.len() / 6;
        let max = fast_policy().max_restarts;
        let metrics = Arc::new(PipelineMetrics::default());
        let mut session = builder()
            .metrics(Arc::clone(&metrics))
            .hook(panic_hook(0, 99))
            .build_session();
        for part in events.chunks(every) {
            session.feed_owned(part.to_vec());
            let _ = session.cut();
        }
        let (report, failures) = session.finish();
        let (_, restarts, _) = analysis_counters(&metrics, events.len());
        assert_eq!(restarts, u64::from(max));
        // The shard lost every batch it was handed.
        assert_eq!(without_errors(failures), [record(max, true, events.len())]);
        assert_eq!(report, serial(&[]));
    }

    #[test]
    fn gave_up_shard_keeps_its_restore_point() {
        // A cut after two batches moves the restore point past them.
        // From tick 2 of the next epoch on the shard panics on every
        // batch, restarts three times and gives up: the degraded report
        // and counters keep exactly its events before the cut.
        let events = multi_pid_trace(4, 300);
        let kept = 2 * PARALLEL_THRESHOLD;
        let metrics = Arc::new(PipelineMetrics::default());
        let mut session = builder()
            .metrics(Arc::clone(&metrics))
            .hook(panic_hook(2, u64::MAX))
            .build_session();
        for (k, part) in events.chunks(PARALLEL_THRESHOLD).enumerate() {
            session.feed_owned(part.to_vec());
            if k == 1 {
                let _ = session.cut();
            }
        }
        let (report, failures) = session.finish();
        let (expected, serial_counters) = serial_metered(&events[..kept]);
        assert_eq!(json(&report), json(&expected));
        let (counters, _, _) = analysis_counters(&metrics, events.len());
        assert_eq!(serial_counters, counters);
        let max = fast_policy().max_restarts;
        assert_eq!(
            without_errors(failures),
            [record(max, true, events.len() - kept)]
        );
    }

    #[test]
    fn stall_watchdog_restarts_stalled_shard() {
        let events = multi_pid_trace(6, 120);
        // The shard freezes for 5s on its first batch; the 50ms watchdog
        // must abandon it rather than wait. As one batch the stall
        // surfaces at finish and the batch is lost. In batches of
        // PARALLEL_THRESHOLD it surfaces once the stalled queue is full,
        // so the stalled batch and the ones queued behind it are lost
        // and the new incarnation goes on from the next.
        for chunk in [events.len(), PARALLEL_THRESHOLD] {
            let stalled = Arc::new(AtomicU64::new(0));
            let flag = Arc::clone(&stalled);
            let hook: ShardHook = Arc::new(move |t| {
                if t == 0 && flag.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_secs(5));
                }
            });
            let policy = fast_policy().with_shard_timeout(Duration::from_millis(50));
            let started = Instant::now();
            let (report, failures) =
                run_chunked(builder().policy(policy).hook(hook), &events, chunk);
            assert!(
                started.elapsed() < Duration::from_secs(4),
                "watchdog must not wait out the stall"
            );
            assert!(
                failures[0].last_error.contains("stalled"),
                "{}",
                failures[0].last_error
            );
            // Which batches were queued behind the stalled one depends
            // on when the thread took its first; the loss is always a
            // whole number of batches, the first included.
            let lost = usize::try_from(failures[0].lost_events).unwrap();
            let most = (PIPELINE_DEPTH + 1) * chunk;
            assert!(lost.is_multiple_of(chunk) && lost > 0 && lost <= most.min(events.len()));
            let survivors = surviving(&events, |i| i < lost);
            assert_eq!(json(&serial(&survivors)), json(&report));
            assert_eq!(without_errors(failures), [record(1, false, lost)]);
        }
    }

    #[test]
    fn snapshot_after_injected_panic_moves_the_restore_point() {
        // The panic loses the first feed's events; the snapshot's cut is
        // the new restore point, so the second feed is analyzed whole.
        let events = multi_pid_trace(5, 60);
        let (first, second) = events.split_at(events.len() / 2);
        let mut session = builder().hook(panic_hook(0, 1)).build_session();
        session.feed_owned(first.to_vec());
        assert_eq!(session.snapshot(), serial(&[]));
        session.feed_owned(second.to_vec());
        let (report, failures) = session.finish();
        assert_eq!(report, serial(second));
        assert_eq!(without_errors(failures), [record(1, false, first.len())]);
    }

    /// The batches a session dispatches for a feed schedule: feed `k`
    /// carries `sizes[k]` events and is followed by a cut when
    /// `cut_after[k]`. Each batch is `(events, tick, epoch)`, mirroring
    /// [`ShardSupervisor::push`]'s coalescing and the ticks' reset at
    /// every cut.
    fn model_batches(
        sizes: &[usize],
        cut_after: &[bool],
    ) -> Vec<(std::ops::Range<usize>, u64, usize)> {
        let mut batches = Vec::new();
        let (mut tick, mut epoch, mut at) = (0u64, 0usize, 0usize);
        let mut pending: Option<std::ops::Range<usize>> = None;
        let mut flush = |pending: &mut Option<std::ops::Range<usize>>, tick: &mut u64, epoch| {
            if let Some(range) = pending.take().filter(|r| !r.is_empty()) {
                batches.push((range, *tick, epoch));
                *tick += 1;
            }
        };
        for (&size, &cut) in sizes.iter().zip(cut_after) {
            let feed = at..at + size;
            at += size;
            if size >= PARALLEL_THRESHOLD {
                flush(&mut pending, &mut tick, epoch);
                pending = Some(feed);
                flush(&mut pending, &mut tick, epoch);
            } else {
                let range = pending.take().map_or(feed.clone(), |p| p.start..feed.end);
                let full = range.len() >= PARALLEL_THRESHOLD;
                pending = Some(range);
                if full {
                    flush(&mut pending, &mut tick, epoch);
                }
            }
            if cut {
                flush(&mut pending, &mut tick, epoch);
                (tick, epoch) = (0, epoch + 1);
            }
        }
        flush(&mut pending, &mut tick, epoch);
        batches
    }

    proptest::proptest! {
        /// A failed shard loses exactly its events since its restore
        /// point: for any multi-pid trace, batching, cut positions and
        /// panic schedule, the report and counters equal a serial run
        /// over the surviving events, and the manifest's restarts,
        /// `gave_up` and `lost_events` follow the schedule.
        #[test]
        fn degraded_runs_equal_the_serial_analysis_of_the_surviving_events(
            pids in 1u32..7,
            rounds in 10usize..80,
            sizes in proptest::collection::vec(1usize..1600, 1..8),
            cuts in proptest::collection::vec(0u8..10, 8),
            at in 0u64..4,
            charges in 1u32..=4,
        ) {
            let max = fast_policy().max_restarts;
            let events = multi_pid_trace(pids, rounds);
            let mut feeds = Vec::new();
            let mut rest = &events[..];
            while !rest.is_empty() {
                let (feed, tail) = rest.split_at(sizes[feeds.len() % sizes.len()].min(rest.len()));
                feeds.push(feed);
                rest = tail;
            }
            let cut_after: Vec<bool> = (0..feeds.len()).map(|k| cuts[k % cuts.len()] < 3).collect();

            // The model: the shard scans every batch once, panicking
            // on the first `charges` at or past tick `at`. A panic loses
            // its epoch's batches so far; giving up loses the rest.
            let batches = model_batches(
                &feeds.iter().map(|f| f.len()).collect::<Vec<_>>(),
                &cut_after,
            );
            let mut lost = vec![false; batches.len()];
            let (mut restarts, mut gave_up, mut left) = (0u32, false, charges);
            let mut epoch_first = 0;
            for (b, (_, tick, epoch)) in batches.iter().enumerate() {
                if b > 0 && *epoch != batches[b - 1].2 {
                    epoch_first = b;
                }
                if !gave_up && *tick >= at && left > 0 {
                    left -= 1;
                    gave_up = restarts == max;
                    restarts += u32::from(!gave_up);
                    lost[epoch_first..=b].fill(true);
                }
                lost[b] |= gave_up;
            }
            let lost_at = |i: usize| {
                batches
                    .iter()
                    .zip(&lost)
                    .any(|((range, _, _), &l)| l && range.contains(&i))
            };
            let lost_events: usize = batches
                .iter()
                .zip(&lost)
                .filter(|(_, &l)| l)
                .map(|((range, _, _), _)| range.len())
                .sum();

            let metrics = Arc::new(PipelineMetrics::default());
            let mut session = builder()
                .metrics(Arc::clone(&metrics))
                .hook(panic_hook(at, u64::from(charges)))
                .build_session();
            for (feed, &cut) in feeds.iter().zip(&cut_after) {
                session.feed_owned(feed.to_vec());
                if cut {
                    let _ = session.cut();
                }
            }
            let (report, failures) = session.finish();

            let survivors = surviving(&events, lost_at);
            let (expected, serial_counters) = serial_metered(&survivors);
            proptest::prop_assert_eq!(json(&expected), json(&report));
            let (counters, shard_restarts, manifest) = analysis_counters(&metrics, events.len());
            proptest::prop_assert_eq!(serial_counters, counters);
            proptest::prop_assert_eq!(shard_restarts, u64::from(restarts));
            proptest::prop_assert_eq!(&manifest, &failures);
            proptest::prop_assert_eq!(
                without_errors(failures),
                if restarts == 0 {
                    vec![]
                } else {
                    vec![record(restarts, gave_up, lost_events)]
                }
            );
        }
    }
}
