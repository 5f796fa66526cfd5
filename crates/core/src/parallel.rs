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
//! * a per-shard ledger (restarts, `gave_up`, last error) that lasts the
//!   whole run, so [`SupervisorPolicy::max_restarts`] is a budget per
//!   shard per run and a shard that gave up stays given up;
//! * the replay log: every batch since the last checkpoint cut, shared
//!   as `Arc<EventBatch>` so retention costs pointers, not copies;
//! * the base report and pid states merged out of earlier cuts (or a
//!   resumed checkpoint), which seed every shard incarnation;
//! * metrics absorption: each incarnation counts into a private
//!   [`PipelineMetrics`] absorbed into the shared instance only on clean
//!   completion, so restarts never double-count;
//! * the [`ShardFailureRecord`] manifest.
//!
//! A panicking scan is caught with `catch_unwind`, turned into a
//! structured [`ShardError`], and the shard restarts after exponential
//! backoff: a fresh incarnation replays the log on top of the base
//! states, so a recovered run's report is byte-identical to a fault-free
//! one. A shard that exhausts its budget *degrades* the run instead of
//! aborting it: the report omits that shard's pids from then on, and the
//! manifest says so.
//!
//! # Transport
//!
//! The shards run one of two ways, picked from the configuration:
//!
//! * **Inline** — one shard and no stall watchdog: the shard runs on the
//!   caller's thread, one `catch_unwind` per batch, with no thread,
//!   channel or coalescing. An *unsupervised* supervisor (the
//!   distributed worker's) is inline too, minus `catch_unwind` and the
//!   replay log: a panic propagates to the caller.
//! * **Threaded** — `n` persistent `iocov-shard-N` threads fed over
//!   bounded queues of depth [`PIPELINE_DEPTH`]: every thread receives
//!   the same `Arc<EventBatch>` and keeps only its own pids, so the
//!   caller can decode batch *k + 1* while the shards analyze batch *k*.
//!   Batches smaller than [`PARALLEL_THRESHOLD`] are coalesced first.
//!   With [`SupervisorPolicy::shard_timeout`] set, a shard that stops
//!   heartbeating is declared stalled, abandoned and replayed like a
//!   panicked one; the watchdog needs a thread to abandon, so a timeout
//!   selects this transport even at one shard.
//!
//! A checkpoint cut completes every live incarnation, merges its report
//! and pid states into the base, and clears the log; the next batch
//! starts fresh incarnations from the new base.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iocov_trace::{EventBatch, EventView};

use crate::checkpoint::PidStateSnapshot;
use crate::coverage::AnalysisReport;
use crate::filter::TraceFilter;
use crate::metrics::{MetricsSnapshot, PipelineMetrics, ShardFailureRecord};
use crate::streaming::StreamingAnalyzer;

/// A progress hook observed by every shard before it scans a batch:
/// `(shard, tick)`, where `tick` is the batch's ordinal in the replay
/// log (counted from the last checkpoint cut). Fault
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
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
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

/// One shard's supervision ledger, kept for the whole run.
#[derive(Debug, Clone, Default)]
struct ShardLedger {
    restarts: u32,
    gave_up: bool,
    last_error: Option<String>,
}

/// One live shard incarnation: a fresh analyzer seeded with the base
/// states, its private metrics, and how many log batches it has scanned.
struct Incarnation {
    analyzer: StreamingAnalyzer,
    /// Absorbed into the shared metrics only on clean completion, so a
    /// panicked incarnation's half-counted events die with it.
    local: Option<Arc<PipelineMetrics>>,
    /// Log batches scanned; also the tick the hook sees next.
    seen: usize,
}

/// What a cleanly completed incarnation hands back for the base.
struct Completed {
    report: AnalysisReport,
    states: BTreeMap<u32, PidStateSnapshot>,
    counters: Option<(MetricsSnapshot, BTreeMap<String, u64>)>,
}

impl Incarnation {
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
            for event in batch.iter() {
                self.analyzer.push(&event);
            }
        } else {
            for event in batch.iter() {
                if event.pid() as usize % n == w {
                    self.analyzer.push(&event);
                }
            }
        }
    }

    fn complete(self) -> Completed {
        let states = self.analyzer.pid_states();
        Completed {
            report: self.analyzer.finish(),
            states,
            counters: self.local.map(|m| (m.snapshot(), m.stage_timings())),
        }
    }
}

/// A shard thread's exit message, sent on its done channel.
enum WorkerExit {
    Finished(Box<Completed>),
    Panicked(String),
}

/// One live shard thread as the supervisor sees it.
struct Slot {
    /// Job queue sender; `None` once the queue is closed (at a cut) or
    /// the shard abandoned.
    jobs: Option<SyncSender<Arc<EventBatch>>>,
    /// Exit-message channel from the thread.
    done: Receiver<WorkerExit>,
    /// Bumped by the thread after every scanned batch — the liveness
    /// signal the stall watchdog reads.
    heartbeat: Arc<AtomicU64>,
    /// Log batches already delivered to this incarnation.
    sent: usize,
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
        }
    }
}

/// Supervised pid-sharded analysis; see the [module docs](self).
pub(crate) struct ShardSupervisor {
    filter: TraceFilter,
    metrics: Option<Arc<PipelineMetrics>>,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
    supervised: bool,
    /// Shard threads instead of one inline shard.
    threaded: bool,
    /// One entry per shard, for the whole run.
    ledger: Vec<ShardLedger>,
    /// Batches since the last cut — the replay log.
    log: Vec<Arc<EventBatch>>,
    /// Reports merged out of earlier cuts (and a resumed checkpoint).
    base_report: AnalysisReport,
    /// Pid states at the last cut (or resume): every incarnation's seed.
    base_states: BTreeMap<u32, PidStateSnapshot>,
    /// The inline shard's incarnation; `None` before its first batch
    /// after a cut, after a panic, and always when threaded.
    inline: Option<Incarnation>,
    /// Live shard threads when threaded; spawned on the first dispatch
    /// after construction or a cut.
    slots: Vec<Slot>,
    /// Threaded coalescing buffer for batches below
    /// [`PARALLEL_THRESHOLD`].
    pending: EventBatch,
}

impl ShardSupervisor {
    /// A supervisor over `shards` pid shards whose base is `seed`'s
    /// `(report, pid states)`, or empty. An unsupervised one (`supervised:
    /// false`) runs one inline shard with no `catch_unwind` and no replay
    /// log, so a panic propagates to the caller.
    pub(crate) fn new(
        filter: TraceFilter,
        shards: usize,
        policy: SupervisorPolicy,
        hook: Option<ShardHook>,
        metrics: Option<Arc<PipelineMetrics>>,
        supervised: bool,
        seed: Option<(AnalysisReport, BTreeMap<u32, PidStateSnapshot>)>,
    ) -> Self {
        let shards = if supervised { shards.max(1) } else { 1 };
        let (base_report, base_states) = seed.unwrap_or_default();
        ShardSupervisor {
            filter,
            metrics,
            policy,
            hook,
            supervised,
            threaded: supervised && (shards > 1 || policy.shard_timeout.is_some()),
            ledger: vec![ShardLedger::default(); shards],
            log: Vec::new(),
            base_report,
            base_states,
            inline: None,
            slots: Vec::new(),
            pending: EventBatch::new(),
        }
    }

    fn shards(&self) -> usize {
        self.ledger.len()
    }

    /// Feeds one batch.
    pub(crate) fn push(&mut self, batch: EventBatch) {
        if self.threaded {
            if self.pending.is_empty() && batch.len() >= PARALLEL_THRESHOLD {
                self.dispatch(Arc::new(batch));
                return;
            }
            self.pending.append_batch(&batch);
            if self.pending.len() >= PARALLEL_THRESHOLD {
                self.flush_pending();
            }
        } else if self.supervised {
            if !self.ledger[0].gave_up {
                self.log.push(Arc::new(batch));
                self.drive_inline();
            }
        } else {
            let mut incarnation = self.inline.take().unwrap_or_else(|| self.incarnate(0));
            incarnation.scan(&batch, 0, 1, self.hook.as_ref());
            self.inline = Some(incarnation);
        }
    }

    /// A checkpoint cut: completes every live incarnation into the base
    /// and returns the cumulative report and pid states.
    pub(crate) fn cut(&mut self) -> (AnalysisReport, BTreeMap<u32, PidStateSnapshot>) {
        self.rotate();
        (self.base_report.clone(), self.base_states.clone())
    }

    /// Drains the supervisor: the final report and the shard-failure
    /// manifest (also recorded in the metrics), one record per shard
    /// that restarted or gave up.
    pub(crate) fn finish(mut self) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        self.rotate();
        let failures: Vec<ShardFailureRecord> = self
            .ledger
            .iter()
            .enumerate()
            .filter(|(_, s)| s.restarts > 0 || s.gave_up)
            .map(|(w, s)| ShardFailureRecord {
                shard: w,
                restarts: s.restarts,
                gave_up: s.gave_up,
                last_error: s.last_error.clone().unwrap_or_default(),
            })
            .collect();
        if let Some(metrics) = &self.metrics {
            for failure in &failures {
                metrics.record_shard_failure(failure.clone());
            }
        }
        (self.base_report, failures)
    }

    /// A fresh incarnation of shard `w`, seeded with its pids' base
    /// states. The base is cloned, not moved: it seeds every *future*
    /// incarnation too, since a restart replays the log on the same
    /// base.
    fn incarnate(&self, w: usize) -> Incarnation {
        let n = self.shards();
        let local = self
            .metrics
            .as_ref()
            .map(|_| Arc::new(PipelineMetrics::default()));
        let mut analyzer = StreamingAnalyzer::new(self.filter.clone());
        if let Some(m) = &local {
            analyzer = analyzer.with_metrics(Arc::clone(m));
        }
        if n == 1 {
            analyzer.restore_pid_states(&self.base_states);
        } else {
            let subset: BTreeMap<u32, PidStateSnapshot> = self
                .base_states
                .iter()
                .filter(|(&pid, _)| pid as usize % n == w)
                .map(|(&pid, state)| (pid, state.clone()))
                .collect();
            analyzer.restore_pid_states(&subset);
        }
        Incarnation {
            analyzer,
            local,
            seen: 0,
        }
    }

    /// Merges a completed incarnation into the base. Its states map
    /// already contains its restored base subset, so `extend` replaces
    /// exactly its own pids.
    fn absorb(&mut self, done: Completed) {
        self.base_report.merge(&done.report);
        self.base_states.extend(done.states);
        if let (Some(shared), Some((snapshot, timings))) = (&self.metrics, done.counters) {
            shared.absorb(&snapshot);
            shared.absorb_stage_timings(&timings);
        }
    }

    /// Charges one failure of shard `w` to its run-long budget. Returns
    /// `true` once the backoff has passed and the shard may restart,
    /// `false` when it has given up.
    fn charge(&mut self, w: usize, error: String) -> bool {
        let ledger = &mut self.ledger[w];
        ledger.last_error = Some(error);
        if ledger.restarts >= self.policy.max_restarts {
            ledger.gave_up = true;
            return false;
        }
        ledger.restarts += 1;
        let backoff = self.policy.backoff(ledger.restarts);
        if let Some(metrics) = &self.metrics {
            metrics.record_shard_restart();
        }
        std::thread::sleep(backoff);
        true
    }

    /// Completes every live incarnation into the base and clears the
    /// log.
    fn rotate(&mut self) {
        if self.threaded {
            self.drain_threads();
        } else {
            self.drive_inline();
            if let Some(incarnation) = self.inline.take() {
                self.absorb(incarnation.complete());
            }
        }
        self.log.clear();
    }

    /// Drives the inline shard through every unscanned log batch,
    /// restarting (fresh incarnation, full replay) on panic within the
    /// budget.
    fn drive_inline(&mut self) {
        loop {
            let seen = self.inline.as_ref().map_or(0, |inc| inc.seen);
            if self.ledger[0].gave_up || seen >= self.log.len() {
                return;
            }
            let batch = Arc::clone(&self.log[seen]);
            let mut incarnation = self.inline.take().unwrap_or_else(|| self.incarnate(0));
            let hook = self.hook.clone();
            let result = catch_unwind(AssertUnwindSafe(move || {
                let _supervised = SupervisedScanGuard::enter();
                incarnation.scan(&batch, 0, 1, hook.as_ref());
                incarnation
            }));
            match result {
                Ok(incarnation) => self.inline = Some(incarnation),
                Err(payload) => {
                    let error = ShardError::Panicked(panic_message(payload.as_ref()));
                    self.charge(0, error.to_string());
                }
            }
        }
    }

    /// Spawns one thread running a fresh incarnation of shard `w`.
    fn spawn_slot(&self, w: usize) -> std::io::Result<Slot> {
        let n = self.shards();
        let (jobs, queue) = sync_channel::<Arc<EventBatch>>(PIPELINE_DEPTH);
        let (done_tx, done) = sync_channel::<WorkerExit>(1);
        let heartbeat = Arc::new(AtomicU64::new(0));
        let mut incarnation = self.incarnate(w);
        let beat = Arc::clone(&heartbeat);
        let hook = self.hook.clone();
        std::thread::Builder::new()
            .name(format!("iocov-shard-{w}"))
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(move || {
                    let _supervised = SupervisedScanGuard::enter();
                    while let Ok(batch) = queue.recv() {
                        incarnation.scan(&batch, w, n, hook.as_ref());
                        beat.fetch_add(1, Ordering::Relaxed);
                    }
                    beat.fetch_add(1, Ordering::Relaxed);
                    incarnation.complete()
                }));
                let exit = match result {
                    Ok(done) => WorkerExit::Finished(Box::new(done)),
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

    /// A live slot for shard `w`, charging the budget on spawn failure;
    /// a shard that has given up (now or at an earlier cut) gets a dead
    /// slot.
    fn spawned_slot(&mut self, w: usize) -> Slot {
        while !self.ledger[w].gave_up {
            match self.spawn_slot(w) {
                Ok(slot) => return slot,
                Err(e) => {
                    self.charge(w, format!("spawn shard worker: {e}"));
                }
            }
        }
        Slot::dead()
    }

    /// Charges a failure of shard `w`'s thread, then respawns it (the
    /// caller replays the log into it) or abandons it. Dropping an
    /// abandoned shard's sender lets a live-but-stalled thread drain and
    /// exit on its own; its report is discarded.
    fn recover(&mut self, w: usize, error: &ShardError) {
        if self.charge(w, error.to_string()) {
            self.slots[w] = self.spawned_slot(w);
        } else {
            self.slots[w].jobs = None;
        }
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

    /// Offers one batch to shard `w`'s queue, spinning while it is full
    /// and detecting a dead thread.
    fn offer(&self, w: usize, batch: Arc<EventBatch>) -> Result<(), ShardError> {
        let Some(jobs) = &self.slots[w].jobs else {
            return Err(ShardError::Panicked("worker unavailable".into()));
        };
        let mut job = Some(batch);
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
            Ok(WorkerExit::Panicked(msg)) => ShardError::Panicked(msg),
            Ok(WorkerExit::Finished(_)) => {
                ShardError::Panicked("worker exited before its queue closed".into())
            }
            Err(_) => ShardError::Panicked("worker terminated without reporting".into()),
        }
    }

    /// Waits for shard `w`'s thread to exit after its queue was closed.
    fn await_exit(&self, w: usize) -> Result<Box<Completed>, ShardError> {
        let done = &self.slots[w].done;
        self.watch(w, || match done.recv_timeout(Duration::from_millis(20)) {
            Ok(WorkerExit::Finished(completed)) => Ok(completed),
            Ok(WorkerExit::Panicked(msg)) => Err(Some(ShardError::Panicked(msg))),
            Err(RecvTimeoutError::Disconnected) => Err(Some(ShardError::Panicked(
                "worker terminated without reporting".into(),
            ))),
            Err(RecvTimeoutError::Timeout) => Err(None),
        })
    }

    /// Delivers log batches to shard `w` until its incarnation has seen
    /// the first `target` (restarting and replaying as needed).
    fn deliver_up_to(&mut self, w: usize, target: usize) {
        while !self.ledger[w].gave_up && self.slots[w].sent < target {
            let idx = self.slots[w].sent;
            match self.offer(w, Arc::clone(&self.log[idx])) {
                Ok(()) => self.slots[w].sent = idx + 1,
                Err(error) => self.recover(w, &error),
            }
        }
    }

    /// Logs one batch and hands it to every shard thread. Blocks only
    /// when a queue is [`PIPELINE_DEPTH`] batches behind — the
    /// backpressure that bounds memory to `depth × batch` per shard
    /// (plus the `Arc`-shared log).
    fn dispatch(&mut self, batch: Arc<EventBatch>) {
        if self.slots.is_empty() {
            self.slots = (0..self.shards()).map(|w| self.spawned_slot(w)).collect();
        }
        self.log.push(batch);
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

    /// Closes every shard queue and absorbs each thread's completed
    /// incarnation, supervising throughout: a shard that panics or
    /// stalls, even during the drain, is restarted and replayed.
    fn drain_threads(&mut self) {
        self.flush_pending();
        if self.slots.is_empty() {
            return;
        }
        let target = self.log.len();
        for w in 0..self.shards() {
            loop {
                self.deliver_up_to(w, target);
                if self.ledger[w].gave_up {
                    break;
                }
                self.slots[w].jobs = None;
                match self.await_exit(w) {
                    Ok(done) => {
                        self.absorb(*done);
                        break;
                    }
                    Err(error) => self.recover(w, &error),
                }
            }
        }
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArgName, Iocov, PipelineBuilder};
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
    fn zero_shards_clamp_to_one_inline_shard() {
        let supervisor = ShardSupervisor::new(
            TraceFilter::keep_all(),
            0,
            SupervisorPolicy::default(),
            None,
            None,
            true,
            None,
        );
        assert_eq!(supervisor.shards(), 1);
        assert!(!supervisor.threaded);
    }

    #[test]
    fn sharded_matches_serial_at_every_job_count() {
        // Byte-identical at 1–8 shards, with more shards than pids at
        // the top end, both as one whole-trace batch and chunked small
        // enough that the threaded transport coalesces.
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
        // coalescing on the threaded transport; large ones do not.
        let events = multi_pid_trace(7, 40);
        let expected = json(&serial(&events));
        for (jobs, shard, chunk) in [
            (1, 0, events.len() / 3),
            (3, 1, PARALLEL_THRESHOLD),
            (3, 1, events.len() / 3),
        ] {
            let (report, failures) =
                run_chunked(builder(jobs).hook(panic_hook(shard, 1, 1)), &events, chunk);
            assert_eq!(expected, json(&report), "diverged at {jobs} jobs");
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
        for jobs in [1, 2] {
            let metrics = Arc::new(PipelineMetrics::default());
            let (report, _) = run_chunked(
                builder(jobs)
                    .metrics(Arc::clone(&metrics))
                    .hook(panic_hook(0, 1, 1)),
                &events,
                PARALLEL_THRESHOLD,
            );
            assert_eq!(clean, report);
            let snap = metrics.snapshot();
            // The restarted shard replays its events, but only the
            // successful incarnation's counters are absorbed.
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
        for jobs in [1, 2] {
            let metrics = Arc::new(PipelineMetrics::default());
            let mut session = builder(jobs)
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
        let events = multi_pid_trace(6, 20);
        let expected = json(&serial(&events));
        // Shard 0 freezes for 5s on its first batch; the 50ms watchdog
        // must abandon and replay it rather than wait. A timeout runs
        // the threaded transport even at one shard.
        for jobs in [1, 2] {
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
                builder(jobs).policy(policy).hook(hook),
                &events,
                events.len(),
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

    #[test]
    fn unsupervised_panic_propagates_out_of_feed() {
        // No catch_unwind and no replay: the hook's panic reaches the
        // caller of `feed`, before any cut could record the batch.
        let events = multi_pid_trace(2, 2);
        let mut session = builder(4)
            .hook(panic_hook(0, 1, 1))
            .unsupervised()
            .build_session();
        session.feed_owned(events.clone());
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            session.feed_owned(events.clone());
        }));
        let payload = caught.expect_err("the panic must propagate");
        assert!(panic_message(payload.as_ref()).contains("injected test panic (shard 0, tick 1)"));
    }
}
