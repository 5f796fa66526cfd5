//! Multi-process scale-out: a coordinator that shards one analysis
//! across `N` worker *processes* and merges their partial checkpoints.
//!
//! The thread pool in [`parallel`](crate::parallel) already proves the
//! core invariant: pid-sharded [`StreamingAnalyzer`]s over the same
//! trace merge into a report byte-identical to a serial run. This
//! module promotes that invariant across a process boundary, where a
//! worker can be SIGKILLed, stall, or hand back corrupt bytes — the
//! failure modes of a real test fleet.
//!
//! # Protocol
//!
//! Coordinator and worker speak length-prefixed, FNV-1a-64-checksummed
//! frames over the worker's stdin/stdout:
//!
//! ```text
//! offset  size  field
//! 0       1     frame type: b'S' spec, b'H' heartbeat,
//!               b'C' checkpoint, b'D' done
//!               (b'L' hello and b'T' data belong to `iocov serve`,
//!               which reuses this framing over unix sockets)
//! 1       8     payload length, u64 LE
//! 9       n     payload
//! 9+n     8     FNV-1a 64 checksum of the payload, u64 LE
//! ```
//!
//! The coordinator sends exactly one spec frame ([`WorkerSpec`] as
//! JSON) and closes the worker's stdin. The worker scans the *whole*
//! input and keeps only `pid % workers == shard` — identical to a pool
//! shard, so descriptor provenance chains survive no matter where the
//! trace interleaves pids. It emits a heartbeat per source batch, a
//! checkpoint frame (a complete `.iockpt` image) every
//! [`WorkerSpec::emit_every`] source events, and a final done frame
//! carrying its finished partial checkpoint.
//!
//! # Recovery state machine
//!
//! Supervision reuses [`SupervisorPolicy`] at process granularity. Per
//! worker, the coordinator runs *attempts*; an attempt ends in one of:
//!
//! * **done** — done frame verified and the process exited 0;
//! * **died** — the process exited nonzero, was killed by a signal, or
//!   closed stdout without a done frame (declared
//!   [`ShardError::Panicked`]);
//! * **stalled** — no frame for [`SupervisorPolicy::shard_timeout`]
//!   (declared [`ShardError::Stalled`], process killed);
//! * **corrupt** — a frame failed its checksum or carried an
//!   unparseable checkpoint (declared `Panicked`, process killed).
//!
//! A failed attempt re-drives the worker's range from its last
//! *collected* checkpoint after a seeded, jittered exponential backoff
//! ([`SupervisorPolicy::jittered_backoff`]); an exhausted restart
//! budget degrades to partial-report-plus-[`ShardFailureRecord`], and
//! the worker's last collected checkpoint still contributes everything
//! it covered. The coordinator never panics or hangs on worker
//! failure, and always exits 0 — exactly the thread-pool semantics.
//!
//! Injected fault budgets ([`WorkerFaults`]) are decremented by the
//! *coordinator* when it observes the matching failure class, so a
//! restarted worker is re-armed with one fewer charge — reproducing a
//! drill trigger's self-disarming semantics (`iocov_faults::DrillTrigger`)
//! across process restarts and guaranteeing termination within the
//! restart budget, which each worker charges to the same restart
//! ledger as a pool shard.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use iocov_trace::{
    open_source, ErrorPolicy, EventBatch, EventView, ReadOptions, SkippedLine, SourceFormat,
    SourceOptions, SourcePos,
};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{encode_checkpoint, fnv1a64, parse_checkpoint, CheckpointDoc};
use crate::coverage::AnalysisReport;
use crate::filter::TraceFilter;
use crate::metrics::{MetricsSnapshot, PipelineMetrics, ShardFailureRecord};
use crate::parallel::{splitmix64, RestartLedger, ShardError, SupervisorPolicy};
use crate::pipeline::{PipelineBuilder, DEFAULT_CHUNK};
use crate::session::AnalysisSession;

/// Frame type: the coordinator's one [`WorkerSpec`] frame.
pub const FRAME_SPEC: u8 = b'S';
/// Frame type: worker liveness signal (empty payload), one per source
/// batch.
pub const FRAME_HEARTBEAT: u8 = b'H';
/// Frame type: an intermediate `.iockpt` image — the worker's resume
/// point if this incarnation dies.
pub const FRAME_CHECKPOINT: u8 = b'C';
/// Frame type: the final `.iockpt` image; the worker exits 0 after it.
pub const FRAME_DONE: u8 = b'D';
/// Frame type: a serve-stream greeting (`iocov serve` reuses this
/// protocol over unix sockets; see [`serve`](crate::serve)). Payload is
/// a JSON stream header.
pub const FRAME_HELLO: u8 = b'L';
/// Frame type: a chunk of raw trace bytes on a serve stream.
pub const FRAME_DATA: u8 = b'T';

/// Ceiling on a frame's declared payload length. Frames come from a
/// child process — untrusted by policy — so a corrupt length must fail
/// fast instead of provoking a gigantic allocation.
pub const MAX_FRAME_LEN: u64 = 1 << 30;

/// The most payload buffer [`read_frame`] reserves before bytes arrive;
/// larger payloads grow the buffer as they are actually read, so a
/// forged length costs nothing it does not deliver.
const FRAME_PREALLOC: usize = 64 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Reading the stream failed (includes mid-frame EOF).
    Io(io::Error),
    /// The type byte is not one of the known frame types.
    BadType(u8),
    /// The declared payload length exceeds the reader's limit
    /// ([`MAX_FRAME_LEN`] unless [`read_frame_limited`] set a smaller
    /// one).
    Oversized {
        /// The declared payload length.
        len: u64,
        /// The limit it exceeds.
        max: u64,
    },
    /// The payload checksum does not verify.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::BadType(t) => write!(f, "unknown frame type {t:#04x}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds {max}")
            }
            FrameError::ChecksumMismatch { expected, found } => write!(
                f,
                "frame checksum mismatch: stored {expected:#018x}, computed {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// One decoded protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `FRAME_*` type bytes.
    pub kind: u8,
    /// The verified payload.
    pub payload: Vec<u8>,
}

/// Writes one frame with the payload's true checksum.
///
/// # Errors
///
/// Underlying stream errors.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    write_frame_with_checksum(w, kind, payload, fnv1a64(payload))
}

/// Writes one frame carrying an explicit checksum. The checksum is a
/// parameter so fault injection can corrupt the payload *after* the
/// checksum was computed — producing exactly the checksum-failing frame
/// the coordinator's verify path must catch.
///
/// # Errors
///
/// Underlying stream errors.
pub fn write_frame_with_checksum<W: Write + ?Sized>(
    w: &mut W,
    kind: u8,
    payload: &[u8],
    checksum: u64,
) -> io::Result<()> {
    w.write_all(&[kind])?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&checksum.to_le_bytes())?;
    w.flush()
}

/// Reads and verifies one frame. `Ok(None)` is a clean end of stream
/// (EOF exactly at a frame boundary); EOF anywhere inside a frame is
/// [`FrameError::Io`].
///
/// # Errors
///
/// [`FrameError`] describing what failed: I/O, an unknown type byte, an
/// oversized length, or a checksum mismatch.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, FrameError> {
    read_frame_limited(r, MAX_FRAME_LEN)
}

/// [`read_frame`] with a tighter payload ceiling than
/// [`MAX_FRAME_LEN`]: a declared length above `max` is
/// [`FrameError::Oversized`] before any payload byte is read.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_limited(r: &mut impl Read, max: u64) -> Result<Option<Frame>, FrameError> {
    let mut kind = [0u8; 1];
    loop {
        match r.read(&mut kind) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let kind = kind[0];
    if !matches!(
        kind,
        FRAME_SPEC | FRAME_HEARTBEAT | FRAME_CHECKPOINT | FRAME_DONE | FRAME_HELLO | FRAME_DATA
    ) {
        return Err(FrameError::BadType(kind));
    }
    let mut len = [0u8; 8];
    r.read_exact(&mut len).map_err(FrameError::Io)?;
    let len = u64::from_le_bytes(len);
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let capacity = usize::try_from(len).map_err(|_| FrameError::Oversized { len, max })?;
    let mut payload = Vec::with_capacity(capacity.min(FRAME_PREALLOC));
    r.take(len)
        .read_to_end(&mut payload)
        .map_err(FrameError::Io)?;
    if payload.len() != capacity {
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame payload ended after {} of {len} bytes", payload.len()),
        )));
    }
    let mut stored = [0u8; 8];
    r.read_exact(&mut stored).map_err(FrameError::Io)?;
    let stored = u64::from_le_bytes(stored);
    let computed = fnv1a64(&payload);
    if stored != computed {
        return Err(FrameError::ChecksumMismatch {
            expected: stored,
            found: computed,
        });
    }
    Ok(Some(Frame { kind, payload }))
}

/// Deterministic worker-kill schedule: raise `signal` at source-event
/// ordinal `tick`, `times` times across incarnations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KillSpec {
    /// Source-event ordinal (per incarnation) at which to die.
    pub tick: u64,
    /// Signal name (`KILL`, `TERM`, `ABRT`) or number; `None` aborts.
    pub signal: Option<String>,
    /// Charges left; the coordinator decrements on each observed death.
    pub times: u32,
}

/// Deterministic worker-stall schedule: sleep `millis` at `tick`,
/// freezing heartbeats so the coordinator's watchdog fires.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallSpec {
    /// Source-event ordinal (per incarnation) at which to freeze.
    pub tick: u64,
    /// How long to sleep.
    pub millis: u64,
    /// Charges left; the coordinator decrements on each observed stall.
    pub times: u32,
}

/// Deterministic corrupt-frame schedule: flip payload bytes of the
/// worker's `frame`-th checkpoint/done frame *after* its checksum was
/// computed, so the coordinator's verification fails.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorruptSpec {
    /// Checkpoint/done frame ordinal (per incarnation) to corrupt.
    pub frame: u64,
    /// Charges left; the coordinator decrements on each corrupt frame.
    pub times: u32,
}

/// Process-level fault schedules carried inside a [`WorkerSpec`].
/// Budgets live here — in coordinator-owned state — because a restarted
/// process would otherwise re-read a fully-armed schedule and kill
/// itself forever.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerFaults {
    /// Kill schedule, if armed.
    pub kill: Option<KillSpec>,
    /// Stall schedule, if armed.
    pub stall: Option<StallSpec>,
    /// Corrupt-frame schedule, if armed.
    pub corrupt: Option<CorruptSpec>,
}

/// Everything a worker process needs, sent as the one spec frame.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// Path of the trace file to scan.
    pub trace: String,
    /// Forced container format; `None` sniffs.
    pub format: Option<SourceFormat>,
    /// Mount-point filter (`None` = keep-all).
    pub mount: Option<String>,
    /// Skip malformed lines instead of aborting.
    pub lossy: bool,
    /// Lossy skip budget.
    pub max_errors: Option<usize>,
    /// This worker's shard index: it keeps `pid % workers == shard`.
    pub shard: usize,
    /// Total worker count.
    pub workers: usize,
    /// Emit a checkpoint frame every this many source events (at batch
    /// boundaries); `0` disables intermediate checkpoints.
    pub emit_every: u64,
    /// Whether this worker accounts trace-wide counters (parse skips)
    /// that every worker observes identically — exactly one worker per
    /// run is primary, so merged metrics match a single-process run.
    pub primary: bool,
    /// Resume point: the worker's last collected checkpoint.
    pub resume: Option<CheckpointDoc>,
    /// Injected fault schedules.
    #[serde(default)]
    pub faults: WorkerFaults,
}

/// A per-event-ordinal hook — kill and stall schedules fire here.
pub type TickHook = Arc<dyn Fn(u64) + Send + Sync>;

/// A frame-mutation hook, called with the checkpoint-frame ordinal and
/// the payload bytes.
pub type CorruptFrameHook = Arc<dyn Fn(u64, &mut [u8]) + Send + Sync>;

/// Fault-injection hooks a worker runtime threads into
/// [`run_worker`]. Built by the binary from [`WorkerSpec::faults`]
/// (each a drill on an `iocov_faults::DrillTrigger`), kept as closures
/// here so the analysis core stays independent of the fault crate.
#[derive(Clone, Default)]
pub struct WorkerHooks {
    /// Called at every source-event ordinal of the current incarnation,
    /// *before* the event is processed.
    pub tick: Option<TickHook>,
    /// May mutate an outgoing checkpoint/done frame payload; the
    /// checksum is computed first, so any mutation yields a
    /// checksum-failing frame.
    pub corrupt_frame: Option<CorruptFrameHook>,
}

impl fmt::Debug for WorkerHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerHooks")
            .field("tick", &self.tick.as_ref().map(|_| "…"))
            .field("corrupt_frame", &self.corrupt_frame.as_ref().map(|_| "…"))
            .finish()
    }
}

/// Why a worker run failed. The worker exits nonzero on any of these;
/// classification happens coordinator-side from the exit status.
#[derive(Debug)]
pub enum WorkerError {
    /// Opening or reading the trace failed.
    Source(String),
    /// The mount filter could not be built.
    Filter(String),
    /// Writing a frame to stdout failed.
    Io(io::Error),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Source(msg) | WorkerError::Filter(msg) => f.write_str(msg),
            WorkerError::Io(e) => write!(f, "write frame: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Runs one worker: scans the spec's trace, analyzes this shard's
/// residue class, and streams heartbeat/checkpoint/done frames to
/// `out` (the process's stdout).
///
/// There is deliberately **no** `catch_unwind` here: an internal panic
/// tears the process down with a nonzero exit, which is precisely the
/// failure the process-level supervisor exists to absorb — supervision
/// stays honest because the worker cannot self-heal.
///
/// # Errors
///
/// [`WorkerError`] on source, filter, or stdout failure; the binary
/// converts any of these into a nonzero exit.
pub fn run_worker(
    spec: &WorkerSpec,
    hooks: &WorkerHooks,
    out: &mut dyn Write,
) -> Result<(), WorkerError> {
    let filter = match &spec.mount {
        Some(mount) => {
            TraceFilter::mount_point(mount).map_err(|e| WorkerError::Filter(e.to_string()))?
        }
        None => TraceFilter::keep_all(),
    };
    let resume = spec.resume.as_ref().map(|doc| SourcePos {
        format: doc.format,
        state: doc.cursor.clone(),
    });
    let mut source = open_source(
        &spec.trace,
        SourceOptions {
            read: ReadOptions {
                max_errors: spec.max_errors,
                on_error: if spec.lossy {
                    ErrorPolicy::Skip
                } else {
                    ErrorPolicy::Abort
                },
            },
            format: spec.format,
            resume,
            ..SourceOptions::default()
        },
    )
    .map_err(|e| WorkerError::Source(e.to_string()))?;

    // The worker is an unsupervised session: the resume doc seeds its
    // cumulative report, pid states, and metrics counters, and an
    // internal panic propagates straight to process death.
    let metrics = Arc::new(PipelineMetrics::default());
    let mut builder = PipelineBuilder::new(filter)
        .mount(spec.mount.clone())
        .metrics(Arc::clone(&metrics))
        .unsupervised();
    if let Some(doc) = &spec.resume {
        builder = builder.resume(doc.clone());
    }
    let mut session = builder.build_session();
    // A resumed ledger is restored into the cursor; only *growth* is
    // counted, mirroring the single-process pipeline driver.
    let mut skips_seen = source.skip_ledger().len();
    let n = spec.workers.max(1);
    let mut tick = 0u64;
    let mut since_emit = 0u64;
    let mut frames = 0u64;
    loop {
        let batch = source
            .next_batch(DEFAULT_CHUNK)
            .map_err(|e| WorkerError::Source(e.to_string()))?;
        if spec.primary {
            let skips = source.skip_ledger().len();
            if skips > skips_seen {
                metrics.add_parse_skipped((skips - skips_seen) as u64);
                skips_seen = skips;
            }
        }
        if batch.is_empty() {
            break;
        }
        write_frame(out, FRAME_HEARTBEAT, &[]).map_err(WorkerError::Io)?;
        // Keep only this shard's residue class, as a cheap row copy —
        // the session then sees exactly what a pool shard would.
        let mut kept = EventBatch::new();
        for (row, event) in batch.iter().enumerate() {
            if let Some(hook) = &hooks.tick {
                hook(tick);
            }
            tick += 1;
            if event.pid() as usize % n == spec.shard {
                kept.append_row(&batch, row);
            }
        }
        if !kept.is_empty() {
            session.feed(kept);
        }
        since_emit += batch.len() as u64;
        if spec.emit_every > 0 && since_emit >= spec.emit_every {
            since_emit = 0;
            let image = cut_image(&mut session, &source.position())?;
            emit_frame(out, FRAME_CHECKPOINT, image, hooks, &mut frames)?;
        }
    }
    let image = cut_image(&mut session, &source.position())?;
    emit_frame(out, FRAME_DONE, image, hooks, &mut frames)?;
    Ok(())
}

/// Encodes the worker session's current cut as a complete `.iockpt`
/// image — resume-base state merged with everything this incarnation
/// analyzed — at the source's batch-boundary position.
fn cut_image(session: &mut AnalysisSession, pos: &SourcePos) -> Result<Vec<u8>, WorkerError> {
    encode_checkpoint(&session.checkpoint_doc(pos)).map_err(WorkerError::Io)
}

/// Writes one checkpoint-bearing frame, applying the corrupt-frame hook
/// between checksum computation and transmission.
fn emit_frame(
    out: &mut dyn Write,
    kind: u8,
    mut payload: Vec<u8>,
    hooks: &WorkerHooks,
    frames: &mut u64,
) -> Result<(), WorkerError> {
    let checksum = fnv1a64(&payload);
    if let Some(corrupt) = &hooks.corrupt_frame {
        corrupt(*frames, &mut payload);
    }
    *frames += 1;
    write_frame_with_checksum(out, kind, &payload, checksum).map_err(WorkerError::Io)
}

/// How the coordinator launches and supervises workers.
#[derive(Debug, Clone)]
pub struct DistributeConfig {
    /// Worker executable (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments selecting worker mode (e.g. `["worker"]`).
    pub args: Vec<String>,
    /// Restart budget, backoff curve, and heartbeat watchdog — the
    /// thread-pool policy, reused at process granularity.
    pub policy: SupervisorPolicy,
    /// Seed for restart-backoff jitter; per-worker streams are derived
    /// with [`splitmix64`], so simultaneous deaths fan out
    /// deterministically.
    pub backoff_seed: u64,
}

/// The merged result of a distributed run.
#[derive(Debug, Clone, Default)]
pub struct DistributeRun {
    /// Reports of every worker's last collected checkpoint, merged in
    /// shard order. Complete when `failures` has no `gave_up` entry.
    pub report: AnalysisReport,
    /// Process-level failure manifest, one record per worker that
    /// needed restarting — same semantics as the thread pool's.
    pub failures: Vec<ShardFailureRecord>,
    /// The primary worker's lossy skip ledger (every worker observes
    /// the same skipped lines).
    pub skipped: Vec<SkippedLine>,
    /// Worker metric snapshots merged in shard order (restart counts
    /// and the failure manifest are recorded into the shared
    /// [`PipelineMetrics`] passed to [`run_coordinator`], not here).
    pub metrics: MetricsSnapshot,
}

/// How one worker attempt failed, classified for budget accounting.
enum AttemptFailure {
    /// The process died: nonzero exit, signal, or EOF without done.
    Died(String),
    /// The watchdog saw no frame for this long.
    Stalled(Duration),
    /// A frame failed verification.
    Corrupt(String),
}

impl AttemptFailure {
    /// The equivalent thread-supervisor error, for manifest messages.
    fn to_shard_error(&self) -> ShardError {
        match self {
            AttemptFailure::Died(msg) | AttemptFailure::Corrupt(msg) => {
                ShardError::Panicked(msg.clone())
            }
            AttemptFailure::Stalled(waited) => ShardError::Stalled { waited: *waited },
        }
    }
}

/// One worker's final outcome as the coordinator sees it.
struct WorkerOutcome {
    primary: bool,
    /// Final checkpoint (completed) or last collected one (gave up).
    doc: Option<CheckpointDoc>,
    failure: Option<ShardFailureRecord>,
}

/// Runs a distributed analysis: spawns one supervised worker process
/// per spec, collects their checkpoint frames, and merges the partial
/// reports in shard order.
///
/// Infallible by design: every failure mode — spawn errors, worker
/// deaths, stalls, corrupt frames, exhausted budgets — degrades into
/// the returned manifest, mirroring the thread pool. `metrics`, when
/// given, receives restart counts, the failure manifest, and the merged
/// worker counters (so a `--metrics` rendering matches the
/// single-process path byte for byte on a fault-free run).
#[must_use]
pub fn run_coordinator(
    cfg: &DistributeConfig,
    specs: Vec<WorkerSpec>,
    metrics: Option<&Arc<PipelineMetrics>>,
) -> DistributeRun {
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .into_iter()
            .map(|spec| scope.spawn(move || supervise_worker(cfg, spec, metrics)))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(shard, handle)| {
                handle.join().unwrap_or_else(|payload| WorkerOutcome {
                    primary: false,
                    doc: None,
                    failure: Some(ShardFailureRecord {
                        shard,
                        restarts: 0,
                        gave_up: true,
                        last_error: crate::parallel::panic_message(payload.as_ref()),
                    }),
                })
            })
            .collect()
    });
    let mut run = DistributeRun::default();
    for outcome in outcomes {
        if let Some(doc) = &outcome.doc {
            run.report.merge(&doc.report);
            run.metrics.merge(&doc.metrics);
            if outcome.primary {
                run.skipped = doc.cursor.skipped.clone();
            }
        }
        if let Some(failure) = outcome.failure {
            run.failures.push(failure);
        }
    }
    run.failures.sort_by_key(|f| f.shard);
    if let Some(metrics) = metrics {
        metrics.absorb(&run.metrics);
        for failure in &run.failures {
            metrics.record_shard_failure(failure.clone());
        }
    }
    run
}

/// Supervises one worker across restarts: attempt, classify the
/// failure, consume the matching injected-fault charge, back off with
/// seeded jitter, and respawn from the last collected checkpoint —
/// until done or the budget runs out.
fn supervise_worker(
    cfg: &DistributeConfig,
    mut spec: WorkerSpec,
    metrics: Option<&Arc<PipelineMetrics>>,
) -> WorkerOutcome {
    let shard = spec.shard;
    let primary = spec.primary;
    let jitter = splitmix64(cfg.backoff_seed, shard as u64);
    let mut ledger = RestartLedger::default();
    let mut last_doc: Option<CheckpointDoc> = None;
    loop {
        match run_attempt(cfg, &spec) {
            Ok(doc) => {
                return WorkerOutcome {
                    primary,
                    doc: Some(doc),
                    failure: ledger.record(shard),
                };
            }
            Err(error) => {
                let (failure, collected) = *error;
                if let Some(doc) = collected {
                    last_doc = Some(doc);
                }
                consume_fault_budget(&mut spec.faults, &failure);
                let message = failure.to_shard_error().to_string();
                if !ledger.charge(message, &cfg.policy, metrics.map(Arc::as_ref), Some(jitter)) {
                    return WorkerOutcome {
                        primary,
                        doc: last_doc,
                        failure: ledger.record(shard),
                    };
                }
                spec.resume = last_doc.clone();
            }
        }
    }
}

/// Decrements the injected-fault charge matching an observed failure
/// class, so the next incarnation's spec carries one fewer — the
/// cross-process equivalent of a drill trigger disarming itself.
fn consume_fault_budget(faults: &mut WorkerFaults, failure: &AttemptFailure) {
    match failure {
        AttemptFailure::Died(_) => {
            if let Some(kill) = &mut faults.kill {
                kill.times = kill.times.saturating_sub(1);
            }
        }
        AttemptFailure::Stalled(_) => {
            if let Some(stall) = &mut faults.stall {
                stall.times = stall.times.saturating_sub(1);
            }
        }
        AttemptFailure::Corrupt(_) => {
            if let Some(corrupt) = &mut faults.corrupt {
                corrupt.times = corrupt.times.saturating_sub(1);
            }
        }
    }
}

/// Kills and reaps a child, ignoring races with its own exit.
fn put_down(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Renders a reaped exit status as a manifest-worthy description.
fn exit_description(status: io::Result<ExitStatus>) -> String {
    match status {
        Ok(s) if s.success() => "worker exited before completing its range".into(),
        Ok(s) => {
            #[cfg(unix)]
            {
                use std::os::unix::process::ExitStatusExt;
                if let Some(signal) = s.signal() {
                    return format!("worker killed by signal {signal}");
                }
            }
            match s.code() {
                Some(code) => format!("worker exited with status {code}"),
                None => "worker exited abnormally".into(),
            }
        }
        Err(e) => format!("worker unwaitable: {e}"),
    }
}

/// A failed attempt: why, plus the newest checkpoint collected during
/// it (boxed — the error path is cold and the doc is large).
type AttemptError = Box<(AttemptFailure, Option<CheckpointDoc>)>;

fn attempt_err(failure: AttemptFailure, collected: Option<CheckpointDoc>) -> AttemptError {
    Box::new((failure, collected))
}

/// Runs one worker incarnation to completion or failure. On failure,
/// also returns the newest checkpoint collected *during this attempt*
/// (if any) so the supervisor can resume past it.
fn run_attempt(cfg: &DistributeConfig, spec: &WorkerSpec) -> Result<CheckpointDoc, AttemptError> {
    let mut collected: Option<CheckpointDoc> = None;
    let spec_json = match serde_json::to_string(spec) {
        Ok(json) => json.into_bytes(),
        Err(e) => {
            return Err(attempt_err(
                AttemptFailure::Died(format!("encode worker spec: {e}")),
                None,
            ))
        }
    };
    let mut child = match Command::new(&cfg.program)
        .args(&cfg.args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => {
            return Err(attempt_err(
                AttemptFailure::Died(format!("spawn worker: {e}")),
                None,
            ))
        }
    };
    {
        // One spec frame, then EOF: the worker needs nothing further.
        let mut stdin = child.stdin.take().expect("stdin was piped");
        if let Err(e) = write_frame(&mut stdin, FRAME_SPEC, &spec_json) {
            put_down(&mut child);
            return Err(attempt_err(
                AttemptFailure::Died(format!("send worker spec: {e}")),
                None,
            ));
        }
    }
    let stdout = child.stdout.take().expect("stdout was piped");
    // Frames are parsed on a dedicated thread so the supervisor can
    // multiplex "frame arrived" against the stall watchdog with a plain
    // recv_timeout. The channel is bounded: a worker cannot outrun the
    // coordinator by more than a few frames.
    let (tx, rx) = sync_channel::<Result<Frame, FrameError>>(16);
    let reader = std::thread::spawn(move || {
        let mut stdout = io::BufReader::new(stdout);
        loop {
            match read_frame(&mut stdout) {
                Ok(Some(frame)) => {
                    if tx.send(Ok(frame)).is_err() {
                        return;
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        }
    });
    let outcome = loop {
        let message = match cfg.policy.shard_timeout {
            Some(limit) => match rx.recv_timeout(limit) {
                Ok(message) => Some(message),
                Err(RecvTimeoutError::Timeout) => {
                    put_down(&mut child);
                    break Err(attempt_err(
                        AttemptFailure::Stalled(limit),
                        collected.take(),
                    ));
                }
                Err(RecvTimeoutError::Disconnected) => None,
            },
            None => rx.recv().ok(),
        };
        match message {
            // Stream closed without a done frame: the worker died.
            None => {
                let status = child.wait();
                break Err(attempt_err(
                    AttemptFailure::Died(exit_description(status)),
                    collected.take(),
                ));
            }
            Some(Err(e)) => {
                put_down(&mut child);
                break Err(attempt_err(
                    AttemptFailure::Corrupt(e.to_string()),
                    collected.take(),
                ));
            }
            Some(Ok(frame)) => match frame.kind {
                FRAME_HEARTBEAT => {}
                FRAME_CHECKPOINT => match parse_checkpoint(&frame.payload) {
                    Ok(doc) => collected = Some(doc),
                    Err(e) => {
                        put_down(&mut child);
                        break Err(attempt_err(
                            AttemptFailure::Corrupt(format!("corrupt checkpoint frame: {e}")),
                            collected.take(),
                        ));
                    }
                },
                FRAME_DONE => match parse_checkpoint(&frame.payload) {
                    Ok(doc) => {
                        // A verified done frame is progress even if the
                        // process then fails to exit cleanly.
                        collected = Some(doc.clone());
                        let status = child.wait();
                        match status {
                            Ok(s) if s.success() => break Ok(doc),
                            status => {
                                break Err(attempt_err(
                                    AttemptFailure::Died(exit_description(status)),
                                    collected.take(),
                                ))
                            }
                        }
                    }
                    Err(e) => {
                        put_down(&mut child);
                        break Err(attempt_err(
                            AttemptFailure::Corrupt(format!("corrupt done frame: {e}")),
                            collected.take(),
                        ));
                    }
                },
                other => {
                    put_down(&mut child);
                    break Err(attempt_err(
                        AttemptFailure::Corrupt(format!("unexpected frame type {other:#04x}")),
                        collected.take(),
                    ));
                }
            },
        }
    };
    let _ = reader.join();
    outcome
}

/// Builds the per-worker specs for one distributed run: shard `w` of
/// `workers`, with shard 0 as the primary accountant. `faults` attaches
/// the injected schedules to their target shard only.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn worker_specs(
    trace: &str,
    format: Option<SourceFormat>,
    mount: Option<&str>,
    lossy: bool,
    max_errors: Option<usize>,
    workers: usize,
    emit_every: u64,
    faults: &BTreeMap<usize, WorkerFaults>,
) -> Vec<WorkerSpec> {
    let workers = workers.max(1);
    (0..workers)
        .map(|w| WorkerSpec {
            trace: trace.to_owned(),
            format,
            mount: mount.map(str::to_owned),
            lossy,
            max_errors,
            shard: w,
            workers,
            emit_every,
            primary: w == 0,
            resume: None,
            faults: faults.get(&w).cloned().unwrap_or_default(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_CHECKPOINT, b"hello frames").unwrap();
        write_frame(&mut buf, FRAME_HEARTBEAT, &[]).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let first = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(first.kind, FRAME_CHECKPOINT);
        assert_eq!(first.payload, b"hello frames");
        let second = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(second.kind, FRAME_HEARTBEAT);
        assert!(second.payload.is_empty());
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frame_corruption_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_DONE, b"payload bytes").unwrap();

        // Flip a payload byte → checksum mismatch.
        let mut torn = buf.clone();
        torn[12] ^= 0x40;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(torn)),
            Err(FrameError::ChecksumMismatch { .. })
        ));

        // Unknown type byte.
        let mut bad_type = buf.clone();
        bad_type[0] = b'Z';
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bad_type)),
            Err(FrameError::BadType(b'Z'))
        ));

        // Truncation mid-frame is an I/O error, not a clean EOF.
        let torn_tail = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut io::Cursor::new(torn_tail)),
            Err(FrameError::Io(_))
        ));

        // A header declaring the largest legal payload, then EOF, is a
        // structured I/O error (the payload is never preallocated).
        let mut forged = vec![FRAME_DATA];
        forged.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        match read_frame(&mut io::Cursor::new(forged)) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected a truncation error, got {other:?}"),
        }

        // Oversized declared length fails before allocating.
        let mut oversized = buf.clone();
        oversized[1..9].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(oversized)),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn corrupted_emit_keeps_pristine_checksum() {
        // The corrupt-frame hook mutates the payload after the checksum
        // is computed, so the reader must reject the frame.
        let hooks = WorkerHooks {
            tick: None,
            corrupt_frame: Some(Arc::new(|_, payload: &mut [u8]| {
                payload[0] ^= 0xff;
            })),
        };
        let mut buf = Vec::new();
        let mut frames = 0;
        emit_frame(
            &mut buf,
            FRAME_CHECKPOINT,
            b"checkpoint image".to_vec(),
            &hooks,
            &mut frames,
        )
        .unwrap();
        assert_eq!(frames, 1);
        assert!(matches!(
            read_frame(&mut io::Cursor::new(buf)),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn fault_budget_consumption_matches_failure_class() {
        let mut faults = WorkerFaults {
            kill: Some(KillSpec {
                tick: 5,
                signal: None,
                times: 2,
            }),
            stall: Some(StallSpec {
                tick: 3,
                millis: 100,
                times: 1,
            }),
            corrupt: Some(CorruptSpec { frame: 0, times: 1 }),
        };
        consume_fault_budget(&mut faults, &AttemptFailure::Died("killed".into()));
        assert_eq!(faults.kill.as_ref().unwrap().times, 1);
        assert_eq!(faults.stall.as_ref().unwrap().times, 1);
        consume_fault_budget(
            &mut faults,
            &AttemptFailure::Stalled(Duration::from_secs(1)),
        );
        assert_eq!(faults.stall.as_ref().unwrap().times, 0);
        consume_fault_budget(&mut faults, &AttemptFailure::Corrupt("bad frame".into()));
        assert_eq!(faults.corrupt.as_ref().unwrap().times, 0);
        consume_fault_budget(&mut faults, &AttemptFailure::Corrupt("bad frame".into()));
        assert_eq!(faults.corrupt.as_ref().unwrap().times, 0, "saturates at 0");
        assert_eq!(
            faults.kill.as_ref().unwrap().times,
            1,
            "one kill charge left"
        );
        consume_fault_budget(&mut faults, &AttemptFailure::Died("killed again".into()));
        assert_eq!(faults.kill.as_ref().unwrap().times, 0);
    }

    #[test]
    fn worker_spec_round_trips_through_json() {
        let specs = worker_specs(
            "/tmp/trace.jsonl",
            Some(SourceFormat::Iotb),
            Some("/mnt/test"),
            true,
            Some(10),
            3,
            4096,
            &BTreeMap::from([(
                1,
                WorkerFaults {
                    kill: Some(KillSpec {
                        tick: 7,
                        signal: Some("KILL".into()),
                        times: 1,
                    }),
                    stall: None,
                    corrupt: None,
                },
            )]),
        );
        assert_eq!(specs.len(), 3);
        assert!(specs[0].primary && !specs[1].primary);
        assert_eq!(specs[1].faults.kill.as_ref().map(|k| k.times), Some(1));
        assert_eq!(specs[0].faults, WorkerFaults::default());
        for spec in &specs {
            let json = serde_json::to_string(spec).unwrap();
            let back: WorkerSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(*spec, back);
        }
    }
}
