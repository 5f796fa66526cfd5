//! Long-running analysis service: concurrent trace streams feeding
//! resident [`AnalysisSession`](crate::session::AnalysisSession)s.
//!
//! The batch pipeline answers one question about one finished trace.
//! `iocov serve` keeps the answer *live*: a server accepts many trace
//! streams concurrently — unix-socket connections speaking the
//! checksummed [`frame`](crate::frame) protocol, plus `.jsonl`/`.iotb`
//! files dropped into a watched spool directory — and runs one
//! supervised [`AnalysisSession`](crate::AnalysisSession) per stream, each with its own
//! `.iockpt` checkpoint in the state directory. After every checkpoint
//! boundary the server rewrites a *merged* coverage snapshot (all
//! streams' reports combined) and a per-stream status manifest, both
//! atomically, so an observer can `cat` a consistent document at any
//! moment. One `feed` per input is also the unit of isolation: a
//! feeder that dies fails only its own stream, which resumes from its
//! checkpoint when the feeder reconnects (see *Per-stream recovery*),
//! while the other streams and the merged snapshot carry on.
//!
//! # Wire protocol (one connection = one stream)
//!
//! ```text
//! client                                server
//!   ── HELLO {stream, format} ──▶        admit / reject
//!   ◀── CHECKPOINT (resume doc | ∅) ──   (or DONE + reason on reject)
//!   ── DATA raw trace bytes ──▶  ×N      feed session, checkpoint
//!   ── DONE ──▶                          finish, publish report
//! ```
//!
//! Frames use the `[kind][len u64 LE][payload][fnv1a64]` encoding; DATA
//! payloads are raw container bytes (JSONL text or `.iotb`), so the
//! server-side decode path is *exactly* the batch decode path: the
//! cursor [`open_reader`] picks, over a reader that pulls the next
//! frame off the socket whenever the cursor's buffer runs dry, pulled
//! in turn by the batch [`Driver`](crate::session::Driver) — the same
//! loop, checkpoint cuts included, that `iocov analyze` runs. Spool
//! files take the same `Driver` over [`open_source`].
//!
//! Each connection is one thread running that one pull loop, so
//! backpressure is the kernel socket buffer: while the analysis works
//! nothing reads the socket, its buffer fills, and the feeder's write
//! blocks. Nothing buffers unboundedly.
//!
//! # Admission
//!
//! A connection must deliver its HELLO within a deadline of 3 s per
//! read, and the HELLO may declare at most [`MAX_HELLO_LEN`] payload
//! bytes (DATA frames keep the protocol's
//! [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN)); otherwise the
//! connection is dropped before it names a stream, so a silent client
//! cannot hold a draining server. The deadline is lifted once the
//! stream is admitted: a feeder may pause between DATA frames for as
//! long as it likes.
//!
//! # Shutdown
//!
//! `accept` blocks. The drain condition is checked once at start-up
//! and whenever a stream stops running (done or failed); once it holds,
//! the server sets its shutdown flag and wakes the accept loop by
//! connecting to its own socket. Only the spool watcher polls.
//!
//! # Per-stream recovery
//!
//! A connection that dies mid-feed (no DONE frame) marks its stream
//! *failed* but keeps the last checkpoint. The next HELLO for that name
//! is answered with the checkpoint document; the client seeks its local
//! trace to the cursor (JSONL) or replays the container from the start
//! (iotb — the cursor skips already-counted events) and the session
//! resumes where it left off. A stream that fails more than
//! [`SupervisorPolicy::max_restarts`] times gives up, mirroring shard
//! supervision, and further connections for it are refused.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use iocov_trace::{
    open_reader, open_source, EventSource, ReadOptions, SourceFormat, SourceOptions, SourcePos,
};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{
    encode_checkpoint, parse_checkpoint, read_checkpoint_with_fallback, write_atomic, CheckpointDoc,
};
use crate::coverage::AnalysisReport;
use crate::filter::TraceFilter;
use crate::frame::{
    read_frame, read_frame_limited, write_frame, FRAME_CHECKPOINT, FRAME_DATA, FRAME_DONE,
    FRAME_HELLO,
};
use crate::metrics::ShardFailureRecord;
use crate::parallel::SupervisorPolicy;
use crate::pipeline::{CheckpointPolicy, PipelineBuilder, PipelineRun};

/// How often the spool watcher rescans its directory, and how long a
/// feed client waits before retrying a busy stream.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long one read of a new connection may wait for its HELLO bytes.
const HELLO_DEADLINE: Duration = Duration::from_secs(3);

/// Ceiling on a HELLO frame's payload: a stream name of at most 128
/// characters and a format, as JSON, with room for escapes.
pub const MAX_HELLO_LEN: u64 = 4096;

/// Pause after a failed `accept` (descriptor or buffer exhaustion)
/// before the next one, so the accept loop does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(25);

/// Handshake retries a feed client spends waiting out a `busy` stream
/// (an earlier connection for the same name still tearing down).
const FEED_BUSY_RETRIES: u32 = 80;

/// The HELLO frame payload: which stream this connection feeds and the
/// container format of the bytes that will follow in DATA frames.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamHello {
    /// Stream name; also names the per-stream checkpoint file, so it is
    /// restricted to `[A-Za-z0-9._-]`.
    pub stream: String,
    /// Container format of the DATA payload bytes.
    pub format: SourceFormat,
}

/// `iocov serve` configuration.
pub struct ServeConfig {
    /// Unix socket path to listen on (`None` = spool-only server).
    pub socket: Option<PathBuf>,
    /// Directory watched for dropped `.jsonl`/`.iotb` trace files.
    pub spool: Option<PathBuf>,
    /// Where per-stream checkpoints, the merged `snapshot.json`, and
    /// the `status.json` manifest live.
    pub state_dir: PathBuf,
    /// Mount-point filter applied to every stream.
    pub mount: Option<String>,
    /// Skip malformed input lines instead of failing the stream.
    pub lossy: bool,
    /// Cap on skipped lines per stream when lossy.
    pub max_errors: Option<usize>,
    /// Checkpoint (and merged-snapshot refresh) cadence in events.
    pub checkpoint_every: u64,
    /// Restart budget for failed streams, reusing the shard supervision
    /// policy: a stream that fails more than `max_restarts` times gives
    /// up and refuses further connections.
    pub policy: SupervisorPolicy,
    /// Exit once this many streams have completed (or given up) and
    /// none are running. `None` serves forever.
    pub drain: Option<usize>,
}

/// One stream's row in the `status.json` manifest (and the final
/// [`ServeSummary`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamStatus {
    /// Stream name.
    pub stream: String,
    /// `"socket"` or `"spool"`.
    pub origin: String,
    /// `"running"`, `"done"`, `"failed"` (recoverable), or `"gave-up"`.
    pub state: String,
    /// Events analyzed so far (checkpointed progress, final count once
    /// done).
    pub events: u64,
    /// Times the stream failed and was readmitted for recovery.
    pub restarts: u32,
    /// The most recent failure, if any.
    #[serde(default)]
    pub last_error: Option<String>,
    /// Supervised shard failures *inside* the stream's session, each
    /// with the events it lost since the stream's last checkpoint.
    #[serde(default)]
    pub shard_failures: Vec<ShardFailureRecord>,
}

/// The `status.json` document shape.
#[derive(Serialize)]
struct StatusDoc {
    streams: Vec<StreamStatus>,
}

/// What `run_serve` hands back after draining.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSummary {
    /// Final per-stream statuses, in name order.
    pub streams: Vec<StreamStatus>,
    /// The merged report over every stream, as last written to
    /// `snapshot.json`.
    pub report: AnalysisReport,
}

/// Per-stream bookkeeping behind the status manifest.
#[derive(Default)]
struct StreamEntry {
    /// Last persisted checkpoint (progress for the merged snapshot and
    /// the resume document for recovery).
    doc: Option<CheckpointDoc>,
    /// Final report, once the stream completed.
    report: Option<AnalysisReport>,
    events: u64,
    restarts: u32,
    running: bool,
    done: bool,
    gave_up: bool,
    origin: &'static str,
    last_error: Option<String>,
    shard_failures: Vec<ShardFailureRecord>,
}

impl StreamEntry {
    fn state_name(&self) -> &'static str {
        if self.running {
            "running"
        } else if self.done {
            "done"
        } else if self.gave_up {
            "gave-up"
        } else if self.last_error.is_some() {
            "failed"
        } else {
            "idle"
        }
    }
}

/// Shared server state: config plus the stream table.
struct ServeState {
    cfg: ServeConfig,
    /// Locked poison-tolerantly: every update is a plain field store on
    /// one entry, so a thread that panicked holding the lock left each
    /// entry valid, and one failed stream must not take down the server.
    streams: Mutex<BTreeMap<String, StreamEntry>>,
    shutdown: AtomicBool,
}

impl ServeState {
    fn ckpt_path(&self, stream: &str) -> PathBuf {
        self.cfg.state_dir.join(format!("{stream}.iockpt"))
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Why a HELLO was refused. The reason string travels back to the
/// client in a DONE frame.
enum Admit {
    /// Stream admitted; resume from this checkpoint if `Some`. Boxed:
    /// a `CheckpointDoc` carries a full report and dwarfs the
    /// rejection string.
    Admitted(Option<Box<CheckpointDoc>>),
    Rejected(String),
}

fn valid_stream_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// The rejection of a stream another connection still feeds: the one
/// reason a feed client retries, so it is matched whole, never by a
/// word that a stream name may contain too.
fn busy_reason(name: &str) -> String {
    format!("stream {name} is busy: another connection feeds it")
}

/// Admits (or refuses) a stream and marks it running. On admission,
/// returns the resume checkpoint: the in-memory one from a previous
/// incarnation, or — first time this server sees the name — whatever
/// `.iockpt` survives on disk from an earlier server run.
fn register_stream(state: &ServeState, name: &str, origin: &'static str) -> Admit {
    if !valid_stream_name(name) {
        return Admit::Rejected(format!(
            "invalid stream name {name:?}: use [A-Za-z0-9._-], at most 128 chars"
        ));
    }
    let mut streams = state.streams.lock().unwrap_or_else(PoisonError::into_inner);
    let first_sight = !streams.contains_key(name);
    let entry = streams.entry(name.to_owned()).or_default();
    if entry.running {
        return Admit::Rejected(busy_reason(name));
    }
    if entry.done {
        return Admit::Rejected(format!("stream {name} is already complete"));
    }
    if entry.gave_up {
        return Admit::Rejected(format!(
            "stream {name} gave up after {} restarts",
            entry.restarts
        ));
    }
    if first_sight {
        // A checkpoint left by an earlier server process resumes the
        // stream across server restarts. An unreadable or
        // filter-mismatched checkpoint falls back to a fresh run, the
        // same degradation the batch CLI applies.
        if let Ok((doc, _fell_back)) = read_checkpoint_with_fallback(&state.ckpt_path(name)) {
            if TraceFilter::for_mount(doc.mount.as_deref())
                == TraceFilter::for_mount(state.cfg.mount.as_deref())
            {
                entry.events = doc.cursor.events;
                entry.doc = Some(doc);
            }
        }
    }
    entry.origin = origin;
    entry.running = true;
    Admit::Admitted(entry.doc.clone().map(Box::new))
}

/// Applies `f` to the stream's entry under the lock.
fn with_entry(state: &ServeState, name: &str, f: impl FnOnce(&mut StreamEntry)) {
    let mut streams = state.streams.lock().unwrap_or_else(PoisonError::into_inner);
    f(streams.entry(name.to_owned()).or_default());
}

/// Records a stream that stopped running — done with its final report
/// (its terminal checkpoint stays on disk for the record), or failed,
/// charging its restart budget — republishes the outputs, and checks
/// the drain.
fn stop_stream(state: &ServeState, name: &str, outcome: Result<PipelineRun, String>) {
    let max = state.cfg.policy.max_restarts;
    with_entry(state, name, |entry| {
        entry.running = false;
        match outcome {
            Ok(run) => {
                entry.done = true;
                entry.events = run.events;
                entry.report = Some(run.report);
                entry.shard_failures = run.failures;
                entry.doc = None;
            }
            Err(error) => {
                entry.restarts += 1;
                entry.gave_up = entry.restarts > max;
                entry.last_error = Some(error);
            }
        }
    });
    let _ = write_outputs(state);
    check_drain(state);
}

/// Shuts the server down once `drain` streams have completed (or given
/// up) and none is running.
fn check_drain(state: &ServeState) {
    let Some(target) = state.cfg.drain else {
        return;
    };
    let drained = {
        let streams = state.streams.lock().unwrap_or_else(PoisonError::into_inner);
        let completed = streams.values().filter(|e| e.done || e.gave_up).count();
        completed >= target && !streams.values().any(|e| e.running)
    };
    if drained {
        state.shutdown.store(true, Ordering::SeqCst);
        // The accept loop re-checks the flag after every connection.
        if let Some(path) = &state.cfg.socket {
            let _ = UnixStream::connect(path);
        }
    }
}

fn status_rows(streams: &BTreeMap<String, StreamEntry>) -> Vec<StreamStatus> {
    streams
        .iter()
        .map(|(name, entry)| StreamStatus {
            stream: name.clone(),
            origin: entry.origin.to_owned(),
            state: entry.state_name().to_owned(),
            events: entry.events,
            restarts: entry.restarts,
            last_error: entry.last_error.clone(),
            shard_failures: entry.shard_failures.clone(),
        })
        .collect()
}

fn merged_report(streams: &BTreeMap<String, StreamEntry>) -> AnalysisReport {
    let mut merged = AnalysisReport::default();
    for entry in streams.values() {
        // A finished stream contributes its final report; a live or
        // failed one contributes checkpointed progress. Every report
        // aggregate is an order-independent sum, so the merge over
        // pid-disjoint streams equals one batch run over their
        // concatenation.
        if let Some(report) = &entry.report {
            merged.merge(report);
        } else if let Some(doc) = &entry.doc {
            merged.merge(&doc.report);
        }
    }
    merged
}

/// Rewrites `snapshot.json` (merged report, byte-identical to `iocov
/// analyze --json` over the same events) and `status.json` (per-stream
/// manifest), both atomically.
fn write_outputs(state: &ServeState) -> io::Result<()> {
    let streams = state.streams.lock().unwrap_or_else(PoisonError::into_inner);
    let report = merged_report(&streams);
    let mut snapshot = serde_json::to_string_pretty(&report)
        .map_err(|e| io::Error::other(format!("serialize snapshot: {e}")))?;
    snapshot.push('\n');
    write_atomic(
        &state.cfg.state_dir.join("snapshot.json"),
        snapshot.as_bytes(),
    )?;
    let status = StatusDoc {
        streams: status_rows(&streams),
    };
    let mut status = serde_json::to_string_pretty(&status)
        .map_err(|e| io::Error::other(format!("serialize status: {e}")))?;
    status.push('\n');
    write_atomic(&state.cfg.state_dir.join("status.json"), status.as_bytes())
}

/// Pulls an admitted stream's source to end-of-input through the batch
/// [`Driver`](crate::session::Driver), checkpointing every
/// `checkpoint_every` events. Each persisted checkpoint becomes the
/// stream's progress in the merged snapshot, which is rewritten then.
fn run_stream(
    state: &Arc<ServeState>,
    name: &str,
    resume: Option<CheckpointDoc>,
    source: &mut dyn EventSource,
) -> Result<PipelineRun, String> {
    let filter = TraceFilter::for_mount(state.cfg.mount.as_deref());
    let (hook_state, hook_name) = (Arc::clone(state), name.to_owned());
    let mut builder = PipelineBuilder::new(filter)
        .mount(state.cfg.mount.clone())
        .policy(state.cfg.policy)
        .checkpoint(CheckpointPolicy {
            every: state.cfg.checkpoint_every.max(1),
            path: state.ckpt_path(name),
        })
        .on_checkpoint(move |doc| {
            with_entry(&hook_state, &hook_name, |entry| {
                entry.events = doc.cursor.events;
                entry.doc = Some(doc);
            });
            // Best effort, like every republish: the checkpoint itself
            // is already on disk.
            let _ = write_outputs(&hook_state);
        });
    if let Some(doc) = resume {
        builder = builder.resume(doc);
    }
    builder
        .build()
        .run(source)
        .map_err(|e| format!("stream {name}: {e}"))
}

fn read_options(cfg: &ServeConfig) -> ReadOptions {
    ReadOptions {
        max_errors: cfg.max_errors,
        on_error: if cfg.lossy {
            iocov_trace::ErrorPolicy::Skip
        } else {
            iocov_trace::ErrorPolicy::Abort
        },
    }
}

// ---------------------------------------------------------------------
// Socket streams
// ---------------------------------------------------------------------

/// `Read` over a connection's frames: DATA payloads concatenate into a
/// byte stream and DONE is end-of-file. Anything else — another frame
/// kind, a close without DONE, a torn or corrupt frame — is an I/O
/// error, which fails the stream through the source-error path.
struct FrameReader {
    conn: UnixStream,
    buf: Vec<u8>,
    pos: usize,
    done: bool,
}

impl Read for FrameReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.buf.len() {
            if self.done || out.is_empty() {
                return Ok(0);
            }
            match read_frame(&mut self.conn) {
                Ok(Some(frame)) if frame.kind == FRAME_DATA => {
                    self.buf = frame.payload;
                    self.pos = 0;
                }
                Ok(Some(frame)) if frame.kind == FRAME_DONE => self.done = true,
                outcome => {
                    self.done = true;
                    return Err(io::Error::other(match outcome {
                        Ok(Some(frame)) => {
                            format!("unexpected frame kind {:#04x} mid-stream", frame.kind)
                        }
                        // A clean close without DONE is a dead feeder, not
                        // a finished stream: the checkpoint survives for
                        // recovery.
                        Ok(None) => "connection closed before its done frame".to_owned(),
                        Err(e) => e.to_string(),
                    }));
                }
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Reads a connection's opening HELLO. `None` when the connection
/// closed, timed out, or opened with anything but a well-formed HELLO
/// frame of at most [`MAX_HELLO_LEN`] payload bytes; such a connection
/// named no stream, so the server drops it without a record.
pub fn read_hello(r: &mut impl Read) -> Option<StreamHello> {
    match read_frame_limited(r, MAX_HELLO_LEN) {
        Ok(Some(frame)) if frame.kind == FRAME_HELLO => serde_json::from_slice(&frame.payload).ok(),
        _ => None,
    }
}

/// Serves one socket connection end to end, on its own thread.
fn handle_connection(state: &Arc<ServeState>, mut conn: UnixStream) {
    // A silent client must not hold this thread, and with it a draining
    // server, forever.
    if conn.set_read_timeout(Some(HELLO_DEADLINE)).is_err() {
        return;
    }
    let Some(hello) = read_hello(&mut conn) else {
        return;
    };
    let resume = match register_stream(state, &hello.stream, "socket") {
        Admit::Admitted(resume) => resume.map(|doc| *doc),
        Admit::Rejected(reason) => {
            let _ = write_frame(&mut conn, FRAME_DONE, reason.as_bytes());
            return;
        }
    };
    // Handshake reply: the resume checkpoint (empty = start fresh).
    let payload = match resume.as_ref().map(encode_checkpoint).transpose() {
        Ok(payload) => payload.unwrap_or_default(),
        Err(e) => {
            let error = format!("encode resume document: {e}");
            return stop_stream(state, &hello.stream, Err(error));
        }
    };
    let reply = conn
        .set_read_timeout(None)
        .and_then(|()| write_frame(&mut conn, FRAME_CHECKPOINT, &payload));
    if let Err(e) = reply {
        return stop_stream(state, &hello.stream, Err(format!("handshake reply: {e}")));
    }
    let cursor = resume.as_ref().map(|doc| doc.cursor.clone());
    let reader = FrameReader {
        conn,
        buf: Vec::new(),
        pos: 0,
        done: false,
    };
    let outcome = open_reader(reader, hello.format, read_options(&state.cfg), cursor)
        .map_err(|e| format!("stream {}: {e}", hello.stream))
        .and_then(|mut source| run_stream(state, &hello.stream, resume, source.as_mut()));
    stop_stream(state, &hello.stream, outcome);
}

// ---------------------------------------------------------------------
// Spool streams
// ---------------------------------------------------------------------

/// Analyzes one spooled trace file as a stream named after its stem.
/// The file is renamed `.done` on success, `.failed` on error, so the
/// watcher never reprocesses it.
fn process_spool_file(state: &Arc<ServeState>, path: &Path) {
    let Some(name) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
        return;
    };
    let resume = match register_stream(state, &name, "spool") {
        Admit::Admitted(resume) => resume.map(|doc| *doc),
        // Busy/done/gave-up: leave the file; a busy stream's file is
        // retried on a later scan, the rest are renamed below only
        // after this server actually processed them.
        Admit::Rejected(_) => return,
    };
    let trace = path.to_string_lossy().into_owned();
    let options = SourceOptions {
        read: read_options(&state.cfg),
        resume: resume.as_ref().map(|doc| SourcePos {
            format: doc.format,
            state: doc.cursor.clone(),
        }),
        ..SourceOptions::default()
    };
    let outcome = open_source(&trace, options)
        .map_err(|e| format!("{trace}: {e}"))
        .and_then(|mut source| run_stream(state, &name, resume, source.as_mut()));
    let suffix = if outcome.is_ok() { "done" } else { "failed" };
    stop_stream(state, &name, outcome);
    let renamed = path.with_extension(format!(
        "{}.{suffix}",
        path.extension().unwrap_or_default().to_string_lossy()
    ));
    let _ = fs::rename(path, renamed);
}

fn spool_candidate(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("jsonl" | "iotb")
    )
}

/// Watches the spool directory. A file is picked up once its size is
/// stable across two consecutive scans, so half-copied traces are not
/// analyzed mid-write.
fn spool_loop(state: &Arc<ServeState>, dir: &Path) {
    let mut sizes: BTreeMap<PathBuf, u64> = BTreeMap::new();
    while !state.stopping() {
        let mut seen = Vec::new();
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if !spool_candidate(&path) {
                    continue;
                }
                let Ok(meta) = entry.metadata() else { continue };
                if !meta.is_file() {
                    continue;
                }
                seen.push(path.clone());
                match sizes.get(&path) {
                    Some(&prev) if prev == meta.len() => {
                        process_spool_file(state, &path);
                        sizes.remove(&path);
                    }
                    _ => {
                        sizes.insert(path, meta.len());
                    }
                }
            }
        }
        sizes.retain(|path, _| seen.contains(path));
        thread::sleep(POLL_INTERVAL);
    }
}

// ---------------------------------------------------------------------
// Server entry point
// ---------------------------------------------------------------------

/// Runs the server: a blocking accept loop with one thread per
/// connection, plus the spool watcher. Blocks until the drain condition
/// is met (forever without one).
///
/// # Errors
///
/// Setup failures only (state dir, socket bind); per-stream failures
/// degrade into the status manifest instead of tearing the server
/// down.
pub fn run_serve(cfg: ServeConfig) -> io::Result<ServeSummary> {
    fs::create_dir_all(&cfg.state_dir)?;
    if let Some(spool) = &cfg.spool {
        fs::create_dir_all(spool)?;
    }
    let listener = match &cfg.socket {
        Some(path) => {
            // A stale socket file from a previous server refuses binds.
            let _ = fs::remove_file(path);
            Some(UnixListener::bind(path)?)
        }
        None => None,
    };
    let state = Arc::new(ServeState {
        cfg,
        streams: Mutex::new(BTreeMap::new()),
        shutdown: AtomicBool::new(false),
    });
    write_outputs(&state)?;
    check_drain(&state);
    let state = &state;
    thread::scope(|scope| {
        if let Some(listener) = &listener {
            scope.spawn(move || {
                for conn in listener.incoming() {
                    if state.stopping() {
                        break;
                    }
                    match conn {
                        Ok(conn) => {
                            scope.spawn(move || handle_connection(state, conn));
                        }
                        Err(_) => thread::sleep(ACCEPT_BACKOFF),
                    }
                }
            });
        }
        if let Some(dir) = state.cfg.spool.clone() {
            scope.spawn(move || spool_loop(state, &dir));
        }
    });
    if let Some(path) = &state.cfg.socket {
        let _ = fs::remove_file(path);
    }
    let streams = state.streams.lock().unwrap_or_else(PoisonError::into_inner);
    Ok(ServeSummary {
        streams: status_rows(&streams),
        report: merged_report(&streams),
    })
}

// ---------------------------------------------------------------------
// Feed client
// ---------------------------------------------------------------------

/// Fault hook for feed drills: called with cumulative payload bytes
/// sent before each DATA frame; returning `true` drops the connection
/// without a DONE frame (a simulated feeder crash).
pub type FeedAbortHook = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// Stall hook: called with the DATA frame ordinal before each send;
/// sleeps (or not) at the schedule's discretion.
pub type FeedStallHook = Arc<dyn Fn(u64) + Send + Sync>;

/// `iocov feed` configuration: ship one local trace file to a serve
/// socket as one named stream.
pub struct FeedConfig {
    /// The server's unix socket.
    pub socket: PathBuf,
    /// Stream name to feed.
    pub stream: String,
    /// Local trace file to ship.
    pub trace: String,
    /// Container format of `trace`.
    pub format: SourceFormat,
    /// DATA frame payload size in bytes.
    pub chunk: usize,
    /// Abort drill, if any.
    pub abort: Option<FeedAbortHook>,
    /// Stall drill, if any.
    pub stall: Option<FeedStallHook>,
}

/// What a feed attempt did.
#[derive(Debug, Clone, Default)]
pub struct FeedOutcome {
    /// Byte offset the server's checkpoint resumed the file from.
    pub resumed_from: u64,
    /// Whether the server held a checkpoint for this stream.
    pub resumed: bool,
    /// Payload bytes shipped.
    pub sent_bytes: u64,
    /// DATA frames shipped.
    pub frames: u64,
    /// Whether the abort drill fired.
    pub aborted: bool,
    /// The server's rejection reason, when it refused the stream.
    pub rejected: Option<String>,
}

/// Feeds one trace file to a running server.
///
/// Retries the handshake while the server reports the stream busy (a
/// prior connection for the same name still tearing down), so
/// kill-then-recover drills don't race the server's cleanup.
///
/// # Errors
///
/// Connection, I/O, and protocol failures. A *rejection* (stream
/// complete or given up) is not an error; see [`FeedOutcome::rejected`].
pub fn run_feed(cfg: &FeedConfig) -> io::Result<FeedOutcome> {
    let hello = serde_json::to_string(&StreamHello {
        stream: cfg.stream.clone(),
        format: cfg.format,
    })
    .map_err(|e| io::Error::other(format!("serialize hello: {e}")))?
    .into_bytes();
    let mut attempt = 0u32;
    let (mut conn, reply) = loop {
        let mut conn = UnixStream::connect(&cfg.socket)?;
        write_frame(&mut conn, FRAME_HELLO, &hello)?;
        let frame = read_frame(&mut conn)
            .map_err(|e| io::Error::other(format!("handshake: {e}")))?
            .ok_or_else(|| io::Error::other("server closed the connection during handshake"))?;
        match frame.kind {
            FRAME_CHECKPOINT => break (conn, frame.payload),
            FRAME_DONE => {
                let reason = String::from_utf8_lossy(&frame.payload).into_owned();
                if reason == busy_reason(&cfg.stream) && attempt < FEED_BUSY_RETRIES {
                    attempt += 1;
                    thread::sleep(POLL_INTERVAL);
                    continue;
                }
                return Ok(FeedOutcome {
                    rejected: Some(reason),
                    ..FeedOutcome::default()
                });
            }
            kind => {
                return Err(io::Error::other(format!(
                    "expected checkpoint frame in handshake, got {kind:#04x}"
                )))
            }
        }
    };
    let mut offset = 0u64;
    let mut resumed = false;
    if !reply.is_empty() {
        let doc = parse_checkpoint(&reply)
            .map_err(|e| io::Error::other(format!("server resume document: {e}")))?;
        if doc.format != cfg.format {
            return Err(io::Error::other(format!(
                "server checkpoint is {} but {} is {}",
                doc.format, cfg.trace, cfg.format
            )));
        }
        resumed = true;
        // JSONL resumes mid-file at the checkpointed byte offset; the
        // iotb cursor re-reads the container from the start and skips
        // already-counted events, so the whole file is re-sent.
        if doc.format == SourceFormat::Jsonl {
            offset = doc.cursor.byte_offset;
        }
    }
    let mut file = File::open(&cfg.trace)?;
    if offset > 0 {
        file.seek(SeekFrom::Start(offset))?;
    }
    let mut buf = vec![0u8; cfg.chunk.max(1)];
    let mut sent = 0u64;
    let mut frames = 0u64;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        if let Some(abort) = &cfg.abort {
            if abort(sent) {
                // Vanish without DONE: the server records a failed
                // stream and keeps its checkpoint for recovery.
                drop(conn);
                return Ok(FeedOutcome {
                    resumed_from: offset,
                    resumed,
                    sent_bytes: sent,
                    frames,
                    aborted: true,
                    rejected: None,
                });
            }
        }
        if let Some(stall) = &cfg.stall {
            stall(frames);
        }
        write_frame(&mut conn, FRAME_DATA, &buf[..n])?;
        sent += n as u64;
        frames += 1;
    }
    write_frame(&mut conn, FRAME_DONE, &[])?;
    Ok(FeedOutcome {
        resumed_from: offset,
        resumed,
        sent_bytes: sent,
        frames,
        aborted: false,
        rejected: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov_trace::{write_jsonl, ArgValue, Trace, TraceEvent};
    use std::io::Write as _;

    fn ev(pid: u32, name: &str, path: &str, ret: i64) -> TraceEvent {
        let mut event = TraceEvent::build(
            name,
            2,
            vec![
                ArgValue::Path(path.into()),
                ArgValue::Flags(0o101),
                ArgValue::Mode(0o644),
            ],
            ret,
        );
        event.pid = pid;
        event
    }

    fn sample_trace(pid: u32, n: usize) -> Trace {
        let mut trace = Trace::new();
        for i in 0..n {
            trace.push(ev(pid, "open", &format!("/mnt/test/f{i}"), i as i64 + 3));
        }
        trace
    }

    fn write_trace(dir: &Path, name: &str, trace: &Trace) -> String {
        let path = dir.join(name);
        let mut buf = Vec::new();
        write_jsonl(&mut buf, trace).unwrap();
        let mut file = File::create(&path).unwrap();
        file.write_all(&buf).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iocov-serve-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch_report(traces: &[&Trace], mount: &str) -> AnalysisReport {
        let mut all = Trace::new();
        for t in traces {
            all.extend((*t).clone());
        }
        let filter = TraceFilter::mount_point(mount).unwrap();
        let mut session = PipelineBuilder::new(filter)
            .mount(Some(mount.to_owned()))
            .build_session();
        session.feed_owned(all.into_events());
        session.finish().0
    }

    fn serve_config(dir: &Path, drain: usize) -> ServeConfig {
        ServeConfig {
            socket: Some(dir.join("iocov.sock")),
            spool: Some(dir.join("spool")),
            state_dir: dir.join("state"),
            mount: Some("/mnt/test".to_owned()),
            lossy: false,
            max_errors: None,
            checkpoint_every: 64,
            policy: SupervisorPolicy::default(),
            drain: Some(drain),
        }
    }

    #[test]
    fn socket_and_spool_streams_merge_to_batch_identical_snapshot() {
        let dir = tmp_dir("merge");
        fs::create_dir_all(dir.join("spool")).unwrap();
        let a = sample_trace(1, 150);
        let b = sample_trace(2, 90);
        let a_path = write_trace(&dir, "a.jsonl", &a);
        write_trace(&dir.join("spool"), "b.jsonl", &b);
        let cfg = serve_config(&dir, 2);
        let socket = cfg.socket.clone().unwrap();
        let state_dir = cfg.state_dir.clone();
        let server = thread::spawn(move || run_serve(cfg).unwrap());
        // Wait for the socket, then feed stream a over it.
        while !socket.exists() {
            thread::sleep(Duration::from_millis(5));
        }
        let outcome = run_feed(&FeedConfig {
            socket,
            stream: "a".into(),
            trace: a_path,
            format: SourceFormat::Jsonl,
            chunk: 512,
            abort: None,
            stall: None,
        })
        .unwrap();
        assert!(!outcome.aborted);
        assert!(outcome.rejected.is_none());
        let summary = server.join().unwrap();
        assert_eq!(summary.streams.len(), 2);
        assert!(summary.streams.iter().all(|s| s.state == "done"));
        let expected = batch_report(&[&a, &b], "/mnt/test");
        assert_eq!(
            serde_json::to_string(&summary.report).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );
        let snapshot = fs::read_to_string(state_dir.join("snapshot.json")).unwrap();
        let mut want = serde_json::to_string_pretty(&expected).unwrap();
        want.push('\n');
        assert_eq!(
            snapshot, want,
            "snapshot.json must match analyze --json bytes"
        );
        // The spooled file is renamed once processed, so no later scan
        // feeds it again.
        assert!(dir.join("spool/b.jsonl.done").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_stream_recovers_from_checkpoint_and_manifests_the_failure() {
        let dir = tmp_dir("recover");
        let a = sample_trace(7, 300);
        let a_path = write_trace(&dir, "a.jsonl", &a);
        let mut cfg = serve_config(&dir, 1);
        cfg.spool = None;
        let socket = cfg.socket.clone().unwrap();
        let state_dir = cfg.state_dir.clone();
        let server = thread::spawn(move || run_serve(cfg).unwrap());
        while !socket.exists() {
            thread::sleep(Duration::from_millis(5));
        }
        // First attempt dies after ~half the bytes, without DONE.
        let half = {
            let len = fs::metadata(dir.join("a.jsonl")).unwrap().len();
            len / 2
        };
        let outcome = run_feed(&FeedConfig {
            socket: socket.clone(),
            stream: "a".into(),
            trace: a_path.clone(),
            format: SourceFormat::Jsonl,
            chunk: 256,
            abort: Some(Arc::new(move |sent| sent >= half)),
            stall: None,
        })
        .unwrap();
        assert!(outcome.aborted);
        // Wait until the server has manifested the failure.
        loop {
            let status = fs::read_to_string(state_dir.join("status.json")).unwrap_or_default();
            if status.contains("\"failed\"") {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        // Second attempt resumes from the checkpoint and completes.
        let outcome = run_feed(&FeedConfig {
            socket,
            stream: "a".into(),
            trace: a_path,
            format: SourceFormat::Jsonl,
            chunk: 256,
            abort: None,
            stall: None,
        })
        .unwrap();
        assert!(outcome.resumed, "recovery must resume from the checkpoint");
        assert!(outcome.resumed_from > 0);
        let summary = server.join().unwrap();
        let stream = &summary.streams[0];
        assert_eq!(stream.state, "done");
        assert_eq!(stream.restarts, 1, "the kill must be manifested");
        assert_eq!(stream.events, 300);
        let expected = batch_report(&[&a], "/mnt/test");
        assert_eq!(
            serde_json::to_string(&summary.report).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restarted_server_resumes_a_checkpoint_cut_under_an_equivalent_mount() {
        let dir = tmp_dir("respell");
        let a = sample_trace(8, 300);
        let a_path = write_trace(&dir, "a.jsonl", &a);
        let half = fs::metadata(&a_path).unwrap().len() / 2;
        // Each server runs stream a once and exits; the first gives up
        // on the aborted stream, leaving its checkpoint on disk.
        let serve_once = |mount: &str, abort: Option<FeedAbortHook>| {
            let mut cfg = serve_config(&dir, 1);
            cfg.spool = None;
            cfg.mount = Some(mount.to_owned());
            cfg.policy.max_restarts = 0;
            let socket = cfg.socket.clone().unwrap();
            let _ = fs::remove_file(&socket);
            let server = thread::spawn(move || run_serve(cfg).unwrap());
            while !socket.exists() {
                thread::sleep(Duration::from_millis(5));
            }
            let outcome = run_feed(&FeedConfig {
                socket,
                stream: "a".into(),
                trace: a_path.clone(),
                format: SourceFormat::Jsonl,
                chunk: 256,
                abort,
                stall: None,
            })
            .unwrap();
            (outcome, server.join().unwrap())
        };
        let (cut, _) = serve_once("/mnt/test/", Some(Arc::new(move |sent| sent >= half)));
        assert!(cut.aborted);
        let (resumed, summary) = serve_once("/mnt/test", None);
        assert!(
            resumed.resumed,
            "`/mnt/test/` and `/mnt/test` are one filter"
        );
        assert!(resumed.resumed_from > 0);
        assert_eq!(summary.streams[0].state, "done");
        let expected = batch_report(&[&a], "/mnt/test");
        assert_eq!(
            serde_json::to_string(&summary.report).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );
        // A different mount still ignores the checkpoint.
        let (fresh, summary) = serve_once("/mnt/other", None);
        assert!(!fresh.resumed);
        assert_eq!(summary.streams[0].events, 300);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Feeds stream `name` to completion, then feeds it again until the
    /// server refuses it as complete. Returns how long one more refused
    /// feed took.
    fn refuse_a_complete_stream(tag: &str, name: &str) -> Duration {
        let dir = tmp_dir(tag);
        let a = sample_trace(3, 20);
        let a_path = write_trace(&dir, "a.jsonl", &a);
        let mut cfg = serve_config(&dir, 1);
        cfg.spool = None;
        cfg.drain = Some(2); // hold the server open past the first stream
        let socket = cfg.socket.clone().unwrap();
        let server = thread::spawn(move || run_serve(cfg).unwrap());
        while !socket.exists() {
            thread::sleep(Duration::from_millis(5));
        }
        let feed = |abort: Option<FeedAbortHook>| {
            run_feed(&FeedConfig {
                socket: socket.clone(),
                stream: name.into(),
                trace: a_path.clone(),
                format: SourceFormat::Jsonl,
                chunk: 4096,
                abort,
                stall: None,
            })
            .unwrap()
        };
        assert!(feed(None).rejected.is_none());
        // Wait for completion, then expect the rejection.
        let rejected = loop {
            let outcome = feed(None);
            match outcome.rejected {
                Some(reason) => break reason,
                None => thread::sleep(Duration::from_millis(5)),
            }
        };
        assert_eq!(rejected, format!("stream {name} is already complete"));
        let started = std::time::Instant::now();
        assert_eq!(feed(None).rejected, Some(rejected));
        let took = started.elapsed();
        // Unblock the drain=2 server with a second stream.
        let b_path = write_trace(&dir, "b.jsonl", &sample_trace(4, 10));
        run_feed(&FeedConfig {
            socket: socket.clone(),
            stream: format!("{name}-b"),
            trace: b_path,
            format: SourceFormat::Jsonl,
            chunk: 4096,
            abort: None,
            stall: None,
        })
        .unwrap();
        let summary = server.join().unwrap();
        assert_eq!(summary.streams.len(), 2);
        let _ = fs::remove_dir_all(&dir);
        took
    }

    #[test]
    fn second_connection_for_a_complete_stream_is_rejected() {
        refuse_a_complete_stream("reject", "a");
    }

    /// Only the busy rejection is retried: a stream whose name is
    /// `busy` is refused as complete at once, not after the retries.
    #[test]
    fn a_complete_stream_named_busy_is_refused_without_retries() {
        let took = refuse_a_complete_stream("reject-busy", "busy");
        assert!(
            took < POLL_INTERVAL * FEED_BUSY_RETRIES / 2,
            "the refusal took {took:?}"
        );
    }

    #[test]
    fn silent_connection_does_not_hold_a_draining_server() {
        let dir = tmp_dir("silent");
        let a_path = write_trace(&dir, "a.jsonl", &sample_trace(5, 10));
        let mut cfg = serve_config(&dir, 1);
        cfg.spool = None;
        let socket = cfg.socket.clone().unwrap();
        let status = cfg.state_dir.join("status.json");
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(run_serve(cfg).unwrap());
        });
        while !status.exists() {
            thread::sleep(Duration::from_millis(5));
        }
        // Connects first and never sends HELLO; held open past the drain.
        let silent = UnixStream::connect(&socket).unwrap();
        let outcome = run_feed(&FeedConfig {
            socket,
            stream: "a".into(),
            trace: a_path,
            format: SourceFormat::Jsonl,
            chunk: 4096,
            abort: None,
            stall: None,
        })
        .unwrap();
        assert!(outcome.rejected.is_none());
        let summary = rx
            .recv_timeout(HELLO_DEADLINE + Duration::from_secs(5))
            .expect("a silent client must not keep a drained server running");
        assert_eq!(summary.streams.len(), 1);
        assert_eq!(summary.streams[0].state, "done");
        drop(silent);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_hello_is_refused_before_its_payload_is_read() {
        let mut bytes = vec![FRAME_HELLO];
        bytes.extend_from_slice(&(MAX_HELLO_LEN + 1).to_le_bytes());
        bytes.resize(bytes.len() + MAX_HELLO_LEN as usize + 1 + 8, b' ');
        let mut input = io::Cursor::new(bytes);
        match read_frame_limited(&mut input, MAX_HELLO_LEN) {
            Err(crate::frame::FrameError::Oversized { len, max }) => {
                assert_eq!((len, max), (MAX_HELLO_LEN + 1, MAX_HELLO_LEN));
            }
            other => panic!("expected an oversized hello, got {other:?}"),
        }
        assert_eq!(input.position(), 9, "no payload byte may be read");
        input.set_position(0);
        assert!(read_hello(&mut input).is_none());
        assert_eq!(input.position(), 9);
    }

    #[test]
    fn stream_names_that_escape_the_state_dir_are_rejected() {
        for bad in ["", "../escape", "a/b", "a\0b"] {
            assert!(!valid_stream_name(bad), "{bad:?} must be rejected");
        }
        for good in ["a", "fsx-run.7", "A_b-c.d"] {
            assert!(valid_stream_name(good), "{good:?} must be accepted");
        }
    }

    #[test]
    fn poisoned_stream_table_still_publishes_status_and_snapshot() {
        let dir = tmp_dir("poison");
        let state = ServeState {
            cfg: serve_config(&dir, 1),
            streams: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
        };
        fs::create_dir_all(&state.cfg.state_dir).unwrap();
        with_entry(&state, "s0", |entry| entry.events = 7);
        // A stream thread panics while holding the table lock.
        let poisoner = thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = state.streams.lock().unwrap();
                    panic!("stream thread dies holding the lock");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(state.streams.is_poisoned());
        // Every lock site keeps working: admission, updates, outputs.
        assert!(matches!(
            register_stream(&state, "s1", "socket"),
            Admit::Admitted(None)
        ));
        stop_stream(&state, "s1", Err("boom".into()));
        write_outputs(&state).unwrap();
        let status = fs::read_to_string(state.cfg.state_dir.join("status.json")).unwrap();
        assert!(
            status.contains("\"s0\"") && status.contains("boom"),
            "{status}"
        );
        let snapshot = fs::read_to_string(state.cfg.state_dir.join("snapshot.json")).unwrap();
        let report: AnalysisReport = serde_json::from_str(&snapshot).unwrap();
        assert_eq!(report, AnalysisReport::default());
        let _ = fs::remove_dir_all(&dir);
    }
}
