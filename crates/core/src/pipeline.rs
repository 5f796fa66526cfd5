//! The pipeline builder: one configuration, every execution shape.
//!
//! The paper's §3 pipeline is one loop — trace → mount filter → variant
//! merge → partition → report — and this module configures it once for
//! every caller. Two orthogonal stages meet here:
//!
//! ```text
//!   EventSource (iocov_trace::source)       ShardSupervisor (crate::parallel)
//!  ┌───────────────────────────────┐   ┌──────────────────────────────────┐
//!  │ open_source(path, options)    │   │ one StreamingAnalyzer, one       │
//!  │   ├─ JsonlSource (strict/lossy│   │ run-long restart ledger, a       │
//!  │   │   via ReadOptions)        │──▶│ restore point at every cut, on   │
//!  │   └─ IotbSource  (strict/lossy│   │ the iocov-shard thread, fed      │
//!  │       via ReadOptions; v1 and │   │ while the caller decodes the     │
//!  │       v2 alike)               │   │ next batch                       │
//!  └───────────────────────────────┘   └──────────────────────────────────┘
//!                   │                                 │
//!                   └──── Driver::run / AnalysisSession::feed ────┘
//!                     (chunking, checkpoint cuts, stop-after,
//!                      parse-skip metrics, resume seeding)
//! ```
//!
//! [`PipelineBuilder::build_session`] yields the resident
//! [`AnalysisSession`] for callers that feed events themselves (`iocov
//! serve`, in-memory workloads);
//! [`PipelineBuilder::build`] pairs that session with the batch
//! [`Driver`] that pulls any [`EventSource`](iocov_trace::EventSource).
//! Every flag combination — any source × checkpointing × metrics —
//! therefore runs the same code. The non-negotiable
//! invariant: the serialized report is **byte-identical** across every
//! cell of that matrix to a plain serial run over the same events.
//!
//! Parallelism lives at one stage. Every source is one serial cursor
//! on the caller's thread, so events leave `next_batch` in file order,
//! and the supervisor's one shard thread analyzes them in that order
//! while the caller decodes the next batch.
//!
//! # Checkpoint cuts
//!
//! A cut returns the *cumulative* `(report, pid states)` pair a
//! [`CheckpointDoc`] needs: the supervisor brings the shard up to the
//! last batch fed, keeps its clone as the restore point, and reads the
//! pair off the restore point and its base report — the
//! exact resume invariant the checkpoint tests prove. That is also what
//! makes resume seeding free: a resumed run is a session whose
//! supervisor starts from the checkpoint's `(report, states)` instead
//! of empty ones.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use iocov_trace::{SkippedLine, TraceIoError};

use crate::checkpoint::CheckpointDoc;
use crate::coverage::AnalysisReport;
use crate::filter::TraceFilter;
use crate::metrics::{PipelineMetrics, ShardFailureRecord};
use crate::parallel::{ShardHook, ShardSupervisor, SupervisorPolicy};
use crate::session::{AnalysisSession, Driver};
use crate::streaming::StreamingAnalyzer;

/// Default batch size pulled from the source per session feed.
pub const DEFAULT_CHUNK: usize = 4096;

/// When (and where) to persist resumable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Write a checkpoint every this many events.
    pub every: u64,
    /// Checkpoint file path.
    pub path: PathBuf,
}

/// Called with each checkpoint a [`Driver`] persists, once it is on
/// disk.
pub(crate) type CheckpointHook = Box<dyn FnMut(CheckpointDoc) + Send>;

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

/// Configures an analysis: builds a resident [`AnalysisSession`] or a
/// batch [`Driver`] over one.
pub struct PipelineBuilder {
    /// The analyzer the shard starts as a copy of.
    empty: StreamingAnalyzer,
    mount: Option<String>,
    chunk: usize,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
    metrics: Option<Arc<PipelineMetrics>>,
    checkpoint: Option<CheckpointPolicy>,
    on_checkpoint: Option<CheckpointHook>,
    resume: Option<CheckpointDoc>,
    stop_after: Option<u64>,
}

impl PipelineBuilder {
    /// A builder over `filter` with the default supervision policy and
    /// no checkpointing.
    #[must_use]
    pub fn new(filter: TraceFilter) -> Self {
        PipelineBuilder {
            empty: StreamingAnalyzer::new(filter),
            mount: None,
            chunk: DEFAULT_CHUNK,
            policy: SupervisorPolicy::default(),
            hook: None,
            metrics: None,
            checkpoint: None,
            on_checkpoint: None,
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

    /// Accepts the one job count there is, for callers that still pass
    /// it: `0` and `1` both mean the one shard thread every session runs
    /// on, and the builder is returned unchanged. It goes with the
    /// benchmark change (ROADMAP.md items 1 and 2), once `perfbench`
    /// stops calling it.
    ///
    /// # Panics
    ///
    /// On any `jobs` above 1: analysis is not sharded.
    #[must_use]
    pub fn jobs(self, jobs: usize) -> Self {
        assert!(
            jobs <= 1,
            "analysis runs on one shard thread; got {jobs} jobs"
        );
        self
    }

    /// Test seam: events pulled from the source per session feed in
    /// place of [`DEFAULT_CHUNK`].
    #[cfg(test)]
    #[must_use]
    pub(crate) fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Supervision policy for the shard.
    #[must_use]
    pub fn policy(mut self, policy: SupervisorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shard progress hook (fault injection).
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

    /// Hands each checkpoint the [`build`](Self::build) driver persists
    /// to `hook` (`iocov serve` republishes its merged snapshot there).
    #[must_use]
    pub fn on_checkpoint(mut self, hook: impl FnMut(CheckpointDoc) + Send + 'static) -> Self {
        self.on_checkpoint = Some(Box::new(hook));
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

    /// Also counts the paper's §6 future-work metrics, identifier and
    /// exact flag-combination coverage, into the report's `identifiers`
    /// and `combos`. They allocate per path and per open, so only the
    /// subcommands that print them turn this on.
    #[must_use]
    pub fn extended_coverage(mut self) -> Self {
        self.empty = self.empty.extended_coverage();
        self
    }

    /// Builds the resident session: a shard supervisor seeded (like the
    /// metrics) from any resume checkpoint. This is the entry point for
    /// callers that feed events themselves (`iocov serve`, in-memory
    /// workloads); batch callers use
    /// [`build`](Self::build).
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
        let shard = ShardSupervisor::new(
            self.empty,
            self.policy,
            self.hook,
            self.metrics.clone(),
            seed,
        );
        AnalysisSession {
            shard,
            mount: self.mount,
            metrics: self.metrics,
            checkpoint: self.checkpoint,
            events,
        }
    }

    /// Builds the batch driver: a [`build_session`](Self::build_session)
    /// session with this builder's chunk size, stop-after boundary and
    /// checkpoint hook.
    #[must_use]
    pub fn build(mut self) -> Driver {
        let (chunk, stop_after) = (self.chunk, self.stop_after);
        let on_checkpoint = self.on_checkpoint.take();
        let mut driver = Driver::new(self.build_session(), chunk, stop_after);
        driver.on_checkpoint = on_checkpoint;
        driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Iocov;
    use iocov_trace::{
        ArgValue, EventSource, IotbSource, JsonlSource, ReadOptions, Trace, TraceEvent,
    };

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

    #[test]
    fn builder_matches_serial_analyzer() {
        // `jobs(0)` and `jobs(1)` are the same one-shard session.
        let events = multi_pid_trace(5, 6);
        let trace = Trace::from_events(events.clone());
        let serial = serde_json::to_string(&Iocov::with_filter(filter()).analyze(&trace)).unwrap();
        for jobs in [0, 1] {
            let mut session = PipelineBuilder::new(filter()).jobs(jobs).build_session();
            for chunk in events.chunks(7) {
                session.feed_owned(chunk.to_vec());
            }
            let (report, failures) = session.finish();
            assert!(failures.is_empty());
            assert_eq!(
                serial,
                serde_json::to_string(&report).unwrap(),
                "jobs {jobs}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one shard thread; got 2 jobs")]
    fn more_than_one_job_panics() {
        let _ = PipelineBuilder::new(filter()).jobs(2);
    }

    #[test]
    fn run_over_source_matches_in_memory_push() {
        // The driver over either container, and a caller-owned loop
        // feeding the same session from the same source, both render
        // the in-memory report.
        let events = multi_pid_trace(4, 5);
        let trace = Trace::from_events(events.clone());
        let mut jsonl = Vec::new();
        iocov_trace::write_jsonl(&mut jsonl, &trace).unwrap();
        let mut iotb = Vec::new();
        iocov_trace::write_iotb(&mut iotb, &trace).unwrap();
        let expected = Iocov::with_filter(filter()).analyze(&trace);
        let open = |binary: bool| -> Box<dyn EventSource + '_> {
            if binary {
                Box::new(IotbSource::new(&iotb[..], ReadOptions::default()).unwrap())
            } else {
                Box::new(JsonlSource::new(&jsonl[..], ReadOptions::default()))
            }
        };
        for binary in [false, true] {
            let run = PipelineBuilder::new(filter())
                .chunk(13)
                .build()
                .run(&mut *open(binary))
                .unwrap();
            assert_eq!(run.events, events.len() as u64);
            assert!(!run.stopped);
            assert_eq!(expected, run.report, "driver, binary {binary}");

            let mut source = open(binary);
            let mut session = PipelineBuilder::new(filter()).build_session();
            loop {
                let batch = source.next_batch(13).unwrap();
                if batch.is_empty() {
                    break;
                }
                session.feed(batch);
            }
            assert_eq!(session.events(), events.len() as u64);
            let (report, failures) = session.finish();
            assert!(failures.is_empty());
            assert_eq!(expected, report, "session feed, binary {binary}");
        }
    }

    #[test]
    fn checkpoint_cuts_preserve_byte_identity() {
        // Cutting the shard's restore point at checkpoints must not
        // disturb the final report.
        let events = multi_pid_trace(5, 6);
        let trace = Trace::from_events(events.clone());
        let serial = serde_json::to_string(&Iocov::with_filter(filter()).analyze(&trace)).unwrap();
        let mut session = PipelineBuilder::new(filter()).build_session();
        let mut states_at_cuts = Vec::new();
        for chunk in events.chunks(11) {
            session.feed_owned(chunk.to_vec());
            states_at_cuts.push(session.cut());
        }
        let (report, failures) = session.finish();
        assert!(failures.is_empty());
        assert_eq!(serial, serde_json::to_string(&report).unwrap());
        // The last cut already carries the full report.
        let (last_report, _) = states_at_cuts.last().unwrap();
        assert_eq!(serial, serde_json::to_string(last_report).unwrap());
    }

    #[test]
    fn resume_from_cut_matches_uninterrupted() {
        let events = multi_pid_trace(4, 6);
        let trace = Trace::from_events(events.clone());
        let serial = serde_json::to_string(&Iocov::with_filter(filter()).analyze(&trace)).unwrap();
        let cut_at = events.len() / 2;
        let mut head = PipelineBuilder::new(filter()).build_session();
        head.feed_owned(events[..cut_at].to_vec());
        let (head_report, head_states) = head.cut();
        let doc = CheckpointDoc {
            report: head_report,
            pid_states: head_states,
            ..CheckpointDoc::default()
        };
        // Round-trip through serialization like a real resume.
        let doc: CheckpointDoc =
            serde_json::from_str(&serde_json::to_string(&doc).unwrap()).unwrap();
        let mut tail = PipelineBuilder::new(filter()).resume(doc).build_session();
        tail.feed_owned(events[cut_at..].to_vec());
        let (report, _) = tail.finish();
        assert_eq!(serial, serde_json::to_string(&report).unwrap());
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
        let full = serde_json::to_string(&Iocov::with_filter(filter()).analyze(&trace)).unwrap();
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
        let _ = std::fs::remove_file(path.with_extension("iockpt.prev"));
    }
}
