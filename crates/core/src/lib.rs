//! IOCov: input and output coverage for file system testing.
//!
//! A reproduction of the framework from *"Input and Output Coverage
//! Needed in File System Testing"* (HotStorage '23). Code coverage alone
//! correlates weakly with bug-finding in file systems — many bugs hide in
//! code a suite already covers, triggered only by specific inputs
//! (boundary sizes, rare flag combinations) or visible only in outputs
//! (wrong return values on exit paths). IOCov therefore measures, for a
//! trace of a test suite's syscalls:
//!
//! * **input coverage** — how thoroughly each syscall argument's
//!   partitioned input space is exercised (per-flag for bitmaps,
//!   power-of-two buckets for numerics, per-value for categoricals), and
//! * **output coverage** — how many distinct return values and error
//!   codes are elicited.
//!
//! The pipeline mirrors the paper's §3 architecture:
//!
//! ```text
//! event ─▶ TraceFilter ─▶ variant handler ─▶ partitioner ─▶ AnalysisReport
//!          (mount point,   (openat2/creat     (per-argument    (coverage,
//!           fd provenance)  → open, …)         domains)         untested, TCD)
//!          └──────── StreamingAnalyzer::push, once per event ───┘
//! ```
//!
//! That per-event step is the only place the relevance rules run and
//! coverage accumulates. Two drivers feed it: [`Iocov::analyze`] loops
//! over an in-memory trace, and an [`AnalysisSession`] feeds decoded
//! batches to its shard thread, across checkpoints and restarts.
//!
//! # Quick start
//!
//! ```
//! use iocov::{ArgName, Iocov};
//! use iocov_syscalls::Kernel;
//! use iocov_trace::Recorder;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), iocov_pattern::PatternError> {
//! // Run some "test suite" against the simulated kernel, tracing it.
//! let recorder = Arc::new(Recorder::new());
//! let mut kernel = Kernel::new();
//! kernel.attach_recorder(Arc::clone(&recorder));
//! kernel.mkdir("/mnt", 0o755);
//! kernel.mkdir("/mnt/test", 0o755);
//! let fd = kernel.open("/mnt/test/f", 0o102, 0o644) as i32;
//! kernel.write(fd, b"hello");
//! kernel.close(fd);
//!
//! // Analyze the trace for coverage under the tester's mount point.
//! let iocov = Iocov::with_mount_point("/mnt/test")?;
//! let report = iocov.analyze(&recorder.take());
//! let flags = report.input_coverage(ArgName::OpenFlags);
//! assert_eq!(flags.calls, 1);
//! assert!(!flags.untested(ArgName::OpenFlags).is_empty());
//! # Ok(())
//! # }
//! ```

mod arg;
#[cfg(test)]
mod call_table_prop;
pub mod checkpoint;
pub mod cold;
mod combos;
mod coverage;
mod domain;
mod filter;
pub mod frame;
mod identifier;
pub mod metrics;
mod parallel;
mod partition;
pub mod pipeline;
mod relevance;
pub mod report;
#[cfg(unix)]
pub mod serve;
pub mod session;
#[cfg(test)]
mod session_interleave_prop;
mod streaming;
pub mod syzlang;
pub mod tcd;
mod variants;

pub use arg::{ArgClass, ArgName, TrackedValue};
pub use checkpoint::{
    encode_checkpoint, parse_checkpoint, prev_checkpoint_path, read_checkpoint,
    read_checkpoint_with_fallback, write_atomic, write_checkpoint, CheckpointDoc, CheckpointError,
    PidStateSnapshot, IOCKPT_MAGIC, IOCKPT_VERSION,
};
pub use cold::{
    campaign_tcd, extract_cold, output_bucket_domain, tcd_vector, ColdErrno, ColdOutputBucket,
    ColdPartition, ColdReport, OUTPUT_BUCKET_MAX_LOG2,
};
pub use combos::ComboCoverage;
pub use coverage::{AnalysisReport, ComboHistogram, InputCoverage, OutputCoverage};
pub use domain::{
    arg_domain, for_each_open_flag, open_flag_names, open_flags_present, output_buckets_bytes,
    output_errnos, ArgDomain, DomainKind, INVALID_CATEGORY, MODE_BITS, WHENCE_VALUES,
    XATTR_FLAG_BITS,
};
pub use filter::{FilterStats, TraceFilter};
// Only perfbench's frame probe (`perfbench/src/probes.rs`) reads the
// codec under this old path; the alias goes with the next benchmark
// change (ROADMAP items 1 and 2).
#[doc(hidden)]
pub use frame as distribute;
pub use identifier::{FdPartition, IdentifierCoverage, PathPartition};
pub use metrics::{DropReason, MetricsSnapshot, PipelineMetrics, ShardFailureRecord, StageTimer};
pub use parallel::{
    in_supervised_scan, splitmix64, ShardError, ShardHook, SupervisorPolicy, PARALLEL_THRESHOLD,
    PIPELINE_DEPTH,
};
pub use partition::{InputPartition, NumericPartition, OutputPartition};
pub use pipeline::{CheckpointPolicy, PipelineBuilder, PipelineError, PipelineRun, DEFAULT_CHUNK};
#[cfg(unix)]
pub use serve::{
    run_feed, run_serve, FeedAbortHook, FeedConfig, FeedOutcome, FeedStallHook, ServeConfig,
    ServeSummary, StreamHello, StreamStatus,
};
pub use session::{AnalysisSession, Driver};
pub use streaming::StreamingAnalyzer;
pub use variants::{normalize, NormalizedCall, CREAT_IMPLIED_FLAGS};

// Re-export the identifiers callers need to interpret reports.
pub use iocov_syscalls::{BaseSyscall, Sysno};

/// The top-level facade: a configured filter, and the serial
/// whole-trace driver of [`StreamingAnalyzer`].
///
/// Sessions feed the same per-event step from batches on a shard
/// thread, across checkpoints; this one-loop driver over owned events is the oracle
/// they are checked against. See the [crate-level
/// documentation](crate) for a full example.
#[derive(Debug, Clone, Default)]
pub struct Iocov {
    filter: TraceFilter,
}

impl Iocov {
    /// An IOCov instance that analyzes every traced syscall (no mount
    /// filtering).
    #[must_use]
    pub fn new() -> Self {
        Iocov::with_filter(TraceFilter::keep_all())
    }

    /// An IOCov instance filtering to one mount point — "the only
    /// setting that needs to be adjusted when applying IOCov to a new
    /// file system tester" (§3).
    ///
    /// # Errors
    ///
    /// Never fails, as [`TraceFilter::mount_point`] never does; the
    /// `Result` goes with the next change to the benchmark harness.
    pub fn with_mount_point(mount: &str) -> Result<Self, iocov_pattern::PatternError> {
        TraceFilter::mount_point(mount).map(Iocov::with_filter)
    }

    /// An IOCov instance with a custom filter.
    #[must_use]
    pub fn with_filter(filter: TraceFilter) -> Self {
        Iocov { filter }
    }

    /// Analyzes one trace: filter, variant merge, partition and count,
    /// one event at a time.
    #[must_use]
    pub fn analyze(&self, trace: &iocov_trace::Trace) -> AnalysisReport {
        let mut analyzer = StreamingAnalyzer::new(self.filter.clone());
        analyzer.push_all(trace);
        analyzer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov_trace::{ArgValue, Trace, TraceEvent};

    #[test]
    fn facade_pipeline_end_to_end() {
        let trace = Trace::from_events(vec![
            TraceEvent::build(
                "open",
                2,
                vec![
                    ArgValue::Path("/mnt/test/a".into()),
                    ArgValue::Flags(0o101),
                    ArgValue::Mode(0o644),
                ],
                3,
            ),
            TraceEvent::build(
                "open",
                2,
                vec![
                    ArgValue::Path("/etc/noise".into()),
                    ArgValue::Flags(0),
                    ArgValue::Mode(0),
                ],
                4,
            ),
        ]);
        let unfiltered = Iocov::new().analyze(&trace);
        assert_eq!(unfiltered.total_calls(), 2);
        let filtered = Iocov::with_mount_point("/mnt/test")
            .unwrap()
            .analyze(&trace);
        assert_eq!(filtered.total_calls(), 1);
        assert_eq!(filtered.filter_stats.dropped, 1);
    }

    #[test]
    fn custom_filter_construction() {
        let filter = TraceFilter::keep_all();
        let iocov = Iocov::with_filter(filter);
        let report = iocov.analyze(&Trace::new());
        assert_eq!(report.total_calls(), 0);
    }
}
