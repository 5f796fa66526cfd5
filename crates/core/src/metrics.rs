//! Pipeline observability: cheap counters and per-stage timers.
//!
//! Coverage tooling is only trustworthy when its own gaps are measured:
//! a run that silently drops half its events reports coverage of the
//! half it kept. [`PipelineMetrics`] turns the analysis pipeline from a
//! black box into an accounted funnel — events read, parse-skipped,
//! filter-dropped (by [`DropReason`]), variant-merged, and
//! per-partition-family record counts — using relaxed atomic counters so
//! one instance can be shared (via `Arc`) by the caller's thread, the
//! session's shard thread and `serve`'s streams. Because each counter
//! is a commutative sum, [`PipelineMetrics::snapshot`] of a session is
//! **identical** to a serial run over the same trace, down to the
//! serialized bytes.
//!
//! Wall-clock stage timers ride along for performance work but live
//! outside the snapshot: time is the one thing that differs from run to
//! run.
//!
//! ```
//! use iocov::{PipelineBuilder, PipelineMetrics, TraceFilter};
//! use std::sync::Arc;
//!
//! let metrics = Arc::new(PipelineMetrics::default());
//! let session = PipelineBuilder::new(TraceFilter::keep_all())
//!     .metrics(Arc::clone(&metrics))
//!     .build_session();
//! let (_report, failures) = session.finish();
//! assert!(failures.is_empty());
//! assert_eq!(metrics.snapshot().events_read, 0);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::domain::DomainKind;

/// Why the pipeline dropped an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DropReason {
    /// Every pathname argument resolved outside the mount point.
    WrongMount,
    /// No pathname argument, and the descriptor (if any) has no
    /// provenance under the mount point.
    IrrelevantFd,
    /// The event survived filtering but names a syscall outside the
    /// analyzer's 27-call domain (tester-internal noise).
    UnknownSyscall,
}

impl DropReason {
    /// Every reason, in snapshot order.
    pub const ALL: [DropReason; 3] = [
        DropReason::WrongMount,
        DropReason::IrrelevantFd,
        DropReason::UnknownSyscall,
    ];

    /// Stable kebab-case name, used as the snapshot map key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DropReason::WrongMount => "wrong-mount",
            DropReason::IrrelevantFd => "irrelevant-fd",
            DropReason::UnknownSyscall => "unknown-syscall",
        }
    }
}

/// Partition families tracked by the per-record counters.
const PARTITION_FAMILIES: [&str; 5] = [
    "input-flag",
    "input-numeric",
    "input-categorical",
    "output-ok",
    "output-err",
];

/// Shared, thread-safe pipeline counters. See the [module docs](self).
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    events_read: AtomicU64,
    parse_skipped: AtomicU64,
    dropped_wrong_mount: AtomicU64,
    dropped_irrelevant_fd: AtomicU64,
    dropped_unknown_syscall: AtomicU64,
    variant_merged: AtomicU64,
    records_input_flag: AtomicU64,
    records_input_numeric: AtomicU64,
    records_input_categorical: AtomicU64,
    records_output_ok: AtomicU64,
    records_output_err: AtomicU64,
    batched_events: AtomicU64,
    allocs_estimated: AtomicU64,
    shard_restarts: AtomicU64,
    shard_failures: Mutex<Vec<ShardFailureRecord>>,
    stage_nanos: Mutex<BTreeMap<&'static str, u64>>,
}

/// Stage names the pipeline is known to time. [`PipelineMetrics::absorb`]
/// resolves a snapshot's owned stage keys back to these statics; an
/// unknown stage (impossible without a code change) is dropped rather
/// than leaked into a `&'static str` map.
const KNOWN_STAGES: [&str; 2] = ["analyze", "simulate"];

impl PipelineMetrics {
    /// Counts events entering the pipeline.
    pub fn add_events_read(&self, n: u64) {
        self.events_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts lines the lossy reader skipped before analysis.
    pub fn add_parse_skipped(&self, n: u64) {
        self.parse_skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one dropped event.
    pub fn record_drop(&self, reason: DropReason) {
        let counter = match reason {
            DropReason::WrongMount => &self.dropped_wrong_mount,
            DropReason::IrrelevantFd => &self.dropped_irrelevant_fd,
            DropReason::UnknownSyscall => &self.dropped_unknown_syscall,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one event whose concrete variant was merged into a
    /// different base syscall (e.g. `openat` → `open`).
    pub fn record_variant_merged(&self) {
        self.variant_merged.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` input-partition records of one argument domain, by
    /// partition family: flag words, numbers, categorical values.
    pub(crate) fn record_input_records(&self, kind: &DomainKind, n: u64) {
        let counter = match kind {
            DomainKind::OpenFlags | DomainKind::Bitmap { .. } => &self.records_input_flag,
            DomainKind::Numeric { .. } => &self.records_input_numeric,
            DomainKind::Categorical { .. } => &self.records_input_categorical,
        };
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts one output-partition record by success or failure.
    pub(crate) fn record_output_record(&self, success: bool) {
        let counter = if success {
            &self.records_output_ok
        } else {
            &self.records_output_err
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one columnar batch entering the analysis stage: `events`
    /// rows, whose owned `Vec<TraceEvent>` representation would have
    /// cost an estimated `allocs` heap allocations (the batch amortizes
    /// them into O(columns) buffers). Recorded once per source batch by
    /// the session feed — never inside the shard — so a restarted shard
    /// cannot count a batch twice.
    pub fn record_batch(&self, events: u64, allocs: u64) {
        self.batched_events.fetch_add(events, Ordering::Relaxed);
        self.allocs_estimated.fetch_add(allocs, Ordering::Relaxed);
    }

    /// Starts a wall-clock timer for `stage`; the elapsed time is added
    /// to the stage's total when the returned guard drops. Repeated
    /// timings of the same stage accumulate.
    #[must_use]
    pub fn time_stage(&self, stage: &'static str) -> StageTimer<'_> {
        StageTimer {
            metrics: self,
            stage,
            start: Instant::now(),
        }
    }

    /// Adds elapsed nanoseconds to a stage total directly.
    pub fn add_stage_nanos(&self, stage: &'static str, nanos: u64) {
        // A panicking worker can poison this lock mid-update; the worst
        // outcome is one torn nanosecond total, which never justifies
        // cascading the panic into the supervisor.
        let mut stages = self
            .stage_nanos
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *stages.entry(stage).or_insert(0) += nanos;
    }

    /// Accumulated wall-clock nanoseconds per stage.
    ///
    /// Deliberately *not* part of [`snapshot`](Self::snapshot): timings
    /// are nondeterministic, and the snapshot must be byte-identical
    /// between a session and a serial run.
    #[must_use]
    pub fn stage_timings(&self) -> BTreeMap<String, u64> {
        self.stage_nanos
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&stage, &nanos)| (stage.to_owned(), nanos))
            .collect()
    }

    /// Counts one supervised shard restart.
    pub fn record_shard_restart(&self) {
        self.shard_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends one entry to the shard-failure manifest.
    pub fn record_shard_failure(&self, record: ShardFailureRecord) {
        self.shard_failures
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }

    /// Sums a snapshot's counters into this instance.
    ///
    /// This is how the supervised shard reports: each *incarnation*
    /// accumulates into a private `PipelineMetrics` and the supervisor
    /// absorbs the snapshot only from a restore point at a cut — so the
    /// events a failed incarnation counted before crashing, which its
    /// restart does not hold, are never counted. Absorbing is a plain
    /// sum, so snapshots absorbed in any order give the same totals.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        self.events_read
            .fetch_add(snapshot.events_read, Ordering::Relaxed);
        self.parse_skipped
            .fetch_add(snapshot.parse_skipped, Ordering::Relaxed);
        self.variant_merged
            .fetch_add(snapshot.variant_merged, Ordering::Relaxed);
        self.batched_events
            .fetch_add(snapshot.batched_events, Ordering::Relaxed);
        self.allocs_estimated
            .fetch_add(snapshot.allocs_estimated, Ordering::Relaxed);
        self.shard_restarts
            .fetch_add(snapshot.shard_restarts, Ordering::Relaxed);
        for reason in DropReason::ALL {
            if let Some(&count) = snapshot.filter_dropped.get(reason.name()) {
                let counter = match reason {
                    DropReason::WrongMount => &self.dropped_wrong_mount,
                    DropReason::IrrelevantFd => &self.dropped_irrelevant_fd,
                    DropReason::UnknownSyscall => &self.dropped_unknown_syscall,
                };
                counter.fetch_add(count, Ordering::Relaxed);
            }
        }
        for (family, counter) in PARTITION_FAMILIES.iter().zip([
            &self.records_input_flag,
            &self.records_input_numeric,
            &self.records_input_categorical,
            &self.records_output_ok,
            &self.records_output_err,
        ]) {
            if let Some(&count) = snapshot.partition_records.get(*family) {
                counter.fetch_add(count, Ordering::Relaxed);
            }
        }
        for record in &snapshot.shard_failures {
            self.record_shard_failure(record.clone());
        }
    }

    /// Sums another instance's stage timings into this one (the timing
    /// counterpart of [`absorb`](Self::absorb), separate because timings
    /// live outside the deterministic snapshot).
    pub fn absorb_stage_timings(&self, timings: &BTreeMap<String, u64>) {
        for (stage, &nanos) in timings {
            if let Some(&known) = KNOWN_STAGES.iter().find(|&&k| k == stage) {
                self.add_stage_nanos(known, nanos);
            }
        }
    }

    /// A deterministic snapshot of every counter.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut filter_dropped = BTreeMap::new();
        filter_dropped.insert(
            DropReason::WrongMount.name().to_owned(),
            read(&self.dropped_wrong_mount),
        );
        filter_dropped.insert(
            DropReason::IrrelevantFd.name().to_owned(),
            read(&self.dropped_irrelevant_fd),
        );
        filter_dropped.insert(
            DropReason::UnknownSyscall.name().to_owned(),
            read(&self.dropped_unknown_syscall),
        );
        let mut partition_records = BTreeMap::new();
        for (family, counter) in PARTITION_FAMILIES.iter().zip([
            &self.records_input_flag,
            &self.records_input_numeric,
            &self.records_input_categorical,
            &self.records_output_ok,
            &self.records_output_err,
        ]) {
            partition_records.insert((*family).to_owned(), read(counter));
        }
        let mut shard_failures = self
            .shard_failures
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        // Manifest order must not depend on which supervisor path
        // recorded first.
        shard_failures.sort_by_key(|r| r.shard);
        MetricsSnapshot {
            events_read: read(&self.events_read),
            parse_skipped: read(&self.parse_skipped),
            filter_dropped,
            variant_merged: read(&self.variant_merged),
            partition_records,
            batched_events: read(&self.batched_events),
            allocs_estimated: read(&self.allocs_estimated),
            shard_restarts: read(&self.shard_restarts),
            shard_failures,
        }
    }
}

/// RAII guard adding elapsed wall-clock time to one stage's total.
#[derive(Debug)]
pub struct StageTimer<'a> {
    metrics: &'a PipelineMetrics,
    stage: &'static str,
    start: Instant,
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.metrics.add_stage_nanos(self.stage, nanos);
    }
}

/// One entry in the supervised pipeline's shard-failure manifest.
///
/// A record is written when the shard failed at least once, and the
/// report is then partial: a failed shard restarts from its restore
/// point (its state at the last cut) and its events since that point are
/// missing. `gave_up: false` means a restart went on with the next
/// batch; `gave_up: true` means the shard exhausted its restart budget
/// and every event from its restore point on is missing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardFailureRecord {
    /// Always 0: a session has one shard. Kept so the manifest lines
    /// and `MetricsSnapshot` bytes stay what they were when analysis
    /// was sharded by pid.
    pub shard: usize,
    /// Restarts performed for this shard.
    pub restarts: u32,
    /// Whether the restart budget ran out.
    pub gave_up: bool,
    /// Trace events handed to the shard after a restore point that its
    /// state does not hold: all of them are missing from the report.
    #[serde(default)]
    pub lost_events: u64,
    /// The last failure observed (panic message or stall description).
    pub last_error: String,
}

/// A deterministic, serializable view of [`PipelineMetrics`].
///
/// Snapshots sum commutatively ([`PipelineMetrics::absorb`]), so
/// aggregating per-suite or per-stream snapshots in any order yields the
/// same totals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Events that entered the pipeline (pre-filter).
    pub events_read: u64,
    /// Lines the lossy reader skipped during ingest.
    pub parse_skipped: u64,
    /// Dropped events by [`DropReason`] name.
    pub filter_dropped: BTreeMap<String, u64>,
    /// Events whose variant was merged into a different base syscall.
    pub variant_merged: u64,
    /// Partition records written, by partition family.
    pub partition_records: BTreeMap<String, u64>,
    /// Events that entered the analysis stage packed in columnar
    /// batches. A per-event sum, so it is identical across decode paths
    /// and checkpoint schedules (batch boundaries follow
    /// the pull schedule, so no batch count is kept).
    #[serde(default)]
    pub batched_events: u64,
    /// Estimated heap allocations the owned per-event representation of
    /// those batches would have needed (one name string and one args
    /// vector per event, one string per path/str argument) — the figure
    /// the columnar layout amortizes away into O(columns) buffers.
    /// Also a per-event sum, so deterministic across every matrix cell.
    #[serde(default)]
    pub allocs_estimated: u64,
    /// Supervised shard restarts performed (panics and stalls absorbed
    /// by the supervisor).
    #[serde(default)]
    pub shard_restarts: u64,
    /// Shard failure manifest: one entry for every session whose shard
    /// needed restarting, whether or not it eventually succeeded. Empty
    /// on a fault-free run, so session and serial snapshots stay
    /// byte-identical.
    #[serde(default)]
    pub shard_failures: Vec<ShardFailureRecord>,
}

impl MetricsSnapshot {
    /// Total dropped events across all reasons.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.filter_dropped.values().sum()
    }

    /// Mean estimated allocations avoided per batched event. `None`
    /// before any event.
    #[must_use]
    pub fn allocs_per_event(&self) -> Option<f64> {
        (self.batched_events > 0).then(|| self.allocs_estimated as f64 / self.batched_events as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = PipelineMetrics::default();
        m.add_events_read(10);
        m.add_parse_skipped(2);
        m.record_drop(DropReason::WrongMount);
        m.record_drop(DropReason::WrongMount);
        m.record_drop(DropReason::IrrelevantFd);
        m.record_drop(DropReason::UnknownSyscall);
        m.record_variant_merged();
        m.record_input_records(&DomainKind::OpenFlags, 1);
        m.record_input_records(&DomainKind::Bitmap { flags: &[] }, 0);
        m.record_input_records(
            &DomainKind::Numeric {
                signed: false,
                display_max_log2: 20,
            },
            1,
        );
        m.record_input_records(&DomainKind::Categorical { values: &[] }, 1);
        m.record_output_record(true);
        m.record_output_record(true);
        m.record_output_record(false);
        let snap = m.snapshot();
        assert_eq!(snap.events_read, 10);
        assert_eq!(snap.parse_skipped, 2);
        assert_eq!(snap.filter_dropped["wrong-mount"], 2);
        assert_eq!(snap.filter_dropped["irrelevant-fd"], 1);
        assert_eq!(snap.filter_dropped["unknown-syscall"], 1);
        assert_eq!(snap.total_dropped(), 4);
        assert_eq!(snap.variant_merged, 1);
        assert_eq!(snap.partition_records["input-flag"], 1);
        assert_eq!(snap.partition_records["input-numeric"], 1);
        assert_eq!(snap.partition_records["input-categorical"], 1);
        assert_eq!(snap.partition_records["output-ok"], 2);
        assert_eq!(snap.partition_records["output-err"], 1);
    }

    #[test]
    fn snapshot_absorb_is_commutative() {
        let a = {
            let m = PipelineMetrics::default();
            m.add_events_read(3);
            m.record_drop(DropReason::WrongMount);
            m.snapshot()
        };
        let b = {
            let m = PipelineMetrics::default();
            m.add_events_read(4);
            m.record_drop(DropReason::IrrelevantFd);
            m.record_variant_merged();
            m.snapshot()
        };
        let sum = |first: &MetricsSnapshot, second: &MetricsSnapshot| {
            let m = PipelineMetrics::default();
            m.absorb(first);
            m.absorb(second);
            m.snapshot()
        };
        let ab = sum(&a, &b);
        assert_eq!(ab, sum(&b, &a));
        assert_eq!(ab.events_read, 7);
        assert_eq!(ab.total_dropped(), 2);
    }

    #[test]
    fn snapshot_serializes_deterministically() {
        let m = PipelineMetrics::default();
        m.add_events_read(1);
        let first = serde_json::to_string(&m.snapshot()).unwrap();
        let second = serde_json::to_string(&m.snapshot()).unwrap();
        assert_eq!(first, second);
        let back: MetricsSnapshot = serde_json::from_str(&first).unwrap();
        assert_eq!(back, m.snapshot());
        // Every key is present even at zero — a stable schema for tools.
        for reason in DropReason::ALL {
            assert!(first.contains(reason.name()), "{first}");
        }
    }

    #[test]
    fn stage_timers_accumulate() {
        let m = PipelineMetrics::default();
        {
            let _t = m.time_stage("analyze");
        }
        {
            let _t = m.time_stage("analyze");
        }
        m.add_stage_nanos("simulate", 500);
        let timings = m.stage_timings();
        assert!(timings.contains_key("analyze"));
        assert_eq!(timings["simulate"], 500);
        // Timings never leak into the deterministic snapshot.
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        assert!(!json.contains("analyze"));
    }

    #[test]
    fn absorb_equals_direct_counting() {
        // Counting into a local instance and absorbing its snapshot must
        // be indistinguishable from counting into the target directly.
        let direct = PipelineMetrics::default();
        direct.add_events_read(5);
        direct.record_drop(DropReason::WrongMount);
        direct.record_variant_merged();
        direct.record_input_records(&DomainKind::OpenFlags, 1);
        direct.record_output_record(false);

        let local = PipelineMetrics::default();
        local.add_events_read(5);
        local.record_drop(DropReason::WrongMount);
        local.record_variant_merged();
        local.record_input_records(&DomainKind::OpenFlags, 1);
        local.record_output_record(false);
        local.add_stage_nanos("analyze", 1234);
        let absorbed = PipelineMetrics::default();
        absorbed.absorb(&local.snapshot());
        absorbed.absorb_stage_timings(&local.stage_timings());

        assert_eq!(direct.snapshot(), absorbed.snapshot());
        assert_eq!(absorbed.stage_timings()["analyze"], 1234);
    }

    #[test]
    fn shard_failures_surface_in_snapshot_sorted() {
        let m = PipelineMetrics::default();
        m.record_shard_restart();
        m.record_shard_restart();
        m.record_shard_failure(ShardFailureRecord {
            shard: 3,
            restarts: 1,
            gave_up: false,
            lost_events: 4096,
            last_error: "injected panic".into(),
        });
        m.record_shard_failure(ShardFailureRecord {
            shard: 1,
            restarts: 1,
            gave_up: true,
            lost_events: 10,
            last_error: "stalled".into(),
        });
        let snap = m.snapshot();
        assert_eq!(snap.shard_restarts, 2);
        assert_eq!(snap.shard_failures.len(), 2);
        assert_eq!(snap.shard_failures[0].shard, 1);
        assert_eq!(snap.shard_failures[1].shard, 3);
        // Round-trips through serde, and old snapshots (without the
        // supervision fields) still deserialize.
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let legacy: MetricsSnapshot = serde_json::from_str(
            "{\"events_read\":1,\"parse_skipped\":0,\"filter_dropped\":{},\
             \"variant_merged\":0,\"partition_records\":{}}",
        )
        .unwrap();
        assert_eq!(legacy.shard_restarts, 0);
        assert!(legacy.shard_failures.is_empty());
        // A failure record written before `lost_events` existed parses
        // with none lost.
        let legacy: ShardFailureRecord = serde_json::from_str(
            "{\"shard\":0,\"restarts\":1,\"gave_up\":false,\"last_error\":\"x\"}",
        )
        .unwrap();
        assert_eq!(legacy.lost_events, 0);
    }

    #[test]
    fn batch_counters_accumulate_and_absorb() {
        let m = PipelineMetrics::default();
        m.record_batch(4096, 9000);
        m.record_batch(100, 250);
        let snap = m.snapshot();
        assert_eq!(snap.batched_events, 4196);
        assert_eq!(snap.allocs_estimated, 9250);
        // The means are derived from raw sums, so absorbing stays
        // commutative and ratios of a doubled snapshot are unchanged.
        let absorbed = PipelineMetrics::default();
        absorbed.absorb(&snap);
        assert_eq!(absorbed.snapshot(), snap);
        absorbed.absorb(&snap);
        let twice = absorbed.snapshot();
        assert_eq!(twice.batched_events, 8392);
        assert_eq!(twice.allocs_estimated, 18500);
        assert_eq!(twice.allocs_per_event(), snap.allocs_per_event());
        assert_eq!(MetricsSnapshot::default().allocs_per_event(), None);
        assert_eq!(snap.allocs_per_event(), Some(9250.0 / 4196.0));
        // Batch-shape keys never leak into the serialized snapshot.
        let json = serde_json::to_string(&snap).unwrap();
        assert!(!json.contains("batch_count"), "{json}");
        assert!(json.contains("batched_events"), "{json}");
        assert!(json.contains("allocs_estimated"), "{json}");
    }

    #[test]
    fn shared_across_threads_sums_exactly() {
        use std::sync::Arc;
        let m = Arc::new(PipelineMetrics::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.add_events_read(1);
                        m.record_drop(DropReason::WrongMount);
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.events_read, 4000);
        assert_eq!(snap.filter_dropped["wrong-mount"], 4000);
    }
}
