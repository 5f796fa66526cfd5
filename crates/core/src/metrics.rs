//! Pipeline observability: the analysis funnel and per-stage timers.
//!
//! Coverage tooling is only trustworthy when its own gaps are measured:
//! a run that silently drops half its events reports coverage of the
//! half it kept. [`PipelineMetrics`] turns the analysis pipeline from a
//! black box into an accounted funnel — events read, parse-skipped,
//! filter-dropped (by [`DropReason`]), variant-merged, and
//! per-partition-family record counts.
//!
//! Every session counts its funnel; `--metrics` only decides whether
//! the CLI prints it. The scan side of the funnel is not counted event
//! by event: it is derived from the analyzer's own counts (its filter
//! stats, its calls per variant and its partition slots), plus one
//! counter the analyzer keeps for the wrong-mount/irrelevant-fd split.
//! A session's shard absorbs that derived funnel into the session's
//! instance once, when the session finishes, so a failed shard
//! incarnation's counts, which its restore point does not hold, are
//! never counted. The counters are one [`MetricsSnapshot`] behind a
//! mutex, so one instance can be shared (via `Arc`) by the caller's
//! thread, the session's shard thread and several sessions; absorbing
//! is [`MetricsSnapshot::merge`]. Because each counter is a commutative
//! sum, [`PipelineMetrics::snapshot`] of a session is **identical** to a
//! serial run over the same trace, down to the serialized bytes, and so
//! is the funnel of a run killed and resumed from its checkpoint, which
//! carries the counters up to its cut.
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
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::coverage::add_counts;

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
pub(crate) const PARTITION_FAMILIES: [&str; 5] = [
    "input-flag",
    "input-numeric",
    "input-categorical",
    "output-ok",
    "output-err",
];

/// Shared, thread-safe pipeline counters. See the [module docs](self).
#[derive(Debug)]
pub struct PipelineMetrics {
    counts: Mutex<MetricsSnapshot>,
    stage_nanos: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for PipelineMetrics {
    /// Zero counters, with every drop reason and partition family keyed
    /// at zero, so every snapshot has the same schema.
    fn default() -> Self {
        let zeros = |keys: &[&str]| keys.iter().map(|&key| (key.to_owned(), 0)).collect();
        PipelineMetrics {
            counts: Mutex::new(MetricsSnapshot {
                filter_dropped: zeros(&DropReason::ALL.map(DropReason::name)),
                partition_records: zeros(&PARTITION_FAMILIES),
                ..MetricsSnapshot::default()
            }),
            stage_nanos: Mutex::default(),
        }
    }
}

impl PipelineMetrics {
    /// The counters, locked. Every update is a few whole-field sums, so
    /// a thread that panicked holding the lock left nothing worth
    /// cascading the panic into the supervisor for.
    fn counts(&self) -> MutexGuard<'_, MetricsSnapshot> {
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts lines the lossy reader skipped before analysis.
    pub fn add_parse_skipped(&self, n: u64) {
        self.counts().parse_skipped += n;
    }

    /// Counts one columnar batch entering the analysis stage: `events`
    /// rows, whose owned `Vec<TraceEvent>` representation would have
    /// cost an estimated `allocs` heap allocations (the batch amortizes
    /// them into O(columns) buffers). Recorded once per source batch by
    /// the session feed — never inside the shard — so a restarted shard
    /// cannot count a batch twice.
    pub fn record_batch(&self, events: u64, allocs: u64) {
        let mut counts = self.counts();
        counts.batched_events += events;
        counts.allocs_estimated += allocs;
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
        self.counts().shard_restarts += 1;
    }

    /// Sums a snapshot's counters into this instance
    /// ([`MetricsSnapshot::merge`]).
    ///
    /// This is how the funnel arrives: a session absorbs its shard's
    /// derived funnel and failure manifest once, at finish, and a
    /// resumed session first absorbs its checkpoint's snapshot.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        self.counts().merge(snapshot);
    }

    /// A deterministic snapshot of every counter.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.counts().clone();
        // Manifest order must not depend on which session finished or
        // was absorbed first.
        snapshot.shard_failures.sort_by_key(|r| r.shard);
        snapshot
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
/// Snapshots sum commutatively ([`merge`](Self::merge)), so aggregating
/// per-suite or per-stream snapshots in any order yields the same
/// totals.
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
    /// Adds `other`'s counters into this one, the way
    /// [`AnalysisReport::merge`](crate::AnalysisReport::merge) adds
    /// reports: scalars and per-key counts are summed, and `other`'s
    /// failure records are appended.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.events_read += other.events_read;
        self.parse_skipped += other.parse_skipped;
        add_counts(&mut self.filter_dropped, &other.filter_dropped);
        self.variant_merged += other.variant_merged;
        add_counts(&mut self.partition_records, &other.partition_records);
        self.batched_events += other.batched_events;
        self.allocs_estimated += other.allocs_estimated;
        self.shard_restarts += other.shard_restarts;
        self.shard_failures.extend_from_slice(&other.shard_failures);
    }

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

    /// A snapshot holding `events_read` and one drop of `reason`.
    fn one_drop(events_read: u64, reason: DropReason) -> MetricsSnapshot {
        MetricsSnapshot {
            events_read,
            filter_dropped: [(reason.name().to_owned(), 1)].into(),
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        let a = one_drop(3, DropReason::WrongMount);
        let b = MetricsSnapshot {
            variant_merged: 1,
            shard_restarts: 2,
            ..one_drop(4, DropReason::IrrelevantFd)
        };
        let sum = |first: &MetricsSnapshot, second: &MetricsSnapshot| {
            let mut sum = first.clone();
            sum.merge(second);
            sum
        };
        let ab = sum(&a, &b);
        assert_eq!(ab, sum(&b, &a));
        assert_eq!(ab.events_read, 7);
        assert_eq!(ab.total_dropped(), 2);
        assert_eq!(ab.filter_dropped["wrong-mount"], 1);
        assert_eq!(ab.variant_merged, 1);
        assert_eq!(ab.shard_restarts, 2);
        // Absorbing is merging into the zero-keyed default.
        let m = PipelineMetrics::default();
        m.absorb(&b);
        m.absorb(&a);
        let mut zero = PipelineMetrics::default().snapshot();
        zero.merge(&ab);
        assert_eq!(m.snapshot(), zero);
    }

    #[test]
    fn snapshot_serializes_deterministically() {
        let m = PipelineMetrics::default();
        m.add_parse_skipped(1);
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
    fn shard_failures_surface_in_snapshot_sorted() {
        let m = PipelineMetrics::default();
        m.record_shard_restart();
        m.record_shard_restart();
        for (shard, gave_up, lost_events, last_error) in
            [(3, false, 4096, "injected panic"), (1, true, 10, "stalled")]
        {
            m.absorb(&MetricsSnapshot {
                shard_failures: vec![ShardFailureRecord {
                    shard,
                    restarts: 1,
                    gave_up,
                    lost_events,
                    last_error: last_error.into(),
                }],
                ..MetricsSnapshot::default()
            });
        }
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
                        m.add_parse_skipped(1);
                        m.record_batch(2, 3);
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.parse_skipped, 4000);
        assert_eq!(snap.batched_events, 8000);
        assert_eq!(snap.allocs_estimated, 12000);
    }
}
