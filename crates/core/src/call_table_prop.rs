//! Property: resolving names once per batch changes nothing. Owned
//! [`StreamingAnalyzer::push`] resolves each event's name as it comes;
//! the batch scan resolves each batch's name table once and looks rows
//! up by name id, keeps a last-pid cache in front of the pid map and a
//! dense descriptor table in front of each pid's descriptor map. Over
//! streams of in-domain, out-of-domain and provenance calls (dup, close,
//! chdir, fchdir) from pids that switch back and forth, with low, high,
//! negative and `AT_FDCWD` descriptors, split into batches whose name
//! tables differ, the report and the metrics snapshot serialize to the
//! same bytes:
//!
//! * from one analyzer scanning the batches, with its pid states
//!   snapshotted and restored at a chosen batch (restore must drop the
//!   last-pid cache, since it lays the states out anew);
//! * from sessions at one to three shards, which coalesce batches
//!   below the parallel threshold by re-interning their names.

use std::sync::Arc;

use crate::{
    AnalysisReport, MetricsSnapshot, PipelineBuilder, PipelineMetrics, StreamingAnalyzer,
    TraceFilter,
};
use iocov_trace::{ArgValue, EventBatch, TraceEvent};
use proptest::prelude::*;

const MOUNT: &str = "/mnt/test";

/// Descriptors: low, at and past the dense floor, far past it,
/// negative, and `AT_FDCWD`.
const FDS: [i32; 9] = [3, 4, 9, 63, 64, 65, 300, -5, -100];

const PATHS: [&str; 5] = ["/mnt/test/a", "/mnt/test/d/e", "/etc/noise", "rel/f", "f"];

fn fd() -> impl Strategy<Value = i32> {
    (0..FDS.len()).prop_map(|i| FDS[i])
}

fn path() -> impl Strategy<Value = String> {
    (0..PATHS.len()).prop_map(|i| PATHS[i].to_owned())
}

fn retval() -> impl Strategy<Value = i64> {
    prop_oneof![
        (0..FDS.len()).prop_map(|i| i64::from(FDS[i].max(0))),
        Just(-2i64),
        Just(-9),
        Just(4096),
    ]
}

fn event() -> impl Strategy<Value = TraceEvent> {
    let call = prop_oneof![
        (0usize..4, path(), fd(), any::<u16>()).prop_map(|(v, path, dirfd, flags)| {
            let flags = ArgValue::Flags(u32::from(flags));
            let mode = ArgValue::Mode(0o644);
            match v {
                0 => ("open", vec![ArgValue::Path(path), flags, mode]),
                1 => (
                    "openat",
                    vec![ArgValue::Fd(dirfd), ArgValue::Path(path), flags, mode],
                ),
                2 => ("creat", vec![ArgValue::Path(path), mode]),
                _ => (
                    "openat2",
                    vec![ArgValue::Fd(dirfd), ArgValue::Path(path), flags, mode],
                ),
            }
        }),
        (0usize..3, fd(), fd()).prop_map(|(v, old, new)| {
            let name = ["dup", "dup2", "dup3"][v];
            (name, vec![ArgValue::Fd(old), ArgValue::Fd(new)])
        }),
        fd().prop_map(|fd| ("close", vec![ArgValue::Fd(fd)])),
        path().prop_map(|path| ("chdir", vec![ArgValue::Path(path)])),
        fd().prop_map(|fd| ("fchdir", vec![ArgValue::Fd(fd)])),
        (0usize..4, fd(), 0u64..70_000).prop_map(|(v, fd, count)| {
            let name = ["read", "write", "pread64", "pwrite64"][v];
            let mut args = vec![ArgValue::Fd(fd), ArgValue::Ptr(1), ArgValue::UInt(count)];
            if v >= 2 {
                args.push(ArgValue::Int(-1));
            }
            (name, args)
        }),
        (fd(), 0u32..6).prop_map(|(fd, whence)| {
            let args = vec![
                ArgValue::Fd(fd),
                ArgValue::Int(-10),
                ArgValue::Whence(whence),
            ];
            ("lseek", args)
        }),
        (path(), fd()).prop_map(|(path, dirfd)| {
            let args = vec![
                ArgValue::Fd(dirfd),
                ArgValue::Path(path),
                ArgValue::Mode(0o755),
            ];
            ("mkdirat", args)
        }),
        (0usize..3, path(), fd()).prop_map(|(v, path, fd)| {
            let name = ["stat", "unlink", "fsync"][v];
            let args = if v == 2 {
                vec![ArgValue::Fd(fd)]
            } else {
                vec![ArgValue::Path(path)]
            };
            (name, args)
        }),
    ];
    (call, prop_oneof![Just(1u32), Just(2), Just(7)], retval()).prop_map(
        |((name, args), pid, retval)| {
            let mut event = TraceEvent::build(name, 0, args, retval);
            event.pid = pid;
            event
        },
    )
}

/// Splits `events` at the given sizes (cycled) into batches.
fn batches(events: &[TraceEvent], sizes: &[usize]) -> Vec<EventBatch> {
    let mut out = Vec::new();
    let mut rest = events;
    let mut i = 0;
    while !rest.is_empty() {
        let take = sizes[i % sizes.len()].min(rest.len());
        out.push(EventBatch::from_events(&rest[..take]));
        rest = &rest[take..];
        i += 1;
    }
    out
}

fn analyzer(metrics: &Arc<PipelineMetrics>) -> StreamingAnalyzer {
    StreamingAnalyzer::new(TraceFilter::mount_point(MOUNT).unwrap())
        .with_metrics(Arc::clone(metrics))
}

fn bytes(report: &AnalysisReport, metrics: &MetricsSnapshot) -> (String, String) {
    (
        serde_json::to_string_pretty(report).unwrap(),
        serde_json::to_string(metrics).unwrap(),
    )
}

proptest! {
    #[test]
    fn batch_scan_matches_owned_push(
        events in proptest::collection::vec(event(), 0..120),
        sizes in proptest::collection::vec(1usize..24, 1..6),
        restore_at in 0usize..12,
    ) {
        let owned_metrics = Arc::new(PipelineMetrics::default());
        let mut owned = analyzer(&owned_metrics);
        for event in &events {
            owned.push(event);
        }
        let expected = bytes(&owned.finish(), &owned_metrics.snapshot());

        let scan_metrics = Arc::new(PipelineMetrics::default());
        let mut scan = analyzer(&scan_metrics);
        for (i, batch) in batches(&events, &sizes).iter().enumerate() {
            if i == restore_at {
                let states = scan.pid_states();
                scan.restore_pid_states(&states);
            }
            scan.push_batch(batch, |_| true);
        }
        prop_assert_eq!(&bytes(&scan.finish(), &scan_metrics.snapshot()), &expected);

        for jobs in 1..=3 {
            let metrics = Arc::new(PipelineMetrics::default());
            let mut session = PipelineBuilder::new(TraceFilter::mount_point(MOUNT).unwrap())
                .mount(Some(MOUNT.to_owned()))
                .jobs(jobs)
                .metrics(Arc::clone(&metrics))
                .build_session();
            for batch in batches(&events, &sizes) {
                session.feed(batch);
            }
            let (report, failures) = session.finish();
            prop_assert!(failures.is_empty());
            // Sessions also count the batches they were fed.
            let mut snapshot = metrics.snapshot();
            prop_assert_eq!(snapshot.batched_events, events.len() as u64);
            snapshot.batched_events = 0;
            snapshot.allocs_estimated = 0;
            prop_assert_eq!(&bytes(&report, &snapshot), &expected, "jobs {}", jobs);
        }
    }
}
