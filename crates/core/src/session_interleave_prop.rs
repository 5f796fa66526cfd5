//! Property: resident sessions make stream interleaving invisible.
//! `iocov serve` feeds N concurrent trace streams through one
//! [`AnalysisSession`] each and merges their reports into a shared
//! snapshot; the pre-existing batch path analyzes one concatenated
//! trace. For serve's snapshot to be byte-identical to the batch run,
//! feeding each stream's batches in *any* interleaving — and merging
//! the finished reports in *any* completion order — must serialize to
//! exactly the bytes of the single concatenated analysis, with and
//! without shared `--metrics`. Streams carry disjoint pid ranges, as
//! real per-process trace streams do. Every case runs with identifier
//! and combination coverage off and on.

use std::sync::Arc;

use crate::{
    splitmix64, AnalysisReport, AnalysisSession, PipelineBuilder, PipelineMetrics, TraceFilter,
};
use iocov_trace::{ArgValue, EventBatch, TraceEvent};
use proptest::prelude::*;
use proptest::TestCaseError;

const MOUNT: &str = "/mnt/test";

/// One synthetic trace event: opens in and out of the mount, reads and
/// writes with boundary-ish sizes, both success and errno returns — the
/// shapes that exercise the filter, the numeric partitioner, and the
/// output partitioner at once.
fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        // open: in-mount and noise paths, a few flag words, hits and
        // misses.
        (
            0usize..3,
            0usize..4,
            prop_oneof![Just(3i64), Just(4), Just(-2), Just(-13)]
        )
            .prop_map(|(path, flags, ret)| {
                let path = ["/mnt/test/a", "/mnt/test/b/c", "/etc/noise"][path];
                let flags = [0u32, 0o1, 0o102, 0o2001][flags];
                TraceEvent::build(
                    "open",
                    2,
                    vec![
                        ArgValue::Path(path.into()),
                        ArgValue::Flags(flags),
                        ArgValue::Mode(0o644),
                    ],
                    ret,
                )
            }),
        // write/read: size-returning calls across several return
        // buckets plus short/zero/errno returns.
        (
            any::<bool>(),
            0u64..100_000,
            prop_oneof![Just(0i64), Just(1), Just(-28)]
        )
            .prop_map(|(write, count, short)| {
                let ret = if short == 1 {
                    i64::try_from(count / 2).unwrap()
                } else if short == 0 {
                    i64::try_from(count).unwrap()
                } else {
                    short
                };
                TraceEvent::build(
                    if write { "write" } else { "read" },
                    1,
                    vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(count)],
                    ret,
                )
            }),
        // mkdir: categorical mode coverage and EEXIST.
        (0u32..4, prop_oneof![Just(0i64), Just(-17)]).prop_map(|(mode, ret)| {
            TraceEvent::build(
                "mkdir",
                83,
                vec![
                    ArgValue::Path("/mnt/test/d".into()),
                    ArgValue::Mode([0o755, 0o700, 0o777, 0o1777][mode as usize]),
                ],
                ret,
            )
        }),
    ]
}

/// A stream: its events (pids re-based per stream below) and the batch
/// boundaries to feed them at.
fn stream_strategy() -> impl Strategy<Value = (Vec<TraceEvent>, Vec<usize>)> {
    (
        proptest::collection::vec(event_strategy(), 0..40),
        proptest::collection::vec(1usize..8, 1..10),
    )
}

/// Splits one stream's events at the given boundary sizes (cycled).
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

fn session(metrics: Option<Arc<PipelineMetrics>>, extended: bool) -> AnalysisSession {
    let mut builder = PipelineBuilder::new(TraceFilter::mount_point(MOUNT).unwrap())
        .mount(Some(MOUNT.to_owned()));
    if let Some(m) = metrics {
        builder = builder.metrics(m);
    }
    if extended {
        builder = builder.extended_coverage();
    }
    builder.build_session()
}

/// Runs the full comparison at one metrics setting. Returns the
/// reference bytes so the caller can also assert metrics-on and
/// metrics-off agree on the report.
fn check(
    streams: &[Vec<TraceEvent>],
    sizes: &[Vec<usize>],
    seed: u64,
    with_metrics: bool,
    extended: bool,
) -> Result<String, TestCaseError> {
    // Reference: one batch analysis of the concatenated streams.
    let ref_metrics = with_metrics.then(|| Arc::new(PipelineMetrics::default()));
    let mut reference = session(ref_metrics.clone(), extended);
    for events in streams {
        reference.feed_owned(events.clone());
    }
    let (ref_report, ref_failures) = reference.finish();
    prop_assert!(ref_failures.is_empty());
    prop_assert_eq!(ref_report.identifiers.is_some(), extended);
    prop_assert_eq!(ref_report.combos.is_some(), extended);
    let ref_bytes = serde_json::to_string_pretty(&ref_report).unwrap();

    // Interleaved: one resident session per stream, batches scheduled
    // in a seeded arbitrary order (per-stream order preserved, as the
    // serve socket protocol guarantees).
    let stream_metrics: Vec<Option<Arc<PipelineMetrics>>> = streams
        .iter()
        .map(|_| with_metrics.then(|| Arc::new(PipelineMetrics::default())))
        .collect();
    let mut sessions: Vec<_> = stream_metrics
        .iter()
        .map(|m| session(m.clone(), extended))
        .collect();
    let mut queues: Vec<Vec<EventBatch>> = streams
        .iter()
        .zip(sizes)
        .map(|(events, sizes)| {
            let mut b = batches(events, sizes);
            b.reverse(); // pop() feeds front-first
            b
        })
        .collect();
    let mut step = 0u64;
    while queues.iter().any(|q| !q.is_empty()) {
        let live: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        let pick = live[usize::try_from(splitmix64(seed, step) % live.len() as u64).unwrap()];
        step += 1;
        let batch = queues[pick].pop().unwrap();
        sessions[pick].feed(batch);
    }

    // Finish and merge in a second seeded arbitrary "completion" order.
    let mut finished: Vec<AnalysisReport> = Vec::new();
    for s in sessions {
        let (report, failures) = s.finish();
        prop_assert!(failures.is_empty());
        finished.push(report);
    }
    let n = finished.len();
    for i in (1..n).rev() {
        let j = usize::try_from(splitmix64(seed ^ 0xa5a5, i as u64) % (i as u64 + 1)).unwrap();
        finished.swap(i, j);
    }
    let mut merged = AnalysisReport::default();
    for report in &finished {
        merged.merge(report);
    }
    prop_assert_eq!(
        serde_json::to_string_pretty(&merged).unwrap(),
        ref_bytes.clone()
    );

    if with_metrics {
        // The per-stream metrics, absorbed into one instance, must also
        // match the shared single-run counters byte-for-byte.
        let merged_metrics = PipelineMetrics::default();
        for m in stream_metrics.into_iter().flatten() {
            merged_metrics.absorb(&m.snapshot());
        }
        prop_assert_eq!(
            serde_json::to_string(&merged_metrics.snapshot()).unwrap(),
            serde_json::to_string(&ref_metrics.unwrap().snapshot()).unwrap()
        );
    }
    Ok(ref_bytes)
}

proptest! {
    /// Any interleaving of any batching of N pid-disjoint streams,
    /// merged in any completion order, is byte-identical to the batch
    /// analysis of their concatenation — with and without metrics, and
    /// the report bytes agree across the two metrics settings. The same
    /// holds with identifier and combination
    /// coverage on, and dropping those two fields gives the bytes of the
    /// run without them.
    #[test]
    fn interleaved_sessions_merge_byte_identical_to_batch(
        mut streams_and_sizes in proptest::collection::vec(stream_strategy(), 1..4),
        seed in any::<u64>(),
    ) {
        // Re-base pids so streams are disjoint, as per-process trace
        // streams are: stream k owns pids k*1000 .. k*1000+3.
        for (k, (events, _)) in streams_and_sizes.iter_mut().enumerate() {
            for (i, event) in events.iter_mut().enumerate() {
                event.pid = u32::try_from(k).unwrap() * 1000 + (i as u32 % 3);
            }
        }
        let streams: Vec<Vec<TraceEvent>> =
            streams_and_sizes.iter().map(|(e, _)| e.clone()).collect();
        let sizes: Vec<Vec<usize>> =
            streams_and_sizes.iter().map(|(_, s)| s.clone()).collect();
        let plain = check(&streams, &sizes, seed, false, false)?;
        prop_assert_eq!(&plain, &check(&streams, &sizes, seed, true, false)?);
        let extended = check(&streams, &sizes, seed, false, true)?;
        prop_assert_eq!(&extended, &check(&streams, &sizes, seed, true, true)?);
        let report: AnalysisReport = serde_json::from_str(&extended).unwrap();
        let report = AnalysisReport { identifiers: None, combos: None, ..report };
        prop_assert_eq!(plain, serde_json::to_string_pretty(&report).unwrap());
    }
}
