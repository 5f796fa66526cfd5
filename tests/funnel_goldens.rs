//! Goldens for the `--metrics` funnel and the lossy skip ledger.
//!
//! Each golden under `fixtures/funnel/` is the pretty-printed
//! `MetricsSnapshot` of one run through `PipelineBuilder`, cut from a
//! build that counted the funnel event by event. The files are an oracle
//! for the counters that does not share their code: a run whose funnel
//! drifts from them (a drop counted under the wrong reason, a record
//! counted twice, a failed shard's counts kept) fails here.

use std::path::Path;
use std::sync::Arc;

use iocov::{
    PipelineBuilder, PipelineMetrics, PipelineRun, ShardHook, TraceFilter, PARALLEL_THRESHOLD,
};
use iocov_trace::{open_source, ErrorPolicy, ReadOptions, SourceOptions, TraceEvent};
use iocov_workloads::{CrashMonkeySim, TestEnv, XfstestsSim, MOUNT};

const SEED: u64 = 7;
const SCALE: f64 = 0.02;

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Asserts `actual` is the golden `fixtures/funnel/{name}` byte for
/// byte.
fn assert_golden(actual: &str, name: &str) {
    let golden = std::fs::read_to_string(fixture(&format!("funnel/{name}"))).unwrap();
    assert_eq!(actual, golden, "fixtures/funnel/{name}");
}

fn render(metrics: &PipelineMetrics) -> String {
    serde_json::to_string_pretty(&metrics.snapshot()).unwrap() + "\n"
}

/// Analyzes a fixture file through `open_source` and the batch driver,
/// under `mount` (or unfiltered), strict or lossy.
fn analyze_file(name: &str, mount: Option<&str>, lossy: bool) -> (PipelineRun, String) {
    let options = SourceOptions {
        read: ReadOptions {
            max_errors: None,
            on_error: if lossy {
                ErrorPolicy::Skip
            } else {
                ErrorPolicy::Abort
            },
        },
        ..SourceOptions::default()
    };
    let mut source = open_source(&fixture(name), options).unwrap();
    let metrics = Arc::new(PipelineMetrics::default());
    let run = PipelineBuilder::new(TraceFilter::for_mount(mount))
        .mount(mount.map(str::to_owned))
        .metrics(Arc::clone(&metrics))
        .build()
        .run(source.as_mut())
        .unwrap();
    assert!(run.failures.is_empty());
    (run, render(&metrics))
}

/// A small seeded CrashMonkey plus xfstests trace, tester noise
/// included.
fn suite_events() -> Vec<TraceEvent> {
    let env = TestEnv::new();
    let _ = CrashMonkeySim::new(SEED, SCALE).run(&env);
    let _ = XfstestsSim::new(SEED, SCALE).run(&env);
    env.take_trace().into_events()
}

/// Feeds `events` under the mount in batches of `PARALLEL_THRESHOLD`
/// events, so each batch is one tick of the shard.
fn suite_session(events: &[TraceEvent], hook: Option<ShardHook>) -> String {
    let metrics = Arc::new(PipelineMetrics::default());
    let mut builder = PipelineBuilder::new(TraceFilter::for_mount(Some(MOUNT)))
        .mount(Some(MOUNT.to_owned()))
        .metrics(Arc::clone(&metrics));
    if let Some(hook) = hook {
        builder = builder.hook(hook);
    }
    let mut session = builder.build_session();
    for batch in events.chunks(PARALLEL_THRESHOLD) {
        session.feed_owned(batch.to_vec());
    }
    let _ = session.finish();
    render(&metrics)
}

#[test]
fn whole_trace_funnel_matches_its_goldens() {
    let (_, unfiltered) = analyze_file("whole_trace.jsonl", None, false);
    assert_golden(&unfiltered, "whole_trace.metrics.json");
    let (_, mounted) = analyze_file("whole_trace.jsonl", Some("/mnt/test"), false);
    assert_golden(&mounted, "whole_trace-mount.metrics.json");
}

#[test]
fn corrupt_trace_funnel_and_skip_ledger_match_their_goldens() {
    let (run, metrics) = analyze_file("corrupt_trace.jsonl", None, true);
    assert_golden(&metrics, "corrupt_trace.metrics.json");
    // Rendered as `iocov analyze --lossy` prints it.
    let mut ledger = format!(
        "lossy ingest: {} malformed lines skipped\n",
        run.skipped.len()
    );
    for skip in &run.skipped {
        ledger += &format!("  {skip}\n");
    }
    let expected = std::fs::read_to_string(fixture("corrupt_trace.skips.txt")).unwrap();
    assert_eq!(ledger, expected);
}

#[test]
fn suite_funnels_match_their_goldens() {
    let events = suite_events();
    assert!(
        events.len() > 2 * PARALLEL_THRESHOLD,
        "{} events",
        events.len()
    );
    assert_golden(&suite_session(&events, None), "suites-mount.metrics.json");
    // The shard panics once, on its first batch: the restarted shard
    // goes on from the empty restore point, so the failed incarnation's
    // counts of that batch are not in the funnel.
    let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hook: ShardHook = Arc::new(move |tick| {
        if tick == 0 && !fired.swap(true, std::sync::atomic::Ordering::SeqCst) {
            panic!("injected golden panic at tick {tick}");
        }
    });
    assert_golden(
        &suite_session(&events, Some(hook)),
        "suites-panic-tick0.metrics.json",
    );
}
