//! Goldens for the `--metrics` funnel and the lossy skip ledger.
//!
//! Each golden under `fixtures/funnel/` is the pretty-printed
//! `MetricsSnapshot` of one run through `PipelineBuilder`, cut from a
//! build that counted the funnel event by event. The files are an oracle
//! for the counters that does not share their code: a run whose funnel
//! drifts from them (a drop counted under the wrong reason, a record
//! counted twice, a failed shard's counts kept, a checkpoint that lost
//! the counts before its cut) fails here.

use std::path::Path;
use std::sync::Arc;

use iocov::{
    read_checkpoint, CheckpointDoc, CheckpointPolicy, PipelineBuilder, PipelineMetrics,
    PipelineRun, ShardHook, TraceFilter, PARALLEL_THRESHOLD,
};
use iocov_trace::{
    open_source, ErrorPolicy, EventSource, ReadOptions, SourceOptions, SourcePos, TraceEvent,
};
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

/// Opens a fixture file through `open_source`, strict or lossy, at its
/// start or at a checkpoint's cursor.
fn open(name: &str, lossy: bool, resume: Option<&CheckpointDoc>) -> Box<dyn EventSource> {
    let options = SourceOptions {
        read: ReadOptions {
            max_errors: None,
            on_error: if lossy {
                ErrorPolicy::Skip
            } else {
                ErrorPolicy::Abort
            },
        },
        resume: resume.map(|doc| SourcePos {
            format: doc.format,
            state: doc.cursor.clone(),
        }),
        ..SourceOptions::default()
    };
    open_source(&fixture(name), options).unwrap()
}

/// A pipeline under `mount` (or unfiltered).
fn builder(mount: Option<&str>) -> PipelineBuilder {
    PipelineBuilder::new(TraceFilter::for_mount(mount)).mount(mount.map(str::to_owned))
}

/// Analyzes a fixture file through the batch driver, under `mount` (or
/// unfiltered), strict or lossy.
fn analyze_file(name: &str, mount: Option<&str>, lossy: bool) -> (PipelineRun, String) {
    let metrics = Arc::new(PipelineMetrics::default());
    let run = builder(mount)
        .metrics(Arc::clone(&metrics))
        .build()
        .run(open(name, lossy, None).as_mut())
        .unwrap();
    assert!(run.failures.is_empty());
    (run, render(&metrics))
}

/// Kills a run over a fixture file after `stop` events, checkpointing
/// every `every` events and sharing no metrics, then resumes it from its
/// checkpoint sharing fresh metrics: the resumed run's funnel.
fn resumed_funnel(name: &str, mount: Option<&str>, lossy: bool, every: u64, stop: u64) -> String {
    let path = std::env::temp_dir().join(format!(
        "iocov-funnel-goldens-{}-{name}.iockpt",
        std::process::id()
    ));
    let killed = builder(mount)
        .checkpoint(CheckpointPolicy {
            every,
            path: path.clone(),
        })
        .stop_after(stop)
        .build()
        .run(open(name, lossy, None).as_mut())
        .unwrap();
    assert!(killed.stopped);
    let doc = read_checkpoint(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("iockpt.prev"));
    assert_eq!(doc.cursor.events, stop - stop % every);
    let mut source = open(name, lossy, Some(&doc));
    let metrics = Arc::new(PipelineMetrics::default());
    let resumed = builder(mount)
        .metrics(Arc::clone(&metrics))
        .resume(doc)
        .build()
        .run(source.as_mut())
        .unwrap();
    assert!(resumed.failures.is_empty());
    render(&metrics)
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
fn a_run_killed_without_shared_metrics_resumes_to_the_golden_funnel() {
    // Every session counts, so the checkpoint a run cut without shared
    // metrics carries the funnel up to its cut, and the resumed run
    // ends at the uninterrupted run's counts.
    assert_golden(
        &resumed_funnel("whole_trace.jsonl", Some("/mnt/test"), false, 5, 12),
        "whole_trace-mount.metrics.json",
    );
    assert_golden(
        &resumed_funnel("corrupt_trace.jsonl", None, true, 2, 3),
        "corrupt_trace.metrics.json",
    );
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
