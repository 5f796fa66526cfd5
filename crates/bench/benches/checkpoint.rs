//! Recovery-overhead benchmarks for the robustness layer.
//!
//! Three questions, answered against the same 100 k-event multi-process
//! trace:
//!
//! * what does periodic checkpointing cost the streaming scan, as a
//!   function of the checkpoint interval (`checkpointed_scan`),
//! * what does one `.iockpt` write/read cost in isolation, for a
//!   full-size end-of-trace document (`checkpoint_io`), and
//! * what does supervised recovery cost: a clean 4-shard session vs the
//!   same session with one injected panic on shard 0 — backoff and a
//!   restart from the shard's restore point (`supervised_recovery`).
//!
//! Measured numbers live in EXPERIMENTS.md §"Recovery overhead".

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iocov::{
    read_checkpoint, write_checkpoint, AnalysisReport, CheckpointDoc, MetricsSnapshot,
    PipelineBuilder, ShardHook, StreamingAnalyzer, SupervisorPolicy, TraceFilter,
};
use iocov_bench::multi_pid_trace;
use iocov_faults::DrillTrigger;
use iocov_trace::{CursorState, EventBatch};
use iocov_workloads::MOUNT;

/// The default policy's backoff (10 ms base) would dominate a
/// microbenchmark; recovery cost here means the restart, so the backoff
/// is shrunk to the scale the tests use.
fn fast_policy() -> SupervisorPolicy {
    SupervisorPolicy {
        max_restarts: 3,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(2),
        shard_timeout: None,
    }
}

/// A checkpoint document as the CLI would write it at this point in the
/// scan (the cursor is synthesized — benches feed events directly, not
/// through a JSONL reader).
fn checkpoint_doc(analyzer: &StreamingAnalyzer, events: u64) -> CheckpointDoc {
    CheckpointDoc {
        mount: Some(MOUNT.to_owned()),
        cursor: CursorState {
            byte_offset: events * 120,
            lines: events as usize,
            events,
            ..CursorState::default()
        },
        pid_states: analyzer.pid_states(),
        report: analyzer.report(),
        metrics: MetricsSnapshot::default(),
        format: iocov_trace::SourceFormat::Jsonl,
    }
}

fn bench_checkpoint(c: &mut Criterion) {
    let trace = multi_pid_trace(100_000, 8);
    let filter = TraceFilter::mount_point(MOUNT).expect("static mount pattern compiles");
    let path = std::env::temp_dir().join(format!("iocov-bench-{}.iockpt", std::process::id()));

    let mut group = c.benchmark_group("checkpointed_scan");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    group.bench_function("no_checkpoint", |b| {
        b.iter(|| {
            let mut analyzer = StreamingAnalyzer::new(filter.clone());
            analyzer.push_all(trace.events());
            analyzer.finish()
        });
    });
    for every in [50_000u64, 10_000, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("checkpoint_every", every),
            &every,
            |b, &every| {
                b.iter(|| {
                    let mut analyzer = StreamingAnalyzer::new(filter.clone());
                    let mut events = 0u64;
                    for event in trace.events() {
                        analyzer.push(event);
                        events += 1;
                        if events.is_multiple_of(every) {
                            write_checkpoint(&path, &checkpoint_doc(&analyzer, events))
                                .expect("checkpoint write");
                        }
                    }
                    analyzer.finish()
                });
            },
        );
    }
    group.finish();

    // One write/read of a full-size (end-of-trace) document.
    let mut analyzer = StreamingAnalyzer::new(filter.clone());
    analyzer.push_all(trace.events());
    let doc = checkpoint_doc(&analyzer, trace.len() as u64);
    let mut group = c.benchmark_group("checkpoint_io");
    group.sample_size(20);
    group.bench_function("write", |b| {
        b.iter(|| write_checkpoint(&path, &doc).expect("checkpoint write"));
    });
    write_checkpoint(&path, &doc).expect("checkpoint write");
    group.bench_function("read", |b| {
        b.iter(|| read_checkpoint(&path).expect("checkpoint read"));
    });
    group.finish();
    let _ = std::fs::remove_file(&path);

    let mut group = c.benchmark_group("supervised_recovery");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    // Packed once: the columnar copy handed to each session is shared
    // cost, not recovery cost.
    let batch = EventBatch::from_events(trace.events());
    let sharded = |hook: Option<ShardHook>| -> AnalysisReport {
        let mut builder = PipelineBuilder::new(filter.clone())
            .jobs(4)
            .policy(fast_policy());
        if let Some(hook) = hook {
            builder = builder.hook(hook);
        }
        let mut session = builder.build_session();
        session.feed(batch.clone());
        session.finish().0
    };
    group.bench_function("clean", |b| {
        b.iter(|| sharded(None));
    });
    group.bench_function("one_panic_restart", |b| {
        // A trigger disarms after firing, so each iteration arms a
        // fresh one: shard 0 panics on the session's one batch, and the
        // supervisor backs off and restarts it from its restore point.
        b.iter(|| {
            let trigger = DrillTrigger::new(0, 1);
            sharded(Some(Arc::new(move |shard, tick| {
                if shard == 0 && trigger.fire_from(tick) {
                    panic!("injected panic: shard {shard} at tick {tick}");
                }
            })))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
