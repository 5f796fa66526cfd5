//! Serial vs pid-sharded analysis on a multi-process trace.
//!
//! The trace mimics a paper-scale suite driven by several concurrent
//! tester processes ([`multi_pid_trace`]); a session at `jobs` shards
//! should approach a `jobs`-fold speedup because all filter state is
//! per-pid and the shards never synchronize until the final merge.
//!
//! The `chunked_*` group compares the two ways of feeding a chunked
//! stream to pid shards: the old spawn-per-chunk design (reconstructed
//! here with scoped threads over [`StreamingAnalyzer`] shards — one
//! thread spawn per shard *per chunk*) against the session's persistent
//! shard threads (one spawn per shard total, batches over bounded
//! channels). The session path includes the owned hand-off copy of each
//! chunk, since a persistent thread cannot borrow the caller's slice;
//! the spawn path scans the borrowed slice directly. Measured numbers
//! for both live in EXPERIMENTS.md (on one CPU all threads serialize,
//! so the comparison is overhead-only there).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iocov::{AnalysisReport, Iocov, PipelineBuilder, StreamingAnalyzer, TraceFilter};
use iocov_bench::multi_pid_trace;
use iocov_trace::{EventBatch, TraceEvent};
use iocov_workloads::MOUNT;

/// The pre-pool design: persistent shard *state*, but a fresh scoped
/// thread per shard for every chunk.
fn spawn_per_chunk(
    events: &[TraceEvent],
    filter: &TraceFilter,
    workers: usize,
    chunk: usize,
) -> AnalysisReport {
    let mut shards: Vec<StreamingAnalyzer> = (0..workers)
        .map(|_| StreamingAnalyzer::new(filter.clone()))
        .collect();
    for chunk_events in events.chunks(chunk) {
        std::thread::scope(|scope| {
            for (w, shard) in shards.iter_mut().enumerate() {
                scope.spawn(move || {
                    for event in chunk_events {
                        if event.pid as usize % workers == w {
                            shard.push(event);
                        }
                    }
                });
            }
        });
    }
    let mut merged = AnalysisReport::default();
    for shard in shards {
        merged.merge(&shard.finish());
    }
    merged
}

/// A session's persistent shard threads fed owned chunks (the hand-off
/// copy is part of the measurement).
fn persistent_pool(
    events: &[TraceEvent],
    filter: &TraceFilter,
    workers: usize,
    chunk: usize,
) -> AnalysisReport {
    let mut session = PipelineBuilder::new(filter.clone())
        .jobs(workers)
        .build_session();
    for chunk_events in events.chunks(chunk) {
        session.feed_owned(chunk_events.to_vec());
    }
    session.finish().0
}

fn bench_parallel(c: &mut Criterion) {
    let trace = multi_pid_trace(200_000, 8);
    let filter = TraceFilter::mount_point(MOUNT).expect("static mount pattern compiles");
    let mut group = c.benchmark_group("parallel_analysis");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    group.bench_function("serial", |b| {
        let iocov = Iocov::with_filter(filter.clone());
        b.iter(|| iocov.analyze(&trace));
    });
    // Packed once: every session gets the same columnar copy.
    let batch = EventBatch::from_events(trace.events());
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("sharded", workers), &workers, |b, _| {
            b.iter(|| {
                let mut session = PipelineBuilder::new(filter.clone())
                    .jobs(workers)
                    .build_session();
                session.feed(batch.clone());
                session.finish().0
            });
        });
    }
    group.finish();

    // Spawn-per-chunk vs persistent pool at every chunk size a real
    // producer might hand over: tiny (pure coalescing), the dispatch
    // threshold, and large batches.
    let mut group = c.benchmark_group("chunked_feed");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    let workers = 4;
    for chunk in [64usize, 1024, 8192, 65536] {
        group.bench_with_input(
            BenchmarkId::new("spawn_per_chunk", chunk),
            &chunk,
            |b, &chunk| {
                b.iter(|| spawn_per_chunk(trace.events(), &filter, workers, chunk));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("persistent_pool", chunk),
            &chunk,
            |b, &chunk| {
                b.iter(|| persistent_pool(trace.events(), &filter, workers, chunk));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
