//! Serial vs pid-sharded analysis on a multi-process trace.
//!
//! The trace mimics a paper-scale suite driven by several concurrent
//! tester processes ([`multi_pid_trace`]); a session at `jobs` shards
//! should approach a `jobs`-fold speedup because all filter state is
//! per-pid and the shards never synchronize until the final merge.
//!
//! Not in perfbench: its batch workloads analyze at `--jobs 1`, so only
//! this bench times sessions at 2–8 shards.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iocov::{Iocov, PipelineBuilder, TraceFilter};
use iocov_bench::multi_pid_trace;
use iocov_trace::EventBatch;
use iocov_workloads::MOUNT;

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
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
