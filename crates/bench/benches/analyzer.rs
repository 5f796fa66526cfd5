//! Analyzer throughput: events per second through the full IOCov
//! pipeline (filter → variant merge → partition → count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iocov::Iocov;
use iocov_bench::sample_trace;

fn bench_analyzer(c: &mut Criterion) {
    let mut group = c.benchmark_group("analyzer");
    for &events in &[1_000usize, 10_000, 50_000] {
        let trace = sample_trace(events);
        group.throughput(Throughput::Elements(trace.len() as u64));
        let filtered = Iocov::with_mount_point("/mnt/test").unwrap();
        group.bench_with_input(BenchmarkId::new("filtered", events), &trace, |b, trace| {
            b.iter(|| filtered.analyze(std::hint::black_box(trace)))
        });
        let unfiltered = Iocov::new();
        group.bench_with_input(
            BenchmarkId::new("unfiltered", events),
            &trace,
            |b, trace| b.iter(|| unfiltered.analyze(std::hint::black_box(trace))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_analyzer);
criterion_main!(benches);
