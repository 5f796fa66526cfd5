//! Builder-path overhead: a [`PipelineBuilder`] session at one job
//! versus a bare [`StreamingAnalyzer`] loop over the same events.
//!
//! The session adds an `Arc` per batch, a bounded queue to its shard
//! thread, and a restore-point clone of the analyzer at finish on top of
//! the raw scan. The design target is that this overhead stays under 2%
//! at realistic batch sizes, but no code asserts it: the bench prints
//! both timings and passes whatever they are. Nor can a shared 2-vCPU
//! host resolve 2%: `builder/N` over `direct/N` read 0.91–1.57 across
//! runs there. Both paths are handed freshly owned batches — in the
//! real pipeline events arrive already owned from the decoder, so the
//! copy is shared cost, not builder overhead. Run with
//! `cargo bench --bench pipeline_builder` and compare `direct/N` to
//! `builder/N` per batch size.
//!
//! Not in perfbench: it has no bare-analyzer baseline to hold the
//! session against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iocov::{AnalysisReport, PipelineBuilder, StreamingAnalyzer, TraceFilter};
use iocov_bench::sample_trace;
use iocov_trace::TraceEvent;
use iocov_workloads::MOUNT;

fn filter() -> TraceFilter {
    TraceFilter::mount_point(MOUNT).expect("static mount pattern compiles")
}

/// The baseline: feed the analyzer directly, no supervision, no log.
fn direct(events: &[TraceEvent], chunk: usize) -> AnalysisReport {
    let mut analyzer = StreamingAnalyzer::new(filter());
    for batch in events.chunks(chunk) {
        let owned = batch.to_vec();
        for event in &owned {
            analyzer.push(event);
        }
    }
    analyzer.finish()
}

/// The session at one job: the same owned batches through its shard
/// thread's supervised scan.
fn builder_serial(events: &[TraceEvent], chunk: usize) -> AnalysisReport {
    let mut session = PipelineBuilder::new(filter()).build_session();
    for batch in events.chunks(chunk) {
        session.feed_owned(batch.to_vec());
    }
    session.finish().0
}

fn bench_pipeline_builder(c: &mut Criterion) {
    let trace = sample_trace(20_000);
    let events = trace.events();

    let mut group = c.benchmark_group("direct_vs_builder");
    group.throughput(Throughput::Elements(events.len() as u64));
    for chunk in [1024usize, 4096] {
        group.bench_with_input(BenchmarkId::new("direct", chunk), &chunk, |b, &chunk| {
            b.iter(|| direct(events, chunk))
        });
        group.bench_with_input(BenchmarkId::new("builder", chunk), &chunk, |b, &chunk| {
            b.iter(|| builder_serial(events, chunk))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline_builder);
criterion_main!(benches);
