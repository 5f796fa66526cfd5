//! Strict vs lossy JSONL ingestion.
//!
//! The lossy reader scans bytes line-by-line instead of trusting
//! `BufRead::lines`, so it pays a small per-line cost even on clean
//! input; this bench keeps that overhead honest and measures the
//! recovery path on a deterministically damaged stream.
//!
//! Throughput assertion: `lossy_clean` must stay within ~10% of
//! `strict_clean` bytes/sec (both drain the same cursor and differ only
//! in error policy), and the binary container measured in the
//! `ingest_binary` bench must decode faster than `strict_clean`'s
//! events/sec (that bench's header says why the margin is no longer
//! 2×). Both ratios are checked against recorded numbers in
//! EXPERIMENTS.md whenever the readers change; `repro --full`
//! re-measures them into `BENCH_repro.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iocov_bench::sample_trace;
use iocov_trace::{read_jsonl, EventSource, JsonlCursor, ReadOptions};
use iocov_workloads::corrupt_jsonl;

fn bench_ingest(c: &mut Criterion) {
    let trace = sample_trace(20_000);
    let mut clean = Vec::new();
    iocov_trace::write_jsonl(&mut clean, &trace).expect("serialize");
    let corrupt = corrupt_jsonl(std::str::from_utf8(&clean).expect("ascii"), 42).bytes;
    let options = ReadOptions::default();

    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(clean.len() as u64));
    group.bench_function("strict_clean", |b| {
        b.iter(|| read_jsonl(&clean[..]).expect("clean parses"));
    });
    group.bench_function("lossy_clean", |b| {
        b.iter(|| {
            JsonlCursor::new(&clean[..], options)
                .read_all()
                .expect("clean parses")
        });
    });
    group.throughput(Throughput::Bytes(corrupt.len() as u64));
    group.bench_function("lossy_corrupt", |b| {
        b.iter(|| {
            JsonlCursor::new(&corrupt[..], options)
                .read_all()
                .expect("lossy recovers")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
