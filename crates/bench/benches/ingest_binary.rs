//! JSONL vs compact binary (`.iotb`) trace ingestion.
//!
//! The bar for the binary container: decoding `.iotb` must stay faster
//! than the strict JSONL reader on the same trace. It used to clear 2×
//! easily, because every JSONL line went through a `serde_json` value
//! tree and owned strings. Canonical JSONL lines now decode straight
//! into batch columns too, so what `.iotb` still saves is tokenizing
//! text: its records are fixed-layout little-endian fields with
//! string-table symbols, at half the file size. Both whole-trace
//! readers here also build owned events at the end, which the two pay
//! alike. `repro --full` measured `.iotb` at 1.2–1.7× strict JSONL on a
//! 200K-event trace (2-vCPU VM); the rows are in `BENCH_repro.json` and
//! EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iocov_bench::sample_trace;
use iocov_trace::{read_iotb, read_jsonl, write_iotb, EventSource, IotbCursor, ReadOptions};

fn bench_ingest_binary(c: &mut Criterion) {
    let trace = sample_trace(20_000);
    let mut jsonl = Vec::new();
    iocov_trace::write_jsonl(&mut jsonl, &trace).expect("serialize jsonl");
    let mut iotb = Vec::new();
    write_iotb(&mut iotb, &trace).expect("serialize iotb");
    let options = ReadOptions::default();

    let mut group = c.benchmark_group("ingest_binary");
    group.sample_size(10);
    // Same trace either way, so throughput is in events, not bytes —
    // the containers differ in size by design.
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("jsonl_strict", |b| {
        b.iter(|| read_jsonl(&jsonl[..]).expect("clean parses"));
    });
    group.bench_function("iotb", |b| {
        b.iter(|| read_iotb(&iotb[..]).expect("clean parses"));
    });
    group.bench_function("iotb_lossy", |b| {
        b.iter(|| {
            IotbCursor::new(&iotb[..], options)
                .and_then(|mut source| source.read_all())
                .expect("clean parses")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ingest_binary);
criterion_main!(benches);
