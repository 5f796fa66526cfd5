//! Tracing overhead: the cost the LTTng-substitute recorder adds to each
//! syscall — the paper's choice of LTTng was motivated by low overhead,
//! so the substitute should be cheap too.
//!
//! Not in perfbench: it times the recorder's drain
//! (`trace.recorder.take`), not the per-syscall cost of recording with
//! the recorder attached against detached.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iocov_syscalls::Kernel;
use iocov_trace::Recorder;

/// One open/write/read/close cycle.
fn cycle(kernel: &mut Kernel, i: u64) {
    let path = format!("/f{}", i % 32);
    let fd = kernel.open(&path, 0o102 | 0o100, 0o644);
    if fd >= 0 {
        let fd = fd as i32;
        kernel.write(fd, &[0u8; 256]);
        kernel.pread64(fd, 256, 0);
        kernel.close(fd);
    }
}

fn bench_tracing_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracing");
    group.throughput(Throughput::Elements(4)); // syscalls per cycle

    group.bench_function("untraced", |b| {
        let mut kernel = Kernel::new();
        let mut i = 0;
        b.iter(|| {
            cycle(&mut kernel, i);
            i += 1;
        });
    });

    group.bench_function("traced_unbounded", |b| {
        let mut kernel = Kernel::new();
        let recorder = Arc::new(Recorder::new());
        kernel.attach_recorder(Arc::clone(&recorder));
        let mut i = 0;
        b.iter(|| {
            cycle(&mut kernel, i);
            i += 1;
            if recorder.len() > 1_000_000 {
                let _ = recorder.take();
            }
        });
    });

    group.bench_function("traced_ring_64k", |b| {
        let mut kernel = Kernel::new();
        let recorder = Arc::new(Recorder::with_capacity(65_536));
        kernel.attach_recorder(Arc::clone(&recorder));
        let mut i = 0;
        b.iter(|| {
            cycle(&mut kernel, i);
            i += 1;
        });
    });

    group.finish();
}

fn bench_serialization(c: &mut Criterion) {
    let trace = iocov_bench::sample_trace(10_000);
    let mut group = c.benchmark_group("serialization");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("write_jsonl", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(1 << 20);
            iocov_trace::write_jsonl(&mut buf, std::hint::black_box(&trace)).unwrap();
            buf
        });
    });
    let mut encoded = Vec::new();
    iocov_trace::write_jsonl(&mut encoded, &trace).unwrap();
    group.bench_function("read_jsonl", |b| {
        b.iter(|| iocov_trace::read_jsonl(std::hint::black_box(&encoded[..])).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_tracing_overhead, bench_serialization);
criterion_main!(benches);
