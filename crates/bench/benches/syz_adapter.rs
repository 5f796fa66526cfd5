//! Syzkaller-log adapter throughput: parsing a fuzzer's program log
//! into a trace the standard pipeline analyzes.
//!
//! Not in perfbench: no workload parses a Syzkaller log.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iocov::syzlang::parse_to_trace;
use iocov_workloads::{SyzFuzzerSim, TestEnv};

fn bench_syz_adapter(c: &mut Criterion) {
    let env = TestEnv::new();
    let log = SyzFuzzerSim::new(3, 60, 12).run(&env);
    let mut group = c.benchmark_group("syz_adapter");
    group.throughput(Throughput::Elements(log.lines().count() as u64));
    group.bench_function("parse_log", |b| {
        b.iter(|| parse_to_trace(std::hint::black_box(&log)).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_syz_adapter);
criterion_main!(benches);
