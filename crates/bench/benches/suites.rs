//! End-to-end suite throughput: how fast the simulated testers and the
//! full trace→analysis pipeline run (the numbers behind the claim that a
//! paper-scale reproduction finishes in minutes).

use criterion::{criterion_group, criterion_main, Criterion};
use iocov::syzlang::parse_to_trace;
use iocov::Iocov;
use iocov_workloads::{CrashMonkeySim, SyzFuzzerSim, TestEnv, XfstestsSim, MOUNT};

fn bench_xfstests_chunk(c: &mut Criterion) {
    let mut group = c.benchmark_group("suites");
    group.sample_size(10);
    group.bench_function("xfstests_13_tests", |b| {
        b.iter(|| {
            let env = TestEnv::new();
            let sim = XfstestsSim::new(1, 0.01);
            let mut kernel = env.fresh_kernel();
            let result = sim.run_range(&mut kernel, 0..13);
            let trace = env.take_trace();
            (result.tests_run, trace.len())
        });
    });
    group.bench_function("crashmonkey_30_workloads", |b| {
        b.iter(|| {
            let env = TestEnv::new();
            // seq-1 ids 0..30 via a scaled run is not directly exposed;
            // run the generic portion small.
            let sim = CrashMonkeySim::new(1, 0.01);
            let result = sim.run(&env);
            (result.tests_run, env.take_trace().len())
        });
    });
    group.finish();
}

fn bench_pipeline_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("generate_trace_analyze", |b| {
        b.iter(|| {
            let env = TestEnv::new();
            let sim = XfstestsSim::new(2, 0.01);
            let mut kernel = env.fresh_kernel();
            let _ = sim.run_range(&mut kernel, 0..13);
            Iocov::with_mount_point(MOUNT)
                .unwrap()
                .analyze(&env.take_trace())
        });
    });
    group.finish();
}

fn bench_syz_adapter(c: &mut Criterion) {
    let env = TestEnv::new();
    let log = SyzFuzzerSim::new(3, 60, 12).run(&env);
    let mut group = c.benchmark_group("syz_adapter");
    group.throughput(criterion::Throughput::Elements(log.lines().count() as u64));
    group.bench_function("parse_log", |b| {
        b.iter(|| parse_to_trace(std::hint::black_box(&log)).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_xfstests_chunk,
    bench_pipeline_end_to_end,
    bench_syz_adapter
);
criterion_main!(benches);
