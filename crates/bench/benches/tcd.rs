//! Test Coverage Deviation computation cost: TCD evaluation, the
//! Figure 5 series, and the crossover solver.
//!
//! Not in perfbench: no workload computes a TCD.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iocov::tcd::{crossover, log_targets, tcd_series, tcd_uniform};

fn frequencies(n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| ((i * 7919 + 13) % 1_000_000) as u64)
        .collect()
}

fn bench_tcd(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcd");
    for &n in &[20usize, 100, 1000] {
        let freqs = frequencies(n);
        group.bench_with_input(BenchmarkId::new("uniform", n), &freqs, |b, freqs| {
            b.iter(|| tcd_uniform(std::hint::black_box(freqs), 5_237));
        });
    }
    group.finish();
}

fn bench_series_and_crossover(c: &mut Criterion) {
    let freqs_a = vec![50u64; 20];
    let freqs_b: Vec<u64> = (0..20)
        .map(|i| if i < 16 { 200_000 } else { 100 })
        .collect();
    let targets = log_targets(7, 10);
    let mut group = c.benchmark_group("tcd_figure5");
    group.bench_function("series_70_points", |b| {
        b.iter(|| tcd_series(std::hint::black_box(&freqs_a), &targets));
    });
    group.bench_function("crossover_bisect", |b| {
        b.iter(|| crossover(std::hint::black_box(&freqs_a), &freqs_b, 1, 10_000_000));
    });
    group.finish();
}

criterion_group!(benches, bench_tcd, bench_series_and_crossover);
criterion_main!(benches);
