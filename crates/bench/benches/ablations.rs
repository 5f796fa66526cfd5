//! Ablations for the design choices DESIGN.md calls out:
//!
//! * trace filter on/off — how much tester noise would contaminate
//!   coverage without mount-point filtering;
//! * variant merging on/off — how much coverage fragments when
//!   `openat`/`creat`/`openat2` are counted separately from `open`;
//! * log-scale vs linear TCD — the paper's rationale for logarithms;
//! * power-of-two vs fixed-width numeric partitioning.
//!
//! Not in perfbench: its workloads run one configuration and never turn
//! the filter, variant merging or log2 partitioning off.

use criterion::{criterion_group, criterion_main, Criterion};
use iocov::{ArgName, Iocov, NumericPartition, Sysno};
use iocov_bench::sample_trace;

fn bench_filter_ablation(c: &mut Criterion) {
    let trace = sample_trace(20_000);
    let mut group = c.benchmark_group("ablation_filter");
    let with = Iocov::with_mount_point("/mnt/test").unwrap();
    let without = Iocov::new();
    // Correctness side of the ablation, asserted once outside the timing
    // loop: the unfiltered report counts noise events as coverage.
    let r_with = with.analyze(&trace);
    let r_without = without.analyze(&trace);
    assert!(
        r_without.total_calls() > r_with.total_calls(),
        "without filtering, tester noise inflates coverage"
    );
    group.bench_function("with_filter", |b| b.iter(|| with.analyze(&trace)));
    group.bench_function("without_filter", |b| b.iter(|| without.analyze(&trace)));
    group.finish();
}

fn bench_variant_merging_ablation(c: &mut Criterion) {
    let trace = sample_trace(20_000);
    let mut group = c.benchmark_group("ablation_variants");
    // Merged: the shipped pipeline.
    group.bench_function("merged", |b| {
        let iocov = Iocov::new();
        b.iter(|| iocov.analyze(&trace));
    });
    // Unmerged: count per concrete variant name (what a tool without a
    // variant handler would report) — fragmentation measured as the
    // number of distinct (variant, partition) cells instead of
    // (base, partition).
    group.bench_function("unmerged", |b| {
        b.iter(|| {
            let mut per_variant: std::collections::BTreeMap<String, u64> =
                std::collections::BTreeMap::new();
            for event in &trace {
                if Sysno::from_name(&event.name).is_some() {
                    *per_variant.entry(event.name.clone()).or_insert(0) += 1;
                }
            }
            per_variant
        });
    });
    group.finish();
}

fn bench_tcd_scale_ablation(c: &mut Criterion) {
    // Log-scale (the paper's choice) vs linear RMSD.
    let freqs: Vec<u64> = (0..20).map(|i| (i * i * 1000) as u64).collect();
    let targets = vec![5_237u64; 20];
    let mut group = c.benchmark_group("ablation_tcd_scale");
    group.bench_function("log_rmsd", |b| {
        b.iter(|| iocov::tcd::tcd(std::hint::black_box(&freqs), &targets));
    });
    group.bench_function("linear_rmsd", |b| {
        b.iter(|| {
            let sum: f64 = freqs
                .iter()
                .zip(&targets)
                .map(|(&f, &t)| {
                    let d = f as f64 - t as f64;
                    d * d
                })
                .sum();
            (sum / freqs.len() as f64).sqrt()
        });
    });
    group.finish();
}

fn bench_partitioning_ablation(c: &mut Criterion) {
    // Powers-of-two (the paper's choice: boundaries common in file
    // systems) vs fixed-width 4 KiB bins.
    let sizes: Vec<u64> = (0..100_000u64)
        .map(|i| (i * 2654435761) % (1 << 28))
        .collect();
    let mut group = c.benchmark_group("ablation_partitioning");
    group.bench_function("pow2_buckets", |b| {
        b.iter(|| {
            let mut counts = std::collections::BTreeMap::new();
            for &s in &sizes {
                *counts
                    .entry(NumericPartition::of(i128::from(s)))
                    .or_insert(0u64) += 1;
            }
            counts
        });
    });
    group.bench_function("fixed_4k_bins", |b| {
        b.iter(|| {
            let mut counts = std::collections::BTreeMap::new();
            for &s in &sizes {
                *counts.entry(s / 4096).or_insert(0u64) += 1;
            }
            counts
        });
    });
    // Outside the timing loop: the fixed-width scheme needs 65k bins for
    // the same range that pow2 covers with 29 — the paper's reason for
    // log-scale partitions.
    let pow2_bins = sizes
        .iter()
        .map(|&s| NumericPartition::of(i128::from(s)))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let fixed_bins = sizes
        .iter()
        .map(|&s| s / 4096)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert!(pow2_bins < 32);
    assert!(fixed_bins > 10_000);
    let _ = ArgName::WriteCount;
    group.finish();
}

criterion_group!(
    benches,
    bench_filter_ablation,
    bench_variant_merging_ablation,
    bench_tcd_scale_ablation,
    bench_partitioning_ablation
);
criterion_main!(benches);
