//! Resident `AnalysisSession::feed` vs batch `Driver`.
//!
//! The acceptance bar for the pipeline inversion: a caller-owned loop
//! (as in `suite-live`) against `Driver` must cost nothing measurable —
//! both drive the identical session over the identical source, so their
//! throughput must agree within 5%. Both paths must produce the
//! identical report (asserted before any timing). The measured rows are
//! recorded in the `serve` section of the `BENCH_repro.json` written by
//! `repro --full`.
//!
//! Set `BENCH_SMOKE=1` to run a single fast sample per path (the CI
//! smoke mode) instead of the full measurement windows.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iocov_bench::{
    analyze_iotb_batch_driver, analyze_iotb_session_feed, measure_serve_throughput, sample_trace,
};

fn bench_serve_throughput(c: &mut Criterion) {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let events = if smoke { 5_000 } else { 20_000 };

    // Print the best-of-three table (identical-report-asserted) and pin
    // the 5% parity bar outside Criterion's noise-tolerant statistics.
    let rows = measure_serve_throughput(events);
    for row in &rows {
        eprintln!(
            "[{:<12} {:>7} events — {:>10.0} events/s]",
            row.path, row.events, row.events_per_sec
        );
    }
    let feed = rows
        .iter()
        .find(|r| r.path == "session-feed")
        .expect("session-feed row");
    let driver = rows
        .iter()
        .find(|r| r.path == "batch-driver")
        .expect("batch-driver row");
    let ratio = feed.events_per_sec / driver.events_per_sec;
    eprintln!("[session-feed / batch-driver throughput ratio: {ratio:.3}]");
    // Smoke passes are a single short sample on a shared CI core, so
    // only enforce the parity bar on the real measurement windows.
    if !smoke {
        assert!(
            ratio > 0.95,
            "resident session feed fell more than 5% behind the batch driver \
             ({:.0} vs {:.0} events/s)",
            feed.events_per_sec,
            driver.events_per_sec
        );
    }

    let trace = sample_trace(events);
    let mut iotb = Vec::new();
    iocov_trace::write_iotb(&mut iotb, &trace).expect("serialize iotb");

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(if smoke { 2 } else { 10 });
    if smoke {
        group.measurement_time(Duration::from_millis(100));
    }
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("session_feed", |b| {
        b.iter(|| analyze_iotb_session_feed(&iotb));
    });
    group.bench_function("batch_driver", |b| {
        b.iter(|| analyze_iotb_batch_driver(&iotb));
    });
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
