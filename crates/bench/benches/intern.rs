//! String-interner hot paths.
//!
//! The `.iotb` reader and writer intern every event name and path they
//! see, so the dominant operation by far is `intern` of an
//! *already-present* string (the read-lock fast path); misses and
//! `resolve` are measured for completeness. A realistic key set is
//! small — a few dozen syscall names and hot paths — so the hit bench
//! cycles through 64 keys.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iocov_trace::StrInterner;

fn bench_intern(c: &mut Criterion) {
    let keys: Vec<String> = (0..64).map(|i| format!("syscall_name_{i}")).collect();

    let mut group = c.benchmark_group("intern");
    group.sample_size(10);
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("hit", |b| {
        let interner = StrInterner::new();
        for key in &keys {
            interner.intern(key);
        }
        b.iter(|| {
            for key in &keys {
                std::hint::black_box(interner.intern(key));
            }
        });
    });
    group.bench_function("miss", |b| {
        // Fresh interner per pass: every intern takes the write path.
        b.iter(|| {
            let interner = StrInterner::new();
            for key in &keys {
                std::hint::black_box(interner.intern(key));
            }
        });
    });
    group.bench_function("resolve", |b| {
        let interner = StrInterner::new();
        let syms: Vec<_> = keys.iter().map(|k| interner.intern(k)).collect();
        b.iter(|| {
            for sym in &syms {
                std::hint::black_box(interner.resolve(*sym));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_intern);
criterion_main!(benches);
