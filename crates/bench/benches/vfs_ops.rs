//! In-memory file-system operation latency: the substrate must be fast
//! enough that paper-scale workloads (millions of syscalls) run in
//! seconds.
//!
//! Not in perfbench: it times the VFS only inside the simulators
//! (`workloads.simulate`), never one operation apart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iocov_vfs::{Mode, OpenFlags, Vfs, WriteSource};

fn bench_open_close(c: &mut Criterion) {
    let mut group = c.benchmark_group("vfs");
    let mut fs = Vfs::new();
    let pid = fs.default_pid();
    let fd = fs
        .open(
            pid,
            "/seed",
            OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
            Mode::from_bits(0o644),
        )
        .unwrap();
    fs.close(pid, fd).unwrap();
    group.bench_function("open_close_existing", |b| {
        b.iter(|| {
            let fd = fs
                .open(pid, "/seed", OpenFlags::O_RDONLY, Mode::from_bits(0))
                .unwrap();
            fs.close(pid, fd).unwrap();
        });
    });
    group.finish();
}

fn bench_write_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("vfs_write");
    for &size in &[256u64, 4096, 65_536] {
        group.throughput(Throughput::Bytes(size));
        group.bench_with_input(BenchmarkId::new("bytes", size), &size, |b, &size| {
            let mut fs = Vfs::new();
            let pid = fs.default_pid();
            let fd = fs
                .open(
                    pid,
                    "/f",
                    OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                    Mode::from_bits(0o644),
                )
                .unwrap();
            let buf = vec![7u8; size as usize];
            let mut offset = 0i64;
            b.iter(|| {
                fs.pwrite(pid, fd, WriteSource::Bytes(&buf), offset % (1 << 20))
                    .unwrap();
                offset += 4096;
            });
        });
    }
    // The constant-fill fast path at the paper's largest write size.
    group.throughput(Throughput::Bytes(258 * 1024 * 1024));
    group.bench_function("fill_258MiB", |b| {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        let fd = fs
            .open(
                pid,
                "/big",
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Mode::from_bits(0o644),
            )
            .unwrap();
        b.iter(|| {
            fs.pwrite(
                pid,
                fd,
                WriteSource::Fill {
                    byte: 1,
                    len: 258 * 1024 * 1024,
                },
                0,
            )
            .unwrap()
        });
    });
    group.finish();
}

fn bench_path_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("vfs_resolve");
    for &depth in &[1usize, 4, 16] {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        let mut path = String::new();
        for i in 0..depth {
            path.push_str(&format!("/d{i}"));
            fs.mkdir(pid, &path, Mode::from_bits(0o755)).unwrap();
        }
        let file = format!("{path}/leaf");
        let fd = fs
            .open(
                pid,
                &file,
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Mode::from_bits(0o644),
            )
            .unwrap();
        fs.close(pid, fd).unwrap();
        group.bench_with_input(BenchmarkId::new("stat_depth", depth), &file, |b, file| {
            b.iter(|| fs.stat(pid, std::hint::black_box(file)).unwrap());
        });
    }
    group.finish();
}

fn bench_crash_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("vfs_crash");
    group.bench_function("sync_crash_100_files", |b| {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        for i in 0..100 {
            let fd = fs
                .open(
                    pid,
                    &format!("/f{i}"),
                    OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                    Mode::from_bits(0o644),
                )
                .unwrap();
            fs.write(pid, fd, &[0u8; 512]).unwrap();
            fs.close(pid, fd).unwrap();
        }
        b.iter(|| {
            fs.sync();
            fs.crash();
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_open_close,
    bench_write_sizes,
    bench_path_resolution,
    bench_crash_recovery
);
criterion_main!(benches);
