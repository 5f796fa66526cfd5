//! The xfstests simulator: 706 generic + 308 ext4 hand-written-style
//! regression tests.
//!
//! Each simulated test is a deterministic program (seeded by suite seed
//! and test id) drawn from one of the families real xfstests tests fall
//! into: bulk data I/O with verification, error-path probes, xattr
//! exercises, namespace churn, boundary probes, permission checks,
//! syscall-variant usage, durability tests, and large/sparse files. The
//! op mix is calibrated by [`crate::profile::xfstests_profile`] so the
//! aggregate trace reproduces the paper's Figures 2–4 and Table 1 for
//! the xfstests columns.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use iocov_syscalls::Kernel;
use iocov_vfs::Pid;

use crate::env::{emit_noise, TestEnv, MOUNT};
use crate::profile::{anchors, xfstests_profile, SuiteProfile};
use crate::sampler::{sample_open_flags, sample_size};
use crate::SuiteResult;

/// Number of simulated generic tests (the paper ran 706).
pub const GENERIC_TESTS: usize = 706;
/// Number of simulated ext4-specific tests (the paper ran 308).
pub const EXT4_TESTS: usize = 308;

/// 256 KiB: the largest write a test reads back or issues from a
/// materialized buffer (the `writev` variants, the durability journal,
/// the verified `pwrite64`s). Constant-byte writes themselves go through
/// the fill path at any size.
const MAX_BUFFERED_WRITE: u64 = 256 * 1024;

/// The xfstests suite simulator.
#[derive(Debug, Clone)]
pub struct XfstestsSim {
    seed: u64,
    scale: f64,
    profile: SuiteProfile,
}

impl XfstestsSim {
    /// Creates a simulator. `scale` multiplies per-test operation counts
    /// (1.0 reproduces paper-scale volumes; tests use ~0.01).
    #[must_use]
    pub fn new(seed: u64, scale: f64) -> Self {
        XfstestsSim {
            seed,
            scale,
            profile: xfstests_profile(),
        }
    }

    /// Total number of simulated tests.
    #[must_use]
    pub fn total_tests(&self) -> usize {
        GENERIC_TESTS + EXT4_TESTS
    }

    /// Runs the whole suite on a fresh kernel from `env`.
    #[must_use]
    pub fn run(&self, env: &TestEnv) -> SuiteResult {
        let mut kernel = env.fresh_kernel();
        self.run_range(&mut kernel, 0..self.total_tests())
    }

    /// Runs a contiguous range of tests on an existing kernel; callers
    /// chunk a full run this way and drain the recorder between chunks
    /// to bound memory.
    #[must_use]
    pub fn run_range(&self, kernel: &mut Kernel, range: std::ops::Range<usize>) -> SuiteResult {
        let mut result = SuiteResult::new("xfstests");
        for id in range {
            let mut rng = StdRng::seed_from_u64(self.seed ^ (id as u64).wrapping_mul(0x9e37_79b9));
            self.run_test(kernel, id, &mut rng, &mut result);
            result.tests_run += 1;
        }
        result
    }

    /// The test's name, xfstests-style (`generic/123` or `ext4/045`).
    #[must_use]
    pub fn test_name(&self, id: usize) -> String {
        if id < GENERIC_TESTS {
            format!("generic/{id:03}")
        } else {
            format!("ext4/{:03}", id - GENERIC_TESTS)
        }
    }

    fn scaled(&self, base: u64) -> u64 {
        ((base as f64 * self.scale).round() as u64).max(1)
    }

    fn run_test(&self, kernel: &mut Kernel, id: usize, rng: &mut StdRng, result: &mut SuiteResult) {
        let dir = format!("{MOUNT}/t{id:04}");
        kernel.mkdir(&dir, 0o755);
        emit_noise(kernel, id);
        match id % 13 {
            0..=4 => self.data_rw_test(kernel, &dir, id, rng, result),
            5 => self.error_path_test(kernel, &dir, id, rng),
            6 => self.xattr_test(kernel, &dir, id, rng, result),
            7 => self.namespace_test(kernel, &dir, id, rng),
            8 => self.boundary_test(kernel, &dir, id, rng, result),
            9 => self.permission_test(kernel, &dir, rng),
            10 => self.variant_test(kernel, &dir, id, rng),
            11 => self.durability_test(kernel, &dir, id, rng, result),
            _ => self.bigfile_test(kernel, &dir, id, rng, result),
        }
        // Teardown: remove the test directory so the fs stays small.
        self.remove_tree(kernel, &dir);
    }

    fn remove_tree(&self, kernel: &mut Kernel, dir: &str) {
        let entries = {
            let pid = kernel.current();
            kernel.vfs_mut().readdir(pid, dir).unwrap_or_default()
        };
        for name in entries {
            let path = format!("{dir}/{name}");
            if kernel.unlink(&path) != 0 {
                self.remove_tree(kernel, &path);
            }
        }
        kernel.rmdir(dir);
    }

    /// Opens with profile-sampled flags, returning the fd (< 0 on
    /// error). Hand-written tests use `O_DIRECTORY` deliberately on
    /// directories, so a sampled combination containing it is aimed at
    /// the test directory instead of the data file.
    fn profiled_open(&self, kernel: &mut Kernel, rng: &mut StdRng, dir: &str, path: &str) -> i64 {
        let flags = sample_open_flags(rng, &self.profile.open);
        if flags & 0o200000 != 0 {
            // O_DIRECTORY: target the directory. Creation/truncation
            // flags make no sense on a directory; substitute harmless
            // flags of equal count so the sampled combination size (and
            // thus Table 1) is preserved.
            let mut flags = flags;
            for (bad, substitute) in [
                (0o100, 0o2000000u32), // O_CREAT  -> O_CLOEXEC
                (0o1000, 0o400000),    // O_TRUNC  -> O_NOFOLLOW
                (0o200, 0o4000),       // O_EXCL   -> O_NONBLOCK
            ] {
                if flags & bad != 0 {
                    flags = (flags & !bad) | substitute;
                }
            }
            return kernel.open(dir, flags, 0);
        }
        kernel.open(path, flags, 0o644)
    }

    /// Writes `len` profile bytes at the descriptor offset and verifies
    /// the write's visible effects (a regression suite checks its I/O).
    fn checked_write(
        &self,
        kernel: &mut Kernel,
        fd: i32,
        len: u64,
        test: &str,
        result: &mut SuiteResult,
    ) {
        let ret = kernel.write_fill(fd, 0x5a, len);
        if ret >= 0 && ret as u64 != len {
            result
                .failures
                .push(format!("{test}: short write {ret} of {len}"));
        }
    }

    fn data_rw_test(
        &self,
        kernel: &mut Kernel,
        dir: &str,
        id: usize,
        rng: &mut StdRng,
        result: &mut SuiteResult,
    ) {
        let test = self.test_name(id);
        let iterations = self.scaled(rng.random_range(4_500..21_000));
        let file_count = rng.random_range(2..6);
        let files: Vec<String> = (0..file_count).map(|i| format!("{dir}/data{i}")).collect();
        // Create the working set.
        for f in &files {
            let fd = kernel.open(f, 0o102 | 0o100, 0o644); // O_CREAT|O_RDWR
            if fd >= 0 {
                kernel.close(fd as i32);
            }
        }
        for it in 0..iterations {
            let f = &files[(it as usize) % files.len()];
            let fd = self.profiled_open(kernel, rng, dir, f);
            if fd < 0 {
                continue;
            }
            let fd = fd as i32;
            let len = sample_size(rng, &self.profile.write_size);
            match rng.random_range(0..10u32) {
                // Positional writes with occasional verification.
                0..=3 => {
                    let offset = rng.random_range(0i64..1 << 20);
                    let ret = kernel.pwrite64_fill(fd, 0xa5, len, offset);
                    if len <= MAX_BUFFERED_WRITE && ret >= 0 && it % 16 == 0 {
                        let check = kernel.pread64(fd, len, offset);
                        if check >= 0 && check != ret {
                            result
                                .failures
                                .push(format!("{test}: pread returned {check}, pwrite {ret}"));
                        }
                    }
                }
                4..=6 => self.checked_write(kernel, fd, len, &test, result),
                7 => {
                    let rlen = sample_size(rng, &self.profile.read_size);
                    kernel.read_discard(fd, rlen);
                }
                8 => {
                    let rlen = sample_size(rng, &self.profile.read_size);
                    kernel.pread64(fd, rlen, rng.random_range(0i64..1 << 20));
                }
                _ => {
                    let whence = rng.random_range(0..3u32);
                    kernel.lseek(fd, rng.random_range(0i64..1 << 16), whence);
                }
            }
            kernel.close(fd);
        }
        // Trim files back so charged space stays bounded.
        for f in &files {
            kernel.truncate(f, 0);
        }
    }

    fn error_path_test(&self, kernel: &mut Kernel, dir: &str, id: usize, rng: &mut StdRng) {
        let repeats = self.scaled(40);
        for _ in 0..repeats {
            // ENOENT / ENOTDIR / EISDIR / EEXIST probes.
            kernel.open(
                &format!("{dir}/missing-{}", rng.random_range(0..100u32)),
                0,
                0,
            );
            kernel.creat(&format!("{dir}/f"), 0o644);
            kernel.open(&format!("{dir}/f"), 0o301, 0o644); // O_CREAT|O_EXCL → EEXIST
            kernel.open(dir, 1, 0); // EISDIR
            kernel.unlink(&format!("{dir}/f"));
        }
        // One ENOTDIR probe per test: hand-written suites rarely treat a
        // file as a directory (black-box CrashMonkey does it constantly,
        // which is why it beats xfstests on this one errno in Figure 4).
        kernel.creat(&format!("{dir}/plain"), 0o644);
        kernel.open(&format!("{dir}/plain/deeper"), 0, 0);
        // Rotating hard-to-hit recipes.
        match id % 11 {
            0 => {
                // ELOOP: symlink cycle.
                kernel.symlink(&format!("{dir}/s2"), &format!("{dir}/s1"));
                kernel.symlink(&format!("{dir}/s1"), &format!("{dir}/s2"));
                kernel.open(&format!("{dir}/s1"), 0, 0);
                kernel.unlink(&format!("{dir}/s1"));
                kernel.unlink(&format!("{dir}/s2"));
            }
            1 => {
                // ENAMETOOLONG.
                let long = "x".repeat(300);
                kernel.open(&format!("{dir}/{long}"), 0o101, 0o644);
                kernel.mkdir(&format!("{dir}/{long}"), 0o755);
            }
            2 => {
                // EROFS: remount read-only and poke.
                if kernel.vfs_mut().remount(true).is_ok() {
                    kernel.open(&format!("{dir}/ro"), 0o101, 0o644);
                    kernel.mkdir(&format!("{dir}/rod"), 0o755);
                    kernel.truncate(dir, 0);
                    let _ = kernel.vfs_mut().remount(false);
                }
            }
            3 => {
                // ETXTBSY: write to a "running" binary.
                kernel.creat(&format!("{dir}/prog"), 0o755);
                let pid = kernel.current();
                let _ = kernel
                    .vfs_mut()
                    .set_executing(pid, &format!("{dir}/prog"), true);
                kernel.open(&format!("{dir}/prog"), 1, 0);
                kernel.truncate(&format!("{dir}/prog"), 0);
                let pid = kernel.current();
                let _ = kernel
                    .vfs_mut()
                    .set_executing(pid, &format!("{dir}/prog"), false);
            }
            4 => {
                // EOVERFLOW: 32-bit compat open of a >2 GiB sparse file.
                let big = format!("{dir}/big");
                let fd = kernel.open(&big, 0o101, 0o644);
                if fd >= 0 {
                    kernel.ftruncate(fd as i32, (1 << 31) + 4096);
                    kernel.close(fd as i32);
                }
                let pid = kernel.current();
                kernel.vfs_mut().set_compat_32bit(pid, true);
                kernel.open(&big, 0, 0);
                kernel.open(&big, 0o100000, 0); // O_LARGEFILE path would succeed…
                let pid = kernel.current();
                kernel.vfs_mut().set_compat_32bit(pid, false);
            }
            5 => {
                // ENXIO / EAGAIN / ESPIPE on a FIFO.
                let pid = kernel.current();
                let fifo = format!("{dir}/pipe");
                let _ = kernel
                    .vfs_mut()
                    .mkfifo(pid, &fifo, iocov_vfs::Mode::from_bits(0o644));
                kernel.open(&fifo, 0o4001, 0); // O_WRONLY|O_NONBLOCK → ENXIO
                let rd = kernel.open(&fifo, 0o4000, 0); // O_RDONLY|O_NONBLOCK
                if rd >= 0 {
                    kernel.read_discard(rd as i32, 64); // EAGAIN
                    kernel.lseek(rd as i32, 0, 0); // ESPIPE
                    kernel.close(rd as i32);
                }
            }
            6 => {
                // EBUSY / ENODEV on block devices.
                let pid = kernel.current();
                let blk = format!("{dir}/blk");
                let _ = kernel.vfs_mut().mknod_block(
                    pid,
                    &blk,
                    iocov_vfs::Mode::from_bits(0o660),
                    0x0801,
                );
                let pid = kernel.current();
                let _ = kernel.vfs_mut().mark_device_busy(pid, &blk);
                kernel.open(&blk, 1, 0); // EBUSY
                let ghost = format!("{dir}/ghost");
                let pid = kernel.current();
                let _ = kernel.vfs_mut().mknod_block(
                    pid,
                    &ghost,
                    iocov_vfs::Mode::from_bits(0o660),
                    0x9999,
                );
                kernel.open(&ghost, 0, 0); // ENODEV
            }
            7 => {
                // EMFILE: exhaust the per-process descriptor table.
                let hog = format!("{dir}/hog");
                kernel.creat(&hog, 0o644);
                let mut fds = Vec::new();
                loop {
                    let fd = kernel.open(&hog, 0, 0);
                    if fd < 0 {
                        break; // EMFILE observed
                    }
                    fds.push(fd as i32);
                    if fds.len() > 2048 {
                        break; // safety stop
                    }
                }
                for fd in fds {
                    kernel.close(fd);
                }
            }
            8 => {
                // EFAULT: NULL userspace buffers.
                let f = format!("{dir}/efault");
                let fd = kernel.open(&f, 0o102 | 0o100, 0o644);
                if fd >= 0 {
                    kernel.read_null(fd as i32, 512);
                    kernel.write_null(fd as i32, 512);
                    kernel.close(fd as i32);
                }
                kernel.open_badptr(0, 0);
            }
            9 => {
                // EFBIG: beyond the maximum file size.
                let f = format!("{dir}/efbig");
                kernel.creat(&f, 0o644);
                kernel.truncate(&f, i64::MAX / 2);
            }
            _ => {
                // EINVAL: invalid arguments across syscalls.
                let f = format!("{dir}/einval");
                let fd = kernel.open(&f, 0o102 | 0o100, 0o644);
                kernel.open(&f, 3, 0); // bad access mode
                if fd >= 0 {
                    kernel.lseek(fd as i32, 0, 99); // bad whence
                    kernel.lseek(fd as i32, -5, 0); // negative SEEK_SET
                    kernel.ftruncate(fd as i32, -1);
                    kernel.close(fd as i32);
                }
                kernel.truncate(&f, -1);
            }
        }
    }

    fn xattr_test(
        &self,
        kernel: &mut Kernel,
        dir: &str,
        id: usize,
        rng: &mut StdRng,
        result: &mut SuiteResult,
    ) {
        let test = self.test_name(id);
        let f = format!("{dir}/attrs");
        kernel.creat(&f, 0o644);
        let repeats = self.scaled(120);
        for i in 0..repeats {
            let name = format!("user.k{}", i % 16);
            let len = (rng.random_range(0..1024u64)) as usize;
            let value = vec![b'v'; len];
            let flags = match rng.random_range(0..10u32) {
                0 => 0x1, // XATTR_CREATE
                1 => 0x2, // XATTR_REPLACE
                _ => 0,
            };
            let set = kernel.setxattr(&f, &name, &value, flags);
            if set == 0 {
                let got = kernel.getxattr(&f, &name, 4096);
                if got >= 0 && got as usize != len {
                    result
                        .failures
                        .push(format!("{test}: xattr length {got} != {len}"));
                }
                // Size probe and deliberately short buffer (ERANGE).
                kernel.getxattr(&f, &name, 0);
                if len > 1 {
                    kernel.getxattr(&f, &name, 1);
                }
            }
            if i % 7 == 0 {
                kernel.lsetxattr(&f, &name, &value, 0);
                let fd = kernel.open(&f, 0, 0);
                if fd >= 0 {
                    kernel.fgetxattr(fd as i32, &name, 4096);
                    kernel.fsetxattr(fd as i32, "user.via-fd", b"x", 0);
                    kernel.close(fd as i32);
                }
            }
        }
        // Boundary: the per-inode space limit (Figure 1's error path) and
        // the kernel-wide value cap.
        let big = vec![0u8; 3000];
        kernel.setxattr(&f, "user.big1", &big, 0);
        kernel.setxattr(&f, "user.big2", &big, 0); // → ENOSPC
        let huge = vec![0u8; 70_000];
        kernel.setxattr(&f, "user.huge", &huge, 0); // → E2BIG
        kernel.getxattr(&f, "user.absent", 4096); // → ENODATA
        kernel.setxattr(&f, "trusted.k", b"v", 0); // root: ok
        kernel.setxattr(&f, "bogus.k", b"v", 0); // → EOPNOTSUPP
    }

    fn namespace_test(&self, kernel: &mut Kernel, dir: &str, _id: usize, rng: &mut StdRng) {
        let repeats = self.scaled(60);
        for i in 0..repeats {
            let sub = format!("{dir}/d{}", i % 8);
            kernel.mkdir(&sub, 0o755);
            let f = format!("{sub}/f");
            kernel.creat(&f, 0o644);
            kernel.link(&f, &format!("{sub}/hard"));
            kernel.symlink(&f, &format!("{sub}/soft"));
            kernel.open(&format!("{sub}/soft"), 0, 0);
            kernel.rename(&f, &format!("{sub}/renamed"));
            kernel.stat(&format!("{sub}/renamed"));
            kernel.chdir(&sub);
            kernel.open("renamed", 0, 0);
            kernel.chdir("/");
            if rng.random_bool(0.5) {
                kernel.unlink(&format!("{sub}/hard"));
                kernel.unlink(&format!("{sub}/soft"));
                kernel.unlink(&format!("{sub}/renamed"));
                kernel.rmdir(&sub);
            }
        }
    }

    fn boundary_test(
        &self,
        kernel: &mut Kernel,
        dir: &str,
        id: usize,
        rng: &mut StdRng,
        result: &mut SuiteResult,
    ) {
        let test = self.test_name(id);
        let f = format!("{dir}/bounds");
        let fd = kernel.open(&f, 0o102 | 0o100, 0o644);
        if fd < 0 {
            return;
        }
        let fd = fd as i32;
        let repeats = self.scaled(50);
        for _ in 0..repeats {
            // The "=0" boundary partitions (POSIX-legal, easily missed).
            kernel.write(fd, b"");
            kernel.read_discard(fd, 0);
            // One-byte and power-of-two±1 sizes.
            kernel.write(fd, b"x");
            for k in [1u64, 9, 12, 16] {
                let exact = 1u64 << k;
                for len in [exact - 1, exact, exact + 1] {
                    self.checked_write(kernel, fd, len, &test, result);
                }
            }
            // Sparse seeks: SEEK_DATA / SEEK_HOLE over a hole.
            kernel.ftruncate(fd, 0);
            kernel.pwrite64(fd, b"data", 1 << 16);
            kernel.lseek(fd, 0, 3); // SEEK_DATA
            kernel.lseek(fd, 1 << 16, 4); // SEEK_HOLE
            kernel.lseek(fd, 1 << 20, 3); // past EOF → ENXIO
            kernel.lseek(fd, 0, 2); // SEEK_END
            kernel.lseek(fd, rng.random_range(-64i64..0), 1); // relative back-seek
        }
        kernel.close(fd);
    }

    fn permission_test(&self, kernel: &mut Kernel, dir: &str, rng: &mut StdRng) {
        let secret = format!("{dir}/secret");
        let fd = kernel.creat(&secret, 0o600);
        if fd >= 0 {
            kernel.write(fd as i32, b"root only");
            kernel.close(fd as i32);
        }
        let repeats = self.scaled(30);
        for i in 0..repeats {
            kernel.chmod(&secret, if i % 2 == 0 { 0o000 } else { 0o600 });
            kernel.fchmodat(-100, &secret, 0o640, 0);
            // As the unprivileged helper process: EACCES / EPERM.
            kernel.set_current(Pid(2));
            kernel.open(&secret, 0, 0);
            kernel.chmod(&secret, 0o777);
            kernel.open(&secret, 0o1000000, 0); // O_NOATIME by non-owner → EPERM
            kernel.setxattr(&secret, "trusted.x", b"v", 0);
            kernel.set_current(Pid(1));
            if rng.random_bool(0.2) {
                let fd = kernel.open(&secret, 0, 0);
                if fd >= 0 {
                    kernel.fchmod(fd as i32, 0o644);
                    kernel.close(fd as i32);
                }
            }
        }
    }

    fn variant_test(&self, kernel: &mut Kernel, dir: &str, _id: usize, rng: &mut StdRng) {
        let dirfd = kernel.open(dir, 0o200000, 0); // O_DIRECTORY
        if dirfd < 0 {
            return;
        }
        let dirfd = dirfd as i32;
        let repeats = self.scaled(400);
        for i in 0..repeats {
            let name = format!("v{}", i % 32);
            match rng.random_range(0..6u32) {
                0 => {
                    let flags = sample_open_flags(rng, &self.profile.open);
                    let fd = if flags & 0o200000 != 0 {
                        kernel.openat(dirfd, ".", flags & !(0o100 | 0o200 | 0o1000), 0)
                    } else {
                        kernel.openat(dirfd, &name, flags | 0o100, 0o644)
                    };
                    if fd >= 0 {
                        kernel.close(fd as i32);
                    }
                }
                1 => {
                    let fd = kernel.creat(&format!("{dir}/{name}"), 0o644);
                    if fd >= 0 {
                        kernel.close(fd as i32);
                    }
                }
                2 => {
                    let resolve = [0u32, 0x04, 0x08, 0x10][rng.random_range(0..4usize)];
                    let fd = kernel.openat2(dirfd, &name, 0o102 | 0o100, 0o644, resolve);
                    if fd >= 0 {
                        kernel.close(fd as i32);
                    }
                }
                3 => {
                    kernel.mkdirat(dirfd, &format!("sub{}", i % 8), 0o755);
                }
                4 => {
                    kernel.fchmodat(dirfd, &name, 0o600, 0);
                }
                _ => {
                    let fd = kernel.openat(dirfd, &name, 0o102 | 0o100, 0o644);
                    if fd >= 0 {
                        let fd = fd as i32;
                        // pread/pwrite/readv/writev variants.
                        let len =
                            sample_size(rng, &self.profile.write_size).min(MAX_BUFFERED_WRITE);
                        let buf = vec![1u8; len as usize];
                        kernel.pwrite64(fd, &buf, 0);
                        kernel.pread64(fd, len, 0);
                        kernel.writev(fd, &[&buf[..len as usize / 2], &buf[len as usize / 2..]]);
                        kernel.readv(fd, &[len / 2, len / 2]);
                        kernel.fchmod(fd, 0o640);
                        kernel.ftruncate(fd, (len / 2) as i64);
                        kernel.fchdir(dirfd);
                        kernel.chdir("/");
                        kernel.close(fd);
                    }
                }
            }
        }
        kernel.close(dirfd);
    }

    fn durability_test(
        &self,
        kernel: &mut Kernel,
        dir: &str,
        id: usize,
        rng: &mut StdRng,
        result: &mut SuiteResult,
    ) {
        let test = self.test_name(id);
        let f = format!("{dir}/journal");
        let repeats = self.scaled(40);
        for i in 0..repeats {
            let flags = if i % 3 == 0 {
                0o102 | 0o100 | 0o4010000 // O_RDWR|O_CREAT|O_SYNC
            } else {
                0o102 | 0o100
            };
            let fd = kernel.open(&f, flags, 0o644);
            if fd < 0 {
                continue;
            }
            let fd = fd as i32;
            let len = sample_size(rng, &self.profile.write_size).min(MAX_BUFFERED_WRITE);
            kernel.pwrite64_fill(fd, 0x11, len, 0);
            match i % 4 {
                0 => {
                    kernel.fsync(fd);
                }
                1 => {
                    kernel.fdatasync(fd);
                }
                2 => {
                    kernel.sync();
                }
                _ => {}
            }
            kernel.close(fd);
            // Crash-and-verify on `sync` iterations: a global sync is the
            // only persistence point here that also makes the (unsynced)
            // test directory reachable after recovery — fsync of the file
            // alone does not persist the directory entries above it.
            if i % 8 == 6 && len > 0 {
                {
                    kernel.vfs_mut().crash();
                    let fd = kernel.open(&f, 0, 0);
                    if fd < 0 {
                        result
                            .failures
                            .push(format!("{test}: durable file lost after crash"));
                    } else {
                        let got = kernel.pread64(fd as i32, len, 0);
                        if got >= 0 && got as u64 != len {
                            result
                                .failures
                                .push(format!("{test}: durable data truncated to {got} of {len}"));
                        }
                        kernel.close(fd as i32);
                    }
                }
            }
        }
    }

    fn bigfile_test(
        &self,
        kernel: &mut Kernel,
        dir: &str,
        id: usize,
        rng: &mut StdRng,
        result: &mut SuiteResult,
    ) {
        let test = self.test_name(id);
        let f = format!("{dir}/large");
        let fd = kernel.open(&f, 0o102 | 0o100, 0o644);
        if fd < 0 {
            return;
        }
        let fd = fd as i32;
        // One designated test issues the suite's largest write: 258 MiB
        // (Figure 3's annotated maximum).
        if id == GENERIC_TESTS + 13 {
            let ret = kernel.write_fill(fd, 0xbb, anchors::MAX_WRITE_BYTES);
            if ret as u64 != anchors::MAX_WRITE_BYTES {
                result
                    .failures
                    .push(format!("{test}: 258MiB write returned {ret}"));
            }
        }
        let repeats = self.scaled(20);
        for i in 0..repeats {
            // Large sparse regions and high buckets via the fill path.
            let len = sample_size(rng, &self.profile.write_size);
            let offset = rng.random_range(0i64..1 << 34);
            kernel.pwrite64_fill(fd, 0xcc, len, offset);
            kernel.lseek(fd, offset, 3); // SEEK_DATA within sparse file
            kernel.read_discard(fd, sample_size(rng, &self.profile.read_size));
            // Preallocation and hole punching, as real large-file tests do.
            if i % 3 == 0 {
                kernel.fallocate(fd, 0, offset, 4096);
                kernel.fallocate(fd, 0x3 /* PUNCH_HOLE|KEEP_SIZE */, offset, 2048);
            }
            kernel.ftruncate(fd, rng.random_range(0i64..1 << 30));
        }
        // Exchange the large file with a sibling via renameat2.
        kernel.creat(&format!("{dir}/sibling"), 0o644);
        kernel.renameat2(&f, &format!("{dir}/sibling"), 0x2 /* EXCHANGE */);
        kernel.renameat2(
            &format!("{dir}/sibling"),
            &format!("{dir}/large2"),
            0x1, /* NOREPLACE */
        );
        kernel.close(fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov::{ArgName, Iocov};

    fn small_run() -> (SuiteResult, iocov::AnalysisReport) {
        let env = TestEnv::new();
        let sim = XfstestsSim::new(7, 0.01);
        let mut kernel = env.fresh_kernel();
        let result = sim.run_range(&mut kernel, 0..52); // all 13 families, 4x
        let iocov = Iocov::with_mount_point(MOUNT).unwrap();
        let report = iocov.analyze(&env.take_trace());
        (result, report)
    }

    #[test]
    fn runs_tests_and_produces_coverage() {
        let (result, report) = small_run();
        assert_eq!(result.tests_run, 52);
        assert!(result.failures.is_empty(), "{:?}", result.failures);
        assert!(report.total_calls() > 1000);
        let flags = report.input_coverage(ArgName::OpenFlags);
        assert!(flags.calls > 100);
    }

    #[test]
    fn error_paths_show_up_in_output_coverage() {
        let (_, report) = small_run();
        let open_out = report.output_coverage(iocov::BaseSyscall::Open);
        assert!(open_out.errno_count("ENOENT") > 0);
        assert!(open_out.errno_count("EEXIST") > 0);
        assert!(open_out.errno_count("EISDIR") > 0);
        assert!(open_out.successes() > 0);
    }

    #[test]
    fn zero_write_boundary_is_exercised() {
        let (_, report) = small_run();
        let writes = report.input_coverage(ArgName::WriteCount);
        assert!(
            writes.count(&iocov::InputPartition::Numeric(
                iocov::NumericPartition::Zero
            )) > 0,
            "boundary tests issue zero-length writes"
        );
    }

    #[test]
    fn noise_is_filtered_out() {
        let (_, report) = small_run();
        assert!(report.filter_stats.dropped > 0, "bookkeeping noise existed");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            let env = TestEnv::new();
            let sim = XfstestsSim::new(seed, 0.01);
            let mut kernel = env.fresh_kernel();
            let _ = sim.run_range(&mut kernel, 0..13);
            env.take_trace().len()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn test_names_follow_xfstests_convention() {
        let sim = XfstestsSim::new(0, 1.0);
        assert_eq!(sim.test_name(0), "generic/000");
        assert_eq!(sim.test_name(705), "generic/705");
        assert_eq!(sim.test_name(706), "ext4/000");
        assert_eq!(sim.total_tests(), 1014);
    }
}
