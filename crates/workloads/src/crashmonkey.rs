//! The CrashMonkey simulator: bounded black-box crash-consistency
//! testing.
//!
//! CrashMonkey (OSDI '18) generates small workloads, simulates a crash
//! after a persistence point, remounts, and checks that everything the
//! workload explicitly persisted survived. The paper's evaluation runs
//! "all of seq-1's 300 workloads and all generic tests"; this simulator
//! reproduces that: **seq-1** is the cartesian product of 10 core
//! operations × 6 persistence options × 5 targets = 300 workloads, plus
//! a configurable batch of randomized generic crash tests.
//!
//! Each workload runs on a freshly "mkfs-ed" kernel (sharing the suite's
//! trace recorder), performs black-box probe noise (the source of
//! CrashMonkey's characteristic `ENOTDIR`-heavy error profile in
//! Figure 4), applies its operation and persistence point, crashes the
//! file system, and verifies the oracle.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use iocov_syscalls::Kernel;

use crate::env::{TestEnv, MOUNT};
use crate::profile::{crashmonkey_profile, SuiteProfile};
use crate::sampler::{sample_open_flags, sample_size};
use crate::SuiteResult;

/// Number of seq-1 workloads (10 ops × 6 persistence × 5 targets).
pub const SEQ1_WORKLOADS: usize = 300;

/// Baseline number of generic (randomized) crash tests at scale 1.0.
pub const GENERIC_CRASH_TESTS: usize = 100;

/// The core operation a seq-1 workload applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreOp {
    WriteFront,
    WriteAppend,
    Overwrite,
    TruncateGrow,
    TruncateShrink,
    WriteHole,
    Rename,
    HardLink,
    UnlinkRecreate,
    MkdirSub,
}

const CORE_OPS: [CoreOp; 10] = [
    CoreOp::WriteFront,
    CoreOp::WriteAppend,
    CoreOp::Overwrite,
    CoreOp::TruncateGrow,
    CoreOp::TruncateShrink,
    CoreOp::WriteHole,
    CoreOp::Rename,
    CoreOp::HardLink,
    CoreOp::UnlinkRecreate,
    CoreOp::MkdirSub,
];

/// The persistence point applied after the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PersistOp {
    None,
    FsyncFile,
    FsyncParent,
    FsyncBoth,
    SyncAll,
    OsyncWrite,
}

const PERSIST_OPS: [PersistOp; 6] = [
    PersistOp::None,
    PersistOp::FsyncFile,
    PersistOp::FsyncParent,
    PersistOp::FsyncBoth,
    PersistOp::SyncAll,
    PersistOp::OsyncWrite,
];

/// The file the operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Target {
    /// Path relative to the mount point.
    rel: &'static str,
    /// Whether setup creates (and persists) it before the workload body.
    pre_existing: bool,
    /// Initial contents when pre-existing.
    base: &'static [u8],
}

const TARGETS: [Target; 5] = [
    Target {
        rel: "A",
        pre_existing: true,
        base: b"base-content-16b",
    },
    Target {
        rel: "B",
        pre_existing: false,
        base: b"",
    },
    Target {
        rel: "sub/C",
        pre_existing: true,
        base: b"subfile",
    },
    Target {
        rel: "D",
        pre_existing: true,
        base: b"",
    },
    Target {
        rel: "deep/x/y",
        pre_existing: false,
        base: b"",
    },
];

/// The CrashMonkey suite simulator.
#[derive(Debug, Clone)]
pub struct CrashMonkeySim {
    seed: u64,
    scale: f64,
    profile: SuiteProfile,
}

impl CrashMonkeySim {
    /// Creates a simulator; `scale` multiplies the generic-test count
    /// (seq-1 is always the full 300).
    #[must_use]
    pub fn new(seed: u64, scale: f64) -> Self {
        CrashMonkeySim {
            seed,
            scale,
            profile: crashmonkey_profile(),
        }
    }

    /// Total workloads (seq-1 plus scaled generic tests).
    #[must_use]
    pub fn total_workloads(&self) -> usize {
        SEQ1_WORKLOADS + self.generic_count()
    }

    fn generic_count(&self) -> usize {
        ((GENERIC_CRASH_TESTS as f64 * self.scale).round() as usize).max(1)
    }

    /// Runs the whole suite; every workload gets a fresh file system,
    /// all sharing `env`'s recorder.
    #[must_use]
    pub fn run(&self, env: &TestEnv) -> SuiteResult {
        let mut result = SuiteResult::new("CrashMonkey");
        for id in 0..SEQ1_WORKLOADS {
            self.run_seq1(env, id, &mut result);
            result.tests_run += 1;
        }
        for id in 0..self.generic_count() {
            self.run_generic(env, id, &mut result);
            result.tests_run += 1;
        }
        result
    }

    /// Black-box probe noise: invalid operations a rule-based generator
    /// emits, producing CrashMonkey's error-output profile (`ENOTDIR`
    /// especially — the one errno it beats xfstests on in Figure 4). A
    /// black-box generator samples flags without regard to validity, so
    /// the probes draw from the profile's combination distribution.
    fn probe_noise(&self, kernel: &mut Kernel, rng: &mut StdRng) {
        let file = format!("{MOUNT}/A");
        // ENOTDIR: treat a file as a directory (several probes).
        for suffix in ["x", "y/z", "0"] {
            let flags = sample_open_flags(rng, &self.profile.open);
            kernel.open(&format!("{file}/{suffix}"), flags, 0o644);
        }
        kernel.mkdir(&format!("{file}/d"), 0o755);
        // ENOENT / EEXIST / EISDIR.
        let flags = sample_open_flags(rng, &self.profile.open) & !0o100; // no O_CREAT
        kernel.open(
            &format!("{MOUNT}/nonexistent-{}", rng.random_range(0..50u32)),
            flags,
            0,
        );
        kernel.mkdir(&format!("{MOUNT}/sub"), 0o755); // EEXIST after setup
        kernel.open(MOUNT, 1, 0); // EISDIR
    }

    /// Creates the standard pre-populated namespace and persists it.
    fn setup(&self, kernel: &mut Kernel) {
        kernel.mkdir(&format!("{MOUNT}/sub"), 0o755);
        kernel.mkdir(&format!("{MOUNT}/deep"), 0o755);
        kernel.mkdir(&format!("{MOUNT}/deep/x"), 0o755);
        for target in TARGETS.iter().filter(|t| t.pre_existing) {
            let path = format!("{MOUNT}/{}", target.rel);
            // O_WRONLY|O_CREAT|O_TRUNC|O_CLOEXEC: the setup writer.
            let fd = kernel.open(&path, 0o101 | 0o1000 | 0o2000000, 0o644);
            if fd >= 0 {
                if !target.base.is_empty() {
                    kernel.write(fd as i32, target.base);
                }
                kernel.close(fd as i32);
            }
        }
        kernel.sync(); // the base image is durable
    }

    fn parent_of(path: &str) -> String {
        match path.rfind('/') {
            Some(idx) => path[..idx].to_owned(),
            None => MOUNT.to_owned(),
        }
    }

    fn fsync_path(kernel: &mut Kernel, path: &str, directory: bool) {
        // Real tools open sync handles with O_CLOEXEC and, for
        // directories, O_DIRECTORY — three-flag combinations.
        let flags = if directory {
            0o200000 | 0o2000000 // O_DIRECTORY | O_CLOEXEC
        } else {
            0o2000000 | 0o400000 // O_CLOEXEC | O_NOFOLLOW
        };
        let fd = kernel.open(path, flags, 0);
        if fd >= 0 {
            kernel.fsync(fd as i32);
            kernel.close(fd as i32);
        }
    }

    /// The checker's standard four-flag read combination
    /// (`O_RDONLY|O_NONBLOCK|O_NOFOLLOW|O_CLOEXEC`), which dominates
    /// CrashMonkey's Table 1 row.
    const VERIFY_FLAGS: u32 = 0o4000 | 0o400000 | 0o2000000;
    /// A lighter three-flag read combination used for the baseline pass.
    const BASELINE_FLAGS: u32 = 0o400000 | 0o2000000;

    /// Reads a file's full contents via traced syscalls.
    fn read_file_with(kernel: &mut Kernel, path: &str, flags: u32) -> Option<Vec<u8>> {
        let fd = kernel.open(path, flags, 0);
        if fd < 0 {
            return None;
        }
        let fd = fd as i32;
        let size = kernel.lseek(fd, 0, 2).max(0) as u64;
        kernel.lseek(fd, 0, 0);
        let mut buf = vec![0u8; size as usize];
        let n = kernel.read(fd, &mut buf);
        kernel.close(fd);
        if n < 0 {
            return None;
        }
        buf.truncate(n as usize);
        Some(buf)
    }

    fn read_file(kernel: &mut Kernel, path: &str) -> Option<Vec<u8>> {
        Self::read_file_with(kernel, path, Self::VERIFY_FLAGS)
    }

    #[allow(clippy::too_many_lines)]
    fn run_seq1(&self, env: &TestEnv, id: usize, result: &mut SuiteResult) {
        let op = CORE_OPS[id % 10];
        let persist = PERSIST_OPS[(id / 10) % 6];
        let target = TARGETS[(id / 60) % 5];
        let mut rng = StdRng::seed_from_u64(self.seed ^ (id as u64).wrapping_mul(0x1234_5679));

        let mut kernel = env.fresh_kernel();
        self.setup(&mut kernel);
        self.probe_noise(&mut kernel, &mut rng);
        // Baseline verification pass over the whole working set (the
        // three-flag checker combination), plus one plain open — the
        // generator's minimal-flags probe.
        for t in &TARGETS {
            let p = format!("{MOUNT}/{}", t.rel);
            let _ = Self::read_file_with(&mut kernel, &p, Self::BASELINE_FLAGS);
        }
        kernel.open(&format!("{MOUNT}/A"), 0, 0);

        let path = format!("{MOUNT}/{}", target.rel);
        let renamed = format!("{path}.r");
        let linked = format!("{path}.l");
        let subdir = format!("{path}.d");

        // Ensure the target exists (new targets are created inside the
        // workload body, after the setup sync).
        if !target.pre_existing {
            let fd = kernel.open(&path, 0o101 | 0o1000 | 0o2000000, 0o644);
            if fd >= 0 {
                kernel.close(fd as i32);
            }
        }

        // Expected post-op contents, simulated on the base bytes.
        let mut expected: Vec<u8> = if target.pre_existing {
            target.base.to_vec()
        } else {
            Vec::new()
        };

        let osync = persist == PersistOp::OsyncWrite;
        let open_write_flags = if osync { 0o1 | 0o4010000 } else { 0o1 };

        match op {
            CoreOp::WriteFront => {
                let fd = kernel.open(&path, open_write_flags, 0);
                if fd >= 0 {
                    kernel.pwrite64(fd as i32, b"NEWDATA!", 0);
                    kernel.close(fd as i32);
                }
                if expected.len() < 8 {
                    expected.resize(8, 0);
                }
                expected[..8].copy_from_slice(b"NEWDATA!");
            }
            CoreOp::WriteAppend => {
                let fd = kernel.open(&path, open_write_flags | 0o2000, 0);
                if fd >= 0 {
                    kernel.write(fd as i32, b"APPEND");
                    kernel.close(fd as i32);
                }
                expected.extend_from_slice(b"APPEND");
            }
            CoreOp::Overwrite => {
                let fd = kernel.open(&path, open_write_flags | 0o1000, 0);
                if fd >= 0 {
                    kernel.write(fd as i32, b"OVER");
                    kernel.close(fd as i32);
                }
                expected = b"OVER".to_vec();
            }
            CoreOp::TruncateGrow => {
                kernel.truncate(&path, 8192);
                expected.resize(8192, 0);
            }
            CoreOp::TruncateShrink => {
                kernel.truncate(&path, 2);
                expected.truncate(2);
                expected.resize(2, 0);
            }
            CoreOp::WriteHole => {
                let fd = kernel.open(&path, open_write_flags, 0);
                if fd >= 0 {
                    kernel.pwrite64(fd as i32, b"HOLE", 10_000);
                    kernel.close(fd as i32);
                }
                if expected.len() < 10_004 {
                    expected.resize(10_004, 0);
                }
                expected[10_000..10_004].copy_from_slice(b"HOLE");
            }
            CoreOp::Rename => {
                kernel.rename(&path, &renamed);
            }
            CoreOp::HardLink => {
                kernel.link(&path, &linked);
            }
            CoreOp::UnlinkRecreate => {
                kernel.unlink(&path);
                let fd = kernel.open(&path, 0o101, 0o644);
                if fd >= 0 {
                    kernel.write(fd as i32, b"RE");
                    kernel.close(fd as i32);
                }
                expected = b"RE".to_vec();
            }
            CoreOp::MkdirSub => {
                kernel.mkdir(&subdir, 0o755);
            }
        }

        // The persistence point.
        let active_path = if op == CoreOp::Rename {
            &renamed
        } else {
            &path
        };
        match persist {
            PersistOp::None => {}
            PersistOp::FsyncFile => Self::fsync_path(&mut kernel, active_path, false),
            PersistOp::FsyncParent => {
                Self::fsync_path(&mut kernel, &Self::parent_of(active_path), true);
            }
            PersistOp::FsyncBoth => {
                Self::fsync_path(&mut kernel, active_path, false);
                Self::fsync_path(&mut kernel, &Self::parent_of(active_path), true);
            }
            PersistOp::SyncAll => {
                kernel.sync();
            }
            PersistOp::OsyncWrite => {
                // O_SYNC already persisted the data inline; for non-write
                // ops this degrades to an explicit file fsync.
                if !matches!(
                    op,
                    CoreOp::WriteFront
                        | CoreOp::WriteAppend
                        | CoreOp::Overwrite
                        | CoreOp::WriteHole
                ) {
                    Self::fsync_path(&mut kernel, active_path, false);
                }
            }
        }

        // Pre-crash verification reads (read-only opens dominate
        // CrashMonkey's Figure 2 profile).
        for t in &TARGETS {
            let p = format!("{MOUNT}/{}", t.rel);
            let _ = Self::read_file(&mut kernel, &p);
        }

        // Crash and remount.
        kernel.vfs_mut().crash();

        // Oracle. Content guarantees only hold when both the entry and
        // the data were persisted (see the durability model in
        // `iocov-vfs`): the entry is durable for pre-existing files or
        // after a sync/dir-fsync pair; the content after fsync/O_SYNC/
        // sync. Namespace operations are only guaranteed under sync.
        let is_namespace_op = matches!(op, CoreOp::Rename | CoreOp::HardLink | CoreOp::MkdirSub);
        let entry_durable = match op {
            CoreOp::Rename | CoreOp::UnlinkRecreate => persist == PersistOp::SyncAll,
            _ => {
                target.pre_existing || matches!(persist, PersistOp::SyncAll | PersistOp::FsyncBoth)
            }
        };
        let content_durable = matches!(
            persist,
            PersistOp::SyncAll
                | PersistOp::FsyncBoth
                | PersistOp::FsyncFile
                | PersistOp::OsyncWrite
        );
        if is_namespace_op {
            if persist == PersistOp::SyncAll {
                let check = match op {
                    CoreOp::Rename => kernel.stat(&renamed) == 0 && kernel.stat(&path) != 0,
                    CoreOp::HardLink => kernel.stat(&linked) == 0,
                    CoreOp::MkdirSub => kernel.stat(&subdir) == 0,
                    _ => unreachable!("namespace ops matched above"),
                };
                if !check {
                    result.crash_violations.push(format!(
                        "seq1-{id:03}: {op:?} on {} not durable after sync",
                        target.rel
                    ));
                }
            }
        } else if entry_durable && content_durable {
            match Self::read_file(&mut kernel, &path) {
                None => result.crash_violations.push(format!(
                    "seq1-{id:03}: {} missing after crash despite {persist:?}",
                    target.rel
                )),
                Some(got) => {
                    if got != expected {
                        result.crash_violations.push(format!(
                            "seq1-{id:03}: {} content mismatch after crash ({} vs {} bytes)",
                            target.rel,
                            got.len(),
                            expected.len()
                        ));
                    }
                }
            }
        } else {
            // No guarantee — but reading back is still how CrashMonkey
            // explores the post-crash state.
            let _ = Self::read_file(&mut kernel, &path);
        }
        // Post-crash sweep over the whole working set (CrashMonkey
        // inspects the remounted file system's full state).
        for t in &TARGETS {
            let p = format!("{MOUNT}/{}", t.rel);
            let _ = Self::read_file(&mut kernel, &p);
        }
    }

    /// A randomized generic crash test: a short op sequence with random
    /// persistence points, then crash and check every explicitly
    /// fsync-persisted pre-existing file.
    fn run_generic(&self, env: &TestEnv, id: usize, result: &mut SuiteResult) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xdead_beef ^ (id as u64).wrapping_mul(31));
        let mut kernel = env.fresh_kernel();
        self.setup(&mut kernel);
        self.probe_noise(&mut kernel, &mut rng);

        let mut synced_files: Vec<(String, Vec<u8>)> = Vec::new();
        let ops = rng.random_range(4..12u32);
        for i in 0..ops {
            let name = format!("{MOUNT}/g{}", i % 4);
            let flags = sample_open_flags(&mut rng, &self.profile.open) | 0o100; // ensure O_CREAT
            let fd = kernel.open(&name, flags, 0o644);
            if fd < 0 {
                continue;
            }
            let fd = fd as i32;
            let len = sample_size(&mut rng, &self.profile.write_size).min(1 << 17);
            let wrote = kernel.write_fill(fd, (i % 251) as u8, len) >= 0;
            if rng.random_bool(0.5) && wrote {
                kernel.fsync(fd);
                // A brand-new file also needs its parent persisted to be
                // reachable after the crash.
                Self::fsync_path(&mut kernel, MOUNT, true);
                let content = Self::read_file(&mut kernel, &name);
                if let Some(content) = content {
                    synced_files.retain(|(n, _)| n != &name);
                    synced_files.push((name.clone(), content));
                }
            }
            kernel.close(fd);
        }
        kernel.vfs_mut().crash();
        for (path, expected) in synced_files {
            match Self::read_file(&mut kernel, &path) {
                None => result
                    .crash_violations
                    .push(format!("generic-{id:03}: {path} lost after crash")),
                Some(got) => {
                    if got.len() < expected.len() || got[..expected.len()] != expected[..] {
                        result.crash_violations.push(format!(
                            "generic-{id:03}: {path} fsynced data lost or corrupt"
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov::{ArgName, InputPartition, Iocov};

    #[test]
    fn seq1_is_exactly_300_workloads() {
        let sim = CrashMonkeySim::new(0, 1.0);
        assert_eq!(
            SEQ1_WORKLOADS,
            CORE_OPS.len() * PERSIST_OPS.len() * TARGETS.len()
        );
        assert_eq!(sim.total_workloads(), 400);
    }

    #[test]
    fn clean_fs_has_no_crash_violations() {
        let env = TestEnv::new();
        let sim = CrashMonkeySim::new(11, 0.05);
        let result = sim.run(&env);
        assert_eq!(result.tests_run, SEQ1_WORKLOADS + 5);
        assert!(
            result.crash_violations.is_empty(),
            "violations: {:?}",
            result.crash_violations
        );
    }

    #[test]
    fn coverage_profile_matches_crashmonkey_shape() {
        let env = TestEnv::new();
        let sim = CrashMonkeySim::new(11, 0.05);
        let _ = sim.run(&env);
        let report = Iocov::with_mount_point(MOUNT)
            .unwrap()
            .analyze(&env.take_trace());
        let flags = report.input_coverage(ArgName::OpenFlags);
        let rdonly = flags.count(&InputPartition::Flag("O_RDONLY".into()));
        let wronly = flags.count(&InputPartition::Flag("O_WRONLY".into()));
        assert!(
            rdonly > wronly * 2,
            "O_RDONLY dominates: {rdonly} vs {wronly}"
        );
        // The long tail stays untested.
        assert_eq!(flags.count(&InputPartition::Flag("O_TMPFILE".into())), 0);
        assert_eq!(flags.count(&InputPartition::Flag("O_NOATIME".into())), 0);
        // ENOTDIR shows up strongly in open outputs.
        let open_out = report.output_coverage(iocov::BaseSyscall::Open);
        assert!(open_out.errno_count("ENOTDIR") > 100);
        assert!(open_out.errno_count("ENOENT") > 0);
        assert!(open_out.errno_count("EISDIR") > 0);
    }

    #[test]
    fn injected_fsync_bug_is_caught_by_the_oracle() {
        use iocov_faults::demo_bugs;
        use std::sync::Arc;
        // Rename targets so the fsync-loss bug on "*.log" files can fire:
        // use a bug set matching this suite's file names instead.
        use iocov_faults::{BugSet, BugTrigger, InjectedBug};
        use iocov_vfs::FaultAction;
        let bugs = BugSet::new(vec![InjectedBug::new(
            "lost-fsync",
            "fsync on /mnt/test/A silently loses durability",
            BugTrigger::PathContains {
                op: "fsync",
                fragment: "/A",
            },
            FaultAction::SkipDurability,
        )]);
        let hook = bugs.into_hook();
        let env = TestEnv::new().with_hook(Arc::clone(&hook) as iocov_vfs::SharedHook);
        let sim = CrashMonkeySim::new(11, 0.02);
        let result = sim.run(&env);
        assert!(
            !result.crash_violations.is_empty(),
            "the oracle must catch the lost-durability bug"
        );
        assert!(hook.bugs()[0].hits() > 0);
        // Sanity: the unrelated demo set stays dormant here.
        assert!(demo_bugs().triggered().is_empty());
    }
}
