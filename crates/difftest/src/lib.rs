//! A coverage-guided differential file-system tester built on IOCov.
//!
//! The IOCov paper's §6 closes with: *"We are currently developing a
//! differential-testing-based file system tester utilizing IOCov. Our
//! approach has found several new bugs."* This crate implements that
//! design:
//!
//! 1. generate random (but model-safe) syscall sequences and execute each
//!    operation on **two** implementations — the full in-memory VFS and
//!    the obviously-correct [`iocov_model::ModelFs`] specification;
//! 2. compare return values, read data, and final states — any mismatch
//!    is a bug in one of the implementations;
//! 3. after each round, run the IOCov analyzer on the trace and **steer
//!    generation toward untested input partitions** (unexercised write
//!    size buckets, unused open flags), which is exactly the feedback
//!    code-coverage-guided fuzzers cannot provide.
//!
//! # Examples
//!
//! ```
//! use iocov_difftest::DiffTester;
//!
//! let report = DiffTester::new(42).rounds(3).ops_per_round(200).run();
//! assert!(report.mismatches.is_empty(), "the clean VFS matches the model");
//! assert!(report.ops_executed > 0);
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use iocov::{ArgName, InputPartition, Iocov, NumericPartition};
use iocov_model::ModelFs;
use iocov_syscalls::Kernel;
use iocov_trace::Recorder;
use iocov_vfs::SharedHook;

/// What diverged between the two implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MismatchKind {
    /// Different return values (or one side succeeded and the other
    /// failed).
    ReturnValue,
    /// Same success, different bytes from `read`.
    Data,
    /// Different final namespaces or file contents after the run.
    FinalState,
}

/// One observed divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The operation that diverged, rendered strace-style.
    pub op: String,
    /// The full implementation's result.
    pub vfs_ret: i64,
    /// The model's result.
    pub model_ret: i64,
    /// The divergence category.
    pub kind: MismatchKind,
}

/// The outcome of a differential-testing session.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Operations executed on both implementations.
    pub ops_executed: u64,
    /// All divergences found.
    pub mismatches: Vec<Mismatch>,
    /// Untested write-size partitions remaining after the final round
    /// (shows the guidance converging).
    pub untested_write_buckets: usize,
}

impl DiffReport {
    /// Whether any bug was found.
    #[must_use]
    pub fn found_bugs(&self) -> bool {
        !self.mismatches.is_empty()
    }
}

/// Model-safe open flags (the specification implements exactly these).
const SAFE_FLAG_BITS: [u32; 5] = [
    0o100,    // O_CREAT
    0o200,    // O_EXCL
    0o1000,   // O_TRUNC
    0o2000,   // O_APPEND
    0o200000, // O_DIRECTORY
];

/// The coverage-guided differential tester.
#[derive(Clone)]
pub struct DiffTester {
    seed: u64,
    rounds: usize,
    ops_per_round: usize,
    hook: Option<SharedHook>,
}

impl std::fmt::Debug for DiffTester {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiffTester")
            .field("seed", &self.seed)
            .field("rounds", &self.rounds)
            .field("ops_per_round", &self.ops_per_round)
            .field("hook", &self.hook.is_some())
            .finish()
    }
}

impl DiffTester {
    /// Creates a tester with defaults (5 rounds × 400 ops).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        DiffTester {
            seed,
            rounds: 5,
            ops_per_round: 400,
            hook: None,
        }
    }

    /// Sets the number of guidance rounds.
    #[must_use]
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets operations per round.
    #[must_use]
    pub fn ops_per_round(mut self, ops: usize) -> Self {
        self.ops_per_round = ops;
        self
    }

    /// Installs a fault hook into the VFS side only (to inject bugs the
    /// tester should find).
    #[must_use]
    pub fn with_vfs_hook(mut self, hook: SharedHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Runs the session.
    #[must_use]
    pub fn run(&self) -> DiffReport {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let recorder = Arc::new(Recorder::new());
        let mut kernel = Kernel::new();
        if let Some(hook) = &self.hook {
            kernel.vfs_mut().set_fault_hook(Arc::clone(hook));
        }
        kernel.attach_recorder(Arc::clone(&recorder));
        let mut model = ModelFs::new();
        let mut report = DiffReport::default();
        // Open descriptor pairs (vfs fd, model fd, path).
        let mut slots: Vec<(i32, i32, String)> = Vec::new();
        // Guidance state: boundary sizes and flags to prioritize.
        let mut target_sizes: Vec<u64> = Vec::new();
        let mut target_flags: Vec<u32> = Vec::new();
        let iocov = Iocov::new();

        for _round in 0..self.rounds {
            for _ in 0..self.ops_per_round {
                self.one_op(
                    &mut rng,
                    &mut kernel,
                    &mut model,
                    &mut slots,
                    &target_sizes,
                    &target_flags,
                    &mut report,
                );
            }
            // Coverage feedback: analyze this round's trace and aim the
            // next round at untested partitions.
            let analysis = iocov.analyze(&recorder.take());
            let write_cov = analysis.input_coverage(ArgName::WriteCount);
            target_sizes = write_cov
                .untested(ArgName::WriteCount)
                .into_iter()
                .filter_map(|p| match p {
                    InputPartition::Numeric(NumericPartition::Zero) => Some(0),
                    InputPartition::Numeric(NumericPartition::Log2(k)) if k <= 20 => {
                        Some(1u64 << k)
                    }
                    _ => None,
                })
                .collect();
            report.untested_write_buckets = target_sizes.len();
            let flag_cov = analysis.input_coverage(ArgName::OpenFlags);
            target_flags = flag_cov
                .untested(ArgName::OpenFlags)
                .into_iter()
                .filter_map(|p| match p {
                    InputPartition::Flag(name) => flag_bits_if_safe(&name),
                    _ => None,
                })
                .collect();
        }

        // Final-state comparison: walk the model's namespace and compare
        // against the VFS.
        self.compare_final_state(&mut kernel, &model, &mut report);
        report
    }

    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn one_op(
        &self,
        rng: &mut StdRng,
        kernel: &mut Kernel,
        model: &mut ModelFs,
        slots: &mut Vec<(i32, i32, String)>,
        target_sizes: &[u64],
        target_flags: &[u32],
        report: &mut DiffReport,
    ) {
        report.ops_executed += 1;
        let path = random_path(rng);
        let pick_size = |rng: &mut StdRng| -> u64 {
            if !target_sizes.is_empty() && rng.random_bool(0.5) {
                target_sizes[rng.random_range(0..target_sizes.len())]
            } else {
                rng.random_range(0..8192u64)
            }
        };
        match rng.random_range(0..12u32) {
            0..=2 => {
                // open
                let accmode = rng.random_range(0..3u32);
                let mut flags = accmode;
                for bit in SAFE_FLAG_BITS {
                    if rng.random_bool(0.25) {
                        flags |= bit;
                    }
                }
                if !target_flags.is_empty() && rng.random_bool(0.5) {
                    flags |= target_flags[rng.random_range(0..target_flags.len())];
                }
                let v = kernel.open(&path, flags, 0o644);
                let m = model.open(&path, flags, 0o644);
                // Both sides hand out the lowest free descriptor, so a
                // successful open must return the same number too.
                if v != m {
                    report.mismatches.push(Mismatch {
                        op: format!("open({path:?}, 0o{flags:o})"),
                        vfs_ret: v,
                        model_ret: m,
                        kind: MismatchKind::ReturnValue,
                    });
                    // Avoid desynchronized descriptor tables.
                    if v >= 0 {
                        kernel.close(v as i32);
                    }
                    if m >= 0 {
                        model.close(m as i32);
                    }
                } else if v >= 0 {
                    slots.push((v as i32, m as i32, path));
                }
            }
            3 => {
                // close
                if let Some(idx) = pick_slot(rng, slots) {
                    let (v_fd, m_fd, _) = slots.swap_remove(idx);
                    let v = kernel.close(v_fd);
                    let m = model.close(m_fd);
                    compare("close(fd)", v, m, report);
                }
            }
            4 | 5 => {
                // write
                if let Some(idx) = pick_slot(rng, slots) {
                    let (v_fd, m_fd, _) = slots[idx];
                    let len = pick_size(rng).min(1 << 16);
                    let buf: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                    let v = kernel.write(v_fd, &buf);
                    let m = model.write(m_fd, &buf);
                    compare(&format!("write(fd, {len})"), v, m, report);
                }
            }
            6 | 7 => {
                // read with data comparison
                if let Some(idx) = pick_slot(rng, slots) {
                    let (v_fd, m_fd, _) = slots[idx];
                    let len = pick_size(rng).min(1 << 16);
                    let mut buf = vec![0u8; len as usize];
                    let v = kernel.read(v_fd, &mut buf);
                    let (m, m_data) = model.read(m_fd, len);
                    if v != m {
                        report.mismatches.push(Mismatch {
                            op: format!("read(fd, {len})"),
                            vfs_ret: v,
                            model_ret: m,
                            kind: MismatchKind::ReturnValue,
                        });
                    } else if v >= 0 && buf[..v as usize] != m_data[..] {
                        report.mismatches.push(Mismatch {
                            op: format!("read(fd, {len})"),
                            vfs_ret: v,
                            model_ret: m,
                            kind: MismatchKind::Data,
                        });
                    }
                }
            }
            8 => {
                // lseek
                if let Some(idx) = pick_slot(rng, slots) {
                    let (v_fd, m_fd, _) = slots[idx];
                    let offset = rng.random_range(-64i64..1 << 16);
                    let whence = rng.random_range(0..3u32);
                    let v = kernel.lseek(v_fd, offset, whence);
                    let m = model.lseek(m_fd, offset, whence);
                    compare(&format!("lseek(fd, {offset}, {whence})"), v, m, report);
                }
            }
            9 => {
                // truncate / ftruncate
                if rng.random_bool(0.5) {
                    let len = rng.random_range(-8i64..1 << 14);
                    let v = kernel.truncate(&path, len);
                    let m = model.truncate(&path, len);
                    compare(&format!("truncate({path:?}, {len})"), v, m, report);
                } else if let Some(idx) = pick_slot(rng, slots) {
                    let (v_fd, m_fd, _) = slots[idx];
                    let len = rng.random_range(0i64..1 << 14);
                    let v = kernel.ftruncate(v_fd, len);
                    let m = model.ftruncate(m_fd, len);
                    compare(&format!("ftruncate(fd, {len})"), v, m, report);
                }
            }
            10 => {
                // namespace ops
                match rng.random_range(0..3u32) {
                    0 => {
                        let v = kernel.mkdir(&path, 0o755);
                        let m = model.mkdir(&path, 0o755);
                        compare(&format!("mkdir({path:?})"), v, m, report);
                    }
                    1 => {
                        let v = kernel.rmdir(&path);
                        let m = model.rmdir(&path);
                        compare(&format!("rmdir({path:?})"), v, m, report);
                    }
                    _ => {
                        let v = kernel.unlink(&path);
                        let m = model.unlink(&path);
                        compare(&format!("unlink({path:?})"), v, m, report);
                    }
                }
            }
            _ => {
                // xattrs
                let name = format!("user.k{}", rng.random_range(0..4u32));
                if rng.random_bool(0.5) {
                    let len = rng.random_range(0..256u64) as usize;
                    let value = vec![b'x'; len];
                    let v = kernel.setxattr(&path, &name, &value, 0);
                    let m = model.setxattr(&path, &name, &value);
                    compare(&format!("setxattr({path:?}, {name})"), v, m, report);
                } else {
                    let v = kernel.getxattr(&path, &name, 4096);
                    let m = model.getxattr(&path, &name);
                    compare(&format!("getxattr({path:?}, {name})"), v, m, report);
                }
            }
        }
    }

    fn compare_final_state(&self, kernel: &mut Kernel, model: &ModelFs, report: &mut DiffReport) {
        for path in model.paths() {
            let expected = model.file_contents(&path);
            let Some(expected) = expected else {
                // A directory: it must exist on the VFS too.
                if kernel.stat(&path) != 0 {
                    report.mismatches.push(Mismatch {
                        op: format!("final-state stat({path:?})"),
                        vfs_ret: kernel.stat(&path),
                        model_ret: 0,
                        kind: MismatchKind::FinalState,
                    });
                }
                continue;
            };
            let fd = kernel.open(&path, 0, 0);
            if fd < 0 {
                report.mismatches.push(Mismatch {
                    op: format!("final-state open({path:?})"),
                    vfs_ret: fd,
                    model_ret: 0,
                    kind: MismatchKind::FinalState,
                });
                continue;
            }
            let mut buf = vec![0u8; expected.len() + 16];
            let n = kernel.read(fd as i32, &mut buf);
            kernel.close(fd as i32);
            if n < 0 || buf[..n as usize] != expected[..] {
                report.mismatches.push(Mismatch {
                    op: format!("final-state contents({path:?})"),
                    vfs_ret: n,
                    model_ret: expected.len() as i64,
                    kind: MismatchKind::FinalState,
                });
            }
        }
    }
}

/// Records a mismatch when raw return values differ.
fn compare(op: &str, vfs_ret: i64, model_ret: i64, report: &mut DiffReport) {
    if vfs_ret != model_ret {
        report.mismatches.push(Mismatch {
            op: op.to_owned(),
            vfs_ret,
            model_ret,
            kind: MismatchKind::ReturnValue,
        });
    }
}

fn pick_slot(rng: &mut StdRng, slots: &[(i32, i32, String)]) -> Option<usize> {
    if slots.is_empty() {
        None
    } else {
        Some(rng.random_range(0..slots.len()))
    }
}

/// Small path pool: a couple of directories, a few file names, depth ≤ 2.
fn random_path(rng: &mut StdRng) -> String {
    let dirs = ["", "/d0", "/d1"];
    let names = ["f0", "f1", "f2", "d0", "d1"];
    let dir = dirs[rng.random_range(0..dirs.len())];
    let name = names[rng.random_range(0..names.len())];
    format!("{dir}/{name}")
}

/// Maps an untested flag name to its bits, if it is model-safe.
fn flag_bits_if_safe(name: &str) -> Option<u32> {
    let bits = iocov_syscalls::OpenFlags::NAMED_FLAGS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f.bits())?;
    SAFE_FLAG_BITS.contains(&bits).then_some(bits)
}

/// Summarizes mismatches per kind (for reporting).
#[must_use]
pub fn mismatch_summary(report: &DiffReport) -> BTreeMap<&'static str, usize> {
    let mut summary = BTreeMap::new();
    for m in &report.mismatches {
        let key = match m.kind {
            MismatchKind::ReturnValue => "return-value",
            MismatchKind::Data => "data",
            MismatchKind::FinalState => "final-state",
        };
        *summary.entry(key).or_insert(0) += 1;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov_faults::{BugSet, BugTrigger, InjectedBug};
    use iocov_vfs::{Errno, FaultAction};

    #[test]
    fn clean_implementations_agree() {
        let report = DiffTester::new(1).rounds(4).ops_per_round(500).run();
        assert!(report.ops_executed >= 2000);
        assert!(
            report.mismatches.is_empty(),
            "first mismatches: {:?}",
            &report.mismatches[..report.mismatches.len().min(5)]
        );
    }

    #[test]
    fn guidance_reduces_untested_buckets() {
        let unguided = DiffTester::new(2).rounds(1).ops_per_round(300).run();
        let guided = DiffTester::new(2).rounds(5).ops_per_round(300).run();
        assert!(
            guided.untested_write_buckets <= unguided.untested_write_buckets,
            "guided {} vs unguided {}",
            guided.untested_write_buckets,
            unguided.untested_write_buckets
        );
    }

    #[test]
    fn finds_injected_wrong_return_bug() {
        // An output bug: large writes report one byte fewer than written.
        let bugs = BugSet::new(vec![InjectedBug::new(
            "short-write",
            "writes of 4 KiB or more return len - 1",
            BugTrigger::SizeAtLeast {
                op: "write",
                size: 4096,
            },
            FaultAction::OverrideReturn(4095),
        )]);
        let report = DiffTester::new(3)
            .rounds(6)
            .ops_per_round(600)
            .with_vfs_hook(bugs.into_hook())
            .run();
        assert!(
            report
                .mismatches
                .iter()
                .any(|m| m.kind == MismatchKind::ReturnValue && m.op.contains("write")),
            "differential testing must catch the wrong-return bug: {:?}",
            mismatch_summary(&report)
        );
    }

    #[test]
    fn finds_injected_wrong_errno_bug() {
        // An input-triggered errno corruption: truncations past a
        // boundary fail EIO instead of succeeding.
        let bugs = BugSet::new(vec![InjectedBug::new(
            "truncate-eio",
            "truncate to length >= 512 fails EIO",
            BugTrigger::SizeAtLeast {
                op: "truncate",
                size: 512,
            },
            FaultAction::FailWith(Errno::EIO),
        )]);
        let report = DiffTester::new(4)
            .rounds(8)
            .ops_per_round(800)
            .with_vfs_hook(bugs.into_hook())
            .run();
        assert!(
            report.found_bugs(),
            "boundary-input errno bug must be caught"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DiffTester::new(9).rounds(2).ops_per_round(100).run();
        let b = DiffTester::new(9).rounds(2).ops_per_round(100).run();
        assert_eq!(a.ops_executed, b.ops_executed);
        assert_eq!(a.mismatches, b.mismatches);
    }

    #[test]
    fn summary_counts_by_kind() {
        let mut report = DiffReport::default();
        report.mismatches.push(Mismatch {
            op: "x".into(),
            vfs_ret: 0,
            model_ret: 1,
            kind: MismatchKind::Data,
        });
        report.mismatches.push(Mismatch {
            op: "y".into(),
            vfs_ret: 0,
            model_ret: 1,
            kind: MismatchKind::Data,
        });
        let summary = mismatch_summary(&report);
        assert_eq!(summary.get("data"), Some(&2));
        assert!(report.found_bugs());
    }
}
