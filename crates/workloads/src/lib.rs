//! Workload simulators for the two file-system test suites the IOCov
//! paper evaluates.
//!
//! * [`XfstestsSim`] — 706 generic + 308 ext4 deterministic regression
//!   tests over nine test families (data I/O, error paths, xattrs,
//!   namespace churn, boundary probes, permissions, syscall variants,
//!   durability, large files).
//! * [`CrashMonkeySim`] — black-box crash-consistency testing: seq-1's
//!   300 workloads plus randomized generic crash tests, each with a
//!   crash-and-remount oracle.
//!
//! Both suites issue *real* syscalls through [`iocov_syscalls::Kernel`]
//! against the in-memory file system; nothing is replayed from tables.
//! Their argument distributions are calibrated (see [`profile`]) so the
//! traces reproduce the shapes of the paper's Figures 2–4 and Table 1,
//! anchored on the two exact counts the paper states in prose.
//!
//! # Examples
//!
//! ```
//! use iocov_workloads::{CrashMonkeySim, TestEnv, MOUNT};
//! use iocov::Iocov;
//!
//! let env = TestEnv::new();
//! let sim = CrashMonkeySim::new(42, 0.02);
//! let result = sim.run(&env);
//! assert!(result.crash_violations.is_empty());
//!
//! let report = Iocov::with_mount_point(MOUNT).unwrap().analyze(&env.take_trace());
//! assert!(report.total_calls() > 0);
//! ```

mod corruption;
mod crashmonkey;
mod env;
pub mod feedback;
mod fuzzer;
mod ltp;
mod many_pid;
pub mod profile;
pub mod sampler;
mod syzlog;
mod xfstests;

pub use corruption::{corrupt_jsonl, CorruptedTrace};
pub use crashmonkey::{CrashMonkeySim, GENERIC_CRASH_TESTS, SEQ1_WORKLOADS};
pub use env::{emit_noise, TestEnv, MOUNT};
pub use feedback::{
    campaign_config, CampaignConfig, CampaignOutcome, FeedbackCampaign, RoundStats,
};
pub use fuzzer::SyzFuzzerSim;
pub use ltp::LtpSim;
pub use many_pid::many_pid_trace;
pub use xfstests::{XfstestsSim, EXT4_TESTS, GENERIC_TESTS};

/// The outcome of running one simulated suite.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuiteResult {
    /// Suite display name.
    pub name: String,
    /// Tests/workloads executed.
    pub tests_run: usize,
    /// Data-verification failures observed while running (how a
    /// regression suite "detects" a bug).
    pub failures: Vec<String>,
    /// Crash-consistency oracle violations (CrashMonkey's detections).
    pub crash_violations: Vec<String>,
}

impl SuiteResult {
    /// An empty result for a named suite.
    #[must_use]
    pub fn new(name: &str) -> Self {
        SuiteResult {
            name: name.to_owned(),
            ..SuiteResult::default()
        }
    }

    /// Whether the suite observed any bug.
    #[must_use]
    pub fn found_bugs(&self) -> bool {
        !self.failures.is_empty() || !self.crash_violations.is_empty()
    }

    /// Merges another result (for chunked runs).
    pub fn merge(&mut self, other: SuiteResult) {
        self.tests_run += other.tests_run;
        self.failures.extend(other.failures);
        self.crash_violations.extend(other.crash_violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_result_merge_and_predicates() {
        let mut a = SuiteResult::new("x");
        assert!(!a.found_bugs());
        a.tests_run = 3;
        let mut b = SuiteResult::new("x");
        b.tests_run = 2;
        b.failures.push("boom".into());
        a.merge(b);
        assert_eq!(a.tests_run, 5);
        assert!(a.found_bugs());
        let mut c = SuiteResult::new("y");
        c.crash_violations.push("lost".into());
        assert!(c.found_bugs());
    }
}
