//! Umbrella crate for the IOCov reproduction workspace.
//!
//! This crate exists to host the workspace-level integration tests
//! (`tests/`) and runnable examples (`examples/`); the functionality
//! lives in the member crates, re-exported here for convenience:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `iocov` | input/output coverage analysis (the paper's contribution) |
//! | [`vfs`] | `iocov-vfs` | in-memory POSIX file system substrate |
//! | [`syscalls`] | `iocov-syscalls` | the 27-syscall ABI + trace emission |
//! | [`trace`] | `iocov-trace` | LTTng-substitute recorder and serialization |
//! | [`codecov`] | `iocov-codecov` | Gcov-substitute coverage probes |
//! | [`faults`] | `iocov-faults` | injectable bugs + the §2 bug-study dataset |
//! | [`workloads`] | `iocov-workloads` | CrashMonkey/xfstests/LTP/fuzzer simulators |
//! | [`model`] | `iocov-model` | executable POSIX specification (oracle) |
//! | [`difftest`] | `iocov-difftest` | coverage-guided differential tester |
//!
//! Start with the [`core`] crate's documentation, the repository
//! `README.md`, or `cargo run --example quickstart`.

pub use iocov as core;
pub use iocov_codecov as codecov;
pub use iocov_difftest as difftest;
pub use iocov_faults as faults;
pub use iocov_model as model;
pub use iocov_syscalls as syscalls;
pub use iocov_trace as trace;
pub use iocov_vfs as vfs;
pub use iocov_workloads as workloads;
