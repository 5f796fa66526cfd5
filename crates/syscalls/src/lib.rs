//! The file-system syscall ABI over the in-memory VFS.
//!
//! The IOCov paper measures coverage over 27 file-system syscalls: 11
//! base calls (`open`, `read`, `write`, `lseek`, `truncate`, `mkdir`,
//! `chmod`, `close`, `chdir`, `setxattr`, `getxattr`) and their variants
//! (`openat`, `creat`, `openat2`, `pread64`, `readv`, …). This crate
//! provides exactly those entry points — with Linux prototypes, raw
//! argument words, and `-errno` return values — executing against an
//! [`iocov_vfs::Vfs`] and emitting one [`iocov_trace::TraceEvent`] per
//! call.
//!
//! Layering (matching the real stack the paper instruments):
//!
//! ```text
//! workload generators           (CrashMonkey / xfstests simulators)
//!        │ raw syscalls
//!        ▼
//! iocov-syscalls::Kernel        (this crate: ABI marshaling + tracing)
//!        │ typed operations
//!        ▼
//! iocov-vfs::Vfs                (POSIX semantics, errnos, durability)
//! ```
//!
//! # Examples
//!
//! ```
//! use iocov_syscalls::{Kernel, Sysno};
//!
//! let mut kernel = Kernel::new();
//! let fd = kernel.open("/data", 0o102 /* O_CREAT|O_RDWR */, 0o644);
//! assert!(fd >= 0);
//! assert_eq!(kernel.write(fd as i32, b"bytes"), 5);
//! assert_eq!(Sysno::Openat.base(), Sysno::Open.base());
//! ```

mod kernel;
pub mod precond;
mod sysno;

pub use kernel::{Kernel, RawRet};
pub use precond::{errno_by_name, stage_errno, unstage, FdSpec, Probe, ProbeCall};
pub use sysno::{BaseSyscall, Sysno};

// Re-export the VFS vocabulary the ABI layer exposes in its signatures,
// so downstream crates need only this dependency.
pub use iocov_vfs::{Errno, Gid, Mode, OpenFlags, Pid, Uid, Vfs, VfsConfig, Whence, XattrFlags};
