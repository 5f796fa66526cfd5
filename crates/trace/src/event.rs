//! Trace event and argument-value types.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One decoded syscall argument, as an LTTng syscall tracepoint would
/// expose it.
///
/// The variants preserve the semantic category of the raw register value,
/// which the IOCov analyzer needs in order to partition each argument's
/// input space (paths for filtering and identifier coverage, flags/mode
/// words for bitmap coverage, counts/offsets for numeric coverage,
/// categorical selectors for categorical coverage).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArgValue {
    /// A signed integer (offsets, lengths that may be negative in ABI form).
    Int(i64),
    /// An unsigned integer (sizes, counts).
    UInt(u64),
    /// A file descriptor (including `AT_FDCWD` = -100).
    Fd(i32),
    /// A pathname string argument.
    Path(String),
    /// A non-path string argument (e.g. xattr names).
    Str(String),
    /// A flags bitmap word (e.g. `open` flags, `AT_*` flags).
    Flags(u32),
    /// A permission-bits word (`mode_t`).
    Mode(u32),
    /// A categorical selector with a fixed value set (e.g. `lseek` whence).
    Whence(u32),
    /// A userspace pointer; only its null-ness is semantically relevant.
    Ptr(u64),
}

impl ArgValue {
    /// The raw 64-bit register image of this argument, as the kernel ABI
    /// would see it (paths/strings report their length; the analyzer never
    /// uses the register image of pointer arguments).
    #[must_use]
    pub fn raw(&self) -> u64 {
        match self {
            ArgValue::Int(v) => *v as u64,
            ArgValue::UInt(v) => *v,
            ArgValue::Fd(v) => *v as i64 as u64,
            ArgValue::Flags(v) | ArgValue::Mode(v) | ArgValue::Whence(v) => u64::from(*v),
            ArgValue::Ptr(v) => *v,
            ArgValue::Path(s) | ArgValue::Str(s) => s.len() as u64,
        }
    }

    /// The path string, if this argument is a pathname.
    #[must_use]
    pub fn as_path(&self) -> Option<&str> {
        match self {
            ArgValue::Path(p) => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::Int(v) => write!(f, "{v}"),
            ArgValue::UInt(v) => write!(f, "{v}"),
            ArgValue::Fd(v) => write!(f, "fd:{v}"),
            ArgValue::Path(p) => write!(f, "{p:?}"),
            ArgValue::Str(s) => write!(f, "{s:?}"),
            ArgValue::Flags(v) => write!(f, "0x{v:x}"),
            ArgValue::Mode(v) => write!(f, "0o{v:o}"),
            ArgValue::Whence(v) => write!(f, "whence:{v}"),
            ArgValue::Ptr(v) => write!(f, "ptr:0x{v:x}"),
        }
    }
}

/// One traced syscall invocation.
///
/// Field order mirrors an LTTng `syscall_entry`/`syscall_exit` pair merged
/// into a single record: identity (sequence number, timestamp, pid), the
/// syscall name and ABI number, the decoded arguments in prototype order,
/// and the raw return value (`>= 0` success, `< 0` is `-errno`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotonic per-recorder sequence number (assigned on record).
    pub seq: u64,
    /// Logical timestamp in nanoseconds (assigned on record; monotonic).
    pub timestamp_ns: u64,
    /// Process id of the issuing (simulated) process.
    pub pid: u32,
    /// Syscall name, e.g. `"openat2"`.
    pub name: String,
    /// Syscall ABI number (x86-64 numbering where one exists).
    pub sysno: u32,
    /// Decoded arguments in prototype order.
    pub args: Vec<ArgValue>,
    /// Raw return value: `>= 0` on success, `-errno` on failure.
    pub retval: i64,
}

impl TraceEvent {
    /// Builds an event with unassigned identity fields (`seq`,
    /// `timestamp_ns`, `pid` all zero); [`Recorder::record`] fills them in.
    ///
    /// [`Recorder::record`]: crate::Recorder::record
    #[must_use]
    pub fn build(name: &str, sysno: u32, args: Vec<ArgValue>, retval: i64) -> Self {
        TraceEvent {
            seq: 0,
            timestamp_ns: 0,
            pid: 0,
            name: name.to_owned(),
            sysno,
            args,
            retval,
        }
    }

    /// Whether the call succeeded (`retval >= 0`).
    #[must_use]
    pub fn is_success(&self) -> bool {
        self.retval >= 0
    }

    /// The positive errno number if the call failed.
    #[must_use]
    pub fn errno(&self) -> Option<u32> {
        if self.retval < 0 {
            u32::try_from(-self.retval).ok()
        } else {
            None
        }
    }

    /// Iterates over all pathname arguments of the event.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.args.iter().filter_map(ArgValue::as_path)
    }

    /// The first pathname argument, if any. Most file-system syscalls have
    /// at most one; `openat`-style calls put it second after the dirfd.
    #[must_use]
    pub fn primary_path(&self) -> Option<&str> {
        self.paths().next()
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}(", self.seq, self.name)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ") = {}", self.retval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_raw_images() {
        assert_eq!(ArgValue::Int(-1).raw(), u64::MAX);
        assert_eq!(ArgValue::UInt(7).raw(), 7);
        assert_eq!(ArgValue::Fd(-100).raw(), (-100i64) as u64);
        assert_eq!(ArgValue::Flags(0x41).raw(), 0x41);
        assert_eq!(ArgValue::Mode(0o755).raw(), 0o755);
        assert_eq!(ArgValue::Whence(2).raw(), 2);
        assert_eq!(ArgValue::Ptr(0).raw(), 0);
        assert_eq!(ArgValue::Path("/ab".into()).raw(), 3);
    }

    #[test]
    fn arg_accessors_are_typed() {
        assert_eq!(ArgValue::Path("/x".into()).as_path(), Some("/x"));
        assert_eq!(ArgValue::Str("user.k".into()).as_path(), None);
    }

    #[test]
    fn event_success_and_errno() {
        let ok = TraceEvent::build("read", 0, vec![], 42);
        assert!(ok.is_success());
        assert_eq!(ok.errno(), None);
        let err = TraceEvent::build("open", 2, vec![], -2);
        assert!(!err.is_success());
        assert_eq!(err.errno(), Some(2));
    }

    #[test]
    fn event_paths_iteration() {
        let e = TraceEvent::build(
            "openat",
            257,
            vec![
                ArgValue::Fd(-100),
                ArgValue::Path("/mnt/test/a".into()),
                ArgValue::Flags(0),
            ],
            3,
        );
        assert_eq!(e.primary_path(), Some("/mnt/test/a"));
        assert_eq!(e.paths().count(), 1);
    }

    #[test]
    fn event_display_is_strace_like() {
        let e = TraceEvent::build(
            "open",
            2,
            vec![ArgValue::Path("/f".into()), ArgValue::Flags(0x41)],
            -2,
        );
        let s = e.to_string();
        assert!(s.contains("open("));
        assert!(s.contains("\"/f\""));
        assert!(s.contains("0x41"));
        assert!(s.ends_with("= -2"));
    }

    #[test]
    fn arg_display_forms() {
        assert_eq!(ArgValue::Fd(3).to_string(), "fd:3");
        assert_eq!(ArgValue::Mode(0o644).to_string(), "0o644");
        assert_eq!(ArgValue::Whence(1).to_string(), "whence:1");
        assert_eq!(ArgValue::Ptr(16).to_string(), "ptr:0x10");
        assert_eq!(ArgValue::Int(-3).to_string(), "-3");
        assert_eq!(ArgValue::UInt(3).to_string(), "3");
        assert_eq!(ArgValue::Str("k".into()).to_string(), "\"k\"");
    }

    #[test]
    fn event_serde_roundtrip() {
        let e = TraceEvent::build(
            "write",
            1,
            vec![ArgValue::Fd(4), ArgValue::Ptr(1), ArgValue::UInt(4096)],
            4096,
        );
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
