//! Injectable synthetic bugs.
//!
//! The bug study's central observation — bugs hide in *covered* code and
//! trigger only on specific inputs or corrupt only outputs — is
//! demonstrated live by installing these bugs into the VFS via its
//! [`FaultHook`] interface: the buggy operation's function and branches
//! execute on every call (covered!), but the fault fires only when the
//! trigger predicate matches.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use iocov_vfs::{Errno, FaultAction, FaultHook, OpCtx};

/// The trigger predicate of one synthetic bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BugTrigger {
    /// Fires when `op` is called with exactly this size/count argument
    /// (a boundary-value input bug).
    SizeEquals {
        /// Operation name.
        op: &'static str,
        /// Exact size.
        size: u64,
    },
    /// Fires when `op`'s size argument is at least this large.
    SizeAtLeast {
        /// Operation name.
        op: &'static str,
        /// Inclusive lower bound.
        size: u64,
    },
    /// Fires when `op` is called with all of these flag bits set (a
    /// corner-case flag-combination input bug).
    FlagsContain {
        /// Operation name.
        op: &'static str,
        /// Required bits.
        bits: u32,
    },
    /// Fires when `op`'s path contains a fragment (state-dependent bug).
    PathContains {
        /// Operation name.
        op: &'static str,
        /// Substring to match.
        fragment: &'static str,
    },
    /// Fires when `op`'s offset argument is negative or beyond a bound.
    OffsetBeyond {
        /// Operation name.
        op: &'static str,
        /// Exclusive bound.
        beyond: i64,
    },
}

impl BugTrigger {
    /// Whether the trigger matches an operation context.
    #[must_use]
    pub fn matches(&self, ctx: &OpCtx<'_>) -> bool {
        match self {
            BugTrigger::SizeEquals { op, size } => ctx.op == *op && ctx.size == Some(*size),
            BugTrigger::SizeAtLeast { op, size } => {
                ctx.op == *op && ctx.size.is_some_and(|s| s >= *size)
            }
            BugTrigger::FlagsContain { op, bits } => {
                ctx.op == *op && ctx.flags.is_some_and(|f| f & bits == *bits)
            }
            BugTrigger::PathContains { op, fragment } => {
                ctx.op == *op && ctx.path.is_some_and(|p| p.contains(fragment))
            }
            BugTrigger::OffsetBeyond { op, beyond } => {
                ctx.op == *op && ctx.offset.is_some_and(|o| o > *beyond)
            }
        }
    }
}

/// One injectable bug.
#[derive(Debug)]
pub struct InjectedBug {
    /// Stable identifier.
    pub id: &'static str,
    /// What the bug does, in commit-subject style.
    pub description: &'static str,
    /// When it fires.
    pub trigger: BugTrigger,
    /// What happens when it fires.
    pub action: FaultAction,
    hits: AtomicU64,
}

impl InjectedBug {
    /// Creates a bug.
    #[must_use]
    pub fn new(
        id: &'static str,
        description: &'static str,
        trigger: BugTrigger,
        action: FaultAction,
    ) -> Self {
        InjectedBug {
            id,
            description,
            trigger,
            action,
            hits: AtomicU64::new(0),
        }
    }

    /// How many times the bug fired.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// A set of injected bugs, installable as a VFS fault hook.
///
/// ```
/// use iocov_faults::{BugSet, BugTrigger, InjectedBug};
/// use iocov_vfs::{Errno, FaultAction, Mode, OpenFlags, Vfs, WriteSource};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), iocov_vfs::Errno> {
/// let set = Arc::new(BugSet::new(vec![InjectedBug::new(
///     "demo-1",
///     "write of exactly 131072 bytes fails EIO",
///     BugTrigger::SizeEquals { op: "write", size: 131072 },
///     FaultAction::FailWith(Errno::EIO),
/// )]));
/// let mut fs = Vfs::new();
/// fs.set_fault_hook(set.clone());
/// let pid = fs.default_pid();
/// let fd = fs.open(pid, "/f", OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Mode::from_bits(0o644))?;
/// // Covered code, boundary input -> bug.
/// assert!(fs.write_src(pid, fd, WriteSource::Fill { byte: 0, len: 131072 }).is_err());
/// assert!(fs.write_src(pid, fd, WriteSource::Fill { byte: 0, len: 131071 }).is_ok());
/// assert_eq!(set.bugs()[0].hits(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct BugSet {
    bugs: Vec<InjectedBug>,
}

impl BugSet {
    /// Wraps a list of bugs.
    #[must_use]
    pub fn new(bugs: Vec<InjectedBug>) -> Self {
        BugSet { bugs }
    }

    /// The contained bugs.
    #[must_use]
    pub fn bugs(&self) -> &[InjectedBug] {
        &self.bugs
    }

    /// Bugs that fired at least once.
    #[must_use]
    pub fn triggered(&self) -> Vec<&InjectedBug> {
        self.bugs.iter().filter(|b| b.hits() > 0).collect()
    }

    /// Convenience: wraps in an `Arc` ready for
    /// [`Vfs::set_fault_hook`](iocov_vfs::Vfs::set_fault_hook).
    #[must_use]
    pub fn into_hook(self) -> Arc<BugSet> {
        Arc::new(self)
    }
}

impl FaultHook for BugSet {
    fn intercept(&self, ctx: &OpCtx<'_>) -> Option<FaultAction> {
        for bug in &self.bugs {
            if bug.trigger.matches(ctx) {
                bug.hits.fetch_add(1, Ordering::Relaxed);
                return Some(bug.action);
            }
        }
        None
    }
}

/// A demonstration bug set modelled on the study's bug patterns:
/// boundary-size inputs, corner-case flag combinations, wrong-output
/// exit paths, and lost durability.
#[must_use]
pub fn demo_bugs() -> BugSet {
    BugSet::new(vec![
        InjectedBug::new(
            "inj-write-128k",
            "write of exactly 128 KiB corrupts the return value (one byte short)",
            BugTrigger::SizeEquals {
                op: "write",
                size: 128 * 1024,
            },
            FaultAction::OverrideReturn(128 * 1024 - 1),
        ),
        InjectedBug::new(
            "inj-xattr-space",
            "setxattr at the per-inode space boundary fails EIO instead of ENOSPC",
            BugTrigger::SizeAtLeast {
                op: "lsetxattr",
                size: 4000,
            },
            FaultAction::FailWith(Errno::EIO),
        ),
        InjectedBug::new(
            "inj-sync-append",
            "open with O_SYNC|O_APPEND spuriously fails EINVAL",
            BugTrigger::FlagsContain {
                op: "open",
                bits: 0o4010000 | 0o2000, // O_SYNC | O_APPEND
            },
            FaultAction::FailWith(Errno::EINVAL),
        ),
        InjectedBug::new(
            "inj-fsync-log",
            "fsync on *.log files silently loses durability",
            BugTrigger::PathContains {
                op: "fsync",
                fragment: ".log",
            },
            FaultAction::SkipDurability,
        ),
        InjectedBug::new(
            "inj-read-4g",
            "pread beyond 4 GiB returns corrupted data",
            BugTrigger::OffsetBeyond {
                op: "pread64",
                beyond: (1 << 32) - 1,
            },
            FaultAction::CorruptData,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov_vfs::Pid;

    fn ctx(op: &'static str) -> OpCtx<'static> {
        OpCtx {
            op,
            pid: Some(Pid(1)),
            ..OpCtx::default()
        }
    }

    #[test]
    fn size_equals_fires_only_on_boundary() {
        let t = BugTrigger::SizeEquals {
            op: "write",
            size: 100,
        };
        assert!(t.matches(&OpCtx {
            size: Some(100),
            ..ctx("write")
        }));
        assert!(!t.matches(&OpCtx {
            size: Some(99),
            ..ctx("write")
        }));
        assert!(!t.matches(&OpCtx {
            size: Some(100),
            ..ctx("read")
        }));
        assert!(!t.matches(&ctx("write")));
    }

    #[test]
    fn flags_contain_requires_all_bits() {
        let t = BugTrigger::FlagsContain {
            op: "open",
            bits: 0o3000,
        };
        assert!(t.matches(&OpCtx {
            flags: Some(0o7000),
            ..ctx("open")
        }));
        assert!(!t.matches(&OpCtx {
            flags: Some(0o1000),
            ..ctx("open")
        }));
    }

    #[test]
    fn path_and_offset_triggers() {
        let p = BugTrigger::PathContains {
            op: "fsync",
            fragment: ".log",
        };
        assert!(p.matches(&OpCtx {
            path: Some("/mnt/test/app.log"),
            ..ctx("fsync")
        }));
        assert!(!p.matches(&OpCtx {
            path: Some("/mnt/test/app.dat"),
            ..ctx("fsync")
        }));
        let o = BugTrigger::OffsetBeyond {
            op: "pread64",
            beyond: 100,
        };
        assert!(o.matches(&OpCtx {
            offset: Some(101),
            ..ctx("pread64")
        }));
        assert!(!o.matches(&OpCtx {
            offset: Some(100),
            ..ctx("pread64")
        }));
    }

    #[test]
    fn bugset_first_match_wins_and_counts() {
        let set = BugSet::new(vec![
            InjectedBug::new(
                "a",
                "a",
                BugTrigger::SizeAtLeast {
                    op: "write",
                    size: 10,
                },
                FaultAction::FailWith(Errno::EIO),
            ),
            InjectedBug::new(
                "b",
                "b",
                BugTrigger::SizeAtLeast {
                    op: "write",
                    size: 5,
                },
                FaultAction::FailWith(Errno::ENOSPC),
            ),
        ]);
        let action = set.intercept(&OpCtx {
            size: Some(20),
            ..ctx("write")
        });
        assert_eq!(action, Some(FaultAction::FailWith(Errno::EIO)));
        let action = set.intercept(&OpCtx {
            size: Some(7),
            ..ctx("write")
        });
        assert_eq!(action, Some(FaultAction::FailWith(Errno::ENOSPC)));
        assert_eq!(set.bugs()[0].hits(), 1);
        assert_eq!(set.bugs()[1].hits(), 1);
        assert_eq!(set.triggered().len(), 2);
    }

    #[test]
    fn demo_bugs_are_dormant_without_triggers() {
        let set = demo_bugs();
        assert_eq!(set.bugs().len(), 5);
        assert!(set
            .intercept(&OpCtx {
                size: Some(4096),
                ..ctx("write")
            })
            .is_none());
        assert!(set.triggered().is_empty());
    }

    #[test]
    fn demo_fsync_bug_loses_data_across_crash() {
        use iocov_vfs::{Mode, OpenFlags, Vfs};
        let mut fs = Vfs::new();
        let set = demo_bugs().into_hook();
        fs.set_fault_hook(Arc::clone(&set) as Arc<dyn FaultHook>);
        let pid = fs.default_pid();
        fs.sync();
        // A .log file whose fsync is silently broken.
        let fd = fs
            .open(
                pid,
                "/app.log",
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Mode::from_bits(0o644),
            )
            .unwrap();
        fs.write(pid, fd, b"precious").unwrap();
        assert_eq!(fs.fsync(pid, fd), Ok(()), "bug reports success");
        fs.crash();
        assert!(
            fs.open(pid, "/app.log", OpenFlags::O_RDONLY, Mode::from_bits(0))
                .is_err(),
            "data lost despite successful fsync"
        );
        assert_eq!(set.bugs()[3].hits(), 1);
    }
}
