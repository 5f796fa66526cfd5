//! The syscall-variant handler.
//!
//! Variants "share almost the same kernel implementation" (§3), so IOCov
//! merges their input and output spaces: `openat2` and `creat` both count
//! toward `open` coverage, with their arguments mapped to the base
//! syscall's argument slots (e.g. `creat` implies
//! `O_CREAT|O_WRONLY|O_TRUNC`).
//!
//! Analysis does not look names up per event. A batch's distinct names
//! are resolved once, by [`CallKind::resolve`](crate::relevance::CallKind),
//! into the call each name is and that call's plan: the arguments it
//! tracks, each with its position in the row, the [`ArgName`] it counts
//! toward and that argument's domain ([`call_plan`]). Per event, only
//! the plan is walked; [`tracked_values`] reads each planned argument
//! from the row's argument slice. [`normalize`] resolves an owned
//! event's name through the same [`Sysno::from_name`] and plan.

use iocov_syscalls::{BaseSyscall, Sysno};
use iocov_trace::{ArgView, Args, EventView};

use crate::arg::{ArgName, TrackedValue};
use crate::domain::{slot_domain, DomainKind, SlotDomain};

/// A trace event normalized to its base syscall with unified argument
/// slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizedCall {
    /// The concrete variant that was invoked.
    pub sysno: Sysno,
    /// The logical syscall it merges into.
    pub base: BaseSyscall,
    /// Raw return value.
    pub retval: i64,
    /// Tracked arguments with decoded values, packed to the front: no
    /// syscall tracks more than two, so the slots live inline.
    pub args: [Option<(ArgName, TrackedValue)>; 2],
}

impl NormalizedCall {
    /// The tracked arguments, in order.
    pub fn tracked_args(&self) -> impl Iterator<Item = (ArgName, TrackedValue)> + '_ {
        self.args.iter().flatten().copied()
    }
}

/// The flags word `creat(2)` implies.
pub const CREAT_IMPLIED_FLAGS: u32 = 0o1101; // O_CREAT | O_WRONLY | O_TRUNC

/// Where a tracked argument's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// The row's argument at this index, read as a flags word.
    Bits(usize),
    /// The row's argument at this index, read as an unsigned number.
    Unsigned(usize),
    /// The row's argument at this index, read as a signed number.
    Signed(usize),
    /// A word the call implies rather than passes (`creat`'s flags).
    Implied(u32),
}

/// One argument a call tracks: where its value comes from, the
/// argument it counts toward and that argument's domain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrackedArg {
    pub(crate) source: Source,
    pub(crate) name: ArgName,
    pub(crate) domain: &'static SlotDomain,
}

impl TrackedArg {
    /// `name`, read from the row's argument at `index` the way its
    /// domain reads values: numbers by their signedness, every other
    /// kind as a word.
    const fn at(index: usize, name: ArgName) -> TrackedArg {
        let domain = slot_domain(name);
        let source = match domain.domain.kind {
            DomainKind::Numeric { signed: true, .. } => Source::Signed(index),
            DomainKind::Numeric { signed: false, .. } => Source::Unsigned(index),
            _ => Source::Bits(index),
        };
        TrackedArg {
            source,
            name,
            domain,
        }
    }

    /// The value in a row with these arguments, or `None` when the
    /// argument is missing, of another type, or out of range.
    #[inline]
    pub(crate) fn value(&self, args: Args<'_>) -> Option<TrackedValue> {
        match self.source {
            Source::Bits(i) => match args.get(i)? {
                ArgView::Flags(v) | ArgView::Mode(v) | ArgView::Whence(v) => {
                    Some(TrackedValue::Bits(v))
                }
                ArgView::UInt(v) => u32::try_from(v).ok().map(TrackedValue::Bits),
                _ => None,
            },
            Source::Unsigned(i) => match args.get(i)? {
                ArgView::UInt(v) => Some(TrackedValue::Unsigned(v)),
                ArgView::Int(v) if v >= 0 => Some(TrackedValue::Unsigned(v as u64)),
                _ => None,
            },
            Source::Signed(i) => match args.get(i)? {
                ArgView::Int(v) => Some(TrackedValue::Signed(v)),
                ArgView::UInt(v) => i64::try_from(v).ok().map(TrackedValue::Signed),
                _ => None,
            },
            Source::Implied(word) => Some(TrackedValue::Bits(word)),
        }
    }
}

/// The arguments `sysno` tracks, in order: variants map their arguments
/// to the base syscall's slots.
pub(crate) fn call_plan(sysno: Sysno) -> &'static [TrackedArg] {
    use ArgName as A;
    const fn at(index: usize, name: ArgName) -> TrackedArg {
        TrackedArg::at(index, name)
    }
    const OPEN: &[TrackedArg] = &[at(1, A::OpenFlags), at(2, A::OpenMode)];
    const OPENAT: &[TrackedArg] = &[at(2, A::OpenFlags), at(3, A::OpenMode)];
    const CREAT: &[TrackedArg] = &[
        TrackedArg {
            source: Source::Implied(CREAT_IMPLIED_FLAGS),
            name: A::OpenFlags,
            domain: slot_domain(A::OpenFlags),
        },
        at(1, A::OpenMode),
    ];
    const READ: &[TrackedArg] = &[at(2, A::ReadCount)];
    const PREAD: &[TrackedArg] = &[at(2, A::ReadCount), at(3, A::ReadOffset)];
    const WRITE: &[TrackedArg] = &[at(2, A::WriteCount)];
    const PWRITE: &[TrackedArg] = &[at(2, A::WriteCount), at(3, A::WriteOffset)];
    const LSEEK: &[TrackedArg] = &[at(1, A::LseekOffset), at(2, A::LseekWhence)];
    const TRUNCATE: &[TrackedArg] = &[at(1, A::TruncateLength)];
    const MKDIR: &[TrackedArg] = &[at(1, A::MkdirMode)];
    const MKDIRAT: &[TrackedArg] = &[at(2, A::MkdirMode)];
    const CHMOD: &[TrackedArg] = &[at(1, A::ChmodMode)];
    const FCHMODAT: &[TrackedArg] = &[at(2, A::ChmodMode)];
    const SETXATTR: &[TrackedArg] = &[at(3, A::SetxattrSize), at(4, A::SetxattrFlags)];
    const GETXATTR: &[TrackedArg] = &[at(3, A::GetxattrSize)];
    match sysno {
        Sysno::Open => OPEN,
        Sysno::Openat | Sysno::Openat2 => OPENAT,
        Sysno::Creat => CREAT,
        Sysno::Read | Sysno::Readv => READ,
        Sysno::Pread64 => PREAD,
        Sysno::Write | Sysno::Writev => WRITE,
        Sysno::Pwrite64 => PWRITE,
        Sysno::Lseek => LSEEK,
        Sysno::Truncate | Sysno::Ftruncate => TRUNCATE,
        Sysno::Mkdir => MKDIR,
        Sysno::Mkdirat => MKDIRAT,
        Sysno::Chmod | Sysno::Fchmod => CHMOD,
        Sysno::Fchmodat => FCHMODAT,
        Sysno::Setxattr | Sysno::Lsetxattr | Sysno::Fsetxattr => SETXATTR,
        Sysno::Getxattr | Sysno::Lgetxattr | Sysno::Fgetxattr => GETXATTR,
        Sysno::Close | Sysno::Chdir | Sysno::Fchdir => &[],
    }
}

/// The values `plan` finds in a row with these arguments, in plan
/// order, each with its plan entry; an argument that is missing, of
/// another type or out of range is left out. The one place tracked
/// arguments are read, for [`normalize`] and for accumulation alike.
#[inline]
pub(crate) fn tracked_values<'a>(
    args: Args<'a>,
    plan: &'static [TrackedArg],
) -> impl Iterator<Item = (&'static TrackedArg, TrackedValue)> + 'a {
    plan.iter()
        .filter_map(move |tracked| Some((tracked, tracked.value(args)?)))
}

/// Normalizes one trace event; returns `None` for syscalls outside the
/// 27-call domain (tester noise like `stat` or `unlink`).
#[must_use]
pub fn normalize<E: EventView + ?Sized>(event: &E) -> Option<NormalizedCall> {
    let sysno = Sysno::from_name(event.name())?;
    let mut args = [None; 2];
    for (slot, (tracked, value)) in args
        .iter_mut()
        .zip(tracked_values(event.args(), call_plan(sysno)))
    {
        *slot = Some((tracked.name, value));
    }
    Some(NormalizedCall {
        sysno,
        base: sysno.base(),
        retval: event.retval(),
        args,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov_trace::{ArgValue, TraceEvent};

    fn event(name: &str, args: Vec<ArgValue>, retval: i64) -> TraceEvent {
        let sysno = Sysno::from_name(name).map_or(999, Sysno::number);
        TraceEvent::build(name, sysno, args, retval)
    }

    fn tracked(call: &NormalizedCall) -> Vec<(ArgName, TrackedValue)> {
        call.tracked_args().collect()
    }

    #[test]
    fn open_variants_merge_to_open() {
        let open = normalize(&event(
            "open",
            vec![
                ArgValue::Path("/f".into()),
                ArgValue::Flags(0o101),
                ArgValue::Mode(0o644),
            ],
            3,
        ))
        .unwrap();
        assert_eq!(open.base, BaseSyscall::Open);
        assert_eq!(
            tracked(&open),
            vec![
                (ArgName::OpenFlags, TrackedValue::Bits(0o101)),
                (ArgName::OpenMode, TrackedValue::Bits(0o644)),
            ]
        );

        let openat = normalize(&event(
            "openat",
            vec![
                ArgValue::Fd(-100),
                ArgValue::Path("f".into()),
                ArgValue::Flags(0o2),
                ArgValue::Mode(0),
            ],
            4,
        ))
        .unwrap();
        assert_eq!(openat.base, BaseSyscall::Open);
        assert_eq!(
            openat.args[0].unwrap(),
            (ArgName::OpenFlags, TrackedValue::Bits(0o2))
        );

        let openat2 = normalize(&event(
            "openat2",
            vec![
                ArgValue::Fd(5),
                ArgValue::Path("f".into()),
                ArgValue::Flags(0),
                ArgValue::Mode(0o600),
                ArgValue::Flags(0x08),
            ],
            -2,
        ))
        .unwrap();
        assert_eq!(openat2.base, BaseSyscall::Open);
        assert_eq!(openat2.retval, -2);
    }

    #[test]
    fn creat_synthesizes_implied_flags() {
        let creat = normalize(&event(
            "creat",
            vec![ArgValue::Path("/f".into()), ArgValue::Mode(0o644)],
            3,
        ))
        .unwrap();
        assert_eq!(creat.base, BaseSyscall::Open);
        assert_eq!(
            creat.args[0].unwrap(),
            (ArgName::OpenFlags, TrackedValue::Bits(CREAT_IMPLIED_FLAGS))
        );
        assert_eq!(
            creat.args[1].unwrap(),
            (ArgName::OpenMode, TrackedValue::Bits(0o644))
        );
        // The implied word decomposes to the documented flags.
        let present = crate::domain::open_flags_present(CREAT_IMPLIED_FLAGS);
        assert_eq!(present, vec!["O_WRONLY", "O_CREAT", "O_TRUNC"]);
    }

    #[test]
    fn read_write_variants_unify_count_slot() {
        for (name, arg) in [
            ("read", ArgName::ReadCount),
            ("readv", ArgName::ReadCount),
            ("write", ArgName::WriteCount),
            ("writev", ArgName::WriteCount),
        ] {
            let call = normalize(&event(
                name,
                vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(4096)],
                4096,
            ))
            .unwrap();
            assert_eq!(
                tracked(&call),
                vec![(arg, TrackedValue::Unsigned(4096))],
                "{name}"
            );
        }
        let pwrite = normalize(&event(
            "pwrite64",
            vec![
                ArgValue::Fd(3),
                ArgValue::Ptr(1),
                ArgValue::UInt(10),
                ArgValue::Int(-1),
            ],
            -22,
        ))
        .unwrap();
        assert_eq!(
            pwrite.args[0].unwrap(),
            (ArgName::WriteCount, TrackedValue::Unsigned(10))
        );
        assert_eq!(
            pwrite.args[1].unwrap(),
            (ArgName::WriteOffset, TrackedValue::Signed(-1))
        );
    }

    #[test]
    fn lseek_tracks_offset_and_whence() {
        let call = normalize(&event(
            "lseek",
            vec![ArgValue::Fd(3), ArgValue::Int(-10), ArgValue::Whence(2)],
            90,
        ))
        .unwrap();
        assert_eq!(
            call.args[0].unwrap(),
            (ArgName::LseekOffset, TrackedValue::Signed(-10))
        );
        assert_eq!(
            call.args[1].unwrap(),
            (ArgName::LseekWhence, TrackedValue::Bits(2))
        );
    }

    #[test]
    fn chmod_variants_unify_mode_slot() {
        let fchmodat = normalize(&event(
            "fchmodat",
            vec![
                ArgValue::Fd(-100),
                ArgValue::Path("/f".into()),
                ArgValue::Mode(0o755),
                ArgValue::Flags(0),
            ],
            0,
        ))
        .unwrap();
        assert_eq!(fchmodat.base, BaseSyscall::Chmod);
        assert_eq!(
            tracked(&fchmodat),
            vec![(ArgName::ChmodMode, TrackedValue::Bits(0o755))]
        );
        let fchmod = normalize(&event(
            "fchmod",
            vec![ArgValue::Fd(4), ArgValue::Mode(0o600)],
            0,
        ))
        .unwrap();
        assert_eq!(
            tracked(&fchmod),
            vec![(ArgName::ChmodMode, TrackedValue::Bits(0o600))]
        );
    }

    #[test]
    fn xattr_variants_unify_size_and_flags() {
        let fset = normalize(&event(
            "fsetxattr",
            vec![
                ArgValue::Fd(4),
                ArgValue::Str("user.k".into()),
                ArgValue::Ptr(1),
                ArgValue::UInt(100),
                ArgValue::Flags(0x1),
            ],
            0,
        ))
        .unwrap();
        assert_eq!(fset.base, BaseSyscall::Setxattr);
        assert_eq!(
            tracked(&fset),
            vec![
                (ArgName::SetxattrSize, TrackedValue::Unsigned(100)),
                (ArgName::SetxattrFlags, TrackedValue::Bits(0x1)),
            ]
        );
        let lget = normalize(&event(
            "lgetxattr",
            vec![
                ArgValue::Path("/f".into()),
                ArgValue::Str("user.k".into()),
                ArgValue::Ptr(1),
                ArgValue::UInt(0),
            ],
            5,
        ))
        .unwrap();
        assert_eq!(lget.base, BaseSyscall::Getxattr);
        assert_eq!(
            tracked(&lget),
            vec![(ArgName::GetxattrSize, TrackedValue::Unsigned(0))]
        );
    }

    #[test]
    fn fd_only_syscalls_have_no_tracked_args() {
        for name in ["close", "chdir", "fchdir"] {
            let call = normalize(&event(name, vec![ArgValue::Fd(3)], 0)).unwrap();
            assert!(tracked(&call).is_empty(), "{name}");
        }
    }

    #[test]
    fn noise_syscalls_are_rejected() {
        assert!(normalize(&event("stat", vec![], 0)).is_none());
        assert!(normalize(&event("unlink", vec![], 0)).is_none());
        assert!(normalize(&event("fsync", vec![], 0)).is_none());
    }

    #[test]
    fn malformed_events_degrade_gracefully() {
        // Missing argument positions simply yield fewer tracked args.
        let call = normalize(&event("open", vec![ArgValue::Path("/f".into())], -2)).unwrap();
        assert!(tracked(&call).is_empty());
        assert_eq!(call.retval, -2);
    }
}
