//! Property: resolving names once per batch changes nothing. Owned
//! [`StreamingAnalyzer::push`] resolves each event's name as it comes;
//! the batch scan resolves each batch's name table once and looks rows
//! up by name id, keeps a last-pid cache in front of the pid map and a
//! dense descriptor table in front of each pid's descriptor map. Over
//! streams of in-domain, out-of-domain and provenance calls (dup, close,
//! chdir, fchdir) from pids that switch back and forth, with low, high,
//! negative and `AT_FDCWD` descriptors, split into batches whose name
//! tables differ, the report and the `--metrics` funnel serialize to the
//! same bytes:
//!
//! * from one analyzer scanning the batches, with its pid states
//!   snapshotted and restored at a chosen batch (restore must drop the
//!   last-pid cache, since it lays the states out anew);
//! * from a session, which coalesces batches below the parallel
//!   threshold by re-interning their names.
//!
//! Per-name plans change nothing either: over rows of every in-domain
//! call whose arguments are missing, of the wrong type or out of range,
//! [`normalize`] — the plan walk accumulation shares — keeps and drops
//! exactly the arguments the per-call match it replaced did, and such
//! rows scanned in batches still match owned pushes.

use std::sync::Arc;

use crate::variants::{normalize, NormalizedCall, CREAT_IMPLIED_FLAGS};
use crate::{
    ArgName, PipelineBuilder, PipelineMetrics, StreamingAnalyzer, TraceFilter, TrackedValue,
};
use iocov_syscalls::Sysno;
use iocov_trace::{ArgValue, ArgView, EventBatch, EventView, TraceEvent};
use proptest::prelude::*;

const MOUNT: &str = "/mnt/test";

/// Descriptors: low, at and past the dense floor, far past it,
/// negative, and `AT_FDCWD`.
const FDS: [i32; 9] = [3, 4, 9, 63, 64, 65, 300, -5, -100];

const PATHS: [&str; 5] = ["/mnt/test/a", "/mnt/test/d/e", "/etc/noise", "rel/f", "f"];

fn fd() -> impl Strategy<Value = i32> {
    (0..FDS.len()).prop_map(|i| FDS[i])
}

fn path() -> impl Strategy<Value = String> {
    (0..PATHS.len()).prop_map(|i| PATHS[i].to_owned())
}

fn retval() -> impl Strategy<Value = i64> {
    prop_oneof![
        (0..FDS.len()).prop_map(|i| i64::from(FDS[i].max(0))),
        Just(-2i64),
        Just(-9),
        Just(4096),
    ]
}

fn event() -> impl Strategy<Value = TraceEvent> {
    let call = prop_oneof![
        (0usize..4, path(), fd(), any::<u16>()).prop_map(|(v, path, dirfd, flags)| {
            let flags = ArgValue::Flags(u32::from(flags));
            let mode = ArgValue::Mode(0o644);
            match v {
                0 => ("open", vec![ArgValue::Path(path), flags, mode]),
                1 => (
                    "openat",
                    vec![ArgValue::Fd(dirfd), ArgValue::Path(path), flags, mode],
                ),
                2 => ("creat", vec![ArgValue::Path(path), mode]),
                _ => (
                    "openat2",
                    vec![ArgValue::Fd(dirfd), ArgValue::Path(path), flags, mode],
                ),
            }
        }),
        (0usize..3, fd(), fd()).prop_map(|(v, old, new)| {
            let name = ["dup", "dup2", "dup3"][v];
            (name, vec![ArgValue::Fd(old), ArgValue::Fd(new)])
        }),
        fd().prop_map(|fd| ("close", vec![ArgValue::Fd(fd)])),
        path().prop_map(|path| ("chdir", vec![ArgValue::Path(path)])),
        fd().prop_map(|fd| ("fchdir", vec![ArgValue::Fd(fd)])),
        (0usize..4, fd(), 0u64..70_000).prop_map(|(v, fd, count)| {
            let name = ["read", "write", "pread64", "pwrite64"][v];
            let mut args = vec![ArgValue::Fd(fd), ArgValue::Ptr(1), ArgValue::UInt(count)];
            if v >= 2 {
                args.push(ArgValue::Int(-1));
            }
            (name, args)
        }),
        (fd(), 0u32..6).prop_map(|(fd, whence)| {
            let args = vec![
                ArgValue::Fd(fd),
                ArgValue::Int(-10),
                ArgValue::Whence(whence),
            ];
            ("lseek", args)
        }),
        (path(), fd()).prop_map(|(path, dirfd)| {
            let args = vec![
                ArgValue::Fd(dirfd),
                ArgValue::Path(path),
                ArgValue::Mode(0o755),
            ];
            ("mkdirat", args)
        }),
        (0usize..3, path(), fd()).prop_map(|(v, path, fd)| {
            let name = ["stat", "unlink", "fsync"][v];
            let args = if v == 2 {
                vec![ArgValue::Fd(fd)]
            } else {
                vec![ArgValue::Path(path)]
            };
            (name, args)
        }),
        malformed(),
    ];
    (call, prop_oneof![Just(1u32), Just(2), Just(7)], retval()).prop_map(
        |((name, args), pid, retval)| {
            let mut event = TraceEvent::build(name, 0, args, retval);
            event.pid = pid;
            event
        },
    )
}

/// Any argument, with values at and past the edges a tracked argument
/// is read within: words past `u32`, unsigned past `i64`, negatives.
fn any_arg() -> impl Strategy<Value = ArgValue> {
    let int = prop_oneof![
        Just(-1i64),
        Just(0),
        Just(i64::MIN),
        Just(i64::MAX),
        any::<i64>()
    ];
    let uint = prop_oneof![
        Just(0u64),
        Just(u64::from(u32::MAX)),
        Just(u64::from(u32::MAX) + 1),
        Just(i64::MAX as u64),
        Just(i64::MAX as u64 + 1),
        Just(u64::MAX),
        any::<u64>(),
    ];
    prop_oneof![
        int.prop_map(ArgValue::Int),
        uint.prop_map(ArgValue::UInt),
        fd().prop_map(ArgValue::Fd),
        path().prop_map(ArgValue::Path),
        Just(ArgValue::Str("user.k".into())),
        any::<u32>().prop_map(ArgValue::Flags),
        any::<u32>().prop_map(ArgValue::Mode),
        (0u32..8).prop_map(ArgValue::Whence),
        any::<u64>().prop_map(ArgValue::Ptr),
    ]
}

/// An in-domain call whose arguments are any number of anything.
fn malformed() -> impl Strategy<Value = (&'static str, Vec<ArgValue>)> {
    (
        (0..Sysno::ALL.len()).prop_map(|i| Sysno::ALL[i].name()),
        proptest::collection::vec(any_arg(), 0..7),
    )
}

/// The per-call match the plans replaced, kept as the referee: which
/// argument each call tracks, read how.
fn normalize_by_match(event: &TraceEvent) -> Option<NormalizedCall> {
    fn bits(event: &TraceEvent, idx: usize) -> Option<TrackedValue> {
        match event.arg(idx)? {
            ArgView::Flags(v) | ArgView::Mode(v) | ArgView::Whence(v) => {
                Some(TrackedValue::Bits(v))
            }
            ArgView::UInt(v) => u32::try_from(v).ok().map(TrackedValue::Bits),
            _ => None,
        }
    }
    fn unsigned(event: &TraceEvent, idx: usize) -> Option<TrackedValue> {
        match event.arg(idx)? {
            ArgView::UInt(v) => Some(TrackedValue::Unsigned(v)),
            ArgView::Int(v) if v >= 0 => Some(TrackedValue::Unsigned(v as u64)),
            _ => None,
        }
    }
    fn signed(event: &TraceEvent, idx: usize) -> Option<TrackedValue> {
        match event.arg(idx)? {
            ArgView::Int(v) => Some(TrackedValue::Signed(v)),
            ArgView::UInt(v) => i64::try_from(v).ok().map(TrackedValue::Signed),
            _ => None,
        }
    }
    let sysno = Sysno::from_name(&event.name)?;
    let e = event;
    let tracked: Vec<(ArgName, Option<TrackedValue>)> = match sysno {
        Sysno::Open => vec![
            (ArgName::OpenFlags, bits(e, 1)),
            (ArgName::OpenMode, bits(e, 2)),
        ],
        Sysno::Openat | Sysno::Openat2 => vec![
            (ArgName::OpenFlags, bits(e, 2)),
            (ArgName::OpenMode, bits(e, 3)),
        ],
        Sysno::Creat => vec![
            (
                ArgName::OpenFlags,
                Some(TrackedValue::Bits(CREAT_IMPLIED_FLAGS)),
            ),
            (ArgName::OpenMode, bits(e, 1)),
        ],
        Sysno::Read | Sysno::Readv => vec![(ArgName::ReadCount, unsigned(e, 2))],
        Sysno::Pread64 => vec![
            (ArgName::ReadCount, unsigned(e, 2)),
            (ArgName::ReadOffset, signed(e, 3)),
        ],
        Sysno::Write | Sysno::Writev => vec![(ArgName::WriteCount, unsigned(e, 2))],
        Sysno::Pwrite64 => vec![
            (ArgName::WriteCount, unsigned(e, 2)),
            (ArgName::WriteOffset, signed(e, 3)),
        ],
        Sysno::Lseek => vec![
            (ArgName::LseekOffset, signed(e, 1)),
            (ArgName::LseekWhence, bits(e, 2)),
        ],
        Sysno::Truncate | Sysno::Ftruncate => vec![(ArgName::TruncateLength, signed(e, 1))],
        Sysno::Mkdir => vec![(ArgName::MkdirMode, bits(e, 1))],
        Sysno::Mkdirat => vec![(ArgName::MkdirMode, bits(e, 2))],
        Sysno::Chmod | Sysno::Fchmod => vec![(ArgName::ChmodMode, bits(e, 1))],
        Sysno::Fchmodat => vec![(ArgName::ChmodMode, bits(e, 2))],
        Sysno::Setxattr | Sysno::Lsetxattr | Sysno::Fsetxattr => vec![
            (ArgName::SetxattrSize, unsigned(e, 3)),
            (ArgName::SetxattrFlags, bits(e, 4)),
        ],
        Sysno::Getxattr | Sysno::Lgetxattr | Sysno::Fgetxattr => {
            vec![(ArgName::GetxattrSize, unsigned(e, 3))]
        }
        Sysno::Close | Sysno::Chdir | Sysno::Fchdir => vec![],
    };
    let mut args = [None; 2];
    let kept = tracked
        .into_iter()
        .filter_map(|(name, value)| Some((name, value?)));
    for (slot, arg) in args.iter_mut().zip(kept) {
        *slot = Some(arg);
    }
    Some(NormalizedCall {
        sysno,
        base: sysno.base(),
        retval: event.retval,
        args,
    })
}

/// Splits `events` at the given sizes (cycled) into batches.
fn batches(events: &[TraceEvent], sizes: &[usize]) -> Vec<EventBatch> {
    let mut out = Vec::new();
    let mut rest = events;
    let mut i = 0;
    while !rest.is_empty() {
        let take = sizes[i % sizes.len()].min(rest.len());
        out.push(EventBatch::from_events(&rest[..take]));
        rest = &rest[take..];
        i += 1;
    }
    out
}

fn analyzer() -> StreamingAnalyzer {
    StreamingAnalyzer::new(TraceFilter::mount_point(MOUNT).unwrap())
}

/// The analyzer's report and funnel, serialized.
fn bytes(analyzer: StreamingAnalyzer) -> (String, String) {
    let funnel = serde_json::to_string(&analyzer.funnel()).unwrap();
    (
        serde_json::to_string_pretty(&analyzer.finish()).unwrap(),
        funnel,
    )
}

proptest! {
    #[test]
    fn batch_scan_matches_owned_push(
        events in proptest::collection::vec(event(), 0..120),
        sizes in proptest::collection::vec(1usize..24, 1..6),
        restore_at in 0usize..12,
    ) {
        let mut owned = analyzer();
        for event in &events {
            owned.push(event);
        }
        let expected = bytes(owned);

        let mut scan = analyzer();
        for (i, batch) in batches(&events, &sizes).iter().enumerate() {
            if i == restore_at {
                let states = scan.pid_states();
                scan.restore_pid_states(&states);
            }
            scan.push_batch(batch);
        }
        prop_assert_eq!(&bytes(scan), &expected);

        let metrics = Arc::new(PipelineMetrics::default());
        let mut session = PipelineBuilder::new(TraceFilter::mount_point(MOUNT).unwrap())
            .mount(Some(MOUNT.to_owned()))
            .metrics(Arc::clone(&metrics))
            .build_session();
        for batch in batches(&events, &sizes) {
            session.feed(batch);
        }
        let (report, failures) = session.finish();
        prop_assert!(failures.is_empty());
        // Sessions also count the batches they were fed.
        let mut snapshot = metrics.snapshot();
        prop_assert_eq!(snapshot.batched_events, events.len() as u64);
        snapshot.batched_events = 0;
        snapshot.allocs_estimated = 0;
        prop_assert_eq!(
            &(
                serde_json::to_string_pretty(&report).unwrap(),
                serde_json::to_string(&snapshot).unwrap(),
            ),
            &expected
        );
    }

    #[test]
    fn plans_read_exactly_what_the_per_call_match_read(
        (name, args) in malformed(),
        retval in retval(),
    ) {
        let event = TraceEvent::build(name, 0, args, retval);
        let planned = normalize(&event);
        prop_assert_eq!(&planned, &normalize_by_match(&event));
        // The batch row reads the same arguments as the owned event.
        let batch = EventBatch::from_events(std::slice::from_ref(&event));
        prop_assert_eq!(&normalize(&batch.get(0).unwrap()), &planned);
    }
}
