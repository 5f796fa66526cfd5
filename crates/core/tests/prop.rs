//! Property-based tests for the IOCov analyzer.

use iocov::tcd::tcd;
use iocov::{
    arg_domain, normalize, open_flags_present, output_buckets_bytes, AnalysisReport, ArgName,
    ComboCoverage, FdPartition, FilterStats, IdentifierCoverage, InputPartition, Iocov,
    NumericPartition, OutputPartition, PathPartition, PipelineBuilder, StreamingAnalyzer,
    TraceFilter, TrackedValue,
};
use iocov_syscalls::Sysno;
use iocov_trace::{ArgValue, Trace, TraceEvent};
use proptest::prelude::*;

/// One argument of any shape, weighted toward the edges the dense
/// accumulator must get right: flag words, bits given as `UInt` above
/// `u32::MAX`, negative sizes and offsets, and out-of-range whence.
fn arb_arg() -> impl Strategy<Value = ArgValue> {
    prop_oneof![
        any::<u32>().prop_map(ArgValue::Flags),
        any::<u32>().prop_map(ArgValue::Mode),
        prop_oneof![0u32..5, any::<u32>()].prop_map(ArgValue::Whence),
        prop_oneof![
            0u64..70_000,
            (u64::from(u32::MAX) + 1)..=u64::MAX,
            any::<u64>()
        ]
        .prop_map(ArgValue::UInt),
        prop_oneof![-70_000i64..70_000, Just(i64::MIN), any::<i64>()].prop_map(ArgValue::Int),
        (-100i32..20).prop_map(ArgValue::Fd),
        Just(ArgValue::Path("/mnt/test/f".into())),
        Just(ArgValue::Ptr(1)),
    ]
}

/// Return values: successes of every size, known and unknown errnos,
/// and the extremes.
fn arb_retval() -> impl Strategy<Value = i64> {
    prop_oneof![
        -140i64..70_000,
        Just(i64::MIN),
        Just(i64::MAX),
        Just(-i64::from(u32::MAX) - 7),
        any::<i64>(),
    ]
}

/// `(args, retval)` for one event; up to six arguments, so trailing
/// tracked positions are sometimes missing.
fn arb_call() -> impl Strategy<Value = (Vec<ArgValue>, i64)> {
    (proptest::collection::vec(arb_arg(), 0..6), arb_retval())
}

/// The report built from the public string-keyed API alone —
/// `ArgDomain::partitions_of`, `OutputPartition::of` and
/// `open_flags_present` into plain `BTreeMap`s — as a referee for the
/// dense accumulator.
fn oracle_report(events: &[TraceEvent]) -> AnalysisReport {
    let mut report = AnalysisReport {
        filter_stats: FilterStats {
            total: events.len(),
            kept: events.len(),
            dropped: 0,
        },
        ..AnalysisReport::default()
    };
    for event in events {
        let Some(call) = normalize(event) else {
            continue;
        };
        *report
            .calls_per_variant
            .entry(call.sysno.name().to_owned())
            .or_insert(0) += 1;
        for (arg, value) in call.tracked_args() {
            let cov = report.input.entry(arg).or_default();
            cov.calls += 1;
            for partition in arg_domain(arg).partitions_of(value) {
                *cov.counts.entry(partition).or_insert(0) += 1;
            }
            if let (ArgName::OpenFlags, TrackedValue::Bits(bits)) = (arg, value) {
                let present = open_flags_present(bits);
                let combos = &mut report.open_combos;
                if !present.is_empty() {
                    *combos.sizes.entry(present.len()).or_insert(0) += 1;
                    if present.contains(&"O_RDONLY") {
                        *combos.sizes_with_rdonly.entry(present.len()).or_insert(0) += 1;
                    }
                }
            }
        }
        let cov = report
            .output
            .entry(call.base.name().to_owned())
            .or_default();
        cov.calls += 1;
        let partition = OutputPartition::of(call.retval, output_buckets_bytes(call.base));
        *cov.counts.entry(partition).or_insert(0) += 1;
    }
    report
}

/// One synthetic syscall for the concurrency-equivalence property:
/// opens (absolute inside/outside the mount, or relative), `dup`/`dup2`,
/// writes, two-path renames crossing the mount boundary, `chdir`, and
/// `close` — everything the provenance tracker handles — attributed to
/// one of five pids.
fn arb_provenance_event() -> impl Strategy<Value = TraceEvent> {
    let op = prop_oneof![
        (0u8..4, "[a-z]{1,4}", 3i64..10).prop_map(|(root, name, fd)| {
            let path = match root {
                0 => format!("/mnt/test/{name}"),
                1 => format!("/etc/{name}"),
                2 => name, // relative: resolves through the pid's cwd
                _ => format!("/mnt/test/sub/{name}"),
            };
            TraceEvent::build(
                "open",
                2,
                vec![
                    ArgValue::Path(path),
                    ArgValue::Flags(0o101),
                    ArgValue::Mode(0o644),
                ],
                fd,
            )
        }),
        (3i32..10, 3i32..12).prop_map(|(old, new)| TraceEvent::build(
            "dup2",
            33,
            vec![ArgValue::Fd(old), ArgValue::Fd(new)],
            i64::from(new),
        )),
        (3i32..10, 3i32..12).prop_map(|(old, new)| TraceEvent::build(
            "dup",
            32,
            vec![ArgValue::Fd(old)],
            i64::from(new),
        )),
        (3i32..12, 0u32..20).prop_map(|(fd, shift)| TraceEvent::build(
            "write",
            1,
            vec![
                ArgValue::Fd(fd),
                ArgValue::Ptr(1),
                ArgValue::UInt(1u64 << shift)
            ],
            1i64 << shift,
        )),
        ("[a-z]{1,4}", "[a-z]{1,4}", 0u8..2).prop_map(|(a, b, into)| {
            let (src, dst) = if into == 0 {
                (format!("/tmp/{a}"), format!("/mnt/test/{b}"))
            } else {
                (format!("/mnt/test/{a}"), format!("/tmp/{b}"))
            };
            TraceEvent::build(
                "rename",
                82,
                vec![ArgValue::Path(src), ArgValue::Path(dst)],
                0,
            )
        }),
        (0u8..2).prop_map(|inside| TraceEvent::build(
            "chdir",
            80,
            vec![ArgValue::Path(if inside == 0 {
                "/mnt/test".into()
            } else {
                "/home".into()
            })],
            0,
        )),
        (3i32..12).prop_map(|fd| TraceEvent::build("close", 3, vec![ArgValue::Fd(fd)], 0)),
    ];
    (0u32..5, op).prop_map(|(pid, mut event)| {
        event.pid = pid;
        event
    })
}

fn open_event(path: String, flags: u32, retval: i64) -> TraceEvent {
    TraceEvent::build(
        "open",
        2,
        vec![
            ArgValue::Path(path),
            ArgValue::Flags(flags),
            ArgValue::Mode(0o644),
        ],
        retval,
    )
}

/// Identifier coverage as the whole-trace scan that preceded the session
/// path counted it: every fd and pathname argument of every event of a
/// modelled syscall.
fn oracle_identifiers(events: &[TraceEvent]) -> IdentifierCoverage {
    let mut cov = IdentifierCoverage::default();
    for event in events {
        if Sysno::from_name(&event.name).is_none() {
            continue;
        }
        let mut contributed = false;
        for arg in &event.args {
            match arg {
                ArgValue::Fd(fd) => {
                    *cov.fd.entry(FdPartition::of(*fd)).or_insert(0) += 1;
                    contributed = true;
                }
                ArgValue::Path(path) => {
                    for p in PathPartition::of(path) {
                        *cov.path.entry(p).or_insert(0) += 1;
                    }
                    contributed = true;
                }
                _ => {}
            }
        }
        if contributed {
            cov.calls += 1;
        }
    }
    cov
}

/// Combination coverage as the whole-trace scan counted it, one `open`
/// flags word at a time.
fn oracle_combos(events: &[TraceEvent]) -> ComboCoverage {
    let mut cov = ComboCoverage::default();
    for call in events.iter().filter_map(normalize) {
        for (arg, value) in call.tracked_args() {
            let (ArgName::OpenFlags, TrackedValue::Bits(bits)) = (arg, value) else {
                continue;
            };
            let present = open_flags_present(bits);
            if present.is_empty() {
                continue;
            }
            cov.calls += 1;
            let combo = present.iter().map(|f| (*f).to_owned()).collect();
            *cov.exact.entry(combo).or_insert(0) += 1;
            for (i, a) in present.iter().enumerate() {
                for b in &present[i + 1..] {
                    let pair = if a <= b { (a, b) } else { (b, a) };
                    let pair = ((*pair.0).to_owned(), (*pair.1).to_owned());
                    *cov.pairs.entry(pair).or_insert(0) += 1;
                }
            }
        }
    }
    cov
}

/// A keep-all session with identifier and combination coverage on, fed
/// `events` in one batch.
fn extended_report(events: &[TraceEvent]) -> AnalysisReport {
    let mut session = PipelineBuilder::new(TraceFilter::keep_all())
        .extended_coverage()
        .build_session();
    session.feed_owned(events.to_vec());
    session.finish().0
}

/// Filters a trace through `StreamingAnalyzer::push`, returning the
/// kept events and the filter statistics.
fn apply(filter: &TraceFilter, trace: &Trace) -> (Trace, FilterStats) {
    let mut analyzer = StreamingAnalyzer::new(filter.clone());
    let kept = trace.iter().filter(|e| analyzer.push(*e)).cloned();
    let kept = Trace::from_events(kept.collect());
    (kept, analyzer.finish().filter_stats)
}

proptest! {
    /// Numeric partitioning is total and monotone: every value lands in
    /// exactly one bucket, and buckets respect ordering.
    #[test]
    fn numeric_partition_total_and_monotone(a in any::<i64>(), b in any::<i64>()) {
        let pa = NumericPartition::of(i128::from(a));
        let pb = NumericPartition::of(i128::from(b));
        if a == b {
            prop_assert_eq!(pa, pb);
        }
        // Lower bounds are consistent with membership.
        if let Some(lo) = pa.lower_bound() {
            prop_assert!(a >= 0);
            prop_assert!(u128::try_from(a).unwrap() >= lo || a == 0);
        } else {
            prop_assert!(a < 0);
        }
    }

    /// Bucket index grows monotonically with the value.
    #[test]
    fn numeric_buckets_monotone_in_value(a in 1u64..u64::MAX / 2) {
        let b = a * 2;
        let pa = NumericPartition::of(i128::from(a));
        let pb = NumericPartition::of(i128::from(b));
        match (pa, pb) {
            (NumericPartition::Log2(ka), NumericPartition::Log2(kb)) => {
                prop_assert_eq!(kb, ka + 1, "doubling advances exactly one bucket");
            }
            other => prop_assert!(false, "unexpected partitions {:?}", other),
        }
    }

    /// Flag decomposition never invents flags: every reported flag's bits
    /// are present in the word, and exactly one access mode is reported.
    #[test]
    fn open_flag_decomposition_is_sound(bits in any::<u32>()) {
        let present = open_flags_present(bits);
        let modes = ["O_RDONLY", "O_WRONLY", "O_RDWR"];
        let mode_count = present.iter().filter(|f| modes.contains(f)).count();
        // Access mode 3 is invalid and reports no mode; otherwise one.
        if bits & 3 == 3 {
            prop_assert_eq!(mode_count, 0);
        } else {
            prop_assert_eq!(mode_count, 1);
        }
        for flag in &present {
            if let Some((_, f)) = iocov_syscalls::OpenFlags::NAMED_FLAGS
                .iter()
                .find(|(n, _)| n == flag)
            {
                if f.bits() != 0 {
                    prop_assert_eq!(bits & f.bits(), f.bits(), "{} bits present", flag);
                }
            }
        }
    }

    /// Partitioning a value always produces partitions inside the
    /// argument's enumerable domain (for bitmap/categorical kinds) or a
    /// single numeric bucket.
    #[test]
    fn partitions_of_stay_in_domain(arg_idx in 0usize..14, value in any::<u32>()) {
        let arg = ArgName::ALL[arg_idx];
        let domain = arg_domain(arg);
        let parts = domain.partitions_of(TrackedValue::Bits(value));
        for p in &parts {
            match p {
                InputPartition::Numeric(_) => {} // numeric buckets may exceed display range
                other => {
                    prop_assert!(
                        domain.all_partitions().contains(other),
                        "{:?} outside domain of {}",
                        other,
                        arg
                    );
                }
            }
        }
    }

    /// Output partitioning is total: any retval maps to OK or an errno.
    #[test]
    fn output_partition_total(retval in any::<i64>(), buckets in any::<bool>()) {
        let p = OutputPartition::of(retval, buckets);
        prop_assert_eq!(p.is_success(), retval >= 0);
    }

    /// TCD is non-negative, zero only at the target, and symmetric under
    /// common scaling direction (log property).
    #[test]
    fn tcd_basic_properties(freqs in proptest::collection::vec(0u64..1_000_000, 1..20), target in 0u64..1_000_000) {
        let targets = vec![target; freqs.len()];
        let value = tcd(&freqs, &targets);
        prop_assert!(value >= 0.0);
        let exact = tcd(&targets, &targets);
        prop_assert!(exact.abs() < 1e-12);
        if freqs == targets {
            prop_assert!(value.abs() < 1e-12);
        }
    }

    /// Analyzing a concatenated trace equals merging the two reports.
    #[test]
    fn analysis_merge_is_homomorphic(
        flags_a in proptest::collection::vec(0u32..0x4000, 0..20),
        flags_b in proptest::collection::vec(0u32..0x4000, 0..20),
    ) {
        let analyzer = Iocov::new();
        let trace_a: Trace = flags_a.iter().map(|&f| open_event("/a".into(), f, 3)).collect();
        let trace_b: Trace = flags_b.iter().map(|&f| open_event("/b".into(), f, -2)).collect();
        let mut combined_events = trace_a.clone().into_events();
        combined_events.extend(trace_b.clone().into_events());
        let whole = analyzer.analyze(&Trace::from_events(combined_events));
        let mut merged = analyzer.analyze(&trace_a);
        merged.merge(&analyzer.analyze(&trace_b));
        prop_assert_eq!(whole.input, merged.input);
        prop_assert_eq!(whole.output, merged.output);
        prop_assert_eq!(whole.open_combos, merged.open_combos);

        // The same over identifier and combination coverage.
        let whole = extended_report(&[trace_a.events(), trace_b.events()].concat());
        let mut merged = extended_report(trace_a.events());
        merged.merge(&extended_report(trace_b.events()));
        prop_assert!(whole.identifiers.is_some() && whole.combos.is_some());
        prop_assert_eq!(whole.identifiers, merged.identifiers);
        prop_assert_eq!(whole.combos, merged.combos);
    }

    /// Filtering is idempotent: applying the same filter twice keeps the
    /// same events.
    #[test]
    fn filter_is_idempotent(paths in proptest::collection::vec("[a-z]{1,6}", 1..20)) {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let events: Vec<TraceEvent> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let path = if i % 2 == 0 {
                    format!("/mnt/test/{p}")
                } else {
                    format!("/other/{p}")
                };
                open_event(path, 0, 3 + i as i64)
            })
            .collect();
        let trace = Trace::from_events(events);
        let (once, stats1) = apply(&filter, &trace);
        let (twice, stats2) = apply(&filter, &once);
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(stats1.kept, stats2.kept);
        prop_assert_eq!(stats2.dropped, 0);
    }

    /// Serial batch, streaming under arbitrary chunking, and a session
    /// under the same chunking produce the identical report on
    /// multi-pid traces full of dup/rename/chdir interleavings.
    #[test]
    fn serial_streaming_session_reports_agree(
        events in proptest::collection::vec(arb_provenance_event(), 0..120),
        chunk in 1usize..17,
    ) {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(events.clone());
        let serial = Iocov::with_filter(filter.clone()).analyze(&trace);

        let mut streaming = StreamingAnalyzer::new(filter.clone());
        for part in events.chunks(chunk) {
            streaming.push_all(part);
        }
        prop_assert_eq!(&serial, &streaming.finish());

        let mut session = PipelineBuilder::new(filter.clone()).build_session();
        for part in events.chunks(chunk) {
            session.feed_owned(part.to_vec());
        }
        let (report, failures) = session.finish();
        prop_assert!(failures.is_empty());
        prop_assert_eq!(&serial, &report);

        // With identifier and combination coverage on, the session
        // counts what the old whole-trace scans counted over the kept
        // events, and the rest of the report is unchanged.
        let kept = apply(&filter, &trace).0.into_events();
        let mut session = PipelineBuilder::new(filter.clone())
            .extended_coverage()
            .build_session();
        for part in events.chunks(chunk) {
            session.feed_owned(part.to_vec());
        }
        let (mut report, failures) = session.finish();
        prop_assert!(failures.is_empty());
        prop_assert_eq!(report.identifiers.take(), Some(oracle_identifiers(&kept)));
        prop_assert_eq!(report.combos.take(), Some(oracle_combos(&kept)));
        prop_assert_eq!(&serial, &report);
    }

    /// The dense-slot accumulator agrees with the string-keyed oracle on
    /// arbitrary events: every `Sysno` (each case calls all 27) plus
    /// out-of-domain noise, with arbitrary, missing and out-of-range
    /// arguments and return values — in value and in serialized bytes.
    #[test]
    fn dense_report_matches_string_keyed_oracle(
        per_sysno in proptest::collection::vec(arb_call(), Sysno::ALL.len()),
        extra in proptest::collection::vec((0usize..Sysno::ALL.len() + 2, arb_call()), 0..40),
    ) {
        let name_of = |i: usize| Sysno::ALL.get(i).map_or("fsync", |s| s.name());
        let events: Vec<TraceEvent> = per_sysno
            .into_iter()
            .enumerate()
            .chain(extra.into_iter())
            .map(|(i, (args, retval))| TraceEvent::build(name_of(i), 7, args, retval))
            .collect();
        let expected = oracle_report(&events);
        let actual = Iocov::new().analyze(&Trace::from_events(events));
        prop_assert_eq!(
            serde_json::to_string(&actual).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );
        prop_assert_eq!(actual, expected);
    }

    /// Normalization preserves the return value and maps every event of a
    /// known syscall to its variant's base.
    #[test]
    fn normalize_preserves_retval(retval in any::<i64>(), flags in any::<u32>()) {
        let event = open_event("/x".into(), flags, retval);
        let call = normalize(&event).unwrap();
        prop_assert_eq!(call.retval, retval);
        prop_assert_eq!(call.base, iocov::BaseSyscall::Open);
    }
}
