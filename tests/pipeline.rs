//! End-to-end pipeline integration: kernel → trace → serialize →
//! filter → variant merge → partition → report.

use std::sync::Arc;
use std::time::Duration;

use iocov::{
    AnalysisReport, ArgName, BaseSyscall, InputPartition, Iocov, NumericPartition, PipelineBuilder,
    ShardFailureRecord, ShardHook, SupervisorPolicy, TraceFilter, PARALLEL_THRESHOLD,
};
use iocov_syscalls::Kernel;
use iocov_trace::{read_jsonl, write_jsonl, Recorder, Trace, TraceEvent};

/// A small deterministic workload touching several syscall families.
fn run_workload(kernel: &mut Kernel) {
    kernel.mkdir("/mnt", 0o755);
    kernel.mkdir("/mnt/test", 0o755);
    kernel.mkdir("/mnt/test/dir", 0o755);

    // Data I/O through several variants.
    let fd = kernel.open("/mnt/test/file", 0o102 | 0o100, 0o644) as i32;
    kernel.write(fd, &[1u8; 1000]);
    kernel.pwrite64(fd, &[2u8; 100], 4096);
    kernel.writev(fd, &[&[3u8; 10], &[4u8; 20]]);
    kernel.pread64(fd, 512, 0);
    kernel.lseek(fd, 0, 2);
    kernel.ftruncate(fd, 2048);
    kernel.fchmod(fd, 0o600);
    kernel.fsetxattr(fd, "user.tag", b"value", 0);
    kernel.fgetxattr(fd, "user.tag", 64);
    kernel.close(fd);

    // Variants via dirfd.
    let dirfd = kernel.open("/mnt/test/dir", 0o200000, 0) as i32;
    kernel.openat(dirfd, "nested", 0o101, 0o644);
    kernel.mkdirat(dirfd, "sub", 0o755);
    kernel.fchmodat(dirfd, "nested", 0o640, 0);
    kernel.creat("/mnt/test/dir/created", 0o644);
    kernel.openat2(dirfd, "nested", 0, 0, 0x08);
    kernel.fchdir(dirfd);
    kernel.chdir("/");
    kernel.close(dirfd);

    // Error paths.
    kernel.open("/mnt/test/missing", 0, 0);
    kernel.truncate("/mnt/test/file", -1);
    kernel.getxattr("/mnt/test/file", "user.absent", 64);

    // Tester-internal noise outside the mount point.
    let noise = kernel.open("/tmp-state", 0o101, 0o644) as i32;
    kernel.write(noise, b"bookkeeping");
    kernel.close(noise);
}

#[test]
fn full_pipeline_counts_every_stage() {
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    run_workload(&mut kernel);
    let trace = recorder.take();

    let report = Iocov::with_mount_point("/mnt/test")
        .unwrap()
        .analyze(&trace);

    // The noise I/O was filtered.
    assert!(report.filter_stats.dropped >= 3);

    // Variant merging: open/openat/creat/openat2 all analyzed as open —
    // exactly the six open-family calls aimed at the mount point (the
    // /tmp-state noise open is filtered out).
    let open_out = report.output_coverage(BaseSyscall::Open);
    assert_eq!(open_out.calls, 6);
    assert_eq!(open_out.errno_count("ENOENT"), 1);

    // Input partitions from several argument classes.
    let flags = report.input_coverage(ArgName::OpenFlags);
    assert!(flags.count(&InputPartition::Flag("O_CREAT".into())) >= 3);
    assert!(flags.count(&InputPartition::Flag("O_DIRECTORY".into())) >= 1);
    let wc = report.input_coverage(ArgName::WriteCount);
    assert!(
        wc.count(&InputPartition::Numeric(NumericPartition::Log2(9))) >= 1,
        "1000-byte write"
    );
    let whence = report.input_coverage(ArgName::LseekWhence);
    assert_eq!(
        whence.count(&InputPartition::Categorical("SEEK_END".into())),
        1
    );
    let trunc = report.input_coverage(ArgName::TruncateLength);
    assert!(trunc.count(&InputPartition::Numeric(NumericPartition::Negative)) >= 1);

    // Output coverage catches error codes of other syscalls.
    assert_eq!(
        report
            .output_coverage(BaseSyscall::Truncate)
            .errno_count("EINVAL"),
        1
    );
    assert_eq!(
        report
            .output_coverage(BaseSyscall::Getxattr)
            .errno_count("ENODATA"),
        1
    );
}

#[test]
fn serialized_trace_analyzes_identically() {
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    run_workload(&mut kernel);
    let trace = recorder.take();

    let mut buf = Vec::new();
    write_jsonl(&mut buf, &trace).unwrap();
    let roundtripped = read_jsonl(&buf[..]).unwrap();

    let iocov = Iocov::with_mount_point("/mnt/test").unwrap();
    assert_eq!(iocov.analyze(&trace), iocov.analyze(&roundtripped));
}

#[test]
fn analysis_report_serializes_for_offline_diffing() {
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    run_workload(&mut kernel);
    let report = Iocov::with_mount_point("/mnt/test")
        .unwrap()
        .analyze(&recorder.take());

    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: iocov::AnalysisReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    assert!(json.contains("O_CREAT"));
}

#[test]
fn per_pid_traces_are_attributed_separately() {
    use iocov_vfs::{Gid, Pid, Uid};
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    kernel.mkdir("/mnt", 0o755);
    kernel.mkdir("/mnt/test", 0o755);
    kernel.vfs_mut().spawn_process(Pid(9), Uid(0), Gid(0));

    // pid 1 opens inside the mount; pid 9 opens noise, then I/O on both.
    let good = kernel.open("/mnt/test/a", 0o101, 0o644) as i32;
    kernel.set_current(Pid(9));
    let noise = kernel.open("/outside", 0o101, 0o644) as i32;
    kernel.write(noise, b"xx");
    kernel.set_current(Pid(1));
    kernel.write(good, b"yyyy");

    let report = Iocov::with_mount_point("/mnt/test")
        .unwrap()
        .analyze(&recorder.take());
    let wc = report.input_coverage(ArgName::WriteCount);
    // Only pid 1's 4-byte write survives the filter.
    assert_eq!(wc.calls, 1);
    assert_eq!(
        wc.count(&InputPartition::Numeric(NumericPartition::Log2(2))),
        1
    );
}

#[test]
fn report_rendering_is_complete() {
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    run_workload(&mut kernel);
    let report = Iocov::new().analyze(&recorder.take());

    for arg in ArgName::ALL {
        let text = iocov::report::render_input(&report, arg);
        assert!(text.contains("input coverage"), "{arg}");
    }
    for base in BaseSyscall::ALL {
        let text = iocov::report::render_output(&report, base);
        assert!(text.contains("output coverage"), "{base}");
    }
    assert!(iocov::report::untested_summary(&report).contains("untested"));
}

/// The workload run until the trace holds more than three batches of
/// [`PARALLEL_THRESHOLD`] events.
fn multi_batch_trace() -> Trace {
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    while recorder.len() <= 3 * PARALLEL_THRESHOLD {
        run_workload(&mut kernel);
    }
    recorder.take()
}

/// A supervised session over `events`, fed in batches of
/// [`PARALLEL_THRESHOLD`] (so none coalesce) with `hook` before every
/// scan and a backoff short enough for a test.
fn degraded_run(
    events: &[TraceEvent],
    hook: ShardHook,
) -> (AnalysisReport, Vec<ShardFailureRecord>) {
    let policy = SupervisorPolicy {
        max_restarts: 3,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(1),
        shard_timeout: None,
    };
    let filter = TraceFilter::mount_point("/mnt/test").unwrap();
    let mut session = PipelineBuilder::new(filter)
        .policy(policy)
        .hook(hook)
        .build_session();
    for batch in events.chunks(PARALLEL_THRESHOLD) {
        session.feed_owned(batch.to_vec());
    }
    session.finish()
}

/// The serial report over `events`, as JSON.
fn serial_json(events: &[TraceEvent]) -> String {
    let report = Iocov::with_mount_point("/mnt/test")
        .unwrap()
        .analyze(&Trace::from_events(events.to_vec()));
    serde_json::to_string(&report).unwrap()
}

#[test]
fn a_panic_at_tick_one_loses_exactly_two_batches() {
    // The restore point is the start of the run, so the restarted shard
    // has lost batches 0 and 1, goes on with batch 2, and the report is
    // the serial analysis of every later event.
    let trace = multi_batch_trace();
    let events = trace.events();
    let (report, failures) = degraded_run(
        events,
        Arc::new(|tick| {
            if tick == 1 {
                panic!("test fault at tick {tick}");
            }
        }),
    );
    let lost = 2 * PARALLEL_THRESHOLD;
    assert_eq!(failures.len(), 1, "{failures:?}");
    let failure = &failures[0];
    assert_eq!(failure.last_error, "worker panicked: test fault at tick 1");
    assert_eq!(
        (failure.shard, failure.restarts, failure.gave_up),
        (0, 1, false)
    );
    assert_eq!(failure.lost_events, lost as u64);
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serial_json(&events[lost..])
    );
}

#[test]
fn an_exhausted_budget_loses_every_event_and_gives_up() {
    // Batches 0-2 spend the budget of three restarts and batch 3 gives
    // it up: no event survives, and the manifest counts every one.
    let trace = multi_batch_trace();
    let events = trace.events();
    let (report, failures) =
        degraded_run(events, Arc::new(|tick| panic!("test fault at tick {tick}")));
    assert_eq!(failures.len(), 1, "{failures:?}");
    let failure = &failures[0];
    assert_eq!((failure.restarts, failure.gave_up), (3, true));
    assert_eq!(failure.lost_events, events.len() as u64);
    assert_eq!(serde_json::to_string(&report).unwrap(), serial_json(&[]));
}
