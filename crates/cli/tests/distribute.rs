//! End-to-end acceptance for `analyze --distribute N`: the coordinator
//! spawns real `iocov worker` subprocesses (via `current_exe`), so these
//! tests drive the compiled binary rather than the library. The
//! tentpole invariant: for every container shape and worker count —
//! including under every injected worker kill/stall/corrupt-frame
//! schedule that stays within the restart budget — stdout is
//! byte-identical to the in-process `--jobs N` run; an exhausted budget
//! degrades to a partial report with exit 0, never an abort or a hang.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_iocov")
}

/// Runs the real binary, asserting it exits 0, and returns stdout.
fn run_ok(all: &[&str]) -> Vec<u8> {
    let output = Command::new(bin())
        .args(all)
        .output()
        .expect("spawn iocov binary");
    assert!(
        output.status.success(),
        "iocov {all:?} failed: {}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// A fresh temp path per call: tests run concurrently in one process,
/// and two of them rewriting one shared file would race each other.
fn temp_path(tag: &str, ext: &str) -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!(
            "iocov-distribute-{}-{n}-{tag}.{ext}",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// A multi-pid trace, so pid-residue sharding spreads events across
/// every worker (single-pid traces would leave all but one shard
/// empty and the merge trivially correct).
fn multi_pid_trace() -> String {
    use iocov_trace::{ArgValue, Trace, TraceEvent};
    let mut events = Vec::new();
    for i in 0u64..30 {
        let pid = 100 + (i % 5) as u32;
        events.push(TraceEvent::build(
            "open",
            pid,
            vec![
                ArgValue::Path(format!("/mnt/test/f{i}")),
                ArgValue::Flags(u32::try_from((i % 7) * 0o101).unwrap()),
                ArgValue::Mode(0o600 + u32::try_from(i % 8).unwrap()),
            ],
            i64::try_from(i % 4).unwrap() - 2,
        ));
        events.push(TraceEvent::build(
            "write",
            pid,
            vec![
                ArgValue::Fd(3 + (i % 3) as i32),
                ArgValue::UInt(1 << (i % 12)),
            ],
            i64::try_from(1u64 << (i % 12)).unwrap(),
        ));
    }
    let trace = Trace::from_events(events);
    let path = temp_path("multi-pid", "jsonl");
    let mut file = std::fs::File::create(&path).unwrap();
    iocov_trace::write_jsonl(&mut file, &trace).unwrap();
    path
}

/// A kernel-recorded trace with a mount filter, mirroring the library
/// tests' sample.
fn kernel_trace() -> String {
    use iocov_syscalls::Kernel;
    use iocov_trace::Recorder;
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    kernel.mkdir("/mnt", 0o755);
    kernel.mkdir("/mnt/test", 0o755);
    let fd = kernel.open("/mnt/test/f", 0o102 | 0o100, 0o644) as i32;
    kernel.write(fd, &[0u8; 300]);
    kernel.close(fd);
    kernel.open("/mnt/test/missing", 0, 0);
    kernel.open("/etc/noise", 0, 0);
    let path = temp_path("kernel", "jsonl");
    let mut file = std::fs::File::create(&path).unwrap();
    iocov_trace::write_jsonl(&mut file, &recorder.take()).unwrap();
    path
}

fn convert(input: &str, tag: &str, indexed: bool) -> String {
    let out = temp_path(tag, "iotb");
    let mut all = vec!["convert", input, &out];
    if indexed {
        all.push("--index");
    }
    run_ok(&all);
    out
}

#[test]
fn distribute_matches_jobs_byte_for_byte_across_formats_and_counts() {
    let jsonl = multi_pid_trace();
    let v1 = convert(&jsonl, "formats-v1", false);
    let v2 = convert(&jsonl, "formats-v2", true);
    for path in [&jsonl, &v1, &v2] {
        for n in ["1", "2", "4"] {
            for extra in [&["--json"][..], &["--json", "--metrics"][..]] {
                let mut jobs = vec!["analyze", path, "--jobs", n];
                jobs.extend_from_slice(extra);
                let mut dist = vec!["analyze", path, "--distribute", n];
                dist.extend_from_slice(extra);
                assert_eq!(
                    run_ok(&jobs),
                    run_ok(&dist),
                    "--distribute {n} diverged from --jobs {n} on {path} ({extra:?})"
                );
            }
        }
    }
    for p in [jsonl, v1, v2] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn distribute_with_mount_filter_matches_jobs() {
    let trace = kernel_trace();
    let baseline = run_ok(&[
        "analyze",
        &trace,
        "--mount",
        "/mnt/test",
        "--json",
        "--metrics",
        "--jobs",
        "4",
    ]);
    let distributed = run_ok(&[
        "analyze",
        &trace,
        "--mount",
        "/mnt/test",
        "--json",
        "--metrics",
        "--distribute",
        "4",
    ]);
    assert_eq!(baseline, distributed);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn every_fault_schedule_within_budget_recovers_byte_identical() {
    let jsonl = multi_pid_trace();
    let v2 = convert(&jsonl, "faults-v2", true);
    for path in [&jsonl, &v2] {
        let baseline = run_ok(&["analyze", path, "--json", "--jobs", "2"]);
        // Every injected process-fault class, with a tight checkpoint
        // cadence so recovery genuinely resumes mid-trace rather than
        // replaying from scratch. Kill covers the default abort and
        // explicit KILL/TERM signals at different ticks.
        let schedules: &[&[&str]] = &[
            &["--inject-worker-kill", "0:3"],
            &["--inject-worker-kill", "1:5:KILL"],
            &["--inject-worker-kill", "1:40:TERM"],
            &["--inject-corrupt-frame", "1:0"],
            &["--inject-corrupt-frame", "0:2:1"],
            &["--inject-worker-stall", "1:7:3000", "--shard-timeout", "1"],
        ];
        for schedule in schedules {
            let mut all = vec![
                "analyze",
                path,
                "--json",
                "--distribute",
                "2",
                "--checkpoint-every",
                "8",
            ];
            all.extend_from_slice(schedule);
            assert_eq!(run_ok(&all), baseline, "{path} diverged under {schedule:?}");
        }
    }
    for p in [jsonl, v2] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn exhausted_restart_budget_degrades_to_partial_report_with_exit_zero() {
    let trace = multi_pid_trace();
    let output = Command::new(bin())
        .args([
            "analyze",
            &trace,
            "--metrics",
            "--distribute",
            "2",
            "--max-shard-restarts",
            "0",
            "--inject-worker-kill",
            "1:1",
        ])
        .output()
        .expect("spawn iocov binary");
    assert!(
        output.status.success(),
        "an exhausted budget must still exit 0, got {}",
        output.status
    );
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("gave up after 0 restarts"), "{text}");
    assert!(text.contains("partial report"), "{text}");
    // The surviving shard's partial coverage is still rendered, and the
    // manifest records the casualty.
    assert!(text.contains("events,"), "{text}");
    assert!(text.contains("\"gave_up\": true"), "{text}");
    assert!(text.contains("\"shard\": 1"), "{text}");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn recovered_fault_is_reported_as_a_warning_not_a_failure() {
    let trace = multi_pid_trace();
    let text = String::from_utf8(run_ok(&[
        "analyze",
        &trace,
        "--distribute",
        "2",
        "--inject-worker-kill",
        "0:2",
    ]))
    .unwrap();
    assert!(
        text.contains("warning: shard 0 recovered after 1 restart"),
        "{text}"
    );
    assert!(!text.contains("gave up"), "{text}");
    let _ = std::fs::remove_file(&trace);
}

mod parsing {
    use iocov_cli::{parse_args, Command};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn distribute_flags_parse() {
        match parse_args(&args(&[
            "analyze",
            "t.jsonl",
            "--distribute",
            "4",
            "--inject-worker-kill",
            "2:5:KILL",
            "--inject-worker-stall",
            "1:3:2000",
            "--inject-corrupt-frame",
            "0:1:2",
        ]))
        .unwrap()
        {
            Command::Analyze { robust, .. } => {
                assert_eq!(robust.distribute, Some(4));
                let (worker, kill) = robust.inject_worker_kill.unwrap();
                assert_eq!((worker, kill.tick), (2, 5));
                assert_eq!(kill.signal.as_deref(), Some("KILL"));
                let (worker, stall) = robust.inject_worker_stall.unwrap();
                assert_eq!((worker, stall.tick, stall.millis), (1, 3, 2000));
                let (worker, corrupt) = robust.inject_corrupt_frame.unwrap();
                assert_eq!((worker, corrupt.frame, corrupt.times), (0, 1, 2));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Signal names are canonicalized; sig-prefixed and numeric
        // spellings are accepted.
        match parse_args(&args(&[
            "analyze",
            "t",
            "--distribute",
            "2",
            "--inject-worker-kill",
            "0:0:sigterm",
        ]))
        .unwrap()
        {
            Command::Analyze { robust, .. } => {
                assert_eq!(
                    robust.inject_worker_kill.unwrap().1.signal.as_deref(),
                    Some("TERM")
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_args(&args(&["worker"])).unwrap(),
            Command::Worker,
            "the hidden worker subcommand must parse"
        );
    }

    #[test]
    fn distribute_conflicts_are_rejected() {
        let bad: &[&[&str]] = &[
            &["analyze", "t", "--distribute", "0"],
            &["analyze", "t", "--distribute", "x"],
            &["analyze", "t", "--distribute", "2", "--jobs", "2"],
            &["analyze", "t", "--distribute", "2", "--resume", "c.iockpt"],
            &[
                "analyze",
                "t",
                "--distribute",
                "2",
                "--checkpoint-every",
                "4",
                "--checkpoint-file",
                "c.iockpt",
            ],
            &[
                "analyze",
                "t",
                "--distribute",
                "2",
                "--stop-after-events",
                "3",
            ],
            &["analyze", "t", "--distribute", "2", "--inject-panic", "0:0"],
            &["analyze", "t", "--distribute", "2", "--inject-io", "7"],
            // Fault targets must exist, and the flags need --distribute.
            &[
                "analyze",
                "t",
                "--distribute",
                "2",
                "--inject-worker-kill",
                "2:0",
            ],
            &[
                "analyze",
                "t",
                "--distribute",
                "2",
                "--inject-worker-stall",
                "5:0",
            ],
            &[
                "analyze",
                "t",
                "--distribute",
                "2",
                "--inject-corrupt-frame",
                "3:0",
            ],
            &["analyze", "t", "--inject-worker-kill", "0:0"],
            &["analyze", "t", "--inject-worker-stall", "0:0"],
            &["analyze", "t", "--inject-corrupt-frame", "0:0"],
            // Malformed specs.
            &[
                "analyze",
                "t",
                "--distribute",
                "2",
                "--inject-worker-kill",
                "1",
            ],
            &[
                "analyze",
                "t",
                "--distribute",
                "2",
                "--inject-worker-kill",
                "1:2:HUP",
            ],
            &[
                "analyze",
                "t",
                "--distribute",
                "2",
                "--inject-worker-stall",
                "1:2:0",
            ],
            &[
                "analyze",
                "t",
                "--distribute",
                "2",
                "--inject-corrupt-frame",
                "1:2:0",
            ],
            &[
                "analyze",
                "t",
                "--distribute",
                "2",
                "--inject-corrupt-frame",
                "1:2:3:4",
            ],
        ];
        for cmd_args in bad {
            assert!(parse_args(&args(cmd_args)).is_err(), "{cmd_args:?}");
        }
    }
}
