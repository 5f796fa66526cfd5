//! Byte-identity referees on the real `iocov` binary that no other test
//! target holds: the committed `baseline_pr7` reports and skip ledger,
//! traces read from a pipe, kill/resume and the restart budget across
//! checkpoint cuts, and restarts on the ~1.39M-event many-pid trace.
//!
//! The many-pid cell is `#[ignore]`d for its size; run every cell with
//! `cargo test --release -p iocov -p iocov-cli -p iocov-bench --
//! --include-ignored`.

mod common;

use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};

use common::{fixture, run_ok, run_ok_with, TempDir};

/// A Syzkaller log of one `open` of `/mnt/test/f`, a 512-byte `write`
/// and a `close`.
const SMOKE_SYZ: &str = "r0 = open(&(0x7f0000000000)='/mnt/test/f\\x00', 0x42, 0x1a4) # 3\n\
                         write(r0, 0x0, 0x200) # 512\n\
                         close(r0) # 0\n";

/// `iocov analyze TRACE --mount /mnt/test FLAGS…` on the real binary.
fn analyze(trace: &str, flags: &[&str]) -> String {
    run_ok(&[&["analyze", trace, "--mount", "/mnt/test"][..], flags].concat())
}

/// [`analyze`] of `bytes` piped to `/dev/stdin` in `format`, as
/// `cat FILE | iocov analyze /dev/stdin …` reads them.
fn analyze_piped(bytes: &[u8], format: &str, flags: &[&str]) -> String {
    let all = [
        "analyze",
        "/dev/stdin",
        "--format",
        format,
        "--mount",
        "/mnt/test",
    ];
    run_ok_with(&[&all[..], flags].concat(), Some(bytes))
}

/// The lines of `analyze --lossy` output that make up its skip ledger:
/// the summary, then one `  line N: …` line per skipped line.
fn skip_ledger(out: &str) -> String {
    let ledger_line = |line: &str| {
        line.starts_with("lossy ingest: ")
            || line
                .strip_prefix("  line ")
                .and_then(|rest| rest.split_once(": "))
                .is_some_and(|(n, _)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
    };
    out.lines()
        .filter(|line| ledger_line(line))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The whole skip ledger — line numbers, classes and serde's messages —
/// matches the one captured from the release binary that decoded every
/// line through serde, read from the file and from a pipe. From a pipe
/// the read buffer refills wherever the pipe delivers, so lines reach
/// the decoder cut at other points.
#[test]
fn corrupt_fixture_skip_ledger_matches_its_golden() {
    let corrupt = fixture("corrupt_trace.jsonl");
    let golden = fs::read_to_string(fixture("corrupt_trace.skips.txt")).unwrap();
    let flags = ["--lossy", "--metrics"];
    let from_file = analyze(&corrupt, &flags);
    assert_eq!(skip_ledger(&from_file), golden, "{from_file}");
    let from_pipe = analyze_piped(&fs::read(&corrupt).unwrap(), "jsonl", &flags);
    assert_eq!(skip_ledger(&from_pipe), golden, "{from_pipe}");
}

/// `.iotb` read from a pipe renders what the file renders: short reads
/// cut records across buffer refills, so the copying fallback of the
/// in-place record read runs and must change nothing. Both the lossy
/// conversion of the corrupt fixture and a clean trace converted from
/// a Syzkaller log, whose JSONL and `.iotb` copies must also render one
/// report and metrics document.
#[test]
fn iotb_from_a_pipe_renders_the_file_reports() {
    let dir = TempDir::new("referees-pipe");
    let corrupt = fixture("corrupt_trace.jsonl");
    let corrupt_iotb = dir.path("corrupt.iotb");
    run_ok(&["convert", &corrupt, &corrupt_iotb, "--lossy"]);
    let report = analyze(&corrupt, &["--lossy", "--json"]);
    let piped = analyze_piped(&fs::read(&corrupt_iotb).unwrap(), "iotb", &["--json"]);
    assert_eq!(piped, report, "corrupt.iotb from a pipe");

    let clean = dir.syz_trace("clean.jsonl", SMOKE_SYZ);
    let clean_iotb = dir.path("clean.iotb");
    run_ok(&["convert", &clean, &clean_iotb]);
    let flags = ["--json", "--metrics"];
    let expected = analyze(&clean, &flags);
    let from_file = analyze(&clean_iotb, &["--format=auto", "--json", "--metrics"]);
    assert_eq!(from_file, expected, "clean.iotb");
    let piped = analyze_piped(&fs::read(&clean_iotb).unwrap(), "iotb", &flags);
    assert_eq!(piped, expected, "clean.iotb from a pipe");
}

/// Lines off the canonical compact shape, read from a pipe, render the
/// report the serde-only release binary rendered.
#[test]
fn noncanonical_trace_from_a_pipe_renders_the_committed_report() {
    let trace = fs::read(fixture("noncanonical_trace.jsonl")).unwrap();
    let expected = fs::read_to_string(fixture("noncanonical_report.json")).unwrap();
    assert_eq!(analyze_piped(&trace, "jsonl", &["--json"]), expected);
}

/// The corrupt fixture as JSONL, lossy-converted `.iotb` v1, and
/// lossy-converted indexed v2, written into `dir`.
fn corrupt_containers(dir: &TempDir) -> [String; 3] {
    let jsonl = fixture("corrupt_trace.jsonl");
    let v1 = dir.path("corrupt-v1.iotb");
    let v2 = dir.path("corrupt-v2.iotb");
    run_ok(&["convert", &jsonl, &v1, "--lossy"]);
    run_ok(&["convert", &jsonl, &v2, "--to", "iotb", "--index", "--lossy"]);
    [jsonl, v1, v2]
}

/// The columnar batch path moves no report byte relative to the
/// per-event implementation it replaced: `fixtures/baseline_pr7/` holds
/// the reports the pre-batch release binary rendered over the corrupt
/// fixture in every container format, at 1 and 4 jobs.
#[test]
fn corrupt_fixture_renders_the_baseline_pr7_reports() {
    let dir = TempDir::new("referees-baseline");
    let [jsonl, v1, v2] = corrupt_containers(&dir);
    for jobs in ["1", "4"] {
        for (trace, name) in [
            (&jsonl, "jsonl"),
            (&v1, "iotb-v1"),
            (&v2, "iotb-v2-indexed"),
        ] {
            let out = analyze(trace, &["--lossy", "--json", "--jobs", jobs]);
            let golden = fixture(&format!("baseline_pr7/{name}-jobs{jobs}.json"));
            assert_eq!(out, fs::read_to_string(&golden).unwrap(), "{golden}");
        }
    }
}

/// Analysis reads the indexed container with the serial cursor of v1
/// and skips the trailing index, so both copies render one report and
/// metrics document.
#[test]
fn indexed_and_plain_copies_render_one_metrics_document() {
    let dir = TempDir::new("referees-indexed");
    let [_, v1, v2] = corrupt_containers(&dir);
    let flags = ["--json", "--metrics", "--jobs", "4"];
    assert_eq!(analyze(&v2, &flags), analyze(&v1, &flags));
}

/// Killed after 3 events at four jobs while checkpointing every 2, then
/// resumed at four jobs: the v1 copy renders its one-job report, the
/// indexed copy its four-job report.
#[test]
fn kill_and_resume_at_four_jobs_over_both_containers() {
    let dir = TempDir::new("referees-resume");
    let [_, v1, v2] = corrupt_containers(&dir);
    for (trace, reference_jobs) in [(&v1, "1"), (&v2, "4")] {
        let ckpt = format!("{trace}.iockpt");
        let reference = analyze(trace, &["--json", "--jobs", reference_jobs]);
        let cut = ["--json", "--jobs", "4", "--checkpoint-every", "2"];
        let cut = [&cut[..], &["--checkpoint-file", &ckpt]].concat();
        let killed = analyze(trace, &[&cut[..], &["--stop-after-events", "3"]].concat());
        assert!(killed.contains("stopped after"), "{trace}: {killed}");
        let resumed = analyze(trace, &[&cut[..], &["--resume", &ckpt]].concat());
        assert_eq!(resumed, reference, "{trace}");
    }
}

/// The restart budget is per shard per run at every job count:
/// checkpoint cuts do not hand a shard a fresh ledger. Six one-event
/// batches: three panics spend the budget, the fourth gives it up, and
/// all six events are lost.
#[test]
fn restart_budget_spans_checkpoint_cuts() {
    let dir = TempDir::new("referees-budget");
    let smoke = fs::read(dir.syz_trace("smoke.jsonl", SMOKE_SYZ)).unwrap();
    let budget = dir.path("budget.jsonl");
    fs::write(&budget, [&smoke[..], &smoke[..]].concat()).unwrap();
    let ckpt = dir.path("budget.iockpt");
    let cut = [
        "--jobs",
        "2",
        "--checkpoint-every",
        "1",
        "--checkpoint-file",
        &ckpt,
    ];
    let out = analyze(
        &budget,
        &[&cut[..], &["--metrics", "--inject-panic", "0:0:99"]].concat(),
    );
    for want in [
        "gave up after 3 restarts",
        "\"shard_restarts\": 3",
        "\"lost_events\": 6",
    ] {
        assert!(out.contains(want), "no {want:?} in:\n{out}");
    }
    let summary = "6 events read, 6 lost to shard restarts; 0 scanned";
    assert!(out.lines().any(|l| l.starts_with(summary)), "{out}");
}

/// The pid of one JSONL trace line.
fn pid_of(line: &str) -> u32 {
    let at = line.find("\"pid\":").expect("a pid field") + "\"pid\":".len();
    let digits = &line[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().expect("a numeric pid")
}

/// Writes to `out` the lines of the JSONL trace at `jsonl` that a
/// restart of shard 0 (of `jobs`) from the start of the run keeps when
/// its first `lost` lines are lost: every line from `lost` on, and
/// before it the lines of the other shards' pids (`pid % jobs != 0`).
fn survivors(jsonl: &str, lost: usize, jobs: u32, out: &str) {
    let mut writer = BufWriter::new(File::create(out).unwrap());
    let reader = BufReader::new(File::open(jsonl).unwrap());
    for (i, line) in reader.lines().enumerate() {
        let line = line.unwrap();
        if i >= lost || !pid_of(&line).is_multiple_of(jobs) {
            writeln!(writer, "{line}").unwrap();
        }
    }
    writer.flush().unwrap();
}

/// Restarts on the many-pid trace (~1.39M events in 4096-event
/// batches): a shard that exhausts its budget degrades to an empty
/// report plus a failure manifest; a panic at batch 25 loses batches
/// 0–25 of shard 0's pids and nothing after; and with a checkpoint
/// every 100000 events, a panic at batch 10 of the first interval still
/// restores to the start of the run. `untested` and `combos` print the
/// same over the JSONL and indexed `.iotb` copies.
#[test]
#[ignore = "writes ~270 MB and analyzes ~1.39M events several times; run in release"]
fn many_pid_trace_restarts_lose_exactly_shard_zeros_events() {
    let dir = TempDir::new("referees-many-pid");
    let jsonl = dir.path("restore.jsonl");
    let iotb = dir.path("restore.iotb");
    let events = {
        let trace = iocov_workloads::many_pid_trace();
        iocov_trace::write_jsonl(File::create(&jsonl).unwrap(), &trace).unwrap();
        let file = File::create(&iotb).unwrap();
        iocov_trace::write_iotb_indexed(file, &trace, iocov_trace::DEFAULT_BLOCK_EVENTS).unwrap();
        trace.len()
    };
    assert_eq!(events, 1_387_545);
    for cmd in ["untested", "combos"] {
        let of = |trace: &str| run_ok(&[cmd, trace, "--mount", "/mnt/test"]);
        assert_eq!(of(&jsonl), of(&iotb), "{cmd}");
    }

    // Batches 0–2 spend the budget and batch 3 gives it up, so at one
    // job every event is lost; the summary counts the events read.
    let out = analyze(&iotb, &["--metrics", "--inject-panic", "0:0:99"]);
    assert!(out.contains("gave up"), "{out}");
    assert!(out.contains("\"gave_up\": true"), "{out}");
    let summary = "1387545 events read, 1387545 lost to shard restarts; 0 scanned";
    assert!(out.lines().any(|l| l.starts_with(summary)), "{out}");
    let empty = dir.path("empty.jsonl");
    fs::write(&empty, "").unwrap();
    assert_eq!(
        analyze(&iotb, &["--json", "--inject-panic", "0:0:99"]),
        analyze(&empty, &["--json"])
    );

    let kept = dir.path("survivors.jsonl");
    for jobs in [1, 2] {
        survivors(&jsonl, 26 * 4096, jobs, &kept);
        let jobs = jobs.to_string();
        let panic = ["--json", "--jobs", &jobs, "--inject-panic", "0:25"];
        assert_eq!(
            analyze(&iotb, &panic),
            analyze(&kept, &["--json"]),
            "--jobs {jobs}"
        );
    }
    survivors(&jsonl, 11 * 4096, 2, &kept);
    let panic = [
        "--json",
        "--jobs",
        "2",
        "--checkpoint-every",
        "100000",
        "--inject-panic",
        "0:10",
    ];
    assert_eq!(analyze(&iotb, &panic), analyze(&kept, &["--json"]));
}
