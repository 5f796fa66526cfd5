//! The whole-trace subcommands (`untested`, `combos`, `tcd`, `diff`,
//! `convert`) read every container format: one clean trace (generated,
//! or the corrupt fixture less its bad lines) written as JSONL, `.iotb`
//! v1 and block-indexed `.iotb` v2 must print identical stdout, and
//! converting either binary copy back yields the JSONL bytes. Their
//! output over a committed trace, in each container, matches committed
//! goldens. A flag the subcommand does not take is a usage error.

mod common;

use common::{fixture, iocov, run_ok, TempDir};

/// A kernel-recorded trace with mount noise, varied open flags, writes
/// of several sizes and failing calls; `salt` varies it so `diff` has
/// something to report.
fn kernel_trace(dir: &TempDir, tag: &str, salt: u32) -> String {
    use iocov_syscalls::Kernel;
    use iocov_trace::Recorder;
    use std::sync::Arc;
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    kernel.mkdir("/mnt", 0o755);
    kernel.mkdir("/mnt/test", 0o755 - salt);
    for i in 0..6u32 {
        let flags = [0o102, 0o1101, 0o2002, 0o100 | 0o200, 0o4010001, 0][(i + salt) as usize % 6];
        let fd = kernel.open(&format!("/mnt/test/f{i}"), flags | 0o100, 0o644) as i32;
        kernel.write(fd, &vec![0u8; 1 << (i + salt)]);
        kernel.lseek(fd, 0, i % 3);
        kernel.close(fd);
    }
    kernel.open("/mnt/test/missing", 0, 0);
    kernel.open("/etc/noise", 0, 0);
    let path = dir.path(&format!("{tag}.jsonl"));
    let mut file = std::fs::File::create(&path).unwrap();
    iocov_trace::write_jsonl(&mut file, &recorder.take()).unwrap();
    path
}

/// The trace at `jsonl` as `.iotb` v1 and indexed v2.
fn binary_copies(dir: &TempDir, jsonl: &str, tag: &str) -> [String; 2] {
    let v1 = dir.path(&format!("{tag}-v1.iotb"));
    let v2 = dir.path(&format!("{tag}-v2.iotb"));
    run_ok(&["convert", jsonl, &v1]);
    run_ok(&["convert", jsonl, &v2, "--index"]);
    [v1, v2]
}

/// `untested`, `combos` and `tcd` print the same bytes over one trace
/// in each of `containers`, and `diff` finds any two of them identical.
fn assert_containers_agree(containers: [&str; 3]) {
    for cmd in ["untested", "combos", "tcd"] {
        let outputs: Vec<String> = containers
            .iter()
            .map(|trace| {
                let mut all = vec![cmd, trace, "--mount", "/mnt/test"];
                if cmd == "tcd" {
                    all.extend(["--target", "10"]);
                }
                run_ok(&all)
            })
            .collect();
        assert!(!outputs[0].is_empty(), "{cmd} printed nothing");
        assert_eq!(outputs[0], outputs[1], "{cmd}: {containers:?}");
        assert_eq!(outputs[0], outputs[2], "{cmd}: {containers:?}");
    }
    let [a, b, c] = containers;
    for (x, y) in [(a, b), (a, c), (b, c)] {
        let out = run_ok(&["diff", x, y, "--mount", "/mnt/test"]);
        assert_eq!(out, "identical partition coverage\n", "diff {x} {y}");
    }
}

#[test]
fn whole_trace_subcommands_agree_across_container_formats() {
    let dir = TempDir::new("formats-agree");
    let a = kernel_trace(&dir, "a", 0);
    let b = kernel_trace(&dir, "b", 1);
    let [a1, a2] = binary_copies(&dir, &a, "a");
    let [b1, b2] = binary_copies(&dir, &b, "b");
    assert_containers_agree([&a, &a1, &a2]);
    // `diff` names its inputs, so compare with the paths masked.
    let diffs: Vec<String> = [(&a, &b), (&a1, &b1), (&a2, &b2)]
        .iter()
        .map(|(x, y)| {
            run_ok(&["diff", x, y, "--mount", "/mnt/test"])
                .replace(x.as_str(), "A")
                .replace(y.as_str(), "B")
        })
        .collect();
    assert!(diffs[0].contains("only by A"), "{}", diffs[0]);
    assert_eq!(diffs[0], diffs[1], "diff: jsonl vs iotb v1");
    assert_eq!(diffs[0], diffs[2], "diff: jsonl vs iotb v2");
    // The corrupt fixture, lossy-converted to v1 and indexed v2: the
    // strict loader rejects the fixture itself, so the v1 copy written
    // back to JSONL stands in for it.
    let corrupt = fixture("corrupt_trace.jsonl");
    let v1 = dir.path("corrupt-v1.iotb");
    let v2 = dir.path("corrupt-v2.iotb");
    let clean = dir.path("corrupt-clean.jsonl");
    run_ok(&["convert", &corrupt, &v1, "--lossy"]);
    run_ok(&[
        "convert", &corrupt, &v2, "--to", "iotb", "--index", "--lossy",
    ]);
    run_ok(&["convert", &v1, &clean, "--to", "jsonl"]);
    assert_containers_agree([&clean, &v1, &v2]);
}

/// `untested`, `combos`, `tcd` and `diff`, with and without a mount,
/// print the bytes committed under `fixtures/whole_trace/`, over the
/// JSONL trace and over its `.iotb` v1 and indexed v2 copies. The
/// trace has mount noise, a second pid, `dup2`, renames across the
/// mount boundary, `chdir` plus a relative `openat`, and failing calls.
/// The goldens were run from the repository root, so `diff` names its
/// inputs `fixtures/…`; the paths used here are masked back.
#[test]
fn whole_trace_subcommands_match_their_goldens() {
    let dir = TempDir::new("formats-goldens");
    let jsonl = fixture("whole_trace.jsonl");
    let other = fixture("noncanonical_trace.jsonl");
    let [v1, v2] = binary_copies(&dir, &jsonl, "whole");
    for trace in [&jsonl, &v1, &v2] {
        for (mount, suffix) in [(None, ""), (Some("/mnt/test"), "-mount")] {
            for cmd in ["untested", "combos", "tcd", "diff"] {
                let mut all = vec![cmd, trace.as_str()];
                match cmd {
                    "tcd" => all.extend(["--target", "10"]),
                    "diff" => all.push(other.as_str()),
                    _ => {}
                }
                if let Some(mount) = mount {
                    all.extend(["--mount", mount]);
                }
                let out = run_ok(&all)
                    .replace(trace.as_str(), "fixtures/whole_trace.jsonl")
                    .replace(other.as_str(), "fixtures/noncanonical_trace.jsonl");
                let golden = fixture(&format!("whole_trace/{cmd}{suffix}.txt"));
                let expected = std::fs::read_to_string(&golden).expect("read golden");
                assert_eq!(out, expected, "iocov {all:?} vs {golden}");
            }
        }
    }
}

#[test]
fn convert_back_to_jsonl_reproduces_the_source_bytes() {
    let dir = TempDir::new("formats-round");
    let source = kernel_trace(&dir, "round", 2);
    let original = std::fs::read(&source).unwrap();
    let copies = binary_copies(&dir, &source, "round");
    for (copy, name) in copies.iter().zip(["v1", "v2"]) {
        let back = dir.path(&format!("round-{name}-back.jsonl"));
        run_ok(&["convert", copy, &back]);
        assert_eq!(
            original,
            std::fs::read(&back).unwrap(),
            "iotb {name} → jsonl changed the bytes"
        );
    }
}

/// A strict read of a corrupt trace fails at its first bad line, with
/// the same message and nothing on stdout, whether it is converted or
/// streamed through an analysis session.
#[test]
fn strict_convert_of_a_corrupt_trace_names_the_first_bad_line() {
    let dir = TempDir::new("formats-strict");
    let corrupt = fixture("corrupt_trace.jsonl");
    let clean = fixture("whole_trace.jsonl");
    let out = dir.path("strict.jsonl");
    let invocations: [&[&str]; 5] = [
        &["convert", &corrupt, &out],
        &["untested", &corrupt],
        &["combos", &corrupt, "--mount", "/mnt/test"],
        &["tcd", &corrupt, "--target", "10"],
        &["diff", &clean, &corrupt],
    ];
    for all in invocations {
        let output = iocov(all, None);
        assert_eq!(output.status.code(), Some(1), "iocov {all:?}");
        assert_eq!(
            String::from_utf8_lossy(&output.stdout),
            "",
            "iocov {all:?} printed before failing"
        );
        assert_eq!(
            String::from_utf8_lossy(&output.stderr),
            format!(
                "iocov: cannot parse {corrupt}: trace parse error on line 4: \
                 expected `,` or `}}` in object at byte 50\n"
            ),
            "iocov {all:?}"
        );
    }
}

#[test]
fn inapplicable_flags_exit_2_with_usage() {
    let dir = TempDir::new("formats-inapplicable");
    let trace = kernel_trace(&dir, "inapplicable", 0);
    let corrupt = fixture("corrupt_trace.jsonl");
    let cases: [(&[&str], &str); 12] = [
        (
            &[
                "tcd",
                &trace,
                "--target",
                "10",
                "--jobs",
                "8",
                "--socket",
                "/nope",
                "--checkpoint-every",
                "5",
            ],
            "`tcd` does not take --jobs",
        ),
        (
            &["untested", &trace, "--format", "iotb"],
            "`untested` does not take --format",
        ),
        (
            &["combos", &corrupt, "--lossy"],
            "`combos` does not take --lossy",
        ),
        // Multi-process analysis and its drills are gone; naming
        // them is a usage error, never a silently ignored knob.
        (
            &["analyze", &trace, "--distribute", "2"],
            "unknown flag `--distribute`",
        ),
        (
            &["analyze", &trace, "--inject-worker-kill", "0:1"],
            "unknown flag `--inject-worker-kill`",
        ),
        (
            &["analyze", &trace, "--inject-worker-stall", "0:1"],
            "unknown flag `--inject-worker-stall`",
        ),
        (
            &["analyze", &trace, "--inject-corrupt-frame", "0:0"],
            "unknown flag `--inject-corrupt-frame`",
        ),
        (&["worker"], "unknown command `worker`"),
        // Analysis runs on one shard thread: `--jobs` takes only 1, and
        // `--inject-panic` names no shard.
        (
            &["analyze", &trace, "--jobs", "2"],
            "--jobs takes only 1: analysis runs on one shard thread",
        ),
        (
            &["analyze", &trace, "--jobs", "64"],
            "--jobs takes only 1: analysis runs on one shard thread",
        ),
        (
            &["analyze", &trace, "--inject-panic", "0:1:1"],
            "bad --inject-panic value `0:1:1` (want TICK[:TIMES])",
        ),
        // A run stopped before its first event is no kill drill.
        (
            &["analyze", &trace, "--stop-after-events", "0"],
            "bad --stop-after-events value `0`",
        ),
    ];
    for (all, message) in cases {
        let output = iocov(all, None);
        assert_eq!(output.status.code(), Some(2), "{all:?}");
        assert!(output.stdout.is_empty(), "{all:?}");
        assert_eq!(
            String::from_utf8_lossy(&output.stderr),
            format!("iocov: {message}\n{}\n", iocov_cli::USAGE),
            "{all:?}"
        );
    }
}
