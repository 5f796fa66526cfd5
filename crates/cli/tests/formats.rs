//! The whole-trace subcommands (`untested`, `combos`, `tcd`, `diff`,
//! `convert`) read every container format: one clean trace written as
//! JSONL, `.iotb` v1 and block-indexed `.iotb` v2 must print identical
//! stdout, and converting either binary copy back yields the JSONL
//! bytes. Their output over a committed trace matches committed
//! goldens. A flag the subcommand does not take is a usage error.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_iocov")
}

/// Runs the real binary, asserting it exits 0, and returns stdout.
fn run_ok(all: &[&str]) -> String {
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
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

fn temp_path(tag: &str, ext: &str) -> String {
    std::env::temp_dir()
        .join(format!("iocov-formats-{}-{tag}.{ext}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// A kernel-recorded trace with mount noise, varied open flags, writes
/// of several sizes and failing calls; `salt` varies it so `diff` has
/// something to report.
fn kernel_trace(tag: &str, salt: u32) -> String {
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
    let path = temp_path(tag, "jsonl");
    let mut file = std::fs::File::create(&path).unwrap();
    iocov_trace::write_jsonl(&mut file, &recorder.take()).unwrap();
    path
}

/// The trace at `jsonl` as `.iotb` v1 and indexed v2.
fn binary_copies(jsonl: &str, tag: &str) -> [String; 2] {
    let v1 = temp_path(&format!("{tag}-v1"), "iotb");
    let v2 = temp_path(&format!("{tag}-v2"), "iotb");
    run_ok(&["convert", jsonl, &v1]);
    run_ok(&["convert", jsonl, &v2, "--index"]);
    [v1, v2]
}

#[test]
fn whole_trace_subcommands_agree_across_container_formats() {
    let a = kernel_trace("a", 0);
    let b = kernel_trace("b", 1);
    let [a1, a2] = binary_copies(&a, "a");
    let [b1, b2] = binary_copies(&b, "b");
    let mount = ["--mount", "/mnt/test"];
    for cmd in ["untested", "combos", "tcd"] {
        let outputs: Vec<String> = [&a, &a1, &a2]
            .iter()
            .map(|trace| {
                let mut all = vec![cmd, trace.as_str()];
                all.extend(mount);
                if cmd == "tcd" {
                    all.extend(["--target", "10"]);
                }
                run_ok(&all)
            })
            .collect();
        assert!(!outputs[0].is_empty(), "{cmd} printed nothing");
        assert_eq!(outputs[0], outputs[1], "{cmd}: jsonl vs iotb v1");
        assert_eq!(outputs[0], outputs[2], "{cmd}: jsonl vs iotb v2");
    }
    // `diff` names its inputs, so compare with the paths masked.
    let diffs: Vec<String> = [(&a, &b), (&a1, &b1), (&a2, &b2)]
        .iter()
        .map(|(x, y)| {
            let mut all = vec!["diff", x.as_str(), y.as_str()];
            all.extend(mount);
            run_ok(&all)
                .replace(x.as_str(), "A")
                .replace(y.as_str(), "B")
        })
        .collect();
    assert!(diffs[0].contains("only by A"), "{}", diffs[0]);
    assert_eq!(diffs[0], diffs[1], "diff: jsonl vs iotb v1");
    assert_eq!(diffs[0], diffs[2], "diff: jsonl vs iotb v2");
    // One trace in two containers has identical coverage.
    for (x, y) in [(&a, &a1), (&a, &a2), (&a1, &a2)] {
        let out = run_ok(&["diff", x.as_str(), y.as_str(), "--mount", "/mnt/test"]);
        assert_eq!(out, "identical partition coverage\n", "diff {x} {y}");
    }
    for path in [a, a1, a2, b, b1, b2] {
        let _ = std::fs::remove_file(path);
    }
}

/// `untested`, `combos`, `tcd` and `diff`, with and without a mount,
/// print the bytes committed under `fixtures/whole_trace/`. The trace
/// has mount noise, a second pid, `dup2`, renames across the mount
/// boundary, `chdir` plus a relative `openat`, and failing calls. The
/// goldens were run from the repository root, so `diff` names its
/// inputs `fixtures/…`; the absolute paths used here are masked back.
#[test]
fn whole_trace_subcommands_match_their_goldens() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures");
    let trace = format!("{fixtures}/whole_trace.jsonl");
    let other = format!("{fixtures}/noncanonical_trace.jsonl");
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
            let golden = format!("{fixtures}/whole_trace/{cmd}{suffix}.txt");
            let expected = std::fs::read_to_string(&golden).expect("read golden");
            assert_eq!(out, expected, "iocov {all:?} vs {golden}");
        }
    }
}

#[test]
fn convert_back_to_jsonl_reproduces_the_source_bytes() {
    let source = kernel_trace("round", 2);
    let original = std::fs::read(&source).unwrap();
    let copies = binary_copies(&source, "round");
    for (copy, name) in copies.iter().zip(["v1", "v2"]) {
        let back = temp_path(&format!("round-{name}-back"), "jsonl");
        run_ok(&["convert", copy, &back]);
        assert_eq!(
            original,
            std::fs::read(&back).unwrap(),
            "iotb {name} → jsonl changed the bytes"
        );
        let _ = std::fs::remove_file(back);
    }
    for path in copies.into_iter().chain([source]) {
        let _ = std::fs::remove_file(path);
    }
}

/// A strict read of a corrupt trace fails at its first bad line, with
/// the same message and nothing on stdout, whether it is converted or
/// streamed through an analysis session.
#[test]
fn strict_convert_of_a_corrupt_trace_names_the_first_bad_line() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures");
    let fixture = format!("{fixtures}/corrupt_trace.jsonl");
    let clean = format!("{fixtures}/whole_trace.jsonl");
    let out = temp_path("strict", "jsonl");
    let invocations: [&[&str]; 5] = [
        &["convert", &fixture, &out],
        &["untested", &fixture],
        &["combos", &fixture, "--mount", "/mnt/test"],
        &["tcd", &fixture, "--target", "10"],
        &["diff", &clean, &fixture],
    ];
    for all in invocations {
        let output = Command::new(bin())
            .args(all)
            .output()
            .expect("spawn iocov binary");
        let _ = std::fs::remove_file(&out);
        assert_eq!(output.status.code(), Some(1), "iocov {all:?}");
        assert_eq!(
            String::from_utf8_lossy(&output.stdout),
            "",
            "iocov {all:?} printed before failing"
        );
        assert_eq!(
            String::from_utf8_lossy(&output.stderr),
            format!(
                "iocov: cannot parse {fixture}: trace parse error on line 4: \
                 expected `,` or `}}` in object at byte 50\n"
            ),
            "iocov {all:?}"
        );
    }
}

#[test]
fn inapplicable_flags_exit_2_with_usage() {
    let trace = kernel_trace("inapplicable", 0);
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/corrupt_trace.jsonl"
    );
    let cases: [(&[&str], &str); 8] = [
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
            &["combos", fixture, "--lossy"],
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
    ];
    for (all, message) in cases {
        let output = Command::new(bin())
            .args(all)
            .output()
            .expect("spawn iocov binary");
        assert_eq!(output.status.code(), Some(2), "{all:?}");
        assert!(output.stdout.is_empty(), "{all:?}");
        assert_eq!(
            String::from_utf8_lossy(&output.stderr),
            format!("iocov: {message}\n{}\n", iocov_cli::USAGE),
            "{all:?}"
        );
    }
    let _ = std::fs::remove_file(trace);
}
