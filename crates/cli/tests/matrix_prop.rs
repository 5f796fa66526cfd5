//! Property: the serialized analysis report is byte-identical across
//! every cell of the pipeline matrix —
//! {jsonl, jsonl-lossy, iotb, iotb-indexed-v2} × {--metrics on/off} ×
//! {straight run, checkpoint kill/resume} — seeded from the checked-in
//! corrupt fixture, a converted Syzkaller-style trace, and a bit-flipped
//! copy of each one's v2 container. One `PipelineBuilder` path serves
//! every flag combination, and none of them may perturb the output.

mod common;

use common::{fixture, run_bytes, TempDir};
use proptest::prelude::*;

fn args(all: &[&str]) -> Vec<String> {
    all.iter().map(|s| (*s).to_owned()).collect()
}

/// A clean multi-event trace from a Syzkaller-style log, so the matrix
/// also covers the strict JSONL and no-mount-filter shapes.
fn syz_trace(dir: &TempDir) -> String {
    dir.syz_trace(
        "syz.jsonl",
        "r0 = open(&(0x7f0000000000)='/f\\x00', 0x42, 0x1a4) # 3\n\
         write(r0, &(0x7f0000000040), 0x200) # 512\n\
         pread64(r0, &(0x7f0000000080), 0x100, 0x0) # 256\n\
         lseek(r0, 0x0, 0x2) # 768\n\
         close(r0) # 0\n\
         open(&(0x7f00000000c0)='/missing\\x00', 0x0, 0x0) # -2\n",
    )
}

/// Converts a trace to the binary container via the CLI itself.
fn to_iotb(dir: &TempDir, input: &str, tag: &str, lossy: bool) -> String {
    let out_path = dir.path(&format!("{tag}.iotb"));
    let mut cmd = vec!["convert", input, &out_path];
    if lossy {
        cmd.push("--lossy");
    }
    run_bytes(&cmd);
    out_path
}

/// Converts a trace to the block-indexed v2 container via the CLI.
fn to_indexed_iotb(dir: &TempDir, input: &str, tag: &str, lossy: bool) -> String {
    let out_path = dir.path(&format!("{tag}-v2.iotb"));
    let mut cmd = vec!["convert", input, &out_path, "--index"];
    if lossy {
        cmd.push("--lossy");
    }
    run_bytes(&cmd);
    out_path
}

/// A copy of the v2 container at `path` with one bit of the first
/// record's `timestamp_ns` flipped. The record still decodes, so the
/// run reads the flipped value and renders a report.
fn flip_first_timestamp_bit(dir: &TempDir, path: &str, tag: &str) -> String {
    let mut bytes = std::fs::read(path).unwrap();
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let mut pos = 12;
    for _ in 0..count {
        pos += 4 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    }
    // Past the table checksum and the record's length prefix, `seq`
    // (8 bytes) precedes `timestamp_ns`.
    bytes[pos + 8 + 4 + 8] ^= 0x01;
    let out = dir.path(&format!("{tag}-v2-bitflip.iotb"));
    std::fs::write(&out, bytes).unwrap();
    out
}

/// One seed trace of the matrix: a path plus the fixed flags its
/// container/content requires.
struct SeedCase {
    label: &'static str,
    path: String,
    fixed: Vec<String>,
}

/// Every source-shape cell, over files in `dir`. `--metrics` stays out
/// of the fixed flags so both metrics states run over every source.
fn seed_cases(dir: &TempDir) -> Vec<SeedCase> {
    let corrupt = fixture("corrupt_trace.jsonl");
    let corrupt_iotb = to_iotb(dir, &corrupt, "corrupt", true);
    let corrupt_indexed = to_indexed_iotb(dir, &corrupt, "corrupt", true);
    let corrupt_flipped = flip_first_timestamp_bit(dir, &corrupt_indexed, "corrupt");
    let syz = syz_trace(dir);
    let syz_iotb = to_iotb(dir, &syz, "clean", false);
    let syz_indexed = to_indexed_iotb(dir, &syz, "clean", false);
    let syz_flipped = flip_first_timestamp_bit(dir, &syz_indexed, "clean");
    vec![
        SeedCase {
            label: "jsonl-lossy",
            path: corrupt,
            fixed: args(&["--mount", "/mnt/test", "--lossy"]),
        },
        SeedCase {
            label: "iotb-from-lossy",
            path: corrupt_iotb,
            fixed: args(&["--mount", "/mnt/test"]),
        },
        SeedCase {
            label: "jsonl-strict",
            path: syz.clone(),
            fixed: Vec::new(),
        },
        SeedCase {
            label: "jsonl-strict-as-lossy",
            path: syz,
            fixed: args(&["--lossy"]),
        },
        SeedCase {
            label: "iotb-strict",
            path: syz_iotb,
            fixed: Vec::new(),
        },
        SeedCase {
            label: "iotb-indexed-from-lossy",
            path: corrupt_indexed,
            fixed: args(&["--mount", "/mnt/test"]),
        },
        SeedCase {
            label: "iotb-indexed-from-lossy-bitflip",
            path: corrupt_flipped,
            fixed: args(&["--mount", "/mnt/test"]),
        },
        SeedCase {
            label: "iotb-indexed-strict",
            path: syz_indexed,
            fixed: Vec::new(),
        },
        SeedCase {
            label: "iotb-indexed-bitflip-strict",
            path: syz_flipped,
            fixed: Vec::new(),
        },
    ]
}

/// The `analyze` invocation for one matrix cell.
fn cell_args(case: &SeedCase, metrics: bool, extra: &[String]) -> Vec<String> {
    let mut all = args(&["analyze", &case.path, "--json"]);
    all.extend(case.fixed.iter().cloned());
    if metrics {
        all.push("--metrics".into());
    }
    all.extend(extra.iter().cloned());
    all
}

/// The flipped timestamp never reaches the report: the bit-flipped v2
/// file renders the clean file's bytes.
#[test]
fn bit_flipped_v2_reports_like_the_clean_file() {
    let dir = TempDir::new("matrix-prop");
    let cases = seed_cases(&dir);
    let report = |label: &str| {
        let case = cases.iter().find(|case| case.label == label);
        run_bytes(&cell_args(case.unwrap(), false, &[]))
    };
    assert_eq!(
        report("iotb-indexed-bitflip-strict"),
        report("iotb-indexed-strict")
    );
}

proptest! {
    /// Checkpoint kill/resume: killing a run at a generated event count
    /// and resuming from its checkpoint renders byte-identically to the
    /// uninterrupted run, for every source shape.
    #[test]
    fn kill_resume_cells_are_byte_identical(
        every in 1u64..4,
        extra in 0u64..3,
        metrics in any::<bool>(),
    ) {
        // Both seed traces hold at least 4 events; keeping
        // `every <= stop <= 4` guarantees the kill fires after at least
        // one checkpoint cut, so the resume file always exists.
        let stop = (every + extra).min(4);
        let dir = TempDir::new("matrix-prop");
        for case in &seed_cases(&dir) {
            let baseline = run_bytes(&cell_args(case, metrics, &[]));
            let ckpt = dir.path(&format!("ck-{}.iockpt", case.label));
            let ck_flags = args(&["--checkpoint-every", &every.to_string(), "--checkpoint-file", &ckpt]);
            let mut kill_flags = ck_flags.clone();
            kill_flags.push("--stop-after-events".into());
            kill_flags.push(stop.to_string());
            let killed = run_bytes(&cell_args(case, metrics, &kill_flags));
            let text = String::from_utf8(killed).unwrap();
            prop_assert!(
                text.starts_with("stopped after"),
                "{}: kill produced a report instead of stopping: {}", case.label, text
            );
            let mut resume_flags = ck_flags;
            resume_flags.push("--resume".into());
            resume_flags.push(ckpt.clone());
            let resumed = run_bytes(&cell_args(case, metrics, &resume_flags));
            prop_assert_eq!(
                &resumed, &baseline,
                "{} diverged after resume (every {}, stop {}, metrics {})",
                case.label, every, stop, metrics
            );
        }
    }
}
