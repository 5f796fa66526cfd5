//! Property: the serialized analysis report is byte-identical across
//! every cell of the pipeline matrix —
//! {jsonl, jsonl-lossy, iotb, iotb-indexed-v2} × {jobs 1, jobs 2, jobs 4} ×
//! {--metrics on/off} × {straight run, checkpoint kill/resume} —
//! seeded from the checked-in corrupt fixture and a converted
//! Syzkaller-style trace. This is the tentpole invariant of the
//! EventSource/ShardSupervisor unification: one `PipelineBuilder` path serves
//! every flag combination, and none of them may perturb the output.

use iocov_cli::{parse_args, run, CliError};
use proptest::prelude::*;

fn try_run(all: &[String]) -> Result<Vec<u8>, CliError> {
    let mut out = Vec::new();
    run(&parse_args(all).unwrap(), &mut out)?;
    Ok(out)
}

fn args(all: &[&str]) -> Vec<String> {
    all.iter().map(|s| (*s).to_owned()).collect()
}

fn run_bytes(all: &[String]) -> Vec<u8> {
    try_run(all).unwrap()
}

/// The checked-in corrupt fixture: BOM, CRLF, malformed JSON, invalid
/// UTF-8, blank lines, truncated tail. Lossy-only for JSONL.
fn corrupt_fixture() -> String {
    format!(
        "{}/../../fixtures/corrupt_trace.jsonl",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn temp_path(tag: &str, ext: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "iocov-matrix-prop-{}-{tag}.{ext}",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// A clean multi-event trace from a Syzkaller-style log, so the matrix
/// also covers the strict JSONL and no-mount-filter shapes.
fn syz_trace() -> String {
    let log = temp_path("syz", "txt");
    std::fs::write(
        &log,
        "r0 = open(&(0x7f0000000000)='/f\\x00', 0x42, 0x1a4) # 3\n\
         write(r0, &(0x7f0000000040), 0x200) # 512\n\
         pread64(r0, &(0x7f0000000080), 0x100, 0x0) # 256\n\
         lseek(r0, 0x0, 0x2) # 768\n\
         close(r0) # 0\n\
         open(&(0x7f00000000c0)='/missing\\x00', 0x0, 0x0) # -2\n",
    )
    .unwrap();
    let jsonl = run_bytes(&args(&["convert-syz", &log]));
    let path = temp_path("syz", "jsonl");
    std::fs::write(&path, jsonl).unwrap();
    let _ = std::fs::remove_file(&log);
    path
}

/// Converts a trace to the binary container via the CLI itself.
fn to_iotb(input: &str, tag: &str, lossy: bool) -> String {
    let out_path = temp_path(tag, "iotb");
    let mut cmd = vec!["convert", input, &out_path];
    if lossy {
        cmd.push("--lossy");
    }
    run_bytes(&args(&cmd));
    out_path
}

/// Converts a trace to the block-indexed v2 container via the CLI.
fn to_indexed_iotb(input: &str, tag: &str, lossy: bool) -> String {
    let out_path = temp_path(&format!("{tag}-v2"), "iotb");
    let mut cmd = vec!["convert", input, &out_path, "--index"];
    if lossy {
        cmd.push("--lossy");
    }
    run_bytes(&args(&cmd));
    out_path
}

/// One seed trace of the matrix: a path plus the fixed flags its
/// container/content requires.
struct SeedCase {
    label: &'static str,
    path: String,
    fixed: Vec<String>,
}

/// Every source-shape cell, with per-shape baselines computed serially
/// once. `--metrics` stays out of the baseline flags so both metrics
/// states diff against the same serial reference.
fn seed_cases() -> &'static Vec<SeedCase> {
    static CASES: std::sync::OnceLock<Vec<SeedCase>> = std::sync::OnceLock::new();
    CASES.get_or_init(|| {
        let corrupt = corrupt_fixture();
        let corrupt_iotb = to_iotb(&corrupt, "corrupt", true);
        let corrupt_indexed = to_indexed_iotb(&corrupt, "corrupt", true);
        let syz = syz_trace();
        let syz_iotb = to_iotb(&syz, "clean", false);
        let syz_indexed = to_indexed_iotb(&syz, "clean", false);
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
            // Block-indexed v2 containers: at --jobs > 1 these route
            // through the parallel IotbBlockSource, whose output must
            // match the serial decode of the same file byte for byte.
            SeedCase {
                label: "iotb-indexed-from-lossy",
                path: corrupt_indexed,
                fixed: args(&["--mount", "/mnt/test"]),
            },
            SeedCase {
                label: "iotb-indexed-strict",
                path: syz_indexed,
                fixed: Vec::new(),
            },
        ]
    })
}

/// The `analyze` invocation for one matrix cell.
fn cell_args(case: &SeedCase, jobs: usize, metrics: bool, extra: &[String]) -> Vec<String> {
    let mut all = args(&["analyze", &case.path, "--json"]);
    all.extend(case.fixed.iter().cloned());
    if jobs > 1 {
        all.push("--jobs".into());
        all.push(jobs.to_string());
    }
    if metrics {
        all.push("--metrics".into());
    }
    all.extend(extra.iter().cloned());
    all
}

/// Straight runs: every executor × metrics cell matches the serial
/// cell of the same source, byte for byte (metrics cells are compared
/// to the serial *metrics* cell, since the document embeds the
/// counters). Deterministic, so a plain test rather than a property.
#[test]
fn every_executor_cell_is_byte_identical() {
    for case in seed_cases() {
        for metrics in [false, true] {
            let baseline = run_bytes(&cell_args(case, 1, metrics, &[]));
            for jobs in [2usize, 4] {
                let out = run_bytes(&cell_args(case, jobs, metrics, &[]));
                assert_eq!(
                    out, baseline,
                    "{} diverged at {} jobs (metrics: {})",
                    case.label, jobs, metrics
                );
            }
        }
    }
}

proptest! {
    /// Checkpoint kill/resume: killing a run at a generated event count
    /// and resuming from its checkpoint renders byte-identically to the
    /// uninterrupted run, for every source shape and worker count.
    #[test]
    fn kill_resume_cells_are_byte_identical(
        every in 1u64..4,
        extra in 0u64..3,
        jobs_idx in 0usize..3,
        metrics in any::<bool>(),
    ) {
        // Both seed traces hold at least 4 events; keeping
        // `every <= stop <= 4` guarantees the kill fires after at least
        // one checkpoint cut, so the resume file always exists.
        let stop = (every + extra).min(4);
        let jobs = [1usize, 2, 4][jobs_idx];
        for case in seed_cases() {
            let baseline = run_bytes(&cell_args(case, jobs, metrics, &[]));
            let ckpt = temp_path(&format!("ck-{}-{every}-{stop}-{jobs}", case.label), "iockpt");
            let ck_flags = args(&["--checkpoint-every", &every.to_string(), "--checkpoint-file", &ckpt]);
            let mut kill_flags = ck_flags.clone();
            kill_flags.push("--stop-after-events".into());
            kill_flags.push(stop.to_string());
            let killed = run_bytes(&cell_args(case, jobs, metrics, &kill_flags));
            let text = String::from_utf8(killed).unwrap();
            prop_assert!(
                text.starts_with("stopped after"),
                "{}: kill produced a report instead of stopping: {}", case.label, text
            );
            let mut resume_flags = ck_flags;
            resume_flags.push("--resume".into());
            resume_flags.push(ckpt.clone());
            let resumed = run_bytes(&cell_args(case, jobs, metrics, &resume_flags));
            prop_assert_eq!(
                &resumed, &baseline,
                "{} diverged after resume (every {}, stop {}, jobs {}, metrics {})",
                case.label, every, stop, jobs, metrics
            );
            let _ = std::fs::remove_file(&ckpt);
        }
    }
}
