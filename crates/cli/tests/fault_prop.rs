//! Property: deterministic I/O fault schedules threaded under the CLI
//! trace readers never panic the process. Transient-only schedules
//! (EINTR, EWOULDBLOCK, short reads) are fully absorbed by the retry
//! layer — the report is byte-identical to a fault-free run — and
//! schedules that escalate to hard errors fail with a structured
//! `CliError`, never an abort.

mod common;

use common::{fixture, run_bytes, try_run, TempDir};
use proptest::prelude::*;

/// Two ingestion shapes, over files in `dir`, each with its fault-free
/// output: the checked-in corrupt fixture (BOM, CRLF, malformed JSON,
/// invalid UTF-8, blank lines, truncated tail) read lossily, and a
/// clean trace converted from a Syzkaller-style log (absolute paths,
/// no mount filter).
fn cases(dir: &TempDir) -> Vec<(Vec<String>, Vec<u8>)> {
    let corrupt = fixture("corrupt_trace.jsonl");
    let syz = dir.syz_trace(
        "syz.jsonl",
        "r0 = open(&(0x7f0000000000)='/f\\x00', 0x42, 0x1a4) # 3\n\
         write(r0, &(0x7f0000000040), 0x200) # 512\n\
         close(r0) # 0\n",
    );
    let corrupt_args = [
        "analyze",
        &corrupt,
        "--mount",
        "/mnt/test",
        "--lossy",
        "--json",
    ];
    let syz_args = ["analyze", &syz, "--json"];
    [&corrupt_args[..], &syz_args[..]]
        .into_iter()
        .map(|a| {
            let a: Vec<String> = a.iter().map(|s| (*s).to_owned()).collect();
            let baseline = run_bytes(&a);
            (a, baseline)
        })
        .collect()
}

proptest! {
    #[test]
    fn transient_fault_schedules_are_fully_absorbed(seed in any::<u64>()) {
        let dir = TempDir::new("fault-prop");
        for (base, baseline) in &cases(&dir) {
            let mut faulty = base.clone();
            faulty.push("--inject-io".into());
            faulty.push(seed.to_string());
            let out = try_run(&faulty).expect("transient-only faults must be retried away");
            prop_assert_eq!(&out, baseline, "seed {} over {:?}", seed, &base[1]);
        }
    }

    #[test]
    fn hard_fault_schedules_fail_structured_or_recover(
        seed in any::<u64>(),
        hard_after in 0u64..40,
    ) {
        let dir = TempDir::new("fault-prop");
        for (base, baseline) in &cases(&dir) {
            let mut faulty = base.clone();
            faulty.push("--inject-io".into());
            faulty.push(format!("{seed}:{hard_after}"));
            // Reaching this point at all proves no panic/abort: the run
            // either finished the file before the hard fault fired
            // (byte-identical) or failed with a structured error.
            match try_run(&faulty) {
                Ok(out) => prop_assert_eq!(&out, baseline),
                Err(e) => {
                    let msg = e.to_string();
                    prop_assert!(
                        msg.contains("cannot parse") || msg.contains("cannot open"),
                        "unstructured error: {}", msg
                    );
                }
            }
        }
    }
}
