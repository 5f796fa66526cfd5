//! Property: a checkpointed analysis killed after an arbitrary number
//! of events, then resumed — from the last checkpoint when one was
//! written, from scratch otherwise — produces `--json --metrics` output
//! byte-identical to an uninterrupted run, for every (kill point,
//! checkpoint interval) combination.

mod common;

use std::sync::Arc;

use common::{run_bytes, TempDir};
use proptest::prelude::*;

/// Writes a trace with enough structure to exercise cross-checkpoint
/// state: descriptors opened before a cut and used after it.
fn sample_trace_path(dir: &TempDir) -> String {
    use iocov_syscalls::Kernel;
    use iocov_trace::Recorder;
    let recorder = Arc::new(Recorder::new());
    let mut kernel = Kernel::new();
    kernel.attach_recorder(Arc::clone(&recorder));
    kernel.mkdir("/mnt", 0o755);
    kernel.mkdir("/mnt/test", 0o755);
    for i in 0..4 {
        let fd = kernel.open(&format!("/mnt/test/f{i}"), 0o102 | 0o100, 0o644) as i32;
        kernel.write(fd, &vec![0u8; 100 << i]);
        kernel.close(fd);
    }
    kernel.open("/etc/noise", 0, 0);
    kernel.open("/mnt/test/missing", 0, 0);
    let path = dir.path("trace.jsonl");
    let mut file = std::fs::File::create(&path).unwrap();
    iocov_trace::write_jsonl(&mut file, &recorder.take()).unwrap();
    path
}

proptest! {
    #[test]
    fn kill_and_resume_matches_uninterrupted(stop in 1u64..20, every in 1u64..6) {
        let dir = TempDir::new("ckpt-prop");
        let trace = sample_trace_path(&dir);
        let ckpt = dir.path("trace.iockpt");
        let uninterrupted = run_bytes(&[
            "analyze", &trace, "--mount", "/mnt/test", "--json", "--metrics",
        ]);
        let stop_s = stop.to_string();
        let every_s = every.to_string();
        let killed = run_bytes(&[
            "analyze", &trace, "--mount", "/mnt/test", "--json", "--metrics",
            "--checkpoint-every", &every_s, "--checkpoint-file", &ckpt,
            "--stop-after-events", &stop_s,
        ]);
        if String::from_utf8_lossy(&killed).starts_with("stopped after") {
            // Killed mid-run: resume from the checkpoint when the kill
            // point was past the first interval, from scratch otherwise
            // (a real operator would do exactly this).
            let resumed = if std::path::Path::new(&ckpt).exists() {
                run_bytes(&[
                    "analyze", &trace, "--mount", "/mnt/test", "--json", "--metrics",
                    "--checkpoint-every", &every_s, "--checkpoint-file", &ckpt,
                    "--resume", &ckpt,
                ])
            } else {
                run_bytes(&[
                    "analyze", &trace, "--mount", "/mnt/test", "--json", "--metrics",
                    "--checkpoint-every", &every_s, "--checkpoint-file", &ckpt,
                ])
            };
            prop_assert_eq!(resumed, uninterrupted);
        } else {
            // The kill point was past the end of the trace: the run
            // completed normally and must already match.
            prop_assert_eq!(killed, uninterrupted);
        }
    }
}
