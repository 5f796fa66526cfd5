//! `repro --full` is deterministic: every exhibit, count and shape check
//! it prints equals the committed `repro_full_output.txt` byte for byte.

use std::process::Command;

/// Runs in a fresh working directory, because `--full` also writes
/// `metrics.json` (and the `dataset` exhibit `bug_study_dataset.json`)
/// there; the directory is removed when the test ends, also on panic.
#[test]
#[ignore = "runs every exhibit at paper scale (~14M syscalls); run in release"]
fn full_run_prints_the_committed_output() {
    struct Dir(std::path::PathBuf);
    impl Drop for Dir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = Dir(std::env::temp_dir().join(format!("iocov-repro-full-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--full")
        .current_dir(&dir.0)
        .output()
        .expect("spawn repro binary");
    assert!(
        output.status.success(),
        "repro --full failed: {}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let expected = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../repro_full_output.txt"
    ))
    .unwrap();
    assert!(
        output.stdout == expected,
        "repro --full stdout differs from repro_full_output.txt:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
}
