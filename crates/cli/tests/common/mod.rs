//! Shared by the CLI's integration tests: the checked-in fixtures, two
//! ways to run `iocov` (the real binary, or `parse_args` + `run` in
//! this process), and a temp-directory guard.

// Each test target uses its own subset of these helpers.
#![allow(dead_code)]

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use iocov_cli::{parse_args, run, CliError};

/// The path of `name` under the repository's `fixtures/`.
pub fn fixture(name: &str) -> String {
    format!("{}/../../fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs the real `iocov` binary on `all`, with `stdin` piped to it
/// when given (as `cat FILE | iocov … /dev/stdin` would) and no stdin
/// otherwise.
pub fn iocov(all: &[&str], stdin: Option<&[u8]>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_iocov"))
        .args(all)
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn iocov binary");
    let pipe = child.stdin.take();
    std::thread::scope(|scope| {
        if let (Some(mut pipe), Some(bytes)) = (pipe, stdin) {
            // A writer of its own, so a full stdout pipe cannot stall
            // the child while this side still writes.
            scope.spawn(move || pipe.write_all(bytes).expect("write iocov stdin"));
        }
        child.wait_with_output().expect("wait for iocov binary")
    })
}

/// Runs the real binary like [`iocov`], asserting it exits 0, and
/// returns its stdout.
pub fn run_ok_with(all: &[&str], stdin: Option<&[u8]>) -> String {
    let output = iocov(all, stdin);
    assert!(
        output.status.success(),
        "iocov {all:?} failed: {}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// Runs the real binary with no stdin, asserting it exits 0, and
/// returns its stdout.
pub fn run_ok(all: &[&str]) -> String {
    run_ok_with(all, None)
}

/// Runs `iocov ALL` in this process, through `parse_args` and `run`.
pub fn try_run<S: AsRef<str>>(all: &[S]) -> Result<Vec<u8>, CliError> {
    let all: Vec<String> = all.iter().map(|s| s.as_ref().to_owned()).collect();
    let mut out = Vec::new();
    run(&parse_args(&all).unwrap(), &mut out)?;
    Ok(out)
}

/// [`try_run`], asserting success.
pub fn run_bytes<S: AsRef<str>>(all: &[S]) -> Vec<u8> {
    try_run(all).unwrap()
}

/// A fresh directory under the system temp dir, removed with all its
/// contents when dropped, also when the test panics.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "iocov-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// The path of `name` inside the directory.
    pub fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }

    /// Converts the Syzkaller `log` to JSONL (in this process) and
    /// writes it as `name`; returns its path.
    pub fn syz_trace(&self, name: &str, log: &str) -> String {
        let log_path = self.path(&format!("{name}.syz"));
        std::fs::write(&log_path, log).unwrap();
        let path = self.path(name);
        std::fs::write(&path, run_bytes(&["convert-syz", &log_path])).unwrap();
        path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
