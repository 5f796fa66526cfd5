//! `repro` refuses what it cannot run: an exhibit name it does not know
//! fails before any output, naming the exhibits it knows.

use std::process::Command;

#[test]
fn unknown_exhibit_fails_naming_the_known_ones() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig9")
        .output()
        .expect("spawn repro binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "repro fig9 succeeded");
    assert!(
        output.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&output.stdout)
    );
    assert!(stderr.contains("unknown exhibit fig9"), "{stderr}");
    assert!(
        stderr.contains(
            "fig2 table1 fig3 fig4 fig5 untested bugstudy difftest fuzzer feedback dataset"
        ),
        "{stderr}"
    );
}
