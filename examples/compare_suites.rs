//! Compare the input/output coverage of two file-system test suites —
//! the paper's core evaluation, at adjustable scale.
//!
//! ```text
//! cargo run --release --example compare_suites [scale]
//! ```

use iocov::tcd::{crossover, tcd_uniform};
use iocov::{ArgName, BaseSyscall, InputPartition, Iocov};
use iocov_bench::{open_flag_frequencies, run_suites};
use iocov_workloads::{LtpSim, TestEnv, MOUNT};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);
    eprintln!("running both suites at scale {scale} …");
    let reports = run_suites(42, scale, None);

    println!("== per-flag open coverage (Figure 2) ==");
    println!("{:<14} {:>12} {:>12}", "flag", "CrashMonkey", "xfstests");
    let cm = open_flag_frequencies(&reports.crashmonkey);
    let xfs = open_flag_frequencies(&reports.xfstests);
    for ((flag, c), (_, x)) in cm.iter().zip(&xfs) {
        println!("{flag:<14} {c:>12} {x:>12}");
    }

    println!("\n== write-size coverage breadth (Figure 3) ==");
    for (name, report) in [
        ("CrashMonkey", &reports.crashmonkey),
        ("xfstests", &reports.xfstests),
    ] {
        let cov = report.input_coverage(ArgName::WriteCount);
        let covered = cov
            .counts
            .iter()
            .filter(|(p, c)| matches!(p, InputPartition::Numeric(_)) && **c > 0)
            .count();
        println!("{name:<12}: {covered} write-size buckets exercised");
    }

    // A third suite (extension): LTP-style systematic per-syscall tests.
    let ltp_env = TestEnv::new();
    let _ = LtpSim::new(42, scale.max(0.05)).run(&ltp_env);
    let ltp_report = Iocov::with_mount_point(MOUNT)
        .expect("valid mount pattern")
        .analyze(&ltp_env.take_trace());

    println!("\n== open error-code coverage (Figure 4, + LTP extension) ==");
    for (name, report) in [
        ("CrashMonkey", &reports.crashmonkey),
        ("xfstests", &reports.xfstests),
        ("LTP", &ltp_report),
    ] {
        let cov = report.output_coverage(BaseSyscall::Open);
        let covered = iocov::output_errnos(BaseSyscall::Open)
            .iter()
            .filter(|e| cov.errno_count(e) > 0)
            .count();
        println!(
            "{name:<12}: {covered}/27 error codes, {} successes, {} failures",
            cov.successes(),
            cov.errors()
        );
    }

    println!("\n== TCD comparison (Figure 5) ==");
    let cm_freqs: Vec<u64> = cm.iter().map(|(_, c)| *c).collect();
    let xfs_freqs: Vec<u64> = xfs.iter().map(|(_, c)| *c).collect();
    for target in [1u64, 10, 100, 1_000, 10_000, 100_000] {
        println!(
            "target {:>7}: CrashMonkey {:.3}  xfstests {:.3}",
            target,
            tcd_uniform(&cm_freqs, target),
            tcd_uniform(&xfs_freqs, target)
        );
    }
    if let Some(t) = crossover(&cm_freqs, &xfs_freqs, 1, 10_000_000) {
        println!("TCD crossover at uniform target ≈ {t}");
        println!("(the paper reports ≈ 5,237 at full scale; scale shifts it proportionally)");
    }
}
