//! Calibration shape checks: scaled-down runs of both suite simulators
//! must reproduce the qualitative claims of every figure and table in
//! the paper's evaluation. (The `repro` binary prints the same checks at
//! any scale; these tests pin them in CI at a small scale.)

use iocov::tcd::{crossover, tcd_uniform};
use iocov::{ArgName, BaseSyscall, InputPartition, NumericPartition};
use iocov_bench::{open_flag_frequencies, run_suites, SuiteReports};

/// One shared scaled-down run (the simulations are deterministic).
fn reports() -> &'static SuiteReports {
    use std::sync::OnceLock;
    static REPORTS: OnceLock<SuiteReports> = OnceLock::new();
    REPORTS.get_or_init(|| run_suites(42, 0.05))
}

#[test]
fn figure2_xfstests_dominates_every_flag() {
    let r = reports();
    let cm = open_flag_frequencies(&r.crashmonkey);
    let xfs = open_flag_frequencies(&r.xfstests);
    for ((flag, c), (_, x)) in cm.iter().zip(&xfs) {
        assert!(x >= c, "{flag}: xfstests {x} < CrashMonkey {c}");
    }
}

#[test]
fn figure2_o_rdonly_is_dominant_for_both() {
    let r = reports();
    for report in [&r.crashmonkey, &r.xfstests] {
        let freqs = open_flag_frequencies(report);
        let rdonly = freqs.iter().find(|(f, _)| *f == "O_RDONLY").unwrap().1;
        assert!(freqs.iter().all(|(_, c)| *c <= rdonly));
        assert!(rdonly > 0);
    }
}

#[test]
fn figure2_untested_flags_exist_and_nest() {
    let r = reports();
    let cm = open_flag_frequencies(&r.crashmonkey);
    let xfs = open_flag_frequencies(&r.xfstests);
    // Flags untested by xfstests are untested by CrashMonkey too.
    for ((flag, c), (_, x)) in cm.iter().zip(&xfs) {
        if *x == 0 {
            assert_eq!(*c, 0, "{flag} tested by CM but not xfstests");
        }
    }
    assert!(
        xfs.iter().any(|(_, c)| *c == 0),
        "some flags untested by both"
    );
}

#[test]
fn table1_combination_shapes() {
    let r = reports();
    let modal = |report: &iocov::AnalysisReport| {
        report
            .open_combos
            .percentages(false)
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, _)| s)
            .unwrap()
    };
    assert_eq!(modal(&r.crashmonkey), 4, "CM modal combo size");
    assert_eq!(modal(&r.xfstests), 4, "xfstests modal combo size");
    assert!(r.crashmonkey.open_combos.max_size() <= 6);
    assert!(r.xfstests.open_combos.max_size() <= 6);
    // The restricted-to-O_RDONLY histogram is populated (Table 1's
    // second row per suite).
    assert!(!r.crashmonkey.open_combos.sizes_with_rdonly.is_empty());
    assert!(!r.xfstests.open_combos.sizes_with_rdonly.is_empty());
}

#[test]
fn figure3_write_size_shapes() {
    let r = reports();
    let cm = r.crashmonkey.input_coverage(ArgName::WriteCount);
    let xfs = r.xfstests.input_coverage(ArgName::WriteCount);
    // xfstests ≥ CrashMonkey in every bucket.
    for k in 0..=32u32 {
        let p = InputPartition::Numeric(NumericPartition::Log2(k));
        assert!(xfs.count(&p) >= cm.count(&p), "bucket 2^{k}");
    }
    // Nothing above 2^28 (258 MiB max) for either suite.
    for k in 29..=63u32 {
        let p = InputPartition::Numeric(NumericPartition::Log2(k));
        assert_eq!(cm.count(&p), 0);
        assert_eq!(xfs.count(&p), 0, "bucket 2^{k}");
    }
    // The "=0" boundary: tested by xfstests only.
    let zero = InputPartition::Numeric(NumericPartition::Zero);
    assert!(xfs.count(&zero) > 0);
    assert_eq!(cm.count(&zero), 0);
    // CrashMonkey leaves many buckets untested; xfstests leaves fewer.
    assert!(cm.untested(ArgName::WriteCount).len() > xfs.untested(ArgName::WriteCount).len());
}

#[test]
fn figure4_output_coverage_shapes() {
    let r = reports();
    let cm = r.crashmonkey.output_coverage(BaseSyscall::Open);
    let xfs = r.xfstests.output_coverage(BaseSyscall::Open);
    let cm_codes = iocov::output_errnos(BaseSyscall::Open)
        .iter()
        .filter(|e| cm.errno_count(e) > 0)
        .count();
    let xfs_codes = iocov::output_errnos(BaseSyscall::Open)
        .iter()
        .filter(|e| xfs.errno_count(e) > 0)
        .count();
    assert!(xfs_codes > cm_codes, "xfstests covers more error codes");
    assert!(
        cm.errno_count("ENOTDIR") > xfs.errno_count("ENOTDIR"),
        "ENOTDIR is CrashMonkey's exception"
    );
    assert!(
        !xfs.untested_errnos(BaseSyscall::Open).is_empty(),
        "still untested codes"
    );
}

#[test]
fn figure5_tcd_crossover_exists() {
    let r = reports();
    let cm: Vec<u64> = open_flag_frequencies(&r.crashmonkey)
        .iter()
        .map(|(_, c)| *c)
        .collect();
    let xfs: Vec<u64> = open_flag_frequencies(&r.xfstests)
        .iter()
        .map(|(_, c)| *c)
        .collect();
    assert!(
        tcd_uniform(&cm, 1) < tcd_uniform(&xfs, 1),
        "CrashMonkey better at tiny targets"
    );
    assert!(
        tcd_uniform(&cm, 10_000_000) > tcd_uniform(&xfs, 10_000_000),
        "xfstests better at huge targets"
    );
    let t = crossover(&cm, &xfs, 1, 10_000_000).expect("crossover exists");
    assert!(t > 1 && t < 10_000_000);
}

#[test]
fn iocov_finds_untested_cases_for_both_suites() {
    // The paper's summary finding.
    let r = reports();
    for (name, report) in [("CrashMonkey", &r.crashmonkey), ("xfstests", &r.xfstests)] {
        let untested_inputs: usize = ArgName::ALL
            .iter()
            .map(|&a| report.input_coverage(a).untested(a).len())
            .sum();
        let untested_outputs: usize = BaseSyscall::ALL
            .iter()
            .map(|&b| report.output_coverage(b).untested_errnos(b).len())
            .sum();
        assert!(untested_inputs > 10, "{name}: {untested_inputs}");
        assert!(untested_outputs > 10, "{name}: {untested_outputs}");
    }
}

#[test]
fn suites_run_clean_without_injected_bugs() {
    let r = reports();
    assert!(r.crashmonkey_result.crash_violations.is_empty());
    assert!(r.crashmonkey_result.failures.is_empty());
    assert!(r.xfstests_result.failures.is_empty());
    assert_eq!(r.xfstests_result.tests_run, 1014);
    assert!(r.crashmonkey_result.tests_run >= 300);
}
