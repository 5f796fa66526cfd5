//! Human-readable rendering of coverage reports and suite comparisons.

use std::fmt::Write as _;

use iocov_syscalls::BaseSyscall;

use crate::arg::ArgName;
use crate::coverage::AnalysisReport;
use crate::domain::{arg_domain, output_errnos};
use crate::partition::OutputPartition;

/// Renders the input coverage of one argument as an aligned text table
/// (one row per domain partition, zero rows marked `UNTESTED`).
#[must_use]
pub fn render_input(report: &AnalysisReport, arg: ArgName) -> String {
    let cov = report.input_coverage(arg);
    let mut out = String::new();
    let _ = writeln!(out, "input coverage: {arg} ({} calls)", cov.calls);
    for partition in arg_domain(arg).all_partitions() {
        let count = cov.count(&partition);
        let marker = if count == 0 { "  UNTESTED" } else { "" };
        let _ = writeln!(out, "  {partition:<16} {count:>12}{marker}");
    }
    out
}

/// Renders the output coverage of one base syscall.
#[must_use]
pub fn render_output(report: &AnalysisReport, base: BaseSyscall) -> String {
    let cov = report.output_coverage(base);
    let mut out = String::new();
    let _ = writeln!(out, "output coverage: {base} ({} calls)", cov.calls);
    let _ = writeln!(out, "  {:<16} {:>12}", "OK", cov.successes());
    for errno in output_errnos(base) {
        let count = cov.errno_count(errno);
        let marker = if count == 0 { "  UNTESTED" } else { "" };
        let _ = writeln!(out, "  {errno:<16} {count:>12}{marker}");
    }
    // Byte-count sub-buckets, if any.
    let mut buckets: Vec<(&OutputPartition, &u64)> = cov
        .counts
        .iter()
        .filter(|(p, _)| matches!(p, OutputPartition::OkBytes(_)))
        .collect();
    buckets.sort_by_key(|(p, _)| (*p).clone());
    for (p, c) in buckets {
        let label = p.to_string();
        let _ = writeln!(out, "  {label:<16} {c:>12}");
    }
    out
}

/// A one-paragraph summary of untested inputs and outputs — the
/// actionable finding the paper reports ("IOCov identified many untested
/// cases for both CrashMonkey and xfstests").
#[must_use]
pub fn untested_summary(report: &AnalysisReport) -> String {
    let mut out = String::new();
    let mut input_total = 0usize;
    for arg in ArgName::ALL {
        let untested = report.input_coverage(arg).untested(arg);
        if !untested.is_empty() {
            input_total += untested.len();
            let names: Vec<String> = untested.iter().take(6).map(ToString::to_string).collect();
            let ellipsis = if untested.len() > 6 { ", …" } else { "" };
            let _ = writeln!(
                out,
                "{arg}: {} untested partitions ({}{ellipsis})",
                untested.len(),
                names.join(", ")
            );
        }
    }
    let mut output_total = 0usize;
    for base in BaseSyscall::ALL {
        let untested = report.output_coverage(base).untested_errnos(base);
        if !untested.is_empty() {
            output_total += untested.len();
            let _ = writeln!(
                out,
                "{base} outputs: {} untested errnos ({})",
                untested.len(),
                untested.join(", ")
            );
        }
    }
    let _ = writeln!(
        out,
        "total: {input_total} untested input partitions, {output_total} untested error outputs"
    );
    out
}

/// Coverage differences between two suites: partitions one exercises
/// and the other misses — the direct answer to "what should suite B add
/// to catch up with suite A?".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageDiff {
    /// Input partitions covered only by the first suite, per argument.
    pub inputs_only_a: Vec<(ArgName, crate::InputPartition)>,
    /// Input partitions covered only by the second suite.
    pub inputs_only_b: Vec<(ArgName, crate::InputPartition)>,
    /// Errnos elicited only by the first suite, per base syscall name.
    pub errnos_only_a: Vec<(String, String)>,
    /// Errnos elicited only by the second suite.
    pub errnos_only_b: Vec<(String, String)>,
}

impl CoverageDiff {
    /// Whether the two suites cover identical partitions (ignoring
    /// frequencies).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inputs_only_a.is_empty()
            && self.inputs_only_b.is_empty()
            && self.errnos_only_a.is_empty()
            && self.errnos_only_b.is_empty()
    }
}

/// Computes the coverage diff between two reports (binary covered /
/// uncovered per partition, over the displayed domains).
#[must_use]
pub fn diff(a: &AnalysisReport, b: &AnalysisReport) -> CoverageDiff {
    let mut out = CoverageDiff::default();
    for arg in ArgName::ALL {
        let cov_a = a.input_coverage(arg);
        let cov_b = b.input_coverage(arg);
        for partition in arg_domain(arg).all_partitions() {
            match (cov_a.count(&partition) > 0, cov_b.count(&partition) > 0) {
                (true, false) => out.inputs_only_a.push((arg, partition)),
                (false, true) => out.inputs_only_b.push((arg, partition)),
                _ => {}
            }
        }
    }
    for base in BaseSyscall::ALL {
        let cov_a = a.output_coverage(base);
        let cov_b = b.output_coverage(base);
        for errno in output_errnos(base) {
            match (cov_a.errno_count(errno) > 0, cov_b.errno_count(errno) > 0) {
                (true, false) => out
                    .errnos_only_a
                    .push((base.name().to_owned(), (*errno).to_owned())),
                (false, true) => out
                    .errnos_only_b
                    .push((base.name().to_owned(), (*errno).to_owned())),
                _ => {}
            }
        }
    }
    out
}

/// Renders a coverage diff with suite names.
#[must_use]
pub fn render_diff(diff: &CoverageDiff, name_a: &str, name_b: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "inputs covered only by {name_a}: {}",
        diff.inputs_only_a.len()
    );
    for (arg, p) in diff.inputs_only_a.iter().take(12) {
        let _ = writeln!(out, "  {arg}: {p}");
    }
    let _ = writeln!(
        out,
        "inputs covered only by {name_b}: {}",
        diff.inputs_only_b.len()
    );
    for (arg, p) in diff.inputs_only_b.iter().take(12) {
        let _ = writeln!(out, "  {arg}: {p}");
    }
    let _ = writeln!(
        out,
        "errnos elicited only by {name_a}: {}",
        diff.errnos_only_a.len()
    );
    for (base, e) in diff.errnos_only_a.iter().take(12) {
        let _ = writeln!(out, "  {base}: {e}");
    }
    let _ = writeln!(
        out,
        "errnos elicited only by {name_b}: {}",
        diff.errnos_only_b.len()
    );
    for (base, e) in diff.errnos_only_b.iter().take(12) {
        let _ = writeln!(out, "  {base}: {e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Iocov;
    use iocov_trace::{ArgValue, Trace, TraceEvent};

    fn sample_report() -> AnalysisReport {
        let analyzer = Iocov::new();
        let trace = Trace::from_events(vec![
            TraceEvent::build(
                "open",
                2,
                vec![
                    ArgValue::Path("/f".into()),
                    ArgValue::Flags(0o101),
                    ArgValue::Mode(0o644),
                ],
                3,
            ),
            TraceEvent::build(
                "open",
                2,
                vec![
                    ArgValue::Path("/g".into()),
                    ArgValue::Flags(0),
                    ArgValue::Mode(0),
                ],
                -2,
            ),
            TraceEvent::build(
                "write",
                1,
                vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(4096)],
                4096,
            ),
        ]);
        analyzer.analyze(&trace)
    }

    #[test]
    fn render_input_lists_domain_with_untested_markers() {
        let text = render_input(&sample_report(), ArgName::OpenFlags);
        assert!(text.contains("O_CREAT"));
        assert!(text.contains("UNTESTED"));
        assert!(text.contains("O_TMPFILE"));
        let creat_line = text.lines().find(|l| l.contains("O_CREAT")).unwrap();
        assert!(creat_line.contains('1'));
    }

    #[test]
    fn render_output_includes_ok_and_errnos() {
        let text = render_output(&sample_report(), BaseSyscall::Open);
        assert!(text.contains("OK"));
        assert!(text.contains("ENOENT"));
        let enoent = text.lines().find(|l| l.contains("ENOENT")).unwrap();
        assert!(!enoent.contains("UNTESTED"));
        let enospc = text.lines().find(|l| l.contains("ENOSPC")).unwrap();
        assert!(enospc.contains("UNTESTED"));
    }

    #[test]
    fn render_output_shows_byte_buckets() {
        let text = render_output(&sample_report(), BaseSyscall::Write);
        assert!(text.contains("OK(2^12)"));
    }

    #[test]
    fn untested_summary_totals() {
        let text = untested_summary(&sample_report());
        assert!(text.contains("untested input partitions"));
        assert!(text.contains("untested error outputs"));
        assert!(text.contains("open.flags"));
    }

    #[test]
    fn diff_finds_one_sided_partitions() {
        let analyzer = Iocov::new();
        let a = analyzer.analyze(&Trace::from_events(vec![TraceEvent::build(
            "open",
            2,
            vec![
                ArgValue::Path("/a".into()),
                ArgValue::Flags(0o101),
                ArgValue::Mode(0o644),
            ],
            3,
        )]));
        let b = analyzer.analyze(&Trace::from_events(vec![TraceEvent::build(
            "open",
            2,
            vec![
                ArgValue::Path("/missing".into()),
                ArgValue::Flags(0),
                ArgValue::Mode(0),
            ],
            -2,
        )]));
        let d = diff(&a, &b);
        assert!(!d.is_empty());
        assert!(d
            .inputs_only_a
            .iter()
            .any(|(arg, p)| *arg == ArgName::OpenFlags && p.to_string() == "O_CREAT"));
        assert!(d
            .inputs_only_b
            .iter()
            .any(|(arg, p)| *arg == ArgName::OpenFlags && p.to_string() == "O_RDONLY"));
        assert!(d
            .errnos_only_b
            .iter()
            .any(|(base, e)| base == "open" && e == "ENOENT"));
        assert!(d.errnos_only_a.is_empty());
        let text = render_diff(&d, "suiteA", "suiteB");
        assert!(text.contains("only by suiteA"));
        assert!(text.contains("ENOENT"));
    }

    #[test]
    fn diff_of_identical_reports_is_empty() {
        let analyzer = Iocov::new();
        let r = analyzer.analyze(&Trace::from_events(vec![TraceEvent::build(
            "close",
            3,
            vec![ArgValue::Fd(3)],
            0,
        )]));
        assert!(diff(&r, &r).is_empty());
    }
}
