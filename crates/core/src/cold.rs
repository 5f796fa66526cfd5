//! Cold-partition extraction: the bridge from *measuring* under-testing
//! to *acting* on it.
//!
//! An [`AnalysisReport`] says how often each input partition and each
//! output (errno) partition was exercised. This module flattens that
//! report against a uniform per-partition target into:
//!
//! * a canonical **campaign frequency vector** ([`tcd_vector`]) whose
//!   [`tcd_uniform`](crate::tcd::tcd_uniform) is the single number a
//!   feedback campaign drives down ([`campaign_tcd`]), and
//! * a [`ColdReport`]: every partition still below target, with its
//!   log-scale deficit — the work list a feedback-driven generator
//!   re-weights its samplers toward.
//!
//! The vector layout is fixed: for each tracked argument in
//! [`ArgName::ALL`] order, the argument's displayed domain in canonical
//! order; then for each base syscall in [`BaseSyscall::ALL`] order, one
//! `OK` entry (total successes) followed by the manual-page errno list.
//! Keeping the layout canonical makes campaign TCD values comparable
//! across rounds, runs, and tools.
//!
//! Alongside the vector, extraction also surfaces cold **return-value
//! buckets** for the size-returning syscalls ([`output_buckets_bytes`]):
//! a `read` that has only ever returned 4 KiB leaves the short-read and
//! zero-byte buckets cold even when its `OK` total is warm. These ride
//! in [`ColdReport::outputs`] (they deliberately do *not* enter the
//! campaign vector, whose layout is frozen) so a feedback generator can
//! steer request sizes toward the returns it has never elicited.

use std::collections::BTreeMap;

use iocov_syscalls::BaseSyscall;

use crate::arg::ArgName;
use crate::coverage::AnalysisReport;
use crate::domain::{arg_domain, output_buckets_bytes, output_errnos};
use crate::partition::{InputPartition, NumericPartition, OutputPartition};
use crate::tcd::tcd_uniform;

/// Largest power-of-two return bucket extraction tracks for
/// size-returning syscalls: `Log2(20)` is the 1–2 MiB bucket, past any
/// single transfer the in-tree workload generators can stage.
pub const OUTPUT_BUCKET_MAX_LOG2: u32 = 20;

/// The canonical cold-extraction domain of successful byte-count
/// returns: the zero-byte partition (EOF reads, empty xattrs), then
/// each power-of-two bucket up to [`OUTPUT_BUCKET_MAX_LOG2`].
#[must_use]
pub fn output_bucket_domain() -> Vec<NumericPartition> {
    let mut domain = vec![NumericPartition::Zero];
    domain.extend((0..=OUTPUT_BUCKET_MAX_LOG2).map(NumericPartition::Log2));
    domain
}

/// One under-tested input partition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdPartition {
    /// The partition (within its argument's domain).
    pub partition: InputPartition,
    /// Observed hit count (strictly below the target).
    pub count: u64,
    /// `log10(target+1) − log10(count+1)` — how many decades of testing
    /// are missing. Always positive for a cold partition.
    pub deficit: f64,
}

/// One under-elicited output partition (an errno, or `OK`).
#[derive(Debug, Clone, PartialEq)]
pub struct ColdErrno {
    /// The base syscall whose output space this belongs to.
    pub base: BaseSyscall,
    /// The errno name, or `"OK"` for the success partition.
    pub errno: &'static str,
    /// Observed count.
    pub count: u64,
    /// Missing decades, as in [`ColdPartition::deficit`].
    pub deficit: f64,
}

/// One under-elicited successful return-value bucket of a
/// size-returning syscall (`read`/`write`/`getxattr`).
#[derive(Debug, Clone, PartialEq)]
pub struct ColdOutputBucket {
    /// The base syscall whose return space this bucket belongs to.
    pub base: BaseSyscall,
    /// The byte-count bucket (zero, or a power-of-two range).
    pub partition: NumericPartition,
    /// Observed count.
    pub count: u64,
    /// Missing decades, as in [`ColdPartition::deficit`].
    pub deficit: f64,
}

/// Everything a feedback round needs to know about what is still cold.
#[derive(Debug, Clone, Default)]
pub struct ColdReport {
    /// The uniform per-partition target the deficits are against.
    pub target: u64,
    /// Cold input partitions per argument, sorted by descending deficit.
    pub inputs: BTreeMap<ArgName, Vec<ColdPartition>>,
    /// Cold output partitions across all base syscalls, sorted by
    /// descending deficit (ties broken by base/errno order).
    pub errnos: Vec<ColdErrno>,
    /// Cold successful return-value buckets of the size-returning
    /// syscalls, sorted by descending deficit.
    pub outputs: Vec<ColdOutputBucket>,
}

impl ColdReport {
    /// Total number of cold input partitions across all arguments.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.values().map(Vec::len).sum()
    }

    /// Summed deficit of one argument's cold partitions — a relative
    /// measure of how much a generator should favor calls exercising it.
    #[must_use]
    pub fn arg_deficit(&self, arg: ArgName) -> f64 {
        self.inputs
            .get(&arg)
            .map(|cold| cold.iter().map(|c| c.deficit).sum())
            .unwrap_or(0.0)
    }

    /// Summed deficit of one base syscall's cold output partitions.
    #[must_use]
    pub fn base_deficit(&self, base: BaseSyscall) -> f64 {
        self.errnos
            .iter()
            .filter(|c| c.base == base)
            .map(|c| c.deficit)
            .sum()
    }

    /// Summed deficit of one base syscall's cold return-value buckets —
    /// zero unless the syscall's returns are byte counts.
    #[must_use]
    pub fn bucket_deficit(&self, base: BaseSyscall) -> f64 {
        self.outputs
            .iter()
            .filter(|c| c.base == base)
            .map(|c| c.deficit)
            .sum()
    }
}

fn log10p1(x: u64) -> f64 {
    (x as f64 + 1.0).log10()
}

/// The canonical campaign frequency vector of a report (layout in the
/// module docs). Its length depends only on the domain definitions,
/// never on the report's contents.
#[must_use]
pub fn tcd_vector(report: &AnalysisReport) -> Vec<u64> {
    let mut freqs = Vec::new();
    for arg in ArgName::ALL {
        let cov = report.input_coverage(arg);
        freqs.extend(cov.frequency_vector(arg));
    }
    for base in BaseSyscall::ALL {
        let cov = report.output_coverage(base);
        freqs.push(cov.successes());
        for errno in output_errnos(base) {
            freqs.push(cov.errno_count(errno));
        }
    }
    freqs
}

/// Campaign TCD: [`tcd_uniform`] over the canonical vector. Lower is
/// better; a campaign converges by driving this toward zero.
#[must_use]
pub fn campaign_tcd(report: &AnalysisReport, target: u64) -> f64 {
    tcd_uniform(&tcd_vector(report), target)
}

/// Extracts every partition tested fewer than `target` times, with its
/// deficit, sorted worst-first.
#[must_use]
pub fn extract_cold(report: &AnalysisReport, target: u64) -> ColdReport {
    let target_log = log10p1(target);
    let mut inputs: BTreeMap<ArgName, Vec<ColdPartition>> = BTreeMap::new();
    for arg in ArgName::ALL {
        let cov = report.input_coverage(arg);
        let mut cold: Vec<ColdPartition> = arg_domain(arg)
            .all_partitions()
            .into_iter()
            .filter_map(|partition| {
                let count = cov.count(&partition);
                (count < target).then(|| ColdPartition {
                    partition,
                    count,
                    deficit: target_log - log10p1(count),
                })
            })
            .collect();
        if !cold.is_empty() {
            cold.sort_by(|a, b| b.deficit.total_cmp(&a.deficit));
            inputs.insert(arg, cold);
        }
    }
    let mut errnos = Vec::new();
    for base in BaseSyscall::ALL {
        let cov = report.output_coverage(base);
        let ok = cov.successes();
        if ok < target {
            errnos.push(ColdErrno {
                base,
                errno: "OK",
                count: ok,
                deficit: target_log - log10p1(ok),
            });
        }
        for errno in output_errnos(base) {
            let count = cov.errno_count(errno);
            if count < target {
                errnos.push(ColdErrno {
                    base,
                    errno,
                    count,
                    deficit: target_log - log10p1(count),
                });
            }
        }
    }
    errnos.sort_by(|a, b| b.deficit.total_cmp(&a.deficit));
    let mut outputs = Vec::new();
    for base in BaseSyscall::ALL {
        if !output_buckets_bytes(base) {
            continue;
        }
        let cov = report.output_coverage(base);
        for partition in output_bucket_domain() {
            let count = cov.count(&OutputPartition::OkBytes(partition));
            if count < target {
                outputs.push(ColdOutputBucket {
                    base,
                    partition,
                    count,
                    deficit: target_log - log10p1(count),
                });
            }
        }
    }
    outputs.sort_by(|a, b| b.deficit.total_cmp(&a.deficit));
    ColdReport {
        target,
        inputs,
        errnos,
        outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Iocov;
    use iocov_trace::{ArgValue, Trace, TraceEvent};

    fn open_ev(path: &str, flags: u32, retval: i64) -> TraceEvent {
        TraceEvent::build(
            "open",
            0,
            vec![
                ArgValue::Path(path.into()),
                ArgValue::Flags(flags),
                ArgValue::Mode(0o644),
            ],
            retval,
        )
    }

    fn sample_report() -> AnalysisReport {
        Iocov::new().analyze(&Trace::from_events(vec![
            open_ev("/a", 0, 3),
            open_ev("/a", 0, 4),
            open_ev("/missing", 0, -2),
        ]))
    }

    #[test]
    fn vector_length_is_domain_determined() {
        let empty = AnalysisReport::default();
        let len: usize = ArgName::ALL
            .iter()
            .map(|&a| arg_domain(a).all_partitions().len())
            .sum::<usize>()
            + BaseSyscall::ALL
                .iter()
                .map(|&b| 1 + output_errnos(b).len())
                .sum::<usize>();
        assert_eq!(tcd_vector(&empty).len(), len);
        // Contents never change the length, only the entries.
        let report = sample_report();
        let vec = tcd_vector(&report);
        assert_eq!(vec.len(), len);
        assert!(vec.iter().sum::<u64>() > 0);
    }

    #[test]
    fn campaign_tcd_decreases_as_coverage_accumulates() {
        let empty = AnalysisReport::default();
        let report = sample_report();
        let mut twice = report.clone();
        twice.merge(&report);
        let t = 10;
        assert!(campaign_tcd(&report, t) < campaign_tcd(&empty, t));
        assert!(campaign_tcd(&twice, t) <= campaign_tcd(&report, t));
    }

    #[test]
    fn extract_cold_finds_untested_and_undertested() {
        let report = sample_report();
        let cold = extract_cold(&report, 10);
        assert_eq!(cold.target, 10);
        // O_RDONLY was hit three times — still cold against target 10,
        // with a smaller deficit than never-hit O_TMPFILE.
        let flags = &cold.inputs[&ArgName::OpenFlags];
        let rdonly = flags
            .iter()
            .find(|c| c.partition == InputPartition::Flag("O_RDONLY".into()))
            .expect("3 < 10 is cold");
        assert_eq!(rdonly.count, 3);
        let tmpfile = flags
            .iter()
            .find(|c| c.partition == InputPartition::Flag("O_TMPFILE".into()))
            .expect("never hit");
        assert_eq!(tmpfile.count, 0);
        assert!(tmpfile.deficit > rdonly.deficit);
        // Sorted worst-first.
        for w in flags.windows(2) {
            assert!(w[0].deficit >= w[1].deficit);
        }
        // ENOENT was elicited once; EACCES never.
        let enoent = cold
            .errnos
            .iter()
            .find(|c| c.base == BaseSyscall::Open && c.errno == "ENOENT")
            .unwrap();
        assert_eq!(enoent.count, 1);
        let eacces = cold
            .errnos
            .iter()
            .find(|c| c.base == BaseSyscall::Open && c.errno == "EACCES")
            .unwrap();
        assert!(eacces.deficit > enoent.deficit);
    }

    #[test]
    fn partitions_at_target_are_not_cold() {
        let report = sample_report();
        // Target 1: the twice-hit O_RDONLY and once-elicited ENOENT are
        // warm; the never-hit partitions remain.
        let cold = extract_cold(&report, 1);
        let flags = &cold.inputs[&ArgName::OpenFlags];
        assert!(!flags
            .iter()
            .any(|c| c.partition == InputPartition::Flag("O_RDONLY".into())));
        assert!(!cold
            .errnos
            .iter()
            .any(|c| c.base == BaseSyscall::Open && c.errno == "ENOENT"));
        assert!(cold
            .errnos
            .iter()
            .any(|c| c.base == BaseSyscall::Open && c.errno == "EACCES"));
    }

    #[test]
    fn deficit_aggregates_guide_selection() {
        let report = sample_report();
        let cold = extract_cold(&report, 10);
        assert!(cold.arg_deficit(ArgName::OpenFlags) > 0.0);
        // A never-called syscall's deficit is the full-cold maximum of
        // its domain; Open's observed calls pull it below its own.
        let full =
            |base: BaseSyscall| (output_errnos(base).len() + 1) as f64 * ((10.0f64 + 1.0).log10());
        let open = cold.base_deficit(BaseSyscall::Open);
        assert!(open > 0.0 && open < full(BaseSyscall::Open));
        let mkdir = cold.base_deficit(BaseSyscall::Mkdir);
        assert!((mkdir - full(BaseSyscall::Mkdir)).abs() < 1e-9);
        assert_eq!(cold.input_count(), cold.inputs.values().flatten().count());
    }

    #[test]
    fn extract_cold_surfaces_return_value_buckets() {
        let mut events = vec![open_ev("/a", 0, 3)];
        // Three writes landing in the 4..8-byte return bucket; reads and
        // getxattr never run at all.
        for _ in 0..3 {
            events.push(TraceEvent::build(
                "write",
                1,
                vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(5)],
                5,
            ));
        }
        let report = Iocov::new().analyze(&Trace::from_events(events));
        let cold = extract_cold(&report, 10);
        // The elicited bucket is warmer (smaller deficit) than its
        // untouched neighbors.
        let write_log2_2 = cold
            .outputs
            .iter()
            .find(|c| c.base == BaseSyscall::Write && c.partition == NumericPartition::Log2(2))
            .expect("3 < 10 is still cold");
        assert_eq!(write_log2_2.count, 3);
        let write_zero = cold
            .outputs
            .iter()
            .find(|c| c.base == BaseSyscall::Write && c.partition == NumericPartition::Zero)
            .expect("never elicited");
        assert!(write_zero.deficit > write_log2_2.deficit);
        // Sorted worst-first, and only size-returning syscalls appear.
        for w in cold.outputs.windows(2) {
            assert!(w[0].deficit >= w[1].deficit);
        }
        assert!(cold
            .outputs
            .iter()
            .all(|c| crate::domain::output_buckets_bytes(c.base)));
        // At target 1 the elicited bucket is warm and drops out.
        let warm = extract_cold(&report, 1);
        assert!(!warm
            .outputs
            .iter()
            .any(|c| c.base == BaseSyscall::Write && c.partition == NumericPartition::Log2(2)));
        // Aggregates: a never-read syscall carries its full-cold domain.
        let full = output_bucket_domain().len() as f64 * (10.0f64 + 1.0).log10();
        assert!((cold.bucket_deficit(BaseSyscall::Read) - full).abs() < 1e-9);
        assert!(cold.bucket_deficit(BaseSyscall::Write) < full);
        assert_eq!(cold.bucket_deficit(BaseSyscall::Open), 0.0);
    }

    #[test]
    fn fully_saturated_report_has_no_cold_partitions() {
        let report = sample_report();
        let cold = extract_cold(&report, 0);
        assert_eq!(cold.input_count(), 0);
        assert!(cold.errnos.is_empty());
        assert!(cold.outputs.is_empty());
        assert_eq!(campaign_tcd(&report, 0), {
            // Against target 0 every observed count is "over-tested";
            // TCD is positive but extraction is empty.
            let v = tcd_vector(&report);
            tcd_uniform(&v, 0)
        });
    }
}
