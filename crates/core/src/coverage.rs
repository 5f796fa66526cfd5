//! The coverage analyzer: from filtered traces to input/output coverage.

use std::collections::BTreeMap;

use iocov_syscalls::{BaseSyscall, Errno, Sysno};
use iocov_trace::Args;
use serde::{Deserialize, Serialize};

use crate::arg::{ArgName, TrackedValue};
use crate::combos::ComboCoverage;
use crate::domain::{arg_domain, output_buckets_bytes, output_errnos};
use crate::filter::FilterStats;
use crate::identifier::IdentifierCoverage;
use crate::metrics::{DropReason, PipelineMetrics};
use crate::partition::{errno_number, InputPartition, NumericPartition, OutputPartition};
use crate::relevance::CallKind;
use crate::variants::tracked_values;

/// Serializes structurally keyed maps as pair lists (JSON object keys
/// must be strings, and partitions are structured values).
pub(crate) mod pairs {
    use serde::de::Deserializer;
    use serde::ser::Serializer;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    pub(crate) fn serialize<K, S>(map: &BTreeMap<K, u64>, serializer: S) -> Result<S::Ok, S::Error>
    where
        K: Serialize + Ord,
        S: Serializer,
    {
        let entries: Vec<(&K, &u64)> = map.iter().collect();
        entries.serialize(serializer)
    }

    pub(crate) fn deserialize<'de, K, D>(deserializer: D) -> Result<BTreeMap<K, u64>, D::Error>
    where
        K: Deserialize<'de> + Ord,
        D: Deserializer<'de>,
    {
        let entries: Vec<(K, u64)> = Vec::deserialize(deserializer)?;
        Ok(entries.into_iter().collect())
    }
}

/// Input coverage of one tracked argument: hit counts per partition.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputCoverage {
    /// Hit count per partition.
    #[serde(with = "pairs")]
    pub counts: BTreeMap<InputPartition, u64>,
    /// Number of calls that contributed a value for this argument.
    pub calls: u64,
}

impl InputCoverage {
    /// The hit count of one partition (0 if never exercised).
    #[must_use]
    pub fn count(&self, partition: &InputPartition) -> u64 {
        self.counts.get(partition).copied().unwrap_or(0)
    }

    /// Partitions of `arg`'s displayed domain never exercised — the
    /// actionable "untested cases" the paper reports.
    #[must_use]
    pub fn untested(&self, arg: ArgName) -> Vec<InputPartition> {
        arg_domain(arg)
            .all_partitions()
            .into_iter()
            .filter(|p| self.count(p) == 0)
            .collect()
    }

    /// Covered fraction of the displayed domain, in `[0, 1]`.
    #[must_use]
    pub fn coverage_fraction(&self, arg: ArgName) -> f64 {
        let domain = arg_domain(arg).all_partitions();
        if domain.is_empty() {
            return 1.0;
        }
        let covered = domain.iter().filter(|p| self.count(p) > 0).count();
        covered as f64 / domain.len() as f64
    }

    /// The frequency vector over the displayed domain, in canonical
    /// order — the input to TCD.
    #[must_use]
    pub fn frequency_vector(&self, arg: ArgName) -> Vec<u64> {
        arg_domain(arg)
            .all_partitions()
            .iter()
            .map(|p| self.count(p))
            .collect()
    }
}

/// Output coverage of one base syscall.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputCoverage {
    /// Hit count per output partition.
    #[serde(with = "pairs")]
    pub counts: BTreeMap<OutputPartition, u64>,
    /// Total calls observed.
    pub calls: u64,
}

impl OutputCoverage {
    /// The hit count of one partition.
    #[must_use]
    pub fn count(&self, partition: &OutputPartition) -> u64 {
        self.counts.get(partition).copied().unwrap_or(0)
    }

    /// Total successful calls (all `OK` partitions).
    #[must_use]
    pub fn successes(&self) -> u64 {
        self.counts
            .iter()
            .filter(|(p, _)| p.is_success())
            .map(|(_, c)| c)
            .sum()
    }

    /// Total failed calls.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.calls - self.successes()
    }

    /// Count for a specific errno name.
    #[must_use]
    pub fn errno_count(&self, name: &str) -> u64 {
        self.count(&OutputPartition::Err(name.to_owned()))
    }

    /// Errnos in the syscall's manual-page domain never elicited.
    #[must_use]
    pub fn untested_errnos(&self, base: BaseSyscall) -> Vec<&'static str> {
        output_errnos(base)
            .iter()
            .copied()
            .filter(|name| self.errno_count(name) == 0)
            .collect()
    }

    /// Covered fraction of the output domain (`OK` plus each errno).
    #[must_use]
    pub fn coverage_fraction(&self, base: BaseSyscall) -> f64 {
        let errnos = output_errnos(base);
        let total = errnos.len() + 1; // + OK
        let mut covered = usize::from(self.successes() > 0);
        covered += errnos.iter().filter(|n| self.errno_count(n) > 0).count();
        covered as f64 / total as f64
    }
}

/// Histogram of how many `open` flags were combined per call (Table 1).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComboHistogram {
    /// Combination size → call count, over all `open`-family calls.
    pub sizes: BTreeMap<usize, u64>,
    /// Same, restricted to combinations containing `O_RDONLY` (the most
    /// popular flag, per the paper).
    pub sizes_with_rdonly: BTreeMap<usize, u64>,
}

impl ComboHistogram {
    /// Percentage distribution over combination sizes `1..=max`.
    #[must_use]
    pub fn percentages(&self, restricted_to_rdonly: bool) -> Vec<(usize, f64)> {
        let map = if restricted_to_rdonly {
            &self.sizes_with_rdonly
        } else {
            &self.sizes
        };
        let total: u64 = map.values().sum();
        if total == 0 {
            return Vec::new();
        }
        map.iter()
            .map(|(&size, &count)| (size, 100.0 * count as f64 / total as f64))
            .collect()
    }

    /// The largest combination size observed.
    #[must_use]
    pub fn max_size(&self) -> usize {
        self.sizes.keys().next_back().copied().unwrap_or(0)
    }
}

/// The complete result of analyzing one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Filtering statistics.
    pub filter_stats: FilterStats,
    /// Input coverage per tracked argument.
    pub input: BTreeMap<ArgName, InputCoverage>,
    /// Output coverage per base syscall, keyed by base-syscall name.
    pub output: BTreeMap<String, OutputCoverage>,
    /// Calls per concrete syscall variant.
    pub calls_per_variant: BTreeMap<String, u64>,
    /// The Table 1 histogram of `open` flag combinations.
    pub open_combos: ComboHistogram,
    /// Descriptor and pathname coverage, counted only by a session
    /// built with [`extended_coverage`](crate::PipelineBuilder::extended_coverage).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub identifiers: Option<IdentifierCoverage>,
    /// Exact and pairwise `open` flag-combination coverage, counted
    /// only under the same setting.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub combos: Option<ComboCoverage>,
}

impl AnalysisReport {
    /// Input coverage of one argument (empty coverage if never seen).
    #[must_use]
    pub fn input_coverage(&self, arg: ArgName) -> InputCoverage {
        self.input.get(&arg).cloned().unwrap_or_default()
    }

    /// Output coverage of one base syscall.
    #[must_use]
    pub fn output_coverage(&self, base: BaseSyscall) -> OutputCoverage {
        self.output.get(base.name()).cloned().unwrap_or_default()
    }

    /// Total analyzed (post-filter, in-domain) calls.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.calls_per_variant.values().sum()
    }

    /// Merges another report into this one (for aggregating per-test
    /// traces into a suite total).
    ///
    /// Keys are cloned only when genuinely new to `self`: merges are
    /// dominated by already-present keys (every stream or suite sees
    /// the same partitions), so the common path is a lookup plus an add.
    pub fn merge(&mut self, other: &AnalysisReport) {
        self.filter_stats.total += other.filter_stats.total;
        self.filter_stats.kept += other.filter_stats.kept;
        self.filter_stats.dropped += other.filter_stats.dropped;
        for (arg, cov) in &other.input {
            let mine = self.input.entry(*arg).or_default();
            mine.calls += cov.calls;
            add_counts(&mut mine.counts, &cov.counts);
        }
        for (base, cov) in &other.output {
            let mine = if let Some(mine) = self.output.get_mut(base) {
                mine
            } else {
                self.output.entry(base.clone()).or_default()
            };
            mine.calls += cov.calls;
            add_counts(&mut mine.counts, &cov.counts);
        }
        add_counts(&mut self.calls_per_variant, &other.calls_per_variant);
        add_counts(&mut self.open_combos.sizes, &other.open_combos.sizes);
        add_counts(
            &mut self.open_combos.sizes_with_rdonly,
            &other.open_combos.sizes_with_rdonly,
        );
        if let Some(theirs) = &other.identifiers {
            self.identifiers.get_or_insert_default().merge(theirs);
        }
        if let Some(theirs) = &other.combos {
            self.combos.get_or_insert_default().merge(theirs);
        }
    }
}

/// Adds `theirs` into `mine`, cloning a key only when it is new to
/// `mine`.
pub(crate) fn add_counts<K: Ord + Clone>(mine: &mut BTreeMap<K, u64>, theirs: &BTreeMap<K, u64>) {
    for (key, count) in theirs {
        if let Some(slot) = mine.get_mut(key) {
            *slot += count;
        } else {
            mine.insert(key.clone(), *count);
        }
    }
}

/// Dense hit counts for one argument: one slot per partition of its
/// domain (see `ArgDomain::for_each_slot`), sized on first use.
#[derive(Debug, Default, Clone)]
struct InputAcc {
    counts: Vec<u64>,
    calls: u64,
}

/// Dense hit counts for one base syscall's outputs.
#[derive(Debug, Clone)]
struct OutputAcc {
    calls: u64,
    /// Successes of a base whose returns are not byte counts.
    ok: u64,
    /// Byte-count successes by numeric slot, sized on first use.
    bytes: Vec<u64>,
    /// Failures by [`Errno::index`].
    errnos: [u64; Errno::ALL.len()],
    /// Failures with an errno number outside [`Errno::ALL`].
    unknown: BTreeMap<u32, u64>,
}

impl Default for OutputAcc {
    fn default() -> Self {
        OutputAcc {
            calls: 0,
            ok: 0,
            bytes: Vec::new(),
            errnos: [0; Errno::ALL.len()],
            unknown: BTreeMap::new(),
        }
    }
}

/// Table 1 counts are indexed by combination size, which never exceeds
/// the number of named open flags.
const COMBO_SLOTS: usize = iocov_syscalls::OpenFlags::NAMED_FLAGS.len();

/// The accumulation-time form of [`AnalysisReport`]. The analysis domain
/// is closed — 27 calls, 11 bases, 14 arguments with fixed partitions,
/// the known errnos — so every count lives in a flat slot indexed by
/// [`Sysno::index`], [`BaseSyscall::index`], [`ArgName::index`], a
/// domain slot or [`Errno::index`], and the per-event path touches no
/// string and no map (errno numbers outside the known set aside).
/// Strings only appear when a report is
/// [materialized](Self::materialize): the non-zero slots are walked into
/// the same `BTreeMap`s the report has always had, so the serialized
/// output is byte-identical to accumulating into [`AnalysisReport`]
/// directly.
#[derive(Debug, Default, Clone)]
pub(crate) struct ReportBuilder {
    /// Filtering statistics, updated by the owner of the builder.
    pub(crate) filter_stats: FilterStats,
    input: [InputAcc; ArgName::ALL.len()],
    output: [OutputAcc; BaseSyscall::ALL.len()],
    calls_per_variant: [u64; Sysno::ALL.len()],
    combo_sizes: [u64; COMBO_SLOTS],
    combo_sizes_with_rdonly: [u64; COMBO_SLOTS],
    /// The §6 future-work metrics, `Some` only when turned on: they
    /// allocate per path, so `analyze` leaves them off. Combination
    /// coverage is kept as calls per distinct `open` flags word and
    /// expanded into [`ComboCoverage`] when materialized.
    pub(crate) identifiers: Option<IdentifierCoverage>,
    pub(crate) open_flags: Option<BTreeMap<u32, u64>>,
}

impl ReportBuilder {
    /// Accumulates one (already filter-accepted) event — the shared
    /// per-event step of batch and streaming analysis — additionally
    /// recording unknown-syscall drops, variant merges, and
    /// per-partition-family record counts into `metrics` when attached.
    /// `kind` is the event's name resolved by [`CallKind::resolve`], and
    /// `args` the event's arguments: the tracked ones are read by the
    /// name's plan, which carries each one's domain.
    pub(crate) fn accumulate<E: iocov_trace::EventView + ?Sized>(
        &mut self,
        event: &E,
        args: Args<'_>,
        kind: &CallKind,
        metrics: Option<&PipelineMetrics>,
    ) {
        let Some(sysno) = kind.sysno else {
            // Tester noise outside the 27-call domain.
            if let Some(m) = metrics {
                m.record_drop(DropReason::UnknownSyscall);
            }
            return;
        };
        if let Some(m) = metrics {
            if kind.merged {
                m.record_variant_merged();
            }
        }
        self.calls_per_variant[sysno.index()] += 1;
        if let Some(identifiers) = &mut self.identifiers {
            identifiers.record(event);
        }

        // Input partitions.
        for (tracked, value) in tracked_values(args, kind.plan) {
            let (arg, slots) = (tracked.name, tracked.domain);
            let acc = &mut self.input[arg.index()];
            acc.calls += 1;
            if acc.counts.is_empty() {
                acc.counts = vec![0; slots.domain.slot_count()];
            }
            let mut hits = 0u64;
            let mut rdonly = false;
            slots.for_each_slot(value, |slot| {
                acc.counts[slot] += 1;
                hits += 1;
                rdonly |= slot == 0;
            });
            if let Some(m) = metrics {
                m.record_input_records(&slots.domain.kind, hits);
            }
            // Table 1: flag-combination histogram for open. The slots
            // just counted are the word's named flags, as
            // `for_each_open_flag` gives them; slot 0 is `O_RDONLY`.
            if let (ArgName::OpenFlags, TrackedValue::Bits(bits)) = (arg, value) {
                let n = hits as usize;
                if n > 0 {
                    self.combo_sizes[n] += 1;
                    if rdonly {
                        self.combo_sizes_with_rdonly[n] += 1;
                    }
                }
                if let Some(words) = &mut self.open_flags {
                    *words.entry(bits).or_insert(0) += 1;
                }
            }
        }

        // Output partition.
        let (base, retval) = (sysno.base(), event.retval());
        let acc = &mut self.output[base.index()];
        acc.calls += 1;
        if let Some(m) = metrics {
            m.record_output_record(retval >= 0);
        }
        if retval >= 0 {
            if output_buckets_bytes(base) {
                if acc.bytes.is_empty() {
                    acc.bytes = vec![0; NumericPartition::SLOTS];
                }
                acc.bytes[NumericPartition::of(i128::from(retval)).slot()] += 1;
            } else {
                acc.ok += 1;
            }
        } else {
            let number = errno_number(retval);
            match Errno::from_number(number) {
                Some(errno) => acc.errnos[errno.index()] += 1,
                None => *acc.unknown.entry(number).or_insert(0) += 1,
            }
        }
    }

    /// Materializes the string-keyed public report: every non-zero slot
    /// becomes its partition and every map sorts into its `BTreeMap`
    /// form.
    pub(crate) fn materialize(&self) -> AnalysisReport {
        fn nonzero(counts: &[u64]) -> impl Iterator<Item = (usize, u64)> + '_ {
            counts.iter().copied().enumerate().filter(|&(_, c)| c > 0)
        }
        let input = ArgName::ALL
            .into_iter()
            .zip(&self.input)
            .filter(|(_, acc)| acc.calls > 0)
            .map(|(arg, acc)| {
                let domain = arg_domain(arg);
                let counts = nonzero(&acc.counts)
                    .map(|(slot, c)| (domain.slot_partition(slot), c))
                    .collect();
                (
                    arg,
                    InputCoverage {
                        counts,
                        calls: acc.calls,
                    },
                )
            })
            .collect();
        let output = BaseSyscall::ALL
            .into_iter()
            .zip(&self.output)
            .filter(|(_, acc)| acc.calls > 0)
            .map(|(base, acc)| {
                let ok = (acc.ok > 0).then_some((OutputPartition::Ok, acc.ok));
                let bytes = nonzero(&acc.bytes).map(|(slot, c)| {
                    let bucket = NumericPartition::from_slot(slot);
                    (OutputPartition::OkBytes(bucket), c)
                });
                let errnos = nonzero(&acc.errnos)
                    .map(|(i, c)| (OutputPartition::Err(Errno::ALL[i].name().to_owned()), c));
                let unknown = acc
                    .unknown
                    .iter()
                    .map(|(n, &c)| (OutputPartition::Err(format!("E?{n}")), c));
                let counts = ok.into_iter().chain(bytes).chain(errnos).chain(unknown);
                (
                    base.name().to_owned(),
                    OutputCoverage {
                        counts: counts.collect(),
                        calls: acc.calls,
                    },
                )
            })
            .collect();
        let calls_per_variant = Sysno::ALL
            .into_iter()
            .zip(self.calls_per_variant)
            .filter(|&(_, c)| c > 0)
            .map(|(sysno, c)| (sysno.name().to_owned(), c))
            .collect();
        AnalysisReport {
            filter_stats: self.filter_stats,
            input,
            output,
            calls_per_variant,
            open_combos: ComboHistogram {
                sizes: nonzero(&self.combo_sizes).collect(),
                sizes_with_rdonly: nonzero(&self.combo_sizes_with_rdonly).collect(),
            },
            identifiers: self.identifiers.clone(),
            combos: self.open_flags.as_ref().map(|words| {
                let mut combos = ComboCoverage::default();
                words.iter().for_each(|(&bits, &n)| combos.record(bits, n));
                combos
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::NumericPartition;
    use crate::{Iocov, TraceFilter};
    use iocov_trace::{ArgValue, Trace, TraceEvent};

    fn ev(name: &str, args: Vec<ArgValue>, retval: i64) -> TraceEvent {
        TraceEvent::build(name, 0, args, retval)
    }

    fn open_ev(path: &str, flags: u32, retval: i64) -> TraceEvent {
        ev(
            "open",
            vec![
                ArgValue::Path(path.into()),
                ArgValue::Flags(flags),
                ArgValue::Mode(0o644),
            ],
            retval,
        )
    }

    fn write_ev(count: u64, retval: i64) -> TraceEvent {
        ev(
            "write",
            vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(count)],
            retval,
        )
    }

    #[test]
    fn input_coverage_counts_flag_partitions() {
        let analyzer = Iocov::new();
        let trace = Trace::from_events(vec![
            open_ev("/f", 0, 3),     // O_RDONLY
            open_ev("/f", 0o101, 4), // O_WRONLY|O_CREAT
            open_ev("/f", 0o101, 5),
        ]);
        let report = analyzer.analyze(&trace);
        let cov = report.input_coverage(ArgName::OpenFlags);
        assert_eq!(cov.count(&InputPartition::Flag("O_RDONLY".into())), 1);
        assert_eq!(cov.count(&InputPartition::Flag("O_WRONLY".into())), 2);
        assert_eq!(cov.count(&InputPartition::Flag("O_CREAT".into())), 2);
        assert_eq!(cov.count(&InputPartition::Flag("O_EXCL".into())), 0);
        assert_eq!(cov.calls, 3);
        assert!(cov
            .untested(ArgName::OpenFlags)
            .contains(&InputPartition::Flag("O_TMPFILE".into())));
    }

    #[test]
    fn write_sizes_bucket_by_log2_with_zero_boundary() {
        let analyzer = Iocov::new();
        let trace = Trace::from_events(vec![
            write_ev(0, 0),
            write_ev(1, 1),
            write_ev(4096, 4096),
            write_ev(5000, 5000),
        ]);
        let report = analyzer.analyze(&trace);
        let cov = report.input_coverage(ArgName::WriteCount);
        assert_eq!(
            cov.count(&InputPartition::Numeric(NumericPartition::Zero)),
            1
        );
        assert_eq!(
            cov.count(&InputPartition::Numeric(NumericPartition::Log2(0))),
            1
        );
        assert_eq!(
            cov.count(&InputPartition::Numeric(NumericPartition::Log2(12))),
            2
        );
        let frac = cov.coverage_fraction(ArgName::WriteCount);
        assert!(frac > 0.0 && frac < 0.2);
    }

    #[test]
    fn output_coverage_separates_ok_buckets_and_errnos() {
        let analyzer = Iocov::new();
        let trace = Trace::from_events(vec![
            open_ev("/f", 0, 3),
            open_ev("/missing", 0, -2),
            open_ev("/dir", 1, -21),
            write_ev(4096, 4096),
            write_ev(10, -28),
        ]);
        let report = analyzer.analyze(&trace);
        let open_cov = report.output_coverage(BaseSyscall::Open);
        assert_eq!(open_cov.successes(), 1);
        assert_eq!(open_cov.errors(), 2);
        assert_eq!(open_cov.errno_count("ENOENT"), 1);
        assert_eq!(open_cov.errno_count("EISDIR"), 1);
        assert!(open_cov
            .untested_errnos(BaseSyscall::Open)
            .contains(&"ENOSPC"));

        let write_cov = report.output_coverage(BaseSyscall::Write);
        assert_eq!(
            write_cov.count(&OutputPartition::OkBytes(NumericPartition::Log2(12))),
            1
        );
        assert_eq!(write_cov.errno_count("ENOSPC"), 1);
    }

    #[test]
    fn variants_merge_into_one_base() {
        let analyzer = Iocov::new();
        let trace = Trace::from_events(vec![
            open_ev("/a", 0, 3),
            ev(
                "openat",
                vec![
                    ArgValue::Fd(-100),
                    ArgValue::Path("/b".into()),
                    ArgValue::Flags(0o100),
                    ArgValue::Mode(0o600),
                ],
                4,
            ),
            ev(
                "creat",
                vec![ArgValue::Path("/c".into()), ArgValue::Mode(0o644)],
                5,
            ),
        ]);
        let report = analyzer.analyze(&trace);
        assert_eq!(report.output_coverage(BaseSyscall::Open).calls, 3);
        assert_eq!(report.calls_per_variant["open"], 1);
        assert_eq!(report.calls_per_variant["openat"], 1);
        assert_eq!(report.calls_per_variant["creat"], 1);
        let cov = report.input_coverage(ArgName::OpenFlags);
        // creat implies O_CREAT|O_WRONLY|O_TRUNC; openat adds O_CREAT.
        assert_eq!(cov.count(&InputPartition::Flag("O_CREAT".into())), 2);
        assert_eq!(cov.count(&InputPartition::Flag("O_TRUNC".into())), 1);
    }

    #[test]
    fn combo_histogram_matches_table1_semantics() {
        let analyzer = Iocov::new();
        let trace = Trace::from_events(vec![
            open_ev("/a", 0, 3),      // [O_RDONLY] → 1 flag
            open_ev("/b", 0o100, 4),  // [O_RDONLY, O_CREAT] → 2
            open_ev("/c", 0o1101, 5), // [O_WRONLY, O_CREAT, O_TRUNC] → 3
            open_ev("/d", 0o102, 6),  // [O_RDWR, O_CREAT] → 2
        ]);
        let report = analyzer.analyze(&trace);
        let combos = &report.open_combos;
        assert_eq!(combos.sizes[&1], 1);
        assert_eq!(combos.sizes[&2], 2);
        assert_eq!(combos.sizes[&3], 1);
        assert_eq!(combos.max_size(), 3);
        assert_eq!(combos.sizes_with_rdonly.get(&1), Some(&1));
        assert_eq!(combos.sizes_with_rdonly.get(&2), Some(&1));
        assert_eq!(combos.sizes_with_rdonly.get(&3), None);
        assert_eq!(
            combos.percentages(false),
            [(1, 25.0), (2, 50.0), (3, 25.0)],
            "Table 1's all-flags row"
        );
        assert_eq!(
            combos.percentages(true),
            [(1, 50.0), (2, 50.0)],
            "Table 1's O_RDONLY row"
        );
    }

    #[test]
    fn filter_is_applied_before_analysis() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let analyzer = Iocov::with_filter(filter);
        let trace = Trace::from_events(vec![
            open_ev("/mnt/test/f", 0, 3),
            open_ev("/etc/noise", 0, 4),
        ]);
        let report = analyzer.analyze(&trace);
        assert_eq!(report.total_calls(), 1);
        assert_eq!(report.filter_stats.dropped, 1);
    }

    #[test]
    fn noise_syscalls_do_not_pollute_the_report() {
        let analyzer = Iocov::new();
        let trace = Trace::from_events(vec![
            ev(
                "stat",
                vec![ArgValue::Path("/f".into()), ArgValue::Ptr(1)],
                0,
            ),
            ev("fsync", vec![ArgValue::Fd(3)], 0),
            open_ev("/f", 0, 3),
        ]);
        let report = analyzer.analyze(&trace);
        assert_eq!(report.total_calls(), 1);
        assert!(!report.calls_per_variant.contains_key("stat"));
    }

    #[test]
    fn merge_accumulates_reports() {
        let analyzer = Iocov::new();
        let a = analyzer.analyze(&Trace::from_events(vec![
            open_ev("/a", 0, 3),
            write_ev(8, 8),
        ]));
        let b = analyzer.analyze(&Trace::from_events(vec![open_ev("/b", 0, -2)]));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total_calls(), 3);
        let cov = merged.input_coverage(ArgName::OpenFlags);
        assert_eq!(cov.count(&InputPartition::Flag("O_RDONLY".into())), 2);
        assert_eq!(
            merged
                .output_coverage(BaseSyscall::Open)
                .errno_count("ENOENT"),
            1
        );
        assert_eq!(merged.open_combos.sizes[&1], 2);
    }

    #[test]
    fn frequency_vector_has_domain_length() {
        let analyzer = Iocov::new();
        let report = analyzer.analyze(&Trace::from_events(vec![open_ev("/a", 0, 3)]));
        let cov = report.input_coverage(ArgName::OpenFlags);
        let vec = cov.frequency_vector(ArgName::OpenFlags);
        assert_eq!(vec.len(), 20);
        assert_eq!(vec.iter().sum::<u64>(), 1);
    }

    #[test]
    fn report_serde_roundtrip() {
        let analyzer = Iocov::new();
        let report = analyzer.analyze(&Trace::from_events(vec![
            open_ev("/a", 0o101, 3),
            write_ev(512, 512),
            write_ev(0, 0),
        ]));
        let json = serde_json::to_string(&report).unwrap();
        let back: AnalysisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    /// The payload of a checkpoint written before reports had the
    /// extended fields: `analyze --mount /mnt/test --checkpoint-every 3`
    /// over the first three events of `fixtures/whole_trace.jsonl`.
    const OLD_CHECKPOINT: &str = concat!(
        r#"{"mount":"/mnt/test","cursor":{"byte_offset":384,"lines":3,"events":3,"#,
        r#""skipped":[],"bom_stripped":false,"crlf_lines":0},"pid_states":{"100":"#,
        r#"{"fds":{"3":true},"cwd_relevant":false},"200":{"fds":{"3":true},"#,
        r#""cwd_relevant":false}},"report":{"filter_stats":{"total":3,"kept":3,"#,
        r#""dropped":0},"input":{"OpenFlags":{"counts":[[{"Flag":"O_CREAT"},2],"#,
        r#"[{"Flag":"O_RDWR"},1],[{"Flag":"O_WRONLY"},1]],"calls":2},"OpenMode":"#,
        r#"{"counts":[[{"Flag":"S_IRGRP"},1],[{"Flag":"S_IROTH"},1],"#,
        r#"[{"Flag":"S_IRUSR"},2],[{"Flag":"S_IWUSR"},2]],"calls":2},"MkdirMode":"#,
        r#"{"counts":[[{"Flag":"S_IRGRP"},1],[{"Flag":"S_IROTH"},1],"#,
        r#"[{"Flag":"S_IRUSR"},1],[{"Flag":"S_IWUSR"},1],[{"Flag":"S_IXGRP"},1],"#,
        r#"[{"Flag":"S_IXOTH"},1],[{"Flag":"S_IXUSR"},1]],"calls":1}},"output":"#,
        r#"{"mkdir":{"counts":[["Ok",1]],"calls":1},"open":{"counts":[["Ok",2]],"#,
        r#""calls":2}},"calls_per_variant":{"mkdir":1,"open":2},"open_combos":"#,
        r#"{"sizes":{"2":2},"sizes_with_rdonly":{}}},"metrics":{"events_read":0,"#,
        r#""parse_skipped":0,"filter_dropped":{},"variant_merged":0,"#,
        r#""partition_records":{},"batched_events":0,"allocs_estimated":0,"#,
        r#""shard_restarts":0,"shard_failures":[]},"format":"Jsonl"}"#,
    );

    #[test]
    fn extended_fields_appear_only_when_counted() {
        let events = vec![
            open_ev("/a", 0o101, 3),
            ev("close", vec![ArgValue::Fd(3)], 0),
        ];
        // Without the setting: no new key, in a report or a checkpoint.
        let plain = Iocov::new().analyze(&Trace::from_events(events.clone()));
        assert_eq!((&plain.identifiers, &plain.combos), (&None, &None));
        let json = serde_json::to_string(&plain).unwrap();
        assert!(!json.contains(r#""identifiers":"#), "{json}");
        assert!(!json.contains(r#""combos":"#), "{json}");
        let old: crate::CheckpointDoc = serde_json::from_str(OLD_CHECKPOINT).unwrap();
        assert_eq!(
            (&old.report.identifiers, &old.report.combos),
            (&None, &None)
        );
        assert_eq!(serde_json::to_string(&old).unwrap(), OLD_CHECKPOINT);

        // With it: both fields, surviving a round trip.
        let mut session = crate::PipelineBuilder::new(TraceFilter::keep_all())
            .extended_coverage()
            .build_session();
        session.feed_owned(events);
        let extended = session.finish().0;
        assert_eq!(extended.identifiers.as_ref().unwrap().calls, 2);
        assert_eq!(extended.combos.as_ref().unwrap().calls, 1);
        let back: AnalysisReport =
            serde_json::from_str(&serde_json::to_string(&extended).unwrap()).unwrap();
        assert_eq!(extended, back);
        assert_eq!(
            AnalysisReport {
                identifiers: None,
                combos: None,
                ..extended
            },
            plain
        );
    }
}
