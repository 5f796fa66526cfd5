//! Bit-combination coverage — the paper's future-work plan to "enhance
//! our metrics to support bit combinations".
//!
//! Per-flag counting (Figure 2) says *whether* each flag was exercised;
//! Table 1 says how many were combined; this module closes the gap by
//! tracking **which exact combinations** were used and computing 2-way
//! (pairwise) combinatorial coverage over the flag domain — the standard
//! combinatorial-testing strengthening of per-value coverage.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::coverage::add_counts;
use crate::domain::{open_flag_names, open_flags_present};

/// The three access modes are mutually exclusive: pairs among them are
/// not achievable and are excluded from the pairwise domain.
const ACCESS_MODES: [&str; 3] = ["O_RDONLY", "O_WRONLY", "O_RDWR"];

/// Exact-combination and pairwise coverage of `open` flags.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComboCoverage {
    /// Exact combinations (sorted flag-name lists) → times used.
    #[serde(with = "crate::coverage::pairs")]
    pub exact: BTreeMap<Vec<String>, u64>,
    /// Ordered flag pairs (lexicographic) observed together → count.
    #[serde(with = "crate::coverage::pairs")]
    pub pairs: BTreeMap<(String, String), u64>,
    /// Total `open`-family calls contributing.
    pub calls: u64,
}

impl ComboCoverage {
    /// Records `calls` opens with one flags word.
    pub fn record(&mut self, bits: u32, calls: u64) {
        let present = open_flags_present(bits);
        if present.is_empty() {
            return;
        }
        self.calls += calls;
        let combo: Vec<String> = present.iter().map(|s| (*s).to_owned()).collect();
        for i in 0..present.len() {
            for j in i + 1..present.len() {
                let (a, b) = ordered(present[i], present[j]);
                *self.pairs.entry((a, b)).or_insert(0) += calls;
            }
        }
        *self.exact.entry(combo).or_insert(0) += calls;
    }

    /// The most-used exact combinations, descending.
    #[must_use]
    pub fn top_combinations(&self, n: usize) -> Vec<(&[String], u64)> {
        let mut all: Vec<(&[String], u64)> = self
            .exact
            .iter()
            .map(|(combo, count)| (combo.as_slice(), *count))
            .collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        all.truncate(n);
        all
    }

    /// Number of distinct exact combinations observed.
    #[must_use]
    pub fn distinct_combinations(&self) -> usize {
        self.exact.len()
    }

    /// The full pairwise domain: every unordered pair of distinct flags
    /// that is achievable (access modes are mutually exclusive).
    #[must_use]
    pub fn pairwise_domain() -> Vec<(String, String)> {
        let flags = open_flag_names();
        let mut domain = Vec::new();
        for i in 0..flags.len() {
            for j in i + 1..flags.len() {
                if ACCESS_MODES.contains(&flags[i]) && ACCESS_MODES.contains(&flags[j]) {
                    continue;
                }
                let (a, b) = ordered(flags[i], flags[j]);
                domain.push((a, b));
            }
        }
        domain.sort();
        domain
    }

    /// Achievable pairs never observed together — the actionable gap
    /// list (e.g. `O_SYNC` never combined with `O_DIRECT`).
    #[must_use]
    pub fn untested_pairs(&self) -> Vec<(String, String)> {
        let tested: BTreeSet<&(String, String)> = self.pairs.keys().collect();
        Self::pairwise_domain()
            .into_iter()
            .filter(|pair| !tested.contains(pair))
            .collect()
    }

    /// Fraction of the achievable pairwise domain that was exercised.
    #[must_use]
    pub fn pairwise_fraction(&self) -> f64 {
        let domain = Self::pairwise_domain();
        if domain.is_empty() {
            return 1.0;
        }
        let tested = domain
            .iter()
            .filter(|p| self.pairs.contains_key(*p))
            .count();
        tested as f64 / domain.len() as f64
    }

    /// Merges another combo coverage (for chunked suite runs).
    pub fn merge(&mut self, other: &ComboCoverage) {
        self.calls += other.calls;
        add_counts(&mut self.exact, &other.exact);
        add_counts(&mut self.pairs, &other.pairs);
    }
}

fn ordered(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_owned(), b.to_owned())
    } else {
        (b.to_owned(), a.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineBuilder, TraceFilter};
    use iocov_trace::{ArgValue, TraceEvent};

    fn open_event(flags: u32) -> TraceEvent {
        TraceEvent::build(
            "open",
            2,
            vec![
                ArgValue::Path("/f".into()),
                ArgValue::Flags(flags),
                ArgValue::Mode(0),
            ],
            3,
        )
    }

    #[test]
    fn records_exact_combinations() {
        let mut cov = ComboCoverage::default();
        cov.record(0o101, 1); // O_WRONLY|O_CREAT
        cov.record(0o101, 1);
        cov.record(0, 1); // O_RDONLY alone
        assert_eq!(cov.calls, 3);
        assert_eq!(cov.distinct_combinations(), 2);
        let top = cov.top_combinations(1);
        assert_eq!(top[0].1, 2);
        assert_eq!(top[0].0, ["O_WRONLY", "O_CREAT"]);
    }

    #[test]
    fn pairs_are_unordered_and_counted() {
        let mut cov = ComboCoverage::default();
        cov.record(0o101 | 0o1000, 1); // O_WRONLY, O_CREAT, O_TRUNC
        assert_eq!(cov.pairs.len(), 3);
        assert_eq!(cov.pairs[&("O_CREAT".into(), "O_WRONLY".into())], 1);
        assert_eq!(cov.pairs[&("O_CREAT".into(), "O_TRUNC".into())], 1);
        assert_eq!(cov.pairs[&("O_TRUNC".into(), "O_WRONLY".into())], 1);
    }

    #[test]
    fn pairwise_domain_excludes_mode_mode_pairs() {
        let domain = ComboCoverage::pairwise_domain();
        assert!(!domain.contains(&("O_RDONLY".into(), "O_WRONLY".into())));
        assert!(!domain.contains(&("O_RDWR".into(), "O_WRONLY".into())));
        assert!(domain.contains(&("O_CREAT".into(), "O_RDONLY".into())));
        // 20 flags → C(20,2) = 190, minus the 3 mode-mode pairs.
        assert_eq!(domain.len(), 187);
    }

    #[test]
    fn untested_pairs_shrink_with_coverage() {
        let mut cov = ComboCoverage::default();
        let before = cov.untested_pairs().len();
        assert_eq!(before, 187);
        cov.record(0o101, 1);
        let after = cov.untested_pairs().len();
        assert_eq!(after, 186);
        assert!(cov.pairwise_fraction() > 0.0);
    }

    #[test]
    fn extended_session_scans_all_open_variants() {
        let events = vec![
            open_event(0o101),
            TraceEvent::build(
                "creat",
                85,
                vec![ArgValue::Path("/c".into()), ArgValue::Mode(0o644)],
                4,
            ),
            TraceEvent::build(
                "write",
                1,
                vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(8)],
                8,
            ),
        ];
        let mut session = PipelineBuilder::new(TraceFilter::keep_all())
            .extended_coverage()
            .build_session();
        session.feed_owned(events);
        let cov = session.finish().0.combos.unwrap();
        assert_eq!(cov.calls, 2, "open + creat, not write");
        // creat implies O_WRONLY|O_CREAT|O_TRUNC.
        assert!(cov
            .pairs
            .contains_key(&("O_CREAT".into(), "O_TRUNC".into())));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ComboCoverage::default();
        a.record(0, 1);
        let mut b = ComboCoverage::default();
        b.record(0, 1);
        b.record(0o101, 1);
        a.merge(&b);
        assert_eq!(a.calls, 3);
        assert_eq!(a.exact[&vec!["O_RDONLY".to_owned()]], 2);
    }

    #[test]
    fn invalid_accmode_contributes_nothing() {
        let mut cov = ComboCoverage::default();
        cov.record(3, 1);
        assert_eq!(cov.calls, 0);
    }

    #[test]
    fn serde_roundtrip() {
        let mut cov = ComboCoverage::default();
        cov.record(0o102 | 0o2000000, 1);
        let json = serde_json::to_string(&cov).unwrap();
        let back: ComboCoverage = serde_json::from_str(&json).unwrap();
        assert_eq!(cov, back);
    }
}
