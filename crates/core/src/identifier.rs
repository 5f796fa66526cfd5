//! Identifier-argument coverage — the paper's future-work plan to
//! "support file descriptors and pointer arguments".
//!
//! Identifier arguments (file descriptors, pathnames) cannot be
//! partitioned by magnitude the way numerics can; their meaningful
//! structure is *kind*: which descriptor class a call used
//! (`AT_FDCWD`, stdio, a regular descriptor, garbage) and which
//! pathname shapes a suite exercised (absolute vs relative, deep vs
//! shallow, boundary-length names, `..` traversal, trailing slashes).
//! This module partitions those spaces and counts per-partition hits,
//! exactly like the core metrics do for the other three argument
//! classes.

use std::collections::BTreeMap;
use std::fmt;

use iocov_trace::{ArgView, EventView};
use serde::{Deserialize, Serialize};

use crate::coverage::add_counts;

/// Descriptor-argument partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FdPartition {
    /// The `AT_FDCWD` sentinel (−100).
    AtFdcwd,
    /// Stdin/stdout/stderr (0–2) — unusual targets for fs testing.
    Stdio,
    /// An ordinary descriptor (≥ 3).
    Regular,
    /// −1, the classic error-propagation value.
    MinusOne,
    /// Any other negative value (garbage / fuzzed).
    OtherNegative,
}

impl FdPartition {
    /// All partitions in canonical order.
    pub const ALL: [FdPartition; 5] = [
        FdPartition::AtFdcwd,
        FdPartition::Stdio,
        FdPartition::Regular,
        FdPartition::MinusOne,
        FdPartition::OtherNegative,
    ];

    /// Buckets a descriptor value.
    #[must_use]
    pub fn of(fd: i32) -> FdPartition {
        match fd {
            -100 => FdPartition::AtFdcwd,
            0..=2 => FdPartition::Stdio,
            3.. => FdPartition::Regular,
            -1 => FdPartition::MinusOne,
            _ => FdPartition::OtherNegative,
        }
    }
}

impl fmt::Display for FdPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FdPartition::AtFdcwd => "AT_FDCWD",
            FdPartition::Stdio => "stdio(0-2)",
            FdPartition::Regular => "fd>=3",
            FdPartition::MinusOne => "fd=-1",
            FdPartition::OtherNegative => "fd<-1",
        };
        f.write_str(s)
    }
}

/// Pathname-argument partitions. One path can exercise several
/// (e.g. absolute *and* deep *and* containing `..`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PathPartition {
    /// The empty string (`ENOENT` probe).
    Empty,
    /// Starts with `/`.
    Absolute,
    /// Does not start with `/`.
    Relative,
    /// Contains a `..` component.
    DotDot,
    /// Ends with `/` (directory-demanding form).
    TrailingSlash,
    /// 1 component.
    Depth1,
    /// 2–3 components.
    Depth2To3,
    /// 4 or more components.
    Depth4Plus,
    /// Longest component below 16 bytes.
    ShortName,
    /// Longest component 16–254 bytes.
    MediumName,
    /// Longest component at the 255-byte `NAME_MAX` boundary.
    NameMaxBoundary,
    /// Longest component above `NAME_MAX` (must fail).
    OverNameMax,
}

impl PathPartition {
    /// All partitions in canonical order.
    pub const ALL: [PathPartition; 12] = [
        PathPartition::Empty,
        PathPartition::Absolute,
        PathPartition::Relative,
        PathPartition::DotDot,
        PathPartition::TrailingSlash,
        PathPartition::Depth1,
        PathPartition::Depth2To3,
        PathPartition::Depth4Plus,
        PathPartition::ShortName,
        PathPartition::MediumName,
        PathPartition::NameMaxBoundary,
        PathPartition::OverNameMax,
    ];

    /// The partitions a pathname exercises.
    #[must_use]
    pub fn of(path: &str) -> Vec<PathPartition> {
        if path.is_empty() {
            return vec![PathPartition::Empty];
        }
        let (mut depth, mut longest, mut dotdot) = (0, 0, false);
        for component in path.split('/').filter(|c| !c.is_empty()) {
            depth += 1;
            longest = longest.max(component.len());
            dotdot |= component == "..";
        }
        let mut parts = Vec::with_capacity(5);
        parts.push(if path.starts_with('/') {
            PathPartition::Absolute
        } else {
            PathPartition::Relative
        });
        if dotdot {
            parts.push(PathPartition::DotDot);
        }
        if path.len() > 1 && path.ends_with('/') {
            parts.push(PathPartition::TrailingSlash);
        }
        parts.push(match depth {
            0 | 1 => PathPartition::Depth1,
            2 | 3 => PathPartition::Depth2To3,
            _ => PathPartition::Depth4Plus,
        });
        parts.push(match longest {
            0..=15 => PathPartition::ShortName,
            16..=254 => PathPartition::MediumName,
            255 => PathPartition::NameMaxBoundary,
            _ => PathPartition::OverNameMax,
        });
        parts
    }
}

impl fmt::Display for PathPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PathPartition::Empty => "empty",
            PathPartition::Absolute => "absolute",
            PathPartition::Relative => "relative",
            PathPartition::DotDot => "contains-..",
            PathPartition::TrailingSlash => "trailing-/",
            PathPartition::Depth1 => "depth=1",
            PathPartition::Depth2To3 => "depth=2-3",
            PathPartition::Depth4Plus => "depth>=4",
            PathPartition::ShortName => "name<16",
            PathPartition::MediumName => "name=16-254",
            PathPartition::NameMaxBoundary => "name=255",
            PathPartition::OverNameMax => "name>255",
        };
        f.write_str(s)
    }
}

/// Identifier coverage over a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdentifierCoverage {
    /// Descriptor-partition hit counts.
    pub fd: BTreeMap<FdPartition, u64>,
    /// Pathname-partition hit counts.
    pub path: BTreeMap<PathPartition, u64>,
    /// Calls that contributed at least one identifier argument.
    pub calls: u64,
}

impl IdentifierCoverage {
    /// Partitions every fd and pathname argument of one modelled call
    /// (the report builder calls this for each kept event that
    /// [`normalize`](crate::normalize) accepts).
    pub(crate) fn record<E: EventView + ?Sized>(&mut self, event: &E) {
        let mut contributed = false;
        for arg in (0..event.arg_count()).filter_map(|i| event.arg(i)) {
            match arg {
                ArgView::Fd(fd) => {
                    *self.fd.entry(FdPartition::of(fd)).or_insert(0) += 1;
                    contributed = true;
                }
                ArgView::Path(path) => {
                    for p in PathPartition::of(path) {
                        *self.path.entry(p).or_insert(0) += 1;
                    }
                    contributed = true;
                }
                _ => {}
            }
        }
        if contributed {
            self.calls += 1;
        }
    }

    /// Count for one descriptor partition.
    #[must_use]
    pub fn fd_count(&self, partition: FdPartition) -> u64 {
        self.fd.get(&partition).copied().unwrap_or(0)
    }

    /// Count for one pathname partition.
    #[must_use]
    pub fn path_count(&self, partition: PathPartition) -> u64 {
        self.path.get(&partition).copied().unwrap_or(0)
    }

    /// Untested descriptor partitions.
    #[must_use]
    pub fn untested_fd(&self) -> Vec<FdPartition> {
        FdPartition::ALL
            .into_iter()
            .filter(|p| self.fd_count(*p) == 0)
            .collect()
    }

    /// Untested pathname partitions.
    #[must_use]
    pub fn untested_path(&self) -> Vec<PathPartition> {
        PathPartition::ALL
            .into_iter()
            .filter(|p| self.path_count(*p) == 0)
            .collect()
    }

    /// Merges another identifier coverage.
    pub fn merge(&mut self, other: &IdentifierCoverage) {
        self.calls += other.calls;
        add_counts(&mut self.fd, &other.fd);
        add_counts(&mut self.path, &other.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineBuilder, TraceFilter};
    use iocov_trace::{ArgValue, TraceEvent};

    #[test]
    fn fd_partitioning() {
        assert_eq!(FdPartition::of(-100), FdPartition::AtFdcwd);
        assert_eq!(FdPartition::of(0), FdPartition::Stdio);
        assert_eq!(FdPartition::of(2), FdPartition::Stdio);
        assert_eq!(FdPartition::of(3), FdPartition::Regular);
        assert_eq!(FdPartition::of(1024), FdPartition::Regular);
        assert_eq!(FdPartition::of(-1), FdPartition::MinusOne);
        assert_eq!(FdPartition::of(-7), FdPartition::OtherNegative);
    }

    #[test]
    fn path_partitioning_shapes() {
        assert_eq!(PathPartition::of(""), vec![PathPartition::Empty]);
        let p = PathPartition::of("/mnt/test/file");
        assert!(p.contains(&PathPartition::Absolute));
        assert!(p.contains(&PathPartition::Depth2To3));
        assert!(p.contains(&PathPartition::ShortName));
        let p = PathPartition::of("a/../b/c/d/e");
        assert!(p.contains(&PathPartition::Relative));
        assert!(p.contains(&PathPartition::DotDot));
        assert!(p.contains(&PathPartition::Depth4Plus));
        let p = PathPartition::of("/dir/");
        assert!(p.contains(&PathPartition::TrailingSlash));
        assert!(p.contains(&PathPartition::Depth1));
    }

    #[test]
    fn name_length_boundaries() {
        let name254 = "x".repeat(254);
        let name255 = "x".repeat(255);
        let name256 = "x".repeat(256);
        assert!(PathPartition::of(&format!("/{name254}")).contains(&PathPartition::MediumName));
        assert!(PathPartition::of(&format!("/{name255}")).contains(&PathPartition::NameMaxBoundary));
        assert!(PathPartition::of(&format!("/{name256}")).contains(&PathPartition::OverNameMax));
    }

    #[test]
    fn extended_session_counts_fds_and_paths() {
        let events = vec![
            TraceEvent::build(
                "openat",
                257,
                vec![
                    ArgValue::Fd(-100),
                    ArgValue::Path("rel/file".into()),
                    ArgValue::Flags(0),
                    ArgValue::Mode(0),
                ],
                3,
            ),
            TraceEvent::build("close", 3, vec![ArgValue::Fd(3)], 0),
            TraceEvent::build("close", 3, vec![ArgValue::Fd(-1)], -9),
            // Noise syscalls are ignored.
            TraceEvent::build("stat", 4, vec![ArgValue::Path("/x".into())], 0),
        ];
        let mut session = PipelineBuilder::new(TraceFilter::keep_all())
            .extended_coverage()
            .build_session();
        session.feed_owned(events);
        let cov = session.finish().0.identifiers.unwrap();
        assert_eq!(cov.calls, 3);
        assert_eq!(cov.fd_count(FdPartition::AtFdcwd), 1);
        assert_eq!(cov.fd_count(FdPartition::Regular), 1);
        assert_eq!(cov.fd_count(FdPartition::MinusOne), 1);
        assert_eq!(cov.path_count(PathPartition::Relative), 1);
        assert_eq!(cov.path_count(PathPartition::Absolute), 0, "stat is noise");
        assert_eq!(
            cov.untested_fd(),
            vec![FdPartition::Stdio, FdPartition::OtherNegative]
        );
        assert!(cov
            .untested_path()
            .contains(&PathPartition::NameMaxBoundary));
    }

    #[test]
    fn merge_and_serde() {
        let mut a = IdentifierCoverage::default();
        *a.fd.entry(FdPartition::Regular).or_insert(0) += 5;
        a.calls = 5;
        let mut b = IdentifierCoverage::default();
        *b.fd.entry(FdPartition::Regular).or_insert(0) += 2;
        *b.path.entry(PathPartition::Absolute).or_insert(0) += 2;
        b.calls = 2;
        a.merge(&b);
        assert_eq!(a.fd_count(FdPartition::Regular), 7);
        assert_eq!(a.calls, 7);
        let json = serde_json::to_string(&a).unwrap();
        let back: IdentifierCoverage = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn display_labels() {
        assert_eq!(FdPartition::AtFdcwd.to_string(), "AT_FDCWD");
        assert_eq!(PathPartition::NameMaxBoundary.to_string(), "name=255");
    }
}
