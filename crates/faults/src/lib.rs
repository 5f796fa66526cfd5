//! The bug-study dataset and injectable file-system bugs.
//!
//! Two halves, mirroring §2 of the IOCov paper:
//!
//! * [`dataset`]/[`StudyStats`] — the 70-bug study (51 Ext4 + 19 BtrFS
//!   fixes from 2022) with the paper's exact aggregates: 53% of bugs sat
//!   in code xfstests covered yet missed; 71% were input bugs; 59%
//!   output bugs; 65% of the covered-but-missed bugs needed specific
//!   syscall arguments.
//! * [`BugSet`]/[`demo_bugs`] — synthetic bugs injectable into the
//!   in-memory VFS through its fault-hook interface, letting experiments
//!   *reproduce* the study's phenomenon: code coverage reaches the buggy
//!   function on every call, but only a boundary input trips the bug.
//!
//! Beside them, the faults that exercise the analysis pipeline's own
//! recovery: [`io`] wraps readers and writers in a seeded schedule of
//! transient and hard I/O errors, and [`drill`]'s [`DrillTrigger`] fires
//! the shard and feed drills behind the CLI's `--inject-panic`,
//! `--abort-after-bytes` and `--stall-before-frame` flags.
//!
//! # Examples
//!
//! ```
//! use iocov_faults::{dataset, StudyStats};
//!
//! let stats = StudyStats::compute(&dataset());
//! assert_eq!(stats.total, 70);
//! assert_eq!(stats.line_covered_missed, 37); // the 53% headline
//! ```

mod dataset;
pub mod drill;
mod inject;
pub mod io;
mod study;

pub use dataset::{dataset, BugKind, BugRecord, Filesystem};
pub use drill::DrillTrigger;
pub use inject::{demo_bugs, BugSet, BugTrigger, InjectedBug};
pub use io::{FaultPlan, FaultyRead, FaultyWrite};
pub use study::StudyStats;
