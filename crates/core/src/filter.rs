//! The trace filter: keeps only syscalls aimed at the tester's mount
//! point.
//!
//! LTTng records *every* syscall the tester makes, including bookkeeping
//! I/O on its own state files; IOCov filters by mount-point pathname
//! before analysis (§3). A [`TraceFilter`] is that one setting: the
//! mount point, matched as a literal path prefix, or none to keep
//! everything. It decides whether one absolute path is relevant
//! ([`TraceFilter::path_relevant`]).
//!
//! Deciding whether an *event* is relevant needs per-process state,
//! which lives in the private `relevance` module and is applied, one
//! event at a time, only by [`StreamingAnalyzer::push`]. Descriptor-
//! carrying events (`read`, `write`, `close`, `f*` variants) have no
//! pathname, so the rules track descriptor provenance: an `open` under
//! the mount point makes its returned descriptor relevant, propagating
//! relevance to later operations on that descriptor — including
//! duplicates made by `dup`/`dup2`/`dup3`, relative `openat` through
//! relevant directory descriptors, and `chdir` updates to cwd
//! relevance. Two-path syscalls (`rename`, `link`, `symlink`, and
//! their `*at` variants) are kept when *either* pathname is relevant,
//! so renames into or out of the mount point are never dropped.
//!
//! [`StreamingAnalyzer::push`]: crate::StreamingAnalyzer::push

use iocov_pattern::PatternError;
use serde::{Deserialize, Serialize};

/// Statistics of one filtering pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Events inspected.
    pub total: usize,
    /// Events kept for analysis.
    pub kept: usize,
    /// Events dropped as irrelevant to the mount point.
    pub dropped: usize,
}

/// A mount-point trace filter. Two filters are equal when they keep
/// the same paths, so `/mnt/test/` and `/mnt/test` are one filter.
///
/// ```
/// use iocov::TraceFilter;
///
/// # fn main() -> Result<(), iocov_pattern::PatternError> {
/// let filter = TraceFilter::mount_point("/mnt/test")?;
/// assert_eq!(filter, TraceFilter::mount_point("/mnt/test/")?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceFilter {
    /// The mount point, without trailing slashes: a path is under it
    /// when it equals it or continues it with `/`.
    mount: Option<String>,
}

impl TraceFilter {
    /// A filter that keeps everything.
    #[must_use]
    pub fn keep_all() -> Self {
        TraceFilter::default()
    }

    /// A filter for one mount point: keeps paths equal to or below
    /// `mount` ("the only setting that needs to be adjusted when applying
    /// IOCov to a new file system tester", §3). The mount is matched as a
    /// literal prefix — the decision the regex `^mount(/|$)` makes,
    /// without running a regex per path.
    ///
    /// # Errors
    ///
    /// Never fails: [`PatternError`] is uninhabited. The `Result` goes
    /// with the next change to the benchmark harness, which calls
    /// `.expect(..)` on it.
    pub fn mount_point(mount: &str) -> Result<Self, PatternError> {
        Ok(TraceFilter::for_mount(Some(mount)))
    }

    /// The filter for an optional mount point: [`mount_point`] when one
    /// is given, [`keep_all`] otherwise — the filter a run configured
    /// with `--mount` (or without it) analyzes through.
    ///
    /// [`mount_point`]: TraceFilter::mount_point
    /// [`keep_all`]: TraceFilter::keep_all
    #[must_use]
    pub fn for_mount(mount: Option<&str>) -> Self {
        TraceFilter {
            mount: mount.map(|m| m.trim_end_matches('/').to_owned()),
        }
    }

    /// Whether this filter keeps every event (no mount point).
    #[must_use]
    pub fn is_keep_all(&self) -> bool {
        self.mount.is_none()
    }

    /// Whether an absolute path is relevant: under the mount point
    /// (everything, when there is none).
    #[must_use]
    pub fn path_relevant(&self, path: &str) -> bool {
        self.mount.as_deref().is_none_or(|m| under_mount(path, m))
    }
}

/// Whether `path` is `mount` or lies below it.
fn under_mount(path: &str, mount: &str) -> bool {
    path.strip_prefix(mount)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamingAnalyzer;
    use iocov_trace::{ArgValue, Trace, TraceEvent};
    use proptest::prelude::*;

    /// Filters a trace through [`StreamingAnalyzer::push`], returning
    /// the kept events and the filter statistics.
    fn apply(filter: &TraceFilter, trace: &Trace) -> (Trace, FilterStats) {
        let mut analyzer = StreamingAnalyzer::new(filter.clone());
        let kept = trace.iter().filter(|e| analyzer.push(*e)).cloned();
        let kept = Trace::from_events(kept.collect());
        (kept, analyzer.finish().filter_stats)
    }

    fn ev(name: &str, args: Vec<ArgValue>, retval: i64) -> TraceEvent {
        TraceEvent::build(name, 0, args, retval)
    }

    fn open_ev(path: &str, fd: i64) -> TraceEvent {
        ev(
            "open",
            vec![
                ArgValue::Path(path.into()),
                ArgValue::Flags(0),
                ArgValue::Mode(0),
            ],
            fd,
        )
    }

    #[test]
    fn keep_all_keeps_everything() {
        let filter = TraceFilter::keep_all();
        let trace = Trace::from_events(vec![open_ev("/anything", 3)]);
        let (kept, stats) = apply(&filter, &trace);
        assert_eq!(kept.len(), 1);
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn mount_point_matches_subtree_not_prefix() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        assert!(filter.path_relevant("/mnt/test"));
        assert!(filter.path_relevant("/mnt/test/a/b"));
        assert!(!filter.path_relevant("/mnt/testother"));
        assert!(!filter.path_relevant("/var/log/x"));
    }

    /// The test oracle for [`TraceFilter::path_relevant`] with a mount
    /// point: compares `/`-separated components, with the mount's
    /// trailing slashes trimmed. A path is under the mount when the
    /// mount's components are a prefix of the path's.
    fn component_oracle(mount: &str, path: &str) -> bool {
        let mount: Vec<&str> = mount.trim_end_matches('/').split('/').collect();
        let path: Vec<&str> = path.split('/').collect();
        path.starts_with(&mount)
    }

    #[test]
    fn literal_mount_match_agrees_with_the_component_oracle() {
        let mounts = ["/mnt/test", "/mnt/test/", "/", "", "/a.b", "/m(n)t+"];
        let paths = [
            "",
            "/",
            "/mnt",
            "/mnt/test",
            "/mnt/test/",
            "/mnt/test/a/b",
            "/mnt/testother",
            "/mnt/tes",
            "/a.b/c",
            "/axb/c",
            "/m(n)t+",
            "/m(n)t+/f",
            "relative",
        ];
        for mount in mounts {
            let filter = TraceFilter::mount_point(mount).unwrap();
            for path in paths {
                assert_eq!(
                    filter.path_relevant(path),
                    component_oracle(mount, path),
                    "mount {mount:?}, path {path:?}"
                );
            }
        }
    }

    /// Mounts and paths over a small alphabet, so generated paths often
    /// share a stem with the mount: `/`, regex metacharacters, and
    /// letters that spell `mnt`/`test`.
    fn path_text() -> impl Strategy<Value = String> {
        let atom = prop_oneof![
            Just("/"),
            Just("//"),
            Just("mnt"),
            Just("test"),
            Just("other"),
            Just("t"),
            Just("."),
            Just("*"),
            Just("(n)"),
            Just("+"),
            Just("$"),
            Just("^"),
        ];
        proptest::collection::vec(atom, 0..8).prop_map(|parts| parts.concat())
    }

    proptest! {
        #[test]
        fn mount_match_agrees_with_the_component_oracle(
            mount in path_text(),
            suffix in path_text(),
            stem in any::<bool>(),
            other in path_text(),
        ) {
            let filter = TraceFilter::mount_point(&mount).unwrap();
            // Half the paths continue the mount, so matches and sibling
            // stems (`/mnt/test` vs `/mnt/testother`) both show up.
            let path = if stem { format!("{mount}{suffix}") } else { other };
            prop_assert_eq!(
                filter.path_relevant(&path),
                component_oracle(&mount, &path),
                "mount {:?}, path {:?}", mount, path
            );
        }

        #[test]
        fn filters_are_equal_when_they_keep_the_same_paths(
            a in path_text(),
            b in path_text(),
        ) {
            let fa = TraceFilter::mount_point(&a).unwrap();
            let fb = TraceFilter::mount_point(&b).unwrap();
            // Each trimmed mount is kept by its own filter and by no
            // filter of a longer mount, so the two tell any two
            // different mounts apart.
            let witnesses = [a.trim_end_matches('/'), b.trim_end_matches('/')];
            let same = witnesses
                .iter()
                .all(|p| fa.path_relevant(p) == fb.path_relevant(p));
            prop_assert_eq!(fa == fb, same, "mounts {:?} and {:?}", a, b);
        }
    }

    #[test]
    fn trailing_slashes_spell_the_same_filter() {
        let plain = TraceFilter::mount_point("/mnt/test").unwrap();
        assert_eq!(plain, TraceFilter::mount_point("/mnt/test//").unwrap());
        assert_eq!(plain, TraceFilter::for_mount(Some("/mnt/test/")));
        assert_ne!(plain, TraceFilter::mount_point("/mnt/other").unwrap());
        assert_ne!(plain, TraceFilter::keep_all());
        assert_eq!(TraceFilter::for_mount(None), TraceFilter::keep_all());
        assert!(TraceFilter::for_mount(None).is_keep_all());
        assert!(!plain.is_keep_all());
    }

    #[test]
    fn path_events_filter_directly() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            open_ev("/mnt/test/f", 3),
            open_ev("/etc/config", 4),
            ev(
                "mkdir",
                vec![ArgValue::Path("/mnt/test/d".into()), ArgValue::Mode(0o755)],
                0,
            ),
            ev(
                "truncate",
                vec![ArgValue::Path("/tmp/x".into()), ArgValue::Int(0)],
                0,
            ),
        ]);
        let (kept, stats) = apply(&filter, &trace);
        assert_eq!(stats.kept, 2);
        assert!(kept
            .iter()
            .all(|e| e.primary_path().unwrap().starts_with("/mnt/test")));
    }

    #[test]
    fn fd_relevance_propagates_from_open_to_io() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            open_ev("/mnt/test/f", 3),
            open_ev("/etc/hosts", 4),
            ev(
                "write",
                vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(10)],
                10,
            ),
            ev(
                "read",
                vec![ArgValue::Fd(4), ArgValue::Ptr(1), ArgValue::UInt(10)],
                10,
            ),
            ev("close", vec![ArgValue::Fd(3)], 0),
            ev("close", vec![ArgValue::Fd(4)], 0),
        ]);
        let (kept, stats) = apply(&filter, &trace);
        let names: Vec<&str> = kept.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["open", "write", "close"]);
        assert_eq!(stats.dropped, 3);
    }

    #[test]
    fn closed_fd_relevance_does_not_leak_to_reused_fd() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            open_ev("/mnt/test/f", 3),
            ev("close", vec![ArgValue::Fd(3)], 0),
            open_ev("/etc/hosts", 3), // fd number reused for noise
            ev(
                "write",
                vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(1)],
                1,
            ),
        ]);
        let (kept, _) = apply(&filter, &trace);
        let names: Vec<&str> = kept.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["open", "close"]);
    }

    #[test]
    fn relative_openat_follows_dirfd_relevance() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            open_ev("/mnt/test", 5),
            ev(
                "openat",
                vec![
                    ArgValue::Fd(5),
                    ArgValue::Path("sub/file".into()),
                    ArgValue::Flags(0),
                    ArgValue::Mode(0),
                ],
                6,
            ),
            ev(
                "write",
                vec![ArgValue::Fd(6), ArgValue::Ptr(1), ArgValue::UInt(2)],
                2,
            ),
            open_ev("/home", 7),
            ev(
                "openat",
                vec![
                    ArgValue::Fd(7),
                    ArgValue::Path("noise".into()),
                    ArgValue::Flags(0),
                    ArgValue::Mode(0),
                ],
                8,
            ),
            ev(
                "write",
                vec![ArgValue::Fd(8), ArgValue::Ptr(1), ArgValue::UInt(2)],
                2,
            ),
        ]);
        let (kept, _) = apply(&filter, &trace);
        assert_eq!(
            kept.len(),
            3,
            "mount-relative chain kept, /home chain dropped"
        );
    }

    #[test]
    fn chdir_updates_cwd_relevance_for_relative_paths() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            ev("chdir", vec![ArgValue::Path("/mnt/test".into())], 0),
            open_ev("relative_file", 3),
            ev("chdir", vec![ArgValue::Path("/home".into())], 0),
            open_ev("other_file", 4),
        ]);
        let (kept, _) = apply(&filter, &trace);
        let names: Vec<String> = kept
            .iter()
            .map(|e| e.primary_path().unwrap_or("").to_owned())
            .collect();
        assert_eq!(names, ["/mnt/test", "relative_file"]);
    }

    #[test]
    fn at_fdcwd_uses_cwd_relevance() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            ev("chdir", vec![ArgValue::Path("/mnt/test".into())], 0),
            ev(
                "openat",
                vec![
                    ArgValue::Fd(-100),
                    ArgValue::Path("f".into()),
                    ArgValue::Flags(0),
                    ArgValue::Mode(0),
                ],
                3,
            ),
        ]);
        let (kept, _) = apply(&filter, &trace);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn failed_chdir_does_not_update_cwd() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            ev("chdir", vec![ArgValue::Path("/mnt/test".into())], 0),
            ev("chdir", vec![ArgValue::Path("/gone".into())], -2),
            open_ev("still_relevant", 3),
        ]);
        let (kept, _) = apply(&filter, &trace);
        assert_eq!(kept.len(), 2, "failed chdir kept old cwd relevance");
    }

    #[test]
    fn dup_inherits_fd_provenance() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            open_ev("/mnt/test/f", 3),
            ev("dup", vec![ArgValue::Fd(3)], 7),
            ev(
                "write",
                vec![ArgValue::Fd(7), ArgValue::Ptr(1), ArgValue::UInt(4)],
                4,
            ),
            open_ev("/etc/hosts", 8),
            ev("dup", vec![ArgValue::Fd(8)], 9),
            ev(
                "write",
                vec![ArgValue::Fd(9), ArgValue::Ptr(1), ArgValue::UInt(4)],
                4,
            ),
        ]);
        let (kept, stats) = apply(&filter, &trace);
        let names: Vec<&str> = kept.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["open", "dup", "write"]);
        assert_eq!(stats.dropped, 3);
    }

    #[test]
    fn dup2_write_via_duped_fd_is_attributed() {
        // The acceptance scenario: open → dup2 → write via the duplicate.
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            open_ev("/mnt/test/f", 3),
            ev("dup2", vec![ArgValue::Fd(3), ArgValue::Fd(10)], 10),
            ev(
                "write",
                vec![ArgValue::Fd(10), ArgValue::Ptr(1), ArgValue::UInt(8)],
                8,
            ),
            ev("close", vec![ArgValue::Fd(3)], 0),
            // The duplicate outlives the original's close.
            ev(
                "write",
                vec![ArgValue::Fd(10), ArgValue::Ptr(1), ArgValue::UInt(8)],
                8,
            ),
        ]);
        let (kept, stats) = apply(&filter, &trace);
        assert_eq!(kept.len(), 5, "every event rides the duped provenance");
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn dup2_overwrites_target_fd_provenance() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            open_ev("/mnt/test/f", 3),
            open_ev("/etc/hosts", 4),
            // dup2 noise over the relevant number: 3 now aliases /etc/hosts.
            ev("dup2", vec![ArgValue::Fd(4), ArgValue::Fd(3)], 3),
            ev(
                "write",
                vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(1)],
                1,
            ),
        ]);
        let (kept, _) = apply(&filter, &trace);
        let names: Vec<&str> = kept.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["open"], "write through the redirected fd is noise");
    }

    #[test]
    fn failed_dup_tracks_nothing() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            open_ev("/mnt/test/f", 3),
            ev("dup", vec![ArgValue::Fd(3)], -24), // EMFILE
            ev(
                "write",
                vec![ArgValue::Fd(22), ArgValue::Ptr(1), ArgValue::UInt(1)],
                1,
            ),
        ]);
        let (kept, _) = apply(&filter, &trace);
        assert_eq!(
            kept.len(),
            2,
            "failed dup is itself relevant but tracks no fd"
        );
    }

    #[test]
    fn rename_into_mount_point_is_kept() {
        // The acceptance scenario: a rename whose *destination* is under
        // the mount point must be kept even though the source is not.
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            ev(
                "rename",
                vec![
                    ArgValue::Path("/tmp/staging".into()),
                    ArgValue::Path("/mnt/test/final".into()),
                ],
                0,
            ),
            ev(
                "rename",
                vec![
                    ArgValue::Path("/mnt/test/old".into()),
                    ArgValue::Path("/tmp/outside".into()),
                ],
                0,
            ),
            ev(
                "rename",
                vec![
                    ArgValue::Path("/tmp/a".into()),
                    ArgValue::Path("/tmp/b".into()),
                ],
                0,
            ),
        ]);
        let (kept, stats) = apply(&filter, &trace);
        assert_eq!(
            kept.len(),
            2,
            "either-side relevance keeps both mount renames"
        );
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn link_and_symlink_count_every_path() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            ev(
                "link",
                vec![
                    ArgValue::Path("/etc/hosts".into()),
                    ArgValue::Path("/mnt/test/hosts_link".into()),
                ],
                0,
            ),
            // symlink's first argument is the target *string*, not a
            // pathname; only the link path decides relevance.
            ev(
                "symlink",
                vec![
                    ArgValue::Str("/mnt/test/target".into()),
                    ArgValue::Path("/tmp/outside_link".into()),
                ],
                0,
            ),
        ]);
        let (kept, _) = apply(&filter, &trace);
        let names: Vec<&str> = kept.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["link"]);
    }

    #[test]
    fn renameat_resolves_each_path_through_its_own_dirfd() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let trace = Trace::from_events(vec![
            open_ev("/mnt/test", 5),
            open_ev("/tmp", 6),
            // Source under /tmp, destination under the mount point.
            ev(
                "renameat",
                vec![
                    ArgValue::Fd(6),
                    ArgValue::Path("staging".into()),
                    ArgValue::Fd(5),
                    ArgValue::Path("final".into()),
                ],
                0,
            ),
            // Both sides under /tmp: noise.
            ev(
                "renameat",
                vec![
                    ArgValue::Fd(6),
                    ArgValue::Path("a".into()),
                    ArgValue::Fd(6),
                    ArgValue::Path("b".into()),
                ],
                0,
            ),
        ]);
        let (kept, _) = apply(&filter, &trace);
        let names: Vec<&str> = kept.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["open", "renameat"]);
    }

    #[test]
    fn per_pid_state_is_independent() {
        let filter = TraceFilter::mount_point("/mnt/test").unwrap();
        let mut noise = open_ev("/etc/hosts", 3);
        noise.pid = 2;
        let mut noise_write = ev(
            "write",
            vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(1)],
            1,
        );
        noise_write.pid = 2;
        let mut good = open_ev("/mnt/test/f", 3);
        good.pid = 1;
        let mut good_write = ev(
            "write",
            vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(1)],
            1,
        );
        good_write.pid = 1;
        let trace = Trace::from_events(vec![noise, good, noise_write, good_write]);
        let (kept, _) = apply(&filter, &trace);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|e| e.pid == 1));
    }
}
