//! Per-process relevance state and the keep/drop rules.
//!
//! [`StreamingAnalyzer::push`](crate::StreamingAnalyzer::push) is the
//! one loop that applies them, so every driver — the whole-trace
//! [`Iocov::analyze`](crate::Iocov::analyze), sessions under any
//! chunking, shard count or checkpoint cut — makes the same decision
//! for every event. Per event, [`event_drop_reason`] decides whether it
//! touches the mount point (and why not, for the metrics layer), and
//! [`update_state`] then propagates descriptor and cwd provenance.
//!
//! Provenance rules:
//!
//! * `open`/`openat`/`openat2`/`creat` — the returned descriptor
//!   inherits the relevance of the opened path.
//! * `dup`/`dup2`/`dup3` — the new descriptor inherits the *source*
//!   descriptor's provenance, so I/O through a duplicated descriptor is
//!   attributed exactly like I/O through the original.
//! * `close` — forgets the descriptor (a later reuse of the number by an
//!   unrelated `open` must not inherit stale provenance).
//! * `chdir`/`fchdir` — update whether the cwd is under the mount point,
//!   which decides relative-path relevance.
//!
//! Relevance rules:
//!
//! * An event with pathname arguments is relevant when **any** of them
//!   resolves under the mount point — two-path syscalls (`rename`,
//!   `link`, `symlink` and their `*at` variants) count either side, so a
//!   rename *into* the mount point is kept even though its source is
//!   outside. A relative pathname resolves through the immediately
//!   preceding descriptor argument when there is one (the `*at` dirfd
//!   convention), and through the cwd otherwise.
//! * An event with no pathname argument is relevant when its leading
//!   descriptor argument is.

use std::collections::HashMap;

use iocov_trace::{ArgView, EventView};

use crate::filter::TraceFilter;
use crate::metrics::DropReason;

/// `AT_FDCWD` without depending on the vfs crate directly.
pub(crate) const AT_FDCWD: i32 = -100;

/// Per-process relevance state while walking a trace.
#[derive(Debug, Default, Clone)]
pub(crate) struct PidState {
    /// Descriptor → does it originate under the mount point?
    fds: HashMap<i32, bool>,
    /// Whether the process cwd is under the mount point.
    cwd_relevant: bool,
}

impl PidState {
    /// Relevance of a descriptor, treating `AT_FDCWD` as the cwd.
    fn fd_relevant(&self, fd: i32) -> bool {
        if fd == AT_FDCWD {
            self.cwd_relevant
        } else {
            self.fds.get(&fd).copied().unwrap_or(false)
        }
    }

    /// A deterministic, serializable copy of this state (for
    /// checkpointing).
    pub(crate) fn snapshot(&self) -> crate::checkpoint::PidStateSnapshot {
        crate::checkpoint::PidStateSnapshot {
            fds: self.fds.iter().map(|(&fd, &rel)| (fd, rel)).collect(),
            cwd_relevant: self.cwd_relevant,
        }
    }

    /// Reconstructs the state a snapshot was taken from.
    pub(crate) fn restore(snapshot: &crate::checkpoint::PidStateSnapshot) -> PidState {
        PidState {
            fds: snapshot.fds.iter().map(|(&fd, &rel)| (fd, rel)).collect(),
            cwd_relevant: snapshot.cwd_relevant,
        }
    }
}

/// Classifies one event: `None` when it is relevant to the mount point,
/// otherwise the [`DropReason`] the metrics layer should count.
pub(crate) fn event_drop_reason<E: EventView + ?Sized>(
    filter: &TraceFilter,
    state: &PidState,
    event: &E,
) -> Option<DropReason> {
    let mut saw_path = false;
    for i in 0..event.arg_count() {
        let Some(ArgView::Path(path)) = event.arg(i) else {
            continue;
        };
        saw_path = true;
        let relevant = if path.starts_with('/') {
            filter.path_relevant(path)
        } else {
            // Relative path: relevance flows from the base directory —
            // the dirfd argument directly before the path for `*at`
            // calls, the cwd for plain calls.
            match i.checked_sub(1).and_then(|j| event.arg(j)) {
                Some(ArgView::Fd(dirfd)) => state.fd_relevant(dirfd),
                _ => state.cwd_relevant,
            }
        };
        if relevant {
            return None;
        }
    }
    if saw_path {
        return Some(DropReason::WrongMount);
    }
    // No path: relevance flows from the descriptor argument.
    match event.arg(0) {
        Some(ArgView::Fd(fd)) if state.fd_relevant(fd) => None,
        _ => Some(DropReason::IrrelevantFd),
    }
}

/// Propagates descriptor/cwd provenance after the event.
pub(crate) fn update_state<E: EventView + ?Sized>(state: &mut PidState, event: &E, relevant: bool) {
    if event.retval() < 0 {
        return; // failed calls change no kernel state
    }
    match event.name() {
        "open" | "openat" | "creat" | "openat2" => {
            state.fds.insert(event.retval() as i32, relevant);
        }
        "dup" | "dup2" | "dup3" => {
            // The duplicate aliases the source's open file description,
            // so it inherits the source's provenance (dup2/dup3 also
            // implicitly close the target number; the insert overwrites
            // whatever the number previously tracked).
            if let Some(ArgView::Fd(oldfd)) = event.arg(0) {
                let provenance = state.fd_relevant(oldfd);
                state.fds.insert(event.retval() as i32, provenance);
            }
        }
        "close" => {
            if let Some(ArgView::Fd(fd)) = event.arg(0) {
                state.fds.remove(&fd);
            }
        }
        "chdir" => {
            state.cwd_relevant = relevant;
        }
        "fchdir" => {
            if let Some(ArgView::Fd(fd)) = event.arg(0) {
                state.cwd_relevant = state.fd_relevant(fd);
            }
        }
        _ => {}
    }
}
