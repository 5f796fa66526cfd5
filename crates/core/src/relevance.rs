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
//!
//! Names are matched once, not per event. [`CallKind::resolve`] turns a
//! syscall name into a closed entry: the in-domain [`Sysno`] it is, if
//! any, its provenance [`Role`] and the plan of arguments it tracks.
//! The batch scan resolves each batch's name table once and looks rows
//! up by name id; an owned event resolves its own name through the same
//! function, so the two paths cannot disagree. Both rules read a row's
//! arguments through one [`Args`] view taken per event.
//!
//! State lookups are cheap on the common path too. [`PidStates`] keeps
//! the keyed pid map but answers a run of events from one pid from a
//! last-pid cache, and each [`PidState`] keeps its low descriptors in a
//! table indexed by number, with the rest in a keyed map.

use std::collections::{BTreeMap, HashMap};

use iocov_syscalls::Sysno;
use iocov_trace::{ArgView, Args};

use crate::checkpoint::PidStateSnapshot;
use crate::filter::TraceFilter;
use crate::metrics::DropReason;
use crate::variants::{call_plan, TrackedArg};

/// `AT_FDCWD` without depending on the vfs crate directly.
pub(crate) const AT_FDCWD: i32 = -100;

/// How a call moves descriptor and cwd provenance; see the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// `open`, `openat`, `openat2`, `creat`.
    Open,
    /// `dup`, `dup2`, `dup3`.
    Dup,
    /// `close`.
    Close,
    /// `chdir`.
    Chdir,
    /// `fchdir`.
    Fchdir,
    /// Every other name: moves no provenance.
    Other,
}

/// Everything analysis needs from a syscall name, resolved once per
/// distinct name.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallKind {
    /// The in-domain call the name is; `None` for tester noise.
    pub(crate) sysno: Option<Sysno>,
    /// How the call moves provenance.
    pub(crate) role: Role,
    /// The arguments the call tracks ([`call_plan`]); none for noise.
    pub(crate) plan: &'static [TrackedArg],
}

impl CallKind {
    /// Resolves one syscall name. The only place analysis matches names.
    pub(crate) fn resolve(name: &str) -> CallKind {
        let sysno = Sysno::from_name(name);
        let role = match name {
            "open" | "openat" | "creat" | "openat2" => Role::Open,
            "dup" | "dup2" | "dup3" => Role::Dup,
            "close" => Role::Close,
            "chdir" => Role::Chdir,
            "fchdir" => Role::Fchdir,
            _ => Role::Other,
        };
        CallKind {
            sysno,
            role,
            plan: sysno.map_or(&[], call_plan),
        }
    }
}

/// A [`PidState`]'s dense descriptor table may always grow this far.
pub(crate) const DENSE_FLOOR: usize = 64;

/// Past [`DENSE_FLOOR`], the dense table may grow to this many slots per
/// descriptor the process tracks.
pub(crate) const DENSE_PER_FD: usize = 4;

/// Per-process relevance state while walking a trace.
///
/// Descriptors live in two places. A dense table indexed by number
/// holds descriptors `0..len`, one byte per slot; a keyed map (the
/// standard library's randomly keyed hasher, as for pids) holds every
/// other one, negative numbers included. The table grows to take a
/// descriptor only while the number is below [`DENSE_FLOOR`], or below
/// [`DENSE_PER_FD`] times the descriptors the process then tracks, and
/// entries of the map it grows over move into it. It never shrinks,
/// just as the map never gives back its capacity.
///
/// So the table's length stays within `DENSE_FLOOR`, or four slots per
/// descriptor at the process's peak, whichever is more. With the
/// vector's spare capacity that is at most eight bytes per descriptor,
/// where the map spends more than nine (an eight-byte bucket and a
/// control byte, at most seven-eighths full). Many pids that each touch
/// one high descriptor keep it in their maps, exactly as before, and
/// their tables stay within the floor. Which side holds a descriptor
/// changes no answer and no snapshot.
#[derive(Debug, Default, Clone)]
pub(crate) struct PidState {
    /// Descriptor `i` → `Some(relevant)` while tracked, `None` when not.
    low: Vec<Option<bool>>,
    /// Tracked descriptors in `low`.
    low_tracked: usize,
    /// Tracked descriptors outside `0..low.len()`.
    high: HashMap<i32, bool>,
    /// Whether the process cwd is under the mount point.
    cwd_relevant: bool,
}

impl PidState {
    /// The dense-table slot of `fd`, if the table covers it.
    fn dense_slot(&self, fd: i32) -> Option<usize> {
        usize::try_from(fd)
            .ok()
            .filter(|&slot| slot < self.low.len())
    }

    /// Relevance of a descriptor, treating `AT_FDCWD` as the cwd.
    fn fd_relevant(&self, fd: i32) -> bool {
        if fd == AT_FDCWD {
            return self.cwd_relevant;
        }
        let tracked = match self.dense_slot(fd) {
            Some(slot) => self.low[slot],
            None => self.high.get(&fd).copied(),
        };
        tracked.unwrap_or(false)
    }

    /// Tracks `fd` with the given provenance.
    fn track(&mut self, fd: i32, relevant: bool) {
        let slot = match self.dense_slot(fd) {
            Some(slot) => slot,
            None => match usize::try_from(fd) {
                Ok(slot) if slot < self.dense_limit() => {
                    self.grow(slot + 1);
                    slot
                }
                _ => {
                    self.high.insert(fd, relevant);
                    return;
                }
            },
        };
        let entry = &mut self.low[slot];
        self.low_tracked += usize::from(entry.is_none());
        *entry = Some(relevant);
    }

    /// Stops tracking `fd`.
    fn forget(&mut self, fd: i32) {
        match self.dense_slot(fd) {
            Some(slot) => {
                let entry = &mut self.low[slot];
                self.low_tracked -= usize::from(entry.is_some());
                *entry = None;
            }
            None => {
                self.high.remove(&fd);
            }
        }
    }

    /// How far the dense table may grow for one more descriptor.
    fn dense_limit(&self) -> usize {
        let tracked = self.low_tracked + self.high.len() + 1;
        DENSE_FLOOR.max(tracked.saturating_mul(DENSE_PER_FD))
    }

    /// Grows the dense table to `len` slots, moving the map's entries
    /// it now covers into it.
    fn grow(&mut self, len: usize) {
        self.low.resize(len, None);
        if self.high.is_empty() {
            return;
        }
        let (low, low_tracked) = (&mut self.low, &mut self.low_tracked);
        self.high
            .retain(|&fd, &mut relevant| match usize::try_from(fd) {
                Ok(slot) if slot < len => {
                    low[slot] = Some(relevant);
                    *low_tracked += 1;
                    false
                }
                _ => true,
            });
    }

    /// A deterministic, serializable copy of this state (for
    /// checkpointing).
    pub(crate) fn snapshot(&self) -> PidStateSnapshot {
        let low = self.low.iter().enumerate().filter_map(|(slot, entry)| {
            let fd = i32::try_from(slot).expect("dense slots hold non-negative i32 descriptors");
            entry.map(|relevant| (fd, relevant))
        });
        PidStateSnapshot {
            fds: low
                .chain(self.high.iter().map(|(&fd, &rel)| (fd, rel)))
                .collect(),
            cwd_relevant: self.cwd_relevant,
        }
    }

    /// Reconstructs the state a snapshot was taken from.
    pub(crate) fn restore(snapshot: &PidStateSnapshot) -> PidState {
        let mut state = PidState {
            cwd_relevant: snapshot.cwd_relevant,
            ..PidState::default()
        };
        for (&fd, &relevant) in &snapshot.fds {
            state.track(fd, relevant);
        }
        state
    }
}

/// Every pid's [`PidState`]: a keyed map from pid to a slot in a dense
/// vector of states, and a cache of the last pid looked up, so a run of
/// events from one process hashes its pid once.
#[derive(Debug, Default, Clone)]
pub(crate) struct PidStates {
    states: Vec<PidState>,
    slots: HashMap<u32, usize>,
    /// The last pid looked up and its slot.
    last: Option<(u32, usize)>,
}

impl PidStates {
    /// The state of `pid`, created empty on first use.
    #[inline]
    pub(crate) fn get(&mut self, pid: u32) -> &mut PidState {
        let slot = match self.last {
            Some((last, slot)) if last == pid => slot,
            _ => {
                let fresh = self.states.len();
                let slot = *self.slots.entry(pid).or_insert(fresh);
                if slot == fresh {
                    self.states.push(PidState::default());
                }
                self.last = Some((pid, slot));
                slot
            }
        };
        &mut self.states[slot]
    }

    /// Snapshots of every state, by pid.
    pub(crate) fn snapshots(&self) -> BTreeMap<u32, PidStateSnapshot> {
        self.slots
            .iter()
            .map(|(&pid, &slot)| (pid, self.states[slot].snapshot()))
            .collect()
    }

    /// The states the snapshots were taken from, with an empty cache.
    pub(crate) fn restore(snapshots: &BTreeMap<u32, PidStateSnapshot>) -> PidStates {
        let states: Vec<PidState> = snapshots.values().map(PidState::restore).collect();
        let slots = snapshots.keys().copied().zip(0..).collect();
        PidStates {
            states,
            slots,
            last: None,
        }
    }
}

/// Classifies one event by its arguments: `None` when it is relevant to
/// the mount point, otherwise the [`DropReason`] the metrics layer
/// should count.
#[inline]
pub(crate) fn event_drop_reason(
    filter: &TraceFilter,
    state: &PidState,
    args: Args<'_>,
) -> Option<DropReason> {
    let mut saw_path = false;
    let mut before = None;
    for arg in args.iter() {
        let prev = before.replace(arg);
        let ArgView::Path(path) = arg else {
            continue;
        };
        saw_path = true;
        let relevant = if path.starts_with('/') {
            filter.path_relevant(path)
        } else {
            // Relative path: relevance flows from the base directory —
            // the dirfd argument directly before the path for `*at`
            // calls, the cwd for plain calls.
            match prev {
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
    match args.get(0) {
        Some(ArgView::Fd(fd)) if state.fd_relevant(fd) => None,
        _ => Some(DropReason::IrrelevantFd),
    }
}

/// Propagates descriptor/cwd provenance after an event with these
/// arguments and return value, whose name resolved to `role`.
#[inline]
pub(crate) fn update_state(
    state: &mut PidState,
    args: Args<'_>,
    retval: i64,
    role: Role,
    relevant: bool,
) {
    if retval < 0 {
        return; // failed calls change no kernel state
    }
    match role {
        Role::Open => {
            state.track(retval as i32, relevant);
        }
        Role::Dup => {
            // The duplicate aliases the source's open file description,
            // so it inherits the source's provenance (dup2/dup3 also
            // implicitly close the target number; the insert overwrites
            // whatever the number previously tracked).
            if let Some(ArgView::Fd(oldfd)) = args.get(0) {
                let provenance = state.fd_relevant(oldfd);
                state.track(retval as i32, provenance);
            }
        }
        Role::Close => {
            if let Some(ArgView::Fd(fd)) = args.get(0) {
                state.forget(fd);
            }
        }
        Role::Chdir => {
            state.cwd_relevant = relevant;
        }
        Role::Fchdir => {
            if let Some(ArgView::Fd(fd)) = args.get(0) {
                state.cwd_relevant = state.fd_relevant(fd);
            }
        }
        Role::Other => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix64;

    /// The dense table's invariant: no map entry falls in its range, and
    /// its count of tracked slots is right.
    fn check_layout(state: &PidState) {
        let len = state.low.len();
        assert!(state
            .high
            .keys()
            .all(|&fd| usize::try_from(fd).map_or(true, |slot| slot >= len)));
        assert_eq!(state.low_tracked, state.low.iter().flatten().count());
    }

    fn snapshot_bytes(state: &PidState) -> String {
        serde_json::to_string(&state.snapshot()).unwrap()
    }

    #[test]
    fn descriptors_anywhere_behave_like_one_keyed_map() {
        // Low, at and around the floor, far past it, negative, and the
        // cwd sentinel, tracked and forgotten in seeded orders, with runs
        // of fresh numbers that make the table grow over map entries.
        let fds: Vec<i32> = [
            0,
            3,
            63,
            64,
            65,
            255,
            256,
            300,
            4096,
            i32::MAX,
            -1,
            -5,
            i32::MIN,
        ]
        .into_iter()
        .chain(0..300)
        .collect();
        for seed in 0..40 {
            let mut state = PidState::default();
            let mut model: HashMap<i32, bool> = HashMap::new();
            for step in 0..600 {
                let r = splitmix64(seed, step);
                let fd = fds[(r >> 8) as usize % fds.len()];
                match r % 4 {
                    0 | 1 => {
                        let relevant = r & 0x10 != 0;
                        state.track(fd, relevant);
                        model.insert(fd, relevant);
                    }
                    2 => {
                        state.forget(fd);
                        model.remove(&fd);
                    }
                    _ => {
                        let restored = PidState::restore(&state.snapshot());
                        check_layout(&restored);
                        assert_eq!(snapshot_bytes(&restored), snapshot_bytes(&state));
                        state = restored;
                    }
                }
                check_layout(&state);
                for &probe in fds.iter().take(13) {
                    assert_eq!(
                        state.fd_relevant(probe),
                        model.get(&probe).copied().unwrap_or(false),
                        "seed {seed}, step {step}, fd {probe}"
                    );
                }
                let expected: BTreeMap<i32, bool> = model.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(state.snapshot().fds, expected);
            }
        }
    }

    #[test]
    fn at_fdcwd_reads_the_cwd_not_a_descriptor() {
        let mut state = PidState::default();
        state.track(AT_FDCWD, true);
        assert!(!state.fd_relevant(AT_FDCWD), "AT_FDCWD is the cwd");
        state.cwd_relevant = true;
        assert!(state.fd_relevant(AT_FDCWD));
        assert_eq!(state.snapshot().fds.get(&AT_FDCWD), Some(&true));
    }

    #[test]
    fn the_dense_table_stays_within_its_bound() {
        // One high descriptor per process stays in the map.
        let mut state = PidState::default();
        state.track(3, true);
        state.track(1000, true);
        assert!(state.low.len() <= DENSE_FLOOR);
        assert_eq!(state.high.len(), 1);

        // Descriptors past the floor wait in the map until the process
        // holds enough to grow the table over them.
        let mut growing = PidState::default();
        growing.track(64, true);
        growing.track(65, false);
        for fd in 3..20 {
            growing.track(fd, false);
        }
        assert_eq!(growing.high.len(), 2);
        growing.track(70, false);
        assert!(growing.high.is_empty(), "the table grew over 64 and 65");
        assert!(growing.fd_relevant(64) && !growing.fd_relevant(65));
        check_layout(&growing);

        // A process that holds many descriptors gets a table sized to
        // them, never past the per-descriptor bound.
        let mut busy = PidState::default();
        for (held, fd) in (3..2_000).enumerate() {
            busy.track(fd, fd % 2 == 0);
            assert!(busy.low.len() <= DENSE_FLOOR.max(DENSE_PER_FD * (held + 1)));
        }
        assert!(busy.high.is_empty(), "sequential descriptors all go dense");

        // Sparse high descriptors never grow the table past the floor.
        let mut sparse = PidState::default();
        for fd in (0..50).map(|i| 1_000 + i * 997) {
            sparse.track(fd, true);
        }
        assert!(sparse.low.len() <= DENSE_FLOOR);
        assert_eq!(sparse.high.len(), 50);
    }

    #[test]
    fn restored_pid_states_drop_the_last_pid_cache() {
        let mut states = PidStates::default();
        states.get(9).track(3, true);
        states.get(2).track(3, false);
        // Pid 2 is now cached at slot 1; a restore lays pids out in
        // order, putting pid 2 at slot 0.
        let snapshots = states.snapshots();
        let mut restored = PidStates::restore(&snapshots);
        assert!(!restored.get(2).fd_relevant(3));
        assert!(restored.get(9).fd_relevant(3));
        assert_eq!(restored.snapshots(), snapshots);
    }
}
