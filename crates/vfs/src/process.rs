//! Simulated processes: descriptor tables, credentials, cwd, limits.

use std::fmt;

use crate::flags::OpenFlags;
use crate::inode::{Gid, Ino, Uid};

/// A process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// One open-file description (what a descriptor refers to).
#[derive(Debug, Clone)]
pub struct OpenFile {
    /// The open inode.
    pub ino: Ino,
    /// Current file offset.
    pub offset: u64,
    /// The flags the file was opened with (access mode, `O_APPEND`,
    /// `O_SYNC`, `O_PATH`, …).
    pub flags: OpenFlags,
    /// The pathname the descriptor was opened with (diagnostic; not
    /// updated by renames, like `/proc/self/fd` after a move).
    pub path: String,
}

/// A simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Effective user id (uid 0 bypasses permission checks).
    pub euid: Uid,
    /// Effective group id.
    pub egid: Gid,
    /// Current working directory inode.
    pub cwd: Ino,
    /// File-mode creation mask.
    pub umask: u32,
    /// Whether the process runs in 32-bit compat mode (`open` of >2 GiB
    /// files without `O_LARGEFILE` fails `EOVERFLOW`).
    pub compat_32bit: bool,
    /// Open descriptors indexed by number; slots 0–2 (the conventional
    /// stdio descriptors) are never handed out.
    fds: Vec<Option<OpenFile>>,
    /// Search hint for [`alloc_fd`](Self::alloc_fd). Invariant: every
    /// descriptor in `FIRST_FD..lowest_free` is open.
    lowest_free: usize,
    /// Number of open descriptors.
    open: usize,
}

/// The lowest descriptor number a process hands out.
const FIRST_FD: usize = 3;

impl Process {
    /// Creates a process rooted at `cwd` with the given credentials.
    #[must_use]
    pub fn new(pid: Pid, euid: Uid, egid: Gid, cwd: Ino) -> Self {
        Process {
            pid,
            euid,
            egid,
            cwd,
            umask: 0o022,
            compat_32bit: false,
            fds: Vec::new(),
            lowest_free: FIRST_FD,
            open: 0,
        }
    }

    /// Whether the process has root privileges.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.euid.0 == 0
    }

    /// Allocates the lowest unused descriptor number ≥ 3, as POSIX
    /// requires.
    pub fn alloc_fd(&mut self, file: OpenFile) -> i32 {
        let mut fd = self.lowest_free;
        while self.fds.get(fd).is_some_and(Option::is_some) {
            fd += 1;
        }
        if fd >= self.fds.len() {
            self.fds.resize_with(fd + 1, || None);
        }
        self.fds[fd] = Some(file);
        self.lowest_free = fd + 1;
        self.open += 1;
        i32::try_from(fd).expect("descriptor numbers fit in an int")
    }

    /// Looks up a descriptor.
    #[must_use]
    pub fn fd(&self, fd: i32) -> Option<&OpenFile> {
        self.fds.get(usize::try_from(fd).ok()?)?.as_ref()
    }

    /// Looks up a descriptor mutably.
    pub fn fd_mut(&mut self, fd: i32) -> Option<&mut OpenFile> {
        self.fds.get_mut(usize::try_from(fd).ok()?)?.as_mut()
    }

    /// Removes a descriptor, returning its open file if present.
    pub fn remove_fd(&mut self, fd: i32) -> Option<OpenFile> {
        let slot = usize::try_from(fd).ok()?;
        let file = self.fds.get_mut(slot)?.take()?;
        self.lowest_free = self.lowest_free.min(slot);
        self.open -= 1;
        Some(file)
    }

    /// Closes every descriptor (the process table after a crash).
    pub fn clear_fds(&mut self) {
        self.fds.clear();
        self.lowest_free = FIRST_FD;
        self.open = 0;
    }

    /// The open descriptions, in descriptor order.
    pub fn open_files(&self) -> impl Iterator<Item = &OpenFile> {
        self.fds.iter().flatten()
    }

    /// Number of open descriptors.
    #[must_use]
    pub fn open_count(&self) -> usize {
        self.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> Process {
        Process::new(Pid(1), Uid(1000), Gid(1000), Ino(2))
    }

    fn file(ino: u64) -> OpenFile {
        OpenFile {
            ino: Ino(ino),
            offset: 0,
            flags: OpenFlags::O_RDONLY,
            path: format!("/file-{ino}"),
        }
    }

    #[test]
    fn fds_start_at_three_and_reuse_lowest() {
        let mut p = proc();
        assert_eq!(p.alloc_fd(file(10)), 3);
        assert_eq!(p.alloc_fd(file(11)), 4);
        assert_eq!(p.alloc_fd(file(12)), 5);
        p.remove_fd(4);
        assert_eq!(p.alloc_fd(file(13)), 4, "lowest free fd is reused");
        assert_eq!(p.open_count(), 3);
    }

    #[test]
    fn fd_lookup_and_mutation() {
        let mut p = proc();
        let fd = p.alloc_fd(file(10));
        assert_eq!(p.fd(fd).unwrap().ino, Ino(10));
        p.fd_mut(fd).unwrap().offset = 99;
        assert_eq!(p.fd(fd).unwrap().offset, 99);
        assert!(p.fd(99).is_none());
        assert!(p.remove_fd(fd).is_some());
        assert!(p.remove_fd(fd).is_none());
    }

    #[test]
    fn root_detection() {
        let mut p = proc();
        assert!(!p.is_root());
        p.euid = Uid(0);
        assert!(p.is_root());
    }

    #[test]
    fn default_umask_is_022() {
        assert_eq!(proc().umask, 0o022);
        assert_eq!(Pid(7).to_string(), "pid:7");
    }

    mod prop {
        use std::collections::BTreeMap;

        use proptest::collection::vec;
        use proptest::prelude::*;

        use super::*;

        #[derive(Debug, Clone)]
        enum Op {
            Alloc,
            /// Close the open descriptor at this rank (modulo the count).
            RemoveOpen(usize),
            /// Close a number that may never have been handed out.
            Remove(i32),
            Clear,
        }

        /// Allocations outweigh closes so tables grow past a few dozen
        /// descriptors; a clear is rare.
        fn op() -> impl Strategy<Value = Op> {
            (0u32..20, any::<u32>()).prop_map(|(kind, n)| match kind {
                0..=9 => Op::Alloc,
                10..=15 => Op::RemoveOpen(n as usize),
                16..=18 => Op::Remove(match (n % 6, (n / 6) as i32) {
                    (0, _) => -1,
                    (1, _) => i32::MIN,
                    (2, _) => i32::MAX,
                    (3, m) => m % 3,
                    (4, m) => 3 + m % 80,
                    (_, m) => 100_000 + m % 10,
                }),
                _ => Op::Clear,
            })
        }

        /// Numbers no sequence here ever hands out.
        const NEVER: [i32; 7] = [i32::MIN, -100, -1, 0, 1, 2, i32::MAX];

        proptest! {
            /// The descriptor table against a `BTreeMap` reference whose
            /// lowest free fd is found by an obvious scan from 3.
            #[test]
            fn matches_a_scanning_reference(ops in vec(op(), 1..300)) {
                let mut p = proc();
                let mut reference: BTreeMap<i32, u64> = BTreeMap::new();
                let mut next_ino = 100;
                for op in ops {
                    match op {
                        Op::Alloc => {
                            let want = (3..).find(|fd| !reference.contains_key(fd)).unwrap();
                            next_ino += 1;
                            prop_assert_eq!(p.alloc_fd(file(next_ino)), want);
                            reference.insert(want, next_ino);
                        }
                        Op::RemoveOpen(rank) => {
                            if reference.is_empty() {
                                continue;
                            }
                            let fd = *reference.keys().nth(rank % reference.len()).unwrap();
                            let ino = reference.remove(&fd).unwrap();
                            prop_assert_eq!(p.remove_fd(fd).map(|f| f.ino), Some(Ino(ino)));
                        }
                        Op::Remove(fd) => {
                            let want = reference.remove(&fd).map(Ino);
                            prop_assert_eq!(p.remove_fd(fd).map(|f| f.ino), want);
                        }
                        Op::Clear => {
                            p.clear_fds();
                            reference.clear();
                        }
                    }
                    prop_assert_eq!(p.open_count(), reference.len());
                    prop_assert_eq!(p.open_files().count(), reference.len());
                    for (&fd, &ino) in &reference {
                        prop_assert_eq!(p.fd(fd).map(|f| f.ino), Some(Ino(ino)));
                        prop_assert_eq!(p.fd_mut(fd).map(|f| f.ino), Some(Ino(ino)));
                    }
                    let past_end = reference.keys().next_back().map_or(3, |fd| fd + 1);
                    for fd in NEVER.into_iter().chain([past_end, past_end + 1_000]) {
                        prop_assert!(p.fd(fd).is_none(), "fd({}) on a closed number", fd);
                        prop_assert!(p.fd_mut(fd).is_none(), "fd_mut({})", fd);
                    }
                }
                // The closed numbers stay closed on a second close.
                for fd in NEVER {
                    prop_assert!(p.remove_fd(fd).is_none(), "remove_fd({})", fd);
                }
                prop_assert_eq!(p.open_count(), reference.len());
            }
        }
    }
}
