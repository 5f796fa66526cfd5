//! The file-system object: inode tree, durability images, accounting.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use iocov_codecov::CoverageHandle;

use crate::config::VfsConfig;
use crate::errno::{Errno, VfsResult};
use crate::flags::Mode;
use crate::hooks::{FaultAction, OpCtx, SharedHook};
use crate::inode::{Gid, Ino, Inode, InodeKind, Uid};
use crate::process::{Pid, Process};

/// Hasher for the integer-keyed maps (`Ino`, `Pid`, uids, device
/// numbers): one multiply by an odd constant, which keeps distinct keys'
/// low bits distinct and spreads them into the high bits the table's
/// control bytes use. SipHash's flooding resistance buys nothing here —
/// the keys come from the simulator's own counters — and no output may
/// depend on these maps' iteration order, which `RandomState` already
/// randomised per process.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A map keyed by integers, hashed with [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
/// A set of integers, hashed with [`IntHasher`].
pub(crate) type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// The mutable "on-disk" state: all inodes plus allocation bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct FsTree {
    pub(crate) inodes: IntMap<Ino, Inode>,
    pub(crate) root: Ino,
    next_ino: u64,
    /// Bytes charged against capacity (sum of extent payloads).
    pub(crate) used_bytes: u64,
    /// Per-uid charged bytes, for quota enforcement.
    pub(crate) uid_usage: IntMap<u32, u64>,
}

impl FsTree {
    fn new(config: &VfsConfig) -> Self {
        let root = Ino(2); // Ext4 convention: root is inode 2
        let mut inodes = IntMap::default();
        let mut root_inode = Inode::new(
            root,
            InodeKind::Dir(Default::default()),
            config.root_mode,
            config.root_uid,
            config.root_gid,
        );
        // Real directories carry "." and ".."; the root's ".." is itself.
        root_inode.entries_mut().insert(".".to_owned(), root);
        root_inode.entries_mut().insert("..".to_owned(), root);
        inodes.insert(root, root_inode);
        FsTree {
            inodes,
            root,
            next_ino: 3,
            used_bytes: 0,
            uid_usage: IntMap::default(),
        }
    }

    pub(crate) fn alloc_ino(&mut self) -> Ino {
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        ino
    }

    pub(crate) fn get(&self, ino: Ino) -> &Inode {
        self.inodes.get(&ino).expect("live inode")
    }

    pub(crate) fn get_mut(&mut self, ino: Ino) -> &mut Inode {
        self.inodes.get_mut(&ino).expect("live inode")
    }

    /// Recomputes `used_bytes` and `uid_usage` from scratch (after crash
    /// recovery).
    fn recompute_usage(&mut self) {
        self.used_bytes = 0;
        self.uid_usage.clear();
        for inode in self.inodes.values() {
            if let InodeKind::File(content) = &inode.kind {
                let charged = content.charged_bytes();
                self.used_bytes += charged;
                *self.uid_usage.entry(inode.uid.0).or_insert(0) += charged;
            }
        }
    }

    /// Drops unreachable inodes and directory entries whose target inode
    /// is missing — the moral equivalent of fsck's orphan cleanup after a
    /// crash.
    fn gc(&mut self) {
        // First drop dangling entries, then sweep unreachable inodes.
        let live_inos: IntSet<Ino> = self.inodes.keys().copied().collect();
        for inode in self.inodes.values_mut() {
            if let InodeKind::Dir(entries) = &mut inode.kind {
                entries.retain(|_, ino| live_inos.contains(ino));
            }
        }
        let mut reachable = IntSet::default();
        let mut stack = vec![self.root];
        while let Some(ino) = stack.pop() {
            if !reachable.insert(ino) {
                continue;
            }
            if let Some(inode) = self.inodes.get(&ino) {
                if let InodeKind::Dir(entries) = &inode.kind {
                    stack.extend(entries.values().copied());
                }
            }
        }
        self.inodes.retain(|ino, _| reachable.contains(ino));
    }
}

/// Aggregate statistics of a VFS instance (a `statfs`-style view plus
/// operation counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsStats {
    /// Bytes charged against capacity.
    pub used_bytes: u64,
    /// Total capacity.
    pub capacity_bytes: u64,
    /// Live inodes.
    pub inode_count: u64,
    /// Operations executed (successful or not).
    pub ops: u64,
    /// Bytes written by `write`-family calls.
    pub bytes_written: u64,
    /// Bytes read by `read`-family calls.
    pub bytes_read: u64,
    /// Crash-and-remount cycles performed.
    pub crashes: u64,
}

/// The in-memory POSIX file system.
///
/// `Vfs` owns the inode tree, a *durable image* of it (what would survive
/// a crash), a process table with descriptor state, and the configured
/// resource limits. All 27 modelled syscalls plus the supporting
/// operations (`unlink`, `rename`, `symlink`, `fsync`, `sync`, …) are
/// methods; each returns `Result<T, Errno>` with the errno the Linux
/// manual page prescribes.
///
/// # Examples
///
/// ```
/// use iocov_vfs::{Mode, OpenFlags, Vfs};
///
/// # fn main() -> Result<(), iocov_vfs::Errno> {
/// let mut fs = Vfs::new();
/// let pid = fs.default_pid();
/// let fd = fs.open(pid, "/hello.txt",
///     OpenFlags::O_CREAT | OpenFlags::O_WRONLY, Mode::from_bits(0o644))?;
/// fs.write(pid, fd, b"hi")?;
/// fs.close(pid, fd)?;
/// # Ok(())
/// # }
/// ```
pub struct Vfs {
    pub(crate) tree: FsTree,
    pub(crate) durable: FsTree,
    pub(crate) config: VfsConfig,
    pub(crate) processes: IntMap<Pid, Process>,
    pub(crate) read_only: bool,
    pub(crate) clock: u64,
    pub(crate) cov: CoverageHandle,
    pub(crate) hook: Option<SharedHook>,
    pub(crate) global_open_files: usize,
    /// Read-side opens per fifo inode (for `ENXIO` on non-blocking
    /// write-only opens).
    pub(crate) fifo_readers: IntMap<Ino, usize>,
    /// Open-description refcount per inode; unlinked inodes survive until
    /// the last descriptor closes.
    pub(crate) open_counts: IntMap<Ino, usize>,
    /// Registered device numbers (unregistered devices yield
    /// `ENXIO`/`ENODEV` on open).
    pub(crate) devices: IntSet<u64>,
    /// Block devices currently "claimed" (e.g. mounted) — open for write
    /// yields `EBUSY`.
    pub(crate) busy_devices: IntSet<Ino>,
    pub(crate) stats: VfsStats,
}

impl fmt::Debug for Vfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vfs")
            .field("inodes", &self.tree.inodes.len())
            .field("used_bytes", &self.tree.used_bytes)
            .field("processes", &self.processes.len())
            .field("read_only", &self.read_only)
            .field("hook", &self.hook.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new()
    }
}

impl Vfs {
    /// Creates a file system with default limits and one root process
    /// (pid 1, uid 0) — file-system test suites conventionally run as
    /// root. Spawn unprivileged processes with
    /// [`spawn_process`](Self::spawn_process) to exercise permission
    /// errors.
    #[must_use]
    pub fn new() -> Self {
        Vfs::with_config(VfsConfig::default())
    }

    /// Creates a file system with explicit limits.
    #[must_use]
    pub fn with_config(config: VfsConfig) -> Self {
        let tree = FsTree::new(&config);
        let durable = tree.clone();
        let root = tree.root;
        let mut processes = IntMap::default();
        processes.insert(Pid(1), Process::new(Pid(1), Uid(0), Gid(0), root));
        Vfs {
            tree,
            durable,
            config,
            processes,
            read_only: false,
            clock: 0,
            cov: CoverageHandle::disabled(),
            hook: None,
            global_open_files: 0,
            fifo_readers: IntMap::default(),
            open_counts: IntMap::default(),
            devices: IntSet::default(),
            busy_devices: IntSet::default(),
            stats: VfsStats::default(),
        }
    }

    /// The pid of the default process created at construction.
    #[must_use]
    pub fn default_pid(&self) -> Pid {
        Pid(1)
    }

    /// The root directory inode.
    #[must_use]
    pub fn root(&self) -> Ino {
        self.tree.root
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &VfsConfig {
        &self.config
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> VfsStats {
        VfsStats {
            used_bytes: self.tree.used_bytes,
            capacity_bytes: self.config.capacity_bytes,
            inode_count: self.tree.inodes.len() as u64,
            ..self.stats
        }
    }

    /// Installs a coverage handle; the VFS then reports function/branch
    /// probes to it on every operation.
    pub fn set_coverage(&mut self, cov: CoverageHandle) {
        self.cov = cov;
    }

    /// Installs a fault hook (see [`crate::FaultHook`]); replaces any
    /// previous hook.
    pub fn set_fault_hook(&mut self, hook: SharedHook) {
        self.hook = Some(hook);
    }

    /// Removes the fault hook.
    pub fn clear_fault_hook(&mut self) {
        self.hook = None;
    }

    /// The installed fault hook, shared with the ABI layer for
    /// return-value overrides.
    #[must_use]
    pub fn fault_hook(&self) -> Option<SharedHook> {
        self.hook.clone()
    }

    /// Creates a new process. Panics if the pid already exists (programmer
    /// error, like reusing a live pid).
    pub fn spawn_process(&mut self, pid: Pid, euid: Uid, egid: Gid) {
        assert!(
            !self.processes.contains_key(&pid),
            "pid {pid} already exists"
        );
        let root = self.tree.root;
        self.processes
            .insert(pid, Process::new(pid, euid, egid, root));
    }

    /// Shared access to a process table entry.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid — pids are managed by the caller, so an
    /// unknown pid is a harness bug, not a file-system condition.
    #[must_use]
    pub fn process(&self, pid: Pid) -> &Process {
        self.processes.get(&pid).expect("known pid")
    }

    /// Mutable access to a process table entry.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid.
    pub fn process_mut(&mut self, pid: Pid) -> &mut Process {
        self.processes.get_mut(&pid).expect("known pid")
    }

    /// Advances the logical clock and returns the new time.
    pub(crate) fn now(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Runs the fault hook for an operation; returns the errno to inject,
    /// if any. Non-errno actions are returned for the caller to apply.
    pub(crate) fn fault(&self, ctx: &OpCtx<'_>) -> Option<FaultAction> {
        self.hook.as_ref().and_then(|h| h.intercept(ctx))
    }

    /// Shorthand: fail fast if the hook injects an errno for `ctx`.
    pub(crate) fn fault_errno(&self, ctx: &OpCtx<'_>) -> VfsResult<Option<FaultAction>> {
        match self.fault(ctx) {
            Some(FaultAction::FailWith(errno)) => Err(errno),
            other => Ok(other),
        }
    }

    /// Permission check for one inode against a process's credentials.
    pub(crate) fn access_ok(
        &self,
        proc_pid: Pid,
        inode: &Inode,
        read: bool,
        write: bool,
        exec: bool,
    ) -> bool {
        let p = self.process(proc_pid);
        if p.is_root() {
            return true;
        }
        let is_owner = p.euid == inode.uid;
        let is_group = p.egid == inode.gid;
        (!read || inode.mode.allows_read(is_owner, is_group))
            && (!write || inode.mode.allows_write(is_owner, is_group))
            && (!exec || inode.mode.allows_exec(is_owner, is_group))
    }

    /// Charges a change of `delta` bytes to the capacity and to `uid`'s
    /// quota, or fails with `ENOSPC`/`EDQUOT` without changing anything.
    pub(crate) fn charge(&mut self, uid: Uid, delta: i64) -> VfsResult<()> {
        if delta > 0 {
            let add = delta as u64;
            if self.cov.branch(
                "vfs::charge/enospc",
                self.tree.used_bytes.saturating_add(add) > self.config.capacity_bytes,
            ) {
                return Err(Errno::ENOSPC);
            }
            if let Some(quota) = self.config.quota_bytes_per_uid {
                let current = self.tree.uid_usage.get(&uid.0).copied().unwrap_or(0);
                if self.cov.branch(
                    "vfs::charge/edquot",
                    current.saturating_add(add) > quota && uid.0 != 0,
                ) {
                    return Err(Errno::EDQUOT);
                }
            }
            self.tree.used_bytes += add;
            *self.tree.uid_usage.entry(uid.0).or_insert(0) += add;
        } else {
            let sub = (-delta) as u64;
            self.tree.used_bytes = self.tree.used_bytes.saturating_sub(sub);
            let entry = self.tree.uid_usage.entry(uid.0).or_insert(0);
            *entry = entry.saturating_sub(sub);
        }
        Ok(())
    }

    /// Allocates and links a new inode under `parent` with name `name`.
    /// The caller has already validated permissions and uniqueness.
    pub(crate) fn create_inode(
        &mut self,
        parent: Ino,
        name: &str,
        kind: InodeKind,
        mode: Mode,
        uid: Uid,
        gid: Gid,
    ) -> VfsResult<Ino> {
        if self.cov.branch(
            "vfs::create/inode_limit",
            self.tree.inodes.len() as u64 >= self.config.max_inodes,
        ) {
            return Err(Errno::ENOSPC);
        }
        let is_dir = matches!(kind, InodeKind::Dir(_));
        let ino = self.tree.alloc_ino();
        let mut inode = Inode::new(ino, kind, mode, uid, gid);
        let now = self.now();
        inode.times.atime = now;
        inode.times.mtime = now;
        inode.times.ctime = now;
        if is_dir {
            inode.entries_mut().insert(".".to_owned(), ino);
            inode.entries_mut().insert("..".to_owned(), parent);
        }
        self.tree.inodes.insert(ino, inode);
        let parent_inode = self.tree.get_mut(parent);
        parent_inode.entries_mut().insert(name.to_owned(), ino);
        parent_inode.times.mtime = now;
        if is_dir {
            parent_inode.nlink += 1; // the child's ".." entry
        }
        Ok(ino)
    }

    // ------------------------------------------------------------------
    // Durability model
    // ------------------------------------------------------------------

    /// Persists everything: the durable image becomes the current tree
    /// (`sync(2)` or a clean unmount).
    pub fn sync(&mut self) {
        self.cov.fn_hit("vfs::sync");
        self.stats.ops += 1;
        self.durable = self.tree.clone();
    }

    /// Persists a single inode into the durable image (`fsync` semantics):
    /// file data and metadata, or — for directories — the entry list.
    /// An inode persisted this way may still be unreachable after a crash
    /// if no persisted directory references it; that is the classic
    /// "fsync the file but not its parent" crash-consistency bug surface.
    pub(crate) fn persist_inode(&mut self, ino: Ino) {
        if let Some(inode) = self.tree.inodes.get(&ino) {
            self.durable.inodes.insert(ino, inode.clone());
        }
    }

    /// Simulates a power failure and remount: the current tree is
    /// replaced with the durable image, orphans are collected, all
    /// descriptors across all processes are invalidated, and accounting
    /// is rebuilt.
    pub fn crash(&mut self) {
        self.cov.fn_hit("vfs::crash");
        self.stats.crashes += 1;
        let mut tree = self.durable.clone();
        tree.gc();
        tree.recompute_usage();
        self.durable = tree.clone();
        self.tree = tree;
        for proc in self.processes.values_mut() {
            proc.clear_fds();
            proc.cwd = self.tree.root;
        }
        self.global_open_files = 0;
        self.fifo_readers.clear();
        self.open_counts.clear();
        self.busy_devices.clear();
    }

    /// Remounts read-only or read-write. Remounting read-only fails with
    /// `EBUSY` while any process holds a writable descriptor.
    ///
    /// # Errors
    ///
    /// `EBUSY` when switching to read-only with writable descriptors open.
    pub fn remount(&mut self, read_only: bool) -> VfsResult<()> {
        self.cov.fn_hit("vfs::remount");
        if read_only {
            let writable_open = self.processes.values().any(|p| {
                p.open_files()
                    .any(|f| f.flags.writable() && !f.flags.contains(crate::OpenFlags::O_PATH))
            });
            if self.cov.branch("vfs::remount/ebusy", writable_open) {
                return Err(Errno::EBUSY);
            }
        }
        self.read_only = read_only;
        Ok(())
    }

    /// Whether the file system is mounted read-only.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    // ------------------------------------------------------------------
    // Device and special-file management (test scaffolding, mknod-like)
    // ------------------------------------------------------------------

    /// Registers a device number so device nodes referring to it can be
    /// opened.
    pub fn register_device(&mut self, dev: u64) {
        self.devices.insert(dev);
    }

    /// Marks a block device inode as claimed (e.g. mounted); writable
    /// opens then fail `EBUSY`.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the path does not resolve; `EINVAL` if it is not a
    /// block device.
    pub fn mark_device_busy(&mut self, pid: Pid, path: &str) -> VfsResult<()> {
        let ino = self.resolve_existing(pid, path, true)?;
        if !matches!(self.tree.get(ino).kind, InodeKind::BlockDev(_)) {
            return Err(Errno::EINVAL);
        }
        self.busy_devices.insert(ino);
        Ok(())
    }

    /// Marks or unmarks a regular file as "being executed" so writable
    /// opens fail `ETXTBSY`.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the path does not resolve; `EACCES` if it is not a
    /// regular file.
    pub fn set_executing(&mut self, pid: Pid, path: &str, executing: bool) -> VfsResult<()> {
        let ino = self.resolve_existing(pid, path, true)?;
        let inode = self.tree.get_mut(ino);
        if !inode.is_file() {
            return Err(Errno::EACCES);
        }
        inode.executing = executing;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::OpenFlags;

    #[test]
    fn new_fs_has_root_and_default_process() {
        let fs = Vfs::new();
        assert_eq!(fs.root(), Ino(2));
        assert_eq!(fs.default_pid(), Pid(1));
        let stats = fs.stats();
        assert_eq!(stats.inode_count, 1);
        assert_eq!(stats.used_bytes, 0);
        assert!(!fs.is_read_only());
    }

    #[test]
    fn spawn_process_creates_independent_cwd() {
        let mut fs = Vfs::new();
        fs.spawn_process(Pid(2), Uid(0), Gid(0));
        assert!(fs.process(Pid(2)).is_root());
        assert_eq!(fs.process(Pid(2)).cwd, fs.root());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn spawn_duplicate_pid_panics() {
        let mut fs = Vfs::new();
        fs.spawn_process(Pid(1), Uid(0), Gid(0));
    }

    #[test]
    fn charge_enforces_capacity() {
        let mut fs = Vfs::with_config(VfsConfig::builder().capacity_bytes(100).build());
        assert_eq!(fs.charge(Uid(1000), 60), Ok(()));
        assert_eq!(fs.charge(Uid(1000), 60), Err(Errno::ENOSPC));
        assert_eq!(fs.charge(Uid(1000), -20), Ok(()));
        assert_eq!(fs.charge(Uid(1000), 60), Ok(()));
        assert_eq!(fs.stats().used_bytes, 100);
    }

    #[test]
    fn charge_enforces_quota_for_non_root() {
        let mut fs = Vfs::with_config(VfsConfig::builder().quota_bytes_per_uid(50).build());
        assert_eq!(fs.charge(Uid(1000), 40), Ok(()));
        assert_eq!(fs.charge(Uid(1000), 40), Err(Errno::EDQUOT));
        // Root is exempt from quota.
        assert_eq!(fs.charge(Uid(0), 500), Ok(()));
    }

    #[test]
    fn remount_ro_blocks_with_writable_fd() {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        let fd = fs
            .open(
                pid,
                "/f",
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Mode::from_bits(0o644),
            )
            .unwrap();
        assert_eq!(fs.remount(true), Err(Errno::EBUSY));
        fs.close(pid, fd).unwrap();
        assert_eq!(fs.remount(true), Ok(()));
        assert!(fs.is_read_only());
        assert_eq!(fs.remount(false), Ok(()));
    }

    #[test]
    fn tree_gc_removes_orphans_and_dangling_entries() {
        let mut tree = FsTree::new(&VfsConfig::default());
        // A reachable file.
        let a = tree.alloc_ino();
        tree.inodes.insert(
            a,
            Inode::new(
                a,
                InodeKind::File(Default::default()),
                Mode::from_bits(0o644),
                Uid(0),
                Gid(0),
            ),
        );
        let root = tree.root;
        tree.get_mut(root).entries_mut().insert("a".into(), a);
        // An orphan inode (no directory entry).
        let orphan = tree.alloc_ino();
        tree.inodes.insert(
            orphan,
            Inode::new(
                orphan,
                InodeKind::File(Default::default()),
                Mode::from_bits(0o644),
                Uid(0),
                Gid(0),
            ),
        );
        // A dangling entry (no inode).
        tree.get_mut(root)
            .entries_mut()
            .insert("ghost".into(), Ino(999));
        tree.gc();
        assert!(tree.inodes.contains_key(&a));
        assert!(!tree.inodes.contains_key(&orphan));
        assert!(!tree.get(root).entries().contains_key("ghost"));
    }

    #[test]
    fn crash_without_sync_loses_everything() {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        let fd = fs
            .open(
                pid,
                "/data",
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Mode::from_bits(0o644),
            )
            .unwrap();
        fs.write(pid, fd, b"payload").unwrap();
        fs.crash();
        assert_eq!(
            fs.open(pid, "/data", OpenFlags::O_RDONLY, Mode::from_bits(0)),
            Err(Errno::ENOENT)
        );
        // Descriptors did not survive the crash.
        assert_eq!(fs.read(pid, fd, 1), Err(Errno::EBADF));
        assert_eq!(fs.stats().used_bytes, 0);
    }

    #[test]
    fn sync_makes_state_crash_durable() {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        let fd = fs
            .open(
                pid,
                "/data",
                OpenFlags::O_CREAT | OpenFlags::O_RDWR,
                Mode::from_bits(0o644),
            )
            .unwrap();
        fs.write(pid, fd, b"payload").unwrap();
        fs.sync();
        fs.crash();
        let fd = fs
            .open(pid, "/data", OpenFlags::O_RDONLY, Mode::from_bits(0))
            .unwrap();
        assert_eq!(fs.read(pid, fd, 16).unwrap(), b"payload");
    }

    #[test]
    fn fsync_without_parent_sync_orphans_new_file() {
        // The classic crash-consistency pitfall: fsync the file, not the
        // directory that names it.
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        fs.sync(); // persist the (empty) root
        let fd = fs
            .open(
                pid,
                "/new",
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Mode::from_bits(0o644),
            )
            .unwrap();
        fs.write(pid, fd, b"x").unwrap();
        fs.fsync(pid, fd).unwrap();
        fs.crash();
        // The file inode was durable but unreachable: gone after recovery.
        assert_eq!(
            fs.open(pid, "/new", OpenFlags::O_RDONLY, Mode::from_bits(0)),
            Err(Errno::ENOENT)
        );
    }

    #[test]
    fn fsync_plus_parent_fsync_survives_crash() {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        fs.sync();
        let fd = fs
            .open(
                pid,
                "/new",
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Mode::from_bits(0o644),
            )
            .unwrap();
        fs.write(pid, fd, b"x").unwrap();
        fs.fsync(pid, fd).unwrap();
        let dirfd = fs
            .open(
                pid,
                "/",
                OpenFlags::O_RDONLY | OpenFlags::O_DIRECTORY,
                Mode::from_bits(0),
            )
            .unwrap();
        fs.fsync(pid, dirfd).unwrap();
        fs.crash();
        let fd = fs
            .open(pid, "/new", OpenFlags::O_RDONLY, Mode::from_bits(0))
            .unwrap();
        assert_eq!(fs.read(pid, fd, 4).unwrap(), b"x");
    }

    #[test]
    fn crash_recomputes_usage() {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        let fd = fs
            .open(
                pid,
                "/a",
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Mode::from_bits(0o644),
            )
            .unwrap();
        fs.write(pid, fd, &[1u8; 100]).unwrap();
        fs.sync();
        let fd2 = fs
            .open(
                pid,
                "/b",
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Mode::from_bits(0o644),
            )
            .unwrap();
        fs.write(pid, fd2, &[2u8; 50]).unwrap();
        assert_eq!(fs.stats().used_bytes, 150);
        fs.crash();
        assert_eq!(fs.stats().used_bytes, 100, "unsynced /b is gone");
    }
}
