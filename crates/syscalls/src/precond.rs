//! Precondition staging for errno-targeted probes.
//!
//! Output coverage (§2 of the paper) wants every documented errno of
//! every syscall elicited at least once, but most error paths need the
//! file system to be in a particular state first: `EEXIST` needs the
//! file to already exist, `EMFILE` needs an exhausted descriptor table,
//! `EROFS` needs a read-only remount, `EDQUOT` a filled quota. A random
//! generator stumbles into the common ones (`ENOENT`, `EBADF`) and
//! never reaches the rest.
//!
//! This module closes that gap: [`stage_errno`] drives the simulated
//! VFS into the precondition for one `(syscall, errno)` pair — with all
//! setup work *untraced*, so it never pollutes the coverage trace — and
//! returns a [`Probe`] describing the single traced call that should
//! now fail with exactly that errno. The caller runs that call — the
//! workload crate's logged executor does, meeting descriptor
//! requirements with traced opens so the trace filter keeps the event —
//! and [`unstage`] rolls the staging back.
//!
//! Pairs the module cannot reach (unsupported, or unreachable under the
//! current [`VfsConfig`](iocov_vfs::VfsConfig) limits — e.g. `ENOSPC`
//! with a 16 TiB capacity) yield `None` rather than expensive futile
//! loops.

use iocov_vfs::{Errno, OpenFlags, Pid, XATTR_SIZE_MAX};

use crate::kernel::{Kernel, RawRet};
use crate::sysno::BaseSyscall;

/// How many staging iterations (descriptor fills, inode fills, quota
/// fills) we are willing to spend before declaring a pair unreachable.
const MAX_FILL_STEPS: usize = 4096;

/// Resource limits above which fill-based staging is refused.
const MAX_FILL_FDS: usize = 4096;
const MAX_FILL_INODES: u64 = 4096;
const MAX_FILL_BYTES: u64 = 256 << 20;

/// Descriptor requirement of a probe, which the probe's executor meets
/// with *traced* calls (the trace filter drops events on descriptors it
/// never saw opened).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdSpec {
    /// A freshly opened (read-write) scratch file.
    Fresh,
    /// A freshly opened scratch directory.
    FreshDir,
    /// A descriptor that was opened and then closed — dead by the time
    /// the probe runs.
    Closed,
}

/// The single traced call a staged probe performs.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeCall {
    Open {
        path: String,
        flags: u32,
        mode: u32,
    },
    Read {
        fd: FdSpec,
        count: u64,
    },
    Write {
        fd: FdSpec,
        count: u64,
    },
    Lseek {
        fd: FdSpec,
        offset: i64,
        whence: u32,
    },
    Truncate {
        path: String,
        length: i64,
    },
    Mkdir {
        path: String,
        mode: u32,
    },
    Chmod {
        path: String,
        mode: u32,
    },
    /// `close(2)` of an already-closed descriptor.
    CloseDead,
    Chdir {
        path: String,
    },
    Setxattr {
        path: String,
        name: String,
        size: u64,
        flags: u32,
    },
    Getxattr {
        path: String,
        name: String,
        size: u64,
    },
}

/// A staged errno probe: one traced call plus the bookkeeping needed to
/// undo its precondition.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The traced call expected to fail with the target errno.
    pub call: ProbeCall,
    /// Run the probe as the unprivileged helper process (permission
    /// errnos are unreachable as root — `access_ok` short-circuits).
    pub as_helper: bool,
    /// Descriptors opened untraced during staging, per owning process.
    pub cleanup_fds: Vec<(Pid, i32)>,
    /// Paths created untraced during staging (children listed after
    /// parents; removed in reverse).
    pub cleanup_paths: Vec<String>,
    /// The file system was remounted read-only; restore on unstage.
    pub restore_rw: bool,
    /// Scratch-path prefix (unique per nonce) for the executor's own
    /// descriptor staging.
    pub scratch: String,
}

impl Probe {
    fn new(scratch: String, call: ProbeCall) -> Self {
        Probe {
            call,
            as_helper: false,
            cleanup_fds: Vec::new(),
            cleanup_paths: Vec::new(),
            restore_rw: false,
            scratch,
        }
    }

    fn helper(mut self) -> Self {
        self.as_helper = true;
        self
    }
}

/// Looks up an errno by its symbolic name (the form cold-partition
/// reports carry). Only errnos some probe can target are listed.
#[must_use]
pub fn errno_by_name(name: &str) -> Option<Errno> {
    const NAMED: &[Errno] = &[
        Errno::ENOENT,
        Errno::EEXIST,
        Errno::EISDIR,
        Errno::ENOTDIR,
        Errno::ENAMETOOLONG,
        Errno::ELOOP,
        Errno::EACCES,
        Errno::EPERM,
        Errno::EMFILE,
        Errno::ENFILE,
        Errno::EROFS,
        Errno::ENOSPC,
        Errno::EDQUOT,
        Errno::EFBIG,
        Errno::EBADF,
        Errno::EINVAL,
        Errno::ENXIO,
        Errno::ENODATA,
        Errno::ERANGE,
        Errno::E2BIG,
    ];
    NAMED.iter().copied().find(|e| e.name() == name)
}

fn err(e: Errno) -> RawRet {
    -i64::from(e.number())
}

/// Runs `f` untraced as the file system's default (root) process,
/// restoring the previous current process afterwards.
fn untraced_root<T>(kernel: &mut Kernel, f: impl FnOnce(&mut Kernel) -> T) -> T {
    kernel.untraced(|k| {
        let prev = k.current();
        let root = k.vfs().default_pid();
        k.set_current(root);
        let out = f(k);
        k.set_current(prev);
        out
    })
}

/// Creates an empty file (untraced, as root). Returns false on failure.
fn mk_file(kernel: &mut Kernel, path: &str, mode: u32) -> bool {
    untraced_root(kernel, |k| {
        let fd = k.open(
            path,
            (OpenFlags::O_CREAT | OpenFlags::O_WRONLY).bits(),
            mode,
        );
        if fd < 0 {
            return false;
        }
        k.close(fd as i32);
        true
    })
}

fn mk_dir(kernel: &mut Kernel, path: &str, mode: u32) -> bool {
    // `mkdir` applies the process umask; chmod afterwards so staging
    // gets the literal mode it asked for (0o777 scratch dirs must stay
    // world-writable for unprivileged probes).
    untraced_root(kernel, |k| {
        k.mkdir(path, mode) == 0 && k.chmod(path, mode) == 0
    })
}

/// Creates a two-link symlink cycle `l1 → l2 → l1` (untraced).
fn mk_loop(kernel: &mut Kernel, l1: &str, l2: &str) -> bool {
    untraced_root(kernel, |k| k.symlink(l2, l1) == 0 && k.symlink(l1, l2) == 0)
}

/// A path whose final component exceeds `NAME_MAX`.
fn long_path(mount: &str) -> String {
    format!("{mount}/{}", "a".repeat(300))
}

/// Fills the current process's descriptor table (untraced) until `open`
/// fails with the expected limit errno. Returns the opened descriptors,
/// or `None` if a different error interrupted the fill.
fn fill_fds(kernel: &mut Kernel, path: &str, stop: Errno) -> Option<Vec<(Pid, i32)>> {
    kernel.untraced(|k| {
        let pid = k.current();
        let mut fds = Vec::new();
        for _ in 0..MAX_FILL_STEPS {
            let r = k.open(path, 0, 0);
            if r == err(stop) {
                return Some(fds);
            }
            if r < 0 {
                break;
            }
            fds.push((pid, r as i32));
        }
        for &(_, fd) in &fds {
            k.close(fd);
        }
        None
    })
}

/// Stages the precondition for `(base, errno)` and returns the probe
/// that elicits it, or `None` when the pair is unsupported or
/// unreachable under the current VFS limits. `nonce` keeps scratch
/// paths from colliding across rounds; `helper` is the unprivileged
/// process permission probes run as.
#[allow(clippy::too_many_lines)]
pub fn stage_errno(
    kernel: &mut Kernel,
    mount: &str,
    helper: Pid,
    base: BaseSyscall,
    errno: Errno,
    nonce: u64,
) -> Option<Probe> {
    let pfx = format!("{mount}/p{nonce:x}");
    let probe = |call| Probe::new(pfx.clone(), call);
    let o = |f: OpenFlags| f.bits();

    match (base, errno) {
        // ---------------------------------------------------- open(2)
        (BaseSyscall::Open, Errno::ENOENT) => Some(probe(ProbeCall::Open {
            path: format!("{pfx}-missing"),
            flags: 0,
            mode: 0,
        })),
        (BaseSyscall::Open, Errno::EEXIST) => {
            let path = format!("{pfx}-exists");
            mk_file(kernel, &path, 0o644).then(|| {
                let mut p = probe(ProbeCall::Open {
                    path: path.clone(),
                    flags: o(OpenFlags::O_CREAT | OpenFlags::O_EXCL | OpenFlags::O_WRONLY),
                    mode: 0o644,
                });
                p.cleanup_paths.push(path);
                p
            })
        }
        (BaseSyscall::Open, Errno::EISDIR) => {
            let dir = format!("{pfx}-dir");
            mk_dir(kernel, &dir, 0o755).then(|| {
                let mut p = probe(ProbeCall::Open {
                    path: dir.clone(),
                    flags: o(OpenFlags::O_WRONLY),
                    mode: 0,
                });
                p.cleanup_paths.push(dir);
                p
            })
        }
        (BaseSyscall::Open, Errno::ENOTDIR) => {
            let file = format!("{pfx}-plain");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Open {
                    path: format!("{file}/under"),
                    flags: 0,
                    mode: 0,
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Open, Errno::ENAMETOOLONG) => Some(probe(ProbeCall::Open {
            path: long_path(mount),
            flags: 0,
            mode: 0,
        })),
        (BaseSyscall::Open, Errno::ELOOP) => {
            let (l1, l2) = (format!("{pfx}-l1"), format!("{pfx}-l2"));
            mk_loop(kernel, &l1, &l2).then(|| {
                let mut p = probe(ProbeCall::Open {
                    path: l1.clone(),
                    flags: 0,
                    mode: 0,
                });
                p.cleanup_paths.extend([l1, l2]);
                p
            })
        }
        (BaseSyscall::Open, Errno::EACCES) => {
            let path = format!("{pfx}-noperm");
            mk_file(kernel, &path, 0).then(|| {
                let mut p = probe(ProbeCall::Open {
                    path: path.clone(),
                    flags: 0,
                    mode: 0,
                })
                .helper();
                p.cleanup_paths.push(path);
                p
            })
        }
        (BaseSyscall::Open, Errno::EINVAL) => Some(probe(ProbeCall::Open {
            path: format!("{pfx}-accmode"),
            flags: o(OpenFlags::O_ACCMODE),
            mode: 0,
        })),
        (BaseSyscall::Open, Errno::EMFILE) => {
            if kernel.vfs().config().max_fds_per_process > MAX_FILL_FDS {
                return None;
            }
            let path = format!("{pfx}-mf");
            if !mk_file(kernel, &path, 0o644) {
                return None;
            }
            let fds = fill_fds(kernel, &path, Errno::EMFILE)?;
            let mut p = probe(ProbeCall::Open {
                path: path.clone(),
                flags: 0,
                mode: 0,
            });
            p.cleanup_fds = fds;
            p.cleanup_paths.push(path);
            Some(p)
        }
        (BaseSyscall::Open, Errno::ENFILE) => {
            // Fill the *global* descriptor table from throwaway
            // processes so the probe's own table still has room (the
            // per-process check fires first otherwise).
            if kernel.vfs().config().max_open_files > MAX_FILL_FDS {
                return None;
            }
            let path = format!("{pfx}-nf");
            if !mk_file(kernel, &path, 0o644) {
                return None;
            }
            let fds = kernel.untraced(|k| {
                let prev = k.current();
                let mut fds = Vec::new();
                let mut done = false;
                for i in 0..64u32 {
                    let pid = Pid(9000 + i);
                    let (uid, gid) = {
                        let cfg = k.vfs().config();
                        (cfg.root_uid, cfg.root_gid)
                    };
                    k.vfs_mut().spawn_process(pid, uid, gid);
                    k.set_current(pid);
                    loop {
                        let r = k.open(&path, 0, 0);
                        if r == err(Errno::ENFILE) {
                            done = true;
                            break;
                        }
                        if r < 0 {
                            break; // EMFILE on this pid: next filler
                        }
                        fds.push((pid, r as i32));
                        if fds.len() > MAX_FILL_STEPS {
                            break;
                        }
                    }
                    if done || fds.len() > MAX_FILL_STEPS {
                        break;
                    }
                }
                k.set_current(prev);
                if done {
                    Some(fds)
                } else {
                    for &(pid, fd) in &fds {
                        k.set_current(pid);
                        k.close(fd);
                    }
                    k.set_current(prev);
                    None
                }
            })?;
            let mut p = probe(ProbeCall::Open {
                path: path.clone(),
                flags: 0,
                mode: 0,
            })
            .helper();
            p.cleanup_fds = fds;
            p.cleanup_paths.push(path);
            Some(p)
        }
        (BaseSyscall::Open, Errno::EROFS) => remount_ro(kernel).then(|| {
            let mut p = probe(ProbeCall::Open {
                path: format!("{pfx}-ro"),
                flags: o(OpenFlags::O_CREAT | OpenFlags::O_WRONLY),
                mode: 0o644,
            });
            p.restore_rw = true;
            p
        }),
        (BaseSyscall::Open, Errno::ENOSPC) => {
            let paths = fill_inodes(kernel, &pfx)?;
            let mut p = probe(ProbeCall::Open {
                path: format!("{pfx}-nospc"),
                flags: o(OpenFlags::O_CREAT | OpenFlags::O_WRONLY),
                mode: 0o644,
            });
            p.cleanup_paths = paths;
            Some(p)
        }

        // ---------------------------------------------------- read(2)
        (BaseSyscall::Read, Errno::EBADF) => Some(probe(ProbeCall::Read {
            fd: FdSpec::Closed,
            count: 64,
        })),
        (BaseSyscall::Read, Errno::EISDIR) => Some(probe(ProbeCall::Read {
            fd: FdSpec::FreshDir,
            count: 64,
        })),

        // --------------------------------------------------- write(2)
        (BaseSyscall::Write, Errno::EBADF) => Some(probe(ProbeCall::Write {
            fd: FdSpec::Closed,
            count: 64,
        })),
        (BaseSyscall::Write, Errno::EFBIG) => {
            let max = kernel.vfs().config().max_file_size;
            // The oversized length is rejected before any allocation,
            // so this works at any limit that leaves the +1 in range.
            (max < u64::MAX / 2).then(|| {
                probe(ProbeCall::Write {
                    fd: FdSpec::Fresh,
                    count: max + 1,
                })
            })
        }
        (BaseSyscall::Write, Errno::ENOSPC) => {
            let paths = fill_capacity(kernel, &pfx, None)?;
            let mut p = probe(ProbeCall::Write {
                fd: FdSpec::Fresh,
                count: 4096,
            });
            p.cleanup_paths = paths;
            Some(p)
        }
        (BaseSyscall::Write, Errno::EDQUOT) => {
            let paths = fill_capacity(kernel, &pfx, Some(helper))?;
            let mut p = probe(ProbeCall::Write {
                fd: FdSpec::Fresh,
                count: 4096,
            })
            .helper();
            p.cleanup_paths = paths;
            Some(p)
        }

        // --------------------------------------------------- lseek(2)
        (BaseSyscall::Lseek, Errno::EBADF) => Some(probe(ProbeCall::Lseek {
            fd: FdSpec::Closed,
            offset: 0,
            whence: 0,
        })),
        (BaseSyscall::Lseek, Errno::EINVAL) => Some(probe(ProbeCall::Lseek {
            fd: FdSpec::Fresh,
            offset: 0,
            whence: 99, // also exercises the <invalid> whence partition
        })),
        (BaseSyscall::Lseek, Errno::ENXIO) => Some(probe(ProbeCall::Lseek {
            fd: FdSpec::Fresh,
            offset: 0,
            whence: 3, // SEEK_DATA at EOF of an empty file
        })),

        // ------------------------------------------------ truncate(2)
        (BaseSyscall::Truncate, Errno::ENOENT) => Some(probe(ProbeCall::Truncate {
            path: format!("{pfx}-missing"),
            length: 0,
        })),
        (BaseSyscall::Truncate, Errno::EISDIR) => {
            let dir = format!("{pfx}-dir");
            mk_dir(kernel, &dir, 0o755).then(|| {
                let mut p = probe(ProbeCall::Truncate {
                    path: dir.clone(),
                    length: 0,
                });
                p.cleanup_paths.push(dir);
                p
            })
        }
        (BaseSyscall::Truncate, Errno::ENOTDIR) => {
            let file = format!("{pfx}-plain");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Truncate {
                    path: format!("{file}/under"),
                    length: 0,
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Truncate, Errno::ENAMETOOLONG) => Some(probe(ProbeCall::Truncate {
            path: long_path(mount),
            length: 0,
        })),
        (BaseSyscall::Truncate, Errno::ELOOP) => {
            let (l1, l2) = (format!("{pfx}-l1"), format!("{pfx}-l2"));
            mk_loop(kernel, &l1, &l2).then(|| {
                let mut p = probe(ProbeCall::Truncate {
                    path: l1.clone(),
                    length: 0,
                });
                p.cleanup_paths.extend([l1, l2]);
                p
            })
        }
        (BaseSyscall::Truncate, Errno::EINVAL) => {
            let file = format!("{pfx}-neg");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Truncate {
                    path: file.clone(),
                    length: -1,
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Truncate, Errno::EACCES) => {
            let file = format!("{pfx}-noperm");
            mk_file(kernel, &file, 0).then(|| {
                let mut p = probe(ProbeCall::Truncate {
                    path: file.clone(),
                    length: 0,
                })
                .helper();
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Truncate, Errno::EFBIG) => {
            let max = kernel.vfs().config().max_file_size;
            if max >= u64::MAX / 2 {
                return None;
            }
            let file = format!("{pfx}-big");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Truncate {
                    path: file.clone(),
                    length: (max + 1) as i64,
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Truncate, Errno::EROFS) => {
            let file = format!("{pfx}-rof");
            if !mk_file(kernel, &file, 0o644) {
                return None;
            }
            remount_ro(kernel).then(|| {
                let mut p = probe(ProbeCall::Truncate {
                    path: file.clone(),
                    length: 0,
                });
                p.cleanup_paths.push(file);
                p.restore_rw = true;
                p
            })
        }

        // --------------------------------------------------- mkdir(2)
        (BaseSyscall::Mkdir, Errno::EEXIST) => {
            let dir = format!("{pfx}-dir");
            mk_dir(kernel, &dir, 0o755).then(|| {
                let mut p = probe(ProbeCall::Mkdir {
                    path: dir.clone(),
                    mode: 0o755,
                });
                p.cleanup_paths.push(dir);
                p
            })
        }
        (BaseSyscall::Mkdir, Errno::ENOENT) => Some(probe(ProbeCall::Mkdir {
            path: format!("{pfx}-missing/child"),
            mode: 0o755,
        })),
        (BaseSyscall::Mkdir, Errno::ENOTDIR) => {
            let file = format!("{pfx}-plain");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Mkdir {
                    path: format!("{file}/under"),
                    mode: 0o755,
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Mkdir, Errno::ENAMETOOLONG) => Some(probe(ProbeCall::Mkdir {
            path: long_path(mount),
            mode: 0o755,
        })),
        (BaseSyscall::Mkdir, Errno::ELOOP) => {
            let (l1, l2) = (format!("{pfx}-l1"), format!("{pfx}-l2"));
            mk_loop(kernel, &l1, &l2).then(|| {
                let mut p = probe(ProbeCall::Mkdir {
                    path: format!("{l1}/child"),
                    mode: 0o755,
                });
                p.cleanup_paths.extend([l1, l2]);
                p
            })
        }
        (BaseSyscall::Mkdir, Errno::EACCES) => {
            let parent = format!("{pfx}-locked");
            mk_dir(kernel, &parent, 0o700).then(|| {
                let mut p = probe(ProbeCall::Mkdir {
                    path: format!("{parent}/child"),
                    mode: 0o755,
                })
                .helper();
                p.cleanup_paths.push(parent);
                p
            })
        }
        (BaseSyscall::Mkdir, Errno::EROFS) => remount_ro(kernel).then(|| {
            let mut p = probe(ProbeCall::Mkdir {
                path: format!("{pfx}-ro"),
                mode: 0o755,
            });
            p.restore_rw = true;
            p
        }),
        (BaseSyscall::Mkdir, Errno::ENOSPC) => {
            let paths = fill_inodes(kernel, &pfx)?;
            let mut p = probe(ProbeCall::Mkdir {
                path: format!("{pfx}-nospc"),
                mode: 0o755,
            });
            p.cleanup_paths = paths;
            Some(p)
        }

        // --------------------------------------------------- chmod(2)
        (BaseSyscall::Chmod, Errno::ENOENT) => Some(probe(ProbeCall::Chmod {
            path: format!("{pfx}-missing"),
            mode: 0o644,
        })),
        (BaseSyscall::Chmod, Errno::ENOTDIR) => {
            let file = format!("{pfx}-plain");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Chmod {
                    path: format!("{file}/under"),
                    mode: 0o644,
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Chmod, Errno::ENAMETOOLONG) => Some(probe(ProbeCall::Chmod {
            path: long_path(mount),
            mode: 0o644,
        })),
        (BaseSyscall::Chmod, Errno::ELOOP) => {
            let (l1, l2) = (format!("{pfx}-l1"), format!("{pfx}-l2"));
            mk_loop(kernel, &l1, &l2).then(|| {
                let mut p = probe(ProbeCall::Chmod {
                    path: format!("{l1}/child"),
                    mode: 0o644,
                });
                p.cleanup_paths.extend([l1, l2]);
                p
            })
        }
        (BaseSyscall::Chmod, Errno::EPERM) => {
            let file = format!("{pfx}-rootown");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Chmod {
                    path: file.clone(),
                    mode: 0o600,
                })
                .helper();
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Chmod, Errno::EACCES) => {
            let parent = format!("{pfx}-locked");
            if !mk_dir(kernel, &parent, 0o700) {
                return None;
            }
            let inner = format!("{parent}/f");
            mk_file(kernel, &inner, 0o644).then(|| {
                let mut p = probe(ProbeCall::Chmod {
                    path: inner.clone(),
                    mode: 0o600,
                })
                .helper();
                p.cleanup_paths.extend([parent, inner]);
                p
            })
        }
        (BaseSyscall::Chmod, Errno::EROFS) => {
            let file = format!("{pfx}-rof");
            if !mk_file(kernel, &file, 0o644) {
                return None;
            }
            remount_ro(kernel).then(|| {
                let mut p = probe(ProbeCall::Chmod {
                    path: file.clone(),
                    mode: 0o600,
                });
                p.cleanup_paths.push(file);
                p.restore_rw = true;
                p
            })
        }

        // --------------------------------------------------- close(2)
        (BaseSyscall::Close, Errno::EBADF) => Some(probe(ProbeCall::CloseDead)),

        // --------------------------------------------------- chdir(2)
        (BaseSyscall::Chdir, Errno::ENOENT) => Some(probe(ProbeCall::Chdir {
            path: format!("{pfx}-missing"),
        })),
        (BaseSyscall::Chdir, Errno::ENOTDIR) => {
            let file = format!("{pfx}-plain");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Chdir { path: file.clone() });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Chdir, Errno::ENAMETOOLONG) => Some(probe(ProbeCall::Chdir {
            path: long_path(mount),
        })),
        (BaseSyscall::Chdir, Errno::ELOOP) => {
            let (l1, l2) = (format!("{pfx}-l1"), format!("{pfx}-l2"));
            mk_loop(kernel, &l1, &l2).then(|| {
                let mut p = probe(ProbeCall::Chdir { path: l1.clone() });
                p.cleanup_paths.extend([l1, l2]);
                p
            })
        }
        (BaseSyscall::Chdir, Errno::EACCES) => {
            let dir = format!("{pfx}-locked");
            mk_dir(kernel, &dir, 0o700).then(|| {
                let mut p = probe(ProbeCall::Chdir { path: dir.clone() }).helper();
                p.cleanup_paths.push(dir);
                p
            })
        }

        // ------------------------------------------------ setxattr(2)
        (BaseSyscall::Setxattr, Errno::ENOENT) => Some(probe(ProbeCall::Setxattr {
            path: format!("{pfx}-missing"),
            name: "user.probe".into(),
            size: 8,
            flags: 0,
        })),
        (BaseSyscall::Setxattr, Errno::EEXIST) => {
            let file = format!("{pfx}-xa");
            if !mk_file(kernel, &file, 0o644) {
                return None;
            }
            let ok = untraced_root(kernel, |k| k.setxattr(&file, "user.probe", b"v", 0) == 0);
            ok.then(|| {
                let mut p = probe(ProbeCall::Setxattr {
                    path: file.clone(),
                    name: "user.probe".into(),
                    size: 8,
                    flags: 1, // XATTR_CREATE
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Setxattr, Errno::ENODATA) => {
            let file = format!("{pfx}-xa");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Setxattr {
                    path: file.clone(),
                    name: "user.absent".into(),
                    size: 8,
                    flags: 2, // XATTR_REPLACE
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Setxattr, Errno::ERANGE) => {
            let file = format!("{pfx}-xa");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Setxattr {
                    path: file.clone(),
                    name: format!("user.{}", "n".repeat(300)),
                    size: 8,
                    flags: 0,
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Setxattr, Errno::E2BIG) => {
            let file = format!("{pfx}-xa");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Setxattr {
                    path: file.clone(),
                    name: "user.big".into(),
                    size: XATTR_SIZE_MAX as u64 + 1,
                    flags: 0,
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Setxattr, Errno::EROFS) => {
            let file = format!("{pfx}-xa");
            if !mk_file(kernel, &file, 0o644) {
                return None;
            }
            remount_ro(kernel).then(|| {
                let mut p = probe(ProbeCall::Setxattr {
                    path: file.clone(),
                    name: "user.ro".into(),
                    size: 8,
                    flags: 0,
                });
                p.cleanup_paths.push(file);
                p.restore_rw = true;
                p
            })
        }

        // ------------------------------------------------ getxattr(2)
        (BaseSyscall::Getxattr, Errno::ENOENT) => Some(probe(ProbeCall::Getxattr {
            path: format!("{pfx}-missing"),
            name: "user.probe".into(),
            size: 0,
        })),
        (BaseSyscall::Getxattr, Errno::ENODATA) => {
            let file = format!("{pfx}-xa");
            mk_file(kernel, &file, 0o644).then(|| {
                let mut p = probe(ProbeCall::Getxattr {
                    path: file.clone(),
                    name: "user.absent".into(),
                    size: 0,
                });
                p.cleanup_paths.push(file);
                p
            })
        }
        (BaseSyscall::Getxattr, Errno::ERANGE) => {
            let file = format!("{pfx}-xa");
            if !mk_file(kernel, &file, 0o644) {
                return None;
            }
            let ok = untraced_root(kernel, |k| {
                k.setxattr(&file, "user.wide", &[0xAB; 16], 0) == 0
            });
            ok.then(|| {
                let mut p = probe(ProbeCall::Getxattr {
                    path: file.clone(),
                    name: "user.wide".into(),
                    size: 1,
                });
                p.cleanup_paths.push(file);
                p
            })
        }

        _ => None,
    }
}

/// Remounts read-only (untraced). Fails when writable descriptors are
/// still open (`EBUSY`) — callers surface that as "unreachable now".
fn remount_ro(kernel: &mut Kernel) -> bool {
    kernel.untraced(|k| k.vfs_mut().remount(true).is_ok())
}

/// Creates empty files (untraced, as root) until the inode limit fires.
/// Returns the created paths for cleanup, or `None` when the limit is
/// too high to reach or an unexpected error interrupts the fill.
fn fill_inodes(kernel: &mut Kernel, pfx: &str) -> Option<Vec<String>> {
    if kernel.vfs().config().max_inodes > MAX_FILL_INODES {
        return None;
    }
    untraced_root(kernel, |k| {
        let mut paths = Vec::new();
        for i in 0..MAX_FILL_STEPS {
            let path = format!("{pfx}-ino{i}");
            let fd = k.open(
                &path,
                (OpenFlags::O_CREAT | OpenFlags::O_WRONLY).bits(),
                0o644,
            );
            if fd == err(Errno::ENOSPC) {
                return Some(paths);
            }
            if fd < 0 {
                break;
            }
            k.close(fd as i32);
            paths.push(path);
        }
        for p in &paths {
            k.unlink(p);
        }
        None
    })
}

/// Writes scratch files (untraced) until the capacity (`as_uid: None`,
/// runs as root, quota-exempt) or the per-uid quota (`as_uid:
/// Some(pid)`) fires. A write that does not fit fails whole, so a
/// failing chunk is halved and retried until even one byte does not
/// fit: the fill leaves no space free, whatever else the disk holds.
/// Returns the fill files for cleanup.
fn fill_capacity(kernel: &mut Kernel, pfx: &str, as_pid: Option<Pid>) -> Option<Vec<String>> {
    let cfg = kernel.vfs().config();
    let budget = match as_pid {
        None => cfg.capacity_bytes,
        Some(_) => cfg.quota_bytes_per_uid?,
    };
    if budget > MAX_FILL_BYTES {
        return None;
    }
    let mut chunk = cfg.max_file_size.clamp(1, 1 << 20);
    let stop = if as_pid.is_some() {
        Errno::EDQUOT
    } else {
        Errno::ENOSPC
    };
    // Quota fills need a directory the unprivileged writer can create in.
    let dir = format!("{pfx}-fill");
    if !mk_dir(kernel, &dir, 0o777) {
        return None;
    }
    kernel.untraced(|k| {
        let prev = k.current();
        if let Some(pid) = as_pid {
            k.set_current(pid);
        } else {
            k.set_current(k.vfs().default_pid());
        }
        let mut paths = vec![dir.clone()];
        let mut hit = false;
        'outer: for i in 0..MAX_FILL_STEPS {
            let path = format!("{dir}/c{i}");
            let fd = k.open(
                &path,
                (OpenFlags::O_CREAT | OpenFlags::O_WRONLY).bits(),
                0o644,
            );
            if fd == err(stop) {
                hit = true;
                break;
            }
            if fd < 0 {
                break;
            }
            paths.push(path);
            let fd = fd as i32;
            loop {
                let r = k.write_fill(fd, 0xA5, chunk);
                if r == err(stop) {
                    if chunk > 1 {
                        chunk /= 2;
                        continue;
                    }
                    k.close(fd);
                    hit = true;
                    break 'outer;
                }
                if r <= 0 {
                    break; // at max file size (EFBIG) or stuck: next file
                }
            }
            k.close(fd);
        }
        k.set_current(prev);
        if hit {
            // Children were pushed after the parent; unstage removes in
            // reverse order, so the directory goes last.
            Some(paths)
        } else {
            for p in paths.iter().skip(1) {
                k.unlink(p);
            }
            k.rmdir(&dir);
            None
        }
    })
}

/// Rolls back everything [`stage_errno`] did: closes fill descriptors,
/// restores a read-write mount, removes staged paths (children before
/// parents). Untraced throughout.
pub fn unstage(kernel: &mut Kernel, probe: &Probe) {
    kernel.untraced(|k| {
        let prev = k.current();
        for &(pid, fd) in &probe.cleanup_fds {
            k.set_current(pid);
            k.close(fd);
        }
        k.set_current(k.vfs().default_pid());
        if probe.restore_rw {
            let _ = k.vfs_mut().remount(false);
        }
        for path in probe.cleanup_paths.iter().rev() {
            if k.unlink(path) < 0 {
                k.rmdir(path);
            }
        }
        k.set_current(prev);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use iocov_vfs::{Gid, Uid};

    const MOUNT: &str = "/mnt/test";
    const HELPER: Pid = Pid(2);

    #[test]
    fn unreachable_pairs_yield_none_instead_of_spinning() {
        // Default limits (16 TiB capacity, a million inodes) make the
        // fill-based probes unreachable; staging must refuse cheaply.
        let mut k = Kernel::new();
        k.mkdir("/mnt", 0o755);
        k.mkdir(MOUNT, 0o755);
        k.vfs_mut().spawn_process(HELPER, Uid(1000), Gid(1000));
        for (base, errno) in [
            (BaseSyscall::Open, Errno::ENOSPC),
            (BaseSyscall::Write, Errno::ENOSPC),
            (BaseSyscall::Write, Errno::EDQUOT), // no quota configured
            (BaseSyscall::Open, Errno::ENFILE),
        ] {
            assert!(
                stage_errno(&mut k, MOUNT, HELPER, base, errno, 9).is_none(),
                "{base:?}/{errno:?}"
            );
        }
        // Wholly unsupported pairs too.
        assert!(stage_errno(&mut k, MOUNT, HELPER, BaseSyscall::Close, Errno::ENOSPC, 9).is_none());
    }

    #[test]
    fn errno_lookup_by_name_round_trips() {
        assert_eq!(errno_by_name("EDQUOT"), Some(Errno::EDQUOT));
        assert_eq!(errno_by_name("ENOENT"), Some(Errno::ENOENT));
        assert_eq!(errno_by_name("EWOULDBLOCK"), None);
    }
}
