//! Pathname resolution: component walking, symlinks, permissions, limits.

use std::borrow::Cow;
use std::collections::VecDeque;

use crate::errno::{Errno, VfsResult};
use crate::flags::{ResolveFlags, AT_FDCWD, NAME_MAX, PATH_MAX, SYMLOOP_MAX};
use crate::fs::Vfs;
use crate::inode::{Ino, InodeKind};
use crate::process::Pid;

/// The outcome of resolving a pathname.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Resolved {
    /// The directory holding the final component (`None` when the path is
    /// the root itself).
    pub parent: Option<Ino>,
    /// The final component name (`"/"` for the root).
    pub name: String,
    /// The target inode, if it exists.
    pub ino: Option<Ino>,
    /// Whether the path demanded a directory (trailing slash).
    pub require_dir: bool,
}

/// Options controlling resolution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolveOpts {
    /// Follow a symlink in the final component.
    pub follow_last: bool,
    /// `openat2`-style restrictions.
    pub resolve: ResolveFlags,
}

impl Default for ResolveOpts {
    fn default() -> Self {
        ResolveOpts {
            follow_last: true,
            resolve: ResolveFlags::default(),
        }
    }
}

/// Hard cap on processed components, guarding against symlink blowup
/// beyond what `SYMLOOP_MAX` alone bounds.
const MAX_WALK: usize = 2 * PATH_MAX;

impl Vfs {
    /// Resolves the base directory for a `dirfd` argument: `AT_FDCWD`
    /// means the process cwd; otherwise the descriptor must name a
    /// directory.
    ///
    /// # Errors
    ///
    /// `EBADF` for an unknown descriptor, `ENOTDIR` when the descriptor
    /// is not a directory.
    pub(crate) fn base_for_dirfd(&self, pid: Pid, dirfd: i32) -> VfsResult<Ino> {
        if dirfd == AT_FDCWD {
            return Ok(self.process(pid).cwd);
        }
        let file = self.process(pid).fd(dirfd).ok_or(Errno::EBADF)?;
        let inode = self.tree.inodes.get(&file.ino).ok_or(Errno::EBADF)?;
        if !inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        Ok(file.ino)
    }

    /// Resolves `path` relative to the process cwd and returns the target
    /// inode, failing with `ENOENT` if it does not exist.
    pub(crate) fn resolve_existing(
        &mut self,
        pid: Pid,
        path: &str,
        follow: bool,
    ) -> VfsResult<Ino> {
        let base = self.process(pid).cwd;
        let resolved = self.resolve_at(
            pid,
            base,
            path,
            ResolveOpts {
                follow_last: follow,
                ..ResolveOpts::default()
            },
        )?;
        resolved.ino.ok_or(Errno::ENOENT)
    }

    /// Walks `path` starting from `base`, honoring symlinks, `.`/`..`,
    /// search permissions, and length limits.
    ///
    /// # Errors
    ///
    /// * `ENOENT` — empty path, or a missing non-final component
    /// * `ENAMETOOLONG` — the whole path exceeds `PATH_MAX` or one
    ///   component exceeds `NAME_MAX`
    /// * `ENOTDIR` — a non-final component (or trailing-slash target) is
    ///   not a directory
    /// * `EACCES` — missing search permission on a traversed directory
    /// * `ELOOP` — more than `SYMLOOP_MAX` symlink expansions, or any
    ///   symlink under `RESOLVE_NO_SYMLINKS`
    /// * `EXDEV` — `..` or an absolute symlink escaping the base under
    ///   `RESOLVE_BENEATH`
    pub(crate) fn resolve_at(
        &mut self,
        pid: Pid,
        base: Ino,
        path: &str,
        opts: ResolveOpts,
    ) -> VfsResult<Resolved> {
        let cov = self.cov.clone();
        if cov.branch("vfs::resolve/empty", path.is_empty()) {
            return Err(Errno::ENOENT);
        }
        if cov.branch("vfs::resolve/path_max", path.len() > PATH_MAX) {
            return Err(Errno::ENAMETOOLONG);
        }
        let beneath = opts.resolve.contains(ResolveFlags::BENEATH);
        let in_root = opts.resolve.contains(ResolveFlags::IN_ROOT);
        let no_symlinks = opts.resolve.contains(ResolveFlags::NO_SYMLINKS);

        let absolute = path.starts_with('/');
        if absolute && cov.branch("vfs::resolve/beneath_abs", beneath) {
            return Err(Errno::EXDEV);
        }
        let start = if absolute && !in_root {
            self.tree.root
        } else {
            base
        };

        // Components still to walk: borrowed from `path`, owned only when
        // spliced in from a symlink target.
        let mut queue: VecDeque<Cow<'_, str>> = path
            .split('/')
            .filter(|c| !c.is_empty())
            .map(Cow::Borrowed)
            .collect();
        let require_dir = path.ends_with('/') && !queue.is_empty();

        // The root of the walk ("/" or the dirfd itself).
        if queue.is_empty() {
            return Ok(Resolved {
                parent: None,
                name: "/".to_owned(),
                ino: Some(start),
                require_dir: false,
            });
        }

        let mut cur = start;
        let mut depth: i64 = 0; // relative to `start`, for BENEATH/IN_ROOT
        let mut symlinks = 0usize;
        let mut walked = 0usize;

        loop {
            walked += 1;
            if cov.branch("vfs::resolve/walk_cap", walked > MAX_WALK) {
                return Err(Errno::ELOOP);
            }
            let comp = queue.pop_front().expect("non-empty queue");
            let is_last = queue.is_empty();

            let cur_inode = self.tree.inodes.get(&cur).ok_or(Errno::ENOENT)?;
            if cov.branch("vfs::resolve/notdir", !cur_inode.is_dir()) {
                return Err(Errno::ENOTDIR);
            }
            if cov.branch(
                "vfs::resolve/search_eacces",
                !self.access_ok(pid, cur_inode, false, false, true),
            ) {
                return Err(Errno::EACCES);
            }
            if cov.branch("vfs::resolve/name_max", comp.len() > NAME_MAX) {
                return Err(Errno::ENAMETOOLONG);
            }

            // BENEATH / IN_ROOT bookkeeping for "..".
            if comp == ".." {
                if depth == 0 {
                    if beneath {
                        return Err(Errno::EXDEV);
                    }
                    if in_root {
                        // Clamp at the dirfd, like RESOLVE_IN_ROOT.
                        if is_last {
                            return Ok(Resolved {
                                parent: None,
                                name: "/".to_owned(),
                                ino: Some(cur),
                                require_dir,
                            });
                        }
                        continue;
                    }
                } else {
                    depth -= 1;
                }
            } else if comp != "." {
                depth += 1;
            }

            let next = cur_inode.entries().get(comp.as_ref()).copied();

            match next {
                None => {
                    if is_last {
                        return Ok(Resolved {
                            parent: Some(cur),
                            name: comp.into_owned(),
                            ino: None,
                            require_dir,
                        });
                    }
                    return Err(Errno::ENOENT);
                }
                Some(next_ino) => {
                    let next_inode = self.tree.inodes.get(&next_ino).ok_or(Errno::ENOENT)?;
                    if let InodeKind::Symlink(target) = &next_inode.kind {
                        let expand = !is_last || opts.follow_last;
                        if expand {
                            if cov.branch("vfs::resolve/no_symlinks", no_symlinks) {
                                return Err(Errno::ELOOP);
                            }
                            symlinks += 1;
                            if cov.branch("vfs::resolve/eloop", symlinks > SYMLOOP_MAX) {
                                return Err(Errno::ELOOP);
                            }
                            if target.is_empty() {
                                return Err(Errno::ENOENT);
                            }
                            if target.starts_with('/') {
                                if beneath {
                                    return Err(Errno::EXDEV);
                                }
                                cur = if in_root { start } else { self.tree.root };
                                depth = 0;
                            }
                            // Splice the target's components before the rest.
                            for piece in target.split('/').filter(|c| !c.is_empty()).rev() {
                                queue.push_front(Cow::Owned(piece.to_owned()));
                            }
                            if queue.is_empty() {
                                // Target was "/" (or all-slashes): resolved.
                                return Ok(Resolved {
                                    parent: None,
                                    name: "/".to_owned(),
                                    ino: Some(cur),
                                    require_dir,
                                });
                            }
                            continue;
                        }
                        // Unfollowed final symlink.
                        return Ok(Resolved {
                            parent: Some(cur),
                            name: comp.into_owned(),
                            ino: Some(next_ino),
                            require_dir,
                        });
                    }
                    if is_last {
                        if cov.branch(
                            "vfs::resolve/trailing_slash_nondir",
                            require_dir && !next_inode.is_dir(),
                        ) {
                            return Err(Errno::ENOTDIR);
                        }
                        return Ok(Resolved {
                            parent: Some(cur),
                            name: comp.into_owned(),
                            ino: Some(next_ino),
                            require_dir,
                        });
                    }
                    cur = next_ino;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::{Mode, OpenFlags};

    fn setup() -> (Vfs, Pid) {
        let mut fs = Vfs::new();
        let pid = fs.default_pid();
        fs.mkdir(pid, "/a", Mode::from_bits(0o755)).unwrap();
        fs.mkdir(pid, "/a/b", Mode::from_bits(0o755)).unwrap();
        let fd = fs
            .open(
                pid,
                "/a/b/f",
                OpenFlags::O_CREAT | OpenFlags::O_WRONLY,
                Mode::from_bits(0o644),
            )
            .unwrap();
        fs.close(pid, fd).unwrap();
        (fs, pid)
    }

    fn resolve(fs: &mut Vfs, pid: Pid, path: &str) -> VfsResult<Resolved> {
        let base = fs.process(pid).cwd;
        fs.resolve_at(pid, base, path, ResolveOpts::default())
    }

    #[test]
    fn resolves_nested_paths() {
        let (mut fs, pid) = setup();
        let r = resolve(&mut fs, pid, "/a/b/f").unwrap();
        assert!(r.ino.is_some());
        assert_eq!(r.name, "f");
        assert!(r.parent.is_some());
        assert!(!r.require_dir);
    }

    #[test]
    fn resolves_root() {
        let (mut fs, pid) = setup();
        let r = resolve(&mut fs, pid, "/").unwrap();
        assert_eq!(r.ino, Some(fs.root()));
        assert_eq!(r.parent, None);
    }

    #[test]
    fn missing_final_component_returns_parent() {
        let (mut fs, pid) = setup();
        let r = resolve(&mut fs, pid, "/a/b/missing").unwrap();
        assert_eq!(r.ino, None);
        assert_eq!(r.name, "missing");
        assert!(r.parent.is_some());
    }

    #[test]
    fn missing_intermediate_is_enoent() {
        let (mut fs, pid) = setup();
        assert_eq!(resolve(&mut fs, pid, "/nope/f"), Err(Errno::ENOENT));
    }

    #[test]
    fn empty_path_is_enoent() {
        let (mut fs, pid) = setup();
        assert_eq!(resolve(&mut fs, pid, ""), Err(Errno::ENOENT));
    }

    #[test]
    fn file_as_intermediate_is_enotdir() {
        let (mut fs, pid) = setup();
        assert_eq!(resolve(&mut fs, pid, "/a/b/f/x"), Err(Errno::ENOTDIR));
    }

    #[test]
    fn trailing_slash_on_file_is_enotdir() {
        let (mut fs, pid) = setup();
        assert_eq!(resolve(&mut fs, pid, "/a/b/f/"), Err(Errno::ENOTDIR));
    }

    #[test]
    fn trailing_slash_on_dir_is_fine() {
        let (mut fs, pid) = setup();
        let r = resolve(&mut fs, pid, "/a/b/").unwrap();
        assert!(r.require_dir);
        assert!(r.ino.is_some());
    }

    #[test]
    fn dot_and_dotdot_navigate() {
        let (mut fs, pid) = setup();
        let direct = resolve(&mut fs, pid, "/a/b").unwrap().ino;
        let dotted = resolve(&mut fs, pid, "/a/./b/../b").unwrap().ino;
        assert_eq!(direct, dotted);
        // ".." above root stays at root.
        assert_eq!(
            resolve(&mut fs, pid, "/../..").unwrap().ino,
            Some(fs.root())
        );
    }

    #[test]
    fn component_over_name_max_fails() {
        let (mut fs, pid) = setup();
        let long = "x".repeat(NAME_MAX + 1);
        assert_eq!(
            resolve(&mut fs, pid, &format!("/a/{long}")),
            Err(Errno::ENAMETOOLONG)
        );
    }

    #[test]
    fn path_over_path_max_fails() {
        let (mut fs, pid) = setup();
        let long = format!("/{}", "x/".repeat(PATH_MAX));
        assert_eq!(resolve(&mut fs, pid, &long), Err(Errno::ENAMETOOLONG));
    }

    #[test]
    fn relative_paths_use_cwd() {
        let (mut fs, pid) = setup();
        fs.chdir(pid, "/a").unwrap();
        let r = resolve(&mut fs, pid, "b/f").unwrap();
        assert!(r.ino.is_some());
        assert_eq!(r.name, "f");
    }

    #[test]
    fn symlinks_are_followed() {
        let (mut fs, pid) = setup();
        fs.symlink(pid, "/a/b", "/link").unwrap();
        let via_link = resolve(&mut fs, pid, "/link/f").unwrap();
        let direct = resolve(&mut fs, pid, "/a/b/f").unwrap();
        assert_eq!(via_link.ino, direct.ino);
    }

    #[test]
    fn final_symlink_followed_only_when_requested() {
        let (mut fs, pid) = setup();
        fs.symlink(pid, "/a/b/f", "/flink").unwrap();
        let followed = resolve(&mut fs, pid, "/flink").unwrap();
        let direct = resolve(&mut fs, pid, "/a/b/f").unwrap();
        assert_eq!(followed.ino, direct.ino);

        let base = fs.process(pid).cwd;
        let nofollow = fs
            .resolve_at(
                pid,
                base,
                "/flink",
                ResolveOpts {
                    follow_last: false,
                    ..ResolveOpts::default()
                },
            )
            .unwrap();
        assert_ne!(nofollow.ino, direct.ino);
        let ino = nofollow.ino.unwrap();
        assert!(fs.tree.get(ino).is_symlink());
    }

    #[test]
    fn symlink_cycle_is_eloop() {
        let (mut fs, pid) = setup();
        fs.symlink(pid, "/s2", "/s1").unwrap();
        fs.symlink(pid, "/s1", "/s2").unwrap();
        assert_eq!(resolve(&mut fs, pid, "/s1"), Err(Errno::ELOOP));
    }

    #[test]
    fn relative_symlink_resolves_from_its_directory() {
        let (mut fs, pid) = setup();
        fs.symlink(pid, "b/f", "/a/rel").unwrap();
        let via = resolve(&mut fs, pid, "/a/rel").unwrap();
        let direct = resolve(&mut fs, pid, "/a/b/f").unwrap();
        assert_eq!(via.ino, direct.ino);
    }

    #[test]
    fn search_permission_is_enforced() {
        let (mut fs, pid) = setup();
        fs.chmod(pid, "/a", Mode::from_bits(0o600)).unwrap(); // no x
                                                              // Root (the default process) bypasses permission checks.
        assert!(resolve(&mut fs, pid, "/a/b/f").unwrap().ino.is_some());
        // An unprivileged process is denied search permission.
        fs.spawn_process(Pid(99), crate::inode::Uid(1000), crate::inode::Gid(1000));
        assert_eq!(resolve(&mut fs, Pid(99), "/a/b/f"), Err(Errno::EACCES));
    }

    #[test]
    fn resolve_no_symlinks_rejects_any_symlink() {
        let (mut fs, pid) = setup();
        fs.symlink(pid, "/a/b", "/link").unwrap();
        let base = fs.process(pid).cwd;
        let err = fs.resolve_at(
            pid,
            base,
            "/link/f",
            ResolveOpts {
                follow_last: true,
                resolve: ResolveFlags::NO_SYMLINKS,
            },
        );
        assert_eq!(err.unwrap_err(), Errno::ELOOP);
    }

    #[test]
    fn resolve_beneath_rejects_escapes() {
        let (mut fs, pid) = setup();
        let a = resolve(&mut fs, pid, "/a").unwrap().ino.unwrap();
        // ".." escaping the base.
        let err = fs.resolve_at(
            pid,
            a,
            "../a/b",
            ResolveOpts {
                follow_last: true,
                resolve: ResolveFlags::BENEATH,
            },
        );
        assert_eq!(err.unwrap_err(), Errno::EXDEV);
        // Absolute path under BENEATH.
        let err = fs.resolve_at(
            pid,
            a,
            "/a/b",
            ResolveOpts {
                follow_last: true,
                resolve: ResolveFlags::BENEATH,
            },
        );
        assert_eq!(err.unwrap_err(), Errno::EXDEV);
        // Staying beneath is fine.
        let ok = fs.resolve_at(
            pid,
            a,
            "b/f",
            ResolveOpts {
                follow_last: true,
                resolve: ResolveFlags::BENEATH,
            },
        );
        assert!(ok.unwrap().ino.is_some());
    }

    #[test]
    fn resolve_in_root_clamps_dotdot() {
        let (mut fs, pid) = setup();
        let a = resolve(&mut fs, pid, "/a").unwrap().ino.unwrap();
        let r = fs
            .resolve_at(
                pid,
                a,
                "../../b",
                ResolveOpts {
                    follow_last: true,
                    resolve: ResolveFlags::IN_ROOT,
                },
            )
            .unwrap();
        // ".." clamped at /a, so "b" is /a/b.
        let direct = resolve(&mut fs, pid, "/a/b").unwrap();
        assert_eq!(r.ino, direct.ino);
    }

    #[test]
    fn dirfd_base_validation() {
        let (mut fs, pid) = setup();
        assert_eq!(
            fs.base_for_dirfd(pid, AT_FDCWD).unwrap(),
            fs.process(pid).cwd
        );
        assert_eq!(fs.base_for_dirfd(pid, 42), Err(Errno::EBADF));
        let fd = fs
            .open(pid, "/a/b/f", OpenFlags::O_RDONLY, Mode::from_bits(0))
            .unwrap();
        assert_eq!(fs.base_for_dirfd(pid, fd), Err(Errno::ENOTDIR));
        let dirfd = fs
            .open(
                pid,
                "/a",
                OpenFlags::O_RDONLY | OpenFlags::O_DIRECTORY,
                Mode::from_bits(0),
            )
            .unwrap();
        assert!(fs.base_for_dirfd(pid, dirfd).is_ok());
    }
}
