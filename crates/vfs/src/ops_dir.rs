//! Directory and namespace operations.

use crate::errno::{Errno, VfsResult};
use crate::flags::Mode;
use crate::fs::Vfs;
use crate::hooks::OpCtx;
use crate::inode::{Ino, InodeKind, Metadata};
use crate::process::Pid;
use crate::resolve::ResolveOpts;

/// Ext4's practical limit on directory hard links.
const MAX_NLINK: u32 = 65000;

impl Vfs {
    // ------------------------------------------------------------------
    // mkdir family
    // ------------------------------------------------------------------

    /// `mkdir(2)`.
    ///
    /// # Errors
    ///
    /// `EEXIST`, `ENOENT` (missing parent), `ENOTDIR`, `EACCES`,
    /// `EROFS`, `ENOSPC` (inode limit), `EMLINK` (parent link limit),
    /// `ENAMETOOLONG`, `ELOOP`.
    pub fn mkdir(&mut self, pid: Pid, path: &str, mode: Mode) -> VfsResult<()> {
        let base = self.process(pid).cwd;
        self.mkdir_impl(pid, base, path, mode, "mkdir")
    }

    /// `mkdirat(2)`.
    ///
    /// # Errors
    ///
    /// As [`mkdir`](Self::mkdir), plus `EBADF`/`ENOTDIR` for `dirfd`.
    pub fn mkdirat(&mut self, pid: Pid, dirfd: i32, path: &str, mode: Mode) -> VfsResult<()> {
        let base = self.base_for_dirfd(pid, dirfd)?;
        self.mkdir_impl(pid, base, path, mode, "mkdirat")
    }

    fn mkdir_impl(
        &mut self,
        pid: Pid,
        base: Ino,
        path: &str,
        mode: Mode,
        op: &'static str,
    ) -> VfsResult<()> {
        self.cov.fn_hit("vfs::mkdir");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op,
            pid: Some(pid),
            path: Some(path),
            mode: Some(mode.bits()),
            ..OpCtx::default()
        })?;
        let resolved = self.resolve_at(
            pid,
            base,
            path,
            ResolveOpts {
                follow_last: false,
                ..ResolveOpts::default()
            },
        )?;
        if self.cov.branch("vfs::mkdir/eexist", resolved.ino.is_some()) {
            return Err(Errno::EEXIST);
        }
        if self.cov.branch("vfs::mkdir/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        let parent = resolved.parent.expect("missing dir has a parent");
        let parent_inode = self.tree.get(parent);
        if self.cov.branch(
            "vfs::mkdir/eacces",
            !self.access_ok(pid, parent_inode, false, true, true),
        ) {
            return Err(Errno::EACCES);
        }
        if self
            .cov
            .branch("vfs::mkdir/emlink", parent_inode.nlink >= MAX_NLINK)
        {
            return Err(Errno::EMLINK);
        }
        let p = self.process(pid);
        let (euid, egid, umask) = (p.euid, p.egid, p.umask);
        let create_mode = Mode::from_bits(mode.bits() & !umask);
        self.create_inode(
            parent,
            &resolved.name,
            InodeKind::Dir(Default::default()),
            create_mode,
            euid,
            egid,
        )?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // chdir family
    // ------------------------------------------------------------------

    /// `chdir(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `ENOTDIR`, `EACCES` (missing search permission), and
    /// resolution errors.
    pub fn chdir(&mut self, pid: Pid, path: &str) -> VfsResult<()> {
        self.cov.fn_hit("vfs::chdir");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "chdir",
            pid: Some(pid),
            path: Some(path),
            ..OpCtx::default()
        })?;
        let ino = self.resolve_existing(pid, path, true)?;
        let inode = self.tree.get(ino);
        if self.cov.branch("vfs::chdir/enotdir", !inode.is_dir()) {
            return Err(Errno::ENOTDIR);
        }
        if self.cov.branch(
            "vfs::chdir/eacces",
            !self.access_ok(pid, inode, false, false, true),
        ) {
            return Err(Errno::EACCES);
        }
        self.process_mut(pid).cwd = ino;
        Ok(())
    }

    /// `fchdir(2)`.
    ///
    /// # Errors
    ///
    /// `EBADF`, `ENOTDIR`, `EACCES`.
    pub fn fchdir(&mut self, pid: Pid, fd: i32) -> VfsResult<()> {
        self.cov.fn_hit("vfs::chdir");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "fchdir",
            pid: Some(pid),
            ..OpCtx::default()
        })?;
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        let inode = self.tree.inodes.get(&file.ino).ok_or(Errno::EBADF)?;
        if self.cov.branch("vfs::fchdir/enotdir", !inode.is_dir()) {
            return Err(Errno::ENOTDIR);
        }
        if self.cov.branch(
            "vfs::fchdir/eacces",
            !self.access_ok(pid, inode, false, false, true),
        ) {
            return Err(Errno::EACCES);
        }
        self.process_mut(pid).cwd = file.ino;
        Ok(())
    }

    // ------------------------------------------------------------------
    // unlink / rmdir
    // ------------------------------------------------------------------

    /// `unlink(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EISDIR` (target is a directory), `EACCES` (no write
    /// permission on the parent), `EROFS`, `EBUSY` (unlinking a cwd or
    /// the root).
    pub fn unlink(&mut self, pid: Pid, path: &str) -> VfsResult<()> {
        self.cov.fn_hit("vfs::unlink");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "unlink",
            pid: Some(pid),
            path: Some(path),
            ..OpCtx::default()
        })?;
        let base = self.process(pid).cwd;
        let resolved = self.resolve_at(
            pid,
            base,
            path,
            ResolveOpts {
                follow_last: false,
                ..ResolveOpts::default()
            },
        )?;
        let ino = resolved.ino.ok_or(Errno::ENOENT)?;
        let Some(parent) = resolved.parent else {
            return Err(Errno::EBUSY); // unlinking "/"
        };
        if self
            .cov
            .branch("vfs::unlink/eisdir", self.tree.get(ino).is_dir())
        {
            return Err(Errno::EISDIR);
        }
        if self.cov.branch("vfs::unlink/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        let parent_inode = self.tree.get(parent);
        if self.cov.branch(
            "vfs::unlink/eacces",
            !self.access_ok(pid, parent_inode, false, true, true),
        ) {
            return Err(Errno::EACCES);
        }
        self.tree
            .get_mut(parent)
            .entries_mut()
            .remove(&resolved.name);
        let now = self.now();
        self.tree.get_mut(parent).times.mtime = now;
        let inode = self.tree.get_mut(ino);
        inode.nlink = inode.nlink.saturating_sub(1);
        inode.times.ctime = now;
        let drop_now = inode.nlink == 0 && self.open_counts.get(&ino).copied().unwrap_or(0) == 0;
        if drop_now {
            let inode = self.tree.inodes.remove(&ino).expect("live inode");
            if let InodeKind::File(content) = &inode.kind {
                let charged = content.charged_bytes() as i64;
                self.charge(inode.uid, -charged)
                    .expect("release never fails");
            }
        }
        Ok(())
    }

    /// `rmdir(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `ENOTDIR`, `ENOTEMPTY`, `EACCES`, `EROFS`, `EBUSY`
    /// (removing the root or a process cwd), `EINVAL` (path ends in
    /// `.`).
    pub fn rmdir(&mut self, pid: Pid, path: &str) -> VfsResult<()> {
        self.cov.fn_hit("vfs::rmdir");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "rmdir",
            pid: Some(pid),
            path: Some(path),
            ..OpCtx::default()
        })?;
        let base = self.process(pid).cwd;
        let resolved = self.resolve_at(
            pid,
            base,
            path,
            ResolveOpts {
                follow_last: false,
                ..ResolveOpts::default()
            },
        )?;
        if self
            .cov
            .branch("vfs::rmdir/einval_dot", resolved.name == ".")
        {
            return Err(Errno::EINVAL);
        }
        let ino = resolved.ino.ok_or(Errno::ENOENT)?;
        let Some(parent) = resolved.parent else {
            return Err(Errno::EBUSY); // removing "/"
        };
        let inode = self.tree.get(ino);
        if self.cov.branch("vfs::rmdir/enotdir", !inode.is_dir()) {
            return Err(Errno::ENOTDIR);
        }
        if self.cov.branch(
            "vfs::rmdir/enotempty",
            inode.entries().keys().any(|k| k != "." && k != ".."),
        ) {
            return Err(Errno::ENOTEMPTY);
        }
        if self.cov.branch(
            "vfs::rmdir/ebusy_cwd",
            self.processes.values().any(|p| p.cwd == ino),
        ) {
            return Err(Errno::EBUSY);
        }
        if self.cov.branch("vfs::rmdir/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        let parent_inode = self.tree.get(parent);
        if self.cov.branch(
            "vfs::rmdir/eacces",
            !self.access_ok(pid, parent_inode, false, true, true),
        ) {
            return Err(Errno::EACCES);
        }
        self.tree
            .get_mut(parent)
            .entries_mut()
            .remove(&resolved.name);
        let now = self.now();
        let parent_inode = self.tree.get_mut(parent);
        parent_inode.times.mtime = now;
        parent_inode.nlink = parent_inode.nlink.saturating_sub(1); // child's ".."
        if self.open_counts.get(&ino).copied().unwrap_or(0) == 0 {
            self.tree.inodes.remove(&ino);
        } else {
            // POSIX: rmdir of an open directory succeeds; the descriptor
            // keeps an empty, unlinked directory until the last close.
            let dir = self.tree.get_mut(ino);
            dir.nlink = 0;
            dir.entries_mut().clear();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // link / symlink / readlink
    // ------------------------------------------------------------------

    /// `link(2)`: creates a hard link `new_path` to `existing`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EEXIST`, `EPERM` (hard link to a directory),
    /// `EMLINK`, `EACCES`, `EROFS`.
    pub fn link(&mut self, pid: Pid, existing: &str, new_path: &str) -> VfsResult<()> {
        self.cov.fn_hit("vfs::link");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "link",
            pid: Some(pid),
            path: Some(existing),
            ..OpCtx::default()
        })?;
        let src = self.resolve_existing(pid, existing, false)?;
        if self
            .cov
            .branch("vfs::link/eperm_dir", self.tree.get(src).is_dir())
        {
            return Err(Errno::EPERM);
        }
        if self
            .cov
            .branch("vfs::link/emlink", self.tree.get(src).nlink >= MAX_NLINK)
        {
            return Err(Errno::EMLINK);
        }
        let base = self.process(pid).cwd;
        let resolved = self.resolve_at(
            pid,
            base,
            new_path,
            ResolveOpts {
                follow_last: false,
                ..ResolveOpts::default()
            },
        )?;
        if self.cov.branch("vfs::link/eexist", resolved.ino.is_some()) {
            return Err(Errno::EEXIST);
        }
        if self.cov.branch("vfs::link/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        let parent = resolved.parent.expect("missing target has a parent");
        let parent_inode = self.tree.get(parent);
        if self.cov.branch(
            "vfs::link/eacces",
            !self.access_ok(pid, parent_inode, false, true, true),
        ) {
            return Err(Errno::EACCES);
        }
        self.tree
            .get_mut(parent)
            .entries_mut()
            .insert(resolved.name, src);
        let now = self.now();
        self.tree.get_mut(parent).times.mtime = now;
        let inode = self.tree.get_mut(src);
        inode.nlink += 1;
        inode.times.ctime = now;
        Ok(())
    }

    /// `symlink(2)`: creates `link_path` pointing at `target`.
    ///
    /// # Errors
    ///
    /// `EEXIST`, `ENOENT` (missing parent), `EACCES`, `EROFS`,
    /// `ENAMETOOLONG` (target longer than `PATH_MAX`).
    pub fn symlink(&mut self, pid: Pid, target: &str, link_path: &str) -> VfsResult<()> {
        self.cov.fn_hit("vfs::symlink");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "symlink",
            pid: Some(pid),
            path: Some(link_path),
            ..OpCtx::default()
        })?;
        if self.cov.branch(
            "vfs::symlink/enametoolong",
            target.len() > crate::flags::PATH_MAX,
        ) {
            return Err(Errno::ENAMETOOLONG);
        }
        if self
            .cov
            .branch("vfs::symlink/enoent_empty", target.is_empty())
        {
            return Err(Errno::ENOENT);
        }
        let base = self.process(pid).cwd;
        let resolved = self.resolve_at(
            pid,
            base,
            link_path,
            ResolveOpts {
                follow_last: false,
                ..ResolveOpts::default()
            },
        )?;
        if self
            .cov
            .branch("vfs::symlink/eexist", resolved.ino.is_some())
        {
            return Err(Errno::EEXIST);
        }
        if self.cov.branch("vfs::symlink/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        let parent = resolved.parent.expect("missing link has a parent");
        let parent_inode = self.tree.get(parent);
        if self.cov.branch(
            "vfs::symlink/eacces",
            !self.access_ok(pid, parent_inode, false, true, true),
        ) {
            return Err(Errno::EACCES);
        }
        let p = self.process(pid);
        let (euid, egid) = (p.euid, p.egid);
        self.create_inode(
            parent,
            &resolved.name,
            InodeKind::Symlink(target.to_owned()),
            Mode::from_bits(0o777),
            euid,
            egid,
        )?;
        Ok(())
    }

    /// `readlink(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EINVAL` (not a symlink).
    pub fn readlink(&mut self, pid: Pid, path: &str) -> VfsResult<String> {
        self.cov.fn_hit("vfs::readlink");
        self.stats.ops += 1;
        let ino = self.resolve_existing(pid, path, false)?;
        match &self.tree.get(ino).kind {
            InodeKind::Symlink(target) => Ok(target.clone()),
            _ => Err(Errno::EINVAL),
        }
    }

    // ------------------------------------------------------------------
    // rename
    // ------------------------------------------------------------------

    /// `rename(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EACCES`, `EROFS`, `EISDIR` (target is a dir, source is
    /// not), `ENOTDIR` (source is a dir, target is not), `ENOTEMPTY`
    /// (target dir not empty), `EINVAL` (moving a directory into its own
    /// subtree), `EBUSY` (renaming the root or a cwd).
    pub fn rename(&mut self, pid: Pid, old_path: &str, new_path: &str) -> VfsResult<()> {
        self.cov.fn_hit("vfs::rename");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "rename",
            pid: Some(pid),
            path: Some(old_path),
            ..OpCtx::default()
        })?;
        let base = self.process(pid).cwd;
        let nofollow = ResolveOpts {
            follow_last: false,
            ..ResolveOpts::default()
        };
        let src = self.resolve_at(pid, base, old_path, nofollow)?;
        let src_ino = src.ino.ok_or(Errno::ENOENT)?;
        let Some(src_parent) = src.parent else {
            return Err(Errno::EBUSY);
        };
        let dst = self.resolve_at(pid, base, new_path, nofollow)?;
        let Some(dst_parent) = dst.parent else {
            return Err(Errno::EBUSY);
        };
        if self.cov.branch("vfs::rename/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        for parent in [src_parent, dst_parent] {
            let inode = self.tree.get(parent);
            if self.cov.branch(
                "vfs::rename/eacces",
                !self.access_ok(pid, inode, false, true, true),
            ) {
                return Err(Errno::EACCES);
            }
        }
        let src_is_dir = self.tree.get(src_ino).is_dir();
        // A directory cannot move into its own subtree.
        if src_is_dir {
            let mut cursor = dst_parent;
            loop {
                if self
                    .cov
                    .branch("vfs::rename/einval_subtree", cursor == src_ino)
                {
                    return Err(Errno::EINVAL);
                }
                let up = *self
                    .tree
                    .get(cursor)
                    .entries()
                    .get("..")
                    .expect("dirs have ..");
                if up == cursor {
                    break;
                }
                cursor = up;
            }
        }
        if let Some(dst_ino) = dst.ino {
            if dst_ino == src_ino {
                return Ok(()); // renaming onto the same inode is a no-op
            }
            let dst_inode = self.tree.get(dst_ino);
            if self
                .cov
                .branch("vfs::rename/eisdir", dst_inode.is_dir() && !src_is_dir)
            {
                return Err(Errno::EISDIR);
            }
            if self
                .cov
                .branch("vfs::rename/enotdir", !dst_inode.is_dir() && src_is_dir)
            {
                return Err(Errno::ENOTDIR);
            }
            if dst_inode.is_dir() {
                if self.cov.branch(
                    "vfs::rename/enotempty",
                    dst_inode.entries().keys().any(|k| k != "." && k != ".."),
                ) {
                    return Err(Errno::ENOTEMPTY);
                }
                if self.cov.branch(
                    "vfs::rename/ebusy",
                    self.processes.values().any(|p| p.cwd == dst_ino),
                ) {
                    return Err(Errno::EBUSY);
                }
                // Replace the empty directory (kept while descriptors
                // reference it, as in rmdir).
                if self.open_counts.get(&dst_ino).copied().unwrap_or(0) == 0 {
                    self.tree.inodes.remove(&dst_ino);
                } else {
                    let dir = self.tree.get_mut(dst_ino);
                    dir.nlink = 0;
                    dir.entries_mut().clear();
                }
                let parent_inode = self.tree.get_mut(dst_parent);
                parent_inode.nlink = parent_inode.nlink.saturating_sub(1);
            } else {
                // Replace the file, like unlink would.
                let inode = self.tree.get_mut(dst_ino);
                inode.nlink = inode.nlink.saturating_sub(1);
                let drop_now =
                    inode.nlink == 0 && self.open_counts.get(&dst_ino).copied().unwrap_or(0) == 0;
                if drop_now {
                    let inode = self.tree.inodes.remove(&dst_ino).expect("live inode");
                    if let InodeKind::File(content) = &inode.kind {
                        let charged = content.charged_bytes() as i64;
                        self.charge(inode.uid, -charged)
                            .expect("release never fails");
                    }
                }
            }
        }
        // Move the entry.
        self.tree
            .get_mut(src_parent)
            .entries_mut()
            .remove(&src.name);
        self.tree
            .get_mut(dst_parent)
            .entries_mut()
            .insert(dst.name.clone(), src_ino);
        let now = self.now();
        self.tree.get_mut(src_parent).times.mtime = now;
        self.tree.get_mut(dst_parent).times.mtime = now;
        if src_is_dir && src_parent != dst_parent {
            // Fix "..", and the parents' link counts.
            self.tree
                .get_mut(src_ino)
                .entries_mut()
                .insert("..".to_owned(), dst_parent);
            let old_parent = self.tree.get_mut(src_parent);
            old_parent.nlink = old_parent.nlink.saturating_sub(1);
            self.tree.get_mut(dst_parent).nlink += 1;
        }
        Ok(())
    }

    /// `renameat2(2)` flags: `RENAME_NOREPLACE` (fail `EEXIST` if the
    /// target exists) and `RENAME_EXCHANGE` (atomically swap two
    /// entries).
    ///
    /// # Errors
    ///
    /// As [`rename`](Self::rename), plus `EEXIST` under `NOREPLACE`,
    /// `ENOENT` when `EXCHANGE` targets a missing entry, and `EINVAL`
    /// for unknown or conflicting flag bits.
    pub fn rename2(
        &mut self,
        pid: Pid,
        old_path: &str,
        new_path: &str,
        flags: u32,
    ) -> VfsResult<()> {
        const NOREPLACE: u32 = 0x1;
        const EXCHANGE: u32 = 0x2;
        self.cov.fn_hit("vfs::rename");
        self.stats.ops += 1;
        if self.cov.branch(
            "vfs::rename2/einval_flags",
            flags & !(NOREPLACE | EXCHANGE) != 0
                || flags & (NOREPLACE | EXCHANGE) == (NOREPLACE | EXCHANGE),
        ) {
            return Err(Errno::EINVAL);
        }
        let base = self.process(pid).cwd;
        let nofollow = ResolveOpts {
            follow_last: false,
            ..ResolveOpts::default()
        };
        if flags & NOREPLACE != 0 {
            let dst = self.resolve_at(pid, base, new_path, nofollow)?;
            if self.cov.branch("vfs::rename2/eexist", dst.ino.is_some()) {
                return Err(Errno::EEXIST);
            }
            return self.rename(pid, old_path, new_path);
        }
        if flags & EXCHANGE != 0 {
            let src = self.resolve_at(pid, base, old_path, nofollow)?;
            let dst = self.resolve_at(pid, base, new_path, nofollow)?;
            let (src_ino, dst_ino) = (src.ino.ok_or(Errno::ENOENT)?, dst.ino.ok_or(Errno::ENOENT)?);
            let (src_parent, dst_parent) = (
                src.parent.ok_or(Errno::EBUSY)?,
                dst.parent.ok_or(Errno::EBUSY)?,
            );
            if self.cov.branch("vfs::rename2/erofs", self.read_only) {
                return Err(Errno::EROFS);
            }
            for parent in [src_parent, dst_parent] {
                if !self.access_ok(pid, self.tree.get(parent), false, true, true) {
                    return Err(Errno::EACCES);
                }
            }
            // Swap the two directory entries.
            self.tree
                .get_mut(src_parent)
                .entries_mut()
                .insert(src.name.clone(), dst_ino);
            self.tree
                .get_mut(dst_parent)
                .entries_mut()
                .insert(dst.name.clone(), src_ino);
            // Fix ".." and parent link counts for exchanged directories.
            for (ino, new_parent, old_parent) in [
                (src_ino, dst_parent, src_parent),
                (dst_ino, src_parent, dst_parent),
            ] {
                if self.tree.get(ino).is_dir() && new_parent != old_parent {
                    self.tree
                        .get_mut(ino)
                        .entries_mut()
                        .insert("..".to_owned(), new_parent);
                    let old = self.tree.get_mut(old_parent);
                    old.nlink = old.nlink.saturating_sub(1);
                    self.tree.get_mut(new_parent).nlink += 1;
                }
            }
            let now = self.now();
            self.tree.get_mut(src_parent).times.mtime = now;
            self.tree.get_mut(dst_parent).times.mtime = now;
            return Ok(());
        }
        self.rename(pid, old_path, new_path)
    }

    // ------------------------------------------------------------------
    // stat family and directory listing
    // ------------------------------------------------------------------

    /// `stat(2)` (follows symlinks).
    ///
    /// # Errors
    ///
    /// `ENOENT` and resolution errors.
    pub fn stat(&mut self, pid: Pid, path: &str) -> VfsResult<Metadata> {
        self.cov.fn_hit("vfs::stat");
        self.stats.ops += 1;
        let ino = self.resolve_existing(pid, path, true)?;
        Ok(Metadata::of(self.tree.get(ino)))
    }

    /// `lstat(2)` (does not follow a final symlink).
    ///
    /// # Errors
    ///
    /// `ENOENT` and resolution errors.
    pub fn lstat(&mut self, pid: Pid, path: &str) -> VfsResult<Metadata> {
        self.cov.fn_hit("vfs::stat");
        self.stats.ops += 1;
        let ino = self.resolve_existing(pid, path, false)?;
        Ok(Metadata::of(self.tree.get(ino)))
    }

    /// `fstat(2)`.
    ///
    /// # Errors
    ///
    /// `EBADF`.
    pub fn fstat(&mut self, pid: Pid, fd: i32) -> VfsResult<Metadata> {
        self.cov.fn_hit("vfs::stat");
        self.stats.ops += 1;
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        let inode = self.tree.inodes.get(&file.ino).ok_or(Errno::EBADF)?;
        Ok(Metadata::of(inode))
    }

    /// Lists a directory's entry names (excluding `.` and `..`), sorted.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `ENOTDIR`, `EACCES` (missing read permission).
    pub fn readdir(&mut self, pid: Pid, path: &str) -> VfsResult<Vec<String>> {
        self.cov.fn_hit("vfs::readdir");
        self.stats.ops += 1;
        let ino = self.resolve_existing(pid, path, true)?;
        let inode = self.tree.get(ino);
        if !inode.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        if !self.access_ok(pid, inode, true, false, false) {
            return Err(Errno::EACCES);
        }
        Ok(inode
            .entries()
            .keys()
            .filter(|k| *k != "." && *k != "..")
            .cloned()
            .collect())
    }

    // ------------------------------------------------------------------
    // special-file creation (mknod family, used by error-path tests)
    // ------------------------------------------------------------------

    /// `mkfifo(3)`.
    ///
    /// # Errors
    ///
    /// As [`mkdir`](Self::mkdir) (same namespace rules).
    pub fn mkfifo(&mut self, pid: Pid, path: &str, mode: Mode) -> VfsResult<()> {
        self.mknod_impl(pid, path, mode, InodeKind::Fifo)
    }

    /// Creates a character-device node (`mknod(2)` with `S_IFCHR`).
    ///
    /// # Errors
    ///
    /// As [`mkdir`](Self::mkdir).
    pub fn mknod_char(&mut self, pid: Pid, path: &str, mode: Mode, dev: u64) -> VfsResult<()> {
        self.mknod_impl(pid, path, mode, InodeKind::CharDev(dev))
    }

    /// Creates a block-device node (`mknod(2)` with `S_IFBLK`).
    ///
    /// # Errors
    ///
    /// As [`mkdir`](Self::mkdir).
    pub fn mknod_block(&mut self, pid: Pid, path: &str, mode: Mode, dev: u64) -> VfsResult<()> {
        self.mknod_impl(pid, path, mode, InodeKind::BlockDev(dev))
    }

    fn mknod_impl(&mut self, pid: Pid, path: &str, mode: Mode, kind: InodeKind) -> VfsResult<()> {
        self.cov.fn_hit("vfs::mknod");
        self.stats.ops += 1;
        let base = self.process(pid).cwd;
        let resolved = self.resolve_at(
            pid,
            base,
            path,
            ResolveOpts {
                follow_last: false,
                ..ResolveOpts::default()
            },
        )?;
        if resolved.ino.is_some() {
            return Err(Errno::EEXIST);
        }
        if self.read_only {
            return Err(Errno::EROFS);
        }
        let parent = resolved.parent.expect("missing node has a parent");
        if !self.access_ok(pid, self.tree.get(parent), false, true, true) {
            return Err(Errno::EACCES);
        }
        let p = self.process(pid);
        let (euid, egid, umask) = (p.euid, p.egid, p.umask);
        let create_mode = Mode::from_bits(mode.bits() & !umask);
        self.create_inode(parent, &resolved.name, kind, create_mode, euid, egid)?;
        Ok(())
    }
}
