//! Metadata operations: chmod family and extended attributes.

use crate::errno::{Errno, VfsResult};
use crate::flags::{
    Mode, OpenFlags, XattrFlags, AT_SYMLINK_NOFOLLOW, XATTR_NAME_MAX, XATTR_SIZE_MAX,
};
use crate::fs::Vfs;
use crate::hooks::OpCtx;
use crate::inode::Ino;
use crate::process::Pid;
use crate::resolve::ResolveOpts;

/// Ext4 keeps small xattrs in the inode/extra space; one 4 KiB block is
/// the practical per-inode budget our model enforces (the bug in the
/// paper's Figure 1 lives exactly on this `ENOSPC` check).
const XATTR_INODE_BUDGET: usize = 4096;

/// The result of a `getxattr` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XattrValue {
    /// The caller passed `size == 0`: only the value length is reported.
    Size(u64),
    /// The attribute value.
    Data(Vec<u8>),
}

impl XattrValue {
    /// The length the syscall reports (value length in both forms).
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            XattrValue::Size(n) => *n,
            XattrValue::Data(d) => d.len() as u64,
        }
    }

    /// Whether the value is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Vfs {
    // ------------------------------------------------------------------
    // chmod family
    // ------------------------------------------------------------------

    /// `chmod(2)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EPERM` (caller is neither owner nor root), `EROFS`,
    /// and resolution errors.
    pub fn chmod(&mut self, pid: Pid, path: &str, mode: Mode) -> VfsResult<()> {
        self.cov.fn_hit("vfs::chmod");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "chmod",
            pid: Some(pid),
            path: Some(path),
            mode: Some(mode.bits()),
            ..OpCtx::default()
        })?;
        let ino = self.resolve_existing(pid, path, true)?;
        self.chmod_inode(pid, ino, mode)
    }

    /// `fchmod(2)`.
    ///
    /// # Errors
    ///
    /// `EBADF` (unknown or `O_PATH` descriptor), `EPERM`, `EROFS`.
    pub fn fchmod(&mut self, pid: Pid, fd: i32, mode: Mode) -> VfsResult<()> {
        self.cov.fn_hit("vfs::chmod");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "fchmod",
            pid: Some(pid),
            mode: Some(mode.bits()),
            ..OpCtx::default()
        })?;
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        if self.cov.branch(
            "vfs::fchmod/ebadf_path",
            file.flags.contains(OpenFlags::O_PATH),
        ) {
            return Err(Errno::EBADF);
        }
        self.chmod_inode(pid, file.ino, mode)
    }

    /// `fchmodat(2)`.
    ///
    /// # Errors
    ///
    /// As [`chmod`](Self::chmod), plus `EBADF`/`ENOTDIR` for `dirfd`,
    /// `EINVAL` for unknown flag bits, and `EOPNOTSUPP` for
    /// `AT_SYMLINK_NOFOLLOW` (matching Linux, which has never
    /// implemented it).
    pub fn fchmodat(
        &mut self,
        pid: Pid,
        dirfd: i32,
        path: &str,
        mode: Mode,
        at_flags: u32,
    ) -> VfsResult<()> {
        self.cov.fn_hit("vfs::chmod");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "fchmodat",
            pid: Some(pid),
            path: Some(path),
            mode: Some(mode.bits()),
            flags: Some(at_flags),
            ..OpCtx::default()
        })?;
        if self.cov.branch(
            "vfs::fchmodat/einval_flags",
            at_flags & !AT_SYMLINK_NOFOLLOW != 0,
        ) {
            return Err(Errno::EINVAL);
        }
        if self.cov.branch(
            "vfs::fchmodat/eopnotsupp",
            at_flags & AT_SYMLINK_NOFOLLOW != 0,
        ) {
            return Err(Errno::EOPNOTSUPP);
        }
        let base = self.base_for_dirfd(pid, dirfd)?;
        let resolved = self.resolve_at(pid, base, path, ResolveOpts::default())?;
        let ino = resolved.ino.ok_or(Errno::ENOENT)?;
        self.chmod_inode(pid, ino, mode)
    }

    fn chmod_inode(&mut self, pid: Pid, ino: Ino, mode: Mode) -> VfsResult<()> {
        if self.cov.branch("vfs::chmod/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        let p = self.process(pid);
        let (euid, is_root) = (p.euid, p.is_root());
        let inode = self.tree.get(ino);
        if self
            .cov
            .branch("vfs::chmod/eperm", !is_root && euid != inode.uid)
        {
            return Err(Errno::EPERM);
        }
        let now = self.now();
        let inode = self.tree.get_mut(ino);
        inode.mode = mode;
        inode.times.ctime = now;
        Ok(())
    }

    // ------------------------------------------------------------------
    // xattr family
    // ------------------------------------------------------------------

    /// `setxattr(2)` (follows a final symlink).
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EOPNOTSUPP` (unknown namespace), `EPERM` (`trusted.*`
    /// by non-root, or user xattrs on special files), `EACCES` (no write
    /// permission), `EINVAL` (bad flags), `ERANGE` (name too long),
    /// `E2BIG` (value above the kernel cap), `ENOSPC` (per-inode xattr
    /// space exhausted — the Figure 1 bug's error path), `EEXIST`
    /// (`XATTR_CREATE` on an existing name), `ENODATA`
    /// (`XATTR_REPLACE` on a missing name), `EROFS`.
    pub fn setxattr(
        &mut self,
        pid: Pid,
        path: &str,
        name: &str,
        value: &[u8],
        flags: XattrFlags,
    ) -> VfsResult<()> {
        let ino = self.setxattr_resolve(pid, path, true, "setxattr", name, value, flags)?;
        self.setxattr_inode(pid, ino, name, value, flags, true)
    }

    /// `lsetxattr(2)` (operates on a final symlink itself).
    ///
    /// # Errors
    ///
    /// As [`setxattr`](Self::setxattr); `user.*` attributes on symlinks
    /// fail `EPERM`.
    pub fn lsetxattr(
        &mut self,
        pid: Pid,
        path: &str,
        name: &str,
        value: &[u8],
        flags: XattrFlags,
    ) -> VfsResult<()> {
        let ino = self.setxattr_resolve(pid, path, false, "lsetxattr", name, value, flags)?;
        self.setxattr_inode(pid, ino, name, value, flags, true)
    }

    /// `fsetxattr(2)`.
    ///
    /// # Errors
    ///
    /// As [`setxattr`](Self::setxattr), plus `EBADF`.
    pub fn fsetxattr(
        &mut self,
        pid: Pid,
        fd: i32,
        name: &str,
        value: &[u8],
        flags: XattrFlags,
    ) -> VfsResult<()> {
        self.cov.fn_hit("vfs::setxattr");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "fsetxattr",
            pid: Some(pid),
            size: Some(value.len() as u64),
            flags: Some(flags.bits()),
            ..OpCtx::default()
        })?;
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        self.setxattr_inode(pid, file.ino, name, value, flags, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn setxattr_resolve(
        &mut self,
        pid: Pid,
        path: &str,
        follow: bool,
        op: &'static str,
        name: &str,
        value: &[u8],
        flags: XattrFlags,
    ) -> VfsResult<Ino> {
        self.cov.fn_hit("vfs::setxattr");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op,
            pid: Some(pid),
            path: Some(path),
            size: Some(value.len() as u64),
            flags: Some(flags.bits()),
            ..OpCtx::default()
        })?;
        let _ = name;
        self.resolve_existing(pid, path, follow)
    }

    fn setxattr_inode(
        &mut self,
        pid: Pid,
        ino: Ino,
        name: &str,
        value: &[u8],
        flags: XattrFlags,
        check_perm: bool,
    ) -> VfsResult<()> {
        if self
            .cov
            .branch("vfs::setxattr/einval_flags", flags.has_unknown_bits())
        {
            return Err(Errno::EINVAL);
        }
        if self.cov.branch(
            "vfs::setxattr/einval_both",
            flags.contains(XattrFlags::CREATE) && flags.contains(XattrFlags::REPLACE),
        ) {
            return Err(Errno::EINVAL);
        }
        if self
            .cov
            .branch("vfs::setxattr/erange_name", name.len() > XATTR_NAME_MAX)
        {
            return Err(Errno::ERANGE);
        }
        if self
            .cov
            .branch("vfs::setxattr/e2big", value.len() > XATTR_SIZE_MAX)
        {
            return Err(Errno::E2BIG);
        }
        if self.cov.branch("vfs::setxattr/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        let namespace_ok = ["user.", "trusted.", "security.", "system."]
            .iter()
            .any(|p| name.starts_with(p));
        if self.cov.branch("vfs::setxattr/eopnotsupp", !namespace_ok) {
            return Err(Errno::EOPNOTSUPP);
        }
        let p = self.process(pid);
        let is_root = p.is_root();
        if self.cov.branch(
            "vfs::setxattr/eperm_trusted",
            name.starts_with("trusted.") && !is_root,
        ) {
            return Err(Errno::EPERM);
        }
        let inode = self.tree.get(ino);
        if self.cov.branch(
            "vfs::setxattr/eperm_special",
            name.starts_with("user.") && !inode.is_file() && !inode.is_dir(),
        ) {
            return Err(Errno::EPERM);
        }
        if check_perm
            && self.cov.branch(
                "vfs::setxattr/eacces",
                name.starts_with("user.") && !self.access_ok(pid, inode, false, true, false),
            )
        {
            return Err(Errno::EACCES);
        }
        let exists = inode.xattrs.contains_key(name);
        if self.cov.branch(
            "vfs::setxattr/eexist",
            exists && flags.contains(XattrFlags::CREATE),
        ) {
            return Err(Errno::EEXIST);
        }
        if self.cov.branch(
            "vfs::setxattr/enodata",
            !exists && flags.contains(XattrFlags::REPLACE),
        ) {
            return Err(Errno::ENODATA);
        }
        // Per-inode xattr space (Figure 1's ENOSPC check).
        let current: usize = inode
            .xattrs
            .iter()
            .filter(|(k, _)| k.as_str() != name)
            .map(|(k, v)| k.len() + v.len())
            .sum();
        if self.cov.branch(
            "vfs::setxattr/enospc",
            current + name.len() + value.len() > XATTR_INODE_BUDGET,
        ) {
            return Err(Errno::ENOSPC);
        }
        let now = self.now();
        let inode = self.tree.get_mut(ino);
        inode.xattrs.insert(name.to_owned(), value.to_vec());
        inode.times.ctime = now;
        Ok(())
    }

    /// `getxattr(2)` (follows a final symlink).
    ///
    /// With `size == 0` the call reports only the value length
    /// ([`XattrValue::Size`]); with `0 < size < len` it fails `ERANGE`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `ENODATA` (no such attribute), `ERANGE` (buffer too
    /// small), `EOPNOTSUPP`, and resolution errors.
    pub fn getxattr(
        &mut self,
        pid: Pid,
        path: &str,
        name: &str,
        size: u64,
    ) -> VfsResult<XattrValue> {
        self.cov.fn_hit("vfs::getxattr");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "getxattr",
            pid: Some(pid),
            path: Some(path),
            size: Some(size),
            ..OpCtx::default()
        })?;
        let ino = self.resolve_existing(pid, path, true)?;
        self.getxattr_inode(ino, name, size)
    }

    /// `lgetxattr(2)` (reads attributes of a final symlink itself).
    ///
    /// # Errors
    ///
    /// As [`getxattr`](Self::getxattr).
    pub fn lgetxattr(
        &mut self,
        pid: Pid,
        path: &str,
        name: &str,
        size: u64,
    ) -> VfsResult<XattrValue> {
        self.cov.fn_hit("vfs::getxattr");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "lgetxattr",
            pid: Some(pid),
            path: Some(path),
            size: Some(size),
            ..OpCtx::default()
        })?;
        let ino = self.resolve_existing(pid, path, false)?;
        self.getxattr_inode(ino, name, size)
    }

    /// `fgetxattr(2)`.
    ///
    /// # Errors
    ///
    /// As [`getxattr`](Self::getxattr), plus `EBADF`.
    pub fn fgetxattr(&mut self, pid: Pid, fd: i32, name: &str, size: u64) -> VfsResult<XattrValue> {
        self.cov.fn_hit("vfs::getxattr");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "fgetxattr",
            pid: Some(pid),
            size: Some(size),
            ..OpCtx::default()
        })?;
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        self.getxattr_inode(file.ino, name, size)
    }

    fn getxattr_inode(&mut self, ino: Ino, name: &str, size: u64) -> VfsResult<XattrValue> {
        let namespace_ok = ["user.", "trusted.", "security.", "system."]
            .iter()
            .any(|p| name.starts_with(p));
        if self.cov.branch("vfs::getxattr/eopnotsupp", !namespace_ok) {
            return Err(Errno::EOPNOTSUPP);
        }
        let inode = self.tree.get(ino);
        let value = inode.xattrs.get(name).ok_or(Errno::ENODATA)?;
        if self.cov.branch("vfs::getxattr/size_probe", size == 0) {
            return Ok(XattrValue::Size(value.len() as u64));
        }
        if self
            .cov
            .branch("vfs::getxattr/erange", (value.len() as u64) > size)
        {
            return Err(Errno::ERANGE);
        }
        Ok(XattrValue::Data(value.clone()))
    }

    /// `listxattr(2)`-style listing of attribute names (sorted).
    ///
    /// # Errors
    ///
    /// `ENOENT` and resolution errors.
    pub fn listxattr(&mut self, pid: Pid, path: &str) -> VfsResult<Vec<String>> {
        self.cov.fn_hit("vfs::getxattr");
        self.stats.ops += 1;
        let ino = self.resolve_existing(pid, path, true)?;
        Ok(self.tree.get(ino).xattrs.keys().cloned().collect())
    }

    /// Switches a process in or out of 32-bit compat mode (affects
    /// `EOVERFLOW` on open).
    pub fn set_compat_32bit(&mut self, pid: Pid, compat: bool) {
        self.process_mut(pid).compat_32bit = compat;
    }

    /// Sets a process's umask, returning the previous value.
    pub fn set_umask(&mut self, pid: Pid, umask: u32) -> u32 {
        let p = self.process_mut(pid);
        std::mem::replace(&mut p.umask, umask & 0o777)
    }
}
