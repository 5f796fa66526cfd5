//! File operations: open family, read/write, lseek, truncate, fsync.

use crate::errno::{Errno, VfsResult};
use crate::extent::ExtentStore;
use crate::flags::{Mode, OpenFlags, ResolveFlags, Whence};
use crate::fs::Vfs;
use crate::hooks::{FaultAction, OpCtx};
use crate::inode::{Ino, InodeKind};
use crate::process::{OpenFile, Pid};
use crate::resolve::ResolveOpts;

/// The data source of a write: literal bytes, or a constant-fill run that
/// never materializes a buffer (used for the multi-hundred-MiB writes the
/// paper observes in Figure 3).
#[derive(Debug, Clone, Copy)]
pub enum WriteSource<'a> {
    /// Write these bytes.
    Bytes(&'a [u8]),
    /// Write `len` copies of `byte`.
    Fill {
        /// The fill byte.
        byte: u8,
        /// Number of bytes to write.
        len: u64,
    },
}

impl WriteSource<'_> {
    /// The number of bytes this source yields.
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            WriteSource::Bytes(b) => b.len() as u64,
            WriteSource::Fill { len, .. } => *len,
        }
    }

    /// Whether the source is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where the read family puts the bytes it reads. Only a caller that
/// asked for the bytes gets them copied; the rest only count them.
enum ReadOut<'a> {
    /// Count only: nothing is copied.
    Count,
    /// The front of a caller's buffer, whose length is the read count.
    Slice(&'a mut [u8]),
    /// A vector sized to the bytes read.
    Vec(&'a mut Vec<u8>),
}

impl ReadOut<'_> {
    /// Reads up to `count` bytes of `content` at `pos`; returns the count.
    fn file(&mut self, content: &ExtentStore, pos: u64, count: u64) -> u64 {
        match self {
            ReadOut::Count => content.read_len(pos, count),
            ReadOut::Slice(buf) => content.read_into(pos, buf) as u64,
            ReadOut::Vec(data) => {
                **data = content.read(pos, count);
                data.len() as u64
            }
        }
    }

    /// Reads `n` zero bytes; returns `n`.
    fn zeros(&mut self, n: u64) -> u64 {
        match self {
            ReadOut::Count => {}
            ReadOut::Slice(buf) => buf[..n as usize].fill(0),
            ReadOut::Vec(data) => **data = vec![0; n as usize],
        }
        n
    }

    /// Flips the first byte read (the `CorruptData` fault).
    fn corrupt_first(&mut self) {
        let first = match self {
            ReadOut::Count => None,
            ReadOut::Slice(buf) => buf.first_mut(),
            ReadOut::Vec(data) => data.first_mut(),
        };
        if let Some(first) = first {
            *first ^= 0xff;
        }
    }
}

/// Largest chunk materialized when reading from character devices.
const DEV_READ_CAP: u64 = 1 << 20;

/// 2 GiB − 1: the largest file a 32-bit process may open without
/// `O_LARGEFILE`.
const MAX_NON_LARGEFILE: u64 = (1 << 31) - 1;

impl Vfs {
    // ------------------------------------------------------------------
    // open family
    // ------------------------------------------------------------------

    /// `open(2)`: opens (and possibly creates) a file.
    ///
    /// # Errors
    ///
    /// All the errnos of the Linux manual page are modelled, including
    /// `EEXIST`, `EISDIR`, `ELOOP`, `EMFILE`, `ENFILE`, `ENOENT`,
    /// `ENOSPC`, `EROFS`, `ETXTBSY`, `EOVERFLOW`, `ENXIO`, `ENODEV`,
    /// `EBUSY`, `EPERM`, and `EACCES`.
    pub fn open(&mut self, pid: Pid, path: &str, flags: OpenFlags, mode: Mode) -> VfsResult<i32> {
        let base = self.process(pid).cwd;
        self.open_impl(
            pid,
            base,
            path,
            flags,
            mode,
            ResolveFlags::default(),
            "open",
        )
    }

    /// `openat(2)`: like [`open`](Self::open) relative to `dirfd`.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open), plus `EBADF`/`ENOTDIR` for a bad `dirfd`.
    pub fn openat(
        &mut self,
        pid: Pid,
        dirfd: i32,
        path: &str,
        flags: OpenFlags,
        mode: Mode,
    ) -> VfsResult<i32> {
        let base = self.base_for_dirfd(pid, dirfd)?;
        self.open_impl(
            pid,
            base,
            path,
            flags,
            mode,
            ResolveFlags::default(),
            "openat",
        )
    }

    /// `creat(2)`: equivalent to `open` with
    /// `O_CREAT | O_WRONLY | O_TRUNC`.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn creat(&mut self, pid: Pid, path: &str, mode: Mode) -> VfsResult<i32> {
        let flags = OpenFlags::O_CREAT | OpenFlags::O_WRONLY | OpenFlags::O_TRUNC;
        let base = self.process(pid).cwd;
        self.open_impl(
            pid,
            base,
            path,
            flags,
            mode,
            ResolveFlags::default(),
            "creat",
        )
    }

    /// `openat2(2)`: `openat` with `RESOLVE_*` restrictions.
    ///
    /// # Errors
    ///
    /// As [`openat`](Self::openat), plus `EINVAL` for unknown resolve
    /// bits and `EXDEV`/`ELOOP` for violated restrictions.
    pub fn openat2(
        &mut self,
        pid: Pid,
        dirfd: i32,
        path: &str,
        flags: OpenFlags,
        mode: Mode,
        resolve: ResolveFlags,
    ) -> VfsResult<i32> {
        if self
            .cov
            .branch("vfs::openat2/bad_resolve", resolve.has_unknown_bits())
        {
            return Err(Errno::EINVAL);
        }
        let base = self.base_for_dirfd(pid, dirfd)?;
        self.open_impl(pid, base, path, flags, mode, resolve, "openat2")
    }

    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn open_impl(
        &mut self,
        pid: Pid,
        base: Ino,
        path: &str,
        flags: OpenFlags,
        mode: Mode,
        resolve: ResolveFlags,
        op: &'static str,
    ) -> VfsResult<i32> {
        self.cov.fn_hit("vfs::open");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op,
            pid: Some(pid),
            path: Some(path),
            flags: Some(flags.bits()),
            mode: Some(mode.bits()),
            ..OpCtx::default()
        })?;

        if self
            .cov
            .branch("vfs::open/einval_accmode", flags.invalid_access_mode())
        {
            return Err(Errno::EINVAL);
        }
        let tmpfile = flags.contains(OpenFlags::O_TMPFILE);
        if self
            .cov
            .branch("vfs::open/einval_tmpfile", tmpfile && !flags.writable())
        {
            return Err(Errno::EINVAL);
        }

        // Descriptor limits are checked up front: no side effects if they
        // are exhausted.
        if self.cov.branch(
            "vfs::open/emfile",
            self.process(pid).open_count() >= self.config.max_fds_per_process,
        ) {
            return Err(Errno::EMFILE);
        }
        if self.cov.branch(
            "vfs::open/enfile",
            self.global_open_files >= self.config.max_open_files,
        ) {
            return Err(Errno::ENFILE);
        }

        let follow_last = !flags.contains(OpenFlags::O_NOFOLLOW);
        let resolved = self.resolve_at(
            pid,
            base,
            path,
            ResolveOpts {
                follow_last,
                resolve,
            },
        )?;

        let ino: Ino = match resolved.ino {
            Some(ino) => {
                if self.cov.branch(
                    "vfs::open/eexist",
                    flags.contains(OpenFlags::O_CREAT) && flags.contains(OpenFlags::O_EXCL),
                ) {
                    return Err(Errno::EEXIST);
                }
                self.open_existing(pid, ino, flags, tmpfile)?
            }
            None => {
                if self
                    .cov
                    .branch("vfs::open/enoent", !flags.contains(OpenFlags::O_CREAT))
                {
                    return Err(Errno::ENOENT);
                }
                if self
                    .cov
                    .branch("vfs::open/eisdir_slash", resolved.require_dir)
                {
                    return Err(Errno::EISDIR);
                }
                if self.cov.branch("vfs::open/erofs_create", self.read_only) {
                    return Err(Errno::EROFS);
                }
                let parent = resolved.parent.expect("missing file has a parent");
                let parent_inode = self.tree.get(parent);
                if self.cov.branch(
                    "vfs::open/eacces_parent",
                    !self.access_ok(pid, parent_inode, false, true, true),
                ) {
                    return Err(Errno::EACCES);
                }
                let p = self.process(pid);
                let (euid, egid, umask) = (p.euid, p.egid, p.umask);
                let create_mode = Mode::from_bits(mode.bits() & !umask);
                self.create_inode(
                    parent,
                    &resolved.name,
                    InodeKind::File(Default::default()),
                    create_mode,
                    euid,
                    egid,
                )?
            }
        };

        // Allocate the descriptor.
        let open_file = OpenFile {
            ino,
            offset: 0,
            flags,
            path: path.to_owned(),
        };
        let fd = self.process_mut(pid).alloc_fd(open_file);
        self.global_open_files += 1;
        *self.open_counts.entry(ino).or_insert(0) += 1;
        if flags.readable() && matches!(self.tree.get(ino).kind, InodeKind::Fifo) {
            *self.fifo_readers.entry(ino).or_insert(0) += 1;
        }
        let now = self.now();
        if !flags.contains(OpenFlags::O_NOATIME) {
            self.tree.get_mut(ino).times.atime = now;
        }
        Ok(fd)
    }

    /// Validates opening an existing inode; returns the inode to attach
    /// the descriptor to (a fresh anonymous inode for `O_TMPFILE`).
    fn open_existing(
        &mut self,
        pid: Pid,
        ino: Ino,
        flags: OpenFlags,
        tmpfile: bool,
    ) -> VfsResult<Ino> {
        let path_fd = flags.contains(OpenFlags::O_PATH);
        let wants_write = flags.writable() || flags.contains(OpenFlags::O_TRUNC);
        let inode = self.tree.get(ino);

        if self
            .cov
            .branch("vfs::open/eloop_nofollow", inode.is_symlink() && !path_fd)
        {
            // Only reachable with O_NOFOLLOW (otherwise resolution
            // followed the link).
            return Err(Errno::ELOOP);
        }
        if self.cov.branch(
            "vfs::open/enotdir_directory",
            flags.contains(OpenFlags::O_DIRECTORY) && !tmpfile && !inode.is_dir(),
        ) {
            return Err(Errno::ENOTDIR);
        }

        if tmpfile {
            // O_TMPFILE: `ino` must be a directory; create an anonymous
            // file owned by the caller, never linked into any directory.
            if !inode.is_dir() {
                return Err(Errno::ENOTDIR);
            }
            if self.cov.branch("vfs::open/erofs_tmpfile", self.read_only) {
                return Err(Errno::EROFS);
            }
            if self.cov.branch(
                "vfs::open/eacces_tmpfile",
                !self.access_ok(pid, inode, false, true, true),
            ) {
                return Err(Errno::EACCES);
            }
            if self.tree.inodes.len() as u64 >= self.config.max_inodes {
                return Err(Errno::ENOSPC);
            }
            let p = self.process(pid);
            let (euid, egid, umask) = (p.euid, p.egid, p.umask);
            let anon = self.tree.alloc_ino();
            let mut anon_inode = crate::inode::Inode::new(
                anon,
                InodeKind::File(Default::default()),
                Mode::from_bits(0o600 & !umask),
                euid,
                egid,
            );
            anon_inode.nlink = 0; // unnamed: vanishes on close
            self.tree.inodes.insert(anon, anon_inode);
            return Ok(anon);
        }

        if inode.is_dir()
            && self.cov.branch(
                "vfs::open/eisdir",
                wants_write || flags.contains(OpenFlags::O_CREAT),
            )
        {
            return Err(Errno::EISDIR);
        }
        if self
            .cov
            .branch("vfs::open/erofs", self.read_only && wants_write && !path_fd)
        {
            return Err(Errno::EROFS);
        }
        if path_fd {
            // O_PATH descriptors skip access checks on the target.
            return Ok(ino);
        }

        // Regular permission checks.
        let need_read = flags.readable();
        let need_write = flags.writable();
        if self.cov.branch(
            "vfs::open/eacces",
            !self.access_ok(pid, inode, need_read, need_write, false),
        ) {
            return Err(Errno::EACCES);
        }
        if self.cov.branch(
            "vfs::open/eacces_trunc",
            flags.contains(OpenFlags::O_TRUNC)
                && !need_write
                && !self.access_ok(pid, inode, false, true, false),
        ) {
            return Err(Errno::EACCES);
        }
        if self.cov.branch(
            "vfs::open/eperm_noatime",
            flags.contains(OpenFlags::O_NOATIME)
                && !self.process(pid).is_root()
                && self.process(pid).euid != inode.uid,
        ) {
            return Err(Errno::EPERM);
        }

        match &inode.kind {
            InodeKind::File(content) => {
                if self
                    .cov
                    .branch("vfs::open/etxtbsy", inode.executing && wants_write)
                {
                    return Err(Errno::ETXTBSY);
                }
                if self.cov.branch(
                    "vfs::open/eoverflow",
                    self.process(pid).compat_32bit
                        && content.len() > MAX_NON_LARGEFILE
                        && !flags.contains(OpenFlags::O_LARGEFILE),
                ) {
                    return Err(Errno::EOVERFLOW);
                }
                if flags.contains(OpenFlags::O_TRUNC) && !self.read_only {
                    let old = self.tree.get(ino).content().charged_bytes() as i64;
                    let uid = self.tree.get(ino).uid;
                    self.tree.get_mut(ino).content_mut().truncate(0);
                    self.charge(uid, -old).expect("release never fails");
                    let now = self.now();
                    let inode = self.tree.get_mut(ino);
                    inode.times.mtime = now;
                    inode.times.ctime = now;
                }
            }
            InodeKind::Fifo => {
                let readers = self.fifo_readers.get(&ino).copied().unwrap_or(0);
                if self.cov.branch(
                    "vfs::open/enxio_fifo",
                    flags.contains(OpenFlags::O_NONBLOCK)
                        && flags.writable()
                        && !flags.readable()
                        && readers == 0,
                ) {
                    return Err(Errno::ENXIO);
                }
            }
            InodeKind::CharDev(dev) => {
                if self
                    .cov
                    .branch("vfs::open/enxio_chardev", !self.devices.contains(dev))
                {
                    return Err(Errno::ENXIO);
                }
            }
            InodeKind::BlockDev(dev) => {
                if self
                    .cov
                    .branch("vfs::open/enodev", !self.devices.contains(dev))
                {
                    return Err(Errno::ENODEV);
                }
                if self.cov.branch(
                    "vfs::open/ebusy",
                    self.busy_devices.contains(&ino) && wants_write,
                ) {
                    return Err(Errno::EBUSY);
                }
            }
            InodeKind::Dir(_) | InodeKind::Symlink(_) => {}
        }
        Ok(ino)
    }

    // ------------------------------------------------------------------
    // close
    // ------------------------------------------------------------------

    /// `close(2)`.
    ///
    /// # Errors
    ///
    /// `EBADF` for an unknown descriptor; injected faults may yield
    /// `EINTR`/`EIO` (the descriptor stays open in that case, which is
    /// one of the historically ambiguous close behaviours).
    pub fn close(&mut self, pid: Pid, fd: i32) -> VfsResult<()> {
        self.cov.fn_hit("vfs::close");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "close",
            pid: Some(pid),
            ..OpCtx::default()
        })?;
        let file = self.process_mut(pid).remove_fd(fd).ok_or(Errno::EBADF)?;
        self.global_open_files = self.global_open_files.saturating_sub(1);
        if file.flags.readable() {
            if let Some(n) = self.fifo_readers.get_mut(&file.ino) {
                *n = n.saturating_sub(1);
            }
        }
        let remaining = {
            let n = self.open_counts.entry(file.ino).or_insert(1);
            *n = n.saturating_sub(1);
            *n
        };
        if remaining == 0 {
            self.open_counts.remove(&file.ino);
            // Unlinked files and rmdir-ed directories vanish at the last
            // close.
            let drop_now = self
                .tree
                .inodes
                .get(&file.ino)
                .is_some_and(|i| i.nlink == 0);
            if drop_now {
                let inode = self.tree.inodes.remove(&file.ino).expect("checked above");
                if let InodeKind::File(content) = &inode.kind {
                    let charged = content.charged_bytes() as i64;
                    self.charge(inode.uid, -charged)
                        .expect("release never fails");
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // read family
    // ------------------------------------------------------------------

    /// `read(2)`: reads up to `count` bytes at the descriptor offset.
    ///
    /// # Errors
    ///
    /// `EBADF` (unknown, write-only, or `O_PATH` descriptor), `EISDIR`
    /// (directory), `EAGAIN` (non-blocking empty FIFO), plus injected
    /// faults (`EINTR`, `EIO`).
    pub fn read(&mut self, pid: Pid, fd: i32, count: u64) -> VfsResult<Vec<u8>> {
        let mut data = Vec::new();
        self.read_impl(pid, fd, count, None, "read", ReadOut::Vec(&mut data))?;
        Ok(data)
    }

    /// `read(2)` into `buf`: reads up to `buf.len()` bytes at the
    /// descriptor offset into the front of `buf` and returns the count.
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read).
    pub fn read_into(&mut self, pid: Pid, fd: i32, buf: &mut [u8]) -> VfsResult<u64> {
        let count = buf.len() as u64;
        self.read_impl(pid, fd, count, None, "read", ReadOut::Slice(buf))
    }

    /// `read(2)` that copies nothing: the byte count [`read`](Self::read)
    /// would return, with the same side effects (offset, atime,
    /// statistics, fault hooks).
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read).
    pub fn read_count(&mut self, pid: Pid, fd: i32, count: u64) -> VfsResult<u64> {
        self.read_impl(pid, fd, count, None, "read", ReadOut::Count)
    }

    /// `pread64(2)`: reads at an explicit offset without moving the
    /// descriptor offset.
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read), plus `EINVAL` for a negative offset and
    /// `ESPIPE` on FIFOs.
    pub fn pread(&mut self, pid: Pid, fd: i32, count: u64, offset: i64) -> VfsResult<Vec<u8>> {
        let mut data = Vec::new();
        self.pread_impl(pid, fd, count, offset, ReadOut::Vec(&mut data))?;
        Ok(data)
    }

    /// [`pread`](Self::pread) that copies nothing and returns the count.
    ///
    /// # Errors
    ///
    /// As [`pread`](Self::pread).
    pub fn pread_count(&mut self, pid: Pid, fd: i32, count: u64, offset: i64) -> VfsResult<u64> {
        self.pread_impl(pid, fd, count, offset, ReadOut::Count)
    }

    fn pread_impl(
        &mut self,
        pid: Pid,
        fd: i32,
        count: u64,
        offset: i64,
        out: ReadOut<'_>,
    ) -> VfsResult<u64> {
        if self.cov.branch("vfs::read/einval_offset", offset < 0) {
            return Err(Errno::EINVAL);
        }
        self.read_impl(pid, fd, count, Some(offset as u64), "pread64", out)
    }

    /// `readv(2)`: reads into `iov_lens.len()` buffers, returning the
    /// concatenated data (total length = sum of the lengths).
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read), plus `EINVAL` when `iov_lens` exceeds
    /// `IOV_MAX` (1024) or its sum overflows an `ssize_t`.
    pub fn readv(&mut self, pid: Pid, fd: i32, iov_lens: &[u64]) -> VfsResult<Vec<u8>> {
        let mut data = Vec::new();
        self.readv_impl(pid, fd, iov_lens, ReadOut::Vec(&mut data))?;
        Ok(data)
    }

    /// [`readv`](Self::readv) that copies nothing and returns the count.
    ///
    /// # Errors
    ///
    /// As [`readv`](Self::readv).
    pub fn readv_count(&mut self, pid: Pid, fd: i32, iov_lens: &[u64]) -> VfsResult<u64> {
        self.readv_impl(pid, fd, iov_lens, ReadOut::Count)
    }

    fn readv_impl(
        &mut self,
        pid: Pid,
        fd: i32,
        iov_lens: &[u64],
        out: ReadOut<'_>,
    ) -> VfsResult<u64> {
        let total = iov_lens
            .iter()
            .try_fold(0u64, |sum, &len| sum.checked_add(len))
            .filter(|&sum| sum <= isize::MAX as u64);
        if self.cov.branch(
            "vfs::read/einval_iov",
            iov_lens.len() > 1024 || total.is_none(),
        ) {
            return Err(Errno::EINVAL);
        }
        self.read_impl(pid, fd, total.unwrap_or(0), None, "readv", out)
    }

    fn read_impl(
        &mut self,
        pid: Pid,
        fd: i32,
        count: u64,
        offset: Option<u64>,
        op: &'static str,
        mut out: ReadOut<'_>,
    ) -> VfsResult<u64> {
        self.cov.fn_hit("vfs::read");
        self.stats.ops += 1;
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        let (ino, fd_offset, flags) = (file.ino, file.offset, file.flags);
        let action = self.fault_errno(&OpCtx {
            op,
            pid: Some(pid),
            path: Some(&file.path),
            ino: Some(ino),
            size: Some(count),
            offset: offset.map(|o| o as i64),
            ..OpCtx::default()
        })?;
        if self.cov.branch(
            "vfs::read/ebadf_mode",
            !flags.readable() || flags.contains(OpenFlags::O_PATH),
        ) {
            return Err(Errno::EBADF);
        }
        let kind_is = {
            let inode = self.tree.inodes.get(&ino).ok_or(Errno::EBADF)?;
            match &inode.kind {
                InodeKind::Dir(_) => 0,
                InodeKind::File(_) => 1,
                InodeKind::Fifo => 2,
                _ => 3,
            }
        };
        if self.cov.branch("vfs::read/eisdir", kind_is == 0) {
            return Err(Errno::EISDIR);
        }
        let n = match kind_is {
            1 => {
                let pos = offset.unwrap_or(fd_offset);
                out.file(self.tree.get(ino).content(), pos, count)
            }
            2 => {
                // FIFO with no buffered data: non-blocking read fails
                // EAGAIN, blocking read sees EOF (writer model elided).
                if offset.is_some() {
                    return Err(Errno::ESPIPE);
                }
                if self.cov.branch(
                    "vfs::read/eagain_fifo",
                    flags.contains(OpenFlags::O_NONBLOCK),
                ) {
                    return Err(Errno::EAGAIN);
                }
                0
            }
            // Character/block devices read as zero-fill (bounded).
            _ => out.zeros(count.min(DEV_READ_CAP)),
        };
        if offset.is_none() {
            if let Some(f) = self.process_mut(pid).fd_mut(fd) {
                f.offset = f.offset.saturating_add(n);
            }
        }
        if !flags.contains(OpenFlags::O_NOATIME) {
            let now = self.now();
            self.tree.get_mut(ino).times.atime = now;
        }
        self.stats.bytes_read += n;
        if action == Some(FaultAction::CorruptData) {
            out.corrupt_first();
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // write family
    // ------------------------------------------------------------------

    /// `write(2)` with a byte buffer.
    ///
    /// # Errors
    ///
    /// `EBADF` (unknown/read-only/`O_PATH` descriptor), `EROFS` (fs
    /// remounted read-only), `EFBIG`, `ENOSPC`, `EDQUOT`, plus injected
    /// faults.
    pub fn write(&mut self, pid: Pid, fd: i32, data: &[u8]) -> VfsResult<u64> {
        self.write_impl(pid, fd, WriteSource::Bytes(data), None, "write")
    }

    /// `write(2)` from an arbitrary [`WriteSource`].
    ///
    /// # Errors
    ///
    /// As [`write`](Self::write).
    pub fn write_src(&mut self, pid: Pid, fd: i32, src: WriteSource<'_>) -> VfsResult<u64> {
        self.write_impl(pid, fd, src, None, "write")
    }

    /// `pwrite64(2)`: writes at an explicit offset.
    ///
    /// # Errors
    ///
    /// As [`write`](Self::write), plus `EINVAL` for a negative offset
    /// and `ESPIPE` on FIFOs.
    pub fn pwrite(
        &mut self,
        pid: Pid,
        fd: i32,
        src: WriteSource<'_>,
        offset: i64,
    ) -> VfsResult<u64> {
        if self.cov.branch("vfs::write/einval_offset", offset < 0) {
            return Err(Errno::EINVAL);
        }
        self.write_impl(pid, fd, src, Some(offset as u64), "pwrite64")
    }

    /// `writev(2)`: gathers multiple buffers.
    ///
    /// # Errors
    ///
    /// As [`write`](Self::write), plus `EINVAL` when more than `IOV_MAX`
    /// (1024) buffers are supplied.
    pub fn writev(&mut self, pid: Pid, fd: i32, iovs: &[&[u8]]) -> VfsResult<u64> {
        if self.cov.branch("vfs::write/einval_iov", iovs.len() > 1024) {
            return Err(Errno::EINVAL);
        }
        let flat = iovs.concat();
        self.write_impl(pid, fd, WriteSource::Bytes(&flat), None, "writev")
    }

    fn write_impl(
        &mut self,
        pid: Pid,
        fd: i32,
        src: WriteSource<'_>,
        offset: Option<u64>,
        op: &'static str,
    ) -> VfsResult<u64> {
        self.cov.fn_hit("vfs::write");
        self.stats.ops += 1;
        let len = src.len();
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        let (ino, fd_offset, flags) = (file.ino, file.offset, file.flags);
        let action = self.fault_errno(&OpCtx {
            op,
            pid: Some(pid),
            path: Some(&file.path),
            ino: Some(ino),
            size: Some(len),
            offset: offset.map(|o| o as i64),
            ..OpCtx::default()
        })?;
        if self.cov.branch(
            "vfs::write/ebadf_mode",
            !flags.writable() || flags.contains(OpenFlags::O_PATH),
        ) {
            return Err(Errno::EBADF);
        }
        if self.cov.branch("vfs::write/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        let inode = self.tree.inodes.get(&ino).ok_or(Errno::EBADF)?;
        match &inode.kind {
            InodeKind::Fifo => {
                if offset.is_some() {
                    return Err(Errno::ESPIPE);
                }
                // Pipe buffers are not modelled: writes are accepted and
                // discarded.
                self.stats.bytes_written += len;
                return Ok(len);
            }
            InodeKind::CharDev(_) | InodeKind::BlockDev(_) => {
                self.stats.bytes_written += len;
                return Ok(len);
            }
            InodeKind::Dir(_) | InodeKind::Symlink(_) => return Err(Errno::EBADF),
            InodeKind::File(_) => {}
        }

        let size = inode.size();
        let uid = inode.uid;
        let pos = offset.unwrap_or(if flags.contains(OpenFlags::O_APPEND) {
            size
        } else {
            fd_offset
        });
        if self.cov.branch("vfs::write/zero", len == 0) {
            return Ok(0);
        }
        let end = pos.saturating_add(len);
        if self
            .cov
            .branch("vfs::write/efbig", end > self.config.max_file_size)
        {
            return Err(Errno::EFBIG);
        }

        // The write replaces whatever is allocated in [pos, end) with
        // `len` bytes. Charge that delta before touching the file, so
        // ENOSPC/EDQUOT leave it untouched.
        let delta = len as i64 - self.tree.get(ino).content().allocated_in(pos, end) as i64;
        self.charge(uid, delta)?;
        let content = self.tree.get_mut(ino).content_mut();
        match src {
            WriteSource::Bytes(bytes) => content.write(pos, bytes),
            WriteSource::Fill { byte, len } => content.write_fill(pos, byte, len),
        }

        let now = self.now();
        {
            let inode = self.tree.get_mut(ino);
            inode.times.mtime = now;
            inode.times.ctime = now;
        }
        if offset.is_none() {
            if let Some(f) = self.process_mut(pid).fd_mut(fd) {
                f.offset = end;
            }
        }
        self.stats.bytes_written += len;

        let skip_durability = action == Some(FaultAction::SkipDurability);
        if (flags.contains(OpenFlags::O_SYNC) || flags.contains(OpenFlags::O_DSYNC))
            && !skip_durability
        {
            self.persist_inode(ino);
        }
        Ok(len)
    }

    // ------------------------------------------------------------------
    // lseek
    // ------------------------------------------------------------------

    /// `lseek(2)`.
    ///
    /// # Errors
    ///
    /// `EBADF`, `ESPIPE` (FIFO), `EINVAL` (negative result), `ENXIO`
    /// (`SEEK_DATA`/`SEEK_HOLE` past EOF).
    pub fn lseek(&mut self, pid: Pid, fd: i32, offset: i64, whence: Whence) -> VfsResult<u64> {
        self.cov.fn_hit("vfs::lseek");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "lseek",
            pid: Some(pid),
            offset: Some(offset),
            flags: Some(whence.number()),
            ..OpCtx::default()
        })?;
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        if self.cov.branch(
            "vfs::lseek/ebadf_path",
            file.flags.contains(OpenFlags::O_PATH),
        ) {
            return Err(Errno::EBADF);
        }
        let inode = self.tree.inodes.get(&file.ino).ok_or(Errno::EBADF)?;
        if self
            .cov
            .branch("vfs::lseek/espipe", matches!(inode.kind, InodeKind::Fifo))
        {
            return Err(Errno::ESPIPE);
        }
        let size = inode.size();
        let cur = file.offset;
        let new_pos: u64 = match whence {
            Whence::Set => {
                if self.cov.branch("vfs::lseek/einval_set", offset < 0) {
                    return Err(Errno::EINVAL);
                }
                offset as u64
            }
            Whence::Cur => {
                let target = cur as i64 + offset;
                if self.cov.branch("vfs::lseek/einval_cur", target < 0) {
                    return Err(Errno::EINVAL);
                }
                target as u64
            }
            Whence::End => {
                let target = size as i64 + offset;
                if self.cov.branch("vfs::lseek/einval_end", target < 0) {
                    return Err(Errno::EINVAL);
                }
                target as u64
            }
            Whence::Data => {
                if self
                    .cov
                    .branch("vfs::lseek/enxio_data", offset < 0 || offset as u64 >= size)
                {
                    return Err(Errno::ENXIO);
                }
                match &inode.kind {
                    InodeKind::File(content) => {
                        content.next_data(offset as u64).ok_or(Errno::ENXIO)?
                    }
                    _ => offset as u64,
                }
            }
            Whence::Hole => {
                if self
                    .cov
                    .branch("vfs::lseek/enxio_hole", offset < 0 || offset as u64 >= size)
                {
                    return Err(Errno::ENXIO);
                }
                match &inode.kind {
                    InodeKind::File(content) => {
                        content.next_hole(offset as u64).ok_or(Errno::ENXIO)?
                    }
                    _ => size,
                }
            }
        };
        self.process_mut(pid)
            .fd_mut(fd)
            .expect("fd checked above")
            .offset = new_pos;
        Ok(new_pos)
    }

    // ------------------------------------------------------------------
    // truncate family
    // ------------------------------------------------------------------

    /// `truncate(2)`.
    ///
    /// # Errors
    ///
    /// `EINVAL` (negative length or non-regular file), `EISDIR`,
    /// `ENOENT`, `EACCES`, `EROFS`, `ETXTBSY`, `EFBIG`, and resolution
    /// errors.
    pub fn truncate(&mut self, pid: Pid, path: &str, length: i64) -> VfsResult<()> {
        self.cov.fn_hit("vfs::truncate");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "truncate",
            pid: Some(pid),
            path: Some(path),
            size: Some(length.max(0) as u64),
            ..OpCtx::default()
        })?;
        if self.cov.branch("vfs::truncate/einval_neg", length < 0) {
            return Err(Errno::EINVAL);
        }
        let ino = self.resolve_existing(pid, path, true)?;
        let inode = self.tree.get(ino);
        if self.cov.branch("vfs::truncate/eisdir", inode.is_dir()) {
            return Err(Errno::EISDIR);
        }
        if self
            .cov
            .branch("vfs::truncate/einval_kind", !inode.is_file())
        {
            return Err(Errno::EINVAL);
        }
        if self.cov.branch(
            "vfs::truncate/eacces",
            !self.access_ok(pid, inode, false, true, false),
        ) {
            return Err(Errno::EACCES);
        }
        if self.cov.branch("vfs::truncate/etxtbsy", inode.executing) {
            return Err(Errno::ETXTBSY);
        }
        self.truncate_inode(ino, length as u64)
    }

    /// `ftruncate(2)`.
    ///
    /// # Errors
    ///
    /// `EBADF` (unknown descriptor), `EINVAL` (negative length, not open
    /// for writing, or not a regular file), `EFBIG`, `EROFS`.
    pub fn ftruncate(&mut self, pid: Pid, fd: i32, length: i64) -> VfsResult<()> {
        self.cov.fn_hit("vfs::truncate");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "ftruncate",
            pid: Some(pid),
            size: Some(length.max(0) as u64),
            ..OpCtx::default()
        })?;
        if self.cov.branch("vfs::ftruncate/einval_neg", length < 0) {
            return Err(Errno::EINVAL);
        }
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        if self.cov.branch(
            "vfs::ftruncate/einval_mode",
            !file.flags.writable() || file.flags.contains(OpenFlags::O_PATH),
        ) {
            return Err(Errno::EINVAL);
        }
        let inode = self.tree.inodes.get(&file.ino).ok_or(Errno::EBADF)?;
        if self
            .cov
            .branch("vfs::ftruncate/einval_kind", !inode.is_file())
        {
            return Err(Errno::EINVAL);
        }
        self.truncate_inode(file.ino, length as u64)
    }

    fn truncate_inode(&mut self, ino: Ino, length: u64) -> VfsResult<()> {
        if self.cov.branch("vfs::truncate/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        if self
            .cov
            .branch("vfs::truncate/efbig", length > self.config.max_file_size)
        {
            return Err(Errno::EFBIG);
        }
        let uid = self.tree.get(ino).uid;
        let mut staged = self.tree.get(ino).content().clone();
        let before = staged.charged_bytes() as i64;
        staged.truncate(length);
        let delta = staged.charged_bytes() as i64 - before;
        self.charge(uid, delta)?;
        *self.tree.get_mut(ino).content_mut() = staged;
        let now = self.now();
        let inode = self.tree.get_mut(ino);
        inode.times.mtime = now;
        inode.times.ctime = now;
        Ok(())
    }

    // ------------------------------------------------------------------
    // fallocate
    // ------------------------------------------------------------------

    /// `fallocate(2)` over the common mode subset: 0 (allocate),
    /// `FALLOC_FL_KEEP_SIZE` (0x1), `FALLOC_FL_PUNCH_HOLE|KEEP_SIZE`
    /// (0x3), and `FALLOC_FL_ZERO_RANGE` (0x10).
    ///
    /// # Errors
    ///
    /// `EBADF` (unknown or non-writable descriptor), `EINVAL` (negative
    /// offset/length, zero length, or punch-hole without `KEEP_SIZE`),
    /// `ENODEV` (not a regular file), `ESPIPE` (FIFO), `EOPNOTSUPP`
    /// (unsupported mode bits), `EFBIG`, `ENOSPC`, `EDQUOT`, `EROFS`.
    pub fn fallocate(
        &mut self,
        pid: Pid,
        fd: i32,
        mode: u32,
        offset: i64,
        length: i64,
    ) -> VfsResult<()> {
        const KEEP_SIZE: u32 = 0x1;
        const PUNCH_HOLE: u32 = 0x2;
        const ZERO_RANGE: u32 = 0x10;
        self.cov.fn_hit("vfs::fallocate");
        self.stats.ops += 1;
        self.fault_errno(&OpCtx {
            op: "fallocate",
            pid: Some(pid),
            size: Some(length.max(0) as u64),
            offset: Some(offset),
            flags: Some(mode),
            ..OpCtx::default()
        })?;
        if self
            .cov
            .branch("vfs::fallocate/einval_range", offset < 0 || length <= 0)
        {
            return Err(Errno::EINVAL);
        }
        if self.cov.branch(
            "vfs::fallocate/eopnotsupp",
            mode & !(KEEP_SIZE | PUNCH_HOLE | ZERO_RANGE) != 0
                || (mode & PUNCH_HOLE != 0 && mode & ZERO_RANGE != 0),
        ) {
            return Err(Errno::EOPNOTSUPP);
        }
        if self.cov.branch(
            "vfs::fallocate/einval_punch",
            mode & PUNCH_HOLE != 0 && mode & KEEP_SIZE == 0,
        ) {
            return Err(Errno::EINVAL);
        }
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        if self.cov.branch(
            "vfs::fallocate/ebadf_mode",
            !file.flags.writable() || file.flags.contains(OpenFlags::O_PATH),
        ) {
            return Err(Errno::EBADF);
        }
        if self.cov.branch("vfs::fallocate/erofs", self.read_only) {
            return Err(Errno::EROFS);
        }
        let inode = self.tree.inodes.get(&file.ino).ok_or(Errno::EBADF)?;
        match &inode.kind {
            InodeKind::File(_) => {}
            InodeKind::Fifo => return Err(Errno::ESPIPE),
            _ => return Err(Errno::ENODEV),
        }
        let (offset, length) = (offset as u64, length as u64);
        let end = offset.saturating_add(length);
        if self.cov.branch(
            "vfs::fallocate/efbig",
            mode & KEEP_SIZE == 0 && end > self.config.max_file_size,
        ) {
            return Err(Errno::EFBIG);
        }
        let ino = file.ino;
        let uid = self.tree.get(ino).uid;
        let mut staged = self.tree.get(ino).content().clone();
        let before = staged.charged_bytes() as i64;
        if mode & PUNCH_HOLE != 0 {
            staged.punch_hole(offset, length);
        } else if mode & ZERO_RANGE != 0 {
            let old_size = staged.len();
            staged.write_fill(offset, 0, length);
            if mode & KEEP_SIZE != 0 && staged.len() > old_size {
                staged.truncate(old_size.max(offset.min(old_size)));
                // Re-apply the in-bounds part of the zeroing.
                if offset < old_size {
                    staged.write_fill(offset, 0, length.min(old_size - offset));
                }
            }
        } else {
            let old_size = staged.len();
            staged.allocate_range(offset, length);
            if mode & KEEP_SIZE != 0 {
                staged.truncate(old_size.max(offset.min(old_size)));
                if offset < old_size {
                    staged.allocate_range(offset, length.min(old_size - offset));
                }
            }
        }
        let delta = staged.charged_bytes() as i64 - before;
        self.charge(uid, delta)?;
        *self.tree.get_mut(ino).content_mut() = staged;
        let now = self.now();
        let inode = self.tree.get_mut(ino);
        inode.times.mtime = now;
        inode.times.ctime = now;
        Ok(())
    }

    // ------------------------------------------------------------------
    // fsync family
    // ------------------------------------------------------------------

    /// `fsync(2)`: makes the inode (data + metadata, or directory
    /// entries) crash-durable.
    ///
    /// # Errors
    ///
    /// `EBADF` (unknown or `O_PATH` descriptor), `EINVAL` (FIFO or
    /// device), plus injected faults (including silent-durability-loss
    /// bugs, which return `Ok` without persisting).
    pub fn fsync(&mut self, pid: Pid, fd: i32) -> VfsResult<()> {
        self.fsync_impl(pid, fd, "fsync")
    }

    /// `fdatasync(2)`: modelled identically to [`fsync`](Self::fsync)
    /// (the durability image does not distinguish data from metadata).
    ///
    /// # Errors
    ///
    /// As [`fsync`](Self::fsync).
    pub fn fdatasync(&mut self, pid: Pid, fd: i32) -> VfsResult<()> {
        self.fsync_impl(pid, fd, "fdatasync")
    }

    fn fsync_impl(&mut self, pid: Pid, fd: i32, op: &'static str) -> VfsResult<()> {
        self.cov.fn_hit("vfs::fsync");
        self.stats.ops += 1;
        let file = self.process(pid).fd(fd).ok_or(Errno::EBADF)?;
        let action = self.fault_errno(&OpCtx {
            op,
            pid: Some(pid),
            path: Some(&file.path),
            ino: Some(file.ino),
            ..OpCtx::default()
        })?;
        if self.cov.branch(
            "vfs::fsync/ebadf_path",
            file.flags.contains(OpenFlags::O_PATH),
        ) {
            return Err(Errno::EBADF);
        }
        let inode = self.tree.inodes.get(&file.ino).ok_or(Errno::EBADF)?;
        if self.cov.branch(
            "vfs::fsync/einval_kind",
            matches!(
                inode.kind,
                InodeKind::Fifo | InodeKind::CharDev(_) | InodeKind::BlockDev(_)
            ),
        ) {
            return Err(Errno::EINVAL);
        }
        if action == Some(FaultAction::SkipDurability) {
            // Injected crash-consistency bug: report success, persist
            // nothing.
            return Ok(());
        }
        self.persist_inode(file.ino);
        Ok(())
    }
}

#[cfg(test)]
mod fill_tests {
    use super::*;
    use crate::config::VfsConfig;
    use crate::inode::{Gid, Uid};
    use crate::process::Pid;
    use proptest::prelude::*;

    /// One write of `len` copies of `byte`: at the descriptor offset, or
    /// at `offset` through `pwrite64`.
    #[derive(Debug, Clone)]
    struct Step {
        /// Index into the open files: one owned by root (capacity only),
        /// one by an unprivileged user (capacity and quota).
        file: usize,
        offset: Option<i64>,
        byte: u8,
        len: u64,
    }

    fn step() -> impl Strategy<Value = Step> {
        (0usize..2, 0u8..3, 0i64..900, any::<u8>(), 0u64..400).prop_map(
            |(file, how, offset, byte, len)| Step {
                file,
                offset: (how > 0).then_some(offset),
                byte,
                len,
            },
        )
    }

    /// A file system with 2,000 bytes of capacity and a 1,200-byte
    /// quota, and one open file per owner.
    fn setup() -> (Vfs, [(Pid, i32); 2]) {
        let config = VfsConfig::builder()
            .capacity_bytes(2_000)
            .quota_bytes_per_uid(1_200)
            .build();
        let mut fs = Vfs::with_config(config);
        let root = fs.default_pid();
        let user = Pid(7);
        fs.spawn_process(user, Uid(1000), Gid(1000));
        fs.mkdir(root, "/d", Mode::from_bits(0o777)).unwrap();
        fs.chmod(root, "/d", Mode::from_bits(0o777)).unwrap(); // past the umask
        let flags = OpenFlags::O_CREAT | OpenFlags::O_RDWR;
        let mode = Mode::from_bits(0o644);
        let a = fs.open(root, "/d/root", flags, mode).unwrap();
        let b = fs.open(user, "/d/user", flags, mode).unwrap();
        (fs, [(root, a), (user, b)])
    }

    fn run(fs: &mut Vfs, files: [(Pid, i32); 2], step: &Step, fill: bool) -> VfsResult<u64> {
        let (pid, fd) = files[step.file];
        let bytes = vec![step.byte; step.len as usize];
        let src = if fill {
            WriteSource::Fill {
                byte: step.byte,
                len: step.len,
            }
        } else {
            WriteSource::Bytes(&bytes)
        };
        match step.offset {
            Some(offset) => fs.pwrite(pid, fd, src, offset),
            None => fs.write_src(pid, fd, src),
        }
    }

    fn content(fs: &Vfs, (pid, fd): (Pid, i32)) -> &ExtentStore {
        let ino = fs.process(pid).fd(fd).expect("open descriptor").ino;
        fs.tree.get(ino).content()
    }

    proptest! {
        /// The same script through byte buffers and through fills leaves
        /// the same contents, the same charges and the same per-uid
        /// usage, and hits `ENOSPC`/`EDQUOT` at the same steps.
        #[test]
        fn fill_writes_are_indistinguishable_from_byte_writes(
            steps in proptest::collection::vec(step(), 1..40),
        ) {
            let (mut bytes_fs, files) = setup();
            let (mut fill_fs, _) = setup();
            for step in &steps {
                let by_bytes = run(&mut bytes_fs, files, step, false);
                let by_fill = run(&mut fill_fs, files, step, true);
                prop_assert_eq!(by_bytes, by_fill, "{:?}", step);
                for file in files {
                    let (a, b) = (content(&bytes_fs, file), content(&fill_fs, file));
                    prop_assert_eq!(a.len(), b.len());
                    prop_assert!(a.content_eq(b));
                    prop_assert_eq!(a.checksum(), b.checksum());
                    prop_assert_eq!(a.charged_bytes(), b.charged_bytes());
                }
                prop_assert_eq!(&bytes_fs.tree.uid_usage, &fill_fs.tree.uid_usage);
                prop_assert_eq!(bytes_fs.stats(), fill_fs.stats());
            }
        }
    }

    #[test]
    fn tight_limits_fail_fills_like_byte_writes() {
        let (mut bytes_fs, files) = setup();
        let (mut fill_fs, _) = setup();
        let (root, user) = (0, 1);
        let script = [
            (user, 1_000, Ok(1_000)),
            (user, 300, Err(Errno::EDQUOT)),
            (root, 900, Ok(900)),
            (root, 200, Err(Errno::ENOSPC)),
            (user, 100, Ok(100)),
        ];
        for (file, len, expected) in script {
            let step = Step {
                file,
                offset: None,
                byte: 0x5a,
                len,
            };
            assert_eq!(run(&mut bytes_fs, files, &step, false), expected);
            assert_eq!(run(&mut fill_fs, files, &step, true), expected);
        }
        assert_eq!(bytes_fs.tree.uid_usage, fill_fs.tree.uid_usage);
        assert_eq!(fill_fs.tree.uid_usage.get(&1000), Some(&1_100));
    }
}
